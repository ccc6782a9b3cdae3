//! `codesign_search`: E25's seeded successive-halving search over
//! `ChipSpecSpace::paper()`, scored by the E25 objective (five
//! production models through `ChipSim`, capacity-aware sharding, the
//! calibrated module cost and power), from a cold kernel-cost cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use mtia_autotune::explore::{
    self, ChipSpecSpace, DesignPoint, ExploreConfig, ExploreOutcome, ObjectivePoint,
};
use mtia_bench::platform::{self, ServingFactors};
use mtia_compiler::{compile, Compiled, CompilerOptions};
use mtia_core::memo::CacheStats;
use mtia_core::seed::derive_indexed;
use mtia_core::spec::chips;
use mtia_core::tco::{PlatformMetrics, ServerCost};
use mtia_core::units::{Bytes, CostUnits, Watts};
use mtia_core::{calib, perfcount};
use mtia_model::graph::{Graph, TensorKind};
use mtia_model::models::zoo;
use mtia_serving::cluster::{host_bound_samples_per_s, HostPipeline};
use mtia_sim::chip::ChipSim;
use mtia_sim::costcache;

use crate::checks;
use crate::trace::Tracer;
use crate::{Digest, Verdict, Workload};

/// E25's objective model set: launched low- and high-complexity models
/// including the capacity-hungry LC5 and HC4.
pub const MODELS: [&str; 5] = ["LC3", "LC5", "HC1", "HC3", "HC4"];
/// DRAM per device held back from weights and tables (GiB).
const DRAM_RESERVE_GIB: u64 = 8;
/// Throughput kept per extra shard of a replica.
const SHARD_EFFICIENCY: f64 = 0.85;
/// Accelerator modules per server.
const MODULES: f64 = 24.0;
/// Searches per repetition, each from its own seed and a cold cache.
/// One search evaluates 100 to 125 candidates depending on its seed;
/// two per repetition halve that swing's share of `rep_s`.
pub const SEARCHES: u64 = 2;

/// One objective model's candidate-independent inputs.
struct Model {
    graph: Graph,
    host_overhead: f64,
    host_limit_per_device: f64,
    gpu: PlatformMetrics,
}

/// Shared inputs: the model graphs with their host limits and GPU
/// baselines, the space, and the seeded search configurations.
pub struct CodesignSearch {
    models: Vec<Model>,
    space: ChipSpecSpace,
    configs: Vec<ExploreConfig>,
    /// The shipped design's score, computed by the first check.
    shipped: OnceLock<ObjectivePoint>,
}

/// One search and the chip-layer counters around it.
pub struct Search {
    outcome: Result<ExploreOutcome, String>,
    chip_runs: u64,
    chip_nodes: u64,
    cache: CacheStats,
    cache_entries: usize,
}

/// Model-input bytes per sample arriving from the host.
fn input_bytes_per_sample(graph: &Graph) -> Bytes {
    let total: Bytes = graph
        .tensors()
        .iter()
        .filter(|t| t.kind == TensorKind::Input)
        .map(|t| t.bytes())
        .sum();
    total / graph.batch().max(1)
}

/// The roofline audit's candidates: every SRAM capacity and Local
/// Memory size of the space at the shipped grid, memory and clock.
fn audit_candidates() -> Vec<DesignPoint> {
    let space = ChipSpecSpace::paper();
    let paper = DesignPoint::paper();
    let mut out = Vec::new();
    for &sram_mib in &space.sram_mib {
        for &local_mem_kib in &space.local_mem_kib {
            out.push(DesignPoint {
                sram_mib,
                local_mem_kib,
                ..paper
            });
        }
    }
    out
}

impl CodesignSearch {
    /// The shipped design's score, by the same objective, computed once
    /// per process outside every repetition's timing.
    fn shipped_score(&self) -> &ObjectivePoint {
        self.shipped.get_or_init(|| {
            let compiled: Vec<Compiled> = self
                .models
                .iter()
                .map(|m| compile(&m.graph, CompilerOptions::all()))
                .collect();
            self.score(&compiled, &DesignPoint::paper(), &AtomicU64::new(0))
                .expect("the shipped design is thermally feasible")
        })
    }

    /// E25's score of one candidate.
    fn score(
        &self,
        compiled: &[Compiled],
        d: &DesignPoint,
        runs: &AtomicU64,
    ) -> Option<ObjectivePoint> {
        if !explore::is_thermally_feasible(d) {
            return None;
        }
        let spec = d.chip_spec();
        let usable = spec.dram.capacity.as_f64() - (DRAM_RESERVE_GIB << 30) as f64;
        let sim = ChipSim::new(spec);
        let serving = ServingFactors::tuned();
        let cost = ServerCost::new(
            CostUnits::new(calib::SERVER_BASE_COST + MODULES * explore::module_cost(d)),
            Watts::new(calib::MTIA_SERVER_HOST_POWER_W) + explore::typical_power(d).scale(MODULES),
        );
        let mut sums = ObjectivePoint {
            perf: 0.0,
            perf_per_tco: 0.0,
            perf_per_watt: 0.0,
        };
        for (model, c) in self.models.iter().zip(compiled) {
            let devices = (model.graph.model_bytes().as_f64() / usable)
                .ceil()
                .max(1.0);
            let report = c.run(&sim);
            runs.fetch_add(1, Ordering::Relaxed);
            let replica = (report.throughput_samples_per_s()
                * SHARD_EFFICIENCY.powf(devices - 1.0)
                * serving.batch_fill
                * serving.scheduling
                / (1.0 + model.host_overhead))
                .min(model.host_limit_per_device * devices);
            let rel =
                PlatformMetrics::new(cost, replica * MODULES / devices).relative_to(&model.gpu);
            sums.perf += rel.perf;
            sums.perf_per_tco += rel.perf_per_tco;
            sums.perf_per_watt += rel.perf_per_watt;
        }
        let n = self.models.len() as f64;
        Some(ObjectivePoint {
            perf: sums.perf / n,
            perf_per_tco: sums.perf_per_tco / n,
            perf_per_watt: sums.perf_per_watt / n,
        })
    }
}

impl Workload for CodesignSearch {
    type Output = Vec<Search>;

    fn setup(seed: u64) -> Self {
        let zoo = zoo::fig6_models();
        let models = MODELS
            .iter()
            .map(|name| {
                let m = zoo
                    .iter()
                    .find(|m| &m.name == name)
                    .expect("objective model is in the zoo");
                let graph = m.graph();
                let host_limit_per_device = host_bound_samples_per_s(
                    &chips::mtia_server(),
                    &HostPipeline::optimized(input_bytes_per_sample(&graph)),
                );
                Model {
                    host_overhead: m.host_overhead,
                    host_limit_per_device,
                    gpu: PlatformMetrics::new(
                        ServerCost::gpu_server(),
                        platform::compare_model(m).gpu_server_tput,
                    ),
                    graph,
                }
            })
            .collect();
        CodesignSearch {
            models,
            space: ChipSpecSpace::paper(),
            configs: (0..SEARCHES)
                .map(|k| ExploreConfig {
                    seed: derive_indexed(seed, "perfbench.codesign_search", k),
                    ..ExploreConfig::paper()
                })
                .collect(),
            shipped: OnceLock::new(),
        }
    }

    fn run(&self, tr: &mut Tracer) -> Vec<Search> {
        self.configs
            .iter()
            .map(|config| {
                // Every search process starts with a cold kernel-cost cache.
                costcache::reset();
                let nodes_before = perfcount::events();
                let compiled: Vec<Compiled> = tr.span("compile.s", |_| {
                    self.models
                        .iter()
                        .map(|m| compile(&m.graph, CompilerOptions::all()))
                        .collect()
                });
                let runs = AtomicU64::new(0);
                let outcome = tr.span("explore.s", |_| {
                    explore::explore(&self.space, config, |d| self.score(&compiled, d, &runs))
                });
                Search {
                    outcome: outcome.map_err(|e| format!("explore failed: {e}")),
                    chip_runs: runs.into_inner(),
                    chip_nodes: perfcount::events() - nodes_before,
                    cache: costcache::stats(),
                    cache_entries: costcache::entries(),
                }
            })
            .collect()
    }

    fn check(&self, out: &Vec<Search>) -> Result<Verdict, String> {
        let mut d = Digest::default();
        let (mut evaluated, mut infeasible, mut runs, mut nodes) = (0, 0, 0, 0);
        let (mut hits, mut misses, mut entries) = (0, 0, 0);
        for search in out {
            let o = search.outcome.as_ref().map_err(Clone::clone)?;
            checks::best_undominated(&o.evaluated, &o.best)?;
            checks::shipped_unbeaten(&o.best, self.shipped_score())?;
            for p in &o.evaluated {
                d.add(p.index as u64)
                    .add_f64(p.score.perf)
                    .add_f64(p.score.perf_per_tco)
                    .add_f64(p.score.perf_per_watt);
            }
            for p in &o.frontier {
                d.add(p.index as u64);
            }
            d.add(o.infeasible as u64).add(o.best.index as u64);
            d.add(search.chip_runs);
            evaluated += o.evaluated.len();
            infeasible += o.infeasible;
            runs += search.chip_runs;
            nodes += search.chip_nodes;
            hits += search.cache.hits;
            misses += search.cache.misses;
            entries += search.cache_entries;
        }
        let cache = CacheStats { hits, misses };
        Ok(Verdict {
            digest: d.finish(),
            counts: vec![
                ("explore.evaluated", evaluated as f64),
                ("explore.infeasible", infeasible as f64),
                ("chip.runs", runs as f64),
                ("chip.nodes", nodes as f64),
                ("costcache.hits", hits as f64),
                ("costcache.misses", misses as f64),
                ("costcache.hit_rate", cache.hit_rate()),
                ("costcache.entries", entries as f64),
            ],
        })
    }

    /// Every model on every audit candidate runs no faster than the
    /// candidate's roofline. The candidates do not depend on the seed.
    fn audit(&self) -> Option<checks::Check> {
        let compiled: Vec<Compiled> = self
            .models
            .iter()
            .map(|m| compile(&m.graph, CompilerOptions::all()))
            .collect();
        let mut violations = Vec::new();
        for d in audit_candidates() {
            let spec = d.chip_spec();
            let sim = ChipSim::new(spec.clone());
            for c in &compiled {
                let r = c.run(&sim);
                let floor =
                    checks::roofline_floor_s(&spec, r.flops().as_f64(), r.dram_bytes().as_f64());
                let what = format!("{} on {}", r.model, d.label());
                let kernel_s = r.kernel_time().as_secs_f64();
                if let Err(e) = checks::above_roofline(&what, kernel_s, floor, r.nodes.len()) {
                    violations.push(e);
                }
            }
        }
        Some(match violations.first() {
            None => Ok(()),
            Some(first) => Err(format!(
                "{} of {} roofline audit runs beat the floor; first: {first}",
                violations.len(),
                audit_candidates().len() * compiled.len()
            )),
        })
    }
}
