//! `planet_replay`: fault-free planetary cells synthesized and replayed
//! through the cell-sharded DES with fleet-wide ladder coupling — E24's
//! recipe with fewer, shorter cells.

use std::time::Instant;

use mtia_core::seed::{derive, derive_indexed};
use mtia_core::SimTime;
use mtia_fleet::topology::GlobalTopologyConfig;
use mtia_serving::global::{
    build_regional_trace, simulate_global, simulate_planet, CellSpec, GlobalArrival, GlobalConfig,
    GlobalFleetSpec, PlanetConfig, PlanetReport, RegionalTrafficConfig, RoutingPolicy,
};
use mtia_sim::faults::FaultPlan;

use crate::checks;
use crate::trace::Tracer;
use crate::{Digest, Verdict, Workload};

/// Cells per repetition: at least twice the pool's two threads.
pub const CELLS: u64 = 4;
/// Diurnal base rate per region (requests/s).
pub const RATE_PER_REGION: f64 = 600.0;
/// Arrival horizon, also the diurnal period.
pub const HORIZON_S: u64 = 25;

/// Shared inputs: one fleet shape, and per cell a seed and config.
pub struct PlanetReplay {
    spec: GlobalFleetSpec,
    traffic: RegionalTrafficConfig,
    horizon: SimTime,
    cells: Vec<(u64, GlobalConfig, FaultPlan)>,
}

/// The synthesized cells and their merged replay.
pub struct Replay {
    cells: Vec<CellSpec>,
    report: PlanetReport,
}

impl Workload for PlanetReplay {
    type Output = Replay;

    fn setup(seed: u64) -> Self {
        let horizon = SimTime::from_secs(HORIZON_S);
        let base = derive(seed, "perfbench.planet_replay");
        PlanetReplay {
            spec: GlobalTopologyConfig::planetary().build().fleet_spec(),
            traffic: RegionalTrafficConfig::production(RATE_PER_REGION, horizon),
            horizon,
            cells: (0..CELLS)
                .map(|i| {
                    let s = derive_indexed(base, "cell", i);
                    (
                        s,
                        GlobalConfig::production(s),
                        FaultPlan::empty(derive(s, "plan")),
                    )
                })
                .collect(),
        }
    }

    fn run(&self, tr: &mut Tracer) -> Replay {
        let traces = tr.span("arrivals.synth_s", |_| {
            self.cells
                .iter()
                .map(|(s, _, _)| {
                    build_regional_trace(&self.traffic, self.spec.regions, self.horizon, *s)
                })
                .collect::<Vec<_>>()
        });
        let cells: Vec<CellSpec> = self
            .cells
            .iter()
            .zip(traces)
            .map(|((_, config, plan), trace)| CellSpec {
                spec: self.spec.clone(),
                config: config.clone(),
                trace,
                plan: plan.clone(),
                policy: RoutingPolicy::HealthAware,
            })
            .collect();
        let report = tr.span("planet.sim_s", |_| {
            simulate_planet(&cells, PlanetConfig::production())
        });
        Replay { cells, report }
    }

    fn check(&self, out: &Replay) -> Result<Verdict, String> {
        let lens: Vec<usize> = out.cells.iter().map(|c| c.trace.len()).collect();
        for c in &out.cells {
            checks::arrivals_valid(&c.trace, &self.traffic, self.spec.regions, self.horizon)?;
        }
        checks::planet_consistent("planet", &out.report, &lens)?;
        let mut d = Digest::default();
        d.add_global(&out.report.merged);
        for c in &out.report.cells {
            d.add_global(c);
        }
        let arrivals: usize = lens.iter().sum();
        Ok(Verdict {
            digest: d.finish(),
            counts: vec![
                ("arrivals.count", arrivals as f64),
                (
                    "arrivals.mb",
                    (arrivals * std::mem::size_of::<GlobalArrival>()) as f64 / 1e6,
                ),
                ("planet.events", out.report.merged.events as f64),
            ],
        })
    }

    /// The planet on min(2, nproc) pool threads, and each cell replayed
    /// alone: the speed-up, the epoch barrier's cost and the cell
    /// imbalance against the one-thread `planet.sim_s`.
    fn diagnostics(&self, out: &Replay) -> Vec<(&'static str, f64)> {
        mtia_core::pool::set_threads(crate::pool_threads());
        let t = Instant::now();
        simulate_planet(&out.cells, PlanetConfig::production());
        let pool_s = t.elapsed().as_secs_f64();
        mtia_core::pool::set_threads(1);
        let (mut lone, mut lone_events) = (Vec::new(), 0);
        for c in &out.cells {
            let t = Instant::now();
            let r = simulate_global(&c.spec, &c.config, &c.trace, &c.plan, c.policy);
            lone.push(t.elapsed().as_secs_f64());
            lone_events += r.events;
        }
        let sum: f64 = lone.iter().sum();
        let slowest = lone.iter().copied().fold(0.0, f64::max);
        let mut m = vec![
            ("planet.pool_s", pool_s),
            ("planet.cell_imbalance", slowest * lone.len() as f64 / sum),
        ];
        // The barrier's cost is only meaningful while the coupled planet
        // replays exactly the events of its cells run alone.
        if lone_events == out.report.merged.events {
            m.push(("planet.lone_cells_s", sum));
        } else {
            eprintln!(
                "planet.epoch_overhead_s omitted: coupled {} vs lone {lone_events} events",
                out.report.merged.events
            );
        }
        m
    }
}
