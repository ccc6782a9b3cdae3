//! The benchmark's own tests: each output check fires on a deliberately
//! corrupted result, and a second seed passes every check.
//!
//! The workload test replays full repetitions; run it with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use mtia_autotune::explore::{DesignPoint, EvaluatedPoint, MemTech, ObjectivePoint};
use mtia_compiler::{compile, CompilerOptions};
use mtia_core::seed::derive_indexed;
use mtia_core::SimTime;
use mtia_model::models::zoo;
use mtia_serving::global::{
    build_regional_trace, simulate_planet, CellSpec, GlobalConfig, GlobalFleetSpec, PlanetConfig,
    PlanetReport, RegionalTrace, RegionalTrafficConfig, RoutingPolicy,
};
use mtia_sim::chip::ChipSim;
use mtia_sim::faults::FaultPlan;

use crate::checks;
use crate::trace::Tracer;
use crate::Workload;

const HORIZON: SimTime = SimTime::from_secs(20);

fn traffic() -> RegionalTrafficConfig {
    RegionalTrafficConfig::production(20.0, HORIZON)
}

/// A two-cell toy planet, small enough for a debug build.
fn toy_planet(policy: RoutingPolicy) -> (Vec<CellSpec>, PlanetReport) {
    let spec = GlobalFleetSpec::symmetric(2, 2, 8, SimTime::from_millis(60));
    let cells: Vec<CellSpec> = (0..2)
        .map(|i| {
            let seed = derive_indexed(7, "toy", i);
            CellSpec {
                spec: spec.clone(),
                config: GlobalConfig::production(seed),
                trace: build_regional_trace(&traffic(), spec.regions, HORIZON, seed),
                plan: FaultPlan::empty(seed),
                policy,
            }
        })
        .collect();
    let report = simulate_planet(&cells, PlanetConfig::production());
    (cells, report)
}

fn lens(cells: &[CellSpec]) -> Vec<usize> {
    cells.iter().map(|c| c.trace.len()).collect()
}

#[test]
fn conservation_fires_on_a_removed_served_request() {
    let (cells, report) = toy_planet(RoutingPolicy::HealthAware);
    checks::planet_consistent("toy", &report, &lens(&cells)).expect("intact report passes");

    let mut merged = report.clone();
    merged.merged.served_full -= 1;
    assert!(checks::global_conserves("toy", &merged.merged).is_err());
    assert!(checks::planet_consistent("toy", &merged, &lens(&cells)).is_err());

    // One cell loses a request but the merge is untouched: the cell
    // fails conservation and the merge no longer equals the sum.
    let mut cell = report.clone();
    cell.cells[1].served_full -= 1;
    assert!(checks::planet_consistent("toy", &cell, &lens(&cells)).is_err());

    // The trace the benchmark counted disagrees with what was offered.
    let mut short = lens(&cells);
    short[0] -= 1;
    assert!(checks::planet_consistent("toy", &report, &short).is_err());
}

#[test]
fn arrival_checks_fire_on_unsorted_late_or_thinned_traces() {
    let (cells, _) = toy_planet(RoutingPolicy::HealthAware);
    let trace = &cells[0].trace;
    checks::arrivals_valid(trace, &traffic(), 2, HORIZON).expect("intact trace passes");

    let mut late = trace.arrivals().to_vec();
    late.last_mut().expect("non-empty trace").at = HORIZON + SimTime::from_secs(1);
    let late = RegionalTrace::new(late);
    assert!(checks::arrivals_valid(&late, &traffic(), 2, HORIZON).is_err());

    // Keep a quarter of region 0's arrivals: far outside the band.
    let mut kept = 0;
    let thinned: Vec<_> = trace
        .arrivals()
        .iter()
        .copied()
        .filter(|a| {
            kept += 1;
            a.region != 0 || kept % 4 == 0
        })
        .collect();
    let thinned = RegionalTrace::new(thinned);
    assert!(checks::arrivals_valid(&thinned, &traffic(), 2, HORIZON).is_err());
}

#[test]
fn rate_integral_matches_a_numeric_integral() {
    let t = RegionalTrafficConfig {
        crowds_per_region: 0,
        ..RegionalTrafficConfig::production(100.0, SimTime::from_secs(90))
    };
    let horizon = SimTime::from_secs(70);
    for region in 0..3 {
        let (mean, hi) = checks::expected_region_arrivals(&t, 3, region, horizon);
        assert_eq!(mean, hi, "no crowds, no lift");
        let steps = 70_000;
        let dt = 70.0 / steps as f64;
        let numeric: f64 = (0..steps)
            .map(|i| {
                let x = (i as f64 + 0.5) * dt;
                let phase = 90.0 * region as f64 / 3.0;
                100.0 * (1.0 + 0.4 * (2.0 * std::f64::consts::PI * (x + phase) / 90.0).sin()) * dt
            })
            .sum();
        assert!(
            (mean - numeric).abs() < 1e-6 * numeric,
            "{mean} vs {numeric}"
        );
    }
}

#[test]
fn retry_bound_fires_when_broken() {
    let (_, report) = toy_planet(RoutingPolicy::OverloadResilient);
    let r = &report.merged;
    let pods = 8;
    let bound =
        (r.offered as f64 * checks::BUDGET_FRACTION).floor() as u64 + pods * checks::BUDGET_BURST;
    let mut at_bound = r.clone();
    at_bound.retries_issued = bound;
    checks::retry_budget_holds("toy", &at_bound, pods as u32).expect("the bound itself holds");
    let mut broken = r.clone();
    broken.retries_issued = bound + 1;
    assert!(checks::retry_budget_holds("toy", &broken, pods as u32).is_err());

    // A naive arm that retried no more than a budgeted one: no storm.
    assert!(checks::storm_happened(&at_bound, &[&at_bound]).is_err());
    assert!(checks::storm_happened(&broken, &[&at_bound]).is_ok());
}

#[test]
fn roofline_fires_on_a_latency_below_the_floor() {
    let spec = DesignPoint::paper().chip_spec();
    let model = zoo::fig6_models()
        .into_iter()
        .find(|m| m.name == "LC3")
        .expect("LC3 is in the zoo");
    let report = compile(&model.graph(), CompilerOptions::all()).run(&ChipSim::new(spec.clone()));
    let floor =
        checks::roofline_floor_s(&spec, report.flops().as_f64(), report.dram_bytes().as_f64());
    assert!(floor > 0.0);
    let kernel = report.kernel_time().as_secs_f64();
    checks::above_roofline("LC3", kernel, floor, report.nodes.len()).expect("LC3 is above");
    // Push the latency just below the floor.
    assert!(checks::above_roofline("LC3", floor * 0.999, floor, report.nodes.len()).is_err());
}

fn point(index: usize, perf_per_tco: f64, perf_per_watt: f64) -> EvaluatedPoint {
    EvaluatedPoint {
        index,
        design: DesignPoint {
            sram_mib: 64 << index,
            pe_rows: 8,
            pe_cols: 8,
            mem: MemTech::Lpddr,
            freq_mhz: 1350,
            local_mem_kib: 384,
        },
        score: ObjectivePoint {
            perf: 1.0,
            perf_per_tco,
            perf_per_watt,
        },
    }
}

#[test]
fn dominance_check_fires_on_a_dominated_best() {
    let evaluated = vec![point(0, 1.8, 1.2), point(1, 1.5, 1.1), point(2, 1.2, 1.4)];
    checks::best_undominated(&evaluated, &evaluated[0]).expect("the true best passes");
    // Swap a dominated point in as the reported best.
    assert!(checks::best_undominated(&evaluated, &evaluated[1]).is_err());
    // A best that was never evaluated.
    assert!(checks::best_undominated(&evaluated, &point(3, 2.0, 2.0)).is_err());
}

#[test]
fn shipped_check_fires_on_a_best_that_beats_the_shipped_design() {
    let shipped = ObjectivePoint {
        perf: 1.0,
        perf_per_tco: 1.8,
        perf_per_watt: 1.4,
    };
    // A search that stopped short of the shipped design passes.
    checks::shipped_unbeaten(&point(0, 1.7, 1.5), &shipped).expect("a lower best passes");
    // Anything scored above the shipped design fails.
    assert!(checks::shipped_unbeaten(&point(0, 1.9, 1.2), &shipped).is_err());
    // So does the shipped design itself under a different score.
    let mut paper = point(0, 1.8, 1.3);
    paper.design = DesignPoint::paper();
    assert!(checks::shipped_unbeaten(&paper, &shipped).is_err());
    paper.score = shipped;
    checks::shipped_unbeaten(&paper, &shipped).expect("the shipped design's own score passes");
}

#[test]
fn drained_and_slo_checks_fire() {
    assert!(checks::drained_conserves(100, 100).is_ok());
    assert!(checks::drained_conserves(100, 99).is_err());
    let slo = SimTime::from_millis(100);
    assert!(checks::meets_slo(slo, 10, slo).is_ok());
    assert!(checks::meets_slo(slo + SimTime::from_picos(1), 10, slo).is_err());
    assert!(checks::meets_slo(SimTime::ZERO, 0, slo).is_err());
}

/// One repetition at a seed the benchmark's tuning never used: every
/// output check passes, and a second repetition repeats the digest.
fn passes_at_second_seed<W: Workload>() {
    let w = W::setup(2);
    let digest = |w: &W| match w.check(&w.run(&mut Tracer::off())) {
        Ok(v) => v.digest,
        Err(e) => panic!("check failed: {e}"),
    };
    assert_eq!(digest(&w), digest(&w));
}

#[test]
fn planet_replay_passes_at_a_second_seed() {
    passes_at_second_seed::<crate::planet::PlanetReplay>();
}

#[test]
fn overload_storm_passes_at_a_second_seed() {
    passes_at_second_seed::<crate::overload::OverloadStorm>();
}

#[test]
fn codesign_search_passes_at_a_second_seed() {
    passes_at_second_seed::<crate::codesign::CodesignSearch>();
}

#[test]
fn pod_serving_passes_at_a_second_seed() {
    passes_at_second_seed::<crate::pod::PodServing>();
}

/// The metric names the benchmark prints are the ones `BENCHMARK.json`
/// declares.
#[test]
fn metric_names_match_the_benchmark_declaration() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let section = |key: &str| -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap_or("")
                    .to_string()
            })
            .collect()
    };
    let per_layer: Vec<String> = crate::PER_LAYER
        .iter()
        .map(|(k, _)| k.to_string())
        .collect();
    assert_eq!(section("per_layer"), per_layer);
    assert_eq!(section("end_to_end"), crate::END_TO_END);
}
