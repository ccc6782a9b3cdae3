//! Output checks, computed by the benchmark from the reports' raw
//! fields rather than through the program's own helpers. A repetition
//! counts as failed unless every check it runs passes.

use std::f64::consts::PI;

use mtia_autotune::explore::{DesignPoint, EvaluatedPoint, ObjectivePoint};
use mtia_core::spec::ChipSpec;
use mtia_core::{DType, SimTime};
use mtia_serving::failover::FailoverReport;
use mtia_serving::global::{GlobalReport, PlanetReport, RegionalTrace, RegionalTrafficConfig};
use mtia_serving::resilience::ResilienceReport;

/// A failed check's explanation.
pub type Check = Result<(), String>;

macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// Every request of a global-DES report ends in exactly one terminal
/// bucket: `offered == served_full + served_degraded + shed + lost`.
pub fn global_conserves(what: &str, r: &GlobalReport) -> Check {
    let accounted = r.served_full + r.served_degraded + r.shed + r.lost;
    ensure!(
        r.offered == accounted,
        "{what}: offered {} != served_full {} + served_degraded {} + shed {} + lost {}",
        r.offered,
        r.served_full,
        r.served_degraded,
        r.shed,
        r.lost
    );
    Ok(())
}

/// Reads one counter of a report.
type Counter = fn(&GlobalReport) -> u64;

/// The counters a planet merge must sum exactly over its cells.
const SUMMED: [(&str, Counter); 15] = [
    ("offered", |r| r.offered),
    ("served_full", |r| r.served_full),
    ("served_degraded", |r| r.served_degraded),
    ("shed", |r| r.shed),
    ("lost", |r| r.lost),
    ("spillover", |r| r.spillover),
    ("hedges_issued", |r| r.hedges_issued),
    ("retries_issued", |r| r.retries_issued),
    ("retries_shed", |r| r.retries_shed),
    ("breaker_opens", |r| r.breaker_opens),
    ("cancelled_at_admission", |r| r.cancelled_at_admission),
    ("scale_events", |r| r.scale_events),
    ("device_downs", |r| r.device_downs),
    ("events", |r| r.events),
    ("latency samples", |r| r.request_latency.count()),
];

/// Each cell conserves and offered exactly its trace (`trace_lens`, as
/// counted by the benchmark); the merge conserves and equals the
/// per-cell sums.
pub fn planet_consistent(what: &str, p: &PlanetReport, trace_lens: &[usize]) -> Check {
    ensure!(
        p.cells.len() == trace_lens.len(),
        "{what}: {} cell reports for {} cells",
        p.cells.len(),
        trace_lens.len()
    );
    for (i, (cell, &len)) in p.cells.iter().zip(trace_lens).enumerate() {
        global_conserves(&format!("{what} cell {i}"), cell)?;
        ensure!(
            cell.offered == len as u64,
            "{what} cell {i}: offered {} but the trace holds {len} arrivals",
            cell.offered
        );
    }
    global_conserves(&format!("{what} merged"), &p.merged)?;
    for (name, field) in SUMMED {
        let sum: u64 = p.cells.iter().map(field).sum();
        ensure!(
            field(&p.merged) == sum,
            "{what}: merged {name} {} != per-cell sum {sum}",
            field(&p.merged)
        );
    }
    Ok(())
}

/// Mean arrival count of one region over `[0, horizon]`: the integral
/// of `base · (1 + A·sin(2π(t + φ)/P))` with the region's timezone
/// phase `φ = P · region/regions`, without flash crowds (`.0`) and
/// with the largest lift the configured crowds can add (`.1`).
pub fn expected_region_arrivals(
    traffic: &RegionalTrafficConfig,
    regions: u32,
    region: u32,
    horizon: SimTime,
) -> (f64, f64) {
    let (h, p) = (horizon.as_secs_f64(), traffic.period.as_secs_f64());
    let phase = p * region as f64 / regions as f64;
    let base = traffic.base_rate_per_s;
    let diurnal = base * traffic.amplitude * p / (2.0 * PI)
        * ((2.0 * PI * phase / p).cos() - (2.0 * PI * (h + phase) / p).cos());
    let mean = base * h + diurnal;
    let crowd_window =
        (traffic.crowd_duration.as_secs_f64() * traffic.crowds_per_region as f64).min(h);
    let lift = base
        * (1.0 + traffic.amplitude)
        * (traffic
            .crowd_multiplier
            .powi(traffic.crowds_per_region as i32)
            - 1.0)
        * crowd_window;
    (mean, mean + lift)
}

/// Arrivals are time-sorted, inside `[0, horizon]`, from known regions,
/// and each region's count lies within six standard deviations of a
/// Poisson count around its rate curve.
pub fn arrivals_valid(
    trace: &RegionalTrace,
    traffic: &RegionalTrafficConfig,
    regions: u32,
    horizon: SimTime,
) -> Check {
    let arrivals = trace.arrivals();
    let mut counts = vec![0u64; regions as usize];
    let mut last = SimTime::ZERO;
    for (i, a) in arrivals.iter().enumerate() {
        ensure!(a.at >= last, "arrival {i} at {} precedes {last}", a.at);
        ensure!(a.at <= horizon, "arrival {i} at {} is past {horizon}", a.at);
        ensure!(a.region < regions, "arrival {i} from region {}", a.region);
        counts[a.region as usize] += 1;
        last = a.at;
    }
    for (region, &n) in counts.iter().enumerate() {
        let (lo, hi) = expected_region_arrivals(traffic, regions, region as u32, horizon);
        let (lo, hi) = (lo - 6.0 * lo.sqrt() - 10.0, hi + 6.0 * hi.sqrt() + 10.0);
        ensure!(
            (lo..=hi).contains(&(n as f64)),
            "region {region}: {n} arrivals outside the Poisson band [{lo:.0}, {hi:.0}]"
        );
    }
    Ok(())
}

/// Production retry budget: a retry is allowed while
/// `spent + 1 <= fresh · 0.1 + 5` per pod.
pub const BUDGET_FRACTION: f64 = 0.1;
/// Per-pod burst allowance of the production retry budget.
pub const BUDGET_BURST: u64 = 5;

/// A budgeted arm's retries stay within the fleet-wide amplification
/// bound `floor(offered · fraction) + pods · burst`.
pub fn retry_budget_holds(what: &str, r: &GlobalReport, pods: u32) -> Check {
    let bound = (r.offered as f64 * BUDGET_FRACTION).floor() as u64 + pods as u64 * BUDGET_BURST;
    ensure!(
        r.retries_issued <= bound,
        "{what}: {} retries exceed the budget bound {bound}",
        r.retries_issued
    );
    Ok(())
}

/// The storm happened: the naive arm retried more than every budgeted
/// arm.
pub fn storm_happened(naive: &GlobalReport, budgeted: &[&GlobalReport]) -> Check {
    for b in budgeted {
        ensure!(
            naive.retries_issued > b.retries_issued,
            "naive arm issued {} retries, not more than {}'s {}",
            naive.retries_issued,
            b.policy,
            b.retries_issued
        );
    }
    Ok(())
}

/// Roofline floor of one run on `spec`: its flops at the highest peak
/// any engine reaches in any data type (2:4 sparsity included), or its
/// DRAM bytes at the DRAM bandwidth, whichever takes longer.
pub fn roofline_floor_s(spec: &ChipSpec, flops: f64, dram_bytes: f64) -> f64 {
    let peak = DType::ALL
        .iter()
        .flat_map(|&d| {
            [
                spec.gemm_peak(d, true),
                spec.simd_engine_peak(d),
                spec.vector_peak(d),
            ]
        })
        .map(|r| r.as_flops_per_s())
        .fold(0.0, f64::max);
    (flops / peak).max(dram_bytes / spec.dram.bandwidth.as_bytes_per_s())
}

/// A run's kernel time is no faster than its roofline floor. Node times
/// sit on a picosecond grid, so each node may round down by 1 ps.
pub fn above_roofline(what: &str, kernel_s: f64, floor_s: f64, nodes: usize) -> Check {
    let slack = nodes as f64 * 1e-12 + floor_s * 1e-12;
    if kernel_s + slack < floor_s {
        return Err(format!(
            "{what}: kernel time {kernel_s:.3e} s beats the roofline floor {floor_s:.3e} s"
        ));
    }
    Ok(())
}

/// Whether `a` is at least as good as `b` on Perf/TCO and Perf/Watt and
/// strictly better on one of them.
fn dominates(a: &EvaluatedPoint, b: &EvaluatedPoint) -> bool {
    let (a, b) = (a.score, b.score);
    a.perf_per_tco >= b.perf_per_tco
        && a.perf_per_watt >= b.perf_per_watt
        && (a.perf_per_tco > b.perf_per_tco || a.perf_per_watt > b.perf_per_watt)
}

/// The reported best was evaluated and no evaluated candidate
/// Pareto-dominates it.
pub fn best_undominated(evaluated: &[EvaluatedPoint], best: &EvaluatedPoint) -> Check {
    ensure!(
        evaluated.iter().any(|p| p == best),
        "best {} is not among the evaluated candidates",
        best.design.label()
    );
    for p in evaluated {
        ensure!(
            !dominates(p, best),
            "{} dominates the reported best {}",
            p.design.label(),
            best.design.label()
        );
    }
    Ok(())
}

/// The search found nothing with a higher Perf/TCO than the shipped
/// design, which the benchmark scores itself; a best at the shipped
/// design carries exactly that score. The search need not reach the
/// shipped design on every seed, so this does not require it.
pub fn shipped_unbeaten(best: &EvaluatedPoint, shipped: &ObjectivePoint) -> Check {
    let paper = DesignPoint::paper();
    ensure!(
        best.score
            .perf_per_tco
            .partial_cmp(&shipped.perf_per_tco)
            .is_some_and(|o| o.is_le()),
        "best {} at Perf/TCO {} beats the shipped {} at {}",
        best.design.label(),
        best.score.perf_per_tco,
        paper.label(),
        shipped.perf_per_tco
    );
    ensure!(
        best.design != paper || best.score == *shipped,
        "the search scored the shipped {} {:?}, the benchmark {:?}",
        paper.label(),
        best.score,
        shipped
    );
    Ok(())
}

/// `offered == completed + shed + lost` for a failover arm.
pub fn failover_conserves(r: &FailoverReport) -> Check {
    let accounted = r.completed + r.shed + r.lost;
    ensure!(
        r.offered == accounted,
        "failover {}: offered {} != completed {} + shed {} + lost {}",
        r.placement,
        r.offered,
        r.completed,
        r.shed,
        r.lost
    );
    Ok(())
}

/// `offered == completed + shed + dropped + stuck` for a resilience arm.
pub fn resilience_conserves(r: &ResilienceReport) -> Check {
    let accounted = r.completed + r.shed + r.dropped + r.stuck;
    ensure!(
        r.offered == accounted,
        "resilience {}: offered {} != completed {} + shed {} + dropped {} + stuck {}",
        r.policy,
        r.offered,
        r.completed,
        r.shed,
        r.dropped,
        r.stuck
    );
    Ok(())
}

/// A drained remote/merge run completed every request that arrived.
pub fn drained_conserves(arrived: u64, completed: u64) -> Check {
    ensure!(
        arrived == completed,
        "scheduler: {arrived} arrivals but {completed} completions after draining"
    );
    Ok(())
}

/// The rate `max_rate_under_slo` returned meets the SLO when replayed.
pub fn meets_slo(p99: SimTime, samples: u64, slo: SimTime) -> Check {
    ensure!(samples > 0, "scheduler: the SLO replay recorded no latency");
    ensure!(
        p99 <= slo,
        "scheduler: replayed P99 {p99} exceeds the SLO {slo}"
    );
    Ok(())
}
