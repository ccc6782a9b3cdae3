//! Repetition-timed host-cost benchmark of the simulators.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload planet_replay --seed 1 --seconds 15 --trace 0
//! ```
//!
//! One process runs one workload. It builds the workload's shared
//! inputs from `--seed`, then repeats the workload's deterministic unit
//! of work, a *repetition*, until `--seconds` have passed, timing more
//! set-ups between repetitions. Every repetition's outputs are checked and
//! reduced to a digest that must not change between repetitions. The
//! last stdout line is one JSON object: `correct`, `attempted` and
//! `failed` repetitions, and the metrics.
//!
//! With `--trace 0` the metrics are the end-to-end host costs. With
//! `--trace 1` untraced and traced repetitions alternate; the metrics
//! are the per-layer figures from the spans the benchmark records
//! around its own calls into each layer, plus the tracing overhead,
//! and the spans are written to `perfbench/out/`. See `README.md`.

mod checks;
mod codesign;
mod measure;
mod overload;
mod planet;
mod pod;
mod trace;

#[cfg(test)]
mod tests;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mtia_serving::global::GlobalReport;

use crate::measure::{median, min, timed};
use crate::trace::Tracer;

/// Set-up timing: after every untraced repetition, outside its timing,
/// up to `SETUP_SAMPLES` set-ups or `SETUP_SLICE_S` of them are timed,
/// each dropped after its timer stops. Spreading the samples over the
/// whole run makes their median follow the run's host conditions, not
/// those of the run's first instant.
const SETUP_SAMPLES: usize = 64;
const SETUP_SLICE_S: f64 = 1e-3;

/// One benchmark workload.
pub trait Workload: Sized {
    /// What one repetition's timed work hands to the checks.
    type Output;
    /// Builds the inputs every repetition shares, from the seed.
    fn setup(seed: u64) -> Self;
    /// The timed unit of work.
    fn run(&self, tr: &mut Tracer) -> Self::Output;
    /// The output checks (untimed); on success, the digest and the
    /// simulated counts the per-layer report needs.
    fn check(&self, out: &Self::Output) -> Result<Verdict, String>;
    /// An extra operation on inputs that do not depend on the seed,
    /// attempted once per repetition outside its timing.
    fn audit(&self) -> Option<checks::Check> {
        None
    }
    /// Traced runs only: timings taken outside the repetitions.
    fn diagnostics(&self, _out: &Self::Output) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// A passing repetition's summary.
pub struct Verdict {
    /// Digest of every simulated statistic the repetition produced.
    pub digest: u64,
    /// Simulated counts, by per-layer metric name.
    pub counts: Vec<(&'static str, f64)>,
}

/// FNV-1a over 64-bit words: the simulated-statistics digest.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn add(&mut self, word: u64) -> &mut Self {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Folds a float in by its bits.
    pub fn add_f64(&mut self, x: f64) -> &mut Self {
        self.add(x.to_bits())
    }

    /// Folds every counter, fingerprint, latency quantile and the
    /// timeline of a global-DES report in.
    pub fn add_global(&mut self, r: &GlobalReport) -> &mut Self {
        for word in [
            r.fault_fingerprint,
            r.trace_fingerprint,
            r.offered,
            r.served_full,
            r.served_degraded,
            r.shed,
            r.lost,
            r.lost_unroutable,
            r.lost_killed,
            r.lost_deadline,
            r.spillover,
            r.hedges_issued,
            r.hedge_wins,
            r.duplicates_suppressed,
            r.hedges_cancelled,
            r.retries_issued,
            r.retries_shed,
            r.breaker_opens,
            r.cancelled_at_admission,
            r.scale_events,
            r.outlier_demotions,
            r.device_downs,
            r.events,
            r.request_latency.count(),
            r.request_latency.p50().as_picos(),
            r.request_latency.p99().as_picos(),
            r.request_latency.max().as_picos(),
            r.spillover_latency.count(),
            r.recovery_time.as_picos(),
        ] {
            self.add(word);
        }
        self.add_f64(r.capacity_headroom);
        for row in &r.routed {
            for &n in row {
                self.add(n);
            }
        }
        for b in &r.timeline {
            self.add(b.offered).add(b.served);
        }
        self
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// End-to-end metrics, in report order.
pub const END_TO_END: [&str; 4] = ["setup_s", "rep_s", "cpu_s", "peak_rss_mb"];

/// Per-layer metrics, with units, in report order.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("arrivals.synth_s", "s"),
    ("arrivals.count", "count"),
    ("arrivals.mb", "MB"),
    ("planet.sim_s", "s"),
    ("planet.events", "count"),
    ("planet.events_per_s", "1/s"),
    ("planet.speedup", "ratio"),
    ("planet.epoch_overhead_s", "s"),
    ("planet.cell_imbalance", "ratio"),
    ("arm.naive.sim_s", "s"),
    ("arm.naive.events", "count"),
    ("arm.budget.sim_s", "s"),
    ("arm.budget.events", "count"),
    ("arm.autoscale.sim_s", "s"),
    ("arm.autoscale.events", "count"),
    ("overload.retries_issued", "count"),
    ("overload.retries_shed", "count"),
    ("overload.breaker_opens", "count"),
    ("overload.cancelled_at_admission", "count"),
    ("overload.scale_events", "count"),
    ("compile.s", "s"),
    ("explore.s", "s"),
    ("explore.evaluated", "count"),
    ("explore.infeasible", "count"),
    ("chip.runs", "count"),
    ("chip.nodes", "count"),
    ("chip.nodes_per_s", "1/s"),
    ("costcache.hits", "count"),
    ("costcache.misses", "count"),
    ("costcache.hit_rate", "ratio"),
    ("costcache.entries", "count"),
    ("failover.sim_s", "s"),
    ("failover.requests", "count"),
    ("resilience.sim_s", "s"),
    ("resilience.requests", "count"),
    ("scheduler.sim_s", "s"),
    ("scheduler.requests", "count"),
    ("reps", "count"),
    ("rep_median_s", "s"),
    ("tracing.overhead", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: mtia-perfbench --workload <planet_replay|overload_storm|\
codesign_search|pod_serving> [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The run's result line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN; a run with one is already not `correct`.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Operation bookkeeping shared by both modes.
#[derive(Default)]
struct Reps {
    digest: Option<u64>,
    attempted: u64,
    failed: u64,
    nondeterministic: bool,
    audit_failures: u64,
}

impl Reps {
    /// Checks one repetition and runs its audit; `None` if the
    /// repetition failed.
    fn record<W: Workload>(&mut self, w: &W, out: &W::Output, label: &str) -> Option<Verdict> {
        if let Some(audit) = w.audit() {
            self.attempted += 1;
            if let Err(e) = audit {
                if self.audit_failures == 0 {
                    eprintln!("audit failed (every repetition attempts it again): {e}");
                }
                self.audit_failures += 1;
                self.failed += 1;
            }
        }
        self.attempted += 1;
        match w.check(out) {
            Ok(v) => {
                if *self.digest.get_or_insert(v.digest) != v.digest {
                    eprintln!("{label}: digest {:016x} differs", v.digest);
                    self.nondeterministic = true;
                }
                Some(v)
            }
            Err(e) => {
                eprintln!("{label}: check failed: {e}");
                self.failed += 1;
                None
            }
        }
    }
}

/// Pool threads of the parallel run: min(2, nproc).
pub fn pool_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn drive<W: Workload>(name: &str, args: &Args) -> Outcome {
    let w = W::setup(args.seed);
    // Timed repetitions run on one thread: on the 2-vCPU host this was
    // tuned on, two-thread timings swung far more between runs.
    mtia_core::pool::set_threads(1);

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut reps = Reps::default();
    let outcome = if args.trace {
        traced(name, &w, &mut reps, deadline, args.seed)
    } else {
        untraced(&w, args.seed, &mut reps, deadline)
    };

    // The digest must not depend on the thread count (outside timing).
    if pool_threads() > 1 {
        mtia_core::pool::set_threads(pool_threads());
        let out = w.run(&mut Tracer::off());
        if let Ok(v) = w.check(&out) {
            if Some(v.digest) != reps.digest {
                eprintln!("{}-thread digest {:016x} differs", pool_threads(), v.digest);
                reps.nondeterministic = true;
            }
        }
        mtia_core::pool::set_threads(1);
    }
    if let Some(d) = reps.digest {
        println!("digest {name} {d:016x}");
    }
    let finite = outcome.iter().all(|(_, v, _)| v.is_finite());
    Outcome {
        correct: !reps.nondeterministic && reps.digest.is_some() && finite,
        attempted: reps.attempted,
        failed: reps.failed,
        metrics: outcome,
    }
}

fn untraced<W: Workload>(
    w: &W,
    seed: u64,
    reps: &mut Reps,
    deadline: Instant,
) -> Vec<(String, f64, &'static str)> {
    // (wall, cpu) of passing repetitions, and of all of them.
    let (mut passing, mut all) = (Vec::new(), Vec::new());
    let mut setups = Vec::new();
    let mut tr = Tracer::off();
    loop {
        let (out, wall, cpu) = timed(|| w.run(&mut tr));
        all.push((wall, cpu));
        if reps
            .record(w, &out, &format!("rep {}", all.len()))
            .is_some()
        {
            passing.push((wall, cpu));
        }
        drop(out);
        let slice = Instant::now();
        for _ in 0..SETUP_SAMPLES {
            let t = Instant::now();
            let fresh = W::setup(seed);
            setups.push(t.elapsed().as_secs_f64());
            drop(fresh);
            if slice.elapsed().as_secs_f64() >= SETUP_SLICE_S {
                break;
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    // With no passing repetition the run is not `correct`, but it still
    // reports what it measured.
    let timed = if passing.is_empty() { &all } else { &passing };
    let walls: Vec<f64> = timed.iter().map(|t| t.0).collect();
    let cpus: Vec<f64> = timed.iter().map(|t| t.1).collect();
    let values = [
        (median(&setups), "s"),
        (min(&walls), "s"),
        (min(&cpus), "s"),
        (measure::peak_rss_mb(), "MB"),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(k, (v, unit))| (k.to_string(), v, unit))
        .collect()
}

fn traced<W: Workload>(
    name: &str,
    w: &W,
    reps: &mut Reps,
    deadline: Instant,
    seed: u64,
) -> Vec<(String, f64, &'static str)> {
    let mut tr = Tracer::on();
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut round = 0u32;
    loop {
        // Alternate which kind goes first, so drift hits both alike.
        for traced_turn in [!round.is_multiple_of(2), round.is_multiple_of(2)] {
            let label = format!("round {round} (traced: {traced_turn})");
            if !traced_turn {
                let (out, wall, _) = timed(|| w.run(&mut Tracer::off()));
                if reps.record(w, &out, &label).is_some() {
                    plain.push(wall);
                }
                continue;
            }
            tr.begin_rep(round);
            let (out, wall, _) = timed(|| w.run(&mut tr));
            if let Some(v) = reps.record(w, &out, &label) {
                spanned.push(wall);
                for (k, t) in tr.rep_totals(round) {
                    samples.entry(k).or_default().push(t);
                }
                for (k, x) in v.counts.into_iter().chain(w.diagnostics(&out)) {
                    samples.entry(k).or_default().push(x);
                }
            }
        }
        round += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{name}-seed{seed}.trace.json"));
    if let Err(e) = tr.write(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
    for (layer, (calls, total, own)) in tr.self_times() {
        eprintln!("layer {layer}: {calls} calls, {total:.4} s total, {own:.4} s self");
    }

    // Times take the fastest repetition, like `rep_s`; counts repeat
    // exactly, and the remaining ratios take the median.
    let mut m: BTreeMap<&str, f64> = samples
        .iter()
        .map(|(&k, v)| {
            let x = if k.ends_with("_s") || k.ends_with(".s") {
                min(v)
            } else {
                median(v)
            };
            (k, x)
        })
        .collect();
    let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.insert(
        "planet.events_per_s",
        ratio(get(&m, "planet.events"), get(&m, "planet.sim_s")),
    );
    m.insert(
        "chip.nodes_per_s",
        ratio(get(&m, "chip.nodes"), get(&m, "explore.s")),
    );
    m.insert(
        "planet.speedup",
        ratio(get(&m, "planet.sim_s"), get(&m, "planet.pool_s")),
    );
    if let (Some(one), Some(lone)) = (m.get("planet.sim_s"), m.get("planet.lone_cells_s")) {
        m.insert("planet.epoch_overhead_s", one - lone);
    }
    m.insert("reps", 2.0 * round as f64);
    m.insert("rep_median_s", median(&plain));
    m.insert("tracing.overhead", min(&spanned) / min(&plain) - 1.0);
    PER_LAYER
        .iter()
        .map(|&(k, unit)| (k.to_string(), get(&m, k), unit))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.as_str();
    let outcome = match name {
        "planet_replay" => drive::<planet::PlanetReplay>(name, &args),
        "overload_storm" => drive::<overload::OverloadStorm>(name, &args),
        "codesign_search" => drive::<codesign::CodesignSearch>(name, &args),
        "pod_serving" => drive::<pod::PodServing>(name, &args),
        _ => {
            eprintln!("unknown workload {name}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
