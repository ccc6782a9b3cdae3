//! `pod_serving`: three pod-scale event loops that run in no other
//! workload — E21's host-crash failover comparison, a fault-injected
//! resilience comparison, and a Fig. 5-style SLO bisection plus a drained
//! remote/merge replay.
//!
//! The E19 SDC rung (`run_sdc_sim`) is left out: on about one seed in
//! fifteen it loses a request (`offered != served + dropped`), so whether
//! a repetition fails would depend on the seed. See `README.md`.

use mtia_core::seed::{derive, derive_indexed};
use mtia_core::SimTime;
use mtia_fleet::topology::{DomainLevel, FleetTopology, TopologyConfig};
use mtia_serving::failover::{
    compare_failover, FailoverComparison, FailoverConfig, FailoverReport,
};
use mtia_serving::resilience::{
    compare_policies, PolicyComparison, ResilienceConfig, ResilienceReport,
};
use mtia_serving::scheduler::{
    max_rate_under_slo, simulate_remote_merge, RemoteMergeConfig, RemoteMergeStats,
};
use mtia_serving::traffic::{ArrivalProcess, PoissonArrivals};
use mtia_sim::faults::{FaultKind, FaultPlan, FaultPlanConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checks;
use crate::trace::Tracer;
use crate::{Digest, Verdict, Workload};

/// E21: offered rate (req/s), horizon, warm-up, crash time and repair.
const FAILOVER_RATE: f64 = 160.0;
const FAILOVER_HORIZON_S: u64 = 60;
const FAILOVER_WARMUP_S: u64 = 2;
const CRASH_AT_S: u64 = 10;
const REPAIR_S: u64 = 20;
/// Resilience comparison: offered rate, horizon and warm-up.
const RESILIENCE_RATE: f64 = 120.0;
const RESILIENCE_HORIZON_S: u64 = 60;
const RESILIENCE_WARMUP_S: u64 = 10;
/// Fig. 5: the P99 SLO and the bisection's horizon.
const SLO_MS: u64 = 100;
const SLO_HORIZON_S: u64 = 30;
/// The drained replay's arrivals stop here; its horizon leaves room to
/// drain.
const DRAIN_ARRIVALS_S: u64 = 25;
/// Seeded instances of the three loops per repetition: the fault plans
/// and the SLO rate found move one instance's work with its seed, and
/// two per repetition damp that swing.
pub const INSTANCES: u64 = 2;

/// Shared inputs: the pod topology and each instance's inputs.
pub struct PodServing {
    topo: FleetTopology,
    instances: Vec<Instance>,
}

/// One instance's inputs, fault plans included.
struct Instance {
    failover: FailoverConfig,
    failover_plan: FaultPlan,
    resilience: ResilienceConfig,
    resilience_plan: FaultPlan,
    deployment: RemoteMergeConfig,
    slo_seed: u64,
}

/// What the three loops returned.
pub struct Pod {
    failover: FailoverComparison,
    resilience: PolicyComparison,
    slo_rate: f64,
    slo_stats: RemoteMergeStats,
    drained_arrivals: u64,
    drained: RemoteMergeStats,
}

/// Poisson arrivals cut off at `end`, counted.
struct Until {
    inner: PoissonArrivals<StdRng>,
    end: SimTime,
    count: u64,
}

impl ArrivalProcess for Until {
    fn next_arrival(&mut self, now: SimTime) -> Option<SimTime> {
        let t = self.inner.next_arrival(now).filter(|&t| t <= self.end)?;
        self.count += 1;
        Some(t)
    }
}

fn digest_failover(d: &mut Digest, r: &FailoverReport) {
    for w in [
        r.fault_fingerprint,
        r.offered,
        r.completed,
        r.shed,
        r.lost,
        r.requeued,
        r.promotions,
        r.restores,
        r.rereplications,
        r.checkpoints,
        r.checkpoint_fingerprint,
        r.unavailable.as_picos(),
        r.recovery_time.as_picos(),
        r.request_latency.count(),
        r.request_latency.p99().as_picos(),
        r.incident_latency.p99().as_picos(),
    ] {
        d.add(w);
    }
    d.add_f64(r.device_availability);
}

fn digest_resilience(d: &mut Digest, r: &ResilienceReport) {
    for w in [
        r.fault_fingerprint,
        r.offered,
        r.completed,
        r.shed,
        r.dropped,
        r.stuck,
        r.retries,
        r.hedges,
        r.job_failures,
        r.request_latency.count(),
        r.request_latency.p99().as_picos(),
    ] {
        d.add(w);
    }
    d.add_f64(r.availability);
}

fn digest_remote_merge(d: &mut Digest, s: &RemoteMergeStats) {
    d.add(s.completed)
        .add(s.request_latency.count())
        .add(s.request_latency.p99().as_picos())
        .add(s.merge_wait.p99().as_picos())
        .add_f64(s.utilization)
        .add_f64(s.throughput_per_s);
}

/// The Fig. 5 SLO and the bisection's horizon.
fn slo() -> (SimTime, SimTime) {
    (
        SimTime::from_millis(SLO_MS),
        SimTime::from_secs(SLO_HORIZON_S),
    )
}

impl Instance {
    fn new(topo: &FleetTopology, seed: u64) -> Self {
        // E21: crash host 0, where naive packing puts the first shards.
        let failover_seed = derive(seed, "failover");
        let failover_plan = topo.correlated_event(
            FaultPlan::empty(derive(failover_seed, "plan")),
            DomainLevel::Host,
            0,
            SimTime::from_secs(CRASH_AT_S),
            FaultKind::HostCrash,
            SimTime::from_secs(REPAIR_S),
        );

        let deployment = |devices, remote_jobs_per_request| RemoteMergeConfig {
            devices,
            remote_jobs_per_request,
            remote_total_time: SimTime::from_millis(8),
            merge_time: SimTime::from_millis(10),
            dispatch_overhead: SimTime::from_millis(1),
        };
        // Every fault class often enough to separate the two policies.
        let resilience_seed = derive(seed, "resilience");
        let faults = FaultPlanConfig {
            dbe_per_device: 8.0,
            pcie_loss_per_device: 1.0,
            pcie_min_utilization: 0.2,
            transient_failures_per_device: 15.0,
            noc_stalls_per_device: 2.0,
            ..FaultPlanConfig::production()
        };
        let resilience_plan = FaultPlan::generate(
            &faults,
            8,
            SimTime::from_secs(RESILIENCE_HORIZON_S),
            derive(resilience_seed, "plan"),
        );
        Instance {
            failover: FailoverConfig::production(8, 2, failover_seed),
            failover_plan,
            resilience: ResilienceConfig::production(deployment(8, 2), resilience_seed),
            resilience_plan,
            deployment: deployment(2, 2),
            slo_seed: derive(seed, "scheduler"),
        }
    }

    fn run(&self, topo: &FleetTopology, tr: &mut Tracer) -> Pod {
        let failover = tr.span("failover.sim_s", |_| {
            compare_failover(
                &self.failover,
                topo,
                &self.failover_plan,
                FAILOVER_RATE,
                SimTime::from_secs(FAILOVER_HORIZON_S),
                SimTime::from_secs(FAILOVER_WARMUP_S),
            )
        });
        let resilience = tr.span("resilience.sim_s", |_| {
            compare_policies(
                &self.resilience,
                &self.resilience_plan,
                RESILIENCE_RATE,
                SimTime::from_secs(RESILIENCE_HORIZON_S),
                SimTime::from_secs(RESILIENCE_WARMUP_S),
            )
        });
        let (slo, horizon) = slo();
        let ((slo_rate, slo_stats), drained, drained_arrivals) = tr.span("scheduler.sim_s", |_| {
            let found = max_rate_under_slo(self.deployment, slo, horizon, self.slo_seed);
            let mut arrivals = Until {
                inner: PoissonArrivals::new(found.0, StdRng::seed_from_u64(self.slo_seed)),
                end: SimTime::from_secs(DRAIN_ARRIVALS_S),
                count: 0,
            };
            let drained =
                simulate_remote_merge(self.deployment, &mut arrivals, horizon, SimTime::ZERO);
            (found, drained, arrivals.count)
        });
        Pod {
            failover,
            resilience,
            slo_rate,
            slo_stats,
            drained_arrivals,
            drained,
        }
    }

    fn check(&self, out: &Pod, d: &mut Digest) -> Result<[(&'static str, f64); 3], String> {
        let f = &out.failover;
        checks::failover_conserves(&f.naive)?;
        checks::failover_conserves(&f.domain_aware)?;
        let r = &out.resilience;
        checks::resilience_conserves(&r.naive)?;
        checks::resilience_conserves(&r.resilient)?;
        checks::drained_conserves(out.drained_arrivals, out.drained.completed)?;
        // Replay the returned rate exactly as the bisection ran it.
        let (slo, horizon) = slo();
        let mut arrivals = PoissonArrivals::new(out.slo_rate, StdRng::seed_from_u64(self.slo_seed));
        let replay =
            simulate_remote_merge(self.deployment, &mut arrivals, horizon, horizon.scale(0.2));
        checks::meets_slo(
            replay.request_latency.p99(),
            replay.request_latency.count(),
            slo,
        )?;

        digest_failover(d, &f.naive);
        digest_failover(d, &f.domain_aware);
        digest_resilience(d, &r.naive);
        digest_resilience(d, &r.resilient);
        d.add_f64(out.slo_rate).add(out.drained_arrivals);
        digest_remote_merge(d, &out.slo_stats);
        digest_remote_merge(d, &out.drained);
        Ok([
            (
                "failover.requests",
                (f.naive.offered + f.domain_aware.offered) as f64,
            ),
            (
                "resilience.requests",
                (r.naive.offered + r.resilient.offered) as f64,
            ),
            (
                "scheduler.requests",
                (out.slo_stats.completed + out.drained_arrivals) as f64,
            ),
        ])
    }
}

impl Workload for PodServing {
    type Output = Vec<Pod>;

    fn setup(seed: u64) -> Self {
        let topo = TopologyConfig::paper_server().build();
        let instances = (0..INSTANCES)
            .map(|k| Instance::new(&topo, derive_indexed(seed, "perfbench.pod_serving", k)))
            .collect();
        PodServing { topo, instances }
    }

    fn run(&self, tr: &mut Tracer) -> Vec<Pod> {
        self.instances
            .iter()
            .map(|i| i.run(&self.topo, tr))
            .collect()
    }

    fn check(&self, out: &Vec<Pod>) -> Result<Verdict, String> {
        let mut d = Digest::default();
        let mut counts: Vec<(&'static str, f64)> = Vec::new();
        for (instance, pod) in self.instances.iter().zip(out) {
            let c = instance.check(pod, &mut d)?;
            if counts.is_empty() {
                counts = c.to_vec();
            } else {
                for (total, (_, x)) in counts.iter_mut().zip(c) {
                    total.1 += x;
                }
            }
        }
        Ok(Verdict {
            digest: d.finish(),
            counts,
        })
    }
}
