//! `overload_storm`: E26's three arms on one crest-pinned trace with a
//! capacity dip that later heals, each arm replayed as one uncoupled
//! cell of `simulate_planet`.
//!
//! The storm is E26's quick rung (the 64-device global fleet) stretched
//! 8× in time. The planetary fleet's storm is memory-bound enough that
//! its fastest repetition moved by a fifth between 30 s windows on a
//! shared 2-vCPU host; the small fleet's moved by a few percent.

use mtia_core::seed::derive;
use mtia_core::SimTime;
use mtia_fleet::topology::GlobalTopologyConfig;
use mtia_serving::global::{
    build_regional_trace_crested, diurnal_crest, simulate_planet, AutoscaleConfig, CellSpec,
    GlobalArrival, GlobalConfig, GlobalFleetSpec, OverloadConfig, PlanetConfig, PlanetReport,
    RegionalTrace, RegionalTrafficConfig, RoutingPolicy,
};
use mtia_sim::faults::{FaultEvent, FaultKind, FaultPlan};

use crate::checks;
use crate::trace::Tracer;
use crate::{Digest, Verdict, Workload};

/// Diurnal base rate per region (requests/s), as in E26's rung.
pub const RATE_PER_REGION: f64 = 45.0;
/// Diurnal period, also the arrival horizon (E26's rung: 60 s).
pub const PERIOD_S: u64 = 480;
/// Reserve devices per pod that only the autoscaler energizes.
pub const RESERVE_PER_POD: u32 = 2;
/// Share of each pod's nominal devices the dip takes down. At this
/// depth the naive arm's storm is the same size on every seed tried
/// (its events within 3%), so its work does not switch between two
/// modes with the seed as it did near E26's planetary threshold.
pub const DIP_FRACTION: f64 = 0.35;
/// How long the dip lasts before it heals (E26's rung: 20 s).
pub const DIP_S: u64 = 160;

/// Span names of the three arms, in run order.
const ARMS: [&str; 3] = ["arm.naive.sim_s", "arm.budget.sim_s", "arm.autoscale.sim_s"];

/// Shared inputs: fleet, traffic shape, the dip plan, and the arms'
/// configurations.
pub struct OverloadStorm {
    spec: GlobalFleetSpec,
    traffic: RegionalTrafficConfig,
    horizon: SimTime,
    trace_seed: u64,
    plan: FaultPlan,
    arms: [(GlobalConfig, RoutingPolicy); 3],
}

/// The shared trace and each arm's replay.
pub struct Storm {
    trace: RegionalTrace,
    reports: Vec<PlanetReport>,
}

impl Workload for OverloadStorm {
    type Output = Storm;

    fn setup(seed: u64) -> Self {
        let spec = GlobalTopologyConfig::global_small().build().fleet_spec();
        let seed = derive(seed, "perfbench.overload_storm");
        let period = SimTime::from_secs(PERIOD_S);
        let mut traffic = RegionalTrafficConfig::production(RATE_PER_REGION, period);
        // E26's rung: a 10%-of-day crowd, mild, little sheddable work.
        traffic.crowd_duration = period.scale(0.1);
        traffic.crowd_multiplier = 1.4;
        traffic.low_priority_share = 0.05;

        let mut base = GlobalConfig::production(seed);
        base.reserve_per_pod = RESERVE_PER_POD;
        // Full-cost degraded tier: the storm stands or falls on retry
        // amplification alone, as in E26.
        base.degraded_service_time = base.service_time;

        let trigger = diurnal_crest(period, 0, spec.regions);
        let nominal = spec.devices_per_pod - RESERVE_PER_POD;
        let dip = (nominal as f64 * DIP_FRACTION).ceil() as u32;
        let mut plan = FaultPlan::empty(derive(seed, "plan"));
        for pod in 0..spec.pods() {
            for k in 0..dip {
                plan = plan.with_event(FaultEvent {
                    at: trigger,
                    device: pod * spec.devices_per_pod + k,
                    kind: FaultKind::PodLoss,
                    duration: SimTime::from_secs(DIP_S),
                });
            }
        }
        let naive = GlobalConfig {
            overload: OverloadConfig::naive(),
            ..base.clone()
        };
        let autoscaled = GlobalConfig {
            autoscale: Some(AutoscaleConfig {
                headroom: 0.5,
                ..AutoscaleConfig::production(period)
            }),
            ..base.clone()
        };
        OverloadStorm {
            spec,
            traffic,
            horizon: period,
            trace_seed: derive(seed, "trace"),
            plan,
            arms: [
                (naive, RoutingPolicy::NaiveRetry),
                (base, RoutingPolicy::OverloadResilient),
                (autoscaled, RoutingPolicy::OverloadResilient),
            ],
        }
    }

    fn run(&self, tr: &mut Tracer) -> Storm {
        let trace = tr.span("arrivals.synth_s", |_| {
            build_regional_trace_crested(
                &self.traffic,
                self.spec.regions,
                self.horizon,
                self.trace_seed,
            )
        });
        let reports = self
            .arms
            .iter()
            .zip(ARMS)
            .map(|((config, policy), name)| {
                let cell = CellSpec {
                    spec: self.spec.clone(),
                    config: config.clone(),
                    trace: trace.clone(),
                    plan: self.plan.clone(),
                    policy: *policy,
                };
                tr.span(name, |_| {
                    simulate_planet(
                        std::slice::from_ref(&cell),
                        PlanetConfig::uncoupled(SimTime::from_secs(1)),
                    )
                })
            })
            .collect();
        Storm { trace, reports }
    }

    fn check(&self, out: &Storm) -> Result<Verdict, String> {
        checks::arrivals_valid(&out.trace, &self.traffic, self.spec.regions, self.horizon)?;
        for (p, name) in out.reports.iter().zip(ARMS) {
            checks::planet_consistent(name, p, &[out.trace.len()])?;
        }
        let [naive, budget, autoscale] = [0, 1, 2].map(|i| &out.reports[i].merged);
        checks::retry_budget_holds("budget arm", budget, self.spec.pods())?;
        checks::retry_budget_holds("autoscale arm", autoscale, self.spec.pods())?;
        checks::storm_happened(naive, &[budget, autoscale])?;

        let mut d = Digest::default();
        for r in [naive, budget, autoscale] {
            d.add_global(r);
        }
        let arms = [naive, budget, autoscale];
        let sum = |f: fn(&mtia_serving::global::GlobalReport) -> u64| {
            arms.iter().map(|r| f(r)).sum::<u64>() as f64
        };
        let n = out.trace.len();
        Ok(Verdict {
            digest: d.finish(),
            counts: vec![
                ("arrivals.count", n as f64),
                (
                    "arrivals.mb",
                    (n * std::mem::size_of::<GlobalArrival>()) as f64 / 1e6,
                ),
                ("arm.naive.events", naive.events as f64),
                ("arm.budget.events", budget.events as f64),
                ("arm.autoscale.events", autoscale.events as f64),
                ("overload.retries_issued", sum(|r| r.retries_issued)),
                ("overload.retries_shed", sum(|r| r.retries_shed)),
                ("overload.breaker_opens", sum(|r| r.breaker_opens)),
                (
                    "overload.cancelled_at_admission",
                    sum(|r| r.cancelled_at_admission),
                ),
                ("overload.scale_events", sum(|r| r.scale_events)),
            ],
        })
    }
}
