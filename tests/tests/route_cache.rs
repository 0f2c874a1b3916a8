#![recursion_limit = "512"]
//! Route-decision-cache equivalence properties.
//!
//! The engine routes a head once per router visit and keeps the decision
//! until the grant. The route cache (blocked-head parking, the router's
//! record of each decided head) is a pure scheduling optimization on top
//! of that: it must never change a simulation result. These tests drive
//! `Network` directly with randomized churn schedules across every
//! mechanism family and assert:
//!
//! * cache-on and cache-off runs deliver bit-identical record streams;
//! * disabling and re-enabling the cache mid-run (a cold cache restart)
//!   is also bit-identical to an uninterrupted warm-cache run;
//! * in every mode, the policy's `route` ran exactly once per router
//!   visit: after the drain, the calls equal the sum over delivered
//!   records of `local_hops + global_hops + 1`;
//! * the engine's audit holds every fifth cycle and after the drain
//!   (`Network::audit`: parked and decided heads against the state they
//!   wait on and copy — docs/DETERMINISM.md, "The audit").

use dragonfly_core::df_engine::{
    ArbiterPolicy, CycleCtx, Decision, DeliveredRecord, EngineConfig, Network, PacketHeader,
    RouteInfo, RouterState, RoutingPolicy,
};
use dragonfly_core::df_routing::MechanismSpec;
use dragonfly_core::df_topology::{Arrangement, DragonflyParams, NodeId, Port, Topology};
use proptest::prelude::*;

/// Forwards every call to the policy it wraps and counts the `route`
/// calls. It forwards `audit` too, so the audited runs below still check
/// the wrapped policy's own derived state.
struct Counted {
    inner: Box<dyn RoutingPolicy>,
    route_calls: u64,
}

impl RoutingPolicy for Counted {
    fn begin_cycle(&mut self, ctx: &CycleCtx<'_>) {
        self.inner.begin_cycle(ctx)
    }

    fn route(
        &mut self,
        router: &RouterState,
        in_port: Port,
        hdr: PacketHeader,
        info: RouteInfo,
    ) -> Decision {
        self.route_calls += 1;
        self.inner.route(router, in_port, hdr, info)
    }

    fn audit(&self, ctx: &CycleCtx<'_>) {
        self.inner.audit(ctx)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Tiny deterministic generator for offer schedules (keeps the offer
/// stream identical across the compared runs without extra deps).
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One load phase of a churn schedule: `cycles` cycles at `load_milli`
/// offered load (per node, per mille) under destination `pattern`
/// (0 = uniform, 1 = next-group shift, 2 = hotspot on node 0's group).
type Phase = (u8, u16, u8);

fn arb_schedule() -> impl Strategy<Value = Vec<Phase>> {
    prop::collection::vec((1u8..40, 0u16..350, 0u8..3), 1..6)
}

/// How the route cache is driven over a run.
#[derive(Clone, Copy)]
enum CacheMode {
    /// Enabled throughout (the default), audited every fifth cycle.
    On,
    /// Disabled before the first cycle.
    Off,
    /// Disabled and re-enabled every `0` cycles — a cold cache restart
    /// in the middle of congested traffic.
    Churn(u64),
}

/// Run `policy` over `schedule` with offers generated from `seed`, check
/// that it was asked for one route per router visit, and return the
/// delivered-record stream serialized to JSON (records carry every
/// latency/wait/hop field, so string equality is bit-identity).
fn run(
    topo: Topology,
    cfg: EngineConfig,
    policy: Box<dyn RoutingPolicy>,
    schedule: &[Phase],
    seed: u64,
    mode: CacheMode,
) -> String {
    let params = *topo.params();
    let recs = std::cell::RefCell::new(Vec::<DeliveredRecord>::new());
    {
        let sink = |r: &DeliveredRecord| recs.borrow_mut().push(*r);
        let policy = Counted { inner: policy, route_calls: 0 };
        let mut net = Network::new(topo, cfg, policy, sink);
        if let CacheMode::Off = mode {
            net.set_route_cache(false);
        }
        let mut rng = XorShift::new(seed);
        let nodes = params.nodes() as u64;
        let per_group = (params.a * params.p) as u64;
        let groups = params.groups() as u64;
        let mut t = 0u64;
        for &(cycles, load_milli, pattern) in schedule {
            for _ in 0..cycles {
                t += 1;
                if let CacheMode::Churn(k) = mode {
                    if t.is_multiple_of(k) {
                        net.set_route_cache(false);
                        net.set_route_cache(true);
                    }
                }
                for n in 0..nodes {
                    if rng.below(1000) < load_milli as u64 {
                        let dst = match pattern {
                            0 => rng.below(nodes),
                            1 => {
                                let g = n / per_group;
                                ((g + 1) % groups) * per_group + rng.below(per_group)
                            }
                            _ => rng.below(per_group),
                        };
                        net.offer(NodeId(n as u32), NodeId(dst as u32));
                    }
                }
                net.step();
                if matches!(mode, CacheMode::On) && t.is_multiple_of(5) {
                    net.audit();
                }
            }
        }
        assert!(net.drain(300_000), "network must drain");
        net.audit();
        let visits: u64 = recs
            .borrow()
            .iter()
            .map(|r| u64::from(r.local_hops) + u64::from(r.global_hops) + 1)
            .sum();
        assert_eq!(
            net.policy().route_calls,
            visits,
            "route calls != router visits of the delivered packets ({})",
            net.policy().name()
        );
    }
    serde_json::to_string(&recs.into_inner()).expect("serialize records")
}

fn small_topo() -> (Topology, DragonflyParams) {
    let params = DragonflyParams::figure1();
    (Topology::new(params, Arrangement::Palmtree), params)
}

/// The mechanism families under test, by proptest index.
fn build_policy(
    idx: usize,
    topo: &Topology,
    cfg: &EngineConfig,
    seed: u64,
) -> Box<dyn RoutingPolicy> {
    const SPECS: [MechanismSpec; 5] = [
        MechanismSpec::Min,
        MechanismSpec::ObliviousCrg,
        MechanismSpec::SourceCrg,
        MechanismSpec::InTransitMm,
        MechanismSpec::InTransitLru,
    ];
    SPECS[idx].build(topo.clone(), cfg, seed)
}

fn vcs_for_policy(idx: usize) -> u8 {
    // Oblivious/source-adaptive Valiant paths need 4 local VCs.
    if idx == 1 || idx == 2 {
        4
    } else {
        3
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Cache-on (audited as it runs) and cache-off runs of
    // the same seed deliver bit-identical record streams, for every
    // mechanism family.
    #[test]
    fn cache_on_equals_cache_off(
        policy_idx in 0usize..5,
        schedule in arb_schedule(),
        seed in 1u64..u64::MAX,
        rr_arbiter in any::<bool>(),
    ) {
        let (topo, _) = small_topo();
        let arbiter = if rr_arbiter { ArbiterPolicy::RoundRobin } else { ArbiterPolicy::TransitPriority };
        let cfg = EngineConfig::paper(arbiter, vcs_for_policy(policy_idx));
        let on = run(
            topo.clone(), cfg,
            build_policy(policy_idx, &topo, &cfg, seed),
            &schedule, seed, CacheMode::On,
        );
        let off = run(
            topo.clone(), cfg,
            build_policy(policy_idx, &topo, &cfg, seed),
            &schedule, seed, CacheMode::Off,
        );
        prop_assert_eq!(on, off, "route cache changed simulation behavior (policy {})", policy_idx);
    }

    // A cold cache restart mid-run (disable + re-enable, flushing all
    // parked state) is bit-identical to an uninterrupted warm cache.
    #[test]
    fn cold_cache_restart_equals_warm(
        policy_idx in 0usize..5,
        schedule in arb_schedule(),
        seed in 1u64..u64::MAX,
        churn_every in 3u64..40,
    ) {
        let (topo, _) = small_topo();
        let cfg = EngineConfig::paper(ArbiterPolicy::TransitPriority, vcs_for_policy(policy_idx));
        let warm = run(
            topo.clone(), cfg,
            build_policy(policy_idx, &topo, &cfg, seed),
            &schedule, seed, CacheMode::On,
        );
        let cold = run(
            topo.clone(), cfg,
            build_policy(policy_idx, &topo, &cfg, seed),
            &schedule, seed, CacheMode::Churn(churn_every),
        );
        prop_assert_eq!(warm, cold, "cold cache restart diverged (policy {})", policy_idx);
    }
}
