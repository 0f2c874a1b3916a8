//! The sharded engine's worker team under failure: a panic inside a phase
//! run by a team thread must come out of `step()` on the calling thread
//! (not hang, not vanish), and dropping the network afterwards must join
//! every team thread. This file holds exactly one test so that the
//! process's thread count — `Threads:` in `/proc/self/status` — moves
//! only with the team under test.

use dragonfly_core::df_engine::{
    Decision, EngineConfig, NullSink, PacketHeader, RouteInfo, RouterState, RoutingPolicy,
    ShardedNetwork,
};
use dragonfly_core::df_topology::ShardPlan;
use dragonfly_core::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Routes like the wrapped mechanism until it is asked to route at a
/// router at or above `trip_at`, where it panics.
struct Tripwire {
    inner: Box<dyn RoutingPolicy + Send>,
    trip_at: u32,
}

impl RoutingPolicy for Tripwire {
    fn route(
        &mut self,
        router: &RouterState,
        in_port: Port,
        hdr: PacketHeader,
        info: RouteInfo,
    ) -> Decision {
        assert!(router.id().0 < self.trip_at, "tripwire: routed at router {}", router.id().0);
        self.inner.route(router, in_port, hdr, info)
    }

    fn name(&self) -> &'static str {
        "tripwire"
    }
}

fn threads_now() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("Threads: line");
    line["Threads:".len()..].trim().parse().expect("thread count")
}

#[test]
fn worker_panic_surfaces_from_step_and_drop_joins_the_team() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let before = threads_now();

    let params = DragonflyParams::figure1();
    let topo = Topology::new(params, Arrangement::Palmtree);
    let cfg = EngineConfig::paper(ArbiterPolicy::TransitPriority, 3);
    // Shard 1 of 2 starts at group 4 of 9: its allocation — the phase that
    // calls `route` — runs on the team's second worker whenever the box
    // has a second core, never on the thread calling `step`.
    let upper = ShardPlan::new(params, 2).router_range(1);
    let policy =
        Tripwire { inner: MechanismSpec::Min.build(topo.clone(), &cfg, 1), trip_at: upper.start };
    let mut net = ShardedNetwork::new(topo, cfg, policy, NullSink, 2);
    assert_eq!(threads_now(), before, "building a network must start no thread");

    // Traffic inside the lower shard only: the tripwire stays quiet.
    for n in 0..8 {
        assert!(net.offer(NodeId(n), NodeId(n + 8)));
    }
    net.run(50);
    if cores > 1 {
        assert_eq!(threads_now(), before + 1, "a two-worker team is one extra thread");
    } else {
        assert_eq!(threads_now(), before, "one core, one worker, no thread");
    }

    // One packet from the upper shard trips the wire in its allocate phase.
    let upper_node = upper.start * params.p;
    assert!(net.offer(NodeId(upper_node), NodeId(0)));
    let outcome = catch_unwind(AssertUnwindSafe(|| net.run(200)));
    let payload = outcome.expect_err("the worker's panic must surface from step()");
    let message = payload.downcast_ref::<String>().expect("assert! panics with a String");
    assert!(message.contains("tripwire"), "unexpected panic: {message}");

    // The team is dead; stepping again must fail loudly, not hang.
    assert!(catch_unwind(AssertUnwindSafe(|| net.step())).is_err());

    drop(net);
    // `join` returns when the thread's exit clears its tid futex, which is
    // a moment before the kernel takes the task out of `/proc`: give the
    // count that moment.
    for _ in 0..200 {
        if threads_now() == before {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(threads_now(), before, "dropping the network must join every team thread");
}
