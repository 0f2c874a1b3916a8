//! Group-sharded parallel execution of one simulation.
//!
//! A [`ShardedNetwork`] splits a run across a [`ShardPlan`]'s contiguous
//! group ranges: each shard is a [`Network`] slice owning its routers,
//! nodes, event wheel, and packet arena. The shards are stepped by a
//! **persistent worker team** owned by the network: `min(S, cores)`
//! workers, the thread that calls `step` being worker 0, each holding a
//! contiguous block of shards for the life of the run so a shard's state
//! stays in one core's caches. The other workers are threads started on
//! the first `step` and joined when the network drops; with one worker
//! there are none.
//!
//! One cycle, per worker:
//!
//! 1. **deliver → inject** on each of its shards, back to back. Both are
//!    shard-local, and injection touches node, arena and wheel state that
//!    the policy's `begin_cycle` never reads, so running it first is
//!    invisible.
//! 2. **The policy token.** The single routing policy (its RNG and
//!    congestion tables) passes through the shards in ascending order
//!    twice: once for `begin_cycle`, once for allocation. Ascending shard
//!    order is ascending router order, so every RNG draw and table update
//!    happens exactly where the serial engine makes it — but on the core
//!    that already holds the shard.
//! 3. **transmit**, then the worker publishes each shard's
//!    [`ShardOutbox`] and meets the team at the cycle's one barrier.
//! 4. **accept.** Past the barrier every worker reads the published
//!    outboxes in ascending source-shard order, credits before flits, and
//!    schedules the entries addressed to its own shards. This is still
//!    inside `step`, so between steps no traffic is in transit between
//!    shards and `in_flight`, `arena_live` and `events_pending` read as
//!    they do on the serial engine.
//!
//! Cross-shard traffic exists only on global links (groups are whole
//! within a shard): transiting flits and upstream credit returns. Within
//! an outbox the push order is the sending phase's ascending (router,
//! port) order. Every event class over one physical link has a single
//! fixed source router, so per-(destination, port, direction) FIFO order
//! matches the serial engine's event-wheel insertion order, and effects
//! across different ports commute; same-seed output is therefore
//! bit-identical for any shard count (see docs/DETERMINISM.md).
//!
//! Delivered-packet records are staged per shard in a [`RecordQueue`]
//! and drained into the real [`StatsSink`] by the caller at the end of
//! the step, ascending by shard. Ejection latency is uniform, so all
//! records of one cycle were scheduled in the same earlier cycle in
//! ascending (router, port) order — the concatenation of the shard queues
//! *is* the serial sink order, keeping float accumulation identical.
//!
//! The team is built without `unsafe`: for the duration of a step the
//! policy and every other worker's block of shards are *moved* into the
//! team's slots and moved back before `step` returns, so between steps
//! the accessors hand out plain references.

use crate::arena::PacketId;
use crate::config::EngineConfig;
use crate::network::{
    Counters, CreditLedger, Network, PhaseClock, PhaseProfile, Untimed, WallClock,
};
use crate::packet::{DeliveredRecord, Packet, PacketSeq};
use crate::policy::{RoutingPolicy, StatsSink};
use crate::router::RouterState;
use df_topology::{NodeId, RouterId, ShardPlan, Topology};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// One packet's credit return crossing a shard boundary (global links
/// only).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RemoteCredit {
    /// Destination router (owned by another shard).
    pub router: RouterId,
    /// Destination port on that router.
    pub port: u8,
    /// Virtual channel the credit replenishes.
    pub vc: u8,
    /// Link latency — the delay the sender would have scheduled with.
    pub delay: u64,
}

/// A flit (whole packet, virtual cut-through) crossing a shard boundary.
#[derive(Debug, Clone)]
pub(crate) struct RemoteFlit {
    /// Destination router (owned by another shard).
    pub router: RouterId,
    /// Input port the packet arrives on.
    pub port: u8,
    /// Virtual channel it arrives on.
    pub vc: u8,
    /// Link latency plus the receiving router's pipeline — the delay the
    /// sender would have scheduled the arrival with.
    pub delay: u64,
    /// The packet by value; the owner re-homes it into its arena.
    pub packet: Packet,
}

/// One shard's cross-shard traffic of the current cycle, whatever its
/// destination. Staged in the shard during allocate and transmit,
/// published whole to the team at the cycle barrier, read there by every
/// worker, and emptied before `step` returns. Push order within each
/// vector is the sending phase's deterministic ascending (router, port)
/// order.
#[derive(Debug, Default)]
pub(crate) struct ShardOutbox {
    /// Credit returns from `commit_grant` (allocate phase).
    pub credits: Vec<RemoteCredit>,
    /// Transiting flits from `transmit_outputs` (transmit phase).
    pub flits: Vec<RemoteFlit>,
}

impl ShardOutbox {
    pub(crate) fn is_empty(&self) -> bool {
        self.credits.is_empty() && self.flits.is_empty()
    }
}

/// Per-shard stats sink: stages delivered records for the caller's
/// deterministic ascending-shard drain into the real sink.
#[derive(Debug, Default)]
pub struct RecordQueue {
    pub(crate) records: Vec<DeliveredRecord>,
}

impl StatsSink for RecordQueue {
    fn on_delivered(&mut self, rec: &DeliveredRecord) {
        self.records.push(*rec);
    }
}

// ----------------------------------------------------------------------
// The worker team
// ----------------------------------------------------------------------

/// One shard: a network slice whose delivered records wait for the caller.
type Shard<P> = Network<P, RecordQueue>;

/// Checks a waiter makes before it parks. A worker waits for the token
/// while the shards below its own allocate, which at paper scale is a few
/// hundred microseconds every cycle; the budget (a millisecond or two)
/// covers that, so a team with a core per worker never sleeps inside a
/// run, while an idle team is asleep almost at once.
const SPIN_BUDGET: u32 = 1 << 12;
/// Of those, the checks made back to back. The rest yield the core
/// between checks: when more workers are runnable than cores exist, the
/// one being waited for is among them and gets the slice (measured on
/// on a two-core box running the whole test suite sharded, two test
/// threads at a time: without the yield a waiter burns its partner's time
/// and the suite runs 2–3× longer).
const SPIN_BEFORE_YIELD: u32 = 1 << 7;

/// `available_parallelism`, asked once per process: the answer comes from
/// cgroup files, which cost 25 µs to read on a good day and a millisecond
/// on a bad one — too much for every `ShardedNetwork::new` of a sweep.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A wait ended because the team halted: a phase panicked somewhere, or
/// the network is being dropped.
struct Halted;

/// Lock a team mutex. Poison carries no information here: a panic under
/// any of these locks halts the team (see [`Shared::fail`]), after which
/// nothing behind them is read again except the panic payload.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the team's workers share for the life of the network.
struct Shared<P: RoutingPolicy> {
    plan: ShardPlan,
    /// Worker `w` steps shards `first[w]..first[w + 1]`.
    first: Vec<usize>,
    /// Steps started so far; the caller's bump releases the idle workers.
    epoch: AtomicU64,
    /// Set by a panic in any worker's phase and by drop; fails every wait.
    halt: AtomicBool,
    /// Per worker, its block of shards for the duration of a step (the
    /// caller lends it before the epoch bump and takes it back after the
    /// worker finished). Entry 0 is unused: worker 0 is the caller.
    blocks: Vec<Mutex<Option<Vec<Shard<P>>>>>,
    /// The policy, lent for the duration of a step.
    policy: Mutex<Option<P>>,
    /// Whose turn the policy token is: shard `turn` for `begin_cycle`
    /// while `turn < S`, then shard `turn - S` for allocation.
    turn: AtomicUsize,
    /// Workers that reached this cycle's barrier.
    arrived: AtomicUsize,
    /// Workers (other than the caller) that finished this step.
    finished: AtomicUsize,
    /// Per source shard, its outbox of this cycle: written by its worker
    /// before the barrier, read by every worker after it.
    posted: Vec<RwLock<ShardOutbox>>,
    /// Whether this step is timed, and if so the moment the last shard's
    /// allocation returned the token.
    timed: AtomicBool,
    allocate_end: Mutex<Option<Instant>>,
    /// The first panic of the team, for the caller to re-raise.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Parking: waiters past their spin budget sleep on `wake`.
    sleepers: AtomicUsize,
    parking: Mutex<()>,
    wake: Condvar,
}

impl<P: RoutingPolicy> Shared<P> {
    fn workers(&self) -> usize {
        self.blocks.len()
    }

    /// Wait until `ready()`: spin for [`SPIN_BUDGET`] checks, then park.
    /// Every store a waiter can be waiting on is followed by
    /// [`Self::wake_all`].
    fn wait(&self, ready: impl Fn() -> bool) -> Result<(), Halted> {
        let check = || {
            if self.halt.load(SeqCst) {
                Some(Err(Halted))
            } else if ready() {
                Some(Ok(()))
            } else {
                None
            }
        };
        for spins in 0..SPIN_BUDGET {
            if let Some(outcome) = check() {
                return outcome;
            }
            if spins < SPIN_BEFORE_YIELD {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // Registering as a sleeper before the re-check closes the race
        // with a waker that stored first and then saw no sleepers.
        let mut guard = lock(&self.parking);
        self.sleepers.fetch_add(1, SeqCst);
        let outcome = loop {
            if let Some(outcome) = check() {
                break outcome;
            }
            guard = self.wake.wait(guard).unwrap_or_else(PoisonError::into_inner);
        };
        self.sleepers.fetch_sub(1, SeqCst);
        outcome
    }

    /// Wake every parked waiter to re-check its condition. One load when
    /// nobody sleeps.
    fn wake_all(&self) {
        if self.sleepers.load(SeqCst) > 0 {
            // Taking the lock orders this after a sleeper's re-check.
            drop(lock(&self.parking));
            self.wake.notify_all();
        }
    }

    /// Record a phase panic and halt the team.
    fn fail(&self, payload: Box<dyn Any + Send>) {
        lock(&self.panic).get_or_insert(payload);
        self.halt.store(true, SeqCst);
        self.wake_all();
    }

    /// Take the policy token when it reaches shard `at` (a `turn` value),
    /// run `phase` over the block, and pass the token on.
    fn with_token(
        &self,
        at: usize,
        block: &mut [Shard<P>],
        phase: impl Fn(&mut Shard<P>, &mut P),
    ) -> Result<(), Halted> {
        self.wait(|| self.turn.load(SeqCst) == at)?;
        {
            let mut slot = lock(&self.policy);
            let policy = slot.as_mut().expect("the policy is lent to the team for the whole step");
            for sh in block.iter_mut() {
                phase(sh, policy);
            }
        }
        self.turn.store(at + block.len(), SeqCst);
        self.wake_all();
        Ok(())
    }

    /// One cycle of worker `w` over its block (see the module docs). The
    /// returned profile holds the laps up to the worker's own
    /// `begin_cycle`; the caller fills in the rest.
    fn run_block<C: PhaseClock>(
        &self,
        w: usize,
        block: &mut [Shard<P>],
        clock: &mut C,
    ) -> Result<PhaseProfile, Halted> {
        let shards = self.plan.shards() as usize;
        let lo = self.first[w];
        let mut profile = PhaseProfile { cycles: 1, ..PhaseProfile::default() };
        for sh in block.iter_mut() {
            sh.begin_cycle_bump();
            sh.deliver_events();
            profile.deliver_ns += clock.lap();
            sh.inject_from_nodes();
            profile.inject_ns += clock.lap();
        }
        self.with_token(lo, block, |sh, policy| sh.run_policy_begin_with(policy))?;
        profile.policy_ns = clock.lap();
        self.with_token(shards + lo, block, |sh, policy| sh.allocate_all_with(policy))?;
        if lo + block.len() == shards && self.timed.load(SeqCst) {
            *lock(&self.allocate_end) = Some(Instant::now());
        }
        for (sh, cell) in block.iter_mut().zip(&self.posted[lo..]) {
            sh.transmit_all();
            let mut cell = cell.write().unwrap_or_else(PoisonError::into_inner);
            std::mem::swap(&mut *cell, sh.outbox_mut());
        }
        self.arrived.fetch_add(1, SeqCst);
        self.wake_all();
        self.wait(|| self.arrived.load(SeqCst) == self.workers())?;
        let len = block.len();
        let mine = |router: RouterId| {
            (self.plan.shard_of_router(router) as usize).checked_sub(lo).filter(|&i| i < len)
        };
        for cell in &self.posted {
            let cell = cell.read().unwrap_or_else(PoisonError::into_inner);
            for c in &cell.credits {
                if let Some(i) = mine(c.router) {
                    block[i].accept_remote_credit(*c);
                }
            }
            for f in &cell.flits {
                if let Some(i) = mine(f.router) {
                    block[i].accept_remote_flit(f);
                }
            }
        }
        Ok(profile)
    }

    /// Body of a team thread: run worker `w`'s block once per epoch until
    /// the team halts.
    fn worker_main(&self, w: usize) {
        let mut seen = 0;
        loop {
            if self.wait(|| self.epoch.load(SeqCst) != seen).is_err() {
                return;
            }
            // The caller waits for every worker before the next bump, so
            // epochs arrive one at a time.
            seen += 1;
            let ran = catch_unwind(AssertUnwindSafe(|| {
                let mut block =
                    lock(&self.blocks[w]).take().expect("the caller lends the block before the bump");
                let ran = self.run_block(w, &mut block, &mut Untimed);
                *lock(&self.blocks[w]) = Some(block);
                ran
            }));
            match ran {
                Ok(Ok(_)) => {}
                Ok(Err(Halted)) => return,
                Err(payload) => return self.fail(payload),
            }
            self.finished.fetch_add(1, SeqCst);
            self.wake_all();
        }
    }
}

/// The shared state plus the threads running workers `1..`; dropping it
/// halts and joins them.
struct Team<P: RoutingPolicy> {
    shared: Arc<Shared<P>>,
    threads: Vec<JoinHandle<()>>,
}

impl<P: RoutingPolicy + Send + 'static> Team<P> {
    /// Lend the policy and the other workers' blocks to the team and
    /// release the workers into the next cycle. The threads are started
    /// here, on the first step, so building a network costs no spawn.
    fn start_step(&mut self, policy: P, blocks: &mut [Vec<Shard<P>>], timed: bool) {
        let shared = &self.shared;
        assert!(
            !shared.halt.load(SeqCst),
            "sharded network stepped after a panic in an earlier step"
        );
        if self.threads.is_empty() {
            self.threads = (1..shared.workers())
                .map(|w| {
                    let shared = Arc::clone(shared);
                    std::thread::Builder::new()
                        .name(format!("df-shard-{w}"))
                        .spawn(move || shared.worker_main(w))
                        .expect("spawn shard worker thread")
                })
                .collect();
        }
        *lock(&shared.policy) = Some(policy);
        for (slot, block) in shared.blocks.iter().zip(blocks.iter_mut()).skip(1) {
            *lock(slot) = Some(std::mem::take(block));
        }
        shared.turn.store(0, SeqCst);
        shared.arrived.store(0, SeqCst);
        shared.finished.store(0, SeqCst);
        shared.timed.store(timed, SeqCst);
        shared.epoch.fetch_add(1, SeqCst);
        shared.wake_all();
    }

    /// Wait for the other workers, take the blocks and the policy back,
    /// and empty the published outboxes. Returns the policy and, on a
    /// timed step, the moment allocation ended team-wide. Re-raises the
    /// team's first panic if a phase panicked anywhere.
    fn finish_step(&self, blocks: &mut [Vec<Shard<P>>]) -> (P, Option<Instant>) {
        let shared = &self.shared;
        if shared.wait(|| shared.finished.load(SeqCst) == shared.workers() - 1).is_err() {
            let payload = lock(&shared.panic).take();
            resume_unwind(payload.unwrap_or_else(|| Box::new("shard team halted mid-step")));
        }
        for (slot, block) in shared.blocks.iter().zip(blocks.iter_mut()).skip(1) {
            *block = lock(slot).take().expect("a finished worker returned its block");
        }
        for cell in &shared.posted {
            let mut cell = cell.write().unwrap_or_else(PoisonError::into_inner);
            cell.credits.clear();
            cell.flits.clear();
        }
        let policy = lock(&shared.policy).take().expect("the policy outlives the step");
        (policy, lock(&shared.allocate_end).take())
    }
}

impl<P: RoutingPolicy> Drop for Team<P> {
    fn drop(&mut self) {
        self.shared.halt.store(true, SeqCst);
        self.shared.wake_all();
        for thread in self.threads.drain(..) {
            // A worker catches its own phase panics and `step` has
            // re-raised them already; nothing is left to report here.
            let _ = thread.join();
        }
    }
}

/// One simulation, group-sharded across cores. Same-seed output is
/// bit-identical to the serial [`Network`] for any shard count.
pub struct ShardedNetwork<P: RoutingPolicy, S: StatsSink> {
    /// `blocks[w]` holds the shards worker `w` steps, ascending; the
    /// concatenation is all shards in order. Blocks `1..` are with the
    /// team during a step.
    blocks: Vec<Vec<Shard<P>>>,
    /// The single shared routing policy (RNG + congestion tables); with
    /// the team during a step, `None` only after a step panicked.
    policy: Option<P>,
    /// The real stats sink, fed at the end of each step in ascending
    /// shard order.
    sink: S,
    team: Team<P>,
    topo: Topology,
    cfg: EngineConfig,
    cycle: u64,
    /// Global packet sequence counter (consumed only on accepted offers,
    /// matching the serial engine byte-for-byte).
    next_packet_seq: PacketSeq,
}

impl<P: RoutingPolicy + Send + 'static, S: StatsSink> ShardedNetwork<P, S> {
    /// Build an idle sharded network with `shards` shards (clamped to the
    /// group count; callers wanting a serial engine at `shards == 1`
    /// should construct a [`Network`] instead, though a 1-shard
    /// `ShardedNetwork` is equally bit-identical). The worker team is
    /// `min(shards, available cores)` strong.
    ///
    /// # Panics
    /// Panics if `cfg` fails validation.
    pub fn new(topo: Topology, cfg: EngineConfig, policy: P, sink: S, shards: u32) -> Self {
        let plan = ShardPlan::new(*topo.params(), shards);
        let shards = plan.shards() as usize;
        let workers = cores().min(shards);
        let first: Vec<usize> = (0..=workers).map(|w| w * shards / workers).collect();
        let mut slices = (0..plan.shards()).map(|s| {
            Network::new_shard(
                topo.clone(),
                cfg,
                RecordQueue::default(),
                plan.router_range(s),
                plan.node_range(s),
            )
        });
        let blocks = first.windows(2).map(|w| slices.by_ref().take(w[1] - w[0]).collect()).collect();
        let shared = Shared {
            plan,
            first,
            epoch: AtomicU64::new(0),
            halt: AtomicBool::new(false),
            blocks: (0..workers).map(|_| Mutex::new(None)).collect(),
            policy: Mutex::new(None),
            turn: AtomicUsize::new(0),
            arrived: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            posted: (0..shards).map(|_| RwLock::default()).collect(),
            timed: AtomicBool::new(false),
            allocate_end: Mutex::new(None),
            panic: Mutex::new(None),
            sleepers: AtomicUsize::new(0),
            parking: Mutex::new(()),
            wake: Condvar::new(),
        };
        Self {
            blocks,
            policy: Some(policy),
            sink,
            team: Team { shared: Arc::new(shared), threads: Vec::new() },
            topo,
            cfg,
            cycle: 0,
            next_packet_seq: 0,
        }
    }

    /// All shards, ascending.
    fn shards(&self) -> impl Iterator<Item = &Shard<P>> {
        self.blocks.iter().flatten()
    }

    /// Where shard `s` lives: (worker, index in its block).
    fn home(&self, s: u32) -> (usize, usize) {
        let first = &self.team.shared.first;
        let w = first.partition_point(|&f| f <= s as usize) - 1;
        (w, s as usize - first[w])
    }

    fn shard(&self, s: u32) -> &Shard<P> {
        let (w, i) = self.home(s);
        &self.blocks[w][i]
    }

    /// The shard plan in effect.
    #[inline]
    pub fn plan(&self) -> &ShardPlan {
        &self.team.shared.plan
    }

    /// Number of shards (after clamping).
    #[inline]
    pub fn shard_count(&self) -> u32 {
        self.plan().shards()
    }

    /// Current simulation cycle.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The engine configuration.
    #[inline]
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The stats sink (for result extraction).
    #[inline]
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the sink (e.g. to reset it after warm-up).
    #[inline]
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// The routing policy.
    ///
    /// # Panics
    /// Panics if an earlier `step` panicked (the policy was lost with it).
    #[inline]
    pub fn policy(&self) -> &P {
        self.policy.as_ref().expect("policy lost to a panic in an earlier step")
    }

    /// Packets accepted but not yet delivered, across all shards.
    pub fn in_flight(&self) -> u64 {
        self.shards().map(|sh| sh.in_flight()).sum()
    }

    /// Events currently traversing links, across all shards.
    pub fn events_pending(&self) -> usize {
        self.shards().map(|sh| sh.events_pending()).sum()
    }

    /// Arena-resident packets across all shards (leak check).
    pub fn arena_live(&self) -> usize {
        self.shards().map(|sh| sh.arena_live()).sum()
    }

    /// Arena slots ever allocated, summed across shards.
    pub fn arena_capacity(&self) -> usize {
        self.shards().map(|sh| sh.arena_capacity()).sum()
    }

    /// Ready, unparked input-VC heads across all shards.
    pub fn probe_ready_total(&self) -> u64 {
        self.shards().map(|sh| sh.probe_ready_total()).sum()
    }

    /// Sum of every output port's epoch counter across all shards.
    pub fn port_epoch_sum(&self) -> u64 {
        self.shards().map(|sh| sh.port_epoch_sum()).sum()
    }

    /// Read access to a router's state (global id; routed to its shard).
    pub fn router(&self, id: RouterId) -> &RouterState {
        self.shard(self.plan().shard_of_router(id)).router(id)
    }

    /// Resolve a packet handle *relative to the shard owning `router`*
    /// (handles are shard-local; pair them with the router they were read
    /// from, e.g. via [`RouterState::head`]).
    pub fn packet_at(&self, router: RouterId, id: PacketId) -> Packet {
        self.shard(self.plan().shard_of_router(router)).packet(id)
    }

    /// Engine counters merged across shards: scalars sum, per-router and
    /// per-node vectors splice at the shards' base offsets, and `cycles`
    /// (which every shard advances identically) is taken from shard 0.
    pub fn counters(&self) -> Counters {
        let params = self.topo.params();
        let mut merged = Counters::new(params.routers() as usize, params.nodes() as usize);
        for (s, sh) in self.shards().enumerate() {
            merged.merge_shard(
                sh.counters(),
                self.plan().router_range(s as u32).start as usize,
                self.plan().node_range(s as u32).start as usize,
            );
        }
        merged.cycles = self.blocks[0][0].counters().cycles;
        merged
    }

    /// Zero the measurement counters on every shard.
    pub fn reset_counters(&mut self) {
        for sh in self.blocks.iter_mut().flatten() {
            sh.reset_counters();
        }
    }

    /// Offer a packet for generation (same contract as [`Network::offer`];
    /// the global sequence number is consumed only on acceptance).
    pub fn offer(&mut self, src: NodeId, dst: NodeId) -> bool {
        let (w, i) = self.home(self.plan().shard_of_node(src));
        let seq = self.next_packet_seq;
        if self.blocks[w][i].offer_with_seq(src, dst, seq) {
            self.next_packet_seq += 1;
            true
        } else {
            false
        }
    }

    /// Advance the simulation by one cycle.
    ///
    /// # Panics
    /// Re-raises a panic from any shard's phase, whichever worker ran
    /// it; the network cannot be stepped again afterwards.
    pub fn step(&mut self) {
        self.step_clocked::<Untimed>();
    }

    /// [`Self::step`] with per-phase wall-clock accumulation, on the
    /// calling thread's timeline: `deliver`, `inject` and `policy` are
    /// worker 0's own shards; `allocate` runs from there to the moment
    /// the last shard's allocation returned the token, wherever it ran;
    /// `transmit` is the rest of the step — the last shards' transmit,
    /// the barrier, the accept pass and the record drain. The five phases
    /// sum to the step's wall time.
    pub fn step_timed(&mut self, profile: &mut PhaseProfile) {
        profile.absorb(&self.step_clocked::<WallClock>());
    }

    /// The one cycle body behind [`Self::step`] and [`Self::step_timed`].
    fn step_clocked<C: PhaseClock>(&mut self) -> PhaseProfile {
        self.cycle += 1;
        let mut clock = C::start();
        let policy = self.policy.take().expect("policy lost to a panic in an earlier step");
        self.team.start_step(policy, &mut self.blocks, C::TIMED);
        let shared = &*self.team.shared;
        let own = &mut self.blocks[0];
        let ran = catch_unwind(AssertUnwindSafe(|| shared.run_block(0, own, &mut clock)));
        let mut profile = match ran {
            Ok(Ok(profile)) => profile,
            // Another worker failed; `finish_step` re-raises its panic.
            Ok(Err(Halted)) => PhaseProfile::default(),
            Err(payload) => {
                shared.fail(payload);
                PhaseProfile::default()
            }
        };
        let (policy, allocate_end) = self.team.finish_step(&mut self.blocks);
        self.policy = Some(policy);
        if let Some(at) = allocate_end {
            profile.allocate_ns = clock.lap_until(at);
        }
        for sh in self.blocks.iter_mut().flatten() {
            for rec in sh.sink_mut().records.drain(..) {
                self.sink.on_delivered(&rec);
            }
        }
        profile.transmit_ns = clock.lap();
        profile
    }

    /// Run `n` cycles.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Run until every accepted packet has been delivered, up to `max`
    /// extra cycles. Returns `true` if the network drained.
    pub fn drain(&mut self, max: u64) -> bool {
        for _ in 0..max {
            if self.in_flight() == 0 {
                debug_assert_eq!(self.arena_live(), 0, "arena leak after drain");
                return true;
            }
            self.step();
        }
        self.in_flight() == 0
    }

    /// The engine's one invariant check, on the sharded engine (same
    /// contract as [`Network::audit`]; docs/DETERMINISM.md, "The audit").
    /// Call between steps. First the sharded execution's own cross-cycle
    /// invariants: the team handed everything back — no block or policy
    /// left in its slots, every published outbox emptied — and every
    /// shard's cycle counter is aligned with the caller and its own outbox
    /// and record queue are empty. Then every shard runs the serial
    /// engine's audit steps on its slice with the shared policy threaded
    /// through, and the credit ledger they all added to is balanced
    /// network-wide. O(network).
    ///
    /// # Panics
    /// Panics with a diagnostic naming the first violation.
    pub fn audit(&self) {
        let shared = &self.team.shared;
        assert!(lock(&shared.policy).is_none(), "policy left with the team between steps");
        for (w, slot) in shared.blocks.iter().enumerate() {
            assert!(lock(slot).is_none(), "worker {w}'s block left with the team between steps");
        }
        for (s, cell) in shared.posted.iter().enumerate() {
            assert!(
                cell.read().unwrap_or_else(PoisonError::into_inner).is_empty(),
                "published outbox of shard {s} not emptied inside the step (cycle {})",
                self.cycle
            );
        }
        assert_eq!(self.shards().count(), self.plan().shards() as usize, "a shard went missing");
        let policy = self.policy.as_ref().expect("policy not returned by the team");
        let mut ledger = CreditLedger::new(&self.topo, &self.cfg);
        for (s, sh) in self.blocks.iter().flatten().enumerate() {
            assert_eq!(sh.cycle(), self.cycle, "shard {s} cycle skew at barrier");
            assert!(
                sh.outbox_is_empty(),
                "cross-shard outbox not published at the barrier (shard {s}, cycle {})",
                self.cycle
            );
            assert!(
                sh.sink().records.is_empty(),
                "delivery records not drained inside the step (shard {s}, cycle {})",
                self.cycle
            );
            sh.audit_slice(policy, &mut ledger);
        }
        ledger.assert_balanced(self.cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArbiterPolicy;
    use crate::packet::{Decision, PacketHeader, RouteInfo};
    use df_topology::{Arrangement, DragonflyParams, Port, PortKind, PortLayout, PortTarget};

    /// Minimal-only routing (same as the serial engine's test policy).
    struct MinOnly {
        topo: Topology,
    }

    impl RoutingPolicy for MinOnly {
        fn route(
            &mut self,
            router: &RouterState,
            _in_port: Port,
            hdr: PacketHeader,
            mut info: RouteInfo,
        ) -> Decision {
            let params = self.topo.params();
            let me = router.id();
            let dst_router = hdr.dst.router(params);
            let (out_port, out_vc, is_global) = if dst_router == me {
                (params.injection_port(hdr.dst.slot(params)), 0, false)
            } else if dst_router.group(params) == me.group(params) {
                (
                    params.local_port(me.local_index(params), dst_router.local_index(params)),
                    info.local_hops,
                    false,
                )
            } else {
                let (exit, j) =
                    self.topo.exit_to_group(me.group(params), dst_router.group(params));
                if exit == me {
                    (params.global_port(j), info.global_hops, true)
                } else {
                    (
                        params.local_port(me.local_index(params), exit.local_index(params)),
                        info.local_hops,
                        false,
                    )
                }
            };
            if is_global {
                info.global_hops += 1;
            } else if params.port_kind(out_port) == PortKind::Local {
                info.local_hops += 1;
            }
            Decision { out_port, out_vc, info }
        }

        fn name(&self) -> &'static str {
            "test-min"
        }
    }

    fn serial() -> Network<MinOnly, RecordQueue> {
        let topo = Topology::new(DragonflyParams::figure1(), Arrangement::Palmtree);
        let policy = MinOnly { topo: topo.clone() };
        let cfg = EngineConfig::paper(ArbiterPolicy::RoundRobin, 3);
        Network::new(topo, cfg, policy, RecordQueue::default())
    }

    fn sharded(shards: u32) -> ShardedNetwork<MinOnly, RecordQueue> {
        let topo = Topology::new(DragonflyParams::figure1(), Arrangement::Palmtree);
        let policy = MinOnly { topo: topo.clone() };
        let cfg = EngineConfig::paper(ArbiterPolicy::RoundRobin, 3);
        ShardedNetwork::new(topo, cfg, policy, RecordQueue::default(), shards)
    }

    /// Deterministic mixed workload touching every group: the offers to
    /// make before stepping each round.
    fn round_offers(round: u32) -> Vec<(NodeId, NodeId)> {
        let nodes = DragonflyParams::figure1().nodes();
        let mut out = Vec::new();
        for n in 0..nodes {
            if (n + round).is_multiple_of(3) {
                let dst = (n * 31 + round * 7 + 1) % nodes;
                if dst != n {
                    out.push((NodeId(n), NodeId(dst)));
                }
            }
        }
        out
    }

    /// Drive the mixed workload to a full drain on either engine and
    /// hand back what it produced: the counters and the delivered records
    /// in arrival order.
    macro_rules! run_rounds {
        ($net:expr) => {{
            let mut net = $net;
            for round in 0..30u32 {
                for (s, d) in round_offers(round) {
                    net.offer(s, d);
                }
                net.step();
            }
            assert!(net.drain(50_000), "network failed to drain");
            let records = std::mem::take(&mut net.sink_mut().records);
            (net, records)
        }};
    }

    fn assert_matches_serial(
        tag: &str,
        c: &Counters,
        records: &[DeliveredRecord],
        base: &(Counters, Vec<DeliveredRecord>),
    ) {
        let (base_counters, base_records) = base;
        assert_eq!(c.delivered_packets, base_counters.delivered_packets, "{tag}");
        assert_eq!(c.accepted_packets, base_counters.accepted_packets, "{tag}");
        assert_eq!(c.offered_packets, base_counters.offered_packets, "{tag}");
        assert_eq!(c.delivered_phits, base_counters.delivered_phits, "{tag}");
        assert_eq!(c.escape_grants, base_counters.escape_grants, "{tag}");
        assert_eq!(c.global_phits, base_counters.global_phits, "{tag}");
        assert_eq!(
            c.injected_per_router, base_counters.injected_per_router,
            "per-router injections diverged at {tag}"
        );
        assert_eq!(
            c.injected_per_node, base_counters.injected_per_node,
            "per-node injections diverged at {tag}"
        );
        // Record-for-record identity, including arrival order.
        assert_eq!(records.len(), base_records.len(), "{tag}");
        for (i, (a, b)) in records.iter().zip(base_records).enumerate() {
            assert_eq!(a, b, "delivered record {i} diverged at {tag}");
        }
    }

    fn serial_baseline() -> (Counters, Vec<DeliveredRecord>) {
        let (base, records) = run_rounds!(serial());
        (base.counters().clone(), records)
    }

    #[test]
    fn sharded_counters_match_serial_exactly() {
        let base = serial_baseline();
        for shards in [1u32, 2, 3, 9] {
            let (net, records) = run_rounds!(sharded(shards));
            net.audit();
            assert_matches_serial(&format!("S={shards}"), &net.counters(), &records, &base);
        }
    }

    /// Oversubscription: one shard per group, and four networks stepping
    /// at once on four threads — more runnable team workers than this
    /// box has cores, so waits run out of spin budget and park. Every
    /// network must still finish with the serial bytes.
    #[test]
    fn concurrent_networks_at_one_shard_per_group_match_serial() {
        let base = serial_baseline();
        let groups = DragonflyParams::figure1().groups();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (base, start) = (&base, &start);
                scope.spawn(move || {
                    let net = sharded(groups);
                    assert_eq!(net.shard_count(), groups);
                    start.wait();
                    let (net, records) = run_rounds!(net);
                    net.audit();
                    assert_matches_serial(&format!("thread {t}"), &net.counters(), &records, base);
                });
            }
        });
    }

    /// The timed step is the untimed step with clock laps: same records,
    /// one profile cycle per step, and laps that tile the step — their sum
    /// cannot exceed the wall time measured around the calls.
    #[test]
    fn timed_steps_tile_the_wall_clock_and_change_nothing() {
        let base = serial_baseline();
        let mut net = sharded(2);
        let mut profile = PhaseProfile::default();
        let wall = Instant::now();
        for round in 0..30u32 {
            for (s, d) in round_offers(round) {
                net.offer(s, d);
            }
            net.step_timed(&mut profile);
        }
        let wall_ns = wall.elapsed().as_nanos() as u64;
        assert_eq!(profile.cycles, 30);
        assert!(profile.allocate_ns > 0 && profile.transmit_ns > 0);
        assert!(profile.total_ns() <= wall_ns, "{} > {wall_ns}", profile.total_ns());
        assert!(net.drain(50_000));
        let records = std::mem::take(&mut net.sink_mut().records);
        assert_matches_serial("timed S=2", &net.counters(), &records, &base);
    }

    #[test]
    fn audit_holds_mid_run() {
        let mut net = sharded(3);
        let nodes = net.topology().params().nodes();
        for round in 0..60u32 {
            for n in (0..nodes).step_by(4) {
                net.offer(NodeId(n), NodeId((n * 13 + round * 5 + 1) % nodes));
            }
            net.step();
            net.audit();
        }
        assert!(net.drain(50_000));
        net.audit();
    }

    /// One group per shard puts the two ends of every global link in
    /// different shards: a credit stolen at the sending end only shows
    /// once every slice has added its share to the one ledger.
    #[test]
    #[should_panic(expected = "credit conservation violated on the link into router")]
    fn audit_balances_credits_across_shards() {
        let mut net = sharded(DragonflyParams::figure1().groups());
        for round in 0..20u32 {
            for (s, d) in round_offers(round) {
                net.offer(s, d);
            }
            net.step();
        }
        let global = net.topology().params().global_port(0);
        net.blocks[0][0].router_mut(RouterId(0)).reserve_credit(global.idx(), 0);
        net.audit();
    }

    /// The sharded twin of the serial engine's two-packets-down-one-VC
    /// test, across a group (and, at one group per shard, a shard)
    /// boundary: with a pipeline (12) deeper than a packet is long (8) the
    /// second flit is in flight — handed over with `RemoteFlit::delay` —
    /// while the first is granted at the far router. Each must enter its
    /// VC there on exactly `link arrival + pipeline` and be granted that
    /// cycle: no queueing beyond the source link's serialization, and
    /// never a resident packet between steps.
    #[test]
    fn remote_flit_lands_on_its_eligibility_cycle() {
        let topo = Topology::new(DragonflyParams::figure1(), Arrangement::Palmtree);
        let params = *topo.params();
        let cfg = EngineConfig {
            vcs_injection: 1,
            pipeline_latency: 12,
            ..EngineConfig::paper(ArbiterPolicy::RoundRobin, 3)
        };
        // Router 0's first global link, and a node on the router at its
        // far end: inject, one global hop, eject.
        let PortTarget::Router { router: far, .. } =
            topo.port_target(RouterId(0), params.global_port(0))
        else {
            panic!("a global port leads to a router");
        };
        let dst = NodeId(far.0 * params.p);
        let policy = MinOnly { topo: topo.clone() };
        let mut net =
            ShardedNetwork::new(topo, cfg, policy, RecordQueue::default(), params.groups());
        assert_ne!(net.plan().shard_of_router(far), net.plan().shard_of_router(RouterId(0)));
        assert!(net.offer(NodeId(0), dst) && net.offer(NodeId(0), dst));
        while net.in_flight() > 0 {
            assert!(net.cycle() < 1_000, "network failed to drain");
            net.step();
            net.audit();
            let far = net.router(far);
            assert_eq!((far.probe_ready(), far.input_packets()), (0, 0), "cycle {}", net.cycle());
        }
        // Two injection links, the global link, serialization, two pipelines.
        let min = 2 + 100 + 8 + 2 * 12;
        let records = std::mem::take(&mut net.sink_mut().records);
        assert_eq!(records.len(), 2);
        for (rec, queued) in records.iter().zip([0, 8]) {
            assert_eq!(rec.min_traversal, min);
            assert_eq!((rec.waits.injection, rec.waits.local, rec.waits.global), (queued, 0, 0));
            assert_eq!(rec.latency(), min + queued);
        }
    }

    #[test]
    fn full_queue_consumes_no_sequence_number() {
        // Hammer one node far past its queue bound: rejected offers must
        // not advance the shared sequence counter (serial contract).
        let mut net = sharded(2);
        let mut accepted = 0u64;
        for _ in 0..1000 {
            if net.offer(NodeId(0), NodeId(70)) {
                accepted += 1;
            }
        }
        let c = net.counters();
        assert_eq!(c.offered_packets, 1000);
        assert_eq!(c.accepted_packets, accepted);
        assert!(accepted < 1000, "queue bound should have rejected some offers");
        assert!(net.drain(100_000));
        assert_eq!(net.counters().delivered_packets, accepted);
    }
}
