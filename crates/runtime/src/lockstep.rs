//! The lockstep driver: the one threaded Penelope driver.
//!
//! One OS thread per node, each owning a [`NodeEngine`] behind a mutex (the
//! paper's "simple lock", §3.3) and exchanging [`PeerMsg`]s over a
//! [`ThreadNet`]. Periods are phased by barriers — tick (Alg. 1), serve
//! (Alg. 2 on the destination pools), apply (grant delivery) — so that at
//! each period boundary every message sent has been consumed. Between
//! periods the coordinator thread applies the [`FaultScript`] and takes a
//! snapshot; that instant is a consistent cut of truly concurrent state.
//!
//! Time is virtual and unpaced: period `p` runs at `p × period`, and the
//! simulated RAPL domains integrate their workloads over that clock, so a
//! run takes as long as the barriers do, not as long as the workload.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use penelope_core::{
    Delivery, Effects, EngineConfig, EngineInput, EngineOutput, NodeEngine, PeerMsg, PowerGrant,
    SuspicionDigest,
};
use penelope_net::{Envelope, FaultAction, FaultScript, NetStats, ThreadEndpoint, ThreadNet};
use penelope_power::{PowerInterface, RaplConfig, SimulatedRapl};
use penelope_testkit::conformance::{NodeSnapshot, Snapshot};
use penelope_testkit::rng::{node_seed, Rng, TestRng};
use penelope_trace::{EventKind, SharedObserver};
use penelope_units::{NodeId, Power, SimDuration, SimTime};
use penelope_workload::{Profile, WorkloadState};

use crate::cluster::Emitter;

/// One lockstep run's inputs.
#[derive(Clone, Debug)]
pub struct Lockstep {
    /// Every node's engine configuration; its decider period is the
    /// lockstep period and its safe range bounds a restart's cap.
    pub engine: EngineConfig,
    /// Initial cap per node. A restart re-admits at most this much.
    pub caps: Vec<Power>,
    /// One workload profile per node.
    pub profiles: Vec<Profile>,
    /// Simulated RAPL parameters.
    pub rapl: RaplConfig,
    /// Fractional daemon overhead on every workload.
    pub management_overhead: f64,
    /// Master seed: node `i` draws from `node_seed(seed, i)` and its loss
    /// stream from `node_seed(seed, u64::MAX - 3 - i)`.
    pub seed: u64,
    /// The most periods to run.
    pub periods: u64,
    /// End the run at the first period boundary where every live node's
    /// workload has finished.
    pub until_finished: bool,
    /// Faults, each applied at the first period boundary at or after its
    /// timestamp, in [`FaultScript::chronological`] order.
    pub faults: FaultScript,
    /// Protocol-event sink shared by every node thread.
    pub observer: SharedObserver,
}

/// What a lockstep run produced.
#[derive(Debug)]
pub struct LockstepRun {
    /// The consistent cut at the end of each period run.
    pub snapshots: Vec<Snapshot>,
    /// The final cut, labelled with the number of periods run.
    pub end: Snapshot,
    /// Per-node workload completion time in workload seconds (`None`: not
    /// finished when the run ended).
    pub finished_secs: Vec<Option<f64>>,
    /// Thread-net counters.
    pub net: NetStats,
}

/// Everything the coordinator shares with the node threads.
///
/// The owning thread locks its engine for the duration of a phase, and the
/// coordinator locks it only between barriers (faults, snapshots), when
/// every node thread is parked — so the locks are never contended and the
/// period-boundary reads are consistent cuts.
struct Shared {
    engines: Vec<Mutex<NodeEngine>>,
    /// Caps mirrored out of each engine, in milliwatts (kept so dead
    /// nodes' retired caps stay visible in snapshots).
    caps_mw: Vec<AtomicU64>,
    alive: Vec<AtomicBool>,
    /// Set by the coordinator's restart leg: the node thread re-actuates
    /// its RAPL at the re-admitted cap before its next tick.
    reborn: Vec<AtomicBool>,
    /// Set by each node thread after its tick once its workload is done.
    finished: Vec<AtomicBool>,
    /// Power retired from the system (killed nodes), in milliwatts.
    lost_mw: AtomicU64,
    /// Raised by the coordinator before the barrier that ends the run.
    stop: AtomicBool,
    barrier: Barrier,
}

impl Lockstep {
    /// Run the cluster on `caps.len()` node threads plus the coordinator
    /// (the calling thread).
    pub fn run(self) -> LockstepRun {
        let n = self.caps.len();
        assert_eq!(self.profiles.len(), n, "one profile per node");
        let period = self.engine.node.decider.period;
        let (net, endpoints) = ThreadNet::<PeerMsg>::new(n);
        let shared = Arc::new(Shared {
            engines: (0..n)
                .map(|i| {
                    Mutex::new(NodeEngine::new(
                        NodeId::new(i as u32),
                        n,
                        self.engine,
                        self.caps[i],
                        self.observer.clone(),
                    ))
                })
                .collect(),
            caps_mw: self
                .caps
                .iter()
                .map(|c| AtomicU64::new(c.milliwatts()))
                .collect(),
            alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
            reborn: (0..n).map(|_| AtomicBool::new(false)).collect(),
            finished: (0..n).map(|_| AtomicBool::new(false)).collect(),
            lost_mw: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            barrier: Barrier::new(n + 1),
        });

        let threads: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(i, endpoint)| {
                let shared = Arc::clone(&shared);
                let id = NodeId::new(i as u32);
                let rapl = SimulatedRapl::new(
                    WorkloadState::with_overhead(
                        self.profiles[i].clone(),
                        self.management_overhead,
                    ),
                    self.caps[i],
                    self.rapl.clone(),
                );
                let rng = TestRng::seed_from_u64(node_seed(self.seed, i as u64));
                // Per-node loss stream, disjoint from the decider RNG so drop
                // injection never perturbs the protocol's draw sequence.
                let drop_rng =
                    TestRng::seed_from_u64(node_seed(self.seed, u64::MAX - 3 - i as u64));
                let em = Emitter::new(self.observer.clone(), id, period);
                std::thread::spawn(move || {
                    node_loop(i, period, &endpoint, &shared, rapl, rng, drop_rng, &em)
                })
            })
            .collect();

        // Coordinator: apply faults at period starts, snapshot at period
        // ends. Node threads are parked on the first barrier of period p
        // while this runs, so the snapshot reads quiescent state.
        let mut faults = self.faults.chronological().into_iter().peekable();
        let mut snapshots = Vec::new();
        for p in 0..self.periods {
            let now = SimTime::ZERO + period * p;
            while let Some((_, action)) = faults.next_if(|(at, _)| *at <= now) {
                match action {
                    FaultAction::Kill(id) => self.kill(&shared, &net, id, now),
                    FaultAction::Restart(id) => self.restart(&shared, &net, id, now),
                    // No server runs here.
                    FaultAction::KillServer => {}
                    network => net.with_faults(|f| f.apply(&network)),
                }
            }
            shared.barrier.wait(); // release into tick
            shared.barrier.wait(); // tick done
            shared.barrier.wait(); // serve done
            shared.barrier.wait(); // apply done: channels drained
            snapshots.push(snapshot(&shared, p));
            let done = |i: usize| {
                !shared.alive[i].load(Ordering::SeqCst) || shared.finished[i].load(Ordering::SeqCst)
            };
            if self.until_finished && (0..n).all(done) {
                break;
            }
        }
        shared.stop.store(true, Ordering::SeqCst);
        shared.barrier.wait(); // release the node threads to exit
        let finished_secs = threads
            .into_iter()
            .map(|t| {
                let rapl = t.join().expect("lockstep node thread panicked");
                rapl.device().finished_at().map(|t| t.as_secs_f64())
            })
            .collect();
        LockstepRun {
            end: snapshot(&shared, snapshots.len() as u64),
            snapshots,
            finished_secs,
            net: net.stats(),
        }
    }

    /// The kill leg: retire the victim's cap, pool *and* undelivered
    /// escrow into `lost` — undelivered power dies with its granter,
    /// exactly like its cap — and block its traffic.
    fn kill(&self, shared: &Shared, net: &ThreadNet<PeerMsg>, id: NodeId, now: SimTime) {
        let i = id.index();
        if i >= self.caps.len() || !shared.alive[i].swap(false, Ordering::SeqCst) {
            return;
        }
        net.with_faults(|f| f.kill(id));
        let (pooled, escrowed) = shared.engines[i].lock().unwrap().retire();
        let cap = Power::from_milliwatts(shared.caps_mw[i].load(Ordering::SeqCst));
        let lost = cap + pooled + escrowed;
        shared
            .lost_mw
            .fetch_add(lost.milliwatts(), Ordering::SeqCst);
        let period = self.engine.node.decider.period;
        Emitter::new(self.observer.clone(), id, period)
            .emit(now, || EventKind::NodeKilled { lost });
    }

    /// The restart leg: zero-sum re-admission. The reborn cap comes out of
    /// the lost balance — never more than it, nor than the node's initial
    /// cap — and only if it funds a cap inside the safe range. The engine
    /// rebuilds controller and pool state fresh but continues the sequence
    /// namespace *after* the pre-crash watermark, so peers' escrow entries
    /// keyed by the old (requester, seq) pairs can never collide with — or
    /// be replayed into — the new epoch.
    fn restart(&self, shared: &Shared, net: &ThreadNet<PeerMsg>, id: NodeId, now: SimTime) {
        let i = id.index();
        if i >= self.caps.len() || shared.alive[i].load(Ordering::SeqCst) {
            return;
        }
        let lost = Power::from_milliwatts(shared.lost_mw.load(Ordering::SeqCst));
        let readmitted = self.caps[i].min(lost);
        if !self.engine.node.safe_range.contains(readmitted) {
            return;
        }
        shared
            .lost_mw
            .fetch_sub(readmitted.milliwatts(), Ordering::SeqCst);
        shared.caps_mw[i].store(readmitted.milliwatts(), Ordering::SeqCst);
        shared.engines[i].lock().unwrap().reincarnate(readmitted);
        net.with_faults(|f| f.revive(id));
        shared.reborn[i].store(true, Ordering::SeqCst);
        shared.alive[i].store(true, Ordering::SeqCst);
        let period = self.engine.node.decider.period;
        Emitter::new(self.observer.clone(), id, period)
            .emit(now, || EventKind::NodeRestarted { readmitted });
    }
}

/// One period-boundary consistent cut of the lockstep cluster.
fn snapshot(shared: &Shared, period: u64) -> Snapshot {
    // At the period boundary every sent message has been consumed, so the
    // only in-flight power is what granters hold in escrow for grants that
    // never reached their requester (undelivered entries). Killed nodes'
    // engines were retired at the kill, so they report zero.
    let mut escrowed = Power::ZERO;
    let nodes = shared
        .engines
        .iter()
        .enumerate()
        .map(|(i, engine)| {
            let e = engine.lock().unwrap();
            escrowed += e.escrowed_undelivered();
            let pool = e.pool();
            NodeSnapshot {
                node: i as u32,
                alive: shared.alive[i].load(Ordering::SeqCst),
                cap: Power::from_milliwatts(shared.caps_mw[i].load(Ordering::SeqCst)),
                pool_available: pool.available(),
                pool_deposited: pool.total_deposited(),
                pool_granted: pool.total_granted() + pool.total_taken_local(),
                pool_drained: pool.total_drained(),
            }
        })
        .collect();
    Snapshot {
        period,
        consistent_cut: true,
        in_flight: escrowed,
        lost: Power::from_milliwatts(shared.lost_mw.load(Ordering::SeqCst)),
        nodes,
    }
}

/// A node thread's side of one engine step: its RAPL plus the shared cap
/// mirror, the thread-net with the fault plane's random loss injected at
/// the sender, and the shared lost balance.
///
/// No escrow timers: the tick phase starts with an
/// [`EngineInput::SweepEscrow`], and one sweep per period boundary
/// subsumes every per-entry deadline.
struct LockstepEffects<'a> {
    idx: usize,
    now: SimTime,
    endpoint: &'a ThreadEndpoint<PeerMsg>,
    drop_rate: f64,
    /// Per-node loss stream, disjoint from the decider RNG so drop
    /// injection never perturbs the protocol's draw sequence.
    drop_rng: TestRng,
    rapl: SimulatedRapl<WorkloadState>,
    shared: &'a Shared,
}

impl Effects for LockstepEffects<'_> {
    /// Requests, grants and acks all pass through the same random loss,
    /// so a lossy run degrades every protocol edge, exactly like the
    /// simulator's drop-rate fault. A refused send (dead peer or cut link)
    /// is a drop too.
    fn send(&mut self, dst: NodeId, msg: &PeerMsg, _carried: Power, _grant: bool) -> Delivery {
        if self.drop_rate > 0.0 && self.drop_rng.gen_bool(self.drop_rate) {
            return Delivery::Dropped;
        }
        if self.endpoint.send(dst, msg.clone()) {
            Delivery::Sent
        } else {
            Delivery::Dropped
        }
    }

    fn actuate(&mut self, cap: Power) {
        self.rapl.set_cap(cap, self.now);
        self.shared.caps_mw[self.idx].store(cap.milliwatts(), Ordering::SeqCst);
    }

    fn power_lost(&mut self, amount: Power) {
        self.shared
            .lost_mw
            .fetch_add(amount.milliwatts(), Ordering::SeqCst);
    }
}

/// The per-node thread body: the same [`NodeEngine`] the simulator drives,
/// phased by barriers instead of an event queue. Returns the node's RAPL
/// domain so the coordinator can read when its workload finished.
#[allow(clippy::too_many_arguments)]
fn node_loop(
    idx: usize,
    period: SimDuration,
    endpoint: &ThreadEndpoint<PeerMsg>,
    shared: &Shared,
    rapl: SimulatedRapl<WorkloadState>,
    mut rng: TestRng,
    drop_rng: TestRng,
    em: &Emitter,
) -> SimulatedRapl<WorkloadState> {
    let mut fx = LockstepEffects {
        idx,
        now: SimTime::ZERO,
        endpoint,
        drop_rate: 0.0,
        drop_rng,
        rapl,
        shared,
    };
    let mut outputs: Vec<EngineOutput> = Vec::new();
    let mut inbox: Vec<Envelope<PeerMsg>> = Vec::new();
    let mut stashed_grants: Vec<(NodeId, PowerGrant, Option<Box<SuspicionDigest>>)> = Vec::new();
    let mut p = 0u64;
    loop {
        shared.barrier.wait(); // coordinator finished faults/snapshot
        if shared.stop.load(Ordering::SeqCst) {
            return fx.rapl;
        }
        let now = SimTime::ZERO + period * p;
        p += 1;
        fx.now = now;
        fx.drop_rate = endpoint.net().with_faults(|f| f.drop_rate());
        let me_alive = shared.alive[idx].load(Ordering::SeqCst);
        if shared.reborn[idx].swap(false, Ordering::SeqCst) && me_alive {
            // Reborn between periods: the coordinator re-admitted a cap
            // out of the lost balance and reincarnated the engine.
            let reborn = Power::from_milliwatts(shared.caps_mw[idx].load(Ordering::SeqCst));
            fx.rapl.set_cap(reborn, now);
        }

        // --- Tick phase -------------------------------------------------
        if me_alive {
            let mut engine = shared.engines[idx].lock().unwrap();
            // Reclaim escrowed grants whose ack deadline has passed before
            // deciding: an Undelivered amount flows back into this node's
            // own pool (the §3.2 abort path); an AwaitingAck entry expires
            // without credit — the power is with the requester or died
            // with it, and re-crediting it would mint.
            let sweep = EngineInput::SweepEscrow;
            engine.step(now, sweep, &mut rng, &mut outputs, &mut fx);
            let reading = fx.rapl.read_power_with(now, &mut rng);
            let tick = EngineInput::Tick { reading };
            engine.step(now, tick, &mut rng, &mut outputs, &mut fx);
            let done = fx.rapl.device().is_finished();
            shared.finished[idx].store(done, Ordering::SeqCst);
        }
        shared.barrier.wait(); // tick done everywhere: all requests sent

        // Serve and apply both drain the queue in source order, so the run
        // does not depend on which sender's thread ran first. Requests and
        // acks go straight to the engine (it dedups retransmits against
        // its escrow and never double-debits); grants are stashed for the
        // apply phase. A dead node's endpoint yields nothing.
        let mut drain = |engine: &mut NodeEngine| {
            inbox.extend(std::iter::from_fn(|| endpoint.try_recv()));
            inbox.sort_by_key(|env| env.src);
            for env in inbox.drain(..) {
                let src = env.src;
                let carried = match &env.msg {
                    PeerMsg::Grant(g, _) => g.amount,
                    _ => Power::ZERO,
                };
                em.emit(now, || EventKind::MsgRecv { src, carried });
                match env.msg {
                    PeerMsg::Grant(g, digest) => stashed_grants.push((src, g, digest)),
                    msg => {
                        let input = EngineInput::Msg { src, msg };
                        engine.step(now, input, &mut rng, &mut outputs, &mut fx);
                    }
                }
            }
        };

        // --- Serve phase: answer this period's requests -----------------
        if me_alive {
            drain(&mut shared.engines[idx].lock().unwrap());
        }
        shared.barrier.wait(); // serve done everywhere: all grants sent

        // --- Apply phase ------------------------------------------------
        // Acks race with this drain (they are sent from other nodes' apply
        // phases); one missed here is handled by the next serve phase,
        // well before any escrow deadline.
        if me_alive {
            let mut engine = shared.engines[idx].lock().unwrap();
            drain(&mut engine);
            stashed_grants.sort_by_key(|(src, ..)| *src);
            for (src, g, digest) in stashed_grants.drain(..) {
                // The engine merges piggybacked gossip before booking the
                // reply, applies the grant, actuates the new cap and acks
                // non-zero amounts back to the granter.
                let input = EngineInput::Msg {
                    src,
                    msg: PeerMsg::Grant(g, digest),
                };
                engine.step(now, input, &mut rng, &mut outputs, &mut fx);
            }
        }
        shared.barrier.wait(); // apply done: nothing in flight
    }
}
