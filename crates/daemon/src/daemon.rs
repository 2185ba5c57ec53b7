//! The daemon runtime: decider thread + network/pool thread over UDP.
//!
//! Both threads drive one shared [`NodeEngine`] — the same automaton the
//! simulator and the threaded runtime run — behind a mutex (§3.3: "a
//! simple lock"). The daemon's job reduces to transport: decode
//! datagrams into [`EngineInput`]s, carry out the engine's effects as UDP
//! sends and RAPL writes, and keep a node-id → socket-address table so
//! engine-level peer ids resolve to real endpoints.
//!
//! All sends go through the [`DatagramSocket`] shim, so a test can slot a
//! deterministic fault plane (`penelope_net::FaultySocket`) under a live
//! daemon. An injected drop comes back as [`SendStatus::Dropped`]: the
//! daemon *knows* the datagram never left and answers the engine's send
//! with [`Delivery::Dropped`], so the engine emits `MsgDropped` (or
//! `AckDropped`) and escrows a dropped grant as undelivered, reclaimed at
//! the deadline instead of leaking. A real OS send error is different
//! news: [`Delivery::Failed`], counted separately as `send_failed`.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use penelope_core::decider::DeciderStats;
use penelope_core::{
    Delivery, Effects, EngineConfig, EngineInput, EngineOutput, GrantAck, NodeEngine, PeerMsg,
    PowerGrant, PowerRequest,
};
use penelope_net::shim::{DatagramSocket, SendStatus};
use penelope_power::{CappedDevice, ConstantDevice, LinuxRapl, PowerInterface, SimulatedRapl};
use penelope_testkit::rng::TestRng;
use penelope_trace::{
    CounterObserver, CounterSnapshot, EventKind, FanoutObserver, SharedObserver, TraceEvent,
};
use penelope_units::{NodeId, Power, SimTime};
use penelope_workload::WorkloadState;

use crate::config::{DaemonConfig, PowerBackend};
use crate::wire::{WireMsg, MAX_WIRE_LEN};

/// One status sample, emitted every `status_every` iterations.
#[derive(Clone, Copy, Debug)]
pub struct DaemonStatus {
    /// Decider iteration count.
    pub iteration: u64,
    /// Wall-clock seconds since the daemon started.
    pub uptime_secs: f64,
    /// Current node-level cap.
    pub cap: Power,
    /// The last power reading.
    pub reading: Power,
    /// Power cached in the local pool.
    pub pool: Power,
    /// Lifetime power deposited into the pool.
    pub pool_deposited: Power,
    /// Lifetime power withdrawn to raise caps (peer grants + local takes).
    pub pool_granted: Power,
    /// Lifetime power drained out of the pool (shutdown).
    pub pool_drained: Power,
}

impl DaemonStatus {
    /// Render as the daemon's stdout status line.
    pub fn render(&self) -> String {
        format!(
            "t={:8.2}s iter={:6} cap={} reading={} pool={}",
            self.uptime_secs, self.iteration, self.cap, self.reading, self.pool
        )
    }
}

/// Final accounting when a daemon stops.
#[derive(Clone, Copy, Debug)]
pub struct DaemonSummary {
    /// Decider iterations executed.
    pub iterations: u64,
    /// The cap at shutdown.
    pub final_cap: Power,
    /// Pool balance at shutdown.
    pub final_pool: Power,
    /// Decider counters.
    pub decider: DeciderStats,
    /// Power granted to peers by the local pool.
    pub granted_to_peers: Power,
    /// Peer requests served.
    pub requests_served: u64,
    /// Lifetime power deposited into the pool.
    pub pool_deposited: Power,
    /// Lifetime power the co-located decider took back locally.
    pub taken_local: Power,
    /// Lifetime power drained out of the pool.
    pub pool_drained: Power,
    /// The next request sequence number the decider would have used —
    /// feed this to [`DaemonConfig::initial_seq`](crate::DaemonConfig)
    /// when restarting this node so the reborn daemon's sequence
    /// namespace never collides with grants still addressed to this
    /// incarnation.
    pub next_seq: u64,
    /// Protocol-event counters accumulated by the built-in
    /// [`CounterObserver`] — the same shape every substrate reports, so a
    /// local daemon and a remote one can be compared field for field.
    pub counters: CounterSnapshot,
}

/// A running daemon: stop it to get the summary.
pub struct DaemonHandle {
    shutdown: Arc<AtomicBool>,
    decider_thread: JoinHandle<u64>,
    net_thread: JoinHandle<()>,
    engine: Arc<Mutex<NodeEngine>>,
    counters: Arc<CounterObserver>,
    node: NodeId,
    /// Status samples (`status_every` > 0) arrive here.
    pub status_rx: Receiver<DaemonStatus>,
    /// The address the daemon actually bound (useful with port 0).
    pub local_addr: std::net::SocketAddr,
}

/// Lock one of the daemon's shared tables, turning a poisoned mutex (a
/// sibling thread panicked while holding it) into a panic that names the
/// table and the node — diagnosable, unlike the bare `PoisonError` the
/// old `.lock().unwrap()` produced.
fn lock_table<'a, T>(m: &'a Mutex<T>, table: &str, node: NodeId) -> std::sync::MutexGuard<'a, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(_) => panic!(
            "daemon node {}: {table} table mutex poisoned — \
             a daemon thread panicked while holding it; see the first panic above",
            node.index()
        ),
    }
}

impl DaemonHandle {
    /// A live snapshot of the daemon's protocol-event counters — readable
    /// while the daemon runs, in the same shape remote observers report.
    pub fn counters(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// Outstanding granter-side escrow entries, live. A healthy quiescent
    /// daemon trends to zero as acks arrive or deadlines pass; tests use
    /// this to prove an ack from a *rebound* requester address still
    /// releases the node-keyed entry.
    pub fn escrow_len(&self) -> usize {
        lock_table(&self.engine, "engine", self.node).escrow_len()
    }

    /// Signal shutdown and collect the final summary.
    pub fn stop(self) -> DaemonSummary {
        self.shutdown.store(true, Ordering::Relaxed);
        let iterations = self.decider_thread.join().expect("decider thread");
        self.net_thread.join().expect("net thread");
        let engine = lock_table(&self.engine, "engine", self.node);
        let pool = engine.pool();
        DaemonSummary {
            iterations,
            final_cap: engine.cap(),
            final_pool: pool.available(),
            decider: engine.stats(),
            granted_to_peers: pool.total_granted(),
            requests_served: pool.requests_served(),
            pool_deposited: pool.total_deposited(),
            taken_local: pool.total_taken_local(),
            pool_drained: pool.total_drained(),
            next_seq: engine.next_seq(),
            counters: self.counters.snapshot(),
        }
    }
}

/// The node's power hardware, simulated or real.
enum Hardware {
    Simulated {
        rapl: SimulatedRapl<Box<dyn CappedDevice + Send>>,
        origin: Instant,
    },
    Linux(Box<LinuxRapl>),
}

impl Hardware {
    fn now(&self) -> SimTime {
        match self {
            Hardware::Simulated { origin, .. } => {
                SimTime::from_nanos(origin.elapsed().as_nanos().min(u64::MAX as u128) as u64)
            }
            Hardware::Linux(_) => {
                // The Linux backend only needs a monotonically increasing
                // clock for its read windows.
                static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
                let origin = START.get_or_init(Instant::now);
                SimTime::from_nanos(origin.elapsed().as_nanos().min(u64::MAX as u128) as u64)
            }
        }
    }

    fn read_power(&mut self) -> Power {
        let now = self.now();
        match self {
            Hardware::Simulated { rapl, .. } => rapl.read_power(now),
            Hardware::Linux(rapl) => rapl.read_power(now),
        }
    }

    fn set_cap(&mut self, cap: Power) {
        let now = self.now();
        match self {
            Hardware::Simulated { rapl, .. } => rapl.set_cap(cap, now),
            Hardware::Linux(rapl) => rapl.set_cap(cap, now),
        }
    }
}

fn build_hardware(cfg: &DaemonConfig) -> io::Result<Hardware> {
    Ok(match &cfg.power {
        PowerBackend::SimulatedConstant { demand } => {
            let device: Box<dyn CappedDevice + Send> = Box::new(ConstantDevice::new(*demand));
            Hardware::Simulated {
                rapl: SimulatedRapl::new(device, cfg.initial_cap, cfg.rapl.clone()),
                origin: Instant::now(),
            }
        }
        PowerBackend::SimulatedProfile { profile } => {
            let device: Box<dyn CappedDevice + Send> =
                Box::new(WorkloadState::new(profile.clone()));
            Hardware::Simulated {
                rapl: SimulatedRapl::new(device, cfg.initial_cap, cfg.rapl.clone()),
                origin: Instant::now(),
            }
        }
        PowerBackend::LinuxRapl => Hardware::Linux(Box::new(
            LinuxRapl::discover(cfg.node.safe_range)
                .map_err(|e| io::Error::new(io::ErrorKind::NotFound, e.to_string()))?,
        )),
    })
}

/// The daemon's side of one engine step: UDP sends through the shim and,
/// on the decider thread, the node's power hardware.
struct DaemonEffects<'a> {
    me: NodeId,
    socket: &'a dyn DatagramSocket,
    /// Node-id-indexed peer addresses; requests resolve `dst` here.
    addrs: &'a Mutex<Vec<SocketAddr>>,
    /// Where replies (grants, acks) go: the datagram source of the
    /// message being answered, whatever id the engine knows it by.
    reply_to: Option<SocketAddr>,
    hardware: Option<&'a mut Hardware>,
    /// The seq of a request sent during this step.
    awaiting: Option<u64>,
}

impl Effects for DaemonEffects<'_> {
    fn send(&mut self, dst: NodeId, msg: &PeerMsg, _carried: Power, _grant: bool) -> Delivery {
        let peer_addr = || lock_table(self.addrs, "addrs", self.me)[dst.index()];
        let target = match msg {
            PeerMsg::Request(req) => {
                // A dropped request still opens the wait window: the
                // requester cannot know its datagram died, so it blocks
                // out the timeout exactly as a lossy network would make it.
                self.awaiting = Some(req.seq);
                peer_addr()
            }
            _ => self.reply_to.unwrap_or_else(peer_addr),
        };
        match self
            .socket
            .send_to(&WireMsg::from_peer(msg, self.me).encode(), target)
        {
            Ok(SendStatus::Sent) => Delivery::Sent,
            Ok(SendStatus::Dropped) => Delivery::Dropped,
            Err(_) => Delivery::Failed,
        }
    }

    fn actuate(&mut self, cap: Power) {
        if let Some(hardware) = self.hardware.as_deref_mut() {
            hardware.set_cap(cap);
        }
    }

    /// The daemon keeps no conservation ledger of its own.
    fn power_lost(&mut self, _amount: Power) {}
}

/// Map a datagram source address to a cluster node id: a configured (or
/// since-learned) peer address resolves to its logical id, anything else
/// gets a stable synthetic id above the cluster range — so the engine's
/// NodeId-keyed escrow still deduplicates retransmits from v1 senders
/// that carry no identity of their own.
fn resolve_src(
    src: SocketAddr,
    me: NodeId,
    peer_addrs: &Mutex<Vec<SocketAddr>>,
    extern_ids: &mut HashMap<SocketAddr, NodeId>,
    next_extern: &mut u32,
) -> NodeId {
    {
        let table = lock_table(peer_addrs, "addrs", me);
        if let Some(j) = table.iter().position(|a| *a == src) {
            if j != me.index() {
                return NodeId::new(j as u32);
            }
        }
    }
    *extern_ids.entry(src).or_insert_with(|| {
        let id = NodeId::new(*next_extern);
        *next_extern += 1;
        id
    })
}

/// Start a daemon, binding a fresh socket to `cfg.listen`.
pub fn run_daemon(cfg: DaemonConfig) -> io::Result<DaemonHandle> {
    let socket = UdpSocket::bind(cfg.listen)?;
    run_daemon_with_socket(cfg, socket)
}

/// Start a daemon on a pre-bound socket (tests bind port 0 first so peers
/// can learn each other's real ports before launch).
pub fn run_daemon_with_socket(cfg: DaemonConfig, socket: UdpSocket) -> io::Result<DaemonHandle> {
    run_daemon_with_shim(cfg, Arc::new(socket))
}

/// Start a daemon on any [`DatagramSocket`] — a plain [`UdpSocket`] or a
/// `penelope_net::FaultySocket` injecting deterministic loss under the
/// live daemon. Both daemon threads share the one shim.
pub fn run_daemon_with_shim(
    cfg: DaemonConfig,
    socket: Arc<dyn DatagramSocket>,
) -> io::Result<DaemonHandle> {
    let local_addr = socket.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    // Grants are forwarded with their source address so the decider can
    // ack the granter.
    #[allow(clippy::type_complexity)]
    let (grant_tx, grant_rx): (
        Sender<(WireMsg, SocketAddr)>,
        Receiver<(WireMsg, SocketAddr)>,
    ) = channel();
    let (status_tx, status_rx) = channel();

    // Built-in counters always run; any configured observer fans in next
    // to them.
    let counters = Arc::new(CounterObserver::new());
    let obs = FanoutObserver::pair(
        cfg.observer.clone(),
        SharedObserver::from(Arc::clone(&counters)),
    );
    let me = NodeId::new(cfg.node_id);
    let cluster_size = cfg.peers.len() + 1;
    let period_ns = cfg.node.decider.period.as_nanos().max(1);
    // One wall-clock origin for both threads, so event timestamps from the
    // serve path and the decider path share a time base.
    let origin = Instant::now();
    let stamp = move |at: SimTime, kind: EventKind| TraceEvent {
        at,
        node: me,
        period: at.as_nanos() / period_ns,
        kind,
    };

    // The complete node automaton — decider, pool, escrow, suspicion —
    // shared by both threads behind one lock.
    let engine = Arc::new(Mutex::new(NodeEngine::new(
        me,
        cluster_size,
        EngineConfig::new(cfg.node)
            .with_discovery(cfg.discovery)
            .with_seq_floor(cfg.initial_seq),
        cfg.initial_cap,
        obs.clone(),
    )));

    // Logical-id-indexed peer address table: slot `j` holds the last
    // known address of node `j` (our own slot holds `local_addr`, never
    // dialled). Config peers fill the table in global order; a v2 request
    // carrying a peer's id refreshes its slot, which is how a rebound
    // peer's new port propagates to our outgoing requests.
    let peer_addrs = {
        let mut table = vec![local_addr; cluster_size];
        for (k, addr) in cfg.peers.iter().enumerate() {
            let j = if k >= me.index() { k + 1 } else { k };
            if j < cluster_size {
                table[j] = *addr;
            }
        }
        Arc::new(Mutex::new(table))
    };

    // --- Network thread: serves peer requests, forwards grants. ---------
    let net_socket = Arc::clone(&socket);
    net_socket.set_read_timeout(Some(Duration::from_millis(10)))?;
    let net_stop = Arc::clone(&shutdown);
    let net_engine = Arc::clone(&engine);
    let net_addrs = Arc::clone(&peer_addrs);
    let net_thread = thread::spawn(move || {
        let mut buf = [0u8; MAX_WIRE_LEN + 16];
        let mut extern_ids: HashMap<SocketAddr, NodeId> = HashMap::new();
        let mut next_extern = cluster_size as u32;
        let mut outputs: Vec<EngineOutput> = Vec::new();
        // The serve path never draws randomness; this stream exists only
        // to satisfy `step`'s signature.
        let mut rng = TestRng::seed_from_u64(0);
        // Every reply goes back to the datagram source of what it answers.
        let fx = |reply_to| DaemonEffects {
            me,
            socket: &*net_socket,
            addrs: &net_addrs,
            reply_to,
            hardware: None,
            awaiting: None,
        };
        while !net_stop.load(Ordering::Relaxed) {
            let sweep_now =
                SimTime::from_nanos(origin.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            // Bulk escrow expiry each wake, instead of per-entry timers:
            // an entry whose deadline passes is *forgotten without
            // credit* — the grant may have been applied with only its ack
            // lost, and re-crediting the pool then would mint power. (The
            // engine credits back only known-undelivered entries, which a
            // UDP sender essentially never has.)
            lock_table(&net_engine, "engine", me).step(
                sweep_now,
                EngineInput::SweepEscrow,
                &mut rng,
                &mut outputs,
                &mut fx(None),
            );
            let (len, src) = match net_socket.recv_from(&mut buf) {
                Ok(x) => x,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(_) => continue,
            };
            let now = SimTime::from_nanos(origin.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            match WireMsg::decode(&buf[..len]) {
                Ok(WireMsg::Request {
                    seq,
                    urgent,
                    alpha,
                    from,
                    bid,
                }) => {
                    let src_id = match from {
                        Some(id) => {
                            // A v2 request names its sender; refresh the
                            // address table so replies *and* our own
                            // outgoing requests follow a rebound peer to
                            // its new port.
                            if id != me && id.index() < cluster_size {
                                lock_table(&net_addrs, "addrs", me)[id.index()] = src;
                            }
                            id
                        }
                        None => resolve_src(src, me, &net_addrs, &mut extern_ids, &mut next_extern),
                    };
                    lock_table(&net_engine, "engine", me).step(
                        now,
                        EngineInput::Msg {
                            src: src_id,
                            msg: PeerMsg::Request(PowerRequest {
                                from: src_id,
                                urgent,
                                alpha,
                                bid,
                                seq,
                            }),
                        },
                        &mut rng,
                        &mut outputs,
                        &mut fx(Some(src)),
                    );
                }
                Ok(grant @ WireMsg::Grant { .. }) => {
                    let _ = grant_tx.send((grant, src));
                }
                Ok(WireMsg::Ack { seq, digest }) => {
                    // The transfer committed on the requester; release the
                    // escrow entry. The entry is keyed by node id, so an
                    // ack from a rebound (or simply different) source port
                    // of the same node still lands. Duplicate acks are
                    // harmless.
                    let src_id =
                        resolve_src(src, me, &net_addrs, &mut extern_ids, &mut next_extern);
                    lock_table(&net_engine, "engine", me).step(
                        now,
                        EngineInput::Msg {
                            src: src_id,
                            msg: PeerMsg::Ack(GrantAck { seq }, digest),
                        },
                        &mut rng,
                        &mut outputs,
                        &mut fx(Some(src)),
                    );
                }
                Err(_) => { /* garbage datagram: drop */ }
            }
        }
    });

    // --- Decider thread: the Algorithm 1 loop. ---------------------------
    let mut hardware = build_hardware(&cfg)?;
    let decider_socket = socket;
    let decider_stop = Arc::clone(&shutdown);
    let period = Duration::from_nanos(cfg.node.decider.period.as_nanos());
    let timeout = Duration::from_nanos(cfg.node.decider.response_timeout.as_nanos());
    let status_every = cfg.status_every;
    let decider_obs = obs.clone();
    let decider_engine = Arc::clone(&engine);
    let decider_addrs = Arc::clone(&peer_addrs);
    let decider_thread = thread::spawn(move || {
        let mut rng = TestRng::seed_from_u64(local_addr.port() as u64 ^ 0xDAE0_0DAE);
        let mut outputs: Vec<EngineOutput> = Vec::new();
        let mut iterations = 0u64;
        hardware.set_cap(lock_table(&decider_engine, "engine", me).cap());
        while !decider_stop.load(Ordering::Relaxed) {
            let iter_start = Instant::now();
            iterations += 1;
            let now = SimTime::from_nanos(origin.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            let reading = hardware.read_power();
            let mut fx = DaemonEffects {
                me,
                socket: &*decider_socket,
                addrs: &decider_addrs,
                reply_to: None,
                hardware: Some(&mut hardware),
                awaiting: None,
            };
            lock_table(&decider_engine, "engine", me).step(
                now,
                EngineInput::Tick { reading },
                &mut rng,
                &mut outputs,
                &mut fx,
            );
            let await_seq = fx.awaiting;
            if let Some(seq) = await_seq {
                // Block for the grant, as the paper's decider does.
                let deadline = Instant::now() + timeout;
                loop {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        break;
                    }
                    match grant_rx.recv_timeout(remaining) {
                        Ok((
                            WireMsg::Grant {
                                seq: gseq,
                                amount,
                                digest,
                            },
                            gsrc,
                        )) => {
                            let now2 = SimTime::from_nanos(
                                origin.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                            );
                            // Identify the granter by address so gossip
                            // and liveness land under the right peer id; a
                            // grant from an unknown address still pays
                            // out.
                            let gid = {
                                let table = lock_table(&decider_addrs, "addrs", me);
                                table
                                    .iter()
                                    .position(|a| *a == gsrc)
                                    .filter(|j| *j != me.index())
                                    .map(|j| NodeId::new(j as u32))
                                    .unwrap_or(NodeId::new(u32::MAX))
                            };
                            decider_obs.emit(|| {
                                stamp(
                                    now2,
                                    EventKind::MsgRecv {
                                        src: gid,
                                        carried: amount,
                                    },
                                )
                            });
                            // The engine actuates the new cap and sends
                            // the commit ack straight back to the
                            // granter's source address, so it releases
                            // the grant's escrow entry. A dropped ack
                            // conserves power (the amount already landed
                            // in our cap; the granter's entry simply
                            // expires without credit).
                            lock_table(&decider_engine, "engine", me).step(
                                now2,
                                EngineInput::Msg {
                                    src: gid,
                                    msg: PeerMsg::Grant(PowerGrant { amount, seq: gseq }, digest),
                                },
                                &mut rng,
                                &mut outputs,
                                &mut DaemonEffects {
                                    me,
                                    socket: &*decider_socket,
                                    addrs: &decider_addrs,
                                    reply_to: Some(gsrc),
                                    hardware: Some(&mut hardware),
                                    awaiting: None,
                                },
                            );
                            if gseq == seq {
                                break;
                            }
                            // A stale grant (from a timed-out request):
                            // applied above, keep waiting for ours.
                        }
                        Ok(_) => {}
                        Err(_) => break, // timeout: decider will retry next period
                    }
                }
            }
            if status_every > 0 && iterations.is_multiple_of(status_every) {
                // One lock guard for all fields: the sample is an atomic
                // per-node cut, so its lifetime counters always balance
                // even while the net thread is granting.
                let (cap, pool, pool_deposited, pool_granted, pool_drained) = {
                    let eng = lock_table(&decider_engine, "engine", me);
                    let p = eng.pool();
                    (
                        eng.cap(),
                        p.available(),
                        p.total_deposited(),
                        p.total_granted() + p.total_taken_local(),
                        p.total_drained(),
                    )
                };
                let _ = status_tx.send(DaemonStatus {
                    iteration: iterations,
                    uptime_secs: origin.elapsed().as_secs_f64(),
                    cap,
                    reading,
                    pool,
                    pool_deposited,
                    pool_granted,
                    pool_drained,
                });
            }
            thread::sleep(period.saturating_sub(iter_start.elapsed()));
        }
        iterations
    });

    Ok(DaemonHandle {
        shutdown,
        decider_thread,
        net_thread,
        engine,
        counters,
        node: me,
        status_rx,
        local_addr,
    })
}
