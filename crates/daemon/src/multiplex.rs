//! The multiplexed daemon runtime: thousands of [`NodeEngine`]s in one
//! process behind a shared UDP socket pair.
//!
//! The two-thread daemon in [`crate::daemon`] spends a socket, two
//! threads and a mutex per node — fine for a handful of real hosts,
//! hopeless for a single-host soak of the protocol at cluster scale. This
//! module keeps the part that matters (every protocol message crosses the
//! kernel's UDP stack inside a real datagram) and multiplexes everything
//! else: one reactor thread owns every engine outright (no locks), all
//! traffic flows from one shared `tx` socket to one shared `rx` socket,
//! and a small frame header carries the logical addressing the shared
//! sockets no longer can. Several frames share one datagram:
//!
//! ```text
//! datagram: frame frame frame …                     (≤ BATCH_CAP bytes)
//! frame:    [len: u8][dst: u32 LE][src: u32 LE][WireMsg bytes]
//!           len = bytes after the length byte (8 + WireMsg length)
//! ```
//!
//! Frames are appended to one reusable tx batch, and the batch goes to
//! the kernel as one datagram at two flush points: when a drain needs the
//! wire (before every receive, so the global FIFO order is the local rx
//! cursor, then the kernel queue, then the pending batch), and when the
//! next frame could cross `BATCH_CAP` (16 KiB). The receiver keeps a
//! cursor into the last datagram it received and dispatches its frames
//! one at a time, each to the engine named by `dst`, exactly as the
//! per-node daemon's net thread dispatches by socket. Grants are handled asynchronously — a
//! requester's engine is never blocked waiting; the grant arrives as a
//! normal [`EngineInput::Msg`] in a later pump of the same round — which
//! is what lets one thread sustain 10⁴ nodes.
//!
//! Time is hybrid: the protocol clock is virtual (round `p` runs at
//! `p × period`, so escrow deadlines and request timeouts behave exactly
//! as on the lockstep runtime), while grant round-trip *latency* is
//! measured on the wall clock from the moment a request frame is queued
//! to the moment the engine reports the round-trip
//! [`EngineOutput::Resolved`] — the tail-latency distribution the soak
//! harness reports.
//!
//! Loss injection is decided per frame, not per datagram: each frame's
//! fate (drop, delay, duplicate) is drawn when it is queued, from
//! `DirectionPlan::new(fault, 0)` — the same stream, in the same draw
//! order, that a `penelope_net::FaultySocket` gives the first peer it
//! registers (see [`MuxConfig::fault`]). An injected drop feeds the same
//! `delivered = false` escrow path as the per-node daemon; a delayed copy
//! is parked until its due instant and joins the first batch flushed
//! after it. The kernel can also drop on receive-buffer overflow; the
//! reactor prevents that by capping in-flight frames and draining between
//! send batches, and counts anything that still vanishes as `wire_lost`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use penelope_core::{
    Delivery, Effects, EngineConfig, EngineInput, EngineOutput, GrantAck, NodeEngine, NodeParams,
    PeerMsg, PowerGrant, PowerRequest,
};
use penelope_net::shim::{DirectionPlan, FaultConfig};
use penelope_testkit::rng::{node_stream, TestRng};
use penelope_trace::SharedObserver;
use penelope_units::{NodeId, Power, SimDuration, SimTime};

use crate::wire::{WireMsg, MAX_WIRE_LEN};

/// Frame addressing: destination node id then source node id, both
/// `u32` LE.
const FRAME_ADDR: usize = 8;

/// Longest frame: the length byte, the addressing and the largest wire
/// message.
const MAX_FRAME: usize = 1 + FRAME_ADDR + MAX_WIRE_LEN;

// A frame's length byte must be able to describe every frame.
const _: () = assert!(MAX_FRAME - 1 <= u8::MAX as usize);

/// Byte cap on one batch datagram. The tx batch is flushed before the
/// next frame could cross it, and the receive buffer has the same size,
/// so no batch is ever truncated on arrival.
const BATCH_CAP: usize = 16 * 1024;

/// In-flight frames above this trigger a drain before further sends —
/// comfortably below what the kernel's default receive buffer holds, so
/// the reactor itself never overflows it.
const DRAIN_HIGH: usize = 192;

/// Drains triggered by [`DRAIN_HIGH`] pull the backlog down to here.
const DRAIN_LOW: usize = 64;

/// Consecutive empty receive timeouts before outstanding frames are
/// written off as lost on the wire (kernel drop despite the
/// backpressure). Timeouts while a delayed copy is still parked do not
/// count: that frame has not reached the wire yet.
const DRAIN_PATIENCE: u32 = 10;

/// Configuration for a multiplexed cluster.
#[derive(Clone, Debug)]
pub struct MuxConfig {
    /// Number of node engines to host.
    pub nodes: usize,
    /// Master seed; node `i` draws from `node_stream(seed, i)`.
    pub seed: u64,
    /// Per-node protocol knobs, shared verbatim with every substrate.
    pub node: NodeParams,
    /// Every node's initial cap (the urgency threshold).
    pub initial_cap: Power,
    /// Per-node steady power demand, cycled when shorter than `nodes`.
    /// A node's reading each round is `min(demand, cap)`.
    pub demands: Vec<Power>,
    /// Decision rounds to run.
    pub rounds: u64,
    /// Optional deterministic fault plane: every frame's fate is drawn
    /// from `DirectionPlan::new(fault, 0)` as it is queued. `None` =
    /// lossless.
    pub fault: Option<FaultConfig>,
}

impl MuxConfig {
    /// The soak-harness preset: 20 ms periods, 160 W caps in an
    /// 80–300 W safe range, alternating hungry (250 W) and donor
    /// (100 W) nodes — the same shape as the real-daemon demo cluster,
    /// scaled out.
    pub fn soak(nodes: usize, seed: u64, rounds: u64) -> Self {
        let period = SimDuration::from_millis(20);
        MuxConfig {
            nodes,
            seed,
            node: NodeParams {
                decider: penelope_core::DeciderConfig {
                    period,
                    response_timeout: period,
                    ..Default::default()
                },
                safe_range: penelope_units::PowerRange::from_watts(80, 300),
                ..NodeParams::default()
            },
            initial_cap: Power::from_watts_u64(160),
            demands: vec![Power::from_watts_u64(250), Power::from_watts_u64(100)],
            rounds,
            fault: None,
        }
    }
}

/// Grant round-trip latency distribution, in wall-clock nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GrantRttStats {
    /// Completed request→grant round trips measured.
    pub samples: u64,
    /// Median round trip.
    pub p50_ns: u64,
    /// 99th-percentile round trip.
    pub p99_ns: u64,
    /// 99.9th-percentile round trip.
    pub p999_ns: u64,
}

/// Final accounting for a multiplexed run.
#[derive(Clone, Debug)]
pub struct MuxSummary {
    /// Engines hosted.
    pub nodes: usize,
    /// Rounds executed.
    pub rounds: u64,
    /// Frames queued for the wire (originals; the extra copies the fault
    /// plane injects are counted in [`duplicated`](Self::duplicated)).
    pub frames_sent: u64,
    /// Frames received and dispatched to an engine (every copy).
    pub frames_delivered: u64,
    /// Frames the fault plane dropped before the kernel saw them.
    pub injected_drops: u64,
    /// Extra frame copies the fault plane injected.
    pub duplicated: u64,
    /// Batch datagrams handed to the kernel; `frames_sent / datagrams_sent`
    /// is the batching factor.
    pub datagrams_sent: u64,
    /// Frames sent but never delivered: kernel receive-buffer overflow
    /// under extreme pressure, or a batch whose send failed. Zero in a
    /// healthy run.
    pub wire_lost: u64,
    /// Frames in batches the OS refused to send (distinct from injected
    /// drops; also counted in `wire_lost`).
    pub send_failed: u64,
    /// Engine inputs processed (ticks, messages, outcomes, sweeps) — the
    /// throughput numerator for the BENCH report.
    pub events: u64,
    /// Sum of final caps.
    pub total_caps: Power,
    /// Sum of final pool balances.
    pub total_pools: Power,
    /// Power still escrowed as known-undelivered (carries accounting
    /// weight on the granter until its deadline sweep).
    pub total_escrowed: Power,
    /// Power booked as lost (stale-grant discards; zero without churn).
    pub lost: Power,
    /// The cluster budget: `nodes × initial_cap`.
    pub budget: Power,
    /// Wall seconds for the whole run.
    pub wall_s: f64,
    /// Virtual seconds simulated (`rounds × period`).
    pub virtual_secs: f64,
    /// Raw grant round-trip samples, wall-clock nanoseconds, unsorted.
    pub rtt_samples_ns: Vec<u64>,
}

impl MuxSummary {
    /// All power the run can still account for: caps + pools +
    /// undelivered escrow + booked losses. Never exceeds [`budget`]
    /// (`Self::budget`); equals it exactly when `wire_lost == 0`.
    pub fn accounted_total(&self) -> Power {
        self.total_caps + self.total_pools + self.total_escrowed + self.lost
    }

    /// The tail-latency distribution, or `None` when no round trip
    /// completed.
    pub fn grant_rtt(&self) -> Option<GrantRttStats> {
        if self.rtt_samples_ns.is_empty() {
            return None;
        }
        let mut sorted = self.rtt_samples_ns.clone();
        sorted.sort_unstable();
        Some(GrantRttStats {
            samples: sorted.len() as u64,
            p50_ns: percentile_ns(&sorted, 0.50),
            p99_ns: percentile_ns(&sorted, 0.99),
            p999_ns: percentile_ns(&sorted, 0.999),
        })
    }
}

/// Nearest-rank percentile over an ascending-sorted sample vector.
fn percentile_ns(sorted: &[u64], q: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Append one frame to `buf`: length byte, addressing, wire message.
fn push_frame(buf: &mut Vec<u8>, dst: NodeId, src: NodeId, msg: &WireMsg) {
    let at = buf.len();
    buf.push(0);
    buf.extend_from_slice(&dst.raw().to_le_bytes());
    buf.extend_from_slice(&src.raw().to_le_bytes());
    msg.encode_into(buf);
    // Fits: `MAX_FRAME - 1 <= u8::MAX` is checked at compile time.
    buf[at] = (buf.len() - at - 1) as u8;
}

/// Decode a frame's addressing + body; `None` for runts or garbage bodies.
fn deframe(buf: &[u8]) -> Option<(NodeId, NodeId, WireMsg)> {
    if buf.len() < FRAME_ADDR {
        return None;
    }
    let dst = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    let src = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let msg = WireMsg::decode(&buf[FRAME_ADDR..]).ok()?;
    Some((NodeId::new(dst), NodeId::new(src), msg))
}

/// Take the next well-formed frame from a received datagram, advancing
/// `pos` past it. A frame whose body does not decode is skipped. A length
/// byte that cannot be right — too short for the addressing, longer than
/// any frame, or running past the datagram — ends the datagram, because
/// nothing after it can be framed.
fn next_frame(buf: &[u8], pos: &mut usize) -> Option<(NodeId, NodeId, WireMsg)> {
    while let Some(&len) = buf.get(*pos) {
        let len = usize::from(len);
        let start = *pos + 1;
        let body = match buf.get(start..start + len) {
            Some(body) if (FRAME_ADDR..MAX_FRAME).contains(&len) => body,
            _ => {
                *pos = buf.len();
                return None;
            }
        };
        *pos = start + len;
        if let Some(frame) = deframe(body) {
            return Some(frame);
        }
    }
    None
}

/// The reactor state: every engine and the [`Host`] they act on. One
/// instance per run, owned by the calling thread.
struct Mux {
    engines: Vec<NodeEngine>,
    rngs: Vec<TestRng>,
    demands: Vec<Power>,
    /// Reusable engine-output buffer, lent to every engine step.
    scratch: Vec<EngineOutput>,
    events: u64,
    host: Host,
}

/// Everything the engines' effects reach: both shared sockets, the tx
/// batch, the rx cursor, the per-node caps and the run's counters.
struct Host {
    /// Last actuated cap per node — the reading model is
    /// `min(demand, cap)`.
    caps: Vec<Power>,
    tx: UdpSocket,
    tx_addr: SocketAddr,
    rx: UdpSocket,
    rx_addr: SocketAddr,
    /// Per-frame fault fates; `None` when the run is lossless.
    fates: Option<DirectionPlan>,
    /// Frames queued for the next datagram, back to back.
    batch: Vec<u8>,
    batch_frames: usize,
    /// Delayed copies waiting for their due instant: (due, enqueue order,
    /// encoded frame), earliest first.
    parked: BinaryHeap<Reverse<(Instant, u64, Vec<u8>)>>,
    parked_stamp: u64,
    /// The last datagram received; frames before `rx_pos` are dispatched.
    rx_buf: Box<[u8]>,
    rx_len: usize,
    rx_pos: usize,
    /// Frames queued, parked, in the kernel or under the rx cursor, and
    /// not yet dispatched — every copy counts.
    outstanding: usize,
    /// Wall-clock send stamp per open request, keyed (requester, seq).
    pending_rtt: HashMap<(u32, u64), Instant>,
    frames_sent: u64,
    frames_delivered: u64,
    injected_drops: u64,
    duplicated: u64,
    datagrams_sent: u64,
    wire_lost: u64,
    send_failed: u64,
    lost: Power,
    rtt_samples_ns: Vec<u64>,
}

impl Host {
    /// Draw one frame's fate and queue it (and any duplicate copy) for
    /// the shared socket. Returns whether it will reach the wire: `false`
    /// only for an injected drop, so the answer is exact at once.
    fn send_frame(&mut self, dst: NodeId, src: NodeId, msg: &WireMsg) -> bool {
        let (delay_ns, dup_delay_ns) = match self.fates.as_mut().map(DirectionPlan::next_fate) {
            None => (0, None),
            Some(fate) if fate.drop => {
                self.injected_drops += 1;
                return false;
            }
            Some(fate) => (fate.delay_ns, fate.dup_delay_ns),
        };
        self.frames_sent += 1;
        self.enqueue(dst, src, msg, delay_ns);
        if let Some(delay_ns) = dup_delay_ns {
            self.duplicated += 1;
            self.enqueue(dst, src, msg, delay_ns);
        }
        true
    }

    /// Append one copy to the tx batch, or park it for `delay_ns`.
    fn enqueue(&mut self, dst: NodeId, src: NodeId, msg: &WireMsg, delay_ns: u64) {
        self.outstanding += 1;
        if delay_ns == 0 {
            self.make_room();
            push_frame(&mut self.batch, dst, src, msg);
            self.batch_frames += 1;
        } else {
            let mut frame = Vec::with_capacity(MAX_FRAME);
            push_frame(&mut frame, dst, src, msg);
            let due = Instant::now() + Duration::from_nanos(delay_ns);
            self.parked_stamp += 1;
            self.parked.push(Reverse((due, self.parked_stamp, frame)));
        }
    }

    /// Send the batch first if one more frame could cross [`BATCH_CAP`].
    fn make_room(&mut self) {
        if self.batch.len() + MAX_FRAME > BATCH_CAP {
            self.send_batch();
        }
    }

    /// Move every parked copy that is now due into the batch, then send
    /// the batch.
    fn flush(&mut self) {
        if !self.parked.is_empty() {
            let now = Instant::now();
            while self.parked.peek().is_some_and(|Reverse(p)| p.0 <= now) {
                let Reverse((_, _, frame)) = self.parked.pop().expect("peeked");
                self.make_room();
                self.batch.extend_from_slice(&frame);
                self.batch_frames += 1;
            }
        }
        self.send_batch();
    }

    /// Hand the batch to the kernel as one datagram. Its frames were
    /// already reported sent, so a refused send books them as lost on the
    /// wire — conservation then holds as `≤ budget`, never by minting.
    fn send_batch(&mut self) {
        if self.batch_frames == 0 {
            return;
        }
        match self.tx.send_to(&self.batch, self.rx_addr) {
            Ok(_) => self.datagrams_sent += 1,
            Err(_) => {
                let n = self.batch_frames;
                self.send_failed += n as u64;
                self.wire_lost += n as u64;
                self.outstanding -= n;
            }
        }
        self.batch.clear();
        self.batch_frames = 0;
    }
}

/// One engine's side of a reactor step: frames onto the shared wire,
/// caps into the reading model, round trips into the RTT ledger.
struct MuxEffects<'a> {
    me: NodeId,
    host: &'a mut Host,
}

impl Effects for MuxEffects<'_> {
    fn send(&mut self, dst: NodeId, msg: &PeerMsg, _carried: Power, _grant: bool) -> Delivery {
        if let PeerMsg::Request(req) = msg {
            // Stamp at queue time so the sample covers the batch wait and
            // the full kernel round trip. A dropped request still opens
            // the engine's wait window — its stamp dies unresolved,
            // exactly like the timeout it causes.
            self.host
                .pending_rtt
                .insert((self.me.raw(), req.seq), Instant::now());
        }
        let wire = WireMsg::from_peer(msg, self.me);
        if self.host.send_frame(dst, self.me, &wire) {
            Delivery::Sent
        } else {
            Delivery::Dropped
        }
    }

    fn actuate(&mut self, cap: Power) {
        self.host.caps[self.me.index()] = cap;
    }

    fn power_lost(&mut self, amount: Power) {
        self.host.lost += amount;
    }

    // Escrow is swept in bulk each round: per-entry timers are never armed.

    fn resolved(&mut self, seq: u64, _amount: Power) {
        if let Some(t0) = self.host.pending_rtt.remove(&(self.me.raw(), seq)) {
            let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.host.rtt_samples_ns.push(ns);
        }
    }
}

impl Mux {
    fn new(cfg: &MuxConfig) -> io::Result<Self> {
        let rx = UdpSocket::bind("127.0.0.1:0")?;
        rx.set_read_timeout(Some(Duration::from_millis(3)))?;
        let rx_addr = rx.local_addr()?;
        let tx = UdpSocket::bind("127.0.0.1:0")?;
        let tx_addr = tx.local_addr()?;
        let engines = (0..cfg.nodes)
            .map(|i| {
                NodeEngine::new(
                    NodeId::new(i as u32),
                    cfg.nodes,
                    EngineConfig::new(cfg.node),
                    cfg.initial_cap,
                    SharedObserver::noop(),
                )
            })
            .collect();
        let rngs = (0..cfg.nodes)
            .map(|i| TestRng::seed_from_u64(node_stream(cfg.seed, i as u64)))
            .collect();
        let host = Host {
            caps: vec![cfg.initial_cap; cfg.nodes],
            tx,
            tx_addr,
            rx,
            rx_addr,
            // The shared inbox is the only destination: direction slot 0.
            fates: cfg.fault.as_ref().map(|f| DirectionPlan::new(f, 0)),
            batch: Vec::with_capacity(BATCH_CAP),
            batch_frames: 0,
            parked: BinaryHeap::new(),
            parked_stamp: 0,
            rx_buf: vec![0; BATCH_CAP].into_boxed_slice(),
            rx_len: 0,
            rx_pos: 0,
            outstanding: 0,
            pending_rtt: HashMap::new(),
            frames_sent: 0,
            frames_delivered: 0,
            injected_drops: 0,
            duplicated: 0,
            datagrams_sent: 0,
            wire_lost: 0,
            send_failed: 0,
            lost: Power::ZERO,
            rtt_samples_ns: Vec::new(),
        };
        Ok(Mux {
            engines,
            rngs,
            demands: (0..cfg.nodes)
                .map(|i| cfg.demands[i % cfg.demands.len()])
                .collect(),
            scratch: Vec::new(),
            events: 0,
            host,
        })
    }

    /// Feed one input to engine `i` and execute every resulting output
    /// through [`MuxEffects`] — sends queued inline, so a grant's delivery
    /// feedback is synchronous, as the engine contract requires.
    fn drive(&mut self, i: usize, now: SimTime, input: EngineInput) {
        self.events += 1;
        let mut fx = MuxEffects {
            me: NodeId::new(i as u32),
            host: &mut self.host,
        };
        self.engines[i].step(now, input, &mut self.rngs[i], &mut self.scratch, &mut fx);
    }

    /// Dispatch one received frame to its destination engine.
    fn dispatch(&mut self, dst: NodeId, src: NodeId, msg: WireMsg, now: SimTime) {
        self.host.frames_delivered += 1;
        let peer_msg = match msg {
            WireMsg::Request {
                seq,
                urgent,
                alpha,
                from,
                bid,
            } => PeerMsg::Request(PowerRequest {
                from: from.unwrap_or(src),
                urgent,
                alpha,
                bid,
                seq,
            }),
            WireMsg::Grant {
                seq,
                amount,
                digest,
            } => PeerMsg::Grant(PowerGrant { amount, seq }, digest),
            WireMsg::Ack { seq, digest } => PeerMsg::Ack(GrantAck { seq }, digest),
        };
        self.drive(dst.index(), now, EngineInput::Msg { src, msg: peer_msg });
    }

    /// Receive and dispatch until at most `low` frames remain in flight
    /// (dispatching may send more — grant and ack cascades — so the
    /// target is a backlog level, not a message count). Frames come off
    /// the rx cursor one at a time; when it is spent, the pending batch is
    /// flushed and the next datagram received. Gives up after
    /// [`DRAIN_PATIENCE`] consecutive empty timeouts and writes the
    /// remainder off as lost on the wire.
    fn drain_to(&mut self, low: usize, now: SimTime) {
        let mut empty_reads = 0u32;
        while self.host.outstanding > low {
            if let Some((dst, src, msg)) =
                next_frame(&self.host.rx_buf[..self.host.rx_len], &mut self.host.rx_pos)
            {
                // A frame for no hosted engine stays outstanding, so it
                // is eventually booked as lost rather than delivered.
                if dst.index() < self.engines.len() {
                    self.host.outstanding -= 1;
                    self.dispatch(dst, src, msg, now);
                }
                continue;
            }
            self.host.flush();
            self.host.rx_pos = 0;
            self.host.rx_len = 0;
            match self.host.rx.recv_from(&mut self.host.rx_buf) {
                // Only the shared tx socket speaks to this inbox; a
                // stranger's datagram is ignored whole.
                Ok((len, from)) if from == self.host.tx_addr => {
                    empty_reads = 0;
                    self.host.rx_len = len;
                }
                Ok(_) => {}
                Err(_) => {
                    if self.host.parked.is_empty() {
                        empty_reads += 1;
                    }
                    if empty_reads >= DRAIN_PATIENCE {
                        self.host.wire_lost += self.host.outstanding as u64;
                        self.host.outstanding = 0;
                        return;
                    }
                }
            }
        }
    }
}

/// Run a multiplexed cluster to completion on the calling thread.
///
/// Every round: sweep escrow deadlines, tick every engine (chunked, with
/// drains between chunks so the kernel's receive buffer never overflows),
/// then pump the socket pair until the request→grant→ack cascade
/// quiesces. Grants are *not* awaited per node — they dispatch
/// asynchronously as frames arrive, which is what lets one reactor
/// sustain thousands of engines.
pub fn run_multiplexed(cfg: &MuxConfig) -> io::Result<MuxSummary> {
    assert!(cfg.nodes >= 2, "a cluster needs at least two nodes");
    assert!(!cfg.demands.is_empty(), "demands must not be empty");
    let mut mux = Mux::new(cfg)?;
    let period = cfg.node.decider.period;
    let start = Instant::now();
    for p in 0..cfg.rounds {
        let now = SimTime::ZERO + period * (p + 1);
        for i in 0..cfg.nodes {
            // Bulk escrow expiry, as the per-node daemon's net thread
            // does each wake — per-entry timers are never armed.
            if mux.engines[i].escrow_len() > 0 {
                mux.drive(i, now, EngineInput::SweepEscrow);
            }
            let reading = mux.demands[i].min(mux.host.caps[i]);
            mux.drive(i, now, EngineInput::Tick { reading });
            if mux.host.outstanding >= DRAIN_HIGH {
                mux.drain_to(DRAIN_LOW, now);
            }
        }
        // Quiesce the round: every in-flight frame dispatched, including
        // the grants and acks that dispatching itself produces.
        mux.drain_to(0, now);
    }
    let total_caps = mux.host.caps.iter().copied().sum();
    let total_pools = mux.engines.iter().map(|e| e.pool().available()).sum();
    let total_escrowed = mux.engines.iter().map(|e| e.escrowed_undelivered()).sum();
    Ok(MuxSummary {
        nodes: cfg.nodes,
        rounds: cfg.rounds,
        frames_sent: mux.host.frames_sent,
        frames_delivered: mux.host.frames_delivered,
        injected_drops: mux.host.injected_drops,
        duplicated: mux.host.duplicated,
        datagrams_sent: mux.host.datagrams_sent,
        wire_lost: mux.host.wire_lost,
        send_failed: mux.host.send_failed,
        events: mux.events,
        total_caps,
        total_pools,
        total_escrowed,
        lost: mux.host.lost,
        budget: mul_power(cfg.initial_cap, cfg.nodes as u64),
        wall_s: start.elapsed().as_secs_f64(),
        virtual_secs: SimDuration::from_nanos(period.as_nanos() * cfg.rounds).as_secs_f64(),
        rtt_samples_ns: mux.host.rtt_samples_ns,
    })
}

/// `Power` multiplication by a scalar (no `Mul<u64>` impl upstream).
fn mul_power(p: Power, n: u64) -> Power {
    Power::from_milliwatts(p.milliwatts() * n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn request(seq: u64) -> WireMsg {
        WireMsg::Request {
            seq,
            urgent: true,
            alpha: w(30),
            from: Some(NodeId::new(3)),
            bid: Power::ZERO,
        }
    }

    fn ack(seq: u64) -> WireMsg {
        WireMsg::Ack { seq, digest: None }
    }

    /// Every frame left in `buf`, in order.
    fn frames(buf: &[u8]) -> Vec<(NodeId, NodeId, WireMsg)> {
        let mut pos = 0;
        std::iter::from_fn(|| next_frame(buf, &mut pos)).collect()
    }

    #[test]
    fn frames_roundtrip_and_reject_runts() {
        let msg = request(7);
        let mut buf = Vec::new();
        push_frame(&mut buf, NodeId::new(9), NodeId::new(3), &msg);
        assert_eq!(usize::from(buf[0]), buf.len() - 1, "length byte");
        let (dst, src, back) = deframe(&buf[1..]).expect("frame decodes");
        assert_eq!(dst, NodeId::new(9));
        assert_eq!(src, NodeId::new(3));
        assert_eq!(back, msg);
        assert!(deframe(&buf[1..8]).is_none(), "runt header must not decode");
        assert!(
            deframe(&buf[1..FRAME_ADDR + 3]).is_none(),
            "truncated body must not decode"
        );
        // Several frames share a datagram and come back in order.
        push_frame(&mut buf, NodeId::new(1), NodeId::new(2), &ack(8));
        push_frame(&mut buf, NodeId::new(4), NodeId::new(5), &request(9));
        let got = frames(&buf);
        assert_eq!(got.len(), 3);
        assert_eq!(got[1], (NodeId::new(1), NodeId::new(2), ack(8)));
        assert_eq!(got[2], (NodeId::new(4), NodeId::new(5), request(9)));
    }

    /// Malformed batches never panic: the valid frames ahead of the bad
    /// bytes survive, and nothing after an untrustworthy length byte is
    /// framed.
    #[test]
    fn batch_parser_survives_malformed_datagrams() {
        let mut good = Vec::new();
        push_frame(&mut good, NodeId::new(1), NodeId::new(0), &ack(1));
        push_frame(&mut good, NodeId::new(2), NodeId::new(0), &ack(2));
        let mut next = Vec::new();
        push_frame(&mut next, NodeId::new(3), NodeId::new(0), &ack(3));
        let with = |tail: &[u8]| [good.as_slice(), tail].concat();
        let cases: [(&str, Vec<u8>); 5] = [
            ("lone length byte", with(&[next[0]])),
            (
                "length runs past the datagram",
                with(&next[..next.len() - 1]),
            ),
            ("zero length", with(&[&[0u8][..], &next].concat())),
            (
                "oversized length",
                with(&[&[u8::MAX][..], &[0u8; 300][..]].concat()),
            ),
            ("header-only frame", with(&[8, 1, 0, 0, 0, 0, 0, 0, 0])),
        ];
        for (what, buf) in cases {
            let got = frames(&buf);
            let seqs: Vec<u64> = got
                .iter()
                .map(|(_, _, m)| match m {
                    WireMsg::Ack { seq, .. } => *seq,
                    other => panic!("{what}: decoded {other:?}"),
                })
                .collect();
            assert_eq!(seqs, [1, 2], "{what}");
        }
        // A well-framed body that does not decode is skipped, not fatal.
        let mut garbage = good.clone();
        garbage.extend_from_slice(&[10, 1, 0, 0, 0, 0, 0, 0, 0, 0xEE, 0xEE]);
        garbage.extend_from_slice(&next);
        assert_eq!(frames(&garbage).len(), 3, "frame after garbage body");
        assert!(frames(&[]).is_empty());
    }

    /// The same cases end to end: only valid frames from the reactor's
    /// own tx socket are dispatched and counted, and a stranger's
    /// datagram — even a well-formed one — is ignored.
    #[test]
    fn reactor_dispatches_only_valid_frames() {
        let cfg = MuxConfig::soak(4, 0x50AC_0003, 1);
        let mut mux = Mux::new(&cfg).expect("mux builds");
        let stranger = UdpSocket::bind("127.0.0.1:0").expect("bind stranger");
        let mut valid = Vec::new();
        push_frame(&mut valid, NodeId::new(1), NodeId::new(0), &ack(1));
        push_frame(&mut valid, NodeId::new(2), NodeId::new(0), &ack(2));
        stranger
            .send_to(&valid, mux.host.rx_addr)
            .expect("stranger sends");
        let datagrams = [
            vec![valid[0]],                           // lone length byte
            [valid.as_slice(), &[40, 1, 2]].concat(), // runs past the end
            [valid.as_slice(), &[0]].concat(),        // zero length
            [valid.as_slice(), &[200; 210]].concat(), // oversized length
        ];
        for d in &datagrams {
            mux.host.tx.send_to(d, mux.host.rx_addr).expect("tx sends");
        }
        // Acks for unknown grants produce no replies, so exactly the
        // valid frames of the reactor's own datagrams are outstanding.
        mux.host.outstanding = 6;
        mux.drain_to(0, SimTime::ZERO);
        assert_eq!(mux.host.frames_delivered, 6);
        assert_eq!(mux.host.wire_lost, 0);
        assert_eq!(mux.events, 6);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&sorted, 0.50), 50);
        assert_eq!(percentile_ns(&sorted, 0.99), 99);
        assert_eq!(percentile_ns(&sorted, 0.999), 100);
        assert_eq!(percentile_ns(&[42], 0.50), 42);
        assert_eq!(percentile_ns(&[42], 0.999), 42);
    }

    #[test]
    fn mux_cluster_shifts_power_and_conserves() {
        let cfg = MuxConfig::soak(48, 0x50AC_0001, 12);
        let s = run_multiplexed(&cfg).expect("mux runs");
        assert_eq!(s.send_failed, 0, "loopback sends must not fail");
        assert_eq!(s.injected_drops, 0, "no fault plane installed");
        assert!(s.frames_delivered > 0, "no datagrams moved");
        // Power actually shifted: some hungry node rose above its share.
        assert!(
            s.total_caps != mul_power(w(160), 48) || s.total_pools > Power::ZERO,
            "no power moved anywhere"
        );
        let rtt = s.grant_rtt().expect("round trips completed");
        assert!(rtt.samples > 0);
        assert!(rtt.p50_ns <= rtt.p99_ns && rtt.p99_ns <= rtt.p999_ns);
        // Conservation: with nothing lost on the wire the account is
        // exact; kernel losses (rare, but possible under CI pressure)
        // only ever make it an undercount.
        if s.wire_lost == 0 {
            assert_eq!(s.accounted_total(), s.budget, "budget must balance");
        } else {
            assert!(s.accounted_total() <= s.budget, "power was minted");
        }
    }

    fn mw(x: u64) -> Power {
        Power::from_milliwatts(x)
    }

    #[test]
    fn lossy_mux_drops_real_frames_and_conserves() {
        let mut cfg = MuxConfig::soak(48, 0x50AC_0002, 12);
        cfg.fault = Some(FaultConfig::lossy(0xFA17_0001, 200));
        let s = run_multiplexed(&cfg).expect("lossy mux runs");
        // Golden, recorded with one datagram per frame before batching:
        // packing frames into shared datagrams must not move a single
        // fate draw, engine input or milliwatt.
        assert_eq!(
            (
                s.frames_sent,
                s.frames_delivered,
                s.injected_drops,
                s.events
            ),
            (462, 462, 127, 1115)
        );
        assert_eq!(
            (s.total_caps, s.total_pools, s.total_escrowed, s.lost),
            (mw(6_704_837), mw(948_116), mw(27_047), Power::ZERO)
        );
        assert_eq!(s.wire_lost, 0);
        assert!(
            s.injected_drops >= 1,
            "vacuous lossy run: the shim dropped nothing at 200‰"
        );
        assert!(s.frames_delivered > 0, "everything was dropped");
        // Injected drops are *known* to the sender: grants re-escrow as
        // undelivered and requests time out, so the account still
        // balances exactly (only kernel losses undercount).
        if s.wire_lost == 0 {
            assert_eq!(s.accounted_total(), s.budget, "loss broke conservation");
        } else {
            assert!(s.accounted_total() <= s.budget, "loss minted power");
        }
        // The protocol clock is virtual and the socket pair delivers
        // FIFO, so the whole lossy run — traffic, fault schedule and
        // final ledger — replays bit-identically per seed (only the
        // wall-clock RTT stamps may differ).
        let r = run_multiplexed(&cfg).expect("lossy mux reruns");
        assert_eq!(
            (
                r.frames_sent,
                r.frames_delivered,
                r.injected_drops,
                r.events
            ),
            (
                s.frames_sent,
                s.frames_delivered,
                s.injected_drops,
                s.events
            ),
            "same seed must replay the same traffic and drop schedule"
        );
        assert_eq!(
            (r.total_caps, r.total_pools, r.total_escrowed, r.lost),
            (s.total_caps, s.total_pools, s.total_escrowed, s.lost),
            "same seed must replay the same final ledger"
        );
    }

    #[test]
    fn mux_sustains_a_thousand_nodes() {
        // The scale floor from the soak acceptance criteria, kept cheap
        // for the unit suite: 1k engines, a few rounds, real datagrams.
        let cfg = MuxConfig::soak(1000, 0x50AC_1000, 3);
        let s = run_multiplexed(&cfg).expect("1k-node mux runs");
        assert_eq!(s.nodes, 1000);
        assert!(s.frames_delivered > 500, "traffic too thin for 1k nodes");
        assert!(s.grant_rtt().is_some(), "no round trips at 1k nodes");
        assert!(s.accounted_total() <= s.budget, "power was minted");
        // Golden, recorded with one datagram per frame before batching.
        assert_eq!(
            (
                s.frames_sent,
                s.frames_delivered,
                s.injected_drops,
                s.events
            ),
            (3671, 3671, 0, 6748)
        );
        assert_eq!(
            (s.total_caps, s.total_pools),
            (mw(134_044_513), mw(25_955_487))
        );
        assert!(
            s.datagrams_sent < s.frames_sent / 8,
            "batching is vacuous: {} datagrams for {} frames",
            s.datagrams_sent,
            s.frames_sent
        );
    }

    /// Every duplicate copy is an outstanding frame, so the end-of-round
    /// drain waits for it and no real frame is left stranded in the
    /// kernel after the last round.
    #[test]
    fn duplicated_frames_strand_no_power() {
        for drop_permille in [0, 50] {
            let mut cfg = MuxConfig::soak(48, 0x50AC_0001, 12);
            cfg.fault = Some(FaultConfig {
                seed: 1,
                drop_permille,
                dup_permille: 200,
                latency: None,
            });
            let s = run_multiplexed(&cfg).expect("duplicating mux runs");
            assert!(s.duplicated >= 1, "vacuous: nothing duplicated");
            assert_eq!(s.wire_lost, 0, "drop {drop_permille}‰");
            assert_eq!(
                s.frames_delivered,
                s.frames_sent + s.duplicated,
                "drop {drop_permille}‰: every copy must be dispatched"
            );
            assert_eq!(
                s.accounted_total(),
                s.budget,
                "drop {drop_permille}‰: duplicates stranded power"
            );
        }
    }

    /// Delayed copies wait parked, count as outstanding, and join a later
    /// batch — none is written off as lost on the wire.
    #[test]
    fn delayed_frames_are_parked_not_lost() {
        let mut cfg = MuxConfig::soak(48, 0x50AC_0004, 6);
        cfg.fault = Some(FaultConfig {
            seed: 2,
            drop_permille: 0,
            dup_permille: 100,
            latency: Some(penelope_net::LatencyModel::Uniform {
                lo: SimDuration::from_micros(50),
                hi: SimDuration::from_micros(500),
            }),
        });
        let s = run_multiplexed(&cfg).expect("delaying mux runs");
        assert_eq!(s.wire_lost, 0);
        assert_eq!(s.frames_delivered, s.frames_sent + s.duplicated);
        assert_eq!(s.accounted_total(), s.budget, "delays stranded power");
    }
}
