//! The per-node protocol automaton behind a sans-IO API.
//!
//! [`NodeEngine`] is the *complete* Penelope node: decider (Algorithm 1),
//! pool (Algorithm 2), grant escrow, applied-seq dedup, suspicion/gossip
//! and peer selection, composed into one state machine that owns every
//! protocol decision. It performs no I/O and reads no clock: the hosting
//! substrate (discrete-event simulator, sharded simulator, lockstep
//! runtime, UDP daemons) feeds [`EngineInput`]s into
//! [`NodeEngine::step`], which advances the automaton and runs every
//! resulting [`EngineOutput`] through the substrate's [`Effects`] —
//! sending messages, arming timers, actuating power caps.
//!
//! The engine is the single emission site for every protocol trace event
//! *and* for the transport events that describe its sends, so all
//! substrates produce the identical narrative by construction. Each
//! attempted send emits `MsgSent`, then at most one of `MsgDropped`
//! (`AckDropped` for an ack) when [`Effects::send`] reports
//! [`Delivery::Dropped`], or `SendFailed` when it reports
//! [`Delivery::Failed`]. What stays with the driver is what describes the
//! substrate alone: `MsgRecv`, `RequestDenied` and node lifecycle.
//!
//! # The driver contract
//!
//! * **Clock** — the driver passes `now` into every call; the engine
//!   never asks for the time.
//! * **Randomness** — the driver passes an [`EngineRng`]; the engine
//!   draws at most what peer selection needs (identical draw sequences to
//!   the historical inline code, so recorded seeds replay byte-for-byte),
//!   and only while handling the input itself — never from inside the
//!   output loop.
//! * **Transport** — [`Effects::send`] routes one message and reports
//!   what the transport knows at once: carried, known-dropped or refused.
//!   For a non-zero grant the engine feeds that answer straight back as
//!   [`EngineInput::GrantOutcome`], so the debited amount is escrowed with
//!   the correct delivery knowledge.
//! * **Timers** — [`Effects::set_escrow_timer`] requests a wake-up at a
//!   deadline; substrates with an event queue schedule it and feed back
//!   [`EngineInput::EscrowDeadline`], while period-polling substrates
//!   leave the no-op default and feed [`EngineInput::SweepEscrow`] once
//!   per period.
//! * **Power** — [`Effects::actuate`] publishes the cap the decider wants
//!   enforced; the driver applies it to RAPL (or a model of it).
//! * **Admission** — the pool's service-queue model (service time, queue
//!   capacity, overload drops) stays in the driver: the engine serves a
//!   [`PeerMsg::Request`] the moment it is fed one, so the driver feeds
//!   it at service-completion time and emits `RequestDenied` itself on
//!   queue overflow.
//!
//! [`NodeEngine::handle`] is the automaton without the output loop: it
//! appends the outputs of one input to a caller-supplied `Vec` and
//! executes nothing. [`NodeEngine::step`] is `handle` plus that loop, run
//! over the same reusable buffer, so the hot path stays allocation-free.

use std::collections::BTreeMap;

use penelope_trace::{EventKind, SharedObserver, TraceEvent};
use penelope_units::{NodeId, Power, SimTime};

use crate::config::NodeParams;
use crate::decider::{DeciderStats, LocalDecider, TickAction};
use crate::discovery::{choose_peer, initial_rr_cursor, DiscoveryStrategy, EngineRng};
use crate::escrow::{EscrowState, GrantEscrow};
use crate::policy::DeciderPolicy;
use crate::pool::PowerPool;
use crate::protocol::{GrantAck, PeerMsg, PowerGrant, PowerRequest};

/// What the transport knows about one message right after
/// [`Effects::send`] handed it over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// The transport took the message. It may still be lost later, unseen.
    Sent,
    /// The message is known lost at send: injected loss, a cut link or a
    /// dead peer.
    Dropped,
    /// The host refused the send (an OS socket error).
    Failed,
}

/// The substrate side of [`NodeEngine::step`]: one hook per kind of
/// [`EngineOutput`], called in output order. Implementations do only the
/// substrate's own work — routing, ledgers, hardware, timers; the engine
/// feeds grant outcomes back and emits the transport events itself.
pub trait Effects {
    /// Route `msg` to `dst` and report what the transport knows at once.
    /// `carried` is the power travelling with it, non-zero only for a
    /// non-zero grant (`grant == true`): that amount departs the
    /// granter's ledger only if the answer is [`Delivery::Sent`].
    fn send(&mut self, dst: NodeId, msg: &PeerMsg, carried: Power, grant: bool) -> Delivery;

    /// Apply this cap to the node's power interface.
    fn actuate(&mut self, cap: Power);

    /// A stale grant was discarded: book `amount` as permanently lost.
    fn power_lost(&mut self, amount: Power);

    /// Arm a wake-up that feeds [`EngineInput::EscrowDeadline`] at `at`.
    /// Substrates that sweep escrow once per period keep this no-op.
    fn set_escrow_timer(&mut self, requester: NodeId, seq: u64, at: SimTime) {
        let _ = (requester, seq, at);
    }

    /// The outstanding request `seq` was answered with `amount` (zero for
    /// an empty-handed reply). For turnaround and redistribution metrics.
    fn resolved(&mut self, seq: u64, amount: Power) {
        let _ = (seq, amount);
    }
}

/// Everything a [`NodeEngine`] needs to know at construction, shared by
/// all three substrates so protocol parameters cannot drift between a
/// simulation and a deployment.
///
/// This is the one place seq-epoch plumbing lives: the simulator's
/// restart path, the threaded runtime and the daemon's crash-recovery
/// watermark all express "start the sequence namespace at `floor`" via
/// [`EngineConfig::with_seq_floor`] (or [`NodeEngine::with_seq_floor`]),
/// replacing the three per-substrate spellings that preceded the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineConfig {
    /// Decider, pool and safe-range parameters (Algorithms 1 and 2).
    pub node: NodeParams,
    /// How a power-hungry decider picks which pool to query.
    pub discovery: DiscoveryStrategy,
    /// Starting sequence-namespace floor: seqs below it are permanently
    /// stale. Zero for a fresh node; a rejoining node passes its
    /// pre-crash `next_seq` watermark.
    pub seq_floor: u64,
}

impl EngineConfig {
    /// A config with the given node parameters, default (uniform-random)
    /// discovery and a zero seq floor.
    pub fn new(node: NodeParams) -> Self {
        EngineConfig {
            node,
            discovery: DiscoveryStrategy::default(),
            seq_floor: 0,
        }
    }

    /// Select a peer-discovery strategy.
    pub fn with_discovery(mut self, discovery: DiscoveryStrategy) -> Self {
        self.discovery = discovery;
        self
    }

    /// Start the sequence namespace at `floor` instead of zero (the
    /// unified seq-epoch entry point; see the struct docs).
    pub fn with_seq_floor(mut self, floor: u64) -> Self {
        self.seq_floor = floor;
        self
    }
}

/// One stimulus for [`NodeEngine::handle`].
#[derive(Clone, Debug, PartialEq)]
pub enum EngineInput {
    /// One decider iteration: the period elapsed and the driver read the
    /// node's power. Produces an [`EngineOutput::Actuate`] and possibly a
    /// peer request.
    Tick {
        /// The power reading for this iteration.
        reading: Power,
    },
    /// A peer protocol message arrived. For [`PeerMsg::Request`] the
    /// driver feeds this at *service completion* time (after its queue
    /// admission model), not at network arrival.
    Msg {
        /// The sending node.
        src: NodeId,
        /// The message.
        msg: PeerMsg,
    },
    /// Transport feedback for an [`EngineOutput::SendGrant`]: whether the
    /// grant was handed to the network. [`NodeEngine::step`] feeds it
    /// itself from the [`Effects::send`] answer; a caller of
    /// [`NodeEngine::handle`] MUST feed it synchronously after attempting
    /// delivery — the engine escrows the (already pool-debited) amount
    /// based on this knowledge.
    GrantOutcome {
        /// The requester the grant was addressed to.
        requester: NodeId,
        /// The request's sequence number.
        seq: u64,
        /// The granted amount.
        amount: Power,
        /// Whether the transport carried the message (`false` means the
        /// grant is known-dropped and keeps accounting weight here).
        delivered: bool,
    },
    /// A per-entry escrow timer armed by [`EngineOutput::SetEscrowTimer`]
    /// fired. Stale timers (the entry was acked or a re-send pushed its
    /// deadline out) are no-ops.
    EscrowDeadline {
        /// The requester key of the escrow entry.
        requester: NodeId,
        /// The seq key of the escrow entry.
        seq: u64,
    },
    /// Bulk escrow expiry for substrates that poll once per period
    /// instead of scheduling per-entry timers (they simply never arm the
    /// requested timers and feed this each period).
    SweepEscrow,
}

/// One effect the driver must execute on the engine's behalf.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineOutput {
    /// Route a protocol message to a peer. `carried` is the power
    /// travelling with it (zero for requests, acks and zero grants) so
    /// accounting substrates can move it between ledgers.
    /// [`NodeEngine::step`] hands it to [`Effects::send`] and emits the
    /// transport events (`MsgSent`, then `MsgDropped` / `AckDropped` /
    /// `SendFailed` when the send did not go through) itself.
    Send {
        /// Destination node.
        dst: NodeId,
        /// The message to route.
        msg: PeerMsg,
        /// Power carried by the message.
        carried: Power,
    },
    /// Route a freshly served (or escrow-resent) *non-zero* grant, then
    /// synchronously feed back [`EngineInput::GrantOutcome`] with the
    /// delivery result ([`NodeEngine::step`] does both, calling
    /// [`Effects::send`] with `grant = true`). Split from
    /// [`EngineOutput::Send`] because the ledger treatment differs: the
    /// amount only departs the granter when the transport actually
    /// carries the message — a grant known-dropped at send keeps its
    /// accounting weight on the granter (as an undelivered escrow entry)
    /// instead of being booked as lost.
    SendGrant {
        /// Destination (the requester).
        dst: NodeId,
        /// The grant message (amount + seq + piggybacked digest).
        msg: PeerMsg,
        /// The granted amount, for the driver's ledger and the
        /// `GrantOutcome` echo.
        amount: Power,
        /// The request's sequence number, for the `GrantOutcome` echo.
        seq: u64,
    },
    /// Arm (or re-arm) a wake-up for an escrow entry's deadline; the
    /// driver feeds [`EngineInput::EscrowDeadline`] when it fires.
    /// Substrates that sweep per period may ignore this.
    SetEscrowTimer {
        /// The requester key of the escrow entry.
        requester: NodeId,
        /// The seq key of the escrow entry.
        seq: u64,
        /// When the entry expires.
        at: SimTime,
    },
    /// Apply this cap to the node's power interface.
    Actuate {
        /// The cap the decider wants enforced.
        cap: Power,
    },
    /// A non-zero grant arrived but was discarded as stale (pre-crash
    /// seq epoch): its power is gone — the substrate's conservation
    /// ledger must book it as lost. No ack is sent; the granter's escrow
    /// entry expires creditless.
    PowerLost {
        /// The discarded grant's amount.
        amount: Power,
    },
    /// A (non-stale) grant answered the outstanding request `seq`: the
    /// request round-trip is complete. Substrates tracking turnaround or
    /// redistribution metrics hook this; others ignore it.
    Resolved {
        /// The answered sequence number.
        seq: u64,
        /// The granted amount (zero for an empty-handed reply).
        amount: Power,
    },
}

/// The complete Penelope node automaton — see the [module docs](self)
/// for the driver contract.
#[derive(Debug)]
pub struct NodeEngine {
    id: NodeId,
    cluster_size: usize,
    cfg: EngineConfig,
    decider: LocalDecider,
    pool: PowerPool,
    escrow: GrantEscrow<NodeId>,
    /// Granter-side late-duplicate guard: the highest request `seq` each
    /// requester has *acknowledged a grant for*. An escrow entry is
    /// released the moment its ack lands, so a duplicate request delayed
    /// past the ack (retransmit + reordering) finds no escrow entry and
    /// would be served — and debited — a second time; the requester's own
    /// dedup then discards the second grant, and the second debit would
    /// vanish from the system unaccounted. Requester seqs are strictly
    /// monotone (within a life and across rebirths, via the seq-epoch
    /// floor), so anything at or below this watermark is a duplicate of a
    /// completed exchange and gets a zero-grant reminder instead. The keys
    /// come off the wire, so the map is ordered: worst-case logarithmic
    /// whatever ids peers claim.
    acked_floor: BTreeMap<NodeId, u64>,
    rr_cursor: u32,
    last_success: Option<NodeId>,
    obs: SharedObserver,
    /// `obs.enabled()` cached at attach time: the emission fast path pays
    /// one local bool load instead of a virtual call per event.
    obs_on: bool,
}

impl NodeEngine {
    /// Build the engine for node `id` of a cluster of `cluster_size`
    /// client nodes, starting at `initial_cap` (clamped into the safe
    /// range). Every emitted protocol event is stamped with `id` and
    /// delivered to `observer`.
    pub fn new(
        id: NodeId,
        cluster_size: usize,
        cfg: EngineConfig,
        initial_cap: Power,
        observer: SharedObserver,
    ) -> Self {
        let decider = LocalDecider::new(cfg.node.decider, initial_cap, cfg.node.safe_range)
            .with_seq_floor(cfg.seq_floor)
            .with_observer(id, observer.clone());
        NodeEngine {
            id,
            cluster_size,
            cfg,
            decider,
            pool: PowerPool::new(cfg.node.pool),
            escrow: GrantEscrow::new(),
            acked_floor: BTreeMap::new(),
            rr_cursor: initial_rr_cursor(id.raw(), cluster_size as u32),
            last_success: None,
            obs_on: observer.enabled(),
            obs: observer,
        }
    }

    /// Replace the engine-level event sink (the decider keeps the
    /// observer it was constructed with until the next
    /// [`reincarnate`](NodeEngine::reincarnate)). Substrates that fan an
    /// extra trace consumer into their sink after construction — the
    /// simulator's `record_traces` — push the fanout down here so the
    /// engine's `CapActuated` samples reach it.
    pub fn set_observer(&mut self, obs: SharedObserver) {
        self.obs_on = obs.enabled();
        self.obs = obs;
    }

    /// Restart the sequence namespace at `floor` (builder form; must be
    /// called before the engine handles any input). This is the unified
    /// spelling of the seq-epoch watermark across all substrates.
    pub fn with_seq_floor(mut self, floor: u64) -> Self {
        self.cfg.seq_floor = floor;
        self.decider = LocalDecider::new(
            self.cfg.node.decider,
            self.decider.initial_cap(),
            self.cfg.node.safe_range,
        )
        .with_seq_floor(floor)
        .with_observer(self.id, self.obs.clone());
        self
    }

    /// The node this engine animates.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of client nodes in the cluster (peer-selection domain).
    pub fn cluster_size(&self) -> usize {
        self.cluster_size
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The cap the decider currently wants enforced.
    pub fn cap(&self) -> Power {
        self.decider.cap()
    }

    /// The initial assignment — the urgency threshold.
    pub fn initial_cap(&self) -> Power {
        self.decider.initial_cap()
    }

    /// The local power pool (read access for snapshots and audits).
    pub fn pool(&self) -> &PowerPool {
        &self.pool
    }

    /// Mutable access to the pool, for tests and tools that seed pool
    /// state out-of-band. Protocol paths must go through
    /// [`handle`](NodeEngine::handle).
    pub fn pool_mut(&mut self) -> &mut PowerPool {
        &mut self.pool
    }

    /// Lifetime decider counters.
    pub fn stats(&self) -> DeciderStats {
        self.decider.stats()
    }

    /// True iff a peer request is in flight.
    pub fn is_blocked(&self) -> bool {
        self.decider.is_blocked()
    }

    /// The next sequence number this node will spend — the watermark a
    /// restart hands to [`NodeEngine::with_seq_floor`].
    pub fn next_seq(&self) -> u64 {
        self.decider.next_seq()
    }

    /// Escrowed power still carrying accounting weight on this node (the
    /// undelivered entries) — what conservation audits add to the node's
    /// holdings.
    pub fn escrowed_undelivered(&self) -> Power {
        self.escrow.undelivered_total()
    }

    /// Number of outstanding escrow entries.
    pub fn escrow_len(&self) -> usize {
        self.escrow.len()
    }

    /// Peers this node currently holds a suspicion against (active or
    /// awaiting clearance).
    pub fn suspected_count(&self) -> usize {
        self.decider.suspected_count()
    }

    /// Earliest future time at which a `Tick { reading }` input could do
    /// anything beyond `Actuate { cap }` (idempotent — the cap is
    /// unchanged) and one iteration-counter bump — or `None` when the
    /// very next tick may act.
    ///
    /// This is the hot-path contract mega-scale drivers elide ticks
    /// against: across a window this method vouches for, the driver may
    /// skip delivering tick inputs entirely, account them with
    /// [`note_elided_ticks`](NodeEngine::note_elided_ticks), and wake
    /// the node at the returned deadline (or earlier, on any message
    /// arrival or reading change — quiescence assumes frozen inputs).
    ///
    /// The engine layers its own gates over
    /// [`LocalDecider::quiescent_until`]; all must hold, else `None`:
    ///
    /// * tracing off — a real tick emits `CapActuated` (and the decider a
    ///   `Classified`) per iteration, so elision under an observer would
    ///   be visible;
    /// * no sticky success hint — a hint makes `choose_peer`
    ///   deterministic-per-hint rather than a skippable unused draw, and
    ///   the hint-drop check at the top of the tick mutates state;
    /// * no suspicions held — probe scheduling piggybacks on tick-time
    ///   partner selection;
    /// * no local urgency latched — `finish_iteration` releases power on
    ///   the next tick.
    ///
    /// Elision *does* skip the per-tick partner-selection RNG draw (and
    /// round-robin cursor advance), so an eliding driver's per-node
    /// random streams diverge from a non-eliding one's. Elision is only
    /// sound where that stream is unobservable — fault-free steady state,
    /// where quiescent nodes never spend the draw. The decision itself
    /// depends only on this node's state, never on how the driver
    /// partitions nodes, so any two eliding drivers agree exactly.
    #[inline]
    pub fn tick_quiescent_until(&self, now: SimTime, reading: Power) -> Option<SimTime> {
        if self.obs_on
            || self.last_success.is_some()
            || self.decider.suspected_count() != 0
            || self.pool.local_urgency()
        {
            return None;
        }
        self.decider.quiescent_until(now, reading)
    }

    /// Account `n` ticks elided under a
    /// [`tick_quiescent_until`](NodeEngine::tick_quiescent_until) window,
    /// keeping `stats().ticks` equal to the count a non-eliding driver
    /// would have produced.
    #[inline]
    pub fn note_elided_ticks(&mut self, n: u64) {
        self.decider.note_elided_ticks(n);
    }

    /// Rebirth in place after a crash: the node rejoins with
    /// `initial_cap`, a fresh pool and escrow, and its sequence namespace
    /// floored at the dead incarnation's watermark so stale pre-crash
    /// grants are discarded instead of double-paid. The round-robin
    /// cursor survives (it is substrate-side discovery state, and keeping
    /// it matches the historical restart behaviour byte-for-byte).
    pub fn reincarnate(&mut self, initial_cap: Power) {
        let floor = self.decider.next_seq();
        self.cfg.seq_floor = floor;
        self.decider =
            LocalDecider::new(self.cfg.node.decider, initial_cap, self.cfg.node.safe_range)
                .with_seq_floor(floor)
                .with_observer(self.id, self.obs.clone());
        self.pool = PowerPool::new(self.cfg.node.pool);
        self.escrow = GrantEscrow::new();
        self.acked_floor.clear();
        self.last_success = None;
    }

    /// Crash accounting: drop the pool and escrow, returning
    /// `(pool drained, undelivered escrow drained)` so the substrate can
    /// book both as lost alongside the cap.
    pub fn retire(&mut self) -> (Power, Power) {
        self.last_success = None;
        (self.pool.drain(), self.escrow.drain())
    }

    /// Stamp and deliver one protocol event (free when tracing is off).
    #[inline]
    fn emit(&self, now: SimTime, kind: impl FnOnce() -> EventKind) {
        if self.obs_on {
            let period_ns = self.cfg.node.decider.period.as_nanos().max(1);
            self.obs.on_event(&TraceEvent {
                at: now,
                node: self.id,
                period: now.as_nanos() / period_ns,
                kind: kind(),
            });
        }
    }

    /// Advance the automaton by one input, appending the effects the
    /// driver must execute to `out` and executing none of them (the
    /// buffer is NOT cleared). Drivers call [`step`](NodeEngine::step),
    /// which runs this and then the outputs; `handle` alone is the
    /// primitive that transcripts and probes pin.
    pub fn handle(
        &mut self,
        now: SimTime,
        input: EngineInput,
        rng: &mut impl EngineRng,
        out: &mut Vec<EngineOutput>,
    ) {
        match input {
            EngineInput::Tick { reading } => self.on_tick(now, reading, rng, out),
            EngineInput::Msg { src, msg } => match msg {
                PeerMsg::Request(req) => self.on_request(now, req, out),
                PeerMsg::Grant(g, digest) => self.on_grant_msg(now, src, g, digest, out),
                PeerMsg::Ack(a, digest) => self.on_ack(now, src, a, digest),
            },
            EngineInput::GrantOutcome {
                requester,
                seq,
                amount,
                delivered,
            } => self.on_grant_outcome(now, requester, seq, amount, delivered, out),
            EngineInput::EscrowDeadline { requester, seq } => {
                if let Some(entry) = self.escrow.expire_one(requester, seq, now) {
                    self.reclaim(now, entry.requester, entry.seq, entry.amount, entry.state);
                }
            }
            EngineInput::SweepEscrow => {
                for entry in self.escrow.take_expired(now) {
                    self.reclaim(now, entry.requester, entry.seq, entry.amount, entry.state);
                }
            }
        }
    }

    /// Advance the automaton by one input and execute its outputs through
    /// `fx`, in order — the output loop every driver shares (see the
    /// module docs). A non-zero grant's [`Delivery`] is fed back as
    /// [`EngineInput::GrantOutcome`] at once, and its escrow bookkeeping
    /// joins the same loop. Every send emits its transport events through
    /// this engine's observer.
    ///
    /// Outputs are appended to `out` past its current length and removed
    /// again once executed; pass one reusable buffer and no call
    /// allocates. Only handling `input` draws from `rng`.
    pub fn step(
        &mut self,
        now: SimTime,
        input: EngineInput,
        rng: &mut impl EngineRng,
        out: &mut Vec<EngineOutput>,
        fx: &mut impl Effects,
    ) {
        let start = out.len();
        self.handle(now, input, rng, out);
        let mut i = start;
        while i < out.len() {
            match &out[i] {
                EngineOutput::Actuate { cap } => fx.actuate(*cap),
                EngineOutput::Send { dst, msg, carried } => {
                    let delivery = fx.send(*dst, msg, *carried, false);
                    self.emit_transport(now, *dst, msg, *carried, delivery);
                }
                EngineOutput::SendGrant {
                    dst,
                    msg,
                    amount,
                    seq,
                } => {
                    let (dst, amount, seq) = (*dst, *amount, *seq);
                    let delivery = fx.send(dst, msg, amount, true);
                    self.emit_transport(now, dst, msg, amount, delivery);
                    let delivered = delivery == Delivery::Sent;
                    self.on_grant_outcome(now, dst, seq, amount, delivered, out);
                }
                EngineOutput::SetEscrowTimer { requester, seq, at } => {
                    fx.set_escrow_timer(*requester, *seq, *at)
                }
                EngineOutput::PowerLost { amount } => fx.power_lost(*amount),
                EngineOutput::Resolved { seq, amount } => fx.resolved(*seq, *amount),
            }
            i += 1;
        }
        out.truncate(start);
    }

    /// The one transport rule: `MsgSent` for every attempt, then at most
    /// one event saying why it did not go through.
    #[inline]
    fn emit_transport(
        &self,
        now: SimTime,
        dst: NodeId,
        msg: &PeerMsg,
        carried: Power,
        delivery: Delivery,
    ) {
        if !self.obs_on {
            return;
        }
        self.emit(now, || EventKind::MsgSent { dst, carried });
        match (delivery, msg) {
            (Delivery::Sent, _) => {}
            (Delivery::Dropped, PeerMsg::Ack(a, _)) => {
                self.emit(now, || EventKind::AckDropped { dst, seq: a.seq })
            }
            (Delivery::Dropped, _) => self.emit(now, || EventKind::MsgDropped { dst, carried }),
            (Delivery::Failed, _) => self.emit(now, || EventKind::SendFailed { dst }),
        }
    }

    /// One decider iteration (Algorithm 1).
    fn on_tick(
        &mut self,
        now: SimTime,
        reading: Power,
        rng: &mut impl EngineRng,
        out: &mut Vec<EngineOutput>,
    ) {
        // Sticky-hint liveness fix: a hint whose peer has started timing
        // out is dropped immediately instead of waiting for an empty
        // grant that a crashed peer can never send.
        if let Some(h) = self.last_success {
            if self.decider.peer_timeout_streak(h) > 0 {
                self.last_success = None;
            }
        }
        let decider = &self.decider;
        let peer = choose_peer(
            self.cfg.discovery,
            rng,
            self.id.index(),
            self.cluster_size,
            &mut self.rr_cursor,
            self.last_success,
            decider.suspicion_active(now),
            |p| decider.is_suspected(now, p),
        );
        // Capture probe-ness at selection time: the tick below may refresh
        // the suspicion clock (a timeout landing this same iteration)
        // after selection already let the probe through.
        let probing = peer.is_some_and(|p| decider.is_probing(now, p));
        let action = self.decider.tick(now, reading, &mut self.pool, peer);
        out.push(EngineOutput::Actuate {
            cap: self.decider.cap(),
        });
        // Per-tick telemetry: the one event every iteration emits; trace
        // consumers project it into the plottable (cap, reading, pool)
        // series.
        let cap_now = self.decider.cap();
        let pool_now = self.pool.available();
        self.emit(now, || EventKind::CapActuated {
            cap: cap_now,
            reading,
            pool: pool_now,
        });
        if let TickAction::Request {
            dst,
            urgent,
            alpha,
            bid,
            seq,
        } = action
        {
            // A request to a peer whose suspicion outlived the probe
            // interval IS the liveness probe — narrate it. Emitted here
            // (the engine is the single protocol-emission site), so the
            // event appears on every substrate with no driver changes.
            if probing {
                self.emit(now, || EventKind::PeerProbed { peer: dst });
            }
            out.push(EngineOutput::Send {
                dst,
                msg: PeerMsg::Request(PowerRequest {
                    from: self.id,
                    urgent,
                    alpha,
                    bid,
                    seq,
                }),
                carried: Power::ZERO,
            });
        }
    }

    /// Serve a peer request out of the pool (Algorithm 2), with
    /// retransmit idempotence: an escrow hit means this (requester, seq)
    /// was already served — re-send the escrowed amount, never re-debit.
    fn on_request(&mut self, now: SimTime, req: PowerRequest, out: &mut Vec<EngineOutput>) {
        // Late-duplicate guard: this (requester, seq) already completed a
        // full grant/ack exchange (the ack released its escrow entry), so
        // a copy arriving now — a retransmit delayed past the ack — must
        // not be served afresh. A zero-grant reminder unblocks the
        // requester if it somehow still waits (its dedup discards it
        // otherwise).
        if self
            .acked_floor
            .get(&req.from)
            .is_some_and(|&floor| req.seq <= floor)
        {
            out.push(EngineOutput::Send {
                dst: req.from,
                msg: PeerMsg::Grant(
                    PowerGrant {
                        amount: Power::ZERO,
                        seq: req.seq,
                    },
                    self.decider.make_digest(),
                ),
                carried: Power::ZERO,
            });
            return;
        }
        if let Some(entry) = self.escrow.get(req.from, req.seq).copied() {
            match entry.state {
                EscrowState::Undelivered => {
                    out.push(EngineOutput::SendGrant {
                        dst: req.from,
                        msg: PeerMsg::Grant(
                            PowerGrant {
                                amount: entry.amount,
                                seq: req.seq,
                            },
                            self.decider.make_digest(),
                        ),
                        amount: entry.amount,
                        seq: req.seq,
                    });
                }
                EscrowState::AwaitingAck => {
                    // The original grant is in flight or already applied;
                    // a zero reminder unblocks the requester if its ack
                    // raced this retransmit (duplicates of the real
                    // amount are discarded by the decider's seq dedup).
                    out.push(EngineOutput::Send {
                        dst: req.from,
                        msg: PeerMsg::Grant(
                            PowerGrant {
                                amount: Power::ZERO,
                                seq: req.seq,
                            },
                            self.decider.make_digest(),
                        ),
                        carried: Power::ZERO,
                    });
                }
            }
            return;
        }
        let urgency_before = self.pool.local_urgency();
        let amount = match self.cfg.node.decider.policy {
            // Bid-carrying requests are priced, not rationed: the pool's
            // scarcity ask decides, and the urgency flag is never touched.
            // A zero bid (an urgency/predictive peer in a mixed cluster)
            // falls through to Algorithm 2.
            DeciderPolicy::Market(m) if !req.bid.is_zero() => {
                self.pool.handle_bid(req.bid, req.alpha, &m)
            }
            _ => self.pool.handle_request(req.urgent, req.alpha),
        };
        let urgency_after = self.pool.local_urgency();
        self.emit(now, || EventKind::RequestServed {
            requester: req.from,
            seq: req.seq,
            granted: amount,
            urgent: req.urgent,
        });
        // The urgency flag has *assignment* semantics (Algorithm 2): an
        // urgent request raises it, a non-urgent one clears it. Emitting
        // both transitions keeps raise/clear strictly alternating.
        if !urgency_before && urgency_after {
            self.emit(now, || EventKind::UrgencyRaised { by: req.from });
        } else if urgency_before && !urgency_after {
            self.emit(now, || EventKind::UrgencyCleared {
                released: Power::ZERO,
            });
        }
        if amount.is_zero() {
            // Nothing to conserve: an empty-handed reply is
            // fire-and-forget.
            out.push(EngineOutput::Send {
                dst: req.from,
                msg: PeerMsg::Grant(
                    PowerGrant {
                        amount,
                        seq: req.seq,
                    },
                    self.decider.make_digest(),
                ),
                carried: amount,
            });
        } else {
            out.push(EngineOutput::SendGrant {
                dst: req.from,
                msg: PeerMsg::Grant(
                    PowerGrant {
                        amount,
                        seq: req.seq,
                    },
                    self.decider.make_digest(),
                ),
                amount,
                seq: req.seq,
            });
        }
    }

    /// Transport feedback for a [`EngineOutput::SendGrant`]: escrow the
    /// debited amount with the delivery knowledge the driver reports.
    fn on_grant_outcome(
        &mut self,
        now: SimTime,
        requester: NodeId,
        seq: u64,
        amount: Power,
        delivered: bool,
        out: &mut Vec<EngineOutput>,
    ) {
        let fresh = self.escrow.get(requester, seq).is_none();
        let deadline = now + self.cfg.node.decider.escrow_timeout();
        let state = if delivered {
            EscrowState::AwaitingAck
        } else {
            EscrowState::Undelivered
        };
        self.escrow.insert(requester, seq, amount, state, deadline);
        if fresh {
            self.emit(now, || EventKind::GrantEscrowed {
                requester,
                seq,
                amount,
            });
        }
        out.push(EngineOutput::SetEscrowTimer {
            requester,
            seq,
            at: deadline,
        });
    }

    /// A grant arrived for this node's outstanding request.
    fn on_grant_msg(
        &mut self,
        now: SimTime,
        src: NodeId,
        g: PowerGrant,
        digest: Option<Box<crate::protocol::SuspicionDigest>>,
        out: &mut Vec<EngineOutput>,
    ) {
        // Merge piggybacked suspicion gossip first: the digest may refute
        // a stale suspicion of `src` itself, and the reply below must
        // land on the post-merge state.
        if let Some(d) = &digest {
            self.decider.observe_digest(now, src, d);
        }
        // Any reply — even a zero grant — proves the peer alive.
        self.decider.note_peer_reply(now, src);
        if self.decider.is_stale_grant(g.seq) {
            // A pre-crash grant caught up with its reborn requester: the
            // crash already retired this node's whole pre-crash epoch, so
            // applying the grant now would pay the new epoch with the old
            // one's money. The decider discards it (counted in
            // `stale_discards`) and the amount joins the crash's losses.
            // No ack: the granter's escrow entry expires creditless,
            // exactly as if the requester died.
            let _ = self.decider.on_grant(now, g.seq, g.amount, &mut self.pool);
            if !g.amount.is_zero() {
                out.push(EngineOutput::PowerLost { amount: g.amount });
            }
            return;
        }
        // A redelivered copy of an already-applied grant (the granter
        // re-sends its escrowed amount when a retransmitted request races
        // the original) resolves nothing: the first delivery did. The
        // decider discards it below either way; suppressing the Resolved
        // echo keeps turnaround folds from double-counting the exchange.
        // The ack is still worth re-sending — the duplicate implies the
        // granter has not seen our ack yet.
        let redelivery = !g.amount.is_zero() && self.decider.is_applied_seq(g.seq);
        let _ = self.decider.on_grant(now, g.seq, g.amount, &mut self.pool);
        out.push(EngineOutput::Actuate {
            cap: self.decider.cap(),
        });
        // Gossip-hint maintenance: remember productive pools, forget dry
        // ones.
        if g.amount.is_zero() {
            if self.last_success == Some(src) {
                self.last_success = None;
            }
        } else {
            self.last_success = Some(src);
        }
        if !redelivery {
            out.push(EngineOutput::Resolved {
                seq: g.seq,
                amount: g.amount,
            });
        }
        // Commit the transfer: the granter holds the amount in escrow
        // until this ack lands (zero grants debit nothing and are never
        // escrowed, so nothing to acknowledge).
        if !g.amount.is_zero() {
            out.push(EngineOutput::Send {
                dst: src,
                msg: PeerMsg::Ack(GrantAck { seq: g.seq }, self.decider.make_digest()),
                carried: Power::ZERO,
            });
        }
    }

    /// An ack arrived for a grant this node escrowed.
    fn on_ack(
        &mut self,
        now: SimTime,
        src: NodeId,
        a: GrantAck,
        digest: Option<Box<crate::protocol::SuspicionDigest>>,
    ) {
        if let Some(d) = &digest {
            self.decider.observe_digest(now, src, d);
        }
        if let Some(entry) = self.escrow.release(src, a.seq) {
            // An ack proves delivery, so the entry cannot still be
            // carrying accounting weight on the granter.
            debug_assert_eq!(entry.state, EscrowState::AwaitingAck);
        }
        // Remember the exchange as completed whether or not the entry was
        // still escrowed (a duplicated ack may land after expiry): any
        // later copy of the request must not be served afresh.
        let floor = self.acked_floor.entry(src).or_insert(0);
        *floor = (*floor).max(a.seq);
    }

    /// An escrow entry expired: if it is still known undelivered the
    /// granter takes its power back; an awaiting-ack entry expires
    /// without credit (the power either reached the requester, whose ack
    /// was lost, or died with it — both already accounted elsewhere).
    fn reclaim(
        &mut self,
        now: SimTime,
        requester: NodeId,
        seq: u64,
        amount: Power,
        state: EscrowState,
    ) {
        if state == EscrowState::Undelivered {
            self.pool.deposit(amount);
            self.emit(now, || EventKind::GrantReclaimed {
                requester,
                seq,
                amount,
            });
        }
    }
}
