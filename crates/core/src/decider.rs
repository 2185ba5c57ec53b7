//! The local decider (Algorithm 1).

use std::collections::BTreeMap;

use penelope_trace::{EventKind, NodeClass, SharedObserver, TraceEvent};
use penelope_units::{NodeId, Power, PowerRange, SimTime};

use crate::config::DeciderConfig;
use crate::policy::{DeciderPolicy, PredictiveConfig};
use crate::pool::PowerPool;
use crate::protocol::{SuspicionDigest, SuspicionEntry, MAX_DIGEST_ENTRIES};

/// The decider's per-iteration classification of its node (§3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Classification {
    /// Reading more than ε below the cap: the node has excess power.
    Excess,
    /// Reading within ε of the cap: the node is power-hungry.
    Hungry,
    /// Reading exactly at `cap − ε` (Algorithm 1's strict comparisons leave
    /// this point unclassified).
    AtMargin,
}

/// Classify a reading against a cap with margin ε, exactly as Algorithm 1:
/// `P < C − ε` → excess, `P > C − ε` → hungry, equality → neither.
pub fn classify(reading: Power, cap: Power, epsilon: Power) -> Classification {
    // Compare in added form to avoid unsigned underflow when ε > cap.
    let lhs = reading + epsilon;
    if lhs < cap {
        Classification::Excess
    } else if lhs > cap {
        Classification::Hungry
    } else {
        Classification::AtMargin
    }
}

impl Classification {
    /// The trace-vocabulary equivalent of this classification.
    pub fn as_trace(self) -> NodeClass {
        match self {
            Classification::Excess => NodeClass::Excess,
            Classification::Hungry => NodeClass::Hungry,
            Classification::AtMargin => NodeClass::AtMargin,
        }
    }
}

/// What a decider iteration decided to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TickAction {
    /// Excess: the cap was lowered and this much was deposited locally.
    Deposited(Power),
    /// Hungry with a non-empty local pool: withdrew this much locally.
    TookLocal(Power),
    /// Hungry with an empty local pool: send this request to `dst`'s pool.
    Request {
        /// The randomly chosen peer to query.
        dst: NodeId,
        /// Urgency of the request.
        urgent: bool,
        /// Power needed to return to the initial cap (urgent only), or the
        /// forecast shortfall under the predictive policy, or the clearing
        /// clamp under the market policy.
        alpha: Power,
        /// Market-policy bid attached to the request
        /// ([`Power::ZERO`] under the urgency and predictive policies).
        bid: Power,
        /// Sequence number to match the grant against.
        seq: u64,
    },
    /// Nothing to do: at the margin, no peer available, or still blocked on
    /// an earlier request.
    Idle,
}

#[derive(Clone, Copy, Debug)]
struct Outstanding {
    seq: u64,
    sent_at: SimTime,
    /// Where the request went and what it asked for, kept so a timed-out
    /// request can be retransmitted verbatim (same `seq`, same α).
    dst: NodeId,
    urgent: bool,
    alpha: Power,
    bid: Power,
    /// How many times this request has been (re)sent minus one; the wait
    /// before attempt `k + 1` is `response_timeout · 2^k`.
    attempt: u32,
}

/// Per-decider lifetime counters, exposed for the metrics layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeciderStats {
    /// Iterations executed.
    pub ticks: u64,
    /// Requests sent to peers.
    pub requests_sent: u64,
    /// Of which urgent.
    pub urgent_sent: u64,
    /// Requests abandoned after the response timeout.
    pub timeouts: u64,
    /// Timed-out requests retransmitted instead of abandoned.
    pub retransmits: u64,
    /// Total power deposited into the local pool.
    pub deposited: Power,
    /// Total power received in grants (applied + re-deposited overflow).
    pub granted: Power,
    /// Total power released due to a peer's urgent request (the
    /// `localUrgency` inducement).
    pub urgency_released: Power,
    /// Grants discarded because their `seq` sat below the decider's floor:
    /// pre-crash grants addressed to a reborn node, or redeliveries older
    /// than the applied-seq window.
    pub stale_discards: u64,
}

/// How many recent applied sequence numbers are remembered exactly; grants
/// older than this window below `next_seq` are rejected wholesale (treated
/// as already applied), which is what keeps [`LocalDecider`]'s dedup state
/// one 64-bit mask instead of O(lifetime requests). The decider has at most
/// one request outstanding and the escrow deadline spans a handful of
/// periods, so a legitimate late grant is always far younger than this.
pub const APPLIED_SEQ_WINDOW: u64 = 64;

// The window is exactly the width of the `applied_seqs` bitmask.
const _: () = assert!(APPLIED_SEQ_WINDOW == u64::BITS as u64);

/// Algorithm 1: the per-node feedback controller.
///
/// The decider is substrate-agnostic: each period the host calls
/// [`tick`](LocalDecider::tick) with the average power reading and a
/// uniformly random peer, delivers any [`TickAction::Request`] it returns,
/// and feeds the reply to [`on_grant`](LocalDecider::on_grant). After any
/// call the host applies [`cap`](LocalDecider::cap) to the hardware.
///
/// While a request is outstanding the decider is *blocked* (the paper's
/// implementation waits synchronously for the pool's reply); a tick that
/// arrives first returns [`TickAction::Idle`], and the request is abandoned
/// after [`DeciderConfig::response_timeout`] so a crashed peer cannot wedge
/// the node.
#[derive(Clone, Debug)]
pub struct LocalDecider {
    cfg: DeciderConfig,
    initial_cap: Power,
    cap: Power,
    safe: PowerRange,
    outstanding: Option<Outstanding>,
    next_seq: u64,
    /// Sequence numbers whose non-zero grant has already been applied,
    /// as a bitmask anchored at `seq_floor`: bit `i` stands for seq
    /// `seq_floor + i`. A lossy transport can redeliver a grant (the
    /// granter re-sends its escrowed amount when a retransmitted request
    /// arrives); applying it twice would mint power, so redeliveries are
    /// discarded by `seq`. Seqs below `seq_floor` are rejected without
    /// lookup, and the floor trails `next_seq` by at most
    /// [`APPLIED_SEQ_WINDOW`] after every applied grant, so one word
    /// covers every seq this decider has issued since.
    applied_seqs: u64,
    /// Grants with `seq < seq_floor` are stale and discarded. Raised in two
    /// ways: a restarted node adopts its pre-crash `next_seq` watermark here
    /// (the seq-epoch rule — stale pre-crash grants and escrow re-sends can
    /// never double-pay the reborn node), and ordinary operation advances it
    /// to `next_seq − APPLIED_SEQ_WINDOW` so `applied_seqs` stays bounded.
    seq_floor: u64,
    /// Liveness: consecutive timeouts per peer, reset by any reply. This
    /// map and the two below are keyed by ids that come off the wire, so
    /// they are ordered maps: worst-case logarithmic, and iterated in
    /// peer-id order.
    timeout_streaks: BTreeMap<NodeId, u32>,
    /// Suspected peers → when the suspicion was last confirmed (by a
    /// timeout or an adopted gossip entry) and against which incarnation
    /// of the peer it was formed. Entries older than `probe_interval` no
    /// longer filter partner selection (one probe gets through) but stay
    /// until a reply clears them, so `PeerSuspected`/`PeerCleared`
    /// strictly alternate.
    suspected: BTreeMap<NodeId, Suspicion>,
    /// The newest incarnation (seq-epoch floor) observed per peer, learnt
    /// from the digests peers piggyback on grants and acks. Gossiped
    /// suspicions formed against an older incarnation are refuted instead
    /// of adopted, so a rejoined node is never re-shunned by stale gossip.
    known_incarnations: BTreeMap<NodeId, u64>,
    /// Predictive policy only: the EWMA demand forecast, updated once per
    /// executed (non-blocked) iteration. Unused — and never read — under
    /// the other policies.
    forecast: Power,
    /// Predictive policy only: the previous iteration's reading, for the
    /// phase-change jump detector. `None` until the first iteration.
    prev_reading: Option<Power>,
    stats: DeciderStats,
    node: NodeId,
    obs: SharedObserver,
}

/// One active suspicion held by a decider.
#[derive(Clone, Copy, Debug)]
struct Suspicion {
    /// When the suspicion was last confirmed (probe clock).
    since: SimTime,
    /// The incarnation of the peer the suspicion was formed against; a
    /// digest proving a newer incarnation refutes it.
    incarnation: u64,
}

impl LocalDecider {
    /// Create a decider with the given initial cap (clamped into `safe`).
    pub fn new(cfg: DeciderConfig, initial_cap: Power, safe: PowerRange) -> Self {
        let cap = safe.clamp(initial_cap);
        LocalDecider {
            cfg,
            initial_cap: cap,
            cap,
            safe,
            outstanding: None,
            next_seq: 0,
            applied_seqs: 0,
            seq_floor: 0,
            timeout_streaks: BTreeMap::new(),
            suspected: BTreeMap::new(),
            known_incarnations: BTreeMap::new(),
            forecast: Power::ZERO,
            prev_reading: None,
            stats: DeciderStats::default(),
            node: NodeId::new(0),
            obs: SharedObserver::noop(),
        }
    }

    /// Start the sequence namespace at `floor` instead of zero: seqs below
    /// it are permanently stale. A restarted node passes its pre-crash
    /// `next_seq` watermark here so the reborn decider never reuses a seq
    /// its dead predecessor already spent — a retransmitted or escrowed
    /// pre-crash grant arriving late is discarded instead of double-paying.
    pub fn with_seq_floor(mut self, floor: u64) -> Self {
        self.next_seq = floor;
        self.seq_floor = floor;
        self
    }

    /// Attach an observer, stamping every emitted event with `node`.
    ///
    /// The decider is where the protocol *decides*, so it is the single
    /// emission site for classification, pool deposit/withdraw, request
    /// sent/timeout, grant applied and urgency-cleared events — every
    /// substrate gets the identical narrative by construction.
    pub fn with_observer(mut self, node: NodeId, obs: SharedObserver) -> Self {
        self.node = node;
        self.obs = obs;
        self
    }

    /// Stamp and deliver one protocol event (free when tracing is off).
    #[inline]
    fn emit(&self, now: SimTime, kind: impl FnOnce() -> EventKind) {
        if self.obs.enabled() {
            let period_ns = self.cfg.period.as_nanos().max(1);
            self.obs.on_event(&TraceEvent {
                at: now,
                node: self.node,
                period: now.as_nanos() / period_ns,
                kind: kind(),
            });
        }
    }

    /// The node-level cap the decider currently wants enforced (`C_t`).
    pub fn cap(&self) -> Power {
        self.cap
    }

    /// The initial assignment — the urgency threshold.
    pub fn initial_cap(&self) -> Power {
        self.initial_cap
    }

    /// The decider's configuration.
    pub fn config(&self) -> &DeciderConfig {
        &self.cfg
    }

    /// Lifetime counters.
    pub fn stats(&self) -> DeciderStats {
        self.stats
    }

    /// True iff a request is in flight.
    pub fn is_blocked(&self) -> bool {
        self.outstanding.is_some()
    }

    /// The next sequence number this decider will spend — the watermark a
    /// restart hands to [`with_seq_floor`](LocalDecider::with_seq_floor).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Would a grant for `seq` be discarded as stale (pre-crash epoch or
    /// below the applied-seq window)? Hosts that account power in flight
    /// must book a stale grant's amount as lost, since `on_grant` will
    /// apply none of it.
    pub fn is_stale_grant(&self, seq: u64) -> bool {
        seq < self.seq_floor
    }

    /// Number of seqs the applied-seq mask remembers — at most
    /// [`APPLIED_SEQ_WINDOW`], one per bit.
    pub fn applied_seq_count(&self) -> usize {
        self.applied_seqs.count_ones() as usize
    }

    /// Has the non-zero grant for `seq` already been applied? True for
    /// seqs in the dedup set *or* below the floor (everything below the
    /// floor is treated as already paid). Hosts use this to recognise a
    /// redelivered grant *before* handing it to
    /// [`on_grant`](LocalDecider::on_grant), e.g. to avoid double-reporting
    /// a resolution the first delivery already reported.
    pub fn is_applied_seq(&self, seq: u64) -> bool {
        seq < self.seq_floor || self.applied_seqs & self.applied_bit(seq) != 0
    }

    /// The `applied_seqs` bit for `seq` (at or above the floor), or zero
    /// when `seq` lies beyond the window — a seq this decider has not
    /// issued yet, which is never marked applied.
    fn applied_bit(&self, seq: u64) -> u64 {
        let offset = seq - self.seq_floor;
        if offset < APPLIED_SEQ_WINDOW {
            1 << offset
        } else {
            0
        }
    }

    /// The predictive policy's current demand forecast ([`Power::ZERO`]
    /// until the first iteration, and always zero under other policies).
    pub fn forecast(&self) -> Power {
        self.forecast
    }

    /// Tell the liveness layer a reply (grant) arrived from `peer`: any
    /// timeout streak resets and an active suspicion is cleared.
    pub fn note_peer_reply(&mut self, now: SimTime, peer: NodeId) {
        self.timeout_streaks.remove(&peer);
        if self.suspected.remove(&peer).is_some() {
            self.emit(now, || EventKind::PeerCleared { peer });
        }
    }

    /// Is `peer` currently filtered out of partner selection? True while a
    /// suspicion is younger than `probe_interval`; after that the peer is
    /// eligible again (one probe request gets through) even though the
    /// suspicion entry survives until a reply clears it.
    pub fn is_suspected(&self, now: SimTime, peer: NodeId) -> bool {
        match self.suspected.get(&peer) {
            Some(s) => now.saturating_since(s.since) < self.cfg.probe_interval,
            None => false,
        }
    }

    /// True iff a suspicion of `peer` has outlived `probe_interval` and
    /// is awaiting its probe: a request sent to `peer` now is the probe
    /// that will either clear the suspicion (any reply) or re-confirm it
    /// (another timeout).
    pub fn is_probing(&self, now: SimTime, peer: NodeId) -> bool {
        match self.suspected.get(&peer) {
            Some(s) => now.saturating_since(s.since) >= self.cfg.probe_interval,
            None => false,
        }
    }

    /// True iff any peer is currently filtered by suspicion — the fast
    /// path gate partner selection uses to keep fault-free runs on the
    /// paper's single blind-uniform draw. Costs O(suspected), which is
    /// zero on a fault-free run.
    pub fn suspicion_active(&self, now: SimTime) -> bool {
        self.suspected
            .values()
            .any(|s| now.saturating_since(s.since) < self.cfg.probe_interval)
    }

    /// Number of peers this decider currently holds a suspicion entry for
    /// (active or awaiting clearance) — the observable the convergence
    /// tests count.
    pub fn suspected_count(&self) -> usize {
        self.suspected.len()
    }

    /// This decider's own incarnation counter: the persistent seq-epoch
    /// floor. Monotone within a life (the applied-seq window only ever
    /// advances it) and raised past the pre-crash `next_seq` watermark on
    /// every rebirth, so a digest carrying it is proof of how recently its
    /// sender was (re)alive.
    pub fn incarnation(&self) -> u64 {
        self.seq_floor
    }

    /// Build the suspicion digest to piggyback on an outgoing grant or
    /// ack, or `None` when there is nothing worth saying (gossip disabled,
    /// or no suspicions held and a zero incarnation). Entries come in
    /// peer-id order (the suspicion map is ordered) and are truncated to
    /// the configured bound, so every substrate produces the identical
    /// digest from identical state.
    pub fn make_digest(&self) -> Option<Box<SuspicionDigest>> {
        let limit = self.cfg.gossip_digest.min(MAX_DIGEST_ENTRIES);
        if limit == 0 || (self.suspected.is_empty() && self.seq_floor == 0) {
            return None;
        }
        let entries: Vec<SuspicionEntry> = self
            .suspected
            .iter()
            .take(limit)
            .map(|(&peer, s)| SuspicionEntry {
                peer,
                incarnation: s.incarnation,
            })
            .collect();
        Some(Box::new(SuspicionDigest {
            incarnation: self.seq_floor,
            entries,
        }))
    }

    /// Merge a digest piggybacked on a message from `src` (call *before*
    /// [`note_peer_reply`](LocalDecider::note_peer_reply) so refutations
    /// are attributed to incarnation evidence, not the reply itself).
    ///
    /// Three rules, in order:
    /// 1. The digest is firsthand proof `src` is alive at its carried
    ///    incarnation: record it, and drop any suspicion of `src` formed
    ///    against an older incarnation (`SuspicionRefuted`).
    /// 2. An entry about a peer whose known incarnation is newer than the
    ///    entry's is stale: never adopted, and it *clears* a matching
    ///    stale suspicion rather than refreshing it — this is what stops
    ///    old suspicion of a rejoined node circulating forever.
    /// 3. A fresh entry about an unsuspected peer is adopted secondhand
    ///    (`SuspicionGossiped`): the whole point — one node's timeout
    ///    schedule warns the entire cluster within a gossip round or two.
    ///
    /// A no-op when gossip is disabled (`gossip_digest == 0`), so the
    /// with/without comparison isolates exactly the dissemination layer.
    pub fn observe_digest(&mut self, now: SimTime, src: NodeId, digest: &SuspicionDigest) {
        if self.cfg.gossip_digest == 0 {
            return;
        }
        let known_src = self.known_incarnations.entry(src).or_insert(0);
        if digest.incarnation > *known_src {
            *known_src = digest.incarnation;
        }
        if let Some(s) = self.suspected.get(&src) {
            if digest.incarnation > s.incarnation {
                self.suspected.remove(&src);
                self.timeout_streaks.remove(&src);
                self.emit(now, || EventKind::SuspicionRefuted { peer: src });
            }
        }
        for entry in digest.entries.iter().take(MAX_DIGEST_ENTRIES) {
            let peer = entry.peer;
            if peer == self.node || peer == src {
                // No one may gossip us into suspecting ourselves, and a
                // sender's claim about itself is nonsense.
                continue;
            }
            let known = self.known_incarnations.get(&peer).copied().unwrap_or(0);
            if entry.incarnation < known {
                // Stale: the peer has provably re-incarnated since this
                // suspicion was formed.
                if self
                    .suspected
                    .get(&peer)
                    .is_some_and(|s| s.incarnation < known)
                {
                    self.suspected.remove(&peer);
                    self.timeout_streaks.remove(&peer);
                    self.emit(now, || EventKind::SuspicionRefuted { peer });
                }
                continue;
            }
            if entry.incarnation > known {
                self.known_incarnations.insert(peer, entry.incarnation);
            }
            match self.suspected.get_mut(&peer) {
                Some(s) => {
                    // Already suspected: upgrade the stamp if the gossip is
                    // fresher (keeping the original probe clock), so the
                    // suspicion is not clear-then-reinfect flapped when a
                    // stale copy of it arrives later.
                    s.incarnation = s.incarnation.max(entry.incarnation);
                }
                None => {
                    self.suspected.insert(
                        peer,
                        Suspicion {
                            since: now,
                            incarnation: entry.incarnation,
                        },
                    );
                    self.emit(now, || EventKind::SuspicionGossiped { peer, via: src });
                }
            }
        }
    }

    /// Consecutive unanswered requests to `peer` (zero after any reply).
    pub fn peer_timeout_streak(&self, peer: NodeId) -> u32 {
        self.timeout_streaks.get(&peer).copied().unwrap_or(0)
    }

    /// One request to `peer` timed out (retransmit fired or the request
    /// was abandoned): extend the streak and suspect the peer once the
    /// streak reaches `suspect_after`.
    fn note_peer_timeout(&mut self, now: SimTime, peer: NodeId) {
        if self.cfg.suspect_after == 0 {
            return; // liveness layer disabled
        }
        let streak = self.timeout_streaks.entry(peer).or_insert(0);
        *streak += 1;
        if *streak >= self.cfg.suspect_after {
            let fresh = !self.suspected.contains_key(&peer);
            // Record the suspicion against the newest incarnation we know
            // for the peer, so gossip recipients can judge its freshness.
            let incarnation = self.known_incarnations.get(&peer).copied().unwrap_or(0);
            self.suspected.insert(
                peer,
                Suspicion {
                    since: now,
                    incarnation,
                },
            ); // refresh the probe clock
            if fresh {
                self.emit(now, || EventKind::PeerSuspected { peer });
            }
        }
    }

    /// Would a request sent right now be urgent? (Power-hungry is assumed;
    /// urgency additionally requires being below the initial cap.)
    pub fn is_below_initial(&self) -> bool {
        self.cap < self.initial_cap
    }

    /// Earliest future time at which [`tick`](LocalDecider::tick) could do
    /// anything beyond counting one iteration and returning
    /// [`TickAction::Idle`] — or `None` when the very next tick may act.
    ///
    /// Two decider states are *quiescent*:
    ///
    /// * **Blocked, deadline pending** — a request is in flight and its
    ///   attempt-scaled timeout has not elapsed. Every tick strictly
    ///   before `sent_at + response_timeout · 2^attempt` takes the early
    ///   `Idle` return in [`tick`](LocalDecider::tick) without touching
    ///   any state, so the decider is quiescent until exactly that
    ///   deadline (the tick *at* the deadline retransmits or abandons).
    /// * **At the margin** — no request outstanding and
    ///   [`classify`]`(reading, cap, ε)` is
    ///   [`AtMargin`](Classification::AtMargin): Algorithm 1's strict
    ///   comparisons leave the node unclassified and the iteration is a
    ///   pure no-op, for as long as the reading holds —
    ///   [`SimTime::MAX`].
    ///
    /// A host eliding ticks across such a window must keep the lifetime
    /// counters truthful with
    /// [`note_elided_ticks`](LocalDecider::note_elided_ticks) and must
    /// re-evaluate quiescence on *any* other input (reading change, cap
    /// change, grant, incoming request, digest): quiescence is a
    /// statement about ticks under frozen inputs, nothing more. Excess
    /// and hungry classifications are never quiescent, and the
    /// margin case assumes tracing is off (the skipped `Classified`
    /// emissions are observable) — observer-bearing hosts must not elide.
    #[inline]
    pub fn quiescent_until(&self, now: SimTime, reading: Power) -> Option<SimTime> {
        if let Some(out) = self.outstanding {
            let wait = self.cfg.response_timeout * (1u64 << out.attempt.min(16));
            let due = out.sent_at + wait;
            return (now < due).then_some(due);
        }
        if matches!(self.cfg.policy, DeciderPolicy::Predictive(_)) {
            // Every executed predictive iteration moves the forecast EWMA,
            // so an unblocked tick is never a pure no-op — even at the
            // margin. (Blocked ticks early-return before the forecast
            // update, which is what keeps the branch above sound.)
            return None;
        }
        (classify(reading, self.cap, self.cfg.epsilon) == Classification::AtMargin)
            .then_some(SimTime::MAX)
    }

    /// Account `n` ticks a host elided after proving them quiescent via
    /// [`quiescent_until`](LocalDecider::quiescent_until). Each elided
    /// tick would have executed as a pure `Idle` iteration, so only the
    /// iteration counter moves — every other observable is untouched by
    /// construction.
    #[inline]
    pub fn note_elided_ticks(&mut self, n: u64) {
        self.stats.ticks += n;
    }

    /// One iteration of Algorithm 1.
    ///
    /// * `now` — current virtual time.
    /// * `reading` — average power since the previous tick.
    /// * `pool` — the co-located power pool.
    /// * `peer` — a peer chosen uniformly at random by the host (or `None`
    ///   if no peer is reachable); consulted only if a request is needed.
    pub fn tick(
        &mut self,
        now: SimTime,
        reading: Power,
        pool: &mut PowerPool,
        peer: Option<NodeId>,
    ) -> TickAction {
        self.stats.ticks += 1;

        // A decider blocked on an in-flight request does not iterate; once
        // the (attempt-scaled) timeout passes the request is retransmitted
        // verbatim while attempts remain, then abandoned.
        if let Some(out) = self.outstanding {
            let wait = self.cfg.response_timeout * (1u64 << out.attempt.min(16));
            if now.saturating_since(out.sent_at) >= wait {
                // Every elapsed wait (retransmit or abandonment) is one
                // timeout signal against the peer the request went to.
                self.note_peer_timeout(now, out.dst);
                if out.attempt < self.cfg.max_retransmits {
                    self.outstanding = Some(Outstanding {
                        sent_at: now,
                        attempt: out.attempt + 1,
                        ..out
                    });
                    self.stats.retransmits += 1;
                    self.emit(now, || EventKind::RequestSent {
                        dst: out.dst,
                        urgent: out.urgent,
                        alpha: out.alpha,
                        seq: out.seq,
                    });
                    return TickAction::Request {
                        dst: out.dst,
                        urgent: out.urgent,
                        alpha: out.alpha,
                        bid: out.bid,
                        seq: out.seq,
                    };
                }
                self.outstanding = None;
                self.stats.timeouts += 1;
                self.emit(now, || EventKind::RequestTimeout { seq: out.seq });
            } else {
                return TickAction::Idle;
            }
        }

        // The planning reading is what the policy classifies and sheds
        // against. Urgency and market plan on the raw reading (Algorithm 1
        // verbatim); the predictive policy plans on `max(reading,
        // forecast)` so it sheds only down to forecast demand and goes
        // hungry *before* a predicted rise throttles it.
        let planning = match self.cfg.policy {
            DeciderPolicy::Predictive(p) => {
                self.update_forecast(now, reading, p);
                reading.max(self.forecast)
            }
            _ => reading,
        };

        let classification = classify(planning, self.cap, self.cfg.epsilon);
        let cap_before = self.cap;
        self.emit(now, || EventKind::Classified {
            class: classification.as_trace(),
            reading,
            cap: cap_before,
        });
        let action = match classification {
            Classification::Excess => {
                // Δ = C − P; lower the cap *before* exposing the power.
                // The safe range floors the new cap; only what was actually
                // shed is deposited, keeping the exchange zero-sum. An
                // optional headroom parks the cap above the reading (never
                // above the current cap).
                let new_cap = (planning + self.cfg.shed_headroom)
                    .min(self.cap)
                    .max(self.safe.min());
                let freed = self.cap.saturating_sub(new_cap);
                self.cap = new_cap;
                pool.deposit(freed);
                self.stats.deposited += freed;
                let pool_after = pool.available();
                self.emit(now, || EventKind::PoolDeposit {
                    amount: freed,
                    pool: pool_after,
                });
                TickAction::Deposited(freed)
            }
            Classification::Hungry => {
                if !pool.available().is_zero() {
                    // Local pool first: Δ = min(Pool, getMaxSize(Pool)).
                    let delta = pool.take_local();
                    let pool_after = pool.available();
                    self.emit(now, || EventKind::PoolWithdraw {
                        amount: delta,
                        pool: pool_after,
                    });
                    let applied = self.raise_cap(now, delta, pool);
                    TickAction::TookLocal(applied)
                } else if let Some(dst) = peer {
                    let (urgent, alpha, bid) = self.request_shape(planning);
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.outstanding = Some(Outstanding {
                        seq,
                        sent_at: now,
                        dst,
                        urgent,
                        alpha,
                        bid,
                        attempt: 0,
                    });
                    self.stats.requests_sent += 1;
                    if urgent {
                        self.stats.urgent_sent += 1;
                    }
                    if !bid.is_zero() {
                        self.emit(now, || EventKind::BidPlaced { seq, bid });
                    }
                    self.emit(now, || EventKind::RequestSent {
                        dst,
                        urgent,
                        alpha,
                        seq,
                    });
                    TickAction::Request {
                        dst,
                        urgent,
                        alpha,
                        bid,
                        seq,
                    }
                } else {
                    TickAction::Idle
                }
            }
            Classification::AtMargin => TickAction::Idle,
        };

        self.finish_iteration(now, classification, pool);
        action
    }

    /// Deliver a pool's grant. Returns the amount applied to the cap; any
    /// surplus beyond the safe maximum is re-deposited locally so no budget
    /// leaks. Grants arriving after the timeout are still honoured (the
    /// power was already debited from the sender's pool).
    ///
    /// Idempotent per `seq`: a lossy transport can deliver the same
    /// non-zero grant twice (the granter re-sends its escrowed amount when
    /// a retransmitted request races the original grant); the redelivery is
    /// discarded and contributes nothing, so one debit can never pay twice.
    pub fn on_grant(
        &mut self,
        now: SimTime,
        seq: u64,
        amount: Power,
        pool: &mut PowerPool,
    ) -> Power {
        if seq < self.seq_floor {
            // Stale epoch: a pre-crash grant addressed to this node's dead
            // predecessor, or a redelivery older than the applied window.
            // Either way the seq is treated as already paid; the host books
            // the amount as lost (see `is_stale_grant`).
            self.stats.stale_discards += 1;
            return Power::ZERO;
        }
        if !amount.is_zero() {
            if self.applied_seqs & self.applied_bit(seq) != 0 {
                return Power::ZERO; // duplicate redelivery; already paid
            }
            // Low-watermark slide: everything below the window is rejected
            // by the floor check above, so remembering it exactly is
            // redundant — the mask shifts with the floor and stays one
            // word, not O(lifetime).
            let floor = self.next_seq.saturating_sub(APPLIED_SEQ_WINDOW);
            if floor > self.seq_floor {
                let shift = floor - self.seq_floor;
                self.applied_seqs = if shift < APPLIED_SEQ_WINDOW {
                    self.applied_seqs >> shift
                } else {
                    0
                };
                self.seq_floor = floor;
            }
            // A seq the slide just passed is paid by this call and then
            // rejected by the floor check, exactly like its neighbours.
            if seq >= self.seq_floor {
                self.applied_seqs |= self.applied_bit(seq);
            }
        }
        if let Some(out) = self.outstanding {
            if out.seq == seq {
                self.outstanding = None;
            }
        }
        self.stats.granted += amount;
        let applied = self.raise_cap(now, amount, pool);
        self.emit(now, || EventKind::GrantApplied {
            seq,
            granted: amount,
            applied,
        });
        applied
    }

    /// Shape a fresh peer request under the active policy: (urgent, α, bid).
    fn request_shape(&self, planning: Power) -> (bool, Power, Power) {
        match self.cfg.policy {
            DeciderPolicy::Urgency => {
                // Algorithm 1 verbatim: urgent iff below the initial cap,
                // α only rides on urgent requests.
                let urgent = self.cfg.enable_urgency && self.cap < self.initial_cap;
                let alpha = if urgent {
                    self.initial_cap - self.cap
                } else {
                    Power::ZERO
                };
                (urgent, alpha, Power::ZERO)
            }
            DeciderPolicy::Predictive(_) => {
                // Same urgency rule, but α covers the forecast shortfall
                // too: an urgent request may ask past the initial cap when
                // the forecast says demand is headed there, and a
                // non-urgent request still advertises the predicted
                // deficit as a sizing hint.
                let urgent = self.cfg.enable_urgency && self.cap < self.initial_cap;
                let deficit = planning.saturating_sub(self.cap);
                let alpha = if urgent {
                    (self.initial_cap - self.cap).max(deficit)
                } else {
                    deficit
                };
                (urgent, alpha, Power::ZERO)
            }
            DeciderPolicy::Market(m) => {
                // Never urgent — the price replaces the inducement. The bid
                // grows with deprivation below the initial assignment, so
                // under scarcity the worst-off node outbids its peers; α
                // carries the shortfall as the granter's clearing clamp.
                let deficit = self.initial_cap.saturating_sub(self.cap);
                let alpha = deficit.max(self.cfg.epsilon);
                (false, alpha, m.base_bid + deficit)
            }
        }
    }

    /// Predictive policy: advance the demand forecast by one iteration.
    /// Integer EWMA towards the reading, except that a phase-change-sized
    /// step (or the very first reading) snaps the forecast straight there.
    fn update_forecast(&mut self, now: SimTime, reading: Power, cfg: PredictiveConfig) {
        let jumped = match self.prev_reading {
            None => true, // bootstrap: adopt the first reading silently
            Some(prev) => {
                if reading.abs_diff(prev) >= cfg.jump_threshold {
                    let forecast_before = self.forecast;
                    self.emit(now, || EventKind::ForecastJump {
                        forecast: forecast_before,
                        reading,
                    });
                    true
                } else {
                    false
                }
            }
        };
        if jumped {
            self.forecast = reading;
        } else {
            let w = u64::from(cfg.ewma_permille.min(1000));
            let mixed = (reading.milliwatts() * w + self.forecast.milliwatts() * (1000 - w)) / 1000;
            self.forecast = Power::from_milliwatts(mixed);
        }
        self.prev_reading = Some(reading);
    }

    /// Raise the cap by `delta`, clamped to the safe maximum; overflow goes
    /// back into the local pool.
    fn raise_cap(&mut self, now: SimTime, delta: Power, pool: &mut PowerPool) -> Power {
        let new_cap = (self.cap + delta).min(self.safe.max());
        let applied = new_cap - self.cap;
        let overflow = delta - applied;
        self.cap = new_cap;
        if !overflow.is_zero() {
            pool.deposit(overflow);
            let pool_after = pool.available();
            self.emit(now, || EventKind::PoolDeposit {
                amount: overflow,
                pool: pool_after,
            });
        }
        applied
    }

    /// Algorithm 1's final step: if the co-located pool served an urgent
    /// request, release power down to the initial cap — unless this node is
    /// itself urgent, in which case the flag persists until it is not.
    fn finish_iteration(
        &mut self,
        now: SimTime,
        classification: Classification,
        pool: &mut PowerPool,
    ) {
        if !pool.local_urgency() {
            return;
        }
        let self_urgent = classification == Classification::Hungry && self.cap < self.initial_cap;
        if self_urgent {
            return;
        }
        let _ = pool.consume_local_urgency();
        let mut released = Power::ZERO;
        if self.cap > self.initial_cap {
            let delta = self.cap - self.initial_cap;
            self.cap = self.initial_cap;
            pool.deposit(delta);
            self.stats.urgency_released += delta;
            released = delta;
            let pool_after = pool.available();
            self.emit(now, || EventKind::PoolDeposit {
                amount: delta,
                pool: pool_after,
            });
        }
        self.emit(now, || EventKind::UrgencyCleared { released });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_units::SimDuration;
    use proptest::prelude::*;

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn mw(x: u64) -> Power {
        Power::from_milliwatts(x)
    }

    fn safe() -> PowerRange {
        PowerRange::from_watts(80, 300)
    }

    fn decider(initial_w: u64) -> LocalDecider {
        LocalDecider::new(DeciderConfig::default(), w(initial_w), safe())
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn classify_matches_algorithm_one() {
        let eps = w(5);
        assert_eq!(classify(w(100), w(150), eps), Classification::Excess);
        assert_eq!(classify(w(146), w(150), eps), Classification::Hungry);
        assert_eq!(classify(w(150), w(150), eps), Classification::Hungry);
        assert_eq!(classify(w(145), w(150), eps), Classification::AtMargin);
    }

    #[test]
    fn classify_handles_epsilon_larger_than_cap() {
        // ε > C: P + ε > C for any P ≥ 0 unless... P + ε can equal C only
        // if ε ≤ C. Here every reading is hungry.
        assert_eq!(classify(Power::ZERO, w(3), w(5)), Classification::Hungry);
    }

    #[test]
    fn quiescent_at_margin_is_open_ended_and_tick_agrees() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        let margin = w(150) - d.config().epsilon;
        assert_eq!(d.quiescent_until(t(1), margin), Some(SimTime::MAX));
        // The vouched-for tick really is a pure Idle no-op.
        let before = d.stats();
        assert_eq!(
            d.tick(t(1), margin, &mut p, Some(NodeId::new(3))),
            TickAction::Idle
        );
        assert_eq!(d.cap(), w(150));
        assert_eq!(p.available(), Power::ZERO);
        assert_eq!(d.stats().ticks, before.ticks + 1);
        assert_eq!(d.stats().requests_sent, before.requests_sent);
        // Off the margin, quiescence ends immediately.
        assert_eq!(d.quiescent_until(t(1), w(100)), None);
        assert_eq!(d.quiescent_until(t(1), w(150)), None);
    }

    #[test]
    fn quiescent_while_blocked_ends_exactly_at_the_retransmit_deadline() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        // Go hungry with an empty pool: a request goes out at t=1.
        assert!(matches!(
            d.tick(t(1), w(150), &mut p, Some(NodeId::new(4))),
            TickAction::Request { .. }
        ));
        let due = t(1) + d.config().response_timeout;
        assert_eq!(d.quiescent_until(t(1), w(150)), Some(due));
        let just_before = due - SimDuration::from_nanos(1);
        assert_eq!(d.quiescent_until(just_before, w(150)), Some(due));
        // At the deadline the tick acts (retransmit/abandon): not quiescent.
        assert_eq!(d.quiescent_until(due, w(150)), None);
        // Eliding the in-window ticks matches really executing them:
        // each is a counted Idle.
        let mut ticked = d.clone();
        for step in 1..=3u64 {
            let at = t(1) + SimDuration::from_millis(step);
            assert!(at < due, "steps stay inside the window");
            assert_eq!(
                ticked.tick(at, w(150), &mut p, Some(NodeId::new(4))),
                TickAction::Idle
            );
        }
        d.note_elided_ticks(3);
        assert_eq!(d.stats(), ticked.stats());
        assert_eq!(d.cap(), ticked.cap());
        assert_eq!(d.is_blocked(), ticked.is_blocked());
    }

    #[test]
    fn excess_lowers_cap_to_reading_and_deposits() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        let action = d.tick(t(1), w(100), &mut p, None);
        assert_eq!(action, TickAction::Deposited(w(50)));
        assert_eq!(d.cap(), w(100));
        assert_eq!(p.available(), w(50));
    }

    #[test]
    fn excess_respects_safe_floor() {
        let mut d = decider(100);
        let mut p = PowerPool::default();
        // Reading 20 W but safe floor is 80 W: cap stops at 80, only 20 W freed.
        let action = d.tick(t(1), w(20), &mut p, None);
        assert_eq!(action, TickAction::Deposited(w(20)));
        assert_eq!(d.cap(), w(80));
        assert_eq!(p.available(), w(20));
    }

    #[test]
    fn hungry_takes_from_local_pool_first() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        p.deposit(w(200));
        let action = d.tick(t(1), w(148), &mut p, Some(NodeId::new(9)));
        // 10% of 200 = 20 W taken locally; no network request.
        assert_eq!(action, TickAction::TookLocal(w(20)));
        assert_eq!(d.cap(), w(170));
        assert_eq!(p.available(), w(180));
    }

    #[test]
    fn hungry_with_empty_pool_sends_request() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        let action = d.tick(t(1), w(149), &mut p, Some(NodeId::new(4)));
        match action {
            TickAction::Request {
                dst,
                urgent,
                alpha,
                bid,
                seq,
            } => {
                assert_eq!(dst, NodeId::new(4));
                assert!(!urgent); // at initial cap, not below it
                assert_eq!(alpha, Power::ZERO);
                assert_eq!(bid, Power::ZERO); // urgency policy never bids
                assert_eq!(seq, 0);
            }
            other => panic!("expected request, got {other:?}"),
        }
        assert!(d.is_blocked());
    }

    #[test]
    fn below_initial_request_is_urgent_with_alpha() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        // Drop the cap via an excess tick.
        let _ = d.tick(t(1), w(100), &mut p, None);
        p.drain(); // pretend another node took the excess
        let action = d.tick(t(2), w(100), &mut p, Some(NodeId::new(2)));
        match action {
            TickAction::Request { urgent, alpha, .. } => {
                assert!(urgent);
                assert_eq!(alpha, w(50)); // 150 − 100
            }
            other => panic!("expected urgent request, got {other:?}"),
        }
    }

    #[test]
    fn hungry_with_no_peer_is_idle() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        assert_eq!(d.tick(t(1), w(150), &mut p, None), TickAction::Idle);
        assert!(!d.is_blocked());
    }

    #[test]
    fn at_margin_is_idle() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        assert_eq!(d.tick(t(1), w(145), &mut p, None), TickAction::Idle);
        assert_eq!(d.cap(), w(150));
    }

    #[test]
    fn blocked_decider_skips_iterations_until_timeout() {
        let cfg = DeciderConfig {
            response_timeout: SimDuration::from_secs(2),
            ..Default::default()
        };
        let mut d = LocalDecider::new(cfg, w(150), safe());
        let mut p = PowerPool::default();
        let _ = d.tick(t(1), w(150), &mut p, Some(NodeId::new(1)));
        assert!(d.is_blocked());
        // One second later: still blocked.
        assert_eq!(
            d.tick(t(2), w(150), &mut p, Some(NodeId::new(1))),
            TickAction::Idle
        );
        // Two more seconds: timeout expired; decider resumes and re-requests.
        let action = d.tick(t(3), w(150), &mut p, Some(NodeId::new(2)));
        assert!(
            matches!(action, TickAction::Request { seq: 1, .. }),
            "{action:?}"
        );
        assert_eq!(d.stats().timeouts, 1);
    }

    #[test]
    fn grant_raises_cap_and_unblocks() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        let TickAction::Request { seq, .. } = d.tick(t(1), w(150), &mut p, Some(NodeId::new(1)))
        else {
            panic!("expected request")
        };
        let applied = d.on_grant(t(2), seq, w(20), &mut p);
        assert_eq!(applied, w(20));
        assert_eq!(d.cap(), w(170));
        assert!(!d.is_blocked());
    }

    #[test]
    fn zero_grant_unblocks_without_cap_change() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        let TickAction::Request { seq, .. } = d.tick(t(1), w(150), &mut p, Some(NodeId::new(1)))
        else {
            panic!("expected request")
        };
        assert_eq!(d.on_grant(t(2), seq, Power::ZERO, &mut p), Power::ZERO);
        assert_eq!(d.cap(), w(150));
        assert!(!d.is_blocked());
    }

    #[test]
    fn grant_overflow_beyond_safe_max_is_redeposited() {
        let mut d = decider(290);
        let mut p = PowerPool::default();
        let TickAction::Request { seq, .. } = d.tick(t(1), w(290), &mut p, Some(NodeId::new(1)))
        else {
            panic!("expected request")
        };
        let applied = d.on_grant(t(2), seq, w(30), &mut p);
        assert_eq!(applied, w(10)); // 290 → 300 (safe max)
        assert_eq!(d.cap(), w(300));
        assert_eq!(p.available(), w(20)); // surplus conserved locally
    }

    #[test]
    fn late_grant_after_timeout_still_applied() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        let TickAction::Request { seq, .. } = d.tick(t(1), w(150), &mut p, Some(NodeId::new(1)))
        else {
            panic!("expected request")
        };
        // Timeout passes; decider re-iterates.
        let _ = d.tick(t(3), w(100), &mut p, None);
        let cap_before = d.cap();
        let applied = d.on_grant(t(4), seq, w(7), &mut p);
        assert_eq!(applied, w(7));
        assert_eq!(d.cap(), cap_before + w(7));
    }

    #[test]
    fn timed_out_request_is_retransmitted_with_backoff() {
        let cfg = DeciderConfig {
            max_retransmits: 2,
            ..Default::default()
        };
        let mut d = LocalDecider::new(cfg, w(150), safe());
        let mut p = PowerPool::default();
        let TickAction::Request { seq, dst, .. } =
            d.tick(t(1), w(150), &mut p, Some(NodeId::new(1)))
        else {
            panic!("expected request")
        };
        assert_eq!(seq, 0);
        // First timeout (1 s): retransmit, same seq, same dst.
        let a = d.tick(t(2), w(150), &mut p, Some(NodeId::new(7)));
        assert_eq!(
            a,
            TickAction::Request {
                dst,
                urgent: false,
                alpha: Power::ZERO,
                bid: Power::ZERO,
                seq: 0
            },
            "retransmit must reuse the original seq and dst"
        );
        // Backoff doubled: one second later it is still waiting...
        assert_eq!(d.tick(t(3), w(150), &mut p, None), TickAction::Idle);
        // ...but two seconds after the retransmit it fires again.
        let a = d.tick(t(4), w(150), &mut p, None);
        assert!(matches!(a, TickAction::Request { seq: 0, .. }), "{a:?}");
        // Attempts exhausted: 4 s of backoff, then a plain timeout and a
        // fresh request with the next seq.
        assert_eq!(d.tick(t(6), w(150), &mut p, None), TickAction::Idle);
        let a = d.tick(t(8), w(150), &mut p, Some(NodeId::new(1)));
        assert!(matches!(a, TickAction::Request { seq: 1, .. }), "{a:?}");
        let s = d.stats();
        assert_eq!(s.retransmits, 2);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.requests_sent, 2, "retransmits are not new requests");
    }

    #[test]
    fn duplicate_nonzero_grant_is_discarded() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        let TickAction::Request { seq, .. } = d.tick(t(1), w(150), &mut p, Some(NodeId::new(1)))
        else {
            panic!("expected request")
        };
        assert_eq!(d.on_grant(t(2), seq, w(20), &mut p), w(20));
        let cap = d.cap();
        let granted = d.stats().granted;
        // The transport redelivers the same grant: nothing may change.
        assert_eq!(d.on_grant(t(3), seq, w(20), &mut p), Power::ZERO);
        assert_eq!(d.cap(), cap);
        assert_eq!(p.available(), Power::ZERO);
        assert_eq!(d.stats().granted, granted);
    }

    #[test]
    fn zero_grants_are_not_deduplicated() {
        // A zero "reminder" grant unblocks without marking the seq as paid,
        // so the real (late) grant still applies — the late-grant guarantee
        // survives the idempotence layer.
        let mut d = decider(150);
        let mut p = PowerPool::default();
        let TickAction::Request { seq, .. } = d.tick(t(1), w(150), &mut p, Some(NodeId::new(1)))
        else {
            panic!("expected request")
        };
        assert_eq!(d.on_grant(t(2), seq, Power::ZERO, &mut p), Power::ZERO);
        assert!(!d.is_blocked());
        assert_eq!(d.on_grant(t(3), seq, w(9), &mut p), w(9));
        assert_eq!(d.cap(), w(159));
    }

    #[test]
    fn local_urgency_triggers_release_to_initial() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        // Raise the cap above initial via a local take.
        p.deposit(w(300));
        let _ = d.tick(t(1), w(150), &mut p, None); // takes 30 W → cap 180
        assert_eq!(d.cap(), w(180));
        // A peer's urgent request hits our pool.
        let _ = p.handle_request(true, w(50));
        // Next iteration at the margin (reading = cap − ε = 175): the node
        // is not itself urgent → must release down to 150.
        let before_pool = p.available();
        let _ = d.tick(t(2), w(175), &mut p, None);
        assert_eq!(d.cap(), w(150));
        assert_eq!(p.available(), before_pool + w(30));
        assert_eq!(d.stats().urgency_released, w(30));
        assert!(!p.local_urgency());
    }

    #[test]
    fn urgent_node_does_not_release_and_flag_persists() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        // Cap below initial: excess tick down to 100 W.
        let _ = d.tick(t(1), w(100), &mut p, None);
        p.drain();
        // Peer urgent request sets our flag.
        let _ = p.handle_request(true, w(10));
        // We are hungry below initial (urgent ourselves): no release.
        let action = d.tick(t(2), w(100), &mut p, Some(NodeId::new(1)));
        assert!(matches!(action, TickAction::Request { urgent: true, .. }));
        assert_eq!(d.cap(), w(100));
        assert!(p.local_urgency(), "flag persists while self-urgent");
    }

    #[test]
    fn release_noop_when_at_or_below_initial_clears_flag() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        let _ = p.handle_request(true, w(10)); // sets flag, pool empty
        let _ = d.tick(t(1), w(145), &mut p, None); // at margin, cap == initial
        assert_eq!(d.cap(), w(150));
        assert!(
            !p.local_urgency(),
            "flag cleared even though nothing to release"
        );
    }

    #[test]
    fn initial_cap_clamped_to_safe_range() {
        let d = LocalDecider::new(DeciderConfig::default(), w(999), safe());
        assert_eq!(d.cap(), w(300));
        assert_eq!(d.initial_cap(), w(300));
        let d = LocalDecider::new(DeciderConfig::default(), w(1), safe());
        assert_eq!(d.initial_cap(), w(80));
    }

    #[test]
    fn stats_accumulate() {
        let mut d = decider(150);
        let mut p = PowerPool::default();
        let _ = d.tick(t(1), w(100), &mut p, None); // deposit 50 → cap 100
        let _ = d.tick(t(2), w(100), &mut p, Some(NodeId::new(1))); // hungry: local take (5 W) → cap 105
        p.drain();
        let a = d.tick(t(3), w(102), &mut p, Some(NodeId::new(1))); // hungry below initial → urgent request
        assert!(matches!(a, TickAction::Request { urgent: true, .. }));
        let s = d.stats();
        assert_eq!(s.ticks, 3);
        assert_eq!(s.deposited, w(50));
        assert_eq!(s.requests_sent, 1);
        assert_eq!(s.urgent_sent, 1);
    }

    #[test]
    fn observer_sees_the_full_iteration_narrative() {
        use penelope_trace::{EventKind, NodeClass, RingBufferObserver};
        use std::sync::Arc;

        let ring = Arc::new(RingBufferObserver::unbounded());
        let mut d = decider(150).with_observer(NodeId::new(3), ring.clone().into());
        let mut p = PowerPool::default();

        // Excess tick: classified + deposit.
        let _ = d.tick(t(1), w(100), &mut p, None);
        // Hungry tick with empty-ish pool drained: request sent.
        p.drain();
        let TickAction::Request { seq, .. } = d.tick(t(2), w(100), &mut p, Some(NodeId::new(1)))
        else {
            panic!("expected request")
        };
        // Grant applied.
        let _ = d.on_grant(t(3), seq, w(20), &mut p);

        let events = ring.events();
        assert!(events.iter().all(|e| e.node == NodeId::new(3)));
        let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
        assert!(matches!(
            kinds[0],
            EventKind::Classified {
                class: NodeClass::Excess,
                ..
            }
        ));
        assert!(matches!(kinds[1], EventKind::PoolDeposit { amount, .. } if amount == w(50)));
        assert!(matches!(
            kinds[2],
            EventKind::Classified {
                class: NodeClass::Hungry,
                ..
            }
        ));
        assert!(matches!(
            kinds[3],
            EventKind::RequestSent { urgent: true, .. }
        ));
        assert!(
            matches!(kinds[4], EventKind::GrantApplied { granted, applied, .. }
                if granted == w(20) && applied == w(20))
        );
        // Period stamps follow the 1 s default period.
        assert_eq!(events[0].period, 1);
        assert_eq!(events[4].period, 3);
    }

    #[test]
    fn observer_sees_timeout_and_urgency_clear() {
        use penelope_trace::{EventKind, RingBufferObserver};
        use std::sync::Arc;

        let ring = Arc::new(RingBufferObserver::unbounded());
        let mut d = decider(150).with_observer(NodeId::new(0), ring.clone().into());
        let mut p = PowerPool::default();
        let _ = d.tick(t(1), w(150), &mut p, Some(NodeId::new(1))); // request
        let _ = d.tick(t(3), w(145), &mut p, None); // timeout fires, then at-margin
        assert!(ring
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::RequestTimeout { seq: 0 })));

        // Urgency release: raise cap above initial, then a peer's urgent
        // request sets the flag; the release emits deposit + cleared.
        ring.take();
        p.deposit(w(300));
        let _ = d.tick(t(4), w(146), &mut p, None); // hungry: local take → cap 180
        let _ = p.handle_request(true, w(50));
        let _ = d.tick(t(5), w(175), &mut p, None); // at margin → release to 150
        let events = ring.events();
        let released: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::UrgencyCleared { released } => Some(released),
                _ => None,
            })
            .collect();
        assert_eq!(released, vec![w(30)]);
    }

    /// Reference model for the proptest below: one decider + one pool,
    /// arbitrary readings and grants, conservation must hold throughout.
    #[derive(Debug, Clone)]
    enum Op {
        Tick(u64),
        Grant(u64),
    }

    proptest! {
        #[test]
        fn cap_plus_pool_conserved_locally(
            ops in proptest::collection::vec(
                prop_oneof![
                    (0u64..400_000u64).prop_map(Op::Tick),
                    (0u64..50_000u64).prop_map(Op::Grant),
                ],
                1..300,
            )
        ) {
            // A closed single-node system where grants come from a budget
            // ledger: cap + pool + ledger is invariant and the cap stays in
            // the safe range.
            let mut d = decider(150);
            let mut p = PowerPool::default();
            let mut ledger = Power::from_watts_u64(10_000);
            let invariant = d.cap() + p.available() + ledger;
            let mut now = 0u64;
            let mut pending: Vec<(u64, Power)> = Vec::new();
            for op in ops {
                now += 1;
                match op {
                    Op::Tick(reading_mw) => {
                        let action = d.tick(
                            SimTime::from_secs(now),
                            mw(reading_mw),
                            &mut p,
                            Some(NodeId::new(1)),
                        );
                        if let TickAction::Request { seq, urgent, alpha, .. } = action {
                            // Serve from the ledger like a remote pool would.
                            let give = if urgent { ledger.min(alpha) } else { ledger.min(w(3)) };
                            ledger -= give;
                            pending.push((seq, give));
                        }
                    }
                    Op::Grant(extra_mw) => {
                        if let Some((seq, give)) = pending.pop() {
                            let _ = extra_mw;
                            let _ = d.on_grant(SimTime::from_secs(now), seq, give, &mut p);
                        }
                    }
                }
                let in_flight: Power = pending.iter().map(|&(_, g)| g).sum();
                prop_assert_eq!(d.cap() + p.available() + ledger + in_flight, invariant);
                prop_assert!(safe().contains(d.cap()));
            }
        }
    }
}

#[cfg(test)]
mod churn_tests {
    use super::*;
    use crate::config::DeciderConfig;
    use penelope_units::{PowerRange, SimDuration};

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn safe() -> PowerRange {
        PowerRange::from_watts(80, 300)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A decider that suspects after 2 consecutive timeouts, no
    /// retransmits, 1 s timeout, 8 s probe interval.
    fn suspicious() -> LocalDecider {
        let cfg = DeciderConfig {
            suspect_after: 2,
            ..Default::default()
        };
        LocalDecider::new(cfg, w(150), safe())
    }

    /// Drive one request→timeout round against `peer`.
    fn timeout_round(d: &mut LocalDecider, p: &mut PowerPool, now: &mut u64, peer: NodeId) {
        let a = d.tick(t(*now), w(150), p, Some(peer));
        assert!(matches!(a, TickAction::Request { .. }), "{a:?}");
        *now += 2; // past the 1 s response timeout
                   // The timeout fires at the top of this tick; the decider then
                   // re-classifies and may issue a fresh request, which we let expire
                   // on the next round.
        let _ = d.tick(t(*now), w(145), p, Some(peer)); // at margin after timeout
        *now += 1;
    }

    #[test]
    fn peer_suspected_after_consecutive_timeouts_and_cleared_by_reply() {
        let mut d = suspicious();
        let mut p = PowerPool::default();
        let peer = NodeId::new(1);
        let mut now = 1u64;
        timeout_round(&mut d, &mut p, &mut now, peer);
        assert_eq!(d.peer_timeout_streak(peer), 1);
        assert!(!d.is_suspected(t(now), peer), "one timeout is not enough");
        timeout_round(&mut d, &mut p, &mut now, peer);
        assert_eq!(d.peer_timeout_streak(peer), 2);
        assert!(d.is_suspected(t(now), peer));
        assert!(d.suspicion_active(t(now)));
        // Any reply clears both the streak and the suspicion.
        d.note_peer_reply(t(now), peer);
        assert!(!d.is_suspected(t(now), peer));
        assert_eq!(d.peer_timeout_streak(peer), 0);
        assert!(!d.suspicion_active(t(now)));
    }

    #[test]
    fn suspicion_expires_into_a_probe_after_the_interval() {
        let mut d = suspicious();
        let mut p = PowerPool::default();
        let peer = NodeId::new(2);
        let mut now = 1u64;
        timeout_round(&mut d, &mut p, &mut now, peer);
        timeout_round(&mut d, &mut p, &mut now, peer);
        let suspected_at = t(now);
        assert!(d.is_suspected(suspected_at, peer));
        // 8 s (the default probe interval) later the peer is eligible
        // again — but the suspicion entry survives, so no PeerCleared is
        // emitted and a reply still produces exactly one.
        let later = SimTime::from_secs(now + 20);
        assert!(!d.is_suspected(later, peer));
        assert!(!d.suspicion_active(later));
    }

    #[test]
    fn reply_resets_the_streak_below_threshold() {
        let mut d = suspicious();
        let mut p = PowerPool::default();
        let peer = NodeId::new(1);
        let mut now = 1u64;
        timeout_round(&mut d, &mut p, &mut now, peer);
        d.note_peer_reply(t(now), peer);
        timeout_round(&mut d, &mut p, &mut now, peer);
        assert_eq!(d.peer_timeout_streak(peer), 1);
        assert!(!d.is_suspected(t(now), peer), "streak was not consecutive");
    }

    #[test]
    fn retransmit_expiries_count_toward_the_streak() {
        // With retransmits enabled a single fully-abandoned request
        // signals several timeouts — a dead peer is suspected after one
        // abandoned request, not suspect_after of them.
        let cfg = DeciderConfig {
            max_retransmits: 2,
            suspect_after: 3,
            ..Default::default()
        };
        let mut d = LocalDecider::new(cfg, w(150), safe());
        let mut p = PowerPool::default();
        let peer = NodeId::new(4);
        let _ = d.tick(t(1), w(150), &mut p, Some(peer)); // request
        let _ = d.tick(t(2), w(150), &mut p, None); // retransmit 1
        let _ = d.tick(t(4), w(150), &mut p, None); // retransmit 2
        let _ = d.tick(t(8), w(145), &mut p, None); // abandoned
        assert_eq!(d.stats().timeouts, 1);
        assert_eq!(d.stats().retransmits, 2);
        assert_eq!(d.peer_timeout_streak(peer), 3);
        assert!(d.is_suspected(t(8), peer));
    }

    #[test]
    fn seq_floor_discards_stale_grants_without_paying() {
        let mut d = LocalDecider::new(DeciderConfig::default(), w(150), safe()).with_seq_floor(10);
        let mut p = PowerPool::default();
        assert!(d.is_stale_grant(9));
        assert!(!d.is_stale_grant(10));
        let cap = d.cap();
        assert_eq!(d.on_grant(t(1), 9, w(25), &mut p), Power::ZERO);
        assert_eq!(d.cap(), cap);
        assert_eq!(p.available(), Power::ZERO);
        assert_eq!(d.stats().stale_discards, 1);
        assert_eq!(d.stats().granted, Power::ZERO);
        // The namespace continues above the floor: the first fresh request
        // spends seq 10, which its grant matches normally.
        let a = d.tick(t(2), w(150), &mut p, Some(NodeId::new(1)));
        assert!(matches!(a, TickAction::Request { seq: 10, .. }), "{a:?}");
        assert_eq!(d.on_grant(t(3), 10, w(5), &mut p), w(5));
    }

    #[test]
    fn applied_seqs_stay_bounded_over_many_grants() {
        // Satellite regression: the dedup set is O(window), not
        // O(lifetime requests). Drive far more grant cycles than the
        // window and watch the set stay small while dedup still works.
        let mut d = LocalDecider::new(DeciderConfig::default(), w(150), safe());
        let mut p = PowerPool::default();
        for i in 0..(APPLIED_SEQ_WINDOW * 160) {
            let now = SimTime::from_secs(2 * i + 1);
            // Reading pinned at the safe max keeps the node power-hungry
            // (within ε of its cap) no matter how far grants raise it.
            let a = d.tick(now, w(300), &mut p, Some(NodeId::new(1)));
            let TickAction::Request { seq, .. } = a else {
                panic!("expected request at iteration {i}, got {a:?}")
            };
            let granted = d.on_grant(now + SimDuration::from_millis(5), seq, w(1), &mut p);
            // Cap saturates at the safe max; the overflow goes to the
            // pool, so the grant is always "applied" from dedup's view.
            assert!(granted <= w(1));
            // A redelivery of the same seq must still be rejected.
            assert_eq!(
                d.on_grant(now + SimDuration::from_millis(6), seq, w(1), &mut p),
                Power::ZERO
            );
            assert!(
                d.applied_seq_count() as u64 <= APPLIED_SEQ_WINDOW,
                "dedup set grew to {} entries after {} grants",
                d.applied_seq_count(),
                i + 1
            );
            // Shed everything back so the node stays hungry.
            p.drain();
        }
        assert_eq!(d.stats().stale_discards, 0, "no in-window grant was stale");
    }

    #[test]
    fn grants_below_the_pruned_window_are_rejected_not_forgotten() {
        // The prune must advance the *floor*, not merely forget entries:
        // a redelivery from below the window would otherwise double-pay.
        let mut d = LocalDecider::new(DeciderConfig::default(), w(100), safe());
        let mut p = PowerPool::default();
        let mut first_seq = None;
        for i in 0..(APPLIED_SEQ_WINDOW + 8) {
            let now = SimTime::from_secs(2 * i + 1);
            let TickAction::Request { seq, .. } = d.tick(now, w(300), &mut p, Some(NodeId::new(1)))
            else {
                panic!("expected request")
            };
            first_seq.get_or_insert(seq);
            let _ = d.on_grant(now + SimDuration::from_millis(5), seq, w(1), &mut p);
            p.drain();
        }
        let stale = first_seq.unwrap();
        assert!(d.is_stale_grant(stale), "first seq fell below the window");
        let cap = d.cap();
        assert_eq!(d.on_grant(t(10_000), stale, w(50), &mut p), Power::ZERO);
        assert_eq!(d.cap(), cap);
        assert!(d.stats().stale_discards >= 1);
    }

    #[test]
    fn fault_free_decider_never_suspects() {
        // The byte-identity guarantee's core: without timeouts the
        // suspicion layer holds no state and emits nothing.
        use penelope_trace::RingBufferObserver;
        use std::sync::Arc;
        let ring = Arc::new(RingBufferObserver::unbounded());
        let mut d = LocalDecider::new(DeciderConfig::default(), w(150), safe())
            .with_observer(NodeId::new(0), ring.clone().into());
        let mut p = PowerPool::default();
        for i in 0..50u64 {
            let now = t(2 * i + 1);
            if let TickAction::Request { seq, .. } =
                d.tick(now, w(150), &mut p, Some(NodeId::new(1)))
            {
                d.note_peer_reply(now + SimDuration::from_millis(5), NodeId::new(1));
                let _ = d.on_grant(now + SimDuration::from_millis(5), seq, w(1), &mut p);
            }
            p.drain();
            assert!(!d.suspicion_active(now));
        }
        assert!(!ring.events().iter().any(|e| matches!(
            e.kind,
            EventKind::PeerSuspected { .. } | EventKind::PeerCleared { .. }
        )));
    }

    #[test]
    fn suspect_after_boundary_exactly_n_timeouts() {
        // The threshold is inclusive: N−1 consecutive timeouts must leave
        // the peer trusted, the Nth flips it — no off-by-one either way.
        let cfg = DeciderConfig {
            suspect_after: 3,
            ..Default::default()
        };
        let mut d = LocalDecider::new(cfg, w(150), safe());
        let mut p = PowerPool::default();
        let peer = NodeId::new(1);
        let mut now = 1u64;
        timeout_round(&mut d, &mut p, &mut now, peer);
        timeout_round(&mut d, &mut p, &mut now, peer);
        assert_eq!(d.peer_timeout_streak(peer), 2);
        assert!(
            !d.is_suspected(t(now), peer),
            "N−1 timeouts must not suspect"
        );
        assert!(!d.suspicion_active(t(now)));
        timeout_round(&mut d, &mut p, &mut now, peer);
        assert_eq!(d.peer_timeout_streak(peer), 3);
        assert!(d.is_suspected(t(now), peer), "the Nth timeout suspects");
    }

    #[test]
    fn clear_on_reply_after_probe_expiry_emits_one_cleared() {
        // The clear-on-reply vs clear-on-probe race: once the probe
        // interval expires the peer is already eligible again
        // (is_suspected false), but the suspicion *entry* survives. A
        // reply arriving after expiry must clear it exactly once —
        // PeerSuspected/PeerCleared strictly alternate, never a double
        // clear and never a clear-less re-suspect.
        use penelope_trace::RingBufferObserver;
        use std::sync::Arc;
        let ring = Arc::new(RingBufferObserver::unbounded());
        let cfg = DeciderConfig {
            suspect_after: 2,
            ..Default::default()
        };
        let mut d = LocalDecider::new(cfg, w(150), safe())
            .with_observer(NodeId::new(0), ring.clone().into());
        let mut p = PowerPool::default();
        let peer = NodeId::new(2);
        let mut now = 1u64;
        timeout_round(&mut d, &mut p, &mut now, peer);
        timeout_round(&mut d, &mut p, &mut now, peer);
        assert!(d.is_suspected(t(now), peer));
        // Probe interval (8 s default) expires: eligible again, entry kept.
        let after_probe = t(now + 20);
        assert!(!d.is_suspected(after_probe, peer));
        // The probe's reply lands after expiry.
        d.note_peer_reply(after_probe, peer);
        // A second reply must not produce a second clear.
        d.note_peer_reply(after_probe + SimDuration::from_secs(1), peer);
        let events = ring.events();
        let suspected = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PeerSuspected { .. }))
            .count();
        let cleared = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PeerCleared { .. }))
            .count();
        assert_eq!((suspected, cleared), (1, 1));
        // And the streak restarted from zero: one fresh timeout is not
        // enough to re-suspect.
        timeout_round(&mut d, &mut p, &mut now, peer);
        assert_eq!(d.peer_timeout_streak(peer), 1);
    }

    #[test]
    fn all_peers_suspected_still_reports_each_individually() {
        // The decider side of the blind-uniform fallback: when every peer
        // is suspected the host's chooser sees is_suspected true for all
        // of them and suspicion_active true, which is its cue to fall
        // back to the paper's blind draw rather than return no peer. The
        // probe interval is stretched so the first suspicion cannot expire
        // while the later peers are still being timed out.
        let cfg = DeciderConfig {
            suspect_after: 2,
            probe_interval: SimDuration::from_secs(1_000),
            ..Default::default()
        };
        let mut d = LocalDecider::new(cfg, w(150), safe());
        let mut p = PowerPool::default();
        let mut now = 1u64;
        for peer in [NodeId::new(1), NodeId::new(2), NodeId::new(3)] {
            timeout_round(&mut d, &mut p, &mut now, peer);
            timeout_round(&mut d, &mut p, &mut now, peer);
            assert!(d.is_suspected(t(now), peer));
        }
        assert_eq!(d.suspected_count(), 3);
        assert!(d.suspicion_active(t(now)));
        for peer in [NodeId::new(1), NodeId::new(2), NodeId::new(3)] {
            assert!(d.is_suspected(t(now), peer));
        }
    }
}

#[cfg(test)]
mod gossip_tests {
    use super::*;
    use crate::config::DeciderConfig;
    use crate::protocol::{SuspicionDigest, SuspicionEntry};
    use penelope_trace::RingBufferObserver;
    use penelope_units::PowerRange;
    use std::sync::Arc;

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn safe() -> PowerRange {
        PowerRange::from_watts(80, 300)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn observed() -> (LocalDecider, Arc<RingBufferObserver>) {
        let ring = Arc::new(RingBufferObserver::unbounded());
        let d = LocalDecider::new(DeciderConfig::default(), w(150), safe())
            .with_observer(NodeId::new(0), ring.clone().into());
        (d, ring)
    }

    fn digest_of(incarnation: u64, entries: &[(u32, u64)]) -> SuspicionDigest {
        SuspicionDigest {
            incarnation,
            entries: entries
                .iter()
                .map(|&(p, i)| SuspicionEntry {
                    peer: NodeId::new(p),
                    incarnation: i,
                })
                .collect(),
        }
    }

    /// Plant a local (timeout-born) suspicion of `peer` directly.
    fn suspect_via_timeouts(d: &mut LocalDecider, peer: NodeId, now: &mut u64) {
        let mut p = PowerPool::default();
        while !d.is_suspected(t(*now), peer) {
            let a = d.tick(t(*now), w(150), &mut p, Some(peer));
            assert!(!matches!(a, TickAction::Deposited(_)));
            *now += 2;
            let _ = d.tick(t(*now), w(145), &mut p, Some(peer));
            *now += 1;
            p.drain();
        }
    }

    #[test]
    fn fresh_decider_builds_no_digest() {
        // Fault-free hot path: nothing suspected, zero incarnation — the
        // grant carries `None` and allocates nothing.
        let (d, _) = observed();
        assert!(d.make_digest().is_none());
    }

    #[test]
    fn disabled_gossip_builds_and_observes_nothing() {
        let cfg = DeciderConfig {
            gossip_digest: 0,
            ..Default::default()
        };
        let mut d = LocalDecider::new(cfg, w(150), safe()).with_seq_floor(7);
        assert!(
            d.make_digest().is_none(),
            "disabled gossip attaches nothing"
        );
        d.observe_digest(t(1), NodeId::new(2), &digest_of(3, &[(1, 0)]));
        assert_eq!(d.suspected_count(), 0, "disabled gossip adopts nothing");
    }

    #[test]
    fn digest_is_sorted_bounded_and_carries_incarnation() {
        let mut d = LocalDecider::new(DeciderConfig::default(), w(150), safe()).with_seq_floor(9);
        // Adopt six suspicions via gossip (more than MAX_DIGEST_ENTRIES).
        d.observe_digest(
            t(1),
            NodeId::new(9),
            &digest_of(1, &[(5, 0), (3, 0), (8, 0), (1, 0)]),
        );
        d.observe_digest(t(1), NodeId::new(9), &digest_of(1, &[(7, 0), (2, 0)]));
        assert_eq!(d.suspected_count(), 6);
        let digest = d.make_digest().expect("active suspicions");
        assert_eq!(digest.incarnation, 9);
        assert_eq!(digest.entries.len(), MAX_DIGEST_ENTRIES);
        let peers: Vec<u32> = digest.entries.iter().map(|e| e.peer.raw()).collect();
        let mut sorted = peers.clone();
        sorted.sort_unstable();
        assert_eq!(peers, sorted, "digest order must be deterministic");
    }

    #[test]
    fn gossip_adopts_secondhand_suspicion_once() {
        let (mut d, ring) = observed();
        let via = NodeId::new(3);
        let victim = NodeId::new(1);
        d.observe_digest(t(5), via, &digest_of(0, &[(1, 0)]));
        assert!(d.is_suspected(t(5), victim));
        // Re-delivery does not re-emit or reset the probe clock.
        d.observe_digest(t(6), via, &digest_of(0, &[(1, 0)]));
        let gossiped: Vec<_> = ring
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SuspicionGossiped { .. }))
            .cloned()
            .collect();
        assert_eq!(gossiped.len(), 1);
        assert_eq!(
            gossiped[0].kind,
            EventKind::SuspicionGossiped { peer: victim, via }
        );
    }

    #[test]
    fn gossip_about_self_or_sender_is_ignored() {
        let (mut d, _) = observed(); // node 0
        d.observe_digest(t(1), NodeId::new(2), &digest_of(0, &[(0, 0), (2, 0)]));
        assert_eq!(
            d.suspected_count(),
            0,
            "self-suspicion and sender self-claims must be dropped"
        );
    }

    #[test]
    fn senders_own_incarnation_refutes_stale_suspicion_of_it() {
        // The rejoin story: we suspected the peer while it was dead (at
        // incarnation 0); its first post-rebirth message carries its new
        // seq-epoch floor, which refutes the stale suspicion on contact.
        let (mut d, ring) = observed();
        let peer = NodeId::new(1);
        let mut now = 1u64;
        suspect_via_timeouts(&mut d, peer, &mut now);
        assert!(d.is_suspected(t(now), peer));
        d.observe_digest(t(now), peer, &digest_of(42, &[]));
        assert!(!d.is_suspected(t(now), peer));
        assert!(ring
            .events()
            .iter()
            .any(|e| e.kind == EventKind::SuspicionRefuted { peer }));
    }

    #[test]
    fn stale_thirdhand_gossip_cannot_reinfect_after_refutation() {
        // B still suspects the rejoined node A at its old incarnation and
        // keeps gossiping it; once we have seen A's newer incarnation the
        // stale entry must be rejected every time, not re-adopted.
        let (mut d, ring) = observed();
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        // Learn A's new incarnation firsthand.
        d.observe_digest(t(1), a, &digest_of(10, &[]));
        // B's stale gossip about A (formed against incarnation 3).
        d.observe_digest(t(2), b, &digest_of(0, &[(1, 3)]));
        assert!(!d.is_suspected(t(2), a), "stale gossip must not infect");
        assert_eq!(d.suspected_count(), 0);
        // Fresh gossip at A's current incarnation still works.
        d.observe_digest(t(3), b, &digest_of(0, &[(1, 10)]));
        assert!(d.is_suspected(t(3), a));
        let _ = ring;
    }

    #[test]
    fn stale_gossip_clears_an_already_adopted_stale_suspicion() {
        let (mut d, _) = observed();
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let c = NodeId::new(3);
        // Adopt B's suspicion of A at incarnation 3.
        d.observe_digest(t(1), b, &digest_of(0, &[(1, 3)]));
        assert!(d.is_suspected(t(1), a));
        // C proves A re-incarnated at 8 — via an *entry* (C suspects A at
        // 8, so C must have seen incarnation 8): the newer incarnation
        // updates our knowledge and B's re-gossip of the stale entry now
        // clears the old suspicion instead of refreshing it.
        d.observe_digest(t(2), c, &digest_of(0, &[(1, 8)]));
        d.observe_digest(t(3), b, &digest_of(0, &[(1, 3)]));
        // The suspicion standing, if any, is against incarnation 8, not 3.
        let digest = d.make_digest().expect("suspicion state");
        for e in &digest.entries {
            assert!(e.incarnation >= 8, "no suspicion below incarnation 8");
        }
    }

    #[test]
    fn local_timeout_suspicion_records_known_incarnation() {
        // A suspicion earned by timeouts is stamped with the newest
        // incarnation we know for the peer, so our own gossip about it is
        // refutable by anyone who has seen the peer more recently.
        let (mut d, _) = observed();
        let peer = NodeId::new(1);
        d.observe_digest(t(0), peer, &digest_of(6, &[]));
        let mut now = 1u64;
        suspect_via_timeouts(&mut d, peer, &mut now);
        let digest = d.make_digest().expect("suspicion held");
        assert_eq!(
            digest.entries,
            vec![SuspicionEntry {
                peer,
                incarnation: 6
            }]
        );
    }

    #[test]
    fn observe_digest_consumes_no_rng_and_emits_nothing_when_empty() {
        // Byte-identity guarantee: an empty digest (pure incarnation
        // carrier) leaves no trace in the event stream.
        let (mut d, ring) = observed();
        d.observe_digest(t(1), NodeId::new(1), &digest_of(4, &[]));
        assert!(ring.events().is_empty());
        assert_eq!(d.suspected_count(), 0);
    }
}

#[cfg(test)]
mod shed_headroom_tests {
    use super::*;
    use crate::config::DeciderConfig;
    use penelope_units::{PowerRange, SimDuration};

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    #[test]
    fn headroom_parks_node_at_margin() {
        // With shed_headroom = ε, an excess node lands exactly at the
        // margin: next tick with the same reading classifies AtMargin, so
        // it neither churns its own pool nor sends requests.
        let cfg = DeciderConfig {
            shed_headroom: w(5), // == default ε
            ..Default::default()
        };
        let mut d = LocalDecider::new(cfg, w(160), PowerRange::from_watts(80, 300));
        let mut p = PowerPool::default();
        let a1 = d.tick(SimTime::from_secs(1), w(100), &mut p, None);
        assert_eq!(a1, TickAction::Deposited(w(55))); // 160 - (100+5)
        assert_eq!(d.cap(), w(105));
        let a2 = d.tick(SimTime::from_secs(2), w(100), &mut p, None);
        assert_eq!(a2, TickAction::Idle, "node should rest at the margin");
        assert_eq!(d.cap(), w(105));
    }

    #[test]
    fn zero_headroom_reproduces_algorithm_one() {
        // The paper's verbatim behaviour: C = P, and the node is then
        // power-hungry (P > C − ε), dipping into its own pool.
        let mut d = LocalDecider::new(
            DeciderConfig::default(),
            w(160),
            PowerRange::from_watts(80, 300),
        );
        let mut p = PowerPool::default();
        let _ = d.tick(SimTime::from_secs(1), w(100), &mut p, None);
        assert_eq!(d.cap(), w(100));
        let a = d.tick(SimTime::from_secs(2), w(100), &mut p, None);
        assert!(matches!(a, TickAction::TookLocal(_)), "{a:?}");
    }

    #[test]
    fn headroom_never_raises_cap() {
        // Excess with a huge headroom cannot push the cap above its
        // current value.
        let cfg = DeciderConfig {
            shed_headroom: w(500),
            ..Default::default()
        };
        let mut d = LocalDecider::new(cfg, w(160), PowerRange::from_watts(80, 300));
        let mut p = PowerPool::default();
        let a = d.tick(SimTime::from_secs(1), w(100), &mut p, None);
        assert_eq!(a, TickAction::Deposited(Power::ZERO));
        assert_eq!(d.cap(), w(160));
    }

    #[test]
    fn urgency_disabled_sends_plain_requests() {
        let cfg = DeciderConfig {
            enable_urgency: false,
            response_timeout: SimDuration::from_secs(1),
            ..Default::default()
        };
        let mut d = LocalDecider::new(cfg, w(160), PowerRange::from_watts(80, 300));
        let mut p = PowerPool::default();
        let _ = d.tick(SimTime::from_secs(1), w(100), &mut p, None); // cap → 100
        p.drain();
        let a = d.tick(SimTime::from_secs(2), w(100), &mut p, Some(NodeId::new(1)));
        match a {
            TickAction::Request { urgent, alpha, .. } => {
                assert!(!urgent, "urgency disabled but request was urgent");
                assert_eq!(alpha, Power::ZERO);
            }
            other => panic!("expected request, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::config::DeciderConfig;
    use crate::policy::{DeciderPolicy, MarketConfig, PredictiveConfig};
    use penelope_units::PowerRange;

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn safe() -> PowerRange {
        PowerRange::from_watts(80, 300)
    }

    fn decider(initial_w: u64) -> LocalDecider {
        LocalDecider::new(DeciderConfig::default(), w(initial_w), safe())
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn predictive_decider(initial_w: u64, pcfg: PredictiveConfig) -> LocalDecider {
        let cfg = DeciderConfig {
            policy: DeciderPolicy::Predictive(pcfg),
            ..Default::default()
        };
        LocalDecider::new(cfg, w(initial_w), safe())
    }

    #[test]
    fn urgency_policy_is_byte_identical_to_default() {
        // The seam's first obligation: an explicit Urgency policy changes
        // nothing. Run an identical script through both deciders and
        // compare every observable.
        let mut base = decider(150);
        let mut seamed = LocalDecider::new(
            DeciderConfig {
                policy: DeciderPolicy::Urgency,
                ..Default::default()
            },
            w(150),
            safe(),
        );
        let mut pb = PowerPool::default();
        let mut ps = PowerPool::default();
        let script: &[(u64, u64)] = &[(1, 100), (2, 100), (3, 148), (4, 150), (6, 90), (7, 145)];
        for &(sec, reading) in script {
            let a = base.tick(t(sec), w(reading), &mut pb, Some(NodeId::new(3)));
            let b = seamed.tick(t(sec), w(reading), &mut ps, Some(NodeId::new(3)));
            assert_eq!(a, b);
            assert_eq!(base.cap(), seamed.cap());
            assert_eq!(pb.available(), ps.available());
        }
        assert_eq!(base.stats(), seamed.stats());
    }

    #[test]
    fn predictive_forecast_ewma_eases_and_jump_snaps() {
        let pcfg = PredictiveConfig {
            ewma_permille: 500,
            jump_threshold: w(15),
        };
        let mut d = predictive_decider(150, pcfg);
        let mut p = PowerPool::default();
        // Bootstrap: first reading adopted outright.
        let _ = d.tick(t(1), w(100), &mut p, None);
        assert_eq!(d.forecast(), w(100));
        // Small move (10 W < 15 W threshold): EWMA midpoint.
        let _ = d.tick(t(2), w(110), &mut p, None);
        assert_eq!(d.forecast(), w(105));
        // Phase change (40 W step): snap.
        let _ = d.tick(t(3), w(150), &mut p, Some(NodeId::new(1)));
        assert_eq!(d.forecast(), w(150));
    }

    #[test]
    fn predictive_holds_cap_through_a_sub_jump_dip() {
        // Forecast stuck high (bootstrapped above the cap) while the
        // reading momentarily dips by less than the jump threshold: the
        // predictive decider refuses to shed, where the urgency policy
        // would cut the cap to the dipped reading.
        let pcfg = PredictiveConfig {
            ewma_permille: 0, // freeze the EWMA: forecast moves only on jumps
            jump_threshold: w(60),
        };
        let mut d = predictive_decider(150, pcfg);
        let mut p = PowerPool::default();
        let _ = d.tick(t(1), w(152), &mut p, None); // bootstrap forecast=152
        assert_eq!(d.forecast(), w(152));
        assert_eq!(d.cap(), w(150));
        let a = d.tick(t(2), w(100), &mut p, None); // dip, no jump (52 < 60)
                                                    // Planning reading = max(100, 152) = 152 → still hungry: no shed.
        assert_eq!(a, TickAction::Idle);
        assert_eq!(d.cap(), w(150));
        assert_eq!(p.available(), Power::ZERO);
        // The urgency policy sheds 50 W on the identical dip.
        let mut u = decider(150);
        let mut up = PowerPool::default();
        let _ = u.tick(t(1), w(152), &mut up, None);
        assert_eq!(
            u.tick(t(2), w(100), &mut up, None),
            TickAction::Deposited(w(50))
        );
    }

    #[test]
    fn predictive_requests_ahead_of_forecast_shortfall() {
        // Reading sits at the margin of the cap, but the forecast says
        // demand is headed above it: the predictive decider goes hungry
        // *now*, with α sized by the forecast gap.
        let pcfg = PredictiveConfig {
            ewma_permille: 0,
            jump_threshold: w(60),
        };
        let mut d = predictive_decider(150, pcfg);
        let mut p = PowerPool::default();
        let _ = d.tick(t(1), w(170), &mut p, None); // bootstrap forecast=170
        assert_eq!(d.forecast(), w(170));
        // Reading falls back to margin (cap 150 − ε 5 = 145; a 25 W move,
        // below the jump threshold): urgency policy would idle; predictive
        // plans on 170 and requests.
        let a = d.tick(t(2), w(145), &mut p, Some(NodeId::new(2)));
        match a {
            TickAction::Request { urgent, alpha, .. } => {
                assert!(!urgent, "cap is at initial, not below");
                assert_eq!(alpha, w(20), "α covers the forecast shortfall");
            }
            other => panic!("expected request, got {other:?}"),
        }
        // And quiescence must not vouch for margin ticks under predictive.
        let fresh = predictive_decider(150, pcfg);
        assert_eq!(fresh.quiescent_until(t(1), w(145)), None);
    }

    #[test]
    fn market_requests_bid_by_deprivation_and_never_urgent() {
        let mcfg = MarketConfig {
            base_bid: w(1),
            scarcity_threshold: w(40),
        };
        let cfg = DeciderConfig {
            policy: DeciderPolicy::Market(mcfg),
            ..Default::default()
        };
        let mut d = LocalDecider::new(cfg, w(150), safe());
        let mut p = PowerPool::default();
        let _ = d.tick(t(1), w(100), &mut p, None); // shed: cap → 100
        p.drain();
        let a = d.tick(t(2), w(100), &mut p, Some(NodeId::new(1)));
        match a {
            TickAction::Request {
                urgent, alpha, bid, ..
            } => {
                assert!(!urgent, "market requests are never urgent");
                assert_eq!(bid, w(51), "base 1 + deprivation 50");
                assert_eq!(alpha, w(50), "α carries the shortfall clamp");
            }
            other => panic!("expected request, got {other:?}"),
        }
        assert_eq!(d.stats().urgent_sent, 0);
    }

    #[test]
    fn market_retransmit_carries_the_original_bid() {
        let mcfg = MarketConfig::default();
        let cfg = DeciderConfig {
            policy: DeciderPolicy::Market(mcfg),
            max_retransmits: 1,
            ..Default::default()
        };
        let mut d = LocalDecider::new(cfg, w(150), safe());
        let mut p = PowerPool::default();
        let _ = d.tick(t(1), w(100), &mut p, None);
        p.drain();
        let first = d.tick(t(2), w(100), &mut p, Some(NodeId::new(1)));
        let TickAction::Request { bid, seq, .. } = first else {
            panic!("expected request")
        };
        // Timeout → retransmit must be verbatim: same seq, same bid.
        let retrans = d.tick(t(3), w(100), &mut p, Some(NodeId::new(2)));
        match retrans {
            TickAction::Request {
                bid: b2, seq: s2, ..
            } => {
                assert_eq!(b2, bid);
                assert_eq!(s2, seq);
            }
            other => panic!("expected retransmit, got {other:?}"),
        }
    }
}
