//! The decider's applied-seq window against a reference model.
//!
//! `LocalDecider` remembers which non-zero grants it has applied in one
//! 64-bit mask anchored at its seq floor. The oracle below is the
//! original set-based formulation, kept verbatim: a `HashSet` of applied
//! seqs, pruned with `retain` whenever an applied grant lifts the floor
//! to `next_seq − APPLIED_SEQ_WINDOW`. Random interleavings of fresh
//! requests, zero and non-zero grants, duplicate and late redeliveries,
//! over a random starting floor, must agree with it on every `on_grant`
//! result and on every query the decider exposes.

use std::collections::HashSet;

use penelope_core::{
    DeciderConfig, LocalDecider, PoolConfig, PowerPool, TickAction, APPLIED_SEQ_WINDOW,
};
use penelope_testkit::prop::{self, vec_of};
use penelope_units::{NodeId, Power, PowerRange, SimTime};

/// The set-based applied-seq logic the mask replaced.
struct Oracle {
    applied_seqs: HashSet<u64>,
    seq_floor: u64,
    next_seq: u64,
}

impl Oracle {
    fn with_seq_floor(floor: u64) -> Self {
        Oracle {
            applied_seqs: HashSet::new(),
            seq_floor: floor,
            next_seq: floor,
        }
    }

    /// Does the grant pay (true) or is it discarded (false)?
    fn on_grant(&mut self, seq: u64, amount: Power) -> bool {
        if seq < self.seq_floor {
            return false;
        }
        if !amount.is_zero() && !self.applied_seqs.insert(seq) {
            return false; // duplicate redelivery; already paid
        }
        if !amount.is_zero() {
            let floor = self.next_seq.saturating_sub(APPLIED_SEQ_WINDOW);
            if floor > self.seq_floor {
                self.seq_floor = floor;
                self.applied_seqs.retain(|&s| s >= floor);
            }
        }
        true
    }

    fn is_applied_seq(&self, seq: u64) -> bool {
        seq < self.seq_floor || self.applied_seqs.contains(&seq)
    }
}

/// One step of the interleaving: `(kind, back, watts)`. Kind 0 issues a
/// fresh request; otherwise a grant for the seq `back` below the newest
/// issued one (0 = the newest: a prompt reply or a duplicate; larger =
/// a late redelivery, possibly from before the starting floor), carrying
/// `watts × 10 W` (0 = an empty-handed reply).
type Op = (u8, u8, u8);

fn run_case(start_floor: u64, ops: &[Op]) {
    let cfg = DeciderConfig::default();
    let safe = PowerRange::from_watts(80, 300);
    let mut d =
        LocalDecider::new(cfg, Power::from_watts_u64(150), safe).with_seq_floor(start_floor);
    let mut oracle = Oracle::with_seq_floor(start_floor);
    let mut pool = PowerPool::new(PoolConfig::default());
    let peer = Some(NodeId::new(1));
    let mut now = SimTime::ZERO;

    for (step, &(kind, back, watts)) in ops.iter().enumerate() {
        if kind == 0 {
            // Far past any timeout, with an empty pool and the reading at
            // the cap: the tick abandons what is outstanding and asks a
            // peer for more.
            now += cfg.response_timeout * 1_000;
            pool.drain();
            match d.tick(now, d.cap(), &mut pool, peer) {
                TickAction::Request { seq, .. } => assert_eq!(seq, oracle.next_seq, "step {step}"),
                other => panic!("step {step}: a hungry tick must request, got {other:?}"),
            }
            oracle.next_seq += 1;
        } else if oracle.next_seq > 0 {
            let seq = (oracle.next_seq - 1).saturating_sub(back as u64);
            let amount = Power::from_watts_u64(10 * watts as u64);
            let (cap0, pool0, stats0) = (d.cap(), pool.available(), d.stats());
            let stale = oracle.seq_floor > seq;
            let pays = oracle.on_grant(seq, amount);
            let applied = d.on_grant(now, seq, amount, &mut pool);
            let stats1 = d.stats();
            if pays {
                assert_eq!(
                    applied,
                    d.cap() - cap0,
                    "step {step}: applied is the cap raise"
                );
                assert_eq!(
                    applied + (pool.available() - pool0),
                    amount,
                    "step {step}: the whole grant lands in cap or pool"
                );
                assert_eq!(stats1.granted - stats0.granted, amount, "step {step}");
            } else {
                assert_eq!(
                    applied,
                    Power::ZERO,
                    "step {step}: seq {seq} must be discarded"
                );
                assert_eq!((d.cap(), pool.available()), (cap0, pool0), "step {step}");
                assert_eq!(stats1.granted, stats0.granted, "step {step}");
            }
            assert_eq!(
                stats1.stale_discards - stats0.stale_discards,
                stale as u64,
                "step {step}"
            );
        }

        assert_eq!(d.next_seq(), oracle.next_seq, "step {step}");
        assert_eq!(d.incarnation(), oracle.seq_floor, "step {step}");
        assert_eq!(
            d.applied_seq_count(),
            oracle.applied_seqs.len(),
            "step {step}"
        );
        for seq in 0..oracle.next_seq + APPLIED_SEQ_WINDOW + 2 {
            assert_eq!(
                d.is_applied_seq(seq),
                oracle.is_applied_seq(seq),
                "step {step}: is_applied_seq({seq})"
            );
            assert_eq!(
                d.is_stale_grant(seq),
                seq < oracle.seq_floor,
                "step {step}: is_stale_grant({seq})"
            );
        }
    }
}

#[test]
fn applied_seq_window_matches_the_set_oracle() {
    let op = (0u8..3, 0u8..=150, 0u8..=3);
    prop::check(
        "applied_seq_window_matches_the_set_oracle",
        prop::Config::from_env(),
        (0u64..=200, vec_of(op, 1..400)),
        |(start_floor, ops)| run_case(start_floor, &ops),
    );
}

#[test]
fn window_slides_past_a_long_run_of_empty_replies() {
    // One paying grant, then 150 requests answered empty-handed: the
    // floor stays put while `next_seq` runs far ahead, so the next paying
    // grant slides it by more than a whole mask width at once. Then a
    // duplicate of that grant, a late one below the new floor and a
    // fresh one.
    let mut ops: Vec<Op> = vec![(0, 0, 0), (1, 0, 2)];
    for _ in 0..150 {
        ops.push((0, 0, 0));
        ops.push((1, 0, 0));
    }
    ops.extend([(1, 10, 2), (1, 10, 3), (1, 70, 1), (1, 0, 3), (1, 0, 3)]);
    run_case(0, &ops);
    run_case(200, &ops);
}
