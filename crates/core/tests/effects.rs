//! The one transport rule, pinned where it lives: [`NodeEngine::step`]
//! runs the output loop for every driver, feeds grant outcomes back and
//! emits the transport events. A recording [`Effects`] answers each send
//! from a script, so every [`Delivery`] meets every message kind.

use std::sync::Arc;

use penelope_core::{
    Delivery, Effects, EngineConfig, EngineInput, EngineOutput, NodeEngine, NodeParams, PeerMsg,
    PowerGrant, PowerRequest,
};
use penelope_testkit::TestRng;
use penelope_trace::{EventKind, RingBufferObserver, SharedObserver};
use penelope_units::{NodeId, Power, SimTime};

fn w(x: u64) -> Power {
    Power::from_watts_u64(x)
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// One recorded `Effects::send` call.
#[derive(Debug)]
struct Sent {
    dst: NodeId,
    msg: PeerMsg,
    carried: Power,
    grant: bool,
}

/// Answers sends from `script`, front first, and records every hook.
#[derive(Default)]
struct Recorder {
    script: Vec<Delivery>,
    sends: Vec<Sent>,
    caps: Vec<Power>,
    timers: Vec<(NodeId, u64, SimTime)>,
    resolved: Vec<(u64, Power)>,
}

impl Effects for Recorder {
    fn send(&mut self, dst: NodeId, msg: &PeerMsg, carried: Power, grant: bool) -> Delivery {
        self.sends.push(Sent {
            dst,
            msg: msg.clone(),
            carried,
            grant,
        });
        self.script.remove(0)
    }

    fn actuate(&mut self, cap: Power) {
        self.caps.push(cap);
    }

    fn power_lost(&mut self, amount: Power) {
        panic!("no stale grant in this script, yet {amount} was booked lost");
    }

    fn set_escrow_timer(&mut self, requester: NodeId, seq: u64, at: SimTime) {
        self.timers.push((requester, seq, at));
    }

    fn resolved(&mut self, seq: u64, amount: Power) {
        self.resolved.push((seq, amount));
    }
}

/// Node 0 of a two-node cluster at 150 W, tracing into `ring`.
fn engine(ring: &Arc<RingBufferObserver>) -> NodeEngine {
    NodeEngine::new(
        n(0),
        2,
        EngineConfig::new(NodeParams::default()),
        w(150),
        SharedObserver::from(ring.clone()),
    )
}

fn request_from_1(seq: u64) -> EngineInput {
    EngineInput::Msg {
        src: n(1),
        msg: PeerMsg::Request(PowerRequest {
            from: n(1),
            urgent: true,
            alpha: w(25),
            bid: Power::ZERO,
            seq,
        }),
    }
}

/// The transport events (and the escrow event that must follow a grant's)
/// emitted since the last call.
fn transport_since(ring: &RingBufferObserver, seen: &mut usize) -> Vec<EventKind> {
    let events = ring.events();
    let fresh = events[*seen..]
        .iter()
        .map(|e| e.kind)
        .filter(|k| {
            matches!(
                k,
                EventKind::MsgSent { .. }
                    | EventKind::MsgDropped { .. }
                    | EventKind::AckDropped { .. }
                    | EventKind::SendFailed { .. }
                    | EventKind::GrantEscrowed { .. }
            )
        })
        .collect();
    *seen = events.len();
    fresh
}

#[test]
fn every_send_emits_msg_sent_then_at_most_one_failure_event() {
    let ring = Arc::new(RingBufferObserver::unbounded());
    let mut e = engine(&ring);
    let mut rng = TestRng::seed_from_u64(7);
    let mut out = Vec::new();
    let mut fx = Recorder {
        script: vec![
            Delivery::Dropped,
            Delivery::Failed,
            Delivery::Sent,
            Delivery::Dropped,
        ],
        ..Recorder::default()
    };
    let mut seen = 0;
    let t = SimTime::from_secs(1);

    // A request, dropped: MsgSent then MsgDropped.
    e.step(
        t,
        EngineInput::Tick { reading: w(150) },
        &mut rng,
        &mut out,
        &mut fx,
    );
    let PeerMsg::Request(req) = &fx.sends[0].msg else {
        panic!("a hungry tick sends a request, got {:?}", fx.sends[0]);
    };
    let my_seq = req.seq;
    assert_eq!((fx.sends[0].dst, fx.sends[0].grant), (n(1), false));
    assert_eq!(
        transport_since(&ring, &mut seen),
        [
            EventKind::MsgSent {
                dst: n(1),
                carried: Power::ZERO
            },
            EventKind::MsgDropped {
                dst: n(1),
                carried: Power::ZERO
            },
        ]
    );
    assert_eq!(fx.caps, [w(150)], "the tick actuates through the hook");

    // A zero grant (empty pool), refused by the host: MsgSent then
    // SendFailed, and no escrow — nothing was debited.
    e.step(t, request_from_1(5), &mut rng, &mut out, &mut fx);
    assert!(matches!(fx.sends[1].msg, PeerMsg::Grant(g, _) if g.amount.is_zero()));
    assert!(!fx.sends[1].grant);
    assert_eq!(
        transport_since(&ring, &mut seen),
        [
            EventKind::MsgSent {
                dst: n(1),
                carried: Power::ZERO
            },
            EventKind::SendFailed { dst: n(1) },
        ]
    );
    assert_eq!(e.escrow_len(), 0);

    // A non-zero grant, carried: MsgSent alone, then the escrow the
    // engine books from its own outcome feedback — awaiting the ack.
    e.pool_mut().deposit(w(40));
    e.step(t, request_from_1(6), &mut rng, &mut out, &mut fx);
    assert_eq!((fx.sends[2].carried, fx.sends[2].grant), (w(25), true));
    assert_eq!(
        transport_since(&ring, &mut seen),
        [
            EventKind::MsgSent {
                dst: n(1),
                carried: w(25)
            },
            EventKind::GrantEscrowed {
                requester: n(1),
                seq: 6,
                amount: w(25)
            },
        ]
    );
    assert_eq!(e.escrow_len(), 1);
    assert_eq!(e.escrowed_undelivered(), Power::ZERO);
    assert_eq!(fx.timers.len(), 1, "the escrow timer runs through the hook");

    // An ack, dropped: MsgSent then AckDropped (never MsgDropped).
    let grant = EngineInput::Msg {
        src: n(1),
        msg: PeerMsg::Grant(
            PowerGrant {
                amount: w(10),
                seq: my_seq,
            },
            None,
        ),
    };
    e.step(t, grant, &mut rng, &mut out, &mut fx);
    assert!(matches!(fx.sends[3].msg, PeerMsg::Ack(a, _) if a.seq == my_seq));
    assert_eq!(
        transport_since(&ring, &mut seen),
        [
            EventKind::MsgSent {
                dst: n(1),
                carried: Power::ZERO
            },
            EventKind::AckDropped {
                dst: n(1),
                seq: my_seq
            },
        ]
    );
    assert_eq!(fx.resolved, [(my_seq, w(10))]);
    assert!(fx.script.is_empty(), "every scripted answer was consumed");
    assert!(out.is_empty(), "step removes the outputs it ran");
}

#[test]
fn a_dropped_grant_comes_back_as_an_undelivered_outcome() {
    // Twin engines: one stepped through a fx that drops the grant, one
    // handled by hand with `GrantOutcome { delivered: false }` fed back.
    let ring = Arc::new(RingBufferObserver::unbounded());
    let mut stepped = engine(&ring);
    let mut by_hand = engine(&ring);
    let t = SimTime::from_secs(1);
    for e in [&mut stepped, &mut by_hand] {
        e.pool_mut().deposit(w(40));
    }

    let mut rng = TestRng::seed_from_u64(7);
    let mut out = Vec::new();
    let mut fx = Recorder {
        script: vec![Delivery::Dropped],
        ..Recorder::default()
    };
    stepped.step(t, request_from_1(9), &mut rng, &mut out, &mut fx);

    by_hand.handle(t, request_from_1(9), &mut rng, &mut out);
    let Some(&EngineOutput::SendGrant {
        dst, amount, seq, ..
    }) = out.first()
    else {
        panic!("a served request yields a SendGrant, got {out:?}");
    };
    out.clear();
    by_hand.handle(
        t,
        EngineInput::GrantOutcome {
            requester: dst,
            seq,
            amount,
            delivered: false,
        },
        &mut rng,
        &mut out,
    );
    let Some(&EngineOutput::SetEscrowTimer { at, .. }) = out.first() else {
        panic!("the outcome arms the escrow timer, got {out:?}");
    };

    assert_eq!(stepped.escrowed_undelivered(), w(25));
    assert_eq!(
        stepped.escrowed_undelivered(),
        by_hand.escrowed_undelivered()
    );
    assert_eq!(stepped.escrow_len(), by_hand.escrow_len());
    assert_eq!(stepped.pool().available(), by_hand.pool().available());
    assert_eq!(fx.timers, [(n(1), 9, at)]);
}
