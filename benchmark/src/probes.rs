//! Per-layer timing probes: calls into each layer's public functions,
//! timed from the benchmark's own code with no criterion.
//!
//! A probe is a closure that runs `iters` calls and returns the
//! nanoseconds they took. The harness doubles `iters` until one batch
//! lasts at least [`MIN_BATCH_NS`] — long enough that timer resolution
//! and the cost of reading the clock are noise — then repeats batches
//! until the probe's time share is spent (at least [`MIN_BATCHES`]) and
//! reports the median cost per call with the batches' relative spread.
//!
//! Where a call needs untimed set-up between calls (an engine must be
//! put back into the state the input expects), each call is wrapped in
//! its own clock span and the span's own cost, measured by
//! [`timer_overhead_ns`], is subtracted.

use std::hint::black_box;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

use penelope_core::{
    EngineConfig, EngineInput, EngineOutput, GrantAck, NodeEngine, NodeParams, PeerMsg,
};
use penelope_daemon::WireMsg;
use penelope_net::shim::DirectionPlan;
use penelope_net::{DatagramSocket, FaultConfig, FaultySocket};
use penelope_sim::event::{Event, EventQueue};
use penelope_testkit::rng::{Rng, TestRng};
use penelope_trace::{CounterObserver, EventKind, JsonlObserver, SharedObserver, TraceEvent};
use penelope_units::{NodeId, Power, SimDuration, SimTime};

use crate::stats::{median, relative_iqr};

/// Shortest batch the harness accepts, nanoseconds.
pub const MIN_BATCH_NS: f64 = 2e6;

/// Fewest batches a probe reports from.
pub const MIN_BATCHES: usize = 11;

/// One probe's result.
#[derive(Clone, Debug, PartialEq)]
pub struct Probe {
    pub name: String,
    /// Median cost per call over batches, nanoseconds.
    pub ns: f64,
    /// Interquartile range of the batch costs over their median.
    pub rel_iqr: f64,
    /// Calls timed in total.
    pub calls: u64,
}

/// Time `batch` for at least `budget`: calibrate the batch size, then
/// collect per-call costs from at least [`MIN_BATCHES`] batches.
pub fn measure(name: &str, budget: Duration, mut batch: impl FnMut(u64) -> f64) -> Probe {
    let mut iters = 1u64;
    while batch(iters) < MIN_BATCH_NS && iters < 1 << 30 {
        iters *= 2;
    }
    let start = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < MIN_BATCHES || (start.elapsed() < budget && per_call.len() < 1000) {
        per_call.push(batch(iters) / iters as f64);
    }
    summarize(name, &per_call, iters)
}

fn summarize(name: &str, per_call: &[f64], iters: u64) -> Probe {
    Probe {
        name: name.to_string(),
        ns: median(per_call).expect("at least one batch"),
        rel_iqr: relative_iqr(per_call).unwrap_or(0.0),
        calls: per_call.len() as u64 * iters,
    }
}

/// Cost of one empty clock span (`Instant::now()` then `elapsed()`),
/// the bias every per-call span carries.
pub fn timer_overhead_ns(budget: Duration) -> Probe {
    measure("probe.timer_ns", budget, |iters| {
        let mut total = 0u128;
        for _ in 0..iters {
            let t = Instant::now();
            total += black_box(t).elapsed().as_nanos();
        }
        total as f64
    })
}

// ---------------------------------------------------------------------
// penelope-core: NodeEngine::handle by input kind
// ---------------------------------------------------------------------

/// The engine input kinds probed, in report order.
pub const ENGINE_KINDS: [&str; 7] = [
    "tick_quiet",
    "tick_request",
    "request_serve",
    "grant_apply",
    "ack",
    "grant_outcome",
    "sweep_escrow",
];

const TICK_QUIET: usize = 0;
const TICK_REQUEST: usize = 1;
const REQUEST_SERVE: usize = 2;
const GRANT_APPLY: usize = 3;
const ACK: usize = 4;
const GRANT_OUTCOME: usize = 5;
const SWEEP_ESCROW: usize = 6;
/// Slot of the empty span each exchange iteration also takes.
const SPAN_COST: usize = 7;

/// A two-engine exchange (requester `a`, granter `b`) plus an at-margin
/// bystander `c`, all built for a cluster of `n` nodes. One iteration
/// walks a full request → serve → outcome → grant → ack exchange, one
/// quiet tick, and one escrow sweep that reclaims an undelivered grant.
struct Exchange {
    n: usize,
    cfg: EngineConfig,
    cap: Power,
    a: NodeEngine,
    b: NodeEngine,
    c: NodeEngine,
    rng: TestRng,
    out: Vec<EngineOutput>,
    now: SimTime,
    reclaim_seq: u64,
}

const POOL_LOW: Power = Power::from_watts_u64(200);
const POOL_FILL: Power = Power::from_watts_u64(10_000);

impl Exchange {
    fn new(n: usize, node: NodeParams, cap: Power) -> Self {
        let cfg = EngineConfig::new(node);
        let engine = |i: u32| NodeEngine::new(NodeId::new(i), n, cfg, cap, SharedObserver::noop());
        let mut b = engine(1);
        b.pool_mut().deposit(POOL_FILL);
        Exchange {
            n,
            cfg,
            cap,
            a: engine(0),
            b,
            c: engine(2),
            rng: TestRng::seed_from_u64(0x9E37),
            out: Vec::with_capacity(16),
            now: SimTime::ZERO,
            reclaim_seq: 0,
        }
    }

    /// Time one call on `engine`, returning its span in nanoseconds.
    fn timed(
        engine: &mut NodeEngine,
        now: SimTime,
        input: EngineInput,
        rng: &mut TestRng,
        out: &mut Vec<EngineOutput>,
    ) -> f64 {
        out.clear();
        let t = Instant::now();
        engine.handle(now, input, rng, out);
        t.elapsed().as_nanos() as f64
    }

    /// One exchange; adds each call's span to `acc`. Returns `false`
    /// (nothing added) when the requester no longer asks its peers —
    /// its cap reached the safe maximum — after replacing it with a
    /// fresh engine that keeps its sequence namespace.
    fn iteration(&mut self, acc: &mut [f64; 8]) -> bool {
        let mut spans = [0.0; 8];
        let now = self.now;
        let (a_id, b_id) = (self.a.id(), self.b.id());

        let reading = self.a.cap();
        spans[TICK_REQUEST] = Self::timed(
            &mut self.a,
            now,
            EngineInput::Tick { reading },
            &mut self.rng,
            &mut self.out,
        );
        let request = self.out.iter().find_map(|o| match o {
            EngineOutput::Send {
                msg: msg @ PeerMsg::Request(_),
                ..
            } => Some(msg.clone()),
            _ => None,
        });
        let Some(request) = request else {
            let floor = self.a.next_seq();
            self.a = NodeEngine::new(
                a_id,
                self.n,
                self.cfg.with_seq_floor(floor),
                self.cap,
                SharedObserver::noop(),
            );
            self.now = now + self.cfg.node.decider.period;
            return false;
        };

        if self.b.pool().available() < POOL_LOW {
            self.b.pool_mut().deposit(POOL_FILL);
        }
        spans[REQUEST_SERVE] = Self::timed(
            &mut self.b,
            now,
            EngineInput::Msg {
                src: a_id,
                msg: request,
            },
            &mut self.rng,
            &mut self.out,
        );
        let (grant, amount, seq) = self
            .out
            .iter()
            .find_map(|o| match o {
                EngineOutput::SendGrant {
                    msg, amount, seq, ..
                } => Some((msg.clone(), *amount, *seq)),
                _ => None,
            })
            .expect("a stocked pool serves a non-zero grant");

        spans[GRANT_OUTCOME] = Self::timed(
            &mut self.b,
            now,
            EngineInput::GrantOutcome {
                requester: a_id,
                seq,
                amount,
                delivered: true,
            },
            &mut self.rng,
            &mut self.out,
        );

        spans[GRANT_APPLY] = Self::timed(
            &mut self.a,
            now,
            EngineInput::Msg {
                src: b_id,
                msg: grant,
            },
            &mut self.rng,
            &mut self.out,
        );
        let ack = self
            .out
            .iter()
            .find_map(|o| match o {
                EngineOutput::Send {
                    msg: msg @ PeerMsg::Ack(..),
                    ..
                } => Some(msg.clone()),
                _ => None,
            })
            .unwrap_or(PeerMsg::Ack(GrantAck { seq }, None));

        spans[ACK] = Self::timed(
            &mut self.b,
            now,
            EngineInput::Msg {
                src: a_id,
                msg: ack,
            },
            &mut self.rng,
            &mut self.out,
        );

        let eps = self.cfg.node.decider.epsilon;
        let reading = self.c.cap().saturating_sub(eps);
        spans[TICK_QUIET] = Self::timed(
            &mut self.c,
            now,
            EngineInput::Tick { reading },
            &mut self.rng,
            &mut self.out,
        );

        // An undelivered grant to a fourth node, swept after its deadline:
        // the sweep reclaims it into the pool.
        self.out.clear();
        self.b.handle(
            now,
            EngineInput::GrantOutcome {
                requester: NodeId::new(3),
                seq: self.reclaim_seq,
                amount: Power::from_watts_u64(1),
                delivered: false,
            },
            &mut self.rng,
            &mut self.out,
        );
        self.reclaim_seq += 1;
        let sweep_at = now + self.cfg.node.decider.escrow_timeout();
        spans[SWEEP_ESCROW] = Self::timed(
            &mut self.b,
            sweep_at,
            EngineInput::SweepEscrow,
            &mut self.rng,
            &mut self.out,
        );

        // An empty span in the same iteration: the clock cost to take off
        // every span of this batch, measured under the same host load.
        let t = Instant::now();
        spans[SPAN_COST] = black_box(t).elapsed().as_nanos() as f64;

        self.now = sweep_at + self.cfg.node.decider.period;
        for (a, s) in acc.iter_mut().zip(spans) {
            *a += s;
        }
        true
    }
}

/// `NodeEngine::handle` cost per input kind on a two-engine exchange
/// built at cluster size `n`, named `core.handle_ns.<kind>`. Each
/// batch's mean empty-span cost is subtracted from its spans.
pub fn engine_probes(n: usize, node: NodeParams, cap: Power, budget: Duration) -> Vec<Probe> {
    let mut ex = Exchange::new(n, node, cap);
    let mut run_batch = |iters: u64| {
        let mut acc = [0.0; 8];
        let mut done = 0;
        while done < iters {
            if ex.iteration(&mut acc) {
                done += 1;
            }
        }
        acc
    };
    let mut iters = 1u64;
    while run_batch(iters).iter().sum::<f64>() < MIN_BATCH_NS {
        iters *= 2;
    }
    let start = Instant::now();
    let mut per_kind: Vec<Vec<f64>> = vec![Vec::new(); ENGINE_KINDS.len()];
    while per_kind[0].len() < MIN_BATCHES || (start.elapsed() < budget && per_kind[0].len() < 1000)
    {
        let acc = run_batch(iters);
        let span_cost = acc[SPAN_COST] / iters as f64;
        for (k, v) in per_kind.iter_mut().enumerate() {
            v.push((acc[k] / iters as f64 - span_cost).max(0.0));
        }
    }
    ENGINE_KINDS
        .iter()
        .zip(&per_kind)
        .map(|(kind, v)| summarize(&format!("core.handle_ns.{kind}"), v, iters))
        .collect()
}

// ---------------------------------------------------------------------
// penelope-sim: the event queue
// ---------------------------------------------------------------------

/// One `EventQueue` pop plus one push (the hold model) at a steady
/// pending depth of `depth` events, named `sim.queue.push_pop_ns`.
pub fn queue_probe(depth: usize, budget: Duration) -> Probe {
    let mut rng = TestRng::seed_from_u64(0x51AB);
    let deltas: Vec<u64> = (0..4096)
        .map(|_| rng.gen_range(1..1_000_000_000u64))
        .collect();
    let mut q = EventQueue::with_capacity(2 * depth);
    for i in 0..depth {
        q.push(
            SimTime::from_nanos(deltas[i % deltas.len()]),
            Event::Tick(NodeId::new(i as u32)),
        );
    }
    let mut k = 0usize;
    measure("sim.queue.push_pop_ns", budget, |iters| {
        let t = Instant::now();
        for _ in 0..iters {
            let s = q.pop().expect("queue holds `depth` events");
            k = (k + 1) & 4095;
            q.push(s.at + SimDuration::from_nanos(deltas[k]), s.event);
        }
        t.elapsed().as_nanos() as f64
    })
}

// ---------------------------------------------------------------------
// penelope-trace: observer emission
// ---------------------------------------------------------------------

/// `SharedObserver::emit` of one `RequestServed` event into the no-op,
/// counter and JSONL (to a discarding writer) observers, named
/// `trace.emit_ns.<observer>`.
pub fn emit_probes(budget: Duration) -> Vec<Probe> {
    let observers = [
        ("noop", SharedObserver::noop()),
        (
            "counter",
            SharedObserver::from(Arc::new(CounterObserver::new())),
        ),
        (
            "jsonl",
            SharedObserver::from(Arc::new(JsonlObserver::new(io::sink()))),
        ),
    ];
    observers
        .iter()
        .map(|(name, obs)| {
            let mut seq = 0u64;
            measure(&format!("trace.emit_ns.{name}"), budget, |iters| {
                let t = Instant::now();
                for _ in 0..iters {
                    seq += 1;
                    obs.emit(|| TraceEvent {
                        at: SimTime::from_nanos(seq),
                        node: NodeId::new(1),
                        period: seq / 1000,
                        kind: EventKind::RequestServed {
                            requester: NodeId::new(7),
                            seq,
                            granted: Power::from_watts_u64(20),
                            urgent: false,
                        },
                    });
                }
                t.elapsed().as_nanos() as f64
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// penelope-daemon: the wire codec
// ---------------------------------------------------------------------

fn wire_samples() -> [(&'static str, WireMsg); 3] {
    [
        (
            "request",
            WireMsg::Request {
                seq: 41,
                urgent: true,
                alpha: Power::from_watts_u64(30),
                from: Some(NodeId::new(1234)),
                bid: Power::ZERO,
            },
        ),
        (
            "grant",
            WireMsg::Grant {
                seq: 41,
                amount: Power::from_watts_u64(20),
                digest: None,
            },
        ),
        (
            "ack",
            WireMsg::Ack {
                seq: 41,
                digest: None,
            },
        ),
    ]
}

/// `WireMsg::encode` and `WireMsg::decode` per message kind, named
/// `wire.encode_ns.<kind>` and `wire.decode_ns.<kind>`.
pub fn wire_probes(budget: Duration) -> Vec<Probe> {
    let mut out = Vec::new();
    for (kind, msg) in wire_samples() {
        out.push(measure(
            &format!("wire.encode_ns.{kind}"),
            budget,
            |iters| {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(black_box(&msg).encode());
                }
                t.elapsed().as_nanos() as f64
            },
        ));
        let bytes = msg.encode();
        out.push(measure(
            &format!("wire.decode_ns.{kind}"),
            budget,
            |iters| {
                let t = Instant::now();
                for _ in 0..iters {
                    let m = WireMsg::decode(black_box(&bytes)).expect("round trip");
                    black_box(m);
                }
                t.elapsed().as_nanos() as f64
            },
        ));
    }
    out
}

// ---------------------------------------------------------------------
// penelope-net: the socket shim and the syscalls under it
// ---------------------------------------------------------------------

/// Datagrams in flight per send/receive group: far below the kernel's
/// receive buffer, so nothing is lost inside it.
const GROUP: u64 = 64;

/// A reactor-sized frame: 8-byte header plus an encoded request.
fn probe_frame() -> Vec<u8> {
    let mut buf = vec![0u8; 8];
    buf.extend_from_slice(&wire_samples()[0].1.encode());
    buf
}

/// A sender, a receiver with a read timeout, and the receiver's address.
pub(crate) fn loopback_pair() -> io::Result<(UdpSocket, UdpSocket, SocketAddr)> {
    let rx = UdpSocket::bind("127.0.0.1:0")?;
    rx.set_read_timeout(Some(Duration::from_millis(200)))?;
    let addr = rx.local_addr()?;
    Ok((UdpSocket::bind("127.0.0.1:0")?, rx, addr))
}

/// Receive `k` datagrams; returns the nanoseconds spent.
fn recv_group(rx: &UdpSocket, k: u64) -> io::Result<f64> {
    let mut buf = [0u8; 256];
    let t = Instant::now();
    for _ in 0..k {
        rx.recv_from(&mut buf)?;
    }
    Ok(t.elapsed().as_nanos() as f64)
}

/// Plain `UdpSocket` send and receive through the `DatagramSocket`
/// seam (the reactor's lossless passthrough), the `FaultySocket` send
/// at the workload's loss rate, and one `DirectionPlan::next_fate`
/// draw: `net.udp_send_ns`, `net.udp_recv_ns`, `net.faulty_send_ns`,
/// `net.next_fate_ns`.
pub fn net_probes(fault: &FaultConfig, budget: Duration) -> io::Result<Vec<Probe>> {
    let frame = probe_frame();
    let (tx, rx, addr) = loopback_pair()?;
    let mut failure: Option<io::Error> = None;
    let mut send_recv = |time_send: bool, iters: u64| -> f64 {
        let mut total = 0.0;
        let mut left = iters;
        while left > 0 && failure.is_none() {
            let k = left.min(GROUP);
            let t = Instant::now();
            for _ in 0..k {
                if let Err(e) = DatagramSocket::send_to(&tx, &frame, addr) {
                    failure = Some(e);
                }
            }
            let sent_ns = t.elapsed().as_nanos() as f64;
            match recv_group(&rx, k) {
                Ok(recv_ns) => total += if time_send { sent_ns } else { recv_ns },
                Err(e) => failure = Some(e),
            }
            left -= k;
        }
        total
    };
    let send = measure("net.udp_send_ns", budget, |iters| send_recv(true, iters));
    let recv = measure("net.udp_recv_ns", budget, |iters| send_recv(false, iters));

    let (tx2, rx2, addr2) = loopback_pair()?;
    let shim = FaultySocket::new(tx2, fault.clone());
    shim.register_peer(addr2);
    let faulty = measure("net.faulty_send_ns", budget, |iters| {
        let mut total = 0.0;
        let mut left = iters;
        while left > 0 && failure.is_none() {
            let k = left.min(GROUP);
            let mut delivered = 0;
            let t = Instant::now();
            for _ in 0..k {
                match shim.send_to(&frame, addr2) {
                    Ok(penelope_net::SendStatus::Sent) => delivered += 1,
                    Ok(penelope_net::SendStatus::Dropped) => {}
                    Err(e) => failure = Some(e),
                }
            }
            total += t.elapsed().as_nanos() as f64;
            if let Err(e) = recv_group(&rx2, delivered) {
                failure = Some(e);
            }
            left -= k;
        }
        total
    });

    let mut plan = DirectionPlan::new(fault, 0);
    let fate = measure("net.next_fate_ns", budget, |iters| {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(plan.next_fate());
        }
        t.elapsed().as_nanos() as f64
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(vec![send, recv, faulty, fate]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_a_positive_median_and_counts_calls() {
        let p = measure("spin", Duration::from_millis(20), |iters| {
            let t = Instant::now();
            let mut x = 0u64;
            for i in 0..iters {
                x = black_box(x.wrapping_add(i));
            }
            black_box(x);
            t.elapsed().as_nanos() as f64
        });
        assert!(p.ns > 0.0);
        assert!(p.calls >= MIN_BATCHES as u64);
        assert!(p.rel_iqr >= 0.0);
    }

    #[test]
    fn engine_exchange_measures_every_kind() {
        let probes = engine_probes(
            64,
            NodeParams::default(),
            Power::from_watts_u64(160),
            Duration::ZERO,
        );
        assert_eq!(probes.len(), ENGINE_KINDS.len());
        for p in &probes {
            assert!(p.ns > 0.0, "{} measured nothing", p.name);
        }
    }
}
