//! The three workloads, their seeded inputs, and one closed-loop
//! repetition ("cell") of each with its correctness checks.
//!
//! * `des_scale_1056` — the §4.5 end-of-application scenario on
//!   `ClusterSim` (Penelope, 1 Hz, lossless) at the paper's top scale,
//!   one cell per NPB pair. The only workload where the event queue and
//!   the ClusterSim loop do the work.
//! * `mega_sharded_1e5` — `ShardedConfig::mega` at 10^5 nodes, three
//!   shards, engine `jobs = 1`. Elision, shard barriers and exchange, and
//!   building 10^5 engines dominate.
//! * `mux_lossy_2k` — `run_multiplexed` with 2000 engines over real
//!   loopback UDP with 50‰ injected send-side loss. The only workload
//!   that runs the wire codec, the socket shim and syscalls.

use std::time::Instant;

use penelope_daemon::{run_multiplexed, MuxConfig};
use penelope_experiments::scenarios::{pair_subset, ScaleScenario};
use penelope_net::{FaultConfig, NetStats};
use penelope_sim::{ClusterSim, ShardedConfig, ShardedSim, SystemKind};
use penelope_testkit::rng::node_stream;
use penelope_trace::SharedObserver;
use penelope_units::{Power, SimTime};
use penelope_workload::Profile;

use crate::stats::tail_percentile;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DesScale1056,
    MegaSharded1e5,
    MuxLossy2k,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DesScale1056,
        Workload::MegaSharded1e5,
        Workload::MuxLossy2k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DesScale1056 => "des_scale_1056",
            Workload::MegaSharded1e5 => "mega_sharded_1e5",
            Workload::MuxLossy2k => "mux_lossy_2k",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload sizes. [`Scale::FULL`] is what the benchmark runs; tests use
/// smaller instances of the same generators.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub des_nodes: usize,
    /// NPB pairs per cycle, taken from `pair_subset`.
    pub des_pairs: usize,
    pub mega_nodes: usize,
    pub mega_periods: u64,
    pub mega_cells: usize,
    pub mux_nodes: usize,
    pub mux_rounds: u64,
    pub mux_cells: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        des_nodes: 1056,
        des_pairs: 4,
        mega_nodes: 100_000,
        // The mega sweep's smoke/quick period count.
        mega_periods: 250,
        mega_cells: 2,
        mux_nodes: 2000,
        mux_rounds: 25,
        mux_cells: 2,
    };
}

/// Shard count of the mega cell: the sweep's default at 10^5 nodes,
/// `(n / 32 768).clamp(2, 16)`.
const MEGA_SHARDS: usize = 3;

/// Injected send-side loss on the reactor, in permille.
pub const MUX_DROP_PERMILLE: u16 = 50;

/// The decider frequency of the DES scenario (the §4.5 scale sweep's).
const DES_FREQUENCY_HZ: f64 = 1.0;

/// One repetition's inputs.
#[derive(Clone, Debug)]
pub enum Cell {
    Des(DesCell),
    Mega(ShardedConfig),
    Mux(MuxConfig),
}

/// One NPB pair of the end-of-application scenario.
#[derive(Clone, Debug)]
pub struct DesCell {
    pub a: Profile,
    pub b: Profile,
    pub nodes: usize,
    pub seed: u64,
}

impl DesCell {
    pub fn scenario(&self) -> ScaleScenario {
        ScaleScenario::for_pair(&self.a, &self.b, self.nodes, DES_FREQUENCY_HZ, self.seed)
    }
}

/// The cells of one cycle, generated from `seed` alone. A cycle visits
/// every cell once; the closed loop repeats cycles.
pub fn cells(w: Workload, seed: u64, scale: &Scale) -> Vec<Cell> {
    match w {
        Workload::DesScale1056 => pair_subset(scale.des_pairs)
            .into_iter()
            .enumerate()
            .map(|(i, (a, b))| {
                Cell::Des(DesCell {
                    a,
                    b,
                    nodes: scale.des_nodes,
                    seed: node_stream(seed, i as u64),
                })
            })
            .collect(),
        Workload::MegaSharded1e5 => (0..scale.mega_cells)
            .map(|i| {
                let mut cfg = ShardedConfig::mega(
                    scale.mega_nodes,
                    scale.mega_periods,
                    node_stream(seed, i as u64),
                );
                cfg.shards = MEGA_SHARDS.min(scale.mega_nodes);
                cfg.jobs = 1;
                Cell::Mega(cfg)
            })
            .collect(),
        Workload::MuxLossy2k => (0..scale.mux_cells)
            .map(|i| {
                let mut cfg = MuxConfig::soak(
                    scale.mux_nodes,
                    node_stream(seed, 2 * i as u64),
                    scale.mux_rounds,
                );
                cfg.fault = Some(FaultConfig::lossy(
                    node_stream(seed, 2 * i as u64 + 1),
                    MUX_DROP_PERMILLE,
                ));
                Cell::Mux(cfg)
            })
            .collect(),
    }
}

/// How a DES cell is driven.
pub enum DesMode<'a> {
    /// `advance_to(horizon)` in one call, no observer: the untraced run.
    Plain,
    /// An observer attached through `ClusterSimBuilder::observer`.
    Observed(SharedObserver),
    /// `advance_to` in one-simulated-second slices; each slice's wall
    /// nanoseconds are appended.
    Sliced(&'a mut Vec<f64>),
    /// The simulator's own per-event conservation audit switched on.
    Checked,
}

/// What one repetition measured and produced.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// Building the cluster, seconds.
    pub setup_s: f64,
    /// Running it, seconds.
    pub run_s: f64,
    /// Nodes × protocol periods simulated (elided ticks included).
    pub node_periods: f64,
    /// Events actually executed (elided ticks excluded).
    pub executed: u64,
    pub outcome: Outcome,
    /// Correctness violations found in this repetition.
    pub violations: Vec<String>,
}

/// The simulated outputs of one repetition.
#[derive(Clone, Debug)]
pub enum Outcome {
    Des(DesOutcome),
    Mega(MegaOutcome),
    Mux(MuxOutcome),
}

impl Outcome {
    /// Whether `other`, a later repetition of the same cell, reproduced
    /// this one. Every simulated output and count must match exactly.
    /// The reactor's wall-clock RTTs are host time and are excluded, and
    /// its counts are compared only when neither run lost frames inside
    /// the kernel (`wire_lost`), which host load can cause.
    pub fn replays(&self, other: &Outcome) -> bool {
        match (self, other) {
            (Outcome::Des(a), Outcome::Des(b)) => a == b,
            (Outcome::Mega(a), Outcome::Mega(b)) => a == b,
            (Outcome::Mux(a), Outcome::Mux(b)) => {
                a.wire_lost != 0 || b.wire_lost != 0 || a.counts() == b.counts()
            }
            _ => false,
        }
    }
}

/// Simulated results of one DES pair.
#[derive(Clone, Debug, PartialEq)]
pub struct DesOutcome {
    pub events: u64,
    pub ended_ns: u64,
    pub net: NetStats,
    /// Time to shift 50 % / 100 % of the excess after the donors finish;
    /// `None` if it never happened.
    pub redist_median_ns: Option<u64>,
    pub redist_total_ns: Option<u64>,
    /// How long the run lasted after the donors finished (the paper's
    /// stand-in for an incomplete redistribution).
    pub experiment_ns: u64,
    pub answered: u64,
    pub unanswered: u64,
    pub turnaround_p50_ms: f64,
    pub turnaround_p99_ms: f64,
    pub final_caps_mw: u64,
    pub lost_mw: u64,
}

impl DesOutcome {
    pub fn redist_median_s(&self) -> f64 {
        self.redist_median_ns.unwrap_or(self.experiment_ns) as f64 / 1e9
    }

    pub fn redist_total_s(&self) -> f64 {
        self.redist_total_ns.unwrap_or(self.experiment_ns) as f64 / 1e9
    }
}

/// Results of one sharded run (the whole `ShardReport` minus its echo of
/// the configuration).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MegaOutcome {
    pub executed_events: u64,
    pub elided_ticks: u64,
    pub messages: u64,
    pub granted_mw: u64,
    pub lost_mw: u64,
    pub fingerprint: u64,
}

/// The grant round-trip quantiles each reactor run reports.
const RTT_QUANTILES: [f64; 3] = [0.5, 0.99, 0.999];

/// Results of one reactor run.
#[derive(Clone, Debug)]
pub struct MuxOutcome {
    pub frames_sent: u64,
    pub frames_delivered: u64,
    pub injected_drops: u64,
    pub wire_lost: u64,
    pub send_failed: u64,
    pub events: u64,
    /// Final caps, pools, undelivered escrow and losses, milliwatts.
    pub ledger_mw: [u64; 4],
    /// Wall-clock request→grant round trips: the sample count and the
    /// nearest-rank p50, p99 and p99.9 in microseconds (`None` where too
    /// few samples lie beyond the rank). The raw samples are dropped so
    /// the benchmark's own memory does not grow with its repetitions.
    pub rtt_samples: u64,
    pub rtt_us: [Option<f64>; 3],
}

impl MuxOutcome {
    /// Everything that must replay exactly per seed.
    fn counts(&self) -> [u64; 9] {
        let [c, p, e, l] = self.ledger_mw;
        [
            self.frames_sent,
            self.frames_delivered,
            self.injected_drops,
            self.send_failed,
            self.events,
            c,
            p,
            e,
            l,
        ]
    }

    /// Frames the reactor tried to send.
    pub fn frames_attempted(&self) -> u64 {
        self.frames_sent + self.injected_drops + self.send_failed
    }
}

/// Run one repetition of `cell`.
pub fn run_cell(cell: &Cell) -> CellRun {
    match cell {
        Cell::Des(c) => run_des(c, DesMode::Plain),
        Cell::Mega(cfg) => run_mega(cfg.clone()),
        Cell::Mux(cfg) => run_mux(cfg),
    }
}

/// Build the DES cluster for `cell`: returns the simulator, its horizon
/// and the build time in seconds (`ClusterSim` construction plus the
/// redistribution tracker).
pub fn build_des(cell: &DesCell, mode: &DesMode) -> (ClusterSim, SimTime, f64) {
    let sc = cell.scenario();
    let mut cfg = sc.config(SystemKind::Penelope);
    cfg.check_invariants = matches!(mode, DesMode::Checked);
    let horizon = sc.horizon();
    let workloads = sc.workloads(cfg.node.decider.epsilon, horizon);
    let t0 = Instant::now();
    let mut builder = ClusterSim::builder().config(cfg).workloads(workloads);
    if let DesMode::Observed(obs) = mode {
        builder = builder.observer(obs.clone());
    }
    let mut sim = builder.build();
    sim.track_redistribution(sc.total_excess(), sc.recipients(), sc.donor_finish);
    sim.stop_when_redistributed();
    (sim, horizon, t0.elapsed().as_secs_f64())
}

/// Caps + pools + in-flight + escrow + losses: the conserved total.
fn des_accounted(sim: &ClusterSim) -> Power {
    let snap = sim.conformance_snapshot(0);
    snap.accounted_live() + snap.lost
}

pub fn run_des(cell: &DesCell, mut mode: DesMode) -> CellRun {
    let (mut sim, horizon, setup_s) = build_des(cell, &mode);
    let sc = cell.scenario();
    let budget = des_accounted(&sim);
    let t0 = Instant::now();
    match &mut mode {
        DesMode::Sliced(slices) => {
            let mut until = SimTime::ZERO;
            loop {
                until = (until + penelope_units::SimDuration::from_secs(1)).min(horizon);
                let s0 = Instant::now();
                let more = sim.advance_to(until);
                slices.push(s0.elapsed().as_nanos() as f64);
                if !more || until >= horizon {
                    break;
                }
            }
        }
        _ => {
            sim.advance_to(horizon);
        }
    }
    let run_s = t0.elapsed().as_secs_f64();
    let mut violations = Vec::new();
    let accounted = des_accounted(&sim);
    if accounted != budget {
        violations.push(format!(
            "des pair {}+{}: caps+pools+in-flight+lost = {accounted}, budget {budget}",
            cell.a.name, cell.b.name
        ));
    }
    let report = sim.finish();
    if !report.conservation_ok {
        violations.push(format!(
            "des pair {}+{}: conservation_ok = false",
            cell.a.name, cell.b.name
        ));
    }
    let tracker = report.redistribution.as_ref().expect("tracking installed");
    let (p50, p99) = report
        .turnaround
        .summary_ms()
        .map_or((0.0, 0.0), |s| (s.percentile(50.0), s.percentile(99.0)));
    let outcome = DesOutcome {
        events: report.events,
        ended_ns: report.ended_at.as_nanos(),
        net: report.net,
        redist_median_ns: tracker.median_time().map(|d| d.as_nanos()),
        redist_total_ns: tracker.total_time().map(|d| d.as_nanos()),
        experiment_ns: report.ended_at.saturating_since(sc.donor_finish).as_nanos(),
        answered: report.turnaround.count() as u64,
        unanswered: report.turnaround.unanswered(),
        turnaround_p50_ms: p50,
        turnaround_p99_ms: p99,
        final_caps_mw: report.final_caps.iter().map(|c| c.milliwatts()).sum(),
        lost_mw: report.lost.milliwatts(),
    };
    if outcome.answered == 0 {
        violations.push("des: no request was ever answered".into());
    }
    CellRun {
        setup_s,
        run_s,
        node_periods: cell.nodes as f64 * report.ended_at.as_secs_f64() * DES_FREQUENCY_HZ,
        executed: report.events,
        outcome: Outcome::Des(outcome),
        violations,
    }
}

pub fn run_mega(cfg: ShardedConfig) -> CellRun {
    let node_periods = cfg.n_nodes as f64 * cfg.periods as f64;
    let t0 = Instant::now();
    let sim = ShardedSim::new(cfg);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let r = sim.run();
    let run_s = t1.elapsed().as_secs_f64();
    let mut violations = Vec::new();
    if !r.conservation_ok {
        violations.push("mega: conservation_ok = false".into());
    }
    if !r.lost.is_zero() {
        violations.push(format!("mega: {} lost on a fault-free run", r.lost));
    }
    if r.elided_ticks + r.executed_events == 0 || r.messages == 0 {
        violations.push("mega: no protocol traffic".into());
    }
    CellRun {
        setup_s,
        run_s,
        node_periods,
        executed: r.executed_events,
        outcome: Outcome::Mega(MegaOutcome {
            executed_events: r.executed_events,
            elided_ticks: r.elided_ticks,
            messages: r.messages,
            granted_mw: r.granted.milliwatts(),
            lost_mw: r.lost.milliwatts(),
            fingerprint: r.fingerprint,
        }),
        violations,
    }
}

pub fn run_mux(cfg: &MuxConfig) -> CellRun {
    let t0 = Instant::now();
    let s = match run_multiplexed(cfg) {
        Ok(s) => s,
        Err(e) => {
            return CellRun {
                setup_s: 0.0,
                run_s: 0.0,
                node_periods: 0.0,
                executed: 0,
                outcome: Outcome::Mux(MuxOutcome {
                    frames_sent: 0,
                    frames_delivered: 0,
                    injected_drops: 0,
                    wire_lost: 0,
                    send_failed: 0,
                    events: 0,
                    ledger_mw: [0; 4],
                    rtt_samples: 0,
                    rtt_us: [None; 3],
                }),
                violations: vec![format!("mux: run_multiplexed failed: {e}")],
            }
        }
    };
    let outer_s = t0.elapsed().as_secs_f64();
    let rtt: Vec<f64> = s.rtt_samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let mut violations = Vec::new();
    if s.send_failed != 0 {
        violations.push(format!("mux: {} sends failed", s.send_failed));
    }
    if cfg.fault.is_some() && s.injected_drops == 0 {
        violations.push("mux: lossy run injected no drops (vacuous)".into());
    }
    let accounted = s.accounted_total();
    if s.wire_lost == 0 && accounted != s.budget {
        violations.push(format!(
            "mux: accounted {accounted} != budget {} with no wire loss",
            s.budget
        ));
    }
    if accounted > s.budget {
        violations.push(format!("mux: accounted {accounted} > budget {}", s.budget));
    }
    if s.rtt_samples_ns.is_empty() {
        violations.push("mux: no grant round trip completed".into());
    }
    CellRun {
        setup_s: outer_s - s.wall_s,
        run_s: s.wall_s,
        node_periods: s.nodes as f64 * s.rounds as f64,
        executed: s.events,
        outcome: Outcome::Mux(MuxOutcome {
            frames_sent: s.frames_sent,
            frames_delivered: s.frames_delivered,
            injected_drops: s.injected_drops,
            wire_lost: s.wire_lost,
            send_failed: s.send_failed,
            events: s.events,
            ledger_mw: [
                s.total_caps.milliwatts(),
                s.total_pools.milliwatts(),
                s.total_escrowed.milliwatts(),
                s.lost.milliwatts(),
            ],
            rtt_samples: rtt.len() as u64,
            rtt_us: RTT_QUANTILES.map(|q| tail_percentile(&rtt, q)),
        }),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli;

    const SMALL: Scale = Scale {
        des_nodes: 32,
        des_pairs: 2,
        mega_nodes: 600,
        mega_periods: 30,
        mega_cells: 2,
        mux_nodes: 40,
        mux_rounds: 6,
        mux_cells: 1,
    };

    fn outcomes(args: &[&str]) -> Vec<CellRun> {
        let a = cli::parse(args).expect("valid arguments");
        cells(a.workload, a.seed, &SMALL)
            .iter()
            .map(run_cell)
            .collect()
    }

    fn args(workload: &'static str, seed: &'static str) -> [&'static str; 8] {
        [
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            "0",
        ]
    }

    fn assert_seed_replays_and_varies(workload: &'static str) {
        let first = outcomes(&args(workload, "11"));
        let again = outcomes(&args(workload, "11"));
        let other = outcomes(&args(workload, "12"));
        for r in first.iter().chain(&again).chain(&other) {
            assert!(r.violations.is_empty(), "{workload}: {:?}", r.violations);
        }
        for (a, b) in first.iter().zip(&again) {
            assert!(
                a.outcome.replays(&b.outcome),
                "{workload}: one seed must replay exactly"
            );
        }
        assert!(
            first
                .iter()
                .zip(&other)
                .any(|(a, b)| !a.outcome.replays(&b.outcome)),
            "{workload}: two seeds must give different outputs"
        );
    }

    #[test]
    fn des_seed_replays_and_seeds_differ() {
        assert_seed_replays_and_varies("des_scale_1056");
    }

    #[test]
    fn mega_seed_replays_and_seeds_differ() {
        assert_seed_replays_and_varies("mega_sharded_1e5");
    }

    #[test]
    fn mux_seed_replays_and_seeds_differ() {
        assert_seed_replays_and_varies("mux_lossy_2k");
    }

    #[test]
    fn sliced_observed_and_checked_des_runs_match_the_plain_run() {
        let Cell::Des(cell) = cells(Workload::DesScale1056, 5, &SMALL).remove(0) else {
            unreachable!("des workload yields des cells")
        };
        let plain = run_des(&cell, DesMode::Plain);
        let mut slices = Vec::new();
        let sliced = run_des(&cell, DesMode::Sliced(&mut slices));
        let counter = std::sync::Arc::new(penelope_trace::CounterObserver::new());
        let observed = run_des(
            &cell,
            DesMode::Observed(SharedObserver::from(counter.clone())),
        );
        let checked = run_des(&cell, DesMode::Checked);
        for r in [&sliced, &observed, &checked] {
            assert!(r.violations.is_empty(), "{:?}", r.violations);
            assert!(plain.outcome.replays(&r.outcome));
        }
        assert!(!slices.is_empty());
        assert!(counter.snapshot().requests_sent() > 0);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("des"), None);
    }
}
