//! The benchmark command:
//!
//! ```text
//! bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload closed-loop for `--seconds`
//! after a warm-up cycle and reports the end-to-end metrics. With
//! `--trace 1` it runs the workload again under the benchmark's own
//! spans, probes each layer the workload exercises, counts allocations
//! in a separate binary, and reconciles layer cost × count against the
//! run's wall time. Human-readable lines come first; the last line of
//! standard output is the JSON result. Any failed correctness check
//! makes the exit status 1.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

use penelope_benchmark::cli::{self, Args};
use penelope_benchmark::probes::{self, Probe};
use penelope_benchmark::reference::Reference;
use penelope_benchmark::report::{self, END_TO_END, PER_LAYER};
use penelope_benchmark::stats::{
    median, relative_iqr, tail_percentile, unattributed_share, LayerTerm,
};
use penelope_benchmark::workloads::{
    cells, run_cell, run_des, run_mega, Cell, CellRun, DesMode, DesOutcome, MuxOutcome, Outcome,
    Scale, Workload, MUX_DROP_PERMILLE,
};
use penelope_core::NodeParams;
use penelope_net::FaultConfig;
use penelope_sim::SystemKind;
use penelope_trace::{CounterObserver, SharedObserver};
use penelope_units::Power;

/// Measured cycles every run makes at least, whatever `--seconds` says.
const MIN_CYCLES: usize = 3;

/// The closed loop over one workload's cells: every repetition is
/// checked, and every repetition after a cell's first must replay it.
struct Loop {
    cells: Vec<Cell>,
    refs: Vec<Option<Outcome>>,
    violations: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Loop {
    fn new(cells: Vec<Cell>) -> Self {
        let refs = vec![None; cells.len()];
        Loop {
            cells,
            refs,
            violations: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Record repetition `run` of cell `i`.
    fn check(&mut self, i: usize, run: CellRun) -> CellRun {
        self.attempted += 1;
        let mut bad = run.violations.clone();
        match &self.refs[i] {
            None => self.refs[i] = Some(run.outcome.clone()),
            Some(r) if !r.replays(&run.outcome) => bad.push(format!(
                "cell {i}: simulated outputs differ from an earlier repetition of the same seed"
            )),
            Some(_) => {}
        }
        if !bad.is_empty() {
            self.failed += 1;
            self.violations.extend(bad);
        }
        run
    }

    /// One pass over every cell.
    fn cycle(&mut self, run: &mut impl FnMut(&Cell) -> CellRun) -> Vec<CellRun> {
        (0..self.cells.len())
            .map(|i| {
                let r = run(&self.cells[i]);
                self.check(i, r)
            })
            .collect()
    }
}

/// Sum of one field over a cycle.
fn total(cycle: &[CellRun], f: impl Fn(&CellRun) -> f64) -> f64 {
    cycle.iter().map(f).sum()
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// What a run prints: metrics for the JSON line plus notes.
struct Output {
    metrics: Vec<(&'static str, f64)>,
    lines: Vec<String>,
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: penelope-benchmark --workload <{}> --seed <n> --seconds <1-60> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut lp = Loop::new(cells(args.workload, args.seed, &Scale::FULL));
    let out = if args.trace {
        traced(&args, &mut lp)
    } else {
        untraced(&args, &mut lp)
    };
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for l in &out.lines {
        println!("{l}");
    }
    let mut metrics = out.metrics;
    for (name, value) in &mut metrics {
        if !value.is_finite() {
            lp.violations.push(format!("metric {name} is {value}"));
            *value = 0.0;
        }
    }
    for v in &lp.violations {
        println!("VIOLATION: {v}");
    }
    let correct = lp.violations.is_empty();
    println!(
        "{}",
        report::result_line(correct, lp.attempted, lp.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// Untraced: end-to-end metrics
// ---------------------------------------------------------------------

fn untraced(args: &Args, lp: &mut Loop) -> Output {
    let failed = |lp: &mut Loop, what: &str, e: std::io::Error| {
        lp.violations.push(format!("reference kernel {what}: {e}"));
        Output {
            metrics: Vec::new(),
            lines: Vec::new(),
        }
    };
    let mut reference = match Reference::for_workload(args.workload) {
        Ok(r) => r,
        Err(e) => return failed(lp, "unavailable", e),
    };
    let mut run = |c: &Cell| run_cell(c);
    let warmup = lp.cycle(&mut run);
    if let Err(e) = reference.run() {
        return failed(lp, "failed", e);
    }
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    // Each measured cycle is followed by one reference pass; `slowdown`
    // is how much slower than nominal the host ran around that cycle.
    let mut cycles = Vec::new();
    let mut slowdown = Vec::new();
    while cycles.len() < MIN_CYCLES || start.elapsed() < budget {
        cycles.push(lp.cycle(&mut run));
        match reference.run() {
            Ok(t) => slowdown.push(t / reference.nominal_s),
            Err(e) => return failed(lp, "failed", e),
        }
    }
    let raw_setups: Vec<f64> = cycles.iter().flatten().map(|r| r.setup_s).collect();
    let setups: Vec<f64> = cycles
        .iter()
        .zip(&slowdown)
        .flat_map(|(c, k)| c.iter().map(move |r| r.setup_s / k))
        .collect();
    let rate = |f: &dyn Fn(&CellRun) -> f64| -> Vec<f64> {
        cycles
            .iter()
            .map(|c| total(c, f) / total(c, |r| r.run_s))
            .collect()
    };
    let scaled =
        |raw: &[f64]| -> Vec<f64> { raw.iter().zip(&slowdown).map(|(v, k)| v * k).collect() };
    let raw_periods = rate(&|r| r.node_periods);
    let raw_executed = rate(&|r| r.executed as f64);
    let periods = scaled(&raw_periods);
    let executed = scaled(&raw_executed);
    let rss = report::peak_rss_mb().unwrap_or_else(|| {
        lp.violations
            .push("peak RSS unavailable (no /proc/self/status)".into());
        0.0
    });
    let metrics = vec![
        ("setup_s", med(&setups)),
        ("node_periods_per_s", med(&periods)),
        ("executed_events_per_s", med(&executed)),
        ("peak_rss_mb", rss),
    ];
    debug_assert!(metrics.iter().map(|m| m.0).eq(END_TO_END.map(|m| m.0)));
    let mut lines = vec![format!(
        "measured {} cycles of {} cells in {:.2} s after one warm-up cycle; \
         host slowdown against the reference: median {:.3}, rel IQR {:.3}",
        cycles.len(),
        lp.cells.len(),
        start.elapsed().as_secs_f64(),
        med(&slowdown),
        relative_iqr(&slowdown).unwrap_or(0.0)
    )];
    for (name, normalized, raw) in [
        ("setup_s", &setups, &raw_setups),
        ("node_periods_per_s", &periods, &raw_periods),
        ("executed_events_per_s", &executed, &raw_executed),
    ] {
        lines.push(format!(
            "{name}: normalized rel IQR {:.4}; raw wall-clock median {} (rel IQR {:.4}) over {} samples",
            relative_iqr(normalized).unwrap_or(0.0),
            med(raw),
            relative_iqr(raw).unwrap_or(0.0),
            raw.len()
        ));
    }
    for (name, value) in &metrics {
        let unit = report::unit_of(name).expect("declared");
        lines.push(format!("e2e {name} = {value} {unit}"));
    }
    let all: Vec<&CellRun> = warmup.iter().chain(cycles.iter().flatten()).collect();
    lines.extend(figure_lines(&all));
    Output { metrics, lines }
}

/// The user-facing figures that exist on one workload only, as
/// (name, unit, value). Medians over the runs given.
fn figures(runs: &[&CellRun]) -> Vec<(&'static str, &'static str, f64)> {
    let mut des = Vec::new();
    let mut mux = Vec::new();
    for r in runs {
        match &r.outcome {
            Outcome::Des(d) => des.push(d),
            Outcome::Mux(m) => mux.push(m),
            Outcome::Mega(_) => {}
        }
    }
    let mut out = Vec::new();
    if !des.is_empty() {
        let of = |f: fn(&DesOutcome) -> f64| med(&des.iter().map(|o| f(o)).collect::<Vec<_>>());
        let answered: u64 = des.iter().map(|o| o.answered).sum();
        let unanswered: u64 = des.iter().map(|o| o.unanswered).sum();
        out.extend([
            ("turnaround_p50_ms", "ms", of(|o| o.turnaround_p50_ms)),
            ("turnaround_p99_ms", "ms", of(|o| o.turnaround_p99_ms)),
            ("redist_median_s", "s", of(DesOutcome::redist_median_s)),
            ("redist_total_s", "s", of(DesOutcome::redist_total_s)),
            (
                "unanswered_frac",
                "ratio",
                unanswered as f64 / (answered + unanswered).max(1) as f64,
            ),
        ]);
    }
    if !mux.is_empty() {
        let rtt = |k: usize| med(&mux.iter().filter_map(|o| o.rtt_us[k]).collect::<Vec<_>>());
        let attempted: u64 = mux.iter().map(|o| o.frames_attempted()).sum();
        let failed: u64 = mux.iter().map(|o| o.wire_lost + o.send_failed).sum();
        out.extend([
            ("grant_rtt_p50_us", "us", rtt(0)),
            ("grant_rtt_p99_us", "us", rtt(1)),
            ("grant_rtt_p999_us", "us", rtt(2)),
            (
                "grant_rtt_samples",
                "count",
                med(&mux.iter().map(|o| o.rtt_samples as f64).collect::<Vec<_>>()),
            ),
            (
                "wire_fail_frac",
                "ratio",
                failed as f64 / attempted.max(1) as f64,
            ),
        ]);
    }
    out
}

/// The end-to-end figures that only one workload produces.
const FIGURE_NAMES: [&str; 8] = [
    "grant_rtt_p50_us",
    "grant_rtt_p99_us",
    "turnaround_p50_ms",
    "turnaround_p99_ms",
    "redist_median_s",
    "redist_total_s",
    "unanswered_frac",
    "wire_fail_frac",
];

/// One line per figure: its value and unit, or "n/a" on a workload that
/// does not produce it.
fn figure_lines(runs: &[&CellRun]) -> Vec<String> {
    let values = figures(runs);
    let mut lines: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| format!("figure {name} = {v} {unit}"))
        .collect();
    for name in FIGURE_NAMES {
        if !values.iter().any(|(n, _, _)| *n == name) {
            lines.push(format!("figure {name} = n/a on this workload"));
        }
    }
    lines
}

// ---------------------------------------------------------------------
// Traced: per-layer metrics
// ---------------------------------------------------------------------

/// Per-layer results, keyed by metric name.
#[derive(Default)]
struct Layers {
    values: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
    probes: Vec<Probe>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.values.insert(name, value);
    }

    fn probe(&mut self, p: Probe) -> f64 {
        let ns = p.ns;
        if let Some((name, _)) = PER_LAYER.iter().find(|(n, _)| *n == p.name) {
            self.values.insert(name, ns);
        }
        self.probes.push(p);
        ns
    }

    /// Print the workload's user-facing figures; the two ratios also go
    /// into the JSON line (their time-valued siblings exist on one
    /// workload only and are printed alone).
    fn figures(&mut self, runs: &[&CellRun]) {
        for (name, _, v) in figures(runs) {
            match name {
                "unanswered_frac" => self.set("sim.unanswered_frac", v),
                "wire_fail_frac" => self.set("mux.wire_fail_frac", v),
                _ => {}
            }
        }
        self.lines.extend(figure_lines(runs));
    }

    /// Build and repetition times of the workload's own substrate.
    fn substrate(&mut self, runs: &[&CellRun]) {
        let builds: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
        let walls: Vec<f64> = runs.iter().map(|r| r.run_s).collect();
        self.set("substrate.build_s", med(&builds));
        self.set("substrate.run_s", med(&walls));
    }

    /// Print the cost × count table of one repetition, and record the
    /// median unattributed share over all of them.
    fn reconcile(&mut self, terms: &[LayerTerm], wall_s: f64, shares: &[f64]) {
        for t in terms {
            self.lines.push(format!(
                "reconcile {:<28} {:>10.1} ns x {:>12.0} = {:.4} s ({:.1}% of {:.4} s)",
                t.layer,
                t.cost_ns,
                t.count,
                t.cost_ns * t.count * 1e-9,
                100.0 * t.cost_ns * t.count * 1e-9 / wall_s,
                wall_s
            ));
        }
        self.lines.push(format!(
            "reconcile unattributed share {:.3} of {wall_s:.4} s; median over {} repetitions {:.3}",
            unattributed_share(terms, wall_s),
            shares.len(),
            med(shares)
        ));
        self.set("reconcile.unattributed_share", med(shares));
    }

    fn finish(mut self, lp: &Loop) -> Output {
        let max_iqr = self.probes.iter().map(|p| p.rel_iqr).fold(0.0, f64::max);
        self.set("probe.max_rel_iqr", max_iqr);
        self.set(
            "host.parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        );
        let mut lines = self.lines;
        for p in &self.probes {
            lines.push(format!(
                "probe {:<32} {:>10.2} ns/call  rel IQR {:.3}  ({} calls)",
                p.name, p.ns, p.rel_iqr, p.calls
            ));
        }
        lines.push(format!("{} repetitions checked", lp.attempted));
        let metrics = PER_LAYER
            .iter()
            .map(|(name, _)| (*name, self.values.get(name).copied().unwrap_or(0.0)))
            .collect();
        Output { metrics, lines }
    }
}

/// Per-call costs of every probed layer, in nanoseconds.
struct Costs {
    /// `NodeEngine::handle` by input kind, in `probes::ENGINE_KINDS` order.
    core: [f64; 7],
    queue: f64,
    encode: f64,
    decode: f64,
    udp_recv: f64,
    faulty_send: f64,
}

/// Run every layer probe. The engine exchange is built at the workload's
/// cluster size and parameters and the event queue held at one pending
/// event per node; the other probes do not depend on the workload.
fn probe_layers(
    lp: &mut Loop,
    layers: &mut Layers,
    (n, node, cap): (usize, NodeParams, Power),
    budget_s: f64,
) -> Costs {
    // Sixteen measurements share the probe time.
    let budget = Duration::from_secs_f64(budget_s / 16.0);
    layers.probe(probes::timer_overhead_ns(budget));
    let core: Vec<f64> = probes::engine_probes(n, node, cap, budget)
        .into_iter()
        .map(|p| layers.probe(p))
        .collect();
    layers.set("sim.queue.depth", n as f64);
    let queue = layers.probe(probes::queue_probe(n, budget));
    for p in probes::emit_probes(budget) {
        layers.probe(p);
    }
    let wire: Vec<f64> = probes::wire_probes(budget)
        .into_iter()
        .map(|p| layers.probe(p))
        .collect();
    let fault = FaultConfig::lossy(0xFA17_5EED, MUX_DROP_PERMILLE);
    let net = match probes::net_probes(&fault, budget) {
        Ok(ps) => ps.into_iter().map(|p| layers.probe(p)).collect(),
        Err(e) => {
            lp.violations.push(format!("loopback probe failed: {e}"));
            vec![0.0; 4]
        }
    };
    Costs {
        core: core.try_into().expect("seven engine kinds"),
        queue,
        encode: (wire[0] + wire[2] + wire[4]) / 3.0,
        decode: (wire[1] + wire[3] + wire[5]) / 3.0,
        udp_recv: net[1],
        faulty_send: net[2],
    }
}

fn traced(args: &Args, lp: &mut Loop) -> Output {
    let mut layers = Layers::default();
    let seconds = args.seconds as f64;
    let legs = Duration::from_secs_f64(0.55 * seconds);
    // Reference passes before and after the legs describe how fast the
    // host ran during this traced run.
    let mut passes = Vec::new();
    let mut reference = Reference::for_workload(args.workload)
        .map_err(|e| {
            lp.violations
                .push(format!("reference kernel unavailable: {e}"))
        })
        .ok();
    let mut sample = |lp: &mut Loop| {
        for _ in 0..3 {
            match reference.as_mut().map(Reference::run) {
                Some(Ok(t)) => passes.push(t),
                Some(Err(e)) => lp.violations.push(format!("reference kernel failed: {e}")),
                None => {}
            }
        }
    };
    sample(lp);
    let sizing = match &lp.cells[0] {
        Cell::Des(c) => {
            let sc = c.scenario();
            (
                c.nodes,
                sc.config(SystemKind::Penelope).node,
                sc.initial_cap,
            )
        }
        Cell::Mega(cfg) => (cfg.n_nodes, cfg.node, cfg.initial_cap),
        Cell::Mux(cfg) => (cfg.nodes, cfg.node, cfg.initial_cap),
    };
    let costs = probe_layers(lp, &mut layers, sizing, 0.3 * seconds);
    match args.workload {
        Workload::DesScale1056 => traced_des(lp, &mut layers, legs, &costs),
        Workload::MegaSharded1e5 => traced_mega(lp, &mut layers, legs, &costs),
        Workload::MuxLossy2k => traced_mux(lp, &mut layers, legs, &costs),
    }
    sample(lp);
    layers.set("host.reference_s", med(&passes));
    allocs(args, lp, &mut layers);
    layers.finish(lp)
}

/// Count heap allocations per executed event in the `alloc-count`
/// binary, twice: the two counts must agree.
fn allocs(args: &Args, lp: &mut Loop, layers: &mut Layers) {
    let name = match args.workload {
        Workload::MuxLossy2k => "mux.allocs_per_event",
        _ => "sim.allocs_per_event",
    };
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("alloc-count")));
    let Some(exe) = exe.filter(|p| p.exists()) else {
        lp.violations
            .push("alloc-count binary not found next to this one".into());
        return;
    };
    let mut counts = Vec::new();
    for _ in 0..2 {
        let out = Command::new(&exe)
            .args([
                "--workload",
                args.workload.name(),
                "--seed",
                &args.seed.to_string(),
            ])
            .output();
        let parsed = out.ok().filter(|o| o.status.success()).and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout).to_string();
            let last = text.lines().last()?.to_string();
            let mut it = last
                .split_whitespace()
                .map(|kv| kv.split_once('=').and_then(|(_, v)| v.parse::<u64>().ok()));
            Some((it.next()??, it.next()??))
        });
        match parsed {
            Some(c) => counts.push(c),
            None => {
                lp.violations.push("alloc-count failed".into());
                return;
            }
        }
    }
    // The count is exact on the sharded sim and the reactor. ClusterSim's
    // hash maps draw per-process hash keys, which decide whether a table
    // growth rehashes in place or allocates, so there the two counts may
    // differ by a handful per 10^5 events.
    let (a0, a1) = (counts[0].0 as f64, counts[1].0 as f64);
    let tolerance = match args.workload {
        Workload::DesScale1056 => 1e-3 * a0,
        _ => 0.0,
    };
    if counts[0].1 != counts[1].1 || (a0 - a1).abs() > tolerance {
        lp.violations.push(format!(
            "allocation count not repeatable: {:?} then {:?}",
            counts[0], counts[1]
        ));
    }
    let (a, e) = counts[0];
    layers.lines.push(format!(
        "allocs {a} over {e} executed events (second count {})",
        counts[1].0
    ));
    layers.set(name, a as f64 / e.max(1) as f64);
}

fn traced_des(lp: &mut Loop, layers: &mut Layers, legs: Duration, costs: &Costs) {
    let Cell::Des(first) = lp.cells[0].clone() else {
        unreachable!("des workload yields des cells")
    };
    lp.cycle(&mut |c| run_cell(c));

    // Interleave plain, counter-observed and sliced cycles so host noise
    // hits all three alike.
    let mut plain: Vec<Vec<CellRun>> = Vec::new();
    let mut observed_s = Vec::new();
    let mut sliced_s = Vec::new();
    let mut slices = Vec::new();
    let mut counts = None;
    let start = Instant::now();
    while plain.len() < MIN_CYCLES || slices.len() < 1000 || start.elapsed() < legs {
        plain.push(lp.cycle(&mut |c| run_cell(c)));
        let counter = Arc::new(CounterObserver::new());
        let obs = SharedObserver::from(counter.clone());
        let cyc = lp.cycle(&mut |c| match c {
            Cell::Des(d) => run_des(d, DesMode::Observed(obs.clone())),
            _ => unreachable!("des workload yields des cells"),
        });
        observed_s.push(total(&cyc, |r| r.run_s));
        counts = Some(counter.snapshot());
        let cyc = lp.cycle(&mut |c| match c {
            Cell::Des(d) => run_des(d, DesMode::Sliced(&mut slices)),
            _ => unreachable!("des workload yields des cells"),
        });
        sliced_s.push(total(&cyc, |r| r.run_s));
    }
    // The simulator's own per-event conservation audit, once per run.
    let checked = run_des(&first, DesMode::Checked);
    lp.check(0, checked);

    let counts = counts.expect("at least one observed cycle");
    let plain_s: Vec<f64> = plain.iter().map(|c| total(c, |r| r.run_s)).collect();
    let plain_runs: Vec<&CellRun> = plain.iter().flatten().collect();
    layers.substrate(&plain_runs);
    layers.figures(&plain_runs);
    let cyc = &plain[0];
    let outcomes: Vec<&DesOutcome> = cyc
        .iter()
        .filter_map(|r| match &r.outcome {
            Outcome::Des(d) => Some(d),
            _ => None,
        })
        .collect();
    let events = total(cyc, |r| r.executed as f64);
    let sent: u64 = outcomes.iter().map(|o| o.net.offered()).sum();
    let answered: u64 = outcomes.iter().map(|o| o.answered).sum();
    let escrowed = counts.count("grant_escrowed");
    layers.set("sim.events", events);
    layers.set("sim.net.sent", sent as f64);
    layers.set(
        "sim.net.delivered",
        outcomes.iter().map(|o| o.net.delivered).sum::<u64>() as f64,
    );
    for q in [0.5, 0.99] {
        layers.lines.push(format!(
            "layer sim.advance_ns_per_sim_s p{} = {} ns over {} one-second slices",
            q * 100.0,
            tail_percentile(&slices, q).unwrap_or(f64::NAN),
            slices.len()
        ));
    }
    layers.set("core.requests_sent", counts.requests_sent() as f64);
    layers.set("core.requests_served", counts.requests_served() as f64);
    layers.set("core.request_timeout", counts.timeouts() as f64);
    layers.set("core.grant_escrowed", escrowed as f64);
    layers.set(
        "core.grant_reclaimed",
        counts.count("grant_reclaimed") as f64,
    );
    layers.set(
        "core.messages_per_grant",
        sent as f64 / escrowed.max(1) as f64,
    );
    let plain_med = med(&plain_s);
    layers.set("trace.counter_overhead", med(&observed_s) / plain_med);
    layers.set("trace.span_overhead", med(&sliced_s) / plain_med);
    layers.lines.push(format!(
        "cycle wall: plain {plain_med:.4} s, counter-observed {:.4} s, sliced {:.4} s over {} rounds",
        med(&observed_s),
        med(&sliced_s),
        plain.len()
    ));

    let [quiet, request, serve, apply, ack, outcome, _sweep] = costs.core;
    let sent_req = counts.requests_sent() as f64;
    let term = |layer, cost_ns, count| LayerTerm {
        layer,
        cost_ns,
        count,
    };
    let terms = [
        term("core tick (requesting)", request, sent_req),
        term(
            "core tick (other)",
            quiet,
            total(cyc, |r| r.node_periods) - sent_req,
        ),
        term("core request_serve", serve, counts.requests_served() as f64),
        term("core grant_outcome", outcome, escrowed as f64),
        term("core grant_apply", apply, answered as f64),
        term("core ack", ack, escrowed as f64),
        term("sim event queue push+pop", costs.queue, events),
    ];
    let shares: Vec<f64> = plain_s
        .iter()
        .map(|&w| unattributed_share(&terms, w))
        .collect();
    layers.reconcile(&terms, plain_med, &shares);
}

fn traced_mega(lp: &mut Loop, layers: &mut Layers, legs: Duration, costs: &Costs) {
    let Cell::Mega(base) = lp.cells[0].clone() else {
        unreachable!("mega workload yields mega cells")
    };
    let mut one_shard = base.clone();
    one_shard.shards = 1;
    let mut two_jobs = base.clone();
    two_jobs.jobs = 2;
    // Every leg must reproduce the first cell's fingerprint: the sharded
    // schedule is invariant under shard and thread counts.
    lp.check(0, run_mega(base.clone()));
    let mut a = Vec::new();
    let mut b_run = Vec::new();
    let mut c_run = Vec::new();
    let start = Instant::now();
    while a.len() < MIN_CYCLES || start.elapsed() < legs {
        a.push(lp.check(0, run_mega(base.clone())));
        b_run.push(lp.check(0, run_mega(one_shard.clone())).run_s);
        c_run.push(lp.check(0, run_mega(two_jobs.clone())).run_s);
    }
    layers.substrate(&a.iter().collect::<Vec<_>>());
    let runs: Vec<f64> = a.iter().map(|r| r.run_s).collect();
    let Outcome::Mega(o) = a[0].outcome.clone() else {
        unreachable!("mega cells produce mega outcomes")
    };
    let run_med = med(&runs);
    layers.set("shard.executed_events", o.executed_events as f64);
    layers.set("shard.elided_ticks", o.elided_ticks as f64);
    layers.set(
        "shard.elided_share",
        o.elided_ticks as f64 / (o.elided_ticks + o.executed_events) as f64,
    );
    layers.set("shard.messages", o.messages as f64);
    layers.set("shard.partition_overhead", run_med / med(&b_run));
    layers.set("shard.jobs2_speedup", run_med / med(&c_run));
    layers.set("trace.span_overhead", 1.0);
    layers.lines.push(format!(
        "run wall: shards={} jobs=1 {run_med:.4} s, shards=1 jobs=1 {:.4} s, shards={} jobs=2 {:.4} s over {} rounds",
        base.shards,
        med(&b_run),
        base.shards,
        med(&c_run),
        a.len()
    ));

    // ShardReport does not split executed events by kind: deliveries
    // are charged at the mean of the three message handlers, everything
    // else (ticks, grant outcomes, escrow deadlines) at a quiet tick.
    let [quiet, _request, serve, apply, ack, _outcome, _sweep] = costs.core;
    let msgs = o.messages as f64;
    let terms = [
        LayerTerm {
            layer: "core message handling",
            cost_ns: (serve + apply + ack) / 3.0,
            count: msgs,
        },
        LayerTerm {
            layer: "core tick and other inputs",
            cost_ns: quiet,
            count: o.executed_events as f64 - msgs,
        },
    ];
    let shares: Vec<f64> = runs
        .iter()
        .map(|&w| unattributed_share(&terms, w))
        .collect();
    layers.reconcile(&terms, run_med, &shares);
}

fn traced_mux(lp: &mut Loop, layers: &mut Layers, legs: Duration, costs: &Costs) {
    let Cell::Mux(cfg) = lp.cells[0].clone() else {
        unreachable!("mux workload yields mux cells")
    };
    lp.cycle(&mut |c| run_cell(c));
    let mut reps: Vec<CellRun> = Vec::new();
    let start = Instant::now();
    while reps.len() < MIN_CYCLES * lp.cells.len() || start.elapsed() < legs {
        reps.extend(lp.cycle(&mut |c| run_cell(c)));
    }
    let refs: Vec<&CellRun> = reps.iter().collect();
    layers.substrate(&refs);
    layers.figures(&refs);
    let outs: Vec<&MuxOutcome> = reps
        .iter()
        .filter_map(|r| match &r.outcome {
            Outcome::Mux(m) => Some(m),
            _ => None,
        })
        .collect();
    let o = outs[0];
    layers.set("mux.frames_sent", o.frames_sent as f64);
    layers.set("mux.frames_delivered", o.frames_delivered as f64);
    layers.set("mux.injected_drops", o.injected_drops as f64);
    layers.set(
        "mux.frames_per_input",
        o.frames_sent as f64 / o.events as f64,
    );
    layers.set("trace.span_overhead", 1.0);

    // Per repetition: resolved round trips stand in for requesting
    // ticks; frames delivered are charged at the mean message handler;
    // the remaining inputs are grant outcomes and escrow sweeps.
    let [quiet, request, serve, apply, ack, outcome, _sweep] = costs.core;
    let ticks = (cfg.nodes as u64 * cfg.rounds) as f64;
    let terms_for = |o: &MuxOutcome| {
        let resolved = o.rtt_samples as f64;
        let delivered = o.frames_delivered as f64;
        let attempted = o.frames_attempted() as f64;
        let term = |layer, cost_ns, count| LayerTerm {
            layer,
            cost_ns,
            count,
        };
        [
            term("core tick (requesting)", request, resolved),
            term("core tick (other)", quiet, ticks - resolved),
            term(
                "core message handling",
                (serve + apply + ack) / 3.0,
                delivered,
            ),
            term(
                "core outcome and sweep",
                outcome,
                o.events as f64 - ticks - delivered,
            ),
            term("wire encode", costs.encode, attempted),
            term("net faulty send (syscall)", costs.faulty_send, attempted),
            term("net recv (syscall)", costs.udp_recv, delivered),
            term("wire decode", costs.decode, delivered),
        ]
    };
    let shares: Vec<f64> = outs
        .iter()
        .zip(&reps)
        .map(|(o, r)| unattributed_share(&terms_for(o), r.run_s))
        .collect();
    layers.reconcile(&terms_for(o), reps[0].run_s, &shares);
}
