//! Thread orchestration for the three systems. Penelope runs on the
//! [lockstep driver](crate::lockstep); Fair and SLURM on wall-clock threads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use penelope_core::{fair_assignment, DeciderConfig, DiscoveryStrategy, EngineConfig, NodeParams};
use penelope_net::{FaultScript, ThreadEndpoint, ThreadNet};
use penelope_power::RaplConfig;
use penelope_slurm::{ClientAction, PowerServer, SlurmClient, SlurmMsg};
use penelope_trace::{EventKind, SharedObserver, TraceEvent};
use penelope_units::{NodeId, Power, SimDuration, SimTime};
use penelope_workload::Profile;

use crate::hardware::{NodeHardware, WallClock};
use crate::lockstep::Lockstep;
use crate::report::ThreadedReport;

/// Configuration for a threaded cluster run.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// System-wide budget, split evenly as the initial assignment.
    pub budget: Power,
    /// The per-node protocol knobs (decider, pool, safe range), shared
    /// verbatim with the simulator and the UDP daemon. Keep the period in
    /// the milliseconds for tests: the Fair and SLURM runs sleep it for
    /// real, and Penelope's virtual run takes `deadline / period` periods.
    pub node: NodeParams,
    /// Simulated RAPL parameters.
    pub rapl: RaplConfig,
    /// Fractional daemon overhead on the workload (0 for Fair).
    pub management_overhead: f64,
    /// Peer-discovery strategy for the Penelope deciders.
    pub discovery: DiscoveryStrategy,
    /// Starting request-sequence watermark applied to every node's engine
    /// (`NodeEngine::with_seq_floor`). Zero for a fresh cluster.
    pub seq_floor: u64,
    /// Master seed for peer selection: Penelope node `i` draws from
    /// `node_seed(seed, i)`.
    pub seed: u64,
    /// Protocol-event sink shared by every node thread; defaults to the
    /// free no-op observer.
    pub observer: SharedObserver,
}

impl RuntimeConfig {
    /// Milliseconds-scale defaults for fast in-process runs.
    pub fn fast(budget: Power) -> Self {
        RuntimeConfig {
            budget,
            node: NodeParams {
                decider: DeciderConfig {
                    period: SimDuration::from_millis(10),
                    response_timeout: SimDuration::from_millis(10),
                    ..Default::default()
                },
                ..NodeParams::default()
            },
            rapl: RaplConfig {
                actuation_delay: SimDuration::ZERO,
                ..Default::default()
            },
            management_overhead: 0.0,
            discovery: DiscoveryStrategy::default(),
            seq_floor: 0,
            seed: 1,
            observer: SharedObserver::noop(),
        }
    }

    fn period(&self) -> Duration {
        Duration::from_nanos(self.node.decider.period.as_nanos())
    }

    fn timeout(&self) -> Duration {
        Duration::from_nanos(self.node.decider.response_timeout.as_nanos())
    }
}

/// A cheap per-thread event stamper: owns a clone of the shared observer
/// plus the node identity and period, so worker threads can emit protocol
/// events without recomputing the stamp math inline.
#[derive(Clone)]
pub(crate) struct Emitter {
    obs: SharedObserver,
    node: NodeId,
    period_ns: u64,
}

impl Emitter {
    pub(crate) fn new(obs: SharedObserver, node: NodeId, period: SimDuration) -> Self {
        Emitter {
            obs,
            node,
            period_ns: period.as_nanos().max(1),
        }
    }

    #[inline]
    pub(crate) fn emit(&self, at: SimTime, kind: impl FnOnce() -> EventKind) {
        let node = self.node;
        let period_ns = self.period_ns;
        self.obs.emit(|| TraceEvent {
            at,
            node,
            period: at.as_nanos() / period_ns,
            kind: kind(),
        });
    }
}

/// Entry points for running a whole cluster on real threads.
pub struct ThreadedCluster;

fn build_hardware(
    cfg: &RuntimeConfig,
    workloads: &[Profile],
    caps: &[Power],
    clock: &WallClock,
) -> Vec<Arc<NodeHardware>> {
    workloads
        .iter()
        .zip(caps)
        .map(|(p, &cap)| {
            NodeHardware::new(
                p.clone(),
                cap,
                cfg.rapl.clone(),
                cfg.management_overhead,
                clock.clone(),
            )
        })
        .collect()
}

fn await_completion(hw: &[Arc<NodeHardware>], deadline: Duration) {
    let start = Instant::now();
    loop {
        if hw.iter().all(|h| h.is_finished()) {
            return;
        }
        if start.elapsed() > deadline {
            return;
        }
        thread::sleep(Duration::from_millis(2));
    }
}

fn finish_times(hw: &[Arc<NodeHardware>]) -> Vec<Option<f64>> {
    hw.iter()
        .map(|h| h.finished_at().map(|t| t.as_secs_f64()))
        .collect()
}

impl ThreadedCluster {
    /// Run the *Fair* baseline: static caps, no threads beyond the
    /// workloads themselves.
    pub fn run_fair(
        cfg: RuntimeConfig,
        workloads: Vec<Profile>,
        deadline: Duration,
    ) -> ThreadedReport {
        let n = workloads.len();
        let caps = fair_assignment(cfg.budget, n, cfg.node.safe_range);
        let budget_assigned: Power = caps.iter().copied().sum();
        let clock = WallClock::start();
        let hw = build_hardware(&cfg, &workloads, &caps, &clock);
        await_completion(&hw, deadline);
        ThreadedReport {
            finished_secs: finish_times(&hw),
            net: penelope_net::NetStats::default(),
            final_caps: hw.iter().map(|h| h.cap()).collect(),
            final_pools: vec![Power::ZERO; n],
            drained_in_flight: Power::ZERO,
            server_cache: Power::ZERO,
            budget_assigned,
        }
    }

    /// Run Penelope on the [lockstep driver](Lockstep): one thread per
    /// node, its [`NodeEngine`](penelope_core::NodeEngine) behind the §3.3
    /// lock, periods phased by barriers in unpaced virtual time. `deadline`
    /// caps the run at `deadline / period` periods; `finished_secs` are
    /// workload seconds.
    pub fn run_penelope(
        cfg: RuntimeConfig,
        workloads: Vec<Profile>,
        deadline: Duration,
    ) -> ThreadedReport {
        Self::run_penelope_with_fault(cfg, workloads, deadline, None)
    }

    /// Run Penelope with an optional client-node crash after a delay (the
    /// fault Penelope is exposed to in §4.4), applied at the first period
    /// boundary at or after it: the victim's cap, pool and escrow retire
    /// and it neither serves nor acquires power. Completion then means
    /// every other node finished.
    pub fn run_penelope_with_fault(
        cfg: RuntimeConfig,
        workloads: Vec<Profile>,
        deadline: Duration,
        kill_node_after: Option<(Duration, usize)>,
    ) -> ThreadedReport {
        let caps = fair_assignment(cfg.budget, workloads.len(), cfg.node.safe_range);
        let budget_assigned: Power = caps.iter().copied().sum();
        let virtual_time = |d: Duration| SimDuration::from_nanos(d.as_nanos() as u64);
        let faults = match kill_node_after {
            Some((after, victim)) => FaultScript::kill_node_at(
                SimTime::ZERO + virtual_time(after),
                NodeId::new(victim as u32),
            ),
            None => FaultScript::none(),
        };
        // The engine's safe range is the hardware's, as on the other drivers.
        let node = NodeParams {
            safe_range: cfg.rapl.safe_range,
            ..cfg.node
        };
        let run = Lockstep {
            engine: EngineConfig::new(node)
                .with_discovery(cfg.discovery)
                .with_seq_floor(cfg.seq_floor),
            caps,
            profiles: workloads,
            rapl: cfg.rapl,
            management_overhead: cfg.management_overhead,
            seed: cfg.seed,
            periods: virtual_time(deadline)
                .as_nanos()
                .div_ceil(node.decider.period.as_nanos().max(1)),
            until_finished: true,
            faults,
            observer: cfg.observer,
        }
        .run();
        ThreadedReport {
            finished_secs: run.finished_secs,
            net: run.net,
            final_caps: run.end.nodes.iter().map(|n| n.cap).collect(),
            final_pools: run.end.nodes.iter().map(|n| n.pool_available).collect(),
            drained_in_flight: run.end.in_flight,
            server_cache: Power::ZERO,
            budget_assigned,
        }
    }

    /// Run the SLURM baseline: client threads `0..n`, the central server on
    /// endpoint `n`. Optionally kill the server after a delay (the §4.4
    /// fault scenario).
    pub fn run_slurm(
        cfg: RuntimeConfig,
        workloads: Vec<Profile>,
        deadline: Duration,
        kill_server_after: Option<Duration>,
    ) -> ThreadedReport {
        let n = workloads.len();
        let caps = fair_assignment(cfg.budget, n, cfg.node.safe_range);
        let budget_assigned: Power = caps.iter().copied().sum();
        let clock = WallClock::start();
        let hw = build_hardware(&cfg, &workloads, &caps, &clock);
        let (net, mut endpoints) = ThreadNet::<SlurmMsg>::new(n + 1);
        let server_ep = endpoints.pop().expect("server endpoint");
        let server_addr = NodeId::new(n as u32);
        let shutdown = Arc::new(AtomicBool::new(false));

        let server_limiter = cfg.node.pool;
        let stop = Arc::clone(&shutdown);
        let server_thread = thread::spawn(move || -> (PowerServer, ThreadEndpoint<SlurmMsg>) {
            let mut policy = PowerServer::new(server_limiter);
            while !stop.load(Ordering::Relaxed) {
                if let Some(env) = server_ep.recv_timeout(Duration::from_millis(5)) {
                    match env.msg {
                        SlurmMsg::Report { excess, .. } => policy.on_report(excess),
                        SlurmMsg::Request {
                            from,
                            urgent,
                            alpha,
                            seq,
                        } => {
                            let grant = policy.on_request(urgent, alpha, seq);
                            let _ = server_ep.send(from, SlurmMsg::Grant(grant));
                        }
                        SlurmMsg::Grant(_) => {}
                    }
                }
            }
            (policy, server_ep)
        });

        let mut client_threads = Vec::with_capacity(n);
        for (i, ep) in endpoints.into_iter().enumerate() {
            let stop = Arc::clone(&shutdown);
            let hw_i = Arc::clone(&hw[i]);
            let clock = clock.clone();
            let cfg = cfg.clone();
            let initial = caps[i];
            client_threads.push(thread::spawn(move || -> ThreadEndpoint<SlurmMsg> {
                let mut client = SlurmClient::new(cfg.node.decider, initial, hw_i.safe_range());
                let my_addr = NodeId::new(i as u32);
                let em = Emitter::new(cfg.observer.clone(), my_addr, cfg.node.decider.period);
                while !stop.load(Ordering::Relaxed) {
                    let iter_start = Instant::now();
                    let now = clock.now();
                    let reading = hw_i.read_power();
                    match client.tick(now, reading) {
                        ClientAction::Report { excess } => {
                            let _ = ep.send(
                                server_addr,
                                SlurmMsg::Report {
                                    from: my_addr,
                                    excess,
                                },
                            );
                            hw_i.set_cap(client.cap());
                        }
                        ClientAction::Request { urgent, alpha, seq } => {
                            let _ = ep.send(
                                server_addr,
                                SlurmMsg::Request {
                                    from: my_addr,
                                    urgent,
                                    alpha,
                                    seq,
                                },
                            );
                            if let Some(env) = ep.recv_timeout(cfg.timeout()) {
                                if let SlurmMsg::Grant(g) = env.msg {
                                    let eff =
                                        client.on_grant(g.seq, g.amount, g.release_to_initial);
                                    hw_i.set_cap(client.cap());
                                    if !eff.released.is_zero() {
                                        let _ = ep.send(
                                            server_addr,
                                            SlurmMsg::Report {
                                                from: my_addr,
                                                excess: eff.released,
                                            },
                                        );
                                    }
                                }
                            }
                        }
                        ClientAction::Idle => {}
                    }
                    hw_i.set_cap(client.cap());
                    {
                        let cap_now = client.cap();
                        em.emit(now, || EventKind::CapActuated {
                            cap: cap_now,
                            reading,
                            pool: Power::ZERO,
                        });
                    }
                    thread::sleep(cfg.period().saturating_sub(iter_start.elapsed()));
                }
                ep
            }));
        }

        if let Some(after) = kill_server_after {
            let net = net.clone();
            let stop = Arc::clone(&shutdown);
            thread::spawn(move || {
                thread::sleep(after);
                if !stop.load(Ordering::Relaxed) {
                    net.with_faults(|f| f.kill(server_addr));
                }
            });
        }

        await_completion(&hw, deadline);
        shutdown.store(true, Ordering::Relaxed);
        let (policy, server_ep) = server_thread.join().unwrap();
        let client_eps: Vec<_> = client_threads
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect();

        let mut drained = Power::ZERO;
        for env in std::iter::from_fn(|| server_ep.try_recv()) {
            if let SlurmMsg::Report { excess, .. } = env.msg {
                drained += excess;
            }
        }
        for ep in &client_eps {
            while let Some(env) = ep.try_recv() {
                if let SlurmMsg::Grant(g) = env.msg {
                    drained += g.amount;
                }
            }
        }

        ThreadedReport {
            finished_secs: finish_times(&hw),
            net: net.stats(),
            final_caps: hw.iter().map(|h| h.cap()).collect(),
            final_pools: vec![Power::ZERO; n],
            drained_in_flight: drained,
            server_cache: policy.cached(),
            budget_assigned,
        }
    }
}

/// Fluent construction of a threaded cluster run — the same shape as
/// `ClusterSim::builder()` on the simulator, so a scenario moves between
/// substrates by swapping the final `run_*` call.
#[derive(Clone, Debug)]
pub struct ThreadedClusterBuilder {
    cfg: RuntimeConfig,
    workloads: Vec<Profile>,
    deadline: Duration,
}

impl Default for ThreadedClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadedCluster {
    /// Start building a threaded run fluently. See
    /// [`ThreadedClusterBuilder`].
    pub fn builder() -> ThreadedClusterBuilder {
        ThreadedClusterBuilder::new()
    }
}

impl ThreadedClusterBuilder {
    /// A builder starting from [`RuntimeConfig::fast`] with a zero budget
    /// (set [`budget`](Self::budget) before running) and a 10 s deadline.
    pub fn new() -> Self {
        ThreadedClusterBuilder {
            cfg: RuntimeConfig::fast(Power::ZERO),
            workloads: Vec::new(),
            deadline: Duration::from_secs(10),
        }
    }

    /// Replace the whole configuration (keeps builder-set workloads).
    pub fn config(mut self, cfg: RuntimeConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// System-wide budget, split evenly across nodes.
    pub fn budget(mut self, budget: Power) -> Self {
        self.cfg.budget = budget;
        self
    }

    /// One workload profile per node.
    pub fn workloads(mut self, workloads: Vec<Profile>) -> Self {
        self.workloads = workloads;
        self
    }

    /// Apply the unified engine configuration — node parameters,
    /// discovery strategy and sequence watermark in one `penelope_core`
    /// value. The same [`EngineConfig`] drives `ClusterSim::builder` and
    /// `DaemonConfig::builder`, so a tuned protocol setup moves between
    /// substrates verbatim.
    pub fn engine_config(mut self, engine: EngineConfig) -> Self {
        self.cfg.node = engine.node;
        self.cfg.discovery = engine.discovery;
        self.cfg.seq_floor = engine.seq_floor;
        self
    }

    /// Attach a protocol-event observer (it must be `Send + Sync`; every
    /// node thread emits into it).
    pub fn observer(mut self, obs: SharedObserver) -> Self {
        self.cfg.observer = obs;
        self
    }

    /// Simulated RAPL parameters.
    pub fn rapl(mut self, rapl: RaplConfig) -> Self {
        self.cfg.rapl = rapl;
        self
    }

    /// Fractional daemon overhead on the workload.
    pub fn management_overhead(mut self, overhead: f64) -> Self {
        self.cfg.management_overhead = overhead;
        self
    }

    /// RNG seed for peer selection.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Wall-clock deadline for the run.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    fn checked(self) -> (RuntimeConfig, Vec<Profile>, Duration) {
        assert!(!self.workloads.is_empty(), "builder needs workloads");
        assert!(!self.cfg.budget.is_zero(), "builder needs a budget");
        (self.cfg, self.workloads, self.deadline)
    }

    /// Run the *Fair* baseline.
    pub fn run_fair(self) -> ThreadedReport {
        let (cfg, workloads, deadline) = self.checked();
        ThreadedCluster::run_fair(cfg, workloads, deadline)
    }

    /// Run Penelope.
    pub fn run_penelope(self) -> ThreadedReport {
        let (cfg, workloads, deadline) = self.checked();
        ThreadedCluster::run_penelope(cfg, workloads, deadline)
    }

    /// Run Penelope, killing `victim` after `after`.
    pub fn run_penelope_with_fault(self, after: Duration, victim: usize) -> ThreadedReport {
        let (cfg, workloads, deadline) = self.checked();
        ThreadedCluster::run_penelope_with_fault(cfg, workloads, deadline, Some((after, victim)))
    }

    /// Run the SLURM baseline, optionally killing the server after a delay.
    pub fn run_slurm(self, kill_server_after: Option<Duration>) -> ThreadedReport {
        let (cfg, workloads, deadline) = self.checked();
        ThreadedCluster::run_slurm(cfg, workloads, deadline, kill_server_after)
    }
}
