//! End-to-end tests of the threaded runtime: real threads, millisecond
//! periods (real sleeps for Fair and SLURM, virtual time for Penelope's
//! lockstep driver) so each test finishes in a couple of seconds.

use std::time::Duration;

use penelope_runtime::{RuntimeConfig, ThreadedCluster};
use penelope_units::Power;
use penelope_workload::{PerfModel, Phase, Profile};

fn w(x: u64) -> Power {
    Power::from_watts_u64(x)
}

fn profile(name: &str, demand_w: u64, work_secs: f64) -> Profile {
    Profile::new(
        name,
        vec![Phase::new(w(demand_w), work_secs)],
        PerfModel::new(w(60), 1.0),
    )
}

#[test]
fn fair_runs_to_completion() {
    // 2 nodes @160 W; demand 200 W, 0.2 s work, linear model → 0.28 s.
    let workloads = vec![profile("a", 200, 0.2), profile("b", 200, 0.2)];
    let r = ThreadedCluster::run_fair(
        RuntimeConfig::fast(w(320)),
        workloads,
        Duration::from_secs(5),
    );
    let m = r.makespan_secs().expect("finished");
    assert!((m - 0.28).abs() < 0.05, "makespan {m}");
    assert!(r.power_accounted());
}

#[test]
fn penelope_threads_shift_power_and_conserve_it() {
    // Donor wants 100 W of its 160 W share; recipient wants 250 W.
    let mk = || vec![profile("donor", 100, 1.2), profile("rcpt", 250, 1.2)];
    let fair =
        ThreadedCluster::run_fair(RuntimeConfig::fast(w(320)), mk(), Duration::from_secs(10));
    let pen =
        ThreadedCluster::run_penelope(RuntimeConfig::fast(w(320)), mk(), Duration::from_secs(10));
    let rt_fair = fair.makespan_secs().expect("fair finished");
    let rt_pen = pen.makespan_secs().expect("penelope finished");
    assert!(
        rt_pen < rt_fair,
        "threaded Penelope {rt_pen}s not faster than Fair {rt_fair}s"
    );
    assert!(pen.net.delivered > 0, "no peer traffic happened");
    assert!(
        pen.power_accounted(),
        "power leaked under real concurrency: caps {:?} pools {:?} in-flight {} of {}",
        pen.final_caps,
        pen.final_pools,
        pen.drained_in_flight,
        pen.budget_assigned
    );
}

#[test]
fn slurm_threads_shift_power_and_conserve_it() {
    let mk = || vec![profile("donor", 100, 1.2), profile("rcpt", 250, 1.2)];
    let fair =
        ThreadedCluster::run_fair(RuntimeConfig::fast(w(320)), mk(), Duration::from_secs(10));
    let slurm = ThreadedCluster::run_slurm(
        RuntimeConfig::fast(w(320)),
        mk(),
        Duration::from_secs(10),
        None,
    );
    let rt_fair = fair.makespan_secs().expect("fair finished");
    let rt_slurm = slurm.makespan_secs().expect("slurm finished");
    assert!(
        rt_slurm < rt_fair,
        "threaded SLURM {rt_slurm}s not faster than Fair {rt_fair}s"
    );
    assert!(slurm.power_accounted(), "SLURM leaked power");
}

#[test]
fn slurm_server_kill_degrades_but_clients_survive() {
    // The donor idles (releasing power, cap dropping toward 100 W) and then
    // becomes hungry. Nominally, centralized urgency restores it; with the
    // server killed during the idle phase, its cap freezes low — the §4.4
    // mechanism ("the assignment of powercaps at the time of failure
    // becomes a static assignment").
    let mk = || {
        vec![
            Profile::new(
                "phased",
                vec![Phase::new(w(100), 0.4), Phase::new(w(250), 0.8)],
                PerfModel::new(w(60), 1.0),
            ),
            profile("rcpt", 250, 1.5),
        ]
    };
    let nominal = ThreadedCluster::run_slurm(
        RuntimeConfig::fast(w(320)),
        mk(),
        Duration::from_secs(15),
        None,
    );
    let faulty = ThreadedCluster::run_slurm(
        RuntimeConfig::fast(w(320)),
        mk(),
        Duration::from_secs(15),
        Some(Duration::from_millis(150)),
    );
    let rt_nominal = nominal.makespan_secs().expect("nominal finished");
    let rt_faulty = faulty.makespan_secs().expect("faulty finished");
    assert!(
        rt_faulty > rt_nominal,
        "killing the server did not slow SLURM: {rt_faulty}s vs {rt_nominal}s"
    );
    assert!(
        faulty.net.dropped_dead > 0,
        "no traffic hit the dead server"
    );
}

#[test]
fn bigger_threaded_cluster_stays_consistent() {
    // 8 nodes with mixed appetites: eight node threads contending for
    // each other's pools.
    let workloads: Vec<Profile> = (0..8)
        .map(|i| profile(&format!("app{i}"), 100 + 22 * i, 0.8))
        .collect();
    let r = ThreadedCluster::run_penelope(
        RuntimeConfig::fast(w(8 * 160)),
        workloads,
        Duration::from_secs(15),
    );
    assert!(r.makespan_secs().is_some(), "cluster did not finish");
    assert!(r.power_accounted(), "power leaked in the 8-node run");
}

#[test]
fn penelope_threads_survive_a_client_crash() {
    // Four nodes; node 3 (a donor) dies early. The survivors must finish,
    // nothing may deadlock, and the power remaining in the system must
    // never exceed the assignment (a dead node strands power; it cannot
    // mint any).
    let workloads = vec![
        profile("rcpt-a", 250, 1.0),
        profile("rcpt-b", 250, 1.0),
        profile("donor-a", 100, 1.0),
        profile("donor-b", 100, 1.0),
    ];
    let r = penelope_runtime::ThreadedCluster::run_penelope_with_fault(
        RuntimeConfig::fast(w(4 * 160)),
        workloads,
        Duration::from_secs(15),
        Some((Duration::from_millis(150), 3)),
    );
    // The three survivors finished.
    let finished = r.finished_secs.iter().filter(|f| f.is_some()).count();
    assert!(finished >= 3, "only {finished} nodes finished");
    assert!(
        r.power_within_budget(),
        "power minted under a crash: caps {:?} pools {:?}",
        r.final_caps,
        r.final_pools
    );
    assert!(r.net.dropped_dead > 0, "no traffic ever hit the dead node");
}

#[test]
fn builder_accepts_the_unified_engine_config() {
    // The same `penelope_core::EngineConfig` value that configures the
    // simulator and the UDP daemon configures a threaded run.
    use penelope_core::{EngineConfig, NodeParams};
    use penelope_units::SimDuration;

    let node = NodeParams {
        decider: penelope_core::DeciderConfig {
            period: SimDuration::from_millis(10),
            response_timeout: SimDuration::from_millis(10),
            ..Default::default()
        },
        ..NodeParams::default()
    };
    let r = ThreadedCluster::builder()
        .budget(w(320))
        .workloads(vec![profile("a", 100, 0.2), profile("b", 250, 0.2)])
        .engine_config(EngineConfig::new(node).with_seq_floor(5))
        .deadline(Duration::from_secs(5))
        .run_penelope();
    assert!(r.power_within_budget(), "budget exceeded");
}
