//! Conservation and liveness under node churn: crash → timeout-driven
//! suspicion → restart rejoin.
//!
//! The churn scenario kills one node mid-run and revives it several
//! periods later at its initial cap, re-admitted *from the lost-power
//! ledger*. The invariants under test:
//!
//! * **Zero-sum at every consistent cut** — live power + lost power equals
//!   the initial budget before, during, and after the outage; the restart
//!   mints nothing.
//! * **Bounded re-admission** — the restart moves exactly
//!   `min(initial cap, lost)` back from `lost` to live, never more than
//!   the crash retired.
//! * **Sequence-epoch safety** — grants addressed to the pre-crash
//!   incarnation are discarded by the reborn decider (non-vacuously: the
//!   stale-grant test arranges for one to actually land).
//! * **Liveness** — request timeouts drive peer suspicion, so survivors
//!   stop hammering the dead node and the restarted node reconverges to
//!   its fair share.
//!
//! The swept drop rate can be pinned from the environment for CI matrix
//! jobs: `PENELOPE_DROP_RATE=0.2 cargo test --test churn_conformance`
//! runs only that rate instead of the full sweep.

use std::sync::Arc;

use penelope::conformance::{
    churn_scenario, profile_from_spec, sim_config, LockstepRuntime, SimSubstrate,
    UdpDaemonSubstrate,
};
use penelope_core::DeciderPolicy;
use penelope_net::LatencyModel;
use penelope_sim::{ClusterSim, DiscoveryStrategy, FaultScript};
use penelope_testkit::conformance::{
    check_run, FaultSpec, PhaseSpec, Scenario, Substrate, WorkloadSpec,
};
use penelope_trace::{EventKind, RingBufferObserver, SharedObserver, TraceEvent};
use penelope_units::{NodeId, Power, PowerRange, SimDuration, SimTime};

/// Drop rates (in permille) to sweep, or the single rate pinned by the
/// `PENELOPE_DROP_RATE` environment variable (as a probability).
fn drop_rates_permille() -> Vec<u16> {
    match std::env::var("PENELOPE_DROP_RATE") {
        Ok(v) => {
            let rate: f64 = v
                .parse()
                .unwrap_or_else(|e| panic!("PENELOPE_DROP_RATE {v:?} is not a probability: {e}"));
            assert!(
                (0.0..=1.0).contains(&rate),
                "PENELOPE_DROP_RATE {rate} outside [0, 1]"
            );
            vec![(rate * 1000.0).round() as u16]
        }
        Err(_) => vec![0, 200],
    }
}

/// The churned node index in [`churn_scenario`].
const CHURNED: u32 = 1;

/// Run `scenario` on `substrate` and assert the full invariant set plus
/// the churn-specific guarantees: the kill retires power into `lost`,
/// the restart re-admits exactly `min(initial cap, lost)` back out of it
/// (the single decrease `lost` ever takes), and the node's liveness
/// follows an alive → dead → alive pattern with no other transitions.
fn assert_churn_conserves(scenario: &Scenario, substrate: &dyn Substrate) {
    let run = substrate
        .run(scenario)
        .unwrap_or_else(|e| panic!("{} failed to run {}: {e}", substrate.name(), scenario.name));

    let violations = check_run(scenario, &run);
    assert!(
        violations.is_empty(),
        "{} violated invariants on {} (seed {:#x}): {violations:#?}",
        substrate.name(),
        scenario.name,
        scenario.seed
    );

    // `lost` rises when the node dies (its cap, pool and escrow are
    // retired, plus any in-flight remnants addressed to it), then takes
    // exactly one decrease — the restart — of exactly
    // min(initial cap, lost): zero-sum re-admission.
    let mut decreases = Vec::new();
    let mut prev = Power::ZERO;
    for snap in &run.snapshots {
        if snap.lost < prev {
            decreases.push((snap.period, prev - snap.lost, prev));
        }
        prev = snap.lost;
    }
    assert_eq!(
        decreases.len(),
        1,
        "{} on {}: expected exactly one lost-ledger decrease (the restart), got {decreases:?} (seed {:#x})",
        substrate.name(),
        scenario.name,
        scenario.seed
    );
    let (period, readmitted, lost_before) = decreases[0];
    let expected = scenario.budget_per_node.min(lost_before);
    assert_eq!(
        readmitted,
        expected,
        "{} on {}: restart at period {period} re-admitted {readmitted:?}, expected min(initial cap {:?}, lost {lost_before:?}) (seed {:#x})",
        substrate.name(),
        scenario.name,
        scenario.budget_per_node,
        scenario.seed
    );

    // Liveness pattern: alive, then one contiguous dead window, then
    // alive through to the end.
    let alive: Vec<bool> = run
        .snapshots
        .iter()
        .map(|s| s.nodes[CHURNED as usize].alive)
        .collect();
    assert!(alive.first() == Some(&true), "node {CHURNED} dead at start");
    assert!(
        alive.last() == Some(&true),
        "{} on {}: node {CHURNED} never came back (seed {:#x})",
        substrate.name(),
        scenario.name,
        scenario.seed
    );
    assert!(
        alive.iter().any(|a| !a),
        "{} on {}: node {CHURNED} was never observed dead (seed {:#x})",
        substrate.name(),
        scenario.name,
        scenario.seed
    );
    let transitions = alive.windows(2).filter(|w| w[0] != w[1]).count();
    assert_eq!(
        transitions,
        2,
        "{} on {}: liveness flapped: {alive:?} (seed {:#x})",
        substrate.name(),
        scenario.name,
        scenario.seed
    );
    assert!(run.final_alive[CHURNED as usize], "dead in final state");

    // End state must balance exactly: whatever is still booked lost plus
    // everything live equals the initial budget.
    assert_eq!(
        run.final_total,
        scenario.cluster_budget(),
        "{} final total drifted from the budget on {} (seed {:#x})",
        substrate.name(),
        scenario.name,
        scenario.seed
    );
}

#[test]
fn churn_sweep_conserves_on_sim_and_lockstep() {
    let sim = SimSubstrate;
    let runtime = LockstepRuntime;
    for drop_permille in drop_rates_permille() {
        let scenario = churn_scenario(0x5EED_C402 + u64::from(drop_permille), drop_permille, 16);
        for substrate in [&sim as &dyn Substrate, &runtime] {
            assert_churn_conserves(&scenario, substrate);
        }
    }
}

#[test]
fn sim_and_lockstep_narrate_the_same_kill_and_restart() {
    // Both deterministic substrates book the churn round-trip alike: one
    // `NodeKilled` retiring the victim's cap + pool + escrow, one
    // `NodeRestarted`, and the same retired amount.
    let scenario = churn_scenario(0x5EED_C4C0, 0, 16);
    let lifecycle = |events: &[TraceEvent]| {
        let killed: Vec<Power> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::NodeKilled { lost } => Some(lost),
                _ => None,
            })
            .collect();
        let restarted = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::NodeRestarted { .. }))
            .count();
        (killed.len(), restarted, killed.into_iter().sum::<Power>())
    };
    let sim_ring = Arc::new(RingBufferObserver::unbounded());
    SimSubstrate::run_observed(&scenario, SharedObserver::from(sim_ring.clone())).expect("sim run");
    let rt_ring = Arc::new(RingBufferObserver::unbounded());
    LockstepRuntime::run_observed(&scenario, SharedObserver::from(rt_ring.clone()))
        .expect("lockstep run");
    let sim = lifecycle(&sim_ring.events());
    assert_eq!((sim.0, sim.1), (1, 1), "sim: one kill, one restart");
    assert!(!sim.2.is_zero(), "the kill retired nothing");
    assert_eq!(lifecycle(&rt_ring.events()), sim, "lockstep vs sim");
}

#[test]
fn restarted_node_reconverges_to_fair_share() {
    // The §4.2-length acceptance run: after rejoining at period 10, the
    // churned node has 30 periods to climb back. By then every node runs
    // a hungry phase, so the cluster is oversubscribed and the fair share
    // is exactly the per-node budget.
    let scenario = churn_scenario(0x5EED_C440, 0, 40);
    let fair = scenario.budget_per_node;
    let band = Power::from_watts_u64(50);
    for substrate in [&SimSubstrate as &dyn Substrate, &LockstepRuntime] {
        let run = substrate
            .run(&scenario)
            .unwrap_or_else(|e| panic!("{} failed: {e}", substrate.name()));
        assert!(run.final_alive[CHURNED as usize]);
        let cap = run.final_caps[CHURNED as usize];
        let dev = if cap > fair { cap - fair } else { fair - cap };
        assert!(
            dev <= band,
            "{}: churned node ended at {cap:?}, more than {band:?} from fair share {fair:?} (seed {:#x})",
            substrate.name(),
            scenario.seed
        );
    }
}

/// Build a hand-rolled scenario for the direct-simulator tests below:
/// `hungry` says which nodes run a flat 220 W demand; the rest idle at
/// 100 W and keep depositing excess into their pools.
fn direct_scenario(seed: u64, name: &str, hungry: &[usize]) -> Scenario {
    let workloads = (0..4)
        .map(|i| WorkloadSpec {
            phases: vec![PhaseSpec {
                demand: if hungry.contains(&i) {
                    Power::from_watts_u64(220)
                } else {
                    Power::from_watts_u64(100)
                },
                secs: 120.0,
            }],
        })
        .collect();
    Scenario {
        name: name.into(),
        seed,
        nodes: 4,
        budget_per_node: Power::from_watts_u64(160),
        safe: PowerRange::from_watts(80, 300),
        periods: 10,
        workloads,
        fault: FaultSpec::None,
        read_noise: 0.0,
        policy: DeciderPolicy::default(),
    }
}

fn profiles(scenario: &Scenario) -> Vec<penelope_workload::Profile> {
    scenario
        .workloads
        .iter()
        .enumerate()
        .map(|(i, spec)| profile_from_spec(spec, &format!("w{i}")))
        .collect()
}

#[test]
fn stale_pre_crash_grant_is_discarded_not_double_paid() {
    // Non-vacuous sequence-epoch test. The hungry node drains its local
    // pool for the first seven periods and sends its next peer request at
    // the t=8 s tick; with 400 ms links that request is served (and the
    // grant sent) around t=8.4 s and the grant lands around t=8.8 s.
    // Killing at 8.1 s and restarting at 8.3 s puts the rebirth between
    // the request and the grant *send* — the transport refuses sends to a
    // dead destination, so the node must already be reborn when the
    // granter replies — and the grant then reaches the *new* incarnation
    // carrying a pre-crash sequence number. The reborn decider's seq
    // floor must discard it (the amount is returned to the ledger as
    // lost, not applied) — otherwise the node would be paid its
    // re-admitted cap *and* the stale grant: minting.
    let scenario = direct_scenario(0x5EED_57A1, "stale-grant", &[1]);
    let mut cfg = sim_config(&scenario);
    cfg.latency = LatencyModel::Constant(SimDuration::from_millis(400));
    let mut sim = ClusterSim::new(cfg, profiles(&scenario));
    sim.install_faults(&FaultScript::kill_restart(
        NodeId::new(1),
        SimTime::ZERO + SimDuration::from_millis(8100),
        SimTime::ZERO + SimDuration::from_millis(8300),
    ));
    // Conservation is asserted inside the simulator after every event, so
    // completing the run already proves the stale grant was not minted.
    sim.advance_to(SimTime::ZERO + SimDuration::from_secs(15));
    let stats = sim
        .decider_stats(NodeId::new(1))
        .expect("node 1 runs a Penelope decider");
    assert!(
        stats.stale_discards >= 1,
        "no stale pre-crash grant ever reached the reborn node — the \
         sequence-epoch test is vacuous (stats: {stats:?})"
    );
}

#[test]
fn gossip_hint_rediversifies_after_hinted_peer_dies() {
    // Regression test for the sticky-hint liveness bug: under GossipHint
    // discovery every hungry node learns that node 0 (the only node with
    // excess) is the place to ask, and before the fix kept re-querying it
    // forever after it died — each request eating a full timeout. Now the
    // first timeout on the hinted peer clears the hint and repeated
    // timeouts suspect it, so traffic must re-diversify onto live peers.
    let scenario = direct_scenario(0x5EED_4055, "sticky-hint", &[1, 2, 3]);
    let mut cfg = sim_config(&scenario);
    cfg.discovery = DiscoveryStrategy::GossipHint { explore: 0.1 };
    let ring = Arc::new(RingBufferObserver::unbounded());
    cfg.observer = SharedObserver::from(ring.clone());
    let mut sim = ClusterSim::new(cfg, profiles(&scenario));
    sim.install_faults(&FaultScript::kill_node_at(
        SimTime::ZERO + SimDuration::from_secs(8),
        NodeId::new(0),
    ));
    sim.advance_to(SimTime::ZERO + SimDuration::from_secs(30));

    let events = ring.events();
    // The dead hinted peer must end up suspected by at least one survivor.
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::PeerSuspected { peer } if peer == NodeId::new(0))),
        "no survivor ever suspected the dead hinted peer"
    );
    // Once hints are cleared and suspicion kicks in (give it until t=14 s:
    // hint clear after the first 1 s timeout, suspicion after three), the
    // survivors' requests must spread over live peers instead of hammering
    // the corpse. Suspicion un-suspects for a probe every 8 s, so a
    // trickle to node 0 is expected — but it must be a minority.
    let cutoff = SimTime::ZERO + SimDuration::from_secs(14);
    for node in 1..4u32 {
        let dsts: Vec<NodeId> = events
            .iter()
            .filter(|e| e.node == NodeId::new(node) && e.at >= cutoff)
            .filter_map(|e| match e.kind {
                EventKind::RequestSent { dst, .. } => Some(dst),
                _ => None,
            })
            .collect();
        assert!(
            !dsts.is_empty(),
            "node {node} stopped requesting after the hinted peer died"
        );
        let to_dead = dsts.iter().filter(|d| **d == NodeId::new(0)).count();
        assert!(
            to_dead * 2 < dsts.len(),
            "node {node} still sent {to_dead}/{} requests to the dead hinted peer",
            dsts.len()
        );
        let live_peers: std::collections::HashSet<NodeId> = dsts
            .iter()
            .copied()
            .filter(|d| *d != NodeId::new(0))
            .collect();
        assert!(
            live_peers.len() >= 2,
            "node {node} did not re-diversify: live destinations {live_peers:?}"
        );
    }
}

#[test]
fn churn_daemon_restarts_on_the_same_address_with_a_seq_watermark() {
    // Real UDP daemons on loopback: the kill stops the process (its
    // socket closes), the restart binds a brand-new socket on the *same*
    // address — peers keep static peer lists — and hands the new daemon
    // the dead incarnation's sequence watermark plus the re-admitted cap.
    // The free-running daemons are held to the invariants and the
    // zero-sum re-admission, not to trajectory agreement.
    let scenario = churn_scenario(0x5EED_C4DA, 0, 16);
    let run = UdpDaemonSubstrate
        .run(&scenario)
        .expect("daemon substrate runs");
    let violations = check_run(&scenario, &run);
    assert!(violations.is_empty(), "{violations:#?}");

    let mut decreases = Vec::new();
    let mut prev = Power::ZERO;
    for snap in &run.snapshots {
        if snap.lost < prev {
            decreases.push((prev - snap.lost, prev));
        }
        prev = snap.lost;
    }
    assert_eq!(
        decreases.len(),
        1,
        "expected exactly one lost-ledger decrease (the restart): {decreases:?}"
    );
    let (readmitted, lost_before) = decreases[0];
    assert_eq!(readmitted, scenario.budget_per_node.min(lost_before));

    assert!(run.final_alive[CHURNED as usize], "daemon never rejoined");
    // UDP grants still in flight at shutdown only ever make the end
    // state *under*count, never mint.
    assert!(run.final_total <= scenario.cluster_budget());
}

#[test]
fn fault_free_churn_scenario_config_matches_lossy_defaults() {
    // The churn scenario must not perturb the nominal protocol: at zero
    // drop rate its simulator config differs from the lossy zero-drop
    // config only in the fault script, so fault-free event streams stay
    // byte-identical across scenario families.
    let churn = churn_scenario(0x5EED_0001, 0, 12);
    let lossy = penelope::conformance::lossy_scenario(0x5EED_0001, 0, 12);
    let a = sim_config(&churn);
    let b = sim_config(&lossy);
    assert_eq!(
        a.node.decider.max_retransmits,
        b.node.decider.max_retransmits
    );
    assert_eq!(a.node.decider.suspect_after, b.node.decider.suspect_after);
    assert_eq!(a.node.decider.probe_interval, b.node.decider.probe_interval);
    assert_eq!(a.seed, b.seed);
}
