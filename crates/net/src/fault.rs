//! Node-failure and network-partition state, and the scripts that drive it.

use std::collections::HashSet;

use penelope_units::{NodeId, SimTime};

/// The cluster's current fault state: which nodes are dead, how the network
/// is partitioned, and the background message-loss probability.
///
/// This is the substrate behind the paper's §4.4 experiment (killing the
/// SLURM server mid-run) and the fault-injection integration tests. It is
/// deliberately a plain value type: the DES mutates it through scripted
/// fault events, the threaded runtime shares it behind a lock.
#[derive(Clone, Debug, Default)]
pub struct FaultPlane {
    dead: HashSet<NodeId>,
    /// Partition groups. Empty means fully connected. When non-empty, two
    /// nodes can communicate iff some group contains both.
    partitions: Vec<HashSet<NodeId>>,
    /// Directional link cuts: `(from, to)` present means messages from
    /// `from` to `to` are blocked, independently of the reverse direction
    /// and of any group partition. This is how asymmetric partitions
    /// (A cannot reach B while B still reaches A) are expressed.
    cuts: HashSet<(NodeId, NodeId)>,
    /// Probability in `[0, 1]` that any given message is silently lost.
    drop_rate: f64,
}

impl FaultPlane {
    /// A healthy, fully connected network.
    pub fn healthy() -> Self {
        FaultPlane::default()
    }

    /// Mark a node as crashed. Crashed nodes neither send nor receive, and
    /// their local state (cap, pool) is out of the system until revived.
    pub fn kill(&mut self, node: NodeId) {
        self.dead.insert(node);
    }

    /// Revive a crashed node.
    pub fn revive(&mut self, node: NodeId) {
        self.dead.remove(&node);
    }

    /// True iff `node` is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        !self.dead.contains(&node)
    }

    /// Number of crashed nodes.
    pub fn dead_count(&self) -> usize {
        self.dead.len()
    }

    /// Iterate over crashed nodes.
    pub fn dead_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.dead.iter().copied()
    }

    /// Split the network into disjoint groups; traffic only flows within a
    /// group. Replaces any existing partition.
    pub fn partition(&mut self, groups: Vec<HashSet<NodeId>>) {
        self.partitions = groups;
    }

    /// Remove all partitions (the network is whole again). Directional
    /// link cuts are cleared too: `heal` means *heal*, whichever primitive
    /// caused the split.
    pub fn heal_partitions(&mut self) {
        self.partitions.clear();
        self.cuts.clear();
    }

    /// True iff a partition is currently in force.
    pub fn is_partitioned(&self) -> bool {
        !self.partitions.is_empty() || !self.cuts.is_empty()
    }

    /// Cut the directional link `from → to`: messages in that direction are
    /// dropped at the router; the reverse direction is unaffected. Cutting
    /// an already-cut link is a no-op; self-links cannot be cut.
    pub fn cut_link(&mut self, from: NodeId, to: NodeId) {
        if from != to {
            self.cuts.insert((from, to));
        }
    }

    /// Restore the directional link `from → to`. A no-op if it was not cut.
    pub fn heal_link(&mut self, from: NodeId, to: NodeId) {
        self.cuts.remove(&(from, to));
    }

    /// True iff the directional link `from → to` is currently cut.
    pub fn is_cut(&self, from: NodeId, to: NodeId) -> bool {
        self.cuts.contains(&(from, to))
    }

    /// Set the background drop probability (clamped into `[0, 1]`).
    pub fn set_drop_rate(&mut self, p: f64) {
        self.drop_rate = if p.is_finite() {
            p.clamp(0.0, 1.0)
        } else {
            0.0
        };
    }

    /// The background drop probability.
    pub fn drop_rate(&self) -> f64 {
        self.drop_rate
    }

    /// Can a message currently travel from `src` to `dst`?
    ///
    /// Requires both endpoints alive and, if partitioned, co-located in some
    /// group. (The random drop rate is applied separately by the router so
    /// it can consume randomness from the caller's RNG.)
    pub fn can_communicate(&self, src: NodeId, dst: NodeId) -> bool {
        if !self.is_alive(src) || !self.is_alive(dst) {
            return false;
        }
        if src == dst {
            return true;
        }
        if self.cuts.contains(&(src, dst)) {
            return false;
        }
        if self.partitions.is_empty() {
            return true;
        }
        self.partitions
            .iter()
            .any(|g| g.contains(&src) && g.contains(&dst))
    }

    /// Apply the network half of a scripted action: partitions, link cuts
    /// and heals, and the drop rate. Node lifecycle (`Kill`, `KillServer`,
    /// `Restart`) moves power and is the driver's to apply; it is a no-op
    /// here.
    pub fn apply(&mut self, action: &FaultAction) {
        match action {
            FaultAction::Partition(groups) => {
                self.partition(groups.iter().map(|g| g.iter().copied().collect()).collect());
            }
            FaultAction::PartitionLink { from, to } => self.cut_link(*from, *to),
            FaultAction::HealLink { from, to } => self.heal_link(*from, *to),
            FaultAction::Heal => self.heal_partitions(),
            FaultAction::SetDropRate(p) => self.set_drop_rate(*p),
            FaultAction::Kill(_) | FaultAction::KillServer | FaultAction::Restart(_) => {}
        }
    }
}

/// A fault (or repair) that can be injected into a running cluster.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultAction {
    /// Crash a node: its workload freezes, its cap and pooled power leave
    /// the system, and it neither sends nor receives messages. `KillServer`
    /// via the server's node id reproduces §4.4.
    Kill(NodeId),
    /// Crash the SLURM server (whatever node hosts it).
    KillServer,
    /// Revive a crashed client node: it rejoins with fresh decider/pool
    /// state at its initial cap re-admitted from the lost-power ledger
    /// (never more than the crash retired), keeping its pre-crash sequence
    /// watermark so stale grants cannot double-pay it. A no-op on nodes
    /// that are alive, never existed, or whose crash left too little in
    /// the ledger to re-admit a safe cap.
    Restart(NodeId),
    /// Split the network into groups; traffic flows only within a group.
    Partition(Vec<Vec<NodeId>>),
    /// Cut one directional link: messages `from → to` are dropped while
    /// the reverse direction keeps flowing. Composable with group
    /// partitions, drop rates and kills; this is the primitive behind
    /// asymmetric partitions (A↛B while B↔A).
    PartitionLink {
        /// Sending side of the severed direction.
        from: NodeId,
        /// Receiving side of the severed direction.
        to: NodeId,
    },
    /// Restore one directional link previously cut with `PartitionLink`.
    HealLink {
        /// Sending side of the restored direction.
        from: NodeId,
        /// Receiving side of the restored direction.
        to: NodeId,
    },
    /// Remove all partitions — group partitions and directional link cuts.
    Heal,
    /// Set the background random message-loss probability.
    SetDropRate(f64),
}

/// A time-ordered script of fault injections, installed into a driver
/// before the run (the simulator and the lockstep runtime both take one).
#[derive(Clone, Debug, Default)]
pub struct FaultScript {
    entries: Vec<(SimTime, FaultAction)>,
}

impl FaultScript {
    /// An empty (fault-free) script.
    pub fn none() -> Self {
        FaultScript::default()
    }

    /// Add an injection at `at`.
    pub fn at(mut self, at: SimTime, action: FaultAction) -> Self {
        self.entries.push((at, action));
        self
    }

    /// The §4.4 scenario: kill the central server at `at`.
    pub fn kill_server_at(at: SimTime) -> Self {
        FaultScript::none().at(at, FaultAction::KillServer)
    }

    /// Kill one client node at `at` (the client-failure scenario Penelope
    /// shrugs off).
    pub fn kill_node_at(at: SimTime, node: NodeId) -> Self {
        FaultScript::none().at(at, FaultAction::Kill(node))
    }

    /// Revive a previously killed node at `at` (the churn scenario:
    /// crashed nodes reboot and rejoin without minting power).
    pub fn restart_at(self, at: SimTime, node: NodeId) -> Self {
        self.at(at, FaultAction::Restart(node))
    }

    /// The full churn round-trip: kill `node` at `kill_at`, revive it at
    /// `restart_at`.
    pub fn kill_restart(node: NodeId, kill_at: SimTime, restart_at: SimTime) -> Self {
        FaultScript::kill_node_at(kill_at, node).restart_at(restart_at, node)
    }

    /// Cut the directional link `from → to` at `at`.
    pub fn partition_link_at(self, at: SimTime, from: NodeId, to: NodeId) -> Self {
        self.at(at, FaultAction::PartitionLink { from, to })
    }

    /// Restore the directional link `from → to` at `at`.
    pub fn heal_link_at(self, at: SimTime, from: NodeId, to: NodeId) -> Self {
        self.at(at, FaultAction::HealLink { from, to })
    }

    /// Fully isolate `node` from every peer in `0..n` (both directions) at
    /// `at`: the clean-partition scenario, expressed as link cuts so it
    /// composes with other cuts and heals.
    pub fn isolate_at(mut self, at: SimTime, node: NodeId, n: u32) -> Self {
        for i in 0..n {
            let peer = NodeId::new(i);
            if peer != node {
                self = self
                    .partition_link_at(at, node, peer)
                    .partition_link_at(at, peer, node);
            }
        }
        self
    }

    /// The scripted entries, in insertion order. Installers must not rely
    /// on this being time-sorted; they apply [`chronological`](Self::chronological).
    pub fn entries(&self) -> &[(SimTime, FaultAction)] {
        &self.entries
    }

    /// The entries in the order every driver applies them: stably sorted by
    /// timestamp, with `Kill`/`KillServer` *after* any other action at the
    /// same instant. A partition scheduled at the same tick as a kill is
    /// therefore in force before the victim's holdings are retired, and
    /// scripts may be composed in any order.
    pub fn chronological(&self) -> Vec<(SimTime, FaultAction)> {
        let kill_rank = |action: &FaultAction| match action {
            FaultAction::Kill(_) | FaultAction::KillServer => 1u8,
            _ => 0u8,
        };
        let mut entries = self.entries.clone();
        entries.sort_by_key(|(at, action)| (*at, kill_rank(action)));
        entries
    }

    /// True iff the script injects nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn healthy_network_connects_everyone() {
        let f = FaultPlane::healthy();
        assert!(f.can_communicate(n(0), n(1)));
        assert!(f.is_alive(n(0)));
        assert!(!f.is_partitioned());
        assert_eq!(f.drop_rate(), 0.0);
    }

    #[test]
    fn dead_node_cannot_send_or_receive() {
        let mut f = FaultPlane::healthy();
        f.kill(n(1));
        assert!(!f.can_communicate(n(0), n(1)));
        assert!(!f.can_communicate(n(1), n(0)));
        assert!(f.can_communicate(n(0), n(2)));
        assert_eq!(f.dead_count(), 1);
        assert_eq!(f.dead_nodes().collect::<Vec<_>>(), vec![n(1)]);
    }

    #[test]
    fn revive_restores_connectivity() {
        let mut f = FaultPlane::healthy();
        f.kill(n(1));
        f.revive(n(1));
        assert!(f.can_communicate(n(0), n(1)));
        assert_eq!(f.dead_count(), 0);
    }

    #[test]
    fn killing_the_server_identity_works() {
        // The §4.4 scenario: the SLURM coordinator dies.
        let mut f = FaultPlane::healthy();
        f.kill(NodeId::server());
        assert!(!f.can_communicate(n(0), NodeId::server()));
        assert!(f.can_communicate(n(0), n(1))); // peers unaffected
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let mut f = FaultPlane::healthy();
        f.partition(vec![
            [n(0), n(1)].into_iter().collect(),
            [n(2), n(3)].into_iter().collect(),
        ]);
        assert!(f.is_partitioned());
        assert!(f.can_communicate(n(0), n(1)));
        assert!(f.can_communicate(n(2), n(3)));
        assert!(!f.can_communicate(n(0), n(2)));
        assert!(!f.can_communicate(n(3), n(1)));
    }

    #[test]
    fn node_outside_all_groups_is_isolated() {
        let mut f = FaultPlane::healthy();
        f.partition(vec![[n(0), n(1)].into_iter().collect()]);
        assert!(!f.can_communicate(n(0), n(5)));
        // ...but self-communication (local pool) always works.
        assert!(f.can_communicate(n(5), n(5)));
    }

    #[test]
    fn heal_partitions_restores_full_mesh() {
        let mut f = FaultPlane::healthy();
        f.partition(vec![
            [n(0)].into_iter().collect(),
            [n(1)].into_iter().collect(),
        ]);
        assert!(!f.can_communicate(n(0), n(1)));
        f.heal_partitions();
        assert!(f.can_communicate(n(0), n(1)));
    }

    #[test]
    fn partition_plus_death_compose() {
        let mut f = FaultPlane::healthy();
        f.partition(vec![[n(0), n(1)].into_iter().collect()]);
        f.kill(n(1));
        assert!(!f.can_communicate(n(0), n(1)));
    }

    #[test]
    fn link_cut_is_directional() {
        let mut f = FaultPlane::healthy();
        f.cut_link(n(0), n(1));
        assert!(f.is_partitioned());
        assert!(f.is_cut(n(0), n(1)));
        assert!(!f.can_communicate(n(0), n(1)));
        // Asymmetry: the reverse direction still flows.
        assert!(f.can_communicate(n(1), n(0)));
        assert!(f.can_communicate(n(0), n(2)));
    }

    #[test]
    fn heal_link_restores_one_direction_only() {
        let mut f = FaultPlane::healthy();
        f.cut_link(n(0), n(1));
        f.cut_link(n(1), n(0));
        assert!(!f.can_communicate(n(0), n(1)));
        assert!(!f.can_communicate(n(1), n(0)));
        f.heal_link(n(0), n(1));
        assert!(f.can_communicate(n(0), n(1)));
        assert!(!f.can_communicate(n(1), n(0)));
    }

    #[test]
    fn self_links_cannot_be_cut() {
        let mut f = FaultPlane::healthy();
        f.cut_link(n(3), n(3));
        assert!(f.can_communicate(n(3), n(3)));
        assert!(!f.is_partitioned());
    }

    #[test]
    fn link_cuts_compose_with_group_partitions() {
        let mut f = FaultPlane::healthy();
        f.partition(vec![[n(0), n(1), n(2)].into_iter().collect()]);
        f.cut_link(n(0), n(1));
        // In-group but cut: blocked one way only.
        assert!(!f.can_communicate(n(0), n(1)));
        assert!(f.can_communicate(n(1), n(0)));
        assert!(f.can_communicate(n(0), n(2)));
    }

    #[test]
    fn heal_partitions_clears_link_cuts_too() {
        let mut f = FaultPlane::healthy();
        f.cut_link(n(0), n(1));
        f.partition(vec![[n(0)].into_iter().collect()]);
        f.heal_partitions();
        assert!(!f.is_partitioned());
        assert!(f.can_communicate(n(0), n(1)));
    }

    #[test]
    fn link_cuts_compose_with_death() {
        let mut f = FaultPlane::healthy();
        f.cut_link(n(0), n(1));
        f.kill(n(0));
        assert!(!f.can_communicate(n(1), n(0))); // dead beats open link
        f.revive(n(0));
        assert!(f.can_communicate(n(1), n(0)));
        assert!(!f.can_communicate(n(0), n(1))); // cut survives revive
    }

    #[test]
    fn drop_rate_is_clamped() {
        let mut f = FaultPlane::healthy();
        f.set_drop_rate(1.7);
        assert_eq!(f.drop_rate(), 1.0);
        f.set_drop_rate(-0.3);
        assert_eq!(f.drop_rate(), 0.0);
        f.set_drop_rate(f64::NAN);
        assert_eq!(f.drop_rate(), 0.0);
        f.set_drop_rate(0.25);
        assert_eq!(f.drop_rate(), 0.25);
    }

    #[test]
    fn builder_accumulates_in_order() {
        let s = FaultScript::none()
            .at(SimTime::from_secs(10), FaultAction::Kill(NodeId::new(3)))
            .at(SimTime::from_secs(20), FaultAction::Heal);
        assert_eq!(s.entries().len(), 2);
        assert_eq!(s.entries()[0].0, SimTime::from_secs(10));
        assert!(!s.is_empty());
    }

    #[test]
    fn convenience_constructors() {
        let s = FaultScript::kill_server_at(SimTime::from_secs(5));
        assert_eq!(s.entries()[0].1, FaultAction::KillServer);
        let s = FaultScript::kill_node_at(SimTime::from_secs(5), NodeId::new(7));
        assert_eq!(s.entries()[0].1, FaultAction::Kill(NodeId::new(7)));
        assert!(FaultScript::none().is_empty());
    }

    #[test]
    fn link_builders_script_directional_cuts() {
        let s = FaultScript::none()
            .partition_link_at(SimTime::from_secs(2), NodeId::new(0), NodeId::new(1))
            .heal_link_at(SimTime::from_secs(6), NodeId::new(0), NodeId::new(1));
        assert_eq!(
            s.entries()[0].1,
            FaultAction::PartitionLink {
                from: NodeId::new(0),
                to: NodeId::new(1)
            }
        );
        assert_eq!(
            s.entries()[1].1,
            FaultAction::HealLink {
                from: NodeId::new(0),
                to: NodeId::new(1)
            }
        );
    }

    #[test]
    fn isolate_cuts_both_directions_for_every_peer() {
        let s = FaultScript::none().isolate_at(SimTime::from_secs(3), NodeId::new(1), 4);
        // 3 peers × 2 directions.
        assert_eq!(s.entries().len(), 6);
        for (at, action) in s.entries() {
            assert_eq!(*at, SimTime::from_secs(3));
            match action {
                FaultAction::PartitionLink { from, to } => {
                    assert!(*from == NodeId::new(1) || *to == NodeId::new(1));
                    assert_ne!(from, to);
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
    }

    #[test]
    fn kill_restart_scripts_both_legs() {
        let s =
            FaultScript::kill_restart(NodeId::new(2), SimTime::from_secs(4), SimTime::from_secs(9));
        assert_eq!(s.entries().len(), 2);
        assert_eq!(s.entries()[0].1, FaultAction::Kill(NodeId::new(2)));
        assert_eq!(
            s.entries()[1],
            (SimTime::from_secs(9), FaultAction::Restart(NodeId::new(2)))
        );
    }
}
