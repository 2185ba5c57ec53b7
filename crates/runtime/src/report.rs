//! Results from a threaded cluster run.

use penelope_net::NetStats;
use penelope_units::Power;

/// What a [`ThreadedCluster`](crate::ThreadedCluster) run produced.
#[derive(Debug)]
pub struct ThreadedReport {
    /// Per-node completion times in seconds since launch — wall-clock for
    /// Fair and SLURM, workload seconds for Penelope's virtual-time run
    /// (`None`: did not finish before the deadline).
    pub finished_secs: Vec<Option<f64>>,
    /// Network counters.
    pub net: NetStats,
    /// Final node-level caps.
    pub final_caps: Vec<Power>,
    /// Power found in local pools at shutdown.
    pub final_pools: Vec<Power>,
    /// Power found in still-undelivered grants at shutdown.
    pub drained_in_flight: Power,
    /// Power held by the SLURM server cache at shutdown (zero otherwise).
    pub server_cache: Power,
    /// The initially assigned total budget.
    pub budget_assigned: Power,
}

impl ThreadedReport {
    /// The makespan over nodes that finished; `None` if any did not.
    pub fn makespan_secs(&self) -> Option<f64> {
        let mut m: f64 = 0.0;
        for f in &self.finished_secs {
            m = m.max((*f)?);
        }
        Some(m)
    }

    /// Every watt the cluster was assigned, found somewhere at shutdown:
    /// caps + pools + in-flight grants + server cache. True means no
    /// transaction minted or leaked power even under real concurrency.
    pub fn power_accounted(&self) -> bool {
        self.power_found() == self.budget_assigned
    }

    /// The weaker invariant that must hold even under faults (where power
    /// is legitimately *lost*, never minted): what remains never exceeds
    /// the assignment.
    pub fn power_within_budget(&self) -> bool {
        self.power_found() <= self.budget_assigned
    }

    fn power_found(&self) -> Power {
        self.final_caps.iter().copied().sum::<Power>()
            + self.final_pools.iter().copied().sum::<Power>()
            + self.drained_in_flight
            + self.server_cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_and_accounting() {
        let r = ThreadedReport {
            finished_secs: vec![Some(1.0), Some(2.5)],
            net: NetStats::default(),
            final_caps: vec![Power::from_watts_u64(90), Power::from_watts_u64(110)],
            final_pools: vec![Power::from_watts_u64(10), Power::ZERO],
            drained_in_flight: Power::from_watts_u64(5),
            server_cache: Power::from_watts_u64(15),
            budget_assigned: Power::from_watts_u64(230),
        };
        assert_eq!(r.makespan_secs(), Some(2.5));
        assert!(r.power_accounted());
        let r2 = ThreadedReport {
            finished_secs: vec![Some(1.0), None],
            budget_assigned: Power::from_watts_u64(231),
            ..r
        };
        assert_eq!(r2.makespan_secs(), None);
        assert!(!r2.power_accounted());
    }
}
