//! Wall-clock-driven node hardware.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use penelope_power::{PowerInterface, RaplConfig, SimulatedRapl};
use penelope_units::{Power, PowerRange, SimTime};
use penelope_workload::{Profile, WorkloadState};

/// A shared wall clock: all threads in a cluster measure [`SimTime`] from
/// the same origin so timestamps are comparable.
#[derive(Clone, Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock starting now.
    pub fn start() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since the origin as a [`SimTime`].
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64)
    }
}

/// A node's power hardware in the wall-clock Fair and SLURM runs: the
/// simulated RAPL domain behind a lock, advanced by wall time. Both the
/// SLURM client thread (read/cap) and the main thread (completion
/// polling) touch it.
pub struct NodeHardware {
    clock: WallClock,
    rapl: Mutex<SimulatedRapl<WorkloadState>>,
    safe: PowerRange,
}

impl NodeHardware {
    /// Build hardware for `profile` with the given initial cap.
    pub fn new(
        profile: Profile,
        initial_cap: Power,
        rapl_cfg: RaplConfig,
        overhead: f64,
        clock: WallClock,
    ) -> Arc<Self> {
        let safe = rapl_cfg.safe_range;
        let state = WorkloadState::with_overhead(profile, overhead);
        Arc::new(NodeHardware {
            clock,
            rapl: Mutex::new(SimulatedRapl::new(state, initial_cap, rapl_cfg)),
            safe,
        })
    }

    /// The cluster clock.
    pub fn clock(&self) -> &WallClock {
        &self.clock
    }

    /// Average power since the previous read (the decider's sensor).
    pub fn read_power(&self) -> Power {
        self.rapl.lock().unwrap().read_power(self.clock.now())
    }

    /// Enforce a new node-level cap.
    pub fn set_cap(&self, cap: Power) {
        self.rapl.lock().unwrap().set_cap(cap, self.clock.now());
    }

    /// The currently requested cap.
    pub fn cap(&self) -> Power {
        self.rapl.lock().unwrap().cap()
    }

    /// The safe cap range.
    pub fn safe_range(&self) -> PowerRange {
        self.safe
    }

    /// Advance the model to now and report whether the workload finished.
    pub fn is_finished(&self) -> bool {
        let mut rapl = self.rapl.lock().unwrap();
        let now = self.clock.now();
        let _ = rapl.effective_cap(now);
        // Advance by taking a (discarded) reading-free path: reading power
        // would reset the decider's window, so advance via a zero-length
        // cap refresh instead.
        let cap = rapl.cap();
        rapl.set_cap(cap, now);
        rapl.device().is_finished()
    }

    /// When the workload finished, if it has.
    pub fn finished_at(&self) -> Option<SimTime> {
        self.rapl.lock().unwrap().device().finished_at()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_units::SimDuration;
    use penelope_workload::{PerfModel, Phase};
    use std::time::Duration;

    fn tiny_profile(secs: f64) -> Profile {
        Profile::new(
            "tiny",
            vec![Phase::new(Power::from_watts_u64(100), secs)],
            PerfModel::new(Power::from_watts_u64(60), 1.0),
        )
    }

    fn cfg() -> RaplConfig {
        RaplConfig {
            safe_range: PowerRange::from_watts(80, 300),
            actuation_delay: SimDuration::ZERO,
            read_noise_std: 0.0,
        }
    }

    #[test]
    fn workload_finishes_in_wall_time() {
        let clock = WallClock::start();
        let hw = NodeHardware::new(
            tiny_profile(0.05),
            Power::from_watts_u64(200),
            cfg(),
            0.0,
            clock,
        );
        assert!(!hw.is_finished());
        std::thread::sleep(Duration::from_millis(120));
        assert!(hw.is_finished());
        assert!(hw.finished_at().is_some());
    }

    #[test]
    fn reads_track_demand_under_cap() {
        let clock = WallClock::start();
        let hw = NodeHardware::new(
            tiny_profile(10.0),
            Power::from_watts_u64(90),
            cfg(),
            0.0,
            clock,
        );
        std::thread::sleep(Duration::from_millis(30));
        let p = hw.read_power();
        // Demand 100 W capped at 90 W.
        assert_eq!(p, Power::from_watts_u64(90));
        hw.set_cap(Power::from_watts_u64(150));
        assert_eq!(hw.cap(), Power::from_watts_u64(150));
    }

    #[test]
    fn is_finished_does_not_disturb_read_window() {
        let clock = WallClock::start();
        let hw = NodeHardware::new(
            tiny_profile(10.0),
            Power::from_watts_u64(200),
            cfg(),
            0.0,
            clock,
        );
        std::thread::sleep(Duration::from_millis(20));
        let _ = hw.is_finished();
        std::thread::sleep(Duration::from_millis(20));
        // The read still averages over the whole window including the
        // span before is_finished(); demand is constant so it's 100 W.
        assert_eq!(hw.read_power(), Power::from_watts_u64(100));
    }
}
