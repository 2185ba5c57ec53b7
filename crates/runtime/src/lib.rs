//! Threaded in-process cluster runtime.
//!
//! Penelope runs on the [`Lockstep`] driver: one OS thread per node, each
//! owning its [`NodeEngine`](penelope_core::NodeEngine) behind the §3.3
//! lock, messages over the channel-based [`penelope_net::ThreadNet`],
//! barrier-phased periods in unpaced virtual time and a scripted
//! [`FaultScript`](penelope_net::FaultScript). It is the conformance
//! harness's lockstep substrate, and [`ThreadedCluster`] wraps it for
//! Penelope runs. The free-running decider/network thread pair on real
//! sockets is the UDP daemon's (`penelope-daemon`).
//!
//! The baselines run on wall-clock threads: Fair as static caps, SLURM as
//! one client thread per node plus a central server thread (§4.1, §4.5),
//! with the simulated RAPL domain of the DES driven by wall time. Tests
//! keep periods in the milliseconds so a whole cluster run takes a second
//! or two.
//!
//! Together they show that the *identical* decider/pool/client state
//! machines from `penelope-core` and `penelope-slurm` run unchanged against
//! real concurrency, not just under the deterministic simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod hardware;
pub mod lockstep;
pub mod report;

pub use cluster::{RuntimeConfig, ThreadedCluster, ThreadedClusterBuilder};
pub use hardware::NodeHardware;
pub use lockstep::{Lockstep, LockstepRun};
pub use report::ThreadedReport;
