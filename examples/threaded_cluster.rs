//! The threaded runtime: Fair and SLURM on wall-clock threads, Penelope on
//! the lockstep driver — one OS thread per node exchanging messages over
//! channels in barrier-phased periods, whose makespan is workload seconds.
//!
//! ```text
//! cargo run --release --example threaded_cluster
//! ```

use std::time::Duration;

use penelope::prelude::*;
use penelope::runtime::{RuntimeConfig, ThreadedCluster};

fn main() {
    // Four donors (DC-like, ~145 W appetite) and four EP-like hungry nodes,
    // compressed so the whole run takes ~2 s of wall time with 10 ms
    // decider periods.
    let profiles: Vec<Profile> = (0..8)
        .map(|i| {
            let p = if i < 4 { npb::dc() } else { npb::ep() };
            p.scaled(0.012)
        })
        .collect();
    let budget = Power::from_watts_u64(8 * 160);
    let deadline = Duration::from_secs(30);

    println!("8 nodes, 10ms decider periods, budget {budget}\n");

    let fair = ThreadedCluster::run_fair(RuntimeConfig::fast(budget), profiles.clone(), deadline);
    let rt_fair = fair.makespan_secs().expect("fair finished");
    println!("Fair      makespan {rt_fair:6.3}s");

    let pen =
        ThreadedCluster::run_penelope(RuntimeConfig::fast(budget), profiles.clone(), deadline);
    let rt_pen = pen.makespan_secs().expect("penelope finished");
    println!(
        "Penelope  makespan {rt_pen:6.3}s   ({} peer messages, power accounted: {})",
        pen.net.delivered,
        pen.power_accounted()
    );

    let slurm = ThreadedCluster::run_slurm(RuntimeConfig::fast(budget), profiles, deadline, None);
    let rt_slurm = slurm.makespan_secs().expect("slurm finished");
    println!(
        "SLURM     makespan {rt_slurm:6.3}s   ({} server messages, power accounted: {})",
        slurm.net.delivered,
        slurm.power_accounted()
    );

    println!(
        "\nspeedup over Fair: Penelope {:.2}x, SLURM {:.2}x",
        rt_fair / rt_pen,
        rt_fair / rt_slurm
    );
}
