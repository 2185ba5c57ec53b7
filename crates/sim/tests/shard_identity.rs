//! Shard-count and thread-count invariance of the sharded engine.
//!
//! The sharded simulator's whole correctness story rests on one claim:
//! partitioning the node set differently (or driving the shards from
//! worker threads) is *unobservable* — every node sees the same inputs
//! in the same order and draws the same RNG stream, so the run is
//! bit-identical. The unit test in `shard.rs` pins this at toy scale;
//! this test pins it at a scale where the cross-shard exchange path,
//! the per-window drain rounds and the wake heap all carry real load,
//! and across several seeds so a single lucky schedule can't hide an
//! ordering bug.

use penelope_sim::{ShardReport, ShardedConfig, ShardedSim};

fn run(n_nodes: usize, seed: u64, shards: usize, jobs: usize) -> ShardReport {
    // Dense recipient mix (1 in 8) so cross-shard request/grant/ack
    // traffic is heavy relative to the toy unit test.
    let mut cfg = ShardedConfig::mega(n_nodes, 40, seed);
    cfg.recipient_every = 8;
    cfg.shards = shards;
    cfg.jobs = jobs;
    ShardedSim::new(cfg).run()
}

#[test]
fn fingerprint_is_invariant_across_shard_counts_and_threads() {
    for &seed in &[0xA11CE, 0xB0B5EED, 0x5EED_CAFE] {
        let reference = run(1024, seed, 1, 1);
        assert!(
            reference.conservation_ok,
            "seed {seed:#x}: serial run leaks"
        );
        assert!(reference.messages > 0, "seed {seed:#x}: no traffic");
        for &(shards, jobs) in &[(2, 1), (5, 1), (16, 1), (4, 4), (16, 3)] {
            let other = run(1024, seed, shards, jobs);
            assert_eq!(
                other.fingerprint, reference.fingerprint,
                "seed {seed:#x}: shards={shards} jobs={jobs} diverged from serial"
            );
            // The fingerprint folds per-node input digests and final
            // engine state; these aggregates must agree too.
            assert_eq!(other.executed_events, reference.executed_events);
            assert_eq!(other.elided_ticks, reference.elided_ticks);
            assert_eq!(other.messages, reference.messages);
            assert_eq!(other.granted, reference.granted);
            assert!(other.conservation_ok);
        }
    }
}

#[test]
fn different_seeds_produce_different_runs() {
    // Guard against a degenerate fingerprint (constant hash would make
    // the invariance test vacuous).
    let a = run(512, 1, 1, 1);
    let b = run(512, 2, 1, 1);
    assert_ne!(a.fingerprint, b.fingerprint);
}

/// Elision levels of the mega scenario. The donor majority (63 of every
/// 64 nodes) must be elided most of the time, or the sharded engine's
/// scaling story is broken; the same cells, seeds and shard count the
/// retired mega sweep ran at its test sizes.
#[test]
fn mega_cells_conserve_and_mostly_elide() {
    const PERIODS: u64 = 250;
    const SEED: u64 = 0x4d45_4741; // "MEGA"
    let reports: Vec<(usize, ShardReport)> = [2_048usize, 4_096]
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mut cfg = ShardedConfig::mega(n, PERIODS, SEED ^ ((i as u64) << 32));
            cfg.shards = 2;
            (n, ShardedSim::new(cfg).run())
        })
        .collect();
    for (n, r) in &reports {
        assert!(r.conservation_ok, "n={n} violated power conservation");
        let slots = *n as u64 * PERIODS;
        assert!(
            r.elided_ticks > slots / 2,
            "n={n}: only {} of {slots} tick slots elided",
            r.elided_ticks
        );
        assert!(r.messages > 0, "n={n}: no protocol traffic");
        assert!(
            r.executed_events + r.elided_ticks >= slots,
            "n={n}: every node ticks every period, executed or elided"
        );
    }
    // Elided ticks scale with the cluster, so the larger cell elides more.
    assert!(reports[1].1.elided_ticks > reports[0].1.elided_ticks);
}
