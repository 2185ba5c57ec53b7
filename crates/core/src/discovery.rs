//! Peer discovery for Penelope deciders.
//!
//! One function, [`choose_peer`], implements all three
//! [`DiscoveryStrategy`] arms plus the timeout-driven liveness filter:
//! when the decider's suspicion set is non-empty, selection avoids
//! suspected peers, falling back to the paper's blind uniform choice when
//! every peer is suspected. When no suspicion is active (every fault-free
//! run), each arm draws from the RNG *exactly* as the original inline
//! code did — one index draw for uniform, one chance draw for a held
//! gossip hint — so loss-free seeds replay byte-identically.
//!
//! The module lives in `penelope-core` (it moved here from the simulator
//! when the [`NodeEngine`](crate::engine::NodeEngine) absorbed peer
//! selection) so all three substrates share one implementation. The
//! randomness seam is [`EngineRng`], a two-method trait the testkit's
//! deterministic PRNG implements by delegation — the engine never sees a
//! concrete RNG type.

use penelope_units::NodeId;

/// The randomness a [`NodeEngine`](crate::engine::NodeEngine) consumes:
/// exactly two draw shapes, so every substrate can plug in the testkit's
/// deterministic PRNG (or any other source) without `penelope-core`
/// depending on an RNG implementation.
///
/// Implementations MUST be draw-compatible with
/// `penelope_testkit::rng::Rng`: `gen_index(upper)` behaves as
/// `gen_range(0..upper)` and `gen_chance(p)` as `gen_bool(p)`. The
/// testkit implements this trait for `TestRng` by literal delegation,
/// which is what keeps recorded seeds replaying byte-identically across
/// the engine extraction.
pub trait EngineRng {
    /// A uniform index in `0..upper`. `upper` must be nonzero.
    fn gen_index(&mut self, upper: usize) -> usize;
    /// `true` with probability `p` (`p` must be in `[0, 1]`).
    fn gen_chance(&mut self, p: f64) -> bool;
}

impl<R: EngineRng + ?Sized> EngineRng for &mut R {
    fn gen_index(&mut self, upper: usize) -> usize {
        (**self).gen_index(upper)
    }
    fn gen_chance(&mut self, p: f64) -> bool {
        (**self).gen_chance(p)
    }
}

/// How a power-hungry Penelope decider picks which pool to query.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum DiscoveryStrategy {
    /// Uniformly random peer (the paper's design, §3.1).
    #[default]
    UniformRandom,
    /// Deterministic round-robin sweep — the ablation arm: discovery
    /// without randomness.
    RoundRobin,
    /// Gossip hints — a future-work extension: remember the pool that last
    /// granted power and re-query it, falling back to a uniformly random
    /// peer with probability `explore` (and whenever the hint goes dry).
    GossipHint {
        /// Probability of ignoring the hint and exploring randomly.
        explore: f64,
    },
}

/// Where a node's round-robin discovery cursor must start: the next node
/// ring-wise, never the node itself. The old hard-coded `1` made node
/// index 1 select *itself* on its first pick.
pub fn initial_rr_cursor(idx: u32, n: u32) -> u32 {
    (idx + 1) % n.max(1)
}

/// Pick the peer a power-hungry node at `idx` (of `n` client nodes)
/// queries this iteration. Returns `None` when the node has no peers.
///
/// Liveness filtering: `suspicion_active` says whether the caller's
/// decider currently suspects *any* peer, and `is_suspected` classifies
/// one candidate. The filter is only consulted when suspicion is active,
/// which keeps the nominal path's RNG draw sequence untouched.
///
/// Every arm guarantees the returned peer is never the node itself —
/// including `RoundRobin` with a self-pointing cursor, which the old
/// inline code returned verbatim.
#[allow(clippy::too_many_arguments)]
pub fn choose_peer<R: EngineRng>(
    strategy: DiscoveryStrategy,
    rng: &mut R,
    idx: usize,
    n: usize,
    rr_cursor: &mut u32,
    last_success: Option<NodeId>,
    suspicion_active: bool,
    is_suspected: impl Fn(NodeId) -> bool,
) -> Option<NodeId> {
    if n < 2 {
        return None;
    }
    match strategy {
        DiscoveryStrategy::UniformRandom => {
            Some(uniform_peer(rng, idx, n, suspicion_active, &is_suspected))
        }
        DiscoveryStrategy::RoundRobin => {
            // The cursor itself must never name the node: a stale or
            // mis-seeded cursor would otherwise make the node "request
            // power from itself" and burn a period waiting for a reply
            // that can never come.
            let mut p = *rr_cursor;
            if p as usize >= n || p as usize == idx {
                p = next_cursor(p % n as u32, idx, n);
            }
            // Under suspicion, sweep past suspected peers (at most one
            // full lap; if everyone is suspected, keep the blind pick).
            if suspicion_active {
                for _ in 0..n {
                    if !is_suspected(NodeId::new(p)) {
                        break;
                    }
                    p = next_cursor(p, idx, n);
                }
            }
            *rr_cursor = next_cursor(p, idx, n);
            Some(NodeId::new(p))
        }
        DiscoveryStrategy::GossipHint { explore } => {
            // The hint comes from whoever last granted; a driver that books
            // an unknown sender under an out-of-range id must not have it
            // dialled.
            let hint = last_success
                .filter(|h| h.index() < n && h.index() != idx)
                .filter(|h| !(suspicion_active && is_suspected(*h)));
            match hint {
                Some(h) if !rng.gen_chance(explore.clamp(0.0, 1.0)) => Some(h),
                _ => Some(uniform_peer(rng, idx, n, suspicion_active, &is_suspected)),
            }
        }
    }
}

/// Uniform choice over the other client nodes (§3.1: chosen at random; the
/// decider has no liveness oracle beyond its own timeout bookkeeping, so
/// without suspicion a dead peer can be picked and the request simply
/// times out). Exactly one index draw on every path.
fn uniform_peer<R: EngineRng>(
    rng: &mut R,
    idx: usize,
    n: usize,
    suspicion_active: bool,
    is_suspected: &impl Fn(NodeId) -> bool,
) -> NodeId {
    if suspicion_active {
        let candidates: Vec<u32> = (0..n as u32)
            .filter(|&p| p as usize != idx && !is_suspected(NodeId::new(p)))
            .collect();
        if !candidates.is_empty() {
            let k = rng.gen_index(candidates.len());
            return NodeId::new(candidates[k]);
        }
        // Everyone is suspected: fall back to the paper's blind pick so a
        // lone survivor keeps probing instead of going mute.
    }
    let r = rng.gen_index(n - 1);
    let p = if r >= idx { r + 1 } else { r };
    NodeId::new(p as u32)
}

/// Advance a round-robin cursor one step, skipping the node itself.
fn next_cursor(p: u32, idx: usize, n: usize) -> u32 {
    let mut next = (p + 1) % n as u32;
    if next as usize == idx {
        next = (next + 1) % n as u32;
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic LCG so core can exercise the selection logic
    /// without depending on the testkit PRNG (draw-identity against the
    /// testkit stream is proven by the simulator's re-exported test
    /// suite, which runs the real `TestRng` through this code).
    struct Lcg(u64);

    impl EngineRng for Lcg {
        fn gen_index(&mut self, upper: usize) -> usize {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((self.0 >> 33) % upper as u64) as usize
        }
        fn gen_chance(&mut self, p: f64) -> bool {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((self.0 >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
        }
    }

    const STRATEGIES: [DiscoveryStrategy; 3] = [
        DiscoveryStrategy::UniformRandom,
        DiscoveryStrategy::RoundRobin,
        DiscoveryStrategy::GossipHint { explore: 0.3 },
    ];

    #[test]
    fn never_selects_self_under_any_state() {
        for strategy in STRATEGIES {
            for n in 2..=6usize {
                for idx in 0..n {
                    for cursor0 in 0..n as u32 + 1 {
                        for suspect_all in [false, true] {
                            let mut rng = Lcg((n * 31 + idx) as u64 ^ u64::from(cursor0) | 1);
                            let mut cursor = cursor0;
                            for _ in 0..32 {
                                let picked = choose_peer(
                                    strategy,
                                    &mut rng,
                                    idx,
                                    n,
                                    &mut cursor,
                                    Some(NodeId::new(idx as u32)),
                                    suspect_all,
                                    |_| suspect_all,
                                )
                                .expect("n >= 2 always yields a peer");
                                assert_ne!(picked.index(), idx);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn singleton_cluster_has_no_peer() {
        let mut rng = Lcg(1);
        let mut cursor = 0u32;
        for strategy in STRATEGIES {
            assert_eq!(
                choose_peer(strategy, &mut rng, 0, 1, &mut cursor, None, false, |_| {
                    false
                }),
                None
            );
        }
    }

    #[test]
    fn initial_rr_cursor_never_points_at_self() {
        for n in 1..=8u32 {
            for idx in 0..n {
                let c = initial_rr_cursor(idx, n);
                assert!(c < n.max(1));
                if n >= 2 {
                    assert_ne!(c, idx, "node {idx} of {n} starts self-pointing");
                }
            }
        }
    }
}
