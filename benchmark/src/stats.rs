//! Order statistics and the reconciliation arithmetic.

/// Median of `values` (mean of the middle pair for even counts).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Quartiles `(q1, q2, q3)` by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses by default, so the spreads
/// printed here match the ones computed over whole runs. `None` for
/// fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile range as a share of the median. `None` for fewer than
/// two values or a zero median.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank percentile `q ∈ (0, 1)` of `values`, reported only when
/// at least ten samples lie beyond it — a tail read off fewer samples
/// than that is noise. For `n` samples the rank is `ceil(q·n)` and the
/// samples beyond it number `n − rank`.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile must be in (0, 1)");
    let s = sorted(values);
    let n = s.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + 10).then(|| s[rank - 1])
}

/// One named layer's share of a run: a per-call cost and how many calls
/// the run made.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerTerm {
    pub layer: &'static str,
    pub cost_ns: f64,
    pub count: f64,
}

/// `1 − Σ(cost × count) / wall`: the share of a run's wall time that no
/// named layer accounts for. Negative when the probes' costs, taken out
/// of the run's context, add up to more than the run took.
pub fn unattributed_share(terms: &[LayerTerm], wall_s: f64) -> f64 {
    assert!(wall_s > 0.0, "wall time must be positive");
    let attributed_s: f64 = terms.iter().map(|t| t.cost_ns * t.count).sum::<f64>() * 1e-9;
    1.0 - attributed_s / wall_s
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some((2.0, 5.0, 8.0)));
        assert_eq!(quartiles(&[1.0]), None);
        let r = relative_iqr(&v).expect("spread");
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.5), Some(50.0));
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        // Shuffled input gives the same answer.
        let mut w = v.clone();
        w.reverse();
        assert_eq!(tail_percentile(&w, 0.5), Some(50.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        // One sample fewer leaves nine beyond rank 990: refused.
        assert_eq!(tail_percentile(&v[..999], 0.99), None);
        // p99.9 needs 10 000 samples.
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&big, 0.999), Some(9990.0));
        assert_eq!(tail_percentile(&big[..9_999], 0.999), None);
        // A median needs 20 samples: rank 10 of 20 leaves ten beyond.
        assert_eq!(tail_percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&v[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn reconciliation_arithmetic() {
        let terms = [
            LayerTerm {
                layer: "a",
                cost_ns: 100.0,
                count: 1e6,
            },
            LayerTerm {
                layer: "b",
                cost_ns: 50.0,
                count: 2e6,
            },
        ];
        // 0.1 s + 0.1 s attributed out of 0.5 s of wall time.
        assert!((unattributed_share(&terms, 0.5) - 0.6).abs() < 1e-12);
        // Exactly accounted.
        assert!(unattributed_share(&terms, 0.2).abs() < 1e-12);
        // Over-attributed: negative share.
        assert!((unattributed_share(&terms, 0.1) + 1.0).abs() < 1e-12);
        assert_eq!(unattributed_share(&[], 1.0), 1.0);
    }
}
