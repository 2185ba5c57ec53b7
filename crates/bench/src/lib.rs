//! Shared helpers for the perf harness, `examples/perf_report.rs`: it
//! times the sweeps through [`time`], renders the result with
//! [`report::BenchReport`] into `BENCH.json`, and CI gates throughput
//! regressions with [`report::check_regression`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use penelope_experiments::Effort;

pub mod json;
pub mod report;

/// The frequency axis the harness sweeps for Figs. 4/5/7 at each effort.
pub fn frequency_axis(effort: Effort) -> Vec<f64> {
    match effort {
        Effort::Smoke => vec![1.0, 8.0],
        Effort::Quick => vec![1.0, 4.0, 12.0, 20.0, 24.0],
        Effort::Full => penelope_experiments::scale::PAPER_FREQUENCIES.to_vec(),
    }
}

/// The scale axis the harness sweeps for Figs. 6/8 at each effort.
pub fn scale_axis(effort: Effort) -> Vec<usize> {
    match effort {
        Effort::Smoke => vec![44, 96],
        Effort::Quick => vec![44, 264, 1056],
        Effort::Full => penelope_experiments::scale::PAPER_SCALES.to_vec(),
    }
}

/// The powercap axis used for the Fig. 2 nominal matrix at each effort.
pub fn cap_axis(effort: Effort) -> Vec<u64> {
    match effort {
        Effort::Smoke => vec![60, 100],
        Effort::Quick => vec![60, 80, 100],
        Effort::Full => penelope_experiments::nominal::PAPER_CAPS_W.to_vec(),
    }
}

/// Run `f` once and return its result with the elapsed wall seconds.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axes_grow_with_effort() {
        assert!(frequency_axis(Effort::Smoke).len() < frequency_axis(Effort::Full).len());
        assert!(scale_axis(Effort::Smoke).len() < scale_axis(Effort::Full).len());
        assert!(cap_axis(Effort::Smoke).len() < cap_axis(Effort::Full).len());
        assert_eq!(
            cap_axis(Effort::Full),
            penelope_experiments::nominal::PAPER_CAPS_W.to_vec()
        );
    }

    #[test]
    fn time_reports_result_and_nonnegative_wall() {
        let (v, wall) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(wall >= 0.0);
    }
}
