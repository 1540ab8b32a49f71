//! Order statistics for latency samples, and the tail-percentile rule.
//!
//! A tail latency is only meaningful when enough samples lie beyond it:
//! `latency_tail_ms` is reported at a fixed percentile per workload,
//! chosen so that at least [`MIN_BEYOND`] samples of a normal run lie
//! above it, and a run that collects too few samples for that fails
//! instead of reporting a number that rests on one or two requests.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, linearly interpolated
/// between the two closest ranks. `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples`, or `0.0` when there are none (a layer the
/// workload never called).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// How many of `n` distinct samples lie strictly beyond the `pct`-th
/// percentile as [`quantile`] places it: the ranks above
/// `(n - 1) · pct / 100`.
pub fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let pos = ((n - 1) as f64 * pct.clamp(0.0, 100.0) / 100.0).floor() as usize;
    n - 1 - pos
}

/// Whether `n` samples support a tail percentile of `pct`.
pub fn tail_supported(n: usize, pct: f64) -> bool {
    beyond(n, pct) >= MIN_BEYOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(quantile(&s, 0.5), Some(2.5));
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[], 0.9), None);
    }

    #[test]
    fn beyond_counts_samples_above_the_percentile_rank() {
        // 101 samples: the 90th percentile is sample 90 exactly, with
        // samples 91..=100 beyond it.
        assert_eq!(beyond(101, 90.0), 10);
        // 92 samples: it falls between samples 81 and 82; 82..=91 lie
        // beyond.
        assert_eq!(beyond(92, 90.0), 10);
        assert_eq!(beyond(91, 90.0), 9);
        assert_eq!(beyond(100, 95.0), 5);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(5, 0.0), 4);
        assert_eq!(beyond(1, 50.0), 0);
        assert_eq!(beyond(0, 50.0), 0);
        // Cross-check against `quantile` on distinct samples.
        for n in [20usize, 91, 92, 181, 182, 1000] {
            let s: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for pct in [50.0, 90.0, 95.0, 99.0] {
                let q = quantile(&s, pct / 100.0).unwrap();
                let above = s.iter().filter(|&&x| x > q).count();
                assert_eq!(beyond(n, pct), above, "n={n} pct={pct}");
            }
        }
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        // The smallest sample counts that support each percentile.
        for (pct, min_n) in [
            (50.0, 20),
            (90.0, 92),
            (95.0, 182),
            (99.0, 902),
            (99.9, 9_002),
        ] {
            assert!(tail_supported(min_n, pct), "p{pct} with {min_n}");
            assert!(!tail_supported(min_n - 1, pct), "p{pct} with {}", min_n - 1);
        }
    }
}
