//! Order statistics over latency samples.

/// The percentile ladder of the tail metric. Each workload fixes its tail
/// rung as the highest one with at least [`TAIL_MIN_BEYOND`] samples above
/// it at the benchmark's run length; a run that falls short of that falls
/// back to the highest rung that still qualifies, so a tail is never read
/// off one or two outliers.
pub const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice, `q` in `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A sorted copy of the samples.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest rank); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// Mean of the middle half: the lowest and highest quarter (rounded down)
/// dropped; 0 for no samples. Reduces per-segment statistics: unlike a
/// median it averages segments that fall into two modes, and unlike a mean
/// a few segments hit by host noise do not move it.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    if mid.is_empty() {
        return 0.0;
    }
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// The reported tail of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile of the rung, e.g. `99.0`.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly above the rung's rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// The `percentile` of `samples` when at least [`TAIL_MIN_BEYOND`] samples
/// lie beyond it; otherwise the highest [`TAIL_LADDER`] rung that has them
/// (the median when even that has too few — fewer than 20 samples).
///
/// A workload's percentile stays fixed across runs rather than climbing
/// with the sample count: a change that makes jobs faster fits more of them
/// into a run, and must not turn a p99 into a p99.9.
pub fn tail(samples: &[f64], percentile: f64) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    let rung = |p: f64| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let rank = rank.clamp(1, n.max(1));
        Tail {
            percentile: p,
            value: if n == 0 { 0.0 } else { s[rank - 1] },
            beyond: n.saturating_sub(rank),
            samples: n,
        }
    };
    let fixed = rung(percentile);
    if fixed.beyond >= TAIL_MIN_BEYOND {
        return fixed;
    }
    TAIL_LADDER
        .iter()
        .rev()
        .filter(|&&p| p < percentile)
        .map(|&p| rung(p))
        .find(|t| t.beyond >= TAIL_MIN_BEYOND)
        .unwrap_or_else(|| rung(50.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[]), 0.0);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(interquartile_mean(&[100.0, 1.0, 2.0, 3.0]), 2.5);
        // Two modes in equal parts: the mean of the middle, not one mode.
        let modes = [40.0, 40.0, 40.0, 40.0, 60.0, 60.0, 60.0, 60.0];
        assert_eq!(interquartile_mean(&modes), 50.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_and_reports_the_count() {
        for n in [20usize, 37, 100, 101, 999, 1000, 5000, 123_456] {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for want in [75.0, 95.0, 99.0] {
                let t = tail(&v, want);
                assert_eq!(t.samples, n);
                assert!(t.beyond >= TAIL_MIN_BEYOND, "n={n}: {t:?}");
                assert!(t.percentile <= want);
                let beyond = v.iter().filter(|&&x| x > t.value).count();
                assert_eq!(beyond, t.beyond, "n={n}");
                // A fallback is the highest rung below the fixed one that
                // still has ten beyond it.
                if t.percentile < want {
                    if let Some(&next) = TAIL_LADDER.iter().find(|&&p| p > t.percentile) {
                        let rank = ((next / 100.0) * n as f64).ceil() as usize;
                        assert!(n - rank < TAIL_MIN_BEYOND, "n={n}: p{next} was eligible");
                    }
                }
            }
        }
    }

    #[test]
    fn the_fixed_percentile_does_not_climb_with_the_sample_count() {
        let v: Vec<f64> = (1..=100_000).map(|i| i as f64).collect();
        let t = tail(&v, 99.0);
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 99_000.0, 1000));
        let few: Vec<f64> = (1..=500).map(|i| i as f64).collect();
        let t = tail(&few, 99.0);
        assert_eq!((t.percentile, t.beyond), (95.0, 25));
    }
}
