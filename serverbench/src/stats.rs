//! Sample statistics: nearest-rank percentiles, the tail a sample can
//! support, medians, and ratios printed with their base.

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the tail is noise from a handful of operations.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, when choosing the reported tail.
pub const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// 1-based nearest rank of the `q` quantile in `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps products like 0.99 * 1000 = 989.9999… at 990.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// True when `n` samples leave at least [`MIN_BEYOND`] beyond the `q`
/// quantile.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= MIN_BEYOND
}

/// Nearest-rank `q` quantile of ascending `sorted` samples.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        None
    } else {
        Some(sorted[rank(sorted.len(), q) - 1])
    }
}

/// The highest percentile a sample supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile, e.g. `0.99`.
    pub q: f64,
    /// Its value.
    pub value: u64,
    /// Sample count.
    pub n: usize,
}

/// The highest rung of [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median is unsupported.
pub fn tail(sorted: &[u64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LADDER.iter().find(|&&q| supported(n, q)).map(|&q| Tail {
        q,
        value: percentile(sorted, q).expect("supported implies non-empty"),
        n,
    })
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A ratio printed with its base: `0.2500 (5 / 20 commits)`.
pub fn fmt_ratio(num: f64, den: f64, base: &str) -> String {
    format!("{:.4} ({} / {} {base})", ratio(num, den), fmt_count(num), fmt_count(den))
}

fn fmt_count(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), Some(50));
        assert_eq!(percentile(&s, 0.99), Some(99));
        assert_eq!(percentile(&s, 1.0), Some(100));
        assert_eq!(percentile(&[7], 0.5), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 needs 1000 samples: rank 990, ten beyond.
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        // p50 needs 20.
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn tail_picks_highest_supported_rung() {
        let s: Vec<u64> = (1..=1000).collect();
        let t = tail(&s).unwrap();
        assert_eq!((t.q, t.value, t.n), (0.99, 990, 1000));
        let s: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail(&s).unwrap().q, 0.999);
        let s: Vec<u64> = (1..=200).collect();
        let t = tail(&s).unwrap();
        assert_eq!((t.q, t.value), (0.95, 190));
        let s: Vec<u64> = (1..=25).collect();
        assert_eq!(tail(&s).unwrap().q, 0.5);
        assert!(tail(&(1..=19).collect::<Vec<u64>>()).is_none());
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratios_print_with_their_base() {
        assert_eq!(fmt_ratio(5.0, 20.0, "commits"), "0.2500 (5 / 20 commits)");
        assert_eq!(fmt_ratio(3.0, 0.0, "scans"), "0.0000 (3 / 0 scans)");
        assert_eq!(fmt_ratio(1.5, 3.0, "ops"), "0.5000 (1.500 / 3 ops)");
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
