//! Order statistics over host-clock samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest rank of percentile `p` (0–100) among `n` samples, 1-based. The
/// tolerance keeps `99.9% of 10_000` at rank 9990 despite rounding.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64) - 1e-9).ceil().max(1.0) as usize
}

/// Nearest-rank percentile `p` (0–100) of `xs`; `0.0` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(p, v.len()).min(v.len()) - 1]
}

/// Percentiles a tail latency is reported at, highest first.
const TAIL_LEVELS: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0];

/// The minimum number of samples a tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest percentile of [`TAIL_LEVELS`] that still has
/// at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    /// The value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The tail of `xs`, or `None` when there are too few samples for any
/// level to keep [`TAIL_BEYOND`] samples beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    TAIL_LEVELS.iter().find_map(|&pct| {
        let beyond = n.saturating_sub(rank(pct, n));
        (beyond >= TAIL_BEYOND).then(|| Tail {
            pct,
            value: percentile(xs, pct),
            beyond,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 100.0), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert!(tail(&[1.0; 10]).is_none());
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.beyond), (99.0, 10));
        let xs: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().pct, 99.9);
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().pct, 90.0);
    }
}
