//! Exact order statistics over the benchmark's own `Instant` samples.
//!
//! The program's `LogHistogram` buckets are powers of two, so a quantile
//! read from it can be up to 2x off; every timing this benchmark reports
//! is computed here from the raw samples instead.

/// Median and tail of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Exact median (mean of the two middle samples when `n` is even).
    pub p50: f64,
    /// The tail: see [`tail`].
    pub tail: Option<Tail>,
}

/// The highest percentile with at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, as the share of samples at or below `value`.
    pub pct: f64,
}

/// Exact median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Exact nearest-rank quantile `q` in `(0, 1]` of `samples`: the
/// smallest sample with at least a share `q` of all samples at or below
/// it. `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len().max(1)) - 1).copied()
}

/// The highest percentile that still has at least ten samples beyond it:
/// in sorted order, the sample with exactly ten after it. `None` when
/// there are fewer than eleven samples, so no percentile qualifies.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    let idx = n.checked_sub(11)?;
    Some(Tail {
        value: sorted[idx],
        pct: 100.0 * (idx + 1) as f64 / n as f64,
    })
}

/// Median and tail together; `None` when empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    Some(Summary {
        n: samples.len(),
        p50: median(samples)?,
        tail: tail(samples),
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_sample_with_exactly_ten_beyond_it() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > t.value).count(), 10);

        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!((t.value, t.pct), (990.0, 99.0));
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 0.0);
        assert_eq!(eleven.iter().filter(|&&s| s > t.value).count(), 10);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.9), Some(90.0));
        assert_eq!(quantile(&samples, 0.999), Some(100.0));
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(quantile(&[], 0.9), None);
    }

    #[test]
    fn median_is_exact() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let s = summarize(&[5.0; 7]).unwrap();
        assert_eq!((s.n, s.p50, s.tail), (7, 5.0, None));
    }
}
