//! Quantiles from the benchmark's own raw samples.
//!
//! Every quantile the benchmark prints is computed here from the
//! per-request samples it recorded itself, never from the program's
//! bucketed histograms. Two rules decide what may be reported:
//!
//! * a percentile is reported only when at least ten samples lie beyond
//!   it, and the tail printed for a timing is the highest percentile of
//!   [`TAIL_LADDER`] that qualifies;
//! * below forty samples there is no tail at all, only the median.

/// Candidate tail percentiles, in hundredths of a percent, highest first.
pub const TAIL_LADDER: [u32; 6] = [9999, 9990, 9900, 9500, 9000, 7500];

/// Fewest samples that support any tail.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// Samples strictly beyond the `q`-th percentile (`q` in hundredths of a
/// percent) of `n` samples under the nearest-rank definition.
pub fn samples_beyond(n: usize, q: u32) -> usize {
    let rank = (n * q as usize).div_ceil(10_000);
    n - rank
}

/// Whether `n` samples support the `q`-th percentile: ten or more lie
/// beyond it.
pub fn supports(n: usize, q: u32) -> bool {
    n >= MIN_TAIL_SAMPLES && samples_beyond(n, q) >= 10
}

/// The highest percentile of [`TAIL_LADDER`] that `n` samples support.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER.iter().copied().find(|&q| supports(n, q))
}

/// Nearest-rank percentile of ascending `sorted` samples (`q` in
/// hundredths of a percent). `None` when there are no samples.
pub fn percentile(sorted: &[f64], q: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (sorted.len() * q as usize).div_ceil(10_000).max(1);
    Some(sorted[rank - 1])
}

/// Median of ascending `sorted` samples: the middle sample, or the mean of
/// the two middle ones.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A timing reduced to what the benchmark reports: sample count, median,
/// and the supported tail with the percentile it sits at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile in hundredths of a percent, value)`.
    pub tail: Option<(u32, f64)>,
}

/// Summarize raw samples. `None` when empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = median(&sorted)?;
    let tail = tail_percentile(sorted.len()).and_then(|q| percentile(&sorted, q).map(|v| (q, v)));
    Some(Summary {
        n: sorted.len(),
        p50,
        tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_tail_below_forty_samples() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(39), None);
        let s = summarize(&(1..=39).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(s.n, 39);
        assert_eq!(s.p50, 20.0);
        assert_eq!(s.tail, None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(40), Some(7500));
        assert_eq!(tail_percentile(99), Some(7500));
        assert_eq!(tail_percentile(100), Some(9000));
        assert_eq!(tail_percentile(200), Some(9500));
        assert_eq!(tail_percentile(999), Some(9500));
        assert_eq!(tail_percentile(1000), Some(9900));
        assert_eq!(tail_percentile(10_000), Some(9990));
        assert_eq!(tail_percentile(100_000), Some(9999));
        for n in [40usize, 137, 1000, 4321, 123_456] {
            let q = tail_percentile(n).unwrap();
            assert!(samples_beyond(n, q) >= 10, "n={n} q={q}");
        }
        assert!(supports(1000, 9900));
        assert!(!supports(999, 9900));
    }

    #[test]
    fn quantiles_are_exact_sample_values() {
        // A histogram with {1,2,5} bucket edges would report 2.0 or 5.0
        // here; raw samples keep the measured value.
        let samples: Vec<f64> = (0..1000).map(|i| 1.0 + i as f64 * 0.003).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.n, 1000);
        assert!((s.p50 - 2.4985).abs() < 1e-9, "{}", s.p50);
        let (q, v) = s.tail.unwrap();
        assert_eq!(q, 9900);
        assert!((v - (1.0 + 989.0 * 0.003)).abs() < 1e-9, "{v}");
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 2.0]), Some(1.5));
        assert_eq!(median(&[1.0, 2.0, 9.0]), Some(2.0));
        // Input order does not matter to summarize.
        assert_eq!(summarize(&[9.0, 1.0, 2.0]).unwrap().p50, 2.0);
    }
}
