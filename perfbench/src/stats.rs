//! Order statistics used by every metric: the median and the tail
//! percentile the sample supports.

/// The tail percentiles tried, highest first. A tail metric reports the
/// first one that leaves at least [`MIN_BEYOND`] samples above it, so a
/// small sample never reports a "p99" that is really its maximum.
pub const TAIL_LADDER: [f64; 6] = [99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in percent) of an ascending sample, with
/// the number of samples strictly above its rank.
#[must_use]
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// The tail of an ascending sample: the highest percentile of
/// [`TAIL_LADDER`] with at least [`MIN_BEYOND`] samples beyond it, as
/// `(percentile, value)`. Falls back to the median when the sample is
/// too small for any tail.
#[must_use]
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    for p in TAIL_LADDER {
        let (value, beyond) = nearest_rank(sorted, p)?;
        if beyond >= MIN_BEYOND {
            return Some((p, value));
        }
    }
    nearest_rank(sorted, 50.0).map(|(value, _)| (50.0, value))
}

/// Median (nearest rank) of an ascending sample.
#[must_use]
pub fn median(sorted: &[f64]) -> Option<f64> {
    nearest_rank(sorted, 50.0).map(|(v, _)| v)
}

/// Sorts a sample ascending; infinities (failed requests) sort last.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of an unsorted sample (0 when empty).
#[must_use]
pub fn median_of(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    median(&values).unwrap_or(0.0)
}

/// Median over inputs of each input's fastest run, where sample `i` is
/// a run of input `i % inputs`. Steal only ever slows a run down, so the
/// fastest of an input's runs is the one it disturbed least; the median
/// over inputs keeps any one input's cost from deciding the result.
#[must_use]
pub fn median_of_fastest(samples: &[f64], inputs: usize) -> f64 {
    let fastest = (0..inputs)
        .map(|k| {
            samples
                .iter()
                .skip(k)
                .step_by(inputs)
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    median_of(fastest)
}

/// `(p50, tail)` of an unsorted sample, with the tail's percentile.
#[must_use]
pub fn summary(mut values: Vec<f64>) -> Summary {
    sort(&mut values);
    let (tail_p, tail_v) = tail(&values).unwrap_or((50.0, 0.0));
    Summary {
        n: values.len(),
        p50: median(&values).unwrap_or(0.0),
        tail_p,
        tail: tail_v,
    }
}

/// A median and the tail the sample supports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The percentile the tail was taken at (see [`tail`]).
    pub tail_p: f64,
    /// The tail value.
    pub tail: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn set_up_time_is_the_median_input_at_its_fastest() {
        // Inputs 0, 1, 2 cost 1, 2 and 3; input 2's first run and input
        // 0's second run were slowed down.
        let samples = [1.0, 2.0, 9.0, 8.0, 2.5, 3.0];
        assert_eq!(median_of_fastest(&samples, 3), 2.0);
    }

    #[test]
    fn tail_is_p99_when_the_sample_supports_it() {
        // 2000 samples: p99 is rank 1980, 20 samples beyond it.
        assert_eq!(tail(&ramp(2000)), Some((99.0, 1980.0)));
        // 1010 samples: rank ceil(999.9) = 1000 leaves exactly 10 beyond.
        assert_eq!(tail(&ramp(1010)), Some((99.0, 1000.0)));
    }

    #[test]
    fn tail_steps_down_until_ten_samples_lie_beyond() {
        // 1000 samples: p99 leaves 10 beyond (rank 990) — still fine.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 999 samples: p99 rank 990 leaves 9, p98 rank 980 leaves 19.
        assert_eq!(tail(&ramp(999)), Some((98.0, 980.0)));
        // 200 samples: p99 leaves 2, p98 leaves 4, p95 leaves 10.
        assert_eq!(tail(&ramp(200)), Some((95.0, 190.0)));
        // 40 samples: only p75 (rank 30, 10 beyond) qualifies.
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        // 12 samples: nothing leaves 10 beyond; the median is reported.
        assert_eq!(tail(&ramp(12)), Some((50.0, 6.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn failed_requests_sort_last_and_reach_the_tail() {
        let mut v = ramp(100);
        v.extend(std::iter::repeat_n(f64::INFINITY, 20));
        sort(&mut v);
        let (p, value) = tail(&v).unwrap();
        // p95 (rank 114) leaves 6 beyond; p90 (rank 108) leaves 12.
        assert_eq!(p, 90.0);
        assert!(value.is_infinite(), "failures count as infinitely late");
        assert_eq!(median(&v), Some(60.0));
    }
}
