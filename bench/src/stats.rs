//! Order statistics: medians over repetitions and the percentile rule
//! for latencies.

/// Median of `values` (mean of the middle pair for even counts).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile of an ascending-sorted slice, `p` in (0, 100].
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A reported tail: which percentile, its value, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: u64,
    pub samples: usize,
}

/// The highest percentile that still has at least ten samples beyond it
/// — a tail estimate resting on fewer is one outlier's value, not a
/// percentile. `None` with ten samples or fewer.
pub fn highest_tail(sorted: &[u64]) -> Option<Tail> {
    let n = sorted.len();
    if n <= 10 {
        return None;
    }
    Some(Tail {
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        value: sorted[n - 11],
        samples: n,
    })
}

/// The p99 to report: the nearest-rank p99 when ten samples lie beyond
/// it (n >= 1000), else the highest percentile that has ten beyond.
/// `None` with ten samples or fewer: no tail can be stated.
pub fn p99_or_highest(sorted: &[u64]) -> Option<Tail> {
    let n = sorted.len();
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    if n >= p99_rank + 10 {
        return Some(Tail {
            percentile: 99.0,
            value: sorted[p99_rank - 1],
            samples: n,
        });
    }
    highest_tail(sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }
}
