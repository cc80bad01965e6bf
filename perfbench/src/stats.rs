//! Order statistics for timing samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`MIN_BEYOND`] samples strictly beyond its nearest-rank position,
/// with its value: `(percentile, value)`. `None` when the sample is too
/// small for any of them (fewer than 20 samples).
pub fn supported_tail(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = nearest_rank(p, n)?;
        (n - rank >= MIN_BEYOND).then(|| (p, s[rank - 1]))
    })
}

/// Value at percentile `p` by the nearest-rank rule; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs);
    nearest_rank(p, s.len()).map(|r| s[r - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(p: f64, n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The epsilon keeps float error in `p * n` from bumping an exact
    // rank (99.9% of 10_000) to the next one.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    Some(r.clamp(1, n))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Least-squares slope of `y` over `x`; 0 for fewer than two distinct
/// `x` values.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // A permutation of 1..=n (7919 is prime and divides none of
        // the n used here): the statistics must sort for themselves.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 19 samples: even the median has only 9 beyond it.
        assert_eq!(supported_tail(&ramp(19)), None);
        // 20 samples: p50 is rank 10, with exactly 10 beyond.
        assert_eq!(supported_tail(&ramp(20)), Some((50.0, 10.0)));
        // 100 samples: p90 is rank 90 (10 beyond); p95 would leave 5.
        assert_eq!(supported_tail(&ramp(100)), Some((90.0, 90.0)));
        // 1000 samples: p99 is rank 990 (10 beyond); p99.5 would leave 5.
        assert_eq!(supported_tail(&ramp(1000)), Some((99.0, 990.0)));
        // 10_000 samples: p99.9 is rank 9990, exactly 10 beyond.
        assert_eq!(supported_tail(&ramp(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn every_reported_tail_has_ten_beyond() {
        for n in 1..3000 {
            let xs = ramp(n);
            if let Some((_, v)) = supported_tail(&xs) {
                let beyond = xs.iter().filter(|&&x| x > v).count();
                assert!(beyond >= MIN_BEYOND, "n={n}: {beyond} beyond {v}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = ramp(100);
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn slope_of_lines() {
        let up: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        assert!((slope(&up) - 3.0).abs() < 1e-12);
        let flat: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 5.0)).collect();
        assert_eq!(slope(&flat), 0.0);
        assert_eq!(slope(&[(1.0, 2.0)]), 0.0);
        assert_eq!(slope(&[(1.0, 2.0), (1.0, 3.0)]), 0.0);
    }
}
