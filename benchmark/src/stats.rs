//! Order statistics over measured samples.

/// The nearest-rank `q`-quantile of `samples` (`q` in `[0, 1]`); NaN when
/// empty. Infinite samples (failed operations) sort last.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The tail quantile of the latencies printed as facts: the highest
/// percentile with at least ten samples beyond it, capped at p99 (p83 for
/// 60 samples, p99 from 1100 samples up).
pub fn tail_q(n: usize) -> f64 {
    if n <= 10 {
        return 1.0;
    }
    ((n - 10) as f64 / n as f64).min(0.99)
}

/// Splits time-ordered `samples` into `windows` consecutive windows of
/// equal count (the remainder joins the last), applies `f` to each, and
/// returns the median of the results. A burst of host noise then moves
/// only the windows it falls in.
pub fn window_median(samples: &[f64], windows: usize, f: impl Fn(&[f64]) -> f64) -> f64 {
    let windows = windows.clamp(1, samples.len().max(1));
    let per = samples.len() / windows;
    let values: Vec<f64> = (0..windows)
        .map(|w| f(&samples[w * per..if w + 1 == windows { samples.len() } else { (w + 1) * per }]))
        .collect();
    median(&values)
}

/// The [`tail_q`] quantile of `samples`.
pub fn tail(samples: &[f64]) -> f64 {
    quantile(samples, tail_q(samples.len()))
}

/// Samples per tail window: the smallest count with ten samples beyond
/// its p90.
pub const TAIL_WINDOW: usize = 110;

/// Windows [`windowed_tail`] splits `n` samples into.
pub fn tail_windows(n: usize) -> usize {
    (n / TAIL_WINDOW).max(1)
}

/// The open loop's tail latency: the median over consecutive windows of at
/// least [`TAIL_WINDOW`] samples of each window's [`tail`] (p90.9 for 110
/// samples; p83 for a single window of 60). A whole-run p99 on a shared
/// host reads the hypervisor's preemption slices and moves several-fold
/// between runs of identical code; this percentile does not.
pub fn windowed_tail(samples: &[f64]) -> f64 {
    window_median(samples, tail_windows(samples.len()), tail)
}

/// The percentile [`windowed_tail`] reports for `n` samples.
pub fn windowed_tail_percentile(n: usize) -> f64 {
    100.0 * tail_q(n / tail_windows(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_matches_the_stated_percentiles() {
        assert!((tail_q(60) - 50.0 / 60.0).abs() < 1e-12);
        assert_eq!(tail_q(4000), 0.99);
        let epochs: Vec<f64> = (1..=60).map(f64::from).collect();
        // Ten samples lie strictly beyond the p83 of 60.
        assert_eq!(quantile(&epochs, tail_q(60)), 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 1.0), f64::INFINITY);
        // One slow window out of three leaves the median window alone.
        let samples = [1.0, 1.0, 9.0, 9.0, 2.0, 2.0, 2.0];
        assert_eq!(window_median(&samples, 3, |w| w.iter().sum::<f64>() / w.len() as f64), 2.0);
    }
}
