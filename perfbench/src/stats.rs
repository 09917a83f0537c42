//! Order statistics for timing samples.

/// The tail percentile every latency metric reports. Each workload sizes
/// its run so that at least [`MIN_BEYOND_TAIL`] samples lie beyond it.
pub const TAIL_PERCENT: usize = 90;
pub const TAIL_Q: f64 = TAIL_PERCENT as f64 / 100.0;

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// The smallest sample count for which [`TAIL_Q`] may be reported.
pub fn min_samples_for_tail() -> usize {
    (MIN_BEYOND_TAIL * 100).div_ceil(100 - TAIL_PERCENT)
}

/// Median, quartiles and count of a sample.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// The `q`-quantile by linear interpolation between closest ranks.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn summarize(xs: &[f64]) -> Summary {
    Summary {
        median: quantile(xs, 0.5),
        q1: quantile(xs, 0.25),
        q3: quantile(xs, 0.75),
        n: xs.len(),
    }
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The tail percentile of `xs`, or an error naming the shortfall when too
/// few samples lie beyond it.
pub fn tail(xs: &[f64]) -> Result<f64, String> {
    if xs.len() < min_samples_for_tail() {
        return Err(format!(
            "{} samples cannot support p{} (need {})",
            xs.len(),
            TAIL_PERCENT,
            min_samples_for_tail()
        ));
    }
    Ok(quantile(xs, TAIL_Q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
    }

    #[test]
    fn tail_needs_enough_samples() {
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(tail(&xs).is_err());
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(tail(&xs).is_ok());
    }
}
