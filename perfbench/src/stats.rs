//! Summary arithmetic: medians, the tail-percentile rule, geometric means
//! and the paper-error metric.

/// Median of `v` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Harrell–Davis estimate of quantile `p` (0 < p < 1): the mean of all
/// order statistics weighted by a Beta((n+1)p, (n+1)(1-p)) distribution.
/// A single order statistic jumps when the samples next to it swap ranks
/// across a gap, as the differently sized cells of a figure grid do from
/// run to run; this estimate moves smoothly instead. `None` for an empty
/// slice.
pub fn hd_quantile(v: &[f64], p: f64) -> Option<f64> {
    let n = v.len();
    if n == 0 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let a = (n as f64 + 1.0) * p;
    let b = (n as f64 + 1.0) * (1.0 - p);
    // The Beta(a, b) log-density up to a constant, integrated by the
    // midpoint rule on a grid aligned with the rank boundaries i/n, and
    // shifted by its maximum so large n cannot underflow every weight.
    const STEPS_PER_RANK: usize = 64;
    let h = 1.0 / (n * STEPS_PER_RANK) as f64;
    let log_density: Vec<f64> = (0..n * STEPS_PER_RANK)
        .map(|k| {
            let t = (k as f64 + 0.5) * h;
            (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln()
        })
        .collect();
    let top = log_density.iter().copied().fold(f64::MIN, f64::max);
    let mut weights = vec![0.0; n];
    for (k, l) in log_density.iter().enumerate() {
        weights[k / STEPS_PER_RANK] += (l - top).exp();
    }
    let total: f64 = weights.iter().sum();
    Some(weights.iter().zip(&s).map(|(w, x)| w * x).sum::<f64>() / total)
}

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `v` with at least [`TAIL_BEYOND`] samples
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The Harrell–Davis estimate at that percentile.
    pub value: f64,
    /// The percentile, as the share of samples at or below the sample
    /// with [`TAIL_BEYOND`] samples after it, in %.
    pub percentile: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// [`Tail`] of `v`: the percentile is that of the sorted sample with
/// exactly [`TAIL_BEYOND`] samples after it, and the value is
/// [`hd_quantile`] there. `None` when there are too few samples for any
/// percentile to have that many beyond it.
pub fn tail(v: &[f64]) -> Option<Tail> {
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let p = (n - TAIL_BEYOND) as f64 / n as f64;
    Some(Tail {
        value: hd_quantile(v, p)?,
        percentile: 100.0 * p,
        samples: n,
    })
}

/// Geometric mean of positive ratios (1.0 for an empty slice).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 1.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Relative error of a simulated value against a paper reference, in %.
pub fn paper_err_pct(simulated: f64, reference: f64) -> f64 {
    100.0 * (simulated - reference).abs() / reference
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn hd_quantile_tracks_p_and_does_not_jump_at_a_gap() {
        let hd_median = |v: &[f64]| hd_quantile(v, 0.5);
        assert_eq!(hd_median(&[]), None);
        assert_eq!(hd_median(&[7.0]), Some(7.0));
        let close = |a: Option<f64>, b: f64, eps: f64| (a.unwrap() - b).abs() < eps;
        // Symmetric samples: the median estimate is the centre.
        assert!(close(hd_median(&[3.0, 1.0, 2.0]), 2.0, 1e-9));
        assert!(close(
            hd_median(&(0..=10).map(f64::from).collect::<Vec<_>>()),
            5.0,
            1e-9
        ));
        assert!(close(hd_median(&[4.0; 6]), 4.0, 1e-9));
        // Evenly spaced samples 1..=n: the estimate at p is n·p + 1/2.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(close(hd_quantile(&v, 0.9), 90.5, 0.05));
        assert!(close(hd_quantile(&v, 0.25), 25.5, 0.05));
        // Many samples: no weight underflows to a NaN.
        let many: Vec<f64> = (0..5000).map(f64::from).collect();
        assert!(close(hd_quantile(&many, 0.99), 4950.0, 1.0));
        // Sixteen values with a gap in the middle: nudging the two middle
        // samples down by 10 % moves the sample median by their full
        // change, the estimate by less than half of it.
        let base: Vec<f64> = (0..8)
            .map(|i| 1.0 + 0.01 * f64::from(i))
            .chain((0..8).map(|i| 3.0 + 0.01 * f64::from(i)))
            .collect();
        let mut nudged = base.clone();
        nudged[7] *= 0.9;
        nudged[8] *= 0.9;
        let d_median = median(&base).unwrap() - median(&nudged).unwrap();
        let d_hd = hd_median(&base).unwrap() - hd_median(&nudged).unwrap();
        assert!(d_hd > 0.0 && d_hd < 0.5 * d_median, "{d_hd} vs {d_median}");
    }

    /// Samples of `v` strictly above `x`.
    fn beyond(v: &[f64], x: f64) -> usize {
        v.iter().filter(|&&y| y > x).count()
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert!((t.value - 90.5).abs() < 0.05, "{}", t.value);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(beyond(&v, t.value), TAIL_BEYOND);

        let v: Vec<f64> = (0..32).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert!((t.value - 21.5).abs() < 0.05, "{}", t.value);
        assert_eq!(beyond(&v, t.value), TAIL_BEYOND);
        assert!((t.percentile - 68.75).abs() < 1e-12);

        // A sixteen-cell figure pass: the rule lands on p37.5.
        let v: Vec<f64> = (0..16).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.percentile, 37.5);
        assert_eq!(beyond(&v, t.value), TAIL_BEYOND);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert!(t.value > 0.0 && t.value < 1.0, "{}", t.value);
        assert_eq!(beyond(&v, t.value), TAIL_BEYOND);
    }

    #[test]
    fn geomean_and_paper_error() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        // The committed Figure 9 GTO numbers: 0.857 / 0.622 normalized
        // time is a 1.378x speedup, 1.57 % from the paper's 1.4x.
        let speedup = 0.857 / 0.622;
        assert!((paper_err_pct(speedup, 1.4) - 1.5848).abs() < 1e-3);
        assert!((paper_err_pct(1.0, 1.4) - 28.5714).abs() < 1e-3);
        assert_eq!(paper_err_pct(1.7, 1.7), 0.0);
        assert!((paper_err_pct(1.8, 1.6) - paper_err_pct(1.4, 1.6)).abs() < 1e-12);
    }
}
