//! Order statistics over timing samples.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles `(q1, q2, q3)` by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// The `p`-th percentile (nearest rank), refused unless at least
/// [`MIN_BEYOND`] samples lie above it.
pub fn tail_percentile(xs: &[f64], p: f64) -> Result<f64, String> {
    let v = sorted(xs);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    Ok(v[rank.max(1) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        let err = tail_percentile(&few, 90.0).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        let enough: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail_percentile(&enough, 90.0), Ok(89.0));
        assert!(tail_percentile(&[], 50.0).is_err());
        let p50: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail_percentile(&p50, 50.0), Ok(9.0));
    }
}
