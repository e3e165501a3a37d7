//! Small order statistics over per-op host times.

/// Median of `v` (mean of the two middle values for even lengths);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `q`-th percentile of `v` (nearest rank); 0 for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let rank = ((q / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// The tail of `v`: the highest percentile that still has at least
/// `beyond` samples above it, as `(value, percentile, sample count)`.
///
/// With `n` samples the `k`-th smallest value (1-based) has `n - k`
/// samples beyond it, so the tail is the `(n - beyond)`-th smallest,
/// i.e. percentile `100 (n - beyond) / n`. With `beyond` or fewer
/// samples no such percentile exists and the maximum (p100) is
/// returned instead.
pub fn tail(v: &[f64], beyond: usize) -> (f64, f64, usize) {
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    if n <= beyond {
        return (s[n - 1], 100.0, n);
    }
    let k = n - beyond;
    (s[k - 1], 100.0 * k as f64 / n as f64, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, n) = tail(&v, 10);
        assert_eq!((value, pct, n), (90.0, 90.0, 100));
        // Exactly ten samples lie above the reported value.
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        let few = [5.0, 1.0, 3.0];
        assert_eq!(tail(&few, 10), (5.0, 100.0, 3));
    }
}
