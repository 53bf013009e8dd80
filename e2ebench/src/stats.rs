//! Order statistics over measured samples.

/// The `q`-quantile (0..=1) of `samples` by nearest rank; 0 when empty.
pub fn quantile_u64(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `values` (mean of the middle pair for even counts);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_u64(&v, 0.5), 50);
        assert_eq!(quantile_u64(&v, 0.99), 99);
        assert_eq!(quantile_u64(&v, 1.0), 100);
        assert_eq!(quantile_u64(&[], 0.5), 0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
