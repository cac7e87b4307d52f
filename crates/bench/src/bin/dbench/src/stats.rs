//! Order statistics for timing samples.

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between the two nearest ranks, over the sorted values (`q * (n - 1)`
/// is the fractional rank). `NaN` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_hand_computed_values() {
        let v = [7.0, 1.0, 3.0, 5.0];
        // Sorted: 1 3 5 7; ranks 0..=3.
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 7.0);
        assert_eq!(median(&v), 4.0);
        // Rank 0.25 * 3 = 0.75: 1 + 0.75 * (3 - 1).
        assert_eq!(percentile(&v, 0.25), 2.5);
        // Rank 0.95 * 3 = 2.85: 5 + 0.85 * (7 - 5).
        assert!((percentile(&v, 0.95) - 6.7).abs() < 1e-12);
        assert_eq!(median(&[2.0, 9.0, 4.0]), 4.0);
        assert_eq!(median(&[42.0]), 42.0);
        assert!(median(&[]).is_nan());
    }
}
