//! Descriptive statistics over `f64` slices.

/// Arithmetic mean; `NaN` for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median (average of the two central order statistics for even n); `NaN`
/// for empty input.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Minimum; `NaN` for empty input.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().cloned().fold(f64::NAN, f64::min)
}

/// Maximum; `NaN` for empty input.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().cloned().fold(f64::NAN, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_values() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&v), 5.0);
        assert_eq!(median(&v), 4.5);
        assert_eq!(min(&v), 2.0);
        assert_eq!(max(&v), 9.0);
    }

    #[test]
    fn odd_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn empty_inputs_are_nan() {
        assert!(mean(&[]).is_nan());
        assert!(median(&[]).is_nan());
    }
}
