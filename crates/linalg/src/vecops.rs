//! Free functions over `f32` slices used throughout the ML pipeline.

/// Dot product of two equal-length slices (the 4-way unrolled
/// [`gemm`](crate::gemm) kernel).
///
/// # Panics
///
/// Panics if lengths differ.
///
/// # Examples
///
/// ```
/// assert_eq!(phishinghook_linalg::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    crate::gemm::dot(a, b)
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(a: &[f32]) -> f32 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f32>() / a.len() as f32
    }
}

/// Population variance; `0.0` for slices shorter than 2.
pub fn variance(a: &[f32]) -> f32 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / a.len() as f32
}

/// Population standard deviation.
pub fn std_dev(a: &[f32]) -> f32 {
    variance(a).sqrt()
}

/// Index of the maximum element; `None` for an empty slice. Ties resolve to
/// the first maximum.
pub fn argmax(a: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &v) in a.iter().enumerate() {
        match best {
            Some((_, b)) if v <= b => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Indices that would sort the slice ascending (stable).
pub fn argsort(a: &[f32]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..a.len()).collect();
    idx.sort_by(|&i, &j| a[i].partial_cmp(&a[j]).unwrap_or(std::cmp::Ordering::Equal));
    idx
}

/// Numerically-stable in-place softmax.
///
/// # Examples
///
/// ```
/// let mut v = [1.0f32, 1.0, 1.0];
/// phishinghook_linalg::softmax_in_place(&mut v);
/// assert!((v[0] - 1.0 / 3.0).abs() < 1e-6);
/// ```
pub fn softmax_in_place(a: &mut [f32]) {
    if a.is_empty() {
        return;
    }
    let max = a.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in a.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in a.iter_mut() {
        *v /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn argmax_prefers_first_tie() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn argsort_sorts() {
        assert_eq!(argsort(&[3.0, 1.0, 2.0]), vec![1, 2, 0]);
    }

    #[test]
    fn stats_on_known_data() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&v), 5.0);
        assert_eq!(variance(&v), 4.0);
        assert_eq!(std_dev(&v), 2.0);
    }

    proptest! {
        #[test]
        fn softmax_sums_to_one(mut v in proptest::collection::vec(-30.0f32..30.0, 1..64)) {
            softmax_in_place(&mut v);
            let sum: f32 = v.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(v.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }

        #[test]
        fn argsort_is_permutation_and_sorted(v in proptest::collection::vec(-1e6f32..1e6, 0..128)) {
            let idx = argsort(&v);
            let mut seen = vec![false; v.len()];
            for &i in &idx { seen[i] = true; }
            prop_assert!(seen.iter().all(|&s| s));
            for w in idx.windows(2) {
                prop_assert!(v[w[0]] <= v[w[1]]);
            }
        }
    }
}
