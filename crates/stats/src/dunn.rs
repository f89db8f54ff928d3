//! Dunn's test: non-parametric pairwise multiple comparisons after a
//! rejected Kruskal–Wallis test (Fig. 4 of the paper).
//!
//! For groups *i*, *j* the statistic is
//! `Z = (R̄ᵢ − R̄ⱼ) / sqrt(σ² (1/nᵢ + 1/nⱼ))` with the tie-corrected variance
//! `σ² = N(N+1)/12 − Σ(t³−t)/(12(N−1))`; two-sided p-values are taken from
//! the standard normal and Holm-adjusted.

use crate::holm::holm_adjust;
use crate::kruskal::KruskalWallisError;
use crate::ranks::{average_ranks, tie_correction_sum};
use crate::special::normal_sf;

/// One pairwise comparison from Dunn's test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DunnPair {
    /// Index of the first group.
    pub group_a: usize,
    /// Index of the second group.
    pub group_b: usize,
    /// The Z statistic (sign follows `R̄ₐ − R̄ᵦ`).
    pub z: f64,
    /// Raw two-sided p-value.
    pub p_raw: f64,
    /// Holm–Bonferroni adjusted p-value.
    pub p_adjusted: f64,
}

impl DunnPair {
    /// `true` when the adjusted p-value is below `alpha`.
    pub fn is_significant(&self, alpha: f64) -> bool {
        self.p_adjusted < alpha
    }
}

/// Full result of Dunn's procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct DunnTest {
    /// Mean rank of each group in the pooled ranking.
    pub mean_ranks: Vec<f64>,
    /// Every unordered pair `(i, j)`, `i < j`, in lexicographic order.
    pub pairs: Vec<DunnPair>,
}

impl DunnTest {
    /// Looks up the comparison between groups `a` and `b` (order-insensitive).
    pub fn pair(&self, a: usize, b: usize) -> Option<&DunnPair> {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.pairs
            .iter()
            .find(|p| p.group_a == lo && p.group_b == hi)
    }
}

/// Runs Dunn's test over `k >= 2` groups.
///
/// # Errors
///
/// Shares [`KruskalWallisError`]'s preconditions: at least two non-empty
/// groups with at least two distinct values overall.
///
/// # Examples
///
/// ```
/// use phishinghook_stats::dunn::dunn_test;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let low = vec![1.0, 2.0, 3.0, 4.0, 5.0];
/// let high = vec![101.0, 102.0, 103.0, 104.0, 105.0];
/// let result = dunn_test(&[low.clone(), low, high])?;
/// // The two identical groups do not differ; both differ from `high`.
/// assert!(!result.pair(0, 1).unwrap().is_significant(0.05));
/// # Ok(())
/// # }
/// ```
pub fn dunn_test(groups: &[Vec<f64>]) -> Result<DunnTest, KruskalWallisError> {
    let k = groups.len();
    if k < 2 {
        return Err(KruskalWallisError::TooFewGroups { groups: k });
    }
    for (index, g) in groups.iter().enumerate() {
        if g.is_empty() {
            return Err(KruskalWallisError::EmptyGroup { index });
        }
    }

    let pooled: Vec<f64> = groups.iter().flatten().copied().collect();
    let n = pooled.len() as f64;
    let ranks = average_ranks(&pooled);
    let tie_sum = tie_correction_sum(&pooled);
    let variance = n * (n + 1.0) / 12.0 - tie_sum / (12.0 * (n - 1.0));
    if variance <= 0.0 {
        return Err(KruskalWallisError::AllIdentical);
    }

    let mut mean_ranks = Vec::with_capacity(k);
    let mut offset = 0;
    for g in groups {
        let sum: f64 = ranks[offset..offset + g.len()].iter().sum();
        mean_ranks.push(sum / g.len() as f64);
        offset += g.len();
    }

    let mut zs = Vec::new();
    let mut raw = Vec::new();
    for i in 0..k {
        for j in i + 1..k {
            let ni = groups[i].len() as f64;
            let nj = groups[j].len() as f64;
            let se = (variance * (1.0 / ni + 1.0 / nj)).sqrt();
            let z = (mean_ranks[i] - mean_ranks[j]) / se;
            zs.push((i, j, z));
            raw.push(2.0 * normal_sf(z.abs()));
        }
    }
    let adjusted = holm_adjust(&raw);
    let pairs = zs
        .into_iter()
        .zip(raw.iter().zip(&adjusted))
        .map(|((group_a, group_b, z), (&p_raw, &p_adjusted))| DunnPair {
            group_a,
            group_b,
            z,
            p_raw,
            p_adjusted,
        })
        .collect();

    Ok(DunnTest { mean_ranks, pairs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_count_is_k_choose_2() {
        let groups: Vec<Vec<f64>> = (0..5)
            .map(|g| (0..10).map(|i| (g * 10 + i) as f64).collect())
            .collect();
        let r = dunn_test(&groups).unwrap();
        assert_eq!(r.pairs.len(), 10);
    }

    #[test]
    fn separated_groups_significant_identical_not() {
        let a: Vec<f64> = (0..20).map(|i| i as f64 * 0.1).collect();
        let b = a.clone();
        let c: Vec<f64> = (0..20).map(|i| 50.0 + i as f64 * 0.1).collect();
        let r = dunn_test(&[a, b, c]).unwrap();
        assert!(!r.pair(0, 1).unwrap().is_significant(0.05));
        assert!(r.pair(0, 2).unwrap().is_significant(0.05));
        assert!(r.pair(1, 2).unwrap().is_significant(0.05));
    }

    #[test]
    fn z_antisymmetric_in_group_order() {
        let a: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0];
        let b: Vec<f64> = vec![10.0, 11.0, 12.0, 13.0];
        let r1 = dunn_test(&[a.clone(), b.clone()]).unwrap();
        let r2 = dunn_test(&[b, a]).unwrap();
        let z1 = r1.pair(0, 1).unwrap().z;
        let z2 = r2.pair(0, 1).unwrap().z;
        assert!((z1 + z2).abs() < 1e-12);
    }

    #[test]
    fn known_z_value_without_ties() {
        // Two groups of 3 with complete separation: mean ranks 2 and 5,
        // variance = N(N+1)/12 = 3.5, se = sqrt(3.5 * (2/3)), z = -3/se.
        let r = dunn_test(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let z = r.pair(0, 1).unwrap().z;
        let want = -3.0 / (3.5f64 * (2.0 / 3.0)).sqrt();
        assert!((z - want).abs() < 1e-12, "z = {z}, want {want}");
    }

    #[test]
    fn mean_ranks_reported() {
        let r = dunn_test(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(r.mean_ranks, vec![1.5, 3.5]);
    }
}
