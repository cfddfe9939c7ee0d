//! The sparse vector type.

use std::fmt;

/// A sparse vector: strictly increasing `u32` feature indices with `f32`
/// weights.
///
/// Invariants (enforced by every constructor):
/// * indices strictly increasing (sorted, no duplicates),
/// * no explicitly stored zero, NaN or infinite weights,
/// * `indices.len() == values.len()`.
///
/// A *binary* vector (a set) is represented with all weights equal to `1.0`;
/// [`SparseVector::binarize`] converts any vector to that form.
///
/// The L2 norm is computed once, when the vector is built, and cached
/// (see [`SparseVector::norm`]).
#[derive(Clone, PartialEq)]
pub struct SparseVector {
    indices: Vec<u32>,
    values: Vec<f32>,
    norm: f64,
}

impl fmt::Debug for SparseVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SparseVector[")?;
        for (i, (idx, val)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{idx}:{val}")?;
        }
        write!(f, "]")
    }
}

/// Euclidean norm of `values`, accumulated in `f64` in index order — the
/// one expression every cached norm is computed with.
fn l2_norm(values: &[f32]) -> f64 {
    values
        .iter()
        .map(|&v| {
            let v = v as f64;
            v * v
        })
        .sum::<f64>()
        .sqrt()
}

impl SparseVector {
    /// Assemble from parallel arrays that already satisfy the invariants,
    /// caching the norm.
    fn from_parts(indices: Vec<u32>, values: Vec<f32>) -> Self {
        let norm = l2_norm(&values);
        Self {
            indices,
            values,
            norm,
        }
    }

    /// Assemble from entries in strictly increasing index order, dropping
    /// zero and non-finite weights — the constructors whose arithmetic can
    /// cancel, underflow or overflow a weight keep the invariants this way.
    fn from_nonzero(entries: impl Iterator<Item = (u32, f32)>) -> Self {
        let (indices, values) = entries.filter(|&(_, v)| v != 0.0 && v.is_finite()).unzip();
        Self::from_parts(indices, values)
    }

    /// The empty vector.
    pub fn empty() -> Self {
        Self::from_parts(Vec::new(), Vec::new())
    }

    /// Build from arbitrary `(index, weight)` pairs: sorts by index, sums
    /// duplicate entries, and drops zero/non-finite results.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u32, f32)>) -> Self {
        let mut pairs: Vec<(u32, f32)> = pairs.into_iter().collect();
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values: Vec<f32> = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            if let (Some(&last), Some(tail)) = (indices.last(), values.last_mut()) {
                if last == i {
                    *tail += v;
                    continue;
                }
            }
            indices.push(i);
            values.push(v);
        }
        // Remove entries that cancelled to zero or were non-finite.
        Self::from_nonzero(indices.into_iter().zip(values))
    }

    /// Build from pre-sorted parallel slices. Returns `None` if the input
    /// violates any invariant (unsorted, duplicate index, zero/non-finite
    /// weight, length mismatch).
    pub fn from_sorted(indices: Vec<u32>, values: Vec<f32>) -> Option<Self> {
        if indices.len() != values.len() {
            return None;
        }
        if indices.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        if values.iter().any(|v| *v == 0.0 || !v.is_finite()) {
            return None;
        }
        Some(Self::from_parts(indices, values))
    }

    /// Build a binary vector (all weights 1.0) from a set of feature ids.
    pub fn from_indices(mut indices: Vec<u32>) -> Self {
        indices.sort_unstable();
        indices.dedup();
        let values = vec![1.0; indices.len()];
        Self::from_parts(indices, values)
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// True if the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Sorted feature indices.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Weights, parallel to [`Self::indices`].
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Iterate over `(index, weight)` entries in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Weight of feature `idx`, or 0.0 if absent.
    pub fn get(&self, idx: u32) -> f32 {
        match self.indices.binary_search(&idx) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Largest feature index plus one (the minimum dimensionality that can
    /// hold this vector), or 0 for the empty vector.
    pub fn min_dim(&self) -> u32 {
        self.indices.last().map_or(0, |&i| i + 1)
    }

    /// Euclidean (L2) norm, accumulated in `f64` in index order. It is
    /// computed once by the constructor and cached, so this is O(1) — and
    /// so is the norm side of [`crate::cosine`].
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// Largest absolute weight (0.0 for the empty vector). AllPairs' bounds
    /// are built from per-vector and per-feature max weights.
    pub fn max_weight(&self) -> f32 {
        self.values.iter().fold(0.0f32, |acc, v| acc.max(v.abs()))
    }

    /// Sum of weights (useful for normalizing binary vectors).
    pub fn weight_sum(&self) -> f64 {
        self.values.iter().map(|&v| v as f64).sum()
    }

    /// A copy scaled to unit L2 norm; the empty vector stays empty. A
    /// weight too small against the norm to survive as an `f32` underflows
    /// to zero and its entry is dropped.
    pub fn l2_normalized(&self) -> Self {
        let n = self.norm();
        if n == 0.0 {
            return self.clone();
        }
        Self::from_nonzero(self.iter().map(|(i, v)| (i, (v as f64 / n) as f32)))
    }

    /// A binary copy: same support, all weights 1.0.
    pub fn binarize(&self) -> Self {
        Self::from_parts(self.indices.clone(), vec![1.0; self.indices.len()])
    }

    /// True if every weight equals 1.0.
    pub fn is_binary(&self) -> bool {
        self.values.iter().all(|&v| v == 1.0)
    }

    /// Scale every weight by `factor` (must be finite and non-zero).
    /// Entries whose product underflows to zero or overflows to infinity
    /// are dropped.
    pub fn scaled(&self, factor: f32) -> Self {
        assert!(factor.is_finite() && factor != 0.0);
        Self::from_nonzero(self.iter().map(|(i, v)| (i, v * factor)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_pairs_sorts_and_merges() {
        let v = SparseVector::from_pairs(vec![(5, 1.0), (2, 2.0), (5, 3.0), (9, -1.0)]);
        assert_eq!(v.indices(), &[2, 5, 9]);
        assert_eq!(v.values(), &[2.0, 4.0, -1.0]);
    }

    #[test]
    fn from_pairs_drops_cancelled_entries() {
        let v = SparseVector::from_pairs(vec![(1, 2.0), (1, -2.0), (3, 1.0)]);
        assert_eq!(v.indices(), &[3]);
    }

    #[test]
    fn from_sorted_validation() {
        assert!(SparseVector::from_sorted(vec![1, 2], vec![1.0, 2.0]).is_some());
        assert!(SparseVector::from_sorted(vec![2, 1], vec![1.0, 2.0]).is_none());
        assert!(SparseVector::from_sorted(vec![1, 1], vec![1.0, 2.0]).is_none());
        assert!(SparseVector::from_sorted(vec![1], vec![0.0]).is_none());
        assert!(SparseVector::from_sorted(vec![1], vec![f32::NAN]).is_none());
        assert!(SparseVector::from_sorted(vec![1, 2], vec![1.0]).is_none());
    }

    #[test]
    fn from_indices_dedups() {
        let v = SparseVector::from_indices(vec![7, 3, 7, 1]);
        assert_eq!(v.indices(), &[1, 3, 7]);
        assert!(v.is_binary());
    }

    #[test]
    fn get_present_and_absent() {
        let v = SparseVector::from_pairs(vec![(10, 0.5), (20, 1.5)]);
        assert_eq!(v.get(10), 0.5);
        assert_eq!(v.get(20), 1.5);
        assert_eq!(v.get(15), 0.0);
    }

    #[test]
    fn norm_and_max_weight() {
        let v = SparseVector::from_pairs(vec![(0, 3.0), (1, 4.0)]);
        assert!((v.norm() - 5.0).abs() < 1e-12);
        assert_eq!(v.max_weight(), 4.0);
        assert_eq!(SparseVector::empty().norm(), 0.0);
        assert_eq!(SparseVector::empty().max_weight(), 0.0);
    }

    #[test]
    fn normalization() {
        let v = SparseVector::from_pairs(vec![(0, 3.0), (1, 4.0)]).l2_normalized();
        assert!((v.norm() - 1.0).abs() < 1e-6);
        assert!((v.get(0) - 0.6).abs() < 1e-6);
        // Empty vector survives normalization.
        assert!(SparseVector::empty().l2_normalized().is_empty());
    }

    #[test]
    fn normalizing_and_scaling_drop_weights_that_leave_f32_range() {
        let v = SparseVector::from_pairs(vec![(0, 1e30), (1, 1e-30), (2, 1.0)]);
        // 1e-30 / 1e30 underflows to zero; 1.0 / 1e30 is still an f32.
        let n = v.l2_normalized();
        assert_eq!(n.indices(), &[0, 2]);
        assert_eq!(n.values()[0], 1.0);
        // 1e-30 · 1e-20 underflows; 1e30 · 1e20 overflows.
        assert_eq!(v.scaled(1e-20).indices(), &[0, 2]);
        assert_eq!(v.scaled(1e20).indices(), &[1, 2]);
        for w in [n, v.scaled(1e-20), v.scaled(1e20)] {
            assert!(w.values().iter().all(|x| *x != 0.0 && x.is_finite()));
        }
    }

    #[test]
    fn binarize_preserves_support() {
        let v = SparseVector::from_pairs(vec![(2, 0.3), (9, 7.0)]);
        let b = v.binarize();
        assert_eq!(b.indices(), v.indices());
        assert!(b.is_binary());
        assert!(!v.is_binary());
    }

    #[test]
    fn min_dim() {
        assert_eq!(SparseVector::empty().min_dim(), 0);
        assert_eq!(SparseVector::from_indices(vec![0]).min_dim(), 1);
        assert_eq!(SparseVector::from_indices(vec![41]).min_dim(), 42);
    }

    #[test]
    fn debug_format() {
        let v = SparseVector::from_pairs(vec![(1, 2.0), (3, 4.0)]);
        assert_eq!(format!("{v:?}"), "SparseVector[1:2, 3:4]");
    }

    proptest! {
        #[test]
        fn from_pairs_always_satisfies_invariants(
            pairs in proptest::collection::vec((0u32..1000, -10.0f32..10.0), 0..100)
        ) {
            let v = SparseVector::from_pairs(pairs);
            prop_assert!(v.indices().windows(2).all(|w| w[0] < w[1]));
            prop_assert!(v.values().iter().all(|x| *x != 0.0 && x.is_finite()));
            prop_assert_eq!(v.indices().len(), v.values().len());
        }

        #[test]
        fn normalized_norm_is_one_or_zero(
            pairs in proptest::collection::vec((0u32..1000, 0.001f32..10.0), 1..50)
        ) {
            let v = SparseVector::from_pairs(pairs).l2_normalized();
            if !v.is_empty() {
                prop_assert!((v.norm() - 1.0).abs() < 1e-4);
            }
        }

        #[test]
        fn scaling_scales_norm(
            pairs in proptest::collection::vec((0u32..100, 0.1f32..5.0), 1..20),
            factor in 0.5f32..4.0,
        ) {
            let v = SparseVector::from_pairs(pairs);
            let s = v.scaled(factor);
            prop_assert!((s.norm() - v.norm() * factor as f64).abs() < 1e-3);
        }
    }
}
