//! Exact similarity measures between sparse vectors.
//!
//! These are the ground-truth computations: BayesLSH-Lite calls them for
//! unpruned candidates, and the evaluation harness uses them to measure the
//! recall and estimation error of every approximate method.
//!
//! The pairwise functions ([`dot`], [`cosine`], ...) merge-join two sorted
//! supports. [`DenseProbe`] computes the same values for one vector against
//! many partners: it scatters the probe into a dense `f64` buffer once, then
//! gathers each partner over its own indices in O(partner nnz).
//!
//! # Why the gather is bit-identical to the merge join
//!
//! The merge join adds `x_i · y_i` (each weight widened to `f64`) for every
//! shared index `i`, in ascending index order, starting from `+0.0`. The
//! gather walks the partner's indices in ascending order and adds
//! `dense[i] · y_i`. At a shared index that is the same product, in the
//! same order (`f64` multiplication is commutative). At every other index
//! `dense[i]` is `+0.0`, so the term is `±0.0`, and adding `±0.0` leaves
//! the running sum unchanged: a sum that is non-zero is returned as is,
//! and the sum is never `-0.0` (it starts at `+0.0`, every shared product
//! of two non-zero finite weights is non-zero, and in round-to-nearest
//! `a + (−a)` is `+0.0`), while `+0.0 + (−0.0)` is `+0.0`. Dot products are
//! therefore equal bit for bit, and so are cosines (the norms are the
//! vectors' cached norms), overlaps and Jaccard similarities.
//!
//! The dense buffer spans the probe's largest index, so a probe whose
//! largest index is [`MAX_SCATTER_SPAN`] or more — hashed feature ids can
//! sit anywhere in `u32` — is not scattered: the probe keeps its sparse
//! entries and each partner is merge-joined against them, which is the
//! pairwise computation itself.
//!
//! [`l2_distance`] has no gather form: its sum runs over the *union* of
//! the supports in index order, which a gather over one side cannot
//! reproduce, so it stays a merge join.

use crate::vector::SparseVector;

/// Dot product, accumulated in `f64` via a sorted merge join.
pub fn dot(x: &SparseVector, y: &SparseVector) -> f64 {
    merge_dot(x.indices(), x.values(), y.indices(), y.values())
}

/// [`dot`] over raw sorted supports and their weights.
fn merge_dot(xi: &[u32], xv: &[f32], yi: &[u32], yv: &[f32]) -> f64 {
    let mut acc = 0.0f64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < xi.len() && j < yi.len() {
        match xi[i].cmp(&yi[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc += xv[i] as f64 * yv[j] as f64;
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

/// Number of shared feature indices (set overlap).
pub fn overlap(x: &SparseVector, y: &SparseVector) -> usize {
    merge_overlap(x.indices(), y.indices())
}

/// [`overlap`] over raw sorted supports.
fn merge_overlap(xi: &[u32], yi: &[u32]) -> usize {
    let mut count = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < xi.len() && j < yi.len() {
        match xi[i].cmp(&yi[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Cosine similarity `dot(x, y) / (‖x‖·‖y‖)`; 0.0 when either vector is
/// empty. For binary vectors this reduces to `|x ∩ y| / sqrt(|x|·|y|)`.
/// The norms are the vectors' cached ones, so the cost is the dot product.
pub fn cosine(x: &SparseVector, y: &SparseVector) -> f64 {
    let nx = x.norm();
    let ny = y.norm();
    if nx == 0.0 || ny == 0.0 {
        return 0.0;
    }
    // Floating error can push identical unit vectors epsilon above 1.
    (dot(x, y) / (nx * ny)).clamp(-1.0, 1.0)
}

/// Jaccard similarity of the *supports*: `|x ∩ y| / |x ∪ y|`; 1.0 when both
/// are empty. Weights are ignored — the paper evaluates Jaccard only on
/// binary vectors.
pub fn jaccard(x: &SparseVector, y: &SparseVector) -> f64 {
    if x.is_empty() && y.is_empty() {
        return 1.0;
    }
    let inter = overlap(x, y);
    let union = x.nnz() + y.nnz() - inter;
    inter as f64 / union as f64
}

/// Euclidean (L2) distance `‖x − y‖₂`, accumulated in `f64` via a sorted
/// merge join over the union of supports.
pub fn l2_distance(x: &SparseVector, y: &SparseVector) -> f64 {
    let (xi, xv) = (x.indices(), x.values());
    let (yi, yv) = (y.indices(), y.values());
    let mut acc = 0.0f64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < xi.len() && j < yi.len() {
        match xi[i].cmp(&yi[j]) {
            std::cmp::Ordering::Less => {
                acc += (xv[i] as f64) * (xv[i] as f64);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                acc += (yv[j] as f64) * (yv[j] as f64);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let d = xv[i] as f64 - yv[j] as f64;
                acc += d * d;
                i += 1;
                j += 1;
            }
        }
    }
    for &v in &xv[i..] {
        acc += (v as f64) * (v as f64);
    }
    for &v in &yv[j..] {
        acc += (v as f64) * (v as f64);
    }
    acc.sqrt()
}

/// L2 similarity `1 / (1 + ‖x − y‖₂)` — a monotone map of Euclidean
/// distance into `(0, 1]`, so L2 search speaks the same threshold
/// language as cosine and Jaccard (s = 1 ⇔ d = 0).
pub fn l2_similarity(x: &SparseVector, y: &SparseVector) -> f64 {
    1.0 / (1.0 + l2_distance(x, y))
}

/// Largest dense buffer, in slots, that a [`DenseProbe`] grows to: 2^22
/// slots, 32 MiB of `f64`. Every corpus of the paper fits at full scale
/// (the widest, Orkut, has 3.07 M features). A probe with an index at or
/// beyond it is merge-joined instead of scattered.
pub const MAX_SCATTER_SPAN: usize = 1 << 22;

/// A probe vector scattered into a dense `f64` buffer, reusable across
/// probes: [`DenseProbe::load`] a vector once, then ask for its
/// [`dot`](DenseProbe::dot), [`cosine`](DenseProbe::cosine),
/// [`overlap`](DenseProbe::overlap) or [`jaccard`](DenseProbe::jaccard)
/// against any number of partners, each in O(partner nnz) with no merge
/// branches. Every value is bit-identical to the pairwise function with the
/// probe as its first argument (see the module docs).
///
/// Loading resets only the slots the previous probe set, and the buffer
/// grows on demand to the probe's largest index, up to
/// [`MAX_SCATTER_SPAN`] slots; a partner index beyond the buffer counts as
/// a zero weight. A probe reaching past that bound is kept sparse and
/// merge-joined against each partner, so memory stays bounded for any
/// input. Before the first load the probe is the empty vector.
#[derive(Debug, Clone, Default)]
pub struct DenseProbe {
    /// The scattered probe's weight (as `f64`) at each of its indices,
    /// `+0.0` elsewhere; all `+0.0` while an unscattered probe is loaded.
    dense: Vec<f64>,
    /// The loaded probe's indices: when scattered, the only non-zero slots
    /// of `dense`.
    support: Vec<u32>,
    /// The loaded probe's weights when it is not scattered; empty when it
    /// is.
    weights: Vec<f32>,
    /// Whether the loaded probe is scattered into `dense`.
    scattered: bool,
    /// The loaded probe's (cached) norm.
    norm: f64,
}

impl DenseProbe {
    /// An empty scratch; the buffer is allocated by the first load.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scatter `probe` into the buffer, replacing the previous probe; a
    /// probe with an index at or beyond [`MAX_SCATTER_SPAN`] is kept sparse
    /// instead.
    pub fn load(&mut self, probe: &SparseVector) {
        if self.scattered {
            for &i in &self.support {
                self.dense[i as usize] = 0.0;
            }
        }
        // Record the new support before scattering, so the buffer never
        // holds a slot `support` does not name.
        self.support.clear();
        self.support.extend_from_slice(probe.indices());
        self.weights.clear();
        self.norm = probe.norm();
        let span = probe.indices().last().map_or(0, |&i| i as usize + 1);
        self.scattered = span <= MAX_SCATTER_SPAN;
        if !self.scattered {
            self.weights.extend_from_slice(probe.values());
            return;
        }
        if self.dense.len() < span {
            self.dense.resize(span, 0.0);
        }
        for (i, v) in probe.iter() {
            self.dense[i as usize] = v as f64;
        }
    }

    /// Number of non-zero entries of the loaded probe.
    pub fn nnz(&self) -> usize {
        self.support.len()
    }

    /// The probe's weight at `i` (0.0 off its support).
    #[inline]
    fn weight(&self, i: u32) -> f64 {
        self.dense.get(i as usize).copied().unwrap_or(0.0)
    }

    /// [`dot`]`(probe, y)`, bit for bit.
    pub fn dot(&self, y: &SparseVector) -> f64 {
        if !self.scattered {
            return merge_dot(&self.support, &self.weights, y.indices(), y.values());
        }
        let mut acc = 0.0f64;
        for (&i, &v) in y.indices().iter().zip(y.values()) {
            acc += self.weight(i) * v as f64;
        }
        acc
    }

    /// [`overlap`]`(probe, y)`: the probe's weights are non-zero (a
    /// [`SparseVector`] stores none), so a non-zero slot marks a shared
    /// index.
    pub fn overlap(&self, y: &SparseVector) -> usize {
        if !self.scattered {
            return merge_overlap(&self.support, y.indices());
        }
        y.indices()
            .iter()
            .filter(|&&i| self.weight(i) != 0.0)
            .count()
    }

    /// [`cosine`]`(probe, y)`, bit for bit.
    pub fn cosine(&self, y: &SparseVector) -> f64 {
        let ny = y.norm();
        if self.norm == 0.0 || ny == 0.0 {
            return 0.0;
        }
        (self.dot(y) / (self.norm * ny)).clamp(-1.0, 1.0)
    }

    /// [`jaccard`]`(probe, y)`, bit for bit.
    pub fn jaccard(&self, y: &SparseVector) -> f64 {
        if self.support.is_empty() && y.is_empty() {
            return 1.0;
        }
        let inter = self.overlap(y);
        let union = self.nnz() + y.nnz() - inter;
        inter as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayeslsh_numeric::wire::{WireReader, WireWriter};
    use proptest::prelude::*;

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn dot_hand_computed() {
        let x = v(&[(0, 1.0), (2, 2.0), (5, 3.0)]);
        let y = v(&[(2, 4.0), (5, 0.5), (9, 7.0)]);
        assert!((dot(&x, &y) - (2.0 * 4.0 + 3.0 * 0.5)).abs() < 1e-9);
    }

    #[test]
    fn dot_disjoint_is_zero() {
        let x = v(&[(0, 1.0), (2, 2.0)]);
        let y = v(&[(1, 4.0), (3, 0.5)]);
        assert_eq!(dot(&x, &y), 0.0);
    }

    #[test]
    fn dot_with_empty_is_zero() {
        let x = v(&[(0, 1.0)]);
        assert_eq!(dot(&x, &SparseVector::empty()), 0.0);
        assert_eq!(dot(&SparseVector::empty(), &x), 0.0);
    }

    #[test]
    fn cosine_identical_vectors_is_one() {
        let x = v(&[(1, 0.3), (4, 0.8), (9, 0.1)]);
        assert!((cosine(&x, &x) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_scale_invariant() {
        let x = v(&[(1, 0.3), (4, 0.8)]);
        let y = v(&[(1, 0.5), (4, 0.1), (7, 0.9)]);
        let y2 = y.scaled(3.7);
        assert!((cosine(&x, &y) - cosine(&x, &y2)).abs() < 1e-6);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        assert_eq!(cosine(&v(&[(0, 1.0)]), &v(&[(1, 1.0)])), 0.0);
    }

    #[test]
    fn cosine_binary_formula() {
        // |x ∩ y| / sqrt(|x||y|) for binary vectors.
        let x = SparseVector::from_indices(vec![1, 2, 3, 4]);
        let y = SparseVector::from_indices(vec![3, 4, 5]);
        let expected = 2.0 / (4.0f64 * 3.0).sqrt();
        assert!((cosine(&x, &y) - expected).abs() < 1e-9);
    }

    #[test]
    fn jaccard_hand_computed() {
        let x = SparseVector::from_indices(vec![1, 2, 3, 4]);
        let y = SparseVector::from_indices(vec![3, 4, 5, 6]);
        assert!((jaccard(&x, &y) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn jaccard_edge_cases() {
        let x = SparseVector::from_indices(vec![1, 2]);
        assert_eq!(jaccard(&x, &x), 1.0);
        assert_eq!(jaccard(&x, &SparseVector::empty()), 0.0);
        assert_eq!(jaccard(&SparseVector::empty(), &SparseVector::empty()), 1.0);
    }

    #[test]
    fn overlap_counts_shared_support() {
        let x = v(&[(1, 0.1), (2, 0.2), (3, 0.3)]);
        let y = v(&[(2, 9.0), (3, 9.0), (4, 9.0)]);
        assert_eq!(overlap(&x, &y), 2);
    }

    #[test]
    fn l2_hand_computed() {
        let x = v(&[(0, 1.0), (2, 2.0)]);
        let y = v(&[(2, 4.0), (5, 2.0)]);
        // Diffs: 1 at 0, -2 at 2, -2 at 5 → sqrt(1 + 4 + 4) = 3.
        assert!((l2_distance(&x, &y) - 3.0).abs() < 1e-9);
        assert!((l2_similarity(&x, &y) - 0.25).abs() < 1e-9);
        assert_eq!(l2_distance(&x, &x), 0.0);
        assert_eq!(l2_similarity(&x, &x), 1.0);
        assert!((l2_distance(&x, &SparseVector::empty()) - x.norm()).abs() < 1e-6);
    }

    /// Every value a loaded probe reports against `y` bit-equals the
    /// pairwise function with the probe first.
    fn assert_probe_matches(p: &DenseProbe, x: &SparseVector, y: &SparseVector) {
        assert_eq!(p.dot(y).to_bits(), dot(x, y).to_bits(), "dot {x:?} · {y:?}");
        assert_eq!(
            p.cosine(y).to_bits(),
            cosine(x, y).to_bits(),
            "cosine {x:?}, {y:?}"
        );
        assert_eq!(p.overlap(y), overlap(x, y), "overlap {x:?}, {y:?}");
        assert_eq!(
            p.jaccard(y).to_bits(),
            jaccard(x, y).to_bits(),
            "jaccard {x:?}, {y:?}"
        );
    }

    /// Load `probes` one after another on one scratch and check each
    /// against every partner: a slot left over from an earlier probe would
    /// show as a wrong value.
    fn check_successive_loads(probes: &[&SparseVector], partners: &[&SparseVector]) {
        let mut p = DenseProbe::new();
        for x in probes {
            p.load(x);
            assert_eq!(p.nnz(), x.nnz());
            for y in partners.iter().chain(probes) {
                assert_probe_matches(&p, x, y);
            }
            assert_probe_matches(&p, x, &SparseVector::empty());
        }
    }

    #[test]
    fn dense_probe_edge_cases() {
        let empty = SparseVector::empty();
        let x = v(&[(0, 1.5), (7, -2.0), (300, 0.25)]);
        let disjoint = v(&[(1, 4.0), (8, -1.0), (299, 3.0)]);
        // Partner indices far beyond the probe's span and the buffer.
        let beyond = v(&[(7, 1.0), (5_000, 2.0), (70_000, -3.0)]);
        // A fresh scratch is the empty probe.
        let fresh = DenseProbe::new();
        for y in [&empty, &x, &beyond] {
            assert_probe_matches(&fresh, &empty, y);
        }
        check_successive_loads(&[&empty, &x, &disjoint], &[&beyond]);
        check_successive_loads(&[&x, &beyond, &empty, &x], &[&disjoint]);
        let mut p = DenseProbe::new();
        p.load(&x);
        assert_eq!(p.dot(&disjoint), 0.0);
        assert_eq!(p.overlap(&disjoint), 0);
        // Only index 7 is shared with `beyond`.
        assert_eq!(p.dot(&beyond), -2.0);
        assert_eq!(p.overlap(&beyond), 1);

        // A weight that underflowed in normalization is dropped, not kept
        // as a stored zero the gather would miss in `overlap`.
        let tiny = v(&[(0, 1e30), (1, 1e-30), (7, 1.0)]).l2_normalized();
        assert_eq!(tiny.indices(), &[0, 7]);
        check_successive_loads(&[&tiny, &x], &[&v(&[(0, 1.0), (1, 1.0), (7, 1.0)])]);
    }

    #[test]
    fn dense_probe_keeps_wide_probes_sparse() {
        // Hashed feature ids reach the top of `u32`: such a probe must not
        // size the buffer by its largest id.
        let wide = v(&[(3, 1.0), (3_000_000_000, -2.0), (u32::MAX, 0.5)]);
        let edge = v(&[(5, 2.0), (MAX_SCATTER_SPAN as u32, 1.0)]);
        let last_slot = v(&[(5, 1.0), (MAX_SCATTER_SPAN as u32 - 1, 3.0)]);
        let x = v(&[(3, 1.5), (5, -1.0), (3_000_000_000, 4.0)]);
        let partners = [
            &wide,
            &edge,
            &last_slot,
            &x,
            &SparseVector::from_indices(vec![u32::MAX]),
        ];
        // Switch between sparse and scattered probes on one scratch, so a
        // stale slot or a reset past the buffer would show.
        check_successive_loads(
            &[&wide, &x, &last_slot, &edge, &wide, &last_slot],
            &partners,
        );
        let mut p = DenseProbe::new();
        for probe in [&wide, &x, &edge, &last_slot] {
            p.load(probe);
            assert!(p.dense.len() <= MAX_SCATTER_SPAN);
        }
        assert_eq!(p.dense.len(), MAX_SCATTER_SPAN);
        p.load(&wide);
        assert_eq!(p.dot(&x), 1.5 - 8.0);
        assert_eq!(p.overlap(&x), 2);
        assert!(p.dense.iter().all(|&w| w == 0.0));
    }

    fn arb_vec() -> impl Strategy<Value = SparseVector> {
        proptest::collection::vec((0u32..200, 0.01f32..10.0), 0..40)
            .prop_map(SparseVector::from_pairs)
    }

    /// Signed weights over a narrow index range.
    fn arb_short() -> impl Strategy<Value = SparseVector> {
        proptest::collection::vec((0u32..40, -10.0f32..10.0), 0..20)
            .prop_map(SparseVector::from_pairs)
    }

    /// Signed weights over a wider range, overlapping the short one.
    fn arb_long() -> impl Strategy<Value = SparseVector> {
        proptest::collection::vec((0u32..2_000, -10.0f32..10.0), 0..80)
            .prop_map(SparseVector::from_pairs)
    }

    /// Signed weights on indices no short or long vector uses.
    fn arb_high() -> impl Strategy<Value = SparseVector> {
        proptest::collection::vec((2_000u32..50_000, -10.0f32..10.0), 0..40)
            .prop_map(SparseVector::from_pairs)
    }

    /// Signed weights on hashed-style ids: a few near the top of `u32`,
    /// past the scatter span, and the rest overlapping the short range.
    fn arb_wide() -> impl Strategy<Value = SparseVector> {
        let top = (u32::MAX - 50..=u32::MAX, -10.0f32..10.0);
        (
            proptest::collection::vec(top, 1..6),
            proptest::collection::vec((0u32..40, -10.0f32..10.0), 0..20),
        )
            .prop_map(|(a, b)| SparseVector::from_pairs(a.into_iter().chain(b)))
    }

    /// The expression every constructor must cache the norm with.
    fn recomputed_norm(v: &SparseVector) -> f64 {
        v.values()
            .iter()
            .map(|&w| {
                let w = w as f64;
                w * w
            })
            .sum::<f64>()
            .sqrt()
    }

    fn assert_norm_cached(v: &SparseVector, what: &str) {
        assert_eq!(
            v.norm().to_bits(),
            recomputed_norm(v).to_bits(),
            "{what}: {v:?}"
        );
    }

    proptest! {
        #[test]
        fn dense_probe_is_bit_identical_to_pairwise(
            short in arb_short(),
            long in arb_long(),
            high in arb_high(),
            shared in arb_long(),
            wide in arb_wide(),
        ) {
            // Partners share support with the probes (`shared` merged in),
            // are disjoint from them (`high`), or reach beyond the buffer a
            // short probe leaves (`long`, `high`, `wide`); `wide` probes
            // are kept sparse.
            let mixed = SparseVector::from_pairs(long.iter().chain(shared.iter()));
            let partners = [&short, &long, &high, &shared, &mixed, &wide];
            check_successive_loads(&[&short, &long, &mixed], &partners);
            check_successive_loads(&[&high, &short, &shared], &partners);
            check_successive_loads(&[&wide, &short, &wide, &long], &partners);
            let (bs, bl, bw) = (short.binarize(), mixed.binarize(), wide.binarize());
            check_successive_loads(&[&bs, &bl, &high.binarize(), &bw], &[&bs, &bl, &long, &bw]);
        }

        #[test]
        fn norm_is_cached_by_every_constructor(
            pairs in proptest::collection::vec((0u32..500, -10.0f32..10.0), 0..60),
            ids in proptest::collection::vec(0u32..500, 0..60),
            factor in -4.0f32..4.0,
        ) {
            let v = SparseVector::from_pairs(pairs);
            assert_norm_cached(&v, "from_pairs");
            let sorted =
                SparseVector::from_sorted(v.indices().to_vec(), v.values().to_vec()).unwrap();
            assert_norm_cached(&sorted, "from_sorted");
            assert_norm_cached(&SparseVector::from_indices(ids), "from_indices");
            assert_norm_cached(&v.l2_normalized(), "l2_normalized");
            assert_norm_cached(&v.binarize(), "binarize");
            if factor != 0.0 {
                assert_norm_cached(&v.scaled(factor), "scaled");
            }
            assert_norm_cached(&SparseVector::empty(), "empty");
            // Weights that underflow or overflow `f32` are dropped, and the
            // norm is cached over the entries that remain.
            let extreme = SparseVector::from_pairs(v.iter().chain([(600, 1e30), (601, 1e-30)]));
            assert_norm_cached(&extreme.l2_normalized(), "l2_normalized, underflow");
            assert_norm_cached(&extreme.scaled(1e-20), "scaled, underflow");
            assert_norm_cached(&extreme.scaled(1e20), "scaled, overflow");
            for w in [extreme.l2_normalized(), extreme.scaled(1e-20), extreme.scaled(1e20)] {
                prop_assert!(w.values().iter().all(|x| *x != 0.0 && x.is_finite()));
            }

            let mut d = crate::Dataset::new(0);
            d.push(v.clone());
            d.push(v.l2_normalized());
            let mut w = WireWriter::new(Vec::new());
            d.write_wire(&mut w).unwrap();
            let bytes = w.into_inner();
            let back = crate::Dataset::read_wire(&mut WireReader::new(&bytes[..])).unwrap();
            for (orig, read) in d.vectors().iter().zip(back.vectors()) {
                assert_norm_cached(read, "wire round trip");
                prop_assert_eq!(read.norm().to_bits(), orig.norm().to_bits());
            }
        }

        #[test]
        fn dot_is_symmetric(x in arb_vec(), y in arb_vec()) {
            prop_assert!((dot(&x, &y) - dot(&y, &x)).abs() < 1e-9);
        }

        #[test]
        fn cosine_bounds_nonneg_weights(x in arb_vec(), y in arb_vec()) {
            let c = cosine(&x, &y);
            prop_assert!((0.0..=1.0).contains(&c), "cosine {c}");
        }

        #[test]
        fn jaccard_bounds(x in arb_vec(), y in arb_vec()) {
            let j = jaccard(&x, &y);
            prop_assert!((0.0..=1.0).contains(&j), "jaccard {j}");
        }

        #[test]
        fn jaccard_le_cosine_on_binary(x in arb_vec(), y in arb_vec()) {
            // For non-empty binary vectors J(x,y) <= cos(x,y):
            // |∩|/|∪| <= |∩|/sqrt(|x||y|) because |∪| >= max(|x|,|y|)
            // >= sqrt(|x||y|). (Both-empty is the convention-dependent
            // exception: J = 1 but cos = 0.)
            let (bx, by) = (x.binarize(), y.binarize());
            prop_assume!(!bx.is_empty() && !by.is_empty());
            prop_assert!(jaccard(&bx, &by) <= cosine(&bx, &by) + 1e-9);
        }

        #[test]
        fn cauchy_schwarz(x in arb_vec(), y in arb_vec()) {
            prop_assert!(dot(&x, &y).abs() <= x.norm() * y.norm() + 1e-6);
        }

        #[test]
        fn l2_is_a_metric_sample(x in arb_vec(), y in arb_vec()) {
            let d = l2_distance(&x, &y);
            prop_assert!(d >= 0.0);
            prop_assert!((d - l2_distance(&y, &x)).abs() < 1e-9);
            let s = l2_similarity(&x, &y);
            prop_assert!(s > 0.0 && s <= 1.0);
        }
    }
}
