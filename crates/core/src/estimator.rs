//! Classical fixed-`n` similarity estimation ("LSH Approx", paper
//! Section 3).
//!
//! The standard approach compares the same, manually tuned number of hashes
//! for every candidate pair and uses the maximum-likelihood estimate
//! `ŝ = transform(m/n)`. It is the baseline whose two weaknesses motivate
//! BayesLSH: the right `n` depends on the (unknown) similarity being
//! estimated (Figure 1), and no early pruning ever happens (Section 3.2).

use bayeslsh_lsh::SignaturePool;
use bayeslsh_sparse::Dataset;

use crate::scan::run_end;

/// Verify candidates with the classical MLE over a fixed `n_hashes`.
///
/// `transform` maps the raw agreement fraction to the target similarity
/// (identity for Jaccard; `r2c` for cosine bits). Pairs whose estimate
/// clears `threshold` are returned with their estimates; the second return
/// value is the total number of hash comparisons (always
/// `candidates · n_hashes` — no pruning, by design).
pub fn mle_verify<P: SignaturePool>(
    data: &Dataset,
    pool: &mut P,
    candidates: &[(u32, u32)],
    n_hashes: u32,
    threshold: f64,
    transform: impl Fn(f64) -> f64,
) -> (Vec<(u32, u32, f64)>, u64) {
    assert!(n_hashes > 0);
    // Every candidate signature reaches exactly `n_hashes`: advise the pool
    // so first extensions allocate their whole signature once.
    pool.depth_hint(n_hashes);
    for &(a, b) in candidates {
        pool.ensure(a, data.vector(a), n_hashes);
        pool.ensure(b, data.vector(b), n_hashes);
    }
    let out = mle_scan(pool, candidates, n_hashes, threshold, transform);
    (out, candidates.len() as u64 * n_hashes as u64)
}

/// The MLE verdicts over a pool already hashed to `n_hashes` for every
/// candidate: runs of candidates sharing a probe are counted in one
/// batched word-parallel sweep over the full fixed depth.
pub(crate) fn mle_scan<P: SignaturePool>(
    pool: &P,
    candidates: &[(u32, u32)],
    n_hashes: u32,
    threshold: f64,
    transform: impl Fn(f64) -> f64,
) -> Vec<(u32, u32, f64)> {
    let mut out = Vec::new();
    let mut ids = Vec::new();
    let mut counts = Vec::new();
    let mut i = 0usize;
    while i < candidates.len() {
        let j = run_end(candidates, i);
        let a = candidates[i].0;
        ids.clear();
        ids.extend(candidates[i..j].iter().map(|&(_, b)| b));
        pool.agreements_batched(a, &ids, 0, n_hashes, &mut counts);
        for (&b, &m) in ids.iter().zip(&counts) {
            let s_hat = transform(m as f64 / n_hashes as f64);
            if s_hat >= threshold {
                out.push((a, b, s_hat));
            }
        }
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayeslsh_lsh::{r_to_cos, BitSignatures, IntSignatures, MinHasher, SrpHasher};
    use bayeslsh_sparse::{jaccard, SparseVector};

    #[test]
    fn jaccard_estimates_converge_to_truth() {
        let mut data = Dataset::new(2000);
        // J = 2/3 by construction.
        data.push(SparseVector::from_indices((0..100).collect()));
        data.push(SparseVector::from_indices((20..120).collect()));
        let mut pool = IntSignatures::new(MinHasher::new(80), data.len());
        let (out, comps) = mle_verify(&data, &mut pool, &[(0, 1)], 2048, 0.3, |f| f);
        assert_eq!(out.len(), 1);
        let truth = jaccard(data.vector(0), data.vector(1));
        assert!(
            (out[0].2 - truth).abs() < 0.05,
            "estimate {} truth {truth}",
            out[0].2
        );
        assert_eq!(comps, 2048);
    }

    #[test]
    fn threshold_filters_on_the_estimate() {
        let mut data = Dataset::new(2000);
        data.push(SparseVector::from_indices((0..100).collect()));
        data.push(SparseVector::from_indices((95..195).collect())); // J ≈ 0.026
        let mut pool = IntSignatures::new(MinHasher::new(81), data.len());
        let (out, _) = mle_verify(&data, &mut pool, &[(0, 1)], 512, 0.5, |f| f);
        assert!(out.is_empty());
    }

    #[test]
    fn cosine_transform_is_applied() {
        let mut data = Dataset::new(64);
        let v = SparseVector::from_pairs((0..64).map(|i| (i, 1.0 + (i % 7) as f32)));
        data.push(v.clone());
        data.push(v); // identical → all bits agree → estimate r2c(1) = 1.
        let mut pool = BitSignatures::new(SrpHasher::new(64, 82), data.len());
        let (out, _) = mle_verify(&data, &mut pool, &[(0, 1)], 256, 0.9, r_to_cos);
        assert_eq!(out.len(), 1);
        assert!((out[0].2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_pruning_costs_full_budget() {
        // Even hopeless pairs consume n_hashes comparisons — the exact
        // weakness BayesLSH removes.
        let mut data = Dataset::new(4000);
        for i in 0..6u32 {
            data.push(SparseVector::from_indices(
                (i * 500..i * 500 + 50).collect(),
            ));
        }
        let cands: Vec<(u32, u32)> = (0..6)
            .flat_map(|a| ((a + 1)..6).map(move |b| (a, b)))
            .collect();
        let mut pool = IntSignatures::new(MinHasher::new(83), data.len());
        let (out, comps) = mle_verify(&data, &mut pool, &cands, 360, 0.3, |f| f);
        assert!(out.is_empty());
        assert_eq!(comps, cands.len() as u64 * 360);
    }
}
