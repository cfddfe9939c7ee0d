//! The serial batch verifiers: BayesLSH (Algorithm 1), BayesLSH-Lite
//! (Algorithm 2) and SPRT over a candidate list, plus their statistics.
//!
//! All three walk the candidates, comparing hashes `k` at a time through a
//! lazily-extended [`SignaturePool`], pruning a pair as soon as its
//! posterior probability of reaching the threshold drops below ε. Full
//! BayesLSH keeps comparing until the MAP estimate is `(δ, γ)`-concentrated
//! and emits the estimate; Lite stops after at most `h` hashes and verifies
//! survivors with an exact similarity computation; SPRT accepts or prunes
//! at Wald boundaries and verifies exactly what is undecided at its cap.
//!
//! Both Section 4.3 optimizations are applied: the pruning test is a
//! [`MinMatchTable`] lookup and concentration checks go through the
//! [`crate::ConcentrationCache`]. The scan itself is the crate's one
//! run-major verification scan (the private `scan` module); each function
//! here only picks its decision rule.

use bayeslsh_lsh::SignaturePool;
use bayeslsh_sparse::{Dataset, SparseVector};

use crate::config::{BayesLshConfig, LiteConfig, SprtConfig};
use crate::minmatch::MinMatchTable;
use crate::posterior::PosteriorModel;
use crate::scan::{scan_pairs, Bayes, Lite, Sprt, WritePool};
use crate::sprt::SprtTable;

/// Counters describing one verification run; the source of the paper's
/// Figure 4 pruning curves and the cache/hashing cost discussion.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Candidate pairs fed in.
    pub input_pairs: u64,
    /// Pairs pruned by the posterior-tail test.
    pub pruned: u64,
    /// Pairs emitted (with estimates, or exact-verified for Lite).
    pub accepted: u64,
    /// Full-BayesLSH pairs that hit `max_hashes` without reaching
    /// concentration (emitted anyway with their current estimate).
    pub forced_accepts: u64,
    /// Exact similarity computations (Lite only).
    pub exact_verifications: u64,
    /// Total per-pair hash comparisons performed.
    pub hash_comparisons: u64,
    /// Chunk size used.
    pub k: u32,
    /// `pruned_at_chunk[c]` = pairs pruned after examining `(c+1)·k` hashes.
    pub pruned_at_chunk: Vec<u64>,
    /// Concentration cache (hits, misses).
    pub cache_hits: u64,
    /// See [`EngineStats::cache_hits`].
    pub cache_misses: u64,
    /// Bucket lookups performed by the candidate-generation stage (1 per
    /// band for single-probe queries, more under step-wise multi-probe).
    /// 0 for batch joins, which enumerate buckets instead of probing them.
    pub bucket_probes: u64,
}

impl EngineStats {
    /// Fold another run's counters into this one (used by the parallel
    /// drivers to merge per-worker statistics; `input_pairs` and `k` are
    /// set by the caller, `pruned_at_chunk` adds elementwise up to the
    /// shorter length).
    pub fn absorb(&mut self, other: &EngineStats) {
        self.pruned += other.pruned;
        self.accepted += other.accepted;
        self.forced_accepts += other.forced_accepts;
        self.exact_verifications += other.exact_verifications;
        self.hash_comparisons += other.hash_comparisons;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.bucket_probes += other.bucket_probes;
        for (dst, src) in self.pruned_at_chunk.iter_mut().zip(&other.pruned_at_chunk) {
            *dst += src;
        }
    }

    /// Hash comparisons spent per accepted pair — the verification-cost
    /// metric the adaptive (SPRT) verifier optimizes. 0.0 when nothing was
    /// accepted.
    pub fn hashes_per_accepted_pair(&self) -> f64 {
        if self.accepted == 0 {
            0.0
        } else {
            self.hash_comparisons as f64 / self.accepted as f64
        }
    }

    /// The Figure 4 curve: `(hashes examined, candidates not yet pruned)`,
    /// starting from the full input set. Accepted pairs count as remaining
    /// (they survive into the output).
    pub fn survivors_curve(&self) -> Vec<(u32, u64)> {
        let mut remaining = self.input_pairs;
        let mut curve = Vec::with_capacity(self.pruned_at_chunk.len() + 1);
        curve.push((0, remaining));
        for (c, &p) in self.pruned_at_chunk.iter().enumerate() {
            remaining -= p;
            curve.push(((c as u32 + 1) * self.k, remaining));
        }
        curve
    }
}

/// The pruning table full BayesLSH scans with: `cfg.max_hashes` rounded
/// down to whole chunks (at least one).
pub(crate) fn bayes_table<M: PosteriorModel + ?Sized>(
    model: &M,
    cfg: &BayesLshConfig,
) -> MinMatchTable {
    cfg.validate();
    let max_chunks = (cfg.max_hashes / cfg.k).max(1);
    MinMatchTable::build(model, cfg.threshold, cfg.epsilon, cfg.k, max_chunks * cfg.k)
}

/// The pruning table BayesLSH-Lite scans with: `cfg.h` rounded down to
/// whole chunks (at least one).
pub(crate) fn lite_table<M: PosteriorModel + ?Sized>(model: &M, cfg: &LiteConfig) -> MinMatchTable {
    cfg.validate();
    let max_chunks = (cfg.h / cfg.k).max(1);
    MinMatchTable::build(model, cfg.threshold, cfg.epsilon, cfg.k, max_chunks * cfg.k)
}

/// BayesLSH (paper Algorithm 1): prune or estimate every candidate pair.
///
/// Returns `(pair, Ŝ)` for every unpruned pair, plus run statistics. Note
/// the output is the paper's: a pair is kept whenever its probability of
/// being a true positive stays ≥ ε, even if the final estimate lands
/// slightly below `t`.
///
/// Candidates are scanned run-major by the shared verification scan: per
/// chunk, one batched popcount sweep counts the shared probe against every
/// surviving partner, extending signatures lazily. There is no
/// `depth_hint` here, deliberately: most signatures stay shallow (pruned
/// after a chunk or two), so front-loading the cap would reserve
/// ~max_chunks× the memory actually used.
pub fn bayes_verify<P: SignaturePool, M: PosteriorModel + ?Sized>(
    data: &Dataset,
    pool: &mut P,
    model: &M,
    candidates: &[(u32, u32)],
    cfg: &BayesLshConfig,
) -> (Vec<(u32, u32, f64)>, EngineStats) {
    let table = bayes_table(model, cfg);
    let mut rule = Bayes::new(&table, model, cfg.delta, cfg.gamma);
    scan_pairs(data, &mut WritePool(pool), candidates, &mut rule)
}

/// BayesLSH-Lite (paper Algorithm 2): prune with at most `h` hashes, verify
/// survivors exactly with `exact` and keep pairs with `s ≥ t`.
pub fn bayes_verify_lite<P, M, F>(
    data: &Dataset,
    pool: &mut P,
    model: &M,
    candidates: &[(u32, u32)],
    cfg: &LiteConfig,
    exact: F,
) -> (Vec<(u32, u32, f64)>, EngineStats)
where
    P: SignaturePool,
    M: PosteriorModel + ?Sized,
    F: Fn(&SparseVector, &SparseVector) -> f64,
{
    let table = lite_table(model, cfg);
    let mut rule = Lite::new(&table, exact, cfg.threshold);
    scan_pairs(data, &mut WritePool(pool), candidates, &mut rule)
}

/// SPRT verification: a Wald sequential test over each pair's agreement
/// stream, with per-chunk early-accept *and* early-prune boundaries (see
/// [`SprtTable`]) and a bounded exact fallback for pairs still undecided at
/// `cfg.max_hashes` — so output quality is never worse than BayesLSH-Lite
/// while obviously-similar and obviously-junk pairs terminate after a
/// handful of chunks.
///
/// `collision` maps a similarity to the hash family's per-hash agreement
/// probability (`cos_to_r` for SRP bits, identity for minhashes),
/// `estimate` maps an agreement fraction back to the similarity space
/// (`r_to_cos` / identity), and `exact` computes the true similarity for
/// the fallback. Scanning is run-major and batched exactly like
/// [`bayes_verify`].
pub fn sprt_verify<P, F>(
    data: &Dataset,
    pool: &mut P,
    candidates: &[(u32, u32)],
    cfg: &SprtConfig,
    collision: impl Fn(f64) -> f64,
    estimate: impl Fn(f64) -> f64,
    exact: F,
) -> (Vec<(u32, u32, f64)>, EngineStats)
where
    P: SignaturePool,
    F: Fn(&SparseVector, &SparseVector) -> f64,
{
    let table = SprtTable::build(cfg, collision);
    let mut rule = Sprt::new(&table, cfg.max_hashes, estimate, exact, cfg.threshold);
    scan_pairs(data, &mut WritePool(pool), candidates, &mut rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosine_model::CosineModel;
    use crate::jaccard_model::JaccardModel;
    use bayeslsh_lsh::{BitSignatures, IntSignatures, MinHasher, SrpHasher};
    use bayeslsh_numeric::Xoshiro256;
    use bayeslsh_sparse::{cosine, jaccard};

    /// Clustered corpus with plenty of similar and dissimilar pairs.
    fn corpus(seed: u64) -> Dataset {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut d = Dataset::new(4000);
        for c in 0..12 {
            let center: Vec<(u32, f32)> = (0..40)
                .map(|_| {
                    (
                        (c * 300 + rng.next_below(280) as usize) as u32,
                        (rng.next_f64() + 0.2) as f32,
                    )
                })
                .collect();
            for _ in 0..6 {
                let mut pairs = center.clone();
                for p in pairs.iter_mut() {
                    if rng.next_bool(0.15) {
                        *p = (rng.next_below(4000) as u32, (rng.next_f64() + 0.2) as f32);
                    }
                }
                d.push(bayeslsh_sparse::SparseVector::from_pairs(pairs));
            }
        }
        d
    }

    fn all_pairs(n: u32) -> Vec<(u32, u32)> {
        let mut v = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                v.push((a, b));
            }
        }
        v
    }

    fn truth(
        data: &Dataset,
        t: f64,
        f: impl Fn(&bayeslsh_sparse::SparseVector, &bayeslsh_sparse::SparseVector) -> f64,
    ) -> Vec<(u32, u32, f64)> {
        let mut out = Vec::new();
        for a in 0..data.len() as u32 {
            for b in (a + 1)..data.len() as u32 {
                let s = f(data.vector(a), data.vector(b));
                if s >= t {
                    out.push((a, b, s));
                }
            }
        }
        out
    }

    #[test]
    fn cosine_bayes_meets_recall_and_accuracy_contract() {
        let data = corpus(61);
        let t = 0.7;
        let cfg = BayesLshConfig::cosine(t);
        let cands = all_pairs(data.len() as u32);
        let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 62), data.len());
        let (out, stats) = bayes_verify(&data, &mut pool, &CosineModel::new(), &cands, &cfg);

        // Bookkeeping adds up.
        assert_eq!(stats.input_pairs, cands.len() as u64);
        assert_eq!(stats.pruned + stats.accepted, stats.input_pairs);

        let gt = truth(&data, t, cosine);
        assert!(gt.len() >= 30, "ground truth too small: {}", gt.len());

        // Recall: the paper reports ≥ ~96–99% at ε = 0.03.
        let out_keys: std::collections::HashSet<(u32, u32)> =
            out.iter().map(|&(a, b, _)| (a, b)).collect();
        let found = gt
            .iter()
            .filter(|&&(a, b, _)| out_keys.contains(&(a, b)))
            .count();
        let recall = found as f64 / gt.len() as f64;
        assert!(recall >= 0.9, "recall {recall} ({found}/{})", gt.len());

        // Estimate accuracy: most emitted estimates within δ of the truth.
        let mut big_errors = 0usize;
        for &(a, b, s_hat) in &out {
            let s = cosine(data.vector(a), data.vector(b));
            if (s - s_hat).abs() >= cfg.delta {
                big_errors += 1;
            }
        }
        let frac = big_errors as f64 / out.len().max(1) as f64;
        assert!(frac <= 0.12, "fraction of >delta errors: {frac}");

        // The engine must actually prune: most of the quadratic candidate
        // space is junk.
        assert!(stats.pruned as f64 / stats.input_pairs as f64 > 0.8);
    }

    #[test]
    fn jaccard_bayes_meets_recall_contract() {
        let data = corpus(63).binarized();
        let t = 0.5;
        let cfg = BayesLshConfig::jaccard(t);
        let cands = all_pairs(data.len() as u32);
        let mut pool = IntSignatures::new(MinHasher::new(64), data.len());
        let (out, stats) = bayes_verify(&data, &mut pool, &JaccardModel::uniform(), &cands, &cfg);
        assert_eq!(stats.pruned + stats.accepted, stats.input_pairs);

        let gt = truth(&data, t, jaccard);
        assert!(gt.len() >= 30);
        let out_keys: std::collections::HashSet<(u32, u32)> =
            out.iter().map(|&(a, b, _)| (a, b)).collect();
        let found = gt
            .iter()
            .filter(|&&(a, b, _)| out_keys.contains(&(a, b)))
            .count();
        let recall = found as f64 / gt.len() as f64;
        assert!(recall >= 0.9, "recall {recall}");
    }

    #[test]
    fn lite_output_is_subset_of_truth() {
        let data = corpus(65);
        let t = 0.7;
        let cfg = LiteConfig::cosine(t);
        let cands = all_pairs(data.len() as u32);
        let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 66), data.len());
        let (out, stats) =
            bayes_verify_lite(&data, &mut pool, &CosineModel::new(), &cands, &cfg, cosine);

        // Exact verification ⇒ no false positives at all.
        for &(a, b, s) in &out {
            assert!(s >= t, "({a},{b}) emitted below threshold: {s}");
            assert_eq!(
                s.to_bits(),
                cosine(data.vector(a), data.vector(b)).to_bits()
            );
        }
        // And high recall.
        let gt = truth(&data, t, cosine);
        let out_keys: std::collections::HashSet<(u32, u32)> =
            out.iter().map(|&(a, b, _)| (a, b)).collect();
        let found = gt
            .iter()
            .filter(|&&(a, b, _)| out_keys.contains(&(a, b)))
            .count();
        assert!(found as f64 / gt.len() as f64 >= 0.9);
        // Lite must examine at most h hashes per pair.
        assert!(stats.hash_comparisons <= cands.len() as u64 * cfg.h as u64);
        // Exact verifications only for unpruned pairs.
        assert_eq!(stats.exact_verifications, stats.input_pairs - stats.pruned);
    }

    #[test]
    fn sprt_meets_recall_with_fewer_hashes_than_bayes() {
        use bayeslsh_lsh::{cos_to_r, r_to_cos};
        let data = corpus(75);
        let t = 0.7;
        let cands = all_pairs(data.len() as u32);
        let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 76), data.len());
        let cfg = SprtConfig::cosine(t);
        let (out, stats) = sprt_verify(&data, &mut pool, &cands, &cfg, cos_to_r, r_to_cos, cosine);

        // Bookkeeping: every pair is pruned, accepted early, or settled by
        // the exact fallback (which may reject without counting anywhere).
        assert_eq!(stats.input_pairs, cands.len() as u64);
        assert!(stats.pruned + stats.accepted <= stats.input_pairs);
        assert!(stats.exact_verifications < stats.input_pairs / 10);

        let gt = truth(&data, t, cosine);
        assert!(gt.len() >= 30);
        let out_keys: std::collections::HashSet<(u32, u32)> =
            out.iter().map(|&(a, b, _)| (a, b)).collect();
        let found = gt
            .iter()
            .filter(|&&(a, b, _)| out_keys.contains(&(a, b)))
            .count();
        let recall = found as f64 / gt.len() as f64;
        assert!(recall >= 0.9, "recall {recall}");

        // The adaptive stopping rule must beat the concentration schedule
        // on hash comparisons over the same candidates.
        let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 76), data.len());
        let bayes_cfg = BayesLshConfig::cosine(t);
        let (_, bayes_stats) =
            bayes_verify(&data, &mut pool, &CosineModel::new(), &cands, &bayes_cfg);
        assert!(
            stats.hash_comparisons < bayes_stats.hash_comparisons,
            "SPRT {} vs Bayes {} hash comparisons",
            stats.hash_comparisons,
            bayes_stats.hash_comparisons
        );
        assert!(stats.hashes_per_accepted_pair() > 0.0);
    }

    #[test]
    fn sprt_jaccard_recall_and_empty_input() {
        let data = corpus(77).binarized();
        let t = 0.5;
        let cfg = SprtConfig::jaccard(t);
        let cands = all_pairs(data.len() as u32);
        let mut pool = IntSignatures::new(MinHasher::new(78), data.len());
        let (out, stats) = sprt_verify(&data, &mut pool, &cands, &cfg, |s| s, |f| f, jaccard);
        let gt = truth(&data, t, jaccard);
        assert!(gt.len() >= 30);
        let out_keys: std::collections::HashSet<(u32, u32)> =
            out.iter().map(|&(a, b, _)| (a, b)).collect();
        let found = gt
            .iter()
            .filter(|&&(a, b, _)| out_keys.contains(&(a, b)))
            .count();
        assert!(found as f64 / gt.len() as f64 >= 0.9);
        assert!(stats.pruned as f64 / stats.input_pairs as f64 > 0.8);

        let mut pool = IntSignatures::new(MinHasher::new(78), data.len());
        let (out, stats) = sprt_verify(&data, &mut pool, &[], &cfg, |s| s, |f| f, jaccard);
        assert!(out.is_empty());
        assert_eq!(stats.input_pairs, 0);
        assert_eq!(stats.hashes_per_accepted_pair(), 0.0);
    }

    #[test]
    fn survivors_curve_is_monotone_and_complete() {
        let data = corpus(67);
        let cfg = BayesLshConfig::cosine(0.7);
        let cands = all_pairs(data.len() as u32);
        let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 68), data.len());
        let (_, stats) = bayes_verify(&data, &mut pool, &CosineModel::new(), &cands, &cfg);
        let curve = stats.survivors_curve();
        assert_eq!(curve[0], (0, cands.len() as u64));
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1, "survivors must not increase: {curve:?}");
            assert_eq!(w[1].0, w[0].0 + cfg.k);
        }
        let last = curve.last().unwrap().1;
        assert_eq!(last, stats.input_pairs - stats.pruned);
    }

    #[test]
    fn deeper_pruning_budget_never_hurts_lite_recall_much() {
        // h = 32 prunes more aggressively than h = 128 on uncertain pairs?
        // No: a larger h can only prune MORE pairs (more chances to dip
        // below eps), but every pruned pair had Pr < eps at some depth, so
        // recall stays within the contract for both.
        let data = corpus(69);
        let t = 0.7;
        let cands = all_pairs(data.len() as u32);
        let gt = truth(&data, t, cosine);
        for h in [32u32, 128] {
            let cfg = LiteConfig {
                threshold: t,
                epsilon: 0.03,
                k: 32,
                h,
            };
            let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 70), data.len());
            let (out, _) =
                bayes_verify_lite(&data, &mut pool, &CosineModel::new(), &cands, &cfg, cosine);
            let out_keys: std::collections::HashSet<(u32, u32)> =
                out.iter().map(|&(a, b, _)| (a, b)).collect();
            let found = gt
                .iter()
                .filter(|&&(a, b, _)| out_keys.contains(&(a, b)))
                .count();
            assert!(
                found as f64 / gt.len() as f64 >= 0.9,
                "h={h}: recall {}",
                found as f64 / gt.len() as f64
            );
        }
    }

    #[test]
    fn stricter_epsilon_keeps_more_pairs() {
        let data = corpus(71);
        let cands = all_pairs(data.len() as u32);
        let mut kept = Vec::new();
        for eps in [0.2, 0.01] {
            let cfg = BayesLshConfig {
                epsilon: eps,
                ..BayesLshConfig::cosine(0.7)
            };
            let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 72), data.len());
            let (out, _) = bayes_verify(&data, &mut pool, &CosineModel::new(), &cands, &cfg);
            kept.push(out.len());
        }
        // Lower eps = harder to prune = at least as many survivors.
        assert!(
            kept[1] >= kept[0],
            "eps=0.01 kept {} < eps=0.2 kept {}",
            kept[1],
            kept[0]
        );
    }

    #[test]
    fn empty_candidate_list() {
        let data = corpus(73);
        let cfg = BayesLshConfig::cosine(0.7);
        let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 74), data.len());
        let (out, stats) = bayes_verify(&data, &mut pool, &CosineModel::new(), &[], &cfg);
        assert!(out.is_empty());
        assert_eq!(stats.input_pairs, 0);
        assert_eq!(stats.hash_comparisons, 0);
    }
}
