//! Parallel verification drivers: the candidate-pair fan-out the paper's
//! embarrassing parallelism invites.
//!
//! The Bayes, Lite and SPRT verifiers here run the same run-major scan and
//! decision rules as their serial engines, but partition the candidate list
//! into contiguous chunks ([`bayeslsh_numeric::fan_out`]) and merge the
//! per-chunk outputs in chunk order. Because candidate lists are
//! deterministic and every pair's verdict is a pure function of the
//! (read-only) signature pool, the merged output is **bit-identical to the
//! serial engines** whatever the thread count. The one observable
//! difference is bookkeeping the paper treats as advisory: each worker
//! keeps its own [`crate::ConcentrationCache`], so cache hit/miss counts
//! depend on the partition (decisions do not — the cache memoizes a pure
//! function).
//!
//! Unlike the lazily-extending serial engines, these drivers take the pool
//! by shared reference and **require every candidate signature to be
//! extended to the scan depth already** (use
//! [`crate::compose::SigPool::par_ensure_ids`] or the pool-specific
//! `par_ensure_ids`). Under the `Searcher`'s default eager hashing that
//! pre-extension is a no-op; under lazy hashing it trades some up-front
//! hashing for wall-clock parallelism. The pre-extension itself runs
//! through the feature-major / element-major hash kernels with one scratch
//! buffer per worker, so the whole parallel verification path — hashing
//! included — performs no per-pair heap allocation in steady state.

use bayeslsh_lsh::{Measure, SignaturePool};
use bayeslsh_numeric::fan_out;
use bayeslsh_sparse::{Dataset, SparseVector};

use crate::config::{BayesLshConfig, LiteConfig, SprtConfig};
use crate::engine::{bayes_table, lite_table, EngineStats};
use crate::estimator::mle_scan;
use crate::exact::{with_scratch, ExactProbe};
use crate::posterior::PosteriorModel;
use crate::scan::{par_scan_pairs, run_end, Bayes, Lite, Sprt};
use crate::sprt::SprtTable;

/// The distinct object ids appearing in `candidates`, in first-encounter
/// order — the id set a parallel verification must pre-hash. `n_objects`
/// bounds the id space (ids must be `< n_objects`).
pub fn candidate_ids(candidates: &[(u32, u32)], n_objects: usize) -> Vec<u32> {
    let mut seen = vec![false; n_objects];
    let mut ids = Vec::new();
    for &(a, b) in candidates {
        if !seen[a as usize] {
            seen[a as usize] = true;
            ids.push(a);
        }
        if !seen[b as usize] {
            seen[b as usize] = true;
            ids.push(b);
        }
    }
    ids
}

/// Parallel exact verification: every candidate pair gets a true
/// similarity computation, and pairs at or above `threshold` come back in
/// candidate order. Candidate chunks fan out; each worker walks its chunk
/// one same-anchor run at a time, scattering the anchor once per run
/// ([`bayeslsh_sparse::DenseProbe`]) and gathering each partner, so every
/// similarity is bit-equal to [`Measure::eval`] on the pair and the output
/// is the same at any thread count.
pub fn par_exact_verify(
    data: &Dataset,
    measure: Measure,
    threshold: f64,
    candidates: &[(u32, u32)],
    threads: usize,
) -> Vec<(u32, u32, f64)> {
    fan_out(candidates.len(), threads, |_, range| {
        let chunk = &candidates[range];
        let mut out = Vec::new();
        with_scratch(|scratch| {
            let mut i = 0;
            while i < chunk.len() {
                let j = run_end(chunk, i);
                let a = chunk[i].0;
                let mut exact = ExactProbe::new(measure, data.vector(a), scratch);
                for &(_, b) in &chunk[i..j] {
                    let s = exact.eval(data.vector(b));
                    if s >= threshold {
                        out.push((a, b, s));
                    }
                }
                i = j;
            }
        });
        out
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Parallel fixed-`n` MLE verification (the "LSH Approx" baseline).
/// Signatures must already cover `n_hashes`; output and comparison count
/// are identical to [`crate::estimator::mle_verify`].
pub fn par_mle_verify<P>(
    pool: &P,
    candidates: &[(u32, u32)],
    n_hashes: u32,
    threshold: f64,
    transform: impl Fn(f64) -> f64 + Sync,
    threads: usize,
) -> (Vec<(u32, u32, f64)>, u64)
where
    P: SignaturePool + Sync,
{
    assert!(n_hashes > 0);
    let pairs = fan_out(candidates.len(), threads, |_, range| {
        mle_scan(pool, &candidates[range], n_hashes, threshold, &transform)
    });
    let pairs = pairs.into_iter().flatten().collect();
    (pairs, candidates.len() as u64 * n_hashes as u64)
}

/// Parallel BayesLSH (Algorithm 1). Signatures must already cover the scan
/// depth `(cfg.max_hashes / cfg.k).max(1) * cfg.k`; pairs, estimates and
/// every counter except the per-worker cache hit/miss split are identical
/// to [`crate::engine::bayes_verify`].
pub fn par_bayes_verify<P, M>(
    pool: &P,
    model: &M,
    candidates: &[(u32, u32)],
    cfg: &BayesLshConfig,
    threads: usize,
) -> (Vec<(u32, u32, f64)>, EngineStats)
where
    P: SignaturePool + Sync,
    M: PosteriorModel + Sync + ?Sized,
{
    let table = bayes_table(model, cfg);
    // BayesLSH reads no vectors: the pool is pre-hashed, and every pair is
    // settled from its hashes (no exact check), so the corpus stays empty.
    par_scan_pairs(&Dataset::new(0), pool, candidates, threads, || {
        Bayes::new(&table, model, cfg.delta, cfg.gamma)
    })
}

/// Parallel BayesLSH-Lite (Algorithm 2). Signatures must already cover the
/// scan depth `(cfg.h / cfg.k).max(1) * cfg.k`; output and counters are
/// identical to [`crate::engine::bayes_verify_lite`].
pub fn par_bayes_verify_lite<P, M, F>(
    data: &Dataset,
    pool: &P,
    model: &M,
    candidates: &[(u32, u32)],
    cfg: &LiteConfig,
    exact: F,
    threads: usize,
) -> (Vec<(u32, u32, f64)>, EngineStats)
where
    P: SignaturePool + Sync,
    M: PosteriorModel + Sync + ?Sized,
    F: Fn(&SparseVector, &SparseVector) -> f64 + Sync,
{
    let table = lite_table(model, cfg);
    par_scan_pairs(data, pool, candidates, threads, || {
        Lite::new(&table, &exact, cfg.threshold)
    })
}

/// Parallel SPRT verification. Signatures must already cover the scan
/// depth `(cfg.max_hashes / cfg.k).max(1) * cfg.k`; output and counters
/// are identical to [`crate::engine::sprt_verify`] (every verdict is a
/// pure function of the cumulative `(m, n)` at a chunk boundary, so the
/// partition cannot move a decision).
#[allow(clippy::too_many_arguments)]
pub fn par_sprt_verify<P, F>(
    data: &Dataset,
    pool: &P,
    candidates: &[(u32, u32)],
    cfg: &SprtConfig,
    collision: impl Fn(f64) -> f64,
    estimate: impl Fn(f64) -> f64 + Sync,
    exact: F,
    threads: usize,
) -> (Vec<(u32, u32, f64)>, EngineStats)
where
    P: SignaturePool + Sync,
    F: Fn(&SparseVector, &SparseVector) -> f64 + Sync,
{
    let table = SprtTable::build(cfg, collision);
    par_scan_pairs(data, pool, candidates, threads, || {
        Sprt::new(&table, cfg.max_hashes, &estimate, &exact, cfg.threshold)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::SigPool;
    use crate::cosine_model::CosineModel;
    use crate::engine::{bayes_verify, bayes_verify_lite, sprt_verify};
    use crate::estimator::mle_verify;
    use crate::family_model::FamilyModel;
    use crate::jaccard_model::JaccardModel;
    use crate::pipeline::PipelineConfig;
    use bayeslsh_lsh::{
        cos_to_r, e2lsh_collision, e2lsh_similarity_at, r_to_cos, BitSignatures, SrpHasher,
    };
    use bayeslsh_numeric::{chunk_ranges, Xoshiro256};

    fn corpus(seed: u64) -> Dataset {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut d = Dataset::new(2000);
        for c in 0..8 {
            let center: Vec<(u32, f32)> = (0..30)
                .map(|_| {
                    (
                        (c * 200 + rng.next_below(180) as usize) as u32,
                        (rng.next_f64() + 0.3) as f32,
                    )
                })
                .collect();
            for _ in 0..5 {
                let mut pairs = center.clone();
                for p in pairs.iter_mut() {
                    if rng.next_bool(0.2) {
                        *p = (rng.next_below(2000) as u32, (rng.next_f64() + 0.3) as f32);
                    }
                }
                d.push(SparseVector::from_pairs(pairs));
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

    /// Candidates in long same-anchor runs of uneven length — anchors
    /// descending, partners on both sides of the anchor — so that
    /// `fan_out`'s chunk boundaries at 2, 4 and 8 threads fall inside runs.
    fn straddling_runs(n: u32) -> Vec<(u32, u32)> {
        let mut v = Vec::new();
        for a in (0..n).rev() {
            v.extend(
                (0..n)
                    .filter(|&b| b != a && b % (a % 3 + 2) != 0)
                    .map(|b| (a, b)),
            );
        }
        for threads in [2usize, 4, 8] {
            assert!(
                chunk_ranges(v.len(), threads)
                    .iter()
                    .skip(1)
                    .any(|r| v[r.start - 1].0 == v[r.start].0),
                "a run must straddle a chunk boundary at {threads} threads"
            );
        }
        v
    }

    /// `par_exact_verify` at threads 1, 2, 4 and 8 must equal a per-pair
    /// [`Measure::eval`] filter, bit for bit and in candidate order, on the
    /// canonical all-pairs list and on runs straddling chunk boundaries.
    fn check_exact(data: &Dataset, measure: Measure, t: f64) {
        let n = data.len() as u32;
        let bits = |pairs: &[(u32, u32, f64)]| -> Vec<(u32, u32, u64)> {
            pairs.iter().map(|&(a, b, s)| (a, b, s.to_bits())).collect()
        };
        for cands in [all_pairs(n), straddling_runs(n)] {
            let want: Vec<(u32, u32, f64)> = cands
                .iter()
                .filter_map(|&(a, b)| {
                    let s = measure.eval(data.vector(a), data.vector(b));
                    (s >= t).then_some((a, b, s))
                })
                .collect();
            assert!(
                !want.is_empty() && want.len() < cands.len(),
                "{measure}: the corpus must exercise both verdicts"
            );
            for threads in [1usize, 2, 4, 8] {
                let got = par_exact_verify(data, measure, t, &cands, threads);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{measure} exact, threads {threads}"
                );
            }
        }
    }

    /// `data` with the feature ids of every other vector hashed across
    /// `u32` (an injective map below `u32::MAX`), as shingle hashing
    /// leaves them: anchors alternate between ids a dense scratch can hold
    /// and ids past any scatter span.
    fn hashed_ids(data: &Dataset) -> Dataset {
        let spread = |i: u32| (i as u64 * 2_654_435_761 % u32::MAX as u64) as u32;
        let mut d = Dataset::new(0);
        for (id, v) in data.iter() {
            d.push(if id % 2 == 0 {
                SparseVector::from_pairs(v.iter().map(|(i, w)| (spread(i), w)))
            } else {
                v.clone()
            });
        }
        d
    }

    #[test]
    fn exact_verify_handles_feature_ids_near_u32_max() {
        let data = hashed_ids(&corpus(403));
        assert!(data.dim() > 4_000_000_000);
        check_exact(&data, Measure::Cosine, 0.5);
        check_exact(&data.binarized(), Measure::Jaccard, 0.4);
    }

    #[test]
    fn candidate_ids_first_encounter_order() {
        let ids = candidate_ids(&[(3, 1), (1, 2), (0, 3)], 5);
        assert_eq!(ids, vec![3, 1, 2, 0]);
    }

    /// Every [`EngineStats`] field except the per-worker concentration-cache
    /// hit/miss split, which depends on the partition by design.
    fn assert_same_counters(got: &EngineStats, want: &EngineStats, what: &str) {
        assert_eq!(got.input_pairs, want.input_pairs, "{what}: input_pairs");
        assert_eq!(got.pruned, want.pruned, "{what}: pruned");
        assert_eq!(got.accepted, want.accepted, "{what}: accepted");
        assert_eq!(got.forced_accepts, want.forced_accepts, "{what}: forced");
        assert_eq!(
            got.exact_verifications, want.exact_verifications,
            "{what}: exact_verifications"
        );
        assert_eq!(
            got.hash_comparisons, want.hash_comparisons,
            "{what}: hash_comparisons"
        );
        assert_eq!(got.k, want.k, "{what}: k");
        assert_eq!(
            got.pruned_at_chunk, want.pruned_at_chunk,
            "{what}: pruned_at_chunk"
        );
        assert_eq!(
            got.bucket_probes, want.bucket_probes,
            "{what}: bucket_probes"
        );
    }

    /// Bayes, Lite and SPRT under `cfg`'s hash family: the parallel verifiers
    /// over a pre-hashed pool must reproduce the lazily-extending serial
    /// engines' pairs and counters at threads 1, 2, 4 and 8; exact
    /// verification must reproduce the per-pair measure.
    fn check_family<M: PosteriorModel + Sync>(
        data: &Dataset,
        cfg: &PipelineConfig,
        model: &M,
        collision: impl Fn(f64) -> f64 + Copy,
        estimate: impl Fn(f64) -> f64 + Copy + Sync,
    ) {
        let cands = all_pairs(data.len() as u32);
        let measure = cfg.family.measure();
        let exact = |a: &SparseVector, b: &SparseVector| measure.eval(a, b);
        let (bayes, lite, sprt) = (cfg.bayes(), cfg.lite(), cfg.sprt());
        let pool = || SigPool::for_config(cfg, data);

        let serial_bayes = bayes_verify(data, &mut pool(), model, &cands, &bayes);
        let serial_lite = bayes_verify_lite(data, &mut pool(), model, &cands, &lite, exact);
        let serial_sprt = sprt_verify(data, &mut pool(), &cands, &sprt, collision, estimate, exact);
        for (name, (pairs, stats)) in [
            ("bayes", &serial_bayes),
            ("lite", &serial_lite),
            ("sprt", &serial_sprt),
        ] {
            assert!(
                !pairs.is_empty() && stats.pruned > 0,
                "{measure} {name}: the corpus must exercise both verdicts"
            );
        }

        check_exact(data, measure, cfg.threshold);

        let ids = candidate_ids(&cands, data.len());
        for threads in [1usize, 2, 4, 8] {
            let mut hashed = pool();
            hashed.par_ensure_ids(data, &ids, cfg.max_hashes, threads);
            let what = format!("{measure} bayes, threads {threads}");
            let (pairs, stats) = par_bayes_verify(&hashed, model, &cands, &bayes, threads);
            assert_eq!(pairs, serial_bayes.0, "{what}");
            assert_same_counters(&stats, &serial_bayes.1, &what);

            let what = format!("{measure} lite, threads {threads}");
            let (pairs, stats) =
                par_bayes_verify_lite(data, &hashed, model, &cands, &lite, exact, threads);
            assert_eq!(pairs, serial_lite.0, "{what}");
            assert_same_counters(&stats, &serial_lite.1, &what);

            let what = format!("{measure} sprt, threads {threads}");
            let (pairs, stats) = par_sprt_verify(
                data, &hashed, &cands, &sprt, collision, estimate, exact, threads,
            );
            assert_eq!(pairs, serial_sprt.0, "{what}");
            assert_same_counters(&stats, &serial_sprt.1, &what);
        }
    }

    #[test]
    fn parallel_drivers_match_serial_engines() {
        let data = corpus(401);
        check_family(
            &data,
            &PipelineConfig::cosine(0.7),
            &CosineModel::new(),
            cos_to_r,
            r_to_cos,
        );
        check_family(
            &data.binarized(),
            &PipelineConfig::jaccard(0.5),
            &JaccardModel::uniform(),
            |s| s,
            |f| f,
        );
        let l2 = PipelineConfig::l2(0.25, 4.0);
        check_family(
            &data,
            &l2,
            &FamilyModel::new(l2.family),
            |s| e2lsh_collision(s, 4.0),
            |f| e2lsh_similarity_at(f, 4.0),
        );

        // MLE verification (cosine).
        let cands = all_pairs(data.len() as u32);
        let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 402), data.len());
        let (serial_mle, serial_comps) = mle_verify(&data, &mut pool, &cands, 256, 0.7, r_to_cos);
        let ids = candidate_ids(&cands, data.len());
        for threads in [1usize, 2, 4, 8] {
            let mut mle_pool = BitSignatures::new(SrpHasher::new(data.dim(), 402), data.len());
            mle_pool.par_ensure_ids(&data, &ids, 256, threads);
            let (pairs, comps) = par_mle_verify(&mle_pool, &cands, 256, 0.7, r_to_cos, threads);
            assert_eq!(pairs, serial_mle, "mle pairs, threads {threads}");
            assert_eq!(comps, serial_comps);
        }
    }
}
