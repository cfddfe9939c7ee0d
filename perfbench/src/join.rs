//! Batch joins: `Searcher::all_pairs` per composition, and the traced
//! decomposition of the same joins into layer calls.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use bayeslsh_candgen::{all_pairs_cosine_candidates, BandingIndex};
use bayeslsh_core::{
    par_bayes_verify, par_bayes_verify_lite, par_exact_verify, par_sprt_verify, CompositionOutput,
    CosineModel, EngineStats, GeneratorKind, Measure, PipelineConfig, Searcher, SigPool,
    VerifierKind,
};
use bayeslsh_lsh::{cos_to_r, r_to_cos, SignaturePool};
use bayeslsh_sparse::{cosine, Dataset};

use crate::check::{self, Checks};
use crate::ops::Ops;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{JOINS, THRESHOLD};

/// Check one composition's output: canonical order, recall floor, and for
/// exact-similarity verifiers, bit-exact similarities above the threshold.
fn check_output(
    checks: &mut Checks,
    idx: usize,
    out: &CompositionOutput,
    data: &Dataset,
    oracle: &HashSet<(u32, u32)>,
) -> f64 {
    let (name, comp, floor) = JOINS[idx];
    checks.require_ok(check::canonical_pairs(&out.pairs).map_err(|e| format!("{name}: {e}")));
    if matches!(comp.verifier, VerifierKind::Exact | VerifierKind::BayesLite) {
        checks.require_ok(
            check::exact_similarities(&out.pairs, data, THRESHOLD)
                .map_err(|e| format!("{name}: {e}")),
        );
    }
    let recall = check::pair_recall(&out.pairs, oracle);
    checks.require(recall >= floor, || {
        format!("{name}: recall {recall:.4} below floor {floor}")
    });
    recall
}

/// Untraced batch joins, repeated round-robin over the compositions.
pub struct JoinPhase {
    /// `all_pairs` seconds per composition, in [`JOINS`] order.
    secs: Vec<Vec<f64>>,
    /// The first output per composition, which every repetition must match.
    first: Vec<Option<CompositionOutput>>,
    /// Recall against the oracle per composition.
    pub recall: Vec<f64>,
}

impl JoinPhase {
    pub fn new() -> Self {
        Self {
            secs: vec![Vec::new(); JOINS.len()],
            first: vec![None; JOINS.len()],
            recall: vec![0.0; JOINS.len()],
        }
    }

    /// Run every composition's `all_pairs` in turn, each repeatedly until
    /// it has run for `slice` (at least once), so that a short join gives
    /// as many samples as its time allows. Check the first output of each,
    /// and that every later one returns it bit for bit.
    pub fn rep(
        &mut self,
        ops: &mut Ops,
        checks: &mut Checks,
        searchers: &[Searcher],
        oracle: &HashSet<(u32, u32)>,
        slice: Duration,
    ) {
        for (i, s) in searchers.iter().enumerate() {
            let turn = Instant::now();
            loop {
                let t0 = Instant::now();
                let Some(out) = ops.attempt(JOINS[i].0, || s.all_pairs()) else {
                    break;
                };
                self.secs[i].push(t0.elapsed().as_secs_f64());
                match &self.first[i] {
                    None => {
                        self.recall[i] = check_output(checks, i, &out, s.data(), oracle);
                        self.first[i] = Some(out);
                    }
                    Some(f) => checks.require(check::same_pairs(&f.pairs, &out.pairs), || {
                        format!("{}: repeated join differs from the first", JOINS[i].0)
                    }),
                }
                if turn.elapsed() >= slice {
                    break;
                }
            }
        }
    }

    /// Discard every time taken so far (after a warm-up pass).
    pub fn discard_times(&mut self) {
        self.secs.iter_mut().for_each(Vec::clear);
    }

    /// Fewest `all_pairs` samples of any composition.
    pub fn min_samples(&self) -> usize {
        self.secs.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Median `all_pairs` seconds per composition, in [`JOINS`] order.
    pub fn median_s(&self) -> Vec<f64> {
        self.secs
            .iter()
            .map(|s| median(s).unwrap_or(f64::NAN))
            .collect()
    }
}

/// Per-layer counts of the traced join decomposition.
#[derive(Debug, Default)]
pub struct JoinLayers {
    /// Hash components computed for the corpus.
    pub components: u64,
    /// LSH banding candidates.
    pub lsh_candidates: u64,
    /// AllPairs candidates.
    pub ap_candidates: u64,
    /// Oracle pairs among the LSH candidates, per candidate.
    pub lsh_precision: f64,
    /// BayesLSH verification counters over the LSH candidates.
    pub bayes: EngineStats,
    /// Exact-similarity fallbacks of the SPRT verifier.
    pub sprt_exact: u64,
    /// Traced minus untraced seconds, summed over compositions.
    pub overhead_s: f64,
}

/// Decompose every composition's join into calls to the layers' public
/// functions, each in a span: hash the corpus (`lsh`), build the banding
/// index and enumerate its pairs (`candgen`), run each verifier over the
/// recorded candidates (`verify`, `sparse`), and generate AllPairs
/// candidates (`candgen`). Every decomposed join must reproduce
/// `Searcher::all_pairs` bit for bit.
pub fn traced(
    ops: &mut Ops,
    checks: &mut Checks,
    tracer: &mut Tracer,
    searchers: &[Searcher],
    oracle: &HashSet<(u32, u32)>,
) -> JoinLayers {
    let reference = &searchers[0];
    let data = reference.data();
    let cfg: PipelineConfig = *reference.config();
    let threads = reference.threads();
    let params = reference.banding_plan().params;
    let depth = JOINS
        .iter()
        .map(|(_, comp, _)| comp.verifier.signature_depth(&cfg))
        .max()
        .unwrap_or(0)
        .max(params.total_hashes());
    let ids: Vec<u32> = data
        .iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(id, _)| id)
        .collect();
    let t = cfg.threshold;
    let mut layers = JoinLayers::default();

    // One pool hashed to the deepest verifier's depth serves every
    // composition: signature bits depend only on (object, position).
    let pool = tracer.span("lsh.hash", 0, |_| {
        let mut pool = SigPool::for_config(&cfg, data);
        pool.depth_hint(depth);
        pool.par_ensure_ids(data, &ids, depth, threads);
        pool
    });
    layers.components = pool.total_hashes();
    let index = tracer.span("candgen.index_build", 0, |_| {
        BandingIndex::par_build(params, &ids, threads, |id, band| {
            pool.band_key(id, band, params)
        })
    });
    let lsh = tracer.span("candgen.lsh_pairs", 0, |_| index.par_all_pairs(threads));
    layers.lsh_candidates = lsh.len() as u64;
    let hits = lsh.iter().filter(|p| oracle.contains(p)).count();
    layers.lsh_precision = hits as f64 / lsh.len().max(1) as f64;
    // Spans shared by several compositions carry the first one's request.
    let ap_request = JOINS
        .iter()
        .position(|(_, comp, _)| comp.generator == GeneratorKind::AllPairs)
        .unwrap_or(0) as u64;
    let ap = tracer.span("candgen.ap_pairs", ap_request, |_| {
        all_pairs_cosine_candidates(data, t)
    });
    layers.ap_candidates = ap.len() as u64;

    let model = CosineModel::new();
    for (i, (name, comp, _)) in JOINS.iter().enumerate() {
        let request = i as u64;
        let ap_join = comp.generator == GeneratorKind::AllPairs;
        let mut pairs = match comp.verifier {
            _ if ap_join => {
                let (pairs, _) = tracer.span("verify.ap_bayes", request, |_| {
                    par_bayes_verify(&pool, &model, &ap, &cfg.bayes(), threads)
                });
                pairs
            }
            VerifierKind::Bayes => {
                let (pairs, stats) = tracer.span("verify.bayes", request, |_| {
                    par_bayes_verify(&pool, &model, &lsh, &cfg.bayes(), threads)
                });
                layers.bayes = stats;
                pairs
            }
            VerifierKind::BayesLite => {
                let (pairs, _) = tracer.span("verify.lite", request, |_| {
                    par_bayes_verify_lite(data, &pool, &model, &lsh, &cfg.lite(), cosine, threads)
                });
                pairs
            }
            VerifierKind::Sprt => {
                let (pairs, stats) = tracer.span("verify.sprt", request, |_| {
                    par_sprt_verify(
                        data,
                        &pool,
                        &lsh,
                        &cfg.sprt(),
                        cos_to_r,
                        r_to_cos,
                        cosine,
                        threads,
                    )
                });
                layers.sprt_exact = stats.exact_verifications;
                pairs
            }
            _ => tracer.span("sparse.exact", request, |_| {
                par_exact_verify(data, Measure::Cosine, t, &lsh, threads)
            }),
        };
        pairs.sort_unstable_by_key(|&(a, b, _)| (a, b));

        // The same join, untraced, for the bit-identity check and the
        // tracing overhead.
        let t0 = Instant::now();
        let Some(out) = ops.attempt(name, || searchers[i].all_pairs()) else {
            continue;
        };
        let untraced_s = t0.elapsed().as_secs_f64();
        checks.require(check::same_pairs(&pairs, &out.pairs), || {
            format!("{name}: traced decomposition differs from Searcher::all_pairs")
        });
        let traced_s = tracer
            .spans()
            .iter()
            .filter(|s| {
                s.request == request
                    && s.parent.is_none()
                    && (s.name.starts_with("verify.") || s.name.starts_with("sparse."))
            })
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum::<f64>()
            + if ap_join {
                tracer.total_s("candgen.ap_pairs")
            } else {
                tracer.total_s("candgen.lsh_pairs")
            };
        layers.overhead_s += traced_s - untraced_s;
    }
    layers
}
