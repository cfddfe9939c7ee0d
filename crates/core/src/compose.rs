//! Composable candidate generation × verification.
//!
//! The paper's eight algorithms are not eight monoliths but eight points in
//! a small grid: a [`CandidateGenerator`] (AllPairs, LSH banding, PPJoin+)
//! crossed with a [`Verifier`] (exact, fixed-`n` MLE, BayesLSH,
//! BayesLSH-Lite). This module makes that grid explicit: each
//! [`crate::pipeline::Algorithm`] names a [`Composition`], and
//! [`run_composition`] executes any composition — including off-grid ones
//! the paper never evaluated, such as PPJoin+ candidates with Bayesian
//! verification.
//!
//! All compositions share one [`SigPool`] between candidate generation and
//! verification, reproducing the paper's amortization argument ("it
//! exploits the hashes of the objects for candidate pruning, further
//! amortizing the costs of hashing"). A standing [`BandingIndex`] can be
//! supplied through [`SearchContext::index`] so repeated runs (or point
//! queries, via [`crate::searcher::Searcher`]) reuse the build-time index
//! instead of re-bucketing the corpus.

use std::time::Instant;

use bayeslsh_candgen::{
    all_pairs_cosine, all_pairs_cosine_candidates, all_pairs_jaccard, all_pairs_jaccard_candidates,
    band_key_bits, band_key_ints, band_keys_bits, band_keys_ints, lsh_candidates_bits,
    lsh_candidates_ints, lsh_candidates_projs, ppjoin_binary_cosine, ppjoin_jaccard, BandingIndex,
    BandingParams,
};
use bayeslsh_lsh::{
    cos_to_r, count_bit_agreements, count_bit_agreements_batched, count_int_agreements,
    count_int_agreements_batched, e2lsh_collision, e2lsh_similarity_at, r_to_cos, BitSignatures,
    E2lshHasher, IntSignatures, Measure, MinHasher, ProjSignatures, SignaturePool, SrpHasher,
};
use bayeslsh_numeric::{derive_seed, Xoshiro256};
use bayeslsh_sparse::{jaccard, Dataset, SparseVector};

use crate::cosine_model::CosineModel;
use crate::engine::{bayes_verify, bayes_verify_lite, sprt_verify, EngineStats};
use crate::error::SearchError;
use crate::estimator::mle_verify;
use crate::family_model::FamilyModel;
use crate::jaccard_model::JaccardModel;
use crate::parallel::{
    candidate_ids, par_bayes_verify, par_bayes_verify_lite, par_exact_verify, par_mle_verify,
    par_sprt_verify,
};
use crate::pipeline::{all_pairs_l2, PipelineConfig, PriorChoice};
use crate::posterior::PosteriorModel;

/// A signature pool for any hash family, created to match a
/// [`PipelineConfig`]'s family: signed-random-projection bits for cosine
/// (and for MIPS, which is SRP on augmented vectors with its own seed
/// stream), integer minhashes for Jaccard, quantized p-stable projections
/// for L2. Seeds are derived from the config's master seed exactly as the
/// classic pipelines did, so results are reproducible across the legacy
/// and composable APIs.
#[derive(Debug, Clone)]
pub enum SigPool {
    /// Bit signatures (cosine or MIPS / signed random projections).
    Bits(BitSignatures),
    /// Integer minhash signatures (Jaccard).
    Ints(IntSignatures),
    /// Quantized-projection bucket signatures (L2 / E2LSH).
    Projs(ProjSignatures),
}

impl SigPool {
    /// A pool matching `cfg.family`, sized for `data`.
    pub fn for_config(cfg: &PipelineConfig, data: &Dataset) -> Self {
        match cfg.family.measure() {
            Measure::Cosine => SigPool::Bits(BitSignatures::new(
                SrpHasher::new(data.dim(), derive_seed(cfg.seed, 1)),
                data.len(),
            )),
            Measure::Jaccard => SigPool::Ints(IntSignatures::new(
                MinHasher::new(derive_seed(cfg.seed, 2)),
                data.len(),
            )),
            Measure::L2 => SigPool::Projs(ProjSignatures::new(
                E2lshHasher::new(data.dim(), derive_seed(cfg.seed, 3), l2_width(cfg)),
                data.len(),
            )),
            Measure::Mips => SigPool::Bits(BitSignatures::new(
                SrpHasher::new(data.dim(), derive_seed(cfg.seed, 4)),
                data.len(),
            )),
        }
    }

    /// Make room for objects `0..n_objects`, keeping existing signatures.
    pub fn grow_to(&mut self, n_objects: usize) {
        match self {
            SigPool::Bits(p) => p.grow_to(n_objects),
            SigPool::Ints(p) => p.grow_to(n_objects),
            SigPool::Projs(p) => p.grow_to(n_objects),
        }
    }

    /// The `l` band keys of pool member `id` (which must be hashed to at
    /// least `params.total_hashes()` already).
    pub fn band_keys(&self, id: u32, params: BandingParams) -> Vec<u64> {
        match self {
            SigPool::Bits(p) => band_keys_bits(p.raw_words(id), params),
            SigPool::Ints(p) => band_keys_ints(p.raw(id), params),
            SigPool::Projs(p) => band_keys_ints(p.raw(id), params),
        }
    }

    /// Hash an out-of-pool query vector to at least `n` hashes through the
    /// same hash family. The returned words are packed bits for
    /// [`SigPool::Bits`] and raw minhashes for [`SigPool::Ints`]; feed them
    /// back through [`SigPool::query_band_keys`] and
    /// [`SigPool::query_agreements`].
    pub fn hash_query(&mut self, v: &SparseVector, n: u32) -> Vec<u32> {
        let mut sig = Vec::new();
        match self {
            SigPool::Bits(p) => p.hash_external(v, 0, n, &mut sig),
            SigPool::Ints(p) => p.hash_external(v, 0, n, &mut sig),
            SigPool::Projs(p) => p.hash_external(v, 0, n, &mut sig),
        }
        sig
    }

    /// The `l` band keys of an external query signature.
    pub fn query_band_keys(&self, sig: &[u32], params: BandingParams) -> Vec<u64> {
        match self {
            SigPool::Bits(_) => (0..params.l)
                .map(|band| band_key_bits(sig, band, params.k))
                .collect(),
            SigPool::Ints(_) | SigPool::Projs(_) => (0..params.l)
                .map(|band| band_key_ints(sig, band, params.k))
                .collect(),
        }
    }

    /// Count agreeing hashes in positions `lo..hi` between an external
    /// query signature and pool member `id` (hashed to at least `hi`).
    pub fn query_agreements(&self, sig: &[u32], id: u32, lo: u32, hi: u32) -> u32 {
        match self {
            SigPool::Bits(p) => count_bit_agreements(sig, p.raw_words(id), lo, hi),
            SigPool::Ints(p) => count_int_agreements(sig, p.raw(id), lo, hi),
            SigPool::Projs(p) => count_int_agreements(sig, p.raw(id), lo, hi),
        }
    }

    /// Batched [`SigPool::query_agreements`]: count an external query
    /// signature against every pool member in `ids` over `lo..hi`, writing
    /// one count per id into `out` (cleared first). The whole batch runs
    /// through the word-parallel XOR + popcount kernels with the probe's
    /// window masks hoisted out of the per-candidate loop, so a query's
    /// verification scan is allocation-free in steady state.
    pub fn query_agreements_batched(
        &self,
        sig: &[u32],
        ids: &[u32],
        lo: u32,
        hi: u32,
        out: &mut Vec<u32>,
    ) {
        match self {
            SigPool::Bits(p) => count_bit_agreements_batched(
                sig,
                ids.iter().map(|&id| p.raw_words(id)),
                lo,
                hi,
                out,
            ),
            SigPool::Ints(p) => {
                count_int_agreements_batched(sig, ids.iter().map(|&id| p.raw(id)), lo, hi, out)
            }
            SigPool::Projs(p) => {
                count_int_agreements_batched(sig, ids.iter().map(|&id| p.raw(id)), lo, hi, out)
            }
        }
    }

    /// Extend the signatures of `ids` to at least `n` hashes with up to
    /// `threads` workers (corpus chunks hashed per-thread, buffers spliced
    /// back in index order). Pool state is bit-identical to serial
    /// [`SignaturePool::ensure`] calls for the same ids.
    pub fn par_ensure_ids(&mut self, data: &Dataset, ids: &[u32], n: u32, threads: usize) {
        match self {
            SigPool::Bits(p) => p.par_ensure_ids(data, ids, n, threads),
            SigPool::Ints(p) => p.par_ensure_ids(data, ids, n, threads),
            SigPool::Projs(p) => p.par_ensure_ids(data, ids, n, threads),
        }
    }

    /// Whether [`SigPool::hash_query_ready`] can hash an `n`-deep query
    /// signature right now without mutating the pool (the hasher bank
    /// already covers the target depth).
    pub fn query_ready(&self, n: u32) -> bool {
        match self {
            SigPool::Bits(p) => p.external_ready(n),
            SigPool::Ints(p) => p.external_ready(n),
            SigPool::Projs(p) => p.external_ready(n),
        }
    }

    /// Materialize the hasher bank for `n`-deep query hashing up front, so
    /// subsequent [`SigPool::hash_query_ready`] calls work through `&self`
    /// (the shared-reader serving path).
    pub fn prepare_query(&mut self, n: u32, threads: usize) {
        match self {
            SigPool::Bits(p) => p.prepare_external(n, threads),
            SigPool::Ints(p) => p.prepare_external(n, threads),
            SigPool::Projs(p) => p.prepare_external(n, threads),
        }
    }

    /// Read-only [`SigPool::hash_query`]: bit-identical output, but
    /// through `&self`. Requires [`SigPool::query_ready`]`(n)`; many reader
    /// threads may call this concurrently.
    pub fn hash_query_ready(&self, v: &SparseVector, n: u32) -> Vec<u32> {
        match self {
            SigPool::Bits(p) => p.hash_external_ready(v, n),
            SigPool::Ints(p) => p.hash_external_ready(v, n),
            SigPool::Projs(p) => p.hash_external_ready(v, n),
        }
    }

    /// Drop object `id`'s signature and release its hashes from the cost
    /// accounting (compaction of removed objects). The slot stays valid and
    /// empty, indistinguishable from a never-hashed object.
    pub fn clear(&mut self, id: u32) {
        match self {
            SigPool::Bits(p) => p.clear(id),
            SigPool::Ints(p) => p.clear(id),
            SigPool::Projs(p) => p.clear(id),
        }
    }

    /// The single band-`band` key of pool member `id` (hashed to at least
    /// `params.total_hashes()` already) — the shard-local key lookup
    /// [`bayeslsh_candgen::BandingIndex::par_build`] consumes, avoiding
    /// any id-major key buffer.
    pub fn band_key(&self, id: u32, band: u32, params: BandingParams) -> u64 {
        match self {
            SigPool::Bits(p) => band_key_bits(p.raw_words(id), band, params.k),
            SigPool::Ints(p) => band_key_ints(p.raw(id), band, params.k),
            SigPool::Projs(p) => band_key_ints(p.raw(id), band, params.k),
        }
    }
}

/// The L2 family's bucket width; callers must hold an L2 pipeline config.
pub(crate) fn l2_width(cfg: &PipelineConfig) -> f64 {
    cfg.family
        .l2_width()
        .expect("L2 pipeline carries a bucket width")
}

impl SignaturePool for SigPool {
    fn ensure(&mut self, id: u32, v: &SparseVector, n: u32) {
        match self {
            SigPool::Bits(p) => p.ensure(id, v, n),
            SigPool::Ints(p) => p.ensure(id, v, n),
            SigPool::Projs(p) => p.ensure(id, v, n),
        }
    }

    fn len(&self, id: u32) -> u32 {
        match self {
            SigPool::Bits(p) => p.len(id),
            SigPool::Ints(p) => p.len(id),
            SigPool::Projs(p) => p.len(id),
        }
    }

    fn agreements(&self, a: u32, b: u32, lo: u32, hi: u32) -> u32 {
        match self {
            SigPool::Bits(p) => p.agreements(a, b, lo, hi),
            SigPool::Ints(p) => p.agreements(a, b, lo, hi),
            SigPool::Projs(p) => p.agreements(a, b, lo, hi),
        }
    }

    fn agreements_batched(&self, a: u32, others: &[u32], lo: u32, hi: u32, out: &mut Vec<u32>) {
        match self {
            SigPool::Bits(p) => p.agreements_batched(a, others, lo, hi, out),
            SigPool::Ints(p) => p.agreements_batched(a, others, lo, hi, out),
            SigPool::Projs(p) => p.agreements_batched(a, others, lo, hi, out),
        }
    }

    fn total_hashes(&self) -> u64 {
        match self {
            SigPool::Bits(p) => p.total_hashes(),
            SigPool::Ints(p) => p.total_hashes(),
            SigPool::Projs(p) => p.total_hashes(),
        }
    }

    fn depth_hint(&mut self, n: u32) {
        match self {
            SigPool::Bits(p) => p.depth_hint(n),
            SigPool::Ints(p) => p.depth_hint(n),
            SigPool::Projs(p) => p.depth_hint(n),
        }
    }
}

/// Everything a generator or verifier needs to run: the corpus, the
/// configuration, the shared signature pool, and (optionally) a standing
/// banding index maintained by the caller.
pub struct SearchContext<'a> {
    /// The corpus.
    pub data: &'a Dataset,
    /// Pipeline parameters.
    pub cfg: &'a PipelineConfig,
    /// Shared signature pool (candidate generation and verification draw
    /// from the same hashes).
    pub pool: &'a mut SigPool,
    /// A standing banding index, when the caller maintains one. With
    /// `None`, the LSH generator buckets the corpus transiently — the
    /// legacy one-shot behaviour.
    pub index: Option<&'a BandingIndex>,
}

/// A candidate generation strategy, as a composable trait object.
pub trait CandidateGenerator {
    /// Display name.
    fn name(&self) -> &'static str;

    /// The generator's fused exact join, if it has one (AllPairs and
    /// PPJoin+ verify inline while generating). `None` for pure candidate
    /// generators (LSH banding).
    fn exact_join(&self, ctx: &mut SearchContext<'_>) -> Option<Vec<(u32, u32, f64)>> {
        let _ = ctx;
        None
    }

    /// Generate candidate pairs for downstream verification.
    fn generate(&self, ctx: &mut SearchContext<'_>) -> Vec<(u32, u32)>;
}

/// A verification strategy, as a composable trait object.
pub trait Verifier {
    /// Display name.
    fn name(&self) -> &'static str;

    /// Verify candidates, returning surviving pairs with exact or estimated
    /// similarities, plus engine statistics where the strategy produces
    /// them.
    fn verify(
        &self,
        ctx: &mut SearchContext<'_>,
        candidates: &[(u32, u32)],
    ) -> (Vec<(u32, u32, f64)>, Option<EngineStats>);
}

/// The candidate generators of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GeneratorKind {
    /// AllPairs (Bayardo et al.) — exact candidate enumeration with
    /// max-weight pruning; has a fused exact join.
    AllPairs,
    /// Classical LSH banding over the shared signature pool.
    LshBanding,
    /// PPJoin+ (binary vectors only); has a fused exact join.
    PpjoinPlus,
}

impl GeneratorKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            GeneratorKind::AllPairs => "AllPairs",
            GeneratorKind::LshBanding => "LSH",
            GeneratorKind::PpjoinPlus => "PPJoin+",
        }
    }

    /// Instantiate the generator as a trait object.
    pub fn instantiate(&self) -> Box<dyn CandidateGenerator> {
        match self {
            GeneratorKind::AllPairs => Box::new(AllPairsGenerator),
            GeneratorKind::LshBanding => Box::new(LshBandingGenerator),
            GeneratorKind::PpjoinPlus => Box::new(PpjoinGenerator),
        }
    }
}

/// The verification strategies of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifierKind {
    /// Exact similarity computation for every candidate.
    Exact,
    /// Classical fixed-`n` maximum-likelihood estimation ("LSH Approx").
    Mle,
    /// BayesLSH (Algorithm 1): prune or estimate.
    Bayes,
    /// BayesLSH-Lite (Algorithm 2): prune, then verify survivors exactly.
    BayesLite,
    /// Wald sequential probability-ratio test: adaptive early-accept /
    /// early-prune per chunk, exact fallback for pairs still undecided at
    /// the hash cap.
    Sprt,
}

impl VerifierKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            VerifierKind::Exact => "exact",
            VerifierKind::Mle => "MLE",
            VerifierKind::Bayes => "BayesLSH",
            VerifierKind::BayesLite => "BayesLSH-Lite",
            VerifierKind::Sprt => "SPRT",
        }
    }

    /// Instantiate the verifier as a trait object.
    pub fn instantiate(&self) -> Box<dyn Verifier> {
        match self {
            VerifierKind::Exact => Box::new(ExactVerifier),
            VerifierKind::Mle => Box::new(MleVerifier),
            VerifierKind::Bayes => Box::new(BayesVerifier),
            VerifierKind::BayesLite => Box::new(BayesLiteVerifier),
            VerifierKind::Sprt => Box::new(SprtVerifier),
        }
    }

    /// The deepest signature this verifier can demand of any object under
    /// `cfg` (0 for exact verification, which never consults hashes).
    pub fn signature_depth(&self, cfg: &PipelineConfig) -> u32 {
        let chunk = cfg.k.max(1);
        match self {
            VerifierKind::Exact => 0,
            VerifierKind::Mle => cfg.approx_hashes,
            VerifierKind::Bayes => (cfg.max_hashes / chunk).max(1) * chunk,
            VerifierKind::BayesLite => (cfg.lite_h / chunk).max(1) * chunk,
            VerifierKind::Sprt => (cfg.sprt().max_hashes / chunk).max(1) * chunk,
        }
    }
}

/// A (generator, verifier) pair — the composable unit the paper's eight
/// named algorithms are points of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Composition {
    /// Candidate generation strategy.
    pub generator: GeneratorKind,
    /// Verification strategy.
    pub verifier: VerifierKind,
}

impl Composition {
    /// Compose a generator with a verifier.
    pub const fn new(generator: GeneratorKind, verifier: VerifierKind) -> Self {
        Self {
            generator,
            verifier,
        }
    }

    /// True when this composition only works on binary vectors: Jaccard
    /// hashing, or the PPJoin+ generator under any measure.
    pub fn requires_binary(&self, measure: Measure) -> bool {
        measure == Measure::Jaccard || self.generator == GeneratorKind::PpjoinPlus
    }

    /// What binary input is needed for, for error reporting.
    pub(crate) fn binary_requirement(&self, measure: Measure) -> &'static str {
        if self.generator == GeneratorKind::PpjoinPlus {
            "PPJoin+"
        } else if measure == Measure::Jaccard {
            "Jaccard hashing"
        } else {
            "this composition"
        }
    }
}

impl std::fmt::Display for Composition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} × {}", self.generator.name(), self.verifier.name())
    }
}

/// The result of running one composition over a corpus.
#[derive(Debug, Clone)]
pub struct CompositionOutput {
    /// The composition that ran.
    pub composition: Composition,
    /// Output pairs with similarities (exact or estimated), in canonical
    /// ascending `(i, j)` order — the merge order of the parallel
    /// execution layer, applied to the serial path too so output is
    /// bit-identical whatever the thread count.
    pub pairs: Vec<(u32, u32, f64)>,
    /// Candidate pairs generated (0 when the generator's fused exact join
    /// ran, fusing generation and verification).
    pub candidates: u64,
    /// Seconds spent generating candidates.
    pub candgen_secs: f64,
    /// Seconds spent verifying.
    pub verify_secs: f64,
    /// Total wall-clock seconds.
    pub total_secs: f64,
    /// Per-pair hash comparisons spent by the verifier (0 for exact
    /// verification, which never consults hashes).
    pub hashes_compared: u64,
    /// Hash comparisons per accepted pair — the adaptive-verification cost
    /// metric (0.0 when nothing was accepted or no hashes were compared).
    pub hashes_per_accepted_pair: f64,
    /// Verification statistics (hash-based pruning verifiers only).
    pub engine: Option<EngineStats>,
}

/// Run one composition end to end over `ctx`.
///
/// Verifies the binary-input precondition up front and returns
/// [`SearchError::NonBinaryData`] instead of panicking. When the verifier
/// is exact and the generator has a fused exact join (AllPairs, PPJoin+),
/// the join runs directly — reproducing the single-phase behaviour (and
/// cost profile) of the paper's exact baselines.
pub fn run_composition(
    comp: Composition,
    ctx: &mut SearchContext<'_>,
) -> Result<CompositionOutput, SearchError> {
    let measure = ctx.cfg.family.measure();
    if comp.requires_binary(measure) && !ctx.data.vectors().iter().all(|v| v.is_binary()) {
        return Err(SearchError::NonBinaryData {
            requires: comp.binary_requirement(measure),
        });
    }
    run_composition_prechecked(comp, ctx)
}

/// [`run_composition`] without the O(nnz) binary-precondition scan, for
/// callers that enforce the invariant structurally (the `Searcher` checks
/// the corpus at build and every insert).
pub(crate) fn run_composition_prechecked(
    comp: Composition,
    ctx: &mut SearchContext<'_>,
) -> Result<CompositionOutput, SearchError> {
    if comp.generator == GeneratorKind::PpjoinPlus
        && matches!(ctx.cfg.family.measure(), Measure::L2 | Measure::Mips)
    {
        // PPJoin+'s prefix filter is derived from the cosine/Jaccard
        // overlap bound; it has no L2 or inner-product counterpart.
        return Err(SearchError::invalid(
            "family",
            format!(
                "PPJoin+ supports cosine and Jaccard only, got {}",
                ctx.cfg.family
            ),
        ));
    }
    let generator = comp.generator.instantiate();
    let verifier = comp.verifier.instantiate();
    let start = Instant::now();

    if comp.verifier == VerifierKind::Exact {
        if let Some(mut pairs) = generator.exact_join(ctx) {
            canonical_order(&mut pairs);
            let total = start.elapsed().as_secs_f64();
            return Ok(CompositionOutput {
                composition: comp,
                pairs,
                candidates: 0,
                candgen_secs: total,
                verify_secs: 0.0,
                total_secs: total,
                hashes_compared: 0,
                hashes_per_accepted_pair: 0.0,
                engine: None,
            });
        }
    }

    let candidates = generator.generate(ctx);
    let candgen_secs = start.elapsed().as_secs_f64();
    let verify_start = Instant::now();
    let (mut pairs, engine) = verifier.verify(ctx, &candidates);
    canonical_order(&mut pairs);
    let hashes_compared = engine.as_ref().map_or(0, |s| s.hash_comparisons);
    let hashes_per_accepted_pair = engine
        .as_ref()
        .map_or(0.0, |s| s.hashes_per_accepted_pair());
    Ok(CompositionOutput {
        composition: comp,
        pairs,
        candidates: candidates.len() as u64,
        candgen_secs,
        verify_secs: verify_start.elapsed().as_secs_f64(),
        total_secs: start.elapsed().as_secs_f64(),
        hashes_compared,
        hashes_per_accepted_pair,
        engine,
    })
}

/// Canonicalize batch output to ascending `(i, j)` order. Verifiers emit in
/// (deterministic) candidate order; the parallel layer merges its chunks in
/// the same order, and this final sort makes the contract independent of
/// both — serial and parallel runs agree bit for bit, and so do standing-
/// index and transient candidate generation.
fn canonical_order(pairs: &mut [(u32, u32, f64)]) {
    pairs.sort_unstable_by_key(|&(a, b, _)| (a, b));
}

/// AllPairs candidate generation (with a fused exact join).
struct AllPairsGenerator;

impl CandidateGenerator for AllPairsGenerator {
    fn name(&self) -> &'static str {
        GeneratorKind::AllPairs.name()
    }

    fn exact_join(&self, ctx: &mut SearchContext<'_>) -> Option<Vec<(u32, u32, f64)>> {
        Some(match ctx.cfg.family.measure() {
            Measure::Cosine => all_pairs_cosine(ctx.data, ctx.cfg.threshold),
            Measure::Jaccard => all_pairs_jaccard(ctx.data, ctx.cfg.threshold),
            Measure::L2 => all_pairs_l2(ctx.data, ctx.cfg.threshold),
            // MIPS is cosine on (externally) augmented vectors.
            Measure::Mips => all_pairs_cosine(ctx.data, ctx.cfg.threshold),
        })
    }

    fn generate(&self, ctx: &mut SearchContext<'_>) -> Vec<(u32, u32)> {
        match ctx.cfg.family.measure() {
            Measure::Cosine => all_pairs_cosine_candidates(ctx.data, ctx.cfg.threshold),
            Measure::Jaccard => all_pairs_jaccard_candidates(ctx.data, ctx.cfg.threshold),
            Measure::L2 => all_pairs_l2_candidates(ctx.data),
            Measure::Mips => all_pairs_cosine_candidates(ctx.data, ctx.cfg.threshold),
        }
    }
}

/// Every pair of non-empty vectors, in ascending id order. AllPairs'
/// max-weight prefix filter is a dot-product bound with no L2 analogue, so
/// the L2 "AllPairs" candidate set is the exhaustive scan — downstream
/// Bayesian verifiers do all the pruning.
fn all_pairs_l2_candidates(data: &Dataset) -> Vec<(u32, u32)> {
    let ids: Vec<u32> = data
        .iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(id, _)| id)
        .collect();
    let mut out = Vec::with_capacity(ids.len().saturating_mul(ids.len().saturating_sub(1)) / 2);
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            out.push((a, b));
        }
    }
    out
}

/// LSH banding candidate generation over the shared signature pool.
struct LshBandingGenerator;

impl CandidateGenerator for LshBandingGenerator {
    fn name(&self) -> &'static str {
        GeneratorKind::LshBanding.name()
    }

    fn generate(&self, ctx: &mut SearchContext<'_>) -> Vec<(u32, u32)> {
        let threads = ctx.cfg.parallelism.resolve();
        if let Some(index) = ctx.index {
            return index.par_all_pairs(threads);
        }
        let params = ctx.cfg.banding_plan().params;
        if threads > 1 {
            // Transient sharded build: hash the corpus in parallel, build
            // the band-sharded index, fan out the join. Candidate order is
            // identical to the serial streaming path (each band's buckets
            // see the same id-order insertions either way).
            let ids: Vec<u32> = ctx
                .data
                .iter()
                .filter(|(_, v)| !v.is_empty())
                .map(|(id, _)| id)
                .collect();
            ctx.pool
                .par_ensure_ids(ctx.data, &ids, params.total_hashes(), threads);
            let pool = &*ctx.pool;
            let index = BandingIndex::par_build(params, &ids, threads, |id, band| {
                pool.band_key(id, band, params)
            });
            return index.par_all_pairs(threads);
        }
        match ctx.pool {
            SigPool::Bits(pool) => lsh_candidates_bits(pool, ctx.data, params),
            SigPool::Ints(pool) => lsh_candidates_ints(pool, ctx.data, params),
            SigPool::Projs(pool) => lsh_candidates_projs(pool, ctx.data, params),
        }
    }
}

/// PPJoin+ (with a fused exact join; candidates are the exact result set).
struct PpjoinGenerator;

impl CandidateGenerator for PpjoinGenerator {
    fn name(&self) -> &'static str {
        GeneratorKind::PpjoinPlus.name()
    }

    fn exact_join(&self, ctx: &mut SearchContext<'_>) -> Option<Vec<(u32, u32, f64)>> {
        Some(match ctx.cfg.family.measure() {
            Measure::Cosine => ppjoin_binary_cosine(ctx.data, ctx.cfg.threshold),
            Measure::Jaccard => ppjoin_jaccard(ctx.data, ctx.cfg.threshold),
            // Rejected with a typed error before any generator runs.
            Measure::L2 | Measure::Mips => {
                unreachable!("run_composition rejects PPJoin+ under L2/MIPS")
            }
        })
    }

    fn generate(&self, ctx: &mut SearchContext<'_>) -> Vec<(u32, u32)> {
        self.exact_join(ctx)
            .unwrap_or_default()
            .into_iter()
            .map(|(a, b, _)| (a, b))
            .collect()
    }
}

/// Exact verification: compute the true similarity of every candidate.
struct ExactVerifier;

impl Verifier for ExactVerifier {
    fn name(&self) -> &'static str {
        VerifierKind::Exact.name()
    }

    fn verify(
        &self,
        ctx: &mut SearchContext<'_>,
        candidates: &[(u32, u32)],
    ) -> (Vec<(u32, u32, f64)>, Option<EngineStats>) {
        let measure = ctx.cfg.family.measure();
        let t = ctx.cfg.threshold;
        let threads = ctx.cfg.parallelism.resolve();
        let pairs = par_exact_verify(ctx.data, measure, t, candidates, threads);
        (pairs, None)
    }
}

/// The worker budget for a hash-based batch verification under `ctx`.
/// With more than one worker, every candidate signature is first hashed to
/// `verifier`'s scan depth (the parallel verifiers read a pre-hashed pool);
/// `None` means verify on the caller's thread, extending signatures lazily.
fn prehash(
    ctx: &mut SearchContext<'_>,
    candidates: &[(u32, u32)],
    verifier: VerifierKind,
) -> Option<usize> {
    let threads = ctx.cfg.parallelism.resolve();
    if threads <= 1 {
        return None;
    }
    let ids = candidate_ids(candidates, ctx.data.len());
    let depth = verifier.signature_depth(ctx.cfg);
    ctx.pool.par_ensure_ids(ctx.data, &ids, depth, threads);
    Some(threads)
}

/// Classical fixed-`n` MLE verification ("LSH Approx").
struct MleVerifier;

impl Verifier for MleVerifier {
    fn name(&self) -> &'static str {
        VerifierKind::Mle.name()
    }

    fn verify(
        &self,
        ctx: &mut SearchContext<'_>,
        candidates: &[(u32, u32)],
    ) -> (Vec<(u32, u32, f64)>, Option<EngineStats>) {
        let cfg = ctx.cfg;
        let (n, t) = (cfg.approx_hashes, cfg.threshold);
        let transform = |frac| similarity_at(cfg, frac);
        let (pairs, _) = match prehash(ctx, candidates, VerifierKind::Mle) {
            Some(threads) => par_mle_verify(&*ctx.pool, candidates, n, t, transform, threads),
            None => mle_verify(ctx.data, ctx.pool, candidates, n, t, transform),
        };
        (pairs, None)
    }
}

/// BayesLSH verification (Algorithm 1).
struct BayesVerifier;

impl Verifier for BayesVerifier {
    fn name(&self) -> &'static str {
        VerifierKind::Bayes.name()
    }

    fn verify(
        &self,
        ctx: &mut SearchContext<'_>,
        candidates: &[(u32, u32)],
    ) -> (Vec<(u32, u32, f64)>, Option<EngineStats>) {
        let cfg = ctx.cfg.bayes();
        let model = batch_model(ctx, candidates);
        let (pairs, stats) = match prehash(ctx, candidates, VerifierKind::Bayes) {
            Some(threads) => par_bayes_verify(&*ctx.pool, &*model, candidates, &cfg, threads),
            None => bayes_verify(ctx.data, ctx.pool, &*model, candidates, &cfg),
        };
        (pairs, Some(stats))
    }
}

/// BayesLSH-Lite verification (Algorithm 2).
struct BayesLiteVerifier;

impl Verifier for BayesLiteVerifier {
    fn name(&self) -> &'static str {
        VerifierKind::BayesLite.name()
    }

    fn verify(
        &self,
        ctx: &mut SearchContext<'_>,
        candidates: &[(u32, u32)],
    ) -> (Vec<(u32, u32, f64)>, Option<EngineStats>) {
        let cfg = ctx.cfg.lite();
        let model = batch_model(ctx, candidates);
        let measure = ctx.cfg.family.measure();
        let exact = |a: &SparseVector, b: &SparseVector| measure.eval(a, b);
        let data = ctx.data;
        let (pairs, stats) = match prehash(ctx, candidates, VerifierKind::BayesLite) {
            Some(threads) => {
                par_bayes_verify_lite(data, &*ctx.pool, &*model, candidates, &cfg, exact, threads)
            }
            None => bayes_verify_lite(data, ctx.pool, &*model, candidates, &cfg, exact),
        };
        (pairs, Some(stats))
    }
}

/// SPRT verification: Wald sequential hypothesis tests per pair.
struct SprtVerifier;

impl Verifier for SprtVerifier {
    fn name(&self) -> &'static str {
        VerifierKind::Sprt.name()
    }

    fn verify(
        &self,
        ctx: &mut SearchContext<'_>,
        candidates: &[(u32, u32)],
    ) -> (Vec<(u32, u32, f64)>, Option<EngineStats>) {
        let pipeline = ctx.cfg;
        let cfg = pipeline.sprt();
        let collision = |s| collision_at(pipeline, s);
        let estimate = |frac| similarity_at(pipeline, frac);
        let measure = pipeline.family.measure();
        let exact = |a: &SparseVector, b: &SparseVector| measure.eval(a, b);
        let data = ctx.data;
        let (pairs, stats) = match prehash(ctx, candidates, VerifierKind::Sprt) {
            Some(threads) => par_sprt_verify(
                data, &*ctx.pool, candidates, &cfg, collision, estimate, exact, threads,
            ),
            None => sprt_verify(data, ctx.pool, candidates, &cfg, collision, estimate, exact),
        };
        (pairs, Some(stats))
    }
}

/// The posterior model of `cfg`'s hash family; Jaccard takes its prior
/// from `jaccard` (fitted for batch joins, uniform for point queries).
pub(crate) fn posterior_model(
    cfg: &PipelineConfig,
    jaccard: impl FnOnce() -> JaccardModel,
) -> Box<dyn PosteriorModel + Send + Sync> {
    match cfg.family.measure() {
        Measure::Cosine | Measure::Mips => Box::new(CosineModel::new()),
        Measure::Jaccard => Box::new(jaccard()),
        Measure::L2 => Box::new(FamilyModel::new(cfg.family)),
    }
}

/// The posterior model a batch verification over `candidates` uses: the
/// Jaccard prior is fitted from a sample of them (per `cfg.prior`).
fn batch_model(
    ctx: &SearchContext<'_>,
    candidates: &[(u32, u32)],
) -> Box<dyn PosteriorModel + Send + Sync> {
    posterior_model(ctx.cfg, || fit_jaccard_prior(ctx.data, candidates, ctx.cfg))
}

/// The per-hash agreement probability of a pair at similarity `s` under
/// `cfg`'s hash family.
pub(crate) fn collision_at(cfg: &PipelineConfig, s: f64) -> f64 {
    match cfg.family.measure() {
        Measure::Cosine | Measure::Mips => cos_to_r(s),
        Measure::Jaccard => s,
        Measure::L2 => e2lsh_collision(s, l2_width(cfg)),
    }
}

/// The similarity a hash-agreement fraction estimates under `cfg`'s hash
/// family (the inverse of [`collision_at`]).
pub(crate) fn similarity_at(cfg: &PipelineConfig, frac: f64) -> f64 {
    match cfg.family.measure() {
        Measure::Cosine | Measure::Mips => r_to_cos(frac),
        Measure::Jaccard => frac,
        Measure::L2 => e2lsh_similarity_at(frac, l2_width(cfg)),
    }
}

/// Fit the Jaccard prior from a random sample of candidate pairs, per the
/// paper's method-of-moments recipe.
pub(crate) fn fit_jaccard_prior(
    data: &Dataset,
    candidates: &[(u32, u32)],
    cfg: &PipelineConfig,
) -> JaccardModel {
    match cfg.prior {
        PriorChoice::Uniform => JaccardModel::uniform(),
        PriorChoice::Fitted => {
            if candidates.len() < 2 {
                return JaccardModel::uniform();
            }
            let take = cfg.prior_sample.min(candidates.len());
            let mut rng = Xoshiro256::seed_from_u64(derive_seed(cfg.seed, 0xBEEF));
            let idx = rng.sample_indices(candidates.len(), take);
            let sims: Vec<f64> = idx
                .into_iter()
                .map(|i| {
                    let (a, b) = candidates[i];
                    jaccard(data.vector(a), data.vector(b))
                })
                .collect();
            JaccardModel::fit_from_sample(&sims)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Algorithm;

    #[test]
    fn eight_algorithms_are_eight_named_compositions() {
        use GeneratorKind::*;
        use VerifierKind::*;
        let expect = [
            (Algorithm::AllPairs, Composition::new(AllPairs, Exact)),
            (Algorithm::ApBayesLsh, Composition::new(AllPairs, Bayes)),
            (
                Algorithm::ApBayesLshLite,
                Composition::new(AllPairs, BayesLite),
            ),
            (Algorithm::Lsh, Composition::new(LshBanding, Exact)),
            (Algorithm::LshApprox, Composition::new(LshBanding, Mle)),
            (Algorithm::LshBayesLsh, Composition::new(LshBanding, Bayes)),
            (
                Algorithm::LshBayesLshLite,
                Composition::new(LshBanding, BayesLite),
            ),
            (Algorithm::PpjoinPlus, Composition::new(PpjoinPlus, Exact)),
        ];
        for (algo, comp) in expect {
            assert_eq!(algo.composition(), comp, "{algo}");
        }
        // The grid is larger than the paper's eight points.
        let off_grid = Composition::new(GeneratorKind::PpjoinPlus, VerifierKind::Bayes);
        assert!(Algorithm::ALL.iter().all(|a| a.composition() != off_grid));
    }

    #[test]
    fn composition_metadata() {
        let c = Composition::new(GeneratorKind::LshBanding, VerifierKind::BayesLite);
        assert_eq!(format!("{c}"), "LSH × BayesLSH-Lite");
        assert!(!c.requires_binary(Measure::Cosine));
        assert!(c.requires_binary(Measure::Jaccard));
        let pp = Composition::new(GeneratorKind::PpjoinPlus, VerifierKind::Exact);
        assert!(pp.requires_binary(Measure::Cosine));
        assert_eq!(pp.binary_requirement(Measure::Cosine), "PPJoin+");
    }

    #[test]
    fn verifier_depths_follow_config() {
        let cfg = PipelineConfig::cosine(0.7);
        assert_eq!(VerifierKind::Exact.signature_depth(&cfg), 0);
        assert_eq!(VerifierKind::Mle.signature_depth(&cfg), cfg.approx_hashes);
        assert_eq!(VerifierKind::Bayes.signature_depth(&cfg), 2048);
        assert_eq!(VerifierKind::BayesLite.signature_depth(&cfg), 128);
        // SPRT scans Lite-style shallow: 4·lite_h, capped by max_hashes.
        assert_eq!(VerifierKind::Sprt.signature_depth(&cfg), 512);
        let cfg = PipelineConfig::jaccard(0.5);
        assert_eq!(VerifierKind::Sprt.signature_depth(&cfg), 256);
    }

    #[test]
    fn non_binary_jaccard_is_a_typed_error() {
        let mut data = Dataset::new(10);
        data.push(SparseVector::from_pairs(vec![(0, 0.5), (3, 2.0)]));
        data.push(SparseVector::from_pairs(vec![(0, 1.5), (2, 1.0)]));
        let cfg = PipelineConfig::jaccard(0.5);
        let mut pool = SigPool::for_config(&cfg, &data);
        let mut ctx = SearchContext {
            data: &data,
            cfg: &cfg,
            pool: &mut pool,
            index: None,
        };
        let err = run_composition(Algorithm::LshBayesLsh.composition(), &mut ctx).unwrap_err();
        assert_eq!(
            err,
            SearchError::NonBinaryData {
                requires: "Jaccard hashing"
            }
        );
    }
}
