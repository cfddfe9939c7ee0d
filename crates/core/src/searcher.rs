//! The build-once/query-many search API.
//!
//! [`Searcher`] owns a corpus together with everything the paper's economy
//! argument says should be paid for once: the signature pool and the LSH
//! banding index. Construction (via [`SearcherBuilder`]) hashes and
//! indexes a single time; afterwards the searcher serves any mix of
//!
//! * [`Searcher::all_pairs`] — the paper's batch join, through the
//!   configured [`Composition`];
//! * [`Searcher::query`] — threshold point queries for one vector;
//! * [`Searcher::top_k`] — k-nearest-neighbour retrieval with Bayesian
//!   candidate pruning (the paper's future-work item; see [`crate::knn`]);
//! * [`Searcher::insert`] — incremental corpus growth, extending the
//!   signature pool and banding index in place.
//!
//! Under the default [`HashMode::Eager`], every corpus signature is hashed
//! to the verifier's maximum depth at build (and insert) time, so queries
//! never touch the pool — repeated queries cost zero corpus hashing.
//! [`HashMode::Lazy`] keeps the paper's lazy-extension economy instead:
//! build hashes only to banding depth, and verification deepens exactly
//! the signatures that surviving candidates demand (amortized across
//! queries — a signature is never re-hashed).
//!
//! Builds, inserts, [`Searcher::compact`] and batch joins fan out across
//! the worker budget set by [`SearcherBuilder::parallelism`] (resolved once
//! at build; see [`Searcher::threads`]); output is bit-identical to the
//! serial path at any thread count. One cost caveat: under
//! [`HashMode::Lazy`] a parallel join pre-extends candidate signatures to
//! the verifier's scan depth (eager builds already pay it). Point queries
//! — [`Searcher::query`] and [`Searcher::top_k`] — hash, probe and verify
//! on the caller's thread: one query is too small to amortize a fan-out,
//! so query throughput scales by serving queries from several threads
//! instead (below).
//!
//! ## Concurrent reads
//!
//! [`Searcher::query`], [`Searcher::top_k`], and [`Searcher::all_pairs`]
//! take `&self`, so a `Searcher` behind an `Arc` serves many reader
//! threads at once. The signature pool sits behind an internal `RwLock`:
//! when the pool already covers a request (always, under the default
//! [`HashMode::Eager`]), queries run entirely under a shared read lock —
//! readers never block each other. Under [`HashMode::Lazy`] a query that
//! must deepen signatures upgrades to the write lock for that call, and
//! results are bit-identical either way (signature bits are a pure
//! function of object and position, so the interleaving of lazily
//! deepening readers cannot change any outcome). Mutation —
//! [`Searcher::insert`], [`Searcher::remove`], [`Searcher::compact`] —
//! still requires `&mut self`; see [`crate::serving::ServingSearcher`]
//! for serving reads concurrently with a writer.

use std::collections::BinaryHeap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use bayeslsh_candgen::{BandingIndex, BandingPlan};
use bayeslsh_lsh::{Measure, SignaturePool};
use bayeslsh_numeric::Parallelism;
use bayeslsh_sparse::{Dataset, SparseVector};

use crate::compose::{
    collision_at, posterior_model, run_composition_prechecked, similarity_at, Composition,
    CompositionOutput, GeneratorKind, SearchContext, SigPool, VerifierKind,
};
use crate::config::SprtConfig;
use crate::engine::EngineStats;
use crate::error::SearchError;
use crate::exact::{with_scratch, ExactProbe};
use crate::jaccard_model::JaccardModel;
use crate::knn::{HeapItem, KnnParams, KnnStats};
use crate::minmatch::{MinMatchCache, MinMatchTable};
use crate::pipeline::{Algorithm, PipelineConfig};
use crate::posterior::PosteriorModel;
use crate::scan::{Bayes, Lite, PoolAccess, Probe, ReadPool, ScanRule, Scanner, Sprt, WritePool};
use crate::sprt::SprtTable;

/// When corpus signatures are hashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HashMode {
    /// Hash every vector to the configured verifier's maximum depth at
    /// build/insert time. Queries never extend the pool, so per-query cost
    /// is pure probing + comparison — the right default for a standing
    /// service.
    #[default]
    Eager,
    /// Hash only to banding depth at build/insert time and let
    /// verification extend signatures on demand — the paper's "outlying
    /// points need only be hashed a few times" economy. Extensions are
    /// cached in the pool, so repeated queries still never re-hash.
    Lazy,
}

/// Builder for [`Searcher`]: configuration is validated and the corpus
/// hashed/indexed exactly once, in [`SearcherBuilder::build`].
#[derive(Debug, Clone)]
pub struct SearcherBuilder {
    cfg: PipelineConfig,
    composition: Composition,
    mode: HashMode,
}

impl SearcherBuilder {
    /// A builder with the given pipeline configuration, defaulting to the
    /// paper's flagship composition (LSH banding × BayesLSH).
    pub fn new(cfg: PipelineConfig) -> Self {
        Self {
            cfg,
            composition: Algorithm::LshBayesLsh.composition(),
            mode: HashMode::Eager,
        }
    }

    /// Preset: cosine search (SRP signatures) at similarity threshold `t`,
    /// with every other knob at the paper defaults.
    pub fn cosine(t: f64) -> Self {
        Self::new(PipelineConfig::cosine(t))
    }

    /// Preset: Jaccard search (minwise hashing, binary vectors) at
    /// similarity threshold `t`.
    pub fn jaccard(t: f64) -> Self {
        Self::new(PipelineConfig::jaccard(t))
    }

    /// Preset: L2 proximity search (E2LSH quantized projections with
    /// bucket width `r`) at similarity threshold `t` on the
    /// `s = 1/(1 + d)` scale.
    pub fn l2(t: f64, r: f64) -> Self {
        Self::new(PipelineConfig::l2(t, r))
    }

    /// Preset: maximum-inner-product search at augmented-cosine threshold
    /// `t`. Corpus and queries are expected to already carry the
    /// asymmetric augmentation (see `bayeslsh_sparse::MipsTransform`).
    pub fn mips(t: f64) -> Self {
        Self::new(PipelineConfig::mips(t))
    }

    /// Step-wise multi-probe budget per band for point queries (default 1 =
    /// classic single-probe). See [`PipelineConfig::probes`].
    pub fn probes(mut self, probes: usize) -> Self {
        self.cfg.probes = probes;
        self
    }

    /// Use the composition named by one of the paper's eight algorithms.
    pub fn algorithm(mut self, algo: Algorithm) -> Self {
        self.composition = algo.composition();
        self
    }

    /// Use an arbitrary generator × verifier composition (including
    /// off-grid ones the paper never evaluated).
    pub fn composition(mut self, composition: Composition) -> Self {
        self.composition = composition;
        self
    }

    /// Choose when corpus signatures are hashed (default:
    /// [`HashMode::Eager`]).
    pub fn hash_mode(mut self, mode: HashMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the worker-thread budget (default: [`Parallelism::Auto`]) for
    /// the batch stages: hashing and indexing at build, insert and
    /// [`Searcher::compact`], and [`Searcher::all_pairs`] joins. Point
    /// queries ([`Searcher::query`], [`Searcher::top_k`]) always run on the
    /// caller's thread; scale them by querying from several threads.
    /// Resolved once, at [`SearcherBuilder::build`]; output is
    /// bit-identical to `Parallelism::serial()` whatever the setting.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.cfg.parallelism = parallelism;
        self
    }

    /// Validate the configuration, hash the corpus, and build the banding
    /// index.
    ///
    /// # Errors
    ///
    /// [`SearchError::InvalidConfig`] for out-of-range parameters (see
    /// [`PipelineConfig::validate`]), [`SearchError::NonBinaryData`] when
    /// the measure or generator needs binary vectors and `data` has
    /// weighted ones.
    pub fn build(self, data: Dataset) -> Result<Searcher, SearchError> {
        self.cfg.validate()?;
        let measure = self.cfg.family.measure();
        if self.composition.generator == GeneratorKind::PpjoinPlus
            && matches!(measure, Measure::L2 | Measure::Mips)
        {
            return Err(SearchError::invalid(
                "family",
                format!(
                    "PPJoin+ supports cosine and Jaccard only, got {}",
                    self.cfg.family
                ),
            ));
        }
        if self.composition.requires_binary(measure)
            && !data.vectors().iter().all(|v| v.is_binary())
        {
            return Err(SearchError::NonBinaryData {
                requires: self.composition.binary_requirement(measure),
            });
        }
        // Resolve the thread budget once: `Auto` reads the environment /
        // core count here, and every later operation (including the
        // compositions run through `all_pairs`) sees the fixed count.
        let threads = self.cfg.parallelism.resolve();
        let mut cfg = self.cfg;
        cfg.parallelism = Parallelism::threads(threads.min(u32::MAX as usize) as u32);
        let plan = cfg.banding_plan();
        let verifier_depth = self.composition.verifier.signature_depth(&cfg);
        let sig_depth = match self.mode {
            HashMode::Eager => plan.params.total_hashes().max(verifier_depth),
            HashMode::Lazy => plan.params.total_hashes(),
        };
        let mut pool = SigPool::for_config(&cfg, &data);
        // Every object is hashed to `sig_depth` right below, so the first
        // extension allocates each signature once. (No hint to the
        // verifier's *cap* under lazy hashing: later deepening is
        // pruning-dominant, so front-loading it would over-reserve.)
        pool.depth_hint(sig_depth);
        // Parallel build: hash the corpus chunk-per-thread (spliced back in
        // id order), then construct the band-sharded index. Bit-identical
        // to the serial per-object ensure/insert loop at any thread count.
        let ids: Vec<u32> = data
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(id, _)| id)
            .collect();
        pool.par_ensure_ids(&data, &ids, sig_depth, threads);
        let index = BandingIndex::par_build(plan.params, &ids, threads, |id, band| {
            pool.band_key(id, band, plan.params)
        });
        if self.mode == HashMode::Eager {
            // Materialize the hasher bank to query depth so `&self` queries
            // run entirely under the pool's read lock (even when the corpus
            // had nothing to hash, e.g. all-empty vectors).
            pool.prepare_query(sig_depth, threads);
        }
        let removed = vec![false; data.len()];
        Ok(Searcher {
            data,
            cfg,
            composition: self.composition,
            mode: self.mode,
            threads,
            sig_depth,
            pool: RwLock::new(pool),
            index,
            plan,
            removed,
            n_removed: 0,
            minmatch_cache: MinMatchCache::new(),
        })
    }
}

/// Per-query statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Candidates produced by probing the banding index.
    pub candidates: u64,
    /// Candidates pruned by the posterior test (Bayesian verifiers only).
    pub pruned: u64,
    /// Exact similarity computations.
    pub exact: u64,
    /// Hash comparisons performed.
    pub hash_comparisons: u64,
    /// Bucket lookups against the banding index: one per band for
    /// single-probe queries, up to `probes` per band under step-wise
    /// multi-probe (empty probe steps still count — they paid the lookup).
    pub bucket_probes: u64,
}

/// The result of one threshold point query.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Matching corpus ids with similarities (exact or estimated,
    /// depending on the composition's verifier), sorted by decreasing
    /// similarity. Under the full-BayesLSH verifier this follows the
    /// paper's output contract: every candidate whose posterior
    /// probability of clearing the threshold stayed ≥ ε is emitted with
    /// its estimate, even if the estimate lands slightly below `t`.
    pub neighbors: Vec<(u32, f64)>,
    /// Query statistics.
    pub stats: QueryStats,
}

impl QueryOutput {
    /// Rewrite every neighbour id through `map` (e.g. shard-local →
    /// global), preserving order and statistics. Routers remap before
    /// merging so the merged output speaks global ids throughout.
    pub fn remap_ids(&mut self, map: impl Fn(u32) -> u32) {
        for n in &mut self.neighbors {
            n.0 = map(n.0);
        }
    }
}

/// Merge per-shard threshold-query outputs into the output a single
/// index over the union corpus would produce: neighbours concatenate
/// (candidate sets of disjoint shards partition the global candidate
/// set, and per-candidate verdicts are order-independent on the query
/// path), statistics add, and the merged list is re-sorted by the same
/// total order [`Searcher::query`] uses — decreasing similarity, ties
/// toward the lower id. Call [`QueryOutput::remap_ids`] first so ids
/// are global.
pub fn merge_query_outputs(parts: Vec<QueryOutput>) -> QueryOutput {
    let mut neighbors = Vec::new();
    let mut stats = QueryStats::default();
    for part in parts {
        neighbors.extend(part.neighbors);
        stats.candidates += part.stats.candidates;
        stats.pruned += part.stats.pruned;
        stats.exact += part.stats.exact;
        stats.hash_comparisons += part.stats.hash_comparisons;
        stats.bucket_probes += part.stats.bucket_probes;
    }
    neighbors.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    QueryOutput { neighbors, stats }
}

/// The adjudicated fate of one candidate in a [`Searcher::top_k`] scan,
/// as returned by [`Searcher::scan_top_k_candidate`]. `comparisons` is
/// the number of hash comparisons spent on the candidate (what `top_k`
/// folds into [`KnnStats::hash_comparisons`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CandidateScan {
    /// The posterior test pruned the candidate before exact verification.
    Pruned {
        /// Hash comparisons spent before pruning.
        comparisons: u32,
    },
    /// The candidate survived every chunk; `similarity` is its exact
    /// similarity to the query under the searcher's measure.
    Survivor {
        /// Hash comparisons spent (the full scan budget).
        comparisons: u32,
        /// Exact similarity to the query.
        similarity: f64,
    },
}

/// The result of one top-k query.
#[derive(Debug, Clone)]
pub struct TopKOutput {
    /// Up to `k` most similar corpus ids, sorted by decreasing similarity;
    /// similarities are exact.
    pub neighbors: Vec<(u32, f64)>,
    /// Query statistics.
    pub stats: KnnStats,
}

/// A persistent similarity searcher: one corpus, one signature pool, one
/// banding index — many operations. See the [module docs](crate::searcher)
/// for the full story and [`SearcherBuilder`] for construction.
#[derive(Debug)]
pub struct Searcher {
    data: Dataset,
    cfg: PipelineConfig,
    composition: Composition,
    mode: HashMode,
    /// Worker-thread budget, resolved once at build.
    threads: usize,
    /// Depth every indexed vector is hashed to at build/insert time.
    sig_depth: u32,
    /// The signature pool, behind a lock so `&self` queries can share it:
    /// fully-covered requests run under the read lock, lazy deepening
    /// upgrades to the write lock per call.
    pool: RwLock<SigPool>,
    index: BandingIndex,
    plan: BandingPlan,
    /// Tombstones: `removed[id]` marks a vector deleted by
    /// [`Searcher::remove`] but not yet rewritten out by
    /// [`Searcher::compact`].
    removed: Vec<bool>,
    /// Count of set tombstones.
    n_removed: usize,
    /// Point-query pruning tables, memoized per query shape
    /// `(threshold, ε, k, max_hashes)`; thread-safe, so concurrent readers
    /// and alternating query shapes share it without eviction or
    /// corruption.
    minmatch_cache: MinMatchCache,
}

impl Clone for Searcher {
    fn clone(&self) -> Self {
        Searcher {
            data: self.data.clone(),
            cfg: self.cfg,
            composition: self.composition,
            mode: self.mode,
            threads: self.threads,
            sig_depth: self.sig_depth,
            pool: RwLock::new(self.pool_read().clone()),
            index: self.index.clone(),
            plan: self.plan,
            removed: self.removed.clone(),
            n_removed: self.n_removed,
            minmatch_cache: self.minmatch_cache.clone(),
        }
    }
}

/// The state a snapshot must capture to reconstruct a [`Searcher`]; the
/// derived fields (banding plan, pruning-table memo, pool allocation hint)
/// are recomputed on [`Searcher::from_parts`].
pub(crate) struct SearcherParts {
    pub data: Dataset,
    pub cfg: PipelineConfig,
    pub composition: Composition,
    pub mode: HashMode,
    pub threads: usize,
    pub sig_depth: u32,
    pub pool: SigPool,
    pub index: BandingIndex,
}

impl Searcher {
    /// Start building a searcher for `cfg`.
    pub fn builder(cfg: PipelineConfig) -> SearcherBuilder {
        SearcherBuilder::new(cfg)
    }

    /// The standing signature pool (snapshot serialization), under the
    /// shared read lock.
    pub(crate) fn pool(&self) -> RwLockReadGuard<'_, SigPool> {
        self.pool_read()
    }

    fn pool_read(&self) -> RwLockReadGuard<'_, SigPool> {
        self.pool.read().expect("signature pool lock poisoned")
    }

    fn pool_write(&self) -> RwLockWriteGuard<'_, SigPool> {
        self.pool.write().expect("signature pool lock poisoned")
    }

    fn pool_mut(&mut self) -> &mut SigPool {
        self.pool.get_mut().expect("signature pool lock poisoned")
    }

    /// The standing banding index (snapshot serialization).
    pub(crate) fn index(&self) -> &BandingIndex {
        &self.index
    }

    /// The depth every indexed vector is hashed to at build/insert time.
    pub(crate) fn sig_depth(&self) -> u32 {
        self.sig_depth
    }

    /// Reassemble a searcher from snapshot parts, recomputing everything a
    /// snapshot does not carry exactly as [`SearcherBuilder::build`] would:
    /// the banding plan is a pure function of the config, the pruning-table
    /// memo starts empty (it is rebuilt deterministically on demand), and
    /// the pool gets the same allocation hint future inserts would have
    /// seen.
    pub(crate) fn from_parts(parts: SearcherParts) -> Self {
        let SearcherParts {
            data,
            cfg,
            composition,
            mode,
            threads,
            sig_depth,
            mut pool,
            index,
        } = parts;
        let plan = cfg.banding_plan();
        pool.depth_hint(sig_depth);
        if mode == HashMode::Eager {
            // Same bank materialization `SearcherBuilder::build` performs,
            // so reloaded eager searchers answer `&self` queries under the
            // read lock from the first call.
            pool.prepare_query(sig_depth, threads);
        }
        let removed = vec![false; data.len()];
        Searcher {
            data,
            cfg,
            composition,
            mode,
            threads,
            sig_depth,
            pool: RwLock::new(pool),
            index,
            plan,
            removed,
            n_removed: 0,
            minmatch_cache: MinMatchCache::new(),
        }
    }

    /// The indexed corpus.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// The composition batch runs and point queries verify with.
    pub fn composition(&self) -> Composition {
        self.composition
    }

    /// The hashing mode.
    pub fn hash_mode(&self) -> HashMode {
        self.mode
    }

    /// The worker-thread budget for builds, inserts, compaction and batch
    /// joins, resolved at build time from the configured [`Parallelism`].
    /// `1` means the exact serial path; point queries always run on the
    /// caller's thread.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The banding plan the index was built with, including the achieved
    /// (vs. requested) false-negative rate.
    pub fn banding_plan(&self) -> BandingPlan {
        self.plan
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Total corpus hashes computed so far — the cost the build-once
    /// design amortizes. Under [`HashMode::Eager`] this is constant across
    /// [`Searcher::query`] and [`Searcher::all_pairs`] calls, changing
    /// only on [`Searcher::insert`] — with one exception:
    /// [`Searcher::top_k`] may deepen candidate signatures up to its
    /// per-call `params.h` budget (cached, so repeated top-k queries add
    /// nothing either).
    pub fn hash_count(&self) -> u64 {
        self.pool_read().total_hashes()
    }

    /// Run the configured composition over the whole corpus, reusing the
    /// standing signature pool and banding index. Preconditions were
    /// enforced at build/insert time, so no per-call corpus scan happens.
    /// Takes the pool's write lock for the duration (batch joins may
    /// lazily deepen signatures), so it serializes against concurrent
    /// point queries but never corrupts them.
    ///
    /// # Errors
    ///
    /// None currently — fallible for forward compatibility.
    pub fn all_pairs(&self) -> Result<CompositionOutput, SearchError> {
        let mut pool = self.pool_write();
        let mut ctx = SearchContext {
            data: &self.data,
            cfg: &self.cfg,
            pool: &mut pool,
            index: Some(&self.index),
        };
        let mut out = run_composition_prechecked(self.composition, &mut ctx)?;
        if self.n_removed > 0 {
            // The exact generators (AllPairs, PPJoin+) scan the raw corpus,
            // which keeps tombstoned vectors in place until `compact()`;
            // filter their pairs so every generator agrees with the
            // standing index, where removed ids are already unlinked.
            out.pairs
                .retain(|&(a, b, _)| !self.removed[a as usize] && !self.removed[b as usize]);
        }
        Ok(out)
    }

    /// All corpus vectors whose similarity to `q` clears `threshold`,
    /// verified with the composition's verifier over the standing index.
    ///
    /// Point-query candidates always come from the standing LSH banding
    /// index, whatever the composition's generator — the generator governs
    /// [`Searcher::all_pairs`] batches only; queries share just the
    /// verifier. So even exact compositions (AllPairs, PPJoin+) carry the
    /// banding plan's expected false-negative rate on this path (see
    /// [`Searcher::banding_plan`]). The index was provisioned for
    /// `config().threshold`; that rate holds for
    /// `threshold >= config().threshold` and degrades below it.
    ///
    /// # Errors
    ///
    /// [`SearchError::InvalidConfig`] for a threshold outside `(0, 1]`,
    /// [`SearchError::NonBinaryData`] for a weighted `q` when the
    /// composition needs binary vectors, and
    /// [`SearchError::DimensionExceeded`] when `q` has feature indices
    /// beyond the indexed space (cosine only — the projection planes are
    /// fixed at build time).
    pub fn query(&self, q: &SparseVector, threshold: f64) -> Result<QueryOutput, SearchError> {
        if !(threshold > 0.0 && threshold <= 1.0) {
            return Err(SearchError::invalid(
                "threshold",
                format!("must lie in (0, 1], got {threshold}"),
            ));
        }
        self.check_query(q)?;
        if q.is_empty() || self.data.is_empty() {
            return Ok(QueryOutput {
                neighbors: Vec::new(),
                stats: QueryStats::default(),
            });
        }

        let params = self.plan.params;
        let scan_cap = self.composition.verifier.signature_depth(&self.cfg);
        let depth = params.total_hashes().max(scan_cap);

        // Fast path: when the hasher bank covers the query depth and every
        // candidate's stored signature covers the verifier's scan cap
        // (always, under eager hashing), the whole query runs under the
        // shared read lock — concurrent readers never block each other.
        {
            let pool = self.pool_read();
            if pool.query_ready(depth) {
                let sig = pool.hash_query_ready(q, depth);
                let keys = pool.query_band_keys(&sig, params);
                let (cand_ids, probes) = self.probe_query_index(&pool, q, &keys);
                if cand_ids.iter().all(|&id| pool.len(id) >= scan_cap) {
                    let mut access = ReadPool(&*pool);
                    return Ok(self.verify_query(
                        &mut access,
                        q,
                        threshold,
                        &sig,
                        &cand_ids,
                        probes,
                    ));
                }
            }
        }

        // Slow path (lazy hashing with signatures still shallow): redo the
        // query under the write lock with the usual lazy extension.
        // Signature bits are pure functions of (object, position), so this
        // path is bit-identical to the read path.
        let mut pool = self.pool_write();
        let sig = pool.hash_query(q, depth);
        let keys = pool.query_band_keys(&sig, params);
        let (cand_ids, probes) = self.probe_query_index(&pool, q, &keys);
        let mut access = WritePool(&mut *pool);
        Ok(self.verify_query(&mut access, q, threshold, &sig, &cand_ids, probes))
    }

    /// Generate candidates for a threshold point query, honouring the
    /// [`crate::pipeline::PipelineConfig::probes`] knob. Single-probe (the
    /// default, and the only option for integer-hash families, whose band
    /// keys are FxHash digests with no meaningful single-bit flips) keeps
    /// the one-lookup-per-band fast path; `probes > 1` on a bit family
    /// walks the step-wise multi-probe sequences instead. Returns the
    /// deduplicated candidate ids and the number of bucket lookups paid.
    fn probe_query_index(&self, pool: &SigPool, q: &SparseVector, keys: &[u64]) -> (Vec<u32>, u64) {
        let params = self.plan.params;
        let probes = match pool {
            // The base bucket plus one probe per flippable band bit.
            SigPool::Bits(_) => self.cfg.probes.min(params.k as usize + 1),
            SigPool::Ints(_) | SigPool::Projs(_) => 1,
        };
        if probes <= 1 {
            return (self.index.probe(keys), keys.len() as u64);
        }
        let SigPool::Bits(bits) = pool else {
            unreachable!("multi-probe clamps to 1 for non-bit pools")
        };
        // Per-band probe sequences: the band's own key first, then
        // single-bit flips in ascending-|margin| order — the bit whose
        // projection landed closest to its hyperplane is the likeliest to
        // differ for a true near neighbour, so its flip has the highest
        // expected collision probability.
        let mut margins = Vec::new();
        bits.hasher()
            .project_into(q, 0, params.total_hashes(), &mut margins);
        let seqs: Vec<Vec<u64>> = keys
            .iter()
            .enumerate()
            .map(|(band, &base)| {
                let lo = band * params.k as usize;
                let mut bit_order: Vec<usize> = (0..params.k as usize).collect();
                bit_order.sort_by(|&a, &b| {
                    margins[lo + a]
                        .abs()
                        .total_cmp(&margins[lo + b].abs())
                        .then(a.cmp(&b))
                });
                let mut seq = Vec::with_capacity(probes);
                seq.push(base);
                seq.extend(
                    bit_order
                        .iter()
                        .take(probes - 1)
                        .map(|&bit| base ^ (1u64 << bit)),
                );
                seq
            })
            .collect();
        self.index.probe_multi(&seqs)
    }

    /// Verify a point query's candidates with the composition's verifier,
    /// on the caller's thread: exact and MLE verdicts directly, the
    /// Bayesian and SPRT verifiers through the shared run-major scan
    /// (the query signature is the probe, the candidates one run).
    /// Neighbours come back sorted by decreasing similarity, ties toward
    /// the lower id.
    fn verify_query<A: PoolAccess<Pool = SigPool>>(
        &self,
        pool: &mut A,
        q: &SparseVector,
        t: f64,
        sig: &[u32],
        cand_ids: &[u32],
        bucket_probes: u64,
    ) -> QueryOutput {
        let data = &self.data;
        let cfg = &self.cfg;
        let measure = cfg.family.measure();
        let exact = |a: &SparseVector, b: &SparseVector| measure.eval(a, b);
        let mut stats = QueryStats {
            candidates: cand_ids.len() as u64,
            bucket_probes,
            ..Default::default()
        };
        let mut neighbors = Vec::new();
        let probe = QueryProbe { sig, q };
        let engine = match self.composition.verifier {
            VerifierKind::Exact => {
                stats.exact = cand_ids.len() as u64;
                with_scratch(|scratch| {
                    let mut query = ExactProbe::new(measure, q, scratch);
                    neighbors.extend(cand_ids.iter().filter_map(|&id| {
                        let s = query.eval(data.vector(id));
                        (s >= t).then_some((id, s))
                    }));
                });
                None
            }
            VerifierKind::Mle => {
                // One batched word-parallel sweep over the fixed depth.
                let n = cfg.approx_hashes;
                for &id in cand_ids {
                    pool.ensure(data, id, n);
                }
                let mut counts = Vec::new();
                pool.get()
                    .query_agreements_batched(sig, cand_ids, 0, n, &mut counts);
                stats.hash_comparisons = cand_ids.len() as u64 * n as u64;
                neighbors.extend(cand_ids.iter().zip(&counts).filter_map(|(&id, &m)| {
                    let s_hat = similarity_at(cfg, m as f64 / n as f64);
                    (s_hat >= t).then_some((id, s_hat))
                }));
                None
            }
            VerifierKind::Bayes => {
                let model = self.query_model();
                let table = self.query_minmatch(&*model, t, cfg.max_hashes);
                let mut rule = Bayes::new(&table, &*model, cfg.delta, cfg.gamma);
                Some(scan_query(
                    data,
                    pool,
                    &probe,
                    cand_ids,
                    &mut rule,
                    &mut neighbors,
                ))
            }
            VerifierKind::BayesLite => {
                let model = self.query_model();
                let table = self.query_minmatch(&*model, t, cfg.lite_h);
                let mut rule = Lite::new(&table, exact, t);
                Some(scan_query(
                    data,
                    pool,
                    &probe,
                    cand_ids,
                    &mut rule,
                    &mut neighbors,
                ))
            }
            VerifierKind::Sprt => {
                // Rebuilt per query rather than memoized: unlike the
                // `MinMatchTable` (whose entries integrate posterior tails),
                // the boundary table is a handful of logarithms plus a
                // binary search per chunk — cheaper than a cache lookup
                // under contention.
                let sprt = SprtConfig {
                    threshold: t,
                    ..cfg.sprt()
                };
                let table = SprtTable::build(&sprt, |s| collision_at(cfg, s));
                let estimate = |frac| similarity_at(cfg, frac);
                let mut rule = Sprt::new(&table, sprt.max_hashes, estimate, exact, t);
                Some(scan_query(
                    data,
                    pool,
                    &probe,
                    cand_ids,
                    &mut rule,
                    &mut neighbors,
                ))
            }
        };
        if let Some(engine) = engine {
            stats.pruned = engine.pruned;
            stats.exact = engine.exact_verifications;
            stats.hash_comparisons = engine.hash_comparisons;
        }
        neighbors.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        QueryOutput { neighbors, stats }
    }

    /// The posterior model point queries and top-k prune with: the
    /// family's model, with the uniform Jaccard prior (the fitted prior is
    /// a batch concept — it samples candidate *pairs*).
    fn query_model(&self) -> Box<dyn PosteriorModel + Send + Sync> {
        posterior_model(&self.cfg, JaccardModel::uniform)
    }

    /// The pruning table for point queries at threshold `t` scanning up to
    /// `cap` hashes (rounded down to whole chunks, at least one), memoized
    /// across queries (the model is fixed per searcher by its measure).
    /// Every `(t, max_hashes)` shape seen stays cached — alternating query
    /// shapes do not evict each other — and the memo is thread-safe, so
    /// concurrent readers share it.
    fn query_minmatch(&self, model: &dyn PosteriorModel, t: f64, cap: u32) -> Arc<MinMatchTable> {
        let k = self.cfg.k;
        self.minmatch_cache
            .get_or_build(model, t, self.cfg.epsilon, k, (cap / k).max(1) * k)
    }

    /// Top-`k` most similar corpus vectors to `q`, sorted by decreasing
    /// similarity, with Bayesian candidate pruning against the rising
    /// k-th-best similarity (the paper's future-work recipe). Exact
    /// similarities are returned for every reported neighbour.
    ///
    /// Pruning depth is governed by `params.h` (not the composition's
    /// verifier), so candidates may be lazily deepened up to `params.h`
    /// hashes even under [`HashMode::Eager`]; extensions are cached, so
    /// repeated queries never re-hash.
    ///
    /// # Errors
    ///
    /// [`SearchError::InvalidConfig`] for `k == 0` or out-of-range
    /// [`KnnParams`], [`SearchError::NonBinaryData`] and
    /// [`SearchError::DimensionExceeded`] as for [`Searcher::query`].
    pub fn top_k(
        &self,
        q: &SparseVector,
        k: usize,
        params: &KnnParams,
    ) -> Result<TopKOutput, SearchError> {
        if k == 0 {
            return Err(SearchError::invalid("k", "need at least one neighbour"));
        }
        params.validate()?;
        self.check_query(q)?;
        let mut stats = KnnStats::default();
        if q.is_empty() || self.data.is_empty() {
            return Ok(TopKOutput {
                neighbors: Vec::new(),
                stats,
            });
        }

        let banding = self.plan.params;
        let scan_cap = (params.h / params.chunk) * params.chunk;
        let depth = banding.total_hashes().max(scan_cap);

        // Fast path under the shared read lock: possible when the hasher
        // bank covers the query depth and every candidate's stored
        // signature covers the full scan budget. (`params.h` may exceed
        // even an eager build's depth, in which case the first such query
        // deepens the candidates under the write lock below — and caches
        // them, so repeat queries come back to this path.)
        {
            let pool = self.pool_read();
            if pool.query_ready(depth) {
                let sig = pool.hash_query_ready(q, depth);
                let keys = pool.query_band_keys(&sig, banding);
                let cand_ids = self.index.probe(&keys);
                if cand_ids.iter().all(|&id| pool.len(id) >= scan_cap) {
                    stats.candidates = cand_ids.len() as u64;
                    let mut access = ReadPool(&*pool);
                    let neighbors =
                        self.top_k_scan(&mut access, q, &sig, &cand_ids, k, params, &mut stats);
                    return Ok(TopKOutput { neighbors, stats });
                }
            }
        }

        let mut pool = self.pool_write();
        let sig = pool.hash_query(q, depth);
        let keys = pool.query_band_keys(&sig, banding);
        let cand_ids = self.index.probe(&keys);
        stats.candidates = cand_ids.len() as u64;
        let mut access = WritePool(&mut *pool);
        let neighbors = self.top_k_scan(&mut access, q, &sig, &cand_ids, k, params, &mut stats);
        Ok(TopKOutput { neighbors, stats })
    }

    /// Everything [`Searcher::top_k`] does after candidate generation:
    /// first-chunk batched agreements, then the sequential rising-threshold
    /// pruning scan — sequential by design: the rising k-th-best threshold
    /// makes each candidate's verdict depend on all previous ones, and
    /// keeping that order is what makes top-k output deterministic.
    /// Generic over the pool handle so the read- and write-lock paths share
    /// one implementation.
    #[allow(clippy::too_many_arguments)]
    fn top_k_scan<A: PoolAccess<Pool = SigPool>>(
        &self,
        pool: &mut A,
        q: &SparseVector,
        sig: &[u32],
        cand_ids: &[u32],
        k: usize,
        params: &KnnParams,
        stats: &mut KnnStats,
    ) -> Vec<(u32, f64)> {
        let model = self.query_model();
        let measure = self.cfg.family.measure();

        // Every candidate pays at least one chunk, and chunk-1 agreement
        // counts do not depend on the rising threshold — so count them all
        // up front in one batched word-parallel sweep, leaving only the
        // (order-dependent) verdicts and deeper chunks to the sequential
        // scan below.
        for &id in cand_ids {
            pool.ensure(&self.data, id, params.chunk);
        }
        let mut first = Vec::new();
        pool.get()
            .query_agreements_batched(sig, cand_ids, 0, params.chunk, &mut first);

        // Min-heap of the current top-k (similarity, id); the k-th best
        // similarity is a rising pruning threshold. Survivors are scored
        // against the query scattered once, at the first survivor.
        let mut heap: BinaryHeap<std::cmp::Reverse<HeapItem>> = BinaryHeap::with_capacity(k + 1);
        let mut kth_best = params.floor;
        with_scratch(|scratch| {
            let mut exact = ExactProbe::new(measure, q, scratch);
            for (&id, &m1) in cand_ids.iter().zip(&first) {
                let (pruned, n) =
                    scan_candidate_resume(&self.data, pool, &*model, sig, id, m1, params, kth_best);
                stats.hash_comparisons += n as u64;
                if pruned {
                    stats.pruned += 1;
                    continue;
                }
                stats.exact += 1;
                let s = exact.eval(self.data.vector(id));
                if heap.len() < k {
                    heap.push(std::cmp::Reverse(HeapItem(s, id)));
                } else if s > heap.peek().unwrap().0 .0 {
                    heap.pop();
                    heap.push(std::cmp::Reverse(HeapItem(s, id)));
                }
                if heap.len() == k {
                    kth_best = heap.peek().unwrap().0 .0.max(params.floor);
                }
            }
        });
        let mut neighbors: Vec<(u32, f64)> = heap
            .into_iter()
            .map(|std::cmp::Reverse(HeapItem(s, id))| (id, s))
            .collect();
        neighbors.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        neighbors
    }

    /// Append a vector to the corpus, extending the signature pool and
    /// banding index in place. Returns the new vector's id.
    ///
    /// An **empty** vector is accepted: it takes up an id and lives in the
    /// corpus, but is never hashed or indexed, so it cannot appear as a
    /// candidate of any query, top-k, or batch join (its similarity to
    /// everything is zero/undefined). It remains [`Searcher::remove`]-able
    /// and round-trips through snapshots like any other id.
    ///
    /// # Errors
    ///
    /// [`SearchError::NonBinaryData`] when the composition needs binary
    /// vectors, [`SearchError::DimensionExceeded`] when `v` has feature
    /// indices beyond the indexed space (cosine only).
    pub fn insert(&mut self, v: SparseVector) -> Result<u32, SearchError> {
        self.check_query(&v)?;
        let id = self.data.push(v);
        self.removed.push(false);
        let pool = self.pool.get_mut().expect("signature pool lock poisoned");
        pool.grow_to(self.data.len());
        let v = self.data.vector(id);
        if !v.is_empty() {
            if self.threads > 1 {
                // One object, many hashes: split the new signature's hash
                // range across the thread budget (bit-identical splice).
                pool.par_ensure_ids(&self.data, &[id], self.sig_depth, self.threads);
            } else {
                pool.ensure(id, v, self.sig_depth);
            }
            self.index.insert(id, &pool.band_keys(id, self.plan.params));
        }
        Ok(id)
    }

    /// Remove vector `id` from search: it stops appearing in any query,
    /// top-k, or batch output immediately. The vector's storage and
    /// signature stay in place — ids are stable — until
    /// [`Searcher::compact`] rewrites them out. Returns `Ok(true)` when
    /// the id was live, `Ok(false)` when it was already removed.
    ///
    /// # Errors
    ///
    /// [`SearchError::InvalidConfig`] for an id outside the corpus.
    pub fn remove(&mut self, id: u32) -> Result<bool, SearchError> {
        if (id as usize) >= self.data.len() {
            return Err(SearchError::invalid(
                "id",
                format!("no such vector: {id} (corpus holds {})", self.data.len()),
            ));
        }
        if self.removed[id as usize] {
            return Ok(false);
        }
        if !self.data.vector(id).is_empty() {
            let pool = self.pool.get_mut().expect("signature pool lock poisoned");
            let keys = pool.band_keys(id, self.plan.params);
            self.index.remove(id, &keys);
        }
        self.removed[id as usize] = true;
        self.n_removed += 1;
        Ok(true)
    }

    /// True when `id` has been [`Searcher::remove`]d and not yet
    /// rewritten out by [`Searcher::compact`] (which clears tombstones
    /// while keeping ids stable).
    pub fn is_removed(&self, id: u32) -> bool {
        self.removed.get(id as usize).copied().unwrap_or(false)
    }

    /// Number of tombstoned vectors awaiting [`Searcher::compact`].
    pub fn pending_removals(&self) -> usize {
        self.n_removed
    }

    /// Rewrite removed vectors out of the standing state: their vector
    /// data and signatures are dropped (reclaiming memory and hash
    /// accounting) and the banding index is rebuilt over the survivors.
    /// Ids are **stable** — a removed id keeps its slot as a permanently
    /// empty vector, exactly the representation an empty
    /// [`Searcher::insert`] produces — so snapshots and shard manifests
    /// round-trip unchanged. Returns the number of vectors compacted away.
    pub fn compact(&mut self) -> usize {
        if self.n_removed == 0 {
            return 0;
        }
        let pool = self.pool.get_mut().expect("signature pool lock poisoned");
        for id in 0..self.data.len() as u32 {
            if self.removed[id as usize] {
                self.data.clear_vector(id);
                pool.clear(id);
            }
        }
        // Rebuild the index from scratch over the survivors: removal left
        // emptied buckets behind (to keep probe order stable mid-flight),
        // and a fresh build sheds them exactly as `SearcherBuilder::build`
        // would lay the survivors out.
        let ids: Vec<u32> = self
            .data
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(id, _)| id)
            .collect();
        let plan = self.plan;
        let threads = self.threads;
        self.index = BandingIndex::par_build(plan.params, &ids, threads, |id, band| {
            pool.band_key(id, band, plan.params)
        });
        let count = self.n_removed;
        self.removed.iter_mut().for_each(|r| *r = false);
        self.n_removed = 0;
        count
    }

    /// Enforce the preconditions every incoming vector (query or insert)
    /// must meet: binary support when the composition demands it, and —
    /// for the projection families (SRP for cosine/MIPS, E2LSH for L2),
    /// whose projection banks fix the feature space at build time — no
    /// feature indices beyond the indexed dimensionality.
    fn check_query(&self, v: &SparseVector) -> Result<(), SearchError> {
        let measure = self.cfg.family.measure();
        if self.composition.requires_binary(measure) && !v.is_binary() {
            return Err(SearchError::NonBinaryData {
                requires: self.composition.binary_requirement(measure),
            });
        }
        let pool = self.pool_read();
        let dim = match &*pool {
            SigPool::Bits(pool) => Some(pool.hasher().dim()),
            SigPool::Projs(pool) => Some(pool.hasher().dim()),
            SigPool::Ints(_) => None,
        };
        if let Some(dim) = dim {
            if v.min_dim() > dim {
                return Err(SearchError::DimensionExceeded {
                    dim,
                    needed: v.min_dim(),
                });
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Scatter-gather hooks.
    //
    // A sharded router serves the same contract as one big `Searcher`
    // by splitting a query across per-shard searchers and merging. The
    // order-independent paths (`query`) merge whole outputs; `top_k`'s
    // rising-threshold scan is order-*dependent*, so the router instead
    // reconstructs the single-index candidate order from the hooks below
    // and replays the sequential scan itself, one candidate at a time,
    // against whichever shard owns each candidate.
    // ------------------------------------------------------------------

    /// Validate `v` as a query/insert vector for this searcher — the
    /// same preconditions [`Searcher::query`], [`Searcher::top_k`], and
    /// [`Searcher::insert`] enforce (binary support where the composition
    /// demands it; for cosine, no feature index beyond the indexed
    /// space). Lets a router fail a scatter-gather request up front with
    /// the identical [`SearchError`] a single index would produce.
    pub fn validate_query_vector(&self, v: &SparseVector) -> Result<(), SearchError> {
        self.check_query(v)
    }

    /// Hash `q` to a `depth`-hash query signature using this searcher's
    /// hash family, on the caller's thread. Because the family is a pure
    /// function of the config seed and feature-space dimensionality — both
    /// forced global across shards — a signature computed on one shard is
    /// valid against every shard of the same build.
    pub fn hash_query_signature(&mut self, q: &SparseVector, depth: u32) -> Vec<u32> {
        self.pool_mut().hash_query(q, depth)
    }

    /// Probe the banding index with query signature `sig` and annotate
    /// each candidate with the **first band** whose bucket produced it:
    /// returns deduplicated `(local id, first matching band)` pairs.
    ///
    /// A single index emits candidates in `(first band, id)` order — the
    /// probe walks bands in order and each bucket in ascending-id order,
    /// deduplicating on first encounter. Per-shard candidate sets
    /// partition a global index's buckets without reordering either
    /// component, so a router can rebuild the exact single-index
    /// emission order by merging per-shard results on
    /// `(first band, global id)`.
    pub fn probe_first_bands(&self, sig: &[u32]) -> Vec<(u32, u32)> {
        let params = self.plan.params;
        let pool = self.pool_read();
        let keys = pool.query_band_keys(sig, params);
        self.index
            .probe(&keys)
            .into_iter()
            .map(|id| {
                let band = (0..params.l)
                    .find(|&b| pool.band_key(id, b, params) == keys[b as usize])
                    .expect("probed candidate must share a band key with the query");
                (id, band)
            })
            .collect()
    }

    /// Agreement counts between `sig` and each of `ids` over hash range
    /// `[0, chunk)`, extending pool signatures as needed. This is
    /// [`Searcher::top_k`]'s batched first-chunk sweep, exposed so a
    /// router can pay each shard's first chunk up front — the counts are
    /// independent of the rising threshold, so only the verdicts remain
    /// sequential.
    pub fn first_chunk_agreements(&mut self, sig: &[u32], ids: &[u32], chunk: u32) -> Vec<u32> {
        let pool = self.pool.get_mut().expect("signature pool lock poisoned");
        for &id in ids {
            pool.ensure(id, self.data.vector(id), chunk);
        }
        let mut out = Vec::new();
        pool.query_agreements_batched(sig, ids, 0, chunk, &mut out);
        out
    }

    /// Run one candidate of [`Searcher::top_k`]'s sequential pruning
    /// scan: resume from first-chunk agreement count `first_m` (from
    /// [`Searcher::first_chunk_agreements`]) and test against the
    /// caller-supplied pruning threshold `prune_below` (the rising
    /// k-th-best similarity, captured once per candidate exactly as
    /// `top_k` does). The outcome is a pure function of the arguments
    /// and the candidate's signature, so a router replaying candidates
    /// in single-index order reproduces `top_k` bit for bit.
    ///
    /// `params` must satisfy the [`Searcher::top_k`] preconditions
    /// (`chunk >= 1`, `h >= chunk`); survivors carry the exact
    /// similarity under this searcher's measure.
    pub fn scan_top_k_candidate(
        &mut self,
        q: &SparseVector,
        sig: &[u32],
        id: u32,
        first_m: u32,
        params: &KnnParams,
        prune_below: f64,
    ) -> CandidateScan {
        debug_assert!(params.chunk >= 1 && params.h >= params.chunk);
        let model = self.query_model();
        let pool = self.pool.get_mut().expect("signature pool lock poisoned");
        let (pruned, comparisons) = scan_candidate_resume(
            &self.data,
            &mut WritePool(pool),
            &*model,
            sig,
            id,
            first_m,
            params,
            prune_below,
        );
        if pruned {
            CandidateScan::Pruned { comparisons }
        } else {
            CandidateScan::Survivor {
                comparisons,
                similarity: self.cfg.family.measure().eval(q, self.data.vector(id)),
            }
        }
    }
}

/// A point query as a scan probe: its signature, hashed up front, and its
/// vector for the exact check.
struct QueryProbe<'a> {
    sig: &'a [u32],
    q: &'a SparseVector,
}

impl Probe<SigPool> for QueryProbe<'_> {
    fn ensure<A: PoolAccess<Pool = SigPool>>(&self, _: &mut A, _: &Dataset, _: u32) {}

    #[inline]
    fn count(&self, pool: &SigPool, ids: &[u32], lo: u32, hi: u32, out: &mut Vec<u32>) {
        pool.query_agreements_batched(self.sig, ids, lo, hi, out);
    }

    fn vector<'a>(&'a self, _: &'a Dataset) -> &'a SparseVector {
        self.q
    }
}

/// Run the shared scan over one point query's candidates, pushing accepted
/// `(id, similarity)` pairs onto `neighbors`; returns the scan counters.
fn scan_query<A, R>(
    data: &Dataset,
    pool: &mut A,
    probe: &QueryProbe<'_>,
    cand_ids: &[u32],
    rule: &mut R,
    neighbors: &mut Vec<(u32, f64)>,
) -> EngineStats
where
    A: PoolAccess<Pool = SigPool>,
    R: ScanRule,
{
    let mut scanner = Scanner::new(rule);
    scanner.run(data, pool, probe, cand_ids, rule, |id, s| {
        neighbors.push((id, s))
    });
    scanner.stats
}

/// One candidate of [`Searcher::top_k`]'s sequential scan: resume from the
/// first chunk's agreement count `m1` (precomputed for every candidate in
/// one batched sweep — it is independent of the rising threshold, so only
/// the verdicts remain order-dependent), then compare `params.chunk`
/// hashes at a time until `Pr[S ≥ prune_below | m, n] < ε` prunes the
/// candidate or `params.h` runs out. Returns whether it was pruned and the
/// hash comparisons spent.
#[allow(clippy::too_many_arguments)]
fn scan_candidate_resume<A: PoolAccess<Pool = SigPool>>(
    data: &Dataset,
    pool: &mut A,
    model: &dyn PosteriorModel,
    sig: &[u32],
    id: u32,
    m1: u32,
    params: &KnnParams,
    prune_below: f64,
) -> (bool, u32) {
    let chunk = params.chunk;
    let (mut m, mut n) = (m1, chunk);
    loop {
        if model.prob_above_threshold(m, n, prune_below) < params.epsilon {
            return (true, n);
        }
        if n + chunk > params.h {
            return (false, n);
        }
        pool.ensure(data, id, n + chunk);
        m += pool.get().query_agreements(sig, id, n, n + chunk);
        n += chunk;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayeslsh_numeric::Xoshiro256;
    use bayeslsh_sparse::{cosine, jaccard};

    fn corpus(seed: u64) -> Dataset {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut d = Dataset::new(3000);
        for c in 0..10 {
            let center: Vec<(u32, f32)> = (0..35)
                .map(|_| {
                    (
                        (c * 250 + rng.next_below(230) as usize) as u32,
                        (rng.next_f64() + 0.3) as f32,
                    )
                })
                .collect();
            for _ in 0..6 {
                let mut pairs = center.clone();
                for p in pairs.iter_mut() {
                    if rng.next_bool(0.2) {
                        *p = (rng.next_below(3000) as u32, (rng.next_f64() + 0.3) as f32);
                    }
                }
                d.push(SparseVector::from_pairs(pairs));
            }
        }
        d
    }

    #[test]
    fn build_validates_config() {
        let mut cfg = PipelineConfig::cosine(0.7);
        cfg.epsilon = 0.0;
        let err = Searcher::builder(cfg).build(corpus(1)).unwrap_err();
        assert!(matches!(
            err,
            SearchError::InvalidConfig {
                param: "epsilon",
                ..
            }
        ));
    }

    #[test]
    fn build_rejects_non_binary_jaccard() {
        let err = Searcher::builder(PipelineConfig::jaccard(0.5))
            .build(corpus(2))
            .unwrap_err();
        assert!(matches!(err, SearchError::NonBinaryData { .. }));
        // Binarized data builds fine.
        Searcher::builder(PipelineConfig::jaccard(0.5))
            .build(corpus(2).binarized())
            .unwrap();
    }

    #[test]
    fn query_finds_self_and_respects_threshold() {
        let data = corpus(3);
        let s = Searcher::builder(PipelineConfig::cosine(0.7))
            .algorithm(Algorithm::LshBayesLshLite)
            .build(data)
            .unwrap();
        for qid in [0u32, 13, 47] {
            let q = s.data().vector(qid).clone();
            let out = s.query(&q, 0.7).unwrap();
            assert!(
                out.neighbors.iter().any(|&(id, _)| id == qid),
                "query {qid} must find itself"
            );
            // Lite verification is exact for survivors.
            for &(id, sim) in &out.neighbors {
                assert!(sim >= 0.7);
                assert_eq!(sim.to_bits(), cosine(&q, s.data().vector(id)).to_bits());
            }
            assert!(out.stats.candidates >= out.neighbors.len() as u64);
        }
    }

    #[test]
    fn eager_queries_never_touch_the_corpus_pool() {
        let data = corpus(4);
        let s = Searcher::builder(PipelineConfig::cosine(0.7))
            .build(data)
            .unwrap();
        let built = s.hash_count();
        assert!(built > 0);
        for qid in (0..s.len() as u32).step_by(5) {
            let q = s.data().vector(qid).clone();
            s.query(&q, 0.7).unwrap();
        }
        assert_eq!(
            s.hash_count(),
            built,
            "eager mode: queries must not extend corpus signatures"
        );
    }

    #[test]
    fn lazy_queries_extend_once_and_amortize() {
        let data = corpus(5);
        let s = Searcher::builder(PipelineConfig::cosine(0.7))
            .hash_mode(HashMode::Lazy)
            .build(data)
            .unwrap();
        let built = s.hash_count();
        let q = s.data().vector(7).clone();
        s.query(&q, 0.7).unwrap();
        let after_first = s.hash_count();
        assert!(after_first >= built);
        // The same query again hashes nothing new.
        s.query(&q, 0.7).unwrap();
        assert_eq!(s.hash_count(), after_first);
    }

    #[test]
    fn insert_then_query_finds_the_new_vector() {
        let data = corpus(6);
        let mut s = Searcher::builder(PipelineConfig::cosine(0.7))
            .algorithm(Algorithm::Lsh)
            .build(data)
            .unwrap();
        let planted = s.data().vector(11).clone();
        let before = s.len() as u32;
        let id = s.insert(planted.clone()).unwrap();
        assert_eq!(id, before);
        let out = s.query(&planted, 0.7).unwrap();
        assert!(
            out.neighbors
                .iter()
                .any(|&(got, sim)| got == id && sim > 0.999),
            "query must surface the inserted duplicate: {:?}",
            out.neighbors
        );
    }

    #[test]
    fn insert_rejects_outgrown_dimension_for_cosine() {
        let data = corpus(7);
        let dim = data.dim();
        let mut s = Searcher::builder(PipelineConfig::cosine(0.7))
            .build(data)
            .unwrap();
        let err = s
            .insert(SparseVector::from_indices(vec![dim + 10]))
            .unwrap_err();
        assert!(matches!(err, SearchError::DimensionExceeded { .. }));
    }

    #[test]
    fn top_k_returns_sorted_exact_neighbours() {
        let data = corpus(8);
        let s = Searcher::builder(PipelineConfig::cosine(0.5))
            .build(data)
            .unwrap();
        let q = s.data().vector(3).clone();
        let out = s.top_k(&q, 5, &KnnParams::default()).unwrap();
        assert!(!out.neighbors.is_empty());
        assert_eq!(out.neighbors[0].0, 3, "self must rank first");
        for w in out.neighbors.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        for &(id, sim) in &out.neighbors {
            assert_eq!(sim.to_bits(), cosine(&q, s.data().vector(id)).to_bits());
        }
        assert!(s.top_k(&q, 0, &KnnParams::default()).is_err());
    }

    #[test]
    fn jaccard_exact_scoring_handles_feature_ids_near_u32_max() {
        // Hashed shingle ids spread across `u32`; Jaccard has no dimension
        // check, so the exact step must score such ids without sizing
        // anything by them.
        let spread = |i: u32| (i as u64 * 2_654_435_761 % u32::MAX as u64) as u32;
        let data = Dataset::from_vectors(
            corpus(9)
                .vectors()
                .iter()
                .map(|v| {
                    SparseVector::from_indices(v.indices().iter().map(|&i| spread(i)).collect())
                })
                .collect(),
            0,
        );
        let s = Searcher::builder(PipelineConfig::jaccard(0.5))
            .algorithm(Algorithm::Lsh)
            .build(data)
            .unwrap();
        for qid in [0u32, 13, 47] {
            let mut ids = s.data().vector(qid).indices().to_vec();
            ids.extend([3_000_000_000, u32::MAX - 1]);
            let q = SparseVector::from_indices(ids);
            let out = s.query(&q, 0.5).unwrap();
            assert!(out.neighbors.iter().any(|&(id, _)| id == qid));
            for &(id, sim) in &out.neighbors {
                assert_eq!(sim.to_bits(), jaccard(&q, s.data().vector(id)).to_bits());
            }
            let top = s.top_k(&q, 5, &KnnParams::default()).unwrap();
            assert_eq!(top.neighbors[0].0, qid);
            for &(id, sim) in &top.neighbors {
                assert_eq!(sim.to_bits(), jaccard(&q, s.data().vector(id)).to_bits());
            }
        }
    }

    /// Fifteen clusters of eight noisy copies: every query has a handful
    /// of true neighbours and a long tail of junk candidates.
    fn knn_corpus(seed: u64) -> Dataset {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut d = Dataset::new(3000);
        for c in 0..15 {
            let center: Vec<(u32, f32)> = (0..40)
                .map(|_| {
                    (
                        (c * 200 + rng.next_below(190) as usize) as u32,
                        (rng.next_f64() + 0.3) as f32,
                    )
                })
                .collect();
            for _ in 0..8 {
                let mut pairs = center.clone();
                for p in pairs.iter_mut() {
                    if rng.next_bool(0.2) {
                        *p = (rng.next_below(3000) as u32, (rng.next_f64() + 0.3) as f32);
                    }
                }
                d.push(SparseVector::from_pairs(pairs));
            }
        }
        d
    }

    fn brute_top_k(data: &Dataset, q: &SparseVector, k: usize, skip: u32) -> Vec<u32> {
        let mut sims: Vec<(u32, f64)> = data
            .iter()
            .filter(|&(id, _)| id != skip)
            .map(|(id, v)| (id, cosine(q, v)))
            .collect();
        sims.sort_by(|a, b| b.1.total_cmp(&a.1));
        sims.truncate(k);
        sims.into_iter().map(|(id, _)| id).collect()
    }

    #[test]
    fn top_k_finds_most_true_neighbours() {
        let s = Searcher::builder(PipelineConfig::cosine(0.5))
            .build(knn_corpus(201))
            .unwrap();
        let k = 5;
        let (mut hits, mut total) = (0usize, 0usize);
        for qid in (0..s.len() as u32).step_by(11) {
            let q = s.data().vector(qid).clone();
            let got = s.top_k(&q, k + 1, &KnnParams::default()).unwrap().neighbors;
            assert_eq!(got[0].0, qid, "self must rank first");
            let got: std::collections::HashSet<u32> = got.iter().skip(1).map(|n| n.0).collect();
            for t in brute_top_k(s.data(), &q, k, qid) {
                total += 1;
                hits += usize::from(got.contains(&t));
            }
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.75, "k-NN recall@{k} = {recall}");
    }

    #[test]
    fn top_k_pruning_actually_happens() {
        let s = Searcher::builder(PipelineConfig::cosine(0.3))
            .build(knn_corpus(203))
            .unwrap();
        let q = s.data().vector(0).clone();
        let stats = s.top_k(&q, 3, &KnnParams::default()).unwrap().stats;
        assert!(stats.candidates > 20, "want a non-trivial candidate set");
        assert!(stats.pruned > 0, "the Bayesian filter should prune");
        assert!(
            stats.exact < stats.candidates,
            "exact computations {} should undercut candidates {}",
            stats.exact,
            stats.candidates
        );
    }

    #[test]
    fn top_k_handles_empty_query_and_small_k() {
        let s = Searcher::builder(PipelineConfig::cosine(0.5))
            .build(knn_corpus(204))
            .unwrap();
        let out = s
            .top_k(&SparseVector::empty(), 5, &KnnParams::default())
            .unwrap();
        assert!(out.neighbors.is_empty());
        assert_eq!(out.stats.candidates, 0);
        let q = s.data().vector(1).clone();
        let one = s.top_k(&q, 1, &KnnParams::default()).unwrap().neighbors;
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].0, 1);
    }

    #[test]
    fn top_k_rising_threshold_tightens_pruning() {
        // With a higher floor the pruning threshold starts high, so more
        // candidates die early.
        let s = Searcher::builder(PipelineConfig::cosine(0.3))
            .build(knn_corpus(205))
            .unwrap();
        let q = s.data().vector(5).clone();
        let run = |floor| {
            let params = KnnParams {
                floor,
                ..Default::default()
            };
            s.top_k(&q, 3, &params).unwrap().stats
        };
        let (lax, strict) = (run(0.05), run(0.6));
        assert!(
            strict.exact <= lax.exact,
            "strict floor should not need more exact computations ({} vs {})",
            strict.exact,
            lax.exact
        );
    }

    #[test]
    fn all_pairs_can_run_repeatedly_without_rehashing() {
        let data = corpus(9);
        let s = Searcher::builder(PipelineConfig::cosine(0.7))
            .algorithm(Algorithm::LshBayesLsh)
            .build(data)
            .unwrap();
        let first = s.all_pairs().unwrap();
        let hashes = s.hash_count();
        let second = s.all_pairs().unwrap();
        assert_eq!(s.hash_count(), hashes, "second run must reuse signatures");
        assert_eq!(first.pairs, second.pairs);
        assert!(first.candidates > 0);
    }

    #[test]
    fn alternating_query_shapes_do_not_corrupt_prune_decisions() {
        // Regression: the old single-slot minmatch memo was keyed by the
        // last (threshold, depth) shape only, so interleaving shapes
        // rebuilt it constantly and a stale slot would have handed one
        // shape the other's pruning table. Interleaved queries must match
        // what a fresh searcher (one shape only) produces, bit for bit.
        let data = corpus(20);
        let build = || {
            Searcher::builder(PipelineConfig::cosine(0.7))
                .algorithm(Algorithm::LshBayesLsh)
                .build(corpus(20))
                .unwrap()
        };
        let _ = data;
        let interleaved = build();
        let shapes = [0.7f64, 0.5, 0.7, 0.5, 0.9, 0.7];
        let queries: Vec<SparseVector> = (0..6)
            .map(|i| interleaved.data().vector(i * 7).clone())
            .collect();
        for (q, &t) in queries.iter().zip(&shapes) {
            let got = interleaved.query(q, t).unwrap();
            // Top-k in between changes the access pattern (different
            // pruning machinery, same searcher state).
            interleaved.top_k(q, 3, &KnnParams::default()).unwrap();
            let fresh = build();
            let expect = fresh.query(q, t).unwrap();
            assert_eq!(got.neighbors.len(), expect.neighbors.len());
            for (a, b) in got.neighbors.iter().zip(&expect.neighbors) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "threshold {t}");
            }
            assert_eq!(got.stats, expect.stats, "threshold {t}");
        }
        // Every distinct shape stays memoized instead of thrashing.
        assert_eq!(interleaved.minmatch_cache.len(), 3);
    }

    #[test]
    fn query_threshold_is_validated() {
        let s = Searcher::builder(PipelineConfig::cosine(0.7))
            .build(corpus(10))
            .unwrap();
        let q = s.data().vector(0).clone();
        assert!(s.query(&q, 0.0).is_err());
        assert!(s.query(&q, 1.2).is_err());
        assert!(s.query(&q, 1.0).is_ok());
    }

    #[test]
    fn concurrent_queries_match_serial_results() {
        // `query` through `&self`: many threads sharing one searcher must
        // each get the serial answer, on both the eager (read-only) and
        // lazy (write-locked ensure) paths.
        for mode in [HashMode::Eager, HashMode::Lazy] {
            let s = Searcher::builder(PipelineConfig::cosine(0.5))
                .algorithm(Algorithm::LshBayesLsh)
                .hash_mode(mode)
                .build(corpus(21))
                .unwrap();
            let queries: Vec<SparseVector> =
                (0..8).map(|i| s.data().vector(i * 7).clone()).collect();
            let serial: Vec<Vec<(u32, f64)>> = queries
                .iter()
                .map(|q| s.query(q, 0.5).unwrap().neighbors)
                .collect();
            std::thread::scope(|scope| {
                let handles: Vec<_> = queries
                    .iter()
                    .map(|q| scope.spawn(|| s.query(q, 0.5).unwrap().neighbors))
                    .collect();
                for (i, h) in handles.into_iter().enumerate() {
                    assert_eq!(
                        h.join().unwrap(),
                        serial[i],
                        "{mode:?} concurrent query {i} diverged from serial"
                    );
                }
            });
        }
    }

    #[test]
    fn empty_vector_insert_is_inert_but_removable() {
        // An empty vector takes an id but is never hashed or indexed: it
        // must not surface from queries, top_k, or all_pairs, must survive
        // a snapshot round-trip, and must be removable.
        let mut s = Searcher::builder(PipelineConfig::cosine(0.7))
            .algorithm(Algorithm::LshBayesLsh)
            .build(corpus(31))
            .unwrap();
        let id = s.insert(SparseVector::empty()).unwrap();
        assert_eq!(id as usize, s.len() - 1);
        assert_eq!(s.data().vector(id).nnz(), 0);

        let probe = s.data().vector(0).clone();
        let out = s.query(&probe, 0.7).unwrap();
        assert!(out.neighbors.iter().all(|&(got, _)| got != id));
        let top = s.top_k(&probe, s.len(), &KnnParams::default()).unwrap();
        assert!(top.neighbors.iter().all(|&(got, _)| got != id));
        let pairs = s.all_pairs().unwrap();
        assert!(pairs.pairs.iter().all(|&(a, b, _)| a != id && b != id));

        let mut buf = Vec::new();
        s.save(&mut buf).unwrap();
        let loaded = Searcher::load(&buf[..]).unwrap();
        assert_eq!(loaded.len(), s.len());
        assert_eq!(loaded.data().vector(id).nnz(), 0);
        let reloaded = loaded.query(&probe, 0.7).unwrap();
        assert_eq!(reloaded.neighbors, out.neighbors);

        assert!(s.remove(id).unwrap());
        assert_eq!(s.compact(), 1);
        assert_eq!(s.len(), loaded.len(), "compaction keeps ids stable");
    }

    #[test]
    fn remove_then_compact_round_trips_through_snapshot() {
        let mut s = Searcher::builder(PipelineConfig::cosine(0.5))
            .algorithm(Algorithm::LshBayesLsh)
            .build(corpus(41))
            .unwrap();
        let victim = 13u32;
        let probe = s.data().vector(victim).clone();
        assert!(s
            .query(&probe, 0.99)
            .unwrap()
            .neighbors
            .iter()
            .any(|&(got, _)| got == victim));

        assert!(s.remove(victim).unwrap());
        assert!(!s.remove(victim).unwrap(), "double remove is a no-op");
        assert!(s.is_removed(victim));
        assert_eq!(s.pending_removals(), 1);
        assert!(matches!(
            s.remove(s.len() as u32).unwrap_err(),
            SearchError::InvalidConfig { param: "id", .. }
        ));

        // Tombstoned: hidden from every read path, but not yet persistable.
        assert!(s
            .query(&probe, 0.2)
            .unwrap()
            .neighbors
            .iter()
            .all(|&(got, _)| got != victim));
        assert!(s
            .top_k(&probe, s.len(), &KnnParams::default())
            .unwrap()
            .neighbors
            .iter()
            .all(|&(got, _)| got != victim));
        assert!(s
            .all_pairs()
            .unwrap()
            .pairs
            .iter()
            .all(|&(a, b, _)| a != victim && b != victim));
        let err = s.save(&mut Vec::new()).unwrap_err();
        assert!(
            err.to_string().contains("compact"),
            "save must demand compaction"
        );

        // Compaction rewrites index + pool; results are unchanged and the
        // snapshot round-trips bit-identically.
        let before = s.query(&probe, 0.2).unwrap().neighbors;
        assert_eq!(s.compact(), 1);
        assert_eq!(s.pending_removals(), 0);
        assert_eq!(s.len(), corpus(41).len(), "ids stay stable after compact");
        assert_eq!(s.query(&probe, 0.2).unwrap().neighbors, before);

        let mut buf = Vec::new();
        s.save(&mut buf).unwrap();
        let loaded = Searcher::load(&buf[..]).unwrap();
        assert_eq!(loaded.len(), s.len());
        assert_eq!(loaded.query(&probe, 0.2).unwrap().neighbors, before);
        assert!(loaded
            .all_pairs()
            .unwrap()
            .pairs
            .iter()
            .all(|&(a, b, _)| a != victim && b != victim));
    }
}
