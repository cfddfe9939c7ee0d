//! The scatter-gather serving router with hot-swap reload.

use std::collections::BinaryHeap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use bayeslsh_core::{
    merge_query_outputs, CandidateScan, CompositionOutput, KnnParams, KnnStats, QueryOutput,
    SearchError, Searcher, SearcherBuilder, TopKOutput,
};
use bayeslsh_numeric::{fnv1a_checksum, Parallelism};
use bayeslsh_sparse::{Dataset, SparseVector};

use crate::error::ShardError;
use crate::manifest::{config_fingerprint, ShardManifest};

/// When a generation's shard snapshots are loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadPolicy {
    /// Load (and fully verify) every shard at open/reload time, so a
    /// generation that starts serving is proven whole — the right
    /// default for a standing service.
    #[default]
    Eager,
    /// Load each shard on first touch. Opening is nearly free, but
    /// snapshot corruption surfaces at query time.
    Lazy,
}

/// The global-id ↔ (shard, local-id) correspondence, replayed from the
/// manifest's partition function and extended by inserts.
#[derive(Debug)]
struct IdMap {
    /// `locate[global] = (shard, local id within that shard)`.
    locate: Vec<(u32, u32)>,
    /// `globals[shard][local] = global id` — the inverse, per shard.
    globals: Vec<Vec<u32>>,
}

impl IdMap {
    /// Replay `manifest.partition` over `0..n_total` and cross-check
    /// the resulting per-shard sizes against the manifest entries — a
    /// manifest whose recorded counts disagree with its own partition
    /// function is corrupt, not servable.
    fn replay(manifest: &ShardManifest) -> Result<Self, ShardError> {
        let n_shards = manifest.shard_count();
        let mut locate = Vec::with_capacity(manifest.n_total as usize);
        let mut globals: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
        for global in 0..manifest.n_total {
            let s = manifest.partition.shard_of(global as u32, n_shards);
            locate.push((s as u32, globals[s].len() as u32));
            globals[s].push(global as u32);
        }
        for (s, entry) in manifest.shards.iter().enumerate() {
            if globals[s].len() as u64 != entry.n_vectors {
                return Err(ShardError::CorruptManifest {
                    detail: format!(
                        "partition replay assigns {} vectors to shard {s}, manifest says {}",
                        globals[s].len(),
                        entry.n_vectors
                    ),
                });
            }
        }
        Ok(IdMap { locate, globals })
    }
}

/// One immutable *generation* of the serving set: a verified manifest
/// plus its shard slots. Queries clone the generation's `Arc` and work
/// against it for their whole lifetime, so a concurrent
/// [`ShardedSearcher::reload`] never changes the ground under them.
#[derive(Debug)]
pub struct Generation {
    ordinal: u64,
    manifest: ShardManifest,
    dir: PathBuf,
    parallelism: Parallelism,
    /// Lazily-populated shard searchers, in shard order.
    slots: Vec<Mutex<Option<Searcher>>>,
    /// Lock order: `ids` → `merged` → `slots` (ascending).
    ids: RwLock<IdMap>,
    /// The merged single-index searcher backing [`ShardedSearcher::all_pairs`]
    /// (see there for why the batch join is served this way), built on
    /// first use and kept in sync by inserts.
    merged: Mutex<Option<Searcher>>,
}

impl Generation {
    fn open(
        manifest_path: &Path,
        parallelism: Parallelism,
        policy: LoadPolicy,
        ordinal: u64,
    ) -> Result<Self, ShardError> {
        let manifest = ShardManifest::load(manifest_path)?;
        let ids = IdMap::replay(&manifest)?;
        let dir = manifest_path
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_default();
        let generation = Generation {
            ordinal,
            slots: (0..manifest.shard_count())
                .map(|_| Mutex::new(None))
                .collect(),
            manifest,
            dir,
            parallelism,
            ids: RwLock::new(ids),
            merged: Mutex::new(None),
        };
        if policy == LoadPolicy::Eager {
            for s in 0..generation.manifest.shard_count() {
                drop(generation.slot(s)?);
            }
        }
        Ok(generation)
    }

    /// This generation's ordinal (1 for the initially opened set,
    /// +1 per successful reload).
    pub fn ordinal(&self) -> u64 {
        self.ordinal
    }

    /// The verified manifest this generation serves.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// How many shard slots currently hold a loaded searcher.
    pub fn shards_loaded(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.lock().expect("shard slot poisoned").is_some())
            .count()
    }

    /// Lock shard `s`'s slot, loading and verifying the snapshot first
    /// if the slot is still empty.
    fn slot(&self, s: usize) -> Result<MutexGuard<'_, Option<Searcher>>, ShardError> {
        let mut slot = self.slots[s].lock().expect("shard slot poisoned");
        if slot.is_none() {
            *slot = Some(self.load_shard(s)?);
        }
        Ok(slot)
    }

    /// Read shard `s`'s snapshot and run the full verification ladder:
    /// file present → whole-file checksum matches the manifest →
    /// snapshot parses → config fingerprint matches the manifest →
    /// vector count matches the manifest.
    fn load_shard(&self, s: usize) -> Result<Searcher, ShardError> {
        let entry = &self.manifest.shards[s];
        let path = self.dir.join(&entry.file);
        let bytes = std::fs::read(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                ShardError::MissingShard {
                    shard: s,
                    path: path.clone(),
                }
            } else {
                ShardError::Io(e)
            }
        })?;
        let found = fnv1a_checksum(&bytes);
        if found != entry.checksum {
            return Err(ShardError::ShardChecksum {
                shard: s,
                expected: entry.checksum,
                found,
            });
        }
        let searcher = Searcher::load_with_parallelism(&bytes[..], self.parallelism)
            .map_err(|source| ShardError::Snapshot { shard: s, source })?;
        let fp = config_fingerprint(
            searcher.config(),
            searcher.composition(),
            searcher.hash_mode(),
        );
        if fp != self.manifest.config_fingerprint {
            return Err(ShardError::ConfigFingerprint {
                shard: s,
                expected: self.manifest.config_fingerprint,
                found: fp,
                diff: bayeslsh_core::ConfigDiff::new(
                    "config_fingerprint",
                    format_args!("{:#018x}", self.manifest.config_fingerprint),
                    format_args!("{fp:#018x}"),
                ),
            });
        }
        if searcher.len() as u64 != entry.n_vectors {
            return Err(ShardError::CorruptManifest {
                detail: format!(
                    "shard {s} snapshot holds {} vectors, manifest says {}",
                    searcher.len(),
                    entry.n_vectors
                ),
            });
        }
        Ok(searcher)
    }

    /// Run `f` against shard `s`'s searcher (loading it if needed).
    fn with_shard<T>(&self, s: usize, f: impl FnOnce(&mut Searcher) -> T) -> Result<T, ShardError> {
        let mut slot = self.slot(s)?;
        Ok(f(slot.as_mut().expect("slot was just filled")))
    }

    /// Read shard `s`'s searcher (loading and verifying it first if
    /// needed) — the hook re-shard and snapshot-rewrite jobs use to save
    /// a served shard (e.g. after [`ShardedSearcher::compact`]) back out
    /// through [`Searcher::save`].
    ///
    /// # Errors
    ///
    /// Shard load failures, as for any lazy first touch.
    pub fn with_searcher<T>(
        &self,
        s: usize,
        f: impl FnOnce(&Searcher) -> T,
    ) -> Result<T, ShardError> {
        self.with_shard(s, |sr| f(sr))
    }
}

/// Exact ordering twin of the single-index top-k heap item
/// (`core::knn::HeapItem`): min-heap on similarity, ties broken toward
/// the *larger* id so the smaller id wins the final descending sort.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapItem(f64, u32);

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// A sharded similarity searcher: opens a [`ShardManifest`], loads the
/// shard snapshots it names, and serves the whole [`Searcher`] query
/// surface by scatter-gather with a deterministic cross-shard merge.
///
/// ## The bit-identity contract
///
/// For any shard count and any thread budget,
/// [`query`](ShardedSearcher::query), [`top_k`](ShardedSearcher::top_k)
/// and [`all_pairs`](ShardedSearcher::all_pairs) return results —
/// pairs, similarities, statistics, all in *global* ids — bit-identical
/// to a single [`Searcher`] built over the unpartitioned corpus. Three
/// facts make this possible:
///
/// * every shard keeps the full feature space and the same config seed,
///   so signatures (and hence band keys, agreement counts, and exact
///   similarities) are identical to the single-index ones;
/// * threshold-query verdicts are per-candidate and order-independent,
///   so per-shard outputs merge by id remap + re-sort;
/// * top-k's rising-threshold scan *is* order-dependent, so the router
///   reconstructs the single index's candidate emission order — sort by
///   (first matching band, global id) — and replays the sequential scan
///   itself, one candidate at a time against the owning shard.
///
/// ## Hot swap
///
/// All serving state lives in a generation behind an `Arc`: queries
/// clone it, [`reload`](ShardedSearcher::reload) builds and verifies a
/// fresh generation from disk and atomically swaps the `Arc` — in-flight
/// queries finish on the old generation, new ones see the new one, and
/// a failed reload leaves the current generation serving untouched.
#[derive(Debug)]
pub struct ShardedSearcher {
    manifest_path: PathBuf,
    parallelism: Parallelism,
    policy: LoadPolicy,
    current: RwLock<Arc<Generation>>,
}

impl ShardedSearcher {
    /// Open the shard set described by the manifest at `path` with
    /// [`Parallelism::Auto`] and [`LoadPolicy::Eager`].
    pub fn open(path: &Path) -> Result<Self, ShardError> {
        Self::open_with(path, Parallelism::Auto, LoadPolicy::Eager)
    }

    /// Open with an explicit thread budget and load policy. The budget
    /// applies to every per-shard searcher (resolved at load) and to
    /// the merged batch-join searcher; results never depend on it.
    pub fn open_with(
        path: &Path,
        parallelism: Parallelism,
        policy: LoadPolicy,
    ) -> Result<Self, ShardError> {
        let generation = Generation::open(path, parallelism, policy, 1)?;
        Ok(ShardedSearcher {
            manifest_path: path.to_path_buf(),
            parallelism,
            policy,
            current: RwLock::new(Arc::new(generation)),
        })
    }

    /// The generation currently serving. Queries taken through the
    /// returned `Arc` keep working even across a concurrent
    /// [`reload`](ShardedSearcher::reload) — this is also the test hook
    /// for reload-mid-sweep scenarios.
    pub fn generation(&self) -> Arc<Generation> {
        self.current
            .read()
            .expect("generation lock poisoned")
            .clone()
    }

    /// Re-open the manifest from disk as a new generation and swap it
    /// in atomically. On any error the current generation keeps serving
    /// (the swap happens only after the new set is fully verified —
    /// and, under [`LoadPolicy::Eager`], fully loaded). Returns the new
    /// generation ordinal.
    pub fn reload(&self) -> Result<u64, ShardError> {
        let next = self.generation().ordinal() + 1;
        let fresh = Generation::open(&self.manifest_path, self.parallelism, self.policy, next)?;
        *self.current.write().expect("generation lock poisoned") = Arc::new(fresh);
        Ok(next)
    }

    /// Number of shards in the current generation.
    pub fn shard_count(&self) -> usize {
        self.generation().manifest.shard_count()
    }

    /// Total corpus vectors across shards (including inserts into the
    /// current generation).
    pub fn len(&self) -> usize {
        self.generation()
            .ids
            .read()
            .expect("id map poisoned")
            .locate
            .len()
    }

    /// True when the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Threshold point query, scatter-gathered: each shard answers
    /// [`Searcher::query`] independently, shard-local ids are remapped
    /// to global ids, and the outputs merge under the single index's
    /// sort order. Verdicts on the query path are per-candidate and the
    /// per-shard candidate sets partition the single index's, so the
    /// merged output (neighbors *and* statistics) is bit-identical.
    ///
    /// # Errors
    ///
    /// Exactly [`Searcher::query`]'s, wrapped in
    /// [`ShardError::Search`]; plus shard load failures under
    /// [`LoadPolicy::Lazy`].
    pub fn query(&self, q: &SparseVector, threshold: f64) -> Result<QueryOutput, ShardError> {
        let generation = self.generation();
        let ids = generation.ids.read().expect("id map poisoned");
        let mut parts = Vec::with_capacity(generation.manifest.shard_count());
        for s in 0..generation.manifest.shard_count() {
            let mut out = generation.with_shard(s, |sr| sr.query(q, threshold))??;
            let globals = &ids.globals[s];
            out.remap_ids(|local| globals[local as usize]);
            parts.push(out);
        }
        Ok(merge_query_outputs(parts))
    }

    /// Top-`k` query, scatter-gathered. The data-parallel phases —
    /// query hashing, index probing, first-chunk agreement counting —
    /// run per shard; the order-dependent rising-threshold scan then
    /// runs at the router, over the merged candidate list in the exact
    /// order a single index would emit it (ascending first matching
    /// band, then ascending global id), delegating each candidate's
    /// chunked scan to its owning shard. Output and statistics are
    /// bit-identical to [`Searcher::top_k`].
    ///
    /// # Errors
    ///
    /// Exactly [`Searcher::top_k`]'s, wrapped in [`ShardError::Search`];
    /// plus shard load failures under [`LoadPolicy::Lazy`].
    pub fn top_k(
        &self,
        q: &SparseVector,
        k: usize,
        params: &KnnParams,
    ) -> Result<TopKOutput, ShardError> {
        // Validate exactly as Searcher::top_k does, so a router request
        // fails with the identical error.
        if k == 0 {
            return Err(SearchError::invalid("k", "need at least one neighbour").into());
        }
        params.validate()?;
        let generation = self.generation();
        let ids = generation.ids.read().expect("id map poisoned");
        let n_shards = generation.manifest.shard_count();
        generation.with_shard(0, |sr| sr.validate_query_vector(q))??;
        let mut stats = KnnStats::default();
        if q.is_empty() || ids.locate.is_empty() {
            return Ok(TopKOutput {
                neighbors: Vec::new(),
                stats,
            });
        }

        // The banding plan and scan depth depend only on the config,
        // which all shards share; the signature is a pure function of
        // (config seed, dim, query), so one shard can hash for all.
        let sig = generation.with_shard(0, |sr| {
            let banding = sr.banding_plan().params;
            let max_chunks = params.h / params.chunk;
            let depth = banding.total_hashes().max(max_chunks * params.chunk);
            sr.hash_query_signature(q, depth)
        })?;

        // Scatter: probe every shard and pay its first chunk up front,
        // annotating candidates as (first band, global id, shard, local
        // id, first-chunk agreements).
        let mut candidates: Vec<(u32, u32, u32, u32, u32)> = Vec::new();
        for s in 0..n_shards {
            let globals = &ids.globals[s];
            let (probed, first) = generation.with_shard(s, |sr| {
                let probed = sr.probe_first_bands(&sig);
                let locals: Vec<u32> = probed.iter().map(|&(local, _)| local).collect();
                let first = sr.first_chunk_agreements(&sig, &locals, params.chunk);
                (probed, first)
            })?;
            for (&(local, band), &m) in probed.iter().zip(&first) {
                candidates.push((band, globals[local as usize], s as u32, local, m));
            }
        }
        // Gather: restore the single index's emission order — bands in
        // probe order, each bucket in ascending (global) id order.
        candidates.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        stats.candidates = candidates.len() as u64;

        // Replay the sequential rising-threshold scan. Each candidate's
        // verdict is a pure function of (signature, candidate, pruning
        // threshold captured before its scan), so delegating scans to
        // the owning shards reproduces the single index bit for bit.
        let mut heap: BinaryHeap<std::cmp::Reverse<HeapItem>> = BinaryHeap::with_capacity(k + 1);
        let mut kth_best = params.floor;
        for &(_, global, s, local, first_m) in &candidates {
            let prune_below = kth_best;
            let scan = generation.with_shard(s as usize, |sr| {
                sr.scan_top_k_candidate(q, &sig, local, first_m, params, prune_below)
            })?;
            match scan {
                CandidateScan::Pruned { comparisons } => {
                    stats.hash_comparisons += comparisons as u64;
                    stats.pruned += 1;
                }
                CandidateScan::Survivor {
                    comparisons,
                    similarity,
                } => {
                    stats.hash_comparisons += comparisons as u64;
                    stats.exact += 1;
                    if heap.len() < k {
                        heap.push(std::cmp::Reverse(HeapItem(similarity, global)));
                    } else if similarity > heap.peek().expect("heap is full").0 .0 {
                        heap.pop();
                        heap.push(std::cmp::Reverse(HeapItem(similarity, global)));
                    }
                    if heap.len() == k {
                        kth_best = heap.peek().expect("heap is full").0 .0.max(params.floor);
                    }
                }
            }
        }
        let mut neighbors: Vec<(u32, f64)> = heap
            .into_iter()
            .map(|std::cmp::Reverse(HeapItem(s, id))| (id, s))
            .collect();
        neighbors.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        Ok(TopKOutput { neighbors, stats })
    }

    /// The batch all-pairs join over the whole sharded corpus, in
    /// global ids.
    ///
    /// Unlike the point queries, the paper's batch joins are
    /// corpus-*global* computations — AllPairs and PPJoin+ scan a
    /// shared inverted index, and the fitted Jaccard prior samples the
    /// global candidate list — so a true per-shard scatter cannot
    /// reproduce them bit-identically. The router therefore reassembles
    /// the global corpus (in global-id order, which the id map makes
    /// exact) into one merged [`Searcher`], built once per generation
    /// and kept in sync by [`insert`](ShardedSearcher::insert); the
    /// join is bit-identical to the single index *by construction*, and
    /// repeated calls pay only the join.
    ///
    /// # Errors
    ///
    /// As [`Searcher::all_pairs`], wrapped in [`ShardError::Search`];
    /// plus shard load failures.
    pub fn all_pairs(&self) -> Result<CompositionOutput, ShardError> {
        let generation = self.generation();
        let ids = generation.ids.read().expect("id map poisoned");
        let mut merged = generation.merged.lock().expect("merged searcher poisoned");
        if merged.is_none() {
            let n_shards = generation.manifest.shard_count();
            let mut shard_data = Vec::with_capacity(n_shards);
            let mut recipe = None;
            for s in 0..n_shards {
                let (data, cfg, composition, mode) = generation.with_shard(s, |sr| {
                    (
                        sr.data().clone(),
                        *sr.config(),
                        sr.composition(),
                        sr.hash_mode(),
                    )
                })?;
                shard_data.push(data);
                recipe.get_or_insert((cfg, composition, mode));
            }
            let (cfg, composition, mode) = recipe.expect("manifests have at least one shard");
            let mut data = Dataset::new(generation.manifest.dim);
            for &(s, local) in &ids.locate {
                data.push(shard_data[s as usize].vector(local).clone());
            }
            let searcher = SearcherBuilder::new(cfg)
                .composition(composition)
                .hash_mode(mode)
                .parallelism(self.parallelism)
                .build(data)
                .map_err(ShardError::Search)?;
            *merged = Some(searcher);
        }
        merged
            .as_mut()
            .expect("merged searcher was just built")
            .all_pairs()
            .map_err(ShardError::Search)
    }

    /// Append a vector to the sharded corpus: the manifest's partition
    /// function assigns the next global id to its shard, the vector is
    /// inserted there (extending that shard's pool and index in place,
    /// exactly as [`Searcher::insert`] would on the single index), and
    /// the id map — plus the merged batch-join searcher, if already
    /// built — is updated to match. Returns the new global id.
    ///
    /// Inserts land in the *current generation* only; a
    /// [`reload`](ShardedSearcher::reload) serves what is on disk.
    ///
    /// # Errors
    ///
    /// As [`Searcher::insert`], wrapped in [`ShardError::Search`]; plus
    /// shard load failures.
    pub fn insert(&self, v: SparseVector) -> Result<u32, ShardError> {
        let generation = self.generation();
        let mut ids = generation.ids.write().expect("id map poisoned");
        let n_shards = generation.manifest.shard_count();
        let global = ids.locate.len() as u32;
        let s = generation.manifest.partition.shard_of(global, n_shards);
        let mut merged = generation.merged.lock().expect("merged searcher poisoned");
        let local = generation.with_shard(s, |sr| sr.insert(v.clone()))??;
        debug_assert_eq!(local as usize, ids.globals[s].len());
        ids.locate.push((s as u32, local));
        ids.globals[s].push(global);
        if let Some(m) = merged.as_mut() {
            m.insert(v).map_err(ShardError::Search)?;
        }
        Ok(global)
    }

    /// Tombstone the vector with `global` id: the id map routes it to its
    /// owning shard, which unlinks it exactly as [`Searcher::remove`] on
    /// the single index would; the merged batch-join searcher, if built,
    /// tombstones the same global id so [`all_pairs`] stays in sync.
    /// Returns `Ok(false)` when the id was already removed.
    ///
    /// Like inserts, removals land in the *current generation* only.
    ///
    /// [`all_pairs`]: ShardedSearcher::all_pairs
    ///
    /// # Errors
    ///
    /// As [`Searcher::remove`] (unknown id), wrapped in
    /// [`ShardError::Search`]; plus shard load failures.
    pub fn remove(&self, global: u32) -> Result<bool, ShardError> {
        let generation = self.generation();
        let ids = generation.ids.read().expect("id map poisoned");
        let Some(&(s, local)) = ids.locate.get(global as usize) else {
            return Err(SearchError::invalid(
                "id",
                format!(
                    "no such vector: {global} (corpus holds {})",
                    ids.locate.len()
                ),
            )
            .into());
        };
        let mut merged = generation.merged.lock().expect("merged searcher poisoned");
        let removed = generation.with_shard(s as usize, |sr| sr.remove(local))??;
        if removed {
            if let Some(m) = merged.as_mut() {
                m.remove(global).map_err(ShardError::Search)?;
            }
        }
        Ok(removed)
    }

    /// Tombstoned vectors not yet reclaimed, summed over loaded shards.
    pub fn pending_removals(&self) -> usize {
        let generation = self.generation();
        generation
            .slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("shard slot poisoned")
                    .as_ref()
                    .map_or(0, Searcher::pending_removals)
            })
            .sum()
    }

    /// Run [`Searcher::compact`] on every shard carrying tombstones (and
    /// on the merged batch-join searcher, if built), returning the number
    /// of vectors reclaimed across shards. Global ids are stable across
    /// compaction — removed slots keep their positions as empty vectors —
    /// so the id map is untouched and shard snapshots saved afterwards
    /// reload under the same manifest partition.
    pub fn compact(&self) -> usize {
        let generation = self.generation();
        let _ids = generation.ids.read().expect("id map poisoned");
        let mut merged = generation.merged.lock().expect("merged searcher poisoned");
        let mut reclaimed = 0;
        for slot in &generation.slots {
            // A never-loaded slot has no tombstones: removals load the
            // owning shard, so only loaded searchers can need compaction.
            let mut slot = slot.lock().expect("shard slot poisoned");
            if let Some(sr) = slot.as_mut() {
                if sr.pending_removals() > 0 {
                    reclaimed += sr.compact();
                }
            }
        }
        if let Some(m) = merged.as_mut() {
            if m.pending_removals() > 0 {
                m.compact();
            }
        }
        reclaimed
    }
}
