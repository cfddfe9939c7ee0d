//! Classical LSH banding index for candidate generation (paper Section 2).
//!
//! Each object gets `l` signatures, each the concatenation of `k` hashes;
//! every pair sharing at least one signature becomes a candidate. For a
//! threshold `t` whose per-hash collision probability is `p` (Jaccard: `p =
//! t`; cosine: `p = c2r(t)`), the number of signatures needed for an
//! expected false-negative rate ε is `l = ceil(log ε / log(1 − p^k))`.

use bayeslsh_lsh::{BitSignatures, IntSignatures, ProjSignatures, SignaturePool};
use bayeslsh_numeric::fan_out;
use bayeslsh_numeric::wire::{WireError, WireReader, WireWriter};
use bayeslsh_sparse::Dataset;

use crate::fxhash::{FxHashMap, FxHasher};
use crate::pairs::PairSet;
use std::hash::Hasher;

/// Banding configuration: `l` bands of `k` hashes each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandingParams {
    /// Hashes per signature (band width).
    pub k: u32,
    /// Number of signatures (bands).
    pub l: u32,
}

/// The resolved banding configuration for a similarity threshold, with the
/// guarantee actually achieved. The `l` formula can demand more bands than
/// the caller's cap allows (low thresholds, wide bands); instead of
/// clamping invisibly, the plan reports the requested versus achieved
/// false-negative rates so callers can surface the gap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandingPlan {
    /// The banding configuration to index with.
    pub params: BandingParams,
    /// Per-hash collision probability at the similarity threshold.
    pub collision_prob: f64,
    /// The false-negative rate the caller asked for.
    pub requested_fnr: f64,
    /// The expected false-negative rate at the threshold under `params`:
    /// `(1 − p^k)^l`. Equals (or beats) `requested_fnr` unless `clamped`.
    pub achieved_fnr: f64,
    /// True when the band cap truncated `l` below the formula's demand, so
    /// `achieved_fnr > requested_fnr`.
    pub clamped: bool,
}

impl BandingParams {
    /// Compute `l` from the paper's formula for false-negative rate `eps`
    /// at per-hash collision probability `p` (the collision probability *at
    /// the similarity threshold*), capping at `max_l`.
    ///
    /// `l = ceil(log eps / log(1 − p^k))`.
    ///
    /// Prefer [`BandingParams::plan`] when the caller should know whether
    /// the cap weakened the recall guarantee.
    pub fn for_threshold(p: f64, k: u32, eps: f64, max_l: u32) -> Self {
        Self::plan(p, k, eps, max_l).params
    }

    /// Like [`BandingParams::for_threshold`], but reports the achieved
    /// false-negative rate alongside the parameters instead of clamping
    /// silently.
    pub fn plan(p: f64, k: u32, eps: f64, max_l: u32) -> BandingPlan {
        assert!((0.0..=1.0).contains(&p), "collision probability {p}");
        assert!(k >= 1, "band width must be at least 1");
        assert!(eps > 0.0 && eps < 1.0, "false negative rate {eps}");
        let pk = p.powi(k as i32);
        let (l, clamped) = if pk <= 0.0 {
            // No number of bands catches a zero-probability collision.
            (max_l, true)
        } else if pk >= 1.0 {
            (1, false)
        } else {
            let raw = (eps.ln() / (1.0 - pk).ln()).ceil();
            if raw.is_finite() && raw >= 1.0 {
                ((raw as u32).min(max_l), raw > max_l as f64)
            } else {
                (max_l, true)
            }
        };
        let params = BandingParams { k, l: l.max(1) };
        BandingPlan {
            params,
            collision_prob: p,
            requested_fnr: eps,
            achieved_fnr: 1.0 - params.candidate_prob(p),
            clamped,
        }
    }

    /// Total hashes per object the banding consumes.
    pub fn total_hashes(&self) -> u32 {
        self.k * self.l
    }

    /// Probability that a pair with per-hash collision probability `p`
    /// becomes a candidate: `1 − (1 − p^k)^l`.
    pub fn candidate_prob(&self, p: f64) -> f64 {
        1.0 - (1.0 - p.powi(self.k as i32)).powi(self.l as i32)
    }
}

/// Extract `len <= 64` bits starting at bit `lo` from packed 32-bit words
/// (LSB-first) — the band-key extraction used by the index, public so that
/// query-time probes (e.g. k-NN search) can compute identical keys.
#[inline]
pub fn extract_bits(words: &[u32], lo: u32, len: u32) -> u64 {
    debug_assert!(len <= 64);
    let mut out = 0u64;
    let mut got = 0u32;
    while got < len {
        let bit = lo + got;
        let word = words[(bit / 32) as usize] as u64;
        let offset = bit % 32;
        let take = (32 - offset).min(len - got); // <= 32, so the shift is safe
        let chunk = (word >> offset) & ((1u64 << take) - 1);
        out |= chunk << got;
        got += take;
    }
    out
}

/// The band key of bit signature `words` for band `band` of width `k`
/// (`k <= 64`): the raw bit run, identical for pool members and external
/// query signatures.
#[inline]
pub fn band_key_bits(words: &[u32], band: u32, k: u32) -> u64 {
    extract_bits(words, band * k, k)
}

/// The band key of integer minhash signature `sigs` for band `band` of
/// width `k`: an FxHash of the band's minhash run.
#[inline]
pub fn band_key_ints(sigs: &[u32], band: u32, k: u32) -> u64 {
    let lo = (band * k) as usize;
    let mut h = FxHasher::default();
    for &m in &sigs[lo..lo + k as usize] {
        h.write_u32(m);
    }
    h.finish()
}

/// All `l` band keys of a bit signature.
pub fn band_keys_bits(words: &[u32], params: BandingParams) -> Vec<u64> {
    (0..params.l)
        .map(|band| band_key_bits(words, band, params.k))
        .collect()
}

/// All `l` band keys of an integer minhash signature.
pub fn band_keys_ints(sigs: &[u32], params: BandingParams) -> Vec<u64> {
    (0..params.l)
        .map(|band| band_key_ints(sigs, band, params.k))
        .collect()
}

/// A standing, growable LSH banding index: one bucket map per band, keyed
/// by band keys, holding object ids.
///
/// Unlike the one-shot candidate dumps ([`lsh_candidates_bits`] /
/// [`lsh_candidates_ints`], now thin wrappers over this type), the index
/// persists across operations: build it once, then serve any mix of
/// [`BandingIndex::all_pairs`] joins, [`BandingIndex::probe`] point
/// lookups, and incremental [`BandingIndex::insert`]s. Key computation is
/// the caller's (hash-family-specific) job via [`band_keys_bits`] /
/// [`band_keys_ints`], so the index itself is storage-agnostic.
#[derive(Debug, Clone)]
pub struct BandingIndex {
    params: BandingParams,
    /// One key → ids map per band.
    buckets: Vec<FxHashMap<u64, Vec<u32>>>,
    indexed: usize,
}

impl BandingIndex {
    /// An empty index with `params.l` bands.
    pub fn new(params: BandingParams) -> Self {
        assert!(params.k >= 1 && params.l >= 1, "degenerate banding");
        Self {
            params,
            buckets: vec![FxHashMap::default(); params.l as usize],
            indexed: 0,
        }
    }

    /// The banding configuration in use.
    pub fn params(&self) -> BandingParams {
        self.params
    }

    /// Number of objects inserted.
    pub fn len(&self) -> usize {
        self.indexed
    }

    /// True if nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.indexed == 0
    }

    /// Insert object `id` under its `l` band keys.
    pub fn insert(&mut self, id: u32, keys: &[u64]) {
        assert_eq!(
            keys.len(),
            self.params.l as usize,
            "expected one key per band"
        );
        for (band, &key) in keys.iter().enumerate() {
            self.buckets[band].entry(key).or_default().push(id);
        }
        self.indexed += 1;
    }

    /// Unlink object `id` from its `l` band buckets (the same keys it was
    /// inserted under). Returns `true` when the id was present.
    ///
    /// Bucket vectors keep their remaining ids in insertion order and
    /// emptied buckets stay in their maps, so the iteration order other
    /// ids see — and therefore [`BandingIndex::all_pairs`] /
    /// [`BandingIndex::probe`] output for the survivors — is exactly the
    /// original order with the removed id dropped. (A compaction pass
    /// that rebuilds the index sheds the empty buckets.)
    pub fn remove(&mut self, id: u32, keys: &[u64]) -> bool {
        assert_eq!(
            keys.len(),
            self.params.l as usize,
            "expected one key per band"
        );
        let mut found = false;
        for (band, &key) in keys.iter().enumerate() {
            if let Some(ids) = self.buckets[band].get_mut(&key) {
                if let Some(pos) = ids.iter().position(|&x| x == id) {
                    ids.remove(pos);
                    found = true;
                }
            }
        }
        if found {
            self.indexed -= 1;
        }
        found
    }

    /// Build an index concurrently: the `l` bands are sharded across up to
    /// `threads` workers, each worker populating its bands' bucket maps by
    /// scanning `ids` in order and asking `key_of(id, band)` for the band
    /// key (typically a read into a pre-hashed signature pool — keys are
    /// computed shard-locally, so no id-major key buffer is materialized).
    ///
    /// Because a single band's bucket map sees exactly the same
    /// `(key, id)` insertion sequence as `ids.len()` serial
    /// [`BandingIndex::insert`] calls, the resulting index — including
    /// bucket-map iteration order, and therefore
    /// [`BandingIndex::all_pairs`] / [`BandingIndex::probe`] output — is
    /// identical to the serially built one whatever the thread count.
    pub fn par_build<F>(params: BandingParams, ids: &[u32], threads: usize, key_of: F) -> Self
    where
        F: Fn(u32, u32) -> u64 + Sync,
    {
        let shards = fan_out(params.l as usize, threads, |_, bands| {
            bands
                .map(|band| {
                    let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
                    for &id in ids {
                        buckets.entry(key_of(id, band as u32)).or_default().push(id);
                    }
                    buckets
                })
                .collect::<Vec<_>>()
        });
        let mut index = Self::new(params);
        index.buckets = shards.into_iter().flatten().collect();
        index.indexed = ids.len();
        index
    }

    /// [`BandingIndex::all_pairs`] with the bands fanned out across up to
    /// `threads` workers. Each worker collects its bands' pairs into a
    /// locally deduplicated [`PairSet`]; the shards are merged in band
    /// order through a global `PairSet`, reproducing the serial
    /// first-encounter pair order exactly.
    pub fn par_all_pairs(&self, threads: usize) -> Vec<(u32, u32)> {
        if threads <= 1 {
            return self.all_pairs();
        }
        let shards = fan_out(self.buckets.len(), threads, |_, bands| {
            let mut local = PairSet::new();
            for band in bands {
                pairs_from_buckets(&self.buckets[band], &mut local);
            }
            local
        });
        let mut out = PairSet::new();
        for shard in shards {
            for &(a, b) in shard.as_slice() {
                out.insert(a, b);
            }
        }
        out.into_vec()
    }

    /// Serialize the index for a snapshot: banding parameters, then the
    /// ascending id list, then per band the id-ordered band-key stream.
    ///
    /// The id-ordered streams are the load-bearing choice. Bucket-map
    /// *iteration* order — which [`BandingIndex::all_pairs`] and
    /// [`BandingIndex::probe`] output order, and hence the candidate order
    /// downstream estimators see, depend on — is a deterministic function
    /// of the map's insertion sequence. Both construction paths insert ids
    /// in ascending order per band ([`BandingIndex::par_build`] scans `ids`
    /// in order; incremental [`BandingIndex::insert`]s always append a
    /// fresh, larger id), so [`BandingIndex::read_wire`] can replay exactly
    /// that sequence from the streams and reconstruct maps whose iteration
    /// order — and therefore every downstream result — is bit-identical to
    /// the saved index's.
    ///
    /// # Panics
    ///
    /// Panics if the index was built outside that contract (some id
    /// inserted more than once): such an insertion sequence is not
    /// reconstructible from sorted streams.
    pub fn write_wire<W: std::io::Write>(&self, w: &mut WireWriter<W>) -> Result<(), WireError> {
        w.put_u32(self.params.k)?;
        w.put_u32(self.params.l)?;
        w.put_u64(self.indexed as u64)?;
        // Reassemble each band's id-ordered (id, key) pairs from its
        // buckets. Within a bucket ids are already ascending (insertion
        // order), so a global sort per band restores the full sequence.
        let mut bands: Vec<Vec<(u32, u64)>> = self
            .buckets
            .iter()
            .map(|buckets| {
                let mut pairs: Vec<(u32, u64)> = buckets
                    .iter()
                    .flat_map(|(&key, ids)| ids.iter().map(move |&id| (id, key)))
                    .collect();
                pairs.sort_unstable_by_key(|&(id, _)| id);
                pairs
            })
            .collect();
        let ids: Vec<u32> = bands
            .first()
            .map(|pairs| pairs.iter().map(|&(id, _)| id).collect())
            .unwrap_or_default();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]) && ids.len() == self.indexed,
            "snapshot requires unique ascending-id insertions"
        );
        w.put_u64(ids.len() as u64)?;
        for &id in &ids {
            w.put_u32(id)?;
        }
        for pairs in bands.iter_mut() {
            assert_eq!(pairs.len(), ids.len(), "bands must index the same ids");
            for &(_, key) in pairs.iter() {
                w.put_u64(key)?;
            }
        }
        Ok(())
    }

    /// Deserialize an index written by [`BandingIndex::write_wire`],
    /// replaying the per-band ascending-id insertion sequence (sharded
    /// across up to `threads` workers, which reproduces the serial maps
    /// exactly — see [`BandingIndex::par_build`]). Ids must be strictly
    /// ascending and below `id_bound`; violations are typed
    /// [`WireError::Corrupt`]s, never panics.
    pub fn read_wire<R: std::io::Read>(
        r: &mut WireReader<R>,
        id_bound: u32,
        threads: usize,
    ) -> Result<Self, WireError> {
        // Far above any plan the `l` formula's callers produce (their cap
        // is 10k bands), yet small enough that a crafted band count cannot
        // spin or allocate per-band state unboundedly before the stream
        // runs out.
        const MAX_WIRE_BANDS: u32 = 1 << 20;
        let k = r.get_u32()?;
        let l = r.get_u32()?;
        if k < 1 || l < 1 {
            return Err(WireError::corrupt(format!("degenerate banding {k}x{l}")));
        }
        if l > MAX_WIRE_BANDS {
            return Err(WireError::corrupt(format!(
                "band count {l} above the format bound {MAX_WIRE_BANDS}"
            )));
        }
        let indexed = r.get_u64()?;
        let n_ids = r.get_u64()?;
        if n_ids != indexed || indexed > id_bound as u64 {
            return Err(WireError::corrupt(format!(
                "indexed count {indexed} disagrees with id list {n_ids} (bound {id_bound})"
            )));
        }
        let mut ids = Vec::with_capacity(n_ids.min(65_536) as usize);
        for _ in 0..n_ids {
            ids.push(r.get_u32()?);
        }
        if !ids.windows(2).all(|w| w[0] < w[1]) || ids.last().is_some_and(|&id| id >= id_bound) {
            return Err(WireError::corrupt(
                "id list not strictly ascending within bound".to_string(),
            ));
        }
        let mut keys = Vec::with_capacity((l as usize).min(65_536));
        for _ in 0..l {
            let mut band = Vec::with_capacity(ids.len());
            for _ in 0..ids.len() {
                band.push(r.get_u64()?);
            }
            keys.push(band);
        }
        let params = BandingParams { k, l };
        // O(1) id → stream-slot lookups for the replay below (the lookup
        // runs once per (id, band), so a per-key binary search would cost
        // n·l·log n on the cold-load path).
        let mut slot = vec![0u32; ids.last().map_or(0, |&id| id as usize + 1)];
        for (i, &id) in ids.iter().enumerate() {
            slot[id as usize] = i as u32;
        }
        // Replay through the standard sharded build: each band's map sees
        // the same ascending-id insertion sequence as the saved one did.
        let index = Self::par_build(params, &ids, threads, |id, band| {
            keys[band as usize][slot[id as usize] as usize]
        });
        Ok(index)
    }

    /// All distinct ids sharing at least one band bucket with the given
    /// query keys, in first-encounter order.
    pub fn probe(&self, keys: &[u64]) -> Vec<u32> {
        assert_eq!(
            keys.len(),
            self.params.l as usize,
            "expected one key per band"
        );
        let mut out = Vec::new();
        let mut seen = crate::fxhash::FxHashSet::<u32>::default();
        for (band, &key) in keys.iter().enumerate() {
            if let Some(ids) = self.buckets[band].get(&key) {
                for &id in ids {
                    if seen.insert(id) {
                        out.push(id);
                    }
                }
            }
        }
        out
    }

    /// Step-wise multi-probe lookup: `key_seqs[band]` is that band's probe
    /// sequence, its first entry the base band key and later entries
    /// perturbed keys ordered by descending expected collision probability
    /// (Lv et al., VLDB'07). Probing interleaves *step-wise* — every band's
    /// step-`s` key is tried before any band's step-`s+1` key — so the most
    /// promising buckets across all bands are drained first and truncating
    /// the sequences degrades gracefully. Hits are deduplicated in
    /// first-encounter order, which for one-key sequences is exactly
    /// [`BandingIndex::probe`]'s order; the second return is the number of
    /// bucket lookups performed (`Σ sequence lengths`, the query-cost knob
    /// multi-probe trades against band count).
    pub fn probe_multi(&self, key_seqs: &[Vec<u64>]) -> (Vec<u32>, u64) {
        assert_eq!(
            key_seqs.len(),
            self.params.l as usize,
            "expected one probe sequence per band"
        );
        let depth = key_seqs.iter().map(Vec::len).max().unwrap_or(0);
        let mut out = Vec::new();
        let mut seen = crate::fxhash::FxHashSet::<u32>::default();
        let mut probes = 0u64;
        for step in 0..depth {
            for (band, seq) in key_seqs.iter().enumerate() {
                let Some(&key) = seq.get(step) else { continue };
                probes += 1;
                if let Some(ids) = self.buckets[band].get(&key) {
                    for &id in ids {
                        if seen.insert(id) {
                            out.push(id);
                        }
                    }
                }
            }
        }
        (out, probes)
    }

    /// All distinct candidate pairs: every pair of ids sharing at least one
    /// band bucket.
    pub fn all_pairs(&self) -> Vec<(u32, u32)> {
        let mut out = PairSet::new();
        for buckets in &self.buckets {
            pairs_from_buckets(buckets, &mut out);
        }
        out.into_vec()
    }
}

fn pairs_from_buckets(buckets: &FxHashMap<u64, Vec<u32>>, out: &mut PairSet) {
    for ids in buckets.values() {
        if ids.len() < 2 {
            continue;
        }
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                out.insert(ids[i], ids[j]);
            }
        }
    }
}

/// Candidate pairs from bit signatures (cosine / signed random projections).
///
/// Hashes every non-empty vector to `k·l` bits through `pool` and returns
/// all pairs sharing at least one of the `l` k-bit bands.
///
/// This one-shot path streams one band's buckets at a time (peak memory
/// O(corpus), not O(bands × corpus) like a full [`BandingIndex`]); since
/// each per-band bucket map sees the same insertions in the same order
/// either way, the candidate order is identical to
/// [`BandingIndex::all_pairs`] over an index built in id order.
pub fn lsh_candidates_bits(
    pool: &mut BitSignatures,
    data: &Dataset,
    params: BandingParams,
) -> Vec<(u32, u32)> {
    assert!(params.k <= 64, "band keys are packed into u64 (k <= 64)");
    let need = params.total_hashes();
    // The feature-major SRP kernel hashes each vector's whole band range in
    // one pass; the hint makes every signature a single allocation.
    pool.depth_hint(need);
    for (id, v) in data.iter() {
        if !v.is_empty() {
            pool.ensure(id, v, need);
        }
    }
    let mut out = PairSet::new();
    for band in 0..params.l {
        let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        for (id, v) in data.iter() {
            if v.is_empty() {
                continue;
            }
            let key = band_key_bits(pool.raw_words(id), band, params.k);
            buckets.entry(key).or_default().push(id);
        }
        pairs_from_buckets(&buckets, &mut out);
    }
    out.into_vec()
}

/// Candidate pairs from integer minhash signatures (Jaccard). Streams one
/// band at a time; see [`lsh_candidates_bits`] on memory and ordering.
pub fn lsh_candidates_ints(
    pool: &mut IntSignatures,
    data: &Dataset,
    params: BandingParams,
) -> Vec<(u32, u32)> {
    let need = params.total_hashes();
    // Element-major minhash kernel: one pass per vector; see
    // [`lsh_candidates_bits`] on the allocation hint.
    pool.depth_hint(need);
    for (id, v) in data.iter() {
        if !v.is_empty() {
            pool.ensure(id, v, need);
        }
    }
    let mut out = PairSet::new();
    for band in 0..params.l {
        let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        for (id, v) in data.iter() {
            if v.is_empty() {
                continue;
            }
            let key = band_key_ints(pool.raw(id), band, params.k);
            buckets.entry(key).or_default().push(id);
        }
        pairs_from_buckets(&buckets, &mut out);
    }
    out.into_vec()
}

/// Candidate pairs from quantized-projection signatures (L2 / E2LSH).
/// The bucket hashes are integer-valued like minhash, so the banding is
/// identical to [`lsh_candidates_ints`]; streams one band at a time.
pub fn lsh_candidates_projs(
    pool: &mut ProjSignatures,
    data: &Dataset,
    params: BandingParams,
) -> Vec<(u32, u32)> {
    let need = params.total_hashes();
    // Feature-major projection kernel: one pass per vector; see
    // [`lsh_candidates_bits`] on the allocation hint.
    pool.depth_hint(need);
    for (id, v) in data.iter() {
        if !v.is_empty() {
            pool.ensure(id, v, need);
        }
    }
    let mut out = PairSet::new();
    for band in 0..params.l {
        let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        for (id, v) in data.iter() {
            if v.is_empty() {
                continue;
            }
            let key = band_key_ints(pool.raw(id), band, params.k);
            buckets.entry(key).or_default().push(id);
        }
        pairs_from_buckets(&buckets, &mut out);
    }
    out.into_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayeslsh_lsh::{E2lshHasher, MinHasher, SrpHasher};
    use bayeslsh_numeric::Xoshiro256;
    use bayeslsh_sparse::{jaccard, SparseVector};

    #[test]
    fn l_formula_matches_paper() {
        // l = ceil(ln eps / ln(1 − t^k)).
        let p = BandingParams::for_threshold(0.5, 4, 0.03, 10_000);
        // t^k = 0.0625; ln(0.03)/ln(0.9375) = 54.3... → 55.
        assert_eq!(p.l, 55);
        assert_eq!(p.total_hashes(), 220);
    }

    #[test]
    fn l_shrinks_with_higher_threshold() {
        let lo = BandingParams::for_threshold(0.3, 4, 0.03, 100_000).l;
        let hi = BandingParams::for_threshold(0.9, 4, 0.03, 100_000).l;
        assert!(hi < lo, "hi={hi} lo={lo}");
    }

    #[test]
    fn l_caps_at_max() {
        let p = BandingParams::for_threshold(0.1, 16, 0.03, 500);
        assert_eq!(p.l, 500);
    }

    #[test]
    fn plan_reports_achieved_fnr() {
        // Uncapped: the formula's l meets the requested rate.
        let plan = BandingParams::plan(0.5, 4, 0.03, 10_000);
        assert!(!plan.clamped);
        assert_eq!(plan.params.l, 55);
        assert!((plan.collision_prob - 0.5).abs() < 1e-12);
        assert!(plan.achieved_fnr <= plan.requested_fnr);
        assert!((plan.achieved_fnr - 0.9375f64.powi(55)).abs() < 1e-12);
    }

    #[test]
    fn plan_surfaces_clamping() {
        // 0.1^16 needs astronomically many bands; a cap of 500 cannot reach
        // the requested 3% miss rate — the plan must say so.
        let plan = BandingParams::plan(0.1, 16, 0.03, 500);
        assert!(plan.clamped);
        assert_eq!(plan.params.l, 500);
        assert!(
            plan.achieved_fnr > plan.requested_fnr,
            "achieved {} should exceed requested {}",
            plan.achieved_fnr,
            plan.requested_fnr
        );
        assert!(plan.achieved_fnr > 0.99);
    }

    #[test]
    fn plan_zero_collision_probability_is_clamped() {
        let plan = BandingParams::plan(0.0, 8, 0.03, 100);
        assert!(plan.clamped);
        assert_eq!(plan.achieved_fnr, 1.0);
    }

    #[test]
    fn candidate_prob_behaviour() {
        let p = BandingParams::for_threshold(0.7, 8, 0.03, 10_000);
        // At the threshold collision probability the FNR target is met.
        assert!(p.candidate_prob(0.7) >= 0.97);
        // Far below the threshold, candidacy is much less likely.
        assert!(p.candidate_prob(0.2) < 0.2);
    }

    #[test]
    fn extract_bits_cases() {
        let words = vec![0xFFFF_0000u32, 0x0000_00FF];
        assert_eq!(extract_bits(&words, 0, 16), 0);
        assert_eq!(extract_bits(&words, 16, 16), 0xFFFF);
        assert_eq!(extract_bits(&words, 24, 16), 0xFFFF);
        assert_eq!(extract_bits(&words, 8, 32), 0xFFFF_FF00);
        assert_eq!(extract_bits(&words, 0, 64), 0x0000_00FF_FFFF_0000);
    }

    #[test]
    fn extract_bits_matches_naive() {
        let mut rng = Xoshiro256::seed_from_u64(50);
        let words: Vec<u32> = (0..8).map(|_| rng.next_u32()).collect();
        for lo in 0..128u32 {
            for len in 1..=64u32.min(256 - lo) {
                let got = extract_bits(&words, lo, len);
                let mut expect = 0u64;
                for b in 0..len {
                    let bit = (words[((lo + b) / 32) as usize] >> ((lo + b) % 32)) & 1;
                    expect |= (bit as u64) << b;
                }
                assert_eq!(got, expect, "lo={lo} len={len}");
            }
        }
    }

    /// Clustered binary data: near-duplicates within clusters.
    fn clustered_sets(n_clusters: usize, per: usize, seed: u64) -> Dataset {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut d = Dataset::new(10_000);
        for c in 0..n_clusters {
            let base: Vec<u32> = (0..60)
                .map(|_| (c * 700) as u32 + rng.next_below(650) as u32)
                .collect();
            for _ in 0..per {
                let mut tokens = base.clone();
                // Mutate ~10% of tokens.
                for t in tokens.iter_mut() {
                    if rng.next_bool(0.1) {
                        *t = rng.next_below(10_000) as u32;
                    }
                }
                d.push(SparseVector::from_indices(tokens));
            }
        }
        d
    }

    #[test]
    fn banding_finds_similar_jaccard_pairs() {
        let data = clustered_sets(10, 5, 51);
        let t = 0.5;
        let params = BandingParams::for_threshold(t, 3, 0.03, 1000);
        let mut pool = IntSignatures::new(MinHasher::new(52), data.len());
        let cands = lsh_candidates_ints(&mut pool, &data, params);
        // Ground truth.
        let mut missed = 0;
        let mut truth = 0;
        for a in 0..data.len() as u32 {
            for b in (a + 1)..data.len() as u32 {
                if jaccard(data.vector(a), data.vector(b)) >= t {
                    truth += 1;
                    if !cands.contains(&(a, b)) {
                        missed += 1;
                    }
                }
            }
        }
        assert!(
            truth > 20,
            "test data should contain similar pairs, got {truth}"
        );
        let fnr = missed as f64 / truth as f64;
        assert!(fnr <= 0.10, "false negative rate {fnr} ({missed}/{truth})");
    }

    #[test]
    fn banding_finds_similar_cosine_pairs() {
        use bayeslsh_lsh::cos_to_r;
        use bayeslsh_sparse::cosine;
        let data = clustered_sets(10, 5, 53);
        let t = 0.7;
        let params = BandingParams::for_threshold(cos_to_r(t), 8, 0.03, 1000);
        let mut pool = BitSignatures::new(SrpHasher::new(data.dim(), 54), data.len());
        let cands = lsh_candidates_bits(&mut pool, &data, params);
        let mut missed = 0;
        let mut truth = 0;
        for a in 0..data.len() as u32 {
            for b in (a + 1)..data.len() as u32 {
                if cosine(data.vector(a), data.vector(b)) >= t {
                    truth += 1;
                    if !cands.contains(&(a, b)) {
                        missed += 1;
                    }
                }
            }
        }
        assert!(
            truth > 20,
            "test data should contain similar pairs, got {truth}"
        );
        let fnr = missed as f64 / truth as f64;
        assert!(fnr <= 0.10, "false negative rate {fnr} ({missed}/{truth})");
    }

    #[test]
    fn banding_index_probe_matches_membership() {
        let data = clustered_sets(6, 5, 55);
        let params = BandingParams::for_threshold(0.5, 3, 0.03, 1000);
        let mut pool = IntSignatures::new(MinHasher::new(56), data.len());
        let mut index = BandingIndex::new(params);
        for (id, v) in data.iter() {
            pool.ensure(id, v, params.total_hashes());
            index.insert(id, &band_keys_ints(pool.raw(id), params));
        }
        assert_eq!(index.len(), data.len());
        // Probing with a member's own keys returns at least itself, and
        // every returned id shares at least one band key.
        for (id, _) in data.iter().step_by(7) {
            let keys = band_keys_ints(pool.raw(id), params);
            let hits = index.probe(&keys);
            assert!(hits.contains(&id), "self-probe must hit id {id}");
            for &other in &hits {
                let other_keys = band_keys_ints(pool.raw(other), params);
                assert!(
                    keys.iter().zip(&other_keys).any(|(a, b)| a == b),
                    "probe hit {other} shares no band with {id}"
                );
            }
        }
    }

    #[test]
    fn banding_index_insert_extends_all_pairs() {
        let params = BandingParams { k: 1, l: 2 };
        let mut index = BandingIndex::new(params);
        index.insert(0, &[7, 9]);
        index.insert(1, &[7, 11]);
        assert_eq!(index.all_pairs(), vec![(0, 1)]);
        // A later insert joins existing buckets.
        index.insert(2, &[8, 11]);
        let mut pairs = index.all_pairs();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (1, 2)]);
        assert_eq!(index.probe(&[8, 9]), vec![2, 0]);
        assert!(index.probe(&[100, 100]).is_empty());
    }

    #[test]
    fn probe_multi_single_step_matches_probe() {
        let data = clustered_sets(6, 5, 63);
        let params = BandingParams::for_threshold(0.5, 3, 0.03, 1000);
        let mut pool = IntSignatures::new(MinHasher::new(64), data.len());
        let mut index = BandingIndex::new(params);
        for (id, v) in data.iter() {
            pool.ensure(id, v, params.total_hashes());
            index.insert(id, &band_keys_ints(pool.raw(id), params));
        }
        // With one key per band, multi-probe is plain probe: same hits in
        // the same order, exactly l bucket lookups.
        for (id, _) in data.iter().step_by(9) {
            let keys = band_keys_ints(pool.raw(id), params);
            let seqs: Vec<Vec<u64>> = keys.iter().map(|&k| vec![k]).collect();
            let (hits, probes) = index.probe_multi(&seqs);
            assert_eq!(hits, index.probe(&keys), "id {id}");
            assert_eq!(probes, params.l as u64);
        }
    }

    #[test]
    fn probe_multi_interleaves_step_wise() {
        let params = BandingParams { k: 1, l: 2 };
        let mut index = BandingIndex::new(params);
        index.insert(0, &[10, 20]);
        index.insert(1, &[11, 21]);
        index.insert(2, &[12, 20]);
        index.insert(3, &[11, 22]);
        // Band 0 probes keys 10 then 11; band 1 probes only 20 (ragged).
        let seqs = vec![vec![10, 11], vec![20]];
        let (hits, probes) = index.probe_multi(&seqs);
        // Step 0 drains band 0's bucket 10 → [0], then band 1's bucket
        // 20 → [0, 2] (0 deduplicated); step 1 drains band 0's bucket
        // 11 → [1, 3]. Band-major order would yield [0, 1, 3, 2] instead.
        assert_eq!(hits, vec![0, 2, 1, 3]);
        assert_eq!(probes, 3);
        // Empty sequences everywhere: nothing probed.
        let (hits, probes) = index.probe_multi(&[Vec::new(), Vec::new()]);
        assert!(hits.is_empty());
        assert_eq!(probes, 0);
    }

    #[test]
    fn projs_candidates_find_l2_clusters_and_match_index() {
        // Two tight L2 clusters 50 apart; every within-cluster pair must
        // surface as a candidate.
        let mut data = Dataset::new(4);
        let mut rng = Xoshiro256::seed_from_u64(71);
        for c in 0..2u32 {
            let base = c as f32 * 50.0;
            for _ in 0..6 {
                let pairs: Vec<(u32, f32)> = (0..4)
                    .map(|i| (i, base + 1.0 + rng.next_f64() as f32 * 0.05))
                    .collect();
                data.push(SparseVector::from_pairs(pairs));
            }
        }
        let params = BandingParams { k: 2, l: 4 };
        let mut pool = ProjSignatures::new(E2lshHasher::new(data.dim(), 72, 4.0), data.len());
        let cands = lsh_candidates_projs(&mut pool, &data, params);
        for c in 0..2u32 {
            for a in 0..6u32 {
                for b in (a + 1)..6 {
                    let (x, y) = (c * 6 + a, c * 6 + b);
                    assert!(cands.contains(&(x, y)), "missing near pair ({x},{y})");
                }
            }
        }
        // The one-shot streaming path reads identically to an id-order
        // BandingIndex, same as the bits/ints paths.
        let mut index = BandingIndex::new(params);
        for (id, _) in data.iter() {
            index.insert(id, &band_keys_ints(pool.raw(id), params));
        }
        assert_eq!(cands, index.all_pairs());
    }

    #[test]
    fn par_build_probe_and_all_pairs_match_serial() {
        let data = clustered_sets(8, 5, 57);
        let params = BandingParams::for_threshold(0.5, 3, 0.03, 1000);
        let l = params.l as usize;
        let mut pool = IntSignatures::new(MinHasher::new(58), data.len());
        let mut serial = BandingIndex::new(params);
        let mut ids = Vec::new();
        let mut keys = Vec::new();
        for (id, v) in data.iter() {
            pool.ensure(id, v, params.total_hashes());
            let k = band_keys_ints(pool.raw(id), params);
            serial.insert(id, &k);
            ids.push(id);
            keys.extend(k);
        }
        let serial_pairs = serial.all_pairs();
        for threads in [1usize, 2, 4, 8] {
            let par = BandingIndex::par_build(params, &ids, threads, |id, band| {
                band_key_ints(pool.raw(id), band, params.k)
            });
            assert_eq!(par.len(), serial.len());
            assert_eq!(
                par.all_pairs(),
                serial_pairs,
                "serially-read pairs of a par-built index, threads {threads}"
            );
            assert_eq!(
                par.par_all_pairs(threads),
                serial_pairs,
                "par-read pairs, threads {threads}"
            );
            for (slot, &id) in ids.iter().enumerate().step_by(5) {
                let qk = &keys[slot * l..(slot + 1) * l];
                assert_eq!(
                    par.probe(qk),
                    serial.probe(qk),
                    "probe id {id} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn wire_round_trip_preserves_candidate_and_probe_order() {
        let data = clustered_sets(6, 5, 61);
        let params = BandingParams::for_threshold(0.5, 3, 0.03, 1000);
        let mut pool = IntSignatures::new(MinHasher::new(62), data.len());
        let mut index = BandingIndex::new(params);
        let mut keys = Vec::new();
        for (id, v) in data.iter() {
            pool.ensure(id, v, params.total_hashes());
            let k = band_keys_ints(pool.raw(id), params);
            index.insert(id, &k);
            keys.push(k);
        }
        let mut w = WireWriter::new(Vec::new());
        index.write_wire(&mut w).unwrap();
        let payload = w.into_inner();
        for threads in [1usize, 4] {
            let mut r = WireReader::new(&payload[..]);
            let mut back = BandingIndex::read_wire(&mut r, data.len() as u32, threads).unwrap();
            assert_eq!(r.bytes_read(), payload.len() as u64);
            assert_eq!(back.len(), index.len());
            assert_eq!(back.params(), index.params());
            // Identical *order*, not just identical sets: downstream
            // candidate order (and thus Bayesian estimates) depends on it.
            assert_eq!(back.all_pairs(), index.all_pairs(), "threads {threads}");
            for (id, k) in keys.iter().enumerate().step_by(4) {
                assert_eq!(back.probe(k), index.probe(k), "probe {id}");
            }
            // Inserting into the reloaded index behaves like inserting into
            // the original.
            let mut orig = index.clone();
            let fresh = vec![123u64; params.l as usize];
            orig.insert(data.len() as u32, &fresh);
            back.insert(data.len() as u32, &fresh);
            assert_eq!(back.all_pairs(), orig.all_pairs());
        }
    }

    #[test]
    fn wire_read_rejects_malformed_indexes() {
        let params = BandingParams { k: 1, l: 2 };
        let mut index = BandingIndex::new(params);
        index.insert(0, &[7, 9]);
        index.insert(1, &[7, 11]);
        let mut w = WireWriter::new(Vec::new());
        index.write_wire(&mut w).unwrap();
        let payload = w.into_inner();
        // Ids beyond the caller's bound are rejected.
        assert!(BandingIndex::read_wire(&mut WireReader::new(&payload[..]), 1, 1).is_err());
        // Degenerate banding parameters are a typed error, not a panic.
        let mut w = WireWriter::new(Vec::new());
        w.put_u32(0).unwrap();
        w.put_u32(2).unwrap();
        w.put_u64(0).unwrap();
        w.put_u64(0).unwrap();
        let bad = w.into_inner();
        assert!(BandingIndex::read_wire(&mut WireReader::new(&bad[..]), 10, 1).is_err());
    }

    #[test]
    fn remove_unlinks_everywhere_and_preserves_survivor_order() {
        let params = BandingParams { k: 1, l: 2 };
        let mut index = BandingIndex::new(params);
        index.insert(0, &[7, 9]);
        index.insert(1, &[7, 11]);
        index.insert(2, &[7, 9]);
        assert_eq!(index.probe(&[7, 9]), vec![0, 1, 2]);
        // Removing the middle id drops it from every band but leaves the
        // survivors in their original relative order.
        assert!(index.remove(1, &[7, 11]));
        assert_eq!(index.len(), 2);
        assert_eq!(index.probe(&[7, 11]), vec![0, 2]);
        assert_eq!(index.all_pairs(), vec![(0, 2)]);
        // Removing again is a no-op.
        assert!(!index.remove(1, &[7, 11]));
        assert_eq!(index.len(), 2);
        // A bucket emptied by removal stays probeable (and empty).
        assert!(index.remove(0, &[7, 9]));
        assert!(index.remove(2, &[7, 9]));
        assert!(index.is_empty());
        assert!(index.probe(&[7, 9]).is_empty());
    }

    #[test]
    fn empty_vectors_generate_no_candidates() {
        let mut d = Dataset::new(100);
        d.push(SparseVector::empty());
        d.push(SparseVector::empty());
        d.push(SparseVector::from_indices(vec![1, 2, 3]));
        let params = BandingParams { k: 2, l: 4 };
        let mut pool = IntSignatures::new(MinHasher::new(60), d.len());
        let cands = lsh_candidates_ints(&mut pool, &d, params);
        assert!(cands.is_empty(), "{cands:?}");
    }
}
