//! Precomputed `minMatches(n)` tables (paper Section 4.3).
//!
//! For every hash count `n` the engine will visit (multiples of the chunk
//! size `k`), precompute the smallest match count `m` with
//! `Pr[S ≥ t | M(m, n)] ≥ ε` by binary search — the posterior tail is
//! monotone in `m`. At run time the pruning test on line 10 of Algorithm 1
//! becomes a single array lookup: prune iff `m < minMatches(n)`.

use std::sync::{Arc, Mutex};

use bayeslsh_candgen::fxhash::FxHashMap;

use crate::posterior::PosteriorModel;

/// A pruning threshold table for a fixed `(model, t, ε, k)`.
#[derive(Debug, Clone)]
pub struct MinMatchTable {
    k: u32,
    /// `table[c]` = minMatches((c+1)·k); the sentinel `n+1` means "no match
    /// count keeps the pair alive — always prune".
    table: Vec<u32>,
}

impl MinMatchTable {
    /// Build the table for chunk size `k` up to `max_hashes` (rounded up to
    /// a multiple of `k`).
    pub fn build<M: PosteriorModel + ?Sized>(
        model: &M,
        threshold: f64,
        epsilon: f64,
        k: u32,
        max_hashes: u32,
    ) -> Self {
        assert!(k >= 1);
        assert!(epsilon > 0.0 && epsilon < 1.0);
        let chunks = max_hashes.div_ceil(k);
        let mut table = Vec::with_capacity(chunks as usize);
        for c in 1..=chunks {
            let n = c * k;
            table.push(Self::search(model, threshold, epsilon, n));
        }
        Self { k, table }
    }

    /// Smallest `m` such that `Pr[S ≥ t | M(m, n)] ≥ ε`, or `n + 1` if no
    /// such `m` exists.
    fn search<M: PosteriorModel + ?Sized>(model: &M, t: f64, eps: f64, n: u32) -> u32 {
        if model.prob_above_threshold(n, n, t) < eps {
            return n + 1;
        }
        // Invariant: prob(lo) < eps <= prob(hi)  (conceptually lo = -1).
        let (mut lo, mut hi) = (0u32, n);
        if model.prob_above_threshold(0, n, t) >= eps {
            return 0;
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if model.prob_above_threshold(mid, n, t) >= eps {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// The pruning threshold at `n` hashes (`n` must be a positive multiple
    /// of `k` within the precomputed range).
    #[inline]
    pub fn min_matches(&self, n: u32) -> u32 {
        debug_assert!(
            n >= self.k && n % self.k == 0,
            "n={n} not a chunk multiple of {}",
            self.k
        );
        self.table[(n / self.k - 1) as usize]
    }

    /// Should a pair with `m` matches at `n` hashes be pruned?
    #[inline]
    pub fn should_prune(&self, m: u32, n: u32) -> bool {
        m < self.min_matches(n)
    }

    /// Chunk size the table was built for.
    pub fn chunk(&self) -> u32 {
        self.k
    }

    /// Largest hash count covered.
    pub fn max_hashes(&self) -> u32 {
        self.table.len() as u32 * self.k
    }
}

/// A thread-safe memo of [`MinMatchTable`]s keyed by
/// `(threshold, ε, k, max_hashes)`.
///
/// The searcher's point-query paths previously shared one single-slot memo,
/// so query shapes that alternate (different thresholds, or the Bayes and
/// Lite hash budgets interleaved) evicted each other's tables on every
/// call — and a `&self` sharing of the slot across verification workers
/// would have raced. This map keeps every shape it has seen (up to
/// [`MinMatchCache::CAPACITY`]; at capacity the least-recently-used shape
/// is evicted, so a hot shape keeps memoizing however many cold ones
/// stream past), hands out cheap [`Arc`] clones, and is safe to consult
/// from any thread. The posterior *model* is intentionally not part of
/// the key: a cache belongs to one searcher, whose model is fixed by its
/// measure — callers mixing models must use separate caches.
#[derive(Debug, Default)]
pub struct MinMatchCache {
    map: Mutex<ShapeMap>,
}

/// `(threshold bits, ε bits, k, max_hashes)` — the full query shape.
type ShapeKey = (u64, u64, u32, u32);

/// Shared table plus its last-use tick for LRU eviction.
type ShapeEntry = (Arc<MinMatchTable>, u64);

/// Memo storage plus the LRU clock.
#[derive(Debug, Default, Clone)]
struct ShapeMap {
    entries: FxHashMap<ShapeKey, ShapeEntry>,
    /// Monotone access counter; every hit or insert stamps the entry.
    tick: u64,
}

impl MinMatchCache {
    /// Most query shapes memoized at once. A standing service uses a
    /// handful; a caller streaming never-repeating computed thresholds
    /// would otherwise grow the map for the searcher's lifetime.
    pub const CAPACITY: usize = 64;

    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The table for `(threshold, epsilon, k, max_hashes)`, building and
    /// memoizing it on first use; at [`MinMatchCache::CAPACITY`] shapes the
    /// least-recently-used one is evicted to make room, so hot shapes stay
    /// memoized no matter how many cold ones stream past. Concurrent first
    /// calls may build twice; the build is deterministic, so either result
    /// is the same table and the first insertion wins.
    pub fn get_or_build<M: PosteriorModel + ?Sized>(
        &self,
        model: &M,
        threshold: f64,
        epsilon: f64,
        k: u32,
        max_hashes: u32,
    ) -> Arc<MinMatchTable> {
        let key = (threshold.to_bits(), epsilon.to_bits(), k, max_hashes);
        {
            let mut map = self.map.lock().expect("minmatch cache poisoned");
            map.tick += 1;
            let tick = map.tick;
            if let Some((table, used)) = map.entries.get_mut(&key) {
                *used = tick;
                return Arc::clone(table);
            }
        }
        let table = Arc::new(MinMatchTable::build(
            model, threshold, epsilon, k, max_hashes,
        ));
        let mut map = self.map.lock().expect("minmatch cache poisoned");
        map.tick += 1;
        let tick = map.tick;
        if map.entries.len() >= Self::CAPACITY && !map.entries.contains_key(&key) {
            // Full: drop the coldest shape rather than refusing to memoize —
            // a standing service whose 65th shape is hot must not rebuild
            // its table on every call.
            if let Some(coldest) = map
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k)
            {
                map.entries.remove(&coldest);
            }
        }
        Arc::clone(
            &map.entries
                .entry(key)
                .and_modify(|(_, used)| *used = tick)
                .or_insert((table, tick))
                .0,
        )
    }

    /// Number of distinct query shapes memoized.
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .expect("minmatch cache poisoned")
            .entries
            .len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Clone for MinMatchCache {
    fn clone(&self) -> Self {
        Self {
            map: Mutex::new(self.map.lock().expect("minmatch cache poisoned").clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosine_model::CosineModel;
    use crate::jaccard_model::JaccardModel;

    #[test]
    fn table_matches_direct_search_jaccard() {
        let model = JaccardModel::uniform();
        let (t, eps, k) = (0.7, 0.03, 32);
        let table = MinMatchTable::build(&model, t, eps, k, 256);
        for c in 1..=8u32 {
            let n = c * k;
            let mm = table.min_matches(n);
            // Verify the defining property by brute force.
            if mm > 0 {
                assert!(
                    model.prob_above_threshold(mm - 1, n, t) < eps,
                    "n={n}: m={} should be pruned",
                    mm - 1
                );
            }
            if mm <= n {
                assert!(
                    model.prob_above_threshold(mm, n, t) >= eps,
                    "n={n}: m={mm} should survive"
                );
            }
        }
    }

    #[test]
    fn table_matches_direct_search_cosine() {
        let model = CosineModel::new();
        let (t, eps, k) = (0.7, 0.03, 32);
        let table = MinMatchTable::build(&model, t, eps, k, 512);
        for c in [1u32, 2, 4, 8, 16] {
            let n = c * k;
            let mm = table.min_matches(n);
            if mm > 0 && mm <= n {
                assert!(model.prob_above_threshold(mm - 1, n, t) < eps);
                assert!(model.prob_above_threshold(mm, n, t) >= eps);
            }
        }
    }

    #[test]
    fn thresholds_grow_roughly_linearly_with_n() {
        let model = JaccardModel::uniform();
        let table = MinMatchTable::build(&model, 0.6, 0.03, 32, 320);
        let m32 = table.min_matches(32);
        let m320 = table.min_matches(320);
        // The required agreement *rate* approaches t as evidence grows.
        assert!(m320 as f64 / 320.0 > m32 as f64 / 32.0);
        assert!(m320 as f64 / 320.0 < 0.6);
    }

    #[test]
    fn stricter_epsilon_prunes_more_aggressively() {
        let model = JaccardModel::uniform();
        let strict = MinMatchTable::build(&model, 0.7, 0.20, 32, 128);
        let lax = MinMatchTable::build(&model, 0.7, 0.001, 32, 128);
        for n in [32u32, 64, 96, 128] {
            assert!(
                strict.min_matches(n) >= lax.min_matches(n),
                "n={n}: strict {} < lax {}",
                strict.min_matches(n),
                lax.min_matches(n)
            );
        }
    }

    #[test]
    fn should_prune_agrees_with_threshold() {
        let model = CosineModel::new();
        let table = MinMatchTable::build(&model, 0.8, 0.03, 32, 64);
        let mm = table.min_matches(32);
        assert!(table.should_prune(mm.saturating_sub(1), 32) || mm == 0);
        assert!(!table.should_prune(mm, 32) || mm > 32);
        assert_eq!(table.chunk(), 32);
        assert_eq!(table.max_hashes(), 64);
    }

    #[test]
    fn cache_keeps_alternating_shapes_and_answers_consistently() {
        let model = CosineModel::new();
        let cache = MinMatchCache::new();
        // Alternate two shapes repeatedly — the single-slot design this
        // replaces would rebuild on every call and (shared mutably) could
        // hand one shape the other's table.
        for _ in 0..3 {
            for &(t, h) in &[(0.7f64, 2048u32), (0.5, 128)] {
                let got = cache.get_or_build(&model, t, 0.03, 32, h);
                let fresh = MinMatchTable::build(&model, t, 0.03, 32, h);
                assert_eq!(got.max_hashes(), fresh.max_hashes());
                for n in (32..=h).step_by(32) {
                    assert_eq!(got.min_matches(n), fresh.min_matches(n), "t={t} n={n}");
                }
            }
        }
        assert_eq!(cache.len(), 2, "both shapes must stay memoized");
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let model = JaccardModel::uniform();
        let cache = MinMatchCache::new();
        let tables = bayeslsh_numeric::fan_out(8, 4, |_, range| {
            range
                .map(|i| {
                    let t = 0.5 + 0.05 * (i % 2) as f64;
                    cache.get_or_build(&model, t, 0.03, 32, 128).min_matches(64)
                })
                .collect::<Vec<_>>()
        });
        let flat: Vec<u32> = tables.into_iter().flatten().collect();
        for (i, &got) in flat.iter().enumerate() {
            let t = 0.5 + 0.05 * (i % 2) as f64;
            let fresh = MinMatchTable::build(&model, t, 0.03, 32, 128);
            assert_eq!(got, fresh.min_matches(64), "slot {i}");
        }
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn hot_shape_keeps_memoizing_past_capacity() {
        let model = JaccardModel::uniform();
        let cache = MinMatchCache::new();
        let hot = cache.get_or_build(&model, 0.7, 0.03, 4, 8);
        // Stream 3× CAPACITY cold shapes, touching the hot one between each
        // so it is never the LRU victim. The pre-fix cache refused to
        // memoize anything once full, so the hot shape's Arc would stop
        // being returned; the LRU cache must keep handing back the same
        // allocation throughout.
        for i in 0..(3 * MinMatchCache::CAPACITY) {
            let t = 0.50 + 1e-6 * i as f64; // distinct shape per iteration
            cache.get_or_build(&model, t, 0.03, 4, 8);
            let again = cache.get_or_build(&model, 0.7, 0.03, 4, 8);
            assert!(
                Arc::ptr_eq(&hot, &again),
                "hot shape rebuilt after {} cold inserts",
                i + 1
            );
            assert!(
                cache.len() <= MinMatchCache::CAPACITY,
                "cache grew unboundedly"
            );
        }
        assert_eq!(cache.len(), MinMatchCache::CAPACITY, "cache should be full");
        // And a brand-new shape still gets memoized (evicting a cold one).
        let fresh = cache.get_or_build(&model, 0.9, 0.03, 4, 8);
        let fresh2 = cache.get_or_build(&model, 0.9, 0.03, 4, 8);
        assert!(
            Arc::ptr_eq(&fresh, &fresh2),
            "new shape must memoize at capacity"
        );
        assert_eq!(cache.len(), MinMatchCache::CAPACITY);
    }

    #[test]
    fn impossible_threshold_always_prunes() {
        // With a tiny n and a very high threshold + strict epsilon, even
        // all-matches may not clear the bar; the sentinel must exceed n.
        let model = JaccardModel::uniform();
        let table = MinMatchTable::build(&model, 0.999, 0.9999, 4, 8);
        assert!(table.min_matches(4) > 4);
        assert!(table.should_prune(4, 4));
    }
}
