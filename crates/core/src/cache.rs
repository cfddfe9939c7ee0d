//! The `(m, n)`-indexed concentration cache (paper Section 4.3).
//!
//! Whether the similarity estimate after `M(m, n)` is sufficiently
//! concentrated depends only on `(m, n)` — not on the pair — so the result
//! of the (comparatively expensive) incomplete-beta evaluation is memoized.
//! The paper notes only `m ≥ minMatches(n)` ever reaches this check, which
//! keeps the cache small.

use bayeslsh_candgen::fxhash::FxHashMap;

use crate::posterior::PosteriorModel;

/// Memoized concentration checks for a fixed `(model, δ, γ)`.
#[derive(Debug, Clone)]
pub struct ConcentrationCache {
    delta: f64,
    gamma: f64,
    map: FxHashMap<(u32, u32), bool>,
    hits: u64,
    misses: u64,
}

impl ConcentrationCache {
    /// A cache for accuracy parameters `(δ, γ)`.
    pub fn new(delta: f64, gamma: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0);
        assert!(gamma > 0.0 && gamma < 1.0);
        Self {
            delta,
            gamma,
            map: FxHashMap::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// Is the MAP estimate after `M(m, n)` concentrated, i.e.
    /// `Pr[|S − Ŝ| < δ | M(m, n)] ≥ 1 − γ`?
    pub fn is_concentrated<M: PosteriorModel + ?Sized>(
        &mut self,
        model: &M,
        m: u32,
        n: u32,
    ) -> bool {
        if let Some(&v) = self.map.get(&(m, n)) {
            self.hits += 1;
            return v;
        }
        self.misses += 1;
        let v = model.concentration(m, n, self.delta) >= 1.0 - self.gamma;
        self.map.insert((m, n), v);
        v
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of distinct `(m, n)` entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard_model::JaccardModel;

    #[test]
    fn caches_and_counts() {
        let model = JaccardModel::uniform();
        let mut cache = ConcentrationCache::new(0.05, 0.03);
        let first = cache.is_concentrated(&model, 24, 32);
        assert_eq!(cache.stats(), (0, 1));
        let second = cache.is_concentrated(&model, 24, 32);
        assert_eq!(first, second);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cached_answer_matches_direct_computation() {
        let model = JaccardModel::uniform();
        let mut cache = ConcentrationCache::new(0.05, 0.03);
        for &(m, n) in &[(24u32, 32u32), (300, 320), (1500, 2048), (31, 32)] {
            let direct = model.concentration(m, n, 0.05) >= 0.97;
            assert_eq!(cache.is_concentrated(&model, m, n), direct, "({m},{n})");
        }
    }

    #[test]
    fn extreme_rates_concentrate_early() {
        // All-matches posteriors concentrate much faster than mid-rate
        // ones: Beta(n+1, 1) needs 1 − t^(n+1) ≥ 1 − γ with t = Ŝ − δ = 0.95,
        // i.e. n ≈ 69 hashes — versus several hundred at a 50% match rate
        // (the Figure 1 story, posterior edition).
        let model = JaccardModel::uniform();
        let mut cache = ConcentrationCache::new(0.05, 0.03);
        assert!(!cache.is_concentrated(&model, 32, 32));
        assert!(cache.is_concentrated(&model, 96, 96));
        assert!(!cache.is_concentrated(&model, 48, 96));
        assert!(cache.is_concentrated(&model, 1024, 2048));
    }
}
