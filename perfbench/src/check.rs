//! Output checks: every run verifies what the program returned, not just
//! how fast it returned it.

use std::collections::HashSet;

use bayeslsh_sparse::{cosine, Dataset, SparseVector};

/// Collected check failures of one run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Record a failure `what` unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Record `result`'s error, if any.
    pub fn require_ok(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.failures.push(e);
        }
    }

    /// True when no check failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failures, in the order they were recorded.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Batch-join output must be strictly ascending `(i, j)` with `i < j`.
pub fn canonical_pairs(pairs: &[(u32, u32, f64)]) -> Result<(), String> {
    if let Some(&(a, b, _)) = pairs.iter().find(|&&(a, b, _)| a >= b) {
        return Err(format!("pair ({a}, {b}) is not ordered i < j"));
    }
    match pairs
        .windows(2)
        .find(|w| (w[0].0, w[0].1) >= (w[1].0, w[1].1))
    {
        Some(w) => Err(format!(
            "pairs out of canonical order: ({}, {}) before ({}, {})",
            w[0].0, w[0].1, w[1].0, w[1].1
        )),
        None => Ok(()),
    }
}

/// Share of the oracle's pairs that `pairs` found (1.0 for an empty
/// oracle).
pub fn pair_recall(pairs: &[(u32, u32, f64)], oracle: &HashSet<(u32, u32)>) -> f64 {
    if oracle.is_empty() {
        return 1.0;
    }
    let found = pairs
        .iter()
        .filter(|&&(a, b, _)| oracle.contains(&(a, b)))
        .count();
    found as f64 / oracle.len() as f64
}

/// An exact verifier's similarities must bit-equal `sparse::cosine` of the
/// pair and clear the threshold.
pub fn exact_similarities(pairs: &[(u32, u32, f64)], data: &Dataset, t: f64) -> Result<(), String> {
    for &(a, b, s) in pairs {
        let want = cosine(data.vector(a), data.vector(b));
        if s.to_bits() != want.to_bits() {
            return Err(format!(
                "pair ({a}, {b}): similarity {s} is not cosine {want}"
            ));
        }
        if s < t {
            return Err(format!("pair ({a}, {b}): similarity {s} is below t = {t}"));
        }
    }
    Ok(())
}

/// Bit-for-bit equality of two pair lists (ids and similarity bits).
pub fn same_pairs(x: &[(u32, u32, f64)], y: &[(u32, u32, f64)]) -> bool {
    x.len() == y.len()
        && x.iter()
            .zip(y)
            .all(|(p, q)| p.0 == q.0 && p.1 == q.1 && p.2.to_bits() == q.2.to_bits())
}

/// Bit-for-bit equality of two neighbour lists.
pub fn same_neighbors(x: &[(u32, f64)], y: &[(u32, f64)]) -> bool {
    x.len() == y.len()
        && x.iter()
            .zip(y)
            .all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits())
}

/// A top-k answer holds at most `k` distinct ids, sorted by decreasing
/// similarity with ties toward the lower id, and every similarity is the
/// exact `sparse::cosine` to the query.
pub fn top_k_answer(
    neighbors: &[(u32, f64)],
    q: &SparseVector,
    data: &Dataset,
    k: usize,
) -> Result<(), String> {
    if neighbors.len() > k {
        return Err(format!(
            "top-k returned {} > {k} neighbours",
            neighbors.len()
        ));
    }
    let ordered = neighbors
        .windows(2)
        .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
    if !ordered {
        return Err("top-k neighbours are not sorted by decreasing similarity".into());
    }
    for &(id, s) in neighbors {
        let want = cosine(q, data.vector(id));
        if s.to_bits() != want.to_bits() {
            return Err(format!(
                "top-k neighbour {id}: similarity {s} is not cosine {want}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Dataset {
        let mut d = Dataset::new(8);
        d.push(SparseVector::from_pairs(vec![(0, 1.0), (1, 1.0)]));
        d.push(SparseVector::from_pairs(vec![(0, 1.0), (1, 0.9)]));
        d.push(SparseVector::from_pairs(vec![(5, 1.0)]));
        d
    }

    #[test]
    fn canonical_order_is_enforced() {
        assert!(canonical_pairs(&[(0, 1, 0.9), (0, 2, 0.8), (1, 2, 0.7)]).is_ok());
        assert!(canonical_pairs(&[(0, 2, 0.9), (0, 1, 0.8)]).is_err());
        assert!(canonical_pairs(&[(0, 1, 0.9), (0, 1, 0.9)]).is_err());
        assert!(canonical_pairs(&[(2, 1, 0.9)]).is_err());
    }

    #[test]
    fn recall_counts_oracle_pairs_found() {
        let oracle: HashSet<(u32, u32)> = [(0, 1), (0, 2), (1, 2), (3, 4)].into();
        assert_eq!(
            pair_recall(&[(0, 1, 0.9), (1, 2, 0.8), (5, 6, 0.7)], &oracle),
            0.5
        );
        assert_eq!(pair_recall(&[], &HashSet::new()), 1.0);
    }

    #[test]
    fn exact_similarities_must_be_bit_equal_and_above_threshold() {
        let d = corpus();
        let s = cosine(d.vector(0), d.vector(1));
        assert!(exact_similarities(&[(0, 1, s)], &d, 0.7).is_ok());
        let off = f64::from_bits(s.to_bits() - 1);
        assert!(exact_similarities(&[(0, 1, off)], &d, 0.7).is_err());
        assert!(exact_similarities(&[(0, 1, s)], &d, 1.0).is_err());
    }

    #[test]
    fn same_pairs_compares_bits() {
        let a = [(0, 1, 0.5)];
        assert!(same_pairs(&a, &[(0, 1, 0.5)]));
        assert!(!same_pairs(&a, &[(0, 1, 0.5000000000000001)]));
        assert!(!same_pairs(&a, &[]));
        assert!(same_neighbors(&[(3, 0.25)], &[(3, 0.25)]));
        assert!(!same_neighbors(&[(3, 0.25)], &[(4, 0.25)]));
    }

    #[test]
    fn top_k_answers_are_sorted_exact_and_bounded() {
        let d = corpus();
        let q = SparseVector::from_pairs(vec![(0, 1.0), (1, 1.0)]);
        let s0 = cosine(&q, d.vector(0));
        let s1 = cosine(&q, d.vector(1));
        assert!(top_k_answer(&[(0, s0), (1, s1)], &q, &d, 2).is_ok());
        assert!(top_k_answer(&[(1, s1), (0, s0)], &q, &d, 2).is_err());
        assert!(top_k_answer(&[(0, s0), (1, s1)], &q, &d, 1).is_err());
        assert!(top_k_answer(&[(0, 0.5)], &q, &d, 1).is_err());
    }

    #[test]
    fn checks_collect_failures() {
        let mut c = Checks::default();
        c.require(true, || "unused".into());
        assert!(c.passed());
        c.require(false, || "recall below floor".into());
        c.require_ok(Err("bad order".into()));
        assert_eq!(c.failures(), ["recall below floor", "bad order"]);
    }
}
