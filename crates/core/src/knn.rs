//! Parameters and statistics of k-nearest-neighbour retrieval with
//! Bayesian candidate pruning ([`crate::Searcher::top_k`]) — the paper's
//! second future-work item ("a BayesLSH-Lite analogue can be developed for
//! candidate pruning in the case of nearest neighbor retrieval (although
//! the final distance may have to be calculated exactly)").
//!
//! The twist versus the all-pairs setting: there is no fixed threshold.
//! Instead the *current k-th best similarity* plays the role of `t`, rising
//! as better neighbours are found — so the pruning gets progressively more
//! aggressive over a query. Because `t` changes, the `minMatches` table
//! cannot be precomputed; the posterior tail is evaluated online (a few
//! incomplete-beta calls per surviving candidate — cheap at query scale).
//! Survivors get exact similarity computations, as the paper anticipates.

use crate::error::SearchError;

/// Query-time parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnParams {
    /// Recall parameter: prune a candidate once
    /// `Pr[S ≥ current kth-best | M(m,n)] < ε`.
    pub epsilon: f64,
    /// Hashes compared per pruning iteration.
    pub chunk: u32,
    /// Hash budget per candidate before falling through to the exact
    /// computation (the Lite `h`).
    pub h: u32,
    /// Minimum similarity of interest: used as the pruning threshold while
    /// fewer than `k` neighbours have been found.
    pub floor: f64,
}

impl KnnParams {
    /// Check the parameters against their admissible ranges: `ε` in
    /// `(0, 1)` and `h >= chunk >= 1`.
    ///
    /// # Errors
    ///
    /// [`SearchError::InvalidConfig`] naming the first offending parameter.
    pub fn validate(&self) -> Result<(), SearchError> {
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(SearchError::invalid(
                "epsilon",
                format!("must lie in (0, 1), got {}", self.epsilon),
            ));
        }
        if self.chunk < 1 || self.h < self.chunk {
            return Err(SearchError::invalid(
                "chunk",
                format!(
                    "need h >= chunk >= 1, got chunk {} h {}",
                    self.chunk, self.h
                ),
            ));
        }
        Ok(())
    }
}

impl Default for KnnParams {
    fn default() -> Self {
        Self {
            epsilon: 0.03,
            chunk: 32,
            h: 128,
            floor: 0.1,
        }
    }
}

/// Query statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KnnStats {
    /// Candidates produced by the banding probe.
    pub candidates: u64,
    /// Candidates pruned by the posterior test.
    pub pruned: u64,
    /// Exact similarity computations.
    pub exact: u64,
    /// Hash comparisons performed.
    pub hash_comparisons: u64,
}

/// Total-ordered (similarity, id) pair for the top-k heap of
/// [`crate::searcher::Searcher::top_k`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HeapItem(pub(crate) f64, pub(crate) u32);

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
