//! Sparse vector space for all-pairs similarity search.
//!
//! The BayesLSH evaluation works over high-dimensional sparse vectors —
//! tf-idf weighted text corpora and adjacency vectors of social graphs
//! (paper Table 1). This crate provides:
//!
//! * [`SparseVector`] — an index-sorted sparse vector with `u32` feature ids
//!   and `f32` weights (binary vectors are the special case of all-1 weights);
//! * [`similarity`] — exact similarity measures (dot, cosine, Jaccard,
//!   overlap, L2), accumulated in `f64`: these are the ground truth every
//!   approximate method is judged against. [`DenseProbe`] computes the same
//!   values, bit for bit, for one vector against many partners by
//!   scattering it once and gathering each partner in O(nnz) (a probe with
//!   feature ids past a fixed span is merge-joined instead, so its memory
//!   stays bounded);
//! * [`Dataset`] — a corpus of vectors plus the summary statistics the paper
//!   reports in Table 1;
//! * [`tfidf`] — the tf-idf weighting + L2 normalization pipeline the paper
//!   applies to all six datasets.

pub mod dataset;
pub mod similarity;
pub mod tfidf;
pub mod vector;

pub use dataset::{Dataset, DatasetStats};
pub use similarity::{cosine, dot, jaccard, l2_distance, l2_similarity, overlap, DenseProbe};
pub use vector::SparseVector;
