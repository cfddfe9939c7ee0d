//! The benchmark's workloads and the settings pinned for them.

use bayeslsh_core::{Composition, GeneratorKind, VerifierKind};
use bayeslsh_datasets::Preset;

/// Similarity threshold of every workload (cosine).
pub const THRESHOLD: f64 = 0.7;

/// Neighbours per top-k query.
pub const TOP_K: usize = 10;

/// The batch-join compositions, with the metric suffix each reports under
/// (`join_s.<suffix>`) and its pinned recall floor against the exact
/// oracle.
pub const JOINS: [(&str, Composition, f64); 5] = [
    (
        "lsh_bayes",
        Composition::new(GeneratorKind::LshBanding, VerifierKind::Bayes),
        0.93,
    ),
    (
        "lsh_lite",
        Composition::new(GeneratorKind::LshBanding, VerifierKind::BayesLite),
        0.93,
    ),
    (
        "lsh_sprt",
        Composition::new(GeneratorKind::LshBanding, VerifierKind::Sprt),
        0.95,
    ),
    (
        "lsh_exact",
        Composition::new(GeneratorKind::LshBanding, VerifierKind::Exact),
        0.95,
    ),
    (
        "ap_bayes",
        Composition::new(GeneratorKind::AllPairs, VerifierKind::Bayes),
        0.93,
    ),
];

/// Recall floor of the threshold-query neighbours (LSH × BayesLSH).
pub const QUERY_RECALL_FLOOR: f64 = 0.90;

/// One workload: a generated corpus and the load driven against it.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Corpus generator preset.
    pub preset: Preset,
    /// Preset scale (share of the paper's vector count).
    pub scale: f64,
    /// Generator seed of the corpus; `--seed` draws the held-out sample.
    pub corpus_seed: u64,
    /// Vectors held out of the index as queries and serving inserts.
    pub held_out: usize,
    /// Open-loop serving read rates (reads/s), ascending; the middle one
    /// is where read latency is reported.
    pub ladder: [f64; 3],
    /// Serving read latency limit at p99, microseconds.
    pub read_p99_limit_us: f64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "rcv1",
        preset: Preset::Rcv1,
        scale: 0.004,
        corpus_seed: 42,
        held_out: 600,
        ladder: [100.0, 400.0, 3200.0],
        read_p99_limit_us: 50_000.0,
    },
    Workload {
        name: "wiki",
        preset: Preset::WikiWords100K,
        scale: 0.012,
        corpus_seed: 42,
        held_out: 400,
        ladder: [50.0, 200.0, 1600.0],
        read_p99_limit_us: 50_000.0,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}
