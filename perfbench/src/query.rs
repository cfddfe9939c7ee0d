//! Point queries: a closed loop of threshold and top-k queries against a
//! standing searcher, and the traced replay of both through the
//! searcher's public hooks.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use bayeslsh_core::{CandidateScan, KnnParams, Searcher, VerifierKind};
use bayeslsh_sparse::{cosine, SparseVector};

use crate::check::{self, Checks};
use crate::ops::Ops;
use crate::stats::{median, windowed_percentile};
use crate::trace::Tracer;
use crate::workload::{QUERY_RECALL_FLOOR, THRESHOLD, TOP_K};

/// Untraced point queries: one client in a closed loop over the held-out
/// vectors. Each step sends one threshold query, and every second step
/// also one top-k query, each when the previous one returned.
#[derive(Default)]
pub struct QueryPhase {
    /// Threshold-query latencies, microseconds (infinite when failed).
    pub query_us: Vec<f64>,
    /// Top-k latencies, microseconds (infinite when failed).
    pub topk_us: Vec<f64>,
    found: usize,
    truth: usize,
    steps: usize,
}

impl QueryPhase {
    /// Run steps until `budget` is spent. The first pass over the held-out
    /// vectors checks every top-k answer and accumulates recall.
    pub fn run_for(
        &mut self,
        ops: &mut Ops,
        checks: &mut Checks,
        searcher: &Searcher,
        queries: &[SparseVector],
        oracle: &[Vec<u32>],
        budget: Duration,
    ) {
        let params = KnnParams::default();
        let start = Instant::now();
        while start.elapsed() < budget {
            let i = self.steps;
            let q = &queries[i % queries.len()];
            let first_pass = i < queries.len();

            let t0 = Instant::now();
            let out = ops.attempt("query", || searcher.query(q, THRESHOLD));
            self.query_us
                .push(out.as_ref().map_or(f64::INFINITY, |_| micros(t0)));
            if let (Some(out), true) = (&out, first_pass) {
                let want = &oracle[i];
                self.truth += want.len();
                self.found += out
                    .neighbors
                    .iter()
                    .filter(|(id, _)| want.binary_search(id).is_ok())
                    .count();
            }

            if i % 2 == 0 {
                let t0 = Instant::now();
                let out = ops.attempt("top_k", || searcher.top_k(q, TOP_K, &params));
                self.topk_us
                    .push(out.as_ref().map_or(f64::INFINITY, |_| micros(t0)));
                if let (Some(out), true) = (&out, first_pass) {
                    checks.require_ok(check::top_k_answer(
                        &out.neighbors,
                        q,
                        searcher.data(),
                        TOP_K,
                    ));
                }
            }
            self.steps += 1;
        }
    }

    /// Discard every latency taken so far (after a warm-up window). Recall
    /// keeps accumulating.
    pub fn discard_times(&mut self) {
        self.query_us.clear();
        self.topk_us.clear();
    }

    /// Recall of the threshold-query neighbours against the oracle, checked
    /// against its floor.
    pub fn recall(&self, checks: &mut Checks) -> f64 {
        let recall = if self.truth == 0 {
            1.0
        } else {
            self.found as f64 / self.truth as f64
        };
        checks.require(recall >= QUERY_RECALL_FLOOR, || {
            format!("query: recall {recall:.4} below floor {QUERY_RECALL_FLOOR}")
        });
        recall
    }
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Per-query means of the traced point-query replay.
#[derive(Debug, Default)]
pub struct QueryLayers {
    /// Threshold-query candidates, pruned, exact and hash comparisons.
    pub query: [f64; 4],
    /// Top-k candidates, pruned, exact and hash comparisons.
    pub topk: [f64; 4],
    /// Untraced `top_k` latencies, µs.
    pub topk_us: Vec<f64>,
    /// Median traced top-k replay minus median untraced `top_k`, µs.
    pub topk_overhead_us: f64,
}

/// Total order of `(similarity, id)` for the top-k heap, as `top_k` uses.
#[derive(Clone, Copy, PartialEq)]
struct Ranked(f64, u32);

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// `(id, similarity)` pairs.
type Neighbors = Vec<(u32, f64)>;

/// `Searcher::top_k` replayed through the public scatter-gather hooks, one
/// span per layer call: hash the query (`lsh`), probe the index
/// (`candgen`), count first-chunk agreements and run the sequential
/// rising-threshold scan (`searcher`). Returns the neighbours and every
/// scan survivor with its exact similarity.
fn replay_top_k(
    tracer: &mut Tracer,
    searcher: &mut Searcher,
    q: &SparseVector,
    request: u64,
    params: &KnnParams,
) -> (Neighbors, Neighbors) {
    let scan_cap = (params.h / params.chunk) * params.chunk;
    let depth = searcher.banding_plan().params.total_hashes().max(scan_cap);
    tracer.span("searcher.top_k", request, |tr| {
        let sig = tr.span("lsh.topk_query_hash", request, |_| {
            searcher.hash_query_signature(q, depth)
        });
        let ids: Vec<u32> = tr
            .span("candgen.topk_probe", request, |_| {
                searcher.probe_first_bands(&sig)
            })
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        let first = tr.span("searcher.topk_first_chunk", request, |_| {
            searcher.first_chunk_agreements(&sig, &ids, params.chunk)
        });
        tr.span("searcher.topk_scan", request, |_| {
            let mut heap: BinaryHeap<Reverse<Ranked>> = BinaryHeap::with_capacity(TOP_K + 1);
            let mut survivors = Vec::new();
            let mut kth_best = params.floor;
            for (&id, &m) in ids.iter().zip(&first) {
                let scan = searcher.scan_top_k_candidate(q, &sig, id, m, params, kth_best);
                let CandidateScan::Survivor { similarity: s, .. } = scan else {
                    continue;
                };
                survivors.push((id, s));
                if heap.len() < TOP_K {
                    heap.push(Reverse(Ranked(s, id)));
                } else if heap.peek().is_some_and(|top| s > top.0 .0) {
                    heap.pop();
                    heap.push(Reverse(Ranked(s, id)));
                }
                if heap.len() == TOP_K {
                    if let Some(top) = heap.peek() {
                        kth_best = top.0 .0.max(params.floor);
                    }
                }
            }
            let mut neighbors: Vec<(u32, f64)> = heap
                .into_iter()
                .map(|Reverse(Ranked(s, id))| (id, s))
                .collect();
            neighbors.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            (neighbors, survivors)
        })
    })
}

/// `n` traced point queries, cycling over the held-out vectors: each
/// threshold query runs whole inside a `searcher.query` span, followed by
/// its query hashing (`lsh`) and probing (`candgen`) as separate calls;
/// each top-k query runs untraced and then replayed, and the replay must
/// reproduce it bit for bit. Every scan survivor's exact similarity is
/// recomputed in a `sparse.topk_exact` span.
pub fn traced(
    ops: &mut Ops,
    checks: &mut Checks,
    tracer: &mut Tracer,
    searcher: &mut Searcher,
    queries: &[SparseVector],
    n: usize,
) -> QueryLayers {
    let params = KnnParams::default();
    let mut layers = QueryLayers::default();
    let query_depth = searcher
        .banding_plan()
        .params
        .total_hashes()
        .max(VerifierKind::Bayes.signature_depth(searcher.config()));
    for i in 0..n {
        let q = &queries[i % queries.len()];
        let request = i as u64;
        let out = tracer.span("searcher.query", request, |_| {
            ops.attempt("query", || searcher.query(q, THRESHOLD))
        });
        if let Some(out) = out {
            let s = out.stats;
            add(
                &mut layers.query,
                [s.candidates, s.pruned, s.exact, s.hash_comparisons],
            );
        }
        let sig = tracer.span("lsh.query_hash", request, |_| {
            searcher.hash_query_signature(q, query_depth)
        });
        tracer.span("candgen.probe", request, |_| {
            searcher.probe_first_bands(&sig)
        });

        let t0 = Instant::now();
        let Some(want) = ops.attempt("top_k", || searcher.top_k(q, TOP_K, &params)) else {
            continue;
        };
        layers.topk_us.push(micros(t0));
        let s = want.stats;
        add(
            &mut layers.topk,
            [s.candidates, s.pruned, s.exact, s.hash_comparisons],
        );
        let (got, survivors) = replay_top_k(tracer, searcher, q, request, &params);
        checks.require(check::same_neighbors(&got, &want.neighbors), || {
            format!("top-k replay of query {i} differs from Searcher::top_k")
        });
        // The scan's exact similarities, recomputed on their own to time
        // the exact share of the scan.
        let data = searcher.data();
        let exact: Vec<(u32, f64)> = tracer.span("sparse.topk_exact", request, |_| {
            survivors
                .iter()
                .map(|&(id, _)| (id, cosine(q, data.vector(id))))
                .collect()
        });
        checks.require(check::same_neighbors(&survivors, &exact), || {
            format!("top-k query {i}: survivor similarities are not exact")
        });
    }
    for v in layers.query.iter_mut().chain(layers.topk.iter_mut()) {
        *v /= n.max(1) as f64;
    }
    let replay_us: Vec<f64> = tracer
        .durations_ns("searcher.top_k")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    layers.topk_overhead_us =
        median(&replay_us).unwrap_or(0.0) - median(&layers.topk_us).unwrap_or(0.0);
    layers
}

fn add(acc: &mut [f64; 4], counts: [u64; 4]) {
    for (a, c) in acc.iter_mut().zip(counts) {
        *a += c as f64;
    }
}

/// Latency samples per window for the reported percentiles: p99 of a
/// window of 1000 rests on ten samples beyond it.
pub const LATENCY_WINDOW: usize = 1000;

/// p50 and p99 of a latency sample (µs), each the median over windows of
/// [`LATENCY_WINDOW`] samples; infinite when empty.
pub fn p50_p99(us: &[f64]) -> (f64, f64) {
    (
        windowed_percentile(us, LATENCY_WINDOW, 50.0).unwrap_or(f64::INFINITY),
        windowed_percentile(us, LATENCY_WINDOW, 99.0).unwrap_or(f64::INFINITY),
    )
}
