//! Set-up: build every searcher a workload uses, timing
//! `SearcherBuilder::build` only.

use std::time::Instant;

use bayeslsh_core::{Composition, Parallelism, Searcher, SearcherBuilder};
use bayeslsh_sparse::Dataset;

use crate::ops::Ops;
use crate::workload::{JOINS, THRESHOLD};

/// The searchers of one workload.
pub struct Searchers {
    /// One per batch-join composition, in [`JOINS`] order, at the full
    /// worker budget.
    pub joins: Vec<Searcher>,
    /// LSH × BayesLSH with a serial worker budget, for point queries.
    pub query: Searcher,
    /// LSH × BayesLSH with a serial worker budget, for online serving.
    pub serving: Searcher,
}

/// Build `comp` over `data` with `threads` workers, timing only the build.
fn build(
    ops: &mut Ops,
    comp: Composition,
    threads: u32,
    data: Dataset,
    build_s: &mut f64,
) -> Option<Searcher> {
    let builder = SearcherBuilder::cosine(THRESHOLD)
        .composition(comp)
        .parallelism(Parallelism::threads(threads));
    let start = Instant::now();
    let searcher = ops.attempt("build", || builder.build(data));
    *build_s += start.elapsed().as_secs_f64();
    searcher
}

/// Build every searcher once; returns them with the summed build seconds.
pub fn build_all(ops: &mut Ops, base: &Dataset, threads: u32) -> (Option<Searchers>, f64) {
    let mut build_s = 0.0;
    let mut joins = Vec::with_capacity(JOINS.len());
    for (_, comp, _) in JOINS {
        joins.extend(build(ops, comp, threads, base.clone(), &mut build_s));
    }
    let query = build(ops, JOINS[0].1, 1, base.clone(), &mut build_s);
    let serving = build(ops, JOINS[0].1, 1, base.clone(), &mut build_s);
    let searchers = match (query, serving) {
        (Some(query), Some(serving)) if joins.len() == JOINS.len() => Some(Searchers {
            joins,
            query,
            serving,
        }),
        _ => None,
    };
    (searchers, build_s)
}
