//! The BayesLSH benchmark: one command that runs a workload, checks the
//! program's outputs, and prints every metric with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rcv1 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the separate
//! traced run that decomposes the same work into per-layer spans. The last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 0 only when every check passed
//! and no operation failed. See `perfbench/README.md` for the metrics.

mod check;
mod corpus;
mod join;
mod ops;
mod query;
mod serve;
mod setup;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::Checks;
use ops::Ops;
use stats::{median, nearest_rank};
use trace::Tracer;
use workload::{Workload, JOINS, WORKLOADS};

/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Shares of `--seconds` for the join, point-query and serving phases.
/// The serving share splits into the middle read rate and, for each of the
/// lowest and highest rates, a quarter as long.
const JOIN_SHARE: f64 = 0.35;
const QUERY_SHARE: f64 = 0.2;
const SERVE_MIDDLE_SHARE: f64 = 0.3;
const SERVE_EDGE_SHARE: f64 = 0.075;
/// Warm-up of point queries and of serving before the measured blocks.
const WARM_UP: Duration = Duration::from_secs(1);
/// Blocks of joins, point queries and serving per untraced run.
const BLOCKS: u32 = 4;
/// Each pass over the joins runs every one repeatedly for at least this
/// long.
const JOIN_SLICE: Duration = Duration::from_millis(150);
/// Minimum `all_pairs` samples of every composition per untraced run.
const JOIN_MIN_SAMPLES: usize = 10;
/// Minimum latency samples per query kind, so p99 has ten samples beyond it.
const MIN_LATENCY_SAMPLES: usize = 1000;
/// Point queries replayed in the traced run.
const TRACED_QUERIES: usize = 1000;
/// Layers whose self time the traced run reports.
const LAYERS: [&str; 6] = ["lsh", "candgen", "verify", "sparse", "searcher", "serving"];

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <rcv1|wiki> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metrics in report order, each with its unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Peak resident set of this process (`VmHWM`), MB. One process runs one
/// workload, so this is the workload's peak.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The untraced run: every end-to-end metric.
fn run(args: &Args, threads: u32, ops: &mut Ops, checks: &mut Checks) -> Metrics {
    let w = args.workload;
    let budget = Duration::from_secs_f64(args.seconds);
    let inputs = corpus::generate(
        w.preset,
        w.scale,
        w.corpus_seed,
        args.seed,
        w.held_out,
        workload::THRESHOLD,
    );
    println!(
        "# workload {} seed {} threads {threads}: {} base vectors, {} held out, {} oracle pairs",
        w.name,
        args.seed,
        inputs.base.len(),
        inputs.held_out.len(),
        inputs.oracle_pairs.len()
    );

    let mut setup_totals = Vec::with_capacity(SETUP_REPS);
    let mut searchers = None;
    for _ in 0..SETUP_REPS {
        drop(searchers.take()); // free the previous set before building the next
        let (built, secs) = setup::build_all(ops, &inputs.base, threads);
        setup_totals.push(secs);
        searchers = built;
    }
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_totals).unwrap_or(f64::NAN), "s");
    let Some(searchers) = searchers else {
        checks.require(false, || "set-up failed".into());
        return m;
    };

    // The run alternates blocks of join repetitions, point queries and a
    // serving slice at the middle read rate, each for its share of
    // `--seconds`, so that every metric samples the whole run. Blocks are
    // a few seconds long, so each phase runs mostly with its own data in
    // cache. The lowest and highest read rates run once, after the blocks.
    let mut joins = join::JoinPhase::new();
    let mut queries = query::QueryPhase::default();
    let mut serve = serve::ServePhase::new(
        &w,
        searchers.serving,
        inputs.base.len(),
        &inputs.held_out,
        args.seed,
    );
    let middle = w.ladder.len() / 2;
    // Warm-up: one pass over the joins, and a short window of point
    // queries and of serving, whose times are discarded.
    joins.rep(
        ops,
        checks,
        &searchers.joins,
        &inputs.oracle_pairs,
        Duration::ZERO,
    );
    joins.discard_times();
    queries.run_for(
        ops,
        checks,
        &searchers.query,
        &inputs.held_out,
        &inputs.oracle_neighbors,
        WARM_UP,
    );
    queries.discard_times();
    serve.warm_up(ops, WARM_UP);
    let share = |s: f64| budget.mul_f64(s / BLOCKS as f64);
    let mut blocks = 0;
    while blocks < BLOCKS
        || joins.min_samples() < JOIN_MIN_SAMPLES
        || queries.topk_us.len() < MIN_LATENCY_SAMPLES
    {
        let t0 = Instant::now();
        while t0.elapsed() < share(JOIN_SHARE) {
            joins.rep(
                ops,
                checks,
                &searchers.joins,
                &inputs.oracle_pairs,
                JOIN_SLICE,
            );
        }
        queries.run_for(
            ops,
            checks,
            &searchers.query,
            &inputs.held_out,
            &inputs.oracle_neighbors,
            share(QUERY_SHARE),
        );
        serve.slice(ops, middle, share(SERVE_MIDDLE_SHARE), None);
        blocks += 1;
        if blocks == 3 * BLOCKS {
            break;
        }
    }
    for rung in (0..w.ladder.len()).filter(|&r| r != middle) {
        serve.slice(ops, rung, budget.mul_f64(SERVE_EDGE_SHARE), None);
    }
    let serve = serve.finish(checks, &inputs.base);

    for ((name, _, _), s) in JOINS.iter().zip(joins.median_s()) {
        m.put(format!("join_s.{name}"), s, "s");
    }
    let query_recall = queries.recall(checks);
    let recall_min = joins.recall.iter().copied().fold(query_recall, f64::min);
    m.put("recall_min", recall_min, "ratio");
    // The p99 of these closed-loop queries is a per-layer metric of the
    // traced run (`searcher.query_p99_us`, `searcher.topk_p99_us`);
    // perfbench/README.md says why.
    m.put("query_p50_us", query::p50_p99(&queries.query_us).0, "us");
    m.put("topk_p50_us", query::p50_p99(&queries.topk_us).0, "us");

    let (p50, p99) = query::p50_p99(&serve.middle().latency_us);
    m.put("serve_read_p50_us", p50, "us");
    m.put("serve_read_p99_us", p99, "us");
    m.put(
        "serve_write_p50_ms",
        median(&serve.middle().batch_ms).unwrap_or(f64::NAN),
        "ms",
    );
    m.put("serve_max_qps", serve.max_qps(), "1/s");
    m.put("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");

    println!(
        "# samples: at least {} joins of each composition, {} threshold queries, {} top-k queries, {} write batches at the middle read rate",
        joins.min_samples(),
        queries.query_us.len(),
        queries.topk_us.len(),
        serve.middle().batch_ms.len()
    );
    for ((name, _, _), r) in JOINS.iter().zip(&joins.recall) {
        println!("# recall {name}: {r:.4}");
    }
    println!("# recall query: {query_recall:.4}");
    for r in &serve.rungs {
        println!(
            "# serve rung {:.0}/s: {} reads, p99 {:.0} us, max {:.0} us, generator late p99 {:.0} max {:.0} us, achieved {:.1}/s, backlog max {}, {}",
            r.rate,
            r.latency_us.len(),
            query::p50_p99(&r.latency_us).1,
            nearest_rank(&r.latency_us, 100.0).unwrap_or(f64::INFINITY),
            nearest_rank(&r.late_us, 99.0).unwrap_or(f64::INFINITY),
            nearest_rank(&r.late_us, 100.0).unwrap_or(f64::INFINITY),
            r.achieved(),
            r.backlog_max,
            if r.passed(serve.limit_us) {
                "met the limit"
            } else {
                "missed the limit"
            }
        );
    }
    m
}

/// The traced run: every per-layer metric, from spans around calls into
/// each layer's public functions.
fn traced_run(args: &Args, threads: u32, ops: &mut Ops, checks: &mut Checks) -> Metrics {
    let w = args.workload;
    let budget = Duration::from_secs_f64(args.seconds);
    let inputs = corpus::generate(
        w.preset,
        w.scale,
        w.corpus_seed,
        args.seed,
        w.held_out,
        workload::THRESHOLD,
    );
    let mut m = Metrics::default();
    let (Some(mut searchers), _) = setup::build_all(ops, &inputs.base, threads) else {
        checks.require(false, || "set-up failed".into());
        return m;
    };
    let mut tracer = Tracer::new(Instant::now());

    let j = join::traced(
        ops,
        checks,
        &mut tracer,
        &searchers.joins,
        &inputs.oracle_pairs,
    );
    let q = query::traced(
        ops,
        checks,
        &mut tracer,
        &mut searchers.query,
        &inputs.held_out,
        TRACED_QUERIES,
    );
    let mut serve = serve::ServePhase::new(
        &w,
        searchers.serving,
        inputs.base.len(),
        &inputs.held_out,
        args.seed,
    );
    for rung in 0..w.ladder.len() {
        let share = if rung == w.ladder.len() / 2 {
            SERVE_MIDDLE_SHARE
        } else {
            SERVE_EDGE_SHARE
        };
        serve.slice(ops, rung, budget.mul_f64(share), Some(&mut tracer));
    }
    let serve = serve.finish(checks, &inputs.base);

    let med_us = |name: &str| {
        let ns = tracer.durations_ns(name);
        median(&ns).map_or(f64::NAN, |v| v / 1e3)
    };
    let hash_s = tracer.total_s("lsh.hash");
    m.put("lsh.hash_s", hash_s, "s");
    m.put("lsh.components", j.components as f64, "count");
    m.put("lsh.components_per_s", j.components as f64 / hash_s, "1/s");
    m.put("lsh.query_hash_us", med_us("lsh.query_hash"), "us");

    let lsh_s = tracer.total_s("candgen.lsh_pairs");
    let ap_s = tracer.total_s("candgen.ap_pairs");
    m.put(
        "candgen.index_build_s",
        tracer.total_s("candgen.index_build"),
        "s",
    );
    m.put("candgen.lsh_pairs_s", lsh_s, "s");
    m.put("candgen.lsh_candidates", j.lsh_candidates as f64, "count");
    m.put(
        "candgen.lsh_ns_per_candidate",
        lsh_s * 1e9 / j.lsh_candidates as f64,
        "ns",
    );
    m.put("candgen.lsh_precision", j.lsh_precision, "ratio");
    m.put("candgen.ap_pairs_s", ap_s, "s");
    m.put("candgen.ap_candidates", j.ap_candidates as f64, "count");
    m.put(
        "candgen.ap_ns_per_candidate",
        ap_s * 1e9 / j.ap_candidates as f64,
        "ns",
    );
    m.put("candgen.probe_us", med_us("candgen.probe"), "us");
    m.put("candgen.candidates_per_query", q.query[0], "count");

    let bayes_s = tracer.total_s("verify.bayes");
    m.put("verify.bayes_s", bayes_s, "s");
    m.put("verify.lite_s", tracer.total_s("verify.lite"), "s");
    m.put("verify.sprt_s", tracer.total_s("verify.sprt"), "s");
    m.put(
        "verify.pairs_per_s",
        j.bayes.input_pairs as f64 / bayes_s,
        "1/s",
    );
    m.put(
        "verify.hash_comparisons",
        j.bayes.hash_comparisons as f64,
        "count",
    );
    m.put(
        "verify.hashes_per_accepted_pair",
        j.bayes.hashes_per_accepted_pair(),
        "count",
    );
    m.put(
        "verify.accept_ratio",
        j.bayes.accepted as f64 / j.bayes.input_pairs as f64,
        "ratio",
    );
    m.put("verify.exact_fallbacks", j.sprt_exact as f64, "count");

    let exact_s = tracer.total_s("sparse.exact");
    m.put("sparse.exact_s", exact_s, "s");
    m.put("sparse.exact_calls", j.lsh_candidates as f64, "count");
    m.put(
        "sparse.exact_ns_per_pair",
        exact_s * 1e9 / j.lsh_candidates as f64,
        "ns",
    );
    m.put("sparse.topk_exact_us", med_us("sparse.topk_exact"), "us");

    let query_us: Vec<f64> = tracer
        .durations_ns("searcher.query")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    m.put("searcher.query_p99_us", query::p50_p99(&query_us).1, "us");
    m.put("searcher.topk_p99_us", query::p50_p99(&q.topk_us).1, "us");
    m.put(
        "searcher.topk_first_chunk_us",
        med_us("searcher.topk_first_chunk"),
        "us",
    );
    m.put("searcher.topk_scan_us", med_us("searcher.topk_scan"), "us");
    for (kind, counts) in [("query", q.query), ("topk", q.topk)] {
        for (stat, v) in ["candidates", "pruned", "exact", "hash_comparisons"]
            .iter()
            .zip(counts)
        {
            // BayesLSH threshold queries never compute exact similarities.
            if (kind, *stat) != ("query", "exact") {
                m.put(format!("searcher.{kind}_{stat}"), v, "count");
            }
        }
    }

    let mid = serve.middle();
    m.put(
        "serving.first_insert_ms",
        median(&serve.first_insert_ms).unwrap_or(f64::NAN),
        "ms",
    );
    m.put(
        "serving.insert_us",
        median(&serve.insert_us).unwrap_or(f64::NAN),
        "us",
    );
    m.put(
        "serving.publish_us",
        median(&serve.publish_us).unwrap_or(f64::NAN),
        "us",
    );
    m.put("serving.compact_ms", serve.compact_ms, "ms");
    m.put("serving.epochs", serve.epochs as f64, "count");
    m.put(
        "serving.gen_late_us",
        nearest_rank(&mid.late_us, 99.0).unwrap_or(f64::NAN),
        "us",
    );
    let backlog = serve.rungs.iter().map(|r| r.backlog_max).max().unwrap_or(0);
    m.put("serving.backlog_max", backlog as f64, "count");

    for layer in LAYERS {
        m.put(format!("self_s.{layer}"), tracer.self_time_s(layer), "s");
    }
    m.put("trace.join_overhead_s", j.overhead_s, "s");
    m.put("trace.topk_overhead_us", q.topk_overhead_us, "us");
    m.put("trace.spans", tracer.spans().len() as f64, "count");

    let path = format!("perfbench/out/trace-{}-{}.jsonl", w.name, args.seed);
    let written = std::fs::create_dir_all("perfbench/out")
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| tracer.write_jsonl(std::io::BufWriter::new(f)));
    checks.require_ok(written.map_err(|e| format!("writing {path}: {e}")));
    println!("# {} spans written to {path}", tracer.spans().len());
    m
}

/// The final JSON line.
fn result_json(correct: bool, ops: &Ops, m: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.attempted, ops.failed
    );
    for (i, (name, value, unit)) in m.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no infinity or NaN; an unmeasurable value is null.
        let v = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            eprintln!("workloads: {}", WORKLOADS.map(|w| w.name).join(", "));
            return ExitCode::from(2);
        }
    };
    // The worker budget is pinned to the host's cores through
    // `Parallelism::Fixed`, never read from the environment.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
    let mut ops = Ops::default();
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced_run(&args, threads, &mut ops, &mut checks)
    } else {
        run(&args, threads, &mut ops, &mut checks)
    };
    checks.require(metrics.0.iter().all(|(_, v, _)| v.is_finite()), || {
        "a metric could not be measured".into()
    });
    for e in &ops.errors {
        eprintln!("failed operation: {e}");
    }
    for f in checks.failures() {
        eprintln!("check failed: {f}");
    }
    for (name, value, unit) in &metrics.0 {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    let correct = checks.passed() && ops.failed == 0;
    println!("{}", result_json(correct, &ops, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload wiki --seed 7 --seconds 30 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("wiki", 7, 30.0, true)
        );
        assert!(args("--workload nope --seed 7 --seconds 30 --trace 0").is_err());
        assert!(args("--workload rcv1 --seed 7 --seconds 30 --trace 2").is_err());
        assert!(args("--workload rcv1 --seed 7 --trace 0").is_err());
        assert!(args("--workload rcv1 --seed x --seconds 1 --trace 0").is_err());
    }

    #[test]
    fn result_line_is_the_contract_json() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.8127, "s");
        m.put("bad", f64::NAN, "s");
        let ops = Ops {
            attempted: 3,
            failed: 0,
            errors: Vec::new(),
        };
        assert_eq!(
            result_json(true, &ops, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"bad\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }
}
