//! Online serving: one open-loop reader at a ladder of fixed rates and one
//! writer on a fixed schedule, against a `ServingSearcher`. The phase runs
//! in slices, so that the middle rate, where read latency is reported, can
//! alternate with the other phases and sample the whole run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bayeslsh_core::{Composition, Searcher};
use bayeslsh_core::{Epoch, Parallelism, SearcherBuilder, ServingSearcher};
use bayeslsh_numeric::{derive_seed, Xoshiro256};
use bayeslsh_sparse::{Dataset, SparseVector};

use crate::check::{self, Checks};
use crate::ops::Ops;
use crate::query::p50_p99;
use crate::trace::Tracer;
use crate::workload::{Workload, THRESHOLD};

/// Inserts per write batch.
const BATCH_INSERTS: usize = 8;
/// Write batches per second of serving.
const BATCHES_PER_S: f64 = 3.0;
/// The write batch that also compacts.
const COMPACT_BATCH: usize = 10;
/// Distinct indexed ids the writer removes, in turn.
const REMOVALS: usize = 1000;
/// Held-out queries compared per pinned epoch in the consistency check.
const CHECK_QUERIES: usize = 10;

/// One rate of the read ladder, pooled over every slice run at it.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Offered read rate, reads/s.
    pub rate: f64,
    /// Latency of every due read from its due time, µs; infinite when the
    /// read failed or was never sent.
    pub latency_us: Vec<f64>,
    /// Generator lateness of every sent read (send time minus due time), µs.
    pub late_us: Vec<f64>,
    /// Most reads due but not yet sent at any send.
    pub backlog_max: u64,
    /// Latency of every write batch run while reads came at this rate, ms.
    pub batch_ms: Vec<f64>,
    completed: usize,
    busy_s: f64,
    fell_behind: bool,
}

impl Rung {
    fn new(rate: f64) -> Self {
        Self {
            rate,
            latency_us: Vec::new(),
            late_us: Vec::new(),
            backlog_max: 0,
            batch_ms: Vec::new(),
            completed: 0,
            busy_s: 0.0,
            fell_behind: false,
        }
    }

    /// Completed reads per second over the slices at this rate.
    pub fn achieved(&self) -> f64 {
        self.completed as f64 / self.busy_s.max(1e-9)
    }

    /// The p99 met `limit_us` and the reader kept up in every slice.
    pub fn passed(&self, limit_us: f64) -> bool {
        !self.latency_us.is_empty() && !self.fell_behind && p50_p99(&self.latency_us).1 <= limit_us
    }
}

/// A write-log entry, in the order the writer applied it.
#[derive(Debug, Clone, Copy)]
enum Write {
    Insert(usize),
    Remove(u32),
    Compact,
}

/// Reader-side state.
struct Reader {
    rungs: Vec<Rung>,
    next: usize,
}

/// Writer-side state and measurements.
#[derive(Default)]
struct Writer {
    batch: usize,
    log: Vec<Write>,
    pinned: Vec<Arc<Epoch>>,
    batch_ms: Vec<f64>,
    first_insert_ms: Vec<f64>,
    insert_us: Vec<f64>,
    publish_us: Vec<f64>,
    compact_ms: f64,
}

/// The serving phase of one run.
pub struct ServePhase<'a> {
    w: Workload,
    serving: ServingSearcher,
    held_out: &'a [SparseVector],
    removals: Vec<u32>,
    reader: Reader,
    writer: Writer,
}

/// Everything the serving phase measured.
pub struct ServeReport {
    /// Ladder rates, ascending.
    pub rungs: Vec<Rung>,
    /// The p99 read latency limit, µs.
    pub limit_us: f64,
    /// First insert of each batch (the one that stages a clone), ms.
    pub first_insert_ms: Vec<f64>,
    /// Other inserts, µs.
    pub insert_us: Vec<f64>,
    /// Publishes, µs.
    pub publish_us: Vec<f64>,
    /// The compaction, ms.
    pub compact_ms: f64,
    /// Epochs published.
    pub epochs: u64,
}

impl ServeReport {
    /// The highest rate that met the limit, as achieved reads/s (0 when
    /// none did).
    pub fn max_qps(&self) -> f64 {
        self.rungs
            .iter()
            .filter(|r| r.passed(self.limit_us))
            .map(Rung::achieved)
            .fold(0.0, f64::max)
    }

    /// The middle rate, where read latency is reported.
    pub fn middle(&self) -> &Rung {
        &self.rungs[self.rungs.len() / 2]
    }
}

/// Seconds spent in `f`, inside a span named `name` when tracing.
fn timed(tracer: Option<&mut Tracer>, name: &'static str, batch: usize, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    match tracer {
        Some(t) => t.span(name, batch as u64, |_| f()),
        None => f(),
    }
    t0.elapsed().as_secs_f64()
}

impl Reader {
    /// Send reads at `rung`'s rate for `duration`, timing each from when it
    /// was due; a `serving.read` span per read when tracing.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        ops: &mut Ops,
        serving: &ServingSearcher,
        queries: &[SparseVector],
        rung: usize,
        duration: Duration,
        limit: Duration,
        mut tracer: Option<&mut Tracer>,
    ) {
        let r = &mut self.rungs[rung];
        let due_n = (r.rate * duration.as_secs_f64()).floor() as usize;
        let start = Instant::now();
        let cutoff = start + duration + limit;
        let mut last_done = start;
        for i in 0..due_n {
            let due = start + Duration::from_secs_f64(i as f64 / r.rate);
            // Busy-wait rather than sleep: an idle virtual CPU can take
            // tens of milliseconds to wake, which would show as generator
            // lateness rather than as the program's latency.
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let sent = Instant::now();
            if sent > cutoff {
                // The reader fell a full limit behind the slice's end: the
                // remaining reads count as missing the limit.
                r.latency_us
                    .extend(std::iter::repeat(f64::INFINITY).take(due_n - i));
                r.fell_behind = true;
                break;
            }
            r.late_us.push((sent - due).as_secs_f64() * 1e6);
            let due_by_now = ((sent - start).as_secs_f64() * r.rate).floor() as u64;
            r.backlog_max = r.backlog_max.max(due_by_now.saturating_sub(i as u64));
            let request = self.next as u64;
            let q = &queries[self.next % queries.len()];
            self.next += 1;
            let mut read = || ops.attempt("read", || serving.query(q, THRESHOLD));
            let ok = match tracer.as_deref_mut() {
                Some(t) => t.span("serving.read", request, |_| read()),
                None => read(),
            }
            .is_some();
            last_done = Instant::now();
            if ok {
                r.completed += 1;
                r.latency_us.push((last_done - due).as_secs_f64() * 1e6);
            } else {
                r.latency_us.push(f64::INFINITY);
            }
        }
        r.busy_s += (last_done - start).as_secs_f64();
        r.fell_behind |= last_done > cutoff;
    }
}

impl Writer {
    /// Run this slice's batches, spread evenly over `duration`: each inserts
    /// [`BATCH_INSERTS`] held-out vectors and removes one indexed id before
    /// publishing; batch [`COMPACT_BATCH`] also compacts. Pins the epochs of
    /// the second batch and the compacting batch for the consistency check.
    fn run(
        &mut self,
        ops: &mut Ops,
        serving: &ServingSearcher,
        inserts: &[SparseVector],
        removals: &[u32],
        duration: Duration,
        mut tracer: Option<&mut Tracer>,
    ) {
        let batches = (duration.as_secs_f64() * BATCHES_PER_S).round().max(1.0) as usize;
        let start = Instant::now();
        for k in 0..batches {
            let due = start + duration.mul_f64(k as f64 / batches as f64);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let b = self.batch;
            self.batch += 1;
            let t0 = Instant::now();
            for j in 0..BATCH_INSERTS {
                let idx = (b * BATCH_INSERTS + j) % inserts.len();
                let v = inserts[idx].clone();
                let mut ok = false;
                let s = timed(tracer.as_deref_mut(), "serving.insert", b, || {
                    ok = ops.attempt("insert", || serving.insert(v)).is_some();
                });
                if ok {
                    self.log.push(Write::Insert(idx));
                }
                if j == 0 {
                    self.first_insert_ms.push(s * 1e3);
                } else {
                    self.insert_us.push(s * 1e6);
                }
            }
            let id = removals[b % removals.len()];
            if let Some(true) = ops.attempt("remove", || serving.remove(id)) {
                self.log.push(Write::Remove(id));
            }
            if b == COMPACT_BATCH {
                let mut reclaimed = 0;
                let s = timed(tracer.as_deref_mut(), "serving.compact", b, || {
                    reclaimed = serving.compact();
                });
                self.compact_ms = s * 1e3;
                if reclaimed > 0 {
                    self.log.push(Write::Compact);
                }
            }
            let mut epoch = None;
            let s = timed(tracer.as_deref_mut(), "serving.publish", b, || {
                epoch = Some(serving.publish());
            });
            self.publish_us.push(s * 1e6);
            self.batch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if let (Some(epoch), 1 | COMPACT_BATCH) = (epoch, b) {
                self.pinned.push(epoch);
            }
        }
    }
}

impl<'a> ServePhase<'a> {
    /// `searcher` (serial LSH × BayesLSH over the base corpus) becomes
    /// epoch 0; the writer inserts `held_out` vectors and removes a seeded
    /// sample of the `base_len` indexed ids.
    pub fn new(
        w: &Workload,
        searcher: Searcher,
        base_len: usize,
        held_out: &'a [SparseVector],
        seed: u64,
    ) -> Self {
        let mut rng = Xoshiro256::seed_from_u64(derive_seed(seed, 0xDE1E7E));
        let removals = rng
            .sample_indices(base_len, REMOVALS.min(base_len))
            .into_iter()
            .map(|i| i as u32)
            .collect();
        let rungs = w.ladder.iter().map(|&rate| Rung::new(rate)).collect();
        Self {
            w: *w,
            serving: ServingSearcher::new(searcher),
            held_out,
            removals,
            reader: Reader { rungs, next: 0 },
            writer: Writer::default(),
        }
    }

    /// Serve for `duration`: the reader at ladder rate `rung`, the writer
    /// on its schedule, concurrently.
    pub fn slice(
        &mut self,
        ops: &mut Ops,
        rung: usize,
        duration: Duration,
        tracer: Option<&mut Tracer>,
    ) {
        let limit = Duration::from_secs_f64(self.w.read_p99_limit_us / 1e6);
        let (mut reader_tracer, mut writer_tracer) = match &tracer {
            Some(t) => (Some(t.fork()), Some(t.fork())),
            None => (None, None),
        };
        let (serving, held_out, removals) = (&self.serving, self.held_out, &self.removals);
        let (reader, writer) = (&mut self.reader, &mut self.writer);
        let batches_before = writer.batch_ms.len();
        let (reader_ops, writer_ops) = std::thread::scope(|scope| {
            let wt = writer_tracer.as_mut();
            let writer_thread = scope.spawn(move || {
                let mut ops = Ops::default();
                writer.run(&mut ops, serving, held_out, removals, duration, wt);
                ops
            });
            let mut ops = Ops::default();
            let rt = reader_tracer.as_mut();
            reader.run(&mut ops, serving, held_out, rung, duration, limit, rt);
            let writer_ops = writer_thread
                .join()
                .expect("writer thread panicked outside an operation");
            (ops, writer_ops)
        });
        ops.absorb(reader_ops);
        ops.absorb(writer_ops);
        let batch_ms = &self.writer.batch_ms[batches_before..];
        self.reader.rungs[rung].batch_ms.extend_from_slice(batch_ms);
        if let Some(t) = tracer {
            t.absorb(reader_tracer.expect("reader recorder"));
            t.absorb(writer_tracer.expect("writer recorder"));
        }
    }

    /// Serve at the middle read rate for `duration` and discard every
    /// timing taken, so that measured slices start with the first staged
    /// clones done and their memory in place. The writes stay applied.
    pub fn warm_up(&mut self, ops: &mut Ops, duration: Duration) {
        let middle = self.reader.rungs.len() / 2;
        self.slice(ops, middle, duration, None);
        let r = &mut self.reader.rungs[middle];
        *r = Rung::new(r.rate);
        let w = &mut self.writer;
        for v in [&mut w.first_insert_ms, &mut w.insert_us, &mut w.publish_us] {
            v.clear();
        }
    }

    /// End the phase: check the pinned epochs and the final one against
    /// fresh searchers over the same write prefixes, and report.
    pub fn finish(mut self, checks: &mut Checks, base: &Dataset) -> ServeReport {
        self.writer.pinned.push(self.serving.epoch());
        let comp = self.serving.epoch().searcher().composition();
        check_epochs(
            checks,
            base,
            comp,
            self.held_out,
            &self.writer.log,
            &self.writer.pinned,
        );
        let w = self.writer;
        ServeReport {
            rungs: self.reader.rungs,
            limit_us: self.w.read_p99_limit_us,
            epochs: w.batch_ms.len() as u64,
            first_insert_ms: w.first_insert_ms,
            insert_us: w.insert_us,
            publish_us: w.publish_us,
            compact_ms: w.compact_ms,
        }
    }
}

/// Rebuild the serving searcher's state from scratch for each pinned
/// epoch (a fresh serial build over the base corpus plus the epoch's
/// write-log prefix) and require a sample of reads to match bit for bit.
fn check_epochs(
    checks: &mut Checks,
    base: &Dataset,
    comp: Composition,
    held_out: &[SparseVector],
    log: &[Write],
    pinned: &[Arc<Epoch>],
) {
    let fresh = SearcherBuilder::cosine(THRESHOLD)
        .composition(comp)
        .parallelism(Parallelism::serial())
        .build(base.clone());
    let mut fresh: Searcher = match fresh {
        Ok(s) => s,
        Err(e) => {
            checks.require(false, || format!("serving check: fresh build failed: {e}"));
            return;
        }
    };
    let mut applied = 0usize;
    for epoch in pinned {
        let upto = (epoch.applied() as usize).min(log.len());
        for op in &log[applied.min(upto)..upto] {
            let ok = match *op {
                Write::Insert(idx) => fresh.insert(held_out[idx].clone()).is_ok(),
                Write::Remove(id) => fresh.remove(id).is_ok(),
                Write::Compact => fresh.compact() > 0,
            };
            checks.require(ok, || "serving check: write replay failed".into());
        }
        applied = upto;
        for q in held_out.iter().take(CHECK_QUERIES) {
            let got = epoch.searcher().query(q, THRESHOLD);
            let want = fresh.query(q, THRESHOLD);
            let same = match (&got, &want) {
                (Ok(g), Ok(w)) => check::same_neighbors(&g.neighbors, &w.neighbors),
                _ => false,
            };
            checks.require(same, || {
                format!(
                    "serving: epoch {} read differs from a fresh searcher over the same writes",
                    epoch.ordinal()
                )
            });
        }
    }
}
