//! The one run-major verification scan behind every hash-based verifier.
//!
//! BayesLSH (Algorithm 1), BayesLSH-Lite (Algorithm 2) and the SPRT
//! verifier are the same loop: compare `k` more hashes of a candidate, then
//! decide from the running agreement counts `(m, n)` whether to prune it,
//! accept it, or keep going; a candidate still undecided at the hash cap is
//! settled once. Only the decision differs, so it is factored out as a
//! [`ScanRule`] ([`Bayes`], [`Lite`], [`Sprt`]), and the loop itself lives
//! in exactly one place, [`Scanner::run`].
//!
//! The scan is run-major: it walks one *run* at a time — a probe and the
//! partners it is compared against — and counts the probe against every
//! still-undecided partner with one batched word-parallel sweep per chunk.
//! A batch join's runs are the maximal candidate runs sharing a first id
//! (the shape both all-pairs and sorted LSH generation emit); a point query
//! is one run whose probe is the external query signature ([`Probe`]).
//! Batching only reorders *when* each pair's chunks are counted: every
//! verdict is a pure function of `(m, n)` at a chunk boundary, so output
//! and counters are identical whatever the run split or thread count.
//!
//! Signatures are reached through a [`PoolAccess`] handle: [`WritePool`]
//! extends them lazily as the scan deepens (the paper's economy: a pair
//! pruned at chunk `c` is never hashed past `c·k`), [`ReadPool`] requires
//! them hashed to the scan depth already and can be shared across worker
//! threads ([`par_scan_pairs`]).

use bayeslsh_lsh::SignaturePool;
use bayeslsh_numeric::fan_out;
use bayeslsh_sparse::{Dataset, SparseVector};

use crate::cache::ConcentrationCache;
use crate::engine::EngineStats;
use crate::minmatch::MinMatchTable;
use crate::posterior::PosteriorModel;
use crate::sprt::SprtTable;

/// A rule's verdict on one candidate after a chunk (and, in the scanner,
/// each run member's standing verdict).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// Keep comparing hashes (after the last chunk: undecided).
    Continue,
    /// The candidate cannot clear the threshold: drop it.
    Prune,
    /// Accept the candidate with this similarity estimate.
    Accept(f64),
}

/// The decision half of a verifier: what the scanner does with a candidate
/// after each chunk, and with one still undecided at the hash cap.
pub(crate) trait ScanRule {
    /// Hashes compared per chunk.
    fn chunk(&self) -> u32;

    /// Chunks scanned before the hash cap.
    fn max_chunks(&self) -> u32;

    /// The verdict for a candidate whose first `n` hashes hold `m`
    /// agreements (`n` a chunk boundary).
    fn step(&mut self, m: u32, n: u32) -> Step;

    /// A candidate still undecided at the cap: `Some(estimate)` accepts it
    /// (a forced accept), `None` sends it to [`ScanRule::exact`].
    fn at_cap(&self, m: u32, n: u32) -> Option<f64>;

    /// The exact check at the cap: the pair's true similarity when it
    /// clears the threshold, `None` when it does not.
    fn exact(&self, a: &SparseVector, b: &SparseVector) -> Option<f64>;

    /// Concentration-cache (hits, misses), for rules that keep one.
    fn cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// BayesLSH (Algorithm 1): prune through the [`MinMatchTable`], accept once
/// the MAP estimate is `(δ, γ)`-concentrated, and emit the current estimate
/// for candidates still unconcentrated at the cap (which preserves the
/// recall guarantee).
pub(crate) struct Bayes<'a, M: ?Sized> {
    table: &'a MinMatchTable,
    model: &'a M,
    cache: ConcentrationCache,
}

impl<'a, M: PosteriorModel + ?Sized> Bayes<'a, M> {
    /// A rule scanning as deep as `table` reaches, with a fresh
    /// concentration cache for accuracy parameters `(delta, gamma)`.
    pub(crate) fn new(table: &'a MinMatchTable, model: &'a M, delta: f64, gamma: f64) -> Self {
        Self {
            table,
            model,
            cache: ConcentrationCache::new(delta, gamma),
        }
    }
}

impl<M: PosteriorModel + ?Sized> ScanRule for Bayes<'_, M> {
    fn chunk(&self) -> u32 {
        self.table.chunk()
    }

    fn max_chunks(&self) -> u32 {
        self.table.max_hashes() / self.table.chunk()
    }

    #[inline]
    fn step(&mut self, m: u32, n: u32) -> Step {
        if self.table.should_prune(m, n) {
            Step::Prune
        } else if self.cache.is_concentrated(self.model, m, n) {
            Step::Accept(self.model.map_estimate(m, n))
        } else {
            Step::Continue
        }
    }

    fn at_cap(&self, m: u32, n: u32) -> Option<f64> {
        Some(self.model.map_estimate(m, n))
    }

    fn exact(&self, _: &SparseVector, _: &SparseVector) -> Option<f64> {
        unreachable!("BayesLSH settles every candidate at the cap from its hashes")
    }

    fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }
}

/// BayesLSH-Lite (Algorithm 2): prune only, then verify every survivor of
/// the last chunk exactly against `threshold`.
pub(crate) struct Lite<'a, F> {
    table: &'a MinMatchTable,
    exact: F,
    threshold: f64,
}

impl<'a, F> Lite<'a, F> {
    /// A rule scanning as deep as `table` reaches, verifying survivors
    /// with `exact`.
    pub(crate) fn new(table: &'a MinMatchTable, exact: F, threshold: f64) -> Self {
        Self {
            table,
            exact,
            threshold,
        }
    }
}

impl<F: Fn(&SparseVector, &SparseVector) -> f64> ScanRule for Lite<'_, F> {
    fn chunk(&self) -> u32 {
        self.table.chunk()
    }

    fn max_chunks(&self) -> u32 {
        self.table.max_hashes() / self.table.chunk()
    }

    #[inline]
    fn step(&mut self, m: u32, n: u32) -> Step {
        if self.table.should_prune(m, n) {
            Step::Prune
        } else {
            Step::Continue
        }
    }

    fn at_cap(&self, _: u32, _: u32) -> Option<f64> {
        None
    }

    fn exact(&self, a: &SparseVector, b: &SparseVector) -> Option<f64> {
        let s = (self.exact)(a, b);
        (s >= self.threshold).then_some(s)
    }
}

/// SPRT: Wald's two integer boundaries per chunk — prune below one, accept
/// with `estimate(m / n)` above the other — and an exact check for
/// candidates still inside the indifference region at the cap.
pub(crate) struct Sprt<'a, E, F> {
    table: &'a SprtTable,
    max_chunks: u32,
    estimate: E,
    exact: F,
    threshold: f64,
}

impl<'a, E, F> Sprt<'a, E, F> {
    /// A rule scanning `(max_hashes / k).max(1)` chunks of `table`'s chunk
    /// size `k`.
    pub(crate) fn new(
        table: &'a SprtTable,
        max_hashes: u32,
        estimate: E,
        exact: F,
        threshold: f64,
    ) -> Self {
        Self {
            table,
            max_chunks: (max_hashes / table.chunk()).max(1),
            estimate,
            exact,
            threshold,
        }
    }
}

impl<E, F> ScanRule for Sprt<'_, E, F>
where
    E: Fn(f64) -> f64,
    F: Fn(&SparseVector, &SparseVector) -> f64,
{
    fn chunk(&self) -> u32 {
        self.table.chunk()
    }

    fn max_chunks(&self) -> u32 {
        self.max_chunks
    }

    #[inline]
    fn step(&mut self, m: u32, n: u32) -> Step {
        if self.table.should_prune(m, n) {
            Step::Prune
        } else if self.table.should_accept(m, n) {
            Step::Accept((self.estimate)(m as f64 / n as f64))
        } else {
            Step::Continue
        }
    }

    fn at_cap(&self, _: u32, _: u32) -> Option<f64> {
        None
    }

    fn exact(&self, a: &SparseVector, b: &SparseVector) -> Option<f64> {
        let s = (self.exact)(a, b);
        (s >= self.threshold).then_some(s)
    }
}

/// How the scanner reaches signatures: either extending them lazily
/// ([`WritePool`]) or reading ones already hashed deep enough
/// ([`ReadPool`]). The scan logic is generic over this, so both paths run
/// the same code and stay bit-identical by construction.
pub(crate) trait PoolAccess {
    /// The signature pool behind the handle.
    type Pool: SignaturePool;

    /// Shared access for counting agreements.
    fn get(&self) -> &Self::Pool;

    /// Make sure object `id`'s signature covers `n` hashes.
    fn ensure(&mut self, data: &Dataset, id: u32, n: u32);
}

/// A pool already hashed to every depth the scan reaches: ensures are
/// no-ops (checked in debug builds), so one pool can be shared by reader
/// threads.
pub(crate) struct ReadPool<'a, P>(pub &'a P);

impl<P: SignaturePool> PoolAccess for ReadPool<'_, P> {
    type Pool = P;

    fn get(&self) -> &P {
        self.0
    }

    #[inline]
    fn ensure(&mut self, _data: &Dataset, id: u32, n: u32) {
        debug_assert!(self.0.len(id) >= n, "read-path ensure must be a no-op");
    }
}

/// A pool extended lazily, signature by signature, as the scan deepens.
pub(crate) struct WritePool<'a, P>(pub &'a mut P);

impl<P: SignaturePool> PoolAccess for WritePool<'_, P> {
    type Pool = P;

    fn get(&self) -> &P {
        self.0
    }

    #[inline]
    fn ensure(&mut self, data: &Dataset, id: u32, n: u32) {
        self.0.ensure(id, data.vector(id), n);
    }
}

/// What a run's partners are compared against: a pool member (a batch
/// join's shared first id, `u32`) or an external query signature.
pub(crate) trait Probe<P> {
    /// Make sure the probe's own signature covers `n` hashes.
    fn ensure<A: PoolAccess<Pool = P>>(&self, pool: &mut A, data: &Dataset, n: u32);

    /// Agreements over hashes `lo..hi` between the probe and each of `ids`,
    /// one count per id into `out` (cleared first).
    fn count(&self, pool: &P, ids: &[u32], lo: u32, hi: u32, out: &mut Vec<u32>);

    /// The probe's vector, for the exact check at the cap.
    fn vector<'a>(&'a self, data: &'a Dataset) -> &'a SparseVector;
}

impl<P: SignaturePool> Probe<P> for u32 {
    #[inline]
    fn ensure<A: PoolAccess<Pool = P>>(&self, pool: &mut A, data: &Dataset, n: u32) {
        pool.ensure(data, *self, n);
    }

    #[inline]
    fn count(&self, pool: &P, ids: &[u32], lo: u32, hi: u32, out: &mut Vec<u32>) {
        pool.agreements_batched(*self, ids, lo, hi, out);
    }

    fn vector<'a>(&'a self, data: &'a Dataset) -> &'a SparseVector {
        data.vector(*self)
    }
}

/// The scan loop: scratch reused across runs (so steady-state
/// verification performs no per-pair allocation) plus the counters of
/// everything scanned so far.
#[derive(Debug, Default)]
pub(crate) struct Scanner {
    /// Offsets (into the current run) of partners still undecided.
    alive: Vec<u32>,
    /// Ids of `alive`, in step — the batched sweep's id list.
    alive_ids: Vec<u32>,
    /// Per-chunk batched agreement counts, in step with `alive`.
    counts: Vec<u32>,
    /// Cumulative agreements per run member.
    m: Vec<u32>,
    /// Verdict per run member, emitted in partner order after the run.
    verdicts: Vec<Step>,
    /// Counters over every run scanned (`input_pairs` is the caller's).
    pub stats: EngineStats,
}

impl Scanner {
    /// A scanner for `rule`'s chunk schedule.
    pub(crate) fn new(rule: &impl ScanRule) -> Self {
        Self {
            stats: EngineStats {
                k: rule.chunk(),
                pruned_at_chunk: vec![0; rule.max_chunks() as usize],
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Scan one run: `probe` against every partner in `ids`, `k` hashes at
    /// a time, until each partner is pruned, accepted, or reaches the cap,
    /// where the rule settles it. Accepted partners go to `emit` with their
    /// similarity, in `ids` order.
    pub(crate) fn run<A, Q, R>(
        &mut self,
        data: &Dataset,
        pool: &mut A,
        probe: &Q,
        ids: &[u32],
        rule: &mut R,
        mut emit: impl FnMut(u32, f64),
    ) where
        A: PoolAccess,
        Q: Probe<A::Pool>,
        R: ScanRule,
    {
        let k = rule.chunk();
        let stats = &mut self.stats;
        self.alive.clear();
        self.alive.extend(0..ids.len() as u32);
        self.m.clear();
        self.m.resize(ids.len(), 0);
        self.verdicts.clear();
        self.verdicts.resize(ids.len(), Step::Continue);
        let mut n = 0u32;
        for c in 0..rule.max_chunks() as usize {
            if self.alive.is_empty() {
                break;
            }
            probe.ensure(pool, data, n + k);
            self.alive_ids.clear();
            for &r in &self.alive {
                let id = ids[r as usize];
                pool.ensure(data, id, n + k);
                self.alive_ids.push(id);
            }
            probe.count(pool.get(), &self.alive_ids, n, n + k, &mut self.counts);
            n += k;
            stats.hash_comparisons += k as u64 * self.alive.len() as u64;
            let mut kept = 0usize;
            for t in 0..self.alive.len() {
                let r = self.alive[t] as usize;
                let m = self.m[r] + self.counts[t];
                self.m[r] = m;
                let step = rule.step(m, n);
                match step {
                    Step::Continue => {
                        self.alive[kept] = r as u32;
                        kept += 1;
                        continue;
                    }
                    Step::Prune => {
                        stats.pruned += 1;
                        stats.pruned_at_chunk[c] += 1;
                    }
                    Step::Accept(_) => stats.accepted += 1,
                }
                self.verdicts[r] = step;
            }
            self.alive.truncate(kept);
        }
        for &r in &self.alive {
            if let Some(estimate) = rule.at_cap(self.m[r as usize], n) {
                stats.accepted += 1;
                stats.forced_accepts += 1;
                self.verdicts[r as usize] = Step::Accept(estimate);
            }
        }
        for (&id, &verdict) in ids.iter().zip(&self.verdicts) {
            match verdict {
                Step::Accept(estimate) => emit(id, estimate),
                // Undecided at the cap: the exact check settles it.
                Step::Continue => {
                    stats.exact_verifications += 1;
                    if let Some(s) = rule.exact(probe.vector(data), data.vector(id)) {
                        stats.accepted += 1;
                        emit(id, s);
                    }
                }
                Step::Prune => {}
            }
        }
    }
}

/// Length of the maximal run of candidates sharing `candidates[i].0`.
#[inline]
pub(crate) fn run_end(candidates: &[(u32, u32)], i: usize) -> usize {
    let a = candidates[i].0;
    let mut j = i + 1;
    while j < candidates.len() && candidates[j].0 == a {
        j += 1;
    }
    j
}

/// Verify candidate pairs on the caller's thread, one run at a time:
/// survivors in candidate order, plus counters.
pub(crate) fn scan_pairs<A: PoolAccess, R: ScanRule>(
    data: &Dataset,
    pool: &mut A,
    candidates: &[(u32, u32)],
    rule: &mut R,
) -> (Vec<(u32, u32, f64)>, EngineStats)
where
    u32: Probe<A::Pool>,
{
    let mut scanner = Scanner::new(rule);
    scanner.stats.input_pairs = candidates.len() as u64;
    let mut partners = Vec::new();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < candidates.len() {
        let j = run_end(candidates, i);
        let a = candidates[i].0;
        partners.clear();
        partners.extend(candidates[i..j].iter().map(|&(_, b)| b));
        scanner.run(data, pool, &a, &partners, rule, |b, s| out.push((a, b, s)));
        i = j;
    }
    let (hits, misses) = rule.cache_stats();
    scanner.stats.cache_hits = hits;
    scanner.stats.cache_misses = misses;
    (out, scanner.stats)
}

/// [`scan_pairs`] fanned out over up to `threads` workers. `pool` must
/// already cover the scan depth for every candidate. Each worker takes a
/// contiguous candidate chunk with its own rule from `new_rule` (so its
/// own concentration cache), and the results merge in chunk order: pairs
/// and every counter except the cache hit/miss split are identical to
/// [`scan_pairs`] at any thread count.
pub(crate) fn par_scan_pairs<P, R>(
    data: &Dataset,
    pool: &P,
    candidates: &[(u32, u32)],
    threads: usize,
    new_rule: impl Fn() -> R + Sync,
) -> (Vec<(u32, u32, f64)>, EngineStats)
where
    P: SignaturePool + Sync,
    R: ScanRule,
{
    let parts = fan_out(candidates.len(), threads, |_, range| {
        scan_pairs(
            data,
            &mut ReadPool(pool),
            &candidates[range],
            &mut new_rule(),
        )
    });
    let mut stats = Scanner::new(&new_rule()).stats;
    stats.input_pairs = candidates.len() as u64;
    let mut pairs = Vec::new();
    for (part, part_stats) in parts {
        pairs.extend(part);
        stats.absorb(&part_stats);
    }
    (pairs, stats)
}
