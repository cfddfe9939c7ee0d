//! Lazily extendable signature pools.
//!
//! BayesLSH compares hashes incrementally, `k` at a time, and most candidate
//! pairs are pruned after a handful of chunks — so most objects never need
//! deep signatures. A pool stores, per object, only as many hashes as some
//! surviving pair has demanded, and extends on request. This mirrors the
//! paper's observation that "outlying points ... need only be hashed a few
//! times".

use bayeslsh_numeric::fan_out;
use bayeslsh_numeric::wire::{WireError, WireReader, WireWriter};
use bayeslsh_sparse::{Dataset, SparseVector};

use crate::minhash::{MinHasher, MinScratch};
use crate::srp::{SrpHasher, SrpScratch};

/// Word span and edge masks of a `lo..hi` bit range over packed 32-bit
/// words: the per-word mask computation is hoisted here once, so batched
/// counting sweeps candidates with nothing but XOR + popcount per word.
#[derive(Debug, Clone, Copy)]
struct BitSpan {
    start_w: usize,
    end_w: usize,
    first_mask: u32,
    last_mask: u32,
}

impl BitSpan {
    /// The span of `lo..hi`; `None` when the range is empty.
    fn new(lo: u32, hi: u32) -> Option<Self> {
        debug_assert!(lo <= hi);
        if lo == hi {
            return None;
        }
        let start_w = (lo / 32) as usize;
        let end_w = hi.div_ceil(32) as usize;
        let mut first_mask = u32::MAX << (lo % 32);
        let rem = hi - (end_w as u32 - 1) * 32;
        let mut last_mask = if rem < 32 {
            (1u32 << rem) - 1
        } else {
            u32::MAX
        };
        if start_w + 1 == end_w {
            // Single-word range: both edges land in the same mask.
            first_mask &= last_mask;
            last_mask = first_mask;
        }
        Some(Self {
            start_w,
            end_w,
            first_mask,
            last_mask,
        })
    }

    /// Count agreeing bits over this span between two word buffers.
    #[inline]
    fn count(&self, wa: &[u32], wb: &[u32]) -> u32 {
        debug_assert!(self.end_w <= wa.len() && self.end_w <= wb.len());
        let first = (wa[self.start_w] ^ wb[self.start_w]) & self.first_mask;
        let mut agree = self.first_mask.count_ones() - first.count_ones();
        if self.start_w + 1 == self.end_w {
            return agree;
        }
        // Whole middle words: pair them into u64 XOR + popcount.
        let mid_a = &wa[self.start_w + 1..self.end_w - 1];
        let mid_b = &wb[self.start_w + 1..self.end_w - 1];
        let mut pairs_a = mid_a.chunks_exact(2);
        let mut pairs_b = mid_b.chunks_exact(2);
        for (pa, pb) in pairs_a.by_ref().zip(pairs_b.by_ref()) {
            let x = (pa[0] ^ pb[0]) as u64 | (((pa[1] ^ pb[1]) as u64) << 32);
            agree += 64 - x.count_ones();
        }
        for (a, b) in pairs_a.remainder().iter().zip(pairs_b.remainder()) {
            agree += 32 - (a ^ b).count_ones();
        }
        let last = (wa[self.end_w - 1] ^ wb[self.end_w - 1]) & self.last_mask;
        agree + self.last_mask.count_ones() - last.count_ones()
    }
}

/// Count agreeing bits in positions `lo..hi` between two bit-packed
/// signatures (32 bits per word, LSB-first). Shared by [`BitSignatures`]
/// and callers comparing out-of-pool signatures (e.g. k-NN queries).
/// Word-parallel: whole words compare with XOR + popcount; only the two
/// edge words are masked.
pub fn count_bit_agreements(wa: &[u32], wb: &[u32], lo: u32, hi: u32) -> u32 {
    match BitSpan::new(lo, hi) {
        Some(span) => span.count(wa, wb),
        None => 0,
    }
}

/// Count agreeing bits in positions `lo..hi` between one probe signature
/// and each candidate signature in `batch`, appending one count per
/// candidate to `out` (cleared first). The word span and edge masks are
/// computed once and the probe words stay hot across the whole sweep, so
/// per candidate the cost is XOR + popcount per word — the batched
/// building block the BayesLSH verify engines run on.
pub fn count_bit_agreements_batched<'a, I>(
    probe: &[u32],
    batch: I,
    lo: u32,
    hi: u32,
    out: &mut Vec<u32>,
) where
    I: IntoIterator<Item = &'a [u32]>,
{
    out.clear();
    match BitSpan::new(lo, hi) {
        Some(span) => out.extend(batch.into_iter().map(|cand| span.count(probe, cand))),
        None => out.extend(batch.into_iter().map(|_| 0)),
    }
}

/// Count agreeing integer hashes in positions `lo..hi` between two minhash
/// signatures. Shared by [`IntSignatures`] and callers comparing
/// out-of-pool signatures (e.g. point queries against a standing corpus).
pub fn count_int_agreements(sa: &[u32], sb: &[u32], lo: u32, hi: u32) -> u32 {
    debug_assert!(lo <= hi);
    debug_assert!(hi as usize <= sa.len() && hi as usize <= sb.len());
    sa[lo as usize..hi as usize]
        .iter()
        .zip(&sb[lo as usize..hi as usize])
        .filter(|(x, y)| x == y)
        .count() as u32
}

/// Count agreeing integer hashes in positions `lo..hi` between one probe
/// signature and each candidate in `batch`, appending one count per
/// candidate to `out` (cleared first). The probe window is sliced once and
/// stays hot across the sweep; see [`count_bit_agreements_batched`] for
/// the batched contract.
pub fn count_int_agreements_batched<'a, I>(
    probe: &[u32],
    batch: I,
    lo: u32,
    hi: u32,
    out: &mut Vec<u32>,
) where
    I: IntoIterator<Item = &'a [u32]>,
{
    debug_assert!(lo <= hi);
    out.clear();
    let window = &probe[lo as usize..hi as usize];
    out.extend(batch.into_iter().map(|cand| {
        window
            .iter()
            .zip(&cand[lo as usize..hi as usize])
            .filter(|(x, y)| x == y)
            .count() as u32
    }));
}

/// Common interface over bit-valued (cosine) and integer-valued (Jaccard)
/// signature storage, as used by the BayesLSH engines.
pub trait SignaturePool {
    /// Extend object `id`'s signature to at least `n` hashes (a pool may
    /// round up to its storage granularity).
    fn ensure(&mut self, id: u32, v: &SparseVector, n: u32);

    /// Number of valid hashes currently stored for `id`.
    fn len(&self, id: u32) -> u32;

    /// Count agreeing hashes in positions `lo..hi` for objects `a` and `b`.
    /// Both signatures must already cover `hi`.
    fn agreements(&self, a: u32, b: u32, lo: u32, hi: u32) -> u32;

    /// Count agreeing hashes in positions `lo..hi` between probe object
    /// `a` and each object in `others`, appending one count per entry to
    /// `out` (cleared first). Semantically exactly
    /// `others.iter().map(|&b| self.agreements(a, b, lo, hi))`, but pools
    /// with packed layouts override it to hoist the probe signature and
    /// the range's edge masks out of the per-candidate loop — the batched
    /// sweep the verify engines run on. All signatures must already cover
    /// `hi`.
    fn agreements_batched(&self, a: u32, others: &[u32], lo: u32, hi: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend(others.iter().map(|&b| self.agreements(a, b, lo, hi)));
    }

    /// Total hashes computed so far across all objects (cost accounting —
    /// the "hashing overhead" discussed in the paper's observation 3).
    fn total_hashes(&self) -> u64;

    /// Advise the pool of a signature depth that objects are *expected to
    /// reach*, so each object's first extension reserves its whole
    /// signature once instead of growing chunk by chunk. Only hint depths
    /// that are uniformly reached (fixed-`n` MLE verification, banding
    /// candidate generation, eager index builds): hinting a chunked
    /// Bayesian scan's *cap* would reserve many times the memory pruning
    /// actually lets most signatures use. Purely an allocation hint: pool
    /// contents and accounting are unaffected. Default: ignored.
    fn depth_hint(&mut self, n: u32) {
        let _ = n;
    }
}

/// First occurrence of each id in `ids`, in order — parallel extension
/// must process an id exactly once (two workers splicing the same slot
/// would append the range twice). Shared with the crate's other pools
/// (`ProjSignatures`), whose `par_ensure_ids` carries the same contract.
pub(crate) fn dedup_ids(ids: &[u32]) -> impl Iterator<Item = u32> + '_ {
    let mut seen = std::collections::HashSet::with_capacity(ids.len());
    ids.iter().copied().filter(move |&id| seen.insert(id))
}

/// Bit signatures from signed random projections, packed 32 per word.
#[derive(Debug, Clone)]
pub struct BitSignatures {
    hasher: SrpHasher,
    words: Vec<Vec<u32>>,
    bits: Vec<u32>,
    total: u64,
    /// Depth hint (bits) for up-front signature reservation.
    hint: u32,
}

impl BitSignatures {
    /// A pool for `n_objects` objects hashing through `hasher`.
    pub fn new(hasher: SrpHasher, n_objects: usize) -> Self {
        Self {
            hasher,
            words: vec![Vec::new(); n_objects],
            bits: vec![0; n_objects],
            total: 0,
            hint: 0,
        }
    }

    /// The raw packed words of `id`'s signature.
    pub fn raw_words(&self, id: u32) -> &[u32] {
        &self.words[id as usize]
    }

    /// Number of object slots the pool holds (hashed or not).
    pub fn n_objects(&self) -> usize {
        self.words.len()
    }

    /// Bit `i` of object `id`'s signature.
    pub fn bit(&self, id: u32, i: u32) -> bool {
        debug_assert!(i < self.bits[id as usize]);
        (self.words[id as usize][(i / 32) as usize] >> (i % 32)) & 1 == 1
    }

    /// Borrow the underlying hasher (e.g. for plane-memory accounting).
    pub fn hasher(&self) -> &SrpHasher {
        &self.hasher
    }

    /// Hash an out-of-pool vector (e.g. an ad-hoc query) through the same
    /// plane bank, extending `words` with bits `lo..hi` (rounded up to
    /// whole words). The caller owns the returned signature; comparisons
    /// against pool members go through [`count_bit_agreements`]. External
    /// hashes are not counted in [`SignaturePool::total_hashes`], which
    /// tracks corpus signatures only.
    pub fn hash_external(&mut self, v: &SparseVector, lo: u32, hi: u32, words: &mut Vec<u32>) {
        let target = hi.div_ceil(32) * 32;
        self.hasher.hash_bits_into(v, lo, target, words);
    }

    /// Make room for objects `0..n_objects`, keeping existing signatures.
    /// Supports corpora that grow after pool construction (incremental
    /// insertion into a standing index).
    pub fn grow_to(&mut self, n_objects: usize) {
        if self.words.len() < n_objects {
            self.words.resize(n_objects, Vec::new());
            self.bits.resize(n_objects, 0);
        }
    }

    /// Extend the signatures of `ids` to at least `n` bits with up to
    /// `threads` workers: the id list is chunked, each chunk hashed
    /// per-thread through the shared (read-only, pre-materialized) plane
    /// bank, and the buffers spliced back into the pool in index order.
    /// Pool state afterwards is bit-identical to calling
    /// [`SignaturePool::ensure`] for each id serially (duplicate ids in
    /// the list are extended once, like repeated `ensure` calls). A single
    /// id with a deep target (e.g. an insert) is instead split across its
    /// word range, so even one-object extensions fan out.
    pub fn par_ensure_ids(&mut self, data: &Dataset, ids: &[u32], n: u32, threads: usize) {
        let target = n.div_ceil(32) * 32;
        self.grow_to(data.len());
        let work: Vec<(u32, u32)> = dedup_ids(ids)
            .filter(|&id| self.bits[id as usize] < target)
            .map(|id| (id, self.bits[id as usize]))
            .collect();
        if work.is_empty() {
            return;
        }
        self.hasher.ensure_planes_par(target as usize, threads);
        if work.len() == 1 {
            let (id, cur) = work[0];
            let v = data.vector(id);
            let hasher = &self.hasher;
            let chunks = fan_out(((target - cur) / 32) as usize, threads, |_, r| {
                let mut scratch = SrpScratch::new();
                hasher.hash_bits_packed_with(
                    v,
                    cur + 32 * r.start as u32,
                    cur + 32 * r.end as u32,
                    &mut scratch,
                )
            });
            let slot = &mut self.words[id as usize];
            for c in chunks {
                slot.extend(c);
            }
            self.bits[id as usize] = target;
            self.total += (target - cur) as u64;
            return;
        }
        let hasher = &self.hasher;
        let work_ref = &work;
        let chunks = fan_out(work.len(), threads, |_, r| {
            // One projection scratch per worker, reused across its ids.
            let mut scratch = SrpScratch::new();
            work_ref[r]
                .iter()
                .map(|&(id, cur)| {
                    hasher.hash_bits_packed_with(data.vector(id), cur, target, &mut scratch)
                })
                .collect::<Vec<_>>()
        });
        for (&(id, cur), buf) in work.iter().zip(chunks.into_iter().flatten()) {
            self.words[id as usize].extend(buf);
            self.bits[id as usize] = target;
            self.total += (target - cur) as u64;
        }
    }

    /// Serialize the pool (hasher metadata + every signature) for an index
    /// snapshot. Signature words are written verbatim, so the loaded pool's
    /// comparisons are bit-identical; the hasher's plane bank is re-derived
    /// from its seed on load (see [`SrpHasher::write_wire`]).
    pub fn write_wire<W: std::io::Write>(&self, w: &mut WireWriter<W>) -> Result<(), WireError> {
        self.hasher.write_wire(w)?;
        w.put_u64(self.words.len() as u64)?;
        for (words, &bits) in self.words.iter().zip(&self.bits) {
            debug_assert_eq!(words.len(), bits.div_ceil(32) as usize);
            w.put_u32(bits)?;
            for &word in words {
                w.put_u32(word)?;
            }
        }
        w.put_u64(self.total)?;
        Ok(())
    }

    /// Deserialize a pool written by [`BitSignatures::write_wire`],
    /// rematerializing the hasher's planes with up to `threads` workers.
    /// The hashing-cost accounting is validated against the per-object
    /// depths, so an internally inconsistent payload is rejected.
    ///
    /// Plane regeneration is bounded by `max(deepest stored signature,
    /// depth_hint)`, never by the payload's recorded plane count alone: the
    /// stored signatures physically occupy wire bytes, and the hint is
    /// something the caller has validated (the snapshot loader passes the
    /// build-depth it recomputed from the config) — so a crafted count
    /// cannot make loading allocate or compute unboundedly. Any
    /// legitimately deeper planes regenerate lazily, bit-identically.
    pub fn read_wire<R: std::io::Read>(
        r: &mut WireReader<R>,
        threads: usize,
        depth_hint: u32,
    ) -> Result<Self, WireError> {
        let mut hasher = SrpHasher::read_wire(r, threads, depth_hint as usize)?;
        let n = r.get_u64()?;
        let mut words = Vec::with_capacity(n.min(65_536) as usize);
        let mut bits = Vec::with_capacity(n.min(65_536) as usize);
        let mut sum = 0u64;
        let mut deepest = 0u32;
        for slot in 0..n {
            let b = r.get_u32()?;
            if b % 32 != 0 {
                return Err(WireError::corrupt(format!(
                    "signature {slot} has non-word-aligned depth {b}"
                )));
            }
            let mut buf = Vec::with_capacity(((b / 32) as usize).min(65_536));
            for _ in 0..b / 32 {
                buf.push(r.get_u32()?);
            }
            sum += b as u64;
            deepest = deepest.max(b);
            words.push(buf);
            bits.push(b);
        }
        let total = r.get_u64()?;
        if total != sum {
            return Err(WireError::corrupt(format!(
                "hash accounting {total} disagrees with stored depths {sum}"
            )));
        }
        // Lazily-deepened signatures can outrun the build depth; their
        // words are physically present above, so this warm-up is bounded
        // by the payload size.
        hasher.ensure_planes_par(deepest as usize, threads);
        Ok(Self {
            hasher,
            words,
            bits,
            total,
            hint: 0,
        })
    }

    /// Whether [`BitSignatures::hash_external_ready`] can serve `n` bits
    /// right now — i.e. the plane bank already covers the word-rounded
    /// target, so hashing needs no `&mut self`.
    pub fn external_ready(&self, n: u32) -> bool {
        let target = n.div_ceil(32) * 32;
        self.hasher.planes_ready() >= target as usize
    }

    /// Materialize the plane bank for `n`-bit external hashing up front, so
    /// subsequent [`BitSignatures::hash_external_ready`] calls work through
    /// `&self` (the shared-reader serving path).
    pub fn prepare_external(&mut self, n: u32, threads: usize) {
        let target = n.div_ceil(32) * 32;
        self.hasher.ensure_planes_par(target as usize, threads);
    }

    /// Read-only external hashing: identical output to
    /// [`BitSignatures::hash_external`] over `0..n` (rounded up to whole
    /// words), but through `&self`. The plane bank must already cover `n`
    /// bits ([`BitSignatures::external_ready`]); many reader threads may
    /// call this concurrently.
    pub fn hash_external_ready(&self, v: &SparseVector, n: u32) -> Vec<u32> {
        let target = n.div_ceil(32) * 32;
        debug_assert!(self.external_ready(n), "plane bank not prepared");
        self.hasher
            .hash_bits_packed_with(v, 0, target, &mut SrpScratch::new())
    }

    /// Drop object `id`'s signature and release its hashes from the cost
    /// accounting (compaction of removed objects). The slot stays valid and
    /// empty — identical to a never-hashed object — so the wire invariant
    /// `total == Σ stored depths` is preserved.
    pub fn clear(&mut self, id: u32) {
        let slot = &mut self.words[id as usize];
        slot.clear();
        slot.shrink_to_fit();
        self.total -= self.bits[id as usize] as u64;
        self.bits[id as usize] = 0;
    }
}

impl SignaturePool for BitSignatures {
    fn ensure(&mut self, id: u32, v: &SparseVector, n: u32) {
        let cur = self.bits[id as usize];
        let target = n.div_ceil(32) * 32;
        if target <= cur {
            return;
        }
        let slot = &mut self.words[id as usize];
        if cur == 0 && slot.capacity() == 0 && self.hint > target {
            // First extension: allocate the advised full depth once.
            slot.reserve_exact(self.hint.div_ceil(32) as usize);
        }
        self.hasher.hash_bits_into(v, cur, target, slot);
        self.bits[id as usize] = target;
        self.total += (target - cur) as u64;
    }

    fn len(&self, id: u32) -> u32 {
        self.bits[id as usize]
    }

    fn agreements(&self, a: u32, b: u32, lo: u32, hi: u32) -> u32 {
        debug_assert!(hi <= self.bits[a as usize], "a not hashed deep enough");
        debug_assert!(hi <= self.bits[b as usize], "b not hashed deep enough");
        count_bit_agreements(&self.words[a as usize], &self.words[b as usize], lo, hi)
    }

    fn agreements_batched(&self, a: u32, others: &[u32], lo: u32, hi: u32, out: &mut Vec<u32>) {
        debug_assert!(hi <= self.bits[a as usize], "a not hashed deep enough");
        let probe = &self.words[a as usize];
        count_bit_agreements_batched(
            probe,
            others.iter().map(|&b| {
                debug_assert!(hi <= self.bits[b as usize], "b not hashed deep enough");
                self.words[b as usize].as_slice()
            }),
            lo,
            hi,
            out,
        );
    }

    fn total_hashes(&self) -> u64 {
        self.total
    }

    fn depth_hint(&mut self, n: u32) {
        self.hint = self.hint.max(n.div_ceil(32) * 32);
    }
}

/// Integer signatures from minwise hashing.
#[derive(Debug, Clone)]
pub struct IntSignatures {
    hasher: MinHasher,
    sigs: Vec<Vec<u32>>,
    total: u64,
    /// Depth hint (hashes) for up-front signature reservation.
    hint: u32,
}

impl IntSignatures {
    /// A pool for `n_objects` objects hashing through `hasher`.
    pub fn new(hasher: MinHasher, n_objects: usize) -> Self {
        Self {
            hasher,
            sigs: vec![Vec::new(); n_objects],
            total: 0,
            hint: 0,
        }
    }

    /// The raw minhash values of `id`'s signature.
    pub fn raw(&self, id: u32) -> &[u32] {
        &self.sigs[id as usize]
    }

    /// Number of object slots the pool holds (hashed or not).
    pub fn n_objects(&self) -> usize {
        self.sigs.len()
    }

    /// Borrow the underlying hasher.
    pub fn hasher(&self) -> &MinHasher {
        &self.hasher
    }

    /// Hash an out-of-pool vector (e.g. an ad-hoc query) through the same
    /// hash-function bank, extending `sigs` with hashes `lo..hi`.
    /// Comparisons against pool members go through
    /// [`count_int_agreements`]. External hashes are not counted in
    /// [`SignaturePool::total_hashes`], which tracks corpus signatures
    /// only.
    pub fn hash_external(&mut self, v: &SparseVector, lo: u32, hi: u32, sigs: &mut Vec<u32>) {
        self.hasher.hash_range_into(v, lo, hi, sigs);
    }

    /// Make room for objects `0..n_objects`, keeping existing signatures.
    /// Supports corpora that grow after pool construction (incremental
    /// insertion into a standing index).
    pub fn grow_to(&mut self, n_objects: usize) {
        if self.sigs.len() < n_objects {
            self.sigs.resize(n_objects, Vec::new());
        }
    }

    /// Extend the signatures of `ids` to at least `n` hashes with up to
    /// `threads` workers; see [`BitSignatures::par_ensure_ids`] for the
    /// chunk/splice contract (pool state is identical to serial `ensure`
    /// calls, duplicates included).
    pub fn par_ensure_ids(&mut self, data: &Dataset, ids: &[u32], n: u32, threads: usize) {
        self.grow_to(data.len());
        let work: Vec<(u32, u32)> = dedup_ids(ids)
            .filter(|&id| (self.sigs[id as usize].len() as u32) < n)
            .map(|id| (id, self.sigs[id as usize].len() as u32))
            .collect();
        if work.is_empty() {
            return;
        }
        self.hasher.ensure_functions(n as usize);
        if work.len() == 1 {
            let (id, cur) = work[0];
            let v = data.vector(id);
            let hasher = &self.hasher;
            let chunks = fan_out((n - cur) as usize, threads, |_, r| {
                let mut scratch = MinScratch::new();
                hasher.hash_range_packed_with(
                    v,
                    cur + r.start as u32,
                    cur + r.end as u32,
                    &mut scratch,
                )
            });
            let slot = &mut self.sigs[id as usize];
            for c in chunks {
                slot.extend(c);
            }
            self.total += (n - cur) as u64;
            return;
        }
        let hasher = &self.hasher;
        let work_ref = &work;
        let chunks = fan_out(work.len(), threads, |_, r| {
            // One minima scratch per worker, reused across its ids.
            let mut scratch = MinScratch::new();
            work_ref[r]
                .iter()
                .map(|&(id, cur)| {
                    hasher.hash_range_packed_with(data.vector(id), cur, n, &mut scratch)
                })
                .collect::<Vec<_>>()
        });
        for (&(id, cur), buf) in work.iter().zip(chunks.into_iter().flatten()) {
            self.sigs[id as usize].extend(buf);
            self.total += (n - cur) as u64;
        }
    }

    /// Serialize the pool (hasher metadata + every signature) for an index
    /// snapshot; see [`BitSignatures::write_wire`] for the contract.
    pub fn write_wire<W: std::io::Write>(&self, w: &mut WireWriter<W>) -> Result<(), WireError> {
        self.hasher.write_wire(w)?;
        w.put_u64(self.sigs.len() as u64)?;
        for sig in &self.sigs {
            w.put_u32(sig.len() as u32)?;
            for &m in sig {
                w.put_u32(m)?;
            }
        }
        w.put_u64(self.total)?;
        Ok(())
    }

    /// Deserialize a pool written by [`IntSignatures::write_wire`],
    /// validating the hashing-cost accounting against the stored depths.
    /// Hash-function regeneration is bounded by `max(deepest stored
    /// signature, depth_hint)` — see [`BitSignatures::read_wire`] for the
    /// untrusted-input rationale.
    pub fn read_wire<R: std::io::Read>(
        r: &mut WireReader<R>,
        depth_hint: u32,
    ) -> Result<Self, WireError> {
        let mut hasher = MinHasher::read_wire(r, depth_hint as usize)?;
        let n = r.get_u64()?;
        let mut sigs = Vec::with_capacity(n.min(65_536) as usize);
        let mut sum = 0u64;
        let mut deepest = 0u32;
        for _ in 0..n {
            let len = r.get_u32()?;
            let mut sig = Vec::with_capacity(len.min(65_536) as usize);
            for _ in 0..len {
                sig.push(r.get_u32()?);
            }
            sum += len as u64;
            deepest = deepest.max(len);
            sigs.push(sig);
        }
        let total = r.get_u64()?;
        if total != sum {
            return Err(WireError::corrupt(format!(
                "hash accounting {total} disagrees with stored depths {sum}"
            )));
        }
        hasher.ensure_functions(deepest as usize);
        Ok(Self {
            hasher,
            sigs,
            total,
            hint: 0,
        })
    }

    /// Whether [`IntSignatures::hash_external_ready`] can serve `n` hashes
    /// right now — i.e. the hash-function bank already covers the target,
    /// so hashing needs no `&mut self`.
    pub fn external_ready(&self, n: u32) -> bool {
        self.hasher.functions_ready() >= n as usize
    }

    /// Materialize the hash-function bank for `n`-hash external hashing up
    /// front, so subsequent [`IntSignatures::hash_external_ready`] calls
    /// work through `&self` (the shared-reader serving path).
    pub fn prepare_external(&mut self, n: u32, threads: usize) {
        let _ = threads;
        self.hasher.ensure_functions(n as usize);
    }

    /// Read-only external hashing: identical output to
    /// [`IntSignatures::hash_external`] over `0..n`, but through `&self`.
    /// The hash-function bank must already cover `n`
    /// ([`IntSignatures::external_ready`]); many reader threads may call
    /// this concurrently.
    pub fn hash_external_ready(&self, v: &SparseVector, n: u32) -> Vec<u32> {
        debug_assert!(self.external_ready(n), "hash-function bank not prepared");
        self.hasher
            .hash_range_packed_with(v, 0, n, &mut MinScratch::new())
    }

    /// Drop object `id`'s signature and release its hashes from the cost
    /// accounting (compaction of removed objects); see
    /// [`BitSignatures::clear`].
    pub fn clear(&mut self, id: u32) {
        let slot = &mut self.sigs[id as usize];
        self.total -= slot.len() as u64;
        slot.clear();
        slot.shrink_to_fit();
    }
}

impl SignaturePool for IntSignatures {
    fn ensure(&mut self, id: u32, v: &SparseVector, n: u32) {
        let cur = self.sigs[id as usize].len() as u32;
        if n <= cur {
            return;
        }
        if cur == 0 && self.sigs[id as usize].capacity() == 0 && self.hint > n {
            // First extension: allocate the advised full depth once.
            self.sigs[id as usize].reserve_exact(self.hint as usize);
        }
        self.hasher
            .hash_range_into(v, cur, n, &mut self.sigs[id as usize]);
        self.total += (n - cur) as u64;
    }

    fn len(&self, id: u32) -> u32 {
        self.sigs[id as usize].len() as u32
    }

    fn agreements(&self, a: u32, b: u32, lo: u32, hi: u32) -> u32 {
        count_int_agreements(&self.sigs[a as usize], &self.sigs[b as usize], lo, hi)
    }

    fn agreements_batched(&self, a: u32, others: &[u32], lo: u32, hi: u32, out: &mut Vec<u32>) {
        count_int_agreements_batched(
            &self.sigs[a as usize],
            others.iter().map(|&b| self.sigs[b as usize].as_slice()),
            lo,
            hi,
            out,
        );
    }

    fn total_hashes(&self) -> u64 {
        self.total
    }

    fn depth_hint(&mut self, n: u32) {
        self.hint = self.hint.max(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayeslsh_numeric::Xoshiro256;
    use proptest::prelude::*;

    fn vecs(n: usize, dim: u32, len: usize, seed: u64) -> Vec<SparseVector> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let pairs: Vec<(u32, f32)> = (0..len)
                    .map(|_| {
                        (
                            rng.next_below(dim as u64) as u32,
                            (rng.next_f64() + 0.1) as f32,
                        )
                    })
                    .collect();
                SparseVector::from_pairs(pairs)
            })
            .collect()
    }

    #[test]
    fn bit_pool_rounds_to_words_and_is_lazy() {
        let vs = vecs(3, 100, 10, 1);
        let mut pool = BitSignatures::new(SrpHasher::new(100, 2), 3);
        assert_eq!(pool.len(0), 0);
        pool.ensure(0, &vs[0], 33);
        assert_eq!(pool.len(0), 64);
        assert_eq!(pool.len(1), 0);
        assert_eq!(pool.total_hashes(), 64);
        // Re-ensuring below current depth is a no-op.
        pool.ensure(0, &vs[0], 10);
        assert_eq!(pool.total_hashes(), 64);
    }

    #[test]
    fn bit_agreements_match_naive_count() {
        let vs = vecs(2, 200, 30, 3);
        let mut pool = BitSignatures::new(SrpHasher::new(200, 4), 2);
        pool.ensure(0, &vs[0], 256);
        pool.ensure(1, &vs[1], 256);
        for &(lo, hi) in &[
            (0u32, 256u32),
            (0, 32),
            (32, 64),
            (5, 37),
            (100, 101),
            (17, 255),
            (9, 9),
        ] {
            let naive = (lo..hi)
                .filter(|&i| pool.bit(0, i) == pool.bit(1, i))
                .count() as u32;
            assert_eq!(pool.agreements(0, 1, lo, hi), naive, "range {lo}..{hi}");
        }
    }

    #[test]
    fn bit_agreements_self_is_full_range() {
        let vs = vecs(1, 64, 10, 5);
        let mut pool = BitSignatures::new(SrpHasher::new(64, 5), 1);
        pool.ensure(0, &vs[0], 128);
        assert_eq!(pool.agreements(0, 0, 0, 128), 128);
        assert_eq!(pool.agreements(0, 0, 3, 90), 87);
    }

    #[test]
    fn bit_extension_preserves_prefix() {
        let vs = vecs(1, 128, 12, 6);
        let mut pool = BitSignatures::new(SrpHasher::new(128, 6), 1);
        pool.ensure(0, &vs[0], 64);
        let prefix: Vec<bool> = (0..64).map(|i| pool.bit(0, i)).collect();
        pool.ensure(0, &vs[0], 512);
        let after: Vec<bool> = (0..64).map(|i| pool.bit(0, i)).collect();
        assert_eq!(prefix, after);
        assert_eq!(pool.len(0), 512);
    }

    #[test]
    fn int_pool_basics() {
        let a = SparseVector::from_indices(vec![1, 2, 3]);
        let b = SparseVector::from_indices(vec![2, 3, 4]);
        let mut pool = IntSignatures::new(MinHasher::new(10), 2);
        pool.ensure(0, &a, 100);
        pool.ensure(1, &b, 100);
        assert_eq!(pool.len(0), 100);
        assert_eq!(pool.agreements(0, 0, 0, 100), 100);
        let agree = pool.agreements(0, 1, 0, 100);
        // J(a, b) = 0.5 → expect ~50 agreements.
        assert!((30..=70).contains(&agree), "agreements {agree}");
        assert_eq!(pool.total_hashes(), 200);
    }

    #[test]
    fn int_extension_preserves_prefix() {
        let a = SparseVector::from_indices(vec![7, 8, 9, 10]);
        let mut pool = IntSignatures::new(MinHasher::new(11), 1);
        pool.ensure(0, &a, 16);
        let prefix = pool.raw(0).to_vec();
        pool.ensure(0, &a, 64);
        assert_eq!(&pool.raw(0)[..16], &prefix[..]);
    }

    #[test]
    fn par_ensure_matches_serial_bit_pool() {
        let vs = vecs(9, 120, 12, 21);
        let mut data = Dataset::new(120);
        for v in &vs {
            data.push(v.clone());
        }
        let mut serial = BitSignatures::new(SrpHasher::new(120, 22), data.len());
        for (id, v) in data.iter() {
            serial.ensure(id, v, 96);
        }
        // Deepen a few, as lazy verification would.
        serial.ensure(3, data.vector(3), 256);
        serial.ensure(7, data.vector(7), 256);
        for threads in [1usize, 2, 4, 8] {
            let mut par = BitSignatures::new(SrpHasher::new(120, 22), data.len());
            let ids: Vec<u32> = (0..data.len() as u32).collect();
            par.par_ensure_ids(&data, &ids, 96, threads);
            par.par_ensure_ids(&data, &[3, 7], 256, threads);
            assert_eq!(
                par.total_hashes(),
                serial.total_hashes(),
                "threads {threads}"
            );
            for id in 0..data.len() as u32 {
                assert_eq!(par.len(id), serial.len(id));
                assert_eq!(par.raw_words(id), serial.raw_words(id), "id {id}");
            }
        }
    }

    #[test]
    fn par_ensure_matches_serial_int_pool_and_single_id_split() {
        let mut data = Dataset::new(500);
        for i in 0..6u32 {
            data.push(SparseVector::from_indices((i * 40..i * 40 + 25).collect()));
        }
        let mut serial = IntSignatures::new(MinHasher::new(23), data.len());
        for (id, v) in data.iter() {
            serial.ensure(id, v, 100);
        }
        serial.ensure(2, data.vector(2), 300);
        for threads in [1usize, 3, 8] {
            let mut par = IntSignatures::new(MinHasher::new(23), data.len());
            let ids: Vec<u32> = (0..data.len() as u32).collect();
            par.par_ensure_ids(&data, &ids, 100, threads);
            // Single-id extension exercises the range-split path.
            par.par_ensure_ids(&data, &[2], 300, threads);
            assert_eq!(par.total_hashes(), serial.total_hashes());
            for id in 0..data.len() as u32 {
                assert_eq!(par.raw(id), serial.raw(id), "id {id} threads {threads}");
            }
        }
    }

    #[test]
    fn par_ensure_tolerates_duplicate_ids() {
        let vs = vecs(2, 64, 8, 77);
        let mut data = Dataset::new(64);
        for v in &vs {
            data.push(v.clone());
        }
        let mut expect = BitSignatures::new(SrpHasher::new(64, 78), data.len());
        expect.ensure(0, &vs[0], 64);
        expect.ensure(1, &vs[1], 64);
        for threads in [1usize, 4] {
            // Repeats collapsing to two ids (splice path) and to one id
            // (range-split path) must both behave like serial ensures.
            let mut pool = BitSignatures::new(SrpHasher::new(64, 78), data.len());
            pool.par_ensure_ids(&data, &[0, 1, 0, 0, 1], 64, threads);
            assert_eq!(pool.raw_words(0), expect.raw_words(0));
            assert_eq!(pool.raw_words(1), expect.raw_words(1));
            assert_eq!(pool.total_hashes(), expect.total_hashes());

            let mut pool = BitSignatures::new(SrpHasher::new(64, 78), data.len());
            pool.par_ensure_ids(&data, &[0, 0, 0], 64, threads);
            assert_eq!(pool.raw_words(0), expect.raw_words(0));
            assert_eq!(pool.len(1), 0);
        }
    }

    #[test]
    fn par_external_hash_matches_serial() {
        // A bank prepared with any thread budget serves the same external
        // signatures as the serial, pool-extending path.
        let vs = vecs(1, 80, 15, 33);
        let set = SparseVector::from_indices(vec![4, 9, 44, 70]);
        for threads in [1usize, 2, 8] {
            let mut bits = BitSignatures::new(SrpHasher::new(80, 34), 1);
            bits.prepare_external(200, threads);
            let mut expect = Vec::new();
            bits.hash_external(&vs[0], 0, 200, &mut expect);
            assert_eq!(bits.hash_external_ready(&vs[0], 200), expect);

            let mut ints = IntSignatures::new(MinHasher::new(35), 1);
            ints.prepare_external(150, threads);
            let mut expect = Vec::new();
            ints.hash_external(&set, 0, 150, &mut expect);
            assert_eq!(ints.hash_external_ready(&set, 150), expect);
        }
    }

    #[test]
    fn wire_round_trip_preserves_pools_and_supports_extension() {
        // Non-uniform depths (the lazy-hashing shape) must survive, and a
        // reloaded pool must extend signatures bit-identically to the
        // original — the invariant insert-after-load rests on.
        let vs = vecs(4, 96, 10, 91);
        let mut data = Dataset::new(96);
        for v in &vs {
            data.push(v.clone());
        }
        let mut bits = BitSignatures::new(SrpHasher::new(96, 92), data.len());
        for (id, v) in data.iter() {
            bits.ensure(id, v, 64);
        }
        bits.ensure(2, data.vector(2), 192);
        let mut w = WireWriter::new(Vec::new());
        bits.write_wire(&mut w).unwrap();
        let payload = w.into_inner();
        let mut r = WireReader::new(&payload[..]);
        let mut back = BitSignatures::read_wire(&mut r, 2, 64).unwrap();
        assert_eq!(r.bytes_read(), payload.len() as u64);
        assert_eq!(back.total_hashes(), bits.total_hashes());
        for id in 0..data.len() as u32 {
            assert_eq!(back.len(id), bits.len(id));
            assert_eq!(back.raw_words(id), bits.raw_words(id), "id {id}");
        }
        back.ensure(1, data.vector(1), 256);
        bits.ensure(1, data.vector(1), 256);
        assert_eq!(back.raw_words(1), bits.raw_words(1));

        let mut ints = IntSignatures::new(MinHasher::new(93), 3);
        let sets = [
            SparseVector::from_indices(vec![1, 5, 9]),
            SparseVector::from_indices(vec![2, 5, 40]),
            SparseVector::from_indices(vec![7]),
        ];
        for (id, s) in sets.iter().enumerate() {
            ints.ensure(id as u32, s, 40 + 10 * id as u32);
        }
        let mut w = WireWriter::new(Vec::new());
        ints.write_wire(&mut w).unwrap();
        let payload = w.into_inner();
        let mut back = IntSignatures::read_wire(&mut WireReader::new(&payload[..]), 40).unwrap();
        assert_eq!(back.total_hashes(), ints.total_hashes());
        for id in 0..3u32 {
            assert_eq!(back.raw(id), ints.raw(id), "id {id}");
        }
        back.ensure(0, &sets[0], 100);
        ints.ensure(0, &sets[0], 100);
        assert_eq!(back.raw(0), ints.raw(0));
    }

    #[test]
    fn ready_external_hash_matches_mut_path_and_clear_releases_hashes() {
        let vs = vecs(2, 80, 15, 51);
        let mut bits = BitSignatures::new(SrpHasher::new(80, 52), 2);
        assert!(!bits.external_ready(96));
        bits.prepare_external(96, 2);
        assert!(bits.external_ready(96) && bits.external_ready(33));
        let mut expect = Vec::new();
        bits.hash_external(&vs[0], 0, 96, &mut expect);
        assert_eq!(bits.hash_external_ready(&vs[0], 96), expect);
        bits.ensure(0, &vs[0], 64);
        bits.ensure(1, &vs[1], 96);
        assert_eq!(bits.total_hashes(), 160);
        bits.clear(0);
        assert_eq!(bits.len(0), 0);
        assert_eq!(bits.total_hashes(), 96);
        // A cleared slot is indistinguishable from a never-hashed one.
        bits.ensure(0, &vs[0], 64);
        assert_eq!(bits.total_hashes(), 160);

        let set = SparseVector::from_indices(vec![4, 9, 44, 70]);
        let mut ints = IntSignatures::new(MinHasher::new(53), 2);
        assert!(!ints.external_ready(50));
        ints.prepare_external(50, 1);
        assert!(ints.external_ready(50));
        let mut expect = Vec::new();
        ints.hash_external(&set, 0, 50, &mut expect);
        assert_eq!(ints.hash_external_ready(&set, 50), expect);
        ints.ensure(0, &set, 40);
        ints.clear(0);
        assert_eq!((ints.len(0), ints.total_hashes()), (0, 0));
    }

    #[test]
    fn wire_read_rejects_inconsistent_accounting() {
        let vs = vecs(1, 64, 6, 94);
        let mut pool = BitSignatures::new(SrpHasher::new(64, 95), 1);
        pool.ensure(0, &vs[0], 64);
        let mut w = WireWriter::new(Vec::new());
        pool.write_wire(&mut w).unwrap();
        let mut payload = w.into_inner();
        // The trailing u64 is the total-hashes counter; nudge it.
        let at = payload.len() - 8;
        payload[at] ^= 1;
        assert!(BitSignatures::read_wire(&mut WireReader::new(&payload[..]), 1, 64).is_err());
    }

    proptest! {
        #[test]
        fn bit_agreements_equals_naive_on_random_ranges(
            seed in 0u64..1000,
            lo in 0u32..256,
            span in 0u32..256,
        ) {
            let hi = (lo + span).min(256);
            let vs = vecs(2, 64, 8, seed);
            let mut pool = BitSignatures::new(SrpHasher::new(64, seed ^ 0xABCD), 2);
            pool.ensure(0, &vs[0], 256);
            pool.ensure(1, &vs[1], 256);
            let naive = (lo..hi).filter(|&i| pool.bit(0, i) == pool.bit(1, i)).count() as u32;
            prop_assert_eq!(pool.agreements(0, 1, lo, hi), naive);
        }
    }
}
