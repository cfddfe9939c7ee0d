//! Exact similarity of one probe against many partners — the exact step of
//! LSH × exact joins, exact point queries and top-k survivors. Cosine, MIPS
//! and Jaccard scatter the probe once into a [`DenseProbe`] and gather each
//! partner in O(partner nnz); L2 has no gather form and stays pairwise.
//! Either way every value is bit-identical to [`Measure::eval`].

use std::cell::RefCell;

use bayeslsh_lsh::Measure;
use bayeslsh_sparse::{l2_similarity, DenseProbe, SparseVector};

/// `measure.eval(probe, y)` for any number of partners `y`, bit for bit.
/// The probe is scattered into the scratch at the first evaluation that
/// needs it, so a probe with no partner to score costs nothing.
pub(crate) struct ExactProbe<'a> {
    measure: Measure,
    probe: &'a SparseVector,
    scratch: &'a mut DenseProbe,
    loaded: bool,
}

impl<'a> ExactProbe<'a> {
    pub(crate) fn new(
        measure: Measure,
        probe: &'a SparseVector,
        scratch: &'a mut DenseProbe,
    ) -> Self {
        Self {
            measure,
            probe,
            scratch,
            loaded: false,
        }
    }

    /// Exact similarity of the probe to `y` under the measure.
    #[inline]
    pub(crate) fn eval(&mut self, y: &SparseVector) -> f64 {
        match self.measure {
            Measure::Cosine | Measure::Mips => self.scattered().cosine(y),
            Measure::Jaccard => self.scattered().jaccard(y),
            Measure::L2 => l2_similarity(self.probe, y),
        }
    }

    fn scattered(&mut self) -> &DenseProbe {
        if !self.loaded {
            self.scratch.load(self.probe);
            self.loaded = true;
        }
        self.scratch
    }
}

/// Run `f` with this thread's reusable [`DenseProbe`], so repeated queries
/// on one thread allocate nothing proportional to the dimension. A nested
/// call, made while the thread's scratch is lent out, gets a fresh one.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut DenseProbe) -> R) -> R {
    thread_local! {
        static SCRATCH: RefCell<DenseProbe> = RefCell::new(DenseProbe::new());
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut DenseProbe::new()),
    })
}
