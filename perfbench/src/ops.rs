//! Operation accounting: every call into the program is attempted through
//! [`Ops::attempt`], which counts it, and counts an `Err` or a panic as a
//! failure instead of letting it end the run.

use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Attempted and failed operation counts, with the first few failures.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned `Err` or panicked.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub errors: Vec<String>,
}

impl Ops {
    /// Run one operation, counting it; `None` when it failed.
    pub fn attempt<T, E: Display>(
        &mut self,
        what: &str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        let err = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => return Some(v),
            Ok(Err(e)) => format!("{what}: {e}"),
            Err(_) => format!("{what}: panicked"),
        };
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(err);
        }
        None
    }

    /// Fold another thread's counts into these.
    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_and_panics_count_as_failures() {
        let mut ops = Ops::default();
        assert_eq!(ops.attempt("ok", || Ok::<_, String>(3)), Some(3));
        assert_eq!(ops.attempt("err", || Err::<u8, _>("bad input")), None);
        let panicked = ops.attempt("boom", || -> Result<u8, String> { panic!("boom") });
        assert_eq!(panicked, None);
        assert_eq!((ops.attempted, ops.failed), (3, 2));
        assert_eq!(ops.errors, ["err: bad input", "boom: panicked"]);
    }
}
