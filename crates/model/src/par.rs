//! The inert [`Parallelism`] value and panic isolation.
//!
//! Every stage runs as one sequential pass on the calling thread: on a
//! 2-core host no split of a stage across two threads (augmentation,
//! template learning, transaction counting, history, calibration) beat
//! one thread, since each split only 25–60 ms of work. [`Parallelism`]
//! remains only because the end-to-end benchmark (`e2ebench/`) still
//! constructs it; nothing in the workspace reads it.

/// A thread count that no stage reads: every stage is sequential.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Ignored.
    pub threads: usize,
}

impl Default for Parallelism {
    /// [`available_threads`], as the benchmark reports it.
    fn default() -> Self {
        Parallelism {
            threads: available_threads(),
        }
    }
}

impl Parallelism {
    /// One thread.
    pub fn sequential() -> Self {
        Parallelism { threads: 1 }
    }
}

/// Worker threads available on this machine (≥ 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run `f`, converting any panic into an `Err` carrying the rendered
/// panic payload. The payload is downcast to `String` / `&str` where
/// possible so injected-fault messages survive verbatim.
pub fn catch_panic<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(panic_message)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_panic_preserves_string_payloads() {
        assert_eq!(catch_panic(|| 7), Ok(7));
        let err = catch_panic(|| -> u32 { panic!("boom {}", 42) });
        assert_eq!(err, Err("boom 42".to_string()));
        let err = catch_panic(|| -> u32 { panic!("static str") });
        assert_eq!(err, Err("static str".to_string()));
    }
}
