//! Conformance-corpus emission: small, fully deterministic datasets plus
//! their faulted wire feeds, keyed by a single seed — the inputs the
//! differential conformance harness and the golden-corpus regression gate
//! (`validate_conformance`) run over.
//!
//! A corpus is a scaled-down preset-A dataset generated under a given
//! seed, together with one feed per fault variant: `clean` (the verbatim
//! wire feed), `bounded` (reordering within 30 s, duplicates, a burst
//! flood, ~1 % corrupted copies — exactly repairable), and `hostile`
//! (hour-scale reordering, drops, skewed clocks — survivable only).
//! Everything downstream of the seed is bit-for-bit reproducible, so a
//! digest of a corpus run can be pinned in version control.

use crate::dataset::{Dataset, DatasetSpec};
use sd_telemetry::Telemetry;

/// The seeds the checked-in golden corpus pins (6 seeds × 3 variants).
pub const GOLDEN_SEEDS: [u64; 6] = [1, 2, 3, 5, 8, 13];

/// Default dataset scale for conformance corpora: large enough that every
/// pipeline stage (including rule mining) is exercised with non-trivial
/// state, small enough that naive O(n²)-ish reference implementations
/// stay fast.
pub const GOLDEN_SCALE: f64 = 0.05;

/// A deterministic conformance corpus.
pub struct Corpus {
    /// The generated dataset (training + online periods).
    pub dataset: Dataset,
}

impl Corpus {
    /// Generate the corpus for one seed at `scale`.
    pub fn generate(seed: u64, scale: f64) -> Corpus {
        let mut spec = DatasetSpec::preset_a().scaled(scale);
        spec.seed = seed;
        spec.name = format!("conformance-{seed}");
        Corpus {
            dataset: Dataset::generate(spec, &Telemetry::disabled()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{inject, FaultSpec};

    #[test]
    fn corpus_is_deterministic_in_the_seed() {
        let a = Corpus::generate(3, 0.05);
        let b = Corpus::generate(3, 0.05);
        assert_eq!(a.dataset.messages.len(), b.dataset.messages.len());
        let bounded = FaultSpec::preset("bounded", 3).expect("known preset");
        let (fa, ra) = inject(a.dataset.online(), &bounded);
        let (fb, rb) = inject(b.dataset.online(), &bounded);
        assert_eq!(fa, fb);
        assert_eq!(ra, rb);
    }

    #[test]
    fn variants_differ_from_clean() {
        let c = Corpus::generate(1, 0.05);
        let (clean, r0) = inject(
            c.dataset.online(),
            &FaultSpec::preset("clean", 1).expect("known preset"),
        );
        assert_eq!(
            r0.n_reordered + r0.n_duplicated + r0.n_corrupted + r0.n_dropped + r0.n_skewed,
            0
        );
        assert_eq!(r0.n_lines, r0.n_input);
        let (bounded, rb) = inject(
            c.dataset.online(),
            &FaultSpec::preset("bounded", 1).expect("known preset"),
        );
        assert!(rb.n_duplicated > 0 || rb.n_reordered > 0);
        assert_ne!(clean, bounded);
    }
}
