//! Recovery conformance: crash, corrupt, recover, replay — and demand
//! the digest a fresh uninterrupted run would have produced.
//!
//! The durability layer's contract has two halves:
//!
//! 1. **Bounded loss** — a crash (even mid-checkpoint-write) loses at
//!    most one checkpoint interval of progress: the newest *complete*
//!    generation is never more than `ckpt_every` lines behind the kill
//!    point.
//! 2. **Exact resumption** — replaying the rest of the feed on top of
//!    the recovered snapshot yields the *same event partition* as a run
//!    that was never interrupted.
//!
//! [`verify_recovery`] checks both, for every storage-fault kind, by
//! streaming a prefix of the feed with rotated checkpoints, damaging the
//! newest generation with [`sd_netsim::iofaults`], recovering through
//! [`FaultTolerantIngest::recover_with_telemetry`], and comparing
//! [`partition_digest`]s.

use crate::golden::{partition_digest, run_feed};
use sd_netsim::{apply_fault, StorageFault};
use sd_telemetry::Telemetry;
use std::fmt;
use std::path::Path;
use syslogdigest::{
    generation_path, DomainKnowledge, FaultTolerantIngest, GroupingConfig, NetworkEvent,
    StreamConfig,
};

/// The storage-fault kinds every recovery conformance run must survive.
/// (`short-write` leaves the same on-disk image as `truncate`, so the
/// matrix covers the three distinct damage shapes.)
pub(crate) const RECOVERY_FAULT_KINDS: [&str; 3] = ["truncate", "bitflip", "disk-full"];

/// What one fault scenario recovered to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Fault kind injected into the newest generation (`"none"` for the
    /// pristine control scenario).
    pub(crate) fault: String,
    /// Generation the recovery settled on (0 = newest).
    pub(crate) generation: u32,
    /// Generations skipped as corrupt on the way there.
    pub(crate) n_corrupt: usize,
    /// Feed lines replayed after the recovered snapshot.
    pub(crate) lines_replayed: usize,
}

impl fmt::Display for RecoveryOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault {:<10} -> generation {} ({} corrupt skipped, {} lines replayed)",
            self.fault, self.generation, self.n_corrupt, self.lines_replayed
        )
    }
}

/// Stream `lines` with rotated checkpoints, crash at a checkpoint
/// boundary, inject every storage fault into the newest generation (plus
/// one pristine control), recover, replay, and verify both halves of the
/// durability contract. Checkpoint files are written under `dir` (one
/// subdirectory per scenario); the caller owns cleanup.
///
/// Returns one `RecoveryOutcome` per scenario, or a description of the
/// first violated guarantee.
pub fn verify_recovery(
    k: &DomainKnowledge,
    lines: &[String],
    max_skew_secs: i64,
    ckpt_every: usize,
    keep: usize,
    seed: u64,
    dir: &Path,
) -> Result<Vec<RecoveryOutcome>, String> {
    // The kill point sits exactly at a checkpoint boundary, modelling a
    // crash during the write of generation 0: the torn file is the one
    // being written, and the previous complete generation is exactly one
    // interval behind.
    let cut = (lines.len() * 2 / 3) / ckpt_every * ckpt_every;
    if cut < 2 * ckpt_every || keep == 0 {
        return Err(format!(
            "feed too short for recovery conformance: {} lines, cut {cut}, \
             interval {ckpt_every} (need at least two intervals before the cut)",
            lines.len()
        ));
    }

    // Oracle: the uninterrupted run.
    let (baseline_events, _) = run_feed(k, lines, max_skew_secs);
    let baseline = partition_digest(&baseline_events);

    // Stream the prefix, checkpointing with rotation. Remember, at each
    // save point, how many lines were consumed and how many events had
    // been emitted so far — a recovery that lands on that save resumes
    // *from* it, so the pre-save events combine with the replayed ones.
    let ckpt = dir.join("ref.ckpt");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut ing = FaultTolerantIngest::with_telemetry(
        k,
        GroupingConfig::default(),
        StreamConfig::default(),
        max_skew_secs,
        &Telemetry::disabled(),
    );
    let mut prefix_events: Vec<NetworkEvent> = Vec::new();
    let mut saves: Vec<(usize, usize)> = Vec::new(); // (lines consumed, events emitted)
    for (i, line) in lines[..cut].iter().enumerate() {
        prefix_events.extend(ing.push_line(line));
        if (i + 1) % ckpt_every == 0 {
            ing.checkpoint()
                .save_rotated(&ckpt, keep)
                .map_err(|e| format!("saving rotated checkpoint: {e}"))?;
            saves.push((i + 1, prefix_events.len()));
        }
    }
    drop(ing);

    let scenarios: Vec<Option<&str>> = std::iter::once(None)
        .chain(RECOVERY_FAULT_KINDS.iter().map(|&f| Some(f)))
        .collect();
    let mut outcomes = Vec::new();
    for fault_kind in scenarios {
        let name = fault_kind.unwrap_or("none");
        let fault_dir = dir.join(name);
        std::fs::create_dir_all(&fault_dir)
            .map_err(|e| format!("creating {}: {e}", fault_dir.display()))?;
        let fault_ckpt = fault_dir.join("ref.ckpt");
        for g in 0..=keep as u32 {
            let src = generation_path(&ckpt, g);
            if src.exists() {
                std::fs::copy(&src, generation_path(&fault_ckpt, g))
                    .map_err(|e| format!("copying generation {g}: {e}"))?;
            }
        }
        if let Some(kind) = fault_kind {
            let bytes = std::fs::read(&fault_ckpt)
                .map_err(|e| format!("reading checkpoint for {kind}: {e}"))?;
            let fault = StorageFault::from_seed(kind, seed, bytes.len())
                .ok_or_else(|| format!("unknown storage fault kind {kind:?}"))?;
            std::fs::write(&fault_ckpt, apply_fault(&bytes, &fault))
                .map_err(|e| format!("writing damaged checkpoint: {e}"))?;
        }

        let (mut resumed, report) = FaultTolerantIngest::recover_with_telemetry(
            k,
            &fault_ckpt,
            keep,
            &Telemetry::disabled(),
        )
        .map_err(|e| format!("fault {name}: recovery failed entirely: {e}"))?
        .ok_or_else(|| format!("fault {name}: recovery found no snapshot at all"))?;
        let consumed = report.lines_consumed;

        // Guarantee 1: bounded loss.
        if cut - consumed > ckpt_every {
            return Err(format!(
                "fault {name}: recovered snapshot is {} lines behind the crash \
                 point — more than one checkpoint interval ({ckpt_every})",
                cut - consumed
            ));
        }
        let &(_, events_at_save) =
            saves.iter().find(|&&(n, _)| n == consumed).ok_or_else(|| {
                format!("fault {name}: recovered to {consumed} lines, not a save point")
            })?;

        // Guarantee 2: exact resumption.
        let mut events: Vec<NetworkEvent> = prefix_events[..events_at_save].to_vec();
        for line in &lines[consumed..] {
            events.extend(resumed.push_line(line));
        }
        let (rest, _stats) = resumed.finish();
        events.extend(rest);
        let digest = partition_digest(&events);
        if digest != baseline {
            return Err(format!(
                "fault {name}: recovered replay diverged from the uninterrupted \
                 run (partition {digest} != baseline {baseline}, resumed from \
                 generation {} at line {consumed})",
                report.generation
            ));
        }

        outcomes.push(RecoveryOutcome {
            fault: name.to_owned(),
            generation: report.generation,
            n_corrupt: report.n_corrupt,
            lines_replayed: lines.len() - consumed,
        });
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_netsim::{inject, Dataset, DatasetSpec, FaultSpec};
    use syslogdigest::offline::{learn, OfflineConfig};

    #[test]
    fn every_storage_fault_recovers_to_the_baseline_partition() {
        let d = Dataset::generate(DatasetSpec::preset_a().scaled(0.05), &Telemetry::disabled());
        let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
        let (lines, _) = inject(d.online(), &FaultSpec::bounded(11));
        let every = lines.len() / 5;
        let dir = std::env::temp_dir().join(format!("sd-recovery-conf-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let outcomes =
            verify_recovery(&k, &lines, 30, every, 2, 11, &dir).expect("recovery conformance");
        assert_eq!(outcomes.len(), 1 + RECOVERY_FAULT_KINDS.len());

        // Control: pristine checkpoints recover the newest generation.
        assert_eq!(outcomes[0].fault, "none");
        assert_eq!(outcomes[0].generation, 0);
        assert_eq!(outcomes[0].n_corrupt, 0);

        // Every injected fault fell back past the damaged newest
        // generation (the seeded offsets never leave a loadable prefix).
        for o in &outcomes[1..] {
            assert_eq!(o.generation, 1, "{o}");
            assert_eq!(o.n_corrupt, 1, "{o}");
            assert!(o.lines_replayed > 0, "{o}");
        }

        let _ = std::fs::remove_dir_all(&dir);
    }
}
