//! Fault-tolerant ingest: the composition real deployments run.
//!
//! [`FaultTolerantIngest`] wires the full defensive stack in front of the
//! streaming digester:
//!
//! ```text
//! feed lines ──parse──► ReorderBuffer ──in-order──► StreamDigester ──► events
//!      │ malformed: count + sample       │ late/duplicate: count
//! ```
//!
//! * Lines that fail to parse are counted ([`IngestStats::n_malformed`])
//!   and the first few are kept with line numbers and reasons
//!   ([`FaultTolerantIngest::malformed_samples`]) so operators see *what*
//!   is wrong with a feed, not just that something is.
//! * Reordering within `max_skew_secs` is repaired, late arrivals and
//!   duplicates are counted and dropped (see [`crate::reorder`]).
//! * [`FaultTolerantIngest::checkpoint`] snapshots the digester *and* the
//!   reorder buffer together, so resume continues mid-skew-window without
//!   losing buffered messages.
//!
//! Within the configured bounds this layer is *exact*: a faulted feed
//! (bounded reordering, duplicates, corrupted lines) digests to the same
//! event partition as the clean feed — the fault-injection integration
//! tests assert exactly that, and that anything beyond the bounds only
//! moves counters, never panics.

use crate::checkpoint::{CheckpointError, IngestState, RecoveryReport, StreamSnapshot};
use crate::event::NetworkEvent;
use crate::grouping::GroupingConfig;
use crate::knowledge::DomainKnowledge;
use crate::provenance::EventProvenance;
use crate::quarantine::QuarantineRecord;
use crate::reorder::ReorderBuffer;
use crate::stream::{StreamConfig, StreamDigester, StreamStats};
use sd_model::{MalformedReport, ParseError, RawMessage};
use sd_telemetry::{Counter, Telemetry};

/// Combined counters of a fault-tolerant ingest run. Every way the layer
/// can degrade is observable here; a healthy feed keeps them all zero
/// except [`IngestStats::n_lines`] and [`StreamStats::n_input`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Feed lines consumed (including blank and malformed ones).
    pub n_lines: usize,
    /// Non-blank lines that failed to parse.
    pub n_malformed: usize,
    /// Messages dropped for arriving beyond the reorder tolerance.
    pub n_late: usize,
    /// Duplicate messages absorbed by the reorder buffer.
    pub n_duplicate: usize,
    /// Digester-level counters (`n_dropped`, `n_force_closed`, ...).
    pub digester: StreamStats,
}

/// Streaming digester wrapped with parsing, reorder repair, and
/// checkpointing over the whole composite (see the module docs).
pub struct FaultTolerantIngest<'k> {
    digester: StreamDigester<'k>,
    reorder: ReorderBuffer,
    n_lines: Counter,
    n_malformed: Counter,
    /// Sampled malformed lines; its count always equals `n_malformed`.
    malformed: MalformedReport,
    /// Scratch for released messages, reused across pushes.
    released: Vec<RawMessage>,
}

impl<'k> FaultTolerantIngest<'k> {
    /// New ingest layer tolerating up to `max_skew_secs` of reordering,
    /// with every stage counter and span registered in `tel` (`ingest.*`
    /// and `stream.*` names; pass [`Telemetry::disabled`] to run without).
    pub fn with_telemetry(
        k: &'k DomainKnowledge,
        cfg: GroupingConfig,
        scfg: StreamConfig,
        max_skew_secs: i64,
        tel: &Telemetry,
    ) -> Self {
        FaultTolerantIngest {
            digester: StreamDigester::with_telemetry(k, cfg, scfg, tel),
            reorder: ReorderBuffer::with_telemetry(max_skew_secs, tel),
            n_lines: tel.counter("ingest.n_lines"),
            n_malformed: tel.counter("ingest.n_malformed"),
            malformed: MalformedReport::default(),
            released: Vec::new(),
        }
    }

    /// Enable or disable per-event provenance capture (see
    /// [`StreamDigester::set_trace`]).
    pub fn set_trace(&mut self, on: bool) {
        self.digester.set_trace(on);
    }

    /// Drain provenance records accumulated since the last call.
    pub fn take_provenance(&mut self) -> Vec<EventProvenance> {
        self.digester.take_provenance()
    }

    /// Feed one raw feed line: parse, repair ordering, digest. Blank
    /// lines are skipped silently; malformed ones are counted and
    /// sampled. Returns any events that became closable.
    pub fn push_line(&mut self, line: &str) -> Vec<NetworkEvent> {
        self.n_lines.inc();
        match RawMessage::parse_line(line) {
            Ok(m) => self.push_message(m),
            Err(ParseError::Blank) => Vec::new(),
            Err(e) => {
                self.n_malformed.inc();
                self.malformed.record(self.n_lines.get() as usize, &e);
                Vec::new()
            }
        }
    }

    /// Feed one already-parsed message through the reorder buffer.
    pub fn push_message(&mut self, m: RawMessage) -> Vec<NetworkEvent> {
        self.released.clear();
        self.reorder.push(m, &mut self.released);
        self.digester.push_batch(&self.released)
    }

    /// Flush the reorder buffer and close every remaining group. The
    /// provenance and quarantine records of this final flush drain through
    /// [`take_provenance`](Self::take_provenance) and
    /// [`take_quarantined`](Self::take_quarantined) like any others.
    pub fn finish(&mut self) -> (Vec<NetworkEvent>, IngestStats) {
        self.released.clear();
        self.reorder.flush(&mut self.released);
        let mut events = self.digester.push_batch(&self.released);
        events.extend(self.digester.finish());
        (events, self.stats())
    }

    /// Current counters (views over the registry-backed atomics).
    pub fn stats(&self) -> IngestStats {
        IngestStats {
            n_lines: self.n_lines.get() as usize,
            n_malformed: self.n_malformed.get() as usize,
            n_late: self.reorder.n_late.get() as usize,
            n_duplicate: self.reorder.n_duplicate.get() as usize,
            digester: self.digester.stats(),
        }
    }

    /// First few malformed lines as `(line number, reason)` — 1-based
    /// line numbers, reasons from [`ParseError`].
    pub fn malformed_samples(&self) -> &[(usize, String)] {
        &self.malformed.samples
    }

    /// Drain the quarantine records of messages whose augmentation
    /// panicked (see `crate::quarantine`); empty in a healthy run.
    pub fn take_quarantined(&mut self) -> Vec<QuarantineRecord> {
        self.digester.take_quarantined()
    }

    /// Snapshot digester *and* reorder-buffer state together.
    pub fn checkpoint(&self) -> StreamSnapshot {
        let ingest = IngestState {
            n_lines: self.n_lines.get() as usize,
            n_late: self.reorder.n_late.get() as usize,
            n_duplicate: self.reorder.n_duplicate.get() as usize,
            malformed: self.malformed.clone(),
        };
        self.digester.checkpoint(&self.reorder, ingest)
    }

    /// Rebuild an ingest layer (digester + reorder buffer) from a
    /// snapshot taken by [`FaultTolerantIngest::checkpoint`], with
    /// counters and spans re-registered in `tel`; checkpointed counter
    /// values carry over.
    pub fn resume_with_telemetry(
        k: &'k DomainKnowledge,
        snapshot: &StreamSnapshot,
        tel: &Telemetry,
    ) -> Result<Self, CheckpointError> {
        let st = &snapshot.ingest;
        // The buffer's contents come from the snapshot, its counters from `tel`.
        let mut reorder = snapshot.reorder.clone();
        let ReorderBuffer {
            n_late,
            n_duplicate,
            ..
        } = ReorderBuffer::with_telemetry(0, tel);
        (reorder.n_late, reorder.n_duplicate) = (n_late, n_duplicate);
        let ing = FaultTolerantIngest {
            digester: StreamDigester::resume_with_telemetry(k, snapshot, tel)?,
            reorder,
            n_lines: tel.counter("ingest.n_lines"),
            n_malformed: tel.counter("ingest.n_malformed"),
            malformed: st.malformed.clone(),
            released: Vec::new(),
        };
        ing.n_lines.set(st.n_lines as u64);
        ing.n_malformed.set(st.malformed.count as u64);
        ing.reorder.n_late.set(st.n_late as u64);
        ing.reorder.n_duplicate.set(st.n_duplicate as u64);
        Ok(ing)
    }

    /// Resume from the newest verifiable checkpoint generation of `path`
    /// (see [`StreamSnapshot::recover_last_good`]). Registers and updates
    /// the durability counters in `tel` — `ckpt.n_corrupt` (generations
    /// that existed but failed verification) and `ckpt.n_fallback` (1 when
    /// an older generation had to be used). The counters are registered
    /// even when no checkpoint exists yet, so a checkpointing run always
    /// exports them (at 0 in the healthy case).
    pub fn recover_with_telemetry(
        k: &'k DomainKnowledge,
        path: &std::path::Path,
        keep: usize,
        tel: &Telemetry,
    ) -> Result<Option<(Self, RecoveryReport)>, CheckpointError> {
        let n_corrupt = tel.counter("ckpt.n_corrupt");
        let n_fallback = tel.counter("ckpt.n_fallback");
        match StreamSnapshot::recover_last_good(path, keep)? {
            None => Ok(None),
            Some((snapshot, report)) => {
                n_corrupt.add(report.n_corrupt as u64);
                if report.generation > 0 {
                    n_fallback.inc();
                }
                let ingest = Self::resume_with_telemetry(k, &snapshot, tel)?;
                Ok(Some((ingest, report)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::{learn, OfflineConfig};
    use sd_netsim::{Dataset, DatasetSpec};

    fn setup() -> (Dataset, DomainKnowledge) {
        let d = Dataset::generate(DatasetSpec::preset_a().scaled(0.08), &Telemetry::disabled());
        let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
        (d, k)
    }

    /// Default limits, 30 s of reorder tolerance, no telemetry.
    fn ingest(k: &DomainKnowledge) -> FaultTolerantIngest<'_> {
        let (cfg, scfg) = (GroupingConfig::default(), StreamConfig::default());
        FaultTolerantIngest::with_telemetry(k, cfg, scfg, 30, &Telemetry::disabled())
    }

    #[test]
    fn malformed_lines_are_counted_and_sampled_with_reasons() {
        let (_, k) = setup();
        let mut ing = ingest(&k);
        ing.push_line("");
        ing.push_line("2010-01-10 00:00:15 r1"); // truncated
        ing.push_line("garbage line here entirely");
        let stats = ing.stats();
        assert_eq!(stats.n_lines, 3);
        assert_eq!(stats.n_malformed, 2); // blank is not malformed
        let samples = ing.malformed_samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].0, 2);
        assert_eq!(samples[0].1, "truncated line: missing code");
        assert_eq!(samples[1].0, 3);
        assert_eq!(samples[1].1, "malformed timestamp");
    }

    #[test]
    fn line_ingest_equals_message_ingest_on_a_clean_feed() {
        let (d, k) = setup();
        let online = d.online();
        let n = online.len().min(3000);

        let mut by_line = ingest(&k);
        let mut e1 = Vec::new();
        for m in &online[..n] {
            e1.extend(by_line.push_line(&m.to_line()));
        }
        let (rest, stats) = by_line.finish();
        e1.extend(rest);
        assert_eq!(stats.n_malformed, 0);
        assert_eq!(stats.n_late, 0);

        let mut by_msg = ingest(&k);
        let mut e2 = Vec::new();
        for m in &online[..n] {
            e2.extend(by_msg.push_message(m.clone()));
        }
        let (rest, _) = by_msg.finish();
        e2.extend(rest);

        let norm = |evs: &[NetworkEvent]| {
            let mut v: Vec<String> = evs
                .iter()
                .map(|e| format!("{:?}", e.message_idxs))
                .collect();
            v.sort();
            v
        };
        assert_eq!(norm(&e1), norm(&e2));
    }

    /// checkpoint() → resume roundtrips the full state: the resumed layer
    /// re-serializes to the snapshot it came from and emits exactly what
    /// the original would have, in the same order and under the same ids
    /// — also when the open-message bound force-closes groups (whose
    /// order follows the checkpointed group roots).
    #[test]
    fn checkpoint_resume_is_exact() {
        let (d, k) = setup();
        let online = d.online();
        let cut = online.len() / 2;
        let emitted = |evs: &[NetworkEvent]| -> Vec<(u64, Vec<usize>)> {
            evs.iter().map(|e| (e.id, e.message_idxs.clone())).collect()
        };
        let tel = Telemetry::disabled();
        let cfg = GroupingConfig::default();

        for max_open_messages in [0, 64] {
            let scfg = StreamConfig {
                idle_close: 0,
                max_open_messages,
            };
            let mut uninterrupted = FaultTolerantIngest::with_telemetry(&k, cfg, scfg, 30, &tel);
            let mut e1 = Vec::new();
            for m in online {
                e1.extend(uninterrupted.push_message(m.clone()));
            }
            let (rest, s1) = uninterrupted.finish();
            e1.extend(rest);

            let mut first = FaultTolerantIngest::with_telemetry(&k, cfg, scfg, 30, &tel);
            let mut e2 = Vec::new();
            for m in &online[..cut] {
                e2.extend(first.push_message(m.clone()));
            }
            let json = first.checkpoint().to_json().expect("snapshot serializes");
            drop(first); // the "kill"
            let snap = StreamSnapshot::from_json(&json).expect("snapshot parses");
            let mut second =
                FaultTolerantIngest::resume_with_telemetry(&k, &snap, &tel).expect("resume");
            assert_eq!(
                second.checkpoint().to_json().expect("snapshot serializes"),
                json,
                "max_open {max_open_messages}: resumed state differs from its snapshot"
            );
            for m in &online[cut..] {
                e2.extend(second.push_message(m.clone()));
            }
            let (rest, s2) = second.finish();
            e2.extend(rest);

            assert_eq!(emitted(&e1), emitted(&e2), "max_open {max_open_messages}");
            assert_eq!(s1, s2, "max_open {max_open_messages}");
            assert!(
                max_open_messages == 0 || s2.digester.n_force_closed > 0,
                "the open-message bound never fired"
            );
        }
    }

    /// Equal states serialize to equal bytes: two ingest layers in one
    /// process (so with differently seeded hash maps) fed the same
    /// 17k-line feed write identical snapshots at every checkpoint.
    #[test]
    fn snapshots_do_not_depend_on_hash_order() {
        let mut spec = DatasetSpec::preset_a();
        spec.seed = 7;
        let d = Dataset::generate(spec.scaled(0.05), &Telemetry::disabled());
        let k = learn(&d.configs, &d.messages, &OfflineConfig::dataset_a());
        let lines: Vec<String> = d.messages.iter().map(|m| m.to_line()).collect();
        assert!(lines.len() > 17_000, "{} lines", lines.len());
        let (mut a, mut b) = (ingest(&k), ingest(&k));
        for (i, chunk) in lines.chunks(1000).enumerate() {
            for line in chunk {
                a.push_line(line);
                b.push_line(line);
            }
            let (ja, jb) = (a.checkpoint().to_json(), b.checkpoint().to_json());
            assert!(
                ja.expect("serializes") == jb.expect("serializes"),
                "checkpoint {i} differs"
            );
        }
    }

    /// The thread count changes no output, so the snapshot does not
    /// record it either: ingests at 1 and 4 threads write identical
    /// snapshots.
    #[test]
    fn snapshots_do_not_depend_on_the_thread_count() {
        let (d, k) = setup();
        let snapshot_at = |threads| {
            let cfg = GroupingConfig {
                par: sd_model::Parallelism::with_threads(threads),
                ..GroupingConfig::default()
            };
            let scfg = StreamConfig::default();
            let mut ing =
                FaultTolerantIngest::with_telemetry(&k, cfg, scfg, 30, &Telemetry::disabled());
            for m in &d.online()[..4000] {
                ing.push_message(m.clone());
            }
            ing.checkpoint().to_json().expect("serializes")
        };
        assert!(
            snapshot_at(1) == snapshot_at(4),
            "snapshots differ between 1 and 4 threads"
        );
    }

    #[test]
    fn checkpoint_resume_through_the_ingest_layer_is_exact() {
        let (d, k) = setup();
        let online = d.online();
        let n = online.len().min(4000);
        let cut = n / 2;

        let mut whole = ingest(&k);
        let mut e1 = Vec::new();
        for m in &online[..n] {
            e1.extend(whole.push_message(m.clone()));
        }
        let (rest, s1) = whole.finish();
        e1.extend(rest);

        let mut first = ingest(&k);
        let mut e2 = Vec::new();
        for m in &online[..cut] {
            e2.extend(first.push_message(m.clone()));
        }
        let snap = first.checkpoint();
        drop(first);
        let json = snap.to_json().expect("snapshot serializes");
        let snap = StreamSnapshot::from_json(&json).expect("snapshot parses");
        let mut second =
            FaultTolerantIngest::resume_with_telemetry(&k, &snap, &Telemetry::disabled())
                .expect("resume");
        for m in &online[cut..n] {
            e2.extend(second.push_message(m.clone()));
        }
        let (rest, s2) = second.finish();
        e2.extend(rest);

        let norm = |evs: &[NetworkEvent]| {
            let mut v: Vec<Vec<usize>> = evs.iter().map(|e| e.message_idxs.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(norm(&e1), norm(&e2));
        assert_eq!(s1.n_late, s2.n_late);
        assert_eq!(s1.digester.n_dropped, s2.digester.n_dropped);
    }

    /// Every `stream.*` and `ingest.*` counter carries over a resume, so
    /// a checkpointed run ends on the uninterrupted run's values. Only
    /// `stream.links_*` count since process start.
    #[test]
    fn resumed_counters_match_the_uninterrupted_run() {
        let (d, k) = setup();
        let mut lines: Vec<String> = d.online()[..4000].iter().map(|m| m.to_line()).collect();
        lines.insert(100, "garbage line here entirely".to_owned());
        lines.insert(2500, "2010-01-10 00:00:15 r1".to_owned());
        lines.insert(3001, lines[3000].clone());
        let cut = lines.len() / 2;
        let (cfg, scfg) = (GroupingConfig::default(), StreamConfig::default());
        let counters = |tel: &Telemetry| -> Vec<(String, u64)> {
            let mut c = tel.snapshot().counters;
            c.retain(|(n, _)| {
                (n.starts_with("stream.") || n.starts_with("ingest."))
                    && !n.starts_with("stream.links_")
            });
            c
        };

        let whole_tel = Telemetry::new();
        let mut whole = FaultTolerantIngest::with_telemetry(&k, cfg, scfg, 30, &whole_tel);
        for l in &lines {
            whole.push_line(l);
        }
        let (_, stats) = whole.finish();
        assert_eq!((stats.n_malformed, stats.n_duplicate), (2, 1));

        let mut first = FaultTolerantIngest::with_telemetry(&k, cfg, scfg, 30, &Telemetry::new());
        for l in &lines[..cut] {
            first.push_line(l);
        }
        let snap = first.checkpoint();
        let resumed_tel = Telemetry::new();
        let mut second =
            FaultTolerantIngest::resume_with_telemetry(&k, &snap, &resumed_tel).expect("resume");
        for l in &lines[cut..] {
            second.push_line(l);
        }
        second.finish();
        assert_eq!(counters(&resumed_tel), counters(&whole_tel));
    }

    #[test]
    fn resume_rejects_a_different_knowledge_base() {
        let (d, k) = setup();
        let snap = ingest(&k).checkpoint();
        let d2 = Dataset::generate(DatasetSpec::preset_a().scaled(0.04), &Telemetry::disabled());
        let k2 = learn(&d2.configs, d2.train(), &OfflineConfig::dataset_a());
        assert!(matches!(
            FaultTolerantIngest::resume_with_telemetry(&k2, &snap, &Telemetry::disabled()),
            Err(CheckpointError::KnowledgeMismatch)
        ));
        let _ = d;
    }
}
