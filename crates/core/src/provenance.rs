//! Per-event provenance: which templates matched the member messages,
//! which grouping stage (and which mined rule) linked each pair of
//! sub-events, and which temporal decision closed the group.
//!
//! Provenance is *observational*: it is accumulated alongside grouping
//! (cheaply enough to stay always-on in the streaming path, where it
//! rides inside checkpoints) but never feeds back into any grouping,
//! scoring, or presentation decision — the telemetry-neutrality tests
//! assert digest output is byte-identical with tracing on and off.

use crate::event::{add_counts, sorted_entry};
use serde::{Deserialize, Serialize, Value};
use std::fmt::Write as _;

/// Which grouping stage merged two sub-events (§4.2.1–§4.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MergeCause {
    /// Temporal grouping: same (router, template, location), inter-arrival
    /// accepted by the calibrated EWMA tracker.
    Temporal,
    /// Rule-based grouping: the undirected template pair of the mined
    /// association rule that fired.
    Rule(u32, u32),
    /// Cross-router grouping: same template on connected locations within
    /// the simultaneity window.
    Cross,
}

/// Why a group stopped accepting messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum CloseReason {
    /// Batch digest: groups close when the batch ends.
    Batch,
    /// Streaming idle close: the α/β-calibrated idle horizon elapsed with
    /// no new member.
    Idle,
    /// Streaming memory bound: evicted as the oldest open group.
    ForceClosed,
    /// Stream finish flushed all remaining open groups.
    Finish,
}

impl CloseReason {
    /// Lowercase name used in traces and `sdigest explain`.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            CloseReason::Batch => "batch",
            CloseReason::Idle => "idle",
            CloseReason::ForceClosed => "force_closed",
            CloseReason::Finish => "finish",
        }
    }
}

/// Link counts of one group, kept in its summary (and so in stream
/// checkpoints, so provenance survives resume).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupProv {
    /// Links contributed by the temporal stage.
    pub(crate) n_temporal: u64,
    /// Links contributed by the cross-router stage.
    pub(crate) n_cross: u64,
    /// Rule firings: `((lo_template, hi_template), times_fired)`, sorted
    /// by pair.
    pub(crate) rules: Vec<((u32, u32), u64)>,
}

impl GroupProv {
    /// Record one merge link.
    pub(crate) fn record(&mut self, cause: MergeCause) {
        match cause {
            MergeCause::Temporal => self.n_temporal += 1,
            MergeCause::Cross => self.n_cross += 1,
            MergeCause::Rule(a, b) => *sorted_entry(&mut self.rules, (a.min(b), a.max(b))) += 1,
        }
    }

    /// Fold another accumulator in (used when two open groups union).
    pub(crate) fn absorb(&mut self, other: &GroupProv) {
        self.n_temporal += other.n_temporal;
        self.n_cross += other.n_cross;
        add_counts(&mut self.rules, other.rules.iter().copied());
    }

    /// Total rule-stage links.
    pub(crate) fn n_rule(&self) -> u64 {
        self.rules.iter().map(|(_, n)| n).sum()
    }
}

/// Full provenance of one emitted event, reconstructable from its id via
/// `sdigest explain` and streamed as one JSONL record via `--trace`.
#[derive(Debug, Clone)]
pub struct EventProvenance {
    /// The event id this record explains (matches `NetworkEvent::id`).
    pub event_id: u64,
    /// Member message count.
    pub n_messages: usize,
    /// Involved router names (sorted).
    pub routers: Vec<String>,
    /// `(template_id, signature, members_matched)` for every template that
    /// matched at least one member, sorted by id.
    pub(crate) templates: Vec<(u32, String, u64)>,
    /// Link counts per grouping stage and per fired rule.
    pub links: GroupProv,
    /// Signatures of the templates in each fired rule, aligned with
    /// `links.rules`.
    pub(crate) rule_signatures: Vec<(String, String)>,
    /// The decision that closed the group.
    pub(crate) closed_by: CloseReason,
    /// For [`CloseReason::Idle`]: the observed quiet gap in seconds.
    pub(crate) idle_gap_secs: Option<i64>,
    /// For streaming closes: the configured idle horizon in seconds.
    pub(crate) idle_close_secs: Option<i64>,
}

/// A JSON object with `fields` in order.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The `--trace` record shape: per-stage link totals, fired rules with
/// their signatures, and `null` idle fields outside idle closes.
impl Serialize for EventProvenance {
    fn to_value(&self) -> Value {
        let templates = self.templates.iter().map(|(id, sig, n)| {
            object([
                ("id", id.to_value()),
                ("signature", sig.to_value()),
                ("members", n.to_value()),
            ])
        });
        let links = &self.links;
        let rules = links.rules.iter().zip(&self.rule_signatures);
        let rules = rules.map(|(&(pair, fired), sigs)| {
            object([
                ("templates", pair.to_value()),
                ("signatures", sigs.to_value()),
                ("fired", fired.to_value()),
            ])
        });
        object([
            ("event_id", self.event_id.to_value()),
            ("n_messages", self.n_messages.to_value()),
            ("routers", self.routers.to_value()),
            ("templates", Value::Array(templates.collect())),
            (
                "links",
                object([
                    ("temporal", links.n_temporal.to_value()),
                    ("rule", links.n_rule().to_value()),
                    ("cross", links.n_cross.to_value()),
                ]),
            ),
            ("rules", Value::Array(rules.collect())),
            ("closed_by", self.closed_by.as_str().to_value()),
            ("idle_gap_secs", self.idle_gap_secs.to_value()),
            ("idle_close_secs", self.idle_close_secs.to_value()),
        ])
    }
}

impl EventProvenance {
    /// One JSONL trace record (a single line, no trailing newline).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("a provenance record always encodes")
    }

    /// Multi-line human rendering for `sdigest explain`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "event {}: {} messages on {}",
            self.event_id,
            self.n_messages,
            self.routers.join(", ")
        );
        let _ = writeln!(out, "  templates matched:");
        for (id, sig, n) in &self.templates {
            let _ = writeln!(out, "    [{id}] x{n}  {sig}");
        }
        let _ = writeln!(
            out,
            "  links: {} temporal, {} rule, {} cross-router",
            self.links.n_temporal,
            self.links.n_rule(),
            self.links.n_cross
        );
        if !self.links.rules.is_empty() {
            let _ = writeln!(out, "  rules fired:");
            for (&((a, b), fired), (sa, sb)) in self.links.rules.iter().zip(&self.rule_signatures) {
                let _ = writeln!(out, "    ({a},{b}) x{fired}: {sa}  <->  {sb}");
            }
        }
        match (self.closed_by, self.idle_gap_secs, self.idle_close_secs) {
            (CloseReason::Idle, Some(gap), Some(h)) => {
                let _ = writeln!(out, "  closed by: idle (quiet {gap} s > horizon {h} s)");
            }
            (reason, _, _) => {
                let _ = writeln!(out, "  closed by: {}", reason.as_str());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_absorb_accumulate() {
        let mut a = GroupProv::default();
        a.record(MergeCause::Temporal);
        a.record(MergeCause::Rule(3, 1));
        a.record(MergeCause::Rule(1, 3));
        let mut b = GroupProv::default();
        b.record(MergeCause::Cross);
        b.record(MergeCause::Rule(1, 3));
        b.record(MergeCause::Rule(0, 2));
        a.absorb(&b);
        assert_eq!(a.n_temporal, 1);
        assert_eq!(a.n_cross, 1);
        assert_eq!(a.rules, vec![((0, 2), 1), ((1, 3), 3)]);
        assert_eq!(a.n_rule(), 4);
    }

    /// Every `MergeCause` variant survives a JSONL encode → decode cycle
    /// (merge causes ride inside streaming checkpoints; a variant that
    /// fails to roundtrip would corrupt provenance across resume).
    #[test]
    fn merge_cause_roundtrips_through_json() {
        for cause in [
            MergeCause::Temporal,
            MergeCause::Rule(0, 0),
            MergeCause::Rule(3, 9),
            MergeCause::Rule(u32::MAX, 1),
            MergeCause::Cross,
        ] {
            let line = serde_json::to_string(&cause).expect("encodes");
            assert!(!line.contains('\n'), "JSONL must stay one line: {line}");
            let back: MergeCause = serde_json::from_str(&line).expect("decodes");
            assert_eq!(back, cause, "via {line}");
        }
    }

    /// Every `CloseReason` variant survives the same cycle, and the
    /// variants stay distinguishable after encoding.
    #[test]
    fn close_reason_roundtrips_through_json() {
        let all = [
            CloseReason::Batch,
            CloseReason::Idle,
            CloseReason::ForceClosed,
            CloseReason::Finish,
        ];
        let mut encodings = Vec::new();
        for reason in all {
            let line = serde_json::to_string(&reason).expect("encodes");
            let back: CloseReason = serde_json::from_str(&line).expect("decodes");
            assert_eq!(back, reason, "via {line}");
            encodings.push(line);
        }
        encodings.sort();
        encodings.dedup();
        assert_eq!(encodings.len(), all.len(), "encodings must be distinct");
    }

    /// `GroupProv` (the accumulator checkpoints serialize per open group)
    /// roundtrips with rule pairs and counts intact.
    #[test]
    fn group_prov_roundtrips_through_json() {
        let mut links = GroupProv::default();
        links.record(MergeCause::Temporal);
        links.record(MergeCause::Cross);
        links.record(MergeCause::Rule(5, 2));
        links.record(MergeCause::Rule(2, 5));
        links.record(MergeCause::Rule(7, 8));
        let line = serde_json::to_string(&links).expect("encodes");
        let back: GroupProv = serde_json::from_str(&line).expect("decodes");
        assert_eq!(back, links);
        assert_eq!(back.n_rule(), 3);
    }

    #[test]
    fn json_record_is_well_formed() {
        let mut links = GroupProv::default();
        links.record(MergeCause::Temporal);
        links.record(MergeCause::Rule(0, 1));
        let p = EventProvenance {
            event_id: 7,
            n_messages: 4,
            routers: vec!["r1".into()],
            templates: vec![(0, "LINK *".into(), 3), (1, "PROTO *".into(), 1)],
            links,
            rule_signatures: vec![("LINK *".into(), "PROTO *".into())],
            closed_by: CloseReason::Idle,
            idle_gap_secs: Some(301),
            idle_close_secs: Some(300),
        };
        assert_eq!(
            p.to_json(),
            concat!(
                r#"{"event_id":7,"n_messages":4,"routers":["r1"],"#,
                r#""templates":[{"id":0,"signature":"LINK *","members":3},"#,
                r#"{"id":1,"signature":"PROTO *","members":1}],"#,
                r#""links":{"temporal":1,"rule":1,"cross":0},"#,
                r#""rules":[{"templates":[0,1],"signatures":["LINK *","PROTO *"],"fired":1}],"#,
                r#""closed_by":"idle","idle_gap_secs":301,"idle_close_secs":300}"#
            )
        );
        let text = p.render_text();
        assert!(text.contains("event 7: 4 messages on r1"), "{text}");
        assert!(text.contains("quiet 301 s > horizon 300 s"), "{text}");

        // A batch close: no rules, idle fields null, a signature that
        // needs escaping.
        let p = EventProvenance {
            event_id: 1,
            n_messages: 2,
            routers: vec!["r1".into(), "r2".into()],
            templates: vec![(5, "SYS \"x\"\t*".into(), 2)],
            links: GroupProv::default(),
            rule_signatures: Vec::new(),
            closed_by: CloseReason::Batch,
            idle_gap_secs: None,
            idle_close_secs: None,
        };
        assert_eq!(
            p.to_json(),
            concat!(
                r#"{"event_id":1,"n_messages":2,"routers":["r1","r2"],"#,
                r#""templates":[{"id":5,"signature":"SYS \"x\"\t*","members":2}],"#,
                r#""links":{"temporal":0,"rule":0,"cross":0},"rules":[],"#,
                r#""closed_by":"batch","idle_gap_secs":null,"idle_close_secs":null}"#
            )
        );
    }
}
