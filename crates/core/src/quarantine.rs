//! Quarantine of poison messages and the injected-panic hook.
//!
//! Augmentation catches panics at one boundary per message
//! ([`crate::augment::augment_batch_isolated`]); there is no batch-level
//! catch and no retry. A message whose augmentation panics is
//! *quarantined*: excluded from the digest exactly as if they had never
//! been fed, counted under `n_quarantined`, and recorded as
//! [`QuarantineRecord`]s for the `--quarantine-out` JSONL sidecar. A
//! quarantined message is never assigned a sequence number, so the
//! surviving digest is byte-identical to a run over the same feed with
//! the poison messages removed.
//!
//! The *poison hook* is how tests and the fault-injection harness
//! manufacture a panic deep inside augmentation: arming
//! [`set_poison_marker`] makes [`poison_check`] panic on any message
//! whose detail contains the marker. Disarmed (the default, and the
//! only production state) the hook costs one relaxed atomic load per
//! message and changes no output — the PR 3 output-neutrality contract
//! holds.

use sd_model::RawMessage;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;

/// One quarantined message with enough provenance to replay or debug
/// it: the wire-format line, where it sat in the feed, and why its
/// augmentation panicked. Serialized as one JSON object per line in the
/// `--quarantine-out` sidecar.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineRecord {
    /// 1-based position of the message in the input order (counts every
    /// pushed message, including dropped and quarantined ones).
    pub(crate) position: u64,
    /// The offending message, re-rendered in wire format.
    pub(crate) line: String,
    /// Originating router.
    pub(crate) router: String,
    /// Message timestamp (epoch seconds).
    pub(crate) ts: i64,
    /// Vendor error code.
    pub(crate) code: String,
    /// Pipeline stage that panicked (currently `"augment"`).
    pub(crate) stage: String,
    /// Rendered panic payload.
    pub(crate) reason: String,
}

impl QuarantineRecord {
    /// Build a record for `m`, quarantined at input `position` by a
    /// panic in `stage` with the given rendered `reason`.
    pub(crate) fn from_message(position: u64, m: &RawMessage, stage: &str, reason: &str) -> Self {
        QuarantineRecord {
            position,
            line: m.to_line(),
            router: m.router.clone(),
            ts: m.ts.0,
            code: m.code.to_string(),
            stage: stage.to_string(),
            reason: reason.to_string(),
        }
    }

    /// One-line JSON rendering for the JSONL sidecar.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| String::from("{}"))
    }
}

static POISON_ENABLED: AtomicBool = AtomicBool::new(false);
static POISON_MARKER: RwLock<Option<String>> = RwLock::new(None);

/// Arm (`Some`) or disarm (`None`) the injected-panic hook: while
/// armed, augmenting any message whose detail contains `marker` panics
/// inside that message's augmentation. Process-global; used by the fault
/// harness and quarantine tests to simulate a latent grammar bug.
pub fn set_poison_marker(marker: Option<&str>) {
    let mut guard = POISON_MARKER.write().unwrap_or_else(|e| e.into_inner());
    *guard = marker.map(str::to_string);
    POISON_ENABLED.store(guard.is_some(), Ordering::Release);
}

/// Panic if the poison hook is armed and `detail` contains the marker.
/// The disarmed fast path is a single relaxed atomic load.
#[inline]
pub(crate) fn poison_check(detail: &str) {
    if !POISON_ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let guard = POISON_MARKER.read().unwrap_or_else(|e| e.into_inner());
    if let Some(marker) = guard.as_deref() {
        if detail.contains(marker) {
            panic!("injected poison panic: message detail contains {marker:?}");
        }
    }
}

/// Held by every unit test that arms or disarms the process-global poison
/// hook, so tests running in parallel never see each other's marker.
#[cfg(test)]
pub(crate) static POISON_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use sd_model::{ErrorCode, Timestamp};

    fn msg(detail: &str) -> RawMessage {
        RawMessage::new(
            Timestamp(1000),
            "r1",
            ErrorCode::from("SYS-2-TESTFAIL"),
            detail,
        )
    }

    #[test]
    fn record_serializes_to_one_json_line() {
        let r = QuarantineRecord::from_message(7, &msg("interface down"), "augment", "boom");
        let json = r.to_json();
        assert!(!json.contains('\n'));
        let back: QuarantineRecord = serde_json::from_str(&json).expect("roundtrip");
        assert_eq!(back, r);
        assert_eq!(back.position, 7);
        assert_eq!(back.stage, "augment");
    }

    #[test]
    fn disarmed_hook_never_panics() {
        let _lock = POISON_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_poison_marker(None);
        poison_check("anything at all");
    }
}
