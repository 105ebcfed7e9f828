//! Property tests for template learning and matching.

use proptest::prelude::*;
use sd_model::{ErrorCode, RawMessage, Timestamp};
use sd_templates::{learn, LearnerConfig, MaskTok};

/// Generate message corpora: a few codes, each with a literal skeleton and
/// variable slots filled from value pools of varying cardinality.
fn corpus() -> impl Strategy<Value = Vec<RawMessage>> {
    let msg = (0u8..3, 0u16..500, 0u16..30).prop_map(|(code, val_a, val_b)| {
        let (code, detail) = match code {
            0 => (
                "LINK-3-UPDOWN",
                format!(
                    "Interface Serial{val_a}/0, changed state to {}",
                    if val_b % 2 == 0 { "down" } else { "up" }
                ),
            ),
            1 => (
                "SYS-2-MALLOC",
                format!("Memory allocation of {val_a} bytes failed at level {val_b}"),
            ),
            _ => (
                "AAA-3-TIMEOUT",
                format!("server 10.0.{}.{} timed out", val_a % 250, val_b % 250),
            ),
        };
        RawMessage::new(Timestamp(0), "r1", ErrorCode::from(code), detail)
    });
    proptest::collection::vec(msg, 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Totality: every message used for learning matches some learned
    /// template afterwards.
    #[test]
    fn learning_is_total_over_its_input(msgs in corpus()) {
        let set = learn(&msgs, &LearnerConfig::default());
        for m in &msgs {
            prop_assert!(
                set.match_message(m).is_some(),
                "unmatched: {}",
                m.to_line()
            );
        }
    }

    /// Every learned template is supported: at least one input message
    /// matches it exactly (no phantom templates).
    #[test]
    fn no_phantom_templates(msgs in corpus()) {
        let set = learn(&msgs, &LearnerConfig::default());
        for (id, t) in set.iter() {
            let hit = msgs.iter().any(|m| {
                set.match_message(m) == Some(id)
            });
            prop_assert!(hit, "phantom template {}", t.masked());
        }
    }

    /// Matching consistency: the matched template's pattern really does
    /// match the tokenized detail, and extraction returns one value per
    /// star.
    #[test]
    fn match_and_extract_agree(msgs in corpus()) {
        let set = learn(&msgs, &LearnerConfig::default());
        for m in &msgs {
            let id = set.match_message(m).expect("total");
            let t = set.get(id);
            let toks: Vec<&str> = m.detail().split_whitespace().collect();
            prop_assert!(t.matches(&toks));
            let stars = t.toks.iter().filter(|x| matches!(x, MaskTok::Star)).count();
            prop_assert_eq!(t.extract_vars(&toks).len(), stars);
        }
    }

    /// A smaller k never yields fewer templates (less aggressive splitting
    /// means masking kicks in earlier, merging sub-types).
    #[test]
    fn k_monotonicity_on_template_count(msgs in corpus()) {
        let small = learn(&msgs, &LearnerConfig { k: 2, max_per_code: 10_000 }).len();
        let large = learn(&msgs, &LearnerConfig { k: 50, max_per_code: 10_000 }).len();
        prop_assert!(small <= large, "k=2 gave {small} > k=50 {large}");
    }
}
