//! Message-template learning (§4.1.1).
//!
//! For each message type (error code) we build a *sub-type tree* over the
//! whitespace-tokenized detail texts: starting from the root (the code
//! itself), repeatedly attach children for the most frequent word at the
//! most discriminating position; a position whose split would create more
//! than `k` children is a *variable field* and is masked instead (this is
//! the paper's pruning rule — "if a parent node has more than k children,
//! discard all children", k = 10). Each root→leaf path becomes one
//! template: the message type plus the detail words with variable fields
//! replaced by `*`.
//!
//! Messages are bucketed by token count first; templates of the same
//! sub-type always render the same number of tokens (multi-token variables
//! like the CPU top-3 process list have a fixed token width), while
//! different sub-types of one code usually differ in length — exactly the
//! Table 3/4 situation.

use crate::set::{MaskTok, Template, TemplateSet};
use sd_model::{ErrorCode, RawMessage};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Tuning knobs for the learner.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LearnerConfig {
    /// Maximum children per tree node before the split position is
    /// declared variable and masked (paper: 10).
    pub k: usize,
    /// Per-code cap on messages used for learning; above this the code's
    /// messages are stride-sampled. Learning is frequency-based, so a few
    /// tens of thousands of instances saturate the signal.
    pub max_per_code: usize,
}

impl Default for LearnerConfig {
    fn default() -> Self {
        LearnerConfig {
            k: 10,
            max_per_code: 20_000,
        }
    }
}

/// Learn a [`TemplateSet`] from historical raw messages: one sub-type
/// tree per `(code, token count)` bucket, the trees' templates
/// concatenated in sorted bucket order and canonicalized by
/// [`TemplateSet::from_templates`].
pub fn learn(messages: &[RawMessage], config: &LearnerConfig) -> TemplateSet {
    // Bucket the borrowed details by (code, token count).
    let mut buckets: HashMap<(&str, usize), Vec<&str>> = HashMap::new();
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for m in messages {
        *counts.entry(m.code()).or_insert(0) += 1;
        let n_toks = m.detail().split_whitespace().count();
        buckets
            .entry((m.code(), n_toks))
            .or_default()
            .push(m.detail());
    }

    // Buckets in sorted key order, each stride-sampled to the per-code cap
    // and reduced to its distinct details.
    let mut keys: Vec<(&str, usize)> = buckets.keys().copied().collect();
    keys.sort();
    let mut out = Vec::new();
    for key in keys {
        let mut details = buckets.remove(&key).expect("bucket exists");
        let total_for_code = counts[key.0];
        if total_for_code > config.max_per_code {
            // Stride-sample to the cap, preserving time spread.
            let keep = (config.max_per_code * details.len() / total_for_code).max(64);
            if details.len() > keep {
                let stride = details.len() / keep;
                details = details.into_iter().step_by(stride.max(1)).collect();
            }
        }
        let msgs = distinct(details);
        let idx: Vec<usize> = (0..msgs.len()).collect();
        split_node(key.0, &msgs, idx, vec![None; key.1], config, &mut out);
    }
    TemplateSet::from_templates(out)
}

/// Each distinct detail of `details` once, in sorted order, tokenized,
/// with the number of times it occurs: routers repeat the same lines,
/// and the tree only counts words.
fn distinct(details: Vec<&str>) -> Vec<(Vec<&str>, usize)> {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for d in details {
        *counts.entry(d).or_insert(0) += 1;
    }
    let mut out: Vec<(&str, usize)> = counts.into_iter().collect();
    out.sort_unstable();
    out.into_iter()
        .map(|(d, n)| (d.split_whitespace().collect(), n))
        .collect()
}

/// Recursively split one tree node.
///
/// `pattern[p]` is `Some(word)` once position `p` is fixed on this path,
/// `Some("*")`-like masking is represented by fixing to `None`-but-masked —
/// we track masks in `pattern` as `Some(String::new())` would be ambiguous,
/// so masked positions are recorded in a parallel fashion: a position
/// masked on this path is fixed as `Some(MASK)`.
fn split_node(
    code: &str,
    msgs: &[(Vec<&str>, usize)],
    members: Vec<usize>,
    mut pattern: Vec<Option<String>>,
    config: &LearnerConfig,
    out: &mut Vec<Template>,
) {
    const MASK: &str = "\u{0}*";
    loop {
        // Find, over unfixed positions, the word frequencies.
        let len = pattern.len();
        let mut best: Option<(usize, usize, usize)> = None; // (pos, top_count, distinct)
        for p in 0..len {
            if pattern[p].is_some() {
                continue;
            }
            let mut freq: HashMap<&str, usize> = HashMap::new();
            for &mi in &members {
                let (toks, n) = &msgs[mi];
                *freq.entry(toks[p]).or_insert(0) += n;
            }
            let distinct = freq.len();
            let top = freq.values().copied().max().unwrap_or(0);
            let better = match best {
                None => true,
                Some((_, bt, _)) => top > bt,
            };
            if better {
                best = Some((p, top, distinct));
            }
        }
        let Some((pos, _top, distinct)) = best else {
            // All positions fixed: emit the template for this leaf.
            emit(code, &pattern, out, MASK);
            return;
        };

        if distinct > config.k {
            // Variable field: mask it and keep refining this node.
            pattern[pos] = Some(MASK.to_owned());
            continue;
        }
        if distinct == 1 {
            // Constant word everywhere: fix it and continue (single child).
            pattern[pos] = Some(msgs[members[0]].0[pos].to_owned());
            continue;
        }
        // 2..=k distinct words: create one child per word (BFS expansion).
        let mut groups: HashMap<&str, Vec<usize>> = HashMap::new();
        for &mi in &members {
            groups.entry(msgs[mi].0[pos]).or_default().push(mi);
        }
        let mut words: Vec<&str> = groups.keys().copied().collect();
        words.sort_unstable();
        for w in words {
            let child_members = groups.remove(w).expect("group exists");
            let mut child_pattern = pattern.clone();
            child_pattern[pos] = Some(w.to_owned());
            split_node(code, msgs, child_members, child_pattern, config, out);
        }
        return;
    }
}

fn emit(code: &str, pattern: &[Option<String>], out: &mut Vec<Template>, mask: &str) {
    let toks: Vec<MaskTok> = pattern
        .iter()
        .map(|p| match p.as_deref() {
            Some(w) if w == mask => MaskTok::Star,
            Some(w) => MaskTok::Word(w.to_owned()),
            None => MaskTok::Star,
        })
        .collect();
    out.push(Template {
        code: ErrorCode::from(code),
        toks,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_model::Timestamp;

    fn msg(code: &str, detail: &str) -> RawMessage {
        RawMessage::new(Timestamp(0), "r1", ErrorCode::from(code), detail)
    }

    /// The Table 3 → Table 4 example: 20 BGP messages collapse to 5
    /// sub-types with neighbor IP and VRF masked.
    #[test]
    fn bgp_table3_yields_five_subtypes() {
        let reasons = [
            ("Up", 4),
            ("Down Interface flap", 4),
            ("Down BGP Notification sent", 4),
            ("Down BGP Notification received", 4),
            ("Down Peer closed the session", 4),
        ];
        let mut msgs = Vec::new();
        let mut octet = 1u8;
        for (reason, n) in reasons {
            for i in 0..n {
                msgs.push(msg(
                    "BGP-5-ADJCHANGE",
                    &format!(
                        "neighbor 192.168.{octet}.{} vpn vrf 1000:100{i} {reason}",
                        (i + 1) * 13
                    ),
                ));
                octet += 1;
            }
        }
        // k below the 4 distinct values per var field forces masking.
        let set = learn(
            &msgs,
            &LearnerConfig {
                k: 3,
                max_per_code: 1000,
            },
        );
        let mut masked: Vec<String> = set.iter().map(|(_, t)| t.masked()).collect();
        masked.sort();
        assert_eq!(
            masked,
            vec![
                "BGP-5-ADJCHANGE neighbor * vpn vrf * Down BGP Notification received",
                "BGP-5-ADJCHANGE neighbor * vpn vrf * Down BGP Notification sent",
                "BGP-5-ADJCHANGE neighbor * vpn vrf * Down Interface flap",
                "BGP-5-ADJCHANGE neighbor * vpn vrf * Down Peer closed the session",
                "BGP-5-ADJCHANGE neighbor * vpn vrf * Up",
            ]
        );
    }

    #[test]
    fn link_updown_splits_on_state_not_interface() {
        let mut msgs = Vec::new();
        for i in 0..30 {
            for state in ["down", "up"] {
                msgs.push(msg(
                    "LINK-3-UPDOWN",
                    &format!("Interface Serial{i}/0.10/10:0, changed state to {state}"),
                ));
            }
        }
        let set = learn(&msgs, &LearnerConfig::default());
        let mut masked: Vec<String> = set.iter().map(|(_, t)| t.masked()).collect();
        masked.sort();
        assert_eq!(
            masked,
            vec![
                "LINK-3-UPDOWN Interface * changed state to down",
                "LINK-3-UPDOWN Interface * changed state to up",
            ]
        );
    }

    #[test]
    fn low_cardinality_variable_is_falsely_kept_as_paper_admits() {
        // Only 2 distinct interface values: indistinguishable from a real
        // sub-type split — the GigabitEthernet caveat of §4.1.1.
        let mut msgs = Vec::new();
        for _ in 0..10 {
            for ifc in ["GigabitEthernet1/0,", "GigabitEthernet2/0,"] {
                msgs.push(msg("X-1-Y", &format!("Interface {ifc} flapped")));
            }
        }
        let set = learn(&msgs, &LearnerConfig::default());
        assert_eq!(set.len(), 2, "expected a (harmless) spurious split");
    }

    #[test]
    fn different_lengths_are_distinct_templates() {
        let mut msgs = Vec::new();
        for i in 0..20 {
            msgs.push(msg("C-1-M", &format!("alpha beta value{i}")));
            msgs.push(msg("C-1-M", &format!("alpha beta value{i} gamma")));
        }
        let set = learn(&msgs, &LearnerConfig::default());
        let masked: Vec<String> = set.iter().map(|(_, t)| t.masked()).collect();
        assert!(masked.contains(&"C-1-M alpha beta *".to_owned()));
        assert!(masked.contains(&"C-1-M alpha beta * gamma".to_owned()));
    }

    #[test]
    fn empty_input_learns_nothing() {
        let set = learn(&[], &LearnerConfig::default());
        assert_eq!(set.len(), 0);
    }

    #[test]
    fn sampling_cap_still_learns_the_template() {
        let mut msgs = Vec::new();
        for i in 0..5000 {
            msgs.push(msg(
                "L-2-M",
                &format!("link {i} status degraded code {}", i % 977),
            ));
        }
        let set = learn(
            &msgs,
            &LearnerConfig {
                k: 10,
                max_per_code: 500,
            },
        );
        let masked: Vec<String> = set.iter().map(|(_, t)| t.masked()).collect();
        assert_eq!(
            masked,
            vec!["L-2-M link * status degraded code *".to_owned()]
        );
    }
}
