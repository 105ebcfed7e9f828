//! Reference template learning and matching (§4.1.1), written as a plain
//! recursive tree construction over owned strings — no span indexes, no
//! distinct-detail counting, no borrowed-key maps.
//!
//! §4.1.1 builds, per message type, a *sub-type tree* over the
//! whitespace-tokenized detail texts: repeatedly pick the most frequent
//! word at the most discriminating position; if fixing it would create
//! more than `k` children the position is a variable field and is masked
//! (the paper's pruning rule, k = 10); each root→leaf path is one
//! template.
//!
//! Semantics pinned here (asserted against `sd_templates::learn` by the
//! differential suite):
//!
//! * messages are bucketed by `(code, token count)` — sub-types of one
//!   code with different token counts are distinct templates;
//! * the split position is the one with the strictly greatest top-word
//!   count; the **earliest** position wins ties;
//! * a position with more than `k` distinct words is masked, with exactly
//!   `k` distinct words it is split (the `k`/`k+1` boundary);
//! * a position with one distinct word is fixed as a constant;
//! * child subtrees are expanded in sorted word order;
//! * codes above `max_per_code` training messages are stride-sampled per
//!   bucket with the same arithmetic the production learner uses (the
//!   sample *is* part of the learning contract — a different sample could
//!   legitimately learn different templates).

use sd_model::{ErrorCode, RawMessage, TemplateId};
use sd_templates::{LearnerConfig, TemplateSet};
use std::collections::BTreeMap;

/// One position of a partially built template path.
#[derive(Clone)]
enum Field {
    /// Not yet decided.
    Open,
    /// Declared a variable field (more than `k` distinct words).
    Mask,
    /// Fixed to a literal word on this path.
    Word(String),
}

/// Learn templates from historical messages; returns the sorted,
/// deduplicated masked strings (`<code> w1 * w3 …`), the canonical form
/// [`TemplateSet`] also exposes via `masked()`.
pub fn ref_learn(messages: &[RawMessage], cfg: &LearnerConfig) -> Vec<String> {
    // Bucket detail token-vectors by (code, token count); count per code.
    let mut buckets: BTreeMap<(ErrorCode, usize), Vec<Vec<String>>> = BTreeMap::new();
    let mut counts: BTreeMap<ErrorCode, usize> = BTreeMap::new();
    for m in messages {
        let toks: Vec<String> = m.detail().split_whitespace().map(str::to_owned).collect();
        *counts.entry(ErrorCode::from(m.code())).or_insert(0) += 1;
        buckets
            .entry((ErrorCode::from(m.code()), toks.len()))
            .or_default()
            .push(toks);
    }

    let mut out = Vec::new();
    for ((code, width), mut rows) in buckets {
        let total_for_code = counts[&code];
        if total_for_code > cfg.max_per_code {
            // Same stride-sampling arithmetic as the production learner:
            // the sample is part of the contract.
            let keep = (cfg.max_per_code * rows.len() / total_for_code).max(64);
            if rows.len() > keep {
                let stride = rows.len() / keep;
                rows = rows.into_iter().step_by(stride.max(1)).collect();
            }
        }
        let members: Vec<usize> = (0..rows.len()).collect();
        build(
            &code,
            &rows,
            members,
            vec![Field::Open; width],
            cfg.k,
            &mut out,
        );
    }
    out.sort();
    out.dedup();
    out
}

/// Refine one tree node until it either emits a leaf or fans out.
fn build(
    code: &ErrorCode,
    rows: &[Vec<String>],
    members: Vec<usize>,
    mut fields: Vec<Field>,
    k: usize,
    out: &mut Vec<String>,
) {
    loop {
        // Word frequencies at every open position.
        let mut best: Option<(usize, usize, usize)> = None; // (pos, top, distinct)
        for (p, f) in fields.iter().enumerate() {
            if !matches!(f, Field::Open) {
                continue;
            }
            let mut freq: BTreeMap<&str, usize> = BTreeMap::new();
            for &mi in &members {
                *freq.entry(rows[mi][p].as_str()).or_insert(0) += 1;
            }
            let top = freq.values().copied().max().unwrap_or(0);
            // Strictly greater only: the earliest position wins ties.
            if best.is_none_or(|(_, bt, _)| top > bt) {
                best = Some((p, top, freq.len()));
            }
        }
        let Some((pos, _, distinct)) = best else {
            out.push(render(code, &fields));
            return;
        };
        if distinct > k {
            fields[pos] = Field::Mask;
        } else if distinct == 1 {
            fields[pos] = Field::Word(rows[members[0]][pos].clone());
        } else {
            // 2..=k distinct words: one child per word, sorted order.
            let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
            for &mi in &members {
                groups.entry(rows[mi][pos].as_str()).or_default().push(mi);
            }
            for (word, child_members) in groups {
                let mut child = fields.clone();
                child[pos] = Field::Word(word.to_owned());
                build(code, rows, child_members, child, k, out);
            }
            return;
        }
    }
}

fn render(code: &ErrorCode, fields: &[Field]) -> String {
    let mut s = String::from(code.as_str());
    for f in fields {
        s.push(' ');
        match f {
            Field::Word(w) => s.push_str(w),
            Field::Open | Field::Mask => s.push('*'),
        }
    }
    s
}

/// Match one message against a learned [`TemplateSet`] by scanning every
/// template: among matches of the right code, the **most specific** (most
/// fixed words) wins, and the lowest id breaks specificity ties — the
/// tie-break the production index's stable specificity sort implements.
pub fn ref_match(set: &TemplateSet, code: &str, detail: &str) -> Option<TemplateId> {
    let toks: Vec<&str> = detail.split_whitespace().collect();
    let mut best: Option<(usize, TemplateId)> = None;
    for (id, t) in set.iter() {
        if t.code.as_str() != code || !t.matches(&toks) {
            continue;
        }
        let spec = t.specificity();
        // Strictly greater only: earlier (lower) ids win ties.
        if best.is_none_or(|(bs, _)| spec > bs) {
            best = Some((spec, id));
        }
    }
    best.map(|(_, id)| id)
}

/// Resolve a template id the way `DomainKnowledge::resolve_template` does,
/// but through [`ref_match`]: learned template, else the per-code fallback
/// pseudo-template, else `UNKNOWN_TEMPLATE`.
pub(crate) fn ref_resolve(
    k: &syslogdigest::DomainKnowledge,
    code: &str,
    detail: &str,
) -> TemplateId {
    if let Some(t) = ref_match(&k.templates, code, detail) {
        return t;
    }
    match k.fallback_codes.get(code) {
        Some(i) => TemplateId(k.templates.len() as u32 + i),
        None => syslogdigest::UNKNOWN_TEMPLATE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_model::Timestamp;

    fn msg(code: &str, detail: &str) -> RawMessage {
        RawMessage::new(Timestamp(0), "r1", ErrorCode::from(code), detail)
    }

    #[test]
    fn learns_the_link_updown_subtypes() {
        let mut msgs = Vec::new();
        for i in 0..30 {
            for state in ["down", "up"] {
                msgs.push(msg(
                    "LINK-3-UPDOWN",
                    &format!("Interface Serial{i}/0, changed state to {state}"),
                ));
            }
        }
        let learned = ref_learn(&msgs, &LearnerConfig::default());
        assert_eq!(
            learned,
            vec![
                "LINK-3-UPDOWN Interface * changed state to down".to_owned(),
                "LINK-3-UPDOWN Interface * changed state to up".to_owned(),
            ]
        );
    }

    #[test]
    fn scan_matcher_prefers_specific_then_low_id() {
        use sd_templates::{MaskTok, Template};
        let t = |pat: &str| Template {
            code: ErrorCode::from("C-1-M"),
            toks: pat
                .split_whitespace()
                .map(|w| {
                    if w == "*" {
                        MaskTok::Star
                    } else {
                        MaskTok::Word(w.to_owned())
                    }
                })
                .collect(),
        };
        let set = TemplateSet::from_templates(vec![t("a * c"), t("a b c"), t("* b c")]);
        let hit = ref_match(&set, "C-1-M", "a b c").unwrap();
        assert_eq!(set.get(hit).masked(), "C-1-M a b c");
        // Two 2-specific candidates match "a x c" → only "a * c" does.
        let hit = ref_match(&set, "C-1-M", "a x c").unwrap();
        assert_eq!(set.get(hit).masked(), "C-1-M a * c");
    }
}
