//! Learned template sets and the online matcher (the "Signature Matching"
//! boxes of Figure 1).

use sd_model::{ErrorCode, FxHashMap, RawMessage, TemplateId, TokenScratch};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One token of a learned template: a fixed word or a masked variable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaskTok {
    /// A literal word that must match exactly.
    Word(String),
    /// A variable position matching any single token.
    Star,
}

/// A learned template: error code plus masked detail tokens.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Template {
    /// The message type.
    pub code: ErrorCode,
    /// Detail pattern; length equals the detail token count it matches.
    pub toks: Vec<MaskTok>,
}

impl Template {
    /// `<code> w1 * w3 …` display form (comparable with the generator's
    /// ground-truth masked strings).
    pub fn masked(&self) -> String {
        let mut s = String::with_capacity(64);
        s.push_str(self.code.as_str());
        for t in &self.toks {
            s.push(' ');
            match t {
                MaskTok::Word(w) => s.push_str(w),
                MaskTok::Star => s.push('*'),
            }
        }
        s
    }

    /// Number of fixed (non-star) tokens — the match-specificity rank.
    pub fn specificity(&self) -> usize {
        self.toks
            .iter()
            .filter(|t| matches!(t, MaskTok::Word(_)))
            .count()
    }

    /// Whether `detail_toks` matches this template.
    pub fn matches(&self, detail_toks: &[&str]) -> bool {
        self.toks.len() == detail_toks.len()
            && self.toks.iter().zip(detail_toks).all(|(t, d)| match t {
                MaskTok::Word(w) => w == d,
                MaskTok::Star => true,
            })
    }

    /// The values at the star positions of a matching detail.
    pub fn extract_vars<'d>(&self, detail_toks: &[&'d str]) -> Vec<&'d str> {
        self.toks
            .iter()
            .zip(detail_toks)
            .filter_map(|(t, d)| matches!(t, MaskTok::Star).then_some(*d))
            .collect()
    }

    /// [`Template::matches`] against tokens given as byte spans of
    /// `detail` (see [`TokenScratch`]) — no token vector required.
    pub fn matches_spans(&self, detail: &str, spans: &[(u32, u32)]) -> bool {
        self.toks.len() == spans.len()
            && self.toks.iter().zip(spans).all(|(t, &(a, b))| match t {
                MaskTok::Word(w) => w == &detail[a as usize..b as usize],
                MaskTok::Star => true,
            })
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.masked())
    }
}

/// A set of learned templates with an id space and a two-level
/// code → token-count index for O(candidates) matching. The outer level is
/// keyed by the code *string* so lookups borrow the incoming message's
/// code (`index.get(code.as_str())`) instead of cloning an [`ErrorCode`]
/// per probe. The index is keyed by learned data only, so it is
/// Fx-hashed (see `sd_model::fxhash`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(from = "TemplateSetData")]
pub struct TemplateSet {
    templates: Vec<Template>,
    #[serde(skip)]
    index: FxHashMap<String, FxHashMap<usize, Vec<u32>>>,
}

/// Serialized form of [`TemplateSet`]; deserializing converts through this
/// so the match index is rebuilt automatically.
#[derive(Deserialize)]
struct TemplateSetData {
    templates: Vec<Template>,
}

impl From<TemplateSetData> for TemplateSet {
    fn from(data: TemplateSetData) -> Self {
        let mut set = TemplateSet {
            templates: data.templates,
            index: FxHashMap::default(),
        };
        set.rebuild_index();
        set
    }
}

impl TemplateSet {
    /// Build from learned templates, deduplicating identical patterns.
    pub fn from_templates(mut templates: Vec<Template>) -> Self {
        templates.sort_by(|a, b| {
            a.code
                .cmp(&b.code)
                .then_with(|| a.masked().cmp(&b.masked()))
        });
        templates.dedup();
        let mut set = TemplateSet {
            templates,
            index: FxHashMap::default(),
        };
        set.rebuild_index();
        set
    }

    /// Rebuild the lookup index. Deserialization already does this;
    /// calling it again is harmless (kept for compatibility with callers
    /// written against the old manual-rebuild contract).
    pub fn rebuild_index(&mut self) {
        self.index.clear();
        for (i, t) in self.templates.iter().enumerate() {
            self.index
                .entry(t.code.as_str().to_owned())
                .or_default()
                .entry(t.toks.len())
                .or_default()
                .push(i as u32);
        }
        // Most specific candidates first, so the first match wins.
        let templates = &self.templates;
        for by_len in self.index.values_mut() {
            for cands in by_len.values_mut() {
                cands.sort_by_key(|&i| std::cmp::Reverse(templates[i as usize].specificity()));
            }
        }
    }

    /// Number of templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// Iterate `(id, template)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TemplateId, &Template)> {
        self.templates
            .iter()
            .enumerate()
            .map(|(i, t)| (TemplateId(i as u32), t))
    }

    /// The template for `id` (panics on a foreign id).
    pub fn get(&self, id: TemplateId) -> &Template {
        &self.templates[id.0 as usize]
    }

    /// Match a message against the set, returning the most specific
    /// matching template.
    pub fn match_message(&self, m: &RawMessage) -> Option<TemplateId> {
        let mut toks = TokenScratch::new();
        toks.tokenize(&m.detail);
        self.match_tokens(&m.code, &m.detail, &toks)
    }

    /// Match `(code, detail tokens)` against the set.
    pub fn match_detail(&self, code: &ErrorCode, toks: &[&str]) -> Option<TemplateId> {
        let cands = self.index.get(code.as_str())?.get(&toks.len())?;
        cands
            .iter()
            .find(|&&i| self.templates[i as usize].matches(toks))
            .map(|&i| TemplateId(i))
    }

    /// Allocation-free variant of [`TemplateSet::match_detail`]: matches
    /// via the byte spans of `toks`, which the caller has already filled
    /// by tokenizing `detail` (the same spans serve location extraction).
    pub fn match_tokens(
        &self,
        code: &ErrorCode,
        detail: &str,
        toks: &TokenScratch,
    ) -> Option<TemplateId> {
        let cands = self.index.get(code.as_str())?.get(&toks.len())?;
        cands
            .iter()
            .find(|&&i| self.templates[i as usize].matches_spans(detail, toks.spans()))
            .map(|&i| TemplateId(i))
    }

    /// Set-level accuracy against a ground-truth masked-string set:
    /// the fraction of ground-truth templates reproduced exactly
    /// (the §5.2.1 "94 % of message templates match" metric). Only
    /// ground-truth entries whose code appears in the learned set are
    /// counted (templates never emitted cannot be learned).
    pub fn accuracy_against(&self, ground_truth: &[String]) -> f64 {
        let learned: std::collections::HashSet<String> =
            self.iter().map(|(_, t)| t.masked()).collect();
        let seen_codes: std::collections::HashSet<&str> =
            self.templates.iter().map(|t| t.code.as_str()).collect();
        let relevant: Vec<&String> = ground_truth
            .iter()
            .filter(|g| {
                g.split_whitespace()
                    .next()
                    .is_some_and(|c| seen_codes.contains(c))
            })
            .collect();
        if relevant.is_empty() {
            return 0.0;
        }
        let hit = relevant.iter().filter(|g| learned.contains(**g)).count();
        hit as f64 / relevant.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_model::Timestamp;

    fn set_of(patterns: &[(&str, &str)]) -> TemplateSet {
        let templates = patterns
            .iter()
            .map(|(code, pat)| Template {
                code: ErrorCode::from(*code),
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
            })
            .collect();
        TemplateSet::from_templates(templates)
    }

    #[test]
    fn matching_picks_most_specific() {
        let set = set_of(&[
            ("C-1-M", "status * changed"),
            ("C-1-M", "status error changed"),
        ]);
        let m = RawMessage::new(
            Timestamp(0),
            "r1",
            ErrorCode::from("C-1-M"),
            "status error changed",
        );
        let id = set.match_message(&m).unwrap();
        assert_eq!(set.get(id).masked(), "C-1-M status error changed");
        let m2 = RawMessage::new(
            Timestamp(0),
            "r1",
            ErrorCode::from("C-1-M"),
            "status warn changed",
        );
        let id2 = set.match_message(&m2).unwrap();
        assert_eq!(set.get(id2).masked(), "C-1-M status * changed");
    }

    #[test]
    fn no_match_on_unknown_code_or_wrong_shape() {
        let set = set_of(&[("C-1-M", "a * c")]);
        let wrong_code = RawMessage::new(Timestamp(0), "r", ErrorCode::from("X-1-Y"), "a b c");
        assert!(set.match_message(&wrong_code).is_none());
        let wrong_len = RawMessage::new(Timestamp(0), "r", ErrorCode::from("C-1-M"), "a b");
        assert!(set.match_message(&wrong_len).is_none());
        let wrong_word = RawMessage::new(Timestamp(0), "r", ErrorCode::from("C-1-M"), "a b d");
        assert!(set.match_message(&wrong_word).is_none());
    }

    #[test]
    fn extract_vars_returns_star_values() {
        let set = set_of(&[("C-1-M", "iface * state *")]);
        let (_, t) = set.iter().next().unwrap();
        let toks = vec!["iface", "Serial1/0,", "state", "down"];
        assert_eq!(t.extract_vars(&toks), vec!["Serial1/0,", "down"]);
    }

    #[test]
    fn dedup_on_build() {
        let set = set_of(&[("C-1-M", "a * c"), ("C-1-M", "a * c")]);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn serde_roundtrip_rebuilds_index_automatically() {
        let set = set_of(&[("C-1-M", "a * c"), ("D-2-N", "x y *")]);
        let json = serde_json::to_string(&set).unwrap();
        // No manual rebuild_index(): deserialization restores the index.
        let back: TemplateSet = serde_json::from_str(&json).unwrap();
        let m = RawMessage::new(Timestamp(0), "r", ErrorCode::from("D-2-N"), "x y 9");
        assert!(back.match_message(&m).is_some());
    }

    #[test]
    fn span_matching_agrees_with_token_matching() {
        let set = set_of(&[
            ("C-1-M", "status * changed"),
            ("C-1-M", "status error changed"),
            ("D-2-N", "x y *"),
        ]);
        let mut scratch = TokenScratch::new();
        for (code, detail) in [
            ("C-1-M", "status error changed"),
            ("C-1-M", "status warn changed"),
            ("C-1-M", "status  warn\tchanged"), // odd whitespace
            ("C-1-M", "status warn"),
            ("D-2-N", "x y anything"),
            ("E-0-Z", "x y anything"),
        ] {
            let code = ErrorCode::from(code);
            let toks: Vec<&str> = detail.split_whitespace().collect();
            scratch.tokenize(detail);
            assert_eq!(
                set.match_tokens(&code, detail, &scratch),
                set.match_detail(&code, &toks),
                "code {code:?} detail {detail:?}"
            );
        }
    }

    #[test]
    fn accuracy_counts_only_seen_codes() {
        let set = set_of(&[("C-1-M", "a * c")]);
        let gt = vec![
            "C-1-M a * c".to_owned(),        // hit
            "C-1-M a * d".to_owned(),        // miss (same code)
            "NEVER-1-SEEN x y z".to_owned(), // excluded: code never learned
        ];
        let acc = set.accuracy_against(&gt);
        assert!((acc - 0.5).abs() < 1e-9, "acc {acc}");
    }
}
