//! Rule extraction from co-occurrence counts, and the rule set the online
//! grouper queries.

use crate::transactions::CoOccurrence;
use sd_model::{FxHashSet, TemplateId};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A directed pairwise association rule `x ⇒ y` (§4.1.4: `|X| = |Y| = 1`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// Antecedent template.
    pub x: TemplateId,
    /// Consequent template.
    pub y: TemplateId,
    /// `supp(x)` at mining time.
    pub support: f64,
    /// `conf(x ⇒ y)` at mining time.
    pub confidence: f64,
}

/// Mining thresholds (Table 6: `SPmin = 0.0005`, `Confmin = 0.8`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MineConfig {
    /// Minimum single-item support for a template to participate.
    pub sp_min: f64,
    /// Minimum rule confidence.
    pub conf_min: f64,
}

impl Default for MineConfig {
    fn default() -> Self {
        MineConfig {
            sp_min: 0.0005,
            conf_min: 0.8,
        }
    }
}

/// A queryable set of rules. Direction is kept for bookkeeping but the
/// grouper's `related` query is undirected (§4.2.2 ignores direction).
/// The lookup holds learned template pairs only, so it is Fx-hashed.
///
/// The partner index serves the rule stage: every template related to
/// some *other* template gets a dense slot, in template-id order, and each
/// slot lists its partners' slots in ascending order. Self-pairs `x ⇒ x`
/// give no partner, because the stage never links a template to itself.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RuleSet {
    rules: Vec<Rule>,
    #[serde(skip)]
    undirected: FxHashSet<(u32, u32)>,
    /// Template id per slot, ascending; a template's slot is its position.
    #[serde(skip)]
    slot_template: Vec<u32>,
    /// `(slot, template)` of each partner per slot, ascending.
    #[serde(skip)]
    partners: Vec<Vec<(u32, TemplateId)>>,
}

impl RuleSet {
    /// Build from rules.
    pub fn new(rules: Vec<Rule>) -> Self {
        let mut s = RuleSet {
            rules,
            ..RuleSet::default()
        };
        s.rebuild_index();
        s
    }

    /// Rebuild the undirected lookup and the partner index (after
    /// deserialization).
    pub fn rebuild_index(&mut self) {
        self.undirected = self
            .rules
            .iter()
            .map(|r| (r.x.0.min(r.y.0), r.x.0.max(r.y.0)))
            .collect();
        let mut pairs: Vec<(u32, u32)> = self
            .undirected
            .iter()
            .filter(|&&(a, b)| a != b)
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .collect();
        pairs.sort_unstable();
        self.slot_template = pairs.iter().map(|&(a, _)| a).collect();
        self.slot_template.dedup();
        let slots = &self.slot_template;
        let slot = |t: u32| slots.binary_search(&t).expect("paired");
        let mut partners = vec![Vec::new(); slots.len()];
        for &(a, b) in &pairs {
            partners[slot(a)].push((slot(b) as u32, TemplateId(b)));
        }
        self.partners = partners;
    }

    /// All rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Whether templates `a` and `b` are associated (either direction).
    pub fn related(&self, a: TemplateId, b: TemplateId) -> bool {
        self.undirected.contains(&(a.0.min(b.0), a.0.max(b.0)))
    }

    /// Number of partner slots: templates related to another template.
    pub fn n_slots(&self) -> usize {
        self.slot_template.len()
    }

    /// The partner slot of template `t`, if `t` is related to a template
    /// other than itself.
    pub fn slot(&self, t: TemplateId) -> Option<usize> {
        self.slot_template.binary_search(&t.0).ok()
    }

    /// The `(slot, template)` of each template related to the template in
    /// `slot` (itself excluded), ascending.
    pub fn partners(&self, slot: usize) -> &[(u32, TemplateId)] {
        &self.partners[slot]
    }
}

/// Extract rules from counted co-occurrence: both items must clear
/// `sp_min` (Table 5: SPmin selects the "top %" of message types used in
/// mining) and the rule must clear `conf_min`.
pub fn mine(co: &CoOccurrence, cfg: &MineConfig) -> RuleSet {
    let mut eligible: Vec<u32> = co
        .item_counts
        .iter()
        .filter(|(_, &c)| {
            co.n_transactions > 0 && c as f64 / co.n_transactions as f64 >= cfg.sp_min
        })
        .map(|(&t, _)| t)
        .collect();
    eligible.sort_unstable();
    let eligible_set: HashSet<u32> = eligible.iter().copied().collect();

    let mut rules = Vec::new();
    for (&(a, b), _) in co.pair_counts.iter() {
        if !eligible_set.contains(&a) || !eligible_set.contains(&b) {
            continue;
        }
        for (x, y) in [(a, b), (b, a)] {
            let (x, y) = (TemplateId(x), TemplateId(y));
            if let Some(conf) = co.confidence(x, y) {
                if conf >= cfg.conf_min {
                    rules.push(Rule {
                        x,
                        y,
                        support: co.support(x),
                        confidence: conf,
                    });
                }
            }
        }
    }
    rules.sort_by(|p, q| p.x.cmp(&q.x).then(p.y.cmp(&q.y)));
    RuleSet::new(rules)
}

/// The Table 5 statistic for one `sp_min`: `(fraction of message types
/// eligible, fraction of messages covered by eligible types)`.
///
/// `type_counts` are raw per-template *message* counts (not transaction
/// counts); eligibility still uses transaction support.
pub fn coverage(
    co: &CoOccurrence,
    type_counts: &std::collections::HashMap<u32, u64>,
    sp_min: f64,
) -> (f64, f64) {
    if co.n_transactions == 0 || type_counts.is_empty() {
        return (0.0, 0.0);
    }
    let total_msgs: u64 = type_counts.values().sum();
    let mut eligible_types = 0usize;
    let mut covered = 0u64;
    for (&t, &msgs) in type_counts {
        let supp = *co.item_counts.get(&t).unwrap_or(&0) as f64 / co.n_transactions as f64;
        if supp >= sp_min {
            eligible_types += 1;
            covered += msgs;
        }
    }
    (
        eligible_types as f64 / type_counts.len() as f64,
        covered as f64 / total_msgs as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transactions::StreamItem;
    use sd_model::{Parallelism, RouterId, Timestamp};

    fn stream_pairs() -> Vec<StreamItem> {
        let mut stream = Vec::new();
        for i in 0..200 {
            stream.push((Timestamp(i * 100), RouterId(0), TemplateId(1)));
            stream.push((Timestamp(i * 100 + 3), RouterId(0), TemplateId(2)));
            if i % 4 == 0 {
                // Template 3: occasionally precedes 1 closely, so windows
                // anchored at 3 almost always contain 1 (conf(3 => 1) ~ 1)
                // while conf(1 => 3) stays low.
                stream.push((Timestamp(i * 100 - 4), RouterId(0), TemplateId(3)));
            }
        }
        stream.sort_by_key(|&(ts, _, _)| ts);
        stream
    }

    #[test]
    fn mines_the_reliable_pair_only() {
        let co = CoOccurrence::count(&stream_pairs(), 10, Parallelism::sequential());
        let rs = mine(
            &co,
            &MineConfig {
                sp_min: 0.001,
                conf_min: 0.8,
            },
        );
        assert!(rs.related(TemplateId(1), TemplateId(2)));
        // 3 => 1 has high confidence (every 3 closely precedes a 1), but
        // 1 => 3 does not; undirected relatedness still holds.
        assert!(rs.related(TemplateId(1), TemplateId(3)));
        let directed: Vec<(u32, u32)> = rs.rules().iter().map(|r| (r.x.0, r.y.0)).collect();
        assert!(directed.contains(&(3, 1)));
        assert!(!directed.contains(&(1, 3)));
    }

    #[test]
    fn conf_min_prunes() {
        let co = CoOccurrence::count(&stream_pairs(), 10, Parallelism::sequential());
        let loose = mine(
            &co,
            &MineConfig {
                sp_min: 0.001,
                conf_min: 0.5,
            },
        );
        let strict = mine(
            &co,
            &MineConfig {
                sp_min: 0.001,
                conf_min: 0.99,
            },
        );
        assert!(strict.len() < loose.len());
    }

    #[test]
    fn sp_min_excludes_rare_items() {
        let co = CoOccurrence::count(&stream_pairs(), 10, Parallelism::sequential());
        // Template 3 appears in ~1/9 of transactions; a high SPmin excludes it.
        let rs = mine(
            &co,
            &MineConfig {
                sp_min: 0.5,
                conf_min: 0.8,
            },
        );
        assert!(!rs.related(TemplateId(1), TemplateId(3)));
    }

    #[test]
    fn coverage_shrinks_with_higher_sp_min() {
        let co = CoOccurrence::count(&stream_pairs(), 10, Parallelism::sequential());
        let mut counts = std::collections::HashMap::new();
        counts.insert(1u32, 200u64);
        counts.insert(2u32, 200u64);
        counts.insert(3u32, 50u64);
        let (top_lo, cov_lo) = coverage(&co, &counts, 0.001);
        let (top_hi, cov_hi) = coverage(&co, &counts, 0.5);
        assert!(top_lo >= top_hi);
        assert!(cov_lo >= cov_hi);
        assert!((cov_lo - 1.0).abs() < 1e-9);
        assert!((top_lo - 1.0).abs() < 1e-9);
    }

    #[test]
    fn serde_roundtrip_restores_relatedness() {
        let co = CoOccurrence::count(&stream_pairs(), 10, Parallelism::sequential());
        let rs = mine(&co, &MineConfig::default());
        let json = serde_json::to_string(&rs).unwrap();
        let mut back: RuleSet = serde_json::from_str(&json).unwrap();
        back.rebuild_index();
        assert!(back.related(TemplateId(1), TemplateId(2)));
    }

    fn rule(x: u32, y: u32) -> Rule {
        Rule {
            x: TemplateId(x),
            y: TemplateId(y),
            support: 0.5,
            confidence: 0.9,
        }
    }

    #[test]
    fn partner_index_skips_self_pairs_and_partnerless_templates() {
        // 7 ⇒ 7 alone gives 7 no partner; 2 ⇔ 9 counts once.
        let rs = RuleSet::new(vec![
            rule(9, 2),
            rule(2, 9),
            rule(7, 7),
            rule(2, 5),
            rule(5, 5),
        ]);
        assert!(rs.related(TemplateId(7), TemplateId(7)));
        assert_eq!(rs.n_slots(), 3);
        let slot = |t: u32| rs.slot(TemplateId(t));
        assert_eq!([slot(2), slot(5), slot(9)], [Some(0), Some(1), Some(2)]);
        assert_eq!(slot(7), None);
        assert_eq!(slot(100), None);
        let partners = |t: u32| -> Vec<(u32, u32)> {
            rs.partners(slot(t).unwrap())
                .iter()
                .map(|&(s, t2)| (s, t2.0))
                .collect()
        };
        assert_eq!(partners(2), [(1, 5), (2, 9)]);
        assert_eq!(partners(5), [(0, 2)]);
        assert_eq!(partners(9), [(0, 2)]);
        // Deserialization leaves the index empty until it is rebuilt.
        let mut back: RuleSet = serde_json::from_str(&serde_json::to_string(&rs).unwrap()).unwrap();
        assert_eq!(back.n_slots(), 0);
        back.rebuild_index();
        assert_eq!(back.slot(TemplateId(9)), rs.slot(TemplateId(9)));
        assert_eq!(back.partners(0), rs.partners(0));
    }

    #[test]
    fn partner_index_takes_the_unknown_template_without_a_dense_table() {
        // A weekly refresh mines with the old knowledge, so a code new that
        // week is `u32::MAX` and can end up in a rule.
        let rs = RuleSet::new(vec![rule(u32::MAX, 1), rule(1, 3)]);
        assert_eq!(rs.n_slots(), 3);
        let s = rs.slot(TemplateId(u32::MAX)).unwrap();
        assert_eq!(rs.partners(s), [(0, TemplateId(1))]);
        let one = rs.slot(TemplateId(1)).unwrap();
        assert_eq!(
            rs.partners(one),
            [(1, TemplateId(3)), (2, TemplateId(u32::MAX))]
        );
        assert_eq!(rs.slot(TemplateId(2)), None);
    }

    #[test]
    fn empty_counts_produce_no_rules() {
        let rs = mine(&CoOccurrence::default(), &MineConfig::default());
        assert!(rs.is_empty());
        assert!(!rs.related(TemplateId(0), TemplateId(1)));
    }
}
