//! Weekly incremental rule maintenance (§4.1.4, Figures 8–9).
//!
//! Each week the rule base is re-evaluated against that week's
//! co-occurrence counts: new qualifying rules are **added**; an existing
//! rule is **deleted** only when its updated confidence falls below the
//! threshold *while its antecedent actually occurred* — the paper's
//! conservative deletion ("we do not delete the rules because X are not
//! common in this updating period").

use crate::mine::{mine, MineConfig, Rule, RuleSet};
use crate::transactions::CoOccurrence;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-week update statistics (the Figure 8/9 series).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateStats {
    /// Rules added this week.
    pub added: usize,
    /// Rules deleted this week.
    pub deleted: usize,
    /// Total rules after the update.
    pub total: usize,
}

/// The evolving rule knowledge base.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RuleBase {
    rules: HashMap<(u32, u32), Rule>,
}

impl RuleBase {
    /// An empty base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rules currently held.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the base is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Apply one week's counts.
    pub fn update(&mut self, co: &CoOccurrence, cfg: &MineConfig) -> UpdateStats {
        let fresh = mine(co, cfg);
        let mut added = 0usize;
        for r in fresh.rules() {
            let key = (r.x.0, r.y.0);
            if !self.rules.contains_key(&key) {
                added += 1;
            }
            // Insert or refresh the stored support/confidence.
            self.rules.insert(key, r.clone());
        }
        // Conservative deletion.
        let mut to_delete = Vec::new();
        for (key, r) in &self.rules {
            match co.confidence(r.x, r.y) {
                Some(conf) if conf < cfg.conf_min => to_delete.push(*key),
                // Antecedent absent this week (None): keep — can't judge.
                _ => {}
            }
        }
        let deleted = to_delete.len();
        for k in to_delete {
            self.rules.remove(&k);
        }
        UpdateStats {
            added,
            deleted,
            total: self.rules.len(),
        }
    }

    /// Snapshot the current rules as a queryable [`RuleSet`].
    pub fn snapshot(&self) -> RuleSet {
        let mut rules: Vec<Rule> = self.rules.values().cloned().collect();
        rules.sort_by(|p, q| p.x.cmp(&q.x).then(p.y.cmp(&q.y)));
        RuleSet::new(rules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transactions::StreamItem;
    use sd_model::{Parallelism, RouterId, TemplateId, Timestamp};

    fn correlated_week(base: i64) -> Vec<StreamItem> {
        let mut s = Vec::new();
        for i in 0..200 {
            s.push((Timestamp(base + i * 100), RouterId(0), TemplateId(1)));
            s.push((Timestamp(base + i * 100 + 3), RouterId(0), TemplateId(2)));
        }
        s
    }

    fn decorrelated_week(base: i64) -> Vec<StreamItem> {
        let mut s = Vec::new();
        for i in 0..200 {
            s.push((Timestamp(base + i * 100), RouterId(0), TemplateId(1)));
            // Template 2 now far from template 1.
            s.push((Timestamp(base + i * 100 + 50), RouterId(0), TemplateId(2)));
        }
        s
    }

    fn without_antecedent(base: i64) -> Vec<StreamItem> {
        (0..200)
            .map(|i| (Timestamp(base + i * 100), RouterId(0), TemplateId(9)))
            .collect()
    }

    const CFG: MineConfig = MineConfig {
        sp_min: 0.001,
        conf_min: 0.8,
    };

    #[test]
    fn add_then_stable_then_delete() {
        let mut base = RuleBase::new();
        let w1 = base.update(
            &CoOccurrence::count(&correlated_week(0), 10, Parallelism::sequential()),
            &CFG,
        );
        assert!(w1.added >= 1, "{w1:?}"); // 1 => 2 qualifies (2 => 1 is at conf 0.5)
        assert_eq!(w1.deleted, 0);

        let w2 = base.update(
            &CoOccurrence::count(&correlated_week(1_000_000), 10, Parallelism::sequential()),
            &CFG,
        );
        assert_eq!(w2.added, 0, "{w2:?}");
        assert_eq!(w2.deleted, 0);
        assert_eq!(w2.total, w1.total);

        let w3 = base.update(
            &CoOccurrence::count(&decorrelated_week(2_000_000), 10, Parallelism::sequential()),
            &CFG,
        );
        assert!(w3.deleted >= 1, "{w3:?}");
        assert_eq!(w3.total, 0);
    }

    #[test]
    fn conservative_deletion_keeps_rules_when_antecedent_absent() {
        let mut base = RuleBase::new();
        base.update(
            &CoOccurrence::count(&correlated_week(0), 10, Parallelism::sequential()),
            &CFG,
        );
        let before = base.len();
        let w = base.update(
            &CoOccurrence::count(
                &without_antecedent(1_000_000),
                10,
                Parallelism::sequential(),
            ),
            &CFG,
        );
        assert_eq!(w.deleted, 0, "{w:?}");
        assert_eq!(base.len(), before);
    }

    #[test]
    fn snapshot_reflects_current_rules() {
        let mut base = RuleBase::new();
        base.update(
            &CoOccurrence::count(&correlated_week(0), 10, Parallelism::sequential()),
            &CFG,
        );
        let rs = base.snapshot();
        assert!(rs.related(TemplateId(1), TemplateId(2)));
        assert_eq!(rs.len(), base.len());
    }

    #[test]
    fn refresh_updates_confidence_values() {
        let mut base = RuleBase::new();
        base.update(
            &CoOccurrence::count(&correlated_week(0), 10, Parallelism::sequential()),
            &CFG,
        );
        // Second week with slightly weaker correlation (but above conf).
        let mut week2 = correlated_week(1_000_000);
        for i in 0..20 {
            week2.push((Timestamp(2_000_000 + i * 100), RouterId(0), TemplateId(1)));
        }
        base.update(
            &CoOccurrence::count(&week2, 10, Parallelism::sequential()),
            &CFG,
        );
        let rs = base.snapshot();
        let r12 = rs
            .rules()
            .iter()
            .find(|r| r.x == TemplateId(1) && r.y == TemplateId(2))
            .unwrap();
        assert!(r12.confidence < 1.0 && r12.confidence >= 0.8);
    }
}
