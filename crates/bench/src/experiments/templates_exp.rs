//! EXP-TMPL (§5.2.1): learned templates vs. the generator's ground truth.
//! The paper reports "94% of message templates matches". Also sweeps the
//! template-tree pruning threshold `k` (DESIGN.md's ablation).

use crate::ctx::{paper, section, Ctx};
use sd_templates::{learn, LearnerConfig};

/// Run the template-accuracy experiment for both datasets.
pub fn run(ctx: &Ctx) {
    section("EXP-TMPL  (section 5.2.1) — template identification accuracy");
    paper("94% of message templates match the hard-coded ground truth");
    for (name, b) in ctx.both() {
        let set = learn(b.data.train(), &LearnerConfig::default());
        let gt = b.data.grammar.masked_set();
        let acc = set.accuracy_against(&gt);
        // Message-weighted variant: the share of messages whose matched
        // template is exactly the ground-truth masked form.
        let gt_set: std::collections::HashSet<&String> = gt.iter().collect();
        let mut total = 0usize;
        let mut exact = 0usize;
        for m in b.data.train().iter().step_by(17) {
            total += 1;
            if let Some(id) = set.match_message(m) {
                if gt_set.contains(&set.get(id).masked()) {
                    exact += 1;
                }
            }
        }
        println!(
            "  dataset {name}: template-level accuracy {:.1}%  ({} learned vs {} true); \
             message-weighted {:.1}%",
            acc * 100.0,
            set.len(),
            gt.len(),
            exact as f64 / total.max(1) as f64 * 100.0
        );
    }
    println!("\n  pruning threshold k (not in the paper; first 30k training messages):");
    for (name, b) in ctx.both() {
        let train = b.data.train();
        let slice = &train[..train.len().min(30_000)];
        let counts: Vec<String> = [3usize, 10, 30]
            .iter()
            .map(|&k| {
                let cfg = LearnerConfig {
                    k,
                    ..LearnerConfig::default()
                };
                format!("k={k}: {}", learn(slice, &cfg).len())
            })
            .collect();
        println!("  dataset {name}: templates learned {}", counts.join(", "));
    }
}
