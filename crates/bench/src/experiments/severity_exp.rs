//! EXP-SEV (§2, §4.2.4): the paper argues vendor-assigned severities
//! "cannot be directly used to rank-order the importance of events" — a
//! CPU-threshold message carries severity 1 while a link-down carries 3.
//! This experiment replays the §5.3 ticket correlation under both
//! rankings: the paper's location/frequency score vs. a
//! most-severe-member baseline.

use crate::ctx::{paper, section, Ctx};
use sd_tickets::{correlate, generate_tickets, top_tickets};
use syslogdigest::severity_rank;
use syslogdigest::{digest, GroupingConfig};

/// Run the ranking comparison for both datasets.
pub fn run(ctx: &Ctx) {
    section("EXP-SEV  (section 2 claim) — paper score vs vendor-severity ranking");
    paper("vendor severity reflects perceived *local* impact and misleads event");
    paper("ranking; the section 4.2.4 score is the paper's replacement");
    for (name, b) in ctx.both() {
        let tickets = generate_tickets(&b.data, 0xC0FFEE);
        let top = top_tickets(&tickets, 30);
        let dg = digest(&b.knowledge, b.data.online(), &GroupingConfig::default());

        let score_rep = correlate(&b.knowledge, &top, &dg.events, 0.05);

        let mut by_severity = dg.events.clone();
        severity_rank(&mut by_severity, b.data.online());
        let sev_rep = correlate(&b.knowledge, &top, &by_severity, 0.05);

        println!(
            "  dataset {name}: top-30 tickets in top-5% — section 4.2.4 score: {}/{}  |  \
             vendor-severity baseline: {}/{}",
            score_rep.n_matched_top, score_rep.n_tickets, sev_rep.n_matched_top, sev_rep.n_tickets
        );
        let med = |ranks: &[usize]| {
            let mut r: Vec<usize> = ranks.iter().copied().filter(|&x| x != usize::MAX).collect();
            r.sort_unstable();
            r.get(r.len() / 2).copied().unwrap_or(usize::MAX)
        };
        println!(
            "    median matched rank: score {} vs severity {}  (of {} events)",
            med(&score_rep.best_ranks),
            med(&sev_rep.best_ranks),
            dg.events.len()
        );
    }
}
