//! Online message augmentation: raw message → Syslog+ (template id +
//! verified locations), the first step of both the offline learner's
//! historical pass and the online pipeline.

use crate::knowledge::DomainKnowledge;
use sd_locations::extract_with;
use sd_model::{
    catch_panic, par_chunks_isolated, Parallelism, RawMessage, SyslogPlus, TokenScratch,
};

/// Fewest messages each worker must get before a batch's augmentation is
/// split across threads; smaller batches stay on the calling thread.
///
/// Measured on a shared 2-core x86-64 host (dataset A feed, batches cut
/// from 131k messages): one thread augments a message in about 0.85 µs,
/// and a two-thread fork-join costs about 150 µs. Two threads were 3×
/// slower than one at 64 messages, 0.92× at 1,024, 1.16× at 2,048 and
/// 1.33× at 4,096. The stream path hands over reorder-buffer releases of
/// a few messages each, which threads would slow several times over. The
/// floor lives here rather than in `par_chunks`: learning fans out over a
/// few heavy per-code items, which must keep splitting.
const MIN_MSGS_PER_WORKER: usize = 1024;

/// `par` capped so every worker augments at least
/// [`MIN_MSGS_PER_WORKER`] of `n` messages.
fn augment_par(par: Parallelism, n: usize) -> Parallelism {
    Parallelism::with_threads(par.threads.min(n / MIN_MSGS_PER_WORKER))
}

/// Augment one raw message. Returns `None` when the originating router is
/// unknown to the location dictionary (such messages are counted and
/// skipped by the pipeline — there is nothing to anchor them to).
pub fn augment(k: &DomainKnowledge, idx: usize, m: &RawMessage) -> Option<SyslogPlus> {
    augment_with(k, idx, m, &mut TokenScratch::new())
}

/// [`augment`] with a caller-provided token scratch, so one scratch serves
/// a whole batch. The detail is tokenized once; location extraction and
/// template matching both read those spans, and neither copies a token.
pub fn augment_with(
    k: &DomainKnowledge,
    idx: usize,
    m: &RawMessage,
    scratch: &mut TokenScratch,
) -> Option<SyslogPlus> {
    crate::quarantine::poison_check(&m.detail);
    scratch.tokenize(&m.detail);
    let ex = extract_with(&k.dict, m, scratch)?;
    let template = k.resolve_template_with(&m.code, &m.detail, scratch);
    Some(SyslogPlus {
        idx,
        ts: m.ts,
        router: ex.router,
        template: Some(template),
        locations: ex.locations,
    })
}

/// Augment a whole batch on the calling thread, dropping unknown-router
/// messages; returns the augmented messages and the number dropped.
pub fn augment_batch(k: &DomainKnowledge, batch: &[RawMessage]) -> (Vec<SyslogPlus>, usize) {
    let mut scratch = TokenScratch::new();
    let mut out = Vec::with_capacity(batch.len());
    let mut dropped = 0usize;
    for (i, m) in batch.iter().enumerate() {
        match augment_with(k, i, m, &mut scratch) {
            Some(sp) => out.push(sp),
            None => dropped += 1,
        }
    }
    (out, dropped)
}

/// Result of a panic-isolated batch augmentation
/// ([`augment_batch_isolated`]).
pub struct IsolatedAugment {
    /// Aligned 1:1 with the input batch: `Some` for augmented messages,
    /// `None` for unknown-router drops *and* quarantined messages (use
    /// `quarantined` to tell them apart).
    pub augmented: Vec<Option<SyslogPlus>>,
    /// `(batch offset, rendered panic payload)` for every message whose
    /// augmentation panicked — even after its shard was retried
    /// sequentially, one message at a time.
    pub quarantined: Vec<(usize, String)>,
}

/// Augment a batch with each shard of the `par` fan-out running under
/// `catch_unwind`: a panicking shard does not abort the run. The
/// poisoned shard is retried sequentially message-by-message (with a
/// fresh scratch — the panicked one may hold torn state) so only the
/// truly offending messages are quarantined; every healthy message in
/// the shard still augments. Shards are split only while every worker
/// gets at least 1,024 messages, and chunks are concatenated in input
/// order, so the output is deterministic and identical for every thread
/// count.
pub fn augment_batch_isolated(
    k: &DomainKnowledge,
    batch: &[RawMessage],
    par: Parallelism,
) -> IsolatedAugment {
    let shards = par_chunks_isolated(augment_par(par, batch.len()), batch, |start, chunk| {
        let mut out = Vec::with_capacity(chunk.len());
        let mut scratch = TokenScratch::new();
        for (off, m) in chunk.iter().enumerate() {
            out.push(augment_with(k, start + off, m, &mut scratch));
        }
        out
    });
    let starts: Vec<usize> = shards.iter().map(|(s, _)| *s).collect();
    let mut augmented: Vec<Option<SyslogPlus>> = Vec::with_capacity(batch.len());
    let mut quarantined: Vec<(usize, String)> = Vec::new();
    for (si, (start, res)) in shards.into_iter().enumerate() {
        match res {
            Ok(chunk_out) => augmented.extend(chunk_out),
            Err(_) => {
                // Poisoned shard: retry each message alone.
                let end = starts.get(si + 1).copied().unwrap_or(batch.len());
                for (off, m) in batch[start..end].iter().enumerate() {
                    let idx = start + off;
                    match catch_panic(|| augment_with(k, idx, m, &mut TokenScratch::new())) {
                        Ok(sp) => augmented.push(sp),
                        Err(reason) => {
                            augmented.push(None);
                            quarantined.push((idx, reason));
                        }
                    }
                }
            }
        }
    }
    IsolatedAugment {
        augmented,
        quarantined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::UNKNOWN_TEMPLATE;
    use sd_locations::LocationDictionary;
    use sd_model::{ErrorCode, Interner, Timestamp};
    use sd_rules::RuleSet;
    use sd_templates::{learn, LearnerConfig};
    use sd_temporal::TemporalConfig;

    fn knowledge() -> DomainKnowledge {
        let train: Vec<RawMessage> = (0..30)
            .map(|i| {
                RawMessage::new(
                    Timestamp(i),
                    "r1",
                    ErrorCode::from("LINK-3-UPDOWN"),
                    format!("Interface Serial1/{}, changed state to down", i % 20),
                )
            })
            .collect();
        let templates = learn(&train, &LearnerConfig::default());
        let mut fallback = Interner::new();
        fallback.intern("LINK-3-UPDOWN");
        let cfg = "\
hostname r1
!
interface Serial1/5
 ip address 10.0.0.1 255.255.255.252
";
        let dict = LocationDictionary::build(&[cfg.to_owned()]);
        DomainKnowledge::new(
            templates,
            fallback,
            dict,
            TemporalConfig::dataset_a(),
            RuleSet::default(),
            120,
            Default::default(),
        )
    }

    #[test]
    fn augment_attaches_template_and_location() {
        let k = knowledge();
        let m = RawMessage::new(
            Timestamp(99),
            "r1",
            ErrorCode::from("LINK-3-UPDOWN"),
            "Interface Serial1/5, changed state to down",
        );
        let sp = augment(&k, 7, &m).unwrap();
        assert_eq!(sp.idx, 7);
        assert_eq!(sp.ts, Timestamp(99));
        let t = sp.template.unwrap();
        assert!(t.0 < k.templates.len() as u32);
        let rid = k.dict.router_id("r1").unwrap();
        assert_eq!(sp.primary_location(), k.dict.by_name(rid, "Serial1/5"));
    }

    #[test]
    fn unknown_router_is_dropped_by_batch() {
        let k = knowledge();
        let batch = vec![
            RawMessage::new(Timestamp(0), "r1", ErrorCode::from("LINK-3-UPDOWN"), "x y"),
            RawMessage::new(
                Timestamp(1),
                "ghost",
                ErrorCode::from("LINK-3-UPDOWN"),
                "x y",
            ),
        ];
        let (out, dropped) = augment_batch(&k, &batch);
        assert_eq!(out.len(), 1);
        assert_eq!(dropped, 1);
    }

    #[test]
    fn isolated_batch_quarantines_only_the_poison_message() {
        let k = knowledge();
        // Big enough that four threads really shard the batch four ways.
        let mut batch: Vec<RawMessage> = (0..4 * MIN_MSGS_PER_WORKER as i64)
            .map(|i| {
                RawMessage::new(
                    Timestamp(i),
                    "r1",
                    ErrorCode::from("LINK-3-UPDOWN"),
                    format!("Interface Serial1/{}, changed state to down", i % 20),
                )
            })
            .collect();
        batch[23].detail = "detail with AUGTESTPOISON inside".to_string();
        crate::quarantine::set_poison_marker(Some("AUGTESTPOISON"));
        for threads in [1usize, 4] {
            let iso = augment_batch_isolated(&k, &batch, Parallelism::with_threads(threads));
            assert_eq!(iso.augmented.len(), batch.len());
            assert_eq!(iso.quarantined.len(), 1, "threads={threads}");
            assert_eq!(iso.quarantined[0].0, 23);
            assert!(iso.quarantined[0].1.contains("AUGTESTPOISON"));
            assert!(iso.augmented[23].is_none());
            // Every other message still augmented despite sharing a shard
            // with the poison message.
            for (i, sp) in iso.augmented.iter().enumerate() {
                if i != 23 {
                    assert!(sp.is_some(), "message {i} lost (threads={threads})");
                    assert_eq!(sp.as_ref().unwrap().idx, i);
                }
            }
        }
        crate::quarantine::set_poison_marker(None);
        // Disarmed: identical to the plain batch path.
        let iso = augment_batch_isolated(&k, &batch, Parallelism::with_threads(4));
        assert!(iso.quarantined.is_empty());
        assert!(iso.augmented.iter().all(Option::is_some));
    }

    #[test]
    fn unknown_code_still_augments_with_unknown_template() {
        let k = knowledge();
        let m = RawMessage::new(
            Timestamp(0),
            "r1",
            ErrorCode::from("ALIEN-9-THING"),
            "stuff",
        );
        let sp = augment(&k, 0, &m).unwrap();
        assert_eq!(sp.template, Some(UNKNOWN_TEMPLATE));
    }
}
