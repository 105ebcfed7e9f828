//! Online message augmentation: raw message → Syslog+ (template id +
//! verified locations), the first step of both the offline learner's
//! historical pass and the online pipeline.
//!
//! Routers repeat themselves: a flapping link sends the same line again
//! and again. An `AugmentMemo` therefore augments each distinct
//! `(router, code, detail)` once and answers repeats from a small table;
//! every batch, stream and history pass augments through one.

use crate::knowledge::DomainKnowledge;
use sd_locations::extract_with;
use sd_model::{
    catch_panic, FxHasher, LocationId, Parallelism, RawMessage, RouterId, SyslogPlus, TemplateId,
    TokenScratch,
};
use std::hash::Hasher;
use std::sync::Arc;

/// Slots in an [`AugmentMemo`] table (a power of two).
const MEMO_SLOTS: usize = 4096;

/// Longest key, in bytes, an [`AugmentMemo`] remembers: the key is a
/// message's [`RawMessage::text`], `"router code detail"`. Longer lines
/// are augmented afresh, so the slots' key buffers never hold more than
/// `MEMO_SLOTS × MEMO_MAX_KEY` bytes.
const MEMO_MAX_KEY: usize = 1024;

/// Table lookups per [`AugmentMemo`] epoch; an epoch with fewer than a
/// quarter hits starts a bypass.
const MEMO_EPOCH: u32 = 1024;

/// Most epochs one [`AugmentMemo`] bypass lasts.
const MEMO_MAX_BYPASS: u32 = 64;

/// Augment one raw message. Returns `None` when the originating router is
/// unknown to the location dictionary (such messages are counted and
/// skipped by the pipeline — there is nothing to anchor them to).
pub fn augment(k: &DomainKnowledge, idx: usize, m: &RawMessage) -> Option<SyslogPlus> {
    crate::quarantine::poison_check(m.detail());
    augment_fresh(k, idx, m, &mut TokenScratch::new())
}

/// Augment `m` from scratch. The detail is tokenized once into `scratch`;
/// location extraction and template matching both read those spans, and
/// neither copies a token.
fn augment_fresh(
    k: &DomainKnowledge,
    idx: usize,
    m: &RawMessage,
    scratch: &mut TokenScratch,
) -> Option<SyslogPlus> {
    scratch.tokenize(m.detail());
    let ex = extract_with(&k.dict, m, scratch)?;
    let template = k.resolve_template_with(m.code(), m.detail(), scratch);
    Some(SyslogPlus {
        idx,
        ts: m.ts,
        router: ex.router,
        template: Some(template),
        locations: Arc::from(ex.locations),
    })
}

/// Augmentation that remembers what it augmented: a line whose exact
/// `(router, code, detail)` it saw recently gets the router, template and
/// locations (or the unknown-router `None`) found then, and only `idx` and
/// `ts` from the message itself. Augmentation is a function of those three
/// fields and the fixed knowledge, so the output equals [`augment`]'s.
///
/// * The table is [`MEMO_SLOTS`] reusable slots. A line hashes to one
///   slot and evicts whatever held it, so memory stays bounded. A hit
///   shares the slot's locations (a reference count, no allocation), and
///   a miss reuses the slot's key buffer. The key is the message's joined
///   text together with the router's and the code's lengths, so router
///   `ab` with code `c` never answers for router `a` with code `bc`, even
///   where spaces make the joined texts equal.
/// * The hash is the unkeyed Fx over the key, as in the message line
///   cache, and the slot is its top bits, where Fx's last multiply mixes
///   best. The table is direct-mapped and never probes, so lines the
///   feed makes collide can only force misses, which a feed of unique
///   lines causes anyway, and the bypass below caps what misses cost.
/// * A feed where nothing repeats would pay for hashing and storing every
///   line. After each epoch of [`MEMO_EPOCH`] lookups with fewer than a
///   quarter hits, the memo steps aside for 1, 2, 4, … up to
///   [`MEMO_MAX_BYPASS`] epochs and augments directly; an epoch with
///   enough hits resets that to one.
/// * The poison check runs on every message before the lookup, so a
///   quarantining hook armed after a line was memoized still catches it.
pub(crate) struct AugmentMemo {
    scratch: TokenScratch,
    slots: Vec<Slot>,
    /// Lookups and hits so far in the current epoch.
    lookups: u32,
    hits: u32,
    /// Messages still to augment without the table.
    bypass: u32,
    /// Epochs the next bypass lasts.
    next_bypass: u32,
}

/// One remembered line and its augmentation.
#[derive(Default)]
struct Slot {
    /// The line's hash; `None` while the slot is empty.
    hash: Option<u64>,
    /// The line's [`RawMessage::text`] and its router's and code's lengths.
    text: String,
    router_len: usize,
    code_len: usize,
    /// Router, template and locations; `None` for a router the
    /// dictionary does not know.
    aug: Option<(RouterId, Option<TemplateId>, Arc<[LocationId]>)>,
}

impl Slot {
    fn holds(&self, hash: u64, m: &RawMessage) -> bool {
        self.hash == Some(hash)
            && self.router_len == m.router().len()
            && self.code_len == m.code().len()
            && self.text == m.text()
    }

    fn get(&self, idx: usize, m: &RawMessage) -> Option<SyslogPlus> {
        let (router, template, locations) = self.aug.as_ref()?;
        Some(SyslogPlus {
            idx,
            ts: m.ts,
            router: *router,
            template: *template,
            locations: Arc::clone(locations),
        })
    }

    /// Remember `m` and its augmentation `sp`, reusing the key buffer.
    fn store(&mut self, hash: u64, m: &RawMessage, sp: Option<&SyslogPlus>) {
        self.hash = Some(hash);
        self.text.clear();
        self.text.push_str(m.text());
        (self.router_len, self.code_len) = (m.router().len(), m.code().len());
        self.aug = sp.map(|sp| (sp.router, sp.template, Arc::clone(&sp.locations)));
    }
}

impl AugmentMemo {
    /// An empty memo.
    pub(crate) fn new() -> Self {
        Self::with_slots(MEMO_SLOTS)
    }

    fn with_slots(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
        AugmentMemo {
            scratch: TokenScratch::new(),
            slots: std::iter::repeat_with(Slot::default).take(n).collect(),
            lookups: 0,
            hits: 0,
            bypass: 0,
            next_bypass: 1,
        }
    }

    /// Augment `m` as [`augment`] would, at batch position `idx`.
    pub(crate) fn augment(
        &mut self,
        k: &DomainKnowledge,
        idx: usize,
        m: &RawMessage,
    ) -> Option<SyslogPlus> {
        crate::quarantine::poison_check(m.detail());
        if self.bypass > 0 {
            self.bypass -= 1;
            return augment_fresh(k, idx, m, &mut self.scratch);
        }
        let out = if m.text().len() > MEMO_MAX_KEY {
            augment_fresh(k, idx, m, &mut self.scratch)
        } else {
            let hash = self.hash(m);
            // The top bits; a one-slot table shifts by all 64.
            let shift = 64 - self.slots.len().trailing_zeros();
            let slot = &mut self.slots[hash.checked_shr(shift).unwrap_or(0) as usize];
            if slot.holds(hash, m) {
                self.hits += 1;
                slot.get(idx, m)
            } else {
                let sp = augment_fresh(k, idx, m, &mut self.scratch);
                slot.store(hash, m, sp.as_ref());
                sp
            }
        };
        self.lookups += 1;
        if self.lookups == MEMO_EPOCH {
            if self.hits < MEMO_EPOCH / 4 {
                self.bypass = self.next_bypass * MEMO_EPOCH;
                self.next_bypass = (self.next_bypass * 2).min(MEMO_MAX_BYPASS);
            } else {
                self.next_bypass = 1;
            }
            (self.lookups, self.hits) = (0, 0);
        }
        out
    }

    /// Augment each message of `batch` in order, at its position, and hand
    /// `out` the position and the result: the augmentation (`None` for a
    /// router the dictionary does not know), or the panic's message for a
    /// message whose augmentation panicked. Such a message is quarantined
    /// and replaces the memo, which may hold torn state.
    ///
    /// One `catch_panic` guards a whole run of messages, not each one.
    /// After a panic the next run starts at the message after it, so each
    /// message augments once, and the results are those of one guard per
    /// message. `out` must not panic: it runs inside the guard.
    pub(crate) fn augment_each(
        &mut self,
        k: &DomainKnowledge,
        batch: &[RawMessage],
        mut out: impl FnMut(usize, Result<Option<SyslogPlus>, String>),
    ) {
        let mut next = 0;
        while next < batch.len() {
            let run = catch_panic(|| {
                for (i, m) in batch.iter().enumerate().skip(next) {
                    next = i + 1;
                    out(i, Ok(self.augment(k, i, m)));
                }
            });
            if let Err(reason) = run {
                *self = AugmentMemo::new();
                out(next - 1, Err(reason));
            }
        }
    }

    fn hash(&self, m: &RawMessage) -> u64 {
        let mut h = FxHasher::default();
        h.write_usize(m.router().len());
        h.write_usize(m.code().len());
        h.write(m.text().as_bytes());
        h.finish()
    }
}

/// Result of a panic-isolated batch augmentation
/// ([`augment_batch_isolated`]).
pub struct IsolatedAugment {
    /// Aligned 1:1 with the input batch: `Some` for augmented messages,
    /// `None` for unknown-router drops *and* quarantined messages (use
    /// `quarantined` to tell them apart).
    pub augmented: Vec<Option<SyslogPlus>>,
    /// `(batch offset, rendered panic payload)` for every message whose
    /// augmentation panicked, in ascending offset order.
    pub(crate) quarantined: Vec<(usize, String)>,
}

impl IsolatedAugment {
    /// The augmented messages in input order and the number of
    /// unknown-router drops; quarantined messages are in neither.
    pub fn split(self) -> (Vec<SyslogPlus>, usize) {
        let n = self.augmented.len();
        let mut kept = Vec::with_capacity(n);
        kept.extend(self.augmented.into_iter().flatten());
        // Every quarantined offset is a `None` of its own.
        let n_dropped = n - kept.len() - self.quarantined.len();
        (kept, n_dropped)
    }
}

/// Augment a batch with panics isolated per message: a message whose
/// augmentation panics is quarantined, and every other message still
/// augments. The batch augments through one memo, on the calling thread,
/// as the stream digester does; `_par` is ignored.
pub fn augment_batch_isolated(
    k: &DomainKnowledge,
    batch: &[RawMessage],
    _par: Parallelism,
) -> IsolatedAugment {
    let mut out = IsolatedAugment {
        augmented: Vec::with_capacity(batch.len()),
        quarantined: Vec::new(),
    };
    AugmentMemo::new().augment_each(k, batch, |i, result| match result {
        Ok(sp) => out.augmented.push(sp),
        Err(reason) => {
            out.augmented.push(None);
            out.quarantined.push((i, reason));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::GroupingConfig;
    use crate::knowledge::UNKNOWN_TEMPLATE;
    use crate::quarantine::{set_poison_marker, POISON_TEST_LOCK};
    use crate::stream::{StreamConfig, StreamDigester};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sd_locations::LocationDictionary;
    use sd_model::{ErrorCode, Interner, Timestamp};
    use sd_rules::RuleSet;
    use sd_telemetry::Telemetry;
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
        let (out, dropped) = augment_batch_isolated(&k, &batch, Parallelism::sequential()).split();
        assert_eq!(out.len(), 1);
        assert_eq!(dropped, 1);
    }

    #[test]
    fn isolated_batch_quarantines_only_the_poison_message() {
        let k = knowledge();
        let mut batch: Vec<RawMessage> = (0..200)
            .map(|i| {
                RawMessage::new(
                    Timestamp(i),
                    "r1",
                    ErrorCode::from("LINK-3-UPDOWN"),
                    format!("Interface Serial1/{}, changed state to down", i % 20),
                )
            })
            .collect();
        batch[23] = msg(
            23,
            "r1",
            "LINK-3-UPDOWN",
            "detail with AUGTESTPOISON inside",
        );
        let _lock = POISON_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::quarantine::set_poison_marker(Some("AUGTESTPOISON"));
        let iso = augment_batch_isolated(&k, &batch, Parallelism::sequential());
        assert_eq!(iso.augmented.len(), batch.len());
        assert_eq!(iso.quarantined.len(), 1);
        assert_eq!(iso.quarantined[0].0, 23);
        assert!(iso.quarantined[0].1.contains("AUGTESTPOISON"));
        assert!(iso.augmented[23].is_none());
        // Every other message still augmented, through the memo that the
        // panic replaced.
        for (i, sp) in iso.augmented.iter().enumerate() {
            if i != 23 {
                assert!(sp.is_some(), "message {i} lost");
                assert_eq!(sp.as_ref().unwrap().idx, i);
            }
        }
        // A quarantined message is kept nowhere and is no drop.
        let (kept, dropped) = iso.split();
        assert_eq!((kept.len(), dropped), (batch.len() - 1, 0));
        crate::quarantine::set_poison_marker(None);
        // Disarmed: identical to the plain batch path.
        let iso = augment_batch_isolated(&k, &batch, Parallelism::sequential());
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

    fn msg(ts: i64, router: &str, code: &str, detail: &str) -> RawMessage {
        RawMessage::new(Timestamp(ts), router, ErrorCode::from(code), detail)
    }

    /// Every message of `msgs` augmented through `memo` equals [`augment`].
    fn assert_memo_matches(k: &DomainKnowledge, memo: &mut AugmentMemo, msgs: &[RawMessage]) {
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(
                memo.augment(k, i, m),
                augment(k, i, m),
                "message {i}: {m:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Through a memo of any size, down to one slot where every
        /// distinct line evicts the last, augmentation equals the
        /// memo-free [`augment`] on feeds that repeat lines, mix known and
        /// unknown routers and codes, and shift bytes between router and
        /// code.
        #[test]
        fn memo_equals_memo_free_augment(
            seed in 0u64..u64::MAX,
            len in 1usize..600,
            slots_log2 in 0u32..14,
        ) {
            let k = knowledge();
            let mut rng = StdRng::seed_from_u64(seed);
            let routers = ["r1", "r", "ghost"];
            let codes = ["LINK-3-UPDOWN", "1LINK-3-UPDOWN", "ALIEN-9-THING"];
            let msgs: Vec<RawMessage> = (0..len)
                .map(|i| {
                    let detail = format!(
                        "Interface Serial1/{}, changed state to {}",
                        rng.gen_range(0..8),
                        ["down", "up"][rng.gen_range(0..2)]
                    );
                    msg(
                        i as i64,
                        routers[rng.gen_range(0..routers.len())],
                        codes[rng.gen_range(0..codes.len())],
                        &detail,
                    )
                })
                .collect();
            let mut memo = AugmentMemo::with_slots(1 << slots_log2);
            for (i, m) in msgs.iter().enumerate() {
                prop_assert_eq!(memo.augment(&k, i, m), augment(&k, i, m));
            }
        }
    }

    /// Router `r` with code `1LINK-3-UPDOWN` concatenates to the same bytes
    /// as router `r1` with code `LINK-3-UPDOWN`, but only `r1` is known:
    /// sharing one slot, neither may answer for the other.
    #[test]
    fn router_and_code_boundaries_are_part_of_the_key() {
        let k = knowledge();
        let detail = "Interface Serial1/5, changed state to down";
        let known = msg(0, "r1", "LINK-3-UPDOWN", detail);
        let shifted = msg(1, "r", "1LINK-3-UPDOWN", detail);
        assert!(augment(&k, 0, &known).is_some());
        assert!(augment(&k, 1, &shifted).is_none());
        let mut memo = AugmentMemo::with_slots(1);
        assert_memo_matches(&k, &mut memo, &[known.clone(), shifted.clone()]);
        assert_memo_matches(&k, &mut memo, &[shifted, known]);
    }

    /// A feed where no line repeats sends the memo into its bypass, and
    /// the output still equals [`augment`]'s, during the bypass and after.
    #[test]
    fn all_unique_feed_enters_the_bypass_and_still_matches() {
        let k = knowledge();
        let unique: Vec<RawMessage> = (0..3 * MEMO_EPOCH as i64)
            .map(|i| {
                msg(
                    i,
                    "r1",
                    "LINK-3-UPDOWN",
                    &format!("Interface Serial1/{i}, down"),
                )
            })
            .collect();
        let mut memo = AugmentMemo::new();
        assert_memo_matches(&k, &mut memo, &unique[..MEMO_EPOCH as usize]);
        assert_eq!(memo.bypass, MEMO_EPOCH, "one bad epoch bypasses one epoch");
        assert_eq!(memo.next_bypass, 2);
        assert_memo_matches(&k, &mut memo, &unique[MEMO_EPOCH as usize..]);
        assert_eq!(memo.bypass, 2 * MEMO_EPOCH, "a second bad epoch doubles it");
        // A repetitive stretch after the bypass resets the backoff.
        let repeats: Vec<RawMessage> = (0..3 * MEMO_EPOCH as i64)
            .map(|i| msg(i, "r1", "LINK-3-UPDOWN", "Interface Serial1/5, down"))
            .collect();
        assert_memo_matches(&k, &mut memo, &repeats);
        assert_eq!((memo.bypass, memo.next_bypass), (0, 1));
    }

    /// A repeated poison line is quarantined at every occurrence, whether
    /// or not a memo has seen it.
    #[test]
    fn repeated_poison_line_is_quarantined_every_time() {
        let k = knowledge();
        let poison = msg(0, "r1", "LINK-3-UPDOWN", "Interface Serial1/5 MEMOPOISON");
        let healthy = msg(0, "r1", "LINK-3-UPDOWN", "Interface Serial1/5, down");
        let batch: Vec<RawMessage> = (0..12)
            .map(|i| {
                if i % 3 == 1 {
                    poison.clone()
                } else {
                    healthy.clone()
                }
            })
            .collect();
        let _lock = POISON_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_poison_marker(Some("MEMOPOISON"));
        let iso = augment_batch_isolated(&k, &batch, Parallelism::sequential());
        set_poison_marker(None);
        let offsets: Vec<usize> = iso.quarantined.iter().map(|(i, _)| *i).collect();
        assert_eq!(offsets, vec![1, 4, 7, 10]);
        let (kept, dropped) = iso.split();
        assert_eq!((kept.len(), dropped), (8, 0));
    }

    /// What augmenting a batch produced: the kept messages, the positions
    /// of unknown-router drops, and `(position, panic message)` per
    /// quarantined message.
    type Outcome = (Vec<SyslogPlus>, Vec<usize>, Vec<(usize, String)>);

    /// The guard `augment_each` replaced, kept as its reference: each
    /// message under its own `catch_panic`, the memo replaced after a
    /// panic.
    fn augment_per_message(k: &DomainKnowledge, batch: &[RawMessage]) -> Outcome {
        let (mut memo, mut out) = (AugmentMemo::new(), Outcome::default());
        for (i, m) in batch.iter().enumerate() {
            match catch_panic(|| memo.augment(k, i, m)) {
                Ok(Some(sp)) => out.0.push(sp),
                Ok(None) => out.1.push(i),
                Err(reason) => {
                    memo = AugmentMemo::new();
                    out.2.push((i, reason));
                }
            }
        }
        out
    }

    /// `augment_each`, one guard per run, collected like the reference.
    fn augment_per_run(k: &DomainKnowledge, batch: &[RawMessage]) -> Outcome {
        let mut out = Outcome::default();
        AugmentMemo::new().augment_each(k, batch, |i, result| match result {
            Ok(Some(sp)) => out.0.push(sp),
            Ok(None) => out.1.push(i),
            Err(reason) => out.2.push((i, reason)),
        });
        out
    }

    /// A batch of `len` lines over a known and an unknown router, which
    /// repeat, with the poison marker in the detail of each message
    /// `poisoned` names.
    fn poisoned_batch(len: usize, poisoned: impl Fn(usize) -> bool) -> Vec<RawMessage> {
        (0..len)
            .map(|i| {
                let router = if i % 5 == 3 { "ghost" } else { "r1" };
                let detail = format!(
                    "Interface Serial1/{}, changed state to down{}",
                    i % 4,
                    if poisoned(i) { " RUNPOISON" } else { "" }
                );
                msg(i as i64, router, "LINK-3-UPDOWN", &detail)
            })
            .collect()
    }

    /// Poisoned message `i` of a batch of `len` under pattern `shape`:
    /// none, the first, the last, two adjacent, every message, or each
    /// with probability one half (by the bits of `bits`).
    fn poison_pattern(shape: u8, len: usize, at: usize, bits: u64) -> impl Fn(usize) -> bool {
        let at = at % len;
        move |i| match shape {
            0 => false,
            1 => i == 0,
            2 => i == len - 1,
            3 => i == at || i == at + 1,
            4 => true,
            _ => bits >> (i % 64) & 1 == 1,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// One guard per run keeps, drops and quarantines exactly what one
        /// guard per message does, and each poisoned message panics once.
        #[test]
        fn one_guard_per_run_equals_one_per_message(
            len in 1usize..120,
            shape in 0u8..6,
            at in 0usize..120,
            bits in 0u64..u64::MAX,
        ) {
            use crate::quarantine::POISON_PANICS;
            use std::sync::atomic::Ordering;
            let k = knowledge();
            let poisoned = poison_pattern(shape, len, at, bits);
            let batch = poisoned_batch(len, &poisoned);
            let n_poisoned = (0..len).filter(|&i| poisoned(i)).count();
            let _lock = POISON_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            set_poison_marker(Some("RUNPOISON"));
            POISON_PANICS.store(0, Ordering::Relaxed);
            let per_run = augment_per_run(&k, &batch);
            let panics = POISON_PANICS.load(Ordering::Relaxed);
            let per_message = augment_per_message(&k, &batch);
            set_poison_marker(None);
            prop_assert_eq!(panics, n_poisoned, "a poisoned message panicked other than once");
            prop_assert_eq!(per_run.2.len(), n_poisoned);
            prop_assert_eq!(per_run, per_message);
        }
    }

    /// Poison on both sides of `push_batch`'s chunk boundaries, in a batch
    /// of more than two chunks: the digester quarantines, drops and keeps
    /// what one guard per message does over the whole batch.
    #[test]
    fn poison_across_chunk_boundaries_is_quarantined_as_per_message() {
        use crate::stream::CHUNK;
        let k = knowledge();
        let len = 2 * CHUNK + 7;
        let poisoned = |i: usize| [0, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, len - 1].contains(&i);
        let batch = poisoned_batch(len, poisoned);
        let mut sd = StreamDigester::with_telemetry(
            &k,
            GroupingConfig::default(),
            StreamConfig::default(),
            &Telemetry::disabled(),
        );
        let _lock = POISON_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_poison_marker(Some("RUNPOISON"));
        sd.push_batch(&batch);
        let (kept, dropped, quarantined) = augment_per_message(&k, &batch);
        set_poison_marker(None);
        let records: Vec<(usize, String)> = sd
            .take_quarantined()
            .into_iter()
            .map(|r| (r.position as usize - 1, r.reason))
            .collect();
        assert_eq!(records, quarantined);
        let stats = sd.stats();
        assert_eq!(
            (stats.n_input, stats.n_dropped, stats.n_quarantined),
            (len, dropped.len(), quarantined.len())
        );
        assert_eq!(sd.open_messages(), kept.len());
    }

    /// The stream digester's memo learns a line while the poison hook is
    /// disarmed; arming the hook still quarantines every later copy.
    #[test]
    fn stream_quarantines_a_line_memoized_before_the_hook_was_armed() {
        let k = knowledge();
        let line = |ts| {
            msg(
                ts,
                "r1",
                "LINK-3-UPDOWN",
                "Interface Serial1/5 MEMOSTREAMPOISON",
            )
        };
        let tel = Telemetry::disabled();
        let mut sd = StreamDigester::with_telemetry(
            &k,
            GroupingConfig::default(),
            StreamConfig::default(),
            &tel,
        );
        let _lock = POISON_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_poison_marker(None);
        sd.push_batch(&[line(0)]);
        sd.push_batch(&[line(1)]);
        assert_eq!(sd.stats().n_quarantined, 0);
        set_poison_marker(Some("MEMOSTREAMPOISON"));
        sd.push_batch(&[line(2)]);
        sd.push_batch(&[line(3)]);
        set_poison_marker(None);
        let stats = sd.stats();
        assert_eq!((stats.n_input, stats.n_quarantined), (4, 2));
        assert_eq!(sd.take_quarantined().len(), 2);
        assert_eq!(sd.open_messages(), 2);
    }
}
