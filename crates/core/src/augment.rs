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
    catch_panic, LocationId, Parallelism, RawMessage, RouterId, SyslogPlus, TemplateId,
    TokenScratch,
};
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// Slots in an [`AugmentMemo`] table (a power of two).
const MEMO_SLOTS: usize = 4096;

/// Longest `router + code + detail`, in bytes, an [`AugmentMemo`]
/// remembers; longer lines are augmented afresh, so the table never holds
/// more than `MEMO_SLOTS × MEMO_MAX_KEY` bytes of keys.
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
    crate::quarantine::poison_check(&m.detail);
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

/// Augmentation that remembers what it augmented: a line whose exact
/// `(router, code, detail)` it saw recently gets the router, template and
/// locations (or the unknown-router `None`) found then, and only `idx` and
/// `ts` from the message itself. Augmentation is a function of those three
/// fields and the fixed knowledge, so the output equals [`augment`]'s.
///
/// * The table is [`MEMO_SLOTS`] reusable slots. A line hashes to one
///   slot and evicts whatever held it, so memory stays bounded and a miss
///   allocates nothing of its own. The hash is SipHash with a per-memo
///   key: the feed chooses these keys. Router and code are length-prefixed
///   in the hash and compared field by field, so router `ab` with code `c`
///   never answers for router `a` with code `bc`.
/// * A feed where nothing repeats would pay for hashing and storing every
///   line. After each epoch of [`MEMO_EPOCH`] lookups with fewer than a
///   quarter hits, the memo steps aside for 1, 2, 4, … up to
///   [`MEMO_MAX_BYPASS`] epochs and augments directly; an epoch with
///   enough hits resets that to one.
/// * The poison check runs on every message before the lookup, so a
///   quarantining hook armed after a line was memoized still catches it.
pub(crate) struct AugmentMemo {
    scratch: TokenScratch,
    hasher: RandomState,
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
    router: String,
    code: String,
    detail: String,
    /// `None` for a router the dictionary does not know.
    router_id: Option<RouterId>,
    template: Option<TemplateId>,
    locations: Vec<LocationId>,
}

impl Slot {
    fn holds(&self, hash: u64, m: &RawMessage) -> bool {
        self.hash == Some(hash)
            && self.router == m.router
            && self.code == m.code.as_str()
            && self.detail == m.detail
    }

    fn get(&self, idx: usize, m: &RawMessage) -> Option<SyslogPlus> {
        Some(SyslogPlus {
            idx,
            ts: m.ts,
            router: self.router_id?,
            template: self.template,
            locations: self.locations.clone(),
        })
    }

    /// Remember `m` and its augmentation `sp`, reusing the slot's buffers.
    fn store(&mut self, hash: u64, m: &RawMessage, sp: Option<&SyslogPlus>) {
        self.hash = Some(hash);
        self.router.clone_from(&m.router);
        self.code.clone_from(&m.code.0);
        self.detail.clone_from(&m.detail);
        self.router_id = sp.map(|sp| sp.router);
        self.template = sp.and_then(|sp| sp.template);
        match sp {
            Some(sp) => self.locations.clone_from(&sp.locations),
            None => self.locations.clear(),
        }
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
            hasher: RandomState::new(),
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
        crate::quarantine::poison_check(&m.detail);
        if self.bypass > 0 {
            self.bypass -= 1;
            return augment_fresh(k, idx, m, &mut self.scratch);
        }
        let key_len = m.router.len() + m.code.as_str().len() + m.detail.len();
        let out = if key_len > MEMO_MAX_KEY {
            augment_fresh(k, idx, m, &mut self.scratch)
        } else {
            let hash = self.hash(m);
            let mask = self.slots.len() - 1;
            let slot = &mut self.slots[hash as usize & mask];
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

    /// Augment `batch`, each message under its own `catch_panic`. A panic
    /// quarantines that message and replaces the memo, which may hold
    /// torn state.
    pub(crate) fn augment_isolated(
        &mut self,
        k: &DomainKnowledge,
        batch: &[RawMessage],
    ) -> IsolatedAugment {
        let mut out = IsolatedAugment {
            augmented: Vec::with_capacity(batch.len()),
            quarantined: Vec::new(),
        };
        for (idx, m) in batch.iter().enumerate() {
            match catch_panic(|| self.augment(k, idx, m)) {
                Ok(sp) => out.augmented.push(sp),
                Err(reason) => {
                    *self = AugmentMemo::new();
                    out.augmented.push(None);
                    out.quarantined.push((idx, reason));
                }
            }
        }
        out
    }

    fn hash(&self, m: &RawMessage) -> u64 {
        let mut h = self.hasher.build_hasher();
        h.write_usize(m.router.len());
        h.write(m.router.as_bytes());
        h.write_usize(m.code.as_str().len());
        h.write(m.code.as_str().as_bytes());
        h.write(m.detail.as_bytes());
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

/// Augment a batch with each message under its own `catch_unwind`: a
/// message whose augmentation panics is quarantined, and every other
/// message still augments. The batch augments through one memo, on the
/// calling thread; `_par` is ignored.
pub fn augment_batch_isolated(
    k: &DomainKnowledge,
    batch: &[RawMessage],
    _par: Parallelism,
) -> IsolatedAugment {
    AugmentMemo::new().augment_isolated(k, batch)
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
        batch[23].detail = "detail with AUGTESTPOISON inside".to_string();
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
