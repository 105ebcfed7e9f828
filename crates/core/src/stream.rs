//! Streaming online digestion.
//!
//! [`StreamDigester`] is the one grouping engine (batch
//! [`digest`](crate::digest) runs it too). It runs each message through
//! the grouping step (`grouping::Stages::step`), unions the links into its
//! open groups, and *closes* a group, emitting its [`NetworkEvent`], once
//! it has been idle longer than any stage looks back: `Smax` (temporal),
//! `W` (rule-based) and [`CROSS_WINDOW_SECS`] (cross-router). With
//! `idle_close` at least that long, its partition is **identical** to the
//! union-find partition of [`group`](crate::group) over the same input.
//!
//! Open state is what the stages can still reach. Each open group has a
//! dense slot and a summary (`event::GroupSummary`) that folds each
//! member in on arrival. A message's slot stays in the lookback deque
//! while it is within `idle_close` of the clock, its body only while it
//! is within [`CROSS_WINDOW_SECS`], for the cross-router stage.
//!
//! A digester that runs for months against a live feed never aborts.
//! Out-of-order timestamps, unknown routers and internal invariant
//! violations are *counted* in [`StreamStats`] (route unordered feeds
//! through [`ingest`](crate::ingest) first).
//! [`StreamConfig::max_open_messages`] bounds the deque under a stuck or
//! skewed clock by force-closing the oldest groups in it. The whole
//! mutable state is one serializable field, which
//! [`FaultTolerantIngest::checkpoint`](crate::FaultTolerantIngest::checkpoint)
//! writes as it is and
//! [`FaultTolerantIngest::resume_with_telemetry`](crate::FaultTolerantIngest::resume_with_telemetry)
//! reads back, so a killed process continues exactly where it stopped.
//!
//! [`CROSS_WINDOW_SECS`]: crate::grouping::CROSS_WINDOW_SECS

use crate::augment::AugmentMemo;
use crate::checkpoint::{CheckpointError, IngestState, StreamSnapshot};
use crate::event::{GroupSummary, NetworkEvent};
use crate::grouping::{GroupingConfig, Stages, CROSS_WINDOW_SECS};
use crate::knowledge::DomainKnowledge;
use crate::provenance::{CloseReason, EventProvenance, MergeCause};
use crate::quarantine::QuarantineRecord;
use crate::reorder::ReorderBuffer;
use sd_model::{RawMessage, SyslogPlus, Timestamp};
use sd_telemetry::{Counter, SpanHandle, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Messages augmented and grouped at once, so few Syslog+ forms are held.
pub(crate) const CHUNK: usize = 1024;

/// A closed group's event and, when tracing, its provenance, without ids.
type Closed = (NetworkEvent, Option<EventProvenance>);

/// The digester's complete mutable state, the part a checkpoint carries.
/// The digester works on this struct directly and a [`StreamSnapshot`]
/// serializes it as it is, so equal states serialize to equal bytes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct StreamState {
    cfg: GroupingConfig,
    scfg: StreamConfig,
    next_seq: u64,
    /// Next event id to assign (1-based emission order, checkpointed so
    /// ids never repeat across resume).
    next_event_id: u64,
    clock: Timestamp,
    since_sweep: usize,
    /// `(timestamp, group slot)` of the numbered messages from the oldest
    /// within the idle horizon to the newest (`next_seq - 1`); the slot is
    /// `None` once the message's group closed.
    recent: VecDeque<(Timestamp, Option<usize>)>,
    /// The bodies within the cross window, for the cross-router stage,
    /// ending like `recent`; `None` once the group closed.
    bodies: VecDeque<Option<SyslogPlus>>,
    /// Messages in `recent` whose group is open.
    n_open: usize,
    /// Open group summaries by dense slot; `None` is a free slot.
    groups: Vec<Option<GroupSummary>>,
    /// The free slots, the last freed reused first.
    free: Vec<usize>,
    /// Lookback state of the grouping stages.
    stages: Stages,
}

impl StreamState {
    /// Where message `id` sits in a deque that ends at the newest message.
    fn at(&self, id: u64, len: usize) -> Option<usize> {
        let j = id.checked_sub(self.next_seq - len as u64)?;
        (j < len as u64).then_some(j as usize)
    }

    /// The group slot of open message `id`.
    fn slot_of(&self, id: u64) -> Option<usize> {
        self.recent[self.at(id, self.recent.len())?].1
    }

    /// Fold message `sp` into the group in `slot`, or into a new group in
    /// a free slot for `None`; returns the group's slot.
    fn join(&mut self, slot: Option<usize>, k: &DomainKnowledge, sp: &SyslogPlus) -> usize {
        let slot = slot
            .or_else(|| self.free.pop())
            .unwrap_or(self.groups.len());
        self.groups
            .resize_with(self.groups.len().max(slot + 1), || None);
        self.groups[slot]
            .get_or_insert_with(GroupSummary::default)
            .add(k, sp);
        slot
    }

    /// The instant `secs` before the clock (saturating: it starts at MIN).
    fn horizon(&self, secs: i64) -> Timestamp {
        Timestamp(self.clock.0.saturating_sub(secs))
    }

    /// Drop the entries past the idle horizon (no stage links to them), the
    /// bodies past the cross window, and any leading closed one.
    fn retire(&mut self) {
        let idle = self.horizon(self.scfg.idle_close);
        while let Some(&(_, slot)) = self.recent.front().filter(|r| r.1.is_none() || r.0 < idle) {
            self.recent.pop_front();
            self.n_open -= usize::from(slot.is_some());
        }
        let cross = self.horizon(CROSS_WINDOW_SECS);
        let stale = |b: &Option<SyslogPlus>| b.as_ref().is_none_or(|b| b.ts < cross);
        while self.bodies.front().is_some_and(stale) {
            self.bodies.pop_front();
        }
    }

    /// Mark a closed group's entries and bodies closed, given its ascending
    /// member ids, so none names a slot that is free or reused.
    fn drop_entries(&mut self, members: &[usize]) {
        for &m in members.iter().rev() {
            let Some(j) = self.at(m as u64, self.recent.len()) else {
                break;
            };
            self.n_open -= usize::from(self.recent[j].1.take().is_some());
            if let Some(j) = self.at(m as u64, self.bodies.len()) {
                self.bodies[j] = None;
            }
        }
        self.retire();
    }
}

/// Operational knobs of the streaming digester beyond the grouping
/// configuration itself.
#[derive(Debug, Default, Clone, Copy, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Idle horizon (seconds) after which a group can no longer grow.
    /// Clamped up to `max(Smax, W, cross window)` so closure can never
    /// split a group the batch pipeline would have joined.
    pub idle_close: i64,
    /// Upper bound on open messages, those within the idle horizon whose
    /// group has not closed; `0` means unbounded. Beyond it the *oldest*
    /// groups holding some are force-closed (counted in
    /// [`StreamStats::n_force_closed`]), so a stuck clock cannot grow it.
    pub max_open_messages: usize,
}

/// What [`StreamDigester::push_skipping`] works on within one chunk; each
/// is empty between chunks and keeps its capacity.
#[derive(Default)]
struct ChunkBuffers {
    /// The chunk's augmented messages, numbered on from `next_seq`.
    sps: Vec<SyslogPlus>,
    /// The chunk positions of the messages that get no number, in order:
    /// `None` for an unknown router, the panic's message for a quarantined
    /// message.
    gaps: Vec<(usize, Option<String>)>,
    /// The links `(earlier id, cause)` of every augmented message, and
    /// where each message's links end.
    links: Vec<(u64, MergeCause)>,
    ends: Vec<usize>,
}

/// Drop / degradation counters of one digester run. Every hostile input
/// condition increments a counter here instead of corrupting state or
/// panicking; operators alert on these.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Messages accepted (fed into augmentation).
    pub n_input: usize,
    /// Messages dropped because the originating router is unknown to the
    /// location dictionary.
    pub n_dropped: usize,
    /// Groups force-closed by the [`StreamConfig::max_open_messages`]
    /// memory guard before their idle horizon expired.
    pub n_force_closed: usize,
    /// Internal invariant violations tolerated (a linked message no
    /// longer open, a group root without state). Always 0 in a
    /// healthy run; nonzero values indicate a bug worth filing, but never
    /// abort the process.
    pub n_inconsistent: usize,
    /// Messages quarantined because their augmentation panicked. They are
    /// excluded from the digest exactly as if never fed; their records
    /// drain through `FaultTolerantIngest::take_quarantined`.
    pub n_quarantined: usize,
    /// Events emitted since the feed began, a resumed run's included.
    pub n_events: usize,
}

impl StreamStats {
    /// Table 7's compression ratio, as
    /// [`Digest::compression_ratio`](crate::Digest::compression_ratio)
    /// counts it: events per message grouped since the feed began.
    pub fn compression_ratio(&self) -> f64 {
        crate::pipeline::compression_ratio(
            self.n_events,
            self.n_input,
            self.n_dropped,
            self.n_quarantined,
        )
    }
}

/// Incremental digester over a time-ordered syslog feed.
pub struct StreamDigester<'k> {
    k: &'k DomainKnowledge,
    /// `k.fingerprint()`, computed at the first checkpoint or resume (`k`
    /// is borrowed immutably for the digester's life), so a batch digest,
    /// which never checkpoints, does not hash the knowledge.
    knowledge_fp: std::cell::OnceCell<u64>,
    /// Everything a checkpoint carries.
    st: StreamState,
    /// Augmentation of the lines seen so far, a cache over the fixed
    /// knowledge (never checkpointed; a panic inside it empties it).
    memo: AugmentMemo,
    /// The working buffers of one chunk, reused by the next (never
    /// checkpointed), so a chunk allocates nothing.
    chunk: ChunkBuffers,

    /// Registry-backed counters, [`StreamStats`] and the `links_*` per
    /// stage: registered under `stream.*` names when a [`Telemetry`]
    /// handle is attached, detached atomics that still count otherwise.
    n_input: Counter,
    n_dropped: Counter,
    n_force_closed: Counter,
    n_inconsistent: Counter,
    n_quarantined: Counter,
    n_events: Counter,
    links: [Counter; 3],
    /// Links unioned per stage and not yet added to `links`.
    n_links: [u64; 3],

    /// Emit one [`EventProvenance`] per event (drained via
    /// [`StreamDigester::take_provenance`]).
    trace: bool,
    trace_out: Vec<EventProvenance>,
    /// Quarantined-message records pending drain (sidecar output, never
    /// checkpointed; only the counter survives resume).
    quarantined: Vec<QuarantineRecord>,

    // Cached span handles (cheap no-ops without telemetry).
    sp_push: SpanHandle,
    sp_augment: SpanHandle,
    sp_group: SpanHandle,
    sp_sweep: SpanHandle,
}

impl<'k> StreamDigester<'k> {
    /// New digester with the operational limits of `scfg`, its counters
    /// and span timers registered in `tel` (under `stream.*`; pass
    /// [`Telemetry::disabled`] to run without). `idle_close` is clamped up
    /// to `max(Smax, W, cross window)` so closure can never split a group
    /// the batch pipeline would have joined. Telemetry never changes what
    /// the digester emits — only what it reports.
    pub fn with_telemetry(
        k: &'k DomainKnowledge,
        cfg: GroupingConfig,
        scfg: StreamConfig,
        tel: &Telemetry,
    ) -> Self {
        let floor = k.temporal.s_max.max(k.window_secs).max(CROSS_WINDOW_SECS);
        StreamDigester {
            k,
            knowledge_fp: std::cell::OnceCell::new(),
            st: StreamState {
                cfg,
                scfg: StreamConfig {
                    idle_close: scfg.idle_close.max(floor),
                    ..scfg
                },
                next_seq: 0,
                next_event_id: 0,
                clock: Timestamp(i64::MIN),
                since_sweep: 0,
                recent: VecDeque::new(),
                bodies: VecDeque::new(),
                n_open: 0,
                groups: Vec::new(),
                free: Vec::new(),
                stages: Stages::default(),
            },
            memo: AugmentMemo::new(),
            chunk: ChunkBuffers::default(),
            n_links: [0; 3],
            n_input: tel.counter("stream.n_input"),
            n_dropped: tel.counter("stream.n_dropped"),
            n_force_closed: tel.counter("stream.n_force_closed"),
            n_inconsistent: tel.counter("stream.n_inconsistent"),
            n_quarantined: tel.counter("stream.n_quarantined"),
            n_events: tel.counter("stream.n_events"),
            links: ["temporal", "rule", "cross"]
                .map(|stage| tel.counter(&format!("stream.links_{stage}"))),
            trace: false,
            trace_out: Vec::new(),
            quarantined: Vec::new(),
            sp_push: tel.span("stream.push"),
            sp_augment: tel.span("stream.augment"),
            sp_group: Telemetry::disabled().span("stream.group"),
            sp_sweep: tel.span("stream.sweep"),
        }
    }

    /// Current counters as a plain [`StreamStats`] value.
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            n_input: self.n_input.get() as usize,
            n_dropped: self.n_dropped.get() as usize,
            n_force_closed: self.n_force_closed.get() as usize,
            n_inconsistent: self.n_inconsistent.get() as usize,
            n_quarantined: self.n_quarantined.get() as usize,
            n_events: self.n_events.get() as usize,
        }
    }

    /// Time augmentation and grouping under `augment` and `group`, for
    /// batch [`digest`](crate::digest), which reports its own spans.
    pub(crate) fn time_as(&mut self, augment: SpanHandle, group: SpanHandle) {
        (self.sp_augment, self.sp_group) = (augment, group);
    }

    /// Drain the [`QuarantineRecord`]s of messages quarantined since the
    /// last drain (empty in a healthy run).
    pub(crate) fn take_quarantined(&mut self) -> Vec<QuarantineRecord> {
        std::mem::take(&mut self.quarantined)
    }

    /// Toggle per-event provenance tracing (drain records with
    /// [`take_provenance`](Self::take_provenance)). Tracing never changes
    /// emitted events.
    pub fn set_trace(&mut self, trace: bool) {
        self.trace = trace;
    }

    /// Drain the provenance records of events emitted since the last
    /// drain (empty unless [`set_trace`](Self::set_trace) is on).
    pub fn take_provenance(&mut self) -> Vec<EventProvenance> {
        std::mem::take(&mut self.trace_out)
    }

    /// Number of currently open groups.
    pub fn open_groups(&self) -> usize {
        self.st.groups.len() - self.st.free.len()
    }

    /// Number of open messages, those a stage can still link to.
    pub fn open_messages(&self) -> usize {
        self.st.n_open
    }

    /// Merge the groups in slots `a` (the earlier message's) and `b`, and
    /// return the merged group's slot. The larger group survives (ties
    /// keep `a`'s), and the smaller group's open members are re-pointed at
    /// its slot, so every open message always names its group directly.
    fn union(&mut self, a: usize, b: usize) -> usize {
        let st = &mut self.st;
        let size = |s: usize| st.groups[s].as_ref().map(|g| g.members.len());
        let (Some(na), Some(nb)) = (size(a), size(b)) else {
            self.n_inconsistent.inc();
            return b;
        };
        let (root, child) = if nb > na { (b, a) } else { (a, b) };
        if let Some(g) = (a != b).then(|| st.groups[child].take()).flatten() {
            for &m in &g.members {
                if let Some(j) = st.at(m as u64, st.recent.len()) {
                    st.recent[j].1 = Some(root);
                }
            }
            st.free.push(child);
            if let Some(r) = st.groups[root].as_mut() {
                r.absorb(g);
            }
        }
        root
    }

    /// Feed a slice of messages (non-decreasing in time — route unordered
    /// feeds through [`ReorderBuffer`] first), augmenting them through the
    /// digester's memo before the incremental grouping stages; returns any
    /// events that became closable. Slicing a feed differently emits the
    /// same events: augmentation is per-message pure. A message whose
    /// augmentation panics is quarantined, and every other message still
    /// augments (one `catch_unwind` guards each run of messages, see
    /// `AugmentMemo::augment_each`). A message older than the
    /// clock, which the ingest layer never sends, may find fewer links:
    /// the lookback deque follows the clock, not the message.
    pub fn push_batch(&mut self, msgs: &[RawMessage]) -> Vec<NetworkEvent> {
        self.push_skipping(msgs, |_| {})
    }

    /// [`push_batch`](Self::push_batch), handing `skipped` the position in
    /// `msgs` of each message that gets no sequence number (one dropped or
    /// quarantined), in feed order. Each chunk is grouped in two tight
    /// passes: the stages step every message, then each is grouped by its
    /// links and closes what its clock lets close. The result is that of
    /// one message at a time.
    pub(crate) fn push_skipping(
        &mut self,
        msgs: &[RawMessage],
        mut skipped: impl FnMut(usize),
    ) -> Vec<NetworkEvent> {
        let _g = self.sp_push.start();
        let mut events = Vec::new();
        let mut buf = std::mem::take(&mut self.chunk);
        for (c, chunk) in msgs.chunks(CHUNK).enumerate() {
            let base = self.st.next_seq;
            {
                let _g = self.sp_augment.start();
                let (sps, gaps) = (&mut buf.sps, &mut buf.gaps);
                // Number the augmented messages as they come.
                self.memo
                    .augment_each(self.k, chunk, |i, result| match result {
                        Ok(Some(sp)) => sps.push(SyslogPlus {
                            idx: base as usize + sps.len(),
                            ..sp
                        }),
                        Ok(None) => gaps.push((i, None)),
                        Err(reason) => gaps.push((i, Some(reason))),
                    });
            }
            let _g = self.sp_group.start();
            let n_before = self.n_input.get();
            self.n_input.add(chunk.len() as u64);
            // Step the augmented messages; an earlier message is in the
            // chunk or among the bodies.
            let st = &mut self.st;
            let (bodies, from_bodies) = (&st.bodies, base - st.bodies.len() as u64);
            let sps = &buf.sps;
            let lookup = |id: u64| match id.checked_sub(base) {
                Some(j) => sps.get(j as usize),
                None => bodies.get(id.checked_sub(from_bodies)? as usize)?.as_ref(),
            };
            for (sp, seq) in sps.iter().zip(base..) {
                st.stages
                    .step(self.k, &st.cfg, sp, seq, lookup, &mut buf.links);
                buf.ends.push(buf.links.len());
            }
            let mut from = 0;
            let mut stepped = buf.sps.drain(..).zip(buf.ends.drain(..));
            let mut gaps = buf.gaps.drain(..).peekable();
            for (i, m) in chunk.iter().enumerate() {
                let gap = gaps.next_if(|(at, _)| *at == i);
                // A quarantined message is left out exactly as if never fed
                // (no clock advance, no sweep tick), so the surviving output
                // is byte-identical to a feed without it.
                if let Some((_, Some(reason))) = gap {
                    self.n_quarantined.inc();
                    let at = n_before + i as u64 + 1;
                    let record = QuarantineRecord::from_message(at, m, "augment", &reason);
                    self.quarantined.push(record);
                    skipped(c * CHUNK + i);
                    continue;
                }
                if m.ts > self.st.clock {
                    self.st.clock = m.ts;
                    self.st.retire();
                }
                match gap.is_none().then(|| stepped.next()).flatten() {
                    Some((sp, to)) => {
                        let links = &buf.links[std::mem::replace(&mut from, to)..to];
                        self.group(sp, links);
                    }
                    None => {
                        self.n_dropped.inc();
                        skipped(c * CHUNK + i);
                    }
                }
                self.st.since_sweep = (self.st.since_sweep + 1) % 256;
                if self.st.since_sweep == 0 {
                    let closed = self.sweep(CloseReason::Idle);
                    self.finalize(closed, &mut events);
                }
                if self.st.scfg.max_open_messages > 0 {
                    self.enforce_open_bound(&mut events);
                }
            }
            buf.links.clear();
        }
        self.chunk = buf;
        for (c, n) in self.links.iter().zip(std::mem::take(&mut self.n_links)) {
            c.add(n);
        }
        events
    }

    /// Group numbered message `sp`: it joins the group of its first link to
    /// an open message, where a union would put its singleton group, and
    /// each further link unions. A link to a message no longer open merges
    /// nothing; one inside a group still counts as provenance.
    fn group(&mut self, sp: SyslogPlus, links: &[(u64, MergeCause)]) {
        let mut slot = None;
        for &(earlier, cause) in links {
            let Some(a) = self.st.slot_of(earlier) else {
                continue;
            };
            let s = match slot {
                Some(b) if b == a => a,
                Some(b) => self.union(a, b),
                None => self.st.join(Some(a), self.k, &sp),
            };
            if let Some(g) = self.st.groups[s].as_mut() {
                g.links.record(cause);
            }
            self.n_links[match cause {
                MergeCause::Temporal => 0,
                MergeCause::Rule(_, _) => 1,
                MergeCause::Cross => 2,
            }] += 1;
            slot = Some(s);
        }
        let st = &mut self.st;
        let slot = slot.unwrap_or_else(|| st.join(None, self.k, &sp));
        st.recent.push_back((sp.ts, Some(slot)));
        (st.next_seq, st.n_open) = (st.next_seq + 1, st.n_open + 1);
        if st.cfg.cross {
            st.bodies.push_back(Some(sp));
        }
    }

    /// Assign emission-order event ids, and hand each provenance record
    /// its id. Runs on every emission path, unconditionally — ids must
    /// not depend on telemetry or tracing being attached.
    fn finalize(&mut self, closed: Vec<Closed>, events: &mut Vec<NetworkEvent>) {
        for (mut ev, prov) in closed {
            self.st.next_event_id += 1;
            ev.id = self.st.next_event_id;
            self.n_events.inc();
            if let Some(p) = prov {
                self.trace_out.push(EventProvenance {
                    event_id: ev.id,
                    ..p
                });
            }
            events.push(ev);
        }
    }

    /// Close the group in `slot` (`None` if free): its event and, when
    /// tracing, its provenance; its open entries are dropped.
    fn close_slot(&mut self, slot: usize, reason: CloseReason) -> Option<Closed> {
        let g = self.st.groups.get_mut(slot)?.take()?;
        self.st.free.push(slot);
        let idle_gap = (reason == CloseReason::Idle).then(|| self.st.clock.seconds_since(g.end));
        let horizon = Some(self.st.scfg.idle_close);
        let prov = self
            .trace
            .then(|| g.provenance(self.k, reason, idle_gap, horizon));
        let ev = g.event(self.k, g.score(self.k));
        self.st.drop_entries(&ev.message_idxs);
        Some((ev, prov))
    }

    /// Close every group idle past the horizon, or every group for
    /// [`CloseReason::Finish`].
    fn sweep(&mut self, reason: CloseReason) -> Vec<Closed> {
        let _g = self.sp_sweep.start();
        let close_all = reason == CloseReason::Finish;
        let horizon = self.st.horizon(self.st.scfg.idle_close);
        let mut closed = Vec::new();
        for slot in 0..self.st.groups.len() {
            let g = self.st.groups[slot].as_ref();
            if g.is_some_and(|g| close_all || g.end < horizon) {
                closed.extend(self.close_slot(slot, reason));
            }
        }
        // Total order: `start` alone ties when two groups begin the same
        // second, and slot order follows slot reuse, not time. The lowest
        // member sequence number breaks such ties reproducibly.
        closed.sort_by_key(|(ev, _)| (ev.start, ev.message_idxs.first().copied()));
        closed
    }

    /// Memory-pressure guard: while more than `max_open_messages` messages
    /// are open, force-close the *least recently active* group holding some
    /// (its first member breaking ties), emitting its premature event.
    fn enforce_open_bound(&mut self, events: &mut Vec<NetworkEvent>) {
        let max = self.st.scfg.max_open_messages;
        let horizon = self.st.horizon(self.st.scfg.idle_close);
        let mut closed = Vec::new();
        while max > 0 && self.st.n_open > max {
            let groups = self.st.groups.iter().enumerate();
            let oldest = groups
                .filter_map(|(s, g)| Some((g.as_ref()?, s)))
                .filter(|(g, _)| g.end >= horizon)
                .min_by_key(|(g, _)| (g.end, g.members.first().copied()))
                .map(|(_, s)| s);
            let Some(c) = oldest.and_then(|s| self.close_slot(s, CloseReason::ForceClosed)) else {
                break;
            };
            self.n_force_closed.inc();
            closed.push(c);
        }
        closed.sort_by_key(|(ev, _)| ev.start);
        self.finalize(closed, events);
    }

    /// Close and emit every remaining group (end of the feed); their
    /// provenance drains through [`take_provenance`](Self::take_provenance).
    pub fn finish(&mut self) -> Vec<NetworkEvent> {
        (self.st.recent, self.st.bodies, self.st.n_open) = Default::default();
        let closed = self.sweep(CloseReason::Finish);
        let mut events = Vec::new();
        self.finalize(closed, &mut events);
        events
    }

    // ------------------------------------------------- checkpoint/restore --

    /// Snapshot this digester's state, its counters and the ingest layer
    /// in front of it (see [`crate::checkpoint`] for the file format).
    pub(crate) fn checkpoint(
        &self,
        reorder: &ReorderBuffer,
        ingest: IngestState,
    ) -> StreamSnapshot {
        StreamSnapshot {
            knowledge_fp: *self.knowledge_fp.get_or_init(|| self.k.fingerprint()),
            digester: self.st.clone(),
            stats: self.stats(),
            reorder: reorder.clone(),
            ingest,
        }
    }

    /// Rebuild the digester of a snapshot taken by
    /// [`checkpoint`](StreamDigester::checkpoint), its counters registered
    /// in `tel` at their checkpointed values; fails for other knowledge.
    pub(crate) fn resume_with_telemetry(
        k: &'k DomainKnowledge,
        snapshot: &StreamSnapshot,
        tel: &Telemetry,
    ) -> Result<Self, CheckpointError> {
        let mut sd = Self::with_telemetry(k, snapshot.digester.cfg, snapshot.digester.scfg, tel);
        if snapshot.knowledge_fp != *sd.knowledge_fp.get_or_init(|| k.fingerprint()) {
            return Err(CheckpointError::KnowledgeMismatch);
        }
        sd.st = snapshot.digester.clone();
        sd.st
            .stages
            .place_series(k)
            .map_err(CheckpointError::Corrupt)?;
        let (c, s) = (&sd, &snapshot.stats);
        c.n_input.set(s.n_input as u64);
        c.n_dropped.set(s.n_dropped as u64);
        c.n_force_closed.set(s.n_force_closed as u64);
        c.n_inconsistent.set(s.n_inconsistent as u64);
        c.n_quarantined.set(s.n_quarantined as u64);
        c.n_events.set(sd.st.next_event_id);
        Ok(sd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(sd: &mut StreamDigester<'_>, m: &RawMessage) -> Vec<NetworkEvent> {
        sd.push_batch(std::slice::from_ref(m))
    }
    use crate::offline::{learn, OfflineConfig};
    use crate::pipeline::digest;
    use sd_netsim::{Dataset, DatasetSpec};

    fn setup() -> (Dataset, DomainKnowledge) {
        let d = Dataset::generate(DatasetSpec::preset_a().scaled(0.08), &Telemetry::disabled());
        let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
        (d, k)
    }

    /// A digester with `scfg`'s limits and no telemetry.
    fn digester(
        k: &DomainKnowledge,
        cfg: GroupingConfig,
        scfg: StreamConfig,
    ) -> StreamDigester<'_> {
        StreamDigester::with_telemetry(k, cfg, scfg, &Telemetry::disabled())
    }

    /// The keystone property: streaming with a safe idle horizon produces
    /// exactly the batch partition.
    #[test]
    fn streaming_partition_matches_batch() {
        let (d, k) = setup();
        let online = d.online();
        let cfg = GroupingConfig::default();

        let batch_digest = digest(&k, online, &cfg);

        let mut sd = digester(&k, cfg, StreamConfig::default());
        let mut events = Vec::new();
        for m in online {
            events.extend(push(&mut sd, m));
        }
        events.extend(sd.finish());

        assert_eq!(events.len(), batch_digest.events.len());
        // Same partition: compare sorted member-idx sets.
        let norm = |evs: &[NetworkEvent]| {
            let mut v: Vec<Vec<usize>> = evs.iter().map(|e| e.message_idxs.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(norm(&events), norm(&batch_digest.events));
        let total: usize = events.iter().map(|e| e.size()).sum();
        assert_eq!(total, sd_total(online.len(), batch_digest.n_dropped));
    }

    fn sd_total(input: usize, dropped: usize) -> usize {
        input - dropped
    }

    /// Events are emitted progressively, not all at the end.
    #[test]
    fn events_are_emitted_before_the_feed_ends() {
        let (d, k) = setup();
        let online = d.online();
        let mut sd = digester(&k, GroupingConfig::default(), StreamConfig::default());
        let mut early = 0usize;
        for m in &online[..online.len() * 3 / 4] {
            early += push(&mut sd, m).len();
        }
        assert!(early > 0, "no events emitted in the first three quarters");
        let rest = sd.finish();
        assert!(!rest.is_empty());
    }

    /// Open-state size stays bounded by the idle horizon, not the feed
    /// length (the operational reason to stream at all).
    #[test]
    fn open_state_is_bounded() {
        let (d, k) = setup();
        let online = d.online();
        let mut sd = digester(&k, GroupingConfig::default(), StreamConfig::default());
        let mut max_open = 0usize;
        for m in online {
            push(&mut sd, m);
            max_open = max_open.max(sd.open_groups());
        }
        assert!(
            max_open < online.len() / 2,
            "open groups peaked at {max_open} for {} messages",
            online.len()
        );
    }

    /// Open state is what a stage can still link to: after every push,
    /// no more messages are open than were pushed within the idle horizon
    /// of the clock, however long the groups they belong to run.
    #[test]
    fn open_messages_stay_within_the_idle_horizon() {
        let (d, k) = setup();
        let online = d.online();
        let mut sd = digester(&k, GroupingConfig::default(), StreamConfig::default());
        let idle = sd.st.scfg.idle_close;
        let mut from = 0;
        for (i, m) in online.iter().enumerate() {
            push(&mut sd, m);
            while m.ts.seconds_since(online[from].ts) > idle {
                from += 1;
            }
            assert!(
                sd.open_messages() <= i + 1 - from,
                "{} open after message {i}, {} pushed within {idle} s",
                sd.open_messages(),
                i + 1 - from
            );
        }
    }

    #[test]
    fn idle_close_is_clamped_to_safety_floor() {
        let (_, k) = setup();
        let scfg = StreamConfig {
            idle_close: 1,
            max_open_messages: 0,
        };
        let sd = digester(&k, GroupingConfig::default(), scfg);
        assert!(sd.st.scfg.idle_close >= k.temporal.s_max);
        assert!(sd.st.scfg.idle_close >= k.window_secs);
    }

    /// `push_batch` (one augmentation pass over the slice) emits exactly
    /// what the same messages pushed one at a time do.
    #[test]
    fn push_batch_matches_push_loop() {
        let (d, k) = setup();
        let online = d.online();

        let mut one = digester(&k, GroupingConfig::default(), StreamConfig::default());
        let mut e1 = Vec::new();
        for m in online {
            e1.extend(push(&mut one, m));
        }
        e1.extend(one.finish());

        let mut batched = digester(&k, GroupingConfig::default(), StreamConfig::default());
        let mut e2 = batched.push_batch(online);
        e2.extend(batched.finish());

        let norm = |evs: &[NetworkEvent]| {
            let mut v: Vec<Vec<usize>> = evs.iter().map(|e| e.message_idxs.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(norm(&e1), norm(&e2));
    }

    /// One dataset and its knowledge for every proptest case.
    fn shared() -> &'static (Dataset, DomainKnowledge) {
        static SHARED: std::sync::OnceLock<(Dataset, DomainKnowledge)> = std::sync::OnceLock::new();
        SHARED.get_or_init(setup)
    }

    /// What a digester's checkpoint carries of it: its state as JSON and
    /// its counters.
    fn state(sd: &StreamDigester<'_>) -> (String, StreamStats) {
        (serde_json::to_string(&sd.st).unwrap(), sd.stats())
    }

    /// Each emitted event's id, members, score bits and line.
    fn shape(evs: &[NetworkEvent]) -> Vec<(u64, Vec<usize>, u64, String)> {
        let shape = |e: &NetworkEvent| {
            (
                e.id,
                e.message_idxs.clone(),
                e.score.to_bits(),
                e.format_line(),
            )
        };
        evs.iter().map(shape).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Pushing a sorted batch in any chunk split, from single messages
        /// to the whole batch (longer than one internal chunk), emits the
        /// same events, scores, provenance and checkpointed state after
        /// every prefix as one `push_batch` of that prefix.
        #[test]
        fn chunk_splits_push_like_one_batch(
            start in 0usize..20_000,
            len in 1usize..(2 * CHUNK),
            cuts in proptest::collection::vec(0.0f64..1.0, 0..10),
        ) {
            let (d, k) = shared();
            let online = d.online();
            let start = start % online.len();
            let msgs = &online[start..(start + len).min(online.len())];
            let mut cuts: Vec<usize> = cuts.iter().map(|f| (f * msgs.len() as f64) as usize).collect();
            cuts.push(msgs.len());
            cuts.sort_unstable();
            cuts.dedup();
            let traced = || {
                let mut sd = digester(k, GroupingConfig::default(), StreamConfig::default());
                sd.set_trace(true);
                sd
            };
            let (mut split, mut events, mut from) = (traced(), Vec::new(), 0);
            for &to in &cuts {
                events.extend(split.push_batch(&msgs[from..to]));
                from = to;
                let mut whole = traced();
                let whole_events = whole.push_batch(&msgs[..to]);
                proptest::prop_assert_eq!(shape(&events), shape(&whole_events));
                proptest::prop_assert_eq!(state(&split), state(&whole));
                if to == msgs.len() {
                    events.extend(split.finish());
                    let mut all = whole_events;
                    all.extend(whole.finish());
                    proptest::prop_assert_eq!(shape(&events), shape(&all));
                    let records = |sd: &mut StreamDigester<'_>| {
                        let p = sd.take_provenance();
                        p.iter().map(|p| p.to_json()).collect::<Vec<_>>()
                    };
                    proptest::prop_assert_eq!(records(&mut split), records(&mut whole));
                }
            }
        }
    }

    #[test]
    fn unknown_routers_are_counted_not_grouped() {
        let (_, k) = setup();
        let mut sd = digester(&k, GroupingConfig::default(), StreamConfig::default());
        let m = RawMessage::new(
            Timestamp(0),
            "ghost",
            sd_model::ErrorCode::from("X-1-Y"),
            "whatever",
        );
        push(&mut sd, &m);
        assert_eq!(sd.stats().n_dropped, 1);
        assert_eq!(sd.finish().len(), 0);
    }

    /// Wildly out-of-order pushes (which violate the documented
    /// non-decreasing contract) must degrade, never panic.
    #[test]
    fn out_of_order_pushes_never_panic() {
        let (d, k) = setup();
        let online = d.online();
        let mut sd = digester(&k, GroupingConfig::default(), StreamConfig::default());
        let n = online.len().min(2000);
        // Feed a prefix backwards, then forwards again.
        for m in online[..n].iter().rev() {
            push(&mut sd, m);
        }
        for m in &online[..n] {
            push(&mut sd, m);
        }
        let events = sd.finish();
        assert!(!events.is_empty());
    }

    /// The memory guard force-closes the oldest groups and counts them.
    #[test]
    fn max_open_messages_bounds_memory_under_a_stuck_clock() {
        let (d, k) = setup();
        let online = d.online();
        let scfg = StreamConfig {
            idle_close: 0,
            max_open_messages: 64,
        };
        let mut sd = digester(&k, GroupingConfig::default(), scfg);
        // Freeze the clock: replay a window of messages all at one instant,
        // so the idle sweep can never fire.
        let frozen = online[0].ts;
        let (mut peak, mut peak_bodies) = (0usize, 0usize);
        for m in online.iter().take(3000) {
            let mut m = m.clone();
            m.ts = frozen;
            push(&mut sd, &m);
            peak = peak.max(sd.open_messages());
            peak_bodies = peak_bodies.max(sd.st.bodies.iter().flatten().count());
        }
        assert!(
            peak <= 64 + 1,
            "open messages peaked at {peak} despite max_open_messages=64"
        );
        // No body outlives its group, so the bodies held are bounded too.
        assert!(
            peak_bodies <= 64,
            "bodies held peaked at {peak_bodies} despite max_open_messages=64"
        );
        assert!(
            sd.stats().n_force_closed > 0,
            "guard never fired: {:?}",
            sd.stats()
        );
        assert_eq!(sd.stats().n_inconsistent, 0);
    }
}
