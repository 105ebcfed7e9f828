//! Streaming online digestion.
//!
//! [`StreamDigester`] takes the feed one message at a time, runs it
//! through the per-message grouping step that batch drives too
//! (`grouping::Stages::step`, one sequential pass in both, because each
//! stage's lookback follows the clock), unions the links into its open
//! groups, and *closes* a group, emitting
//! its [`NetworkEvent`], once it has been idle longer than any stage looks
//! back: `Smax` (temporal), `W` (rule-based) and [`CROSS_WINDOW_SECS`]
//! (cross-router). With `idle_close` at least that long, the streaming
//! partition is **identical** to the batch partition of the same input (a
//! property the integration tests assert).
//!
//! Open state is what the stages can still reach. A message is folded
//! into its group's summary (`event::GroupSummary`) on arrival and stays
//! in one lookback deque, with its group root, while it is within
//! `idle_close` of the clock; its body stays only while it is within
//! [`CROSS_WINDOW_SECS`], for the cross-router stage.
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
use sd_model::{RawMessage, SortedMap, SyslogPlus, Timestamp};
use sd_telemetry::{Counter, SpanHandle, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A closed group's event and, when tracing, its provenance record, both
/// still without their event id.
type Closed = (NetworkEvent, Option<EventProvenance>);

/// The digester's complete mutable state, the part a checkpoint carries.
/// The digester works on this struct directly and a [`StreamSnapshot`]
/// serializes it as it is; its maps write their entries in key order, so
/// equal states serialize to equal bytes.
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
    /// The lookback deque of open messages, in sequence order.
    recent: VecDeque<Recent>,
    /// Open group summaries, keyed by root (the sequence number of one
    /// member).
    groups: SortedMap<u64, GroupSummary>,
    /// Lookback state of the grouping stages.
    stages: Stages,
}

/// A lookback entry: sequence number, timestamp, group root and body (the
/// bodies form a suffix), a tuple so checkpoints write short arrays.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Recent(u64, Timestamp, u64, Option<SyslogPlus>);

impl StreamState {
    /// The group root of open message `id`.
    fn root_of(&self, id: u64) -> Option<u64> {
        position(&self.recent, id).map(|j| self.recent[j].2)
    }

    /// The instant `secs` before the clock (saturating: it starts at MIN).
    fn horizon(&self, secs: i64) -> Timestamp {
        Timestamp(self.clock.0.saturating_sub(secs))
    }

    /// Drop the entries past the idle horizon, which no stage can link to
    /// any more, and the bodies past the cross window.
    fn retire(&mut self) {
        let idle = self.horizon(self.scfg.idle_close);
        let cross = self.horizon(CROSS_WINDOW_SECS);
        while self.recent.front().is_some_and(|r| r.1 < idle) {
            self.recent.pop_front();
        }
        let mut j = self.recent.partition_point(|r| r.3.is_none());
        while let Some(r) = self.recent.get_mut(j).filter(|r| r.1 < cross) {
            r.3 = None;
            j += 1;
        }
    }

    /// Drop the entries of a closed group, given its ascending member ids.
    fn drop_entries(&mut self, members: &[usize]) {
        let first = self.recent.front().map_or(u64::MAX, |r| r.0);
        for m in members
            .iter()
            .rev()
            .map(|&m| m as u64)
            .take_while(|&m| m >= first)
        {
            if let Some(j) = position(&self.recent, m) {
                self.recent.remove(j);
            }
        }
    }
}

/// Position of open message `id` in the lookback deque: where its id
/// puts it unless a force-close left a gap, else by binary search.
fn position(recent: &VecDeque<Recent>, id: u64) -> Option<usize> {
    let guess = id.checked_sub(recent.front()?.0)? as usize;
    if recent.get(guess).is_some_and(|r| r.0 == id) {
        return Some(guess);
    }
    recent.binary_search_by_key(&id, |r| r.0).ok()
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
}

/// Registry-backed counters of one digester. Detached atomics when the
/// digester runs without telemetry (they still count — [`StreamStats`] is
/// a view over them either way), registered under `stream.*` names when a
/// [`Telemetry`] handle is attached.
struct StreamCounters {
    n_input: Counter,
    n_dropped: Counter,
    n_force_closed: Counter,
    n_inconsistent: Counter,
    n_quarantined: Counter,
    n_events: Counter,
    links_temporal: Counter,
    links_rule: Counter,
    links_cross: Counter,
}

impl StreamCounters {
    fn new(tel: &Telemetry) -> Self {
        StreamCounters {
            n_input: tel.counter("stream.n_input"),
            n_dropped: tel.counter("stream.n_dropped"),
            n_force_closed: tel.counter("stream.n_force_closed"),
            n_inconsistent: tel.counter("stream.n_inconsistent"),
            n_quarantined: tel.counter("stream.n_quarantined"),
            n_events: tel.counter("stream.n_events"),
            links_temporal: tel.counter("stream.links_temporal"),
            links_rule: tel.counter("stream.links_rule"),
            links_cross: tel.counter("stream.links_cross"),
        }
    }
}

/// Incremental digester over a time-ordered syslog feed.
pub struct StreamDigester<'k> {
    k: &'k DomainKnowledge,
    /// `k.fingerprint()`, computed once: `k` is borrowed immutably for
    /// the digester's life.
    knowledge_fp: u64,
    /// Everything a checkpoint carries.
    st: StreamState,
    /// Augmentation of the lines seen so far. A cache over the fixed
    /// knowledge, so it is never checkpointed; a panic inside
    /// augmentation replaces it with an empty one.
    memo: AugmentMemo,

    /// Drop / degradation / throughput counters ([`StreamStats`] is a
    /// view over these; with telemetry attached they are also exported).
    counters: StreamCounters,

    /// Emit one [`EventProvenance`] per event (drained via
    /// [`StreamDigester::take_provenance`]).
    trace: bool,
    trace_out: Vec<EventProvenance>,
    /// Quarantined-message records pending drain
    /// ([`StreamDigester::take_quarantined`]). Not checkpointed —
    /// records are sidecar output, only the counter survives resume.
    quarantined: Vec<QuarantineRecord>,

    // Cached span handles (cheap no-ops without telemetry).
    sp_push: SpanHandle,
    sp_augment: SpanHandle,
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
            knowledge_fp: k.fingerprint(),
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
                groups: SortedMap::default(),
                stages: Stages::default(),
            },
            memo: AugmentMemo::new(),
            counters: StreamCounters::new(tel),
            trace: false,
            trace_out: Vec::new(),
            quarantined: Vec::new(),
            sp_push: tel.span("stream.push"),
            sp_augment: tel.span("stream.augment"),
            sp_sweep: tel.span("stream.sweep"),
        }
    }

    /// Current counters as a plain [`StreamStats`] value, read from the
    /// registry-backed counters.
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            n_input: self.counters.n_input.get() as usize,
            n_dropped: self.counters.n_dropped.get() as usize,
            n_force_closed: self.counters.n_force_closed.get() as usize,
            n_inconsistent: self.counters.n_inconsistent.get() as usize,
            n_quarantined: self.counters.n_quarantined.get() as usize,
        }
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
        self.st.groups.len()
    }

    /// Number of open messages, those a stage can still link to.
    pub fn open_messages(&self) -> usize {
        self.st.recent.len()
    }

    /// Merge the groups of open messages `a` (the earlier one) and `b`.
    /// The larger group's root survives (ties keep `a`'s), and the smaller
    /// group's open members are re-pointed at it, so every open message
    /// always names its group directly.
    fn union(&mut self, a: u64, b: u64, cause: MergeCause) {
        let (Some(ra), Some(rb)) = (self.st.root_of(a), self.st.root_of(b)) else {
            self.counters.n_inconsistent.inc();
            return;
        };
        match cause {
            MergeCause::Temporal => self.counters.links_temporal.inc(),
            MergeCause::Rule(_, _) => self.counters.links_rule.inc(),
            MergeCause::Cross => self.counters.links_cross.inc(),
        }
        let size = |r| self.st.groups.get(&r).map(|g| g.members.len());
        let (Some(na), Some(nb)) = (size(ra), size(rb)) else {
            self.counters.n_inconsistent.inc();
            return;
        };
        let (root, child) = if nb > na { (rb, ra) } else { (ra, rb) };
        let gchild = (child != root).then(|| self.st.groups.remove(&child));
        let gchild = gchild.flatten();
        let Some(groot) = self.st.groups.get_mut(&root) else {
            return;
        };
        if let Some(g) = gchild {
            let recent = &mut self.st.recent;
            for &m in &g.members {
                if let Some(j) = position(recent, m as u64) {
                    recent[j].2 = root;
                }
            }
            groot.absorb(g);
        }
        // A link inside one group still happened (the batch path records
        // every edge too), so it still counts as provenance.
        groot.links.record(cause);
    }

    /// Feed a slice of messages (non-decreasing in time — route unordered
    /// feeds through [`ReorderBuffer`] first), augmenting them through the
    /// digester's memo before the incremental grouping stages; returns any
    /// events that became closable. Slicing a feed differently emits the
    /// same events: augmentation is per-message pure. Each message
    /// augments under its own `catch_unwind`, and a message whose
    /// augmentation panics is quarantined. A message older than the
    /// clock, which the ingest layer never sends, may find fewer links:
    /// the lookback deque follows the clock, not the message.
    pub fn push_batch(&mut self, msgs: &[RawMessage]) -> Vec<NetworkEvent> {
        let _g = self.sp_push.start();
        let k = self.k;
        // The batch offset passed as idx is a placeholder; the real
        // sequence number is assigned in `push_augmented` (exactly as
        // `push` would have).
        let iso = {
            let _g = self.sp_augment.start();
            self.memo.augment_isolated(k, msgs)
        };
        // Quarantined offsets come in ascending order.
        let mut poisoned = iso.quarantined.into_iter().peekable();
        let mut events = Vec::new();
        for (i, (m, sp)) in msgs.iter().zip(iso.augmented).enumerate() {
            if let Some((_, reason)) = poisoned.next_if(|(q, _)| *q == i) {
                // Counted as input, excluded from the digest exactly as if
                // never fed (no sequence number, no clock advance, no
                // sweep tick), so the surviving output is byte-identical
                // to a feed without the poison message.
                self.counters.n_input.inc();
                self.counters.n_quarantined.inc();
                self.quarantined.push(QuarantineRecord::from_message(
                    self.counters.n_input.get(),
                    m,
                    "augment",
                    &reason,
                ));
                continue;
            }
            events.extend(self.push_augmented(m, sp));
        }
        events
    }

    fn push_augmented(&mut self, m: &RawMessage, sp: Option<SyslogPlus>) -> Vec<NetworkEvent> {
        self.counters.n_input.inc();
        self.st.clock = self.st.clock.max(m.ts);
        self.st.retire();
        let seq = self.st.next_seq;
        let Some(mut sp) = sp else {
            self.counters.n_dropped.inc();
            let closed = self.maybe_sweep();
            return self.finalize(closed);
        };
        sp.idx = seq as usize;
        self.st.next_seq += 1;
        let mut links = Vec::new();
        let st = &mut self.st;
        let recent = &st.recent;
        let lookup = |i| recent[position(recent, i)?].3.as_ref();
        st.stages
            .step(self.k, &st.cfg, &sp, seq, lookup, &mut links);
        // Applied in one fixed order, so group roots and member order do
        // not follow the hash order the rule stage found its links in. A
        // link to a message whose group already closed merges nothing.
        links.sort_unstable();
        links.retain(|&(e, _)| st.root_of(e).is_some_and(|r| st.groups.contains_key(&r)));
        // The message joins the group of its first link, where a union
        // would put its singleton group; every link is then unioned.
        let first = links.first().and_then(|&(e, _)| st.root_of(e));
        let root = first.unwrap_or(seq);
        st.groups.entry(root).or_default().add(self.k, &sp);
        st.recent
            .push_back(Recent(seq, sp.ts, root, st.cfg.cross.then_some(sp)));
        for (earlier, cause) in links {
            self.union(earlier, seq, cause);
        }

        let mut closed = self.maybe_sweep();
        self.enforce_open_bound(&mut closed);
        self.finalize(closed)
    }

    /// Assign emission-order event ids, and hand each provenance record
    /// its id. Runs on every emission path, unconditionally — ids must
    /// not depend on telemetry or tracing being attached.
    fn finalize(&mut self, closed: Vec<Closed>) -> Vec<NetworkEvent> {
        let mut events = Vec::with_capacity(closed.len());
        for (mut ev, prov) in closed {
            self.st.next_event_id += 1;
            ev.id = self.st.next_event_id;
            self.counters.n_events.inc();
            if let Some(p) = prov {
                self.trace_out.push(EventProvenance {
                    event_id: ev.id,
                    ..p
                });
            }
            events.push(ev);
        }
        events
    }

    fn maybe_sweep(&mut self) -> Vec<Closed> {
        self.st.since_sweep += 1;
        if self.st.since_sweep < 256 {
            return Vec::new();
        }
        self.st.since_sweep = 0;
        self.sweep(CloseReason::Idle)
    }

    /// Close one group by root, building its event (and, when tracing,
    /// its provenance) from its summary. `None` if the root has no state.
    fn close_root(&mut self, root: u64, reason: CloseReason) -> Option<Closed> {
        let g = self.st.groups.remove(&root)?;
        let idle_gap = (reason == CloseReason::Idle).then(|| self.st.clock.seconds_since(g.end));
        let horizon = Some(self.st.scfg.idle_close);
        let prov = self
            .trace
            .then(|| g.provenance(self.k, reason, idle_gap, horizon));
        Some((g.event(self.k, g.score(self.k)), prov))
    }

    /// Close every group idle past the horizon, or every group for
    /// [`CloseReason::Finish`].
    fn sweep(&mut self, reason: CloseReason) -> Vec<Closed> {
        let _g = self.sp_sweep.start();
        let close_all = reason == CloseReason::Finish;
        let horizon = self.st.horizon(self.st.scfg.idle_close);
        let closable: Vec<u64> = self
            .st
            .groups
            .iter()
            .filter(|(_, g)| close_all || g.end < horizon)
            .map(|(&root, _)| root)
            .collect();
        let mut closed: Vec<Closed> = closable
            .into_iter()
            .filter_map(|root| self.close_root(root, reason))
            .collect();
        // Total order: `start` alone ties when two groups begin the same
        // second, and a stable sort would then keep HashMap iteration
        // order — nondeterministic across digester instances. The lowest
        // member sequence number breaks ties reproducibly.
        closed.sort_by_key(|(ev, _)| (ev.start, ev.message_idxs.first().copied()));
        closed
    }

    /// Memory-pressure guard: while more than `max_open_messages` messages
    /// are open, force-close the *least recently active* group holding some
    /// (none idle past the horizon does), appending its premature event.
    fn enforce_open_bound(&mut self, closed: &mut Vec<Closed>) {
        let max = self.st.scfg.max_open_messages;
        let horizon = self.st.horizon(self.st.scfg.idle_close);
        let from = closed.len();
        while max > 0 && self.st.recent.len() > max {
            let groups = self.st.groups.iter().filter(|(_, g)| g.end >= horizon);
            let oldest = groups
                .min_by_key(|&(&root, g)| (g.end, root))
                .map(|(&r, _)| r);
            let Some(c) = oldest.and_then(|r| self.close_root(r, CloseReason::ForceClosed)) else {
                break;
            };
            self.counters.n_force_closed.inc();
            self.st.drop_entries(&c.0.message_idxs);
            closed.push(c);
        }
        closed[from..].sort_by_key(|(ev, _)| ev.start);
    }

    /// Close and emit every remaining group (end of the feed). Their
    /// provenance records drain through
    /// [`take_provenance`](Self::take_provenance) like any others.
    pub fn finish(&mut self) -> Vec<NetworkEvent> {
        let closed = self.sweep(CloseReason::Finish);
        self.st.recent.clear();
        self.finalize(closed)
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
            knowledge_fp: self.knowledge_fp,
            digester: self.st.clone(),
            stats: self.stats(),
            reorder: reorder.clone(),
            ingest,
        }
    }

    /// Rebuild the digester of a snapshot taken by
    /// [`checkpoint`](StreamDigester::checkpoint), with counters
    /// registered in `tel` and set to their checkpointed values. Fails if
    /// the snapshot was taken against a different knowledge base.
    pub(crate) fn resume_with_telemetry(
        k: &'k DomainKnowledge,
        snapshot: &StreamSnapshot,
        tel: &Telemetry,
    ) -> Result<Self, CheckpointError> {
        let mut sd = Self::with_telemetry(k, snapshot.digester.cfg, snapshot.digester.scfg, tel);
        if snapshot.knowledge_fp != sd.knowledge_fp {
            return Err(CheckpointError::KnowledgeMismatch);
        }
        sd.st = snapshot.digester.clone();
        let (c, s) = (&sd.counters, &snapshot.stats);
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
            let bodies = sd.st.recent.iter().filter(|r| r.3.is_some()).count();
            peak_bodies = peak_bodies.max(bodies);
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
