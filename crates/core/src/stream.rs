//! Streaming online digestion.
//!
//! [`pipeline::digest`](crate::pipeline::digest) processes a finished
//! batch; real deployments consume the syslog feed continuously. The
//! [`StreamDigester`] accepts one message at a time, runs it through the
//! batch pipeline's own grouping stages (`grouping::Stages`), unions the
//! links into its open groups, and *closes* a group —
//! emitting its [`NetworkEvent`] — once the group has been idle longer
//! than every mechanism that could still grow it:
//!
//! * temporal grouping never bridges a gap above `Smax`,
//! * rule-based grouping looks back at most `W`,
//! * cross-router grouping looks back ~1 s,
//!
//! so with `idle_close ≥ max(Smax, W)` the streaming partition is
//! **identical** to the batch partition of the same input (a property the
//! integration tests assert).
//!
//! # Robustness guarantees
//!
//! A digester that runs for months against a live feed must never abort:
//!
//! * **No panics on any input.** Out-of-order timestamps, unknown
//!   routers and internal invariant violations are *counted* (see
//!   [`StreamStats`]) and tolerated, never `panic!`ed on. Feeds that
//!   reorder beyond what the digester handles natively should go through
//!   the [`reorder`](crate::reorder) buffer / [`ingest`](crate::ingest)
//!   layer first.
//! * **Bounded memory.** [`StreamConfig::max_open_messages`] force-closes
//!   the oldest open groups when a stuck or skewed clock keeps the idle
//!   sweep from firing; each forced closure increments
//!   [`StreamStats::n_force_closed`] so degradation is observable.
//! * **Checkpoint/restore.** [`StreamDigester::checkpoint`] serializes the
//!   complete mutable state (open groups, union-find forest, EWMA
//!   trackers, rule/cross lookback, counters) into a versioned
//!   [`StreamSnapshot`]; [`StreamDigester::resume`] rebuilds an identical
//!   digester from it, so a killed process continues exactly where it
//!   stopped (asserted by the kill/resume integration tests).

use crate::augment::augment_batch_isolated;
use crate::checkpoint::{CheckpointError, DigesterState, StreamSnapshot};
use crate::event::{build_event, NetworkEvent};
use crate::grouping::{GroupingConfig, Stages};
use crate::knowledge::DomainKnowledge;
use crate::priority::score_group;
use crate::provenance::{build_provenance, CloseReason, EventProvenance, GroupProv, MergeCause};
use crate::quarantine::QuarantineRecord;
use sd_model::{RawMessage, SyslogPlus, Timestamp};
use sd_telemetry::{Counter, SpanHandle, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One open (not yet emitted) group.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub(crate) struct OpenGroup {
    /// Member sequence numbers.
    pub(crate) members: Vec<u64>,
    /// Latest member timestamp (drives closure).
    pub(crate) last_ts: Timestamp,
    /// Per-stage link accumulator (provenance; checkpointed so traces
    /// survive resume).
    pub(crate) prov: GroupProv,
}

/// Operational knobs of the streaming digester beyond the grouping
/// configuration itself.
#[derive(Debug, Default, Clone, Copy, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Idle horizon (seconds) after which a group can no longer grow.
    /// Clamped up to `max(Smax, W, cross window)` so closure can never
    /// split a group the batch pipeline would have joined.
    pub idle_close: i64,
    /// Upper bound on concurrently open (buffered, not yet emitted)
    /// messages; `0` means unbounded. When exceeded, the *oldest* open
    /// groups are force-closed — counted in
    /// [`StreamStats::n_force_closed`] — instead of letting `open`/`raw`/
    /// `groups` grow without limit when a stuck or skewed clock stops the
    /// idle sweep from firing.
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
    /// Internal invariant violations tolerated (union-find entry missing,
    /// open member absent). Always 0 in a healthy run; nonzero values
    /// indicate a bug worth filing, but never abort the process.
    pub n_inconsistent: usize,
    /// Messages quarantined because their augmentation shard panicked
    /// even on sequential retry (see [`crate::quarantine`]). They are
    /// excluded from the digest exactly as if never fed; records drain
    /// via [`StreamDigester::take_quarantined`].
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
    groups_opened: Counter,
    groups_closed: Counter,
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
            groups_opened: tel.counter("stream.groups_opened"),
            groups_closed: tel.counter("stream.groups_closed"),
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
    cfg: GroupingConfig,
    scfg: StreamConfig,

    next_seq: u64,
    /// Open messages by sequence number.
    open: HashMap<u64, SyslogPlus>,
    /// Raw copies of open messages (events own their text on emission).
    raw: HashMap<u64, RawMessage>,
    /// Union-find over open sequence numbers.
    parent: HashMap<u64, u64>,
    /// Group state, keyed by current root.
    groups: HashMap<u64, OpenGroup>,

    /// Lookback state of the grouping stages.
    stages: Stages,

    /// Drop / degradation / throughput counters ([`StreamStats`] is a
    /// view over these; with telemetry attached they are also exported).
    counters: StreamCounters,
    clock: Timestamp,
    since_sweep: usize,

    /// Next event id to assign (1-based emission order, checkpointed so
    /// ids never repeat across resume).
    next_event_id: u64,
    /// Emit one [`EventProvenance`] per event (drained via
    /// [`StreamDigester::take_provenance`]).
    trace: bool,
    /// Provenance built at close time, keyed by the group's smallest
    /// member sequence number until [`finalize`](Self::finalize) learns
    /// the event id.
    pending_prov: HashMap<u64, EventProvenance>,
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
    /// New digester with default operational limits. `idle_close` is
    /// clamped up to `max(Smax, W, cross window)` so closure can never
    /// split a group the batch pipeline would have joined.
    pub fn new(k: &'k DomainKnowledge, cfg: GroupingConfig, idle_close: i64) -> Self {
        Self::with_config(
            k,
            cfg,
            StreamConfig {
                idle_close,
                max_open_messages: 0,
            },
        )
    }

    /// New digester with explicit operational limits (see [`StreamConfig`]).
    pub fn with_config(k: &'k DomainKnowledge, cfg: GroupingConfig, scfg: StreamConfig) -> Self {
        Self::with_telemetry(k, cfg, scfg, &Telemetry::disabled())
    }

    /// [`with_config`](Self::with_config) with counters and span timers
    /// registered in `tel` (under `stream.*`). Telemetry never changes
    /// what the digester emits — only what it reports.
    pub fn with_telemetry(
        k: &'k DomainKnowledge,
        cfg: GroupingConfig,
        scfg: StreamConfig,
        tel: &Telemetry,
    ) -> Self {
        let floor = k
            .temporal
            .s_max
            .max(k.window_secs)
            .max(cfg.cross_window_secs);
        StreamDigester {
            k,
            cfg,
            scfg: StreamConfig {
                idle_close: scfg.idle_close.max(floor),
                max_open_messages: scfg.max_open_messages,
            },
            next_seq: 0,
            open: HashMap::new(),
            raw: HashMap::new(),
            parent: HashMap::new(),
            groups: HashMap::new(),
            stages: Stages::default(),
            counters: StreamCounters::new(tel),
            clock: Timestamp(i64::MIN),
            since_sweep: 0,
            next_event_id: 0,
            trace: false,
            pending_prov: HashMap::new(),
            trace_out: Vec::new(),
            quarantined: Vec::new(),
            sp_push: tel.span("stream.push"),
            sp_augment: tel.span("stream.augment"),
            sp_sweep: tel.span("stream.sweep"),
        }
    }

    /// Current counters as a plain [`StreamStats`] value (the legacy
    /// stats struct is now a view over the registry-backed counters).
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
    pub fn take_quarantined(&mut self) -> Vec<QuarantineRecord> {
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

    /// The effective idle-closure horizon in seconds.
    pub fn idle_close_secs(&self) -> i64 {
        self.scfg.idle_close
    }

    /// Number of currently open groups.
    pub fn open_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of currently open (buffered) messages.
    pub fn open_messages(&self) -> usize {
        self.open.len()
    }

    /// Find the union-find root of `x`, or `None` (counted as an internal
    /// inconsistency) when `x` is not in the forest — a long-running
    /// process must degrade by skipping a merge, not abort.
    fn find(&mut self, mut x: u64) -> Option<u64> {
        // Path compression over the hash-based forest.
        let mut path = Vec::new();
        loop {
            let Some(&p) = self.parent.get(&x) else {
                self.counters.n_inconsistent.inc();
                return None;
            };
            if p == x {
                break;
            }
            path.push(x);
            x = p;
        }
        for p in path {
            self.parent.insert(p, x);
        }
        Some(x)
    }

    fn union(&mut self, a: u64, b: u64, cause: MergeCause) {
        let (Some(ra), Some(rb)) = (self.find(a), self.find(b)) else {
            return; // inconsistency already counted by `find`
        };
        match cause {
            MergeCause::Temporal => self.counters.links_temporal.inc(),
            MergeCause::Rule(_, _) => self.counters.links_rule.inc(),
            MergeCause::Cross => self.counters.links_cross.inc(),
        }
        if ra == rb {
            // Already one group: the link still happened (the batch path
            // records every edge too), so it still counts as provenance.
            if let Some(g) = self.groups.get_mut(&ra) {
                g.prov.record(cause);
            }
            return;
        }
        let Some(ga) = self.groups.remove(&ra) else {
            self.counters.n_inconsistent.inc();
            return;
        };
        let Some(gb) = self.groups.remove(&rb) else {
            self.counters.n_inconsistent.inc();
            self.groups.insert(ra, ga);
            return;
        };
        // Attach the smaller under the larger.
        let (root, child, mut groot, gchild) = if ga.members.len() >= gb.members.len() {
            (ra, rb, ga, gb)
        } else {
            (rb, ra, gb, ga)
        };
        self.parent.insert(child, root);
        groot.members.extend(gchild.members);
        groot.last_ts = groot.last_ts.max(gchild.last_ts);
        groot.prov.absorb(&gchild.prov);
        groot.prov.record(cause);
        self.groups.insert(root, groot);
    }

    /// Feed one message (must be non-decreasing in time — route unordered
    /// feeds through [`ReorderBuffer`](crate::reorder::ReorderBuffer)
    /// first); returns any events that became closable. A panic inside
    /// augmentation is caught and the message quarantined instead of
    /// aborting the run.
    pub fn push(&mut self, m: &RawMessage) -> Vec<NetworkEvent> {
        let k = self.k;
        let idx = self.next_seq as usize;
        match sd_model::catch_panic(|| crate::augment::augment(k, idx, m)) {
            Ok(sp) => self.push_augmented(m, sp),
            Err(reason) => {
                self.quarantine_message(m, &reason);
                Vec::new()
            }
        }
    }

    /// Record `m` as quarantined: counted as input, excluded from the
    /// digest exactly as if it had never been fed (no sequence number,
    /// no clock advance, no sweep tick), so the surviving output is
    /// byte-identical to a feed without the poison message.
    fn quarantine_message(&mut self, m: &RawMessage, reason: &str) {
        self.counters.n_input.inc();
        self.counters.n_quarantined.inc();
        self.quarantined.push(QuarantineRecord::from_message(
            self.counters.n_input.get(),
            m,
            "augment",
            reason,
        ));
    }

    /// Feed a slice of messages, augmenting them on `cfg.par` threads
    /// before the (inherently sequential) incremental grouping stages.
    /// Emits exactly what the equivalent sequence of [`push`] calls would:
    /// augmentation is per-message pure, so only the stages that carry
    /// state stay on the calling thread. Each augmentation shard runs
    /// under `catch_unwind`: a poisoned shard is retried sequentially and
    /// only the offending messages are quarantined
    /// ([`take_quarantined`](Self::take_quarantined)).
    ///
    /// [`push`]: StreamDigester::push
    pub fn push_batch(&mut self, msgs: &[RawMessage]) -> Vec<NetworkEvent> {
        let _g = self.sp_push.start();
        let k = self.k;
        // The batch offset passed as idx is a placeholder; the real
        // sequence number is assigned in `push_augmented` (exactly as
        // `push` would have).
        let iso = {
            let _g = self.sp_augment.start();
            augment_batch_isolated(k, msgs, self.cfg.par)
        };
        let poisoned: HashMap<usize, String> = iso.quarantined.into_iter().collect();
        let mut events = Vec::new();
        for (i, (m, sp)) in msgs.iter().zip(iso.augmented).enumerate() {
            if let Some(reason) = poisoned.get(&i) {
                self.quarantine_message(m, reason);
                continue;
            }
            events.extend(self.push_augmented(m, sp));
        }
        events
    }

    fn push_augmented(&mut self, m: &RawMessage, sp: Option<SyslogPlus>) -> Vec<NetworkEvent> {
        self.counters.n_input.inc();
        self.clock = self.clock.max(m.ts);
        let seq = self.next_seq;
        let Some(mut sp) = sp else {
            self.counters.n_dropped.inc();
            let mut events = self.maybe_sweep();
            self.finalize(&mut events);
            return events;
        };
        sp.idx = seq as usize;
        self.next_seq += 1;
        self.parent.insert(seq, seq);
        self.counters.groups_opened.inc();
        self.groups.insert(
            seq,
            OpenGroup {
                members: vec![seq],
                last_ts: sp.ts,
                prov: GroupProv::default(),
            },
        );

        let mut links = Vec::new();
        if self.cfg.temporal {
            self.stages.temporal(self.k, &sp, seq, &mut links);
        }
        if self.cfg.rules {
            self.stages.rule(self.k, &sp, seq, &mut links);
        }
        if self.cfg.cross {
            let lookup = |i| self.open.get(&i);
            let cw = self.cfg.cross_window_secs;
            self.stages.cross(self.k, cw, &sp, seq, lookup, &mut links);
        }
        // A link to a message whose group already closed merges nothing.
        for (earlier, cause) in links {
            if self.open.contains_key(&earlier) {
                self.union(earlier, seq, cause);
            }
        }

        self.open.insert(seq, sp);
        self.raw.insert(seq, m.clone());
        let mut events = self.maybe_sweep();
        self.enforce_open_bound(&mut events);
        self.finalize(&mut events);
        events
    }

    /// Assign emission-order event ids (and resolve pending provenance
    /// records to them). Runs on every emission path, unconditionally —
    /// ids must not depend on telemetry or tracing being attached.
    fn finalize(&mut self, events: &mut [NetworkEvent]) {
        for ev in events.iter_mut() {
            self.next_event_id += 1;
            ev.id = self.next_event_id;
            self.counters.n_events.inc();
            if self.trace {
                let key = ev.message_idxs.first().map(|&i| i as u64).unwrap_or(0);
                if let Some(mut p) = self.pending_prov.remove(&key) {
                    p.event_id = ev.id;
                    self.trace_out.push(p);
                }
            }
        }
        if !self.trace {
            self.pending_prov.clear();
        }
    }

    fn maybe_sweep(&mut self) -> Vec<NetworkEvent> {
        self.since_sweep += 1;
        if self.since_sweep < 256 {
            return Vec::new();
        }
        self.since_sweep = 0;
        self.sweep(false)
    }

    /// Close and emit one group by root. Returns `None` (with the
    /// inconsistency counted) if the root has no state or no live members.
    fn close_root(&mut self, root: u64, reason: CloseReason) -> Option<NetworkEvent> {
        let g = self.groups.remove(&root)?;
        let idle_gap = match reason {
            CloseReason::Idle => Some(self.clock.seconds_since(g.last_ts)),
            _ => None,
        };
        // Materialize a mini-batch preserving SyslogPlus order by seq.
        let mut members = g.members;
        members.sort_unstable();
        let mut batch: Vec<SyslogPlus> = Vec::with_capacity(members.len());
        for s in &members {
            let Some(mut sp) = self.open.remove(s) else {
                self.counters.n_inconsistent.inc();
                continue;
            };
            sp.idx = *s as usize; // global sequence number
            self.raw.remove(s);
            self.parent.remove(s);
            batch.push(sp);
        }
        if batch.is_empty() {
            self.counters.n_inconsistent.inc();
            return None;
        }
        let idxs: Vec<usize> = (0..batch.len()).collect();
        let score = score_group(self.k, &batch, &idxs);
        let ev = build_event(self.k, &batch, &idxs, score);
        self.counters.groups_closed.inc();
        if self.trace {
            // Keyed by the smallest member seq until `finalize` knows the
            // event id (event ids are assigned in emission order, after
            // the per-sweep sort).
            let key = ev.message_idxs.first().map(|&i| i as u64).unwrap_or(0);
            let p = build_provenance(
                self.k,
                &batch,
                &idxs,
                g.prov,
                0,
                reason,
                idle_gap,
                Some(self.scfg.idle_close),
            );
            self.pending_prov.insert(key, p);
        }
        Some(ev)
    }

    fn sweep(&mut self, close_all: bool) -> Vec<NetworkEvent> {
        let _g = self.sp_sweep.start();
        // Saturating: `clock` is i64::MIN until the first accepted
        // message, and extreme parsed timestamps must not overflow.
        let horizon = Timestamp(self.clock.0.saturating_sub(self.scfg.idle_close));
        let closable: Vec<u64> = self
            .groups
            .iter()
            .filter(|(_, g)| close_all || g.last_ts < horizon)
            .map(|(&root, _)| root)
            .collect();
        let reason = if close_all {
            CloseReason::Finish
        } else {
            CloseReason::Idle
        };
        let mut events: Vec<NetworkEvent> = closable
            .into_iter()
            .filter_map(|root| self.close_root(root, reason))
            .collect();
        // Total order: `start` alone ties when two groups begin the same
        // second, and a stable sort would then keep HashMap iteration
        // order — nondeterministic across digester instances. The lowest
        // member sequence number breaks ties reproducibly.
        events.sort_by_key(|a| (a.start, a.message_idxs.first().copied()));
        events
    }

    /// Memory-pressure guard: when more than `max_open_messages` messages
    /// are buffered, force-close the *least recently active* groups until
    /// back under the bound, appending their (possibly premature) events.
    fn enforce_open_bound(&mut self, events: &mut Vec<NetworkEvent>) {
        let max = self.scfg.max_open_messages;
        if max == 0 || self.open.len() <= max {
            return;
        }
        let mut roots: Vec<(Timestamp, u64)> = self
            .groups
            .iter()
            .map(|(&root, g)| (g.last_ts, root))
            .collect();
        roots.sort_unstable();
        let mut forced: Vec<NetworkEvent> = Vec::new();
        for (_, root) in roots {
            if self.open.len() <= max {
                break;
            }
            if let Some(ev) = self.close_root(root, CloseReason::ForceClosed) {
                forced.push(ev);
            }
            self.counters.n_force_closed.inc();
        }
        forced.sort_by_key(|a| a.start);
        events.extend(forced);
    }

    /// Close and emit every remaining group (end of the feed).
    pub fn finish(self) -> Vec<NetworkEvent> {
        self.finish_traced().0
    }

    /// [`finish`](Self::finish), also returning the provenance records of
    /// the final flush (plus any not yet drained). Empty unless tracing
    /// is on.
    pub fn finish_traced(mut self) -> (Vec<NetworkEvent>, Vec<EventProvenance>) {
        let mut events = self.sweep(true);
        self.finalize(&mut events);
        (events, std::mem::take(&mut self.trace_out))
    }

    // ------------------------------------------------- checkpoint/restore --

    /// Snapshot the complete mutable state into a versioned
    /// [`StreamSnapshot`] (see [`crate::checkpoint`] for the file format).
    pub fn checkpoint(&self) -> StreamSnapshot {
        StreamSnapshot::for_digester(self.k, self.export_state())
    }

    /// Rebuild a digester from a snapshot taken by
    /// [`checkpoint`](StreamDigester::checkpoint). Fails if the snapshot
    /// was produced by an incompatible version or against a different
    /// knowledge base.
    pub fn resume(
        k: &'k DomainKnowledge,
        snapshot: &StreamSnapshot,
    ) -> Result<Self, CheckpointError> {
        Self::resume_with_telemetry(k, snapshot, &Telemetry::disabled())
    }

    /// [`resume`](Self::resume) with counters re-registered in `tel` and
    /// restored to their checkpointed values.
    pub fn resume_with_telemetry(
        k: &'k DomainKnowledge,
        snapshot: &StreamSnapshot,
        tel: &Telemetry,
    ) -> Result<Self, CheckpointError> {
        snapshot.verify(k)?;
        Ok(Self::from_state_with(k, snapshot.digester.clone(), tel))
    }

    pub(crate) fn export_state(&self) -> DigesterState {
        fn sorted<K: Ord + Copy, V: Clone>(m: &HashMap<K, V>) -> Vec<(K, V)> {
            let mut v: Vec<(K, V)> = m.iter().map(|(&k, val)| (k, val.clone())).collect();
            v.sort_by_key(|&(k, _)| k);
            v
        }
        DigesterState {
            grouping: self.cfg,
            stream: self.scfg,
            next_seq: self.next_seq,
            next_event_id: self.next_event_id,
            clock: self.clock,
            since_sweep: self.since_sweep,
            stats: self.stats(),
            open: sorted(&self.open),
            raw: sorted(&self.raw),
            parent: sorted(&self.parent),
            groups: sorted(&self.groups),
            trackers: sorted(&self.stages.trackers),
            recent_rules: {
                let mut outer: crate::checkpoint::RulesLookback = self
                    .stages
                    .recent_rules
                    .iter()
                    .map(|(&r, inner)| (r, sorted(inner)))
                    .collect();
                outer.sort_by_key(|&(r, _)| r);
                outer
            },
            recent_cross: {
                let mut outer: Vec<(u32, Vec<(u64, Timestamp)>)> = self
                    .stages
                    .recent_cross
                    .iter()
                    .map(|(&t, q)| (t, q.iter().copied().collect()))
                    .collect();
                outer.sort_by_key(|&(t, _)| t);
                outer
            },
        }
    }

    pub(crate) fn from_state_with(
        k: &'k DomainKnowledge,
        st: DigesterState,
        tel: &Telemetry,
    ) -> Self {
        let counters = StreamCounters::new(tel);
        counters.n_input.set(st.stats.n_input as u64);
        counters.n_dropped.set(st.stats.n_dropped as u64);
        counters.n_force_closed.set(st.stats.n_force_closed as u64);
        counters.n_inconsistent.set(st.stats.n_inconsistent as u64);
        counters.n_quarantined.set(st.stats.n_quarantined as u64);
        counters.n_events.set(st.next_event_id);
        StreamDigester {
            k,
            cfg: st.grouping,
            scfg: st.stream,
            next_seq: st.next_seq,
            open: st.open.into_iter().collect(),
            raw: st.raw.into_iter().collect(),
            parent: st.parent.into_iter().collect(),
            groups: st.groups.into_iter().collect(),
            stages: Stages {
                trackers: st.trackers.into_iter().collect(),
                recent_rules: st
                    .recent_rules
                    .into_iter()
                    .map(|(r, inner)| (r, inner.into_iter().collect()))
                    .collect(),
                recent_cross: st
                    .recent_cross
                    .into_iter()
                    .map(|(t, q)| (t, q.into_iter().collect()))
                    .collect(),
            },
            counters,
            clock: st.clock,
            since_sweep: st.since_sweep,
            next_event_id: st.next_event_id,
            trace: false,
            pending_prov: HashMap::new(),
            trace_out: Vec::new(),
            quarantined: Vec::new(),
            sp_push: tel.span("stream.push"),
            sp_augment: tel.span("stream.augment"),
            sp_sweep: tel.span("stream.sweep"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::{learn, OfflineConfig};
    use crate::pipeline::digest;
    use sd_netsim::{Dataset, DatasetSpec};

    fn setup() -> (Dataset, DomainKnowledge) {
        let d = Dataset::generate(DatasetSpec::preset_a().scaled(0.08));
        let k = learn(&d.configs, d.train(), &OfflineConfig::dataset_a());
        (d, k)
    }

    /// The keystone property: streaming with a safe idle horizon produces
    /// exactly the batch partition.
    #[test]
    fn streaming_partition_matches_batch() {
        let (d, k) = setup();
        let online = d.online();
        let cfg = GroupingConfig::default();

        let batch_digest = digest(&k, online, &cfg);

        let mut sd = StreamDigester::new(&k, cfg, 0);
        let mut events = Vec::new();
        for m in online {
            events.extend(sd.push(m));
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
        let mut sd = StreamDigester::new(&k, GroupingConfig::default(), 0);
        let mut early = 0usize;
        for m in &online[..online.len() * 3 / 4] {
            early += sd.push(m).len();
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
        let mut sd = StreamDigester::new(&k, GroupingConfig::default(), 0);
        let mut max_open = 0usize;
        for m in online {
            sd.push(m);
            max_open = max_open.max(sd.open_groups());
        }
        assert!(
            max_open < online.len() / 2,
            "open groups peaked at {max_open} for {} messages",
            online.len()
        );
    }

    #[test]
    fn idle_close_is_clamped_to_safety_floor() {
        let (_, k) = setup();
        let sd = StreamDigester::new(&k, GroupingConfig::default(), 1);
        assert!(sd.idle_close_secs() >= k.temporal.s_max);
        assert!(sd.idle_close_secs() >= k.window_secs);
    }

    /// `push_batch` (parallel augmentation) emits exactly what the same
    /// messages pushed one at a time do.
    #[test]
    fn push_batch_matches_push_loop() {
        let (d, k) = setup();
        let online = d.online();

        let mut one = StreamDigester::new(&k, GroupingConfig::default(), 0);
        let mut e1 = Vec::new();
        for m in online {
            e1.extend(one.push(m));
        }
        e1.extend(one.finish());

        let cfg = GroupingConfig {
            par: sd_model::Parallelism::with_threads(4),
            ..GroupingConfig::default()
        };
        let mut batched = StreamDigester::new(&k, cfg, 0);
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
        let mut sd = StreamDigester::new(&k, GroupingConfig::default(), 0);
        let m = RawMessage::new(
            Timestamp(0),
            "ghost",
            sd_model::ErrorCode::from("X-1-Y"),
            "whatever",
        );
        sd.push(&m);
        assert_eq!(sd.stats().n_dropped, 1);
        assert_eq!(sd.finish().len(), 0);
    }

    /// Wildly out-of-order pushes (which violate the documented
    /// non-decreasing contract) must degrade, never panic.
    #[test]
    fn out_of_order_pushes_never_panic() {
        let (d, k) = setup();
        let online = d.online();
        let mut sd = StreamDigester::new(&k, GroupingConfig::default(), 0);
        let n = online.len().min(2000);
        // Feed a prefix backwards, then forwards again.
        for m in online[..n].iter().rev() {
            sd.push(m);
        }
        for m in &online[..n] {
            sd.push(m);
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
        let mut sd = StreamDigester::with_config(&k, GroupingConfig::default(), scfg);
        // Freeze the clock: replay a window of messages all at one instant,
        // so the idle sweep can never fire.
        let frozen = online[0].ts;
        let mut peak = 0usize;
        for m in online.iter().take(3000) {
            let mut m = m.clone();
            m.ts = frozen;
            sd.push(&m);
            peak = peak.max(sd.open_messages());
        }
        assert!(
            peak <= 64 + 1,
            "open messages peaked at {peak} despite max_open_messages=64"
        );
        assert!(
            sd.stats().n_force_closed > 0,
            "guard never fired: {:?}",
            sd.stats()
        );
        assert_eq!(sd.stats().n_inconsistent, 0);
    }

    /// checkpoint() → resume() roundtrips the full digester state: the
    /// resumed digester emits exactly what the original would have.
    #[test]
    fn checkpoint_resume_is_exact() {
        let (d, k) = setup();
        let online = d.online();
        let cut = online.len() / 2;

        let mut uninterrupted = StreamDigester::new(&k, GroupingConfig::default(), 0);
        let mut e1 = Vec::new();
        for m in online {
            e1.extend(uninterrupted.push(m));
        }
        e1.extend(uninterrupted.finish());

        let mut first = StreamDigester::new(&k, GroupingConfig::default(), 0);
        let mut e2 = Vec::new();
        for m in &online[..cut] {
            e2.extend(first.push(m));
        }
        let snap = first.checkpoint();
        drop(first); // the "kill"
        let json = snap.to_json().expect("snapshot serializes");
        let snap = StreamSnapshot::from_json(&json).expect("snapshot parses");
        let mut second = StreamDigester::resume(&k, &snap).expect("resume");
        for m in &online[cut..] {
            e2.extend(second.push(m));
        }
        e2.extend(second.finish());

        let norm = |evs: &[NetworkEvent]| {
            let mut v: Vec<Vec<usize>> = evs.iter().map(|e| e.message_idxs.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(norm(&e1), norm(&e2));
    }
}
