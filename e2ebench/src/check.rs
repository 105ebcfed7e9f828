//! Output checks: exactly-once membership of stream events, and failed
//! operations against the batch partition of the clean feed.

use sd_model::RawMessage;
use std::collections::{HashMap, VecDeque};
use syslogdigest::{augment, DomainKnowledge, NetworkEvent, ReorderBuffer};

/// Marks a message that is in no event.
const NONE: u32 = u32::MAX;

/// Event index per message: `events[e].message_idxs` index a message
/// space of `n` entries.
pub fn partition(events: &[NetworkEvent], n: usize) -> Vec<u32> {
    let mut of = vec![NONE; n];
    for (e, ev) in events.iter().enumerate() {
        for &i in &ev.message_idxs {
            of[i] = e as u32;
        }
    }
    of
}

/// Whether the stream events hold every accepted message (sequence
/// numbers `0..accepted`) exactly once.
pub fn exactly_once(events: &[NetworkEvent], accepted: usize) -> bool {
    let mut seen = vec![false; accepted];
    for ev in events {
        for &s in &ev.message_idxs {
            match seen.get_mut(s) {
                Some(slot) if !*slot => *slot = true,
                _ => return false,
            }
        }
    }
    seen.iter().all(|&s| s)
}

/// The messages a stream digester numbers `0, 1, …`: the feed replayed
/// through the same reorder buffer, minus those augmentation drops.
pub fn stream_sequence(k: &DomainKnowledge, lines: &str, max_skew: i64) -> Vec<RawMessage> {
    let mut rb = ReorderBuffer::new(max_skew);
    let mut out = Vec::new();
    for line in lines.lines() {
        if let Ok(m) = RawMessage::parse_line(line) {
            rb.push(m, &mut out);
        }
    }
    rb.flush(&mut out);
    out.retain(|m| augment(k, 0, m).is_some());
    out
}

/// Map each stream sequence number to the index of the same message in
/// `clean`; equal messages are matched in order. `NONE` for a message
/// that the clean feed does not hold.
pub fn match_to_clean(clean: &[RawMessage], seq: &[RawMessage]) -> Vec<u32> {
    let mut slots: HashMap<String, VecDeque<u32>> = HashMap::new();
    for (i, m) in clean.iter().enumerate() {
        slots.entry(m.to_line()).or_default().push_back(i as u32);
    }
    seq.iter()
        .map(|m| {
            slots
                .get_mut(&m.to_line())
                .and_then(VecDeque::pop_front)
                .unwrap_or(NONE)
        })
        .collect()
}

/// Failed operations, by kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Failures {
    pub lost: u64,
    pub split: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.lost + self.split
    }
}

/// Failed operations: messages of the reference partition that are in
/// no observed event (`lost`), or whose observed event does not hold
/// exactly the members of their reference event that were observed
/// (`split`). Both slices are indexed by the same message space.
pub fn failures(reference: &[u32], observed: &[u32]) -> Failures {
    // For each event on either side: the one event it maps to on the
    // other side, or `MIXED` once it maps to two.
    const MIXED: u32 = u32::MAX - 1;
    fn note(map: &mut HashMap<u32, u32>, from: u32, to: u32) {
        map.entry(from)
            .and_modify(|t| {
                if *t != to {
                    *t = MIXED;
                }
            })
            .or_insert(to);
    }
    let mut ref_to_obs: HashMap<u32, u32> = HashMap::new();
    let mut obs_to_ref: HashMap<u32, u32> = HashMap::new();
    for (&r, &o) in reference.iter().zip(observed) {
        if r != NONE && o != NONE {
            note(&mut ref_to_obs, r, o);
            note(&mut obs_to_ref, o, r);
        }
    }
    let mut f = Failures::default();
    for (&r, &o) in reference.iter().zip(observed) {
        if r == NONE {
            continue;
        }
        if o == NONE {
            f.lost += 1;
        } else if ref_to_obs[&r] == MIXED || obs_to_ref[&o] == MIXED {
            f.split += 1;
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_lost_and_split_members() {
        // Reference: {0,1,2} {3,4}; observed drops 1 and splits {3,4}.
        let reference = [0, 0, 0, 1, 1, NONE];
        let observed = [7, NONE, 7, 8, 9, 5];
        assert_eq!(
            failures(&reference, &observed),
            Failures { lost: 1, split: 2 }
        );
        // Merging two reference events fails all their members.
        assert_eq!(failures(&[0, 1], &[3, 3]), Failures { lost: 0, split: 2 });
        assert_eq!(failures(&[0, 0, 1], &[4, 4, 5]).total(), 0);
    }

    #[test]
    fn equal_messages_match_in_order() {
        let m = RawMessage::parse_line("2010-01-10 00:00:15 r1 LINK-3-UPDOWN down").unwrap();
        let n = RawMessage::parse_line("2010-01-10 00:00:16 r1 LINK-3-UPDOWN up").unwrap();
        let clean = [m.clone(), m.clone(), n.clone()];
        assert_eq!(
            match_to_clean(&clean, &[m.clone(), n, m.clone(), m]),
            [0, 2, 1, NONE]
        );
    }
}
