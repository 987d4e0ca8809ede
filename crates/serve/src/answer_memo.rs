//! The answer memo: warm requests answered again from their bytes.
//!
//! The loop thread answers a simulate whose trace is in memory and a
//! recommend whose model is loaded (see [`crate::handlers`]). Decoding
//! such a body and encoding its answer is most of what that costs. So
//! the answers the loop computes this way are remembered under their
//! route label (which names the dialect too) and the exact request
//! body, and when the same bytes come again on the same route they are
//! answered from the memo, skipping decode and encode. Only a client
//! that sends a body more than once gains.
//!
//! - A simulate answer is kept without its `sim_ms` value, beside the
//!   [`TraceKey`] it summarizes. It is given only while
//!   [`TraceCache::peek`] still finds that trace, so residency, LRU
//!   order and the trace cache's hit counter move as they do for a
//!   decoded request; otherwise the request takes the decode path.
//! - A recommend answer is kept whole. The model behind it is a slot of
//!   `sa_bench::models` that fills once per process, so the answer to a
//!   body never changes.
//!
//! A body is remembered on its second loop answer, not its first: the
//! first only notes the body's hash in a fixed table of [`SEEN_SLOTS`]
//! slots. So a body that never comes back costs two hashes, two probes
//! and one table write, and copies nothing into the memo.
//!
//! The memo holds at most [`ANSWER_MEMO_BYTES`] in one map. A fill that
//! would take it past the bound clears it first, so eviction is O(1)
//! per fill, amortized, and never scans the map.
//!
//! Keys are client bytes hashed on the loop thread, so they go through
//! std's keyed [`RandomState`].

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::{Arc, Mutex, PoisonError};

use serde::{Deserialize, Serialize};
use sparseadapt::trace_cache::{TraceCache, TraceKey};

use crate::api::SimulateBody;
use crate::handlers::LOOP_BODY_MAX;

/// Most bytes the memo holds: keys, answers and a fixed per-entry
/// share for the map slot and the answer's allocation.
pub const ANSWER_MEMO_BYTES: usize = 4 << 20;

/// Slots of the table that notes a body's first loop answer, indexed by
/// the low bits of its hash: 64 KiB beside the bound.
pub const SEEN_SLOTS: usize = 8192;

/// A remembered answer.
#[derive(Debug)]
pub(crate) enum Answer {
    /// A simulate answer: its body without the `sim_ms` value, and the
    /// trace whose summary it carries.
    Simulate {
        /// The body in the request's dialect.
        body: SimulateBody,
        /// The trace that must still be in memory to give it.
        trace: TraceKey,
    },
    /// A recommend answer: the whole body in the request's dialect.
    Recommend(String),
}

impl Answer {
    /// Whether the answer may be given now: a simulate answer only
    /// while its trace is in memory. The check is a trace-cache peek,
    /// which counts a hit and refreshes the trace's LRU position, as
    /// decoding the request and probing for its trace would.
    fn holds(&self) -> bool {
        match self {
            Answer::Simulate { trace, .. } => TraceCache::global().peek(trace).is_some(),
            Answer::Recommend(_) => true,
        }
    }
}

/// The counters `/metrics` reports under `answer_memo`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnswerMemoStats {
    /// Requests answered from the memo.
    pub hits: u64,
    /// Answers put in the memo: a body's second loop answer, or a
    /// later one once the first was forgotten.
    pub fills: u64,
    /// Answers dropped when a fill cleared the memo.
    pub evictions: u64,
    /// Bytes the remembered answers hold, at most
    /// [`ANSWER_MEMO_BYTES`].
    pub resident_bytes: usize,
}

/// One remembered request and its answer.
#[derive(Debug)]
struct Entry {
    route: &'static str,
    body: Box<[u8]>,
    answer: Arc<Answer>,
}

/// The fixed share of an entry: its map slot and its answer's
/// allocation.
const ENTRY_OVERHEAD: usize = std::mem::size_of::<(u64, Entry)>()
    + std::mem::size_of::<Answer>()
    + 2 * std::mem::size_of::<usize>();

impl Entry {
    fn bytes(&self) -> usize {
        let answer = match &*self.answer {
            Answer::Simulate { body, .. } => body.len(),
            Answer::Recommend(body) => body.len(),
        };
        ENTRY_OVERHEAD + self.body.len() + answer
    }

    fn is(&self, route: &str, body: &[u8]) -> bool {
        self.route == route && *self.body == *body
    }
}

/// Entries by the hash of their key, with their byte total, the table
/// of bodies answered once, and the counters. A hash names one entry:
/// of two keys that collide, the later fill wins.
#[derive(Debug)]
struct Inner {
    map: HashMap<u64, Entry>,
    bytes: usize,
    /// The hash of the last body noted in each slot.
    seen: Box<[u64]>,
    hits: u64,
    fills: u64,
    evictions: u64,
}

/// The bounded answer memo; see the module docs.
#[derive(Debug)]
pub struct AnswerMemo {
    hasher: RandomState,
    bound: usize,
    inner: Mutex<Inner>,
}

impl Default for AnswerMemo {
    fn default() -> Self {
        AnswerMemo::with_bound(ANSWER_MEMO_BYTES)
    }
}

impl AnswerMemo {
    fn with_bound(bound: usize) -> AnswerMemo {
        AnswerMemo {
            hasher: RandomState::new(),
            bound,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                bytes: 0,
                seen: vec![0; SEEN_SLOTS].into_boxed_slice(),
                hits: 0,
                fills: 0,
                evictions: 0,
            }),
        }
    }

    /// A poisoned lock is recovered: every update leaves the map and
    /// its byte total consistent.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The answer remembered for `body` on `route`, if it may be given
    /// now. A body over [`LOOP_BODY_MAX`] is never remembered, so it is
    /// not hashed.
    pub(crate) fn get(&self, route: &str, body: &[u8]) -> Option<Arc<Answer>> {
        if body.len() > LOOP_BODY_MAX {
            return None;
        }
        let hash = self.hasher.hash_one((route, body));
        let mut inner = self.lock();
        let entry = inner.map.get(&hash)?;
        if !entry.is(route, body) || !entry.answer.holds() {
            return None;
        }
        let answer = Arc::clone(&entry.answer);
        inner.hits += 1;
        Some(answer)
    }

    /// Remembers `answer` for `body` on `route` if the body's hash is
    /// the one last noted in its slot of the seen table, and otherwise
    /// notes it there. A remembered answer takes the place of whatever
    /// held its hash, first clearing the memo if it would take it past
    /// the bound. A body over [`LOOP_BODY_MAX`] is not remembered, nor is
    /// an entry larger than the bound, which only forgets the body's
    /// earlier answer.
    pub(crate) fn put(&self, route: &'static str, body: &[u8], answer: Answer) {
        if body.len() > LOOP_BODY_MAX {
            return;
        }
        let hash = self.hasher.hash_one((route, body));
        let mut inner = self.lock();
        let seen = &mut inner.seen[hash as usize % SEEN_SLOTS];
        if std::mem::replace(seen, hash) != hash {
            return;
        }
        let entry = Entry {
            route,
            body: body.into(),
            answer: Arc::new(answer),
        };
        let bytes = entry.bytes();
        if let Some(earlier) = inner.map.remove(&hash) {
            inner.bytes -= earlier.bytes();
        }
        if bytes > self.bound {
            return;
        }
        if inner.bytes + bytes > self.bound {
            inner.evictions += inner.map.len() as u64;
            inner.map = HashMap::new();
            inner.bytes = 0;
        }
        inner.fills += 1;
        inner.bytes += bytes;
        inner.map.insert(hash, entry);
    }

    /// The memo's counters and the bytes it holds now.
    pub fn stats(&self) -> AnswerMemoStats {
        let inner = self.lock();
        AnswerMemoStats {
            hits: inner.hits,
            fills: inner.fills,
            evictions: inner.evictions,
            resident_bytes: inner.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ROUTES: [&str; 2] = ["POST /v1/recommend", "POST /v2/recommend"];

    fn text(answer: &Answer) -> &str {
        match answer {
            Answer::Recommend(body) => body,
            Answer::Simulate { .. } => unreachable!("the tests remember recommend answers"),
        }
    }

    /// Puts `answer` twice: a body's first loop answer is only noted.
    fn remember(memo: &AnswerMemo, route: &'static str, body: &[u8], answer: &str) {
        for _ in 0..2 {
            memo.put(route, body, Answer::Recommend(answer.to_string()));
        }
    }

    /// A request body for a key: one byte repeated, so keys differ in
    /// both content and length.
    fn body(tag: u8) -> Vec<u8> {
        vec![b'a' + tag; 1 + usize::from(tag) * 7]
    }

    proptest! {
        /// Each op is `(put?, route, body tag, answer length)`.
        #[test]
        fn memo_stays_bounded_and_answers_only_what_was_put(
            bound in 500usize..6_000,
            ops in prop::collection::vec((0u8..2, 0..ROUTES.len(), 0u8..12, 0usize..700), 1..300),
        ) {
            let memo = AnswerMemo::with_bound(bound);
            let mut last: HashMap<(usize, u8), String> = HashMap::new();
            for (i, (put, route, tag, len)) in ops.into_iter().enumerate() {
                if put == 1 {
                    let answer = format!("{i:04}{}", "x".repeat(len));
                    remember(&memo, ROUTES[route], &body(tag), &answer);
                    last.insert((route, tag), answer);
                } else if let Some(got) = memo.get(ROUTES[route], &body(tag)) {
                    prop_assert_eq!(Some(text(&got)), last.get(&(route, tag)).map(String::as_str));
                }
                prop_assert!(memo.stats().resident_bytes <= bound);
            }
        }
    }

    #[test]
    fn a_body_is_remembered_on_its_second_answer() {
        let memo = AnswerMemo::default();
        memo.put(ROUTES[0], b"body", Answer::Recommend("first".into()));
        assert!(memo.get(ROUTES[0], b"body").is_none());
        assert_eq!(memo.stats(), AnswerMemoStats::default());
        memo.put(ROUTES[0], b"body", Answer::Recommend("second".into()));
        let got = memo.get(ROUTES[0], b"body").expect("remembered");
        assert_eq!(text(&got), "second");
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.fills), (1, 1));
        // The same bytes on the other route are another body.
        memo.put(ROUTES[1], b"body", Answer::Recommend("other".into()));
        assert!(memo.get(ROUTES[1], b"body").is_none());
    }

    #[test]
    fn a_fill_past_the_bound_clears_the_memo() {
        let memo = AnswerMemo::with_bound(4_000);
        let answer = "x".repeat(200);
        remember(&memo, ROUTES[0], b"first", &answer);
        let mut tag = 0u8;
        while memo.stats().evictions == 0 {
            assert!(memo.get(ROUTES[0], b"first").is_some(), "before fill {tag}");
            remember(&memo, ROUTES[0], &[tag], &answer);
            tag += 1;
        }
        let stats = memo.stats();
        assert_eq!(stats.evictions, u64::from(tag), "every earlier entry went");
        assert_eq!(stats.fills, u64::from(tag) + 1);
        assert!(stats.resident_bytes <= 4_000);
        assert!(memo.get(ROUTES[0], b"first").is_none());
        assert!(
            memo.get(ROUTES[0], &[tag - 1]).is_some(),
            "the fill itself stays"
        );
        // The route is part of the key, and so is every byte.
        assert!(memo.get(ROUTES[1], &[tag - 1]).is_none());
        assert!(memo.get(ROUTES[0], &[tag - 1, b' ']).is_none());
    }

    #[test]
    fn bodies_past_the_loop_bound_are_not_remembered() {
        let memo = AnswerMemo::default();
        let large = vec![b' '; LOOP_BODY_MAX + 1];
        remember(&memo, ROUTES[0], &large, "{}");
        assert!(memo.get(ROUTES[0], &large).is_none());
        assert_eq!(memo.stats(), AnswerMemoStats::default());
    }
}
