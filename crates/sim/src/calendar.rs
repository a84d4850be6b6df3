//! Event-queue backends: the `BinaryHeap` determinism oracle and the
//! calendar queue that replaces it on the dispatch hot path.
//!
//! The scheduler's contract with a backend is small: events are pushed with
//! a unique `(time, seq)` key, popped in ascending key order, and — because
//! [`crate::Scheduler::schedule_at`] clamps to the present — no push ever
//! carries a time below the last popped time. The calendar queue exploits
//! that monotone floor: events hash into power-of-two time buckets of width
//! `1 << shift`, the scan for the minimum starts at the floor's bucket and
//! almost always ends within a probe or two, and the bucket array resizes
//! (recomputing the width from sampled inter-event gaps) so each bucket
//! holds O(1) events regardless of load. Amortized push/pop is O(1) versus
//! the heap's O(log n) with a cache miss per level.
//!
//! The heap stays available as the *oracle*: an explicit [`Backend::Oracle`]
//! in [`crate::SimConfig::backend`] reruns any simulation on the original
//! `BinaryHeap`, and the property suite below drives both backends through
//! identical operation sequences — tie-heavy timestamps, zero-delay pushes
//! mid-drain, cancellations — asserting identical pop streams.

use std::collections::BinaryHeap;

use crate::sched::EventEntry;
use crate::time::Time;

/// Fewest buckets the calendar keeps; also the shrink floor.
const MIN_BUCKETS: usize = 256;
/// Most buckets the calendar grows to (1 Mi buckets ≈ 8 MiB of headers).
const MAX_BUCKETS: usize = 1 << 20;
/// Gap samples taken at resize to pick the bucket width.
const GAP_SAMPLES: usize = 64;

/// Priority-queue interface the scheduler drives. Keys are `(time, seq)`
/// pairs, unique per entry; pops must come out in ascending key order.
///
/// `min_key` takes `&mut self` so implementations may cache the search.
pub trait SchedulerBackend<W> {
    /// Insert an entry. The entry's time is never below the time of the
    /// most recent `pop` (the scheduler clamps to the present).
    fn push(&mut self, e: EventEntry<W>);
    /// Key of the minimum entry, if any.
    fn min_key(&mut self) -> Option<(Time, u64)>;
    /// Remove and return the minimum entry.
    fn pop(&mut self) -> Option<EventEntry<W>>;
    /// Pop the minimum entry if its time is at or before `limit`;
    /// otherwise report the minimum's time (`Err(Some(t))`) or emptiness
    /// (`Err(None)`). One queue probe for the whole dispatch decision;
    /// backends may override the peek-then-pop default.
    fn pop_le(&mut self, limit: Time) -> Result<EventEntry<W>, Option<Time>> {
        match self.min_key() {
            None => Err(None),
            Some((t, _)) if t > limit => Err(Some(t)),
            Some(_) => Ok(self.pop().expect("min_key said non-empty")),
        }
    }
    /// Remove the entry with exactly this key, if present.
    fn cancel(&mut self, time: Time, seq: u64) -> Option<EventEntry<W>>;
    /// Number of queued entries.
    fn len(&self) -> usize;
    /// True when no entries are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The original `BinaryHeap` scheduler queue, kept verbatim as the
/// determinism oracle. `cancel` is O(n) (rebuilds the heap) — acceptable
/// for an oracle; the calendar does it in O(bucket).
pub struct OracleQueue<W> {
    heap: BinaryHeap<EventEntry<W>>,
}

impl<W> OracleQueue<W> {
    pub fn new() -> Self {
        OracleQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<W> Default for OracleQueue<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> SchedulerBackend<W> for OracleQueue<W> {
    fn push(&mut self, e: EventEntry<W>) {
        self.heap.push(e);
    }

    fn min_key(&mut self) -> Option<(Time, u64)> {
        self.heap.peek().map(|e| (e.time, e.seq))
    }

    fn pop(&mut self) -> Option<EventEntry<W>> {
        self.heap.pop()
    }

    fn cancel(&mut self, time: Time, seq: u64) -> Option<EventEntry<W>> {
        let mut v = std::mem::take(&mut self.heap).into_vec();
        let found = v
            .iter()
            .position(|e| e.time == time && e.seq == seq)
            .map(|i| v.swap_remove(i));
        self.heap = BinaryHeap::from(v);
        found
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Calendar queue: events bucketed by `time >> shift`, modulo a
/// power-of-two bucket count. A *day* is one bucket-width of virtual time;
/// a *year* is one full lap of the bucket array. The minimum search walks
/// days forward from a monotone floor, accepting only entries whose day
/// matches the scanned day (entries from later years share the bucket but
/// are skipped); if a whole year is empty the scan has still visited every
/// entry, so the global minimum it tracked on the side is the answer —
/// that is the direct-search fallback for sparse, far-future queues.
///
/// Entries live in a slab (`slots`) threaded into per-bucket intrusive
/// singly-linked lists; a bucket is just the `u32` slab index of its list
/// head. Freed slots go on an intrusive freelist and are reused, so the
/// steady state allocates nothing: no per-entry boxes, no per-bucket
/// buffers, and a resize only relinks `u32`s — entries never move. The
/// empty-day scan reads a dense `u32` head array (16 buckets per cache
/// line), which is what keeps sparse stretches cheap. The slab holds its
/// high-water mark of slots until the queue is dropped.
pub struct CalendarQueue<W> {
    /// Per-bucket list head: slab index, or [`NIL`] when the bucket is
    /// empty.
    heads: Vec<u32>,
    /// Slab of entries; `next` threads both bucket lists and the freelist.
    slots: Vec<Slot<W>>,
    /// Head of the freelist of vacant slots.
    free: u32,
    /// `heads.len() - 1`; bucket index is `day & mask`.
    mask: u64,
    /// Bucket width is `1 << shift` nanoseconds.
    shift: u32,
    len: usize,
    /// Lower bound on the day of every queued entry.
    cur_day: u64,
    /// Time of the most recent pop; days are re-anchored here on resize.
    floor: Time,
    /// The current minimum entry, when known: key plus its exact location,
    /// so `pop` is a direct O(1) unlink with no re-search.
    cached: Option<Cached>,
}

/// Sentinel slab index for "no slot".
const NIL: u32 = u32::MAX;

struct Slot<W> {
    /// `None` while the slot sits on the freelist.
    e: Option<EventEntry<W>>,
    /// Next slot in this bucket's list (or in the freelist).
    next: u32,
}

/// Location-carrying cache of the minimum entry: its slot plus the
/// preceding slot in its bucket's list (`NIL` when it is the head), so
/// `pop` unlinks without walking. Pushes prepend to list heads and patch
/// the cache up; `cancel` and `resize` invalidate it.
#[derive(Clone, Copy)]
struct Cached {
    key: (Time, u64),
    bucket: usize,
    slot: u32,
    prev: u32,
}

impl<W> CalendarQueue<W> {
    pub fn new() -> Self {
        CalendarQueue {
            heads: vec![NIL; MIN_BUCKETS],
            slots: Vec::new(),
            free: NIL,
            mask: (MIN_BUCKETS - 1) as u64,
            // 1 µs buckets until the first resize samples real gaps.
            shift: 10,
            len: 0,
            cur_day: 0,
            floor: 0,
            cached: None,
        }
    }

    fn bucket_of(&self, day: u64) -> usize {
        (day & self.mask) as usize
    }

    /// Rebuild with a bucket count proportional to the population and a
    /// bucket width matched to the median gap between queued event times
    /// (ties collapse the gap to zero and force single-time buckets).
    fn resize(&mut self) {
        // ~2 buckets per entry: with one event per day that keeps a year
        // longer than the populated window, so buckets rarely hold entries
        // from two different years and the min-scan never has to touch (and
        // cache-miss on) a later year's entry just to skip it.
        let target = (self.len * 2)
            .max(1)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);

        // Sample event times (strided, so the sample spans the queue).
        let mut times: Vec<Time> = Vec::with_capacity(GAP_SAMPLES);
        let stride = (self.len / GAP_SAMPLES).max(1);
        let mut i = 0usize;
        'outer: for &h in &self.heads {
            let mut s = h;
            while s != NIL {
                let slot = &self.slots[s as usize];
                if i % stride == 0 {
                    times.push(slot.e.as_ref().expect("linked slot is live").time);
                    if times.len() == GAP_SAMPLES {
                        break 'outer;
                    }
                }
                i += 1;
                s = slot.next;
            }
        }
        times.sort_unstable();
        if times.len() >= 2 {
            let mut gaps: Vec<u64> = times.windows(2).map(|w| w[1] - w[0]).collect();
            gaps.sort_unstable();
            // Consecutive *samples* are `stride` entries apart, so each
            // sampled gap is the sum of ~stride real inter-event gaps;
            // divide it back out or dense queues get buckets `stride`
            // times too wide (and O(stride) scans per pop). The median
            // keeps one huge outlier gap from blowing up the estimate;
            // ties pull it toward zero and hence toward single-time
            // buckets, which is the right direction for tie-heavy loads.
            let per_entry = (gaps[gaps.len() / 2] / stride as u64).max(1);
            self.shift = (63 - per_entry.leading_zeros()).min(40);
        }
        // (< 2 samples: keep the current width.)

        // Relink every live slot into the new bucket array; entries stay
        // put in the slab — a resize moves `u32`s, not events.
        let old = std::mem::replace(&mut self.heads, vec![NIL; target]);
        self.mask = (target - 1) as u64;
        self.cur_day = self.floor >> self.shift;
        self.cached = None;
        for h in old {
            let mut s = h;
            while s != NIL {
                let next = self.slots[s as usize].next;
                let t = self.slots[s as usize]
                    .e
                    .as_ref()
                    .expect("linked slot is live")
                    .time;
                let d = t >> self.shift;
                if d < self.cur_day {
                    self.cur_day = d;
                }
                let idx = self.bucket_of(d);
                self.slots[s as usize].next = self.heads[idx];
                self.heads[idx] = s;
                s = next;
            }
        }
    }

    /// Smallest entry of bucket `b` whose day is exactly `d` (later years
    /// share the bucket but do not count), with its unlink position.
    fn day_min(&self, b: usize, d: u64) -> Option<Cached> {
        let mut best: Option<Cached> = None;
        let mut prev = NIL;
        let mut s = self.heads[b];
        while s != NIL {
            let slot = &self.slots[s as usize];
            let e = slot.e.as_ref().expect("linked slot is live");
            let key = (e.time, e.seq);
            if e.time >> self.shift == d && best.is_none_or(|x| key < x.key) {
                best = Some(Cached {
                    key,
                    bucket: b,
                    slot: s,
                    prev,
                });
            }
            prev = s;
            s = slot.next;
        }
        best
    }

    /// Locate the minimum entry (key and exact location), consulting and
    /// refreshing the cache. Shared by `min_key`, `pop`, and `pop_le`.
    fn find_min(&mut self) -> Option<Cached> {
        if let Some(c) = self.cached {
            return Some(c);
        }
        if self.len == 0 {
            return None;
        }
        let days = self.heads.len() as u64;
        for off in 0..days {
            let d = self.cur_day.saturating_add(off);
            let b = self.bucket_of(d);
            if self.heads[b] == NIL {
                continue;
            }
            if let Some(c) = self.day_min(b, d) {
                self.cur_day = d;
                self.cached = Some(c);
                return Some(c);
            }
        }
        // A whole year scanned without a same-day hit: every remaining
        // entry lies at least a year past the floor. Direct-search the
        // whole slab for the global minimum (rare, sparse-queue regime).
        let mut best: Option<Cached> = None;
        for b in 0..self.heads.len() {
            let mut prev = NIL;
            let mut s = self.heads[b];
            while s != NIL {
                let slot = &self.slots[s as usize];
                let e = slot.e.as_ref().expect("linked slot is live");
                let key = (e.time, e.seq);
                if best.is_none_or(|x| key < x.key) {
                    best = Some(Cached {
                        key,
                        bucket: b,
                        slot: s,
                        prev,
                    });
                }
                prev = s;
                s = slot.next;
            }
        }
        let c = best.expect("non-empty calendar with no entries");
        self.cur_day = c.key.0 >> self.shift;
        self.cached = Some(c);
        Some(c)
    }

    /// Shared tail of `pop`/`pop_le`: unlink the found minimum, advance the
    /// floor, pre-cache the day's next entry, and maybe shrink.
    fn take_min(&mut self, c: Cached) -> EventEntry<W> {
        self.cached = None;
        let e = self.unlink(c);
        debug_assert_eq!((e.time, e.seq), c.key);
        let d = e.time >> self.shift;
        self.floor = e.time;
        self.cur_day = d;
        // Day `d` is the minimum populated day, so its smallest remaining
        // entry (if any) is the next global minimum — cache it for free
        // (the bucket is usually empty now, one `u32` read).
        self.cached = self.day_min(c.bucket, d);
        if self.heads.len() > MIN_BUCKETS && self.len * 8 < self.heads.len() {
            self.resize();
        }
        e
    }

    /// Unlink `c` from its bucket list, park the slot on the freelist, and
    /// return the entry.
    fn unlink(&mut self, c: Cached) -> EventEntry<W> {
        let next = self.slots[c.slot as usize].next;
        if c.prev == NIL {
            self.heads[c.bucket] = next;
        } else {
            self.slots[c.prev as usize].next = next;
        }
        let slot = &mut self.slots[c.slot as usize];
        let e = slot.e.take().expect("linked slot is live");
        slot.next = self.free;
        self.free = c.slot;
        self.len -= 1;
        e
    }
}

impl<W> Default for CalendarQueue<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> SchedulerBackend<W> for CalendarQueue<W> {
    fn push(&mut self, e: EventEntry<W>) {
        let d = e.time >> self.shift;
        if d < self.cur_day {
            self.cur_day = d;
        }
        let key = (e.time, e.seq);
        let idx = self.bucket_of(d);
        // Take a slot from the freelist (the steady state — no allocation)
        // or grow the slab; either way, prepend it to the bucket's list.
        let s = if self.free != NIL {
            let s = self.free;
            let slot = &mut self.slots[s as usize];
            self.free = slot.next;
            slot.e = Some(e);
            slot.next = self.heads[idx];
            s
        } else {
            let s = self.slots.len() as u32;
            assert!(s != NIL, "calendar slab exhausted");
            self.slots.push(Slot {
                e: Some(e),
                next: self.heads[idx],
            });
            s
        };
        self.heads[idx] = s;
        // Cache upkeep. Pushing into an empty queue makes the new entry the
        // minimum outright — that exact case is the resume hot path
        // (`advance(1)` pushes one wakeup into a drained queue), and
        // caching it spares the bucket scan in `min_key`. A key below a
        // known minimum replaces it; otherwise, prepending to the cached
        // entry's own bucket gives the old head a new predecessor.
        if self.len == 0 {
            self.cached = Some(Cached {
                key,
                bucket: idx,
                slot: s,
                prev: NIL,
            });
        } else if let Some(c) = &mut self.cached {
            if key < c.key {
                *c = Cached {
                    key,
                    bucket: idx,
                    slot: s,
                    prev: NIL,
                };
            } else if c.bucket == idx && c.prev == NIL {
                c.prev = s;
            }
        }
        self.len += 1;
        if self.len > self.heads.len() * 2 && self.heads.len() < MAX_BUCKETS {
            self.resize();
        }
    }

    fn min_key(&mut self) -> Option<(Time, u64)> {
        self.find_min().map(|c| c.key)
    }

    fn pop(&mut self) -> Option<EventEntry<W>> {
        let c = self.find_min()?;
        Some(self.take_min(c))
    }

    fn pop_le(&mut self, limit: Time) -> Result<EventEntry<W>, Option<Time>> {
        match self.find_min() {
            None => Err(None),
            Some(c) if c.key.0 > limit => Err(Some(c.key.0)),
            Some(c) => Ok(self.take_min(c)),
        }
    }

    fn cancel(&mut self, time: Time, seq: u64) -> Option<EventEntry<W>> {
        if self.len == 0 {
            return None;
        }
        let d = time >> self.shift;
        let idx = self.bucket_of(d);
        let mut prev = NIL;
        let mut s = self.heads[idx];
        while s != NIL {
            let slot = &self.slots[s as usize];
            let e = slot.e.as_ref().expect("linked slot is live");
            let next = slot.next;
            if e.time == time && e.seq == seq {
                // The unlink below may orphan the cache's `prev` pointer
                // (or remove the cached entry itself); cancellation is
                // rare, so just drop the cache if it referenced this
                // bucket at all.
                if self.cached.is_some_and(|c| c.bucket == idx) {
                    self.cached = None;
                }
                return Some(self.unlink(Cached {
                    key: (time, seq),
                    bucket: idx,
                    slot: s,
                    prev,
                }));
            }
            prev = s;
            s = next;
        }
        None
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Backend selection carried by [`crate::SimConfig`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backend {
    /// The calendar queue (default).
    #[default]
    Calendar,
    /// The original `BinaryHeap` — the determinism oracle.
    Oracle,
}

/// Statically-dispatched backend pair the scheduler embeds.
pub(crate) enum QueueImpl<W> {
    Oracle(OracleQueue<W>),
    Calendar(CalendarQueue<W>),
}

impl<W> QueueImpl<W> {
    pub(crate) fn new(backend: Backend) -> Self {
        match backend {
            Backend::Oracle => QueueImpl::Oracle(OracleQueue::new()),
            Backend::Calendar => QueueImpl::Calendar(CalendarQueue::new()),
        }
    }

    pub(crate) fn backend(&self) -> Backend {
        match self {
            QueueImpl::Oracle(_) => Backend::Oracle,
            QueueImpl::Calendar(_) => Backend::Calendar,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, e: EventEntry<W>) {
        match self {
            QueueImpl::Oracle(q) => q.push(e),
            QueueImpl::Calendar(q) => q.push(e),
        }
    }

    #[inline]
    pub(crate) fn min_key(&mut self) -> Option<(Time, u64)> {
        match self {
            QueueImpl::Oracle(q) => q.min_key(),
            QueueImpl::Calendar(q) => q.min_key(),
        }
    }

    #[cfg(test)]
    pub(crate) fn pop(&mut self) -> Option<EventEntry<W>> {
        match self {
            QueueImpl::Oracle(q) => q.pop(),
            QueueImpl::Calendar(q) => q.pop(),
        }
    }

    #[inline]
    pub(crate) fn pop_le(&mut self, limit: Time) -> Result<EventEntry<W>, Option<Time>> {
        match self {
            QueueImpl::Oracle(q) => q.pop_le(limit),
            QueueImpl::Calendar(q) => q.pop_le(limit),
        }
    }

    pub(crate) fn cancel(&mut self, time: Time, seq: u64) -> Option<EventEntry<W>> {
        match self {
            QueueImpl::Oracle(q) => q.cancel(time, seq),
            QueueImpl::Calendar(q) => q.cancel(time, seq),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            QueueImpl::Oracle(q) => SchedulerBackend::len(q),
            QueueImpl::Calendar(q) => SchedulerBackend::len(q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::EventPayload;

    type W = Vec<u64>;

    fn entry(time: Time, seq: u64) -> EventEntry<W> {
        EventEntry {
            time,
            seq,
            payload: EventPayload::Closure(Box::new(|_, _| {})),
        }
    }

    fn drain_keys(q: &mut impl SchedulerBackend<W>) -> Vec<(Time, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.time, e.seq));
        }
        out
    }

    #[test]
    fn calendar_orders_ties_by_seq() {
        let mut q = CalendarQueue::<W>::new();
        q.push(entry(10, 2));
        q.push(entry(10, 0));
        q.push(entry(5, 1));
        q.push(entry(10, 3));
        assert_eq!(q.min_key(), Some((5, 1)));
        assert_eq!(drain_keys(&mut q), vec![(5, 1), (10, 0), (10, 2), (10, 3)]);
        assert!(q.is_empty());
    }

    #[test]
    fn calendar_survives_year_wrap_and_far_future() {
        let mut q = CalendarQueue::<W>::new();
        // Same bucket, different years (shift 10, 256 buckets ⇒ year is
        // 256 KiB of ns): entries a year apart must not interleave.
        let year = 1u64 << (10 + 8);
        q.push(entry(3 * year + 7, 0));
        q.push(entry(7, 1));
        q.push(entry(year + 7, 2));
        assert_eq!(
            drain_keys(&mut q),
            vec![(7, 1), (year + 7, 2), (3 * year + 7, 0)]
        );
        // Far beyond any year: direct-search fallback.
        q.push(entry(u64::MAX / 2, 5));
        assert_eq!(q.min_key(), Some((u64::MAX / 2, 5)));
        assert_eq!(q.pop().map(|e| e.seq), Some(5));
    }

    #[test]
    fn calendar_resizes_under_load_both_ways() {
        let mut q = CalendarQueue::<W>::new();
        let n = 10_000u64;
        for i in 0..n {
            q.push(entry(i * 3, i));
        }
        assert!(q.heads.len() > MIN_BUCKETS, "growth must have triggered");
        for i in 0..n {
            let e = q.pop().expect("entry present");
            assert_eq!((e.time, e.seq), (i * 3, i));
        }
        assert_eq!(q.heads.len(), MIN_BUCKETS, "shrink must have triggered");
        assert!(q.min_key().is_none());
    }

    #[test]
    fn resize_with_all_equal_timestamps_collapses_to_single_time_buckets() {
        let mut q = CalendarQueue::<W>::new();
        // More than 2x MIN_BUCKETS pushes at one timestamp force a growth
        // resize whose strided gap samples are all ties: every gap is zero,
        // and the width estimator must degrade to its 1 ns floor (shift 0)
        // rather than underflow in the leading-zeros shift computation.
        let n = (MIN_BUCKETS * 2 + 1) as u64;
        for s in 0..n {
            q.push(entry(1 << 20, s));
        }
        assert!(q.heads.len() > MIN_BUCKETS, "growth must have triggered");
        assert_eq!(q.shift, 0, "all-tie samples pick single-time buckets");
        let keys = drain_keys(&mut q);
        assert_eq!(keys.len(), n as usize);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(*k, (1 << 20, i as u64), "ties must drain in seq order");
        }
    }

    #[test]
    fn resize_with_fewer_than_two_samples_keeps_the_width() {
        let mut q = CalendarQueue::<W>::new();
        let before = q.shift;
        // Zero entries: no gap samples at all.
        q.resize();
        assert_eq!(q.shift, before, "empty resize must keep the width");
        // One entry: a single sampled time still yields no gaps.
        q.push(entry(42, 0));
        q.resize();
        assert_eq!(q.shift, before, "one-sample resize must keep the width");
        assert_eq!(q.min_key(), Some((42, 0)));
        assert_eq!(drain_keys(&mut q), vec![(42, 0)]);
    }

    #[test]
    fn cancel_removes_exactly_one_key() {
        let mut q = CalendarQueue::<W>::new();
        for s in 0..10 {
            q.push(entry(100, s));
        }
        assert!(q.cancel(100, 4).is_some());
        assert!(q.cancel(100, 4).is_none(), "already cancelled");
        assert!(q.cancel(101, 5).is_none(), "wrong time");
        let keys = drain_keys(&mut q);
        assert_eq!(keys.len(), 9);
        assert!(!keys.contains(&(100, 4)));
    }

    /// Raw queue-op cost, outside the dispatch loop (run with
    /// `cargo test --release -p rucx-sim -- --ignored profile --nocapture`).
    #[test]
    #[ignore]
    fn profile_drain() {
        use std::time::Instant;
        for round in 0..5 {
            let mut q = CalendarQueue::<W>::new();
            for i in 0..100_000u64 {
                q.push(entry(i, i));
            }
            let t0 = Instant::now();
            while q.pop().is_some() {}
            let cal = t0.elapsed();
            let mut q = OracleQueue::<W>::new();
            for i in 0..100_000u64 {
                q.push(entry(i, i));
            }
            let t0 = Instant::now();
            while q.pop().is_some() {}
            let ora = t0.elapsed();
            let mut q = CalendarQueue::<W>::new();
            for i in 0..100_000u64 {
                q.push(entry(i, i));
            }
            let t0 = Instant::now();
            drop(q);
            eprintln!(
                "round {round}: calendar drain {cal:?}, oracle drain {ora:?}, dealloc-only {:?}",
                t0.elapsed()
            );
        }
    }

    /// Satellite: ≥64 seeded cases driving the calendar and the heap oracle
    /// through identical operation sequences — heavy timestamp ties,
    /// zero-delay (same-time) pushes interleaved mid-drain, and random
    /// cancellations — asserting byte-identical `(time, seq)` pop streams.
    #[test]
    fn calendar_matches_oracle_pop_order() {
        rucx_compat::check::check_with("calendar_matches_oracle", 64, |g| {
            let mut cal = CalendarQueue::<W>::new();
            let mut ora = OracleQueue::<W>::new();
            let mut cal_out = Vec::new();
            let mut ora_out = Vec::new();
            let mut live: Vec<(Time, u64)> = Vec::new();
            let mut seq = 0u64;
            let mut now = 0u64; // monotone floor, mirrors Scheduler::now
            let ops = g.usize(50..400);
            for _ in 0..ops {
                match g.u32(0..10) {
                    // Push: clustered times with heavy ties, occasionally a
                    // zero-delay self-send (exactly `now`).
                    0..=5 => {
                        let t = match g.u32(0..4) {
                            0 => now, // zero-delay
                            1 => now + g.u64(0..4),
                            2 => now + g.u64(0..1000),
                            _ => now + (1 << g.u32(0..30)) + g.u64(0..8),
                        };
                        cal.push(entry(t, seq));
                        ora.push(entry(t, seq));
                        live.push((t, seq));
                        seq += 1;
                    }
                    // Pop from both; keys must match.
                    6..=8 => {
                        let a = cal.pop().map(|e| (e.time, e.seq));
                        let b = ora.pop().map(|e| (e.time, e.seq));
                        assert_eq!(a, b, "pop diverged (case {:#x})", g.case_seed);
                        if let Some(k) = a {
                            assert!(k.0 >= now, "time went backwards");
                            now = k.0;
                            live.retain(|x| *x != k);
                            cal_out.push(k);
                            ora_out.push(k);
                        }
                    }
                    // Cancel a random live key (or a bogus one).
                    _ => {
                        let key = if !live.is_empty() && g.bool() {
                            live[g.usize(0..live.len())]
                        } else {
                            (now + g.u64(0..100), seq + 1000)
                        };
                        let a = cal.cancel(key.0, key.1).map(|e| (e.time, e.seq));
                        let b = ora.cancel(key.0, key.1).map(|e| (e.time, e.seq));
                        assert_eq!(a, b, "cancel diverged (case {:#x})", g.case_seed);
                        if a.is_some() {
                            live.retain(|x| *x != key);
                        }
                    }
                }
                assert_eq!(cal.len(), ora.len());
            }
            // Drain the remainder: the full tail must agree too.
            cal_out.extend(drain_keys(&mut cal));
            ora_out.extend(drain_keys(&mut ora));
            assert_eq!(cal_out, ora_out, "drain diverged (case {:#x})", g.case_seed);
        });
    }
}
