//! A deterministic future-event list.
//!
//! [`EventQueue`] is a priority queue of `(time, payload)` pairs. Scheduled
//! events can be cancelled by the [`EventId`] returned at insertion time.
//!
//! # Ordering contract
//!
//! Every schedule is stamped with a monotonically increasing **sequence
//! number**, and pops follow the strict total order **`(time, sequence)`
//! ascending** — never the queue's internal layout. Consequences callers may
//! rely on:
//!
//! * events that share a timestamp pop in insertion order (FIFO), even
//!   when scheduling interleaves with popping;
//! * the order is a *total* order: two distinct events never compare equal,
//!   so a simulation's event trace is a pure function of its schedule
//!   calls.
//!
//! This contract is what the sharded engine's interleaving discipline rests
//! on: each shard's queue replays identically in isolation, and the
//! cluster's cross-shard tie-break (arrivals first, then lowest shard id)
//! composes with `(time, sequence)` into a total order over the whole
//! cluster — which is why a one-shard cluster is byte-identical to the
//! pre-sharding engine and an N-shard run is reproducible at any thread
//! count.
//!
//! # Implementation
//!
//! The queue is a binary min-heap on `(time, sequence)`. The engine keeps
//! one queue per shard, and a shard's pending population is small — a few
//! events per instance (iteration completions, transfers, fleet ticks);
//! trace arrivals never enter it — so a heap's `O(log n)` schedule and pop
//! touch only a handful of cache lines, and its head is an `O(1)` peek.
//!
//! Cancellation is O(1) without hashing: every pending event owns a slot in
//! a generation-stamped slot table and [`EventId`] packs `(slot, generation)`.
//! A cancelled entry becomes a tombstone that stays in the heap until it
//! surfaces at the top, where peeks and pops skim it; tombstones are also
//! swept wholesale whenever they outnumber live events — so memory tracks
//! the live population, not the cancellation history.
//!
//! # Barrier events
//!
//! A scheduled event may be flagged as a **barrier**
//! ([`EventQueue::schedule_barrier`]): an event whose handling can reach
//! beyond its own scheduling domain (in the engine: cross-shard or
//! cross-region landings, fleet transitions, autoscaler ticks, and batch
//! completions that may fire a phase transition). Barriers pop exactly
//! like ordinary events; additionally the queue maintains a secondary
//! min-heap over them so a windowed parallel executor can ask, in O(1),
//! for the earliest pending barrier ([`EventQueue::peek_barrier_time`]) —
//! the lookahead bound below which every pending event is safe to drain
//! without global coordination. Cancelled barriers are removed lazily
//! (a dead-set consulted when they surface at the heap top).

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};

use crate::time::SimTime;

pub mod reference;

/// Identifier of a scheduled event, used for cancellation.
///
/// Packs the event's slot index and the slot's generation at allocation
/// time, so a handle to an event that has fired (or been cancelled and
/// reaped) can never alias a later event that reuses the slot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, generation: u32) -> Self {
        EventId((u64::from(generation) << 32) | u64::from(slot))
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A pending event: the `(time, seq)` pair is its position in the total
/// order, `slot` points at its cancellation slot.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    slot: u32,
    /// Whether this event is a barrier (see the module docs): tracked in
    /// the secondary barrier heap for `peek_barrier_time`.
    barrier: bool,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    /// Reversed `(time, seq)`: `BinaryHeap` is a max-heap, so the earliest
    /// event sits at the top.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Free,
    Live,
    Cancelled,
}

/// Cancellation slot: `generation` advances every time the slot is reaped,
/// invalidating any [`EventId`] minted for a prior occupant.
#[derive(Clone, Copy)]
struct Slot {
    generation: u32,
    state: SlotState,
    /// The occupant's sequence number and barrier flag — needed at
    /// cancellation time to mark the barrier-heap entry dead.
    seq: u64,
    barrier: bool,
}

/// Compaction slack: a wholesale tombstone sweep runs only once tombstones
/// exceed `live + COMPACT_SLACK`, so small queues never churn.
const COMPACT_SLACK: usize = 32;

/// The future-event list of a discrete-event simulation.
///
/// # Examples
///
/// ```
/// use pascal_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), "late");
/// q.schedule(SimTime::from_nanos(10), "early");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.as_nanos(), e), (10, "early"));
/// ```
pub struct EventQueue<E> {
    /// Every physically present entry, live or tombstoned, earliest on top.
    heap: BinaryHeap<Entry<E>>,
    /// Cancellation slots, indexed by `EventId::slot`.
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    /// Entries still physically present whose slot has been cancelled.
    tombstones: usize,
    /// Pending (scheduled, not fired, not cancelled) events.
    live: usize,
    /// Secondary min-heap over pending barrier events, by `(time, seq)`.
    barriers: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Sequence numbers of cancelled barriers still in `barriers`,
    /// skimmed lazily when they surface at the heap top.
    dead_barriers: HashSet<u64>,
    /// Schedules so far; also the next sequence number.
    next_seq: u64,
    /// Events popped so far.
    pops: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            tombstones: 0,
            live: 0,
            barriers: BinaryHeap::new(),
            dead_barriers: HashSet::new(),
            next_seq: 0,
            pops: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current virtual time: the timestamp of the most recently popped
    /// event (or zero before any pop).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn alloc_slot(&mut self, seq: u64, barrier: bool) -> (u32, u32) {
        if let Some(slot) = self.free_slots.pop() {
            let s = &mut self.slots[slot as usize];
            s.state = SlotState::Live;
            s.seq = seq;
            s.barrier = barrier;
            (slot, s.generation)
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                generation: 0,
                state: SlotState::Live,
                seq,
                barrier,
            });
            (slot, 0)
        }
    }

    /// Reaps a slot after its entry is physically gone (fired or purged),
    /// bumping the generation so stale [`EventId`]s cannot alias the next
    /// occupant.
    fn reap_slot(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.state = SlotState::Free;
        s.generation = s.generation.wrapping_add(1);
        self.free_slots.push(slot);
    }

    /// Schedules `payload` to fire at `time` and returns a cancellation handle.
    ///
    /// Scheduling in the past is a logic error.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`Self::now`].
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        self.schedule_impl(time, payload, false)
    }

    /// Schedules `payload` as a **barrier** event (see the module docs):
    /// identical pop behaviour, but additionally tracked so
    /// [`Self::peek_barrier_time`] can report the earliest pending barrier
    /// in O(1).
    pub fn schedule_barrier(&mut self, time: SimTime, payload: E) -> EventId {
        self.schedule_impl(time, payload, true)
    }

    /// Schedules `payload`, flagged as a barrier when `barrier` is true —
    /// for call sites that decide the classification dynamically.
    pub fn schedule_flagged(&mut self, time: SimTime, payload: E, barrier: bool) -> EventId {
        self.schedule_impl(time, payload, barrier)
    }

    fn schedule_impl(&mut self, time: SimTime, payload: E, barrier: bool) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule an event at {time:?} before current time {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let (slot, generation) = self.alloc_slot(seq, barrier);
        self.live += 1;
        if barrier {
            self.barriers.push(Reverse((time, seq)));
        }
        self.heap.push(Entry {
            time,
            seq,
            slot,
            barrier,
            payload,
        });
        EventId::new(slot, generation)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired or been cancelled.
    /// Cancelling an already-fired event is a no-op that returns `false`.
    /// The entry becomes a tombstone that is compacted away — skimmed when
    /// it surfaces at the heap top, or swept once tombstones outnumber live
    /// events — instead of living until its timestamp.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let slot = id.slot() as usize;
        match self.slots.get_mut(slot) {
            Some(s) if s.generation == id.generation() && s.state == SlotState::Live => {
                s.state = SlotState::Cancelled;
                if s.barrier {
                    self.dead_barriers.insert(s.seq);
                }
                self.live -= 1;
                self.tombstones += 1;
                if self.tombstones > self.live + COMPACT_SLACK {
                    self.compact();
                }
                true
            }
            _ => false,
        }
    }

    /// Purges every tombstone from the heap, reaping their slots. Runs only
    /// when tombstones outnumber live events, so its cost amortizes to O(1)
    /// per cancellation.
    fn compact(&mut self) {
        let mut reaped: Vec<u32> = Vec::with_capacity(self.tombstones);
        let slots = &self.slots;
        self.heap.retain(|e| {
            let dead = slots[e.slot as usize].state == SlotState::Cancelled;
            if dead {
                reaped.push(e.slot);
            }
            !dead
        });
        self.tombstones -= reaped.len();
        for slot in reaped {
            self.reap_slot(slot);
        }
        debug_assert_eq!(self.tombstones, 0, "compaction must purge every tombstone");
    }

    /// Drops tombstones from the heap top so the top entry, if any, is live.
    fn skim(&mut self) {
        if self.tombstones == 0 {
            return;
        }
        while let Some(e) = self.heap.peek() {
            let slot = e.slot;
            if self.slots[slot as usize].state != SlotState::Cancelled {
                return;
            }
            self.heap.pop();
            self.tombstones -= 1;
            self.reap_slot(slot);
        }
    }

    /// Pops the earliest pending event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is exhausted. Cancelled events are
    /// silently discarded.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skim();
        let entry = self.heap.pop()?;
        self.reap_slot(entry.slot);
        self.live -= 1;
        self.pops += 1;
        if entry.barrier {
            // Pops follow the global (time, seq) order, so a popping
            // barrier is the minimum pending barrier: it sits at the heap
            // top once cancelled predecessors are skimmed away.
            self.skim_dead_barriers();
            let top = self.barriers.pop();
            debug_assert_eq!(top, Some(Reverse((entry.time, entry.seq))));
        }
        debug_assert!(entry.time >= self.now, "event queue went back in time");
        self.now = entry.time;
        Some((entry.time, entry.payload))
    }

    /// The timestamp of the next pending (non-cancelled) event, if any.
    ///
    /// This peeks past cancelled entries without firing anything.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skim();
        self.heap.peek().map(|e| e.time)
    }

    /// Whether the next pending event (the one [`Self::pop`] would return)
    /// is a barrier.
    pub fn peek_is_barrier(&mut self) -> bool {
        self.skim();
        self.heap.peek().is_some_and(|e| e.barrier)
    }

    /// The timestamp of the earliest pending (non-cancelled) barrier
    /// event, if any. O(1) amortized: reads the barrier heap top after
    /// lazily discarding cancelled entries.
    pub fn peek_barrier_time(&mut self) -> Option<SimTime> {
        self.skim_dead_barriers();
        self.barriers.peek().map(|&Reverse((t, _))| t)
    }

    /// Discards cancelled barriers sitting at the barrier-heap top.
    fn skim_dead_barriers(&mut self) {
        while let Some(&Reverse((_, seq))) = self.barriers.peek() {
            if self.dead_barriers.remove(&seq) {
                self.barriers.pop();
            } else {
                return;
            }
        }
    }

    /// Number of pending events; cancelled entries are not counted.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events scheduled over the queue's lifetime (cancelled ones
    /// included) — a deterministic work counter.
    #[must_use]
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Events popped over the queue's lifetime — a deterministic work
    /// counter.
    #[must_use]
    pub fn popped(&self) -> u64 {
        self.pops
    }

    /// Physically stored entries (live + not-yet-compacted tombstones).
    /// Exposed so tests can assert tombstone compaction actually bounds
    /// memory; not part of the scheduling contract.
    #[doc(hidden)]
    #[must_use]
    pub fn physical_len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::reference::HeapEventQueue;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3u32);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100u32 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn time_sequence_order_holds_when_scheduling_interleaves_with_popping() {
        // The (time, sequence) contract is not just about batch inserts:
        // an event scheduled *between* pops at an already-populated
        // timestamp still sorts after everything previously scheduled
        // there — its sequence number is larger — and before anything
        // scheduled later. This is the exact property the engine's
        // same-timestamp handler chains (offload completes → reload
        // scheduled at the same instant) rely on.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(10);
        q.schedule(t, "first");
        q.schedule(t, "second");
        assert_eq!(q.pop().map(|(_, e)| e), Some("first"));
        // Scheduled mid-drain at the same (current) timestamp: runs after
        // "second", because its sequence number is higher.
        q.schedule(t, "third");
        q.schedule(SimTime::from_nanos(11), "later-time");
        assert_eq!(q.pop().map(|(_, e)| e), Some("second"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("third"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("later-time"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), "a");
        q.schedule(SimTime::from_nanos(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), "a");
        q.pop();
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_handle_does_not_alias_slot_reuse() {
        // After an event fires, its slot is recycled for later schedules;
        // the stale handle's generation no longer matches, so cancelling it
        // must not touch the slot's new occupant.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), "a");
        q.pop();
        let _b = q.schedule(SimTime::from_nanos(2), "b");
        assert!(!q.cancel(a), "stale handle must not cancel the new event");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), "a");
        q.schedule(SimTime::from_nanos(9), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), ());
        q.schedule(SimTime::from_nanos(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn tombstones_are_compacted_not_accumulated() {
        // Cancel far more events than stay live; physical storage must
        // track the live population instead of the cancellation history.
        let mut q = EventQueue::new();
        let mut live = 0usize;
        for i in 0..10_000u64 {
            let id = q.schedule(SimTime::from_nanos(1_000_000 + i), i);
            if i % 100 == 0 {
                live += 1;
            } else {
                q.cancel(id);
            }
        }
        assert_eq!(q.len(), live);
        // The wholesale sweep fires as soon as tombstones exceed
        // live + COMPACT_SLACK, so that is the invariant bound: storage
        // tracks the ~100 live events, not the ~9900 cancellations.
        assert!(
            q.physical_len() <= 2 * live + COMPACT_SLACK,
            "physical {} must stay near live {}",
            q.physical_len(),
            live
        );
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, live);
    }

    #[test]
    fn barrier_peek_tracks_schedules_pops_and_cancels() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_barrier_time(), None);
        q.schedule(SimTime::from_nanos(1), "safe");
        let b5 = q.schedule_barrier(SimTime::from_nanos(5), "barrier-5");
        q.schedule_barrier(SimTime::from_nanos(9), "barrier-9");
        assert_eq!(q.peek_barrier_time(), Some(SimTime::from_nanos(5)));
        assert!(!q.peek_is_barrier(), "next event is the safe one");
        // Cancelling the earlier barrier exposes the later one.
        assert!(q.cancel(b5));
        assert_eq!(q.peek_barrier_time(), Some(SimTime::from_nanos(9)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("safe"));
        assert!(q.peek_is_barrier());
        assert_eq!(q.pop().map(|(_, e)| e), Some("barrier-9"));
        assert_eq!(q.peek_barrier_time(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn spread_over_tens_of_seconds_pops_in_order() {
        // Times scattered over tens of seconds, scheduled out of order;
        // the pop order must still be exactly (time, insertion).
        let mut q = EventQueue::new();
        let times: Vec<u64> = (0..500u64)
            .map(|i| (i * 7_919_998_483) % 30_000_000_000)
            .collect();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(*t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, t)| (*t, i)).collect();
        expected.sort();
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, i)| (t.as_nanos(), i))).collect();
        assert_eq!(got, expected);
    }

    proptest! {
        /// Whatever the insertion order, pops are sorted by time and FIFO
        /// within equal timestamps.
        #[test]
        fn prop_pop_order_is_stable_sort(times in proptest::collection::vec(0u64..50, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(*t), i);
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, t)| (*t, i)).collect();
            expected.sort(); // stable by (time, insertion index)
            let got: Vec<(u64, usize)> =
                std::iter::from_fn(|| q.pop().map(|(t, i)| (t.as_nanos(), i))).collect();
            prop_assert_eq!(got, expected);
        }

        /// Cancelled events never fire.
        #[test]
        fn prop_cancelled_never_fire(
            times in proptest::collection::vec(0u64..50, 1..100),
            cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
        ) {
            let mut q = EventQueue::new();
            let ids: Vec<_> = times
                .iter()
                .enumerate()
                .map(|(i, t)| q.schedule(SimTime::from_nanos(*t), i))
                .collect();
            let mut cancelled = std::collections::HashSet::new();
            for (i, id) in ids.iter().enumerate() {
                if *cancel_mask.get(i).unwrap_or(&false) {
                    q.cancel(*id);
                    cancelled.insert(i);
                }
            }
            while let Some((_, i)) = q.pop() {
                prop_assert!(!cancelled.contains(&i));
            }
        }

        /// The event queue and the reference implementation produce
        /// identical observable behaviour — pop results, cancel return
        /// values, peek times, clocks and lengths — on arbitrary
        /// interleavings of schedule/cancel/pop/peek. The reference is the
        /// executable spec of the (time, sequence) contract; this is the
        /// equivalence proof for the slot-table queue.
        ///
        /// Each op is an `(opcode, operand)` pair: opcodes below 50
        /// schedule at `now + operand` (operands span nanoseconds to a
        /// fifth of a second, so same-time ties and wide spreads both get
        /// hit), 50..=69 cancel the `operand % issued`-th handle, 70..=94
        /// pop, the rest peek.
        #[test]
        fn prop_event_queue_matches_reference_heap(
            ops in proptest::collection::vec((0u32..100, 0u64..200_000_000), 1..400)
        ) {
            let mut queue = EventQueue::new();
            let mut heap = HeapEventQueue::new();
            let mut ids = Vec::new();
            for (n, (opcode, operand)) in ops.into_iter().enumerate() {
                match opcode {
                    0..=49 => {
                        let t = queue.now() + crate::time::SimDuration::from_nanos(operand);
                        // Roughly a third of schedules are barriers, so the
                        // barrier heap sees interleaved pops, cancels and
                        // lazy skims too.
                        let barrier = operand % 3 == 0;
                        let a = queue.schedule_flagged(t, n, barrier);
                        let b = heap.schedule_flagged(t, n, barrier);
                        ids.push((a, b));
                    }
                    50..=69 => {
                        if !ids.is_empty() {
                            let (a, b) = ids[(operand % ids.len() as u64) as usize];
                            prop_assert_eq!(queue.cancel(a), heap.cancel(b));
                        }
                    }
                    70..=94 => {
                        prop_assert_eq!(queue.pop(), heap.pop());
                        prop_assert_eq!(queue.now(), heap.now());
                    }
                    _ => {
                        prop_assert_eq!(queue.peek_time(), heap.peek_time());
                        prop_assert_eq!(queue.peek_is_barrier(), heap.peek_is_barrier());
                    }
                }
                prop_assert_eq!(queue.peek_barrier_time(), heap.peek_barrier_time());
                prop_assert_eq!(queue.len(), heap.len());
            }
            // Drain both to the end: full pop orders must coincide.
            loop {
                let (a, b) = (queue.pop(), heap.pop());
                prop_assert_eq!(&a, &b);
                if b.is_none() {
                    break;
                }
            }
        }
    }
}
