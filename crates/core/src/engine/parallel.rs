//! The windowed parallel executor: deterministic intra-run parallelism.
//!
//! Shards are independent event worlds except at a small set of
//! **barrier events** — arrivals (the router reads every shard's pool
//! state), cross-shard and cross-region transfer landings (they mutate the
//! destination shard), fleet transitions and autoscaler ticks (they queue
//! escapes and re-derive budgets), and — when cross-shard escapes are
//! live — iteration completions that may fire a phase transition. Between
//! consecutive barriers every queued event is *shard-local*: iteration
//! completions, preemption offloads/reloads and intra-shard migration
//! landings touch only their own shard's state.
//!
//! The executor exploits exactly that structure. It advances the engine in
//! **lockstep windows**: each window's horizon is the earliest thing that
//! could couple shards —
//!
//! * the next trace arrival,
//! * the earliest pending barrier event on any shard,
//! * the next telemetry gauge sample (the row must snapshot the state at
//!   its own timestamp), and
//! * when transition-capable iterations are barriers, `committed + L`
//!   where `L` lower-bounds every iteration duration
//!   ([`min_iteration_duration`]) — a transition barrier scheduled *by* an
//!   in-window event therefore lands at or beyond the horizon, never
//!   inside it
//!
//! — and a worker pool drains every shard strictly below the horizon in
//! parallel, each shard in its own exact `(time, seq)` order. At the
//! horizon the coordinator falls back to the sequential engine for one
//! step, firing the barrier event under the global total order (arrivals
//! first, then lowest region/shard id). Because shard-local event handling
//! commutes across shards and each shard replays its own sequential order,
//! the simulation state at every barrier — and hence every output byte —
//! is identical to the sequential engine's, at any thread count.
//!
//! Request-lifecycle *tracing* is the one stream that observes the global
//! interleaving of shard-local events, so the engines route traced runs to
//! the sequential path instead ([`TelemetryHandle::trace_enabled`]).
//! Series rows are emitted only by the coordinator between windows, and
//! the profiler's counters are order-insensitive.
//!
//! The `unsafe` in this file — the crate's only `allow(unsafe_code)` — is
//! confined to the worker pool's pointer hand-off: disjoint `&mut Shard`
//! borrows are passed to the workers as erased pointers, refreshed from
//! `iter_mut` every window (so provenance stays fresh), and the
//! coordinator blocks until every worker reports done before touching the
//! engine again.
#![allow(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use pascal_model::{DecodeBatch, PerfModel};
use pascal_sim::{SimDuration, SimTime};
use pascal_telemetry::{ProfiledEvent, TelemetryHandle};

use super::{Event, Shard};

/// Resolves the configured [`run_threads`](crate::SimConfig::run_threads)
/// against the deployment: `0` auto-sizes from the host (clamped to 8,
/// like the sweep pool), and every value is capped at the shard count —
/// with fewer shards than threads the extra workers would only idle.
pub(crate) fn resolve_run_threads(configured: usize, shards: usize) -> usize {
    let requested = if configured == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
    } else {
        configured
    };
    requested.min(shards).max(1)
}

/// A lower bound on the duration of *any* schedulable iteration: the
/// cheaper of a one-sequence, one-context-token decode step and a
/// one-token prefill. The perf model is monotone in batch size, context
/// and prompt length (property-tested in `pascal-model`), so every real
/// iteration takes at least this long — which is what lets the executor
/// bound how soon an in-window event can schedule a new transition
/// barrier.
pub(super) fn min_iteration_duration(perf: &PerfModel) -> SimDuration {
    let decode = perf.decode_step_time(DecodeBatch {
        num_seqs: 1,
        total_context_tokens: 1,
    });
    decode.min(perf.prefill_time(1))
}

/// An erased `&mut Shard<'_>`, valid for one window. `Send` because the
/// shards a window hands out are disjoint and their owner (the engine)
/// is parked on the coordinator thread until the window completes.
#[derive(Clone, Copy)]
pub(super) struct ShardPtr(*mut ());

unsafe impl Send for ShardPtr {}

impl ShardPtr {
    pub(super) fn new(shard: &mut Shard<'_>) -> Self {
        ShardPtr(std::ptr::from_mut(shard).cast())
    }
}

/// Re-materializes the shard reference and drains it up to `horizon`.
///
/// # Safety
///
/// `p` must come from [`ShardPtr::new`] on a shard that is not aliased
/// for the duration of the call. The `'static` cast erases the shard's
/// borrows of the trace and config, which strictly outlive the window:
/// the coordinator owns the engine and blocks until every worker is done.
unsafe fn drain_erased(p: ShardPtr, horizon: Option<SimTime>) -> u64 {
    let shard = &mut *p.0.cast::<Shard<'static>>();
    shard.drain_window(horizon)
}

impl Shard<'_> {
    /// Pops and handles this shard's events strictly below `horizon`
    /// (everything, when `None`), stopping early at a barrier event.
    /// Exactly the shard-local slice of the cluster dispatcher: the
    /// cross-boundary arms are unreachable because those events are
    /// always scheduled as barriers, and in-window iterations cannot
    /// queue escapes (transition-capable completions are barriers
    /// whenever escapes are enabled). Returns the number of events
    /// drained.
    pub(super) fn drain_window(&mut self, horizon: Option<SimTime>) -> u64 {
        let mut drained = 0u64;
        loop {
            match self.queue.peek_time() {
                None => break,
                Some(t) if horizon.is_some_and(|h| t >= h) => break,
                Some(_) => {}
            }
            if self.queue.peek_is_barrier() {
                // Unreachable when the horizon math is right: every
                // barrier is either pending at window start (and caps the
                // horizon) or scheduled in-window at `>= committed + L`.
                debug_assert!(false, "barrier event inside a parallel window");
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked event exists");
            let t0 = self.telemetry.profile_timer();
            match ev {
                Event::IterationDone { instance } => {
                    self.finish_iteration(instance, now);
                    debug_assert!(
                        self.cross_escape_outbox.is_empty(),
                        "cross-shard escape queued by a non-barrier iteration"
                    );
                    self.try_schedule(instance, now);
                    self.telemetry
                        .profile_record(ProfiledEvent::IterationDone, t0);
                }
                Event::OffloadDone { req } => {
                    self.on_offload_done(req, now);
                    self.telemetry
                        .profile_record(ProfiledEvent::OffloadDone, t0);
                }
                Event::ReloadDone { req } => {
                    self.on_reload_done(req, now);
                    self.telemetry.profile_record(ProfiledEvent::ReloadDone, t0);
                }
                Event::MigrationDone { req, to } => {
                    self.on_migration_done(req, to, now);
                    self.telemetry
                        .profile_record(ProfiledEvent::MigrationDone, t0);
                }
                Event::CrossShardDone { .. }
                | Event::CrossRegionDone { .. }
                | Event::FleetTransition { .. }
                | Event::AutoscaleTick => {
                    unreachable!("cross-boundary events are always barriers")
                }
            }
            drained += 1;
        }
        drained
    }
}

/// What the windowed executor needs from an engine beyond the sequential
/// [`EventDriver`](super::driver::EventDriver) contract it falls back to
/// at barriers.
pub(super) trait WindowedEngine: super::driver::EventDriver {
    /// Timestamp of the next undelivered trace arrival, if any.
    fn next_arrival_time(&self) -> Option<SimTime>;
    /// Earliest pending barrier event across every shard, if any.
    fn earliest_barrier(&mut self) -> Option<SimTime>;
    /// Refreshes `out` with one pointer per shard (every shard, every
    /// region). Called once per window so pointer provenance never spans
    /// a coordinator mutation.
    fn push_shard_ptrs(&mut self, out: &mut Vec<ShardPtr>);
    /// Re-reads every shard's queue head into the next-event frontier —
    /// a window may have drained any of them.
    fn refresh_frontier(&mut self);
}

/// Shared coordinator/worker state, guarded by one mutex. Workers wake on
/// a generation bump, drain their stride of the shard list, and report
/// back; the coordinator drains stride 0 itself and then waits for the
/// stragglers.
struct PoolState {
    generation: u64,
    ptrs: Vec<ShardPtr>,
    horizon: Option<SimTime>,
    done_count: usize,
    drained: u64,
    panicked: bool,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    go: Condvar,
    done: Condvar,
}

/// A persistent pool of `threads - 1` workers plus the calling thread:
/// windows are too short (often tens of microseconds of wall clock) to
/// amortize a thread spawn each, so the workers live for the whole run
/// and park on a condvar between windows.
struct ShardPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ShardPool {
    fn new(threads: usize) -> Self {
        assert!(threads > 1, "a one-thread run takes the sequential path");
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                generation: 0,
                ptrs: Vec::new(),
                horizon: None,
                done_count: 0,
                drained: 0,
                panicked: false,
                shutdown: false,
            }),
            go: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, index, threads))
            })
            .collect();
        ShardPool {
            shared,
            workers,
            threads,
        }
    }

    /// Runs one window: every shard in `ptrs` drains strictly below
    /// `horizon`, strided across the pool. Returns the total events
    /// drained.
    ///
    /// # Panics
    ///
    /// Panics if any worker panicked inside its drain — the run is
    /// unrecoverable (shard state is torn), so the failure propagates.
    fn run_window(&self, ptrs: &[ShardPtr], horizon: Option<SimTime>) -> u64 {
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            st.ptrs.clear();
            st.ptrs.extend_from_slice(ptrs);
            st.horizon = horizon;
            st.done_count = 0;
            st.drained = 0;
            st.generation += 1;
        }
        self.shared.go.notify_all();
        let mut own = 0u64;
        let mut j = 0;
        while j < ptrs.len() {
            // SAFETY: stride 0 is disjoint from every worker's stride, and
            // the pointers were refreshed from `iter_mut` this window.
            own += unsafe { drain_erased(ptrs[j], horizon) };
            j += self.threads;
        }
        let mut st = self.shared.state.lock().expect("pool lock");
        while st.done_count < self.threads - 1 {
            st = self.shared.done.wait(st).expect("pool lock");
        }
        assert!(!st.panicked, "windowed executor worker panicked");
        st.drained + own
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        if let Ok(mut st) = self.shared.state.lock() {
            st.shutdown = true;
        }
        self.shared.go.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, index: usize, threads: usize) {
    let mut seen = 0u64;
    let mut mine: Vec<ShardPtr> = Vec::new();
    loop {
        let horizon = {
            let mut st = shared.state.lock().expect("pool lock");
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    break;
                }
                st = shared.go.wait(st).expect("pool lock");
            }
            seen = st.generation;
            mine.clear();
            mine.extend(st.ptrs.iter().skip(index).step_by(threads).copied());
            st.horizon
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut n = 0u64;
            for &p in &mine {
                // SAFETY: this worker's stride is disjoint from every
                // other stride, and the coordinator keeps the engine
                // parked until `done_count` reaches the pool size.
                n += unsafe { drain_erased(p, horizon) };
            }
            n
        }));
        let mut st = shared.state.lock().expect("pool lock");
        match result {
            Ok(n) => st.drained += n,
            Err(_) => st.panicked = true,
        }
        st.done_count += 1;
        if st.done_count == threads - 1 {
            shared.done.notify_one();
        }
    }
}

/// Drives `engine` to completion with `threads` threads: parallel windows
/// between barriers, the exact sequential step at them. `lookahead` is
/// `Some(L)` when transition-capable iterations are barrier events
/// ([`SimConfig::transition_barriers`](crate::SimConfig)); windows are
/// then additionally bounded to `committed + L` so a barrier scheduled by
/// an in-window event can never land inside its own window.
pub(super) fn run_windowed<D: WindowedEngine>(
    engine: &mut D,
    threads: usize,
    interval: Option<SimDuration>,
    lookahead: Option<SimDuration>,
    telemetry: &TelemetryHandle,
) {
    let pool = ShardPool::new(threads);
    let mut ptrs: Vec<ShardPtr> = Vec::new();
    // Everything before `committed` has been handled; the next window may
    // not reach past `committed + L` when transition barriers are live.
    let mut committed = SimTime::ZERO;
    let mut next_sample = interval.map(|iv| SimTime::ZERO + iv);
    while let Some(t_next) = engine.next_event_time() {
        // Same sampling contract as the sequential driver: a gauge row at
        // `s` fires once every event at or before `s` has been handled.
        if let (Some(ns), Some(iv)) = (next_sample.as_mut(), interval) {
            while *ns < t_next {
                engine.sample(*ns);
                *ns += iv;
            }
        }
        let mut horizon = engine.earliest_barrier();
        let cap = |h: &mut Option<SimTime>, t: SimTime| {
            *h = Some(h.map_or(t, |cur| cur.min(t)));
        };
        if let Some(arrival) = engine.next_arrival_time() {
            cap(&mut horizon, arrival);
        }
        if let Some(ns) = next_sample {
            cap(&mut horizon, ns);
        }
        if let Some(l) = lookahead {
            cap(&mut horizon, committed + l);
        }
        if horizon.is_none_or(|h| t_next < h) {
            // At least one shard-local event below the horizon: drain
            // every shard in parallel. (`t_next` cannot be an arrival or
            // barrier here — both cap the horizon.)
            engine.push_shard_ptrs(&mut ptrs);
            let drained = pool.run_window(&ptrs, horizon);
            engine.refresh_frontier();
            telemetry.profile_window(drained);
            if let Some(h) = horizon {
                committed = h;
            }
        } else {
            // The next event is (or ties with) the horizon: fire exactly
            // one event under the sequential engine's global total order.
            let fired = engine.step();
            debug_assert!(fired, "next_event_time promised a pending event");
            committed = t_next;
            telemetry.profile_barrier_event();
        }
    }
}
