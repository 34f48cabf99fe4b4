//! Bench-only access to the instance monitor. Hidden from docs and not a
//! stable API: the only consumer is the `micro_scheduler_overhead` bench,
//! which prices the row cache and the tally-built rows against the
//! from-scratch member sweep they replaced.
//!
//! The fixture drives a real cluster engine a fixed number of events into
//! a run and freezes it there, so the sweeps are measured over genuine
//! mid-run state — resident members, live pacer deadlines, predictor
//! history — rather than a synthetic pool.

use pascal_cluster::InstanceStats;
use pascal_sim::SimTime;
use pascal_workload::Trace;

use super::cluster::Engine;
use super::driver::EventDriver;
use crate::SimConfig;

/// A cluster engine frozen mid-run, exposing the monitor costs the cache
/// and the tallies trade between: all-hit (pure serve), steady-state (one
/// dirty row per sweep), every row rebuilt from the tallies, and every row
/// rebuilt by the member sweep.
pub struct MonitorSweepFixture<'a> {
    engine: Engine<'a>,
    now: SimTime,
    /// Rotates which instance [`Self::sweep_one_dirty`] invalidates so
    /// successive iterations touch different rows.
    dirty_cursor: usize,
}

impl<'a> MonitorSweepFixture<'a> {
    /// Builds the engine and fires up to `events` of its earliest events
    /// (stopping early if the run drains), then freezes the clock at the
    /// next pending event time.
    #[must_use]
    pub fn new(trace: &'a Trace, config: &'a SimConfig, events: usize) -> Self {
        let mut engine = Engine::new(trace, config);
        for _ in 0..events {
            if !engine.step() {
                break;
            }
        }
        let now = engine.next_event_time().unwrap_or_default();
        MonitorSweepFixture {
            engine,
            now,
            dirty_cursor: 0,
        }
    }

    /// Requests resident anywhere in the fleet (running or queued) — the
    /// member population each sweep walks. Printed by the bench so the
    /// measured state is visible next to the numbers.
    #[must_use]
    pub fn resident_requests(&self) -> usize {
        self.engine.shards().iter().map(|s| s.states.len()).sum()
    }

    /// Instances across every shard.
    #[must_use]
    pub fn instances(&self) -> usize {
        self.engine.shards().iter().map(|s| s.instances.len()).sum()
    }

    /// One monitor sweep per shard through the cache. After the first
    /// call every row is a cache hit: the serve cost with nothing dirty.
    pub fn sweep_incremental(&self, out: &mut Vec<InstanceStats>) {
        for shard in self.engine.shards() {
            shard.collect_stats_into(self.now, out);
        }
    }

    /// Marks one instance's row dirty (rotating across the fleet), then
    /// sweeps — the advertised steady state: a single-instance event
    /// invalidates one row, the sweep recomputes it and serves the rest.
    pub fn sweep_one_dirty(&mut self, out: &mut Vec<InstanceStats>) {
        let shards = self.engine.shards();
        let shard = &shards[self.dirty_cursor % shards.len()];
        let local = (self.dirty_cursor / shards.len()) % shard.instances.len();
        shard.mark_stats_dirty(local as u32);
        self.dirty_cursor += 1;
        self.sweep_incremental(out);
    }

    /// The from-scratch sweep the cache and the tallies replaced: every
    /// healthy row recomputed by walking its members, no cache reads or
    /// writes.
    pub fn sweep_full(&self, out: &mut Vec<InstanceStats>) {
        for shard in self.engine.shards() {
            shard.collect_stats_uncached_into(self.now, true, out);
        }
    }

    /// Every healthy row rebuilt from its instance's tallies, no cache
    /// reads or writes — what a cache miss costs today.
    pub fn sweep_tallies(&self, out: &mut Vec<InstanceStats>) {
        for shard in self.engine.shards() {
            shard.collect_stats_uncached_into(self.now, false, out);
        }
    }
}
