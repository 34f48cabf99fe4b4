//! The hot-path self-profiler: wall-clock timing of the event loop.
//!
//! Everything here measures the *host*, not the simulation: counts per
//! event class, per-event wall-clock histograms
//! ([`pascal_metrics::Histogram`] over microseconds) and an overall
//! events/sec figure. Counts are exact; the histograms are built from a
//! 1-in-N sample of events (see the handle) so the profiler itself stays
//! off the hot path it measures. The numbers vary run to run and machine
//! to machine by design — they are the measurement baseline for
//! engine-speed work and are excluded from every determinism guarantee
//! and from the CI perf gate's compared fields.

use std::time::Instant;

use pascal_metrics::Histogram;

/// Histogram bin width for per-event wall-clock samples, in microseconds.
const BIN_WIDTH_US: f64 = 0.25;

/// The event-loop event classes the profiler distinguishes — one per
/// variant of the engine's internal event enum, plus trace arrivals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfiledEvent {
    /// A trace arrival delivered through the router.
    Arrival,
    /// A batch iteration completing on an instance.
    IterationDone,
    /// A KV offload (preemption) completing.
    OffloadDone,
    /// A KV reload completing.
    ReloadDone,
    /// An intra-shard migration transfer landing.
    MigrationDone,
    /// A cross-shard escape transfer landing.
    CrossShardDone,
    /// A cross-region (WAN) escape transfer landing.
    CrossRegionDone,
    /// A fleet transition (join/drain/fail) or autoscaler tick firing.
    Fleet,
}

impl ProfiledEvent {
    /// Every class, in report order.
    pub const ALL: [ProfiledEvent; 8] = [
        ProfiledEvent::Arrival,
        ProfiledEvent::IterationDone,
        ProfiledEvent::OffloadDone,
        ProfiledEvent::ReloadDone,
        ProfiledEvent::MigrationDone,
        ProfiledEvent::CrossShardDone,
        ProfiledEvent::CrossRegionDone,
        ProfiledEvent::Fleet,
    ];

    /// Stable lowercase name used in report rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProfiledEvent::Arrival => "arrival",
            ProfiledEvent::IterationDone => "iteration_done",
            ProfiledEvent::OffloadDone => "offload_done",
            ProfiledEvent::ReloadDone => "reload_done",
            ProfiledEvent::MigrationDone => "migration_done",
            ProfiledEvent::CrossShardDone => "cross_shard_done",
            ProfiledEvent::CrossRegionDone => "cross_region_done",
            ProfiledEvent::Fleet => "fleet",
        }
    }

    fn index(self) -> usize {
        match self {
            ProfiledEvent::Arrival => 0,
            ProfiledEvent::IterationDone => 1,
            ProfiledEvent::OffloadDone => 2,
            ProfiledEvent::ReloadDone => 3,
            ProfiledEvent::MigrationDone => 4,
            ProfiledEvent::CrossShardDone => 5,
            ProfiledEvent::CrossRegionDone => 6,
            ProfiledEvent::Fleet => 7,
        }
    }
}

/// Accumulates wall-clock samples while the event loop runs.
#[derive(Clone, Debug)]
pub struct HotPathProfiler {
    started: Instant,
    counts: [u64; ProfiledEvent::ALL.len()],
    timings: Vec<Histogram>,
    windows: u64,
    window_events: u64,
    barrier_events: u64,
    sched: SchedPassCounters,
    monitor: MonitorCounters,
    queue: QueueCounters,
}

impl HotPathProfiler {
    /// Starts the wall clock.
    #[must_use]
    pub fn new() -> Self {
        HotPathProfiler {
            started: Instant::now(),
            counts: [0; ProfiledEvent::ALL.len()],
            timings: vec![Histogram::from_samples(&[], BIN_WIDTH_US); ProfiledEvent::ALL.len()],
            windows: 0,
            window_events: 0,
            barrier_events: 0,
            sched: SchedPassCounters::default(),
            monitor: MonitorCounters::default(),
            queue: QueueCounters::default(),
        }
    }

    /// Records one handled event of class `kind` that took `elapsed_us`
    /// wall-clock microseconds.
    pub fn record(&mut self, kind: ProfiledEvent, elapsed_us: f64) {
        let i = kind.index();
        self.counts[i] += 1;
        self.timings[i].add(elapsed_us.max(0.0));
    }

    /// Counts one handled event of class `kind` without a timing sample —
    /// the handle's 1-in-N timing sampler calls this for the unsampled
    /// majority, keeping counts (and events/sec) exact.
    pub fn count_only(&mut self, kind: ProfiledEvent) {
        self.counts[kind.index()] += 1;
    }

    /// Counts one completed lockstep window of the windowed parallel
    /// executor, and the events its workers drained inside it. Window
    /// boundaries are derived from simulation state alone, so these
    /// counters are identical at any thread count.
    pub fn count_window(&mut self, drained_events: u64) {
        self.windows += 1;
        self.window_events += drained_events;
    }

    /// Counts one event the parallel executor's coordinator handled
    /// sequentially at a window barrier (arrivals, cross-shard/region
    /// landings, fleet transitions, autoscaler ticks).
    pub fn count_barrier_event(&mut self) {
        self.barrier_events += 1;
    }

    /// Adds one shard's scheduling-pass work counters (the engine hands
    /// every shard's tally over once, after the run).
    pub fn add_sched(&mut self, counters: &SchedPassCounters) {
        self.sched.absorb(counters);
    }

    /// Adds one shard's instance-monitor work counters (handed over once
    /// per shard, after the run, like the scheduling-pass counters).
    pub fn add_monitor(&mut self, counters: &MonitorCounters) {
        self.monitor.absorb(counters);
    }

    /// Adds event-layer work counters (handed over once per run, after it
    /// drained).
    pub fn add_queue(&mut self, counters: &QueueCounters) {
        self.queue.absorb(counters);
    }

    /// Stops the wall clock and condenses the samples into a report.
    #[must_use]
    pub fn report(self) -> ProfileReport {
        let wall_s = self.started.elapsed().as_secs_f64();
        let events: u64 = self.counts.iter().sum();
        let rows = ProfiledEvent::ALL
            .iter()
            .map(|&kind| {
                let h = &self.timings[kind.index()];
                ProfileRow {
                    name: kind.name(),
                    count: self.counts[kind.index()],
                    mean_us: h.mean(),
                    p50_us: h.quantile(0.50),
                    p99_us: h.quantile(0.99),
                }
            })
            .collect();
        ProfileReport {
            wall_s,
            events,
            events_per_sec: if wall_s > 0.0 {
                events as f64 / wall_s
            } else {
                0.0
            },
            windows: self.windows,
            window_events: self.window_events,
            barrier_events: self.barrier_events,
            sched: self.sched,
            monitor: self.monitor,
            queue: self.queue,
            rows,
        }
    }
}

impl Default for HotPathProfiler {
    fn default() -> Self {
        HotPathProfiler::new()
    }
}

/// One event class's profile line.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileRow {
    /// The event class ([`ProfiledEvent::name`]).
    pub name: &'static str,
    /// Events handled.
    pub count: u64,
    /// Mean wall-clock handling time, microseconds.
    pub mean_us: f64,
    /// Median wall-clock handling time, microseconds.
    pub p50_us: f64,
    /// 99th-percentile wall-clock handling time, microseconds.
    pub p99_us: f64,
}

/// Work counters of the engine's per-iteration scheduling pass, summed
/// over every instance of every shard. Deterministic (simulation state
/// alone decides them, at any thread count), so unlike the wall-clock
/// figures they can pin the pass's complexity in a test.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedPassCounters {
    /// Scheduling passes run (idle, live instances only).
    pub passes: u64,
    /// Candidate-index entries the desired-prefix scans read.
    pub entries_read: u64,
    /// Point updates (one insert or remove) applied to the candidate
    /// index or a resident set.
    pub index_updates: u64,
    /// Resident-set entries swept looking for evictees.
    pub residents_swept: u64,
    /// Passes that rebuilt a candidate order from the member list instead
    /// of reading the index. The engine has no such path; the counter is
    /// the tripwire the complexity regression test holds at zero.
    pub full_rebuilds: u64,
}

impl SchedPassCounters {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &SchedPassCounters) {
        self.passes += other.passes;
        self.entries_read += other.entries_read;
        self.index_updates += other.index_updates;
        self.residents_swept += other.residents_swept;
        self.full_rebuilds += other.full_rebuilds;
    }
}

/// Work counters of the engine's instance monitor (the `t_i`/`r_i`/`a_i`
/// rows Algorithms 1 and 2 read), summed over every shard. Deterministic,
/// like [`SchedPassCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonitorCounters {
    /// Rows built from the per-instance tallies (cache misses).
    pub rows_computed: u64,
    /// Rows served from the per-instance row cache.
    pub rows_served: u64,
    /// Pacer-deadline column entries the computed rows' min-scans read.
    pub pace_entries_scanned: u64,
    /// Member states read by the predicted-growth sweep — the only part of
    /// a row still built by walking members, and only when a length
    /// predictor feeds a consumer of predicted growth.
    pub member_reads: u64,
}

impl MonitorCounters {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &MonitorCounters) {
        self.rows_computed += other.rows_computed;
        self.rows_served += other.rows_served;
        self.pace_entries_scanned += other.pace_entries_scanned;
        self.member_reads += other.member_reads;
    }
}

/// Work counters of the event layer: the shards' event queues and the
/// frontier that picks the next shard event among them, summed over every
/// shard. Deterministic, like [`SchedPassCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Events scheduled on shard queues.
    pub schedules: u64,
    /// Events popped off shard queues.
    pub pops: u64,
    /// Shard-queue heads read to keep the next-event frontier current.
    pub head_peeks: u64,
    /// Head reads that found a changed head and re-played the frontier.
    pub frontier_refreshes: u64,
}

impl QueueCounters {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &QueueCounters) {
        self.schedules += other.schedules;
        self.pops += other.pops;
        self.head_peeks += other.head_peeks;
        self.frontier_refreshes += other.frontier_refreshes;
    }
}

/// The profiler's end-of-run summary. Host-dependent; never part of any
/// deterministic output.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileReport {
    /// Wall-clock seconds from engine construction to report time.
    pub wall_s: f64,
    /// Total events handled.
    pub events: u64,
    /// Events handled per wall-clock second — the headline throughput
    /// figure the engine-speed work is judged against.
    pub events_per_sec: f64,
    /// Lockstep windows executed by the parallel executor (0 on the
    /// sequential path). Deterministic: window boundaries depend only on
    /// simulation state, never on thread count.
    pub windows: u64,
    /// Events drained inside windows by the parallel workers.
    pub window_events: u64,
    /// Events the coordinator handled sequentially at window barriers.
    pub barrier_events: u64,
    /// Scheduling-pass work counters. Deterministic, like the window
    /// counts.
    pub sched: SchedPassCounters,
    /// Instance-monitor work counters. Deterministic, like the window
    /// counts.
    pub monitor: MonitorCounters,
    /// Event-layer work counters. Deterministic, like the window counts.
    pub queue: QueueCounters,
    /// One row per event class, [`ProfiledEvent::ALL`] order.
    pub rows: Vec<ProfileRow>,
}

impl ProfileReport {
    /// Renders the report as indented text lines (for the run footer).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "hot-path profile (wall-clock, host-dependent; excluded from determinism)\n  {} events in {:.3}s = {:.0} events/sec\n",
            self.events, self.wall_s, self.events_per_sec
        );
        if self.windows > 0 {
            out.push_str(&format!(
                "  {} windows: {} events drained in parallel, {} at barriers ({:.1} events/window)\n",
                self.windows,
                self.window_events,
                self.barrier_events,
                self.window_events as f64 / self.windows as f64,
            ));
        }
        let sched = &self.sched;
        if sched.passes > 0 {
            out.push_str(&format!(
                "  {} scheduling passes: {} index entries read ({:.1}/pass), {} residents swept, {} index updates, {} full rebuilds\n",
                sched.passes,
                sched.entries_read,
                sched.entries_read as f64 / sched.passes as f64,
                sched.residents_swept,
                sched.index_updates,
                sched.full_rebuilds,
            ));
        }
        let monitor = &self.monitor;
        if monitor.rows_computed + monitor.rows_served > 0 {
            out.push_str(&format!(
                "  {} monitor rows computed, {} served from cache: {} pace entries scanned ({:.1}/row), {} member states read\n",
                monitor.rows_computed,
                monitor.rows_served,
                monitor.pace_entries_scanned,
                monitor.pace_entries_scanned as f64 / monitor.rows_computed.max(1) as f64,
                monitor.member_reads,
            ));
        }
        let queue = &self.queue;
        if queue.schedules + queue.pops > 0 {
            out.push_str(&format!(
                "  {} queue schedules, {} pops: {} head peeks ({:.2}/event), {} frontier refreshes\n",
                queue.schedules,
                queue.pops,
                queue.head_peeks,
                queue.head_peeks as f64 / self.events.max(1) as f64,
                queue.frontier_refreshes,
            ));
        }
        for row in &self.rows {
            if row.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<18} count {:<8} mean {:>8.2}us  p50 {:>8.2}us  p99 {:>8.2}us\n",
                row.name, row.count, row.mean_us, row.p50_us, row.p99_us
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_rates_are_consistent() {
        let mut p = HotPathProfiler::new();
        for _ in 0..10 {
            p.record(ProfiledEvent::IterationDone, 2.0);
        }
        p.record(ProfiledEvent::Arrival, 1.0);
        let report = p.report();
        assert_eq!(report.events, 11);
        assert!(report.wall_s >= 0.0);
        let iter_row = report
            .rows
            .iter()
            .find(|r| r.name == "iteration_done")
            .expect("row exists");
        assert_eq!(iter_row.count, 10);
        assert!((iter_row.mean_us - 2.0).abs() < BIN_WIDTH_US);
        assert!(iter_row.p50_us > 0.0);
    }

    #[test]
    fn render_skips_empty_classes() {
        let mut p = HotPathProfiler::new();
        p.record(ProfiledEvent::Arrival, 0.5);
        let text = p.report().render();
        assert!(text.contains("events/sec"));
        assert!(text.contains("arrival"));
        assert!(!text.contains("cross_region_done"));
    }

    #[test]
    fn monitor_counters_accumulate_and_render() {
        let mut p = HotPathProfiler::new();
        assert!(!p.clone().report().render().contains("monitor rows"));
        let shard = MonitorCounters {
            rows_computed: 4,
            rows_served: 6,
            pace_entries_scanned: 10,
            member_reads: 0,
        };
        p.add_monitor(&shard);
        p.add_monitor(&shard);
        let report = p.report();
        assert_eq!(report.monitor.rows_computed, 8);
        assert!(report.render().contains(
            "8 monitor rows computed, 12 served from cache: 20 pace entries scanned \
             (2.5/row), 0 member states read"
        ));
    }

    #[test]
    fn queue_counters_accumulate_and_render() {
        let mut p = HotPathProfiler::new();
        assert!(!p.clone().report().render().contains("queue schedules"));
        for _ in 0..4 {
            p.record(ProfiledEvent::IterationDone, 1.0);
        }
        let run = QueueCounters {
            schedules: 5,
            pops: 4,
            head_peeks: 3,
            frontier_refreshes: 2,
        };
        p.add_queue(&run);
        p.add_queue(&run);
        let report = p.report();
        assert_eq!(report.queue.pops, 8);
        assert!(report.render().contains(
            "10 queue schedules, 8 pops: 6 head peeks (1.50/event), 4 frontier refreshes"
        ));
    }

    #[test]
    fn sched_counters_accumulate_and_render() {
        let mut p = HotPathProfiler::new();
        assert!(!p.clone().report().render().contains("scheduling passes"));
        let shard = SchedPassCounters {
            passes: 4,
            entries_read: 10,
            index_updates: 3,
            residents_swept: 2,
            full_rebuilds: 0,
        };
        p.add_sched(&shard);
        p.add_sched(&shard);
        let report = p.report();
        assert_eq!(report.sched.passes, 8);
        assert_eq!(report.sched.entries_read, 20);
        assert!(report.render().contains(
            "8 scheduling passes: 20 index entries read (2.5/pass), 4 residents swept, \
             6 index updates, 0 full rebuilds"
        ));
    }

    #[test]
    fn every_class_has_a_distinct_index_and_name() {
        let mut names: Vec<&str> = ProfiledEvent::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ProfiledEvent::ALL.len());
        let mut indices: Vec<usize> = ProfiledEvent::ALL.iter().map(|e| e.index()).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..ProfiledEvent::ALL.len()).collect::<Vec<_>>());
    }
}
