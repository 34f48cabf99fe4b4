//! The traced run: one pass per instrument, with spans from this file
//! around every call into a layer, and per-layer figures.
//!
//! * set-up — `CellSpec::trace` (`ScenarioSpec::trace` or
//!   `TraceBuilder::build`) and `ScenarioSpec::config` per cell;
//! * profiled pass — `run_simulation` with only the hot-path profiler on,
//!   then `SweepCellMetrics::from_run`: the engine's event classes from
//!   `ProfileReport` and the modelled layers' counters from `SimOutput`;
//! * untraced pass — `run_simulation` with all telemetry off, as the
//!   end-to-end run makes it. The profiled pass's simulated outcome must
//!   equal it exactly;
//! * traced pass — the profiled pass with request tracing and queue-depth
//!   gauges on as well, then `events_to_jsonl` and
//!   `reconstruct`/`aggregate`. Its simulated outcome must equal the
//!   untraced pass's exactly;
//! * depth ladder (`deep`) — the first deep cell at 1000, 4000 and 16000
//!   requests;
//! * executor (`grid`) — the cells with many shards again at one run
//!   thread per core; their outcome must equal the one-thread pass's
//!   exactly;
//! * sweep (`grid`) — each cell through a one-thread `SweepRunner`, all
//!   telemetry off, whose summaries must equal the profiled pass's.
//!
//! A layer that does not run on a workload reports zeros. The spans are
//! written to `.bench_out/` at the end.

use std::hint::black_box;
use std::time::Instant;

use pascal_core::{
    aggregate, events_to_jsonl, reconstruct, run_simulation, ProfileReport, SimConfig, SimOutput,
    SweepRunner, TelemetryConfig,
};
use pascal_metrics::percentile;
use pascal_metrics::SweepCellMetrics;
use pascal_sim::SimDuration;
use pascal_telemetry::{ProfiledEvent, SeriesRow, SeriesScope};

use crate::fleet::{summarize, Pool};
use crate::spans::Spans;
use crate::workload::{Cell, Workload};
use crate::{Metric, Report};

/// The executor pass runs the cells with at least this many shards, where
/// the windowed executor has shards to run in parallel.
const EXECUTOR_MIN_SHARDS: usize = 16;

/// Request counts of the depth ladder's rungs.
const LADDER: [usize; 3] = [1000, 4000, 16_000];

const PROFILE: TelemetryConfig = TelemetryConfig {
    trace: false,
    series_interval: None,
    profile: true,
};
/// Gauge samples per simulation in the traced pass, spread evenly over
/// its arrivals.
const SERIES_SAMPLES: f64 = 256.0;

/// Runs `workload`'s traced pass set. `started` is the process start, the
/// origin of the spans and of the process remainder.
pub fn run(workload: Workload, seed: u64, started: Instant) -> Report {
    let mut spans = Spans::new(started);
    let specs = workload.cells(seed);
    let cells: Vec<Cell> = spans.span("setup", "inputs", |sp| {
        specs
            .iter()
            .map(|&spec| {
                let label = spec.label();
                let trace = sp.span("workload.trace", label.clone(), |_| spec.trace());
                let config = sp.span("config.build", label, |_| spec.config());
                Cell {
                    spec,
                    trace,
                    config,
                }
            })
            .collect()
    });
    let requests: u64 = cells.iter().map(|c| c.trace.requests().len() as u64).sum();
    let mut errors = Vec::new();

    let mut engine = EngineTally::default();
    let mut model = ModelTally::default();
    let mut cell_run_s = Vec::with_capacity(cells.len());
    let profiled = spans.span("pass.profiled", "engine classes, modelled counters", |sp| {
        let mut pool = Pool::default();
        for cell in &cells {
            let label = cell.spec.label();
            let config = with_telemetry(&cell.config, PROFILE, 1);
            let out = sp.span("engine.run", label.clone(), |_| {
                run_simulation(&cell.trace, &config)
            });
            let metrics = sp.span("metrics.summarize", label.clone(), |_| summarize(&out));
            cell_run_s.push(sp.last_s("engine.run"));
            engine.add(sp.last_s("engine.run"), &profile_of(&out));
            model.add(&cell.config, &out, &metrics);
            pool.add(&label, cell.trace.requests().len(), &out, metrics);
        }
        pool
    });
    errors.extend(profiled.errors.iter().cloned());

    let mut untraced_s = 0.0;
    let untraced = spans.span("pass.untraced", "all telemetry off", |sp| {
        let mut pool = Pool::default();
        for cell in &cells {
            let label = cell.spec.label();
            let config = with_telemetry(&cell.config, TelemetryConfig::default(), 1);
            let out = sp.span("engine.run.untraced", label.clone(), |_| {
                run_simulation(&cell.trace, &config)
            });
            untraced_s += sp.last_s("engine.run.untraced");
            let metrics = summarize(&out);
            pool.add(&label, cell.trace.requests().len(), &out, metrics);
        }
        pool
    });
    if profiled != untraced {
        errors.push("the hot-path profiler changed the simulated outcome".to_owned());
    }

    let mut tele = TelemetryTally::default();
    let mut depth = DepthTally::default();
    let traced = spans.span("pass.traced", "request tracing, gauges", |sp| {
        let mut pool = Pool::default();
        for cell in &cells {
            let label = cell.spec.label();
            let interval = cell.trace.last_arrival().as_secs_f64() / SERIES_SAMPLES;
            let telemetry = TelemetryConfig {
                trace: true,
                series_interval: Some(SimDuration::from_secs_f64(interval.max(1e-3))),
                profile: true,
            };
            let config = with_telemetry(&cell.config, telemetry, 1);
            let mut out = sp.span("engine.run.traced", label.clone(), |_| {
                run_simulation(&cell.trace, &config)
            });
            tele.run_s += sp.last_s("engine.run.traced");
            let telemetry = out.telemetry.take().unwrap_or_default();
            depth.add(&cell.config, &telemetry.series);
            let events = telemetry.events;
            tele.events += events.len() as u64;
            tele.jsonl_bytes += sp.span("telemetry.jsonl", label.clone(), |_| {
                events_to_jsonl(&events).len() as u64
            });
            sp.span("analyze", label.clone(), |_| {
                black_box(aggregate(&reconstruct(&events).requests));
            });
            let metrics = summarize(&out);
            pool.add(&label, cell.trace.requests().len(), &out, metrics);
        }
        pool
    });
    if traced != untraced {
        errors.push("request tracing changed the simulated outcome".to_owned());
    }

    let mut ladder = [0.0; LADDER.len()];
    if workload == Workload::Deep {
        spans.span("ladder", "iteration cost vs queue depth", |sp| {
            for (rung, n) in ladder.iter_mut().zip(LADDER) {
                let cell = cells[0].spec.with_count(n);
                let cause = format!("{} n={n}", cell.label());
                let (trace, config) = sp.span("ladder.setup", cause.clone(), |_| {
                    (cell.trace(), with_telemetry(&cell.config(), PROFILE, 1))
                });
                let out = sp.span("ladder.run", cause, |_| run_simulation(&trace, &config));
                let iteration = profile_of(&out)
                    .rows
                    .iter()
                    .find(|row| row.name == ProfiledEvent::IterationDone.name())
                    .map_or(0.0, |row| row.mean_us);
                *rung = iteration;
            }
        });
    }

    let mut executor = ExecutorTally::default();
    if workload == Workload::Grid {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        eprintln!("executor: {threads} run threads (available parallelism)");
        spans.span("executor", format!("{threads} run threads"), |sp| {
            for (i, cell) in cells.iter().enumerate() {
                if cell.config.shards < EXECUTOR_MIN_SHARDS {
                    continue;
                }
                let label = cell.spec.label();
                let config = with_telemetry(&cell.config, PROFILE, threads);
                let out = sp.span("executor.run", label.clone(), |_| {
                    run_simulation(&cell.trace, &config)
                });
                executor.add(cell_run_s[i], sp.last_s("executor.run"), &profile_of(&out));
                if summarize(&out) != profiled.cells[i] {
                    errors.push(format!(
                        "{label}: {threads} run threads changed the simulated outcome"
                    ));
                }
            }
        });
    }

    if workload == Workload::Grid {
        let runner = SweepRunner::new(1);
        let swept: Vec<SweepCellMetrics> = spans.span("sweep", "one-thread SweepRunner", |sp| {
            cells
                .iter()
                .flat_map(|cell| {
                    sp.span("sweep.cell", cell.spec.label(), |_| {
                        runner.run_map(std::slice::from_ref(&cell.spec.spec), |_, out| {
                            summarize(&out)
                        })
                    })
                })
                .collect()
        });
        if swept != profiled.cells {
            errors.push("SweepRunner summaries differ from the profiled pass".to_owned());
        }
    }

    let process_s = started.elapsed().as_secs_f64();
    let self_s = spans.self_s_by_name();
    let out_path = write_spans(workload, seed, &spans);
    eprintln!("spans: {out_path}");
    eprintln!("self time by span name:");
    for (name, s) in &self_s {
        eprintln!("  {name:<20} {s:>12.6} s");
    }

    let fig = profiled.figures();
    let layer = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let mut cell_s = spans.durations_s("sweep.cell");
    cell_s.sort_by(f64::total_cmp);
    let cell_q = |p: f64| {
        if cell_s.is_empty() {
            0.0
        } else {
            percentile(&cell_s, p)
        }
    };

    let mut metrics = vec![
        Metric::new("workload.trace_s", layer("workload.trace"), "s"),
        Metric::new("workload.requests", requests as f64, "count"),
        Metric::new("config.build_s", layer("config.build"), "s"),
    ];
    metrics.extend(engine.metrics());
    for (n, mean_us) in LADDER.iter().zip(ladder) {
        metrics.push(Metric::new(
            format!("engine.iteration_done.mean_us.n{n}"),
            mean_us,
            "us",
        ));
    }
    metrics.push(Metric::new(
        "engine.depth_ratio",
        if ladder[0] > 0.0 {
            ladder[LADDER.len() - 1] / ladder[0]
        } else {
            0.0
        },
        "ratio",
    ));
    metrics.extend(executor.metrics());
    metrics.extend(model.metrics());
    metrics.extend(depth.metrics());
    metrics.extend([
        Metric::new("metrics.summarize_s", layer("metrics.summarize"), "s"),
        Metric::new("sweep.cell_s.p50", cell_q(50.0), "s"),
        Metric::new("sweep.cell_s.p80", cell_q(80.0), "s"),
        Metric::new("telemetry.trace_events", tele.events as f64, "count"),
        Metric::new("telemetry.overhead_s", tele.run_s - untraced_s, "s"),
        Metric::new("telemetry.jsonl_s", layer("telemetry.jsonl"), "s"),
        Metric::new("telemetry.jsonl_bytes", tele.jsonl_bytes as f64, "bytes"),
        Metric::new("analyze.s", layer("analyze"), "s"),
        Metric::new("process.unattributed_s", process_s - spans.roots_s(), "s"),
        Metric::new(
            "failed_frac",
            profiled.failed() as f64 / profiled.arrivals().max(1) as f64,
            "ratio",
        ),
        Metric::new("sim.ttft_samples", fig.ttft_samples as f64, "count"),
    ]);
    Report {
        errors,
        attempted: profiled.arrivals() + untraced.arrivals() + traced.arrivals(),
        failed: profiled.broken() + untraced.broken() + traced.broken(),
        metrics,
    }
}

fn with_telemetry(config: &SimConfig, telemetry: TelemetryConfig, run_threads: usize) -> SimConfig {
    let mut config = config.clone();
    config.telemetry = telemetry;
    config.run_threads = run_threads;
    config
}

fn profile_of(out: &SimOutput) -> ProfileReport {
    out.telemetry
        .as_ref()
        .and_then(|t| t.profile.clone())
        .expect("a profiled run returns a profile report")
}

/// Engine figures summed over cells.
#[derive(Default)]
struct EngineTally {
    run_s: f64,
    events: u64,
    count: [u64; ProfiledEvent::ALL.len()],
    busy_us: [f64; ProfiledEvent::ALL.len()],
    /// Count-weighted sum of per-cell p99s.
    p99_weighted: [f64; ProfiledEvent::ALL.len()],
    /// Events of cells where the class got no timing sample: the profiler
    /// times one event in 16, so a rare class can go unsampled, and its
    /// busy time there reads 0 and lands in `engine.unattributed_s`.
    unsampled: [u64; ProfiledEvent::ALL.len()],
}

impl EngineTally {
    fn add(&mut self, run_s: f64, profile: &ProfileReport) {
        self.run_s += run_s;
        self.events += profile.events;
        for (i, row) in profile.rows.iter().enumerate() {
            debug_assert_eq!(row.name, ProfiledEvent::ALL[i].name());
            let n = row.count as f64;
            self.count[i] += row.count;
            self.busy_us[i] += n * row.mean_us;
            self.p99_weighted[i] += n * row.p99_us;
            // A histogram with no samples has mean 0; a sampled event never
            // takes exactly 0 ns.
            if row.mean_us == 0.0 {
                self.unsampled[i] += row.count;
            }
        }
    }

    fn class_mean_us(&self, i: usize) -> f64 {
        if self.count[i] == 0 {
            0.0
        } else {
            self.busy_us[i] / self.count[i] as f64
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        let busy_s: f64 = self.busy_us.iter().sum::<f64>() * 1e-6;
        let events = self.events as f64;
        let mut out = vec![
            Metric::new("engine.run_s", self.run_s, "s"),
            Metric::new("engine.events", events, "count"),
            Metric::new("engine.events_per_s", events / self.run_s, "1/s"),
            Metric::new("engine.host_ns_per_event", self.run_s * 1e9 / events, "ns"),
        ];
        for (i, class) in ProfiledEvent::ALL
            .map(ProfiledEvent::name)
            .iter()
            .enumerate()
        {
            let n = self.count[i] as f64;
            out.extend([
                Metric::new(format!("engine.{class}.count"), n, "count"),
                Metric::new(
                    format!("engine.{class}.mean_us"),
                    self.class_mean_us(i),
                    "us",
                ),
                // Not the workload's p99: the profiler keeps no samples to
                // pool, so each cell's p99 is averaged with event-count
                // weights.
                Metric::new(
                    format!("engine.{class}.cell_p99_us"),
                    if n > 0.0 {
                        self.p99_weighted[i] / n
                    } else {
                        0.0
                    },
                    "us",
                ),
                Metric::new(
                    format!("engine.{class}.busy_s"),
                    self.busy_us[i] * 1e-6,
                    "s",
                ),
                Metric::new(
                    format!("engine.{class}.unsampled"),
                    self.unsampled[i] as f64,
                    "count",
                ),
            ]);
        }
        out.push(Metric::new(
            "engine.unattributed_s",
            self.run_s - busy_s,
            "s",
        ));
        out
    }
}

/// Windowed-executor figures summed over cells.
#[derive(Default)]
struct ExecutorTally {
    sequential_s: f64,
    run_s: f64,
    events: u64,
    windows: u64,
    window_events: u64,
    barrier_events: u64,
}

impl ExecutorTally {
    /// `sequential_s` is the one-thread engine time of the same cell.
    fn add(&mut self, sequential_s: f64, run_s: f64, profile: &ProfileReport) {
        self.sequential_s += sequential_s;
        self.run_s += run_s;
        self.events += profile.events;
        self.windows += profile.windows;
        self.window_events += profile.window_events;
        self.barrier_events += profile.barrier_events;
    }

    fn metrics(&self) -> Vec<Metric> {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        vec![
            Metric::new("parallel.windows", self.windows as f64, "count"),
            Metric::new(
                "parallel.events_per_window",
                ratio(self.window_events as f64, self.windows as f64),
                "count",
            ),
            Metric::new(
                "parallel.barrier_share",
                ratio(self.barrier_events as f64, self.events as f64),
                "ratio",
            ),
            Metric::new(
                "parallel.speedup",
                ratio(self.sequential_s, self.run_s),
                "ratio",
            ),
        ]
    }
}

/// Counters of the modelled layers, from `SimOutput`, over cells.
#[derive(Default)]
struct ModelTally {
    preemptions: u64,
    peak_gpu_util: f64,
    shard_imbalance: f64,
    considered: u64,
    launched: u64,
    vetoed: u64,
    cross_shard: u64,
    cross_region: u64,
    landed_in_cpu: u64,
    rejected: u64,
    spilled: u64,
    stranded: u64,
    predict_samples: u64,
    /// Sample-weighted sum of per-cell mean absolute errors.
    abs_error_weighted: f64,
}

impl ModelTally {
    fn add(&mut self, config: &SimConfig, out: &SimOutput, m: &SweepCellMetrics) {
        self.preemptions += out
            .records
            .iter()
            .map(|r| u64::from(r.num_preemptions))
            .sum::<u64>();
        if let (Some(capacity), Some(&peak)) = (
            config.kv_capacity_bytes(),
            out.peak_gpu_kv_bytes.iter().max(),
        ) {
            self.peak_gpu_util = self.peak_gpu_util.max(peak as f64 / capacity as f64);
        }
        let routed: Vec<f64> = out
            .shard_stats
            .iter()
            .map(|s| s.routed_arrivals as f64)
            .collect();
        let mean = routed.iter().sum::<f64>() / routed.len().max(1) as f64;
        if mean > 0.0 {
            let max = routed.iter().copied().fold(0.0, f64::max);
            self.shard_imbalance = self.shard_imbalance.max(max / mean);
        }
        self.considered += m.migrations_considered;
        self.launched += m.migrations_launched;
        self.vetoed += m.migrations_vetoed;
        self.cross_shard += m.migrations_cross_shard;
        self.cross_region += m.migrations_cross_region;
        self.landed_in_cpu += m.migrations_landed_in_cpu;
        self.rejected += m.admission_rejected;
        self.spilled += m.admission_spilled;
        self.stranded += m.requests_stranded;
        if let Some(cal) = out.calibration() {
            self.predict_samples += cal.samples as u64;
            self.abs_error_weighted += cal.samples as f64 * cal.mean_abs_error;
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        let count = |name: &str, x: u64| Metric::new(name, x as f64, "count");
        vec![
            count("kv.preemptions", self.preemptions),
            Metric::new("kv.peak_gpu_util", self.peak_gpu_util, "ratio"),
            Metric::new("sched.shard_imbalance", self.shard_imbalance, "ratio"),
            count("migration.considered", self.considered),
            count("migration.launched", self.launched),
            count("migration.vetoed", self.vetoed),
            count("migration.cross_shard", self.cross_shard),
            count("migration.cross_region", self.cross_region),
            count("migration.landed_in_cpu", self.landed_in_cpu),
            Metric::new(
                "migration.launch_ratio",
                if self.considered > 0 {
                    self.launched as f64 / self.considered as f64
                } else {
                    0.0
                },
                "ratio",
            ),
            count("admission.rejected", self.rejected),
            count("admission.spilled", self.spilled),
            count("fleet.stranded", self.stranded),
            count("predict.samples", self.predict_samples),
            Metric::new(
                "predict.mae_tokens",
                if self.predict_samples > 0 {
                    self.abs_error_weighted / self.predict_samples as f64
                } else {
                    0.0
                },
                "tokens",
            ),
        ]
    }
}

/// Per-instance queue depth (requests admitted but not yet scheduled onto
/// a batch) from the traced pass's shard gauges, over cells.
#[derive(Default)]
struct DepthTally {
    peak: f64,
    sum: f64,
    rows: u64,
}

impl DepthTally {
    fn add(&mut self, config: &SimConfig, series: &[SeriesRow]) {
        let per_shard = (config.num_instances / (config.shards * config.regions)).max(1) as f64;
        for row in series.iter().filter(|r| r.scope == SeriesScope::Shard) {
            let depth = row.queue_depth as f64 / per_shard;
            self.peak = self.peak.max(depth);
            self.sum += depth;
            self.rows += 1;
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("sched.queue_depth.peak", self.peak, "count"),
            Metric::new(
                "sched.queue_depth.mean",
                self.sum / self.rows.max(1) as f64,
                "count",
            ),
        ]
    }
}

/// Request-tracing figures summed over cells.
#[derive(Default)]
struct TelemetryTally {
    run_s: f64,
    events: u64,
    jsonl_bytes: u64,
}

/// Writes the spans under `.bench_out/` and returns the path, or the
/// reason it could not.
fn write_spans(workload: Workload, seed: u64, spans: &Spans) -> String {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{workload:?}-seed{seed}.jsonl").to_lowercase());
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.to_jsonl())) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("not written ({}: {e})", path.display()),
    }
}
