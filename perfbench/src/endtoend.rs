//! The end-to-end run: all telemetry off, inputs built several times for
//! the set-up figure, then whole passes over the workload for the measured
//! time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pascal_core::run_simulation;
use pascal_metrics::percentile;

use crate::fleet::{summarize, Pool};
use crate::workload::{Cell, Workload};
use crate::{Metric, Report};

/// Set-up runs at least this many times and for at least `SETUP_MIN_S`;
/// its figure is the median. A single set-up takes milliseconds, and its
/// first repeats in a fresh process run slow, so the median needs many.
const SETUP_MIN_REPEATS: usize = 9;
const SETUP_MIN_S: f64 = 0.5;

/// Runs `workload` end to end for at least one pass and until `seconds`
/// have passed.
pub fn run(workload: Workload, seed: u64, seconds: Duration) -> Report {
    let specs = workload.cells(seed);
    let mut setup_s = Vec::new();
    let mut cells: Vec<Cell> = Vec::new();
    while setup_s.len() < SETUP_MIN_REPEATS || setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        // Drop the previous copy first, so peak memory holds one.
        cells.clear();
        let t = Instant::now();
        cells = black_box(specs.iter().map(|&spec| Cell::build(spec)).collect());
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut wall_s = Vec::new();
    let mut first: Option<Pool> = None;
    let measuring = Instant::now();
    while wall_s.is_empty() || measuring.elapsed() < seconds {
        // Wall time counts each simulation and its metric summary; the
        // benchmark's own checks and pooling run outside it.
        let mut pool = Pool::default();
        let mut wall = Duration::ZERO;
        for cell in &cells {
            let t = Instant::now();
            let out = run_simulation(&cell.trace, &cell.config);
            let metrics = summarize(&out);
            wall += t.elapsed();
            pool.add(
                &cell.spec.label(),
                cell.trace.requests().len(),
                &out,
                metrics,
            );
        }
        wall_s.push(wall.as_secs_f64());
        attempted += pool.arrivals();
        match &first {
            None => {
                failed += pool.broken();
                errors.extend(pool.errors.iter().cloned());
                first = Some(pool);
            }
            Some(f) if *f != pool => {
                failed += pool.arrivals();
                errors.push(format!(
                    "pass {} simulated a different outcome than pass 1",
                    wall_s.len()
                ));
            }
            Some(_) => failed += pool.broken(),
        }
    }
    let pool = first.expect("at least one pass ran");
    let fig = pool.figures();
    eprintln!(
        "{} passes of {} simulations; {} requests per pass, {} TTFT samples; pass wall {:.3?} s",
        wall_s.len(),
        cells.len(),
        pool.arrivals(),
        fig.ttft_samples,
        wall_s
    );

    let mut metrics = Vec::new();
    if errors.is_empty() {
        let wall = median(&wall_s);
        metrics.extend([
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("wall_s", wall, "s"),
            Metric::new("requests_per_s", pool.arrivals() as f64 / wall, "1/s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ]);
    }
    metrics.extend([
        Metric::new("sim_ttft_p50_s", fig.ttft_p50_s, "s"),
        Metric::new("sim_ttft_p99_s", fig.ttft_p99_s, "s"),
        Metric::new(
            "sim_answer_slo_attainment",
            fig.answer_slo_attainment,
            "ratio",
        ),
        Metric::new("sim_throughput_tok_s", fig.throughput_tok_s, "tokens/s"),
        Metric::new("sim_goodput_rps", fig.goodput_rps, "1/s"),
        Metric::new("served_frac", fig.served_frac, "ratio"),
    ]);
    Report {
        errors,
        attempted,
        failed,
        metrics,
    }
}

/// The median of a non-empty sample.
fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// The process's peak resident set, MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
