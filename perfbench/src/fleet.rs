//! What the simulated fleet delivered, pooled over a workload's cells, and
//! the correctness gate every simulation passes through.

use pascal_core::SimOutput;
use pascal_metrics::{
    answering_qoe, LatencySummary, QoeParams, RequestRecord, SweepCellMetrics, SLO_QOE_THRESHOLD,
};
use pascal_sim::{SimDuration, SimTime};

/// The library's per-cell metric summary: the metrics layer the benchmark
/// times.
pub fn summarize(out: &SimOutput) -> SweepCellMetrics {
    SweepCellMetrics::from_run(
        &out.records,
        &out.migration_outcomes,
        &out.admission,
        &out.fleet,
        out.makespan.as_secs_f64(),
        &QoeParams::paper_eval(),
    )
}

/// The correctness gate for one simulation: every arrival is accounted
/// for (completed + rejected + stranded = arrivals), records are unique
/// and in id order, and no request's first answer token comes after its
/// completion. Returns one message per broken check.
fn check(label: &str, arrivals: usize, out: &SimOutput) -> Vec<String> {
    let mut errors = Vec::new();
    let completed = out.records.len() as u64;
    let rejected = out.admission.rejected;
    let stranded = out.fleet.stranded;
    if completed + rejected + stranded != arrivals as u64 {
        errors.push(format!(
            "{label}: {completed} completed + {rejected} rejected + {stranded} stranded \
             != {arrivals} arrivals"
        ));
    }
    if out.records.windows(2).any(|w| w[0].spec.id >= w[1].spec.id) {
        errors.push(format!(
            "{label}: records are not in strictly increasing id order"
        ));
    }
    if let Some(r) = out
        .records
        .iter()
        .find(|r| r.ttft().is_some_and(|ttft| ttft > r.e2e_latency()))
    {
        errors.push(format!(
            "{label}: request {} has TTFT after its completion",
            r.spec.id.0
        ));
    }
    errors
}

/// Fleet outcomes pooled over every simulation of one pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Pool {
    arrivals: u64,
    failed: u64,
    broken: u64,
    ttft_s: Vec<f64>,
    good_total: u64,
    good_in_span: u64,
    tokens: u64,
    span_s: f64,
    /// Each cell's library summary, in cell order: compared exactly
    /// between passes, thread counts and telemetry settings.
    pub cells: Vec<SweepCellMetrics>,
    /// Broken checks, one message each.
    pub errors: Vec<String>,
}

impl Pool {
    /// Adds one simulation. A request fails when it is rejected, stranded
    /// or has no record; every request of a simulation that broke a check
    /// fails.
    pub fn add(
        &mut self,
        label: &str,
        arrivals: usize,
        out: &SimOutput,
        metrics: SweepCellMetrics,
    ) {
        let errors = check(label, arrivals, out);
        let arrivals = arrivals as u64;
        let completed = out.records.len() as u64;
        self.arrivals += arrivals;
        if errors.is_empty() {
            self.failed += arrivals - completed;
        } else {
            self.failed += arrivals;
            self.broken += arrivals;
        }
        self.errors.extend(errors);
        let params = QoeParams::paper_eval();
        self.ttft_s.extend(
            out.records
                .iter()
                .filter_map(|r| r.ttft().map(SimDuration::as_secs_f64)),
        );
        let good =
            |r: &RequestRecord| answering_qoe(r, &params).is_none_or(|q| q >= SLO_QOE_THRESHOLD);
        self.good_total += out.records.iter().filter(|r| good(r)).count() as u64;
        // Rates run over the span from the first arrival until 99% of the
        // requests completed, so the single slowest request of a run does
        // not set them.
        let mut completions: Vec<SimTime> = out.records.iter().map(|r| r.completion).collect();
        completions.sort_unstable();
        let first = out.records.iter().map(|r| r.spec.arrival).min();
        if let (Some(first), Some(&end)) = (first, completions.get(completions.len() * 99 / 100)) {
            self.span_s += end.saturating_since(first).as_secs_f64();
            for r in &out.records {
                self.tokens += r.token_times.partition_point(|&t| t <= end) as u64;
                if r.completion <= end && good(r) {
                    self.good_in_span += 1;
                }
            }
        }
        self.cells.push(metrics);
    }

    /// Arrivals added so far.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Arrivals that failed: rejected, stranded, without a record, or in
    /// a simulation that broke a check.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Arrivals of simulations that broke a check. Rejected and stranded
    /// requests are the modelled fleet's outcome, which `grid`'s admission
    /// and outage cells produce by design; these are the benchmark's own
    /// failures.
    pub fn broken(&self) -> u64 {
        self.broken
    }

    /// The pooled figures. Throughput and goodput divide the work done
    /// within each run's span by the summed spans.
    pub fn figures(&self) -> Figures {
        let ttft = LatencySummary::from_values(self.ttft_s.iter().copied());
        let per_span = |x: u64| {
            if self.span_s > 0.0 {
                x as f64 / self.span_s
            } else {
                0.0
            }
        };
        let share = |x: u64| {
            if self.arrivals > 0 {
                x as f64 / self.arrivals as f64
            } else {
                0.0
            }
        };
        Figures {
            ttft_p50_s: ttft.map_or(0.0, |t| t.p50),
            ttft_p99_s: ttft.map_or(0.0, |t| t.p99),
            ttft_samples: self.ttft_s.len(),
            answer_slo_attainment: share(self.good_total),
            throughput_tok_s: per_span(self.tokens),
            goodput_rps: per_span(self.good_in_span),
            served_frac: share(self.arrivals - self.failed),
        }
    }
}

/// The modelled fleet's end-to-end figures. Exact for a fixed seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Figures {
    /// Median time to first answer token, seconds.
    pub ttft_p50_s: f64,
    /// 99th-percentile time to first answer token, seconds.
    pub ttft_p99_s: f64,
    /// Requests with a first answer token (the TTFT sample count).
    pub ttft_samples: usize,
    /// Share of arrivals that completed with answering-phase QoE at or
    /// above the SLO threshold; failed arrivals miss.
    pub answer_slo_attainment: f64,
    /// Tokens generated per simulated second, from the first arrival until
    /// 99% of requests completed.
    pub throughput_tok_s: f64,
    /// SLO-meeting completions per simulated second over the same span.
    pub goodput_rps: f64,
    /// Share of arrivals that did not fail.
    pub served_frac: f64,
}
