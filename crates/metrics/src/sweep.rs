//! Per-cell aggregation rows for scenario sweeps.
//!
//! A sweep cell runs one full simulation; [`SweepCellMetrics`] condenses
//! its output into the fixed set of numbers the sweep reports (JSON/CSV)
//! and the CI perf-regression gate compare: TTFT quantiles, SLO violation
//! rate, throughput/goodput, and the migration/admission controller
//! counters. Keeping the row here (next to [`RequestRecord`]) lets every
//! consumer — experiments, CLI, gate — agree on one definition of each
//! number.

use crate::counters::{AdmissionCounters, FleetOutcomes, MigrationOutcomes};
use crate::qoe::{answering_qoe, QoeParams};
use crate::record::RequestRecord;
use crate::summary::{
    per_makespan_s, share, throughput_tokens_per_s, LatencySummary, SLO_QOE_THRESHOLD,
};

/// The aggregate metrics of one sweep cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepCellMetrics {
    /// Completed requests in the cell.
    pub requests: usize,
    /// Mean TTFT in seconds (`None` when nothing answered).
    pub ttft_mean_s: Option<f64>,
    /// Median TTFT in seconds.
    pub ttft_p50_s: Option<f64>,
    /// P99 TTFT in seconds — the gate's latency metric.
    pub ttft_p99_s: Option<f64>,
    /// Fraction of answering requests with QoE below the SLO threshold —
    /// the gate's SLO metric.
    pub slo_violation_rate: f64,
    /// Mean answering-phase QoE (paper-eval parameters).
    pub mean_qoe: f64,
    /// Serving throughput in generated tokens per second.
    pub throughput_tokens_per_s: f64,
    /// SLO-satisfying completions per second.
    pub goodput_rps: f64,
    /// First arrival → last completion, in seconds.
    pub makespan_s: f64,
    /// Migration decisions evaluated at phase boundaries.
    pub migrations_considered: u64,
    /// Migrations launched onto the fabric.
    pub migrations_launched: u64,
    /// Migrations vetoed by the predictive cost/benefit test.
    pub migrations_vetoed: u64,
    /// Migrations that crossed shards over the interconnect (also counted
    /// in `migrations_launched`). Zero in single-shard cells.
    pub migrations_cross_shard: u64,
    /// Migrations that crossed regions over the WAN (also counted in
    /// `migrations_launched`). Zero in single-region cells.
    pub migrations_cross_region: u64,
    /// Migrations whose KV landed in destination CPU memory.
    pub migrations_landed_in_cpu: u64,
    /// Arrivals admitted by the admission controller.
    pub admission_admitted: u64,
    /// Arrivals rejected at predicted overload.
    pub admission_rejected: u64,
    /// Arrivals spilled to a remote region instead of being rejected.
    pub admission_spilled: u64,
    /// Requests stranded by fleet outages (zero without a fleet schedule).
    pub requests_stranded: u64,
    /// Mean drain completion time in seconds (zero when no drain finished).
    pub drain_completion_s: f64,
    /// Queued requests re-placed by the water-filling rebalancer.
    pub rebalance_moves: u64,
    /// Autoscaler actions taken (scale-ups plus scale-downs).
    pub autoscale_actions: u64,
}

impl SweepCellMetrics {
    /// Condenses one run's outputs into a sweep row. `makespan_s` is the
    /// run's makespan in seconds; QoE-derived numbers use `qoe`.
    #[must_use]
    pub fn from_run(
        records: &[RequestRecord],
        migration: &MigrationOutcomes,
        admission: &AdmissionCounters,
        fleet: &FleetOutcomes,
        makespan_s: f64,
        qoe: &QoeParams,
    ) -> Self {
        let ttft = LatencySummary::from_values(
            records
                .iter()
                .filter_map(|r| r.ttft().map(|d| d.as_secs_f64())),
        );
        // One QoE score per record feeds the mean, the violation rate and
        // the goodput — the same definitions as `slo_violation_rate` and
        // `goodput_requests_per_s`, without scoring each stream three times.
        let mut qoe_sum = 0.0;
        let mut scored = 0usize;
        let mut violated = 0usize;
        let mut good = 0usize;
        for r in records {
            match answering_qoe(r, qoe) {
                Some(q) => {
                    qoe_sum += q;
                    scored += 1;
                    violated += usize::from(q < SLO_QOE_THRESHOLD);
                    good += usize::from(q >= SLO_QOE_THRESHOLD);
                }
                None => good += 1,
            }
        }
        let mean_qoe = if scored == 0 {
            0.0
        } else {
            qoe_sum / scored as f64
        };
        SweepCellMetrics {
            requests: records.len(),
            ttft_mean_s: ttft.as_ref().map(|t| t.mean),
            ttft_p50_s: ttft.as_ref().map(|t| t.p50),
            ttft_p99_s: ttft.as_ref().map(|t| t.p99),
            slo_violation_rate: share(violated, scored),
            mean_qoe,
            throughput_tokens_per_s: throughput_tokens_per_s(records),
            goodput_rps: per_makespan_s(good as f64, records),
            makespan_s,
            migrations_considered: migration.considered,
            migrations_launched: migration.launched,
            migrations_vetoed: migration.vetoed_by_cost,
            migrations_cross_shard: migration.cross_shard_launched,
            migrations_cross_region: migration.cross_region_launched,
            migrations_landed_in_cpu: migration.landed_in_cpu,
            admission_admitted: admission.admitted,
            admission_rejected: admission.rejected,
            admission_spilled: admission.spilled,
            requests_stranded: fleet.stranded,
            drain_completion_s: fleet.mean_drain_completion_s(),
            rebalance_moves: fleet.rebalanced,
            autoscale_actions: fleet.autoscale_actions(),
        }
    }

    /// Fraction of arrivals rejected by admission control.
    #[must_use]
    pub fn admission_rejection_rate(&self) -> f64 {
        AdmissionCounters {
            admitted: self.admission_admitted,
            rejected: self.admission_rejected,
            spilled: self.admission_spilled,
        }
        .rejection_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{goodput_requests_per_s, slo_violation_rate};
    use pascal_sim::{SimDuration, SimTime};
    use pascal_workload::{RequestId, RequestSpec};
    use proptest::prelude::*;

    proptest! {
        /// Scoring each record once gives exactly the public definitions:
        /// the row's violation rate and goodput are `==` to
        /// `slo_violation_rate` and `goodput_requests_per_s`, and its mean
        /// QoE to the mean of `answering_qoe` over the scored records.
        ///
        /// Each record is `((reasoning, answering), (arrival_ms, gap_ms))`;
        /// token `i` lands `gap_ms × (1 + i·7 mod 5)` after token `i − 1`,
        /// so streams mix on-pace runs with stalls.
        #[test]
        fn prop_from_run_matches_public_definitions(
            shapes in proptest::collection::vec(
                ((1u32..4, 0u32..12), (0u64..2_000, 0u64..120)),
                0..40,
            )
        ) {
            let records: Vec<RequestRecord> = shapes
                .iter()
                .enumerate()
                .map(|(i, &((reasoning, answering), (arrival_ms, gap_ms)))| {
                    let arrival = SimTime::from_nanos(arrival_ms * 1_000_000);
                    let spec =
                        RequestSpec::new(RequestId(i as u64), arrival, 16, reasoning, answering);
                    let mut t = arrival;
                    let token_times: Vec<SimTime> = (0..u64::from(reasoning + answering))
                        .map(|k| {
                            t += SimDuration::from_millis(gap_ms * (1 + k * 7 % 5));
                            t
                        })
                        .collect();
                    RequestRecord {
                        spec,
                        completion: token_times.last().copied().unwrap_or(arrival),
                        token_times,
                        executed: SimDuration::ZERO,
                        blocked: SimDuration::ZERO,
                        preempted: SimDuration::ZERO,
                        num_preemptions: 0,
                        answer_resume_time: None,
                        migration: None,
                        instances_visited: vec![0],
                    }
                })
                .collect();
            let params = QoeParams::paper_eval();
            let row = SweepCellMetrics::from_run(
                &records,
                &MigrationOutcomes::default(),
                &AdmissionCounters::default(),
                &FleetOutcomes::default(),
                1.0,
                &params,
            );
            prop_assert_eq!(
                row.slo_violation_rate,
                slo_violation_rate(&records, &params, SLO_QOE_THRESHOLD)
            );
            prop_assert_eq!(
                row.goodput_rps,
                goodput_requests_per_s(&records, &params, SLO_QOE_THRESHOLD)
            );
            let qoes: Vec<f64> = records.iter().filter_map(|r| answering_qoe(r, &params)).collect();
            let mean = if qoes.is_empty() {
                0.0
            } else {
                qoes.iter().sum::<f64>() / qoes.len() as f64
            };
            prop_assert_eq!(row.mean_qoe.to_bits(), mean.to_bits());
        }
    }

    #[test]
    fn empty_run_produces_zeroed_row() {
        let row = SweepCellMetrics::from_run(
            &[],
            &MigrationOutcomes::default(),
            &AdmissionCounters::default(),
            &FleetOutcomes::default(),
            0.0,
            &QoeParams::paper_eval(),
        );
        assert_eq!(row.requests, 0);
        assert_eq!(row.ttft_p99_s, None);
        assert_eq!(row.slo_violation_rate, 0.0);
        assert_eq!(row.admission_rejection_rate(), 0.0);
        assert_eq!(row.requests_stranded, 0);
        assert_eq!(row.drain_completion_s, 0.0);
        assert_eq!(row.rebalance_moves, 0);
        assert_eq!(row.autoscale_actions, 0);
    }

    #[test]
    fn counters_are_copied_through() {
        let migration = MigrationOutcomes {
            considered: 10,
            launched: 6,
            vetoed_by_cost: 3,
            landed_in_cpu: 1,
            cross_shard_launched: 2,
            cross_region_launched: 1,
            ..MigrationOutcomes::default()
        };
        let admission = AdmissionCounters {
            admitted: 9,
            rejected: 3,
            spilled: 2,
        };
        let fleet = FleetOutcomes {
            stranded: 4,
            drains_completed: 2,
            drain_time: pascal_sim::SimDuration::from_secs(5),
            rebalanced: 6,
            autoscale_up: 1,
            autoscale_down: 2,
            ..FleetOutcomes::default()
        };
        let row = SweepCellMetrics::from_run(
            &[],
            &migration,
            &admission,
            &fleet,
            12.5,
            &QoeParams::paper_eval(),
        );
        assert_eq!(row.migrations_considered, 10);
        assert_eq!(row.migrations_launched, 6);
        assert_eq!(row.migrations_vetoed, 3);
        assert_eq!(row.migrations_cross_shard, 2);
        assert_eq!(row.migrations_cross_region, 1);
        assert_eq!(row.migrations_landed_in_cpu, 1);
        assert_eq!(row.admission_admitted, 9);
        assert_eq!(row.admission_rejected, 3);
        assert_eq!(row.admission_spilled, 2);
        assert!((row.admission_rejection_rate() - 0.25).abs() < 1e-12);
        assert!((row.makespan_s - 12.5).abs() < 1e-12);
        assert_eq!(row.requests_stranded, 4);
        assert!((row.drain_completion_s - 2.5).abs() < 1e-12);
        assert_eq!(row.rebalance_moves, 6);
        assert_eq!(row.autoscale_actions, 3);
    }
}
