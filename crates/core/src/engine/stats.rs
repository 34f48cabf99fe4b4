//! The instance monitor (Fig. 6's instance monitor).
//!
//! Assembles one [`InstanceStats`] snapshot per instance: answering SLO
//! health (`t_i`), KV footprint (`m_i`), queue counts (`r_i`, `a_i`), free
//! GPU blocks, and — when a consumer needs it — the predicted future KV
//! growth of the in-flight requests. Placement (Algorithm 1), migration
//! (Algorithm 2) and the admission controller all read this snapshot.
//!
//! A row is built from state kept up to date, not by walking members: the
//! phase counts and pacer deadlines come from the instance's
//! [tallies](super::monitor), the footprint and free blocks from its pools.
//! Only the predicted-growth field still sweeps the members, and only when
//! a length predictor feeds a consumer of it. Rows are cached between
//! mutations on top of that. The member sweep the tallies replaced is kept
//! as the reference: debug builds compare every row against it.
//!
//! Hot-path consumers (arrival placement, phase transitions) collect into a
//! reused buffer via [`Shard::collect_stats_into`]; the allocating
//! [`Shard::collect_stats`] remains for the cluster-level paths that need
//! an owned snapshot.

use pascal_cluster::InstanceStats;
use pascal_sched::SchedPolicy;
use pascal_sim::SimTime;
use pascal_telemetry::{SeriesRow, SeriesScope};
use pascal_workload::Phase;

use super::Shard;

impl Shard<'_> {
    /// Monitor snapshot of every instance, written into `out` (cleared
    /// first) — the allocation-free form the hot path uses.
    ///
    /// Incremental: each instance's row is served from its
    /// [`StatsCacheEntry`](super::StatsCacheEntry) when still fresh —
    /// cleared by [`Shard::mark_stats_dirty`] at every mutation, expired
    /// by predictor updates (epoch) and pacer deadlines (`valid_until`) —
    /// and otherwise rebuilt from the instance's tallies. Debug builds
    /// compare every served and every rebuilt row against the member
    /// sweep.
    pub(super) fn collect_stats_into(&self, now: SimTime, out: &mut Vec<InstanceStats>) {
        out.clear();
        let wants_predicted_growth = self.wants_predicted_growth();
        // Only healthy instances report: draining and down instances are
        // invisible to placement, migration targeting, admission projection
        // and the router's pool view. A static fleet is all-healthy, so the
        // filter never removes a row there.
        for (i, rt) in self.instances.iter().enumerate() {
            if self.health[i] != crate::fleet::HealthState::Healthy {
                continue;
            }
            let cached = rt.stats_cache.get().filter(|e| {
                e.epoch == self.predictor_epoch && e.valid_until.is_none_or(|v| now < v)
            });
            let stats = match cached {
                Some(entry) => {
                    self.monitor.count(|c| c.rows_served += 1);
                    #[cfg(debug_assertions)]
                    assert_eq!(
                        entry.stats,
                        self.reference_row(rt, now, wants_predicted_growth).stats,
                        "stale monitor-row cache on instance {i}: a mutation site \
                         is missing a mark_stats_dirty call"
                    );
                    entry.stats
                }
                None => {
                    let entry = self.compute_instance_stats(rt, now, wants_predicted_growth);
                    rt.stats_cache.set(Some(entry));
                    #[cfg(debug_assertions)]
                    {
                        let swept = self.reference_row(rt, now, wants_predicted_growth);
                        assert!(
                            entry.stats == swept.stats && entry.valid_until == swept.valid_until,
                            "monitor tallies of instance {i} disagree with its members: a \
                             mutation site is missing a refile call"
                        );
                    }
                    entry.stats
                }
            };
            out.push(stats);
        }
    }

    /// Whether any consumer reads `predicted_future_kv_bytes` this run:
    /// predicted growth feeds predictive Algorithm 1 placement (PASCAL
    /// only), the admission controller's pool projection, the autoscaler's
    /// demand estimate, and — in a multi-shard cluster — the predictive
    /// router's shard ranking, which reads the field through
    /// `PoolSnapshot` even under baseline policies. Rank-only predictors
    /// estimate nothing and contribute zero — consumers then degrade
    /// gracefully to current footprints. When no consumer reads the
    /// field, the row skips the per-member estimates.
    fn wants_predicted_growth(&self) -> bool {
        matches!(self.policy, SchedPolicy::Pascal(_))
            || self.admission_ctl.enabled()
            || self.autoscaler.is_some()
            || (self.config.shards > 1
                && self.config.router == pascal_sched::RouterPolicy::Predictive)
    }

    /// Builds one instance's monitor row, together with its cache-validity
    /// bounds, from the instance's tallies: two counters and one min-scan
    /// over the started answering streams' pacer deadlines.
    pub(super) fn compute_instance_stats(
        &self,
        rt: &super::InstanceRt,
        now: SimTime,
        wants_predicted_growth: bool,
    ) -> super::StatsCacheEntry {
        let row = self.monitor.row(rt.inst.id, now);
        let predicted_future_kv_bytes = self.predicted_future_kv_bytes(rt, wants_predicted_growth);
        self.monitor.count(|c| c.rows_computed += 1);
        super::StatsCacheEntry {
            stats: InstanceStats {
                instance: rt.inst.id,
                slo_ok: row.slo_ok,
                kv_footprint_bytes: rt.inst.kv_footprint_bytes(),
                reasoning_count: row.reasoning,
                fresh_answering_count: row.fresh_answering,
                gpu_free_blocks: rt.inst.gpu.free_blocks(),
                predicted_future_kv_bytes,
            },
            epoch: self.predictor_epoch,
            valid_until: row.valid_until,
        }
    }

    /// The member sweep as the debug checks run it: its reads do not show
    /// in the work counters.
    #[cfg(debug_assertions)]
    fn reference_row(
        &self,
        rt: &super::InstanceRt,
        now: SimTime,
        wants_predicted_growth: bool,
    ) -> super::StatsCacheEntry {
        let counted = self.monitor.counters.get();
        let swept = self.sweep_instance_stats(rt, now, wants_predicted_growth);
        self.monitor.counters.set(counted);
        swept
    }

    /// Computes one instance's monitor row by walking every member — the
    /// reference implementation the tallies replaced. Debug builds compare
    /// every row against it, and the snapshot microbench prices the tally
    /// path against it.
    pub(super) fn sweep_instance_stats(
        &self,
        rt: &super::InstanceRt,
        now: SimTime,
        wants_predicted_growth: bool,
    ) -> super::StatsCacheEntry {
        let members = rt.inst.members.len() as u64;
        self.monitor.count(|c| c.member_reads += members);
        let mut slo_ok = true;
        let mut valid_until: Option<SimTime> = None;
        let mut reasoning = 0u32;
        let mut fresh_answering = 0u32;
        for (_, handle) in rt.inst.members.iter() {
            let st = &self.states[handle];
            match st.phase {
                Phase::Reasoning => {
                    if !st.demoted {
                        reasoning += 1;
                    }
                }
                Phase::Answering => {
                    if st.quanta_used == 0 {
                        fresh_answering += 1;
                    }
                    // `on_pace_until` fully characterizes the pacer: on
                    // pace exactly while `now` is below it (never, for an
                    // unstarted stream). The earliest member deadline is
                    // when this row's `slo_ok` would flip with no further
                    // event — the cache's time bound.
                    match st.pacer.on_pace_until() {
                        None => {}
                        Some(flip) if now < flip => {
                            valid_until = Some(valid_until.map_or(flip, |v| v.min(flip)));
                        }
                        Some(_) => slo_ok = false,
                    }
                }
            }
        }
        // An off-pace row cannot heal with time alone (expected tokens
        // only grow): it stays valid until a mutation clears the cell.
        if !slo_ok {
            valid_until = None;
        }
        super::StatsCacheEntry {
            stats: InstanceStats {
                instance: rt.inst.id,
                slo_ok,
                kv_footprint_bytes: rt.inst.kv_footprint_bytes(),
                reasoning_count: reasoning,
                fresh_answering_count: fresh_answering,
                gpu_free_blocks: rt.inst.gpu.free_blocks(),
                predicted_future_kv_bytes: self
                    .predicted_future_kv_bytes(rt, wants_predicted_growth),
            },
            epoch: self.predictor_epoch,
            valid_until,
        }
    }

    /// The predictor's estimate of the KV the instance's members will
    /// still grow by — a member sweep, run only when a consumer reads the
    /// field and a predictor exists (zero otherwise).
    fn predicted_future_kv_bytes(
        &self,
        rt: &super::InstanceRt,
        wants_predicted_growth: bool,
    ) -> u64 {
        if !wants_predicted_growth {
            return 0;
        }
        self.predictor.as_ref().map_or(0, |pred| {
            let members = rt.inst.members.len() as u64;
            self.monitor.count(|c| c.member_reads += members);
            rt.inst
                .members
                .iter()
                .map(|(_, handle)| {
                    let st = &self.states[handle];
                    let Some(remaining) =
                        pred.predicted_remaining_tokens(&st.spec, st.tokens_generated)
                    else {
                        return 0;
                    };
                    self.geometry.bytes_for_tokens(remaining.round() as u64)
                })
                .sum()
        })
    }

    /// Every healthy row rebuilt with no cache reads or writes — by the
    /// member sweep when `from_members`, else from the tallies. Only the
    /// bench support calls it, to price the two row builders against each
    /// other.
    pub(super) fn collect_stats_uncached_into(
        &self,
        now: SimTime,
        from_members: bool,
        out: &mut Vec<InstanceStats>,
    ) {
        out.clear();
        let wants_predicted_growth = self.wants_predicted_growth();
        for (i, rt) in self.instances.iter().enumerate() {
            if self.health[i] != crate::fleet::HealthState::Healthy {
                continue;
            }
            let entry = if from_members {
                self.sweep_instance_stats(rt, now, wants_predicted_growth)
            } else {
                self.compute_instance_stats(rt, now, wants_predicted_growth)
            };
            out.push(entry.stats);
        }
    }

    /// Monitor snapshot of every instance, as an owned vector.
    pub(super) fn collect_stats(&self, now: SimTime) -> Vec<InstanceStats> {
        let mut out = Vec::with_capacity(self.instances.len());
        self.collect_stats_into(now, &mut out);
        out
    }

    /// One telemetry gauge sample of this shard at `at` — queue pressure,
    /// phase mix, KV occupancy, admission headroom and predictor accuracy
    /// so far. Read-only: sampling must not perturb the simulation.
    pub(super) fn series_row(&self, at: SimTime) -> SeriesRow {
        let mut queue_depth = 0u64;
        let mut reasoning = 0u64;
        let mut answering = 0u64;
        for (_, st) in self.states.iter() {
            if !st.running {
                queue_depth += 1;
            }
            match st.phase {
                Phase::Reasoning => reasoning += 1,
                Phase::Answering => answering += 1,
            }
        }
        let stats = self.collect_stats(at);
        let (abs_err, err_n) = self.prediction_abs_error();
        SeriesRow {
            t: at,
            scope: SeriesScope::Shard,
            region: self.region(),
            shard: Some(self.id),
            queue_depth,
            active: self.states.len() as u64,
            reasoning,
            answering,
            kv_used_bytes: stats.iter().map(|s| s.kv_footprint_bytes).sum(),
            // 0 encodes unbounded (oracle) memory.
            kv_capacity_bytes: self
                .config
                .kv_capacity_bytes()
                .map_or(0, |c| c * self.instances.len() as u64),
            admission_headroom_bytes: self.admission_headroom(&stats),
            predictor_mean_abs_error: (err_n > 0).then(|| abs_err / err_n as f64),
            wan_busy_s: None,
            slo_burn: self.slo_tracker.as_ref().and_then(|t| t.burn_gauge(at)),
        }
    }

    /// Sum of absolute reasoning-length prediction errors and the number
    /// of samples behind it — kept split so region rows can aggregate
    /// across shards without double-averaging.
    pub(super) fn prediction_abs_error(&self) -> (f64, u64) {
        let mut sum = 0.0;
        let mut n = 0u64;
        for s in &self.prediction_samples {
            if let Some(p) = s.predicted_reasoning_tokens {
                sum += (p - f64::from(s.actual_reasoning_tokens)).abs();
                n += 1;
            }
        }
        (sum, n)
    }
}
