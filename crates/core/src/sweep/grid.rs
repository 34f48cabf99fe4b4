//! Declarative sweep grids and their named presets.

use pascal_federation::FederationPolicy;
use pascal_predict::PredictorKind;
use pascal_sched::{PolicyKind, RouterPolicy};
use pascal_workload::MixPreset;

use crate::config::RateLevel;
use crate::engine::AdmissionMode;
use crate::fleet::FleetPreset;
use crate::sweep::ScenarioSpec;

/// A declarative cross-product of scenario axes.
///
/// [`SweepGrid::expand`] enumerates the product mix-major (mix → level →
/// policy → predictor → admission → migration benefit), skipping
/// combinations that are incoherent (the cost test without absolute
/// estimates) or redundant (a predictor attached to a baseline policy with
/// every predictive controller off — behaviorally identical to the plain
/// baseline, so running it would only duplicate a cell).
#[derive(Clone, Debug)]
pub struct SweepGrid {
    /// Grid name, recorded in the report.
    pub name: String,
    /// Workload mixes.
    pub mixes: Vec<MixPreset>,
    /// Arrival-rate levels.
    pub levels: Vec<RateLevel>,
    /// Scheduler variants.
    pub policies: Vec<PolicyKind>,
    /// Length predictors (`None` = reactive).
    pub predictors: Vec<Option<PredictorKind>>,
    /// Admission-control modes.
    pub admissions: Vec<AdmissionMode>,
    /// Predictive-migration benefit ratios (`None` = reactive).
    pub migration_benefits: Vec<Option<f64>>,
    /// Requests per cell trace.
    pub count: usize,
    /// Cluster size per cell (aggregate over shards — fixed capacity as
    /// the shard count varies).
    pub instances: usize,
    /// Shard counts. Cells with one shard collapse the router axis (the
    /// router is never consulted), keeping only the first router.
    pub shard_counts: Vec<usize>,
    /// Cross-shard routers.
    pub routers: Vec<RouterPolicy>,
    /// Region counts. Cells with one region collapse the federation-router
    /// axis, keeping only the first federation router.
    pub region_counts: Vec<usize>,
    /// Cross-region federation routers.
    pub fed_routers: Vec<FederationPolicy>,
    /// Fleet-event presets (`None` = static fleet).
    pub fleets: Vec<Option<FleetPreset>>,
    /// Base seed; per-cell trace seeds are derived from it (see
    /// [`derive_trace_seed`]).
    pub base_seed: u64,
}

impl SweepGrid {
    /// An empty grid with the evaluation defaults: reactive scheduler
    /// (no predictor, controllers off), eight instances, seed 2026.
    #[must_use]
    pub fn new(name: &str) -> Self {
        SweepGrid {
            name: name.to_owned(),
            mixes: Vec::new(),
            levels: Vec::new(),
            policies: Vec::new(),
            predictors: vec![None],
            admissions: vec![AdmissionMode::Disabled],
            migration_benefits: vec![None],
            count: 1000,
            instances: 8,
            shard_counts: vec![1],
            routers: vec![RouterPolicy::RoundRobin],
            region_counts: vec![1],
            fed_routers: vec![FederationPolicy::Static],
            fleets: vec![None],
            base_seed: 2026,
        }
    }

    /// The available preset names, in presentation order.
    pub const PRESET_NAMES: [&'static str; 9] = [
        "main",
        "predictive",
        "migration",
        "ci",
        "sharded",
        "federated",
        "chaos",
        "stress",
        "stress-smoke",
    ];

    /// A named grid preset.
    ///
    /// * `main` — the paper's main evaluation: chat mixes × all rates ×
    ///   the three schedulers (18 cells at 2500 requests);
    /// * `predictive` — reactive PASCAL vs the three predictors on the
    ///   chat and reasoning-heavy mixes at high rate (8 cells);
    /// * `migration` — the predictive-migration cost/benefit sweep on
    ///   Arena-Hard at high rate (5 cells);
    /// * `ci` — the smoke-sized grid the CI perf-regression gate runs:
    ///   both chat mixes at high rate under FCFS/RR/PASCAL plus
    ///   Oracle-predictive PASCAL, 120 requests per cell (8 cells);
    /// * `sharded` — the shard-scaling cross-product: PASCAL (reactive
    ///   and Oracle-predicted) on the mixed trace at medium/high rate,
    ///   1/2/4 shards at fixed aggregate capacity × the three routers
    ///   (28 cells; each one-shard anchor keeps a single router cell
    ///   since routing is a no-op there);
    /// * `federated` — the region-scaling cross-product: PASCAL (reactive
    ///   and Oracle-predicted) on the reasoning-heavy mix at high rate,
    ///   1/2/4 regions at fixed aggregate capacity × the three federation
    ///   routers (14 cells; one-region anchors collapse the
    ///   federation-router axis). Origins follow the harmonic skew, so
    ///   `static` really does overload the hot region.
    /// * `chaos` — the elasticity-under-failure grid: quantile-predicted
    ///   PASCAL on the mixed trace at high rate across two regions, static
    ///   vs predictive federation routing × the three fleet presets
    ///   (region outage, flash crowd, diurnal) — 6 cells at 120 requests,
    ///   sized for the CI perf gate like `ci`;
    /// * `stress` — the engine-capacity cell: ten million mixed-trace
    ///   requests on a 128-instance cluster split into 64 shards under
    ///   PASCAL (1 cell). Minutes of wall clock even with slab storage,
    ///   the indexed scheduling pass and the event frontier; run it
    ///   deliberately, never in CI;
    /// * `stress-smoke` — the same 64-shard × 128-instance topology with
    ///   the trace scaled down to 2000 requests (1 cell): the CI-sized
    ///   proof that the stress configuration schedules, migrates and
    ///   drains correctly.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid preset names.
    pub fn preset(name: &str) -> Result<SweepGrid, String> {
        let mut grid = SweepGrid::new(name);
        match name {
            "main" => {
                grid.mixes = vec![MixPreset::Alpaca, MixPreset::Arena];
                grid.levels = RateLevel::ALL.to_vec();
                grid.policies = PolicyKind::MAIN.to_vec();
                grid.count = 2500;
            }
            "predictive" => {
                grid.mixes = vec![MixPreset::Arena, MixPreset::ReasoningHeavy];
                grid.levels = vec![RateLevel::High];
                grid.policies = vec![PolicyKind::Pascal];
                grid.predictors = vec![
                    None,
                    Some(PredictorKind::Oracle),
                    Some(PredictorKind::ProfileEma),
                    Some(PredictorKind::PairwiseRank),
                    Some(PredictorKind::Quantile),
                ];
                grid.count = 2000;
            }
            "migration" => {
                grid.mixes = vec![MixPreset::Arena];
                grid.levels = vec![RateLevel::High];
                grid.policies = vec![PolicyKind::Pascal];
                grid.predictors = vec![
                    None,
                    Some(PredictorKind::Oracle),
                    Some(PredictorKind::ProfileEma),
                ];
                grid.migration_benefits = vec![None, Some(1000.0)];
                grid.count = 2000;
            }
            "ci" => {
                grid.mixes = vec![MixPreset::Alpaca, MixPreset::Arena];
                grid.levels = vec![RateLevel::High];
                grid.policies = PolicyKind::MAIN.to_vec();
                grid.predictors = vec![None, Some(PredictorKind::Oracle)];
                grid.count = 120;
            }
            "sharded" => {
                grid.mixes = vec![MixPreset::Mixed];
                grid.levels = vec![RateLevel::Medium, RateLevel::High];
                grid.policies = vec![PolicyKind::Pascal];
                grid.shard_counts = vec![1, 2, 4];
                grid.routers = RouterPolicy::ALL.to_vec();
                // The Oracle axis makes the predictive router's
                // distinguishing path — predictor-informed shard ranking —
                // an actually-gated code path, not a least-loaded alias.
                grid.predictors = vec![None, Some(PredictorKind::Oracle)];
                grid.count = 120;
            }
            "federated" => {
                grid.mixes = vec![MixPreset::ReasoningHeavy];
                grid.levels = vec![RateLevel::High];
                grid.policies = vec![PolicyKind::Pascal];
                grid.region_counts = vec![1, 2, 4];
                grid.fed_routers = FederationPolicy::ALL.to_vec();
                // Oracle makes the predictive federation router's
                // distinguishing input — predicted per-region footprints —
                // a real signal rather than a least-loaded alias.
                grid.predictors = vec![None, Some(PredictorKind::Oracle)];
                grid.count = 120;
            }
            "chaos" => {
                grid.mixes = vec![MixPreset::Mixed];
                grid.levels = vec![RateLevel::High];
                grid.policies = vec![PolicyKind::Pascal];
                // Quantile is the predictor the autoscaler's load forecast
                // rides; the preset keeps it on every cell so the
                // comparison across fleet presets is a fleet comparison.
                grid.predictors = vec![Some(PredictorKind::Quantile)];
                grid.region_counts = vec![2];
                grid.fed_routers = vec![FederationPolicy::Static, FederationPolicy::Predictive];
                grid.fleets = vec![
                    Some(FleetPreset::Outage),
                    Some(FleetPreset::FlashCrowd),
                    Some(FleetPreset::Diurnal),
                ];
                grid.count = 120;
            }
            "stress" | "stress-smoke" => {
                grid.mixes = vec![MixPreset::Mixed];
                grid.levels = vec![RateLevel::High];
                grid.policies = vec![PolicyKind::Pascal];
                grid.instances = 128;
                grid.shard_counts = vec![64];
                grid.routers = vec![RouterPolicy::LeastLoaded];
                grid.count = if name == "stress" { 10_000_000 } else { 2000 };
            }
            other => {
                return Err(format!(
                    "unknown grid preset '{other}' (valid: {})",
                    SweepGrid::PRESET_NAMES.join(", ")
                ));
            }
        }
        Ok(grid)
    }

    /// Expands the grid into coherent cells, mix-major, each with its
    /// derived trace seed.
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty — an empty grid is a bug, not a sweep
    /// of zero cells.
    #[must_use]
    pub fn expand(&self) -> Vec<ScenarioSpec> {
        for (axis, len) in [
            ("mixes", self.mixes.len()),
            ("levels", self.levels.len()),
            ("policies", self.policies.len()),
            ("predictors", self.predictors.len()),
            ("admissions", self.admissions.len()),
            ("migration_benefits", self.migration_benefits.len()),
            ("shard_counts", self.shard_counts.len()),
            ("routers", self.routers.len()),
            ("region_counts", self.region_counts.len()),
            ("fed_routers", self.fed_routers.len()),
            ("fleets", self.fleets.len()),
        ] {
            assert!(len > 0, "grid '{}' has an empty {axis} axis", self.name);
        }
        let mut cells = Vec::new();
        for &mix in &self.mixes {
            for &level in &self.levels {
                let seed =
                    derive_trace_seed(self.base_seed, mix, level, self.count, self.instances);
                for &policy in &self.policies {
                    for &predictor in &self.predictors {
                        for &admission in &self.admissions {
                            for &benefit in &self.migration_benefits {
                                for &shards in &self.shard_counts {
                                    for &router in &self.routers {
                                        for &regions in &self.region_counts {
                                            for &fed_router in &self.fed_routers {
                                                for &fleet in &self.fleets {
                                                    let spec = ScenarioSpec {
                                                        mix,
                                                        level,
                                                        policy,
                                                        predictor,
                                                        admission,
                                                        migration_benefit: benefit,
                                                        count: self.count,
                                                        instances: self.instances,
                                                        shards,
                                                        router,
                                                        regions,
                                                        fed_router,
                                                        fleet,
                                                        seed,
                                                    };
                                                    if self.keep(&spec) {
                                                        cells.push(spec);
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// The pruning rule: drop incoherent cells, cells where a predictor
    /// changes nothing (baseline policy with every predictive consumer off
    /// — the run would be byte-identical to the `None` cell), one-shard
    /// cells beyond the first router, and one-region cells beyond the
    /// first federation router (neither router is ever consulted there, so
    /// those runs would be byte-identical too).
    fn keep(&self, spec: &ScenarioSpec) -> bool {
        if spec.validate().is_err() {
            return false;
        }
        if spec.shards == 1 && spec.router != self.routers[0] {
            return false;
        }
        if spec.regions == 1 && spec.fed_router != self.fed_routers[0] {
            return false;
        }
        let predictor_consumed = matches!(
            spec.policy,
            PolicyKind::Pascal | PolicyKind::PascalNoMigration | PolicyKind::PascalNonAdaptive
        ) || spec.admission != AdmissionMode::Disabled
            || spec.migration_benefit.is_some();
        spec.predictor.is_none() || predictor_consumed
    }
}

/// Derives a cell's trace seed from the grid's base seed and the axes that
/// define the trace (mix, level, count, instances) — and nothing else, so
/// cells that differ only in policy, predictor or controller settings
/// share a trace and the comparison stays paired, exactly as the paper's
/// evaluation shares traces across schedulers.
///
/// FNV-1a over the trace-defining fields, finished with a SplitMix64-style
/// avalanche so adjacent base seeds decorrelate.
#[must_use]
pub fn derive_trace_seed(
    base: u64,
    mix: MixPreset,
    level: RateLevel,
    count: usize,
    instances: usize,
) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(&base.to_le_bytes());
    eat(mix.key().as_bytes());
    eat(level.key().as_bytes());
    eat(&(count as u64).to_le_bytes());
    eat(&(instances as u64).to_le_bytes());
    // SplitMix64 finalizer.
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_expand_to_expected_cell_counts() {
        assert_eq!(SweepGrid::preset("main").unwrap().expand().len(), 18);
        // predictive: reactive + oracle/ema/rank/quantile, per mix.
        assert_eq!(SweepGrid::preset("predictive").unwrap().expand().len(), 10);
        // migration: (none,None), (oracle,None), (oracle,1000),
        // (ema,None), (ema,1000) — the none+1000 cell is pruned.
        assert_eq!(SweepGrid::preset("migration").unwrap().expand().len(), 5);
        // ci: per mix — fcfs, rr, pascal, pascal+oracle.
        assert_eq!(SweepGrid::preset("ci").unwrap().expand().len(), 8);
        // sharded: per level × predictor — 1 one-shard anchor + {2,4}
        // shards × 3 routers.
        assert_eq!(SweepGrid::preset("sharded").unwrap().expand().len(), 28);
        // federated: per predictor — 1 one-region anchor + {2,4} regions
        // × 3 federation routers.
        assert_eq!(SweepGrid::preset("federated").unwrap().expand().len(), 14);
        // chaos: 2 federation routers × 3 fleet presets.
        let chaos = SweepGrid::preset("chaos").unwrap().expand();
        assert_eq!(chaos.len(), 6);
        assert!(chaos.iter().all(|c| c.fleet.is_some() && c.regions == 2));
        // stress / stress-smoke: one 64-shard capacity cell each; the
        // smoke variant differs only in trace size.
        for name in ["stress", "stress-smoke"] {
            let cells = SweepGrid::preset(name).unwrap().expand();
            assert_eq!(cells.len(), 1, "{name}");
            assert_eq!(cells[0].shards, 64);
            assert_eq!(cells[0].instances, 128);
        }
        assert!(SweepGrid::preset("stress").unwrap().expand()[0].count >= 10_000_000);
        let err = SweepGrid::preset("everything").expect_err("unknown preset");
        assert!(err.contains("federated"), "error lists presets: {err}");
    }

    #[test]
    fn one_region_cells_collapse_the_federation_router_axis() {
        let cells = SweepGrid::preset("federated").unwrap().expand();
        let anchors: Vec<&ScenarioSpec> = cells.iter().filter(|c| c.regions == 1).collect();
        assert_eq!(anchors.len(), 2, "one anchor per predictor");
        assert!(anchors
            .iter()
            .all(|c| c.fed_router == pascal_federation::FederationPolicy::Static));
        // Region counts share the (mix, level) trace seed: the comparison
        // across region counts and federation routers is paired.
        assert!(cells.windows(2).all(|w| w[0].seed == w[1].seed));
    }

    #[test]
    fn one_shard_cells_collapse_the_router_axis() {
        let cells = SweepGrid::preset("sharded").unwrap().expand();
        let anchors: Vec<&ScenarioSpec> = cells.iter().filter(|c| c.shards == 1).collect();
        assert_eq!(anchors.len(), 4, "one anchor per (level, predictor)");
        assert!(anchors
            .iter()
            .all(|c| c.router == pascal_sched::RouterPolicy::RoundRobin));
        // Shard counts share the (mix, level) trace seed: the comparison
        // across shard counts is paired.
        let high: Vec<&ScenarioSpec> = cells
            .iter()
            .filter(|c| c.level == RateLevel::High)
            .collect();
        assert!(high.windows(2).all(|w| w[0].seed == w[1].seed));
    }

    #[test]
    fn expanded_labels_are_unique() {
        for name in SweepGrid::PRESET_NAMES {
            let cells = SweepGrid::preset(name).unwrap().expand();
            let mut labels: Vec<String> = cells.iter().map(ScenarioSpec::label).collect();
            labels.sort();
            labels.dedup();
            assert_eq!(labels.len(), cells.len(), "duplicate labels in '{name}'");
        }
    }

    #[test]
    fn paired_cells_share_trace_seeds_and_distinct_traces_do_not() {
        let cells = SweepGrid::preset("ci").unwrap().expand();
        let alpaca: Vec<&ScenarioSpec> = cells
            .iter()
            .filter(|c| c.mix == MixPreset::Alpaca)
            .collect();
        assert!(alpaca.windows(2).all(|w| w[0].seed == w[1].seed));
        let arena_seed = cells
            .iter()
            .find(|c| c.mix == MixPreset::Arena)
            .unwrap()
            .seed;
        assert_ne!(
            alpaca[0].seed, arena_seed,
            "different mixes, different seeds"
        );
    }

    #[test]
    fn derived_seeds_depend_on_every_trace_axis() {
        let base = derive_trace_seed(1, MixPreset::Arena, RateLevel::High, 100, 8);
        assert_eq!(
            base,
            derive_trace_seed(1, MixPreset::Arena, RateLevel::High, 100, 8)
        );
        assert_ne!(
            base,
            derive_trace_seed(2, MixPreset::Arena, RateLevel::High, 100, 8)
        );
        assert_ne!(
            base,
            derive_trace_seed(1, MixPreset::Alpaca, RateLevel::High, 100, 8)
        );
        assert_ne!(
            base,
            derive_trace_seed(1, MixPreset::Arena, RateLevel::Low, 100, 8)
        );
        assert_ne!(
            base,
            derive_trace_seed(1, MixPreset::Arena, RateLevel::High, 101, 8)
        );
        assert_ne!(
            base,
            derive_trace_seed(1, MixPreset::Arena, RateLevel::High, 100, 4)
        );
    }

    #[test]
    #[should_panic(expected = "empty mixes axis")]
    fn empty_axis_is_a_bug() {
        let _ = SweepGrid::new("empty").expand();
    }
}
