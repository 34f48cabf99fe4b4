//! The benchmark's workloads: which simulations each one runs, built from
//! the seed argument alone.

use pascal_core::sweep::SweepGrid;
use pascal_core::{RateLevel, ScenarioSpec, SimConfig};
use pascal_sched::PolicyKind;
use pascal_workload::{ArrivalProcess, MixPreset, Trace, TraceBuilder};

/// Requests in each `deep` cell's trace. The traced run's
/// `sched.queue_depth.*` gauges put the queue at a peak of about 1150
/// requests per instance and a mean of about 400 over the run.
pub const DEEP_REQUESTS: usize = 10_000;
/// Arrival rate of `deep` as a multiple of the `high` level. At `high`
/// itself the cluster sits at the analytic capacity, where the backlog is
/// a random walk and median TTFT varies threefold between seeds; well
/// above it the backlog grows steadily and seeds agree within about 10%.
pub const DEEP_OVERLOAD: f64 = 2.5;
/// Independent `deep` cells per pass, each with its own trace. Over ten
/// seeds the quartile distance of one cell's median TTFT is about 7% of
/// its median; pooling three cells brings it to about 2.5%.
pub const DEEP_COPIES: usize = 3;
/// Copies of the CI gate's cells `grid` runs per pass. Cells stay at the
/// gate's 120 requests, so no backlog builds; the copies pool enough
/// requests for steady tail figures.
pub const GRID_REPLICAS: usize = 3;
/// The sweep presets whose cells make up `grid`: the CI perf gate's cells,
/// plus the 64-shard, 128-instance `stress` topology at CI size, where
/// routing over many pools, cross-shard escape and the windowed executor
/// carry the cost.
pub const GRID_PRESETS: [&str; 5] = ["ci", "sharded", "federated", "chaos", "stress-smoke"];

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 8-instance, one-shard PASCAL clusters, overloaded so queues grow
    /// deep.
    Deep,
    /// Every cell of the CI perf gate's grids and the stress topology, all
    /// shallow.
    Grid,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "deep" => Ok(Workload::Deep),
            "grid" => Ok(Workload::Grid),
            other => Err(format!("unknown workload '{other}' (valid: deep, grid)")),
        }
    }

    /// The simulations this workload runs, all derived from `seed`.
    pub fn cells(self, seed: u64) -> Vec<CellSpec> {
        match self {
            Workload::Deep => (0..DEEP_COPIES)
                .map(|i| CellSpec {
                    spec: ScenarioSpec::new(
                        MixPreset::Mixed,
                        RateLevel::High,
                        PolicyKind::Pascal,
                        DEEP_REQUESTS,
                        cell_seed(seed, i as u64),
                    ),
                    overload: Some(DEEP_OVERLOAD),
                })
                .collect(),
            // The gate's grids share one trace among cells that differ only
            // in policy or topology, leaving a few hundred distinct requests
            // to set the pooled tail. Here every cell draws its own trace.
            Workload::Grid => {
                let cells: Vec<ScenarioSpec> = GRID_PRESETS
                    .iter()
                    .flat_map(|name| preset(name).expand())
                    .collect();
                (0..GRID_REPLICAS)
                    .flat_map(|_| cells.iter().copied())
                    .enumerate()
                    .map(|(i, mut spec)| {
                        spec.seed = cell_seed(seed, i as u64);
                        CellSpec::plain(spec)
                    })
                    .collect()
            }
        }
    }
}

fn preset(name: &str) -> SweepGrid {
    SweepGrid::preset(name).expect("the benchmark names only existing presets")
}

/// The trace seed of cell `index`: SplitMix64 over the workload seed and
/// the index, so neighbouring seeds and cells decorrelate.
fn cell_seed(seed: u64, index: u64) -> u64 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut z = seed
        .wrapping_mul(GOLDEN)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One simulation: a sweep cell, optionally at a multiple of its level's
/// arrival rate.
#[derive(Clone, Copy, Debug)]
pub struct CellSpec {
    /// The cell.
    pub spec: ScenarioSpec,
    /// Poisson arrivals at this multiple of the level's rate, in place of
    /// the cell's own arrival process.
    pub overload: Option<f64>,
}

impl CellSpec {
    fn plain(spec: ScenarioSpec) -> CellSpec {
        CellSpec {
            spec,
            overload: None,
        }
    }

    /// The same cell with `count` requests (the depth ladder's rungs).
    pub fn with_count(mut self, count: usize) -> CellSpec {
        self.spec.count = count;
        self
    }

    /// The cell's identifier in spans and messages.
    pub fn label(&self) -> String {
        let rate = self
            .overload
            .map_or(String::new(), |scale| format!(" x{scale}"));
        format!("{}{rate} seed={}", self.spec.label(), self.spec.seed)
    }

    /// Builds the trace.
    pub fn trace(&self) -> Trace {
        match self.overload {
            Some(scale) => TraceBuilder::new(self.spec.mix.mix())
                .arrivals(ArrivalProcess::poisson(self.spec.rate_rps() * scale))
                .count(self.spec.count)
                .seed(self.spec.seed)
                .build(),
            None => self.spec.trace(),
        }
    }

    /// Builds the deployment.
    pub fn config(&self) -> SimConfig {
        self.spec.config()
    }
}

/// A cell with its inputs built, ready to simulate.
pub struct Cell {
    /// Where the inputs came from.
    pub spec: CellSpec,
    /// The arrivals.
    pub trace: Trace,
    /// The deployment, telemetry off.
    pub config: SimConfig,
}

impl Cell {
    /// Builds the cell's inputs.
    pub fn build(spec: CellSpec) -> Cell {
        Cell {
            spec,
            trace: spec.trace(),
            config: spec.config(),
        }
    }
}
