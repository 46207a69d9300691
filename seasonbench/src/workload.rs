//! The three season workloads: how each builds its population and its
//! fleet from the workload seed.

use loadbal_core::beta::BetaPolicy;
use loadbal_core::campaign::{CampaignBuilder, ClosedLoop, FixedPredictor};
use loadbal_core::execution::ExecutionMode;
use loadbal_core::fleet::FleetRunner;
use loadbal_core::reward::RewardFormula;
use loadbal_core::session::ReportTier;
use loadbal_core::utility_agent::UtilityAgentConfig;
use massim::network::NetworkModel;
use powergrid::prelude::*;
use std::num::NonZeroUsize;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 10⁶ households as one slab, 64 zero-copy shards, 8 winter days.
    CitySlab,
    /// 8 × 1000 object households, 60 days, patient negotiator, full trace.
    PatientFulltrace,
    /// 8 × 1000 object households, 60 days, distributed over a jittery,
    /// duplicating, reordering but lossless network.
    DistributedJitter,
}

const CITY_HOUSEHOLDS: usize = 1_000_000;
pub const CITY_SHARDS: usize = 64;
const CITY_DAYS: u64 = 8;
const CELLS: usize = 8;
const CELL_HOUSEHOLDS: usize = 1000;
const SEASON_DAYS: u64 = 60;

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "city_slab" => Some(Workload::CitySlab),
            "patient_fulltrace" => Some(Workload::PatientFulltrace),
            "distributed_jitter" => Some(Workload::DistributedJitter),
            _ => None,
        }
    }

    pub fn horizon(self) -> Horizon {
        match self {
            Workload::CitySlab => Horizon::new(CITY_DAYS, 0, Season::Winter),
            _ => Horizon::new(SEASON_DAYS, 0, Season::Winter),
        }
    }

    pub fn tier(self) -> ReportTier {
        match self {
            Workload::PatientFulltrace => ReportTier::FullTrace,
            _ => ReportTier::Settlement,
        }
    }

    /// The execution mode the timed season runs under.
    pub fn execution(self, seed: u64) -> ExecutionMode {
        match self {
            Workload::DistributedJitter => {
                ExecutionMode::distributed_faulty(jitter_network()).with_seed(seed)
            }
            _ => ExecutionMode::sync(),
        }
    }

    /// The population of every cell, built from the workload seed.
    pub fn population(self, seed: u64) -> Population {
        match self {
            Workload::CitySlab => Population::Slab(
                PopulationBuilder::new()
                    .households(CITY_HOUSEHOLDS)
                    .build_slab(seed),
            ),
            _ => Population::Objects(
                (0..CELLS as u64)
                    .map(|c| {
                        PopulationBuilder::new()
                            .households(CELL_HOUSEHOLDS)
                            .build(cell_seed(seed, c))
                    })
                    .collect(),
            ),
        }
    }

    /// The fleet over `population`: one campaign per cell, its horizon
    /// demand synthesised and its capacity sized by
    /// [`CampaignBuilder::build`].
    pub fn fleet<'a>(
        self,
        population: &'a Population,
        weather: &'a WeatherModel,
        horizon: &'a Horizon,
        mode: ExecutionMode,
    ) -> FleetRunner<'a> {
        let fleet = match (self, population) {
            (Workload::CitySlab, Population::Slab(slab)) => {
                FleetRunner::new().sharded_slab(slab, CITY_SHARDS, |shard, _| {
                    city_campaign(shard, weather, horizon).build()
                })
            }
            (_, Population::Objects(cells)) => {
                cells
                    .iter()
                    .enumerate()
                    .fold(FleetRunner::new(), |fleet, (i, homes)| {
                        let builder = CampaignBuilder::new(homes, weather, horizon)
                            .predictor(FixedPredictor(WeatherRegression::calibrated()))
                            .feedback(ClosedLoop);
                        let builder = match self {
                            Workload::PatientFulltrace => builder.ua_config(patient_ua()),
                            _ => builder,
                        };
                        fleet.cell(format!("cell{i}"), builder.build())
                    })
            }
            _ => unreachable!("the workload builds its own population backend"),
        };
        fleet
            .report_tier(self.tier())
            .execution(mode)
            .threads(pool_threads())
    }
}

/// The campaign shape of one city shard (also used by the slab/object
/// twin check).
pub fn city_campaign<'a>(
    shard: PopulationRef<'a>,
    weather: &'a WeatherModel,
    horizon: &'a Horizon,
) -> CampaignBuilder<'a> {
    CampaignBuilder::new_ref(shard, weather, horizon)
        .warmup_days(2)
        .predictor(FixedPredictor(MovingAverage::new(2)))
        .feedback(ClosedLoop)
}

/// The generated households of a workload.
pub enum Population {
    Objects(Vec<Vec<Household>>),
    Slab(PopulationSlab),
}

impl Population {
    pub fn households(&self) -> usize {
        match self {
            Population::Objects(cells) => cells.iter().map(Vec::len).sum(),
            Population::Slab(slab) => slab.len(),
        }
    }

    /// Device entries across the whole population.
    pub fn device_entries(&self) -> usize {
        match self {
            Population::Objects(cells) => cells.iter().flatten().map(|h| h.devices().len()).sum(),
            Population::Slab(slab) => slab.device_entries(),
        }
    }
}

/// E17's patient negotiator: a gentle β, a fine ε and a tight overuse
/// ceiling stretch every negotiation over many small concession rounds.
pub fn patient_ua() -> UtilityAgentConfig {
    UtilityAgentConfig {
        beta_policy: BetaPolicy::Constant { beta: 0.5 },
        max_allowed_overuse: 0.02,
        formula: RewardFormula {
            beta: 0.5,
            max_reward: Money(60.0),
            epsilon: Money(0.05),
        },
        ..UtilityAgentConfig::paper()
    }
}

/// Lossless but disorderly: 1–10-tick latency, 20 % duplication, 25 %
/// reordering by up to 20 ticks.
pub fn jitter_network() -> NetworkModel {
    NetworkModel::uniform(1, 10)
        .with_duplicate_probability(0.2)
        .with_reordering(0.25, 20)
}

/// The worker pool size: every core the process may use, never more.
pub fn pool_threads() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// A distinct population seed per cell.
fn cell_seed(seed: u64, cell: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(cell)
}
