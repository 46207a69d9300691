//! The traced season: every cell stepped through the public stepping
//! API on the calling thread, each call timed from outside.

use loadbal_core::campaign::CampaignEconomics;
use loadbal_core::execution::NetworkTraffic;
use loadbal_core::fleet::{CellReport, FleetReport, FleetRunner};
use loadbal_core::sync_driver::NegotiationScratch;
use std::time::Instant;

/// Seconds spent inside each stepping call, summed over the season.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stages {
    /// `CampaignRunner::progress` (the predictor policy's warm-up choice).
    pub choose: f64,
    /// `CampaignProgress::next_day` (predict, detect, materialise scenarios).
    pub next_day: f64,
    /// `DayPlan::negotiate`.
    pub negotiate: f64,
    /// `CampaignProgress::complete_day` (feedback, tuning, reselection).
    pub complete_day: f64,
    /// `CampaignProgress::finish` (report and economics assembly).
    pub finish: f64,
}

impl Stages {
    pub fn total(&self) -> f64 {
        self.choose + self.next_day + self.negotiate + self.complete_day + self.finish
    }
}

/// One stepped season.
pub struct Stepped {
    pub report: FleetReport,
    pub stages: Stages,
    /// Wall time of the whole stepped season.
    pub wall: f64,
    /// Peaks detected, summed over day plans.
    pub peaks: u64,
    /// Customer profiles materialised, summed over scenarios.
    pub customers: u64,
    /// Customers of each negotiated scenario, per cell, in outcome order.
    pub scenario_customers: Vec<Vec<usize>>,
    /// Network activity, summed over cells.
    pub traffic: NetworkTraffic,
}

/// Steps every cell of `fleet` in cell order, negotiating each plan's
/// scenarios in plan order through one scratch — the same order as
/// `FleetRunner::run_sequential`.
pub fn step_fleet(fleet: &FleetRunner<'_>) -> Stepped {
    let mut stages = Stages::default();
    let mut peaks = 0u64;
    let mut customers = 0u64;
    let mut traffic = NetworkTraffic::ZERO;
    let mut scenario_customers = Vec::with_capacity(fleet.len());
    let mut cells = Vec::with_capacity(fleet.len());
    let mut scratch = NegotiationScratch::new();
    let wall = Instant::now();
    for (label, runner) in fleet.cells() {
        let mut sizes = Vec::new();
        let t = Instant::now();
        let mut progress = runner.progress();
        stages.choose += t.elapsed().as_secs_f64();
        loop {
            let t = Instant::now();
            let plan = progress.next_day();
            stages.next_day += t.elapsed().as_secs_f64();
            let Some(plan) = plan else { break };
            peaks += plan.peaks().len() as u64;
            sizes.extend(plan.scenarios().iter().map(|(_, s)| s.customers.len()));
            let t = Instant::now();
            let reports = (0..plan.scenarios().len())
                .map(|i| plan.negotiate(i, &mut scratch))
                .collect();
            stages.negotiate += t.elapsed().as_secs_f64();
            let t = Instant::now();
            progress.complete_day(plan, reports);
            stages.complete_day += t.elapsed().as_secs_f64();
        }
        traffic += progress.traffic();
        let t = Instant::now();
        let report = progress.finish();
        stages.finish += t.elapsed().as_secs_f64();
        customers += sizes.iter().sum::<usize>() as u64;
        scenario_customers.push(sizes);
        cells.push(CellReport {
            label: label.clone(),
            report,
        });
    }
    let wall = wall.elapsed().as_secs_f64();
    let economics: CampaignEconomics = cells.iter().map(|c| c.report.economics).sum();
    Stepped {
        report: FleetReport { cells, economics },
        stages,
        wall,
        peaks,
        customers,
        scenario_customers,
        traffic,
    }
}
