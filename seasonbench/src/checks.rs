//! Output checks. Each compares against a value computed apart from
//! the program (a plain transcription of the paper's formulas, an
//! independent fold, a second execution path) or against a property the
//! method must have — never against a saved copy of earlier output.

use loadbal_core::beta::BetaPolicy;
use loadbal_core::campaign::IntervalOutcome;
use loadbal_core::execution::NetworkTraffic;
use loadbal_core::fleet::FleetReport;
use loadbal_core::session::{NegotiationReport, ReportTier, Scenario};
use loadbal_core::utility_agent::TableShape;
use std::collections::BTreeMap;

/// Relative tolerance for sums whose association order differs from
/// the program's.
const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Whether two series agree slot by slot within [`REL_TOL`].
pub fn series_close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| close(x, y))
}

/// The checks one negotiation fails (empty when it passes all).
/// `customers` is the size of the population negotiated with — the
/// scenario's when the outcome kept it, otherwise the caller's count.
pub fn check_outcome(outcome: &IntervalOutcome, customers: usize) -> Vec<&'static str> {
    let report = &outcome.report;
    let mut failed = Vec::new();
    if !report.converged() {
        failed.push("converged");
    }
    let initial = report.initial_total().value();
    let fin = report.final_total().value();
    let shaved = report.energy_shaved().value();
    if !(initial.is_finite() && fin.is_finite() && close(initial - fin, shaved)) {
        failed.push("energy_balance");
    }
    let total = report.total_rewards().value();
    let rewards_ok = total.is_finite()
        && total >= 0.0
        && report
            .settlements()
            .iter()
            .all(|s| s.reward.value().is_finite() && s.reward.value() >= 0.0);
    let sum_ok = !report.tier().keeps_settlements()
        || close(
            report.settlements().iter().map(|s| s.reward.value()).sum(),
            total,
        );
    if !(rewards_ok && sum_ok) {
        failed.push("rewards_finite_non_negative");
    }
    let customers = outcome
        .scenario
        .as_ref()
        .map_or(customers, |s| s.customers.len());
    let settled = report.digest().customers as usize;
    let stored_ok = !report.tier().keeps_settlements() || report.settlements().len() == settled;
    if settled > customers || !stored_ok {
        failed.push("settlements_within_customers");
    }
    if report.tier() == ReportTier::FullTrace {
        match &outcome.scenario {
            Some(scenario) => failed.extend(check_rounds(report, scenario)),
            None => failed.push("scenario_kept"),
        }
    }
    failed
}

/// The full-trace checks: each round's table recomputed from the
/// previous one with the §6 rule, monotonic concession of tables and
/// bids, rewards within `max_reward`, and each round's predicted total
/// recomputed from the kept scenario.
fn check_rounds(report: &NegotiationReport, scenario: &Scenario) -> Vec<&'static str> {
    let mut failed = Vec::new();
    let rounds = report.rounds();
    let config = &scenario.config;
    let max_reward = config.formula.max_reward.value();
    let normal = report.normal_use().value();
    let BetaPolicy::Constant { beta } = config.beta_policy else {
        return vec!["table_formula"];
    };
    let Some(last) = rounds.last() else {
        return vec!["final_total_is_last_round"];
    };
    if last.predicted_total.value() != report.final_total().value() {
        failed.push("final_total_is_last_round");
    }
    let mut formula_ok = true;
    let mut tables_monotone = true;
    let mut bids_monotone = true;
    let mut within_max = true;
    let mut predicted_ok = true;
    for (k, round) in rounds.iter().enumerate() {
        let Some(table) = &round.table else {
            formula_ok = false;
            continue;
        };
        let entries = table.entries();
        within_max &= entries.iter().all(|(_, r)| r.value() <= max_reward);
        if k == 0 {
            // Round 1 announces the initial table: reward_at · (c/pin)^2
            // (quadratic) or reward_at · c/pin (linear).
            let at = config.initial_reward_at.value();
            let pin = config.pin.value();
            formula_ok &= entries.len() == config.levels.len()
                && entries.iter().all(|(c, r)| {
                    let x = c.value() / pin;
                    let expected = match config.table_shape {
                        TableShape::Quadratic => at * x * x,
                        TableShape::Linear => at * x,
                    };
                    close(r.value(), expected)
                });
        } else {
            let prev = &rounds[k - 1];
            // §6: new_reward = reward + β·overuse·(1 − reward/max_reward)·reward,
            // with overuse the previous round's relative predicted
            // overuse (never below zero), capped at max_reward.
            let overuse = ((prev.predicted_total.value() - normal) / normal).max(0.0);
            match &prev.table {
                Some(prev_table) if prev_table.entries().len() == entries.len() => {
                    for ((c0, r0), (c1, r1)) in prev_table.entries().iter().zip(entries) {
                        let r = r0.value();
                        let expected =
                            (r + beta * overuse * (1.0 - r / max_reward) * r).min(max_reward);
                        formula_ok &= c0 == c1 && close(r1.value(), expected);
                        tables_monotone &= r1.value() >= r;
                    }
                }
                _ => formula_ok = false,
            }
            bids_monotone &= prev.bids.len() == round.bids.len()
                && prev.bids.iter().zip(&round.bids).all(|(b0, b1)| b1 >= b0);
        }
        // Σ min(predicted, (1 − cutdown)·allowed) over the scenario.
        let predicted: f64 = scenario
            .customers
            .iter()
            .zip(&round.bids)
            .map(|(c, b)| {
                let capped = (1.0 - b.value()) * c.allowed_use.value();
                c.predicted_use.value().min(capped)
            })
            .sum();
        predicted_ok &= round.bids.len() == scenario.customers.len()
            && close(predicted, round.predicted_total.value());
    }
    for (ok, name) in [
        (formula_ok, "table_formula"),
        (tables_monotone, "monotonic_tables"),
        (bids_monotone, "monotonic_bids"),
        (within_max, "rewards_within_max"),
        (predicted_ok, "predicted_total"),
    ] {
        if !ok {
            failed.push(name);
        }
    }
    failed
}

/// Per-negotiation verdicts over a whole season.
#[derive(Debug, Default)]
pub struct SeasonVerdict {
    pub negotiations: u64,
    /// Negotiations that did not converge or failed a check.
    pub failed: u64,
    /// How often each check fired.
    pub fired: BTreeMap<&'static str, u64>,
}

/// Checks every negotiation of `report`. `customers[c][i]` is the
/// population of cell `c`'s `i`-th negotiation.
pub fn check_season(report: &FleetReport, customers: &[Vec<usize>]) -> SeasonVerdict {
    let mut verdict = SeasonVerdict::default();
    for (c, cell) in report.cells.iter().enumerate() {
        for (i, outcome) in cell.report.outcomes.iter().enumerate() {
            let size = customers
                .get(c)
                .and_then(|sizes| sizes.get(i))
                .copied()
                .unwrap_or(0);
            let failed = check_outcome(outcome, size);
            verdict.negotiations += 1;
            if !failed.is_empty() {
                verdict.failed += 1;
            }
            for name in failed {
                *verdict.fired.entry(name).or_default() += 1;
            }
        }
    }
    verdict
}

/// On a lossless network every message handed over is delivered, and a
/// duplicate is delivered once more.
pub fn check_lossless(traffic: &NetworkTraffic) -> bool {
    traffic.messages_sent > 0
        && traffic.messages_dropped == 0
        && traffic.messages_delivered == traffic.messages_sent + traffic.messages_duplicated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::patient_ua;
    use loadbal_core::campaign::{CampaignBuilder, ClosedLoop, FixedPredictor};
    use loadbal_core::concession::NegotiationStatus;
    use loadbal_core::fleet::FleetRunner;
    use loadbal_core::reward::RewardTable;
    use loadbal_core::session::Settlement;
    use powergrid::prelude::*;
    use std::sync::Arc;

    /// A small patient full-trace season with at least one multi-round
    /// negotiation.
    fn season() -> FleetReport {
        let homes = PopulationBuilder::new().households(300).build(3);
        let horizon = Horizon::new(10, 0, Season::Winter);
        let weather = WeatherModel::winter();
        let runner = CampaignBuilder::new(&homes, &weather, &horizon)
            .predictor(FixedPredictor(WeatherRegression::calibrated()))
            .feedback(ClosedLoop)
            .ua_config(patient_ua())
            .build();
        let fleet = FleetRunner::new().cell("c", runner);
        fleet.run_sequential()
    }

    fn target(report: &FleetReport) -> &IntervalOutcome {
        report.cells[0]
            .report
            .outcomes
            .iter()
            .find(|o| o.report.rounds().len() >= 3)
            .expect("a negotiation of at least three rounds")
    }

    /// Rebuilds `report` with its parts edited by `edit`.
    fn rebuild(
        report: &NegotiationReport,
        edit: impl FnOnce(
            &mut loadbal_core::session::RoundDigest,
            &mut Vec<loadbal_core::session::RoundRecord>,
            &mut NegotiationStatus,
            &mut Vec<Settlement>,
        ),
    ) -> NegotiationReport {
        let mut digest = report.digest();
        let mut rounds = report.rounds().to_vec();
        let mut status = report.status();
        let mut settlements = report.settlements().to_vec();
        edit(&mut digest, &mut rounds, &mut status, &mut settlements);
        NegotiationReport::from_parts(
            report.method(),
            report.normal_use(),
            report.initial_total(),
            report.tier(),
            digest,
            rounds,
            status,
            settlements,
            report.extra_messages(),
        )
    }

    fn fires(outcome: &IntervalOutcome, check: &str) -> bool {
        check_outcome(outcome, usize::MAX).contains(&check)
    }

    #[test]
    fn an_unperturbed_season_passes_every_check() {
        let report = season();
        let verdict = check_season(&report, &[]);
        assert!(verdict.negotiations > 0);
        assert_eq!(verdict.failed, 0, "{:?}", verdict.fired);
    }

    #[test]
    fn each_check_fires_on_a_perturbed_report() {
        let report = season();
        let base = target(&report);
        let mut o = base.clone();

        o.report = rebuild(&base.report, |_, _, status, _| {
            *status = NegotiationStatus::MaxRoundsExceeded
        });
        assert!(fires(&o, "converged"));

        o.report = rebuild(&base.report, |digest, _, _, _| {
            digest.final_total = base.report.initial_total() + KilowattHours(1.0)
        });
        assert!(fires(&o, "energy_balance"));
        assert!(fires(&o, "final_total_is_last_round"));

        o.report = rebuild(&base.report, |_, _, _, settlements| {
            settlements[0].reward = Money(f64::NAN)
        });
        assert!(fires(&o, "rewards_finite_non_negative"));
        o.report = rebuild(&base.report, |_, _, _, settlements| {
            settlements[0].reward = Money(-1.0)
        });
        assert!(fires(&o, "rewards_finite_non_negative"));

        o.report = rebuild(&base.report, |digest, _, _, settlements| {
            let extra = settlements[0];
            settlements.push(extra);
            digest.customers = settlements.len() as u32;
        });
        assert!(fires(&o, "settlements_within_customers"));

        let edit_table = |bump: f64| {
            rebuild(&base.report, |_, rounds, _, _| {
                let table = rounds[1].table.as_ref().expect("reward-table round");
                let mut entries = table.entries().to_vec();
                let last = entries.len() - 1;
                entries[last].1 = Money(entries[last].1.value() + bump);
                rounds[1].table = Some(Arc::new(RewardTable::new(table.interval(), entries)));
            })
        };
        o.report = edit_table(0.01);
        assert!(fires(&o, "table_formula"));
        o.report = edit_table(100.0);
        assert!(fires(&o, "rewards_within_max"));
        // A round-2 reward above round 3's, after round 3 was computed
        // from the unperturbed table.
        o.report = edit_table(
            base.report.rounds()[2]
                .table
                .as_ref()
                .unwrap()
                .max_entry()
                .value(),
        );
        assert!(fires(&o, "monotonic_tables"));

        o.report = rebuild(&base.report, |_, rounds, _, _| {
            let last = rounds.len() - 1;
            let (i, _) = rounds[last - 1]
                .bids
                .iter()
                .enumerate()
                .find(|(_, b)| b.value() > 0.0)
                .expect("some customer conceded");
            rounds[last].bids[i] = Fraction::ZERO;
        });
        assert!(fires(&o, "monotonic_bids"));

        o.report = rebuild(&base.report, |_, rounds, _, _| {
            rounds[0].predicted_total += KilowattHours(0.5)
        });
        assert!(fires(&o, "predicted_total"));

        o.report = base.report.clone();
        o.scenario = None;
        assert!(fires(&o, "scenario_kept"));
    }

    #[test]
    fn the_lossless_check_fires_on_lost_or_unaccounted_messages() {
        let clean = NetworkTraffic {
            negotiations: 1,
            messages_sent: 10,
            messages_delivered: 12,
            messages_dropped: 0,
            messages_duplicated: 2,
            timers_fired: 0,
            deadline_forced_rounds: 0,
        };
        assert!(check_lossless(&clean));
        assert!(!check_lossless(&NetworkTraffic {
            messages_delivered: 11,
            ..clean
        }));
        assert!(!check_lossless(&NetworkTraffic {
            messages_dropped: 1,
            ..clean
        }));
    }

    #[test]
    fn series_comparison_fires_on_a_moved_slot() {
        let a = vec![1.0, 2.0, 3.0];
        assert!(series_close(&a, &[1.0, 2.0, 3.0 + 1e-12]));
        assert!(!series_close(&a, &[1.0, 2.0, 3.001]));
        assert!(!series_close(&a, &[1.0, 2.0]));
    }
}
