//! Property tests pinning the demand kernel against a plain
//! transcription of the load model (`reference`), on both population
//! layouts: for any population, axis, weather and seed, aggregate
//! demand, per-household day profiles and per-household interval
//! flexibility equal the transcription bit for bit — whether the
//! households are `Household` objects or a `PopulationSlab` — and whole
//! negotiated seasons run through either layout of [`PopulationRef`]
//! are identical at any thread count.

mod reference;

use loadbal::core::campaign::{CampaignBuilder, CampaignRunner, ClosedLoop, FixedPredictor};
use loadbal::core::fleet::FleetRunner;
use powergrid::calendar::Horizon;
use powergrid::demand::aggregate_demand;
use powergrid::household::{DemandScratch, Household, HouseholdId};
use powergrid::population::PopulationBuilder;
use powergrid::prediction::MovingAverage;
use powergrid::slab::{PopulationRef, PopulationSlab};
use powergrid::time::{Interval, TimeAxis};
use powergrid::weather::{Season, WeatherModel};
use proptest::prelude::*;
use std::num::NonZeroUsize;

/// Hourly (24 slots: scalar tail only), 20-minute (72: two register
/// blocks plus a tail, and a slot length of an inexact ⅓ h) and
/// quarter-hourly (96: blocks only) days.
fn arb_axis() -> impl Strategy<Value = TimeAxis> {
    prop_oneof![
        Just(TimeAxis::hourly()),
        Just(TimeAxis::new(20)),
        Just(TimeAxis::quarter_hourly()),
    ]
}

/// Standard households with arbitrary occupancies and non-contiguous
/// ids — the slab must reproduce any mix, not just builder output.
fn arb_households() -> impl Strategy<Value = Vec<Household>> {
    prop::collection::vec((0u64..1_000_000, 1u32..6), 1..40).prop_map(|specs| {
        specs
            .into_iter()
            .map(|(id, occupants)| Household::standard(HouseholdId(id), occupants))
            .collect()
    })
}

/// An interval that may be empty, interior, overhang the day or lie
/// entirely beyond it (for every axis above: up to 192 slots).
fn arb_interval() -> impl Strategy<Value = Interval> {
    (0usize..=200, 0usize..=200).prop_map(|(a, b)| Interval::new(a.min(b), a.max(b)))
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One day of aggregate demand on either layout, and every
    /// household's own day profile, equal the plain transcription bit
    /// for bit.
    #[test]
    fn slab_demand_is_byte_identical_to_object_demand(
        homes in arb_households(),
        axis in arb_axis(),
        mean_seed in 0u64..1000,
        seed in 0u64..1000,
    ) {
        let slab = PopulationSlab::from_households(&homes);
        let weather = WeatherModel::winter().temperatures(&axis, mean_seed);
        let mean_temp = weather.mean();
        let expected = bits(&reference::aggregate_day(&homes, &axis, mean_temp, seed));
        let object = aggregate_demand(&homes, &weather, &axis, seed);
        prop_assert_eq!(bits(object.series().values()), expected.clone());
        let slab_curve = aggregate_demand(slab.view(), &weather, &axis, seed);
        prop_assert_eq!(bits(slab_curve.series().values()), expected);
        for h in &homes {
            prop_assert_eq!(
                bits(h.demand_profile(&axis, mean_temp, seed).values()),
                bits(&reference::household_day(h, &axis, mean_temp, seed))
            );
        }
    }

    /// Per-household `(usage, potential)` over any interval — including
    /// ones overhanging or beyond the day — equals the plain
    /// transcription bit for bit, on either layout and through
    /// `Household::interval_flexibility`, with one scratch reused
    /// throughout.
    #[test]
    fn slab_flexibility_is_byte_identical_per_household(
        homes in arb_households(),
        axis in arb_axis(),
        mean_temp in -12.0f64..22.0,
        seed in 0u64..1000,
        interval in arb_interval(),
    ) {
        let slab = PopulationSlab::from_households(&homes);
        let expected: Vec<(u64, u64)> = homes
            .iter()
            .map(|h| {
                let (usage, potential) =
                    reference::interval_flexibility(h, &axis, mean_temp, seed, interval);
                (usage.to_bits(), potential.to_bits())
            })
            .collect();
        let mut scratch = DemandScratch::new(&TimeAxis::hourly());
        for population in [PopulationRef::Objects(&homes), PopulationRef::Slab(slab.view())] {
            let mut got = Vec::with_capacity(homes.len());
            population.interval_flexibility_for_each(
                &axis, mean_temp, seed, interval, &mut scratch,
                |i, usage, potential| {
                    assert_eq!(i, got.len(), "households arrive in population order");
                    got.push((usage.value().to_bits(), potential.value().to_bits()));
                },
            );
            prop_assert_eq!(&got, &expected);
        }
        for (h, &(usage, potential)) in homes.iter().zip(&expected) {
            let (u, p) = h.interval_flexibility(&axis, mean_temp, seed, interval);
            prop_assert_eq!((u.value().to_bits(), p.value().to_bits()), (usage, potential));
        }
    }

    /// The builder's two exits agree: `build_slab(seed)` is exactly
    /// the slab of `build(seed)` — same RNG stream, same field values.
    #[test]
    fn build_slab_equals_slab_of_build(
        households in 1usize..120,
        seed in 0u64..1000,
    ) {
        let builder = PopulationBuilder::new().households(households);
        prop_assert_eq!(
            builder.build_slab(seed),
            PopulationSlab::from_households(&builder.build(seed))
        );
    }
}

fn season_cell<'a>(
    pop: PopulationRef<'a>,
    weather: &'a WeatherModel,
    horizon: &'a Horizon,
) -> CampaignRunner<'a> {
    CampaignBuilder::new_ref(pop, weather, horizon)
        .warmup_days(2)
        .predictor(FixedPredictor(MovingAverage::new(2)))
        .feedback(ClosedLoop)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A whole negotiated fleet season is backend-agnostic: one slab
    /// sharded zero-copy across cells returns byte for byte what the
    /// same households run as object slices do — for any shard count
    /// and any worker-pool size, parallel or sequential.
    #[test]
    fn fleet_season_is_backend_agnostic_across_thread_counts(
        households in 20usize..60,
        cells in 1usize..4,
        threads in 1usize..5,
        seed in 0u64..40,
    ) {
        let weather = WeatherModel::winter();
        let horizon = Horizon::new(5, 0, Season::Winter);
        let builder = PopulationBuilder::new().households(households);
        let slab = builder.build_slab(seed);
        let homes = builder.build(seed);
        let threads = NonZeroUsize::new(threads).expect("non-zero");

        let slab_fleet = FleetRunner::new()
            .sharded_slab(&slab, cells, |pop, _| season_cell(pop, &weather, &horizon))
            .threads(threads);
        let mut object_fleet = FleetRunner::new();
        let mut start = 0;
        for (i, shard) in slab.shards(cells).into_iter().enumerate() {
            let end = start + shard.len();
            object_fleet = object_fleet.cell(
                format!("shard-{i}"),
                season_cell(PopulationRef::Objects(&homes[start..end]), &weather, &horizon),
            );
            start = end;
        }
        prop_assert_eq!(start, homes.len());
        let object_fleet = object_fleet.threads(threads);

        let slab_report = slab_fleet.run();
        prop_assert_eq!(&slab_report, &object_fleet.run());
        prop_assert_eq!(&slab_report, &slab_fleet.run_sequential());
    }
}
