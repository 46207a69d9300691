//! A plain transcription of the household-day load model, for tests.
//!
//! Every value is computed the long way: `DeviceKind::duty_cycle` is
//! evaluated afresh per device per slot, each device's day is a full
//! vector, and an interval is read slot by slot through
//! `Interval::contains` — no duty-shape cache, no register blocking, no
//! interval clipping. The production kernel must agree with it bit for
//! bit, which holds because both add the same terms in the same order:
//! per device in device-list order, then per household in population
//! order.

use powergrid::household::Household;
use powergrid::time::{Interval, TimeAxis};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Each device's load (kWh per slot) for one household-day, in
/// device-list order.
fn device_loads(h: &Household, axis: &TimeAxis, mean_temp: f64, seed: u64) -> Vec<Vec<f64>> {
    let n = axis.slots_per_day();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(h.id().0));
    h.devices()
        .iter()
        .map(|device| {
            let jitter = rng.gen_range(0.85..1.15);
            let temp_factor = if device.kind().is_temperature_sensitive() {
                1.0f64.max(1.0 + 0.045 * (16.0 - mean_temp))
            } else {
                1.0
            };
            let power = device.rated_power().value() * (h.intensity() * jitter) * temp_factor;
            (0..n)
                .map(|s| {
                    let t = (s as f64 + 0.5) / n as f64;
                    power * device.kind().duty_cycle(t) * axis.slot_hours()
                })
                .collect()
        })
        .collect()
}

/// One household's demand (kWh per slot) for a day.
pub fn household_day(h: &Household, axis: &TimeAxis, mean_temp: f64, seed: u64) -> Vec<f64> {
    let mut day = vec![0.0; axis.slots_per_day()];
    for load in device_loads(h, axis, mean_temp, seed) {
        for (slot, l) in day.iter_mut().zip(load) {
            *slot += l;
        }
    }
    day
}

/// A population's aggregate demand (kWh per slot) for a day.
pub fn aggregate_day(homes: &[Household], axis: &TimeAxis, mean_temp: f64, seed: u64) -> Vec<f64> {
    let mut total = vec![0.0; axis.slots_per_day()];
    for h in homes {
        for (slot, l) in total
            .iter_mut()
            .zip(household_day(h, axis, mean_temp, seed))
        {
            *slot += l;
        }
    }
    total
}

/// One household's `(usage, potential)` in kWh over `interval`:
/// energy in the interval's slots, and each device's flexibility times
/// its own energy there, summed over devices.
pub fn interval_flexibility(
    h: &Household,
    axis: &TimeAxis,
    mean_temp: f64,
    seed: u64,
    interval: Interval,
) -> (f64, f64) {
    let loads = device_loads(h, axis, mean_temp, seed);
    let day = household_day(h, axis, mean_temp, seed);
    let mut usage = 0.0;
    for (s, &v) in day.iter().enumerate() {
        if interval.contains(s) {
            usage += v;
        }
    }
    let mut potential = 0.0;
    for (device, load) in h.devices().iter().zip(&loads) {
        let mut energy = 0.0;
        for (s, &v) in load.iter().enumerate() {
            if interval.contains(s) {
                energy += v;
            }
        }
        potential += device.flexibility().value() * energy;
    }
    (usage, potential)
}
