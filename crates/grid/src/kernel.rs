//! The household-day demand kernel — the one place the load formula
//! lives.
//!
//! A device entry `(kind, rated power, flexibility)` draws, in slot `s`
//! of an `n`-slot day,
//!
//! ```text
//! load(s) = (power · duty_kind((s + ½) / n)) · slot_hours
//! power   = rated · (intensity · jitter) · max(1, 1 + 0.045 · (16 − T̄))
//! ```
//!
//! where the temperature factor applies to temperature-sensitive kinds
//! only and `jitter ∈ [0.85, 1.15)` is drawn once per entry, in
//! device-list order, from the household's seeded stream. A household's
//! day is the per-slot sum of its entries' loads in that same order.
//!
//! Both population layouts — `&[Household]` and the struct-of-arrays
//! slab — feed the same [`Kernel`] through two entry points:
//! [`Kernel::add_day`] (the register-blocked full-day sweep behind
//! every demand curve) and [`Kernel::interval`] (the `(usage,
//! potential)` sweep over a peak interval's slots only, behind every
//! scenario). Accumulation orders are fixed — per entry, then per
//! household, then across the population — so every caller sees the
//! same bits for the same household.

use crate::device::DeviceKind;
use crate::time::{Interval, TimeAxis};
use crate::units::KilowattHours;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One device entry as the kernel reads it: kind index (position in
/// [`DeviceKind::all`]), rated power in kW and shedable fraction.
pub(crate) type Entry = (u8, f64, f64);

/// Slots per register block of the full-day sweep.
const BLOCK: usize = 32;

/// Reusable buffers for the demand kernel.
///
/// Holds the duty-cycle shape of every device kind at the current
/// resolution (the transcendental part of a load profile, which
/// depends only on `(kind, resolution)`), the per-entry powers of the
/// household being swept and a per-slot accumulator. Campaign day loops
/// keep one scratch and reuse it across households, peaks and days;
/// a scratch adapts to a new resolution on first use.
#[derive(Debug, Clone, Default)]
pub struct DemandScratch {
    /// Duty shapes of all kinds, kind-major: kind `k`'s slot `s` is at
    /// `k * n + s`.
    shapes: Vec<f64>,
    /// The resolution `shapes` was evaluated at.
    n: usize,
    /// `(power, kind)` per entry of the household being swept.
    powers: Vec<(f64, u8)>,
    /// Per-slot household accumulator of the interval sweep.
    house: Vec<f64>,
}

impl DemandScratch {
    /// A scratch with its duty shapes evaluated for `axis`.
    pub fn new(axis: &TimeAxis) -> DemandScratch {
        let mut scratch = DemandScratch::default();
        scratch.prepare(axis.slots_per_day());
        scratch
    }

    fn prepare(&mut self, n: usize) {
        if self.n == n && self.shapes.len() == DeviceKind::all().len() * n {
            return;
        }
        self.n = n;
        self.shapes.clear();
        self.shapes.resize(DeviceKind::all().len() * n, 0.0);
        for (shape, kind) in self.shapes.chunks_exact_mut(n).zip(DeviceKind::all()) {
            kind.duty_shape_into(shape);
        }
        self.house.resize(n, 0.0);
    }

    /// The kernel for one day on `axis` with mean outdoor temperature
    /// `mean_temp` °C.
    pub(crate) fn kernel(&mut self, axis: &TimeAxis, mean_temp: f64) -> Kernel<'_> {
        let n = axis.slots_per_day();
        self.prepare(n);
        let mut temp_factor = [1.0; 8];
        for (factor, kind) in temp_factor.iter_mut().zip(DeviceKind::all()) {
            if kind.is_temperature_sensitive() {
                // Heating demand grows roughly linearly below a 16 °C
                // balance point; ~4.5% extra load per degree below it.
                *factor = 1.0f64.max(1.0 + 0.045 * (16.0 - mean_temp));
            }
        }
        Kernel {
            shapes: &self.shapes,
            n,
            slot_hours: axis.slot_hours(),
            temp_factor,
            powers: &mut self.powers,
            house: &mut self.house,
        }
    }
}

/// The per-entry usage scale of one household: its intensity times a
/// jitter draw from its seeded stream, one draw per call.
#[inline]
pub(crate) fn household_scale(seed: u64, id: u64, intensity: f64) -> impl FnMut() -> f64 {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(id));
    move || intensity * rng.gen_range(0.85..1.15)
}

/// One day's demand kernel, borrowed from a [`DemandScratch`]. Each
/// entry point takes a household's usage scale (see
/// [`household_scale`]) and its device entries in device-list order.
pub(crate) struct Kernel<'s> {
    shapes: &'s [f64],
    n: usize,
    slot_hours: f64,
    temp_factor: [f64; 8],
    powers: &'s mut Vec<(f64, u8)>,
    house: &'s mut Vec<f64>,
}

/// An entry's power draw (kW), left-associated exactly as the formula
/// reads: rated · scale, then · temperature factor.
fn power(temp_factor: &[f64; 8], kind: u8, rated: f64, scale: f64) -> f64 {
    rated * scale * temp_factor[usize::from(kind)]
}

impl Kernel<'_> {
    /// Adds one household's day profile (kWh per slot) into `out`.
    ///
    /// The household's slot totals live in a stack block while every
    /// entry accumulates into it, and only then fold into `out` — the
    /// same additions, in the same order, as materialising each
    /// device's profile and summing, without a heap round trip per
    /// entry per slot. All jitter draws happen before the slot math.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the kernel's day.
    pub(crate) fn add_day(
        &mut self,
        mut scale: impl FnMut() -> f64,
        entries: impl IntoIterator<Item = Entry>,
        out: &mut [f64],
    ) {
        let Kernel {
            shapes,
            n,
            slot_hours,
            temp_factor,
            powers,
            ..
        } = self;
        let (n, slot_hours) = (*n, *slot_hours);
        powers.clear();
        for (kind, rated, _) in entries {
            powers.push((power(temp_factor, kind, rated, scale()), kind));
        }
        let mut s = 0;
        while s + BLOCK <= n {
            let mut acc = [0.0f64; BLOCK];
            for &(power, kind) in powers.iter() {
                let base = usize::from(kind) * n + s;
                for (slot, &duty) in acc.iter_mut().zip(&shapes[base..base + BLOCK]) {
                    *slot += (power * duty) * slot_hours;
                }
            }
            for (g, &t) in out[s..s + BLOCK].iter_mut().zip(acc.iter()) {
                *g += t;
            }
            s += BLOCK;
        }
        // Scalar tail for days whose length is not a block multiple.
        for (slot, g) in out[..n].iter_mut().enumerate().skip(s) {
            let mut acc = 0.0;
            for &(power, kind) in powers.iter() {
                acc += (power * shapes[usize::from(kind) * n + slot]) * slot_hours;
            }
            *g += acc;
        }
    }

    /// One household's `(usage, potential)` over `interval`: its energy
    /// in the interval's slots, and the flexibility-weighted part of it
    /// its devices could shed — the answer its Resource Consumer Agents
    /// give to "how much can be saved in this time interval?"
    /// (Section 3.2.3). Only the interval's slots (clipped to the day)
    /// are swept.
    pub(crate) fn interval(
        &mut self,
        mut scale: impl FnMut() -> f64,
        entries: impl IntoIterator<Item = Entry>,
        interval: Interval,
    ) -> (KilowattHours, KilowattHours) {
        let Kernel {
            shapes,
            n,
            slot_hours,
            temp_factor,
            house,
            ..
        } = self;
        let (n, slot_hours) = (*n, *slot_hours);
        let clipped = interval.intersect(Interval::new(0, n));
        // An interval entirely beyond the day clips to an empty range
        // whose bounds still sit past `n`; clamp so slices stay in range.
        let (lo, hi) = (clipped.start().min(n), clipped.end().min(n));
        let house = &mut house[lo..hi];
        house.fill(0.0);
        let mut potential = KilowattHours::ZERO;
        for (kind, rated, flexibility) in entries {
            let power = power(temp_factor, kind, rated, scale());
            let base = usize::from(kind) * n;
            let mut entry_sum = 0.0;
            for (slot, &duty) in house.iter_mut().zip(&shapes[base + lo..base + hi]) {
                let load = (power * duty) * slot_hours;
                entry_sum += load;
                *slot += load;
            }
            potential += KilowattHours(flexibility * entry_sum);
        }
        let usage = KilowattHours(house.iter().fold(0.0, |acc, &v| acc + v));
        (usage, potential)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_index_is_the_position_in_all() {
        for (k, kind) in DeviceKind::all().into_iter().enumerate() {
            assert_eq!(usize::from(kind.index()), k);
        }
    }
}
