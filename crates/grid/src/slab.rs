//! Struct-of-arrays population layout for city-scale simulation.
//!
//! The object layout ([`Household`] owning a `Vec<Device>`) is the
//! right shape for small scenario work, but a million households means
//! a million tiny heap trees. This module stores the same population as
//! one contiguous array per field — [`PopulationSlab`] — with each
//! household's device entries delimited by offsets, and borrows
//! contiguous household ranges of it as [`SlabView`]s.
//!
//! [`PopulationRef`] passes either layout through the demand,
//! scenario, campaign and fleet layers. Both layouts feed the same
//! household-day demand kernel one household at a time, so they yield
//! the same bits for the same households by construction; the slab
//! only changes where the kernel's inputs are read from.
//!
//! Shards for fleet work come from [`PopulationSlab::shards`]: borrowed
//! views over contiguous household ranges, no copying.

use crate::demand::{aggregate_demand, DemandCurve};
use crate::household::{standard_devices, DemandScratch, Household, HouseholdId};
use crate::kernel::{household_scale, Entry, Kernel};
use crate::series::Series;
use crate::time::{Interval, TimeAxis};
use crate::units::KilowattHours;

/// A population stored as struct-of-arrays: one contiguous array per
/// field, households delimited by entry offsets.
///
/// Field values are bit-for-bit those of the object backend —
/// [`PopulationBuilder::build_slab`](crate::population::PopulationBuilder::build_slab)
/// and [`PopulationSlab::from_households`] produce identical slabs for
/// the same seed.
///
/// # Example
///
/// ```
/// use powergrid::population::PopulationBuilder;
/// use powergrid::slab::PopulationSlab;
///
/// let builder = PopulationBuilder::new().households(40);
/// let slab = builder.build_slab(42);
/// assert_eq!(slab.len(), 40);
/// assert_eq!(slab, PopulationSlab::from_households(&builder.build(42)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSlab {
    /// Raw household ids, in population order.
    ids: Vec<u64>,
    /// Occupants per household.
    occupants: Vec<u32>,
    /// Usage-intensity multiplier per household.
    intensity: Vec<f64>,
    /// Contracted daily allowance (kWh) per household.
    allowed_use: Vec<f64>,
    /// Device-entry ranges: household `h` owns entries
    /// `offsets[h]..offsets[h + 1]`. Always `len() + 1` long.
    offsets: Vec<u32>,
    /// Per-entry device kind, as an index into [`DeviceKind::all`].
    /// Entries keep each household's device-list order — the jitter
    /// stream draws one value per entry in this order.
    kind_index: Vec<u8>,
    /// Per-entry rated power (kW).
    rated_power: Vec<f64>,
    /// Per-entry shedable fraction, in `[0, 1]`.
    flexibility: Vec<f64>,
}

impl PopulationSlab {
    /// An empty slab.
    pub fn new() -> PopulationSlab {
        PopulationSlab::with_capacity(0)
    }

    /// An empty slab with room for `households` standard households.
    pub fn with_capacity(households: usize) -> PopulationSlab {
        let mut offsets = Vec::with_capacity(households + 1);
        offsets.push(0);
        PopulationSlab {
            ids: Vec::with_capacity(households),
            occupants: Vec::with_capacity(households),
            intensity: Vec::with_capacity(households),
            allowed_use: Vec::with_capacity(households),
            offsets,
            // Standard households own 7 or 8 devices.
            kind_index: Vec::with_capacity(households * 8),
            rated_power: Vec::with_capacity(households * 8),
            flexibility: Vec::with_capacity(households * 8),
        }
    }

    /// Converts an object population, preserving household and
    /// device-list order (and therefore the jitter stream).
    pub fn from_households(households: &[Household]) -> PopulationSlab {
        let mut slab = PopulationSlab::with_capacity(households.len());
        for h in households {
            slab.push(h);
        }
        slab
    }

    /// Appends one object household.
    pub fn push(&mut self, h: &Household) {
        self.ids.push(h.id().0);
        self.occupants.push(h.occupants());
        self.intensity.push(h.intensity());
        self.allowed_use.push(h.allowed_use().value());
        for dev in h.devices() {
            self.kind_index.push(dev.kind().index());
            self.rated_power.push(dev.rated_power().value());
            self.flexibility.push(dev.flexibility().value());
        }
        self.offsets.push(self.kind_index.len() as u32);
    }

    /// Appends a standard household of `occupants` without materialising
    /// a [`Household`]: same field values as pushing
    /// [`Household::standard`], no per-household heap tree.
    pub(crate) fn push_standard(&mut self, id: HouseholdId, occupants: u32) {
        let occupants = occupants.max(1);
        self.ids.push(id.0);
        self.occupants.push(occupants);
        // Field formulas mirror `Household::standard`; pinned equal by
        // the `build_slab` == `from_households(build)` tests.
        self.intensity.push(0.6 + 0.2 * f64::from(occupants));
        self.allowed_use.push(18.0 + 9.0 * f64::from(occupants));
        for dev in standard_devices(occupants) {
            self.kind_index.push(dev.kind().index());
            self.rated_power.push(dev.rated_power().value());
            self.flexibility.push(dev.flexibility().value());
        }
        self.offsets.push(self.kind_index.len() as u32);
    }

    /// Number of households.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the slab holds no households.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of device entries across all households.
    pub fn device_entries(&self) -> usize {
        self.kind_index.len()
    }

    /// Heap bytes retained by the slab's arrays (capacity, not length) —
    /// the footprint figure E20 reports against the object backend.
    pub fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ids.capacity() * size_of::<u64>()
            + self.occupants.capacity() * size_of::<u32>()
            + self.intensity.capacity() * size_of::<f64>()
            + self.allowed_use.capacity() * size_of::<f64>()
            + self.offsets.capacity() * size_of::<u32>()
            + self.kind_index.capacity() * size_of::<u8>()
            + self.rated_power.capacity() * size_of::<f64>()
            + self.flexibility.capacity() * size_of::<f64>()
    }

    /// A borrowed view of the whole population.
    pub fn view(&self) -> SlabView<'_> {
        SlabView {
            slab: self,
            start: 0,
            end: self.len(),
        }
    }

    /// A borrowed view of households `start..end` (population order).
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > len()`.
    pub fn view_range(&self, start: usize, end: usize) -> SlabView<'_> {
        assert!(
            start <= end && end <= self.len(),
            "view {start}..{end} out of range for {} households",
            self.len()
        );
        SlabView {
            slab: self,
            start,
            end,
        }
    }

    /// Splits the population into `parts` contiguous shards (sizes
    /// differing by at most one, earlier shards larger) — zero-copy
    /// cells for a fleet. Households keep their global ids, so a
    /// sharded season's jitter streams match the unsharded ones.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero.
    pub fn shards(&self, parts: usize) -> Vec<SlabView<'_>> {
        assert!(parts > 0, "cannot shard into zero parts");
        let n = self.len();
        let base = n / parts;
        let extra = n % parts;
        let mut start = 0;
        (0..parts)
            .map(|p| {
                let size = base + usize::from(p < extra);
                let view = self.view_range(start, start + size);
                start += size;
                view
            })
            .collect()
    }
}

impl Default for PopulationSlab {
    fn default() -> Self {
        PopulationSlab::new()
    }
}

/// A borrowed contiguous household range of a [`PopulationSlab`] —
/// what kernels and fleet cells operate on. `Copy`, so passing one
/// around costs nothing.
#[derive(Debug, Clone, Copy)]
pub struct SlabView<'a> {
    slab: &'a PopulationSlab,
    start: usize,
    end: usize,
}

impl<'a> SlabView<'a> {
    /// Number of households in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the view holds no households.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The id of the view's `i`-th household.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn id(&self, i: usize) -> HouseholdId {
        HouseholdId(self.slab.ids[self.index(i)])
    }

    /// Occupants of the view's `i`-th household.
    pub fn occupants(&self, i: usize) -> u32 {
        self.slab.occupants[self.index(i)]
    }

    /// Contracted daily allowance of the view's `i`-th household.
    pub fn allowed_use(&self, i: usize) -> KilowattHours {
        KilowattHours(self.slab.allowed_use[self.index(i)])
    }

    /// Usage-intensity multiplier of the view's `i`-th household.
    pub fn intensity(&self, i: usize) -> f64 {
        self.slab.intensity[self.index(i)]
    }

    /// The usage scale of the view's `i`-th household for day `seed`.
    #[inline]
    fn usage_scale(&self, i: usize, seed: u64) -> impl FnMut() -> f64 {
        let h = self.index(i);
        household_scale(seed, self.slab.ids[h], self.slab.intensity[h])
    }

    /// The device entries of the view's `i`-th household, in
    /// device-list order.
    #[inline]
    fn entries(&self, i: usize) -> impl Iterator<Item = Entry> + 'a {
        let h = self.index(i);
        let slab = self.slab;
        let range = slab.offsets[h] as usize..slab.offsets[h + 1] as usize;
        slab.kind_index[range.clone()]
            .iter()
            .zip(&slab.rated_power[range.clone()])
            .zip(&slab.flexibility[range])
            .map(|((&kind, &rated), &flexibility)| (kind, rated, flexibility))
    }

    #[inline]
    fn index(&self, i: usize) -> usize {
        assert!(
            i < self.len(),
            "household {i} out of view of {}",
            self.len()
        );
        self.start + i
    }
}

/// A population in either storage layout, passed by value through the
/// scenario/campaign/fleet layers. Both layouts run the same demand
/// kernel and negotiate byte-identically; they differ only in memory
/// footprint and in how a city is split into zero-copy shards.
#[derive(Debug, Clone, Copy)]
pub enum PopulationRef<'a> {
    /// The object layout: a slice of [`Household`]s.
    Objects(&'a [Household]),
    /// The struct-of-arrays layout: a [`SlabView`].
    Slab(SlabView<'a>),
}

impl<'a> PopulationRef<'a> {
    /// Number of households.
    pub fn len(&self) -> usize {
        match self {
            PopulationRef::Objects(hs) => hs.len(),
            PopulationRef::Slab(view) => view.len(),
        }
    }

    /// True if the population is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Contracted daily allowance of the `i`-th household.
    pub fn allowed_use(&self, i: usize) -> KilowattHours {
        match self {
            PopulationRef::Objects(hs) => hs[i].allowed_use(),
            PopulationRef::Slab(view) => view.allowed_use(i),
        }
    }

    /// Adds every household's day profile into `out`, in population
    /// order.
    pub(crate) fn add_demand(&self, kernel: &mut Kernel<'_>, seed: u64, out: &mut [f64]) {
        match self {
            PopulationRef::Objects(hs) => {
                for h in *hs {
                    kernel.add_day(h.usage_scale(seed), h.entries(), out);
                }
            }
            PopulationRef::Slab(view) => {
                for i in 0..view.len() {
                    kernel.add_day(view.usage_scale(i, seed), view.entries(i), out);
                }
            }
        }
    }

    /// `(usage, potential)` over `interval` for every household, in
    /// population order, delivered as `sink(index, usage, potential)` —
    /// the per-household values of [`Household::interval_flexibility`],
    /// sweeping only the interval's slots.
    pub fn interval_flexibility_for_each(
        &self,
        axis: &TimeAxis,
        mean_temp: f64,
        seed: u64,
        interval: Interval,
        scratch: &mut DemandScratch,
        mut sink: impl FnMut(usize, KilowattHours, KilowattHours),
    ) {
        let mut kernel = scratch.kernel(axis, mean_temp);
        match self {
            PopulationRef::Objects(hs) => {
                for (i, h) in hs.iter().enumerate() {
                    let (usage, potential) =
                        kernel.interval(h.usage_scale(seed), h.entries(), interval);
                    sink(i, usage, potential);
                }
            }
            PopulationRef::Slab(view) => {
                for i in 0..view.len() {
                    let (usage, potential) =
                        kernel.interval(view.usage_scale(i, seed), view.entries(i), interval);
                    sink(i, usage, potential);
                }
            }
        }
    }
}

impl<'a> From<&'a [Household]> for PopulationRef<'a> {
    fn from(households: &'a [Household]) -> PopulationRef<'a> {
        PopulationRef::Objects(households)
    }
}

impl<'a> From<&'a Vec<Household>> for PopulationRef<'a> {
    fn from(households: &'a Vec<Household>) -> PopulationRef<'a> {
        PopulationRef::Objects(households)
    }
}

impl<'a> From<SlabView<'a>> for PopulationRef<'a> {
    fn from(view: SlabView<'a>) -> PopulationRef<'a> {
        PopulationRef::Slab(view)
    }
}

/// One day of aggregate demand over a slab view — [`aggregate_demand`]
/// on the slab layout.
pub fn aggregate_demand_slab(
    view: SlabView<'_>,
    weather: &Series,
    axis: &TimeAxis,
    seed: u64,
) -> DemandCurve {
    aggregate_demand(view, weather, axis, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationBuilder;
    use crate::time::TimeOfDay;
    use crate::weather::WeatherModel;

    fn axis() -> TimeAxis {
        TimeAxis::quarter_hourly()
    }

    fn evening(axis: TimeAxis) -> Interval {
        axis.between(TimeOfDay::hm(17, 0).unwrap(), TimeOfDay::hm(21, 0).unwrap())
    }

    #[test]
    fn from_households_preserves_every_field() {
        let homes = PopulationBuilder::new().households(25).build(9);
        let slab = PopulationSlab::from_households(&homes);
        assert_eq!(slab.len(), homes.len());
        let view = slab.view();
        for (i, h) in homes.iter().enumerate() {
            assert_eq!(view.id(i), h.id());
            assert_eq!(view.occupants(i), h.occupants());
            assert_eq!(view.intensity(i).to_bits(), h.intensity().to_bits());
            assert_eq!(view.allowed_use(i), h.allowed_use());
        }
        assert_eq!(
            slab.device_entries(),
            homes.iter().map(|h| h.devices().len()).sum::<usize>()
        );
    }

    #[test]
    fn aggregate_demand_matches_object_backend_bit_for_bit() {
        let homes = PopulationBuilder::new().households(60).build(3);
        let slab = PopulationSlab::from_households(&homes);
        let weather = WeatherModel::winter().temperatures(&axis(), 3);
        let object = aggregate_demand(&homes, &weather, &axis(), 3);
        let batched = aggregate_demand_slab(slab.view(), &weather, &axis(), 3);
        assert_eq!(object, batched);
    }

    /// Saving potential summed over the slab view, via the slab arm of
    /// [`PopulationRef::interval_flexibility_for_each`].
    fn slab_potential(view: SlabView<'_>, interval: Interval) -> KilowattHours {
        let mut scratch = DemandScratch::new(&axis());
        let mut total = KilowattHours::ZERO;
        PopulationRef::Slab(view).interval_flexibility_for_each(
            &axis(),
            -4.0,
            1,
            interval,
            &mut scratch,
            |_, _, p| total += p,
        );
        total
    }

    #[test]
    fn interval_flexibility_matches_object_backend_bit_for_bit() {
        let homes = PopulationBuilder::new().households(40).build(11);
        let slab = PopulationSlab::from_households(&homes);
        let iv = evening(axis());
        let mut scratch = DemandScratch::new(&axis());
        let mut got = Vec::new();
        PopulationRef::Slab(slab.view()).interval_flexibility_for_each(
            &axis(),
            -6.0,
            5,
            iv,
            &mut scratch,
            |i, u, p| got.push((i, u, p)),
        );
        assert_eq!(got.len(), homes.len());
        for (h, (i, usage, potential)) in homes.iter().zip(&got) {
            assert_eq!(homes[*i].id(), h.id());
            let expect = h.interval_flexibility(&axis(), -6.0, 5, iv);
            assert_eq!((*usage, *potential), expect);
        }
    }

    #[test]
    fn shards_partition_without_copying() {
        let slab = PopulationBuilder::new().households(23).build(1).pipe_slab();
        let shards = slab.shards(4);
        assert_eq!(shards.len(), 4);
        assert_eq!(shards.iter().map(SlabView::len).sum::<usize>(), 23);
        // Sizes differ by at most one, earlier shards larger.
        assert_eq!(
            shards.iter().map(SlabView::len).collect::<Vec<_>>(),
            vec![6, 6, 6, 5]
        );
        // Global ids survive sharding.
        assert_eq!(shards[1].id(0), HouseholdId(6));
    }

    #[test]
    fn sharded_demand_sums_to_whole_population_demand() {
        let homes = PopulationBuilder::new().households(50).build(2);
        let slab = PopulationSlab::from_households(&homes);
        let weather = WeatherModel::winter().temperatures(&axis(), 2);
        let whole = aggregate_demand_slab(slab.view(), &weather, &axis(), 2);
        let total: f64 = slab
            .shards(3)
            .into_iter()
            .map(|shard| {
                aggregate_demand_slab(shard, &weather, &axis(), 2)
                    .total()
                    .value()
            })
            .sum();
        assert!((whole.total().value() - total).abs() < 1e-9);
    }

    #[test]
    fn empty_interval_yields_zero_flexibility() {
        let slab = PopulationBuilder::new().households(5).build(1).pipe_slab();
        let p = slab_potential(slab.view(), Interval::new(10, 10));
        assert_eq!(p, KilowattHours::ZERO);
    }

    #[test]
    fn interval_entirely_beyond_the_day_yields_zero_flexibility() {
        // Regression: such an interval clips to an empty range whose
        // bounds still sit past the day length — the sweep must treat
        // it as empty rather than slice out of bounds.
        let slab = PopulationBuilder::new().households(5).build(1).pipe_slab();
        let n = axis().slots_per_day();
        let p = slab_potential(slab.view(), Interval::new(n + 3, n + 9));
        assert_eq!(p, KilowattHours::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn view_range_bounds_checked() {
        let slab = PopulationBuilder::new().households(5).build(1).pipe_slab();
        let _ = slab.view_range(2, 6);
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn zero_shards_panics() {
        let slab = PopulationSlab::new();
        let _ = slab.shards(0);
    }

    /// Test-local convenience: object population → slab.
    trait PipeSlab {
        fn pipe_slab(&self) -> PopulationSlab;
    }
    impl PipeSlab for Vec<Household> {
        fn pipe_slab(&self) -> PopulationSlab {
            PopulationSlab::from_households(self)
        }
    }
}
