//! Season benchmark: builds one named workload from its seed, checks
//! the season's outputs, then times whole seasons for `--seconds`.
//!
//! ```text
//! cargo run --release --offline --manifest-path seasonbench/Cargo.toml -- \
//!     --workload <city_slab|patient_fulltrace|distributed_jitter> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics (every timed section a
//! median over in-process repetitions, tracing off); `--trace 1` reports
//! the per-layer metrics from a separate run that steps every cell
//! through the public stepping API and times each call. The last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod checks;
mod trace;
mod workload;

use checks::{check_lossless, check_season, series_close};
use loadbal_archive::{write_fleet_to, SeasonArchive};
use loadbal_core::execution::ExecutionMode;
use loadbal_core::fleet::{FleetReport, FleetRunner};
use loadbal_core::session::ReportTier;
use powergrid::prelude::*;
use std::hint::black_box;
use std::io::Cursor;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{city_campaign, Population, Workload, CITY_SHARDS};

/// Timed repetitions a run makes at least, however short `--seconds`.
const MIN_REPETITIONS: usize = 3;

/// The least time one archive sample spans, in seconds.
const ARCHIVE_SAMPLE_S: f64 = 0.25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a run attempted and whether its outputs held.
struct Ledger {
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Ledger {
    fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            self.correct = false;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    /// Counts one season: its negotiations are attempted, and fail
    /// unless the season reproduced the checked reference.
    fn season(&mut self, reference: &Reference, reproduced: bool) {
        self.attempted += reference.negotiations;
        self.failed += if reproduced {
            reference.failed
        } else {
            reference.negotiations
        };
        self.require(
            reproduced,
            "a timed season reproduces the checked season's archive",
        );
    }
}

/// The checked season every timed repetition must reproduce.
struct Reference {
    negotiations: u64,
    failed: u64,
    archive_len: usize,
    archive_hash: u64,
    /// Archive round trips per timed sample, so that a sample of a
    /// small archive lasts long enough to time.
    archive_reps: u32,
    /// `VmHWM` after set-up and one sequential season.
    peak_rss_mb: f64,
}

impl Reference {
    /// Whether a timed season's archive decoded and is the checked
    /// season's archive, byte for byte.
    fn reproduced_by(&self, bytes: &[u8], decoded: bool) -> bool {
        decoded && bytes.len() == self.archive_len && fingerprint(bytes) == self.archive_hash
    }
}

fn write_archive(report: &FleetReport, tier: ReportTier) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_fleet_to(&mut bytes, report, tier).expect("writing to a Vec cannot fail");
    bytes
}

fn read_archive(bytes: &[u8]) -> Option<FleetReport> {
    SeasonArchive::from_reader(Cursor::new(bytes))
        .and_then(|mut archive| archive.read_fleet())
        .ok()
}

/// A multiply-xor fold over the archive's 8-byte words — a fingerprint
/// that a timed season must reproduce byte for byte.
fn fingerprint(bytes: &[u8]) -> u64 {
    let words = bytes.chunks(8).map(|chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        u64::from_le_bytes(word)
    });
    words.fold(bytes.len() as u64, |h, w| {
        (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
    })
}

/// Builds the workload once, runs its season along every path the
/// benchmark times, and checks the outputs. Doubles as the warm-up.
fn check_phase(
    spec: Workload,
    seed: u64,
    weather: &WeatherModel,
    horizon: &Horizon,
    ledger: &mut Ledger,
) -> Reference {
    let population = spec.population(seed);
    let fleet = spec.fleet(&population, weather, horizon, spec.execution(seed));
    // Peak memory is read after set-up and one untraced season on the
    // calling thread: its allocation sequence, unlike a pooled season's,
    // does not depend on how the workers were scheduled.
    let sequential = fleet.run_sequential();
    let peak_rss_mb = peak_rss_mb();
    let stepped = trace::step_fleet(&fleet);
    ledger.require(
        sequential == stepped.report,
        "the stepped season equals FleetRunner::run_sequential",
    );
    drop(sequential);
    let report = fleet.run();
    ledger.require(
        report == stepped.report,
        "the pooled season equals the stepped sequential season",
    );
    drop(stepped.report);

    let verdict = check_season(&report, &stepped.scenario_customers);
    for (check, count) in &verdict.fired {
        eprintln!("negotiation check {check} fired {count} times");
    }
    eprintln!(
        "checked {} negotiations: {} failed",
        verdict.negotiations, verdict.failed
    );

    let t = Instant::now();
    let bytes = write_archive(&report, spec.tier());
    let back = read_archive(&bytes);
    let round_trip = t.elapsed().as_secs_f64();
    ledger.require(
        back.as_ref() == Some(&report),
        "the archive reads back equal to the report",
    );
    drop(back);

    if spec == Workload::DistributedJitter {
        ledger.require(
            check_lossless(&stepped.traffic),
            "delivered == sent + duplicated on the lossless network",
        );
        let sync = spec
            .fleet(&population, weather, horizon, ExecutionMode::sync())
            .run();
        ledger.require(
            sync == report && write_archive(&sync, spec.tier()) == bytes,
            "the distributed season equals the sync season byte for byte",
        );
    }
    if let Population::Slab(slab) = &population {
        city_checks(slab, seed, weather, horizon, ledger);
    }
    ledger.attempted += verdict.negotiations;
    ledger.failed += verdict.failed;
    Reference {
        negotiations: verdict.negotiations,
        failed: verdict.failed,
        archive_len: bytes.len(),
        archive_hash: fingerprint(&bytes),
        archive_reps: (ARCHIVE_SAMPLE_S / round_trip).ceil().clamp(1.0, 100.0) as u32,
        peak_rss_mb,
    }
}

/// The slab-specific checks: shard demands add up to the city's, the
/// slab fold equals the per-object fold on sampled windows, and a small
/// twin's slab season equals its object season.
fn city_checks(
    slab: &PopulationSlab,
    seed: u64,
    weather_model: &WeatherModel,
    horizon: &Horizon,
    ledger: &mut Ledger,
) {
    let axis = TimeAxis::quarter_hourly();
    let weather = weather_model.temperatures(&axis, seed);
    let whole = aggregate_demand_slab(slab.view(), &weather, &axis, seed);
    let mut summed = vec![0.0; axis.slots_per_day()];
    for shard in slab.shards(CITY_SHARDS) {
        let part = aggregate_demand_slab(shard, &weather, &axis, seed);
        for (s, v) in summed.iter_mut().zip(part.series().values()) {
            *s += v;
        }
    }
    ledger.require(
        series_close(&summed, whole.series().values()),
        "the shards' one-day demands sum to the whole city's demand",
    );

    // Sixteen windows of 64 consecutive households at seed-drawn
    // offsets, each folded household by household from objects
    // rebuilt from their id and occupancy.
    const WINDOW: usize = 64;
    let mut state = seed ^ 0x5eed_5eed;
    let mut fold_ok = true;
    for _ in 0..16 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let start = (state >> 33) as usize % (slab.len() - WINDOW);
        let view = slab.view_range(start, start + WINDOW);
        let batched = aggregate_demand_slab(view, &weather, &axis, seed);
        let mut folded = vec![0.0; axis.slots_per_day()];
        for i in 0..WINDOW {
            let home = Household::standard(view.id(i), view.occupants(i));
            fold_ok &=
                home.allowed_use() == view.allowed_use(i) && home.intensity() == view.intensity(i);
            let profile = home.demand_profile(&axis, weather.mean(), seed);
            for (s, v) in folded.iter_mut().zip(profile.values()) {
                *s += v;
            }
        }
        fold_ok &= batched.series().values() == folded.as_slice();
    }
    ledger.require(
        fold_ok,
        "the slab fold equals Household::demand_profile on sampled windows",
    );

    let twin = PopulationBuilder::new().households(400);
    let twin_slab = twin.build_slab(seed);
    let twin_homes = twin.build(seed);
    let slab_season = FleetRunner::new()
        .sharded_slab(&twin_slab, 2, |shard, _| {
            city_campaign(shard, weather_model, horizon).build()
        })
        .report_tier(ReportTier::Settlement)
        .run();
    let (north, south) = twin_homes.split_at(twin_slab.shards(2)[0].len());
    let object_season = FleetRunner::new()
        .cell(
            "shard-0",
            city_campaign(PopulationRef::Objects(north), weather_model, horizon).build(),
        )
        .cell(
            "shard-1",
            city_campaign(PopulationRef::Objects(south), weather_model, horizon).build(),
        )
        .report_tier(ReportTier::Settlement)
        .run();
    ledger.require(
        slab_season == object_season,
        "a small twin's slab season equals its object season",
    );
}

/// A fixed pure-CPU loop: shows how fast the host ran during the run.
fn ref_loop() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x2545_f491_4f6c_dd1du64);
    for _ in 0..50_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

/// Peak resident set of this process (`VmHWM`) in MB of 10⁶ bytes.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib * 1024.0 / 1e6
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Untraced repetitions of set-up, pooled season and archive round
/// trip; every figure is the median over the repetitions.
fn end_to_end(
    spec: Workload,
    seed: u64,
    weather: &WeatherModel,
    horizon: &Horizon,
    deadline: Instant,
    reference: &Reference,
    ledger: &mut Ledger,
) -> Metrics {
    let (mut setup, mut season, mut archive, mut host) = (vec![], vec![], vec![], vec![]);
    while setup.len() < MIN_REPETITIONS || Instant::now() < deadline {
        host.push(ref_loop());
        let t = Instant::now();
        let population = spec.population(seed);
        let fleet = spec.fleet(&population, weather, horizon, spec.execution(seed));
        setup.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let report = fleet.run();
        season.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let mut bytes = write_archive(&report, spec.tier());
        let mut back = read_archive(&bytes);
        for _ in 1..reference.archive_reps {
            drop(back);
            bytes = write_archive(&report, spec.tier());
            back = read_archive(&bytes);
        }
        archive.push(t.elapsed().as_secs_f64() / f64::from(reference.archive_reps));
        ledger.season(reference, reference.reproduced_by(&bytes, back.is_some()));
    }
    for (name, samples) in [
        ("setup_s", &setup),
        ("season_s", &season),
        ("archive_s", &archive),
        ("host.ref_loop_s", &host),
    ] {
        let shown: Vec<String> = samples.iter().map(|v| format!("{v:.4}")).collect();
        eprintln!("samples {name}: {}", shown.join(" "));
    }
    vec![
        ("setup_s", median(setup), "s"),
        ("season_s", median(season), "s"),
        ("archive_s", median(archive), "s"),
        ("archive_mb", reference.archive_len as f64 / 1e6, "MB"),
        ("peak_rss_mb", reference.peak_rss_mb, "MB"),
    ]
}

/// Per-layer figures: set-up split by layer, the pooled and the
/// sequential season, the stepped (traced) season and the archive
/// split into write and read; medians over the repetitions.
fn per_layer(
    spec: Workload,
    seed: u64,
    weather: &WeatherModel,
    horizon: &Horizon,
    deadline: Instant,
    reference: &Reference,
    ledger: &mut Ledger,
) -> Metrics {
    #[derive(Default)]
    struct Samples {
        population: Vec<f64>,
        campaign: Vec<f64>,
        season: Vec<f64>,
        sequential: Vec<f64>,
        choose: Vec<f64>,
        next_day: Vec<f64>,
        negotiate: Vec<f64>,
        complete_day: Vec<f64>,
        finish: Vec<f64>,
        wall: Vec<f64>,
        coverage: Vec<f64>,
        write: Vec<f64>,
        read: Vec<f64>,
        host: Vec<f64>,
    }
    let mut s = Samples::default();
    let mut counts = None;
    while s.population.len() < MIN_REPETITIONS || Instant::now() < deadline {
        s.host.push(ref_loop());
        let t = Instant::now();
        let population = spec.population(seed);
        s.population.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let fleet = spec.fleet(&population, weather, horizon, spec.execution(seed));
        s.campaign.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        drop(black_box(fleet.run()));
        s.season.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        drop(black_box(fleet.run_sequential()));
        s.sequential.push(t.elapsed().as_secs_f64());

        let stepped = trace::step_fleet(&fleet);
        let st = stepped.stages;
        s.choose.push(st.choose);
        s.next_day.push(st.next_day);
        s.negotiate.push(st.negotiate);
        s.complete_day.push(st.complete_day);
        s.finish.push(st.finish);
        s.wall.push(stepped.wall);
        s.coverage.push(st.total() / stepped.wall);

        let reps = reference.archive_reps;
        let t = Instant::now();
        let mut bytes = write_archive(&stepped.report, spec.tier());
        for _ in 1..reps {
            bytes = write_archive(&stepped.report, spec.tier());
        }
        s.write.push(t.elapsed().as_secs_f64() / f64::from(reps));
        let t = Instant::now();
        let mut back = read_archive(&bytes);
        for _ in 1..reps {
            drop(back);
            back = read_archive(&bytes);
        }
        s.read.push(t.elapsed().as_secs_f64() / f64::from(reps));
        ledger.season(reference, reference.reproduced_by(&bytes, back.is_some()));

        let (mut rounds, mut messages) = (0u64, 0u64);
        for cell in &stepped.report.cells {
            for o in &cell.report.outcomes {
                rounds += u64::from(o.report.digest().rounds);
                messages += o.report.total_messages();
            }
        }
        counts = Some((
            stepped.peaks,
            stepped.customers,
            rounds,
            messages,
            stepped.traffic,
            population.households() as u64,
            population.device_entries() as u64,
        ));
    }
    let (peaks, customers, rounds, messages, traffic, households, devices) =
        counts.expect("at least one repetition");
    let coverage = median(s.coverage.clone());
    ledger.require(
        coverage >= 0.95,
        "the traced stages cover at least 95 % of the traced wall time",
    );
    let days = horizon.len();
    let slots = TimeAxis::quarter_hourly().slots_per_day() as u64;
    let household_days = households * days;
    let campaign_build = median(s.campaign);
    let negotiate = median(s.negotiate);
    let season = median(s.season);
    let sequential = median(s.sequential);
    let wall = median(s.wall);
    let write = median(s.write);
    let read = median(s.read);
    let mb = reference.archive_len as f64 / 1e6;
    vec![
        ("grid.population.build_s", median(s.population), "s"),
        ("core.campaign.build_s", campaign_build, "s"),
        ("grid.demand.household_days", household_days as f64, "count"),
        (
            "grid.demand.device_slots",
            (devices * days * slots) as f64,
            "count",
        ),
        (
            "grid.demand.ns_per_household_day",
            campaign_build * 1e9 / household_days as f64,
            "ns",
        ),
        ("core.campaign.choose_s", median(s.choose), "s"),
        ("core.campaign.next_day_s", median(s.next_day), "s"),
        ("core.campaign.peaks", peaks as f64, "count"),
        ("core.session.customers", customers as f64, "count"),
        ("core.campaign.negotiate_s", negotiate, "s"),
        ("core.engine.rounds", rounds as f64, "count"),
        ("core.engine.messages", messages as f64, "count"),
        (
            "core.engine.ns_per_message",
            negotiate * 1e9 / messages.max(1) as f64,
            "ns",
        ),
        ("sim.messages_sent", traffic.messages_sent as f64, "count"),
        (
            "sim.messages_delivered",
            traffic.messages_delivered as f64,
            "count",
        ),
        (
            "sim.messages_duplicated",
            traffic.messages_duplicated as f64,
            "count",
        ),
        ("sim.timers_fired", traffic.timers_fired as f64, "count"),
        ("core.campaign.complete_day_s", median(s.complete_day), "s"),
        ("core.campaign.finish_s", median(s.finish), "s"),
        ("core.fleet.season_s", season, "s"),
        ("core.fleet.sequential_s", sequential, "s"),
        ("core.sweep.speedup", sequential / season, "x"),
        ("archive.write_s", write, "s"),
        ("archive.read_s", read, "s"),
        ("archive.bytes", reference.archive_len as f64, "bytes"),
        ("archive.mb_per_s", 2.0 * mb / (write + read), "MB/s"),
        ("trace.wall_s", wall, "s"),
        ("trace.coverage", coverage, "ratio"),
        ("trace.overhead_s", wall - sequential, "s"),
        ("host.ref_loop_s", median(s.host), "s"),
    ]
}

fn json(ledger: &Ledger, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.correct,
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "{e}\nusage: seasonbench --workload <city_slab|patient_fulltrace|distributed_jitter> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let weather = WeatherModel::winter();
    let horizon = args.workload.horizon();
    let mut ledger = Ledger {
        attempted: 0,
        failed: 0,
        correct: true,
    };
    let reference = check_phase(args.workload, args.seed, &weather, &horizon, &mut ledger);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let timed = if args.trace { per_layer } else { end_to_end };
    let metrics = timed(
        args.workload,
        args.seed,
        &weather,
        &horizon,
        deadline,
        &reference,
        &mut ledger,
    );
    for (name, value, unit) in &metrics {
        eprintln!("{name:>34} {value:>16.6} {unit}");
    }
    println!("{}", json(&ledger, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use loadbal_core::campaign::{CampaignBuilder, ClosedLoop, FixedPredictor};

    fn small_season() -> FleetReport {
        let homes = PopulationBuilder::new().households(200).build(5);
        let horizon = Horizon::new(8, 0, Season::Winter);
        let weather = WeatherModel::winter();
        let runner = CampaignBuilder::new(&homes, &weather, &horizon)
            .predictor(FixedPredictor(MovingAverage::new(2)))
            .warmup_days(2)
            .feedback(ClosedLoop)
            .build();
        let fleet = FleetRunner::new()
            .cell("c", runner)
            .report_tier(ReportTier::Settlement);
        fleet.run()
    }

    #[test]
    fn the_archive_checks_fire_on_a_perturbed_report_or_archive() {
        let report = small_season();
        let bytes = write_archive(&report, ReportTier::Settlement);
        let back = read_archive(&bytes).expect("the archive decodes");
        assert_eq!(back, report);
        let mut perturbed = report.clone();
        perturbed.cells[0].label.push('x');
        assert_ne!(back, perturbed);

        let reference = Reference {
            negotiations: 0,
            failed: 0,
            archive_len: bytes.len(),
            archive_hash: fingerprint(&bytes),
            archive_reps: 1,
            peak_rss_mb: 1.0,
        };
        assert!(reference.reproduced_by(&bytes, true));
        assert!(!reference.reproduced_by(&bytes, false));
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 1;
        assert!(!reference.reproduced_by(&flipped, true));
        assert!(!reference.reproduced_by(&bytes[1..], true));
    }

    #[test]
    fn a_season_that_does_not_reproduce_counts_every_negotiation_failed() {
        let mut ledger = Ledger {
            attempted: 0,
            failed: 0,
            correct: true,
        };
        let reference = Reference {
            negotiations: 10,
            failed: 0,
            archive_len: 0,
            archive_hash: 0,
            archive_reps: 1,
            peak_rss_mb: 1.0,
        };
        ledger.season(&reference, true);
        assert!(ledger.correct);
        ledger.season(&reference, false);
        assert_eq!((ledger.attempted, ledger.failed), (20, 10));
        assert!(!ledger.correct);
    }
}
