//! `sim-fig7`: the paper's Fig. 7/8 DHB sweep through the simulation
//! kernel — a 99-segment two-hour video at the ten paper rates, full
//! horizon (300 warm-up + 4000 measured slots per rate), run serially.
//!
//! There are no sockets or threads here: the DHB heuristic and the
//! slotted engine do all the work. A run makes a fixed number of sweeps
//! and keeps a few numbers per sweep: its wall time per simulated request
//! (the simulator's request→grant time), the p99 of its timed scheduling
//! calls, and its CPU time. A sweep at seed 42 must reproduce the DHB
//! columns of `bench-results/fig7.json` and `fig8.json` exactly.

use std::fs;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use dhb_core::Dhb;
use vod_sim::{Journal, Observer, RateSweep, SlotOutcome, SlottedProtocol};
use vod_types::{Slot, VideoSpec};

use crate::report::Report;
use crate::server::{peak_rss_mb, repo_root, schedstat_cpu};
use crate::stats::{fast_quartile, median, Faster, Timing};

/// The paper's Fig. 7/8 rates, requests per hour.
pub const PAPER_RATES: [f64; 10] = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0];
/// The seed the committed figures were generated with.
const FIGURE_SEED: u64 = 42;
const WARMUP_SLOTS: u64 = 300;
const MEASURED_SLOTS: u64 = 4_000;
/// Set-up samples per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The sweep behind Figs. 7 and 8 at `seed`.
#[must_use]
pub fn sweep(seed: u64) -> RateSweep {
    RateSweep::new(VideoSpec::paper_two_hour())
        .rates_per_hour(&PAPER_RATES)
        .warmup_slots(WARMUP_SLOTS)
        .measured_slots(MEASURED_SLOTS)
        .seed(seed)
}

/// Times every request the wrapped protocol schedules.
struct Timed<P> {
    inner: P,
    ns: Vec<f64>,
}

impl<P: SlottedProtocol> SlottedProtocol for Timed<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_request(&mut self, slot: Slot) {
        let started = Instant::now();
        self.inner.on_request(slot);
        self.ns.push(started.elapsed().as_nanos() as f64);
    }

    fn transmissions_in(&mut self, slot: Slot) -> u32 {
        self.inner.transmissions_in(slot)
    }

    fn playback_delay_slots(&self) -> u64 {
        self.inner.playback_delay_slots()
    }

    fn on_slot_outcome(&mut self, outcome: &SlotOutcome) {
        self.inner.on_slot_outcome(outcome);
    }

    fn stall_slots(&self) -> u64 {
        self.inner.stall_slots()
    }
}

/// One sweep's results.
pub struct SweepRun {
    /// `(avg, max)` streams per rate, rendered as the figures print them.
    pub rows: Vec<(String, String)>,
    /// Mean streams per slot per rate.
    pub avg_streams: Vec<f64>,
    /// Simulated requests over every rate.
    pub requests: u64,
    /// Wall time of the whole sweep.
    pub wall: Duration,
    /// Wall time per rate.
    pub per_rate: Vec<Duration>,
    /// The sweep's timed scheduling calls (`on_request`), ms.
    pub grant: Timing,
}

/// Runs the sweep serially, exactly as the runner's one-job path does,
/// timing each rate and each request.
///
/// # Panics
///
/// Panics if the sweep simulates no request (the paper rates always do).
pub fn run_sweep(seed: u64, obs: &mut Observer) -> SweepRun {
    let started = Instant::now();
    let n = VideoSpec::paper_two_hour().n_segments();
    let mut rows = Vec::new();
    let mut avg_streams = Vec::new();
    let mut per_rate = Vec::new();
    let mut requests = 0;
    let mut grant_ms = Vec::new();
    for spec in sweep(seed).specs() {
        let t = Instant::now();
        let mut protocol = Timed {
            inner: Dhb::fixed_rate(n),
            ns: Vec::new(),
        };
        let report = spec
            .slotted()
            .run_observed(&mut protocol, spec.arrivals(), obs);
        per_rate.push(t.elapsed());
        requests += report.total_requests;
        avg_streams.push(report.avg_bandwidth.get());
        rows.push((
            format!("{:.3}", report.avg_bandwidth.get()),
            format!("{:.3}", report.max_bandwidth.get()),
        ));
        grant_ms.extend(protocol.ns.iter().map(|ns| ns / 1e6));
    }
    SweepRun {
        rows,
        avg_streams,
        requests,
        wall: started.elapsed(),
        per_rate,
        grant: Timing::of(&mut grant_ms).expect("the paper rates simulate requests"),
    }
}

/// The DHB column of a committed figure record, in row order.
fn dhb_column(path: &str) -> io::Result<Vec<String>> {
    let text = fs::read_to_string(repo_root().join(path))?;
    let strings = |from: &str| -> Vec<Vec<String>> {
        // Every array of string literals after `from`, in order.
        let body = &text[text.find(from).map_or(text.len(), |i| i + from.len())..];
        body.split('[')
            .skip(1)
            .map(|arr| {
                let arr = &arr[..arr.find(']').unwrap_or(arr.len())];
                arr.split('"')
                    .skip(1)
                    .step_by(2)
                    .map(str::to_owned)
                    .collect()
            })
            .filter(|v: &Vec<String>| !v.is_empty())
            .collect()
    };
    let headers = strings("\"headers\":")
        .into_iter()
        .next()
        .unwrap_or_default();
    let col = headers
        .iter()
        .position(|h| h == "DHB")
        .ok_or_else(|| io::Error::other(format!("{path} has no DHB column")))?;
    Ok(strings("\"rows\":")
        .into_iter()
        .filter_map(|row| row.get(col).cloned())
        .collect())
}

/// Compares a seed-42 sweep with the committed Fig. 7 (average) and Fig. 8
/// (maximum) DHB columns; returns `(rows checked, rows differing)`.
fn reference_check(run: &SweepRun) -> io::Result<(u64, u64)> {
    let avg = dhb_column("bench-results/fig7.json")?;
    let max = dhb_column("bench-results/fig8.json")?;
    let mut differing =
        (avg.len().abs_diff(run.rows.len()) + max.len().abs_diff(run.rows.len())) as u64;
    for (i, (a, m)) in run.rows.iter().enumerate() {
        differing += u64::from(avg.get(i) != Some(a)) + u64::from(max.get(i) != Some(m));
    }
    Ok((
        2 * run.rows.len().max(avg.len()).max(max.len()) as u64,
        differing,
    ))
}

/// Runs `sim-fig7`: set-up samples (each builds the sweep and replays the
/// seed-42 reference, which gates correctness), then sweeps at `seed` for
/// `seconds`, adding the end-to-end metrics to `report`.
pub fn run(seed: u64, seconds: f64, report: &mut Report) -> io::Result<Vec<SweepRun>> {
    report.record("rates_per_hour", format!("{PAPER_RATES:?}"));
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let reference = run_sweep(FIGURE_SEED, &mut Observer::disabled());
        let (checked, differing) = reference_check(&reference)?;
        setups.push(started.elapsed().as_secs_f64());
        if rep == 0 {
            report.gate(
                "seed-42 sweep reproduces the fig7/fig8 DHB columns",
                checked,
                differing,
            );
        }
    }
    report.lines.push(format!("set-up samples (s): {setups:?}"));
    report.metric("setup_s", median(&setups), "s");
    measure(seed, seconds, &mut Observer::disabled(), report)
}

/// Wall seconds one sweep takes on an undisturbed 2-core x86 host; a run
/// of `seconds` makes `seconds / SWEEP_SECS` sweeps. The count depends on
/// `--seconds` alone, so neither a faster program nor a busier host
/// changes how many sweeps a run summarizes.
const SWEEP_SECS: f64 = 1.0;
/// Fewest sweeps a run makes, however short `--seconds` is.
const MIN_SWEEPS: usize = 4;

/// Sweeps at `seed` a fixed number of times (see [`SWEEP_SECS`]) and
/// reports their end-to-end metrics. Each metric is a per-sweep value
/// summarized by [`fast_quartile`], since every sweep does the same work.
pub fn measure(
    seed: u64,
    seconds: f64,
    obs: &mut Observer,
    report: &mut Report,
) -> io::Result<Vec<SweepRun>> {
    let sweeps = ((seconds / SWEEP_SECS).round() as usize).max(MIN_SWEEPS);
    let thread_cpu = || schedstat_cpu(Path::new("/proc/thread-self/schedstat"));
    let mut runs = Vec::with_capacity(sweeps);
    let mut cpu = Vec::with_capacity(sweeps);
    for _ in 0..sweeps {
        let before = thread_cpu()?;
        runs.push(run_sweep(seed, obs));
        cpu.push(thread_cpu()?.saturating_sub(before));
    }
    let differing: u64 = runs
        .iter()
        .map(|r| {
            r.rows
                .iter()
                .zip(&runs[0].rows)
                .filter(|(a, b)| a != b)
                .count() as u64
        })
        .sum();
    report.gate(
        "repeated sweeps are identical",
        (runs.len() * runs[0].rows.len()) as u64,
        differing,
    );
    let requests: u64 = runs.iter().map(|r| r.requests).sum();
    report.gate("simulated requests scheduled", requests, 0);
    let per_request_ms: Vec<f64> = runs
        .iter()
        .map(|r| r.wall.as_secs_f64() * 1e3 / r.requests as f64)
        .collect();
    let p99s: Vec<f64> = runs.iter().map(|r| r.grant.p99).collect();
    let rps: Vec<f64> = per_request_ms.iter().map(|ms| 1e3 / ms).collect();
    let cpu_per_k: Vec<f64> = runs
        .iter()
        .zip(&cpu)
        .map(|(r, c)| c.as_secs_f64() * 1e3 / (r.requests as f64 / 1e3))
        .collect();
    report.lines.push(format!(
        "simulated scheduling call per request, first sweep: {}",
        runs[0].grant.describe("ms")
    ));
    report.lines.push(format!(
        "{} sweeps, {requests} simulated requests; per sweep: requests/s {rps:.0?}, \
         scheduling-call p99 (ms) {p99s:.5?}, CPU ms per 1000 requests {cpu_per_k:.3?}",
        runs.len()
    ));
    report.metric(
        "grant_p50_ms",
        fast_quartile(&per_request_ms, Faster::Lower),
        "ms",
    );
    report.metric("grant_p99_ms", fast_quartile(&p99s, Faster::Lower), "ms");
    report.metric("max_rps", fast_quartile(&rps, Faster::Higher), "1/s");
    report.metric(
        "server_cpu_ms_per_kgrant",
        fast_quartile(&cpu_per_k, Faster::Lower),
        "ms",
    );
    report.metric("server_rss_mb", peak_rss_mb("/proc/self/status")?, "MB");
    Ok(runs)
}

/// An enabled observer for traced sweeps (timers on, journal off).
#[must_use]
pub fn traced_observer() -> Observer {
    Observer::enabled(Journal::disabled())
}
