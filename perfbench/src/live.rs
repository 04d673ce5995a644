//! The live workloads: `vodsim serve` as a child process, driven over host
//! loopback by one client process of at most `nproc` threads and as many
//! connections (one thread per connection).
//!
//! Each video is driven by exactly one connection, so its arrival order is
//! fixed and every grant is checked against an offline replay of its
//! stamps through a freshly built scheduler. A pass runs: server start,
//! handshakes (and subscriptions), a closed-loop warm-up, a nominal-rate
//! open-loop step, then the rate ladder of [`crate::ladder`], whose steps
//! are generated as the ladder chooses their rates.

use std::io;
use std::ops::Range;
use std::path::Path;

use dhb_core::{ScheduledSegment, SlotScheduler};
use vod_obs::Journal;
use vod_svc::{find_counter, SchedulerKind, ServeEntry};
use vod_types::Slot;

use crate::client::{grant_hash, Answer, Conn, Req};
use crate::gen::{assign_conns, Generator};
use crate::ladder::{knee_found, max_passing, Limits};
use crate::pass::{run_pass, PassResult};
use crate::report::{json_num, Report};
use crate::stats::{median, timed, window_p99s, Timing};

/// Samples per window for the reported p99 (see [`window_p99s`]).
const P99_WINDOW: usize = 1_000;

/// Virtual-clock dilation of every live workload: a two-hour video's
/// 72.7 s slot lasts 72.7 ms of wall time.
pub const DILATION: u32 = 1000;
/// Scheduler shards (video `v` lives on shard `v % 2`).
pub const SHARDS: usize = 2;
/// Catalog size.
const VIDEOS: usize = 16;
/// Zipf skew of video popularity (rank = video id).
const SKEW: f64 = 0.8;
/// Dynamic-NPB entries among the otherwise DHB catalog.
const NPB_IDS: [usize; 2] = [3, 9];
/// The DHB-d entry (VBR synthesis at server start).
const DHBD_ID: usize = 6;
/// Warm-up requests, sent closed-loop before the measured steps.
const WARMUP_REQUESTS: usize = 600;
/// Requests in flight per connection during warm-up. With subscribers the
/// window is 2: a cold title's first request publishes up to 99 segments
/// to every subscriber at once, and 16 of those would overrun the shipped
/// 256-frame outbound queue during set-up.
pub fn warmup_window(subscribe: bool) -> u64 {
    if subscribe {
        2
    } else {
        16
    }
}

/// One live workload's fixed shape.
#[derive(Debug, Clone)]
pub struct LiveSpec {
    /// Workload name.
    pub name: &'static str,
    /// The hosted catalog; wire ids are positions.
    pub entries: Vec<ServeEntry>,
    /// Whether every connection subscribes to every channel and verifies
    /// every delivered byte.
    pub subscribe: bool,
    /// Offered rate of the nominal step, requests per second.
    pub nominal_rps: f64,
    /// Whether a rate ladder follows the nominal step.
    pub ladder: bool,
    /// Latency limit and generator-lag validity bound.
    pub limits: Limits,
}

fn two_hour(kind: SchedulerKind, bytes_per_sec: Option<u64>) -> ServeEntry {
    ServeEntry {
        segment_secs: 7_200.0 / 99.0,
        kind,
        bytes_per_sec,
    }
}

/// The catalog shape both live workloads share: 99-segment two-hour DHB
/// videos, two dynamic-NPB titles and one DHB-d title.
fn catalog(bytes_per_sec: Option<u64>) -> Vec<ServeEntry> {
    (0..VIDEOS)
        .map(|id| match id {
            DHBD_ID => ServeEntry {
                segment_secs: 0.0,
                kind: SchedulerKind::DhbD {
                    preset: "matrix".to_owned(),
                    seed: 1,
                    max_wait_secs: 60.0,
                },
                bytes_per_sec,
            },
            id if NPB_IDS.contains(&id) => {
                two_hour(SchedulerKind::Npb { segments: 99 }, bytes_per_sec)
            }
            _ => two_hour(SchedulerKind::Dhb { segments: 99 }, bytes_per_sec),
        })
        .collect()
}

/// Latency limit on grant p99: one dilated slot of a two-hour video
/// (7200 s / 99 / 1000 = 72.7 ms). A grant for arrival slot `a` may name
/// `S_1` in slot `a + 1`, which starts at most one slot after the request;
/// a grant later than that can arrive after its first segment aired.
const LATENCY_LIMIT_MS: f64 = 7_200.0 / 99.0;
/// A step whose generator ran later than half the limit at p99 measured
/// the client, not the server.
const LATE_SHARE: f64 = 0.5;

/// Share of a pass's measured time spent at the nominal rate, which gives
/// the latency and CPU metrics; the ladder gets the rest.
const NOMINAL_SHARE: f64 = 0.5;
/// Ladder steps a pass budgets for: a few doublings from the nominal rate
/// to the knee, about ten 7% steps across the last doubling, reruns of the
/// steps that fail, and the three failed rates (six steps) that end it.
/// The ladder itself has no step count; this only sets how long each step
/// lasts.
const LADDER_STEPS_BUDGET: f64 = 28.0;

/// `live-grants`: the control path under a Zipf mix, no subscribers.
#[must_use]
pub fn grants_spec() -> LiveSpec {
    LiveSpec {
        name: "live-grants",
        entries: catalog(None),
        subscribe: false,
        nominal_rps: 1_000.0,
        ladder: true,
        limits: Limits {
            p99_ms: LATENCY_LIMIT_MS,
            late_share: LATE_SHARE,
        },
    }
}

/// `live-broadcast`: the same shape at a low request rate, every byte
/// delivered to both connections and verified. The last entry is a
/// 6-segment two-hour DHB title whose `bytes-per-sec` makes each segment
/// span two wire chunks.
#[must_use]
pub fn broadcast_spec() -> LiveSpec {
    let mut entries = catalog(Some(32));
    entries[VIDEOS - 1] = ServeEntry {
        segment_secs: 1_200.0,
        kind: SchedulerKind::Dhb { segments: 6 },
        bytes_per_sec: Some(900),
    };
    LiveSpec {
        name: "live-broadcast",
        entries,
        subscribe: true,
        nominal_rps: 2_000.0,
        ladder: true,
        limits: Limits {
            p99_ms: LATENCY_LIMIT_MS,
            late_share: LATE_SHARE,
        },
    }
}

/// Wall seconds per virtual slot of each entry, from a fresh build of it.
///
/// # Panics
///
/// Panics if an entry fails to build: the benchmark's catalogs are fixed.
#[must_use]
pub fn slot_secs(entries: &[ServeEntry]) -> Vec<f64> {
    entries
        .iter()
        .map(|e| {
            let (spec, _) = e.build(&Journal::disabled()).expect("catalog entry builds");
            spec.segment_duration().as_secs_f64() / f64::from(DILATION)
        })
        .collect()
}

/// One phase of a pass: warm-up (phase 0), the nominal step (1), then
/// ladder steps.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Offered rate (the nominal rate for the closed-loop warm-up).
    pub rate: f64,
    /// Schedule time the phase starts at.
    pub at0: f64,
    /// Each connection's slice of its request list.
    pub ranges: Vec<Range<usize>>,
}

/// A pass's generated inputs, split per connection.
///
/// The warm-up and the nominal step are generated up front. Ladder steps
/// continue the same seeded schedule from [`Plan::ladder`], each generated
/// once the ladder has chosen its rate: the rates depend on how earlier
/// steps went, but given the rates every request is a function of the seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Each connection's warm-up and nominal requests in send order.
    pub per_conn: Vec<Vec<Req>>,
    /// Which connection drives each video.
    pub owner: Vec<usize>,
    /// The warm-up (phase 0) and the nominal step (phase 1).
    pub phases: Vec<Phase>,
    /// The schedule where the nominal step ends; ladder steps continue it.
    pub ladder: Generator,
    /// Length of one ladder step on the schedule, seconds.
    pub step_secs: f64,
}

impl Plan {
    /// A pass measuring for `seconds`: a nominal step of
    /// [`NOMINAL_SHARE`] of them and the rest as the ladder's budget when
    /// the workload has a ladder, else all nominal.
    #[must_use]
    pub fn for_seconds(spec: &LiveSpec, seed: u64, conns: usize, seconds: f64) -> Plan {
        let ladder_secs = if spec.ladder {
            (1.0 - NOMINAL_SHARE) * seconds
        } else {
            0.0
        };
        Plan::generate(
            spec,
            seed,
            conns,
            seconds - ladder_secs,
            ladder_secs / LADDER_STEPS_BUDGET,
        )
    }

    /// Generates the warm-up and `nominal_secs` at the nominal rate; each
    /// ladder step will last `step_secs`.
    #[must_use]
    pub fn generate(
        spec: &LiveSpec,
        seed: u64,
        conns: usize,
        nominal_secs: f64,
        step_secs: f64,
    ) -> Plan {
        let mut gen = Generator::new(seed, SKEW, slot_secs(&spec.entries));
        let owner = assign_conns(&gen.shares(), conns);
        let mut per_conn: Vec<Vec<Req>> = vec![Vec::new(); conns];
        let mut phases = Vec::new();
        let steps = [
            (spec.nominal_rps, WARMUP_REQUESTS),
            (spec.nominal_rps, (spec.nominal_rps * nominal_secs) as usize),
        ];
        for (rate, count) in steps {
            let at0 = gen.now();
            let starts: Vec<usize> = per_conn.iter().map(Vec::len).collect();
            for a in gen.poisson(rate, count) {
                per_conn[owner[a.video as usize]].push(a);
            }
            phases.push(Phase {
                rate,
                at0,
                ranges: starts
                    .iter()
                    .zip(&per_conn)
                    .map(|(s, reqs)| *s..reqs.len())
                    .collect(),
            });
        }
        Plan {
            per_conn,
            owner,
            phases,
            ladder: gen,
            step_secs,
        }
    }

    /// Continues `schedule` (a clone of [`Plan::ladder`] that has generated
    /// every earlier ladder step) with one step at `rate`, returning the
    /// step's start on the schedule and connection `conn`'s share of it.
    /// Every connection generates the whole step and keeps its own videos,
    /// so all of them agree on the schedule without sharing it.
    #[must_use]
    pub fn ladder_step(&self, schedule: &mut Generator, rate: f64, conn: usize) -> (f64, Vec<Req>) {
        let at0 = schedule.now();
        let count = ((rate * self.step_secs) as usize).max(1);
        let mine = schedule
            .poisson(rate, count)
            .into_iter()
            .filter(|a| self.owner[a.video as usize] == conn)
            .collect();
        (at0, mine)
    }
}

/// Time spent in the scheduler calls [`schedule_at`] makes: `(total ns,
/// calls)` per call kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerCalls {
    /// `SlotScheduler::pop_slot`.
    pub pop: (f64, u64),
    /// `SlotScheduler::schedule_request`.
    pub schedule: (f64, u64),
}

/// Serves one request stamped `stamp` exactly as a shard does: clamp the
/// stamp to the earliest slot the scheduler can still serve, advance the
/// ring to it, then schedule. Returns the arrival slot used and the grant.
/// With `calls`, each scheduler call is timed into it.
pub fn schedule_at(
    scheduler: &mut dyn SlotScheduler,
    stamp: u64,
    mut calls: Option<&mut SchedulerCalls>,
) -> (u64, Vec<ScheduledSegment>) {
    let a = stamp.max(scheduler.next_slot().index().saturating_sub(1));
    while scheduler.next_slot().index() < a {
        match calls.as_deref_mut() {
            Some(c) => drop(timed(&mut c.pop, || scheduler.pop_slot())),
            None => drop(scheduler.pop_slot()),
        }
    }
    let schedule = match calls {
        Some(c) => timed(&mut c.schedule, || scheduler.schedule_request(Slot::new(a))),
        None => scheduler.schedule_request(Slot::new(a)),
    };
    (a, schedule)
}

/// Replays every video's granted stamps, in arrival order, through a
/// fresh offline build of its entry with [`schedule_at`] and counts grants
/// that differ.
/// Rejected requests were never scheduled and are skipped. Returns
/// `(checked, mismatched)`.
#[must_use]
pub fn oracle_check(entries: &[ServeEntry], owner: &[usize], conns: &[Conn]) -> (u64, u64) {
    let (mut checked, mut mismatched) = (0, 0);
    for (video, entry) in entries.iter().enumerate() {
        let conn = &conns[owner[video]];
        let (_, mut scheduler) = entry
            .build(&Journal::disabled())
            .expect("catalog entry builds");
        for seq in 0..conn.sent() {
            let req = conn.reqs[seq];
            if req.video as usize != video {
                continue;
            }
            let Answer::Granted { hash, arrival } = conn.answers[seq] else {
                continue;
            };
            let (a, schedule) = schedule_at(scheduler.as_mut(), req.stamp, None);
            let want = grant_hash(
                a,
                schedule
                    .iter()
                    .map(|s| (s.segment.get() as u32, s.slot.index(), !s.newly_scheduled)),
            );
            checked += 1;
            if want != hash || arrival != a {
                mismatched += 1;
            }
        }
    }
    (checked, mismatched)
}

/// The end-to-end metrics of one full pass, plus its correctness gates.
pub fn summarize(spec: &LiveSpec, plan: &Plan, pass: &PassResult, report: &mut Report) {
    let m = pass.measured.as_ref().expect("a full pass");
    let warm_and_nominal =
        |conn: usize| plan.phases[0].ranges[conn].start..plan.phases[1].ranges[conn].end;
    let mut unanswered = 0;
    let mut requests = 0;
    let mut protocol_errors = 0;
    for (c, conn) in pass.conns.iter().enumerate() {
        for seq in warm_and_nominal(c) {
            requests += 1;
            if !matches!(conn.answers[seq], Answer::Granted { .. }) {
                unanswered += 1;
            }
        }
        protocol_errors += conn.protocol_errors;
    }
    report.gate("warm-up and nominal requests granted", requests, unanswered);
    report.gate("protocol errors", requests, protocol_errors);
    let (checked, mismatched) = oracle_check(&spec.entries, &plan.owner, &pass.conns);
    report.gate("grants equal the offline replay", checked, mismatched);
    let audited = find_counter(&m.final_stats, "svc.audit.segments_checked").unwrap_or(0);
    let misses = find_counter(&m.final_stats, "svc.audit.deadline_misses").unwrap_or(u64::MAX);
    report.gate(
        "audit deadline misses",
        audited.max(1),
        misses.min(audited.max(1)),
    );

    let mut late = m.nominal_late_ms.clone();
    let late = Timing::of(&mut late);
    let lagged = late.is_some_and(|t| t.p99 > spec.limits.late_share * spec.limits.p99_ms);
    report.gate(
        "generator kept to schedule at the nominal rate",
        1,
        u64::from(lagged),
    );
    if let Some(t) = late {
        report
            .lines
            .push(format!("generator lateness: {}", t.describe("ms")));
    }

    if spec.subscribe {
        let published = find_counter(&m.nominal_stats, "svc.ring.published").unwrap_or(0);
        let fanout = find_counter(&m.nominal_stats, "svc.ring.fanout").unwrap_or(0);
        let expected = published * pass.conns.len() as u64;
        report.gate(
            "fanout = published × subscribers",
            expected.max(1),
            expected.abs_diff(fanout),
        );
        let verified: u64 = m.nominal_data.iter().map(|t| t.segments_verified).sum();
        let bytes: u64 = m.nominal_data.iter().map(|t| t.bytes_delivered).sum();
        report.lines.push(format!(
            "data plane through the nominal step: {published} publications, {verified} verified \
             deliveries, {:.1} MB payload",
            bytes as f64 / 1e6
        ));
        let lost: u64 = m
            .nominal_data
            .iter()
            .map(|t| t.gaps + t.byte_deadline_misses)
            .sum();
        report.gate(
            "every published segment verified",
            expected.max(1),
            expected.saturating_sub(verified),
        );
        report.gate("no gaps or byte-deadline misses", expected.max(1), lost);
        let bad: u64 = pass
            .conns
            .iter()
            .map(|c| {
                let t = c.data_tally();
                t.checksum_mismatches + t.chunk_errors
            })
            .sum();
        let all: u64 = pass
            .conns
            .iter()
            .map(|c| c.data_tally().segments_verified)
            .sum();
        report.gate(
            "no checksum mismatches or chunk errors",
            (all + bad).max(1),
            bad,
        );
    }

    let mut lat: Vec<f64> = m.nominal_latency_ms.concat();
    if let Some(t) = Timing::of(&mut lat) {
        let windows = (t.count / P99_WINDOW).max(1);
        let p99s = window_p99s(&m.nominal_latency_ms, windows);
        let p99 = median(&p99s);
        report.lines.push(format!(
            "nominal grant latency from due time: {}; p99 of each of {windows} windows (ms) \
             {p99s:.3?}, median {p99:.4} ms",
            t.describe("ms")
        ));
        report.metric("grant_p50_ms", t.p50, "ms");
        report.metric("grant_p99_ms", p99, "ms");
    }
    for s in &m.steps {
        report.lines.push(format!(
            "step {:.0} req/s: p99 {:.3} ms, shed {}, data loss {}, backlog {}→{}, late p99 {:.3} ms — {:?}",
            s.rate,
            s.p99_ms,
            s.shed,
            s.data_loss,
            s.backlog_start,
            s.backlog_end,
            s.late_p99_ms,
            s.verdict(&spec.limits)
        ));
    }
    if spec.ladder {
        let rates: Vec<String> = m.steps.iter().map(|s| json_num(s.rate)).collect();
        report.record("ladder_rps", format!("[{}]", rates.join(", ")));
        report.gate(
            "ladder ended at its knee",
            1,
            u64::from(!knee_found(&m.steps, &spec.limits)),
        );
    }
    report.metric(
        "max_rps",
        max_passing(&m.steps, &spec.limits).unwrap_or(0.0),
        "1/s",
    );
    let nominal_grants = m.nominal_latency_ms.iter().map(Vec::len).sum::<usize>();
    report.metric(
        "server_cpu_ms_per_kgrant",
        m.nominal_cpu.as_secs_f64() * 1e3 / (nominal_grants.max(1) as f64 / 1e3),
        "ms",
    );
    report.metric("server_rss_mb", m.rss_mb, "MB");
}

/// Runs a live workload: set-up samples, then one measured pass (and, when
/// traced, an instrumented pass whose per-layer numbers are added).
pub fn run(
    spec: &LiveSpec,
    seed: u64,
    seconds: f64,
    conns: usize,
    vodsim: &Path,
    catalog: &Path,
    report: &mut Report,
) -> io::Result<(Plan, PassResult)> {
    let plan = Plan::for_seconds(spec, seed, conns, seconds);
    let mut setups = Vec::new();
    for _ in 1..SETUP_REPS {
        setups.push(
            run_pass(spec, &plan, vodsim, catalog, false, false)?
                .setup
                .as_secs_f64(),
        );
    }
    let pass = run_pass(spec, &plan, vodsim, catalog, true, false)?;
    setups.push(pass.setup.as_secs_f64());
    report.lines.push(format!("set-up samples (s): {setups:?}"));
    report.metric("setup_s", median(&setups), "s");
    summarize(spec, &plan, &pass, report);
    Ok((plan, pass))
}

/// Set-up samples per run (server starts); `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
