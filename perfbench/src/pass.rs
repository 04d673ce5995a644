//! One live pass: start the server, run every connection's thread through
//! the plan's phases in lockstep, and collect what each phase measured.

use std::cell::Cell;
use std::io;
use std::path::Path;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use vod_svc::load::DataTally;
use vod_svc::{
    fetch_stats, find_counter, find_gauge, find_histogram, AdminClient, DEFAULT_STORE_SEED,
};

use crate::client::{Answer, Backlog, Conn};
use crate::ladder::{next_rate, Step};
use crate::live::{warmup_window, LiveSpec, Plan, DILATION, SHARDS};
use crate::server::Server;
use crate::stats::percentile;

/// How long a step may take to drain its answers before the rest count as
/// shed.
const DRAIN_LIMIT: Duration = Duration::from_secs(3);
/// Traced passes sample the server's queue-depth and clock-lag gauges this
/// often.
const GAUGE_EVERY: Duration = Duration::from_millis(100);
/// The first clock-lag sample of a step, its baseline, is taken this long
/// after the step starts, once each shard has served requests of the step
/// rather than of the one before.
const LAG_SETTLE: Duration = Duration::from_millis(20);

/// A reusable barrier that any party can abort, so a connection thread
/// that fails cannot leave the others waiting forever.
struct Gate {
    parties: usize,
    state: Mutex<(usize, u64, bool)>,
    cv: Condvar,
}

impl Gate {
    fn new(parties: usize) -> Gate {
        Gate {
            parties,
            state: Mutex::new((0, 0, false)),
            cv: Condvar::new(),
        }
    }

    /// Waits for every party; `Ok(true)` for exactly one of them.
    fn wait(&self) -> io::Result<bool> {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if s.2 {
            return Err(io::Error::other("another connection failed"));
        }
        let generation = s.1;
        s.0 += 1;
        if s.0 == self.parties {
            s.0 = 0;
            s.1 += 1;
            self.cv.notify_all();
            return Ok(true);
        }
        while s.1 == generation && !s.2 {
            s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        if s.1 == generation {
            return Err(io::Error::other("another connection failed"));
        }
        Ok(false)
    }

    fn abort(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).2 = true;
        self.cv.notify_all();
    }
}

/// One connection's share of one step.
#[derive(Debug, Default)]
struct StepPart {
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    shed: u64,
    data_loss: u64,
    backlog: Backlog,
}

/// What a traced pass saw of the server's gauges.
///
/// A shard's clock lag is its virtual clock minus the stamp of the request
/// it served last. The stamps come from the client's schedule, which
/// starts after the server's clocks did and restarts its origin each step,
/// so the raw lag also holds a constant offset: set-up and drain time, in
/// slots. Within one step that offset is fixed, so the lag's rise above its
/// first sample in the step is how far the shard fell behind.
#[derive(Debug, Clone, Default)]
pub struct Gauges {
    /// Largest per-shard admission-queue depth over the pass.
    pub queue_depth_max: f64,
    /// Largest rise of a shard's clock lag within each step (the nominal
    /// step first), slots.
    pub lag_rise_by_step: Vec<f64>,
    lag_base: [Option<f64>; SHARDS],
}

impl Gauges {
    /// Samples the gauges during step `step` (0 = the nominal step).
    fn sample(&mut self, admin: &mut AdminClient, step: usize) {
        let Ok(json) = admin.snapshot() else { return };
        if self.lag_rise_by_step.len() <= step {
            self.lag_rise_by_step.resize(step + 1, 0.0);
            self.lag_base = [None; SHARDS];
        }
        for shard in 0..SHARDS {
            let gauge = |what: &str| find_gauge(&json, &format!("svc.gauge.shard{shard}.{what}"));
            if let Some(d) = gauge("queue_depth") {
                self.queue_depth_max = self.queue_depth_max.max(d);
            }
            if let Some(lag) = gauge("clock_lag_slots") {
                let base = *self.lag_base[shard].get_or_insert(lag);
                let rise = &mut self.lag_rise_by_step[step];
                *rise = rise.max(lag - base);
            }
        }
    }

    /// Folds another connection's samples into these.
    fn merge(&mut self, other: &Gauges) {
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        if self.lag_rise_by_step.len() < other.lag_rise_by_step.len() {
            self.lag_rise_by_step
                .resize(other.lag_rise_by_step.len(), 0.0);
        }
        for (mine, theirs) in self
            .lag_rise_by_step
            .iter_mut()
            .zip(&other.lag_rise_by_step)
        {
            *mine = mine.max(*theirs);
        }
    }
}

/// What the measured part of a pass saw.
pub struct Measured {
    /// Every step run, nominal first, in order.
    pub steps: Vec<Step>,
    /// Due-time→grant latencies of the nominal step, ms, per connection
    /// in due order.
    pub nominal_latency_ms: Vec<Vec<f64>>,
    /// Generator lateness over the nominal step, ms.
    pub nominal_late_ms: Vec<f64>,
    /// Server CPU time from the nominal step's start to its last send.
    pub nominal_cpu: Duration,
    /// `STATS` snapshot when the nominal step had drained.
    pub nominal_stats: String,
    /// Each connection's verification tallies then.
    pub nominal_data: Vec<DataTally>,
    /// `STATS` snapshot after the last step.
    pub final_stats: String,
    /// Admin `SNAPSHOT` after the last step (traced passes).
    pub snapshot: Option<String>,
    /// Sampled gauge maxima (traced passes).
    pub gauges: Gauges,
    /// Peak server RSS, MB.
    pub rss_mb: f64,
}

/// What a pass produced.
pub struct PassResult {
    /// Server start until every connection was warm.
    pub setup: Duration,
    /// The connections, with every request's answer and timing.
    pub conns: Vec<Conn>,
    /// Present unless the pass stopped after warm-up.
    pub measured: Option<Measured>,
}

/// Leader-side state shared by the connection threads.
struct Shared {
    gate: Gate,
    /// The next step's rate, set by the leader after each step; `None`
    /// ends the pass.
    next: Mutex<Option<f64>>,
    parts: Mutex<Vec<StepPart>>,
    steps: Mutex<Vec<Step>>,
    marks: Mutex<Marks>,
}

#[derive(Default)]
struct Marks {
    warm: Option<Instant>,
    nominal_cpu: Duration,
    nominal_stats: String,
    nominal_latency_ms: Vec<Vec<f64>>,
    nominal_late_ms: Vec<f64>,
    nominal_data: Vec<DataTally>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs one pass of `plan` against a fresh server. With `full` unset it
/// stops once every connection is warm (a set-up sample); `traced` starts
/// the server's admin plane, samples its gauges and scrapes a snapshot.
pub fn run_pass(
    spec: &LiveSpec,
    plan: &Plan,
    vodsim: &Path,
    catalog: &Path,
    full: bool,
    traced: bool,
) -> io::Result<PassResult> {
    let started = Instant::now();
    let server = Server::start(vodsim, catalog, SHARDS, DILATION, traced)?;
    let conns = plan.per_conn.len();
    let shared = Shared {
        gate: Gate::new(conns),
        next: Mutex::new(None),
        parts: Mutex::new(Vec::new()),
        steps: Mutex::new(Vec::new()),
        marks: Mutex::new(Marks::default()),
    };
    let body = |i: usize| -> io::Result<(Conn, Gauges)> {
        let result = drive(spec, plan, &server, &shared, i, full, traced);
        if result.is_err() {
            shared.gate.abort();
        }
        result
    };
    // One thread per connection: the calling thread drives connection 0.
    let results: Vec<io::Result<(Conn, Gauges)>> = std::thread::scope(|s| {
        let others: Vec<_> = (1..conns).map(|i| s.spawn(move || body(i))).collect();
        let mut out = vec![body(0)];
        out.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked")),
        );
        out
    });
    let mut conns_out = Vec::with_capacity(conns);
    let mut gauges = Gauges::default();
    for r in results {
        let (conn, g) = r?;
        gauges.merge(&g);
        conns_out.push(conn);
    }
    let marks = std::mem::take(&mut *lock(&shared.marks));
    let setup = marks
        .warm
        .ok_or_else(|| io::Error::other("pass never warmed up"))?
        .duration_since(started);
    let measured = if full {
        let snapshot = match &server.admin {
            Some(addr) => Some(settled_snapshot(addr)?),
            None => None,
        };
        Some(Measured {
            steps: std::mem::take(&mut *lock(&shared.steps)),
            nominal_latency_ms: marks.nominal_latency_ms,
            nominal_late_ms: marks.nominal_late_ms,
            nominal_cpu: marks.nominal_cpu,
            nominal_stats: marks.nominal_stats,
            nominal_data: marks.nominal_data,
            final_stats: fetch_stats(server.addr)?,
            snapshot,
            gauges,
            rss_mb: server.peak_rss_mb()?,
        })
    } else {
        None
    };
    Ok(PassResult {
        setup,
        conns: conns_out,
        measured,
    })
}

/// Spans recorded by every shard so far.
pub fn span_count(snapshot: &str) -> u64 {
    (0..SHARDS)
        .filter_map(|s| find_histogram(snapshot, &format!("svc.span.shard{s}.total_ns")))
        .map(|h| h.count)
        .sum()
}

/// Scrapes `SNAPSHOT` once the span count has caught up with the grant
/// count (a span is recorded after its reply is flushed, so the last few
/// can land after the client has read them), waiting at most two seconds.
fn settled_snapshot(admin: &str) -> io::Result<String> {
    let mut client = AdminClient::connect(admin).map_err(|e| io::Error::other(e.to_string()))?;
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let json = client
            .snapshot()
            .map_err(|e| io::Error::other(e.to_string()))?;
        let grants = find_counter(&json, "svc.grants").unwrap_or(0);
        if span_count(&json) >= grants || Instant::now() > deadline {
            return Ok(json);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One connection thread's walk through the plan: warm-up, then (when
/// `full`) the nominal step and every ladder step the leader chooses.
fn drive(
    spec: &LiveSpec,
    plan: &Plan,
    server: &Server,
    shared: &Shared,
    i: usize,
    full: bool,
    traced: bool,
) -> io::Result<(Conn, Gauges)> {
    let subscribe = if spec.subscribe {
        spec.entries.len() as u32
    } else {
        0
    };
    let mut conn = Conn::open(
        server.addr,
        plan.per_conn[i].clone(),
        subscribe,
        DEFAULT_STORE_SEED,
    )?;
    // Every subscription is live before any request is sent, so no
    // publication airs unobserved.
    shared.gate.wait()?;
    let warmup = plan.phases[0].ranges[i].clone();
    conn.run_closed(warmup.clone(), warmup_window(spec.subscribe))?;
    conn.drain(warmup.end, spec.subscribe, DRAIN_LIMIT)?;
    if shared.gate.wait()? {
        lock(&shared.marks).warm = Some(Instant::now());
    }
    if full {
        *lock(&shared.next) = Some(plan.phases[1].rate);
    }
    shared.gate.wait()?;
    let mut gauges = Gauges::default();
    let mut admin = match (&server.admin, traced && i == 0) {
        (Some(addr), true) => {
            Some(AdminClient::connect(addr).map_err(|e| io::Error::other(e.to_string()))?)
        }
        _ => None,
    };
    let step = Cell::new(0);
    let next_sample = Cell::new(Instant::now());
    let mut tick = |now: Instant| {
        if let Some(admin) = admin.as_mut() {
            if now >= next_sample.get() {
                gauges.sample(admin, step.get());
                next_sample.set(now + GAUGE_EVERY);
            }
        }
    };
    let mut schedule = plan.ladder.clone();
    let mut p = 1;
    loop {
        // Read into a local: the leader takes this lock again below.
        let Some(rate) = *lock(&shared.next) else {
            break;
        };
        let (range, at0) = if p == 1 {
            (plan.phases[1].ranges[i].clone(), plan.phases[1].at0)
        } else {
            let (at0, reqs) = plan.ladder_step(&mut schedule, rate, i);
            let start = conn.reqs.len();
            conn.extend(&reqs);
            (start..conn.reqs.len(), at0)
        };
        step.set(p - 1);
        let cpu_before = if i == 0 && p == 1 {
            server.thread_cpu()?
        } else {
            Duration::ZERO
        };
        let origin = Instant::now();
        next_sample.set(origin + LAG_SETTLE);
        let lost_before = lost(&conn.data_tally());
        let backlog = conn.run_open(range.clone(), origin, at0, &mut tick)?;
        if i == 0 && p == 1 {
            lock(&shared.marks).nominal_cpu = server.thread_cpu()?.saturating_sub(cpu_before);
        }
        conn.drain(range.end, spec.subscribe, DRAIN_LIMIT)?;
        let tally = conn.data_tally();
        let part = part_of(&conn, range, backlog, lost(&tally) - lost_before);
        if p == 1 {
            let mut marks = lock(&shared.marks);
            marks.nominal_latency_ms.push(part.latencies_ms.clone());
            marks.nominal_late_ms.extend_from_slice(&part.late_ms);
            marks.nominal_data.push(tally);
        }
        lock(&shared.parts).push(part);
        if shared.gate.wait()? {
            let parts = std::mem::take(&mut *lock(&shared.parts));
            if p == 1 {
                lock(&shared.marks).nominal_stats = fetch_stats(server.addr)?;
            }
            let mut steps = lock(&shared.steps);
            steps.push(step_of(rate, &parts));
            *lock(&shared.next) = if spec.ladder {
                next_rate(&steps, &spec.limits)
            } else {
                None
            };
        }
        shared.gate.wait()?;
        p += 1;
    }
    // Collect the stragglers of a failed step so the oracle sees them.
    conn.drain(conn.sent(), spec.subscribe, DRAIN_LIMIT)?;
    Ok((conn, gauges))
}

fn part_of(
    conn: &Conn,
    range: std::ops::Range<usize>,
    backlog: Backlog,
    data_loss: u64,
) -> StepPart {
    let mut part = StepPart {
        backlog,
        data_loss,
        ..StepPart::default()
    };
    for seq in range {
        part.late_ms.push(conn.late_ns[seq] as f64 / 1e6);
        match conn.answers[seq] {
            Answer::Granted { .. } => part.latencies_ms.push(conn.latency_ns[seq] as f64 / 1e6),
            Answer::Rejected | Answer::Pending => part.shed += 1,
        }
    }
    part
}

fn step_of(rate: f64, parts: &[StepPart]) -> Step {
    let mut lat: Vec<f64> = parts
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    let mut late: Vec<f64> = parts
        .iter()
        .flat_map(|p| p.late_ms.iter().copied())
        .collect();
    lat.sort_by(f64::total_cmp);
    late.sort_by(f64::total_cmp);
    Step {
        rate,
        p99_ms: if lat.is_empty() {
            f64::INFINITY
        } else {
            percentile(&lat, 0.99)
        },
        requests: parts.iter().map(|p| p.late_ms.len() as u64).sum(),
        shed: parts.iter().map(|p| p.shed).sum(),
        data_loss: parts.iter().map(|p| p.data_loss).sum(),
        backlog_start: parts.iter().map(|p| p.backlog.start).sum(),
        backlog_end: parts.iter().map(|p| p.backlog.end).sum(),
        late_p99_ms: if late.is_empty() {
            0.0
        } else {
            percentile(&late, 0.99)
        },
    }
}

fn lost(t: &DataTally) -> u64 {
    t.gaps + t.byte_deadline_misses
}
