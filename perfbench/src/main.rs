//! `perfbench`: one benchmark for the live service and the simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <live-grants|live-broadcast|sim-fig7> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report (timings with sample counts, every
//! correctness gate, the run record) and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report the
//! end-to-end metrics; traced runs (`--trace 1`) report the per-layer
//! metrics. Exits nonzero when any correctness gate fails. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod client;
mod gen;
mod ladder;
mod layers;
mod live;
mod pass;
mod report;
mod server;
mod sim;
mod stats;

use std::process::ExitCode;

use report::Report;

/// End-to-end metric names, in report order.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "grant_p50_ms",
    "grant_p99_ms",
    "max_rps",
    "server_cpu_ms_per_kgrant",
    "server_rss_mb",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <live-grants|live-broadcast|sim-fig7> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let steal_before = cpu_steal();
    if let Err(e) = run(&args, &mut report) {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if let (Some(a), Some(b)) = (steal_before, cpu_steal()) {
        let total = b.1.saturating_sub(a.1).max(1);
        let pct = 100.0 * b.0.saturating_sub(a.0) as f64 / total as f64;
        report.record("host_steal_pct", report::json_num(pct));
    }
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "error_ratio {} ({} failed of {} attempted)",
        report.tally.error_ratio(),
        report.tally.failed,
        report.tally.attempted
    );
    println!("run-record {}", report.record_json());
    let names: Vec<&str> = if args.trace {
        layers::PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    for name in &names {
        match report.value(name) {
            Some(v) if v.is_finite() => {}
            _ => {
                println!("{name}: not measured on this workload, reported as 0");
                report.metrics.retain(|m| m.name != *name);
                report.metric(name, 0.0, "count");
            }
        }
    }
    for m in &report.metrics {
        if names.contains(&m.name.as_str()) {
            println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    println!("{}", report.result_json(&names));
    if report.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(args: &Args, report: &mut Report) -> std::io::Result<()> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    // One thread per connection, never more than the host has cores, and
    // at most two: the benchmark's shape is the same on every host.
    let conns = cores.min(2);
    report.record("workload", report::json_str(&args.workload));
    report.record("seed", args.seed.to_string());
    report.record("seconds", report::json_num(args.seconds));
    report.record("traced", args.trace.to_string());
    report.record("host_cores", cores.to_string());
    report.record("git_sha", report::json_str(&git_sha()));
    report.record("rustc", report::json_str(&rustc_version()));
    report.record("client_threads", conns.to_string());
    report.record("client_conns", conns.to_string());
    if args.workload == "sim-fig7" {
        report.record("jobs", "1".to_owned());
        if !args.trace {
            return sim::run(args.seed, args.seconds, report).map(|_| ());
        }
        return traced_sim(args, conns, report);
    }
    let spec = match args.workload.as_str() {
        "live-grants" => live::grants_spec(),
        "live-broadcast" => live::broadcast_spec(),
        other => {
            return Err(std::io::Error::other(format!("unknown workload {other}")));
        }
    };
    let vodsim = server::build_vodsim()?;
    let catalog = server::scratch_dir()?.join(format!("{}-{}.toml", spec.name, std::process::id()));
    std::fs::write(&catalog, server::catalog_toml(&spec.entries))?;
    report.record("nominal_rps", report::json_num(spec.nominal_rps));
    if spec.ladder {
        report.record(
            "ladder",
            report::json_str(&format!(
                "every failed step runs once more; x{} from the nominal rate until a rate \
                 fails, then x{} from the last passing rate until {} consecutive rates fail",
                ladder::COARSE_RATIO,
                ladder::FINE_RATIO,
                ladder::STOP_AFTER_FAILURES
            )),
        );
    }
    report.record("latency_limit_ms", report::json_num(spec.limits.p99_ms));
    let result = if args.trace {
        traced_live(&spec, args, conns, &vodsim, &catalog, report)
    } else {
        live::run(
            &spec,
            args.seed,
            args.seconds,
            conns,
            &vodsim,
            &catalog,
            report,
        )
        .map(|_| ())
    };
    let _ = std::fs::remove_file(&catalog);
    result
}

/// Folds a sub-run's gates and report lines into the run's report.
fn absorb(report: &mut Report, part: &Report, label: &str) {
    report.tally.add(part.tally.attempted, part.tally.failed);
    report
        .lines
        .extend(part.lines.iter().map(|l| format!("[{label}] {l}")));
    for m in &part.metrics {
        report
            .lines
            .push(format!("[{label}] {} = {} {}", m.name, m.value, m.unit));
    }
}

/// The traced run of a live workload: an untraced pass and an instrumented
/// pass of half the time each, then the per-layer metrics.
fn traced_live(
    spec: &live::LiveSpec,
    args: &Args,
    conns: usize,
    vodsim: &std::path::Path,
    catalog: &std::path::Path,
    report: &mut Report,
) -> std::io::Result<()> {
    let half = args.seconds / 2.0;
    let mut untraced = Report::default();
    live::run(spec, args.seed, half, conns, vodsim, catalog, &mut untraced)?;
    let plan = live::Plan::for_seconds(spec, args.seed, conns, half);
    let pass = pass::run_pass(spec, &plan, vodsim, catalog, true, true)?;
    let mut traced = Report::default();
    traced.metric("setup_s", pass.setup.as_secs_f64(), "s");
    live::summarize(spec, &plan, &pass, &mut traced);
    layers::from_pass(&pass, &spec.limits, report);
    layers::replay(&spec.entries, &plan, conns, report);
    let mut obs = sim::traced_observer();
    let sweep = sim::run_sweep(args.seed, &mut obs);
    layers::from_sim(&mut obs, &[sweep], report);
    layers::overhead(&untraced, &traced, report);
    absorb(report, &untraced, "untraced");
    absorb(report, &traced, "traced");
    Ok(())
}

/// The traced run of `sim-fig7`: untraced and observed sweeps of half the
/// time each, plus a short `live-broadcast` pass without its ladder, so the
/// server layers, the data plane's included, are measured on a workload
/// the benchmark lists.
fn traced_sim(args: &Args, conns: usize, report: &mut Report) -> std::io::Result<()> {
    let half = args.seconds / 2.0;
    let mut untraced = Report::default();
    sim::run(args.seed, half, &mut untraced)?;
    let mut traced = Report::default();
    let started = std::time::Instant::now();
    let _ = sim::run_sweep(42, &mut sim::traced_observer());
    traced.metric("setup_s", started.elapsed().as_secs_f64(), "s");
    let mut obs = sim::traced_observer();
    let runs = sim::measure(args.seed, half, &mut obs, &mut traced)?;
    layers::from_sim(&mut obs, &runs, report);
    let spec = live::LiveSpec {
        ladder: false,
        ..live::broadcast_spec()
    };
    let vodsim = server::build_vodsim()?;
    let catalog = server::scratch_dir()?.join(format!("{}-{}.toml", spec.name, std::process::id()));
    std::fs::write(&catalog, server::catalog_toml(&spec.entries))?;
    let plan = live::Plan::for_seconds(&spec, args.seed, conns, 2.0);
    let pass = pass::run_pass(&spec, &plan, &vodsim, &catalog, true, true);
    let _ = std::fs::remove_file(&catalog);
    let pass = pass?;
    let mut served = Report::default();
    live::summarize(&spec, &plan, &pass, &mut served);
    layers::from_pass(&pass, &spec.limits, report);
    layers::replay(&spec.entries, &plan, conns, report);
    layers::overhead(&untraced, &traced, report);
    absorb(report, &untraced, "untraced");
    absorb(report, &traced, "traced");
    absorb(report, &served, "served live");
    Ok(())
}

/// `(steal, total)` jiffies of the machine from the `cpu` line of
/// `/proc/stat`. On a virtual machine, steal is time the hypervisor ran
/// other guests while this one was ready to run; a run with much of it was
/// measured on a contended host, which the run record then shows.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The commit the checkout came from, when it is a git repository.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(server::repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unavailable (checkout is not a git repository)".to_owned())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}
