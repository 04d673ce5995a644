//! The rate ladder's pass/fail rule, which defines `max_rps`, and the
//! rule choosing each next rate.
//!
//! The ladder starts at the nominal step and has no top. A step that fails
//! is run once more at the same rate, and the rate fails only when both
//! runs do: on a shared host a neighbour's burst of load can fail one step
//! anywhere below the knee. The ladder doubles the rate until a rate
//! fails, then climbs from the last passing rate in 7% steps until three
//! consecutive rates fail. `max_rps` is the highest rate that passed. So
//! the knee is found wherever it lies, on any host, and a faster program is
//! never capped by the ladder's top rung.
//!
//! A step at an offered rate passes when all of these hold:
//! - its p99 request→grant latency, timed from each request's due time, is
//!   under the workload's latency limit;
//! - at most 1% of its requests were shed (rejected, or still unanswered
//!   when the step's drain gave up) and the data plane lost nothing. The
//!   shipped admission queue holds 64 requests per shard, so on a shared
//!   host a scheduling stall of a few milliseconds sheds a handful of
//!   requests at any rate; a systematic shed share marks the knee, a
//!   handful does not;
//! - outstanding requests did not grow across the step: a step meeting the
//!   limit holds at most `rate × limit` requests in flight, so growth beyond
//!   that is a backlog the server is not keeping up with;
//! - the generator kept to its schedule (p99 lateness within a stated share
//!   of the limit). A step whose client lagged measured the client, not the
//!   server, so it is invalid rather than slow.

/// Largest share of a step's requests that may be shed.
pub const SHED_TOLERANCE: f64 = 0.01;

/// Backlog slack below which growth is never called a backlog, so a
/// low-rate step is not failed by a handful of requests in flight.
const MIN_BACKLOG_SLACK: f64 = 16.0;

/// What one step observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// p99 latency from due time, ms (infinite when nothing was answered).
    pub p99_ms: f64,
    /// Requests the step sent.
    pub requests: u64,
    /// Requests rejected or never answered.
    pub shed: u64,
    /// Publications lost to subscribers (gaps, byte-deadline misses).
    pub data_loss: u64,
    /// Requests outstanding when the step's first request was due.
    pub backlog_start: u64,
    /// Requests outstanding when its last request was due.
    pub backlog_end: u64,
    /// p99 generator lateness (send time minus due time), ms.
    pub late_p99_ms: f64,
}

/// The limits a step is judged against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Limits {
    /// p99 latency limit, ms.
    pub p99_ms: f64,
    /// Largest p99 generator lateness, as a share of the latency limit, for
    /// a step to count as a measurement of the server.
    pub late_share: f64,
}

/// Why a step passed or failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every condition held.
    Pass,
    /// The generator lagged: the step measured the client.
    Invalid,
    /// p99 over the limit.
    Slow,
    /// Requests rejected or unanswered.
    Shed,
    /// The data plane lost publications.
    DataLoss,
    /// Outstanding requests grew across the step.
    Backlog,
}

impl Step {
    /// Whether outstanding requests grew by more than the step may hold.
    #[must_use]
    pub fn backlog_grew(&self, limits: &Limits) -> bool {
        let slack = (self.rate * limits.p99_ms / 1e3).max(MIN_BACKLOG_SLACK);
        self.backlog_end as f64 > self.backlog_start as f64 + slack
    }

    /// Judges the step; the first failing condition names the verdict.
    #[must_use]
    pub fn verdict(&self, limits: &Limits) -> Verdict {
        if self.late_p99_ms > limits.late_share * limits.p99_ms {
            Verdict::Invalid
        } else if self.shed as f64 > SHED_TOLERANCE * self.requests as f64 {
            Verdict::Shed
        } else if self.data_loss > 0 {
            Verdict::DataLoss
        } else if self.backlog_grew(limits) {
            Verdict::Backlog
        } else if self.p99_ms.is_nan() || self.p99_ms >= limits.p99_ms {
            Verdict::Slow
        } else {
            Verdict::Pass
        }
    }
}

/// Each step of the coarse climb doubles the rate.
pub const COARSE_RATIO: f64 = 2.0;
/// Each step of the fine climb raises the rate by 7%.
pub const FINE_RATIO: f64 = 1.07;
/// Consecutive failed fine rates that end the ladder.
pub const STOP_AFTER_FAILURES: usize = 3;
/// Steps after which the ladder stops even though it has not found its
/// knee. Doubling reaches any plausible knee within a few dozen steps, and
/// one doubling takes about ten fine rates, so only a broken run gets here.
pub const MAX_STEPS: usize = 64;

/// One rate of the ladder: consecutive steps run at it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rung {
    rate: f64,
    runs: usize,
    passed: bool,
}

impl Rung {
    /// Failed its run and its rerun.
    fn failed(&self) -> bool {
        !self.passed && self.runs >= 2
    }
}

/// `steps` grouped into rungs, in order.
fn rungs(steps: &[Step], limits: &Limits) -> Vec<Rung> {
    let mut out: Vec<Rung> = Vec::new();
    for s in steps {
        let passed = s.verdict(limits) == Verdict::Pass;
        match out.last_mut() {
            Some(r) if r.rate == s.rate => {
                r.runs += 1;
                r.passed |= passed;
            }
            _ => out.push(Rung {
                rate: s.rate,
                runs: 1,
                passed,
            }),
        }
    }
    out
}

/// The fine climb, once a doubling rate has failed: the rate it starts from
/// (the highest rate that passed before) and its rungs so far.
fn fine_climb(steps: &[Step], limits: &Limits) -> Option<(f64, Vec<Rung>)> {
    let mut rungs = rungs(steps, limits);
    let confirmed = rungs.iter().position(Rung::failed)?;
    let base = rungs[..confirmed]
        .iter()
        .filter(|r| r.passed)
        .map(|r| r.rate)
        .reduce(f64::max)
        .unwrap_or(steps[0].rate);
    Some((base, rungs.split_off(confirmed + 1)))
}

/// The rate of the step after `steps` (the nominal step first, then every
/// ladder step in order), or `None` when the ladder is over.
#[must_use]
pub fn next_rate(steps: &[Step], limits: &Limits) -> Option<f64> {
    let last = *rungs(steps, limits).last()?;
    if steps.len() >= MAX_STEPS || knee_found(steps, limits) {
        return None;
    }
    // A rate that failed once runs once more.
    if !last.passed && last.runs == 1 {
        return Some(last.rate);
    }
    Some(match fine_climb(steps, limits) {
        Some((base, fine)) => base * FINE_RATIO.powi(fine.len() as i32 + 1),
        None => last.rate * COARSE_RATIO,
    })
}

/// Whether the ladder ended at its knee: its last rungs are
/// [`STOP_AFTER_FAILURES`] failed fine rates. A ladder that stopped
/// otherwise (at [`MAX_STEPS`]) has no `max_rps` to report.
#[must_use]
pub fn knee_found(steps: &[Step], limits: &Limits) -> bool {
    fine_climb(steps, limits).is_some_and(|(_, fine)| {
        fine.len() >= STOP_AFTER_FAILURES
            && fine[fine.len() - STOP_AFTER_FAILURES..]
                .iter()
                .all(Rung::failed)
    })
}

/// `max_rps`: the highest rate among the steps run that passed, or `None`
/// when none did.
#[must_use]
pub fn max_passing(steps: &[Step], limits: &Limits) -> Option<f64> {
    steps
        .iter()
        .filter(|s| s.verdict(limits) == Verdict::Pass)
        .map(|s| s.rate)
        .reduce(f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMITS: Limits = Limits {
        p99_ms: 20.0,
        late_share: 0.5,
    };

    fn ok(rate: f64) -> Step {
        Step {
            rate,
            p99_ms: 3.0,
            requests: 1_000,
            shed: 0,
            data_loss: 0,
            backlog_start: 10,
            backlog_end: 12,
            late_p99_ms: 1.0,
        }
    }

    #[test]
    fn a_clean_step_passes() {
        assert_eq!(ok(1_000.0).verdict(&LIMITS), Verdict::Pass);
    }

    #[test]
    fn each_condition_fails_a_step() {
        let slow = Step {
            p99_ms: 20.0,
            ..ok(1_000.0)
        };
        assert_eq!(
            slow.verdict(&LIMITS),
            Verdict::Slow,
            "the limit is exclusive"
        );
        let unanswered = Step {
            p99_ms: f64::INFINITY,
            ..ok(1_000.0)
        };
        assert_eq!(unanswered.verdict(&LIMITS), Verdict::Slow);
        let shed = Step {
            shed: 11,
            ..ok(1_000.0)
        };
        assert_eq!(shed.verdict(&LIMITS), Verdict::Shed);
        let handful = Step {
            shed: 10,
            ..ok(1_000.0)
        };
        assert_eq!(handful.verdict(&LIMITS), Verdict::Pass, "1% is tolerated");
        let lost = Step {
            data_loss: 2,
            ..ok(1_000.0)
        };
        assert_eq!(lost.verdict(&LIMITS), Verdict::DataLoss);
        let lagging = Step {
            late_p99_ms: 10.5,
            ..ok(1_000.0)
        };
        assert_eq!(lagging.verdict(&LIMITS), Verdict::Invalid);
    }

    #[test]
    fn backlog_growth_is_judged_against_what_the_limit_allows() {
        // At 10k req/s a 20 ms limit allows 200 requests in flight.
        let within = Step {
            backlog_start: 50,
            backlog_end: 250,
            ..ok(10_000.0)
        };
        assert_eq!(within.verdict(&LIMITS), Verdict::Pass);
        let grew = Step {
            backlog_start: 50,
            backlog_end: 251,
            ..ok(10_000.0)
        };
        assert_eq!(grew.verdict(&LIMITS), Verdict::Backlog);
        // A slow step is never failed by the minimum slack alone.
        let trickle = Step {
            backlog_start: 0,
            backlog_end: 16,
            ..ok(10.0)
        };
        assert_eq!(trickle.verdict(&LIMITS), Verdict::Pass);
        let shrank = Step {
            backlog_start: 400,
            backlog_end: 0,
            ..ok(10_000.0)
        };
        assert!(!shrank.backlog_grew(&LIMITS));
    }

    /// Runs the ladder from `nominal` against a server whose steps pass
    /// when `passes(rate)` holds, returning every step run.
    fn climb(nominal: f64, passes: impl Fn(f64) -> bool) -> Vec<Step> {
        let shed = |rate| Step {
            shed: 30,
            ..ok(rate)
        };
        let step = |rate| if passes(rate) { ok(rate) } else { shed(rate) };
        let mut steps = vec![step(nominal)];
        while let Some(rate) = next_rate(&steps, &LIMITS) {
            steps.push(step(rate));
        }
        steps
    }

    #[test]
    fn ladder_doubles_then_climbs_in_fine_steps_to_three_failures() {
        let steps = climb(1_000.0, |r| r < 10_000.0);
        let rates: Vec<f64> = steps.iter().map(|s| s.rate).collect();
        assert_eq!(
            rates[..6],
            [1_000.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0, 16_000.0],
            "a failed doubling step runs twice"
        );
        // Fine steps from the last passing coarse rate, 8000.
        assert!((rates[6] - 8_000.0 * FINE_RATIO).abs() < 1e-6);
        let passing = max_passing(&steps, &LIMITS).expect("some step passed");
        assert!(passing < 10_000.0 && passing * FINE_RATIO >= 10_000.0);
        assert!(knee_found(&steps, &LIMITS));
        assert_eq!(next_rate(&steps, &LIMITS), None);
        // The last three rates each failed twice.
        let tail = &steps[steps.len() - 2 * STOP_AFTER_FAILURES..];
        assert!(tail.iter().all(|s| s.verdict(&LIMITS) == Verdict::Shed));
    }

    #[test]
    fn ladder_has_no_top() {
        // A knee far above any fixed ladder is still found.
        let steps = climb(1_000.0, |r| r < 3_000_000.0);
        let passing = max_passing(&steps, &LIMITS).expect("some step passed");
        assert!(passing > 2_500_000.0, "{passing}");
        assert!(knee_found(&steps, &LIMITS));
        assert!(steps.len() < MAX_STEPS);
    }

    #[test]
    fn ladder_reruns_failed_steps_and_stops_after_three_failed_rates() {
        let shed = |rate| Step {
            shed: 30,
            ..ok(rate)
        };
        // Doubling fails twice at 4000; fine rates start from 2000. The
        // second fine rate passes on its rerun; the next three fail twice.
        let f = |k: i32| 2_000.0 * FINE_RATIO.powi(k);
        let steps = [
            ok(1_000.0),
            ok(2_000.0),
            shed(4_000.0),
            shed(4_000.0),
            shed(f(1)),
            shed(f(1)),
            shed(f(2)),
            ok(f(2)),
            shed(f(3)),
            shed(f(3)),
            shed(f(4)),
            shed(f(4)),
            shed(f(5)),
            shed(f(5)),
        ];
        for n in 1..steps.len() {
            let got = next_rate(&steps[..n], &LIMITS).expect("ladder continues");
            assert!(
                (got - steps[n].rate).abs() < 1e-6,
                "after {n} steps: {got} vs {}",
                steps[n].rate
            );
        }
        assert!(
            !knee_found(&steps[..12], &LIMITS),
            "two failed fine rates are not the knee"
        );
        assert!(knee_found(&steps, &LIMITS));
        assert_eq!(next_rate(&steps, &LIMITS), None);
        assert_eq!(max_passing(&steps, &LIMITS), Some(f(2)));
        assert_eq!(max_passing(&steps[2..6], &LIMITS), None);
        assert_eq!(max_passing(&[], &LIMITS), None);
    }

    #[test]
    fn a_doubling_step_that_passes_its_rerun_keeps_doubling() {
        let steps = [
            ok(1_000.0),
            ok(2_000.0),
            Step {
                shed: 30,
                ..ok(4_000.0)
            },
        ];
        assert_eq!(next_rate(&steps, &LIMITS), Some(4_000.0));
        let rerun = [steps[0], steps[1], steps[2], ok(4_000.0)];
        assert_eq!(next_rate(&rerun, &LIMITS), Some(8_000.0));
    }

    #[test]
    fn a_ladder_stopped_by_its_step_cap_found_no_knee() {
        let steps: Vec<Step> = (0..MAX_STEPS).map(|i| ok(1.0 + i as f64)).collect();
        assert_eq!(next_rate(&steps, &LIMITS), None);
        assert!(!knee_found(&steps, &LIMITS));
    }
}
