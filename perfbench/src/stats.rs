//! The arithmetic every reported number goes through: percentiles under
//! the reporting rule, medians of repeated measurements, and the failure
//! tally behind `error_ratio`.

/// Percentile levels a timing may be reported at, ascending.
const LEVELS: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// The highest of the standard levels (p50, p90, p99, p99.9, p99.99) that
/// leaves at least ten samples beyond it among `n`, or `None` when even
/// the median does not (fewer than 20 samples).
#[must_use]
pub fn tail_level(n: usize) -> Option<f64> {
    LEVELS
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile of ascending `sorted` samples.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (the mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Which way a repeated measurement gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Faster {
    /// Times and costs: lower is faster.
    Lower,
    /// Rates: higher is faster.
    Higher,
}

/// The fast-side quartile of repeated measurements of the same work: the
/// 25th percentile of times, the 75th of rates.
///
/// Load from outside the benchmark only ever slows a repetition down. On a
/// shared host repetitions therefore fall into a fast cluster (the program
/// alone) and a slow one (the program beside a busy neighbour), in
/// proportions that change from run to run. The median jumps between the
/// clusters; the fast quartile stays in the fast one as long as a quarter
/// of the repetitions ran undisturbed.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn fast_quartile(values: &[f64], faster: Faster) -> f64 {
    assert!(!values.is_empty(), "quartile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match faster {
        Faster::Lower => percentile(&v, 0.25),
        Faster::Higher => percentile(&v, 0.75),
    }
}

/// One timing distribution, summarized the way the report states it: the
/// median, p99, the highest percentile the sample supports, and the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile (quoted even when fewer than ten samples lie beyond
    /// it; `tail_level` says what the sample supports).
    pub p99: f64,
    /// The highest level with at least ten samples beyond it (0 when none).
    pub tail_level: f64,
    /// The value at `tail_level`.
    pub tail: f64,
}

impl Timing {
    /// Summarizes `samples` (sorted in place); `None` when empty.
    pub fn of(samples: &mut [f64]) -> Option<Timing> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        let level = tail_level(samples.len()).unwrap_or(0.0);
        Some(Timing {
            count: samples.len(),
            p50: percentile(samples, 0.5),
            p99: percentile(samples, 0.99),
            tail_level: level,
            tail: if level > 0.0 {
                percentile(samples, level)
            } else {
                f64::NAN
            },
        })
    }

    /// `p50 …, p99 …, p99.9 … (n = …)` for the human-readable report.
    #[must_use]
    pub fn describe(&self, unit: &str) -> String {
        let tail = if self.tail_level > 0.0 {
            format!(
                ", p{} {:.4} {unit}",
                trim_level(self.tail_level * 100.0),
                self.tail
            )
        } else {
            String::new()
        };
        format!(
            "p50 {:.4} {unit}, p99 {:.4} {unit}{tail} (n = {})",
            self.p50, self.p99, self.count
        )
    }
}

fn trim_level(pct: f64) -> String {
    let s = format!("{pct:.2}");
    s.trim_end_matches('0').trim_end_matches('.').to_owned()
}

/// The p99 of each of `windows` consecutive windows.
///
/// `streams` are samples in time order (one stream per connection); window
/// `k` takes the `k`-th of `windows` equal slices of every stream. One
/// host scheduling stall inflates the p99 of the window it falls in, not
/// the others, so a summary over windows is what repeats from run to run.
#[must_use]
pub fn window_p99s(streams: &[Vec<f64>], windows: usize) -> Vec<f64> {
    let windows = windows.max(1);
    (0..windows)
        .filter_map(|k| {
            let mut w: Vec<f64> = streams
                .iter()
                .flat_map(|s| {
                    let (a, b) = (s.len() * k / windows, s.len() * (k + 1) / windows);
                    s[a..b].iter().copied()
                })
                .collect();
            Timing::of(&mut w).map(|t| t.p99)
        })
        .collect()
}

/// Runs `f`, adding its wall time in nanoseconds and one call to `acc`
/// (`(total ns, calls)`).
pub fn timed<R>(acc: &mut (f64, u64), f: impl FnOnce() -> R) -> R {
    let started = std::time::Instant::now();
    let r = f();
    acc.0 += started.elapsed().as_nanos() as f64;
    acc.1 += 1;
    r
}

/// Operations attempted and failed; `failed ÷ attempted` is the run's
/// `error_ratio`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a correctness gate.
    pub failed: u64,
}

impl Tally {
    /// Books `attempted` operations of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Failed over attempted. A run that attempted nothing did not show
    /// that anything works, so it counts as fully failed.
    #[must_use]
    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_level_needs_ten_samples_beyond_it() {
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(0.5));
        assert_eq!(tail_level(99), Some(0.5));
        assert_eq!(tail_level(100), Some(0.9));
        assert_eq!(tail_level(999), Some(0.9));
        assert_eq!(tail_level(1_000), Some(0.99));
        assert_eq!(tail_level(10_000), Some(0.999));
        assert_eq!(tail_level(100_000), Some(0.9999));
        assert_eq!(
            tail_level(10_000_000),
            Some(0.9999),
            "levels stop at p99.99"
        );
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn timing_reports_count_and_supported_tail() {
        let mut samples: Vec<f64> = (0..1_000).rev().map(f64::from).collect();
        let t = Timing::of(&mut samples).expect("non-empty");
        assert_eq!(t.count, 1_000);
        assert_eq!(t.p50, 499.0);
        assert_eq!(t.p99, 989.0);
        assert_eq!(t.tail_level, 0.99);
        assert!(t.describe("ms").contains("(n = 1000)"));
        assert!(Timing::of(&mut []).is_none());
        let mut few = [3.0, 1.0, 2.0];
        let t = Timing::of(&mut few).expect("non-empty");
        assert_eq!(t.tail_level, 0.0, "three samples support no percentile");
        assert!(!t.describe("ms").contains("p0"));
    }

    #[test]
    fn window_p99s_keep_a_stall_in_its_window() {
        let calm: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        let mut stalled = calm.clone();
        stalled[0..100].iter_mut().for_each(|v| *v = 1e6);
        // Three windows of 100: the stall lands in the first only.
        assert_eq!(window_p99s(&[stalled.clone()], 3), [1e6, 98.0, 98.0]);
        assert_eq!(window_p99s(&[stalled], 1), [1e6]);
        // Windows take the same slice of every stream.
        assert_eq!(window_p99s(&[calm.clone(), calm], 3), [98.0; 3]);
    }

    #[test]
    fn fast_quartile_ignores_a_slow_half() {
        // Eight repetitions, the last four slowed down 1.6x by a neighbour.
        let times = [1.0, 1.02, 0.98, 1.01, 1.6, 1.62, 1.58, 1.61];
        assert_eq!(fast_quartile(&times, Faster::Lower), 1.0);
        let rates: Vec<f64> = times.iter().map(|t| 1.0 / t).collect();
        assert_eq!(fast_quartile(&rates, Faster::Higher), 1.0 / 1.01);
        assert!(median(&times) > 1.25, "the median lands between clusters");
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn error_ratio_arithmetic() {
        let mut t = Tally::default();
        assert_eq!(t.error_ratio(), 1.0, "nothing attempted is not a pass");
        t.add(10, 0);
        assert_eq!(t.error_ratio(), 0.0);
        t.add(10, 3);
        assert_eq!(
            t,
            Tally {
                attempted: 20,
                failed: 3
            }
        );
        assert!((t.error_ratio() - 0.15).abs() < 1e-12);
    }
}
