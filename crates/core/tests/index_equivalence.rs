//! The per-segment instance index against the window scan it replaced.
//!
//! [`window_scan::WindowScan`] is the former `DhbScheduler` search: every
//! request probes all `T[j]` slots of every segment's window. The indexed
//! scheduler must reproduce it exactly — grants, aired slots, the planned
//! ring, every counter and the recovery statistics — under bursts,
//! out-of-order arrivals (`arrival + 1 ≥ base`, as the live service's clamp
//! allows), client receive limits, soft load caps and fault-recovery
//! re-placements.

mod window_scan;

use dhb_core::{DhbScheduler, SlotHeuristic, SlotScheduler};
use proptest::prelude::*;
use vod_types::{SegmentId, Slot};
use window_scan::{Counters, WindowScan};

/// One scheduler configuration.
#[derive(Clone)]
struct Config {
    periods: Vec<u64>,
    heuristic: SlotHeuristic,
    client_limit: Option<u32>,
    load_cap: Option<u32>,
    retries: u32,
    /// Percent of aired instances reported dropped.
    drop_pct: u64,
}

impl std::fmt::Debug for Config {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fixed_rate = self.periods.iter().zip(1..).all(|(&t, j)| t == j);
        f.debug_struct("Config")
            .field("n", &self.periods.len())
            .field("fixed_rate", &fixed_rate)
            .field("heuristic", &self.heuristic)
            .field("client_limit", &self.client_limit)
            .field("load_cap", &self.load_cap)
            .field("retries", &self.retries)
            .field("drop_pct", &self.drop_pct)
            .finish()
    }
}

impl Config {
    fn indexed(&self) -> DhbScheduler {
        let mut s = DhbScheduler::new(self.periods.clone(), self.heuristic)
            .with_max_recovery_retries(self.retries);
        if let Some(limit) = self.client_limit {
            s = s.with_client_limit(limit);
        }
        if let Some(cap) = self.load_cap {
            s = s.with_load_cap(cap);
        }
        s
    }

    fn reference(&self) -> WindowScan {
        WindowScan::new(
            self.periods.clone(),
            self.heuristic,
            self.client_limit,
            self.load_cap,
            self.retries,
        )
    }
}

/// SplitMix64, so a case is reproducible from its seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Period vectors: fixed-rate `T[j] = j`, or non-decreasing `T[j] ≥ j` (a
/// DHB-d-like plan), which keeps every client limit feasible.
fn periods(n: usize, rng: &mut Rng) -> Vec<u64> {
    if rng.below(2) == 0 {
        return (1..=n as u64).collect();
    }
    let mut extra = 0;
    (1..=n as u64)
        .map(|j| {
            extra += rng.below(3) / 2;
            j + extra
        })
        .collect()
}

fn indexed_counters(s: &DhbScheduler) -> Counters {
    Counters {
        requests: s.requests(),
        new_instances: s.new_instances(),
        shared_instances: s.shared_instances(),
        duplicate_instances: s.duplicate_instances(),
        cap_overflows: s.cap_overflows(),
        recovery: s.recovery_stats(),
    }
}

/// Drives both schedulers through `slots` slots of random traffic and
/// drops, comparing everything observable after every step. Returns the
/// final counters.
fn compare(cfg: &Config, seed: u64, slots: u64) -> Result<Counters, String> {
    let mut rng = Rng(seed);
    let mut indexed = cfg.indexed();
    let mut reference = cfg.reference();
    let mut grants = Vec::new();
    let horizon = cfg.periods.iter().max().copied().unwrap_or(1) + 8;
    for _ in 0..slots {
        let base = indexed.next_slot().index();
        // Mostly a few requests per slot; now and then a burst.
        let requests = if rng.below(8) == 0 {
            rng.below(25)
        } else {
            rng.below(4)
        };
        for _ in 0..requests {
            let arrival = Slot::new(base.saturating_sub(1) + rng.below(6));
            let want = reference.schedule_request(arrival);
            if rng.below(2) == 0 {
                indexed.schedule_request_into(arrival, &mut grants);
            } else {
                grants = indexed.schedule_request(arrival);
            }
            if grants != want {
                return Err(format!("grants for {arrival} at base {base} differ"));
            }
        }
        for slot in base..base + horizon {
            let slot = Slot::new(slot);
            if indexed.planned_segments(slot) != reference.planned_segments(slot) {
                return Err(format!("planned segments of {slot} differ"));
            }
        }
        let aired = indexed.pop_slot();
        if aired != reference.pop_slot() {
            return Err(format!("aired slot {} differs", aired.0));
        }
        let dropped: Vec<SegmentId> = aired
            .1
            .iter()
            .copied()
            .filter(|_| rng.below(100) < cfg.drop_pct)
            .collect();
        indexed.recover_dropped(&dropped);
        reference.recover_dropped(&dropped);
        if indexed_counters(&indexed) != reference.counters() {
            return Err(format!(
                "counters after slot {} differ: {:?} vs {:?}",
                aired.0,
                indexed_counters(&indexed),
                reference.counters()
            ));
        }
        let stats = SlotScheduler::stats(&indexed);
        let want = reference.counters();
        if (stats.requests, stats.new_instances, stats.shared_instances)
            != (want.requests, want.new_instances, want.shared_instances)
            || stats.stall_slots != reference.stall_slots()
            || indexed.next_slot() != reference.next_slot()
        {
            return Err("trait stats differ".to_owned());
        }
    }
    Ok(reference.counters())
}

const SEGMENTS: [usize; 4] = [1, 6, 99, 200];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random configurations, traffic and drops: the index reproduces the
    /// window scan exactly.
    #[test]
    fn index_matches_the_window_scan(
        seed in any::<u64>(),
        n in prop::sample::select(SEGMENTS.to_vec()),
        heuristic in prop::sample::select(SlotHeuristic::ALL.to_vec()),
        client_limit in 0u32..4,
        load_cap in 0u32..5,
        retries in prop::sample::select(vec![1u32, 2, 8]),
        drop_pct in prop::sample::select(vec![0u64, 5, 30]),
    ) {
        let cfg = Config {
            periods: periods(n, &mut Rng(seed ^ 0x5eed)),
            heuristic,
            client_limit: (client_limit > 0).then_some(client_limit),
            load_cap: (load_cap > 0).then_some(load_cap),
            retries,
            drop_pct,
        };
        let verdict = compare(&cfg, seed, 60);
        prop_assert!(verdict.is_ok(), "{cfg:?} seed {seed}: {}", verdict.unwrap_err());
    }
}

/// Every heuristic on every catalog size, each under every client limit
/// and load cap at least once, with drops on. The runs must reach every
/// path the index changes: duplicates forced by the client limit, cap
/// overflows, and all three recovery outcomes.
#[test]
fn every_heuristic_and_size_matches_the_window_scan() {
    let limits = [
        (None, None),
        (Some(1), Some(4)),
        (Some(2), Some(3)),
        (Some(3), Some(1)),
        (None, Some(2)),
    ];
    let mut case = 0u64;
    let mut seen = [0u64; 5];
    for heuristic in SlotHeuristic::ALL {
        for n in SEGMENTS {
            for (client_limit, load_cap) in limits {
                case += 1;
                let cfg = Config {
                    periods: periods(n, &mut Rng(case)),
                    heuristic,
                    client_limit,
                    load_cap,
                    retries: [1, 2, 8][case as usize % 3],
                    drop_pct: 10,
                };
                let c = match compare(&cfg, case, 40) {
                    Ok(c) => c,
                    Err(e) => panic!("{cfg:?} seed {case}: {e}"),
                };
                let paths = [
                    c.duplicate_instances,
                    c.cap_overflows,
                    c.recovery.reschedules,
                    c.recovery.deferred_starts,
                    c.recovery.unrecoverable,
                ];
                for (total, hit) in seen.iter_mut().zip(paths) {
                    *total += hit;
                }
            }
        }
    }
    assert!(
        seen.iter().all(|&hit| hit > 0),
        "unexercised path: {seen:?}"
    );
}
