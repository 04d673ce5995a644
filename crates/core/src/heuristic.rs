//! Slot-selection heuristics.
//!
//! The paper motivates its heuristic with a worst case: if every new
//! instance were simply scheduled as late as possible, a two-hour video in
//! 120 segments under sustained load would eventually pile one transmission
//! of *every* segment into the same slot — a bandwidth peak of `120·b`
//! (Section 3). The min-load rule spreads instances across the window
//! instead; the tie-break towards the latest slot preserves the most
//! opportunity for future sharing. The alternatives exist for the
//! `ablation_heuristic` bench, which reproduces exactly that comparison.

use std::fmt;

/// How the scheduler picks a slot for a new segment instance within the
/// feasible window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotHeuristic {
    /// The paper's rule (Figure 6): minimum load, ties towards the latest
    /// slot.
    MinLoadLatest,
    /// Minimum load, ties towards the earliest slot.
    MinLoadEarliest,
    /// Always the latest feasible slot (maximal sharing, pathological
    /// peaks — the strawman of Section 3).
    LatestPossible,
    /// Always the earliest feasible slot (minimal latency for the
    /// instance, minimal future sharing).
    EarliestPossible,
    /// A uniformly random window slot (load-oblivious control).
    Random,
}

impl SlotHeuristic {
    /// All heuristics, paper's first.
    pub const ALL: [SlotHeuristic; 5] = [
        SlotHeuristic::MinLoadLatest,
        SlotHeuristic::MinLoadEarliest,
        SlotHeuristic::LatestPossible,
        SlotHeuristic::EarliestPossible,
        SlotHeuristic::Random,
    ];

    /// Picks an index into `loads` (the window's per-slot loads, earliest
    /// first). `entropy` feeds the random variant; deterministic variants
    /// ignore it. This is the scheduler's in-place fold over the window,
    /// fed every slot in order.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    #[must_use]
    pub fn pick(self, loads: &[u32], entropy: u64) -> usize {
        let mut pick = self.start();
        for (idx, &load) in loads.iter().enumerate() {
            pick.offer(idx, load);
        }
        match pick.finish(entropy) {
            Some(Choice::Key(idx) | Choice::Nth(idx)) => idx,
            None => panic!("cannot pick from an empty window"),
        }
    }

    /// Starts the fold form of [`pick`](Self::pick): a caller scanning a
    /// window in place [`offer`](SlotPick::offer)s each candidate slot,
    /// earliest first, and skips the ones it rules out.
    #[must_use]
    pub(crate) fn start(self) -> SlotPick {
        SlotPick {
            heuristic: self,
            best: None,
            offered: 0,
        }
    }
}

/// A [`SlotHeuristic`] choice in progress over candidates offered earliest
/// first, each under a caller-chosen key (e.g. a ring offset).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotPick {
    heuristic: SlotHeuristic,
    /// Key and load of the best candidate so far.
    best: Option<(usize, u32)>,
    offered: usize,
}

/// The outcome of a [`SlotPick`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Choice {
    /// The candidate offered under this key.
    Key(usize),
    /// The `n`-th candidate offered (0-based). The random variant draws a
    /// rank, which needs the candidate count and so is known only at the end.
    Nth(usize),
}

impl SlotPick {
    /// Offers the next candidate slot.
    #[inline]
    pub(crate) fn offer(&mut self, key: usize, load: u32) {
        self.offered += 1;
        let take = match self.best {
            None => true,
            Some((_, best)) => match self.heuristic {
                // `<=` moves ties to the later slot.
                SlotHeuristic::MinLoadLatest => load <= best,
                SlotHeuristic::MinLoadEarliest => load < best,
                SlotHeuristic::LatestPossible => true,
                SlotHeuristic::EarliestPossible | SlotHeuristic::Random => false,
            },
        };
        if take {
            self.best = Some((key, load));
        }
    }

    /// How many candidates have been offered.
    #[must_use]
    pub(crate) fn offered(&self) -> usize {
        self.offered
    }

    /// The choice, or `None` if nothing was offered. `entropy` feeds the
    /// random variant.
    #[must_use]
    pub(crate) fn finish(self, entropy: u64) -> Option<Choice> {
        let (key, _) = self.best?;
        Some(match self.heuristic {
            SlotHeuristic::Random => Choice::Nth((entropy % self.offered as u64) as usize),
            _ => Choice::Key(key),
        })
    }
}

impl fmt::Display for SlotHeuristic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SlotHeuristic::MinLoadLatest => "min-load/latest",
            SlotHeuristic::MinLoadEarliest => "min-load/earliest",
            SlotHeuristic::LatestPossible => "latest-possible",
            SlotHeuristic::EarliestPossible => "earliest-possible",
            SlotHeuristic::Random => "random",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rule_prefers_min_load_then_latest() {
        let h = SlotHeuristic::MinLoadLatest;
        assert_eq!(h.pick(&[3, 1, 2], 0), 1);
        // Ties broken towards the latest slot (k_max in the paper).
        assert_eq!(h.pick(&[1, 0, 0, 2], 0), 2);
        assert_eq!(h.pick(&[0, 0, 0], 0), 2);
    }

    #[test]
    fn min_load_earliest_breaks_ties_low() {
        let h = SlotHeuristic::MinLoadEarliest;
        assert_eq!(h.pick(&[1, 0, 0, 2], 0), 1);
        assert_eq!(h.pick(&[0, 0, 0], 0), 0);
    }

    #[test]
    fn extremes() {
        assert_eq!(SlotHeuristic::LatestPossible.pick(&[9, 9, 0], 0), 2);
        assert_eq!(SlotHeuristic::EarliestPossible.pick(&[9, 9, 0], 0), 0);
    }

    #[test]
    fn random_is_in_range_and_entropy_driven() {
        let loads = [0u32; 7];
        for entropy in 0..100 {
            let idx = SlotHeuristic::Random.pick(&loads, entropy);
            assert!(idx < 7);
        }
        assert_ne!(
            SlotHeuristic::Random.pick(&loads, 1),
            SlotHeuristic::Random.pick(&loads, 2)
        );
    }

    #[test]
    fn single_slot_window_is_forced() {
        for h in SlotHeuristic::ALL {
            assert_eq!(h.pick(&[5], 42), 0, "{h}");
        }
    }

    #[test]
    fn display_names_are_distinct() {
        let names: std::collections::HashSet<String> =
            SlotHeuristic::ALL.iter().map(ToString::to_string).collect();
        assert_eq!(names.len(), SlotHeuristic::ALL.len());
    }
}
