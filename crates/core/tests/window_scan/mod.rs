//! The window-scan DHB scheduler the per-segment instance index replaced,
//! kept as a reference model for the equivalence tests.
//!
//! `schedule_request`, `recover_dropped` and their helpers are the former
//! `DhbScheduler` code, unchanged apart from the event journal (which does
//! not affect any result) being left out: every request probes all `T[j]`
//! window slots of every segment, and each ring slot carries `n`-wide
//! `deadline`/`retries` vectors.

use std::collections::VecDeque;

use dhb_core::{RecoveryStats, ScheduledSegment, SlotHeuristic};
use vod_types::{SegmentId, Slot};

/// Bit width of [`SegmentSet`]'s inline storage.
const INLINE_BITS: usize = 128;

#[derive(Debug, Clone, PartialEq, Eq)]
struct SegmentSet {
    inline: [u64; 2],
    spill: Box<[u64]>,
}

impl SegmentSet {
    fn new(n: usize) -> Self {
        let spill_words = n.saturating_sub(INLINE_BITS).div_ceil(64);
        SegmentSet {
            inline: [0; 2],
            spill: vec![0u64; spill_words].into_boxed_slice(),
        }
    }

    fn get(&self, idx: usize) -> bool {
        if idx < INLINE_BITS {
            self.inline[idx / 64] & (1u64 << (idx % 64)) != 0
        } else {
            self.spill[(idx - INLINE_BITS) / 64] & (1u64 << (idx % 64)) != 0
        }
    }

    fn insert(&mut self, idx: usize) {
        if idx < INLINE_BITS {
            self.inline[idx / 64] |= 1u64 << (idx % 64);
        } else {
            self.spill[(idx - INLINE_BITS) / 64] |= 1u64 << (idx % 64);
        }
    }

    fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.inline
            .iter()
            .chain(self.spill.iter())
            .enumerate()
            .flat_map(|(w, &word)| {
                std::iter::successors((word != 0).then_some(word), |&rest| {
                    let rest = rest & (rest - 1);
                    (rest != 0).then_some(rest)
                })
                .map(move |bits| w * 64 + bits.trailing_zeros() as usize)
            })
    }
}

#[derive(Debug, Clone)]
struct SlotPlan {
    scheduled: SegmentSet,
    deadline: Vec<u64>,
    retries: Vec<u32>,
    load: u32,
}

impl SlotPlan {
    fn empty(n: usize) -> Self {
        SlotPlan {
            scheduled: SegmentSet::new(n),
            deadline: vec![0; n],
            retries: vec![0; n],
            load: 0,
        }
    }

    fn segments(&self) -> Vec<SegmentId> {
        let mut out = Vec::with_capacity(self.load as usize);
        out.extend(self.scheduled.iter_ones().map(SegmentId::from_array_index));
        out
    }
}

/// Every counter the equivalence tests compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub requests: u64,
    pub new_instances: u64,
    pub shared_instances: u64,
    pub duplicate_instances: u64,
    pub cap_overflows: u64,
    pub recovery: RecoveryStats,
}

/// The window-scan scheduler.
#[derive(Debug, Clone)]
pub struct WindowScan {
    n: usize,
    periods: Vec<u64>,
    max_period: u64,
    heuristic: SlotHeuristic,
    ring: VecDeque<SlotPlan>,
    base: u64,
    entropy: u64,
    client_limit: Option<u32>,
    load_cap: Option<u32>,
    max_recovery_retries: u32,
    last_popped: Option<(u64, SlotPlan)>,
    recovery: RecoveryStats,
    new_instances: u64,
    shared_instances: u64,
    requests: u64,
    duplicate_instances: u64,
    cap_overflows: u64,
}

impl WindowScan {
    pub fn new(
        periods: Vec<u64>,
        heuristic: SlotHeuristic,
        client_limit: Option<u32>,
        load_cap: Option<u32>,
        max_recovery_retries: u32,
    ) -> Self {
        let n = periods.len();
        let max_period = *periods.iter().max().expect("non-empty");
        WindowScan {
            n,
            periods,
            max_period,
            heuristic,
            ring: VecDeque::new(),
            base: 0,
            entropy: 0x9E37_79B9_7F4A_7C15,
            client_limit,
            load_cap,
            max_recovery_retries,
            last_popped: None,
            recovery: RecoveryStats::default(),
            new_instances: 0,
            shared_instances: 0,
            requests: 0,
            duplicate_instances: 0,
            cap_overflows: 0,
        }
    }

    pub fn counters(&self) -> Counters {
        Counters {
            requests: self.requests,
            new_instances: self.new_instances,
            shared_instances: self.shared_instances,
            duplicate_instances: self.duplicate_instances,
            cap_overflows: self.cap_overflows,
            recovery: self.recovery,
        }
    }

    pub fn stall_slots(&self) -> u64 {
        self.recovery.stall_slots
    }

    pub fn next_slot(&self) -> Slot {
        Slot::new(self.base)
    }

    fn ensure_ring(&mut self, len: usize) {
        while self.ring.len() < len {
            self.ring.push_back(SlotPlan::empty(self.n));
        }
    }

    fn next_entropy(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.entropy;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.entropy = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn schedule_request(&mut self, arrival: Slot) -> Vec<ScheduledSegment> {
        assert!(
            arrival.index() + 1 >= self.base,
            "request in {arrival} arrived after its first window slot was transmitted \
             (next transmission is {})",
            Slot::new(self.base)
        );
        self.requests += 1;
        // Window of S_j starts at ring offset (arrival + 1 − base).
        let start_off = (arrival.index() + 1 - self.base) as usize;
        self.ensure_ring(start_off + self.max_period as usize);

        // This request's receive load per ring offset (client-limit mode).
        let mut client_load = vec![0u32; start_off + self.max_period as usize];

        let mut out = Vec::with_capacity(self.n);
        for j in 1..=self.n {
            let seg = SegmentId::new(j).expect("j >= 1");
            let t = self.periods[j - 1] as usize;
            let window = start_off..start_off + t;

            let client_ok = |off: usize, client_load: &[u32]| match self.client_limit {
                Some(limit) => client_load[off] < limit,
                None => true,
            };

            // Paper: "search slots i+1 to i+T[j] for an already scheduled
            // instance of S_j". With a client receive limit, only instances
            // in slots the client can still listen to are shareable; prefer
            // the latest such instance.
            let mut existing_any = false;
            let mut shareable: Option<usize> = None;
            for (rel, plan) in self.ring.range(window.clone()).enumerate() {
                if plan.scheduled.get(j - 1) {
                    existing_any = true;
                    let off = start_off + rel;
                    if client_ok(off, &client_load) {
                        shareable = Some(off);
                    }
                }
            }
            // The latest slot any dependent of this instance can accept:
            // this request's window ends at arrival + T[j].
            let deadline = arrival.index() + t as u64;

            if let Some(off) = shareable {
                self.shared_instances += 1;
                client_load[off] += 1;
                let plan = &mut self.ring[off];
                plan.deadline[j - 1] = plan.deadline[j - 1].min(deadline);
                let slot = self.base + off as u64;
                out.push(ScheduledSegment {
                    segment: seg,
                    slot: Slot::new(slot),
                    newly_scheduled: false,
                });
                continue;
            }

            // "let m_min := min {m_k}; let k_max := max {k | m_k = m_min};
            // schedule one instance of S_j in slot k_max" — generalised to
            // the pluggable heuristic, restricted to slots the client can
            // listen to, and steered away from slots at the load cap when
            // the window offers an alternative.
            let candidates: Vec<(usize, u32)> = self
                .ring
                .range(window.clone())
                .enumerate()
                .map(|(rel, plan)| (start_off + rel, plan.load))
                .filter(|&(off, _)| client_ok(off, &client_load))
                .collect();
            assert!(
                !candidates.is_empty(),
                "no client-feasible slot for {seg} in window of {t}: \
                 the client limit admits at most one segment per slot and \
                 periods must be non-decreasing for feasibility"
            );
            let pool: Vec<(usize, u32)> = match self.load_cap {
                Some(cap) => {
                    let under: Vec<(usize, u32)> = candidates
                        .iter()
                        .copied()
                        .filter(|&(_, load)| load < cap)
                        .collect();
                    if under.is_empty() {
                        self.cap_overflows += 1;
                        candidates
                    } else {
                        under
                    }
                }
                None => candidates,
            };
            let loads: Vec<u32> = pool.iter().map(|&(_, load)| load).collect();
            let entropy = self.next_entropy();
            let chosen = self.heuristic.pick(&loads, entropy);
            let ring_idx = pool[chosen].0;
            if existing_any {
                self.duplicate_instances += 1;
            }
            self.place_new(seg, ring_idx, deadline, &mut client_load, &mut out);
        }
        out
    }

    fn place_new(
        &mut self,
        seg: SegmentId,
        ring_idx: usize,
        deadline: u64,
        client_load: &mut [u32],
        out: &mut Vec<ScheduledSegment>,
    ) {
        let plan = &mut self.ring[ring_idx];
        plan.scheduled.insert(seg.array_index());
        plan.deadline[seg.array_index()] = deadline;
        plan.retries[seg.array_index()] = 0;
        plan.load += 1;
        self.new_instances += 1;
        client_load[ring_idx] += 1;
        out.push(ScheduledSegment {
            segment: seg,
            slot: Slot::new(self.base + ring_idx as u64),
            newly_scheduled: true,
        });
    }

    pub fn pop_slot(&mut self) -> (Slot, Vec<SegmentId>) {
        let slot = Slot::new(self.base);
        self.base += 1;
        match self.ring.pop_front() {
            Some(plan) => {
                let segments = plan.segments();
                self.last_popped = Some((slot.index(), plan));
                (slot, segments)
            }
            None => {
                self.last_popped = Some((slot.index(), SlotPlan::empty(self.n)));
                (slot, Vec::new())
            }
        }
    }

    pub fn recover_dropped(&mut self, dropped: &[SegmentId]) {
        if dropped.is_empty() {
            return;
        }
        let (slot, plan) = self
            .last_popped
            .take()
            .expect("recover_dropped called before any slot was popped");
        for &seg in dropped {
            let idx = seg.array_index();
            assert!(
                plan.scheduled.get(idx),
                "dropped {seg} was never scheduled in slot {slot}"
            );
            self.recovery.drops_seen += 1;
            let retries = plan.retries[idx];
            if retries >= self.max_recovery_retries {
                self.recovery.unrecoverable += 1;
                continue;
            }
            let deadline = plan.deadline[idx];
            if deadline >= self.base {
                // Slack remains: re-enter the need in [base, deadline].
                let width = (deadline - self.base + 1) as usize;
                let _placed = self.replant(seg, width, deadline, retries + 1);
                self.recovery.reschedules += 1;
            } else {
                // Slack exhausted: degrade gracefully by deferring the
                // dependents' playback into a fresh window instead of
                // silently starving them.
                let t = self.periods[idx] as usize;
                let placed = self.replant(seg, t, u64::MAX, retries + 1);
                // Telescoping stall accounting: the dependents were owed
                // the segment by `deadline` and now get it at `placed`.
                let stall = placed - deadline;
                self.recovery.stall_slots += stall;
                self.recovery.deferred_starts += 1;
                let off = (placed - self.base) as usize;
                let d = &mut self.ring[off].deadline[idx];
                *d = (*d).min(placed);
            }
        }
        self.last_popped = Some((slot, plan));
    }

    fn replant(&mut self, seg: SegmentId, width: usize, deadline: u64, retries: u32) -> u64 {
        let idx = seg.array_index();
        self.ensure_ring(width);
        let mut shareable = None;
        for (off, plan) in self.ring.range(0..width).enumerate() {
            if plan.scheduled.get(idx) {
                shareable = Some(off);
            }
        }
        let off = match shareable {
            Some(off) => off,
            None => {
                let loads: Vec<u32> = self.ring.range(0..width).map(|p| p.load).collect();
                let entropy = self.next_entropy();
                let chosen = self.heuristic.pick(&loads, entropy);
                let plan = &mut self.ring[chosen];
                plan.scheduled.insert(idx);
                plan.deadline[idx] = u64::MAX;
                plan.load += 1;
                self.new_instances += 1;
                chosen
            }
        };
        let abs = self.base + off as u64;
        let plan = &mut self.ring[off];
        plan.deadline[idx] = plan.deadline[idx].min(deadline);
        plan.retries[idx] = plan.retries[idx].max(retries);
        abs
    }

    pub fn planned_segments(&self, slot: Slot) -> Vec<SegmentId> {
        if slot.index() < self.base {
            return Vec::new();
        }
        let off = (slot.index() - self.base) as usize;
        match self.ring.get(off) {
            Some(plan) => plan.segments(),
            None => Vec::new(),
        }
    }
}
