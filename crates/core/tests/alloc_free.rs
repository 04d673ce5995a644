//! The scheduling hot path allocates nothing once warm.
//!
//! A counting global allocator tallies allocations per thread, and only
//! while the calling thread has counting switched on, so the test threads
//! `cargo test` runs in parallel cannot disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dhb_core::{Dhb, DhbScheduler};
use vod_sim::SlottedProtocol;
use vod_types::Slot;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps a thread-local counter, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

const SEGMENTS: usize = 99;
const REQUESTS_PER_SLOT: u64 = 20;
const WARMUP_SLOTS: u64 = 400;
const MEASURED_SLOTS: u64 = 400;

/// One slot's 20 arrivals, cycling over `base ..= base + 2` (out of order,
/// as the live clamp allows).
fn arrivals(base: u64) -> impl Iterator<Item = Slot> {
    (0..REQUESTS_PER_SLOT).map(move |k| Slot::new(base + k % 3))
}

/// Allocations made by `schedule_request_into` over the measured slots,
/// after a warm-up at the same rate. Popping happens outside the count.
fn steady_state_allocations(mut s: DhbScheduler) -> u64 {
    let mut grants = Vec::new();
    let mut total = 0;
    for slot in 0..WARMUP_SLOTS + MEASURED_SLOTS {
        let base = s.next_slot().index();
        let schedule = |s: &mut DhbScheduler, grants: &mut Vec<_>| {
            for arrival in arrivals(base) {
                s.schedule_request_into(arrival, grants);
            }
        };
        if slot < WARMUP_SLOTS {
            schedule(&mut s, &mut grants);
        } else {
            total += allocations_in(|| schedule(&mut s, &mut grants));
        }
        let _ = s.pop_slot();
    }
    assert!(
        s.shared_instances() > s.new_instances(),
        "traffic must share"
    );
    total
}

#[test]
fn counting_allocator_sees_allocations() {
    let n = allocations_in(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert_eq!(n, 1);
}

#[test]
fn steady_state_scheduling_does_not_allocate() {
    let allocs = steady_state_allocations(DhbScheduler::fixed_rate(SEGMENTS));
    assert_eq!(allocs, 0, "min-load/latest, no limits");
}

#[test]
fn steady_state_scheduling_under_limits_does_not_allocate() {
    let s = DhbScheduler::fixed_rate(SEGMENTS)
        .with_client_limit(2)
        .with_load_cap(3);
    let allocs = steady_state_allocations(s);
    assert_eq!(allocs, 0, "client limit 2, load cap 3");
}

#[test]
fn dhb_on_request_does_not_allocate() {
    let mut dhb = Dhb::fixed_rate(SEGMENTS);
    let mut total = 0;
    for slot in 0..WARMUP_SLOTS + MEASURED_SLOTS {
        let requests = |dhb: &mut Dhb| {
            for _ in 0..REQUESTS_PER_SLOT {
                dhb.on_request(Slot::new(slot));
            }
        };
        if slot < WARMUP_SLOTS {
            requests(&mut dhb);
        } else {
            total += allocations_in(|| requests(&mut dhb));
        }
        let _ = dhb.transmissions_in(Slot::new(slot));
    }
    assert_eq!(total, 0);
    assert_eq!(
        dhb.stats().requests,
        (WARMUP_SLOTS + MEASURED_SLOTS) * REQUESTS_PER_SLOT
    );
}
