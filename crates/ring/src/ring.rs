//! The per-channel broadcast ring: seq-numbered publications, cursor
//! readers, explicit overrun.
//!
//! A [`SegmentRing`] holds the last `capacity` publications of one video
//! channel. The publisher appends under a short mutex and bumps an atomic
//! head sequence. The ring is generic over its entry: the service's rings
//! hold only a segment number (its bytes are generated when they are
//! encoded for a subscriber), while an `Arc<SegmentPayload>` entry shares
//! one payload among every reader. Readers hold a [`Cursor`] — just the
//! next sequence number they want — and poll with [`SegmentRing::read`]:
//!
//! - a live publication comes back as [`RingRead::Payload`] and the
//!   cursor advances one;
//! - a cursor the ring has lapped gets [`RingRead::Gap`] naming exactly
//!   how many publications were missed, and resumes at the oldest live
//!   sequence — loss is *reported*, never silently skipped;
//! - a cursor at the head sees [`RingRead::Empty`].
//!
//! Backpressure policy: the ring never blocks the publisher. A slow
//! subscriber falls behind in the ring until the publisher laps it, at
//! which point it is evicted-with-overrun (the `Gap`) and keeps going
//! from live data. Fast subscribers are unaffected — that is the whole
//! point of a broadcast ring over per-subscriber queues.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A subscriber's read position: the next publication sequence it wants.
///
/// Deliberately `Copy` and dumb — readers that need transactional reads
/// (probe, then commit only if delivery succeeded) copy the cursor, read
/// on the copy, and assign it back on success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    next: u64,
}

impl Cursor {
    /// A cursor starting at publication `seq`.
    #[must_use]
    pub fn at(seq: u64) -> Self {
        Cursor { next: seq }
    }

    /// The next sequence this cursor will read.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next
    }
}

/// One poll of the ring through a cursor.
#[derive(Debug, Clone)]
pub enum RingRead<T> {
    /// The publication at the cursor, which advanced past it.
    Payload {
        /// The publication's channel sequence number.
        seq: u64,
        /// The absolute slot the granted instance airs in — publication
        /// metadata, carried alongside the entry.
        slot: u64,
        /// A clone of the published entry.
        payload: T,
    },
    /// The ring lapped this cursor: `missed` publications are gone and the
    /// cursor now points at `resume`, the oldest live sequence.
    Gap {
        /// Publications lost between the old cursor and `resume`.
        missed: u64,
        /// The sequence the cursor was advanced to.
        resume: u64,
    },
    /// The cursor is caught up with the publisher.
    Empty,
}

/// A point-in-time summary of one ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingStats {
    /// Slots the ring retains.
    pub capacity: usize,
    /// Total publications so far; also the next sequence to be assigned.
    pub next_seq: u64,
    /// Publications overwritten before every subscriber could have read
    /// them is at most this: slots reused since the ring filled.
    pub evicted: u64,
}

#[derive(Debug)]
struct Slot<T> {
    seq: u64,
    air_slot: u64,
    payload: T,
}

#[derive(Debug)]
struct Inner<T> {
    slots: Vec<Option<Slot<T>>>,
    evicted: u64,
}

/// A bounded broadcast ring of publications, each an entry `T` (cloned
/// out to every reader) plus the slot it airs in.
#[derive(Debug)]
pub struct SegmentRing<T> {
    inner: Mutex<Inner<T>>,
    /// Mirrors the publish count so `cursor()`/`stats()` need no lock.
    head: AtomicU64,
    capacity: usize,
}

impl<T: Clone> SegmentRing<T> {
    /// A ring retaining the most recent `capacity` publications
    /// (clamped to at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        SegmentRing {
            inner: Mutex::new(Inner { slots, evicted: 0 }),
            head: AtomicU64::new(0),
            capacity,
        }
    }

    /// Slots the ring retains.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Publishes `payload` as the instance airing in `air_slot`, returning
    /// its channel sequence number. Never blocks on subscribers; a full
    /// ring overwrites its oldest slot.
    pub fn publish(&self, payload: T, air_slot: u64) -> u64 {
        let mut inner = lock_unpoisoned(&self.inner);
        let seq = self.head.load(Ordering::Relaxed);
        let idx = (seq % self.capacity as u64) as usize;
        if inner.slots[idx].is_some() {
            inner.evicted += 1;
        }
        inner.slots[idx] = Some(Slot {
            seq,
            air_slot,
            payload,
        });
        // Publish the new head only after the slot is written, under the
        // same lock readers take — a cursor can never see seq without its
        // payload.
        self.head.store(seq + 1, Ordering::Release);
        seq
    }

    /// A cursor at the head: it will see only future publications. New
    /// subscribers start here so they are never handed segments whose
    /// playback deadline already passed.
    #[must_use]
    pub fn cursor(&self) -> Cursor {
        Cursor::at(self.head.load(Ordering::Acquire))
    }

    /// Polls the publication at `cursor`, advancing it as described on
    /// [`RingRead`].
    pub fn read(&self, cursor: &mut Cursor) -> RingRead<T> {
        let inner = lock_unpoisoned(&self.inner);
        let head = self.head.load(Ordering::Relaxed);
        if cursor.next >= head {
            return RingRead::Empty;
        }
        let oldest = head.saturating_sub(self.capacity as u64);
        if cursor.next < oldest {
            let missed = oldest - cursor.next;
            cursor.next = oldest;
            return RingRead::Gap {
                missed,
                resume: oldest,
            };
        }
        let idx = (cursor.next % self.capacity as u64) as usize;
        match &inner.slots[idx] {
            Some(slot) if slot.seq == cursor.next => {
                let read = RingRead::Payload {
                    seq: slot.seq,
                    slot: slot.air_slot,
                    payload: slot.payload.clone(),
                };
                cursor.next += 1;
                read
            }
            // Unreachable by construction (every seq in [oldest, head) is
            // resident), but a typed gap beats trusting that forever.
            _ => {
                let resume = head;
                let missed = resume - cursor.next;
                cursor.next = resume;
                RingRead::Gap { missed, resume }
            }
        }
    }

    /// A point-in-time stats summary.
    #[must_use]
    pub fn stats(&self) -> RingStats {
        let inner = lock_unpoisoned(&self.inner);
        RingStats {
            capacity: self.capacity,
            next_seq: self.head.load(Ordering::Relaxed),
            evicted: inner.evicted,
        }
    }
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SegmentPayload;
    use std::sync::Arc;

    #[test]
    fn reads_see_publications_in_order() {
        let ring = SegmentRing::new(4);
        let mut cursor = ring.cursor();
        assert!(matches!(ring.read(&mut cursor), RingRead::Empty));
        for s in 0..3u32 {
            assert_eq!(ring.publish(s, u64::from(s) + 100), u64::from(s));
        }
        for s in 0..3u64 {
            match ring.read(&mut cursor) {
                RingRead::Payload { seq, slot, payload } => {
                    assert_eq!(seq, s);
                    assert_eq!(slot, s + 100, "air slot rides the publication");
                    assert_eq!(u64::from(payload), s, "the entry names its segment");
                }
                other => panic!("expected payload {s}, got {other:?}"),
            }
        }
        assert!(matches!(ring.read(&mut cursor), RingRead::Empty));
    }

    #[test]
    fn lapped_cursor_gets_an_explicit_gap_then_live_data() {
        let ring = SegmentRing::new(2);
        let mut cursor = ring.cursor();
        for s in 0..5u32 {
            ring.publish(s, u64::from(s));
        }
        match ring.read(&mut cursor) {
            RingRead::Gap { missed, resume } => {
                assert_eq!(missed, 3, "seqs 0..3 were overwritten");
                assert_eq!(resume, 3);
            }
            other => panic!("expected gap, got {other:?}"),
        }
        match ring.read(&mut cursor) {
            RingRead::Payload { seq, .. } => assert_eq!(seq, 3),
            other => panic!("expected payload 3, got {other:?}"),
        }
        match ring.read(&mut cursor) {
            RingRead::Payload { seq, .. } => assert_eq!(seq, 4),
            other => panic!("expected payload 4, got {other:?}"),
        }
        assert!(matches!(ring.read(&mut cursor), RingRead::Empty));
    }

    #[test]
    fn new_cursors_start_at_the_head() {
        let ring = SegmentRing::new(8);
        ring.publish(0, 0);
        ring.publish(1, 1);
        let mut late = ring.cursor();
        assert!(
            matches!(ring.read(&mut late), RingRead::Empty),
            "late joiners never receive stale segments"
        );
        ring.publish(2, 2);
        assert!(matches!(
            ring.read(&mut late),
            RingRead::Payload { seq: 2, .. }
        ));
    }

    #[test]
    fn stats_track_publications_and_evictions() {
        let ring = SegmentRing::new(3);
        assert_eq!(
            ring.stats(),
            RingStats {
                capacity: 3,
                next_seq: 0,
                evicted: 0
            }
        );
        for s in 0..5u32 {
            ring.publish(s, u64::from(s));
        }
        assert_eq!(
            ring.stats(),
            RingStats {
                capacity: 3,
                next_seq: 5,
                evicted: 2
            }
        );
    }

    #[test]
    fn fanout_is_arc_sharing_not_copies() {
        let ring = SegmentRing::new(4);
        let p = Arc::new(SegmentPayload::synthesize(1, 0, 9, 16));
        ring.publish(Arc::clone(&p), 42);
        let mut a = Cursor::at(0);
        let mut b = Cursor::at(0);
        let (RingRead::Payload { payload: pa, .. }, RingRead::Payload { payload: pb, .. }) =
            (ring.read(&mut a), ring.read(&mut b))
        else {
            panic!("both cursors see the publication");
        };
        assert!(Arc::ptr_eq(&pa, &p));
        assert!(Arc::ptr_eq(&pb, &p));
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let ring = SegmentRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.publish(0, 0);
        ring.publish(1, 1);
        let mut c = Cursor::at(0);
        assert!(matches!(
            ring.read(&mut c),
            RingRead::Gap {
                missed: 1,
                resume: 1
            }
        ));
    }
}
