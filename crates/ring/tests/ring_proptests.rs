//! Property tests for ring semantics: any interleaving of publish,
//! subscribe, and lagging reads yields the exact publication sequence or
//! an explicit gap report — never silent loss, reordering, or corruption.

use std::sync::Arc;

use proptest::prelude::*;
use vod_ring::{Cursor, PayloadStream, RingRead, SegmentPayload, SegmentRing};

/// One subscriber's model state: where its cursor should be and what it
/// has accounted for.
#[derive(Debug, Clone, Copy, Default)]
struct Model {
    next: u64,
    received: u64,
    missed: u64,
}

/// Drives an op schedule against one ring and checks every read against
/// the publication history.
fn drive(capacity: usize, ops: &[u8], readers: usize) {
    let ring = SegmentRing::new(capacity);
    let mut published: Vec<Arc<SegmentPayload>> = Vec::new();
    let mut models: Vec<Option<Model>> = vec![None; readers];
    for (step, &op) in ops.iter().enumerate() {
        match usize::from(op) % (readers * 2 + 1) {
            // Publish a fresh payload; its seq must be the publish count.
            0 => {
                let payload =
                    Arc::new(SegmentPayload::synthesize(7, 0, published.len() as u32, 24));
                let seq = ring.publish(Arc::clone(&payload), published.len() as u64 + 500);
                assert_eq!(seq, published.len() as u64, "seqs are dense from zero");
                published.push(payload);
            }
            // Subscribe (or re-subscribe) reader r at the head.
            r if r % 2 == 1 => {
                let r = r / 2;
                let cursor = ring.cursor();
                assert_eq!(cursor.next_seq(), published.len() as u64);
                models[r] = Some(Model {
                    next: cursor.next_seq(),
                    ..Model::default()
                });
            }
            // Reader r polls once, if subscribed.
            r => {
                let r = r / 2 - 1;
                let Some(model) = models[r].as_mut() else {
                    continue;
                };
                let mut cursor = Cursor::at(model.next);
                match ring.read(&mut cursor) {
                    RingRead::Payload { seq, slot, payload } => {
                        assert_eq!(seq, model.next, "reads are in publication order");
                        assert_eq!(slot, seq + 500, "air-slot metadata rides each publication");
                        assert_eq!(
                            *payload, *published[seq as usize],
                            "step {step}: payload bytes must be exactly what was published"
                        );
                        model.received += 1;
                    }
                    RingRead::Gap { missed, resume } => {
                        let oldest = (published.len() as u64).saturating_sub(capacity as u64);
                        assert_eq!(resume, oldest, "gaps resume at the oldest live seq");
                        assert_eq!(missed, resume - model.next, "gap accounts every miss");
                        assert!(missed > 0, "gaps are never empty");
                        model.missed += missed;
                    }
                    RingRead::Empty => {
                        assert_eq!(model.next, published.len() as u64, "empty only at the head");
                    }
                }
                model.next = cursor.next_seq();
            }
        }
    }
    // Conservation: everything a subscriber was due is either received or
    // explicitly reported missing — nothing vanishes.
    for model in models.into_iter().flatten() {
        let due = model.next;
        let seen_from = due - model.received - model.missed;
        assert!(
            seen_from <= published.len() as u64,
            "cursor accounting can never exceed history"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_interleaving_is_exact_or_explicitly_gapped(
        capacity in 1usize..9,
        ops in prop::collection::vec(any::<u8>(), 0..200),
        readers in 1usize..4,
    ) {
        drive(capacity, &ops, readers);
    }

    #[test]
    fn a_reader_that_keeps_up_sees_every_payload(
        capacity in 2usize..16,
        publishes in 1usize..64,
    ) {
        let ring = SegmentRing::new(capacity);
        let mut cursor = ring.cursor();
        for s in 0..publishes {
            let payload = Arc::new(SegmentPayload::synthesize(3, 1, s as u32, 8));
            ring.publish(Arc::clone(&payload), s as u64);
            match ring.read(&mut cursor) {
                RingRead::Payload { seq, payload: got, .. } => {
                    prop_assert_eq!(seq, s as u64);
                    prop_assert!(Arc::ptr_eq(&got, &payload), "zero-copy share");
                }
                other => {
                    return Err(TestCaseError::fail(format!(
                        "keeping up must never gap: {other:?}"
                    )))
                }
            }
        }
    }

    #[test]
    fn payload_stream_is_byte_identical_to_synthesis_at_any_offset(
        seed in any::<u64>(),
        video in any::<u32>(),
        segment in any::<u32>(),
        len in 0usize..2_100,
        start_pick in any::<u64>(),
        end_pick in any::<u64>(),
    ) {
        let payload = SegmentPayload::synthesize(seed, video, segment, len);
        let stream = PayloadStream::new(seed, video, segment);
        // Word by word, the seekable stream rebuilds the whole payload.
        let rebuilt: Vec<u8> = (0..len.div_ceil(8) as u64)
            .flat_map(|k| stream.word(k).to_le_bytes())
            .take(len)
            .collect();
        prop_assert_eq!(&rebuilt[..], payload.bytes());
        // Any chunk, at any (usually unaligned) offset, checks in place.
        let start = (start_pick % (len as u64 + 1)) as usize;
        let end = start + (end_pick % ((len - start) as u64 + 1)) as usize;
        let chunk = &payload.bytes()[start..end];
        prop_assert!(stream.matches(start as u64, chunk));
        if !chunk.is_empty() {
            let mut flipped = chunk.to_vec();
            let at = (start_pick ^ end_pick) as usize % flipped.len();
            flipped[at] ^= 1 << (end_pick % 8);
            prop_assert!(!stream.matches(start as u64, &flipped), "flip at {}", start + at);
        }
    }
}
