//! The service-side broadcast data plane: per-channel segment rings and
//! zero-copy subscriber fan-out of chunks generated on demand.
//!
//! Every valid catalog video is one broadcast **channel**: a
//! [`SegmentRing`] whose entries name a segment (plus the slot and channel
//! seq every ring entry carries) and a subscriber list. When a shard
//! schedules a segment instance it calls [`DataPlane::publish`], which
//! writes the segment number into the ring **once**. Payload bytes exist
//! only on the way to a subscriber: if the channel has any, the head
//! publication's wire chunks are encoded **once**, each into one
//! exact-size buffer — the `SegmentData` header, then bytes written in
//! place from the deterministic [`PayloadStream`] — and every subscriber
//! is pumped. Each queue receives `Arc` clones of the same encoded chunks,
//! so fan-out degree N costs N queue pushes, not N payload copies — the
//! `svc.ring.published ≪ svc.ring.fanout` invariant the loopback test
//! asserts. The server keeps no payload cache and runs no checksum:
//! payload memory is bounded by what sits in outbound queues, and a
//! channel nobody subscribes to costs a ring entry per publication.
//!
//! Backpressure vs. eviction: the pump never blocks. A subscriber whose
//! outbound queue lacks room for the whole publication is left *lagged in
//! the ring* — its cursor stays put and later pumps retry. If the
//! publisher laps it first, the ring reports an explicit
//! [`RingRead::Gap`]: the subscriber was evicted-with-overrun and resumes
//! at live data, while fast subscribers on the same channel are untouched.
//! Closed connections surface as [`DataSend::Closed`] and are purged
//! lazily on the next pump.
//!
//! Chunking: payloads larger than [`SEGMENT_CHUNK_BYTES`] are split into
//! maximal chunks (all-but-last exactly at the cap, offsets tiling
//! `0..total_len`), so a single `SegmentData` frame never exceeds the
//! 1 MiB wire cap. A lagging subscriber catching up on an older ring entry
//! has that publication's chunks generated and encoded for itself by the
//! same path — the rare path pays the work, the hot head-of-ring path
//! stays shared.

use std::iter;
use std::sync::{Arc, Mutex};

use vod_ring::{PayloadStream, RingRead, SegmentRing};

use crate::eventloop::{ConnSender, DataSend};
use crate::session::lock_unpoisoned;
use crate::wire::{segment_data_header, Frame, SEGMENT_CHUNK_BYTES};
use vod_obs::RejectKind;

/// What one [`DataPlane::publish`] observed, aggregated by the shard into
/// the service counters (`svc.ring.*`, `svc.bytes_delivered`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PublishOutcome {
    /// Ring publications (one per scheduled segment instance).
    pub published: u64,
    /// Subscriber deliveries (publication × subscriber pairs queued).
    pub fanout: u64,
    /// Payload bytes queued for delivery across all subscribers.
    pub bytes: u64,
    /// Publications lost to lapped (evicted-with-overrun) subscribers.
    pub evictions: u64,
    /// Gap events reported to lapped subscribers.
    pub gaps: u64,
}

impl PublishOutcome {
    pub(crate) fn absorb(&mut self, other: PublishOutcome) {
        self.published += other.published;
        self.fanout += other.fanout;
        self.bytes += other.bytes;
        self.evictions += other.evictions;
        self.gaps += other.gaps;
    }

    pub(crate) fn is_empty(&self) -> bool {
        *self == PublishOutcome::default()
    }
}

/// Static geometry of one channel, fixed at service start.
pub(crate) struct ChannelInit {
    /// Deterministic payload length for every segment of this video.
    pub payload_len: u64,
    /// Dilated wall-clock duration of one slot, in nanoseconds — what the
    /// client multiplies `(granted slot − arrival slot)` by to get the
    /// segment's playback deadline.
    pub slot_ns: u64,
    /// Invalid catalog entries get `Rejected(invalid_video)` on subscribe.
    pub valid: bool,
}

struct SubEntry {
    sender: ConnSender,
    cursor: vod_ring::Cursor,
    /// The subscribing connection's session id, when it has one: a session
    /// that resumes onto a new connection and re-subscribes adopts (and
    /// retires) its old entry instead of leaving it to rot until the pump
    /// notices the dead connection.
    session: Option<u64>,
}

struct Channel {
    /// Publications, each naming the segment it carries.
    ring: SegmentRing<u32>,
    subs: Mutex<Vec<SubEntry>>,
    payload_len: u64,
    slot_ns: u64,
    valid: bool,
}

/// The per-service broadcast data plane: one channel per catalog video.
pub(crate) struct DataPlane {
    channels: Vec<Channel>,
    /// Seed of every channel's [`PayloadStream`]s.
    seed: u64,
}

impl DataPlane {
    pub(crate) fn new(seed: u64, ring_cap: usize, inits: Vec<ChannelInit>) -> DataPlane {
        DataPlane {
            channels: inits
                .into_iter()
                .map(|init| Channel {
                    ring: SegmentRing::new(ring_cap),
                    subs: Mutex::new(Vec::new()),
                    payload_len: init.payload_len,
                    slot_ns: init.slot_ns,
                    valid: init.valid,
                })
                .collect(),
            seed,
        }
    }

    /// Registers `sender` as a subscriber of `video`'s channel, starting at
    /// the ring head (future publications only). Re-subscribing the same
    /// connection — or the same *session*, after a resume moved it onto a
    /// new connection — replaces the old entry instead of double-delivering.
    ///
    /// Returns the `SubscribeOk` to send plus the **resume gap**: how many
    /// sequence numbers the replaced subscription never consumed before
    /// this one re-attached at the live head. The gap is reported (the
    /// caller counts it into `svc.ring.resume_gaps`, and the client sees it
    /// as the jump in `SubscribeOk.next_seq`), never silently skipped.
    pub(crate) fn subscribe(
        &self,
        video: u32,
        sender: ConnSender,
        session: Option<u64>,
    ) -> Result<(Frame, u64), RejectKind> {
        let ch = self
            .channels
            .get(video as usize)
            .ok_or(RejectKind::UnknownVideo)?;
        if !ch.valid {
            return Err(RejectKind::InvalidVideo);
        }
        let mut subs = lock_unpoisoned(&ch.subs);
        let cursor = ch.ring.cursor();
        let entry = SubEntry {
            sender,
            cursor,
            session,
        };
        let existing = subs.iter_mut().find(|s| {
            s.sender.same_conn(&entry.sender) || (session.is_some() && s.session == session)
        });
        let resume_gap = match existing {
            Some(old) => {
                let gap = cursor.next_seq().saturating_sub(old.cursor.next_seq());
                *old = entry;
                gap
            }
            None => {
                subs.push(entry);
                0
            }
        };
        drop(subs);
        Ok((
            Frame::SubscribeOk {
                video,
                payload_len: ch.payload_len,
                slot_ns: ch.slot_ns,
                next_seq: cursor.next_seq(),
            },
            resume_gap,
        ))
    }

    /// Subscribers currently registered on `video`'s channel (tests).
    #[cfg(test)]
    pub(crate) fn subscriber_count(&self, video: u32) -> usize {
        self.channels
            .get(video as usize)
            .map_or(0, |ch| lock_unpoisoned(&ch.subs).len())
    }

    /// Publishes `(video, segment)` — granted to air at absolute slot
    /// `slot` — into the channel ring exactly once, then, if the channel
    /// has subscribers, encodes its chunks and pumps every subscriber as
    /// far as its queue allows.
    pub(crate) fn publish(&self, video: u32, segment: u32, slot: u64) -> PublishOutcome {
        let mut out = PublishOutcome::default();
        let Some(ch) = self.channels.get(video as usize) else {
            return out;
        };
        let seq = ch.ring.publish(segment, slot);
        out.published = 1;
        let mut subs = lock_unpoisoned(&ch.subs);
        if subs.is_empty() {
            return out;
        }
        // Encode the head publication's wire chunks once; every caught-up
        // subscriber's queue shares them by Arc clone.
        let head_chunks = self.encode(ch, video, segment, slot, seq);
        self.pump(ch, video, seq, &head_chunks, &mut subs, &mut out);
        out
    }

    /// Advances every subscriber of `ch` as far as its outbound queue
    /// allows, translating ring reads into queue pushes and accounting the
    /// outcome. Dead connections are dropped; full queues keep their
    /// cursor (lag); lapped cursors take their explicit gap and resume live.
    fn pump(
        &self,
        ch: &Channel,
        video: u32,
        head_seq: u64,
        head_chunks: &[Arc<[u8]>],
        subs: &mut Vec<SubEntry>,
        out: &mut PublishOutcome,
    ) {
        subs.retain_mut(|sub| loop {
            // Probe-then-commit: read on a cursor copy so a delivery that
            // does not fit leaves the subscriber exactly where it was.
            let mut probe = sub.cursor;
            match ch.ring.read(&mut probe) {
                RingRead::Empty => return true,
                RingRead::Gap { missed, .. } => {
                    sub.cursor = probe;
                    out.gaps += 1;
                    out.evictions += missed;
                }
                RingRead::Payload {
                    seq,
                    slot,
                    payload: segment,
                } => {
                    let encoded;
                    let chunks = if seq == head_seq {
                        head_chunks
                    } else {
                        // Catching up on an older publication: encode it
                        // for this subscriber alone.
                        encoded = self.encode(ch, video, segment, slot, seq);
                        &encoded
                    };
                    match sub.sender.try_send_data(chunks) {
                        DataSend::Sent => {
                            sub.cursor = probe;
                            out.fanout += 1;
                            out.bytes += ch.payload_len;
                        }
                        DataSend::Full => return true,
                        DataSend::Closed => return false,
                    }
                }
            }
        });
    }

    /// Encodes publication `seq` of `(video, segment)` as its complete,
    /// length-prefixed `SegmentData` wire images: all-but-last chunks carry
    /// exactly [`SEGMENT_CHUNK_BYTES`], offsets tile `0..payload_len`
    /// gap-free. Each chunk is one buffer of its exact wire size, header
    /// first, payload bytes filled in place from the segment's
    /// [`PayloadStream`] — byte-identical to encoding a
    /// `Frame::SegmentData` around the same slice of the synthesized
    /// payload.
    fn encode(
        &self,
        ch: &Channel,
        video: u32,
        segment: u32,
        slot: u64,
        seq: u64,
    ) -> Vec<Arc<[u8]>> {
        let stream = PayloadStream::new(self.seed, video, segment);
        let total = ch.payload_len as usize;
        let mut chunks = Vec::with_capacity(total / SEGMENT_CHUNK_BYTES + 1);
        let mut offset = 0usize;
        loop {
            let end = (offset + SEGMENT_CHUNK_BYTES).min(total);
            let header = segment_data_header(
                video,
                segment,
                slot,
                seq,
                offset as u64,
                ch.payload_len,
                end - offset,
            );
            // A trusted-length iterator collects into one allocation of the
            // exact size, which this thread then owns uniquely.
            let mut chunk: Arc<[u8]> = iter::repeat_n(0, header.len() + end - offset).collect();
            let buf = Arc::get_mut(&mut chunk).expect("a fresh Arc is unshared");
            let (head, body) = buf.split_at_mut(header.len());
            head.copy_from_slice(&header);
            stream.fill(offset as u64, body);
            chunks.push(chunk);
            offset = end;
            if offset >= total {
                return chunks;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Outbound;
    use crate::wire::FrameDecoder;
    use std::collections::VecDeque;
    use vod_ring::SegmentPayload;

    fn plane(videos: usize, payload_len: u64, ring_cap: usize) -> DataPlane {
        DataPlane::new(
            vod_ring::DEFAULT_STORE_SEED,
            ring_cap,
            (0..videos)
                .map(|_| ChannelInit {
                    payload_len,
                    slot_ns: 1_000_000,
                    valid: true,
                })
                .collect(),
        )
    }

    fn drain_frames(q: &Mutex<VecDeque<Outbound>>) -> Vec<Frame> {
        lock_unpoisoned(q).drain(..).map(|o| o.frame).collect()
    }

    #[test]
    fn subscribe_reports_channel_geometry_and_dedupes_reconnects() {
        let plane = plane(2, 64, 8);
        let (sender, _q) = ConnSender::sink();
        let (ok, gap) = plane.subscribe(1, sender.clone(), None).unwrap();
        assert_eq!(gap, 0);
        assert!(matches!(
            ok,
            Frame::SubscribeOk {
                video: 1,
                payload_len: 64,
                slot_ns: 1_000_000,
                next_seq: 0,
            }
        ));
        // Re-subscribing the same connection replaces, never doubles.
        let _ = plane.subscribe(1, sender, None).unwrap();
        assert_eq!(plane.subscriber_count(1), 1);
        assert!(matches!(
            plane.subscribe(7, ConnSender::sink().0, None),
            Err(RejectKind::UnknownVideo)
        ));
    }

    #[test]
    fn resumed_session_adopts_its_old_subscription_and_reports_the_gap() {
        let plane = plane(1, 16, 8);
        // A sessioned client subscribes on its first connection, which then
        // wedges: its data queue never has room again, so its ring cursor
        // can only fall behind the head.
        let (first, _q1) = ConnSender::stalled();
        let (ok, gap) = plane.subscribe(0, first, Some(42)).unwrap();
        assert_eq!(gap, 0);
        let Frame::SubscribeOk { next_seq, .. } = ok else {
            panic!("expected SubscribeOk");
        };
        assert_eq!(next_seq, 0);
        // The channel moves on while the connection is wedged.
        for seg in 1..=3u32 {
            let _ = plane.publish(0, seg, u64::from(seg));
        }
        // Session 42 resumes on a new connection and re-subscribes: the
        // same session id adopts the stale entry (no double-delivery), the
        // re-attach lands at the live head, and the three sequences the old
        // cursor never consumed are *reported*, not silently skipped.
        let (second, _q2) = ConnSender::sink();
        let (ok, gap) = plane.subscribe(0, second, Some(42)).unwrap();
        let Frame::SubscribeOk { next_seq, .. } = ok else {
            panic!("expected SubscribeOk");
        };
        assert_eq!(next_seq, 3, "re-attach lands at the live head");
        assert_eq!(gap, 3, "the unconsumed sequences are reported");
        assert_eq!(
            plane.subscriber_count(0),
            1,
            "old entry adopted, not doubled"
        );
        // A different session on the same channel is a fresh subscriber.
        let (third, _q3) = ConnSender::sink();
        let (_, gap) = plane.subscribe(0, third, Some(7)).unwrap();
        assert_eq!(gap, 0);
        assert_eq!(plane.subscriber_count(0), 2);
    }

    #[test]
    fn invalid_channels_reject_subscribers() {
        let plane = DataPlane::new(
            1,
            4,
            vec![ChannelInit {
                payload_len: 1,
                slot_ns: 1,
                valid: false,
            }],
        );
        assert!(matches!(
            plane.subscribe(0, ConnSender::sink().0, None),
            Err(RejectKind::InvalidVideo)
        ));
    }

    /// The chunks `plane` encodes for publication `seq` of `(video, segment)`.
    fn chunks_of(
        plane: &DataPlane,
        video: u32,
        segment: u32,
        slot: u64,
        seq: u64,
    ) -> Vec<Arc<[u8]>> {
        plane.encode(&plane.channels[video as usize], video, segment, slot, seq)
    }

    #[test]
    fn publish_fans_out_decodable_chunks_that_match_the_oracle() {
        let plane = plane(1, 100, 8);
        let (sender, _q) = ConnSender::sink();
        let _ = plane.subscribe(0, sender, None).unwrap();
        let out = plane.publish(0, 3, 17);
        assert_eq!(out.published, 1);
        assert_eq!(out.fanout, 1);
        assert_eq!(out.bytes, 100);
        assert_eq!(out.evictions, 0);
        // Chunk images decode back to the synthesized payload's exact bytes.
        let mut decoder = FrameDecoder::new();
        let mut reassembled = Vec::new();
        for chunk in &chunks_of(&plane, 0, 3, 17, 0) {
            decoder.extend(chunk);
            while let Ok(Some(frame)) = decoder.next_frame() {
                let Frame::SegmentData {
                    video,
                    segment,
                    slot,
                    channel_seq,
                    offset,
                    total_len,
                    bytes,
                } = frame
                else {
                    panic!("expected SegmentData");
                };
                assert_eq!((video, segment, slot, channel_seq), (0, 3, 17, 0));
                assert_eq!(offset as usize, reassembled.len());
                assert_eq!(total_len, 100);
                reassembled.extend_from_slice(&bytes);
            }
        }
        let oracle = SegmentPayload::synthesize(vod_ring::DEFAULT_STORE_SEED, 0, 3, 100);
        assert_eq!(reassembled, oracle.bytes());
    }

    #[test]
    fn chunks_are_byte_identical_to_encoded_frames_of_the_synthesized_payload() {
        // One, two and three chunks; the 1,080,000-byte payload's second
        // chunk starts three bytes into a stream word.
        let lens = [
            (1, 1),
            (100, 1),
            (SEGMENT_CHUNK_BYTES, 1),
            (SEGMENT_CHUNK_BYTES + 1, 2),
            (1_080_000, 2),
            (SEGMENT_CHUNK_BYTES * 2 + 7, 3),
        ];
        for (len, expected_chunks) in lens {
            let (video, segment, slot, seq) = (5, 2, 4_321, 9);
            let plane = plane(6, len as u64, 4);
            let chunks = chunks_of(&plane, video, segment, slot, seq);
            assert_eq!(chunks.len(), expected_chunks, "{len} bytes");
            let oracle =
                SegmentPayload::synthesize(vod_ring::DEFAULT_STORE_SEED, video, segment, len);
            let slices = oracle.bytes().chunks(SEGMENT_CHUNK_BYTES);
            for (i, (chunk, slice)) in chunks.iter().zip(slices).enumerate() {
                let frame = Frame::SegmentData {
                    video,
                    segment,
                    slot,
                    channel_seq: seq,
                    offset: (i * SEGMENT_CHUNK_BYTES) as u64,
                    total_len: len as u64,
                    bytes: slice.to_vec(),
                };
                assert!(
                    **chunk == *frame.encode(),
                    "{len} bytes: chunk {i} differs from the encoded frame"
                );
            }
        }
    }

    #[test]
    fn chunking_tiles_large_payloads_at_the_cap() {
        let len = SEGMENT_CHUNK_BYTES * 2 + 7;
        let plane = plane(1, len as u64, 4);
        let chunks = chunks_of(&plane, 0, 1, 0, 0);
        assert_eq!(chunks.len(), 3);
        let mut decoder = FrameDecoder::new();
        let mut next_offset = 0u64;
        for chunk in &chunks {
            decoder.extend(chunk);
            let Ok(Some(Frame::SegmentData { offset, bytes, .. })) = decoder.next_frame() else {
                panic!("chunk must decode standalone");
            };
            assert_eq!(offset, next_offset, "offsets tile gap-free");
            next_offset += bytes.len() as u64;
        }
        assert_eq!(next_offset as usize, len);
    }

    #[test]
    fn publish_without_subscribers_only_touches_the_ring() {
        let plane = plane(1, 32, 4);
        let out = plane.publish(0, 1, 5);
        assert_eq!(out.published, 1);
        assert_eq!(out.fanout, 0);
        assert_eq!(out.bytes, 0);
    }

    #[test]
    fn sink_subscribers_see_every_publication_in_order() {
        let plane = plane(1, 16, 4);
        let (sender, q) = ConnSender::sink();
        let _ = plane.subscribe(0, sender, None).unwrap();
        for seg in 1..=3u32 {
            let _ = plane.publish(0, seg, u64::from(seg) * 10);
        }
        // Sinks accept instantly, so every publication should have fanned
        // out (frames land on the sink via try_send_data's Sent path —
        // the sink models delivery outside the queue, so here we assert
        // the accounting instead of the frames).
        assert!(drain_frames(&q).is_empty());
        let out = plane.publish(0, 4, 40);
        assert_eq!(out.fanout, 1);
    }
}
