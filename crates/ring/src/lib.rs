//! The broadcast data plane: segment payloads that actually move bytes.
//!
//! vod-svc's control plane answers a request with a grant naming a
//! `(slot, segment)` pair; this crate supplies the matching *data* path.
//! Each video is a broadcast channel backed by a [`SegmentRing`]: the
//! scheduler publishes one entry per scheduled segment instance — in the
//! service, just the segment number — and every subscriber reads it
//! through its own [`Cursor`]. Cursors detect lag explicitly: a
//! subscriber the ring has lapped gets a [`RingRead::Gap`] naming exactly
//! how many publications it missed, never silently corrupted or
//! reordered data.
//!
//! Payload bytes are *synthesized* deterministically from a seed and the
//! `(video, segment)` pair, with length proportional to the segment's
//! media duration. That makes every delivered byte verifiable without
//! shipping media files in the repository. [`PayloadStream`] is the
//! stream seekable by word: the server [`fill`](PayloadStream::fill)s
//! each wire chunk straight from it when it encodes the chunk, and a
//! receiver [`matches`](PayloadStream::matches) each chunk at its offset
//! as it arrives, so neither end holds a whole payload.
//! [`SegmentPayload`], [`SegmentStore`] and [`checksum64`] build, cache
//! and checksum whole payloads; they serve as test oracles and as the
//! benchmark's replay of the older store path.
//!
//! The crate is dependency-free and, like the rest of the workspace,
//! forbids unsafe code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ring;
mod store;

pub use ring::{Cursor, RingRead, RingStats, SegmentRing};
pub use store::{
    checksum64, payload_len_for, PayloadStream, SegmentPayload, SegmentStore, DEFAULT_STORE_SEED,
};
