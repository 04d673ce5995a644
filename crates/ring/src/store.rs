//! Deterministic segment payloads: a seekable byte stream, plus the
//! whole-payload oracle built from it.
//!
//! There are no media files in this repository, so the data plane
//! manufactures its own. A payload's bytes are a pure function of
//! `(seed, video, segment, len)` — a splitmix64 stream keyed by the
//! triple — which means a client holding the same seed can regenerate
//! the exact bytes it should have received and verify delivery
//! end-to-end, byte for byte, with nothing but a `u64` shared out of
//! band. [`PayloadStream`] produces ([`fill`](PayloadStream::fill)) or
//! checks ([`matches`](PayloadStream::matches)) any byte range in place;
//! the server and the client both work on chunks through it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// The seed `vodload --self-host` and the loopback tests share when the
/// operator does not pick one.
pub const DEFAULT_STORE_SEED: u64 = 0xda7a_5eed_0000_0001;

/// One segment's worth of synthesized media bytes, plus its checksum.
///
/// Payloads are immutable once built and always handled as
/// `Arc<SegmentPayload>`: the ring stores one `Arc` per publication and
/// fan-out clones it, so a thousand subscribers share one allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentPayload {
    video: u32,
    segment: u32,
    bytes: Vec<u8>,
    checksum: u64,
}

impl SegmentPayload {
    /// Synthesizes the deterministic payload for `(video, segment)` under
    /// `seed`, `len` bytes long. The same inputs always yield the same
    /// bytes — that determinism *is* the verification oracle.
    #[must_use]
    pub fn synthesize(seed: u64, video: u32, segment: u32, len: usize) -> Self {
        let mut state = PayloadStream::new(seed, video, segment).start;
        let mut bytes = Vec::with_capacity(len);
        while bytes.len() < len {
            let word = splitmix64(&mut state).to_le_bytes();
            let take = word.len().min(len - bytes.len());
            bytes.extend_from_slice(&word[..take]);
        }
        let checksum = checksum64(&bytes);
        SegmentPayload {
            video,
            segment,
            bytes,
            checksum,
        }
    }

    /// The video this payload belongs to.
    #[must_use]
    pub fn video(&self) -> u32 {
        self.video
    }

    /// The segment index (0-based wire numbering).
    #[must_use]
    pub fn segment(&self) -> u32 {
        self.segment
    }

    /// The payload bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Payload length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the payload is empty (a zero-length segment).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The FNV-1a checksum of the bytes, precomputed at synthesis.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }
}

/// The splitmix64 stream every payload of one `(seed, video, segment)` is
/// a prefix of, seekable by word.
///
/// splitmix64 advances its state by a constant γ before mixing, so word
/// `k` (payload bytes `8k..8k + 8`, little-endian) is `mix(start + (k+1)·γ)`:
/// any offset can be produced — or checked — without generating the words
/// before it. A receiver uses this to verify each chunk in place as it
/// arrives, with no reassembly buffer and no oracle payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadStream {
    start: u64,
}

impl PayloadStream {
    /// The stream behind [`SegmentPayload::synthesize`]`(seed, video,
    /// segment, _)`.
    #[must_use]
    pub fn new(seed: u64, video: u32, segment: u32) -> Self {
        PayloadStream {
            start: seed ^ (u64::from(video) << 32) ^ u64::from(segment).wrapping_mul(GAMMA),
        }
    }

    /// Word `k` of the stream: payload bytes `8k..8k + 8`, little-endian.
    #[must_use]
    pub fn word(&self, k: u64) -> u64 {
        mix(self
            .start
            .wrapping_add(k.wrapping_add(1).wrapping_mul(GAMMA)))
    }

    /// Writes the stream's bytes starting at byte `offset` into `buf` —
    /// exactly `SegmentPayload::synthesize(..).bytes()[offset..offset +
    /// buf.len()]`, without building the bytes before `offset`.
    pub fn fill(&self, offset: u64, buf: &mut [u8]) {
        let mut k = offset / 8;
        // A range starting mid-word: write the rest of that word first.
        let skip = (offset % 8) as usize;
        let head = buf.len().min((8 - skip) % 8);
        let (first, rest) = buf.split_at_mut(head);
        if head > 0 {
            first.copy_from_slice(&self.word(k).to_le_bytes()[skip..skip + head]);
            k += 1;
        }
        let mut words = rest.chunks_exact_mut(8);
        for w in &mut words {
            w.copy_from_slice(&self.word(k).to_le_bytes());
            k += 1;
        }
        let tail = words.into_remainder();
        let n = tail.len();
        tail.copy_from_slice(&self.word(k).to_le_bytes()[..n]);
    }

    /// Whether `bytes` equal the stream's bytes starting at byte `offset`.
    #[must_use]
    pub fn matches(&self, offset: u64, bytes: &[u8]) -> bool {
        let mut k = offset / 8;
        // A chunk starting mid-word: compare the rest of that word first.
        let skip = (offset % 8) as usize;
        let head = bytes.len().min((8 - skip) % 8);
        let (first, rest) = bytes.split_at(head);
        if head > 0 {
            if first != &self.word(k).to_le_bytes()[skip..skip + head] {
                return false;
            }
            k += 1;
        }
        let mut words = rest.chunks_exact(8);
        for w in &mut words {
            if u64::from_le_bytes(w.try_into().expect("8-byte chunk")) != self.word(k) {
                return false;
            }
            k += 1;
        }
        let tail = words.remainder();
        tail == &self.word(k).to_le_bytes()[..tail.len()]
    }
}

/// FNV-1a over `bytes` — the delivery checksum both ends compute.
///
/// Not cryptographic; it guards against data-plane *bugs* (reordered
/// chunks, wrong offsets, cross-wired channels), not adversaries.
#[must_use]
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Payload length for a segment lasting `segment_secs` of media at
/// `bytes_per_media_sec` — length proportional to duration, floored at
/// one byte so even degenerate entries move *something* verifiable.
#[must_use]
pub fn payload_len_for(bytes_per_media_sec: u64, segment_secs: f64) -> usize {
    let secs = if segment_secs.is_finite() && segment_secs > 0.0 {
        segment_secs
    } else {
        0.0
    };
    let len = (bytes_per_media_sec as f64 * secs).ceil();
    if len >= 1.0 {
        len as usize
    } else {
        1
    }
}

/// A cache of synthesized payloads keyed by `(video, segment)`.
///
/// The first request for a segment synthesizes its bytes and every later
/// one shares the cached `Arc`; nothing is ever evicted. The service does
/// not use it (its rings name segments and generate bytes at encode time
/// through [`PayloadStream`]); it is kept only for tests and for the
/// benchmark's replay rows that time cold synthesis and checksumming.
#[derive(Debug)]
pub struct SegmentStore {
    seed: u64,
    cache: Mutex<HashMap<(u32, u32), Arc<SegmentPayload>>>,
}

impl SegmentStore {
    /// A store deriving every payload from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SegmentStore {
            seed,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The seed payloads are derived from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The payload for `(video, segment)` at `len` bytes, synthesizing on
    /// first use and cached thereafter.
    #[must_use]
    pub fn payload(&self, video: u32, segment: u32, len: usize) -> Arc<SegmentPayload> {
        let mut cache = lock_unpoisoned(&self.cache);
        Arc::clone(cache.entry((video, segment)).or_insert_with(|| {
            Arc::new(SegmentPayload::synthesize(self.seed, video, segment, len))
        }))
    }

    /// How many distinct segments have been synthesized so far.
    #[must_use]
    pub fn synthesized(&self) -> usize {
        lock_unpoisoned(&self.cache).len()
    }
}

/// Locks `m`, recovering the guard if a holder panicked: the cache is a
/// plain map with no invariants a panic could tear.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// splitmix64's state increment γ.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    mix(*state)
}

/// splitmix64's output function.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic_and_keyed() {
        let a = SegmentPayload::synthesize(7, 1, 2, 64);
        let b = SegmentPayload::synthesize(7, 1, 2, 64);
        assert_eq!(a, b);
        assert_eq!(a.checksum(), checksum64(a.bytes()));
        // Any key change produces different bytes.
        for other in [
            SegmentPayload::synthesize(8, 1, 2, 64),
            SegmentPayload::synthesize(7, 2, 2, 64),
            SegmentPayload::synthesize(7, 1, 3, 64),
        ] {
            assert_ne!(a.bytes(), other.bytes());
        }
    }

    #[test]
    fn exact_lengths_including_non_word_multiples() {
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let p = SegmentPayload::synthesize(1, 0, 0, len);
            assert_eq!(p.len(), len);
            assert_eq!(p.is_empty(), len == 0);
        }
    }

    #[test]
    fn fill_resumes_three_bytes_into_a_word() {
        // A 1,080,000-byte segment split at the 1 MiB wire cap: its second
        // chunk starts at byte 1,048,531, three bytes past a word boundary.
        let payload = SegmentPayload::synthesize(5, 15, 2, 1_080_000);
        let stream = PayloadStream::new(5, 15, 2);
        let mut chunk = vec![0; 1_080_000 - 1_048_531];
        stream.fill(1_048_531, &mut chunk);
        assert_eq!(chunk, payload.bytes()[1_048_531..]);
        assert!(stream.matches(1_048_531, &chunk));
    }

    #[test]
    fn store_caches_by_video_and_segment() {
        let store = SegmentStore::new(42);
        let a = store.payload(3, 5, 128);
        let b = store.payload(3, 5, 128);
        assert!(Arc::ptr_eq(&a, &b), "repeat publishes share one Arc");
        assert_eq!(store.synthesized(), 1);
        let c = store.payload(3, 6, 128);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(store.synthesized(), 2);
        // The cached payload matches a fresh local synthesis — the client
        // verification oracle.
        let oracle = SegmentPayload::synthesize(42, 3, 5, 128);
        assert_eq!(*a, oracle);
    }

    #[test]
    fn payload_len_is_proportional_with_a_floor() {
        assert_eq!(payload_len_for(1_000, 10.0), 10_000);
        assert_eq!(payload_len_for(1_000, 0.5), 500);
        assert_eq!(payload_len_for(0, 10.0), 1, "floored at one byte");
        assert_eq!(payload_len_for(1_000, 0.0), 1);
        assert_eq!(payload_len_for(1_000, f64::NAN), 1);
        assert_eq!(payload_len_for(3, 0.4), 2, "rounds up");
    }

    #[test]
    fn checksum_distinguishes_reorderings() {
        assert_ne!(checksum64(b"ab"), checksum64(b"ba"));
        assert_ne!(checksum64(b""), checksum64(b"\0"));
    }
}
