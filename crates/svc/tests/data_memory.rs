//! A channel nobody subscribes to holds no payload bytes.
//!
//! The server's rings name segments; bytes are generated only when they are
//! encoded for a subscriber. This test publishes every segment of a
//! 99-segment title at 1024 B per media-second (about 74 KB a segment,
//! 7.4 MB in all) with no subscriber and bounds how much the live heap
//! grows. Publishing runs on the service's shard thread, so the counting
//! allocator tallies the whole process; this binary holds this one test,
//! so the only other allocations in the window are the test client's own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::TcpStream;
use std::sync::atomic::{AtomicIsize, Ordering};

use vod_svc::wire::{read_frame, write_frame, Frame};
use vod_svc::{ServeCatalog, Service, SvcConfig, PROTOCOL_VERSION};
use vod_types::{Seconds, VideoSpec};

/// Live heap bytes across the process.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only adjusts an atomic counter, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live-heap growth allowed across the measured request: the scheduler's
/// and session's bookkeeping for one grant, far below the 7.4 MB the
/// title's payloads would take if they were held.
const BUDGET_BYTES: isize = 256 * 1024;

/// Sends one request for `video` at arrival slot 0 and returns how many
/// of its granted segments were newly scheduled (that is, published).
fn request(stream: &mut TcpStream, seq: u64, video: u32) -> usize {
    write_frame(
        stream,
        &Frame::Request {
            seq,
            video,
            arrival_slot: 0,
        },
    )
    .expect("request");
    match read_frame(stream).expect("grant read") {
        Some(Frame::Grant { segments, .. }) => segments.iter().filter(|s| !s.shared).count(),
        other => panic!("expected Grant, got {other:?}"),
    }
}

#[test]
fn publishing_without_subscribers_holds_no_payload_bytes() {
    let video = VideoSpec::new(Seconds::new(7_200.0), 99).expect("valid spec");
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog: ServeCatalog::uniform(2, video),
            shards: 1,
            dilation: 1_000,
            data_rate_bps: 1024,
            ..SvcConfig::default()
        },
    )
    .expect("service starts");
    let mut stream = TcpStream::connect(service.local_addr()).expect("connect");
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
        },
    )
    .expect("hello");
    match read_frame(&mut stream).expect("welcome read") {
        Some(Frame::Welcome { .. }) => {}
        other => panic!("expected Welcome, got {other:?}"),
    }
    // A first title warms the connection, session and shard structures,
    // so the measured request grows only what it must.
    assert_eq!(request(&mut stream, 1, 1), 99);

    let before = LIVE.load(Ordering::Relaxed);
    // On a fresh channel one request schedules, and so publishes, all 99
    // segments. The shard publishes before it replies, so when the grant
    // arrives every publication has happened.
    assert_eq!(request(&mut stream, 2, 0), 99, "every segment published");
    let grown = LIVE.load(Ordering::Relaxed) - before;

    assert!(
        grown < BUDGET_BYTES,
        "publishing 99 segments of about 74 KB with no subscriber grew the \
         live heap by {grown} bytes (budget {BUDGET_BYTES})"
    );
    drop(stream);
    let _ = service.shutdown();
}
