//! End-to-end data-plane tests: real bytes over loopback TCP.
//!
//! The acceptance test stands up a 4-shard service over a mixed catalog
//! (fixed-rate DHB, dynamic NPB, and the DHB-d VBR pipeline) with 32
//! subscribers per channel and proves the byte-level contract: every
//! subscriber reassembles every segment granted to it byte-identical to
//! the deterministic store oracle before its playback deadline, and the
//! server publishes each scheduled instance into the ring exactly once —
//! fan-out is `Arc`-clone only, which the `published ≪ fanout` counter
//! relationship pins. The second test starves one subscriber on purpose
//! and shows the eviction-with-overrun policy: the slow cursor is lapped
//! (an explicit gap, counted), while the fast subscribers' bytes stay
//! perfect. The third carries segments larger than one wire chunk, so
//! every publication arrives as two frames and the second starts mid-way
//! through a word of the payload stream.

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

use vod_svc::wire::{read_frame, write_frame, Frame};
use vod_svc::{
    run_load, LoadConfig, SchedulerKind, ServeCatalog, ServeEntry, Service, SvcConfig,
    PROTOCOL_VERSION, SEGMENT_CHUNK_BYTES,
};
use vod_types::{Seconds, VideoSpec};

/// DHB + NPB + DHB-d: three channels with different protocols, segment
/// geometries, and payload sizes.
fn data_catalog() -> ServeCatalog {
    ServeCatalog::from_entries(vec![
        ServeEntry {
            segment_secs: 10.0,
            bytes_per_sec: Some(2_048),
            kind: SchedulerKind::Dhb { segments: 6 },
        },
        ServeEntry {
            segment_secs: 10.0,
            bytes_per_sec: Some(512),
            kind: SchedulerKind::Npb { segments: 8 },
        },
        ServeEntry {
            segment_secs: 60.0, // ignored: the DHB-d plan fixes its own slot
            bytes_per_sec: None,
            kind: SchedulerKind::DhbD {
                preset: "matrix".to_owned(),
                seed: 1,
                max_wait_secs: 60.0,
            },
        },
    ])
}

#[test]
fn every_subscriber_reassembles_every_granted_segment_before_its_deadline() {
    const SUBS_PER_CHANNEL: usize = 32;
    let catalog = data_catalog();
    let channels = catalog.len();
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog,
            shards: 4,
            dilation: 1_000,
            // 96 windowed connections: deep enough that the shed-load path
            // never fires — this test is about bytes, not overload.
            queue_cap: 512,
            ..SvcConfig::default()
        },
    )
    .expect("service starts");

    let conns = SUBS_PER_CHANNEL * channels;
    let mix: Vec<u32> = (0..conns).map(|c| (c % channels) as u32).collect();
    let report = run_load(
        service.local_addr(),
        &LoadConfig {
            conns,
            requests_per_conn: 6,
            videos: channels as u32,
            mix: Some(mix),
            window: 4,
            arrival_stride: Some(1),
            verify_bytes: true,
            ..LoadConfig::default()
        },
    )
    .expect("load run succeeds");

    // Control plane stays clean under the data fan-out.
    assert_eq!(report.protocol_errors, 0, "{}", report.render());
    assert_eq!(report.rejected, 0, "{}", report.render());
    assert_eq!(
        report.subscriptions,
        conns as u64,
        "every connection subscribed: {}",
        report.render()
    );

    // The byte-level contract, per subscriber: zero mismatches means every
    // completed reassembly was byte-identical to the store oracle; zero
    // deadline misses means every instance granted to a connection finished
    // arriving before its playback deadline (undelivered grants would have
    // been counted as misses at teardown); zero gaps means no subscriber
    // was ever lapped; zero chunk errors means offsets tiled perfectly.
    assert_eq!(report.data.checksum_mismatches, 0, "{}", report.render());
    assert_eq!(report.data.byte_deadline_misses, 0, "{}", report.render());
    assert_eq!(report.data.gaps, 0, "{}", report.render());
    assert_eq!(report.data.chunk_errors, 0, "{}", report.render());
    assert!(
        report.data.segments_verified >= conns as u64,
        "each subscriber verified at least one publication: {}",
        report.render()
    );
    assert!(report.data.bytes_delivered > 0, "{}", report.render());

    // Publish-once, fan-out-by-Arc: each scheduled instance was published
    // into its channel ring exactly once, and the per-subscriber work is a
    // cursor read + Arc clone. With 32 subscribers per channel the fan-out
    // counter must dwarf the publish counter.
    let stats = service.stats().clone();
    let published = stats.ring_published.load(Ordering::Relaxed);
    let fanout = stats.ring_fanout.load(Ordering::Relaxed);
    let server_bytes = stats.bytes_delivered.load(Ordering::Relaxed);
    assert!(published > 0, "instances were published");
    assert!(
        fanout >= published * (SUBS_PER_CHANNEL as u64 / 2),
        "fan-out ({fanout}) must dwarf publishes ({published}): \
         publish-once per instance, Arc-clone per subscriber"
    );
    assert!(
        server_bytes >= report.data.bytes_delivered,
        "server queued ({server_bytes}) at least what clients verified ({})",
        report.data.bytes_delivered
    );

    let _ = service.shutdown();
}

/// Handshakes and subscribes a raw connection that will never read again —
/// the pathological slow consumer.
fn stalled_subscriber(addr: std::net::SocketAddr, video: u32) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
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
    write_frame(&mut stream, &Frame::Subscribe { video }).expect("subscribe");
    match read_frame(&mut stream).expect("subscribe-ok read") {
        Some(Frame::SubscribeOk { video: v, .. }) => assert_eq!(v, video),
        other => panic!("expected SubscribeOk, got {other:?}"),
    }
    stream // held open, never read from again
}

#[test]
fn slow_subscriber_is_evicted_with_overrun_while_fast_ones_stay_byte_identical() {
    // Big payloads, a tiny ring, and a short out-queue: a subscriber that
    // stops reading must fall behind, fill its per-connection queue, and get
    // lapped — without slowing anyone else down or corrupting their bytes.
    // 640 KiB chunks keep the kernel socket buffers from absorbing more
    // than a handful of entries, so the stall becomes visible fast.
    let video = VideoSpec::new(Seconds::new(60.0), 6).expect("valid spec");
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog: ServeCatalog::uniform(1, video),
            shards: 1,
            dilation: 1_000,
            outbound_cap: 8,
            ring_cap: 4,
            data_rate_bps: 64 * 1024, // 640 KiB per 10-second segment
            ..SvcConfig::default()
        },
    )
    .expect("service starts");

    // The stalled subscriber attaches first so the ring has a cursor to lap.
    let slow = stalled_subscriber(service.local_addr(), 0);

    let report = run_load(
        service.local_addr(),
        &LoadConfig {
            conns: 2,
            requests_per_conn: 30,
            videos: 1,
            // A narrow window throttles publication bursts so the *fast*
            // subscribers (sharing the same 8-entry out-queue cap) never
            // fall far enough behind the 4-entry ring to be lapped.
            window: 2,
            arrival_stride: Some(1),
            verify_bytes: true,
            ..LoadConfig::default()
        },
    )
    .expect("load run succeeds");

    // Fast subscribers: byte-perfect, on time, gap-free.
    assert_eq!(report.protocol_errors, 0, "{}", report.render());
    assert_eq!(report.data.checksum_mismatches, 0, "{}", report.render());
    assert_eq!(report.data.byte_deadline_misses, 0, "{}", report.render());
    assert_eq!(report.data.gaps, 0, "{}", report.render());
    assert_eq!(report.data.chunk_errors, 0, "{}", report.render());
    assert!(report.data.segments_verified > 0, "{}", report.render());

    // The slow subscriber: its queue filled, the ring lapped its cursor,
    // and the overrun was recorded as an explicit gap — eviction, not
    // backpressure on the publisher.
    let stats = service.stats().clone();
    let gaps = stats.ring_gaps.load(Ordering::Relaxed);
    let evictions = stats.ring_evictions.load(Ordering::Relaxed);
    assert!(
        gaps > 0,
        "the lapped cursor must surface as an explicit gap \
         (evictions {evictions}, gaps {gaps})"
    );

    drop(slow);
    let _ = service.shutdown();
}

#[test]
fn multi_chunk_segments_reassemble_byte_identical_for_every_subscriber() {
    // A six-segment two-hour DHB title at 900 B per media-second: each
    // 1,080,000-byte segment spans two chunks, the second starting at byte
    // 1,048,531 — three bytes into a payload-stream word.
    const SEGMENT_BYTES: u64 = 1_080_000;
    let catalog = ServeCatalog::from_entries(vec![ServeEntry {
        segment_secs: 1_200.0,
        bytes_per_sec: Some(900),
        kind: SchedulerKind::Dhb { segments: 6 },
    }]);
    let service = Service::start(
        "127.0.0.1:0",
        &SvcConfig {
            catalog,
            shards: 1,
            dilation: 1_000,
            ..SvcConfig::default()
        },
    )
    .expect("service starts");
    assert!(SEGMENT_BYTES as usize > SEGMENT_CHUNK_BYTES);

    let report = run_load(
        service.local_addr(),
        &LoadConfig {
            conns: 2,
            requests_per_conn: 4,
            videos: 1,
            window: 2,
            arrival_stride: Some(1),
            verify_bytes: true,
            ..LoadConfig::default()
        },
    )
    .expect("load run succeeds");

    assert_eq!(report.protocol_errors, 0, "{}", report.render());
    assert_eq!(report.subscriptions, 2, "{}", report.render());
    assert_eq!(report.data.checksum_mismatches, 0, "{}", report.render());
    assert_eq!(report.data.chunk_errors, 0, "{}", report.render());
    assert_eq!(report.data.gaps, 0, "{}", report.render());
    assert_eq!(report.data.byte_deadline_misses, 0, "{}", report.render());
    // The first request schedules all six segments, and both subscribers
    // see every publication whole.
    assert!(
        report.data.segments_verified >= 2 * 6,
        "{}",
        report.render()
    );
    assert_eq!(
        report.data.bytes_delivered,
        report.data.segments_verified * SEGMENT_BYTES,
        "every verified publication carried its full multi-chunk payload: {}",
        report.render()
    );

    let _ = service.shutdown();
}
