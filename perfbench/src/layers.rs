//! Per-layer metrics for the traced run.
//!
//! Three sources, all recorded from the benchmark's own side:
//! - the server's admin `SNAPSHOT` (span stages, counters) and gauges
//!   sampled during the traced pass;
//! - the client's own timings (generator lateness, byte verification);
//! - an in-process replay of the workload's generated requests through
//!   each layer's public functions, timing every call: `ServeEntry::build`
//!   then `SlotScheduler::schedule_request`/`pop_slot`, `Frame::encode` and
//!   `FrameDecoder::next_frame`, `SegmentStore::payload`,
//!   `SegmentRing::publish` plus one cursor read per connection, and
//!   `checksum64`.

use std::time::Instant;

use vod_obs::{Journal, Observer};
use vod_ring::{Cursor, SegmentRing};
use vod_svc::load::Reassembler;
use vod_svc::wire::FrameDecoder;
use vod_svc::{
    checksum64, find_counter, find_histogram, payload_len_for, Frame, GrantedSegment, SegmentStore,
    ServeEntry, DEFAULT_STORE_SEED, SEGMENT_CHUNK_BYTES,
};

use crate::ladder::{Limits, Verdict};
use crate::live::{schedule_at, Plan, SchedulerCalls};
use crate::pass::{span_count, PassResult};
use crate::report::Report;
use crate::sim::SweepRun;
use crate::stats::{median, timed, Timing};

/// Every per-layer metric, in report order.
pub const PER_LAYER: [&str; 48] = [
    "wire.decode_p50_us",
    "wire.decode_p99_us",
    "wire.grant_encode_ns",
    "wire.grant_decode_ns",
    "wire.grant_frame_bytes",
    "shard.admission_wait_p50_us",
    "shard.admission_wait_p99_us",
    "shard.queue_depth_max",
    "shard.clock_lag_slots_max",
    "shard.rejected_queue_full",
    "shard.schedule_p50_us",
    "shard.schedule_p99_us",
    "slot_scheduler.schedule_request_ns",
    "slot_scheduler.pop_slot_ns",
    "slot_scheduler.new_instances_per_req",
    "slot_scheduler.share_ratio",
    "eventloop.writer_wait_p50_us",
    "eventloop.writer_wait_p99_us",
    "eventloop.flush_p50_us",
    "eventloop.flush_p99_us",
    "data.published",
    "data.fanout",
    "data.fanout_degree",
    "data.evictions",
    "data.gaps",
    "ring.publish_ns",
    "ring.read_ns",
    "store.payload_cold_ns",
    "store.hit_ratio",
    "wire.segment_encode_ns_per_kb",
    "checksum.ns_per_kb",
    "telemetry.span_coverage",
    "telemetry.stage_sum_ratio",
    "trace.overhead.setup_s",
    "trace.overhead.grant_p50_ms",
    "trace.overhead.grant_p99_ms",
    "trace.overhead.max_rps",
    "trace.overhead.server_cpu_ms_per_kgrant",
    "trace.overhead.server_rss_mb",
    "load.late_p50_ms",
    "load.late_p99_ms",
    "load.verify_ns_per_mb",
    "load.segments_verified",
    "sim.schedule_p50_ns",
    "sim.schedule_p99_ns",
    "sim.engine_step_p50_ns",
    "sim.slowest_rate_s",
    "sim.streams_per_slot",
];

/// Requests replayed in process at most (the replay is a probe, not a
/// second workload).
const REPLAY_REQUESTS: usize = 20_000;
/// Publications replayed through store, ring, encoder and checksum at most.
const REPLAY_PUBLICATIONS: usize = 3_000;

/// The request-weighted median and the largest p99 of one span stage over
/// every shard, µs.
fn stage_us(snapshot: &str, stage: &str) -> (f64, f64) {
    let hists: Vec<_> = (0..crate::live::SHARDS)
        .filter_map(|s| find_histogram(snapshot, &format!("svc.span.shard{s}.{stage}_ns")))
        .filter(|h| h.count > 0)
        .collect();
    let count: u64 = hists.iter().map(|h| h.count).sum();
    if count == 0 {
        return (0.0, 0.0);
    }
    let p50 = hists
        .iter()
        .map(|h| h.p50 as f64 * h.count as f64)
        .sum::<f64>()
        / count as f64;
    let p99 = hists.iter().map(|h| h.p99).max().unwrap_or(0) as f64;
    (p50 / 1e3, p99 / 1e3)
}

/// Server-side and client-side layers of a traced live pass, whose steps
/// are judged against `limits`.
pub fn from_pass(pass: &PassResult, limits: &Limits, report: &mut Report) {
    let m = pass.measured.as_ref().expect("a full pass");
    let snap = m.snapshot.as_deref().unwrap_or("");
    let counter = |name: &str| find_counter(snap, name).unwrap_or(0) as f64;
    let (decode50, decode99) = stage_us(snap, "decode");
    let (adm50, adm99) = stage_us(snap, "admission_wait");
    let (sch50, sch99) = stage_us(snap, "schedule");
    let (ww50, ww99) = stage_us(snap, "writer_wait");
    let (fl50, fl99) = stage_us(snap, "flush");
    report.metric("wire.decode_p50_us", decode50, "us");
    report.metric("wire.decode_p99_us", decode99, "us");
    report.metric("shard.admission_wait_p50_us", adm50, "us");
    report.metric("shard.admission_wait_p99_us", adm99, "us");
    report.metric("shard.queue_depth_max", m.gauges.queue_depth_max, "count");
    // How far a shard fell behind its clock within a step, over the steps
    // that passed: past the knee the lag only says the step failed.
    let lag = m
        .steps
        .iter()
        .zip(&m.gauges.lag_rise_by_step)
        .filter(|(s, _)| s.verdict(limits) == Verdict::Pass)
        .map(|(_, rise)| *rise)
        .fold(0.0, f64::max);
    report.lines.push(format!(
        "clock-lag rise per step, slots: {:?}",
        m.gauges.lag_rise_by_step
    ));
    report.metric("shard.clock_lag_slots_max", lag, "slots");
    report.metric(
        "shard.rejected_queue_full",
        counter("svc.rejected.queue_full"),
        "count",
    );
    report.metric("shard.schedule_p50_us", sch50, "us");
    report.metric("shard.schedule_p99_us", sch99, "us");
    report.metric("eventloop.writer_wait_p50_us", ww50, "us");
    report.metric("eventloop.writer_wait_p99_us", ww99, "us");
    report.metric("eventloop.flush_p50_us", fl50, "us");
    report.metric("eventloop.flush_p99_us", fl99, "us");
    let published = counter("svc.ring.published");
    let fanout = counter("svc.ring.fanout");
    report.metric("data.published", published, "count");
    report.metric("data.fanout", fanout, "count");
    report.metric(
        "data.fanout_degree",
        if published > 0.0 {
            fanout / published
        } else {
            0.0
        },
        "ratio",
    );
    report.metric("data.evictions", counter("svc.ring.evictions"), "count");
    report.metric("data.gaps", counter("svc.ring.gaps"), "count");
    let grants = counter("svc.grants");
    report.metric(
        "telemetry.span_coverage",
        if grants > 0.0 {
            span_count(snap) as f64 / grants
        } else {
            0.0
        },
        "ratio",
    );
    let mut lat: Vec<f64> = m.nominal_latency_ms.concat();
    let client_p50_us = Timing::of(&mut lat).map_or(f64::NAN, |t| t.p50 * 1e3);
    report.metric(
        "telemetry.stage_sum_ratio",
        (decode50 + adm50 + sch50 + ww50 + fl50) / client_p50_us,
        "ratio",
    );
    let mut late = m.nominal_late_ms.clone();
    let late = Timing::of(&mut late);
    report.metric("load.late_p50_ms", late.map_or(0.0, |t| t.p50), "ms");
    report.metric("load.late_p99_ms", late.map_or(0.0, |t| t.p99), "ms");
    let (verify_time, verify_bytes) = pass.conns.iter().fold((0.0, 0u64), |(t, b), c| {
        (t + c.verify.0.as_secs_f64(), b + c.verify.1)
    });
    if verify_bytes > 0 {
        report.metric(
            "load.verify_ns_per_mb",
            verify_time * 1e9 / (verify_bytes as f64 / 1e6),
            "ns/MB",
        );
    }
    let verified: u64 = pass
        .conns
        .iter()
        .map(|c| c.data_tally().segments_verified)
        .sum();
    report.metric("load.segments_verified", verified as f64, "count");
}

fn per_call(acc: (f64, u64)) -> f64 {
    if acc.1 == 0 {
        0.0
    } else {
        acc.0 / acc.1 as f64
    }
}

/// Replays the plan's requests (every video in its arrival order) through
/// the layers' public functions in process, timing each call. `readers`
/// is the number of ring cursors read per publication.
pub fn replay(entries: &[ServeEntry], plan: &Plan, readers: usize, report: &mut Report) {
    let mut calls = SchedulerCalls::default();
    let (mut enc, mut dec) = ((0.0, 0), (0.0, 0));
    let (mut publish, mut read, mut cold, mut seg_enc, mut sum, mut verify) = (
        (0.0, 0),
        (0.0, 0),
        (0.0, 0),
        (0.0, 0u64),
        (0.0, 0u64),
        (0.0, 0u64),
    );
    let (mut granted, mut new_instances, mut shared, mut requests, mut frame_bytes) =
        (0, 0, 0, 0, 0);
    let mut payload_calls = 0u64;
    let store = SegmentStore::new(DEFAULT_STORE_SEED);
    let mut decoder = FrameDecoder::new();
    for (video, entry) in entries.iter().enumerate() {
        let (spec, mut scheduler) = entry
            .build(&Journal::disabled())
            .expect("catalog entry builds");
        let len = payload_len_for(
            entry.bytes_per_sec.unwrap_or(1024),
            spec.segment_duration().as_secs_f64(),
        );
        let ring = SegmentRing::new(64);
        let mut cursors = vec![Cursor::at(0); readers.max(1)];
        let mut reassembler = Reassembler::new(DEFAULT_STORE_SEED, video as u32);
        reassembler.on_subscribe_ok(len as u64, 1, 0);
        let mut published = 0;
        let stamps = plan.per_conn[plan.owner[video]]
            .iter()
            .filter(|r| r.video as usize == video)
            .map(|r| r.stamp);
        for stamp in stamps.take(REPLAY_REQUESTS / entries.len()) {
            requests += 1;
            let (a, schedule) = schedule_at(scheduler.as_mut(), stamp, Some(&mut calls));
            let segments: Vec<GrantedSegment> = schedule
                .iter()
                .map(|s| GrantedSegment {
                    segment: s.segment.get() as u32,
                    slot: s.slot.index(),
                    shared: !s.newly_scheduled,
                })
                .collect();
            let frame = Frame::Grant {
                seq: requests,
                video: video as u32,
                arrival_slot: a,
                segments,
            };
            let bytes = timed(&mut enc, || frame.encode());
            frame_bytes += bytes.len();
            decoder.extend(&bytes);
            let _ = timed(&mut dec, || decoder.next_frame());
            for s in &schedule {
                granted += 1;
                if !s.newly_scheduled {
                    shared += 1;
                    continue;
                }
                new_instances += 1;
                if published >= REPLAY_PUBLICATIONS / entries.len() {
                    continue;
                }
                published += 1;
                let segment = s.segment.get() as u32;
                let before = store.synthesized();
                payload_calls += 1;
                let started = Instant::now();
                let payload = store.payload(video as u32, segment, len);
                if store.synthesized() > before {
                    cold.0 += started.elapsed().as_nanos() as f64;
                    cold.1 += 1;
                }
                let seq = timed(&mut publish, || {
                    ring.publish(payload.clone(), s.slot.index())
                });
                for c in &mut cursors {
                    let _ = timed(&mut read, || ring.read(c));
                }
                let started = Instant::now();
                std::hint::black_box(checksum64(std::hint::black_box(payload.bytes())));
                sum.0 += started.elapsed().as_nanos() as f64;
                sum.1 += payload.len() as u64;
                for (i, chunk) in payload.bytes().chunks(SEGMENT_CHUNK_BYTES).enumerate() {
                    let frame = Frame::SegmentData {
                        video: video as u32,
                        segment,
                        slot: s.slot.index(),
                        channel_seq: seq,
                        offset: (i * SEGMENT_CHUNK_BYTES) as u64,
                        total_len: len as u64,
                        bytes: chunk.to_vec(),
                    };
                    let started = Instant::now();
                    std::hint::black_box(frame.encode());
                    seg_enc.0 += started.elapsed().as_nanos() as f64;
                    seg_enc.1 += chunk.len() as u64;
                    let started = Instant::now();
                    reassembler.on_chunk(
                        segment,
                        s.slot.index(),
                        seq,
                        (i * SEGMENT_CHUNK_BYTES) as u64,
                        len as u64,
                        chunk,
                        started,
                    );
                    verify.0 += started.elapsed().as_nanos() as f64;
                    verify.1 += chunk.len() as u64;
                }
            }
        }
    }
    report.metric("wire.grant_encode_ns", per_call(enc), "ns");
    report.metric("wire.grant_decode_ns", per_call(dec), "ns");
    report.metric(
        "wire.grant_frame_bytes",
        frame_bytes as f64 / requests.max(1) as f64,
        "bytes",
    );
    report.metric(
        "slot_scheduler.schedule_request_ns",
        per_call(calls.schedule),
        "ns",
    );
    report.metric("slot_scheduler.pop_slot_ns", per_call(calls.pop), "ns");
    report.metric(
        "slot_scheduler.new_instances_per_req",
        new_instances as f64 / requests.max(1) as f64,
        "count",
    );
    report.metric(
        "slot_scheduler.share_ratio",
        shared as f64 / granted.max(1) as f64,
        "ratio",
    );
    report.metric("ring.publish_ns", per_call(publish), "ns");
    report.metric("ring.read_ns", per_call(read), "ns");
    report.metric("store.payload_cold_ns", per_call(cold), "ns");
    report.metric(
        "store.hit_ratio",
        (payload_calls - cold.1) as f64 / payload_calls.max(1) as f64,
        "ratio",
    );
    report.metric(
        "wire.segment_encode_ns_per_kb",
        seg_enc.0 / (seg_enc.1.max(1) as f64 / 1e3),
        "ns/KB",
    );
    report.metric(
        "checksum.ns_per_kb",
        sum.0 / (sum.1.max(1) as f64 / 1e3),
        "ns/KB",
    );
    if report.value("load.verify_ns_per_mb").is_none() {
        report.metric(
            "load.verify_ns_per_mb",
            verify.0 / (verify.1.max(1) as f64 / 1e6),
            "ns/MB",
        );
    }
}

/// The simulator's layer: hot-path timers of an enabled observer, plus the
/// sweeps' per-rate wall times and streams.
pub fn from_sim(obs: &mut Observer, runs: &[SweepRun], report: &mut Report) {
    obs.finish_timers();
    let q = |name: &str, p: f64| {
        obs.registry
            .histogram(name)
            .and_then(|h| h.quantile(p))
            .unwrap_or(0) as f64
    };
    report.metric("sim.schedule_p50_ns", q("timer.schedule_ns", 0.5), "ns");
    report.metric("sim.schedule_p99_ns", q("timer.schedule_ns", 0.99), "ns");
    report.metric(
        "sim.engine_step_p50_ns",
        q("timer.engine_step_ns", 0.5),
        "ns",
    );
    let slowest: Vec<f64> = runs
        .iter()
        .map(|r| {
            r.per_rate
                .iter()
                .map(|d| d.as_secs_f64())
                .fold(0.0, f64::max)
        })
        .collect();
    report.metric("sim.slowest_rate_s", median(&slowest), "s");
    let streams: Vec<f64> = runs
        .iter()
        .map(|r| r.avg_streams.iter().sum::<f64>() / r.avg_streams.len().max(1) as f64)
        .collect();
    report.metric("sim.streams_per_slot", median(&streams), "streams");
}

/// `trace.overhead.<metric>`: each end-to-end metric of the traced pass
/// over the same metric of the untraced one.
pub fn overhead(untraced: &Report, traced: &Report, report: &mut Report) {
    for name in crate::END_TO_END {
        let ratio = match (untraced.value(name), traced.value(name)) {
            (Some(u), Some(t)) if u != 0.0 => t / u,
            _ => f64::NAN,
        };
        report.metric(&format!("trace.overhead.{name}"), ratio, "ratio");
    }
}
