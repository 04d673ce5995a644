//! One load-generator connection: a nonblocking socket owned by a single
//! thread that both sends and receives.
//!
//! Requests are open-loop: each is due at a scheduled instant, is sent as
//! soon as the thread sees it due, and its latency is timed from the due
//! instant, not the send. A stalled generator therefore shows up in the
//! latency of every request it delayed, and the stall itself is reported
//! as lateness (send time minus due time).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

use vod_net::{Events, Interest, Poller};
use vod_svc::load::{DataTally, Reassembler};
use vod_svc::wire::FrameDecoder;
use vod_svc::{Frame, PROTOCOL_VERSION};

/// How long every channel must stay silent before a drain counts the
/// data plane as delivered.
const DATA_QUIET: Duration = Duration::from_millis(30);

/// One generated request as this connection sends it.
pub use crate::gen::Arrival as Req;

/// How a request was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// No answer yet.
    Pending,
    /// Granted: the schedule's fingerprint and the echoed arrival slot.
    Granted {
        /// [`grant_hash`] of the granted instances.
        hash: u64,
        /// The arrival slot the server scheduled for.
        arrival: u64,
    },
    /// Refused by admission control.
    Rejected,
}

/// Fingerprint of a grant: arrival slot plus every `(segment, slot,
/// shared)` instance, FNV-1a over their little-endian bytes.
#[must_use]
pub fn grant_hash(arrival: u64, segments: impl Iterator<Item = (u32, u64, bool)>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&arrival.to_le_bytes());
    for (segment, slot, shared) in segments {
        eat(&segment.to_le_bytes());
        eat(&slot.to_le_bytes());
        eat(&[u8::from(shared)]);
    }
    h
}

/// Outstanding requests when a phase's first and last requests were due.
#[derive(Debug, Clone, Copy, Default)]
pub struct Backlog {
    /// At the first send.
    pub start: u64,
    /// At the last send.
    pub end: u64,
}

/// The open-loop phase in progress.
struct Open {
    origin: Instant,
    at0: f64,
    start: usize,
    next: usize,
    end: usize,
    backlog: Backlog,
}

impl Open {
    fn due(&self, r: &Req) -> Instant {
        self.origin + Duration::from_secs_f64((r.at - self.at0).max(0.0))
    }
}

/// A client connection and the bookkeeping of every request it sends.
pub struct Conn {
    stream: TcpStream,
    poller: Poller,
    events: Events,
    decoder: FrameDecoder,
    out: Vec<u8>,
    buf: Vec<u8>,
    /// Requests in send order; the index is the wire sequence number.
    pub reqs: Vec<Req>,
    /// Answer per request.
    pub answers: Vec<Answer>,
    due: Vec<Option<Instant>>,
    /// Due-time→answer latency per request (`u64::MAX` until answered).
    pub latency_ns: Vec<u64>,
    /// Send time minus due time per request.
    pub late_ns: Vec<u64>,
    sent: usize,
    answered: usize,
    welcomed: bool,
    subscribed: usize,
    /// Per-video byte verification (empty when not subscribed).
    pub reassemblers: Vec<Reassembler>,
    /// Frames that should not have arrived, or failed to decode.
    pub protocol_errors: u64,
    /// Time spent in `Reassembler::on_chunk`, and the bytes it consumed.
    pub verify: (Duration, u64),
    unverified: VecDeque<(Frame, Instant)>,
    open: Option<Open>,
}

impl Conn {
    /// Connects and handshakes. With `subscribe_videos > 0` the connection
    /// also subscribes to channels `0..subscribe_videos`, verifying their
    /// bytes against the store seeded with `store_seed`; the call returns
    /// once every subscription is live.
    pub fn open(
        addr: SocketAddr,
        reqs: Vec<Req>,
        subscribe_videos: u32,
        store_seed: u64,
    ) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(&stream, 0, Interest::READABLE)?;
        let n = reqs.len();
        let mut conn = Conn {
            stream,
            poller,
            events: Events::with_capacity(4),
            decoder: FrameDecoder::new(),
            out: Vec::with_capacity(64 * 1024),
            buf: vec![0; 256 * 1024],
            reqs,
            answers: vec![Answer::Pending; n],
            due: vec![None; n],
            latency_ns: vec![u64::MAX; n],
            late_ns: vec![0; n],
            sent: 0,
            answered: 0,
            welcomed: false,
            subscribed: 0,
            reassemblers: (0..subscribe_videos)
                .map(|v| Reassembler::new(store_seed, v))
                .collect(),
            protocol_errors: 0,
            verify: (Duration::ZERO, 0),
            unverified: VecDeque::new(),
            open: None,
        };
        conn.push(&Frame::Hello {
            version: PROTOCOL_VERSION,
        });
        for video in 0..subscribe_videos {
            conn.push(&Frame::Subscribe { video });
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while !conn.welcomed || conn.subscribed < subscribe_videos as usize {
            if Instant::now() > deadline {
                return Err(io::Error::other("handshake timed out"));
            }
            conn.pump()?;
            conn.wait(Duration::from_millis(5))?;
        }
        Ok(conn)
    }

    /// Appends requests to send after every request already held.
    pub fn extend(&mut self, reqs: &[Req]) {
        let n = self.reqs.len() + reqs.len();
        self.reqs.extend_from_slice(reqs);
        self.answers.resize(n, Answer::Pending);
        self.due.resize(n, None);
        self.latency_ns.resize(n, u64::MAX);
        self.late_ns.resize(n, 0);
    }

    /// Requests sent so far (always a prefix of [`Conn::reqs`]).
    #[must_use]
    pub fn sent(&self) -> usize {
        self.sent
    }

    /// Requests sent and not yet answered.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        (self.sent - self.answered) as u64
    }

    /// Summed verification tallies over every subscribed channel.
    #[must_use]
    pub fn data_tally(&self) -> DataTally {
        let mut sum = DataTally::default();
        for r in &self.reassemblers {
            let t = r.tally();
            sum.bytes_delivered += t.bytes_delivered;
            sum.segments_verified += t.segments_verified;
            sum.checksum_mismatches += t.checksum_mismatches;
            sum.byte_deadline_misses += t.byte_deadline_misses;
            sum.gaps += t.gaps;
            sum.chunk_errors += t.chunk_errors;
            sum.ring_resume_gaps += t.ring_resume_gaps;
        }
        sum
    }

    fn push(&mut self, frame: &Frame) {
        self.out.extend_from_slice(&frame.encode());
    }

    fn send(&mut self, seq: usize, due: Instant, now: Instant) {
        let r = self.reqs[seq];
        self.push(&Frame::Request {
            seq: seq as u64,
            video: r.video,
            arrival_slot: r.stamp,
        });
        self.due[seq] = Some(due);
        self.late_ns[seq] = nanos(now.saturating_duration_since(due));
        self.sent += 1;
    }

    /// Writes what the socket takes, then reads and handles every frame
    /// that has arrived.
    fn pump(&mut self) -> io::Result<()> {
        self.flush()?;
        loop {
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err(io::Error::other("server closed the connection")),
                Ok(n) => {
                    let now = Instant::now();
                    self.decoder.extend(&self.buf[..n]);
                    loop {
                        match self.decoder.next_frame() {
                            Ok(Some(frame)) => {
                                self.handle(frame, now);
                                self.send_due()?;
                            }
                            Ok(None) => break,
                            Err(e) => return Err(io::Error::other(format!("bad frame: {e}"))),
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes as much of the outbound buffer as the socket takes.
    fn flush(&mut self) -> io::Result<()> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Sleeps until the socket is readable or `timeout` passes (at least
    /// 1 ms: the poller rounds up rather than spin).
    fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        self.poller
            .wait(&mut self.events, Some(timeout))
            .map(|_| ())
    }

    fn answer(&mut self, seq: u64, answer: Answer, now: Instant) {
        let Some(slot) = self.answers.get_mut(seq as usize) else {
            self.protocol_errors += 1;
            return;
        };
        if *slot != Answer::Pending {
            self.protocol_errors += 1;
            return;
        }
        *slot = answer;
        self.answered += 1;
        if let Some(due) = self.due[seq as usize] {
            self.latency_ns[seq as usize] = nanos(now.saturating_duration_since(due));
        }
    }

    /// Verifies buffered chunks in arrival order until `until` (all of
    /// them when `None`). Verification is deferred so that checking a
    /// megabyte of payload never delays reading the grants behind it.
    fn verify_pending(&mut self, until: Option<Instant>) {
        while until.is_none_or(|u| Instant::now() < u) {
            let Some((frame, at)) = self.unverified.pop_front() else {
                return;
            };
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
                continue;
            };
            let started = Instant::now();
            self.reassemblers[video as usize].on_chunk(
                segment,
                slot,
                channel_seq,
                offset,
                total_len,
                &bytes,
                at,
            );
            self.verify.0 += started.elapsed();
            self.verify.1 += bytes.len() as u64;
        }
    }

    fn handle(&mut self, frame: Frame, now: Instant) {
        match frame {
            Frame::Grant {
                seq,
                video,
                arrival_slot,
                segments,
            } => {
                let hash = grant_hash(
                    arrival_slot,
                    segments.iter().map(|g| (g.segment, g.slot, g.shared)),
                );
                if let Some(r) = self.reassemblers.get_mut(video as usize) {
                    r.on_grant(arrival_slot, &segments, now);
                }
                self.answer(
                    seq,
                    Answer::Granted {
                        hash,
                        arrival: arrival_slot,
                    },
                    now,
                );
            }
            Frame::Rejected { seq, .. } => self.answer(seq, Answer::Rejected, now),
            Frame::SegmentData { video, .. } if (video as usize) < self.reassemblers.len() => {
                // Verified later, between sends, stamped with its arrival.
                self.unverified.push_back((frame, now));
            }
            Frame::SubscribeOk {
                video,
                payload_len,
                slot_ns,
                next_seq,
            } => match self.reassemblers.get_mut(video as usize) {
                Some(r) => {
                    r.on_subscribe_ok(payload_len, slot_ns, next_seq);
                    self.subscribed += 1;
                }
                None => self.protocol_errors += 1,
            },
            Frame::Welcome { .. } => self.welcomed = true,
            _ => self.protocol_errors += 1,
        }
    }

    /// Closed loop over `range` with at most `window` requests in flight,
    /// each due when sent; returns once all are answered.
    pub fn run_closed(&mut self, range: Range<usize>, window: u64) -> io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut next = range.start;
        while self.answered < range.end {
            while next < range.end && self.outstanding() < window {
                let now = Instant::now();
                self.send(next, now, now);
                next += 1;
            }
            self.pump()?;
            self.verify_pending(None);
            if Instant::now() > deadline {
                return Err(io::Error::other("warm-up requests went unanswered"));
            }
            self.wait(Duration::from_millis(2))?;
        }
        Ok(())
    }

    /// Open loop over `range`: request `i` is due at `origin + (at_i −
    /// at0)`. Returns the backlog at the phase's first and last sends;
    /// `tick` runs between polls (the traced run samples server gauges
    /// there). Due requests are also sent between inbound frames, so a
    /// burst of byte verification delays the send of nothing that fell due
    /// meanwhile by more than one frame's work.
    pub fn run_open(
        &mut self,
        range: Range<usize>,
        origin: Instant,
        at0: f64,
        tick: &mut dyn FnMut(Instant),
    ) -> io::Result<Backlog> {
        self.open = Some(Open {
            origin,
            at0,
            start: range.start,
            next: range.start,
            end: range.end,
            backlog: Backlog::default(),
        });
        loop {
            self.send_due()?;
            self.pump()?;
            tick(Instant::now());
            let open = self.open.as_ref().expect("open phase");
            if open.next >= open.end {
                break;
            }
            let next_due = open.due(&self.reqs[open.next]);
            self.verify_pending(Some(next_due));
            let until = next_due.saturating_duration_since(Instant::now());
            let cap = if self.out.is_empty() {
                until
            } else {
                until.min(Duration::from_millis(1))
            };
            if !cap.is_zero() {
                self.wait(cap)?;
            }
        }
        Ok(self.open.take().expect("open phase").backlog)
    }

    /// Sends every request of the open phase that has fallen due.
    fn send_due(&mut self) -> io::Result<()> {
        let Some(mut open) = self.open.take() else {
            return Ok(());
        };
        let now = Instant::now();
        while open.next < open.end {
            let due = open.due(&self.reqs[open.next]);
            if due > now {
                break;
            }
            if open.next == open.start {
                open.backlog.start = self.outstanding();
            }
            self.send(open.next, due, now);
            open.next += 1;
            if open.next == open.end {
                open.backlog.end = self.outstanding();
            }
        }
        self.open = Some(open);
        self.flush()
    }

    /// Keeps receiving until every request in `..end` is answered and, when
    /// `data` is set, every channel has nothing pending, or until `limit`.
    pub fn drain(&mut self, end: usize, data: bool, limit: Duration) -> io::Result<()> {
        let deadline = Instant::now() + limit;
        let mut bytes = self.verify.1;
        let mut last_data = Instant::now();
        loop {
            self.pump()?;
            self.verify_pending(None);
            let now = Instant::now();
            if self.verify.1 != bytes {
                bytes = self.verify.1;
                last_data = now;
            }
            let answered = self.answers[..end].iter().all(|a| *a != Answer::Pending);
            // Publications can still be in flight behind the last grant, so
            // a subscriber is drained only once its channels went quiet.
            let drained = !data
                || (self.reassemblers.iter().all(Reassembler::drained)
                    && now.duration_since(last_data) >= DATA_QUIET);
            if (answered && drained) || now > deadline {
                return Ok(());
            }
            self.wait(Duration::from_millis(2))?;
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
