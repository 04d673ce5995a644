//! The TCP service: accept loop, event-loop connection core, admission
//! control, session resume, and graceful drain.
//!
//! Thread topology: one accept thread, a small pool of event-loop threads
//! (`io_threads`, default one per core up to 8) owning every client
//! connection, `shards` supervised scheduler threads, and one thread per
//! admin scrape connection. The loops validate and route frames; every
//! outbound frame goes through the connection's **bounded** outbound queue
//! (flushed by its loop with vectored writes), which is the per-connection
//! write backpressure: a client that stops reading eventually blocks its
//! own pipeline (and, transitively, any shard trying to answer it), never
//! an unbounded buffer. See `eventloop.rs` for the ownership and wakeup
//! story.
//!
//! Sessions (protocol v3): a `Hello` registers a session whose id rides in
//! the `Welcome`. Answers to sessioned connections are recorded in a
//! bounded replay ring, so a client that loses its TCP connection can
//! reconnect and send `Resume{session, last_seq_seen}` — the server swaps
//! the session onto the new connection and replays every missed answer
//! byte-identically (see `session.rs` for the no-loss/no-double-delivery
//! argument). Connections that never say `Hello` keep the old sessionless
//! fast path.
//!
//! Drain protocol (see DESIGN.md §12 and §16): [`Service::shutdown`] flips
//! the drain flag, pokes the listener, and then drains in two phases. In
//! phase one every event loop stops admitting, drops its shard senders,
//! and queues one `Draining` frame per live connection; the admin plane is
//! woken by a level-triggered drain [`Signal`] and closes out. With the
//! shards' request channels closed they answer everything already admitted
//! and exit. Phase two tells the loops to close every connection as soon
//! as its outbound queue has flushed and its in-flight answers have
//! landed — so every admitted request gets its grant before the last
//! socket closes.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use vod_net::{Events, Interest, Poller, Signal};
use vod_obs::{Event, Journal};
use vod_server::ServeCatalog;
use vod_types::VideoSpec;

use crate::admin::{AdminFrame, ADMIN_PROTOCOL_VERSION};
use crate::chaos::ChaosPlan;
use crate::clock::SlotClock;
use crate::data::{ChannelInit, DataPlane};
use crate::eventloop::LoopPool;
use crate::session::{lock_unpoisoned, SessionRegistry};
use crate::shard::{spawn_shard, RestartPolicy, ShardConfig, ShardMsg, ShardVideo};
use crate::stats::ServiceStats;
use crate::telemetry::{dur_ns, Telemetry};
use crate::wire::FrameBuffer;

/// Service configuration. `Default` gives a small two-shard uniform catalog
/// of paper-sized videos at real-time pace, no chaos, and a restart budget
/// of three per shard.
#[derive(Debug, Clone)]
pub struct SvcConfig {
    /// What to serve: per-video segment counts, protocols, and period
    /// vectors. Wire video ids are catalog positions. Entries that fail to
    /// build (a catalog file is untrusted input) are hosted as *invalid*
    /// videos: the service stays up and answers their requests with
    /// `Rejected(invalid_video)`.
    pub catalog: ServeCatalog,
    /// Scheduler shard count (video `v` is owned by shard `v % shards`).
    pub shards: usize,
    /// Virtual-clock time dilation (1 = real time; 1000 runs a two-hour
    /// schedule in 7.2 s).
    pub dilation: u32,
    /// Bounded per-shard request-queue depth (admission control).
    pub queue_cap: usize,
    /// Bounded per-connection outbound frame-queue depth (write
    /// backpressure).
    pub outbound_cap: usize,
    /// Event-loop threads serving client connections. `0` picks one per
    /// available core, capped at 8.
    pub io_threads: usize,
    /// Test knob: minimum scheduling time per request, for deterministic
    /// overload/drain tests. Keep zero in production.
    pub min_service_time: Duration,
    /// Journal for accept/reject/drain, supervision, and scheduler events
    /// (`Journal::disabled()` for none).
    pub journal: Journal,
    /// Per-session replay-ring capacity: how many recent answers a
    /// reconnecting client can recover byte-identically.
    pub replay_cap: usize,
    /// Shard restarts allowed before the shard is disabled and its videos
    /// answer `Rejected(shard_down)`.
    pub max_restarts: u32,
    /// First-restart backoff (doubles per restart, capped below).
    pub restart_backoff: Duration,
    /// Restart backoff ceiling.
    pub restart_backoff_cap: Duration,
    /// Per-shard state-journal cap: rebuilds are exact while scheduling
    /// history fits this many entries.
    pub shard_journal_cap: usize,
    /// Deterministic fault plan ([`ChaosPlan::none`] in production). The
    /// plan is cloned — and thereby re-armed — per service instance.
    pub chaos: ChaosPlan,
    /// Where to bind the admin scrape plane (`None` disables it). Use port
    /// 0 for an ephemeral port; [`Service::admin_addr`] reports what was
    /// bound.
    pub admin_addr: Option<String>,
    /// Length of one rotating telemetry window (16 are retained).
    pub telemetry_window: Duration,
    /// How many recent raw span records the admin `SPANS` query can return.
    pub span_recent_cap: usize,
    /// Default data-plane payload rate in bytes per media-second, for
    /// catalog entries without their own `bytes-per-sec`: one segment's
    /// synthesized payload is `rate × segment_secs` bytes.
    pub data_rate_bps: u64,
    /// Per-channel broadcast ring capacity (recent publications retained
    /// for lagging subscribers before eviction-with-overrun).
    pub ring_cap: usize,
    /// Seed of the deterministic segment payloads. Clients verifying
    /// delivered bytes must generate their oracle with the same seed.
    pub store_seed: u64,
}

impl Default for SvcConfig {
    fn default() -> Self {
        SvcConfig {
            catalog: ServeCatalog::uniform(4, VideoSpec::paper_two_hour()),
            shards: 2,
            dilation: 1,
            queue_cap: 64,
            outbound_cap: 256,
            io_threads: 0,
            min_service_time: Duration::ZERO,
            journal: Journal::disabled(),
            replay_cap: 1024,
            max_restarts: 3,
            restart_backoff: Duration::from_millis(25),
            restart_backoff_cap: Duration::from_secs(1),
            shard_journal_cap: 65_536,
            chaos: ChaosPlan::none(),
            admin_addr: None,
            telemetry_window: Duration::from_secs(1),
            span_recent_cap: 1024,
            data_rate_bps: 1024,
            ring_cap: 64,
            store_seed: vod_ring::DEFAULT_STORE_SEED,
        }
    }
}

/// What a graceful [`Service::shutdown`] observed.
#[derive(Debug, Clone)]
pub struct DrainSummary {
    /// Connections accepted over the service's lifetime.
    pub conns: u64,
    /// Request frames received.
    pub requests: u64,
    /// Grants delivered.
    pub grants: u64,
    /// Requests rejected (all reasons).
    pub rejected: u64,
    /// Final metrics snapshot (the same JSON a `STATS` frame returns).
    pub stats_json: String,
}

/// Per-video facts the event loops answer `Describe` from and validate
/// `Request`s against. All of them are fixed at startup: a video's
/// scheduler is the one its catalog entry builds, for the life of the
/// process.
pub(crate) struct VideoMeta {
    /// Segment count (0 for invalid entries).
    pub(crate) segments: u32,
    /// Scheduler name (`DHB`, `dyn-NPB`, `DHB-d`, …) or the entry's
    /// protocol key when the entry failed to build.
    pub(crate) protocol: String,
    /// The period vector `T[1..=n]` (empty for invalid entries).
    pub(crate) periods: Vec<u64>,
    /// `false` when the catalog entry could not back a working scheduler;
    /// requests for it get `Rejected(invalid_video)`.
    pub(crate) valid: bool,
}

pub(crate) struct Shared {
    pub(crate) videos: u32,
    pub(crate) shards: usize,
    pub(crate) meta: Vec<VideoMeta>,
    pub(crate) dilation: u32,
    pub(crate) draining: AtomicBool,
    pub(crate) next_conn: AtomicU64,
    pub(crate) stats: Arc<ServiceStats>,
    pub(crate) journal: Journal,
    pub(crate) sessions: SessionRegistry,
    /// Per-shard "restart budget exhausted" flags; loops shed at admission
    /// instead of queueing into a disabled shard.
    pub(crate) shard_down: Vec<Arc<AtomicBool>>,
    pub(crate) chaos: Arc<ChaosPlan>,
    pub(crate) replay_cap: usize,
    pub(crate) outbound_cap: usize,
    pub(crate) telemetry: Arc<Telemetry>,
    /// The broadcast data plane (channel rings and subscribers), shared by
    /// event loops (subscribe) and shards (publish).
    pub(crate) data: Arc<DataPlane>,
    /// Fired once at shutdown; admin connection pollers watch it so idle
    /// scrapers and mid-`Watch` streams wake immediately instead of
    /// sleeping through a fixed poll interval.
    pub(crate) drain_signal: Arc<Signal>,
    pub(crate) admins: Mutex<Vec<JoinHandle<()>>>,
}

/// A running VoD control-plane service.
///
/// Bind with [`Service::start`], stop with [`Service::shutdown`]; dropping
/// without `shutdown` leaves detached threads running until process exit
/// (fine for a serve-forever binary, not for tests).
pub struct Service {
    addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    accept_handle: JoinHandle<()>,
    admin_handle: Option<JoinHandle<()>>,
    shard_handles: Vec<JoinHandle<()>>,
    shard_txs: Vec<SyncSender<ShardMsg>>,
    pool: Arc<LoopPool>,
}

impl Service {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn start(addr: &str, config: &SvcConfig) -> io::Result<Service> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shards = config.shards.max(1);
        let dilation = config.dilation.max(1);
        let stats = Arc::new(ServiceStats::new(shards));
        let chaos = Arc::new(config.chaos.clone());
        let telemetry = Arc::new(Telemetry::new(
            shards,
            config.telemetry_window,
            config.span_recent_cap,
            config.max_restarts,
        ));

        // Build every catalog entry. Good entries become shard-owned
        // schedulers, each ticking on its own slot clock (segment durations
        // differ across a heterogeneous catalog). Bad entries stay in the
        // catalog as invalid videos — served with typed rejections, never a
        // crash: catalog files are untrusted input.
        let mut meta = Vec::with_capacity(config.catalog.len());
        let mut channels = Vec::with_capacity(config.catalog.len());
        let mut shard_videos: Vec<Vec<ShardVideo>> = (0..shards).map(|_| Vec::new()).collect();
        for (id, built) in config
            .catalog
            .build(&config.journal)
            .into_iter()
            .enumerate()
        {
            match built {
                Ok((spec, scheduler)) => {
                    let entry = &config.catalog.entries()[id];
                    let clock = Arc::new(SlotClock::start(spec.segment_duration(), dilation));
                    let rate = entry.bytes_per_sec.unwrap_or(config.data_rate_bps).max(1);
                    channels.push(ChannelInit {
                        payload_len: vod_ring::payload_len_for(
                            rate,
                            spec.segment_duration().as_secs_f64(),
                        ) as u64,
                        slot_ns: u64::try_from(clock.real_slot_duration().as_nanos())
                            .unwrap_or(u64::MAX),
                        valid: true,
                    });
                    meta.push(VideoMeta {
                        segments: spec.n_segments() as u32,
                        protocol: scheduler.name().to_owned(),
                        periods: scheduler.periods().to_vec(),
                        valid: true,
                    });
                    shard_videos[id % shards].push(ShardVideo {
                        id: id as u32,
                        entry: entry.clone(),
                        scheduler,
                        clock,
                    });
                }
                Err(_) => {
                    let entry = &config.catalog.entries()[id];
                    channels.push(ChannelInit {
                        payload_len: 0,
                        slot_ns: 0,
                        valid: false,
                    });
                    meta.push(VideoMeta {
                        segments: 0,
                        protocol: entry.protocol_key().to_owned(),
                        periods: Vec::new(),
                        valid: false,
                    });
                }
            }
        }
        let data = Arc::new(DataPlane::new(
            config.store_seed,
            config.ring_cap.max(1),
            channels,
        ));

        let policy = RestartPolicy {
            max_restarts: config.max_restarts,
            backoff_base: config.restart_backoff,
            backoff_cap: config.restart_backoff_cap,
            journal_cap: config.shard_journal_cap,
        };
        let shard_down: Vec<Arc<AtomicBool>> = (0..shards)
            .map(|_| Arc::new(AtomicBool::new(false)))
            .collect();
        let mut shard_txs = Vec::with_capacity(shards);
        let mut shard_handles = Vec::with_capacity(shards);
        for (id, videos) in shard_videos.into_iter().enumerate() {
            let (tx, rx) = sync_channel(config.queue_cap.max(1));
            shard_txs.push(tx);
            shard_handles.push(spawn_shard(
                ShardConfig {
                    id,
                    videos,
                    stats: Arc::clone(&stats),
                    min_service_time: config.min_service_time,
                    journal: config.journal.clone(),
                    chaos: Arc::clone(&chaos),
                    telemetry: Arc::clone(&telemetry),
                    data: Arc::clone(&data),
                    policy: policy.clone(),
                    down: Arc::clone(&shard_down[id]),
                },
                rx,
            )?);
        }

        let shared = Arc::new(Shared {
            videos: config.catalog.len() as u32,
            shards,
            meta,
            dilation,
            draining: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
            stats,
            journal: config.journal.clone(),
            sessions: SessionRegistry::default(),
            shard_down,
            chaos,
            replay_cap: config.replay_cap.max(1),
            outbound_cap: config.outbound_cap.max(8),
            telemetry,
            data,
            drain_signal: Arc::new(Signal::new()?),
            admins: Mutex::new(Vec::new()),
        });

        let io_threads = if config.io_threads == 0 {
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .min(8)
        } else {
            config.io_threads
        };
        let pool = Arc::new(LoopPool::spawn(&shared, &shard_txs, io_threads)?);

        let accept_shared = Arc::clone(&shared);
        let accept_pool = Arc::clone(&pool);
        let accept_handle = std::thread::Builder::new()
            .name("vod-svc-accept".to_owned())
            .spawn(move || accept_loop(&listener, &accept_shared, &accept_pool))?;

        let (admin_addr, admin_handle) = match &config.admin_addr {
            Some(bind) => {
                let admin_listener = TcpListener::bind(bind.as_str())?;
                let bound = admin_listener.local_addr()?;
                let admin_shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("vod-svc-admin".to_owned())
                    .spawn(move || admin_accept_loop(&admin_listener, &admin_shared))?;
                (Some(bound), Some(handle))
            }
            None => (None, None),
        };

        Ok(Service {
            addr,
            admin_addr,
            shared,
            accept_handle,
            admin_handle,
            shard_handles,
            shard_txs,
            pool,
        })
    }

    /// The bound address (including the resolved ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound admin scrape-plane address, when one was configured.
    #[must_use]
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// The live counters (shared with every service thread).
    #[must_use]
    pub fn stats(&self) -> &Arc<ServiceStats> {
        &self.shared.stats
    }

    /// Gracefully drains and stops the service: stop admitting, flush every
    /// admitted grant, join all threads.
    #[must_use = "the drain summary carries the final stats snapshot"]
    pub fn shutdown(self) -> DrainSummary {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Unblock `accept` so the accept thread notices the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept_handle.join();
        // Drain phase one: every loop stops admitting, drops its shard
        // senders, and queues a `Draining` frame per live connection.
        self.pool.begin_drain();
        // The admin plane wakes on the drain signal (no poll interval to
        // wait out); poke its listener too so `accept` returns.
        self.shared.drain_signal.fire();
        if let Some(admin_addr) = self.admin_addr {
            let _ = TcpStream::connect(admin_addr);
        }
        if let Some(handle) = self.admin_handle {
            let _ = handle.join();
        }
        for handle in take_handles(&self.shared.admins) {
            let _ = handle.join();
        }
        // With every request-side sender gone the shards drain their queues
        // (answering what was admitted) and exit. Every in-flight answer
        // lands in its connection's outbound queue before the join returns.
        drop(self.shard_txs);
        for handle in self.shard_handles {
            let _ = handle.join();
        }
        // Session rings hold connection senders; drop them so the queues
        // are referenced only by their connections.
        self.shared.sessions.clear();
        // Drain phase two: loops flush every queue, close every socket,
        // and exit.
        self.pool.finish();
        let stats = &self.shared.stats;
        let summary = DrainSummary {
            conns: stats.conns.load(Ordering::Relaxed),
            requests: stats.requests.load(Ordering::Relaxed),
            grants: stats.grants.load(Ordering::Relaxed),
            rejected: stats.rejected_total(),
            stats_json: self
                .shared
                .telemetry
                .snapshot_full(stats, &self.shared.sessions)
                .to_json_pretty(),
        };
        self.shared.journal.emit_with(|| Event::ServiceDrained {
            conns: summary.conns,
            grants: summary.grants,
        });
        summary
    }
}

fn take_handles(slot: &Mutex<Vec<JoinHandle<()>>>) -> Vec<JoinHandle<()>> {
    std::mem::take(&mut *lock_unpoisoned(slot))
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, pool: &LoopPool) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        let conn = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        shared.stats.conns.fetch_add(1, Ordering::Relaxed);
        shared.journal.emit_with(|| Event::ConnAccepted { conn });
        pool.dispatch(stream, conn);
    }
}

fn admin_accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut next_admin = 0u64;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        let id = next_admin;
        next_admin += 1;
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name(format!("vod-svc-admin-{id}"))
            .spawn(move || run_admin_conn(stream, &conn_shared));
        match handle {
            Ok(handle) => lock_unpoisoned(&shared.admins).push(handle),
            Err(_) => continue,
        }
    }
}

/// Poller tokens for one admin connection: the stream and the service-wide
/// drain signal.
const ADMIN_STREAM: u64 = 0;
const ADMIN_DRAIN: u64 = 1;

/// One admin scrape connection's readiness-driven I/O: a nonblocking
/// stream, a poller watching it alongside the drain [`Signal`], and an
/// incremental frame buffer. Replaces the old fixed 25 ms read-timeout
/// polling: idle scrapers sleep in `epoll_wait` until bytes or the drain
/// signal arrive.
struct AdminIo {
    stream: TcpStream,
    poller: Poller,
    events: Events,
    buf: FrameBuffer,
    /// Interest currently registered for the stream.
    registered: Interest,
}

impl AdminIo {
    fn new(stream: TcpStream, shared: &Shared) -> io::Result<AdminIo> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let poller = Poller::new()?;
        poller.register(&stream, ADMIN_STREAM, Interest::READABLE)?;
        poller.register(
            shared.drain_signal.as_ref(),
            ADMIN_DRAIN,
            Interest::READABLE,
        )?;
        Ok(AdminIo {
            stream,
            poller,
            events: Events::with_capacity(8),
            buf: FrameBuffer::new(),
            registered: Interest::READABLE,
        })
    }

    fn set_interest(&mut self, interest: Interest) -> io::Result<()> {
        if interest != self.registered {
            self.poller
                .reregister(&self.stream, ADMIN_STREAM, interest)?;
            self.registered = interest;
        }
        Ok(())
    }

    /// Reads one admin frame, sleeping on readiness while the stream is
    /// idle. Returns `None` on EOF, any failure, or the drain signal.
    fn read_request(&mut self, shared: &Shared) -> Option<AdminFrame> {
        if self.set_interest(Interest::READABLE).is_err() {
            return None;
        }
        let mut chunk = [0u8; 4096];
        loop {
            match self.buf.next_payload() {
                Ok(Some(payload)) => return AdminFrame::decode_payload(&payload).ok(),
                Ok(None) => {}
                Err(_) => return None,
            }
            if shared.draining.load(Ordering::SeqCst) {
                return None;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => {
                    self.buf.extend(&chunk[..n]);
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if self.poller.wait(&mut self.events, None).is_err() {
                        return None;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
    }

    /// Writes one frame, waiting for writability as needed; the drain
    /// signal aborts the wait (the scraper is being shut out anyway).
    fn write_reply(&mut self, frame: &AdminFrame) -> io::Result<()> {
        let bytes = frame.encode();
        let mut written = 0;
        while written < bytes.len() {
            match self.stream.write(&bytes[written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.set_interest(Interest::WRITABLE)?;
                    self.poller.wait(&mut self.events, None)?;
                    // Woken by the drain signal with the socket still not
                    // writable? Keep trying: the final frame (`WatchDone`)
                    // must still go out; a dead peer errors the write.
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// How long an admin `Snapshot`/`Spans` request waits for in-flight spans
/// to be recorded (see [`Telemetry::settle_spans`]).
const SPAN_SETTLE: Duration = Duration::from_millis(100);

/// One admin scrape connection: `Hello` handshake first, then any number of
/// `Snapshot` / `Watch` / `Spans` requests. Every codec error drops the
/// connection; requests sent while draining are cut short so shutdown never
/// waits on a scraper.
fn run_admin_conn(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(mut io) = AdminIo::new(stream, shared) else {
        return;
    };
    let telemetry = &shared.telemetry;
    match io.read_request(shared) {
        Some(AdminFrame::Hello { .. }) => {
            let hello_ok = AdminFrame::HelloOk {
                version: ADMIN_PROTOCOL_VERSION,
                shards: shared.shards as u32,
                window_ns: dur_ns(telemetry.window_len()),
            };
            if io.write_reply(&hello_ok).is_err() {
                return;
            }
        }
        Some(_) => {
            let _ = io.write_reply(&AdminFrame::Error {
                message: "expected Hello first".to_owned(),
            });
            return;
        }
        None => return,
    }
    loop {
        let reply = match io.read_request(shared) {
            Some(AdminFrame::Snapshot) => {
                telemetry.settle_spans(SPAN_SETTLE);
                AdminFrame::SnapshotReply {
                    json: telemetry
                        .snapshot_full(&shared.stats, &shared.sessions)
                        .to_json_pretty(),
                }
            }
            Some(AdminFrame::Spans { max }) => {
                telemetry.settle_spans(SPAN_SETTLE);
                AdminFrame::SpansReply {
                    jsonl: telemetry.spans_jsonl(max as usize),
                }
            }
            Some(AdminFrame::Watch { windows }) => {
                if !stream_windows(&mut io, shared, windows) {
                    return;
                }
                continue;
            }
            Some(_) => {
                let _ = io.write_reply(&AdminFrame::Error {
                    message: "not a request frame".to_owned(),
                });
                return;
            }
            None => return,
        };
        if io.write_reply(&reply).is_err() {
            return;
        }
    }
}

/// Sends one `WindowDelta` per completed metric window until `windows`
/// have been streamed or the service starts draining, then `WatchDone`.
/// Returns false when the connection died mid-stream.
fn stream_windows(io: &mut AdminIo, shared: &Arc<Shared>, windows: u32) -> bool {
    let telemetry = &shared.telemetry;
    // Start from the window in progress: the client asked for windows
    // completed *after* the request, never a stale backlog.
    let mut next = telemetry.window_id();
    // Window completion is a function of time, so the wait is timed — but
    // the drain signal cuts it short, so shutdown never waits a full poll
    // interval on a mid-`Watch` scraper.
    let poll = (telemetry.window_len() / 8)
        .min(Duration::from_millis(25))
        .max(Duration::from_millis(1));
    let mut sent = 0u32;
    while sent < windows && !shared.draining.load(Ordering::SeqCst) {
        if telemetry.window_id() <= next {
            if io.set_interest(Interest::NONE).is_err()
                || io.poller.wait(&mut io.events, Some(poll)).is_err()
            {
                return false;
            }
            continue;
        }
        let json = telemetry
            .window_registry(next)
            .map_or_else(|| "{}".to_owned(), |r| r.to_json_compact());
        let delta = AdminFrame::WindowDelta {
            window_id: next,
            json,
        };
        if io.write_reply(&delta).is_err() {
            return false;
        }
        next += 1;
        sent += 1;
    }
    io.write_reply(&AdminFrame::WatchDone).is_ok()
}
