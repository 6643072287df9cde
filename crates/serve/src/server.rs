//! The resident daemon: accept loop, connection handlers, the supervised
//! worker pool and the socket-backed streaming [`Observer`].
//!
//! # Lifecycle
//!
//! [`Server::bind`] opens the listener; [`Server::run`] blocks in the accept
//! loop until a `shutdown` request arrives over any connection. Each
//! connection gets a handler thread that parses request frames and replies
//! inline to everything except `run`, which passes **admission control**
//! (deck size, parse, footprint budget, in-flight budget, overload stage)
//! before it reaches the bounded [`JobQueue`]. A supervised pool of worker
//! threads drains the queue; every worker session is constructed with
//! [`Simulator::with_shared_symbolic`] and [`Simulator::with_plan_cache`]
//! over the server's two warm caches, so jobs sharing a circuit fingerprint
//! perform exactly one symbolic analysis and one plan compilation
//! server-wide, however many clients submit them.
//!
//! # Hostile tenants
//!
//! The hardening layer assumes every peer misbehaves:
//!
//! * **Admission control** — a deck's footprint (unknowns, estimated
//!   nonzeros, declared `.tran` steps) is checked against [`crate::JobBudget`]
//!   before queueing; a server-wide in-flight unknown budget bounds total
//!   resident state; jobs that declare no deadline get the configured
//!   default. Refusals are attributed `rejected{reason}` frames.
//! * **Worker supervision** — a worker that panics attributes the failure
//!   to its job (`internal`-class error), then retires; the supervisor
//!   respawns a replacement with fresh thread state, bounded per window
//!   ([`ServeConfig::respawn_limit`]), after which the server runs degraded.
//! * **Connection robustness** — a frame that stalls mid-read past
//!   [`ServeConfig::read_timeout_ms`], or a connection idle past
//!   [`ServeConfig::idle_timeout_ms`], is reaped without occupying a worker;
//!   a client that stops reading trips [`ServeConfig::write_stall_ms`] on
//!   the socket and the job is cancelled at the next step boundary.
//! * **Overload ladder** — a queue that stays full escalates through
//!   documented stages: shed new decks, cancel running jobs past the soft
//!   deadline (deadline-less jobs first), then drain everything. Every
//!   transition is visible in [`ServerStats`].
//!
//! # Shutdown
//!
//! A `shutdown` request closes the queue (workers drain every already-queued
//! job before exiting) and half-closes the read side of every open
//! connection, which unblocks the handler threads without disturbing the
//! write side — a client whose job is still running keeps receiving chunks
//! until its final `done` frame.

use std::collections::{HashMap, VecDeque};
use std::io::{Read as _, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use exi_netlist::{parse_deck, Analysis, Deck};
use exi_sim::{
    analysis_options, resolve_probes, CancelReason, CancelToken, Engine, Method, Observer,
    PlanCache, Probe, RunStats, Simulator, StepOutcome,
};
use exi_sparse::SymbolicCache;

use crate::config::{OverloadConfig, ServeConfig};
use crate::protocol::{write_frame, FrameBuffer, FrameError, Request, Response, RunRequest};
use crate::queue::{JobQueue, PushError};
use crate::stats::ServerStats;

/// One admitted `run` request, queued for a worker. The deck is parsed at
/// admission (the footprint budget needs the circuit), so workers never see
/// unparseable input.
struct Job {
    id: String,
    deck: Deck,
    method: Method,
    probes: Vec<String>,
    decimate: usize,
    chunk_rows: usize,
    deadline: Option<Duration>,
    token: CancelToken,
    writer: Arc<ConnWriter>,
}

/// The cancel-registry entry of an active (queued or running) job — enough
/// state for wire cancellation, the in-flight budget and the overload
/// ladder's victim selection.
struct ActiveJob {
    token: CancelToken,
    /// Unknown count charged against `max_inflight_unknowns`.
    unknowns: usize,
    /// Set when a worker picks the job up; `None` while queued.
    started: Option<Instant>,
    /// Whether the job declared (or inherited) a deadline — deadline-less
    /// jobs are preferred overload victims.
    has_deadline: bool,
}

/// State shared by the accept loop, handlers, workers and the supervisor.
struct Shared {
    config: ServeConfig,
    queue: JobQueue<Job>,
    symbolic: Arc<SymbolicCache>,
    plans: Arc<PlanCache>,
    /// Lifetime job and solver counters, kept under one lock so a `stats`
    /// snapshot is internally consistent; [`Shared::snapshot`] fills in the
    /// live queue, ladder and cache fields.
    counters: Mutex<ServerStats>,
    /// Active (queued or running) jobs by id — the cancel registry.
    active: Mutex<HashMap<String, ActiveJob>>,
    /// Read-half handles of open connections, half-closed at shutdown to
    /// unblock handler threads.
    connections: Mutex<HashMap<u64, TcpStream>>,
    next_connection: AtomicU64,
    shutdown: AtomicBool,
    /// Summed unknown counts of active jobs (the in-flight budget).
    inflight_unknowns: AtomicUsize,
    /// Workers currently in their pop loop.
    live_workers: AtomicUsize,
    /// Workers that retired after a panic, awaiting supervisor respawn.
    dead_workers: AtomicUsize,
    /// Set when the respawn budget is exhausted with workers still dead.
    degraded: AtomicBool,
    /// Current overload-ladder stage (0 normal … 3 drain).
    overload_stage: AtomicUsize,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Shared {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            overload_stage: self.overload_stage.load(Ordering::SeqCst),
            queue_depth: self.queue.depth(),
            queue_capacity: self.queue.capacity(),
            workers: self.config.workers,
            symbolic_cache: self.symbolic.stats(),
            plan_cache: self.plans.stats(),
            ..*lock(&self.counters)
        }
    }

    /// Stops accepting work and unblocks every thread: future pushes fail,
    /// workers drain the backlog, handlers see EOF on their read half.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        for conn in lock(&self.connections).values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
    }

    /// Removes a job from the cancel registry and releases its in-flight
    /// unknown charge.
    fn release_job(&self, id: &str) -> Option<ActiveJob> {
        let entry = lock(&self.active).remove(id)?;
        self.inflight_unknowns
            .fetch_sub(entry.unknowns, Ordering::SeqCst);
        Some(entry)
    }
}

/// The write half of one connection: the socket behind a mutex (workers and
/// the handler interleave whole frames through it) plus, under
/// `wire-fault-injection`, the armed write-side fault state.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    #[cfg(feature = "wire-fault-injection")]
    fault: Mutex<WriteFaultState>,
}

#[cfg(feature = "wire-fault-injection")]
#[derive(Debug, Default)]
struct WriteFaultState {
    truncate_write: Option<(usize, usize)>,
    disconnect_at_write: Option<usize>,
    /// 1-based count of frame writes attempted on this connection.
    writes: usize,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> ConnWriter {
        ConnWriter {
            stream: Mutex::new(stream),
            #[cfg(feature = "wire-fault-injection")]
            fault: Mutex::new(WriteFaultState::default()),
        }
    }

    /// Locks the underlying stream — admission holds this across
    /// queue-push + reply so a worker's first `chunk` can never overtake
    /// the `accepted` frame.
    fn lock_stream(&self) -> MutexGuard<'_, TcpStream> {
        lock(&self.stream)
    }

    /// Writes one frame through an already-held stream lock, applying any
    /// armed write-side wire fault first.
    fn write_frame_with(&self, stream: &mut TcpStream, json: &str) -> std::io::Result<()> {
        #[cfg(feature = "wire-fault-injection")]
        {
            let mut fault = lock(&self.fault);
            fault.writes += 1;
            if fault.disconnect_at_write == Some(fault.writes) {
                let _ = stream.shutdown(Shutdown::Both);
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "fault injection: disconnect at write",
                ));
            }
            if let Some((at, bytes)) = fault.truncate_write {
                if at == fault.writes {
                    let mut frame = format!("{}\n{json}\n", json.len());
                    frame.truncate(bytes.min(frame.len()));
                    let _ = stream.write_all(frame.as_bytes());
                    let _ = stream.flush();
                    let _ = stream.shutdown(Shutdown::Both);
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::BrokenPipe,
                        "fault injection: truncated write",
                    ));
                }
            }
        }
        write_frame(stream, json)
    }

    fn write_response(&self, json: &str) -> std::io::Result<()> {
        let mut stream = self.lock_stream();
        self.write_frame_with(&mut stream, json)
    }
}

/// Serializes and writes one response frame; returns whether the peer is
/// still reachable. A write that failed because the client stalled past the
/// write-stall deadline is counted in `write_stalls`.
fn send(shared: &Shared, writer: &ConnWriter, response: &Response) -> bool {
    match writer.write_response(&response.to_json()) {
        Ok(()) => true,
        Err(e) => {
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                lock(&shared.counters).write_stalls += 1;
            }
            false
        }
    }
}

/// What the connection's frame reader produced.
enum ReadEvent {
    /// One complete frame payload.
    Frame(String),
    /// Clean end-of-stream (includes a peer that died mid-frame).
    Eof,
    /// The read/idle deadline expired; the connection is being reaped.
    Reaped,
    /// A transport error.
    Io,
    /// A protocol violation worth a `protocol_error` reply before closing.
    Violation(FrameError),
}

/// A frame reader with deadline enforcement: a *started* frame must complete
/// within the read timeout (the slow-loris bound), and an *empty* connection
/// must produce bytes within the idle timeout. Framing is
/// [`crate::protocol::decode_frame`]'s, through a [`FrameBuffer`].
struct TimedFrameReader {
    stream: TcpStream,
    frames: FrameBuffer,
    frame_timeout: Option<Duration>,
    idle_timeout: Option<Duration>,
    /// When the first byte of the pending frame arrived.
    frame_started: Option<Instant>,
    last_activity: Instant,
    blocking_configured: bool,
    #[cfg(feature = "wire-fault-injection")]
    frames_done: usize,
    #[cfg(feature = "wire-fault-injection")]
    stall_read_ms: Option<(usize, u64)>,
    #[cfg(feature = "wire-fault-injection")]
    corrupt_len_line: Option<usize>,
}

impl TimedFrameReader {
    fn new(stream: TcpStream, frame_timeout_ms: u64, idle_timeout_ms: u64) -> TimedFrameReader {
        TimedFrameReader {
            stream,
            frames: FrameBuffer::default(),
            frame_timeout: (frame_timeout_ms > 0).then(|| Duration::from_millis(frame_timeout_ms)),
            idle_timeout: (idle_timeout_ms > 0).then(|| Duration::from_millis(idle_timeout_ms)),
            frame_started: None,
            last_activity: Instant::now(),
            blocking_configured: false,
            #[cfg(feature = "wire-fault-injection")]
            frames_done: 0,
            #[cfg(feature = "wire-fault-injection")]
            stall_read_ms: None,
            #[cfg(feature = "wire-fault-injection")]
            corrupt_len_line: None,
        }
    }

    /// Blocks for the next frame (or deadline/EOF/error).
    fn read_event(&mut self, max_bytes: usize) -> ReadEvent {
        #[cfg(feature = "wire-fault-injection")]
        if let Some((frame, ms)) = self.stall_read_ms {
            if self.frames_done + 1 == frame {
                // One-shot: stall this connection's reader, then resume. A
                // stall past the idle deadline draws the reaper below.
                self.stall_read_ms = None;
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        loop {
            match self.frames.next_frame(max_bytes) {
                Ok(Some(payload)) => {
                    self.frame_started = (!self.frames.is_empty()).then(Instant::now);
                    #[cfg(feature = "wire-fault-injection")]
                    {
                        self.frames_done += 1;
                        if self.corrupt_len_line == Some(self.frames_done) {
                            return ReadEvent::Violation(FrameError::Malformed(
                                "fault injection: corrupted length line".to_string(),
                            ));
                        }
                    }
                    return ReadEvent::Frame(payload);
                }
                Ok(None) => {}
                Err(e) => return ReadEvent::Violation(e),
            }
            let now = Instant::now();
            let mut nearest: Option<Instant> = None;
            if let (Some(timeout), Some(started)) = (self.frame_timeout, self.frame_started) {
                let deadline = started + timeout;
                if now >= deadline {
                    return ReadEvent::Reaped;
                }
                nearest = Some(deadline);
            }
            if let Some(timeout) = self.idle_timeout {
                if self.frames.is_empty() {
                    let deadline = self.last_activity + timeout;
                    if now >= deadline {
                        return ReadEvent::Reaped;
                    }
                    nearest = Some(nearest.map_or(deadline, |n| n.min(deadline)));
                }
            }
            if !self.configure_timeout(nearest, now) {
                return ReadEvent::Io;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadEvent::Eof,
                Ok(n) => {
                    if self.frames.is_empty() {
                        self.frame_started = Some(Instant::now());
                    }
                    self.frames.extend(&chunk[..n]);
                    self.last_activity = Instant::now();
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // Deadline re-check at the top of the loop.
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return ReadEvent::Io,
            }
        }
    }

    /// Points the socket's receive timeout at the nearest deadline (clamped
    /// to at least 1 ms — a zero timeout is an error on every platform).
    /// Returns `false` if the socket refused configuration.
    fn configure_timeout(&mut self, nearest: Option<Instant>, now: Instant) -> bool {
        match nearest {
            Some(deadline) => {
                let remaining = deadline
                    .saturating_duration_since(now)
                    .max(Duration::from_millis(1));
                self.blocking_configured = false;
                self.stream.set_read_timeout(Some(remaining)).is_ok()
            }
            None => {
                if self.blocking_configured {
                    return true;
                }
                self.blocking_configured = true;
                self.stream.set_read_timeout(None).is_ok()
            }
        }
    }
}

/// The daemon. [`bind`](Server::bind) it, read
/// [`local_addr`](Server::local_addr), then [`run`](Server::run) it (usually
/// on its own thread); `run` returns the final [`ServerStats`] once a
/// `shutdown` request has drained the fleet.
pub struct Server {
    listener: TcpListener,
    shared: Shared,
}

impl Server {
    /// Binds the listen socket and builds the warm caches.
    ///
    /// # Errors
    ///
    /// Socket bind/configuration failures.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let symbolic = Arc::new(match config.symbolic_cache_capacity {
            Some(n) => SymbolicCache::with_capacity(n),
            None => SymbolicCache::new(),
        });
        let plans = Arc::new(match config.plan_cache_capacity {
            Some(n) => PlanCache::with_capacity(n),
            None => PlanCache::new(),
        });
        let queue = JobQueue::new(config.queue_capacity);
        Ok(Server {
            listener,
            shared: Shared {
                config,
                queue,
                symbolic,
                plans,
                counters: Mutex::new(ServerStats::default()),
                active: Mutex::new(HashMap::new()),
                connections: Mutex::new(HashMap::new()),
                next_connection: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                inflight_unknowns: AtomicUsize::new(0),
                live_workers: AtomicUsize::new(0),
                dead_workers: AtomicUsize::new(0),
                degraded: AtomicBool::new(false),
                overload_stage: AtomicUsize::new(0),
            },
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures of the socket.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the daemon until a `shutdown` request arrives, then drains
    /// in-flight jobs and returns the final statistics snapshot.
    pub fn run(self) -> ServerStats {
        let shared = &self.shared;
        std::thread::scope(|scope| {
            for _ in 0..shared.config.workers.max(1) {
                scope.spawn(|| worker_loop(shared));
            }
            scope.spawn(|| supervisor_loop(shared, scope));
            while !shared.shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        let accept_index =
                            shared.next_connection.fetch_add(1, Ordering::SeqCst) + 1;
                        scope.spawn(move || handle_connection(shared, stream, accept_index));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            // Defensive: if the loop exited for any reason other than a
            // shutdown request, release the workers and the supervisor.
            shared.queue.close();
        });
        shared.snapshot()
    }
}

/// Binds a daemon on `config`, announces it on `status` with the
/// `exi-serve listening on ADDR` line scripts wait for, serves until a
/// `shutdown` request drains it, then writes the drain summary line — the
/// whole life of both `exi-serve` and `exi-cli serve`.
///
/// # Errors
///
/// Socket bind failures and write failures on `status`.
pub fn serve(config: ServeConfig, status: &mut dyn Write) -> std::io::Result<ServerStats> {
    let server = Server::bind(config)?;
    writeln!(status, "exi-serve listening on {}", server.local_addr()?)?;
    status.flush()?;
    let stats = server.run();
    writeln!(
        status,
        "exi-serve: drained and stopped — {} completed, {} failed, {} cancelled, {} rejected; \
         {} symbolic analyses + {} warm hits, {} plan compilations + {} warm hits",
        stats.jobs_completed,
        stats.jobs_failed,
        stats.jobs_cancelled,
        stats.jobs_rejected,
        stats.symbolic_analyses,
        stats.shared_symbolic_hits,
        stats.plan_compilations,
        stats.shared_plan_hits,
    )?;
    Ok(stats)
}

/// One worker: drain the queue until it closes — or retire early after a
/// panicking job so the supervisor can replace this thread with a fresh one
/// (fresh stack, fresh thread-locals).
fn worker_loop(shared: &Shared) {
    shared.live_workers.fetch_add(1, Ordering::SeqCst);
    while let Some(job) = shared.queue.pop() {
        if execute_job(shared, job) {
            shared.live_workers.fetch_sub(1, Ordering::SeqCst);
            shared.dead_workers.fetch_add(1, Ordering::SeqCst);
            return;
        }
    }
    shared.live_workers.fetch_sub(1, Ordering::SeqCst);
}

/// The supervisor: respawns retired workers (bounded per sliding window,
/// then degraded mode) and drives the overload ladder. Exits when the queue
/// closes — shutdown drains with whatever workers remain.
fn supervisor_loop<'scope, 'env>(
    shared: &'env Shared,
    scope: &'scope std::thread::Scope<'scope, 'env>,
) {
    let window = Duration::from_millis(shared.config.respawn_window_ms.max(1));
    let mut respawn_times: VecDeque<Instant> = VecDeque::new();
    let mut full_since: Option<Instant> = None;
    while !shared.queue.is_closed() {
        let now = Instant::now();

        // --- worker supervision -----------------------------------------
        while respawn_times
            .front()
            .is_some_and(|t| now.duration_since(*t) > window)
        {
            respawn_times.pop_front();
        }
        while shared.dead_workers.load(Ordering::SeqCst) > 0 {
            if respawn_times.len() >= shared.config.respawn_limit.max(1) {
                // Budget exhausted: leave the deficit pending (the window
                // slides) and flag degraded mode.
                shared.degraded.store(true, Ordering::SeqCst);
                break;
            }
            if shared
                .dead_workers
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                respawn_times.push_back(now);
                scope.spawn(|| worker_loop(shared));
                lock(&shared.counters).workers_respawned += 1;
                shared.degraded.store(false, Ordering::SeqCst);
            }
        }

        // --- overload ladder --------------------------------------------
        let depth = shared.queue.depth();
        let capacity = shared.queue.capacity();
        if depth >= capacity {
            full_since.get_or_insert(now);
        } else if depth * 2 <= capacity {
            full_since = None;
        }
        let stage = ladder_stage(
            full_since.map(|since| now.duration_since(since)),
            &shared.config.overload,
        );
        let previous = shared.overload_stage.swap(stage, Ordering::SeqCst);
        if previous != stage {
            lock(&shared.counters).overload_transitions += 1;
        }
        if stage >= 2 {
            cancel_overload_victims(shared, now, stage);
        }

        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Maps how long the queue has been full onto a ladder stage.
fn ladder_stage(full_for: Option<Duration>, overload: &OverloadConfig) -> usize {
    let Some(full_for) = full_for else { return 0 };
    let ms = u64::try_from(full_for.as_millis()).unwrap_or(u64::MAX);
    if ms >= overload.drain_after_ms {
        3
    } else if ms >= overload.cancel_after_ms {
        2
    } else if ms >= overload.shed_after_ms {
        1
    } else {
        0
    }
}

/// Stage 2: cancel the single best victim — running past the soft deadline,
/// deadline-less jobs first, oldest first. Stage 3: cancel every running
/// job. Ladder cancellations ride the ordinary [`CancelToken`] contract, so
/// the client still receives a bit-exact prefix partial.
fn cancel_overload_victims(shared: &Shared, now: Instant, stage: usize) {
    let soft = Duration::from_millis(shared.config.overload.soft_deadline_ms);
    let active = lock(&shared.active);
    let mut victims: Vec<(&String, &ActiveJob, Instant)> = active
        .iter()
        .filter_map(|(id, entry)| {
            let started = entry.started?;
            if entry.token.is_cancelled() {
                return None;
            }
            if stage < 3 && now.duration_since(started) < soft {
                return None;
            }
            Some((id, entry, started))
        })
        .collect();
    if stage < 3 {
        // One victim per tick: deadline-less first, then oldest.
        victims.sort_by_key(|(_, entry, started)| (entry.has_deadline, *started));
        victims.truncate(1);
    }
    let cancelled = victims.len() as u64;
    for (_, entry, _) in victims {
        entry.token.cancel();
    }
    drop(active);
    if cancelled > 0 {
        lock(&shared.counters).jobs_cancelled_overload += cancelled;
    }
}

/// One connection's request loop. Exits on EOF, I/O failure, protocol
/// violation (after a `protocol_error` reply), reap (read/idle deadline) or
/// server shutdown.
fn handle_connection(shared: &Shared, stream: TcpStream, accept_index: u64) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    if shared.config.write_stall_ms > 0 {
        let _ = stream.set_write_timeout(Some(Duration::from_millis(
            shared.config.write_stall_ms.max(1),
        )));
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let Ok(registered) = stream.try_clone() else {
        return;
    };
    lock(&shared.connections).insert(accept_index, registered);
    // Close the race with a shutdown that began while we were registering:
    // from here on, `begin_shutdown` reaches this connection via the map.
    if shared.shutdown.load(Ordering::SeqCst) {
        let _ = stream.shutdown(Shutdown::Read);
    }
    let mut reader = TimedFrameReader::new(
        read_half,
        shared.config.read_timeout_ms,
        shared.config.idle_timeout_ms,
    );
    let writer = Arc::new(ConnWriter::new(stream));
    #[cfg(feature = "wire-fault-injection")]
    if let Some(spec) = crate::wirefault::install(accept_index as usize) {
        reader.stall_read_ms = spec.stall_read_ms;
        reader.corrupt_len_line = spec.corrupt_len_line;
        let mut fault = lock(&writer.fault);
        fault.truncate_write = spec.truncate_write;
        fault.disconnect_at_write = spec.disconnect_at_write;
    }
    loop {
        let frame = match reader.read_event(shared.config.max_frame_bytes) {
            ReadEvent::Frame(frame) => frame,
            ReadEvent::Eof | ReadEvent::Io => break,
            ReadEvent::Reaped => {
                lock(&shared.counters).connections_reaped += 1;
                break;
            }
            ReadEvent::Violation(e) => {
                send(
                    shared,
                    &writer,
                    &Response::ProtocolError {
                        message: e.to_string(),
                    },
                );
                break;
            }
        };
        let request = match Request::from_json(&frame) {
            Ok(request) => request,
            Err(message) => {
                send(shared, &writer, &Response::ProtocolError { message });
                break;
            }
        };
        match request {
            Request::Ping => {
                if !send(shared, &writer, &Response::Pong) {
                    break;
                }
            }
            Request::Stats => {
                if !send(shared, &writer, &Response::Stats(shared.snapshot())) {
                    break;
                }
            }
            Request::Cancel { id } => {
                let known = match lock(&shared.active).get(&id) {
                    Some(entry) => {
                        entry.token.cancel();
                        true
                    }
                    None => false,
                };
                if !send(shared, &writer, &Response::CancelAck { id, known }) {
                    break;
                }
            }
            Request::Shutdown => {
                send(shared, &writer, &Response::ShuttingDown);
                shared.begin_shutdown();
                break;
            }
            Request::Run(run) => {
                if !admit_run(shared, &writer, run) {
                    break;
                }
            }
        }
    }
    lock(&shared.connections).remove(&accept_index);
    // Dropping the reader and writer handles closes the socket once no
    // queued/running job still holds the writer — a reaped slow-loris with
    // no jobs closes immediately; a reaped connection with a streaming job
    // keeps its write half alive until the final frame.
}

/// The admission-time footprint estimate of one parsed deck.
struct Footprint {
    unknowns: usize,
    est_nnz: usize,
    declared_steps: usize,
}

/// Estimates a deck's resource footprint from its circuit and `.tran` card.
/// The nnz estimate is structural: each device or branch couples a bounded
/// number of unknown pairs (4 covers every two-terminal stamp plus the
/// diagonal contributions of MNA branch rows).
fn estimate_footprint(deck: &Deck, analysis: &Analysis) -> Footprint {
    let circuit = &deck.circuit;
    let unknowns = circuit.num_unknowns();
    let est_nnz = 4 * (circuit.num_devices() + circuit.num_branches()) + unknowns;
    let declared_steps = match analysis {
        Analysis::Tran { step, stop, .. } if *step > 0.0 && stop.is_finite() => {
            let ratio = (stop / step).ceil();
            if ratio.is_finite() && ratio >= 0.0 {
                ratio as usize
            } else {
                usize::MAX
            }
        }
        _ => 0,
    };
    Footprint {
        unknowns,
        est_nnz,
        declared_steps,
    }
}

/// Validates one `run` request end to end — deck size, parse, `.tran`
/// presence, per-job footprint budget, overload/degraded stage, in-flight
/// budget, id uniqueness — then enqueues it, replying `accepted`, `busy`,
/// `rejected` or an inline error. Returns whether the peer is still
/// reachable.
fn admit_run(shared: &Shared, writer: &Arc<ConnWriter>, run: RunRequest) -> bool {
    if run.deck.len() > shared.config.max_deck_bytes {
        return send(
            shared,
            writer,
            &job_error(
                &run.id,
                "usage",
                format!(
                    "deck is {} bytes; this server accepts at most {}",
                    run.deck.len(),
                    shared.config.max_deck_bytes
                ),
            ),
        );
    }
    // Parse at admission: the footprint budget needs the circuit, and a
    // worker should never burn queue time on unparseable input.
    let deck = match parse_deck(&run.deck) {
        Ok(deck) => deck,
        Err(e) => {
            lock(&shared.counters).jobs_failed += 1;
            return send(shared, writer, &job_error(&run.id, "parse", e.to_string()));
        }
    };
    let Some(analysis) = deck
        .analyses
        .iter()
        .find(|a| matches!(a, Analysis::Tran { .. }))
    else {
        lock(&shared.counters).jobs_failed += 1;
        return send(
            shared,
            writer,
            &job_error(&run.id, "usage", NO_TRAN.to_string()),
        );
    };
    let footprint = estimate_footprint(&deck, analysis);
    let budget = &shared.config.budget;
    let over_budget = if footprint.unknowns > budget.max_unknowns {
        Some(format!(
            "deck has {} unknowns; this server admits at most {}",
            footprint.unknowns, budget.max_unknowns
        ))
    } else if footprint.est_nnz > budget.max_est_nnz {
        Some(format!(
            "deck has an estimated {} matrix nonzeros; this server admits at most {}",
            footprint.est_nnz, budget.max_est_nnz
        ))
    } else if footprint.declared_steps > budget.max_declared_steps {
        Some(format!(
            ".tran card declares {} steps; this server admits at most {}",
            footprint.declared_steps, budget.max_declared_steps
        ))
    } else {
        None
    };
    if let Some(message) = over_budget {
        lock(&shared.counters).jobs_rejected_budget += 1;
        return send(
            shared,
            writer,
            &Response::Rejected {
                id: run.id,
                reason: "budget".to_string(),
                message,
            },
        );
    }
    if shared.degraded.load(Ordering::SeqCst) && shared.live_workers.load(Ordering::SeqCst) == 0 {
        lock(&shared.counters).jobs_shed_overload += 1;
        return send(
            shared,
            writer,
            &Response::Rejected {
                id: run.id,
                reason: "degraded".to_string(),
                message: "no live workers and the respawn budget is exhausted".to_string(),
            },
        );
    }
    if shared.overload_stage.load(Ordering::SeqCst) >= 1 {
        lock(&shared.counters).jobs_shed_overload += 1;
        return send(
            shared,
            writer,
            &Response::Rejected {
                id: run.id,
                reason: "overload".to_string(),
                message: "the server is shedding load (queue saturated); retry later".to_string(),
            },
        );
    }
    let inflight_limit = shared.config.max_inflight_unknowns;
    if inflight_limit > 0 {
        let previous = shared
            .inflight_unknowns
            .fetch_add(footprint.unknowns, Ordering::SeqCst);
        if previous + footprint.unknowns > inflight_limit {
            shared
                .inflight_unknowns
                .fetch_sub(footprint.unknowns, Ordering::SeqCst);
            lock(&shared.counters).jobs_rejected_budget += 1;
            return send(
                shared,
                writer,
                &Response::Rejected {
                    id: run.id,
                    reason: "inflight".to_string(),
                    message: format!(
                        "{} in-flight unknowns + {} requested exceed the server budget {}",
                        previous, footprint.unknowns, inflight_limit
                    ),
                },
            );
        }
    }
    let deadline_ms = run.deadline_ms.or_else(|| {
        (shared.config.default_deadline_ms > 0).then_some(shared.config.default_deadline_ms)
    });
    let token = CancelToken::new();
    {
        let mut active = lock(&shared.active);
        if active.contains_key(&run.id) {
            drop(active);
            if inflight_limit > 0 {
                shared
                    .inflight_unknowns
                    .fetch_sub(footprint.unknowns, Ordering::SeqCst);
            }
            return send(
                shared,
                writer,
                &job_error(
                    &run.id,
                    "usage",
                    "a job with this id is already active".to_string(),
                ),
            );
        }
        active.insert(
            run.id.clone(),
            ActiveJob {
                token: token.clone(),
                unknowns: if inflight_limit > 0 {
                    footprint.unknowns
                } else {
                    0
                },
                started: None,
                has_deadline: deadline_ms.is_some(),
            },
        );
    }
    let job = Job {
        id: run.id.clone(),
        deck,
        method: run.method,
        probes: run.probes,
        decimate: run.decimate,
        chunk_rows: run.chunk_rows.unwrap_or(shared.config.default_chunk_rows),
        deadline: deadline_ms.map(Duration::from_millis),
        token,
        writer: Arc::clone(writer),
    };
    // Admission and the `accepted` reply happen under the writer lock so the
    // first `chunk` frame (sent by a worker through the same lock) can never
    // overtake the `accepted` frame.
    let (alive, outcome) = {
        let mut stream = writer.lock_stream();
        let outcome = shared.queue.try_push(job);
        let reply = match &outcome {
            Ok(depth) => Response::Accepted {
                id: run.id.clone(),
                queue_depth: *depth,
            },
            Err(PushError::Full) => Response::Busy {
                id: run.id.clone(),
                queue_capacity: shared.queue.capacity(),
            },
            Err(PushError::Closed) => Response::ShuttingDown,
        };
        let alive = writer
            .write_frame_with(&mut stream, &reply.to_json())
            .is_ok();
        drop(stream);
        (alive, outcome)
    };
    match outcome {
        Ok(_) => {
            lock(&shared.counters).jobs_accepted += 1;
        }
        Err(_) => {
            shared.release_job(&run.id);
            if matches!(outcome, Err(PushError::Full)) {
                lock(&shared.counters).jobs_rejected += 1;
            }
        }
    }
    alive
}

/// Streams accepted waveform points to the job's client as `chunk` frames —
/// the socket-backed [`Observer`].
///
/// Rows are formatted to 17 significant digits the moment they are accepted
/// and transported as strings, so the client materializes bytes identical to
/// a local [`exi_sim::CsvObserver`] run. Memory is bounded by
/// `chunk_rows × columns` regardless of run length, and `decimate` keeps
/// every `k`-th accepted record (the DC point is record 0 and always kept).
struct WireObserver<'a> {
    shared: &'a Shared,
    id: String,
    writer: &'a ConnWriter,
    probes: Vec<Probe>,
    /// Column labels, shipped with the first chunk then cleared.
    columns: Option<Vec<String>>,
    decimate: usize,
    chunk_rows: usize,
    seen: usize,
    rows_sent: usize,
    seq: usize,
    buffer: Vec<Vec<String>>,
    /// Latched on the first failed socket write; no further frames are
    /// attempted and the driver stops the job at the next step boundary.
    dead: bool,
}

impl<'a> WireObserver<'a> {
    fn new(
        shared: &'a Shared,
        id: String,
        writer: &'a ConnWriter,
        probes: Vec<Probe>,
        decimate: usize,
        chunk_rows: usize,
    ) -> Self {
        let mut columns = Vec::with_capacity(probes.len() + 1);
        columns.push("time".to_string());
        columns.extend(probes.iter().map(|p| p.label.clone()));
        WireObserver {
            shared,
            id,
            writer,
            probes,
            columns: Some(columns),
            decimate: decimate.max(1),
            chunk_rows: chunk_rows.max(1),
            seen: 0,
            rows_sent: 0,
            seq: 0,
            buffer: Vec::new(),
            dead: false,
        }
    }

    fn record(&mut self, t: f64, x: &[f64]) {
        let keep = self.seen.is_multiple_of(self.decimate);
        self.seen += 1;
        if !keep || self.dead {
            return;
        }
        let mut row = Vec::with_capacity(self.probes.len() + 1);
        row.push(format!("{t:.17e}"));
        for p in &self.probes {
            row.push(format!("{:.17e}", x[p.unknown]));
        }
        self.buffer.push(row);
        if self.buffer.len() >= self.chunk_rows {
            self.flush_chunk();
        }
    }

    /// Sends the buffered rows as one `chunk` frame (a no-op when empty).
    fn flush_chunk(&mut self) {
        if self.dead || self.buffer.is_empty() {
            return;
        }
        let rows = std::mem::take(&mut self.buffer);
        let sent = rows.len();
        let chunk = Response::Chunk {
            id: self.id.clone(),
            seq: self.seq,
            columns: self.columns.take(),
            rows,
        };
        if send(self.shared, self.writer, &chunk) {
            self.seq += 1;
            self.rows_sent += sent;
        } else {
            self.dead = true;
        }
    }
}

impl Observer for WireObserver<'_> {
    fn on_dc(&mut self, t0: f64, x0: &[f64]) {
        self.record(t0, x0);
    }

    fn on_step_accepted(&mut self, t: f64, x: &[f64]) {
        self.record(t, x);
    }

    fn on_finish(&mut self, _final_state: &[f64], _stats: &RunStats) {
        self.flush_chunk();
    }
}

/// The refusal of a deck without a `.tran` card.
const NO_TRAN: &str = "deck has no .tran card (exi-serve runs transient analyses only)";

/// Builds a failure reply in the `exi-cli` error taxonomy.
fn job_error(id: &str, class: &str, message: String) -> Response {
    Response::JobError {
        id: id.to_string(),
        class: class.to_string(),
        message,
    }
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// Runs one job end to end, shielded by `catch_unwind`: a panicking job is
/// attributed to its id as an `internal`-class error and the return value
/// tells the worker to retire (the supervisor replaces it). Reports the
/// terminal frame plus the server-side counter updates. Returns `true` when
/// the job panicked.
fn execute_job(shared: &Shared, job: Job) -> bool {
    if let Some(entry) = lock(&shared.active).get_mut(&job.id) {
        entry.started = Some(Instant::now());
    }
    // Match the batch executor's discipline: install the job's armed fault
    // (if the feature is on), shield the run, always uninstall.
    #[cfg(feature = "fault-injection")]
    exi_sim::fault::install(&job.id);
    let result = catch_unwind(AssertUnwindSafe(|| run_job(shared, &job)));
    #[cfg(feature = "fault-injection")]
    exi_sim::fault::uninstall();
    match result {
        Ok((reply, session_stats)) => {
            shared.release_job(&job.id);
            {
                let mut counters = lock(&shared.counters);
                if let Some(stats) = &session_stats {
                    counters.accepted_steps += stats.accepted_steps;
                    counters.symbolic_analyses += stats.symbolic_analyses;
                    counters.shared_symbolic_hits += stats.shared_symbolic_hits;
                    counters.plan_compilations += stats.plan_compilations;
                    counters.shared_plan_hits += stats.shared_plan_hits;
                }
                match reply {
                    Response::Done { .. } => counters.jobs_completed += 1,
                    Response::Cancelled { .. } => counters.jobs_cancelled += 1,
                    _ => counters.jobs_failed += 1,
                }
            }
            send(shared, &job.writer, &reply);
            false
        }
        Err(payload) => {
            shared.release_job(&job.id);
            lock(&shared.counters).jobs_failed += 1;
            let reply = job_error(
                &job.id,
                "internal",
                format!(
                    "worker panicked while running this job: {}",
                    panic_message(payload)
                ),
            );
            send(shared, &job.writer, &reply);
            true
        }
    }
}

/// The solver side of one job: build the shared-cache session over the
/// admission-parsed deck, drive the stepper with between-step cancellation
/// checks (the PR 6 contract — a cancelled job's streamed rows are a
/// bit-exact prefix of the uncancelled run), and stream through a
/// [`WireObserver`].
fn run_job(shared: &Shared, job: &Job) -> (Response, Option<RunStats>) {
    let deck = &job.deck;
    let Some(analysis) = deck
        .analyses
        .iter()
        .find(|a| matches!(a, Analysis::Tran { .. }))
    else {
        // Unreachable: admission requires a .tran card. Kept as a typed
        // error rather than a panic so a future admission change degrades
        // gracefully.
        return (job_error(&job.id, "usage", NO_TRAN.to_string()), None);
    };
    let options = analysis_options(deck, analysis).expect("transient card maps to options");
    let probe_names = deck.effective_probes(&job.probes);
    let probe_refs: Vec<&str> = probe_names.iter().map(String::as_str).collect();
    let probes = match resolve_probes(&deck.circuit, &probe_refs) {
        Ok(probes) => probes,
        // Same class the CLI assigns to SimError (`CliError::Sim`).
        Err(e) => return (job_error(&job.id, "convergence", e.to_string()), None),
    };
    let mut sim = Simulator::with_shared_symbolic(&deck.circuit, Arc::clone(&shared.symbolic))
        .with_plan_cache(Arc::clone(&shared.plans));
    let mut observer = WireObserver::new(
        shared,
        job.id.clone(),
        &job.writer,
        probes,
        job.decimate,
        job.chunk_rows,
    );
    let deadline = job.deadline.map(|budget| Instant::now() + budget);
    let (outcome, stats) = {
        let mut stepper = match sim.stepper(job.method, &options) {
            Ok(stepper) => stepper,
            Err(e) => {
                let message = e.attributed(&deck.circuit).to_string();
                return (
                    job_error(&job.id, "convergence", message),
                    Some(sim.session_stats().clone()),
                );
            }
        };
        // Start (DC solve + `on_dc`) before the first cancellation check so
        // even a job cancelled on arrival streams its DC point.
        let outcome = match stepper.start(&mut observer) {
            Err(e) => Err(e),
            Ok(()) => loop {
                let cancel = if job.token.is_cancelled() {
                    Some(CancelReason::Token)
                } else if deadline.is_some_and(|limit| Instant::now() >= limit) {
                    Some(CancelReason::Deadline)
                } else if observer.dead {
                    // The client vanished; treat as a wire cancellation.
                    Some(CancelReason::Token)
                } else {
                    None
                };
                if let Some(reason) = cancel {
                    break Ok(Some((reason, stepper.time())));
                }
                match stepper.advance(&mut observer) {
                    Ok(StepOutcome::Finished) => break Ok(None),
                    Ok(_) => {}
                    Err(e) => break Err(e),
                }
            },
        };
        let stats = stepper.finish(&mut observer);
        (outcome, stats)
    };
    let reply = match outcome {
        Ok(None) => {
            sim.absorb_run(&stats);
            Response::Done {
                id: job.id.clone(),
                rows: observer.rows_sent,
                accepted_steps: stats.accepted_steps,
                symbolic_analyses: stats.symbolic_analyses,
                shared_symbolic_hits: stats.shared_symbolic_hits,
                plan_compilations: stats.plan_compilations,
                shared_plan_hits: stats.shared_plan_hits,
            }
        }
        Ok(Some((reason, at_time))) => {
            sim.absorb_partial(&stats);
            Response::Cancelled {
                id: job.id.clone(),
                reason: match reason {
                    CancelReason::Token => "token".to_string(),
                    CancelReason::Deadline => "deadline".to_string(),
                },
                at_time: format!("{at_time:.17e}"),
                rows: observer.rows_sent,
            }
        }
        Err(e) => {
            sim.absorb_partial(&stats);
            job_error(
                &job.id,
                "convergence",
                e.attributed(&deck.circuit).to_string(),
            )
        }
    };
    (reply, Some(sim.session_stats().clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_bounded() {
        let config = ServeConfig::default();
        assert!(config.queue_capacity >= 1);
        assert!(config.max_deck_bytes <= config.max_frame_bytes);
        assert!(config.symbolic_cache_capacity.is_some());
        assert!(config.plan_cache_capacity.is_some());
        // The in-flight budget must admit at least one maximal job, and the
        // ladder thresholds must be ordered.
        assert!(config.max_inflight_unknowns >= config.budget.max_unknowns);
        assert!(config.overload.shed_after_ms <= config.overload.cancel_after_ms);
        assert!(config.overload.cancel_after_ms <= config.overload.drain_after_ms);
    }

    #[test]
    fn snapshot_reflects_counters_and_queue() {
        let server = Server::bind(ServeConfig {
            queue_capacity: 3,
            workers: 5,
            ..ServeConfig::default()
        })
        .unwrap();
        {
            let mut counters = lock(&server.shared.counters);
            counters.jobs_accepted = 4;
            counters.jobs_rejected = 1;
            counters.jobs_rejected_budget = 2;
            counters.workers_respawned = 1;
            counters.connections_reaped = 3;
            counters.write_stalls = 1;
            counters.accepted_steps = 99;
        }
        let snap = server.shared.snapshot();
        assert_eq!(snap.jobs_accepted, 4);
        assert_eq!(snap.jobs_rejected, 1);
        assert_eq!(snap.jobs_rejected_budget, 2);
        assert_eq!(snap.workers_respawned, 1);
        assert_eq!(snap.connections_reaped, 3);
        assert_eq!(snap.write_stalls, 1);
        assert_eq!(snap.accepted_steps, 99);
        assert_eq!(snap.queue_capacity, 3);
        assert_eq!(snap.workers, 5);
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.overload_stage, 0);
    }

    #[test]
    fn ladder_stages_are_monotone_in_full_time() {
        let overload = OverloadConfig {
            shed_after_ms: 100,
            cancel_after_ms: 200,
            drain_after_ms: 400,
            soft_deadline_ms: 50,
        };
        assert_eq!(ladder_stage(None, &overload), 0);
        assert_eq!(ladder_stage(Some(Duration::from_millis(50)), &overload), 0);
        assert_eq!(ladder_stage(Some(Duration::from_millis(100)), &overload), 1);
        assert_eq!(ladder_stage(Some(Duration::from_millis(250)), &overload), 2);
        assert_eq!(ladder_stage(Some(Duration::from_millis(400)), &overload), 3);
        assert_eq!(ladder_stage(Some(Duration::from_secs(9999)), &overload), 3);
    }

    #[test]
    fn footprint_estimates_scale_with_the_deck() {
        let deck =
            parse_deck("V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1f\n.tran 1p 100p\n.print v(out)\n")
                .expect("parse");
        let analysis = deck
            .analyses
            .iter()
            .find(|a| matches!(a, Analysis::Tran { .. }))
            .expect("tran");
        let footprint = estimate_footprint(&deck, analysis);
        assert_eq!(footprint.unknowns, deck.circuit.num_unknowns());
        assert_eq!(footprint.declared_steps, 100);
        assert!(footprint.est_nnz >= footprint.unknowns);
    }

    #[test]
    fn timed_reader_parses_split_and_back_to_back_frames() {
        // A loopback socket pair exercises the real read path.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut reader = TimedFrameReader::new(server_side, 1_000, 1_000);
        // Two frames in one burst, the second split across writes.
        client.write_all(b"4\nping\n7\npa").unwrap();
        client.flush().unwrap();
        match reader.read_event(1024) {
            ReadEvent::Frame(frame) => assert_eq!(frame, "ping"),
            _ => panic!("expected first frame"),
        }
        client.write_all(b"rtial\n").unwrap();
        client.flush().unwrap();
        match reader.read_event(1024) {
            ReadEvent::Frame(frame) => assert_eq!(frame, "partial"),
            _ => panic!("expected second frame"),
        }
        drop(client);
        assert!(matches!(reader.read_event(1024), ReadEvent::Eof));
    }

    #[test]
    fn timed_reader_reaps_a_stalled_len_line() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        // 60 ms frame deadline, idle disabled: a partial length line with no
        // newline must be reaped, not buffered forever.
        let mut reader = TimedFrameReader::new(server_side, 60, 0);
        client.write_all(b"12").unwrap();
        client.flush().unwrap();
        let started = Instant::now();
        assert!(matches!(reader.read_event(1024), ReadEvent::Reaped));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "reap happens promptly"
        );
    }
}
