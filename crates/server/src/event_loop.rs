//! The front door of both daemons: an acceptor plus readiness-loop
//! shards that serve many pipelined connections per thread.
//!
//! [`start`] binds the whole front door for a daemon: one acceptor
//! thread admits connections up to a cap (past it, a fresh connection
//! gets one `bye (connection limit)` and a close) and deals them
//! round-robin to a fixed set of *shard* threads; each shard drives its
//! connections with nonblocking reads and writes from a hand-rolled
//! readiness loop (std-only polling — no new dependencies, in the same
//! spirit as the vendored shims). The backend server and the cluster
//! router run this identical loop and differ only in their
//! [`EventHandler`].
//!
//! Per connection the shard keeps a read buffer and a write buffer.
//! One wakeup decodes *every* complete newline-delimited frame in the
//! read buffer (up to the per-connection in-flight cap), so a
//! pipelining client pays one syscall for a burst of requests.
//! Responses complete out of worker-pool callbacks ([`offload`]): each
//! decoded request claims an ordered *slot* in the connection's
//! response queue and a [`Responder`] that fills it from whatever
//! thread finishes the work. Slots flush strictly in order, so
//! pipelined replies can never be reordered no matter how the pool
//! schedules the jobs.
//!
//! Connection lifecycle: the oversize cap answers `malformed request:
//! line exceeds N bytes` and closes, EOF mid-frame answers `malformed
//! request: truncated frame (EOF before newline)`, the idle clock
//! (which counts partial reads as activity) answers `bye (idle
//! timeout)`, the request budget answers `bye (request limit)`, and
//! daemon shutdown answers `bye (shutdown)` on every connection before
//! the shards exit.
//!
//! The front door keeps its own accounting in the daemon's
//! [`Registry`]: every served request lands in its endpoint's latency
//! histogram, and every admitted, rejected or limit-closed connection
//! bumps one of the [`FRONT_DOOR_METRICS`], which each daemon declares.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use folearn_obs::{Metric, Registry};
use parking_lot::Mutex;

use crate::pool::{Job, TrySubmit, WorkerPool};
use crate::proto::{Request, Response};

/// How long a shard sleeps when a full pass over its connections made
/// no progress (no bytes moved, no slots completed). Short enough that
/// an idle daemon answers a lone request in well under a millisecond;
/// a completed slot wakes the shard early (see [`Responder`]).
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// How long shards keep flushing in-flight responses after shutdown is
/// requested before abandoning the remaining connections.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(10);

/// Read chunk size per `read` syscall.
const READ_CHUNK: usize = 64 * 1024;

/// Pipelined requests one connection may have in flight before its
/// shard stops reading from it.
const MAX_INFLIGHT_PER_CONN: usize = 32;

/// A connection with nothing in flight and no bytes moved for this long
/// is *cold*: its shard reads it only every [`COLD_STRIDE`]-th pass. A
/// `read` per connection per pass is most of what an idle loop costs,
/// so cold peers must not pay it every time; the first request after
/// such a silence waits at most that many passes.
const COLD_AFTER: Duration = Duration::from_secs(1);

/// Passes between reads of a cold connection.
const COLD_STRIDE: u64 = 16;

/// Most shard threads a front door runs (the loops are I/O-bound; past
/// a few, more threads only add polling cost).
const MAX_LOOPS: usize = 4;

/// Per-connection limits enforced by the shards.
#[derive(Clone, Copy, Debug)]
pub struct ConnLimits {
    /// Requests served per connection before the daemon closes it.
    pub max_requests_per_conn: usize,
    /// Longest request line the daemon will buffer.
    pub max_line_bytes: usize,
    /// Close a connection after this long without any activity — a
    /// completed request *or* partial bytes of an in-progress frame.
    pub idle_timeout: Duration,
}

/// The connection-lifecycle counters the front door keeps: connections
/// admitted; closed for the request budget, idleness (no completed
/// request or partial bytes within the idle timeout) or an oversized
/// line; frames cut short by EOF (rejected, not served); connections
/// turned away at the cap. Every daemon declares them in its registry.
pub const FRONT_DOOR_METRICS: [Metric; 6] = [
    Metric::counter("connections"),
    Metric::counter("over_limit_closes"),
    Metric::counter("idle_closes"),
    Metric::counter("oversize_closes"),
    Metric::counter("truncated_frames"),
    Metric::counter("rejected_connections"),
];

/// Encode `response` and write it as one newline-terminated frame on a
/// blocking stream (the acceptor's one-shot replies).
fn write_response(writer: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut line = response.encode();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// One ordered response slot in a connection's reply queue.
struct Slot {
    cell: Mutex<Option<Response>>,
    /// The endpoint a served request is recorded under; `None` for
    /// synthetic lifecycle replies (bye, oversize), which are not
    /// requests.
    op: Option<&'static str>,
    started: Instant,
}

/// Completes one response slot from any thread, then wakes the owning
/// shard so an offloaded reply is flushed without waiting out its idle
/// sleep. Dropping a responder without calling [`Responder::complete`]
/// fills the slot with an error, so a worker dying between dequeue and
/// reply can never wedge the connection's ordered flush.
pub struct Responder {
    slot: Option<Arc<Slot>>,
    shard: Thread,
}

impl Responder {
    /// Fill the slot; the owning shard flushes it in order.
    pub fn complete(mut self, response: Response) {
        if let Some(slot) = self.slot.take() {
            *slot.cell.lock() = Some(response);
            self.shard.unpark();
        }
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            let mut cell = slot.cell.lock();
            if cell.is_none() {
                *cell = Some(Response::error(
                    "request was dropped: server is shutting down",
                ));
            }
            drop(cell);
            self.shard.unpark();
        }
    }
}

/// What the handler did with a decoded request.
pub enum Dispatch {
    /// Handled: the responder will complete the slot (it may already
    /// have, for requests answered inline on the loop thread).
    Accepted,
    /// The compute queue was full. The shard parks the prepared job and
    /// re-offers it via [`EventHandler::retry`] each tick, decoding no
    /// further frames from that connection until it is accepted —
    /// backpressure without stalling the whole shard.
    Busy(Job),
}

/// The daemon half of the front door: request dispatch and the shutdown
/// callback.
pub trait EventHandler: Send + Sync + 'static {
    /// Route one decoded request. Cheap requests should be answered
    /// inline (complete the responder and return [`Dispatch::Accepted`]);
    /// compute-shaped ones should be packaged into a pool job that
    /// completes the responder when it runs.
    fn dispatch(&self, req: Request, responder: Responder) -> Dispatch;

    /// Re-offer a parked job. `Err` hands it back for the next tick.
    fn retry(&self, job: Job) -> Result<(), Job>;

    /// A served request asked for daemon-wide shutdown (its `bye` reply
    /// has already been queued on the issuing connection).
    fn wants_shutdown(&self);
}

/// What the acceptor and every shard of one front door share.
struct Door {
    handler: Arc<dyn EventHandler>,
    metrics: Arc<Registry>,
    limits: ConnLimits,
}

/// Why a connection left the loop (internal).
enum ConnFate {
    Alive,
    Closed,
}

/// Per-connection state owned by one shard.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    /// Resume offset for the newline scan (bytes before it are known
    /// newline-free).
    scan_from: usize,
    write_buf: Vec<u8>,
    write_pos: usize,
    slots: VecDeque<Arc<Slot>>,
    /// A parked compute job (queue was full); decoding pauses until the
    /// pool accepts it.
    deferred: Option<Job>,
    served: usize,
    last_activity: Instant,
    /// No more reads; flush the remaining slots and close.
    closing: bool,
    peer_eof: bool,
}

impl Conn {
    fn adopt(stream: TcpStream) -> Option<Self> {
        stream.set_nonblocking(true).ok()?;
        let _ = stream.set_nodelay(true);
        Some(Self {
            stream,
            read_buf: Vec::new(),
            scan_from: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            slots: VecDeque::new(),
            deferred: None,
            served: 0,
            last_activity: Instant::now(),
            closing: false,
            peer_eof: false,
        })
    }

    /// Append a pre-completed reply (lifecycle byes and errors) that
    /// flushes after everything already in flight.
    fn push_synthetic(&mut self, response: Response) {
        self.slots.push_back(Arc::new(Slot {
            cell: Mutex::new(Some(response)),
            op: None,
            started: Instant::now(),
        }));
    }

    /// Queue the shutdown bye (idempotent via `closing`).
    fn begin_shutdown(&mut self) {
        if self.closing {
            return;
        }
        self.push_synthetic(Response::Bye {
            reason: "shutdown".to_string(),
        });
        self.closing = true;
    }

    /// Whether the shard may read more bytes from this peer; a cold one
    /// only on a pass that reads cold connections.
    fn may_read(&self, read_cold: bool) -> bool {
        !self.closing
            && !self.peer_eof
            && self.deferred.is_none()
            && self.slots.len() < MAX_INFLIGHT_PER_CONN
            && (read_cold
                || !self.slots.is_empty()
                || self.last_activity.elapsed() < COLD_AFTER)
    }

    /// One full service pass: retry deferred work, read + decode, check
    /// the idle clock, drain completed slots, flush the write buffer.
    /// `chunk` is the shard's read scratch, shared by its connections;
    /// `read_cold` says whether this pass reads cold connections.
    fn tick(
        &mut self,
        door: &Door,
        chunk: &mut [u8],
        read_cold: bool,
        progress: &mut bool,
    ) -> ConnFate {
        // Re-offer a parked compute job before anything else: its slot
        // is already in the queue and everything behind it is waiting.
        if let Some(job) = self.deferred.take() {
            match door.handler.retry(job) {
                Ok(()) => *progress = true,
                Err(job) => self.deferred = Some(job),
            }
        }

        // Read while the peer has bytes and the in-flight cap allows.
        while self.may_read(read_cold) {
            match self.stream.read(chunk) {
                Ok(0) => {
                    self.peer_eof = true;
                    *progress = true;
                }
                Ok(n) => {
                    *progress = true;
                    self.last_activity = Instant::now();
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    if self.decode_frames(door) {
                        return ConnFate::Closed;
                    }
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return ConnFate::Closed,
            }
        }

        // Frames buffered past the in-flight cap (or behind a deferred
        // job) were left undecoded by the read path; pick them up as
        // slots free, even when the peer sends nothing further.
        if !self.closing
            && self.deferred.is_none()
            && !self.read_buf.is_empty()
            && self.slots.len() < MAX_INFLIGHT_PER_CONN
            && self.decode_frames(door)
        {
            return ConnFate::Closed;
        }

        // Peer EOF: only once no complete buffered frame remains can
        // the leftover be judged (a partial frame is truncated; bare
        // whitespace is a clean hangup).
        if self.peer_eof && !self.closing && !self.read_buf.contains(&b'\n') {
            self.on_eof(door);
        }

        // Idle: only a connection with nothing pending in either
        // direction can be idle (a request being computed, or a reply
        // mid-flush, is activity: the clock only runs while waiting for
        // the next line).
        if !self.closing
            && self.slots.is_empty()
            && self.write_buf.len() == self.write_pos
            && self.deferred.is_none()
            && self.last_activity.elapsed() >= door.limits.idle_timeout
        {
            door.metrics.add("idle_closes", 1);
            self.push_synthetic(Response::Bye {
                reason: "idle timeout".to_string(),
            });
            self.closing = true;
        }

        // Drain completed slots, strictly in order, into the write
        // buffer.
        while let Some(front) = self.slots.front() {
            let response = front.cell.lock().take();
            let Some(response) = response else { break };
            let front = self.slots.pop_front().expect("front exists");
            *progress = true;
            if let Some(op) = front.op {
                let ok = !matches!(response, Response::Error { .. });
                let us = front.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                door.metrics.record_request(op, us, ok);
            }
            if let Response::Bye { reason } = &response {
                if !self.closing && reason == "shutdown" {
                    // A served shutdown request: tell the daemon after
                    // the bye is queued.
                    door.handler.wants_shutdown();
                }
                self.closing = true;
            }
            let mut line = response.encode();
            line.push('\n');
            self.write_buf.extend_from_slice(line.as_bytes());
        }

        // Flush as much of the write buffer as the socket accepts.
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return ConnFate::Closed,
                Ok(n) => {
                    self.write_pos += n;
                    *progress = true;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return ConnFate::Closed,
            }
        }
        if self.write_pos == self.write_buf.len() && self.write_pos > 0 {
            self.write_buf.clear();
            self.write_pos = 0;
        }

        // Fully drained and told to close (or the peer hung up cleanly
        // with nothing left to answer): done.
        if (self.closing || self.peer_eof)
            && self.slots.is_empty()
            && self.deferred.is_none()
            && self.write_buf.len() == self.write_pos
        {
            return ConnFate::Closed;
        }
        ConnFate::Alive
    }

    /// EOF from the peer: leftover bytes are a truncated frame,
    /// whitespace-only leftovers a clean hangup.
    fn on_eof(&mut self, door: &Door) {
        if self.closing {
            return;
        }
        let leftover = &self.read_buf[..];
        if !leftover.iter().all(|b| b.is_ascii_whitespace()) {
            door.metrics.add("truncated_frames", 1);
            self.push_synthetic(Response::error(
                "malformed request: truncated frame (EOF before newline)",
            ));
            self.closing = true;
        }
        self.read_buf.clear();
        self.scan_from = 0;
    }

    /// Decode every complete frame in the read buffer (bounded by the
    /// in-flight cap and the lifecycle limits). Returns `true` on a
    /// fatal framing failure (the connection must close with no reply).
    fn decode_frames(&mut self, door: &Door) -> bool {
        let limits = &door.limits;
        loop {
            if self.closing
                || self.deferred.is_some()
                || self.slots.len() >= MAX_INFLIGHT_PER_CONN
            {
                return false;
            }
            let nl = self.read_buf[self.scan_from..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|p| self.scan_from + p);
            let Some(nl) = nl else {
                // No complete frame. A partial frame that already blew
                // the cap is answered and closed right now — `read_buf`
                // growth is bounded no matter what arrives.
                if self.read_buf.len() > limits.max_line_bytes {
                    self.oversize(door);
                }
                self.scan_from = self.read_buf.len();
                return false;
            };
            // Frame length includes the newline.
            if nl + 1 > limits.max_line_bytes {
                self.oversize(door);
                return false;
            }
            let line: Vec<u8> = self.read_buf.drain(..=nl).collect();
            self.scan_from = 0;
            let Ok(text) = std::str::from_utf8(&line) else {
                // Invalid UTF-8 fails the connection without a reply.
                return true;
            };
            if text.trim().is_empty() {
                continue;
            }
            self.served += 1;
            if self.served > limits.max_requests_per_conn {
                door.metrics.add("over_limit_closes", 1);
                self.push_synthetic(Response::Bye {
                    reason: "request limit".to_string(),
                });
                self.closing = true;
                return false;
            }
            let started = Instant::now();
            match Request::decode(text.trim_end()) {
                Ok(req) => {
                    let slot = Arc::new(Slot {
                        cell: Mutex::new(None),
                        op: Some(req.op()),
                        started,
                    });
                    self.slots.push_back(Arc::clone(&slot));
                    let responder = Responder {
                        slot: Some(slot),
                        shard: std::thread::current(),
                    };
                    match door.handler.dispatch(req, responder) {
                        Dispatch::Accepted => {}
                        Dispatch::Busy(job) => self.deferred = Some(job),
                    }
                }
                Err(e) => {
                    // The prefix is load-bearing: a correct client knows
                    // its frame was well-formed, so it treats `malformed
                    // request` as proof of in-flight corruption and
                    // retries (see `RetryPolicy::is_retryable`).
                    let slot = Arc::new(Slot {
                        cell: Mutex::new(Some(Response::error(format!(
                            "malformed request: {e}"
                        )))),
                        op: Some("malformed"),
                        started,
                    });
                    self.slots.push_back(slot);
                }
            }
        }
    }

    fn oversize(&mut self, door: &Door) {
        door.metrics.add("oversize_closes", 1);
        self.push_synthetic(Response::error(format!(
            "malformed request: line exceeds {} bytes",
            door.limits.max_line_bytes
        )));
        self.closing = true;
        self.read_buf.clear();
        self.scan_from = 0;
    }
}

/// Run one shard: adopt connections from `inbox`, tick them until the
/// daemon shuts down, keep `live` in sync so the acceptor's admission
/// check and [`FrontDoor::live`] see the true count.
fn shard_loop(
    inbox: &Receiver<TcpStream>,
    door: &Door,
    shutdown: &AtomicBool,
    live: &AtomicUsize,
) {
    let mut conns: Vec<Conn> = Vec::new();
    // One read scratch per shard: zeroing a fresh one for every
    // connection on every pass would cost more than the `read` itself.
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut shutdown_deadline: Option<Instant> = None;
    let mut inbox_closed = false;
    let mut pass = 0u64;
    loop {
        let mut progress = false;
        let read_cold = pass % COLD_STRIDE == 0;
        pass = pass.wrapping_add(1);

        while !inbox_closed {
            match inbox.try_recv() {
                Ok(stream) => {
                    progress = true;
                    match Conn::adopt(stream) {
                        Some(conn) => conns.push(conn),
                        None => {
                            live.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    inbox_closed = true;
                    break;
                }
            }
        }

        if shutdown.load(Ordering::SeqCst) {
            if shutdown_deadline.is_none() {
                shutdown_deadline = Some(Instant::now() + SHUTDOWN_GRACE);
            }
            for conn in &mut conns {
                conn.begin_shutdown();
            }
        }

        conns.retain_mut(|conn| {
            match conn.tick(door, &mut chunk, read_cold, &mut progress) {
                ConnFate::Alive => true,
                ConnFate::Closed => {
                    live.fetch_sub(1, Ordering::SeqCst);
                    false
                }
            }
        });

        if let Some(deadline) = shutdown_deadline {
            if conns.is_empty() || Instant::now() >= deadline {
                live.fetch_sub(conns.len(), Ordering::SeqCst);
                return;
            }
        }

        if !progress {
            std::thread::park_timeout(IDLE_SLEEP);
        }
    }
}

/// A running front door: the acceptor and shard threads of one daemon.
pub struct FrontDoor {
    acceptor: Option<JoinHandle<()>>,
    loops: Vec<JoinHandle<()>>,
    num_loops: usize,
    live: Arc<AtomicUsize>,
}

impl FrontDoor {
    /// Connections currently owned by the shards.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Shard (readiness-loop) threads serving connections.
    pub fn loops(&self) -> usize {
        self.num_loops
    }

    /// Wait for the acceptor and every shard to exit. They do once the
    /// shutdown flag is set (and the acceptor has been woken by one more
    /// connection); shards first flush in-flight replies, bounded by a
    /// grace period.
    pub fn join(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for h in self.loops.drain(..) {
            let _ = h.join();
        }
    }
}

/// Serve `listener` with `handler`: one acceptor thread that admits up
/// to `max_connections` live connections and deals them round-robin to
/// one shard thread per host core (at most four). Served requests and
/// connection-lifecycle events are recorded in `metrics`, which must
/// declare [`FRONT_DOOR_METRICS`]. Threads are named after `name`.
/// Everything exits once `shutdown` is set; the daemon must then wake
/// the blocked acceptor with one more connection.
pub fn start(
    name: &str,
    listener: TcpListener,
    handler: Arc<dyn EventHandler>,
    metrics: Arc<Registry>,
    limits: ConnLimits,
    max_connections: usize,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<FrontDoor> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let num_loops = cores.min(MAX_LOOPS);
    let max_connections = max_connections.max(1);
    let live = Arc::new(AtomicUsize::new(0));
    let door = Arc::new(Door {
        handler,
        metrics,
        limits,
    });

    let mut senders = Vec::with_capacity(num_loops);
    let mut loops = Vec::with_capacity(num_loops);
    for i in 0..num_loops {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        senders.push(tx);
        let door = Arc::clone(&door);
        let live = Arc::clone(&live);
        let shutdown = Arc::clone(&shutdown);
        loops.push(
            std::thread::Builder::new()
                .name(format!("{name}-loop-{i}"))
                .spawn(move || shard_loop(&rx, &door, &shutdown, &live))?,
        );
    }

    let acceptor = {
        let live = Arc::clone(&live);
        std::thread::Builder::new()
            .name(format!("{name}-acceptor"))
            .spawn(move || {
                let mut next = 0usize;
                for incoming in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = incoming else { continue };
                    if live.load(Ordering::SeqCst) >= max_connections {
                        door.metrics.add("rejected_connections", 1);
                        let _ = write_response(
                            &mut stream,
                            &Response::Bye {
                                reason: "connection limit".to_string(),
                            },
                        );
                        continue;
                    }
                    door.metrics.add("connections", 1);
                    live.fetch_add(1, Ordering::SeqCst);
                    let shard = next % senders.len();
                    next = next.wrapping_add(1);
                    if let Err(back) = senders[shard].send(stream) {
                        // The shard is gone (only plausible during
                        // shutdown): degrade with a reply, not a panic.
                        live.fetch_sub(1, Ordering::SeqCst);
                        door.metrics.add("rejected_connections", 1);
                        let mut stream = back.0;
                        let _ = write_response(
                            &mut stream,
                            &Response::error("server overloaded: event loop unavailable"),
                        );
                    }
                }
            })?
    };

    Ok(FrontDoor {
        acceptor: Some(acceptor),
        loops,
        num_loops,
        live,
    })
}

/// Package `run` into a pool job that completes `responder`. A panic in
/// `run` is caught into a `"{prefix}: worker panicked: …"` error reply
/// and counted (the worker thread survives either way; see the pool's
/// own `catch_unwind` backstop). A full queue hands the job back as
/// [`Dispatch::Busy`] for the shard to park.
pub fn offload(
    pool: &WorkerPool,
    prefix: &'static str,
    responder: Responder,
    run: impl FnOnce() -> Response + Send + 'static,
) -> Dispatch {
    let panics = pool.panic_cell();
    let job: Job = Box::new(move || {
        let response = match catch_unwind(AssertUnwindSafe(run)) {
            Ok(response) => response,
            Err(payload) => {
                panics.fetch_add(1, Ordering::Relaxed);
                folearn_obs::count(folearn_obs::Counter::WorkerPanics, 1);
                let message = panic_message(&payload);
                Response::error(format!("{prefix}: worker panicked: {message}"))
            }
        };
        responder.complete(response);
    });
    match pool.try_submit(job) {
        Ok(()) => Dispatch::Accepted,
        Err(TrySubmit::Full(job)) => Dispatch::Busy(job),
        // Pool is shutting down: the dropped job's responder has
        // already answered the slot with an error.
        Err(TrySubmit::Closed) => Dispatch::Accepted,
    }
}

/// Re-offer a parked job to `pool`: the [`EventHandler::retry`] of a
/// handler that offloads with [`offload`].
pub fn resubmit(pool: &WorkerPool, job: Job) -> Result<(), Job> {
    match pool.try_submit(job) {
        Ok(()) => Ok(()),
        Err(TrySubmit::Full(job)) => Err(job),
        // Dropped job: its responder answered the slot already.
        Err(TrySubmit::Closed) => Ok(()),
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Json;
    use std::io::{BufRead, BufReader};

    /// A handler that answers pings inline and never offloads.
    struct Echo;
    impl EventHandler for Echo {
        fn dispatch(&self, req: Request, responder: Responder) -> Dispatch {
            let resp = match req {
                Request::Ping => Response::Pong,
                Request::Shutdown => Response::Bye {
                    reason: "shutdown".to_string(),
                },
                _ => Response::error("echo handler only pings"),
            };
            responder.complete(resp);
            Dispatch::Accepted
        }
        fn retry(&self, _job: Job) -> Result<(), Job> {
            Ok(())
        }
        fn wants_shutdown(&self) {}
    }

    /// Run `body` against an echo front door, then shut it down and
    /// return the front door's accounting.
    fn with_echo(limits: ConnLimits, body: impl FnOnce(std::net::SocketAddr)) -> Registry {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(Registry::new("echo", &[&FRONT_DOOR_METRICS]));
        let mut front = start(
            "echo",
            listener,
            Arc::new(Echo),
            Arc::clone(&metrics),
            limits,
            16,
            Arc::clone(&shutdown),
        )
        .unwrap();
        body(addr);
        shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        front.join();
        assert_eq!(front.live(), 0, "every connection is accounted for");
        drop(front);
        Arc::into_inner(metrics).expect("the front door let go of its registry")
    }

    #[test]
    fn pipelined_pings_come_back_in_order() {
        let limits = ConnLimits {
            max_requests_per_conn: 1000,
            max_line_bytes: 1 << 20,
            idle_timeout: Duration::from_secs(30),
        };
        let metrics = with_echo(limits, |addr| {
            let mut stream = TcpStream::connect(addr).unwrap();
            let burst = "{\"op\":\"ping\"}\n".repeat(50);
            stream.write_all(burst.as_bytes()).unwrap();
            let mut reader = BufReader::new(stream);
            for _ in 0..50 {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert!(line.contains("pong"), "got {line:?}");
            }
        });
        // The front door did its own accounting: every ping served, and
        // the client plus the shutdown wake-up connection admitted.
        let snap = metrics.snapshot();
        let ping = snap.get("endpoints").and_then(|e| e.get("ping")).unwrap();
        assert_eq!(ping.get("count").and_then(Json::as_usize), Some(50));
        assert!(snap.get("connections").and_then(Json::as_usize) >= Some(1));
    }

    #[test]
    fn oversize_mid_pipeline_answers_pending_then_errors() {
        let limits = ConnLimits {
            max_requests_per_conn: 1000,
            max_line_bytes: 64,
            idle_timeout: Duration::from_secs(30),
        };
        let metrics = with_echo(limits, |addr| {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut burst = String::from("{\"op\":\"ping\"}\n");
            burst.push_str(&"x".repeat(200));
            burst.push('\n');
            stream.write_all(burst.as_bytes()).unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("pong"), "got {line:?}");
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("exceeds 64 bytes"), "got {line:?}");
            line.clear();
            assert_eq!(reader.read_line(&mut line).unwrap(), 0, "closed after");
        });
        let snap = metrics.snapshot();
        assert_eq!(snap.get("oversize_closes").and_then(Json::as_usize), Some(1));
    }

    #[test]
    fn offload_turns_a_panic_into_an_error_reply_and_the_pool_survives() {
        let pool = WorkerPool::new(1, 4);
        let run = |run: Box<dyn FnOnce() -> Response + Send>| {
            let slot = Arc::new(Slot {
                cell: Mutex::new(None),
                op: Some("solve"),
                started: Instant::now(),
            });
            let responder = Responder {
                slot: Some(Arc::clone(&slot)),
                shard: std::thread::current(),
            };
            assert!(matches!(
                offload(&pool, "solve", responder, run),
                Dispatch::Accepted
            ));
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                if let Some(response) = slot.cell.lock().take() {
                    return response;
                }
                assert!(Instant::now() < deadline, "the slot was never completed");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        match run(Box::new(|| panic!("boom at level {}", 3))) {
            Response::Error { message, .. } => {
                assert!(message.starts_with("solve: worker panicked"), "{message:?}");
                assert!(message.contains("boom at level 3"), "{message:?}");
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
        assert_eq!(pool.panic_count(), 1);
        // The single worker survived and still serves.
        assert!(matches!(run(Box::new(|| Response::Pong)), Response::Pong));
        assert_eq!(pool.num_workers(), 1);
    }
}
