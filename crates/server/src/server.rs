//! The daemon: TCP listener, structure registry, solve dispatch, and
//! graceful shutdown.
//!
//! Connections are served by the front door of [`crate::event_loop`]:
//! a fixed set of loop threads drives every connection with
//! per-connection read/write buffers and decodes many pipelined frames
//! per wakeup. [`ServerDispatch`] answers cheap requests (ping, stats,
//! register, cache hits, validation errors) inline on the loop thread
//! and offloads compute-shaped work (`solve`, `evaluate`, `modelcheck`)
//! to the bounded [`WorkerPool`], whose callbacks complete the
//! connection's ordered response slots. Duplicate solves planned before
//! their twin's result reaches the cache — routine inside a pipelined
//! window — coalesce onto the one in-flight computation
//! ([`State::inflight`]) and are replayed to every waiter as cache hits
//! when it lands.
//!
//! Backpressure is structural: the pool queue is bounded, a connection
//! may have a bounded number of requests in flight, and each
//! connection is closed after [`ServerConfig::max_requests_per_conn`]
//! requests. Resource exhaustion degrades instead of panicking: past
//! the connection cap a fresh connection gets one reply and a close,
//! counted as `rejected_connections`.
//!
//! # Registry and arenas
//!
//! Structures are parsed once at `register` and addressed by the FNV-1a
//! hash of their *canonical* serialisation (`io::to_text` of the parsed
//! graph), so textual variants of the same structure dedupe. A
//! hypothesis is addressed the same way, by the content hash of the
//! solve that derives it ([`crate::proto::hypothesis_id`]): that one id
//! keys the result cache, in-flight coalescing and the hypothesis
//! store, and every daemon names the same solve alike whatever its
//! cache state or restart history. The registry, the hypothesis store,
//! and the LRU result cache are sharded by a splitmix64 finalizer over
//! those content hashes ([`crate::cache::ShardedMap`] /
//! [`crate::cache::ShardedCache`]), so concurrent requests stop
//! serializing on one lock. Type arenas are shared per vocabulary
//! colour count — the same discipline as
//! `folearn_hardness::oracle::BruteForceOracle`.
//!
//! # Metrics
//!
//! The daemon's `stats` reply is its [`Registry`] snapshot. The front
//! door records served requests and connection-lifecycle counters
//! itself; the daemon declares the rest in [`BACKEND_METRICS`] and keeps
//! them current: WAL appends and solver work as they happen, and the
//! cache, store and pool figures copied from their sources of truth
//! when `stats` is asked for.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use folearn::bruteforce::BruteForceOpts;
use folearn::ndlearner::NdConfig;
use folearn::problem::{ErmInstance, TrainingSequence};
use folearn::{solve_fo_erm, Hypothesis, SharedArena, Solver};
use folearn_graph::{io, Graph, V};
use folearn_logic::parser;
use folearn_logic::vm::EvalEngine;
use folearn_obs::{Metric, Registry};
use folearn_types::TypeArena;
use parking_lot::Mutex;

use crate::cache::{ShardedCache, ShardedMap};
use crate::event_loop::{
    self, ConnLimits, Dispatch, EventHandler, FrontDoor, Responder, FRONT_DOOR_METRICS,
};
use crate::pool::{Job, WorkerPool};
use crate::proto::{
    fnv1a64, hex64, hypothesis_id, Json, Request, Response, SolveOutcome, SolverSpec,
    TraceContext, WireBinding, WireExample, WireHypothesis,
};
use crate::snapshot::{Durability, DurableRecord, DEFAULT_SNAPSHOT_EVERY};

/// Hard ceiling on per-request solver threads: a typo like
/// `--threads 999999` must fail with a protocol error, not abort the
/// daemon trying to spawn a million OS threads.
pub const MAX_SOLVER_THREADS: usize = 256;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads for compute requests (`0` = one per core).
    pub workers: usize,
    /// Pending compute jobs before a connection's next compute request
    /// is parked until the queue has room.
    pub queue_depth: usize,
    /// Result-cache entries (`0` disables caching).
    pub cache_capacity: usize,
    /// Requests served per connection before the daemon closes it.
    pub max_requests_per_conn: usize,
    /// Capture a learner-level span tree per solve (surfaced as the
    /// `trace` field of `solved` responses and aggregated under `spans`
    /// in the `stats` payload). Enabling turns on `folearn_obs` capture
    /// process-wide; disabling leaves the global flag untouched.
    pub trace: bool,
    /// Longest request line the daemon will buffer. A peer that exceeds
    /// it (oversized frame, or a byte stream with no newline at all)
    /// gets one `error` response and the connection is closed — buffer
    /// growth is bounded no matter what arrives.
    pub max_line_bytes: usize,
    /// Close a connection after this long without activity (a completed
    /// request or partial bytes of an in-progress frame). Bounds
    /// abandoned sockets; the oversize cap bounds slow-loris peers.
    pub idle_timeout: Duration,
    /// Concurrent connections the daemon accepts; above the cap a fresh
    /// connection is greeted with `bye` and closed (counted under
    /// `rejected_connections`).
    pub max_connections: usize,
    /// Lock shards for the result cache, the structure registry, and
    /// the hypothesis store.
    pub cache_shards: usize,
    /// Durable-state directory. When set, every registry/hypothesis
    /// mutation is fsync'd into a write-ahead log there before the
    /// response is sent, periodic compacted snapshots bound replay
    /// time, and startup replays the log into bit-identical pre-crash
    /// state. `None` (the default) keeps today's in-memory behaviour,
    /// byte-for-byte.
    pub data_dir: Option<std::path::PathBuf>,
    /// WAL appends between snapshot compactions (`0` = the default,
    /// [`crate::snapshot::DEFAULT_SNAPSHOT_EVERY`]).
    pub snapshot_every: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_depth: 64,
            cache_capacity: 256,
            max_requests_per_conn: 100_000,
            trace: true,
            max_line_bytes: 4 << 20,
            idle_timeout: Duration::from_secs(300),
            max_connections: 256,
            cache_shards: 8,
            data_dir: None,
            snapshot_every: 0,
        }
    }
}

struct StoredHypothesis {
    hypothesis: Hypothesis,
    /// The structure the hypothesis was learned on (evaluate requests
    /// must target the same one).
    structure: u64,
}

/// The counters, gauges and flags a backend declares beyond the front
/// door's: pool, store and recovery figures, the WAL, the solve cache
/// and the solver's work.
pub const BACKEND_METRICS: [Metric; 18] = [
    Metric::counter("worker_panics"),
    Metric::gauge("event_loops"),
    Metric::gauge("structures"),
    Metric::gauge("hypotheses"),
    Metric::flag("durable"),
    Metric::counter("wal_records_written"),
    Metric::counter("wal_records_replayed"),
    Metric::counter("snapshot_loads"),
    Metric::counter("torn_tail_truncations"),
    Metric::gauge("recovery_ms"),
    Metric::counter("cache.hits"),
    Metric::counter("cache.misses"),
    Metric::counter("cache.evictions"),
    Metric::gauge("cache.entries"),
    Metric::gauge("cache.shards"),
    Metric::hit_rate("cache.hit_rate"),
    Metric::counter("solver.evaluated_params"),
    Metric::counter("solver.pruned_params"),
];

/// Everything a backend's registry declares, in `stats` order.
pub const METRICS: [&[Metric]; 2] = [&FRONT_DOOR_METRICS, &BACKEND_METRICS];

struct State {
    graphs: ShardedMap<Arc<Graph>>,
    arenas: Mutex<HashMap<usize, SharedArena>>,
    hypotheses: ShardedMap<Arc<StoredHypothesis>>,
    /// Solve results, keyed by hypothesis id, plus the instant each
    /// entry was captured, so a replayed trace can be stamped with its
    /// age.
    cache: ShardedCache<(SolveOutcome, Instant)>,
    /// Solve computations currently running on the pool, keyed by
    /// hypothesis id. A pipelined duplicate of a solve whose twin has
    /// been planned but not yet cached attaches its responder here
    /// instead of recomputing; the running job fans its outcome out to
    /// every waiter when it completes.
    inflight: Mutex<HashMap<u64, Vec<Responder>>>,
    metrics: Arc<Registry>,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
    max_requests_per_conn: usize,
    max_line_bytes: usize,
    idle_timeout: Duration,
    /// The open durability layer, present only under `--data-dir`.
    /// `None` throughout startup replay, so replayed mutations are
    /// never re-appended to the log they came from.
    durable: Mutex<Option<Durability>>,
}

impl State {
    fn graph(&self, hash: u64) -> Result<Arc<Graph>, String> {
        self.graphs
            .get(hash)
            .ok_or_else(|| format!("unknown structure {}", crate::proto::hex64(hash)))
    }

    /// The shared arena for this graph's vocabulary (keyed by colour
    /// count, as in the in-process oracle).
    fn arena_for(&self, g: &Graph) -> SharedArena {
        let mut arenas = self.arenas.lock();
        Arc::clone(
            arenas
                .entry(g.vocab().num_colors())
                .or_insert_with(|| {
                    Arc::new(Mutex::new(TypeArena::new(Arc::clone(g.vocab()))))
                }),
        )
    }

    /// Copy the cache and store figures from their sources of truth.
    fn sync_gauges(&self) {
        let (hits, misses, evictions) = self.cache.counters();
        self.metrics.set(&[
            ("cache.hits", hits),
            ("cache.misses", misses),
            ("cache.evictions", evictions),
            ("cache.entries", self.cache.len() as u64),
            ("structures", self.graphs.len() as u64),
            ("hypotheses", self.hypotheses.len() as u64),
        ]);
    }

    fn limits(&self) -> ConnLimits {
        ConnLimits {
            max_requests_per_conn: self.max_requests_per_conn,
            max_line_bytes: self.max_line_bytes,
            idle_timeout: self.idle_timeout,
        }
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Poke the acceptor so a blocking accept() observes the flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// Append one mutation to the WAL, if durability is active. The
    /// append fsyncs before returning, so by the time the caller sends
    /// its response the mutation survives `kill -9`. An I/O failure is
    /// surfaced loudly but does not fail the request: the in-memory
    /// state is still correct, only its durability is degraded.
    fn persist(&self, record: &DurableRecord) {
        let mut durable = self.durable.lock();
        if let Some(d) = durable.as_mut() {
            match d.append(record) {
                Ok(_compacted) => self.metrics.add("wal_records_written", 1),
                Err(e) => eprintln!("folearn-server: WAL append failed: {e}"),
            }
        }
    }
}

/// A running daemon. Dropping the handle without calling
/// [`ServerHandle::shutdown`] or [`ServerHandle::wait`] aborts less
/// gracefully (threads are detached), so call one of them.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<State>,
    front: FrontDoor,
    pool: Arc<WorkerPool>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live connections currently owned by the front door's shards.
    pub fn tracked_connections(&self) -> usize {
        self.front.live()
    }

    /// Ask the daemon to stop, then wait for all threads.
    pub fn shutdown(mut self) {
        self.state.request_shutdown();
        self.join_all();
    }

    /// Block until a client issues a `shutdown` request, then clean up.
    pub fn wait(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        // Shards flush in-flight responses (bounded by the shutdown
        // grace) and exit; their handler clones — the only other pool
        // references — drop with them. Jobs never capture the pool (see
        // `WorkerPool::panic_cell`).
        self.front.join();
        if let Some(pool) = Arc::get_mut(&mut self.pool) {
            pool.shutdown();
        }
    }
}

/// Bind and start serving. Returns once the listener is live.
pub fn start(config: &ServerConfig) -> std::io::Result<ServerHandle> {
    if config.trace {
        folearn_obs::set_enabled(true);
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shards = config.cache_shards.max(1);
    let state = Arc::new(State {
        graphs: ShardedMap::new(shards),
        arenas: Mutex::new(HashMap::new()),
        hypotheses: ShardedMap::new(shards),
        cache: ShardedCache::new(config.cache_capacity, shards),
        inflight: Mutex::new(HashMap::new()),
        metrics: Arc::new(Registry::new("server", &METRICS).with_span_rollup()),
        shutdown: Arc::new(AtomicBool::new(false)),
        addr,
        max_requests_per_conn: config.max_requests_per_conn.max(1),
        max_line_bytes: config.max_line_bytes.max(1),
        idle_timeout: config.idle_timeout,
        durable: Mutex::new(None),
    });
    if let Some(dir) = &config.data_dir {
        let every = if config.snapshot_every == 0 {
            DEFAULT_SNAPSHOT_EVERY
        } else {
            config.snapshot_every
        };
        recover(&state, dir, every)?;
    }
    let pool = Arc::new(WorkerPool::new(config.workers, config.queue_depth));
    let handler = Arc::new(ServerDispatch {
        state: Arc::clone(&state),
        pool: Arc::clone(&pool),
    });
    let front = event_loop::start(
        "folearn",
        listener,
        handler,
        Arc::clone(&state.metrics),
        state.limits(),
        config.max_connections,
        Arc::clone(&state.shutdown),
    )?;
    state.metrics.set(&[
        ("event_loops", front.loops() as u64),
        ("cache.shards", state.cache.num_shards() as u64),
    ]);
    Ok(ServerHandle {
        addr,
        state,
        front,
        pool,
    })
}

/// Replay the durable history of `dir` into a freshly built state,
/// then activate the WAL for new mutations.
///
/// Replayed solves run through the same [`plan_solve`]/[`run_solve`]
/// path as live traffic, so each hypothesis comes back under its
/// content-addressed id and arenas, type keys, and the result cache
/// warm exactly as they stood — recovered state is bit-identical, not
/// merely equivalent.
fn recover(state: &Arc<State>, dir: &std::path::Path, snapshot_every: usize) -> std::io::Result<()> {
    let started = Instant::now();
    let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
    let (durability, records, stats) = Durability::open(dir, snapshot_every)?;
    for record in records {
        match record {
            DurableRecord::Register { graph_text } => {
                if let Response::Error { message, .. } = handle_register(state, &graph_text) {
                    return Err(bad(format!("replay: register failed: {message}")));
                }
            }
            DurableRecord::Solve { request } => {
                let response = match plan_solve(state, request) {
                    Ok(job) => run_solve(state, job),
                    Err(response) => response,
                };
                if let Response::Error { message, .. } = response {
                    return Err(bad(format!("replay: solve failed: {message}")));
                }
            }
        }
    }
    // Marks the daemon durable: a freshly restarted backend reports its
    // recovery story before its first request.
    state.metrics.set(&[
        ("durable", 1),
        ("wal_records_replayed", stats.records_replayed()),
        ("snapshot_loads", stats.snapshot_loads),
        ("torn_tail_truncations", stats.torn_tail_truncations),
        ("recovery_ms", started.elapsed().as_millis() as u64),
    ]);
    state.sync_gauges();
    *state.durable.lock() = Some(durability);
    Ok(())
}

/// The daemon's dispatcher: cheap requests answered inline on the loop
/// thread, compute-shaped ones packaged into pool jobs that
/// complete the ordered response slot when they run.
struct ServerDispatch {
    state: Arc<State>,
    pool: Arc<WorkerPool>,
}

/// Owns an entry in [`State::inflight`] for the lifetime of one solve
/// job. Dropping it removes the entry and with it any still-attached
/// waiter responders — so even if the job panics on a worker, or is
/// dropped unrun (pool closed, owning connection gone while the job was
/// parked), every coalesced duplicate gets its slot answered (by the
/// responder's own drop reply) instead of hanging on a dead entry.
struct InflightGuard {
    state: Arc<State>,
    key: u64,
}

impl InflightGuard {
    /// Detach and return the waiters accumulated so far.
    fn take_waiters(&self) -> Vec<Responder> {
        self.state
            .inflight
            .lock()
            .remove(&self.key)
            .unwrap_or_default()
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        drop(self.take_waiters());
    }
}

impl EventHandler for ServerDispatch {
    fn dispatch(&self, req: Request, responder: Responder) -> Dispatch {
        match req {
            Request::Ping => {
                responder.complete(Response::Pong);
                Dispatch::Accepted
            }
            Request::Shutdown => {
                responder.complete(Response::Bye {
                    reason: "shutdown".to_string(),
                });
                Dispatch::Accepted
            }
            Request::Stats => {
                responder.complete(handle_stats(&self.state, &self.pool));
                Dispatch::Accepted
            }
            Request::Inventory => {
                responder.complete(handle_inventory(&self.state));
                Dispatch::Accepted
            }
            Request::Register { graph_text } => {
                responder.complete(handle_register(&self.state, &graph_text));
                Dispatch::Accepted
            }
            req @ Request::Solve { .. } => match plan_solve(&self.state, req) {
                Err(response) => {
                    responder.complete(response);
                    Dispatch::Accepted
                }
                Ok(job) => {
                    // Coalesce a duplicate of an in-flight solve: the
                    // pipelined window lets identical solves be planned
                    // before the first result reaches the cache, and
                    // recomputing each would collapse exactly the way
                    // this core exists to fix. Attach the responder to
                    // the running job; it replays the outcome to every
                    // waiter on completion.
                    let key = job.id;
                    {
                        let mut inflight = self.state.inflight.lock();
                        if let Some(waiters) = inflight.get_mut(&key) {
                            waiters.push(responder);
                            self.state.metrics.record_cache_event(true);
                            return Dispatch::Accepted;
                        }
                        inflight.insert(key, Vec::new());
                    }
                    self.state.metrics.record_cache_event(false);
                    let guard = InflightGuard {
                        state: Arc::clone(&self.state),
                        key,
                    };
                    let state = Arc::clone(&self.state);
                    event_loop::offload(&self.pool, "solve", responder, move || {
                        let response = run_solve(&state, job);
                        let waiters = guard.take_waiters();
                        if let Response::Solved(outcome) = &response {
                            for waiter in waiters {
                                let mut replay = outcome.clone();
                                replay.cached = true;
                                replay.trace =
                                    replay.trace.map(|t| stamp_replay(t, Duration::ZERO));
                                state.metrics.record_cache_event(true);
                                waiter.complete(Response::Solved(replay));
                            }
                        } else {
                            for waiter in waiters {
                                waiter.complete(response.clone());
                            }
                        }
                        response
                    })
                }
            },
            Request::Evaluate {
                structure,
                hypothesis,
                tuples,
                labels,
            } => match plan_evaluate(&self.state, structure, hypothesis, tuples, labels) {
                Err(response) => {
                    responder.complete(response);
                    Dispatch::Accepted
                }
                Ok(job) => event_loop::offload(&self.pool, "evaluate", responder, move || {
                    run_evaluate(job)
                }),
            },
            Request::ModelCheck {
                structure,
                formula,
                engine,
                trace,
            } => match plan_modelcheck(&self.state, structure, &formula, engine, trace) {
                Err(response) => {
                    responder.complete(response);
                    Dispatch::Accepted
                }
                Ok(job) => {
                    let state = Arc::clone(&self.state);
                    event_loop::offload(&self.pool, "modelcheck", responder, move || {
                        run_modelcheck(&state, job)
                    })
                }
            },
        }
    }

    fn retry(&self, job: Job) -> Result<(), Job> {
        event_loop::resubmit(&self.pool, job)
    }

    fn wants_shutdown(&self) {
        self.state.request_shutdown();
    }
}

fn handle_stats(state: &Arc<State>, pool: &Arc<WorkerPool>) -> Response {
    state.sync_gauges();
    state.metrics.set(&[("worker_panics", pool.panic_count())]);
    Response::Stats {
        data: state.metrics.snapshot(),
    }
}

fn handle_register(state: &Arc<State>, graph_text: &str) -> Response {
    match io::parse_graph(graph_text) {
        Ok(g) => {
            let canonical = io::to_text(&g);
            let hash = fnv1a64(canonical.as_bytes());
            let (vertices, edges) = (g.num_vertices(), g.num_edges());
            let fresh = state.graphs.insert(hash, Arc::new(g));
            if fresh {
                // Log the canonical text (whose hash is the address),
                // not the client's spelling: replay re-derives the
                // identical content hash.
                state.persist(&DurableRecord::Register {
                    graph_text: canonical,
                });
            }
            Response::Registered {
                structure: hash,
                vertices,
                edges,
                fresh,
                replicas: None,
            }
        }
        Err(e) => Response::error(format!("register: {e}")),
    }
}

/// Answer `inventory`: sorted structure hashes plus sorted hypothesis
/// bindings, cheap enough to serve inline on a loop thread. Sorting
/// makes two inventories comparable byte-for-byte, which is all the
/// router's anti-entropy diff needs.
fn handle_inventory(state: &Arc<State>) -> Response {
    let mut structures: Vec<u64> = state.graphs.entries().into_iter().map(|(k, _)| k).collect();
    structures.sort_unstable();
    let mut hypotheses: Vec<WireBinding> = state
        .hypotheses
        .entries()
        .into_iter()
        .map(|(id, h)| WireBinding {
            id,
            structure: h.structure,
        })
        .collect();
    hypotheses.sort_unstable_by_key(|b| b.id);
    Response::Inventory {
        structures,
        hypotheses,
    }
}

/// Stamp a cache-replayed trace with `replayed: true` and the age of
/// the original capture, so a rendered trace makes replays
/// unmistakable. A trace that fails to parse rides through untouched.
fn stamp_replay(trace: Json, age: Duration) -> Json {
    match folearn_obs::export::span_from_json(&trace) {
        Ok(mut rec) => {
            rec.meta.push(("replayed".to_string(), Json::Bool(true)));
            rec.meta.push((
                "replay_age_ms".to_string(),
                Json::int(age.as_millis() as usize),
            ));
            folearn_obs::export::span_to_json(&rec)
        }
        Err(_) => trace,
    }
}

/// A validated solve, ready to run on a worker thread.
struct SolveJob {
    g: Arc<Graph>,
    seq: TrainingSequence,
    arena: SharedArena,
    k: usize,
    ell: usize,
    q: usize,
    epsilon: f64,
    rust_solver: Solver,
    structure: u64,
    /// The solve's content address: hypothesis id, cache key and
    /// in-flight key.
    id: u64,
    trace_ctx: Option<TraceContext>,
    /// The request without its trace context, carried so the completed
    /// solve can be WAL-logged as a replayable record. The hypothesis
    /// itself is never persisted — it is derivable from the request.
    request: Request,
}

/// Validate a solve request and check the result cache. `Err` is the
/// immediate response (validation error or cache replay), answered
/// inline; `Ok` is the prepared compute job.
// A large Err is fine here: Err *is* the wire reply (cache replay or
// validation error), built once and moved straight to the responder.
#[allow(clippy::result_large_err)]
fn plan_solve(state: &Arc<State>, mut request: Request) -> Result<SolveJob, Response> {
    let Request::Solve {
        structure,
        examples,
        ell,
        q,
        epsilon,
        solver,
        trace,
    } = &mut request
    else {
        return Err(Response::error("solve: not a solve request"));
    };
    let (structure, ell, q, epsilon) = (*structure, *ell, *q, *epsilon);
    let (examples, solver): (&[WireExample], &SolverSpec) = (examples, solver);
    let trace_ctx = trace.take();
    let fail = |m: String| Err(Response::error(m));
    let g = match state.graph(structure) {
        Ok(g) => g,
        Err(e) => {
            return Err(Response::error_coded(
                "unknown_structure",
                format!("solve: {e}"),
            ))
        }
    };
    if examples.is_empty() {
        return fail("solve: examples must be non-empty".to_string());
    }
    let k = examples[0].tuple.len();
    if k == 0 {
        return fail("solve: example tuples must be non-empty".to_string());
    }
    for e in examples {
        if e.tuple.len() != k {
            return fail("solve: examples must all have the same arity".to_string());
        }
        if let Some(&v) = e.tuple.iter().find(|&&v| v as usize >= g.num_vertices()) {
            return fail(format!("solve: vertex {v} out of range"));
        }
    }
    if !epsilon.is_finite() || epsilon < 0.0 {
        return fail("solve: epsilon must be a non-negative finite number".to_string());
    }
    if let SolverSpec::Brute {
        threads: Some(t), ..
    } = solver
    {
        if *t > MAX_SOLVER_THREADS {
            return fail(format!(
                "solve: threads must be at most {MAX_SOLVER_THREADS} (got {t})"
            ));
        }
    }

    let id = hypothesis_id(structure, examples, ell, q, epsilon, solver);
    if let Some((mut outcome, captured_at)) = state.cache.get(id) {
        outcome.cached = true;
        outcome.trace = outcome
            .trace
            .map(|t| stamp_replay(t, captured_at.elapsed()));
        state.metrics.record_cache_event(true);
        return Err(Response::Solved(outcome));
    }
    // The miss is recorded by the caller: the dispatcher first checks
    // the in-flight table, where a coalesced duplicate still counts as
    // a hit.

    let rust_solver = match solver {
        SolverSpec::Brute {
            mode,
            threads,
            prune,
        } => Solver::BruteForce {
            mode: *mode,
            opts: BruteForceOpts {
                threads: *threads,
                prune: *prune,
                block_size: None,
            },
        },
        SolverSpec::Nd => Solver::NowhereDense(NdConfig::default()),
    };
    let seq = TrainingSequence::from_pairs(
        examples
            .iter()
            .map(|e| (e.tuple.iter().map(|&v| V(v)).collect::<Vec<_>>(), e.label)),
    );
    let arena = state.arena_for(&g);
    Ok(SolveJob {
        g,
        seq,
        arena,
        k,
        ell,
        q,
        epsilon,
        rust_solver,
        structure,
        id,
        trace_ctx,
        request,
    })
}

/// Run a prepared solve on a worker thread: learn, store the
/// hypothesis, cache the outcome.
fn run_solve(state: &Arc<State>, job: SolveJob) -> Response {
    // The span closes on this pool worker thread; its record rides
    // back in the outcome (and into the metrics rollup) rather than
    // through the thread-local root buffer.
    let sp = folearn_obs::span("server.solve");
    if let Some(ctx) = job.trace_ctx {
        // Bind this span under the propagated parent so a router (or
        // any other caller) can stitch it into its own span tree.
        folearn_obs::meta("trace_id", Json::str(hex64(ctx.trace_id)));
        folearn_obs::meta("parent", Json::str(hex64(ctx.parent)));
    }
    let inst = ErmInstance::new(&job.g, job.seq, job.k, job.ell, job.q, job.epsilon);
    let report = solve_fo_erm(&inst, &job.rust_solver, &job.arena);
    let id = job.id;
    let h = &report.hypothesis;
    // Canonical keys make the hypothesis recognisable across
    // backends: arena-relative type ids differ between servers, the
    // content hashes do not.
    let type_keys = {
        let arena = h.arena().lock();
        let mut ck = folearn_types::canon::CanonKeys::new();
        ck.key_set(&arena, h.positive_types().iter().copied())
    };
    let wire = WireHypothesis {
        id,
        params: h.params().iter().map(|v| v.0).collect(),
        q: h.q,
        mode: h.mode.to_string(),
        type_keys,
        describe: h.describe(),
    };
    let fresh = state.hypotheses.insert(
        id,
        Arc::new(StoredHypothesis {
            hypothesis: report.hypothesis.clone(),
            structure: job.structure,
        }),
    );
    if fresh {
        // WAL the derivation triple before the response can be sent:
        // once a client sees this id, the id survives `kill -9`. A
        // re-run after a cache eviction re-derives an id already
        // logged, so it writes nothing.
        state.persist(&DurableRecord::Solve {
            request: job.request,
        });
    }
    state.metrics.add("solver.evaluated_params", report.evaluated_params as u64);
    state.metrics.add("solver.pruned_params", report.pruned_params as u64);
    let trace = sp.finish().map(|rec| {
        state.metrics.absorb_span(&rec);
        folearn_obs::export::span_to_json(&rec)
    });
    let outcome = SolveOutcome {
        cached: false,
        error: report.error,
        solver: report.solver_name.to_string(),
        hypothesis: wire,
        trace,
        provenance: None,
    };
    state.cache.insert(id, (outcome.clone(), Instant::now()));
    Response::Solved(outcome)
}

/// A validated evaluate, ready to run on a worker thread.
struct EvalJob {
    g: Arc<Graph>,
    hypothesis: Hypothesis,
    tuples: Vec<Vec<u32>>,
    labels: Option<Vec<bool>>,
}

#[allow(clippy::result_large_err)] // Err is the wire reply, moved once.
fn plan_evaluate(
    state: &Arc<State>,
    structure: u64,
    hypothesis: u64,
    tuples: Vec<Vec<u32>>,
    labels: Option<Vec<bool>>,
) -> Result<EvalJob, Response> {
    let fail = |m: String| Err(Response::error(m));
    let g = match state.graph(structure) {
        Ok(g) => g,
        Err(e) => {
            return Err(Response::error_coded(
                "unknown_structure",
                format!("evaluate: {e}"),
            ))
        }
    };
    let h = match state.hypotheses.get(hypothesis) {
        Some(s) if s.structure == structure => s.hypothesis.clone(),
        Some(_) => {
            return fail("evaluate: hypothesis was learned on a different structure".to_string())
        }
        None => {
            return Err(Response::error_coded(
                "unknown_hypothesis",
                format!(
                    "evaluate: unknown hypothesis {}",
                    crate::proto::hex64(hypothesis)
                ),
            ))
        }
    };
    for t in &tuples {
        if let Some(&v) = t.iter().find(|&&v| v as usize >= g.num_vertices()) {
            return fail(format!("evaluate: vertex {v} out of range"));
        }
    }
    if let Some(ls) = &labels {
        if ls.len() != tuples.len() {
            return fail("evaluate: labels must be parallel to tuples".to_string());
        }
    }
    Ok(EvalJob {
        g,
        hypothesis: h,
        tuples,
        labels,
    })
}

fn run_evaluate(job: EvalJob) -> Response {
    let predictions: Vec<bool> = job
        .tuples
        .iter()
        .map(|t| {
            let tuple: Vec<V> = t.iter().map(|&v| V(v)).collect();
            job.hypothesis.predict(&job.g, &tuple)
        })
        .collect();
    let error = job.labels.map(|ls| {
        if predictions.is_empty() {
            0.0
        } else {
            let wrong = predictions.iter().zip(&ls).filter(|(p, l)| p != l).count();
            wrong as f64 / predictions.len() as f64
        }
    });
    Response::Predictions {
        labels: predictions,
        error,
        provenance: None,
    }
}

/// A validated model check, ready to run on a worker thread.
struct McJob {
    g: Arc<Graph>,
    phi: folearn_logic::Formula,
    engine: EvalEngine,
    trace_ctx: Option<TraceContext>,
}

#[allow(clippy::result_large_err)] // Err is the wire reply, moved once.
fn plan_modelcheck(
    state: &Arc<State>,
    structure: u64,
    formula: &str,
    engine: EvalEngine,
    trace_ctx: Option<TraceContext>,
) -> Result<McJob, Response> {
    let g = match state.graph(structure) {
        Ok(g) => g,
        Err(e) => {
            return Err(Response::error_coded(
                "unknown_structure",
                format!("modelcheck: {e}"),
            ))
        }
    };
    let phi = match parser::parse(formula, g.vocab()) {
        Ok(phi) => phi,
        // Parsed here, on the loop thread: the parser's depth bound is
        // what keeps a deeply nested formula from overflowing its stack.
        Err(e) => return Err(Response::error_coded("bad_formula", format!("modelcheck: {e}"))),
    };
    if !phi.is_sentence() {
        return Err(Response::error(
            "modelcheck: formula must be a sentence (no free variables)",
        ));
    }
    Ok(McJob {
        g,
        phi,
        engine,
        trace_ctx,
    })
}

fn run_modelcheck(state: &Arc<State>, job: McJob) -> Response {
    // The span ensures the VM's vm_* counters land in the metrics
    // rollup even for standalone model checks.
    let sp = folearn_obs::span("server.modelcheck");
    if let Some(ctx) = job.trace_ctx {
        folearn_obs::meta("trace_id", Json::str(hex64(ctx.trace_id)));
        folearn_obs::meta("parent", Json::str(hex64(ctx.parent)));
    }
    let holds = job.engine.models(&job.g, &job.phi);
    if let Some(rec) = sp.finish() {
        state.metrics.absorb_span(&rec);
    }
    Response::Truth {
        holds,
        provenance: None,
    }
}
