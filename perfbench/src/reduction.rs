//! `reduction_cluster`: the Lemma 7 reduction, closed loop on one
//! connection, with its ERM oracle served by a durable cluster.
//!
//! `model_check_via_erm` runs with a `RemoteOracle` against a router over
//! three backends, each with its own data directory (the router's
//! default replication, hedging and repair). Each task is a seeded red
//! tree (`n ∈ 8..=12`) and an E1-style rank-2 sentence. Every oracle call
//! is an fsync'd register/solve write beside `evaluate` reads, each
//! through the router hop, while the ERM itself is global-mode and tiny:
//! the router, the WAL and round trips dominate. This is the paper's own
//! caller of the learner.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use folearn::ErmInstance;
use folearn_cluster::{RouterConfig, RouterHandle};
use folearn_graph::{io, Graph};
use folearn_hardness::oracle::{ErmOracle, OracleAnswer, RemoteOracle};
use folearn_hardness::{model_check_via_erm, BruteForceOracle, ReductionReport};
use folearn_logic::{eval, parse, Formula};
use folearn_obs::Json;
use folearn_server::{
    start, Client, ClientApi, Request, Response, ServerConfig, ServerHandle, SolverSpec,
    WireExample,
};

use crate::common::{median, ms, us, Metric, Rng};
use crate::gen;
use crate::spans::Tracer;
use crate::{closed_loop_metrics, stretches_json, Ctx, Report, Rss, Stretch, Stretches};

const BACKENDS: usize = 3;
/// Latency limit of one model-check task for `slo_rps`, as a multiple of
/// the run's p50: about the p99 of a steady run (task sizes and
/// sentences differ).
const SLO_P50S: f64 = 2.5;
/// Solve frames replayed via the router and directly, for the hop cost.
const HOP_FRAMES: usize = 8;
const HOP_ROUNDS: usize = 25;
/// Tasks after which the peak resident set is read.
const RSS_AFTER: usize = 20;
/// WAL records re-appended by the ledger's fsync probe.
const WAL_PROBES: usize = 100;

struct Task {
    graph: Graph,
    sentence: usize,
}

impl Task {
    fn formula(&self) -> Formula {
        parse(gen::REDUCTION_SENTENCES[self.sentence], self.graph.vocab()).expect("sentences parse")
    }
}

/// Task `i`: `n = 8 + i mod 5`, sentence `(i / 5) mod 4`, a fresh seeded
/// tree — every run covers sizes and sentences in the same proportions.
fn task(i: usize, rng: &mut Rng, tiny: bool) -> Task {
    let n = if tiny { 5 + i % 2 } else { 8 + i % 5 };
    Task {
        graph: gen::red_tree(n, rng),
        sentence: (i / 5) % gen::REDUCTION_SENTENCES.len(),
    }
}

/// An oracle call as the reduction made it, for the ledger's replays.
struct Call {
    graph_text: String,
    examples: Vec<WireExample>,
    ell: usize,
    q: usize,
    epsilon: f64,
}

/// Times each oracle call of a traced task in a span, and keeps the
/// first traced calls' inputs.
struct TimedOracle<'a> {
    inner: &'a mut RemoteOracle,
    tracer: &'a Tracer,
    /// Whether the current task is traced.
    on: bool,
    task: u64,
    calls: Vec<Call>,
    keep: usize,
    solve_us: Vec<f64>,
}

impl ErmOracle for TimedOracle<'_> {
    fn solve(&mut self, inst: &ErmInstance<'_>) -> OracleAnswer {
        if !self.on {
            return self.inner.solve(inst);
        }
        if self.calls.len() < self.keep {
            self.calls.push(Call {
                graph_text: io::to_text(inst.graph),
                examples: inst
                    .examples
                    .iter()
                    .map(|e| WireExample {
                        tuple: e.tuple.iter().map(|v| v.0).collect(),
                        label: e.label,
                    })
                    .collect(),
                ell: inst.ell,
                q: inst.q,
                epsilon: inst.epsilon,
            });
        }
        let t = Instant::now();
        let answer = {
            let _sp = self.tracer.span("hardness.oracle.solve", self.task);
            self.inner.solve(inst)
        };
        self.solve_us.push(us(t.elapsed()));
        answer
    }

    fn calls(&self) -> usize {
        self.inner.calls()
    }

    fn realizable_calls(&self) -> usize {
        self.inner.realizable_calls()
    }
}

struct Env {
    backends: Vec<ServerHandle>,
    backend_configs: Vec<ServerConfig>,
    router: RouterHandle,
    router_config: RouterConfig,
    oracle: RemoteOracle,
    root: PathBuf,
}

fn cluster_root(ctx: &Ctx) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    ctx.out_dir.join(format!(
        "cluster-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Start three durable backends and the router, connect the oracle and
/// run one warm-up task.
fn setup(ctx: &Ctx) -> Env {
    let root = cluster_root(ctx);
    let backend_configs: Vec<ServerConfig> = (0..BACKENDS)
        .map(|i| ServerConfig {
            data_dir: Some(root.join(format!("b{i}"))),
            ..ServerConfig::default()
        })
        .collect();
    let backends: Vec<ServerHandle> = backend_configs
        .iter()
        .map(|c| {
            std::fs::create_dir_all(c.data_dir.as_ref().expect("set above"))
                .expect("create a data dir");
            start(c).expect("start a backend")
        })
        .collect();
    let router_config = RouterConfig {
        backends: backends.iter().map(|b| b.addr().to_string()).collect(),
        ..RouterConfig::default()
    };
    let router = folearn_cluster::start(&router_config).expect("start the router");
    let oracle = RemoteOracle::connect(router.addr()).expect("connect the oracle");
    let mut env = Env {
        backends,
        backend_configs,
        router,
        router_config,
        oracle,
        root,
    };
    // A small task (n = 5) opens the router's connections to every
    // backend with few fsync'd writes, so disk noise weighs little in
    // set-up time.
    let warm = task(
        0,
        &mut Rng::fork(gen::WARMUP_SEED, "reduction.warmup"),
        true,
    );
    model_check_via_erm(&warm.graph, &warm.formula(), &mut env.oracle);
    env
}

fn teardown(env: Env) {
    drop(env.oracle);
    env.router.shutdown();
    for b in env.backends {
        b.shutdown();
    }
    if let Err(e) = std::fs::remove_dir_all(&env.root) {
        eprintln!(
            "folearn-perfbench: cannot remove {}: {e}",
            env.root.display()
        );
    }
}

struct Done {
    /// Whether the benchmark's spans were on for it.
    traced: bool,
    /// The stretch of the run it started in.
    stretch: usize,
    task: Task,
    latency_ms: f64,
    report: Option<ReductionReport>,
}

struct Phase {
    done: Vec<Done>,
    stretches: Vec<Stretch>,
    rss_mb: f64,
    calls: Vec<Call>,
    solve_us: Vec<f64>,
}

/// The closed loop: start the next task as soon as the last one
/// returns, for `seconds`. With the tracer on, every second task runs
/// under spans, so traced and untraced tasks share the same stretch of
/// time (the cluster's state grows as it works).
fn phase(
    env: &mut Env,
    ctx: &Ctx,
    rng: &mut Rng,
    seconds: f64,
    tracer: &Tracer,
    between: &mut dyn FnMut(),
) -> Phase {
    let off = Tracer::off();
    let mut oracle = TimedOracle {
        inner: &mut env.oracle,
        tracer,
        on: false,
        task: 0,
        calls: Vec::new(),
        keep: if tracer.is_on() { 4 * HOP_FRAMES } else { 0 },
        solve_us: Vec::new(),
    };
    let start = Instant::now();
    let mut stretches = Stretches::new(seconds);
    let mut done = Vec::new();
    let mut rss = Rss::after(RSS_AFTER);
    while start.elapsed().as_secs_f64() < seconds {
        let stretch = stretches.enter(&mut || {
            rss.settle();
            between();
        });
        let i = done.len();
        let t = task(i, rng, ctx.tiny);
        let phi = t.formula();
        let traced = tracer.is_on() && i % 2 == 1;
        oracle.on = traced;
        oracle.task = i as u64;
        let sent = Instant::now();
        let report = {
            let _sp = if traced { tracer } else { &off }.span("reduction_cluster.task", i as u64);
            catch_unwind(AssertUnwindSafe(|| {
                model_check_via_erm(&t.graph, &phi, &mut oracle)
            }))
            .ok()
        };
        done.push(Done {
            traced,
            stretch,
            task: t,
            latency_ms: ms(sent.elapsed()),
            report,
        });
        rss.progress(done.len());
    }
    Phase {
        done,
        stretches: stretches.close(),
        rss_mb: rss.mb(),
        calls: oracle.calls,
        solve_us: oracle.solve_us,
    }
}

/// Every task's full report must equal the in-process reduction's with
/// the exact `BruteForceOracle`, and its answer the direct evaluation's.
/// Returns the mismatches and the in-process times.
fn check(phase: &mut Phase, plant_wrong: bool, tracer: &Tracer) -> (Vec<String>, Vec<f64>) {
    let mut wrong = Vec::new();
    let mut lib_ms = Vec::new();
    for (i, d) in phase.done.iter_mut().enumerate() {
        let Some(report) = &mut d.report else {
            continue;
        };
        if plant_wrong && i == 0 {
            report.result = !report.result;
        }
        let phi = d.task.formula();
        let t = Instant::now();
        let expected = {
            let _sp = tracer.span("hardness.lib", i as u64);
            model_check_via_erm(&d.task.graph, &phi, &mut BruteForceOracle::new())
        };
        lib_ms.push(ms(t.elapsed()));
        folearn_obs::take_thread_roots();
        let direct = eval::models(&d.task.graph, &phi);
        let (got, want) = (report.to_json().render(), expected.to_json().render());
        if got != want || report.result != direct {
            wrong.push(format!(
                "reduction_cluster task {i}: cluster report {got} != in-process {want} (direct evaluation {direct})"
            ));
        }
    }
    (wrong, lib_ms)
}

/// Each task's stretch and latency, in completion order; a failed
/// task's latency is infinite.
fn units(p: &Phase) -> Vec<(usize, f64)> {
    p.done
        .iter()
        .map(|d| {
            let latency = if d.report.is_some() {
                d.latency_ms
            } else {
                f64::INFINITY
            };
            (d.stretch, latency)
        })
        .collect()
}

fn ok_count(p: &Phase) -> u64 {
    p.done.iter().filter(|d| d.report.is_some()).count() as u64
}

fn configs_json(env: &Env) -> Vec<(String, Json)> {
    vec![
        (
            "server_configs".into(),
            Json::Arr(
                env.backend_configs
                    .iter()
                    .map(|c| Json::str(format!("{c:?}")))
                    .collect(),
            ),
        ),
        (
            "router_config".into(),
            Json::str(format!("{:?}", env.router_config)),
        ),
    ]
}

pub fn run(ctx: &Ctx) -> Report {
    let (first, mut env) = crate::timed(|| setup(ctx));
    let mut setup_s = vec![first];
    let mut between = || {
        let (t, throwaway) = crate::timed(|| setup(ctx));
        teardown(throwaway);
        setup_s.push(t);
    };
    let mut rng = Rng::fork(ctx.seed, "reduction.tasks");
    let mut p = phase(
        &mut env,
        ctx,
        &mut rng,
        ctx.seconds,
        &Tracer::off(),
        &mut between,
    );
    let mut details = configs_json(&env);
    teardown(env);
    let (wrong, _) = check(&mut p, ctx.plant_wrong, &Tracer::off());
    let attempted = p.done.len() as u64;
    let units = units(&p);
    details.push((
        "latencies_ms".into(),
        Json::Arr(units.iter().map(|&(_, l)| Json::Num(l)).collect()),
    ));
    details.push(("stretches".into(), stretches_json(&units, &p.stretches)));
    Report {
        setup_s: setup_s.clone(),
        attempted,
        failed: attempted - ok_count(&p),
        wrong,
        metrics: closed_loop_metrics(SLO_P50S, &setup_s, &units, &p.stretches, p.rss_mb),
        details,
    }
}

fn stat(addr: std::net::SocketAddr, key: &str) -> f64 {
    Client::connect(addr)
        .and_then(|mut c| c.stats())
        .ok()
        .and_then(|d| d.get(key).and_then(Json::as_num))
        .unwrap_or(f64::NAN)
}

pub fn ledger(ctx: &Ctx, tracer: &Tracer) -> Report {
    let mut env = setup(ctx);
    let mut rng = Rng::fork(ctx.seed, "reduction.tasks");
    let wal_before: f64 = env
        .backends
        .iter()
        .map(|b| stat(b.addr(), "wal_records_written"))
        .sum();
    let hedges_before = stat(env.router.addr(), "hedges_fired");
    let retries_before = stat(env.router.addr(), "replica_retries");
    let mut measured = phase(&mut env, ctx, &mut rng, ctx.seconds, tracer, &mut || {});
    let wal_after: f64 = env
        .backends
        .iter()
        .map(|b| stat(b.addr(), "wal_records_written"))
        .sum();
    let hedges = stat(env.router.addr(), "hedges_fired") - hedges_before;
    let retries = stat(env.router.addr(), "replica_retries") - retries_before;
    let tasks = measured.done.len().max(1) as f64;

    // Router hop: the same solve frames through the router and straight
    // to the backend that answered them.
    let mut via_router = Client::connect(env.router.addr()).expect("connect to the router");
    let mut hop = Vec::new();
    for (k, call) in measured.calls.iter().take(HOP_FRAMES).enumerate() {
        let structure = via_router
            .register(&call.graph_text)
            .expect("register via the router");
        let request = Request::Solve {
            structure,
            examples: call.examples.clone(),
            ell: call.ell,
            q: call.q,
            epsilon: call.epsilon,
            solver: SolverSpec::default_brute(),
            trace: None,
        };
        let backend = match via_router.call(&request) {
            Ok(Response::Solved(o)) => o.provenance.map(|p| p.backend),
            _ => None,
        };
        let Some(mut direct) = backend.and_then(|a| Client::connect(a.as_str()).ok()) else {
            continue;
        };
        direct.call(&request).expect("warm the direct path");
        let (mut r_us, mut d_us) = (Vec::new(), Vec::new());
        for _ in 0..HOP_ROUNDS {
            let t = Instant::now();
            {
                let _sp = tracer.span("router.solve", k as u64);
                via_router.call(&request).expect("solve via the router");
            }
            r_us.push(us(t.elapsed()));
            let t = Instant::now();
            {
                let _sp = tracer.span("server.solve_direct", k as u64);
                direct.call(&request).expect("solve on the backend");
            }
            d_us.push(us(t.elapsed()));
        }
        hop.push(median(&r_us) - median(&d_us));
    }

    // The WAL's fsync'd append, at the sizes this workload writes.
    let mut payloads = Vec::new();
    for c in &env.backend_configs {
        let dir = c.data_dir.as_ref().expect("durable backends");
        for file in [
            folearn_server::snapshot::WAL_FILE,
            folearn_server::snapshot::SNAPSHOT_FILE,
        ] {
            if let Ok(log) = folearn_server::wal::read_log(&dir.join(file)) {
                payloads.extend(log.records);
            }
        }
    }
    payloads.truncate(WAL_PROBES);
    let probe_path = env.root.join("wal-probe.log");
    let mut wal = folearn_server::wal::Wal::open(&probe_path, 0).expect("open the probe WAL");
    let mut append_us = Vec::new();
    for (i, p) in payloads.iter().enumerate() {
        let t = Instant::now();
        {
            let _sp = tracer.span("server.wal.append", i as u64);
            wal.append(p).expect("append to the probe WAL");
        }
        append_us.push(us(t.elapsed()));
    }
    drop(wal);

    // Parsing the structures the oracle ships.
    let mut parse_us = Vec::new();
    for (i, call) in measured.calls.iter().enumerate() {
        let t = Instant::now();
        {
            let _sp = tracer.span("graph.parse_graph", i as u64);
            std::hint::black_box(io::parse_graph(&call.graph_text).expect("graph text parses"));
        }
        parse_us.push(us(t.elapsed()));
    }
    drop(via_router);
    teardown(env);

    let (wrong, lib_ms) = check(&mut measured, ctx.plant_wrong, tracer);
    let calls: Vec<f64> = measured
        .done
        .iter()
        .filter_map(|d| d.report.as_ref())
        .map(|r| r.oracle_calls as f64)
        .collect();
    let p50 = |on: bool| {
        let l: Vec<f64> = measured
            .done
            .iter()
            .filter(|d| d.traced == on)
            .map(|d| d.latency_ms)
            .collect();
        median(&l)
    };
    let attempted = measured.done.len() as u64;
    Report {
        setup_s: Vec::new(),
        attempted,
        failed: attempted - ok_count(&measured),
        wrong,
        metrics: vec![
            Metric::new("hardness.lib_ms", "ms", median(&lib_ms)),
            Metric::new(
                "hardness.oracle_calls_per_task",
                "count",
                calls.iter().sum::<f64>() / calls.len().max(1) as f64,
            ),
            Metric::new("hardness.oracle_solve_us", "us", median(&measured.solve_us)),
            Metric::new("router.hop_us", "us", median(&hop)),
            Metric::new("router.hedges_fired_per_task", "count", hedges / tasks),
            Metric::new("router.replica_retries", "count", retries),
            Metric::new("server.wal.append_us", "us", median(&append_us)),
            Metric::new(
                "server.wal.records_per_task",
                "count",
                (wal_after - wal_before) / tasks,
            ),
            Metric::new("graph.parse_us", "us", median(&parse_us)),
            Metric::new(
                "obs.trace_overhead_pct.reduction_cluster",
                "%",
                100.0 * (p50(true) / p50(false) - 1.0),
            ),
        ],
        details: vec![],
    }
}
