//! `erm_cold`: a closed loop of distinct, cache-missing `solve` requests
//! on one connection.
//!
//! Every request is brute-force ERM (Proposition 11) with `local=1`
//! types, `ℓ = 2`, `q = 1`, on a seeded bounded-degree coloured tree with
//! an unrealisable random sample of `m = n` examples. The parameter
//! sweep (`core`), the type computations it calls (`types`) and their
//! ball searches (`graph`) do nearly all the work; the server only
//! frames, queues and caches. A sweep change shows here, and a serving
//! change must not.

use std::time::Instant;

use folearn::bruteforce::BruteForceOpts;
use folearn::{shared_arena, solve_fo_erm, ErmInstance, SharedArena, Solver, TrainingSequence};
use folearn_graph::{io, Graph, V};
use folearn_obs::{Counter, Json};
use folearn_server::{
    start, Client, ClientApi, Request, Response, ServerConfig, ServerHandle, SolveOutcome,
    SolverSpec, WireExample,
};

use crate::common::{median, ms, us, Metric, Rng};
use crate::gen;
use crate::spans::Tracer;
use crate::{closed_loop_metrics, stretches_json, Ctx, Report, Rss, Stretch, Stretches};

const ELL: usize = 2;
const Q: usize = 1;
const MAX_DEGREE: usize = 3;
const P_RED: f64 = 0.3;
const STRUCTURES: usize = 8;
/// Latency limit of one solve for `slo_rps`, as a multiple of the run's
/// p50: about the p99 of a steady run.
const SLO_P50S: f64 = 1.5;
/// Solves after which the peak resident set is read.
const RSS_AFTER: usize = 40;
/// Solves replayed single-threaded in the ledger.
const REPLAYS: usize = 8;
/// `(example, parameter)` tuples whose local type the ledger times.
const TYPE_PROBES: usize = 256;

fn n_vertices(ctx: &Ctx) -> usize {
    if ctx.tiny {
        10
    } else {
        20
    }
}

/// The in-process `Solver` the daemon builds from a brute-force spec.
fn library_solver(spec: &SolverSpec, threads: Option<usize>) -> Solver {
    match spec {
        SolverSpec::Brute { mode, prune, .. } => Solver::BruteForce {
            mode: *mode,
            opts: BruteForceOpts {
                threads,
                prune: *prune,
                block_size: None,
            },
        },
        SolverSpec::Nd => unreachable!("erm_cold sends brute-force solves only"),
    }
}

struct Env {
    server: ServerHandle,
    client: Client,
    graphs: Vec<Graph>,
    ids: Vec<u64>,
}

/// Start the daemon, register the structures and run one warm-up solve.
fn setup(ctx: &Ctx) -> Env {
    let server = start(&ServerConfig::default()).expect("start the daemon");
    let mut client = Client::connect(server.addr()).expect("connect to the daemon");
    let n = n_vertices(ctx);
    let mut rng = Rng::fork(ctx.seed, "erm_cold.trees");
    let graphs: Vec<Graph> = (0..STRUCTURES)
        .map(|_| gen::coloured_tree(n, MAX_DEGREE, P_RED, &mut rng))
        .collect();
    let ids: Vec<u64> = graphs
        .iter()
        .map(|g| {
            client
                .register(&io::to_text(g))
                .expect("register a structure")
        })
        .collect();
    // The warm-up solve runs on a structure of its own.
    let mut warm_rng = Rng::fork(gen::WARMUP_SEED, "erm_cold.warmup");
    let warm_graph = gen::coloured_tree(n, MAX_DEGREE, P_RED, &mut warm_rng);
    let warm_id = client
        .register(&io::to_text(&warm_graph))
        .expect("register a structure");
    solve(
        &mut client,
        warm_id,
        gen::unrealisable_sample(n, &mut warm_rng),
    )
    .expect("warm-up solve");
    Env {
        server,
        client,
        graphs,
        ids,
    }
}

fn solve(
    client: &mut Client,
    structure: u64,
    examples: Vec<WireExample>,
) -> Result<SolveOutcome, String> {
    let request = Request::Solve {
        structure,
        examples,
        ell: ELL,
        q: Q,
        epsilon: 0.0,
        solver: gen::solver_spec(),
        trace: None,
    };
    match client.call(&request) {
        Ok(Response::Solved(outcome)) => Ok(outcome),
        Ok(other) => Err(format!("unexpected reply {}", other.encode())),
        Err(e) => Err(e.to_string()),
    }
}

/// One answered (or failed) request.
struct Done {
    /// Whether the benchmark's spans were on for it.
    traced: bool,
    /// The stretch of the run it started in.
    stretch: usize,
    structure: usize,
    examples: Vec<WireExample>,
    latency_ms: f64,
    outcome: Result<SolveOutcome, String>,
}

struct Phase {
    done: Vec<Done>,
    stretches: Vec<Stretch>,
    rss_mb: f64,
}

/// The closed loop: send the next distinct solve as soon as the last
/// one returns, for `seconds`. With the tracer on, every second round
/// of solves over all structures runs under spans, so traced and
/// untraced solves share the same stretch of time and structures.
fn phase(
    env: &mut Env,
    ctx: &Ctx,
    rng: &mut Rng,
    seconds: f64,
    tracer: &Tracer,
    between: &mut dyn FnMut(),
) -> Phase {
    let n = n_vertices(ctx);
    let off = Tracer::off();
    let start = Instant::now();
    let mut stretches = Stretches::new(seconds);
    let mut done = Vec::new();
    let mut rss = Rss::after(RSS_AFTER);
    while start.elapsed().as_secs_f64() < seconds {
        let stretch = stretches.enter(&mut || {
            rss.settle();
            between();
        });
        let structure = done.len() % STRUCTURES;
        let examples = gen::unrealisable_sample(n, rng);
        let traced = tracer.is_on() && (done.len() / STRUCTURES) % 2 == 1;
        let sent = Instant::now();
        let outcome = {
            let _sp = if traced { tracer } else { &off }.span("erm_cold.solve", done.len() as u64);
            solve(&mut env.client, env.ids[structure], examples.clone())
        };
        done.push(Done {
            traced,
            stretch,
            structure,
            examples,
            latency_ms: ms(sent.elapsed()),
            outcome,
        });
        rss.progress(done.len());
    }
    Phase {
        done,
        stretches: stretches.close(),
        rss_mb: rss.mb(),
    }
}

fn instance<'g>(g: &'g Graph, examples: &[WireExample]) -> ErmInstance<'g> {
    let seq = TrainingSequence::from_pairs(
        examples
            .iter()
            .map(|e| (e.tuple.iter().map(|&v| V(v)).collect::<Vec<_>>(), e.label)),
    );
    ErmInstance::new(g, seq, 1, ELL, Q, 0.0)
}

/// Library answer in the reply's terms: error, parameters and the
/// canonical keys of the positive types.
fn library_answer(
    g: &Graph,
    examples: &[WireExample],
    solver: &Solver,
    arena: &SharedArena,
) -> (f64, Vec<u32>, Vec<u64>) {
    let report = solve_fo_erm(&instance(g, examples), solver, arena);
    let h = &report.hypothesis;
    let keys = {
        let arena = h.arena().lock();
        folearn_types::CanonKeys::new().key_set(&arena, h.positive_types().iter().copied())
    };
    let params = h.params().iter().map(|v| v.0).collect();
    // The daemon's default configuration turns span capture on
    // process-wide; drop this thread's finished roots so they do not
    // pile up.
    folearn_obs::take_thread_roots();
    (report.error, params, keys)
}

/// Compare every answered solve with the library: `error`, `params`
/// and canonical `type_keys` must be equal. The `work`, `evaluated` and
/// `pruned` fields depend on thread scheduling and are not compared.
/// Returns the mismatches and, per checked solve, the library time.
fn check(
    env: &Env,
    phase: &mut Phase,
    plant_wrong: bool,
    tracer: &Tracer,
) -> (Vec<String>, Vec<f64>) {
    let solver = library_solver(&gen::solver_spec(), None);
    let arenas: Vec<SharedArena> = env.graphs.iter().map(shared_arena).collect();
    let mut wrong = Vec::new();
    let mut lib_ms = Vec::new();
    for (i, d) in phase.done.iter_mut().enumerate() {
        let Ok(outcome) = &mut d.outcome else {
            continue;
        };
        if plant_wrong && i == 0 {
            outcome.error += 0.5;
        }
        let g = &env.graphs[d.structure];
        let t = Instant::now();
        let (error, params, keys) = {
            let _sp = tracer.span("core.solve_fo_erm", i as u64);
            library_answer(g, &d.examples, &solver, &arenas[d.structure])
        };
        lib_ms.push(ms(t.elapsed()));
        let h = &outcome.hypothesis;
        if outcome.error != error || h.params != params || h.type_keys != keys {
            wrong.push(format!(
                "erm_cold solve {i}: daemon (error {}, params {:?}, type_keys {:?}) != library (error {error}, params {params:?}, type_keys {keys:?})",
                outcome.error, h.params, h.type_keys
            ));
        }
    }
    (wrong, lib_ms)
}

fn teardown(env: Env) {
    drop(env.client);
    env.server.shutdown();
}

pub fn run(ctx: &Ctx) -> Report {
    let (first, mut env) = crate::timed(|| setup(ctx));
    let mut setup_s = vec![first];
    let mut between = || {
        let (t, throwaway) = crate::timed(|| setup(ctx));
        teardown(throwaway);
        setup_s.push(t);
    };
    let mut rng = Rng::fork(ctx.seed, "erm_cold.samples");
    let mut phase = phase(
        &mut env,
        ctx,
        &mut rng,
        ctx.seconds,
        &Tracer::off(),
        &mut between,
    );
    let (wrong, _) = check(&env, &mut phase, ctx.plant_wrong, &Tracer::off());
    teardown(env);
    summarize(&phase, &setup_s, wrong)
}

fn summarize(phase: &Phase, setup_s: &[f64], wrong: Vec<String>) -> Report {
    let units = units(phase);
    let attempted = phase.done.len() as u64;
    Report {
        setup_s: setup_s.to_vec(),
        attempted,
        failed: attempted - ok_count(phase),
        wrong,
        metrics: closed_loop_metrics(SLO_P50S, setup_s, &units, &phase.stretches, phase.rss_mb),
        details: vec![
            (
                "server_config".into(),
                Json::str(format!("{:?}", ServerConfig::default())),
            ),
            (
                "latencies_ms".into(),
                Json::Arr(units.iter().map(|&(_, l)| Json::Num(l)).collect()),
            ),
            ("stretches".into(), stretches_json(&units, &phase.stretches)),
        ],
    }
}

/// Each solve's stretch and latency, in completion order; a failed
/// solve's latency is infinite.
fn units(p: &Phase) -> Vec<(usize, f64)> {
    p.done
        .iter()
        .map(|d| {
            let latency = if d.outcome.is_ok() {
                d.latency_ms
            } else {
                f64::INFINITY
            };
            (d.stretch, latency)
        })
        .collect()
}

fn ok_count(p: &Phase) -> u64 {
    p.done.iter().filter(|d| d.outcome.is_ok()).count() as u64
}

/// The traced run: the closed loop with every second round of solves
/// traced (the two halves' medians give the tracing overhead), then the
/// layer probes.
pub fn ledger(ctx: &Ctx, tracer: &Tracer) -> Report {
    let mut env = setup(ctx);
    let mut rng = Rng::fork(ctx.seed, "erm_cold.samples");
    let mut measured = phase(&mut env, ctx, &mut rng, ctx.seconds, tracer, &mut || {});
    let (wrong, lib_ms) = check(&env, &mut measured, ctx.plant_wrong, tracer);

    let gaps: Vec<f64> = measured
        .done
        .iter()
        .filter(|d| d.outcome.is_ok())
        .zip(&lib_ms)
        .map(|(d, lib)| d.latency_ms - lib)
        .collect();

    // Single-threaded replay: its sweep accounting is deterministic.
    let spec = gen::solver_spec();
    let one_thread = library_solver(&spec, Some(1));
    let (mut t1, mut evaluated, mut pruned, mut bfs_runs, mut bfs_vertices) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let capture_was_on = folearn_obs::enabled();
    folearn_obs::set_enabled(true);
    folearn_obs::take_thread_roots();
    for (i, d) in measured.done.iter().take(REPLAYS).enumerate() {
        let g = &env.graphs[d.structure];
        let arena = shared_arena(g);
        let t = Instant::now();
        let report = {
            let _sp = tracer.span("core.solve_fo_erm.1t", i as u64);
            solve_fo_erm(&instance(g, &d.examples), &one_thread, &arena)
        };
        t1.push(ms(t.elapsed()));
        let roots = folearn_obs::take_thread_roots();
        let total = |c| roots.iter().map(|r| r.total(c)).sum::<u64>() as f64;
        bfs_runs.push(total(Counter::BfsRuns));
        bfs_vertices.push(total(Counter::BfsVertices));
        evaluated.push(report.evaluated_params as f64);
        pruned.push(report.pruned_params as f64);
    }
    folearn_obs::set_enabled(capture_was_on);

    // Local types of (example, parameter, parameter) tuples.
    let mut probe_rng = Rng::fork(ctx.seed, "erm_cold.type_probes");
    let g = &env.graphs[0];
    let n = g.num_vertices();
    let mut arena = folearn_types::TypeArena::new(std::sync::Arc::clone(g.vocab()));
    let mut local_us = Vec::with_capacity(TYPE_PROBES);
    for i in 0..TYPE_PROBES {
        let tuple = [
            V(probe_rng.below(n) as u32),
            V(probe_rng.below(n) as u32),
            V(probe_rng.below(n) as u32),
        ];
        let t = Instant::now();
        {
            let _sp = tracer.span("types.counting_local_type", i as u64);
            folearn_types::local::counting_local_type(g, &mut arena, &tuple, Q, 1, 1);
        }
        local_us.push(us(t.elapsed()));
    }
    teardown(env);

    let sum = |xs: &[f64]| xs.iter().sum::<f64>();
    let completed = sum(&evaluated);
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
            Metric::new("core.solve_ms", "ms", median(&lib_ms)),
            Metric::new("core.solve_1t_ms", "ms", median(&t1)),
            Metric::new("core.params_evaluated", "count", median(&evaluated)),
            Metric::new("core.params_pruned", "count", median(&pruned)),
            Metric::new(
                "core.tally_completion_ratio",
                "ratio",
                completed / (completed + sum(&pruned)).max(1.0),
            ),
            Metric::new("types.local_type_us", "us", median(&local_us)),
            Metric::new("graph.bfs_runs", "count", median(&bfs_runs)),
            Metric::new("graph.bfs_vertices", "count", median(&bfs_vertices)),
            Metric::new("server.cold_gap_ms", "ms", median(&gaps)),
            Metric::new(
                "obs.trace_overhead_pct.erm_cold",
                "%",
                100.0 * (p50(true) / p50(false) - 1.0),
            ),
        ],
        details: vec![],
    }
}
