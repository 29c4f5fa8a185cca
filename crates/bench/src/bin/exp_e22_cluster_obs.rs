//! E22 — cluster observability: distributed traces stitched across the
//! router, fan-in stats aggregation, and the cost of tracing.
//!
//! Claim: every opted-in solve routed through a traced cluster comes
//! back with ONE stitched span tree — a `router.solve` root holding a
//! `router.attempt` child per backend call (primary, hedge, failover,
//! with provenance and outcome in span meta) and the winning backend's
//! `server.solve` subtree — while the answers stay bit-identical to an
//! untraced cluster and to the in-process oracle, at ≤5% wall-clock
//! overhead on the E21 reduction workload. Tracing is sampled at the
//! edge: a solve is stitched only when its request carries a trace
//! context, so the reduction workload (which sends none) pays nothing
//! for a trace-enabled router; the per-solve cost of opting in is
//! reported alongside. Hedges and failovers are visible as attempt
//! spans (forced here with a delay proxy and a backend kill), cache
//! replays carry a `replayed` stamp, a client-supplied trace id
//! propagates into the root span, and the router's `stats` fans out to
//! every backend and merges the snapshots (counters summed, latency
//! histograms merged bucket-wise).
//!
//! Writes the measurements (via the shared `write_json_file` writer) to
//! `BENCH_cluster_obs.json` — or a path given as the first CLI argument.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use folearn::TypeMode;
use folearn_bench::{banner, cells, red_path, verdict, write_json_file, Json, Table};
use folearn_cluster::{start as start_router, RouterConfig, RouterHandle};
use folearn_graph::{io, Graph};
use folearn_hardness::oracle::{BruteForceOracle, RemoteOracle};
use folearn_hardness::reduction::{model_check_via_erm, ReductionReport};
use folearn_logic::parse;
use folearn_obs::export::span_from_json;
use folearn_obs::SpanRecord;
use folearn_server::{
    hex64, start as start_server, ChaosConfig, ChaosProxy, Client, ClientApi, ClientConfig,
    Direction, FaultKind, Request, Response, RetryPolicy, ServerConfig, ServerHandle,
    SolveOutcome, SolverSpec, TraceContext, WireExample,
};

/// Injected one-way wire delay on the slow backend's link (a solve
/// served through it pays the delay both ways).
const SLOW_DELAY: Duration = Duration::from_millis(40);
/// The hedged router fires at the next replica after this much silence.
const HEDGE_DELAY: Duration = Duration::from_millis(10);
/// Paired cold reduction passes for the overhead measurement (median
/// of per-pair ratios; passes run tens of ms, so singles are
/// noise-dominated and the host's load drifts between seconds).
const OVERHEAD_REPEATS: usize = 11;
/// Paired warm solves for the per-solve opt-in cost measurement.
const WARM_PAIRS: usize = 200;

const SENTENCES: [&str; 3] = [
    "exists x0. Red(x0) & exists x1. E(x0, x1) & Red(x1)",
    "forall x0. Red(x0) -> exists x1. E(x0, x1) & !Red(x1)",
    "(exists x0. Red(x0)) & !(forall x0. Red(x0))",
];

fn retry_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_retries: 8,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(40),
        seed,
    }
}

/// Fail fast on backend calls so a dead backend surfaces as a recorded
/// failover instead of hiding behind backoff.
fn failover_retry(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_retries: 3,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(20),
        seed,
    }
}

fn spawn_backends(n: usize) -> (Vec<String>, HashMap<String, ServerHandle>) {
    let mut addrs = Vec::new();
    let mut by_addr = HashMap::new();
    for _ in 0..n {
        let h = start_server(&ServerConfig::default()).expect("backend starts");
        let a = h.addr().to_string();
        addrs.push(a.clone());
        by_addr.insert(a, h);
    }
    (addrs, by_addr)
}

fn router_over(
    backends: Vec<String>,
    replicas: usize,
    hedge: Option<Duration>,
    trace: bool,
) -> RouterHandle {
    start_router(&RouterConfig {
        backends,
        replicas,
        hedge_delay: hedge,
        client: ClientConfig::with_deadline(Duration::from_secs(5)),
        retry: failover_retry(7),
        trace,
        ..RouterConfig::default()
    })
    .expect("router starts")
}

fn reports_match(a: &ReductionReport, b: &ReductionReport) -> bool {
    a.result == b.result
        && a.oracle_calls == b.oracle_calls
        && a.realizable_calls == b.realizable_calls
        && a.representative_set_sizes == b.representative_set_sizes
        && a.max_depth == b.max_depth
}

fn baselines(g: &Graph) -> Vec<ReductionReport> {
    let vocab = g.vocab().as_ref().clone();
    SENTENCES
        .iter()
        .map(|s| {
            let phi = parse(s, &vocab).unwrap();
            let mut local = BruteForceOracle::new();
            model_check_via_erm(g, &phi, &mut local)
        })
        .collect()
}

/// Run the reduction sentences through `router` and compare against the
/// in-process baseline. Returns `(identical, wall)`.
fn run_reduction(
    g: &Graph,
    expected: &[ReductionReport],
    router: &RouterHandle,
    tag: &str,
) -> (bool, Duration) {
    let vocab = g.vocab().as_ref().clone();
    let t0 = Instant::now();
    let mut remote = RemoteOracle::connect_with(
        router.addr(),
        ClientConfig::with_deadline(Duration::from_secs(5)),
        retry_policy(1),
    )
    .expect("oracle connects to router");
    let mut identical = true;
    for (s, baseline) in SENTENCES.iter().zip(expected) {
        let phi = parse(s, &vocab).unwrap();
        let report = model_check_via_erm(g, &phi, &mut remote);
        if !reports_match(&report, baseline) {
            identical = false;
            eprintln!("[{tag}] report diverged on {s}");
        }
    }
    (identical, t0.elapsed())
}

/// A cold reduction pass on a fresh cluster; returns `(identical, wall)`.
fn cold_pass(g: &Graph, expected: &[ReductionReport], trace: bool, tag: &str) -> (bool, Duration) {
    let (addrs, by_addr) = spawn_backends(3);
    let router = router_over(addrs, 2, Some(Duration::from_millis(25)), trace);
    let out = run_reduction(g, expected, &router, tag);
    router.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
    out
}

/// Register `g` through the router and return the ack's replica list.
fn placement(router: &RouterHandle, g: &Graph) -> (u64, Vec<String>) {
    let mut probe = Client::connect(router.addr()).expect("probe connects");
    match probe.call(&Request::Register {
        graph_text: io::to_text(g),
    }) {
        Ok(Response::Registered {
            structure,
            replicas: Some(replicas),
            ..
        }) => (structure, replicas),
        other => panic!("router register ack must list replicas, got {other:?}"),
    }
}

fn spec() -> SolverSpec {
    SolverSpec::Brute {
        mode: TypeMode::Global,
        threads: None,
        prune: true,
    }
}

fn examples() -> Vec<WireExample> {
    vec![
        WireExample {
            tuple: vec![0],
            label: true,
        },
        WireExample {
            tuple: vec![1],
            label: false,
        },
    ]
}

/// What one stitched trace contains.
#[derive(Default)]
struct TraceAudit {
    complete: bool,
    attempts: usize,
    hedge_spans: usize,
    failover_spans: usize,
    backend_subtrees: usize,
    replay_spans: usize,
}

fn meta_str<'a>(rec: &'a SpanRecord, key: &str) -> Option<&'a str> {
    rec.meta
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_str())
}

fn meta_bool(rec: &SpanRecord, key: &str) -> Option<bool> {
    rec.meta
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_bool())
}

fn walk<'a>(rec: &'a SpanRecord, f: &mut impl FnMut(&'a SpanRecord)) {
    f(rec);
    for ch in &rec.children {
        walk(ch, f);
    }
}

/// Audit one solve's stitched trace: it is complete when a
/// `router.solve` root holds at least one won `router.attempt` whose
/// subtree contains the backend's `server.solve` span.
fn audit(trace: &Json) -> TraceAudit {
    let rec = span_from_json(trace).expect("stitched trace parses as a span tree");
    let mut a = TraceAudit::default();
    let mut won = 0usize;
    walk(&rec, &mut |sp| {
        match sp.name.as_str() {
            "router.attempt" => {
                a.attempts += 1;
                match meta_str(sp, "kind") {
                    Some("hedge") => a.hedge_spans += 1,
                    Some("failover") => a.failover_spans += 1,
                    _ => {}
                }
                if meta_str(sp, "outcome") == Some("won") {
                    won += 1;
                }
            }
            "server.solve" => {
                a.backend_subtrees += 1;
                if meta_bool(sp, "replayed") == Some(true) {
                    a.replay_spans += 1;
                }
            }
            _ => {}
        }
    });
    a.complete = rec.name == "router.solve" && won >= 1 && a.backend_subtrees >= 1;
    a
}

/// Solve with a minted trace context: stitching is on demand, so the
/// request must opt in to come back with a span tree.
fn traced_solve(router: &RouterHandle, structure: u64) -> SolveOutcome {
    static NEXT_TID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0x77E2_0001);
    let trace_id = NEXT_TID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut c = Client::connect(router.addr()).expect("solver connects");
    c.solve_traced(
        structure,
        examples(),
        1,
        1,
        0.0,
        spec(),
        TraceContext {
            trace_id,
            parent: 0,
        },
    )
    .expect("routed solve")
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_cluster_obs.json".to_string());
    banner(
        "E22 (cluster observability)",
        "every routed solve returns one stitched span tree (router root, \
         per-attempt children with hedges and failovers, the winning \
         backend's subtree), answers stay bit-identical traced or not at \
         ≤5% overhead, and router stats fan in every backend's snapshot",
    );

    // Large enough that a cold pass runs ~100ms: millisecond-scale
    // spawn/scheduler jitter then stays well inside the 5% budget.
    let g = red_path(11, 3);
    let expected = baselines(&g);

    // --- Cell 1+2: identity and overhead, traced vs untraced ------------
    // Cold passes on fresh clusters per repeat so brute-force compute —
    // the E21 workload — dominates. The reduction's oracle sends no
    // trace context, so this measures what the workload pays for merely
    // ENABLING tracing on the router: stitching is per-request opt-in,
    // and unsampled traffic through a trace-enabled router must cost
    // the same as `trace off`. Host load drifts over seconds, so the
    // estimator is paired: each repeat runs both modes back to back
    // (alternating which goes first to cancel ordering bias) and the
    // headline number is the median of the per-pair wall ratios.
    let mut all_bit_identical = true;
    let mut traced_min = Duration::MAX;
    let mut untraced_min = Duration::MAX;
    let mut ratios = Vec::with_capacity(OVERHEAD_REPEATS);
    for i in 0..OVERHEAD_REPEATS {
        let traced_first = i % 2 == 1;
        let (mut on, mut off) = (Duration::ZERO, Duration::ZERO);
        for traced in [traced_first, !traced_first] {
            let (id, wall) = cold_pass(&g, &expected, traced, if traced { "traced" } else { "untraced" });
            all_bit_identical &= id;
            if traced {
                on = wall;
            } else {
                off = wall;
            }
        }
        untraced_min = untraced_min.min(off);
        traced_min = traced_min.min(on);
        ratios.push(on.as_secs_f64() / off.as_secs_f64());
        println!(
            "pass {i}: untraced {}ms, traced {}ms (ratio {:.3})",
            off.as_millis(),
            on.as_millis(),
            on.as_secs_f64() / off.as_secs_f64()
        );
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let overhead_pct = ((ratios[ratios.len() / 2] - 1.0) * 100.0).max(0.0);
    println!(
        "tracing overhead: median pair ratio {:.3} ({overhead_pct:.2}%); min walls {}ms untraced, {}ms traced",
        ratios[ratios.len() / 2],
        untraced_min.as_millis(),
        traced_min.as_millis()
    );
    println!();

    // --- Cell 3: trace completeness under hedging -----------------------
    // Backend 0 hides behind a delay proxy; structures whose primary it
    // is get hedged after HEDGE_DELAY, so their traces grow a hedge
    // attempt span next to the discarded primary.
    let (mut addrs, by_addr) = spawn_backends(3);
    let slow: std::net::SocketAddr = addrs[0].parse().unwrap();
    let proxy = ChaosProxy::start(
        slow,
        ChaosConfig {
            kind: FaultKind::Delay,
            rate: 1.0,
            delay: SLOW_DELAY,
            direction: Direction::Both,
            seed: 0x0B5,
        },
    )
    .expect("delay proxy starts");
    let slow_addr = proxy.addr().to_string();
    addrs[0] = slow_addr.clone();
    let router = router_over(addrs.clone(), 2, Some(HEDGE_DELAY), true);

    // A pool with at least two slow-primary structures (placement is
    // content-hashed over ephemeral ports, so the pool grows to fit).
    let mut pool: Vec<(u64, bool)> = Vec::new();
    for i in 0..40 {
        let slow_now = pool.iter().filter(|(_, s)| *s).count();
        if pool.len() >= 6 && slow_now >= 2 {
            break;
        }
        let pg = red_path(5 + i, 3);
        let (structure, reps) = placement(&router, &pg);
        let on_slow = reps[0] == slow_addr;
        if pool.len() >= 6 && !on_slow {
            continue;
        }
        pool.push((structure, on_slow));
    }

    let mut total = TraceAudit::default();
    let mut audited = 0usize;
    let mut complete = 0usize;
    for &(structure, _) in &pool {
        let outcome = traced_solve(&router, structure);
        let trace = outcome.trace.as_ref().expect("traced router returns a trace");
        let a = audit(trace);
        audited += 1;
        complete += a.complete as usize;
        total.attempts += a.attempts;
        total.hedge_spans += a.hedge_spans;
        total.failover_spans += a.failover_spans;
        total.backend_subtrees += a.backend_subtrees;
        total.replay_spans += a.replay_spans;
    }

    // Replay: the same solve again is answered from the backend cache,
    // and its stitched subtree carries the `replayed` stamp.
    let replayed = traced_solve(&router, pool[0].0);
    assert!(replayed.cached, "second identical solve must be cached");
    let replay_audit = audit(replayed.trace.as_ref().expect("replayed trace"));
    total.replay_spans += replay_audit.replay_spans;
    audited += 1;
    complete += replay_audit.complete as usize;

    // Per-solve cost of opting in (informational, not gated): paired
    // warm solves through the same router, alternating which mode goes
    // first, compared at the median. Uses a structure whose primary is
    // not behind the delay proxy so hedging noise stays out of the
    // numbers.
    let warm_structure = pool
        .iter()
        .find(|(_, on_slow)| !on_slow)
        .map_or(pool[0].0, |&(s, _)| s);
    let (traced_p50_us, untraced_p50_us) = {
        let mut c = Client::connect(router.addr()).expect("warm client connects");
        let p50 = |mut v: Vec<u64>| -> u64 {
            v.sort_unstable();
            v[v.len() / 2]
        };
        let mut lt = Vec::with_capacity(WARM_PAIRS);
        let mut lu = Vec::with_capacity(WARM_PAIRS);
        for i in 0..WARM_PAIRS {
            let order = if i % 2 == 0 { [true, false] } else { [false, true] };
            for traced in order {
                let t0 = Instant::now();
                if traced {
                    let o = c
                        .solve_traced(
                            warm_structure,
                            examples(),
                            1,
                            1,
                            0.0,
                            spec(),
                            TraceContext {
                                trace_id: 0x77E2_F000 + i as u64,
                                parent: 0,
                            },
                        )
                        .expect("warm traced solve");
                    lt.push(t0.elapsed().as_micros() as u64);
                    assert!(o.cached, "warm solves must replay from cache");
                } else {
                    let o = c
                        .solve(warm_structure, examples(), 1, 1, 0.0, spec())
                        .expect("warm untraced solve");
                    lu.push(t0.elapsed().as_micros() as u64);
                    assert!(o.cached, "warm solves must replay from cache");
                }
            }
        }
        (p50(lt), p50(lu))
    };
    println!(
        "opt-in cost per warm solve: p50 {traced_p50_us}us traced vs {untraced_p50_us}us untraced"
    );

    // A client-supplied trace context propagates into the root span.
    let mut c = Client::connect(router.addr()).expect("trace client connects");
    let (client_tid, client_parent) = (0xABCD_u64, 0x11_u64);
    let propagated = match c.call(&Request::Solve {
        structure: pool[0].0,
        examples: examples(),
        ell: 1,
        q: 1,
        epsilon: 0.0,
        solver: spec(),
        trace: Some(TraceContext {
            trace_id: client_tid,
            parent: client_parent,
        }),
    }) {
        Ok(Response::Solved(outcome)) => {
            let rec = span_from_json(outcome.trace.as_ref().expect("trace")).expect("parses");
            meta_str(&rec, "trace_id") == Some(hex64(client_tid).as_str())
                && meta_str(&rec, "parent") == Some(hex64(client_parent).as_str())
        }
        other => panic!("traced solve must come back Solved, got {other:?}"),
    };

    // --- Cell 4: fan-in stats through the same router --------------------
    let stats = {
        let mut c = Client::connect(router.addr()).expect("stats client connects");
        c.stats().expect("router stats")
    };
    let cluster = stats.get("cluster").expect("router stats carry a cluster section");
    let backends_total = cluster
        .get("backends_total")
        .and_then(Json::as_usize)
        .unwrap_or(0);
    let backends_reporting = cluster
        .get("backends_reporting")
        .and_then(Json::as_usize)
        .unwrap_or(0);
    let cluster_requests = cluster
        .get("requests")
        .and_then(Json::as_usize)
        .unwrap_or(0);
    let merged_solve = cluster
        .get("endpoints")
        .and_then(|e| e.get("solve"))
        .map(|s| s.get("hist").is_some())
        .unwrap_or(false);
    let node_roles_ok = cluster
        .get("nodes")
        .and_then(Json::as_arr)
        .map(|rows| {
            rows.iter()
                .filter(|r| r.get("error").is_none())
                .all(|r| r.get("role").and_then(Json::as_str) == Some("server"))
        })
        .unwrap_or(false);
    let series_buckets = stats
        .get("series")
        .and_then(|s| s.get("buckets"))
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    let role_ok = stats.get("role").and_then(Json::as_str) == Some("router")
        && stats.get("uptime_ms").and_then(Json::as_num).is_some();
    router.shutdown();
    proxy.shutdown();

    // --- Cell 5: failover span after a backend kill ----------------------
    // Kill the primary replica of a structure, then solve it: the trace
    // must show the failed primary attempt and the winning failover.
    let router = router_over(by_addr.keys().cloned().collect(), 2, None, true);
    let fg = red_path(9, 3);
    let (structure, reps) = placement(&router, &fg);
    let mut by_addr = by_addr;
    let victim = by_addr.remove(&reps[0]).expect("victim handle");
    victim.shutdown();
    let outcome = traced_solve(&router, structure);
    let failover_audit = audit(outcome.trace.as_ref().expect("failover trace"));
    audited += 1;
    complete += failover_audit.complete as usize;
    total.attempts += failover_audit.attempts;
    total.failover_spans += failover_audit.failover_spans;
    total.backend_subtrees += failover_audit.backend_subtrees;
    router.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }

    let trace_complete = audited > 0 && complete == audited;
    let mut table = Table::new(&["measure", "value"]);
    table.row(cells!("bit-identical", if all_bit_identical { "yes" } else { "NO" }));
    table.row(cells!("overhead %", format!("{overhead_pct:.2}")));
    table.row(cells!("opt-in p50 µs", format!("{traced_p50_us} vs {untraced_p50_us}")));
    table.row(cells!("traces audited", audited));
    table.row(cells!("traces complete", complete));
    table.row(cells!("attempt spans", total.attempts));
    table.row(cells!("hedge spans", total.hedge_spans));
    table.row(cells!("failover spans", total.failover_spans));
    table.row(cells!("backend subtrees", total.backend_subtrees));
    table.row(cells!("replay spans", total.replay_spans));
    table.print();
    println!();

    let json = Json::obj([
        ("experiment", Json::str("E22")),
        ("graph_vertices", Json::int(g.num_vertices())),
        ("sentences", Json::int(SENTENCES.len())),
        ("backends", Json::int(3)),
        ("replicas", Json::int(2)),
        ("all_bit_identical", Json::Bool(all_bit_identical)),
        ("untraced_ms", Json::int(untraced_min.as_millis() as usize)),
        ("traced_ms", Json::int(traced_min.as_millis() as usize)),
        ("overhead_pct", Json::Num(overhead_pct)),
        ("optin_traced_p50_us", Json::int(traced_p50_us as usize)),
        ("optin_untraced_p50_us", Json::int(untraced_p50_us as usize)),
        ("traces_audited", Json::int(audited)),
        ("traces_complete", Json::int(complete)),
        ("trace_complete", Json::Bool(trace_complete)),
        ("attempt_spans", Json::int(total.attempts)),
        ("hedge_spans", Json::int(total.hedge_spans)),
        ("failover_spans", Json::int(total.failover_spans)),
        ("backend_subtrees", Json::int(total.backend_subtrees)),
        ("replay_spans", Json::int(total.replay_spans)),
        ("client_trace_id_propagated", Json::Bool(propagated)),
        (
            "stats",
            Json::obj([
                ("role_and_uptime_ok", Json::Bool(role_ok)),
                ("backends_total", Json::int(backends_total)),
                ("backends_reporting", Json::int(backends_reporting)),
                ("cluster_requests", Json::int(cluster_requests)),
                ("merged_solve_hist", Json::Bool(merged_solve)),
                ("node_roles_ok", Json::Bool(node_roles_ok)),
                ("series_buckets", Json::int(series_buckets)),
            ]),
        ),
        (
            "hedging",
            Json::obj([
                ("hedge_ms", Json::int(HEDGE_DELAY.as_millis() as usize)),
                ("slow_delay_ms", Json::int(SLOW_DELAY.as_millis() as usize)),
                ("structures", Json::int(pool.len())),
                (
                    "slow_primary_structures",
                    Json::int(pool.iter().filter(|(_, s)| *s).count()),
                ),
            ]),
        ),
    ]);
    if let Err(e) = write_json_file(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    let ok = all_bit_identical
        && overhead_pct <= 5.0
        && trace_complete
        && total.hedge_spans > 0
        && total.failover_spans > 0
        && total.replay_spans > 0
        && propagated
        && role_ok
        && backends_total == 3
        && backends_reporting == 3
        && merged_solve
        && node_roles_ok
        && series_buckets > 0;
    verdict(
        ok,
        "routed solves return complete stitched traces (hedges, failovers, \
         replays, and client trace ids all visible), answers are \
         bit-identical traced or untraced within the overhead budget, and \
         the router's stats aggregate every backend's snapshot",
    );
    if !ok {
        std::process::exit(1);
    }
}
