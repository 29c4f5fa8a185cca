//! Acceptance tests for the cluster router: a live 3-node loopback
//! cluster behind `folearn-cluster` must be indistinguishable — bit for
//! bit — from the in-process oracle, including with a backend killed
//! mid-workload and with one router→backend link garbled by the chaos
//! proxy.
//!
//! Cross-replica identity rests on canonical type keys: each backend
//! numbers types in its own arena, but `RemoteOracle` groups oracle
//! answers by `(type_keys, params, q)`, which agree across replicas.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use folearn_cluster::{start as start_router, RouterConfig, RouterHandle};
use folearn_graph::{generators, io, ColorId, Graph, Vocabulary};
use folearn_hardness::oracle::{BruteForceOracle, RemoteOracle};
use folearn_hardness::reduction::{model_check_via_erm, ReductionReport};
use folearn_logic::parse;
use folearn_server::{
    fnv1a64, start as start_server, ChaosConfig, ChaosProxy, Client, ClientApi, ClientConfig,
    ClientError, Direction, FaultKind, Json, Request, Response, RetryPolicy, ServerConfig,
    ServerHandle, SolverSpec, TraceContext, WireExample,
};

fn colored_path(n: usize, stride: usize) -> Graph {
    let g = generators::path(n, Vocabulary::new(["Red"]));
    generators::periodically_colored(&g, ColorId(0), stride)
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

fn router_over(backends: Vec<String>, replicas: usize) -> RouterHandle {
    start_router(&RouterConfig {
        backends,
        replicas,
        client: ClientConfig::with_deadline(Duration::from_secs(5)),
        retry: RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(20),
            seed: 7,
        },
        ..RouterConfig::default()
    })
    .expect("router starts")
}

fn reports_match(a: &ReductionReport, b: &ReductionReport, context: &str) {
    assert_eq!(a.result, b.result, "[{context}] verdict diverged");
    assert_eq!(a.oracle_calls, b.oracle_calls, "[{context}] call-count diverged");
    assert_eq!(
        a.realizable_calls, b.realizable_calls,
        "[{context}] realisability split diverged"
    );
    assert_eq!(
        a.representative_set_sizes, b.representative_set_sizes,
        "[{context}] Ramsey grouping diverged — canonical keys are not replica-independent"
    );
    assert_eq!(a.max_depth, b.max_depth, "[{context}] depth diverged");
}

const SENTENCES: [&str; 3] = [
    "exists x0. Red(x0) & exists x1. E(x0, x1) & Red(x1)",
    "forall x0. Red(x0) -> exists x1. E(x0, x1) & !Red(x1)",
    "(exists x0. Red(x0)) & !(forall x0. Red(x0))",
];

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

#[test]
fn cluster_reduction_is_bit_identical_to_in_process() {
    let (addrs, by_addr) = spawn_backends(3);
    let router = router_over(addrs, 2);

    let g = colored_path(7, 3);
    let vocab = g.vocab().as_ref().clone();
    let expected = baselines(&g);

    let mut remote = RemoteOracle::connect(router.addr()).expect("oracle connects to router");
    for (s, baseline) in SENTENCES.iter().zip(&expected) {
        let phi = parse(s, &vocab).unwrap();
        let report = model_check_via_erm(&g, &phi, &mut remote);
        reports_match(&report, baseline, s);
    }

    router.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}

#[test]
fn reduction_survives_a_backend_killed_mid_reduction() {
    let (addrs, mut by_addr) = spawn_backends(3);
    let router = router_over(addrs, 2);

    let g = colored_path(7, 3);
    let vocab = g.vocab().as_ref().clone();
    let expected = baselines(&g);

    // Register through a probe first so we know which backends hold the
    // structure — the kill must hit a replica that actually serves it.
    let mut probe = Client::connect(router.addr()).expect("probe connects");
    let ack = probe
        .call(&Request::Register {
            graph_text: io::to_text(&g),
        })
        .expect("register through router");
    let Response::Registered {
        replicas: Some(replicas),
        ..
    } = ack
    else {
        panic!("router register ack must list replicas")
    };
    assert_eq!(replicas.len(), 2, "R=2 placement");

    let mut remote = RemoteOracle::connect(router.addr()).expect("oracle connects");

    // First sentence with the whole cluster alive.
    let phi = parse(SENTENCES[0], &vocab).unwrap();
    reports_match(
        &model_check_via_erm(&g, &phi, &mut remote),
        &expected[0],
        SENTENCES[0],
    );

    // Kill the structure's primary replica while the second reduction
    // runs: the router must fail the affected calls over to the other
    // replica without the client noticing.
    let victim = by_addr.remove(&replicas[0]).expect("victim handle");
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        victim.shutdown();
    });
    let phi = parse(SENTENCES[1], &vocab).unwrap();
    reports_match(
        &model_check_via_erm(&g, &phi, &mut remote),
        &expected[1],
        SENTENCES[1],
    );
    killer.join().unwrap();

    // And a whole reduction with the backend fully gone.
    let phi = parse(SENTENCES[2], &vocab).unwrap();
    reports_match(
        &model_check_via_erm(&g, &phi, &mut remote),
        &expected[2],
        SENTENCES[2],
    );

    // The router must have actually failed over (and, once the failure
    // streak crossed the threshold, ejected the dead backend).
    let stats = probe.stats().expect("router stats");
    let retries = stats.get("replica_retries").unwrap().as_usize().unwrap();
    let failovers = stats.get("failovers").unwrap().as_usize().unwrap();
    assert!(retries > 0, "backend died but no replica retry was recorded");
    assert!(failovers > 0, "dead backend was never ejected");

    router.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}

#[test]
fn reduction_survives_one_garbled_router_backend_link() {
    let (mut addrs, by_addr) = spawn_backends(3);
    // Interpose the chaos proxy on the router's link to backend 1: a
    // fixed fraction of frames crossing that link get a byte flipped.
    let victim: std::net::SocketAddr = addrs[1].parse().unwrap();
    let proxy = ChaosProxy::start(
        victim,
        ChaosConfig {
            kind: FaultKind::Garble,
            rate: 0.10,
            delay: Duration::from_millis(100),
            direction: Direction::Both,
            seed: 0xC1A5,
        },
    )
    .expect("proxy starts");
    addrs[1] = proxy.addr().to_string();

    // R=3: every backend (including the garbled one) holds every
    // structure, so the poisoned link sees real traffic.
    let router = start_router(&RouterConfig {
        backends: addrs,
        replicas: 3,
        client: ClientConfig::with_deadline(Duration::from_millis(500)),
        retry: RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(40),
            seed: 3,
        },
        ..RouterConfig::default()
    })
    .expect("router starts");

    let g = colored_path(7, 3);
    let vocab = g.vocab().as_ref().clone();
    let expected = baselines(&g);

    let mut remote = RemoteOracle::connect(router.addr()).expect("oracle connects");
    for (s, baseline) in SENTENCES.iter().zip(&expected) {
        let phi = parse(s, &vocab).unwrap();
        let report = model_check_via_erm(&g, &phi, &mut remote);
        reports_match(&report, baseline, s);
    }
    assert!(proxy.faults_injected() > 0, "the garbled link saw no traffic");

    router.shutdown();
    proxy.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}

#[test]
fn front_door_speaks_the_protocol_with_cluster_extensions() {
    let (addrs, by_addr) = spawn_backends(3);
    let backend_addrs: Vec<String> = addrs.clone();
    let router = router_over(addrs, 2);

    let mut c = Client::connect(router.addr()).expect("client connects");
    c.ping().expect("ping");

    // Unknown structure: coded error, no backend involved.
    let err = c
        .modelcheck(0xdead_beef, "exists x0. Red(x0)")
        .expect_err("unknown structure must fail");
    match err {
        ClientError::Server { code, message } => {
            assert_eq!(code.as_deref(), Some("unknown_structure"));
            assert!(message.contains("dead"), "message names the hash: {message}");
        }
        other => panic!("wanted coded server error, got {other}"),
    }

    // Register: ack lists the replica set.
    let g = colored_path(8, 4);
    let ack = c
        .call(&Request::Register {
            graph_text: io::to_text(&g),
        })
        .expect("register");
    let Response::Registered {
        structure,
        fresh,
        replicas: Some(replicas),
        ..
    } = ack
    else {
        panic!("wanted registered ack with replicas")
    };
    assert!(fresh);
    assert_eq!(replicas.len(), 2);
    for r in &replicas {
        assert!(backend_addrs.contains(r), "replica {r} is not a backend");
    }

    // Solve: the reply carries provenance naming a real backend, and the
    // backend's content-addressed hypothesis id is usable.
    let examples = vec![
        WireExample {
            tuple: vec![0],
            label: false,
        },
        WireExample {
            tuple: vec![1],
            label: true,
        },
    ];
    let outcome = c
        .solve(structure, examples, 1, 0, 0.25, SolverSpec::default_brute())
        .expect("solve through router");
    let prov = outcome.provenance.expect("router attaches provenance");
    assert!(replicas.contains(&prov.backend), "provenance names a replica");
    assert!(
        !outcome.hypothesis.type_keys.is_empty(),
        "canonical keys ride along"
    );

    // Evaluate against that id.
    let tuples: Vec<Vec<u32>> = (0..8).map(|v| vec![v]).collect();
    let (preds, _) = c
        .evaluate(structure, outcome.hypothesis.id, tuples, None)
        .expect("evaluate through router");
    assert_eq!(preds.len(), 8);

    // Unknown hypothesis: coded error.
    let err = c
        .evaluate(structure, 0x4242, vec![vec![0]], None)
        .expect_err("unknown hypothesis must fail");
    match err {
        ClientError::Server { code, .. } => {
            assert_eq!(code.as_deref(), Some("unknown_hypothesis"));
        }
        other => panic!("wanted coded server error, got {other}"),
    }

    // Modelcheck with provenance, and router-flavoured stats.
    assert!(c
        .modelcheck(structure, "exists x0. Red(x0)")
        .expect("modelcheck"));
    let stats = c.stats().expect("stats");
    assert_eq!(
        stats.get("role").and_then(|r| r.as_str()),
        Some("router"),
        "router stats are distinguishable from backend stats"
    );
    assert!(stats.get("hedges_fired").is_some());
    let rows = stats.get("backends").unwrap().as_arr().unwrap();
    assert_eq!(rows.len(), 3);

    router.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}

#[test]
fn anti_entropy_repairs_a_restarted_backend() {
    // Two live backends plus one address that is down from the start —
    // the "restarted empty" backend. Reserving the port with a listener
    // that never accepts leaves no TIME_WAIT behind, so the real daemon
    // can bind it later.
    let (mut addrs, by_addr) = spawn_backends(2);
    let reserved = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let late_addr = reserved.local_addr().unwrap().to_string();
    drop(reserved);
    addrs.push(late_addr.clone());

    // R=3: everything is placed everywhere, including on the dead node.
    let router = start_router(&RouterConfig {
        backends: addrs,
        replicas: 3,
        client: ClientConfig::with_deadline(Duration::from_secs(5)),
        repair_interval: Some(Duration::from_millis(50)),
        ..RouterConfig::default()
    })
    .expect("router starts");

    let mut c = Client::connect(router.addr()).expect("client connects");
    let g = colored_path(8, 4);
    let structure = c.register(&io::to_text(&g)).expect("register");
    let examples = vec![
        WireExample {
            tuple: vec![0],
            label: false,
        },
        WireExample {
            tuple: vec![1],
            label: true,
        },
    ];
    let outcome = c
        .solve(structure, examples, 1, 0, 0.25, SolverSpec::default_brute())
        .expect("solve");
    let tuples: Vec<Vec<u32>> = (0..8).map(|v| vec![v]).collect();
    let (before, _) = c
        .evaluate(structure, outcome.hypothesis.id, tuples.clone(), None)
        .expect("evaluate");

    // The dead replica comes up empty. The router's anti-entropy pass
    // must notice, re-seed the structure, and replicate the hypothesis
    // binding — all without any client traffic demanding it.
    let late = start_server(&ServerConfig {
        addr: late_addr.clone(),
        ..ServerConfig::default()
    })
    .expect("late backend binds the reserved address");

    let (mut repairs, mut avoided) = (0, 0);
    for _ in 0..100 {
        let stats = c.stats().expect("router stats");
        repairs = stats.get("repairs_performed").unwrap().as_usize().unwrap();
        avoided = stats.get("rebinds_avoided").unwrap().as_usize().unwrap();
        if repairs >= 1 && avoided >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(repairs >= 1, "the lost structure was never re-seeded");
    assert!(avoided >= 1, "the hypothesis binding was never replicated");

    // The repaired backend really holds the state: ask it directly.
    let mut direct = Client::connect(late.addr()).expect("connect to repaired backend");
    let (structures, hyps) = direct.inventory().expect("inventory");
    assert!(
        structures.contains(&structure),
        "repaired backend lacks the structure"
    );
    assert!(
        hyps.iter().any(|b| b.structure == structure),
        "repaired backend lacks the replicated hypothesis"
    );

    // And the cluster still answers identically through the front door.
    let (after, _) = c
        .evaluate(structure, outcome.hypothesis.id, tuples, None)
        .expect("evaluate after repair");
    assert_eq!(before, after);

    router.shutdown();
    late.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}

#[test]
fn evaluate_rebinds_after_the_learning_backend_dies() {
    let (addrs, mut by_addr) = spawn_backends(3);
    let router = router_over(addrs, 2);

    let mut c = Client::connect(router.addr()).expect("client connects");
    let g = colored_path(8, 4);
    let structure = c.register(&io::to_text(&g)).expect("register");
    let examples = vec![
        WireExample {
            tuple: vec![0],
            label: false,
        },
        WireExample {
            tuple: vec![1],
            label: true,
        },
    ];
    let outcome = c
        .solve(structure, examples, 1, 0, 0.25, SolverSpec::default_brute())
        .expect("solve");
    let prov = outcome.provenance.expect("provenance");
    let hyp = outcome.hypothesis.id;

    let tuples: Vec<Vec<u32>> = (0..8).map(|v| vec![v]).collect();
    let (before, _) = c.evaluate(structure, hyp, tuples.clone(), None).expect("evaluate");

    // Kill exactly the backend that learned the hypothesis. The router
    // must rebind by re-solving on a surviving replica — deterministic
    // solver, canonical structure text — and answer identically.
    let victim = by_addr.remove(&prov.backend).expect("victim handle");
    victim.shutdown();

    let (after, _) = c
        .evaluate(structure, hyp, tuples, None)
        .expect("evaluate after backend death");
    assert_eq!(before, after, "rebound hypothesis predicts differently");

    router.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}

/// One backend and a router over it, the router built from `config`.
fn router_with(config: RouterConfig) -> (RouterHandle, ServerHandle) {
    let backend = start_server(&ServerConfig::default()).expect("backend starts");
    let router = start_router(&RouterConfig {
        backends: vec![backend.addr().to_string()],
        ..config
    })
    .expect("router starts");
    (router, backend)
}

/// Read one newline-terminated response from a raw socket.
fn read_reply(stream: TcpStream) -> Response {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("a reply line");
    Response::decode(line.trim_end()).expect("a protocol response")
}

/// A router stats counter by name.
fn router_counter(router: &RouterHandle, name: &str) -> usize {
    let stats = Client::connect(router.addr())
        .expect("stats client connects")
        .stats()
        .expect("router stats");
    stats
        .get(name)
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("router stats lack {name}: {stats:?}"))
}

#[test]
fn router_flood_past_the_cap_is_rejected_gracefully_and_the_router_survives() {
    let (router, backend) = router_with(RouterConfig {
        max_connections: 8,
        ..RouterConfig::default()
    });
    let addr = router.addr();
    // Hold the cap's worth of live connections...
    let mut held: Vec<Client> = (0..8)
        .map(|i| {
            let mut c = Client::connect(addr).unwrap_or_else(|e| panic!("held conn {i}: {e}"));
            c.ping().expect("held conn serves");
            c
        })
        .collect();
    // ...then flood well past it: every extra connection is answered
    // with a bye, never ignored.
    for _ in 0..60 {
        let s = TcpStream::connect(addr).expect("tcp connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        match read_reply(s) {
            Response::Bye { reason } => assert_eq!(reason, "connection limit"),
            other => panic!("expected bye, got {other:?}"),
        }
    }
    for c in &mut held {
        c.ping().expect("survivors still served");
    }
    let stats = held[0].stats().expect("stats");
    let rejected = stats
        .get("rejected_connections")
        .and_then(Json::as_usize)
        .expect("rejected_connections counter");
    assert!(rejected >= 60, "counted {rejected}");
    drop(held);
    router.shutdown();
    backend.shutdown();
}

#[test]
fn router_slow_writer_is_served_not_idle_closed() {
    let (router, backend) = router_with(RouterConfig {
        idle_timeout: Duration::from_millis(300),
        ..RouterConfig::default()
    });
    let mut s = TcpStream::connect(router.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).unwrap();
    let frame = format!("{}\n", Request::Ping.encode());
    // Drip the frame over ~1s — more than 3× the idle timeout — in
    // chunks spaced under the timeout.
    for chunk in frame.as_bytes().chunks(2) {
        s.write_all(chunk).expect("slow write");
        std::thread::sleep(Duration::from_millis(150));
    }
    match read_reply(s) {
        Response::Pong => {}
        other => panic!("slow writer must be served, got {other:?}"),
    }
    router.shutdown();
    backend.shutdown();
}

#[test]
fn router_counts_every_kind_of_closed_connection() {
    let (router, backend) = router_with(RouterConfig {
        max_line_bytes: 256,
        idle_timeout: Duration::from_millis(300),
        max_requests_per_conn: 2,
        ..RouterConfig::default()
    });
    let connect = || {
        let s = TcpStream::connect(router.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s
    };
    let ping = format!("{}\n", Request::Ping.encode());

    // Oversize: a newline-less stream past the line cap.
    let mut s = connect();
    s.write_all(&[b'a'; 1024]).expect("write");
    assert!(
        matches!(read_reply(s), Response::Error { message, .. } if message.contains("exceeds 256 bytes"))
    );
    // Truncated: a frame cut short by a half-close.
    let mut s = connect();
    s.write_all(ping.trim_end().as_bytes()).expect("write");
    s.shutdown(Shutdown::Write).expect("half-close");
    assert!(
        matches!(read_reply(s), Response::Error { message, .. } if message.contains("truncated"))
    );
    // Idle: nothing sent.
    assert!(matches!(read_reply(connect()), Response::Bye { reason } if reason == "idle timeout"));
    // Over limit: a third request on a two-request budget.
    let mut s = connect();
    s.write_all(ping.repeat(3).as_bytes()).expect("write");
    let mut reader = BufReader::new(s);
    let mut last = String::new();
    for _ in 0..3 {
        last.clear();
        reader.read_line(&mut last).expect("reply");
    }
    assert!(
        matches!(Response::decode(last.trim_end()), Ok(Response::Bye { reason }) if reason == "request limit")
    );
    drop(reader);

    for name in [
        "oversize_closes",
        "truncated_frames",
        "idle_closes",
        "over_limit_closes",
    ] {
        assert_eq!(router_counter(&router, name), 1, "{name}");
    }
    router.shutdown();
    backend.shutdown();
}

/// Container nesting of a JSON value (a scalar is depth 0).
fn json_depth(v: &Json) -> usize {
    match v {
        Json::Arr(items) => 1 + items.iter().map(json_depth).max().unwrap_or(0),
        Json::Obj(pairs) => 1 + pairs.iter().map(|(_, v)| json_depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

#[test]
fn a_line_of_brackets_is_a_malformed_request_on_both_daemons() {
    let (router, backend) = router_with(RouterConfig::default());
    // 20 KB of `[` used to overflow a loop thread's stack and abort the
    // whole process.
    let killer = format!("{}\n", "[".repeat(20_000));
    for addr in [backend.addr(), router.addr()] {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(killer.as_bytes()).expect("write");
        match read_reply(s) {
            Response::Error { message, .. } => {
                assert!(message.starts_with("malformed request"), "{message:?}");
                assert!(message.contains("nesting deeper than"), "{message:?}");
            }
            other => panic!("expected a malformed-request error, got {other:?}"),
        }
    }
    // Both daemons are still up.
    Client::connect(backend.addr()).unwrap().ping().expect("backend alive");
    Client::connect(router.addr()).unwrap().ping().expect("router alive");

    // The deepest frame the system itself emits — a solve reply carrying
    // the router's stitched span tree — stays far below the cap.
    let mut c = Client::connect(router.addr()).expect("connect");
    let structure = c.register(&io::to_text(&colored_path(8, 4))).expect("register");
    let examples = (0..8u32)
        .map(|v| WireExample {
            tuple: vec![v],
            label: v % 4 == 0,
        })
        .collect();
    let outcome = c
        .solve_traced(
            structure,
            examples,
            1,
            1,
            0.0,
            SolverSpec::default_brute(),
            TraceContext {
                trace_id: 7,
                parent: 1,
            },
        )
        .expect("traced solve");
    let trace = outcome.trace.clone().expect("a stitched trace");
    assert_eq!(trace.get("span").and_then(Json::as_str), Some("router.solve"));
    let depth = json_depth(&Response::Solved(outcome).to_json());
    assert!(
        depth * 4 <= folearn_obs::json::MAX_DEPTH,
        "a stitched solve reply nests {depth} deep, too close to the cap"
    );
    router.shutdown();
    backend.shutdown();
}

#[test]
fn a_solve_pipelined_behind_its_register_finds_the_structure() {
    // The router forwards both on its pool, so the solve may reach a
    // backend first; placing the register before forwarding it (and
    // re-seeding a replica that has not seen it yet) keeps the backend's
    // register-then-use order on one connection.
    let (router, backend) = router_with(RouterConfig::default());
    let graph_text = io::to_text(&colored_path(8, 4));
    let structure = fnv1a64(graph_text.as_bytes());
    let solve = Request::Solve {
        structure,
        examples: (0..8u32)
            .map(|v| WireExample {
                tuple: vec![v],
                label: v % 4 == 0,
            })
            .collect(),
        ell: 1,
        q: 1,
        epsilon: 0.0,
        solver: SolverSpec::default_brute(),
        trace: None,
    };
    let blob = format!(
        "{}\n{}\n",
        Request::Register { graph_text }.encode(),
        solve.encode()
    );
    let mut s = TcpStream::connect(router.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(blob.as_bytes()).expect("pipelined write");
    let mut reader = BufReader::new(s);
    let mut replies = Vec::new();
    for _ in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        replies.push(Response::decode(line.trim_end()).expect("decodes"));
    }
    assert!(
        matches!(&replies[0], Response::Registered { structure: h, .. } if *h == structure),
        "{:?}",
        replies[0]
    );
    match &replies[1] {
        Response::Solved(outcome) => assert_eq!(outcome.error, 0.0),
        other => panic!("the pipelined solve must find its structure, got {other:?}"),
    }
    drop(reader);
    router.shutdown();
    backend.shutdown();
}

#[test]
fn a_formula_nested_5000_deep_is_a_coded_error_on_both_daemons() {
    let (router, backend) = router_with(RouterConfig::default());
    let structure = Client::connect(router.addr())
        .expect("connect")
        .register(&io::to_text(&colored_path(8, 4)))
        .expect("register through the router");
    // About 10 KB on one line: the formula parser used to recurse once
    // per parenthesis on the loop thread and overflow its stack.
    let bomb = format!(
        "exists x0. {}Red(x0) | true{}",
        "(".repeat(5000),
        ")".repeat(5000)
    );
    for addr in [backend.addr(), router.addr()] {
        let mut c = Client::connect(addr).expect("connect");
        match c.modelcheck(structure, &bomb) {
            Err(ClientError::Server { message, code }) => {
                assert_eq!(code.as_deref(), Some("bad_formula"), "{message}");
                assert!(message.contains("nests deeper than"), "{message}");
            }
            other => panic!("expected a bad_formula error from {addr}, got {other:?}"),
        }
        // The same connection still serves.
        assert!(c.modelcheck(structure, "exists x0. Red(x0)").expect("a sane formula"));
    }
    Client::connect(backend.addr()).unwrap().ping().expect("backend alive");
    Client::connect(router.addr()).unwrap().ping().expect("router alive");
    router.shutdown();
    backend.shutdown();
}

#[test]
fn the_router_counts_its_connections_under_the_backends_names() {
    let (router, backend) = router_with(RouterConfig::default());
    let n = 5;
    for _ in 0..n {
        Client::connect(router.addr()).unwrap().ping().expect("ping");
    }
    // The stats client makes one more connection.
    assert!(router_counter(&router, "connections") > n, "every connection counted");
    let router_stats = Client::connect(router.addr()).unwrap().stats().expect("router stats");
    let backend_stats = Client::connect(backend.addr()).unwrap().stats().expect("backend stats");
    for name in [
        "connections",
        "rejected_connections",
        "idle_closes",
        "oversize_closes",
        "truncated_frames",
        "over_limit_closes",
    ] {
        for (role, stats) in [("router", &router_stats), ("backend", &backend_stats)] {
            assert!(
                stats.get(name).and_then(Json::as_usize).is_some(),
                "{role} stats lack {name}"
            );
        }
    }
    router.shutdown();
    backend.shutdown();
}

#[test]
fn deterministic_rejections_do_not_eject_a_healthy_backend() {
    let (router, backend) = router_with(RouterConfig::default());
    let mut c = Client::connect(router.addr()).expect("connect");
    let structure = c
        .register(&io::to_text(&colored_path(8, 4)))
        .expect("register through the router");
    // Three rejections reach the default ejection threshold; each is
    // the backend's answer, not a failure of the backend.
    for _ in 0..3 {
        match c.modelcheck(structure, "exists x0. Green(x0)") {
            Err(ClientError::Server { code, .. }) => assert_eq!(code.as_deref(), Some("bad_formula")),
            other => panic!("expected a bad_formula error, got {other:?}"),
        }
    }
    let stats = c.stats().expect("router stats");
    assert_eq!(stats.get("failovers").and_then(Json::as_usize), Some(0));
    let row = &stats.get("backends").and_then(Json::as_arr).expect("backend rows")[0];
    assert_eq!(row.get("live").and_then(Json::as_bool), Some(true), "{row:?}");
    assert!(c.modelcheck(structure, "exists x0. Red(x0)").expect("a valid modelcheck"));
    router.shutdown();
    backend.shutdown();
}

#[test]
fn identical_solves_through_the_router_share_the_backends_id() {
    let (addrs, by_addr) = spawn_backends(2);
    let router = router_over(addrs.clone(), 2);
    let text = io::to_text(&colored_path(8, 4));
    let examples = vec![
        WireExample {
            tuple: vec![0],
            label: false,
        },
        WireExample {
            tuple: vec![1],
            label: true,
        },
    ];
    let mut c = Client::connect(router.addr()).expect("connect");
    let structure = c.register(&text).expect("register through the router");
    let ids: Vec<u64> = (0..12)
        .map(|_| {
            c.solve(structure, examples.clone(), 1, 0, 0.25, SolverSpec::default_brute())
                .expect("solve through the router")
                .hypothesis
                .id
        })
        .collect();
    assert!(ids.iter().all(|&id| id == ids[0]), "one solve, one id: {ids:?}");
    let mut direct = Client::connect(addrs[0].as_str()).expect("connect to a backend");
    assert_eq!(direct.register(&text).expect("direct register"), structure);
    let direct_id = direct
        .solve(structure, examples, 1, 0, 0.25, SolverSpec::default_brute())
        .expect("direct solve")
        .hypothesis
        .id;
    assert_eq!(ids[0], direct_id, "the router passes the backend's id through");
    assert_eq!(router_counter(&router, "hypotheses"), 1);
    router.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}
