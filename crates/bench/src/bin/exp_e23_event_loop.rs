//! E23 — connection scaling through the shared event-loop front door.
//!
//! Claim: both daemons serve through the same nonblocking readiness
//! loop, so each absorbs ≥ 1k concurrent pipelined connections: the
//! pipelined load generator completes every request with zero
//! unrecovered errors against a backend alone and against a router in
//! front of one backend. It also records what the polling loop costs
//! while idle — process CPU, in cores, with 0 and with 1000 idle
//! connections open — and gates that cost at one core.
//!
//! Idle CPU is read from `/proc/self/stat` (user + system ticks of the
//! whole process at the kernel's fixed 100 Hz `USER_HZ`), so it is
//! Linux-only; the client sockets sit blocked in the same process and
//! cost nothing. The router cell includes its idle backend.
//!
//! Writes the measurements (via the shared `write_json_file` writer) to
//! `BENCH_event_loop.json` — or a path given as the first CLI argument.

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use folearn_bench::{banner, cells, red_tree, verdict, write_json_file, Json, Table};
use folearn_cluster::RouterConfig;
use folearn_graph::io;
use folearn_server::{run_load, start, ClientConfig, LoadReport, LoadgenConfig, ServerConfig};

/// The high-concurrency point the scaling claim is judged at.
const HIGH_CONCURRENCY: usize = 1024;
/// Requests per connection (a `register` rides along as one more).
const REQUESTS_PER_CONN: usize = 30;
/// Pipelined frames in flight per connection.
const WINDOW: usize = 8;
/// Idle connections held open for the idle-cost cells.
const IDLE_CONNECTIONS: usize = 1000;
/// How long idle CPU is sampled.
const IDLE_WINDOW: Duration = Duration::from_secs(3);
/// Idle CPU budget at [`IDLE_CONNECTIONS`], in cores.
const IDLE_BUDGET_CORES: f64 = 1.0;

/// Which daemon a cell drives.
#[derive(Clone, Copy)]
enum Daemon {
    Backend,
    Router,
}

impl Daemon {
    fn name(self) -> &'static str {
        match self {
            Daemon::Backend => "backend",
            Daemon::Router => "router",
        }
    }
}

/// A running cell: the daemon under test, and for the router its
/// backend.
struct Deployment {
    addr: SocketAddr,
    backend: folearn_server::ServerHandle,
    router: Option<folearn_cluster::RouterHandle>,
}

impl Deployment {
    fn start(daemon: Daemon) -> Self {
        let backend = start(&ServerConfig {
            max_connections: 4 * HIGH_CONCURRENCY,
            cache_capacity: 4 * HIGH_CONCURRENCY,
            ..ServerConfig::default()
        })
        .expect("backend starts");
        let router = match daemon {
            Daemon::Backend => None,
            Daemon::Router => Some(
                folearn_cluster::start(&RouterConfig {
                    backends: vec![backend.addr().to_string()],
                    max_connections: 2 * HIGH_CONCURRENCY,
                    ..RouterConfig::default()
                })
                .expect("router starts"),
            ),
        };
        let addr = router.as_ref().map_or(backend.addr(), |r| r.addr());
        Self {
            addr,
            backend,
            router,
        }
    }

    fn stop(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        self.backend.shutdown();
    }
}

/// One measured load run.
struct Run {
    daemon: &'static str,
    connections: usize,
    report: LoadReport,
}

impl Run {
    /// Errors the run could not retry its way out of: server-side error
    /// replies plus workers that died early.
    fn unrecovered(&self) -> usize {
        self.report.errors + self.report.worker_errors.len()
    }
}

fn measure_load(daemon: Daemon, connections: usize, graph_text: &str) -> Run {
    let deployment = Deployment::start(daemon);
    let config = LoadgenConfig {
        connections,
        requests_per_conn: REQUESTS_PER_CONN,
        seed: 23,
        sample_pool: 1,
        ell: 1,
        q: 1,
        pipeline: WINDOW,
        client: ClientConfig::with_deadline(Duration::from_secs(120)),
        ..LoadgenConfig::default()
    };
    let report = run_load(deployment.addr, graph_text, &config);
    deployment.stop();
    Run {
        daemon: daemon.name(),
        connections,
        report,
    }
}

/// User + system CPU ticks of this process so far (100 per second).
fn process_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields[i].parse::<u64>().expect("numeric tick field");
    tick(11) + tick(12)
}

/// Process CPU, in cores, while `idle` connections sit open on a fresh
/// deployment of `daemon`.
fn measure_idle(daemon: Daemon, idle: usize) -> f64 {
    let deployment = Deployment::start(daemon);
    let conns: Vec<TcpStream> = (0..idle)
        .map(|i| {
            TcpStream::connect(deployment.addr)
                .unwrap_or_else(|e| panic!("idle connection {i}: {e}"))
        })
        .collect();
    // Let the acceptor hand every connection to a shard before sampling.
    std::thread::sleep(Duration::from_millis(500));
    let (t0, c0) = (Instant::now(), process_ticks());
    std::thread::sleep(IDLE_WINDOW);
    let cores = (process_ticks() - c0) as f64 / 100.0 / t0.elapsed().as_secs_f64();
    drop(conns);
    deployment.stop();
    cores
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_event_loop.json".to_string());
    banner(
        "E23 (event-loop connection scaling)",
        "a backend alone and a router over one backend each sustain ≥1k \
         concurrent pipelined connections with zero unrecovered errors, \
         and neither spends more than one core idling on 1000 open \
         connections",
    );

    let g = red_tree(32, 3, 7);
    let graph_text = io::to_text(&g);

    let mut table = Table::new(&[
        "daemon", "conns", "requests", "unrecovered", "reconnects", "req/s", "cached", "fresh",
        "solve-p50-us",
    ]);
    let mut runs = Vec::new();
    let mut rows = Vec::new();
    for connections in [128usize, HIGH_CONCURRENCY] {
        for daemon in [Daemon::Backend, Daemon::Router] {
            let run = measure_load(daemon, connections, &graph_text);
            let solve_p50 = run
                .report
                .ops
                .iter()
                .find(|(op, _)| op == "solve")
                .map(|(_, s)| s.quantile_us(0.50))
                .unwrap_or(0);
            table.row(cells!(
                run.daemon,
                run.connections,
                run.report.requests,
                run.unrecovered(),
                run.report.reconnects,
                format!("{:.0}", run.report.throughput()),
                run.report.cached_solves,
                run.report.fresh_solves,
                solve_p50
            ));
            let mut row = vec![
                ("daemon".to_string(), Json::str(run.daemon)),
                ("connections".to_string(), Json::int(run.connections)),
                (
                    "unrecovered_errors".to_string(),
                    Json::int(run.unrecovered()),
                ),
            ];
            if let Json::Obj(pairs) = run.report.to_json() {
                row.extend(pairs);
            }
            rows.push(Json::Obj(row));
            runs.push(run);
        }
    }
    table.print();
    println!();

    let mut idle_table = Table::new(&["daemon", "idle conns", "cpu cores"]);
    let mut idle_rows = Vec::new();
    let mut idle_high = Vec::new();
    for daemon in [Daemon::Backend, Daemon::Router] {
        for idle in [0, IDLE_CONNECTIONS] {
            let cores = measure_idle(daemon, idle);
            idle_table.row(cells!(daemon.name(), idle, format!("{cores:.3}")));
            idle_rows.push(Json::obj([
                ("daemon", Json::str(daemon.name())),
                ("idle_connections", Json::int(idle)),
                ("cpu_cores", Json::Num((cores * 1000.0).round() / 1000.0)),
            ]));
            if idle == IDLE_CONNECTIONS {
                idle_high.push((daemon.name(), cores));
            }
        }
    }
    idle_table.print();
    println!();

    let rps = |daemon: &str| {
        runs.iter()
            .find(|r| r.daemon == daemon && r.connections == HIGH_CONCURRENCY)
            .map(|r| r.report.throughput())
            .unwrap_or(0.0)
    };
    let idle_cores = |daemon: &str| {
        idle_high
            .iter()
            .find(|(d, _)| *d == daemon)
            .map_or(f64::INFINITY, |&(_, c)| c)
    };
    let unrecovered: usize = runs.iter().map(Run::unrecovered).sum();
    let expected_high = HIGH_CONCURRENCY * (REQUESTS_PER_CONN + 1);
    let sustained = runs
        .iter()
        .filter(|r| r.connections == HIGH_CONCURRENCY)
        .all(|r| r.report.requests == expected_high);
    let idle_ok = idle_high.iter().all(|&(_, c)| c <= IDLE_BUDGET_CORES);
    println!(
        "high concurrency ({HIGH_CONCURRENCY} conns): backend {:.0} req/s, router {:.0} req/s",
        rps("backend"),
        rps("router")
    );

    let json = Json::obj([
        ("experiment", Json::str("E23")),
        (
            "host_cores",
            Json::int(std::thread::available_parallelism().map_or(1, usize::from)),
        ),
        ("graph_vertices", Json::int(g.num_vertices())),
        ("pipeline_window", Json::int(WINDOW)),
        ("requests_per_conn", Json::int(REQUESTS_PER_CONN)),
        ("high_concurrency", Json::int(HIGH_CONCURRENCY)),
        ("backend_rps_high", Json::Num(rps("backend").round())),
        ("router_rps_high", Json::Num(rps("router").round())),
        ("unrecovered_errors", Json::int(unrecovered)),
        ("sustained_all_requests", Json::Bool(sustained)),
        ("idle_connections", Json::int(IDLE_CONNECTIONS)),
        ("idle_budget_cores", Json::Num(IDLE_BUDGET_CORES)),
        (
            "backend_idle_cores",
            Json::Num((idle_cores("backend") * 1000.0).round() / 1000.0),
        ),
        (
            "router_idle_cores",
            Json::Num((idle_cores("router") * 1000.0).round() / 1000.0),
        ),
        ("idle", Json::Arr(idle_rows)),
        ("runs", Json::Arr(rows)),
    ]);
    if let Err(e) = write_json_file(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    let ok = sustained && unrecovered == 0 && idle_ok;
    verdict(
        ok,
        "≥1k concurrent pipelined connections complete every request with \
         zero unrecovered errors on both daemons, each idling on 1000 open \
         connections within one core",
    );
    if !ok {
        std::process::exit(1);
    }
}
