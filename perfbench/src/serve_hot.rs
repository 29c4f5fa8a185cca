//! `serve_hot`: an open loop of cheap reads on a fixed ladder of offered
//! rates, over two pipelined connections driven by one thread.
//!
//! The mix is cached `solve` (warmed in set-up), `evaluate` on stored
//! hypotheses, small `modelcheck` sentences, `ping` and a small `stats`
//! share. Compute is negligible, so framing (`server.proto`), the event
//! loop, the worker pool and the result cache do the work: this is the
//! workload for codec, readiness-loop and metrics changes, and the one a
//! sweep change must leave alone.
//!
//! Correctness: set-up captures each frame's reply and checks it — a
//! cached solve against its cold twin, a `modelcheck` against in-process
//! `eval::models`. During the ladder every reply must then equal its
//! frame's captured reply byte for byte, except two parts that change
//! legitimately: the `trace` of a cached solve (it carries the entry's
//! age) and the counters of `stats`. The comparison is a `memcmp`
//! as each reply arrives; nothing is decoded inside the timed window.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use folearn::{shared_arena, solve_fo_erm, ErmInstance, Hypothesis, TrainingSequence, TypeMode};
use folearn_graph::{io, Graph, V};
use folearn_logic::vm::EvalEngine;
use folearn_logic::{eval, parse};
use folearn_obs::Json;
use folearn_server::{
    start, Client, ClientApi, Request, Response, ServerConfig, ServerHandle, WireExample,
};

use crate::common::{median, quantile, us, windowed_quantile, Metric, Rng};
use crate::gen;
use crate::loadgen::{run_rung, Conn, Load, Rung, Script, Verdict};
use crate::spans::Tracer;
use crate::{Ctx, Report, Stretch};

/// Offered rates (requests per second), lowest first. The climb stops
/// after two rungs in a row above the reference fail the limits.
const LADDER: [f64; 13] = [
    2000.0, 5000.0, 8000.0, 11000.0, 14000.0, 17000.0, 20000.0, 24000.0, 29000.0, 35000.0, 42000.0,
    50000.0, 60000.0,
];
/// Rungs that narrow the knee once the ladder's climb has stopped.
const BISECTIONS: usize = 2;
/// The rate whose latency quantiles are the end-to-end latency; also a
/// rung of the ladder.
const REFERENCE_RATE: f64 = 5000.0;
/// Share of the run given to the reference rate's stretches (see
/// [`Run::reference_stretch`]); the ladder's rungs split the rest
/// evenly.
const REFERENCE_SHARE: f64 = 0.5;
/// Window over which one latency quantile is taken (see [`windowed`]).
const WINDOW_S: f64 = 0.25;
/// Latency limit on the 99th percentile, for `slo_rps`. Past the knee
/// the p99 jumps to hundreds of milliseconds; a limit well above the
/// few milliseconds a burst of CPU steal adds keeps the knee, not the
/// host's neighbours, deciding where the limit is crossed.
pub const SLO_P99_MS: f64 = 25.0;
/// Least share of requests answered correctly for a rung to pass.
const SLO_SUCCESS: f64 = 0.999;
const CONNECTIONS: usize = 2;
const SOLVES: usize = 8;
const EVAL_TUPLES: usize = 16;
/// Untraced/traced rung pairs in the ledger.
const LEDGER_TURNS: usize = 4;
/// Request mix: (kind, weight). The pipelined schedule of `folearn
/// loadgen` (experiment E23) sends ping 25, solve 55, modelcheck 10,
/// stats 10. It has no `evaluate`, so its solve share is split in the
/// ratio the sequential `folearn loadgen` mix gives solve and evaluate
/// (55 : 20): solve 40, evaluate 15.
const MIX: [(Kind, u32); 5] = [
    (Kind::Ping, 25),
    (Kind::Solve, 40),
    (Kind::Evaluate, 15),
    (Kind::ModelCheck, 10),
    (Kind::Stats, 10),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Ping,
    Solve,
    Evaluate,
    ModelCheck,
    Stats,
}

impl Kind {
    const ALL: [Kind; 5] = [
        Kind::Ping,
        Kind::Solve,
        Kind::Evaluate,
        Kind::ModelCheck,
        Kind::Stats,
    ];

    fn span(self) -> &'static str {
        match self {
            Kind::Ping => "serve_hot.ping",
            Kind::Solve => "serve_hot.solve",
            Kind::Evaluate => "serve_hot.evaluate",
            Kind::ModelCheck => "serve_hot.modelcheck",
            Kind::Stats => "serve_hot.stats",
        }
    }

    fn op(self) -> &'static str {
        match self {
            Kind::Ping => "ping",
            Kind::Solve => "solve",
            Kind::Evaluate => "evaluate",
            Kind::ModelCheck => "modelcheck",
            Kind::Stats => "stats",
        }
    }
}

/// A request frame, the reply set-up captured for it, and the part of
/// that reply every later reply must repeat: the whole line, or a
/// prefix and a suffix around a part that may change.
struct Frame {
    kind: Kind,
    request: Request,
    line: Vec<u8>,
    reply: String,
    prefix: Vec<u8>,
    suffix: Vec<u8>,
    exact: bool,
}

impl Frame {
    fn new(kind: Kind, request: Request, reply: String) -> Self {
        let mut line = request.encode().into_bytes();
        line.push(b'\n');
        let bytes = reply.as_bytes();
        let find = |pat: &[u8]| bytes.windows(pat.len()).position(|w| w == pat);
        let (prefix, suffix, exact) = match kind {
            // The trace of a cached solve carries the entry's age.
            Kind::Solve => match (find(b"\"trace\": "), find(b", \"provenance\": ")) {
                (Some(t), Some(p)) if t < p => (bytes[..t].to_vec(), bytes[p..].to_vec(), false),
                _ => (bytes.to_vec(), Vec::new(), true),
            },
            // Counters move; the reply must still be the server's stats.
            Kind::Stats => {
                let role = b"\"role\": \"server\"";
                let end = find(role).map_or(bytes.len(), |i| i + role.len());
                (bytes[..end].to_vec(), Vec::new(), false)
            }
            _ => (bytes.to_vec(), Vec::new(), true),
        };
        Frame {
            kind,
            request,
            line,
            reply,
            prefix,
            suffix,
            exact,
        }
    }

    fn judge(&self, reply: &[u8]) -> Verdict {
        if reply.starts_with(b"{\"resp\": \"error\"") || reply.starts_with(b"{\"resp\": \"bye\"") {
            return Verdict::Failed;
        }
        let same = if self.exact {
            reply == self.prefix.as_slice()
        } else {
            reply.len() >= self.prefix.len() + self.suffix.len()
                && reply.starts_with(&self.prefix)
                && reply.ends_with(&self.suffix)
        };
        if same {
            Verdict::Right
        } else {
            Verdict::Wrong
        }
    }
}

/// A blocking line-level connection, for capturing raw replies.
struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Raw {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect to the daemon");
        let reader = BufReader::new(writer.try_clone().expect("clone the socket"));
        Raw { reader, writer }
    }

    fn call(&mut self, request: &Request) -> (String, Response) {
        let mut line = request.encode();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .expect("send a set-up request");
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .expect("read a set-up reply");
        let reply = reply.trim_end().to_string();
        let decoded = Response::decode(&reply).expect("set-up replies decode");
        (reply, decoded)
    }
}

struct Env {
    server: ServerHandle,
    ctl: Client,
    frames: Vec<Frame>,
    lines: Vec<Vec<u8>>,
    graph: Graph,
    /// The solve requests' samples, for the in-process replay.
    samples: Vec<Vec<WireExample>>,
    eval_tuples: Vec<Vec<Vec<u32>>>,
    /// Set-up answers that disagreed with the in-process ones.
    wrong: Vec<String>,
}

fn n_vertices(ctx: &Ctx) -> usize {
    if ctx.tiny {
        12
    } else {
        40
    }
}

/// Start the daemon, register the structure, warm the cache with every
/// solve the mix sends, and capture the replies the mix must reproduce.
fn setup(ctx: &Ctx) -> Env {
    let server = start(&ServerConfig::default()).expect("start the daemon");
    let mut ctl = Client::connect(server.addr()).expect("connect to the daemon");
    let mut raw = Raw::connect(server.addr());
    let n = n_vertices(ctx);
    let graph = gen::coloured_tree(n, 3, 0.3, &mut Rng::fork(ctx.seed, "serve_hot.tree"));
    let structure = ctl
        .register(&io::to_text(&graph))
        .expect("register the structure");
    let mut rng = Rng::fork(ctx.seed, "serve_hot.inputs");
    let mut wrong = Vec::new();
    let (pong, _) = raw.call(&Request::Ping);
    let mut frames = vec![Frame::new(Kind::Ping, Request::Ping, pong)];
    let mut samples = Vec::new();
    let mut eval_tuples = Vec::new();
    for _ in 0..SOLVES {
        let examples = gen::unrealisable_sample(n, &mut rng);
        let request = Request::Solve {
            structure,
            examples: examples.clone(),
            ell: 1,
            q: 1,
            epsilon: 0.0,
            solver: gen::solver_spec(),
            trace: None,
        };
        let (_, cold) = raw.call(&request);
        let (warm_line, warm) = raw.call(&request);
        let id = match (&cold, &warm) {
            (Response::Solved(c), Response::Solved(w)) => {
                if !w.cached || w.hypothesis != c.hypothesis || w.error != c.error {
                    wrong.push(format!(
                        "serve_hot set-up: cached solve {w:?} differs from its cold twin {c:?}"
                    ));
                }
                w.hypothesis.id
            }
            other => panic!("warm-up solve failed: {other:?}"),
        };
        let tuples = gen::tuples(n, EVAL_TUPLES, &mut rng);
        let labels: Vec<bool> = tuples.iter().map(|_| rng.chance(0.5)).collect();
        let evaluate = Request::Evaluate {
            structure,
            hypothesis: id,
            tuples: tuples.clone(),
            labels: Some(labels),
        };
        let (eval_line, eval_reply) = raw.call(&evaluate);
        assert!(
            matches!(eval_reply, Response::Predictions { .. }),
            "set-up evaluate failed: {eval_line}"
        );
        frames.push(Frame::new(Kind::Solve, request, warm_line));
        frames.push(Frame::new(Kind::Evaluate, evaluate, eval_line));
        samples.push(examples);
        eval_tuples.push(tuples);
    }
    for sentence in gen::HOT_SENTENCES {
        let phi = parse(sentence, graph.vocab()).expect("hot sentences parse");
        let holds = eval::models(&graph, &phi);
        let request = Request::ModelCheck {
            structure,
            formula: sentence.to_string(),
            engine: EvalEngine::TreeWalk,
            trace: None,
        };
        let (line, reply) = raw.call(&request);
        if !matches!(reply, Response::Truth { holds: h, .. } if h == holds) {
            wrong.push(format!(
                "serve_hot set-up: {sentence:?} is {holds} in process, daemon says {line}"
            ));
        }
        frames.push(Frame::new(Kind::ModelCheck, request, line));
    }
    let (stats, _) = raw.call(&Request::Stats);
    frames.push(Frame::new(Kind::Stats, Request::Stats, stats));
    if ctx.plant_wrong {
        frames[0].prefix.push(b'!');
    }
    let lines = frames.iter().map(|f| f.line.clone()).collect();
    Env {
        server,
        ctl,
        frames,
        lines,
        graph,
        samples,
        eval_tuples,
        wrong,
    }
}

fn teardown(env: Env) {
    drop(env.ctl);
    env.server.shutdown();
}

/// A seeded chooser of frames by the mix weights.
fn picker(env: &Env, seed: u64) -> impl FnMut() -> u32 {
    let by_kind: Vec<(u32, Vec<u32>)> = MIX
        .iter()
        .map(|&(kind, w)| {
            let ids = (0..env.frames.len() as u32)
                .filter(|&i| env.frames[i as usize].kind == kind)
                .collect();
            (w, ids)
        })
        .collect();
    let total: u32 = MIX.iter().map(|&(_, w)| w).sum();
    let mut rng = Rng::fork(seed, "serve_hot.mix");
    move || {
        let mut x = rng.below(total as usize) as u32;
        for (w, ids) in &by_kind {
            if x < *w {
                return ids[rng.below(ids.len())];
            }
            x -= w;
        }
        unreachable!("weights cover the draw")
    }
}

/// One rung on two fresh connections (a connection's request budget
/// then never runs out, whatever the run length).
fn rung(
    env: &Env,
    pick: &mut dyn FnMut() -> u32,
    arrivals: &mut Rng,
    rate: f64,
    seconds: f64,
    tracer: &Tracer,
) -> Rung {
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| Conn::connect(env.server.addr()).expect("open a load connection"))
        .collect();
    let script = Script {
        frames: &env.lines,
        judge: &|f, reply| env.frames[f as usize].judge(reply),
        span_name: &|f| env.frames[f as usize].kind.span(),
    };
    let load = Load {
        rate,
        duration: Duration::from_secs_f64(seconds),
        abort_backlog: 4 * backlog_bound(rate),
    };
    run_rung(&mut conns, &script, pick, arrivals, &load, tracer)
        .unwrap_or_else(|e| panic!("serve_hot rung at {rate} req/s failed: {e}"))
}

/// Latencies of a rung's replies, with failed and wrong replies set to
/// infinity: they miss every latency limit.
fn latencies(rung: &Rung) -> Vec<f64> {
    rung.replies
        .iter()
        .map(|r| {
            if r.verdict == Verdict::Right {
                r.latency_ms
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// A rung's latencies in windows of [`WINDOW_S`] seconds; its quantiles
/// are the median over the windows (see [`windowed_quantile`]).
fn windows(rung: &Rung) -> Vec<Vec<f64>> {
    let per_window = (rung.rate * WINDOW_S).max(1.0);
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for (r, l) in rung.replies.iter().zip(latencies(rung)) {
        let w = (r.req as f64 / per_window) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(l);
    }
    windows
}

/// A queue that keeps growing leaves more requests in flight at the end
/// of a rung than its rate can keep within the latency limit.
fn backlog_bound(rate: f64) -> usize {
    (rate * SLO_P99_MS / 1e3).max(4.0) as usize
}

struct RungSummary {
    rate: f64,
    elapsed_s: f64,
    sent: u64,
    right: u64,
    failed: u64,
    p50: f64,
    p90: f64,
    p99: f64,
    backlog_end: usize,
    backlog_max: usize,
    lag_p99_ms: f64,
    passed: bool,
}

impl RungSummary {
    fn new(rung: &Rung) -> Self {
        Self::of_parts(&[rung])
    }

    /// One rate run as `parts` back to back: counts add up, each latency
    /// quantile is the median over all the parts' windows, and the
    /// backlog is the largest any part ended with.
    fn of_parts(parts: &[&Rung]) -> Self {
        let replies = || parts.iter().flat_map(|r| &r.replies);
        let count = |v| replies().filter(|r| r.verdict == v).count() as u64;
        let sent: u64 = parts.iter().map(|r| r.sent).sum();
        let right = count(Verdict::Right);
        let failed = count(Verdict::Failed) + (sent - replies().count() as u64);
        let windows: Vec<Vec<f64>> = parts.iter().flat_map(|r| windows(r)).collect();
        let lag_ms: Vec<f64> = parts
            .iter()
            .flat_map(|r| r.lag_ms.iter().copied())
            .collect();
        let rate = parts[0].rate;
        let backlog_end = parts.iter().map(|r| r.backlog_end).max().unwrap_or(0);
        let p99 = windowed_quantile(&windows, 0.99);
        let passed = p99 <= SLO_P99_MS
            && right as f64 >= SLO_SUCCESS * sent as f64
            && backlog_end <= backlog_bound(rate);
        RungSummary {
            rate,
            elapsed_s: parts.iter().map(|r| r.elapsed.as_secs_f64()).sum(),
            sent,
            right,
            failed,
            p50: windowed_quantile(&windows, 0.5),
            p90: windowed_quantile(&windows, 0.9),
            p99,
            backlog_end,
            backlog_max: parts.iter().map(|r| r.backlog_max).max().unwrap_or(0),
            lag_p99_ms: quantile(&lag_ms, 0.99),
            passed,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("rate", Json::Num(self.rate)),
            ("sent", Json::Num(self.sent as f64)),
            ("right", Json::Num(self.right as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("p50_ms", Json::Num(self.p50)),
            ("p90_ms", Json::Num(self.p90)),
            ("p99_ms", Json::Num(self.p99)),
            ("backlog_end", Json::int(self.backlog_end)),
            ("backlog_max", Json::int(self.backlog_max)),
            ("lag_p99_ms", Json::Num(self.lag_p99_ms)),
            ("passed", Json::Bool(self.passed)),
        ])
    }
}

/// The highest rate that met the limits, interpolated towards the
/// lowest failing rate above it at the point where the p99 crosses the
/// limit, on a log scale (past the knee the p99 grows by orders of
/// magnitude). A failure on errors or backlog instead adds nothing;
/// with no passing rung, the lowest rate is scaled down by how far its
/// p99 overshot.
fn slo_rate(rungs: &[RungSummary]) -> f64 {
    let mut by_rate: Vec<&RungSummary> = rungs.iter().collect();
    by_rate.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    let Some(h) = by_rate.iter().rposition(|r| r.passed) else {
        return by_rate
            .first()
            .map_or(f64::NAN, |r| r.rate * (SLO_P99_MS / r.p99).min(1.0));
    };
    let pass = by_rate[h];
    match by_rate.get(h + 1) {
        Some(fail) if fail.p99 > SLO_P99_MS && fail.p99.is_finite() => {
            let t = (SLO_P99_MS.ln() - pass.p99.ln()) / (fail.p99.ln() - pass.p99.ln());
            pass.rate + (fail.rate - pass.rate) * t.clamp(0.0, 1.0)
        }
        _ => pass.rate,
    }
}

fn wrong_replies(env: &Env, rung: &Rung) -> Vec<String> {
    let wrong = rung
        .replies
        .iter()
        .filter(|r| r.verdict == Verdict::Wrong)
        .count();
    rung.wrong
        .iter()
        .map(|(f, line)| {
            let frame = &env.frames[*f as usize];
            format!(
                "serve_hot {} at {} req/s ({wrong} wrong in the rung): got {} expected {}",
                frame.kind.op(),
                rung.rate,
                line.chars().take(300).collect::<String>(),
                frame.reply.chars().take(300).collect::<String>()
            )
        })
        .collect()
}

/// The state of an end-to-end run: its environment, its load, and what
/// it has measured so far.
struct Run<'a> {
    ctx: &'a Ctx,
    env: Env,
    pick: Box<dyn FnMut() -> u32>,
    arrivals: Rng,
    setup_s: Vec<f64>,
    /// Whether a throwaway set-up precedes each rung (see
    /// `crate::timed`): only once memory is read, as it would add to
    /// the peak.
    throwaways: bool,
    rss_mb: f64,
    attempted: u64,
    failed: u64,
    wrong: Vec<String>,
    ladder: Vec<RungSummary>,
    /// The reference rate's stretches and what each measured.
    reference: Vec<(Rung, Stretch)>,
}

impl Run<'_> {
    /// One rung at `rate` for `seconds`, counted and checked.
    fn rung(&mut self, rate: f64, seconds: f64) -> (Rung, Stretch) {
        if self.throwaways {
            let (t, mut throwaway) = crate::timed(|| setup(self.ctx));
            self.wrong.append(&mut throwaway.wrong);
            teardown(throwaway);
            self.setup_s.push(t);
        }
        let (before, t) = (crate::common::cpu_steal_ticks(), Instant::now());
        let r = rung(
            &self.env,
            &mut self.pick,
            &mut self.arrivals,
            rate,
            seconds,
            &Tracer::off(),
        );
        let stretch = Stretch {
            seconds: t.elapsed().as_secs_f64(),
            steal: crate::steal_share(before, crate::common::cpu_steal_ticks()),
        };
        self.attempted += r.sent;
        self.failed += RungSummary::new(&r).failed;
        self.wrong.extend(wrong_replies(&self.env, &r));
        (r, stretch)
    }

    /// A stretch of the reference rate, while fewer than
    /// `crate::STRETCHES` have run.
    fn reference_stretch(&mut self) {
        if self.reference.len() < crate::STRETCHES {
            let seconds = self.ctx.seconds * REFERENCE_SHARE / crate::STRETCHES as f64;
            let part = self.rung(REFERENCE_RATE, seconds);
            self.reference.push(part);
        }
    }

    /// A ladder rung, after a stretch of the reference rate; returns
    /// whether the rung met the limits.
    fn ladder_rung(&mut self, rate: f64) -> bool {
        self.reference_stretch();
        let seconds = self.ctx.seconds * (1.0 - REFERENCE_SHARE) / LADDER.len() as f64;
        let (r, _) = self.rung(rate, seconds);
        let summary = RungSummary::new(&r);
        let passed = summary.passed;
        self.ladder.push(summary);
        if rate == REFERENCE_RATE {
            // Before the rungs that may overload the daemon: their
            // backlogs would make memory a measure of host noise.
            self.rss_mb = crate::common::peak_rss_mb();
            self.throwaways = true;
        }
        passed
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let (first, mut env) = crate::timed(|| setup(ctx));
    let mut run = Run {
        ctx,
        pick: Box::new(picker(&env, ctx.seed)),
        arrivals: Rng::fork(ctx.seed, "serve_hot.arrivals"),
        setup_s: vec![first],
        throwaways: false,
        rss_mb: f64::NAN,
        attempted: 0,
        failed: 0,
        wrong: std::mem::take(&mut env.wrong),
        ladder: Vec::new(),
        reference: Vec::new(),
        env,
    };
    // The reference rate's latencies come from the fastest of its
    // stretches (see `crate::STRETCHES`). One stretch runs before each
    // ladder rung, the rest after the ladder, so they spread over the
    // whole run and a spell of host noise hits only some of them.
    //
    // Climb the ladder until two rungs in a row above the reference fail
    // (one failure may be a burst of host noise)...
    let mut failures = 0;
    for rate in LADDER {
        let passed = run.ladder_rung(rate);
        failures = if passed || rate <= REFERENCE_RATE {
            0
        } else {
            failures + 1
        };
        if failures == 2 {
            break;
        }
    }
    // ...then narrow the knee by bisection between the highest passing
    // rung and the failing rung above it.
    let high_pass = run
        .ladder
        .iter()
        .filter(|s| s.passed)
        .map(|s| s.rate)
        .fold(f64::NAN, f64::max);
    let low_fail = run
        .ladder
        .iter()
        .filter(|s| !s.passed && s.rate > high_pass)
        .map(|s| s.rate)
        .fold(f64::NAN, f64::min);
    if high_pass.is_finite() && low_fail.is_finite() {
        let (mut low, mut high) = (high_pass, low_fail);
        for _ in 0..BISECTIONS {
            let mid = (low * high).sqrt().round();
            if run.ladder_rung(mid) {
                low = mid;
            } else {
                high = mid;
            }
        }
    }
    while run.reference.len() < crate::STRETCHES {
        run.reference_stretch();
    }
    let Run {
        env,
        setup_s,
        rss_mb,
        attempted,
        failed,
        wrong,
        ladder,
        reference,
        ..
    } = run;
    teardown(env);
    let (rungs, stretches): (Vec<Rung>, Vec<Stretch>) = reference.into_iter().unzip();
    let mut fast = crate::fastest(&rungs.iter().map(latencies).collect::<Vec<_>>());
    if fast.is_empty() {
        // Not one reply came back: the rate failed, and says so.
        fast = (0..rungs.len()).collect();
    }
    let sent: Vec<usize> = rungs.iter().map(|r| r.sent as usize).collect();
    let kept: Vec<&Rung> = fast.iter().map(|&i| &rungs[i]).collect();
    let reference = RungSummary::of_parts(&kept);
    Report {
        setup_s: setup_s.clone(),
        attempted,
        failed,
        wrong,
        metrics: vec![
            Metric::new("setup_s", "s", median(&setup_s)),
            Metric::new("latency_p50_ms", "ms", reference.p50),
            Metric::ungated("latency_p90_ms", "ms", reference.p90),
            Metric::ungated("latency_p99_ms", "ms", reference.p99),
            // Correct replies per second at the reference rate: below
            // the knee it is the offered rate, and it falls only when
            // replies fail or go missing. The daemon's capacity is
            // `slo_rps`; the achieved rate at the highest passing rung
            // moved by a fifth between runs with the host's noise.
            Metric::new(
                "throughput_per_s",
                "1/s",
                reference.right as f64 / reference.elapsed_s,
            ),
            Metric::ungated("slo_rps", "1/s", slo_rate(&ladder)),
            Metric::new("peak_rss_mb", "MiB", rss_mb),
        ],
        details: vec![
            (
                "ladder".into(),
                Json::Arr(ladder.iter().map(RungSummary::to_json).collect()),
            ),
            (
                "reference_stretches".into(),
                crate::stretch_table(&stretches, &sent, &fast),
            ),
            (
                "server_config".into(),
                Json::str(format!("{:?}", ServerConfig::default())),
            ),
        ],
    }
}

/// Time `calls` calls of `f` in one span and return µs per call; the
/// median of `batches` such batches.
fn per_call_us(
    tracer: &Tracer,
    name: &'static str,
    batches: usize,
    calls: usize,
    mut f: impl FnMut(),
) -> f64 {
    let mut per = Vec::with_capacity(batches);
    for b in 0..batches {
        let t = Instant::now();
        {
            let _sp = tracer.span(name, b as u64);
            for _ in 0..calls {
                f();
            }
        }
        per.push(us(t.elapsed()) / calls as f64);
    }
    median(&per)
}

fn stats_cache(ctl: &mut Client) -> (f64, f64) {
    let data = ctl.stats().expect("stats");
    let get = |k| {
        data.get("cache")
            .and_then(|c| c.get(k))
            .and_then(Json::as_num)
            .unwrap_or(f64::NAN)
    };
    (get("hits"), get("misses"))
}

pub fn ledger(ctx: &Ctx, tracer: &Tracer) -> Report {
    let mut env = setup(ctx);
    let mut pick = picker(&env, ctx.seed);
    let mut arrivals = Rng::fork(ctx.seed, "serve_hot.arrivals");
    let mut wrong = std::mem::take(&mut env.wrong);
    // Untraced and traced rungs at the reference rate take turns, so
    // both see the same stretch of time.
    let off = Tracer::off();
    let (mut plain_p50, mut traced_p50, mut lag_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut misses, mut backlog_max) = (0.0, 0.0, 0);
    let (mut attempted, mut failed) = (0, 0);
    for turn in 0..2 * LEDGER_TURNS {
        let traced = turn % 2 == 1;
        let seconds = ctx.seconds / (2 * LEDGER_TURNS) as f64;
        let (h0, m0) = stats_cache(&mut env.ctl);
        let r = rung(
            &env,
            &mut pick,
            &mut arrivals,
            REFERENCE_RATE,
            seconds,
            if traced { tracer } else { &off },
        );
        let (h1, m1) = stats_cache(&mut env.ctl);
        let summary = RungSummary::new(&r);
        wrong.extend(wrong_replies(&env, &r));
        attempted += r.sent;
        failed += summary.failed;
        if traced {
            traced_p50.push(summary.p50);
            lag_ms.extend(r.lag_ms);
            backlog_max = backlog_max.max(r.backlog_max);
            hits += h1 - h0;
            misses += m1 - m0;
        } else {
            plain_p50.push(summary.p50);
        }
    }
    let mut metrics = Vec::new();

    // Codec cost per op, on the workload's own frames and replies.
    for kind in Kind::ALL {
        let f = env
            .frames
            .iter()
            .find(|f| f.kind == kind)
            .expect("every kind has a frame");
        let request_line = std::str::from_utf8(&f.line)
            .expect("frames are UTF-8")
            .trim_end();
        let response = Response::decode(&f.reply).expect("captured replies decode");
        let decode = per_call_us(tracer, "server.proto.decode", 5, 200, || {
            std::hint::black_box(Request::decode(std::hint::black_box(request_line)).ok());
        });
        let encode = per_call_us(tracer, "server.proto.encode", 5, 200, || {
            std::hint::black_box(std::hint::black_box(&response).encode());
        });
        let op = kind.op();
        metrics.push(Metric::new(
            format!("server.proto.decode_us.{op}"),
            "us",
            decode,
        ));
        metrics.push(Metric::new(
            format!("server.proto.encode_us.{op}"),
            "us",
            encode,
        ));
        metrics.push(Metric::new(
            format!("server.proto.frame_bytes.{op}"),
            "bytes",
            (f.line.len() + f.reply.len() + 1) as f64,
        ));
    }

    // Single-connection round trips at low load.
    for (kind, name, metric) in [
        (Kind::Ping, "server.rtt.ping", "server.rtt_us.ping"),
        (
            Kind::Solve,
            "server.rtt.solve_cached",
            "server.rtt_us.solve_cached",
        ),
        (
            Kind::Evaluate,
            "server.rtt.evaluate",
            "server.rtt_us.evaluate",
        ),
        (
            Kind::ModelCheck,
            "server.rtt.modelcheck",
            "server.rtt_us.modelcheck",
        ),
    ] {
        let request = &env
            .frames
            .iter()
            .find(|f| f.kind == kind)
            .expect("every kind has a frame")
            .request;
        let mut rtts = Vec::new();
        for i in 0..200 {
            let t = Instant::now();
            let _sp = tracer.span(name, i);
            env.ctl.call(request).expect("low-load round trip");
            rtts.push(us(t.elapsed()));
        }
        metrics.push(Metric::new(metric, "us", median(&rtts)));
    }

    metrics.push(Metric::new(
        "server.cache.hit_rate",
        "ratio",
        hits / (hits + misses),
    ));

    // The logic layer on the modelcheck sentences.
    let sentences = gen::HOT_SENTENCES;
    let parse_us = per_call_us(tracer, "logic.parse", 5, 50, || {
        for s in sentences {
            std::hint::black_box(parse(s, env.graph.vocab()).ok());
        }
    }) / sentences.len() as f64;
    let parsed: Vec<_> = sentences
        .iter()
        .map(|s| parse(s, env.graph.vocab()).expect("hot sentences parse"))
        .collect();
    let models_us = per_call_us(tracer, "logic.models", 5, 20, || {
        for phi in &parsed {
            std::hint::black_box(eval::models(&env.graph, phi));
        }
    }) / parsed.len() as f64;
    metrics.push(Metric::new("logic.parse_us", "us", parse_us));
    metrics.push(Metric::new("logic.models_us", "us", models_us));

    // In-process prediction with the hypotheses the cached solves hold.
    let arena = shared_arena(&env.graph);
    let hypotheses: Vec<Hypothesis> = env
        .samples
        .iter()
        .map(|examples| {
            let seq = TrainingSequence::from_pairs(
                examples.iter().map(|e| (vec![V(e.tuple[0])], e.label)),
            );
            let inst = ErmInstance::new(&env.graph, seq, 1, 1, 1, 0.0);
            let solver = folearn::Solver::BruteForce {
                mode: TypeMode::Local { r: 1 },
                opts: folearn::BruteForceOpts::default(),
            };
            let h = solve_fo_erm(&inst, &solver, &arena).hypothesis;
            folearn_obs::take_thread_roots();
            h
        })
        .collect();
    let predict_us = per_call_us(tracer, "core.predict", 5, 4, || {
        for (h, tuples) in hypotheses.iter().zip(&env.eval_tuples) {
            for t in tuples {
                std::hint::black_box(h.predict(&env.graph, &[V(t[0])]));
            }
        }
    }) / (SOLVES * EVAL_TUPLES) as f64;
    metrics.push(Metric::new("core.predict_us", "us", predict_us));

    metrics.push(Metric::new(
        "loadgen.lag_p99_ms",
        "ms",
        quantile(&lag_ms, 0.99),
    ));
    metrics.push(Metric::new(
        "loadgen.backlog_max",
        "count",
        backlog_max as f64,
    ));
    metrics.push(Metric::new(
        "obs.trace_overhead_pct.serve_hot",
        "%",
        100.0 * (median(&traced_p50) / median(&plain_p50) - 1.0),
    ));
    teardown(env);
    Report {
        setup_s: Vec::new(),
        attempted,
        failed,
        wrong,
        metrics,
        details: vec![],
    }
}
