//! The folearn benchmark. See `perfbench/README.md` for the workloads,
//! the metrics and how to run it.
//!
//! ```text
//! folearn-perfbench --workload erm_cold|serve_hot|reduction_cluster|all
//!                   --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! `--trace 0` measures the named workload end to end and prints its
//! end-to-end metrics; `--trace 1` runs the per-layer ledger of all
//! three workloads (each untraced, then traced, then its layer probes),
//! splitting `--seconds` evenly over them, and prints every per-layer
//! metric. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`. Any
//! wrong answer makes the exit code 1.

mod common;
mod erm_cold;
mod gen;
mod host;
mod loadgen;
mod reduction;
mod serve_hot;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use folearn_obs::Json;

use common::{median, quantile, Metric};
use spans::Tracer;

pub const WORKLOADS: [&str; 3] = ["erm_cold", "serve_hot", "reduction_cluster"];

/// What one run was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Tiny inputs, for the smoke test.
    pub tiny: bool,
    /// Corrupt one answer before it is checked, so the check must fail
    /// (the smoke test's proof that checking works).
    pub plant_wrong: bool,
    pub out_dir: PathBuf,
}

/// What one workload reports.
pub struct Report {
    /// Every set-up time of an end-to-end run, in seconds.
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
    pub metrics: Vec<Metric>,
    pub details: Vec<(String, Json)>,
}

/// Run `setup` and time it, in seconds. An end-to-end run times the
/// set-up of the environment it measures, then sets up and tears down
/// a throwaway one at each stretch boundary (for `serve_hot`, before
/// each rung and reference stretch once the ladder has passed the
/// reference rate): the host's speed drifts over seconds to minutes,
/// so set-ups spread through the run give a median (`setup_s`) of the
/// whole run's conditions, not of one moment's.
pub fn timed<E>(setup: impl FnOnce() -> E) -> (f64, E) {
    let t = Instant::now();
    let env = setup();
    (t.elapsed().as_secs_f64(), env)
}

/// A measured run is cut into `STRETCHES` equal stretches of time, and
/// its latency and throughput come from the `FAST_STRETCHES` whose
/// units had the lowest median latency. On the small shared virtual
/// machines the benchmark runs on, the host's other tenants slow every
/// unit by half or more in spells of a few seconds (hypervisor steal is
/// only part of it: a busy sibling hyperthread steals nothing yet halves
/// the speed). Host noise only ever slows a stretch down, while a change
/// to the program slows every stretch alike, so the fastest stretches
/// still show it in full.
pub const STRETCHES: usize = 10;
const FAST_STRETCHES: usize = 5;

/// One stretch of a closed loop's run: how long it lasted and the share
/// of the host's CPU time the hypervisor stole in it (`0` where
/// `/proc/stat` cannot be read).
#[derive(Clone, Copy, Debug)]
pub struct Stretch {
    pub seconds: f64,
    pub steal: f64,
}

/// Marks the stretch each unit of a closed loop starts in, reading the
/// host's steal counter as each stretch opens and closes.
pub struct Stretches {
    start: Instant,
    len_s: f64,
    done: Vec<Stretch>,
    /// When the open stretch began (seconds since `start`) and the
    /// steal counters then.
    open: (f64, Option<(u64, u64)>),
}

impl Stretches {
    pub fn new(seconds: f64) -> Self {
        Stretches {
            start: Instant::now(),
            len_s: seconds / STRETCHES as f64,
            done: Vec::new(),
            open: (0.0, common::cpu_steal_ticks()),
        }
    }

    /// The stretch a unit starting now belongs to. When a new stretch
    /// begins, `between` runs first, outside every stretch.
    pub fn enter(&mut self, between: &mut dyn FnMut()) -> usize {
        let now = self.start.elapsed().as_secs_f64();
        let stretch = ((now / self.len_s) as usize).min(STRETCHES - 1);
        if stretch > self.done.len() {
            // Stretches a long unit skipped over stay empty.
            while self.done.len() < stretch {
                self.close_open();
            }
            between();
            self.open = (
                self.start.elapsed().as_secs_f64(),
                common::cpu_steal_ticks(),
            );
        }
        stretch
    }

    fn close_open(&mut self) {
        let (now, steal) = (
            self.start.elapsed().as_secs_f64(),
            common::cpu_steal_ticks(),
        );
        self.done.push(Stretch {
            seconds: now - self.open.0,
            steal: steal_share(self.open.1, steal),
        });
        self.open = (now, steal);
    }

    /// End the last stretch.
    pub fn close(mut self) -> Vec<Stretch> {
        self.close_open();
        self.done
    }
}

/// The share of CPU time stolen between two readings of the steal
/// counters; `0` when they cannot be read.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// The [`FAST_STRETCHES`] stretches of lowest median unit latency,
/// given each stretch's units' latencies; stretches without units do
/// not count, and earlier ones win a tie.
pub fn fastest(per_stretch: &[Vec<f64>]) -> Vec<usize> {
    let mut used: Vec<(usize, f64)> = per_stretch
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.is_empty())
        .map(|(i, l)| (i, median(l)))
        .collect();
    used.sort_by(|a, b| a.1.total_cmp(&b.1));
    used.truncate(FAST_STRETCHES);
    used.into_iter().map(|(i, _)| i).collect()
}

/// The stretches a closed loop's metrics come from, given its units
/// (the stretch each started in, and its latency).
pub fn fast_stretches(units: &[(usize, f64)], stretches: &[Stretch]) -> Vec<usize> {
    let mut per_stretch = vec![Vec::new(); stretches.len()];
    for &(s, l) in units {
        per_stretch[s].push(l);
    }
    fastest(&per_stretch)
}

/// End-to-end metrics of a closed loop, from its units (the stretch each
/// started in, and its latency, infinite for a failed unit), taken over
/// the units of its fastest stretches (see [`STRETCHES`]). Each quantile is
/// taken over all those units: a closed loop completes a few hundred
/// units in a run, too few to split into windows of their own (the
/// median of 20 tasks moved more between runs than the median of all of
/// them). A closed loop offers exactly the load it completes, so its
/// `slo_rps` is the rate of units that finished within the latency
/// limit, `slo_p50s` times the run's p50: it falls below
/// `throughput_per_s` by the share of units slower than that, so a
/// heavier tail lowers it even at an unchanged median. `rss_mb` is the
/// peak resident set after a fixed amount of work (see [`Rss`]).
pub fn closed_loop_metrics(
    slo_p50s: f64,
    setup_s: &[f64],
    units: &[(usize, f64)],
    stretches: &[Stretch],
    rss_mb: f64,
) -> Vec<Metric> {
    let fast = fast_stretches(units, stretches);
    let latencies_ms: Vec<f64> = units
        .iter()
        .filter(|(s, _)| fast.contains(s))
        .map(|&(_, l)| l)
        .collect();
    let elapsed_s: f64 = fast.iter().map(|&s| stretches[s].seconds).sum();
    let p50 = quantile(&latencies_ms, 0.5);
    let completed = latencies_ms.iter().filter(|l| l.is_finite()).count();
    let limit_ms = slo_p50s * p50;
    let within = latencies_ms.iter().filter(|&&l| l <= limit_ms).count();
    vec![
        Metric::new("setup_s", "s", median(setup_s)),
        Metric::new("latency_p50_ms", "ms", p50),
        Metric::ungated("latency_p90_ms", "ms", quantile(&latencies_ms, 0.9)),
        Metric::ungated("latency_p99_ms", "ms", quantile(&latencies_ms, 0.99)),
        Metric::new("throughput_per_s", "1/s", completed as f64 / elapsed_s),
        Metric::ungated("slo_rps", "1/s", within as f64 / elapsed_s),
        Metric::new("peak_rss_mb", "MiB", rss_mb),
    ]
}

/// The stretches of a closed loop's run, for its result record.
pub fn stretches_json(units: &[(usize, f64)], stretches: &[Stretch]) -> Json {
    let counts: Vec<usize> = (0..stretches.len())
        .map(|i| units.iter().filter(|&&(u, _)| u == i).count())
        .collect();
    stretch_table(stretches, &counts, &fast_stretches(units, stretches))
}

/// Stretches for a result record: length, stolen share, units measured
/// and whether the metrics came from it.
pub fn stretch_table(stretches: &[Stretch], units: &[usize], counted: &[usize]) -> Json {
    Json::Arr(
        stretches
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("seconds", Json::Num(s.seconds)),
                    ("steal", Json::Num(s.steal)),
                    ("units", Json::int(units[i])),
                    ("counted", Json::Bool(counted.contains(&i))),
                ])
            })
            .collect(),
    )
}

/// The process's peak resident set, read once a workload has done a
/// fixed amount of work: the servers' state grows with the work done,
/// so reading it at the end would measure how fast the host ran. That
/// work fits in a run's first stretch; should it not, the reading is
/// taken as the stretch ends (see [`Rss::settle`]).
pub struct Rss {
    after: usize,
    mb: Option<f64>,
}

impl Rss {
    pub fn after(units: usize) -> Self {
        Rss {
            after: units,
            mb: None,
        }
    }

    /// Note that `done` units have completed.
    pub fn progress(&mut self, done: usize) {
        if done == self.after && self.mb.is_none() {
            self.mb = Some(common::peak_rss_mb());
        }
    }

    /// Take the reading now unless it is taken: before anything else
    /// (a throwaway set-up, see [`timed`]) adds to the peak.
    pub fn settle(&mut self) {
        if self.mb.is_none() {
            self.mb = Some(common::peak_rss_mb());
        }
    }

    /// The reading, or the peak so far if the run stopped short.
    pub fn mb(&self) -> f64 {
        self.mb.unwrap_or_else(common::peak_rss_mb)
    }
}

struct Args {
    workload: String,
    trace: bool,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut tiny = false;
    let mut plant_wrong = false;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            "--out" => out_dir = PathBuf::from(value()?),
            "--tiny" => tiny = true,
            "--plant-wrong" => plant_wrong = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        trace,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            tiny,
            plant_wrong,
            out_dir,
        },
    })
}

fn run_workload(name: &str, ctx: &Ctx) -> Report {
    match name {
        "erm_cold" => erm_cold::run(ctx),
        "serve_hot" => serve_hot::run(ctx),
        "reduction_cluster" => reduction::run(ctx),
        other => unreachable!("workload {other} was validated"),
    }
}

fn run_ledger(name: &str, ctx: &Ctx, tracer: &Tracer) -> Report {
    match name {
        "erm_cold" => erm_cold::ledger(ctx, tracer),
        "serve_hot" => serve_hot::ledger(ctx, tracer),
        "reduction_cluster" => reduction::ledger(ctx, tracer),
        other => unreachable!("workload {other} was validated"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("folearn-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = &args.ctx;
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!(
            "folearn-perfbench: cannot create {}: {e}",
            ctx.out_dir.display()
        );
        return ExitCode::from(2);
    }
    let tracer = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let steal_before = common::cpu_steal_ticks();
    // A traced run reports every per-layer metric whichever workload it
    // names, so it runs the whole ledger, in the time of one workload.
    // Its files are named for the ledger, not for that workload.
    let names: Vec<&str> = if args.trace || args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let label = if args.trace {
        "ledger"
    } else {
        args.workload.as_str()
    };
    let ledger_ctx = Ctx {
        seconds: ctx.seconds / names.len() as f64,
        out_dir: ctx.out_dir.clone(),
        ..*ctx
    };
    let run_ctx = if args.trace { &ledger_ctx } else { ctx };
    let mut reports = Vec::new();
    for name in &names {
        eprintln!(
            "folearn-perfbench: {name} (seed {}, {} s, trace {})",
            ctx.seed,
            run_ctx.seconds,
            u8::from(args.trace)
        );
        let report = if args.trace {
            run_ledger(name, run_ctx, &tracer)
        } else {
            run_workload(name, run_ctx)
        };
        reports.push((*name, report));
    }
    let steal_pct = match (steal_before, common::cpu_steal_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    println!("== host: {steal_pct:.1}% of CPU time stolen by the hypervisor during the run");
    let prefixed = args.workload == "all";

    // Human-readable table, one metric per line, before the result line.
    let mut metrics: Vec<(String, Json)> = Vec::new();
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, Vec::new());
    for (name, r) in &reports {
        println!(
            "== {name}: attempted {} failed {} wrong {}",
            r.attempted,
            r.failed,
            r.wrong.len()
        );
        if !args.trace {
            let rate = r.failed as f64 / r.attempted.max(1) as f64;
            println!("   {:<44} {rate:>14.6} ratio", "error_rate");
        }
        for m in &r.metrics {
            let mark = if m.gated { "" } else { "  (not gated)" };
            println!("   {:<44} {:>14.6} {}{mark}", m.name, m.value, m.unit);
            if !m.gated {
                continue;
            }
            let key = if prefixed {
                format!("{name}.{}", m.name)
            } else {
                m.name.clone()
            };
            metrics.push((
                key,
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            ));
        }
        attempted += r.attempted;
        failed += r.failed;
        wrong.extend(r.wrong.iter().cloned());
    }
    for w in &wrong {
        eprintln!("WRONG ANSWER: {w}");
    }
    if args.trace {
        let all = tracer.spans();
        println!("{}", spans::layer_table(&all));
        let path = ctx
            .out_dir
            .join(format!("spans-{label}-seed{}.jsonl", ctx.seed));
        match spans::write_jsonl(&path, &all) {
            Ok(()) => eprintln!(
                "folearn-perfbench: {} spans written to {}",
                all.len(),
                path.display()
            ),
            Err(e) => eprintln!("folearn-perfbench: cannot write {}: {e}", path.display()),
        }
    }

    let correct = wrong.is_empty();
    let bad: Vec<&str> = reports
        .iter()
        .flat_map(|(_, r)| r.metrics.iter())
        .filter(|m| m.gated && !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    if correct && !bad.is_empty() {
        eprintln!("folearn-perfbench: no measurement for {bad:?} (did every request fail?)");
        return ExitCode::from(3);
    }
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    let record = Json::obj([
        ("workload", Json::str(args.workload.clone())),
        ("trace", Json::Bool(args.trace)),
        ("seconds", Json::Num(ctx.seconds)),
        ("tiny", Json::Bool(ctx.tiny)),
        ("cpu_steal_pct", Json::Num(steal_pct)),
        ("host", host::metadata(ctx.seed)),
        (
            "details",
            Json::Obj(
                reports
                    .iter()
                    .map(|(name, r)| {
                        let mut d = r.details.clone();
                        d.push((
                            "setup_s".into(),
                            Json::Arr(r.setup_s.iter().map(|&t| Json::Num(t)).collect()),
                        ));
                        (name.to_string(), Json::Obj(d))
                    })
                    .collect(),
            ),
        ),
        (
            "wrong",
            Json::Arr(wrong.iter().map(|w| Json::str(w.clone())).collect()),
        ),
        ("result", result.clone()),
    ]);
    let path = ctx.out_dir.join(format!(
        "result-{label}-seed{}-trace{}.json",
        ctx.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, record.render_pretty() + "\n") {
        eprintln!("folearn-perfbench: cannot write {}: {e}", path.display());
    }
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loops_measure_their_fastest_stretches() {
        // Ten 1 s stretches of ten units: the host's noise doubled the
        // 100 ms units of five of them, and one more ran at 110 ms.
        let latency = [
            200.0, 100.0, 200.0, 100.0, 100.0, 200.0, 100.0, 200.0, 110.0, 200.0,
        ];
        let stretches = vec![
            Stretch {
                seconds: 1.0,
                steal: 0.0,
            };
            10
        ];
        let units: Vec<(usize, f64)> = (0..100).map(|i| (i / 10, latency[i / 10])).collect();
        let mut fast = fast_stretches(&units, &stretches);
        fast.sort();
        assert_eq!(fast, vec![1, 3, 4, 6, 8]);
        let metrics = closed_loop_metrics(1.5, &[0.1], &units, &stretches, 1.0);
        let value = |name: &str| metrics.iter().find(|m| m.name == name).map(|m| m.value);
        assert_eq!(value("latency_p50_ms"), Some(100.0));
        assert_eq!(value("latency_p99_ms"), Some(110.0));
        assert_eq!(value("throughput_per_s"), Some(10.0));
        assert_eq!(value("slo_rps"), Some(10.0));
    }
}
