//! One metrics store for every daemon.
//!
//! A [`Registry`] holds what a daemon's `stats` reply reports: one
//! latency [`PowHistogram`] plus an error count per endpoint, a fixed
//! list of named counters, gauges and flags declared up front
//! ([`Metric`]), the per-name rollup of absorbed span trees, the live
//! [`TimeSeries`], and the daemon's identity (role, version, uptime).
//! [`Registry::snapshot`] renders it all as one JSON object whose first
//! key is `role`.
//!
//! A dotted name nests: `cache.hits` renders as `"cache": {"hits": …}`,
//! the group placed where its first member is declared. A cluster view
//! that sums the declared names of several snapshots renders through the
//! same [`render_metrics`], so a backend, a router and a cluster all
//! speak one vocabulary.
//!
//! Everything sits behind one mutex: recording a served request takes
//! the lock once and allocates nothing once its endpoint has been seen.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::hist::PowHistogram;
use crate::json::Json;
use crate::series::TimeSeries;
use crate::span::{CounterSet, SpanRecord};

/// How a declared metric is kept and rendered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A monotone count, bumped with [`Registry::add`] (or copied from
    /// its source of truth with [`Registry::set`]).
    Counter,
    /// A level, set from its source of truth with [`Registry::set`].
    Gauge,
    /// A yes/no state kept as 0/1 and rendered as a JSON bool.
    Flag,
    /// Derived, not stored: `hits / (hits + misses)` of the `hits` and
    /// `misses` declared before it in its own group (0 before any
    /// lookup).
    HitRate,
}

/// One declared metric: a (possibly dotted) name and its kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub kind: Kind,
}

impl Metric {
    /// A monotone count.
    pub const fn counter(name: &'static str) -> Self {
        Self { name, kind: Kind::Counter }
    }

    /// A level.
    pub const fn gauge(name: &'static str) -> Self {
        Self { name, kind: Kind::Gauge }
    }

    /// A yes/no state.
    pub const fn flag(name: &'static str) -> Self {
        Self { name, kind: Kind::Flag }
    }

    /// The hit rate of this metric's group.
    pub const fn hit_rate(name: &'static str) -> Self {
        Self { name, kind: Kind::HitRate }
    }
}

/// Latency and error count of one endpoint.
struct Endpoint {
    op: &'static str,
    errors: u64,
    latency: PowHistogram,
}

/// Per-span-name aggregate over absorbed span trees: duration histogram
/// plus summed work counters.
struct SpanAgg {
    name: String,
    duration_us: PowHistogram,
    counters: CounterSet,
}

impl SpanAgg {
    fn to_json(&self) -> Json {
        let Json::Obj(mut pairs) = self.duration_us.summary_json("us") else {
            unreachable!("summary_json returns an object")
        };
        for (c, v) in self.counters.iter_nonzero() {
            pairs.push((c.name().to_string(), Json::Num(v as f64)));
        }
        Json::Obj(pairs)
    }
}

struct Inner {
    endpoints: Vec<Endpoint>,
    /// Parallel to [`Registry::metrics`].
    values: Vec<u64>,
    spans: Vec<SpanAgg>,
    series: TimeSeries,
}

/// A daemon's shared, thread-safe metrics store.
pub struct Registry {
    role: &'static str,
    metrics: Vec<Metric>,
    span_rollup: bool,
    start: Instant,
    inner: Mutex<Inner>,
}

impl Registry {
    /// An all-zero registry for a daemon of `role`, declaring the
    /// metrics of every list in `lists`, in order.
    pub fn new(role: &'static str, lists: &[&[Metric]]) -> Self {
        let metrics: Vec<Metric> = lists.concat();
        let values = vec![0; metrics.len()];
        Self {
            role,
            metrics,
            span_rollup: false,
            start: Instant::now(),
            inner: Mutex::new(Inner {
                endpoints: Vec::new(),
                values,
                spans: Vec::new(),
                series: TimeSeries::new(),
            }),
        }
    }

    /// Report the span rollup ([`Registry::absorb_span`]) as `spans`.
    pub fn with_span_rollup(mut self) -> Self {
        self.span_rollup = true;
        self
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn slot(&self, name: &str) -> Option<usize> {
        let slot = self.metrics.iter().position(|m| m.name == name);
        debug_assert!(slot.is_some(), "metric {name:?} is not declared");
        slot
    }

    /// Record one served request against endpoint `op`.
    pub fn record_request(&self, op: &'static str, us: u64, ok: bool) {
        let mut inner = self.lock();
        let i = match inner.endpoints.iter().position(|e| e.op == op) {
            Some(i) => i,
            None => {
                inner.endpoints.push(Endpoint {
                    op,
                    errors: 0,
                    latency: PowHistogram::new(),
                });
                inner.endpoints.len() - 1
            }
        };
        let endpoint = &mut inner.endpoints[i];
        endpoint.latency.record(us);
        if !ok {
            endpoint.errors += 1;
        }
        inner.series.record_request(us, ok);
    }

    /// Record a solve-cache lookup into the time series (absolute cache
    /// counters are [`Registry::set`] from the cache itself).
    pub fn record_cache_event(&self, hit: bool) {
        self.lock().series.record_cache(hit);
    }

    /// Record a hedge fired or, with `won`, a request won by its hedge:
    /// the `hedges_fired`/`hedges_won` counter and the series.
    pub fn record_hedge(&self, won: bool) {
        let slot = self.slot(if won { "hedges_won" } else { "hedges_fired" });
        let mut inner = self.lock();
        if let Some(i) = slot {
            inner.values[i] += 1;
        }
        inner.series.record_hedge(won);
    }

    /// Add `n` to the declared metric `name`.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(i) = self.slot(name) {
            let mut inner = self.lock();
            inner.values[i] = inner.values[i].saturating_add(n);
        }
    }

    /// Set several declared metrics at once (a flag takes 0 or 1).
    pub fn set(&self, pairs: &[(&str, u64)]) {
        let mut inner = self.lock();
        for &(name, v) in pairs {
            if let Some(i) = self.slot(name) {
                inner.values[i] = v;
            }
        }
    }

    /// Fold a finished span tree into the per-name rollup (every span in
    /// the tree contributes to its name's aggregate).
    pub fn absorb_span(&self, rec: &SpanRecord) {
        fn visit(rec: &SpanRecord, spans: &mut Vec<SpanAgg>) {
            let us = rec.elapsed_ns / 1_000;
            match spans.iter_mut().find(|s| s.name == rec.name) {
                Some(agg) => {
                    agg.duration_us.record(us);
                    agg.counters.merge(&rec.counters);
                }
                None => {
                    let mut duration_us = PowHistogram::new();
                    duration_us.record(us);
                    spans.push(SpanAgg {
                        name: rec.name.clone(),
                        duration_us,
                        counters: rec.counters.clone(),
                    });
                }
            }
            for ch in &rec.children {
                visit(ch, spans);
            }
        }
        visit(rec, &mut self.lock().spans);
    }

    /// The `stats` payload: `role`, `version`, `uptime_ms`, `requests`
    /// (summed over endpoints), the declared metrics, `endpoints`,
    /// `spans` (with the span rollup on) and `series`.
    pub fn snapshot(&self) -> Json {
        let inner = self.lock();
        let requests: u64 = inner.endpoints.iter().map(|e| e.latency.count()).sum();
        let mut pairs = Vec::with_capacity(self.metrics.len() + 8);
        pairs.extend([
            ("role".to_string(), Json::str(self.role)),
            ("version".to_string(), Json::str(env!("CARGO_PKG_VERSION"))),
            (
                "uptime_ms".to_string(),
                Json::Num(self.start.elapsed().as_millis() as f64),
            ),
            ("requests".to_string(), Json::Num(requests as f64)),
        ]);
        pairs.extend(render_metrics(&self.metrics, &inner.values));
        pairs.push((
            "endpoints".to_string(),
            Json::Obj(
                inner
                    .endpoints
                    .iter()
                    .map(|e| (e.op.to_string(), endpoint_json(&e.latency, e.errors)))
                    .collect(),
            ),
        ));
        if self.span_rollup {
            pairs.push((
                "spans".to_string(),
                Json::Obj(
                    inner
                        .spans
                        .iter()
                        .map(|s| (s.name.clone(), s.to_json()))
                        .collect(),
                ),
            ));
        }
        pairs.push(("series".to_string(), inner.series.to_json()));
        Json::Obj(pairs)
    }
}

/// One endpoint row: `count`, `errors`, the latency summary, and the
/// full histogram as `hist` (its wire form, so a cluster view can merge
/// rows bucket-wise instead of averaging quantiles).
pub fn endpoint_json(latency: &PowHistogram, errors: u64) -> Json {
    let mut pairs = vec![
        ("count".to_string(), Json::Num(latency.count() as f64)),
        ("errors".to_string(), Json::Num(errors as f64)),
    ];
    pairs.extend(latency.summary_pairs("us"));
    pairs.push(("hist".to_string(), latency.to_wire_json()));
    Json::Obj(pairs)
}

/// Render `metrics` with their `values` (parallel slices) as object
/// pairs, nesting dotted names under their group. A group's members are
/// declared together, so a new group opens wherever the previous entry
/// is not that group.
pub fn render_metrics(metrics: &[Metric], values: &[u64]) -> Vec<(String, Json)> {
    let mut out: Vec<(String, Json)> = Vec::with_capacity(metrics.len());
    for (m, &v) in metrics.iter().zip(values) {
        let (members, leaf) = match m.name.split_once('.') {
            None => (&mut out, m.name),
            Some((group, leaf)) => {
                if !matches!(out.last(), Some((k, Json::Obj(_))) if k == group) {
                    out.push((group.to_string(), Json::Obj(Vec::with_capacity(8))));
                }
                let Some((_, Json::Obj(members))) = out.last_mut() else {
                    unreachable!("the group was just ensured")
                };
                (members, leaf)
            }
        };
        let rendered = match m.kind {
            Kind::Counter | Kind::Gauge => Json::Num(v as f64),
            Kind::Flag => Json::Bool(v != 0),
            Kind::HitRate => {
                let num = |key: &str| {
                    members
                        .iter()
                        .find(|(k, _)| k == key)
                        .and_then(|(_, v)| v.as_num())
                        .unwrap_or(0.0)
                };
                let (hits, lookups) = (num("hits"), num("hits") + num("misses"));
                Json::Num(if lookups == 0.0 { 0.0 } else { hits / lookups })
            }
        };
        members.push((leaf.to_string(), rendered));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Counter;

    const CACHE: [Metric; 4] = [
        Metric::counter("cache.hits"),
        Metric::counter("cache.misses"),
        Metric::gauge("cache.entries"),
        Metric::hit_rate("cache.hit_rate"),
    ];

    /// The value at a dotted `path` of a snapshot (`endpoints.solve.count`).
    fn at<'a>(snap: &'a Json, path: &str) -> &'a Json {
        path.split('.')
            .try_fold(snap, |v, key| v.get(key))
            .unwrap_or_else(|| panic!("no {path} in {snap:?}"))
    }

    fn num(snap: &Json, path: &str) -> f64 {
        at(snap, path).as_num().unwrap_or_else(|| panic!("{path} is not a number"))
    }

    fn keys(v: &Json) -> Vec<&str> {
        let Json::Obj(pairs) = v else { panic!("{v:?} is not an object") };
        pairs.iter().map(|(k, _)| k.as_str()).collect()
    }

    #[test]
    fn histogram_quantiles_bracket_latencies() {
        let m = Registry::new("server", &[]);
        for us in [10u64, 20, 30, 40, 1000] {
            m.record_request("solve", us, true);
        }
        m.record_request("ping", 1, true);
        let snap = m.snapshot();
        assert_eq!(num(&snap, "requests"), 6.0);
        assert_eq!(num(&snap, "endpoints.solve.count"), 5.0);
        let p50 = num(&snap, "endpoints.solve.p50_us");
        assert!((16.0..=64.0).contains(&p50), "p50 {p50}");
        assert!(num(&snap, "endpoints.solve.p99_us") >= 1000.0);
    }

    #[test]
    fn empty_and_unknown_endpoints_read_zero() {
        let snap = Registry::new("server", &[]).snapshot();
        assert_eq!(num(&snap, "requests"), 0.0);
        // No endpoint has been touched: the endpoints object is empty
        // and the quantile on a never-recorded histogram is 0.
        assert_eq!(at(&snap, "endpoints"), &Json::Obj(vec![]));
        assert_eq!(PowHistogram::new().quantile(0.99), 0);
    }

    #[test]
    fn single_sample_sets_every_percentile() {
        let m = Registry::new("server", &[]);
        m.record_request("ping", 10, true);
        let snap = m.snapshot();
        // One sample in bucket [8, 16): every quantile reads the bucket's
        // upper bound, mean and max read the sample exactly.
        for q in ["p50_us", "p95_us", "p99_us"] {
            assert_eq!(num(&snap, &format!("endpoints.ping.{q}")), 16.0, "{q}");
        }
        assert_eq!(num(&snap, "endpoints.ping.mean_us"), 10.0);
        assert_eq!(num(&snap, "endpoints.ping.max_us"), 10.0);
    }

    #[test]
    fn top_bucket_saturates_but_max_is_exact() {
        let m = Registry::new("server", &[]);
        m.record_request("solve", u64::MAX, true);
        let snap = m.snapshot();
        let top = (1u64 << (crate::BUCKETS - 1)) as f64;
        assert_eq!(num(&snap, "endpoints.solve.p50_us"), top);
        assert_eq!(num(&snap, "endpoints.solve.max_us"), u64::MAX as f64);
    }

    #[test]
    fn concurrent_records_account_max_and_total() {
        let m = Registry::new("server", &[&[Metric::counter("connections")]]);
        let (threads, per_thread) = (8u64, 200u64);
        // Latencies 1..=1600, with the global max (9999) recorded by
        // exactly one thread.
        let latency = |t: u64, i: u64| if t == 3 && i == 77 { 9999 } else { t * per_thread + i + 1 };
        std::thread::scope(|scope| {
            for t in 0..threads {
                let m = &m;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        m.record_request("solve", latency(t, i), i % 10 == 0);
                        m.add("connections", 1);
                    }
                });
            }
        });
        let snap = m.snapshot();
        let n = (threads * per_thread) as f64;
        assert_eq!(num(&snap, "endpoints.solve.count"), n);
        assert_eq!(num(&snap, "endpoints.solve.max_us"), 9999.0);
        // Total (via mean·count) must equal the exact sum: no lost
        // updates under concurrency.
        let expected: u64 = (0..threads)
            .flat_map(|t| (0..per_thread).map(move |i| latency(t, i)))
            .sum();
        assert_eq!((num(&snap, "endpoints.solve.mean_us") * n).round() as u64, expected);
        // Only every 10th request reported ok, so 9 in 10 are errors.
        assert_eq!(num(&snap, "endpoints.solve.errors"), n * 0.9);
        assert_eq!(num(&snap, "connections"), n);
    }

    #[test]
    fn errors_are_counted() {
        let m = Registry::new("server", &[]);
        m.record_request("solve", 5, false);
        assert_eq!(num(&m.snapshot(), "endpoints.solve.errors"), 1.0);
    }

    #[test]
    fn cache_counters_feed_hit_rate() {
        let m = Registry::new("server", &[&CACHE]);
        assert_eq!(num(&m.snapshot(), "cache.hit_rate"), 0.0, "no lookups yet");
        m.set(&[("cache.hits", 3), ("cache.misses", 1), ("cache.entries", 2)]);
        let snap = m.snapshot();
        assert_eq!(num(&snap, "cache.hit_rate"), 0.75);
        assert_eq!(num(&snap, "cache.entries"), 2.0);
    }

    #[test]
    fn dotted_names_nest_where_their_group_is_first_declared() {
        let m = Registry::new(
            "server",
            &[&[Metric::counter("connections")], &CACHE, &[Metric::gauge("structures")]],
        );
        let snap = m.snapshot();
        assert_eq!(
            keys(&snap),
            ["role", "version", "uptime_ms", "requests", "connections", "cache", "structures", "endpoints", "series"]
        );
        assert_eq!(keys(at(&snap, "cache")), ["hits", "misses", "entries", "hit_rate"]);
    }

    #[test]
    fn recovery_flags_and_counters_surface_flat_in_the_snapshot() {
        let m = Registry::new(
            "server",
            &[&[
                Metric::flag("durable"),
                Metric::counter("wal_records_written"),
                Metric::counter("wal_records_replayed"),
                Metric::counter("snapshot_loads"),
                Metric::counter("torn_tail_truncations"),
                Metric::gauge("recovery_ms"),
            ]],
        );
        let snap = m.snapshot();
        assert_eq!(at(&snap, "durable"), &Json::Bool(false));
        assert_eq!(num(&snap, "wal_records_replayed"), 0.0);
        m.set(&[
            ("durable", 1),
            ("wal_records_replayed", 7),
            ("snapshot_loads", 1),
            ("torn_tail_truncations", 2),
            ("recovery_ms", 34),
        ]);
        m.add("wal_records_written", 1);
        m.add("wal_records_written", 1);
        let snap = m.snapshot();
        assert_eq!(at(&snap, "durable"), &Json::Bool(true));
        for (key, want) in [
            ("wal_records_replayed", 7.0),
            ("snapshot_loads", 1.0),
            ("torn_tail_truncations", 2.0),
            ("recovery_ms", 34.0),
            ("wal_records_written", 2.0),
        ] {
            assert_eq!(num(&snap, key), want, "{key}");
        }
    }

    #[test]
    fn snapshot_reports_identity_uptime_and_series() {
        let m = Registry::new(
            "router",
            &[&[Metric::counter("hedges_fired"), Metric::counter("hedges_won")]],
        );
        m.record_request("solve", 10, true);
        m.record_cache_event(true);
        m.record_hedge(false);
        m.record_hedge(true);
        let snap = m.snapshot();
        assert_eq!(keys(&snap)[0], "role");
        assert_eq!(at(&snap, "role").as_str(), Some("router"));
        assert_eq!(at(&snap, "version").as_str(), Some(env!("CARGO_PKG_VERSION")));
        assert!(num(&snap, "uptime_ms") >= 0.0);
        assert_eq!(num(&snap, "hedges_fired"), 1.0);
        assert_eq!(num(&snap, "hedges_won"), 1.0);
        assert!(snap.get("spans").is_none(), "no span rollup unless asked");
        assert_eq!(num(&snap, "series.window_s"), 60.0);
        let buckets = at(&snap, "series.buckets").as_arr().unwrap();
        assert_eq!(buckets.len(), 1);
        for key in ["requests", "cache_hits", "hedges_fired", "hedges_won"] {
            assert_eq!(num(&buckets[0], key), 1.0, "{key}");
        }
        // Endpoint rows carry the full histogram for cluster merging.
        let hist = PowHistogram::from_wire_json(at(&snap, "endpoints.solve.hist")).unwrap();
        assert_eq!(hist.count(), 1);
    }

    #[test]
    fn absorbed_spans_aggregate_by_name() {
        let m = Registry::new("server", &[]).with_span_rollup();
        let mut worker = SpanRecord::new("erm.worker");
        worker.elapsed_ns = 2_000_000;
        worker.counters.add(Counter::EvaluatedParams, 50);
        let mut root = SpanRecord::new("server.solve");
        root.elapsed_ns = 5_000_000;
        root.children.push(worker.clone());
        root.children.push(worker);
        m.absorb_span(&root);
        m.absorb_span(&root);
        // Span names are dotted themselves: look them up whole.
        let spans = at(&m.snapshot(), "spans").clone();
        assert_eq!(num(spans.get("server.solve").unwrap(), "count"), 2.0);
        let worker = spans.get("erm.worker").unwrap();
        assert_eq!(num(worker, "count"), 4.0);
        assert_eq!(num(worker, "evaluated_params"), 200.0);
        assert_eq!(num(worker, "mean_us"), 2000.0);
    }
}
