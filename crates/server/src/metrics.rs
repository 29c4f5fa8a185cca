//! Server metrics: request counters, cache statistics, solver work
//! accounting, per-endpoint latency histograms, and the learner-span
//! rollup.
//!
//! Latencies are recorded in the shared power-of-two-microsecond
//! histogram ([`folearn_obs::PowHistogram`]: bucket `i` counts requests
//! with `2^{i-1} ≤ µs < 2^i`), which is enough resolution to read
//! p50/p95/p99 within a factor of two at any scale without unbounded
//! memory. Solve-side span trees captured by `folearn_obs` are folded in
//! per span name ([`Metrics::absorb_span`]), so the `stats` endpoint
//! surfaces learner-level timings (`server.solve`, `solve`, `erm.sweep`,
//! …) next to the wire-level ones. [`Metrics::snapshot`] renders it all
//! as JSON.

use std::time::Instant;

use folearn_obs::{CounterSet, PowHistogram, SpanRecord, TimeSeries};
use parking_lot::Mutex;

use crate::proto::Json;

/// Per-endpoint latency + count record.
#[derive(Clone)]
struct OpRecord {
    op: &'static str,
    errors: u64,
    latency: PowHistogram,
}

impl OpRecord {
    fn new(op: &'static str) -> Self {
        Self {
            op,
            errors: 0,
            latency: PowHistogram::new(),
        }
    }

    fn record(&mut self, us: u64, ok: bool) {
        if !ok {
            self.errors += 1;
        }
        self.latency.record(us);
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("count".to_string(), Json::Num(self.latency.count() as f64)),
            ("errors".to_string(), Json::Num(self.errors as f64)),
        ];
        pairs.extend(self.latency.summary_pairs("us"));
        // Full bucket counts ride along so a router can merge endpoint
        // histograms bucket-wise instead of averaging quantiles.
        pairs.push(("hist".to_string(), self.latency.to_wire_json()));
        Json::Obj(pairs)
    }
}

/// Per-span-name aggregate over absorbed solve traces: duration
/// histogram plus summed work counters.
#[derive(Clone)]
struct SpanAgg {
    name: String,
    duration_us: PowHistogram,
    counters: CounterSet,
}

impl SpanAgg {
    fn to_json(&self) -> Json {
        let mut pairs = match self.duration_us.summary_json("us") {
            Json::Obj(pairs) => pairs,
            _ => unreachable!("summary_json returns an object"),
        };
        for (c, v) in self.counters.iter_nonzero() {
            pairs.push((c.name().to_string(), Json::Num(v as f64)));
        }
        Json::Obj(pairs)
    }
}

struct Inner {
    ops: Vec<OpRecord>,
    spans: Vec<SpanAgg>,
    structures: u64,
    hypotheses: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    cache_len: u64,
    evaluated_params: u64,
    pruned_params: u64,
    connections: u64,
    over_limit_closes: u64,
    idle_closes: u64,
    oversize_closes: u64,
    truncated_frames: u64,
    rejected_connections: u64,
    worker_panics: u64,
    event_loops: u64,
    cache_shards: u64,
    durable: bool,
    wal_records_written: u64,
    wal_records_replayed: u64,
    snapshot_loads: u64,
    torn_tail_truncations: u64,
    recovery_ms: u64,
    series: TimeSeries,
}

/// Shared, thread-safe metrics sink.
pub struct Metrics {
    inner: Mutex<Inner>,
    start: Instant,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                ops: Vec::new(),
                spans: Vec::new(),
                structures: 0,
                hypotheses: 0,
                cache_hits: 0,
                cache_misses: 0,
                cache_evictions: 0,
                cache_len: 0,
                evaluated_params: 0,
                pruned_params: 0,
                connections: 0,
                over_limit_closes: 0,
                idle_closes: 0,
                oversize_closes: 0,
                truncated_frames: 0,
                rejected_connections: 0,
                worker_panics: 0,
                event_loops: 0,
                cache_shards: 1,
                durable: false,
                wal_records_written: 0,
                wal_records_replayed: 0,
                snapshot_loads: 0,
                torn_tail_truncations: 0,
                recovery_ms: 0,
                series: TimeSeries::new(),
            }),
            start: Instant::now(),
        }
    }

    /// Record one served request.
    pub fn record_request(&self, op: &'static str, us: u64, ok: bool) {
        let mut inner = self.inner.lock();
        match inner.ops.iter_mut().find(|r| r.op == op) {
            Some(r) => r.record(us, ok),
            None => {
                let mut r = OpRecord::new(op);
                r.record(us, ok);
                inner.ops.push(r);
            }
        }
        inner.series.record_request(us, ok);
    }

    /// Record a solve-cache lookup into the live time-series (the
    /// absolute counters still come from the cache via
    /// [`Metrics::set_cache_counters`]).
    pub fn record_cache_event(&self, hit: bool) {
        self.inner.lock().series.record_cache(hit);
    }

    /// Fold a finished solve-span tree into the per-name rollup (every
    /// span in the tree contributes to its name's aggregate).
    pub fn absorb_span(&self, rec: &SpanRecord) {
        let mut inner = self.inner.lock();
        fn visit(rec: &SpanRecord, spans: &mut Vec<SpanAgg>) {
            match spans.iter_mut().find(|s| s.name == rec.name) {
                Some(agg) => {
                    agg.duration_us.record(rec.elapsed_ns / 1_000);
                    agg.counters.merge(&rec.counters);
                }
                None => {
                    let mut agg = SpanAgg {
                        name: rec.name.clone(),
                        duration_us: PowHistogram::new(),
                        counters: rec.counters.clone(),
                    };
                    agg.duration_us.record(rec.elapsed_ns / 1_000);
                    spans.push(agg);
                }
            }
            for ch in &rec.children {
                visit(ch, spans);
            }
        }
        visit(rec, &mut inner.spans);
    }

    /// Record a new connection.
    pub fn record_connection(&self) {
        self.inner.lock().connections += 1;
    }

    /// Record a connection closed for exceeding its request budget.
    pub fn record_over_limit(&self) {
        self.inner.lock().over_limit_closes += 1;
    }

    /// Record a connection closed for exceeding the idle timeout.
    pub fn record_idle_close(&self) {
        self.inner.lock().idle_closes += 1;
    }

    /// Record a connection closed for an oversized request line.
    pub fn record_oversize_close(&self) {
        self.inner.lock().oversize_closes += 1;
    }

    /// Record a frame cut short by EOF (rejected, not served).
    pub fn record_truncated_frame(&self) {
        self.inner.lock().truncated_frames += 1;
    }

    /// Record a connection turned away at the concurrency cap.
    pub fn record_rejected_connection(&self) {
        self.inner.lock().rejected_connections += 1;
    }

    /// Update the worker-panic gauge (absolute count from the pool).
    pub fn set_worker_panics(&self, panics: u64) {
        self.inner.lock().worker_panics = panics;
    }

    /// Record the front door's readiness-loop count and the
    /// cache/registry shard count.
    pub fn set_core_info(&self, event_loops: usize, cache_shards: usize) {
        let mut inner = self.inner.lock();
        inner.event_loops = event_loops as u64;
        inner.cache_shards = cache_shards as u64;
    }

    /// Record one mutation appended (and fsync'd) to the WAL.
    pub fn record_wal_append(&self) {
        self.inner.lock().wal_records_written += 1;
    }

    /// Record the outcome of a startup replay: how many records were
    /// replayed, whether a snapshot was loaded, how many torn tails
    /// were truncated, and how long the whole replay took. Marks the
    /// daemon durable — the counters (and the flag) surface in `stats`
    /// immediately, so a freshly restarted backend reports a useful
    /// story before its first request.
    pub fn set_recovery(
        &self,
        records_replayed: u64,
        snapshot_loads: u64,
        torn_tail_truncations: u64,
        recovery_ms: u64,
    ) {
        let mut inner = self.inner.lock();
        inner.durable = true;
        inner.wal_records_replayed = records_replayed;
        inner.snapshot_loads = snapshot_loads;
        inner.torn_tail_truncations = torn_tail_truncations;
        inner.recovery_ms = recovery_ms;
    }

    /// Update the registry/hypothesis-store gauges.
    pub fn set_store_sizes(&self, structures: usize, hypotheses: usize) {
        let mut inner = self.inner.lock();
        inner.structures = structures as u64;
        inner.hypotheses = hypotheses as u64;
    }

    /// Update the cache counters (absolute values from the cache).
    pub fn set_cache_counters(&self, hits: u64, misses: u64, evictions: u64, len: usize) {
        let mut inner = self.inner.lock();
        inner.cache_hits = hits;
        inner.cache_misses = misses;
        inner.cache_evictions = evictions;
        inner.cache_len = len as u64;
    }

    /// Accumulate solver work from an uncached solve.
    pub fn record_solver_work(&self, evaluated: usize, pruned: usize) {
        let mut inner = self.inner.lock();
        inner.evaluated_params += evaluated as u64;
        inner.pruned_params += pruned as u64;
    }

    /// `(cache_hits, cache_misses)` as last synced.
    pub fn cache_hit_miss(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.cache_hits, inner.cache_misses)
    }

    /// Snapshot the metrics as a JSON object (the `stats` payload).
    pub fn snapshot(&self) -> Json {
        let inner = self.inner.lock();
        let total: u64 = inner.ops.iter().map(|r| r.latency.count()).sum();
        let lookups = inner.cache_hits + inner.cache_misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            inner.cache_hits as f64 / lookups as f64
        };
        Json::obj([
            ("role", Json::str("server")),
            ("version", Json::str(env!("CARGO_PKG_VERSION"))),
            (
                "uptime_ms",
                Json::Num(self.start.elapsed().as_millis() as f64),
            ),
            ("requests", Json::Num(total as f64)),
            ("connections", Json::Num(inner.connections as f64)),
            (
                "over_limit_closes",
                Json::Num(inner.over_limit_closes as f64),
            ),
            ("idle_closes", Json::Num(inner.idle_closes as f64)),
            ("oversize_closes", Json::Num(inner.oversize_closes as f64)),
            (
                "truncated_frames",
                Json::Num(inner.truncated_frames as f64),
            ),
            (
                "rejected_connections",
                Json::Num(inner.rejected_connections as f64),
            ),
            ("worker_panics", Json::Num(inner.worker_panics as f64)),
            ("event_loops", Json::Num(inner.event_loops as f64)),
            ("structures", Json::Num(inner.structures as f64)),
            ("hypotheses", Json::Num(inner.hypotheses as f64)),
            ("durable", Json::Bool(inner.durable)),
            (
                "wal_records_written",
                Json::Num(inner.wal_records_written as f64),
            ),
            (
                "wal_records_replayed",
                Json::Num(inner.wal_records_replayed as f64),
            ),
            ("snapshot_loads", Json::Num(inner.snapshot_loads as f64)),
            (
                "torn_tail_truncations",
                Json::Num(inner.torn_tail_truncations as f64),
            ),
            ("recovery_ms", Json::Num(inner.recovery_ms as f64)),
            (
                "cache",
                Json::obj([
                    ("hits", Json::Num(inner.cache_hits as f64)),
                    ("misses", Json::Num(inner.cache_misses as f64)),
                    ("evictions", Json::Num(inner.cache_evictions as f64)),
                    ("entries", Json::Num(inner.cache_len as f64)),
                    ("shards", Json::Num(inner.cache_shards as f64)),
                    ("hit_rate", Json::Num(hit_rate)),
                ]),
            ),
            (
                "solver",
                Json::obj([
                    (
                        "evaluated_params",
                        Json::Num(inner.evaluated_params as f64),
                    ),
                    ("pruned_params", Json::Num(inner.pruned_params as f64)),
                ]),
            ),
            (
                "endpoints",
                Json::Obj(
                    inner
                        .ops
                        .iter()
                        .map(|r| (r.op.to_string(), r.to_json()))
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Obj(
                    inner
                        .spans
                        .iter()
                        .map(|s| (s.name.clone(), s.to_json()))
                        .collect(),
                ),
            ),
            ("series", inner.series.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use folearn_obs::Counter;

    #[test]
    fn histogram_quantiles_bracket_latencies() {
        let m = Metrics::new();
        for us in [10u64, 20, 30, 40, 1000] {
            m.record_request("solve", us, true);
        }
        m.record_request("ping", 1, true);
        let snap = m.snapshot();
        assert_eq!(snap.get("requests").unwrap().as_usize(), Some(6));
        let solve = snap.get("endpoints").unwrap().get("solve").unwrap();
        assert_eq!(solve.get("count").unwrap().as_usize(), Some(5));
        let p50 = solve.get("p50_us").unwrap().as_num().unwrap();
        assert!((16.0..=64.0).contains(&p50), "p50 {p50}");
        let p99 = solve.get("p99_us").unwrap().as_num().unwrap();
        assert!(p99 >= 1000.0, "p99 {p99}");
    }

    #[test]
    fn empty_and_unknown_endpoints_read_zero() {
        let m = Metrics::new();
        let snap = m.snapshot();
        assert_eq!(snap.get("requests").unwrap().as_usize(), Some(0));
        // No endpoint has been touched: the endpoints object is empty
        // and the quantile on a never-recorded histogram is 0.
        assert_eq!(snap.get("endpoints").unwrap(), &Json::Obj(vec![]));
        assert_eq!(PowHistogram::new().quantile(0.99), 0);
    }

    #[test]
    fn single_sample_sets_every_percentile() {
        let m = Metrics::new();
        m.record_request("ping", 10, true);
        let snap = m.snapshot();
        let ping = snap.get("endpoints").unwrap().get("ping").unwrap();
        // One sample in bucket [8, 16): every quantile reads the bucket's
        // upper bound, mean and max read the sample exactly.
        for q in ["p50_us", "p95_us", "p99_us"] {
            assert_eq!(ping.get(q).unwrap().as_usize(), Some(16), "{q}");
        }
        assert_eq!(ping.get("mean_us").unwrap().as_num(), Some(10.0));
        assert_eq!(ping.get("max_us").unwrap().as_usize(), Some(10));
    }

    #[test]
    fn top_bucket_saturates_but_max_is_exact() {
        let m = Metrics::new();
        m.record_request("solve", u64::MAX, true);
        let snap = m.snapshot();
        let solve = snap.get("endpoints").unwrap().get("solve").unwrap();
        assert_eq!(
            solve.get("p50_us").unwrap().as_num(),
            Some((1u64 << (folearn_obs::BUCKETS - 1)) as f64)
        );
        assert_eq!(
            solve.get("max_us").unwrap().as_num(),
            Some(u64::MAX as f64)
        );
    }

    #[test]
    fn concurrent_records_account_max_and_total() {
        let m = std::sync::Arc::new(Metrics::new());
        let threads = 8;
        let per_thread = 200u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let m = std::sync::Arc::clone(&m);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        // Latencies 1..=1600, with the global max (9999)
                        // recorded by exactly one thread.
                        let us = if t == 3 && i == 77 { 9999 } else { t * per_thread + i + 1 };
                        m.record_request("solve", us, i % 10 == 0);
                    }
                });
            }
        });
        let snap = m.snapshot();
        let solve = snap.get("endpoints").unwrap().get("solve").unwrap();
        let n = threads * per_thread;
        assert_eq!(solve.get("count").unwrap().as_usize(), Some(n as usize));
        assert_eq!(solve.get("max_us").unwrap().as_usize(), Some(9999));
        // Total (via mean·count) must equal the exact sum: no lost
        // updates under concurrency.
        let expected: u64 = (0..threads)
            .flat_map(|t| (0..per_thread).map(move |i| if t == 3 && i == 77 { 9999 } else { t * per_thread + i + 1 }))
            .sum();
        let mean = solve.get("mean_us").unwrap().as_num().unwrap();
        assert_eq!((mean * n as f64).round() as u64, expected);
        // Only every 10th request reported ok, so 9 in 10 are errors.
        let errors = solve.get("errors").unwrap().as_usize().unwrap();
        assert_eq!(errors, (threads * per_thread) as usize * 9 / 10);
    }

    #[test]
    fn cache_counters_feed_hit_rate() {
        let m = Metrics::new();
        m.set_cache_counters(3, 1, 0, 2);
        let snap = m.snapshot();
        let cache = snap.get("cache").unwrap();
        assert_eq!(cache.get("hit_rate").unwrap().as_num(), Some(0.75));
        assert_eq!(m.cache_hit_miss(), (3, 1));
    }

    #[test]
    fn recovery_counters_surface_flat_in_the_snapshot() {
        let m = Metrics::new();
        let snap = m.snapshot();
        assert_eq!(snap.get("durable").and_then(Json::as_bool), Some(false));
        assert_eq!(
            snap.get("wal_records_replayed").and_then(Json::as_usize),
            Some(0)
        );
        m.set_recovery(7, 1, 2, 34);
        m.record_wal_append();
        m.record_wal_append();
        let snap = m.snapshot();
        assert_eq!(snap.get("durable").and_then(Json::as_bool), Some(true));
        assert_eq!(
            snap.get("wal_records_replayed").and_then(Json::as_usize),
            Some(7)
        );
        assert_eq!(snap.get("snapshot_loads").and_then(Json::as_usize), Some(1));
        assert_eq!(
            snap.get("torn_tail_truncations").and_then(Json::as_usize),
            Some(2)
        );
        assert_eq!(snap.get("recovery_ms").and_then(Json::as_usize), Some(34));
        assert_eq!(
            snap.get("wal_records_written").and_then(Json::as_usize),
            Some(2)
        );
    }

    #[test]
    fn errors_are_counted() {
        let m = Metrics::new();
        m.record_request("solve", 5, false);
        let snap = m.snapshot();
        let solve = snap.get("endpoints").unwrap().get("solve").unwrap();
        assert_eq!(solve.get("errors").unwrap().as_usize(), Some(1));
    }

    #[test]
    fn snapshot_reports_identity_uptime_and_series() {
        let m = Metrics::new();
        m.record_request("solve", 10, true);
        m.record_cache_event(true);
        let snap = m.snapshot();
        assert_eq!(snap.get("role").and_then(Json::as_str), Some("server"));
        assert_eq!(
            snap.get("version").and_then(Json::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(snap.get("uptime_ms").and_then(Json::as_num).is_some());
        let series = snap.get("series").unwrap();
        assert_eq!(series.get("window_s").and_then(Json::as_usize), Some(60));
        let buckets = series.get("buckets").and_then(Json::as_arr).unwrap();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].get("requests").and_then(Json::as_usize), Some(1));
        assert_eq!(
            buckets[0].get("cache_hits").and_then(Json::as_usize),
            Some(1)
        );
        // Endpoint rows carry the full histogram for cluster merging.
        let solve = snap.get("endpoints").unwrap().get("solve").unwrap();
        let hist = PowHistogram::from_wire_json(solve.get("hist").unwrap()).unwrap();
        assert_eq!(hist.count(), 1);
    }

    #[test]
    fn absorbed_spans_aggregate_by_name() {
        let m = Metrics::new();
        let mut worker = SpanRecord::new("erm.worker");
        worker.elapsed_ns = 2_000_000;
        worker.counters.add(Counter::EvaluatedParams, 50);
        let mut root = SpanRecord::new("server.solve");
        root.elapsed_ns = 5_000_000;
        root.children.push(worker.clone());
        root.children.push(worker);
        m.absorb_span(&root);
        m.absorb_span(&root);
        let snap = m.snapshot();
        let spans = snap.get("spans").unwrap();
        let solve = spans.get("server.solve").unwrap();
        assert_eq!(solve.get("count").unwrap().as_usize(), Some(2));
        let worker = spans.get("erm.worker").unwrap();
        assert_eq!(worker.get("count").unwrap().as_usize(), Some(4));
        assert_eq!(worker.get("evaluated_params").unwrap().as_usize(), Some(200));
        assert_eq!(worker.get("mean_us").unwrap().as_num(), Some(2000.0));
    }
}
