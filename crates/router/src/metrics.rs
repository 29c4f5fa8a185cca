//! Router metrics: front-door request accounting plus the cluster-level
//! counters that make hedging and failover auditable.
//!
//! Front-door requests reuse the power-of-two-microsecond latency
//! histograms of [`folearn_obs::PowHistogram`] (same resolution story as
//! the backend daemon's metrics). On top, the router tracks what no
//! single backend can see: hedges fired and won, replica retries,
//! failovers, anti-entropy repairs (structures re-seeded, hypothesis
//! bindings replicated ahead of need), and a per-backend
//! request/error/ejection table. The snapshot is the payload of the
//! front-door `stats` op.

use std::time::Instant;

use folearn_obs::{PowHistogram, TimeSeries};
use folearn_server::proto::Json;
use parking_lot::Mutex;

/// Per-endpoint latency + count record (router-side, i.e. including
/// fan-out and hedging time).
struct OpRecord {
    op: &'static str,
    errors: u64,
    latency: PowHistogram,
}

impl OpRecord {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("count".to_string(), Json::Num(self.latency.count() as f64)),
            ("errors".to_string(), Json::Num(self.errors as f64)),
        ];
        pairs.extend(self.latency.summary_pairs("us"));
        Json::Obj(pairs)
    }
}

/// Per-backend accounting row.
struct BackendRow {
    addr: String,
    requests: u64,
    errors: u64,
    ejections: u64,
    live: bool,
}

struct Inner {
    ops: Vec<OpRecord>,
    backends: Vec<BackendRow>,
    hedges_fired: u64,
    hedges_won: u64,
    replica_retries: u64,
    failovers: u64,
    repairs_performed: u64,
    rebinds_avoided: u64,
    rejected_connections: u64,
    over_limit_closes: u64,
    idle_closes: u64,
    oversize_closes: u64,
    truncated_frames: u64,
    structures: u64,
    hypotheses: u64,
    series: TimeSeries,
}

/// Shared, thread-safe router metrics sink.
pub struct RouterMetrics {
    inner: Mutex<Inner>,
    start: Instant,
}

impl Default for RouterMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl RouterMetrics {
    /// Fresh metrics with one all-zero row per backend address.
    pub fn new_with_backends(addrs: &[String]) -> Self {
        Self {
            inner: Mutex::new(Inner {
                ops: Vec::new(),
                backends: addrs
                    .iter()
                    .map(|a| BackendRow {
                        addr: a.clone(),
                        requests: 0,
                        errors: 0,
                        ejections: 0,
                        live: true,
                    })
                    .collect(),
                hedges_fired: 0,
                hedges_won: 0,
                replica_retries: 0,
                failovers: 0,
                repairs_performed: 0,
                rebinds_avoided: 0,
                rejected_connections: 0,
                over_limit_closes: 0,
                idle_closes: 0,
                oversize_closes: 0,
                truncated_frames: 0,
                structures: 0,
                hypotheses: 0,
                series: TimeSeries::new(),
            }),
            start: Instant::now(),
        }
    }

    /// Fresh metrics with no backend rows (tests).
    pub fn new() -> Self {
        Self::new_with_backends(&[])
    }

    /// Record one front-door request.
    pub fn record_request(&self, op: &'static str, us: u64, ok: bool) {
        let mut inner = self.inner.lock();
        match inner.ops.iter_mut().find(|r| r.op == op) {
            Some(r) => {
                if !ok {
                    r.errors += 1;
                }
                r.latency.record(us);
            }
            None => {
                let mut r = OpRecord {
                    op,
                    errors: 0,
                    latency: PowHistogram::new(),
                };
                if !ok {
                    r.errors += 1;
                }
                r.latency.record(us);
                inner.ops.push(r);
            }
        }
        inner.series.record_request(us, ok);
    }

    /// Record whether a routed solve came back backend-cached (the
    /// router has no cache of its own; this is the cluster's hit rate
    /// as seen from the front door).
    pub fn record_cache_event(&self, hit: bool) {
        self.inner.lock().series.record_cache(hit);
    }

    /// Record one backend call outcome (by backend index).
    pub fn record_backend_call(&self, backend: usize, ok: bool) {
        let mut inner = self.inner.lock();
        if let Some(row) = inner.backends.get_mut(backend) {
            row.requests += 1;
            if !ok {
                row.errors += 1;
            }
        }
    }

    /// Record a backend ejection (live → ejected transition).
    pub fn record_ejection(&self, backend: usize) {
        let mut inner = self.inner.lock();
        if let Some(row) = inner.backends.get_mut(backend) {
            row.ejections += 1;
            row.live = false;
        }
        inner.failovers += 1;
        folearn_obs::count(folearn_obs::Counter::Failovers, 1);
    }

    /// Record a backend returning to rotation.
    pub fn record_recovery(&self, backend: usize) {
        let mut inner = self.inner.lock();
        if let Some(row) = inner.backends.get_mut(backend) {
            row.live = true;
        }
    }

    /// Record a hedge request fired.
    pub fn record_hedge_fired(&self) {
        let mut inner = self.inner.lock();
        inner.hedges_fired += 1;
        inner.series.record_hedge(false);
        folearn_obs::count(folearn_obs::Counter::HedgesFired, 1);
    }

    /// Record a connection turned away at the concurrency cap.
    pub fn record_rejected_connection(&self) {
        self.inner.lock().rejected_connections += 1;
    }

    /// Record a connection closed for exceeding its request budget.
    pub fn record_over_limit(&self) {
        self.inner.lock().over_limit_closes += 1;
    }

    /// Record a connection closed for idleness.
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

    /// Record a request won by its hedge (not the primary).
    pub fn record_hedge_won(&self) {
        let mut inner = self.inner.lock();
        inner.hedges_won += 1;
        inner.series.record_hedge_won();
        folearn_obs::count(folearn_obs::Counter::HedgesWon, 1);
    }

    /// Record a retry on the next replica after a backend failure.
    pub fn record_replica_retry(&self) {
        self.inner.lock().replica_retries += 1;
        folearn_obs::count(folearn_obs::Counter::ReplicaRetries, 1);
    }

    /// Record one anti-entropy repair: a structure re-seeded onto a
    /// backend whose inventory had lost it.
    pub fn record_repair(&self) {
        self.inner.lock().repairs_performed += 1;
    }

    /// Record one hypothesis binding replicated ahead of need by the
    /// anti-entropy pass — an evaluate-time re-solve that will now
    /// never happen.
    pub fn record_rebind_avoided(&self) {
        self.inner.lock().rebinds_avoided += 1;
    }

    /// `(repairs_performed, rebinds_avoided)` so far.
    pub fn repair_counters(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.repairs_performed, inner.rebinds_avoided)
    }

    /// Update the placement/hypothesis-table gauges.
    pub fn set_store_sizes(&self, structures: usize, hypotheses: usize) {
        let mut inner = self.inner.lock();
        inner.structures = structures as u64;
        inner.hypotheses = hypotheses as u64;
    }

    /// `(hedges_fired, hedges_won, replica_retries, failovers)` so far.
    pub fn cluster_counters(&self) -> (u64, u64, u64, u64) {
        let inner = self.inner.lock();
        (
            inner.hedges_fired,
            inner.hedges_won,
            inner.replica_retries,
            inner.failovers,
        )
    }

    /// Snapshot as a JSON object (the router's `stats` payload).
    pub fn snapshot(&self) -> Json {
        let inner = self.inner.lock();
        let total: u64 = inner.ops.iter().map(|r| r.latency.count()).sum();
        Json::obj([
            ("role", Json::str("router")),
            ("version", Json::str(env!("CARGO_PKG_VERSION"))),
            (
                "uptime_ms",
                Json::Num(self.start.elapsed().as_millis() as f64),
            ),
            ("requests", Json::Num(total as f64)),
            ("hedges_fired", Json::Num(inner.hedges_fired as f64)),
            ("hedges_won", Json::Num(inner.hedges_won as f64)),
            (
                "replica_retries",
                Json::Num(inner.replica_retries as f64),
            ),
            ("failovers", Json::Num(inner.failovers as f64)),
            (
                "repairs_performed",
                Json::Num(inner.repairs_performed as f64),
            ),
            (
                "rebinds_avoided",
                Json::Num(inner.rebinds_avoided as f64),
            ),
            (
                "rejected_connections",
                Json::Num(inner.rejected_connections as f64),
            ),
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
            ("structures", Json::Num(inner.structures as f64)),
            ("hypotheses", Json::Num(inner.hypotheses as f64)),
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
                "backends",
                Json::Arr(
                    inner
                        .backends
                        .iter()
                        .map(|b| {
                            Json::obj([
                                ("addr", Json::str(b.addr.clone())),
                                ("requests", Json::Num(b.requests as f64)),
                                ("errors", Json::Num(b.errors as f64)),
                                ("ejections", Json::Num(b.ejections as f64)),
                                ("live", Json::Bool(b.live)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("series", inner.series.to_json()),
        ])
    }
}

// ---------------------------------------------------------------------
// cluster fan-in: merge backend stats snapshots into one view
// ---------------------------------------------------------------------

/// One backend's contribution to the cluster stats fan-in: its health
/// state as the router sees it, and either its `stats` snapshot or the
/// error that kept it from reporting.
pub struct NodeStats {
    pub addr: String,
    pub live: bool,
    pub ejections: u64,
    pub consecutive_failures: u32,
    pub stats: Result<Json, String>,
}

fn num_at(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_num().unwrap_or(0.0)
}

/// Merge backend `stats` snapshots into the cluster-wide view the
/// router serves under the `cluster` key: counters summed across
/// reporting backends, endpoint latency histograms merged bucket-wise
/// (via the full-resolution `hist` wire form each backend attaches),
/// and one row per node with its health/ejection state and identity.
pub fn aggregate_cluster(nodes: &[NodeStats]) -> Json {
    let reporting: Vec<&NodeStats> = nodes.iter().filter(|n| n.stats.is_ok()).collect();
    let sum = |path: &[&str]| -> f64 {
        reporting
            .iter()
            .map(|n| num_at(n.stats.as_ref().expect("filtered Ok"), path))
            .sum()
    };
    let cache_hits = sum(&["cache", "hits"]);
    let cache_misses = sum(&["cache", "misses"]);
    let lookups = cache_hits + cache_misses;
    let hit_rate = if lookups == 0.0 {
        0.0
    } else {
        cache_hits / lookups
    };

    // Merge per-endpoint histograms bucket-wise. Ops without a `hist`
    // key (older backends) are skipped rather than mis-averaged.
    let mut endpoints: Vec<(String, u64, PowHistogram)> = Vec::new();
    for n in &reporting {
        let snap = n.stats.as_ref().expect("filtered Ok");
        let Some(Json::Obj(ops)) = snap.get("endpoints") else {
            continue;
        };
        for (op, rec) in ops {
            let Some(hist) = rec.get("hist").and_then(|h| PowHistogram::from_wire_json(h).ok())
            else {
                continue;
            };
            let errors = num_at(rec, &["errors"]) as u64;
            match endpoints.iter_mut().find(|(name, _, _)| name == op) {
                Some((_, e, h)) => {
                    *e += errors;
                    h.merge(&hist);
                }
                None => endpoints.push((op.clone(), errors, hist)),
            }
        }
    }

    let node_rows: Vec<Json> = nodes
        .iter()
        .map(|n| {
            let mut pairs = vec![
                ("addr".to_string(), Json::str(n.addr.clone())),
                ("live".to_string(), Json::Bool(n.live)),
                ("ejections".to_string(), Json::Num(n.ejections as f64)),
                (
                    "consecutive_failures".to_string(),
                    Json::Num(f64::from(n.consecutive_failures)),
                ),
            ];
            match &n.stats {
                Ok(snap) => {
                    // `durable` rides along verbatim so `folearn top`
                    // can tell a WAL-backed node from a volatile one.
                    for key in ["role", "version", "durable"] {
                        if let Some(v) = snap.get(key) {
                            pairs.push((key.to_string(), v.clone()));
                        }
                    }
                    for key in [
                        "uptime_ms",
                        "requests",
                        "worker_panics",
                        "wal_records_replayed",
                        "snapshot_loads",
                        "torn_tail_truncations",
                        "recovery_ms",
                    ] {
                        pairs.push((key.to_string(), Json::Num(num_at(snap, &[key]))));
                    }
                    pairs.push((
                        "cache_hits".to_string(),
                        Json::Num(num_at(snap, &["cache", "hits"])),
                    ));
                }
                Err(e) => pairs.push(("error".to_string(), Json::str(e.clone()))),
            }
            Json::Obj(pairs)
        })
        .collect();

    Json::obj([
        ("backends_total", Json::int(nodes.len())),
        (
            "backends_live",
            Json::int(nodes.iter().filter(|n| n.live).count()),
        ),
        ("backends_reporting", Json::int(reporting.len())),
        ("requests", Json::Num(sum(&["requests"]))),
        ("connections", Json::Num(sum(&["connections"]))),
        ("structures", Json::Num(sum(&["structures"]))),
        ("hypotheses", Json::Num(sum(&["hypotheses"]))),
        ("worker_panics", Json::Num(sum(&["worker_panics"]))),
        (
            "cache",
            Json::obj([
                ("hits", Json::Num(cache_hits)),
                ("misses", Json::Num(cache_misses)),
                ("evictions", Json::Num(sum(&["cache", "evictions"]))),
                ("entries", Json::Num(sum(&["cache", "entries"]))),
                ("hit_rate", Json::Num(hit_rate)),
            ]),
        ),
        (
            "solver",
            Json::obj([
                (
                    "evaluated_params",
                    Json::Num(sum(&["solver", "evaluated_params"])),
                ),
                (
                    "pruned_params",
                    Json::Num(sum(&["solver", "pruned_params"])),
                ),
            ]),
        ),
        (
            "endpoints",
            Json::Obj(
                endpoints
                    .iter()
                    .map(|(op, errors, hist)| {
                        let mut pairs = vec![
                            ("count".to_string(), Json::Num(hist.count() as f64)),
                            ("errors".to_string(), Json::Num(*errors as f64)),
                        ];
                        pairs.extend(hist.summary_pairs("us"));
                        pairs.push(("hist".to_string(), hist.to_wire_json()));
                        (op.clone(), Json::Obj(pairs))
                    })
                    .collect(),
            ),
        ),
        ("nodes", Json::Arr(node_rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_carries_cluster_counters_and_backend_rows() {
        let m = RouterMetrics::new_with_backends(&[
            "127.0.0.1:1".to_string(),
            "127.0.0.1:2".to_string(),
        ]);
        m.record_request("solve", 100, true);
        m.record_request("solve", 200, false);
        m.record_backend_call(0, true);
        m.record_backend_call(1, false);
        m.record_ejection(1);
        m.record_hedge_fired();
        m.record_hedge_won();
        m.record_replica_retry();
        m.record_repair();
        m.record_repair();
        m.record_rebind_avoided();
        let snap = m.snapshot();
        assert_eq!(snap.get("requests").unwrap().as_usize(), Some(2));
        assert_eq!(snap.get("hedges_fired").unwrap().as_usize(), Some(1));
        assert_eq!(snap.get("hedges_won").unwrap().as_usize(), Some(1));
        assert_eq!(snap.get("replica_retries").unwrap().as_usize(), Some(1));
        assert_eq!(snap.get("failovers").unwrap().as_usize(), Some(1));
        assert_eq!(snap.get("repairs_performed").unwrap().as_usize(), Some(2));
        assert_eq!(snap.get("rebinds_avoided").unwrap().as_usize(), Some(1));
        assert_eq!(m.repair_counters(), (2, 1));
        let solve = snap.get("endpoints").unwrap().get("solve").unwrap();
        assert_eq!(solve.get("errors").unwrap().as_usize(), Some(1));
        let rows = snap.get("backends").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("errors").unwrap().as_usize(), Some(1));
        assert_eq!(rows[1].get("ejections").unwrap().as_usize(), Some(1));
        assert_eq!(rows[1].get("live").unwrap().as_bool(), Some(false));
        m.record_recovery(1);
        let snap = m.snapshot();
        let rows = snap.get("backends").unwrap().as_arr().unwrap();
        assert_eq!(rows[1].get("live").unwrap().as_bool(), Some(true));
        assert_eq!(m.cluster_counters(), (1, 1, 1, 1));
    }

    #[test]
    fn snapshot_reports_identity_uptime_and_series() {
        let m = RouterMetrics::new();
        m.record_request("solve", 100, true);
        m.record_cache_event(true);
        m.record_hedge_fired();
        m.record_hedge_won();
        let snap = m.snapshot();
        assert_eq!(snap.get("role").and_then(Json::as_str), Some("router"));
        assert_eq!(
            snap.get("version").and_then(Json::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(snap.get("uptime_ms").and_then(Json::as_num).is_some());
        let buckets = snap
            .get("series")
            .and_then(|s| s.get("buckets"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(buckets.len(), 1);
        let b = &buckets[0];
        assert_eq!(b.get("requests").and_then(Json::as_usize), Some(1));
        assert_eq!(b.get("cache_hits").and_then(Json::as_usize), Some(1));
        assert_eq!(b.get("hedges_fired").and_then(Json::as_usize), Some(1));
        assert_eq!(b.get("hedges_won").and_then(Json::as_usize), Some(1));
    }

    /// A fake backend snapshot with just the fields aggregation reads.
    fn backend_snap(requests: f64, hits: f64, misses: f64, solve_us: &[u64]) -> Json {
        let mut hist = PowHistogram::new();
        for &us in solve_us {
            hist.record(us);
        }
        Json::obj([
            ("role", Json::str("server")),
            ("version", Json::str("0.1.0")),
            ("uptime_ms", Json::Num(1234.0)),
            ("requests", Json::Num(requests)),
            ("connections", Json::Num(2.0)),
            ("structures", Json::Num(1.0)),
            ("hypotheses", Json::Num(1.0)),
            ("worker_panics", Json::Num(0.0)),
            (
                "cache",
                Json::obj([
                    ("hits", Json::Num(hits)),
                    ("misses", Json::Num(misses)),
                    ("evictions", Json::Num(0.0)),
                    ("entries", Json::Num(misses)),
                ]),
            ),
            (
                "solver",
                Json::obj([
                    ("evaluated_params", Json::Num(10.0)),
                    ("pruned_params", Json::Num(5.0)),
                ]),
            ),
            (
                "endpoints",
                Json::obj([(
                    "solve",
                    Json::obj([
                        ("count", Json::Num(solve_us.len() as f64)),
                        ("errors", Json::Num(1.0)),
                        ("hist", hist.to_wire_json()),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn aggregation_sums_counters_and_merges_histograms_bucket_wise() {
        let nodes = vec![
            NodeStats {
                addr: "127.0.0.1:1".to_string(),
                live: true,
                ejections: 0,
                consecutive_failures: 0,
                stats: Ok(backend_snap(10.0, 4.0, 6.0, &[10, 20, 30])),
            },
            NodeStats {
                addr: "127.0.0.1:2".to_string(),
                live: true,
                ejections: 1,
                consecutive_failures: 0,
                stats: Ok(backend_snap(5.0, 2.0, 2.0, &[5000, 6000])),
            },
            NodeStats {
                addr: "127.0.0.1:3".to_string(),
                live: false,
                ejections: 2,
                consecutive_failures: 7,
                stats: Err("connect refused".to_string()),
            },
        ];
        let agg = aggregate_cluster(&nodes);
        assert_eq!(agg.get("backends_total").and_then(Json::as_usize), Some(3));
        assert_eq!(agg.get("backends_live").and_then(Json::as_usize), Some(2));
        assert_eq!(
            agg.get("backends_reporting").and_then(Json::as_usize),
            Some(2)
        );
        assert_eq!(agg.get("requests").and_then(Json::as_usize), Some(15));
        let cache = agg.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_usize), Some(6));
        assert_eq!(cache.get("misses").and_then(Json::as_usize), Some(8));
        assert_eq!(cache.get("hit_rate").and_then(Json::as_num), Some(6.0 / 14.0));
        // The merged solve histogram holds all five samples, and its
        // quantiles see both nodes' latency regimes.
        let solve = agg.get("endpoints").unwrap().get("solve").unwrap();
        assert_eq!(solve.get("count").and_then(Json::as_usize), Some(5));
        assert_eq!(solve.get("errors").and_then(Json::as_usize), Some(2));
        let merged = PowHistogram::from_wire_json(solve.get("hist").unwrap()).unwrap();
        assert_eq!(merged.count(), 5);
        assert!(merged.quantile(0.99) >= 6000);
        assert!(merged.quantile(0.20) <= 64);
        // Node rows: identity for reporters, the error for the dead one.
        let rows = agg.get("nodes").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get("role").and_then(Json::as_str), Some("server"));
        assert_eq!(rows[0].get("uptime_ms").and_then(Json::as_num), Some(1234.0));
        // Recovery counters default to zero for backends that predate
        // them (absent key → 0, never a hole in the row).
        assert_eq!(
            rows[0].get("wal_records_replayed").and_then(Json::as_num),
            Some(0.0)
        );
        assert_eq!(
            rows[0].get("torn_tail_truncations").and_then(Json::as_num),
            Some(0.0)
        );
        assert_eq!(rows[1].get("ejections").and_then(Json::as_usize), Some(1));
        assert_eq!(
            rows[2].get("error").and_then(Json::as_str),
            Some("connect refused")
        );
        assert_eq!(
            rows[2].get("consecutive_failures").and_then(Json::as_usize),
            Some(7)
        );
    }

    #[test]
    fn aggregation_over_no_reporting_backends_reads_zero() {
        let agg = aggregate_cluster(&[NodeStats {
            addr: "127.0.0.1:1".to_string(),
            live: false,
            ejections: 0,
            consecutive_failures: 3,
            stats: Err("down".to_string()),
        }]);
        assert_eq!(agg.get("backends_reporting").and_then(Json::as_usize), Some(0));
        assert_eq!(agg.get("requests").and_then(Json::as_usize), Some(0));
        assert_eq!(
            agg.get("cache").unwrap().get("hit_rate").and_then(Json::as_num),
            Some(0.0)
        );
        assert_eq!(agg.get("endpoints").unwrap(), &Json::Obj(vec![]));
    }
}
