//! What only a router reports: its own counters, one row per backend,
//! and the cluster fan-in.
//!
//! The router's metrics live in a [`folearn_obs::Registry`] like a
//! backend's, so front-door requests and connection-lifecycle counters
//! read the same on both daemons. On top, a router declares
//! [`ROUTER_METRICS`] — hedges fired and won, replica retries, failovers,
//! anti-entropy repairs (structures re-seeded, hypotheses re-solved on
//! replicas that lack them) and its table sizes — and [`snapshot`]
//! appends a request/error/ejection row per backend, read from each
//! backend's [`Health`] when `stats` is asked for. [`aggregate_cluster`]
//! merges the backends' own snapshots into the `cluster` view.

use folearn_obs::{registry, Json, Kind, Metric, PowHistogram, Registry};
use folearn_server::server::METRICS as BACKEND_METRICS;

use crate::health::Health;

/// The counters and gauges a router declares beyond the front door's.
/// `failovers` is the sum of the backends' ejections, set at snapshot
/// time.
pub const ROUTER_METRICS: [Metric; 8] = [
    Metric::counter("hedges_fired"),
    Metric::counter("hedges_won"),
    Metric::counter("replica_retries"),
    Metric::counter("failovers"),
    Metric::counter("repairs_performed"),
    Metric::counter("rebinds_avoided"),
    Metric::gauge("structures"),
    Metric::gauge("hypotheses"),
];

/// The router's own `stats` snapshot: the registry's, with `failovers`
/// derived from `backends` (address, health) and one row per backend.
pub fn snapshot(metrics: &Registry, backends: &[(&str, &Health)]) -> Json {
    let failovers = backends.iter().map(|(_, h)| h.ejections()).sum();
    metrics.set(&[("failovers", failovers)]);
    let rows = backends
        .iter()
        .map(|(addr, h)| {
            Json::obj([
                ("addr", Json::str(*addr)),
                ("requests", Json::Num(h.requests() as f64)),
                ("errors", Json::Num(h.errors() as f64)),
                ("ejections", Json::Num(h.ejections() as f64)),
                ("live", Json::Bool(h.is_live())),
            ])
        })
        .collect();
    let mut snap = metrics.snapshot();
    if let Json::Obj(pairs) = &mut snap {
        pairs.push(("backends".to_string(), Json::Arr(rows)));
    }
    snap
}

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

/// The number at a dotted `name` in a snapshot; 0 when absent.
fn num_at(v: &Json, name: &str) -> f64 {
    name.split('.')
        .try_fold(v, |cur, key| cur.get(key))
        .and_then(Json::as_num)
        .unwrap_or(0.0)
}

/// Merge backend `stats` snapshots into the cluster-wide view the
/// router serves under the `cluster` key: every counter and gauge a
/// backend declares, summed across reporting backends (hit rates
/// recomputed from the sums); endpoint latency histograms merged
/// bucket-wise (via the full-resolution `hist` each row carries); and
/// one row per node with its health/ejection state and identity.
pub fn aggregate_cluster(nodes: &[NodeStats]) -> Json {
    let reporting: Vec<&Json> = nodes.iter().filter_map(|n| n.stats.as_ref().ok()).collect();
    let sum = |name: &str| -> f64 { reporting.iter().map(|s| num_at(s, name)).sum() };
    let metrics: Vec<Metric> = BACKEND_METRICS
        .concat()
        .into_iter()
        .filter(|m| m.kind != Kind::Flag)
        .collect();
    let values: Vec<u64> = metrics
        .iter()
        .map(|m| match m.kind {
            Kind::HitRate => 0,
            _ => sum(m.name) as u64,
        })
        .collect();

    // Merge per-endpoint histograms bucket-wise. Rows without a `hist`
    // (older backends) are skipped rather than mis-averaged.
    let mut endpoints: Vec<(String, u64, PowHistogram)> = Vec::new();
    for snap in &reporting {
        let Some(Json::Obj(ops)) = snap.get("endpoints") else {
            continue;
        };
        for (op, rec) in ops {
            let Some(hist) = rec.get("hist").and_then(|h| PowHistogram::from_wire_json(h).ok())
            else {
                continue;
            };
            let errors = num_at(rec, "errors") as u64;
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
                        pairs.push((key.to_string(), Json::Num(num_at(snap, key))));
                    }
                    pairs.push((
                        "cache_hits".to_string(),
                        Json::Num(num_at(snap, "cache.hits")),
                    ));
                }
                Err(e) => pairs.push(("error".to_string(), Json::str(e.clone()))),
            }
            Json::Obj(pairs)
        })
        .collect();

    let mut pairs = vec![
        ("backends_total".to_string(), Json::int(nodes.len())),
        (
            "backends_live".to_string(),
            Json::int(nodes.iter().filter(|n| n.live).count()),
        ),
        ("backends_reporting".to_string(), Json::int(reporting.len())),
        ("requests".to_string(), Json::Num(sum("requests"))),
    ];
    pairs.extend(registry::render_metrics(&metrics, &values));
    pairs.push((
        "endpoints".to_string(),
        Json::Obj(
            endpoints
                .iter()
                .map(|(op, errors, hist)| (op.clone(), registry::endpoint_json(hist, *errors)))
                .collect(),
        ),
    ));
    pairs.push(("nodes".to_string(), Json::Arr(node_rows)));
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use folearn_server::event_loop::FRONT_DOOR_METRICS;

    use super::*;

    #[test]
    fn snapshot_carries_router_counters_and_backend_rows_read_from_health() {
        let m = Registry::new("router", &[&ROUTER_METRICS, &FRONT_DOOR_METRICS]);
        let healths = [Health::new(1), Health::new(1)];
        let backends = [("127.0.0.1:1", &healths[0]), ("127.0.0.1:2", &healths[1])];
        m.record_request("solve", 100, true);
        m.record_request("solve", 200, false);
        healths[0].record_ok();
        assert!(healths[1].record_failure(), "one strike ejects");
        m.record_hedge(false);
        m.record_hedge(true);
        m.add("replica_retries", 1);
        m.add("repairs_performed", 2);
        m.add("rebinds_avoided", 1);
        let snap = snapshot(&m, &backends);
        let Json::Obj(pairs) = &snap else { panic!("snapshot is an object") };
        assert_eq!(pairs[0], ("role".to_string(), Json::str("router")));
        for (key, want) in [
            ("requests", 2),
            ("hedges_fired", 1),
            ("hedges_won", 1),
            ("replica_retries", 1),
            ("failovers", 1),
            ("repairs_performed", 2),
            ("rebinds_avoided", 1),
            ("connections", 0),
        ] {
            assert_eq!(snap.get(key).and_then(Json::as_usize), Some(want), "{key}");
        }
        let solve = snap.get("endpoints").unwrap().get("solve").unwrap();
        assert_eq!(solve.get("errors").unwrap().as_usize(), Some(1));
        let rows = snap.get("backends").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("requests").unwrap().as_usize(), Some(1));
        assert_eq!(rows[1].get("errors").unwrap().as_usize(), Some(1));
        assert_eq!(rows[1].get("ejections").unwrap().as_usize(), Some(1));
        assert_eq!(rows[1].get("live").unwrap().as_bool(), Some(false));
        // Back in rotation: the row follows the health state, and
        // `failovers` still counts the past ejection.
        healths[1].record_ok();
        let snap = snapshot(&m, &backends);
        let rows = snap.get("backends").unwrap().as_arr().unwrap();
        assert_eq!(rows[1].get("live").unwrap().as_bool(), Some(true));
        assert_eq!(rows[1].get("requests").unwrap().as_usize(), Some(2));
        assert_eq!(snap.get("failovers").and_then(Json::as_usize), Some(1));
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
        assert_eq!(agg.get("connections").and_then(Json::as_usize), Some(4));
        let cache = agg.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_usize), Some(6));
        assert_eq!(cache.get("misses").and_then(Json::as_usize), Some(8));
        assert_eq!(cache.get("hit_rate").and_then(Json::as_num), Some(6.0 / 14.0));
        let solver = agg.get("solver").unwrap();
        assert_eq!(solver.get("evaluated_params").and_then(Json::as_usize), Some(20));
        // Flags are per node, never summed into the cluster view.
        assert!(agg.get("durable").is_none());
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
        // Counters an older backend does not report sum as 0.
        assert_eq!(agg.get("oversize_closes").and_then(Json::as_usize), Some(0));
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
