//! Schema sanity for the committed `BENCH_*.json` artifacts: every file
//! must parse with the workspace's shared [`Json`] type and carry the
//! top-level keys downstream tooling greps for, so bench writers cannot
//! silently drift from the shared `write_json_file` conventions.

use folearn_obs::Json;

fn bench_files() -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for entry in std::fs::read_dir(root).expect("repo root is readable") {
        let path = entry.expect("dir entry").path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n.to_string(),
            None => continue,
        };
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {name}: {e}"));
            out.push((name, text));
        }
    }
    out.sort();
    out
}

#[test]
fn every_bench_artifact_parses_and_names_its_experiment() {
    let files = bench_files();
    assert!(
        files.len() >= 5,
        "expected the E16/E17/E18/E19/E20 artifacts at least, found {:?}",
        files.iter().map(|(n, _)| n).collect::<Vec<_>>()
    );
    for (name, text) in &files {
        let v = Json::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let experiment = v
            .get("experiment")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{name}: missing \"experiment\" key"));
        assert!(
            experiment.starts_with('E'),
            "{name}: experiment id {experiment:?} is not an E-number"
        );
        assert!(
            matches!(v, Json::Obj(_)),
            "{name}: top level must be an object"
        );
        // The shared writer renders pretty with a trailing newline;
        // catching hand-rolled writers here keeps the artifacts uniform.
        assert!(
            text.ends_with('\n') && text.starts_with("{\n"),
            "{name}: not written via folearn_bench::write_json_file"
        );
    }
}

#[test]
fn bench_artifacts_respect_their_own_acceptance_flags() {
    for (name, text) in bench_files() {
        let v = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Artifacts that record a bit-identity claim must record it true:
        // a committed regression is a broken build, not a data point.
        if let Some(flag) = v.get("all_bit_identical").and_then(Json::as_bool) {
            assert!(flag, "{name}: all_bit_identical is false");
        }
    }
}

#[test]
fn the_vm_artifact_records_a_real_speedup() {
    let (name, text) = bench_files()
        .into_iter()
        .find(|(n, _)| n == "BENCH_vm.json")
        .expect("the E20 compiled-evaluation artifact must be committed");
    let v = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(v.get("experiment").and_then(Json::as_str), Some("E20"));
    // The headline number is the *minimum* sweep speedup. The committed
    // artifact must never show the VM losing to the tree walker — that
    // would mean the compiled engine regressed and the run that produced
    // the artifact failed its own ≥5× verdict.
    let speedup = v
        .get("speedup")
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("{name}: missing speedup"));
    assert!(speedup >= 1.0, "{name}: VM slower than the tree walker");
    // Bit-identity is the whole point of a differential artifact: both
    // the per-sweep flag and every row must record it.
    assert_eq!(
        v.get("all_bit_identical").and_then(Json::as_bool),
        Some(true),
        "{name}: sweeps diverged from the tree walker"
    );
    let Some(Json::Arr(sweeps)) = v.get("sweeps") else {
        panic!("{name}: missing sweeps array")
    };
    assert!(!sweeps.is_empty(), "{name}: no sweep rows");
    for row in sweeps {
        assert_eq!(row.get("bit_identical").and_then(Json::as_bool), Some(true));
    }
}

#[test]
fn the_fault_artifact_records_full_recovery() {
    let (name, text) = bench_files()
        .into_iter()
        .find(|(n, _)| n == "BENCH_fault.json")
        .expect("the E19 fault-injection artifact must be committed");
    let v = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(v.get("experiment").and_then(Json::as_str), Some("E19"));
    // The acceptance criterion: every injected fault was absorbed by the
    // retry layer. A nonzero count here is a broken build, not a data
    // point — the run that produced the artifact failed its own verdict.
    let unrecovered = v
        .get("unrecovered_errors")
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("{name}: missing unrecovered_errors"));
    assert_eq!(unrecovered, 0, "{name}: faults went unrecovered");
    // And the run must actually have exercised the fault path: an artifact
    // produced against a transparent proxy proves nothing.
    let faults = v
        .get("total_faults_injected")
        .and_then(Json::as_usize)
        .unwrap_or(0);
    assert!(faults > 0, "{name}: no faults were injected");
    // Retry histograms must be bounded by the configured retry cap.
    let cap = v.get("max_retries").and_then(Json::as_usize).unwrap_or(0);
    let mut histograms: Vec<&Json> = Vec::new();
    if let Some(Json::Arr(modes)) = v.get("modes") {
        histograms.extend(modes.iter().filter_map(|m| m.get("retry_histogram")));
    }
    if let Some(h) = v.get("loadgen").and_then(|l| l.get("retry_histogram")) {
        histograms.push(h);
    }
    assert!(!histograms.is_empty(), "{name}: no retry histograms");
    for h in histograms {
        let Json::Arr(buckets) = h else {
            panic!("{name}: retry_histogram is not an array")
        };
        assert!(
            buckets.len() <= cap + 1,
            "{name}: a call retried more than the configured cap {cap}"
        );
    }
}

#[test]
fn the_cluster_artifact_records_identity_and_hedging() {
    let (name, text) = bench_files()
        .into_iter()
        .find(|(n, _)| n == "BENCH_cluster.json")
        .expect("the E21 cluster artifact must be committed");
    let v = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(v.get("experiment").and_then(Json::as_str), Some("E21"));
    // The headline claim: the routed reduction — through a backend kill
    // and a garbled link — matched the in-process oracle bit for bit.
    assert_eq!(
        v.get("all_bit_identical").and_then(Json::as_bool),
        Some(true),
        "{name}: the cluster reduction diverged from in-process"
    );
    // Every loadgen error must have been absorbed by retries/failover.
    let unrecovered = v
        .get("unrecovered_errors")
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("{name}: missing unrecovered_errors"));
    assert_eq!(unrecovered, 0, "{name}: cluster errors went unrecovered");
    // The failure paths must actually have been exercised: a run where
    // the kill never forced a failover proves nothing.
    for key in ["replica_retries", "failovers", "garble_faults_injected"] {
        let n = v.get(key).and_then(Json::as_usize).unwrap_or(0);
        assert!(n > 0, "{name}: {key} is zero — the failure path never ran");
    }
    // Hedging must have fired and won; the win rate is a ratio of those
    // counters and must land in [0, 1].
    let fired = v.get("hedges_fired").and_then(Json::as_usize).unwrap_or(0);
    assert!(fired > 0, "{name}: no hedges fired under the slow backend");
    let rate = v
        .get("hedge_win_rate")
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("{name}: missing hedge_win_rate"));
    assert!(
        (0.0..=1.0).contains(&rate) && rate > 0.0,
        "{name}: hedge_win_rate {rate} is not a meaningful ratio"
    );
    // And the point of hedging: the hedged p99 beat the unhedged p99.
    let hedged = v.get("hedged_p99_us").and_then(Json::as_usize).unwrap_or(0);
    let unhedged = v
        .get("unhedged_p99_us")
        .and_then(Json::as_usize)
        .unwrap_or(0);
    assert!(
        hedged > 0 && unhedged > hedged,
        "{name}: hedged p99 {hedged}us did not beat unhedged {unhedged}us"
    );
    // Per-target loadgen rows: every target saw traffic, none saw errors.
    let Some(Json::Arr(targets)) = v.get("loadgen").and_then(|l| l.get("targets")) else {
        panic!("{name}: missing loadgen.targets")
    };
    assert!(targets.len() >= 2, "{name}: loadgen did not fan out");
    for row in targets {
        assert!(row.get("requests").and_then(Json::as_usize).unwrap_or(0) > 0);
        assert_eq!(row.get("errors").and_then(Json::as_usize), Some(0));
    }
}

#[test]
fn the_cluster_obs_artifact_records_complete_traces_within_budget() {
    let (name, text) = bench_files()
        .into_iter()
        .find(|(n, _)| n == "BENCH_cluster_obs.json")
        .expect("the E22 cluster-observability artifact must be committed");
    let v = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(v.get("experiment").and_then(Json::as_str), Some("E22"));
    // The headline budget: enabling tracing on the router must not slow
    // the (unsampled) reduction workload by more than 5%. Stitching is
    // per-request opt-in, so this should sit at ~0.
    let overhead = v
        .get("overhead_pct")
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("{name}: missing overhead_pct"));
    assert!(
        (0.0..=5.0).contains(&overhead),
        "{name}: tracing overhead {overhead}% blows the 5% budget"
    );
    // Every audited trace stitched into one complete tree: a router root
    // with a won attempt holding the backend's server.solve subtree.
    assert_eq!(
        v.get("trace_complete").and_then(Json::as_bool),
        Some(true),
        "{name}: some solves came back with incomplete span trees"
    );
    let audited = v
        .get("traces_audited")
        .and_then(Json::as_usize)
        .unwrap_or(0);
    assert!(audited > 0, "{name}: no traces were audited");
    // The interesting span kinds must all have been exercised: a run
    // where no hedge, failover, or cache replay shows up in any trace
    // proves nothing about stitching them.
    for key in ["hedge_spans", "failover_spans", "replay_spans"] {
        let n = v.get(key).and_then(Json::as_usize).unwrap_or(0);
        assert!(n > 0, "{name}: {key} is zero — that span kind never ran");
    }
    // Propagation: a client-supplied trace id must have reached the
    // stitched root's meta.
    assert_eq!(
        v.get("client_trace_id_propagated").and_then(Json::as_bool),
        Some(true),
        "{name}: the client's trace id was lost in the router"
    );
    // Fan-in stats: all backends reported, and the merged per-endpoint
    // histogram survived aggregation.
    let stats = v
        .get("stats")
        .unwrap_or_else(|| panic!("{name}: missing stats section"));
    let total = stats
        .get("backends_total")
        .and_then(Json::as_usize)
        .unwrap_or(0);
    let reporting = stats
        .get("backends_reporting")
        .and_then(Json::as_usize)
        .unwrap_or(0);
    assert!(total > 0 && reporting == total, "{name}: backends missing from the fan-in");
    assert_eq!(
        stats.get("merged_solve_hist").and_then(Json::as_bool),
        Some(true),
        "{name}: the merged solve histogram is missing"
    );
}

#[test]
fn the_crash_artifact_records_durable_recovery_without_reseeds() {
    let (name, text) = bench_files()
        .into_iter()
        .find(|(n, _)| n == "BENCH_crash.json")
        .expect("the E24 crash-recovery artifact must be committed");
    let v = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(v.get("experiment").and_then(Json::as_str), Some("E24"));
    // The headline claim: the reduction matched the in-process oracle
    // bit for bit through a mid-reduction SIGKILL + restart, in both the
    // durable and the volatile cell.
    assert_eq!(
        v.get("all_bit_identical").and_then(Json::as_bool),
        Some(true),
        "{name}: the reduction diverged through the crash"
    );
    let unrecovered = v
        .get("unrecovered_errors")
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("{name}: missing unrecovered_errors"));
    assert_eq!(unrecovered, 0, "{name}: crash errors went unrecovered");
    // The replay-vs-reseed timing comparison is the artifact's point.
    for key in ["durable_recovery_ms", "cold_reseed_ms"] {
        assert!(
            v.get(key).and_then(Json::as_usize).is_some(),
            "{name}: missing {key}"
        );
    }
    let Some(Json::Arr(cell_rows)) = v.get("cells") else {
        panic!("{name}: missing cells array")
    };
    let cell = |which: &str| {
        cell_rows
            .iter()
            .find(|c| c.get("cell").and_then(Json::as_str) == Some(which))
            .unwrap_or_else(|| panic!("{name}: missing {which} cell"))
    };
    // Durable restart: state came back from the WAL — records actually
    // replayed, and the router's anti-entropy sweep had *nothing* to
    // re-seed. A nonzero reseed count here means recovery leaned on
    // re-registration, which is exactly what --data-dir must prevent.
    let durable = cell("durable");
    assert_eq!(durable.get("bit_identical").and_then(Json::as_bool), Some(true));
    assert_eq!(
        durable.get("reseeds").and_then(Json::as_usize),
        Some(0),
        "{name}: the durable restart needed router reseeds"
    );
    assert!(
        durable
            .get("wal_records_replayed")
            .and_then(Json::as_usize)
            .unwrap_or(0)
            > 0,
        "{name}: the durable restart replayed nothing"
    );
    // Volatile restart: the control cell must really have come back
    // empty, or the comparison proves nothing.
    let volatile = cell("volatile");
    assert_eq!(volatile.get("bit_identical").and_then(Json::as_bool), Some(true));
    assert_eq!(
        volatile.get("wal_records_replayed").and_then(Json::as_usize),
        Some(0),
        "{name}: the volatile cell replayed a WAL"
    );
    // Both cells report the restart clock that feeds the headline
    // timings.
    for c in [durable, volatile] {
        assert!(
            c.get("restart_ms").and_then(Json::as_usize).is_some()
                && c.get("converge_ms").and_then(Json::as_usize).is_some(),
            "{name}: a cell is missing its restart/converge timings"
        );
    }
}

#[test]
fn the_event_loop_artifact_records_the_scaling_win() {
    let (name, text) = bench_files()
        .into_iter()
        .find(|(n, _)| n == "BENCH_event_loop.json")
        .expect("the E23 connection-scaling artifact must be committed");
    let v = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(v.get("experiment").and_then(Json::as_str), Some("E23"));
    // The scaling claim is only meaningful at real concurrency.
    let high = v
        .get("high_concurrency")
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("{name}: missing high_concurrency"));
    assert!(high >= 1000, "{name}: judged at only {high} connections");
    // Zero unrecovered errors across every run — the crash class the
    // event core exists to fix. A nonzero count is a broken build, not
    // a data point.
    let unrecovered = v
        .get("unrecovered_errors")
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("{name}: missing unrecovered_errors"));
    assert_eq!(unrecovered, 0, "{name}: errors went unrecovered");
    assert_eq!(
        v.get("sustained_all_requests").and_then(Json::as_bool),
        Some(true),
        "{name}: the high-concurrency runs dropped requests"
    );
    // Both daemons run the same front door, so both are measured at the
    // high point, each error-free and each completing every request.
    let expected = high
        * (1 + v
            .get("requests_per_conn")
            .and_then(Json::as_usize)
            .unwrap_or_else(|| panic!("{name}: missing requests_per_conn")));
    let Some(Json::Arr(runs)) = v.get("runs") else {
        panic!("{name}: missing runs array")
    };
    let mut daemons_at_high = Vec::new();
    for row in runs {
        assert_eq!(
            row.get("unrecovered_errors").and_then(Json::as_usize),
            Some(0)
        );
        if row.get("connections").and_then(Json::as_usize) == Some(high) {
            assert_eq!(
                row.get("requests").and_then(Json::as_usize),
                Some(expected),
                "{name}: a high-concurrency run lost requests"
            );
            daemons_at_high.extend(row.get("daemon").and_then(Json::as_str).map(str::to_string));
        }
    }
    daemons_at_high.sort();
    assert_eq!(
        daemons_at_high,
        ["backend", "router"],
        "{name}: both daemons must be measured at {high} connections"
    );
    // The polling loop's idle cost: each daemon within one core while
    // 1000 idle connections sit open.
    assert!(
        v.get("idle_connections").and_then(Json::as_usize) >= Some(1000),
        "{name}: idle cost measured below 1000 connections"
    );
    for key in ["backend_idle_cores", "router_idle_cores"] {
        let cores = v
            .get(key)
            .and_then(Json::as_num)
            .unwrap_or_else(|| panic!("{name}: missing {key}"));
        assert!(cores <= 1.0, "{name}: {key} = {cores} exceeds one core");
    }
}
