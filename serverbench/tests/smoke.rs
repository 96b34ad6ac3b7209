//! Short smoke runs of every workload on a tenth of the data, plus a run
//! whose expected answers are deliberately corrupted and must fail.

use serverbench::env::{Dataset, Scale};
use serverbench::run::{run, run_on, Options};
use serverbench::{result_json, Workload};
use std::path::PathBuf;
use std::sync::Mutex;

/// The tests take turns: runs that share the CPU lose samples.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: if workload == Workload::HtapScan { 10.0 } else { 5.0 },
        trace,
        scale: Scale::smoke(workload),
        work_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".serverbench").join(format!(
            "test-{}-{}",
            workload.name(),
            trace as u8
        )),
    }
}

const E2E: [&str; 5] = ["setup_s", "ops_per_s", "op_p50_us", "ok_ratio", "peak_rss_mb"];

/// Untraced and traced smoke runs of `w`, with their metric checks.
fn smoke_runs(w: Workload) {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let report = run(&smoke(w, false)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, E2E, "{}", w.name());
    assert!(report.metrics.iter().all(|m| m.value > 0.0), "{}: {:?}", w.name(), report.metrics);
    assert!(report.attempted > 0);
    let json = result_json(&report);
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");

    let report = run(&smoke(w, true)).unwrap_or_else(|e| panic!("{} traced: {e}", w.name()));
    let get = |name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{}: no metric {name}", w.name()))
            .value
    };
    assert!(get("net.ping_us") > 0.0);
    assert!(get("server.exec_us") > 0.0);
    assert!(get("engine.scan_ms") > 0.0);
    assert!(get("pool.pages_per_op") > 0.0);
    assert!(get("threaded.ops_per_s") > 0.0);
    assert!(get("trace.overhead_pct").is_finite());
    if w == Workload::Transfer {
        assert_eq!(get("feeds.evicted"), 0.0);
        assert!(get("wal.syncs_per_commit") >= 1.0);
    }
}

// One test for the workloads of record, so their runs never compete with
// each other for the CPU.
#[test]
fn point_read_and_transfer_check_their_answers_and_report_every_metric() {
    smoke_runs(Workload::PointRead);
    smoke_runs(Workload::Transfer);
}

/// Fails in a good share of runs while the buffer pool can hand a reader
/// a page image older than an eviction write-back in flight: a
/// `BEGIN READ ONLY` scan then counts a row twice or misses it (see
/// README.md, "What the benchmark shows today").
#[test]
fn htap_scan_snapshots_see_every_row_once() {
    smoke_runs(Workload::HtapScan);
}

#[test]
fn a_corrupted_expected_answer_fails_the_run() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let opts = smoke(Workload::HtapScan, false);
    let mut data = Dataset::generate(opts.workload, opts.scale, opts.seed);
    data.groups[0].count += 1;
    let err = run_on(&opts, &data).expect_err("a wrong expected COUNT must fail the run");
    assert!(err.contains("COUNT"), "{err}");

    let opts = smoke(Workload::PointRead, false);
    let mut data = Dataset::generate(opts.workload, opts.scale, opts.seed);
    for row in &mut data.by_key {
        row[9].push('!');
    }
    let err = run_on(&opts, &data).expect_err("a wrong expected row must fail the run");
    assert!(err.contains("column 9"), "{err}");
}
