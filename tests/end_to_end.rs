//! Cross-crate integration: the staged server and the threaded baseline
//! must agree on every query, end to end through SQL.

use staged_db::planner::PlannerConfig;
use staged_db::server::types::ExecutionMode;
use staged_db::server::{QueryOutput, ServerConfig, StagedServer, ThreadedServer};
use staged_db::storage::{
    BufferPool, Catalog, Lsn, MemDisk, MemSegmentStore, MemSnapshotStore, SnapshotStore,
    StorageResult,
};
use staged_db::workload::load_wisconsin_table;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 2048)));
    load_wisconsin_table(&cat, "wisc1", 3000, 1).unwrap();
    load_wisconsin_table(&cat, "wisc2", 600, 2).unwrap();
    cat
}

fn canonical(out: &QueryOutput) -> Vec<String> {
    let mut rows: Vec<String> = out.rows.iter().map(|r| r.to_string()).collect();
    rows.sort();
    rows
}

#[test]
fn staged_and_threaded_servers_agree_on_a_query_battery() {
    let cat = catalog();
    let staged = StagedServer::new(Arc::clone(&cat), ServerConfig::default());
    let threaded = ThreadedServer::new(Arc::clone(&cat), 4, PlannerConfig::default());
    let battery = [
        "SELECT COUNT(*) FROM wisc1",
        "SELECT * FROM wisc1 WHERE unique1 = 77",
        "SELECT unique2 FROM wisc1 WHERE unique1 BETWEEN 100 AND 160",
        "SELECT ten, COUNT(*), SUM(unique1) FROM wisc1 GROUP BY ten HAVING COUNT(*) > 10",
        "SELECT DISTINCT four FROM wisc1",
        "SELECT wisc1.unique1 FROM wisc1, wisc2 \
         WHERE wisc1.unique1 = wisc2.unique1 AND wisc2.two = 0",
        "SELECT COUNT(*) FROM wisc1, wisc2 WHERE wisc1.unique1 < wisc2.unique1 \
         AND wisc2.unique1 < 20 AND wisc1.unique1 > 10",
        "SELECT unique1 FROM wisc1 WHERE stringu1 LIKE 'AAAA%' ORDER BY unique1 LIMIT 10",
        "SELECT twenty, AVG(unique2) FROM wisc1 WHERE two = 1 GROUP BY twenty",
    ];
    for sql in battery {
        let a = staged.execute_sql(sql).unwrap_or_else(|e| panic!("staged {sql}: {e}"));
        let b = threaded.execute_sql(sql).unwrap_or_else(|e| panic!("threaded {sql}: {e}"));
        assert_eq!(canonical(&a), canonical(&b), "divergence on {sql}");
    }
    staged.shutdown();
    threaded.shutdown();
}

#[test]
fn staged_server_matches_threaded_at_every_cohort_size() {
    // The production pipeline's cohort scheduling (paper §4.2) sweeps the
    // batch knob over 1 (pre-cohort semantics), 4 and 16: results must be
    // byte-identical to the thread-per-query baseline at every setting,
    // with enough concurrent submissions in flight that cohorts actually
    // form at the parse/optimize/execute stages.
    let cat = catalog();
    let threaded = ThreadedServer::new(Arc::clone(&cat), 4, PlannerConfig::default());
    let battery = [
        "SELECT COUNT(*) FROM wisc1",
        "SELECT * FROM wisc1 WHERE unique1 = 77",
        "SELECT ten, COUNT(*), SUM(unique1) FROM wisc1 GROUP BY ten",
        "SELECT DISTINCT four FROM wisc1",
        "SELECT unique2 FROM wisc1 WHERE unique1 BETWEEN 100 AND 160",
    ];
    let expected: Vec<Vec<String>> = battery
        .iter()
        .map(|sql| canonical(&threaded.execute_sql(sql).unwrap_or_else(|e| panic!("{sql}: {e}"))))
        .collect();
    for max_cohort in [1usize, 4, 16] {
        let staged =
            StagedServer::new(Arc::clone(&cat), ServerConfig { max_cohort, ..Default::default() });
        // Concurrent round: pile every statement into the pipeline at
        // once so queue visits see real backlogs.
        let staged_ref = &staged;
        let pending: Vec<_> =
            battery.iter().flat_map(|sql| (0..4).map(move |_| staged_ref.submit(*sql))).collect();
        for (i, rx) in pending.into_iter().enumerate() {
            let sql = battery[i / 4];
            let out =
                rx.recv().unwrap().unwrap_or_else(|e| panic!("cohort {max_cohort} {sql}: {e}"));
            assert_eq!(
                canonical(&out),
                expected[i / 4],
                "divergence at cohort {max_cohort} on {sql}"
            );
        }
        staged.shutdown();
    }
    threaded.shutdown();
}

#[test]
fn partitioned_server_agrees_with_unpartitioned_baseline_through_sql() {
    // Two staged servers over separate catalogs: one creating 4-way
    // hash-partitioned tables through its DDL path, one unpartitioned.
    // DML routes by hash key through the WAL path; results must agree.
    let mk = |partitions| {
        let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 2048)));
        StagedServer::new(cat, ServerConfig { partitions, ..Default::default() })
    };
    let parted = mk(4);
    let flat = mk(1);
    for s in [&parted, &flat] {
        s.execute_sql("CREATE TABLE kv (k INT, grp INT, v VARCHAR(16))").unwrap();
        for i in 0..300i64 {
            s.execute_sql(&format!("INSERT INTO kv VALUES ({i}, {}, 'v{i}')", i % 7)).unwrap();
        }
        s.execute_sql("DELETE FROM kv WHERE k >= 280").unwrap();
        s.execute_sql("UPDATE kv SET v = 'seven' WHERE k = 7").unwrap();
        s.execute_sql("ANALYZE kv").unwrap();
    }
    for sql in [
        "SELECT COUNT(*) FROM kv",
        "SELECT * FROM kv WHERE k = 7",
        "SELECT grp, COUNT(*), SUM(k), MIN(k), MAX(k), AVG(k) FROM kv GROUP BY grp",
        "SELECT DISTINCT grp FROM kv ORDER BY grp",
        "SELECT COUNT(*), AVG(k) FROM kv WHERE grp = 3",
    ] {
        let a = parted.execute_sql(sql).unwrap_or_else(|e| panic!("partitioned {sql}: {e}"));
        let b = flat.execute_sql(sql).unwrap_or_else(|e| panic!("flat {sql}: {e}"));
        assert_eq!(canonical(&a), canonical(&b), "divergence on {sql}");
    }
    parted.shutdown();
    flat.shutdown();
}

#[test]
fn volcano_mode_server_matches_staged_mode_server() {
    let cat = catalog();
    let volcano_mode = StagedServer::new(
        Arc::clone(&cat),
        ServerConfig { mode: ExecutionMode::Volcano, ..Default::default() },
    );
    let staged_mode = StagedServer::new(Arc::clone(&cat), ServerConfig::default());
    for sql in [
        "SELECT four, COUNT(*) FROM wisc1 GROUP BY four",
        "SELECT wisc1.ten, COUNT(*) FROM wisc1, wisc2 \
         WHERE wisc1.unique1 = wisc2.unique1 GROUP BY wisc1.ten",
    ] {
        let a = volcano_mode.execute_sql(sql).unwrap();
        let b = staged_mode.execute_sql(sql).unwrap();
        assert_eq!(canonical(&a), canonical(&b), "divergence on {sql}");
    }
    volcano_mode.shutdown();
    staged_mode.shutdown();
}

#[test]
fn dml_visible_across_both_servers() {
    let cat = catalog();
    let staged = StagedServer::new(Arc::clone(&cat), ServerConfig::default());
    let threaded = ThreadedServer::new(Arc::clone(&cat), 2, PlannerConfig::default());
    staged.execute_sql("CREATE TABLE log (id INT, note VARCHAR(20))").unwrap();
    staged.execute_sql("INSERT INTO log VALUES (1, 'from staged')").unwrap();
    threaded.execute_sql("INSERT INTO log VALUES (2, 'from threaded')").unwrap();
    let out = staged.execute_sql("SELECT COUNT(*) FROM log").unwrap();
    assert_eq!(out.rows[0].to_string(), "[2]");
    threaded.execute_sql("UPDATE log SET note = 'edited' WHERE id = 1").unwrap();
    let out = staged.execute_sql("SELECT note FROM log WHERE id = 1").unwrap();
    assert_eq!(out.rows[0].to_string(), "['edited']");
    staged.execute_sql("DELETE FROM log WHERE id = 2").unwrap();
    let out = threaded.execute_sql("SELECT COUNT(*) FROM log").unwrap();
    assert_eq!(out.rows[0].to_string(), "[1]");
    staged.shutdown();
    threaded.shutdown();
}

#[test]
fn prepared_statements_bypass_parse_and_optimize() {
    let cat = catalog();
    let server = StagedServer::new(cat, ServerConfig::default());
    server.prepare("p42", "SELECT unique2 FROM wisc1 WHERE unique1 = 42").unwrap();
    let direct = server.execute_sql("SELECT unique2 FROM wisc1 WHERE unique1 = 42").unwrap();
    let stats_before = server.stage_stats();
    let prepared = server.execute_prepared("p42").recv().unwrap().unwrap();
    assert_eq!(canonical(&direct), canonical(&prepared));
    let stats_after = server.stage_stats();
    let parse = |s: &[staged_db::core::monitor::StageStats]| {
        s.iter().find(|x| x.name == "parse").unwrap().processed
    };
    assert_eq!(
        parse(&stats_before),
        parse(&stats_after),
        "prepared execution must not touch the parse stage"
    );
    assert!(matches!(
        server.execute_prepared("nope").recv().unwrap(),
        Err(staged_db::server::ServerError::UnknownPrepared(_))
    ));
    server.shutdown();
}

#[test]
fn explain_reports_physical_plan() {
    let cat = catalog();
    let server = StagedServer::new(cat, ServerConfig::default());
    let out = server.execute_sql("EXPLAIN SELECT * FROM wisc1 WHERE unique1 = 5").unwrap();
    let text: String = out.rows.iter().map(|r| r.to_string()).collect();
    assert!(text.contains("IndexScan"), "expected index plan, got {text}");
    server.shutdown();
}

#[test]
fn errors_propagate_with_messages() {
    let cat = catalog();
    let server = StagedServer::new(cat, ServerConfig::default());
    assert!(server.execute_sql("SELECT nope FROM wisc1").is_err());
    assert!(server.execute_sql("FROB THE KNOB").is_err());
    assert!(server.execute_sql("SELECT 1 / 0 FROM wisc1 LIMIT 1").is_err());
    // Server still serves after errors.
    assert!(server.execute_sql("SELECT COUNT(*) FROM wisc1").is_ok());
    server.shutdown();
}

#[test]
fn staged_server_survives_a_restart_through_checkpoint_and_wal() {
    use staged_db::storage::{MemSegmentStore, MemSnapshotStore, SegmentStore, SnapshotStore};

    let segments: Arc<dyn SegmentStore> = Arc::new(MemSegmentStore::new());
    let snapshots: Arc<dyn SnapshotStore> = Arc::new(MemSnapshotStore::new());

    // First server lifetime: create data, checkpoint, then write more so
    // that restart exercises both the snapshot and the WAL tail.
    {
        let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 2048)));
        let server = StagedServer::with_stores(
            Arc::clone(&cat),
            ServerConfig { partitions: 2, ..Default::default() },
            None,
            Arc::clone(&segments),
            Arc::clone(&snapshots),
        )
        .unwrap();
        server.execute_sql("CREATE TABLE survivors (id INT, name TEXT)").unwrap();
        for i in 0..50 {
            server.execute_sql(&format!("INSERT INTO survivors VALUES ({i}, 'pre-{i}')")).unwrap();
        }
        let out = StagedServer::checkpoint(&server).unwrap();
        assert!(out.message.starts_with("CHECKPOINT"), "got {:?}", out.message);
        for i in 50..60 {
            server.execute_sql(&format!("INSERT INTO survivors VALUES ({i}, 'post-{i}')")).unwrap();
        }
        // Simulated crash: no orderly flush of the catalog, just drop it.
        server.shutdown();
    }

    // Second lifetime: an empty catalog plus the same stores must come
    // back with all sixty rows — fifty from the snapshot, ten replayed
    // from the WAL tail.
    let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 2048)));
    let server = StagedServer::with_stores(
        Arc::clone(&cat),
        ServerConfig { partitions: 2, ..Default::default() },
        None,
        segments,
        snapshots,
    )
    .unwrap();
    let report = server.recovery_report();
    assert_eq!(report.snapshot_rows, 50, "snapshot carried the pre-checkpoint rows");
    assert!(report.corruption.is_none(), "clean shutdown, clean log");
    let count = server.execute_sql("SELECT COUNT(*) FROM survivors").unwrap();
    assert_eq!(count.rows[0].to_string(), "[60]");
    let tail = server.execute_sql("SELECT name FROM survivors WHERE id = 55").unwrap();
    assert_eq!(tail.rows.len(), 1);
    assert!(tail.rows[0].to_string().contains("post-55"));
    server.shutdown();
}

#[test]
fn idle_checkpoint_stage_trims_the_wal_automatically() {
    // One-page segments and a two-segment budget: a burst of inserts
    // leaves far more than two live segments, and the checkpoint stage's
    // idle hook must notice and trim without any client asking.
    let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 2048)));
    let server = StagedServer::new(
        Arc::clone(&cat),
        ServerConfig {
            partitions: 1,
            wal_segment_pages: 1,
            checkpoint_segments: Some(2),
            ..Default::default()
        },
    );
    server.execute_sql("CREATE TABLE auto_ck (id INT, v INT)").unwrap();
    for i in 0..400 {
        server.execute_sql(&format!("INSERT INTO auto_ck VALUES ({i}, {i})")).unwrap();
    }
    // The idle hook may already have fired mid-burst; what must hold is
    // that the log converges to the budget and that old segments are
    // actually gone (the surviving ids start past segment 0).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut segments = server.wal().segments().unwrap();
    while std::time::Instant::now() < deadline {
        segments = server.wal().segments().unwrap();
        if segments.len() <= 3 && segments[0] > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(
        segments.len() <= 3,
        "idle checkpoints should trim live segments, still at {}",
        segments.len()
    );
    assert!(segments[0] > 0, "segment 0 should have been truncated away");
    // The trimmed log still supports queries and further writes.
    let count = server.execute_sql("SELECT COUNT(*) FROM auto_ck").unwrap();
    assert_eq!(count.rows[0].to_string(), "[400]");
    server.execute_sql("INSERT INTO auto_ck VALUES (400, 400)").unwrap();
    server.shutdown();
}

/// A snapshot store that counts its saves.
#[derive(Default)]
struct CountingSnapshots {
    inner: MemSnapshotStore,
    saves: AtomicU64,
}

impl SnapshotStore for CountingSnapshots {
    fn save(&self, bytes: &[u8]) -> StorageResult<()> {
        self.saves.fetch_add(1, Ordering::SeqCst);
        self.inner.save(bytes)
    }

    fn load(&self) -> StorageResult<Option<Vec<u8>>> {
        self.inner.load()
    }
}

#[test]
fn a_floor_held_back_by_a_replica_does_not_loop_the_checkpoint_stage() {
    // The idle hook triggers on log growth since the last checkpoint. A
    // replica that never acks past LSN zero keeps every segment alive, so
    // counting live segments would checkpoint back to back forever, each
    // one rotating into another empty segment.
    let snapshots = Arc::new(CountingSnapshots::default());
    let server = StagedServer::with_stores(
        Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 2048))),
        ServerConfig {
            partitions: 1,
            wal_segment_pages: 1,
            checkpoint_segments: Some(2),
            ..Default::default()
        },
        None,
        Arc::new(MemSegmentStore::new()),
        Arc::clone(&snapshots) as Arc<dyn SnapshotStore>,
    )
    .unwrap();
    server.execute_sql("CREATE TABLE pinned (id INT, v INT)").unwrap();
    // The replica reads its feed (so it is never evicted) but never acks.
    let (_id, rx) = server.replication_hub().subscribe(Lsn::ZERO).unwrap();
    for i in 0..400 {
        server.execute_sql(&format!("INSERT INTO pinned VALUES ({i}, {i})")).unwrap();
        while rx.try_recv().is_ok() {}
    }
    assert!(server.wal().segments().unwrap().len() > 3, "the log outgrew the budget");
    let busy = snapshots.saves.load(Ordering::SeqCst);
    let idle_until = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while std::time::Instant::now() < idle_until {
        while rx.try_recv().is_ok() {}
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let total = snapshots.saves.load(Ordering::SeqCst);
    assert!(total >= 1, "the log grew past the budget, so the stage checkpointed");
    assert!(total - busy <= 2, "{} snapshots while idle ({busy} while busy)", total - busy);
    assert_eq!(server.replication_hub().stats().connected, 1);
    assert_eq!(server.wal().segments().unwrap()[0], 0, "the replica's floor held");
    server.shutdown();
}
