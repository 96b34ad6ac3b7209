//! MVCC snapshot-read tests: `BEGIN READ ONLY` sessions on both servers,
//! the snapshot-vs-quiesced differential at 1/2/4 partitions, the
//! readers-never-block-writers acceptance path, DML refusal, checkpoint
//! version GC, and a proptest that a reader opened mid-transfer always
//! sees a balanced sum.

use proptest::prelude::*;
use staged_db::planner::PlannerConfig;
use staged_db::server::types::ExecutionMode;
use staged_db::server::{ServerConfig, StagedServer, ThreadedServer};
use staged_db::storage::{BufferPool, Catalog, Column, DataType, MemDisk, Schema, Tuple, Value};
use std::sync::Arc;
use std::time::Duration;

const ACCOUNTS: i64 = 16;
const BALANCE: i64 = 100;

fn catalog_with_accounts(parts: usize) -> Arc<Catalog> {
    let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 2048)));
    cat.create_table_partitioned(
        "accounts",
        Schema::new(vec![Column::new("id", DataType::Int), Column::new("bal", DataType::Int)]),
        parts,
        0,
    )
    .unwrap();
    let t = cat.table("accounts").unwrap();
    for i in 0..ACCOUNTS {
        t.heap.insert(&Tuple::new(vec![Value::Int(i), Value::Int(BALANCE)])).unwrap();
    }
    cat.analyze_table("accounts").unwrap();
    cat
}

fn staged(cat: &Arc<Catalog>, parts: usize) -> Arc<StagedServer> {
    StagedServer::new(
        Arc::clone(cat),
        ServerConfig {
            mode: ExecutionMode::Staged,
            partitions: parts,
            lock_timeout: Duration::from_millis(400),
            ..Default::default()
        },
    )
}

fn threaded(cat: &Arc<Catalog>) -> ThreadedServer {
    ThreadedServer::with_lock_timeout(
        Arc::clone(cat),
        2,
        PlannerConfig::default(),
        Duration::from_millis(400),
    )
}

/// Deterministic transfer schedule (xorshift) shared across runs.
fn transfers(seed: u64, n: usize) -> Vec<(i64, i64)> {
    let mut state = 0x9e3779b97f4a7c15u64 ^ (seed + 1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n).map(|_| ((next() % ACCOUNTS as u64) as i64, (next() % ACCOUNTS as u64) as i64)).collect()
}

fn apply_transfer(exec: &dyn Fn(&str) -> staged_db::server::Response, from: i64, to: i64) {
    exec("BEGIN").unwrap();
    exec(&format!("UPDATE accounts SET bal = bal - 10 WHERE id = {from}")).unwrap();
    exec(&format!("UPDATE accounts SET bal = bal + 10 WHERE id = {to}")).unwrap();
    exec("COMMIT").unwrap();
}

/// Like [`apply_transfer`] but for *concurrent* writers, whose transfers
/// touch partitions in arbitrary order and can deadlock against each
/// other. A timed-out statement aborts the whole transaction (money
/// stays balanced), so the transfer is simply retried until it commits.
fn apply_transfer_retrying(exec: &dyn Fn(&str) -> staged_db::server::Response, from: i64, to: i64) {
    loop {
        if exec("BEGIN").is_err() {
            continue;
        }
        let ok = exec(&format!("UPDATE accounts SET bal = bal - 10 WHERE id = {from}")).is_ok()
            && exec(&format!("UPDATE accounts SET bal = bal + 10 WHERE id = {to}")).is_ok();
        if ok && exec("COMMIT").is_ok() {
            return;
        }
        let _ = exec("ROLLBACK");
    }
}

/// The differential: after a committed transfer workload, a `BEGIN READ
/// ONLY` snapshot scan must return exactly what a quiesced 2PL scan
/// returns — at 1, 2, and 4 partitions, on both servers.
#[test]
fn snapshot_scan_matches_quiesced_scan_across_partition_counts() {
    let queries = [
        "SELECT id, bal FROM accounts ORDER BY id",
        "SELECT SUM(bal), COUNT(*) FROM accounts",
        "SELECT bal, COUNT(*) FROM accounts GROUP BY bal ORDER BY bal",
    ];
    for parts in [1usize, 2, 4] {
        for kind in ["staged", "threaded"] {
            let cat = catalog_with_accounts(parts);
            let run = |exec: &dyn Fn(&str) -> staged_db::server::Response| {
                for (from, to) in transfers(7, 24) {
                    apply_transfer(exec, from, to);
                }
                // Quiesced: no writer is live, so the plain (2PL-path)
                // scan is the ground truth the snapshot must reproduce.
                for q in queries {
                    let truth = exec(q).unwrap();
                    exec("BEGIN READ ONLY").unwrap();
                    let snap = exec(q).unwrap();
                    exec("COMMIT").unwrap();
                    assert_eq!(
                        snap.rows.iter().map(|r| r.to_string()).collect::<Vec<_>>(),
                        truth.rows.iter().map(|r| r.to_string()).collect::<Vec<_>>(),
                        "{kind} snapshot diverged from quiesced scan at {parts} parts on {q}"
                    );
                }
            };
            match kind {
                "staged" => {
                    let s = staged(&cat, parts);
                    let sess = s.session();
                    run(&|sql| sess.execute_sql(sql));
                    drop(sess);
                    s.shutdown();
                }
                _ => {
                    let s = threaded(&cat);
                    let sess = s.session();
                    run(&|sql| sess.execute_sql(sql));
                    drop(sess);
                    s.shutdown();
                }
            }
        }
    }
}

/// The acceptance path: a long-running read-only transaction keeps
/// scanning — and keeps seeing its snapshot — while concurrent transfers
/// commit underneath it. The reader never visits the lock table, so it
/// neither waits for writers nor makes them wait.
#[test]
fn long_running_read_only_scan_survives_concurrent_commits() {
    let cat = catalog_with_accounts(2);
    let s = staged(&cat, 2);
    let reader = s.session();
    reader.execute_sql("BEGIN READ ONLY").unwrap();
    let before = reader.execute_sql("SELECT id, bal FROM accounts ORDER BY id").unwrap();

    // Writers commit transfers while the reader's transaction stays open.
    std::thread::scope(|scope| {
        for seed in 0..3u64 {
            let server = &s;
            scope.spawn(move || {
                let sess = server.session();
                for (from, to) in transfers(seed, 8) {
                    apply_transfer_retrying(&|sql| sess.execute_sql(sql), from, to);
                }
            });
        }
        // Interleave reads with the writers: every scan completes (no
        // lock waits) and reproduces the pinned snapshot exactly.
        for _ in 0..6 {
            let again = reader.execute_sql("SELECT id, bal FROM accounts ORDER BY id").unwrap();
            assert_eq!(
                again.rows.iter().map(|r| r.to_string()).collect::<Vec<_>>(),
                before.rows.iter().map(|r| r.to_string()).collect::<Vec<_>>(),
                "read-only snapshot drifted while writers committed"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    });

    reader.execute_sql("COMMIT").unwrap();
    // A fresh statement sees the post-transfer state, and no money leaked.
    let out = reader.execute_sql("SELECT SUM(bal), COUNT(*) FROM accounts").unwrap();
    assert_eq!(out.rows[0].to_string(), format!("[{}, {ACCOUNTS}]", ACCOUNTS * BALANCE));
    drop(reader);
    s.shutdown();
}

/// A snapshot reader ignores exclusive partition locks entirely: it
/// completes while an uncommitted writer holds the lock (a plain scan
/// would run, but a conflicting writer would time out), and it sees the
/// pre-update image rather than the writer's uncommitted bytes.
#[test]
fn read_only_reader_ignores_uncommitted_writer_locks() {
    let cat = catalog_with_accounts(1);
    let s = staged(&cat, 1);
    let writer = s.session();
    writer.execute_sql("BEGIN").unwrap();
    writer.execute_sql("UPDATE accounts SET bal = 999 WHERE id = 3").unwrap();

    let reader = s.session();
    reader.execute_sql("BEGIN READ ONLY").unwrap();
    let out = reader.execute_sql("SELECT bal FROM accounts WHERE id = 3").unwrap();
    assert_eq!(out.rows[0].to_string(), format!("[{BALANCE}]"), "reader saw uncommitted write");

    writer.execute_sql("COMMIT").unwrap();
    // Still the old image: the snapshot predates the commit.
    let out = reader.execute_sql("SELECT bal FROM accounts WHERE id = 3").unwrap();
    assert_eq!(out.rows[0].to_string(), format!("[{BALANCE}]"));
    reader.execute_sql("COMMIT").unwrap();
    // A new snapshot sees the committed update.
    reader.execute_sql("BEGIN READ ONLY").unwrap();
    let out = reader.execute_sql("SELECT bal FROM accounts WHERE id = 3").unwrap();
    assert_eq!(out.rows[0].to_string(), "[999]");
    reader.execute_sql("COMMIT").unwrap();
    drop(reader);
    drop(writer);
    s.shutdown();
}

/// DML and DDL are refused inside a read-only transaction with the
/// `READ_ONLY` error, on both servers, and the session stays usable.
#[test]
fn read_only_transactions_refuse_writes() {
    for kind in ["staged", "threaded"] {
        let cat = catalog_with_accounts(1);
        let check = |exec: &dyn Fn(&str) -> staged_db::server::Response| {
            exec("BEGIN READ ONLY").unwrap();
            for sql in [
                "INSERT INTO accounts VALUES (99, 1)",
                "UPDATE accounts SET bal = 0 WHERE id = 1",
                "DELETE FROM accounts WHERE id = 1",
                "CREATE TABLE t2 (x INT)",
            ] {
                let err = exec(sql).unwrap_err();
                assert!(err.to_string().contains("read-only"), "{kind} {sql}: {err}");
            }
            // Reads still work and the txn ends cleanly.
            exec("SELECT COUNT(*) FROM accounts").unwrap();
            assert_eq!(exec("COMMIT").unwrap().message, "COMMIT");
            // Nothing leaked through.
            let out = exec("SELECT SUM(bal), COUNT(*) FROM accounts").unwrap();
            assert_eq!(out.rows[0].to_string(), format!("[{}, {ACCOUNTS}]", ACCOUNTS * BALANCE));
        };
        match kind {
            "staged" => {
                let s = staged(&cat, 1);
                let sess = s.session();
                check(&|sql| sess.execute_sql(sql));
                drop(sess);
                s.shutdown();
            }
            _ => {
                let s = threaded(&cat);
                let sess = s.session();
                check(&|sql| sess.execute_sql(sql));
                drop(sess);
                s.shutdown();
            }
        }
    }
}

/// ROLLBACK of a read-only transaction is accepted (it has nothing to
/// undo) and releases the snapshot pin.
#[test]
fn read_only_rollback_is_accepted() {
    let cat = catalog_with_accounts(1);
    let s = staged(&cat, 1);
    let sess = s.session();
    sess.execute_sql("BEGIN READ ONLY").unwrap();
    sess.execute_sql("SELECT COUNT(*) FROM accounts").unwrap();
    assert_eq!(sess.execute_sql("ROLLBACK").unwrap().message, "ROLLBACK");
    // The pin is gone: a checkpoint may now vacuum everything dead.
    assert_eq!(cat.oracle().pins(), 0);
    drop(sess);
    s.shutdown();
}

/// Checkpoint vacuums dead versions: after committed updates, the
/// version overlay holds dead before-images; CHECKPOINT reclaims them
/// and reports the count in its message.
#[test]
fn checkpoint_reclaims_dead_versions() {
    for kind in ["staged", "threaded"] {
        let cat = catalog_with_accounts(1);
        let (msg, dead_before) = match kind {
            "staged" => {
                let s = staged(&cat, 1);
                let sess = s.session();
                for (from, to) in transfers(3, 8) {
                    apply_transfer(&|sql| sess.execute_sql(sql), from, to);
                }
                let dead = cat.table("accounts").unwrap().versions.stats().dead;
                let msg = s.checkpoint().unwrap().message;
                drop(sess);
                s.shutdown();
                (msg, dead)
            }
            _ => {
                let s = threaded(&cat);
                let sess = s.session();
                for (from, to) in transfers(3, 8) {
                    apply_transfer(&|sql| sess.execute_sql(sql), from, to);
                }
                let dead = cat.table("accounts").unwrap().versions.stats().dead;
                let msg = s.checkpoint().unwrap().message;
                drop(sess);
                s.shutdown();
                (msg, dead)
            }
        };
        assert!(dead_before > 0, "{kind}: transfers should leave dead versions");
        assert!(msg.contains("versions_gc="), "{kind}: {msg}");
        let gc: u64 = msg.split("versions_gc=").nth(1).unwrap().trim().parse().unwrap();
        assert!(gc > 0, "{kind}: checkpoint reclaimed nothing ({msg})");
        let after = cat.table("accounts").unwrap().versions.stats();
        assert_eq!(after.dead, 0, "{kind}: dead versions survived checkpoint");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A reader that opens its snapshot between any two committed
    /// transfers sees a balanced sum: transfers move money but never
    /// create or destroy it, and a snapshot never observes half of one.
    #[test]
    fn reader_opened_mid_transfer_sees_balanced_sum(
        moves in prop::collection::vec((0..ACCOUNTS, 0..ACCOUNTS), 1..12),
        open_at in 0usize..12,
    ) {
        let cat = catalog_with_accounts(2);
        let s = staged(&cat, 2);
        let writer = s.session();
        let reader = s.session();
        let open_at = open_at.min(moves.len());
        for (i, (from, to)) in moves.iter().enumerate() {
            if i == open_at {
                reader.execute_sql("BEGIN READ ONLY").unwrap();
            }
            apply_transfer(&|sql| writer.execute_sql(sql), *from, *to);
        }
        if open_at >= moves.len() {
            reader.execute_sql("BEGIN READ ONLY").unwrap();
        }
        let out = reader.execute_sql("SELECT SUM(bal), COUNT(*) FROM accounts").unwrap();
        prop_assert_eq!(
            out.rows[0].to_string(),
            format!("[{}, {ACCOUNTS}]", ACCOUNTS * BALANCE)
        );
        reader.execute_sql("COMMIT").unwrap();
        drop(reader);
        drop(writer);
        s.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Snapshot index probes: the same bag as the snapshot scan, under any history
// ---------------------------------------------------------------------------

mod probe {
    use super::*;
    use staged_db::engine::context::ExecContext;
    use staged_db::engine::dml::{self, DmlLog};
    use staged_db::engine::txn::TxnManager;
    use staged_db::planner::plan::col_at;
    use staged_db::sql::ast::{BinOp, Expr};
    use staged_db::storage::catalog::TableInfo;
    use staged_db::storage::{ReadView, SnapshotGuard, Wal};
    use std::collections::HashSet;

    /// Rows of `t (id, k, v)` loaded before the history starts.
    const ROWS: i64 = 10;
    /// Key domain of the indexed, non-partition-key column `k`.
    const KEYS: i64 = 6;

    /// Key bounds every check probes: points, closed and half-open ranges,
    /// and the whole index.
    fn bounds() -> Vec<(Option<i64>, Option<i64>)> {
        let mut out: Vec<_> = (0..KEYS).map(|k| (Some(k), Some(k))).collect();
        out.extend([(Some(1), Some(3)), (None, Some(2)), (Some(4), None), (None, None)]);
        out.extend([(Some(ROWS / 2), Some(ROWS / 2)), (Some(3), Some(ROWS + 4))]);
        out
    }

    fn bag(rows: impl Iterator<Item = Tuple>) -> Vec<String> {
        let mut out: Vec<String> = rows.map(|t| t.to_string()).collect();
        out.sort();
        out
    }

    /// Every index of `t`, probed under `view` for every bound, must return
    /// the bag the snapshot scan returns once filtered on the same bounds.
    fn check(ctx: &ExecContext, t: &Arc<TableInfo>, view: ReadView) -> Result<(), String> {
        for ix in ctx.catalog.indexes_for(t.id) {
            for (lo, hi) in bounds() {
                let probed = t.index_probe(&ix, lo, hi, Some(view)).map_err(|e| e.to_string())?;
                let probed = bag(probed.into_iter().map(|(_, t)| t));
                let in_range = |tuple: &Tuple| {
                    let k = tuple.get(ix.column).as_int().unwrap();
                    lo.is_none_or(|l| k >= l) && hi.is_none_or(|h| k <= h)
                };
                let scanned = bag(t
                    .heap
                    .scan()
                    .with_snapshot(Arc::clone(&t.versions), view)
                    .map(|r| r.unwrap().1)
                    .filter(in_range));
                if probed != scanned {
                    return Err(format!(
                        "{} [{lo:?}, {hi:?}] under {view:?}: probe {probed:?} != scan {scanned:?}",
                        ix.name
                    ));
                }
            }
        }
        Ok(())
    }

    fn by_id(id: i64) -> Option<Expr> {
        Some(Expr::binary(col_at(0), BinOp::Eq, Expr::int(id)))
    }

    /// One step of a random history. Statements open a transaction when
    /// none is open; `Commit`/`Rollback` close it.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Insert {
            id: i64,
            k: i64,
        },
        UpdateKey {
            id: i64,
            k: i64,
        },
        UpdateValue {
            id: i64,
        },
        Delete {
            id: i64,
        },
        Commit,
        Rollback,
        /// Pin a reader's view now (mid-transaction when one is open) and
        /// check it at once, own-writes view included, and again at the end.
        Pin,
        /// Run version GC at the current horizon (skipped mid-transaction:
        /// GC runs only at a quiesce point).
        Vacuum,
    }

    fn step() -> impl Strategy<Value = Step> {
        (0u8..8, 0..ROWS + 4, 0..KEYS).prop_map(|(kind, id, k)| match kind {
            0 => Step::Insert { id, k },
            1 => Step::UpdateKey { id, k },
            2 => Step::UpdateValue { id },
            3 => Step::Delete { id },
            4 => Step::Commit,
            5 => Step::Rollback,
            6 => Step::Pin,
            _ => Step::Vacuum,
        })
    }

    fn run(parts: usize, steps: &[Step]) -> Result<(), String> {
        let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 512)));
        cat.create_table_partitioned(
            "t",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("k", DataType::Int),
                Column::new("v", DataType::Int),
            ]),
            parts,
            0,
        )
        .unwrap();
        let t = cat.table("t").unwrap();
        for id in 0..ROWS {
            t.heap
                .insert(&Tuple::new(vec![Value::Int(id), Value::Int(id % KEYS), Value::Int(0)]))
                .unwrap();
        }
        // One index on the partition key (pruned point probes), one on a
        // column updates move rows across.
        cat.create_index("t_id", "t", "id").unwrap();
        cat.create_index("t_k", "t", "k").unwrap();
        let ctx = ExecContext::new(Arc::clone(&cat));
        let mgr = TxnManager::with_oracle(Arc::clone(cat.oracle()));
        let wal = Wal::in_memory();
        let mut open: Option<u64> = None;
        let mut pinned: Vec<(SnapshotGuard, ReadView)> = Vec::new();
        let err = |e: staged_db::engine::error::EngineError| e.to_string();
        for s in steps {
            let xid = match (s, open) {
                (Step::Insert { .. }, None)
                | (Step::UpdateKey { .. }, None)
                | (Step::UpdateValue { .. }, None)
                | (Step::Delete { .. }, None) => {
                    let x = mgr.begin(&wal).map_err(err)?;
                    open = Some(x);
                    x
                }
                (_, Some(x)) => x,
                (_, None) => 0,
            };
            let log = DmlLog::txn(&wal, xid, &mgr);
            match *s {
                Step::Insert { id, k } => {
                    let row = Tuple::new(vec![Value::Int(id), Value::Int(k), Value::Int(0)]);
                    dml::insert_rows(&ctx, &t, vec![row], Some(&log)).map_err(err)?;
                }
                Step::UpdateKey { id, k } => {
                    dml::update_rows(&ctx, &t, &[(1, Expr::int(k))], &by_id(id), Some(&log))
                        .map_err(err)?;
                }
                Step::UpdateValue { id } => {
                    let bump = Expr::binary(col_at(2), BinOp::Add, Expr::int(1));
                    dml::update_rows(&ctx, &t, &[(2, bump)], &by_id(id), Some(&log))
                        .map_err(err)?;
                }
                Step::Delete { id } => {
                    dml::delete_rows(&ctx, &t, &by_id(id), Some(&log)).map_err(err)?;
                }
                Step::Commit => {
                    if let Some(x) = open.take() {
                        mgr.commit(x, &ctx, &wal).map_err(err)?;
                    }
                }
                Step::Rollback => {
                    if let Some(x) = open.take() {
                        mgr.rollback(x, &ctx, &wal).map_err(err)?;
                    }
                }
                Step::Pin => {
                    let guard = cat.oracle().pin();
                    let view = ReadView::new(guard.ts(), 0);
                    check(&ctx, &t, view)?;
                    if let Some(x) = open {
                        check(&ctx, &t, ReadView::new(guard.ts(), x))?;
                    }
                    pinned.push((guard, view));
                }
                Step::Vacuum => {
                    if open.is_none() {
                        let (horizon, pins_empty) = cat.oracle().min_active();
                        t.versions.vacuum(horizon, pins_empty, &HashSet::new());
                    }
                }
            }
        }
        if let Some(x) = open.take() {
            mgr.commit(x, &ctx, &wal).map_err(err)?;
        }
        // Every reader pinned along the way still sees its own snapshot
        // through the probe, as does a fresh one.
        for (_, view) in &pinned {
            check(&ctx, &t, *view)?;
        }
        check(&ctx, &t, ReadView::new(cat.oracle().latest(), 0))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For random interleavings of key and non-key updates, deletes,
        /// inserts, commits, rollbacks and GC, with readers pinned
        /// mid-transaction, the snapshot index probe returns the same bag
        /// as the snapshot scan over the same view, on one partition and
        /// on three.
        #[test]
        fn snapshot_index_probe_matches_snapshot_scan(
            steps in prop::collection::vec(step(), 1..40),
            three_parts in any::<bool>(),
        ) {
            let parts = if three_parts { 3 } else { 1 };
            if let Err(e) = run(parts, &steps) {
                prop_assert!(false, "{} partition(s): {}", parts, e);
            }
        }
    }
}
