//! Failure injection and WAL-based redo recovery.

use staged_db::engine::context::ExecContext;
use staged_db::engine::dml;
use staged_db::storage::wal::{LogRecord, Wal};
use staged_db::storage::{
    BufferPool, Catalog, Column, DataType, MemDisk, Schema, StorageError, Tuple, Value,
};
use std::sync::Arc;

fn setup() -> (ExecContext, Arc<staged_db::storage::catalog::TableInfo>, Wal) {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 256);
    let catalog = Arc::new(Catalog::new(pool));
    let t = catalog
        .create_table(
            "t",
            Schema::new(vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)]),
        )
        .unwrap();
    (ExecContext::new(catalog), t, Wal::in_memory())
}

#[test]
fn redo_replay_rebuilds_table_contents() {
    let (ctx, t, wal) = setup();
    let rows: Vec<Tuple> =
        (0..50).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * i)])).collect();
    dml::insert_rows(&ctx, &t, rows, Some(&dml::DmlLog::wal_only(&wal, 1))).unwrap();
    let id_col = staged_db::sql::Expr::Column(staged_db::sql::ast::ColumnRef {
        table: None,
        name: "id".into(),
        index: Some(0),
    });
    dml::delete_rows(
        &ctx,
        &t,
        &Some(staged_db::sql::Expr::binary(
            id_col,
            staged_db::sql::ast::BinOp::Lt,
            staged_db::sql::Expr::int(10),
        )),
        Some(&dml::DmlLog::wal_only(&wal, 1)),
    )
    .unwrap();
    wal.append(&LogRecord::Commit { xid: 1 }).unwrap();

    // "Crash": replay the log into a fresh table and compare.
    let pool2 = BufferPool::new(Arc::new(MemDisk::new()), 256);
    let catalog2 = Arc::new(Catalog::new(pool2));
    let t2 = catalog2
        .create_table(
            "t",
            Schema::new(vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)]),
        )
        .unwrap();
    let mut rid_map = std::collections::HashMap::new();
    for (_, rec) in wal.read_all().unwrap() {
        match rec {
            LogRecord::Insert { rid, bytes, .. } => {
                let tuple = Tuple::decode(&bytes).unwrap();
                let new_rid = t2.heap.insert(&tuple).unwrap();
                rid_map.insert(rid, new_rid);
            }
            LogRecord::Delete { rid, .. } => {
                let new_rid = rid_map.remove(&rid).expect("delete of logged insert");
                t2.heap.delete(new_rid).unwrap();
            }
            _ => {}
        }
    }
    let survivors: Vec<i64> =
        t2.heap.scan().map(|r| r.unwrap().1.get(0).as_int().unwrap()).collect();
    assert_eq!(survivors.len(), 40);
    assert!(survivors.iter().all(|&i| i >= 10));
    // Matches the live table.
    assert_eq!(t.heap.count().unwrap(), 40);
}

#[test]
fn redo_rebuilds_partitioned_table_and_indexes_byte_for_byte() {
    let parts = 4usize;
    let mk_catalog = || {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 512);
        let catalog = Arc::new(Catalog::new(pool));
        catalog
            .create_table_partitioned(
                "p",
                Schema::new(vec![
                    Column::new("id", DataType::Int),
                    Column::new("v", DataType::Int),
                ]),
                parts,
                0,
            )
            .unwrap();
        catalog.create_index("p_id", "p", "id").unwrap();
        ExecContext::new(catalog)
    };
    let ctx = mk_catalog();
    let t = ctx.catalog.table("p").unwrap();
    let wal = Wal::in_memory();
    let rows: Vec<Tuple> =
        (0..200).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 3)])).collect();
    dml::insert_rows(&ctx, &t, rows, Some(&dml::DmlLog::wal_only(&wal, 1))).unwrap();
    // Mixed workload: a ranged delete and a keyed update, all WAL-logged.
    let id_col = staged_db::sql::Expr::Column(staged_db::sql::ast::ColumnRef {
        table: None,
        name: "id".into(),
        index: Some(0),
    });
    let lt = |n| {
        Some(staged_db::sql::Expr::binary(
            id_col.clone(),
            staged_db::sql::ast::BinOp::Lt,
            staged_db::sql::Expr::int(n),
        ))
    };
    dml::delete_rows(&ctx, &t, &lt(30), Some(&dml::DmlLog::wal_only(&wal, 1))).unwrap();
    let eq_77 = Some(staged_db::sql::Expr::binary(
        id_col.clone(),
        staged_db::sql::ast::BinOp::Eq,
        staged_db::sql::Expr::int(77),
    ));
    // Key 77 → 501: the row must hop to partition hash(501).
    dml::update_rows(
        &ctx,
        &t,
        &[(0, staged_db::sql::Expr::int(501))],
        &eq_77,
        Some(&dml::DmlLog::wal_only(&wal, 1)),
    )
    .unwrap();
    wal.append(&LogRecord::Commit { xid: 1 }).unwrap();

    // "Crash": fresh catalog of the same shape, then WAL redo.
    let ctx2 = mk_catalog();
    let applied = dml::redo(&ctx2, &wal).unwrap();
    assert!(applied >= 200, "redo applied only {applied} records");
    let t2 = ctx2.catalog.table("p").unwrap();

    // Byte-for-byte per partition: identical sorted encodings.
    assert_eq!(t2.heap.partitions(), parts);
    for p in 0..parts {
        let enc = |heap: &staged_db::storage::PartitionedHeap| {
            let mut v: Vec<Vec<u8>> =
                heap.scan_partition(p).map(|r| r.unwrap().1.encode()).collect();
            v.sort();
            v
        };
        assert_eq!(enc(&t.heap), enc(&t2.heap), "partition {p} differs after redo");
    }
    // Per-partition index entries came back too: every surviving key is in
    // exactly the partition its row hashed to, in both catalogs.
    let ix = ctx2.catalog.index_on(t2.id, 0).unwrap();
    let live: Vec<i64> = (30..200).filter(|k| *k != 77).chain([501]).collect();
    for k in live {
        let p = staged_db::storage::partition_of_value(&Value::Int(k), parts);
        assert_eq!(ix.btree_for(p).search(k).unwrap().len(), 1, "key {k}");
        for q in (0..parts).filter(|q| *q != p) {
            assert!(ix.btree_for(q).search(k).unwrap().is_empty(), "key {k} leaked");
        }
    }
    assert!(ix.search(12).unwrap().is_empty(), "deleted key resurrected");
    assert!(ix.search(77).unwrap().is_empty(), "pre-update key resurrected");
    assert_eq!(t2.heap.count().unwrap(), 170);
}

/// A crash landing between `Begin` and `Commit` must erase the in-flight
/// transaction: redo replays only transactions with a durable commit
/// record, at every partition count.
#[test]
fn crash_between_begin_and_commit_replays_only_committed_txns() {
    for parts in [1usize, 2, 4] {
        let mk_catalog = || {
            let pool = BufferPool::new(Arc::new(MemDisk::new()), 512);
            let catalog = Arc::new(Catalog::new(pool));
            catalog
                .create_table_partitioned(
                    "p",
                    Schema::new(vec![
                        Column::new("id", DataType::Int),
                        Column::new("v", DataType::Int),
                    ]),
                    parts,
                    0,
                )
                .unwrap();
            catalog.create_index("p_id", "p", "id").unwrap();
            ExecContext::new(catalog)
        };
        let ctx = mk_catalog();
        let t = ctx.catalog.table("p").unwrap();
        let wal = Wal::in_memory();

        // Transaction 1 commits 100 rows.
        wal.append(&LogRecord::Begin { xid: 1 }).unwrap();
        let rows: Vec<Tuple> =
            (0..100).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i)])).collect();
        dml::insert_rows(&ctx, &t, rows, Some(&dml::DmlLog::wal_only(&wal, 1))).unwrap();
        wal.append(&LogRecord::Commit { xid: 1 }).unwrap();

        // Transaction 2 inserts new rows AND deletes committed ones — then
        // the "crash" happens before its commit record.
        wal.append(&LogRecord::Begin { xid: 2 }).unwrap();
        let more: Vec<Tuple> =
            (1000..1020).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(0)])).collect();
        let log2 = dml::DmlLog::wal_only(&wal, 2);
        dml::insert_rows(&ctx, &t, more, Some(&log2)).unwrap();
        let id_col = staged_db::sql::Expr::Column(staged_db::sql::ast::ColumnRef {
            table: None,
            name: "id".into(),
            index: Some(0),
        });
        let lt_10 = Some(staged_db::sql::Expr::binary(
            id_col,
            staged_db::sql::ast::BinOp::Lt,
            staged_db::sql::Expr::int(10),
        ));
        dml::delete_rows(&ctx, &t, &lt_10, Some(&log2)).unwrap();
        wal.flush().unwrap(); // records are durable, the commit is not

        // Transaction 3 aborted explicitly; equally invisible to redo.
        wal.append(&LogRecord::Begin { xid: 3 }).unwrap();
        let aborted: Vec<Tuple> =
            (2000..2005).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(0)])).collect();
        dml::insert_rows(&ctx, &t, aborted, Some(&dml::DmlLog::wal_only(&wal, 3))).unwrap();
        wal.append(&LogRecord::Abort { xid: 3 }).unwrap();
        wal.flush().unwrap();

        let ctx2 = mk_catalog();
        let applied = dml::redo(&ctx2, &wal).unwrap();
        assert_eq!(applied, 100, "{parts} partitions: exactly txn 1's inserts replay");
        let t2 = ctx2.catalog.table("p").unwrap();
        assert_eq!(t2.heap.count().unwrap(), 100, "{parts} partitions");
        let ids: std::collections::HashSet<i64> =
            t2.heap.scan().map(|r| r.unwrap().1.get(0).as_int().unwrap()).collect();
        assert_eq!(ids, (0..100).collect(), "{parts} partitions: uncommitted writes leaked");
        // The uncommitted delete of rows 0..10 must not have replayed, and
        // their index entries must be intact in the partition they hash to.
        let ix = ctx2.catalog.index_on(t2.id, 0).unwrap();
        for k in 0..10 {
            assert_eq!(ix.search(k).unwrap().len(), 1, "{parts} partitions: key {k}");
        }
        assert!(ix.search(1000).unwrap().is_empty());
        assert!(ix.search(2000).unwrap().is_empty());
    }
}

#[test]
fn disk_full_surfaces_cleanly_mid_insert() {
    let pool = BufferPool::new(Arc::new(MemDisk::new().with_capacity(3)), 8);
    let catalog = Arc::new(Catalog::new(pool));
    let t = catalog.create_table("t", Schema::new(vec![Column::new("x", DataType::Str)])).unwrap();
    let big_row = Tuple::new(vec![Value::Str("y".repeat(4000))]);
    let mut inserted = 0;
    let err = loop {
        match t.heap.insert(&big_row) {
            Ok(_) => inserted += 1,
            Err(e) => break e,
        }
    };
    assert_eq!(err, StorageError::DiskFull);
    assert!(inserted >= 3, "three pages × ~2 rows fit before the disk fills");
    // Existing data remains readable.
    assert_eq!(t.heap.count().unwrap(), inserted);
}

#[test]
fn torn_page_is_reported_as_corruption() {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 8);
    let catalog = Arc::new(Catalog::new(Arc::clone(&pool)));
    let t = catalog.create_table("t", Schema::new(vec![Column::new("x", DataType::Int)])).unwrap();
    let rid = t.heap.insert(&Tuple::new(vec![Value::Int(1)])).unwrap();
    // Corrupt the record bytes in place (simulated torn write): the slot
    // now points at garbage that fails tuple decoding.
    let guard = pool.fetch(rid.page).unwrap();
    guard.write(|d| {
        for b in d[8100..].iter_mut() {
            *b = 0xFF;
        }
    });
    drop(guard);
    match t.heap.get(rid) {
        Err(StorageError::Corrupt(_)) => {}
        other => panic!("expected corruption error, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Checkpointed recovery: snapshot + tail replay, crash torture, torn logs
// ---------------------------------------------------------------------------

use staged_db::engine::checkpoint;
use staged_db::storage::{
    DiskManager, MemSegmentStore, MemSnapshotStore, SegmentStore, SnapshotStore,
};

/// A fresh context with the standard partitioned table + index used by the
/// checkpoint tests.
fn part_ctx(parts: usize) -> ExecContext {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 512);
    let catalog = Arc::new(Catalog::new(pool));
    catalog
        .create_table_partitioned(
            "p",
            Schema::new(vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)]),
            parts,
            0,
        )
        .unwrap();
    catalog.create_index("p_id", "p", "id").unwrap();
    ExecContext::new(catalog)
}

/// A bare (table-less) context for recovery paths where the snapshot
/// recreates the DDL.
fn empty_ctx() -> ExecContext {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 512);
    ExecContext::new(Arc::new(Catalog::new(pool)))
}

/// One committed transaction inserting `ids` (id, id * 10) rows.
fn commit_rows(ctx: &ExecContext, wal: &Wal, xid: u64, ids: std::ops::Range<i64>) {
    let t = ctx.catalog.table("p").unwrap();
    wal.append(&LogRecord::Begin { xid }).unwrap();
    let rows: Vec<Tuple> =
        ids.map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 10)])).collect();
    dml::insert_rows(ctx, &t, rows, Some(&dml::DmlLog::wal_only(wal, xid))).unwrap();
    wal.append(&LogRecord::Commit { xid }).unwrap();
}

fn sorted_ids(ctx: &ExecContext) -> Vec<i64> {
    let t = ctx.catalog.table("p").unwrap();
    let mut ids: Vec<i64> = t.heap.scan().map(|r| r.unwrap().1.get(0).as_int().unwrap()).collect();
    ids.sort_unstable();
    ids
}

/// The acceptance test of the checkpoint path: after a checkpoint, the
/// segments below the checkpoint LSN are *gone*, and recovery reads
/// strictly fewer log pages than a full-history replay of the identical
/// workload — proof that it replays only the tail.
#[test]
fn checkpoint_truncates_history_and_recovery_reads_only_the_tail() {
    // Two identical histories: one checkpointed, one not.
    let run = |checkpointed: bool| -> (Arc<MemSegmentStore>, MemSnapshotStore, u64) {
        let segments = Arc::new(MemSegmentStore::new());
        let snapshots = MemSnapshotStore::new();
        let ctx = part_ctx(2);
        // One page per segment: the 400-row history spreads over many
        // segments, so truncation has something to bite on.
        let wal = Wal::open_with_segment_pages(Arc::clone(&segments) as _, 1).unwrap();
        commit_rows(&ctx, &wal, 1, 0..2000);
        let mut deleted = 0;
        if checkpointed {
            let outcome = checkpoint::checkpoint(&ctx.catalog, &wal, &snapshots).unwrap();
            deleted = outcome.segments_deleted;
            // Every segment below the checkpoint LSN is gone from the store.
            let live = segments.list().unwrap();
            assert!(
                live.iter().all(|&id| id >= outcome.lsn.segment),
                "segments below the checkpoint LSN must be deleted, store holds {live:?}"
            );
        }
        commit_rows(&ctx, &wal, 2, 2000..2040);
        wal.flush().unwrap();
        (segments, snapshots, deleted)
    };

    let (cp_segments, cp_snapshots, deleted) = run(true);
    let (full_segments, full_snapshots, _) = run(false);
    assert!(deleted >= 5, "the 2000-row history must span many deleted segments, got {deleted}");

    // Recover both, metering segment-store page reads across recovery only.
    let cp_ctx = empty_ctx(); // snapshot recreates the DDL
    let before = cp_segments.io_stats().reads;
    let (_, cp_report) =
        checkpoint::recover(&cp_ctx, Arc::clone(&cp_segments) as _, &cp_snapshots, 1).unwrap();
    let cp_reads = cp_segments.io_stats().reads - before;

    let full_ctx = part_ctx(2); // no snapshot: recovery needs the DDL in place
    let before = full_segments.io_stats().reads;
    let (_, full_report) =
        checkpoint::recover(&full_ctx, Arc::clone(&full_segments) as _, &full_snapshots, 1)
            .unwrap();
    let full_reads = full_segments.io_stats().reads - before;

    // Same end state either way...
    assert_eq!(sorted_ids(&cp_ctx), (0..2040).collect::<Vec<i64>>());
    assert_eq!(sorted_ids(&full_ctx), (0..2040).collect::<Vec<i64>>());
    assert_eq!(cp_report.snapshot_rows, 2000);
    assert!(cp_report.corruption.is_none());
    assert_eq!(full_report.snapshot_rows, 0);
    // ...but the checkpointed store served strictly fewer log-page reads.
    assert!(
        cp_reads < full_reads,
        "tail replay must read fewer log pages than full history ({cp_reads} vs {full_reads})"
    );
    // And the snapshotted rows are reachable through the restored index.
    let t = cp_ctx.catalog.table("p").unwrap();
    let ix = cp_ctx.catalog.index_on(t.id, 0).unwrap();
    assert_eq!(ix.search(123).unwrap().len(), 1);
}

/// Kill the checkpoint protocol between each pair of steps — after the
/// snapshot is captured but not saved, after it is saved but nothing is
/// truncated, and halfway through truncation — at 1, 2 and 4 partitions.
/// Every crash point must recover the full committed state.
#[test]
fn crash_during_checkpoint_recovers_at_every_step_boundary() {
    for parts in [1usize, 2, 4] {
        // Crash point A: rotated + captured, never saved. The snapshot is
        // lost; the whole log survives and replays.
        {
            let segments = Arc::new(MemSegmentStore::new());
            let snapshots = MemSnapshotStore::new();
            let ctx = part_ctx(parts);
            let wal = Wal::open_with_segment_pages(Arc::clone(&segments) as _, 1).unwrap();
            commit_rows(&ctx, &wal, 1, 0..60);
            let (_lsn, snap) = checkpoint::snapshot_catalog(&ctx.catalog, &wal).unwrap();
            drop(snap); // "crash" before snapshots.save
            commit_rows(&ctx, &wal, 2, 60..80);
            wal.flush().unwrap();
            let ctx2 = part_ctx(parts); // no snapshot -> DDL must pre-exist
            let (_, report) =
                checkpoint::recover(&ctx2, Arc::clone(&segments) as _, &snapshots, 1).unwrap();
            assert!(report.corruption.is_none(), "{parts} partitions, crash A");
            assert_eq!(sorted_ids(&ctx2), (0..80).collect::<Vec<i64>>(), "{parts} parts, A");
        }
        // Crash point B: snapshot saved, nothing truncated. Recovery must
        // anchor at the snapshot and skip the stale segments cleanly.
        {
            let segments = Arc::new(MemSegmentStore::new());
            let snapshots = MemSnapshotStore::new();
            let ctx = part_ctx(parts);
            let wal = Wal::open_with_segment_pages(Arc::clone(&segments) as _, 1).unwrap();
            commit_rows(&ctx, &wal, 1, 0..60);
            let (lsn, snap) = checkpoint::snapshot_catalog(&ctx.catalog, &wal).unwrap();
            snapshots.save(&snap.encode()).unwrap(); // "crash" before truncate
            commit_rows(&ctx, &wal, 2, 60..80);
            wal.flush().unwrap();
            let ctx2 = empty_ctx();
            let (_, report) =
                checkpoint::recover(&ctx2, Arc::clone(&segments) as _, &snapshots, 1).unwrap();
            assert!(report.corruption.is_none(), "{parts} partitions, crash B");
            assert_eq!(report.checkpoint_lsn, lsn, "{parts} partitions, crash B");
            assert_eq!(report.snapshot_rows, 60, "{parts} partitions, crash B");
            assert_eq!(sorted_ids(&ctx2), (0..80).collect::<Vec<i64>>(), "{parts} parts, B");
        }
        // Crash point C: truncation killed halfway. truncate_below deletes
        // oldest-first, so the survivors are a contiguous suffix; recovery
        // skips them regardless.
        {
            let segments = Arc::new(MemSegmentStore::new());
            let snapshots = MemSnapshotStore::new();
            let ctx = part_ctx(parts);
            let wal = Wal::open_with_segment_pages(Arc::clone(&segments) as _, 1).unwrap();
            commit_rows(&ctx, &wal, 1, 0..600);
            let (lsn, snap) = checkpoint::snapshot_catalog(&ctx.catalog, &wal).unwrap();
            snapshots.save(&snap.encode()).unwrap();
            // Partial truncation: only the oldest half of the doomed
            // segments is gone when the "crash" lands.
            let doomed: Vec<u64> =
                segments.list().unwrap().into_iter().filter(|&id| id < lsn.segment).collect();
            assert!(doomed.len() >= 2, "{parts} partitions: need segments to half-delete");
            for &id in &doomed[..doomed.len() / 2] {
                segments.delete(id).unwrap();
            }
            commit_rows(&ctx, &wal, 2, 600..680);
            wal.flush().unwrap();
            let ctx2 = empty_ctx();
            let (_, report) =
                checkpoint::recover(&ctx2, Arc::clone(&segments) as _, &snapshots, 1).unwrap();
            assert!(report.corruption.is_none(), "{parts} partitions, crash C");
            assert_eq!(sorted_ids(&ctx2), (0..680).collect::<Vec<i64>>(), "{parts} parts, C");
        }
    }
}

/// A torn write on the final log page is the end of the log, not an
/// error: recovery applies everything before it and reports no damage.
#[test]
fn torn_tail_page_recovers_the_committed_prefix_silently() {
    let segments = Arc::new(MemSegmentStore::new());
    let snapshots = MemSnapshotStore::new();
    let ctx = part_ctx(2);
    let wal = Wal::open_with_segment_pages(Arc::clone(&segments) as _, 64).unwrap();
    // Six separate committed transactions of 100 rows each: tearing the
    // final page must lose whole *suffix* transactions, never earlier ones.
    for xid in 0..6u64 {
        commit_rows(&ctx, &wal, xid + 1, (xid as i64 * 100)..((xid as i64 + 1) * 100));
    }
    // Tear the last written page of the final segment: flip a byte so its
    // checksum fails, the way a half-written sector looks after a crash.
    let last = *segments.list().unwrap().last().unwrap();
    let disk = segments.disk(last).unwrap();
    let pages = disk.num_pages();
    assert!(pages >= 2, "need a multi-page log, got {pages}");
    let mut page = vec![0u8; staged_db::storage::PAGE_SIZE];
    disk.read_page(staged_db::storage::PageId(pages - 1), &mut page).unwrap();
    page[100] ^= 0xFF;
    disk.write_page(staged_db::storage::PageId(pages - 1), &page).unwrap();

    let ctx2 = part_ctx(2);
    let (wal2, report) =
        checkpoint::recover(&ctx2, Arc::clone(&segments) as _, &snapshots, 64).unwrap();
    assert!(report.corruption.is_none(), "a torn tail is the end of the log, not damage");
    // A whole-transaction prefix survived; the torn page's txns are gone.
    let ids = sorted_ids(&ctx2);
    assert!(!ids.is_empty() && ids.len() < 600, "prefix expected, got {} rows", ids.len());
    assert_eq!(ids.len() % 100, 0, "partial transactions must never replay");
    assert_eq!(ids, (0..ids.len() as i64).collect::<Vec<i64>>());
    // The repaired log accepts new appends after the tear.
    wal2.append(&LogRecord::Commit { xid: 99 }).unwrap();
    assert!(wal2.committed_xids().unwrap().contains(&99));
}

/// Corruption *in front of* valid log pages is damage, never a panic:
/// recovery applies the pre-corruption committed prefix and reports the
/// error in the recovery report.
#[test]
fn corruption_before_valid_pages_is_reported_with_prefix_intact() {
    let segments = Arc::new(MemSegmentStore::new());
    let snapshots = MemSnapshotStore::new();
    let ctx = part_ctx(1);
    let wal = Wal::open_with_segment_pages(Arc::clone(&segments) as _, 64).unwrap();
    commit_rows(&ctx, &wal, 1, 0..500);
    commit_rows(&ctx, &wal, 2, 500..1000);
    wal.flush().unwrap();
    let last = *segments.list().unwrap().last().unwrap();
    let disk = segments.disk(last).unwrap();
    let pages = disk.num_pages();
    assert!(pages >= 3, "need interior pages to corrupt, got {pages}");
    // Corrupt an interior page: valid pages follow it, so this cannot be a
    // torn tail and must be reported.
    let mut page = vec![0u8; staged_db::storage::PAGE_SIZE];
    disk.read_page(staged_db::storage::PageId(1), &mut page).unwrap();
    page[200] ^= 0xFF;
    disk.write_page(staged_db::storage::PageId(1), &page).unwrap();

    let ctx2 = part_ctx(1);
    let (_, report) =
        checkpoint::recover(&ctx2, Arc::clone(&segments) as _, &snapshots, 64).unwrap();
    match report.corruption {
        Some(StorageError::Corrupt(_)) => {}
        other => panic!("expected corruption report, got {other:?}"),
    }
    // Only records from the intact prefix (page 0) applied; nothing panicked.
    let ids = sorted_ids(&ctx2);
    assert!(ids.len() < 1000, "corrupted page's records must not replay");
}

/// A tuple close to the 8 KiB page limit logs as a WAL record *larger*
/// than a page (record header + row bytes); it must round-trip through
/// continuation frames and redo byte-exactly.
#[test]
fn wide_tuple_near_page_size_survives_wal_and_redo() {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 64);
    let catalog = Arc::new(Catalog::new(pool));
    let t = catalog.create_table("w", Schema::new(vec![Column::new("x", DataType::Str)])).unwrap();
    let ctx = ExecContext::new(Arc::clone(&catalog));
    let segments = Arc::new(MemSegmentStore::new());
    let wal = Wal::open(Arc::clone(&segments) as _).unwrap();
    // The heap takes tuples up to PAGE_SIZE - 8; aim just under it so the
    // WAL record (record header + encoded row) exceeds one log page.
    let payload = "y".repeat(8100);
    let wide = Tuple::new(vec![Value::Str(payload.clone())]);
    wal.append(&LogRecord::Begin { xid: 1 }).unwrap();
    dml::insert_rows(&ctx, &t, vec![wide], Some(&dml::DmlLog::wal_only(&wal, 1))).unwrap();
    wal.append(&LogRecord::Commit { xid: 1 }).unwrap();

    let pool2 = BufferPool::new(Arc::new(MemDisk::new()), 64);
    let catalog2 = Arc::new(Catalog::new(pool2));
    catalog2.create_table("w", Schema::new(vec![Column::new("x", DataType::Str)])).unwrap();
    let ctx2 = ExecContext::new(Arc::clone(&catalog2));
    let applied = dml::redo(&ctx2, &wal).unwrap();
    assert_eq!(applied, 1);
    let t2 = catalog2.table("w").unwrap();
    let rows: Vec<Tuple> = t2.heap.scan().map(|r| r.unwrap().1).collect();
    assert_eq!(rows.len(), 1);
    match rows[0].get(0) {
        Value::Str(s) => assert_eq!(s, &payload),
        other => panic!("wrong value {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Failed commits stay failed: a failed log write or sync poisons the WAL
// ---------------------------------------------------------------------------

use staged_db::server::{ServerConfig, StagedServer};
use staged_db::storage::disk::IoStats;
use staged_db::storage::{Lsn, PageId, StorageResult};
use staged_db::wire::{parse_change, parse_repl_frame, ReplFrame};
use std::collections::HashMap;
use std::sync::Mutex;

/// The log operation an armed [`FaultySegmentStore`] fails next.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    Write,
    Sync,
}

/// A segment store over a [`MemSegmentStore`] that models a disk with a
/// volatile cache: page writes land in a per-segment cache that reads see
/// first, and only a successful sync moves them to the inner store, which
/// is what survives a crash. An armed fault fails the next page write or
/// sync; a failed sync drops the cached pages, as a kernel may after a
/// failed fsync.
struct FaultySegmentStore {
    inner: Arc<MemSegmentStore>,
    disks: Mutex<HashMap<u64, Arc<FaultyDisk>>>,
    armed: Arc<Mutex<Option<Fault>>>,
}

impl FaultySegmentStore {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            inner: Arc::new(MemSegmentStore::new()),
            disks: Mutex::new(HashMap::new()),
            armed: Arc::new(Mutex::new(None)),
        })
    }

    fn arm(&self, fault: Fault) {
        *self.armed.lock().unwrap() = Some(fault);
    }
}

struct FaultyDisk {
    inner: Arc<dyn DiskManager>,
    cache: Mutex<HashMap<u64, Vec<u8>>>,
    armed: Arc<Mutex<Option<Fault>>>,
}

impl FaultyDisk {
    /// Consume the armed fault if it is `fault`.
    fn trips(&self, fault: Fault) -> bool {
        let mut armed = self.armed.lock().unwrap();
        let hit = *armed == Some(fault);
        if hit {
            *armed = None;
        }
        hit
    }
}

impl DiskManager for FaultyDisk {
    fn allocate(&self) -> StorageResult<PageId> {
        self.inner.allocate()
    }

    fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()> {
        match self.cache.lock().unwrap().get(&page.0) {
            Some(bytes) => {
                buf.copy_from_slice(bytes);
                Ok(())
            }
            None => self.inner.read_page(page, buf),
        }
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> StorageResult<()> {
        if self.trips(Fault::Write) {
            return Err(StorageError::Io("injected write failure".into()));
        }
        self.cache.lock().unwrap().insert(page.0, buf.to_vec());
        Ok(())
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn sync(&self) -> StorageResult<()> {
        let mut cache = self.cache.lock().unwrap();
        if self.trips(Fault::Sync) {
            cache.clear();
            return Err(StorageError::Io("injected sync failure".into()));
        }
        for (page, bytes) in cache.drain() {
            self.inner.write_page(PageId(page), &bytes)?;
        }
        self.inner.sync()
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }
}

impl SegmentStore for FaultySegmentStore {
    fn open(&self, id: u64) -> StorageResult<Arc<dyn DiskManager>> {
        let mut disks = self.disks.lock().unwrap();
        if let Some(d) = disks.get(&id) {
            return Ok(Arc::clone(d) as Arc<dyn DiskManager>);
        }
        let disk = Arc::new(FaultyDisk {
            inner: self.inner.open(id)?,
            cache: Mutex::new(HashMap::new()),
            armed: Arc::clone(&self.armed),
        });
        disks.insert(id, Arc::clone(&disk));
        Ok(disk)
    }

    fn delete(&self, id: u64) -> StorageResult<()> {
        self.disks.lock().unwrap().remove(&id);
        self.inner.delete(id)
    }

    fn list(&self) -> StorageResult<Vec<u64>> {
        self.inner.list()
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }
}

/// `INSERT 1` commits, `INSERT 2` fails in its commit flush, `INSERT 3` is
/// refused with the log's stable error. Recovery from what reached stable
/// storage yields exactly {1}, and neither a replica feed nor a SUBSCRIBE
/// feed attached for the whole run ever ships a record of `INSERT 2`.
#[test]
fn a_failed_commit_stays_failed_in_recovery_and_on_every_feed() {
    for fault in [Fault::Sync, Fault::Write] {
        let store = FaultySegmentStore::new();
        let server = StagedServer::with_stores(
            Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 256))),
            ServerConfig { partitions: 1, ..ServerConfig::default() },
            None,
            Arc::clone(&store) as Arc<dyn SegmentStore>,
            Arc::new(MemSnapshotStore::new()),
        )
        .unwrap();
        server.execute_sql("CREATE TABLE t (k INT, v INT)").unwrap();
        let (_, replica) = server.replication_hub().subscribe(Lsn::ZERO).unwrap();
        let (_, subscriber) = server.reactivity_hub().subscribe("t", None).unwrap();

        server.execute_sql("INSERT INTO t VALUES (1, 1)").unwrap();
        store.arm(fault);
        let failed = server.execute_sql("INSERT INTO t VALUES (2, 2)");
        assert!(failed.is_err(), "{fault:?}: the commit whose flush failed reported success");
        let refused = server.execute_sql("INSERT INTO t VALUES (3, 3)").unwrap_err();
        assert!(
            refused.to_string().contains(&StorageError::WalFailed.to_string()),
            "{fault:?}: expected the log's stable error, got {refused}"
        );
        // Reads still run, and see only the acknowledged row.
        let out = server.execute_sql("SELECT k FROM t").unwrap();
        assert_eq!(out.rows, vec![Tuple::new(vec![Value::Int(1)])], "{fault:?}");

        // Every committed record has been flushed; pump it all out.
        server.replication_hub().pump();
        let mut shipped_keys = Vec::new();
        let mut shipped_xids = std::collections::HashSet::new();
        for line in std::iter::from_fn(|| replica.try_recv().ok()) {
            if let ReplFrame::Record { payload, .. } = parse_repl_frame(&line).unwrap() {
                let rec = LogRecord::from_bytes(&payload).unwrap();
                shipped_xids.insert(rec.xid());
                if let LogRecord::Insert { bytes, .. } = rec {
                    shipped_keys.push(Tuple::decode(&bytes).unwrap().get(0).clone());
                }
            }
        }
        assert_eq!(shipped_keys, vec![Value::Int(1)], "{fault:?}: replica feed");
        assert_eq!(shipped_xids.len(), 1, "{fault:?}: replica saw records of {shipped_xids:?}");
        let changed: Vec<Option<String>> = std::iter::from_fn(|| subscriber.try_recv().ok())
            .filter_map(|line| parse_change(&line).ok())
            .map(|c| c.fields[0].clone())
            .collect();
        assert_eq!(changed, vec![Some("1".to_string())], "{fault:?}: subscription feed");
        server.shutdown();

        // Crash: only what reached stable storage survives.
        let ctx = empty_ctx();
        ctx.catalog
            .create_table(
                "t",
                Schema::new(vec![Column::new("k", DataType::Int), Column::new("v", DataType::Int)]),
            )
            .unwrap();
        checkpoint::recover(
            &ctx,
            Arc::clone(&store.inner) as Arc<dyn SegmentStore>,
            &MemSnapshotStore::new(),
            staged_db::storage::DEFAULT_SEGMENT_PAGES,
        )
        .unwrap();
        let t = ctx.catalog.table("t").unwrap();
        let keys: Vec<i64> = t.heap.scan().map(|r| r.unwrap().1.get(0).as_int().unwrap()).collect();
        assert_eq!(keys, vec![1], "{fault:?}: recovery");
    }
}
