//! DML execution: INSERT, UPDATE, DELETE with index maintenance and WAL
//! logging (the "end Xaction" work of the paper's disconnect stage).

use crate::context::ExecContext;
use crate::error::{EngineError, EngineResult};
use crate::expr::{eval, eval_predicate};
use crate::txn::{TxnManager, Undo};
use staged_planner::{plan_table_filter, PhysicalPlan, PlannerConfig};
use staged_sql::ast::Expr;
use staged_storage::catalog::TableInfo;
use staged_storage::wal::{LogRecord, Lsn, Wal};
use staged_storage::{Rid, Tuple, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Where a DML statement's changes are recorded: the WAL (redo), and —
/// when the statement runs inside a transaction — the transaction
/// manager's undo log (rollback). Passing `None` to the DML entry points
/// skips logging entirely (bulk loads, tests).
pub struct DmlLog<'a> {
    /// The write-ahead log.
    pub wal: &'a Wal,
    /// Transaction the records belong to.
    pub xid: u64,
    /// Undo-log sink; `None` for unmanaged (bare-WAL) callers.
    pub txn: Option<&'a TxnManager>,
}

impl<'a> DmlLog<'a> {
    /// WAL-only logging (no in-memory undo), as used before the
    /// transaction subsystem existed.
    pub fn wal_only(wal: &'a Wal, xid: u64) -> Self {
        Self { wal, xid, txn: None }
    }

    /// Full transactional logging: WAL plus the manager's undo log.
    pub fn txn(wal: &'a Wal, xid: u64, txn: &'a TxnManager) -> Self {
        Self { wal, xid, txn: Some(txn) }
    }

    fn note_undo(&self, undo: Undo) {
        if let Some(mgr) = self.txn {
            mgr.record_undo(self.xid, undo);
        }
    }

    /// The xid to register MVCC version notes under: statements running
    /// under the transaction manager version their changes; bare-WAL
    /// callers (bulk loads, recovery replay) do not — their rows are
    /// immediately visible to everyone, which is correct because those
    /// paths run without concurrent readers.
    fn versioned(&self) -> Option<u64> {
        self.txn.map(|_| self.xid)
    }
}

/// Insert fully-evaluated rows; returns the number inserted.
pub fn insert_rows(
    ctx: &ExecContext,
    table: &Arc<TableInfo>,
    rows: Vec<Tuple>,
    log: Option<&DmlLog<'_>>,
) -> EngineResult<u64> {
    let indexes = ctx.catalog.indexes_for(table.id);
    let mut n = 0;
    for row in rows {
        table.schema.validate(&row)?;
        let (part, rid) = match log.and_then(|l| l.versioned()) {
            // Versioned insert: register the rid in the overlay from inside
            // the page latch, so no reader can decode the row before its
            // Pending stamp exists.
            Some(xid) => {
                table.heap.insert_routed_with(&row, |rid| table.versions.note_insert(rid, xid))?
            }
            None => table.heap.insert_routed(&row)?,
        };
        ctx.note_page_ref();
        for ix in &indexes {
            if let Some(k) = row.get(ix.column).as_int() {
                ix.insert(part, k, rid)?;
            }
        }
        if let Some(log) = log {
            log.wal.append(&LogRecord::Insert {
                xid: log.xid,
                table: table.id.0,
                rid,
                bytes: row.encode(),
            })?;
            log.note_undo(Undo::Insert { table: table.id.0, rid });
        }
        n += 1;
    }
    Ok(n)
}

/// Collect the rids matching a (table-locally bound) predicate, using an
/// index when the planner finds one profitable.
pub fn matching_rids(
    ctx: &ExecContext,
    table: &Arc<TableInfo>,
    predicate: &Option<Expr>,
) -> EngineResult<Vec<(Rid, Tuple)>> {
    let plan = plan_table_filter(table, predicate.clone(), &ctx.catalog, &PlannerConfig::default());
    let mut out = Vec::new();
    match &plan {
        PhysicalPlan::IndexScan { index, lo, hi, predicate: residual, .. } => {
            for (rid, t) in table.index_probe(index, *lo, *hi, None)? {
                ctx.note_page_ref();
                if match residual {
                    Some(p) => eval_predicate(p, &t)?,
                    None => true,
                } {
                    out.push((rid, t));
                }
            }
        }
        // A pruned partition scan (predicate pins the hash key): DML only
        // has to read the one partition that can hold matches. The scan
        // keeps the full predicate, so hash collisions are filtered here.
        PhysicalPlan::PartitionScan { partition, predicate: pruned_pred, .. } => {
            for item in table.heap.scan_partition(*partition) {
                let (rid, t) = item?;
                ctx.note_page_ref();
                if match pruned_pred {
                    Some(p) => eval_predicate(p, &t)?,
                    None => true,
                } {
                    out.push((rid, t));
                }
            }
        }
        _ => {
            for item in table.heap.scan() {
                let (rid, t) = item?;
                ctx.note_page_ref();
                if match predicate {
                    Some(p) => eval_predicate(p, &t)?,
                    None => true,
                } {
                    out.push((rid, t));
                }
            }
        }
    }
    Ok(out)
}

/// Delete matching rows; returns the number deleted.
pub fn delete_rows(
    ctx: &ExecContext,
    table: &Arc<TableInfo>,
    predicate: &Option<Expr>,
    log: Option<&DmlLog<'_>>,
) -> EngineResult<u64> {
    let victims = matching_rids(ctx, table, predicate)?;
    let indexes = ctx.catalog.indexes_for(table.id);
    let mut n = 0;
    for (rid, row) in victims {
        let part = table.heap.partition_of(&row);
        let before = row.encode();
        // Register the dead version *before* the heap delete: a reader
        // either still sees the live row (and deduplicates against the
        // dead copy) or misses it and finds the dead version — never
        // neither.
        if let Some(xid) = log.and_then(|l| l.versioned()) {
            table.versions.note_delete(rid, before.clone(), xid);
        }
        table.heap.delete(rid)?;
        for ix in &indexes {
            if let Some(k) = row.get(ix.column).as_int() {
                ix.delete(part, k, rid)?;
            }
        }
        if let Some(log) = log {
            log.wal.append(&LogRecord::Delete {
                xid: log.xid,
                table: table.id.0,
                rid,
                before: before.clone(),
            })?;
            log.note_undo(Undo::Delete { table: table.id.0, rid, before });
        }
        n += 1;
    }
    Ok(n)
}

/// Update matching rows with SET assignments (column index, expression over
/// the table layout); returns the number updated.
pub fn update_rows(
    ctx: &ExecContext,
    table: &Arc<TableInfo>,
    sets: &[(usize, Expr)],
    predicate: &Option<Expr>,
    log: Option<&DmlLog<'_>>,
) -> EngineResult<u64> {
    let victims = matching_rids(ctx, table, predicate)?;
    let indexes = ctx.catalog.indexes_for(table.id);
    let mut n = 0;
    for (rid, old) in victims {
        let mut vals: Vec<Value> = old.values().to_vec();
        for (col, e) in sets {
            if *col >= vals.len() {
                return Err(EngineError::Internal(format!("SET column {col} out of range")));
            }
            vals[*col] = eval(e, &old)?;
        }
        let new = Tuple::new(vals);
        table.schema.validate(&new)?;
        let old_part = table.heap.partition_of(&old);
        let new_part = table.heap.partition_of(&new);
        let before = old.encode();
        // An update is delete + insert, versioned the same way: old image
        // becomes a dead version, new image gets a Pending stamp.
        if let Some(xid) = log.and_then(|l| l.versioned()) {
            table.versions.note_delete(rid, before.clone(), xid);
        }
        table.heap.delete(rid)?;
        let new_rid = match log.and_then(|l| l.versioned()) {
            Some(xid) => {
                table.heap.insert_routed_with(&new, |r| table.versions.note_insert(r, xid))?.1
            }
            None => table.heap.insert(&new)?,
        };
        for ix in &indexes {
            if let Some(k) = old.get(ix.column).as_int() {
                ix.delete(old_part, k, rid)?;
            }
            if let Some(k) = new.get(ix.column).as_int() {
                ix.insert(new_part, k, new_rid)?;
            }
        }
        if let Some(log) = log {
            log.wal.append(&LogRecord::Delete {
                xid: log.xid,
                table: table.id.0,
                rid,
                before: before.clone(),
            })?;
            log.wal.append(&LogRecord::Insert {
                xid: log.xid,
                table: table.id.0,
                rid: new_rid,
                bytes: new.encode(),
            })?;
            // Forward order Delete-then-Insert; rollback walks the undo log
            // in reverse, so it removes the new image before restoring the
            // old one.
            log.note_undo(Undo::Delete { table: table.id.0, rid, before });
            log.note_undo(Undo::Insert { table: table.id.0, rid: new_rid });
        }
        n += 1;
    }
    Ok(n)
}

/// Replay a stream of WAL records belonging to *committed* transactions
/// into the catalog. A first pass over `records` collects the xids with a
/// `Commit` record; the replay pass skips every record of an uncommitted
/// or aborted transaction, so a crash between `Begin` and `Commit` erases
/// that transaction entirely. Inserts re-route through the hash
/// partitioner and rebuild per-partition index entries.
///
/// Addresses in the log are *capture-time* addresses: `table_map`
/// translates table ids (identity where absent) and `rid_map` translates
/// rids. Checkpointed recovery seeds both from
/// [`RestoreMaps`](staged_storage::snapshot::RestoreMaps), which is what
/// lets a tail-replayed `Delete` find a row that was restored from the
/// snapshot rather than inserted during replay; plain full-log redo starts
/// them empty. The maps are keyed by the ids *written in the log*, and
/// `rid_map` is extended as inserts replay.
///
/// Returns the number of records applied.
pub fn apply_records(
    ctx: &ExecContext,
    records: &[(Lsn, LogRecord)],
    rid_map: &mut HashMap<(u32, Rid), Rid>,
    table_map: &HashMap<u32, u32>,
) -> EngineResult<u64> {
    let committed: HashSet<u64> = records
        .iter()
        .filter_map(|(_, r)| match r {
            LogRecord::Commit { xid } => Some(*xid),
            _ => None,
        })
        .collect();
    let mut applied = 0u64;
    for (_, rec) in records {
        if !committed.contains(&rec.xid()) {
            continue;
        }
        match rec {
            LogRecord::Insert { table, rid, bytes, .. } => {
                let target = table_map.get(table).copied().unwrap_or(*table);
                let info = ctx.catalog.table_by_id(staged_storage::catalog::TableId(target))?;
                let row = Tuple::decode(bytes)?;
                let (part, new_rid) = info.heap.insert_routed(&row)?;
                for ix in ctx.catalog.indexes_for(info.id) {
                    if let Some(k) = row.get(ix.column).as_int() {
                        ix.insert(part, k, new_rid)?;
                    }
                }
                rid_map.insert((*table, *rid), new_rid);
                applied += 1;
            }
            LogRecord::Delete { table, rid, .. } => {
                let target = table_map.get(table).copied().unwrap_or(*table);
                let info = ctx.catalog.table_by_id(staged_storage::catalog::TableId(target))?;
                let new_rid = match rid_map.remove(&(*table, *rid)) {
                    Some(r) => r,
                    // A delete of a row whose insert predates the log's
                    // start (and isn't in a seeded snapshot map); nothing
                    // to redo.
                    None => continue,
                };
                let row = info.heap.get(new_rid)?;
                let part = info.heap.partition_of(&row);
                info.heap.delete(new_rid)?;
                for ix in ctx.catalog.indexes_for(info.id) {
                    if let Some(k) = row.get(ix.column).as_int() {
                        ix.delete(part, k, new_rid)?;
                    }
                }
                applied += 1;
            }
            LogRecord::Begin { .. } | LogRecord::Commit { .. } | LogRecord::Abort { .. } => {}
        }
    }
    Ok(applied)
}

/// Redo recovery over the *whole* log: strict read (any corruption is an
/// error, never a panic), then [`apply_records`] with empty address maps
/// into the catalog's (freshly re-created, empty) tables. Checkpointed
/// recovery lives in [`crate::checkpoint::recover`], which replays only
/// the tail above the snapshot LSN.
///
/// Returns the number of records applied.
pub fn redo(ctx: &ExecContext, wal: &Wal) -> EngineResult<u64> {
    let records = wal.read_all()?;
    let mut rid_map = HashMap::new();
    apply_records(ctx, &records, &mut rid_map, &HashMap::new())
}

/// Apply the records of *one committed transaction* with MVCC version
/// tracking — the replica apply path. Unlike [`apply_records`] (whose
/// bare inserts are instantly visible, fine for offline recovery but a
/// torn read waiting to happen under live readers), every heap change is
/// stamped Pending under the transaction's xid while it lands, and
/// visibility flips atomically through the catalog's commit oracle —
/// the same discipline `TxnManager::commit` follows. Snapshot sessions
/// pinned on a replica therefore see the whole transaction or none of it.
///
/// `records` must be the complete record run of a single transaction
/// (its `Begin`/`Commit` markers are tolerated and skipped); `rid_map`
/// translates primary rids to local rids exactly as in [`apply_records`]
/// and is extended as inserts land.
///
/// Returns the number of records applied.
pub fn apply_versioned_txn(
    ctx: &ExecContext,
    records: &[LogRecord],
    rid_map: &mut HashMap<(u32, Rid), Rid>,
) -> EngineResult<u64> {
    let Some(xid) = records.first().map(|r| r.xid()) else {
        return Ok(0);
    };
    let mut touched: HashMap<u32, Arc<TableInfo>> = HashMap::new();
    let mut applied = 0u64;
    for rec in records {
        if rec.xid() != xid {
            return Err(EngineError::Internal(format!(
                "apply_versioned_txn: mixed xids {xid} and {}",
                rec.xid()
            )));
        }
        match rec {
            LogRecord::Insert { table, rid, bytes, .. } => {
                let info = ctx.catalog.table_by_id(staged_storage::catalog::TableId(*table))?;
                let row = Tuple::decode(bytes)?;
                let (part, new_rid) =
                    info.heap.insert_routed_with(&row, |r| info.versions.note_insert(r, xid))?;
                for ix in ctx.catalog.indexes_for(info.id) {
                    if let Some(k) = row.get(ix.column).as_int() {
                        ix.insert(part, k, new_rid)?;
                    }
                }
                rid_map.insert((*table, *rid), new_rid);
                touched.insert(*table, info);
                applied += 1;
            }
            LogRecord::Delete { table, rid, before, .. } => {
                let info = ctx.catalog.table_by_id(staged_storage::catalog::TableId(*table))?;
                let new_rid = match rid_map.remove(&(*table, *rid)) {
                    Some(r) => r,
                    None => continue,
                };
                let row = info.heap.get(new_rid)?;
                let part = info.heap.partition_of(&row);
                // Dead version registered before the heap delete, so a
                // concurrent snapshot reader either still sees the live
                // row or finds the dead version — never neither.
                info.versions.note_delete(new_rid, before.clone(), xid);
                info.heap.delete(new_rid)?;
                for ix in ctx.catalog.indexes_for(info.id) {
                    if let Some(k) = row.get(ix.column).as_int() {
                        ix.delete(part, k, new_rid)?;
                    }
                }
                touched.insert(*table, info);
                applied += 1;
            }
            LogRecord::Begin { .. } | LogRecord::Commit { .. } | LogRecord::Abort { .. } => {}
        }
    }
    // The atomic visibility flip: inside the oracle's publish section, so
    // a reader's snapshot either predates the whole transaction or covers
    // all of it.
    ctx.catalog.oracle().commit(|ts| {
        for info in touched.values() {
            info.versions.commit(xid, ts);
        }
    });
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_sql::ast::{BinOp, ColumnRef};
    use staged_storage::{BufferPool, Catalog, Column, DataType, MemDisk, PageId, Schema};

    fn setup() -> (ExecContext, Arc<TableInfo>) {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 256);
        let catalog = Arc::new(Catalog::new(pool));
        let t = catalog
            .create_table(
                "t",
                Schema::new(vec![
                    Column::new("id", DataType::Int),
                    Column::new("v", DataType::Int),
                ]),
            )
            .unwrap();
        catalog.create_index("t_id", "t", "id").unwrap();
        (ExecContext::new(catalog), t)
    }

    fn col(i: usize) -> Expr {
        Expr::Column(ColumnRef { table: None, name: format!("#{i}"), index: Some(i) })
    }

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 2)])).collect()
    }

    #[test]
    fn insert_maintains_index() {
        let (ctx, t) = setup();
        assert_eq!(insert_rows(&ctx, &t, rows(100), None).unwrap(), 100);
        let ix = ctx.catalog.index_on(t.id, 0).unwrap();
        assert_eq!(ix.search(42).unwrap().len(), 1);
        assert_eq!(t.heap.count().unwrap(), 100);
    }

    #[test]
    fn delete_with_predicate_uses_index_and_cleans_it() {
        let (ctx, t) = setup();
        insert_rows(&ctx, &t, rows(100), None).unwrap();
        ctx.catalog.analyze_table("t").unwrap();
        let pred = Some(Expr::binary(col(0), BinOp::Eq, Expr::int(7)));
        assert_eq!(delete_rows(&ctx, &t, &pred, None).unwrap(), 1);
        let ix = ctx.catalog.index_on(t.id, 0).unwrap();
        assert!(ix.search(7).unwrap().is_empty());
        assert_eq!(t.heap.count().unwrap(), 99);
    }

    #[test]
    fn update_rewrites_values_and_index() {
        let (ctx, t) = setup();
        insert_rows(&ctx, &t, rows(10), None).unwrap();
        let pred = Some(Expr::binary(col(0), BinOp::Eq, Expr::int(3)));
        let sets = vec![
            (0usize, Expr::int(333)),
            (1usize, Expr::binary(col(1), BinOp::Add, Expr::int(1))),
        ];
        assert_eq!(update_rows(&ctx, &t, &sets, &pred, None).unwrap(), 1);
        let ix = ctx.catalog.index_on(t.id, 0).unwrap();
        assert!(ix.search(3).unwrap().is_empty());
        let hits = ix.search(333).unwrap();
        assert_eq!(hits.len(), 1);
        let row = t.heap.get(hits[0]).unwrap();
        assert_eq!(row.values(), &[Value::Int(333), Value::Int(7)]);
    }

    #[test]
    fn partitioned_dml_maintains_per_partition_indexes() {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 256);
        let catalog = Arc::new(Catalog::new(pool));
        let t = catalog
            .create_table_partitioned(
                "t",
                Schema::new(vec![
                    Column::new("id", DataType::Int),
                    Column::new("v", DataType::Int),
                ]),
                4,
                0,
            )
            .unwrap();
        catalog.create_index("t_id", "t", "id").unwrap();
        let ctx = ExecContext::new(Arc::clone(&catalog));
        insert_rows(&ctx, &t, rows(100), None).unwrap();
        ctx.catalog.analyze_table("t").unwrap();
        let ix = ctx.catalog.index_on(t.id, 0).unwrap();
        // Keyed delete prunes to one partition and cleans its tree.
        let pred = Some(Expr::binary(col(0), BinOp::Eq, Expr::int(7)));
        assert_eq!(delete_rows(&ctx, &t, &pred, None).unwrap(), 1);
        assert!(ix.search(7).unwrap().is_empty());
        // Keyed update moves the row (and its index entry) to the new
        // key's partition.
        let pred = Some(Expr::binary(col(0), BinOp::Eq, Expr::int(9)));
        let sets = vec![(0usize, Expr::int(900))];
        assert_eq!(update_rows(&ctx, &t, &sets, &pred, None).unwrap(), 1);
        assert!(ix.search(9).unwrap().is_empty());
        let p = staged_storage::partition_of_value(&Value::Int(900), 4);
        assert_eq!(ix.btree_for(p).search(900).unwrap().len(), 1);
        assert_eq!(t.heap.count().unwrap(), 99);
    }

    #[test]
    fn schema_violations_are_rejected() {
        let (ctx, t) = setup();
        let bad = vec![Tuple::new(vec![Value::Str("no".into()), Value::Int(0)])];
        assert!(insert_rows(&ctx, &t, bad, None).is_err());
    }

    #[test]
    fn wal_records_dml() {
        let (ctx, t) = setup();
        let wal = Wal::in_memory();
        let log = DmlLog::wal_only(&wal, 9);
        insert_rows(&ctx, &t, rows(3), Some(&log)).unwrap();
        delete_rows(&ctx, &t, &None, Some(&log)).unwrap();
        wal.flush().unwrap();
        let recs = wal.read_all().unwrap();
        let inserts = recs.iter().filter(|(_, r)| matches!(r, LogRecord::Insert { .. })).count();
        let deletes = recs.iter().filter(|(_, r)| matches!(r, LogRecord::Delete { .. })).count();
        assert_eq!(inserts, 3);
        assert_eq!(deletes, 3);
        // Delete records carry the before-image of what they destroyed.
        for (_, r) in &recs {
            if let LogRecord::Delete { before, .. } = r {
                let row = Tuple::decode(before).unwrap();
                assert_eq!(row.values().len(), 2);
            }
        }
    }

    #[test]
    fn versioned_apply_lands_rows_and_advances_the_oracle() {
        let (ctx, t) = setup();
        let row = |i: i64| Tuple::new(vec![Value::Int(i), Value::Int(i * 2)]).encode();
        let recs = vec![
            LogRecord::Begin { xid: 7 },
            LogRecord::Insert { xid: 7, table: t.id.0, rid: Rid::new(PageId(1), 0), bytes: row(1) },
            LogRecord::Insert { xid: 7, table: t.id.0, rid: Rid::new(PageId(1), 1), bytes: row(2) },
            LogRecord::Delete {
                xid: 7,
                table: t.id.0,
                rid: Rid::new(PageId(1), 0),
                before: row(1),
            },
            LogRecord::Commit { xid: 7 },
        ];
        let before_ts = ctx.catalog.oracle().latest();
        let mut rid_map = HashMap::new();
        assert_eq!(apply_versioned_txn(&ctx, &recs, &mut rid_map).unwrap(), 3);
        assert_eq!(t.heap.count().unwrap(), 1);
        assert!(ctx.catalog.oracle().latest() > before_ts, "commit must advance the oracle");
        // The surviving row is fully committed: no Pending stamps remain.
        assert_eq!(t.versions.stats().pending_txns, 0);
        // Mixed xids in one run are a caller bug, not silently applied.
        let mixed = vec![LogRecord::Begin { xid: 1 }, LogRecord::Commit { xid: 2 }];
        assert!(apply_versioned_txn(&ctx, &mixed, &mut rid_map).is_err());
    }

    #[test]
    fn redo_skips_uncommitted_and_aborted_transactions() {
        let (ctx, t) = setup();
        let wal = Wal::in_memory();
        // xid 1 commits, xid 2 aborts, xid 3 crashes mid-flight.
        wal.append(&LogRecord::Begin { xid: 1 }).unwrap();
        insert_rows(&ctx, &t, rows(5), Some(&DmlLog::wal_only(&wal, 1))).unwrap();
        wal.append(&LogRecord::Commit { xid: 1 }).unwrap();
        wal.append(&LogRecord::Begin { xid: 2 }).unwrap();
        let aborted: Vec<Tuple> =
            (100..105).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(0)])).collect();
        insert_rows(&ctx, &t, aborted, Some(&DmlLog::wal_only(&wal, 2))).unwrap();
        wal.append(&LogRecord::Abort { xid: 2 }).unwrap();
        wal.append(&LogRecord::Begin { xid: 3 }).unwrap();
        let inflight: Vec<Tuple> =
            (200..203).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(0)])).collect();
        insert_rows(&ctx, &t, inflight, Some(&DmlLog::wal_only(&wal, 3))).unwrap();
        wal.flush().unwrap();

        let (ctx2, t2) = setup();
        let applied = redo(&ctx2, &wal).unwrap();
        assert_eq!(applied, 5, "only xid 1's records replay");
        let ids: Vec<i64> = t2.heap.scan().map(|r| r.unwrap().1.get(0).as_int().unwrap()).collect();
        assert_eq!(ids.len(), 5);
        assert!(ids.iter().all(|i| *i < 5), "uncommitted rows leaked into redo: {ids:?}");
    }
}
