//! The transaction subsystem: a transaction manager over a partition-
//! granular lock table, giving the staged server its lock-manager stage.
//!
//! Design (DESIGN.md §9):
//! - **Strict two-phase locking.** DML acquires exclusive locks on the
//!   partitions it writes (whole table = all partitions) before touching
//!   the heap, and holds them until commit/abort. Deadlocks resolve by
//!   timeout-abort in [`lock::LockTable`].
//! - **Undo via before-images.** Every WAL-logged heap change also pushes
//!   an [`Undo`] entry into the transaction's in-memory undo log; `ROLLBACK`
//!   replays it in reverse, restoring heap *and* per-partition index state.
//! - **Atomic commit.** `COMMIT` appends a `Commit` record, which forces
//!   the log to disk; redo recovery ([`crate::dml::redo`]) replays only
//!   transactions whose commit record is durable, so a crash between
//!   `Begin` and `Commit` erases the transaction.

pub mod lock;

pub use lock::{LockError, LockKey, LockMode, LockTable};

use crate::context::ExecContext;
use crate::error::{EngineError, EngineResult};
use parking_lot::Mutex;
use staged_storage::catalog::TableId;
use staged_storage::wal::{LogRecord, Wal};
use staged_storage::{CommitOracle, Rid, Tuple};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One entry of a transaction's in-memory undo log.
#[derive(Debug, Clone)]
pub enum Undo {
    /// The transaction inserted a row at `rid`; undo deletes it (and its
    /// index entries).
    Insert {
        /// Table the row went into.
        table: u32,
        /// Where it landed.
        rid: Rid,
    },
    /// The transaction deleted a row; undo re-inserts the before-image
    /// (re-routed through the hash partitioner, indexes restored).
    Delete {
        /// Table the row was removed from.
        table: u32,
        /// Where it lived when the transaction deleted it. Undo may
        /// re-insert it elsewhere; the rollback keeps a remap so earlier
        /// undo entries referencing this rid still find the row.
        rid: Rid,
        /// Encoded before-image.
        before: Vec<u8>,
    },
}

#[derive(Default)]
struct TxnState {
    undo: Vec<Undo>,
}

/// The transaction manager: xid allocation, per-transaction undo logs, and
/// the shared [`LockTable`]. One instance per server (both engines of a
/// server share it, so their transactions interleave correctly).
#[derive(Default)]
pub struct TxnManager {
    locks: LockTable,
    next_xid: AtomicU64,
    active: Mutex<HashMap<u64, TxnState>>,
    oracle: Arc<CommitOracle>,
}

impl TxnManager {
    /// A fresh manager; xids start at 1 (0 is the "no transaction" xid).
    pub fn new() -> Self {
        Self::with_oracle(CommitOracle::new())
    }

    /// A fresh manager stamping commits against an existing `oracle` —
    /// use the catalog's so every manager over the same tables shares
    /// one commit clock (see `Catalog::oracle`).
    pub fn with_oracle(oracle: Arc<CommitOracle>) -> Self {
        Self {
            locks: LockTable::new(),
            next_xid: AtomicU64::new(1),
            active: Mutex::new(HashMap::new()),
            oracle,
        }
    }

    /// The lock table (the lock-manager stage's data structure).
    pub fn locks(&self) -> &LockTable {
        &self.locks
    }

    /// The commit-timestamp oracle. Readers pin snapshots here; commits
    /// advance it.
    pub fn oracle(&self) -> &Arc<CommitOracle> {
        &self.oracle
    }

    /// Start a transaction: allocate an xid and log `Begin`.
    pub fn begin(&self, wal: &Wal) -> EngineResult<u64> {
        let xid = self.next_xid.fetch_add(1, Ordering::Relaxed);
        self.active.lock().insert(xid, TxnState::default());
        if let Err(e) = wal.append(&LogRecord::Begin { xid }) {
            // Never begun: a stale entry would hold the checkpoint's
            // quiesce and the GC horizon back forever.
            self.active.lock().remove(&xid);
            return Err(e.into());
        }
        Ok(xid)
    }

    /// True while `xid` is live (begun, not yet committed/aborted).
    pub fn is_active(&self, xid: u64) -> bool {
        self.active.lock().contains_key(&xid)
    }

    /// Number of live transactions.
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }

    /// The xids of every live transaction (the version GC's liveness set;
    /// only meaningful while writers are quiesced, since a transaction can
    /// begin the instant the lock drops).
    pub fn active_xids(&self) -> HashSet<u64> {
        self.active.lock().keys().copied().collect()
    }

    /// Append an undo entry to a live transaction (no-op for finished or
    /// unknown xids, so non-transactional callers can pass xid 0).
    pub fn record_undo(&self, xid: u64, undo: Undo) {
        if let Some(state) = self.active.lock().get_mut(&xid) {
            state.undo.push(undo);
        }
    }

    /// Commit: force the `Commit` record to the log disk (the atomic
    /// commit point), then release every lock. If the commit record cannot
    /// be made durable the transaction rolls back instead — in-memory
    /// state must never show effects that recovery would erase.
    pub fn commit(&self, xid: u64, ctx: &ExecContext, wal: &Wal) -> EngineResult<()> {
        let state = self.active.lock().remove(&xid);
        let Some(state) = state else {
            return Err(EngineError::Txn(format!("commit of unknown xid {xid}")));
        };
        match wal.append(&LogRecord::Commit { xid }) {
            Ok(_) => {
                // Publish the transaction's versions: allocate the commit
                // timestamp and flip its Pending overlay entries inside the
                // oracle's critical section, *before* releasing locks —
                // once another writer can touch these partitions, readers
                // must already agree on what this transaction changed.
                let tables = touched_tables(&state.undo);
                if !tables.is_empty() {
                    self.oracle.commit(|ts| {
                        for t in &tables {
                            if let Ok(info) = ctx.catalog.table_by_id(TableId(*t)) {
                                info.versions.commit(xid, ts);
                            }
                        }
                    });
                }
                self.locks.release_all(xid);
                Ok(())
            }
            Err(e) => {
                let undo_res = self.apply_undo(&state.undo, ctx);
                self.drop_version_pendings(xid, &state.undo, ctx);
                self.locks.release_all(xid);
                undo_res?;
                Err(EngineError::Txn(format!("commit of xid {xid} failed, rolled back: {e}")))
            }
        }
    }

    /// Roll back: apply the undo log in reverse (restoring heap contents
    /// and per-partition index entries), log `Abort`, release locks.
    /// Returns the number of undo entries applied.
    pub fn rollback(&self, xid: u64, ctx: &ExecContext, wal: &Wal) -> EngineResult<u64> {
        let state = self.active.lock().remove(&xid);
        let Some(state) = state else {
            return Err(EngineError::Txn(format!("rollback of unknown xid {xid}")));
        };
        let result = self.apply_undo(&state.undo, ctx);
        self.drop_version_pendings(xid, &state.undo, ctx);
        // Locks release and the Abort record land even if an undo step
        // failed — a wedged lock table would be strictly worse.
        let wal_res = wal.append(&LogRecord::Abort { xid }).and_then(|_| wal.flush());
        self.locks.release_all(xid);
        let applied = result?;
        wal_res?;
        Ok(applied)
    }

    fn apply_undo(&self, undo: &[Undo], ctx: &ExecContext) -> EngineResult<u64> {
        // When a transaction touches the same logical row more than once
        // (update then delete), the row's rid at undo time differs from
        // the rid recorded earlier: undoing the delete re-inserts the row
        // wherever the heap has space. The remap tracks those moves so
        // older undo entries still resolve to the live copy.
        let mut remap: HashMap<(u32, Rid), Rid> = HashMap::new();
        let mut applied = 0u64;
        for entry in undo.iter().rev() {
            match entry {
                Undo::Insert { table, rid } => {
                    let rid = remap.remove(&(*table, *rid)).unwrap_or(*rid);
                    let info = ctx.catalog.table_by_id(TableId(*table))?;
                    let row = info.heap.get(rid)?;
                    let part = info.heap.partition_of(&row);
                    info.heap.delete(rid)?;
                    for ix in ctx.catalog.indexes_for(info.id) {
                        if let Some(k) = row.get(ix.column).as_int() {
                            ix.delete(part, k, rid)?;
                        }
                    }
                }
                Undo::Delete { table, rid, before } => {
                    let info = ctx.catalog.table_by_id(TableId(*table))?;
                    let row = Tuple::decode(before)?;
                    // Re-insert the before-image, anchoring the new copy to
                    // the dead version at the old rid: the twin stays
                    // invisible (a concurrent snapshot scan may already
                    // have passed its page) and readers keep finding the
                    // row through the dead version until GC collapses the
                    // pair.
                    let old = *rid;
                    let versions = Arc::clone(&info.versions);
                    let (part, new_rid) =
                        info.heap.insert_routed_with(&row, |nr| versions.note_restore(old, nr))?;
                    for ix in ctx.catalog.indexes_for(info.id) {
                        if let Some(k) = row.get(ix.column).as_int() {
                            ix.insert(part, k, new_rid)?;
                        }
                    }
                    if new_rid != *rid {
                        remap.insert((*table, *rid), new_rid);
                    }
                }
            }
            applied += 1;
        }
        Ok(applied)
    }

    /// After undo, drop the aborted transaction's flip handles in every
    /// overlay it touched. The overlay entries themselves stay (see
    /// [`staged_storage::VersionStore::abort`]); GC reaps them.
    fn drop_version_pendings(&self, xid: u64, undo: &[Undo], ctx: &ExecContext) {
        for t in touched_tables(undo) {
            if let Ok(info) = ctx.catalog.table_by_id(TableId(t)) {
                info.versions.abort(xid);
            }
        }
    }
}

/// Unique table ids appearing in an undo log.
fn touched_tables(undo: &[Undo]) -> Vec<u32> {
    let mut tables: Vec<u32> = undo
        .iter()
        .map(|u| match u {
            Undo::Insert { table, .. } | Undo::Delete { table, .. } => *table,
        })
        .collect();
    tables.sort_unstable();
    tables.dedup();
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dml::{self, DmlLog};
    use staged_sql::ast::{BinOp, ColumnRef, Expr};
    use staged_storage::{BufferPool, Catalog, Column, DataType, MemDisk, Schema, Value};
    use std::sync::Arc;

    fn setup(parts: usize) -> (ExecContext, Arc<staged_storage::catalog::TableInfo>, Wal) {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 256);
        let catalog = Arc::new(Catalog::new(pool));
        let t = catalog
            .create_table_partitioned(
                "t",
                Schema::new(vec![
                    Column::new("id", DataType::Int),
                    Column::new("v", DataType::Int),
                ]),
                parts,
                0,
            )
            .unwrap();
        catalog.create_index("t_id", "t", "id").unwrap();
        (ExecContext::new(catalog), t, Wal::in_memory())
    }

    fn rows(lo: i64, hi: i64) -> Vec<Tuple> {
        (lo..hi).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 10)])).collect()
    }

    fn content(t: &staged_storage::catalog::TableInfo) -> Vec<Vec<Vec<u8>>> {
        (0..t.heap.partitions())
            .map(|p| {
                let mut v: Vec<Vec<u8>> =
                    t.heap.scan_partition(p).map(|r| r.unwrap().1.encode()).collect();
                v.sort();
                v
            })
            .collect()
    }

    fn eq_pred(col: usize, v: i64) -> Option<Expr> {
        Some(Expr::binary(
            Expr::Column(ColumnRef { table: None, name: format!("#{col}"), index: Some(col) }),
            BinOp::Eq,
            Expr::int(v),
        ))
    }

    #[test]
    fn rollback_restores_heap_and_indexes_across_partition_counts() {
        for parts in [1usize, 2, 4] {
            let (ctx, t, wal) = setup(parts);
            let mgr = TxnManager::new();
            let base = mgr.begin(&wal).unwrap();
            dml::insert_rows(&ctx, &t, rows(0, 40), Some(&DmlLog::txn(&wal, base, &mgr))).unwrap();
            mgr.commit(base, &ctx, &wal).unwrap();
            let before = content(&t);

            let xid = mgr.begin(&wal).unwrap();
            let log = DmlLog::txn(&wal, xid, &mgr);
            dml::insert_rows(&ctx, &t, rows(100, 120), Some(&log)).unwrap();
            dml::delete_rows(&ctx, &t, &eq_pred(0, 7), Some(&log)).unwrap();
            dml::update_rows(&ctx, &t, &[(1, Expr::int(-1))], &eq_pred(0, 9), Some(&log)).unwrap();
            assert_ne!(content(&t), before, "txn must have visibly mutated the table");

            let undone = mgr.rollback(xid, &ctx, &wal).unwrap();
            assert!(undone >= 23, "insert 20 + delete 1 + update 2, got {undone}");
            assert_eq!(content(&t), before, "{parts}-partition rollback not byte-identical");
            // Index state restored too.
            let ix = ctx.catalog.index_on(t.id, 0).unwrap();
            assert_eq!(ix.search(7).unwrap().len(), 1, "deleted row's index entry restored");
            assert!(ix.search(100).unwrap().is_empty(), "inserted row's index entry removed");
            assert_eq!(mgr.locks().held_by(xid), 0);
            assert!(!mgr.is_active(xid));
        }
    }

    #[test]
    fn commit_releases_locks_and_forces_flush() {
        let (ctx, _t, wal) = setup(1);
        let mgr = TxnManager::new();
        let xid = mgr.begin(&wal).unwrap();
        assert!(mgr.locks().try_lock(xid, LockKey::new(0, 0), LockMode::Exclusive));
        mgr.commit(xid, &ctx, &wal).unwrap();
        assert_eq!(mgr.locks().held_by(xid), 0);
        assert!(!mgr.is_active(xid));
        assert!(wal.committed_xids().unwrap().contains(&xid));
        // Double-commit is a loud error, not corruption.
        assert!(matches!(mgr.commit(xid, &ctx, &wal), Err(EngineError::Txn(_))));
    }

    #[test]
    fn rollback_of_unknown_xid_errors() {
        let (ctx, _t, wal) = setup(1);
        let mgr = TxnManager::new();
        assert!(matches!(mgr.rollback(99, &ctx, &wal), Err(EngineError::Txn(_))));
    }

    #[test]
    fn record_undo_ignores_finished_xids() {
        let (ctx, _t, wal) = setup(1);
        let mgr = TxnManager::new();
        let xid = mgr.begin(&wal).unwrap();
        mgr.commit(xid, &ctx, &wal).unwrap();
        mgr.record_undo(
            xid,
            Undo::Insert { table: 0, rid: Rid::new(staged_storage::PageId(0), 0) },
        );
        assert_eq!(mgr.active_count(), 0);
    }
}
