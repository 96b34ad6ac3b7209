//! Multi-version concurrency control: a per-table version overlay and the
//! commit-timestamp oracle.
//!
//! The heap stays single-version — exactly the bytes the WAL and snapshots
//! describe (PR 7's recovery path remains byte-honest). Versioning lives in
//! an in-memory overlay per table (a [`VersionStore`]) that records, for
//! rows touched by in-flight or recently committed transactions, *when* each
//! row became visible and *when* it stopped being visible. A scan holding a
//! [`ReadView`] filters every page it decodes through the overlay: live rows
//! whose creation the view cannot see are dropped, and dead versions (the
//! before-images of deleted rows) the view can still see are merged back in.
//! A row with no overlay entry is visible to everyone — the common case, and
//! the reason an idle overlay costs one atomic load per page.
//!
//! Timestamps come from the [`CommitOracle`]: a monotonic counter advanced
//! under a mutex at commit, with the visibility flip (`Pending(xid)` →
//! `At(ts)`) performed inside the same critical section so that "the latest
//! committed timestamp" and "which versions that timestamp can see" can
//! never disagree. Readers pin a snapshot with [`CommitOracle::pin`]; the
//! oldest pin bounds what the garbage collector may reclaim.
//!
//! The overlay is rebuilt empty at recovery (only committed data survives a
//! crash, and committed data is visible to everyone), and garbage-collected
//! at the checkpoint stage's quiesce point — see `engine::checkpoint`.
//!
//! Visibility rules, race analysis, and the GC protocol are documented in
//! `docs/CONCURRENCY.md`.

use crate::error::StorageResult;
use crate::page::PageId;
use crate::tuple::{Rid, Tuple};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A reader's view of the database: every version committed at or before
/// `ts` is visible, plus the reader's own uncommitted writes (`xid`).
///
/// `xid == 0` means "no transaction" (autocommit SELECTs and `BEGIN READ
/// ONLY` bindings): only committed state is visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadView {
    /// Snapshot timestamp: versions with commit ts `<= ts` are visible.
    pub ts: u64,
    /// The reading transaction's id, or 0 for none. A transaction always
    /// sees its own pending writes.
    pub xid: u64,
}

impl ReadView {
    /// Construct a view.
    pub fn new(ts: u64, xid: u64) -> Self {
        Self { ts, xid }
    }
}

/// When a row version came into existence.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Begin {
    /// Written by a still-uncommitted transaction; visible only to it.
    Pending(u64),
    /// Committed at this timestamp.
    At(u64),
    /// A live twin created by rollback re-inserting a deleted row. Never
    /// visible directly — readers see the row through the anchor dead
    /// version at the original rid until GC collapses the pair.
    Restored(Rid),
}

/// When a row version stopped existing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    /// Deleted by a still-uncommitted transaction; the deletion is visible
    /// only to that transaction.
    Pending(u64),
    /// Deletion committed at this timestamp.
    At(u64),
}

/// The before-image of a deleted row, kept so older snapshots can still
/// read it.
#[derive(Debug)]
struct DeadVersion {
    /// The rid the row occupied (slots are never reused, so the rid
    /// uniquely names this version forever).
    rid: Rid,
    /// Encoded tuple bytes at deletion time.
    bytes: Vec<u8>,
    /// Creation stamp of the row when it was deleted (`None` = predates
    /// the overlay, visible to every snapshot).
    begin: Option<Begin>,
    /// Deletion stamp.
    end: End,
    /// Rid of the live twin a rollback re-inserted, if the deleting
    /// transaction aborted. GC collapses the pair once no snapshot is
    /// positioned mid-scan.
    restored: Option<Rid>,
}

/// Per-transaction handles to the overlay entries it must flip at commit.
#[derive(Default)]
struct PendingSet {
    /// Rids whose `created` entry is `Pending(xid)`.
    inserts: Vec<Rid>,
    /// Rids of dead versions whose `end` is `Pending(xid)`.
    deletes: Vec<Rid>,
}

#[derive(Default)]
struct Inner {
    /// Creation stamps for rows not yet visible-to-all. Absence means the
    /// row predates the overlay: visible to every snapshot.
    created: HashMap<Rid, Begin>,
    /// Dead versions grouped by the page the row lived on, so a page scan
    /// merges exactly its own page's versions.
    dead: HashMap<PageId, Vec<DeadVersion>>,
    /// In-flight transactions' flip handles.
    pending: HashMap<u64, PendingSet>,
    /// Total dead versions (maintained incrementally; sizes the fast path).
    dead_count: usize,
}

/// Counters the STATS command surfaces for one table's overlay.
#[derive(Debug, Clone, Copy, Default)]
pub struct VersionStats {
    /// Live rows with a tracked creation stamp.
    pub created: u64,
    /// Dead versions retained for older snapshots.
    pub dead: u64,
    /// Transactions with unflipped entries.
    pub pending_txns: u64,
}

/// Counters from one garbage-collection pass over one table's overlay.
#[derive(Debug, Clone, Copy, Default)]
pub struct VacuumStats {
    /// Dead versions reclaimed.
    pub dead_removed: u64,
    /// Creation stamps reclaimed (rows now visible-to-all).
    pub created_removed: u64,
    /// Rollback anchor pairs collapsed back to plain live rows.
    pub anchors_collapsed: u64,
}

impl VacuumStats {
    /// Accumulate another pass's counters.
    pub fn add(&mut self, other: VacuumStats) {
        self.dead_removed += other.dead_removed;
        self.created_removed += other.created_removed;
        self.anchors_collapsed += other.anchors_collapsed;
    }
}

/// One table's version overlay. See the module docs for the scheme.
#[derive(Default)]
pub struct VersionStore {
    inner: Mutex<Inner>,
    /// `created.len() + dead_count`, mirrored outside the lock: scans skip
    /// the lock entirely while the overlay is empty.
    entries: AtomicUsize,
    /// Lifetime dead versions reclaimed by GC.
    gc_dead: AtomicU64,
    /// Lifetime creation stamps reclaimed by GC.
    gc_created: AtomicU64,
}

fn begin_visible(begin: Option<&Begin>, view: ReadView) -> bool {
    match begin {
        None => true,
        Some(Begin::At(t)) => *t <= view.ts,
        Some(Begin::Pending(x)) => view.xid != 0 && *x == view.xid,
        Some(Begin::Restored(_)) => false,
    }
}

/// Does `view` see this deletion (and therefore *not* the dead version)?
fn end_hides(end: End, view: ReadView) -> bool {
    match end {
        End::At(t) => t <= view.ts,
        End::Pending(x) => view.xid != 0 && x == view.xid,
    }
}

/// Does `key` lie in the inclusive bounds `[lo, hi]` (`None` = unbounded)?
pub(crate) fn key_in_range(key: i64, lo: Option<i64>, hi: Option<i64>) -> bool {
    lo.is_none_or(|l| key >= l) && hi.is_none_or(|h| key <= h)
}

impl VersionStore {
    /// An empty overlay.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn publish_len(&self, inner: &Inner) {
        self.entries.store(inner.created.len() + inner.dead_count, Ordering::Release);
    }

    /// Record that `xid` inserted the row at `rid`.
    ///
    /// MUST be called from inside the page write latch that inserted the
    /// row (see `HeapFile::insert_with`): a reader decodes a page under the
    /// read latch *before* consulting the overlay, so registration must
    /// happen-before the row's bytes become readable or the reader could
    /// see an uncommitted row with no overlay entry.
    pub fn note_insert(&self, rid: Rid, xid: u64) {
        let mut inner = self.inner.lock();
        inner.created.insert(rid, Begin::Pending(xid));
        inner.pending.entry(xid).or_default().inserts.push(rid);
        self.publish_len(&inner);
    }

    /// Record that `xid` is deleting the row at `rid` whose encoded bytes
    /// are `bytes`.
    ///
    /// MUST be called *before* the heap delete: once registered, readers
    /// that miss the live row find the dead version; readers that still see
    /// the live row deduplicate against it (the overlay keeps the live
    /// row's creation stamp as a tombstone until GC).
    pub fn note_delete(&self, rid: Rid, bytes: Vec<u8>, xid: u64) {
        let mut inner = self.inner.lock();
        // Deleting a rollback-restored twin: the row's identity lives at
        // the anchor dead version. Re-point the anchor's end at this
        // deleter instead of minting a second version.
        if let Some(Begin::Restored(anchor)) = inner.created.get(&rid).cloned() {
            if let Some(list) = inner.dead.get_mut(&anchor.page) {
                if let Some(dv) = list.iter_mut().find(|d| d.rid == anchor) {
                    dv.end = End::Pending(xid);
                    dv.restored = None;
                    inner.pending.entry(xid).or_default().deletes.push(anchor);
                    return;
                }
            }
        }
        let begin = inner.created.get(&rid).cloned();
        let dv = DeadVersion { rid, bytes, begin, end: End::Pending(xid), restored: None };
        inner.dead.entry(rid.page).or_default().push(dv);
        inner.dead_count += 1;
        inner.pending.entry(xid).or_default().deletes.push(rid);
        self.publish_len(&inner);
    }

    /// Record that rollback re-inserted the row whose dead version sits at
    /// `old_rid`, landing the bytes at `new_rid`.
    ///
    /// The twin at `new_rid` is marked never-visible (`Begin::Restored`)
    /// and the dead version stays: a scan that already passed `new_rid`'s
    /// page still finds the row through the dead version at `old_rid`. GC
    /// collapses the pair once no snapshot is mid-scan.
    ///
    /// MUST be called from inside the page write latch of the re-insert.
    pub fn note_restore(&self, old_rid: Rid, new_rid: Rid) {
        let mut inner = self.inner.lock();
        // If the deleted row was itself a restored twin, its version
        // identity lives at the anchor (note_delete re-pointed the anchor's
        // end rather than minting a new dead version) — chase it so the
        // fresh twin anchors to the same place.
        let target = match inner.created.get(&old_rid) {
            Some(Begin::Restored(anchor)) => *anchor,
            _ => old_rid,
        };
        let Some(list) = inner.dead.get_mut(&target.page) else { return };
        let Some(dv) = list.iter_mut().find(|d| d.rid == target) else { return };
        dv.restored = Some(new_rid);
        inner.created.insert(new_rid, Begin::Restored(target));
        self.publish_len(&inner);
    }

    /// Flip all of `xid`'s pending entries to committed-at-`ts`.
    ///
    /// MUST be called from inside [`CommitOracle::commit`]'s critical
    /// section (its `publish` callback) so the flip and the advance of
    /// `latest` are atomic with respect to readers pinning snapshots.
    pub fn commit(&self, xid: u64, ts: u64) {
        let mut inner = self.inner.lock();
        let Some(set) = inner.pending.remove(&xid) else { return };
        for rid in set.inserts {
            if inner.created.get(&rid) == Some(&Begin::Pending(xid)) {
                inner.created.insert(rid, Begin::At(ts));
            }
        }
        for rid in set.deletes {
            if let Some(list) = inner.dead.get_mut(&rid.page) {
                if let Some(dv) = list.iter_mut().find(|d| d.rid == rid) {
                    if dv.end == End::Pending(xid) {
                        dv.end = End::At(ts);
                    }
                }
            }
        }
    }

    /// Drop `xid`'s flip handles after its undo log has been applied.
    ///
    /// The entries themselves stay: a `Pending(xid)` creation stamp keeps
    /// the (now heap-deleted) row invisible if a racing reader decoded it
    /// before the undo removed it, and a `Pending(xid)` deletion stamp on a
    /// dead version reads as "never deleted", which is exactly what a
    /// rolled-back delete means. GC reclaims them once `xid` is gone.
    pub fn abort(&self, xid: u64) {
        self.inner.lock().pending.remove(&xid);
    }

    /// Filter one decoded page through the overlay for `view`.
    ///
    /// `rows` holds the page's live rows as `(rid, tuple)` in slot order;
    /// on return it holds exactly the rows `view` can see (live rows whose
    /// creation is visible, plus merged dead versions whose deletion is
    /// not), again in slot order. `cols` is the scan's column pruning and
    /// is applied when decoding dead versions.
    pub fn filter_page(
        &self,
        view: ReadView,
        page: PageId,
        rows: &mut Vec<(Rid, Tuple)>,
        cols: Option<&[usize]>,
    ) -> StorageResult<()> {
        if self.entries.load(Ordering::Acquire) == 0 {
            return Ok(());
        }
        let inner = self.inner.lock();
        rows.retain(|(rid, _)| begin_visible(inner.created.get(rid), view));
        if let Some(list) = inner.dead.get(&page) {
            let mut merged = false;
            for dv in list {
                // A dead version whose live row is still on the page (the
                // register-then-delete window) would double-count: the live
                // copy already represents the row for views that see it.
                if rows.iter().any(|(rid, _)| *rid == dv.rid) {
                    continue;
                }
                if begin_visible(dv.begin.as_ref(), view) && !end_hides(dv.end, view) {
                    let tuple = match cols {
                        Some(c) => Tuple::decode_columns(&dv.bytes, c)?,
                        None => Tuple::decode(&dv.bytes)?,
                    };
                    rows.push((dv.rid, tuple));
                    merged = true;
                }
            }
            if merged {
                rows.sort_by_key(|(rid, _)| rid.slot);
            }
        }
        Ok(())
    }

    /// Filter an index probe's fetched rows for `view` and union in the
    /// dead versions its key range covers: the index-probe counterpart of
    /// [`filter_page`](Self::filter_page), under the same visibility rules.
    ///
    /// `rows` holds the live rows the probe fetched, each already checked
    /// to carry a `key_col` value in `[lo, hi]`. On return it holds the
    /// live rows `view` can see, followed by every dead version `view` can
    /// see whose key lies in `[lo, hi]` and whose rid is not among those
    /// live rows. A dead version is decoded in full only once its key
    /// qualifies.
    ///
    /// MUST be called only after the live fetch. DML registers a dead
    /// version before it deletes the heap row and before it drops the
    /// index entry, so a row the fetch missed is already in the dead set
    /// by now: a row being updated or deleted is found live or dead,
    /// never neither.
    pub fn filter_probe(
        &self,
        view: ReadView,
        key_col: usize,
        lo: Option<i64>,
        hi: Option<i64>,
        rows: &mut Vec<(Rid, Tuple)>,
    ) -> StorageResult<()> {
        if self.entries.load(Ordering::Acquire) == 0 {
            return Ok(());
        }
        let inner = self.inner.lock();
        rows.retain(|(rid, _)| begin_visible(inner.created.get(rid), view));
        if inner.dead_count == 0 {
            return Ok(());
        }
        let live: HashSet<Rid> = rows.iter().map(|(rid, _)| *rid).collect();
        for dv in inner.dead.values().flatten() {
            if !begin_visible(dv.begin.as_ref(), view)
                || end_hides(dv.end, view)
                || live.contains(&dv.rid)
            {
                continue;
            }
            let key = Tuple::decode_columns(&dv.bytes, &[key_col])?;
            if key.get(0).as_int().is_some_and(|k| key_in_range(k, lo, hi)) {
                rows.push((dv.rid, Tuple::decode(&dv.bytes)?));
            }
        }
        Ok(())
    }

    /// Is the row at `rid` (currently live in the heap) visible to `view`?
    pub fn row_visible(&self, view: ReadView, rid: Rid) -> bool {
        if self.entries.load(Ordering::Acquire) == 0 {
            return true;
        }
        begin_visible(self.inner.lock().created.get(&rid), view)
    }

    /// Overlay size counters for STATS.
    pub fn stats(&self) -> VersionStats {
        let inner = self.inner.lock();
        VersionStats {
            created: inner.created.len() as u64,
            dead: inner.dead_count as u64,
            pending_txns: inner.pending.len() as u64,
        }
    }

    /// Lifetime GC counters: `(dead_removed, created_removed)`.
    pub fn gc_totals(&self) -> (u64, u64) {
        (self.gc_dead.load(Ordering::Relaxed), self.gc_created.load(Ordering::Relaxed))
    }

    /// Garbage-collect the overlay. Only safe while no DML is in flight
    /// (the checkpoint stage's quiesce point): a transaction absent from
    /// `live_xids` is then guaranteed finished, not mid-commit.
    ///
    /// Timestamp-based reclamation (creation/deletion stamps at or below
    /// `min_active_ts`, the oldest pinned snapshot) is always safe. The
    /// position-dependent moves — collapsing a rollback anchor pair back to
    /// a plain live row, and reaping dead transactions' pending stamps —
    /// additionally require `pins_empty` (no reader is mid-scan at *any*
    /// timestamp, because a scan's progress through pages is what the
    /// anchor protects, not a timestamp).
    pub fn vacuum(
        &self,
        min_active_ts: u64,
        pins_empty: bool,
        live_xids: &HashSet<u64>,
    ) -> VacuumStats {
        let mut inner = self.inner.lock();
        let mut stats = VacuumStats::default();
        let inner = &mut *inner;

        // Dead versions.
        let mut collapse: Vec<Rid> = Vec::new();
        for list in inner.dead.values_mut() {
            list.retain(|dv| {
                let drop = match dv.end {
                    End::At(t) => t <= min_active_ts,
                    End::Pending(x) => {
                        if !pins_empty || live_xids.contains(&x) {
                            false
                        } else if let Some(nr) = dv.restored {
                            // Aborted delete, row restored at `nr`: collapse
                            // the pair — the twin becomes the plain row.
                            collapse.push(nr);
                            true
                        } else {
                            // Aborted insert-then-delete (begin also pending
                            // and dead): invisible to everyone forever.
                            matches!(dv.begin, Some(Begin::Pending(bx)) if !live_xids.contains(&bx))
                        }
                    }
                };
                if drop {
                    stats.dead_removed += 1;
                }
                !drop
            });
        }
        inner.dead.retain(|_, list| !list.is_empty());
        for nr in collapse {
            if matches!(inner.created.get(&nr), Some(Begin::Restored(_))) {
                inner.created.remove(&nr);
                stats.anchors_collapsed += 1;
            }
        }

        // Creation stamps. (Destructure for disjoint borrows: the closure
        // reads `dead` while retaining over `created`.)
        let Inner { created, dead, .. } = inner;
        created.retain(|_, b| {
            let drop = match b {
                Begin::At(t) => *t <= min_active_ts,
                Begin::Pending(x) => pins_empty && !live_xids.contains(x),
                // A Restored twin whose anchor disappeared above is
                // unreachable; reap it under the same conditions.
                Begin::Restored(anchor) => {
                    pins_empty
                        && !dead
                            .get(&anchor.page)
                            .is_some_and(|l| l.iter().any(|d| d.rid == *anchor))
                }
            };
            if drop {
                stats.created_removed += 1;
            }
            !drop
        });

        // Flip handles of finished transactions.
        if pins_empty {
            inner.pending.retain(|x, _| live_xids.contains(x));
        }

        inner.dead_count = inner.dead.values().map(Vec::len).sum();
        self.gc_dead.fetch_add(stats.dead_removed, Ordering::Relaxed);
        self.gc_created.fetch_add(stats.created_removed, Ordering::Relaxed);
        self.publish_len(inner);
        stats
    }

    /// Clear the overlay (recovery: only committed, visible-to-all rows
    /// survive a restart, so the rebuilt overlay is empty).
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        *inner = Inner::default();
        self.publish_len(&inner);
    }
}

#[derive(Default)]
struct OracleInner {
    latest: u64,
    /// Pinned snapshot timestamps with reference counts.
    pins: BTreeMap<u64, u64>,
}

/// The monotonic commit-timestamp authority.
///
/// Timestamp 0 is the beginning of time (everything loaded at recovery is
/// committed at 0); the first commit gets 1. A snapshot at `ts` sees every
/// version with commit timestamp `<= ts`.
#[derive(Default)]
pub struct CommitOracle {
    inner: Mutex<OracleInner>,
}

impl CommitOracle {
    /// A fresh oracle at timestamp 0.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The latest committed timestamp.
    pub fn latest(&self) -> u64 {
        self.inner.lock().latest
    }

    /// Pin the current timestamp for a reader. The pin holds GC back until
    /// the guard drops.
    pub fn pin(self: &Arc<Self>) -> SnapshotGuard {
        let mut inner = self.inner.lock();
        let ts = inner.latest;
        *inner.pins.entry(ts).or_insert(0) += 1;
        SnapshotGuard { oracle: Arc::clone(self), ts }
    }

    /// Allocate the next commit timestamp, run `publish` (the version-store
    /// flips) with it, then advance `latest`. The whole sequence is one
    /// critical section: no reader can pin a timestamp whose versions are
    /// still mid-flip.
    pub fn commit<F: FnOnce(u64)>(&self, publish: F) -> u64 {
        let mut inner = self.inner.lock();
        let ts = inner.latest + 1;
        publish(ts);
        inner.latest = ts;
        ts
    }

    /// Number of snapshot pins currently held (diagnostics).
    pub fn pins(&self) -> u64 {
        self.inner.lock().pins.values().sum()
    }

    /// `(oldest pinned timestamp or latest if none, whether no pins exist)`
    /// — the GC horizon.
    pub fn min_active(&self) -> (u64, bool) {
        let inner = self.inner.lock();
        match inner.pins.keys().next() {
            Some(ts) => (*ts, false),
            None => (inner.latest, true),
        }
    }
}

/// RAII pin on a snapshot timestamp; dropping releases the pin.
pub struct SnapshotGuard {
    oracle: Arc<CommitOracle>,
    ts: u64,
}

impl SnapshotGuard {
    /// The pinned timestamp.
    pub fn ts(&self) -> u64 {
        self.ts
    }
}

impl std::fmt::Debug for SnapshotGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotGuard").field("ts", &self.ts).finish()
    }
}

impl Drop for SnapshotGuard {
    fn drop(&mut self) {
        let mut inner = self.oracle.inner.lock();
        if let Some(count) = inner.pins.get_mut(&self.ts) {
            *count -= 1;
            if *count == 0 {
                inner.pins.remove(&self.ts);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn row(n: i64) -> Tuple {
        Tuple::new(vec![Value::Int(n)])
    }

    fn page_rows(
        store: &VersionStore,
        view: ReadView,
        page: PageId,
        live: &[(u16, i64)],
    ) -> Vec<i64> {
        let mut rows: Vec<(Rid, Tuple)> =
            live.iter().map(|(s, n)| (Rid::new(page, *s), row(*n))).collect();
        store.filter_page(view, page, &mut rows, None).unwrap();
        rows.into_iter()
            .map(|(_, t)| match t.get(0) {
                Value::Int(n) => *n,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn empty_overlay_is_transparent() {
        let store = VersionStore::new();
        let view = ReadView::new(0, 0);
        assert_eq!(page_rows(&store, view, PageId(1), &[(0, 10), (1, 20)]), vec![10, 20]);
    }

    #[test]
    fn pending_insert_visible_only_to_writer() {
        let store = VersionStore::new();
        let rid = Rid::new(PageId(1), 1);
        store.note_insert(rid, 7);
        assert_eq!(
            page_rows(&store, ReadView::new(5, 0), PageId(1), &[(0, 10), (1, 20)]),
            vec![10]
        );
        assert_eq!(
            page_rows(&store, ReadView::new(5, 7), PageId(1), &[(0, 10), (1, 20)]),
            vec![10, 20]
        );
        store.commit(7, 6);
        assert_eq!(
            page_rows(&store, ReadView::new(5, 0), PageId(1), &[(0, 10), (1, 20)]),
            vec![10]
        );
        assert_eq!(
            page_rows(&store, ReadView::new(6, 0), PageId(1), &[(0, 10), (1, 20)]),
            vec![10, 20]
        );
    }

    #[test]
    fn deleted_row_stays_visible_to_old_snapshots() {
        let store = VersionStore::new();
        let rid = Rid::new(PageId(3), 0);
        store.note_delete(rid, row(42).encode(), 9);
        // Register-then-delete window: live copy still present — no dup.
        assert_eq!(page_rows(&store, ReadView::new(1, 0), PageId(3), &[(0, 42)]), vec![42]);
        // After the heap delete: merged from the dead version.
        assert_eq!(page_rows(&store, ReadView::new(1, 0), PageId(3), &[]), vec![42]);
        // The deleter itself sees it gone.
        assert_eq!(page_rows(&store, ReadView::new(1, 9), PageId(3), &[]), Vec::<i64>::new());
        store.commit(9, 4);
        assert_eq!(page_rows(&store, ReadView::new(3, 0), PageId(3), &[]), vec![42]);
        assert_eq!(page_rows(&store, ReadView::new(4, 0), PageId(3), &[]), Vec::<i64>::new());
    }

    #[test]
    fn aborted_delete_keeps_row_via_anchor() {
        let store = VersionStore::new();
        let old = Rid::new(PageId(3), 0);
        let new = Rid::new(PageId(5), 2);
        store.note_delete(old, row(42).encode(), 9);
        // Rollback re-inserts on another page; twin is never visible live.
        store.note_restore(old, new);
        store.abort(9);
        assert_eq!(
            page_rows(&store, ReadView::new(1, 0), PageId(5), &[(2, 42)]),
            Vec::<i64>::new()
        );
        // ...but the anchor dead version serves every reader.
        assert_eq!(page_rows(&store, ReadView::new(1, 0), PageId(3), &[]), vec![42]);

        // GC with pins outstanding must not collapse the pair.
        let none = HashSet::new();
        let s = store.vacuum(10, false, &none);
        assert_eq!(s.dead_removed + s.created_removed, 0);
        // With no pins, the pair collapses back to a plain row.
        let s = store.vacuum(10, true, &none);
        assert_eq!(s.dead_removed, 1);
        assert_eq!(s.anchors_collapsed, 1);
        assert_eq!(page_rows(&store, ReadView::new(1, 0), PageId(5), &[(2, 42)]), vec![42]);
    }

    #[test]
    fn delete_of_restored_twin_chases_anchor() {
        let store = VersionStore::new();
        let old = Rid::new(PageId(3), 0);
        let new = Rid::new(PageId(5), 2);
        store.note_delete(old, row(42).encode(), 9);
        store.note_restore(old, new);
        store.abort(9);
        // A second transaction deletes the twin: the anchor's end flips.
        store.note_delete(new, row(42).encode(), 11);
        assert_eq!(page_rows(&store, ReadView::new(1, 0), PageId(3), &[]), vec![42]);
        store.commit(11, 2);
        assert_eq!(page_rows(&store, ReadView::new(1, 0), PageId(3), &[]), vec![42]);
        assert_eq!(page_rows(&store, ReadView::new(2, 0), PageId(3), &[]), Vec::<i64>::new());
        assert_eq!(
            page_rows(&store, ReadView::new(2, 0), PageId(5), &[(2, 42)]),
            Vec::<i64>::new()
        );
    }

    #[test]
    fn vacuum_reclaims_below_horizon_only() {
        let store = VersionStore::new();
        let rid = Rid::new(PageId(1), 0);
        store.note_delete(rid, row(1).encode(), 3);
        store.commit(3, 5);
        let none = HashSet::new();
        assert_eq!(store.vacuum(4, false, &none).dead_removed, 0);
        assert_eq!(page_rows(&store, ReadView::new(4, 0), PageId(1), &[]), vec![1]);
        assert_eq!(store.vacuum(5, false, &none).dead_removed, 1);
        assert_eq!(store.stats().dead, 0);
        assert_eq!(store.gc_totals().0, 1);
    }

    #[test]
    fn oracle_pins_bound_the_horizon() {
        let oracle = CommitOracle::new();
        assert_eq!(oracle.min_active(), (0, true));
        oracle.commit(|_| {});
        oracle.commit(|_| {});
        assert_eq!(oracle.latest(), 2);
        let pin = oracle.pin();
        assert_eq!(pin.ts(), 2);
        oracle.commit(|_| {});
        let pin2 = oracle.pin();
        assert_eq!(pin2.ts(), 3);
        assert_eq!(oracle.min_active(), (2, false));
        drop(pin);
        assert_eq!(oracle.min_active(), (3, false));
        drop(pin2);
        assert_eq!(oracle.min_active(), (3, true));
    }

    #[test]
    fn commit_publish_runs_inside_the_allocation() {
        let oracle = CommitOracle::new();
        let store = VersionStore::new();
        let rid = Rid::new(PageId(1), 0);
        store.note_insert(rid, 5);
        let ts = oracle.commit(|t| store.commit(5, t));
        assert_eq!(ts, 1);
        assert!(store.row_visible(ReadView::new(1, 0), rid));
        assert!(!store.row_visible(ReadView::new(0, 0), rid));
    }
}
