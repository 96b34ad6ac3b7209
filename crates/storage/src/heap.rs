//! Heap files: unordered collections of tuples on slotted pages.

use crate::buffer::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::mvcc::{ReadView, VersionStore};
use crate::page::{PageId, SlottedPage, PAGE_SIZE};
use crate::tuple::{Rid, Tuple};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// A heap file. Pages are tracked in memory (the catalog owns the file;
/// on-disk directory pages are out of scope, see crate docs).
pub struct HeapFile {
    pool: Arc<BufferPool>,
    pages: RwLock<Vec<PageId>>,
    /// Serializes the insert path so two inserters do not both allocate.
    insert_lock: Mutex<()>,
}

impl HeapFile {
    /// An empty heap file over `pool`.
    pub fn create(pool: Arc<BufferPool>) -> Self {
        Self { pool, pages: RwLock::new(Vec::new()), insert_lock: Mutex::new(()) }
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.pages.read().len()
    }

    /// Snapshot of the page list (used by scans and index builds).
    pub fn page_ids(&self) -> Vec<PageId> {
        self.pages.read().clone()
    }

    /// Insert a tuple, returning its rid.
    pub fn insert(&self, tuple: &Tuple) -> StorageResult<Rid> {
        self.insert_with(tuple, |_| {})
    }

    /// Insert a tuple, invoking `note` with the assigned rid from *inside*
    /// the page write latch — before any reader can decode the new row.
    /// This is the MVCC registration hook: `note` typically records the
    /// rid in the table's [`VersionStore`], and running it under the latch
    /// guarantees a reader that sees the row's bytes also sees its
    /// overlay entry.
    pub fn insert_with<F: FnOnce(Rid)>(&self, tuple: &Tuple, note: F) -> StorageResult<Rid> {
        let bytes = tuple.encode();
        if bytes.len() > PAGE_SIZE - 8 {
            return Err(StorageError::RecordTooLarge(bytes.len()));
        }
        let mut note = Some(note);
        let _guard = self.insert_lock.lock();
        // Try the last page first.
        if let Some(&last) = self.pages.read().last() {
            let page = self.pool.fetch(last)?;
            if let Some(slot) = page.write(|d| {
                let slot = SlottedPage::insert(d, &bytes);
                if let Some(s) = slot {
                    if let Some(f) = note.take() {
                        f(Rid::new(last, s));
                    }
                }
                slot
            }) {
                return Ok(Rid::new(last, slot));
            }
        }
        // Allocate a fresh page.
        let page = self.pool.new_page()?;
        let pid = page.page_id();
        page.write(|d| {
            SlottedPage::init(d);
            let slot = SlottedPage::insert(d, &bytes);
            if let Some(s) = slot {
                if let Some(f) = note.take() {
                    f(Rid::new(pid, s));
                }
            }
            slot
        })
        .map(|slot| {
            self.pages.write().push(pid);
            Rid::new(pid, slot)
        })
        .ok_or(StorageError::RecordTooLarge(bytes.len()))
    }

    /// Read the tuple at `rid`.
    pub fn get(&self, rid: Rid) -> StorageResult<Tuple> {
        let page = self.pool.fetch(rid.page)?;
        page.read(|d| SlottedPage::get(d, rid.page, rid.slot).and_then(Tuple::decode))
    }

    /// Read the tuple at `rid`, or `None` when its slot has been deleted
    /// (an index entry racing a concurrent delete points at such a slot).
    pub fn try_get(&self, rid: Rid) -> StorageResult<Option<Tuple>> {
        match self.get(rid) {
            Ok(t) => Ok(Some(t)),
            Err(StorageError::InvalidSlot { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Delete the tuple at `rid` (idempotent errors on bad slots).
    pub fn delete(&self, rid: Rid) -> StorageResult<()> {
        let page = self.pool.fetch(rid.page)?;
        page.write(|d| SlottedPage::delete(d, rid.page, rid.slot))
    }

    /// Replace the tuple at `rid`; the rid may change (delete + insert).
    pub fn update(&self, rid: Rid, tuple: &Tuple) -> StorageResult<Rid> {
        self.delete(rid)?;
        self.insert(tuple)
    }

    /// Full scan over `(rid, tuple)` pairs.
    pub fn scan(&self) -> HeapScan {
        HeapScan {
            pool: Arc::clone(&self.pool),
            pages: self.page_ids(),
            next_page: 0,
            buffered: Vec::new(),
            mvcc: None,
        }
    }

    /// Page-granular scan: each item is one decoded page of `(rid, tuple)`
    /// pairs, in slot order. This is the batch-dataflow entry point — a
    /// consumer that wants pages (not tuples) gets them without the
    /// per-tuple buffering of [`HeapScan`].
    pub fn scan_pages(&self) -> HeapPageScan {
        HeapPageScan {
            pool: Arc::clone(&self.pool),
            pages: self.page_ids(),
            next_page: 0,
            cols: None,
            mvcc: None,
        }
    }

    /// Exact count of live tuples (scans every page).
    pub fn count(&self) -> StorageResult<usize> {
        let mut n = 0;
        for pid in self.page_ids() {
            let page = self.pool.fetch(pid)?;
            n += page.read(SlottedPage::live_count);
        }
        Ok(n)
    }
}

/// Streaming scan over a heap file; buffers one page of tuples at a time so
/// no page stays pinned between `next` calls.
pub struct HeapScan {
    pool: Arc<BufferPool>,
    pages: Vec<PageId>,
    next_page: usize,
    buffered: Vec<(Rid, Tuple)>,
    mvcc: Option<(Arc<VersionStore>, ReadView)>,
}

impl HeapScan {
    /// Pages this scan will visit (for I/O accounting in experiments).
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Filter every page through `store`'s version overlay for `view`:
    /// uncommitted rows the view cannot see are dropped, dead versions it
    /// can still see are merged back in.
    pub fn with_snapshot(mut self, store: Arc<VersionStore>, view: ReadView) -> Self {
        self.mvcc = Some((store, view));
        self
    }
}

impl Iterator for HeapScan {
    type Item = StorageResult<(Rid, Tuple)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.buffered.pop() {
                return Some(Ok(item));
            }
            if self.next_page >= self.pages.len() {
                return None;
            }
            let pid = self.pages[self.next_page];
            self.next_page += 1;
            let page = match self.pool.fetch(pid) {
                Ok(p) => p,
                Err(e) => return Some(Err(e)),
            };
            let mut decoded: Vec<(Rid, Tuple)> = Vec::new();
            let res = page.read(|d| {
                for (slot, bytes) in SlottedPage::iter(d) {
                    match Tuple::decode(bytes) {
                        Ok(t) => decoded.push((Rid::new(pid, slot), t)),
                        Err(e) => return Err(e),
                    }
                }
                Ok(())
            });
            if let Err(e) = res {
                return Some(Err(e));
            }
            if let Some((store, view)) = &self.mvcc {
                if let Err(e) = store.filter_page(*view, pid, &mut decoded, None) {
                    return Some(Err(e));
                }
            }
            // Reverse so pop() yields in slot order.
            decoded.reverse();
            self.buffered = decoded;
        }
    }
}

/// Page-granular heap scan: yields one decoded page of `(rid, tuple)` pairs
/// per `next` call (empty pages are skipped). No page stays pinned between
/// calls.
pub struct HeapPageScan {
    pool: Arc<BufferPool>,
    pages: Vec<PageId>,
    next_page: usize,
    cols: Option<Vec<usize>>,
    mvcc: Option<(Arc<VersionStore>, ReadView)>,
}

impl HeapPageScan {
    /// Pages this scan will visit (for I/O accounting in experiments).
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Restrict decoding to `cols` (strictly increasing slot indexes, see
    /// [`Tuple::decode_columns`]); yielded tuples hold those columns in that
    /// order. Unread columns — string columns especially — are skipped
    /// without being materialized.
    pub fn with_columns(mut self, cols: Vec<usize>) -> Self {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "cols must be strictly increasing");
        self.cols = Some(cols);
        self
    }

    /// Filter every page through `store`'s version overlay for `view` (see
    /// [`HeapScan::with_snapshot`]). Dead versions are decoded with this
    /// scan's column pruning.
    pub fn with_snapshot(mut self, store: Arc<VersionStore>, view: ReadView) -> Self {
        self.mvcc = Some((store, view));
        self
    }
}

impl Iterator for HeapPageScan {
    type Item = StorageResult<Vec<(Rid, Tuple)>>;

    fn next(&mut self) -> Option<Self::Item> {
        while self.next_page < self.pages.len() {
            let pid = self.pages[self.next_page];
            self.next_page += 1;
            let page = match self.pool.fetch(pid) {
                Ok(p) => p,
                Err(e) => return Some(Err(e)),
            };
            let mut decoded: Vec<(Rid, Tuple)> = Vec::new();
            let res = page.read(|d| {
                for (slot, bytes) in SlottedPage::iter(d) {
                    let t = match &self.cols {
                        Some(cols) => Tuple::decode_columns(bytes, cols),
                        None => Tuple::decode(bytes),
                    };
                    match t {
                        Ok(t) => decoded.push((Rid::new(pid, slot), t)),
                        Err(e) => return Err(e),
                    }
                }
                Ok(())
            });
            if let Err(e) = res {
                return Some(Err(e));
            }
            if let Some((store, view)) = &self.mvcc {
                // The overlay can both drop rows and resurrect deleted ones
                // (even on pages whose live rows are all filtered away), so
                // the emptiness check must come after.
                if let Err(e) = store.filter_page(*view, pid, &mut decoded, self.cols.as_deref()) {
                    return Some(Err(e));
                }
            }
            if !decoded.is_empty() {
                return Some(Ok(decoded));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::value::Value;

    fn heap() -> HeapFile {
        HeapFile::create(BufferPool::new(Arc::new(MemDisk::new()), 64))
    }

    fn row(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i), Value::Str(format!("row-{i}"))])
    }

    #[test]
    fn insert_get_roundtrip() {
        let h = heap();
        let rid = h.insert(&row(1)).unwrap();
        assert_eq!(h.get(rid).unwrap(), row(1));
    }

    #[test]
    fn scan_returns_everything_in_insert_order() {
        let h = heap();
        for i in 0..1000 {
            h.insert(&row(i)).unwrap();
        }
        let got: Vec<Tuple> = h.scan().map(|r| r.unwrap().1).collect();
        assert_eq!(got.len(), 1000);
        for (i, t) in got.iter().enumerate() {
            assert_eq!(t.get(0), &Value::Int(i as i64));
        }
        assert!(h.num_pages() > 1, "1000 rows must span pages");
    }

    #[test]
    fn delete_hides_from_scan_and_get() {
        let h = heap();
        let r0 = h.insert(&row(0)).unwrap();
        let r1 = h.insert(&row(1)).unwrap();
        h.delete(r0).unwrap();
        assert!(h.get(r0).is_err());
        assert_eq!(h.get(r1).unwrap(), row(1));
        let remaining: Vec<Tuple> = h.scan().map(|r| r.unwrap().1).collect();
        assert_eq!(remaining, vec![row(1)]);
        assert_eq!(h.count().unwrap(), 1);
    }

    #[test]
    fn update_replaces_contents() {
        let h = heap();
        let rid = h.insert(&row(5)).unwrap();
        let new_rid = h.update(rid, &row(99)).unwrap();
        assert_eq!(h.get(new_rid).unwrap(), row(99));
    }

    #[test]
    fn oversized_record_is_rejected() {
        let h = heap();
        let big = Tuple::new(vec![Value::Str("x".repeat(PAGE_SIZE))]);
        assert!(matches!(h.insert(&big), Err(StorageError::RecordTooLarge(_))));
    }

    #[test]
    fn concurrent_inserts_do_not_lose_rows() {
        let h = Arc::new(heap());
        let mut handles = vec![];
        for t in 0..4 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    h.insert(&row(t * 1000 + i)).unwrap();
                }
            }));
        }
        for hnd in handles {
            hnd.join().unwrap();
        }
        assert_eq!(h.count().unwrap(), 1000);
    }

    #[test]
    fn scan_of_empty_heap_is_empty() {
        let h = heap();
        assert_eq!(h.scan().count(), 0);
        assert_eq!(h.scan_pages().count(), 0);
    }

    #[test]
    fn page_scan_agrees_with_tuple_scan() {
        let h = heap();
        for i in 0..1000 {
            h.insert(&row(i)).unwrap();
        }
        let flat: Vec<(Rid, Tuple)> = h.scan().map(|r| r.unwrap()).collect();
        let paged: Vec<(Rid, Tuple)> =
            h.scan_pages().flat_map(|p| p.unwrap().into_iter()).collect();
        assert_eq!(flat, paged, "page scan must yield the same rows in the same order");
        let pages: Vec<usize> = h.scan_pages().map(|p| p.unwrap().len()).collect();
        assert_eq!(pages.len(), h.num_pages());
        assert!(pages.iter().all(|&n| n > 1), "full pages hold many tuples");
    }

    #[test]
    fn projected_page_scan_prunes_columns() {
        let h = heap();
        for i in 0..500 {
            h.insert(&row(i)).unwrap();
        }
        let pruned: Vec<(Rid, Tuple)> =
            h.scan_pages().with_columns(vec![0]).flat_map(|p| p.unwrap()).collect();
        let full: Vec<(Rid, Tuple)> = h.scan_pages().flat_map(|p| p.unwrap()).collect();
        assert_eq!(pruned.len(), full.len());
        for ((rid_p, t), (rid_f, f)) in pruned.iter().zip(&full) {
            assert_eq!(rid_p, rid_f);
            assert_eq!(t.values(), &f.values()[..1]);
        }
    }

    #[test]
    fn page_scan_skips_emptied_pages() {
        let h = heap();
        let mut rids = Vec::new();
        for i in 0..300 {
            rids.push(h.insert(&row(i)).unwrap());
        }
        // Empty out the first page entirely.
        let first = rids[0].page;
        for r in rids.iter().filter(|r| r.page == first) {
            h.delete(*r).unwrap();
        }
        let total: usize = h.scan_pages().map(|p| p.unwrap().len()).sum();
        assert_eq!(total, h.count().unwrap());
        assert!(h.scan_pages().all(|p| !p.unwrap().is_empty()));
    }
}
