//! Buffer pool with clock (second-chance) replacement.
//!
//! One pool is shared by every stage of the server — the "unified buffer
//! manager" of paper §5.2. Pages are accessed through RAII [`PageGuard`]s
//! that pin the frame; I/O for misses and write-backs happens *outside* the
//! pool's mapping lock so that concurrent misses overlap on a latency-
//! simulating disk (this is what lets Workload A's I/O overlap once the
//! thread pool is large enough, §3.1.1).
//!
//! A page whose newest bytes are only in memory is never re-read from
//! disk: an evicted dirty page stays known to the pool until its
//! write-back finishes (a fetch of it waits), and [`BufferPool::flush_all`]
//! keeps each frame pinned while its write is in flight.

use crate::disk::DiskManager;
use crate::error::{StorageError, StorageResult};
use crate::page::{PageId, PAGE_SIZE};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Buffer-pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct PoolStats {
    /// Fetches served from memory.
    pub hits: u64,
    /// Fetches that had to read from disk.
    pub misses: u64,
    /// Dirty pages written back during eviction.
    pub evictions: u64,
    /// Fetches that waited for the eviction write-back of the page they
    /// asked for, rather than read its stale disk copy.
    pub writeback_waits: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameMeta {
    page: Option<PageId>,
    pin: u32,
    dirty: bool,
    ref_bit: bool,
    io_pending: bool,
}

impl FrameMeta {
    const EMPTY: FrameMeta =
        FrameMeta { page: None, pin: 0, dirty: false, ref_bit: false, io_pending: false };
}

struct PoolInner {
    page_table: HashMap<PageId, usize>,
    meta: Vec<FrameMeta>,
    clock: usize,
    /// Evicted dirty pages whose write-back has not finished. They are
    /// unmapped but not yet on disk, so a fetch of one waits.
    writing_back: HashSet<PageId>,
}

/// The buffer pool.
pub struct BufferPool {
    disk: Arc<dyn DiskManager>,
    /// Frame buffers, each allocated by the first page installed in it: a
    /// pool sized for the worst case costs memory only for the frames its
    /// workload reaches.
    frames: Vec<RwLock<Vec<u8>>>,
    inner: Mutex<PoolInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writeback_waits: AtomicU64,
}

impl BufferPool {
    /// A pool of `capacity` frames over `disk`.
    pub fn new(disk: Arc<dyn DiskManager>, capacity: usize) -> Arc<Self> {
        let capacity = capacity.max(1);
        Arc::new(Self {
            disk,
            frames: (0..capacity).map(|_| RwLock::new(Vec::new())).collect(),
            inner: Mutex::new(PoolInner {
                page_table: HashMap::with_capacity(capacity),
                meta: vec![FrameMeta::EMPTY; capacity],
                clock: 0,
                writing_back: HashSet::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            writeback_waits: AtomicU64::new(0),
        })
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// The underlying disk manager.
    pub fn disk(&self) -> &Arc<dyn DiskManager> {
        &self.disk
    }

    /// Counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writeback_waits: self.writeback_waits.load(Ordering::Relaxed),
        }
    }

    /// Allocate a fresh page on disk and pin it (zeroed, not yet formatted).
    pub fn new_page(self: &Arc<Self>) -> StorageResult<PageGuard> {
        let page = self.disk.allocate()?;
        // The zeroed page is "read" logically; install without disk read.
        let frame = self.install(page, false)?;
        Ok(PageGuard { pool: Arc::clone(self), frame, page })
    }

    /// Fetch a page, reading it from disk on a miss.
    pub fn fetch(self: &Arc<Self>, page: PageId) -> StorageResult<PageGuard> {
        let frame = self.install(page, true)?;
        Ok(PageGuard { pool: Arc::clone(self), frame, page })
    }

    /// Map `page` to a pinned frame; `read_from_disk` controls miss filling.
    fn install(&self, page: PageId, read_from_disk: bool) -> StorageResult<usize> {
        let mut waited = false;
        loop {
            let victim = {
                let mut inner = self.inner.lock();
                if let Some(&f) = inner.page_table.get(&page) {
                    if inner.meta[f].io_pending {
                        // Another thread is filling this frame; wait briefly.
                        drop(inner);
                        std::thread::yield_now();
                        continue;
                    }
                    inner.meta[f].pin += 1;
                    inner.meta[f].ref_bit = true;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(f);
                }
                if inner.writing_back.contains(&page) {
                    // The page's latest bytes are on their way to disk; a
                    // read now would return the stale copy.
                    drop(inner);
                    if !waited {
                        waited = true;
                        self.writeback_waits.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::yield_now();
                    continue;
                }
                // Miss: pick a victim with the clock.
                let f = self.find_victim(&mut inner)?;
                let old = inner.meta[f];
                inner.meta[f] = FrameMeta {
                    page: Some(page),
                    pin: 1,
                    dirty: false,
                    ref_bit: true,
                    io_pending: true,
                };
                if let Some(old_page) = old.page {
                    inner.page_table.remove(&old_page);
                    if old.dirty {
                        inner.writing_back.insert(old_page);
                    }
                }
                inner.page_table.insert(page, f);
                self.misses.fetch_add(1, Ordering::Relaxed);
                (f, old)
            };
            let (f, old) = victim;
            let evicted = old.page.filter(|_| old.dirty);
            // I/O outside the mapping lock.
            let io_result = (|| -> StorageResult<()> {
                let mut data = self.frames[f].write();
                if data.is_empty() {
                    data.resize(PAGE_SIZE, 0);
                }
                if let Some(old_page) = evicted {
                    self.disk.write_page(old_page, &data[..])?;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                if read_from_disk {
                    self.disk.read_page(page, &mut data[..])?;
                } else {
                    data.fill(0);
                }
                Ok(())
            })();
            let mut inner = self.inner.lock();
            if let Some(old_page) = evicted {
                inner.writing_back.remove(&old_page);
            }
            match io_result {
                Ok(()) => {
                    inner.meta[f].io_pending = false;
                    return Ok(f);
                }
                Err(e) => {
                    // Roll the mapping back so the frame is reusable.
                    inner.page_table.remove(&page);
                    inner.meta[f] = FrameMeta::EMPTY;
                    return Err(e);
                }
            }
        }
    }

    /// Clock sweep; two full passes before giving up.
    fn find_victim(&self, inner: &mut PoolInner) -> StorageResult<usize> {
        let n = inner.meta.len();
        for _ in 0..2 * n {
            let f = inner.clock;
            inner.clock = (inner.clock + 1) % n;
            let m = &mut inner.meta[f];
            if m.pin > 0 || m.io_pending {
                continue;
            }
            if m.ref_bit {
                m.ref_bit = false;
                continue;
            }
            return Ok(f);
        }
        Err(StorageError::PoolExhausted)
    }

    /// Write every dirty frame back to disk (checkpoint).
    ///
    /// Each frame stays pinned while its write is in flight: a frame that
    /// reads clean but is not yet on disk must not be evicted, or the next
    /// fetch of its page would read the stale disk copy.
    pub fn flush_all(&self) -> StorageResult<()> {
        for f in 0..self.frames.len() {
            let page = {
                let mut inner = self.inner.lock();
                let m = &mut inner.meta[f];
                match (m.page, m.dirty, m.io_pending) {
                    (Some(p), true, false) => {
                        m.dirty = false;
                        m.pin += 1;
                        Some(p)
                    }
                    _ => None,
                }
            };
            if let Some(p) = page {
                let written = {
                    let data = self.frames[f].read();
                    self.disk.write_page(p, &data[..])
                };
                let mut inner = self.inner.lock();
                let m = &mut inner.meta[f];
                m.pin -= 1;
                if written.is_err() {
                    m.dirty = true;
                }
                written?;
            }
        }
        Ok(())
    }

    fn unpin(&self, frame: usize) {
        let mut inner = self.inner.lock();
        let m = &mut inner.meta[frame];
        debug_assert!(m.pin > 0, "unpin of unpinned frame");
        m.pin -= 1;
        m.ref_bit = true;
    }

    fn mark_dirty(&self, frame: usize) {
        self.inner.lock().meta[frame].dirty = true;
    }

    #[cfg(test)]
    fn pin_count(&self, page: PageId) -> Option<u32> {
        let inner = self.inner.lock();
        inner.page_table.get(&page).map(|&f| inner.meta[f].pin)
    }
}

/// RAII pin on a page; unpins on drop.
pub struct PageGuard {
    pool: Arc<BufferPool>,
    frame: usize,
    page: PageId,
}

impl PageGuard {
    /// The page this guard pins.
    pub fn page_id(&self) -> PageId {
        self.page
    }

    /// Read access to the page bytes.
    pub fn read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let data = self.pool.frames[self.frame].read();
        f(&data[..])
    }

    /// Write access to the page bytes; marks the frame dirty.
    pub fn write<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut data = self.pool.frames[self.frame].write();
        self.pool.mark_dirty(self.frame);
        f(&mut data[..])
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.pool.unpin(self.frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn pool(frames: usize) -> Arc<BufferPool> {
        BufferPool::new(Arc::new(MemDisk::new()), frames)
    }

    #[test]
    fn new_page_is_zeroed_and_writable() {
        let p = pool(4);
        let g = p.new_page().unwrap();
        g.read(|d| assert!(d.iter().all(|&b| b == 0)));
        g.write(|d| d[0] = 9);
        g.read(|d| assert_eq!(d[0], 9));
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let p = pool(2);
        let id0 = {
            let g = p.new_page().unwrap();
            g.write(|d| d[0] = 111);
            g.page_id()
        };
        // Fill the pool with other pages to force eviction of page 0.
        for _ in 0..4 {
            let g = p.new_page().unwrap();
            g.write(|d| d[1] = 1);
        }
        let g = p.fetch(id0).unwrap();
        g.read(|d| assert_eq!(d[0], 111, "dirty data must survive eviction"));
        assert!(p.stats().evictions > 0);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let p = pool(2);
        let g0 = p.new_page().unwrap();
        let _g1 = p.new_page().unwrap();
        // Both frames pinned: a third page cannot be installed.
        assert!(matches!(p.new_page(), Err(StorageError::PoolExhausted)));
        drop(g0);
        // Now one frame is free.
        assert!(p.new_page().is_ok());
    }

    #[test]
    fn fetch_hit_does_not_touch_disk() {
        let disk = Arc::new(MemDisk::new());
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, 4);
        let id = p.new_page().unwrap().page_id();
        let before = disk.stats().reads;
        for _ in 0..10 {
            let _ = p.fetch(id).unwrap();
        }
        assert_eq!(disk.stats().reads, before, "hits must not read disk");
        assert_eq!(p.stats().hits, 10);
    }

    #[test]
    fn flush_all_persists_dirty_pages() {
        let disk = Arc::new(MemDisk::new());
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, 4);
        let id = {
            let g = p.new_page().unwrap();
            g.write(|d| d[3] = 77);
            g.page_id()
        };
        p.flush_all().unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(id, &mut buf).unwrap();
        assert_eq!(buf[3], 77);
    }

    #[test]
    fn guard_drop_unpins() {
        let p = pool(2);
        let id = {
            let g = p.new_page().unwrap();
            assert_eq!(p.pin_count(g.page_id()), Some(1));
            g.page_id()
        };
        assert_eq!(p.pin_count(id), Some(0));
        let g1 = p.fetch(id).unwrap();
        let g2 = p.fetch(id).unwrap();
        assert_eq!(p.pin_count(id), Some(2));
        drop(g1);
        drop(g2);
        assert_eq!(p.pin_count(id), Some(0));
    }

    /// A disk whose first write of one chosen page stops at a barrier: it
    /// meets the test at `entered`, then holds until the test meets it at
    /// `release`. Reads of that page are counted.
    struct GatedDisk {
        inner: MemDisk,
        gated: Mutex<Option<PageId>>,
        gated_reads: AtomicU64,
        entered: std::sync::Barrier,
        release: std::sync::Barrier,
    }

    impl GatedDisk {
        fn new() -> Arc<Self> {
            Arc::new(Self {
                inner: MemDisk::new(),
                gated: Mutex::new(None),
                gated_reads: AtomicU64::new(0),
                entered: std::sync::Barrier::new(2),
                release: std::sync::Barrier::new(2),
            })
        }

        fn gate(&self, page: PageId) {
            *self.gated.lock() = Some(page);
        }
    }

    impl DiskManager for GatedDisk {
        fn allocate(&self) -> StorageResult<PageId> {
            self.inner.allocate()
        }

        fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()> {
            if *self.gated.lock() == Some(page) {
                self.gated_reads.fetch_add(1, Ordering::SeqCst);
            }
            self.inner.read_page(page, buf)
        }

        fn write_page(&self, page: PageId, buf: &[u8]) -> StorageResult<()> {
            if *self.gated.lock() == Some(page) {
                self.entered.wait();
                self.release.wait();
                *self.gated.lock() = None;
            }
            self.inner.write_page(page, buf)
        }

        fn num_pages(&self) -> u64 {
            self.inner.num_pages()
        }

        fn sync(&self) -> StorageResult<()> {
            self.inner.sync()
        }

        fn stats(&self) -> crate::disk::IoStats {
            self.inner.stats()
        }
    }

    /// A dirty, unpinned page holding 42 in its first byte.
    fn dirty_page(p: &Arc<BufferPool>) -> PageId {
        let g = p.new_page().unwrap();
        g.write(|d| d[0] = 42);
        g.page_id()
    }

    #[test]
    fn fetch_during_eviction_write_back_waits_for_it() {
        let disk = GatedDisk::new();
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, 2);
        let y = dirty_page(&p);
        // Pin the other frame so the next miss must evict `y`.
        let other = p.new_page().unwrap();
        disk.gate(y);
        let x = disk.allocate().unwrap();
        let evictor = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || p.fetch(x).map(|_| ()))
        };
        // `y` is unmapped and its write-back is in flight.
        disk.entered.wait();
        drop(other);
        let reader = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || p.fetch(y).map(|g| g.read(|d| d[0])))
        };
        // Let the write-back finish only once the reader has either read
        // `y` from disk or is waiting for the write-back.
        while disk.gated_reads.load(Ordering::SeqCst) == 0 && p.stats().writeback_waits == 0 {
            std::thread::yield_now();
        }
        disk.release.wait();
        assert_eq!(reader.join().unwrap().unwrap(), 42, "fetch read the stale disk copy");
        evictor.join().unwrap().unwrap();
        assert_eq!(p.stats().writeback_waits, 1);
    }

    #[test]
    fn flush_all_keeps_a_page_in_flight_resident() {
        let disk = GatedDisk::new();
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, 2);
        let y = dirty_page(&p);
        let other = p.new_page().unwrap();
        disk.gate(y);
        let flusher = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || p.flush_all())
        };
        // `y` reads clean now, but its bytes are not on disk yet. With the
        // other frame pinned, a miss may only take `y`'s frame.
        disk.entered.wait();
        let misses = p.stats().misses;
        let x = disk.allocate().unwrap();
        let evictor = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || p.fetch(x).map(|_| ()))
        };
        while !evictor.is_finished() && p.stats().misses == misses {
            std::thread::yield_now();
        }
        drop(other);
        let seen = p.fetch(y).unwrap().read(|d| d[0]);
        disk.release.wait();
        flusher.join().unwrap().unwrap();
        assert_eq!(seen, 42, "a page evicted mid-flush was re-read stale");
        assert_eq!(disk.gated_reads.load(Ordering::SeqCst), 0);
        // Every frame was pinned when the evictor asked for one.
        assert!(matches!(evictor.join().unwrap(), Err(StorageError::PoolExhausted)));
    }

    #[test]
    fn concurrent_fetches_are_consistent() {
        let p = pool(8);
        let ids: Vec<PageId> = (0..16)
            .map(|i| {
                let g = p.new_page().unwrap();
                g.write(|d| d[0] = i as u8);
                g.page_id()
            })
            .collect();
        let mut handles = vec![];
        for t in 0..4 {
            let p = Arc::clone(&p);
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..50 {
                    let idx = (t * 7 + round * 3) % ids.len();
                    let g = p.fetch(ids[idx]).unwrap();
                    g.read(|d| assert_eq!(d[0], idx as u8));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
