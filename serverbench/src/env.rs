//! Set-up and tear-down: generated data, file-backed stores in a fresh
//! directory, a server behind `net::serve`, two client connections, and
//! (on `transfer`) the in-process feed consumers.

use crate::checks::Group;
use crate::Workload;
use crossbeam::channel::Receiver;
use staged_dbclient::Client;
use staged_planner::PlannerConfig;
use staged_server::net::{self, NetConfig, NetHandle};
use staged_server::{
    ReactivityHub, ReplicationHub, Response, ServerConfig, StagedServer, StagedSession,
    ThreadedServer, ThreadedSession,
};
use staged_storage::disk::IoStats;
use staged_storage::wal::Lsn;
use staged_storage::{
    BufferPool, Catalog, Column, DataType, DiskManager, FileDisk, FileSegmentStore, PageId, Schema,
    SegmentStore, SnapshotStore, StorageResult, Tuple, Value,
};
use staged_workload::{wisconsin_rows, wisconsin_schema};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Hash partitions of every table.
pub const PARTITIONS: usize = 4;
/// Client connections per workload.
pub const CLIENTS: usize = 2;
/// `SUBSCRIBE` consumers attached on `transfer`.
pub const SUBSCRIBERS: usize = 8;
/// Opening balance of every account.
pub const OPENING_BALANCE: i64 = 100;
/// Pages per WAL segment (64 KiB, about two hundred transfers). Every
/// feed pump re-reads the current segment for every consumer, so the
/// segment size bounds that cost; it also sets the checkpoint cadence.
pub const WAL_SEGMENT_PAGES: u64 = 8;
/// Live WAL segments beyond which the checkpoint stage starts a
/// checkpoint. With [`WAL_SEGMENT_PAGES`] this is one checkpoint per
/// filled segment, several in every measured `transfer` window.
pub const CHECKPOINT_SEGMENTS: u64 = 2;
/// Worker threads of the threaded baseline's pool.
pub const THREADED_POOL: usize = 4;

/// Table sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows in the workload's table.
    pub rows: usize,
    /// Buffer-pool frames.
    pub pool_frames: usize,
}

impl Scale {
    /// The sizes the benchmark of record uses.
    pub fn full(w: Workload) -> Self {
        match w {
            // ~250 pages: fits in the default 4096-frame pool.
            Workload::PointRead => Scale { rows: 20_000, pool_frames: 4096 },
            Workload::Transfer => Scale { rows: 10_000, pool_frames: 4096 },
            // ~620 pages over a pool of about half as many frames.
            Workload::HtapScan => Scale { rows: 50_000, pool_frames: 50_000 / 160 },
        }
    }

    /// A tenth of the data, for the benchmark's own smoke tests.
    pub fn smoke(w: Workload) -> Self {
        let full = Self::full(w);
        Scale {
            rows: full.rows / 10,
            pool_frames: if w == Workload::HtapScan { full.pool_frames / 10 } else { 4096 },
        }
    }
}

/// The generated inputs of one run, and the answers they imply.
pub struct Dataset {
    /// Which workload.
    pub workload: Workload,
    /// The seed the data, and the statements, are generated from.
    pub seed: u64,
    /// Rows in the table.
    pub rows: usize,
    /// Buffer-pool frames.
    pub pool_frames: usize,
    /// Wisconsin rows (empty on `transfer`).
    pub wisconsin: Vec<Tuple>,
    /// Each Wisconsin row as the wire prints it, indexed by `unique1`.
    pub by_key: Vec<Vec<String>>,
    /// The scan statement's groups at load time.
    pub groups: Vec<Group>,
}

impl Dataset {
    /// Generate the data for `workload` from `seed`.
    pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Self {
        let wisconsin = if workload == Workload::Transfer {
            Vec::new()
        } else {
            wisconsin_rows(scale.rows, seed)
        };
        let mut by_key = vec![Vec::new(); wisconsin.len()];
        let mut groups: Vec<Group> = Vec::new();
        for row in &wisconsin {
            let vals = row.values();
            let ints: Vec<i64> =
                vals.iter().take(5).map(|v| if let Value::Int(i) = v { *i } else { 0 }).collect();
            let (u1, u2, two, ten) = (ints[0], ints[1], ints[2], ints[4]);
            by_key[u1 as usize] = vals.iter().map(wire_text).collect();
            if two != 0 {
                continue;
            }
            match groups.iter_mut().find(|g| g.ten == ten) {
                Some(g) => {
                    g.count += 1;
                    g.sum += u2;
                    g.min = g.min.min(u1);
                    g.max = g.max.max(u1);
                }
                None => groups.push(Group { ten, count: 1, sum: u2, min: u1, max: u1 }),
            }
        }
        groups.sort_by_key(|g| g.ten);
        Dataset {
            workload,
            seed,
            rows: scale.rows,
            pool_frames: scale.pool_frames,
            wisconsin,
            by_key,
            groups,
        }
    }

    /// Opening balance total on `transfer`.
    pub fn balance_total(&self) -> i64 {
        self.rows as i64 * OPENING_BALANCE
    }

    /// Encoded bytes of one row: the user data one row change writes.
    pub fn row_bytes(&self) -> usize {
        match self.wisconsin.first() {
            Some(row) => row.encoded_len(),
            None => Tuple::new(vec![Value::Int(0), Value::Int(OPENING_BALANCE)]).encoded_len(),
        }
    }

    /// The workload's table name.
    pub fn table(&self) -> &'static str {
        if self.workload == Workload::Transfer {
            "accounts"
        } else {
            "big"
        }
    }

    fn load(&self, catalog: &Catalog) -> StorageResult<usize> {
        let table = self.table();
        let info = if self.workload == Workload::Transfer {
            let schema = Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("bal", DataType::Int),
            ]);
            let info = catalog.create_table_partitioned(table, schema, PARTITIONS, 0)?;
            for id in 0..self.rows as i64 {
                info.heap.insert(&Tuple::new(vec![Value::Int(id), Value::Int(OPENING_BALANCE)]))?;
            }
            catalog.create_index("accounts_id", table, "id")?;
            info
        } else {
            let info =
                catalog.create_table_partitioned(table, wisconsin_schema(), PARTITIONS, 0)?;
            for row in &self.wisconsin {
                info.heap.insert(row)?;
            }
            catalog.create_index("big_unique1", table, "unique1")?;
            info
        };
        catalog.analyze_table(table)?;
        Ok(info.heap.num_pages())
    }
}

/// A value as the wire protocol prints it in a `ROW` line.
fn wire_text(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

/// Which server design sits behind the front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// The staged server (the system under test).
    Staged,
    /// The thread-pool baseline of paper §3.1 (the control column).
    Threaded,
}

/// The running server.
pub enum Server {
    /// Staged.
    Staged(Arc<StagedServer>),
    /// Threaded baseline.
    Threaded(Arc<ThreadedServer>),
}

/// An in-process session on either server.
pub enum Session {
    /// Staged.
    Staged(StagedSession),
    /// Threaded baseline.
    Threaded(ThreadedSession),
}

impl Session {
    /// Run one statement to completion.
    pub fn execute_sql(&self, sql: &str) -> Response {
        match self {
            Session::Staged(s) => s.execute_sql(sql),
            Session::Threaded(s) => s.execute_sql(sql),
        }
    }
}

impl Server {
    /// The `SUBSCRIBE` hub.
    pub fn reactivity(&self) -> &Arc<ReactivityHub> {
        match self {
            Server::Staged(s) => s.reactivity_hub(),
            Server::Threaded(s) => s.reactivity_hub(),
        }
    }

    /// The `REPLICATE` hub.
    pub fn replication(&self) -> &Arc<ReplicationHub> {
        match self {
            Server::Staged(s) => s.replication_hub(),
            Server::Threaded(s) => s.replication_hub(),
        }
    }

    /// Run a checkpoint and wait for it.
    pub fn checkpoint(&self) -> Response {
        match self {
            Server::Staged(s) => s.checkpoint(),
            Server::Threaded(s) => s.checkpoint(),
        }
    }

    /// Open an in-process session.
    pub fn session(&self) -> Session {
        match self {
            Server::Staged(s) => Session::Staged(s.session()),
            Server::Threaded(s) => Session::Threaded(s.session()),
        }
    }

    /// The staged server, when that is what runs.
    pub fn staged(&self) -> Option<&Arc<StagedServer>> {
        match self {
            Server::Staged(s) => Some(s),
            Server::Threaded(_) => None,
        }
    }

    fn shutdown(&self) {
        match self {
            Server::Staged(s) => s.shutdown(),
            Server::Threaded(s) => s.shutdown(),
        }
    }
}

/// A page store over a real file whose durability barrier is counted but
/// not sent to the device: every page write reaches the file (and the OS
/// page cache) as on a production run, and `sync` returns at once. The
/// device's flush latency on a shared virtual disk swings tenfold with the
/// neighbours' writes, which no run length can average out; the benchmark
/// measures the program, and `wal.flush_us` prices a real flush apart
/// (see README.md, "Flush policy").
pub struct CachedDisk {
    inner: Arc<dyn DiskManager>,
    syncs: Arc<AtomicU64>,
}

impl DiskManager for CachedDisk {
    fn allocate(&self) -> StorageResult<PageId> {
        self.inner.allocate()
    }

    fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()> {
        self.inner.read_page(page, buf)
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> StorageResult<()> {
        self.inner.write_page(page, buf)
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn sync(&self) -> StorageResult<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The file's counters, with the barriers this wrapper's store took.
    fn stats(&self) -> IoStats {
        IoStats { syncs: self.syncs.load(Ordering::Relaxed), ..self.inner.stats() }
    }
}

/// The WAL's segment files, each behind a [`CachedDisk`]; the barriers
/// are counted for the whole store.
pub struct CachedSegments {
    inner: FileSegmentStore,
    syncs: Arc<AtomicU64>,
}

impl SegmentStore for CachedSegments {
    fn open(&self, id: u64) -> StorageResult<Arc<dyn DiskManager>> {
        let inner = self.inner.open(id)?;
        Ok(Arc::new(CachedDisk { inner, syncs: Arc::clone(&self.syncs) }))
    }

    fn delete(&self, id: u64) -> StorageResult<()> {
        self.inner.delete(id)
    }

    fn list(&self) -> StorageResult<Vec<u64>> {
        self.inner.list()
    }

    fn io_stats(&self) -> IoStats {
        IoStats { syncs: self.syncs.load(Ordering::Relaxed), ..self.inner.io_stats() }
    }
}

/// A file-backed snapshot store that counts completed saves (one save is
/// one finished checkpoint, auto or explicit). It writes a temporary file
/// and renames it over the snapshot, as `FileSnapshotStore` does, without
/// waiting for the device (see [`CachedDisk`]).
pub struct CountingSnapshots {
    path: PathBuf,
    saves: AtomicU64,
}

impl CountingSnapshots {
    /// Checkpoints saved so far.
    pub fn saves(&self) -> u64 {
        self.saves.load(Ordering::Relaxed)
    }
}

impl SnapshotStore for CountingSnapshots {
    fn save(&self, bytes: &[u8]) -> StorageResult<()> {
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, &self.path)?;
        self.saves.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn load(&self) -> StorageResult<Option<Vec<u8>>> {
        match std::fs::read(&self.path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

/// One `SUBSCRIBE` consumer.
pub struct SubFeed {
    /// Feed id at the hub.
    pub id: u64,
    /// Its outbox.
    pub rx: Receiver<String>,
    /// `CHANGE … INSERT` lines received.
    pub inserts: u64,
    /// `CHANGE … DELETE` lines received.
    pub deletes: u64,
}

/// The `REPLICATE` consumer.
pub struct ReplFeed {
    /// Feed id at the hub.
    pub id: u64,
    /// Its outbox.
    pub rx: Receiver<String>,
    /// The last watermark acknowledged.
    pub acked: Lsn,
    /// `WALREC` records received.
    pub records: u64,
}

/// The feed consumers one client thread drains between its transactions.
#[derive(Default)]
pub struct Feeds {
    /// `SUBSCRIBE` consumers.
    pub subs: Vec<SubFeed>,
    /// The `REPLICATE` consumer, on the first thread only.
    pub repl: Option<ReplFeed>,
    /// Calls of `drain_feeds` since this thread last pumped the hubs.
    pub since_pump: u32,
}

/// One set-up: a server over file-backed stores in a fresh directory,
/// serving the wire protocol on a loopback port.
pub struct Env {
    /// The server.
    pub server: Server,
    /// The front end.
    pub net: NetHandle,
    /// The catalog the server runs over.
    pub catalog: Arc<Catalog>,
    /// The WAL's segment store.
    pub segments: Arc<CachedSegments>,
    /// The checkpoint snapshot store.
    pub snapshots: Arc<CountingSnapshots>,
    /// Heap pages of the workload's table at load.
    pub table_pages: usize,
    dir: PathBuf,
}

impl Env {
    /// Build the stores, load the data, start the server and its front
    /// end, connect the clients, and (on `transfer`) attach the feeds.
    pub fn setup(
        data: &Dataset,
        design: Design,
        dir: PathBuf,
    ) -> Result<(Env, Vec<Client>, Vec<Feeds>), String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let file = FileDisk::open(dir.join("data.db")).map_err(|e| format!("data file: {e}"))?;
        let disk = CachedDisk { inner: Arc::new(file), syncs: Arc::default() };
        let catalog = Arc::new(Catalog::new(BufferPool::new(Arc::new(disk), data.pool_frames)));
        let table_pages = data.load(&catalog).map_err(|e| format!("load: {e}"))?;
        let segments = Arc::new(CachedSegments {
            inner: FileSegmentStore::open(dir.join("wal")).map_err(|e| format!("wal dir: {e}"))?,
            syncs: Arc::default(),
        });
        let snapshots = Arc::new(CountingSnapshots {
            path: dir.join("snapshot.bin"),
            saves: AtomicU64::new(0),
        });
        let listener =
            std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let net_config = NetConfig::default();
        let (server, net) = match design {
            Design::Staged => {
                let config = ServerConfig {
                    partitions: PARTITIONS,
                    wal_segment_pages: WAL_SEGMENT_PAGES,
                    checkpoint_segments: Some(CHECKPOINT_SEGMENTS),
                    ..Default::default()
                };
                let s = StagedServer::with_stores(
                    Arc::clone(&catalog),
                    config,
                    None,
                    Arc::clone(&segments) as _,
                    Arc::clone(&snapshots) as _,
                )
                .map_err(|e| format!("staged server: {e}"))?;
                let net = net::serve(listener, Arc::clone(&s), net_config)
                    .map_err(|e| format!("serve: {e}"))?;
                (Server::Staged(s), net)
            }
            Design::Threaded => {
                let s = Arc::new(
                    ThreadedServer::with_stores(
                        Arc::clone(&catalog),
                        THREADED_POOL,
                        PlannerConfig::default(),
                        Duration::from_secs(2),
                        Arc::clone(&segments) as _,
                        Arc::clone(&snapshots) as _,
                    )
                    .map_err(|e| format!("threaded server: {e}"))?,
                );
                let net = net::serve(listener, Arc::clone(&s), net_config)
                    .map_err(|e| format!("serve: {e}"))?;
                (Server::Threaded(s), net)
            }
        };
        let env = Env { server, net, catalog, segments, snapshots, table_pages, dir };
        let addr = env.net.local_addr();
        let clients = (0..CLIENTS)
            .map(|_| {
                Client::connect_timeout(addr, Duration::from_secs(10))
                    .map_err(|e| format!("connect: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut feeds: Vec<Feeds> = (0..CLIENTS).map(|_| Feeds::default()).collect();
        if data.workload == Workload::Transfer {
            for i in 0..SUBSCRIBERS {
                let (id, rx) = env
                    .server
                    .reactivity()
                    .subscribe(data.table(), None)
                    .map_err(|e| format!("subscribe: {e}"))?;
                feeds[i % CLIENTS].subs.push(SubFeed { id, rx, inserts: 0, deletes: 0 });
            }
            // The log is empty: every table was loaded below the WAL.
            let (id, rx) = env
                .server
                .replication()
                .subscribe(Lsn::ZERO)
                .map_err(|e| format!("replicate: {e}"))?;
            feeds[0].repl = Some(ReplFeed { id, rx, acked: Lsn::ZERO, records: 0 });
        }
        Ok((env, clients, feeds))
    }

    /// The set-up's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        self.net.shutdown();
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
