//! WAL-shipping replication: a STAR-style asymmetric pair of roles.
//!
//! The **primary** (either server) runs transactions exactly as before and
//! ships its log through the [`crate::ReplicationHub`] front door of its
//! [`crate::log_tail::LogTail`]: each connected replica is a feed with a
//! *bounded* outbox of `WALREC` frames punctuated by `WALEOF` watermarks,
//! read from the primary's own log segments by the one pump that also
//! serves `SUBSCRIBE` feeds. A full outbox is flow control; a replica
//! that accepts nothing across
//! [`EVICTION_FULL_STRIKES`](crate::log_tail::EVICTION_FULL_STRIKES)
//! consecutive full visits is evicted (disconnected) rather than buffered
//! without bound, so a stalled replica can never hold memory — or commit
//! latency — hostage. On the staged server the pump runs as a dedicated
//! `replication` pipeline stage; on the threaded baseline it is a plain
//! pump thread: the same asymmetry-of-policy the paper uses everywhere
//! else.
//!
//! The **replica** ([`ReplicaServer`]) dials the primary, sends
//! `REPLICATE <from-lsn>`, and from then on the connection is a one-way
//! record feed (plus `ACK` lines flowing back). Every shipped record is
//! appended *verbatim* to the replica's own segmented WAL, configured with
//! the **same segment size** as the primary: the log format packs records
//! deterministically, so the replica's append LSNs reproduce the
//! primary's exactly (an explicit `rotate()` mirrors the primary's
//! checkpoint rotations whenever a shipped record jumps to a new segment).
//! The invariant is checked on every append — a mismatch aborts the
//! stream as a protocol error instead of silently diverging. Because the
//! logs are byte-addressed identically, **resume is trivial**: after a
//! crash or disconnect the replica re-subscribes from its own
//! `wal.next_lsn()`, which *is* the primary's address of the first record
//! it is missing. No record is lost, none applies twice, and a torn tail
//! repaired by [`Wal::open_with_segment_pages`] simply re-ships the
//! damaged suffix.
//!
//! Apply is transactional: records buffer per xid and land only when the
//! transaction's `Commit` arrives, through
//! [`staged_engine::dml::apply_versioned_txn`] — heap changes are stamped
//! pending and visibility flips atomically through the commit oracle, so
//! the replica's snapshot readers never observe a torn transaction.
//!
//! A replica serves reads only. DML is refused with the
//! `READ_ONLY_REPLICA` wire code, and so is a plain `BEGIN`: a read-write
//! transaction would append its own `Begin` record to the replica's WAL
//! and break the mirror layout (nothing but shipped records may ever land
//! there). `BEGIN READ ONLY` / `COMMIT` / `ROLLBACK` work, and DDL is
//! allowed as the *schema bootstrap* path — DDL appends nothing to the
//! WAL, and the operator must run the same DDL in the same creation order
//! as the primary so table ids line up (see PROTOCOL.md §7).

use crate::log_tail::after;
use crate::pipeline::{self, Parsed, PlannedAction};
use crate::session::{StatementCtx, TxnRuntime};
use crate::types::{Response, ServerError};
use parking_lot::Mutex;
use staged_engine::context::ExecContext;
use staged_engine::dml;
use staged_planner::PlannerConfig;
use staged_sql::ast::Statement;
use staged_storage::wal::{LogRecord, Lsn, Wal};
use staged_storage::{Catalog, Rid, SegmentStore};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Replica construction parameters.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Pages per WAL segment. **Must equal the primary's** — the mirror
    /// layout (and with it exactly-once resume) depends on both logs
    /// packing records identically.
    pub wal_segment_pages: u64,
    /// Hash partitions for tables created through the replica's bootstrap
    /// DDL. Match the primary for an identical physical layout.
    pub partitions: usize,
    /// Planner switches for the replica's read sessions.
    pub planner: PlannerConfig,
    /// Pause between reconnect attempts after the feed drops.
    pub reconnect: Duration,
    /// How often the streaming thread re-checks the shutdown flag while
    /// the feed is quiet.
    pub poll_interval: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        Self {
            wal_segment_pages: staged_storage::DEFAULT_SEGMENT_PAGES,
            partitions: 1,
            planner: PlannerConfig::default(),
            reconnect: Duration::from_millis(100),
            poll_interval: Duration::from_millis(25),
        }
    }
}

/// A replica's position, as reported by the `replication` STATS row and
/// the `\replica` dbsh command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// One past the last record whose transaction outcome (commit or
    /// abort) has been applied to the replica's tables. Monotone across
    /// crashes and reconnects.
    pub applied_lsn: Lsn,
    /// Records received and persisted but not yet applied: buffered behind
    /// their transaction's commit, or deferred because their table's
    /// bootstrap DDL has not run here yet.
    pub lag_records: u64,
}

struct ApplyState {
    /// Per-xid record runs awaiting their `Commit`.
    pending: HashMap<u64, Vec<LogRecord>>,
    /// Committed transactions whose apply failed — typically because they
    /// shipped before the operator mirrored the table's `CREATE TABLE`
    /// here. They are durable in the replica WAL; the apply is retried in
    /// commit order at every later commit, watermark, and read.
    deferred: VecDeque<Vec<LogRecord>>,
    /// Primary rid → local rid, carried across restarts by boot replay.
    rid_map: HashMap<(u32, Rid), Rid>,
    applied_lsn: Lsn,
}

/// The read-only replica: a catalog fed exclusively by shipped WAL
/// records, serving snapshot reads. Build with [`open`](Self::open)
/// (which replays any durable local log), then [`start`](Self::start)
/// the streaming thread; read sessions come from
/// [`session`](Self::session) or the network front end.
pub struct ReplicaServer {
    catalog: Arc<Catalog>,
    ctx: ExecContext,
    wal: Wal,
    txn: TxnRuntime,
    config: ReplicaConfig,
    apply: Mutex<ApplyState>,
    connected: AtomicBool,
    connects: AtomicU64,
    stream_errors: AtomicU64,
    applied_records: AtomicU64,
    served: AtomicU64,
    stop: AtomicBool,
    thread: Mutex<Option<JoinHandle<()>>>,
}

/// Feed-side counters for the replica's `replication` STATS row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaFeedStats {
    /// Currently subscribed to a primary.
    pub connected: bool,
    /// Successful subscriptions so far (reconnects = `connects - 1`).
    pub connects: u64,
    /// Stream teardowns caused by errors (decode failures, layout
    /// divergence, refused subscriptions, I/O errors).
    pub stream_errors: u64,
    /// Records applied to tables (committed transactions only).
    pub applied_records: u64,
}

impl ReplicaServer {
    /// Open a replica over `segments` — its own WAL store, *not* the
    /// primary's. Any durable records found there are replayed first:
    /// committed transactions land in the tables, and the records of
    /// still-open transactions at the tail are re-buffered (their
    /// `Commit` may arrive on the resumed feed without the body being
    /// re-shipped). A torn tail is repaired; the damaged suffix will
    /// simply be shipped again.
    ///
    /// `catalog` must already hold the schema — created by the same DDL,
    /// in the same order, as on the primary (see the module docs).
    pub fn open(
        catalog: Arc<Catalog>,
        segments: Arc<dyn SegmentStore>,
        config: ReplicaConfig,
    ) -> Result<Arc<Self>, ServerError> {
        let ctx = ExecContext::new(Arc::clone(&catalog)).with_partitions(config.partitions);
        let exec_err = |e: &dyn std::fmt::Display| ServerError::Execution(format!("replica: {e}"));
        let (records, _damage) = Wal::read_store(segments.as_ref());
        let wal = Wal::open_with_segment_pages(segments, config.wal_segment_pages)
            .map_err(|e| exec_err(&e))?;
        let mut rid_map = HashMap::new();
        dml::apply_records(&ctx, &records, &mut rid_map, &HashMap::new())
            .map_err(|e| exec_err(&e))?;
        let resolved: HashSet<u64> = records
            .iter()
            .filter_map(|(_, r)| match r {
                LogRecord::Commit { xid } | LogRecord::Abort { xid } => Some(*xid),
                _ => None,
            })
            .collect();
        let mut pending: HashMap<u64, Vec<LogRecord>> = HashMap::new();
        for (_, rec) in &records {
            if matches!(rec, LogRecord::Insert { .. } | LogRecord::Delete { .. })
                && !resolved.contains(&rec.xid())
            {
                pending.entry(rec.xid()).or_default().push(rec.clone());
            }
        }
        let applied_lsn = records
            .iter()
            .filter(|(_, r)| matches!(r, LogRecord::Commit { .. } | LogRecord::Abort { .. }))
            .map(|(l, _)| after(*l))
            .max()
            .unwrap_or(Lsn::ZERO);
        let txn = TxnRuntime::for_catalog(&catalog);
        Ok(Arc::new(Self {
            catalog,
            ctx,
            wal,
            txn,
            config,
            apply: Mutex::new(ApplyState {
                pending,
                deferred: VecDeque::new(),
                rid_map,
                applied_lsn,
            }),
            connected: AtomicBool::new(false),
            connects: AtomicU64::new(0),
            stream_errors: AtomicU64::new(0),
            applied_records: AtomicU64::new(0),
            served: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            thread: Mutex::new(None),
        }))
    }

    /// Start (or restart) the streaming thread against `primary`
    /// (`host:port`). The thread subscribes from the replica's own
    /// durable position, applies the feed, and reconnects with backoff
    /// whenever the feed drops — including after an eviction — until
    /// [`shutdown`](Self::shutdown).
    pub fn start(self: &Arc<Self>, primary: impl Into<String>) {
        let primary = primary.into();
        // At most one feed thread: stop any previous one, then re-arm the
        // flag (after a shutdown the old value would kill the new thread
        // on arrival).
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
        self.stop.store(false, Ordering::SeqCst);
        let me = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("replica-feed".into())
            .spawn(move || me.stream_loop(&primary))
            .expect("spawn replica feed thread");
        *self.thread.lock() = Some(handle);
    }

    /// Stop the streaming thread and wait for it. Idempotent; read
    /// sessions keep working on the last applied state.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }

    /// The replica's position.
    pub fn status(&self) -> ReplicaStatus {
        let st = self.apply.lock();
        ReplicaStatus {
            applied_lsn: st.applied_lsn,
            lag_records: st.pending.values().map(|v| v.len() as u64).sum::<u64>()
                + st.deferred.iter().map(|v| v.len() as u64).sum::<u64>(),
        }
    }

    /// Feed-side counters.
    pub fn feed_stats(&self) -> ReplicaFeedStats {
        ReplicaFeedStats {
            connected: self.connected.load(Ordering::Relaxed),
            connects: self.connects.load(Ordering::Relaxed),
            stream_errors: self.stream_errors.load(Ordering::Relaxed),
            applied_records: self.applied_records.load(Ordering::Relaxed),
        }
    }

    /// The replica's own WAL (tests probe `next_lsn` and the store).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Statements served.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    pub(crate) fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub(crate) fn txn_runtime(&self) -> &TxnRuntime {
        &self.txn
    }

    /// Open a read session. `BEGIN READ ONLY` pins a snapshot exactly as
    /// on the primary; DML and plain `BEGIN` are refused with
    /// [`ServerError::ReadOnlyReplica`].
    pub fn session(self: &Arc<Self>) -> ReplicaSession {
        ReplicaSession { replica: Arc::clone(self), sid: self.txn.open_session() }
    }

    /// Run one statement outside any session (autocommit reads, bootstrap
    /// DDL).
    pub fn execute_sql(&self, sql: &str) -> Response {
        self.execute(sql, None)
    }

    fn execute(&self, sql: &str, session: Option<u64>) -> Response {
        // Transactions that shipped before their table's bootstrap DDL sit
        // in the deferred queue; give them a chance to land before this
        // statement runs (cheap no-op when the queue is empty).
        {
            let mut st = self.apply.lock();
            if !st.deferred.is_empty() {
                self.drain_deferred(&mut st);
            }
        }
        let action = match pipeline::parse_stage(sql, &self.catalog, None)? {
            Parsed::NeedsPlan(bound) => {
                pipeline::optimize_stage(&bound, &self.catalog, &self.config.planner)?
            }
            Parsed::Action(a) => *a,
        };
        if let PlannedAction::TxnControl(stmt) = &action {
            // A read-write BEGIN would allocate an xid and append its own
            // Begin record to the replica's WAL — breaking the mirror
            // layout. Only the snapshot flavour may open a transaction.
            if matches!(stmt, Statement::Begin { read_only: false }) {
                return Err(ServerError::ReadOnlyReplica);
            }
            return pipeline::execute_txn_control(stmt, session, &self.txn, &self.ctx, &self.wal);
        }
        if action.is_dml() {
            return Err(ServerError::ReadOnlyReplica);
        }
        let stmt_ctx = self.txn.statement_ctx(session)?;
        if matches!(stmt_ctx, StatementCtx::ReadOnly(_)) && pipeline::writes(&action) {
            return Err(ServerError::ReadOnly);
        }
        // Reads and bootstrap DDL. DDL touches only the catalog (it is
        // not WAL-logged), so the mirror layout is safe.
        let mut action = action;
        let _pin = pipeline::snapshot_select(&mut action, &self.txn, &stmt_ctx);
        let res =
            pipeline::execute_stage(action, &self.ctx, &self.wal, 0, pipeline::Exec::Volcano, None);
        self.served.fetch_add(1, Ordering::Relaxed);
        res
    }

    // -- the feed ----------------------------------------------------------

    fn stream_loop(self: Arc<Self>, primary: &str) {
        let mut first = true;
        while !self.stop.load(Ordering::SeqCst) {
            if !first {
                std::thread::sleep(self.config.reconnect);
                if self.stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            first = false;
            if let Err(_e) = self.stream_once(primary) {
                self.stream_errors.fetch_add(1, Ordering::Relaxed);
            }
            self.connected.store(false, Ordering::Relaxed);
        }
    }

    /// One subscription: connect, handshake, apply until the feed drops.
    /// `Ok` is a clean teardown (remote closed, shutdown); `Err` is a
    /// protocol or I/O failure. Either way the caller reconnects.
    fn stream_once(&self, primary: &str) -> Result<(), String> {
        let io_err = |e: std::io::Error| format!("replica feed: {e}");
        let mut stream = TcpStream::connect(primary).map_err(io_err)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(self.config.poll_interval)).map_err(io_err)?;
        let from = self.wal.next_lsn();
        stream
            .write_all(
                format!("REPLICATE {}\n", staged_wire::format_lsn(from.segment, from.offset))
                    .as_bytes(),
            )
            .map_err(io_err)?;
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut greeted = false;
        loop {
            while let Some(nl) = buf.iter().position(|b| *b == b'\n') {
                let line: Vec<u8> = buf.drain(..=nl).collect();
                let line = std::str::from_utf8(&line[..nl])
                    .map_err(|_| "feed line is not UTF-8".to_string())?
                    .trim_end_matches('\r');
                if !greeted {
                    // The server greets before reading our REPLICATE.
                    if !line.starts_with("HELLO ") {
                        return Err(format!("expected HELLO, got: {line}"));
                    }
                    greeted = true;
                    self.connected.store(true, Ordering::Relaxed);
                    self.connects.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                if let Some(err) = line.strip_prefix("ERR ") {
                    return Err(format!("subscription refused: {err}"));
                }
                match staged_wire::parse_repl_frame(line)? {
                    staged_wire::ReplFrame::Record { segment, offset, payload } => {
                        let rec = LogRecord::from_bytes(&payload)
                            .map_err(|e| format!("bad shipped record: {e}"))?;
                        self.ingest(Lsn { segment, offset }, rec)?;
                    }
                    staged_wire::ReplFrame::Eof { .. } => {
                        {
                            let mut st = self.apply.lock();
                            if !st.deferred.is_empty() {
                                self.drain_deferred(&mut st);
                            }
                        }
                        self.wal.flush().map_err(|e| format!("replica WAL flush: {e}"))?;
                        let durable = self.wal.flushed_lsn();
                        stream
                            .write_all(
                                format!(
                                    "{}\n",
                                    staged_wire::encode_ack(durable.segment, durable.offset)
                                )
                                .as_bytes(),
                            )
                            .map_err(io_err)?;
                    }
                }
            }
            if self.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(()), // evicted or primary gone
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(e) => return Err(io_err(e)),
            }
        }
    }

    /// Persist one shipped record at its primary address and apply its
    /// transaction if this record resolves it.
    fn ingest(&self, lsn: Lsn, rec: LogRecord) -> Result<(), String> {
        let mut st = self.apply.lock();
        if lsn < self.wal.next_lsn() {
            // Already durable here (the primary re-shipped past our ack).
            return Ok(());
        }
        // Mirror the primary's explicit (checkpoint) rotations; in-segment
        // growth rotates by itself because the segment sizes match.
        while self.wal.next_lsn().segment < lsn.segment {
            self.wal.rotate().map_err(|e| format!("replica WAL rotate: {e}"))?;
        }
        let got = self.wal.append(&rec).map_err(|e| format!("replica WAL append: {e}"))?;
        if got != lsn {
            return Err(format!(
                "replica WAL diverged from the shipped layout: record {lsn} landed at {got} \
                 (segment size mismatch?)"
            ));
        }
        match &rec {
            LogRecord::Commit { xid } => {
                let recs = st.pending.remove(xid).unwrap_or_default();
                st.deferred.push_back(recs);
                self.drain_deferred(&mut st);
                st.applied_lsn = after(lsn);
            }
            LogRecord::Abort { xid } => {
                st.pending.remove(xid);
                st.applied_lsn = after(lsn);
            }
            LogRecord::Begin { .. } => {}
            LogRecord::Insert { .. } | LogRecord::Delete { .. } => {
                st.pending.entry(rec.xid()).or_default().push(rec);
            }
        }
        Ok(())
    }

    /// Apply deferred committed transactions in commit order, stopping at
    /// the first that still fails (its bootstrap DDL has not run yet). A
    /// failure never drops the transaction: it is durable in the replica
    /// WAL and stays queued for the next retry.
    fn drain_deferred(&self, st: &mut ApplyState) {
        let mut applied = 0u64;
        while let Some(txn) = st.deferred.pop_front() {
            match dml::apply_versioned_txn(&self.ctx, &txn, &mut st.rid_map) {
                Ok(n) => applied += n,
                Err(_) => {
                    st.deferred.push_front(txn);
                    break;
                }
            }
        }
        if applied > 0 {
            self.applied_records.fetch_add(applied, Ordering::Relaxed);
        }
    }
}

/// A read session on a replica. Dropping it aborts (unpins) any open
/// `BEGIN READ ONLY` transaction, exactly like the primary's sessions.
pub struct ReplicaSession {
    replica: Arc<ReplicaServer>,
    sid: u64,
}

impl ReplicaSession {
    /// Session id.
    pub fn id(&self) -> u64 {
        self.sid
    }

    /// Run one statement under this session.
    pub fn execute_sql(&self, sql: &str) -> Response {
        self.replica.execute(sql, Some(self.sid))
    }
}

impl Drop for ReplicaSession {
    fn drop(&mut self) {
        self.replica.txn.close_session(self.sid, &self.replica.ctx, &self.replica.wal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_storage::{BufferPool, MemDisk, MemSegmentStore};

    fn catalog() -> Arc<Catalog> {
        Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 512)))
    }

    #[test]
    fn replica_refuses_writes_and_plain_begin_but_serves_reads() {
        let replica = ReplicaServer::open(
            catalog(),
            Arc::new(MemSegmentStore::new()),
            ReplicaConfig::default(),
        )
        .unwrap();
        replica.execute_sql("CREATE TABLE t (k INT, v INT)").unwrap();
        assert!(matches!(
            replica.execute_sql("INSERT INTO t VALUES (1, 2)"),
            Err(ServerError::ReadOnlyReplica)
        ));
        let sess = replica.session();
        assert!(matches!(sess.execute_sql("BEGIN"), Err(ServerError::ReadOnlyReplica)));
        sess.execute_sql("BEGIN READ ONLY").unwrap();
        let out = sess.execute_sql("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(out.rows[0].to_string(), "[0]");
        sess.execute_sql("COMMIT").unwrap();
        assert_eq!(replica.status().applied_lsn, Lsn::ZERO);
    }

    #[test]
    fn boot_replay_applies_committed_and_rebuffers_open_transactions() {
        // Build a "shipped" log by hand: one committed insert, one insert
        // whose commit has not arrived yet.
        let store = Arc::new(MemSegmentStore::new());
        {
            let wal = Wal::open_with_segment_pages(Arc::clone(&store) as Arc<dyn SegmentStore>, 4)
                .unwrap();
            let cat = catalog();
            let ctx = ExecContext::new(Arc::clone(&cat));
            let t = {
                cat.create_table_partitioned(
                    "t",
                    staged_storage::Schema::new(vec![staged_storage::Column::new(
                        "k",
                        staged_storage::DataType::Int,
                    )]),
                    1,
                    0,
                )
                .unwrap()
            };
            let row = staged_storage::Tuple::new(vec![staged_storage::Value::Int(7)]);
            let (_, rid) = t.heap.insert_routed(&row).unwrap();
            wal.append(&LogRecord::Begin { xid: 1 }).unwrap();
            wal.append(&LogRecord::Insert { xid: 1, table: t.id.0, rid, bytes: row.encode() })
                .unwrap();
            wal.append(&LogRecord::Commit { xid: 1 }).unwrap();
            wal.append(&LogRecord::Begin { xid: 2 }).unwrap();
            wal.append(&LogRecord::Insert { xid: 2, table: t.id.0, rid, bytes: row.encode() })
                .unwrap();
            wal.flush().unwrap();
            let _ = ctx;
        }
        // The schema must exist (same DDL, same order) before boot replay.
        let cat = catalog();
        cat.create_table_partitioned(
            "t",
            staged_storage::Schema::new(vec![staged_storage::Column::new(
                "k",
                staged_storage::DataType::Int,
            )]),
            1,
            0,
        )
        .unwrap();
        let replica = ReplicaServer::open(
            cat,
            store as Arc<dyn SegmentStore>,
            ReplicaConfig { wal_segment_pages: 4, ..ReplicaConfig::default() },
        )
        .unwrap();
        let status = replica.status();
        assert_eq!(status.lag_records, 1, "open transaction re-buffered");
        assert!(status.applied_lsn > Lsn::ZERO, "committed prefix applied");
    }
}
