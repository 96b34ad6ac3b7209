//! The work-centric thread-pool baseline (paper §3.1.1).
//!
//! "A pool of threads that picks a client from the queue, works on the
//! client until it exits the execution engine, puts it on an exit queue and
//! picks another client from the input queue." Each worker runs the entire
//! parse → optimize → execute pipeline as direct procedure calls on the
//! Volcano engine; the pool size is the knob whose tuning dilemma Figure 2
//! demonstrates.

use crate::log_tail::{LogTail, ReactivityHub, ReplicationHub, DEFAULT_OUTBOX_CAPACITY};
use crate::pipeline::{self, Exec, Parsed, PlannedAction};
use crate::session::{StatementCtx, TxnRuntime};
use crate::types::{QueryOutput, Request, RequestBody, Response, ServerError};
use crossbeam::channel::{bounded, Receiver};
use parking_lot::Mutex;
use staged_core::error::EnqueueError;
use staged_core::queue::{Dequeued, StageQueue};
use staged_engine::checkpoint;
use staged_engine::context::ExecContext;
use staged_engine::txn::LockMode;
use staged_planner::PlannerConfig;
use staged_storage::wal::Wal;
use staged_storage::{Catalog, MemSegmentStore, MemSnapshotStore, SegmentStore, SnapshotStore};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

struct Inner {
    catalog: Arc<Catalog>,
    ctx: ExecContext,
    wal: Arc<Wal>,
    snapshots: Arc<dyn SnapshotStore>,
    planner: PlannerConfig,
    queue: StageQueue<Request>,
    txn: TxnRuntime,
    lock_timeout: Duration,
    served: AtomicU64,
    pool_size: usize,
    /// WAL-shipping front door (primary side of replication) onto the one
    /// log tail, which the dedicated `repl-pump` thread pumps — the
    /// monolithic counterpart of the staged server's `replication` stage.
    replication: Arc<ReplicationHub>,
    /// `SUBSCRIBE` change-feed front door onto the same tail.
    reactivity: Arc<ReactivityHub>,
    /// Stops the `repl-pump` thread at shutdown.
    stop: AtomicBool,
}

impl Inner {
    fn submit(&self, sql: String, session: Option<u64>) -> Receiver<Response> {
        let (tx, rx) = bounded(1);
        let req = Request { body: RequestBody::Sql(sql), session, reply: tx };
        if let Err(e) = self.queue.enqueue(req) {
            let _ = e.into_packet().reply.send(Err(ServerError::ShuttingDown));
        }
        rx
    }

    /// Non-blocking submission for the event-driven front end: a full
    /// pool queue is reported as `Overloaded` instead of blocking the
    /// caller, so the network loop can stop reading the socket and let
    /// back-pressure reach TCP.
    fn try_submit(
        &self,
        sql: String,
        session: Option<u64>,
    ) -> Result<Receiver<Response>, ServerError> {
        let (tx, rx) = bounded(1);
        let req = Request { body: RequestBody::Sql(sql), session, reply: tx };
        match self.queue.try_enqueue(req) {
            Ok(()) => Ok(rx),
            Err(EnqueueError::Full(_)) => Err(ServerError::Overloaded),
            Err(EnqueueError::Closed(_)) => Err(ServerError::ShuttingDown),
        }
    }
}

/// The thread-pool server.
pub struct ThreadedServer {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    pump: Mutex<Option<JoinHandle<()>>>,
}

impl ThreadedServer {
    /// Start a pool of `pool_size` workers over `catalog`.
    pub fn new(catalog: Arc<Catalog>, pool_size: usize, planner: PlannerConfig) -> Self {
        Self::with_lock_timeout(catalog, pool_size, planner, Duration::from_secs(2))
    }

    /// Like [`new`](Self::new) with an explicit deadlock timeout for the
    /// lock manager.
    pub fn with_lock_timeout(
        catalog: Arc<Catalog>,
        pool_size: usize,
        planner: PlannerConfig,
        lock_timeout: Duration,
    ) -> Self {
        Self::with_stores(
            catalog,
            pool_size,
            planner,
            lock_timeout,
            Arc::new(MemSegmentStore::new()),
            Arc::new(MemSnapshotStore::new()),
        )
        .expect("recovery from fresh in-memory stores cannot fail")
    }

    /// Build the pool over existing WAL-segment and snapshot stores,
    /// running checkpointed recovery first (the same protocol as
    /// `StagedServer::with_stores`: restore the snapshot, replay the WAL
    /// tail, repair the log).
    pub fn with_stores(
        catalog: Arc<Catalog>,
        pool_size: usize,
        planner: PlannerConfig,
        lock_timeout: Duration,
        segments: Arc<dyn SegmentStore>,
        snapshots: Arc<dyn SnapshotStore>,
    ) -> Result<Self, ServerError> {
        let ctx = ExecContext::new(Arc::clone(&catalog));
        let (wal, _report) = checkpoint::recover(
            &ctx,
            segments,
            snapshots.as_ref(),
            staged_storage::DEFAULT_SEGMENT_PAGES,
        )
        .map_err(|e| ServerError::Execution(format!("recovery failed: {e}")))?;
        let wal = Arc::new(wal);
        let tail = Arc::new(LogTail::new(
            Arc::clone(&wal),
            DEFAULT_OUTBOX_CAPACITY,
            DEFAULT_OUTBOX_CAPACITY,
        ));
        let replication = Arc::new(ReplicationHub::new(Arc::clone(&tail)));
        let reactivity = Arc::new(ReactivityHub::new(tail, Arc::clone(&catalog)));
        let txn = TxnRuntime::for_catalog(&catalog);
        let inner = Arc::new(Inner {
            ctx,
            catalog,
            wal,
            snapshots,
            planner,
            queue: StageQueue::new(1024),
            txn,
            lock_timeout,
            served: AtomicU64::new(0),
            pool_size: pool_size.max(1),
            replication,
            reactivity,
            stop: AtomicBool::new(false),
        });
        let workers = (0..pool_size.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("pool-worker-{i}"))
                    .spawn(move || worker_loop(inner))
                    .expect("spawn pool worker")
            })
            .collect();
        // The feed pump: in the monolithic server there is no stage to hang
        // an idle hook on, so a dedicated thread pumps the log tail (every
        // replica and subscriber feed). The network loop still pumps when a
        // feed is caught up; this thread mainly bounds eviction latency.
        let pump = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("repl-pump".into())
                .spawn(move || {
                    while !inner.stop.load(Ordering::Acquire) {
                        inner.replication.pump();
                        std::thread::sleep(Duration::from_millis(5));
                    }
                })
                .expect("spawn replication pump")
        };
        Ok(Self { inner, workers: Mutex::new(workers), pump: Mutex::new(Some(pump)) })
    }

    /// Run a checkpoint on the calling thread — the monolithic-server
    /// shape of the staged server's checkpoint stage: block until every
    /// partition lock is held (quiescing the writers), snapshot, truncate
    /// the WAL below the snapshot's LSN, release.
    pub fn checkpoint(&self) -> Response {
        let inner = &self.inner;
        let locks = inner.txn.mgr().locks();
        let _guard = checkpoint::quiesce(locks, &inner.catalog, inner.lock_timeout)
            .map_err(|e| ServerError::Execution(e.to_string()))?;
        // Truncation holds back history a live feed still needs: what a
        // replica has not yet acked, what a subscriber has not yet read.
        let outcome = checkpoint::checkpoint_with_floor(
            &inner.catalog,
            &inner.wal,
            inner.snapshots.as_ref(),
            inner.replication.tail().floor(),
        )
        .map_err(|e| ServerError::Execution(e.to_string()))?;
        // The quiesce guard is still held: the database is still, so this
        // is the one safe moment to reclaim dead versions.
        let gc = checkpoint::vacuum(&inner.catalog, inner.txn.mgr());
        Ok(QueryOutput::message(format!(
            "CHECKPOINT {} rows={} segments_deleted={} versions_gc={}",
            outcome.lsn, outcome.rows, outcome.segments_deleted, gc.dead_removed
        )))
    }

    /// Submit SQL for execution (one-shot autocommit; use
    /// [`session`](Self::session) for multi-statement transactions).
    pub fn submit(&self, sql: impl Into<String>) -> Receiver<Response> {
        self.inner.submit(sql.into(), None)
    }

    /// Run one statement to completion.
    pub fn execute_sql(&self, sql: &str) -> Response {
        self.submit(sql).recv().unwrap_or(Err(ServerError::ShuttingDown))
    }

    /// Open a client session. Statements run through the handle share the
    /// session's transaction state (`BEGIN` … `COMMIT`/`ROLLBACK`);
    /// dropping the handle aborts any transaction still open.
    pub fn session(&self) -> ThreadedSession {
        ThreadedSession { inner: Arc::clone(&self.inner), sid: self.inner.txn.open_session() }
    }

    /// Live transactions (diagnostics).
    pub fn active_txns(&self) -> usize {
        self.inner.txn.mgr().active_count()
    }

    /// Queries completed so far.
    pub fn served(&self) -> u64 {
        self.inner.served.load(Ordering::Relaxed)
    }

    /// Current input-queue depth.
    pub fn backlog(&self) -> usize {
        self.inner.queue.len()
    }

    /// Size of the worker pool, as configured at construction.
    pub fn pool_size(&self) -> usize {
        self.inner.pool_size
    }

    /// The WAL-shipping front door of the log tail (primary side of
    /// replication): replica subscriptions, `ACK`s, and the replicas-only
    /// acked floor.
    pub fn replication_hub(&self) -> &Arc<ReplicationHub> {
        &self.inner.replication
    }

    /// The subscription front door of the log tail (`SUBSCRIBE` change
    /// feeds): registrations, unsubscribe and drain.
    pub fn reactivity_hub(&self) -> &Arc<ReactivityHub> {
        &self.inner.reactivity
    }

    pub(crate) fn catalog(&self) -> &Arc<Catalog> {
        &self.inner.catalog
    }

    pub(crate) fn txn_runtime(&self) -> &TxnRuntime {
        &self.inner.txn
    }

    /// Stop the pool, draining queued requests first. Takes `&self` —
    /// the same shutdown contract as `StagedServer::shutdown` — and is
    /// idempotent: every request admitted before the call is answered
    /// (closing the queue lets workers drain pending packets and then
    /// observe `Closed`), later submissions get `ShuttingDown`.
    pub fn shutdown(&self) {
        self.inner.queue.close();
        self.inner.stop.store(true, Ordering::Release);
        for w in self.workers.lock().drain(..) {
            let _ = w.join();
        }
        if let Some(p) = self.pump.lock().take() {
            let _ = p.join();
        }
    }
}

fn worker_loop(inner: Arc<Inner>) {
    loop {
        match inner.queue.dequeue_timeout(Duration::from_millis(20)) {
            Dequeued::Packet(req) => {
                let res = process(&inner, &req);
                inner.served.fetch_add(1, Ordering::Relaxed);
                let _ = req.reply.send(res);
            }
            Dequeued::TimedOut => continue,
            Dequeued::Closed => return,
        }
    }
}

/// A client session on the thread-pool server. Statements submitted here
/// run sequentially under the session's transaction state. Dropping the
/// handle aborts an in-flight transaction (abort-on-drop), releasing its
/// locks and undoing its writes.
pub struct ThreadedSession {
    inner: Arc<Inner>,
    sid: u64,
}

impl ThreadedSession {
    /// Session id.
    pub fn id(&self) -> u64 {
        self.sid
    }

    /// Submit SQL under this session.
    pub fn submit(&self, sql: impl Into<String>) -> Receiver<Response> {
        self.inner.submit(sql.into(), Some(self.sid))
    }

    /// Non-blocking submit under this session: `Err(Overloaded)` when the
    /// pool queue is full. This is the event-driven front end's admission
    /// path — the refusal lets the network loop stop reading the socket
    /// instead of blocking a thread on the queue.
    pub fn try_submit(&self, sql: impl Into<String>) -> Result<Receiver<Response>, ServerError> {
        self.inner.try_submit(sql.into(), Some(self.sid))
    }

    /// Run one statement to completion under this session.
    pub fn execute_sql(&self, sql: &str) -> Response {
        self.submit(sql).recv().unwrap_or(Err(ServerError::ShuttingDown))
    }

    /// Run one statement on the *calling* thread as a direct
    /// procedure-call chain, bypassing the pool queue. This is the network
    /// front end's thread-per-connection path: the connection's own thread
    /// is the worker that carries the statement through the whole
    /// pipeline — the classical monolithic shape the staged server is
    /// measured against. Refused once the server is shutting down.
    pub fn execute_sql_direct(&self, sql: &str) -> Response {
        if self.inner.queue.is_closed() {
            return Err(ServerError::ShuttingDown);
        }
        let (tx, _rx) = bounded(1);
        let req =
            Request { body: RequestBody::Sql(sql.to_string()), session: Some(self.sid), reply: tx };
        let res = process(&self.inner, &req);
        self.inner.served.fetch_add(1, Ordering::Relaxed);
        res
    }
}

impl Drop for ThreadedSession {
    fn drop(&mut self) {
        self.inner.txn.close_session(self.sid, &self.inner.ctx, &self.inner.wal);
    }
}

/// The whole pipeline as one procedure call chain — the monolithic model.
/// Lock acquisition is *sequential* here (block, then execute), the
/// baseline counterpart of the staged server's lock-manager stage.
fn process(inner: &Inner, req: &Request) -> Response {
    let RequestBody::Sql(sql) = &req.body else {
        return Err(ServerError::Sql("threaded server accepts raw SQL only".into()));
    };
    let action = match pipeline::parse_stage(sql, &inner.catalog, None)? {
        Parsed::NeedsPlan(bound) => {
            pipeline::optimize_stage(&bound, &inner.catalog, &inner.planner)?
        }
        Parsed::Action(a) => *a,
    };
    if let PlannedAction::TxnControl(stmt) = &action {
        return pipeline::execute_txn_control(
            stmt,
            req.session,
            &inner.txn,
            &inner.ctx,
            &inner.wal,
        );
    }
    // A session whose transaction was aborted server-side refuses every
    // statement until the client acknowledges with COMMIT/ROLLBACK.
    let stmt_ctx = inner.txn.statement_ctx(req.session)?;
    if matches!(stmt_ctx, StatementCtx::ReadOnly(_)) && pipeline::writes(&action) {
        return Err(ServerError::ReadOnly);
    }
    let mut keys = pipeline::dml_lock_keys(&action, &inner.catalog, &inner.planner);
    if keys.is_empty() {
        // Reads and DDL bypass the transaction machinery entirely; SELECTs
        // run as snapshot reads against the statement's MVCC view. The pin
        // guard (when one is taken) lives across execution so vacuum
        // cannot pass the view.
        let mut action = action;
        let _pin = pipeline::snapshot_select(&mut action, &inner.txn, &stmt_ctx);
        return pipeline::execute_stage(action, &inner.ctx, &inner.wal, 0, Exec::Volcano, None);
    }
    let mgr = inner.txn.mgr();
    let (xid, implicit) = match stmt_ctx {
        StatementCtx::Write(xid) => (xid, false),
        _ => (mgr.begin(&inner.wal).map_err(|e| ServerError::Execution(e.to_string()))?, true),
    };
    if mgr.locks().lock_all(xid, &mut keys, LockMode::Exclusive, inner.lock_timeout).is_err() {
        inner.txn.fail_txn(req.session, xid, &inner.ctx, &inner.wal);
        return Err(ServerError::Execution(
            "lock timeout: transaction aborted (presumed deadlock)".into(),
        ));
    }
    let res =
        pipeline::execute_stage(action, &inner.ctx, &inner.wal, xid, Exec::Volcano, Some(mgr));
    match &res {
        Ok(_) if implicit => {
            // Statement-level autocommit: the implicit transaction's commit
            // record is what makes it visible to redo recovery.
            if let Err(e) = mgr.commit(xid, &inner.ctx, &inner.wal) {
                return Err(ServerError::Execution(e.to_string()));
            }
        }
        Ok(_) => {}
        Err(_) => {
            // Failed statements abort the whole transaction (implicit or
            // explicit): partial writes are undone, locks released.
            inner.txn.fail_txn(req.session, xid, &inner.ctx, &inner.wal);
        }
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_storage::{BufferPool, MemDisk};

    fn server(pool: usize) -> ThreadedServer {
        let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 256)));
        ThreadedServer::new(cat, pool, PlannerConfig::default())
    }

    #[test]
    fn end_to_end_sql() {
        let s = server(2);
        s.execute_sql("CREATE TABLE kv (k INT, v VARCHAR(16))").unwrap();
        s.execute_sql("INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three')").unwrap();
        let out = s.execute_sql("SELECT v FROM kv WHERE k = 2").unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].to_string(), "['two']");
        let out = s.execute_sql("DELETE FROM kv WHERE k > 1").unwrap();
        assert_eq!(out.message, "DELETE 2");
        s.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let s = server(4);
        s.execute_sql("CREATE TABLE n (x INT)").unwrap();
        for i in 0..32 {
            s.execute_sql(&format!("INSERT INTO n VALUES ({i})")).unwrap();
        }
        let receivers: Vec<_> = (0..16).map(|_| s.submit("SELECT COUNT(*) FROM n")).collect();
        for rx in receivers {
            let out = rx.recv().unwrap().unwrap();
            assert_eq!(out.rows[0].to_string(), "[32]");
        }
        assert!(s.served() >= 16 + 33);
        s.shutdown();
    }

    #[test]
    fn shutdown_drains_every_admitted_request() {
        let s = server(1);
        s.execute_sql("CREATE TABLE d (x INT)").unwrap();
        s.execute_sql("INSERT INTO d VALUES (1), (2), (3)").unwrap();
        // Flood the single worker so most requests are still queued when
        // shutdown is called: none may be silently dropped.
        let receivers: Vec<_> = (0..64).map(|_| s.submit("SELECT COUNT(*) FROM d")).collect();
        s.shutdown();
        for rx in receivers {
            let out = rx.recv().expect("drained response").unwrap();
            assert_eq!(out.rows[0].to_string(), "[3]");
        }
        // After shutdown new submissions are refused loudly, not dropped.
        assert!(matches!(
            s.submit("SELECT COUNT(*) FROM d").recv(),
            Ok(Err(ServerError::ShuttingDown))
        ));
        // And shutdown is idempotent under the unified `&self` contract.
        s.shutdown();
    }

    #[test]
    fn direct_execution_matches_pooled_and_respects_shutdown() {
        let s = server(2);
        s.execute_sql("CREATE TABLE d2 (x INT)").unwrap();
        let sess = s.session();
        sess.execute_sql_direct("BEGIN").unwrap();
        sess.execute_sql_direct("INSERT INTO d2 VALUES (7)").unwrap();
        sess.execute_sql_direct("COMMIT").unwrap();
        // Pooled and direct paths see the same state.
        let out = sess.execute_sql("SELECT x FROM d2").unwrap();
        assert_eq!(out.rows[0].to_string(), "[7]");
        assert!(s.served() >= 5);
        s.shutdown();
        assert!(matches!(
            sess.execute_sql_direct("SELECT x FROM d2"),
            Err(ServerError::ShuttingDown)
        ));
    }

    #[test]
    fn sql_errors_are_reported_not_fatal() {
        let s = server(1);
        assert!(matches!(s.execute_sql("SELEC nope"), Err(ServerError::Sql(_))));
        assert!(matches!(s.execute_sql("SELECT * FROM missing"), Err(ServerError::Sql(_))));
        // Server still healthy.
        s.execute_sql("CREATE TABLE ok (x INT)").unwrap();
        s.shutdown();
    }
}
