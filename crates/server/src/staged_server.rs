//! The staged DBMS server (paper Figure 3, top row).

use crate::log_tail::{LogTail, ReactivityHub, ReplicationHub};
use crate::pipeline::{self, Exec, Parsed, PlannedAction};
use crate::session::{StatementCtx, TxnRuntime};
use crate::types::{ExecutionMode, Response, ServerConfig, ServerError};
use crossbeam::channel::{bounded, Receiver};
use parking_lot::Mutex;
use staged_cachesim::tracker::RefTracker;
use staged_core::monitor::StageStats;
use staged_core::prelude::*;
use staged_engine::checkpoint::{self, RecoveryReport, CHECKPOINT_XID};
use staged_engine::context::ExecContext;
use staged_engine::staged::StagedEngine;
use staged_engine::txn::{LockKey, LockMode};
use staged_planner::PhysicalPlan;
use staged_sql::binder::BoundSelect;
use staged_storage::wal::Wal;
use staged_storage::{
    Catalog, MemSegmentStore, MemSnapshotStore, Schema, SegmentStore, SnapshotStore,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A packet travelling through the six top-level stages (connect → parse →
/// optimize → lock → execute → disconnect). The enum body is the query's
/// *backpack* — its state at the current point of execution.
pub struct SPacket {
    /// Transaction the statement runs under (0 = none: reads, DDL).
    xid: u64,
    /// Session the statement came from (None = one-shot autocommit).
    session: Option<u64>,
    /// True when `xid` is a statement-scoped implicit transaction that the
    /// disconnect stage must commit (success) or abort (failure).
    implicit: bool,
    /// Partition locks still to be granted by the lock stage.
    lock_keys: Vec<LockKey>,
    /// Deadline for lock acquisition (timeout-abort deadlock resolution).
    lock_deadline: Option<Instant>,
    body: PacketBody,
    reply: crossbeam::channel::Sender<Response>,
}

impl SPacket {
    fn new(
        body: PacketBody,
        session: Option<u64>,
        reply: crossbeam::channel::Sender<Response>,
    ) -> Self {
        Self {
            xid: 0,
            session,
            implicit: false,
            lock_keys: Vec::new(),
            lock_deadline: None,
            body,
            reply,
        }
    }
}

enum PacketBody {
    /// Fresh SQL text (entering connect).
    Raw(String),
    /// Prepared-statement invocation (connect routes it straight to
    /// execute).
    Prepared(String),
    /// Bound SELECT awaiting the optimizer.
    Bound(Box<BoundSelect>),
    /// Ready to execute.
    Action(Box<PlannedAction>),
    /// A checkpoint request heading for the checkpoint stage. `auto` marks
    /// requests the stage raised itself from its idle hook (their reply
    /// channel is a stub nobody reads).
    Checkpoint {
        /// Raised by the idle hook rather than a client.
        auto: bool,
    },
    /// Completed; heading to disconnect for commit + reply.
    Finished(Box<Response>),
}

struct ServerShared {
    catalog: Arc<Catalog>,
    ctx: ExecContext,
    wal: Arc<Wal>,
    snapshots: Arc<dyn SnapshotStore>,
    recovery: RecoveryReport,
    engine: Arc<StagedEngine>,
    config: ServerConfig,
    prepared: Mutex<HashMap<String, Arc<(PhysicalPlan, Schema)>>>,
    tracker: Option<Arc<RefTracker>>,
    txn: TxnRuntime,
    served: AtomicU64,
    /// True while a checkpoint holds (or is acquiring) the quiesce locks:
    /// checkpoints serialize on this claim, since they all lock under the
    /// one [`CHECKPOINT_XID`].
    checkpointing: AtomicBool,
    /// True while an idle-raised checkpoint packet is queued or running;
    /// stops the idle hook from stacking duplicates.
    auto_pending: AtomicBool,
    /// Segment of the latest checkpoint LSN (recovery's, until the first
    /// checkpoint here): the idle hook measures log growth from it.
    checkpoint_segment: AtomicU64,
    /// WAL-shipping front door of the log tail: the primary side of
    /// replication. Connected replicas subscribe through the network front
    /// end; the dedicated `replication` stage pumps the tail from its idle
    /// hook.
    replication: Arc<ReplicationHub>,
    /// `SUBSCRIBE` change-feed front door onto the same log tail.
    reactivity: Arc<ReactivityHub>,
}

/// The staged server.
pub struct StagedServer {
    shared: Arc<ServerShared>,
    runtime: StagedRuntime<SPacket>,
    net_id: StageId,
    connect_id: StageId,
    checkpoint_id: StageId,
}

macro_rules! stage_logic {
    ($name:ident, $shared:ident, $pkt:ident, $ctx:ident, $body:block) => {
        struct $name {
            $shared: Arc<ServerShared>,
        }
        impl StageLogic<SPacket> for $name {
            fn process(
                &self,
                mut $pkt: SPacket,
                $ctx: &StageCtx<'_, SPacket>,
            ) -> Result<(), StageError> {
                let $shared = &self.$shared;
                $body
            }
        }
    };
}

fn forward(ctx: &StageCtx<'_, SPacket>, stage: &str, pkt: SPacket) -> Result<(), StageError> {
    let id =
        ctx.stage_id_of(stage).ok_or_else(|| StageError::new(format!("missing stage {stage}")))?;
    ctx.send(id, pkt).map_err(|_| StageError::new("pipeline closed"))
}

fn finish(ctx: &StageCtx<'_, SPacket>, mut pkt: SPacket, res: Response) -> Result<(), StageError> {
    pkt.body = PacketBody::Finished(Box::new(res));
    forward(ctx, "disconnect", pkt)
}

stage_logic!(NetStage, shared, pkt, ctx, {
    // The network admission stage. Statements arriving over TCP enter the
    // pipeline here: connection readers enqueue one packet per decoded
    // statement, and this stage's bounded queue is the server's admission
    // buffer — when downstream stages fall behind, back-pressure propagates
    // through this queue to the reader threads and from there, via unread
    // socket bytes, to the clients themselves. Its StageStats therefore
    // meter exactly the network-admitted load (in-process submissions
    // enter at `connect` and are not counted here).
    let _ = shared;
    match std::mem::replace(&mut pkt.body, PacketBody::Raw(String::new())) {
        PacketBody::Raw(sql) => {
            pkt.body = PacketBody::Raw(sql);
            forward(ctx, "connect", pkt)
        }
        other => {
            pkt.body = other;
            finish(ctx, pkt, Err(ServerError::Execution("bad packet at net".into())))
        }
    }
});

stage_logic!(ConnectStage, shared, pkt, ctx, {
    match std::mem::replace(&mut pkt.body, PacketBody::Raw(String::new())) {
        PacketBody::Raw(sql) => {
            pkt.body = PacketBody::Raw(sql);
            forward(ctx, "parse", pkt)
        }
        PacketBody::Prepared(name) => {
            // Precompiled queries bypass parser and optimizer (§4.1).
            let found = shared.prepared.lock().get(&name).cloned();
            match found {
                Some(entry) => {
                    pkt.body = PacketBody::Action(Box::new(PlannedAction::Select {
                        plan: entry.0.clone(),
                        schema: entry.1.clone(),
                    }));
                    forward(ctx, "execute", pkt)
                }
                None => finish(ctx, pkt, Err(ServerError::UnknownPrepared(name))),
            }
        }
        other => {
            pkt.body = other;
            finish(ctx, pkt, Err(ServerError::Execution("bad packet at connect".into())))
        }
    }
});

stage_logic!(ParseStage, shared, pkt, ctx, {
    let PacketBody::Raw(sql) = std::mem::replace(&mut pkt.body, PacketBody::Raw(String::new()))
    else {
        return finish(ctx, pkt, Err(ServerError::Execution("bad packet at parse".into())));
    };
    match pipeline::parse_stage(&sql, &shared.catalog, shared.tracker.as_deref()) {
        Ok(Parsed::NeedsPlan(bound)) => {
            if let Err(e) = shared.txn.statement_ctx(pkt.session) {
                return finish(ctx, pkt, Err(e));
            }
            pkt.body = PacketBody::Bound(bound);
            forward(ctx, "optimize", pkt)
        }
        Ok(Parsed::Action(action)) => {
            // DDL / DML bypass the optimizer (§4.1: "the query can route
            // itself from the connect stage directly to the execute stage").
            // DML makes one extra hop through the lock-manager stage first.
            // A session in the failed-transaction state refuses everything
            // except the COMMIT/ROLLBACK acknowledgement; a READ ONLY
            // transaction refuses writes here, before they reach the lock
            // stage — the per-statement policy decision of the read-only
            // fast path.
            if !matches!(action.as_ref(), PlannedAction::TxnControl(_)) {
                match shared.txn.statement_ctx(pkt.session) {
                    Err(e) => return finish(ctx, pkt, Err(e)),
                    Ok(StatementCtx::ReadOnly(_)) if pipeline::writes(&action) => {
                        return finish(ctx, pkt, Err(ServerError::ReadOnly));
                    }
                    Ok(_) => {}
                }
            }
            let dest = if action.is_dml() { "lock" } else { "execute" };
            pkt.body = PacketBody::Action(action);
            forward(ctx, dest, pkt)
        }
        Err(e) => finish(ctx, pkt, Err(e)),
    }
});

stage_logic!(LockStage, shared, pkt, ctx, {
    // The lock-manager stage (paper Figure 3 names it as a first-class
    // OLTP stage). On first visit the packet joins its session's open
    // transaction — or starts a statement-scoped implicit one — and
    // computes its lock set; then it acquires locks incrementally in
    // sorted key order. A packet that hits a conflict requeues itself
    // (case iii of §4.1.1) until its deadline, at which point the
    // transaction is aborted: timeout-abort deadlock resolution.
    if pkt.lock_deadline.is_none() {
        match shared.txn.statement_ctx(pkt.session) {
            Err(e) => return finish(ctx, pkt, Err(e)),
            // Parse already refuses writes in a READ ONLY transaction;
            // refusing again here keeps the lock stage safe against any
            // future routing change.
            Ok(StatementCtx::ReadOnly(_)) => {
                return finish(ctx, pkt, Err(ServerError::ReadOnly));
            }
            Ok(StatementCtx::Write(xid)) => {
                pkt.xid = xid;
                pkt.implicit = false;
            }
            Ok(StatementCtx::Autocommit) => match shared.txn.mgr().begin(&shared.wal) {
                Ok(xid) => {
                    pkt.xid = xid;
                    pkt.implicit = true;
                }
                Err(e) => return finish(ctx, pkt, Err(ServerError::Execution(e.to_string()))),
            },
        }
        let keys = match &pkt.body {
            PacketBody::Action(action) => {
                pipeline::dml_lock_keys(action, &shared.catalog, &shared.config.planner)
            }
            _ => return finish(ctx, pkt, Err(ServerError::Execution("bad packet at lock".into()))),
        };
        pkt.lock_keys = keys;
        pkt.lock_deadline = Some(Instant::now() + shared.config.lock_timeout);
    }
    let locks = shared.txn.mgr().locks();
    while let Some(key) = pkt.lock_keys.first().copied() {
        if locks.try_lock(pkt.xid, key, LockMode::Exclusive) {
            pkt.lock_keys.remove(0);
        } else {
            break;
        }
    }
    if pkt.lock_keys.is_empty() {
        return forward(ctx, "execute", pkt);
    }
    if Instant::now() >= pkt.lock_deadline.unwrap_or_else(Instant::now) {
        shared.txn.fail_txn(pkt.session, pkt.xid, &shared.ctx, &shared.wal);
        return finish(
            ctx,
            pkt,
            Err(ServerError::Execution(
                "lock timeout: transaction aborted (presumed deadlock)".into(),
            )),
        );
    }
    // Parked behind a conflicting lock: yield and retry. The retry counter
    // makes contention visible in this stage's StageStats. The requeue must
    // never block on this stage's own full queue (the only dequeuer is this
    // worker — blocking here would deadlock the stage against itself), so
    // it tries the back non-blocking and falls back to the capacity-exempt
    // front slot under overload.
    ctx.record_retry();
    std::thread::sleep(std::time::Duration::from_micros(100));
    match ctx.try_send(ctx.stage_id, pkt) {
        Ok(()) => Ok(()),
        Err(EnqueueError::Full(pkt)) => {
            ctx.requeue(pkt).map_err(|_| StageError::new("pipeline closed"))
        }
        Err(EnqueueError::Closed(_)) => Err(StageError::new("pipeline closed")),
    }
});

/// The checkpoint stage: the maintenance counterpart of the lock-manager
/// stage. A checkpoint packet quiesces the writers by acquiring every
/// partition lock incrementally under [`CHECKPOINT_XID`] — requeueing
/// itself on conflict exactly like a DML packet at the lock stage — and
/// once the database is still, snapshots it, truncates the log, and
/// releases the world. Its idle hook raises a checkpoint on its own when
/// the live log grows past `config.checkpoint_segments`.
struct CheckpointStage {
    shared: Arc<ServerShared>,
}

impl CheckpointStage {
    /// Drop the claim flags after a checkpoint finishes (any way).
    fn done(&self, auto: bool) {
        self.shared.checkpointing.store(false, Ordering::Release);
        if auto {
            self.shared.auto_pending.store(false, Ordering::Release);
        }
    }

    /// Park-and-retry: yield the worker briefly, then requeue the packet
    /// (never blocking on this stage's own queue — same rule as the lock
    /// stage).
    fn park(&self, pkt: SPacket, ctx: &StageCtx<'_, SPacket>) -> Result<(), StageError> {
        ctx.record_retry();
        std::thread::sleep(std::time::Duration::from_micros(100));
        match ctx.try_send(ctx.stage_id, pkt) {
            Ok(()) => Ok(()),
            Err(EnqueueError::Full(pkt)) => {
                ctx.requeue(pkt).map_err(|_| StageError::new("pipeline closed"))
            }
            Err(EnqueueError::Closed(_)) => Err(StageError::new("pipeline closed")),
        }
    }
}

impl StageLogic<SPacket> for CheckpointStage {
    fn process(&self, mut pkt: SPacket, ctx: &StageCtx<'_, SPacket>) -> Result<(), StageError> {
        let shared = &self.shared;
        let PacketBody::Checkpoint { auto } = pkt.body else {
            return finish(
                ctx,
                pkt,
                Err(ServerError::Execution("bad packet at checkpoint".into())),
            );
        };
        if pkt.lock_deadline.is_none() {
            // Checkpoints serialize on the claim: they all lock under the
            // one CHECKPOINT_XID, so a second one must wait its turn.
            if shared
                .checkpointing
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                return self.park(pkt, ctx);
            }
            pkt.lock_keys = checkpoint::quiesce_keys(&shared.catalog);
            pkt.lock_deadline = Some(Instant::now() + shared.config.lock_timeout);
        }
        let locks = shared.txn.mgr().locks();
        while let Some(key) = pkt.lock_keys.first().copied() {
            if locks.try_lock(CHECKPOINT_XID, key, LockMode::Exclusive) {
                pkt.lock_keys.remove(0);
            } else {
                break;
            }
        }
        if pkt.lock_keys.is_empty() {
            // The database is still: every partition lock is ours, and
            // in-flight writers hold theirs through commit (strict 2PL),
            // so none are mid-statement.
            // The truncation floor is clamped to the log tail's floor:
            // history a live replica has not yet confirmed durable, or a
            // subscriber has not yet read, stays on disk.
            let res = checkpoint::checkpoint_with_floor(
                &shared.catalog,
                &shared.wal,
                shared.snapshots.as_ref(),
                shared.replication.tail().floor(),
            );
            if let Ok(o) = &res {
                shared.checkpoint_segment.store(o.lsn.segment, Ordering::Release);
            }
            // Writers are quiesced (we hold every partition lock), so dead
            // versions can be reclaimed before the world is released.
            let gc = checkpoint::vacuum(&shared.catalog, shared.txn.mgr());
            locks.release_all(CHECKPOINT_XID);
            self.done(auto);
            let res = res
                .map(|o| {
                    crate::types::QueryOutput::message(format!(
                        "CHECKPOINT {} rows={} segments_deleted={} versions_gc={}",
                        o.lsn, o.rows, o.segments_deleted, gc.dead_removed
                    ))
                })
                .map_err(|e| ServerError::Execution(e.to_string()));
            return finish(ctx, pkt, res);
        }
        if Instant::now() >= pkt.lock_deadline.unwrap_or_else(Instant::now) {
            // Writers would not drain in time: give the locks back and
            // report, leaving the log untouched.
            locks.release_all(CHECKPOINT_XID);
            self.done(auto);
            return finish(
                ctx,
                pkt,
                Err(ServerError::Execution(
                    "checkpoint lock timeout: writers would not quiesce".into(),
                )),
            );
        }
        self.park(pkt, ctx)
    }

    fn on_idle(&self, ctx: &StageCtx<'_, SPacket>) {
        let shared = &self.shared;
        let Some(limit) = shared.config.checkpoint_segments else { return };
        // Count log growth since the last checkpoint, not live segments: a
        // floor held back by a lagging feed keeps segments alive, and
        // checkpointing again would only rotate into empty segments.
        let current = shared.wal.next_lsn().segment;
        if current.saturating_sub(shared.checkpoint_segment.load(Ordering::Acquire)) < limit {
            return;
        }
        if shared
            .auto_pending
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        // The reply channel is a stub: nobody waits on an auto checkpoint.
        let (tx, _rx) = bounded(1);
        let pkt = SPacket::new(PacketBody::Checkpoint { auto: true }, None, tx);
        if ctx.try_send(ctx.stage_id, pkt).is_err() {
            shared.auto_pending.store(false, Ordering::Release);
        }
    }
}

/// The replication stage: the feed side of the primary, run as its own
/// bounded stage like everything else in the server. It receives no client
/// packets — its work hook is `on_idle`, which pumps the log tail: newly
/// committed WAL records go into every replica's and subscriber's bounded
/// outbox (evicting feeds that stopped draining rather than buffering
/// without bound). The network loop also pumps when a feed is caught up,
/// so this stage's idle cadence only bounds the *eviction* latency of a
/// stalled feed, not the delivery latency of a healthy one.
struct ReplicationStage {
    shared: Arc<ServerShared>,
}

impl StageLogic<SPacket> for ReplicationStage {
    fn process(&self, pkt: SPacket, ctx: &StageCtx<'_, SPacket>) -> Result<(), StageError> {
        // Nothing routes packets here; anything that arrives is a bug.
        finish(ctx, pkt, Err(ServerError::Execution("bad packet at replication".into())))
    }

    fn on_idle(&self, _ctx: &StageCtx<'_, SPacket>) {
        // One pump serves every feed: replicas and subscribers alike.
        self.shared.replication.pump();
    }
}

stage_logic!(OptimizeStage, shared, pkt, ctx, {
    let PacketBody::Bound(bound) = std::mem::replace(&mut pkt.body, PacketBody::Raw(String::new()))
    else {
        return finish(ctx, pkt, Err(ServerError::Execution("bad packet at optimize".into())));
    };
    match pipeline::optimize_stage(&bound, &shared.catalog, &shared.config.planner) {
        Ok(action) => {
            pkt.body = PacketBody::Action(Box::new(action));
            forward(ctx, "execute", pkt)
        }
        Err(e) => finish(ctx, pkt, Err(e)),
    }
});

stage_logic!(ExecuteStage, shared, pkt, ctx, {
    let PacketBody::Action(action) =
        std::mem::replace(&mut pkt.body, PacketBody::Raw(String::new()))
    else {
        return finish(ctx, pkt, Err(ServerError::Execution("bad packet at execute".into())));
    };
    if let PlannedAction::TxnControl(stmt) = action.as_ref() {
        let res =
            pipeline::execute_txn_control(stmt, pkt.session, &shared.txn, &shared.ctx, &shared.wal);
        return finish(ctx, pkt, res);
    }
    let exec = match shared.config.mode {
        ExecutionMode::Volcano => Exec::Volcano,
        ExecutionMode::Staged => Exec::Staged(&shared.engine),
    };
    let txn = (pkt.xid != 0).then(|| shared.txn.mgr());
    // SELECTs run as snapshot reads; the statement context is re-read here
    // (not at parse) so the view reflects commits up to this moment. The
    // pin guard must outlive the execute call.
    let mut action = *action;
    let stmt_ctx = match shared.txn.statement_ctx(pkt.session) {
        Ok(c) => c,
        Err(e) => return finish(ctx, pkt, Err(e)),
    };
    let _pin = pipeline::snapshot_select(&mut action, &shared.txn, &stmt_ctx);
    let res = pipeline::execute_stage(action, &shared.ctx, &shared.wal, pkt.xid, exec, txn);
    finish(ctx, pkt, res)
});

stage_logic!(DisconnectStage, shared, pkt, _ctx, {
    // "end Xaction, delete state, disconnect": statement-level commit for
    // implicit transactions (the Commit record's forced flush is the
    // atomic durability point), abort of the transaction on statement
    // failure, then the reply.
    let body = std::mem::replace(&mut pkt.body, PacketBody::Raw(String::new()));
    let mut res = match body {
        PacketBody::Finished(r) => *r,
        _ => Err(ServerError::Execution("bad packet at disconnect".into())),
    };
    if pkt.xid != 0 {
        match (&res, pkt.implicit) {
            (Ok(_), true) => {
                if let Err(e) = shared.txn.mgr().commit(pkt.xid, &shared.ctx, &shared.wal) {
                    res = Err(ServerError::Execution(e.to_string()));
                }
            }
            (Err(_), _) => shared.txn.fail_txn(pkt.session, pkt.xid, &shared.ctx, &shared.wal),
            (Ok(_), false) => {} // explicit txn continues; COMMIT ends it
        }
    }
    shared.served.fetch_add(1, Ordering::Relaxed);
    let _ = pkt.reply.send(res);
    Ok(())
});

impl StagedServer {
    /// Build and start the staged server over an existing catalog.
    pub fn new(catalog: Arc<Catalog>, config: ServerConfig) -> Arc<Self> {
        Self::with_tracker(catalog, config, None)
    }

    /// Like [`new`](Self::new), with Table-1 reference instrumentation.
    /// Backed by fresh in-memory WAL-segment and snapshot stores.
    pub fn with_tracker(
        catalog: Arc<Catalog>,
        config: ServerConfig,
        tracker: Option<Arc<RefTracker>>,
    ) -> Arc<Self> {
        Self::with_stores(
            catalog,
            config,
            tracker,
            Arc::new(MemSegmentStore::new()),
            Arc::new(MemSnapshotStore::new()),
        )
        .expect("recovery from fresh in-memory stores cannot fail")
    }

    /// Build the server over existing WAL-segment and snapshot stores,
    /// running checkpointed recovery first: restore the latest snapshot
    /// (if any) into the catalog, replay only the WAL tail at or after its
    /// LSN, repair a torn log tail, then start the stages. The catalog
    /// must be empty when a snapshot exists (recovery rebuilds the tables
    /// it describes).
    pub fn with_stores(
        catalog: Arc<Catalog>,
        config: ServerConfig,
        tracker: Option<Arc<RefTracker>>,
        segments: Arc<dyn SegmentStore>,
        snapshots: Arc<dyn SnapshotStore>,
    ) -> Result<Arc<Self>, ServerError> {
        // Tables created through this server's DDL path inherit the
        // configured partition count (scoped to this server's context).
        let mut ctx = ExecContext::new(Arc::clone(&catalog)).with_partitions(config.partitions);
        if let Some(t) = &tracker {
            ctx = ctx.with_tracker(Arc::clone(t));
        }
        let (wal, recovery) =
            checkpoint::recover(&ctx, segments, snapshots.as_ref(), config.wal_segment_pages)
                .map_err(|e| ServerError::Execution(format!("recovery failed: {e}")))?;
        let wal = Arc::new(wal);
        let tail = Arc::new(LogTail::new(
            Arc::clone(&wal),
            config.replication_outbox,
            config.subscription_outbox,
        ));
        let replication = Arc::new(ReplicationHub::new(Arc::clone(&tail)));
        let reactivity = Arc::new(ReactivityHub::new(tail, Arc::clone(&catalog)));
        let checkpoint_segment = AtomicU64::new(recovery.checkpoint_lsn.segment);
        let engine = StagedEngine::new(ctx.clone(), config.engine.clone());
        let txn = TxnRuntime::for_catalog(&catalog);
        let shared = Arc::new(ServerShared {
            catalog,
            ctx,
            wal,
            snapshots,
            recovery,
            engine,
            config: config.clone(),
            prepared: Mutex::new(HashMap::new()),
            tracker,
            txn,
            served: AtomicU64::new(0),
            checkpointing: AtomicBool::new(false),
            auto_pending: AtomicBool::new(false),
            checkpoint_segment,
            replication,
            reactivity,
        });
        let mut b = StagedRuntime::<SPacket>::builder();
        let cohort = config.max_cohort;
        // Registered first: registration order is pipeline order, which
        // shutdown uses as its drain order — network admissions must drain
        // before the stages they feed close.
        //
        // The `net` stage serves one packet per visit: its bounded queue
        // *is* the server's network admission limit, and a cohort held in
        // a worker's hands would be load admitted past that bound.
        let net_id = b.add_stage(
            StageSpec::new("net", NetStage { shared: Arc::clone(&shared) })
                .with_queue_capacity(config.queue_capacity)
                .with_workers(config.control_workers)
                .with_batch(BatchPolicy::Single),
        );
        let connect_id = b.add_stage(
            StageSpec::new("connect", ConnectStage { shared: Arc::clone(&shared) })
                .with_queue_capacity(config.queue_capacity)
                .with_workers(config.control_workers)
                .with_batch(config.batch)
                .with_max_cohort(cohort),
        );
        b.add_stage(
            StageSpec::new("parse", ParseStage { shared: Arc::clone(&shared) })
                .with_queue_capacity(config.queue_capacity)
                .with_workers(config.control_workers)
                .with_batch(config.batch)
                .with_max_cohort(cohort),
        );
        b.add_stage(
            StageSpec::new("optimize", OptimizeStage { shared: Arc::clone(&shared) })
                .with_queue_capacity(config.queue_capacity)
                .with_workers(config.control_workers)
                .with_batch(config.batch)
                .with_max_cohort(cohort),
        );
        // One-at-a-time as well: a conflicted packet parks by sleeping and
        // requeueing inside `process`, which would stall every cohort-mate
        // still in the worker's hands behind a lock it may not even want.
        b.add_stage(
            StageSpec::new("lock", LockStage { shared: Arc::clone(&shared) })
                .with_queue_capacity(config.queue_capacity)
                .with_workers(config.control_workers)
                .with_batch(BatchPolicy::Single),
        );
        // One worker, one packet at a time: checkpoints serialize anyway
        // (they share CHECKPOINT_XID), and a parked checkpoint requeues by
        // sleeping inside `process` like a conflicted lock packet.
        let checkpoint_id = b.add_stage(
            StageSpec::new("checkpoint", CheckpointStage { shared: Arc::clone(&shared) })
                .with_queue_capacity(config.queue_capacity)
                .with_workers(1)
                .with_batch(BatchPolicy::Single),
        );
        // One worker, one packet at a time: the replication stage does all
        // of its work from the idle hook (no packets are ever routed here),
        // pumping the shipping hub on the runtime's idle cadence.
        b.add_stage(
            StageSpec::new("replication", ReplicationStage { shared: Arc::clone(&shared) })
                .with_queue_capacity(config.queue_capacity)
                .with_workers(1)
                .with_batch(BatchPolicy::Single),
        );
        b.add_stage(
            StageSpec::new("execute", ExecuteStage { shared: Arc::clone(&shared) })
                .with_queue_capacity(config.queue_capacity)
                .with_workers(config.execute_workers)
                .with_batch(config.batch)
                .with_max_cohort(cohort),
        );
        b.add_stage(
            StageSpec::new("disconnect", DisconnectStage { shared: Arc::clone(&shared) })
                .with_queue_capacity(config.queue_capacity)
                .with_workers(config.control_workers)
                .with_batch(config.batch)
                .with_max_cohort(cohort),
        );
        let runtime = b.build();
        Ok(Arc::new(Self { shared, runtime, net_id, connect_id, checkpoint_id }))
    }

    /// Submit SQL; returns the response channel (blocking admission under
    /// back-pressure). One-shot autocommit; use [`session`](Self::session)
    /// for multi-statement transactions.
    pub fn submit(&self, sql: impl Into<String>) -> Receiver<Response> {
        self.submit_in(sql, None)
    }

    fn submit_in(&self, sql: impl Into<String>, session: Option<u64>) -> Receiver<Response> {
        self.submit_at(self.connect_id, sql, session)
    }

    /// Network admission: like [`submit`](Self::submit) but entering at the
    /// `net` stage, so network traffic is metered (and back-pressured) by
    /// the admission stage's own queue before it reaches `connect`.
    pub fn submit_admitted(
        &self,
        sql: impl Into<String>,
        session: Option<u64>,
    ) -> Receiver<Response> {
        self.submit_at(self.net_id, sql, session)
    }

    fn submit_at(
        &self,
        stage: StageId,
        sql: impl Into<String>,
        session: Option<u64>,
    ) -> Receiver<Response> {
        let (tx, rx) = bounded(1);
        let pkt = SPacket::new(PacketBody::Raw(sql.into()), session, tx);
        if let Err(e) = self.runtime.enqueue(stage, pkt) {
            let _ = e.into_packet().reply.send(Err(ServerError::ShuttingDown));
        }
        rx
    }

    /// Non-blocking admission: `Err(Overloaded)` when the connect queue is
    /// full (paper §5.2 overload conditioning).
    pub fn try_submit(&self, sql: impl Into<String>) -> Result<Receiver<Response>, ServerError> {
        let (tx, rx) = bounded(1);
        let pkt = SPacket::new(PacketBody::Raw(sql.into()), None, tx);
        match self.runtime.try_enqueue(self.connect_id, pkt) {
            Ok(()) => Ok(rx),
            Err(EnqueueError::Full(_)) => Err(ServerError::Overloaded),
            Err(EnqueueError::Closed(_)) => Err(ServerError::ShuttingDown),
        }
    }

    /// Non-blocking network admission: [`submit_admitted`] without the
    /// blocking enqueue. `Err(Overloaded)` when the `net` stage's bounded
    /// queue is full — the event-driven front end translates that into
    /// *not reading the socket*, so the overload propagates to TCP flow
    /// control instead of parking a thread (DESIGN.md §16).
    ///
    /// [`submit_admitted`]: Self::submit_admitted
    pub fn try_submit_admitted(
        &self,
        sql: impl Into<String>,
        session: Option<u64>,
    ) -> Result<Receiver<Response>, ServerError> {
        let (tx, rx) = bounded(1);
        let pkt = SPacket::new(PacketBody::Raw(sql.into()), session, tx);
        match self.runtime.try_enqueue(self.net_id, pkt) {
            Ok(()) => Ok(rx),
            Err(EnqueueError::Full(_)) => Err(ServerError::Overloaded),
            Err(EnqueueError::Closed(_)) => Err(ServerError::ShuttingDown),
        }
    }

    /// Open a client session: statements run through the handle share the
    /// session's transaction state (`BEGIN` … `COMMIT`/`ROLLBACK`), and
    /// dropping the handle aborts any transaction still open, releasing
    /// its locks (abort-on-drop).
    pub fn session(self: &Arc<Self>) -> StagedSession {
        StagedSession { server: Arc::clone(self), sid: self.shared.txn.open_session() }
    }

    /// Live transactions (diagnostics).
    pub fn active_txns(&self) -> usize {
        self.shared.txn.mgr().active_count()
    }

    /// Run one statement to completion.
    pub fn execute_sql(&self, sql: &str) -> Response {
        self.submit(sql).recv().unwrap_or(Err(ServerError::ShuttingDown))
    }

    /// Parse + plan a SELECT once, store it under `name`. Later
    /// [`execute_prepared`](Self::execute_prepared) calls route connect →
    /// execute directly.
    pub fn prepare(&self, name: &str, sql: &str) -> Result<(), ServerError> {
        let parsed =
            pipeline::parse_stage(sql, &self.shared.catalog, self.shared.tracker.as_deref())?;
        let Parsed::NeedsPlan(bound) = parsed else {
            return Err(ServerError::Sql("only SELECT can be prepared".into()));
        };
        let action =
            pipeline::optimize_stage(&bound, &self.shared.catalog, &self.shared.config.planner)?;
        let PlannedAction::Select { plan, schema } = action else {
            return Err(ServerError::Sql("only plain SELECT can be prepared".into()));
        };
        self.shared.prepared.lock().insert(name.to_string(), Arc::new((plan, schema)));
        Ok(())
    }

    /// Invoke a prepared statement (the fast path).
    pub fn execute_prepared(&self, name: &str) -> Receiver<Response> {
        let (tx, rx) = bounded(1);
        let pkt = SPacket::new(PacketBody::Prepared(name.to_string()), None, tx);
        if let Err(e) = self.runtime.enqueue(self.connect_id, pkt) {
            let _ = e.into_packet().reply.send(Err(ServerError::ShuttingDown));
        }
        rx
    }

    /// Run a checkpoint through the checkpoint stage and wait for it:
    /// quiesce the writers, snapshot every table and index, truncate the
    /// WAL below the snapshot's LSN. The response message starts with
    /// `CHECKPOINT` on success.
    pub fn checkpoint(&self) -> Response {
        self.submit_checkpoint().recv().unwrap_or(Err(ServerError::ShuttingDown))
    }

    /// Start a checkpoint through the checkpoint stage without waiting:
    /// the receiver completes when the checkpoint does. This is the
    /// network front end's path — the event loop must never block behind
    /// a quiesce.
    pub fn submit_checkpoint(&self) -> Receiver<Response> {
        let (tx, rx) = bounded(1);
        let pkt = SPacket::new(PacketBody::Checkpoint { auto: false }, None, tx);
        if let Err(e) = self.runtime.enqueue(self.checkpoint_id, pkt) {
            let _ = e.into_packet().reply.send(Err(ServerError::ShuttingDown));
        }
        rx
    }

    /// What recovery found and did when this server was built (how many
    /// rows came from the snapshot, how many log records replayed, and
    /// whether the log tail was damaged).
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.shared.recovery
    }

    /// The write-ahead log (for monitoring: live segments, I/O counters).
    pub fn wal(&self) -> &Wal {
        &self.shared.wal
    }

    /// The WAL-shipping front door of the log tail (primary side of
    /// replication): replica subscriptions, `ACK`s, and the replicas-only
    /// acked floor.
    pub fn replication_hub(&self) -> &Arc<ReplicationHub> {
        &self.shared.replication
    }

    /// The subscription front door of the log tail (`SUBSCRIBE` change
    /// feeds): registrations, unsubscribe and drain.
    pub fn reactivity_hub(&self) -> &Arc<ReactivityHub> {
        &self.shared.reactivity
    }

    pub(crate) fn catalog(&self) -> &Arc<Catalog> {
        &self.shared.catalog
    }

    pub(crate) fn txn_runtime(&self) -> &TxnRuntime {
        &self.shared.txn
    }

    /// Per-stage monitoring (the §5.2 "easy to tune" observability).
    pub fn stage_stats(&self) -> Vec<StageStats> {
        self.runtime.stats()
    }

    /// Execution-engine stage monitoring.
    pub fn engine_stats(&self) -> Vec<StageStats> {
        self.shared.engine.runtime().stats()
    }

    /// The runtime, for autotuner attachment.
    pub fn runtime(&self) -> &StagedRuntime<SPacket> {
        &self.runtime
    }

    /// The inner staged execution engine.
    pub fn engine(&self) -> &Arc<StagedEngine> {
        &self.shared.engine
    }

    /// Queries completed.
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Stop all stage workers (drains in-flight requests first).
    pub fn shutdown(&self) {
        self.runtime.shutdown();
        self.shared.engine.shutdown();
    }
}

/// A client session on the staged server. Statements submitted here flow
/// through the normal stage pipeline but share the session's transaction
/// state. Dropping the handle aborts an in-flight transaction
/// (abort-on-drop), releasing its locks and undoing its writes.
pub struct StagedSession {
    server: Arc<StagedServer>,
    sid: u64,
}

impl StagedSession {
    /// Session id.
    pub fn id(&self) -> u64 {
        self.sid
    }

    /// Submit SQL under this session.
    pub fn submit(&self, sql: impl Into<String>) -> Receiver<Response> {
        self.server.submit_in(sql, Some(self.sid))
    }

    /// Run one statement to completion under this session.
    pub fn execute_sql(&self, sql: &str) -> Response {
        self.submit(sql).recv().unwrap_or(Err(ServerError::ShuttingDown))
    }

    /// Run one statement to completion, entering the pipeline at the `net`
    /// admission stage (the network front end's path; see [`crate::net`]).
    pub fn execute_sql_admitted(&self, sql: &str) -> Response {
        self.server
            .submit_admitted(sql, Some(self.sid))
            .recv()
            .unwrap_or(Err(ServerError::ShuttingDown))
    }

    /// Non-blocking admission at the `net` stage: `Err(Overloaded)` when
    /// the admission queue is full. The event-driven front end turns that
    /// refusal into *not reading the socket*, so overload propagates to
    /// TCP flow control instead of parking a thread.
    pub fn try_submit_admitted(
        &self,
        sql: impl Into<String>,
    ) -> Result<Receiver<Response>, ServerError> {
        self.server.try_submit_admitted(sql, Some(self.sid))
    }
}

impl Drop for StagedSession {
    fn drop(&mut self) {
        let shared = &self.server.shared;
        shared.txn.close_session(self.sid, &shared.ctx, &shared.wal);
    }
}
