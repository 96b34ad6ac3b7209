//! One log tail for every feed: WAL shipping and `SUBSCRIBE` change feeds.
//!
//! Replicas and subscribers want the same thing — the primary's log, in
//! order, from some position on — so one [`LogTail`] serves them all, the
//! way the paper serves every query that wants a table with one circular
//! scan (§5.4). It owns the only feed registry, the only bounded-outbox
//! discipline and one set of counters. Each pump reads the newly flushed
//! records once, from the lowest cursor among the feeds that can take
//! more ([`Wal::read_flushed`]), and hands each decoded record to every
//! feed's sink: a replica's frames `WALREC` lines (plus a `WALEOF`
//! watermark per visit, whose `ACK` is the replica's truncation floor); a
//! subscriber's buffers row changes per transaction, filters them to its
//! table and `WHERE` predicate, and emits the run as `CHANGE` lines on the
//! `Commit` — whole transactions, in commit order, aborts unseen.
//!
//! A sink's lines go into the feed's bounded outbox; what does not fit
//! waits in an overflow queue, and the feed reads no further until it
//! drains. A feed that accepts *nothing* across [`EVICTION_FULL_STRIKES`]
//! consecutive full visits has stopped reading and is evicted: its sender
//! drops and the network front end hangs up. Commits never wait on a feed.
//! The tail keeps no records between visits: a feed's cursor names what it
//! is still owed, and [`LogTail::floor`] is what checkpoints must keep.
//! [`ReplicationHub`] and [`ReactivityHub`] are the two format-specific
//! front doors; a pump through either pumps every feed.

use crate::types::ServerError;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use staged_engine::expr::eval_predicate;
use staged_sql::ast::Expr;
use staged_sql::binder::{BindContext, Binder};
use staged_sql::parser::Parser;
use staged_sql::rewrite::fold;
use staged_storage::catalog::TableId;
use staged_storage::wal::{LogRecord, Lsn, Wal};
use staged_storage::{Catalog, Tuple, Value};
use staged_wire::ChangeOp;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default per-feed outbox capacity, in framed lines. A bigger backlog
/// waits in the log and ships over later visits as the consumer drains.
pub const DEFAULT_OUTBOX_CAPACITY: usize = 1024;

/// Consecutive pump visits that find a feed's outbox full without the
/// consumer having accepted a single line before it is evicted. One full
/// visit is flow control (the backlog may simply exceed the outbox); this
/// many in a row with zero drain is a consumer that stopped reading.
pub const EVICTION_FULL_STRIKES: u32 = 4;

/// The position just past the record at `lsn`.
pub(crate) fn after(lsn: Lsn) -> Lsn {
    Lsn { segment: lsn.segment, offset: lsn.offset + 1 }
}

/// Indexes of the tail's per-kind outbox capacities and counters.
const REPLICA: usize = 0;
const SUBSCRIBER: usize = 1;

/// What a feed turns log records into.
enum Sink {
    Replica(ReplicaSink),
    Subscriber(SubscriberSink),
}

struct ReplicaSink {
    /// One past the last record shipped: the next `WALEOF` watermark.
    shipped: Lsn,
    /// Durability watermark the replica last acknowledged.
    acked: Lsn,
    /// Records shipped so far.
    sent: u64,
    /// Records acknowledged so far.
    acked_records: u64,
    /// Outstanding `WALEOF` watermarks: `(watermark, sent-at-that-point)`,
    /// drained as `ACK`s arrive to keep `acked_records` honest.
    eofs: VecDeque<(Lsn, u64)>,
    /// Records shipped without a trailing `WALEOF` yet.
    eof_pending: bool,
}

struct SubscriberSink {
    /// The subscribed table (changes to other tables never match).
    table: TableId,
    /// Its name, as `CHANGE` lines spell it.
    name: String,
    /// Bound `WHERE` predicate; `None` matches every row.
    predicate: Option<Expr>,
    /// Per-xid runs of encoded `CHANGE` lines awaiting their `Commit`.
    pending: HashMap<u64, Vec<String>>,
}

impl Sink {
    /// [`REPLICA`] or [`SUBSCRIBER`].
    fn kind(&self) -> usize {
        matches!(self, Sink::Subscriber(_)) as usize
    }

    /// Turn one record into the lines it owes the consumer, appended to
    /// `out`.
    fn on_record(&mut self, lsn: Lsn, rec: &LogRecord, out: &mut VecDeque<String>) {
        match self {
            Sink::Replica(r) => {
                out.push_back(staged_wire::encode_walrec(lsn.segment, lsn.offset, &rec.to_bytes()));
                r.shipped = after(lsn);
                r.sent += 1;
                r.eof_pending = true;
            }
            Sink::Subscriber(s) => match rec {
                LogRecord::Begin { .. } => {}
                LogRecord::Insert { xid, table, bytes, .. } => {
                    s.buffer(*xid, *table, bytes, ChangeOp::Insert);
                }
                LogRecord::Delete { xid, table, before, .. } => {
                    s.buffer(*xid, *table, before, ChangeOp::Delete);
                }
                LogRecord::Abort { xid } => {
                    s.pending.remove(xid);
                }
                LogRecord::Commit { xid } => out.extend(s.pending.remove(xid).unwrap_or_default()),
            },
        }
    }
}

impl SubscriberSink {
    /// Decode a logged row image and encode the `CHANGE` line, when the
    /// record is for the subscribed table and its row passes the
    /// predicate. Rows that fail to decode or evaluate are skipped — a
    /// feed filters, it never fails the pump.
    fn encode_match(&self, table: u32, row_bytes: &[u8], op: ChangeOp) -> Option<String> {
        if self.table.0 != table {
            return None;
        }
        let tuple = Tuple::decode(row_bytes).ok()?;
        if let Some(pred) = &self.predicate {
            if !eval_predicate(pred, &tuple).unwrap_or(false) {
                return None;
            }
        }
        let fields: Vec<Option<String>> =
            tuple.values().iter().map(|v| (*v != Value::Null).then(|| v.to_string())).collect();
        Some(staged_wire::encode_change(&self.name, op, &fields))
    }

    /// Hold a matching row change until its transaction commits.
    fn buffer(&mut self, xid: u64, table: u32, row_bytes: &[u8], op: ChangeOp) {
        if let Some(line) = self.encode_match(table, row_bytes, op) {
            self.pending.entry(xid).or_default().push(line);
        }
    }
}

/// What happened to a feed during the current pump visit.
#[derive(Default)]
struct Visit {
    /// At least one line went into the outbox.
    moved: bool,
    /// The outbox refused a line for lack of room.
    full: bool,
    /// The consumer hung up.
    gone: bool,
}

struct Feed {
    tx: Sender<String>,
    /// Every record at or after this position is still owed to the feed.
    /// A caught-up feed's cursor is the flushed LSN itself.
    cursor: Lsn,
    /// Lines produced but not yet accepted by the outbox, in order. While
    /// it is non-empty the feed reads no further.
    overflow: VecDeque<String>,
    /// Consecutive visits that could move nothing into a full outbox.
    full_strikes: u32,
    visit: Visit,
    sink: Sink,
}

impl Feed {
    fn accepting(&self) -> bool {
        self.overflow.is_empty() && !self.visit.gone
    }

    /// Move overflow lines into the outbox until it is full; returns how
    /// many moved.
    fn send(&mut self) -> u64 {
        let mut moved = 0;
        while let Some(line) = self.overflow.pop_front() {
            match self.tx.try_send(line) {
                Ok(()) => moved += 1,
                Err(TrySendError::Full(line)) => {
                    self.overflow.push_front(line);
                    self.visit.full = true;
                    break;
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.visit.gone = true;
                    break;
                }
            }
        }
        self.visit.moved |= moved > 0;
        moved
    }

    /// A replica that was shipped records gets a `WALEOF` watermark once
    /// its overflow has drained.
    fn watermark(&mut self) {
        let Sink::Replica(r) = &mut self.sink else { return };
        if !r.eof_pending || !self.overflow.is_empty() || self.visit.gone {
            return;
        }
        let eof = staged_wire::encode_waleof(r.shipped.segment, r.shipped.offset);
        match self.tx.try_send(eof) {
            Ok(()) => {
                r.eofs.push_back((r.shipped, r.sent));
                r.eof_pending = false;
            }
            Err(TrySendError::Full(_)) => self.visit.full = true,
            Err(TrySendError::Disconnected(_)) => self.visit.gone = true,
        }
    }

    /// What this feed still needs kept in the log.
    fn floor(&self) -> Lsn {
        match &self.sink {
            Sink::Replica(r) => r.acked,
            Sink::Subscriber(_) => self.cursor,
        }
    }
}

struct TailInner {
    next_id: u64,
    feeds: HashMap<u64, Feed>,
    /// High-water replica shipping cursor.
    shipped: Lsn,
}

/// The primary's one reader of its own log: every replica and subscriber
/// feed, pumped together (see the module docs). One per server, shared by
/// the network front end (which registers feeds and relays `ACK`s), the
/// pump drivers (the `replication` stage, the `repl-pump` thread, the
/// network loop) and the checkpoint path (which clamps truncation to
/// [`floor`](Self::floor)).
pub struct LogTail {
    wal: Arc<Wal>,
    /// Outbox capacity per feed kind.
    outbox: [usize; 2],
    inner: Mutex<TailInner>,
    /// Lines moved into outboxes (or handed out by `drain`), per kind.
    lines: [AtomicU64; 2],
    /// Feeds evicted for not draining, per kind.
    evicted: [AtomicU64; 2],
}

impl LogTail {
    /// A tail over `wal`, with replica and subscriber outboxes of the
    /// given capacities in framed lines.
    pub fn new(wal: Arc<Wal>, replication_outbox: usize, subscription_outbox: usize) -> Self {
        Self {
            wal,
            outbox: [replication_outbox.max(2), subscription_outbox.max(2)],
            inner: Mutex::new(TailInner { next_id: 0, feeds: HashMap::new(), shipped: Lsn::ZERO }),
            lines: Default::default(),
            evicted: Default::default(),
        }
    }

    fn register(&self, cursor: Lsn, sink: Sink) -> (u64, Receiver<String>) {
        let (tx, rx) = bounded(self.outbox[sink.kind()]);
        if let Sink::Replica(_) = sink {
            // An immediate watermark so a caught-up replica acks its
            // position right away and the checkpoint floor learns it.
            let _ = tx.try_send(staged_wire::encode_waleof(cursor.segment, cursor.offset));
        }
        let mut inner = self.inner.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        let feed = Feed {
            tx,
            cursor,
            overflow: VecDeque::new(),
            full_strikes: 0,
            visit: Visit::default(),
            sink,
        };
        inner.feeds.insert(id, feed);
        (id, rx)
    }

    /// Drop a feed (orderly disconnect — not counted as an eviction).
    fn remove(&self, id: u64) {
        self.inner.lock().feeds.remove(&id);
    }

    /// The lowest log position any connected feed still needs: replica
    /// acks and subscriber cursors. Checkpoint truncation must keep every
    /// segment at or above it. `None` when no feed is connected.
    pub fn floor(&self) -> Option<Lsn> {
        self.inner.lock().feeds.values().map(Feed::floor).min()
    }

    fn send(&self, feed: &mut Feed) {
        let moved = feed.send();
        self.lines[feed.sink.kind()].fetch_add(moved, Ordering::Relaxed);
    }

    /// One visit: retry every feed's overflow, read the newly flushed
    /// records once from the lowest cursor of the feeds that can take
    /// more, hand each record to every feed it is owed to, then ship
    /// replica watermarks and apply the strike rule. Non-blocking; safe to
    /// call from any thread, any time. A feed whose position is already
    /// the flushed LSN costs no page read.
    pub fn pump(&self) {
        let mut inner = self.inner.lock();
        if inner.feeds.is_empty() {
            return;
        }
        for feed in inner.feeds.values_mut() {
            feed.visit = Visit::default();
            self.send(feed);
        }
        let from = inner.feeds.values().filter(|f| f.accepting()).map(|f| f.cursor).min();
        if let Some(from) = from {
            let feeds = &mut inner.feeds;
            let read = self.wal.read_flushed(from, |lsn, rec| {
                let mut open = false;
                for feed in feeds.values_mut() {
                    if feed.accepting() && lsn >= feed.cursor {
                        feed.cursor = after(lsn);
                        feed.sink.on_record(lsn, &rec, &mut feed.overflow);
                        self.send(feed);
                    }
                    open |= feed.accepting();
                }
                open
            });
            // Feeds still accepting have seen everything the read reached.
            // Damage leaves cursors where they are; the next visit retries.
            if let Ok(reached) = read {
                for feed in feeds.values_mut().filter(|f| f.accepting()) {
                    feed.cursor = feed.cursor.max(reached);
                }
            }
        }
        let mut shipped = inner.shipped;
        inner.feeds.retain(|_, feed| {
            feed.watermark();
            if let Sink::Replica(r) = &feed.sink {
                shipped = shipped.max(r.shipped);
            }
            if feed.visit.gone {
                return false;
            }
            if feed.visit.full && !feed.visit.moved {
                feed.full_strikes += 1;
                if feed.full_strikes >= EVICTION_FULL_STRIKES {
                    self.evicted[feed.sink.kind()].fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            } else {
                feed.full_strikes = 0;
            }
            true
        });
        inner.shipped = shipped;
    }

    /// See [`ReactivityHub::drain`].
    fn drain(&self, id: u64) -> Vec<String> {
        let Some(mut feed) = self.inner.lock().feeds.remove(&id) else {
            return Vec::new();
        };
        let mut out = std::mem::take(&mut feed.overflow);
        let _ = self.wal.read_flushed(feed.cursor, |lsn, rec| {
            feed.sink.on_record(lsn, &rec, &mut out);
            true
        });
        self.lines[feed.sink.kind()].fetch_add(out.len() as u64, Ordering::Relaxed);
        out.into()
    }
}

/// Point-in-time counters for the primary's `replication` STATS row and
/// for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Replicas currently subscribed.
    pub connected: u64,
    /// Records shipped to replicas, total (a record shipped to two
    /// replicas counts twice).
    pub shipped_records: u64,
    /// Replicas evicted because they stopped draining their bounded
    /// outbox ([`EVICTION_FULL_STRIKES`] consecutive full pump visits
    /// with nothing accepted).
    pub evicted: u64,
    /// High-water shipping cursor across replicas (one past the last
    /// record any replica has been handed).
    pub shipped_lsn: Lsn,
    /// Largest shipped-but-unacknowledged record count over the connected
    /// replicas: the worst per-replica lag.
    pub max_lag_records: u64,
    /// Total shipped-but-unacknowledged records across replicas.
    pub unacked_records: u64,
    /// The bounded outbox capacity, in lines.
    pub outbox_capacity: u64,
}

/// The replication front door onto the [`LogTail`]: `REPLICATE` feeds of
/// `WALREC`/`WALEOF` lines, their `ACK`s, and the replicas-only acked
/// floor.
pub struct ReplicationHub {
    tail: Arc<LogTail>,
}

impl ReplicationHub {
    /// The replication front door of `tail`.
    pub fn new(tail: Arc<LogTail>) -> Self {
        Self { tail }
    }

    /// The shared log tail behind this front door.
    pub(crate) fn tail(&self) -> &Arc<LogTail> {
        &self.tail
    }

    /// Register a replica that wants records from `from` on. Returns the
    /// feed id and the outbox receiver the caller must drain to the
    /// socket. Refused when the history below `from` — or the segment
    /// `from` addresses — has already been truncated by a checkpoint: a
    /// replica that far behind must re-seed, it cannot catch up.
    pub fn subscribe(&self, from: Lsn) -> Result<(u64, Receiver<String>), ServerError> {
        let segs = self
            .tail
            .wal
            .segments()
            .map_err(|e| ServerError::Execution(format!("replication: segment list: {e}")))?;
        if let Some(oldest) = segs.first() {
            if from.segment < *oldest {
                return Err(ServerError::Execution(format!(
                    "replication history truncated: oldest live segment is {oldest}, \
                     cannot resume from {from}; re-seed the replica"
                )));
            }
        }
        let sink = ReplicaSink {
            shipped: from,
            acked: from,
            sent: 0,
            acked_records: 0,
            eofs: VecDeque::new(),
            eof_pending: false,
        };
        Ok(self.tail.register(from, Sink::Replica(sink)))
    }

    /// Drop a feed (orderly disconnect — not counted as an eviction).
    pub fn disconnect(&self, id: u64) {
        self.tail.remove(id);
    }

    /// Record a replica's `ACK <lsn>`: everything below `lsn` is durable
    /// on that replica and will never need re-shipping.
    pub fn ack(&self, id: u64, lsn: Lsn) {
        let mut inner = self.tail.inner.lock();
        if let Some(Feed { sink: Sink::Replica(r), .. }) = inner.feeds.get_mut(&id) {
            r.acked = r.acked.max(lsn);
            while r.eofs.front().is_some_and(|(w, _)| *w <= lsn) {
                let (_, sent) = r.eofs.pop_front().expect("front checked");
                r.acked_records = sent;
            }
        }
    }

    /// The minimum acknowledged LSN over the connected replicas (`None`
    /// when no replica is connected; a disconnected or evicted replica
    /// does *not* pin the log, and may find its history gone when it
    /// returns). Checkpoints clamp to the wider [`LogTail::floor`], which
    /// also covers subscribers.
    pub fn min_acked(&self) -> Option<Lsn> {
        let inner = self.tail.inner.lock();
        inner.feeds.values().filter(|f| matches!(f.sink, Sink::Replica(_))).map(Feed::floor).min()
    }

    /// Pump the shared tail: every replica *and* subscriber feed.
    pub fn pump(&self) {
        self.tail.pump();
    }

    /// Current shipping counters.
    pub fn stats(&self) -> ReplicationStats {
        let inner = self.tail.inner.lock();
        let mut connected = 0u64;
        let mut max_lag = 0u64;
        let mut unacked = 0u64;
        for feed in inner.feeds.values() {
            if let Sink::Replica(r) = &feed.sink {
                let lag = r.sent.saturating_sub(r.acked_records);
                connected += 1;
                max_lag = max_lag.max(lag);
                unacked += lag;
            }
        }
        ReplicationStats {
            connected,
            shipped_records: self.tail.lines[REPLICA].load(Ordering::Relaxed),
            evicted: self.tail.evicted[REPLICA].load(Ordering::Relaxed),
            shipped_lsn: inner.shipped,
            max_lag_records: max_lag,
            unacked_records: unacked,
            outbox_capacity: self.tail.outbox[REPLICA] as u64,
        }
    }
}

/// Point-in-time counters for the `subscriptions` STATS row and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriptionStats {
    /// Subscribers currently connected.
    pub connected: u64,
    /// `CHANGE` lines delivered into subscriber outboxes, total (a change
    /// matching two subscribers counts twice).
    pub delivered_changes: u64,
    /// Subscribers evicted because they stopped draining their bounded
    /// outbox.
    pub evicted: u64,
    /// Committed-but-undelivered `CHANGE` lines currently buffered across
    /// subscribers (each one's overflow queue).
    pub queued_changes: u64,
    /// The worst single subscriber's overflow backlog (committed lines
    /// beyond what its outbox could hold).
    pub max_backlog: u64,
    /// The bounded outbox capacity, in lines.
    pub outbox_capacity: u64,
}

/// The subscription front door onto the [`LogTail`]: `SUBSCRIBE` change
/// feeds. Subscriptions start *now*: a feed's cursor begins at the WAL's
/// append position, so it sees only transactions that commit after it
/// (no historical replay; PROTOCOL.md §8).
pub struct ReactivityHub {
    tail: Arc<LogTail>,
    catalog: Arc<Catalog>,
}

impl ReactivityHub {
    /// The subscription front door of `tail`, resolving tables and binding
    /// predicates against `catalog`.
    pub fn new(tail: Arc<LogTail>, catalog: Arc<Catalog>) -> Self {
        Self { tail, catalog }
    }

    /// Register a subscriber for committed changes to `table`, optionally
    /// filtered by a `WHERE` predicate (source text, without the
    /// keyword). Returns the feed id and the outbox receiver the caller
    /// must drain to the socket. The feed starts at the WAL's current
    /// append position: only transactions committing after this call are
    /// streamed.
    pub fn subscribe(
        &self,
        table: &str,
        predicate: Option<&str>,
    ) -> Result<(u64, Receiver<String>), ServerError> {
        let info =
            self.catalog.table(table).map_err(|e| ServerError::Sql(format!("SUBSCRIBE: {e}")))?;
        let predicate = match predicate {
            None => None,
            Some(src) => {
                let mut expr = Parser::new(src, None)
                    .and_then(|mut p| p.parse_expr())
                    .map_err(|e| ServerError::Sql(format!("SUBSCRIBE WHERE: {e}")))?;
                Binder::new(BindContext::new(&self.catalog))
                    .bind_table_predicate(&mut expr, &info)
                    .map_err(|e| ServerError::Sql(format!("SUBSCRIBE WHERE: {e}")))?;
                Some(fold(expr))
            }
        };
        let sink = SubscriberSink {
            table: info.id,
            name: info.name.clone(),
            predicate,
            pending: HashMap::new(),
        };
        Ok(self.tail.register(self.tail.wal.next_lsn(), Sink::Subscriber(sink)))
    }

    /// Drop a feed (orderly `UNSUBSCRIBE` or disconnect — not counted as
    /// an eviction).
    pub fn unsubscribe(&self, id: u64) {
        self.tail.remove(id);
    }

    /// True if the subscriber has no committed lines waiting beyond its
    /// outbox (used by the front end to decide whether a drained feed is
    /// fully caught up).
    pub fn is_drained(&self, id: u64) -> bool {
        self.tail.inner.lock().feeds.get(&id).is_none_or(|f| f.overflow.is_empty())
    }

    /// Remove a feed and return every committed line it was still owed:
    /// the overflow queue, plus a final read of the WAL to the flushed
    /// tail. This is the orderly-`UNSUBSCRIBE` path — together with a
    /// drain of the outbox receiver it guarantees that every transaction
    /// committed before the `UNSUBSCRIBE` is delivered before the closing
    /// `OK` (PROTOCOL.md §8). Transactions still in flight (no `Commit`
    /// record yet) are not waited for.
    pub fn drain(&self, id: u64) -> Vec<String> {
        self.tail.drain(id)
    }

    /// Pump the shared tail: every subscriber *and* replica feed.
    pub fn pump(&self) {
        self.tail.pump();
    }

    /// Current subscription counters.
    pub fn stats(&self) -> SubscriptionStats {
        let inner = self.tail.inner.lock();
        let mut connected = 0u64;
        let mut queued = 0u64;
        let mut max_backlog = 0u64;
        for feed in inner.feeds.values() {
            if let Sink::Subscriber(_) = feed.sink {
                let backlog = feed.overflow.len() as u64;
                connected += 1;
                queued += backlog;
                max_backlog = max_backlog.max(backlog);
            }
        }
        SubscriptionStats {
            connected,
            delivered_changes: self.tail.lines[SUBSCRIBER].load(Ordering::Relaxed),
            evicted: self.tail.evicted[SUBSCRIBER].load(Ordering::Relaxed),
            queued_changes: queued,
            max_backlog,
            outbox_capacity: self.tail.outbox[SUBSCRIBER] as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_storage::{
        BufferPool, Column, DataType, MemDisk, MemSegmentStore, Schema, SegmentStore,
    };
    use std::time::Duration;

    // -- replication front door ---------------------------------------------

    fn hub_with_records(n: u64, capacity: usize) -> (Arc<Wal>, ReplicationHub) {
        let wal =
            Arc::new(Wal::open_with_segment_pages(Arc::new(MemSegmentStore::new()), 4).unwrap());
        for xid in 1..=n {
            wal.append(&LogRecord::Begin { xid }).unwrap();
            wal.append(&LogRecord::Commit { xid }).unwrap();
        }
        let tail = LogTail::new(Arc::clone(&wal), capacity, DEFAULT_OUTBOX_CAPACITY);
        (wal, ReplicationHub::new(Arc::new(tail)))
    }

    #[test]
    fn pump_ships_in_order_and_watermarks() {
        let (wal, hub) = hub_with_records(3, 64);
        let (_id, rx) = hub.subscribe(Lsn::ZERO).unwrap();
        hub.pump();
        let mut lsns = Vec::new();
        let mut eofs = Vec::new();
        while let Ok(line) = rx.try_recv() {
            match staged_wire::parse_repl_frame(&line).unwrap() {
                staged_wire::ReplFrame::Record { segment, offset, payload } => {
                    assert!(LogRecord::from_bytes(&payload).is_ok());
                    lsns.push(Lsn { segment, offset });
                }
                staged_wire::ReplFrame::Eof { segment, offset } => {
                    eofs.push(Lsn { segment, offset });
                }
            }
        }
        assert_eq!(lsns.len(), 6, "three Begin/Commit pairs");
        assert!(lsns.windows(2).all(|w| w[0] < w[1]), "shipped in log order");
        // Subscribe enqueues an immediate watermark at the resume point;
        // the pump follows with one just past the last shipped record.
        assert_eq!(eofs.first(), Some(&Lsn::ZERO));
        assert_eq!(eofs.last(), Some(&after(*lsns.last().unwrap())));
        assert!(*lsns.last().unwrap() < wal.next_lsn());
        assert_eq!(hub.stats().shipped_records, 6);
    }

    #[test]
    fn full_outbox_evicts_the_slow_replica() {
        let (_wal, hub) = hub_with_records(16, 4);
        let (_id, rx) = hub.subscribe(Lsn::ZERO).unwrap();
        // The first visit fills the outbox — that alone is flow control,
        // not an eviction. A subscriber that then accepts nothing across
        // the whole strike window has stopped draining and is cut.
        hub.pump();
        assert_eq!(hub.stats().connected, 1, "one full visit is not an eviction");
        for _ in 0..EVICTION_FULL_STRIKES {
            hub.pump();
        }
        assert_eq!(hub.stats().connected, 0, "evicted, not buffered");
        assert_eq!(hub.stats().evicted, 1);
        // The feed is cut: the sender side is dropped.
        while rx.try_recv().is_ok() {}
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
    }

    #[test]
    fn catchup_backlog_larger_than_outbox_is_flow_controlled_not_evicted() {
        // 32 records against a 4-line outbox: a draining subscriber must
        // receive everything over several pump visits, never be evicted.
        let (wal, hub) = hub_with_records(16, 4);
        let (_id, rx) = hub.subscribe(Lsn::ZERO).unwrap();
        let mut records = 0u32;
        let mut last_eof = None;
        while records < 32 {
            hub.pump();
            let mut progressed = false;
            while let Ok(line) = rx.try_recv() {
                progressed = true;
                match staged_wire::parse_repl_frame(&line).unwrap() {
                    staged_wire::ReplFrame::Record { .. } => records += 1,
                    staged_wire::ReplFrame::Eof { segment, offset } => {
                        last_eof = Some(Lsn { segment, offset });
                    }
                }
            }
            assert!(progressed, "pump stopped making progress mid-catch-up");
        }
        hub.pump(); // the trailing watermark, if the last visit was full
        while let Ok(line) = rx.try_recv() {
            if let staged_wire::ReplFrame::Eof { segment, offset } =
                staged_wire::parse_repl_frame(&line).unwrap()
            {
                last_eof = Some(Lsn { segment, offset });
            }
        }
        assert_eq!(hub.stats().connected, 1, "still subscribed");
        assert_eq!(hub.stats().evicted, 0);
        assert_eq!(hub.stats().shipped_records, 32);
        // The watermark covers every shipped record (offset arithmetic of
        // the final EOF is after(last record), at or below the append
        // position — see pump_ships_in_order_and_watermarks).
        let eof = last_eof.expect("a trailing watermark was shipped");
        assert!(eof > Lsn::ZERO && eof <= wal.next_lsn());
    }

    #[test]
    fn acks_move_the_truncation_floor() {
        let (wal, hub) = hub_with_records(4, 64);
        let (id, rx) = hub.subscribe(Lsn::ZERO).unwrap();
        hub.pump();
        drop(rx);
        assert_eq!(hub.min_acked(), Some(Lsn::ZERO));
        hub.ack(id, wal.next_lsn());
        assert_eq!(hub.min_acked(), Some(wal.next_lsn()));
        assert_eq!(hub.stats().max_lag_records, 0, "everything acked");
        hub.disconnect(id);
        assert_eq!(hub.min_acked(), None, "a departed replica pins nothing");
    }

    #[test]
    fn subscribe_below_truncated_history_is_refused() {
        let (wal, hub) = hub_with_records(2, 64);
        wal.rotate().unwrap();
        wal.truncate_below(wal.next_lsn()).unwrap();
        assert!(hub.subscribe(Lsn::ZERO).is_err());
        assert!(hub.subscribe(wal.next_lsn()).is_ok());
    }

    // -- subscription front door --------------------------------------------

    fn catalog() -> Arc<Catalog> {
        let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 256)));
        cat.create_table(
            "t",
            Schema::new(vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)]),
        )
        .unwrap();
        cat
    }

    fn row(id: i64, v: i64) -> Vec<u8> {
        Tuple::new(vec![Value::Int(id), Value::Int(v)]).encode()
    }

    fn hub_with(catalog: Arc<Catalog>, capacity: usize) -> (ReactivityHub, Arc<Wal>) {
        let wal =
            Arc::new(Wal::open(Arc::new(MemSegmentStore::new()) as Arc<dyn SegmentStore>).unwrap());
        let tail = LogTail::new(Arc::clone(&wal), DEFAULT_OUTBOX_CAPACITY, capacity);
        (ReactivityHub::new(Arc::new(tail), catalog), wal)
    }

    fn table_id(cat: &Catalog) -> u32 {
        cat.table("t").unwrap().id.0
    }

    #[test]
    fn committed_changes_stream_in_commit_order_and_aborts_vanish() {
        let cat = catalog();
        let tid = table_id(&cat);
        let (hub, wal) = hub_with(Arc::clone(&cat), 64);
        let (_id, rx) = hub.subscribe("t", None).unwrap();

        // Interleaved xids: 1 commits, 2 aborts, 3 commits after 1.
        let rid = staged_storage::Rid { page: staged_storage::PageId(0), slot: 0 };
        wal.append(&LogRecord::Begin { xid: 1 }).unwrap();
        wal.append(&LogRecord::Begin { xid: 2 }).unwrap();
        wal.append(&LogRecord::Insert { xid: 2, table: tid, rid, bytes: row(99, 0) }).unwrap();
        wal.append(&LogRecord::Insert { xid: 1, table: tid, rid, bytes: row(1, 10) }).unwrap();
        wal.append(&LogRecord::Abort { xid: 2 }).unwrap();
        wal.append(&LogRecord::Insert { xid: 1, table: tid, rid, bytes: row(2, 20) }).unwrap();
        wal.append(&LogRecord::Commit { xid: 1 }).unwrap();
        wal.append(&LogRecord::Begin { xid: 3 }).unwrap();
        wal.append(&LogRecord::Delete { xid: 3, table: tid, rid, before: row(1, 10) }).unwrap();
        wal.append(&LogRecord::Commit { xid: 3 }).unwrap();

        hub.pump();
        let lines: Vec<String> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        assert_eq!(
            lines,
            vec![
                "CHANGE t INSERT\t1\t10".to_string(),
                "CHANGE t INSERT\t2\t20".to_string(),
                "CHANGE t DELETE\t1\t10".to_string(),
            ]
        );
        assert_eq!(hub.stats().delivered_changes, 3);
    }

    #[test]
    fn subscriptions_start_at_the_current_wal_position() {
        let cat = catalog();
        let tid = table_id(&cat);
        let (hub, wal) = hub_with(Arc::clone(&cat), 64);
        let rid = staged_storage::Rid { page: staged_storage::PageId(0), slot: 0 };
        wal.append(&LogRecord::Begin { xid: 1 }).unwrap();
        wal.append(&LogRecord::Insert { xid: 1, table: tid, rid, bytes: row(1, 1) }).unwrap();
        wal.append(&LogRecord::Commit { xid: 1 }).unwrap();

        // History before the subscribe call never replays.
        let (_id, rx) = hub.subscribe("t", None).unwrap();
        hub.pump();
        assert!(rx.try_recv().is_err());

        wal.append(&LogRecord::Begin { xid: 2 }).unwrap();
        wal.append(&LogRecord::Insert { xid: 2, table: tid, rid, bytes: row(2, 2) }).unwrap();
        wal.append(&LogRecord::Commit { xid: 2 }).unwrap();
        hub.pump();
        assert_eq!(rx.try_recv().unwrap(), "CHANGE t INSERT\t2\t2");
    }

    #[test]
    fn where_predicates_filter_the_feed() {
        let cat = catalog();
        let tid = table_id(&cat);
        let (hub, wal) = hub_with(Arc::clone(&cat), 64);
        let (_id, rx) = hub.subscribe("t", Some("v > 15 AND id < 100")).unwrap();
        let rid = staged_storage::Rid { page: staged_storage::PageId(0), slot: 0 };
        wal.append(&LogRecord::Begin { xid: 1 }).unwrap();
        for (id, v) in [(1, 10), (2, 20), (3, 30), (200, 99)] {
            wal.append(&LogRecord::Insert { xid: 1, table: tid, rid, bytes: row(id, v) }).unwrap();
        }
        wal.append(&LogRecord::Commit { xid: 1 }).unwrap();
        hub.pump();
        let lines: Vec<String> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        assert_eq!(lines, vec!["CHANGE t INSERT\t2\t20", "CHANGE t INSERT\t3\t30"]);
    }

    #[test]
    fn bad_subscriptions_are_refused() {
        let cat = catalog();
        let (hub, _wal) = hub_with(cat, 64);
        assert!(matches!(hub.subscribe("nope", None), Err(ServerError::Sql(_))));
        assert!(matches!(hub.subscribe("t", Some("bogus !!")), Err(ServerError::Sql(_))));
        assert!(matches!(hub.subscribe("t", Some("missing > 1")), Err(ServerError::Sql(_))));
        // Aggregates can't stream row-at-a-time.
        assert!(matches!(hub.subscribe("t", Some("SUM(v) > 1")), Err(ServerError::Sql(_))));
    }

    #[test]
    fn full_outbox_is_flow_control_then_strikes_evict() {
        let cat = catalog();
        let tid = table_id(&cat);
        let (hub, wal) = hub_with(Arc::clone(&cat), 2);
        let (id, rx) = hub.subscribe("t", None).unwrap();
        let rid = staged_storage::Rid { page: staged_storage::PageId(0), slot: 0 };
        wal.append(&LogRecord::Begin { xid: 1 }).unwrap();
        for i in 0..6 {
            wal.append(&LogRecord::Insert { xid: 1, table: tid, rid, bytes: row(i, i) }).unwrap();
        }
        wal.append(&LogRecord::Commit { xid: 1 }).unwrap();

        // Visit 1 delivers what fits; the rest is queued, not dropped.
        hub.pump();
        assert_eq!(hub.stats().connected, 1);
        assert_eq!(hub.stats().queued_changes, 4);

        // A draining subscriber keeps receiving every line, in order.
        let mut got = Vec::new();
        for _ in 0..4 {
            while let Ok(l) = rx.try_recv() {
                got.push(l);
            }
            hub.pump();
        }
        while let Ok(l) = rx.try_recv() {
            got.push(l);
        }
        assert_eq!(got.len(), 6);
        assert!(got.iter().enumerate().all(|(i, l)| l == &format!("CHANGE t INSERT\t{i}\t{i}")));
        assert_eq!(hub.stats().evicted, 0);
        hub.unsubscribe(id);

        // A subscriber that stops reading entirely: strikes, then eviction.
        let (_id2, rx2) = hub.subscribe("t", None).unwrap();
        wal.append(&LogRecord::Begin { xid: 2 }).unwrap();
        for i in 0..6 {
            wal.append(&LogRecord::Insert { xid: 2, table: tid, rid, bytes: row(i, i) }).unwrap();
        }
        wal.append(&LogRecord::Commit { xid: 2 }).unwrap();
        hub.pump(); // fills the outbox (delivers 2) — not a strike yet
        for _ in 0..EVICTION_FULL_STRIKES {
            assert_eq!(hub.stats().connected, 1, "still connected while striking");
            hub.pump();
        }
        assert_eq!(hub.stats().connected, 0);
        assert_eq!(hub.stats().evicted, 1);
        // The sender side dropped: the front end sees the hang-up.
        let drained: Vec<String> = std::iter::from_fn(|| rx2.try_recv().ok()).collect();
        assert_eq!(drained.len(), 2);
        assert!(rx2.try_recv().is_err());
    }

    #[test]
    fn drain_returns_the_owed_tail_in_order() {
        let cat = catalog();
        let tid = table_id(&cat);
        let (hub, wal) = hub_with(Arc::clone(&cat), 2);
        let (id, rx) = hub.subscribe("t", None).unwrap();
        let rid = staged_storage::Rid { page: staged_storage::PageId(0), slot: 0 };
        wal.append(&LogRecord::Begin { xid: 1 }).unwrap();
        for i in 0..4 {
            wal.append(&LogRecord::Insert { xid: 1, table: tid, rid, bytes: row(i, i) }).unwrap();
        }
        wal.append(&LogRecord::Commit { xid: 1 }).unwrap();
        hub.pump(); // outbox (cap 2) takes two lines, overflow queues two
                    // Commit a transaction the pump never visits, and leave one in
                    // flight: drain owes the overflow + the unseen commit, nothing
                    // from the open transaction.
        wal.append(&LogRecord::Begin { xid: 2 }).unwrap();
        wal.append(&LogRecord::Insert { xid: 2, table: tid, rid, bytes: row(9, 9) }).unwrap();
        wal.append(&LogRecord::Commit { xid: 2 }).unwrap();
        wal.append(&LogRecord::Begin { xid: 3 }).unwrap();
        wal.append(&LogRecord::Insert { xid: 3, table: tid, rid, bytes: row(8, 8) }).unwrap();

        let tail = hub.drain(id);
        let outbox: Vec<String> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        let mut all = outbox;
        all.extend(tail);
        assert_eq!(
            all,
            vec![
                "CHANGE t INSERT\t0\t0".to_string(),
                "CHANGE t INSERT\t1\t1".to_string(),
                "CHANGE t INSERT\t2\t2".to_string(),
                "CHANGE t INSERT\t3\t3".to_string(),
                "CHANGE t INSERT\t9\t9".to_string(),
            ]
        );
        assert_eq!(hub.stats().connected, 0);
        assert_eq!(hub.stats().delivered_changes, 5);
    }

    #[test]
    fn unsubscribe_releases_the_feed() {
        let cat = catalog();
        let (hub, _wal) = hub_with(cat, 8);
        let (id, rx) = hub.subscribe("t", None).unwrap();
        assert_eq!(hub.stats().connected, 1);
        hub.unsubscribe(id);
        assert_eq!(hub.stats().connected, 0);
        assert!(rx.try_recv().is_err());
    }

    // -- one read for every feed ---------------------------------------------

    /// Pages read by one idle pump and by one pump after a small commit,
    /// with `n` caught-up feeds, replicas and subscribers alternating.
    fn pages_per_pump(n: usize) -> (u64, u64) {
        let cat = catalog();
        let tid = table_id(&cat);
        let store = Arc::new(MemSegmentStore::new());
        let wal = Arc::new(Wal::open(Arc::clone(&store) as Arc<dyn SegmentStore>).unwrap());
        let rid = staged_storage::Rid { page: staged_storage::PageId(0), slot: 0 };
        let commit = |xid: u64| {
            wal.append(&LogRecord::Begin { xid }).unwrap();
            let bytes = row(xid as i64, 0);
            wal.append(&LogRecord::Insert { xid, table: tid, rid, bytes }).unwrap();
            wal.append(&LogRecord::Commit { xid }).unwrap();
        };
        // Several pages of history, all of it before the feeds join.
        for xid in 1..=400 {
            commit(xid);
        }
        let tail = Arc::new(LogTail::new(Arc::clone(&wal), 64, 64));
        let repl = ReplicationHub::new(Arc::clone(&tail));
        let subs = ReactivityHub::new(Arc::clone(&tail), cat);
        let feeds: Vec<Receiver<String>> = (0..n)
            .map(|i| match i % 2 {
                0 => repl.subscribe(wal.next_lsn()).unwrap().1,
                _ => subs.subscribe("t", None).unwrap().1,
            })
            .collect();
        let lines = |rx: &Receiver<String>| std::iter::from_fn(|| rx.try_recv().ok()).count();
        repl.pump();
        assert_eq!(feeds.iter().map(lines).sum::<usize>(), n.div_ceil(2), "subscribe watermarks");

        let reads = || store.io_stats().reads;
        let before = reads();
        subs.pump();
        let mut idle = reads() - before;
        commit(401);
        let before = reads();
        repl.pump();
        let one = reads() - before;
        for (i, rx) in feeds.iter().enumerate() {
            // Replicas: three WALRECs and a WALEOF; subscribers: one CHANGE.
            assert_eq!(lines(rx), if i % 2 == 0 { 4 } else { 1 }, "feed {i}");
        }
        let before = reads();
        subs.pump();
        idle += reads() - before;
        (idle, one)
    }

    #[test]
    fn one_read_serves_every_feed() {
        let (_, one) = pages_per_pump(1);
        let (idle, many) = pages_per_pump(64);
        assert_eq!(idle, 0, "an idle pump touches no page");
        assert!(one >= 1);
        assert_eq!(many, one, "64 feeds read no more pages than one");
    }
}
