//! The closed-loop client threads: each sends its next statement only
//! after the previous answer arrived and was checked.

use crate::checks;
use crate::env::{Dataset, Feeds, Server, PARTITIONS};
use crate::trace::{Span, Tracer};
use crate::Workload;
use staged_dbclient::{Client, ClientError, QueryResult};
use staged_storage::wal::Lsn;
use staged_storage::{partition_of_value, Value};
use staged_wire::{parse_change, parse_repl_frame, ChangeOp, ReplFrame};
use std::sync::atomic::{AtomicI64, AtomicU8, Ordering};
use std::time::Instant;

/// Phase of a run before the first measured window.
pub const WARMUP: u8 = 0;
/// Phase that tells the client threads to stop.
pub const STOP: u8 = u8::MAX;

/// Share of `point_read` operations, in percent, that are updates.
pub const UPDATE_PCT: u64 = 5;

/// Operation classes, each with its own latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// One autocommit point `SELECT`.
    Read = 0,
    /// A write transaction: an autocommit `UPDATE` on `point_read`, a
    /// `BEGIN`, two `UPDATE`s and `COMMIT` elsewhere.
    Txn = 1,
    /// `BEGIN READ ONLY`, the scan statement, `COMMIT`.
    Scan = 2,
}

/// What one client thread did in one measured window.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Latencies in nanoseconds, by [`Class`].
    pub samples: [Vec<u64>; 3],
    /// Operations attempted.
    pub attempted: u64,
    /// Operations refused or failed by the server.
    pub failed: u64,
    /// Statements sent.
    pub statements: u64,
    /// Write transactions committed.
    pub commits: u64,
    /// Rows changed by committed transactions.
    pub rows_changed: u64,
    /// When each completed operation finished (ns since the run's
    /// origin) and its latency (ns).
    pub done: Vec<(u64, u64)>,
}

impl Window {
    /// Fold another thread's window into this one.
    pub fn absorb(&mut self, o: &Window) {
        for (mine, theirs) in self.samples.iter_mut().zip(&o.samples) {
            mine.extend_from_slice(theirs);
        }
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.statements += o.statements;
        self.commits += o.commits;
        self.rows_changed += o.rows_changed;
        self.done.extend_from_slice(&o.done);
    }

    /// Operations completed.
    pub fn ops(&self) -> u64 {
        self.samples.iter().map(|s| s.len() as u64).sum()
    }
}

/// State shared by the client threads of one run.
pub struct Shared<'a> {
    /// The data the answers are checked against.
    pub data: &'a Dataset,
    /// The server (its hubs take the replication consumer's acks).
    pub server: &'a Server,
    /// [`WARMUP`], a window number from 1, or [`STOP`].
    pub phase: AtomicU8,
    /// The window whose spans are recorded, if any.
    pub traced: Option<u8>,
    /// `point_read`: increments issued to each `ten` group, the most its
    /// final `SUM(unique2)` may exceed the loaded sum by.
    pub issued: [AtomicI64; 10],
    /// Run seed.
    pub seed: u64,
}

/// What a client thread hands back when it stops.
pub struct ThreadOut {
    /// Per measured window, in order.
    pub windows: Vec<Window>,
    /// Write transactions committed over the whole run, warm-up included
    /// (the feeds carry all of them).
    pub commits_total: u64,
    /// Recorded spans.
    pub spans: Vec<Span>,
    /// The feeds, with their counters.
    pub feeds: Feeds,
    /// The connection, still open.
    pub client: Client,
}

/// A deterministic generator (SplitMix64).
pub struct Rng(u64);

impl Rng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point read of a key.
    Read(i64),
    /// `point_read`'s single-row autocommit update.
    Update(i64),
    /// Move one unit from the first key to the second.
    Transfer(i64, i64),
    /// The workload's scan.
    Scan,
}

/// The next operation of client `tid` (its generator is `rng`).
pub fn next_op(w: Workload, tid: usize, rng: &mut Rng, rows: usize) -> Op {
    let n = rows as u64;
    match w {
        Workload::PointRead if rng.below(100) < UPDATE_PCT => Op::Update(rng.below(n) as i64),
        Workload::PointRead => Op::Read(rng.below(n) as i64),
        Workload::Transfer => {
            let a = rng.below(n);
            let b = (a + 1 + rng.below(n - 1)) % n;
            Op::Transfer(a as i64, b as i64)
        }
        Workload::HtapScan if tid == 0 => Op::Scan,
        Workload::HtapScan => {
            // Both keys in the same `ten` group, so every group's
            // SUM(unique2) stays at its loaded value.
            let groups = n / 10;
            let a = rng.below(n);
            let b = (a / 10 + 1 + rng.below(groups - 1)) % groups * 10 + a % 10;
            Op::Transfer(a as i64, b as i64)
        }
    }
}

/// The point-read statement.
pub fn read_sql(w: Workload, k: i64) -> String {
    match w {
        Workload::Transfer => format!("SELECT * FROM accounts WHERE id = {k}"),
        _ => format!("SELECT * FROM big WHERE unique1 = {k}"),
    }
}

/// The scan statement.
pub fn scan_sql(w: Workload) -> &'static str {
    match w {
        Workload::Transfer => "SELECT COUNT(*), SUM(bal) FROM accounts",
        _ => {
            "SELECT ten, COUNT(*), SUM(unique2), MIN(unique1), MAX(unique1) \
              FROM big WHERE two = 0 GROUP BY ten"
        }
    }
}

/// The single-row update adding `delta` to key `k`.
pub fn update_sql(w: Workload, k: i64, delta: i64) -> String {
    let sign = if delta < 0 { '-' } else { '+' };
    let d = delta.abs();
    match w {
        Workload::Transfer => format!("UPDATE accounts SET bal = bal {sign} {d} WHERE id = {k}"),
        _ => format!("UPDATE big SET unique2 = unique2 {sign} {d} WHERE unique1 = {k}"),
    }
}

/// A transfer's two updates, in partition order (then key order), so
/// concurrent transfers always lock partitions in the same order.
pub fn transfer_sqls(w: Workload, from: i64, to: i64) -> [String; 2] {
    let part = |k: i64| partition_of_value(&Value::Int(k), PARTITIONS);
    let mut legs = [(part(from), from, -1), (part(to), to, 1)];
    legs.sort_unstable();
    legs.map(|(_, k, d)| update_sql(w, k, d))
}

/// Why an operation did not complete.
enum Failure {
    /// The server refused or failed it (counted, the run goes on).
    Refused,
    /// A wrong answer or a broken connection (the run fails).
    Fatal(String),
}

struct Conn<'t> {
    client: Client,
    tracer: &'t mut Tracer,
    req: u64,
    parent: Option<u64>,
    statements: u64,
}

impl Conn<'_> {
    fn query(&mut self, sql: &str) -> Result<QueryResult, Failure> {
        self.statements += 1;
        let open = self.tracer.open(self.req, "wire.query", self.parent);
        let res = self.client.query(sql);
        self.tracer.close(open);
        match res {
            Ok(r) => Ok(r),
            Err(ClientError::Server { .. }) => Err(Failure::Refused),
            Err(e) => Err(Failure::Fatal(format!("{sql}: {e}"))),
        }
    }

    fn checked(
        &mut self,
        sql: &str,
        check: impl FnOnce(&QueryResult) -> Result<(), String>,
    ) -> Result<(), Failure> {
        let res = self.query(sql)?;
        check(&res).map_err(|e| Failure::Fatal(format!("{sql}: {e}")))
    }

    /// Run a write transaction; on a refused statement roll back.
    fn transaction(&mut self, stmts: &[String]) -> Result<(), Failure> {
        self.checked("BEGIN", |r| checks::check_tag(r, "BEGIN"))?;
        for sql in stmts {
            if let Err(f) = self.checked(sql, |r| checks::check_tag(r, "UPDATE 1")) {
                let _ = self.query("ROLLBACK");
                return Err(f);
            }
        }
        let res = self.query("COMMIT")?;
        match res.tag.as_str() {
            "COMMIT" => Ok(()),
            // Aborted server-side (lock timeout): COMMIT answers ROLLBACK.
            "ROLLBACK" => Err(Failure::Refused),
            other => Err(Failure::Fatal(format!("COMMIT answered {other:?}"))),
        }
    }

    /// Run the scan inside a read-only transaction.
    fn scan(
        &mut self,
        sql: &str,
        check: impl FnOnce(&QueryResult) -> Result<(), String>,
    ) -> Result<(), Failure> {
        self.checked("BEGIN READ ONLY", |r| checks::check_tag(r, "BEGIN"))?;
        let out = self.checked(sql, check);
        let end = self.checked("COMMIT", |r| checks::check_tag(r, "COMMIT"));
        out.and(end)
    }
}

fn run_op(conn: &mut Conn<'_>, shared: &Shared<'_>, op: Op) -> Result<(), Failure> {
    let w = shared.data.workload;
    let data = shared.data;
    match op {
        // Only `point_read` reads while measuring.
        Op::Read(k) => conn.checked(&read_sql(w, k), |r| {
            checks::check_wisconsin_row(r, k, &data.by_key[k as usize])
        }),
        Op::Update(k) => {
            let ten = (k % 10) as usize;
            shared.issued[ten].fetch_add(1, Ordering::SeqCst);
            conn.checked(&update_sql(w, k, 1), |r| checks::check_tag(r, "UPDATE 1"))
        }
        Op::Transfer(a, b) => conn.transaction(&transfer_sqls(w, a, b)),
        // Only `htap_scan` scans while measuring, and its transfers keep
        // every group's sums at their loaded values.
        Op::Scan => conn.scan(scan_sql(w), |r| checks::check_groups(r, &data.groups, |_| 0)),
    }
}

/// A client thread pumps the hubs of the feeds it drains once every this
/// many of its operations.
pub const PUMP_EVERY: u32 = 8;

/// Drain every feed this thread owns without blocking, checking each
/// line and acknowledging replication watermarks as a replica does. On
/// every [`PUMP_EVERY`]th call the thread then pumps the hubs, as the
/// network front end does for a feed connection that has caught up; left
/// to the `replication` stage's idle hook alone, the consumers fall behind
/// the commit rate without bound (see README.md). The cadence counts
/// operations, not time, so the feed work per transaction stays the same
/// when the machine slows down. The hubs are pumped in the order the
/// server's `replication` stage pumps them, replicas first: a checkpoint
/// truncates the log below the replicas' acknowledged LSN without regard
/// to subscription cursors, so a subscriber left behind the replica loses
/// the changes in the truncated segments (see README.md).
pub fn drain_feeds(feeds: &mut Feeds, server: &Server, table: &str) -> Result<(), String> {
    for sub in &mut feeds.subs {
        while let Ok(line) = sub.rx.try_recv() {
            count_change(sub, &line, table)?;
        }
    }
    if let Some(repl) = &mut feeds.repl {
        while let Ok(line) = repl.rx.try_recv() {
            match parse_repl_frame(&line).map_err(|e| format!("replication feed: {e}"))? {
                ReplFrame::Record { .. } => repl.records += 1,
                ReplFrame::Eof { segment, offset } => {
                    let lsn = Lsn { segment, offset };
                    server.replication().ack(repl.id, lsn);
                    repl.acked = repl.acked.max(lsn);
                }
            }
        }
    }
    feeds.since_pump += 1;
    if feeds.since_pump >= PUMP_EVERY {
        feeds.since_pump = 0;
        if feeds.repl.is_some() {
            server.replication().pump();
        }
        if !feeds.subs.is_empty() {
            server.reactivity().pump();
        }
    }
    Ok(())
}

/// Check and count one `CHANGE` line.
pub fn count_change(sub: &mut crate::env::SubFeed, line: &str, table: &str) -> Result<(), String> {
    let change = parse_change(line).map_err(|e| format!("subscription feed: {e}"))?;
    if change.table != table || change.fields.len() != 2 {
        return Err(format!("subscription feed: unexpected change {line:?}"));
    }
    match change.op {
        ChangeOp::Insert => sub.inserts += 1,
        ChangeOp::Delete => sub.deletes += 1,
    }
    Ok(())
}

/// One closed-loop client: generate, send, time, check, drain feeds,
/// until the phase says stop.
pub fn client_loop(
    tid: usize,
    client: Client,
    mut feeds: Feeds,
    shared: &Shared<'_>,
    origin: Instant,
    windows: usize,
) -> Result<ThreadOut, String> {
    let data = shared.data;
    let mut rng = Rng::new(shared.seed ^ (tid as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let mut tracer = Tracer::new(origin, tid as u64 + 1);
    let mut out = vec![Window::default(); windows];
    let mut commits_total = 0;
    let mut conn = Conn { client, tracer: &mut tracer, req: 0, parent: None, statements: 0 };
    loop {
        let phase = shared.phase.load(Ordering::SeqCst);
        if phase == STOP {
            break;
        }
        conn.tracer.set_enabled(shared.traced == Some(phase));
        let op = next_op(data.workload, tid, &mut rng, data.rows);
        let (class, name, rows) = match op {
            Op::Read(_) => (Class::Read, "op.read", 0),
            Op::Update(_) => (Class::Txn, "op.txn", 1),
            Op::Transfer(..) => (Class::Txn, "op.txn", 2),
            Op::Scan => (Class::Scan, "op.scan", 0),
        };
        conn.req = conn.tracer.request();
        let open = conn.tracer.open(conn.req, name, None);
        conn.parent = Some(open.id());
        conn.statements = 0;
        let res = run_op(&mut conn, shared, op);
        let dur = conn.tracer.close(open);
        let committed = res.is_ok() && class == Class::Txn;
        if committed {
            commits_total += 1;
        }
        if let Err(Failure::Fatal(e)) = &res {
            return Err(e.clone());
        }
        if phase != WARMUP {
            let win = &mut out[phase as usize - 1];
            win.attempted += 1;
            win.statements += conn.statements;
            match res {
                Ok(()) => {
                    let lat = dur.as_nanos() as u64;
                    win.samples[class as usize].push(lat);
                    win.done.push((origin.elapsed().as_nanos() as u64, lat));
                }
                Err(_) => win.failed += 1,
            }
            if committed {
                win.commits += 1;
                win.rows_changed += rows;
            }
        }
        drain_feeds(&mut feeds, shared.server, data.table())?;
    }
    let Conn { client, .. } = conn;
    Ok(ThreadOut { windows: out, commits_total, spans: tracer.take(), feeds, client })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_in_range() {
        for w in [Workload::PointRead, Workload::Transfer, Workload::HtapScan] {
            for tid in 0..2 {
                let (mut a, mut b) = (Rng::new(42), Rng::new(42));
                for _ in 0..2000 {
                    let (x, y) = (next_op(w, tid, &mut a, 1000), next_op(w, tid, &mut b, 1000));
                    assert_eq!(x, y);
                    if let Op::Transfer(p, q) = x {
                        assert!(p != q && (0..1000).contains(&p) && (0..1000).contains(&q));
                        if w == Workload::HtapScan {
                            assert_eq!(p % 10, q % 10, "htap transfers stay in one group");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn transfers_lock_partitions_in_order() {
        for (a, b) in [(1, 2), (7, 3), (100, 5)] {
            let sqls = transfer_sqls(Workload::Transfer, a, b);
            let key = |s: &str| s.rsplit(' ').next().unwrap().parse::<i64>().unwrap();
            let parts: Vec<usize> =
                sqls.iter().map(|s| partition_of_value(&Value::Int(key(s)), PARTITIONS)).collect();
            assert!(parts[0] <= parts[1]);
            assert!(
                sqls.iter().any(|s| s.contains("- 1")) && sqls.iter().any(|s| s.contains("+ 1"))
            );
        }
    }
}
