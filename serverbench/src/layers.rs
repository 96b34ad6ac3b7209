//! Per-layer measurements, all taken from outside the program: counter
//! snapshots around a measured window, and probes that issue one
//! statement three ways — over the wire, through an in-process session,
//! and layer by layer through the public `sql`, `planner` and `engine`
//! functions — under one request id.

use crate::env::{Dataset, Env};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{read_sql, scan_sql, update_sql, Rng};
use staged_core::monitor::StageStats;
use staged_dbclient::Client;
use staged_engine::context::ExecContext;
use staged_engine::volcano;
use staged_planner::{plan_select, plan_table_filter, PlannerConfig};
use staged_sql::{parse_statement, BindContext, Binder, Statement};
use staged_storage::buffer::PoolStats;
use staged_storage::disk::IoStats;
use staged_storage::wal::LogRecord;
use staged_storage::{FileSegmentStore, SegmentStore, Wal};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Point-read statements probed three ways.
pub const READ_PROBES: usize = 40;
/// Scan statements probed three ways.
pub const SCAN_PROBES: usize = 10;
/// Update statements probed through parse, bind and plan.
pub const DML_PROBES: usize = 40;
/// Repetitions of the cheap single-call probes (ping, pump, flush).
pub const CALL_PROBES: usize = 200;
/// Explicit checkpoints timed after the window.
pub const CHECKPOINT_PROBES: usize = 3;

/// Counter snapshot of every layer that exposes counters.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// `stage_stats()` (staged server only).
    pub stages: Vec<StageStats>,
    /// Buffer pool.
    pub pool: PoolStats,
    /// WAL segment store I/O.
    pub wal: IoStats,
    /// Checkpoints saved.
    pub checkpoints: u64,
    /// Dead versions reclaimed by checkpoint GC, all tables.
    pub gc_dead: u64,
    /// Dead versions retained for snapshots, all tables.
    pub dead_versions: u64,
    /// Live rows with a tracked creation stamp, all tables.
    pub created_versions: u64,
    /// `CHANGE` lines delivered into subscriber outboxes.
    pub feed_changes: u64,
    /// Subscribers evicted.
    pub feed_evicted: u64,
    /// Replicas evicted.
    pub repl_evicted: u64,
    /// Connections refused by the front end.
    pub net_rejected: u64,
}

impl Counters {
    /// Read every counter now.
    pub fn take(env: &Env) -> Self {
        let stages = env.server.staged().map_or_else(Vec::new, |s| s.stage_stats());
        let (mut gc_dead, mut dead_versions, mut created_versions) = (0, 0, 0);
        for t in env.catalog.list_tables() {
            let v = t.versions.stats();
            gc_dead += t.versions.gc_totals().0;
            dead_versions += v.dead;
            created_versions += v.created;
        }
        let feeds = env.server.reactivity().stats();
        Counters {
            stages,
            pool: env.catalog.pool().stats(),
            wal: env.segments.io_stats(),
            checkpoints: env.snapshots.saves(),
            gc_dead,
            dead_versions,
            created_versions,
            feed_changes: feeds.delivered_changes,
            feed_evicted: feeds.evicted,
            repl_evicted: env.server.replication().stats().evicted,
            net_rejected: env.net.stats().rejected,
        }
    }
}

/// `after − before` of one stage's counters: (busy ns, served, cohorts,
/// retries).
pub fn stage_delta(
    before: &[StageStats],
    after: &[StageStats],
    name: &str,
) -> (f64, f64, f64, f64) {
    let find = |v: &[StageStats]| v.iter().find(|s| s.name == name).cloned();
    match (find(before), find(after)) {
        (Some(b), Some(a)) => (
            a.busy_nanos.saturating_sub(b.busy_nanos) as f64,
            (a.processed + a.errors).saturating_sub(b.processed + b.errors) as f64,
            a.cohorts.saturating_sub(b.cohorts) as f64,
            a.retries.saturating_sub(b.retries) as f64,
        ),
        _ => (0.0, 0.0, 0.0, 0.0),
    }
}

/// Medians of the three-way probes, in microseconds unless named `_ms`.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// `Client::ping`.
    pub ping_us: f64,
    /// `Client::query` minus the session's `execute_sql`, same statement.
    pub wire_us: f64,
    /// The session's `execute_sql` of a point read.
    pub exec_us: f64,
    /// `parse_statement`.
    pub parse_us: f64,
    /// `Binder::bind_select`.
    pub bind_us: f64,
    /// `plan_select`.
    pub plan_us: f64,
    /// `volcano::run` of the point plan.
    pub engine_us: f64,
    /// `exec_us` minus parse, bind, plan and engine, per request.
    pub overhead_us: f64,
    /// The staged engine's `execute` of the scan plan, in ms.
    pub scan_ms: f64,
    /// Engine stage busy time per probed scan, ms, by stage name.
    pub engine_busy_ms: Vec<(String, f64)>,
    /// `parse` + `bind` + `plan_table_filter` of an update.
    pub dml_plan_us: f64,
    /// Probes issued: reads, scans, updates.
    pub counts: (usize, usize, usize),
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Issue sampled statements three ways, under one request id each, and
/// take the median of every span. `layered` adds the in-process layer
/// calls (the staged server's engine is needed for the scan).
pub fn probe(
    env: &Env,
    client: &mut Client,
    data: &Dataset,
    tracer: &mut Tracer,
    layered: bool,
) -> Result<Probes, String> {
    let w = data.workload;
    let catalog = &env.catalog;
    let session = env.server.session();
    let ctx = ExecContext::new(Arc::clone(catalog));
    let planner = PlannerConfig::default();
    let mut rng = Rng::new(data.seed ^ 0x05ee_d0f9_209e);
    let mut p = Probes::default();

    let mut ping = Vec::new();
    for _ in 0..CALL_PROBES {
        let req = tracer.request();
        let (r, d) = tracer.time(req, "wire.ping", None, || client.ping());
        r.map_err(|e| format!("ping: {e}"))?;
        ping.push(us(d));
    }
    p.ping_us = median(&ping);

    // Point reads, then scans: wire, session, and the layers.
    let mut cols: [Vec<f64>; 7] = Default::default(); // wire-exec, exec, parse, bind, plan, engine, overhead
    let mut scan_ms = Vec::new();
    let mut busy: Vec<(String, f64)> = Vec::new();
    let scans = if layered { SCAN_PROBES } else { 0 };
    for i in 0..READ_PROBES + scans {
        let is_scan = i >= READ_PROBES;
        let sql = if is_scan {
            scan_sql(w).to_string()
        } else {
            read_sql(w, rng.below(data.rows as u64) as i64)
        };
        let req = tracer.request();
        let root = tracer.open(req, if is_scan { "probe.scan" } else { "probe.read" }, None);
        let parent = Some(root.id());
        let (wire, d_wire) = tracer.time(req, "wire.query", parent, || client.query(&sql));
        let wire = wire.map_err(|e| format!("probe {sql}: {e}"))?;
        let (local, d_exec) =
            tracer.time(req, "server.execute_sql", parent, || session.execute_sql(&sql));
        let local = local.map_err(|e| format!("probe {sql}: {e}"))?;
        if local.rows.len() != wire.rows.len() || (!is_scan && wire.rows.len() != 1) {
            return Err(format!(
                "probe {sql}: wire {} rows, session {} rows",
                wire.rows.len(),
                local.rows.len()
            ));
        }
        if !is_scan {
            cols[0].push(us(d_wire) - us(d_exec));
            cols[1].push(us(d_exec));
        }
        if !layered {
            tracer.close(root);
            continue;
        }
        let (stmt, d_parse) =
            tracer.time(req, "sql.parse_statement", parent, || parse_statement(&sql));
        let Ok(Statement::Select(sel)) = stmt else {
            return Err(format!("probe {sql}: not a SELECT"));
        };
        let (bound, d_bind) = tracer.time(req, "sql.bind_select", parent, || {
            Binder::new(BindContext::new(catalog)).bind_select(sel)
        });
        let bound = bound.map_err(|e| format!("probe {sql}: {e}"))?;
        let (plan, d_plan) = tracer
            .time(req, "planner.plan_select", parent, || plan_select(&bound, catalog, &planner));
        let plan = plan.map_err(|e| format!("probe {sql}: {e}"))?;
        if is_scan {
            let staged = env.server.staged().ok_or("scan probe needs the staged engine")?;
            let before = staged.engine_stats();
            let (rows, d) = tracer
                .time(req, "engine.execute", parent, || staged.engine().execute(&plan).collect());
            let after = staged.engine_stats();
            let rows = rows.map_err(|e| format!("probe {sql}: {e}"))?;
            if rows.len() != wire.rows.len() {
                return Err(format!(
                    "probe {sql}: engine {} rows, wire {}",
                    rows.len(),
                    wire.rows.len()
                ));
            }
            scan_ms.push(us(d) / 1e3);
            for a in &after {
                let (ns, ..) = stage_delta(&before, &after, &a.name);
                match busy.iter_mut().find(|(n, _)| *n == a.name) {
                    Some((_, v)) => *v += ns / 1e6,
                    None => busy.push((a.name.clone(), ns / 1e6)),
                }
            }
        } else {
            let (rows, d_engine) =
                tracer.time(req, "engine.volcano_run", parent, || volcano::run(&plan, &ctx));
            let rows = rows.map_err(|e| format!("probe {sql}: {e}"))?;
            if rows.len() != 1 {
                return Err(format!("probe {sql}: engine returned {} rows", rows.len()));
            }
            let layers = us(d_parse) + us(d_bind) + us(d_plan) + us(d_engine);
            for (c, v) in cols[2..].iter_mut().zip([
                us(d_parse),
                us(d_bind),
                us(d_plan),
                us(d_engine),
                us(d_exec) - layers,
            ]) {
                c.push(v);
            }
        }
        tracer.close(root);
    }
    let m: Vec<f64> = cols.iter().map(|c| median(c)).collect();
    (p.wire_us, p.exec_us, p.parse_us, p.bind_us, p.plan_us, p.engine_us, p.overhead_us) =
        (m[0], m[1], m[2], m[3], m[4], m[5], m[6]);
    p.scan_ms = median(&scan_ms);
    p.engine_busy_ms = busy.into_iter().map(|(n, v)| (n, v / scans.max(1) as f64)).collect();

    // Updates stop at the plan: nothing is executed.
    let dmls = if layered { DML_PROBES } else { 0 };
    let mut dml = Vec::new();
    for _ in 0..dmls {
        let sql = update_sql(w, rng.below(data.rows as u64) as i64, 1);
        let req = tracer.request();
        let root = tracer.open(req, "probe.update", None);
        let parent = Some(root.id());
        let start = Instant::now();
        let (stmt, _) = tracer.time(req, "sql.parse_statement", parent, || parse_statement(&sql));
        let Ok(Statement::Update { table, sets, filter }) = stmt else {
            return Err(format!("probe {sql}: not an UPDATE"));
        };
        let info = catalog.table(&table).map_err(|e| e.to_string())?;
        let (filter, _) = tracer.time(req, "sql.bind_table_predicate", parent, || {
            let binder = Binder::new(BindContext::new(catalog));
            for (_, mut e) in sets {
                binder.bind_table_predicate(&mut e, &info)?;
            }
            filter.map(|mut f| binder.bind_table_predicate(&mut f, &info).map(|()| f)).transpose()
        });
        let filter = filter.map_err(|e| format!("probe {sql}: {e}"))?;
        tracer.time(req, "planner.plan_table_filter", parent, || {
            plan_table_filter(&info, filter, catalog, &planner)
        });
        dml.push(us(start.elapsed()));
        tracer.close(root);
    }
    p.dml_plan_us = median(&dml);
    p.counts = (READ_PROBES, scans, dmls);
    Ok(p)
}

/// Median duration of `f` over [`CALL_PROBES`] calls, in microseconds.
pub fn time_calls(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..CALL_PROBES)
        .map(|_| {
            let req = tracer.request();
            us(tracer.time(req, name, None, &mut f).1)
        })
        .collect();
    median(&samples)
}

/// Median time to append and flush (write + sync) one commit record on a
/// side WAL in the run's directory: the device cost under every commit.
pub fn wal_flush_us(env: &Env, tracer: &mut Tracer) -> Result<f64, String> {
    let store = FileSegmentStore::open(env.dir().join("side-wal")).map_err(|e| e.to_string())?;
    let wal = Wal::open(Arc::new(store)).map_err(|e| e.to_string())?;
    let mut xid = 0;
    let mut err = None;
    let t = time_calls(tracer, "storage.wal_commit_flush", || {
        xid += 1;
        if let Err(e) = wal.append(&LogRecord::Commit { xid }) {
            err = Some(e.to_string());
        }
    });
    err.map_or(Ok(t), Err)
}

/// Median time of explicit checkpoints, in ms.
pub fn checkpoint_ms(env: &Env, tracer: &mut Tracer) -> Result<f64, String> {
    let mut ms = Vec::new();
    for _ in 0..CHECKPOINT_PROBES {
        let req = tracer.request();
        let (r, d) = tracer.time(req, "server.checkpoint", None, || env.server.checkpoint());
        r.map_err(|e| format!("checkpoint: {e}"))?;
        ms.push(us(d) / 1e3);
    }
    Ok(median(&ms))
}
