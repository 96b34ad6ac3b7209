//! One benchmark run: set up several times, warm up, measure, check,
//! and turn what was measured into named metrics.

use crate::env::{Dataset, Design, Env, Feeds, Scale};
use crate::layers::{self, stage_delta, Counters, Probes};
use crate::stats::{self, fmt_ratio, median, ratio};
use crate::trace::{self, Span, Tracer};
use crate::workload::{
    self, client_loop, drain_feeds, Class, Shared, ThreadOut, Window, STOP, WARMUP,
};
use crate::{checks, Workload};
use staged_dbclient::Client;
use staged_storage::Wal;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// Stages of the staged server's pipeline, in order.
pub const STAGES: [&str; 9] = [
    "net",
    "connect",
    "parse",
    "optimize",
    "lock",
    "execute",
    "disconnect",
    "checkpoint",
    "replication",
];
/// Stages that serve client packets in cohorts.
pub const COHORT_STAGES: [&str; 7] =
    ["net", "connect", "parse", "optimize", "lock", "execute", "disconnect"];
/// Engine stages the workloads' statements use.
pub const ENGINE_STAGES: [&str; 5] = ["fscan", "iscan", "aggr", "merge", "send"];
/// Minimum auto-checkpoints in each measured `transfer` window.
pub const MIN_CHECKPOINTS: u64 = 3;
/// Share of a window's whole seconds the end-to-end metrics use: those in
/// which the hypervisor stole the least CPU time.
pub const QUIET_SHARE: f64 = 0.25;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload.
    pub workload: Workload,
    /// Seed of the generated data and statements.
    pub seed: u64,
    /// Length of a measured window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Table sizes.
    pub scale: Scale,
    /// Where set-ups put their stores, and where the trace is written.
    pub work_dir: PathBuf,
}

impl Options {
    /// A run of record of `workload`.
    pub fn of_record(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Options {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::full(workload),
            work_dir: PathBuf::from(".serverbench"),
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Base, sample count or other context for the printed report.
    pub note: String,
}

/// The outcome of a run that passed every check.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations refused or failed in it.
    pub failed: u64,
    /// The metrics printed in the result object.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before it.
    pub lines: Vec<String>,
}

fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric { name: name.into(), value, unit, note: note.into() }
}

/// What [`measure`] hands back.
struct Measured {
    /// Per window, merged over client threads.
    windows: Vec<Window>,
    /// Start of each window, since the run's origin, and its real length.
    bounds: Vec<(Duration, Duration)>,
    /// Share of the machine's CPU time stolen by the hypervisor in each
    /// whole second of each window.
    steal: Vec<Vec<f64>>,
    /// Counters at each window boundary (`windows.len() + 1` snapshots).
    counters: Vec<Counters>,
    /// Per-thread results.
    threads: Vec<ThreadOut>,
    /// `point_read`: increments issued to each `ten` group.
    issued: [i64; 10],
}

/// Run the client threads through a warm-up and `n` measured windows of
/// `window` each, recording spans in window `traced`.
fn measure(
    env: &Env,
    clients: Vec<Client>,
    feeds: Vec<Feeds>,
    data: &Dataset,
    window: Duration,
    n: usize,
    traced: Option<u8>,
) -> Result<Measured, String> {
    let shared = Shared {
        data,
        server: &env.server,
        phase: AtomicU8::new(WARMUP),
        traced,
        issued: Default::default(),
        seed: data.seed,
    };
    let origin = Instant::now();
    let warm = window.mul_f64(0.2).clamp(Duration::from_millis(200), Duration::from_secs(2));
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(feeds)
            .enumerate()
            .map(|(tid, (c, f))| {
                let shared = &shared;
                s.spawn(move || client_loop(tid, c, f, shared, origin, n))
            })
            .collect();
        // Sleep in short steps so a client that failed stops the run early.
        let wait_until = |end: Instant| {
            while Instant::now() < end && !handles.iter().any(|h| h.is_finished()) {
                std::thread::sleep(
                    Duration::from_millis(20).min(end.saturating_duration_since(Instant::now())),
                );
            }
        };
        wait_until(Instant::now() + warm);
        let mut counters = Vec::new();
        let mut bounds = Vec::new();
        let mut steal = Vec::new();
        for w in 1..=n {
            shared.phase.store(w as u8, Ordering::SeqCst);
            counters.push(Counters::take(env));
            let t = Instant::now();
            let mut ticks = vec![cpu_ticks()];
            for k in 1..=window.as_secs() {
                wait_until(t + Duration::from_secs(k));
                ticks.push(cpu_ticks());
            }
            wait_until(t + window);
            bounds.push((t - origin, t.elapsed()));
            steal.push(ticks.windows(2).map(|p| steal_share(p[0], p[1])).collect());
        }
        shared.phase.store(STOP, Ordering::SeqCst);
        counters.push(Counters::take(env));
        let mut threads = Vec::new();
        let mut err = None;
        for h in handles {
            match h.join() {
                Ok(Ok(out)) => threads.push(out),
                Ok(Err(e)) => err = err.or(Some(e)),
                Err(_) => err = err.or(Some("client thread panicked".to_string())),
            }
        }
        if let Some(e) = err {
            return Err(e);
        }
        let mut windows = vec![Window::default(); n];
        for t in &threads {
            for (mine, theirs) in windows.iter_mut().zip(&t.windows) {
                mine.absorb(theirs);
            }
        }
        let issued = shared.issued.each_ref().map(|a| a.load(Ordering::SeqCst));
        Ok(Measured { windows, bounds, steal, counters, threads, issued })
    })
}

/// Pump both hubs and drain every consumer until nothing more arrives.
fn settle_feeds(env: &Env, threads: &mut [ThreadOut], table: &str) -> Result<(), String> {
    let pending = |t: &ThreadOut| {
        t.feeds.subs.iter().map(|s| s.rx.len()).sum::<usize>()
            + t.feeds.repl.as_ref().map_or(0, |r| r.rx.len())
    };
    let mut quiet = 0;
    let deadline = Instant::now() + Duration::from_secs(20);
    while quiet < 3 {
        if Instant::now() > deadline {
            return Err("feeds did not settle within 20 s".into());
        }
        env.server.replication().pump();
        env.server.reactivity().pump();
        let waiting: usize = threads.iter().map(pending).sum();
        for t in threads.iter_mut() {
            drain_feeds(&mut t.feeds, &env.server, table)?;
        }
        quiet = if waiting == 0 { quiet + 1 } else { 0 };
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

/// The end-of-run output checks. Any failure fails the run.
fn final_checks(
    env: &Env,
    data: &Dataset,
    m: &mut Measured,
    lines: &mut Vec<String>,
) -> Result<(), String> {
    let w = data.workload;
    let threads = &mut m.threads;
    let client = &mut threads[0].client;
    let sql = workload::scan_sql(w);
    let res = client.query(sql).map_err(|e| format!("final scan: {e}"))?;
    match w {
        Workload::Transfer => checks::check_balance(&res, data.rows as i64, data.balance_total()),
        // Every issued update has committed or failed by now.
        Workload::PointRead => {
            checks::check_groups(&res, &data.groups, |ten| m.issued[ten as usize])
        }
        Workload::HtapScan => checks::check_groups(&res, &data.groups, |_| 0),
    }
    .map_err(|e| format!("final check: {e}"))?;
    if w != Workload::Transfer {
        return Ok(());
    }
    // Each SUBSCRIBE consumer saw exactly 4 CHANGE lines per committed
    // transfer: a DELETE and an INSERT for each of its two rows.
    let commits: u64 = threads.iter().map(|t| t.commits_total).sum();
    let hub = env.server.reactivity();
    for t in threads.iter_mut() {
        for sub in &mut t.feeds.subs {
            for line in hub.drain(sub.id) {
                workload::count_change(sub, &line, data.table())?;
            }
            while let Ok(line) = sub.rx.try_recv() {
                workload::count_change(sub, &line, data.table())?;
            }
            if sub.inserts != 2 * commits || sub.deletes != 2 * commits {
                return Err(format!(
                    "subscriber {}: {} INSERT + {} DELETE lines for {commits} committed transfers (want {} each)",
                    sub.id,
                    sub.inserts,
                    sub.deletes,
                    2 * commits
                ));
            }
        }
    }
    // The replication consumer's acknowledged LSN covers every durable
    // record: no record lies at or beyond it.
    let repl = threads[0].feeds.repl.as_ref().ok_or("no replication consumer")?;
    let (records, damage) = Wal::read_store_from(env.segments.as_ref(), repl.acked);
    if let Some(e) = damage {
        return Err(format!("reading the log: {e}"));
    }
    if let Some((lsn, _)) = records.iter().find(|(lsn, _)| *lsn >= repl.acked) {
        return Err(format!(
            "replication consumer acked {} but record {lsn} is durable",
            repl.acked
        ));
    }
    let flushed = env.server.staged().map(|s| s.wal().flushed_lsn().to_string());
    let (feed_evicted, repl_evicted) =
        (hub.stats().evicted, env.server.replication().stats().evicted);
    if feed_evicted + repl_evicted > 0 {
        return Err(format!("{feed_evicted} subscribers and {repl_evicted} replicas were evicted"));
    }
    lines.push(format!(
        "feeds: {} subscribers x {} CHANGE lines each = 4 x {commits} committed transfers; \
         replication acked {} (primary flushed {}), {} records shipped; nothing evicted",
        threads.iter().map(|t| t.feeds.subs.len()).sum::<usize>(),
        4 * commits,
        repl.acked,
        flushed.unwrap_or_else(|| "-".into()),
        repl.records
    ));
    Ok(())
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

const CLASS_NAMES: [(&str, &str, f64); 3] =
    [("read", "us", 1e3), ("txn", "us", 1e3), ("scan", "ms", 1e6)];

/// `(stolen, total)` CPU time of the machine so far, in clock ticks, or
/// `None` where the kernel does not report it.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// Share of the CPU time between two readings that was stolen.
fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// The whole second of a window that started at `start` (since the run's
/// origin) in which an operation completed at `t`.
fn second_of(t: u64, start: Duration) -> usize {
    Duration::from_nanos(t).saturating_sub(start).as_secs() as usize
}

/// Operations completed in each whole second of a window that started
/// at `start` (since the run's origin) and lasted `len`.
fn per_second(win: &Window, (start, len): (Duration, Duration)) -> Vec<f64> {
    let mut counts = vec![0.0; len.as_secs() as usize];
    for &(t, _) in &win.done {
        if let Some(c) = counts.get_mut(second_of(t, start)) {
            *c += 1.0;
        }
    }
    counts
}

/// Which whole seconds of a window the end-to-end metrics use: the
/// [`QUIET_SHARE`] of them in which the hypervisor stole the least CPU
/// time (at least one second, when the window has any).
fn quiet_seconds(steal: &[f64]) -> Vec<bool> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    let keep = ((steal.len() as f64 * QUIET_SHARE).ceil() as usize).max(1);
    let mut quiet = vec![false; steal.len()];
    for &k in order.iter().take(keep) {
        quiet[k] = true;
    }
    quiet
}

/// Operations completed per second over a window.
fn throughput(win: &Window, (_, len): (Duration, Duration)) -> f64 {
    win.ops() as f64 / len.as_secs_f64()
}

/// The end-to-end metrics of one window (all but `setup_s` and
/// `peak_rss_mb`), prefixed by `prefix`, over the window's quiet seconds
/// (see [`quiet_seconds`]): throughput is the median of their per-second
/// counts, latency the median of the operations that completed in them.
/// Neighbours on the shared host steal CPU time by the second; `transfer`,
/// whose every statement is handed through a dozen threads that sleep in
/// between, runs at a third of its speed while a fifth of the CPU time is
/// stolen, and a whole-window mean measured the neighbours.
fn e2e(
    prefix: &str,
    win: &Window,
    bounds: (Duration, Duration),
    steal: &[f64],
) -> Result<Vec<Metric>, String> {
    let quiet = quiet_seconds(steal);
    let counts: Vec<f64> = per_second(win, bounds)
        .into_iter()
        .zip(&quiet)
        .filter(|(_, &q)| q)
        .map(|(n, _)| n)
        .collect();
    let ops_per_s = if counts.is_empty() { throughput(win, bounds) } else { median(&counts) };
    let used: Vec<f64> = steal.iter().zip(&quiet).filter(|(_, &q)| q).map(|(&s, _)| s).collect();
    let most = used.iter().copied().fold(0.0, f64::max);
    let which = format!(
        "{} of {} whole seconds, those with the least steal (at most {:.0}%)",
        counts.len(),
        steal.len(),
        100.0 * most
    );
    let mut out = vec![metric(
        format!("{prefix}ops_per_s"),
        ops_per_s,
        "1/s",
        format!(
            "median of {which}; mean {:.1} over all {} operations in {:.2} s",
            throughput(win, bounds),
            win.ops(),
            bounds.1.as_secs_f64()
        ),
    )];
    let mut all: Vec<u64> = win
        .done
        .iter()
        .filter(|&&(t, _)| counts.is_empty() || quiet.get(second_of(t, bounds.0)) == Some(&true))
        .map(|&(_, lat)| lat)
        .collect();
    all.sort_unstable();
    if !stats::supported(all.len(), 0.5) {
        return Err(format!(
            "only {} operations: a median needs {} beyond it",
            all.len(),
            stats::MIN_BEYOND
        ));
    }
    out.push(metric(
        format!("{prefix}op_p50_us"),
        stats::percentile(&all, 0.5).expect("supported") as f64 / 1e3,
        "us",
        format!("p50 of {} operations of every class, completed in those seconds", all.len()),
    ));
    out.push(metric(
        format!("{prefix}ok_ratio"),
        1.0 - ratio(win.failed as f64, win.attempted as f64),
        "ratio",
        format!(
            "1 - error_ratio; error_ratio = {}",
            fmt_ratio(win.failed as f64, win.attempted as f64, "operations")
        ),
    ));
    Ok(out)
}

/// The median of each operation class, or 0 where the window has too few
/// samples of it for a median (fewer than 20, or none).
fn class_medians(prefix: &str, win: &Window) -> Vec<Metric> {
    let mut out = Vec::new();
    for (i, (class, unit, div)) in CLASS_NAMES.iter().enumerate() {
        let mut s = win.samples[i].clone();
        s.sort_unstable();
        let p50 = if stats::supported(s.len(), 0.5) {
            stats::percentile(&s, 0.5).expect("supported") as f64 / div
        } else {
            0.0
        };
        let note = format!("p50 of {} samples", s.len());
        out.push(metric(format!("{prefix}{class}_p50_{unit}"), p50, unit, note));
    }
    out
}

/// The tail of each class: the highest percentile with ten samples beyond.
fn tails(win: &Window) -> Vec<Metric> {
    let mut out = Vec::new();
    for (i, (class, unit, div)) in CLASS_NAMES.iter().enumerate() {
        let mut s = win.samples[i].clone();
        s.sort_unstable();
        let t = stats::tail(&s);
        let (q, v) = t.map_or((0.0, 0.0), |t| (t.q, t.value as f64 / div));
        let note = format!("p{} of {} samples", q * 100.0, s.len());
        out.push(metric(format!("tail.{class}_{unit}"), v, unit, note.clone()));
        out.push(metric(format!("tail.{class}_pct"), q * 100.0, "pct", note));
        out.push(metric(format!("tail.{class}_samples"), s.len() as f64, "count", ""));
    }
    out
}

/// Per-layer metrics from the counters around the traced window.
fn layer_metrics(
    win: &Window,
    before: &Counters,
    after: &Counters,
    data: &Dataset,
    env: &Env,
) -> Vec<Metric> {
    let ops = win.ops() as f64;
    let commits = win.commits as f64;
    let txns = win.samples[Class::Txn as usize].len() as f64;
    let scans = win.samples[Class::Scan as usize].len() as f64;
    let mut m = vec![
        metric("workload.ops", ops, "count", "operations completed in the traced window"),
        metric(
            "workload.statements",
            win.statements as f64,
            "count",
            "statements generated and sent",
        ),
        metric("workload.commits", commits, "count", "write transactions committed"),
        metric("workload.scans", scans, "count", "scans completed"),
    ];
    for s in STAGES {
        let (busy, ..) = stage_delta(&before.stages, &after.stages, s);
        m.push(metric(
            format!("stage.{s}.busy_us_per_op"),
            ratio(busy / 1e3, ops),
            "us",
            fmt_ratio(busy / 1e3, ops, "ops"),
        ));
    }
    for s in COHORT_STAGES {
        let (_, served, cohorts, _) = stage_delta(&before.stages, &after.stages, s);
        m.push(metric(
            format!("stage.{s}.ops_per_cohort"),
            ratio(served, cohorts),
            "count",
            fmt_ratio(served, cohorts, "cohorts"),
        ));
    }
    let (.., retries) = stage_delta(&before.stages, &after.stages, "lock");
    m.push(metric(
        "stage.lock.retries_per_txn",
        ratio(retries, txns),
        "count",
        fmt_ratio(retries, txns, "transactions"),
    ));
    let fetches = (after.pool.hits + after.pool.misses)
        .saturating_sub(before.pool.hits + before.pool.misses) as f64;
    let misses = after.pool.misses.saturating_sub(before.pool.misses) as f64;
    let evictions = after.pool.evictions.saturating_sub(before.pool.evictions) as f64;
    m.push(metric(
        "pool.pages_per_op",
        ratio(fetches, ops),
        "pages",
        fmt_ratio(fetches, ops, "ops"),
    ));
    m.push(metric(
        "pool.miss_ratio",
        ratio(misses, fetches),
        "ratio",
        fmt_ratio(misses, fetches, "page fetches"),
    ));
    m.push(metric(
        "pool.evictions_per_scan",
        ratio(evictions, scans),
        "pages",
        fmt_ratio(evictions, scans, "scans (dirty write-backs)"),
    ));
    m.push(metric(
        "table.pages",
        env.table_pages as f64,
        "pages",
        format!("heap pages at load, over {} pool frames", data.pool_frames),
    ));
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let (syncs, writes, reads) = (
        d(after.wal.syncs, before.wal.syncs),
        d(after.wal.writes, before.wal.writes),
        d(after.wal.reads, before.wal.reads),
    );
    m.push(metric(
        "wal.syncs_per_commit",
        ratio(syncs, commits),
        "count",
        fmt_ratio(syncs, commits, "commits"),
    ));
    m.push(metric(
        "wal.pages_written_per_commit",
        ratio(writes, commits),
        "pages",
        fmt_ratio(writes, commits, "commits"),
    ));
    m.push(metric(
        "wal.pages_read_per_commit",
        ratio(reads, commits),
        "pages",
        fmt_ratio(reads, commits, "commits"),
    ));
    let log_bytes = writes * staged_storage::PAGE_SIZE as f64;
    let user_bytes = win.rows_changed as f64 * data.row_bytes() as f64;
    m.push(metric(
        "wal.write_amp",
        ratio(log_bytes, user_bytes),
        "ratio",
        fmt_ratio(log_bytes, user_bytes, "user bytes changed"),
    ));
    m.push(metric(
        "mvcc.dead_versions",
        after.dead_versions as f64,
        "count",
        "at the end of the traced window",
    ));
    m.push(metric(
        "mvcc.created",
        after.created_versions as f64,
        "count",
        "live rows with a tracked creation stamp, same moment",
    ));
    m.push(metric(
        "mvcc.gc_reclaimed",
        d(after.gc_dead, before.gc_dead),
        "count",
        "dead versions reclaimed by checkpoints",
    ));
    m.push(metric(
        "checkpoint.count",
        d(after.checkpoints, before.checkpoints),
        "count",
        "checkpoints completed in the traced window",
    ));
    let changes = d(after.feed_changes, before.feed_changes);
    m.push(metric(
        "feeds.changes_per_commit",
        ratio(changes, commits),
        "count",
        fmt_ratio(changes, commits, "commits"),
    ));
    m.push(metric(
        "feeds.evicted",
        (after.feed_evicted + after.repl_evicted) as f64,
        "count",
        "subscribers and replicas",
    ));
    m.push(metric("net.rejected", after.net_rejected as f64, "count", "connections refused"));
    m
}

fn threaded_layer_metrics(win: &Window, before: &Counters, after: &Counters) -> Vec<Metric> {
    let ops = win.ops() as f64;
    let commits = win.commits as f64;
    let fetches = (after.pool.hits + after.pool.misses)
        .saturating_sub(before.pool.hits + before.pool.misses) as f64;
    let syncs = after.wal.syncs.saturating_sub(before.wal.syncs) as f64;
    vec![
        metric(
            "threaded.pool.pages_per_op",
            ratio(fetches, ops),
            "pages",
            fmt_ratio(fetches, ops, "ops"),
        ),
        metric(
            "threaded.wal.syncs_per_commit",
            ratio(syncs, commits),
            "count",
            fmt_ratio(syncs, commits, "commits"),
        ),
    ]
}

/// What [`Env::setup`] builds.
type Built = (Env, Vec<Client>, Vec<Feeds>);

/// Set up [`SETUPS`] times (keeping the last), returning every set-up
/// time.
fn setup(
    data: &Dataset,
    design: Design,
    opts: &Options,
    tag: &str,
) -> Result<(Built, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    let n = if design == Design::Staged { SETUPS } else { 1 };
    for k in 0..n {
        let dir = opts.work_dir.join(format!("run-{}-{tag}-{k}", std::process::id()));
        let t = Instant::now();
        let built = Env::setup(data, design, dir)?;
        times.push(t.elapsed().as_secs_f64());
        if let Some((env, clients, _)) = kept.replace(built) {
            quit(clients);
            drop(env);
        }
    }
    Ok((kept.expect("at least one set-up"), times))
}

fn quit(clients: impl IntoIterator<Item = Client>) {
    for c in clients {
        let _ = c.quit();
    }
}

/// Run the benchmark once on the data `opts` describes.
pub fn run(opts: &Options) -> Result<Report, String> {
    run_on(opts, &Dataset::generate(opts.workload, opts.scale, opts.seed))
}

/// Run the benchmark once on `data`, checking every answer against it.
pub fn run_on(opts: &Options, data: &Dataset) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("{}: {e}", opts.work_dir.display()))?;
    let window = Duration::from_secs_f64(opts.seconds);
    let mut lines = vec![format!(
        "serverbench workload={} seed={} seconds={} trace={} clients={} rows={} pool_frames={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        crate::env::CLIENTS,
        data.rows,
        data.pool_frames
    )];
    let ((env, clients, feeds), setups) = setup(data, Design::Staged, opts, "staged")?;
    let setup_s = median(&setups);
    let each: Vec<String> = setups.iter().map(|t| format!("{t:.4}")).collect();
    lines.push(format!("set-ups: {} s", each.join(" ")));
    let n = if opts.trace { 2 } else { 1 };
    let traced = opts.trace.then_some(2u8);
    let mut m = measure(&env, clients, feeds, data, window, n, traced)?;
    let table = data.table();
    settle_feeds(&env, &mut m.threads, table)?;
    for (i, w) in m.windows.iter().enumerate() {
        let cps = m.counters[i + 1].checkpoints - m.counters[i].checkpoints;
        lines.push(format!(
            "window {}: {:.2} s after warm-up, {} statements generated, {} operations, {} commits, {cps} checkpoints",
            i + 1,
            m.bounds[i].1.as_secs_f64(),
            w.statements,
            w.ops(),
            w.commits
        ));
        let slices: Vec<String> =
            per_second(w, m.bounds[i]).iter().map(|c| format!("{c:.0}")).collect();
        lines.push(format!("  operations per second: {}", slices.join(" ")));
        let steal: Vec<String> = m.steal[i].iter().map(|s| format!("{:.0}", 100.0 * s)).collect();
        lines.push(format!("  steal per second (%): {}", steal.join(" ")));
        if opts.workload == Workload::Transfer && cps < MIN_CHECKPOINTS {
            return Err(format!(
                "workload sanity: {cps} checkpoints in window {} (want at least {MIN_CHECKPOINTS})",
                i + 1
            ));
        }
    }
    let mut e2e_metrics = e2e("", &m.windows[0], m.bounds[0], &m.steal[0])?;
    let rss = peak_rss_mb();
    let mut probe_tracer = Tracer::new(Instant::now(), 9);
    probe_tracer.set_enabled(opts.trace);
    let mut per_layer = Vec::new();
    if opts.trace {
        // Idle pumps first, while every consumer is caught up.
        let reactivity = env.server.reactivity();
        let replication = env.server.replication();
        let feeds_idle =
            layers::time_calls(&mut probe_tracer, "reactivity.pump", || reactivity.pump());
        let repl_idle =
            layers::time_calls(&mut probe_tracer, "replication.pump", || replication.pump());
        let probes = layers::probe(&env, &mut m.threads[0].client, data, &mut probe_tracer, true)?;
        let flush = layers::wal_flush_us(&env, &mut probe_tracer)?;
        let cp = layers::checkpoint_ms(&env, &mut probe_tracer)?;
        per_layer.extend(probe_metrics("", &probes));
        per_layer.push(metric(
            "feeds.idle_pump_us",
            feeds_idle,
            "us",
            "ReactivityHub::pump with consumers caught up",
        ));
        per_layer.push(metric(
            "repl.idle_pump_us",
            repl_idle,
            "us",
            "ReplicationHub::pump with consumers caught up",
        ));
        per_layer.push(metric(
            "wal.flush_us",
            flush,
            "us",
            "append + flush of a commit record on a side WAL",
        ));
        per_layer.push(metric(
            "checkpoint.ms",
            cp,
            "ms",
            format!("median of {} explicit checkpoints", layers::CHECKPOINT_PROBES),
        ));
        per_layer.extend(layer_metrics(&m.windows[1], &m.counters[1], &m.counters[2], data, &env));
        per_layer.extend(class_medians("", &m.windows[0]));
        per_layer.extend(tails(&m.windows[0]));
        let (u, t) =
            (throughput(&m.windows[0], m.bounds[0]), throughput(&m.windows[1], m.bounds[1]));
        per_layer.push(metric("untraced.ops_per_s", u, "1/s", "window 1, spans off"));
        per_layer.push(metric("traced.ops_per_s", t, "1/s", "window 2, spans on"));
        per_layer.push(metric(
            "trace.overhead_pct",
            100.0 * (1.0 - ratio(t, u)),
            "pct",
            format!("1 - traced/untraced = 1 - {}", fmt_ratio(t, u, "untraced ops/s")),
        ));
        lines.push(String::from("traced window:"));
        for x in e2e("traced.", &m.windows[1], m.bounds[1], &m.steal[1])? {
            lines.push(format!("  {} = {:.4} {} ({})", x.name, x.value, x.unit, x.note));
        }
    }
    let mut spans: Vec<Span> =
        m.threads.iter_mut().flat_map(|t| std::mem::take(&mut t.spans)).collect();
    final_checks(&env, data, &mut m, &mut lines)?;
    quit(m.threads.into_iter().map(|t| t.client));
    drop(env);

    if opts.trace {
        per_layer.extend(threaded_control(data, opts, window, &mut probe_tracer, &mut lines)?);
        spans.extend(probe_tracer.take());
        let path =
            opts.work_dir.join(format!("trace-{}-seed{}.jsonl", opts.workload.name(), opts.seed));
        trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        lines.push(format!("{} spans written to {}", spans.len(), path.display()));
    }
    e2e_metrics.insert(0, metric("setup_s", setup_s, "s", format!("median of {SETUPS} set-ups")));
    e2e_metrics.push(metric(
        "peak_rss_mb",
        rss,
        "MB",
        "VmHWM of the benchmark process (clients and server)",
    ));
    let metrics = if opts.trace {
        lines.push("end-to-end (window 1, not part of the result object):".into());
        for x in &e2e_metrics {
            lines.push(format!("  {} = {:.4} {} ({})", x.name, x.value, x.unit, x.note));
        }
        per_layer
    } else {
        e2e_metrics
    };
    if let Some(bad) = metrics.iter().find(|x| !x.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", bad.name));
    }
    Ok(Report { attempted: m.windows[0].attempted, failed: m.windows[0].failed, metrics, lines })
}

fn probe_metrics(prefix: &str, p: &Probes) -> Vec<Metric> {
    let (reads, scans, dmls) = p.counts;
    let n = |k: usize| format!("median of {k} probes");
    let mut m = vec![
        metric(
            format!("{prefix}net.wire_us"),
            p.wire_us,
            "us",
            format!("Client::query - StagedSession::execute_sql, {}", n(reads)),
        ),
        metric(format!("{prefix}server.exec_us"), p.exec_us, "us", n(reads)),
    ];
    if prefix.is_empty() {
        m.extend([
            metric("net.ping_us", p.ping_us, "us", n(layers::CALL_PROBES)),
            metric(
                "server.overhead_us",
                p.overhead_us,
                "us",
                format!("exec - (parse + bind + plan + engine) per request, {}", n(reads)),
            ),
            metric("sql.parse_us", p.parse_us, "us", n(reads)),
            metric("sql.bind_us", p.bind_us, "us", n(reads)),
            metric("planner.plan_us", p.plan_us, "us", n(reads)),
            metric(
                "engine.exec_us",
                p.engine_us,
                "us",
                format!("volcano::run of the point plan, {}", n(reads)),
            ),
            metric(
                "engine.scan_ms",
                p.scan_ms,
                "ms",
                format!("StagedEngine::execute of the scan plan, {}", n(scans)),
            ),
            metric(
                "sql.dml_plan_us",
                p.dml_plan_us,
                "us",
                format!("parse + bind + plan_table_filter of an update, {}", n(dmls)),
            ),
        ]);
        for s in ENGINE_STAGES {
            let v = p.engine_busy_ms.iter().find(|(name, _)| name == s).map_or(0.0, |(_, v)| *v);
            m.push(metric(
                format!("engine.{s}.busy_ms_per_scan"),
                v,
                "ms",
                format!("engine_stats() delta over {scans} scans"),
            ));
        }
    }
    m
}

/// The paper-control column: the thread-pool baseline behind the same
/// front end, on the same data and statements. Not gated.
fn threaded_control(
    data: &Dataset,
    opts: &Options,
    window: Duration,
    tracer: &mut Tracer,
    lines: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let ((env, clients, feeds), _) = setup(data, Design::Threaded, opts, "threaded")?;
    let mut m = measure(&env, clients, feeds, data, window, 1, None)?;
    settle_feeds(&env, &mut m.threads, data.table())?;
    let feeds_idle = {
        let hub = env.server.reactivity();
        layers::time_calls(tracer, "threaded.reactivity.pump", || hub.pump())
    };
    let probes = layers::probe(&env, &mut m.threads[0].client, data, tracer, false)?;
    let mut out = e2e("threaded.", &m.windows[0], m.bounds[0], &m.steal[0])?;
    out.extend(class_medians("threaded.", &m.windows[0]));
    out.extend(probe_metrics("threaded.", &probes));
    out.extend(threaded_layer_metrics(&m.windows[0], &m.counters[0], &m.counters[1]));
    out.push(metric(
        "threaded.feeds.idle_pump_us",
        feeds_idle,
        "us",
        "ReactivityHub::pump with consumers caught up",
    ));
    let mut control_lines = Vec::new();
    final_checks(&env, data, &mut m, &mut control_lines)?;
    lines.extend(control_lines.into_iter().map(|l| format!("threaded control: {l}")));
    quit(m.threads.into_iter().map(|t| t.client));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_seconds_keep_the_least_stolen_quarter() {
        let steal = [0.30, 0.01, 0.20, 0.02, 0.02, 0.50, 0.00, 0.10];
        let quiet = quiet_seconds(&steal);
        assert_eq!(quiet, [false, true, false, false, false, false, true, false]);
        // Ties go to the earlier second; a short window keeps one second.
        assert_eq!(quiet_seconds(&[0.02; 5]), [true, true, false, false, false]);
        assert_eq!(quiet_seconds(&[0.40, 0.10]), [false, true]);
        assert!(quiet_seconds(&[]).is_empty());
    }

    #[test]
    fn steal_share_is_a_share_of_the_ticks_between_readings() {
        assert_eq!(steal_share(Some((10, 100)), Some((30, 300))), 0.1);
        assert_eq!(steal_share(None, Some((30, 300))), 0.0);
        assert_eq!(steal_share(Some((10, 100)), Some((10, 100))), 0.0);
    }
}
