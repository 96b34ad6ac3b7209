//! Differential tests: the staged page-push engine must produce exactly the
//! same rows as the Volcano baseline for every supported query shape.

use staged_engine::context::ExecContext;
use staged_engine::staged::{EngineConfig, StagedEngine};
use staged_engine::volcano;
use staged_planner::{plan_select, PlannerConfig};
use staged_sql::binder::{BindContext, Binder};
use staged_sql::parser::parse_statement;
use staged_sql::Statement;
use staged_storage::{BufferPool, Catalog, Column, DataType, MemDisk, Schema, Tuple, Value};
use std::sync::Arc;

fn setup() -> Arc<Catalog> {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 1024);
    let cat = Arc::new(Catalog::new(pool));
    let t = cat
        .create_table(
            "t",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("grp", DataType::Int),
                Column::new("s", DataType::Str),
                Column::new("v", DataType::Float).nullable(),
            ]),
        )
        .unwrap();
    for i in 0..500i64 {
        let v = if i % 11 == 0 { Value::Null } else { Value::Float((i % 50) as f64 / 2.0) };
        t.heap
            .insert(&Tuple::new(vec![
                Value::Int(i),
                Value::Int(i % 7),
                Value::Str(format!("str{}", i % 23)),
                v,
            ]))
            .unwrap();
    }
    let u = cat
        .create_table(
            "u",
            Schema::new(vec![Column::new("a", DataType::Int), Column::new("w", DataType::Int)]),
        )
        .unwrap();
    for i in 0..80i64 {
        u.heap.insert(&Tuple::new(vec![Value::Int(i * 5), Value::Int(i % 3)])).unwrap();
    }
    cat.create_index("t_a", "t", "a").unwrap();
    cat.analyze_table("t").unwrap();
    cat.analyze_table("u").unwrap();
    cat
}

fn run_both(cat: &Arc<Catalog>, sql: &str, cfg: &EngineConfig) -> (Vec<Tuple>, Vec<Tuple>) {
    let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!("not a select") };
    let bound = Binder::new(BindContext::new(cat)).bind_select(sel).unwrap();
    let plan = plan_select(&bound, cat, &PlannerConfig::default()).unwrap();
    let ctx = ExecContext::new(Arc::clone(cat));
    let volcano_rows = volcano::run(&plan, &ctx).unwrap();
    let engine = StagedEngine::new(ctx, cfg.clone());
    let staged_rows = engine.execute(&plan).collect().unwrap();
    engine.shutdown();
    (volcano_rows, staged_rows)
}

fn canonical(mut rows: Vec<Tuple>) -> Vec<String> {
    let mut s: Vec<String> = rows.drain(..).map(|t| format!("{t}")).collect();
    s.sort();
    s
}

fn assert_equivalent(sql: &str) {
    let cat = setup();
    let (v, s) = run_both(&cat, sql, &EngineConfig::default());
    let (vn, sn) = (v.len(), s.len());
    assert_eq!(canonical(v), canonical(s), "row mismatch for {sql}");
    assert_eq!(vn, sn);
}

#[test]
fn full_scan() {
    assert_equivalent("SELECT * FROM t");
}

#[test]
fn filtered_scan_and_projection() {
    assert_equivalent("SELECT a, a * 2 FROM t WHERE grp = 3 AND a < 100");
}

#[test]
fn index_point_and_range() {
    assert_equivalent("SELECT * FROM t WHERE a = 123");
    assert_equivalent("SELECT s FROM t WHERE a BETWEEN 10 AND 40");
}

#[test]
fn hash_join_matches() {
    assert_equivalent("SELECT t.a, u.w FROM t, u WHERE t.a = u.a");
}

#[test]
fn non_equi_nested_loop_join() {
    assert_equivalent("SELECT t.a, u.a FROM t, u WHERE t.a < u.a AND u.a < 30 AND t.a > 20");
}

#[test]
fn aggregation_with_group_and_having() {
    assert_equivalent(
        "SELECT grp, COUNT(*), SUM(a), AVG(v), MIN(s), MAX(a) FROM t GROUP BY grp HAVING COUNT(*) > 10",
    );
}

#[test]
fn global_aggregate_without_groups() {
    assert_equivalent("SELECT COUNT(*), SUM(a) FROM t WHERE a < 0");
    assert_equivalent("SELECT COUNT(*), AVG(a) FROM t");
}

#[test]
fn distinct_and_limit() {
    assert_equivalent("SELECT DISTINCT grp FROM t");
    let cat = setup();
    let (v, s) = run_both(&cat, "SELECT a FROM t LIMIT 17", &EngineConfig::default());
    assert_eq!(v.len(), 17);
    assert_eq!(s.len(), 17);
}

#[test]
fn order_by_is_respected_by_both() {
    let cat = setup();
    let (v, s) = run_both(
        &cat,
        "SELECT a FROM t WHERE grp = 1 ORDER BY a DESC LIMIT 5",
        &EngineConfig::default(),
    );
    assert_eq!(canonical(v.clone()), canonical(s.clone()));
    // Exact order (not just multiset) must match for ORDER BY queries.
    let vs: Vec<String> = v.iter().map(|t| t.to_string()).collect();
    let ss: Vec<String> = s.iter().map(|t| t.to_string()).collect();
    assert_eq!(vs, ss);
}

#[test]
fn merge_join_forced_by_config() {
    let cat = setup();
    let Statement::Select(sel) =
        parse_statement("SELECT t.a, u.w FROM t, u WHERE t.a = u.a").unwrap()
    else {
        panic!()
    };
    let bound = Binder::new(BindContext::new(&cat)).bind_select(sel).unwrap();
    let pcfg = PlannerConfig { enable_hash_join: false, ..Default::default() };
    let plan = plan_select(&bound, &cat, &pcfg).unwrap();
    assert!(plan.to_string().contains("MergeJoin"));
    let ctx = ExecContext::new(Arc::clone(&cat));
    let v = volcano::run(&plan, &ctx).unwrap();
    let engine = StagedEngine::new(ctx, EngineConfig::default());
    let s = engine.execute(&plan).collect().unwrap();
    engine.shutdown();
    assert_eq!(canonical(v), canonical(s));
}

#[test]
fn small_exchange_pages_still_correct() {
    let cat = setup();
    let cfg = EngineConfig { batch_capacity: 3, buffer_depth: 2, ..Default::default() };
    let (v, s) = run_both(&cat, "SELECT t.a, u.w FROM t, u WHERE t.a = u.a AND t.grp < 5", &cfg);
    assert_eq!(canonical(v), canonical(s));
}

#[test]
fn shared_scans_disabled_still_correct() {
    let cat = setup();
    let cfg = EngineConfig { shared_scans: false, ..Default::default() };
    let (v, s) = run_both(&cat, "SELECT COUNT(*) FROM t WHERE grp = 2", &cfg);
    assert_eq!(canonical(v), canonical(s));
}

#[test]
fn concurrent_queries_share_one_engine() {
    let cat = setup();
    let ctx = ExecContext::new(Arc::clone(&cat));
    let engine = StagedEngine::new(ctx.clone(), EngineConfig::default());
    let mk_plan = |sql: &str| {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!() };
        let bound = Binder::new(BindContext::new(&cat)).bind_select(sel).unwrap();
        plan_select(&bound, &cat, &PlannerConfig::default()).unwrap()
    };
    let queries = [
        "SELECT COUNT(*) FROM t",
        "SELECT grp, COUNT(*) FROM t GROUP BY grp",
        "SELECT t.a FROM t, u WHERE t.a = u.a",
        "SELECT MAX(a) FROM t WHERE grp = 4",
    ];
    // Launch all queries concurrently against the same stage set.
    let handles: Vec<_> = queries.iter().map(|q| engine.execute(&mk_plan(q))).collect();
    let expected: Vec<Vec<String>> =
        queries.iter().map(|q| canonical(volcano::run(&mk_plan(q), &ctx).unwrap())).collect();
    for (h, exp) in handles.into_iter().zip(expected) {
        let rows = h.collect().unwrap();
        assert_eq!(canonical(rows), exp);
    }
    // Shared scans should have kicked in for the t-scans.
    assert!(engine.registry.stats.groups_started.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    engine.shutdown();
}

// ------------------------------------------------------- partitioned --
//
// The partition-parallel differential suite: the same Wisconsin-style data
// loaded at 1, 2, 4 and 8 partitions must return identical (sorted) result
// sets from both engines, for every supported query shape. The staged
// engine runs the partial pipelines on real worker threads, so this also
// exercises the merge stage under genuine interleaving.

const WIS_ROWS: i64 = 2000;

/// Deterministic Wisconsin-style rows (no RNG available here):
/// `unique1` = a bijective permutation of 0..n (271 is prime and coprime to
/// the row count), plus the usual small-domain selector columns.
fn wisconsin_like_row(i: i64) -> Tuple {
    let u1 = (i * 271) % WIS_ROWS;
    Tuple::new(vec![
        Value::Int(u1),
        Value::Int(i),
        Value::Int(u1 % 2),
        Value::Int(u1 % 10),
        Value::Int(u1 % 20),
        Value::Str(format!("s{}", u1 % 4)),
    ])
}

fn setup_partitioned(parts: usize, with_index: bool) -> Arc<Catalog> {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 2048);
    let cat = Arc::new(Catalog::new(pool));
    let w = cat
        .create_table_partitioned(
            "w",
            Schema::new(vec![
                Column::new("unique1", DataType::Int),
                Column::new("unique2", DataType::Int),
                Column::new("two", DataType::Int),
                Column::new("ten", DataType::Int),
                Column::new("twenty", DataType::Int),
                Column::new("s4", DataType::Str),
            ]),
            parts,
            0,
        )
        .unwrap();
    for i in 0..WIS_ROWS {
        w.heap.insert(&wisconsin_like_row(i)).unwrap();
    }
    let x = cat
        .create_table_partitioned(
            "x",
            Schema::new(vec![Column::new("k", DataType::Int), Column::new("g", DataType::Int)]),
            parts,
            0,
        )
        .unwrap();
    for i in 0..90i64 {
        x.heap.insert(&Tuple::new(vec![Value::Int(i * 7), Value::Int(i % 4)])).unwrap();
    }
    if with_index {
        cat.create_index("w_u1", "w", "unique1").unwrap();
    }
    cat.analyze_table("w").unwrap();
    cat.analyze_table("x").unwrap();
    cat
}

/// The differential query shapes: scans, point lookups (partition-pruned),
/// joins, and every aggregate combination the merge stage must combine.
const PARTITIONED_SHAPES: &[&str] = &[
    "SELECT * FROM w",
    "SELECT unique2, s4 FROM w WHERE unique1 = 123",
    "SELECT w.unique1, x.g FROM w, x WHERE w.unique1 = x.k",
    "SELECT ten, COUNT(*), SUM(unique2), MIN(unique1), MAX(unique2), AVG(unique1) \
     FROM w GROUP BY ten",
    "SELECT COUNT(*), AVG(unique2) FROM w WHERE two = 0",
    "SELECT COUNT(*), SUM(unique1) FROM w WHERE unique1 < 0",
    "SELECT DISTINCT twenty FROM w ORDER BY twenty DESC LIMIT 7",
    "SELECT x.g, COUNT(*), AVG(w.unique2) FROM w, x WHERE w.unique1 = x.k GROUP BY x.g",
];

fn run_volcano_on(cat: &Arc<Catalog>, sql: &str) -> Vec<Tuple> {
    let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!("not a select") };
    let bound = Binder::new(BindContext::new(cat)).bind_select(sel).unwrap();
    let plan = plan_select(&bound, cat, &PlannerConfig::default()).unwrap();
    volcano::run(&plan, &ExecContext::new(Arc::clone(cat))).unwrap()
}

fn run_both_on(cat: &Arc<Catalog>, sql: &str, cfg: &EngineConfig) -> (Vec<Tuple>, Vec<Tuple>) {
    let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!("not a select") };
    let bound = Binder::new(BindContext::new(cat)).bind_select(sel).unwrap();
    let plan = plan_select(&bound, cat, &PlannerConfig::default()).unwrap();
    let ctx = ExecContext::new(Arc::clone(cat));
    let volcano_rows = volcano::run(&plan, &ctx).unwrap();
    let engine = StagedEngine::new(ctx, cfg.clone());
    let staged_rows = engine.execute(&plan).collect().unwrap();
    engine.shutdown();
    (volcano_rows, staged_rows)
}

#[test]
fn partitioned_differential_suite_matches_volcano_at_every_partition_count() {
    // Reference: the unpartitioned catalog through Volcano only.
    let reference: Vec<Vec<String>> = {
        let cat = setup_partitioned(1, false);
        PARTITIONED_SHAPES.iter().map(|sql| canonical(run_volcano_on(&cat, sql))).collect()
    };
    for parts in [1usize, 2, 4, 8] {
        let cat = setup_partitioned(parts, false);
        let cfg = EngineConfig { workers_per_stage: 2, ..Default::default() };
        for (sql, expect) in PARTITIONED_SHAPES.iter().zip(&reference) {
            let (v, s) = run_both_on(&cat, sql, &cfg);
            let (vc, sc) = (canonical(v), canonical(s));
            assert_eq!(vc, *expect, "volcano drifted at {parts} partitions for {sql}");
            assert_eq!(sc, *expect, "staged drifted at {parts} partitions for {sql}");
        }
    }
}

#[test]
fn differential_suite_matches_volcano_at_every_cohort_size() {
    // Cohort scheduling (paper §4.2) batches engine-stage queue visits;
    // the batch knob must never change results. Sweep the cohort bound
    // over 1 (the pre-cohort semantics), 4 and 16 and diff a mixed query
    // set against Volcano, with enough stage workers that cohorts and
    // worker parallelism interleave.
    let shapes = [
        "SELECT * FROM t WHERE grp = 2",
        "SELECT t.a, u.w FROM t, u WHERE t.a = u.a",
        "SELECT grp, COUNT(*), SUM(a), AVG(v) FROM t GROUP BY grp",
        "SELECT DISTINCT grp FROM t ORDER BY grp",
        "SELECT s FROM t WHERE a BETWEEN 10 AND 40",
    ];
    let cat = setup();
    let reference: Vec<Vec<String>> =
        shapes.iter().map(|sql| canonical(run_volcano_on(&cat, sql))).collect();
    for cohort in [1usize, 4, 16] {
        let cfg = EngineConfig { cohort, workers_per_stage: 2, ..Default::default() };
        for (sql, expect) in shapes.iter().zip(&reference) {
            let (v, s) = run_both(&cat, sql, &cfg);
            assert_eq!(canonical(v), *expect, "volcano drifted at cohort {cohort} for {sql}");
            assert_eq!(canonical(s), *expect, "staged drifted at cohort {cohort} for {sql}");
        }
    }
}

#[test]
fn differential_suite_matches_volcano_at_every_page_size() {
    // The exchange page size (paper §4.3 / §4.4 knob (c)) is the unit of
    // data exchange between engine stages. Sweep it from the degenerate
    // page of one tuple — which must reproduce the per-tuple semantics the
    // batch-first refactor replaced — up to pages far larger than any
    // buffer's tuple budget, and diff joins, sorts, DISTINCT and
    // aggregation against Volcano at every size.
    let shapes = [
        "SELECT t.a, u.w FROM t, u WHERE t.a = u.a",
        "SELECT t.a, u.a FROM t, u WHERE t.a < u.a AND u.a < 30 AND t.a > 20",
        "SELECT a, s FROM t WHERE grp = 1 ORDER BY a DESC",
        "SELECT DISTINCT grp FROM t ORDER BY grp",
        "SELECT grp, COUNT(*), SUM(a), AVG(v), MIN(s), MAX(a) FROM t GROUP BY grp",
        "SELECT s FROM t WHERE a BETWEEN 10 AND 40",
    ];
    let cat = setup();
    let reference: Vec<Vec<String>> =
        shapes.iter().map(|sql| canonical(run_volcano_on(&cat, sql))).collect();
    for page in [1usize, 8, 256, 4096] {
        let cfg = EngineConfig { batch_capacity: page, workers_per_stage: 2, ..Default::default() };
        for (sql, expect) in shapes.iter().zip(&reference) {
            let (v, s) = run_both(&cat, sql, &cfg);
            assert_eq!(canonical(v), *expect, "volcano drifted at page {page} for {sql}");
            assert_eq!(canonical(s), *expect, "staged drifted at page {page} for {sql}");
        }
    }
}

#[test]
fn partitioned_two_phase_aggregation_matches_at_every_page_size() {
    // Two-phase aggregation (partial Aggr per partition, combined by the
    // Merge stage) exercises every batch edge: scan → aggr partials →
    // merge → send. The page size must never change the combined result.
    let shapes = [
        "SELECT ten, COUNT(*), SUM(unique2), MIN(unique1), MAX(unique2), AVG(unique1) \
         FROM w GROUP BY ten",
        "SELECT COUNT(*), AVG(unique2) FROM w WHERE two = 0",
        "SELECT x.g, COUNT(*), AVG(w.unique2) FROM w, x WHERE w.unique1 = x.k GROUP BY x.g",
    ];
    let cat = setup_partitioned(4, false);
    let reference: Vec<Vec<String>> =
        shapes.iter().map(|sql| canonical(run_volcano_on(&cat, sql))).collect();
    for page in [1usize, 8, 256, 4096] {
        let cfg = EngineConfig { batch_capacity: page, workers_per_stage: 2, ..Default::default() };
        for (sql, expect) in shapes.iter().zip(&reference) {
            let (v, s) = run_both_on(&cat, sql, &cfg);
            assert_eq!(canonical(v), *expect, "volcano drifted at page {page} for {sql}");
            assert_eq!(canonical(s), *expect, "staged drifted at page {page} for {sql}");
        }
    }
}

#[test]
fn page_size_is_adjustable_on_a_live_engine() {
    // Knob (c) is a run-time knob: retuning the page size on a running
    // engine must apply to subsequent queries without affecting results.
    let cat = setup();
    let ctx = ExecContext::new(Arc::clone(&cat));
    let engine = StagedEngine::new(ctx.clone(), EngineConfig::default());
    let mk_plan = |sql: &str| {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!() };
        let bound = Binder::new(BindContext::new(&cat)).bind_select(sel).unwrap();
        plan_select(&bound, &cat, &PlannerConfig::default()).unwrap()
    };
    let sql = "SELECT grp, COUNT(*), SUM(a) FROM t GROUP BY grp";
    let expect = canonical(volcano::run(&mk_plan(sql), &ctx).unwrap());
    for page in [4096usize, 1, 64] {
        engine.set_page_size(page);
        assert_eq!(engine.page_size(), page);
        let rows = engine.execute(&mk_plan(sql)).collect().unwrap();
        assert_eq!(canonical(rows), expect, "retuned page {page} changed results");
    }
    engine.shutdown();
}

#[test]
fn partitioned_index_scans_merge_per_partition_btrees() {
    for parts in [1usize, 4] {
        let cat = setup_partitioned(parts, true);
        let sqls = [
            "SELECT * FROM w WHERE unique1 = 77",
            "SELECT unique1, unique2 FROM w WHERE unique1 BETWEEN 100 AND 105",
        ];
        for sql in sqls {
            let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!() };
            let bound = Binder::new(BindContext::new(&cat)).bind_select(sel).unwrap();
            let plan = plan_select(&bound, &cat, &PlannerConfig::default()).unwrap();
            assert!(plan.to_string().contains("IndexScan"), "{plan}");
            let ctx = ExecContext::new(Arc::clone(&cat));
            let v = volcano::run(&plan, &ctx).unwrap();
            let engine = StagedEngine::new(ctx, EngineConfig::default());
            let s = engine.execute(&plan).collect().unwrap();
            engine.shutdown();
            assert_eq!(canonical(v.clone()), canonical(s), "{sql} at {parts} partitions");
            if sql.contains("BETWEEN") {
                assert_eq!(v.len(), 6, "index range must see every partition");
            }
        }
    }
}

#[test]
fn partitioned_point_lookup_is_pruned_and_complete() {
    let cat = setup_partitioned(8, false);
    // Every key must still be found after pruning to one partition.
    for k in (0..WIS_ROWS).step_by(53) {
        let sql = format!("SELECT unique1 FROM w WHERE unique1 = {k}");
        let Statement::Select(sel) = parse_statement(&sql).unwrap() else { panic!() };
        let bound = Binder::new(BindContext::new(&cat)).bind_select(sel).unwrap();
        let plan = plan_select(&bound, &cat, &PlannerConfig::default()).unwrap();
        let text = plan.to_string();
        assert!(text.contains("PartitionScan") && !text.contains("Exchange"), "{text}");
        let ctx = ExecContext::new(Arc::clone(&cat));
        let rows = volcano::run(&plan, &ctx).unwrap();
        assert_eq!(rows.len(), 1, "key {k} lost by pruning");
        assert_eq!(rows[0].get(0), &Value::Int(k));
    }
}

#[test]
fn error_in_task_reaches_the_client() {
    let cat = setup();
    // Division by zero at run time (not foldable: depends on a column).
    let sql = "SELECT 10 / (a - a) FROM t LIMIT 1";
    let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!() };
    let bound = Binder::new(BindContext::new(&cat)).bind_select(sel).unwrap();
    let plan = plan_select(&bound, &cat, &PlannerConfig::default()).unwrap();
    let ctx = ExecContext::new(Arc::clone(&cat));
    assert!(volcano::run(&plan, &ctx).is_err());
    let engine = StagedEngine::new(ctx, EngineConfig::default());
    let res = engine.execute(&plan).collect();
    assert!(res.is_err(), "staged engine must surface the evaluation error");
    engine.shutdown();
}

/// Snapshot index scans agree across engines and with the snapshot scan:
/// under an old view (keys moved away, a row deleted, a non-key column
/// rewritten since), the current view, and an in-flight writer's own view,
/// the staged and Volcano engines return the same rows through the index
/// as the Volcano engine returns through a scan with indexes disabled.
#[test]
fn snapshot_index_scans_match_across_engines_under_versioned_writes() {
    use staged_engine::dml::{self, DmlLog};
    use staged_engine::txn::TxnManager;
    use staged_planner::plan::col_at;
    use staged_sql::ast::{BinOp, Expr};
    use staged_storage::{ReadView, Wal};

    let key_is = |k: i64| Some(Expr::binary(col_at(0), BinOp::Eq, Expr::int(k)));
    for parts in [1usize, 4] {
        let cat = setup_partitioned(parts, true);
        let ctx = ExecContext::new(Arc::clone(&cat));
        let mgr = TxnManager::with_oracle(Arc::clone(cat.oracle()));
        let wal = Wal::in_memory();
        let w = cat.table("w").unwrap();
        let old = cat.oracle().pin();

        let x = mgr.begin(&wal).unwrap();
        let log = DmlLog::txn(&wal, x, &mgr);
        for k in 100..=102 {
            dml::update_rows(&ctx, &w, &[(0, Expr::int(k + 1000))], &key_is(k), Some(&log))
                .unwrap();
        }
        dml::delete_rows(&ctx, &w, &key_is(103), Some(&log)).unwrap();
        dml::update_rows(&ctx, &w, &[(1, Expr::int(-1))], &key_is(104), Some(&log)).unwrap();
        mgr.commit(x, &ctx, &wal).unwrap();

        let y = mgr.begin(&wal).unwrap();
        let log = DmlLog::txn(&wal, y, &mgr);
        let mut twin = wisconsin_like_row(0).into_values();
        twin[0] = Value::Int(1105);
        dml::insert_rows(&ctx, &w, vec![Tuple::new(twin)], Some(&log)).unwrap();
        dml::delete_rows(&ctx, &w, &key_is(105), Some(&log)).unwrap();

        let latest = cat.oracle().latest();
        let views =
            [ReadView::new(old.ts(), 0), ReadView::new(latest, 0), ReadView::new(latest, y)];
        let sqls = [
            "SELECT * FROM w WHERE unique1 = 101",
            "SELECT * FROM w WHERE unique1 = 105",
            "SELECT * FROM w WHERE unique1 BETWEEN 100 AND 106",
            "SELECT unique1, unique2 FROM w WHERE unique1 BETWEEN 1100 AND 1106",
        ];
        let plan_for = |sql: &str, config: &PlannerConfig, view: ReadView| {
            let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!() };
            let bound = Binder::new(BindContext::new(&cat)).bind_select(sel).unwrap();
            let mut plan = plan_select(&bound, &cat, config).unwrap();
            plan.attach_snapshot(view);
            plan
        };
        let no_index = PlannerConfig { enable_index_scan: false, ..PlannerConfig::default() };
        let engine = StagedEngine::new(ctx.clone(), EngineConfig::default());
        for view in views {
            for sql in sqls {
                let plan = plan_for(sql, &PlannerConfig::default(), view);
                let text = plan.to_string();
                assert!(text.contains("IndexScan") && text.contains("snapshot"), "{text}");
                let scan = plan_for(sql, &no_index, view);
                assert!(!scan.to_string().contains("IndexScan"), "{scan}");
                let expect = canonical(volcano::run(&scan, &ctx).unwrap());
                let v = canonical(volcano::run(&plan, &ctx).unwrap());
                let s = canonical(engine.execute(&plan).collect().unwrap());
                assert_eq!(v, expect, "volcano index scan, {sql} under {view:?} at {parts}");
                assert_eq!(s, expect, "staged index scan, {sql} under {view:?} at {parts}");
            }
        }
        engine.shutdown();
        mgr.rollback(y, &ctx, &wal).unwrap();
    }
}
