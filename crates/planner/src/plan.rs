//! Physical plans.
//!
//! Every node's expressions are written against the node's *input* tuple
//! layout (column indexes filled by the binder or by the planner's
//! rewrites), so executors never resolve names.

use staged_sql::ast::{AggFunc, ColumnRef, Expr};
use staged_storage::catalog::{IndexInfo, TableInfo};
use staged_storage::{ReadView, Schema};
use std::fmt;
use std::sync::Arc;

/// One aggregate computed by an aggregation node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Aggregate function.
    pub func: AggFunc,
    /// Argument over the input layout; `None` = `COUNT(*)`.
    pub arg: Option<Expr>,
    /// DISTINCT aggregation.
    pub distinct: bool,
}

/// A physical query plan.
#[derive(Clone)]
pub enum PhysicalPlan {
    /// Full scan of a table, with an optional pushed-down predicate over
    /// the table's own layout.
    SeqScan {
        /// Table to scan.
        table: Arc<TableInfo>,
        /// Residual predicate evaluated per tuple.
        predicate: Option<Expr>,
        /// MVCC read view; `None` = current (locked) read.
        snapshot: Option<ReadView>,
    },
    /// Scan of one hash partition of a table (a *partial* scan; N of these
    /// under an [`PhysicalPlan::Exchange`] cover the whole table).
    PartitionScan {
        /// Table to scan.
        table: Arc<TableInfo>,
        /// Which partition.
        partition: usize,
        /// Residual predicate evaluated per tuple.
        predicate: Option<Expr>,
        /// MVCC read view; `None` = current (locked) read.
        snapshot: Option<ReadView>,
    },
    /// Bag union of N independent inputs (the partition-parallel exchange:
    /// each input runs as its own pipeline; the merge preserves no order).
    Exchange {
        /// Partial plans, one per partition.
        inputs: Vec<PhysicalPlan>,
    },
    /// Combine partially-aggregated inputs into final aggregate values.
    /// Each input emits `group values ⧺ partial-aggregate values` (the
    /// layout produced by a HashAggregate over [`partial_agg_specs`]); this
    /// node re-groups and merges the partial states.
    MergeAggregate {
        /// Partial-aggregation pipelines, one per partition.
        inputs: Vec<PhysicalPlan>,
        /// How many leading columns are group keys.
        group_by_len: usize,
        /// The *final* aggregate list (partial layout is derived from it).
        aggs: Vec<AggSpec>,
    },
    /// B+tree index scan with inclusive key bounds.
    IndexScan {
        /// Table whose rows are fetched.
        table: Arc<TableInfo>,
        /// The index probed.
        index: Arc<IndexInfo>,
        /// Inclusive lower key bound.
        lo: Option<i64>,
        /// Inclusive upper key bound.
        hi: Option<i64>,
        /// Residual predicate evaluated per fetched tuple.
        predicate: Option<Expr>,
        /// MVCC read view; `None` = current (locked) read. Under a view the
        /// probe keeps the fetched rows the view can see and unions in the
        /// dead versions in the key range it still sees (see
        /// `TableInfo::index_probe`).
        snapshot: Option<ReadView>,
    },
    /// Filter.
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Predicate over the input layout.
        predicate: Expr,
    },
    /// Projection / expression evaluation.
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Output expressions over the input layout.
        exprs: Vec<Expr>,
        /// Schema of the output.
        schema: Schema,
    },
    /// Nested-loop join (inner); output = left ⧺ right.
    NestedLoopJoin {
        /// Outer input.
        left: Box<PhysicalPlan>,
        /// Inner input (restarted per outer tuple).
        right: Box<PhysicalPlan>,
        /// Join predicate over the concatenated layout.
        predicate: Option<Expr>,
    },
    /// Hash join on equi-keys; output = left ⧺ right.
    HashJoin {
        /// Build side.
        left: Box<PhysicalPlan>,
        /// Probe side.
        right: Box<PhysicalPlan>,
        /// Key expressions: `(left_key, right_key)` pairs, each over its
        /// own side's layout.
        keys: Vec<(Expr, Expr)>,
        /// Residual predicate over the concatenated layout.
        residual: Option<Expr>,
    },
    /// Sort-merge join on equi-keys (sorts both inputs); output = left ⧺ right.
    MergeJoin {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Key expressions as in [`PhysicalPlan::HashJoin`] (single pair).
        keys: (Expr, Expr),
        /// Residual predicate over the concatenated layout.
        residual: Option<Expr>,
    },
    /// Sort by keys (expression, ascending).
    Sort {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Sort keys over the input layout.
        keys: Vec<(Expr, bool)>,
    },
    /// Hash aggregation; output layout = group values ⧺ aggregate values.
    HashAggregate {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Grouping expressions over the input layout.
        group_by: Vec<Expr>,
        /// Aggregates over the input layout.
        aggs: Vec<AggSpec>,
    },
    /// Duplicate elimination over whole tuples.
    Distinct {
        /// Input plan.
        input: Box<PhysicalPlan>,
    },
    /// Row-count limit.
    Limit {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Maximum rows to emit.
        n: u64,
    },
}

impl PhysicalPlan {
    /// Number of columns this node emits (for layout checks).
    pub fn output_arity(&self) -> usize {
        match self {
            PhysicalPlan::SeqScan { table, .. }
            | PhysicalPlan::PartitionScan { table, .. }
            | PhysicalPlan::IndexScan { table, .. } => table.schema.len(),
            PhysicalPlan::Exchange { inputs } => {
                inputs.first().map_or(0, PhysicalPlan::output_arity)
            }
            PhysicalPlan::MergeAggregate { group_by_len, aggs, .. } => group_by_len + aggs.len(),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Limit { input, .. } => input.output_arity(),
            PhysicalPlan::Project { exprs, .. } => exprs.len(),
            PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::MergeJoin { left, right, .. } => {
                left.output_arity() + right.output_arity()
            }
            PhysicalPlan::HashAggregate { group_by, aggs, .. } => group_by.len() + aggs.len(),
        }
    }

    /// Attach an MVCC read view to every table access in the plan, making
    /// it a snapshot read (executed without locks; visibility filtered
    /// against each table's version overlay). The access paths stay as
    /// planned: a scan filters each page it reads, an index scan filters
    /// the rows its probe fetches.
    pub fn attach_snapshot(&mut self, view: ReadView) {
        match self {
            PhysicalPlan::SeqScan { snapshot, .. }
            | PhysicalPlan::PartitionScan { snapshot, .. }
            | PhysicalPlan::IndexScan { snapshot, .. } => *snapshot = Some(view),
            PhysicalPlan::Exchange { inputs } | PhysicalPlan::MergeAggregate { inputs, .. } => {
                for i in inputs {
                    i.attach_snapshot(view);
                }
            }
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAggregate { input, .. } => input.attach_snapshot(view),
            PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::MergeJoin { left, right, .. } => {
                left.attach_snapshot(view);
                right.attach_snapshot(view);
            }
        }
    }

    /// Names of all base tables in the plan (diagnostics, shared scans).
    pub fn base_tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out
    }

    fn collect_tables(&self, out: &mut Vec<String>) {
        match self {
            PhysicalPlan::SeqScan { table, .. }
            | PhysicalPlan::PartitionScan { table, .. }
            | PhysicalPlan::IndexScan { table, .. } => out.push(table.name.clone()),
            PhysicalPlan::Exchange { inputs } | PhysicalPlan::MergeAggregate { inputs, .. } => {
                // One partial per partition scans the same table; report
                // each table once.
                let mut nested = Vec::new();
                for i in inputs {
                    i.collect_tables(&mut nested);
                }
                nested.dedup();
                out.append(&mut nested);
            }
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Project { input, .. } => input.collect_tables(out),
            PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::MergeJoin { left, right, .. } => {
                left.collect_tables(out);
                right.collect_tables(out);
            }
            PhysicalPlan::HashAggregate { input, .. } => input.collect_tables(out),
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        match self {
            PhysicalPlan::SeqScan { table, predicate, snapshot } => {
                write!(f, "{pad}SeqScan {}", table.name)?;
                if let Some(p) = predicate {
                    write!(f, " filter={p}")?;
                }
                writeln!(f, "{}", snapshot_mark(snapshot))
            }
            PhysicalPlan::PartitionScan { table, partition, predicate, snapshot } => {
                write!(
                    f,
                    "{pad}PartitionScan {}[{}/{}]",
                    table.name,
                    partition,
                    table.partitions()
                )?;
                if let Some(p) = predicate {
                    write!(f, " filter={p}")?;
                }
                writeln!(f, "{}", snapshot_mark(snapshot))
            }
            PhysicalPlan::Exchange { inputs } => {
                writeln!(f, "{pad}Exchange x{}", inputs.len())?;
                for i in inputs {
                    i.fmt_indented(f, depth + 1)?;
                }
                Ok(())
            }
            PhysicalPlan::MergeAggregate { inputs, group_by_len, aggs } => {
                write!(f, "{pad}MergeAggregate groups={group_by_len} aggs=[")?;
                for (i, a) in aggs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match &a.arg {
                        Some(e) => write!(f, "{}({e})", a.func.sql())?,
                        None => write!(f, "{}(*)", a.func.sql())?,
                    }
                }
                writeln!(f, "]")?;
                for i in inputs {
                    i.fmt_indented(f, depth + 1)?;
                }
                Ok(())
            }
            PhysicalPlan::IndexScan { table, index, lo, hi, predicate, snapshot } => {
                write!(f, "{pad}IndexScan {} via {} ", table.name, index.name)?;
                match (lo, hi) {
                    (Some(a), Some(b)) if a == b => write!(f, "key={a}")?,
                    (a, b) => write!(
                        f,
                        "range=[{}, {}]",
                        a.map_or("-inf".into(), |v| v.to_string()),
                        b.map_or("+inf".into(), |v| v.to_string())
                    )?,
                }
                if let Some(p) = predicate {
                    write!(f, " filter={p}")?;
                }
                writeln!(f, "{}", snapshot_mark(snapshot))
            }
            PhysicalPlan::Filter { input, predicate } => {
                writeln!(f, "{pad}Filter {predicate}")?;
                input.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::Project { input, exprs, .. } => {
                write!(f, "{pad}Project ")?;
                for (i, e) in exprs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                writeln!(f)?;
                input.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::NestedLoopJoin { left, right, predicate } => {
                write!(f, "{pad}NestedLoopJoin")?;
                if let Some(p) = predicate {
                    write!(f, " on {p}")?;
                }
                writeln!(f)?;
                left.fmt_indented(f, depth + 1)?;
                right.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::HashJoin { left, right, keys, residual } => {
                write!(f, "{pad}HashJoin on ")?;
                for (i, (l, r)) in keys.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{l} = {r}")?;
                }
                if let Some(p) = residual {
                    write!(f, " filter={p}")?;
                }
                writeln!(f)?;
                left.fmt_indented(f, depth + 1)?;
                right.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::MergeJoin { left, right, keys, residual } => {
                write!(f, "{pad}MergeJoin on {} = {}", keys.0, keys.1)?;
                if let Some(p) = residual {
                    write!(f, " filter={p}")?;
                }
                writeln!(f)?;
                left.fmt_indented(f, depth + 1)?;
                right.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::Sort { input, keys } => {
                write!(f, "{pad}Sort by ")?;
                for (i, (e, asc)) in keys.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e} {}", if *asc { "ASC" } else { "DESC" })?;
                }
                writeln!(f)?;
                input.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::HashAggregate { input, group_by, aggs } => {
                write!(f, "{pad}HashAggregate")?;
                if !group_by.is_empty() {
                    write!(f, " group=[")?;
                    for (i, g) in group_by.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{g}")?;
                    }
                    write!(f, "]")?;
                }
                write!(f, " aggs=[")?;
                for (i, a) in aggs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match &a.arg {
                        Some(e) => write!(f, "{}({e})", a.func.sql())?,
                        None => write!(f, "{}(*)", a.func.sql())?,
                    }
                }
                writeln!(f, "]")?;
                input.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::Distinct { input } => {
                writeln!(f, "{pad}Distinct")?;
                input.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::Limit { input, n } => {
                writeln!(f, "{pad}Limit {n}")?;
                input.fmt_indented(f, depth + 1)
            }
        }
    }
}

/// The EXPLAIN suffix of a table access running under a read view. The
/// timestamp is left out so the text of a plan does not depend on when it
/// was rendered.
fn snapshot_mark(snapshot: &Option<ReadView>) -> &'static str {
    if snapshot.is_some() {
        " snapshot"
    } else {
        ""
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

/// Decompose final aggregates into partition-local *partial* aggregates.
///
/// COUNT/SUM/MIN/MAX each keep one partial column; AVG contributes two
/// (SUM of the argument, then COUNT of the argument) because an average of
/// averages is wrong under skewed partitions. The merge side walks the
/// final list with the same expansion rule, so no explicit column mapping
/// is carried in the plan. DISTINCT aggregates are not decomposable — the
/// planner keeps those single-phase.
pub fn partial_agg_specs(aggs: &[AggSpec]) -> Vec<AggSpec> {
    let mut out = Vec::with_capacity(aggs.len());
    for a in aggs {
        debug_assert!(!a.distinct, "DISTINCT aggregates are never two-phase");
        match a.func {
            AggFunc::Avg => {
                out.push(AggSpec { func: AggFunc::Sum, arg: a.arg.clone(), distinct: false });
                out.push(AggSpec { func: AggFunc::Count, arg: a.arg.clone(), distinct: false });
            }
            _ => out.push(a.clone()),
        }
    }
    out
}

/// A bound column reference with a synthetic name (planner-generated).
pub fn col_at(index: usize) -> Expr {
    Expr::Column(ColumnRef { table: None, name: format!("#{index}"), index: Some(index) })
}

/// Replace every occurrence of the mapped expressions with column
/// references into a new layout. Returns `None` when an aggregate call
/// survives unmapped (invalid for post-aggregation expressions).
pub fn substitute(expr: &Expr, map: &[(Expr, usize)]) -> Option<Expr> {
    if let Some((_, idx)) = map.iter().find(|(e, _)| e == expr) {
        return Some(col_at(*idx));
    }
    Some(match expr {
        Expr::Agg { .. } => return None,
        Expr::Literal(_) | Expr::Column(_) => expr.clone(),
        Expr::Unary { op, expr } => Expr::Unary { op: *op, expr: Box::new(substitute(expr, map)?) },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(substitute(left, map)?),
            op: *op,
            right: Box::new(substitute(right, map)?),
        },
        Expr::IsNull { expr, negated } => {
            Expr::IsNull { expr: Box::new(substitute(expr, map)?), negated: *negated }
        }
        Expr::Between { expr, lo, hi, negated } => Expr::Between {
            expr: Box::new(substitute(expr, map)?),
            lo: Box::new(substitute(lo, map)?),
            hi: Box::new(substitute(hi, map)?),
            negated: *negated,
        },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(substitute(expr, map)?),
            list: list.iter().map(|e| substitute(e, map)).collect::<Option<Vec<_>>>()?,
            negated: *negated,
        },
        Expr::Like { expr, pattern, negated } => Expr::Like {
            expr: Box::new(substitute(expr, map)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
    })
}

/// Shift every bound column index in `expr` by `delta` (used when an
/// expression written against a join's right side must be evaluated against
/// the concatenated layout).
pub fn shift_columns(expr: &Expr, delta: usize) -> Expr {
    let mut e = expr.clone();
    shift_in_place(&mut e, delta);
    e
}

fn shift_in_place(expr: &mut Expr, delta: usize) {
    match expr {
        Expr::Column(c) => {
            if let Some(i) = c.index {
                c.index = Some(i + delta);
            }
        }
        Expr::Literal(_) => {}
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
            shift_in_place(expr, delta)
        }
        Expr::Binary { left, right, .. } => {
            shift_in_place(left, delta);
            shift_in_place(right, delta);
        }
        Expr::Between { expr, lo, hi, .. } => {
            shift_in_place(expr, delta);
            shift_in_place(lo, delta);
            shift_in_place(hi, delta);
        }
        Expr::InList { expr, list, .. } => {
            shift_in_place(expr, delta);
            list.iter_mut().for_each(|e| shift_in_place(e, delta));
        }
        Expr::Agg { arg, .. } => {
            if let Some(a) = arg {
                shift_in_place(a, delta);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_sql::ast::BinOp;

    #[test]
    fn substitute_replaces_mapped_subtrees() {
        let agg = Expr::Agg { func: AggFunc::Count, arg: None, distinct: false };
        let e = Expr::binary(agg.clone(), BinOp::Gt, Expr::int(2));
        let out = substitute(&e, &[(agg, 1)]).unwrap();
        assert_eq!(out.to_string(), "(#1 > 2)");
    }

    #[test]
    fn substitute_fails_on_unmapped_aggregate() {
        let agg =
            Expr::Agg { func: AggFunc::Sum, arg: Some(Box::new(Expr::col("x"))), distinct: false };
        assert!(substitute(&agg, &[]).is_none());
    }

    #[test]
    fn shift_columns_moves_indices() {
        let e = Expr::Column(ColumnRef { table: None, name: "x".into(), index: Some(2) });
        let shifted = shift_columns(&e, 5);
        let Expr::Column(c) = shifted else { panic!() };
        assert_eq!(c.index, Some(7));
    }
}
