//! The system catalog: tables, indexes, statistics.
//!
//! In the paper's Table 1 the catalog is the canonical *common* data
//! structure — touched by virtually every query during parsing and
//! optimization. The engine layers record those touches; the catalog itself
//! stays a plain shared registry.

use crate::btree::BTree;
use crate::buffer::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::mvcc::{key_in_range, CommitOracle, ReadView, VersionStore};
use crate::partition::PartitionedHeap;
use crate::schema::Schema;
use crate::stats::{analyze, TableStats};
use crate::tuple::{Rid, Tuple};
use crate::value::DataType;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Table identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(pub u32);

/// Index identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexId(pub u32);

/// A registered table.
pub struct TableInfo {
    /// Id.
    pub id: TableId,
    /// Lower-cased name.
    pub name: String,
    /// Schema.
    pub schema: Schema,
    /// Row storage (hash-partitioned; single-partition for plain tables).
    pub heap: Arc<PartitionedHeap>,
    /// MVCC version overlay for snapshot reads (see `mvcc` module docs).
    pub versions: Arc<VersionStore>,
    /// Optimizer statistics (refreshed by [`Catalog::analyze_table`]).
    pub stats: RwLock<TableStats>,
}

impl TableInfo {
    /// Number of storage partitions (≥ 1).
    pub fn partitions(&self) -> usize {
        self.heap.partitions()
    }

    /// The hash-key column the rows are partitioned on.
    pub fn partition_key(&self) -> usize {
        self.heap.key_column()
    }

    /// The single partition an index probe on `column` with bounds
    /// `[lo, hi]` can match in, when the bounds pin the hash-key column to
    /// one value (index columns are always `Int`, so the hash agrees with
    /// row routing). `None` = the probe must visit every partition.
    pub fn pruned_partition(
        &self,
        column: usize,
        lo: Option<i64>,
        hi: Option<i64>,
    ) -> Option<usize> {
        match (lo, hi) {
            (Some(l), Some(h))
                if l == h && column == self.partition_key() && self.partitions() > 1 =>
            {
                Some(crate::partition::partition_of_value(
                    &crate::value::Value::Int(l),
                    self.partitions(),
                ))
            }
            _ => None,
        }
    }

    /// Probe `index` for keys in `[lo, hi]` and fetch the matching rows —
    /// the one access path behind every index scan, locked or snapshot.
    ///
    /// The probe reads only the partition tree the bounds pin (see
    /// [`Self::pruned_partition`]), or every tree otherwise. A fetched rid
    /// whose slot has been deleted since the probe is absent, and a fetched
    /// row is kept only if its key still lies in the bounds. Under a
    /// `snapshot`, the fetched rows then go through
    /// [`VersionStore::filter_probe`], which keeps the ones the view can
    /// see and unions in the dead versions it still sees, so the result is
    /// the same bag a snapshot scan filtered on the key bounds returns.
    pub fn index_probe(
        &self,
        index: &IndexInfo,
        lo: Option<i64>,
        hi: Option<i64>,
        snapshot: Option<ReadView>,
    ) -> StorageResult<Vec<(Rid, Tuple)>> {
        let pruned = self.pruned_partition(index.column, lo, hi);
        let mut rows = Vec::new();
        for (_, rid) in index.range_in(pruned, lo, hi)? {
            if let Some(t) = self.heap.try_get(rid)? {
                if t.get(index.column).as_int().is_some_and(|k| key_in_range(k, lo, hi)) {
                    rows.push((rid, t));
                }
            }
        }
        if let Some(view) = snapshot {
            self.versions.filter_probe(view, index.column, lo, hi, &mut rows)?;
        }
        Ok(rows)
    }
}

/// A registered index: one B+tree per table partition, so index maintenance
/// and index-only probes stay partition-local.
pub struct IndexInfo {
    /// Id.
    pub id: IndexId,
    /// Lower-cased name.
    pub name: String,
    /// Indexed table.
    pub table: TableId,
    /// Indexed column (must be `Int`).
    pub column: usize,
    /// Per-partition B+trees, aligned with the table's partitions.
    pub btrees: Vec<Arc<BTree>>,
}

impl IndexInfo {
    /// Number of partitions this index covers.
    pub fn partitions(&self) -> usize {
        self.btrees.len()
    }

    /// The B+tree for one partition.
    pub fn btree_for(&self, partition: usize) -> &Arc<BTree> {
        &self.btrees[partition]
    }

    /// Insert an entry into the given partition's tree.
    pub fn insert(&self, partition: usize, key: i64, rid: Rid) -> StorageResult<()> {
        self.btrees[partition].insert(key, rid)
    }

    /// Delete an entry from the given partition's tree.
    pub fn delete(&self, partition: usize, key: i64, rid: Rid) -> StorageResult<bool> {
        self.btrees[partition].delete(key, rid)
    }

    /// Point probe across every partition.
    pub fn search(&self, key: i64) -> StorageResult<Vec<Rid>> {
        let mut out = Vec::new();
        for bt in &self.btrees {
            out.extend(bt.search(key)?);
        }
        Ok(out)
    }

    /// Range probe across every partition, merged back into key order.
    pub fn range(&self, lo: Option<i64>, hi: Option<i64>) -> StorageResult<Vec<(i64, Rid)>> {
        let mut out = Vec::new();
        for bt in &self.btrees {
            out.extend(bt.range(lo, hi)?);
        }
        if self.btrees.len() > 1 {
            // Concatenation of k key-ordered runs; std's stable sort
            // detects and merges existing runs, so this is an O(n log k)
            // k-way merge, not a from-scratch sort.
            out.sort_by_key(|(k, _)| *k);
        }
        Ok(out)
    }

    /// Range probe pruned to one partition's tree when the caller knows
    /// (via [`TableInfo::pruned_partition`]) the key can only live there.
    pub fn range_in(
        &self,
        partition: Option<usize>,
        lo: Option<i64>,
        hi: Option<i64>,
    ) -> StorageResult<Vec<(i64, Rid)>> {
        match partition {
            Some(p) => self.btrees[p].range(lo, hi),
            None => self.range(lo, hi),
        }
    }
}

#[derive(Default)]
struct CatalogInner {
    tables: HashMap<String, Arc<TableInfo>>,
    tables_by_id: HashMap<TableId, Arc<TableInfo>>,
    indexes: HashMap<String, Arc<IndexInfo>>,
    next_table: u32,
    next_index: u32,
}

/// The catalog.
pub struct Catalog {
    pool: Arc<BufferPool>,
    inner: RwLock<CatalogInner>,
    oracle: Arc<CommitOracle>,
}

impl Catalog {
    /// A catalog allocating storage from `pool`.
    pub fn new(pool: Arc<BufferPool>) -> Self {
        Self { pool, inner: RwLock::new(CatalogInner::default()), oracle: CommitOracle::new() }
    }

    /// The shared buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The commit-timestamp authority for every table in this catalog.
    /// There is exactly one clock per catalog — servers sharing a catalog
    /// must stamp versions and pin snapshots against the same sequence,
    /// or a commit published through one server would sit above another
    /// server's snapshot horizon and silently vanish from its reads.
    pub fn oracle(&self) -> &Arc<CommitOracle> {
        &self.oracle
    }

    /// Create an unpartitioned table. (Partition choice is the *caller's*
    /// policy — e.g. `ExecContext::ddl_partitions` on the server's DDL
    /// path — never catalog-global state, so servers sharing one catalog
    /// stay independent.)
    pub fn create_table(&self, name: &str, schema: Schema) -> StorageResult<Arc<TableInfo>> {
        self.create_table_partitioned(name, schema, 1, 0)
    }

    /// Create a table hash-partitioned `partitions` ways on column `key`.
    pub fn create_table_partitioned(
        &self,
        name: &str,
        schema: Schema,
        partitions: usize,
        key: usize,
    ) -> StorageResult<Arc<TableInfo>> {
        let name = name.to_ascii_lowercase();
        if key >= schema.len() {
            return Err(StorageError::SchemaMismatch(format!(
                "partition key column {key} out of range"
            )));
        }
        let mut inner = self.inner.write();
        if inner.tables.contains_key(&name) {
            return Err(StorageError::AlreadyExists(name));
        }
        let id = TableId(inner.next_table);
        inner.next_table += 1;
        let ncols = schema.len();
        let info = Arc::new(TableInfo {
            id,
            name: name.clone(),
            schema,
            heap: Arc::new(PartitionedHeap::create(Arc::clone(&self.pool), partitions, key)),
            versions: VersionStore::new(),
            stats: RwLock::new(TableStats {
                row_count: 0,
                page_count: 0,
                columns: vec![Default::default(); ncols],
            }),
        });
        inner.tables.insert(name, Arc::clone(&info));
        inner.tables_by_id.insert(id, Arc::clone(&info));
        Ok(info)
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> StorageResult<Arc<TableInfo>> {
        let name = name.to_ascii_lowercase();
        self.inner.read().tables.get(&name).cloned().ok_or(StorageError::NotFound(name))
    }

    /// Look up a table by id.
    pub fn table_by_id(&self, id: TableId) -> StorageResult<Arc<TableInfo>> {
        self.inner
            .read()
            .tables_by_id
            .get(&id)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(format!("table #{}", id.0)))
    }

    /// Drop a table and its indexes (pages are not reclaimed; see crate
    /// docs on space reclamation).
    pub fn drop_table(&self, name: &str) -> StorageResult<()> {
        let name = name.to_ascii_lowercase();
        let mut inner = self.inner.write();
        let info = inner.tables.remove(&name).ok_or(StorageError::NotFound(name))?;
        inner.tables_by_id.remove(&info.id);
        inner.indexes.retain(|_, ix| ix.table != info.id);
        Ok(())
    }

    /// All tables, sorted by name.
    pub fn list_tables(&self) -> Vec<Arc<TableInfo>> {
        let mut v: Vec<_> = self.inner.read().tables.values().cloned().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Create a B+tree index over an existing `Int` column, bulk-loading
    /// current rows.
    pub fn create_index(
        &self,
        name: &str,
        table_name: &str,
        column_name: &str,
    ) -> StorageResult<Arc<IndexInfo>> {
        let name = name.to_ascii_lowercase();
        let table = self.table(table_name)?;
        let column = table
            .schema
            .index_of(column_name)
            .ok_or_else(|| StorageError::NotFound(format!("column {column_name}")))?;
        if table.schema.column(column).ty != DataType::Int {
            return Err(StorageError::SchemaMismatch(format!(
                "index column {column_name} must be INT"
            )));
        }
        {
            let inner = self.inner.read();
            if inner.indexes.contains_key(&name) {
                return Err(StorageError::AlreadyExists(name));
            }
        }
        let mut btrees = Vec::with_capacity(table.heap.partitions());
        for p in 0..table.heap.partitions() {
            let btree = Arc::new(BTree::create(Arc::clone(&self.pool))?);
            for item in table.heap.scan_partition(p) {
                let (rid, tuple) = item?;
                if let Some(k) = tuple.get(column).as_int() {
                    btree.insert(k, rid)?;
                }
            }
            btrees.push(btree);
        }
        let mut inner = self.inner.write();
        if inner.indexes.contains_key(&name) {
            return Err(StorageError::AlreadyExists(name));
        }
        let id = IndexId(inner.next_index);
        inner.next_index += 1;
        let info = Arc::new(IndexInfo { id, name: name.clone(), table: table.id, column, btrees });
        inner.indexes.insert(name, Arc::clone(&info));
        Ok(info)
    }

    /// All indexes on a table.
    pub fn indexes_for(&self, table: TableId) -> Vec<Arc<IndexInfo>> {
        let mut v: Vec<_> =
            self.inner.read().indexes.values().filter(|ix| ix.table == table).cloned().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Index on a specific column of a table, if any.
    pub fn index_on(&self, table: TableId, column: usize) -> Option<Arc<IndexInfo>> {
        self.inner
            .read()
            .indexes
            .values()
            .find(|ix| ix.table == table && ix.column == column)
            .cloned()
    }

    /// Recompute a table's statistics (the `ANALYZE` command).
    pub fn analyze_table(&self, name: &str) -> StorageResult<()> {
        let table = self.table(name)?;
        let stats = analyze(&table.heap, &table.schema)?;
        *table.stats.write() = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::schema::Column;
    use crate::tuple::Tuple;
    use crate::value::Value;

    fn catalog() -> Catalog {
        Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 256))
    }

    fn two_col() -> Schema {
        Schema::new(vec![Column::new("id", DataType::Int), Column::new("name", DataType::Str)])
    }

    #[test]
    fn create_and_lookup_case_insensitive() {
        let c = catalog();
        c.create_table("Users", two_col()).unwrap();
        assert!(c.table("USERS").is_ok());
        assert!(c.table("users").is_ok());
        assert!(matches!(c.table("nope"), Err(StorageError::NotFound(_))));
        assert!(matches!(c.create_table("users", two_col()), Err(StorageError::AlreadyExists(_))));
    }

    #[test]
    fn drop_table_removes_indexes_too() {
        let c = catalog();
        let t = c.create_table("t", two_col()).unwrap();
        t.heap.insert(&Tuple::new(vec![Value::Int(1), Value::Str("a".into())])).unwrap();
        c.create_index("t_id", "t", "id").unwrap();
        assert_eq!(c.indexes_for(t.id).len(), 1);
        c.drop_table("t").unwrap();
        assert!(c.table("t").is_err());
        assert!(c.indexes_for(t.id).is_empty());
    }

    #[test]
    fn index_bulk_load_and_probe() {
        let c = catalog();
        let t = c.create_table("t", two_col()).unwrap();
        let mut rids = Vec::new();
        for i in 0..200i64 {
            rids.push(
                t.heap
                    .insert(&Tuple::new(vec![Value::Int(i), Value::Str(format!("n{i}"))]))
                    .unwrap(),
            );
        }
        let ix = c.create_index("t_id", "t", "id").unwrap();
        assert_eq!(ix.search(42).unwrap(), vec![rids[42]]);
        assert_eq!(c.index_on(t.id, 0).unwrap().id, ix.id);
        assert!(c.index_on(t.id, 1).is_none());
    }

    #[test]
    fn partitioned_table_routes_rows_and_indexes_per_partition() {
        let c = catalog();
        let t = c.create_table_partitioned("p", two_col(), 4, 0).unwrap();
        assert_eq!(t.partitions(), 4);
        assert_eq!(t.partition_key(), 0);
        for i in 0..200i64 {
            t.heap.insert(&Tuple::new(vec![Value::Int(i), Value::Str(format!("n{i}"))])).unwrap();
        }
        let ix = c.create_index("p_id", "p", "id").unwrap();
        assert_eq!(ix.partitions(), 4);
        // Each key is in exactly one partition's tree — the one its row
        // hashed to.
        for k in 0..200i64 {
            let p = crate::partition::partition_of_value(&Value::Int(k), 4);
            assert_eq!(ix.btree_for(p).search(k).unwrap().len(), 1, "key {k}");
            let elsewhere: usize =
                (0..4).filter(|q| *q != p).map(|q| ix.btree_for(q).search(k).unwrap().len()).sum();
            assert_eq!(elsewhere, 0, "key {k} leaked into another partition");
        }
        // Merged range covers everything, in key order.
        let all = ix.range(None, None).unwrap();
        assert_eq!(all.len(), 200);
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn index_probes_prune_to_the_hash_partition_when_the_key_is_pinned() {
        let c = catalog();
        let t = c.create_table_partitioned("p", two_col(), 4, 0).unwrap();
        for i in 0..100i64 {
            t.heap.insert(&Tuple::new(vec![Value::Int(i), Value::Str("x".into())])).unwrap();
        }
        let ix = c.create_index("p_id", "p", "id").unwrap();
        // A pinned key on the partition-key column prunes to its hash
        // partition, and the pruned probe still finds the row.
        let p = t.pruned_partition(0, Some(42), Some(42)).unwrap();
        assert_eq!(p, crate::partition::partition_of_value(&Value::Int(42), 4));
        assert_eq!(ix.range_in(Some(p), Some(42), Some(42)).unwrap().len(), 1);
        // Ranges, other columns, and single-partition tables don't prune.
        assert!(t.pruned_partition(0, Some(1), Some(5)).is_none());
        assert!(t.pruned_partition(1, Some(42), Some(42)).is_none());
        let flat = c.create_table("f", two_col()).unwrap();
        assert!(flat.pruned_partition(0, Some(42), Some(42)).is_none());
    }

    #[test]
    fn bad_partition_key_is_rejected() {
        let c = catalog();
        assert!(matches!(
            c.create_table_partitioned("bad", two_col(), 2, 9),
            Err(StorageError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn index_on_string_column_is_rejected() {
        let c = catalog();
        c.create_table("t", two_col()).unwrap();
        assert!(matches!(c.create_index("bad", "t", "name"), Err(StorageError::SchemaMismatch(_))));
    }

    #[test]
    fn analyze_updates_stats() {
        let c = catalog();
        let t = c.create_table("t", two_col()).unwrap();
        for i in 0..50i64 {
            t.heap.insert(&Tuple::new(vec![Value::Int(i), Value::Str("x".into())])).unwrap();
        }
        assert_eq!(t.stats.read().row_count, 0);
        c.analyze_table("t").unwrap();
        assert_eq!(t.stats.read().row_count, 50);
        assert_eq!(t.stats.read().columns[0].ndv, 50);
    }

    #[test]
    fn list_tables_sorted() {
        let c = catalog();
        c.create_table("zeta", two_col()).unwrap();
        c.create_table("alpha", two_col()).unwrap();
        let names: Vec<String> = c.list_tables().iter().map(|t| t.name.clone()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
