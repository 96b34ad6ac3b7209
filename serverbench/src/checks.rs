//! Output checks. Every answer the benchmark receives is compared with
//! what the generated data says it must be; a mismatch fails the run.

use staged_dbclient::QueryResult;

/// One `GROUP BY ten` row of the scan statement, as loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Group {
    /// The `ten` value.
    pub ten: i64,
    /// `COUNT(*)`.
    pub count: i64,
    /// `SUM(unique2)`.
    pub sum: i64,
    /// `MIN(unique1)`.
    pub min: i64,
    /// `MAX(unique1)`.
    pub max: i64,
}

fn int(field: &Option<String>, what: &str) -> Result<i64, String> {
    field
        .as_deref()
        .ok_or_else(|| format!("{what} is NULL"))?
        .parse()
        .map_err(|e| format!("{what} is not an integer: {e}"))
}

fn one_row(res: &QueryResult) -> Result<&[Option<String>], String> {
    match res.rows.as_slice() {
        [row] => Ok(row),
        rows => Err(format!("expected exactly one row, got {}", rows.len())),
    }
}

/// The completion tag must be exactly `want` (e.g. `UPDATE 1`).
pub fn check_tag(res: &QueryResult, want: &str) -> Result<(), String> {
    if res.tag == want {
        Ok(())
    } else {
        Err(format!("expected tag {want:?}, got {:?}", res.tag))
    }
}

/// A point read on the Wisconsin table returns exactly the loaded row
/// with `unique1 = key`. `unique2` (column 1) is left out: the workloads
/// update it.
pub fn check_wisconsin_row(res: &QueryResult, key: i64, expected: &[String]) -> Result<(), String> {
    let row = one_row(res)?;
    if row.len() != expected.len() {
        return Err(format!("expected {} columns, got {}", expected.len(), row.len()));
    }
    if int(&row[0], "unique1")? != key {
        return Err(format!("asked for unique1 = {key}, got row {row:?}"));
    }
    for (i, (got, want)) in row.iter().zip(expected).enumerate() {
        if i != 1 && got.as_deref() != Some(want.as_str()) {
            return Err(format!("unique1 = {key}: column {i} is {got:?}, loaded {want:?}"));
        }
    }
    Ok(())
}

/// The scan statement returns one row per loaded group with the loaded
/// `COUNT`, `MIN` and `MAX`, and a `SUM(unique2)` between the loaded sum
/// and the loaded sum plus `extra(ten)` (the increments issued so far to
/// that group; 0 where the workload keeps sums balanced).
pub fn check_groups(
    res: &QueryResult,
    expected: &[Group],
    extra: impl Fn(i64) -> i64,
) -> Result<(), String> {
    if res.rows.len() != expected.len() {
        return Err(format!("expected {} groups, got {}", expected.len(), res.rows.len()));
    }
    for row in &res.rows {
        if row.len() != 5 {
            return Err(format!("expected 5 columns, got {row:?}"));
        }
        let ten = int(&row[0], "ten")?;
        let g = expected
            .iter()
            .find(|g| g.ten == ten)
            .ok_or_else(|| format!("unexpected group ten = {ten}"))?;
        let (count, sum) = (int(&row[1], "COUNT")?, int(&row[2], "SUM")?);
        let (min, max) = (int(&row[3], "MIN")?, int(&row[4], "MAX")?);
        if (count, min, max) != (g.count, g.min, g.max) {
            return Err(format!(
                "group {ten}: COUNT/MIN/MAX = {count}/{min}/{max}, loaded {}/{}/{}",
                g.count, g.min, g.max
            ));
        }
        let slack = extra(ten);
        if sum < g.sum || sum > g.sum + slack {
            return Err(format!(
                "group {ten}: SUM(unique2) = {sum}, loaded {} (+ at most {slack})",
                g.sum
            ));
        }
    }
    Ok(())
}

/// `SELECT COUNT(*), SUM(bal) FROM accounts` sees every account and the
/// loaded balance total: transfers move money, never make or lose it.
pub fn check_balance(res: &QueryResult, accounts: i64, total: i64) -> Result<(), String> {
    let row = one_row(res)?;
    if row.len() != 2 {
        return Err(format!("expected 2 columns, got {row:?}"));
    }
    let (n, sum) = (int(&row[0], "COUNT")?, int(&row[1], "SUM")?);
    if (n, sum) != (accounts, total) {
        return Err(format!(
            "balance check: {n} accounts summing to {sum}, loaded {accounts} summing to {total}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(rows: Vec<Vec<&str>>) -> QueryResult {
        QueryResult {
            columns: Vec::new(),
            rows: rows
                .into_iter()
                .map(|r| r.into_iter().map(|f| Some(f.to_string())).collect())
                .collect(),
            tag: "SELECT".into(),
        }
    }

    #[test]
    fn point_row_matches_and_corruption_fails() {
        let want: Vec<String> = ["7", "3", "1", "AAAA"].iter().map(|s| s.to_string()).collect();
        assert!(check_wisconsin_row(&result(vec![vec!["7", "3", "1", "AAAA"]]), 7, &want).is_ok());
        // unique2 may differ: the workloads update it.
        assert!(check_wisconsin_row(&result(vec![vec!["7", "9", "1", "AAAA"]]), 7, &want).is_ok());
        // A corrupted column, a wrong key, or a missing row fails.
        assert!(check_wisconsin_row(&result(vec![vec!["7", "3", "1", "AAAB"]]), 7, &want).is_err());
        assert!(check_wisconsin_row(&result(vec![vec!["8", "3", "1", "AAAA"]]), 7, &want).is_err());
        assert!(check_wisconsin_row(&result(vec![]), 7, &want).is_err());
    }

    #[test]
    fn group_sums_respect_their_slack() {
        let g = [Group { ten: 0, count: 2, sum: 10, min: 0, max: 10 }];
        let ok = result(vec![vec!["0", "2", "12", "0", "10"]]);
        assert!(check_groups(&ok, &g, |_| 2).is_ok());
        assert!(check_groups(&ok, &g, |_| 0).is_err());
        let bad_count = result(vec![vec!["0", "3", "10", "0", "10"]]);
        assert!(check_groups(&bad_count, &g, |_| 0).is_err());
        let lost = result(vec![vec!["0", "2", "9", "0", "10"]]);
        assert!(check_groups(&lost, &g, |_| 5).is_err());
    }

    #[test]
    fn balance_and_tag_checks() {
        assert!(check_balance(&result(vec![vec!["4", "400"]]), 4, 400).is_ok());
        assert!(check_balance(&result(vec![vec!["4", "399"]]), 4, 400).is_err());
        let tag = QueryResult { tag: "UPDATE 0".into(), ..Default::default() };
        assert!(check_tag(&tag, "UPDATE 1").is_err());
    }
}
