//! # serverbench — the benchmark of record for the staged server
//!
//! Three closed-loop workloads run against `StagedServer` behind
//! `net::serve`, from one process, over two loopback client connections.
//! Every answer is checked. An end-to-end run prints the user-visible
//! metrics; a traced run prints the per-layer breakdown, measured from
//! outside the program (see `README.md` in this directory).

pub mod checks;
pub mod env;
pub mod layers;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Autocommit point reads with a few single-row updates.
    PointRead,
    /// Two-row transfer transactions with change feeds attached.
    Transfer,
    /// Read-only aggregate scans beside a transfer writer, on a table
    /// larger than the buffer pool.
    HtapScan,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::PointRead, Workload::Transfer, Workload::HtapScan];

    /// Its name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point_read",
            Workload::Transfer => "transfer",
            Workload::HtapScan => "htap_scan",
        }
    }

    /// Parse a name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The result object: the last line of standard output.
pub fn result_json(report: &run::Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
