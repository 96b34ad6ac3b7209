//! `serverbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON result object as the
//! last line. Exits non-zero, printing no result, when any output check
//! fails.

use serverbench::run::{run, Options};
use serverbench::{result_json, Workload};

fn usage() -> ! {
    eprintln!("usage: serverbench --workload point_read|transfer|htap_scan --seed N --seconds S --trace 0|1");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { usage() };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let opts = Options::of_record(workload, seed, seconds, trace);
    match run(&opts) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            for m in &report.metrics {
                println!("{} = {:.4} {} ({})", m.name, m.value, m.unit, m.note);
            }
            println!("{}", result_json(&report));
        }
        Err(e) => {
            eprintln!("serverbench: {} failed: {e}", workload.name());
            std::process::exit(1);
        }
    }
}
