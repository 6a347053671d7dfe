//! `paxbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its configuration and metrics, one per
//! line with units, then a last line holding one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` a traced run gives the
//! per-layer ones. Exits 1 when any operation failed or the crash oracle
//! found a lost or resurrected record, 2 on bad arguments.

use std::process::ExitCode;

use paxbench::{kv, report};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("paxbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "kv_update" => kv::run(kv::KvSpec::kv_update(), args.seed, args.seconds, args.trace),
        "kv_churn" => kv::run(kv::KvSpec::kv_churn(), args.seed, args.seconds, args.trace),
        other => {
            eprintln!("paxbench: unknown workload {other:?} (kv_update, kv_churn)");
            return ExitCode::from(2);
        }
    };
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("paxbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let metrics = if args.trace { report::per_layer(&r) } else { report::end_to_end(&r) };
    let mut shown = metrics.clone();
    if !args.trace {
        shown.extend(report::unbounded(&r));
    }
    shown.extend(report::correctness(&r));
    for line in report::human(&r, &shown) {
        println!("{line}");
    }
    let correct = r.failed == 0 && r.lost_committed_records == 0;
    let attempted = (r.ops + r.oracle_checked).max(1);
    let failed = r.failed + r.lost_committed_records;
    println!("{}", report::result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
