//! Undo-log microbench: same-lane append contention, and recovery's
//! rollback cost against log length.
//!
//! N OS threads append entries into ONE undo bank — the worst case the
//! lock-free bank exists for: a store's log append must not serialize
//! on anything lane-wide. The bench times the append path alone
//! (reserve + fill + publish; no pump, no media — the bank is volatile
//! until drained): threads share one `UndoLog` and append with `&self`
//! through the packed-tail CAS reserve, slot fill, and ready-word
//! publish. Rows keep `mode: "cas"` so result files stay comparable.
//!
//! The CI ratchet enforces the point of the design: on a ≥4-core host
//! the 1→4-thread scaling must clear a bar a lane-wide lock structurally
//! cannot.
//!
//! The `recovery` series builds a pool that crashed mid-epoch with
//! 64/512/4096 unpersisted undo entries in a 32 MiB log region and times
//! `recover` on it: every entry must roll back, and the entries scanned
//! must track the entries logged, not the size of the log region.
//!
//! Run: `cargo run --release -p pax-bench --bin logappend` (add `--json`
//! for machine-readable output; `--threads 1,2,4` and `--ops N` to
//! resize).

use std::time::Instant;

use pax_bench::{arg_value, thread_series, BenchOut, Json};
use pax_device::{recover, UndoEntry, UndoLog, BLOCK_ENTRIES};
use pax_pm::{CacheLine, CrashClock, LineAddr, PmPool, PoolConfig};

/// One timed same-bank append storm; returns wall-clock Mops.
fn measure(threads: usize, ops_per_thread: u64) -> f64 {
    let total = threads as u64 * ops_per_thread;
    let log = UndoLog::with_region(0, total.div_ceil(BLOCK_ENTRIES));
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let log = &log;
            s.spawn(move || {
                for i in 0..ops_per_thread {
                    let line = LineAddr(t as u64 * ops_per_thread + i);
                    log.append(UndoEntry::single(1, line, CacheLine::zeroed()))
                        .expect("capacity sized to fit");
                }
            });
        }
    });
    total as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Times recovery of a pool that crashed mid-epoch with `entries`
/// durable undo entries, all newer than the committed epoch 0, on five
/// fresh pools. Returns the median run's `recover` time in µs and its
/// report's `rolled_back` and `scanned`.
fn measure_recovery(entries: u64) -> (f64, usize, usize) {
    let mut runs: Vec<_> = (0..5)
        .map(|_| {
            let config = PoolConfig::small().with_log_bytes(32 << 20).with_data_bytes(16 << 20);
            let mut pool = PmPool::create(config).expect("pool");
            let log = UndoLog::new(&pool);
            for i in 0..entries {
                let entry = UndoEntry::single(1, LineAddr(i), CacheLine::filled(i as u8));
                log.append(entry).expect("the log region holds every entry");
            }
            log.flush(&mut pool, &CrashClock::new()).expect("flush");
            let start = Instant::now();
            let report = recover(&mut pool).expect("recover");
            (start.elapsed().as_secs_f64() * 1e6, report.rolled_back, report.scanned)
        })
        .collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    runs[runs.len() / 2]
}

fn main() {
    let mut out = BenchOut::from_args("logappend");
    let threads = thread_series(&[1, 2, 4]);
    let ops: u64 = arg_value("--ops").map_or(200_000, |v| v.parse().expect("bad --ops"));
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.config("ops_per_thread", Json::U64(ops));
    out.config("host_cores", Json::U64(host_cores as u64));

    out.line(format!("\nSame-lane undo append [Mops] — lock-free bank, {ops} ops/thread"));
    let mut rows = vec![vec!["threads".to_string(), "cas".to_string(), "cas vs 1".to_string()]];
    let mut base = None;
    for &t in &threads {
        eprintln!("measuring {t} thread(s) …");
        let mops = measure(t, ops);
        let scaling = mops / *base.get_or_insert(mops);
        rows.push(vec![t.to_string(), format!("{mops:.2}"), format!("{scaling:.2}×")]);
        out.push_result(
            Json::obj()
                .field("threads", Json::U64(t as u64))
                .field("mode", Json::str("cas"))
                .field("mops", Json::F64(mops))
                .field("scaling_vs_1", Json::F64(scaling)),
        );
    }
    out.table(&rows);

    out.line("\nRecovery rollback vs log length (32 MiB log region)");
    let mut rrows = vec![vec!["entries".to_string(), "rolled back".to_string(), "µs".to_string()]];
    for entries in [64u64, 512, 4096] {
        eprintln!("recovering {entries} entries …");
        let (recover_us, rolled_back, scanned) = measure_recovery(entries);
        rrows.push(vec![entries.to_string(), rolled_back.to_string(), format!("{recover_us:.1}")]);
        out.push_result(
            Json::obj()
                .field("series", Json::str("recovery"))
                .field("entries", Json::U64(entries))
                .field("rolled_back", Json::U64(rolled_back as u64))
                .field("scanned", Json::U64(scanned as u64))
                .field("recover_us", Json::F64(recover_us)),
        );
    }
    out.table(&rrows);
    out.finish();
}
