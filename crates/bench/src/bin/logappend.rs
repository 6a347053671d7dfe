//! Same-lane undo-bank append contention microbench.
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
//! Run: `cargo run --release -p pax-bench --bin logappend` (add `--json`
//! for machine-readable output; `--threads 1,2,4` and `--ops N` to
//! resize).

use std::time::Instant;

use pax_bench::{arg_value, thread_series, BenchOut, Json};
use pax_device::{UndoEntry, UndoLog, BLOCK_ENTRIES};
use pax_pm::{CacheLine, LineAddr};

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
    out.finish();
}
