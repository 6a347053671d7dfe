//! Same-lane HBM store-hit contention microbench.
//!
//! N OS threads issue `RdOwn`s against ONE device lane whose working set
//! is HBM-resident — the worst case the concurrent set index exists for:
//! a warm store must not serialize on anything lane-wide. The bench
//! times the full device store path (presence probe, per-set spinlock,
//! epoch-log dedup, directory note, atomic telemetry). Rows keep
//! `mode: "lockfree"` so result files stay comparable.
//!
//! The CI ratchet enforces the point of the design: on a ≥4-core host
//! the 1→4-thread scaling must clear a bar a lane-wide lock structurally
//! cannot.
//!
//! Run: `cargo run --release -p pax-bench --bin hbmstore` (add `--json`
//! for machine-readable output; `--threads 1,2,4` and `--ops N` to
//! resize).

use std::time::Instant;

use pax_bench::{arg_value, thread_series, BenchOut, Json};
use pax_cache::HomeAgent;
use pax_device::{DeviceConfig, PaxDevice};
use pax_pm::{LineAddr, PmPool, PoolConfig};

/// Distinct lines in the warmed same-lane working set. Small enough to
/// sit far below the default HBM slice, large enough to spread across
/// sets so the per-set spinlocks actually shard.
const LINES: u64 = 64;

/// One timed same-lane store storm; returns wall-clock Mops.
fn measure(threads: usize, ops_per_thread: u64) -> f64 {
    let pool = PmPool::create(PoolConfig::small()).unwrap();
    // One shard = every address lands on one lane. Background pumping is
    // deferred past the run so the measured loop is the pure store path.
    let config = DeviceConfig::default().with_shards(1).with_log_pump_interval(usize::MAX);
    let device = PaxDevice::open(pool, config).unwrap();
    // Warm: first touch logs each line and makes it HBM-resident, so the
    // timed loop below is all hits.
    {
        let mut home = &device;
        for i in 0..LINES {
            home.read_own(LineAddr(i)).unwrap();
        }
    }
    let total = threads as u64 * ops_per_thread;
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let device = &device;
            s.spawn(move || {
                let mut home = device;
                // Offset start points so threads do not march in lockstep
                // over the same set.
                for i in 0..ops_per_thread {
                    home.read_own(LineAddr((t as u64 * 17 + i) % LINES)).unwrap();
                }
            });
        }
    });
    total as f64 / start.elapsed().as_secs_f64() / 1e6
}

fn main() {
    let mut out = BenchOut::from_args("hbmstore");
    let threads = thread_series(&[1, 2, 4]);
    let ops: u64 = arg_value("--ops").map_or(200_000, |v| v.parse().expect("bad --ops"));
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.config("ops_per_thread", Json::U64(ops));
    out.config("lines", Json::U64(LINES));
    out.config("host_cores", Json::U64(host_cores as u64));

    out.line(format!("\nSame-lane HBM store hits [Mops] — concurrent set index, {ops} ops/thread"));
    let mut rows =
        vec![vec!["threads".to_string(), "lockfree".to_string(), "lockfree vs 1".to_string()]];
    let mut base = None;
    for &t in &threads {
        eprintln!("measuring {t} thread(s) …");
        let mops = measure(t, ops);
        let scaling = mops / *base.get_or_insert(mops);
        rows.push(vec![t.to_string(), format!("{mops:.2}"), format!("{scaling:.2}×")]);
        out.push_result(
            Json::obj()
                .field("threads", Json::U64(t as u64))
                .field("mode", Json::str("lockfree"))
                .field("mops", Json::F64(mops))
                .field("scaling_vs_1", Json::F64(scaling)),
        );
    }
    out.table(&rows);
    out.finish();
}
