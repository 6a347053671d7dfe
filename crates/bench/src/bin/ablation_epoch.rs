//! A-epoch: ablation of persist() frequency (§3.2).
//!
//! "Generally, the application issues persist() after a batch of
//! operations, which works as a form of group commit … Also, if desired,
//! libpax can issue persist() periodically to limit undo log growth."
//!
//! This ablation sweeps the batch size (operations per persist) and
//! reports the trade-off: amortized persist cost per op falls with larger
//! batches while peak log footprint and lost-work-on-crash window grow.
//!
//! Run: `cargo run --release -p pax-bench --bin ablation_epoch` (add
//! `--json` for machine-readable output)

use libpax::{BitmapAlloc, PHashMap, PaxConfig, PaxPool};
use pax_bench::{BenchOut, Json};
use pax_pm::PoolConfig;

const TOTAL_OPS: u64 = 4_096;

fn main() {
    let mut out = BenchOut::from_args("ablation_epoch");
    out.config("total_ops", Json::U64(TOTAL_OPS));
    out.line(format!("persist() frequency ablation — {TOTAL_OPS} inserts total\n"));
    let mut rows = vec![vec![
        "ops/persist".to_string(),
        "persists".to_string(),
        "snoops total".to_string(),
        "snoops/op".to_string(),
        "peak log entries".to_string(),
        "log bytes/op".to_string(),
    ]];

    let mut last_telemetry = None;
    for batch in [16u64, 64, 256, 1024, 4096] {
        let pool = PaxPool::create(
            PaxConfig::default()
                .with_pool(PoolConfig::small().with_data_bytes(32 << 20).with_log_bytes(64 << 20)),
        )
        .expect("pool");
        let map: PHashMap<u64, u64, _> =
            PHashMap::attach(BitmapAlloc::attach(pool.vpm()).expect("allocator")).expect("map");
        // Count from a persist that closes the attach, so the allocator's
        // format is not charged to the first batch.
        pool.persist().expect("persist the attach");
        let base = pool.device_metrics().expect("metrics");

        let mut peak_log = 0u64;
        let mut persists = 0u64;
        let mut entries_at_last_persist = base.undo_entries;
        for k in 0..TOTAL_OPS {
            map.insert(k, k).expect("insert");
            if (k + 1) % batch == 0 {
                let m = pool.device_metrics().expect("metrics");
                // Entries accumulated this epoch before the persist.
                peak_log = peak_log.max(m.undo_entries - entries_at_last_persist);
                pool.persist().expect("persist");
                entries_at_last_persist = m.undo_entries;
                persists += 1;
            }
        }
        let m = pool.device_metrics().expect("metrics");
        let snoops = m.snoops_sent - base.snoops_sent;
        let log_bytes = m.log_bytes() - base.log_bytes();
        rows.push(vec![
            batch.to_string(),
            persists.to_string(),
            snoops.to_string(),
            format!("{:.3}", snoops as f64 / TOTAL_OPS as f64),
            peak_log.to_string(),
            format!("{:.0}", log_bytes as f64 / TOTAL_OPS as f64),
        ]);
        out.push_result(
            Json::obj()
                .field("ops_per_persist", Json::U64(batch))
                .field("persists", Json::U64(persists))
                .field("snoops_sent", Json::U64(snoops))
                .field("snoops_per_op", Json::F64(snoops as f64 / TOTAL_OPS as f64))
                .field("peak_log_entries", Json::U64(peak_log))
                .field("log_bytes_per_op", Json::F64(log_bytes as f64 / TOTAL_OPS as f64)),
        );
        last_telemetry = Some(pool.telemetry());
    }
    if let Some(t) = &last_telemetry {
        out.attach_telemetry(t);
    }
    out.table(&rows);

    out.blank();
    out.line("larger batches amortize the persist-time snoop/write-back sweep over more");
    out.line("operations but let the undo log grow (bounded by the log region) and widen");
    out.line("the window of un-persisted work a crash discards — the §3.2 trade-off.");
    out.finish();
}
