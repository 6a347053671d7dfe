//! T-sfence: ordering stalls per operation — WAL vs PAX.
//!
//! §2: "Without nuanced, structure-specific changes to code, stalls are
//! incurred multiple times during a single logical operation like put()
//! (log …, SFENCE, write …, SFENCE, log …, SFENCE, …)". PAX eliminates
//! them: "CPU cores can read and modify cache lines without stalling for
//! cache flushes or barriers" (§3.2).
//!
//! This harness runs identical `PHashMap` inserts over each mechanism and
//! counts the ordering stalls the application threads experienced.
//!
//! Run: `cargo run --release -p pax-bench --bin persist_cost` (add
//! `--json` for machine-readable output)

use libpax::{BitmapAlloc, PHashMap, PaxConfig, PaxPool};
use pax_baselines::{Costed, RedoSpace, WalSpace};
use pax_bench::{BenchOut, Json};
use pax_cache::CacheConfig;
use pax_device::{DeviceConfig, DirectoryConfig};
use pax_exec::MachineParams;
use pax_pm::{LatencyProfile, PoolConfig, LINE_SIZE};

const OPS: u64 = 2_000;

fn pool_config() -> PoolConfig {
    PoolConfig::small().with_data_bytes(16 << 20).with_log_bytes(64 << 20)
}

fn main() {
    let mut out = BenchOut::from_args("persist_cost");
    out.config("ops", Json::U64(OPS));
    let profile = LatencyProfile::c6420();
    out.line(format!("ordering stalls for {OPS} PHashMap inserts (8 B keys/values)\n"));
    // Every mechanism counts from after the map's attach, so formatting
    // the allocator's bitmap is not charged to the inserts.

    // PMDK-style undo WAL: one tx per insert.
    let wal = WalSpace::create(pool_config()).expect("wal");
    let wal_costs = {
        let map: PHashMap<u64, u64, _> =
            PHashMap::attach(BitmapAlloc::attach(wal.clone()).expect("allocator")).expect("map");
        let base = wal.costs();
        for k in 0..OPS {
            wal.tx(|| map.insert(k, k).map(|_| ())).expect("tx insert");
        }
        wal.costs().delta_since(&base)
    };

    // Redo WAL: one tx per insert.
    let redo = RedoSpace::create(pool_config()).expect("redo");
    let redo_costs = {
        let map: PHashMap<u64, u64, _> =
            PHashMap::attach(BitmapAlloc::attach(redo.clone()).expect("allocator")).expect("map");
        let base = redo.costs();
        for k in 0..OPS {
            redo.tx(|| map.insert(k, k).map(|_| ())).expect("tx insert");
        }
        redo.costs().delta_since(&base)
    };

    // PAX: group commit — one persist() for the whole batch (§3.2), after
    // one that closes the attach.
    let pax = PaxPool::create(PaxConfig::default().with_pool(pool_config())).expect("pool");
    let map: PHashMap<u64, u64, _> =
        PHashMap::attach(BitmapAlloc::attach(pax.vpm()).expect("allocator")).expect("map");
    pax.persist().expect("persist the attach");
    let base = pax.device_metrics().expect("metrics");
    for k in 0..OPS {
        map.insert(k, k).expect("insert");
    }
    pax.persist().expect("persist");
    let now = pax.device_metrics().expect("metrics");
    let (undo_entries, writebacks, snoops, log_bytes) = (
        now.undo_entries - base.undo_entries,
        now.device_writebacks - base.device_writebacks,
        now.snoops_sent - base.snoops_sent,
        now.log_bytes() - base.log_bytes(),
    );

    let mut rows = vec![vec![
        "mechanism".to_string(),
        "stalls total".to_string(),
        "stalls/op".to_string(),
        "stall ns/op".to_string(),
        "log bytes/op".to_string(),
    ]];
    for (mechanism, label, stalls, log_bytes) in [
        ("pmdk_undo_wal", "PMDK undo WAL", wal_costs.sfences, wal_costs.log_bytes),
        ("redo_wal", "redo WAL", redo_costs.sfences, redo_costs.log_bytes),
        ("pax_group_commit", "PAX (async, group commit)", 0, log_bytes),
    ] {
        let stall_ns_per_op = stalls as f64 * profile.sfence_ns as f64 / OPS as f64;
        rows.push(vec![
            label.to_string(),
            stalls.to_string(),
            format!("{:.2}", stalls as f64 / OPS as f64),
            format!("{stall_ns_per_op:.0}"),
            format!("{:.0}", log_bytes as f64 / OPS as f64),
        ]);
        out.push_result(
            Json::obj()
                .field("mechanism", Json::str(mechanism))
                .field("stalls_total", Json::U64(stalls))
                .field("stalls_per_op", Json::F64(stalls as f64 / OPS as f64))
                .field("stall_ns_per_op", Json::F64(stall_ns_per_op))
                .field("log_bytes_per_op", Json::F64(log_bytes as f64 / OPS as f64)),
        );
    }
    out.table(&rows);

    out.blank();
    out.line(format!(
        "PAX undo-logged {undo_entries} lines and wrote back {writebacks} — all off the \
         application's"
    ));
    out.line(format!(
        "critical path; the epoch's single persist() sent {snoops} snoops and committed once."
    ));

    // Snoop-filter pair: the same spill epoch (working set 8x the host
    // cache) persisted with and without the ownership directory, priced
    // by the machine model's persist formula — every elided snoop saves
    // a host round-trip, every coalesced batch one PM write service.
    let spill = |dir: DirectoryConfig| {
        let pool = PaxPool::create(
            PaxConfig::default()
                .with_pool(pool_config())
                .with_cache(CacheConfig::tiny(16 * LINE_SIZE, 2))
                .with_device(DeviceConfig::default().with_directory(dir)),
        )
        .expect("pool");
        {
            use libpax::MemSpace;
            let vpm = pool.vpm();
            for i in 0..128u64 {
                vpm.write_u64(i * LINE_SIZE as u64, i).expect("write");
            }
        }
        pool.persist().expect("persist");
        pool.device_metrics().expect("metrics")
    };
    let params = MachineParams::paper();
    out.blank();
    out.line("epoch persist cost, 128-line spill epoch over a 16-line host cache:");
    for (mechanism, dir) in [
        ("pax_persist_unfiltered", DirectoryConfig::disabled()),
        ("pax_persist_filtered", DirectoryConfig::enabled()),
    ] {
        let m = spill(dir);
        let epoch_ns = params.persist_epoch_ns(m.snoops_sent, m.device_writebacks);
        out.line(format!(
            "  {mechanism:>23}: {} snoops ({} filtered), {} write-backs in {} batches \
             -> {epoch_ns} ns modeled",
            m.snoops_sent, m.dir_filtered_snoops, m.device_writebacks, m.wb_batches
        ));
        out.push_result(
            Json::obj()
                .field("mechanism", Json::str(mechanism))
                .field("snoops_sent", Json::U64(m.snoops_sent))
                .field("dir_filtered_snoops", Json::U64(m.dir_filtered_snoops))
                .field("writebacks", Json::U64(m.device_writebacks))
                .field("wb_batches", Json::U64(m.wb_batches))
                .field("persist_epoch_ns", Json::U64(epoch_ns)),
        );
    }

    // Large-epoch flush throughput: draining the undo log's pending queue
    // is O(n) (a VecDeque pop per entry), so one big epoch must flush in
    // linear time. The old `Vec::remove(0)` drain was quadratic and blows
    // this bound by orders of magnitude at this epoch size.
    const LARGE: u64 = 20_000;
    let big = PaxPool::create(PaxConfig::default().with_pool(pool_config())).expect("pool");
    {
        use libpax::MemSpace;
        let vpm = big.vpm();
        for i in 0..LARGE {
            vpm.write_u64(i * 64, i).expect("write");
        }
    }
    let start = std::time::Instant::now();
    big.persist().expect("large persist");
    let elapsed = start.elapsed();
    let ns_per_entry = elapsed.as_nanos() as f64 / LARGE as f64;
    assert!(
        ns_per_entry < 10_000.0,
        "large-epoch flush is not linear: {ns_per_entry:.0} host-ns per entry"
    );
    out.blank();
    out.line(format!(
        "large epoch: flushed {LARGE} undo entries in {:.1} ms ({ns_per_entry:.0} host-ns/entry)",
        elapsed.as_secs_f64() * 1e3
    ));
    out.push_result(
        Json::obj()
            .field("mechanism", Json::str("pax_large_epoch_flush"))
            .field("flush_entries", Json::U64(LARGE))
            .field("flush_host_ns_per_entry", Json::F64(ns_per_entry)),
    );
    out.finish();
}
