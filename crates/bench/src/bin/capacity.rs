//! T-capacity: no working-set limits and single-copy PM use.
//!
//! §3.3: "if the device is overwhelmed with modified cache lines that are
//! part of the current epoch, it can still evict them and write them back
//! once they are logged" — unlike HTM-style designs whose epochs die when
//! a buffer fills. And §1: snapshotting costs one copy of the structure,
//! not the ≥2× of physical-snapshot systems [21, 22, 32].
//!
//! This harness drives epochs whose write sets are multiples of the HBM
//! buffer capacity and shows every epoch still commits, plus the PM
//! capacity a copy-based snapshotter would have needed.
//!
//! A `host_memory` series then checks the simulator's side of "never
//! capacity-limited": pools of 64 MiB, 256 MiB and 1 GiB vPM with a
//! 4 MiB log, and one of 64 MiB vPM with a 64 MiB log, record how far
//! this process's `VmRSS` grew at `PaxPool::create`, again after storing
//! to 4096 lines spread over the data region and persisting, and once
//! more after enough 64-store epochs over those lines to cycle the log
//! twice. The media is lazily zeroed and the device's volatile log ring
//! is built as appends reach it, so the growth follows the lines
//! touched, not the capacity of either region; and the log rewinds to
//! its first block after each commit that leaves it empty, so cycling it
//! touches no more log than the deepest epoch (0 where `/proc` is
//! absent). Those four points close every epoch with `persist()`; two
//! more 64 MiB / 4 MiB points close them with `persist_async()` +
//! `persist_wait()`, and with `persist()` under
//! `BufferedEpoch { k: 2 }`, whose commits mostly land while the next
//! epoch is already appending.
//!
//! Run: `cargo run --release -p pax-bench --bin capacity` (add `--json`
//! for machine-readable output)

use std::process::Command;

use libpax::{MemSpace, PaxConfig, PaxPool, PersistencyModel};
use pax_bench::{arg_value, rss_kib, BenchOut, Json};
use pax_cache::CacheConfig;
use pax_device::{DeviceConfig, EvictionPolicy, HbmConfig, BLOCK_ENTRIES, BLOCK_LINES};
use pax_pm::{PoolConfig, LINE_SIZE};

const HBM_LINES: usize = 64;

fn main() {
    if let Some(point) = arg_value(PROBE_FLAG) {
        let (mib, close) = point.split_once(':').expect("<vPM MiB>x<log MiB>:<close>");
        let (data, log) = mib.split_once('x').expect("<vPM MiB>x<log MiB>");
        probe_host_memory(data.parse().expect("vPM MiB"), log.parse().expect("log MiB"), close);
        return;
    }
    let mut out = BenchOut::from_args("capacity");
    out.config("hbm_lines", Json::U64(HBM_LINES as u64));
    out.line(format!(
        "epochs with write sets up to 32× the device HBM buffer ({HBM_LINES} lines)\n"
    ));

    let mut rows = vec![vec![
        "write set [lines]".to_string(),
        "× HBM".to_string(),
        "epoch committed".to_string(),
        "proactive writebacks".to_string(),
        "eviction stalls".to_string(),
        "PM copies (PAX)".to_string(),
        "PM copies (snapshot-based)".to_string(),
    ]];

    for factor in [1usize, 4, 8, 16, 32] {
        let lines = HBM_LINES * factor;
        let pool = PaxPool::create(
            PaxConfig::default()
                .with_pool(
                    PoolConfig::small()
                        .with_data_bytes(lines * LINE_SIZE * 2)
                        .with_log_bytes(lines * 128 * 2),
                )
                .with_device(DeviceConfig::default().with_hbm(HbmConfig {
                    capacity_bytes: HBM_LINES * LINE_SIZE,
                    ways: 4,
                    policy: EvictionPolicy::PreferDurable,
                }))
                // Host cache smaller than the write set so lines actually
                // flow to the device mid-epoch.
                .with_cache(CacheConfig::tiny(16 * LINE_SIZE, 4)),
        )
        .expect("pool");

        let vpm = pool.vpm();
        for i in 0..lines as u64 {
            vpm.write_u64(i * LINE_SIZE as u64, i).expect("write");
        }
        let epoch = pool.persist().expect("persist never fails on capacity");
        let m = pool.device_metrics().expect("metrics");

        rows.push(vec![
            lines.to_string(),
            format!("{factor}×"),
            format!("yes (epoch {epoch})"),
            m.background_writebacks.to_string(),
            m.forced_log_flushes.to_string(),
            "1".to_string(),
            "2".to_string(),
        ]);
        out.push_result(
            Json::obj()
                .field("write_set_lines", Json::U64(lines as u64))
                .field("hbm_factor", Json::U64(factor as u64))
                .field("epoch_committed", Json::Bool(true))
                .field("committed_epoch", Json::U64(epoch))
                .field("background_writebacks", Json::U64(m.background_writebacks))
                .field("eviction_stalls", Json::U64(m.forced_log_flushes))
                .field("pm_copies_pax", Json::U64(1))
                .field("pm_copies_snapshot", Json::U64(2)),
        );
    }
    out.table(&rows);

    out.blank();
    out.line("every epoch commits regardless of write-set size: logged-durable lines are");
    out.line("evicted from HBM mid-epoch and written back early (§3.3). Kamino-Tx/Pronto-");
    out.line("style physical snapshots would hold a second full copy on PM (2× capacity).");

    host_memory(&mut out);
    out.finish();
}

/// Lines stored to (one per equal slice of the data region) before the
/// second RSS reading.
const TOUCHED_LINES: u64 = 4096;

/// Stores per epoch of the cycling step before the third RSS reading.
const CYCLE_EPOCH_STORES: u64 = 64;

/// `host_memory` points, `(vPM MiB, log MiB, close)`: the vPM size
/// varies under a 4 MiB log, then the log size under 64 MiB of vPM, all
/// closing epochs with a synchronous `persist()` (`sync`); then the
/// 64 MiB / 4 MiB pool closes them non-blocking (`async`: `persist_async`
/// then `persist_wait`) and buffered (`buffered2`: `persist()` under
/// `BufferedEpoch { k: 2 }`).
const HOST_MEMORY_POOLS: [(u64, u64, &str); 6] = [
    (64, 4, "sync"),
    (256, 4, "sync"),
    (1024, 4, "sync"),
    (64, 64, "sync"),
    (64, 4, "async"),
    (64, 4, "buffered2"),
];

/// Hidden flag: measure one point (`<vPM MiB>x<log MiB>:<close>`) in
/// this process and print the three RSS growths (KiB) on one line.
const PROBE_FLAG: &str = "--host-memory-probe";

/// The `host_memory` series: host RSS growth per pool size. Each size is
/// measured in a child process of its own, so no pool reuses memory an
/// earlier one freed.
fn host_memory(out: &mut BenchOut) {
    out.blank();
    out.line(format!(
        "host memory (VmRSS growth) per pool; \
         touched = {TOUCHED_LINES} lines stored and persisted; cycling = \
         {CYCLE_EPOCH_STORES}-store epochs until the log wrapped twice\n"
    ));
    let mut rows = vec![vec![
        "vPM data [MiB]".to_string(),
        "log [MiB]".to_string(),
        "close".to_string(),
        "after create [KiB]".to_string(),
        "after touch [KiB]".to_string(),
        "after cycling [KiB]".to_string(),
    ]];
    let exe = std::env::current_exe().expect("own executable");
    for (data_mib, log_mib, close) in HOST_MEMORY_POOLS {
        let child = Command::new(&exe)
            .args([PROBE_FLAG, &format!("{data_mib}x{log_mib}:{close}")])
            .output()
            .expect("host memory probe");
        assert!(child.status.success(), "host memory probe failed: {child:?}");
        let text = String::from_utf8(child.stdout).expect("probe output");
        let kib: Vec<u64> =
            text.split_whitespace().map(|v| v.parse().expect("probe reading")).collect();
        let [created, touched, cycled] = kib[..] else { panic!("probe printed {text:?}") };

        rows.push(vec![
            data_mib.to_string(),
            log_mib.to_string(),
            close.to_string(),
            created.to_string(),
            touched.to_string(),
            cycled.to_string(),
        ]);
        out.push_result(
            Json::obj()
                .field("series", Json::str("host_memory"))
                .field("data_mib", Json::U64(data_mib))
                .field("log_mib", Json::U64(log_mib))
                .field("close", Json::str(close))
                .field("touched_lines", Json::U64(TOUCHED_LINES))
                .field("rss_create_kib", Json::U64(created))
                .field("rss_touched_kib", Json::U64(touched))
                .field("rss_cycled_kib", Json::U64(cycled)),
        );
    }
    out.table(&rows);
}

/// One `host_memory` point: a pool of `data_mib` MiB vPM and a
/// `log_mib` MiB log whose epochs end the `close` way (see
/// [`HOST_MEMORY_POOLS`]); prints this process's RSS growth after
/// `PaxPool::create`, after storing to [`TOUCHED_LINES`] lines and
/// closing the epoch, and after [`CYCLE_EPOCH_STORES`]-store epochs over
/// the first of those lines whose entries add up to twice the log's
/// capacity, each reading taken once every close has committed.
fn probe_host_memory(data_mib: u64, log_mib: u64, close: &str) {
    let before = rss_kib();
    let persistency = match close {
        "buffered2" => PersistencyModel::BufferedEpoch { k: 2 },
        _ => PersistencyModel::Epoch,
    };
    let pool = PaxPool::create(
        PaxConfig::default()
            .with_pool(
                PoolConfig::small()
                    .with_data_bytes((data_mib << 20) as usize)
                    .with_log_bytes((log_mib << 20) as usize),
            )
            .with_persistency(persistency),
    )
    .expect("pool");
    let end_epoch = || {
        match close {
            "async" => pool.persist_async().map(drop).and_then(|()| pool.persist_wait()),
            _ => pool.persist().map(drop),
        }
        .expect("close")
    };
    let created = rss_kib().saturating_sub(before);
    let stride = pool.vpm_bytes() / LINE_SIZE as u64 / TOUCHED_LINES;
    let vpm = pool.vpm();
    for i in 0..TOUCHED_LINES {
        vpm.write_u64(i * stride * LINE_SIZE as u64, i + 1).expect("write");
    }
    end_epoch();
    pool.persist_wait().expect("wait");
    let touched = rss_kib().saturating_sub(before);
    let log_entries = (log_mib << 20) / LINE_SIZE as u64 / BLOCK_LINES * BLOCK_ENTRIES;
    for _ in 0..2 * log_entries.div_ceil(CYCLE_EPOCH_STORES) {
        for i in 0..CYCLE_EPOCH_STORES {
            vpm.write_u64(i * stride * LINE_SIZE as u64, i + 2).expect("write");
        }
        end_epoch();
    }
    pool.persist_wait().expect("wait");
    let cycled = rss_kib().saturating_sub(before);
    println!("{created} {touched} {cycled}");
}
