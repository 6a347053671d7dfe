//! Cross-layer telemetry conservation tests.
//!
//! Every layer of the stack counts into its own `MetricSet`;
//! `PaxPool::telemetry()` collects them into one snapshot. Because each
//! coherence message is counted once at the cache and once at the device
//! (and each durable write once at the media), the per-component numbers
//! must satisfy conservation laws — any double count or missed count
//! breaks an equality here.

use libpax::{MemSpace, PaxConfig, PaxPool};
use pax_pm::{PoolConfig, LINE_SIZE};
use pax_telemetry::{TelemetrySnapshot, TraceBuf};

fn config() -> PaxConfig {
    PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(8 << 20).with_log_bytes(64 << 20))
}

/// A deterministic mixed workload: fresh writes, re-reads, re-writes,
/// across two persisted epochs.
fn run_workload(pool: &PaxPool) {
    let vpm = pool.vpm();
    for i in 0..64u64 {
        vpm.write_u64(i * 64, i).expect("write");
    }
    for i in 0..64u64 {
        assert_eq!(vpm.read_u64(i * 64).expect("read"), i);
    }
    pool.persist().expect("persist epoch 1");
    for i in 0..32u64 {
        vpm.write_u64(i * 64, i + 100).expect("rewrite");
    }
    for i in 64..96u64 {
        vpm.write_u64(i * 64, i).expect("write");
    }
    pool.persist().expect("persist epoch 2");
}

fn assert_conservation(t: &TelemetrySnapshot) {
    let rd_shared = t.counter("device", "rd_shared");
    let rd_own = t.counter("device", "rd_own");

    // Every undo entry covers a line the host first acquired exclusively.
    assert!(
        t.counter("device", "undo_entries") <= rd_own,
        "undo_entries {} > rd_own {rd_own}",
        t.counter("device", "undo_entries"),
    );

    // The cache's exclusive requests are exactly the device's RdOwns, and
    // its shared fills exactly the RdShareds — nothing is counted twice
    // and nothing bypasses the home agent.
    assert_eq!(t.counter("host_cache", "write_upgrades"), rd_own);
    assert_eq!(t.counter("host_cache", "read_misses"), rd_shared);

    // Every read the device serves is resolved from the HBM buffer or
    // from PM — no third source, no unserved request.
    assert_eq!(
        t.counter("device", "hbm_read_hits") + t.counter("device", "pm_reads"),
        rd_shared + rd_own,
        "HBM hits + PM reads must account for every served read"
    );

    // The synthesized link view: every request earns a response.
    let msgs = rd_shared
        + rd_own
        + t.counter("device", "clean_evicts")
        + t.counter("device", "dirty_evicts")
        + t.counter("device", "snoops_sent");
    assert_eq!(t.counter("cxl", "messages"), 2 * msgs);
    // A line of payload crosses on every read response, dirty-evict
    // payload and snoop data return.
    let payloads = rd_shared
        + rd_own
        + t.counter("device", "dirty_evicts")
        + t.counter("device", "snoop_data_returned");
    assert_eq!(t.counter("cxl", "data_bytes"), payloads * LINE_SIZE as u64);
}

#[test]
fn conservation_invariants_hold_on_a_deterministic_workload() {
    let pool = PaxPool::create(config()).expect("pool");
    run_workload(&pool);
    let t = pool.telemetry();

    // Every layer reports, in stack order.
    let names: Vec<&str> = t.components.iter().map(|c| c.component.as_str()).collect();
    assert_eq!(names, vec!["host_cache", "core_complex", "cxl", "device", "media"]);
    assert_conservation(&t);

    // The workload actually exercised the counters.
    assert!(t.counter("device", "rd_own") >= 96);
    assert!(t.counter("device", "persists") == 2);
    assert!(t.counter("media", "line_writes") > 0);
}

#[test]
fn conservation_invariants_hold_summed_across_shards() {
    // The sharded device keeps one MetricSet per bank;
    // `PaxPool::telemetry()` must merge them so the cross-layer
    // conservation laws keep holding on the summed counters, with the
    // shard count surfaced as its own dimension.
    let cfg = config().with_device(pax_device::DeviceConfig::default().with_shards(4));
    let pool = PaxPool::create(cfg).expect("pool");
    run_workload(&pool);
    let t = pool.telemetry();

    assert_eq!(t.counter("device", "shards"), 4);
    assert_conservation(&t);

    // Same workload as the unsharded test: the summed traffic counters
    // must not change with the bank count.
    assert!(t.counter("device", "rd_own") >= 96);
    assert_eq!(t.counter("device", "persists"), 2);
    let unsharded = {
        let pool = PaxPool::create(config()).expect("pool");
        run_workload(&pool);
        pool.telemetry()
    };
    for name in ["rd_own", "rd_shared", "undo_entries", "persists"] {
        assert_eq!(
            t.counter("device", name),
            unsharded.counter("device", name),
            "summed {name} must match the 1-shard run"
        );
    }
}

/// The undo-log block counters and the entries-per-block histogram merge
/// across lanes and conserve under the `shard{s}/` and `tenant{t}/`
/// labels, and account for every log line the media wrote.
#[test]
fn log_block_telemetry_conserves_across_lanes_and_labels() {
    let cfg =
        config().with_tenants(2).with_device(pax_device::DeviceConfig::default().with_shards(2));
    let pool = PaxPool::create(cfg).expect("pool");
    for t in 0..2 {
        let tenant = pool.attach(t).expect("tenant");
        let vpm = tenant.vpm();
        for i in 0..40u64 {
            vpm.write_u64(i * 64, i).expect("write");
        }
        tenant.persist().expect("persist");
    }
    let t = pool.telemetry();
    let device = t.component("device").expect("device");
    let blocks = device.counter("log_blocks");
    let lines = device.counter("log_lines_written");
    let hist = device.histogram("log_block_entries").expect("histogram");
    // Every entry was drained once, and each block drain wrote one header.
    assert_eq!(lines, device.counter("undo_entries") + blocks);
    assert_eq!(hist.count, blocks);
    assert!((1..=pax_device::BLOCK_ENTRIES).contains(&hist.quantile(0.5)));
    assert_eq!(hist.max, pax_device::BLOCK_ENTRIES, "40 stores per tenant fill whole blocks");
    for dim in ["shard", "tenant"] {
        let sum = |name: &str| -> u64 {
            (0..2).map(|i| device.counter(&format!("{dim}{i}/{name}"))).sum()
        };
        assert_eq!(sum("log_blocks"), blocks, "{dim} labels conserve log_blocks");
        assert_eq!(sum("log_lines_written"), lines, "{dim} labels conserve log_lines_written");
        let count: u64 = (0..2)
            .map(|i| {
                device.histogram(&format!("{dim}{i}/log_block_entries")).map_or(0, |h| h.count)
            })
            .sum();
        assert_eq!(count, hist.count, "{dim} labels conserve the histogram");
    }
}

#[test]
fn telemetry_diff_isolates_an_epoch_and_preserves_conservation() {
    let pool = PaxPool::create(config()).expect("pool");
    run_workload(&pool);
    let before = pool.telemetry();

    let vpm = pool.vpm();
    for i in 0..16u64 {
        vpm.write_u64((200 + i) * 64, i).expect("write");
    }
    pool.persist().expect("persist");
    let delta = pool.telemetry().diff(&before);

    assert_eq!(delta.counter("device", "persists"), 1);
    assert_eq!(delta.counter("device", "undo_entries"), 16);
    // Conservation laws are linear, so they hold on intervals too.
    assert_conservation(&delta);
}

#[test]
fn telemetry_and_trace_survive_a_crash() {
    let pool = PaxPool::create(config()).expect("pool");
    run_workload(&pool);
    let vpm = pool.vpm();
    for i in 0..8u64 {
        vpm.write_u64(i * 64, 999).expect("write");
    }
    let live = pool.telemetry();

    let _pm = pool.crash().expect("crash");

    // The post-crash snapshot still carries the device-side components
    // with their final counts (the host cache died with power, but its
    // registry is still readable).
    let post = pool.telemetry();
    for name in ["host_cache", "cxl", "device", "media"] {
        assert!(post.component(name).is_some(), "missing {name} after crash");
    }
    assert_eq!(post.counter("device", "undo_entries"), live.counter("device", "undo_entries"));
    assert!(post.counter("media", "crashes") >= 1);

    // The trace dump is parseable and ends with the crash event.
    let dump = pool.trace_dump();
    let records = TraceBuf::parse_json_lines(&dump).expect("parse dump");
    assert!(!records.is_empty());
    let last = records.last().unwrap();
    assert!(
        matches!(last.event, pax_telemetry::TraceEvent::Crash { .. }),
        "dump must end with the crash: {last:?}"
    );
}

#[test]
fn telemetry_json_renders_every_component() {
    let pool = PaxPool::create(config()).expect("pool");
    run_workload(&pool);
    let rendered = pool.telemetry().to_json().render();
    for key in ["\"host_cache\"", "\"cxl\"", "\"device\"", "\"media\"", "\"undo_entries\""] {
        assert!(rendered.contains(key), "JSON missing {key}: {rendered}");
    }
}
