//! The snoop filter (the host-ownership bit on each epoch-log entry) and
//! the batched persist write-back pipeline are pure performance
//! structures: the filter may only elide snoops whose answer the device
//! already knows.
//!
//! Every matrix point runs a 16-line host cache, so schedules spill dirty
//! lines into the device and the filtered case — a persist of a line the
//! host already evicted — occurs organically. The checker (`tests/common/`)
//! then requires, for any schedule:
//!
//! * with no crash, a filtered+batched device and an always-snoop
//!   unbatched device leave **byte-identical vPM data**, and
//! * with the crash clock armed at an arbitrary durable-write step
//!   (including mid-persist), each recovers a committed snapshot.
//!
//! Pinned digests of the device trace and the filter's counters fix
//! which lines each close snoops, so a change to how ownership is
//! tracked must reproduce the filter's decisions exactly.

mod common;

use common::{
    differential, drive, fail, points, random, rigs, schedule, settle, Mix, Point, Rig, SPAN,
};
use libpax::PersistencyModel;
use pax_cache::{CacheConfig, CoherentCache};
use pax_device::{DeviceConfig, PaxDevice};
use pax_pm::{CacheLine, LineAddr, PmPool, PoolConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Two shards, filter on, write-back batches capped at `batch` lines.
fn batch_rig(batch: usize) -> Rig {
    let mut config = Point { shards: 2, ..Point::BASE }.config();
    config.device.persist_wb_batch = batch;
    Rig::custom(config, SPAN, format!("batch_rig({batch})"))
}

/// Filtered + batched vs always-snoop + unbatched, on 1, 2, 4 and 8 shards,
/// one or three cores, and every write-back batch cap from 1 to 8:
/// identical settled images.
#[test]
fn filtered_persist_is_durably_identical_to_unfiltered() {
    let mut rigs = rigs(|p| p.tenants == 1 && p.model == PersistencyModel::Epoch);
    rigs.extend((1..8).map(batch_rig));
    let mut rng = StdRng::seed_from_u64(0xf117);
    for _ in 0..6 {
        differential(&rigs, &[settle(&schedule(&mut rng, Mix::Lines, 80))]);
    }
}

/// With the crash clock armed anywhere, filtered and unfiltered devices
/// each recover exactly their last committed snapshot.
#[test]
fn crash_anywhere_recovers_the_committed_snapshot_either_way() {
    for dir in [true, false] {
        random(0xc4a5 + dir as u64, 32, &points(|p| p.dir == dir), Mix::Lines, 1..80, 3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `h` (the fold the durable-image
/// goldens use).
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// FNV-1a over the whole device trace, then the snoop filter's counters.
/// The durable-image goldens cannot see an extra or a missing snoop;
/// this digest can.
fn snoop_digest(trace: &str, counter: impl Fn(&str) -> u64) -> u64 {
    ["snoops_sent", "dir_hits", "dir_filtered_snoops", "dir_resident"]
        .iter()
        .fold(fnv(FNV_OFFSET, trace.as_bytes()), |h, name| fnv(h, &counter(name).to_le_bytes()))
}

/// One tenant under the epoch barrier with the filter on, with a trace
/// ring deep enough to hold a whole schedule's events.
fn traced_rig(cores: usize, shards: usize) -> Rig {
    let mut config = Point { cores, shards, ..Point::BASE }.config();
    config.device.trace_capacity = 1 << 14;
    Rig::custom(config, SPAN, format!("traced_rig({cores}, {shards})"))
}

/// Seeded [`Mix::Lines`] schedules (stores, reads, `Close`, `CloseAsync`,
/// polls, waits and ticks) at cores ∈ {1, 3} × shards ∈ {1, 2}: which
/// lines each close snoops, in which order, and what the filter counted
/// stay pinned.
const LINES_SNOOP_GOLDEN: [(usize, usize, u64); 4] = [
    (1, 1, 0x94b2_2bce_c4e7_8154),
    (1, 2, 0x624a_37ba_eed5_0028),
    (3, 1, 0xf5bb_06eb_201a_0caa),
    (3, 2, 0xc009_e08d_a022_42fa),
];

#[test]
fn snoop_traces_match_their_pinned_digests() {
    let mut mismatches = Vec::new();
    let (mut hits, mut filtered) = (0, 0);
    for (cores, shards, want) in LINES_SNOOP_GOLDEN {
        let rig = traced_rig(cores, shards);
        let mut rng = StdRng::seed_from_u64(0x5e0 + (cores * 10 + shards) as u64);
        let mut h = FNV_OFFSET;
        for _ in 0..3 {
            let steps = schedule(&mut rng, Mix::Lines, 120);
            let run = drive(&rig, &steps, None).unwrap_or_else(|e| fail(&rig, &steps, None, &e));
            let telemetry = run.pool.telemetry();
            let counter = |name: &str| telemetry.counter("device", name);
            hits += counter("dir_hits");
            filtered += counter("dir_filtered_snoops");
            h = fnv(h, &snoop_digest(&run.pool.trace_dump(), counter).to_le_bytes());
        }
        if h != want {
            mismatches.push(format!(
                "cores {cores}, shards {shards}: digest {h:#018x}, golden {want:#018x}"
            ));
        }
    }
    assert!(
        hits > 0 && filtered > 0,
        "both filter outcomes occur: {hits} hits, {filtered} filtered"
    );
    assert!(mismatches.is_empty(), "snoop trace left the golden:\n{}", mismatches.join("\n"));
}

/// A device driven straight through one host cache, closing epochs with
/// `persist_clwb`, `persist` and `persist_clwb` again: some lines are
/// evicted dirty before the close (filtered), some still held (snooped
/// or invalidated), some only read.
#[test]
fn clwb_snoop_trace_matches_its_pinned_digest() {
    let pool = PmPool::create(PoolConfig::small()).unwrap();
    let config = DeviceConfig::default().with_shards(2).with_trace_capacity(1 << 14);
    let mut device = PaxDevice::open(pool, config).unwrap();
    let mut cache = CoherentCache::new(CacheConfig::tiny(1 << 10, 2));
    let mut rng = StdRng::seed_from_u64(0xc1b);
    for close in 0..3 {
        for _ in 0..96 {
            let addr = LineAddr(rng.gen_range(0..64));
            if rng.gen_range(0..4u32) == 0 {
                cache.read(addr, &mut device).unwrap();
            } else {
                cache.write(addr, CacheLine::filled(rng.gen()), &mut device).unwrap();
            }
        }
        if close == 1 {
            device.persist(&mut cache).unwrap();
        } else {
            device.persist_clwb(&mut cache).unwrap();
        }
    }
    let snap = device.metric_snapshot();
    let counter = |name: &str| snap.counter(name);
    assert!(counter("dir_hits") > 0 && counter("dir_filtered_snoops") > 0, "both outcomes occur");
    let got = snoop_digest(&device.trace_dump(), counter);
    assert_eq!(got, 0xf6b0_0207_8460_2fc2, "CLWB snoop trace left the golden: digest {got:#018x}");
}
