//! The ownership directory (snoop filter) and the batched persist
//! write-back pipeline are pure performance structures: the directory
//! may only elide snoops whose answer the device already knows.
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

mod common;

use common::{differential, points, random, rigs, schedule, settle, Alloc, Mix, Point, Rig, SPAN};
use libpax::PersistencyModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two shards, filter on, write-back batches capped at `batch` lines.
fn batch_rig(batch: usize) -> Rig {
    let mut config = Point { shards: 2, ..Point::BASE }.config();
    config.device.persist_wb_batch = batch;
    Rig::custom(config, SPAN, format!("batch_rig({batch})"))
}

/// Filtered + batched vs always-snoop + unbatched, on 1, 2 and 8 shards,
/// one or three cores, and every write-back batch cap from 1 to 8:
/// identical settled images.
#[test]
fn filtered_persist_is_durably_identical_to_unfiltered() {
    let mut rigs =
        rigs(|p| p.tenants == 1 && p.model == PersistencyModel::Epoch && p.alloc == Alloc::Heap);
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
