//! Fault-injection robustness: corrupted media, torn log entries and
//! malformed pool files must never panic, and must never corrupt the
//! parts of recovery that remain valid.
//!
//! Each fault is a dimension of the checker (`tests/common/`): a schedule
//! runs to power loss, the durable image is damaged ([`Fault`]), and
//! [`common::Crashed::inject`] requires a typed error, or a recovery that
//! passes the crash-consistency oracle.

mod common;

use common::{drive, points, schedule, Fault, Faulted, Mix, Point, Step};
use libpax::{MemSpace, PaxPool, PersistencyModel};
use pax_device::{block_header_line, UndoEntry, UndoLog, BLOCK_ENTRIES};
use pax_pm::{CacheLine, LineAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Commits epoch 1 over 32 lines, then dirties them all in epoch 2 and
/// drives background work so epoch-2 undo entries and some write-backs
/// land before power is cut.
fn mid_epoch() -> Vec<Step> {
    let mut steps: Vec<Step> = (0..32).map(|l| Step::Store(0, 0, l, 1)).collect();
    steps.push(Step::Close(0));
    steps.extend((0..32).map(|l| Step::Store(0, 0, l, 2)));
    steps.extend((0..8).map(|l| Step::Read(0, 0, 32 + l)));
    steps.push(Step::Tick(4));
    steps
}

/// Runs `steps` on `point` to power loss and injects `fault`.
fn inject(point: Point, steps: &[Step], crash_at: Option<u64>, fault: &Fault) -> Faulted {
    let crashed = drive(&point.rig(), steps, crash_at).and_then(|run| run.power_loss());
    crashed
        .and_then(|c| c.inject(fault))
        .unwrap_or_else(|msg| panic!("{fault:?} after {}: {msg}", common::literal(steps)))
}

/// Random log lines overwritten with a random byte, after random
/// schedules crashed anywhere on random points: recovery never panics,
/// and whenever every live undo entry survived it passes the oracle.
#[test]
fn corrupted_log_region_never_panics() {
    let pts = points(|_| true);
    let mut rng = StdRng::seed_from_u64(0xbad);
    for _ in 0..40 {
        let p = pts[rng.gen_range(0..pts.len())];
        let n = rng.gen_range(1..60);
        let steps = schedule(&mut rng, Mix::Lines, n);
        let lines = (0..rng.gen_range(1..20usize)).map(|_| rng.gen_range(0..1_000u64)).collect();
        let fault = Fault::Log(lines, rng.gen::<u8>());
        let got = inject(p, &steps, Some(rng.gen_range(0..300)), &fault);
        assert_ne!(got, Faulted::Rejected, "{}", p.literal());
    }
}

/// Corrupting a log whose entries all belong to committed epochs never
/// changes recovery's outcome: the image is exactly the last close.
#[test]
fn stale_entry_corruption_is_harmless() {
    let pts = points(|p| p.model != PersistencyModel::Strict);
    let mut rng = StdRng::seed_from_u64(0x57a1e);
    for _ in 0..20 {
        let p = pts[rng.gen_range(0..pts.len())];
        let n = rng.gen_range(1..60);
        let mut steps = common::settle(&schedule(&mut rng, Mix::Lines, n));
        steps.extend((0..4).map(Step::Close));
        let lines = (0..rng.gen_range(1..20usize)).map(|_| rng.gen_range(0..1_000u64)).collect();
        let got = inject(p, &steps, None, &Fault::Log(lines, 0x5C));
        assert_eq!(got, Faulted::Recovered, "{}", p.literal());
    }
}

/// Recovering twice after a corrupted mid-log line is stable: same epoch,
/// same surviving entries.
#[test]
fn double_recovery_after_corruption_is_stable() {
    for line in [1, 5, 11] {
        let got = inject(Point::BASE, &mid_epoch(), None, &Fault::Log(vec![line], 0xEE));
        assert_ne!(got, Faulted::Rejected, "line {line}");
    }
}

/// A torn newest block — header durable, one pre-image line stale —
/// loses at most that entry: after random schedules crashed anywhere,
/// recovery never panics, recovers twice identically, and either passes
/// the oracle or reopens cleanly when the stale entry was live.
#[test]
fn torn_newest_block_recovers_or_reopens() {
    let pts = points(|_| true);
    let mut rng = StdRng::seed_from_u64(0x7ea5);
    for _ in 0..40 {
        let p = pts[rng.gen_range(0..pts.len())];
        let n = rng.gen_range(1..60);
        let steps = schedule(&mut rng, Mix::Lines, n);
        let fault = Fault::TearBlock(rng.gen());
        let got = inject(p, &steps, Some(rng.gen_range(0..300)), &fault);
        assert_ne!(got, Faulted::Rejected, "{}", p.literal());
    }
    for k in 0..BLOCK_ENTRIES {
        let got = inject(Point::BASE, &mid_epoch(), None, &Fault::TearBlock(k));
        assert_ne!(got, Faulted::Rejected, "pre-image {k}");
    }
}

/// A vPM line whose bytes are a valid block header is logged like any
/// other line: its pre-image lands in a pre-image slot, which recovery
/// never parses as a header. Here the forged header lists an epoch-2
/// entry for line `X` whose checksum matches the very next pre-image
/// slot, so misreading it would roll `X` back to that slot's bytes.
#[test]
fn header_shaped_vpm_line_is_never_parsed_as_a_header() {
    let (a, b, x) = (0u64, 1, 2);
    let p = CacheLine::filled(0x5A);
    let forged = block_header_line(&[UndoEntry {
        epoch: 2,
        vpm_line: LineAddr(x),
        tenant: 0,
        old: p.clone(),
    }]);
    let config = Point::BASE.config();
    let pool = PaxPool::create(config).unwrap();
    let vpm = pool.vpm();
    vpm.write_bytes(a * 64, forged.as_bytes()).unwrap();
    vpm.write_bytes(b * 64, p.as_bytes()).unwrap();
    vpm.write_u64(x * 64, 7).unwrap();
    pool.persist().unwrap();
    // Epoch 2 logs A then B into one full block (forged header, then P),
    // and cache misses drive the background pump that writes it.
    for line in [a, b, 3, 4] {
        vpm.write_u64(line * 64, 0xE2).unwrap();
    }
    for line in 100..164u64 {
        vpm.read_u64(line * 64).unwrap();
    }
    let mut pm = pool.crash().unwrap();
    let logged = UndoLog::scan(&mut pm).unwrap();
    assert!(
        logged.iter().any(|(_, e)| e.epoch == 2 && e.old == forged),
        "the forged header must sit durable in a pre-image slot"
    );
    let pool = PaxPool::open(pm, config).unwrap();
    let vpm = pool.vpm();
    assert_eq!(
        vpm.read_u64(x * 64).unwrap(),
        7,
        "line X never rolled back to the forged pre-image"
    );
    let mut line = [0u8; 64];
    vpm.read_bytes(a * 64, &mut line).unwrap();
    assert_eq!(&line[..], forged.as_bytes(), "line A rolled back to its header-shaped bytes");
    vpm.read_bytes(b * 64, &mut line).unwrap();
    assert_eq!(&line[..], p.as_bytes());
}

/// A pool file cut anywhere fails to load with a typed pool or I/O error.
#[test]
fn truncated_pool_file_is_rejected_cleanly() {
    for keep in [0usize, 3, 8, 35, 4096, 1 << 20] {
        let got = inject(Point::BASE, &mid_epoch(), None, &Fault::Truncate(keep));
        assert_eq!(got, Faulted::Rejected, "keep={keep}");
    }
}

/// A flipped bit in the header magic is detected on load.
#[test]
fn bitflip_in_header_magic_is_detected() {
    assert_eq!(inject(Point::BASE, &mid_epoch(), None, &Fault::FlipMagic), Faulted::Rejected);
}
