//! The golden durable-image oracle shared by `tests/lockfree_log.rs` and
//! `tests/hbm_lockfree.rs`.
//!
//! A [`Schedule`] is a seeded single-driver run: random 8-byte stores
//! over a span of vPM lines, a `persist()` every 41 ops, two device ticks
//! every 23 ops, and optionally a crash clock armed a fixed number of
//! durable-write steps in. The run always ends in power loss and a
//! reopen. Two checks apply to every run:
//!
//! * **Model.** A shadow copy of the span is snapshotted at every
//!   `persist()` call. After recovery the span must equal the snapshot of
//!   the epoch the pool committed — a prefix-closed committed state, with
//!   every later store rolled back.
//! * **Golden image.** The pool's whole durable image at the moment of
//!   power loss (header, undo-log region, data) hashes to a digest. For
//!   pinned schedules that digest is checked against a recorded value.
//!   The recorded values were produced by the retired mutex-guarded
//!   undo-bank and HBM engines and by the lock-free ones alike — the two
//!   issued the identical sequence of durable writes — so a digest match
//!   pins the lock-free engine to the exact media behaviour both engines
//!   agreed on. Recovery is a pure function of that image, so recovery
//!   reports and traces are covered too.

use libpax::{MemSpace, PaxConfig, PaxPool};
use pax_pm::{LineAddr, LINE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One seeded schedule (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub seed: u64,
    pub ops: u64,
    /// Durable-write steps after which the crash clock fires, if armed.
    pub crash_at: Option<u64>,
}

/// FNV-1a over `bytes`, folded into `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Runs `s` over a pool built from `config`, storing into the first
/// `span_lines` vPM lines, checks the recovered span against the shadow
/// model (panicking on a violation), and returns the FNV-1a digest of
/// the durable image at power loss.
pub fn run(config: PaxConfig, span_lines: u64, s: Schedule) -> u64 {
    let pool = PaxPool::create(config).unwrap();
    let base_epoch = pool.committed_epoch().unwrap();
    let vpm = pool.vpm();
    let mut rng = StdRng::seed_from_u64(s.seed);
    if let Some(steps) = s.crash_at {
        let clock = pool.crash_clock().unwrap();
        clock.arm(clock.steps_taken() + steps);
    }

    let span_bytes = (span_lines * LINE_SIZE as u64) as usize;
    let mut shadow = vec![0u8; span_bytes];
    // snapshots[k]: the span as of the k-th persist() call, which builds
    // epoch base_epoch + k.
    let mut snapshots = vec![shadow.clone()];
    for i in 0..s.ops {
        let offset = rng.gen_range(0u64..span_lines) * LINE_SIZE as u64;
        let value: u64 = rng.gen();
        if vpm.write_u64(offset, value).is_err() {
            break; // the armed clock fired
        }
        shadow[offset as usize..offset as usize + 8].copy_from_slice(&value.to_le_bytes());
        if i % 41 == 40 {
            // A persist the clock interrupts may still have committed:
            // its snapshot is a legal recovery target either way.
            snapshots.push(shadow.clone());
            if pool.persist().is_err() {
                break;
            }
        }
        if i % 23 == 22 && pool.run_device(2).is_err() {
            break;
        }
    }

    let mut pm = pool.crash().unwrap();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for line in 0..pm.layout().total_lines() {
        digest = fnv1a(digest, pm.read_line(LineAddr(line)).unwrap().as_bytes());
    }

    let pool = PaxPool::open(pm, config).unwrap();
    let committed_epoch = pool.committed_epoch().unwrap();
    let mut recovered = vec![0u8; span_bytes];
    pool.vpm().read_bytes(0, &mut recovered).unwrap();
    let k = (committed_epoch - base_epoch) as usize;
    assert!(k < snapshots.len(), "{s:?}: committed epoch {committed_epoch} was never persisted");
    assert!(
        recovered == snapshots[k],
        "{s:?}: recovered span differs from the snapshot of committed epoch {committed_epoch}"
    );
    digest
}

/// Runs every `(schedule, golden digest)` pair and reports all
/// mismatches at once.
pub fn assert_golden(config: PaxConfig, span_lines: u64, golden: &[(Schedule, u64)]) {
    let mismatches: Vec<String> = golden
        .iter()
        .filter_map(|&(s, want)| {
            let got = run(config, span_lines, s);
            (got != want).then(|| format!("{s:?}: digest {got:#018x}, golden {want:#018x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "durable image left the golden:\n{}", mismatches.join("\n"));
}
