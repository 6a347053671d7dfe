//! Byte-level oracle tests: `VPm` must behave exactly like a flat byte
//! array for arbitrary access patterns — every line split, offset, and
//! partial-line read-modify-write in the interposition path is checked
//! against a `Vec<u8>` model, including across persist/crash/recover.
//!
//! The crash checker's steps store and read whole u64s at the start of a
//! line; these seeded cases reach the unaligned, line-crossing and
//! partial-line accesses it does not.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use libpax::{MemSpace, PaxConfig, PaxPool, VPm};
use pax_pm::PoolConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SPACE_BYTES: usize = 16 << 10;
const CASES: u64 = 48;

fn config() -> PaxConfig {
    PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(SPACE_BYTES).with_log_bytes(8 << 20))
}

enum Access {
    Write { addr: u64, data: Vec<u8> },
    Read { addr: u64, len: usize },
}

/// A write of 1–199 random bytes or a read of 1–199 bytes, at a random
/// offset clamped so the access stays inside the space.
fn access(rng: &mut StdRng) -> Access {
    let max = SPACE_BYTES as u64;
    let a = rng.gen_range(0..max);
    let len = rng.gen_range(1usize..200);
    if rng.gen() {
        let data = (0..len).map(|_| rng.gen()).collect();
        Access::Write { addr: a.min(max - len as u64), data }
    } else {
        Access::Read { addr: a.min(max - len as u64), len }
    }
}

fn accesses(rng: &mut StdRng, count: std::ops::Range<usize>) -> Vec<Access> {
    let n = rng.gen_range(count);
    (0..n).map(|_| access(rng)).collect()
}

/// Runs `body` on `CASES` cases, case `i` drawing from
/// `StdRng::seed_from_u64(seed + i)`; a failure names the seed and case
/// index that rebuild it.
fn for_cases(seed: u64, body: impl Fn(&mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed + case);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| body(&mut rng))) {
            eprintln!("failing case: seed {seed:#x}, case {case}");
            resume_unwind(panic);
        }
    }
}

/// Applies `a` through `core`'s mapping and to the model; a read must
/// see exactly what the model holds.
fn apply(vpm: &VPm, core: usize, model: &mut [u8], a: &Access) {
    match a {
        Access::Write { addr, data } => {
            vpm.write_bytes(*addr, data).unwrap();
            model[*addr as usize..][..data.len()].copy_from_slice(data);
        }
        Access::Read { addr, len } => {
            let mut buf = vec![0u8; *len];
            vpm.read_bytes(*addr, &mut buf).unwrap();
            assert_eq!(
                buf,
                model[*addr as usize..][..*len],
                "core {core} read at {addr} len {len}"
            );
        }
    }
}

/// Every read observes exactly what the byte-array model predicts,
/// regardless of how accesses split across cache lines and what the
/// cache/device/HBM/log machinery does underneath.
#[test]
fn vpm_matches_flat_byte_array() {
    for_cases(0x5ace, |rng| {
        let pool = PaxPool::create(config()).unwrap();
        let mut model = vec![0u8; SPACE_BYTES];
        for a in &accesses(rng, 1..120) {
            apply(&pool.vpm(), 0, &mut model, a);
        }
    });
}

/// After persist + crash + recover, every byte of vPM equals the
/// model at persist time.
#[test]
fn recovered_bytes_match_model_at_persist() {
    for_cases(0x7ec0, |rng| {
        let before = accesses(rng, 1..60);
        let after = accesses(rng, 0..40);
        let pool = PaxPool::create(config()).unwrap();
        let vpm = pool.vpm();
        let mut model = vec![0u8; SPACE_BYTES];
        for a in &before {
            apply(&vpm, 0, &mut model, a);
        }
        pool.persist().unwrap();
        // Post-persist garbage that recovery must erase:
        for a in &after {
            if let Access::Write { addr, data } = a {
                vpm.write_bytes(*addr, data).unwrap();
            }
        }

        let pm = pool.crash().unwrap();
        let pool = PaxPool::open(pm, config()).unwrap();
        let mut recovered = vec![0u8; SPACE_BYTES];
        pool.vpm().read_bytes(0, &mut recovered).unwrap();
        let first_diff = recovered.iter().zip(&model).position(|(a, b)| a != b);
        assert_eq!(first_diff, None, "first recovered byte that differs from the model at persist");
    });
}

/// The multi-core host is byte-for-byte coherent: interleaved accesses
/// from different cores observe one consistent flat space.
#[test]
fn multicore_vpm_matches_flat_byte_array() {
    for_cases(0xc0e5, |rng| {
        let pool = PaxPool::create(config().with_cores(3)).unwrap();
        let vpms: Vec<_> = (0..3).map(|c| pool.vpm_for_core(c)).collect();
        let mut model = vec![0u8; SPACE_BYTES];
        for a in &accesses(rng, 1..80) {
            let core = rng.gen_range(0usize..3);
            apply(&vpms[core], core, &mut model, a);
        }
    });
}
