//! A durable key-value store over a pool file — the paper's motivating
//! application class (§1: "applications can interact with vast amounts of
//! data in granular patterns" without kernel crossings or serialization).
//!
//! ```text
//! cargo run --example kvstore
//! ```
//!
//! Runs three "sessions" against the same pool file: populate, update,
//! and audit. Between sessions the pool is saved to disk and fully
//! reopened — the persistent structure carries over with no
//! serialization/deserialization step, only `map_pool`.

use libpax::{BitmapAlloc, HwSnapshotter, PHashMap, PVec, PaxConfig, PaxPool, Persistent, VPm};
use pax_pm::PoolConfig;

/// Fixed-size keys: a 16-byte user id.
type UserId = [u8; 16];

fn user(n: u64) -> UserId {
    let mut id = [b'.'; 16];
    id[..5].copy_from_slice(b"user-");
    id[5..13].copy_from_slice(&n.to_le_bytes());
    id
}

fn config() -> PaxConfig {
    PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(16 << 20).with_log_bytes(64 << 20))
}

fn main() -> libpax::Result<()> {
    let dir = std::env::temp_dir().join("pax-kvstore");
    std::fs::create_dir_all(&dir).map_err(pax_pm::PmError::from)?;
    let path = dir.join("accounts.pool");
    let _ = std::fs::remove_file(&path);

    // ---- Session 1: create accounts. ----
    {
        let snap = HwSnapshotter::map_pool(&path, config())?;
        let balances: Persistent<PHashMap<UserId, u64>> = Persistent::new(&snap)?;
        for n in 0..1_000 {
            balances.insert(user(n), 100)?;
        }
        snap.persist()?;
        snap.pool().save_file(&path)?;
        println!("session 1: created {} accounts", balances.len()?);
    }

    // ---- Session 2: transfers, with a crash mid-session. ----
    {
        let snap = HwSnapshotter::map_pool(&path, config())?;
        let balances: Persistent<PHashMap<UserId, u64>> = Persistent::new(&snap)?;

        // A batch of transfers, committed as one epoch.
        for n in 0..500u64 {
            let from = balances.get(user(n))?.expect("exists");
            let to = balances.get(user(n + 500))?.expect("exists");
            balances.insert(user(n), from - 10)?;
            balances.insert(user(n + 500), to + 10)?;
        }
        snap.persist()?;
        println!("session 2: committed 500 transfers");

        // A second batch that DIES half-way through a transfer: the money
        // has left one account but not arrived in the other.
        let from = balances.get(user(0))?.expect("exists");
        balances.insert(user(0), from - 50)?; // debit…
                                              // -- crash before credit --
        let pm = snap.pool().crash()?;
        println!("session 2: power failed mid-transfer!");
        pm.save(&path)?;
    }

    // ---- Session 3: audit after recovery. ----
    {
        let snap = HwSnapshotter::map_pool(&path, config())?;
        let balances: Persistent<PHashMap<UserId, u64>> = Persistent::new(&snap)?;
        let total: u64 = balances.entries()?.iter().map(|(_, v)| *v).sum();
        println!(
            "session 3: {} accounts, total balance {total} (expected {})",
            balances.len()?,
            1_000 * 100
        );
        assert_eq!(total, 100_000, "no money created or destroyed by the crash");
        assert_eq!(balances.get(user(0))?, Some(90), "half-transfer rolled back");

        // Keep an audit trail in a second structure type, same pool API.
        let audit_pool = HwSnapshotter::create(config())?;
        let log: Persistent<PVec<u64>> = Persistent::new(&audit_pool)?;
        log.push(total)?;
        audit_pool.persist()?;
        println!("audit recorded; invariant held.");
    }

    // ---- Session 4: the same store over the scalable allocator. ----
    // The structures are allocator-generic: the identical PHashMap code
    // runs over the llfree-style bitmap allocator, whose
    // metadata lives inside the pool's vPM so undo logging covers it
    // (§3.4). `attach` doubles as recovery: it scans the bitmap and
    // rebuilds the volatile per-core index.
    {
        let pool = PaxPool::create(config())?;
        let alloc = BitmapAlloc::attach(pool.vpm())?;
        let balances: Persistent<PHashMap<UserId, u64, VPm, BitmapAlloc<VPm>>> =
            Persistent::new_in(alloc.clone())?;
        for n in 0..1_000 {
            balances.insert(user(n), 100)?;
        }
        pool.persist()?;
        let snap = alloc.metrics_snapshot();
        println!(
            "session 4 (bitmap allocator): {} accounts over the bitmap allocator",
            balances.len()?
        );
        println!(
            "  telemetry: {} live frames, {} fast hits, {} tree steals, \
             {} frames scanned, fragmentation {}‰",
            alloc.live_frames(),
            snap.counter("alloc_fast_hits"),
            snap.counter("alloc_tree_steals"),
            snap.counter("alloc_scan_frames"),
            alloc.fragmentation_permille(),
        );
        println!(
            "  attach-time recovery scan covered {} frames",
            alloc.recovery_stats().scan_steps
        );
    }

    std::fs::remove_file(&path).map_err(pax_pm::PmError::from)?;
    Ok(())
}
