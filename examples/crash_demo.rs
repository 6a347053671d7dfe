//! Crash anatomy: what each mechanism leaves behind when power fails at
//! the worst possible moment (the §2 motivating scenario).
//!
//! ```text
//! cargo run --example crash_demo
//! ```
//!
//! A "put" into a hash table mutates several locations: the node
//! allocation, the key/value bytes, the bucket pointer, and the element
//! count. This demo interrupts that multi-location operation under
//! (a) direct PM, (b) PMDK-style WAL, and (c) PAX — then prints what a
//! restarted process observes.

use libpax::{BitmapAlloc, MemSpace, PHashMap, PaxConfig, PaxPool};
use pax_baselines::{Costed, WalSpace};
use pax_pm::PoolConfig;

fn pool_config() -> PoolConfig {
    PoolConfig::small().with_data_bytes(8 << 20).with_log_bytes(32 << 20)
}

fn main() -> libpax::Result<()> {
    println!("== (a) direct PM: the tear is permanent ==");
    {
        // Hand-rolled 3-field record so the tear is visible byte-by-byte.
        let direct = pax_baselines::DirectPmSpace::new(1 << 20);
        direct.write_u64(0, 0xAAAA)?; // field 1: value
        direct.write_u64(64, 0xBBBB)?; // field 2: index pointer
                                       // power fails before field 3 (the "record valid" flag)
        direct.crash();
        println!(
            "  after reboot: value={:#x} index={:#x} valid={:#x}  ← inconsistent forever",
            direct.read_u64(0)?,
            direct.read_u64(64)?,
            direct.read_u64(128)?
        );
    }

    println!("== (b) PMDK-style WAL: safe, but every store stalled ==");
    {
        let wal = WalSpace::create(pool_config())?;
        let map: PHashMap<u64, u64, _> = PHashMap::attach(BitmapAlloc::attach(wal.clone())?)?;
        wal.tx(|| map.insert(1, 100).map(|_| ()))?;
        // Crash mid-transaction:
        wal.begin_tx()?;
        map.insert(2, 200)?;
        let stalls = wal.costs().sfences;
        let pm = wal.crash()?;
        let wal = WalSpace::open(pm)?;
        let map: PHashMap<u64, u64, _> = PHashMap::attach(BitmapAlloc::attach(wal)?)?;
        println!(
            "  after reboot: key1={:?} key2={:?}; cost: {stalls} SFENCE stalls this session",
            map.get(1)?,
            map.get(2)?,
        );
    }

    println!("== (c) PAX: safe, zero stalls, device does the logging ==");
    {
        let config = PaxConfig::default().with_pool(pool_config());
        let pool = PaxPool::create(config)?;
        let map: PHashMap<u64, u64, _> = PHashMap::attach(BitmapAlloc::attach(pool.vpm())?)?;
        map.insert(1, 100)?;
        pool.persist()?;
        map.insert(2, 200)?; // epoch 2, in flight

        // Cut power inside the *persist* of epoch 2, the nastiest point:
        let clock = pool.crash_clock()?;
        clock.arm(clock.steps_taken() + 3);
        let err = pool.persist().unwrap_err();
        println!("  persist interrupted: {err}");

        let metrics_stalls = {
            let m = pool.device_metrics();
            m.map(|m| m.forced_log_flushes).unwrap_or(0)
        };
        let pm = pool.crash()?;
        let pool = PaxPool::open(pm, PaxConfig::default().with_pool(pool_config()))?;
        let report = pool.recovery_report()?;
        let map: PHashMap<u64, u64, _> = PHashMap::attach(BitmapAlloc::attach(pool.vpm())?)?;
        println!(
            "  after reboot: key1={:?} key2={:?}; rolled back {} lines; op-path stalls: {}",
            map.get(1)?,
            map.get(2)?,
            report.rolled_back,
            metrics_stalls
        );
        assert_eq!(map.get(1)?, Some(100));
        assert_eq!(map.get(2)?, None);
    }

    println!("done: only (a) is inconsistent; only (c) paid no synchronous overhead.");
    Ok(())
}
