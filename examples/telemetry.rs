//! A telemetry ingestion pipeline: group commit in practice (§3.2).
//!
//! ```text
//! cargo run --example telemetry
//! ```
//!
//! Sensors produce readings continuously; the store batches them and
//! calls `persist()` periodically — "the application issues persist()
//! after a batch of operations, which works as a form of group commit".
//! The demo sweeps the batch size, reports the device-side cost per
//! reading, then crashes mid-batch and shows the recovery point landing
//! exactly on the last batch boundary.

use libpax::{BitmapAlloc, PHashMap, PVec, PaxConfig, PaxPool};
use pax_pm::PoolConfig;

/// One reading: sensor id, timestamp tick, value — 3×u64 packed.
fn encode(sensor: u64, tick: u64, value: u64) -> u128 {
    ((sensor as u128) << 96) | ((tick as u128 & 0xffff_ffff) << 64) | value as u128
}

fn config() -> PaxConfig {
    PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(32 << 20).with_log_bytes(128 << 20))
}

fn main() -> libpax::Result<()> {
    println!("batch-size sweep: device cost per ingested reading\n");
    println!("  batch   persists   snoops/reading   log bytes/reading");
    for batch in [10u64, 100, 1000] {
        let pool = PaxPool::create(config())?;
        let readings: PVec<u128, _> = PVec::attach(BitmapAlloc::attach(pool.vpm())?)?;
        let total = 3_000u64;
        for t in 0..total {
            readings.push(encode(t % 16, t, t * 7))?;
            if (t + 1) % batch == 0 {
                pool.persist()?;
            }
        }
        let m = pool.device_metrics()?;
        println!(
            "  {batch:>5}   {:>8}   {:>14.3}   {:>17.1}",
            m.persists,
            m.snoops_sent as f64 / total as f64,
            m.log_bytes() as f64 / total as f64
        );
    }

    println!("\ncrash mid-batch: recovery lands on the last batch boundary\n");
    let pool = PaxPool::create(config())?;
    let readings: PVec<u128, _> = PVec::attach(BitmapAlloc::attach(pool.vpm())?)?;
    let batch = 100u64;
    let mut persisted_upto = 0u64;
    for t in 0..1_234u64 {
        readings.push(encode(t % 16, t, t))?;
        if (t + 1) % batch == 0 {
            pool.persist()?;
            persisted_upto = t + 1;
        }
    }
    println!("  ingested 1234 readings, persisted through {persisted_upto}");
    let pm = pool.crash()?;
    println!("  -- power failure --");

    let pool = PaxPool::open(pm, config())?;
    let readings: PVec<u128, _> = PVec::attach(BitmapAlloc::attach(pool.vpm())?)?;
    let recovered = readings.len()?;
    println!("  recovered {recovered} readings (exactly the last persist boundary)");
    assert_eq!(recovered, persisted_upto);

    // Downstream index: rebuilt from recovered data — two structures,
    // one pool API.
    let index_pool = PaxPool::create(config())?;
    let latest: PHashMap<u64, u64, _> = PHashMap::attach(BitmapAlloc::attach(index_pool.vpm())?)?;
    for i in 0..recovered {
        let r = readings.get(i)?.expect("in range");
        let sensor = (r >> 96) as u64;
        let value = r as u64;
        latest.insert(sensor, value)?;
    }
    index_pool.persist()?;
    println!("  rebuilt per-sensor index over {} sensors", latest.len()?);
    Ok(())
}
