//! An ordered time-series index with pipelined (non-blocking) commits.
//!
//! ```text
//! cargo run --example sorted_index
//! ```
//!
//! Combines the two extensions this reproduction adds on top of the
//! paper's core: the ordered `PBTreeMap` (range scans over persistent
//! data) and §6's non-blocking `persist_async()` — each batch's commit
//! drains while the next batch is being ingested, so the ingest loop
//! never stalls on persistence.

use libpax::{BitmapAlloc, PBTreeMap, PaxConfig, PaxPool};
use pax_pm::PoolConfig;

fn config() -> PaxConfig {
    PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(32 << 20).with_log_bytes(256 << 20))
}

fn main() -> libpax::Result<()> {
    let pool = PaxPool::create(config())?;
    let index: PBTreeMap<u64, u64, _> = PBTreeMap::attach(BitmapAlloc::attach(pool.vpm())?)?;

    // Pipelined ingest: persist_async the previous batch while writing
    // the next one.
    let batches = 8u64;
    let per_batch = 250u64;
    let mut committed = 0u64;
    for b in 0..batches {
        for i in 0..per_batch {
            let timestamp = b * 10_000 + i * 7; // sparse, ordered-ish keys
            index.insert(timestamp, b)?;
        }
        // Kick off the commit of everything so far and keep going; the
        // previous epoch (if still draining) is completed in order.
        let epoch = pool.persist_async()?;
        println!("batch {b}: epoch {epoch} draining in the background");
        while let Some(done) = pool.persist_poll()? {
            committed = committed.max(done);
        }
    }
    pool.persist_wait()?;
    println!("all epochs committed (last committed before wait: {committed})");

    // Range queries over the persistent index.
    let window = index.range(30_000, 30_100)?;
    println!("events in [30000, 30100]: {:?}", window);
    index.check_invariants()?;

    // Crash and prove the whole pipeline landed durably.
    let pm = pool.crash()?;
    println!("-- power failure --");
    let pool = PaxPool::open(pm, config())?;
    let index: PBTreeMap<u64, u64, _> = PBTreeMap::attach(BitmapAlloc::attach(pool.vpm())?)?;
    index.check_invariants()?;
    println!(
        "recovered {} events; first {:?}, last {:?}",
        index.len()?,
        index.first()?,
        index.last()?
    );
    assert_eq!(index.len()?, batches * per_batch);
    let window = index.range(30_000, 30_100)?;
    assert_eq!(window.len(), 15); // timestamps 30000, 30007, …, 30098
    println!("range scan after recovery matches: {} events", window.len());
    Ok(())
}
