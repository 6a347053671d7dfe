//! Seeded multi-thread crash stress for the shard-parallel engine.
//!
//! N OS threads (one per tenant, each on its own host core) issue seeded
//! random stores against one `PaxPool` while a crash clock armed at a
//! seeded random device step kills the device mid-traffic. Each tenant's
//! recovery is judged by the checker's per-tenant prefix oracle
//! ([`common::prefix_cut`]): an exact prefix of its own writes, never a
//! mix of epochs or another tenant's data, and never shorter than the
//! last persist the thread saw complete. Tenant epochs commit only from
//! the owning thread, so prefix-equality is exact even though all
//! tenants' undo entries interleave in the shared log.

mod common;

use common::{prefix_cut, read_span};
use libpax::{MemSpace, PaxConfig, PaxPool, PaxTenant};
use pax_device::DeviceConfig;
use pax_pm::{PoolConfig, LINE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: usize = 4;
const OPS_PER_THREAD: u64 = 1_500;
const SPAN_LINES: u64 = 128;

fn config() -> PaxConfig {
    PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(32 << 20).with_log_bytes(64 << 20))
        .with_device(DeviceConfig::default().with_shards(4))
        .with_cores(THREADS)
        .with_tenants(THREADS)
        .with_auto_persist_on_log_full()
}

/// One writer thread's `(line, value)` stores, and how many of them the
/// last `persist()` that returned covered.
fn writer(tenant: &PaxTenant, core: usize, seed: u64) -> (Vec<(u64, u64)>, usize) {
    let vpm = tenant.vpm_for_core(core);
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut writes, mut floor) = (Vec::new(), 0);
    for i in 1..=OPS_PER_THREAD {
        let line = rng.gen_range(0u64..SPAN_LINES);
        if vpm.write_u64(line * LINE_SIZE as u64, i).is_err() {
            break; // the crash clock fired
        }
        writes.push((line, i));
        if rng.gen_bool(0.02) {
            match tenant.persist() {
                Ok(_) => floor = writes.len(),
                Err(_) => break,
            }
        }
    }
    (writes, floor)
}

fn run_seed(seed: u64) {
    let pool = PaxPool::create(config()).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let clock = pool.crash_clock().unwrap();
    clock.arm(clock.steps_taken() + rng.gen_range(500u64..60_000));

    let logs: Vec<(Vec<(u64, u64)>, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let tenant = pool.attach(t).unwrap();
                let thread_seed = seed.wrapping_mul(31).wrapping_add(t as u64);
                s.spawn(move || writer(&tenant, t, thread_seed))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Crash (a no-op roll-back if the clock already fired) and recover.
    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    for (t, (writes, floor)) in logs.iter().enumerate() {
        let got = read_span(&pool.attach(t).unwrap(), SPAN_LINES).unwrap();
        if let Err(msg) = prefix_cut(writes, *floor, &got) {
            panic!("tenant {t} (seed {seed}): {msg}");
        }
    }
}

/// Seeded crash-point stress for the lock-free undo bank itself: several
/// appender threads hammer one `UndoLog` while this thread pumps it to
/// a real pool with a crash clock armed mid-drain — so the crash lands
/// while appenders are inside their reserve→fill windows. Whatever the
/// instant, the media scan (what recovery replays) must contain exactly
/// the contiguous durable prefix, and every scanned entry must be one an
/// appender actually *published* (its `append` returned): a reserved but
/// unpublished slot never reaches recovery.
fn crash_window_seed(seed: u64) {
    use pax_device::UndoEntry;
    use pax_pm::{CacheLine, CrashClock, LineAddr, PmPool};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    const APPENDERS: u64 = 3;
    const APPEND_OPS: u64 = 400;
    let pool = PmPool::create(PoolConfig::small().with_log_bytes(1 << 20)).unwrap();
    let bank = pax_device::UndoLog::new(&pool);
    let clock = CrashClock::new();
    let mut rng = StdRng::seed_from_u64(seed);
    // Each pumped block ticks the clock once; arming below half the
    // block count guarantees the cut hits mid-drain, with append traffic
    // in flight.
    clock.arm(rng.gen_range(1..APPENDERS * APPEND_OPS / pax_device::BLOCK_ENTRIES / 2));

    let pool = Mutex::new(pool);
    let stop = AtomicBool::new(false);
    let done = AtomicUsize::new(0);
    let published: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..APPENDERS)
            .map(|a| {
                let (bank, stop, done) = (&bank, &stop, &done);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..APPEND_OPS {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let line = a * APPEND_OPS + i; // globally unique tag
                        let entry =
                            UndoEntry::single(1, LineAddr(line), CacheLine::filled(a as u8));
                        match bank.append(entry) {
                            Ok(_) => mine.push(line),
                            Err(_) => break, // LogFull: capacity exhausted early
                        }
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                    mine
                })
            })
            .collect();
        // Pump on this thread until the crash fires or everything drains.
        loop {
            match bank.pump(&mut pool.lock().unwrap(), &clock, 8) {
                Ok(0) => {
                    if done.load(Ordering::Relaxed) == APPENDERS as usize && bank.pending_len() == 0
                    {
                        break;
                    }
                    std::thread::yield_now();
                }
                Ok(_) => {}
                Err(_) => {
                    stop.store(true, Ordering::Relaxed);
                    break; // crashed
                }
            }
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let durable = bank.durable_offset();
    let published: std::collections::HashSet<u64> = published.into_iter().flatten().collect();
    let mut pool = pool.into_inner().unwrap();
    let scanned = pax_device::UndoLog::scan(&mut pool).unwrap();
    assert_eq!(
        scanned.len() as u64,
        durable,
        "seed {seed}: media must hold exactly the durable prefix"
    );
    let slots: Vec<u64> = scanned.iter().map(|&(slot, _)| slot).collect();
    assert_eq!(slots, (0..durable).collect::<Vec<u64>>(), "contiguous prefix, no holes");
    for (_, entry) in &scanned {
        assert!(
            published.contains(&entry.vpm_line.0),
            "seed {seed}: slot for line {} was never published by an appender",
            entry.vpm_line.0
        );
    }
    // And the full recovery path agrees: it replays scanned entries only.
    let report = pax_device::recover(&mut pool).unwrap();
    assert_eq!(report.scanned as u64, durable);
}

#[test]
fn crash_in_reserve_fill_window_replays_only_published_slots() {
    for seed in [11, 4242, 777_001] {
        crash_window_seed(seed);
    }
}

#[test]
fn seeded_crash_stress_early() {
    run_seed(7);
}

#[test]
fn seeded_crash_stress_mid() {
    run_seed(1001);
}

#[test]
fn seeded_crash_stress_late() {
    run_seed(990_017);
}
