//! Criterion benchmark: recovery time versus undo-log length (§3.4).
//!
//! Recovery scans the log region and rolls back entries newer than the
//! committed epoch; its cost must scale with the log, not the pool.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use pax_device::{recover, UndoEntry, UndoLog};
use pax_pm::{CacheLine, CrashClock, LineAddr, PmPool, PoolConfig};

/// Builds a pool that looks like it crashed mid-epoch with `entries`
/// unpersisted undo entries.
fn crashed_pool(entries: u64) -> PmPool {
    let mut pool =
        PmPool::create(PoolConfig::small().with_log_bytes(32 << 20).with_data_bytes(16 << 20))
            .expect("pool");
    let clock = CrashClock::new();
    let log = UndoLog::new(&pool);
    for i in 0..entries {
        // Pool's committed epoch is 0 → all entries roll back.
        log.append(UndoEntry::single(1, LineAddr(i), CacheLine::filled(i as u8))).expect("append");
    }
    log.flush(&mut pool, &clock).expect("flush");
    pool
}

fn bench_recovery(c: &mut Criterion) {
    let mut g = c.benchmark_group("recovery");
    for entries in [64u64, 512, 4096] {
        g.throughput(Throughput::Elements(entries));
        g.bench_with_input(BenchmarkId::new("rollback", entries), &entries, |b, &n| {
            b.iter_batched(
                || crashed_pool(n),
                |mut pool| {
                    let r = recover(&mut pool).expect("recover");
                    assert_eq!(r.rolled_back, n as usize);
                    pool
                },
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

fn bench_clean_open(c: &mut Criterion) {
    let mut g = c.benchmark_group("recovery");
    g.bench_function("clean_pool_noop", |b| {
        b.iter_batched(
            || PmPool::create(PoolConfig::small()).expect("pool"),
            |mut pool| {
                let r = recover(&mut pool).expect("recover");
                assert_eq!(r.rolled_back, 0);
                pool
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_recovery, bench_clean_open);
criterion_main!(benches);
