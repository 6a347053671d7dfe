//! Criterion micro-benchmarks for the undo log: append (the per-RdOwn
//! device cost) and pump/flush (the background drain).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use pax_device::{UndoEntry, UndoLog};
use pax_pm::{CacheLine, CrashClock, LineAddr, PmPool, PoolConfig};

fn pool() -> PmPool {
    PmPool::create(PoolConfig::small().with_log_bytes(32 << 20)).expect("pool")
}

fn entry(i: u64) -> UndoEntry {
    UndoEntry::single(1, LineAddr(i), CacheLine::filled(i as u8))
}

fn bench_append(c: &mut Criterion) {
    let mut g = c.benchmark_group("undo_log");
    g.throughput(Throughput::Elements(256));
    g.bench_function("append_256", |b| {
        let p = pool();
        b.iter_batched(
            || UndoLog::new(&p),
            |log| {
                for i in 0..256 {
                    log.append(entry(i)).expect("append");
                }
                log
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_flush(c: &mut Criterion) {
    let mut g = c.benchmark_group("undo_log");
    g.throughput(Throughput::Elements(256));
    g.bench_function("flush_256_entries", |b| {
        b.iter_batched(
            || {
                let p = pool();
                let log = UndoLog::new(&p);
                for i in 0..256 {
                    log.append(entry(i)).expect("append");
                }
                (p, log)
            },
            |(mut p, log)| {
                log.flush(&mut p, &CrashClock::new()).expect("flush");
                (p, log)
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("undo_log");
    let mut p = pool();
    let log = UndoLog::new(&p);
    for i in 0..1024 {
        log.append(entry(i)).expect("append");
    }
    log.flush(&mut p, &CrashClock::new()).expect("flush");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("scan_1k_entries", |b| {
        b.iter(|| {
            let entries = UndoLog::scan(&mut p).expect("scan");
            assert_eq!(entries.len(), 1024);
            entries.len()
        });
    });
    g.finish();
}

criterion_group!(benches, bench_append, bench_flush, bench_scan);
criterion_main!(benches);
