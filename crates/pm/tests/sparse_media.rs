//! Host memory follows the lines a run touches, not the pool's capacity.
//!
//! This binary holds one test so no other test's allocations land in its
//! `VmRSS` measurement. Lazy zeroing comes from the platform allocator
//! (glibc maps large zeroed requests on demand), so it is checked on
//! Linux only; the media contents are the same everywhere.

#![cfg(target_os = "linux")]

use pax_pm::{CacheLine, PmPool, PoolConfig};

/// Resident set size of this process in KiB (`VmRSS`).
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("VmRSS line");
    line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("VmRSS value")
}

#[test]
fn a_256_mib_pool_costs_host_memory_only_for_its_written_lines() {
    let before = rss_kib();
    let mut pool = PmPool::create(PoolConfig::small().with_data_bytes(256 << 20)).unwrap();
    let grown = rss_kib().saturating_sub(before);
    assert!(grown < 16 << 10, "creating a 256 MiB pool grew RSS by {grown} KiB");

    let layout = pool.layout();
    let first = layout.vpm_to_pool(0).unwrap();
    let last = layout.vpm_to_pool(layout.data_lines - 1).unwrap();
    pool.write_line(first, CacheLine::filled(0xA5)).unwrap();
    pool.write_line(last, CacheLine::filled(0x5A)).unwrap();
    assert_eq!(pool.read_line(first).unwrap(), CacheLine::filled(0xA5));
    assert_eq!(pool.read_line(last).unwrap(), CacheLine::filled(0x5A));
    assert_eq!(pool.read_line(first.next()).unwrap(), CacheLine::zeroed());
}
