//! Allocator throughput, fragmentation and recovery for the llfree-style
//! bitmap allocator.
//!
//! Three series, one artifact (`BENCH_allocbench.json`):
//!
//! * **Throughput** — N OS threads churn a slot table of mixed-size
//!   allocations (alloc on an empty slot, free on a full one) against a
//!   shared space. The `bitmap` mode runs [`BitmapAlloc`] over a
//!   [`VolatileSpace`] (4 KiB stripes, one lock each) with one per-core
//!   handle per thread.
//! * **Fragment** — an adversarial layout: carpet the pool with
//!   single-frame allocations, free every other one so *every* tree is
//!   partial (recorded as `frag_permille_peak`/`frag_permille_end` in
//!   the row), then churn mixed sizes over the holes. Exercises the
//!   partial-first reserve policy's worst case, the per-tree run hints
//!   that steer multi-frame requests past the holes (`hint_misses`
//!   counts scans the hints failed to spare), and keeps the
//!   partial-tree permille gauge honest (> 0‰ by construction).
//! * **Recovery** — `attach` IS recovery for the bitmap allocator: the
//!   series times the full attach-time bitmap scan at growing pool sizes
//!   with a quarter of the frames live, recording `scan_steps` so CI can
//!   hold the scan to linear in pool frames.
//!
//! The CI ratchet enforces per-(threads, mode) and fragment ops/s
//! floors, the fragment's 0.3 Mops bar, the 1→4-thread scaling bar on
//! capable hosts, and the recovery linearity bound.
//!
//! Run: `cargo run --release -p pax-bench --bin allocbench` (add
//! `--json`; `--threads 1,2,4` and `--ops N` to resize).

use std::time::Instant;

use libpax::{BitmapAlloc, MemSpace, PmAllocator, VolatileSpace};
use pax_bench::{arg_value, thread_series, BenchOut, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Live-allocation slots per worker thread.
const SLOTS: usize = 256;
/// Allocation sizes span one frame up to a handful of frames.
const MIN_BYTES: u64 = 16;
const MAX_BYTES: u64 = 256;
/// Shared-space capacity for the throughput storm.
const POOL_BYTES: usize = 32 << 20;

/// One worker's slot churn: every op is an alloc (empty slot) or a free
/// (occupied slot), then the table is drained so repeated runs see the
/// same starting state.
fn churn<S: MemSpace, A: PmAllocator<S>>(a: &A, ops: u64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut slots: Vec<Option<(u64, u64)>> = vec![None; SLOTS];
    for _ in 0..ops {
        let i = rng.gen_range(0..SLOTS);
        match slots[i].take() {
            Some((addr, len)) => a.free(addr, len).expect("free of a live slot"),
            None => {
                let len = rng.gen_range(MIN_BYTES..MAX_BYTES + 1);
                slots[i] = Some((a.alloc(len).expect("pool sized for the slot table"), len));
            }
        }
    }
    for slot in slots.into_iter().flatten() {
        a.free(slot.0, slot.1).expect("drain");
    }
}

/// Timed bitmap storm: `threads` workers, each on its own per-core
/// handle of one shared allocator. Returns (Mops, telemetry fields).
fn measure_bitmap(threads: usize, ops_per_thread: u64) -> (f64, Vec<(&'static str, Json)>) {
    let alloc = BitmapAlloc::attach_with_cores(VolatileSpace::new(POOL_BYTES), threads)
        .expect("volatile space formats");
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let h = alloc.for_core(t);
            s.spawn(move || churn(&h, ops_per_thread, 0x5EED + t as u64));
        }
    });
    let mops = (threads as u64 * ops_per_thread) as f64 / start.elapsed().as_secs_f64() / 1e6;
    let snap = alloc.metrics_snapshot();
    let telemetry = vec![
        ("fast_hits", Json::U64(snap.counter("alloc_fast_hits"))),
        ("tree_steals", Json::U64(snap.counter("alloc_tree_steals"))),
        ("scan_frames", Json::U64(snap.counter("alloc_scan_frames"))),
        ("frag_permille", Json::U64(alloc.fragmentation_permille())),
    ];
    (mops, telemetry)
}

/// Adversarial fragmentation: carpet the pool with single-frame
/// allocations, then free every other one, leaving each tree
/// Swiss-cheesed (free != 0 and free != tree capacity, i.e. *partial* in
/// the [`fragmentation_permille`](BitmapAlloc::fragmentation_permille)
/// sense). The timed churn then runs mixed sizes over that hostile
/// layout with the same op count as the slot churn. Single-frame
/// requests fill the holes; a multi-frame request scans a carpeted tree
/// at most once, which resets that tree's run hint to 1, and is then
/// steered to trees with room. Returns (ops, Mops, peak partial-tree
/// permille, end permille, telemetry).
fn measure_fragmentation(ops: u64) -> (u64, f64, u64, u64, Vec<(&'static str, Json)>) {
    let alloc =
        BitmapAlloc::attach(VolatileSpace::new(POOL_BYTES)).expect("volatile space formats");
    let frame = libpax::balloc::layout::FRAME_BYTES;
    // Phase A: pepper ~half the frames with live single-frame allocs.
    let carpet = alloc.geometry().frames / 2;
    let mut live: Vec<u64> = (0..carpet)
        .map(|_| alloc.alloc(frame).expect("carpet fill fits in half the pool"))
        .collect();
    // Phase B: free alternate allocations — every tree ends up partial.
    let mut keep = false;
    live.retain(|&addr| {
        keep = !keep;
        if !keep {
            alloc.free(addr, frame).expect("free of carpet frame");
        }
        keep
    });
    let frag_peak = alloc.fragmentation_permille();
    // Phase C: the measured churn, over the fragmented layout.
    let start = Instant::now();
    churn(&alloc, ops, 0xF2A6);
    let mops = ops as f64 / start.elapsed().as_secs_f64() / 1e6;
    let frag_end = alloc.fragmentation_permille();
    for addr in live {
        alloc.free(addr, frame).expect("drain carpet");
    }
    let snap = alloc.metrics_snapshot();
    let telemetry = vec![
        ("fast_hits", Json::U64(snap.counter("alloc_fast_hits"))),
        ("tree_steals", Json::U64(snap.counter("alloc_tree_steals"))),
        ("scan_frames", Json::U64(snap.counter("alloc_scan_frames"))),
        ("hint_misses", Json::U64(snap.counter("alloc_hint_misses"))),
    ];
    (ops, mops, frag_peak, frag_end, telemetry)
}

/// Recovery-as-construction cost: fill a pool a quarter full, then time
/// a cold `attach` (the whole recovery path) against it. Returns
/// (pool_frames, live_frames, scan_steps, scan_ns).
fn measure_recovery(pool_bytes: usize) -> (u64, u64, u64, u64) {
    let space = VolatileSpace::new(pool_bytes);
    let warm = BitmapAlloc::attach(space.clone()).expect("format");
    let target = warm.geometry().frames / 4;
    while warm.live_frames() < target {
        warm.alloc(MAX_BYTES).expect("quarter fill fits");
    }
    drop(warm);
    let start = Instant::now();
    let cold = BitmapAlloc::attach(space).expect("recovery attach");
    let scan_ns = start.elapsed().as_nanos() as u64;
    let stats = cold.recovery_stats();
    (cold.geometry().frames, stats.live_frames, stats.scan_steps, scan_ns)
}

fn main() {
    let mut out = BenchOut::from_args("allocbench");
    let threads = thread_series(&[1, 2, 4]);
    let ops: u64 = arg_value("--ops").map_or(120_000, |v| v.parse().expect("bad --ops"));
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.config("ops_per_thread", Json::U64(ops));
    out.config("host_cores", Json::U64(host_cores as u64));
    out.config("pool_bytes", Json::U64(POOL_BYTES as u64));

    out.line(format!("\nAllocator slot churn [Mops] — bitmap (per-core trees), {ops} ops/thread"));
    let mut rows =
        vec![vec!["threads".to_string(), "bitmap".to_string(), "bitmap vs 1".to_string()]];
    let mut bitmap_base = None;
    for &t in &threads {
        eprintln!("measuring {t} thread(s) …");
        let (bitmap, telemetry) = measure_bitmap(t, ops);
        let base = *bitmap_base.get_or_insert(bitmap);
        let scaling = bitmap / base;
        let mut row = Json::obj()
            .field("threads", Json::U64(t as u64))
            .field("mode", Json::str("bitmap"))
            .field("mops", Json::F64(bitmap))
            .field("scaling_vs_1", Json::F64(scaling));
        for (key, value) in telemetry {
            row = row.field(key, value);
        }
        out.push_result(row);
        rows.push(vec![t.to_string(), format!("{bitmap:.2}"), format!("{scaling:.2}×")]);
    }
    out.table(&rows);

    out.line("\nAdversarial fragmentation (alternate-free carpet, then mixed-size churn)");
    eprintln!("fragmentation storm …");
    let (frag_ops, frag_mops, frag_peak, frag_end, frag_telemetry) = measure_fragmentation(ops);
    out.table(&[
        vec!["Mops".to_string(), "partial ‰ peak".to_string(), "partial ‰ end".to_string()],
        vec![format!("{frag_mops:.3}"), frag_peak.to_string(), frag_end.to_string()],
    ]);
    let mut frag_row = Json::obj()
        .field("series", Json::str("fragment"))
        .field("threads", Json::U64(1))
        .field("ops", Json::U64(frag_ops))
        .field("mops", Json::F64(frag_mops))
        .field("frag_permille_peak", Json::U64(frag_peak))
        .field("frag_permille_end", Json::U64(frag_end));
    for (key, value) in frag_telemetry {
        frag_row = frag_row.field(key, value);
    }
    out.push_result(frag_row);

    out.line("\nRecovery scan (attach == recover), quarter-full pools");
    let mut rrows = vec![vec!["pool".to_string(), "frames".to_string(), "scan µs".to_string()]];
    for pool_bytes in [8usize << 20, 32 << 20, 128 << 20] {
        eprintln!("recovery scan at {} MiB …", pool_bytes >> 20);
        let (pool_frames, live_frames, scan_steps, scan_ns) = measure_recovery(pool_bytes);
        rrows.push(vec![
            format!("{} MiB", pool_bytes >> 20),
            pool_frames.to_string(),
            format!("{:.1}", scan_ns as f64 / 1e3),
        ]);
        out.push_result(
            Json::obj()
                .field("series", Json::str("recovery"))
                .field("pool_bytes", Json::U64(pool_bytes as u64))
                .field("pool_frames", Json::U64(pool_frames))
                .field("live_frames", Json::U64(live_frames))
                .field("scan_steps", Json::U64(scan_steps))
                .field("scan_ns", Json::U64(scan_ns)),
        );
    }
    out.table(&rrows);
    out.finish();
}
