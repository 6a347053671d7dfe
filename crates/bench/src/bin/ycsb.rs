//! T-ycsb: mechanism comparison across application mixes (§5.1).
//!
//! "Our plan is to compare these approaches in detail for a variety of
//! applications. We may find that a combination of the approaches works
//! best." This harness runs the same `PHashMap` code under each
//! crash-consistency mechanism for YCSB-style mixes plus the paper's own
//! two workloads, reporting the mechanism's event-model overhead per
//! operation (latency-profile composition of its counted events).
//!
//! Run: `cargo run --release -p pax-bench --bin ycsb` (add `--json` for
//! machine-readable output)

use libpax::{BitmapAlloc, MemSpace, PHashMap, PaxConfig, PaxPool};
use pax_baselines::{Costed, DirectPmSpace, HybridSpace, PageFaultSpace, WalSpace};
use pax_bench::{arg_value, BenchOut, Json};
use pax_pm::{LatencyProfile, PoolConfig};
use pax_workloads::{Op, OpMix, WorkloadSpec};

fn pool_config() -> PoolConfig {
    PoolConfig::small().with_data_bytes(32 << 20).with_log_bytes(256 << 20)
}

/// Loads the table, then runs the measured op phase; `measure_from` is
/// called between the two so load-phase events are excluded.
fn run_ops<S: MemSpace>(space: &S, spec: &WorkloadSpec, measure_from: impl FnOnce()) {
    let map: PHashMap<u64, u64, S> =
        PHashMap::attach(BitmapAlloc::attach(space.clone()).expect("allocator")).expect("map");
    for k in spec.load_keys() {
        map.insert(k, k).expect("load");
    }
    measure_from();
    for op in spec.ops() {
        match op {
            Op::Get(k) => {
                map.get(k).expect("get");
            }
            Op::Insert(k, v) | Op::Update(k, v) => {
                map.insert(k, v).expect("insert");
            }
            Op::Remove(k) => {
                map.remove(k).expect("remove");
            }
        }
    }
}

fn main() {
    let mut out = BenchOut::from_args("ycsb");
    // Shared CLI plumbing (same `--name value` grammar as fig2b).
    let keys: u64 = arg_value("--keys").map_or(2_000, |v| v.parse().expect("bad --keys"));
    let ops: u64 = arg_value("--ops").map_or(6_000, |v| v.parse().expect("bad --ops"));
    out.config("keys", Json::U64(keys));
    out.config("ops", Json::U64(ops));
    let profile = LatencyProfile::c6420();
    let mixes: Vec<(&str, OpMix)> = vec![
        ("fig2a read-only", OpMix::read_only()),
        ("fig2b write-only", OpMix::write_only()),
        ("YCSB-A 50/50", OpMix::ycsb_a()),
        ("YCSB-B 95/5", OpMix::ycsb_b()),
        ("churn", OpMix::churn()),
    ];

    out.line(format!(
        "mechanism overhead [ns/op] — {keys}-key PHashMap, {ops} ops, event counts × \
         cited latencies\n"
    ));
    let mut rows = vec![vec![
        "workload".to_string(),
        "PM-Direct".to_string(),
        "PMDK WAL".to_string(),
        "Page-fault".to_string(),
        "Hybrid".to_string(),
        "PAX".to_string(),
    ]];

    for (name, mix) in mixes {
        let spec = WorkloadSpec {
            keys,
            ops,
            dist: pax_workloads::KeyDistribution::Uniform,
            mix,
            seed: 11,
        };
        let per_op = |total_ns: f64| total_ns / ops as f64;
        // Each mechanism's cost over the op phase only; overhead columns
        // show the delta over PM-Direct (same traffic shape, no
        // consistency machinery).
        use std::cell::Cell;

        let direct = DirectPmSpace::new(32 << 20);
        let base = Cell::new(pax_baselines::CostReport::default());
        run_ops(&direct, &spec, || base.set(direct.costs()));
        let direct_ns = per_op(direct.costs().delta_since(&base.get()).estimate_ns(&profile));

        let wal = WalSpace::create(pool_config()).expect("wal");
        let base = Cell::new(pax_baselines::CostReport::default());
        run_ops(&wal, &spec, || base.set(wal.costs()));
        let wal_ns = per_op(wal.costs().delta_since(&base.get()).estimate_ns(&profile));

        let pf = PageFaultSpace::create(pool_config()).expect("pf");
        let base = Cell::new(pax_baselines::CostReport::default());
        run_ops(&pf, &spec, || {
            pf.persist().expect("persist load epoch");
            base.set(pf.costs());
        });
        pf.persist().expect("persist");
        let pf_ns = per_op(pf.costs().delta_since(&base.get()).estimate_ns(&profile));

        let hy = HybridSpace::create(pool_config()).expect("hybrid");
        let base = Cell::new(pax_baselines::CostReport::default());
        run_ops(&hy, &spec, || {
            hy.persist().expect("persist load epoch");
            base.set(hy.costs());
        });
        hy.persist().expect("persist");
        let hy_ns = per_op(hy.costs().delta_since(&base.get()).estimate_ns(&profile));

        // PAX: device-side work over the op phase (application stalls are
        // zero by construction, §3.2).
        let pax = PaxPool::create(PaxConfig::default().with_pool(pool_config())).expect("pax");
        let vpm = pax.vpm();
        let base = Cell::new(pax_device::DeviceMetrics::default());
        run_ops(&vpm, &spec, || {
            pax.persist().expect("persist load epoch");
            base.set(pax.device_metrics().expect("metrics"));
        });
        pax.persist().expect("persist");
        let m = pax.device_metrics().expect("metrics");
        let b = base.get();
        let pax_ns = per_op(
            (m.pm_reads - b.pm_reads) as f64 * profile.pm.read_ns as f64
                + (((m.log_bytes() + m.writeback_bytes()) - (b.log_bytes() + b.writeback_bytes()))
                    / 64) as f64
                    * profile.pm.write_ns as f64,
        );

        rows.push(vec![
            name.to_string(),
            format!("{direct_ns:.0}"),
            format!("{:.0} (+{:.0})", wal_ns, wal_ns - direct_ns),
            format!("{:.0} (+{:.0})", pf_ns, pf_ns - direct_ns),
            format!("{:.0} (+{:.0})", hy_ns, hy_ns - direct_ns),
            format!("{pax_ns:.0}"),
        ]);
        out.push_result(
            Json::obj()
                .field("workload", Json::str(name))
                .field("pm_direct_ns_per_op", Json::F64(direct_ns))
                .field("pmdk_wal_ns_per_op", Json::F64(wal_ns))
                .field("page_fault_ns_per_op", Json::F64(pf_ns))
                .field("hybrid_ns_per_op", Json::F64(hy_ns))
                .field("pax_ns_per_op", Json::F64(pax_ns)),
        );
    }
    out.table(&rows);
    out.blank();
    out.line("PAX's column is device-side work that overlaps the application (§3.2); the");
    out.line("WAL/page-fault columns include synchronous stalls on the application path.");
    out.line("The hybrid tracks PAX closely while the pure page-fault mechanism pays for");
    out.line("its traps and page images on every write-containing mix — the §5.1 outcome");
    out.line("(\"we may find that a combination of the approaches works best\").");
    out.finish();
}
