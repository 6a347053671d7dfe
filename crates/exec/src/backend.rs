//! Per-mechanism operation recipes for the Fig. 2b scaling model.
//!
//! Each [`Backend`] turns a latency profile plus a measured per-op
//! [`OpProfile`] into the resource table and [`OpRecipe`] the
//! [`SimMachine`] executes. The event counts (cache
//! misses per op, lines logged per op, fences per op) come from the
//! functional simulation — the bench harness measures them by running the
//! real `PHashMap` on the real device model — so the timing model cannot
//! drift from the implementation.

use pax_pm::{LatencyProfile, PersistencyModel, Platform};

use crate::engine::{OpRecipe, Resource, SimMachine, SimReport, Stage};

/// Measured per-operation event counts (averages over a workload run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpProfile {
    /// LLC misses per operation (loads that reach memory).
    pub misses_per_op: f64,
    /// Lines stored per operation (dirty traffic that must reach memory
    /// eventually; for WAL backends these writes are synchronous).
    pub stores_per_op: f64,
    /// Pure compute (hashing, pointer arithmetic) per operation, ns.
    pub compute_ns: u64,
}

impl OpProfile {
    /// A hash-table insert of 8 B key/value, as measured on the
    /// functional simulation: ~2 lines missed (bucket head + chain), ~2
    /// lines stored (node + bucket pointer), ~60 ns of compute.
    pub const fn hash_insert_default() -> Self {
        OpProfile { misses_per_op: 2.0, stores_per_op: 2.0, compute_ns: 60 }
    }

    /// A hash-table get: ~2 lines missed, nothing stored.
    pub const fn hash_get_default() -> Self {
        OpProfile { misses_per_op: 2.0, stores_per_op: 0.0, compute_ns: 50 }
    }
}

/// Shared-hardware parameters of the simulated 32-core socket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineParams {
    /// Concurrent line requests the DRAM subsystem sustains.
    pub dram_concurrency: usize,
    /// Concurrent PM line *reads* a socket sustains; Optane's read
    /// memory-level parallelism is decent (40 GB/s at 305 ns ⇒ ~16
    /// outstanding lines; Yang et al., FAST '20).
    pub pm_read_concurrency: usize,
    /// Concurrent PM line *writes* — small; the XPBuffer/write-combining
    /// limits (14 GB/s) are what make PM write throughput flatten early.
    pub pm_write_concurrency: usize,
    /// Effective service time of a small random PM write once admitted,
    /// ns (media-side cost, beyond the ADR-visible latency).
    pub pm_write_service_ns: u64,
    /// Concurrent in-flight messages the PAX device pipeline sustains.
    pub device_concurrency: usize,
    /// Device per-message occupancy, ns.
    pub device_service_ns: u64,
    /// Fraction of device reads served from HBM instead of PM.
    pub hbm_hit_rate: f64,
    /// Address-interleaved device shards; each shard contributes an
    /// independent message pipeline and undo-log append engine, mirroring
    /// `DeviceConfig::with_shards` in `pax-device`.
    pub device_shards: usize,
    /// Occupancy of a shard's undo-log append engine per logged store, ns
    /// (HBM log-buffer append; the PM drain is asynchronous). Serial
    /// within a shard — this is what sharding parallelises.
    pub log_engine_ns: u64,
    /// Period of the device's virtual-time scheduler tick, ns. Sustained
    /// store throughput cannot outrun the background engines: a shard's
    /// log bank admits at most one entry per tick, so its effective
    /// append occupancy is `log_engine_ns.max(device_tick_ns)`. The
    /// paper-default 25 ns equals `log_engine_ns` — a scheduler clocked
    /// as fast as the append engine is invisible.
    pub device_tick_ns: u64,
    /// Tenant pool contexts sharing the device (`PaxDevice::open_multi`).
    /// Each physical shard's tick budget is divided across its active
    /// tenants, so a tenant's lane admits one entry per `T` ticks under
    /// full contention: the effective append occupancy becomes
    /// `log_engine_ns.max(device_tick_ns * T)`. The default 1 leaves
    /// every number unchanged.
    pub device_tenants: usize,
    /// Round-trip cost of one persist-time snoop to the host cache, ns
    /// (wire to the host, LLC tag probe, data return). Only the
    /// epoch-persist pricing ([`MachineParams::persist_epoch_ns`]) pays
    /// it — the per-op throughput recipes never snoop — so adding the
    /// knob changes no existing series.
    pub snoop_ns: u64,
    /// Lines per coalesced persist write-back batch — the model twin of
    /// `DeviceConfig::persist_wb_batch` in `pax-device`. Lines in a
    /// batch share one PM write admission.
    pub writeback_batch: usize,
}

impl MachineParams {
    /// Defaults documented against the paper's sources: DRAM ~10-way MLP;
    /// Optane ~4 concurrent small writes per socket with ~250 ns media
    /// occupancy; an ASIC-class device pipeline of depth 8 at ~10 ns per
    /// message (a 300 MHz FPGA would be depth 2–3, §5.1).
    pub const fn paper() -> Self {
        MachineParams {
            dram_concurrency: 10,
            pm_read_concurrency: 16,
            pm_write_concurrency: 4,
            pm_write_service_ns: 250,
            device_concurrency: 8,
            device_service_ns: 10,
            hbm_hit_rate: 0.5,
            device_shards: 1,
            log_engine_ns: 25,
            device_tick_ns: 25,
            device_tenants: 1,
            snoop_ns: 100,
            writeback_batch: 8,
        }
    }

    /// Prices tenant `t`'s epoch-end persist sweep from the functional
    /// simulation's counters: every snoop the directory could not filter
    /// pays a host round trip ([`MachineParams::snoop_ns`]), and the
    /// write backs land in coalesced batches of
    /// [`MachineParams::writeback_batch`] lines, each batch occupying
    /// one PM write admission. The snoop-filter win is exactly the
    /// `snoops` argument shrinking; the batching win is the division.
    pub const fn persist_epoch_ns(&self, snoops: u64, writebacks: u64) -> u64 {
        let batch = if self.writeback_batch == 0 { 1 } else { self.writeback_batch as u64 };
        let batches = writebacks.div_ceil(batch);
        snoops * self.snoop_ns + batches * self.pm_write_service_ns
    }

    /// Prices the *caller-visible* cost of closing an epoch of `snoops`
    /// snoop-eligible lines and `writebacks` dirty lines under each
    /// [`PersistencyModel`] — the ordering-cost axis of "Exploring Memory
    /// Persistency Models for GPUs":
    ///
    /// * `Strict` — there is no epoch to amortise over: every store in
    ///   the would-be epoch pays its own full barrier (one snoop, one
    ///   unbatched log write, one unbatched data write). Neither the
    ///   write-back batching nor the snoop filter can help, which is
    ///   exactly why strict ordering costs integer factors more.
    /// * `Epoch` — the synchronous barrier: the whole
    ///   [`MachineParams::persist_epoch_ns`] sweep plus one commit-record
    ///   write, paid once per epoch.
    /// * `BufferedEpoch` — the close returns after capturing the epoch;
    ///   the sweep drains in the background, so the caller pays only the
    ///   commit-record admission.
    pub const fn epoch_close_visible_ns(
        &self,
        model: PersistencyModel,
        snoops: u64,
        writebacks: u64,
    ) -> u64 {
        match model {
            PersistencyModel::Strict => {
                let stores = if writebacks > snoops { writebacks } else { snoops };
                let stores = if stores == 0 { 1 } else { stores };
                stores * (self.snoop_ns + 2 * self.pm_write_service_ns)
            }
            PersistencyModel::Epoch => {
                self.persist_epoch_ns(snoops, writebacks) + self.pm_write_service_ns
            }
            PersistencyModel::BufferedEpoch { .. } => self.pm_write_service_ns,
        }
    }
}

impl Default for MachineParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// The four Fig. 2b(+) series.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Backend {
    /// Volatile table in DRAM.
    Dram,
    /// Table on PM, no crash consistency.
    PmDirect,
    /// PMDK-style synchronous undo WAL on PM.
    Pmdk,
    /// PAX on the given platform (CXL or Enzian).
    Pax(Platform),
}

impl Backend {
    /// The label Fig. 2b uses.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Dram => "DRAM",
            Backend::PmDirect => "PM Direct",
            Backend::Pmdk => "PMDK",
            Backend::Pax(Platform::Enzian) => "PAX (Enzian)",
            Backend::Pax(_) => "PAX (CXL)",
        }
    }

    /// Builds the machine and recipe for this backend.
    ///
    /// Resource 0 is the read side of the backing memory, resource 1 the
    /// write side. PAX additionally owns resources `2 .. 2 + S` (one
    /// message pipeline per device shard) and `2 + S .. 2 + 2S` (one
    /// undo-log append engine per shard), where `S` is
    /// [`MachineParams::device_shards`]; requests are steered to the
    /// least-loaded bank.
    pub fn build(
        self,
        latency: &LatencyProfile,
        machine: &MachineParams,
        op: &OpProfile,
    ) -> (SimMachine, OpRecipe) {
        let mut stages = vec![Stage::Compute(op.compute_ns)];
        // Deterministic expansion of fractional event counts: rounded,
        // except that an event the profile measured at all happens at
        // least once, so a write-only op never models zero stores.
        let events = |per_op: f64| if per_op > 0.0 { (per_op.round() as usize).max(1) } else { 0 };
        let misses = events(op.misses_per_op);
        let stores = events(op.stores_per_op);
        let pm_read = Resource { name: "PM read", concurrency: machine.pm_read_concurrency };
        let pm_write = Resource { name: "PM write", concurrency: machine.pm_write_concurrency };

        match self {
            Backend::Dram => {
                let mem = Resource { name: "DRAM", concurrency: machine.dram_concurrency };
                for _ in 0..misses {
                    stages.push(Stage::Use { resource: 0, service_ns: latency.dram.read_ns });
                }
                for _ in 0..stores {
                    stages.push(Stage::Use { resource: 0, service_ns: latency.dram.write_ns });
                }
                (SimMachine::new(vec![mem]), OpRecipe { stages })
            }
            Backend::PmDirect => {
                for _ in 0..misses {
                    stages.push(Stage::Use { resource: 0, service_ns: latency.pm.read_ns });
                }
                for _ in 0..stores {
                    // The store is ADR-complete quickly, but the DIMM
                    // write slot stays occupied for the media write.
                    stages
                        .push(Stage::Use { resource: 1, service_ns: machine.pm_write_service_ns });
                }
                (SimMachine::new(vec![pm_read, pm_write]), OpRecipe { stages })
            }
            Backend::Pmdk => {
                for _ in 0..misses {
                    stages.push(Stage::Use { resource: 0, service_ns: latency.pm.read_ns });
                }
                for _ in 0..stores {
                    // Undo WAL (§2): read old value, append log entry,
                    // SFENCE-stall until durable, then the data store —
                    // 2× the PM write traffic of direct access.
                    stages.push(Stage::Use { resource: 0, service_ns: latency.pm.read_ns });
                    stages.push(Stage::Use {
                        resource: 1,
                        service_ns: machine.pm_write_service_ns, // log line
                    });
                    stages.push(Stage::Compute(latency.sfence_ns));
                    stages.push(Stage::Use {
                        resource: 1,
                        service_ns: machine.pm_write_service_ns, // data line
                    });
                }
                // Commit record + fence closing the op's transaction.
                stages.push(Stage::Compute(latency.sfence_ns));
                (SimMachine::new(vec![pm_read, pm_write]), OpRecipe { stages })
            }
            Backend::Pax(platform) => {
                let shards = machine.device_shards.max(1);
                let pipes = 2; // first pipeline bank
                let logs = pipes + shards; // first log-engine bank
                let mut resources = vec![pm_read, pm_write];
                for _ in 0..shards {
                    resources.push(Resource {
                        name: "PAX pipeline",
                        concurrency: machine.device_concurrency,
                    });
                }
                for _ in 0..shards {
                    resources.push(Resource { name: "PAX log engine", concurrency: 1 });
                }
                let interpose = latency.interposition_ns(platform);
                // Device-side read service: HBM hit or PM read.
                let backing = (machine.hbm_hit_rate * latency.hbm_ns as f64
                    + (1.0 - machine.hbm_hit_rate) * latency.pm.read_ns as f64)
                    as u64;
                for _ in 0..misses {
                    // Miss travels to the device (interposition latency is
                    // thread-local wire time) then occupies the pipeline
                    // of the shard owning the line.
                    stages.push(Stage::Compute(interpose));
                    stages.push(Stage::UseAny {
                        first: pipes,
                        count: shards,
                        service_ns: machine.device_service_ns + backing,
                    });
                }
                for _ in 0..stores {
                    // RdOwn: wire + pipeline, then the shard's log engine
                    // appends the undo entry into the HBM log buffer.
                    // The PM drain and write back stay asynchronous
                    // (§3.2) — the thread never stalls on PM. This is the
                    // paper's §5 projection; whether background
                    // log/write-back traffic eats the PM write bandwidth
                    // is the open question §5.1 flags, modelled
                    // separately in the `bandwidth` harness.
                    stages.push(Stage::Compute(interpose));
                    stages.push(Stage::UseAny {
                        first: pipes,
                        count: shards,
                        service_ns: machine.device_service_ns,
                    });
                    // Under full multi-tenant contention a lane sees one
                    // tick's budget every T ticks (weighted round-robin),
                    // stretching the admission period accordingly.
                    let tick_share = machine.device_tick_ns * machine.device_tenants.max(1) as u64;
                    stages.push(Stage::UseAny {
                        first: logs,
                        count: shards,
                        service_ns: machine.log_engine_ns.max(tick_share),
                    });
                }
                (SimMachine::new(resources), OpRecipe { stages })
            }
        }
    }

    /// Convenience: run the Fig. 2b point for this backend.
    pub fn throughput(
        self,
        threads: usize,
        ops_per_thread: u64,
        latency: &LatencyProfile,
        machine: &MachineParams,
        op: &OpProfile,
    ) -> SimReport {
        let (sim, recipe) = self.build(latency, machine, op);
        sim.run(threads, ops_per_thread, &recipe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPS: u64 = 2_000;

    fn mops(b: Backend, threads: usize) -> f64 {
        b.throughput(
            threads,
            OPS,
            &LatencyProfile::c6420(),
            &MachineParams::paper(),
            &OpProfile::hash_insert_default(),
        )
        .mops()
    }

    #[test]
    fn figure_2b_ordering_at_32_threads() {
        let dram = mops(Backend::Dram, 32);
        let direct = mops(Backend::PmDirect, 32);
        let pmdk = mops(Backend::Pmdk, 32);
        assert!(dram > direct, "DRAM {dram} vs direct {direct}");
        assert!(direct > pmdk, "direct {direct} vs PMDK {pmdk}");
        // §5: "For 32 cores, PM Direct performs ≈2× better than PMDK".
        let ratio = direct / pmdk;
        assert!((1.5..=3.5).contains(&ratio), "direct/PMDK ratio {ratio}");
    }

    #[test]
    fn pax_matches_or_beats_pm_direct() {
        for threads in [1, 8, 16, 24, 32] {
            let direct = mops(Backend::PmDirect, threads);
            let pax = mops(Backend::Pax(Platform::Cxl), threads);
            assert!(pax >= direct * 0.95, "{threads} threads: PAX {pax} vs direct {direct}");
        }
    }

    #[test]
    fn enzian_pax_is_slower_than_cxl_pax() {
        let cxl = mops(Backend::Pax(Platform::Cxl), 16);
        let enzian = mops(Backend::Pax(Platform::Enzian), 16);
        assert!(enzian < cxl, "enzian {enzian} vs cxl {cxl}");
    }

    #[test]
    fn throughput_grows_with_threads_until_saturation() {
        for b in [Backend::Dram, Backend::PmDirect, Backend::Pmdk] {
            let t1 = mops(b, 1);
            let t8 = mops(b, 8);
            assert!(t8 > t1 * 1.5, "{}: t1 {t1}, t8 {t8}", b.label());
        }
    }

    #[test]
    fn pmdk_gap_holds_across_thread_counts() {
        // PMDK pays the WAL costs whether latency-bound (1 thread) or
        // bandwidth-bound (32 threads); the gap stays near the paper's 2×.
        for threads in [1, 32] {
            let gap = mops(Backend::PmDirect, threads) / mops(Backend::Pmdk, threads);
            assert!((1.5..=3.5).contains(&gap), "{threads} threads: gap {gap}");
        }
    }

    #[test]
    fn a_measured_event_rate_is_never_rounded_to_zero() {
        let writes = |stores_per_op| {
            let op = OpProfile { misses_per_op: 0.0, stores_per_op, compute_ns: 60 };
            let (_, recipe) =
                Backend::PmDirect.build(&LatencyProfile::c6420(), &MachineParams::paper(), &op);
            recipe.stages.iter().filter(|s| matches!(s, Stage::Use { resource: 1, .. })).count()
        };
        assert_eq!([writes(0.0), writes(0.4), writes(1.4), writes(1.6)], [0, 1, 1, 2]);
    }

    #[test]
    fn labels() {
        assert_eq!(Backend::Pax(Platform::Cxl).label(), "PAX (CXL)");
        assert_eq!(Backend::Pmdk.label(), "PMDK");
    }

    fn pax_mops(machine: &MachineParams, threads: usize) -> f64 {
        Backend::Pax(Platform::Cxl)
            .throughput(
                threads,
                OPS,
                &LatencyProfile::c6420(),
                machine,
                &OpProfile::hash_insert_default(),
            )
            .mops()
    }

    #[test]
    fn sharded_device_lifts_the_throughput_ceiling() {
        // One shard serialises undo-log appends on a single engine; four
        // shards parallelise them. The Fig. 2b acceptance bar is ≥ 1.5×
        // at 32 threads.
        let one = pax_mops(&MachineParams::paper(), 32);
        let four = pax_mops(&MachineParams { device_shards: 4, ..MachineParams::paper() }, 32);
        assert!(four >= one * 1.5, "S=1 {one} Mops, S=4 {four} Mops");
    }

    #[test]
    fn shard_count_one_is_the_default() {
        assert_eq!(MachineParams::paper().device_shards, 1);
        assert_eq!(MachineParams::default(), MachineParams::paper());
    }

    #[test]
    fn default_tick_rate_is_invisible() {
        // device_tick_ns == log_engine_ns by default, so the scheduler
        // changes no number the model produced before it existed.
        assert_eq!(MachineParams::paper().device_tick_ns, MachineParams::paper().log_engine_ns);
        let explicit = MachineParams { device_tick_ns: 25, ..MachineParams::paper() };
        assert_eq!(pax_mops(&explicit, 32), pax_mops(&MachineParams::paper(), 32));
    }

    #[test]
    fn slow_ticks_throttle_sustained_store_throughput() {
        // A scheduler ticking slower than the append engine becomes the
        // log bank's bottleneck: stores queue behind the tick period.
        let fast = pax_mops(&MachineParams::paper(), 32);
        let slow = pax_mops(&MachineParams { device_tick_ns: 200, ..MachineParams::paper() }, 32);
        assert!(slow < fast, "tick=200ns {slow} Mops vs tick=25ns {fast} Mops");
        // Sharding still parallelises the (slower) banks.
        let slow4 = pax_mops(
            &MachineParams { device_tick_ns: 200, device_shards: 4, ..MachineParams::paper() },
            32,
        );
        assert!(slow4 > slow, "S=4 {slow4} Mops vs S=1 {slow} Mops at tick=200ns");
    }

    #[test]
    fn single_tenant_is_the_invisible_default() {
        assert_eq!(MachineParams::paper().device_tenants, 1);
        let explicit = MachineParams { device_tenants: 1, ..MachineParams::paper() };
        assert_eq!(pax_mops(&explicit, 32), pax_mops(&MachineParams::paper(), 32));
    }

    #[test]
    fn tenant_contention_throttles_per_tenant_stores_and_shards_recover_it() {
        // Four tenants contending for one shard's tick budget stretch the
        // per-lane admission period 4x; giving the device four shards
        // gives the parallelism back.
        let solo = pax_mops(&MachineParams::paper(), 32);
        let contended =
            pax_mops(&MachineParams { device_tenants: 4, ..MachineParams::paper() }, 32);
        assert!(contended < solo, "T=4 {contended} Mops vs T=1 {solo} Mops");
        let sharded = pax_mops(
            &MachineParams { device_tenants: 4, device_shards: 4, ..MachineParams::paper() },
            32,
        );
        assert!(sharded > contended, "S=4 {sharded} Mops vs S=1 {contended} Mops at T=4");
    }

    #[test]
    fn persist_pricing_rewards_filtering_and_batching() {
        let m = MachineParams::paper();
        // The throughput recipes never touch the new knobs, so they are
        // invisible defaults for every existing series.
        assert_eq!(pax_mops(&m, 32), pax_mops(&MachineParams::paper(), 32));
        // Filtering: fewer snoops, strictly cheaper sweep.
        let unfiltered = m.persist_epoch_ns(64, 64);
        let filtered = m.persist_epoch_ns(8, 64);
        assert!(filtered < unfiltered, "filtered {filtered} vs unfiltered {unfiltered}");
        // Batching: same lines, fewer PM write admissions.
        let unbatched = MachineParams { writeback_batch: 1, ..m };
        assert!(m.persist_epoch_ns(0, 64) < unbatched.persist_epoch_ns(0, 64));
        // 64 lines at batch 8 = 8 admissions + 64 snoops.
        assert_eq!(unfiltered, 64 * m.snoop_ns + 8 * m.pm_write_service_ns);
    }

    #[test]
    fn persistency_models_price_in_strict_order() {
        let m = MachineParams::paper();
        // A 64-store epoch, snoop-filtered down to 8 host round trips.
        let strict = m.epoch_close_visible_ns(PersistencyModel::Strict, 64, 64);
        let epoch = m.epoch_close_visible_ns(PersistencyModel::Epoch, 8, 64);
        let buffered = m.epoch_close_visible_ns(PersistencyModel::buffered(4), 8, 64);
        assert!(
            strict > epoch && epoch > buffered,
            "strict {strict} > epoch {epoch} > buffered {buffered}"
        );
        // Strict forfeits both amortisations: per store, one snoop plus
        // an unbatched log write and data write.
        assert_eq!(strict, 64 * (m.snoop_ns + 2 * m.pm_write_service_ns));
        // Epoch pays the sweep plus one commit record.
        assert_eq!(epoch, m.persist_epoch_ns(8, 64) + m.pm_write_service_ns);
        // Buffered pays only the commit record, whatever the epoch size.
        assert_eq!(buffered, m.pm_write_service_ns);
        assert_eq!(
            m.epoch_close_visible_ns(PersistencyModel::buffered(2), 1000, 1000),
            m.pm_write_service_ns
        );
        // An empty strict epoch still prices one store's barrier.
        assert!(m.epoch_close_visible_ns(PersistencyModel::Strict, 0, 0) > 0);
    }

    #[test]
    fn pax_resource_table_is_banked_per_shard() {
        let sharded = MachineParams { device_shards: 3, ..MachineParams::paper() };
        let (sim, recipe) = Backend::Pax(Platform::Cxl).build(
            &LatencyProfile::c6420(),
            &sharded,
            &OpProfile::hash_insert_default(),
        );
        // pm_read, pm_write, 3 pipelines, 3 log engines.
        assert_eq!(sim.resources().len(), 8);
        let r = sim.run(2, 10, &recipe);
        assert_eq!(r.ops, 20, "banked recipe must stay runnable");
    }
}
