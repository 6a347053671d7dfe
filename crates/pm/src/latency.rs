//! Latency and bandwidth parameters for the platforms the paper models.
//!
//! All figures come from the sources the paper itself cites:
//!
//! * **DRAM / Optane DC PMM**: Yang et al., *An Empirical Guide to the
//!   Behavior and Use of Scalable Persistent Memory*, FAST '20 — sequential
//!   PM read latency ≈ 169 ns, random ≈ 305 ns (the paper uses 305 ns,
//!   §4); a store is considered durable once accepted by the iMC write
//!   pending queue (≈ 94 ns under ADR). Per-socket bandwidth ≈ 40 GB/s
//!   read / 14 GB/s write (§5.1).
//! * **CXL**: CXL 2.0 is layered on PCIe 5.0 — ≈ 63 GB/s full-duplex at
//!   x16 (§5.1); expected added round-trip latency for a .cache access is
//!   in the 50–80 ns range, we use 70 ns.
//! * **Enzian**: Cock et al., ASPLOS '22 — ECI coherence round trips over
//!   24×10 Gb/s lanes cost several hundred ns; the paper estimates an
//!   Enzian PAX at ≈ 2× the AMAT overhead of a CXL PAX (Fig. 2a), which a
//!   500 ns interposition latency reproduces.
//! * **CPU caches**: typical Skylake-SP (Cloudlab c6420, dual Xeon Gold
//!   6142) load-to-use latencies: L1 4 cycles, L2 14 cycles, LLC ≈ 50–70
//!   cycles at 2.6 GHz.

/// Read/write latency of one memory medium, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MediaLatency {
    /// Latency of a line read that reaches the medium.
    pub read_ns: u64,
    /// Latency until a line write is accepted (durable under ADR for PM).
    pub write_ns: u64,
}

/// The platform an access path runs on; selects an interposition latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Platform {
    /// Direct CPU attachment, no accelerator (DRAM or raw PM DIMM).
    Direct,
    /// PAX attached over CXL.cache (the paper's target deployment).
    Cxl,
    /// PAX prototyped on the Enzian CPU–FPGA research computer.
    Enzian,
}

/// A complete latency model: cache levels, media, and interposition costs.
///
/// [`LatencyProfile::c6420`] reproduces the machine used for the paper's
/// Fig. 2a estimates. Use the builder-style `with_*` methods to explore
/// other design points (the ablation benches do).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyProfile {
    /// L1D hit latency.
    pub l1_ns: u64,
    /// L2 hit latency.
    pub l2_ns: u64,
    /// Last-level cache hit latency.
    pub llc_ns: u64,
    /// DRAM access latency (LLC miss served by DRAM).
    pub dram: MediaLatency,
    /// PM (Optane DC) access latency (LLC miss served by PM).
    pub pm: MediaLatency,
    /// Added latency for an LLC miss interposed by a CXL-attached PAX.
    pub cxl_overhead_ns: u64,
    /// Added latency for an LLC miss interposed by an Enzian-attached PAX.
    pub enzian_overhead_ns: u64,
    /// On-device HBM cache hit latency (misses continue to PM).
    pub hbm_ns: u64,
    /// Cost of an SFENCE ordering stall (WAL baselines pay these).
    pub sfence_ns: u64,
    /// Cost of a write-protection page-fault trap (page-based baselines).
    pub trap_ns: u64,
}

impl LatencyProfile {
    /// The Cloudlab c6420 model used for the paper's Fig. 2a estimates.
    pub const fn c6420() -> Self {
        LatencyProfile {
            l1_ns: 2,   // 4 cycles @ 2.6 GHz
            l2_ns: 5,   // 14 cycles
            llc_ns: 20, // ~52 cycles
            dram: MediaLatency { read_ns: 81, write_ns: 86 },
            pm: MediaLatency { read_ns: 305, write_ns: 94 },
            cxl_overhead_ns: 70,
            enzian_overhead_ns: 500,
            hbm_ns: 60,
            sfence_ns: 100,
            trap_ns: 1_000, // ">1 µs per trap" (§1)
        }
    }

    /// Latency of an LLC miss to PM on `platform`, including interposition.
    pub fn pm_miss_ns(&self, platform: Platform) -> u64 {
        self.pm.read_ns + self.interposition_ns(platform)
    }

    /// The accelerator interposition cost on `platform` (0 when direct).
    pub fn interposition_ns(&self, platform: Platform) -> u64 {
        match platform {
            Platform::Direct => 0,
            Platform::Cxl => self.cxl_overhead_ns,
            Platform::Enzian => self.enzian_overhead_ns,
        }
    }
}

impl Default for LatencyProfile {
    fn default() -> Self {
        Self::c6420()
    }
}

/// Bandwidth figures for the §5.1 bottleneck analysis, in GB/s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthProfile {
    /// CXL (PCIe 5.0 x16) full-duplex bandwidth per direction.
    pub cxl_gbps: f64,
    /// Optane per-socket read bandwidth.
    pub pm_read_gbps: f64,
    /// Optane per-socket write bandwidth.
    pub pm_write_gbps: f64,
    /// Clock rate of the device handling coherence messages, Hz.
    pub device_clock_hz: f64,
    /// Coherence messages the device can retire per clock cycle.
    pub device_msgs_per_cycle: f64,
}

impl BandwidthProfile {
    /// The paper's §5.1 figures: PCIe 5 x16, one Optane socket, CVU9P FPGA
    /// at 300 MHz retiring one message per cycle.
    pub const fn paper() -> Self {
        BandwidthProfile {
            cxl_gbps: 63.0,
            pm_read_gbps: 40.0,
            pm_write_gbps: 14.0,
            device_clock_hz: 300.0e6,
            device_msgs_per_cycle: 1.0,
        }
    }

    /// Peak coherence messages/second the device can retire.
    pub fn device_msgs_per_sec(&self) -> f64 {
        self.device_clock_hz * self.device_msgs_per_cycle
    }

    /// Line transfers/second the CXL link supports in one direction.
    pub fn cxl_lines_per_sec(&self) -> f64 {
        self.cxl_gbps * 1e9 / crate::LINE_SIZE as f64
    }
}

impl Default for BandwidthProfile {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c6420_matches_cited_numbers() {
        let p = LatencyProfile::c6420();
        assert_eq!(p.pm.read_ns, 305); // §4: "persistent memory accesses take 305 ns"
        assert!(p.trap_ns >= 1_000); // §1: ">1 µs per trap"
    }

    #[test]
    fn interposition_ordering() {
        let p = LatencyProfile::c6420();
        assert_eq!(p.interposition_ns(Platform::Direct), 0);
        assert!(p.interposition_ns(Platform::Cxl) < p.interposition_ns(Platform::Enzian));
        assert!(p.pm_miss_ns(Platform::Cxl) > p.pm.read_ns);
    }

    #[test]
    fn bandwidth_paper_numbers() {
        let b = BandwidthProfile::paper();
        assert_eq!(b.device_msgs_per_sec(), 300.0e6);
        // 63 GB/s over 64 B lines ≈ 984 M lines/s — far above the device's
        // 300 M msg/s, supporting §5.1's "I/O bus is not the bottleneck".
        assert!(b.cxl_lines_per_sec() > b.device_msgs_per_sec());
    }
}
