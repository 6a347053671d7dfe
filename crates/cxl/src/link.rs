//! Link and media bandwidth model — the §5.1 bottleneck analysis.
//!
//! §5.1 argues that a PAX deployment is limited not by the CXL link
//! (63 GB/s full duplex) or by PM media bandwidth (40 GB/s read, 14 GB/s
//! write per socket) but — for the Enzian prototype — by the device's
//! message-processing rate (a 300 MHz FPGA must answer a coherence message
//! nearly every cycle to saturate the interconnect). [`LinkModel`] turns an
//! offered load (LLC misses and write backs per second) into utilisations
//! of each resource and identifies the binding one.

use pax_pm::BandwidthProfile;

/// A shared resource that can bound PAX throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Resource {
    /// CXL/PCIe link, host→device direction.
    LinkH2D,
    /// CXL/PCIe link, device→host direction.
    LinkD2H,
    /// PM media read bandwidth.
    PmRead,
    /// PM media write bandwidth (data write back + undo-log appends).
    PmWrite,
    /// The device's coherence-message processing rate.
    DeviceMsgRate,
}

impl Resource {
    /// Human-readable name used by the bench harness tables.
    pub fn label(self) -> &'static str {
        match self {
            Resource::LinkH2D => "CXL link (H2D)",
            Resource::LinkD2H => "CXL link (D2H)",
            Resource::PmRead => "PM read bandwidth",
            Resource::PmWrite => "PM write bandwidth",
            Resource::DeviceMsgRate => "device message rate",
        }
    }

    /// Stable machine-readable key used in JSON reports.
    pub fn key(self) -> &'static str {
        match self {
            Resource::LinkH2D => "link_h2d",
            Resource::LinkD2H => "link_d2h",
            Resource::PmRead => "pm_read",
            Resource::PmWrite => "pm_write",
            Resource::DeviceMsgRate => "device_msg_rate",
        }
    }
}

/// Offered load on the PAX data path, in events per second.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OfferedLoad {
    /// LLC read misses per second reaching the device.
    pub read_misses_per_sec: f64,
    /// RdOwn (store-intent) messages per second.
    pub rdown_per_sec: f64,
    /// Dirty write backs (host→device) per second.
    pub dirty_evicts_per_sec: f64,
    /// Fraction of device reads served by on-device HBM instead of PM.
    pub hbm_hit_rate: f64,
}

/// Utilisation of every resource under an offered load.
#[derive(Debug, Clone, PartialEq)]
pub struct BottleneckReport {
    /// `(resource, utilisation)` pairs; 1.0 = saturated.
    pub utilisation: Vec<(Resource, f64)>,
}

impl BottleneckReport {
    /// The resource with the highest utilisation.
    pub fn binding(&self) -> (Resource, f64) {
        self.utilisation
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("report always has entries")
    }

    /// Utilisation of a specific resource.
    pub fn of(&self, r: Resource) -> f64 {
        self.utilisation.iter().find(|(res, _)| *res == r).map(|(_, u)| *u).unwrap_or(0.0)
    }

    /// The report as a JSON object: per-resource utilisation plus the
    /// binding resource, in the shared bench report schema.
    pub fn to_json(&self) -> pax_telemetry::Json {
        use pax_telemetry::Json;
        let mut util = Json::obj();
        for (r, u) in &self.utilisation {
            util = util.field(r.key(), Json::F64(*u));
        }
        let (binding, u) = self.binding();
        Json::obj()
            .field("utilisation", util)
            .field("binding", Json::str(binding.key()))
            .field("binding_utilisation", Json::F64(u))
            .field("feasible", Json::Bool(u <= 1.0))
    }
}

/// Bandwidth model over a [`BandwidthProfile`].
#[derive(Debug, Clone, Copy)]
pub struct LinkModel {
    profile: BandwidthProfile,
}

impl LinkModel {
    /// A model with the paper's §5.1 constants.
    pub fn new(profile: BandwidthProfile) -> Self {
        LinkModel { profile }
    }

    /// The profile in use.
    pub fn profile(&self) -> BandwidthProfile {
        self.profile
    }

    /// Computes per-resource utilisation for `load`.
    ///
    /// Accounting:
    /// * every read miss moves one line D2H (data to host); every dirty
    ///   evict moves one line H2D; RdOwn responses also carry data D2H;
    /// * each logged store costs PM **two** line writes (undo entry +
    ///   eventual data write back) and one PM read (old value fetch),
    ///   minus those served by HBM;
    /// * every message (reads, RdOwn, evicts) consumes one device cycle.
    pub fn analyze(&self, load: &OfferedLoad) -> BottleneckReport {
        let line = pax_pm::LINE_SIZE as f64;
        let p = &self.profile;

        let d2h_bytes = (load.read_misses_per_sec + load.rdown_per_sec) * line;
        let h2d_bytes = load.dirty_evicts_per_sec * line;

        let pm_served = 1.0 - load.hbm_hit_rate;
        // Reads that reach PM: demand misses + RdOwn old-value fetches.
        let pm_read_bytes = (load.read_misses_per_sec + load.rdown_per_sec) * pm_served * line;
        // Writes that reach PM: undo-log append per RdOwn + data write back.
        let pm_write_bytes = (load.rdown_per_sec + load.dirty_evicts_per_sec) * line;

        let msgs = load.read_misses_per_sec + load.rdown_per_sec + load.dirty_evicts_per_sec;

        let gb = 1e9;
        BottleneckReport {
            utilisation: vec![
                (Resource::LinkH2D, h2d_bytes / (p.cxl_gbps * gb)),
                (Resource::LinkD2H, d2h_bytes / (p.cxl_gbps * gb)),
                (Resource::PmRead, pm_read_bytes / (p.pm_read_gbps * gb)),
                (Resource::PmWrite, pm_write_bytes / (p.pm_write_gbps * gb)),
                (Resource::DeviceMsgRate, msgs / p.device_msgs_per_sec()),
            ],
        }
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        Self::new(BandwidthProfile::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(misses: f64, rdown: f64, evicts: f64) -> OfferedLoad {
        OfferedLoad {
            read_misses_per_sec: misses,
            rdown_per_sec: rdown,
            dirty_evicts_per_sec: evicts,
            hbm_hit_rate: 0.0,
        }
    }

    #[test]
    fn device_msg_rate_binds_before_the_link() {
        // §5.1: "hundreds of millions of LLC misses per second" vs a
        // 300 MHz device: the device binds first, not the I/O bus.
        let m = LinkModel::default();
        let r = m.analyze(&load(200e6, 50e6, 50e6));
        let (binding, _) = r.binding();
        assert_eq!(binding, Resource::DeviceMsgRate);
        assert!(r.of(Resource::LinkD2H) < r.of(Resource::DeviceMsgRate));
    }

    #[test]
    fn write_heavy_load_pressures_pm_write_bandwidth() {
        // Remove the device bottleneck (ASIC-class message rate, §5.1's
        // "designs ... that include ASICs would likely outperform") and a
        // write-heavy load binds on PM's 14 GB/s write side.
        let fast_device = BandwidthProfile { device_clock_hz: 3.0e9, ..BandwidthProfile::paper() };
        let m = LinkModel::new(fast_device);
        let r = m.analyze(&load(10e6, 100e6, 100e6));
        assert_eq!(r.binding().0, Resource::PmWrite);
    }

    #[test]
    fn hbm_hits_relieve_pm_reads() {
        let m = LinkModel::default();
        let mut l = load(100e6, 0.0, 0.0);
        let before = m.analyze(&l).of(Resource::PmRead);
        l.hbm_hit_rate = 0.9;
        let after = m.analyze(&l).of(Resource::PmRead);
        assert!(after < before * 0.2);
    }

    #[test]
    fn feasibility_and_scale() {
        let m = LinkModel::default();
        let u = m.analyze(&load(1e6, 1e6, 1e6)).binding().1;
        assert!(u > 0.0 && u < 1.0, "a small load is feasible");
        // Utilisation is linear in the load: scaling by 1/u saturates
        // the binding resource exactly.
        let k = 1.0 / u;
        let at_max = m.analyze(&load(1e6 * k, 1e6 * k, 1e6 * k)).binding().1;
        assert!((at_max - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_load_is_free() {
        let m = LinkModel::default();
        let r = m.analyze(&OfferedLoad::default());
        assert_eq!(r.binding().1, 0.0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Resource::DeviceMsgRate.label(), "device message rate");
    }
}
