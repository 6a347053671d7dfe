//! Platform adapters — the paper's portability layer.
//!
//! §4: "our plan is to implement an 'adapter' layer at the FPGA that
//! filters and adapts the ThunderX's coherence messages to match the CXL
//! specification so our implementation will be immediately portable to
//! commodity machines when CXL devices arrive." [`CoherenceAdapter`] is
//! that layer's contract; [`CxlNative`] is the identity adapter a real
//! CXL device would use and [`EnzianAdapter`] filters/translates the
//! [`EciMsg`] stream.
//!
//! §6 additionally ranks platforms by how much coherence visibility they
//! give the device — "CXL.mem can support basic functionality, but it does
//! not have as much visibility into coherence as CXL.cache, which has less
//! visibility than Enzian". [`Capability`] encodes that lattice.

use crate::eci::EciMsg;
use crate::message::H2DReq;

/// How much of the host's coherence traffic a platform exposes (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Capability {
    /// CXL.mem: the device is a plain memory target. It sees reads and
    /// writes that reach it but no ownership traffic — it cannot tell
    /// *when* a line is about to be modified, so asynchronous undo logging
    /// before write back is impossible; only store-through designs work.
    MemOnly,
    /// CXL.cache: the device is the home agent; it sees RdShared/RdOwn
    /// and evictions — everything PAX needs.
    CacheHome,
    /// Enzian/ECI: raw bus-level visibility, a superset of CXL.cache
    /// (including microarchitectural noise the adapter must filter).
    FullBus,
}

impl Capability {
    /// Whether this capability level suffices for PAX's asynchronous undo
    /// logging (the device must see ownership requests before data exists).
    pub fn supports_undo_logging(self) -> bool {
        self >= Capability::CacheHome
    }
}

/// Translates platform-native coherence events into CXL.cache requests.
///
/// Implementations are cheap, stateless filters; the device logic consumes
/// only the translated [`H2DReq`] stream and is therefore portable across
/// platforms (the paper's key deployment argument for CXL).
pub trait CoherenceAdapter {
    /// The coherence visibility of this platform.
    fn capability(&self) -> Capability;

    /// Translates one native message; `None` means "filtered out" (no CXL
    /// equivalent, or below this platform's visibility).
    fn translate(&self, native: EciMsg) -> Option<H2DReq>;
}

/// Identity adapter for a native CXL 2.0 device: the host home agent
/// already speaks CXL.cache, so translation only renames events.
#[derive(Debug, Clone, Copy, Default)]
pub struct CxlNative;

impl CoherenceAdapter for CxlNative {
    fn capability(&self) -> Capability {
        Capability::CacheHome
    }

    fn translate(&self, native: EciMsg) -> Option<H2DReq> {
        match native {
            EciMsg::LoadMiss { addr } => Some(H2DReq::RdShared { addr }),
            EciMsg::StoreMiss { addr } | EciMsg::UpgradeReq { addr } => {
                Some(H2DReq::RdOwn { addr })
            }
            EciMsg::VictimClean { addr } => Some(H2DReq::CleanEvict { addr }),
            EciMsg::VictimDirty { addr, data } => Some(H2DReq::DirtyEvict { addr, data }),
            // A CXL home agent never sees these at all.
            EciMsg::PrefetchProbe { .. } | EciMsg::SpeculativeRead { .. } | EciMsg::DvmOp => None,
        }
    }
}

/// The Enzian adapter: filters ThunderX bus noise and translates the rest
/// to CXL semantics (§4). Functionally identical output to [`CxlNative`],
/// but at [`Capability::FullBus`] visibility, and it counts how much noise
/// it filtered. Platform timing is not the adapter's business: it comes
/// from `LatencyProfile::interposition_ns`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnzianAdapter {
    filtered: u64,
    translated: u64,
}

impl EnzianAdapter {
    /// A fresh adapter with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Messages dropped as microarchitectural noise so far.
    pub fn filtered(&self) -> u64 {
        self.filtered
    }

    /// Messages successfully translated so far.
    pub fn translated(&self) -> u64 {
        self.translated
    }

    /// Translates while updating the noise counters (the trait method is
    /// `&self`; stats-keeping callers use this).
    pub fn translate_counted(&mut self, native: EciMsg) -> Option<H2DReq> {
        let out = self.translate(native);
        match out {
            Some(_) => self.translated += 1,
            None => self.filtered += 1,
        }
        out
    }
}

impl CoherenceAdapter for EnzianAdapter {
    fn capability(&self) -> Capability {
        Capability::FullBus
    }

    fn translate(&self, native: EciMsg) -> Option<H2DReq> {
        // Same semantic mapping as native CXL; Enzian's extra visibility
        // is noise from PAX's perspective and is filtered here.
        CxlNative.translate(native)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_pm::{CacheLine, LineAddr};

    #[test]
    fn capability_lattice_matches_section_6() {
        assert!(Capability::MemOnly < Capability::CacheHome);
        assert!(Capability::CacheHome < Capability::FullBus);
        assert!(!Capability::MemOnly.supports_undo_logging());
        assert!(Capability::CacheHome.supports_undo_logging());
        assert!(Capability::FullBus.supports_undo_logging());
    }

    #[test]
    fn cxl_native_translation_table() {
        let a = LineAddr(4);
        let c = CxlNative;
        assert_eq!(c.translate(EciMsg::LoadMiss { addr: a }), Some(H2DReq::RdShared { addr: a }));
        assert_eq!(c.translate(EciMsg::StoreMiss { addr: a }), Some(H2DReq::RdOwn { addr: a }));
        assert_eq!(c.translate(EciMsg::UpgradeReq { addr: a }), Some(H2DReq::RdOwn { addr: a }));
        assert_eq!(
            c.translate(EciMsg::VictimClean { addr: a }),
            Some(H2DReq::CleanEvict { addr: a })
        );
        let data = CacheLine::filled(1);
        assert_eq!(
            c.translate(EciMsg::VictimDirty { addr: a, data: data.clone() }),
            Some(H2DReq::DirtyEvict { addr: a, data })
        );
    }

    #[test]
    fn noise_is_filtered_on_both_platforms() {
        let a = LineAddr(4);
        for adapter in [&CxlNative as &dyn CoherenceAdapter, &EnzianAdapter::new()] {
            assert_eq!(adapter.translate(EciMsg::PrefetchProbe { addr: a }), None);
            assert_eq!(adapter.translate(EciMsg::SpeculativeRead { addr: a }), None);
            assert_eq!(adapter.translate(EciMsg::DvmOp), None);
        }
    }

    #[test]
    fn enzian_counts_noise() {
        let mut e = EnzianAdapter::new();
        e.translate_counted(EciMsg::LoadMiss { addr: LineAddr(0) });
        e.translate_counted(EciMsg::PrefetchProbe { addr: LineAddr(0) });
        e.translate_counted(EciMsg::DvmOp);
        assert_eq!(e.translated(), 1);
        assert_eq!(e.filtered(), 2);
    }

    #[test]
    fn adapters_differ_only_in_capability() {
        let cxl = CxlNative;
        let enz = EnzianAdapter::new();
        assert_eq!(cxl.capability(), Capability::CacheHome);
        assert_eq!(enz.capability(), Capability::FullBus);
        // Semantics identical:
        let m = EciMsg::StoreMiss { addr: LineAddr(9) };
        assert_eq!(cxl.translate(m.clone()), enz.translate(m));
    }
}
