//! CXL.cache message vocabulary.
//!
//! Names follow CXL 2.0 §3.2: the host CPU's cache home agent forwards
//! requests for device-homed (vPM) lines on the H2D channels. Only the
//! opcodes PAX consumes are modelled — this is the "information content"
//! of the protocol, not a flit-accurate encoding. The device's back-snoops
//! (`SnpData`, `SnpInv`) need no message type: the device issues them as
//! `HostSnoop` calls against the host cache model.

use pax_pm::{CacheLine, LineAddr};

/// Host→device request: the CPU needs a device-homed line.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum H2DReq {
    /// Read miss: the CPU wants `addr` in shared state.
    RdShared {
        /// The vPM line being read.
        addr: LineAddr,
    },
    /// Read-for-ownership: the CPU is about to modify `addr`. The device
    /// learns a new value for this line will exist — the undo-log hook.
    RdOwn {
        /// The vPM line being modified.
        addr: LineAddr,
    },
    /// The CPU drops a clean copy of `addr`.
    CleanEvict {
        /// The line being dropped.
        addr: LineAddr,
    },
    /// The CPU writes back the modified contents of `addr`.
    DirtyEvict {
        /// The line being written back.
        addr: LineAddr,
        /// Its modified contents.
        data: CacheLine,
    },
}
