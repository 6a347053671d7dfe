//! CXL.cache protocol model for the PAX reproduction.
//!
//! PAX (§4) interposes on the coherence messages a CXL 2.0 device receives
//! as the home agent of the vPM range. This crate models that protocol
//! surface:
//!
//! * [`message`] — the host→device request vocabulary, named after CXL
//!   2.0 §3.2 opcodes (`RdShared`, `RdOwn`, `CleanEvict`, `DirtyEvict`).
//! * [`eci`] — a simplified rendition of Enzian's lower-level,
//!   ThunderX-coupled coherence messages.
//! * [`adapter`] — the paper's "adapter layer": translates platform-native
//!   messages to CXL semantics so the device logic is portable
//!   ([`CxlNative`], [`EnzianAdapter`]), with a [`Capability`] lattice for
//!   the §6 CXL.mem < CXL.cache < Enzian visibility comparison.
//! * [`link`] — PCIe 5.0 / PM bandwidth model for the §5.1 bottleneck
//!   analysis.
//!
//! The device itself is driven through `pax_cache::HomeAgent` calls, not
//! through queued messages: PAX uses only the information content of the
//! protocol. The link traffic a run implies is derived from the device's
//! own request counters (the pool's `cxl` telemetry component).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod eci;
pub mod link;
pub mod message;

pub use adapter::{Capability, CoherenceAdapter, CxlNative, EnzianAdapter};
pub use eci::EciMsg;
pub use link::{BottleneckReport, LinkModel, Resource};
pub use message::H2DReq;
