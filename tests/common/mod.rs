//! The crash-consistency checker every crash suite runs on (DESIGN.md
//! §17). The paper's one promise (§3.4) — a crash at any point recovers
//! each tenant's last committed `persist()` snapshot — stated once:
//!
//! * **Schedule**: a `Vec<Step>`, from a seeded generator or a literal.
//! * **Oracle**: [`drive`] models every close, [`Crashed::recover`]
//!   judges what recovery restored.
//! * **Matrix**: [`Point`] — shards × tenants × cores × persistency ×
//!   snoop filter.
//! * **Modes**: [`exhaustive`], [`random`], [`sweep`], [`differential`];
//!   every failure is cut down by [`shrink`] and printed as a
//!   [`check_or_fail`] call to pin as a regression.
//! * **Media faults**: [`Crashed::inject`] damages the durable image.

// Each suite drives only its slice of the checker, so every item here is
// unused in some suite; none is unused in all of them (build each suite
// with this line removed to see).
#![allow(dead_code, unused_imports)]

mod oracle;
mod schedule;
mod search;

pub use oracle::*;
pub use schedule::*;
pub use search::*;
