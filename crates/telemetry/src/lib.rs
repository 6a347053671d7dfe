//! Foundation crate for PAX observability.
//!
//! Every simulated component in the stack — PM media, the host cache
//! hierarchy, the PAX device — records its counters in a
//! [`MetricSet`] owned by that component, and optionally emits structured
//! [`TraceEvent`]s into a bounded [`TraceBuf`]. Snapshots of many metric
//! sets combine into a [`TelemetrySnapshot`] (what `PaxPool::telemetry()`
//! returns), and everything serializes through the hand-rolled [`Json`]
//! emitter (`DESIGN.md §3`: no serde in this workspace).
//!
//! Design rules:
//!
//! * **One copy of every counter.** Components do not keep shadow stats
//!   structs; typed views (e.g. `DeviceMetrics`) are built on demand from
//!   the registry.
//! * **Hot-path increments are an indexed add.** A [`Counter`] is a
//!   `Copy` slot handle; `MetricSet::inc` is `self.values[slot] += 1`
//!   with no hashing or locking.
//! * **Traces are replayable.** [`TraceBuf::dump_json_lines`] round-trips
//!   through [`TraceBuf::parse_json_lines`], so a post-crash dump is
//!   enough to reconstruct the event sequence leading up to the crash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod metrics;
mod report;
mod trace;

pub use json::Json;
pub use metrics::{
    Counter, Histogram, HistogramSnapshot, MetricSet, MetricSnapshot, TelemetrySnapshot,
};
pub use report::Report;
pub use trace::{TraceBuf, TraceEvent, TraceRecord};
