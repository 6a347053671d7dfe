//! Interior-mutability cells for the concurrent device.
//!
//! A `Send + Sync` [`PaxDevice`](crate::PaxDevice) keeps the PM media
//! and the trace buffer global (per-lane state — undo banks, HBM sets,
//! write-back queues — lives in lock-free or finely striped structures
//! of its own), but both must be reachable from `&self`. These cells
//! wrap them:
//!
//! * [`PoolCell`] — the single media lock. Shard engines receive
//!   `&PoolCell` and lock it only around actual durable-write steps, so
//!   an HBM hit or an undo-bank append never touches the global lock.
//!   **Never call a `&PoolCell`-taking function while holding its
//!   guard** — the `Mutex` is not reentrant.
//! * [`TraceCell`] — the trace lock, with the enabled flag hoisted out:
//!   a device opened with `trace_capacity = 0` (every measured bench)
//!   records through an unsynchronized boolean check and never takes the
//!   lock at all.
//!
//! * [`WbGate`] — one per lane: serializes that lane's *write-back
//!   drains* (background steps, persist batches, forced drains) against
//!   each other — the only lane-local lock. Lock order: ctl → core →
//!   wb-gate → HBM set → pool → trace (DESIGN.md §15).
//!
//! All are the vendored `parking_lot` shim's poison-free locks, like
//! every other lock in the crate: a panicked thread must not wedge every
//! other thread's persist.

use std::sync::MutexGuard;

use parking_lot::Mutex;
use pax_pm::PmPool;
use pax_telemetry::{TraceBuf, TraceEvent};

/// The device's PM media behind its single lock (see module docs).
#[derive(Debug)]
pub(crate) struct PoolCell(Mutex<PmPool>);

impl PoolCell {
    pub(crate) fn new(pool: PmPool) -> Self {
        PoolCell(Mutex::new(pool))
    }

    /// Locks the media. Hold the guard only across the durable-write
    /// steps that need it.
    pub(crate) fn lock(&self) -> MutexGuard<'_, PmPool> {
        self.0.lock()
    }

    pub(crate) fn into_inner(self) -> PmPool {
        self.0.into_inner()
    }
}

/// A lane's write-back drain gate (see module docs). Consumers of the
/// lane's [`WbQueue`](crate::shard::WbQueue) must hold this for the
/// whole pop-check-write sequence so two drains never interleave their
/// queue pops with their PM writes.
#[derive(Debug, Default)]
pub(crate) struct WbGate(Mutex<()>);

impl WbGate {
    /// Locks the gate.
    pub(crate) fn lock(&self) -> MutexGuard<'_, ()> {
        self.0.lock()
    }
}

/// The device's trace buffer behind a lock, skipped entirely when
/// tracing is disabled (see module docs).
#[derive(Debug)]
pub(crate) struct TraceCell {
    enabled: bool,
    inner: Mutex<TraceBuf>,
}

impl TraceCell {
    pub(crate) fn new(trace: TraceBuf) -> Self {
        TraceCell { enabled: trace.is_enabled(), inner: Mutex::new(trace) }
    }

    /// Appends a record; a no-op without the lock when tracing is off.
    pub(crate) fn record(&self, component: &'static str, event: TraceEvent) {
        if self.enabled {
            self.inner.lock().record(component, event);
        }
    }

    /// Direct access for dump/forensics paths.
    pub(crate) fn lock(&self) -> MutexGuard<'_, TraceBuf> {
        self.inner.lock()
    }

    pub(crate) fn into_inner(self) -> TraceBuf {
        self.inner.into_inner()
    }
}
