//! Layer spans recorded from outside the program.
//!
//! The traced run wraps each layer at its boundary: [`TimedSpace`] is a
//! [`MemSpace`] around the pool's `VPm`, [`TimedAlloc`] a
//! [`PmAllocator`] around `BitmapAlloc`, and the workload code opens
//! spans around each structure operation, `persist()`, `PaxPool::open`,
//! `BitmapAlloc::attach` and `PHashMap::attach`. The unchanged structure
//! code then calls into the allocator and the pool through spans.
//!
//! Spans live in a per-thread buffer (a thread-local stack), so tracing
//! never makes two client threads share a lock or a cache line. A span
//! knows its kind, start, end and parent (the span below it on the
//! stack). When a span closes, its self time — its duration minus the time its children cover — is
//! folded into the thread's per-kind series; the series are merged across
//! threads when the run ends.

use std::cell::RefCell;
use std::time::Instant;

use libpax::{MemSpace, PmAllocator, Result};

use crate::stats::Histogram;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One structure-level operation (`libpax::structures`).
    Op,
    /// `BitmapAlloc::alloc` (`libpax::balloc`).
    Alloc,
    /// `BitmapAlloc::free`.
    Free,
    /// A `VPm` read (`libpax::pool` and everything beneath it).
    SpaceRead,
    /// A `VPm` write.
    SpaceWrite,
    /// `persist()`.
    Persist,
    /// `PaxPool::open` after a crash (device recovery).
    Open,
    /// `BitmapAlloc::attach` after a crash.
    AttachAlloc,
    /// `PHashMap::attach` after a crash.
    AttachMap,
    /// The benchmark's own crash-oracle read-back.
    Oracle,
}

/// Number of span kinds.
pub const KINDS: usize = 10;

/// Per-kind totals of one thread's (or, merged, one run's) spans.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Self time of each span, per kind, except spans inside the oracle's
    /// read-back (the benchmark's own reads are not the client path).
    pub self_ns: [Histogram; KINDS],
    /// Duration of each span with no parent, per kind.
    pub top_ns: [Histogram; KINDS],
    /// Sum of self times, per kind.
    pub self_total_ns: [u64; KINDS],
    /// Sum of durations of spans with no parent, per kind.
    pub top_total_ns: [u64; KINDS],
    /// Spans closed, per kind.
    pub calls: [u64; KINDS],
    /// Spans closed inside an [`Kind::Op`] span, per kind.
    pub calls_in_op: [u64; KINDS],
}

impl LayerTimes {
    /// Folds another thread's totals in.
    pub fn merge(&mut self, other: &LayerTimes) {
        for k in 0..KINDS {
            self.self_ns[k].merge(&other.self_ns[k]);
            self.top_ns[k].merge(&other.top_ns[k]);
            self.self_total_ns[k] += other.self_total_ns[k];
            self.top_total_ns[k] += other.top_total_ns[k];
            self.calls[k] += other.calls[k];
            self.calls_in_op[k] += other.calls_in_op[k];
        }
    }

    /// Spans closed of `kind`.
    pub fn calls(&self, kind: Kind) -> u64 {
        self.calls[kind as usize]
    }

    /// Spans of `kind` closed inside a client operation.
    pub fn calls_in_op(&self, kind: Kind) -> u64 {
        self.calls_in_op[kind as usize]
    }

    /// Self-time series of `kind`.
    pub fn series(&self, kind: Kind) -> &Histogram {
        &self.self_ns[kind as usize]
    }

    /// Durations of top-level spans of `kind`.
    pub fn top_series(&self, kind: Kind) -> &Histogram {
        &self.top_ns[kind as usize]
    }

    /// Summed self time of `kind`, in nanoseconds.
    pub fn self_total(&self, kind: Kind) -> u64 {
        self.self_total_ns[kind as usize]
    }

    /// Summed duration of top-level spans of every kind, in nanoseconds.
    pub fn top_total(&self) -> u64 {
        self.top_total_ns.iter().sum()
    }
}

struct Open {
    kind: Kind,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct ThreadTrace {
    stack: Vec<Open>,
    times: LayerTimes,
}

thread_local! {
    static TRACE: RefCell<Option<ThreadTrace>> = const { RefCell::new(None) };
}

/// Starts recording spans on the calling thread.
pub fn begin() {
    TRACE.with(|t| *t.borrow_mut() = Some(ThreadTrace::default()));
}

/// Stops recording on the calling thread and returns what it recorded
/// (empty when [`begin`] was never called).
pub fn finish() -> LayerTimes {
    TRACE.with(|t| t.borrow_mut().take().map(|tt| tt.times).unwrap_or_default())
}

/// Runs `f` inside a span of `kind`; a no-op wrapper when the calling
/// thread is not recording.
pub fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    let on = TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let Some(tt) = t.as_mut() else { return false };
        tt.stack.push(Open { kind, start: Instant::now(), child_ns: 0 });
        true
    });
    let out = f();
    if on {
        let end = Instant::now();
        TRACE.with(|t| {
            let mut t = t.borrow_mut();
            let tt = t.as_mut().expect("a span cannot outlive its thread's trace");
            let open = tt.stack.pop().expect("spans close in stack order");
            let dur = end.duration_since(open.start).as_nanos() as u64;
            let self_ns = dur.saturating_sub(open.child_ns);
            let k = open.kind as usize;
            let root = tt.stack.first().map(|o| o.kind);
            let times = &mut tt.times;
            if root != Some(Kind::Oracle) {
                times.self_ns[k].push_ns(self_ns);
            }
            times.self_total_ns[k] += self_ns;
            times.calls[k] += 1;
            if root == Some(Kind::Op) {
                times.calls_in_op[k] += 1;
            }
            match tt.stack.last_mut() {
                Some(parent) => parent.child_ns += dur,
                None => {
                    times.top_ns[k].push_ns(dur);
                    times.top_total_ns[k] += dur;
                }
            }
        });
    }
    out
}

/// A [`MemSpace`] whose every access is a span.
#[derive(Debug, Clone)]
pub struct TimedSpace<S>(pub S);

impl<S: MemSpace> MemSpace for TimedSpace<S> {
    fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> Result<()> {
        span(Kind::SpaceRead, || self.0.read_bytes(addr, buf))
    }

    fn write_bytes(&self, addr: u64, data: &[u8]) -> Result<()> {
        span(Kind::SpaceWrite, || self.0.write_bytes(addr, data))
    }

    fn capacity_bytes(&self) -> u64 {
        self.0.capacity_bytes()
    }
}

/// A [`PmAllocator`] whose allocations and frees are spans.
#[derive(Debug, Clone)]
pub struct TimedAlloc<A>(pub A);

impl<S: MemSpace, A: PmAllocator<S>> PmAllocator<S> for TimedAlloc<A> {
    fn space(&self) -> &S {
        self.0.space()
    }

    fn alloc(&self, len: u64) -> Result<u64> {
        span(Kind::Alloc, || self.0.alloc(len))
    }

    fn free(&self, addr: u64, len: u64) -> Result<()> {
        span(Kind::Free, || self.0.free(addr, len))
    }

    fn root(&self) -> Result<u64> {
        self.0.root()
    }

    fn set_root(&self, addr: u64) -> Result<()> {
        self.0.set_root(addr)
    }

    fn live_allocations(&self) -> Result<u64> {
        self.0.live_allocations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_top_level_sums() {
        begin();
        span(Kind::Op, || {
            span(Kind::SpaceRead, || std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let t = finish();
        assert_eq!(t.calls(Kind::Op), 1);
        assert_eq!(t.calls(Kind::SpaceRead), 1);
        assert!(t.self_total(Kind::SpaceRead) >= 2_000_000);
        assert!(t.self_total(Kind::Op) < t.self_total(Kind::SpaceRead));
        assert_eq!(t.top_total(), t.self_total(Kind::Op) + t.self_total(Kind::SpaceRead));
    }

    #[test]
    fn untraced_threads_record_nothing() {
        assert_eq!(span(Kind::Op, || 7), 7);
        assert_eq!(finish().calls(Kind::Op), 0);
    }
}
