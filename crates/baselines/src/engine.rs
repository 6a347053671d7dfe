//! The one engine under the four logging baselines.
//!
//! [`WalSpace`](crate::WalSpace), [`RedoSpace`](crate::RedoSpace),
//! [`PageFaultSpace`](crate::PageFaultSpace) and
//! [`HybridSpace`](crate::HybridSpace) differ only in their [`Policy`]:
//! what a store logs on first touch, whether reads see a private write
//! buffer, and what a commit adds. Everything else lives here once: the
//! PM pool, the undo log (PAX's block format), the one crash clock, the
//! epoch (transaction id) counter, the cost report, the powered-off
//! state, the bounds check and line walk, recovery at open, and the
//! commit epilogue.

use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;

use libpax::PaxError;
use pax_device::{recover, UndoEntry, UndoLog};
use pax_pm::{CacheLine, CrashClock, LineAddr, PmError, PmPool, LINE_SIZE};

use crate::costs::CostReport;

/// Rejects `[addr, addr + len)` unless it lies within `capacity` bytes.
pub(crate) fn check(addr: u64, len: usize, capacity: u64) -> libpax::Result<()> {
    if addr.checked_add(len as u64).is_none_or(|e| e > capacity) {
        return Err(PaxError::OutOfMemory { requested: addr.saturating_add(len as u64), capacity });
    }
    Ok(())
}

/// Walks `[addr, addr + len)` line by line, yielding each line, the
/// byte offset in it, and the span of the caller's buffer it covers.
pub(crate) fn lines(
    addr: u64,
    len: usize,
) -> impl Iterator<Item = (LineAddr, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        if done >= len {
            return None;
        }
        let cur = addr + done as u64;
        let line = LineAddr::from_byte_addr(cur);
        let off = (cur - line.byte_addr()) as usize;
        let n = (LINE_SIZE - off).min(len - done);
        done += n;
        Some((line, off, done - n..done))
    })
}

/// What makes one logging baseline differ from another. The state is
/// per epoch: the engine resets it to `Default` at every commit.
pub(crate) trait Policy: Default + Clone + std::fmt::Debug {
    /// Writes outside [`Engine::begin`] commit on their own, as
    /// singleton transactions (WAL, redo); otherwise they join the open
    /// epoch until the next commit.
    const TRANSACTIONAL: bool;
    /// Recovery replays the last committed transaction's logged new
    /// values, rather than rolling back an uncommitted epoch's
    /// pre-images.
    const REDO: bool = false;

    /// Stores `data` at byte `off` of vPM `line`, first logging what the
    /// mechanism logs on a first touch.
    fn store(&mut self, pm: &mut Pm, line: LineAddr, off: usize, data: &[u8])
        -> libpax::Result<()>;

    /// The line a read sees instead of PM (read-your-writes), if any.
    fn buffered(&self, _line: LineAddr) -> Option<&CacheLine> {
        None
    }

    /// Runs after every `write_bytes` call.
    fn after_write(&mut self, _pm: &mut Pm) -> libpax::Result<()> {
        Ok(())
    }

    /// Runs before the commit epilogue flushes the log.
    fn before_commit(&mut self, _pm: &mut Pm) -> libpax::Result<()> {
        Ok(())
    }

    /// Runs once the commit record is durable.
    fn after_commit(&mut self, _pm: &mut Pm) -> libpax::Result<()> {
        Ok(())
    }
}

/// The durable side of a powered baseline, and what it has cost.
#[derive(Debug)]
pub(crate) struct Pm {
    pool: PmPool,
    log: UndoLog,
    clock: CrashClock,
    /// The epoch (transaction id) being built: the committed one + 1.
    epoch: u64,
    pub(crate) costs: CostReport,
}

impl Pm {
    /// Reads vPM `line` from PM, charging one read.
    pub(crate) fn read(&mut self, line: LineAddr) -> libpax::Result<CacheLine> {
        let abs = self.pool.layout().vpm_to_pool(line.0)?;
        self.costs.pm_reads += 1;
        Ok(self.pool.read_line(abs)?)
    }

    /// Writes vPM `line` to PM, charging one line write.
    pub(crate) fn write(&mut self, line: LineAddr, data: CacheLine) -> libpax::Result<()> {
        let abs = self.pool.layout().vpm_to_pool(line.0)?;
        self.pool.write_line(abs, data)?;
        self.costs.pm_write_bytes += LINE_SIZE as u64;
        Ok(())
    }

    /// Writes `data` at byte `off` of vPM `line` in place: a costed
    /// read-modify-write.
    pub(crate) fn store(&mut self, line: LineAddr, off: usize, data: &[u8]) -> libpax::Result<()> {
        let mut l = self.read(line)?;
        l.write_at(off, data);
        self.write(line, l)
    }

    /// Appends a log entry for vPM `line` in the open epoch: its
    /// pre-image under undo logging, its new value under redo. It costs
    /// nothing until the log writes it.
    pub(crate) fn log(&mut self, line: LineAddr, data: CacheLine) -> libpax::Result<()> {
        self.log.append(UndoEntry::single(self.epoch, line, data))?;
        Ok(())
    }

    /// Writes every appended entry to media and waits for it.
    pub(crate) fn flush(&mut self) -> libpax::Result<()> {
        self.log.flush(&mut self.pool, &self.clock)?;
        self.charge_log();
        Ok(())
    }

    /// Drains up to `max` appended entries in the background, writing a
    /// partly filled block rather than waiting for it to fill.
    pub(crate) fn pump(&mut self, max: usize) -> libpax::Result<()> {
        let target = self.log.appended();
        self.log.pump_to(&mut self.pool, &self.clock, target, max)?;
        self.charge_log();
        Ok(())
    }

    /// Charges the log lines written since the last charge: block
    /// headers and entries, a header once per (partial) block write.
    /// The log writer is as old as these costs, so its lifetime count is
    /// the log bytes to date.
    fn charge_log(&mut self) {
        let written = self.log.lines_written() * LINE_SIZE as u64;
        self.costs.pm_write_bytes += written - self.costs.log_bytes;
        self.costs.log_bytes = written;
    }

    /// An ordering point: charges one SFENCE. Writes already reach media
    /// in program order, so the cost is all it models.
    pub(crate) fn fence(&mut self) {
        self.costs.sfences += 1;
    }
}

/// Recovery for a redo log: re-applies the last committed transaction's
/// entries, whose `old` field holds the new value. Idempotent, so a
/// crash between the commit record and the apply is safe; entries of
/// later (uncommitted) or earlier (applied) transactions are skipped.
fn replay(pool: &mut PmPool) -> libpax::Result<u64> {
    let committed = pool.committed_epoch()?;
    for (_, entry) in UndoLog::scan(pool)? {
        if entry.epoch == committed {
            let abs = pool.layout().vpm_to_pool(entry.vpm_line.0)?;
            pool.write_line(abs, entry.old)?;
        }
    }
    Ok(committed)
}

#[derive(Debug)]
struct Inner<P> {
    /// `None` after a simulated power loss: every access fails.
    pm: Option<Pm>,
    policy: P,
    tx_open: bool,
    /// The costs at power loss, so they stay readable after it.
    final_costs: CostReport,
}

/// A logging baseline: the shared engine running policy `P` (see the
/// module docs).
#[derive(Debug, Clone)]
pub(crate) struct Engine<P> {
    inner: Arc<Mutex<Inner<P>>>,
    pub(crate) capacity: u64,
}

fn live(pm: &mut Option<Pm>) -> libpax::Result<&mut Pm> {
    pm.as_mut().ok_or(PaxError::Pm(PmError::Crashed))
}

impl<P: Policy> Engine<P> {
    /// Recovers `pool` to its last commit and opens the next epoch on it.
    pub(crate) fn open(mut pool: PmPool) -> libpax::Result<Self> {
        let committed =
            if P::REDO { replay(&mut pool)? } else { recover(&mut pool)?.committed_epoch };
        let capacity = pool.layout().data_lines * LINE_SIZE as u64;
        let log = UndoLog::new(&pool);
        let pm = Pm {
            pool,
            log,
            clock: CrashClock::new(),
            epoch: committed + 1,
            costs: CostReport::default(),
        };
        Ok(Engine {
            inner: Arc::new(Mutex::new(Inner {
                pm: Some(pm),
                policy: P::default(),
                tx_open: false,
                final_costs: CostReport::default(),
            })),
            capacity,
        })
    }

    /// Opens an explicit transaction: writes join it until
    /// [`Engine::commit`].
    pub(crate) fn begin(&self) -> libpax::Result<()> {
        let mut inner = self.inner.lock();
        live(&mut inner.pm)?;
        inner.tx_open = true;
        Ok(())
    }

    /// Commits the open epoch; returns its number.
    pub(crate) fn commit(&self) -> libpax::Result<u64> {
        Self::commit_locked(&mut self.inner.lock())
    }

    /// The commit epilogue: flush the log, fence (SFENCE), write the
    /// commit record (SFENCE), then recycle the committed log.
    fn commit_locked(inner: &mut Inner<P>) -> libpax::Result<u64> {
        let Inner { pm, policy, tx_open, .. } = inner;
        let pm = live(pm)?;
        policy.before_commit(pm)?;
        pm.flush()?;
        pm.fence();
        let committed = pm.epoch;
        pm.pool.commit_epoch(committed)?;
        pm.costs.pm_write_bytes += LINE_SIZE as u64;
        pm.costs.sfences += 1;
        policy.after_commit(pm)?;
        *policy = P::default();
        *tx_open = false;
        pm.epoch += 1;
        pm.log.reset_after_commit(&mut pm.pool, pm.log.appended());
        Ok(committed)
    }

    /// Simulates power loss, returning the durable pool.
    pub(crate) fn crash(&self) -> libpax::Result<PmPool> {
        let mut inner = self.inner.lock();
        let mut pm = inner.pm.take().ok_or(PaxError::Pm(PmError::Crashed))?;
        inner.final_costs = pm.costs;
        pm.pool.crash();
        Ok(pm.pool)
    }

    /// Cumulative costs since open.
    pub(crate) fn costs(&self) -> CostReport {
        let inner = self.inner.lock();
        inner.pm.as_ref().map_or(inner.final_costs, |pm| pm.costs)
    }

    pub(crate) fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> libpax::Result<()> {
        check(addr, buf.len(), self.capacity)?;
        let mut inner = self.inner.lock();
        let Inner { pm, policy, .. } = &mut *inner;
        let pm = live(pm)?;
        for (line, off, span) in lines(addr, buf.len()) {
            let n = span.len();
            match policy.buffered(line) {
                Some(l) => buf[span].copy_from_slice(l.read_at(off, n)),
                None => buf[span].copy_from_slice(pm.read(line)?.read_at(off, n)),
            }
        }
        Ok(())
    }

    pub(crate) fn write_bytes(&self, addr: u64, data: &[u8]) -> libpax::Result<()> {
        check(addr, data.len(), self.capacity)?;
        let mut inner = self.inner.lock();
        let Inner { pm, policy, tx_open, .. } = &mut *inner;
        let pm = live(pm)?;
        for (line, off, span) in lines(addr, data.len()) {
            let n = span.len() as u64;
            policy.store(pm, line, off, &data[span])?;
            pm.costs.app_write_bytes += n;
        }
        policy.after_write(pm)?;
        if P::TRANSACTIONAL && !*tx_open {
            Self::commit_locked(&mut inner)?;
        }
        Ok(())
    }
}

/// Declares a public logging baseline: a newtype over [`Engine`] running
/// a policy, with the constructors, crash, [`MemSpace`](libpax::MemSpace)
/// and [`Costed`](crate::Costed) that every baseline shares, plus either
/// explicit transactions (`transactions`) or epoch-closing `persist()`
/// (`epochs`).
macro_rules! logging_space {
    ($(#[$meta:meta])* $name:ident($policy:ty), $close:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone)]
        pub struct $name($crate::engine::Engine<$policy>);

        impl $name {
            /// Creates the space over a fresh pool.
            ///
            /// # Errors
            ///
            /// Propagates pool-layout errors.
            pub fn create(config: pax_pm::PoolConfig) -> libpax::Result<Self> {
                Self::open(pax_pm::PmPool::create(config)?)
            }

            /// Opens an existing pool, first recovering it to its last
            /// commit (see the type's docs for how).
            ///
            /// # Errors
            ///
            /// Propagates media errors from recovery.
            pub fn open(pool: pax_pm::PmPool) -> libpax::Result<Self> {
                $crate::engine::Engine::open(pool).map(Self)
            }

            /// Simulates power loss, returning the durable pool for
            /// reopening.
            ///
            /// # Errors
            ///
            /// Fails if power was already lost.
            pub fn crash(&self) -> libpax::Result<pax_pm::PmPool> {
                self.0.crash()
            }
        }

        $crate::engine::logging_space!(@close $name $close);

        impl libpax::MemSpace for $name {
            fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> libpax::Result<()> {
                self.0.read_bytes(addr, buf)
            }

            fn write_bytes(&self, addr: u64, data: &[u8]) -> libpax::Result<()> {
                self.0.write_bytes(addr, data)
            }

            fn capacity_bytes(&self) -> u64 {
                self.0.capacity
            }
        }

        impl $crate::Costed for $name {
            fn costs(&self) -> $crate::CostReport {
                self.0.costs()
            }
        }
    };
    (@close $name:ident transactions) => {
        impl $name {
            /// Opens an explicit transaction: writes join it until
            /// `commit_tx`. Writes outside one are singleton transactions.
            ///
            /// # Errors
            ///
            /// Fails after a simulated crash.
            pub fn begin_tx(&self) -> libpax::Result<()> {
                self.0.begin()
            }

            /// Commits the open transaction (see the type's docs for its
            /// ordering points).
            ///
            /// # Errors
            ///
            /// Fails after a simulated crash; propagates media errors.
            pub fn commit_tx(&self) -> libpax::Result<()> {
                self.0.commit().map(drop)
            }

            /// Runs `f` inside a transaction (begin, run, commit).
            ///
            /// # Errors
            ///
            /// Propagates `f`'s error without committing.
            pub fn tx<R>(&self, f: impl FnOnce() -> libpax::Result<R>) -> libpax::Result<R> {
                self.begin_tx()?;
                let r = f()?;
                self.commit_tx()?;
                Ok(r)
            }
        }
    };
    (@close $name:ident epochs) => {
        impl $name {
            /// Ends the epoch: flushes the log, drains, commits, and
            /// protects every page again so the next epoch faults afresh.
            /// Returns the committed epoch.
            ///
            /// # Errors
            ///
            /// Fails after a simulated crash; propagates media errors.
            pub fn persist(&self) -> libpax::Result<u64> {
                self.0.commit()
            }
        }
    };
}
pub(crate) use logging_space;
