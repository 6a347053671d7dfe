//! Deterministic crash injection.
//!
//! Crash-consistency bugs hide *between* steps: after the log append but
//! before the data write, halfway through an epoch commit, and so on. The
//! [`CrashClock`] gives every component in a simulation a shared step
//! counter that can be armed to "cut power" at an exact step, making every
//! such interleaving reachable — and reproducible — from tests.
//!
//! # Example
//!
//! ```
//! use pax_pm::{CrashClock, CrashOutcome};
//!
//! let clock = CrashClock::new();
//! clock.arm(2); // crash on the 3rd step (steps 0 and 1 complete)
//! assert_eq!(clock.tick(), CrashOutcome::Continue);
//! assert_eq!(clock.tick(), CrashOutcome::Continue);
//! assert_eq!(clock.tick(), CrashOutcome::Crashed);
//! assert_eq!(clock.tick(), CrashOutcome::Crashed); // stays crashed until reset
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// What a component should do after ticking the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashOutcome {
    /// Power is still on; proceed with the step.
    Continue,
    /// Power was cut at (or before) this step; abandon the operation and
    /// surface [`PmError::Crashed`](crate::PmError::Crashed).
    Crashed,
}

#[derive(Debug)]
struct Inner {
    step: AtomicU64,
    /// Step index at which power is cut; `u64::MAX` means never.
    crash_at: AtomicU64,
    crashed: AtomicBool,
}

/// A shared, cloneable crash countdown.
///
/// Clones share state: arming any clone arms them all, which is how one
/// test-controlled clock reaches into every component of a simulation.
#[derive(Clone)]
pub struct CrashClock(Arc<Inner>);

impl CrashClock {
    /// A clock that never fires (until [`CrashClock::arm`] is called).
    pub fn new() -> Self {
        CrashClock(Arc::new(Inner {
            step: AtomicU64::new(0),
            crash_at: AtomicU64::new(u64::MAX),
            crashed: AtomicBool::new(false),
        }))
    }

    /// Arms the clock to crash when the step counter reaches `crash_at`.
    ///
    /// Steps already taken count: arming with a value at or below the
    /// current step crashes on the very next [`CrashClock::tick`].
    pub fn arm(&self, crash_at: u64) {
        self.0.crash_at.store(crash_at, Ordering::SeqCst);
    }

    /// Disarms the clock and clears the crashed flag (used to model the
    /// machine rebooting before recovery runs).
    pub fn reset(&self) {
        self.0.crash_at.store(u64::MAX, Ordering::SeqCst);
        self.0.crashed.store(false, Ordering::SeqCst);
    }

    /// Advances one simulation step, firing the crash if it is due.
    pub fn tick(&self) -> CrashOutcome {
        if self.0.crashed.load(Ordering::SeqCst) {
            return CrashOutcome::Crashed;
        }
        let step = self.0.step.fetch_add(1, Ordering::SeqCst);
        if step >= self.0.crash_at.load(Ordering::SeqCst) {
            self.0.crashed.store(true, Ordering::SeqCst);
            CrashOutcome::Crashed
        } else {
            CrashOutcome::Continue
        }
    }

    /// Number of steps taken so far; property tests use this to size the
    /// crash-point search space after a fault-free dry run.
    pub fn steps_taken(&self) -> u64 {
        self.0.step.load(Ordering::SeqCst)
    }
}

impl Default for CrashClock {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for CrashClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CrashClock")
            .field("step", &self.0.step.load(Ordering::SeqCst))
            .field("crash_at", &self.0.crash_at.load(Ordering::SeqCst))
            .field("crashed", &self.0.crashed.load(Ordering::SeqCst))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_clock_never_crashes() {
        let c = CrashClock::new();
        for _ in 0..1000 {
            assert_eq!(c.tick(), CrashOutcome::Continue);
        }
        assert_eq!(c.steps_taken(), 1000);
    }

    #[test]
    fn crash_fires_at_exact_step() {
        let c = CrashClock::new();
        c.arm(5);
        for _ in 0..5 {
            assert_eq!(c.tick(), CrashOutcome::Continue);
        }
        assert_eq!(c.tick(), CrashOutcome::Crashed);
        // Stays crashed.
        assert_eq!(c.tick(), CrashOutcome::Crashed);
    }

    #[test]
    fn clones_share_state() {
        let c = CrashClock::new();
        let c2 = c.clone();
        c.arm(0);
        assert_eq!(c2.tick(), CrashOutcome::Crashed);
        assert_eq!(c.tick(), CrashOutcome::Crashed);
    }

    #[test]
    fn reset_reboots() {
        let c = CrashClock::new();
        c.arm(0);
        assert_eq!(c.tick(), CrashOutcome::Crashed);
        c.reset();
        assert_eq!(c.tick(), CrashOutcome::Continue);
    }

    #[test]
    fn arming_in_the_past_crashes_next_tick() {
        let c = CrashClock::new();
        for _ in 0..10 {
            c.tick();
        }
        c.arm(3);
        assert_eq!(c.tick(), CrashOutcome::Crashed);
    }
}
