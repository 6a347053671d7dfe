//! libpax error types.

use std::error::Error;
use std::fmt;

use pax_pm::PmError;

/// Errors surfaced by the libpax public API.
#[derive(Debug)]
#[non_exhaustive]
pub enum PaxError {
    /// An error from the PM substrate (media bounds, simulated crash,
    /// pool-file problems, log capacity).
    Pm(PmError),
    /// The allocator could not satisfy an allocation.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Capacity of the space.
        capacity: u64,
    },
    /// On-media structure state failed a sanity check (bad magic, length
    /// out of range, dangling pointer).
    Corrupt(String),
    /// An operation was invoked on a space it is not valid for.
    Unsupported(&'static str),
}

impl PaxError {
    /// Whether this error is the simulated-crash signal; callers unwind to
    /// recovery when they see it.
    pub fn is_crash(&self) -> bool {
        matches!(self, PaxError::Pm(PmError::Crashed))
    }
}

impl fmt::Display for PaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PaxError::Pm(e) => write!(f, "persistent memory error: {e}"),
            PaxError::OutOfMemory { requested, capacity } => {
                write!(f, "allocation of {requested} bytes exceeds space of {capacity} bytes")
            }
            PaxError::Corrupt(msg) => write!(f, "corrupt persistent state: {msg}"),
            PaxError::Unsupported(what) => write!(f, "operation not supported: {what}"),
        }
    }
}

impl Error for PaxError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PaxError::Pm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PmError> for PaxError {
    fn from(e: PmError) -> Self {
        PaxError::Pm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_detection() {
        assert!(PaxError::from(PmError::Crashed).is_crash());
        assert!(!PaxError::OutOfMemory { requested: 1, capacity: 0 }.is_crash());
    }

    #[test]
    fn display_and_source() {
        let e = PaxError::from(PmError::Crashed);
        assert!(e.to_string().contains("crash"));
        assert!(e.source().is_some());
        assert!(PaxError::Corrupt("x".into()).source().is_none());
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<PaxError>();
    }
}
