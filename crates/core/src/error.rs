//! Error types for control-stack operations.

use std::error::Error;
use std::fmt;

/// An unrecoverable control-stack failure.
///
/// Ordinary overflow and underflow are *not* errors in this system — the
/// paper's whole point is that they are handled transparently as implicit
/// continuation capture and reinstatement (§5). `StackError` covers genuine
/// misuse or resource exhaustion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StackError {
    /// A continuation created by one strategy was reinstated on another
    /// (e.g. a heap-model continuation handed to a segmented stack).
    ForeignContinuation {
        /// Strategy that was asked to reinstate the continuation.
        strategy: &'static str,
    },
    /// A frame exceeded the configured frame bound (§4: "the number of
    /// arguments to a procedure and the amount of storage necessary for
    /// local bindings and intermediate results must be limited").
    FrameTooLarge {
        /// Slots requested for the frame (displacement + partial frame).
        requested: usize,
        /// The configured bound.
        bound: usize,
    },
    /// The segment allocator refused to allocate (the configured cap on
    /// total segment allocation, [`Config::max_total_slots`], used for
    /// failure-injection tests).
    ///
    /// [`Config::max_total_slots`]: crate::Config::max_total_slots
    OutOfStackMemory {
        /// Slots requested.
        requested: usize,
        /// Slots remaining under the cap.
        available: usize,
    },
    /// A one-shot continuation (`call/1cc`) was reinstated a second time.
    /// One-shot continuations are consumed by their first reinstatement —
    /// that is the contract that makes the zero-copy relink fast path safe.
    OneShotReused,
}

impl fmt::Display for StackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackError::ForeignContinuation { strategy } => {
                write!(f, "continuation was not created by the {strategy} strategy")
            }
            StackError::FrameTooLarge { requested, bound } => {
                write!(f, "frame of {requested} slots exceeds the frame bound of {bound}")
            }
            StackError::OutOfStackMemory { requested, available } => {
                write!(
                    f,
                    "stack memory exhausted: {requested} slots requested, {available} available"
                )
            }
            StackError::OneShotReused => {
                write!(f, "one-shot continuation was already reinstated once")
            }
        }
    }
}

impl Error for StackError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = StackError::ForeignContinuation { strategy: "segmented" };
        assert_eq!(e.to_string(), "continuation was not created by the segmented strategy");
        let e = StackError::FrameTooLarge { requested: 99, bound: 64 };
        assert!(e.to_string().contains("99"));
        assert!(e.to_string().contains("64"));
        let e = StackError::OutOfStackMemory { requested: 10, available: 3 };
        assert!(e.to_string().contains("exhausted"));
        let e = StackError::OneShotReused;
        assert!(e.to_string().contains("one-shot"));
    }

    #[test]
    fn implements_error_and_is_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<StackError>();
    }
}
