//! The machine-word abstraction stored in stack frames.
//!
//! The paper's frames are sequences of machine words; the first word of each
//! frame is a return address, the rest are arguments, locals, temporaries and
//! partial frames (§3). We abstract a word as the [`StackSlot`] trait so that
//! the same control-stack machinery can carry raw test words in unit tests
//! and full Scheme values in the VM.

use std::any::Any;
use std::fmt::Debug;
use std::rc::Rc;

use crate::addr::ReturnAddress;

/// A value that can live in a stack-frame slot.
///
/// The only structure the control stack needs from a slot is the ability to
/// store and recover a [`ReturnAddress`] (the word at the base of each
/// frame) and a filler value for unoccupied slots.
///
/// Cloning a slot is the cost model's unit of copying: strategies count
/// `slots_copied` in units of `clone` calls.
pub trait StackSlot: Clone + Debug + 'static {
    /// Encodes a return address as a slot (stored at the frame base).
    fn from_return_address(ra: ReturnAddress) -> Self;

    /// Decodes a return address, if this slot holds one.
    fn as_return_address(&self) -> Option<ReturnAddress>;

    /// The filler value used for freshly allocated, unoccupied slots.
    fn empty() -> Self;

    /// Empties this slot if it may own heap data, and returns the handle
    /// through which it did, for the deferred-drop queue
    /// ([`defer_slots`](crate::defer_slots)). A stack releasing a dead
    /// region rewrites only these slots; immediates and return addresses
    /// stay as they are.
    fn release(&mut self) -> Option<Rc<dyn Any>>;
}

/// A minimal slot type for tests, simulations and micro-benchmarks.
///
/// # Examples
///
/// ```
/// use segstack_core::{ReturnAddress, StackSlot, TestSlot};
/// let s = TestSlot::from_return_address(ReturnAddress::Underflow);
/// assert_eq!(s.as_return_address(), Some(ReturnAddress::Underflow));
/// assert_eq!(TestSlot::Int(7).as_return_address(), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TestSlot {
    /// An unoccupied slot.
    #[default]
    Empty,
    /// An integer payload (stands in for an arbitrary datum).
    Int(i64),
    /// A return address (frame base word).
    Ra(ReturnAddress),
}

impl TestSlot {
    /// Returns the integer payload, if any.
    pub fn int(self) -> Option<i64> {
        match self {
            TestSlot::Int(n) => Some(n),
            _ => None,
        }
    }
}

impl StackSlot for TestSlot {
    fn from_return_address(ra: ReturnAddress) -> Self {
        TestSlot::Ra(ra)
    }

    fn as_return_address(&self) -> Option<ReturnAddress> {
        match self {
            TestSlot::Ra(ra) => Some(*ra),
            _ => None,
        }
    }

    fn empty() -> Self {
        TestSlot::Empty
    }

    /// Integers stand in for heap data: a released slot reads back as
    /// `Empty`, so a region released while still readable shows up as a
    /// wrong value in the fuzzer's oracle comparison. There is no handle
    /// to hand over.
    fn release(&mut self) -> Option<Rc<dyn Any>> {
        if matches!(self, TestSlot::Int(_)) {
            *self = TestSlot::Empty;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::CodeAddr;

    #[test]
    fn round_trips_return_addresses() {
        for ra in [
            ReturnAddress::Code(CodeAddr::new(0, 3)),
            ReturnAddress::Underflow,
            ReturnAddress::Exit,
        ] {
            assert_eq!(TestSlot::from_return_address(ra).as_return_address(), Some(ra));
        }
    }

    #[test]
    fn non_addresses_decode_to_none() {
        assert_eq!(TestSlot::Empty.as_return_address(), None);
        assert_eq!(TestSlot::Int(-3).as_return_address(), None);
    }

    #[test]
    fn empty_is_default() {
        assert_eq!(TestSlot::empty(), TestSlot::default());
        assert_eq!(TestSlot::Int(5).int(), Some(5));
        assert_eq!(TestSlot::Empty.int(), None);
    }

    #[test]
    fn only_integers_count_as_heap_data() {
        for (mut slot, released) in [
            (TestSlot::Int(0), TestSlot::Empty),
            (TestSlot::Empty, TestSlot::Empty),
            (TestSlot::Ra(ReturnAddress::Exit), TestSlot::Ra(ReturnAddress::Exit)),
        ] {
            assert!(slot.release().is_none());
            assert_eq!(slot, released);
        }
    }
}
