//! The one teardown path: a deferred-drop queue.
//!
//! Continuations link to continuations (stack records chain through their
//! link fields, saved stack images and segment regions contain
//! continuation values, heap-model frames chain through dynamic links), and
//! Scheme data nests without bound. A naive recursive `Drop` of such a
//! chain consumes native Rust stack proportional to its depth and can
//! abort the process — ironic for a library whose subject is bounded
//! control-stack usage.
//!
//! The queue is the defunctionalized continuation of that recursive walk.
//! Every owner of a possibly unbounded chain hands its parts to
//! [`defer_drop`] (or its slots to [`defer_slots`]) instead of dropping
//! them in place. A handle with other owners is only a decrement; the last
//! handle is queued as it is. The outermost drop drains the queue in a
//! loop, so every drop runs at constant native-stack depth, and the queue
//! is empty again before that drop returns.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::slot::StackSlot;

thread_local! {
    static DRAINING: Cell<bool> = const { Cell::new(false) };
    static QUEUE: RefCell<Vec<Rc<dyn Any>>> = const { RefCell::new(Vec::new()) };
}

/// Drops `handle` without unbounded native-stack recursion, provided every
/// potentially recursive `Drop` along its ownership chain also hands its
/// parts to `defer_drop`.
///
/// A handle with other owners is simply released. The last handle is
/// queued; the outermost deferred drop then drains the queue iteratively,
/// and drops reached while draining only enqueue.
///
/// # Examples
///
/// ```
/// use segstack_core::defer_drop;
/// use std::rc::Rc;
///
/// struct Node(Option<Rc<Node>>);
/// impl Drop for Node {
///     fn drop(&mut self) {
///         if let Some(next) = self.0.take() {
///             defer_drop(next); // queue instead of recursing
///         }
///     }
/// }
///
/// let mut chain = Rc::new(Node(None));
/// for _ in 0..1_000_000 {
///     chain = Rc::new(Node(Some(chain)));
/// }
/// drop(chain); // would overflow the stack with recursive drops
/// ```
pub fn defer_drop(handle: Rc<dyn Any>) {
    if Rc::strong_count(&handle) == 1 {
        // During thread teardown the queue may be gone; the handle then
        // drops in place.
        deferring(|| {
            let _ = QUEUE.try_with(|q| q.borrow_mut().push(handle));
        });
    }
}

/// Empties every slot of `slots` that may own heap data and hands what it
/// owned to [`defer_drop`] ([`StackSlot::release`]).
pub fn defer_slots<S: StackSlot>(slots: &mut [S]) {
    deferring(|| {
        for slot in slots {
            if let Some(handle) = slot.release() {
                defer_drop(handle);
            }
        }
    });
}

/// Runs `f` with every deferred drop queued, then, unless a drain further
/// out will, drains the queue. Nothing is dropped while `f` runs, so `f`
/// may hand over values from under a `RefCell` borrow, provided the borrow
/// ends inside `f`.
pub(crate) fn deferring(f: impl FnOnce()) {
    if DRAINING.with(|d| d.replace(true)) {
        f();
        return;
    }
    f();
    while let Some(handle) = QUEUE.try_with(|q| q.borrow_mut().pop()).ok().flatten() {
        drop(handle);
    }
    DRAINING.with(|d| d.set(false));
}

/// Whether no deferred drop is pending or running, as holds between any two
/// stack operations.
pub(crate) fn idle() -> bool {
    !DRAINING.with(Cell::get) && QUEUE.try_with(|q| q.borrow().is_empty()).unwrap_or(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Link {
        next: Option<Rc<Link>>,
        alive: Rc<Cell<usize>>,
    }

    impl Drop for Link {
        fn drop(&mut self) {
            self.alive.set(self.alive.get() - 1);
            assert!(!idle(), "a link drops inside a drain");
            if let Some(next) = self.next.take() {
                defer_drop(next);
            }
        }
    }

    fn chain(n: usize, alive: &Rc<Cell<usize>>) -> Rc<Link> {
        let mut head = Rc::new(Link { next: None, alive: alive.clone() });
        alive.set(alive.get() + 1);
        for _ in 1..n {
            alive.set(alive.get() + 1);
            head = Rc::new(Link { next: Some(head), alive: alive.clone() });
        }
        head
    }

    #[test]
    fn very_long_chains_drop_without_recursion() {
        let alive = Rc::new(Cell::new(0));
        let head = chain(2_000_000, &alive);
        assert_eq!(alive.get(), 2_000_000);
        defer_drop(head);
        assert_eq!(alive.get(), 0, "every link was freed");
        assert!(idle(), "the queue is empty once the outermost drop returns");
    }

    #[test]
    fn shared_tails_survive() {
        let alive = Rc::new(Cell::new(0));
        let head = chain(1000, &alive);
        let keep = head.next.clone().unwrap();
        defer_drop(head);
        assert_eq!(alive.get(), 999, "only the unshared head was freed");
        defer_drop(keep);
        assert_eq!(alive.get(), 0);
        assert!(idle());
    }

    #[test]
    fn slots_are_emptied_and_their_heap_data_freed() {
        let mut slots = [crate::TestSlot::Int(3), crate::TestSlot::Empty];
        defer_slots(&mut slots);
        assert_eq!(slots, [crate::TestSlot::Empty, crate::TestSlot::Empty]);
        assert!(idle());
    }
}
