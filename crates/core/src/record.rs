//! Continuation objects.
//!
//! In the paper a continuation *is* a stack record: base pointer, link,
//! size, and the return address of its topmost frame (§3–4). Each strategy
//! in this workspace has its own record representation, so the public
//! [`Continuation`] type wraps a strategy-specific representation behind the
//! [`KontRepr`] trait. A strategy receives the record to reinstate as a
//! [`Resume`] ([`Resume::record`]); handing a continuation to the wrong
//! strategy yields
//! [`StackError::ForeignContinuation`](crate::StackError::ForeignContinuation).

use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::error::StackError;
use crate::slot::StackSlot;

/// Strategy-specific continuation representation.
///
/// This trait is not meant to be implemented outside control-stack strategy
/// crates; it exists so that one [`Continuation`] type can flow through a VM
/// regardless of which strategy produced it. A representation is [`Any`],
/// so its strategy can downcast it and the deferred-drop queue can hold it.
pub trait KontRepr<S: StackSlot>: Any + fmt::Debug {
    /// What this record holds apart from its link: the number of records it
    /// stands for (a heap-frame record stands for its whole frame chain) and
    /// the slots they retain. Summed down the chain by
    /// [`Continuation::chain_len`] and [`Continuation::retained_slots`].
    fn footprint(&self) -> (usize, usize);

    /// The next record down the chain, or `None` where the chain ends.
    fn link(&self) -> Option<Continuation<S>>;

    /// Name of the strategy that created this continuation.
    fn strategy(&self) -> &'static str;
}

/// A first-class continuation: the rest of the computation from the point
/// of capture.
///
/// Continuations are cheap to clone (reference-counted), may be invoked any
/// number of times, and have indefinite extent — the properties §1–2 of the
/// paper demand.
///
/// # Examples
///
/// ```
/// use segstack_core::{Config, ControlStack, SegmentedStack, TestCode, TestSlot};
/// use std::rc::Rc;
/// let code = Rc::new(TestCode::new());
/// let mut stack = SegmentedStack::<TestSlot>::new(Config::default(), code.clone()).unwrap();
/// let ra = code.ret_point(3);
/// stack.call(3, ra, 1, true)?;
/// let k = stack.capture();
/// assert_eq!(k.strategy(), "segmented");
/// assert!(k.retained_slots() > 0);
/// # Ok::<(), segstack_core::StackError>(())
/// ```
pub struct Continuation<S: StackSlot> {
    repr: Rc<dyn KontRepr<S>>,
}

impl<S: StackSlot> Continuation<S> {
    /// Wraps a strategy-specific representation.
    pub fn from_repr(repr: Rc<dyn KontRepr<S>>) -> Self {
        Continuation { repr }
    }

    /// The canonical *exit* continuation: reinstating it returns its value
    /// to the host (the paper's "routine that exits to the operating
    /// system", §4). Every strategy accepts it.
    pub fn exit() -> Self {
        Continuation { repr: Rc::new(ExitKont) }
    }

    /// Returns `true` if this is the exit continuation.
    pub fn is_exit(&self) -> bool {
        self.downcast_ref::<ExitKont>().is_some()
    }

    /// The underlying representation, if it is a `T` (for strategies).
    pub fn downcast_ref<T: KontRepr<S>>(&self) -> Option<&T> {
        (&*self.repr as &dyn Any).downcast_ref()
    }

    /// This record as a `T` of `strategy`, or `None` for the exit
    /// continuation. See [`Resume::record`].
    pub(crate) fn record<T: KontRepr<S>>(
        &self,
        strategy: &'static str,
    ) -> Result<Option<&T>, StackError> {
        if self.is_exit() {
            return Ok(None);
        }
        match self.downcast_ref::<T>() {
            Some(r) if r.strategy() == strategy => Ok(Some(r)),
            _ => Err(StackError::ForeignContinuation { strategy }),
        }
    }

    /// The handle to the underlying representation, for
    /// [`defer_drop`](crate::defer_drop): a record reaches the queue as it
    /// is, without a box.
    pub fn into_any(self) -> Rc<dyn Any> {
        self.repr
    }

    /// Pointer identity: two handles to the very same captured record.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        Rc::ptr_eq(&self.repr, &other.repr)
    }

    /// Total slots retained by the continuation's chain: the
    /// memory-accounting figure behind experiment E11 (Danvy's duplication
    /// concern, §6).
    pub fn retained_slots(&self) -> usize {
        self.chain_footprint().1
    }

    /// Number of records in the continuation's chain, the exit record
    /// excluded.
    pub fn chain_len(&self) -> usize {
        self.chain_footprint().0
    }

    /// Sums [`KontRepr::footprint`] down the links. Iterative: record chains
    /// grow one record per overflow, so a deep recursion can leave hundreds
    /// of thousands of links, and recursing here would overflow the native
    /// stack this crate exists to avoid.
    fn chain_footprint(&self) -> (usize, usize) {
        let (mut records, mut slots) = (0, 0);
        let mut k = Some(self.clone());
        while let Some(c) = k {
            let (r, s) = c.repr.footprint();
            records += r;
            slots += s;
            k = c.repr.link();
        }
        (records, slots)
    }

    /// The strategy that created this continuation (`"segmented"`,
    /// `"heap"`, `"copy"`, `"cache"`, `"hybrid"`, or `"exit"`).
    pub fn strategy(&self) -> &'static str {
        self.repr.strategy()
    }

    /// Wraps `inner` as a *one-shot* continuation (`call/1cc`): it may be
    /// reinstated at most once. The first reinstatement takes the inner
    /// continuation out of the wrapper; every later attempt observes the
    /// empty wrapper and fails with [`StackError::OneShotReused`].
    ///
    /// Because the wrapper (not the inner continuation) is what circulates
    /// through VM slots and clones, the inner representation usually stays
    /// uniquely referenced — which is exactly what lets the segmented
    /// strategy reinstate it by relinking instead of copying.
    pub fn one_shot(inner: Continuation<S>) -> Self {
        let strategy = inner.strategy();
        Continuation { repr: Rc::new(OneShotKont { inner: RefCell::new(Some(inner)), strategy }) }
    }

    /// Returns `true` if this continuation is a one-shot wrapper (consumed
    /// or not).
    pub fn is_one_shot(&self) -> bool {
        self.downcast_ref::<OneShotKont<S>>().is_some()
    }

    /// Number of live handles to the underlying representation. A count of
    /// one means the caller holds the only handle, so an owned [`Resume`]
    /// may consume the representation in place (the safe-Rust analogue of
    /// the paper's "no other reference to this stack record" argument).
    pub(crate) fn repr_strong_count(&self) -> usize {
        Rc::strong_count(&self.repr)
    }

    /// If this is a one-shot wrapper, takes the inner continuation out of
    /// it (consuming the wrapper's single shot).
    ///
    /// Returns `None` for ordinary continuations, `Some(Ok(inner))` on the
    /// first call, and `Some(Err(StackError::OneShotReused))` once the shot
    /// has been spent.
    pub(crate) fn unwrap_one_shot(&self) -> Option<Result<Continuation<S>, StackError>> {
        let w = self.downcast_ref::<OneShotKont<S>>()?;
        Some(w.inner.borrow_mut().take().ok_or(StackError::OneShotReused))
    }

    /// Returns `true` if this is a one-shot wrapper whose shot has already
    /// been spent (diagnostics; does not consume anything).
    pub fn one_shot_consumed(&self) -> bool {
        match self.downcast_ref::<OneShotKont<S>>() {
            Some(w) => w.inner.borrow().is_none(),
            None => false,
        }
    }
}

impl<S: StackSlot> Clone for Continuation<S> {
    fn clone(&self) -> Self {
        Continuation { repr: self.repr.clone() }
    }
}

impl<S: StackSlot> fmt::Debug for Continuation<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Continuation<{}: {} records, {} slots>",
            self.strategy(),
            self.chain_len(),
            self.retained_slots()
        )
    }
}

/// One-shot continuation wrapper (`call/1cc`). Holds the wrapped
/// continuation until the first reinstatement takes it; afterwards the
/// wrapper is empty and reinstating it is [`StackError::OneShotReused`].
struct OneShotKont<S: StackSlot> {
    inner: RefCell<Option<Continuation<S>>>,
    /// Strategy of the wrapped continuation, kept so the wrapper still
    /// reports it after the shot is spent.
    strategy: &'static str,
}

impl<S: StackSlot> fmt::Debug for OneShotKont<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OneShotKont")
            .field("strategy", &self.strategy)
            .field("consumed", &self.inner.borrow().is_none())
            .finish()
    }
}

impl<S: StackSlot> KontRepr<S> for OneShotKont<S> {
    /// The wrapper is no record of its own; its chain is the wrapped one.
    fn footprint(&self) -> (usize, usize) {
        (0, 0)
    }

    fn link(&self) -> Option<Continuation<S>> {
        self.inner.borrow().clone()
    }

    fn strategy(&self) -> &'static str {
        self.strategy
    }
}

/// The exit continuation's representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExitKont;

impl<S: StackSlot> KontRepr<S> for ExitKont {
    fn footprint(&self) -> (usize, usize) {
        (0, 0)
    }

    fn link(&self) -> Option<Continuation<S>> {
        None
    }

    fn strategy(&self) -> &'static str {
        "exit"
    }
}

/// A continuation on its way into [`ControlStack::resume`]: the record to
/// reinstate, and whether its handle dies with the reinstatement.
///
/// Only this crate builds one, in two places. [`ControlStack::reinstate`]
/// takes a one-shot wrapper's shot, and that shot is owned: by the one-shot
/// contract nothing may reinstate it again. The segmented stack's underflow
/// handler takes its link out of the machine, and that link is owned too.
/// A multi-shot handle is borrowed from a binding that survives the call.
/// Only an owned record may be consumed, which is what the segmented
/// stack's zero-copy relink does; since no strategy outside this crate can
/// build a `Resume`, none can claim an ownership it lacks.
///
/// [`ControlStack::reinstate`]: crate::ControlStack::reinstate
/// [`ControlStack::resume`]: crate::ControlStack::resume
pub struct Resume<'a, S: StackSlot> {
    pub(crate) k: &'a Continuation<S>,
    pub(crate) owned: bool,
}

impl<'a, S: StackSlot> Resume<'a, S> {
    /// Resolves `k` for reinstatement. A one-shot wrapper gives up its shot
    /// into `shot`, which the result borrows as owned; a spent wrapper
    /// fails with [`StackError::OneShotReused`].
    pub(crate) fn new(
        k: &'a Continuation<S>,
        shot: &'a mut Option<Continuation<S>>,
    ) -> Result<Self, StackError> {
        Ok(match k.unwrap_one_shot() {
            None => Resume { k, owned: false },
            Some(taken) => Resume { k: shot.insert(taken?), owned: true },
        })
    }

    /// The record to reinstate: `None` for the exit continuation, or the
    /// `T` that `strategy` created.
    ///
    /// # Errors
    ///
    /// [`StackError::ForeignContinuation`] naming `strategy` if another
    /// strategy created the continuation.
    pub fn record<T: KontRepr<S>>(
        &self,
        strategy: &'static str,
    ) -> Result<Option<&'a T>, StackError> {
        self.k.record(strategy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::TestSlot;

    #[test]
    fn exit_continuation_properties() {
        let k = Continuation::<TestSlot>::exit();
        assert!(k.is_exit());
        assert_eq!(k.retained_slots(), 0);
        assert_eq!(k.chain_len(), 0);
        assert_eq!(k.strategy(), "exit");
        assert!(format!("{k:?}").contains("exit"));
    }

    #[test]
    fn clone_preserves_identity() {
        let k = Continuation::<TestSlot>::exit();
        let k2 = k.clone();
        assert!(k.ptr_eq(&k2));
        let k3 = Continuation::<TestSlot>::exit();
        assert!(!k.ptr_eq(&k3), "distinct exit records are distinct objects");
    }

    #[test]
    fn one_shot_wraps_and_consumes_exactly_once() {
        let inner = Continuation::<TestSlot>::exit();
        let k = Continuation::one_shot(inner);
        assert!(k.is_one_shot());
        assert!(!k.one_shot_consumed());
        assert_eq!(k.strategy(), "exit");
        assert!(!k.is_exit(), "the wrapper itself is not the exit record");
        let taken = k.unwrap_one_shot().expect("is a wrapper").expect("first shot");
        assert!(taken.is_exit());
        assert!(k.one_shot_consumed());
        assert_eq!(
            k.unwrap_one_shot().expect("is a wrapper").unwrap_err(),
            StackError::OneShotReused
        );
        assert_eq!(k.retained_slots(), 0);
        assert_eq!(k.chain_len(), 0);
        assert!(format!("{k:?}").contains("exit"));
    }

    #[test]
    fn ordinary_continuations_are_not_one_shot() {
        let k = Continuation::<TestSlot>::exit();
        assert!(!k.is_one_shot());
        assert!(!k.one_shot_consumed());
        assert!(k.unwrap_one_shot().is_none());
    }

    #[test]
    fn repr_strong_count_tracks_handles() {
        let k = Continuation::<TestSlot>::exit();
        assert_eq!(k.repr_strong_count(), 1);
        let k2 = k.clone();
        assert_eq!(k.repr_strong_count(), 2);
        drop(k2);
        assert_eq!(k.repr_strong_count(), 1);
    }
}
