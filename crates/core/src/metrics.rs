//! Architecture-independent cost counters.
//!
//! The paper's comparisons (heap vs. copy vs. cache vs. hybrid vs.
//! segmented) are about *what work each model does per operation*: slots
//! copied, frames heap-allocated, overflow checks executed, segments
//! created. Every strategy maintains a [`Metrics`] record so benchmarks can
//! report these counts alongside wall-clock time; the counts reproduce the
//! paper's claims independently of the host machine.

use std::fmt;

/// Operation counters accumulated by a control-stack strategy.
///
/// All counters are monotonically increasing; [`Metrics::reset`] zeroes them
/// between benchmark phases.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct Metrics {
    /// Non-tail procedure calls performed.
    pub calls: u64,
    /// Tail calls performed.
    pub tail_calls: u64,
    /// Returns performed (including those that triggered underflow).
    pub returns: u64,
    /// Continuations captured (`call/cc`).
    pub captures: u64,
    /// Continuations reinstated (invocations of continuation objects,
    /// including implicit reinstatement on underflow).
    pub reinstatements: u64,
    /// Reinstatements served by the zero-copy relink fast path: the target
    /// record and its buffer were unshared, so the segment chain was
    /// adopted as the current stack without copying a single slot.
    pub reinstates_relinked: u64,
    /// Slots the relink fast path would otherwise have copied (the sizes of
    /// relinked records; the counterpart of `slots_copied` on the copy
    /// path).
    pub slots_copy_avoided: u64,
    /// Continuation splits performed before reinstatement (Figure 7).
    pub splits: u64,
    /// Stack overflows handled (implicit captures, §5).
    pub overflows: u64,
    /// Stack underflows handled (implicit reinstatements, §4–5).
    pub underflows: u64,
    /// Stack segments allocated (fresh allocations, not pool reuses).
    pub segments_allocated: u64,
    /// Stack segments obtained from the reuse pool.
    pub segments_reused: u64,
    /// Slots copied (the unit of copying cost: one slot clone).
    pub slots_copied: u64,
    /// Frames allocated in the heap (heap/cache/hybrid baselines; stack
    /// records for the segmented strategy are counted separately).
    pub heap_frames_allocated: u64,
    /// Heap slots allocated for frames or flushed stack images.
    pub heap_slots_allocated: u64,
    /// Stack records (continuation descriptors) allocated.
    pub stack_records_allocated: u64,
    /// Overflow checks actually executed (Figure 8 cost model).
    pub checks_executed: u64,
    /// Call sites that skipped the overflow check thanks to the two-frame
    /// reserve (leaf procedures, tail loops; §5).
    pub checks_elided: u64,
    /// Fused superinstructions dispatched (each replaces two or more
    /// plain opcodes on the interpreter hot path).
    pub superinstructions_dispatched: u64,
    /// Inline-cache hits at global-operator call sites.
    pub ic_hits: u64,
    /// Inline-cache misses (first execution or invalidated by a global
    /// redefinition) at global-operator call sites.
    pub ic_misses: u64,
}

impl Metrics {
    /// Creates a zeroed metrics record.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Zeroes every counter.
    pub fn reset(&mut self) {
        *self = Metrics::default();
    }

    /// Total procedure-call interface operations (calls + tail calls +
    /// returns) — the denominator for per-call overhead figures.
    pub fn call_interface_ops(&self) -> u64 {
        self.calls + self.tail_calls + self.returns
    }

    /// Merges `other` into `self` counter by counter — lossless
    /// aggregation of per-worker records into a runtime-wide total
    /// (saturating, so a pathological sum cannot wrap).
    pub fn merge(&mut self, other: &Metrics) {
        for (mine, theirs) in self.fields_mut().into_iter().zip(other.fields()) {
            *mine = mine.saturating_add(theirs);
        }
    }

    /// Every counter, in the fixed field order used by
    /// [`Metrics::FIELD_NAMES`].
    pub fn fields(&self) -> [u64; 21] {
        [
            self.calls,
            self.tail_calls,
            self.returns,
            self.captures,
            self.reinstatements,
            self.reinstates_relinked,
            self.slots_copy_avoided,
            self.splits,
            self.overflows,
            self.underflows,
            self.segments_allocated,
            self.segments_reused,
            self.slots_copied,
            self.heap_frames_allocated,
            self.heap_slots_allocated,
            self.stack_records_allocated,
            self.checks_executed,
            self.checks_elided,
            self.superinstructions_dispatched,
            self.ic_hits,
            self.ic_misses,
        ]
    }

    fn fields_mut(&mut self) -> [&mut u64; 21] {
        [
            &mut self.calls,
            &mut self.tail_calls,
            &mut self.returns,
            &mut self.captures,
            &mut self.reinstatements,
            &mut self.reinstates_relinked,
            &mut self.slots_copy_avoided,
            &mut self.splits,
            &mut self.overflows,
            &mut self.underflows,
            &mut self.segments_allocated,
            &mut self.segments_reused,
            &mut self.slots_copied,
            &mut self.heap_frames_allocated,
            &mut self.heap_slots_allocated,
            &mut self.stack_records_allocated,
            &mut self.checks_executed,
            &mut self.checks_elided,
            &mut self.superinstructions_dispatched,
            &mut self.ic_hits,
            &mut self.ic_misses,
        ]
    }

    /// Counter names matching [`Metrics::fields`] positionally.
    pub const FIELD_NAMES: [&'static str; 21] = [
        "calls",
        "tail_calls",
        "returns",
        "captures",
        "reinstatements",
        "reinstates_relinked",
        "slots_copy_avoided",
        "splits",
        "overflows",
        "underflows",
        "segments_allocated",
        "segments_reused",
        "slots_copied",
        "heap_frames_allocated",
        "heap_slots_allocated",
        "stack_records_allocated",
        "checks_executed",
        "checks_elided",
        "superinstructions_dispatched",
        "ic_hits",
        "ic_misses",
    ];

    /// A single-line JSON object with one member per counter, in
    /// [`Metrics::FIELD_NAMES`] order. Counters are plain JSON numbers.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in Self::FIELD_NAMES.iter().zip(self.fields()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{value}"));
        }
        out.push('}');
        out
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "calls={} tail={} rets={} captures={} reinstates={} relinked={} \
             copy-avoided={} splits={} ovf={} unf={} segs={}+{}r copied={} \
             heap-frames={} heap-slots={} records={} checks={}/{} elided \
             super={} ic={}/{}",
            self.calls,
            self.tail_calls,
            self.returns,
            self.captures,
            self.reinstatements,
            self.reinstates_relinked,
            self.slots_copy_avoided,
            self.splits,
            self.overflows,
            self.underflows,
            self.segments_allocated,
            self.segments_reused,
            self.slots_copied,
            self.heap_frames_allocated,
            self.heap_slots_allocated,
            self.stack_records_allocated,
            self.checks_executed,
            self.checks_elided,
            self.superinstructions_dispatched,
            self.ic_hits,
            self.ic_misses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zeroed_and_resets() {
        let mut m = Metrics::new();
        assert_eq!(m, Metrics::default());
        m.calls = 5;
        m.slots_copied = 100;
        m.reset();
        assert_eq!(m, Metrics::default());
    }

    #[test]
    fn call_interface_ops_sums_calls_and_returns() {
        let m = Metrics { calls: 3, tail_calls: 2, returns: 4, ..Metrics::default() };
        assert_eq!(m.call_interface_ops(), 9);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Metrics::new().to_string().is_empty());
    }

    #[test]
    fn merge_is_lossless_over_every_field() {
        // Build two records with distinct primes in every counter so any
        // dropped or double-counted field changes the sum.
        let mut a = Metrics::default();
        let mut b = Metrics::default();
        for (i, f) in a.fields_mut().into_iter().enumerate() {
            *f = (i as u64 + 1) * 3;
        }
        for (i, f) in b.fields_mut().into_iter().enumerate() {
            *f = (i as u64 + 1) * 1000;
        }
        let mut merged = a.clone();
        merged.merge(&b);
        for (i, (ma, (fa, fb))) in
            merged.fields().into_iter().zip(a.fields().into_iter().zip(b.fields())).enumerate()
        {
            assert_eq!(ma, fa + fb, "field {} dropped by merge", Metrics::FIELD_NAMES[i]);
        }
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = Metrics { calls: u64::MAX - 1, ..Metrics::default() };
        let b = Metrics { calls: 100, ..Metrics::default() };
        a.merge(&b);
        assert_eq!(a.calls, u64::MAX);
    }

    #[test]
    fn json_names_every_field() {
        let m = Metrics { calls: 7, checks_elided: 9, ..Metrics::default() };
        let json = m.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"calls\":7"));
        assert!(json.contains("\"checks_elided\":9"));
        for name in Metrics::FIELD_NAMES {
            assert!(json.contains(&format!("\"{name}\":")), "missing {name}");
        }
    }
}
