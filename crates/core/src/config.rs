//! Tunable parameters of the segmented stack (paper §4–§5).

use crate::error::StackError;

/// Configuration for a [`SegmentedStack`](crate::SegmentedStack) (and, where
/// the fields apply, for the baseline strategies).
///
/// The three central knobs come straight from the paper:
///
/// * `segment_slots` — size of freshly allocated stack segments. "The
///   initial stack segment is large ... so that stack overflow for deeply
///   recursive programs is less likely, and ... because continuation
///   captures shorten the stack" (§4).
/// * `copy_bound` — the upper bound on slots copied when a continuation is
///   reinstated; larger saved segments are split first (§4, Figure 7). "An
///   appropriate bound for a given machine can be determined only by
///   experimentation" — experiment E7 performs that sweep.
/// * `frame_bound` — the bound on the size of a single frame, which
///   determines the worst-case reinstatement cost ("the frame bound then
///   determines the worst-case cost and the copy bound determines the
///   average-case cost", §4). The end-of-stack pointer is positioned two
///   frame bounds before the segment end (Figure 8) so that leaf procedures
///   and tail loops never need an overflow check.
///
/// # Examples
///
/// ```
/// use segstack_core::Config;
/// let cfg = Config::builder().segment_slots(4096).copy_bound(128).build()?;
/// assert_eq!(cfg.segment_slots(), 4096);
/// # Ok::<(), segstack_core::StackError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Config {
    segment_slots: usize,
    copy_bound: usize,
    frame_bound: usize,
    max_total_slots: Option<usize>,
    pool_segments: usize,
    tail_capture_rule: bool,
}

impl Config {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::default()
    }

    /// Slots per freshly allocated stack segment.
    pub fn segment_slots(&self) -> usize {
        self.segment_slots
    }

    /// Maximum slots copied per reinstatement before splitting kicks in.
    pub fn copy_bound(&self) -> usize {
        self.copy_bound
    }

    /// Maximum size of a single frame (displacement plus partial frame).
    pub fn frame_bound(&self) -> usize {
        self.frame_bound
    }

    /// Checks a call against the frame bound: the caller's displacement `d`
    /// and the callee's partial frame (its return-address word and `nargs`
    /// arguments) must each fit. Every strategy's
    /// [`call`](crate::ControlStack::call) makes this check.
    ///
    /// # Errors
    ///
    /// [`StackError::FrameTooLarge`] with the larger of the two sizes.
    #[inline]
    pub fn check_frame(&self, d: usize, nargs: usize) -> Result<(), StackError> {
        let bound = self.frame_bound;
        if d > bound || 1 + nargs > bound {
            return Err(StackError::FrameTooLarge { requested: d.max(1 + nargs), bound });
        }
        Ok(())
    }

    /// The end-of-stack reserve: `esp` sits this many slots before the
    /// segment end. Room for two frames, per Figure 8.
    pub fn esp_reserve(&self) -> usize {
        2 * self.frame_bound
    }

    /// Optional cap on the slots of all the fresh segments a segmented
    /// stack allocates over its life; used for failure injection. Every
    /// fresh segment is charged and nothing is refunded (a pooled segment
    /// that is reused costs nothing), so this bounds total allocation, not
    /// live memory. `None` means unlimited.
    pub fn max_total_slots(&self) -> Option<usize> {
        self.max_total_slots
    }

    /// How many retired segments the allocator keeps for reuse.
    pub fn pool_segments(&self) -> usize {
        self.pool_segments
    }

    /// Whether capture on an empty segment reuses the record's link (§4:
    /// "the link field of the current stack record serves as the new
    /// continuation"). Always on in practice; turning it off is an
    /// *ablation* showing the chain growth the rule prevents.
    pub fn tail_capture_rule(&self) -> bool {
        self.tail_capture_rule
    }
}

impl Default for Config {
    fn default() -> Self {
        Config {
            segment_slots: 16 * 1024,
            copy_bound: 128,
            frame_bound: 64,
            max_total_slots: None,
            pool_segments: 4,
            tail_capture_rule: true,
        }
    }
}

/// Builder for [`Config`].
///
/// # Examples
///
/// ```
/// use segstack_core::Config;
/// let cfg = Config::builder()
///     .segment_slots(1024)
///     .copy_bound(64)
///     .frame_bound(32)
///     .build()?;
/// assert_eq!(cfg.esp_reserve(), 64);
/// # Ok::<(), segstack_core::StackError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct ConfigBuilder {
    segment_slots: Option<usize>,
    copy_bound: Option<usize>,
    frame_bound: Option<usize>,
    max_total_slots: Option<Option<usize>>,
    pool_segments: Option<usize>,
    tail_capture_rule: Option<bool>,
}

impl ConfigBuilder {
    /// Sets the size, in slots, of freshly allocated segments.
    pub fn segment_slots(mut self, slots: usize) -> Self {
        self.segment_slots = Some(slots);
        self
    }

    /// Sets the reinstatement copy bound, in slots.
    pub fn copy_bound(mut self, slots: usize) -> Self {
        self.copy_bound = Some(slots);
        self
    }

    /// Sets the frame bound, in slots.
    pub fn frame_bound(mut self, slots: usize) -> Self {
        self.frame_bound = Some(slots);
        self
    }

    /// Caps the slots of all fresh segments allocated over the stack's life
    /// (for failure-injection tests); see [`Config::max_total_slots`].
    pub fn max_total_slots(mut self, slots: usize) -> Self {
        self.max_total_slots = Some(Some(slots));
        self
    }

    /// Sets how many retired segments are pooled for reuse.
    pub fn pool_segments(mut self, n: usize) -> Self {
        self.pool_segments = Some(n);
        self
    }

    /// Disables the §4 empty-segment capture rule (ablation only: the
    /// control stack then grows on every tail-position capture, which is
    /// exactly what the rule exists to prevent).
    pub fn disable_tail_capture_rule(mut self) -> Self {
        self.tail_capture_rule = Some(false);
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`StackError::FrameTooLarge`] if a segment cannot hold even a
    /// single maximal frame plus the two-frame `esp` reserve — such a
    /// configuration could never run a program.
    pub fn build(self) -> Result<Config, StackError> {
        let base = Config::default();
        let cfg = Config {
            segment_slots: self.segment_slots.unwrap_or(base.segment_slots),
            copy_bound: self.copy_bound.unwrap_or(base.copy_bound),
            frame_bound: self.frame_bound.unwrap_or(base.frame_bound),
            max_total_slots: self.max_total_slots.unwrap_or(base.max_total_slots),
            pool_segments: self.pool_segments.unwrap_or(base.pool_segments),
            tail_capture_rule: self.tail_capture_rule.unwrap_or(base.tail_capture_rule),
        };
        // A segment must fit one maximal frame below esp, plus the reserve.
        if cfg.segment_slots < cfg.frame_bound + cfg.esp_reserve() || cfg.frame_bound == 0 {
            return Err(StackError::FrameTooLarge {
                requested: cfg.frame_bound + cfg.esp_reserve(),
                bound: cfg.segment_slots,
            });
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let cfg = Config::builder().build().unwrap();
        assert_eq!(cfg, Config::default());
        assert_eq!(cfg.esp_reserve(), 2 * cfg.frame_bound());
    }

    #[test]
    fn builder_overrides_fields() {
        let cfg = Config::builder()
            .segment_slots(512)
            .copy_bound(32)
            .frame_bound(16)
            .max_total_slots(8192)
            .pool_segments(0)
            .build()
            .unwrap();
        assert_eq!(cfg.segment_slots(), 512);
        assert_eq!(cfg.copy_bound(), 32);
        assert_eq!(cfg.frame_bound(), 16);
        assert_eq!(cfg.max_total_slots(), Some(8192));
        assert_eq!(cfg.pool_segments(), 0);
    }

    #[test]
    fn rejects_segment_smaller_than_frame_plus_reserve() {
        let err = Config::builder().segment_slots(100).frame_bound(64).build().unwrap_err();
        assert!(matches!(err, StackError::FrameTooLarge { .. }));
    }

    #[test]
    fn rejects_zero_frame_bound() {
        assert!(Config::builder().frame_bound(0).build().is_err());
    }

    #[test]
    fn tiny_but_consistent_config_is_accepted() {
        // Used by failure-injection tests: overflow on nearly every call.
        let cfg =
            Config::builder().segment_slots(48).frame_bound(16).copy_bound(8).build().unwrap();
        assert_eq!(cfg.esp_reserve(), 32);
    }
}
