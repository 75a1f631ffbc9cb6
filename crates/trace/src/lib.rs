//! # segstack-trace
//!
//! Always-on observability for the segmented-stack workspace: compact
//! binary trace events, lock-free-per-owner ring sinks, log2-bucketed
//! histograms, and a Chrome trace-event (Perfetto) exporter.
//!
//! The paper's claims — O(1) capture, bounded copy on reinstatement, the
//! Figure 8 two-frame reserve — are statements about *per-event* cost,
//! but aggregate counters (`segstack_core::Metrics`) only show totals.
//! This crate records the individual events so distributions (p50/p99
//! capture size, reinstate copy cost) and timelines (per-worker quantum
//! schedules, per-job latency) become observable.
//!
//! ## Design
//!
//! * [`RingSink`] is the recording ring: owned by exactly one thread
//!   (lock-free by ownership), bounded (drop-oldest), with always-on
//!   per-kind counters and [`Histogram`]s that survive ring wrap.
//! * [`emit`] is the one way instrumented code writes an event. Each
//!   writer (the segmented stack, a serve worker) holds an
//!   `Option<Rc<RefCell<RingSink>>>`; `None` means untraced, and the
//!   hook is one `None` test at an event site. No event sits on the
//!   call/return path, so an untraced machine pays nothing per call.
//! * [`OwnerTrace`]s drained from per-owner rings merge into one
//!   [`chrome_trace_json`] document; [`validate_chrome_trace`] checks it
//!   and [`flame_summary`] renders a folded-stack text view.
//! * [`json`] is a tiny JSON reader used by the validator and by tests
//!   that check the workspace's hand-rolled JSON emitters.
//!
//! This crate is dependency-free by design: the build environment is
//! offline, and `segstack-core` sits below every other crate.
//!
//! ## Example
//!
//! ```
//! use segstack_trace::{EventKind, RingSink};
//!
//! let mut ring = RingSink::new();
//! ring.record_now(EventKind::Capture, 24, 0);
//! ring.record_now(EventKind::Capture, 96, 0);
//! assert_eq!(ring.kind_count(EventKind::Capture), 2);
//! assert_eq!(ring.histogram(EventKind::Capture).summary().max, 96);
//!
//! let trace = ring.take_trace("bench", 1);
//! let doc = segstack_trace::chrome_trace_json(&[trace]);
//! segstack_trace::validate_chrome_trace(&doc).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod event;
mod hist;
pub mod json;
mod ring;

pub use chrome::{chrome_trace_json, flame_summary, validate_chrome_trace, ChromeStats};
pub use event::{Event, EventKind, KIND_COUNT};
pub use hist::{percentile, HistSummary, Histogram, HIST_BUCKETS};
pub use ring::{emit, OwnerTrace, RingSink, DEFAULT_RING_CAPACITY};
