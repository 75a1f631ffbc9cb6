//! In-memory spans recorded around calls into each layer, written out at
//! exit as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer or phase name (`pass`, `reader`, `compile`, `vm`, `control`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The pass (or setup round) this span belongs to.
    pub pass: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// A span recorder for one thread.
pub struct Spans {
    epoch: Instant,
    /// Every span recorded so far, in opening order.
    pub spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Spans {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, pass: u64) -> usize {
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, pass });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time<T>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let pass = self.spans[parent].pass;
        let id = self.open(name, Some(parent), pass);
        let out = f();
        self.close(id);
        out
    }

    /// Self time (duration minus the children's durations) summed per
    /// root span and span name, in nanoseconds.
    pub fn self_by_root(&self) -> BTreeMap<usize, BTreeMap<&'static str, u64>> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::nanos).collect();
        // A parent is always opened before its children.
        let mut roots = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.nanos());
            }
            roots.push(s.parent.map_or(i, |p| roots[p]));
        }
        let mut out: BTreeMap<usize, BTreeMap<&'static str, u64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(roots[i]).or_default().entry(s.name).or_default() += own[i];
        }
        out
    }

    /// The spans as a Chrome trace-event document: one complete (`"X"`)
    /// event per span on a single track, with its pass and parent in
    /// `args`.
    pub fn to_chrome_json(&self) -> String {
        let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
        let mut events =
            vec![r#"{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"segbench"}}"#
                .to_string()];
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"{}\",\"cat\":\"segbench\",\
                 \"ts\":{},\"dur\":{},\"args\":{{\"span\":{i},\"parent\":{parent},\"pass\":{}}}}}",
                s.name,
                us(s.start),
                us(s.nanos()),
                s.pass
            ));
        }
        format!("{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}", events.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_export_validates() {
        let mut s = Spans::default();
        let root = s.open("pass", None, 0);
        s.time(root, "reader", || std::thread::sleep(std::time::Duration::from_millis(2)));
        s.time(root, "vm", || std::thread::sleep(std::time::Duration::from_millis(2)));
        s.close(root);
        let by_root = s.self_by_root();
        let layers = &by_root[&root];
        assert_eq!(layers.values().sum::<u64>(), s.spans[root].nanos());
        assert!(layers["reader"] >= 2_000_000 && layers["vm"] >= 2_000_000);
        let stats = segstack_core::trace::validate_chrome_trace(&s.to_chrome_json()).unwrap();
        assert_eq!(stats.spans, 3);
    }
}
