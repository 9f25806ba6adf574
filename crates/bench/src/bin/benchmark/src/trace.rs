//! Spans the benchmark records around its calls into each layer in a traced
//! run: kept in a preallocated buffer, written out as JSONL when the run ends.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// The request or instance the span belongs to.
    pub request_id: u64,
}

/// One thread's span buffer. A disabled buffer records nothing, so the
/// untraced path costs one branch per call site.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, enabled: bool, capacity: usize) -> Self {
        Spans {
            epoch,
            enabled,
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request_id: u64) {
        if self.enabled {
            let span = Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: None,
                request_id,
            };
            self.spans.push(span);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, request_id: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), request_id);
        out
    }

    /// Moves `other`'s spans into this buffer.
    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// Makes every other span a child of the span named `root` with the
    /// same request id, if there is one.
    pub fn link_to_roots(&mut self, root: &str) {
        let roots: HashMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(i, s)| (s.request_id, i))
            .collect();
        for s in &mut self.spans {
            if s.name != root {
                s.parent = roots.get(&s.request_id).copied();
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request_id
            );
        }
        std::fs::write(path, out)
    }
}

/// Mean self time per span name, in nanoseconds: each span's duration minus
/// the time its direct children cover.
pub fn mean_self_ns(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut acc: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        let e = acc.entry(s.name).or_default();
        e.0 += own as f64;
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(k, (sum, n))| (k, sum / n as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_across_merged_buffers() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut sender = Spans::new(t0, true, 4);
        sender.record("encode", at(0), at(10), 1);
        sender.record("write", at(10), at(30), 1);
        let mut reader = Spans::new(t0, true, 4);
        reader.record("request", at(0), at(100), 1);
        reader.record("request", at(200), at(250), 2);
        reader.record("decode", at(240), at(250), 2);
        sender.absorb(reader);
        sender.link_to_roots("request");
        let spans = sender.spans();
        assert_eq!(spans[0].parent, Some(2));
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(spans[2].parent, None);
        let own = mean_self_ns(spans);
        assert_eq!(own["request"], ((70_000 + 40_000) / 2) as f64);
        assert_eq!(own["write"], 20_000.0);

        let mut off = Spans::new(t0, false, 4);
        off.record("request", at(0), at(1), 1);
        assert!(off.spans().is_empty());
    }
}
