//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing inside the program is instrumented.
//!
//! A span has a name, a start and an end, the span that caused it, and a
//! request id shared by every span of one request. Spans stay in memory
//! until the run ends and are then written out as JSON lines.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique span id.
    pub id: u64,
    /// Request the span belongs to.
    pub req: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer boundary, e.g. `wire.query` or `planner.plan_select`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A span that has been opened and not yet closed.
#[derive(Debug)]
pub struct Open {
    id: u64,
    req: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// The span's id, for children to name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// A per-thread span recorder. When disabled it still times every span
/// (the benchmark needs the latencies either way) but records nothing,
/// so the difference between a traced and an untraced run is the cost
/// of recording.
pub struct Tracer {
    origin: Instant,
    next: u64,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span and request ids start at `lane << 40`, so the
    /// ids of tracers on different threads never collide.
    pub fn new(origin: Instant, lane: u64) -> Self {
        Self { origin, next: lane << 40, enabled: false, spans: Vec::new() }
    }

    /// Start or stop recording.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// A fresh request id.
    pub fn request(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    /// Open a span.
    pub fn open(&mut self, req: u64, name: &'static str, parent: Option<u64>) -> Open {
        self.next += 1;
        Open { id: self.next, req, parent, name, start: Instant::now() }
    }

    /// Close a span, recording it when enabled; returns its duration.
    pub fn close(&mut self, open: Open) -> Duration {
        let dur = open.start.elapsed();
        if self.enabled {
            self.spans.push(Span {
                id: open.id,
                req: open.req,
                parent: open.parent,
                name: open.name,
                start_ns: open.start.saturating_duration_since(self.origin).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
            });
        }
        dur
    }

    /// Run `f` inside a span and return its result and duration.
    pub fn time<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.open(req, name, parent);
        let out = f();
        (out, self.close(open))
    }

    /// Move every recorded span out.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Write spans as JSON lines, one object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"req\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
            s.id, s.req, parent, s.name, s.start_ns, s.dur_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 1);
        let req = t.request();
        let (v, _) = t.time(req, "x", None, || 7);
        assert_eq!(v, 7);
        assert!(t.take().is_empty());
    }

    #[test]
    fn spans_share_request_and_name_their_parent() {
        let mut t = Tracer::new(Instant::now(), 2);
        t.set_enabled(true);
        let req = t.request();
        let outer = t.open(req, "outer", None);
        let outer_id = outer.id();
        t.time(req, "inner", Some(outer_id), || ());
        t.close(outer);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, Some(outer_id));
        assert!(spans.iter().all(|s| s.req == req && s.id >> 40 == 2));
    }
}
