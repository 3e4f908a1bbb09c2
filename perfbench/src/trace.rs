//! In-memory spans recorded around calls into each layer, written out as
//! JSON lines when the traced run ends.
//!
//! A span is opened and closed from the benchmark's own code, so it times a
//! public call of one crate from outside; `parent` links a span to the span
//! that was open when it started.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `congest.topology`.
    pub name: &'static str,
    /// Executor shards the call ran on (0 where it does not apply).
    pub shards: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans in memory; a tracer that is off records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recording tracer whose clock starts now.
    pub fn on() -> Self {
        Self { on: true, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// A tracer that only runs the code it wraps.
    pub fn off() -> Self {
        Self { on: false, ..Self::on() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        shards: u32,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, shards, parent, start_ns, end_ns: start_ns });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Durations in seconds of every span with this name and shard count.
    pub fn durations(&self, name: &str, shards: u32) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name && s.shards == shards).map(Span::secs).collect()
    }

    /// The spans as JSON lines, one object per span, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"shards\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.shards, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut off = Tracer::off();
        assert_eq!(off.span("outer", 0, |t| t.span("inner", 0, |_| 7)), 7);
        assert!(off.spans.is_empty());
        let mut t = Tracer::on();
        t.span("outer", 0, |t| t.span("inner", 2, |_| ()));
        t.span("outer", 0, |_| ());
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, None);
        assert_eq!(t.durations("outer", 0).len(), 2);
        assert_eq!(t.durations("inner", 2).len(), 1);
        assert!(
            t.spans[0].start_ns <= t.spans[1].start_ns && t.spans[1].end_ns <= t.spans[0].end_ns
        );
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}
