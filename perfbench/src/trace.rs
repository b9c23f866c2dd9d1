//! In-memory spans for the traced run.
//!
//! A span has a name, a start, an end and a parent. One workload run is
//! the root span; spans are kept in memory and written once, as JSON, at
//! the end. A layer's self time is its spans' durations minus the time
//! their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: String,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer with the root span `root` open.
    pub fn new(root: &str) -> Tracer {
        let mut t = Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        };
        t.enter(root);
        t
    }

    pub fn now_ns(&self) -> u64 {
        self.at(Instant::now())
    }

    pub fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a child of the innermost open span.
    pub fn enter(&mut self, name: &str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.enter(name);
        let r = f(self);
        self.exit();
        r
    }

    /// Records an already finished child of the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
        });
    }

    /// Makes the last recorded span the parent of the spans recorded
    /// next, until [`Tracer::exit_recorded`].
    pub fn enter_recorded(&mut self) {
        self.open.push(self.spans.len() - 1);
    }

    /// Undoes [`Tracer::enter_recorded`] without touching the span's end.
    pub fn exit_recorded(&mut self) {
        self.open.pop();
    }

    /// Closes every open span, the root included.
    pub fn finish(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    /// Self time per span name, seconds: each span's duration minus the
    /// union of its children's intervals.
    pub fn self_times(&self) -> BTreeMap<&str, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns))
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let self_s = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered) as f64 * 1e-9;
            *out.entry(s.name.as_str()).or_insert(0.0) += self_s;
        }
        out
    }

    /// The spans and per-name self times as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{sep}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("],\n\"self_s\": {");
        let selfs: Vec<String> = self
            .self_times()
            .iter()
            .map(|(name, s)| format!("\"{name}\": {s}"))
            .collect();
        out.push_str(&selfs.join(", "));
        out.push_str("}}\n");
        out
    }
}
