//! The benchmark's own spans: one around every call it makes into a
//! layer (set-up phases, each job, each probe call). Spans stay in
//! memory and are written out once, when the run ends, in the Chrome
//! trace-event format (`chrome://tracing`, Perfetto).

use std::time::Instant;

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

#[derive(Clone, Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An in-memory span recorder. When disabled, `enter`/`exit` record
/// nothing and allocate nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` as a child of the innermost open span.
    pub fn enter(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (and any span left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span name, summed: a span's duration minus
    /// the part its children cover. Sorted by name.
    pub fn self_times_ns(&self) -> Vec<(String, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: Vec<(String, u64)> = Vec::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(kids);
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => by_name.push((s.name.clone(), own)),
            }
        }
        by_name.sort();
        by_name
    }

    /// The spans as a Chrome trace-event JSON document. Each event
    /// carries its index and its parent's index in `args`.
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                     \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {}}}}}",
                    ampc_runtime::driver::json_string(&s.name),
                    s.start_ns as f64 / 1e3,
                    s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                )
            })
            .collect();
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("outer", || 7);
        assert_eq!(v, 7);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        let selfs = t.self_times_ns();
        let inner = selfs.iter().find(|(n, _)| n == "inner").unwrap().1;
        let outer_self = selfs.iter().find(|(n, _)| n == "outer").unwrap().1;
        assert!(inner >= 2_000_000);
        assert!(outer_self < inner);
        let doc = t.to_chrome_json();
        assert!(ampc_bench::json::validate_json(&doc).is_ok(), "{doc}");
    }
}
