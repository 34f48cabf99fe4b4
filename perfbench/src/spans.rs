//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a layer name, the cause that made the benchmark call it
//! (the cell label, or the pass), its parent and its interval. Spans stay
//! in memory while the run measures and are written out once at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Span {
    parent: Option<usize>,
    name: &'static str,
    cause: String,
    start: Duration,
    end: Duration,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The span recorder. Nesting follows the call stack.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        cause: impl Into<String>,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            cause: cause.into(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Duration of the most recently closed span named `name`, seconds.
    pub fn last_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.duration().as_secs_f64())
    }

    /// Durations of every span named `name`, seconds, in start order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64())
            .collect()
    }

    fn self_time(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration());
            }
        }
        own
    }

    /// Self time (duration minus the time child spans cover) summed per
    /// span name, seconds.
    pub fn self_s_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_time()) {
            *by_name.entry(s.name).or_insert(0.0) += own.as_secs_f64();
        }
        by_name
    }

    /// Summed duration of the top-level spans, seconds.
    pub fn roots_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.duration().as_secs_f64())
            .sum()
    }

    /// Every span as one JSON object per line, with its self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, (s, own)) in self.spans.iter().zip(self.self_time()).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"cause\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.cause.replace('\\', "\\\\").replace('"', "\\\""),
                s.start.as_nanos(),
                s.end.as_nanos(),
                own.as_nanos()
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}
