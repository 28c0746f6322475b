//! In-memory spans recorded by the benchmark around its calls into the
//! library, for the traced run's per-layer self-time table.
//!
//! A span has a name (`layer.what`), the op it belongs to, its parent span
//! and its interval. Durations the library reports itself (pipeline phase
//! seconds, review advance/pipeline seconds) are attached as child spans of
//! the span that encloses them; their placement inside the parent is not
//! known, only their length, which is all self time needs. A span's self
//! time is its duration minus its children's. Nothing is recorded while the
//! tracer is disabled.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in seconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

/// Handle of a recorded span (`None` when tracing is off).
pub type SpanId = Option<usize>;

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off (the traced run alternates traced and
    /// untraced passes to measure the tracing overhead).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Records a measured interval.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        self.spans.push(Span {
            name,
            op,
            parent,
            start: at(start),
            end: at(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Attaches a library-reported duration as a child of `parent`.
    pub fn attach(&mut self, name: &'static str, parent: SpanId, secs: f64) -> SpanId {
        let p = parent?;
        let (op, start) = (self.spans[p].op, self.spans[p].start);
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end: start + secs,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by index.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        own
    }

    /// Total self time per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0.0) += t;
        }
        out
    }

    /// Per op: the op span's duration and the most negative self time
    /// among its spans (a child longer than its parent means the phase
    /// rows do not add up to the op).
    pub fn op_balance(&self) -> BTreeMap<u64, (f64, f64)> {
        let own = self.self_times();
        let mut out: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            let e = out.entry(s.op).or_insert((0.0, 0.0));
            if s.parent.is_none() {
                e.0 += s.end - s.start;
            }
            e.1 = e.1.min(t);
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_s\": {:?}, \"end_s\": {:?}}}",
                s.name, s.op, s.start, s.end
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let a = Instant::now();
        let b = a + Duration::from_millis(10);
        let op = t.record("topk.run", 7, None, a, b);
        t.attach("scan.delta", op, 0.004);
        let own = t.self_time_by_name();
        assert!((own["topk.run"] - 0.006).abs() < 1e-9);
        assert!((own["scan.delta"] - 0.004).abs() < 1e-9);
        let (wall, worst) = t.op_balance()[&7];
        assert!((wall - 0.010).abs() < 1e-9);
        assert!(worst >= 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        let id = t.record("topk.run", 0, None, now, now);
        assert!(id.is_none());
        assert!(t.attach("scan.delta", id, 1.0).is_none());
        assert!(t.spans().is_empty());
    }
}
