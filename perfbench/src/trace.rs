//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, a start and an end, the span that caused it, and a
//! request id shared by every span of one request.  Spans stay in memory
//! while a run measures and are written out once, when it ends.  A layer's
//! **self time** is its span's duration minus the part of that interval
//! its child spans cover.
//!
//! A tracer reads one clock: wall time for spans that cross threads (a
//! request's due time, submission and reply), or the calling thread's CPU
//! time for spans of work done on that thread (see [`crate::cpu`]).

use crate::cpu;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `fit.learn`.
    pub name: &'static str,
    /// The span this one ran inside of.
    pub parent: Option<SpanId>,
    /// Request the span belongs to (0 outside serving).
    pub request: u64,
    /// Start offset in nanoseconds.
    pub start_ns: u64,
    /// End offset in nanoseconds (`>= start_ns`).
    pub end_ns: u64,
}

/// The clock a [`Tracer`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Monotonic wall time since the tracer was made.
    Wall,
    /// CPU time of the thread that opens and closes the spans.
    ThreadCpu,
}

/// Span recorder on one clock.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer on `clock`.
    pub fn new(clock: Clock) -> Self {
        Self {
            clock,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn now_ns(&self) -> u64 {
        match self.clock {
            Clock::Wall => self.offset(Instant::now()),
            Clock::ThreadCpu => u64::try_from(cpu::thread_time().as_nanos()).unwrap_or(u64::MAX),
        }
    }

    fn push_ns(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Records a span that ran from `start` to `end` (wall-clock tracers).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        assert_eq!(
            self.clock,
            Clock::Wall,
            "instants only place spans on a wall clock"
        );
        let (start_ns, end_ns) = (self.offset(start), self.offset(end));
        self.push_ns(name, parent, request, start_ns, end_ns)
    }

    /// Starts a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.push_ns(name, parent, 0, now, now)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: SpanId) {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end.max(span.start_ns);
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn record<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push_ns(name, Some(parent), 0, start, end);
        out
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` in seconds.
    pub fn duration_s(&self, id: SpanId) -> f64 {
        let span = &self.spans[id];
        (span.end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Sum of the self times (seconds) of every span named `name`.
    pub fn self_time_s(&self, name: &str) -> f64 {
        let self_ns = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(self_ns)
            .filter(|(span, _)| span.name == name)
            .map(|(_, ns)| ns as f64 * 1e-9)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let clock = match self.clock {
            Clock::Wall => "wall",
            Clock::ThreadCpu => "thread_cpu",
        };
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"clock\":\"{clock}\",\"name\":\"{}\",\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.request, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.clamp(reach, span.end_ns);
                let end = end.clamp(start, span.end_ns);
                covered += end - start;
                reach = end;
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 50, 90),
            span("a.inner", Some(1), 12, 20),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 12, 40, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", None, 100, 200),
            span("x", Some(0), 90, 130),
            span("y", Some(0), 120, 150),
            span("z", Some(0), 180, 260),
        ];
        // Covered: [100, 150) and [180, 200) = 70 of 100.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_sums_self_time_by_name() {
        let mut tracer = Tracer::new(Clock::Wall);
        let t0 = tracer.origin;
        let at = |ns: u64| t0 + std::time::Duration::from_nanos(ns);
        let root = tracer.push("fit", None, 0, at(0), at(1_000));
        tracer.push("fit.learn", Some(root), 0, at(100), at(400));
        tracer.push("fit.learn", Some(root), 0, at(500), at(700));
        assert!((tracer.self_time_s("fit.learn") - 500e-9).abs() < 1e-15);
        assert!((tracer.self_time_s("fit") - 500e-9).abs() < 1e-15);
        assert!((tracer.duration_s(root) - 1e-6).abs() < 1e-15);
    }
}
