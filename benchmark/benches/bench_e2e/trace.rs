//! In-memory span recorder for the traced (`--trace 1`) run.
//!
//! One span per call into a layer's public function, recorded from the
//! benchmark's own files (spans inside the engine are a later issue):
//! name, start, end, the span that caused it, and the workload id. Spans
//! stay in memory and are written out once, when the run ends. A disabled
//! recorder makes [`Recorder::span`] a plain call, which is how the
//! tracing overhead is measured (same code, recorder on vs off).

use crate::json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &str, enabled: bool) -> Self {
        Self {
            enabled,
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of whichever span is
    /// open on this recorder.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A recorder sharing this one's epoch, workload id and on/off state —
    /// for a second thread; fold it back in with [`Recorder::absorb`].
    pub fn fork(&self) -> Recorder {
        Recorder {
            enabled: self.enabled,
            workload: self.workload.clone(),
            epoch: self.epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Appends a forked recorder's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Writes one JSON object per span (`benchmark/out/trace_<workload>.jsonl`).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}",
                json::object(&[
                    ("id", id.to_string()),
                    ("workload", json::string(&self.workload)),
                    ("name", json::string(s.name)),
                    ("start_ns", s.start_ns.to_string()),
                    ("end_ns", s.end_ns.to_string()),
                    ("parent", parent),
                    ("self_ns", self_ns[id].to_string()),
                ])
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (children of one recorder never overlap, so
/// coverage is the sum of their durations, clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(*c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span("run", 0, 100, None),
            span("step", 10, 40, Some(0)),
            span("step", 50, 90, Some(0)),
            span("predict", 55, 70, Some(2)),
            // A child sticking out of its parent only covers the overlap.
            span("late", 80, 120, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 15, 15, 40]);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut rec = Recorder::new("w", true);
        let x = rec.span("outer", |r| r.span("inner", |_| 7) + r.span("inner", |_| 1));
        assert_eq!(x, 8);
        let names: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("outer", None), ("inner", Some(0)), ("inner", Some(0))]
        );
        assert!(rec
            .spans()
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.end_ns <= rec.spans()[0].end_ns));
        assert_eq!(rec.durations_s("inner").len(), 2);

        let mut fork = rec.fork();
        fork.span("client", |r| r.span("submit", |_| ()));
        rec.absorb(fork);
        assert_eq!(rec.spans()[3].parent, None);
        assert_eq!(rec.spans()[4].parent, Some(3));

        let mut off = Recorder::new("w", false);
        assert_eq!(off.span("outer", |r| r.span("inner", |_| 3)), 3);
        assert!(off.spans().is_empty());
    }
}
