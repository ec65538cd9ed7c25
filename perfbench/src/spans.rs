//! In-memory span recorder for the traced run.
//!
//! A span is one call the benchmark makes into a crate's public API: its
//! name (`<layer>.<call>`), start and end on the run's monotonic clock, the
//! span that encloses it, and the job it belongs to (a sweep iteration or a
//! served job). Spans stay in memory while the run measures and are written
//! out once, at the end, so recording costs one `Instant::now()` pair and a
//! `Vec` push per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Free-form detail, e.g. the configuration label of a `cpu.run`.
    pub label: String,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work the call did, in the unit its metric uses (instructions
    /// decoded, accesses replayed); 0 when the span carries no count.
    pub work: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans for one thread of the benchmark.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, job: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        self.span_with(name, "", job, |t| (f(t), 0))
    }

    /// [`Tracer::span`] for a call that reports a label and a work count.
    pub fn span_with<R>(
        &mut self,
        name: &'static str,
        label: &str,
        job: u64,
        f: impl FnOnce(&mut Self) -> (R, u64),
    ) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            label: label.to_owned(),
            job,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            work: 0,
        });
        self.open.push(index);
        let (out, work) = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.work = work;
        out
    }

    /// Records an interval measured elsewhere (e.g. from a served job's
    /// event timestamps) as a span with no children.
    pub fn record(&mut self, name: &'static str, job: u64, start: Instant, end: Instant) {
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos())
                .expect("run shorter than 584 years")
        };
        self.spans.push(Span {
            name,
            label: String::new(),
            job,
            parent: self.open.last().copied(),
            start_ns: at(start),
            end_ns: at(end),
            work: 0,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Runs `f` in a span when a tracer is given, bare otherwise: the untraced
/// and traced passes share one code path.
pub fn maybe_span<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    job: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, job, |_| f()),
        None => f(),
    }
}

/// Per-span self time: the span's duration minus the part of it that its
/// child spans cover (children of one thread never overlap, but the union
/// is taken anyway so a misuse cannot produce negative time).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Aggregate of every span sharing a name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub calls: u64,
    pub self_ns: u64,
    pub work: u64,
}

impl Totals {
    /// Mean self time per call in `unit_ns` units; 0 when never called.
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / unit_ns
        }
    }
}

/// Self-time totals by span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(span.name).or_default();
        t.calls += 1;
        t.self_ns += self_ns;
        t.work += span.work;
    }
    out
}

/// Writes every span as one NDJSON line, with its self time.
pub fn write_ndjson(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut text = String::new();
    for (i, (span, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"id\":{i},\"name\":\"{}\",\"label\":{:?},\"job\":{},\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"work\":{}}}",
            span.name, span.label, span.job, span.start_ns, span.end_ns, span.work
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            label: String::new(),
            job: 0,
            parent,
            start_ns,
            end_ns,
            work: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 50),
            span(Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 30, 30]);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new(Instant::now());
        t.span("outer", 7, |t| t.span("inner", 7, |_| ()));
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].duration_ns() >= spans[1].duration_ns());
    }
}
