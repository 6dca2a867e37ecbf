//! In-memory span recording for the traced run.
//!
//! A span is a named `[start, end)` interval with the id of the span that
//! was open when it started (its parent). Spans live in memory while the
//! traced pass runs and are written out as JSON lines once it is over, so
//! the recording itself never touches the disk on the measured path.

use crate::clock::now_ns;
use crate::stats::self_time;
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// The layer operation the span times, e.g. `engine.fold`.
    pub name: &'static str,
    /// Start, in [`now_ns`] nanoseconds.
    pub start_ns: u64,
    /// End, in [`now_ns`] nanoseconds.
    pub end_ns: u64,
}

impl Span {
    /// Length of the span in nanoseconds.
    pub fn len_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span recorder. When disabled, [`Tracer::span`] runs
/// its closure and records nothing.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<u32>>,
}

impl Tracer {
    /// A recorder that records (`true`) or only forwards (`false`).
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            ..Tracer::default()
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = u32::try_from(spans.len()).unwrap_or(u32::MAX);
            let parent = self.stack.borrow().last().copied();
            spans.push(Span {
                id,
                parent,
                name,
                start_ns: 0,
                end_ns: 0,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let start = now_ns();
        let out = f();
        let end = now_ns();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[id as usize];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// File creation or write failures.
    pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in spans {
            let parent = span.parent.map_or(String::from("null"), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.id, parent, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-span views over a recorded span list: children by parent and self
/// times.
pub struct SpanIndex<'a> {
    spans: &'a [Span],
    children: Vec<Vec<u32>>,
}

impl<'a> SpanIndex<'a> {
    /// Indexes `spans` (ids must equal positions, as [`Tracer`] records
    /// them).
    pub fn new(spans: &'a [Span]) -> SpanIndex<'a> {
        let mut children = vec![Vec::new(); spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                children[parent as usize].push(span.id);
            }
        }
        SpanIndex { spans, children }
    }

    /// The span's length minus the union of its direct children.
    pub fn self_ns(&self, id: u32) -> u64 {
        let span = self.spans[id as usize];
        let kids: Vec<(u64, u64)> = self.children[id as usize]
            .iter()
            .map(|&c| {
                let child = self.spans[c as usize];
                (child.start_ns, child.end_ns)
            })
            .collect();
        self_time((span.start_ns, span.end_ns), &kids)
    }

    /// The spans named `name`.
    pub fn named<'n>(&self, name: &'n str) -> impl Iterator<Item = &'a Span> + 'n
    where
        'a: 'n,
    {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Lengths in nanoseconds of the spans named `name`.
    pub fn lengths(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.len_ns() as f64).collect()
    }

    /// Self times in nanoseconds of the spans named `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| self.self_ns(s.id) as f64)
            .collect()
    }

    /// Total length of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::len_ns).sum()
    }

    /// Total nanoseconds covered by top-level spans (no parent).
    pub fn top_level_ns(&self) -> u64 {
        self.top_level_where(|_| true)
    }

    /// Total nanoseconds covered by top-level spans named one of `names`.
    pub fn top_level_in(&self, names: &[&str]) -> u64 {
        self.top_level_where(|s| names.contains(&s.name))
    }

    fn top_level_where(&self, keep: impl Fn(&Span) -> bool) -> u64 {
        let tops: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && keep(s))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        crate::stats::union_length(&tops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_parents_and_self_time() {
        let tracer = Tracer::new(true);
        tracer.span("outer", || {
            tracer.span("inner", || std::hint::black_box(1 + 1));
            tracer.span("inner", || std::hint::black_box(2 + 2));
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let index = SpanIndex::new(&spans);
        let inner: u64 = index.total_ns("inner");
        assert_eq!(index.self_ns(0), spans[0].len_ns() - inner);
        assert_eq!(index.top_level_ns(), spans[0].len_ns());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", || 7), 7);
        assert!(tracer.spans().is_empty());
    }
}
