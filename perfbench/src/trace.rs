//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Spans are recorded from outside the program: the benchmark wraps its
//! calls into a layer's public functions, so no layer is instrumented.
//! They stay in memory while a run measures and are written out once, at
//! the end, as tab-separated lines.

use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// One timed call: what ran, for which operation, inside which span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `engine.query`.
    pub name: &'static str,
    /// The operation the span belongs to; spans of one operation share it.
    pub op: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

/// A span recorder. A disabled tracer records nothing, so the untraced
/// run pays only the branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`; pass one origin to
    /// every thread's tracer so their spans share a clock.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a span that ran from `start` to `end`, returning its index
    /// for children to name as their parent.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that lasts until [`close`](Self::close), so the spans
    /// it causes can name it as their parent.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, op, parent, now, now)
    }

    /// Ends a span [`open`](Self::open) returned.
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span named `name`, returning its result and the
    /// call's duration in microseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, op, parent, start, end);
        (out, (end - start).as_secs_f64() * 1e6)
    }

    /// Appends every span of `other`, re-indexing its parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span to `path`, one tab-separated line each:
    /// index, parent (`-` for none), op, name, start and end in ns.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\tparent\top\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
