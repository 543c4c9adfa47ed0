//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `(kind, parent, start, duration)`; ops are children of the
//! block they ran in, blocks are children of their phase. Spans are kept in
//! a bounded buffer and written out once, when the run ends; spans past the
//! buffer are counted, not kept. With tracing off every call returns at once.

#![allow(clippy::disallowed_types)] // Instant: timing is this crate's job.

use std::io::Write;
use std::time::Instant;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A phase of a workload (bulk load, grow, churn, shrink, serve).
    Phase,
    /// One fixed-work block inside a phase.
    Block,
    /// `PssBackend::insert_many` or a graph build.
    Setup,
    /// `PssBackend::query`.
    Query,
    /// `PssBackend::insert`.
    Insert,
    /// `PssBackend::delete`.
    Delete,
    /// `graphsub::rr_set`.
    RrSet,
    /// `DynGraph::add_edge`.
    EdgeAdd,
    /// `DynGraph::remove_edge`.
    EdgeRemove,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Phase => "phase",
            Kind::Block => "block",
            Kind::Setup => "setup",
            Kind::Query => "pss_core.query",
            Kind::Insert => "pss_core.insert",
            Kind::Delete => "pss_core.delete",
            Kind::RrSet => "graphsub.rr_set",
            Kind::EdgeAdd => "graphsub.add_edge",
            Kind::EdgeRemove => "graphsub.remove_edge",
        }
    }
}

/// Id of "no span" (no parent, or a span that did not fit in the buffer).
pub const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    kind: Kind,
    parent: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    /// Open phase and block spans, innermost last.
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder keeping at most `cap` spans; `on = false` records nothing.
    pub fn new(on: bool, cap: usize) -> Self {
        let spans = if on { Vec::with_capacity(cap) } else { Vec::new() };
        Tracer { on, origin: Instant::now(), spans, cap, dropped: 0, stack: Vec::new() }
    }

    /// `true` iff spans and counters are being recorded.
    #[inline]
    pub fn on(&self) -> bool {
        self.on
    }

    fn push(&mut self, kind: Kind, start: Instant, end: Instant) -> u32 {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return NONE;
        }
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.spans.push(Span { kind, parent, start_ns, dur_ns });
        (self.spans.len() - 1) as u32
    }

    /// Opens a phase or block span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, kind: Kind) {
        if !self.on {
            return;
        }
        let now = Instant::now();
        let id = self.push(kind, now, now);
        self.stack.push(id);
    }

    /// Closes the innermost open span at the current time.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let Some(id) = self.stack.pop() else {
            return;
        };
        if let Some(s) = self.spans.get_mut(id as usize) {
            let end = self.origin.elapsed().as_nanos() as u64;
            s.dur_ns = end.saturating_sub(s.start_ns);
        }
    }

    /// Records one call that ran from `start` to `end`, as a child of the
    /// innermost open span.
    #[inline]
    pub fn leaf(&mut self, kind: Kind, start: Instant, end: Instant) {
        if self.on {
            self.push(kind, start, end);
        }
    }

    /// Spans kept and spans dropped past the buffer.
    pub fn counts(&self) -> (usize, u64) {
        (self.spans.len(), self.dropped)
    }

    /// Writes the spans as tab-separated `id parent kind start_ns dur_ns`.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tkind\tstart_ns\tdur_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE { -1 } else { i64::from(s.parent) };
            writeln!(out, "{i}\t{parent}\t{}\t{}\t{}", s.kind.name(), s.start_ns, s.dur_ns)?;
        }
        writeln!(out, "# dropped\t{}", self.dropped)?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_cap() {
        let mut t = Tracer::new(true, 3);
        t.open(Kind::Phase);
        t.open(Kind::Block);
        let now = Instant::now();
        t.leaf(Kind::Query, now, now);
        t.leaf(Kind::Insert, now, now);
        t.close();
        t.close();
        assert_eq!(t.counts(), (3, 1));
        assert_eq!(t.spans[2].parent, 1);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[0].parent, NONE);
        let off = Tracer::new(false, 3);
        assert!(!off.on());
        assert_eq!(off.counts(), (0, 0));
    }
}
