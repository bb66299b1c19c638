//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the tracer was created), the span
//! that caused it and the request it belongs to. Callers buffer spans locally and hand them
//! to the shared [`Tracer`] when they finish, so recording takes no lock on the request path.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u64 = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A caller-local buffer that flushes into this tracer when dropped.
    pub fn buffer(&self) -> SpanBuf<'_> {
        SpanBuf {
            tracer: self,
            spans: Vec::new(),
        }
    }

    /// Every span recorded so far, ordered by start.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("no caller panicked"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Writes `spans` as CSV (`id,parent,request,name,start_ns,end_ns`).
    pub fn write_csv(spans: &[Span], path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,request,name,start_ns,end_ns")?;
        for s in spans {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

pub struct SpanBuf<'a> {
    tracer: &'a Tracer,
    spans: Vec<Span>,
}

impl SpanBuf<'_> {
    pub fn id(&self) -> u64 {
        self.tracer.id()
    }

    /// Records a span under the pre-allocated `id`.
    pub fn record_as(
        &mut self,
        id: u64,
        parent: u64,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
        });
    }

    /// Records a span and returns its id.
    pub fn record(
        &mut self,
        parent: u64,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.record_as(id, parent, request, name, start, end);
        id
    }
}

impl Drop for SpanBuf<'_> {
    fn drop(&mut self) {
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.append(&mut self.spans);
        }
    }
}
