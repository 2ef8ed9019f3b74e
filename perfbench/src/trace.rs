//! In-memory spans for the traced run.
//!
//! Each span has a name, start and end (nanoseconds from the run's
//! epoch), the span that caused it and the request it belongs to. Spans
//! are buffered per thread, merged when the run ends and written out
//! once, so tracing adds no I/O to the measured work.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// `layer.operation`; the layer is the part before the first dot.
    pub name: &'static str,
    /// Start, ns from the tracer's epoch.
    pub start_ns: u64,
    /// End, ns from the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// The request (or slot) the span belongs to.
    pub req: u64,
}

impl Span {
    /// The layer a span belongs to.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The shared span sink of one traced run.
#[derive(Clone)]
pub struct Tracer {
    epoch: Instant,
    next_id: Arc<AtomicU64>,
    spans: Arc<Mutex<Vec<Span>>>,
}

/// A span that has started and not yet ended.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    /// The id the span will carry; children name it as their parent.
    pub id: u64,
    start: Instant,
}

/// A per-thread span buffer; merged into the tracer on drop.
pub struct Local {
    tracer: Tracer,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: Arc::new(AtomicU64::new(1)),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A buffer for the calling thread.
    #[must_use]
    pub fn local(&self) -> Local {
        Local {
            tracer: self.clone(),
            spans: Vec::with_capacity(4096),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far by dropped buffers, ordered by start.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span sink poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

impl Local {
    /// Starts a span now.
    #[must_use]
    pub fn open(&self) -> Open {
        self.open_at(Instant::now())
    }

    /// Starts a span at `start` (e.g. a request's due time).
    #[must_use]
    pub fn open_at(&self, start: Instant) -> Open {
        Open {
            id: self.tracer.next_id.fetch_add(1, Ordering::Relaxed),
            start,
        }
    }

    /// Ends `open` now.
    pub fn close(&mut self, open: Open, name: &'static str, parent: Option<u64>, req: u64) {
        self.close_at(open, Instant::now(), name, parent, req);
    }

    /// Ends `open` at `end`.
    pub fn close_at(
        &mut self,
        open: Open,
        end: Instant,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
    ) {
        let start_ns = self.tracer.ns(open.start);
        self.spans.push(Span {
            id: open.id,
            name,
            start_ns,
            end_ns: self.tracer.ns(end).max(start_ns),
            parent,
            req,
        });
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open();
        let out = f();
        self.close(open, name, parent, req);
        out
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.tracer.spans.lock() {
            sink.append(&mut self.spans);
        }
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// part of it that its child spans cover, summed by layer.
#[must_use]
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let busy = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered(s.start_ns, s.end_ns, kids));
        *out.entry(s.layer()).or_default() += (s.end_ns - s.start_ns) - busy;
    }
    out
}

/// Writes spans as JSON lines.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.req
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_only_the_covered_part_of_children() {
        let spans = vec![
            // sweep.slot [0, 100) with two children and a grandchild.
            span(1, "sweep.slot", 0, 100, None),
            span(2, "taskgen.generate", 10, 30, Some(1)),
            span(3, "core.evaluate", 40, 90, Some(1)),
            span(4, "analysis.walk", 50, 60, Some(3)),
            // A child that overlaps its sibling and runs past its
            // parent's end counts once, and only inside the parent.
            span(5, "core.evaluate", 80, 120, Some(1)),
        ];
        let by_layer = self_time_by_layer(&spans);
        // Parent: 100 minus [10,30) ∪ [40,100) = 100 - 80.
        assert_eq!(by_layer["sweep"], 20);
        assert_eq!(by_layer["taskgen"], 20);
        // [40,90) minus its child [50,60), plus the whole [80,120).
        assert_eq!(by_layer["core"], 40 + 40);
        assert_eq!(by_layer["analysis"], 10);
    }

    #[test]
    fn buffers_merge_on_drop_with_parents_linked() {
        let tracer = Tracer::new();
        {
            let mut local = tracer.local();
            let parent = local.open();
            local.time("engine.handle", Some(parent.id), 7, || ());
            local.close(parent, "gen.request", None, 7);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let parent = spans.iter().find(|s| s.name == "gen.request").unwrap();
        let child = spans.iter().find(|s| s.name == "engine.handle").unwrap();
        assert_eq!(child.parent, Some(parent.id));
        assert!(child.start_ns >= parent.start_ns && child.end_ns <= parent.end_ns);
        assert_eq!(child.req, 7);
    }
}
