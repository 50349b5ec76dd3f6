//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer's public function is wrapped
//! in a span: name, start, end, the enclosing span and the op it serves.
//! Spans stay in memory while the run measures and are written out once at
//! the end, so writing them never lands inside a timed interval.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of this span in the recording.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// The op this call belongs to (shared by all spans of one op).
    pub op: u64,
    /// Layer-qualified name, e.g. `core.compile_all` or `sim.C`.
    pub name: String,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// The recorder: a flat vector of spans plus the stack of open ones.
pub(crate) struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub(crate) fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name` for op `op`. Spans opened inside
    /// `f` (through the recorder it receives) become its children.
    pub(crate) fn span<R>(
        &mut self,
        name: impl Into<String>,
        op: u64,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Number of spans recorded so far (a cursor for [`Spans::since`]).
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans recorded since `cursor`.
    pub(crate) fn since(&self, cursor: usize) -> &[Span] {
        &self.spans[cursor..]
    }

    pub(crate) fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span name, in milliseconds: each span's duration minus the
/// part of it that its direct children cover. Children never overlap (the
/// benchmark is single-threaded), so the covered part is their summed
/// duration. `spans` must hold every child of every span it holds.
pub fn self_ms(spans: &[Span]) -> BTreeMap<String, f64> {
    let base = spans.first().map_or(0, |s| s.id);
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            if p < child_ns.len() {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.name.clone()).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Write `spans` as JSON lines, one object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Spans::new();
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        let own = self_ms(&spans);
        assert!(own["inner"] >= 5.0);
        let total = (spans[0].end_ns - spans[0].start_ns) as f64 / 1e6;
        assert!((own["outer"] + own["inner"] - total).abs() < 1e-6);
    }
}
