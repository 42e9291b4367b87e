//! The traced run's own spans: name, start, end and parent, recorded
//! around each call into a layer, kept in memory and written out once at
//! the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// What the span belongs to, e.g. `fig2/p3/r0`; spans of one cell
    /// share it.
    pub trace: String,
    /// Seconds since the tracer started.
    pub start: f64,
    pub end: f64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span; `f` receives the span's id to parent its
    /// children. Returns `f`'s result and the span's duration in seconds.
    pub fn span<T>(
        &self,
        parent: Option<usize>,
        name: &'static str,
        trace: &str,
        f: impl FnOnce(usize) -> T,
    ) -> (T, f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_secs_f64();
        let out = f(id);
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans
            .lock()
            .expect("a span holder panicked while recording")
            .push(Span {
                id,
                parent,
                name,
                trace: trace.to_string(),
                start,
                end,
            });
        (out, end - start)
    }

    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("a span holder panicked while recording");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Each span's duration minus the part of it its children cover, summed
/// by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0.0;
        if let Some(kids) = children.get_mut(&s.id) {
            // Children may overlap (cells run on several workers): count
            // the union of their intervals.
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut cur: Option<(f64, f64)> = None;
            for &(a, b) in kids.iter() {
                cur = match cur {
                    Some((x, y)) if a <= y => Some((x, y.max(b))),
                    Some((x, y)) => {
                        covered += y - x;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((x, y)) = cur {
                covered += y - x;
            }
        }
        *out.entry(s.name).or_insert(0.0) += (s.end - s.start - covered).max(0.0);
    }
    out
}

/// The spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"trace\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
            s.id, s.name, s.trace, s.start, s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            trace: String::new(),
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, "pass", 0.0, 10.0),
            span(1, Some(0), "cell", 1.0, 5.0),
            span(2, Some(0), "cell", 4.0, 6.0),
            span(3, Some(1), "raw_run", 1.0, 2.0),
        ];
        let t = self_times(&spans);
        assert!((t["pass"] - 5.0).abs() < 1e-9, "10 - union [1, 6]");
        assert!((t["cell"] - (3.0 + 2.0)).abs() < 1e-9);
        assert!((t["raw_run"] - 1.0).abs() < 1e-9);
    }
}
