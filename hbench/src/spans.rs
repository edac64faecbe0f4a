//! In-memory span recording for the traced run.
//!
//! The benchmark opens one [`TraceCtx`] per traced item (an input, a
//! job, a payload) and wraps each of its own calls into a layer's public
//! functions in a span. Traces stay in memory until the run ends, then
//! go to one JSON-lines file. A span's parent is the tightest span of
//! the same trace that encloses it; its self time is its duration minus
//! its children's.

use std::io::Write as _;
use std::path::Path;

use hammer_obs::{RequestTrace, TraceCtx};

use crate::report::escape;

#[derive(Default)]
pub struct Tracer {
    traces: Vec<(String, RequestTrace)>,
    next_id: u64,
}

impl Tracer {
    /// Opens the trace of one item; spans taken from the returned
    /// context share its id.
    pub fn begin(&mut self) -> TraceCtx {
        self.next_id += 1;
        TraceCtx::new(self.next_id)
    }

    /// Closes an item's trace under `label` (its input class or job).
    pub fn end(&mut self, label: impl Into<String>, ctx: &TraceCtx) {
        self.traces.push((label.into(), ctx.finish(0, 0)));
    }

    /// Self times in milliseconds of every span named `stage` in traces
    /// whose label is `label` (any label when `None`).
    pub fn self_ms(&self, stage: &str, label: Option<&str>) -> Vec<f64> {
        let mut out = Vec::new();
        for (l, t) in &self.traces {
            if label.is_some_and(|want| want != l) {
                continue;
            }
            let parents = parents(t);
            for (i, s) in t.spans.iter().enumerate() {
                if s.stage != stage {
                    continue;
                }
                let children: u64 = parents
                    .iter()
                    .enumerate()
                    .filter(|&(_, p)| *p == Some(i))
                    .map(|(j, _)| t.spans[j].dur_ns)
                    .sum();
                out.push(s.dur_ns.saturating_sub(children) as f64 / 1e6);
            }
        }
        out
    }

    /// Writes every trace as one JSON line: its label, id and spans
    /// with their parent's index.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{header}")?;
        for (label, t) in &self.traces {
            let parents = parents(t);
            let spans: Vec<String> = t
                .spans
                .iter()
                .zip(&parents)
                .map(|(s, p)| {
                    format!(
                        "{{\"name\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}, \"parent\": {}}}",
                        s.stage,
                        s.start_ns,
                        s.dur_ns,
                        p.map_or("null".into(), |i| i.to_string())
                    )
                })
                .collect();
            writeln!(
                f,
                "{{\"label\": \"{}\", \"trace_id\": {}, \"spans\": [{}]}}",
                escape(label),
                t.trace_id,
                spans.join(", ")
            )?;
        }
        f.flush()
    }
}

/// For each span (sorted by start), the index of the tightest enclosing
/// span of the same trace.
fn parents(t: &RequestTrace) -> Vec<Option<usize>> {
    let s = &t.spans;
    (0..s.len())
        .map(|i| {
            let (a0, a1) = (s[i].start_ns, s[i].start_ns + s[i].dur_ns);
            (0..s.len())
                .filter(|&j| j != i)
                .filter(|&j| {
                    let (b0, b1) = (s[j].start_ns, s[j].start_ns + s[j].dur_ns);
                    b0 <= a0 && a1 <= b1 && (b1 - b0 > a1 - a0 || j < i)
                })
                .min_by_key(|&j| s[j].dur_ns)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::default();
        let ctx = tr.begin();
        ctx.add_span("root", 0, 10_000_000);
        ctx.add_span("a", 1_000_000, 3_000_000);
        ctx.add_span("b", 5_000_000, 4_000_000);
        tr.end("x", &ctx);
        assert_eq!(tr.self_ms("root", Some("x")), vec![3.0]);
        assert_eq!(tr.self_ms("a", None), vec![3.0]);
        assert!(tr.self_ms("a", Some("y")).is_empty());
    }
}
