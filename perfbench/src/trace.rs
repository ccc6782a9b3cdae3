//! Wall-clock spans around the benchmark's own calls into each layer.
//!
//! A disabled tracer only runs the closure, so untraced repetitions pay
//! one branch per call. An enabled one keeps every span in memory
//! (name, start, end, parent, repetition) until [`Tracer::write`] dumps
//! them at exit, together with each layer's total and self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name; equals the per-layer time metric it feeds.
    pub name: &'static str,
    /// Repetition the span belongs to.
    pub rep: u32,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder; see the module docs.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    /// Starts attributing spans to repetition `rep`.
    pub fn begin_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            rep: self.rep,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Total seconds per span name within repetition `rep`.
    pub fn rep_totals(&self, rep: u32) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.rep == rep) {
            *totals.entry(s.name).or_insert(0.0) += s.duration_s();
        }
        totals
    }

    /// Per name: (calls, total seconds, self seconds). Self time is a
    /// span's duration minus the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration_s();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_s();
            e.2 += s.duration_s() - children;
        }
        out
    }

    /// Writes every span and the per-layer self-time summary as JSON.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"rep\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.rep, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("],\n\"layers\": {\n");
        let layers = self.self_times();
        for (i, (name, (calls, total, own))) in layers.iter().enumerate() {
            let _ = write!(
                out,
                "  \"{name}\": {{\"calls\": {calls}, \"total_s\": {total:.9}, \"self_s\": {own:.9}}}"
            );
            out.push_str(if i + 1 < layers.len() { ",\n" } else { "\n" });
        }
        out.push_str("}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::on();
        tr.begin_rep(3);
        tr.span("outer", |tr| {
            spin(4);
            tr.span("inner", |_| spin(6));
        });
        let layers = tr.self_times();
        let (_, outer_total, outer_self) = layers["outer"];
        let (_, inner_total, inner_self) = layers["inner"];
        assert!(outer_total >= 0.010);
        assert!((outer_self - (outer_total - inner_total)).abs() < 1e-9);
        assert_eq!(inner_total, inner_self);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.rep_totals(3).len(), 2);
        assert!(tr.rep_totals(0).is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.spans.is_empty());
    }
}
