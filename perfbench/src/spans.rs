//! The benchmark's own spans: one record per call into a layer, kept in
//! memory and written out when the run ends.
//!
//! Spans are recorded only in the traced run (`--trace 1`); the
//! end-to-end runs hold a [`Tracer::off`] whose guards do nothing. Each
//! span has a name, start and end (nanoseconds since the tracer
//! started), the index of its parent span and a request id shared by
//! every span of one request. A span's self time is its duration minus
//! the part of it that its children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use folearn_obs::Json;

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Inner {
    t0: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

pub struct Tracer(Option<RefCell<Inner>>);

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    idx: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let (Some(idx), Some(cell)) = (self.idx, &self.tracer.0) {
            let mut inner = cell.borrow_mut();
            let end = inner.t0.elapsed().as_nanos() as u64;
            inner.spans[idx].end_ns = end;
            inner.open.pop();
        }
    }
}

impl Tracer {
    pub fn off() -> Self {
        Tracer(None)
    }

    pub fn on() -> Self {
        Tracer(Some(RefCell::new(Inner {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })))
    }

    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Open a span nested under the innermost open one.
    pub fn span(&self, name: &'static str, req: u64) -> Guard<'_> {
        let idx = self.0.as_ref().map(|cell| {
            let mut inner = cell.borrow_mut();
            let start = inner.t0.elapsed().as_nanos() as u64;
            let parent = inner.open.last().copied();
            inner.spans.push(SpanRec {
                name,
                start_ns: start,
                end_ns: start,
                parent,
                req,
            });
            let idx = inner.spans.len() - 1;
            inner.open.push(idx);
            idx
        });
        Guard { tracer: self, idx }
    }

    /// Record a finished span that was not opened through a guard — a
    /// pipelined request, whose lifetime overlaps its neighbours'.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, req: u64) {
        if let Some(cell) = &self.0 {
            let mut inner = cell.borrow_mut();
            let t0 = inner.t0;
            let at = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
            let parent = inner.open.last().copied();
            inner.spans.push(SpanRec {
                name,
                start_ns: at(start),
                end_ns: at(end),
                parent,
                req,
            });
        }
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |cell| cell.borrow().spans.clone())
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals.
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Write spans as JSON lines: `id`, `name`, `start_us`, `end_us`,
/// `parent` (an `id` or null), `req` and `self_us`.
pub fn write_jsonl(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    let selfs = self_times_ns(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let line = Json::obj([
            ("id", Json::int(i)),
            ("name", Json::str(s.name)),
            ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
            ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
            ("parent", s.parent.map_or(Json::Null, Json::int)),
            ("req", Json::Num(s.req as f64)),
            ("self_us", Json::Num(own as f64 / 1e3)),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

/// The per-layer table: per span name, the call count, total and self
/// time, and self time as a share of the root span it ran under — with
/// that root's name and total time printed as the share's base.
pub fn layer_table(spans: &[SpanRec]) -> String {
    let selfs = self_times_ns(spans);
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    #[derive(Default)]
    struct Row {
        count: u64,
        total_ns: u64,
        self_ns: u64,
        root: &'static str,
    }
    let mut root_total: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let root = spans[root_of(i)].name;
        if s.parent.is_none() {
            *root_total.entry(s.name).or_default() += s.duration_ns();
        }
        let row = rows.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += s.duration_ns();
        row.self_ns += selfs[i];
        row.root = root;
    }
    let mut out = format!(
        "{:<34} {:>8} {:>12} {:>12} {:>8}  base\n",
        "span", "count", "total_ms", "self_ms", "self%"
    );
    for (name, r) in &rows {
        let base = root_total[r.root].max(1);
        out.push_str(&format!(
            "{:<34} {:>8} {:>12.3} {:>12.3} {:>7.1}%  of {:.3} ms in {}\n",
            name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            100.0 * r.self_ns as f64 / base as f64,
            base as f64 / 1e6,
            r.root,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            rec("root", 0, 100, None),
            rec("a", 10, 40, Some(0)),
            rec("b", 30, 50, Some(0)),
            rec("c", 90, 120, Some(0)),
        ];
        // Children cover [10, 50) and [90, 100): 50 of the root's 100.
        assert_eq!(self_times_ns(&spans), vec![50, 30, 20, 30]);
    }

    #[test]
    fn guards_nest_and_off_records_nothing() {
        let t = Tracer::on();
        {
            let _outer = t.span("outer", 1);
            let _inner = t.span("inner", 1);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let off = Tracer::off();
        drop(off.span("x", 0));
        assert!(off.spans().is_empty());
    }
}
