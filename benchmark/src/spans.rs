//! Benchmark-side spans: one record around every call the benchmark makes
//! into a layer of the program (name, start, end, parent, cell id).
//!
//! Spans are recorded only in a traced run (`--trace 1`); the end-to-end
//! metrics come from an untraced run where [`Spans::scope`] is a plain call.
//! Records stay in memory and are written once, at exit. Spans *inside* the
//! program are a later issue (ROADMAP item 5).

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

struct Rec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    cell: Option<usize>,
}

#[derive(Default)]
struct Inner {
    recs: Vec<Rec>,
    open: Vec<usize>,
}

/// The span recorder. Single-threaded: only the benchmark's main thread
/// calls into the program.
pub struct Spans {
    on: bool,
    t0: Instant,
    inner: RefCell<Inner>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            inner: RefCell::default(),
        }
    }

    /// Runs `f` inside a span named `name`, child of whichever span is open.
    pub fn scope<T>(&self, name: &'static str, cell: Option<usize>, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = {
            let mut g = self.inner.borrow_mut();
            let id = g.recs.len();
            let parent = g.open.last().copied();
            g.recs.push(Rec {
                name,
                start_ns: self.t0.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                cell,
            });
            g.open.push(id);
            id
        };
        let out = f();
        let mut g = self.inner.borrow_mut();
        g.recs[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        g.open.pop();
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().recs.len()
    }

    /// The whole record as one JSON document. A span's self time is its
    /// duration minus its children's (`parent` links them).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let g = self.inner.borrow();
        let mut out =
            format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":[\n");
        for (i, r) in g.recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let cell = r.cell.map_or("null".to_string(), |c| c.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"cell\":{cell}}}",
                r.name, r.start_ns, r.end_ns
            );
            out.push_str(if i + 1 < g.recs.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }
}
