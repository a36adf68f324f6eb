//! The traced run's span recorder.
//!
//! The replay wraps each call into a public layer function in
//! [`Recorder::time`]. A span keeps its name, its parent span and the
//! operation (command, request or round) it belongs to; spans stay in
//! memory until the run ends. A disabled recorder only runs the closure,
//! which is what the untraced replay uses to price the tracing itself.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `netlist.resolve`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
    /// Start, in ns since the recorder was made.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// Single-threaded span recorder.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    op: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

/// Summed self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Busy {
    /// Σ (duration − time covered by child spans), in ns.
    pub self_ns: u64,
    /// Σ duration, in ns.
    pub total_ns: u64,
    /// Number of spans.
    pub calls: u64,
}

impl Recorder {
    /// A recorder that records (`enabled`) or only runs closures.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Sets the operation id later spans are tagged with.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(Span {
                name,
                parent,
                op: self.op.get(),
                start_ns: 0,
                dur_ns: 0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(index);
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].start_ns = (start - self.origin).as_nanos() as u64;
        spans[index].dur_ns = (end - start).as_nanos() as u64;
        out
    }

    /// Self time, total time and calls per span name.
    pub fn busy(&self) -> BTreeMap<&'static str, Busy> {
        fold(&self.spans.borrow(), |_| true)
    }

    /// Ids of the operations that hold a span named `name`.
    pub fn ops_with(&self, name: &str) -> BTreeSet<u64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.op)
            .collect()
    }

    /// [`Recorder::busy`] over the spans of the operations in `ops` only.
    pub fn busy_in(&self, ops: &BTreeSet<u64>) -> BTreeMap<&'static str, Busy> {
        fold(&self.spans.borrow(), |s| ops.contains(&s.op))
    }

    /// Spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.op, s.name, s.start_ns, s.dur_ns
            );
        }
        out
    }
}

/// Folds the spans `keep` accepts into per-name self time: each span's
/// duration minus the durations of its direct children.
fn fold(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, Busy> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Busy> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        if !keep(s) {
            continue;
        }
        let b = out.entry(s.name).or_default();
        b.self_ns += s.dur_ns.saturating_sub(covered);
        b.total_ns += s.dur_ns;
        b.calls += 1;
    }
    out
}
