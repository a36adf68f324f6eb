//! `maestro-trace` — stage-level observability for the estimator stack.
//!
//! The paper's pitch is *speed*: an analytical estimator fast enough to
//! sit inside a floorplanner's inner loop. Keeping it fast requires seeing
//! where time and work go inside a run. This crate is the workspace's
//! lightweight instrumentation layer:
//!
//! - **Spans** ([`span`], [`span_with`]): nestable stages with wall-clock
//!   timings, parent links and per-thread attribution, emitted on drop.
//! - **Counters** ([`counter`]) and **metrics** ([`metric`]): monotonic
//!   work tallies (nets processed, annealing moves accepted/rejected,
//!   ProbTable hits/misses, routing tracks charged, floorplan iterations)
//!   and point-in-time gauges (temperature schedules).
//! - **Sinks** ([`Sink`]): pluggable event consumers — disabled by
//!   default, a [`JsonLines`] writer for `--trace file.jsonl`, and an
//!   in-memory [`Collector`] for tests.
//! - **Reports** ([`report`]): fold a JSON-lines trace into a
//!   machine-readable per-stage timing summary (`BENCH_<label>.json`).
//!   Events are written by this crate's own JSON-lines writer, the
//!   traced hot path; traces and reports are read back with the
//!   workspace's `serde_json`.
//!
//! # Cost model
//!
//! Tracing is off until a sink is [`install`]ed. Every instrumentation
//! point first checks one relaxed atomic load; the disabled path performs
//! no clock reads, no allocation and no locking, so instrumented hot
//! paths stay within measurement noise of uninstrumented ones. Span
//! details are built lazily (closures) for the same reason.
//!
//! A sink [`install`]ed process-wide records every thread. A scoped sink
//! ([`with_sink`]) records only the calling thread and the threads that
//! work under one of its spans through [`span_under`], so a traced test
//! never collects the events of an untraced test running beside it.
//!
//! # Example
//!
//! ```
//! use maestro_trace as trace;
//! use std::sync::Arc;
//!
//! let collector = Arc::new(trace::Collector::new());
//! trace::with_sink(collector.clone(), || {
//!     let _outer = trace::span("outer");
//!     {
//!         let _inner = trace::span("inner");
//!         trace::counter("work.items", 3);
//!     }
//! });
//! // Children end (and are recorded) before their parents.
//! let spans = collector.span_names();
//! assert_eq!(spans, vec!["inner", "outer"]);
//! assert_eq!(collector.counter_total("work.items"), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod report;
mod sink;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

pub use event::Event;
pub use sink::{Collector, JsonLines, Sink};

/// Fast "is anybody listening" flag; the only cost on the disabled path.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed sink. Read under an `RwLock` only on the enabled path —
/// event rates are per-stage, not per-inner-loop-iteration, so a shared
/// read lock is plenty.
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);

/// Trace epoch: all span start offsets are microseconds since this
/// instant. Set on first install and kept for the process lifetime so
/// offsets from successive scoped sinks stay monotonic.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Span id allocator; 0 is reserved for "no parent".
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The last [`with_sink`] scope, named by an id reserved from
/// [`NEXT_ID`] when it opened; 0 while a sink [`install`]ed for every
/// thread is current. Spans opened in a scope carry ids above its name.
static SCOPE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Innermost open span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// Worker attribution label; falls back to the std thread name.
    static LABEL: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
    /// The [`with_sink`] scope this thread records for.
    static MEMBER: Cell<u64> = const { Cell::new(0) };
}

/// Is a sink installed? One relaxed atomic load — instrumentation points
/// branch on this before doing any real work.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `sink` as the event consumer of every thread and enables
/// tracing. Replaces any previously installed sink.
pub fn install(sink: Arc<dyn Sink>) {
    install_in(sink, 0);
}

fn install_in(sink: Arc<dyn Sink>, scope: u64) {
    EPOCH.get_or_init(Instant::now);
    SCOPE.store(scope, Ordering::Relaxed);
    *SINK.write().expect("trace sink lock poisoned") = Some(sink);
    // Pairs with the fence in `recording`: a thread that sees tracing on
    // sees the scope too.
    ENABLED.store(true, Ordering::Release);
}

/// Disables tracing and drops the installed sink (flushing it first).
/// Spans still open keep their timing state and emit nothing if tracing
/// is still disabled when they drop.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Relaxed);
    let sink = SINK.write().expect("trace sink lock poisoned").take();
    if let Some(sink) = sink {
        sink.flush();
    }
}

/// Runs `f` with `sink` installed, then uninstalls it. The sink records
/// only this thread and the threads working under one of its spans
/// through [`span_under`]; other threads record nothing meanwhile.
/// Concurrent `with_sink` calls (parallel tests) are serialized behind an
/// internal lock.
pub fn with_sink<T>(sink: Arc<dyn Sink>, f: impl FnOnce() -> T) -> T {
    static LOCK: Mutex<()> = Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let scope = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let outer = MEMBER.with(|member| member.replace(scope));
    install_in(sink, scope);
    let result = f();
    uninstall();
    MEMBER.with(|member| member.set(outer));
    result
}

/// Does this thread record? Every thread does under [`install`]. Under
/// [`with_sink`] the scope's members do: the calling thread, and a
/// thread opening a span under one of the scope's spans (`parent`),
/// which joins the scope. Called on the enabled path only.
fn recording(parent: u64) -> bool {
    fence(Ordering::Acquire);
    let scope = SCOPE.load(Ordering::Relaxed);
    scope == 0
        || MEMBER.with(|member| {
            if parent > scope {
                member.set(scope);
            }
            member.get() == scope
        })
}

/// Sets this thread's attribution label, shown as the `thread` field of
/// every event the thread emits (worker attribution in parallel runs).
pub fn set_thread_label(label: impl Into<String>) {
    let label: Arc<str> = Arc::from(label.into());
    LABEL.with(|cell| *cell.borrow_mut() = Some(label));
}

fn thread_label() -> Arc<str> {
    LABEL.with(|cell| {
        if let Some(label) = cell.borrow().as_ref() {
            return Arc::clone(label);
        }
        let derived: Arc<str> = match std::thread::current().name() {
            Some(name) => Arc::from(name),
            // ThreadId has no stable numeric accessor; its Debug form
            // ("ThreadId(7)") is distinct per thread, which is all
            // attribution needs.
            None => Arc::from(format!("{:?}", std::thread::current().id()).as_str()),
        };
        *cell.borrow_mut() = Some(Arc::clone(&derived));
        derived
    })
}

fn emit(event: Event) {
    if let Some(sink) = SINK.read().expect("trace sink lock poisoned").as_ref() {
        sink.record(&event);
    }
}

fn epoch_us() -> u64 {
    EPOCH
        .get()
        .map(|epoch| epoch.elapsed().as_micros() as u64)
        .unwrap_or(0)
}

/// An open stage span. Created by [`span`]/[`span_with`]; records a
/// [`Event::Span`] with its wall-clock duration when dropped. Cheap to
/// construct and inert when tracing is disabled.
#[must_use = "a span measures the scope it is bound to; binding to _ drops it immediately"]
#[derive(Debug)]
pub struct Span {
    data: Option<SpanData>,
}

#[derive(Debug)]
struct SpanData {
    id: u64,
    parent: u64,
    name: &'static str,
    detail: String,
    start: Instant,
    start_us: u64,
}

impl Span {
    /// This span's id, or 0 when tracing is disabled. Pass to
    /// [`span_under`] to parent work running on *other* threads (worker
    /// spans in a parallel fan-out).
    pub fn id(&self) -> u64 {
        self.data.as_ref().map(|d| d.id).unwrap_or(0)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(data) = self.data.take() else { return };
        CURRENT.with(|current| current.set(data.parent));
        if !enabled() || !recording(0) {
            return;
        }
        emit(Event::Span {
            id: data.id,
            parent: data.parent,
            name: data.name.to_owned(),
            detail: data.detail,
            thread: thread_label().as_ref().to_owned(),
            start_us: data.start_us,
            dur_us: data.start.elapsed().as_micros() as u64,
        });
    }
}

fn open_span(name: &'static str, detail: String, parent: u64) -> Span {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    CURRENT.with(|current| current.set(id));
    Span {
        data: Some(SpanData {
            id,
            parent,
            name,
            detail,
            start: Instant::now(),
            start_us: epoch_us(),
        }),
    }
}

/// Opens a stage span nested under the innermost open span on this
/// thread. No-op (and allocation-free) when tracing is disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() || !recording(0) {
        return Span { data: None };
    }
    let parent = CURRENT.with(|current| current.get());
    open_span(name, String::new(), parent)
}

/// [`span`] with a lazily built detail string (a module name, a worker
/// label); `detail` is only invoked when tracing is enabled.
#[inline]
pub fn span_with(name: &'static str, detail: impl FnOnce() -> String) -> Span {
    if !enabled() || !recording(0) {
        return Span { data: None };
    }
    let parent = CURRENT.with(|current| current.get());
    open_span(name, detail(), parent)
}

/// [`span_with`] under an explicit parent id instead of the thread's
/// innermost span — the cross-thread variant for worker spans whose
/// logical parent (the batch span) lives on the spawning thread. Under
/// [`with_sink`], a worker opening a span under one of the scope's spans
/// joins the scope and records from then on.
#[inline]
pub fn span_under(name: &'static str, parent: u64, detail: impl FnOnce() -> String) -> Span {
    if !enabled() || !recording(parent) {
        return Span { data: None };
    }
    open_span(name, detail(), parent)
}

/// Emits a monotonic counter increment (`value` is a delta, not a level);
/// report folding sums all increments per counter name. No-op when
/// tracing is disabled.
#[inline]
pub fn counter(name: &'static str, value: u64) {
    if !enabled() || !recording(0) {
        return;
    }
    emit(Event::Counter {
        name: name.to_owned(),
        value,
        thread: thread_label().as_ref().to_owned(),
    });
}

/// Emits a point-in-time gauge (a temperature, a utilization). Report
/// folding keeps the last value per metric name. No-op when tracing is
/// disabled. Non-finite values are recorded as 0 to keep the JSON valid.
#[inline]
pub fn metric(name: &'static str, value: f64) {
    if !enabled() || !recording(0) {
        return;
    }
    emit(Event::Metric {
        name: name.to_owned(),
        value: if value.is_finite() { value } else { 0.0 },
        thread: thread_label().as_ref().to_owned(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_costs_nothing_and_emits_nothing() {
        let collector = Arc::new(Collector::new());
        // Not installed: spans are inert and carry id 0.
        let s = span("dead");
        assert_eq!(s.id(), 0);
        drop(s);
        counter("dead.counter", 7);
        assert!(collector.events().is_empty());
    }

    #[test]
    fn spans_nest_and_record_parent_links() {
        let collector = Arc::new(Collector::new());
        with_sink(collector.clone(), || {
            let outer = span("outer");
            let outer_id = outer.id();
            assert!(outer_id != 0);
            {
                let inner = span_with("inner", || "detail".to_owned());
                assert!(inner.id() > outer_id);
            }
            drop(outer);
        });
        let events = collector.events();
        assert_eq!(events.len(), 2);
        let (
            Event::Span {
                id: inner_id,
                parent: inner_parent,
                name: inner_name,
                detail,
                ..
            },
            Event::Span {
                id: outer_id,
                parent: outer_parent,
                ..
            },
        ) = (&events[0], &events[1])
        else {
            panic!("expected two span events: {events:?}");
        };
        assert_eq!(inner_name, "inner");
        assert_eq!(detail, "detail");
        assert_eq!(inner_parent, outer_id, "inner nests under outer");
        assert_eq!(*outer_parent, 0, "outer is a root");
        assert!(inner_id > outer_id);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let collector = Arc::new(Collector::new());
        with_sink(collector.clone(), || {
            let root = span("root");
            let _ = root.id();
            {
                let _a = span("a");
            }
            {
                let _b = span("b");
            }
        });
        let spans = collector.spans();
        let root = spans.iter().find(|s| s.name == "root").expect("root");
        for child in ["a", "b"] {
            let s = spans.iter().find(|s| s.name == child).expect("child");
            assert_eq!(s.parent, root.id, "{child} parents to root");
        }
    }

    #[test]
    fn span_under_overrides_thread_nesting() {
        let collector = Arc::new(Collector::new());
        with_sink(collector.clone(), || {
            let root = span("root");
            let root_id = root.id();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    set_thread_label("worker-0");
                    let _w = span_under("worker", root_id, || "worker-0".to_owned());
                    let _inner = span("inner");
                });
            });
        });
        let spans = collector.spans();
        let root = spans.iter().find(|s| s.name == "root").expect("root");
        let worker = spans.iter().find(|s| s.name == "worker").expect("worker");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(worker.parent, root.id);
        assert_eq!(
            inner.parent, worker.id,
            "nesting continues under the worker span"
        );
        assert_eq!(worker.thread, "worker-0");
        assert_eq!(inner.thread, "worker-0");
    }

    #[test]
    fn scoped_sink_records_its_span_under_workers_but_no_unrelated_thread() {
        let (go, wait) = std::sync::mpsc::channel::<()>();
        let (done, finished) = std::sync::mpsc::channel::<()>();
        let bystander = std::thread::spawn(move || {
            wait.recv().expect("scope opened");
            {
                let _s = span("bystander");
                counter("bystander.count", 1);
            }
            done.send(()).expect("scope waits");
        });
        let collector = Arc::new(Collector::new());
        with_sink(collector.clone(), || {
            let root = span("root");
            let root_id = root.id();
            go.send(()).expect("bystander waits");
            finished.recv().expect("bystander done");
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _unlinked = span("unlinked");
                    counter("unlinked.count", 1);
                });
                scope.spawn(|| {
                    {
                        let _w = span_under("worker", root_id, String::new);
                        let _inner = span("inner");
                        counter("worker.count", 1);
                    }
                    counter("worker.after", 1);
                });
            });
        });
        bystander.join().expect("bystander exits");
        let names = collector.span_names();
        for recorded in ["root", "worker", "inner"] {
            assert!(names.iter().any(|n| n == recorded), "{recorded}: {names:?}");
        }
        for dropped in ["bystander", "unlinked"] {
            assert!(!names.iter().any(|n| n == dropped), "{dropped}: {names:?}");
        }
        assert_eq!(collector.counter_total("worker.count"), 1);
        assert_eq!(collector.counter_total("worker.after"), 1);
        assert_eq!(collector.counter_total("bystander.count"), 0);
        assert_eq!(collector.counter_total("unlinked.count"), 0);
    }

    #[test]
    fn counters_and_metrics_attribute_to_the_thread() {
        let collector = Arc::new(Collector::new());
        with_sink(collector.clone(), || {
            set_thread_label("attributed");
            counter("c", 2);
            counter("c", 3);
            metric("m", 0.5);
            metric("m", f64::NAN);
        });
        assert_eq!(collector.counter_total("c"), 5);
        let events = collector.events();
        for e in &events {
            match e {
                Event::Counter { thread, .. } | Event::Metric { thread, .. } => {
                    assert_eq!(thread, "attributed")
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let Event::Metric { value, .. } = &events[3] else {
            panic!("expected metric");
        };
        assert_eq!(*value, 0.0, "non-finite metrics are clamped");
    }

    #[test]
    fn uninstall_flushes_and_disables() {
        let collector = Arc::new(Collector::new());
        with_sink(collector.clone(), || {
            counter("c", 1);
        });
        assert!(!enabled());
        counter("c", 1);
        assert_eq!(
            collector.counter_total("c"),
            1,
            "post-uninstall events dropped"
        );
        assert_eq!(collector.flushes(), 1);
    }
}
