//! `maestro serve` — the long-lived estimation daemon.
//!
//! Chen's estimator exists to be called over and over inside a
//! floorplanning search loop, yet a one-shot CLI invocation re-pays
//! process setup (tech DB construction, file parsing, cold caches) every
//! time. The daemon amortizes all of it: a [`Session`] keeps the parsed
//! [`ProcessDb`]s, the resolve-once [`StatsCache`] and the [`ProbTable`]
//! warm, and [`serve_lines`] speaks the JSON-lines protocol of
//! [`maestro_estimator::request`] over any reader/writer pair —
//! stdin/stdout from the CLI, a unix socket via [`serve_socket`], or
//! in-memory buffers from the test harness.
//!
//! # Equivalence contract
//!
//! A response payload is exactly the stdout of the matching one-shot CLI
//! command — both front ends call the same [`crate::ops`] renderers, and
//! `tests/serve_replay.rs` holds the bytes equal over the full Table 1+2
//! replay.
//!
//! # Isolation
//!
//! A malformed or failing request yields an error [`Response`], never a
//! dead daemon: the codec rejects bad lines with structured errors, and
//! each dispatch runs under `catch_unwind` so even a panicking handler is
//! reported and survived.
//!
//! # Shutdown
//!
//! A `{"kind":"shutdown"}` request stops intake, drains every in-flight
//! request, and is answered *last* — when its response arrives, all
//! earlier responses have been written. EOF on the input drains the same
//! way, just without the final response. On a socket, a shutdown also
//! stops the whole daemon: [`serve_socket`] closes its other connections
//! once their requests in flight are answered.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::fd::OwnedFd;
use std::os::unix::fs::{FileTypeExt, MetadataExt};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};

use maestro_estimator::pipeline::Pipeline;
use maestro_estimator::prob::ProbTable;
use maestro_estimator::request::{Request, RequestCall, Response};
use maestro_estimator::results_cache::ResultsCache;
use maestro_estimator::standard_cell::ScParams;
use maestro_fullcustom::WarmStore;
use maestro_netlist::{
    content_hash128, mnl, BoundedMemo, CacheStats, MemoCounters, Module, RevisionManifest,
    StatsCache,
};
use maestro_tech::ProcessDb;
use maestro_trace as trace;

use crate::ops::{self, StreamItem};

/// The warm state one daemon keeps across requests.
///
/// Technology databases are parsed once per distinct `tech` spec and
/// shared by `Arc` across requests — every request against the same spec
/// sees one tech revision, so the process-wide resolve-once memo treats
/// the whole session as one cache line: exactly one `netlist.resolve`
/// miss per (module, style). Reuses are counted by `serve.tech_reuse`.
///
/// For ECO loops the session additionally keeps a [`ResultsCache`] of
/// full per-module estimates, the previous revision manifest (so an
/// `"incremental":true` estimate can diff against the last batch), and a
/// [`WarmStore`] of winning synthesis seeds for `"warm":true` layouts.
///
/// Request sources are parsed through a per-module memo: `.mnl` text is
/// cut into modules by [`mnl::chunks`], as the CLI cuts it, and each
/// module's parse is cached by the hash of its text, so re-submitting a
/// chip with one edited module re-parses one module, not the whole file.
/// A chunk's errors are the CLI's, line for line.
pub struct Session {
    techs: Mutex<HashMap<String, Arc<ProcessDb>>>,
    stats: Arc<StatsCache>,
    prob: Arc<ProbTable>,
    results: Arc<ResultsCache>,
    warm: WarmStore,
    prev: Mutex<Option<RevisionManifest>>,
    tech_reuse: AtomicU64,
    parsed: BoundedMemo<u128, Arc<Module>>,
}

/// Parsed-module memo bound: ~10× the largest chip batch the bench
/// drives, small enough that eviction never matters in practice.
const PARSE_CACHE_CAPACITY: usize = 8192;

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A session over the process-wide shared caches — what the CLI's
    /// `serve` subcommand runs.
    pub fn new() -> Session {
        Session::with_caches(StatsCache::shared(), ProbTable::shared())
    }

    /// A session over explicit caches, isolating cache statistics for
    /// tests and benchmarks.
    pub fn with_caches(stats: Arc<StatsCache>, prob: Arc<ProbTable>) -> Session {
        Session {
            techs: Mutex::new(HashMap::new()),
            stats,
            prob,
            results: Arc::new(ResultsCache::new()),
            warm: WarmStore::new(),
            prev: Mutex::new(None),
            tech_reuse: AtomicU64::new(0),
            parsed: BoundedMemo::new(
                PARSE_CACHE_CAPACITY,
                MemoCounters {
                    hits: Some("serve.parse.hits"),
                    misses: Some("serve.parse.misses"),
                    evictions: None,
                },
            ),
        }
    }

    /// Handles one request, never panicking: codec-level validation has
    /// already happened, handler failures become error responses, and a
    /// panicking handler is caught and reported.
    pub fn handle(&self, request: &Request) -> Response {
        let outcome = catch_unwind(AssertUnwindSafe(|| self.dispatch(request)));
        match outcome {
            Ok(Ok(payload)) => Response::ok(request.id.clone(), payload),
            Ok(Err(message)) => Response::error(request.id.clone(), message),
            Err(_) => Response::error(
                request.id.clone(),
                format!("internal error: `{}` handler panicked", request.kind_name()),
            ),
        }
    }

    /// The session's resolve-once netlist cache.
    pub fn stats_cache(&self) -> &Arc<StatsCache> {
        &self.stats
    }

    /// The session's full-result memo for incremental estimates.
    pub fn results_cache(&self) -> &Arc<ResultsCache> {
        &self.results
    }

    /// How many requests reused an already-parsed tech DB.
    pub fn tech_reuses(&self) -> u64 {
        self.tech_reuse.load(Ordering::Relaxed)
    }

    /// Gathers a request's modules from file paths and inline sources, in
    /// order, as the CLI reads them: each file through
    /// [`ops::SchematicFile`], each inline text cut by [`mnl::chunks`].
    /// Every `.mnl` module goes through the parse memo. The first error,
    /// `FILE: ` or `inline mnl: `-prefixed, ends the gathering.
    fn gather_modules(
        &self,
        files: &[String],
        mnl_sources: &[String],
    ) -> Result<Vec<Arc<Module>>, String> {
        let mut modules = Vec::new();
        for file in files {
            let file = ops::SchematicFile::read(file)?;
            let _span = trace::span("serve.parse");
            for item in file.modules() {
                modules.push(match item {
                    StreamItem::Chunk(path, chunk) => self.parse_chunk(path, chunk)?,
                    StreamItem::Parsed(parsed) => {
                        parsed.map(Arc::from).map_err(|e| e.to_string())?
                    }
                });
            }
        }
        for source in mnl_sources {
            let _span = trace::span("serve.parse");
            for chunk in mnl::chunks(source) {
                modules.push(self.parse_chunk("inline mnl", chunk)?);
            }
        }
        Ok(modules)
    }

    /// One module through the parse memo, keyed by the hash of its
    /// [`mnl::Chunk::content`]. A miss parses outside any lock, so the
    /// memo stays available to concurrent requests meanwhile; only a
    /// module that parses is kept. An error is prefixed with `origin`.
    fn parse_chunk(&self, origin: &str, chunk: mnl::Chunk<'_>) -> Result<Arc<Module>, String> {
        let key = chunk.content().map(|text| content_hash128(text.as_bytes()));
        if let Some(module) = key.and_then(|key| self.parsed.get(&key)) {
            return Ok(module);
        }
        let module = Arc::new(chunk.parse().map_err(|e| format!("{origin}: {e}"))?);
        if let Some(key) = key {
            self.parsed.insert(key, Arc::clone(&module));
        }
        Ok(module)
    }

    fn dispatch(&self, request: &Request) -> Result<String, String> {
        match &request.call {
            RequestCall::Shutdown => Ok(String::new()),
            RequestCall::CacheStats => Ok(self.cache_stats_payload()),
            RequestCall::Estimate(req) => {
                let tech = self.tech(&req.tech)?;
                let modules = self.gather_modules(&req.files, &req.mnl)?;
                let mut pipeline = self.pipeline(tech);
                if let Some(rows) = req.rows {
                    pipeline = pipeline.with_sc_params(ScParams::with_rows(rows));
                }
                if !req.incremental {
                    return ops::estimate_output(&pipeline, &modules, req.jobs as usize, req.json);
                }
                // Incremental: diff against the session's previous
                // revision and let the result memo serve unchanged
                // modules; the rendered payload is byte-identical to the
                // cold path by construction.
                let pipeline = pipeline.with_results_cache(Arc::clone(&self.results));
                let prev = lock(&self.prev).clone().unwrap_or_default();
                let (text, run) = ops::estimate_output_incremental(
                    &pipeline,
                    &prev,
                    &modules,
                    req.jobs as usize,
                    req.json,
                )?;
                *lock(&self.prev) = Some(run.manifest);
                Ok(text)
            }
            RequestCall::Layout(req) => {
                let tech = self.tech(&req.tech)?;
                let modules = self.gather_modules(&req.files, &req.mnl)?;
                let warm = req.warm.then_some(&self.warm);
                let mut out = String::new();
                for module in &modules {
                    let outcome = ops::layout_module(
                        module,
                        &tech,
                        &self.stats,
                        req.rows,
                        req.replicas as usize,
                        false,
                        warm,
                    )?;
                    out.push_str(&outcome.summary);
                }
                Ok(out)
            }
            RequestCall::Floorplan(req) | RequestCall::Report(req) => {
                let tech = self.tech(&req.tech)?;
                let modules = self.gather_modules(&req.files, &req.mnl)?;
                let pipeline = self
                    .pipeline(tech)
                    .with_replicas(req.replicas as usize)
                    .with_floorplan_backend(req.backend.clone());
                if matches!(request.call, RequestCall::Floorplan(_)) {
                    ops::floorplan_output(&pipeline, &modules, req.aspect).map(|(text, _)| text)
                } else {
                    ops::report_output(&pipeline, &modules, req.aspect, 1).map(|(text, _)| text)
                }
            }
        }
    }

    /// The warm tech DB for a spec, parsed on first use and shared by
    /// `Arc` thereafter — later requests reuse the same instance instead
    /// of deep-cloning the process tables per request.
    ///
    /// The load (file I/O and parsing) runs outside the lock, so first
    /// loads of different specs overlap and a failing or panicking load
    /// leaves the map untouched. When two first loads of one spec race,
    /// the first insert wins and the other counts as a reuse, so each
    /// spec has one `Arc` and the reuse count does not depend on timing.
    fn tech(&self, spec: &str) -> Result<Arc<ProcessDb>, String> {
        let known = lock(&self.techs).get(spec).cloned();
        let tech = match known {
            Some(tech) => tech,
            None => {
                let loaded = Arc::new(ops::load_tech(spec)?);
                match lock(&self.techs).entry(spec.to_owned()) {
                    Entry::Occupied(won) => Arc::clone(won.get()),
                    Entry::Vacant(slot) => return Ok(Arc::clone(slot.insert(loaded))),
                }
            }
        };
        self.tech_reuse.fetch_add(1, Ordering::Relaxed);
        trace::counter("serve.tech_reuse", 1);
        Ok(tech)
    }

    fn pipeline(&self, tech: Arc<ProcessDb>) -> Pipeline {
        Pipeline::from_shared_tech(tech)
            .with_prob_table(Arc::clone(&self.prob))
            .with_stats_cache(Arc::clone(&self.stats))
    }

    /// The `cache-stats` payload: one fixed-order JSON object over the
    /// session's resolve memo, result memo, parse memo, warm-seed store
    /// and tech reuse counter.
    fn cache_stats_payload(&self) -> String {
        let memo = |s: CacheStats| {
            format!(
                "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{}}}",
                s.hits, s.misses, s.evictions, s.entries
            )
        };
        let parse = self.parsed.stats();
        format!(
            "{{\"resolve\":{},\"results\":{},\"parse\":{{\"hits\":{},\"misses\":{},\"entries\":{}}},\
             \"warm_seeds\":{},\"tech_reuse\":{}}}\n",
            memo(self.stats.stats()),
            memo(self.results.stats()),
            parse.hits,
            parse.misses,
            parse.entries,
            self.warm.len(),
            self.tech_reuse.load(Ordering::Relaxed),
        )
    }
}

/// What one serve stream did, for logging and tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Responses written (success and error).
    pub requests: u64,
    /// Error responses among them.
    pub errors: u64,
    /// Whether the stream ended on a shutdown request (vs plain EOF).
    pub shutdown: bool,
}

/// Serves the JSON-lines protocol over a reader/writer pair until a
/// shutdown request or EOF, opening a `serve.session` trace span over
/// the whole stream. `jobs > 1` admits that many requests concurrently
/// through a scoped worker pool; responses then come back in completion
/// order (clients correlate by id).
///
/// # Errors
///
/// Only transport I/O errors surface here; request-level failures are
/// answered in-band as error responses.
pub fn serve_lines<R: BufRead, W: Write + Send>(
    session: &Session,
    input: R,
    output: W,
    jobs: usize,
) -> io::Result<ServeSummary> {
    let span = trace::span_with("serve.session", || format!("jobs={jobs}"));
    let parent = span.id();
    serve_stream(session, input, output, jobs, parent)
}

/// One shared-writer response sink with its delivery counters.
struct ResponseSink<W: Write> {
    writer: Mutex<W>,
    requests: AtomicU64,
    errors: AtomicU64,
}

impl<W: Write> ResponseSink<W> {
    fn new(writer: W) -> Self {
        ResponseSink {
            writer: Mutex::new(writer),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    /// Writes one response line and flushes, so a client driving the
    /// daemon interactively sees each answer as it lands.
    fn deliver(&self, response: &Response) -> io::Result<()> {
        let mut writer = lock(&self.writer);
        writer.write_all(response.to_json_line().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        drop(writer);
        self.requests.fetch_add(1, Ordering::Relaxed);
        trace::counter("serve.requests", 1);
        if !response.is_ok() {
            self.errors.fetch_add(1, Ordering::Relaxed);
            trace::counter("serve.errors", 1);
        }
        Ok(())
    }

    fn summary(&self, shutdown: bool) -> ServeSummary {
        ServeSummary {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shutdown,
        }
    }
}

fn serve_stream<R: BufRead, W: Write + Send>(
    session: &Session,
    input: R,
    output: W,
    jobs: usize,
    parent: u64,
) -> io::Result<ServeSummary> {
    let sink = ResponseSink::new(output);
    let shutdown_id = if jobs <= 1 {
        read_requests(input, &sink, parent, |request| {
            answer(session, request, &sink, parent)
        })?
    } else {
        pooled(session, input, &sink, jobs, parent)?
    };
    // The shutdown response is written last: every in-flight request has
    // drained by here, so its arrival proves the stream is complete.
    let shutdown = shutdown_id.is_some();
    if let Some(id) = shutdown_id {
        let request = Request {
            id,
            call: RequestCall::Shutdown,
        };
        answer(session, request, &sink, parent)?;
    }
    Ok(sink.summary(shutdown))
}

/// Handles one parsed request under its `serve.request` span and writes
/// the response.
fn answer<W: Write>(
    session: &Session,
    request: Request,
    sink: &ResponseSink<W>,
    parent: u64,
) -> io::Result<()> {
    let _span = trace::span_under("serve.request", parent, || {
        format!("{} {}", request.id, request.kind_name())
    });
    let response = session.handle(&request);
    sink.deliver(&response)
}

/// The intake loop: reads lines, answers codec rejections in-band, hands
/// valid work to `submit`, and stops at EOF or on a shutdown request —
/// returning the shutdown id so the caller answers it after draining.
fn read_requests<R: BufRead, W: Write>(
    input: R,
    sink: &ResponseSink<W>,
    parent: u64,
    mut submit: impl FnMut(Request) -> io::Result<()>,
) -> io::Result<Option<String>> {
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match Request::parse(&line) {
            Err(err) => {
                let _span = trace::span_under("serve.request", parent, || {
                    format!("{} bad-request", err.id.as_deref().unwrap_or("?"))
                });
                let response = Response::error(err.id.clone().unwrap_or_default(), err.to_string());
                sink.deliver(&response)?;
            }
            Ok(request) => {
                if matches!(request.call, RequestCall::Shutdown) {
                    return Ok(Some(request.id));
                }
                submit(request)?;
            }
        }
    }
    Ok(None)
}

/// The concurrent admission path: `jobs` scoped workers drain a shared
/// queue while the calling thread keeps reading. Dropping the sender at
/// intake end (shutdown or EOF) is the drain barrier — workers exit once
/// the queue is empty, and the scope join guarantees every response is
/// out before the shutdown response is written.
fn pooled<R: BufRead, W: Write + Send>(
    session: &Session,
    input: R,
    sink: &ResponseSink<W>,
    jobs: usize,
    parent: u64,
) -> io::Result<Option<String>> {
    let (tx, rx) = mpsc::channel::<Request>();
    let rx = Mutex::new(rx);
    let worker_error: Mutex<Option<io::Error>> = Mutex::new(None);
    let shutdown_id = std::thread::scope(|scope| {
        for w in 0..jobs {
            let rx = &rx;
            let worker_error = &worker_error;
            scope.spawn(move || {
                trace::set_thread_label(format!("serve-worker-{w}"));
                loop {
                    let next = lock(rx).recv();
                    let Ok(request) = next else { break };
                    if let Err(e) = answer(session, request, sink, parent) {
                        *lock(worker_error) = Some(e);
                        break;
                    }
                }
            });
        }
        let intake = read_requests(input, sink, parent, |request| {
            tx.send(request).expect("serve workers outlive intake");
            Ok(())
        });
        drop(tx); // always: workers must see EOF even when intake failed
        intake
    })?;
    if let Some(e) = worker_error
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(e);
    }
    Ok(shutdown_id)
}

/// Locks a serve mutex, recovering it when a panicking thread poisoned
/// it. Every critical section here is one map lookup or insert, one
/// assignment, one receive or one response write, so a panic elsewhere
/// in the holder leaves the data as valid as it was; refusing the lock
/// would instead fail every later request of the session.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The most connections [`serve_socket`] serves at once. Each holds one
/// handler thread (and its own `jobs` workers when `jobs > 1`), so the
/// cap bounds the daemon's threads. A connection past it is answered
/// with one `overloaded` error line and closed, without a thread.
pub const MAX_CONNECTIONS: usize = 64;

/// Serves the protocol on a unix socket, one handler thread per
/// connection up to [`MAX_CONNECTIONS`], all sharing one warm
/// [`Session`]. The accept loop blocks, so each connection is served as
/// soon as it arrives. The socket file is created fresh: a stale socket
/// at `path`, one that refuses connections, is replaced; a live daemon's
/// socket or any other file there is left alone.
///
/// A shutdown request on any connection stops the daemon once that
/// connection is answered: the listening socket refuses new clients, the
/// socket file is unlinked (unless another daemon has bound the path
/// since), and every connection's read side is closed, so an idle
/// connection ends at once. Requests already in flight are answered
/// before the call returns. The wake-up relies on Linux, where shutting
/// a listening socket fails a blocked `accept`.
///
/// The summary counts the responses written on every connection,
/// `overloaded` refusals included.
///
/// # Errors
///
/// Socket setup errors: [`io::ErrorKind::AddrInUse`] when a daemon is
/// already serving `path`, [`io::ErrorKind::AlreadyExists`] when some
/// other file is there. A per-connection I/O error only ends that
/// connection; an accept error stops the daemon as a shutdown does.
pub fn serve_socket(session: &Session, path: &Path, jobs: usize) -> io::Result<ServeSummary> {
    claim_socket_path(path)?;
    let listener = UnixListener::bind(path)?;
    let bound = std::fs::metadata(path)?;
    // The listening socket again, as a handle that can be shut down.
    let listener_handle = UnixStream::from(OwnedFd::from(listener.try_clone()?));
    let span = trace::span_with("serve.session", || format!("socket jobs={jobs}"));
    let parent = span.id();
    let stopping = AtomicBool::new(false);
    // The crate forbids `unsafe`, so no thread can close the listener
    // under a blocked `accept`. Shutting its read side instead fails that
    // `accept`, and every later connect is refused.
    let stop = || {
        if !stopping.swap(true, Ordering::SeqCst) {
            if let Err(e) = listener_handle.shutdown(Shutdown::Read) {
                eprintln!("serve: cannot stop accepting: {e}");
            }
        }
    };
    let requests = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let tally = |summary: ServeSummary| {
        requests.fetch_add(summary.requests, Ordering::Relaxed);
        errors.fetch_add(summary.errors, Ordering::Relaxed);
    };
    let slots = Slots::new();
    let shutdown = std::thread::scope(|scope| {
        let (stop, tally) = (&stop, &tally);
        let shutdown = loop {
            let accepted = listener.accept();
            // The failed `accept` of a shutdown, or a client queued just
            // before it, dropped unserved and uncounted.
            if stopping.load(Ordering::SeqCst) {
                break true;
            }
            let stream = match accepted {
                Ok((stream, _)) => stream,
                Err(e) => {
                    eprintln!("serve: accept failed: {e}");
                    break false;
                }
            };
            let slot = match slots.take(&stream) {
                Ok(Some(slot)) => slot,
                Ok(None) => {
                    match refuse(&stream) {
                        Ok(summary) => tally(summary),
                        Err(e) => eprintln!("serve: connection dropped: {e}"),
                    }
                    continue;
                }
                Err(e) => {
                    eprintln!("serve: connection dropped: {e}");
                    continue;
                }
            };
            let handler = std::thread::Builder::new().spawn_scoped(scope, move || {
                let _slot = slot;
                let served = stream.try_clone().and_then(|reader| {
                    serve_stream(session, BufReader::new(reader), &stream, jobs, parent)
                });
                match served {
                    Ok(summary) => {
                        tally(summary);
                        if summary.shutdown {
                            stop();
                        }
                    }
                    Err(e) => eprintln!("serve: connection dropped: {e}"),
                }
            });
            if let Err(e) = handler {
                eprintln!("serve: connection dropped: {e}");
            }
        };
        // After an accept error too: later clients are refused.
        stop();
        let ours = std::fs::metadata(path)
            .is_ok_and(|file| (file.dev(), file.ino()) == (bound.dev(), bound.ino()));
        if ours {
            let _ = std::fs::remove_file(path);
        }
        slots.close_reads();
        shutdown
    });
    Ok(ServeSummary {
        requests: requests.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        shutdown,
    })
}

/// Makes way for a daemon's socket at `path`. Nothing there is fine. A
/// socket that refuses connections is a stopped daemon's file and is
/// removed. A socket that accepts one belongs to a running daemon, and
/// any other file is not a socket this daemon may replace: both are left
/// as they are, and are errors.
fn claim_socket_path(path: &Path) -> io::Result<()> {
    let file_type = match std::fs::symlink_metadata(path) {
        Ok(meta) => meta.file_type(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if file_type.is_socket() {
        match UnixStream::connect(path) {
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a daemon is already serving {}", path.display()),
                ))
            }
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                return std::fs::remove_file(path)
            }
            Err(_) => {}
        }
    }
    Err(io::Error::new(
        io::ErrorKind::AlreadyExists,
        format!(
            "{} already exists and is not a stale socket",
            path.display()
        ),
    ))
}

/// Answers a connection past [`MAX_CONNECTIONS`] with one error line;
/// the caller's drop of the stream then closes it.
fn refuse(stream: &UnixStream) -> io::Result<ServeSummary> {
    let sink = ResponseSink::new(stream);
    sink.deliver(&Response::error(
        String::new(),
        format!("overloaded: the daemon serves at most {MAX_CONNECTIONS} connections at once"),
    ))?;
    Ok(sink.summary(false))
}

/// The connection slots of one [`serve_socket`] call. A taken slot holds
/// a clone of its connection's stream, so shutdown can close its read
/// side.
struct Slots(Mutex<Vec<Option<UnixStream>>>);

impl Slots {
    fn new() -> Slots {
        Slots(Mutex::new((0..MAX_CONNECTIONS).map(|_| None).collect()))
    }

    /// Takes a free slot for `stream`, or `None` when all are taken.
    fn take(&self, stream: &UnixStream) -> io::Result<Option<Slot<'_>>> {
        let mut streams = lock(&self.0);
        let Some(index) = streams.iter().position(Option::is_none) else {
            return Ok(None);
        };
        streams[index] = Some(stream.try_clone()?);
        Ok(Some(Slot { slots: self, index }))
    }

    /// Closes the read side of every open connection. An idle handler
    /// reads EOF and ends; one with a request in flight still writes its
    /// answer, and a line the client sent before the close is still read.
    fn close_reads(&self) {
        for stream in lock(&self.0).iter().flatten() {
            // An error means the client has already gone.
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// A taken connection slot, released on drop — also when its handler
/// panics.
struct Slot<'a> {
    slots: &'a Slots,
    index: usize,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        lock(&self.slots.0)[self.index] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_estimator::request::EstimateRequest;

    #[test]
    fn a_poisoned_tech_map_still_serves() {
        let session = Session::with_caches(Arc::new(StatsCache::new()), Arc::new(ProbTable::new()));
        let poisoner = catch_unwind(AssertUnwindSafe(|| {
            let _techs = lock(&session.techs);
            panic!("a tech load panics under the lock");
        }));
        assert!(poisoner.is_err());
        assert!(session.techs.is_poisoned());
        let request = Request {
            id: "e".to_owned(),
            call: RequestCall::Estimate(EstimateRequest {
                files: Vec::new(),
                mnl: vec![
                    "module m;\ninput a;\noutput y;\ndevice u1 INV (A=a, Y=y);\nendmodule\n"
                        .to_owned(),
                ],
                tech: "nmos".to_owned(),
                rows: None,
                jobs: 1,
                json: false,
                incremental: false,
            }),
        };
        let response = session.handle(&request);
        assert!(response.is_ok(), "{response:?}");
    }

    /// The parse memo's hit count, read from the `cache-stats` payload.
    fn parse_hits(session: &Session) -> u64 {
        let request = Request {
            id: "c".to_owned(),
            call: RequestCall::CacheStats,
        };
        let payload = session
            .handle(&request)
            .result
            .expect("cache-stats answers");
        let (_, rest) = payload
            .split_once("\"parse\":{\"hits\":")
            .expect("a parse entry");
        rest[..rest.find(',').expect("more fields")]
            .parse()
            .expect("a count")
    }

    #[test]
    fn a_non_canonical_source_hits_the_parse_memo_module_by_module() {
        // Two modules on one line, a comment after `endmodule` and one
        // between modules: no line-based cutter splits this.
        let source = "# header\n\
             module a; input x; output y; device u1 INV (A=x, Y=y); endmodule \
             module b; input x; output y; device u1 INV (A=x, Y=t); device u2 INV (A=t, Y=y); \
             endmodule # after b\n\
             # between\n\
             module c;\ninput x;\noutput y;\ndevice u1 INV (A=x, Y=y);\nendmodule\n";
        let session = Session::with_caches(Arc::new(StatsCache::new()), Arc::new(ProbTable::new()));
        let request = Request {
            id: "e".to_owned(),
            call: RequestCall::Estimate(EstimateRequest {
                files: Vec::new(),
                mnl: vec![source.to_owned()],
                tech: "nmos".to_owned(),
                rows: None,
                jobs: 1,
                json: false,
                incremental: false,
            }),
        };
        let modules = ops::parse_inline_mnl(source).expect("the source parses");
        assert_eq!(modules.len(), 3);
        let one_shot = Pipeline::from_shared_tech(Arc::new(ops::load_tech("nmos").unwrap()));
        let expected = ops::estimate_output(&one_shot, &modules, 1, false);
        assert_eq!(session.handle(&request).result, expected);
        let hits = parse_hits(&session);
        assert_eq!(session.handle(&request).result, expected);
        assert_eq!(parse_hits(&session), hits + 3, "each module is a memo hit");
    }

    #[test]
    fn a_slot_is_released_when_its_handler_panics() {
        let slots = Slots::new();
        let (stream, _peer) = UnixStream::pair().expect("socket pair");
        let mut taken: Vec<Slot<'_>> = (0..MAX_CONNECTIONS)
            .map(|_| {
                slots
                    .take(&stream)
                    .expect("stream clones")
                    .expect("a free slot")
            })
            .collect();
        assert!(slots.take(&stream).expect("stream clones").is_none());
        let slot = taken.pop().expect("a taken slot");
        std::thread::scope(|scope| {
            let handler = scope.spawn(move || {
                let _slot = slot;
                panic!("the handler panics");
            });
            assert!(handler.join().is_err());
        });
        assert!(slots.take(&stream).expect("stream clones").is_some());
    }

    #[test]
    fn an_id_escaped_as_a_surrogate_pair_is_answered_and_a_lone_half_is_not() {
        let session = Session::with_caches(Arc::new(StatsCache::new()), Arc::new(ProbTable::new()));
        let input = concat!(
            r#"{"id":"\ud83d\ude00","kind":"cache-stats"}"#,
            "\n",
            r#"{"id":"\ud83d","kind":"cache-stats"}"#,
            "\n",
        );
        let mut output = Vec::new();
        serve_lines(&session, input.as_bytes(), &mut output, 1).expect("serves");
        let output = String::from_utf8(output).expect("utf-8 responses");
        let responses: Vec<Response> = output
            .lines()
            .map(|line| Response::parse(line).expect("a response line"))
            .collect();
        assert_eq!(responses.len(), 2, "{output}");
        assert_eq!(responses[0].id, "\u{1F600}");
        assert!(responses[0].is_ok(), "{:?}", responses[0]);
        assert_eq!(
            responses[1].result,
            Err("bad request: invalid \\u code point at byte 13".to_owned())
        );
    }
}
