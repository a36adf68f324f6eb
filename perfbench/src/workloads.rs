//! The workloads: their untraced runs (end-to-end metrics) and their
//! traced runs (per-layer metrics).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde::Value;

use crate::check::{self, digest, OneShot};
use crate::inputs::{self, ClientScript};
use crate::metrics::{response_passes, RunResult, Tally, END_TO_END, PER_LAYER};
use crate::proc::{run_command, Client, Daemon};
use crate::replay::{self, Mirror};
use crate::span::{Busy, Recorder};
use crate::stats::{median, ratio, tail, window_rates};

/// How many times a serve run sets the daemon up; `setup_s` is the
/// median.
const SETUP_REPEATS: usize = 5;

/// One-module launches chip_stream makes after each chip command to time
/// its set-up: one set-up is the median launch of such a burst.
const PROBES_PER_COMMAND: usize = 12;

/// Throughput is the median rate over this many equal slices of the
/// measured interval.
const RATE_WINDOWS: usize = 5;

/// The traced run's replay passes: untraced, traced, untraced. The first
/// pass warms the process (allocator, page faults) and supplies the
/// handle times for `serve.transport_ms`; the traced pass is priced
/// against the last.
const REPLAY_PASSES: [bool; 3] = [false, true, false];

/// What one run needs to know.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The `maestro-cli` binary under test.
    pub cli: PathBuf,
    /// Scratch directory for this run (relative, so socket paths stay
    /// short).
    pub work: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// Measuring time, in seconds.
    pub seconds: f64,
    /// Where a traced run writes its spans.
    pub spans: PathBuf,
}

impl Ctx {
    fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn io<T>(r: std::io::Result<T>, what: &str) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    io(std::fs::write(path, text), &path.display().to_string())
}

/// Runs `workload` untraced (`trace == false`) or traced. Report lines
/// for people go to `report`; the returned result is the last line.
pub fn run(
    ctx: &Ctx,
    workload: &str,
    trace: bool,
    report: &mut Vec<String>,
) -> Result<RunResult, String> {
    match (workload, trace) {
        ("chip_stream", false) => chip_stream(ctx, report),
        ("chip_stream", true) => chip_stream_traced(ctx, report),
        ("serve_mixed", false) => serve_mixed(ctx, report),
        ("serve_mixed", true) => serve_mixed_traced(ctx, report),
        _ => Err(format!("unknown workload `{workload}`")),
    }
}

/// Latencies of the operations of one kind, failures as +∞.
#[derive(Debug, Default, Clone)]
struct Latencies(Vec<f64>);

impl Latencies {
    fn push(&mut self, ms: f64, passed: bool) {
        self.0.push(if passed { ms } else { f64::INFINITY });
    }

    fn p50(&self) -> f64 {
        median(&self.0).unwrap_or(f64::INFINITY)
    }

    fn describe(&self, name: &str) -> String {
        let tail = match tail(&self.0) {
            Some(t) => format!(
                "tail {:.3} ms at p{} of {} samples",
                t.value, t.percentile, t.samples
            ),
            None => format!("no tail (only {} samples)", self.0.len()),
        };
        format!("{name}: p50 {:.3} ms, {tail}", self.p50())
    }
}

fn end_to_end(
    setup: &[f64],
    peak_rss_mb: f64,
    devices_per_s: f64,
    ops_per_s: f64,
    estimate_p50_ms: f64,
) -> Vec<(&'static str, f64)> {
    let values = [
        median(setup).unwrap_or(f64::INFINITY),
        peak_rss_mb,
        devices_per_s,
        ops_per_s,
        estimate_p50_ms,
    ];
    END_TO_END.iter().map(|d| d.name).zip(values).collect()
}

// ---------------------------------------------------------------- chip_stream

fn chip_args<'a>(path: &'a str, jobs: &'a str) -> [&'a str; 6] {
    ["estimate", path, "--stream", "--jobs", jobs, "--json"]
}

/// Generates and writes the chip; returns its text and device count.
fn chip_inputs(ctx: &Ctx, report: &mut Vec<String>) -> Result<(String, usize), String> {
    let (design, modules, devices) = inputs::chip_stream_design(ctx.seed);
    write_file(&ctx.path("chip.mnl"), &design)?;
    report.push(format!(
        "input: {modules} modules, {devices} devices, {} bytes of .mnl (digest {:016x})",
        design.len(),
        digest(design.as_bytes())
    ));
    Ok((design, devices))
}

fn chip_stream(ctx: &Ctx, report: &mut Vec<String>) -> Result<RunResult, String> {
    let log = ctx.path("cli.log");
    let probe = ctx.path("probe.mnl");
    write_file(&probe, &inputs::probe_mnl())?;
    let probe = probe.display().to_string();
    let probe_want = digest(&check::chip_reference(&inputs::probe_mnl())?);
    let (design, devices) = chip_inputs(ctx, report)?;
    let chip = ctx.path("chip.mnl").display().to_string();
    // The reference runs before the timed phase, which also brings the
    // machine up to speed.
    let want = digest(&check::chip_reference(&design)?);
    drop(design);
    let started = Instant::now();
    let mut runs = Vec::new();
    let mut setup = Vec::new();
    let mut probes_ok = true;
    while runs.len() < 2 || started.elapsed().as_secs_f64() < ctx.seconds {
        let run = io(
            run_command(&ctx.cli, &chip_args(&chip, "2"), &log),
            "maestro-cli",
        )?;
        runs.push((run.ok, digest(&run.stdout), run.wall, run.peak_rss_mb));
        // Set-up: the fixed cost of a launch, on a one-module design. A
        // launch takes milliseconds and its speed drifts over seconds, so
        // set-ups are spread over the whole run, one burst after each
        // chip command. The burst median also ignores the first launch
        // after a chip command, which is slower.
        let mut burst = Vec::new();
        for _ in 0..PROBES_PER_COMMAND {
            let run = io(
                run_command(&ctx.cli, &chip_args(&probe, "2"), &log),
                "maestro-cli",
            )?;
            burst.push(run.wall.as_secs_f64());
            probes_ok &= run.ok && digest(&run.stdout) == probe_want;
        }
        setup.extend(median(&burst));
    }
    let elapsed = started.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let mut latency = Latencies::default();
    let mut rss: f64 = 0.0;
    for &(ok, got, wall, peak) in &runs {
        let passed = ok && got == want;
        tally.record(passed);
        latency.push(ms(wall), passed);
        rss = rss.max(peak);
    }
    let p50 = latency.p50();
    report.push(latency.describe("command"));
    report.push(format!(
        "devices_per_s = {devices} devices / {:.4} s (p50 command); {} commands in {elapsed:.3} s",
        p50 / 1e3,
        runs.len()
    ));
    report.push(format!(
        "setup_s = median of {} bursts of {PROBES_PER_COMMAND} one-module launches; burst medians [{}] ms",
        setup.len(),
        setup
            .iter()
            .map(|s| format!("{:.3}", s * 1e3))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    Ok(RunResult {
        correct: probes_ok && tally.failed == 0,
        tally,
        metrics: end_to_end(&setup, rss, devices as f64 / (p50 / 1e3), 1e3 / p50, p50),
    })
}

fn chip_stream_traced(ctx: &Ctx, report: &mut Vec<String>) -> Result<RunResult, String> {
    let (design, devices) = chip_inputs(ctx, report)?;
    let chip = ctx.path("chip.mnl").display().to_string();
    let log = ctx.path("cli.log");
    // The binary at --jobs 2 and at the single-threaded --jobs 1, in
    // alternation, for estimator.pipeline.parallel_gain.
    let mut walls: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut outputs = Vec::new();
    let started = Instant::now();
    while walls.get("1").map_or(0, Vec::len) < 2
        || started.elapsed().as_secs_f64() < ctx.seconds / 2.0
    {
        for jobs in ["2", "1"] {
            let run = io(
                run_command(&ctx.cli, &chip_args(&chip, jobs), &log),
                "maestro-cli",
            )?;
            walls.entry(jobs).or_default().push(run.wall.as_secs_f64());
            outputs.push((run.ok, digest(&run.stdout)));
        }
    }
    let mut inputs = LayerInputs::default();
    let (j2, j1) = (
        median(&walls["2"]).unwrap_or(0.0),
        median(&walls["1"]).unwrap_or(0.0),
    );
    inputs.parallel_gain = Some((devices as f64 / j2, devices as f64 / j1));
    // The replays must render what the binary printed.
    let want = outputs.first().map(|o| o.1);
    let mut tally = Tally::default();
    for (pass, traced) in REPLAY_PASSES.into_iter().enumerate() {
        let rec = Recorder::new(traced);
        let mut mirror = Mirror::new(&rec);
        let t = Instant::now();
        let out = rec.time(replay::OP, || mirror.stream_chip(&design))?;
        inputs.walls[pass] = t.elapsed().as_secs_f64();
        tally.record(Some(digest(&out)) == want);
        if traced {
            inputs.absorb_mirror(&rec, &mirror);
            save_spans(ctx, &rec)?;
        }
    }
    for (ok, got) in outputs {
        tally.record(ok && Some(got) == want);
    }
    let metrics = layer_metrics(&inputs, report);
    Ok(RunResult {
        correct: tally.failed == 0,
        tally,
        metrics,
    })
}

// ---------------------------------------------------------------- serve daemon

/// Launches the daemon, opens one connection per first request, sends
/// each its first request and waits for every answer. Returns the
/// daemon, the connections, the set-up time and the first responses.
fn set_up_daemon(
    ctx: &Ctx,
    first: &[String],
) -> Result<(Daemon, Vec<Client>, f64, Vec<String>), String> {
    let daemon = io(
        Daemon::launch(&ctx.cli, &ctx.path("d.sock"), &ctx.path("serve.log")),
        "launching maestro-cli serve",
    )?;
    let mut clients = Vec::new();
    for _ in first {
        clients.push(io(daemon.connect(), "connecting to the daemon")?);
    }
    let mut answers = Vec::new();
    for (client, line) in clients.iter_mut().zip(first) {
        answers.push(io(client.request(line), "first request")?.0);
    }
    let setup = daemon.launched.elapsed().as_secs_f64();
    Ok((daemon, clients, setup, answers))
}

/// [`set_up_daemon`] [`SETUP_REPEATS`] times, keeping the last daemon.
/// `check` judges each set of first responses.
fn set_up_repeatedly(
    ctx: &Ctx,
    first: &[String],
    mut check: impl FnMut(&[String]) -> bool,
) -> Result<(Daemon, Vec<Client>, Vec<f64>, bool), String> {
    let mut setups = Vec::new();
    let mut passed = true;
    for i in 0.. {
        let (daemon, clients, setup, answers) = set_up_daemon(ctx, first)?;
        setups.push(setup);
        passed &= check(&answers);
        if i + 1 == SETUP_REPEATS {
            return Ok((daemon, clients, setups, passed));
        }
        drop(clients);
        io(daemon.shutdown(), "daemon shutdown")?;
    }
    unreachable!("the loop returns")
}

/// Closes the clients, then reads the daemon's cache-stats and peak RSS
/// as it shuts down.
fn finish_daemon(
    daemon: Daemon,
    clients: Vec<Client>,
    report: &mut Vec<String>,
) -> Result<(CacheCounts, f64), String> {
    drop(clients);
    let (stats, rss) = io(daemon.shutdown(), "daemon shutdown")?;
    report.push(format!("daemon cache-stats: {}", stats.trim_end()));
    Ok((CacheCounts::parse(&stats), rss))
}

/// One answered request of a closed-loop client.
#[derive(Debug, Clone)]
struct Served {
    kind: &'static str,
    devices: usize,
    latency_ms: f64,
    /// Completion time, s since the measured interval began.
    done_s: f64,
    line: Result<String, String>,
}

/// Sends the script's requests one at a time from `started` until
/// `deadline`.
fn drive(
    client: &mut Client,
    script: &mut ClientScript,
    started: Instant,
    deadline: Instant,
) -> Vec<Served> {
    let mut served = Vec::new();
    while Instant::now() < deadline {
        let next = script.next_request();
        let line = next.request.to_json_line();
        let (latency_ms, line) = match client.request(&line) {
            Ok((response, latency)) => (ms(latency), Ok(response)),
            Err(e) => (f64::INFINITY, Err(e.to_string())),
        };
        let failed = line.is_err();
        served.push(Served {
            kind: next.kind,
            devices: next.devices,
            latency_ms,
            done_s: started.elapsed().as_secs_f64(),
            line,
        });
        if failed {
            break;
        }
    }
    served
}

/// Runs both serve_mixed clients against a set-up daemon for `seconds`,
/// returning each client's answered requests.
fn drive_both(ctx: &Ctx, clients: &mut [Client], seconds: f64) -> Vec<Vec<Served>> {
    let scripts: Vec<ClientScript> = (0..clients.len())
        .map(|c| ClientScript::new(ctx.seed, c))
        .collect();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(scripts)
            .map(|(client, mut script)| {
                s.spawn(move || drive(client, &mut script, started, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

fn serve_probes(ctx: &Ctx) -> Vec<String> {
    (0..2)
        .map(|c| ClientScript::new(ctx.seed, c).probe().to_json_line())
        .collect()
}

fn probe_answers_pass(answers: &[String]) -> bool {
    let want = OneShot::new()
        .answer(&ClientScript::new(0, 0).probe())
        .unwrap_or_default();
    answers.iter().all(|a| response_passes(a, &want))
}

fn serve_mixed(ctx: &Ctx, report: &mut Vec<String>) -> Result<RunResult, String> {
    let probes = serve_probes(ctx);
    let (daemon, mut clients, setups, setup_ok) =
        set_up_repeatedly(ctx, &probes, probe_answers_pass)?;
    let served = drive_both(ctx, &mut clients, ctx.seconds);
    let (_, rss) = finish_daemon(daemon, clients, report)?;
    // Serve equivalence: each client's payloads equal the one-shot ops
    // output for the same sequence on fresh caches.
    let verdicts: Vec<Vec<bool>> = std::thread::scope(|s| {
        let handles: Vec<_> = served
            .iter()
            .enumerate()
            .map(|(c, log)| {
                s.spawn(move || {
                    let mut script = ClientScript::new(ctx.seed, c);
                    let oneshot = OneShot::new();
                    log.iter()
                        .map(|sv| {
                            let want = oneshot.answer(&script.next_request().request);
                            match (&sv.line, want) {
                                (Ok(line), Ok(want)) => response_passes(line, &want),
                                _ => false,
                            }
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread"))
            .collect()
    });
    let mut tally = Tally::default();
    let mut by_kind: BTreeMap<&str, Latencies> = BTreeMap::new();
    let (mut done, mut devices) = (Vec::new(), Vec::new());
    for (log, verdict) in served.iter().zip(&verdicts) {
        for (sv, &passed) in log.iter().zip(verdict) {
            tally.record(passed);
            by_kind
                .entry(sv.kind)
                .or_default()
                .push(sv.latency_ms, passed);
            if passed {
                done.push((sv.done_s, 1.0));
                devices.push((sv.done_s, sv.devices as f64));
            }
        }
    }
    let op_rates = window_rates(&done, ctx.seconds, RATE_WINDOWS);
    let ops_per_s = median(&op_rates).unwrap_or(0.0);
    let devices_per_s = median(&window_rates(&devices, ctx.seconds, RATE_WINDOWS)).unwrap_or(0.0);
    report.push(format!(
        "req_per_s = {ops_per_s:.3}: median of {RATE_WINDOWS} windows [{}] over {} requests",
        op_rates
            .iter()
            .map(|r| format!("{r:.2}"))
            .collect::<Vec<_>>()
            .join(", "),
        done.len()
    ));
    for (kind, lat) in &by_kind {
        report.push(lat.describe(kind));
    }
    let pools: usize = (0..2)
        .map(|c| ClientScript::new(ctx.seed, c).pool_size())
        .sum();
    report.push(format!(
        "working set: {pools} pool modules and at most 410 ECO module versions \
         (StatsCache 4096, parse memo and ResultsCache 8192, WarmStore 1024 entries)"
    ));
    // Plain estimates only: ECO rounds are filed under `eco`.
    let estimate_p50 = by_kind
        .get("estimate")
        .map_or(f64::INFINITY, Latencies::p50);
    Ok(RunResult {
        correct: setup_ok && tally.failed == 0,
        tally,
        metrics: end_to_end(&setups, rss, devices_per_s, ops_per_s, estimate_p50),
    })
}

fn serve_mixed_traced(ctx: &Ctx, report: &mut Vec<String>) -> Result<RunResult, String> {
    let probes = serve_probes(ctx);
    let (daemon, mut clients, _, answers) = set_up_daemon(ctx, &probes)?;
    // A quarter of the time: the replay re-runs both clients' work
    // serially, three times.
    let served = drive_both(ctx, &mut clients, ctx.seconds / 4.0);
    let (cache, _) = finish_daemon(daemon, clients, report)?;
    // The daemon answered both probes, then each client's sequence.
    let mut ops: Vec<ReplayOp> = probes
        .iter()
        .zip(&answers)
        .map(|(line, answer)| ReplayOp::setup(line.clone(), answer))
        .collect();
    for (c, log) in served.iter().enumerate() {
        let mut script = ClientScript::new(ctx.seed, c);
        for sv in log {
            ops.push(ReplayOp {
                line: script.next_request().request.to_json_line(),
                answer: sv.line.as_ref().ok().map(|l| digest(l.as_bytes())),
                client_ms: Some(sv.latency_ms),
            });
        }
    }
    let mut inputs = LayerInputs {
        cache: Some(cache),
        ..LayerInputs::default()
    };
    let tally = replay_ops(ctx, &mut inputs, || Box::new(ops.iter().cloned()))?;
    let metrics = layer_metrics(&inputs, report);
    Ok(RunResult {
        correct: tally.failed == 0,
        tally,
        metrics,
    })
}

/// One request line the replay sends, with the digest of the response
/// line the daemon sent back (`None` if it sent none) and the client
/// latency of timed requests.
#[derive(Debug, Clone)]
struct ReplayOp {
    line: String,
    answer: Option<u64>,
    client_ms: Option<f64>,
}

impl ReplayOp {
    fn setup(line: String, answer: &str) -> ReplayOp {
        ReplayOp {
            line,
            answer: Some(digest(answer.as_bytes())),
            client_ms: None,
        }
    }
}

type OpStream<'a> = Box<dyn Iterator<Item = ReplayOp> + 'a>;

/// Replays the daemon's requests in process over [`REPLAY_PASSES`]; each
/// response line must equal the daemon's. The pass times add up only the
/// time inside the replayed calls.
fn replay_ops<'a>(
    ctx: &Ctx,
    inputs: &mut LayerInputs,
    ops: impl Fn() -> OpStream<'a>,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let (mut client_ms, mut handle_ms, mut timed) = (0.0, 0.0, 0usize);
    for (pass, traced) in REPLAY_PASSES.into_iter().enumerate() {
        let rec = Recorder::new(traced);
        let mut mirror = Mirror::new(&rec);
        let mut wall = 0.0;
        for (i, op) in ops().enumerate() {
            rec.set_op(i as u64);
            let t = Instant::now();
            let response = rec.time(replay::OP, || mirror.serve_line(&op.line));
            let took = t.elapsed().as_secs_f64();
            wall += took;
            tally.record(op.answer == Some(digest(response.as_bytes())));
            if let (0, Some(client)) = (pass, op.client_ms) {
                client_ms += client;
                handle_ms += took * 1e3;
                timed += 1;
            }
        }
        inputs.walls[pass] = wall;
        if traced {
            inputs.absorb_mirror(&rec, &mirror);
            save_spans(ctx, &rec)?;
        }
    }
    inputs.transport = Some((client_ms, handle_ms, timed));
    Ok(tally)
}

// ---------------------------------------------------------------- per-layer metrics

/// The daemon's `cache-stats` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CacheCounts {
    /// Resolve memo hits, misses and evictions.
    resolve: [u64; 3],
    /// Result memo hits and misses.
    results: [u64; 2],
    /// Parse memo hits and misses.
    parse: [u64; 2],
    /// Stored warm seeds.
    warm_seeds: u64,
    /// Requests that reused a parsed tech database.
    tech_reuse: u64,
}

impl CacheCounts {
    /// Reads a `cache-stats` payload; missing fields read as 0.
    fn parse(payload: &str) -> CacheCounts {
        let value: Value = serde_json::from_str(payload.trim()).unwrap_or(Value::Null);
        let get = |path: &[&str]| -> u64 {
            let mut v = &value;
            for key in path {
                match v.as_object().and_then(|f| serde::find_field(f, key)) {
                    Some(next) => v = next,
                    None => return 0,
                }
            }
            v.as_u64().unwrap_or(0)
        };
        CacheCounts {
            resolve: [
                get(&["resolve", "hits"]),
                get(&["resolve", "misses"]),
                get(&["resolve", "evictions"]),
            ],
            results: [get(&["results", "hits"]), get(&["results", "misses"])],
            parse: [get(&["parse", "hits"]), get(&["parse", "misses"])],
            warm_seeds: get(&["warm_seeds"]),
            tech_reuse: get(&["tech_reuse"]),
        }
    }
}

/// Everything the per-layer metrics are computed from.
#[derive(Debug, Default)]
struct LayerInputs {
    busy: BTreeMap<&'static str, Busy>,
    /// The traced pass's ECO rounds: how many, and their spans folded.
    eco: (usize, BTreeMap<&'static str, Busy>),
    parsed_bytes: u64,
    fingerprints: u64,
    /// The replay's resolve memo (chip_stream), hits/misses/evictions.
    replay_resolve: [u64; 3],
    /// The replay's Eq. 2–3 memo, hits/misses.
    prob: [u64; 2],
    /// The daemon's counters (serve workloads).
    cache: Option<CacheCounts>,
    /// Devices/s at --jobs 2 and at --jobs 1.
    parallel_gain: Option<(f64, f64)>,
    /// Σ client latency, Σ untraced handle time (ms), requests.
    transport: Option<(f64, f64, usize)>,
    /// Wall time of each replay pass, s.
    walls: [f64; 3],
}

impl LayerInputs {
    fn absorb_mirror(&mut self, rec: &Recorder, mirror: &Mirror<'_>) {
        self.busy = rec.busy();
        let eco = rec.ops_with(replay::HANDLE_ECO);
        self.eco = (eco.len(), rec.busy_in(&eco));
        self.parsed_bytes = mirror.counts.parsed_bytes;
        self.fingerprints = mirror.counts.fingerprints;
        let s = mirror.stats_cache().stats();
        self.replay_resolve = [s.hits, s.misses, s.evictions];
        let p = mirror.prob_table().stats();
        self.prob = [p.hits, p.misses];
    }

    fn self_ms(&self, name: &str) -> f64 {
        self.busy.get(name).map_or(0.0, |b| b.self_ns as f64 / 1e6)
    }

    fn mean_total_ms(&self, name: &str) -> (f64, u64) {
        self.busy.get(name).map_or((0.0, 0), |b| {
            (ratio(b.total_ns as f64 / 1e6, b.calls as f64), b.calls)
        })
    }
}

/// Writes the traced run's spans, one JSON object per line.
fn save_spans(ctx: &Ctx, rec: &Recorder) -> Result<(), String> {
    write_file(&ctx.spans, &rec.to_jsonl())
}

fn hit_ratio(report: &mut Vec<String>, name: &str, hits: u64, misses: u64) -> f64 {
    report.push(format!("{name} = {hits} hits / {} lookups", hits + misses));
    ratio(hits as f64, (hits + misses) as f64)
}

/// Where the traced ECO rounds spent their time, by layer, largest
/// first.
fn eco_breakdown(li: &LayerInputs, report: &mut Vec<String>) {
    let (rounds, busy) = &li.eco;
    let total_ns: u64 = busy.values().map(|b| b.self_ns).sum();
    if *rounds == 0 || total_ns == 0 {
        return;
    }
    let mut shares: Vec<(&str, u64)> = busy.iter().map(|(n, b)| (*n, b.self_ns)).collect();
    shares.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let shares: Vec<String> = shares
        .iter()
        .map(|(n, ns)| format!("{n} {:.1}%", 100.0 * *ns as f64 / total_ns as f64))
        .collect();
    report.push(format!(
        "eco rounds (traced): {rounds} rounds, {:.3} ms each on average; self time by span: {}",
        total_ns as f64 / 1e6 / *rounds as f64,
        shares.join(", ")
    ));
}

fn layer_metrics(li: &LayerInputs, report: &mut Vec<String>) -> Vec<(&'static str, f64)> {
    let resolve = li.cache.map_or(li.replay_resolve, |c| c.resolve);
    let cache = li.cache.unwrap_or_default();
    // Fingerprints StatsCache::resolve takes of its key: one per lookup,
    // hit or miss. The daemon's count also holds the lookups `place` and
    // `synthesize` make in the process-wide memo it shares.
    let lookups = resolve[0] + resolve[1];
    eco_breakdown(li, report);
    let mut out = Vec::new();
    for def in PER_LAYER {
        let name = def.name;
        let value = match name {
            "netlist.parse.mb_per_s" => {
                let busy_s = li.self_ms("netlist.parse") / 1e3;
                report.push(format!(
                    "{name} = {} bytes / {busy_s:.6} s parsing",
                    li.parsed_bytes
                ));
                ratio(li.parsed_bytes as f64 / 1e6, busy_s)
            }
            "netlist.fingerprint.busy_ms" => {
                let elsewhere = if li.cache.is_some() {
                    " (those of place and synthesize in place.busy_ms and fullcustom.synthesize.busy_ms)"
                } else {
                    ""
                };
                report.push(format!(
                    "{name} = self time of the {} manifest and result-key fingerprints; \
                     the {lookups} resolve-key fingerprints are timed inside netlist.resolve.busy_ms{elsewhere}",
                    li.fingerprints
                ));
                li.self_ms("netlist.fingerprint")
            }
            "netlist.fingerprint.calls" => {
                report.push(format!(
                    "{name} = {} manifest and result-key + {lookups} resolve-key \
                     (one per StatsCache::resolve lookup)",
                    li.fingerprints
                ));
                (li.fingerprints + lookups) as f64
            }
            "netlist.resolve.hit_ratio" => hit_ratio(report, name, resolve[0], resolve[1]),
            "netlist.resolve.misses" => resolve[1] as f64,
            "netlist.resolve.evictions" => resolve[2] as f64,
            "estimator.prob.hit_ratio" => hit_ratio(report, name, li.prob[0], li.prob[1]),
            "estimator.results.hit_ratio" => {
                hit_ratio(report, name, cache.results[0], cache.results[1])
            }
            "estimator.codec.decode_ms" => li.self_ms("estimator.codec.decode"),
            "estimator.codec.encode_ms" => li.self_ms("estimator.codec.encode"),
            "estimator.pipeline.parallel_gain" => match li.parallel_gain {
                Some((j2, j1)) => {
                    report.push(format!(
                        "{name} = {j2:.1} devices/s at --jobs 2 / {j1:.1} devices/s at --jobs 1"
                    ));
                    ratio(j2, j1)
                }
                None => 0.0,
            },
            "serve.handle.estimate_ms" | "serve.handle.layout_ms" | "serve.handle.floorplan_ms" => {
                let span = name.trim_end_matches("_ms");
                let (mean, calls) = li.mean_total_ms(span);
                if calls > 0 {
                    report.push(format!("{name} = mean over {calls} traced requests"));
                }
                mean
            }
            "serve.transport_ms" => match li.transport {
                Some((client, handle, n)) if n > 0 => {
                    report.push(format!(
                        "{name} = ({client:.3} ms client latency - {handle:.3} ms handle time) / {n} requests"
                    ));
                    (client - handle) / n as f64
                }
                _ => 0.0,
            },
            "serve.parse_memo.hit_ratio" => hit_ratio(report, name, cache.parse[0], cache.parse[1]),
            "serve.tech_reuse" => cache.tech_reuse as f64,
            "fullcustom.warm_seeds" => cache.warm_seeds as f64,
            "unattributed_ms" => {
                let glue: f64 = replay::GLUE.iter().map(|g| li.self_ms(g)).sum();
                let total: f64 = li.busy.values().map(|b| b.self_ns as f64 / 1e6).sum();
                report.push(format!(
                    "{name} = {glue:.3} ms of {total:.3} ms traced op time is outside every layer span"
                ));
                glue
            }
            "trace_overhead_pct" => {
                let [_, traced, untraced] = li.walls;
                report.push(format!(
                    "{name} = 100 * ({traced:.4} s traced - {untraced:.4} s untraced) / {untraced:.4} s"
                ));
                100.0 * ratio(traced - untraced, untraced)
            }
            busy => li.self_ms(busy.trim_end_matches(".busy_ms")),
        };
        out.push((name, value));
    }
    out
}
