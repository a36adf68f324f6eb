//! `maestro-cli` — command-line front end for the module area estimator.
//!
//! ```text
//! maestro-cli estimate  <file.mnl|file.sp> [--tech nmos|cmos|<db.json>] [--rows N] [--json]
//! maestro-cli expand    <file.mnl>                 # gate-level -> nMOS transistor .mnl
//! maestro-cli layout    <file.mnl|file.sp> [--tech ...] [--rows N]
//! maestro-cli floorplan <file...> [--tech ...] [--aspect LIMIT] [--backend NAME]
//! maestro-cli shootout  [--label NAME] [--baseline SHOOTOUT.json]
//! maestro-cli serve     [--jobs N] [--socket PATH] # JSON-lines daemon
//! ```
//!
//! File type is chosen by extension: `.mnl` is the native structural
//! format; `.sp`/`.spice`/`.cir` are SPICE-subset decks.
//!
//! Every command renders through [`maestro::ops`], the same layer the
//! `serve` daemon answers from — so a serve response payload is
//! byte-identical to the one-shot command's stdout.

use std::io::{self, BufWriter, Write};
use std::process::ExitCode;

use maestro::estimator::pipeline::Pipeline;
use maestro::estimator::request::{check_aspect_limit, check_fanout, check_rows};
use maestro::estimator::standard_cell::ScParams;
use maestro::netlist::chip;
use maestro::netlist::RevisionManifest;
use maestro::ops::{self, CommandError};
use maestro::prelude::*;

fn usage() -> &'static str {
    "usage:\n  \
     maestro-cli estimate  <file...> [--tech nmos|cmos|<db.json>] [--rows N] [--jobs N] [--json]\n  \
     \x20                   [--generate FAMILY:DEVICES]... [--stream] [--since prev.mnl]\n  \
     maestro-cli generate  <FAMILY:DEVICES> [--out chip.mnl]\n  \
     \x20                   (families: datapath, memory, tree, mixed; sizes accept k/m suffixes)\n  \
     maestro-cli expand    <file.mnl>\n  \
     maestro-cli depth     <file.mnl>\n  \
     maestro-cli report    <file...> [--tech ...] [--aspect LIMIT] [--jobs N] [--replicas N]\n  \
     \x20                   [--svg out.svg] [--backend annealing|annealing-warm|spanning-tree]\n  \
     maestro-cli layout    <file> [--tech ...] [--rows N] [--replicas N] [--svg out.svg]\n  \
     maestro-cli floorplan <file...> [--tech ...] [--aspect LIMIT] [--replicas N] [--svg out.svg]\n  \
     \x20                   [--backend annealing|annealing-warm|spanning-tree]\n  \
     maestro-cli shootout  [--label NAME] [--out file.json] [--aspect LIMIT] [--quick]\n  \
     \x20                   [--baseline SHOOTOUT.json] [--max-regression PCT]\n  \
     maestro-cli serve     [--jobs N] [--socket PATH]\n  \
     maestro-cli perf-report <trace.jsonl>... [--label NAME] [--out file.json]\n  \
     \x20                     [--baseline BENCH.json] [--max-regression PCT] [--noise-floor-us N]\n\n\
     any command also accepts --trace <file.jsonl> to record a stage-level\n\
     trace of the run (fold it with perf-report)."
}

struct Options {
    files: Vec<String>,
    generate: Vec<String>,
    stream: bool,
    since: Option<String>,
    tech: String,
    rows: Option<u32>,
    aspect: Option<f64>,
    jobs: usize,
    replicas: usize,
    json: bool,
    svg: Option<String>,
    socket: Option<String>,
    trace: Option<String>,
    label: Option<String>,
    out: Option<String>,
    baseline: Option<String>,
    max_regression: Option<f64>,
    noise_floor_us: u64,
    backend: Option<String>,
    quick: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        files: Vec::new(),
        generate: Vec::new(),
        stream: false,
        since: None,
        tech: "nmos".to_owned(),
        rows: None,
        aspect: None,
        jobs: 1,
        replicas: 1,
        json: false,
        svg: None,
        socket: None,
        trace: None,
        label: None,
        out: None,
        baseline: None,
        max_regression: None,
        noise_floor_us: 25_000,
        backend: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tech" => {
                opts.tech = it.next().ok_or("--tech needs a value")?.clone();
            }
            "--rows" => {
                let v = it.next().ok_or("--rows needs a value")?;
                let rows = v.parse().map_err(|_| format!("bad row count `{v}`"))?;
                opts.rows = Some(check_rows("--rows", rows)?);
            }
            "--aspect" => {
                let v = it.next().ok_or("--aspect needs a value")?;
                let limit = v.parse().map_err(|_| format!("bad aspect `{v}`"))?;
                opts.aspect = Some(check_aspect_limit("--aspect", limit)?);
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                let jobs = v.parse().map_err(|_| format!("bad job count `{v}`"))?;
                opts.jobs = check_fanout("--jobs", jobs)? as usize;
            }
            "--replicas" => {
                let v = it.next().ok_or("--replicas needs a value")?;
                let replicas = v.parse().map_err(|_| format!("bad replica count `{v}`"))?;
                opts.replicas = check_fanout("--replicas", replicas)? as usize;
            }
            "--generate" => {
                opts.generate.push(
                    it.next()
                        .ok_or("--generate needs a FAMILY:DEVICES spec")?
                        .clone(),
                );
            }
            "--stream" => opts.stream = true,
            "--since" => {
                opts.since = Some(it.next().ok_or("--since needs a schematic path")?.clone());
            }
            "--json" => opts.json = true,
            "--svg" => {
                opts.svg = Some(it.next().ok_or("--svg needs a path")?.clone());
            }
            "--socket" => {
                opts.socket = Some(it.next().ok_or("--socket needs a path")?.clone());
            }
            "--trace" => {
                opts.trace = Some(it.next().ok_or("--trace needs a path")?.clone());
            }
            "--label" => {
                opts.label = Some(it.next().ok_or("--label needs a value")?.clone());
            }
            "--out" => {
                opts.out = Some(it.next().ok_or("--out needs a path")?.clone());
            }
            "--baseline" => {
                opts.baseline = Some(it.next().ok_or("--baseline needs a path")?.clone());
            }
            "--max-regression" => {
                let v = it.next().ok_or("--max-regression needs a percentage")?;
                let pct: f64 = v
                    .parse()
                    .map_err(|_| format!("bad regression percentage `{v}`"))?;
                if !pct.is_finite() || pct < 0.0 {
                    return Err("--max-regression must be a non-negative percentage".to_owned());
                }
                opts.max_regression = Some(pct);
            }
            "--backend" => {
                let v = it.next().ok_or("--backend needs a name")?;
                if !maestro::estimator::request::FLOORPLAN_BACKENDS.contains(&v.as_str()) {
                    return Err(format!(
                        "unknown backend `{v}` (expected one of: {})",
                        maestro::estimator::request::FLOORPLAN_BACKENDS.join(", ")
                    ));
                }
                opts.backend = Some(v.clone());
            }
            "--quick" => opts.quick = true,
            "--noise-floor-us" => {
                let v = it.next().ok_or("--noise-floor-us needs a value")?;
                opts.noise_floor_us = v.parse().map_err(|_| format!("bad noise floor `{v}`"))?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            file => opts.files.push(file.to_owned()),
        }
    }
    Ok(opts)
}

fn require_files(opts: &Options) -> Result<(), String> {
    if opts.files.is_empty() {
        return Err("no input files".to_owned());
    }
    Ok(())
}

fn parse_chip_specs(specs: &[String]) -> Result<Vec<chip::ChipSpec>, String> {
    specs
        .iter()
        .map(|s| chip::ChipSpec::parse(s).map_err(|e| e.to_string()))
        .collect()
}

/// Device-scale bucket for the streaming throughput metric. Names stay a
/// closed static vocabulary; the metric value is devices per second.
fn stream_scale_metric(devices: usize) -> &'static str {
    match devices {
        0..=9_999 => "estimate.stream.devices_1e3",
        10_000..=99_999 => "estimate.stream.devices_1e4",
        100_000..=999_999 => "estimate.stream.devices_1e5",
        _ => "estimate.stream.devices_1e6",
    }
}

fn cmd_estimate(opts: &Options, out: &mut impl Write) -> Result<(), CommandError> {
    if opts.files.is_empty() && opts.generate.is_empty() {
        return Err("no input files (pass files and/or --generate FAMILY:DEVICES)".into());
    }
    let tech = ops::load_tech(&opts.tech)?;
    let mut pipeline = Pipeline::new(tech);
    if let Some(rows) = opts.rows {
        pipeline = pipeline.with_sc_params(ScParams::with_rows(rows));
    }
    let specs = parse_chip_specs(&opts.generate)?;
    if opts.stream && opts.since.is_some() {
        return Err("--since diffs whole revisions in memory; drop --stream".into());
    }
    if opts.stream {
        // Streaming path: files are read whole and cut into module
        // chunks that the batch workers parse, generated modules are
        // built lazily, and every result leaves through stdout once its
        // wave completes. Peak memory holds the file text plus one wave,
        // never the parsed chip. A parse error ends the stream in input
        // order: the records before it are out, then the command fails.
        let started = std::time::Instant::now();
        let files = opts
            .files
            .iter()
            .map(|file| ops::SchematicFile::read(file))
            .collect::<Result<Vec<_>, _>>()?;
        let items =
            files
                .iter()
                .flat_map(ops::SchematicFile::modules)
                .chain(specs.iter().flat_map(|spec| {
                    spec.modules()
                        .map(|m| ops::StreamItem::Parsed(Ok(Box::new(m))))
                }));
        let summary = ops::estimate_stream(&pipeline, items, opts.jobs, opts.json, out)?;
        let elapsed = started.elapsed().as_secs_f64();
        if maestro::trace::enabled() {
            maestro::trace::counter("estimate.devices", summary.devices as u64);
            if elapsed > 0.0 {
                maestro::trace::metric(
                    stream_scale_metric(summary.devices),
                    summary.devices as f64 / elapsed,
                );
            }
        }
        // stdout carries the per-module records; the tally goes to stderr.
        eprintln!(
            "streamed {} module(s): {} device(s), {} net(s) in {:.2}s",
            summary.modules, summary.devices, summary.nets, elapsed
        );
        return Ok(());
    }
    let mut modules = Vec::new();
    for file in &opts.files {
        modules.extend(ops::load_modules(file)?);
    }
    for spec in &specs {
        modules.extend(spec.modules());
    }
    if let Some(since) = &opts.since {
        // ECO mode: classify this revision against the previous schematic
        // before estimating. The diff tally goes to stderr; stdout stays
        // byte-identical to a plain estimate of the same files.
        let prev_modules = ops::load_modules(since)?;
        let prev = RevisionManifest::from_modules(prev_modules.iter());
        let (text, run) =
            ops::estimate_output_incremental(&pipeline, &prev, &modules, opts.jobs, opts.json)?;
        eprintln!("since {since}: {}", run.diff.summary());
        out.write_all(text.as_bytes())?;
    } else {
        let text = ops::estimate_output(&pipeline, &modules, opts.jobs, opts.json)?;
        out.write_all(text.as_bytes())?;
    }
    Ok(())
}

fn cmd_generate(opts: &Options, out: &mut impl Write) -> Result<(), CommandError> {
    // The spec may arrive positionally or through --generate; either way
    // exactly one chip per invocation.
    let mut specs = opts.files.clone();
    specs.extend(opts.generate.iter().cloned());
    if specs.len() != 1 {
        return Err("generate takes exactly one FAMILY:DEVICES spec".into());
    }
    let spec = chip::ChipSpec::parse(&specs[0]).map_err(|e| e.to_string())?;
    if let Some(path) = &opts.out {
        ops::write_generated_mnl(&spec, path)?;
        writeln!(out, "wrote {path}")?;
    }
    out.write_all(ops::generate_summary(&spec).as_bytes())?;
    Ok(())
}

fn cmd_expand(opts: &Options, out: &mut impl Write) -> Result<(), CommandError> {
    require_files(opts)?;
    for file in &opts.files {
        for module in ops::load_modules(file)? {
            out.write_all(ops::expand_output(&module)?.as_bytes())?;
        }
    }
    Ok(())
}

fn cmd_layout(opts: &Options, out: &mut impl Write) -> Result<(), CommandError> {
    require_files(opts)?;
    let tech = ops::load_tech(&opts.tech)?;
    for file in &opts.files {
        for module in ops::load_modules(file)? {
            let outcome = ops::layout_module(
                &module,
                &tech,
                &StatsCache::shared(),
                opts.rows,
                opts.replicas,
                opts.svg.is_some(),
                None,
            )?;
            if let (Some(path), Some(svg)) = (&opts.svg, &outcome.svg) {
                std::fs::write(path, svg).map_err(|e| format!("{path}: {e}"))?;
                writeln!(out, "wrote {path}")?;
            }
            out.write_all(outcome.summary.as_bytes())?;
        }
    }
    Ok(())
}

fn planning_pipeline(opts: &Options) -> Result<Pipeline, String> {
    let tech = ops::load_tech(&opts.tech)?;
    let mut pipeline = Pipeline::new(tech).with_replicas(opts.replicas);
    if let Some(backend) = &opts.backend {
        pipeline = pipeline.with_floorplan_backend(backend.clone());
    }
    Ok(pipeline)
}

fn cmd_report(opts: &Options, out: &mut impl Write) -> Result<(), CommandError> {
    require_files(opts)?;
    let pipeline = planning_pipeline(opts)?;
    let mut modules = Vec::new();
    for file in &opts.files {
        modules.extend(ops::load_modules(file)?);
    }
    let (text, plan) = ops::report_output(&pipeline, &modules, opts.aspect, opts.jobs)?;
    out.write_all(text.as_bytes())?;
    if let (Some(path), Some(plan)) = (&opts.svg, &plan) {
        std::fs::write(path, plan.to_svg()).map_err(|e| format!("{path}: {e}"))?;
        writeln!(out, "\n(floorplan drawing written to {path})")?;
    }
    Ok(())
}

fn cmd_depth(opts: &Options, out: &mut impl Write) -> Result<(), CommandError> {
    require_files(opts)?;
    for file in &opts.files {
        for module in ops::load_modules(file)? {
            out.write_all(ops::depth_output(&module)?.as_bytes())?;
        }
    }
    Ok(())
}

fn cmd_floorplan(opts: &Options, out: &mut impl Write) -> Result<(), CommandError> {
    require_files(opts)?;
    let pipeline = planning_pipeline(opts)?;
    let mut modules = Vec::new();
    for file in &opts.files {
        modules.extend(ops::load_modules(file)?);
    }
    let (text, plan) = ops::floorplan_output(&pipeline, &modules, opts.aspect)?;
    if let Some(path) = &opts.svg {
        std::fs::write(path, plan.to_svg()).map_err(|e| format!("{path}: {e}"))?;
        writeln!(out, "wrote {path}")?;
    }
    out.write_all(text.as_bytes())?;
    Ok(())
}

fn cmd_serve(opts: &Options) -> Result<(), CommandError> {
    if !opts.files.is_empty() {
        return Err("serve takes no input files (sources arrive inside requests)".into());
    }
    let session = maestro::serve::Session::new();
    let summary = match &opts.socket {
        Some(path) => maestro::serve::serve_socket(&session, std::path::Path::new(path), opts.jobs),
        None => {
            // The Stdout handle (not its lock) so the worker pool can
            // share it; the sink serializes writes itself.
            let stdin = std::io::stdin();
            maestro::serve::serve_lines(&session, stdin.lock(), std::io::stdout(), opts.jobs)
        }
    }
    .map_err(|e| e.to_string())?;
    // stdout is the protocol channel; the session tally goes to stderr.
    eprintln!(
        "serve: answered {} request(s), {} error(s)",
        summary.requests, summary.errors
    );
    Ok(())
}

fn cmd_perf_report(opts: &Options, out: &mut impl Write) -> Result<(), CommandError> {
    use maestro::trace::report::PerfReport;
    if opts.files.is_empty() {
        return Err("perf-report takes at least one trace file".into());
    }
    let label = opts.label.as_deref().unwrap_or("run");
    // Span IDs restart per traced process, so each file is folded on its
    // own and the reports merged — never the raw event streams.
    let mut report: Option<PerfReport> = None;
    for path in &opts.files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let one = PerfReport::from_trace(&text, label).map_err(|e| format!("{path}: {e}"))?;
        match &mut report {
            Some(acc) => acc.merge(&one),
            None => report = Some(one),
        }
    }
    let report = report.expect("at least one file");
    let out_path = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{label}.json"));
    std::fs::write(&out_path, report.to_json()).map_err(|e| format!("{out_path}: {e}"))?;
    out.write_all(report.render().as_bytes())?;
    writeln!(out, "wrote {out_path}")?;
    // The CI trace-regression gate: against a committed baseline report,
    // any stage whose self time grew beyond the envelope fails the run.
    if let Some(path) = &opts.baseline {
        let max_regression = opts.max_regression.unwrap_or(30.0);
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let baseline = maestro::trace::report::PerfReport::from_json(&text)
            .map_err(|e| format!("{path}: {e}"))?;
        let found = maestro::trace::report::regressions(
            &report,
            &baseline,
            max_regression / 100.0,
            opts.noise_floor_us,
        );
        if !found.is_empty() {
            let mut msg = format!(
                "{} stage(s) regressed more than {max_regression}% against {path} \
                 (noise floor {} µs):",
                found.len(),
                opts.noise_floor_us
            );
            for r in &found {
                msg.push_str(&format!("\n  {r}"));
            }
            return Err(msg.into());
        }
        writeln!(
            out,
            "no stage regressed more than {max_regression}% against {path}"
        )?;
    }
    Ok(())
}

fn cmd_shootout(opts: &Options, out: &mut impl Write) -> Result<(), CommandError> {
    use maestro::floorplan::shootout::{paper_cases, regressions, ShootoutReport};
    use maestro::floorplan::{backend, PlanParams};
    if !opts.files.is_empty() {
        return Err("shootout takes no input files (it runs the built-in suite)".into());
    }
    let label = opts.label.as_deref().unwrap_or("run");
    if label.trim().is_empty() {
        return Err("--label must not be empty or whitespace".into());
    }
    // `--quick` trades annealing depth for speed — fine for smoke runs,
    // but baselines and CI must compare like with like, so both sides of
    // a gated run have to use the same setting.
    let mut params = if opts.quick {
        PlanParams::quick()
    } else {
        PlanParams::default()
    };
    params.replicas = opts.replicas;
    if let Some(limit) = opts.aspect {
        params = params.with_aspect_limit(limit);
    }
    let cases = paper_cases()?;
    let report = ShootoutReport::run(label, &cases, &backend::registry(&params));
    let out_path = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("SHOOTOUT_{label}.json"));
    std::fs::write(&out_path, report.to_json()).map_err(|e| format!("{out_path}: {e}"))?;
    out.write_all(report.render().as_bytes())?;
    writeln!(out, "\nwrote {out_path}")?;
    // The CI quality gate: against a committed baseline shootout, any
    // backend whose area or wirelength grew beyond the envelope on any
    // case fails the run. Wall time is never gated.
    if let Some(path) = &opts.baseline {
        let max_regression = opts.max_regression.unwrap_or(5.0);
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let baseline = ShootoutReport::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
        let found = regressions(&report, &baseline, max_regression / 100.0);
        if !found.is_empty() {
            let mut msg = format!(
                "{} backend result(s) regressed more than {max_regression}% against {path}:",
                found.len()
            );
            for r in &found {
                msg.push_str(&format!("\n  {r}"));
            }
            return Err(msg.into());
        }
        writeln!(
            out,
            "no backend regressed more than {max_regression}% against {path}"
        )?;
    }
    Ok(())
}

/// Root span name for a traced command — static so span names stay a
/// closed vocabulary for report consumers.
fn root_span_name(cmd: &str) -> &'static str {
    match cmd {
        "estimate" => "cli.estimate",
        "generate" => "cli.generate",
        "expand" => "cli.expand",
        "depth" => "cli.depth",
        "report" => "cli.report",
        "layout" => "cli.layout",
        "floorplan" => "cli.floorplan",
        "shootout" => "cli.shootout",
        "serve" => "cli.serve",
        _ => "cli.command",
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let opts = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &opts.trace {
        match maestro::trace::JsonLines::create(path) {
            Ok(sink) => maestro::trace::install(std::sync::Arc::new(sink)),
            Err(e) => {
                eprintln!("error: cannot create trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let result = {
        let _root = maestro::trace::span(root_span_name(cmd));
        if cmd == "serve" {
            // The daemon's workers share stdout through their own sink.
            cmd_serve(&opts)
        } else {
            let mut out = BufWriter::new(io::stdout().lock());
            let ran = match cmd.as_str() {
                "estimate" => cmd_estimate(&opts, &mut out),
                "generate" => cmd_generate(&opts, &mut out),
                "expand" => cmd_expand(&opts, &mut out),
                "depth" => cmd_depth(&opts, &mut out),
                "report" => cmd_report(&opts, &mut out),
                "layout" => cmd_layout(&opts, &mut out),
                "floorplan" => cmd_floorplan(&opts, &mut out),
                "shootout" => cmd_shootout(&opts, &mut out),
                "perf-report" => cmd_perf_report(&opts, &mut out),
                other => Err(format!("unknown command `{other}`\n{}", usage()).into()),
            };
            // Flush whatever the outcome: a failing command may still
            // have written output, and dropping the buffer would discard
            // its write error.
            let flushed = out.flush();
            ran.and(flushed.map_err(CommandError::Write))
        }
    };
    // Flush the trace file before exiting (drops the sink).
    maestro::trace::uninstall();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // A closed stdout (`| head`) ends the command quietly.
        Err(CommandError::Write(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(CommandError::Write(e)) => {
            eprintln!("error: write: {e}");
            ExitCode::FAILURE
        }
        Err(CommandError::Failed(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
