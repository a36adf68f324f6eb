//! Folding a JSON-lines trace into a per-stage timing summary — the
//! machine-readable `BENCH_<label>.json` perf-trajectory artifact.
//!
//! One deliberately small JSON reader serves both directions: the flat
//! single-object lines this crate's [`Event::to_json_line`] emits (unknown
//! keys and any key order tolerated, nested values rejected) and the
//! nested `BENCH_<label>.json` reports [`PerfReport::to_json`] writes.

use std::collections::BTreeMap;

use crate::event::{format_f64, quoted};
use crate::Event;

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number within the trace.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A parsed JSON value, as far as the trace and report schemas need:
/// objects, arrays, strings and numbers (no booleans or nulls).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Str(String),
    Num(f64),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    fn str_of(&self, key: &str) -> Result<String, String> {
        match self.field(key)? {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(format!("field `{key}` must be a string")),
        }
    }

    fn f64_of(&self, key: &str) -> Result<f64, String> {
        match self.field(key)? {
            Json::Num(n) => Ok(*n),
            _ => Err(format!("field `{key}` must be a number")),
        }
    }

    fn u64_of(&self, key: &str) -> Result<u64, String> {
        match self.field(key)? {
            Json::Num(n) if *n >= 0.0 => Ok(*n as u64),
            _ => Err(format!("field `{key}` must be a non-negative number")),
        }
    }

    /// The array under `key`, or `None` when the key is absent.
    fn items(&self, key: &str) -> Result<Option<&[Json]>, String> {
        match self.get(key) {
            Some(Json::Arr(items)) => Ok(Some(items)),
            Some(_) => Err(format!("field `{key}` must be an array")),
            None => Ok(None),
        }
    }

    fn entries(&self, key: &str) -> Result<&[(String, Json)], String> {
        match self.field(key)? {
            Json::Obj(fields) => Ok(fields),
            _ => Err(format!("field `{key}` must be an object")),
        }
    }
}

type Chars<'a> = std::iter::Peekable<std::str::CharIndices<'a>>;

/// Parses one JSON document (the trace-line and report schema subset).
fn parse_json(text: &str) -> Result<Json, String> {
    let mut chars = text.char_indices().peekable();
    let value = parse_json_value(text, &mut chars)?;
    skip_ws(&mut chars);
    if let Some((_, c)) = chars.next() {
        return Err(format!("trailing content starting at `{c}`"));
    }
    Ok(value)
}

fn skip_ws(chars: &mut Chars<'_>) {
    while matches!(chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut Chars<'_>) -> Result<String, String> {
    match chars.next() {
        Some((_, '"')) => {}
        other => return Err(format!("expected string, found {other:?}")),
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some((_, '"')) => return Ok(out),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let (_, h) = chars.next().ok_or("truncated \\u escape")?;
                        code = code * 16
                            + h.to_digit(16)
                                .ok_or_else(|| format!("bad hex digit `{h}` in \\u escape"))?;
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some((_, c)) => out.push(c),
            None => return Err("unterminated string".to_owned()),
        }
    }
}

/// Consumes an array or object: the opening bracket, then
/// comma-separated `item`s up to `close`.
fn parse_items(
    chars: &mut Chars<'_>,
    close: char,
    mut item: impl FnMut(&mut Chars<'_>) -> Result<(), String>,
) -> Result<(), String> {
    chars.next();
    skip_ws(chars);
    if chars.next_if(|&(_, c)| c == close).is_some() {
        return Ok(());
    }
    loop {
        item(chars)?;
        skip_ws(chars);
        match chars.next() {
            Some((_, ',')) => {}
            Some((_, c)) if c == close => return Ok(()),
            other => return Err(format!("expected `,` or `{close}`, found {other:?}")),
        }
    }
}

fn parse_json_value(text: &str, chars: &mut Chars<'_>) -> Result<Json, String> {
    skip_ws(chars);
    match chars.peek() {
        Some((_, '"')) => Ok(Json::Str(parse_string(chars)?)),
        Some((_, '{')) => {
            let mut fields = Vec::new();
            parse_items(chars, '}', |chars| {
                skip_ws(chars);
                let key = parse_string(chars)?;
                skip_ws(chars);
                match chars.next() {
                    Some((_, ':')) => {}
                    other => return Err(format!("expected `:` after key, found {other:?}")),
                }
                fields.push((key, parse_json_value(text, chars)?));
                Ok(())
            })?;
            Ok(Json::Obj(fields))
        }
        Some((_, '[')) => {
            let mut items = Vec::new();
            parse_items(chars, ']', |chars| {
                items.push(parse_json_value(text, chars)?);
                Ok(())
            })?;
            Ok(Json::Arr(items))
        }
        Some(&(start, c)) if c == '-' || c.is_ascii_digit() => {
            let mut end = start;
            while let Some(&(i, c)) = chars.peek() {
                if c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || c.is_ascii_digit() {
                    end = i + c.len_utf8();
                    chars.next();
                } else {
                    break;
                }
            }
            let number = &text[start..end];
            Ok(Json::Num(
                number
                    .parse::<f64>()
                    .map_err(|_| format!("bad number `{number}`"))?,
            ))
        }
        other => Err(format!("unsupported value start {other:?}")),
    }
}

/// Parses one JSON-lines trace event.
///
/// # Errors
///
/// Returns the structural or schema problem as a message (the caller adds
/// the line number).
pub fn parse_event(line: &str) -> Result<Event, String> {
    let event = parse_json(line)?;
    match &event {
        Json::Obj(fields) => {
            if let Some((key, _)) = fields
                .iter()
                .find(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)))
            {
                return Err(format!("field `{key}` must be a string or a number"));
            }
        }
        _ => return Err("expected `{`".to_owned()),
    }
    match event.str_of("type")?.as_str() {
        "span" => Ok(Event::Span {
            id: event.u64_of("id")?,
            parent: event.u64_of("parent")?,
            name: event.str_of("name")?,
            detail: event.str_of("detail").unwrap_or_default(),
            thread: event.str_of("thread")?,
            start_us: event.u64_of("start_us")?,
            dur_us: event.u64_of("dur_us")?,
        }),
        "counter" => Ok(Event::Counter {
            name: event.str_of("name")?,
            value: event.u64_of("value")?,
            thread: event.str_of("thread")?,
        }),
        "metric" => Ok(Event::Metric {
            name: event.str_of("name")?,
            value: event.f64_of("value")?,
            thread: event.str_of("thread")?,
        }),
        other => Err(format!("unknown event type `{other}`")),
    }
}

/// Parses a whole JSON-lines trace (blank lines ignored).
///
/// # Errors
///
/// Returns the first malformed line as a [`ParseError`].
pub fn parse_trace(text: &str) -> Result<Vec<Event>, ParseError> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            parse_event(line).map_err(|message| ParseError {
                line: i + 1,
                message,
            })
        })
        .collect()
}

/// Aggregated timing of one stage (all spans sharing a name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSummary {
    /// Stage (span) name.
    pub name: String,
    /// Number of completed spans.
    pub count: u64,
    /// Σ span durations (µs); nested stages are counted in their parents
    /// too, so totals across stages can exceed the wall clock.
    pub total_us: u64,
    /// Σ self time (µs): duration minus the durations of direct child
    /// spans. Self times partition the trace, so `Σ self_us` over all
    /// stages equals the wall clock (modulo µs truncation and idle gaps).
    pub self_us: u64,
}

/// Latency distribution of one request-style stage — spans folded by
/// *duration* (what a client waits), unlike [`StageSummary`] whose self
/// times partition the trace. Folded for the stage names
/// [`is_latency_stage`] recognizes (the serve daemon's per-request
/// spans).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Stage (span) name, e.g. `serve.request`.
    pub name: String,
    /// Number of completed request spans.
    pub count: u64,
    /// Median span duration (µs), nearest-rank.
    pub p50_us: u64,
    /// 99th-percentile span duration (µs), nearest-rank.
    pub p99_us: u64,
    /// Sustained throughput: count over the active window (earliest span
    /// start to latest span end) in requests/second.
    pub rps: f64,
}

/// Whether a span name folds into a [`LatencySummary`] row. A closed
/// vocabulary, like the stage names themselves: today exactly the serve
/// daemon's per-request span.
pub fn is_latency_stage(name: &str) -> bool {
    name == "serve.request"
}

/// The folded per-stage view of one trace run.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Run label (`pr2` → `BENCH_pr2.json`).
    pub label: String,
    /// Wall clock of the traced run: latest span end − earliest span
    /// start (µs).
    pub wall_us: u64,
    /// Σ self time over every stage (µs). Equals `wall_us` for a serial
    /// run; exceeds it when workers overlap on multiple cores.
    pub work_us: u64,
    /// Stages, largest self time first.
    pub stages: Vec<StageSummary>,
    /// Request-latency rows ([`is_latency_stage`] names), by name.
    pub latencies: Vec<LatencySummary>,
    /// Counter sums by name.
    pub counters: BTreeMap<String, u64>,
    /// Metrics by name (last value wins).
    pub metrics: BTreeMap<String, f64>,
}

/// Thread-label prefix the annealing engine gives its replica workers.
/// Spans attributed to such a thread fold into a per-replica stage row
/// (`anneal@replica-3`) so the report shows how work split across the
/// replica fan-out.
pub const REPLICA_THREAD_PREFIX: &str = "replica-";

/// Whether a folded stage name is a per-replica breakdown row.
///
/// Replica rows come and go with the `--replicas` flag, so the
/// [`regressions`] gate never treats one missing from the baseline as a
/// regression.
pub fn is_replica_stage(name: &str) -> bool {
    name.split_once('@')
        .is_some_and(|(_, thread)| thread.starts_with(REPLICA_THREAD_PREFIX))
}

/// The stage key a span folds under: per-replica spans split out by their
/// thread label, everything else groups by plain span name.
fn stage_key(name: &str, thread: &str) -> String {
    if thread.starts_with(REPLICA_THREAD_PREFIX) {
        format!("{name}@{thread}")
    } else {
        name.to_owned()
    }
}

/// Folds parsed events into a [`PerfReport`].
pub fn fold(events: &[Event], label: &str) -> PerfReport {
    let mut child_dur: BTreeMap<u64, u64> = BTreeMap::new();
    let mut min_start = u64::MAX;
    let mut max_end = 0u64;
    for event in events {
        if let Event::Span {
            parent,
            start_us,
            dur_us,
            ..
        } = event
        {
            *child_dur.entry(*parent).or_default() += dur_us;
            min_start = min_start.min(*start_us);
            max_end = max_end.max(start_us + dur_us);
        }
    }

    let mut stages: BTreeMap<String, StageSummary> = BTreeMap::new();
    // Per latency stage: span durations plus the active window bounds.
    let mut request_durs: BTreeMap<String, (Vec<u64>, u64, u64)> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    let mut work_us = 0u64;
    for event in events {
        match event {
            Event::Span {
                id,
                name,
                thread,
                start_us,
                dur_us,
                ..
            } => {
                // Self time saturates at zero: a parent that merely waits
                // on faster cross-thread children can be "covered" by
                // them (multi-core overlap).
                let self_us = dur_us.saturating_sub(child_dur.get(id).copied().unwrap_or(0));
                work_us += self_us;
                // Each span lands in exactly one stage row (replica-thread
                // spans in their per-replica row), so self times still
                // partition the trace and `work_us` telescopes unchanged.
                let key = stage_key(name, thread);
                let entry = stages.entry(key.clone()).or_insert_with(|| StageSummary {
                    name: key.clone(),
                    count: 0,
                    total_us: 0,
                    self_us: 0,
                });
                entry.count += 1;
                entry.total_us += dur_us;
                entry.self_us += self_us;
                if is_latency_stage(name) {
                    let (durs, win_start, win_end) = request_durs
                        .entry(name.clone())
                        .or_insert_with(|| (Vec::new(), u64::MAX, 0));
                    durs.push(*dur_us);
                    *win_start = (*win_start).min(*start_us);
                    *win_end = (*win_end).max(start_us + dur_us);
                }
            }
            Event::Counter { name, value, .. } => {
                *counters.entry(name.clone()).or_default() += value;
            }
            Event::Metric { name, value, .. } => {
                metrics.insert(name.clone(), *value);
            }
        }
    }
    let mut stages: Vec<StageSummary> = stages.into_values().collect();
    stages.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.name.cmp(&b.name)));
    let latencies = request_durs
        .into_iter()
        .map(|(name, (mut durs, win_start, win_end))| {
            durs.sort_unstable();
            let count = durs.len() as u64;
            let window_us = win_end.saturating_sub(win_start);
            LatencySummary {
                name,
                count,
                p50_us: percentile(&durs, 0.50),
                p99_us: percentile(&durs, 0.99),
                rps: if window_us > 0 {
                    count as f64 * 1e6 / window_us as f64
                } else {
                    0.0
                },
            }
        })
        .collect();
    PerfReport {
        label: label.to_owned(),
        wall_us: max_end.saturating_sub(if min_start == u64::MAX { 0 } else { min_start }),
        work_us,
        stages,
        latencies,
        counters,
        metrics,
    }
}

/// Nearest-rank percentile over an ascending-sorted slice; 0 when empty.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The body lines of one pretty-printed JSON array or object.
fn rows(items: impl ExactSizeIterator<Item = String>) -> String {
    let last = items.len().saturating_sub(1);
    items
        .enumerate()
        .map(|(i, item)| format!("    {item}{}\n", if i < last { "," } else { "" }))
        .collect()
}

impl PerfReport {
    /// Parses and folds a JSON-lines trace in one step.
    ///
    /// # Errors
    ///
    /// Propagates the first malformed line as a [`ParseError`].
    pub fn from_trace(text: &str, label: &str) -> Result<PerfReport, ParseError> {
        Ok(fold(&parse_trace(text)?, label))
    }

    /// Reads back a report serialized by [`PerfReport::to_json`] — the
    /// committed `BENCH_baseline.json` the CI regression gate diffs
    /// against. Tolerates unknown keys and arbitrary key order.
    ///
    /// # Errors
    ///
    /// Returns the structural or schema problem as a message.
    pub fn from_json(text: &str) -> Result<PerfReport, String> {
        let root = parse_json(text)?;
        let stages = root
            .items("stages")?
            .ok_or("missing field `stages`")?
            .iter()
            .map(|item| {
                Ok(StageSummary {
                    name: item.str_of("name")?,
                    count: item.u64_of("count")?,
                    total_us: item.u64_of("total_us")?,
                    self_us: item.u64_of("self_us")?,
                })
            })
            .collect::<Result<_, String>>()?;
        // Optional: baselines predating serve-mode carry no latency rows.
        let latencies = root
            .items("latencies")?
            .unwrap_or_default()
            .iter()
            .map(|item| {
                let rps = item.f64_of("rps")?;
                if rps < 0.0 {
                    return Err("field `rps` must be a non-negative number".to_owned());
                }
                Ok(LatencySummary {
                    name: item.str_of("name")?,
                    count: item.u64_of("count")?,
                    p50_us: item.u64_of("p50_us")?,
                    p99_us: item.u64_of("p99_us")?,
                    rps,
                })
            })
            .collect::<Result<_, String>>()?;
        let counters = root
            .entries("counters")?
            .iter()
            .map(|(name, value)| match value {
                Json::Num(n) if *n >= 0.0 => Ok((name.clone(), *n as u64)),
                _ => Err(format!("counter `{name}` must be a non-negative number")),
            })
            .collect::<Result<_, String>>()?;
        let metrics = root
            .entries("metrics")?
            .iter()
            .map(|(name, value)| match value {
                Json::Num(n) => Ok((name.clone(), *n)),
                _ => Err(format!("metric `{name}` must be a number")),
            })
            .collect::<Result<_, String>>()?;
        Ok(PerfReport {
            label: root.str_of("label")?,
            wall_us: root.u64_of("wall_us")?,
            work_us: root.u64_of("work_us")?,
            stages,
            latencies,
            counters,
            metrics,
        })
    }

    /// Serializes the report as pretty-printed JSON — the
    /// `BENCH_<label>.json` artifact CI diffs across PRs.
    pub fn to_json(&self) -> String {
        let stages = rows(self.stages.iter().map(|s| {
            format!(
                "{{\"name\": {}, \"count\": {}, \"total_us\": {}, \"self_us\": {}}}",
                quoted(&s.name),
                s.count,
                s.total_us,
                s.self_us
            )
        }));
        let latencies = rows(self.latencies.iter().map(|l| {
            format!(
                "{{\"name\": {}, \"count\": {}, \"p50_us\": {}, \"p99_us\": {}, \"rps\": {}}}",
                quoted(&l.name),
                l.count,
                l.p50_us,
                l.p99_us,
                format_f64(l.rps)
            )
        }));
        let counters = rows(
            self.counters
                .iter()
                .map(|(name, value)| format!("{}: {value}", quoted(name))),
        );
        let metrics = rows(
            self.metrics
                .iter()
                .map(|(name, value)| format!("{}: {}", quoted(name), format_f64(*value))),
        );
        format!(
            "{{\n  \"label\": {},\n  \"wall_us\": {},\n  \"work_us\": {},\n  \
             \"stages\": [\n{stages}  ],\n  \"latencies\": [\n{latencies}  ],\n  \
             \"counters\": {{\n{counters}  }},\n  \"metrics\": {{\n{metrics}  }}\n}}",
            quoted(&self.label),
            self.wall_us,
            self.work_us,
        )
    }

    /// Merges another folded run into this report, as if the two runs had
    /// executed back to back: stage counts and times add, counters sum,
    /// wall and work clocks accumulate, and metrics take the other run's
    /// value (last wins, matching [`fold`]). This is how `perf-report`
    /// combines several trace files — span IDs restart per process, so
    /// traces must be folded separately and merged, never concatenated.
    pub fn merge(&mut self, other: &PerfReport) {
        self.wall_us += other.wall_us;
        self.work_us += other.work_us;
        for s in &other.stages {
            match self.stages.iter_mut().find(|mine| mine.name == s.name) {
                Some(mine) => {
                    mine.count += s.count;
                    mine.total_us += s.total_us;
                    mine.self_us += s.self_us;
                }
                None => self.stages.push(s.clone()),
            }
        }
        self.stages
            .sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.name.cmp(&b.name)));
        for l in &other.latencies {
            match self.latencies.iter_mut().find(|mine| mine.name == l.name) {
                Some(mine) => {
                    // Back-to-back semantics: percentiles take the worse
                    // run (conservative — the gate sees the slower tail),
                    // throughput re-derives from the combined count over
                    // the combined active window.
                    let window = |l: &LatencySummary| {
                        if l.rps > 0.0 {
                            l.count as f64 / l.rps
                        } else {
                            0.0
                        }
                    };
                    let total_window = window(mine) + window(l);
                    mine.rps = if total_window > 0.0 {
                        (mine.count + l.count) as f64 / total_window
                    } else {
                        0.0
                    };
                    mine.count += l.count;
                    mine.p50_us = mine.p50_us.max(l.p50_us);
                    mine.p99_us = mine.p99_us.max(l.p99_us);
                }
                None => self.latencies.push(l.clone()),
            }
        }
        self.latencies.sort_by(|a, b| a.name.cmp(&b.name));
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_default() += value;
        }
        for (name, value) in &other.metrics {
            self.metrics.insert(name.clone(), *value);
        }
    }

    /// A terminal-friendly stage table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf report `{}`: wall {} µs, work {} µs",
            self.label, self.wall_us, self.work_us
        );
        let _ = writeln!(
            out,
            "{:<28} {:>7} {:>12} {:>12} {:>7}",
            "stage", "count", "total µs", "self µs", "self %"
        );
        for s in &self.stages {
            let share = if self.wall_us > 0 {
                s.self_us as f64 / self.wall_us as f64 * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<28} {:>7} {:>12} {:>12} {share:>6.1}%",
                s.name, s.count, s.total_us, s.self_us
            );
        }
        if !self.latencies.is_empty() {
            let _ = writeln!(out, "latency:");
            for l in &self.latencies {
                let _ = writeln!(
                    out,
                    "  {:<28} count {:>5}  p50 {:>8} µs  p99 {:>8} µs  {:>7.1} req/s",
                    l.name, l.count, l.p50_us, l.p99_us, l.rps
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<30} {value}");
            }
        }
        if !self.metrics.is_empty() {
            let _ = writeln!(out, "metrics:");
            for (name, value) in &self.metrics {
                let _ = writeln!(out, "  {name:<30} {value}");
            }
        }
        out
    }
}

/// One stage whose self time grew past the allowed envelope — the unit the
/// CI trace-regression gate reports and fails on.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRegression {
    /// Stage (span) name.
    pub name: String,
    /// Baseline Σ self time (µs); `0` for a stage new since the baseline.
    pub baseline_self_us: u64,
    /// Current Σ self time (µs).
    pub current_self_us: u64,
    /// Fractional growth over baseline (`0.5` = +50%); infinite for a
    /// stage the baseline never saw.
    pub growth: f64,
}

impl std::fmt::Display for StageRegression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.baseline_self_us == 0 {
            write!(
                f,
                "{}: self {} µs, new since baseline",
                self.name, self.current_self_us
            )
        } else {
            write!(
                f,
                "{}: self {} µs vs baseline {} µs (+{:.0}%)",
                self.name,
                self.current_self_us,
                self.baseline_self_us,
                self.growth * 100.0
            )
        }
    }
}

/// Compares per-stage self times against a baseline run. A stage regresses
/// when its self time exceeds the baseline's by more than `max_increase`
/// (fractional: `0.3` = +30%) — or appears with no baseline entry at all —
/// AND its current self time is at least `noise_floor_us`. The floor keeps
/// sub-millisecond stages, whose timings are scheduling noise, from
/// tripping the gate. Per-replica breakdown rows ([`is_replica_stage`])
/// are exempt from the new-since-baseline rule: runs with different
/// `--replicas` settings legitimately produce different row sets, and a
/// replica-count mismatch is not a performance regression (a replica row
/// the baseline *does* carry is still held to the growth envelope).
///
/// Latency rows are gated alongside: each percentile of a
/// [`LatencySummary`] the baseline also carries is held to the same
/// growth envelope and noise floor, surfacing as a `name:p50` /
/// `name:p99` pseudo-stage. A latency row missing from the baseline is
/// exempt, like replica rows — serve workloads come and go with the
/// benchmark script.
///
/// Regressions come back worst growth first.
pub fn regressions(
    current: &PerfReport,
    baseline: &PerfReport,
    max_increase: f64,
    noise_floor_us: u64,
) -> Vec<StageRegression> {
    let mut found: Vec<StageRegression> = current
        .stages
        .iter()
        .filter(|stage| stage.self_us >= noise_floor_us.max(1))
        .filter_map(|stage| {
            let base = baseline
                .stages
                .iter()
                .find(|b| b.name == stage.name)
                .map(|b| b.self_us)
                .unwrap_or(0);
            let (regressed, growth) = if base == 0 {
                (!is_replica_stage(&stage.name), f64::INFINITY)
            } else {
                let growth = stage.self_us as f64 / base as f64 - 1.0;
                (growth > max_increase, growth)
            };
            regressed.then(|| StageRegression {
                name: stage.name.clone(),
                baseline_self_us: base,
                current_self_us: stage.self_us,
                growth,
            })
        })
        .collect();
    for l in &current.latencies {
        let Some(base) = baseline.latencies.iter().find(|b| b.name == l.name) else {
            continue; // new workload: nothing to gate against
        };
        for (tag, current_us, baseline_us) in [
            ("p50", l.p50_us, base.p50_us),
            ("p99", l.p99_us, base.p99_us),
        ] {
            if current_us < noise_floor_us.max(1) || baseline_us == 0 {
                continue;
            }
            let growth = current_us as f64 / baseline_us as f64 - 1.0;
            if growth > max_increase {
                found.push(StageRegression {
                    name: format!("{}:{tag}", l.name),
                    baseline_self_us: baseline_us,
                    current_self_us: current_us,
                    growth,
                });
            }
        }
    }
    found.sort_by(|a, b| {
        b.growth
            .partial_cmp(&a.growth)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.name.cmp(&b.name))
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank_edges() {
        // Empty input: 0 by convention (no latency rows to rank).
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[], 1.0), 0);
        // Single element: every quantile is that element.
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[42], q), 42);
        }
        // q = 1.0 is the maximum, q -> 0 clamps to the minimum.
        let sorted = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&sorted, 1.0), 50);
        assert_eq!(percentile(&sorted, 0.0), 10);
        // Nearest rank: ceil(0.5 * 5) = 3rd element.
        assert_eq!(percentile(&sorted, 0.5), 30);
        // Even length: p50 is the lower of the middle pair (rank 2 of 4).
        assert_eq!(percentile(&[10, 20, 30, 40], 0.5), 20);
        // Ties: rank lands inside a run of equal values.
        assert_eq!(percentile(&[1, 7, 7, 7, 9], 0.5), 7);
        assert_eq!(percentile(&[7, 7, 7, 7], 0.99), 7);
    }

    #[test]
    fn percentile_matches_sort_and_index_oracle() {
        // Property: for seeded random inputs, p50/p99 agree with a naive
        // integer-arithmetic nearest-rank oracle (rank = ceil(q·n) via
        // div_ceil, no floating point) — pins the f64 rank computation
        // against off-by-one drift if percentile() is ever optimized.
        fn oracle(sorted: &[u64], num: usize, den: usize) -> u64 {
            let rank = (sorted.len() * num).div_ceil(den).clamp(1, sorted.len());
            sorted[rank - 1]
        }
        // SplitMix64: deterministic, dependency-free.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for round in 0..200 {
            let len = (next() % 257 + 1) as usize;
            // Small value range so ties are common.
            let mut values: Vec<u64> = (0..len).map(|_| next() % 17).collect();
            values.sort_unstable();
            assert_eq!(
                percentile(&values, 0.5),
                oracle(&values, 1, 2),
                "p50 diverged at round {round}, len {len}"
            );
            assert_eq!(
                percentile(&values, 0.99),
                oracle(&values, 99, 100),
                "p99 diverged at round {round}, len {len}"
            );
        }
    }

    fn span(id: u64, parent: u64, name: &str, start_us: u64, dur_us: u64) -> Event {
        Event::Span {
            id,
            parent,
            name: name.to_owned(),
            detail: String::new(),
            thread: "main".to_owned(),
            start_us,
            dur_us,
        }
    }

    #[test]
    fn events_roundtrip_through_json_lines() {
        let events = vec![
            span(2, 1, "inner \"quoted\"", 5, 10),
            Event::Counter {
                name: "c".to_owned(),
                value: 42,
                thread: "worker-1".to_owned(),
            },
            Event::Metric {
                name: "m".to_owned(),
                value: -1.25,
                thread: "main".to_owned(),
            },
        ];
        for event in events {
            let line = event.to_json_line();
            let parsed = parse_event(&line).expect("parses");
            assert_eq!(parsed, event, "line: {line}");
        }
    }

    #[test]
    fn parser_tolerates_key_reordering_and_unknown_keys() {
        let line = "{\"value\":3,\"future_key\":\"x\",\"thread\":\"t\",\
                    \"name\":\"c\",\"type\":\"counter\"}";
        let event = parse_event(line).expect("parses");
        assert_eq!(
            event,
            Event::Counter {
                name: "c".to_owned(),
                value: 3,
                thread: "t".to_owned(),
            }
        );
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "not json",
            "{\"type\":\"span\"}",
            "{\"type\":\"mystery\",\"name\":\"x\",\"thread\":\"t\"}",
            "{\"type\":\"counter\",\"name\":\"c\",\"value\":\"NaN\",\"thread\":\"t\"}",
            "{\"type\":\"counter\",\"name\":\"c\",\"value\":1,\"thread\":\"t\"} trailing",
        ] {
            assert!(parse_event(bad).is_err(), "accepted: {bad}");
        }
        let err = parse_trace(
            "{\"type\":\"counter\",\"name\":\"c\",\"value\":1,\"thread\":\"t\"}\nbroken",
        )
        .unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn merge_combines_runs_as_if_back_to_back() {
        // Two runs with overlapping span IDs (each process restarts its
        // counter at 1) — merging folded reports must not cross-wire them.
        let a = fold(
            &[
                span(1, 0, "root", 0, 100),
                span(2, 1, "anneal", 10, 60),
                Event::Counter {
                    name: "anneal.evals_delta".to_owned(),
                    value: 40,
                    thread: "main".to_owned(),
                },
            ],
            "t",
        );
        let b = fold(
            &[
                span(1, 0, "root", 0, 50),
                span(2, 1, "estimate", 5, 20),
                Event::Counter {
                    name: "anneal.evals_delta".to_owned(),
                    value: 2,
                    thread: "main".to_owned(),
                },
                Event::Metric {
                    name: "m".to_owned(),
                    value: 7.5,
                    thread: "main".to_owned(),
                },
            ],
            "t",
        );
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.wall_us, a.wall_us + b.wall_us);
        assert_eq!(merged.work_us, a.work_us + b.work_us);
        let root = merged.stages.iter().find(|s| s.name == "root").unwrap();
        assert_eq!((root.count, root.total_us), (2, 150));
        assert!(merged.stages.iter().any(|s| s.name == "anneal"));
        assert!(merged.stages.iter().any(|s| s.name == "estimate"));
        assert_eq!(merged.counters["anneal.evals_delta"], 42);
        assert_eq!(merged.metrics["m"], 7.5);
        // Largest self time still leads after the merge.
        for w in merged.stages.windows(2) {
            assert!(w[0].self_us >= w[1].self_us);
        }
    }

    #[test]
    fn fold_partitions_self_time_under_nesting() {
        // root (0..100) > a (10..40, dur 30) + b (50..90, dur 40).
        let events = vec![
            span(2, 1, "a", 10, 30),
            span(3, 1, "b", 50, 40),
            span(1, 0, "root", 0, 100),
        ];
        let report = fold(&events, "t");
        assert_eq!(report.wall_us, 100);
        assert_eq!(report.work_us, 100, "self times partition the wall clock");
        let root = report.stages.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(root.total_us, 100);
        assert_eq!(root.self_us, 30);
        let a = report.stages.iter().find(|s| s.name == "a").unwrap();
        assert_eq!((a.count, a.total_us, a.self_us), (1, 30, 30));
    }

    #[test]
    fn fold_aggregates_counters_and_keeps_last_metric() {
        let events = vec![
            Event::Counter {
                name: "hits".to_owned(),
                value: 2,
                thread: "a".to_owned(),
            },
            Event::Counter {
                name: "hits".to_owned(),
                value: 5,
                thread: "b".to_owned(),
            },
            Event::Metric {
                name: "temp".to_owned(),
                value: 10.0,
                thread: "a".to_owned(),
            },
            Event::Metric {
                name: "temp".to_owned(),
                value: 0.5,
                thread: "a".to_owned(),
            },
        ];
        let report = fold(&events, "t");
        assert_eq!(report.counters.get("hits"), Some(&7));
        assert_eq!(report.metrics.get("temp"), Some(&0.5));
    }

    #[test]
    fn report_json_is_parseable_by_the_flat_parser() {
        // Not a full JSON validator, but every leaf object in the report
        // uses the same conventions; spot-check the stage lines.
        let events = vec![span(1, 0, "root", 0, 10)];
        let mut report = fold(&events, "pr2");
        report.counters.insert("c".to_owned(), 3);
        report.metrics.insert("m".to_owned(), 1.5);
        let json = report.to_json();
        assert!(json.contains("\"label\": \"pr2\""));
        assert!(json.contains("\"wall_us\": 10"));
        assert!(
            json.contains("{\"name\": \"root\", \"count\": 1, \"total_us\": 10, \"self_us\": 10}")
        );
        assert!(json.contains("\"c\": 3"));
        assert!(json.contains("\"m\": 1.5"));
        let rendered = report.render();
        assert!(rendered.contains("root"));
    }

    #[test]
    fn report_json_roundtrips_through_from_json() {
        let events = vec![
            span(2, 1, "anneal", 10, 60),
            span(1, 0, "root", 0, 100),
            Event::Counter {
                name: "netlist.resolve.misses".to_owned(),
                value: 7,
                thread: "main".to_owned(),
            },
            Event::Metric {
                name: "temp".to_owned(),
                value: 0.5,
                thread: "main".to_owned(),
            },
        ];
        let report = fold(&events, "pr4");
        let back = PerfReport::from_json(&report.to_json()).expect("parses own output");
        assert_eq!(back, report);
    }

    #[test]
    fn parse_event_rejects_nested_values() {
        for nested in [
            "{\"type\":\"counter\",\"name\":\"c\",\"value\":1,\"thread\":\"t\",\"extra\":[1]}",
            "{\"type\":\"counter\",\"name\":\"c\",\"value\":{\"n\":1},\"thread\":\"t\"}",
            "[{\"type\":\"counter\",\"name\":\"c\",\"value\":1,\"thread\":\"t\"}]",
        ] {
            assert!(parse_event(nested).is_err(), "accepted: {nested}");
        }
    }

    #[test]
    fn report_strings_are_escaped_and_round_trip() {
        let mut report = fold(&[span(1, 0, "stage \"q\"\u{1}", 0, 10)], "a\"b\u{1}");
        report.counters.insert("c\"\n".to_owned(), 3);
        report.metrics.insert("m\\".to_owned(), 1.5);
        report.latencies.push(LatencySummary {
            name: "serve.request:\"x\"".to_owned(),
            count: 1,
            p50_us: 2,
            p99_us: 3,
            rps: 4.0,
        });
        let json = report.to_json();
        assert!(json.contains("\"label\": \"a\\\"b\\u0001\""), "{json}");
        let back = PerfReport::from_json(&json).expect("parses own output");
        assert_eq!(back, report);
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"label\":\"x\",\"wall_us\":1,\"work_us\":1,\"stages\":{},\
             \"counters\":{},\"metrics\":{}}",
            "{\"label\":\"x\",\"wall_us\":1,\"work_us\":1,\
             \"stages\":[{\"name\":\"s\",\"count\":1,\"total_us\":1}],\
             \"counters\":{},\"metrics\":{}}",
        ] {
            assert!(PerfReport::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    fn report_with(stages: &[(&str, u64)]) -> PerfReport {
        PerfReport {
            label: "t".to_owned(),
            wall_us: 0,
            work_us: 0,
            stages: stages
                .iter()
                .map(|(name, self_us)| StageSummary {
                    name: (*name).to_owned(),
                    count: 1,
                    total_us: *self_us,
                    self_us: *self_us,
                })
                .collect(),
            latencies: Vec::new(),
            counters: BTreeMap::new(),
            metrics: BTreeMap::new(),
        }
    }

    fn request_span(id: u64, start_us: u64, dur_us: u64) -> Event {
        Event::Span {
            id,
            parent: 1,
            name: "serve.request".to_owned(),
            detail: format!("r{id} estimate"),
            thread: "main".to_owned(),
            start_us,
            dur_us,
        }
    }

    #[test]
    fn latency_rows_fold_percentiles_and_throughput() {
        // 10 requests over a 1-second window: 9 fast, one slow tail.
        let mut events: Vec<Event> = (0..9)
            .map(|i| request_span(i + 2, i * 100_000, 1_000))
            .collect();
        events.push(request_span(11, 900_000, 100_000));
        events.push(span(1, 0, "serve.session", 0, 1_000_000));
        let report = fold(&events, "t");
        assert_eq!(report.latencies.len(), 1);
        let l = &report.latencies[0];
        assert_eq!(l.name, "serve.request");
        assert_eq!(l.count, 10);
        assert_eq!(l.p50_us, 1_000);
        assert_eq!(l.p99_us, 100_000, "nearest-rank p99 of 10 is the max");
        // Window: first start 0, last end 1_000_000 → 10 req/s.
        assert!((l.rps - 10.0).abs() < 1e-9, "rps {}", l.rps);
        // Latency rows ride along on top of normal stage folding.
        let stage = report
            .stages
            .iter()
            .find(|s| s.name == "serve.request")
            .unwrap();
        assert_eq!(stage.count, 10);
        let rendered = report.render();
        assert!(rendered.contains("latency:"), "{rendered}");
        assert!(rendered.contains("serve.request"), "{rendered}");
    }

    #[test]
    fn latency_rows_roundtrip_and_merge() {
        let events = vec![
            request_span(2, 0, 2_000),
            request_span(3, 2_000, 4_000),
            span(1, 0, "serve.session", 0, 6_000),
        ];
        let report = fold(&events, "t");
        let back = PerfReport::from_json(&report.to_json()).expect("parses own output");
        assert_eq!(back, report);
        // Old baselines carry no `latencies` field at all.
        let legacy = "{\"label\":\"x\",\"wall_us\":1,\"work_us\":1,\
                      \"stages\":[],\"counters\":{},\"metrics\":{}}";
        let parsed = PerfReport::from_json(legacy).expect("legacy schema parses");
        assert!(parsed.latencies.is_empty());
        // Merge: counts add, percentiles take the worse run, throughput
        // re-derives over the combined window.
        let mut merged = report.clone();
        merged.merge(&report);
        assert_eq!(merged.latencies.len(), 1);
        let l = &merged.latencies[0];
        assert_eq!(l.count, 4);
        assert_eq!(l.p50_us, report.latencies[0].p50_us);
        assert_eq!(l.p99_us, report.latencies[0].p99_us);
        assert!(
            (l.rps - report.latencies[0].rps).abs() < 1e-6,
            "rps {}",
            l.rps
        );
    }

    fn with_latency(mut report: PerfReport, p50_us: u64, p99_us: u64) -> PerfReport {
        report.latencies.push(LatencySummary {
            name: "serve.request".to_owned(),
            count: 100,
            p50_us,
            p99_us,
            rps: 50.0,
        });
        report
    }

    #[test]
    fn regression_gate_holds_latency_percentiles_to_the_envelope() {
        let baseline = with_latency(report_with(&[]), 40_000, 80_000);
        // p50 +10% (inside), p99 +50% (outside a 30% envelope).
        let current = with_latency(report_with(&[]), 44_000, 120_000);
        let found = regressions(&current, &baseline, 0.3, 25_000);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].name, "serve.request:p99");
        assert!((found[0].growth - 0.5).abs() < 1e-9);
        // Under the noise floor the same growth is ignored.
        let quiet_base = with_latency(report_with(&[]), 400, 800);
        let quiet_cur = with_latency(report_with(&[]), 440, 1_200);
        assert!(regressions(&quiet_cur, &quiet_base, 0.3, 25_000).is_empty());
        // A latency row the baseline never saw is exempt, like replicas.
        assert!(regressions(&current, &report_with(&[]), 0.3, 25_000).is_empty());
        // Self-comparison always passes.
        assert!(regressions(&current, &current, 0.0, 0).is_empty());
    }

    #[test]
    fn regression_gate_flags_growth_beyond_envelope_and_floor() {
        let baseline = report_with(&[("anneal", 100_000), ("route", 40_000), ("tiny", 10)]);
        let current = report_with(&[
            ("anneal", 140_000), // +40% over a 30% envelope: regressed
            ("route", 50_000),   // +25%: inside the envelope
            ("tiny", 900),       // +8900% but under the noise floor
        ]);
        let found = regressions(&current, &baseline, 0.3, 25_000);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].name, "anneal");
        assert_eq!(found[0].baseline_self_us, 100_000);
        assert_eq!(found[0].current_self_us, 140_000);
        assert!((found[0].growth - 0.4).abs() < 1e-9);
        assert!(found[0].to_string().contains("anneal"));
    }

    #[test]
    fn regression_gate_flags_new_heavy_stages_worst_first() {
        let baseline = report_with(&[("anneal", 100_000)]);
        let current = report_with(&[("anneal", 200_000), ("surprise", 30_000)]);
        let found = regressions(&current, &baseline, 0.3, 25_000);
        let names: Vec<&str> = found.iter().map(|r| r.name.as_str()).collect();
        // The unbounded (new-stage) growth sorts ahead of the +100%.
        assert_eq!(names, ["surprise", "anneal"]);
        assert!(found[0].growth.is_infinite());
        assert!(found[0].to_string().contains("new since baseline"));
    }

    #[test]
    fn regression_gate_passes_a_run_against_itself() {
        let report = report_with(&[("anneal", 100_000), ("route", 40_000)]);
        assert!(regressions(&report, &report, 0.3, 0).is_empty());
        assert!(regressions(&report, &report, 0.0, 0).is_empty());
    }

    fn replica_span(id: u64, parent: u64, name: &str, replica: u64, dur_us: u64) -> Event {
        Event::Span {
            id,
            parent,
            name: name.to_owned(),
            detail: String::new(),
            thread: format!("replica-{replica}"),
            start_us: 0,
            dur_us,
        }
    }

    #[test]
    fn replica_thread_spans_fold_into_per_replica_rows() {
        // Two replica threads, each running anneal.replica > anneal; the
        // set span stays on the main thread.
        let events = vec![
            replica_span(3, 2, "anneal", 0, 70),
            replica_span(2, 1, "anneal.replica", 0, 80),
            replica_span(5, 4, "anneal", 1, 60),
            replica_span(4, 1, "anneal.replica", 1, 75),
            span(1, 0, "anneal.replica_set", 0, 90),
        ];
        let report = fold(&events, "t");
        let names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
        for expected in [
            "anneal@replica-0",
            "anneal@replica-1",
            "anneal.replica@replica-0",
            "anneal.replica@replica-1",
            "anneal.replica_set",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
            assert_eq!(is_replica_stage(expected), expected != "anneal.replica_set",);
        }
        // Each span still lands in exactly one row: self times partition.
        let total_self: u64 = report.stages.iter().map(|s| s.self_us).sum();
        assert_eq!(total_self, report.work_us);
        let inner0 = report
            .stages
            .iter()
            .find(|s| s.name == "anneal@replica-0")
            .unwrap();
        assert_eq!((inner0.count, inner0.total_us, inner0.self_us), (1, 70, 70));
        // Roundtrip keeps the synthesized names intact.
        let back = PerfReport::from_json(&report.to_json()).expect("parses own output");
        assert_eq!(back, report);
    }

    #[test]
    fn regression_gate_ignores_replica_rows_missing_from_the_baseline() {
        // A baseline traced at --replicas 1 has no per-replica rows; a
        // current run at --replicas 4 must not fail the gate for them.
        let baseline = report_with(&[("anneal", 100_000)]);
        let current = report_with(&[
            ("anneal", 100_000),
            ("anneal@replica-0", 90_000),
            ("anneal@replica-1", 95_000),
        ]);
        assert!(regressions(&current, &baseline, 0.3, 25_000).is_empty());
        // But a replica row the baseline does carry is still gated.
        let tracked_baseline = report_with(&[("anneal", 100_000), ("anneal@replica-0", 50_000)]);
        let found = regressions(&current, &tracked_baseline, 0.3, 25_000);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].name, "anneal@replica-0");
        assert!((found[0].growth - 0.8).abs() < 1e-9);
    }

    #[test]
    fn multi_core_overlap_saturates_instead_of_underflowing() {
        // A parent whose cross-thread children sum past its duration.
        let events = vec![
            span(2, 1, "w", 0, 80),
            span(3, 1, "w", 0, 80),
            span(1, 0, "root", 0, 100),
        ];
        let report = fold(&events, "t");
        let root = report.stages.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(root.self_us, 0);
        let w = report.stages.iter().find(|s| s.name == "w").unwrap();
        assert_eq!(w.self_us, 160);
    }
}
