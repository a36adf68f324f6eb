//! The benchmark's vocabulary and its result line.
//!
//! `BENCHMARK.json` at the repository root lists the same workloads and
//! metrics; the harness tests hold the two in step.

use std::fmt::Write as _;

use maestro::estimator::request::Response;

/// Workload names, as passed to `--workload`.
pub const WORKLOADS: [&str; 2] = ["chip_stream", "serve_mixed"];

/// One metric: name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics of an untraced run (`--trace 0`), reported on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("devices_per_s", "devices/s", "higher"),
    m("ops_per_s", "1/s", "higher"),
    m("estimate_p50_ms", "ms", "lower"),
];

/// Metrics of a traced run (`--trace 1`), reported on every workload; a
/// layer that does no work in a workload reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("netlist.parse.busy_ms", "ms", "lower"),
    m("netlist.parse.mb_per_s", "MB/s", "higher"),
    m("netlist.split.busy_ms", "ms", "lower"),
    m("netlist.fingerprint.busy_ms", "ms", "lower"),
    m("netlist.fingerprint.calls", "count", "lower"),
    m("netlist.diff.busy_ms", "ms", "lower"),
    m("netlist.resolve.busy_ms", "ms", "lower"),
    m("netlist.resolve.hit_ratio", "ratio", "higher"),
    m("netlist.resolve.misses", "count", "lower"),
    m("netlist.resolve.evictions", "count", "lower"),
    m("estimator.prob.hit_ratio", "ratio", "higher"),
    m("estimator.standard_cell.busy_ms", "ms", "lower"),
    m("estimator.multi_aspect.busy_ms", "ms", "lower"),
    m("estimator.full_custom.busy_ms", "ms", "lower"),
    m("estimator.results.busy_ms", "ms", "lower"),
    m("estimator.results.hit_ratio", "ratio", "higher"),
    m("estimator.codec.decode_ms", "ms", "lower"),
    m("estimator.codec.encode_ms", "ms", "lower"),
    m("estimator.pipeline.parallel_gain", "ratio", "higher"),
    m("ops.render.busy_ms", "ms", "lower"),
    m("serve.handle.estimate_ms", "ms", "lower"),
    m("serve.handle.layout_ms", "ms", "lower"),
    m("serve.handle.floorplan_ms", "ms", "lower"),
    m("serve.transport_ms", "ms", "lower"),
    m("serve.parse_memo.hit_ratio", "ratio", "higher"),
    m("serve.tech_reuse", "count", "higher"),
    m("place.busy_ms", "ms", "lower"),
    m("route.busy_ms", "ms", "lower"),
    m("fullcustom.synthesize.busy_ms", "ms", "lower"),
    m("fullcustom.warm_seeds", "count", "higher"),
    m("floorplan.block.busy_ms", "ms", "lower"),
    m("floorplan.plan.busy_ms", "ms", "lower"),
    m("unattributed_ms", "ms", "lower"),
    m("trace_overhead_pct", "%", "lower"),
];

/// Attempted and failed operations of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations the run issued.
    pub attempted: u64,
    /// Operations that errored or whose output failed its check.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `passed`.
    pub fn record(&mut self, passed: bool) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
        }
    }
}

/// Judges one daemon response line against the payload the reference
/// path produced: an unparseable line, an error response and a payload
/// that differs from `expected` all fail.
pub fn response_passes(line: &str, expected: &str) -> bool {
    match Response::parse(line) {
        Ok(Response {
            result: Ok(payload),
            ..
        }) => payload == expected,
        _ => false,
    }
}

/// What one run prints as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every operation passed and every check held.
    pub correct: bool,
    /// Operation counts.
    pub tally: Tally,
    /// `(name, value)` in the order of the vocabulary.
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics` (each with its value and unit). A value
    /// that is not finite (a latency over failed operations) prints as
    /// `1e99`.
    pub fn to_json_line(&self, defs: &[MetricDef]) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.tally.attempted, self.tally.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = defs.iter().find(|d| d.name == *name).map_or("", |d| d.unit);
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "1e99".to_owned()
            };
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}
