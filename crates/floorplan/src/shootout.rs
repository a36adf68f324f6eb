//! The cross-backend shootout: every registered [`FloorplanBackend`]
//! over a fixed case suite, with a CI quality gate.
//!
//! `maestro-cli shootout` runs [`paper_cases`] (the Table 1+2 blocks
//! plus generated chips) through [`ShootoutReport::run`] and writes
//! `SHOOTOUT_<label>.json`. Against a committed `SHOOTOUT_baseline.json`,
//! [`regressions`] fails any backend whose area or wirelength grew more
//! than the allowed fraction on any case — the quality analogue of the
//! `perf-report --baseline` trace gate. Wall time is *recorded* per run
//! but never gated: quality metrics are deterministic across machines,
//! timing is not.

use std::fmt::Write as _;
use std::time::Instant;

use maestro_estimator::pipeline::Pipeline;
use maestro_geom::LambdaArea;
use maestro_netlist::{generate, library_circuits, Module};
use serde::{Deserialize, Serialize};

use crate::backend::FloorplanBackend;
use crate::connectivity::ChipNetlist;
use crate::Block;

/// One shootout workload: named blocks plus their global connectivity.
#[derive(Debug, Clone, PartialEq)]
pub struct ShootoutCase {
    /// Case name, stable across runs (it keys the baseline diff).
    pub name: String,
    /// The blocks to floorplan.
    pub blocks: Vec<Block>,
    /// Global nets over the blocks (may be empty).
    pub netlist: ChipNetlist,
}

/// One backend's measured result on one case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendResult {
    /// Backend registry name.
    pub backend: String,
    /// Chip area in λ².
    pub area: i64,
    /// Chip width in λ.
    pub width: i64,
    /// Chip height in λ.
    pub height: i64,
    /// Normalized chip aspect ratio (long side ÷ short side).
    pub aspect: f64,
    /// Global HPWL over the case netlist, in λ.
    pub wirelength: i64,
    /// Σ placed block areas ÷ chip area.
    pub utilization: f64,
    /// Wall time of the backend run in µs (recorded, never gated).
    pub wall_us: u64,
    /// The backend's own work counters.
    pub counters: Vec<(String, u64)>,
}

/// One case's results across every backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseReport {
    /// Case name.
    pub name: String,
    /// Block count.
    pub blocks: usize,
    /// Global net count.
    pub nets: usize,
    /// Per-backend results, in registry order.
    pub results: Vec<BackendResult>,
}

/// The full shootout report, serialized as `SHOOTOUT_<label>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShootoutReport {
    /// Run label (CLI `--label`).
    pub label: String,
    /// Per-case results.
    pub cases: Vec<CaseReport>,
}

impl ShootoutReport {
    /// Runs every backend over every case, measuring quality and wall
    /// time per run under a `floorplan.shootout` trace span.
    pub fn run(
        label: impl Into<String>,
        cases: &[ShootoutCase],
        backends: &[Box<dyn FloorplanBackend>],
    ) -> ShootoutReport {
        let _span = maestro_trace::span_with("floorplan.shootout", || {
            format!("cases={} backends={}", cases.len(), backends.len())
        });
        let cases = cases
            .iter()
            .map(|case| {
                let results = backends
                    .iter()
                    .map(|backend| {
                        let start = Instant::now();
                        let run = backend.plan(&case.blocks, Some(&case.netlist));
                        let wall_us = start.elapsed().as_micros() as u64;
                        let plan = &run.plan;
                        let w = plan.width().as_f64();
                        let h = plan.height().as_f64();
                        BackendResult {
                            backend: backend.name().to_owned(),
                            area: plan.area().get(),
                            width: plan.width().get(),
                            height: plan.height().get(),
                            aspect: if w > 0.0 && h > 0.0 {
                                (w / h).max(h / w)
                            } else {
                                1.0
                            },
                            wirelength: case.netlist.wirelength(plan).get(),
                            utilization: plan.utilization(),
                            wall_us,
                            counters: run.counters,
                        }
                    })
                    .collect();
                CaseReport {
                    name: case.name.clone(),
                    blocks: case.blocks.len(),
                    nets: case.netlist.nets().len(),
                    results,
                }
            })
            .collect();
        ShootoutReport {
            label: label.into(),
            cases,
        }
    }

    /// Serializes the report to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("shootout report serializes")
    }

    /// Parses a report back from its JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse failure as a message.
    pub fn from_json(text: &str) -> Result<ShootoutReport, String> {
        serde_json::from_str(text).map_err(|e| format!("shootout report: {e}"))
    }

    /// Renders the human-readable comparison table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(out, "shootout `{}`", self.label).expect("string write");
        for case in &self.cases {
            writeln!(
                out,
                "\ncase {} ({} blocks, {} nets)",
                case.name, case.blocks, case.nets
            )
            .expect("string write");
            writeln!(
                out,
                "  {:<16} {:>12} {:>10} {:>8} {:>6} {:>10}",
                "backend", "area λ²", "wl λ", "aspect", "util", "wall"
            )
            .expect("string write");
            for r in &case.results {
                writeln!(
                    out,
                    "  {:<16} {:>12} {:>10} {:>8.2} {:>5.0}% {:>7} µs",
                    r.backend,
                    r.area,
                    r.wirelength,
                    r.aspect,
                    r.utilization * 100.0,
                    r.wall_us
                )
                .expect("string write");
            }
        }
        out
    }

    fn result(&self, case: &str, backend: &str) -> Option<&BackendResult> {
        self.cases
            .iter()
            .find(|c| c.name == case)
            .and_then(|c| c.results.iter().find(|r| r.backend == backend))
    }
}

/// Compares `current` against `baseline`: one finding per (case,
/// backend) whose area or wirelength grew more than `max_growth`
/// (a fraction, e.g. `0.05`), plus one per baseline entry missing from
/// the current run (a silently dropped backend must not pass the gate).
/// Entries new in `current` are exempt — that is how a new backend
/// lands before its first baseline refresh.
pub fn regressions(
    current: &ShootoutReport,
    baseline: &ShootoutReport,
    max_growth: f64,
) -> Vec<String> {
    let mut found = Vec::new();
    for case in &baseline.cases {
        for base in &case.results {
            let Some(cur) = current.result(&case.name, &base.backend) else {
                found.push(format!(
                    "{}/{}: present in baseline but missing from current run",
                    case.name, base.backend
                ));
                continue;
            };
            let mut check = |metric: &str, cur_v: i64, base_v: i64| {
                if base_v <= 0 {
                    return;
                }
                let growth = (cur_v - base_v) as f64 / base_v as f64;
                if growth > max_growth {
                    found.push(format!(
                        "{}/{}: {metric} {cur_v} vs baseline {base_v} (+{:.1}%, limit {:.1}%)",
                        case.name,
                        base.backend,
                        growth * 100.0,
                        max_growth * 100.0
                    ));
                }
            };
            check("area", cur.area, base.area);
            check("wirelength", cur.wirelength, base.wirelength);
        }
    }
    found
}

/// A chain netlist 0–1, 1–2, … plus one net spanning first and last
/// block: enough structure that wirelength differentiates orderings.
fn chain_netlist(n: usize) -> ChipNetlist {
    let mut netlist = ChipNetlist::new();
    for i in 1..n as u32 {
        netlist.add_net([i - 1, i]);
    }
    if n > 2 {
        netlist.add_net([0, n as u32 - 1]);
    }
    netlist
}

fn blocks_from_modules(pipeline: &Pipeline, modules: &[Module]) -> Result<Vec<Block>, String> {
    let db = pipeline.run_all(modules).map_err(|e| e.to_string())?;
    db.records()
        .iter()
        .map(|record| {
            Block::from_record(record, 5)
                .ok_or_else(|| format!("module `{}` yields no estimate", record.module_name))
        })
        .collect()
}

/// The standard shootout suite: the paper's Table 1 and Table 2 blocks
/// (shaped by the estimator, exactly the Figure 1 hand-off), their
/// union, a generated adder family, and a 24-block synthetic chip with
/// deterministic pseudo-random areas. Every case carries a chain
/// netlist so wirelength is a live metric.
///
/// # Errors
///
/// Estimation failures on the library modules (should not happen for
/// built-in technologies).
pub fn paper_cases() -> Result<Vec<ShootoutCase>, String> {
    let pipeline = Pipeline::new(maestro_tech::builtin::nmos25());
    let table1 = blocks_from_modules(&pipeline, &library_circuits::table1_suite())?;
    let table2 = blocks_from_modules(&pipeline, &library_circuits::table2_suite())?;
    let adders: Vec<Module> = (2..=5).map(generate::ripple_adder).collect();
    let adder_blocks = blocks_from_modules(&pipeline, &adders)?;
    let mut union = table1.clone();
    union.extend(table2.iter().cloned());

    // 24 soft blocks with areas from a SplitMix64 walk: a stand-in for a
    // generated chip an order of magnitude past paper scale, identical
    // on every machine.
    let mut state = 0x9e3779b97f4a7c15u64;
    let soft24: Vec<Block> = (0..24)
        .map(|i| {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^= z >> 31;
            Block::soft(format!("g{i}"), LambdaArea::new(800 + (z % 9200) as i64), 5)
        })
        .collect();

    let case = |name: &str, blocks: Vec<Block>| ShootoutCase {
        name: name.to_owned(),
        netlist: chain_netlist(blocks.len()),
        blocks,
    };
    Ok(vec![
        case("table1", table1),
        case("table2", table2),
        case("table1+2", union),
        case("gen-adders", adder_blocks),
        case("gen-soft24", soft24),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{registry, SpanningTree};
    use crate::PlanParams;

    fn tiny_cases() -> Vec<ShootoutCase> {
        let blocks: Vec<Block> = (0..4)
            .map(|i| Block::soft(format!("b{i}"), LambdaArea::new(1000 + 500 * i), 4))
            .collect();
        vec![ShootoutCase {
            name: "tiny".to_owned(),
            netlist: chain_netlist(blocks.len()),
            blocks,
        }]
    }

    #[test]
    fn report_round_trips_through_json() {
        let cases = tiny_cases();
        let report = ShootoutReport::run("t", &cases, &registry(&PlanParams::quick()));
        assert_eq!(report.cases.len(), 1);
        assert_eq!(report.cases[0].results.len(), 3);
        let back = ShootoutReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(back, report);
    }

    #[test]
    fn quality_metrics_are_deterministic_but_wall_time_is_free() {
        let cases = tiny_cases();
        let backends = registry(&PlanParams::quick());
        let a = ShootoutReport::run("t", &cases, &backends);
        let b = ShootoutReport::run("t", &cases, &backends);
        for (ra, rb) in a.cases[0].results.iter().zip(&b.cases[0].results) {
            assert_eq!(ra.area, rb.area, "{}", ra.backend);
            assert_eq!(ra.wirelength, rb.wirelength, "{}", ra.backend);
            assert_eq!(ra.counters, rb.counters, "{}", ra.backend);
        }
    }

    #[test]
    fn gate_fires_on_growth_and_on_missing_backends() {
        let cases = tiny_cases();
        let backends: Vec<Box<dyn FloorplanBackend>> = vec![Box::new(SpanningTree)];
        let baseline = ShootoutReport::run("base", &cases, &backends);
        // Identical run: clean.
        let current = ShootoutReport::run("cur", &cases, &backends);
        assert!(regressions(&current, &baseline, 0.05).is_empty());
        // Inflate current area beyond 5%.
        let mut worse = current.clone();
        worse.cases[0].results[0].area = baseline.cases[0].results[0].area * 2;
        let found = regressions(&worse, &baseline, 0.05);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("area"), "{found:?}");
        // Dropped backend: caught.
        let mut dropped = current.clone();
        dropped.cases[0].results.clear();
        let found = regressions(&dropped, &baseline, 0.05);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("missing"), "{found:?}");
        // A backend new in current is exempt.
        let mut extended = current.clone();
        let mut extra = extended.cases[0].results[0].clone();
        extra.backend = "brand-new".to_owned();
        extra.area *= 10;
        extended.cases[0].results.push(extra);
        assert!(regressions(&extended, &baseline, 0.05).is_empty());
    }

    #[test]
    fn paper_cases_cover_the_tables_and_generated_chips() {
        let cases = paper_cases().expect("suite builds");
        let names: Vec<&str> = cases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            ["table1", "table2", "table1+2", "gen-adders", "gen-soft24"]
        );
        let by_name = |n: &str| cases.iter().find(|c| c.name == n).unwrap();
        assert_eq!(by_name("table1").blocks.len(), 5);
        assert_eq!(by_name("table2").blocks.len(), 2);
        assert_eq!(by_name("table1+2").blocks.len(), 7);
        assert_eq!(by_name("gen-soft24").blocks.len(), 24);
        for case in &cases {
            assert!(
                case.blocks.len() < 3 || !case.netlist.nets().is_empty(),
                "{} has no nets",
                case.name
            );
        }
    }
}
