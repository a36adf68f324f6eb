//! The traced run's in-process replay.
//!
//! [`Mirror`] replays the same inputs the binary received and calls each
//! layer's public functions in the order the program calls them: the
//! serve session's parse memo and dispatch, `Pipeline::run_module`'s
//! resolve → kernel → results-memo steps, the layout and floorplan
//! handlers and the `ops` renderers. Each call runs inside a
//! [`Recorder`] span, so every layer's self time is measured from the
//! outside without touching the program. The replay renders the same
//! bytes the binary answers with, and the traced run checks that.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use maestro::estimator::multi_aspect;
use maestro::estimator::prob::ProbTable;
use maestro::estimator::request::{Request, RequestCall, Response};
use maestro::estimator::results_cache::{params_digest, ResultsCache};
use maestro::estimator::standard_cell::{self, ScParams};
use maestro::estimator::{full_custom, EstimateRecord, Pipeline, ResultsDb};
use maestro::floorplan::{backend, Block, PlanParams};
use maestro::fullcustom::{synthesize, synthesize_seeded, SynthesisParams, WarmStore};
use maestro::netlist::{
    diff, mnl, LayoutStyle, Module, ModuleFingerprint, RevisionManifest, StatsCache,
};
use maestro::ops;
use maestro::place::{place, PlaceParams};
use maestro::route::route;
use maestro::tech::ProcessDb;

use crate::span::Recorder;

/// Root span of one operation (command, request or round).
pub const OP: &str = "op";
/// Span names of the serve handler, one per request kind.
const HANDLE_ESTIMATE: &str = "serve.handle.estimate";
const HANDLE_LAYOUT: &str = "serve.handle.layout";
const HANDLE_FLOORPLAN: &str = "serve.handle.floorplan";
/// An incremental estimate: in this benchmark, an ECO round.
pub const HANDLE_ECO: &str = "serve.handle.eco";
const HANDLE_OTHER: &str = "serve.handle.other";
/// Glue spans: their self time is what no layer row explains.
pub const GLUE: [&str; 6] = [
    OP,
    HANDLE_ESTIMATE,
    HANDLE_ECO,
    HANDLE_LAYOUT,
    HANDLE_FLOORPLAN,
    HANDLE_OTHER,
];

const PARSE: &str = "netlist.parse";
const SPLIT: &str = "netlist.split";
const FINGERPRINT: &str = "netlist.fingerprint";
const DIFF: &str = "netlist.diff";
const RESOLVE: &str = "netlist.resolve";
const STANDARD_CELL: &str = "estimator.standard_cell";
const MULTI_ASPECT: &str = "estimator.multi_aspect";
const FULL_CUSTOM: &str = "estimator.full_custom";
const RESULTS: &str = "estimator.results";
const DECODE: &str = "estimator.codec.decode";
const ENCODE: &str = "estimator.codec.encode";
const RENDER: &str = "ops.render";
const PLACE: &str = "place";
const ROUTE: &str = "route";
const SYNTHESIZE: &str = "fullcustom.synthesize";
const FP_BLOCK: &str = "floorplan.block";
const FP_PLAN: &str = "floorplan.plan";

/// The serve session's 128-bit chunk hash (the parse memo key). It is
/// private to `maestro::serve`, so the replay carries a copy to pay the
/// same memo cost the daemon does.
fn hash128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;
    let mut h = OFFSET ^ (bytes.len() as u128).wrapping_mul(PRIME);
    let mut words = bytes.chunks_exact(16);
    for word in &mut words {
        let word = u128::from_le_bytes(word.try_into().expect("exact chunk"));
        h = (h ^ word).wrapping_mul(PRIME);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 16];
        padded[..tail.len()].copy_from_slice(tail);
        h = (h ^ u128::from_le_bytes(padded)).wrapping_mul(PRIME);
    }
    (h ^ (h >> 64)).wrapping_mul(PRIME)
}

/// Counters the replay keeps besides its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Bytes of `.mnl` text the parser consumed.
    pub parsed_bytes: u64,
    /// Modules fingerprinted by the replay's own manifest and result-key
    /// calls. `StatsCache::resolve` fingerprints its key inside the
    /// call, so those are counted from the memo's lookups instead.
    pub fingerprints: u64,
}

/// The replay's copy of the program state one daemon session (or one
/// CLI process) keeps, over fresh caches.
pub struct Mirror<'r> {
    rec: &'r Recorder,
    tech: Arc<ProcessDb>,
    stats: Arc<StatsCache>,
    prob: Arc<ProbTable>,
    results: Arc<ResultsCache>,
    warm: WarmStore,
    prev: RevisionManifest,
    parsed: HashMap<u128, Arc<Module>>,
    /// What the replay counted.
    pub counts: Counts,
}

impl<'r> Mirror<'r> {
    /// A fresh session state recording into `rec`.
    pub fn new(rec: &'r Recorder) -> Mirror<'r> {
        Mirror {
            rec,
            tech: Arc::new(ops::load_tech(crate::inputs::TECH).expect("built-in tech")),
            stats: Arc::new(StatsCache::new()),
            prob: Arc::new(ProbTable::new()),
            results: Arc::new(ResultsCache::new()),
            warm: WarmStore::new(),
            prev: RevisionManifest::new(),
            parsed: HashMap::new(),
            counts: Counts::default(),
        }
    }

    /// The replay's resolve memo.
    pub fn stats_cache(&self) -> &StatsCache {
        &self.stats
    }

    /// The replay's Eq. 2–3 memo.
    pub fn prob_table(&self) -> &ProbTable {
        &self.prob
    }

    /// `maestro-cli estimate <file> --stream --json`: parse the whole
    /// file, then estimate and render each module in order. Returns the
    /// bytes the command writes to stdout.
    pub fn stream_chip(&mut self, source: &str) -> Result<Vec<u8>, String> {
        let modules = self
            .rec
            .time(PARSE, || mnl::parse_design(source))
            .map_err(|e| e.to_string())?;
        self.counts.parsed_bytes += source.len() as u64;
        let params = ScParams::default();
        let mut out = Vec::new();
        for module in modules {
            let record = self.estimate_module(&module, false, &params)?;
            let line = self
                .rec
                .time(RENDER, || serde_json::to_string(&record))
                .map_err(|e| e.to_string())?;
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        }
        Ok(out)
    }

    /// One request line through the daemon's path: decode, dispatch,
    /// encode. Returns the response line.
    pub fn serve_line(&mut self, line: &str) -> String {
        let response = match self.rec.time(DECODE, || Request::parse(line)) {
            Ok(request) => {
                let handle = match &request.call {
                    RequestCall::Estimate(req) if req.incremental => HANDLE_ECO,
                    RequestCall::Estimate(_) => HANDLE_ESTIMATE,
                    RequestCall::Layout(_) => HANDLE_LAYOUT,
                    RequestCall::Floorplan(_) => HANDLE_FLOORPLAN,
                    _ => HANDLE_OTHER,
                };
                match self.rec.time(handle, || self.dispatch(&request)) {
                    Ok(payload) => Response::ok(request.id.clone(), payload),
                    Err(message) => Response::error(request.id.clone(), message),
                }
            }
            Err(err) => Response::error(err.id.clone().unwrap_or_default(), err.to_string()),
        };
        self.rec.time(ENCODE, || response.to_json_line())
    }

    fn dispatch(&mut self, request: &Request) -> Result<String, String> {
        match &request.call {
            RequestCall::Estimate(req) => {
                let modules = self.gather(&req.mnl)?;
                let params = req.rows.map_or_else(ScParams::default, ScParams::with_rows);
                if req.incremental {
                    let manifest = self.rec.time(FINGERPRINT, || {
                        RevisionManifest::from_modules(modules.iter().map(|m| &**m))
                    });
                    self.counts.fingerprints += modules.len() as u64;
                    self.rec.time(DIFF, || diff(&self.prev, &manifest));
                    let db = self.estimate_all(&modules, true, &params)?;
                    self.prev = manifest;
                    self.rec
                        .time(RENDER, || ops::render_estimate_db(&db, req.json))
                } else {
                    let db = self.estimate_all(&modules, false, &params)?;
                    self.rec
                        .time(RENDER, || ops::render_estimate_db(&db, req.json))
                }
            }
            RequestCall::Layout(req) => {
                let modules = self.gather(&req.mnl)?;
                let mut out = String::new();
                for module in &modules {
                    out.push_str(&self.layout(
                        module,
                        req.rows,
                        req.replicas as usize,
                        req.warm,
                    )?);
                }
                Ok(out)
            }
            RequestCall::Floorplan(req) => {
                let modules = self.gather(&req.mnl)?;
                let pipeline = Pipeline::from_shared_tech(Arc::clone(&self.tech))
                    .with_prob_table(Arc::clone(&self.prob))
                    .with_stats_cache(Arc::clone(&self.stats))
                    .with_replicas(req.replicas as usize)
                    .with_floorplan_backend(req.backend.clone());
                let mut blocks = Vec::new();
                for module in &modules {
                    let block = self
                        .rec
                        .time(FP_BLOCK, || Block::from_module(&pipeline, module, 5))
                        .map_err(|e| e.to_string())?;
                    blocks.extend(block);
                }
                let mut params = PlanParams {
                    replicas: pipeline.replicas(),
                    ..PlanParams::default()
                };
                if let Some(limit) = req.aspect {
                    params = params.with_aspect_limit(limit);
                }
                let planner = backend::by_name(&req.backend, &params)
                    .ok_or_else(|| format!("unknown floorplan backend `{}`", req.backend))?;
                let plan = self.rec.time(FP_PLAN, || planner.plan(&blocks, None).plan);
                Ok(self.rec.time(RENDER, || {
                    let mut out = String::new();
                    let _ = writeln!(
                        out,
                        "chip {} × {} = {} (utilization {:.0}%)",
                        plan.width(),
                        plan.height(),
                        plan.area(),
                        plan.utilization() * 100.0
                    );
                    for (name, rect) in plan.placements() {
                        let _ = writeln!(out, "  {name:<24} {rect}");
                    }
                    out
                }))
            }
            _ => Err(format!(
                "the replay does not model `{}`",
                request.kind_name()
            )),
        }
    }

    /// The session's per-chunk parse memo over inline sources.
    fn gather(&mut self, sources: &[String]) -> Result<Vec<Arc<Module>>, String> {
        let mut modules = Vec::new();
        for source in sources {
            match self.rec.time(SPLIT, || mnl::split_design(source)) {
                Some(chunks) => {
                    let start = modules.len();
                    for chunk in chunks {
                        let key = hash128(chunk.as_bytes());
                        let module = match self.parsed.get(&key) {
                            Some(module) => Arc::clone(module),
                            None => {
                                let module = self
                                    .rec
                                    .time(PARSE, || mnl::parse(chunk))
                                    .map_err(|e| format!("inline mnl: {e}"))?;
                                self.counts.parsed_bytes += chunk.len() as u64;
                                let module = Arc::new(module);
                                self.parsed.insert(key, Arc::clone(&module));
                                module
                            }
                        };
                        modules.push(module);
                    }
                    let fresh = &modules[start..];
                    for (i, m) in fresh.iter().enumerate() {
                        if fresh[..i].iter().any(|o| o.name() == m.name()) {
                            return Err(format!("duplicate module `{}`", m.name()));
                        }
                    }
                }
                None => {
                    let parsed = self
                        .rec
                        .time(PARSE, || mnl::parse_design(source))
                        .map_err(|e| format!("inline mnl: {e}"))?;
                    self.counts.parsed_bytes += source.len() as u64;
                    modules.extend(parsed.into_iter().map(Arc::new));
                }
            }
        }
        Ok(modules)
    }

    fn estimate_all(
        &mut self,
        modules: &[Arc<Module>],
        use_results: bool,
        params: &ScParams,
    ) -> Result<ResultsDb, String> {
        let mut db = ResultsDb::new();
        for module in modules {
            db.insert(self.estimate_module(module, use_results, params)?);
        }
        Ok(db)
    }

    /// `Pipeline::run_module`, step by step.
    fn estimate_module(
        &mut self,
        module: &Module,
        use_results: bool,
        params: &ScParams,
    ) -> Result<EstimateRecord, String> {
        let tech = Arc::clone(&self.tech);
        let key = if use_results {
            let fingerprint = self.rec.time(FINGERPRINT, || ModuleFingerprint::of(module));
            self.counts.fingerprints += 1;
            let key = (fingerprint, tech.revision().id(), params_digest(params));
            if let Some(hit) = self.rec.time(RESULTS, || self.results.get(&key)) {
                return Ok((*hit).clone());
            }
            Some(key)
        } else {
            None
        };
        let rec = self.rec;
        let (sc, candidates) = match rec.time(RESOLVE, || {
            self.stats.resolve(module, &tech, LayoutStyle::StandardCell)
        }) {
            Ok(stats) if stats.device_count() > 0 => {
                let primary = rec.time(STANDARD_CELL, || {
                    standard_cell::estimate_using(&stats, &tech, params, &self.prob)
                });
                let candidates = rec.time(MULTI_ASPECT, || {
                    multi_aspect::sc_candidates_using(
                        &stats,
                        &tech,
                        multi_aspect::DEFAULT_CANDIDATES,
                        params,
                        &self.prob,
                    )
                });
                (Some(primary), candidates)
            }
            _ => (None, Vec::new()),
        };
        let fc = match rec.time(RESOLVE, || {
            self.stats.resolve(module, &tech, LayoutStyle::FullCustom)
        }) {
            Ok(stats) if stats.device_count() > 0 => {
                Some(rec.time(FULL_CUSTOM, || full_custom::estimate(&stats, &tech)))
            }
            _ => None,
        };
        if sc.is_none() && fc.is_none() {
            return Err(format!(
                "module `{}` resolves under neither style",
                module.name()
            ));
        }
        let record = EstimateRecord {
            module_name: module.name().to_owned(),
            standard_cell: sc,
            full_custom: fc,
            standard_cell_candidates: candidates,
        };
        if let Some(key) = key {
            let copy = record.clone();
            rec.time(RESULTS, || self.results.insert(key, copy));
        }
        Ok(record)
    }

    /// `ops::layout_module` as the daemon calls it, without the drawing.
    fn layout(
        &mut self,
        module: &Module,
        rows: Option<u32>,
        replicas: usize,
        warm: bool,
    ) -> Result<String, String> {
        let tech = Arc::clone(&self.tech);
        let rec = self.rec;
        if rec
            .time(RESOLVE, || {
                self.stats.resolve(module, &tech, LayoutStyle::StandardCell)
            })
            .is_ok()
        {
            let params = PlaceParams {
                rows: rows.unwrap_or(2),
                replicas,
                ..Default::default()
            };
            let placed = rec
                .time(PLACE, || place(module, &tech, &params))
                .map_err(|e| e.to_string())?;
            let routed = rec.time(ROUTE, || route(&placed));
            return Ok(rec.time(RENDER, || {
                format!(
                    "`{}` standard-cell P&R: {} × {} = {} ({} tracks, {} feed-throughs, aspect {})\n",
                    module.name(),
                    routed.width(),
                    routed.height(),
                    routed.area(),
                    routed.total_tracks(),
                    routed.feedthroughs(),
                    routed.aspect_ratio()
                )
            }));
        }
        let params = SynthesisParams {
            replicas,
            ..Default::default()
        };
        let layout = if warm {
            let revision = tech.revision().id();
            let seed = self.warm.get(module.name(), revision);
            let (layout, winner) = rec
                .time(SYNTHESIZE, || {
                    synthesize_seeded(module, &tech, &params, seed.as_ref())
                })
                .map_err(|e| e.to_string())?;
            self.warm.put(module.name(), revision, winner);
            layout
        } else {
            rec.time(SYNTHESIZE, || synthesize(module, &tech, &params))
                .map_err(|e| e.to_string())?
        };
        Ok(rec.time(RENDER, || {
            format!(
                "`{}` full-custom synthesis: {} × {} + {} wire = {} (aspect {})\n",
                module.name(),
                layout.width(),
                layout.height(),
                layout.wire_area(),
                layout.area(),
                layout.aspect_ratio()
            )
        }))
    }
}
