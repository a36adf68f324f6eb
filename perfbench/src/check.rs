//! Reference outputs the benchmark checks the program against, computed
//! outside every timed interval.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use maestro::estimator::prob::ProbTable;
use maestro::estimator::request::{Request, RequestCall};
use maestro::estimator::Pipeline;
use maestro::fullcustom::WarmStore;
use maestro::netlist::{mnl, Module, StatsCache};
use maestro::ops;
use maestro::tech::ProcessDb;

use crate::inputs::TECH;

/// A 64-bit digest of a byte string, for outputs too large to keep.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

fn tech() -> Arc<ProcessDb> {
    Arc::new(ops::load_tech(TECH).expect("built-in tech"))
}

/// What `estimate <design> --stream --json` must print for `design`:
/// one JSON record per module from the uncached reference path the
/// differential suites use (no resolve memo, a fresh Eq. 2–3 table).
/// Each module is parsed from its own chunk, so the whole design never
/// sits in memory.
pub fn chip_reference(design: &str) -> Result<Vec<u8>, String> {
    let pipeline = Pipeline::from_shared_tech(tech())
        .without_stats_cache()
        .with_prob_table(Arc::new(ProbTable::new()));
    let chunks = mnl::split_design(design).ok_or("design is not in canonical form")?;
    let mut out = Vec::new();
    for chunk in chunks {
        let module = mnl::parse(chunk).map_err(|e| e.to_string())?;
        let record = pipeline.run_module(&module).map_err(|e| e.to_string())?;
        out.extend_from_slice(
            serde_json::to_string(&record)
                .map_err(|e| e.to_string())?
                .as_bytes(),
        );
        out.push(b'\n');
    }
    Ok(out)
}

/// One client's requests answered by the one-shot `ops` functions over
/// fresh caches: the payloads the daemon must return byte for byte.
/// Requests that do not read the warm-seed store depend on nothing but
/// their own content, so a repeat of one reuses the first answer.
pub struct OneShot {
    tech: Arc<ProcessDb>,
    stats: Arc<StatsCache>,
    prob: Arc<ProbTable>,
    warm: WarmStore,
    answers: RefCell<HashMap<String, String>>,
}

impl Default for OneShot {
    fn default() -> Self {
        OneShot::new()
    }
}

impl OneShot {
    /// Fresh caches.
    pub fn new() -> OneShot {
        OneShot {
            tech: tech(),
            stats: Arc::new(StatsCache::new()),
            prob: Arc::new(ProbTable::new()),
            warm: WarmStore::new(),
            answers: RefCell::new(HashMap::new()),
        }
    }

    fn pipeline(&self) -> Pipeline {
        Pipeline::from_shared_tech(Arc::clone(&self.tech))
            .with_prob_table(Arc::clone(&self.prob))
            .with_stats_cache(Arc::clone(&self.stats))
    }

    fn modules(sources: &[String]) -> Result<Vec<Module>, String> {
        let mut modules = Vec::new();
        for source in sources {
            modules.extend(ops::parse_inline_mnl(source)?);
        }
        Ok(modules)
    }

    /// The payload for `request`.
    pub fn answer(&self, request: &Request) -> Result<String, String> {
        if matches!(&request.call, RequestCall::Layout(r) if r.warm) {
            return self.compute(request);
        }
        let key = Request {
            id: "-".to_owned(),
            call: request.call.clone(),
        }
        .to_json_line();
        if let Some(payload) = self.answers.borrow().get(&key) {
            return Ok(payload.clone());
        }
        let payload = self.compute(request)?;
        self.answers.borrow_mut().insert(key, payload.clone());
        Ok(payload)
    }

    fn compute(&self, request: &Request) -> Result<String, String> {
        match &request.call {
            RequestCall::Estimate(req) => {
                let modules = Self::modules(&req.mnl)?;
                ops::estimate_output(&self.pipeline(), &modules, req.jobs as usize, req.json)
            }
            RequestCall::Layout(req) => {
                let mut out = String::new();
                for module in Self::modules(&req.mnl)? {
                    let outcome = ops::layout_module(
                        &module,
                        &self.tech,
                        &self.stats,
                        req.rows,
                        req.replicas as usize,
                        false,
                        req.warm.then_some(&self.warm),
                    )?;
                    out.push_str(&outcome.summary);
                }
                Ok(out)
            }
            RequestCall::Floorplan(req) => {
                let pipeline = self
                    .pipeline()
                    .with_replicas(req.replicas as usize)
                    .with_floorplan_backend(req.backend.clone());
                ops::floorplan_output(&pipeline, &Self::modules(&req.mnl)?, req.aspect)
                    .map(|(text, _)| text)
            }
            _ => Err(format!("no reference for `{}`", request.kind_name())),
        }
    }
}
