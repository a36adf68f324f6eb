//! The Figure 1 dataflow: schematic + process database in, results
//! database out.
//!
//! ```text
//! Fabrication Process DB ──┐
//!                          ├─> I/O interface ─> SC estimator ─┐
//! Circuit schematic (.mnl)─┘                  └> FC estimator ├─> ResultsDb ─> floorplanner
//! ```
//!
//! The pipeline tries each layout style a module's templates resolve
//! against: a gate-level module estimates as standard cells, a
//! transistor-level module as full custom, and a module whose templates
//! appear in both tables gets both estimates — exactly the methodology
//! comparison the paper motivates ("trial floor plans for comparing the
//! various different layout methodologies").

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use maestro_netlist::{
    diff, mnl, CacheStats, LayoutStyle, Module, ModuleFingerprint, NetlistDiff, NetlistError,
    NetlistStats, RevisionManifest, StatsCache,
};
use maestro_tech::ProcessDb;
use maestro_trace as trace;

use crate::prob::ProbTable;
use crate::report::{EstimateRecord, ResultsDb};
use crate::results_cache::{params_digest, ResultsCache};
use crate::standard_cell::ScParams;
use crate::{full_custom, standard_cell};

/// Below this total weight ([`BatchItem::weight`]: nets, for parsed
/// modules), a batch that fits one wave stays in the calling thread of
/// the batch engine ([`Pipeline::run_all_streaming`]) regardless of the
/// requested job count: thread spawning costs more than estimating a
/// hand-full of nets (the Table 1 suite alone carries ~80 nets and stays
/// parallel).
pub const DEFAULT_PARALLEL_NET_THRESHOLD: usize = 48;

/// Ceiling on the per-shard weight budget work dispatch uses (nets, for
/// parsed modules; see [`BatchItem::weight`]). The batch engine pulls
/// waves of about `jobs ×` this much weight and cuts each into shards of
/// consecutive items weighing at most
/// `min(DEFAULT_SHARD_NET_BUDGET, ceil(wave_weight / jobs))` (always at
/// least one item), so a 10^5-module batch of tiny modules dispatches
/// chunky shards instead of contending on the work queue once per
/// module, while worker count follows the workload rather than the
/// module count.
pub const DEFAULT_SHARD_NET_BUDGET: usize = 4096;

/// Totals of a [`Pipeline::run_all_streaming`] batch: what flowed through
/// the sink without ever being held in memory at once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Modules estimated (and emitted through the sink).
    pub modules: usize,
    /// Total devices across those modules.
    pub devices: usize,
    /// Total nets across those modules.
    pub nets: usize,
}

impl StreamSummary {
    /// The totals of one module.
    fn of(module: &Module) -> Self {
        StreamSummary {
            modules: 1,
            devices: module.device_count(),
            nets: module.net_count(),
        }
    }

    fn add(&mut self, other: StreamSummary) {
        self.modules += other.modules;
        self.devices += other.devices;
        self.nets += other.nets;
    }
}

/// What the batch engine makes of one item: its record and its share of
/// the [`StreamSummary`], or the error that stops the stream.
type ItemResult = Result<(EstimateRecord, StreamSummary), NetlistError>;

/// One unit of work for the batch engine ([`Pipeline::run_all_streaming`]):
/// a module, or the text of one still to parse.
///
/// The engine sizes waves and shards by [`BatchItem::weight`] on the
/// thread that pulls the stream, sends each shard's items to the worker
/// that takes it, and calls [`BatchItem::module`] there. A parsed module
/// weighs its nets and lends itself; an `.mnl` [`mnl::Chunk`] weighs its
/// statements and parses itself there, so a file's parse spreads over
/// the workers along with its estimation, and each parsed module lives
/// and dies on one thread.
pub trait BatchItem: Send + Sync {
    /// The item's share of a wave and of a shard.
    fn weight(&self) -> usize;

    /// The module to estimate.
    ///
    /// # Errors
    ///
    /// The item's parse error, which the engine reports in stream order
    /// like an estimation error.
    fn module(&self) -> Result<Cow<'_, Module>, NetlistError>;
}

impl BatchItem for Module {
    fn weight(&self) -> usize {
        self.net_count()
    }

    fn module(&self) -> Result<Cow<'_, Module>, NetlistError> {
        Ok(Cow::Borrowed(self))
    }
}

impl<T: BatchItem + ?Sized> BatchItem for &T {
    fn weight(&self) -> usize {
        (**self).weight()
    }

    fn module(&self) -> Result<Cow<'_, Module>, NetlistError> {
        (**self).module()
    }
}

impl BatchItem for mnl::Chunk<'_> {
    fn weight(&self) -> usize {
        self.statements()
    }

    fn module(&self) -> Result<Cow<'_, Module>, NetlistError> {
        self.parse().map(Cow::Owned)
    }
}

/// Cuts a batch into shards of consecutive items whose weights (a
/// module's nets, see [`BatchItem::weight`]) sum to at most
/// `min(cap, ceil(total / jobs))` (single items may exceed the budget —
/// an item is the smallest unit of work). Returns one `start..end` index
/// range per shard, covering `0..weights.len()`.
fn plan_shards(weights: &[usize], jobs: usize, cap: usize) -> Vec<std::ops::Range<usize>> {
    let total: usize = weights.iter().sum();
    let budget = total.div_ceil(jobs.max(1)).clamp(1, cap.max(1));
    let mut shards = Vec::new();
    let mut start = 0;
    let mut acc = 0usize;
    for (i, &weight) in weights.iter().enumerate() {
        if i > start && acc + weight > budget {
            shards.push(start..i);
            start = i;
            acc = 0;
        }
        acc += weight;
    }
    if start < weights.len() {
        shards.push(start..weights.len());
    }
    shards
}

/// Pulls one wave from `stream`: items until their weights reach
/// `budget`, one item minimum — enough to keep every worker at a full
/// shard, never more. With the next wave queued behind it, this bound is
/// the RSS bound. Returns the items and their weights.
fn pull_wave<I>(stream: &mut I, budget: usize) -> (Vec<I::Item>, Vec<usize>)
where
    I: Iterator,
    I::Item: BatchItem,
{
    let (mut wave, mut weights, mut total) = (Vec::new(), Vec::new(), 0);
    while total < budget {
        let Some(item) = stream.next() else { break };
        let weight = item.weight();
        total += weight;
        weights.push(weight);
        wave.push(item);
    }
    (wave, weights)
}

/// Outcome of one [`Pipeline::run_all_incremental`] revision: the
/// results database (byte-identical to a cold batch over the same
/// modules), the fingerprint diff against the previous revision, and the
/// manifest to diff the *next* revision against.
#[derive(Debug, Clone)]
pub struct IncrementalRun {
    /// Per-module estimates, in module order.
    pub db: ResultsDb,
    /// Classification of every module against the previous revision.
    pub diff: NetlistDiff,
    /// This revision's manifest — feed it to the next incremental run.
    pub manifest: RevisionManifest,
}

/// The module-area-estimation pipeline of the paper's Figure 1.
#[derive(Debug, Clone)]
pub struct Pipeline {
    tech: Arc<ProcessDb>,
    sc_params: ScParams,
    prob: Arc<ProbTable>,
    /// Resolve-once memo for `NetlistStats`; `None` runs the uncached
    /// reference path (differential testing).
    stats: Option<Arc<StatsCache>>,
    /// Whole-result memo for ECO re-estimation; `None` (the default)
    /// recomputes every record, keeping batch counter profiles exact.
    results: Option<Arc<ResultsCache>>,
    parallel_net_threshold: usize,
    shard_net_budget: usize,
    replicas: usize,
    floorplan_backend: String,
}

impl Pipeline {
    /// Creates a pipeline over a process database with default
    /// standard-cell parameters, memoizing Eq. 2–3 in the process-wide
    /// [`ProbTable::shared`] cache and netlist resolution in the
    /// process-wide [`StatsCache::shared`] memo.
    pub fn new(tech: ProcessDb) -> Self {
        Pipeline::from_shared_tech(Arc::new(tech))
    }

    /// As [`Pipeline::new`], but borrowing an already-shared process
    /// database instead of taking ownership — a long-lived daemon keeps
    /// one `Arc<ProcessDb>` per technology and hands it to every
    /// request's pipeline without cloning the table data.
    pub fn from_shared_tech(tech: Arc<ProcessDb>) -> Self {
        Pipeline {
            tech,
            sc_params: ScParams::default(),
            prob: ProbTable::shared(),
            stats: Some(StatsCache::shared()),
            results: None,
            parallel_net_threshold: DEFAULT_PARALLEL_NET_THRESHOLD,
            shard_net_budget: DEFAULT_SHARD_NET_BUDGET,
            replicas: 1,
            floorplan_backend: crate::request::DEFAULT_FLOORPLAN_BACKEND.to_owned(),
        }
    }

    /// Names the floorplan backend downstream front ends should resolve
    /// when they build a chip plan from this pipeline's estimates. The
    /// pipeline itself only carries the name (the backend registry lives
    /// in the floorplan crate, which sits above this one); validate
    /// against [`crate::request::FLOORPLAN_BACKENDS`] before dispatch.
    pub fn with_floorplan_backend(mut self, backend: impl Into<String>) -> Self {
        self.floorplan_backend = backend.into();
        self
    }

    /// The floorplan backend name layout front ends should resolve.
    pub fn floorplan_backend(&self) -> &str {
        &self.floorplan_backend
    }

    /// Sets how many independently seeded annealing walks the layout
    /// stages downstream of this pipeline run per anneal (best final cost
    /// wins; ties break to the lowest replica index). The analytic
    /// estimates this pipeline computes are closed-form and unaffected;
    /// front ends read the value back via [`Pipeline::replicas`] when
    /// building placement, synthesis, and floorplan parameters. `0` is
    /// treated as `1`.
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas.max(1);
        self
    }

    /// The annealing replica count layout stages should use.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Overrides the standard-cell estimator parameters.
    pub fn with_sc_params(mut self, params: ScParams) -> Self {
        self.sc_params = params;
        self
    }

    /// Uses an explicit probability table instead of the shared one
    /// (e.g. to isolate cache statistics in tests and benchmarks).
    pub fn with_prob_table(mut self, table: Arc<ProbTable>) -> Self {
        self.prob = table;
        self
    }

    /// Uses an explicit netlist resolution cache instead of the shared
    /// one (isolating cache statistics in tests and benchmarks).
    pub fn with_stats_cache(mut self, cache: Arc<StatsCache>) -> Self {
        self.stats = Some(cache);
        self
    }

    /// Disables netlist resolution memoization: every consumer re-runs
    /// [`NetlistStats::resolve`] from scratch. This is the reference path
    /// the differential suite compares the cached pipeline against.
    pub fn without_stats_cache(mut self) -> Self {
        self.stats = None;
        self
    }

    /// Memoizes whole [`EstimateRecord`]s in `cache`, keyed by module
    /// content × technology revision × parameter digest. Off by default:
    /// only incremental (ECO) entry points opt in, so plain batch runs
    /// keep their exact resolve-counter profiles.
    pub fn with_results_cache(mut self, cache: Arc<ResultsCache>) -> Self {
        self.results = Some(cache);
        self
    }

    /// Overrides the net-count threshold below which a one-wave batch
    /// stays in the calling thread (`0` always fans out when `jobs > 1`).
    pub fn with_parallel_threshold(mut self, total_nets: usize) -> Self {
        self.parallel_net_threshold = total_nets;
        self
    }

    /// Overrides the per-shard net-budget ceiling
    /// ([`DEFAULT_SHARD_NET_BUDGET`]) the batch engine sizes waves and cuts
    /// shards with. `0` is treated as `1` (every module its own shard).
    pub fn with_shard_net_budget(mut self, nets: usize) -> Self {
        self.shard_net_budget = nets.max(1);
        self
    }

    /// The process database in use.
    pub fn tech(&self) -> &ProcessDb {
        &self.tech
    }

    /// The probability table estimates are served from.
    pub fn prob_table(&self) -> &Arc<ProbTable> {
        &self.prob
    }

    /// The netlist resolution cache, unless running uncached.
    pub fn stats_cache(&self) -> Option<&Arc<StatsCache>> {
        self.stats.as_ref()
    }

    /// The whole-result memo, when an incremental entry point opted in.
    pub fn results_cache(&self) -> Option<&Arc<ResultsCache>> {
        self.results.as_ref()
    }

    /// Resolves a module's statistics through the cache (shared `Arc` per
    /// (module, technology, style)), or uncached when disabled.
    fn resolve_stats(
        &self,
        module: &Module,
        style: LayoutStyle,
    ) -> Result<Arc<NetlistStats>, NetlistError> {
        match &self.stats {
            Some(cache) => cache.resolve(module, &self.tech, style),
            None => NetlistStats::resolve(module, &self.tech, style).map(Arc::new),
        }
    }

    /// Estimates one module under every style its templates resolve for.
    ///
    /// # Errors
    ///
    /// Fails only when the module resolves under *neither* style — a
    /// module that fits one table is fine: [`NetlistError::UnknownTemplate`]
    /// names the first device neither table knows, and
    /// [`NetlistError::Invalid`] reports a module without devices or one
    /// that mixes cell and transistor templates.
    pub fn run_module(&self, module: &Module) -> Result<EstimateRecord, NetlistError> {
        let _module_span = trace::span_with("pipeline.module", || module.name().to_owned());
        trace::counter("estimate.nets", module.net_count() as u64);
        // The result memo's key: module content × technology × parameters.
        let key = self.results.as_ref().map(|_| {
            (
                ModuleFingerprint::of(module),
                self.tech.revision().id(),
                params_digest(&self.sc_params),
            )
        });
        if let (Some(cache), Some(key)) = (&self.results, &key) {
            if let Some(record) = cache.get(key) {
                return Ok((*record).clone());
            }
        }
        let (sc, sc_candidates) = match self.resolve_stats(module, LayoutStyle::StandardCell) {
            Ok(stats) if stats.device_count() > 0 => {
                let _sc_span = trace::span("estimate.standard_cell");
                let primary =
                    standard_cell::estimate_using(&stats, &self.tech, &self.sc_params, &self.prob);
                let candidates = crate::multi_aspect::sc_candidates_using(
                    &stats,
                    &self.tech,
                    crate::multi_aspect::DEFAULT_CANDIDATES,
                    &self.sc_params,
                    &self.prob,
                );
                (Some(primary), candidates)
            }
            _ => (None, Vec::new()),
        };
        let fc = match self.resolve_stats(module, LayoutStyle::FullCustom) {
            Ok(stats) if stats.device_count() > 0 => {
                let _fc_span = trace::span("estimate.full_custom");
                Some(full_custom::estimate(&stats, &self.tech))
            }
            _ => None,
        };
        if sc.is_none() && fc.is_none() {
            return Err(self.unresolvable(module));
        }
        let record = EstimateRecord {
            module_name: module.name().to_owned(),
            standard_cell: sc,
            full_custom: fc,
            standard_cell_candidates: sc_candidates,
        };
        if let (Some(cache), Some(key)) = (&self.results, key) {
            cache.insert(key, record.clone());
        }
        Ok(record)
    }

    /// Why `module` resolves under neither style: its first device whose
    /// template neither table knows; else, when it has devices, one
    /// device of each kind it mixes; else that it has no devices.
    fn unresolvable(&self, module: &Module) -> NetlistError {
        let mut cell = None;
        let mut transistor = None;
        for (_, dev) in module.devices() {
            let template = dev.template();
            let in_cells = self.tech.cell_library().cell(template).is_some();
            let in_devices = self.tech.device(template).is_some();
            match (in_cells, in_devices) {
                (false, false) => {
                    return NetlistError::UnknownTemplate {
                        device: dev.name().to_owned(),
                        template: template.to_owned(),
                    }
                }
                (true, false) => cell = cell.or(Some(dev)),
                (false, true) => transistor = transistor.or(Some(dev)),
                (true, true) => {}
            }
        }
        // Every template is known, so a style failed only because some
        // device lacks its table: both kinds are present, or no device is.
        match (cell, transistor) {
            (Some(cell), Some(transistor)) => NetlistError::invalid(format!(
                "module `{}` mixes cell and transistor templates: device `{}` uses cell `{}`, \
                 device `{}` uses transistor `{}`",
                module.name(),
                cell.name(),
                cell.template(),
                transistor.name(),
                transistor.template(),
            )),
            _ => NetlistError::invalid(format!("module `{}` has no devices", module.name())),
        }
    }

    /// Parses `.mnl` source and estimates the module.
    ///
    /// # Errors
    ///
    /// Propagates parse errors and [`Pipeline::run_module`] errors.
    pub fn run_mnl(&self, source: &str) -> Result<EstimateRecord, NetlistError> {
        let module = mnl::parse(source)?;
        self.run_module(&module)
    }

    /// Estimates a set of modules into a results database — the chip-level
    /// run that feeds the floorplanner. An adapter: the batch engine
    /// ([`Pipeline::run_all_streaming`]) at one job, estimating every
    /// module in the calling thread.
    ///
    /// # Errors
    ///
    /// Fails on the first module that estimates under neither style.
    pub fn run_all<'m, I>(&self, modules: I) -> Result<ResultsDb, NetlistError>
    where
        I: IntoIterator<Item = &'m Module>,
    {
        self.run_all_parallel(modules, 1)
    }

    /// Snapshot of the probability-table counters, taken only when a
    /// trace sink is listening (the disabled path must not touch the
    /// memo's lock).
    fn prob_snapshot(&self) -> Option<CacheStats> {
        trace::enabled().then(|| self.prob.stats())
    }

    /// Charges the hit/miss growth since `before` to the trace. Always
    /// emits both counters (even at zero) so trace consumers see the
    /// cache totals on runs that never query the table.
    fn emit_prob_delta(&self, before: Option<CacheStats>) {
        if let Some(before) = before {
            let delta = self.prob.stats().delta_since(&before);
            trace::counter("prob.hits", delta.hits);
            trace::counter("prob.misses", delta.misses);
        }
    }

    /// [`Pipeline::run_all`] over up to `jobs` worker threads. An adapter:
    /// the batch engine ([`Pipeline::run_all_streaming`]) with a sink that
    /// fills a [`ResultsDb`]. The engine emits records in module order, so
    /// the database — and its JSON serialization — is identical to the
    /// serial run's for every job count.
    ///
    /// # Errors
    ///
    /// As [`Pipeline::run_all`]: the error reported is the one the serial
    /// run would have hit first (the lowest-index failing module), even
    /// if a later module failed earlier in wall-clock time.
    pub fn run_all_parallel<'m, I>(
        &self,
        modules: I,
        jobs: usize,
    ) -> Result<ResultsDb, NetlistError>
    where
        I: IntoIterator<Item = &'m Module>,
    {
        let mut db = ResultsDb::new();
        self.run_all_streaming(modules, jobs, |record| {
            db.insert(record);
            Ok(())
        })?;
        Ok(db)
    }

    /// Re-estimates a revision against the previous one. An adapter:
    /// fingerprints every module into this revision's manifest, diffs it
    /// against `prev` (emitting `netlist.diff.*` counters), then runs the
    /// batch through [`Pipeline::run_all_parallel`]. With a results cache
    /// attached ([`Pipeline::with_results_cache`]) the unchanged modules
    /// are served from the memo and only the modified/added slice pays
    /// estimation cost; the produced database is byte-identical to a cold
    /// batch either way, because cache hits replay the exact record the
    /// cold run would compute.
    ///
    /// # Errors
    ///
    /// As [`Pipeline::run_all_parallel`].
    pub fn run_all_incremental<'m, I>(
        &self,
        prev: &RevisionManifest,
        modules: I,
        jobs: usize,
    ) -> Result<IncrementalRun, NetlistError>
    where
        I: IntoIterator<Item = &'m Module>,
    {
        let modules: Vec<&Module> = modules.into_iter().collect();
        let manifest = RevisionManifest::from_modules(modules.iter().copied());
        let changes = diff(prev, &manifest);
        let _span = trace::span_with("pipeline.run_all_incremental", || changes.summary());
        let db = self.run_all_parallel(modules, jobs)?;
        Ok(IncrementalRun {
            db,
            diff: changes,
            manifest,
        })
    }

    /// Estimates one batch item on the calling thread: its module (parsed
    /// here, for an unparsed chunk, and dropped here), the record, and the
    /// module's share of the [`StreamSummary`].
    fn run_item<W: BatchItem>(&self, item: &W) -> ItemResult {
        let module = item.module()?;
        let record = self.run_module(&module)?;
        Ok((record, StreamSummary::of(&module)))
    }

    /// The one worker pool: `min(jobs, shards of the first wave)` scoped
    /// threads that live for the whole stream and take weight-budget
    /// shards ([`plan_shards`]) from one queue, so cheap and expensive
    /// items interleave while dispatch contention follows the workload
    /// rather than the item count. The calling thread keeps the next wave
    /// queued behind the one in flight, and hands each shard's results to
    /// `emit` in stream order as they come back. No worker waits at a wave
    /// boundary: one that falls behind — its core taken by other load for
    /// a while — costs the stream its own share of the time, while the
    /// others go on with the queued wave. Worker spans parent to
    /// `batch_id` explicitly — the spawning thread's span stack is not
    /// visible from inside a worker thread.
    fn run_pool<W: BatchItem>(
        &self,
        first: (Vec<W>, Vec<usize>),
        mut pull: impl FnMut() -> (Vec<W>, Vec<usize>),
        jobs: usize,
        batch_id: u64,
        emit: &mut impl FnMut(ItemResult) -> Result<(), NetlistError>,
    ) -> Result<(), NetlistError> {
        let workers = jobs.min(plan_shards(&first.1, jobs, self.shard_net_budget).len());
        let (work_tx, work_rx) = mpsc::channel::<(usize, Vec<W>)>();
        let work_rx = Mutex::new(work_rx);
        let (done_tx, done_rx) = mpsc::channel();
        let stopped = AtomicBool::new(false);
        std::thread::scope(|scope| {
            // Owned here, so the queue closes however this closure ends.
            let work_tx = work_tx;
            for w in 0..workers {
                let (work_rx, done_tx, stopped) = (&work_rx, done_tx.clone(), &stopped);
                scope.spawn(move || {
                    if trace::enabled() {
                        trace::set_thread_label(format!("worker-{w}"));
                    }
                    let _worker = trace::span_under("pipeline.worker", batch_id, String::new);
                    loop {
                        // The lock is released before the shard runs.
                        let next = work_rx.lock().expect("work queue lock").recv();
                        let Ok((seq, shard)) = next else { break };
                        if stopped.load(Ordering::Relaxed) {
                            continue;
                        }
                        let results = catch_unwind(AssertUnwindSafe(|| {
                            shard.iter().map(|item| self.run_item(item)).collect()
                        }));
                        drop(shard);
                        if done_tx.send((seq, results)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(done_tx);
            // Shards are numbered in stream order; `waves` holds the
            // number past each queued wave's last shard.
            let (mut queued, mut emitted) = (0, 0);
            let mut waves = VecDeque::new();
            let mut back: BTreeMap<usize, std::thread::Result<Vec<ItemResult>>> = BTreeMap::new();
            let (mut first, mut exhausted) = (Some(first), false);
            let outcome = loop {
                while waves.len() < 2 && !exhausted {
                    let (wave, weights) = first.take().unwrap_or_else(&mut pull);
                    if wave.is_empty() {
                        exhausted = true;
                        break;
                    }
                    let mut items = wave.into_iter();
                    for shard in plan_shards(&weights, jobs, self.shard_net_budget) {
                        let shard = items.by_ref().take(shard.len()).collect();
                        work_tx
                            .send((queued, shard))
                            .expect("the queue outlives the stream");
                        queued += 1;
                    }
                    waves.push_back(queued);
                }
                let Some(end) = waves.pop_front() else {
                    break Ok(());
                };
                let oldest = (emitted..end).try_for_each(|seq| {
                    let results = loop {
                        if let Some(results) = back.remove(&seq) {
                            break results;
                        }
                        let (at, results) = done_rx.recv().expect("pipeline worker panicked");
                        back.insert(at, results);
                    };
                    let results = results.unwrap_or_else(|panic| resume_unwind(panic));
                    results.into_iter().try_for_each(&mut *emit)
                });
                emitted = end;
                if oldest.is_err() {
                    break oldest;
                }
            };
            // Queued shards of a stopped stream are skipped, not run.
            stopped.store(true, Ordering::Relaxed);
            outcome
        })
    }

    /// The batch engine every other batch entry point adapts: estimates a
    /// stream of [`BatchItem`]s — modules, owned or borrowed from an
    /// in-memory batch, or `.mnl` chunks each parsed by the thread that
    /// estimates it — emitting each [`EstimateRecord`] through `sink` in
    /// stream order.
    ///
    /// The engine pulls the stream one *wave* at a time — items until
    /// their weights reach `jobs ×` [`DEFAULT_SHARD_NET_BUDGET`] (or the
    /// [`Pipeline::with_shard_net_budget`] override), one item minimum.
    /// At most two waves are in flight — the one being emitted and the
    /// next — so peak residency is two waves of items plus their records,
    /// regardless of how many items the stream yields. A million-device
    /// generated chip or `.mnl` file estimates to completion in a bounded
    /// footprint.
    ///
    /// The stream runs in the calling thread, one item at a time, when
    /// `jobs <= 1`, or when the whole batch is one wave weighing less
    /// than the parallel threshold ([`DEFAULT_PARALLEL_NET_THRESHOLD`]
    /// unless overridden via [`Pipeline::with_parallel_threshold`]) —
    /// thread spawn cost swamps the estimation work on tiny batches.
    /// Otherwise it fans out over the sharded worker pool, which hands
    /// the records back in stream order. Either way the sink observes
    /// exactly the serial emission order, and all workers memoize into
    /// this pipeline's one probability table.
    ///
    /// The `pipeline.run_all` span opens once the first wave is pulled;
    /// its detail reads `serial modules=N` or `jobs=J modules=N shards=S`
    /// for that wave, with `N+` when more waves follow.
    ///
    /// # Errors
    ///
    /// Stops at the first failing item in stream order — a parse error
    /// or an estimation error alike (later items of the two waves in
    /// flight may have been estimated speculatively; their records are
    /// discarded and later waves are never pulled). Errors returned by
    /// the sink propagate the same way.
    pub fn run_all_streaming<I, S>(
        &self,
        items: I,
        jobs: usize,
        mut sink: S,
    ) -> Result<StreamSummary, NetlistError>
    where
        I: IntoIterator,
        I::Item: BatchItem,
        S: FnMut(EstimateRecord) -> Result<(), NetlistError>,
    {
        let wave_budget = jobs.max(1).saturating_mul(self.shard_net_budget);
        let mut stream = items.into_iter().peekable();
        let (mut wave, weights) = pull_wave(&mut stream, wave_budget);
        let more = stream.peek().is_some();
        let wave_weight: usize = weights.iter().sum();
        let parallel = jobs > 1 && (more || wave_weight >= self.parallel_net_threshold);
        let batch = trace::span_with("pipeline.run_all", || {
            let modules = format!("modules={}{}", wave.len(), if more { "+" } else { "" });
            if parallel {
                let shards = plan_shards(&weights, jobs, self.shard_net_budget).len();
                format!("jobs={} {modules} shards={shards}", jobs.min(shards))
            } else {
                format!("serial {modules}")
            }
        });
        let before = self.prob_snapshot();
        let mut summary = StreamSummary::default();
        let mut emit = |result: ItemResult| {
            let (record, one) = result?;
            summary.add(one);
            sink(record)
        };
        let outcome = if parallel {
            let pull = || pull_wave(&mut stream, wave_budget);
            self.run_pool((wave, weights), pull, jobs, batch.id(), &mut emit)
        } else {
            loop {
                if wave.is_empty() {
                    break Ok(());
                }
                let emitted = wave.iter().try_for_each(|item| emit(self.run_item(item)));
                if emitted.is_err() {
                    break emitted;
                }
                // Release this wave before pulling the next.
                drop(wave);
                (wave, _) = pull_wave(&mut stream, wave_budget);
            }
        };
        self.emit_prob_delta(before);
        outcome.map(|()| summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_netlist::{generate, library_circuits};
    use maestro_tech::builtin;

    #[test]
    fn gate_level_module_gets_sc_only() {
        let p = Pipeline::new(builtin::nmos25());
        let rec = p.run_module(&generate::ripple_adder(2)).expect("estimates");
        assert!(rec.standard_cell.is_some());
        assert!(rec.full_custom.is_none());
    }

    #[test]
    fn transistor_module_gets_fc_only() {
        let p = Pipeline::new(builtin::nmos25());
        let rec = p
            .run_module(&library_circuits::nmos_full_adder())
            .expect("estimates");
        assert!(rec.standard_cell.is_none());
        assert!(rec.full_custom.is_some());
    }

    #[test]
    fn unresolvable_module_is_an_error() {
        let p = Pipeline::new(builtin::nmos25());
        let mut b = maestro_netlist::ModuleBuilder::new("alien");
        let n = b.net("n");
        b.device("u1", "QUANTUM_GATE", [("A", n)]);
        let err = p.run_module(&b.finish()).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownTemplate { .. }));
    }

    #[test]
    fn mnl_source_runs_end_to_end() {
        let p = Pipeline::new(builtin::nmos25());
        let rec = p
            .run_mnl(
                "module m;\ninput a;\noutput y;\n\
                 device u1 INV (A=a, Y=t);\ndevice u2 INV (A=t, Y=y);\nendmodule\n",
            )
            .expect("estimates");
        assert_eq!(rec.module_name, "m");
        assert!(rec.standard_cell.is_some());
    }

    #[test]
    fn run_all_builds_results_db() {
        let p = Pipeline::new(builtin::nmos25());
        let modules = [
            generate::ripple_adder(2),
            generate::counter(3),
            library_circuits::pass_chain(4),
        ];
        let db = p.run_all(modules.iter()).expect("estimates all");
        assert_eq!(db.len(), 3);
        assert!(db.record("counter_3").is_some());
        // Figure 1's "input to floor planner": serializable.
        assert!(db.to_json().unwrap().contains("counter_3"));
    }

    #[test]
    fn sc_params_override_flows_through() {
        let p = Pipeline::new(builtin::nmos25()).with_sc_params(ScParams::with_rows(5));
        let rec = p.run_module(&generate::ripple_adder(4)).unwrap();
        assert_eq!(rec.standard_cell.unwrap().rows, 5);
    }

    #[test]
    fn sc_params_override_recentres_the_candidate_sweep() {
        // The multi-aspect sweep must follow the caller's row override,
        // not the §5 seed: five candidates centred on rows = 5.
        let p = Pipeline::new(builtin::nmos25()).with_sc_params(ScParams::with_rows(5));
        let rec = p.run_module(&generate::ripple_adder(4)).unwrap();
        let rows: Vec<u32> = rec
            .standard_cell_candidates
            .iter()
            .map(|c| c.rows)
            .collect();
        assert_eq!(rows, vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn parallel_run_matches_serial_byte_for_byte() {
        let p = Pipeline::new(builtin::nmos25());
        let modules: Vec<_> = (2..10).map(generate::counter).collect();
        let serial = p.run_all(modules.iter()).expect("serial run");
        for jobs in [1, 2, 8, 64] {
            let parallel = p
                .run_all_parallel(modules.iter(), jobs)
                .expect("parallel run");
            assert_eq!(
                serial.to_json().unwrap(),
                parallel.to_json().unwrap(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn parallel_run_reports_first_failing_module() {
        let p = Pipeline::new(builtin::nmos25());
        let bad = |name: &str| {
            let mut b = maestro_netlist::ModuleBuilder::new(name);
            let n = b.net("n");
            b.device("u1", "QUANTUM_GATE", [("A", n)]);
            b.finish()
        };
        let modules = [
            generate::counter(3),
            bad("bad_early"),
            generate::counter(4),
            bad("bad_late"),
        ];
        let serial = p.run_all(modules.iter()).unwrap_err();
        let parallel = p.run_all_parallel(modules.iter(), 4).unwrap_err();
        assert_eq!(format!("{serial}"), format!("{parallel}"));
    }

    #[test]
    fn small_batch_falls_back_to_serial_path() {
        let p = Pipeline::new(builtin::nmos25());
        let modules = [generate::counter(2), generate::counter(3)];
        let total_nets: usize = modules.iter().map(|m| m.net_count()).sum();
        assert!(
            total_nets < DEFAULT_PARALLEL_NET_THRESHOLD,
            "fixture must stay under the threshold, has {total_nets} nets"
        );
        let parallel = || {
            p.run_all_parallel(modules.iter(), 8).expect("estimates");
        };
        let streaming = || {
            p.run_all_streaming(modules.iter(), 8, |_| Ok(()))
                .expect("estimates");
        };
        let entry_points: [(&str, &dyn Fn()); 2] = [
            ("run_all_parallel", &parallel),
            ("run_all_streaming", &streaming),
        ];
        for (entry, run) in entry_points {
            let collector = Arc::new(trace::Collector::new());
            trace::with_sink(Arc::clone(&collector) as Arc<dyn trace::Sink>, run);
            let spans = collector.spans();
            let batch = spans
                .iter()
                .find(|s| s.name == "pipeline.run_all")
                .expect("batch span present");
            assert!(
                batch.detail.starts_with("serial"),
                "{entry}: expected serial fallback, got detail {:?}",
                batch.detail
            );
            assert!(
                !spans.iter().any(|s| s.name == "pipeline.worker"),
                "{entry}: serial fallback must not spawn workers"
            );
        }
    }

    #[test]
    fn threshold_zero_forces_the_parallel_path() {
        let collector = Arc::new(trace::Collector::new());
        let p = Pipeline::new(builtin::nmos25()).with_parallel_threshold(0);
        let modules = [generate::counter(2), generate::counter(3)];
        trace::with_sink(Arc::clone(&collector) as Arc<dyn trace::Sink>, || {
            p.run_all_parallel(modules.iter(), 2).expect("estimates");
        });
        let spans = collector.spans();
        assert_eq!(
            spans.iter().filter(|s| s.name == "pipeline.worker").count(),
            2,
            "threshold 0 must fan out even for tiny batches"
        );
    }

    #[test]
    fn shards_respect_the_net_budget() {
        // total 20, jobs 2 -> budget 10: two equal shards.
        assert_eq!(plan_shards(&[5, 5, 5, 5], 2, 100), vec![0..2, 2..4]);
        // An oversized module owns its shard; the budget still caps the rest.
        assert_eq!(plan_shards(&[50, 4, 4, 4], 2, 10), vec![0..1, 1..3, 3..4]);
        // The cap wins over ceil(total/jobs) when smaller.
        assert_eq!(plan_shards(&[3, 3, 3], 100, 1), vec![0..1, 1..2, 2..3]);
        // Empty batch, empty plan.
        assert_eq!(
            plan_shards(&[], 4, 100),
            Vec::<std::ops::Range<usize>>::new()
        );
        // Shards always tile the batch contiguously.
        let counts = [7, 100, 3, 3, 3, 60, 1, 1];
        let shards = plan_shards(&counts, 3, 4096);
        assert_eq!(shards.first().unwrap().start, 0);
        assert_eq!(shards.last().unwrap().end, counts.len());
        for pair in shards.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
    }

    #[test]
    fn sharded_dispatch_groups_tiny_modules() {
        // 16 tiny modules, jobs=4: the old dispatch took the counter 16
        // times; net-budget shards group them 4-and-4 so the batch spans
        // report 4 shards and 4 workers.
        let collector = Arc::new(trace::Collector::new());
        let p = Pipeline::new(builtin::nmos25()).with_parallel_threshold(0);
        let modules: Vec<_> = (0..16).map(|_| generate::counter(2)).collect();
        trace::with_sink(Arc::clone(&collector) as Arc<dyn trace::Sink>, || {
            p.run_all_parallel(modules.iter(), 4).expect("estimates");
        });
        let spans = collector.spans();
        let batch = spans
            .iter()
            .find(|s| s.name == "pipeline.run_all")
            .expect("batch span present");
        assert!(
            batch.detail.contains("shards=4"),
            "16×7 nets / 4 jobs -> 4 shards, got {:?}",
            batch.detail
        );
        assert_eq!(
            spans.iter().filter(|s| s.name == "pipeline.worker").count(),
            4
        );
    }

    #[test]
    fn streaming_matches_in_memory_run_byte_for_byte() {
        let modules: Vec<_> = (2..10).map(generate::counter).collect();
        let reference = Pipeline::new(builtin::nmos25())
            .run_all(modules.iter())
            .expect("in-memory run")
            .to_json()
            .unwrap();
        let nets: usize = modules.iter().map(|m| m.net_count()).sum();
        // A small shard budget cuts even this batch into several waves.
        for budget in [DEFAULT_SHARD_NET_BUDGET, 8] {
            let p = Pipeline::new(builtin::nmos25()).with_shard_net_budget(budget);
            for jobs in [1, 2, 8] {
                let mut owned = ResultsDb::new();
                let summary = p
                    .run_all_streaming(modules.iter().cloned(), jobs, |rec| {
                        owned.insert(rec);
                        Ok(())
                    })
                    .expect("streaming run");
                assert_eq!(summary.modules, modules.len());
                assert_eq!(summary.nets, nets);
                let mut borrowed = ResultsDb::new();
                p.run_all_streaming(modules.iter(), jobs, |rec| {
                    borrowed.insert(rec);
                    Ok(())
                })
                .expect("borrowed streaming run");
                for (items, db) in [("owned", owned), ("borrowed", borrowed)] {
                    assert_eq!(
                        reference,
                        db.to_json().unwrap(),
                        "{items} items, budget={budget} jobs={jobs}"
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_reports_first_failing_module_in_stream_order() {
        let p = Pipeline::new(builtin::nmos25()).with_parallel_threshold(0);
        let bad = |name: &str| {
            let mut b = maestro_netlist::ModuleBuilder::new(name);
            let n = b.net("n");
            b.device("u1", "QUANTUM_GATE", [("A", n)]);
            b.finish()
        };
        let modules = [
            generate::counter(3),
            bad("bad_early"),
            generate::counter(4),
            bad("bad_late"),
        ];
        let serial = p.run_all(modules.iter()).unwrap_err();
        for jobs in [1, 4] {
            let err = p
                .run_all_streaming(modules.iter().cloned(), jobs, |_| Ok(()))
                .unwrap_err();
            assert_eq!(format!("{serial}"), format!("{err}"), "jobs={jobs}");
        }
    }

    #[test]
    fn unparsed_chunks_stream_like_their_parsed_modules() {
        let modules: Vec<_> = (2..10).map(generate::counter).collect();
        let text: String = modules.iter().map(mnl::to_mnl).collect();
        let reference = Pipeline::new(builtin::nmos25())
            .run_all(modules.iter())
            .expect("in-memory run")
            .to_json()
            .unwrap();
        let totals = StreamSummary {
            modules: modules.len(),
            devices: modules.iter().map(Module::device_count).sum(),
            nets: modules.iter().map(Module::net_count).sum(),
        };
        // A small budget cuts the chunks into several parallel waves.
        for budget in [DEFAULT_SHARD_NET_BUDGET, 8] {
            let p = Pipeline::new(builtin::nmos25())
                .with_shard_net_budget(budget)
                .with_parallel_threshold(0);
            for jobs in [1, 2, 8] {
                let mut db = ResultsDb::new();
                let summary = p
                    .run_all_streaming(mnl::chunks(&text), jobs, |rec| {
                        db.insert(rec);
                        Ok(())
                    })
                    .expect("chunks estimate");
                assert_eq!(summary, totals, "budget={budget} jobs={jobs}");
                assert_eq!(
                    db.to_json().unwrap(),
                    reference,
                    "budget={budget} jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn a_bad_chunk_stops_the_stream_after_the_records_before_it() {
        let modules: Vec<_> = (2..10).map(generate::counter).collect();
        let mut texts: Vec<String> = modules.iter().map(mnl::to_mnl).collect();
        texts[5] = texts[5].replacen(";\n", ";\nfrobnicate;\n", 1);
        let text = texts.concat();
        let expected = mnl::parse_design(&text).unwrap_err();
        assert!(expected.to_string().contains("frobnicate"), "{expected}");
        let p = Pipeline::new(builtin::nmos25())
            .with_shard_net_budget(8)
            .with_parallel_threshold(0);
        for jobs in [1, 2, 8] {
            let mut names = Vec::new();
            let err = p
                .run_all_streaming(mnl::chunks(&text), jobs, |rec| {
                    names.push(rec.module_name);
                    Ok(())
                })
                .unwrap_err();
            assert_eq!(err, expected, "jobs={jobs}");
            let before: Vec<&str> = modules[..5].iter().map(Module::name).collect();
            assert_eq!(names, before, "jobs={jobs}");
        }
    }

    #[test]
    fn streaming_sink_errors_stop_the_stream() {
        let p = Pipeline::new(builtin::nmos25());
        let modules: Vec<_> = (2..6).map(generate::counter).collect();
        let mut seen = 0;
        let err = p
            .run_all_streaming(modules.iter().cloned(), 1, |_| {
                seen += 1;
                if seen == 2 {
                    Err(NetlistError::invalid("sink full"))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(err.to_string().contains("sink full"));
        assert_eq!(seen, 2, "no records after the sink error");
    }

    /// A module, or an item whose parse panics.
    enum Risky {
        Fine(Box<Module>),
        Panics,
    }

    impl BatchItem for Risky {
        fn weight(&self) -> usize {
            match self {
                Risky::Fine(m) => m.net_count(),
                Risky::Panics => 1,
            }
        }

        fn module(&self) -> Result<Cow<'_, Module>, NetlistError> {
            match self {
                Risky::Fine(m) => Ok(Cow::Borrowed(m)),
                Risky::Panics => panic!("the item panicked"),
            }
        }
    }

    #[test]
    fn the_pool_stops_at_a_sink_error_across_waves() {
        // Budget 8: every counter is a wave of its own, so the error
        // lands while the next waves are queued.
        let p = Pipeline::new(builtin::nmos25()).with_shard_net_budget(8);
        let modules: Vec<_> = (2..20).map(generate::counter).collect();
        let mut names = Vec::new();
        let err = p
            .run_all_streaming(modules.iter(), 2, |rec| {
                names.push(rec.module_name);
                if names.len() == 5 {
                    Err(NetlistError::invalid("sink full"))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(err.to_string().contains("sink full"));
        let first: Vec<&str> = modules[..5].iter().map(Module::name).collect();
        assert_eq!(names, first, "records in order, none after the error");
    }

    #[test]
    fn a_panicking_item_panics_the_caller_after_the_records_before_it() {
        let p = Pipeline::new(builtin::nmos25()).with_shard_net_budget(8);
        let mut items: Vec<_> = (2..20)
            .map(|n| Risky::Fine(Box::new(generate::counter(n))))
            .collect();
        items.insert(6, Risky::Panics);
        let mut seen = 0;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            p.run_all_streaming(items.iter(), 2, |_| {
                seen += 1;
                Ok(())
            })
        }));
        let panic = outcome.expect_err("the panic reaches the caller");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"the item panicked"));
        assert_eq!(seen, 6, "the records before the panicking item");
    }

    #[test]
    fn pipeline_resolves_each_module_once_per_style() {
        use maestro_netlist::StatsCache;
        let cache = Arc::new(StatsCache::new());
        let p = Pipeline::new(builtin::nmos25()).with_stats_cache(Arc::clone(&cache));
        let module = generate::counter(4);
        p.run_module(&module).expect("estimates");
        let first = cache.stats();
        assert_eq!(first.misses, 2, "one resolve per style, both fresh");
        assert_eq!(first.hits, 0);
        p.run_module(&module).expect("estimates again");
        let second = cache.stats();
        assert_eq!(second.misses, 2, "re-running must not re-resolve");
        assert_eq!(second.hits, 2);
    }

    #[test]
    fn uncached_pipeline_matches_cached_byte_for_byte() {
        let modules = library_circuits::table1_suite();
        let cached = Pipeline::new(builtin::nmos25());
        let uncached = Pipeline::new(builtin::nmos25()).without_stats_cache();
        assert!(uncached.stats_cache().is_none());
        let a = cached.run_all(modules.iter()).expect("cached run");
        let b = uncached.run_all(modules.iter()).expect("uncached run");
        assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
    }

    #[test]
    fn replica_count_clamps_and_never_changes_estimates() {
        let base = Pipeline::new(builtin::nmos25());
        let with_replicas = Pipeline::new(builtin::nmos25()).with_replicas(4);
        assert_eq!(base.replicas(), 1);
        assert_eq!(with_replicas.replicas(), 4);
        assert_eq!(
            Pipeline::new(builtin::nmos25()).with_replicas(0).replicas(),
            1
        );
        // The closed-form estimator must be oblivious to the replica
        // count — it only parameterizes downstream annealing stages.
        let modules = [generate::counter(4), generate::ripple_adder(3)];
        let a = base.run_all(modules.iter()).expect("estimates");
        let b = with_replicas.run_all(modules.iter()).expect("estimates");
        assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
    }

    #[test]
    fn pipeline_populates_its_prob_table() {
        use crate::prob::ProbTable;
        use std::sync::Arc;
        let table = Arc::new(ProbTable::new());
        let p = Pipeline::new(builtin::nmos25()).with_prob_table(Arc::clone(&table));
        p.run_module(&generate::counter(4)).expect("estimates");
        let stats = table.stats();
        assert!(stats.misses > 0, "fresh table must be populated");
        assert!(
            stats.hits > stats.misses,
            "aspect sweep should mostly hit: {stats:?}"
        );
    }

    #[test]
    fn incremental_rerun_is_byte_identical_and_mostly_cached() {
        let results = Arc::new(ResultsCache::new());
        let p = Pipeline::new(builtin::nmos25())
            .with_stats_cache(Arc::new(StatsCache::new()))
            .with_results_cache(Arc::clone(&results));
        let modules = library_circuits::table1_suite();

        // Cold revision: everything is added, everything misses.
        let cold = p
            .run_all_incremental(&RevisionManifest::new(), modules.iter(), 1)
            .expect("cold run");
        assert_eq!(cold.diff.added.len(), modules.len());
        assert_eq!(results.stats().misses, modules.len() as u64);

        // Edit one module; the rerun serves the rest from the memo.
        let mut edited = modules.clone();
        edited[0] = generate::counter(7).renamed(edited[0].name());
        let warm = p
            .run_all_incremental(&cold.manifest, edited.iter(), 1)
            .expect("warm run");
        assert_eq!(warm.diff.modified, vec![edited[0].name().to_string()]);
        assert_eq!(warm.diff.unchanged.len(), modules.len() - 1);
        let stats = results.stats();
        assert_eq!(stats.hits, modules.len() as u64 - 1);
        assert_eq!(stats.misses, modules.len() as u64 + 1);

        // Byte-identical to a cold batch over the same revision.
        let reference = Pipeline::new(builtin::nmos25())
            .run_all(edited.iter())
            .expect("reference run");
        assert_eq!(
            warm.db.to_json().unwrap(),
            reference.to_json().unwrap(),
            "memoized records must replay the cold result exactly"
        );
    }

    #[test]
    fn results_cache_separates_params_and_tech_revisions() {
        let results = Arc::new(ResultsCache::new());
        let m = generate::ripple_adder(3);
        let a = Pipeline::new(builtin::nmos25()).with_results_cache(Arc::clone(&results));
        let b = Pipeline::new(builtin::nmos25())
            .with_sc_params(ScParams::with_rows(5))
            .with_results_cache(Arc::clone(&results));
        let ra = a.run_module(&m).expect("estimates");
        let rb = b.run_module(&m).expect("estimates");
        assert_ne!(
            ra.standard_cell.as_ref().map(|e| e.rows),
            rb.standard_cell.as_ref().map(|e| e.rows),
            "different params must not share a memo entry"
        );
        // Each pipeline wrapped its own tech: distinct revisions, so even
        // equal params would key separately.
        assert_eq!(results.stats().hits, 0);
        assert_eq!(results.stats().entries, 2);
    }
}
