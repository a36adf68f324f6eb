//! Shared command implementations behind both front ends.
//!
//! The one-shot CLI and the long-lived `serve` daemon must answer
//! identically — the serve replay suite asserts responses byte-for-byte
//! against one-shot stdout. The only way to keep that contract cheap is
//! to have a single implementation: each function here renders the exact
//! text the CLI prints (every line `\n`-terminated), the CLI writes it
//! to stdout and the daemon ships it as a response payload.

use std::borrow::{Borrow, Cow};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use maestro_estimator::pipeline::{BatchItem, IncrementalRun, Pipeline, StreamSummary};
use maestro_estimator::report::{EstimateRecord, ResultsDb};
use maestro_floorplan::{backend, Block, Floorplan, PlanParams};
use maestro_fullcustom::{synthesize, synthesize_seeded, SynthesisParams, WarmStore};
use maestro_netlist::{
    chip, expand, mnl, spice, LayoutStyle, Module, NetlistError, RevisionManifest, StatsCache,
};
use maestro_place::{place, PlaceParams};
use maestro_route::route;
use maestro_tech::{builtin, io as tech_io, ProcessDb};
use maestro_trace as trace;

/// Why a command stopped early.
#[derive(Debug)]
pub enum CommandError {
    /// An input, usage or gate failure, with the message to report.
    Failed(String),
    /// Writing the command's output failed.
    Write(std::io::Error),
}

impl From<String> for CommandError {
    fn from(message: String) -> Self {
        CommandError::Failed(message)
    }
}

impl From<&str> for CommandError {
    fn from(message: &str) -> Self {
        CommandError::Failed(message.to_owned())
    }
}

impl From<std::io::Error> for CommandError {
    fn from(e: std::io::Error) -> Self {
        CommandError::Write(e)
    }
}

/// Resolves a `--tech` spec: the built-in names or a process-DB JSON path.
pub fn load_tech(spec: &str) -> Result<ProcessDb, String> {
    match spec {
        "nmos" => Ok(builtin::nmos25()),
        "cmos" => Ok(builtin::cmos_generic()),
        path => tech_io::load(path).map_err(|e| e.to_string()),
    }
}

/// One schematic file's text, read whole; [`SchematicFile::modules`]
/// yields its modules for parsing on demand.
pub struct SchematicFile {
    path: String,
    source: String,
    spice: bool,
}

impl SchematicFile {
    /// Reads one schematic file, dispatching on extension: `.mnl` is the
    /// native structural format; `.sp`/`.spice`/`.cir` are SPICE-subset
    /// decks.
    pub fn read(path: &str) -> Result<SchematicFile, String> {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let ext = Path::new(path)
            .extension()
            .and_then(|e| e.to_str())
            .unwrap_or("");
        let spice = match ext {
            "mnl" => false,
            "sp" | "spice" | "cir" => true,
            other => {
                return Err(format!(
                    "{path}: unknown extension `.{other}` (expected .mnl, .sp, .spice or .cir)"
                ))
            }
        };
        Ok(SchematicFile {
            path: path.to_owned(),
            source,
            spice,
        })
    }

    /// The file's modules in order, as batch-engine items
    /// ([`StreamItem`]): a `.mnl` design cut into chunks for whoever
    /// estimates them to parse, or a SPICE deck parsed here, as one
    /// module, when the caller pulls it.
    pub fn modules(&self) -> Box<dyn Iterator<Item = StreamItem<'_>> + '_> {
        if self.spice {
            Box::new(std::iter::once_with(move || {
                StreamItem::Parsed(
                    spice::parse(&self.source)
                        .map(Box::new)
                        .map_err(|e| self.locate(e)),
                )
            }))
        } else {
            Box::new(
                mnl::chunks(&self.source).map(move |chunk| StreamItem::Chunk(&self.path, chunk)),
            )
        }
    }

    /// `error`, prefixed with this file's path.
    fn locate(&self, error: NetlistError) -> NetlistError {
        NetlistError::in_file(&self.path, error)
    }
}

/// One item of a streamed estimate ([`estimate_stream`]).
pub enum StreamItem<'a> {
    /// A `.mnl` module still in text form, with its file's path: the
    /// engine worker that estimates it parses it, and a parse error
    /// reads `FILE: line N: …`.
    Chunk(&'a str, mnl::Chunk<'a>),
    /// A module parsed up front (a SPICE deck, a generated chip module),
    /// or the error its parse hit, reported in its place. Boxed, so a
    /// queued chunk stays small.
    Parsed(Result<Box<Module>, NetlistError>),
}

impl BatchItem for StreamItem<'_> {
    fn weight(&self) -> usize {
        match self {
            StreamItem::Chunk(_, chunk) => chunk.weight(),
            StreamItem::Parsed(Ok(module)) => module.weight(),
            StreamItem::Parsed(Err(_)) => 0,
        }
    }

    fn module(&self) -> Result<Cow<'_, Module>, NetlistError> {
        match self {
            StreamItem::Chunk(path, chunk) => {
                chunk.module().map_err(|e| NetlistError::in_file(*path, e))
            }
            StreamItem::Parsed(Ok(module)) => module.module(),
            StreamItem::Parsed(Err(e)) => Err(e.clone()),
        }
    }
}

/// Loads the modules of one schematic file (see [`SchematicFile`]),
/// parsed in order; the first error, `FILE: `-prefixed, ends the load.
pub fn load_modules(path: &str) -> Result<Vec<Module>, String> {
    SchematicFile::read(path)?
        .modules()
        .map(|item| {
            item.module()
                .map(Cow::into_owned)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Parses one inline `.mnl` source (serve requests carry schematics in
/// the request body as well as by path).
pub fn parse_inline_mnl(source: &str) -> Result<Vec<Module>, String> {
    mnl::parse_design(source).map_err(|e| format!("inline mnl: {e}"))
}

/// Runs the estimate batch and renders the CLI's output for it: the
/// results-database JSON (with `--json`) or the per-module text table.
pub fn estimate_output<M: Borrow<Module>>(
    pipeline: &Pipeline,
    modules: &[M],
    jobs: usize,
    json: bool,
) -> Result<String, String> {
    // `jobs` fans the batch over worker threads; the merged database
    // (and its JSON) is identical to the serial run's.
    let db = pipeline
        .run_all_parallel(modules.iter().map(Borrow::borrow), jobs)
        .map_err(|e| e.to_string())?;
    render_estimate_db(&db, json)
}

/// Renders a results database the way the estimate command prints it:
/// the database JSON (with `--json`) or the per-module text table. The
/// cold and incremental estimate paths both end here, which is what makes
/// their outputs byte-identical.
pub fn render_estimate_db(db: &ResultsDb, json: bool) -> Result<String, String> {
    let _span = trace::span("estimate.render");
    if json {
        return Ok(format!("{}\n", db.to_json().map_err(|e| e.to_string())?));
    }
    let mut out = String::new();
    for rec in db.records() {
        out.push_str(&estimate_record_text(rec));
    }
    Ok(out)
}

/// Runs the estimate batch incrementally against a previous revision
/// manifest and renders the same output as [`estimate_output`]. The
/// returned [`IncrementalRun`] carries the classified diff and the new
/// manifest for the caller to persist for the next round.
pub fn estimate_output_incremental<M: Borrow<Module>>(
    pipeline: &Pipeline,
    prev: &RevisionManifest,
    modules: &[M],
    jobs: usize,
    json: bool,
) -> Result<(String, IncrementalRun), String> {
    let run = pipeline
        .run_all_incremental(prev, modules.iter().map(Borrow::borrow), jobs)
        .map_err(|e| e.to_string())?;
    let text = render_estimate_db(&run.db, json)?;
    Ok((text, run))
}

/// The per-module block of the estimate text table — the one renderer both
/// the in-memory path ([`estimate_output`]) and the streaming path
/// ([`estimate_stream`]) print, so their outputs are byte-identical by
/// construction.
pub fn estimate_record_text(rec: &EstimateRecord) -> String {
    let mut out = String::new();
    writeln!(out, "module `{}`", rec.module_name).expect("string write");
    if let Some(sc) = &rec.standard_cell {
        writeln!(
            out,
            "  standard-cell: {} ({} rows, {} tracks, {} feed-throughs, aspect {})",
            sc.area, sc.rows, sc.tracks, sc.feedthroughs, sc.aspect_ratio
        )
        .expect("string write");
    }
    if let Some(fc) = &rec.full_custom {
        writeln!(
            out,
            "  full-custom  : {} exact / {} average (aspect {})",
            fc.total_exact, fc.total_average, fc.aspect_exact
        )
        .expect("string write");
    }
    out
}

/// Runs the estimate batch through [`Pipeline::run_all_streaming`],
/// writing each module's result to `out` in stream order as its wave
/// completes: the text block of [`estimate_record_text`], or (with
/// `json`) one compact JSON record per line. Peak memory holds one wave
/// of items, never the whole batch or its results — this is the path
/// that digests million-device chips.
///
/// An item may fail to parse, as a `.mnl` chunk with a syntax error
/// does. That is an ordinary engine error: the records of every item
/// before it are written, then the error is returned, the order the
/// engine keeps for an estimation error. `out` is flushed on success and
/// on failure alike, so a buffered writer loses nothing. A failed write
/// stops the stream too, and is returned as [`CommandError::Write`].
pub fn estimate_stream<I, W>(
    pipeline: &Pipeline,
    items: I,
    jobs: usize,
    json: bool,
    out: &mut W,
) -> Result<StreamSummary, CommandError>
where
    I: IntoIterator,
    I::Item: BatchItem,
    W: std::io::Write,
{
    // A sink error stops the engine. A failed write is kept and returned
    // as itself, so it is never reported as a netlist error.
    let mut write_error = None;
    let summary = pipeline.run_all_streaming(items, jobs, |rec| {
        let rendered = if json {
            let mut line = serde_json::to_string(&rec)
                .map_err(|e| NetlistError::invalid(format!("record serialization: {e}")))?;
            line.push('\n');
            line
        } else {
            estimate_record_text(&rec)
        };
        out.write_all(rendered.as_bytes()).map_err(|e| {
            write_error = Some(e);
            NetlistError::invalid("output closed")
        })
    });
    let flushed = out.flush();
    if let Some(e) = write_error {
        return Err(e.into());
    }
    let summary = summary.map_err(|e| e.to_string())?;
    flushed?;
    Ok(summary)
}

/// Renders a generated chip spec's one-line summary.
pub fn generate_summary(spec: &chip::ChipSpec) -> String {
    format!("{spec}\n")
}

/// Streams a generated chip to `path` as a `.mnl` design, one module at a
/// time (a million-device chip never exists in memory as a whole).
pub fn write_generated_mnl(spec: &chip::ChipSpec, path: &str) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    for module in spec.modules() {
        w.write_all(mnl::to_mnl(&module).as_bytes())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    w.flush().map_err(|e| format!("{path}: {e}"))
}

/// Renders the gate-level → nMOS transistor expansion of one module.
pub fn expand_output(module: &Module) -> Result<String, String> {
    let xt = expand::to_nmos_transistors(module).map_err(|e| e.to_string())?;
    Ok(mnl::to_mnl(&xt))
}

/// One laid-out module: the CLI summary line plus the drawing when asked.
pub struct LayoutOutcome {
    /// The `\n`-terminated summary line the CLI prints.
    pub summary: String,
    /// The SVG drawing, rendered only when requested.
    pub svg: Option<String>,
}

/// How [`layout_module`] lays `module` out: by place & route
/// ([`LayoutStyle::StandardCell`]) when the technology's cell tables
/// resolve it, by full-custom synthesis otherwise. Only a full-custom
/// layout reads a [`WarmStore`]; a standard-cell one ignores `warm`.
///
/// Probing via the resolve-once cache means `place` re-uses this very
/// resolution instead of re-scanning the module.
pub fn layout_style(module: &Module, tech: &ProcessDb, cache: &StatsCache) -> LayoutStyle {
    match cache.resolve(module, tech, LayoutStyle::StandardCell) {
        Ok(_) => LayoutStyle::StandardCell,
        Err(_) => LayoutStyle::FullCustom,
    }
}

/// Lays out one module — place & route for gate-level schematics,
/// full-custom synthesis for transistor-level ones, decided by
/// [`layout_style`] — and renders the CLI summary line.
///
/// With `warm`, full-custom synthesis seeds from the store's last winning
/// solution for this module (keyed by name and technology revision) and
/// threads the new winner back in — the serve daemon's ECO path. `None`
/// (the one-shot CLI) is bit-identical to the historical cold behaviour.
pub fn layout_module(
    module: &Module,
    tech: &ProcessDb,
    cache: &StatsCache,
    rows: Option<u32>,
    replicas: usize,
    want_svg: bool,
    warm: Option<&WarmStore>,
) -> Result<LayoutOutcome, String> {
    if layout_style(module, tech, cache) == LayoutStyle::StandardCell {
        let rows = rows.unwrap_or(2);
        let placed = place(
            module,
            tech,
            &PlaceParams {
                rows,
                replicas,
                ..Default::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let routed = route(&placed);
        let svg = want_svg.then(|| maestro_route::assemble::render_svg(&placed, &routed));
        Ok(LayoutOutcome {
            summary: format!(
                "`{}` standard-cell P&R: {} × {} = {} ({} tracks, {} feed-throughs, aspect {})\n",
                module.name(),
                routed.width(),
                routed.height(),
                routed.area(),
                routed.total_tracks(),
                routed.feedthroughs(),
                routed.aspect_ratio()
            ),
            svg,
        })
    } else {
        let params = SynthesisParams {
            replicas,
            ..Default::default()
        };
        let layout = if let Some(store) = warm {
            let revision = tech.revision().id();
            let seed = store.get(module.name(), revision);
            let (layout, winner) = synthesize_seeded(module, tech, &params, seed.as_ref())
                .map_err(|e| e.to_string())?;
            store.put(module.name(), revision, winner);
            layout
        } else {
            synthesize(module, tech, &params).map_err(|e| e.to_string())?
        };
        let svg = want_svg.then(|| layout.to_svg());
        Ok(LayoutOutcome {
            summary: format!(
                "`{}` full-custom synthesis: {} × {} + {} wire = {} (aspect {})\n",
                module.name(),
                layout.width(),
                layout.height(),
                layout.wire_area(),
                layout.area(),
                layout.aspect_ratio()
            ),
            svg,
        })
    }
}

/// Renders the logic-depth line for one module.
pub fn depth_output(module: &Module) -> Result<String, String> {
    let report = maestro_netlist::depth::logic_depth(module).map_err(|e| e.to_string())?;
    let path: Vec<String> = report
        .critical_path
        .iter()
        .map(|&d| module.device(d).name().to_owned())
        .collect();
    Ok(format!(
        "`{}`: logic depth {} ({})\n",
        module.name(),
        report.depth,
        path.join(" -> ")
    ))
}

fn plan_params(pipeline: &Pipeline, aspect: Option<f64>) -> PlanParams {
    let mut params = PlanParams {
        replicas: pipeline.replicas(),
        ..PlanParams::default()
    };
    if let Some(limit) = aspect {
        params = params.with_aspect_limit(limit);
    }
    params
}

/// Resolves the pipeline's named floorplan backend against the registry.
fn plan_backend(
    pipeline: &Pipeline,
    aspect: Option<f64>,
) -> Result<Box<dyn maestro_floorplan::FloorplanBackend>, String> {
    let name = pipeline.floorplan_backend();
    backend::by_name(name, &plan_params(pipeline, aspect))
        .ok_or_else(|| format!("unknown floorplan backend `{name}`"))
}

/// Renders the markdown design report. The floorplan the `## chip
/// floorplan` section (emitted when more than one block shaped) was built
/// from is returned alongside, so the CLI can draw it.
pub fn report_output<M: Borrow<Module>>(
    pipeline: &Pipeline,
    modules: &[M],
    aspect: Option<f64>,
    jobs: usize,
) -> Result<(String, Option<Floorplan>), String> {
    let mut out = String::new();
    writeln!(out, "# maestro design report\n").expect("string write");
    writeln!(out, "process: `{}`\n", pipeline.tech()).expect("string write");
    // The estimation stage fans out over `jobs` workers; records come back
    // in module order and byte-identical to the serial run, so the
    // rendered report is jobs-invariant. The sink keeps one record per
    // module, even where two modules share a name, so each section pairs
    // a module with its own estimate.
    let mut records = Vec::with_capacity(modules.len());
    pipeline
        .run_all_streaming(modules.iter().map(Borrow::borrow), jobs, |record| {
            records.push(record);
            Ok(())
        })
        .map_err(|e| e.to_string())?;
    let mut blocks = Vec::new();
    for (module, record) in modules.iter().map(Borrow::borrow).zip(&records) {
        writeln!(out, "## module `{}`\n", record.module_name).expect("string write");
        writeln!(
            out,
            "- devices: {}, nets: {}, ports: {}",
            module.device_count(),
            module.net_count(),
            module.port_count()
        )
        .expect("string write");
        if let Ok(depth) = maestro_netlist::depth::logic_depth(module) {
            writeln!(out, "- logic depth: {} stages", depth.depth).expect("string write");
        }
        if let Some(sc) = &record.standard_cell {
            writeln!(
                out,
                "- standard-cell estimate: {} ({} rows, {} tracks, aspect {})",
                sc.area, sc.rows, sc.tracks, sc.aspect_ratio
            )
            .expect("string write");
            if !record.standard_cell_candidates.is_empty() {
                writeln!(out, "- shape candidates:").expect("string write");
                for c in &record.standard_cell_candidates {
                    writeln!(
                        out,
                        "    - {} rows: {} × {} = {} (aspect {})",
                        c.rows, c.width, c.height, c.area, c.aspect_ratio
                    )
                    .expect("string write");
                }
            }
        }
        if let Some(fc) = &record.full_custom {
            writeln!(
                out,
                "- full-custom estimate: {} exact / {} average (aspect {})",
                fc.total_exact, fc.total_average, fc.aspect_exact
            )
            .expect("string write");
        }
        writeln!(out).expect("string write");
        if let Some(block) = Block::from_record(record, 5) {
            blocks.push(block);
        }
    }
    if blocks.len() > 1 {
        let plan = plan_backend(pipeline, aspect)?.plan(&blocks, None).plan;
        writeln!(out, "## chip floorplan\n").expect("string write");
        writeln!(
            out,
            "- chip: {} × {} = {} (utilization {:.0}%)",
            plan.width(),
            plan.height(),
            plan.area(),
            plan.utilization() * 100.0
        )
        .expect("string write");
        for (name, rect) in plan.placements() {
            writeln!(out, "- `{name}` at {rect}").expect("string write");
        }
        Ok((out, Some(plan)))
    } else {
        Ok((out, None))
    }
}

/// Shapes every module into a block, floorplans the chip, and renders the
/// CLI's chip + placements text. The plan is returned alongside so the
/// CLI can draw it.
pub fn floorplan_output<M: Borrow<Module>>(
    pipeline: &Pipeline,
    modules: &[M],
    aspect: Option<f64>,
) -> Result<(String, Floorplan), String> {
    // One estimator pass per module; the pipeline's resolve-once cache
    // carries the analysis into any later layout commands. The sink keeps
    // one block per module, even where two modules share a name.
    let mut blocks = Vec::new();
    pipeline
        .run_all_streaming(modules.iter().map(Borrow::borrow), 1, |record| {
            blocks.extend(Block::from_record(&record, 5));
            Ok(())
        })
        .map_err(|e| e.to_string())?;
    let plan = plan_backend(pipeline, aspect)?.plan(&blocks, None).plan;
    let mut out = String::new();
    writeln!(
        out,
        "chip {} × {} = {} (utilization {:.0}%)",
        plan.width(),
        plan.height(),
        plan.area(),
        plan.utilization() * 100.0
    )
    .expect("string write");
    for (name, rect) in plan.placements() {
        writeln!(out, "  {name:<24} {rect}").expect("string write");
    }
    Ok((out, plan))
}
