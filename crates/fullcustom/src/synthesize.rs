//! The layout-synthesis driver: tiles → annealed slicing floorplan →
//! wiring allocation → the "real" full-custom module.

use maestro_geom::{AspectRatio, Lambda, LambdaArea, Rect};
use maestro_netlist::{DeviceId, LayoutStyle, Module, NetlistError, StatsCache};
use maestro_place::postfix::{Move, PolishExpr};
use maestro_place::{anneal_replicas, AnnealSchedule, AnnealState, EvalMode, HpwlJournal, Walk};
use maestro_tech::ProcessDb;
use maestro_trace as trace;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::polish::{evaluate, DeltaEval, Evaluated};
use crate::wiring;

/// Weight of the wirelength term relative to bounding area (λ of HPWL
/// per λ² of area).
const WIRE_WEIGHT: f64 = 2.0;

/// Weight of the elongation penalty. Aspect ratios beyond 2:1 scale the
/// area term by `1 + ASPECT_WEIGHT * (aspect − 2)`: manual layouts in the
/// paper's Table 1 all fall between 1:1 and 2:1, so the synthesizer is
/// steered away from degenerate strip layouts that a pure area +
/// wirelength cost is indifferent to.
const ASPECT_WEIGHT: f64 = 0.15;

/// Parameters of a synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisParams {
    /// Annealing seed.
    pub seed: u64,
    /// Cooling schedule.
    pub schedule: AnnealSchedule,
    /// Independently seeded annealing walks to run and reduce best-of
    /// (`1` = single walk, bit-identical to the pre-replica engine).
    pub replicas: usize,
}

impl Default for SynthesisParams {
    fn default() -> Self {
        SynthesisParams {
            seed: 1988,
            schedule: AnnealSchedule::default(),
            replicas: 1,
        }
    }
}

impl SynthesisParams {
    /// A short schedule for tests.
    pub fn quick() -> Self {
        SynthesisParams {
            schedule: AnnealSchedule::quick(),
            ..SynthesisParams::default()
        }
    }
}

/// The reusable outcome of one synthesis anneal: the winning Polish
/// expression and its cost, for warm-starting the next synthesis of a
/// (possibly edited) revision of the same module.
///
/// A seed is advisory — [`synthesize_seeded`] validates it against the
/// new tile set and falls back to a cold start when the module's device
/// count changed or the expression no longer parses as a valid slicing
/// tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthSeed {
    expr: PolishExpr,
    cost: f64,
}

impl SynthSeed {
    /// Number of tiles the seed's expression places.
    pub fn tile_count(&self) -> usize {
        self.expr.operand_count()
    }

    /// The annealing cost the seed's expression achieved.
    pub fn cost(&self) -> f64 {
        self.cost
    }
}

/// A synthesized full-custom layout: the "real" columns of Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FcLayout {
    module_name: String,
    width: Lambda,
    height: Lambda,
    device_area: LambdaArea,
    wire_area: LambdaArea,
    placements: Vec<maestro_geom::Rect>,
}

impl FcLayout {
    /// Module name.
    pub fn module_name(&self) -> &str {
        &self.module_name
    }

    /// Layout width (tile bounding box).
    pub fn width(&self) -> Lambda {
        self.width
    }

    /// Layout height (tile bounding box).
    pub fn height(&self) -> Lambda {
        self.height
    }

    /// Total "real" module area: tile bounding box plus allocated wiring.
    pub fn area(&self) -> LambdaArea {
        self.width * self.height + self.wire_area
    }

    /// Σ device tile areas.
    pub fn device_area(&self) -> LambdaArea {
        self.device_area
    }

    /// Wiring area allocated from placed net extents.
    pub fn wire_area(&self) -> LambdaArea {
        self.wire_area
    }

    /// Whitespace inside the bounding box (box − devices).
    pub fn whitespace(&self) -> LambdaArea {
        self.width * self.height - self.device_area
    }

    /// Real aspect ratio of the synthesized layout, wiring distributed
    /// proportionally (the reported shape matches the placed bounding
    /// box).
    pub fn aspect_ratio(&self) -> AspectRatio {
        AspectRatio::of(self.width, self.height)
    }

    /// Per-device tile placements, indexed like the module's devices.
    pub fn placements(&self) -> &[maestro_geom::Rect] {
        &self.placements
    }

    /// Renders the layout as an SVG sketch: one labelled rectangle per
    /// transistor tile inside the bounding box.
    pub fn to_svg(&self) -> String {
        use maestro_geom::svg::SvgDocument;
        let mut doc = SvgDocument::new(self.width.max(Lambda::ONE), self.height.max(Lambda::ONE))
            .with_scale(4.0);
        for (i, r) in self.placements.iter().enumerate() {
            doc.rect(*r, "#a3d9a5", Some(&format!("q{i}")));
        }
        doc.finish()
    }
}

/// The annealing state over Polish expressions.
#[derive(Clone)]
struct SynthState<'m> {
    module: &'m Module,
    tiles: Vec<(Lambda, Lambda)>,
    expr: PolishExpr,
    /// Incremental evaluation of `expr`.
    eval: DeltaEval,
    /// Each net's component tiles, in module net order, and their cached
    /// HPWL.
    hpwl: HpwlJournal,
    undo: Option<Move>,
}

impl<'m> SynthState<'m> {
    /// The serpentine expression over `module`'s device tiles. Every
    /// device's template must resolve in `tech`'s transistor table.
    fn new(module: &'m Module, tech: &ProcessDb) -> SynthState<'m> {
        let tiles: Vec<(Lambda, Lambda)> = (0..module.device_count())
            .map(|i| {
                let d = module.device(DeviceId::new(i as u32));
                let t = tech.device(d.template()).expect("resolved above");
                (t.width(), t.height())
            })
            .collect();
        let expr = PolishExpr::initial(tiles.len());
        let nets = module
            .nets()
            .map(|(_, net)| net.components().iter().map(|d| d.index() as u32).collect())
            .collect();
        SynthState {
            module,
            hpwl: HpwlJournal::new(tiles.len(), nets),
            eval: DeltaEval::new(&expr, &tiles),
            tiles,
            expr,
            undo: None,
        }
    }

    /// Area term of the cost: bounding area scaled by the elongation
    /// penalty. Shared by both evaluation modes so they stay
    /// bit-identical.
    fn box_cost(&self, width: Lambda, height: Lambda, area: LambdaArea) -> f64 {
        let (w, h) = (width.as_f64(), height.as_f64());
        let aspect = if w > 0.0 && h > 0.0 {
            w.max(h) / w.min(h)
        } else {
            1.0
        };
        let elongation = 1.0 + ASPECT_WEIGHT * (aspect - 2.0).max(0.0);
        area.as_f64() * elongation
    }

    fn evaluate_cost(&self, eval: &Evaluated) -> f64 {
        let mut hpwl = 0.0f64;
        for (_, net) in self.module.nets() {
            let comps = net.components();
            if comps.len() < 2 {
                continue;
            }
            let mut min_x = f64::MAX;
            let mut max_x = f64::MIN;
            let mut min_y = f64::MAX;
            let mut max_y = f64::MIN;
            for d in comps {
                let r = eval.placements[d.index()];
                let cx = r.origin().x.as_f64() + r.width().as_f64() / 2.0;
                let cy = r.origin().y.as_f64() + r.height().as_f64() / 2.0;
                min_x = min_x.min(cx);
                max_x = max_x.max(cx);
                min_y = min_y.min(cy);
                max_y = max_y.max(cy);
            }
            hpwl += (max_x - min_x) + (max_y - min_y);
        }
        self.box_cost(eval.width, eval.height, eval.area()) + WIRE_WEIGHT * hpwl
    }

    /// Cost from the journal's exact HPWL total, which equals the
    /// reference's ordered sum bit for bit.
    fn delta_cost(&self) -> f64 {
        self.box_cost(self.eval.width(), self.eval.height(), self.eval.area())
            + WIRE_WEIGHT * self.hpwl.total()
    }
}

impl AnnealState for SynthState<'_> {
    type Touched = Move;

    fn apply(&mut self, rng: &mut StdRng) -> Option<Move> {
        // Every move draws one index in `0..n`; the expression reduces it
        // modulo the move's candidate count.
        let n = self.expr.operand_count();
        let kind = rng.gen_range(0..4u8);
        let nth = rng.gen_range(0..n);
        let pick = |count: usize| nth % count;
        let mv = match kind {
            0 => self.expr.swap_adjacent_operands(pick),
            1 => self.expr.complement_chain(pick),
            2 => self.expr.swap_operand_operator(pick),
            _ => self.expr.flip_rotation(nth),
        };
        self.undo = Some(mv);
        (mv != Move::Nothing).then_some(mv)
    }

    fn undo(&mut self) {
        self.expr
            .undo(self.undo.take().expect("revert without move"));
    }

    /// The whole expression and every net from scratch.
    fn full_cost(&self) -> f64 {
        self.evaluate_cost(&evaluate(&self.expr, &self.tiles))
    }

    fn rebuild(&mut self) -> f64 {
        self.eval.rebuild(&self.expr, &self.tiles);
        self.hpwl.rebuild(tile_centre(self.eval.placements()));
        self.delta_cost()
    }

    /// Updates the covering subtree's dimensions and origins, then
    /// recomputes only the nets incident to tiles whose placement
    /// actually moved.
    fn update(&mut self, mv: Move) -> f64 {
        // Element-position span touched by the move; a rotation leaves its
        // operand in place, so its position is still current.
        let (lo, hi) = match mv {
            Move::Rotate(tile) => {
                let p = self.eval.tile_pos(tile);
                (p, p)
            }
            mv => mv.span().expect("only a rotation rewrites no element"),
        };
        self.hpwl.begin();
        self.eval.update(&self.expr, &self.tiles, lo, hi);
        for &t in self.eval.changed_tiles() {
            self.hpwl.mark(t);
        }
        self.hpwl.settle(tile_centre(self.eval.placements()));
        self.delta_cost()
    }

    fn restore(&mut self) {
        self.eval.revert();
        self.hpwl.revert();
    }
}

/// The journal's centre lookup over placed tiles.
fn tile_centre(placements: &[Rect]) -> impl Fn(u32) -> (f64, f64) + '_ {
    |t| {
        let r = placements[t as usize];
        (
            r.origin().x.as_f64() + r.width().as_f64() / 2.0,
            r.origin().y.as_f64() + r.height().as_f64() / 2.0,
        )
    }
}

/// Synthesizes a dense full-custom layout for a transistor-level module.
///
/// # Errors
///
/// Returns [`NetlistError::UnknownTemplate`] if a device's template is not
/// in the technology's transistor table, or [`NetlistError::Invalid`] for
/// an empty module.
pub fn synthesize(
    module: &Module,
    tech: &ProcessDb,
    params: &SynthesisParams,
) -> Result<FcLayout, NetlistError> {
    synthesize_with(module, tech, params, EvalMode::Delta)
}

/// [`synthesize`] with an optional warm-start seed from a prior run.
///
/// The seed's expression joins the best-of-replicas reduction as one
/// *extra* walk (see `anneal_replicas`): the cold walks run exactly
/// as an unseeded [`synthesize`] would, so the result is never worse —
/// in cost — than either the unseeded run at the same parameters or the
/// seed itself. A seed whose tile count no longer matches the module (a
/// device was added or dropped) or whose expression is invalid is
/// rejected, counted by `fullcustom.warm_rejected`, and the run proceeds
/// cold; accepted seeds count `fullcustom.warm_start`.
///
/// Returns the layout plus the winning [`SynthSeed`] to feed into the
/// next revision's synthesis.
///
/// # Errors
///
/// As [`synthesize`].
pub fn synthesize_seeded(
    module: &Module,
    tech: &ProcessDb,
    params: &SynthesisParams,
    seed: Option<&SynthSeed>,
) -> Result<(FcLayout, SynthSeed), NetlistError> {
    synthesize_with_seed(module, tech, params, seed, EvalMode::Delta)
}

/// [`synthesize`] on the full-refresh reference path: every move and
/// revert re-evaluates the whole expression and every net. Output is
/// bit-identical to [`synthesize`]; kept (and exercised by the
/// differential suite) to pin the delta evaluator to the original
/// semantics.
#[doc(hidden)]
pub fn synthesize_full_refresh(
    module: &Module,
    tech: &ProcessDb,
    params: &SynthesisParams,
) -> Result<FcLayout, NetlistError> {
    synthesize_with(module, tech, params, EvalMode::Full)
}

fn synthesize_with(
    module: &Module,
    tech: &ProcessDb,
    params: &SynthesisParams,
    mode: EvalMode,
) -> Result<FcLayout, NetlistError> {
    synthesize_with_seed(module, tech, params, None, mode).map(|(layout, _)| layout)
}

fn synthesize_with_seed(
    module: &Module,
    tech: &ProcessDb,
    params: &SynthesisParams,
    warm: Option<&SynthSeed>,
    mode: EvalMode,
) -> Result<(FcLayout, SynthSeed), NetlistError> {
    if module.device_count() == 0 {
        return Err(NetlistError::invalid("cannot lay out an empty module"));
    }
    let _synth_span = trace::span_with("fullcustom.synthesize", || module.name().to_owned());
    trace::counter("fullcustom.devices", module.device_count() as u64);
    // Served from the shared resolve-once cache: synthesis after an
    // estimate of the same module re-uses the estimate's analysis.
    let stats = StatsCache::shared().resolve(module, tech, LayoutStyle::FullCustom)?;
    let mut walk = Walk::new(SynthState::new(module, tech), mode);
    let work_size = walk.state().tiles.len();
    // An accepted seed becomes one extra annealing walk; the cold walks
    // below run exactly as an unseeded synthesis would, so seeding can
    // only improve the reduced cost, which never exceeds the start's.
    let warm_state = warm.and_then(|seed| {
        if seed.expr.operand_count() == work_size && seed.expr.is_valid() {
            trace::counter("fullcustom.warm_start", 1);
            let mut w = walk.state().clone();
            w.expr = seed.expr.clone();
            Some(w)
        } else {
            trace::counter("fullcustom.warm_rejected", 1);
            None
        }
    });
    anneal_replicas(
        &mut walk,
        warm_state,
        &params.schedule,
        params.seed,
        params.replicas,
        64,
        work_size,
    );

    // The reference evaluation of the winning expression, which the
    // delta path's caches equal bit for bit.
    let state = walk.state();
    let eval = evaluate(&state.expr, &state.tiles);
    let wire_area = wiring::wiring_area(
        module,
        &eval,
        tech.rules()
            .wire_pitch(maestro_geom::design_rules::Layer::Metal1),
    );
    let winning_seed = SynthSeed {
        expr: state.expr.clone(),
        cost: walk.cost(),
    };
    Ok((
        FcLayout {
            module_name: module.name().to_owned(),
            width: eval.width,
            height: eval.height,
            device_area: stats.total_device_area(),
            wire_area,
            placements: eval.placements,
        },
        winning_seed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_netlist::{generate, library_circuits};
    use maestro_tech::builtin;

    #[test]
    fn layout_contains_all_devices() {
        let m = library_circuits::nmos_decoder2to4();
        let l = synthesize(&m, &builtin::nmos25(), &SynthesisParams::quick()).unwrap();
        assert!(l.area() >= l.device_area());
        assert!(l.whitespace().get() >= 0);
        assert!(l.width().is_positive() && l.height().is_positive());
    }

    #[test]
    fn synthesis_is_deterministic() {
        let m = library_circuits::nmos_full_adder();
        let tech = builtin::nmos25();
        let a = synthesize(&m, &tech, &SynthesisParams::quick()).unwrap();
        let b = synthesize(&m, &tech, &SynthesisParams::quick()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn one_replica_matches_the_default_path_and_four_are_deterministic() {
        let m = library_circuits::nmos_full_adder();
        let tech = builtin::nmos25();
        let one = synthesize(&m, &tech, &SynthesisParams::quick()).unwrap();
        let explicit_one = synthesize(
            &m,
            &tech,
            &SynthesisParams {
                replicas: 1,
                ..SynthesisParams::quick()
            },
        )
        .unwrap();
        assert_eq!(one, explicit_one);

        let four_params = SynthesisParams {
            replicas: 4,
            ..SynthesisParams::quick()
        };
        let a = synthesize(&m, &tech, &four_params).unwrap();
        let b = synthesize(&m, &tech, &four_params).unwrap();
        assert_eq!(a, b, "replicas=4 must be reproducible");
    }

    #[test]
    fn annealed_layout_is_reasonably_dense() {
        // A competent manual-style layout packs ≥ 40 % device utilization
        // inside the bounding box for these small regular circuits.
        let tech = builtin::nmos25();
        for m in library_circuits::table1_suite() {
            let l = synthesize(&m, &tech, &SynthesisParams::default()).unwrap();
            let util = l.device_area().as_f64() / (l.width() * l.height()).as_f64();
            assert!(
                util >= 0.4,
                "{}: utilization {util:.2} too low ({} × {})",
                m.name(),
                l.width(),
                l.height()
            );
        }
    }

    #[test]
    fn aspect_ratio_is_moderate_after_annealing() {
        // Manual layouts fall "in the range from 1:1 to 1:2" (paper §6);
        // the annealer should land within a generous version of that band.
        let tech = builtin::nmos25();
        let m = library_circuits::nmos_shift_register(3);
        let l = synthesize(&m, &tech, &SynthesisParams::default()).unwrap();
        assert!(
            l.aspect_ratio().normalized().as_f64() <= 3.0,
            "aspect {} too extreme",
            l.aspect_ratio()
        );
    }

    #[test]
    fn two_component_chain_has_minimal_wire_area() {
        // The pass chain's nets connect abutting devices, so synthesized
        // wiring is small relative to device area.
        let tech = builtin::nmos25();
        let m = library_circuits::pass_chain(8);
        let l = synthesize(&m, &tech, &SynthesisParams::default()).unwrap();
        assert!(
            l.wire_area().as_f64() <= 0.6 * l.device_area().as_f64(),
            "wire {} vs devices {}",
            l.wire_area(),
            l.device_area()
        );
    }

    #[test]
    fn svg_has_one_tile_per_device() {
        let m = library_circuits::nmos_decoder2to4();
        let l = synthesize(&m, &builtin::nmos25(), &SynthesisParams::quick()).unwrap();
        assert_eq!(l.placements().len(), m.device_count());
        let svg = l.to_svg();
        // Background rect + one per tile.
        assert_eq!(svg.matches("<rect").count(), m.device_count() + 1);
        // Tiles stay disjoint in the rendered layout too.
        for (i, a) in l.placements().iter().enumerate() {
            for b in &l.placements()[i + 1..] {
                assert!(!a.overlaps_strictly(*b), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn tiny_modules_synthesize_under_long_schedules() {
        // One- and two-device modules must survive the full default
        // schedule (tens of thousands of proposed moves): most move
        // kinds are no-ops there, and every index draw must stay in
        // bounds.
        let tech = builtin::nmos25();
        for stages in [1, 2] {
            let m = library_circuits::pass_chain(stages);
            let l = synthesize(&m, &tech, &SynthesisParams::default()).unwrap();
            assert_eq!(l.placements().len(), stages);
            assert!(l.width().is_positive() && l.height().is_positive());
        }
    }

    #[test]
    fn delta_matches_full_refresh_quick() {
        // Smoke-level differential; the full default-schedule sweep over
        // `table1_suite()` lives in `tests/differential.rs`.
        let tech = builtin::nmos25();
        for m in [
            library_circuits::pass_chain(1),
            library_circuits::pass_chain(5),
            library_circuits::nmos_full_adder(),
        ] {
            let delta = synthesize(&m, &tech, &SynthesisParams::quick()).unwrap();
            let full = synthesize_full_refresh(&m, &tech, &SynthesisParams::quick()).unwrap();
            assert_eq!(delta, full, "{} diverged", m.name());
        }
    }

    #[test]
    fn every_move_and_revert_prices_like_the_reference() {
        // Per move, not only per run: the delta cost after each move and
        // each revert equals a from-scratch evaluation of the same
        // expression. One- and two-tile modules make most moves no-ops.
        let tech = builtin::nmos25();
        let modules = [
            library_circuits::pass_chain(1),
            library_circuits::pass_chain(2),
        ]
        .into_iter()
        .chain((1..=20).map(|gates| generate::random_nmos_logic(gates as u64, gates)));
        for m in modules {
            let state = SynthState::new(&m, &tech);
            let step = maestro_place::anneal::first_delta_divergence(state, 3_000, 7);
            assert_eq!(step, None, "{}", m.name());
        }
    }

    #[test]
    fn seeded_with_none_matches_unseeded_bit_for_bit() {
        let m = library_circuits::nmos_full_adder();
        let tech = builtin::nmos25();
        let plain = synthesize(&m, &tech, &SynthesisParams::quick()).unwrap();
        let (layout, seed) = synthesize_seeded(&m, &tech, &SynthesisParams::quick(), None).unwrap();
        assert_eq!(plain, layout);
        assert_eq!(seed.tile_count(), m.device_count());
    }

    #[test]
    fn stale_seed_is_rejected_and_the_run_stays_cold() {
        let tech = builtin::nmos25();
        // A seed from a 3-tile module cannot warm-start a 14-tile one.
        let (_, stale) = synthesize_seeded(
            &library_circuits::pass_chain(3),
            &tech,
            &SynthesisParams::quick(),
            None,
        )
        .unwrap();
        let m = library_circuits::nmos_full_adder();
        let cold = synthesize(&m, &tech, &SynthesisParams::quick()).unwrap();
        let (seeded, _) =
            synthesize_seeded(&m, &tech, &SynthesisParams::quick(), Some(&stale)).unwrap();
        assert_eq!(cold, seeded, "a rejected seed must not perturb the run");
    }

    #[test]
    fn seeding_never_worsens_the_cost_and_is_deterministic() {
        let m = library_circuits::nmos_full_adder();
        let tech = builtin::nmos25();
        let (_, cold_seed) = synthesize_seeded(&m, &tech, &SynthesisParams::quick(), None).unwrap();
        let run = || synthesize_seeded(&m, &tech, &SynthesisParams::quick(), Some(&cold_seed));
        let (warm_layout, warm_seed) = run().unwrap();
        assert!(
            warm_seed.cost() <= cold_seed.cost(),
            "warm {} must not exceed cold {}",
            warm_seed.cost(),
            cold_seed.cost()
        );
        let (again_layout, again_seed) = run().unwrap();
        assert_eq!(warm_layout, again_layout);
        assert_eq!(warm_seed, again_seed);
    }

    #[test]
    fn empty_module_is_an_error() {
        let b = maestro_netlist::ModuleBuilder::new("empty");
        let err =
            synthesize(&b.finish(), &builtin::nmos25(), &SynthesisParams::quick()).unwrap_err();
        assert!(matches!(err, NetlistError::Invalid { .. }));
    }

    #[test]
    fn gate_level_module_is_rejected() {
        let m = generate::ripple_adder(2);
        let err = synthesize(&m, &builtin::nmos25(), &SynthesisParams::quick()).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownTemplate { .. }));
    }
}
