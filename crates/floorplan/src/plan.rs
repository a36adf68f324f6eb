//! Slicing floorplanning: Polish-expression annealing with Stockmeyer
//! shape-curve combination.

use maestro_geom::{Lambda, LambdaArea, Point, Rect, ShapeCurve, ShapePoint};
use maestro_place::postfix::{Cut, Elem, IncrementalPostfix, Move, PolishExpr};
use maestro_place::{anneal_replicas, AnnealSchedule, AnnealState, EvalMode, Walk};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::Block;

/// Parameters of a floorplanning run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanParams {
    /// Annealing seed.
    pub seed: u64,
    /// Cooling schedule.
    pub schedule: AnnealSchedule,
    /// Optional chip aspect-ratio limit (long side ÷ short side). When
    /// set, root realizations beyond the limit pay a quadratic area
    /// penalty, steering the annealer toward packable near-rectangles the
    /// way commercial floorplanners take a die-shape constraint.
    pub aspect_limit: Option<f64>,
    /// Independently seeded annealing walks to run and reduce best-of
    /// (`1` = single walk, bit-identical to the pre-replica engine).
    pub replicas: usize,
}

impl Default for PlanParams {
    fn default() -> Self {
        PlanParams {
            seed: 1988,
            schedule: AnnealSchedule::default(),
            aspect_limit: None,
            replicas: 1,
        }
    }
}

impl PlanParams {
    /// A short schedule for tests and small block counts.
    pub fn quick() -> Self {
        PlanParams {
            schedule: AnnealSchedule::quick(),
            ..PlanParams::default()
        }
    }

    /// Constrains the chip's normalized aspect ratio.
    ///
    /// # Panics
    ///
    /// Panics if `limit < 1.0`.
    pub fn with_aspect_limit(mut self, limit: f64) -> Self {
        assert!(limit >= 1.0, "aspect limit is a normalized ratio ≥ 1");
        self.aspect_limit = Some(limit);
        self
    }
}

/// Scores one root realization: area times a quadratic penalty for
/// exceeding the aspect limit.
fn point_cost(p: ShapePoint, aspect_limit: Option<f64>) -> f64 {
    let area = p.area().as_f64();
    match aspect_limit {
        None => area,
        Some(limit) => {
            let w = p.width.as_f64();
            let h = p.height.as_f64();
            let aspect = (w / h).max(h / w);
            let excess = (aspect / limit).max(1.0);
            area * excess * excess
        }
    }
}

/// The best root realization of a curve under the aspect policy.
fn best_point(curve: &ShapeCurve, aspect_limit: Option<f64>) -> ShapePoint {
    curve
        .points()
        .iter()
        .copied()
        .min_by(|a, b| {
            point_cost(*a, aspect_limit)
                .partial_cmp(&point_cost(*b, aspect_limit))
                .expect("finite costs")
        })
        .expect("curves are non-empty")
}

/// A finished floorplan: chip bounding box and per-block placements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Floorplan {
    width: Lambda,
    height: Lambda,
    placements: Vec<(String, Rect)>,
    blocks_area: LambdaArea,
}

impl Floorplan {
    /// Chip width.
    pub fn width(&self) -> Lambda {
        self.width
    }

    /// Chip height.
    pub fn height(&self) -> Lambda {
        self.height
    }

    /// Chip area.
    pub fn area(&self) -> LambdaArea {
        self.width * self.height
    }

    /// Per-block placements (name, rectangle) in block order.
    pub fn placements(&self) -> &[(String, Rect)] {
        &self.placements
    }

    /// Σ placed block areas ÷ chip area.
    pub fn utilization(&self) -> f64 {
        if self.area().get() == 0 {
            return 0.0;
        }
        self.blocks_area.as_f64() / self.area().as_f64()
    }

    /// The placement rectangle of a named block.
    pub fn placement(&self, name: &str) -> Option<Rect> {
        self.placements
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, r)| r)
    }

    /// Renders the floorplan as an SVG sketch: one labelled rectangle per
    /// block inside the chip outline.
    pub fn to_svg(&self) -> String {
        use maestro_geom::svg::SvgDocument;
        let mut doc = SvgDocument::new(self.width.max(Lambda::ONE), self.height.max(Lambda::ONE))
            .with_scale(1.0);
        const PALETTE: [&str; 6] = [
            "#9bc4e2", "#a3d9a5", "#e2d49b", "#d9a3c4", "#c4a3d9", "#a5c9c4",
        ];
        for (i, (name, rect)) in self.placements.iter().enumerate() {
            doc.rect(*rect, PALETTE[i % PALETTE.len()], Some(name));
        }
        doc.finish()
    }
}

/// The Stockmeyer combine of two child shape curves under a cut.
fn plan_comb(cut: Cut, l: &ShapeCurve, r: &ShapeCurve) -> ShapeCurve {
    match cut {
        Cut::Vertical => l.beside(r),
        Cut::Horizontal => l.stacked(r),
    }
}

/// The annealing state over block Polish expressions. The evaluation
/// combines full shape curves (Stockmeyer), so each expression's cost is
/// the best achievable chip area over all block realizations. Rotation
/// flags stay unset: block curves already hold both orientations.
#[derive(Clone)]
struct PlanState<'b> {
    blocks: &'b [Block],
    expr: PolishExpr,
    aspect_limit: Option<f64>,
    /// Incremental curve evaluation of `expr`.
    post: IncrementalPostfix<ShapeCurve>,
    undo: Option<Move>,
}

impl<'b> PlanState<'b> {
    fn new(blocks: &'b [Block], expr: PolishExpr, aspect_limit: Option<f64>) -> PlanState<'b> {
        let post = IncrementalPostfix::build(
            expr.elems(),
            |b| blocks[b as usize].curve().clone(),
            plan_comb,
        );
        PlanState {
            blocks,
            expr,
            aspect_limit,
            post,
            undo: None,
        }
    }

    fn root_curve(&self) -> ShapeCurve {
        let mut stack: Vec<ShapeCurve> = Vec::new();
        for e in self.expr.elems() {
            match *e {
                Elem::Operand(b) => stack.push(self.blocks[b as usize].curve().clone()),
                Elem::Op(cut) => {
                    let right = stack.pop().expect("valid expression");
                    let left = stack.pop().expect("valid expression");
                    stack.push(plan_comb(cut, &left, &right));
                }
            }
        }
        stack.pop().expect("valid expression")
    }

    fn delta_cost(&self) -> f64 {
        point_cost(
            best_point(self.post.root_val(), self.aspect_limit),
            self.aspect_limit,
        )
    }
}

impl AnnealState for PlanState<'_> {
    /// The element positions `lo..=hi` a move rewrote.
    type Touched = (usize, usize);

    fn apply(&mut self, rng: &mut StdRng) -> Option<(usize, usize)> {
        // Each move draws its candidate in exactly the candidate range.
        let kind = rng.gen_range(0..3u8);
        let pick = |count: usize| rng.gen_range(0..count);
        let mv = match kind {
            0 => self.expr.swap_adjacent_operands(pick),
            1 => self.expr.complement_chain(pick),
            _ => self.expr.swap_operand_operator(pick),
        };
        self.undo = Some(mv);
        mv.span()
    }

    fn undo(&mut self) {
        self.expr
            .undo(self.undo.take().expect("revert without move"));
    }

    /// Every shape curve recombined from scratch.
    fn full_cost(&self) -> f64 {
        point_cost(
            best_point(&self.root_curve(), self.aspect_limit),
            self.aspect_limit,
        )
    }

    fn rebuild(&mut self) -> f64 {
        let blocks = self.blocks;
        self.post.rebuild(
            self.expr.elems(),
            |b| blocks[b as usize].curve().clone(),
            plan_comb,
        );
        self.delta_cost()
    }

    /// Recombines only the covering subtree's curves.
    fn update(&mut self, (lo, hi): (usize, usize)) -> f64 {
        let blocks = self.blocks;
        self.post.update(
            self.expr.elems(),
            |b| blocks[b as usize].curve().clone(),
            plan_comb,
            lo,
            hi,
        );
        self.delta_cost()
    }

    fn restore(&mut self) {
        self.post.revert();
    }
}

/// Floorplans a set of blocks into a minimum-area slicing arrangement.
///
/// # Panics
///
/// Panics if `blocks` is empty.
pub fn floorplan(blocks: &[Block], params: &PlanParams) -> Floorplan {
    floorplan_with(blocks, params, EvalMode::Delta)
}

/// [`floorplan`] on the full-refresh reference path: every move and
/// revert recombines every shape curve. Output is bit-identical to
/// [`floorplan`]; kept for differential testing of the delta evaluator.
///
/// # Panics
///
/// Panics if `blocks` is empty.
#[doc(hidden)]
pub fn floorplan_full_refresh(blocks: &[Block], params: &PlanParams) -> Floorplan {
    floorplan_with(blocks, params, EvalMode::Full)
}

/// Packs an already-chosen slicing expression: Stockmeyer-combine the
/// curves bottom-up, pick the best root realization under the aspect
/// policy, and recover concrete block rectangles top-down, walking the
/// evaluated expression (each node holds its subtree's curve).
pub(crate) fn eval_slicing(
    blocks: &[Block],
    elems: &[Elem],
    aspect_limit: Option<f64>,
) -> Floorplan {
    let post = IncrementalPostfix::build(elems, |b| blocks[b as usize].curve().clone(), plan_comb);
    let root_point = best_point(post.root_val(), aspect_limit);
    let mut raw = Vec::with_capacity(blocks.len());
    let mut descent = vec![(post.root(), root_point, Point::ORIGIN)];
    while let Some((p, chosen, origin)) = descent.pop() {
        let cut = match elems[p as usize] {
            Elem::Operand(b) => {
                raw.push((b, Rect::new(origin, chosen.width, chosen.height)));
                continue;
            }
            Elem::Op(cut) => cut,
        };
        // Find the first child realizations producing `chosen`.
        let (l, r) = post.kids(p);
        let (a, b) = post
            .val(l)
            .points()
            .iter()
            .flat_map(|&a| post.val(r).points().iter().map(move |&b| (a, b)))
            .find(|&(a, b)| {
                let combined = match cut {
                    Cut::Vertical => ShapePoint::new(a.width + b.width, a.height.max(b.height)),
                    Cut::Horizontal => ShapePoint::new(a.width.max(b.width), a.height + b.height),
                };
                combined == chosen
            })
            .expect("chosen point originates from children");
        let right_origin = match cut {
            Cut::Vertical => origin.translated(a.width, Lambda::ZERO),
            Cut::Horizontal => origin.translated(Lambda::ZERO, a.height),
        };
        descent.push((l, a, origin));
        descent.push((r, b, right_origin));
    }
    raw.sort_by_key(|&(b, _)| b);
    let blocks_area: LambdaArea = raw.iter().map(|&(_, r)| r.area()).sum();
    Floorplan {
        width: root_point.width,
        height: root_point.height,
        placements: raw
            .into_iter()
            .map(|(b, r)| (blocks[b as usize].name().to_owned(), r))
            .collect(),
        blocks_area,
    }
}

fn floorplan_with(blocks: &[Block], params: &PlanParams, mode: EvalMode) -> Floorplan {
    floorplan_seeded(blocks, params, mode, || PolishExpr::initial(blocks.len())).0
}

/// The annealing core behind every entry point: checks `blocks` is not
/// empty, starts from `seed()` (a valid expression over all of
/// `blocks`), anneals, and packs the best expression seen. Returns the
/// plan and the walk's `(full, delta)` evaluation tallies. [`floorplan`]
/// seeds it with [`PolishExpr::initial`]; the warm-started backend seeds
/// it with the spanning-tree expression instead.
pub(crate) fn floorplan_seeded(
    blocks: &[Block],
    params: &PlanParams,
    mode: EvalMode,
    seed: impl FnOnce() -> PolishExpr,
) -> (Floorplan, (u64, u64)) {
    assert!(!blocks.is_empty(), "cannot floorplan zero blocks");
    let _plan_span = maestro_trace::span("floorplan");
    maestro_trace::counter("floorplan.blocks", blocks.len() as u64);
    let n = blocks.len();

    let mut walk = Walk::new(PlanState::new(blocks, seed(), params.aspect_limit), mode);
    if n > 1 {
        anneal_replicas(
            &mut walk,
            None,
            &params.schedule,
            params.seed,
            params.replicas,
            48,
            n,
        );
    }
    (
        eval_slicing(blocks, walk.state().expr.elems(), params.aspect_limit),
        walk.evals(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soft(name: &str, area: i64) -> Block {
        Block::soft(name, LambdaArea::new(area), 5)
    }

    #[test]
    fn single_block_floorplan_is_the_block() {
        let blocks = vec![Block::hard("only", Lambda::new(30), Lambda::new(20))];
        let plan = floorplan(&blocks, &PlanParams::quick());
        assert_eq!(plan.placements().len(), 1);
        assert_eq!(plan.area(), LambdaArea::new(600));
        assert!((plan.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn blocks_never_overlap() {
        let blocks = vec![
            soft("a", 4000),
            soft("b", 2500),
            Block::hard("c", Lambda::new(80), Lambda::new(25)),
            soft("d", 1200),
            soft("e", 900),
        ];
        let plan = floorplan(&blocks, &PlanParams::quick());
        let rects: Vec<Rect> = plan.placements().iter().map(|&(_, r)| r).collect();
        for i in 0..rects.len() {
            for j in i + 1..rects.len() {
                assert!(
                    !rects[i].overlaps_strictly(rects[j]),
                    "blocks {i} and {j} overlap: {} vs {}",
                    rects[i],
                    rects[j]
                );
            }
        }
    }

    #[test]
    fn blocks_stay_inside_the_chip() {
        let blocks = vec![soft("a", 3000), soft("b", 3000), soft("c", 3000)];
        let plan = floorplan(&blocks, &PlanParams::quick());
        for (name, r) in plan.placements() {
            assert!(
                r.top_right().x <= plan.width() && r.top_right().y <= plan.height(),
                "{name} escapes the chip: {r}"
            );
        }
    }

    #[test]
    fn utilization_is_high_for_compatible_blocks() {
        // Four equal soft blocks pack near-perfectly.
        let blocks: Vec<Block> = (0..4).map(|i| soft(&format!("b{i}"), 2500)).collect();
        let plan = floorplan(&blocks, &PlanParams::default());
        assert!(
            plan.utilization() > 0.8,
            "utilization {:.2} too low",
            plan.utilization()
        );
    }

    #[test]
    fn floorplan_is_deterministic() {
        let blocks = vec![soft("a", 1000), soft("b", 2000), soft("c", 1500)];
        let p1 = floorplan(&blocks, &PlanParams::quick());
        let p2 = floorplan(&blocks, &PlanParams::quick());
        assert_eq!(p1, p2);
    }

    #[test]
    fn one_replica_matches_the_default_path_and_four_are_deterministic() {
        let blocks = vec![soft("a", 1000), soft("b", 2000), soft("c", 1500)];
        let one = floorplan(&blocks, &PlanParams::quick());
        let explicit_one = floorplan(
            &blocks,
            &PlanParams {
                replicas: 1,
                ..PlanParams::quick()
            },
        );
        assert_eq!(one, explicit_one);

        let four_params = PlanParams {
            replicas: 4,
            ..PlanParams::quick()
        };
        let a = floorplan(&blocks, &four_params);
        let b = floorplan(&blocks, &four_params);
        assert_eq!(a, b, "replicas=4 must be reproducible");
    }

    #[test]
    fn delta_matches_full_refresh() {
        // The incremental curve evaluator must not change a single
        // accept/reject decision: final floorplans are bit-identical.
        let blocks = vec![
            soft("a", 4000),
            soft("b", 2500),
            Block::hard("c", Lambda::new(80), Lambda::new(25)),
            soft("d", 1200),
            soft("e", 900),
            soft("f", 3100),
        ];
        for params in [
            PlanParams::quick(),
            PlanParams::quick().with_aspect_limit(1.5),
        ] {
            let delta = floorplan(&blocks, &params);
            let full = floorplan_full_refresh(&blocks, &params);
            assert_eq!(delta, full);
        }
    }

    #[test]
    fn every_move_and_revert_prices_like_the_reference() {
        // Per move, not only per run: the delta cost after each move and
        // each revert equals a from-scratch recombination of the same
        // expression, over soft and hard blocks, free and aspect-limited.
        for n in [2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 18, 21] {
            let blocks: Vec<Block> = (0..n)
                .map(|i| match i % 3 {
                    2 => Block::hard(
                        format!("h{i}"),
                        Lambda::new(20 + 7 * (i % 5)),
                        Lambda::new(15 + 11 * (i % 4)),
                    ),
                    _ => soft(&format!("s{i}"), 900 + 350 * i),
                })
                .collect();
            for aspect_limit in [None, Some(1.5)] {
                let state = PlanState::new(&blocks, PolishExpr::initial(n as usize), aspect_limit);
                let step = maestro_place::anneal::first_delta_divergence(state, 3_000, n as u64);
                assert_eq!(step, None, "{n} blocks, aspect limit {aspect_limit:?}");
            }
        }
    }

    #[test]
    fn svg_labels_every_block() {
        let blocks = vec![soft("alu", 1000), soft("rom", 800), soft("ram", 1200)];
        let plan = floorplan(&blocks, &PlanParams::quick());
        let svg = plan.to_svg();
        for b in &blocks {
            assert!(svg.contains(b.name()), "missing {}", b.name());
        }
        assert_eq!(svg.matches("<rect").count(), blocks.len() + 1);
    }

    #[test]
    fn named_placement_lookup() {
        let blocks = vec![soft("alu", 1000), soft("rom", 800)];
        let plan = floorplan(&blocks, &PlanParams::quick());
        assert!(plan.placement("alu").is_some());
        assert!(plan.placement("cache").is_none());
    }

    #[test]
    #[should_panic(expected = "zero blocks")]
    fn empty_block_list_rejected() {
        let _ = floorplan(&[], &PlanParams::quick());
    }

    #[test]
    fn aspect_limit_yields_squarer_chips() {
        // Many identical blocks tempt the annealer into a tall stack; the
        // limit must pull the chip toward a near-square.
        let blocks: Vec<Block> = (0..8).map(|i| soft(&format!("b{i}"), 3000)).collect();
        let free = floorplan(&blocks, &PlanParams::quick());
        let limited = floorplan(&blocks, &PlanParams::quick().with_aspect_limit(1.5));
        let norm = |p: &Floorplan| {
            let w = p.width().as_f64();
            let h = p.height().as_f64();
            (w / h).max(h / w)
        };
        assert!(
            norm(&limited) <= norm(&free) + 1e-9,
            "limited {:.2} vs free {:.2}",
            norm(&limited),
            norm(&free)
        );
        assert!(
            norm(&limited) <= 2.2,
            "limited chip still {:.2}",
            norm(&limited)
        );
        // Area cost of the constraint stays moderate.
        assert!(limited.area().as_f64() <= free.area().as_f64() * 1.5);
    }

    #[test]
    #[should_panic(expected = "normalized ratio")]
    fn sub_unity_aspect_limit_rejected() {
        let _ = PlanParams::quick().with_aspect_limit(0.5);
    }
}
