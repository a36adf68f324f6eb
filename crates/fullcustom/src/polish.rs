//! Tile evaluation of slicing floorplans.
//!
//! The synthesizer anneals a [`PolishExpr`] (the slicing expression
//! shared with the floorplanner, see [`maestro_place::postfix`]) over
//! fixed rectangular tiles. This module turns an expression into tile
//! placements: [`evaluate`] from scratch, and [`DeltaEval`] incrementally
//! per move.

use maestro_geom::{Lambda, LambdaArea, Point, Rect};
use maestro_place::postfix::{Cut, Elem, IncrementalPostfix, PolishExpr, UpdateResult};

/// The evaluated floorplan: the bounding box and each tile's placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evaluated {
    /// Overall bounding width.
    pub width: Lambda,
    /// Overall bounding height.
    pub height: Lambda,
    /// Placement of each tile, indexed like the tile list.
    pub placements: Vec<Rect>,
}

impl Evaluated {
    /// Bounding-box area.
    pub fn area(&self) -> LambdaArea {
        self.width * self.height
    }
}

/// Evaluates `expr` over tiles of the given sizes (operand `t` is tile
/// `t`, rotated when its flag is set).
///
/// # Panics
///
/// Panics if `tile_sizes` is shorter than the operand count.
pub fn evaluate(expr: &PolishExpr, tile_sizes: &[(Lambda, Lambda)]) -> Evaluated {
    assert!(
        tile_sizes.len() >= expr.operand_count(),
        "a size per tile is required"
    );
    struct Node {
        width: Lambda,
        height: Lambda,
        /// (tile, x-offset, y-offset) within this node.
        tiles: Vec<(u32, Lambda, Lambda)>,
    }
    let leaf = leaf_at(expr, tile_sizes);
    let mut stack: Vec<Node> = Vec::new();
    for e in expr.elems() {
        match *e {
            Elem::Operand(t) => {
                let (w, h) = leaf(t);
                stack.push(Node {
                    width: w,
                    height: h,
                    tiles: vec![(t, Lambda::ZERO, Lambda::ZERO)],
                });
            }
            Elem::Op(cut) => {
                let right = stack.pop().expect("valid expression");
                let left = stack.pop().expect("valid expression");
                let node = match cut {
                    Cut::Vertical => {
                        let mut tiles = left.tiles;
                        for (t, x, y) in right.tiles {
                            tiles.push((t, x + left.width, y));
                        }
                        Node {
                            width: left.width + right.width,
                            height: left.height.max(right.height),
                            tiles,
                        }
                    }
                    Cut::Horizontal => {
                        let mut tiles = left.tiles;
                        for (t, x, y) in right.tiles {
                            tiles.push((t, x, y + left.height));
                        }
                        Node {
                            width: left.width.max(right.width),
                            height: left.height + right.height,
                            tiles,
                        }
                    }
                };
                stack.push(node);
            }
        }
    }
    let root = stack.pop().expect("valid expression");
    assert!(stack.is_empty(), "valid expression leaves one root");
    let mut placements = vec![Rect::from_size(Lambda::ONE, Lambda::ONE); expr.operand_count()];
    for (t, x, y) in root.tiles {
        let (w, h) = leaf(t);
        placements[t as usize] = Rect::new(Point::new(x, y), w, h);
    }
    Evaluated {
        width: root.width,
        height: root.height,
        placements,
    }
}

/// Leaf dimensions under the expression's current rotation flags.
fn leaf_at<'a>(
    expr: &'a PolishExpr,
    tile_sizes: &'a [(Lambda, Lambda)],
) -> impl Fn(u32) -> (Lambda, Lambda) + 'a {
    |t| {
        let (w, h) = tile_sizes[t as usize];
        if expr.rotations()[t as usize] {
            (h, w)
        } else {
            (w, h)
        }
    }
}

/// The slicing combine: identical arithmetic to [`evaluate`].
fn combine(cut: Cut, l: &(Lambda, Lambda), r: &(Lambda, Lambda)) -> (Lambda, Lambda) {
    match cut {
        Cut::Vertical => (l.0 + r.0, l.1.max(r.1)),
        Cut::Horizontal => (l.0.max(r.0), l.1 + r.1),
    }
}

/// An incrementally maintained evaluation of a [`PolishExpr`]: subtree
/// dimensions plus absolute per-tile placements, updated per move in time
/// proportional to the touched subtree. All arithmetic is integer
/// ([`Lambda`]), so the maintained state is *bit-identical* to a fresh
/// [`evaluate`] of the same expression.
///
/// The owner applies a move to the expression, then calls
/// [`DeltaEval::update`] with the touched element range; on rejection it
/// undoes the move and calls [`DeltaEval::revert`].
#[derive(Debug, Clone)]
pub struct DeltaEval {
    post: IncrementalPostfix<(Lambda, Lambda)>,
    /// Absolute origin per expression position.
    ox: Vec<Lambda>,
    oy: Vec<Lambda>,
    /// Placement per tile, kept in step with the origins.
    placements: Vec<Rect>,
    /// Tiles whose placement changed in the last update/rebuild.
    changed_tiles: Vec<u32>,
    // Undo journals for the placement layer (the parse/value journal
    // lives inside `post`).
    undo_origins: Vec<(u32, Lambda, Lambda)>,
    undo_placements: Vec<(u32, Rect)>,
    /// Descent scratch, kept to avoid per-move allocation.
    descent: Vec<(u32, Lambda, Lambda)>,
}

impl DeltaEval {
    /// Builds an incremental evaluator for `expr` — the delta-update
    /// counterpart of [`evaluate`].
    ///
    /// # Panics
    ///
    /// Panics if the expression is invalid or `tile_sizes` is shorter
    /// than the operand count.
    pub fn new(expr: &PolishExpr, tile_sizes: &[(Lambda, Lambda)]) -> DeltaEval {
        assert!(
            tile_sizes.len() >= expr.operand_count(),
            "a size per tile is required"
        );
        let mut eval = DeltaEval {
            post: IncrementalPostfix::build(expr.elems(), leaf_at(expr, tile_sizes), combine),
            ox: Vec::new(),
            oy: Vec::new(),
            placements: Vec::new(),
            changed_tiles: Vec::new(),
            undo_origins: Vec::new(),
            undo_placements: Vec::new(),
            descent: Vec::new(),
        };
        eval.derive_all(expr);
        eval
    }

    /// Overall bounding width.
    pub fn width(&self) -> Lambda {
        self.post.root_val().0
    }

    /// Overall bounding height.
    pub fn height(&self) -> Lambda {
        self.post.root_val().1
    }

    /// Bounding-box area.
    pub fn area(&self) -> LambdaArea {
        self.width() * self.height()
    }

    /// Placement of each tile, indexed like the tile list.
    pub fn placements(&self) -> &[Rect] {
        &self.placements
    }

    /// Tiles re-placed by the most recent [`DeltaEval::update`] (or all
    /// tiles after a build/rebuild).
    pub fn changed_tiles(&self) -> &[u32] {
        &self.changed_tiles
    }

    /// Current expression position of `tile`'s operand.
    pub fn tile_pos(&self, tile: usize) -> usize {
        self.post.operand_pos(tile as u32) as usize
    }

    /// Snapshots the evaluation in [`evaluate`]'s format.
    pub fn to_evaluated(&self) -> Evaluated {
        Evaluated {
            width: self.width(),
            height: self.height(),
            placements: self.placements.clone(),
        }
    }

    /// Delta-updates after `expr` changed within element positions
    /// `lo..=hi` (inclusive): recomputes the covering subtree's
    /// dimensions from `lo` on, then re-derives origins only where they
    /// moved.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds for the expression.
    pub fn update(
        &mut self,
        expr: &PolishExpr,
        tile_sizes: &[(Lambda, Lambda)],
        lo: usize,
        hi: usize,
    ) {
        let result = self
            .post
            .update(expr.elems(), leaf_at(expr, tile_sizes), combine, lo, hi);
        self.undo_origins.clear();
        self.undo_placements.clear();
        self.replace_from(expr, result);
    }

    /// Recomputes placements below `result.anchor`, skipping subtrees
    /// whose origin is unchanged and which the re-parse did not reach: a
    /// subtree wholly after it, or one rooted before its first position
    /// (and so wholly before it).
    fn replace_from(&mut self, expr: &PolishExpr, result: UpdateResult) {
        self.changed_tiles.clear();
        let anchor = result.anchor;
        let (lo, e) = result.span;
        self.descent.clear();
        self.descent
            .push((anchor, self.ox[anchor as usize], self.oy[anchor as usize]));
        while let Some((p, x, y)) = self.descent.pop() {
            let untouched = self.post.span_start(p) > e || p < lo;
            if untouched && self.ox[p as usize] == x && self.oy[p as usize] == y {
                continue;
            }
            if self.ox[p as usize] != x || self.oy[p as usize] != y {
                self.undo_origins
                    .push((p, self.ox[p as usize], self.oy[p as usize]));
                self.ox[p as usize] = x;
                self.oy[p as usize] = y;
            }
            self.visit(expr, p, x, y);
        }
    }

    /// Places a leaf or pushes an operator's children at their origins.
    fn visit(&mut self, expr: &PolishExpr, p: u32, x: Lambda, y: Lambda) {
        match expr.elems()[p as usize] {
            Elem::Operand(t) => {
                let (w, h) = *self.post.val(p);
                let rect = Rect::new(Point::new(x, y), w, h);
                if self.placements[t as usize] != rect {
                    self.undo_placements.push((t, self.placements[t as usize]));
                    self.placements[t as usize] = rect;
                    self.changed_tiles.push(t);
                }
            }
            Elem::Op(cut) => {
                let (l, r) = self.post.kids(p);
                let ldim = *self.post.val(l);
                match cut {
                    Cut::Vertical => {
                        self.descent.push((l, x, y));
                        self.descent.push((r, x + ldim.0, y));
                    }
                    Cut::Horizontal => {
                        self.descent.push((l, x, y));
                        self.descent.push((r, x, y + ldim.1));
                    }
                }
            }
        }
    }

    /// Restores the state before the most recent [`DeltaEval::update`];
    /// the caller must already have undone the expression move. A no-op
    /// when nothing was journaled.
    pub fn revert(&mut self) {
        self.post.revert();
        for (p, x, y) in self.undo_origins.drain(..).rev() {
            self.ox[p as usize] = x;
            self.oy[p as usize] = y;
        }
        for (t, rect) in self.undo_placements.drain(..).rev() {
            self.placements[t as usize] = rect;
        }
    }

    /// Drops the undo journals so a following [`DeltaEval::revert`] is a
    /// no-op — for moves that did not change the expression.
    pub fn clear_undo(&mut self) {
        self.post.clear_undo();
        self.undo_origins.clear();
        self.undo_placements.clear();
    }

    /// Fully re-evaluates `expr` from scratch (e.g. after wholesale
    /// expression replacement), reusing buffers.
    pub fn rebuild(&mut self, expr: &PolishExpr, tile_sizes: &[(Lambda, Lambda)]) {
        self.post
            .rebuild(expr.elems(), leaf_at(expr, tile_sizes), combine);
        self.undo_origins.clear();
        self.undo_placements.clear();
        self.derive_all(expr);
    }

    /// Derives every origin and placement top-down from the root.
    fn derive_all(&mut self, expr: &PolishExpr) {
        let len = expr.elems().len();
        self.ox.clear();
        self.ox.resize(len, Lambda::ZERO);
        self.oy.clear();
        self.oy.resize(len, Lambda::ZERO);
        self.placements.clear();
        self.placements.resize(
            expr.operand_count(),
            Rect::from_size(Lambda::ONE, Lambda::ONE),
        );
        self.changed_tiles.clear();
        self.descent.clear();
        self.descent
            .push((self.post.root(), Lambda::ZERO, Lambda::ZERO));
        while let Some((p, x, y)) = self.descent.pop() {
            self.ox[p as usize] = x;
            self.oy[p as usize] = y;
            match expr.elems()[p as usize] {
                Elem::Operand(t) => {
                    let (w, h) = *self.post.val(p);
                    self.placements[t as usize] = Rect::new(Point::new(x, y), w, h);
                    self.changed_tiles.push(t);
                }
                Elem::Op(_) => self.visit(expr, p, x, y),
            }
        }
        self.changed_tiles.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_place::postfix::Move;

    fn sizes(list: &[(i64, i64)]) -> Vec<(Lambda, Lambda)> {
        list.iter()
            .map(|&(w, h)| (Lambda::new(w), Lambda::new(h)))
            .collect()
    }

    /// The synthesizer's pick policy: `nth % count`.
    fn nth(n: usize) -> impl FnOnce(usize) -> usize {
        move |count| n % count
    }

    fn expr_of(elems: &[Elem]) -> PolishExpr {
        PolishExpr::from_elems(elems.to_vec()).expect("valid expression")
    }

    #[test]
    fn initial_expression_is_valid_for_many_sizes() {
        for n in 1..=40 {
            let e = PolishExpr::initial(n);
            assert!(e.is_valid(), "n={n}: {:?}", e.elems());
            assert_eq!(e.operand_count(), n);
        }
    }

    #[test]
    fn single_tile_evaluates_to_itself() {
        let e = PolishExpr::initial(1);
        let ev = evaluate(&e, &sizes(&[(10, 4)]));
        assert_eq!(ev.width, Lambda::new(10));
        assert_eq!(ev.height, Lambda::new(4));
        assert_eq!(ev.area(), LambdaArea::new(40));
    }

    #[test]
    fn vertical_cut_adds_widths() {
        let e = expr_of(&[Elem::Operand(0), Elem::Operand(1), Elem::Op(Cut::Vertical)]);
        let ev = evaluate(&e, &sizes(&[(10, 4), (6, 8)]));
        assert_eq!(ev.width, Lambda::new(16));
        assert_eq!(ev.height, Lambda::new(8));
        // Right child offset by left width.
        assert_eq!(ev.placements[1].origin().x, Lambda::new(10));
    }

    #[test]
    fn horizontal_cut_adds_heights() {
        let e = expr_of(&[
            Elem::Operand(0),
            Elem::Operand(1),
            Elem::Op(Cut::Horizontal),
        ]);
        let ev = evaluate(&e, &sizes(&[(10, 4), (6, 8)]));
        assert_eq!(ev.width, Lambda::new(10));
        assert_eq!(ev.height, Lambda::new(12));
        assert_eq!(ev.placements[1].origin().y, Lambda::new(4));
    }

    #[test]
    fn rotation_swaps_tile_dimensions() {
        let mut e = PolishExpr::initial(1);
        e.flip_rotation(0);
        let ev = evaluate(&e, &sizes(&[(10, 4)]));
        assert_eq!((ev.width, ev.height), (Lambda::new(4), Lambda::new(10)));
    }

    #[test]
    fn placements_never_overlap() {
        let tile_sizes = sizes(&[(10, 4), (6, 8), (5, 5), (7, 3), (2, 9)]);
        let mut e = PolishExpr::initial(5);
        // Shake the expression with every move type.
        e.swap_adjacent_operands(nth(1));
        e.complement_chain(nth(0));
        e.swap_operand_operator(nth(2));
        e.flip_rotation(3);
        assert!(e.is_valid());
        let ev = evaluate(&e, &tile_sizes);
        for i in 0..5 {
            for j in i + 1..5 {
                assert!(
                    !ev.placements[i].overlaps_strictly(ev.placements[j]),
                    "tiles {i} and {j} overlap: {} vs {}",
                    ev.placements[i],
                    ev.placements[j]
                );
            }
        }
        // All inside the bounding box.
        for p in &ev.placements {
            assert!(p.top_right().x <= ev.width && p.top_right().y <= ev.height);
        }
    }

    #[test]
    fn moves_preserve_validity_and_are_undoable() {
        let mut e = PolishExpr::initial(6);
        let snapshot = e.clone();
        let moves: [fn(&mut PolishExpr) -> Move; 4] = [
            |e| e.swap_adjacent_operands(nth(2)),
            |e| e.complement_chain(nth(1)),
            |e| e.swap_operand_operator(nth(0)),
            |e| e.flip_rotation(4),
        ];
        for apply in moves {
            let mv = apply(&mut e);
            assert_ne!(mv, Move::Nothing);
            assert!(e.is_valid());
            e.undo(mv);
            assert_eq!(e, snapshot);
        }
    }

    #[test]
    fn swap_operand_operator_balance_probe_keeps_full_validity() {
        // M3 decides validity from one prefix balance; the result must
        // still satisfy the full validity predicate (multiset included).
        for n in [2usize, 3, 5, 9] {
            let mut e = PolishExpr::initial(n);
            for k in 0..2 * n {
                let mv = e.swap_operand_operator(nth(k));
                assert!(e.is_valid(), "n={n} nth={k}: {:?}", e.elems());
                e.undo(mv);
                assert!(e.is_valid());
            }
        }
    }

    #[test]
    fn area_conservation_tiles_fit_in_bounding_box() {
        let tile_sizes = sizes(&[(3, 3), (4, 2), (2, 5), (6, 1)]);
        let e = PolishExpr::initial(4);
        let ev = evaluate(&e, &tile_sizes);
        let tile_area: i64 = tile_sizes.iter().map(|(w, h)| w.get() * h.get()).sum();
        assert!(ev.area().get() >= tile_area);
    }

    /// Drives a [`DeltaEval`] through every Wong–Liu move kind with
    /// random accept/reject decisions; after each step the incremental
    /// state must equal a fresh [`evaluate`].
    #[test]
    fn delta_eval_matches_full_evaluate_under_random_moves() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for n in [1usize, 2, 3, 7, 12] {
            let tile_sizes: Vec<(Lambda, Lambda)> = (0..n)
                .map(|i| {
                    (
                        Lambda::new(3 + (i as i64 * 7) % 11),
                        Lambda::new(2 + (i as i64 * 5) % 9),
                    )
                })
                .collect();
            let mut e = PolishExpr::initial(n);
            let mut eval = DeltaEval::new(&e, &tile_sizes);
            let mut rng = StdRng::seed_from_u64(n as u64);
            for step in 0..300 {
                let mv = match rng.gen_range(0..4u8) {
                    0 => e.swap_adjacent_operands(nth(rng.gen_range(0..n.max(2)))),
                    1 => e.complement_chain(nth(rng.gen_range(0..n.max(1)))),
                    2 => e.swap_operand_operator(nth(rng.gen_range(0..n.max(1)))),
                    _ => e.flip_rotation(rng.gen_range(0..n)),
                };
                let Some((lo, hi)) = (match mv {
                    Move::Rotate(t) => Some((eval.tile_pos(t), eval.tile_pos(t))),
                    mv => mv.span(),
                }) else {
                    continue;
                };
                eval.update(&e, &tile_sizes, lo, hi);
                let reference = evaluate(&e, &tile_sizes);
                assert_eq!(eval.to_evaluated(), reference, "n={n} step={step}");
                if rng.gen_bool(0.4) {
                    // Reject: undo the move and revert the evaluation.
                    e.undo(mv);
                    eval.revert();
                    assert_eq!(
                        eval.to_evaluated(),
                        evaluate(&e, &tile_sizes),
                        "n={n} step={step} revert"
                    );
                }
            }
        }
    }

    #[test]
    fn delta_eval_rebuild_resets_to_any_expression() {
        let tile_sizes = sizes(&[(10, 4), (6, 8), (5, 5), (7, 3)]);
        let mut e = PolishExpr::initial(4);
        let mut eval = DeltaEval::new(&e, &tile_sizes);
        e.swap_adjacent_operands(nth(1));
        e.complement_chain(nth(0));
        eval.rebuild(&e, &tile_sizes);
        assert_eq!(eval.to_evaluated(), evaluate(&e, &tile_sizes));
        let mut all: Vec<u32> = eval.changed_tiles().to_vec();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3], "rebuild re-places every tile");
    }

    #[test]
    fn invalid_expressions_detected() {
        let bad = [Elem::Op(Cut::Vertical), Elem::Operand(0), Elem::Operand(1)];
        assert!(PolishExpr::from_elems(bad.to_vec()).is_none());
        let dup = [Elem::Operand(0), Elem::Operand(0), Elem::Op(Cut::Vertical)];
        assert!(PolishExpr::from_elems(dup.to_vec()).is_none());
    }
}
