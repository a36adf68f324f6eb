//! Pluggable floorplan backends.
//!
//! The slicing annealer behind [`crate::plan::floorplan`] used to be the
//! only optimizer in the repo. This module turns the floorplanner into a
//! *surface*: every optimizer implements [`FloorplanBackend`] — blocks
//! (plus optional global connectivity) in, a packed [`Floorplan`] with
//! per-backend counters out — and registers under a stable name, so new
//! contenders land PR-sized and are compared automatically by the
//! [`crate::shootout`] harness.
//!
//! Three backends ship today:
//!
//! * [`Annealing`] (`"annealing"`) — the original Polish-expression
//!   simulated annealer, re-homed behind the trait. Bit-identical to
//!   [`crate::plan::floorplan`] for the same [`PlanParams`]: it *is* the
//!   same code path.
//! * `"annealing-warm"` ([`Annealing::warm_started`]) — the same
//!   annealer seeded with the spanning-tree expression instead of the
//!   serpentine one, so the walk starts from an already-compact plan.
//! * [`SpanningTree`] (`"spanning-tree"`) — a deterministic, RNG-free
//!   compact floorplanner in the spirit of Liao/Lu/Yen's orderly-
//!   spanning-tree compaction: one area-balanced recursive bisection
//!   builds a slicing tree in O(n log n) tree steps, then one Stockmeyer
//!   pass packs it. It is the fast baseline every stochastic backend
//!   must beat, and its expression doubles as the annealer's warm start.

use std::cmp::Reverse;

use maestro_place::postfix::{Cut, Elem, PolishExpr};
use maestro_place::EvalMode;

use crate::connectivity::ChipNetlist;
use crate::plan::{eval_slicing, floorplan_seeded, Floorplan, PlanParams};
use crate::Block;

/// The result of one backend run: the plan plus whatever the backend
/// counted about its own work (evaluation tallies, tree sizes, …).
/// Counter names are backend-scoped, e.g. `anneal.evals_delta`.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendRun {
    /// The packed floorplan.
    pub plan: Floorplan,
    /// Per-backend work counters, in emission order.
    pub counters: Vec<(String, u64)>,
}

/// A floorplan optimizer: blocks in, a packed plan plus counters out.
///
/// Implementations must be deterministic for a fixed configuration —
/// the shootout gate diffs their areas and wirelengths against a
/// committed baseline, so a nondeterministic backend would flap CI.
/// The optional [`ChipNetlist`] carries global connectivity; a backend
/// that ignores wiring may disregard it (the harness still measures the
/// resulting wirelength).
pub trait FloorplanBackend: Send + Sync {
    /// The backend's stable registry name (`"annealing"`, …).
    fn name(&self) -> &'static str;

    /// Floorplans `blocks` into a packed, overlap-free arrangement.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty.
    fn plan(&self, blocks: &[Block], netlist: Option<&ChipNetlist>) -> BackendRun;
}

/// The re-homed slicing annealer (see [`crate::plan::floorplan`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Annealing {
    params: PlanParams,
    warm_start: bool,
}

impl Annealing {
    /// The annealer with explicit parameters, cold-started from the
    /// serpentine expression — exactly [`crate::plan::floorplan`].
    pub fn with_params(params: PlanParams) -> Annealing {
        Annealing {
            params,
            warm_start: false,
        }
    }

    /// The annealer seeded with the spanning-tree expression: the walk
    /// starts from [`SpanningTree`]'s compact plan and can only keep or
    /// improve its cost (the engine restores the seed when the walk ends
    /// worse).
    pub fn warm_started(params: PlanParams) -> Annealing {
        Annealing {
            params,
            warm_start: true,
        }
    }

    /// The backend's annealing parameters.
    pub fn params(&self) -> &PlanParams {
        &self.params
    }
}

impl FloorplanBackend for Annealing {
    fn name(&self) -> &'static str {
        if self.warm_start {
            "annealing-warm"
        } else {
            "annealing"
        }
    }

    fn plan(&self, blocks: &[Block], _netlist: Option<&ChipNetlist>) -> BackendRun {
        let seed = || {
            if self.warm_start {
                PolishExpr::from_elems(spanning_elems(blocks))
                    .expect("a bisection is a valid slicing expression")
            } else {
                PolishExpr::initial(blocks.len())
            }
        };
        let (plan, (evals_full, evals_delta)) =
            floorplan_seeded(blocks, &self.params, EvalMode::Delta, seed);
        BackendRun {
            plan,
            counters: vec![
                ("anneal.evals_full".to_owned(), evals_full),
                ("anneal.evals_delta".to_owned(), evals_delta),
                ("anneal.replicas".to_owned(), self.params.replicas as u64),
                ("anneal.warm_start".to_owned(), u64::from(self.warm_start)),
            ],
        }
    }
}

/// The deterministic spanning-tree compact floorplanner: area-balanced
/// recursive bisection over blocks ordered by decreasing minimum area,
/// alternating cut direction per level, packed by one Stockmeyer pass.
/// No RNG, no iteration — a fast baseline and a warm-start seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanningTree;

impl SpanningTree {
    /// Optional chip aspect-ratio limit applied when choosing the root
    /// realization (same policy as [`PlanParams::aspect_limit`]).
    pub fn with_aspect_limit(limit: f64) -> SpanningTreeLimited {
        assert!(limit >= 1.0, "aspect limit is a normalized ratio ≥ 1");
        SpanningTreeLimited { limit }
    }
}

/// [`SpanningTree`] constrained to a chip aspect-ratio limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanningTreeLimited {
    limit: f64,
}

fn spanning_run(blocks: &[Block], aspect_limit: Option<f64>) -> BackendRun {
    assert!(!blocks.is_empty(), "cannot floorplan zero blocks");
    let _span =
        maestro_trace::span_with("floorplan.spanning", || format!("blocks={}", blocks.len()));
    maestro_trace::counter("floorplan.blocks", blocks.len() as u64);
    let elems = spanning_elems(blocks);
    let plan = eval_slicing(blocks, &elems, aspect_limit);
    let combines = (blocks.len() - 1) as u64;
    maestro_trace::counter("spanning.combines", combines);
    BackendRun {
        plan,
        counters: vec![
            ("spanning.combines".to_owned(), combines),
            ("spanning.blocks".to_owned(), blocks.len() as u64),
        ],
    }
}

impl FloorplanBackend for SpanningTree {
    fn name(&self) -> &'static str {
        "spanning-tree"
    }

    fn plan(&self, blocks: &[Block], _netlist: Option<&ChipNetlist>) -> BackendRun {
        spanning_run(blocks, None)
    }
}

impl FloorplanBackend for SpanningTreeLimited {
    fn name(&self) -> &'static str {
        "spanning-tree"
    }

    fn plan(&self, blocks: &[Block], _netlist: Option<&ChipNetlist>) -> BackendRun {
        spanning_run(blocks, Some(self.limit))
    }
}

/// The spanning-tree slicing expression over `blocks`: indices ordered
/// by decreasing minimum area (ties by index, so the order — and every
/// downstream result — is deterministic), then recursively bisected at
/// the most area-balanced split point, alternating vertical/horizontal
/// cuts per level.
pub(crate) fn spanning_elems(blocks: &[Block]) -> Vec<Elem> {
    let mut order: Vec<u32> = (0..blocks.len() as u32).collect();
    order.sort_by_key(|&i| (Reverse(blocks[i as usize].min_area().get()), i));
    let areas: Vec<i64> = order
        .iter()
        .map(|&i| blocks[i as usize].min_area().get())
        .collect();
    let mut elems = Vec::with_capacity(blocks.len() * 2);
    bisect(&order, &areas, 0, &mut elems);
    elems
}

/// Emits the postfix expression for one area-balanced bisection level.
fn bisect(order: &[u32], areas: &[i64], depth: usize, out: &mut Vec<Elem>) {
    if order.len() == 1 {
        out.push(Elem::Operand(order[0]));
        return;
    }
    // Split after the prefix whose area is closest to half the total.
    let total: i64 = areas.iter().sum();
    let mut best_split = 1usize;
    let mut best_gap = i64::MAX;
    let mut prefix = 0i64;
    for (k, &a) in areas.iter().enumerate().take(order.len() - 1) {
        prefix += a;
        let gap = (2 * prefix - total).abs();
        if gap < best_gap {
            best_gap = gap;
            best_split = k + 1;
        }
    }
    bisect(&order[..best_split], &areas[..best_split], depth + 1, out);
    bisect(&order[best_split..], &areas[best_split..], depth + 1, out);
    out.push(Elem::Op(if depth.is_multiple_of(2) {
        Cut::Vertical
    } else {
        Cut::Horizontal
    }));
}

/// Every registered backend, in shootout order, configured with `params`
/// (the spanning tree ignores everything but the aspect limit).
pub fn registry(params: &PlanParams) -> Vec<Box<dyn FloorplanBackend>> {
    vec![
        Box::new(Annealing::with_params(params.clone())),
        Box::new(Annealing::warm_started(params.clone())),
        spanning_boxed(params),
    ]
}

fn spanning_boxed(params: &PlanParams) -> Box<dyn FloorplanBackend> {
    match params.aspect_limit {
        Some(limit) => Box::new(SpanningTree::with_aspect_limit(limit)),
        None => Box::new(SpanningTree),
    }
}

/// Resolves a backend by registry name, configured with `params`.
/// Returns `None` for an unknown name; the canonical name list lives in
/// [`maestro_estimator::request::FLOORPLAN_BACKENDS`] so front ends can
/// validate before dispatch.
pub fn by_name(name: &str, params: &PlanParams) -> Option<Box<dyn FloorplanBackend>> {
    match name {
        "annealing" => Some(Box::new(Annealing::with_params(params.clone()))),
        "annealing-warm" => Some(Box::new(Annealing::warm_started(params.clone()))),
        "spanning-tree" => Some(spanning_boxed(params)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::floorplan;
    use maestro_geom::{Lambda, LambdaArea, Rect};
    use proptest::prelude::*;

    fn soft(name: &str, area: i64) -> Block {
        Block::soft(name, LambdaArea::new(area), 5)
    }

    fn mixed_blocks() -> Vec<Block> {
        vec![
            soft("a", 4000),
            soft("b", 2500),
            Block::hard("c", Lambda::new(80), Lambda::new(25)),
            soft("d", 1200),
            soft("e", 900),
            soft("f", 3100),
        ]
    }

    #[test]
    fn annealing_backend_matches_plain_floorplan() {
        let blocks = mixed_blocks();
        for params in [
            PlanParams::default(),
            PlanParams::quick(),
            PlanParams::quick().with_aspect_limit(1.5),
        ] {
            let via_trait = Annealing::with_params(params.clone()).plan(&blocks, None);
            assert_eq!(via_trait.plan, floorplan(&blocks, &params));
        }
    }

    #[test]
    fn annealing_counters_are_live() {
        let run = Annealing::with_params(PlanParams::quick()).plan(&mixed_blocks(), None);
        let get = |name: &str| {
            run.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
        };
        assert!(get("anneal.evals_delta").unwrap() > 0);
        assert_eq!(get("anneal.replicas"), Some(1));
    }

    #[test]
    fn spanning_tree_is_deterministic_and_complete() {
        let blocks = mixed_blocks();
        let a = SpanningTree.plan(&blocks, None);
        let b = SpanningTree.plan(&blocks, None);
        assert_eq!(a, b);
        assert_eq!(a.plan.placements().len(), blocks.len());
        for block in &blocks {
            assert!(a.plan.placement(block.name()).is_some(), "{}", block.name());
        }
    }

    #[test]
    fn spanning_tree_blocks_never_overlap() {
        let run = SpanningTree.plan(&mixed_blocks(), None);
        let rects: Vec<Rect> = run.plan.placements().iter().map(|&(_, r)| r).collect();
        for i in 0..rects.len() {
            for j in i + 1..rects.len() {
                assert!(
                    !rects[i].overlaps_strictly(rects[j]),
                    "blocks {i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn spanning_tree_single_block_is_the_block() {
        let run = SpanningTree.plan(
            &[Block::hard("only", Lambda::new(30), Lambda::new(20))],
            None,
        );
        assert_eq!(run.plan.area(), LambdaArea::new(600));
    }

    #[test]
    fn spanning_tree_packs_equal_blocks_tightly() {
        let blocks: Vec<Block> = (0..16).map(|i| soft(&format!("b{i}"), 2500)).collect();
        let run = SpanningTree.plan(&blocks, None);
        assert!(
            run.plan.utilization() > 0.7,
            "utilization {:.2}",
            run.plan.utilization()
        );
    }

    #[test]
    fn warm_started_annealer_never_loses_to_its_seed() {
        let blocks = mixed_blocks();
        let seed = SpanningTree.plan(&blocks, None);
        let warm = Annealing::warm_started(PlanParams::quick()).plan(&blocks, None);
        assert!(
            warm.plan.area() <= seed.plan.area(),
            "warm {} vs seed {}",
            warm.plan.area(),
            seed.plan.area()
        );
    }

    #[test]
    fn aspect_limited_spanning_tree_prefers_squarer_roots() {
        let blocks: Vec<Block> = (0..8).map(|i| soft(&format!("b{i}"), 3000)).collect();
        let free = SpanningTree.plan(&blocks, None).plan;
        let limited = SpanningTree::with_aspect_limit(1.5)
            .plan(&blocks, None)
            .plan;
        let norm = |p: &Floorplan| {
            let w = p.width().as_f64();
            let h = p.height().as_f64();
            (w / h).max(h / w)
        };
        assert!(norm(&limited) <= norm(&free) + 1e-9);
    }

    #[test]
    fn registry_names_match_the_protocol_list() {
        let names: Vec<&str> = registry(&PlanParams::default())
            .iter()
            .map(|b| b.name())
            .collect();
        assert_eq!(names, maestro_estimator::request::FLOORPLAN_BACKENDS);
        for name in &names {
            let backend = by_name(name, &PlanParams::default()).expect("registered");
            assert_eq!(backend.name(), *name);
        }
        assert!(by_name("simplex", &PlanParams::default()).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The warm start hands the annealer a validated expression: every
        /// spanning-tree output over every block set must pass.
        #[test]
        fn every_spanning_expression_is_a_valid_polish_expression(
            shapes in proptest::collection::vec((0u8..2, 1i64..5000, 1i64..80), 1..40),
        ) {
            let blocks: Vec<Block> = shapes
                .iter()
                .enumerate()
                .map(|(i, &(kind, area, side))| match kind {
                    0 => soft(&format!("s{i}"), area),
                    _ => {
                        let height = Lambda::new(area % 97 + 1);
                        Block::hard(format!("h{i}"), Lambda::new(side), height)
                    }
                })
                .collect();
            let expr = PolishExpr::from_elems(spanning_elems(&blocks));
            prop_assert_eq!(expr.map(|e| e.operand_count()), Some(blocks.len()));
        }
    }
}
