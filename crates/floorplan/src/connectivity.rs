//! Inter-module connectivity and wire-aware floorplanning.
//!
//! The paper's Figure 1 database "also contains the global module
//! descriptions and **global interconnections** for the whole chip" —
//! a floorplanner is expected to use them. This module adds that layer:
//! a [`ChipNetlist`] names which blocks each global net touches, and
//! [`floorplan_connected`] extends the slicing annealer's cost with the
//! half-perimeter wirelength of those nets over block centers.

use maestro_geom::{Lambda, Point, Rect};
use maestro_place::{anneal_replicas, AnnealSchedule, AnnealState, EvalMode, Walk};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::backend::{Annealing, FloorplanBackend};
use crate::plan::{Floorplan, PlanParams};
use crate::Block;

/// Global (inter-module) nets over a set of floorplan blocks, referenced
/// by block index.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChipNetlist {
    nets: Vec<Vec<u32>>,
}

impl ChipNetlist {
    /// An empty chip netlist.
    pub fn new() -> Self {
        ChipNetlist::default()
    }

    /// Adds a global net touching the given blocks. Single-block and
    /// empty nets are accepted and ignored by the cost (no span).
    pub fn add_net(&mut self, blocks: impl IntoIterator<Item = u32>) {
        let mut b: Vec<u32> = blocks.into_iter().collect();
        b.sort_unstable();
        b.dedup();
        self.nets.push(b);
    }

    /// The global nets.
    pub fn nets(&self) -> &[Vec<u32>] {
        &self.nets
    }

    /// Total HPWL of the global nets over the placements of `plan`
    /// (block centers), assuming `plan` placed the same block list the
    /// netlist indexes.
    pub fn wirelength(&self, plan: &Floorplan) -> Lambda {
        let centers: Vec<Point> = plan.placements().iter().map(|&(_, r)| center(r)).collect();
        let mut total = 0i64;
        for net in &self.nets {
            if net.len() < 2 {
                continue;
            }
            let pts = net.iter().filter_map(|&b| centers.get(b as usize).copied());
            if let Some(bb) = Rect::bounding_box(pts) {
                total += bb.half_perimeter().get();
            }
        }
        Lambda::new(total)
    }
}

fn center(r: Rect) -> Point {
    Point::new(r.origin().x + r.width() / 2, r.origin().y + r.height() / 2)
}

/// Parameters for wire-aware floorplanning.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectedPlanParams {
    /// Parameters of the final, full-quality floorplan run (and the seed).
    pub base: PlanParams,
    /// Parameters of the cheap inner floorplan evaluated per ordering
    /// move. Keep this schedule very short: it runs hundreds of times.
    pub inner: PlanParams,
    /// Ordering-anneal rounds (each round tries ~3 swaps per block).
    pub order_rounds: usize,
    /// λ² of cost charged per λ of global wirelength. Zero reduces to
    /// pure area floorplanning.
    pub wire_weight: f64,
}

impl Default for ConnectedPlanParams {
    fn default() -> Self {
        ConnectedPlanParams {
            base: PlanParams::default(),
            inner: ConnectedPlanParams::tiny_inner(),
            order_rounds: 6,
            wire_weight: 20.0,
        }
    }
}

impl ConnectedPlanParams {
    /// A very short slicing schedule for the per-move inner evaluation.
    fn tiny_inner() -> PlanParams {
        PlanParams {
            schedule: AnnealSchedule {
                rounds: 3,
                moves_per_round: 24,
                ..AnnealSchedule::quick()
            },
            ..PlanParams::default()
        }
    }

    /// A fast configuration for tests.
    pub fn quick() -> Self {
        ConnectedPlanParams {
            base: PlanParams::quick(),
            inner: ConnectedPlanParams::tiny_inner(),
            order_rounds: 3,
            wire_weight: 20.0,
        }
    }
}

/// The annealing state: a block *permutation*. The slicing structure is
/// delegated to the area-driven [`floorplan`] on the permuted order, and
/// this outer anneal reorders blocks so connected ones land adjacent —
/// a two-level scheme that keeps the inner Stockmeyer machinery intact.
///
/// Every evaluation runs a complete inner floorplan, so the state keeps
/// no cache: it anneals in the delta mode, where each move re-plans once
/// (counted as a delta evaluation) and a revert costs nothing.
#[derive(Clone)]
struct OrderState<'a> {
    blocks: &'a [Block],
    netlist: &'a ChipNetlist,
    inner: &'a dyn FloorplanBackend,
    wire_weight: f64,
    order: Vec<u32>,
    /// The positions the last move swapped.
    undo: Option<(usize, usize)>,
}

/// The blocks in `order`.
fn permuted(blocks: &[Block], order: &[u32]) -> Vec<Block> {
    order.iter().map(|&i| blocks[i as usize].clone()).collect()
}

/// `netlist` over the blocks permuted by `order`: block `i` of the
/// original list sits at position `pos[i]` in the permuted list.
fn remapped(netlist: &ChipNetlist, order: &[u32]) -> ChipNetlist {
    let mut pos = vec![0u32; order.len()];
    for (p, &i) in order.iter().enumerate() {
        pos[i as usize] = p as u32;
    }
    let mut remapped = ChipNetlist::new();
    for net in netlist.nets() {
        remapped.add_net(net.iter().map(|&b| pos[b as usize]));
    }
    remapped
}

impl AnnealState for OrderState<'_> {
    type Touched = ();

    fn apply(&mut self, rng: &mut StdRng) -> Option<()> {
        let n = self.order.len();
        let i = rng.gen_range(0..n);
        let mut j = rng.gen_range(0..n);
        while j == i && n > 1 {
            j = rng.gen_range(0..n);
        }
        self.order.swap(i, j);
        self.undo = Some((i, j));
        Some(())
    }

    fn undo(&mut self) {
        let (i, j) = self.undo.take().expect("revert without move");
        self.order.swap(i, j);
    }

    fn full_cost(&self) -> f64 {
        let plan = self
            .inner
            .plan(&permuted(self.blocks, &self.order), None)
            .plan;
        let wirelength = remapped(self.netlist, &self.order).wirelength(&plan);
        plan.area().as_f64() + self.wire_weight * wirelength.as_f64()
    }
}

/// Floorplans `blocks` taking global connectivity into account. Returns
/// the plan (block order restored to the input order) and its global
/// wirelength.
///
/// # Panics
///
/// Panics if `blocks` is empty or the netlist references a block index
/// out of range.
pub fn floorplan_connected(
    blocks: &[Block],
    netlist: &ChipNetlist,
    params: &ConnectedPlanParams,
) -> (Floorplan, Lambda) {
    floorplan_connected_with(
        blocks,
        netlist,
        params,
        &Annealing::with_params(params.inner.clone()),
        &Annealing::with_params(params.base.clone()),
    )
}

/// [`floorplan_connected`] over explicit backends: `inner` evaluates the
/// cheap per-move floorplan inside the ordering anneal (keep it fast —
/// it runs hundreds of times; the deterministic spanning tree is a
/// natural fit), `base` produces the final full-quality plan. The
/// default path uses the annealing backend for both, which is exactly
/// the pre-trait behaviour.
///
/// # Panics
///
/// Panics if `blocks` is empty or the netlist references a block index
/// out of range.
pub fn floorplan_connected_with(
    blocks: &[Block],
    netlist: &ChipNetlist,
    params: &ConnectedPlanParams,
    inner: &dyn FloorplanBackend,
    base: &dyn FloorplanBackend,
) -> (Floorplan, Lambda) {
    assert!(!blocks.is_empty(), "cannot floorplan zero blocks");
    for net in netlist.nets() {
        for &b in net {
            assert!(
                (b as usize) < blocks.len(),
                "net references block {b} of {}",
                blocks.len()
            );
        }
    }
    let state = OrderState {
        blocks,
        netlist,
        inner,
        wire_weight: params.wire_weight,
        order: (0..blocks.len() as u32).collect(),
        undo: None,
    };
    let mut walk = Walk::new(state, EvalMode::Delta);
    if blocks.len() > 1 {
        // The outer anneal re-floorplans per move; keep it short.
        let schedule = AnnealSchedule {
            rounds: params.order_rounds,
            moves_per_round: blocks.len() * 3,
            ..AnnealSchedule::quick()
        };
        anneal_replicas(
            &mut walk,
            None,
            &schedule,
            params.base.seed,
            1,
            4,
            blocks.len(),
        );
    }
    // Final full-quality floorplan on the chosen order.
    let order = &walk.state().order;
    let plan = base.plan(&permuted(blocks, order), None).plan;
    let wl = remapped(netlist, order).wirelength(&plan);
    (plan, wl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SpanningTree;
    use crate::plan::floorplan;
    use maestro_geom::LambdaArea;

    fn blocks(n: usize) -> Vec<Block> {
        (0..n)
            .map(|i| Block::soft(format!("b{i}"), LambdaArea::new(2_000 + 300 * i as i64), 4))
            .collect()
    }

    #[test]
    fn empty_netlist_reduces_to_area_floorplanning() {
        let blocks = blocks(4);
        let netlist = ChipNetlist::new();
        let (plan, wl) = floorplan_connected(&blocks, &netlist, &ConnectedPlanParams::quick());
        assert_eq!(plan.placements().len(), 4);
        assert_eq!(wl, Lambda::ZERO);
    }

    #[test]
    fn wirelength_counts_multi_block_nets_only() {
        let blocks = blocks(3);
        let plan = floorplan(&blocks, &PlanParams::quick());
        let mut netlist = ChipNetlist::new();
        netlist.add_net([0]);
        assert_eq!(netlist.wirelength(&plan), Lambda::ZERO);
        netlist.add_net([0, 1, 2]);
        assert!(netlist.wirelength(&plan).is_positive());
    }

    #[test]
    fn wire_aware_plan_beats_or_matches_area_only_on_wirelength() {
        // A chain of connections: 0-1, 1-2, 2-3, 3-4, 4-5. The wire-aware
        // planner should not be worse than the area-only order.
        let blocks = blocks(6);
        let mut netlist = ChipNetlist::new();
        for i in 0..5u32 {
            netlist.add_net([i, i + 1]);
        }
        let area_only = floorplan(&blocks, &PlanParams::quick());
        let baseline_wl = netlist.wirelength(&area_only);
        let params = ConnectedPlanParams {
            wire_weight: 50.0,
            ..ConnectedPlanParams::quick()
        };
        let (_, wl) = floorplan_connected(&blocks, &netlist, &params);
        assert!(
            wl <= baseline_wl,
            "wire-aware {wl} vs area-only {baseline_wl}"
        );
    }

    #[test]
    fn connected_plan_keeps_all_blocks() {
        let blocks = blocks(5);
        let mut netlist = ChipNetlist::new();
        netlist.add_net([0, 4]);
        let (plan, _) = floorplan_connected(&blocks, &netlist, &ConnectedPlanParams::quick());
        assert_eq!(plan.placements().len(), 5);
        // All names survive the permutation.
        for b in &blocks {
            assert!(plan.placement(b.name()).is_some(), "{} lost", b.name());
        }
    }

    #[test]
    fn explicit_backends_reduce_to_the_default_path() {
        // Annealing inner+base through the `_with` entry point is the
        // pre-trait `floorplan_connected`, bit for bit.
        let blocks = blocks(5);
        let mut netlist = ChipNetlist::new();
        netlist.add_net([0, 2, 4]);
        netlist.add_net([1, 3]);
        let params = ConnectedPlanParams::quick();
        let default_path = floorplan_connected(&blocks, &netlist, &params);
        let explicit = floorplan_connected_with(
            &blocks,
            &netlist,
            &params,
            &Annealing::with_params(params.inner.clone()),
            &Annealing::with_params(params.base.clone()),
        );
        assert_eq!(default_path, explicit);
    }

    #[test]
    fn spanning_tree_inner_keeps_all_blocks_and_is_deterministic() {
        let blocks = blocks(6);
        let mut netlist = ChipNetlist::new();
        for i in 0..5u32 {
            netlist.add_net([i, i + 1]);
        }
        let params = ConnectedPlanParams::quick();
        let run = || {
            floorplan_connected_with(
                &blocks,
                &netlist,
                &params,
                &SpanningTree,
                &Annealing::with_params(params.base.clone()),
            )
        };
        let (plan, wl) = run();
        assert_eq!(plan.placements().len(), 6);
        assert!(wl.is_positive());
        assert_eq!(run(), (plan, wl));
    }

    #[test]
    #[should_panic(expected = "references block")]
    fn out_of_range_net_rejected() {
        let blocks = blocks(2);
        let mut netlist = ChipNetlist::new();
        netlist.add_net([0, 7]);
        let _ = floorplan_connected(&blocks, &netlist, &ConnectedPlanParams::quick());
    }

    #[test]
    fn duplicate_blocks_in_net_are_deduplicated() {
        let mut netlist = ChipNetlist::new();
        netlist.add_net([1, 1, 0, 1]);
        assert_eq!(netlist.nets()[0], vec![0, 1]);
    }
}
