//! Property-based tests for tile evaluation: after any sequence of
//! annealing moves, every evaluation must be a packing (disjoint tiles
//! inside the bounding box). The moves' own properties (validity, exact
//! undo) are tested with the expression, in `maestro_place::postfix`.

use maestro_fullcustom::polish::evaluate;
use maestro_geom::Lambda;
use maestro_place::postfix::PolishExpr;
use proptest::prelude::*;

fn tile_sizes(dims: &[(i64, i64)]) -> Vec<(Lambda, Lambda)> {
    dims.iter()
        .map(|&(w, h)| (Lambda::new(w), Lambda::new(h)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_evaluation_is_a_packing(
        dims in proptest::collection::vec((2i64..40, 2i64..40), 1..12),
        moves in proptest::collection::vec((0u8..4, 0usize..64), 0..30),
    ) {
        let sizes = tile_sizes(&dims);
        let mut expr = PolishExpr::initial(dims.len());
        for &(kind, arg) in &moves {
            let pick = |count: usize| arg % count;
            match kind {
                0 => expr.swap_adjacent_operands(pick),
                1 => expr.complement_chain(pick),
                2 => expr.swap_operand_operator(pick),
                _ => expr.flip_rotation(arg % dims.len()),
            };
        }
        let ev = evaluate(&expr, &sizes);
        // Disjoint tiles…
        for i in 0..dims.len() {
            for j in i + 1..dims.len() {
                prop_assert!(
                    !ev.placements[i].overlaps_strictly(ev.placements[j]),
                    "tiles {i}/{j} overlap: {} vs {}",
                    ev.placements[i],
                    ev.placements[j]
                );
            }
        }
        // …inside the bounding box…
        for p in &ev.placements {
            prop_assert!(p.top_right().x <= ev.width);
            prop_assert!(p.top_right().y <= ev.height);
        }
        // …whose area is at least the tile sum.
        let tile_area: i64 = ev.placements.iter().map(|p| p.area().get()).sum();
        prop_assert!(ev.area().get() >= tile_area);
        // Rotation flags preserve per-tile area.
        for (i, &(w, h)) in dims.iter().enumerate() {
            prop_assert_eq!(ev.placements[i].area().get(), w * h);
        }
    }
}
