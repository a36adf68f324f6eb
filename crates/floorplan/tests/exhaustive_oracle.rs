//! An exact oracle for the slicing floorplanners.
//!
//! For a handful of blocks every slicing floorplan can be enumerated: a
//! dynamic program over block subsets gives each subset the shape curve
//! of all its slicing arrangements, the frontier of both cuts over every
//! split of the subset into two non-empty halves. The full set's
//! smallest-area point is then the best area any slicing floorplanner
//! can reach. The program combines curves by pairing every corner and
//! pruning with `ShapeCurve::from_points`, so it shares no code with the
//! linear merge the floorplanner uses.
//!
//! Over a seeded population of soft and hard blocks, no registered
//! backend may beat that optimum, and the annealer must reach it exactly
//! up to three blocks. With more blocks the annealer may miss it; the
//! rows these tests print (`--nocapture`) record by how much.

use maestro_floorplan::backend::registry;
use maestro_floorplan::{Block, PlanParams};
use maestro_geom::{Lambda, LambdaArea, ShapeCurve, ShapePoint};

/// Block sets drawn per block count. The annealers' fixed 24,000-move
/// schedule sets what each set costs, so the population stays small.
const SETS_PER_SIZE: u64 = 8;

/// The largest block count enumerated: 3^6 subset splits stay cheap.
const MAX_BLOCKS: usize = 6;

/// A deterministic splitmix64 walk.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Block set `set` of size `n`: two in three blocks soft (five aspect
/// steps, 800–10,000 λ²), the rest hard (8–80 λ a side, either
/// orientation).
fn population(n: usize, set: u64) -> Vec<Block> {
    let mut state = (n as u64) << 32 | set;
    (0..n)
        .map(|i| {
            let r = mix(&mut state);
            if r.is_multiple_of(3) {
                let w = 8 + (mix(&mut state) % 73) as i64;
                let h = 8 + (mix(&mut state) % 73) as i64;
                Block::hard(format!("h{i}"), Lambda::new(w), Lambda::new(h))
            } else {
                let area = 800 + (mix(&mut state) % 9_201) as i64;
                Block::soft(format!("s{i}"), LambdaArea::new(area), 5)
            }
        })
        .collect()
}

/// The smallest area over every slicing floorplan of `blocks`.
fn optimum(blocks: &[Block]) -> LambdaArea {
    let full = (1usize << blocks.len()) - 1;
    let mut curves: Vec<Option<ShapeCurve>> = vec![None; full + 1];
    for (i, block) in blocks.iter().enumerate() {
        curves[1 << i] = Some(block.curve().clone());
    }
    // Every proper subset of `set` is a smaller number, so its curve is
    // ready when `set` is reached.
    for set in 1..=full {
        if set.count_ones() < 2 {
            continue;
        }
        // Halves `a` holding the lowest block, so each split counts once.
        let low = set & set.wrapping_neg();
        let mut corners = Vec::new();
        let mut a = (set - 1) & set;
        while a > 0 {
            if a & low != 0 {
                let left = curves[a].as_ref().expect("smaller subset");
                let right = curves[set ^ a].as_ref().expect("smaller subset");
                for p in left.points() {
                    for q in right.points() {
                        corners.push(ShapePoint::new(p.width + q.width, p.height.max(q.height)));
                        corners.push(ShapePoint::new(p.width.max(q.width), p.height + q.height));
                    }
                }
            }
            a = (a - 1) & set;
        }
        curves[set] = Some(ShapeCurve::from_points(corners));
    }
    curves[full]
        .as_ref()
        .expect("full set")
        .min_area_point()
        .area()
}

/// Checks every registered backend against the optimum on the sets of
/// `n` blocks and prints one table row per backend: the sets it solved
/// exactly, and its worst gap above the optimum.
fn check_against_the_optimum(n: usize) {
    let backends = registry(&PlanParams::default());
    // Per backend: sets at the optimum, worst relative gap.
    let mut tally = vec![(0u64, 0.0f64); backends.len()];
    for set in 0..SETS_PER_SIZE {
        let blocks = population(n, set);
        let best = optimum(&blocks);
        for (backend, (hits, worst)) in backends.iter().zip(&mut tally) {
            let area = backend.plan(&blocks, None).plan.area();
            assert!(
                area >= best,
                "{} beat the slicing optimum on {n} blocks, set {set}: {area} < {best}",
                backend.name()
            );
            if backend.name() == "annealing" && n <= 3 {
                assert_eq!(
                    area, best,
                    "annealing missed the optimum on {n} blocks, set {set}"
                );
            }
            *hits += u64::from(area == best);
            *worst = worst.max(area.as_f64() / best.as_f64() - 1.0);
        }
    }
    for (backend, (hits, worst)) in backends.iter().zip(&tally) {
        println!(
            "{n} blocks  {:<16} at the optimum {hits}/{SETS_PER_SIZE}, worst gap {:+.1}%",
            backend.name(),
            worst * 100.0
        );
    }
}

// One test per block count, so the harness runs them in parallel.

#[test]
fn two_blocks() {
    check_against_the_optimum(2);
}

#[test]
fn three_blocks() {
    check_against_the_optimum(3);
}

#[test]
fn four_blocks() {
    check_against_the_optimum(4);
}

#[test]
fn five_blocks() {
    check_against_the_optimum(5);
}

#[test]
fn six_blocks() {
    check_against_the_optimum(MAX_BLOCKS);
}
