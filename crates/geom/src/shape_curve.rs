//! Stockmeyer-style shape curves: the width/height trade-off of a module.
//!
//! The paper's future-work section proposes outputting "four or five aspect
//! ratio estimates to allow chip floor planners more flexibility in choosing
//! module shapes". A *shape curve* is the standard representation of that
//! flexibility: a staircase of non-dominated `(width, height)` realizations.
//! The slicing floorplanner combines child curves with the Stockmeyer
//! algorithm to find the minimum-area chip.
//!
//! Every curve is a *staircase*: non-empty, widths strictly rising,
//! heights strictly falling. [`ShapeCurve::from_points`] builds one from
//! any candidates, and the combines keep it. [`ShapeCurve::beside`] and
//! [`ShapeCurve::stacked`] rely on it: they combine a k-point and an
//! m-point curve with Stockmeyer's linear merge (Stockmeyer 1983), one
//! walk over both staircases in O(k + m) that emits at most k + m − 1
//! points, every one of them on the frontier of all k × m corner pairs.
//! A point set has exactly one frontier, so the merge returns the same
//! curve as pairing every corner and pruning, without building or
//! sorting the pairs.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Lambda, LambdaArea};

/// One feasible realization of a module: a `(width, height)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ShapePoint {
    /// Realized width.
    pub width: Lambda,
    /// Realized height.
    pub height: Lambda,
}

impl ShapePoint {
    /// Creates a shape point.
    pub const fn new(width: Lambda, height: Lambda) -> Self {
        ShapePoint { width, height }
    }

    /// Area of this realization.
    pub fn area(self) -> LambdaArea {
        self.width * self.height
    }

    /// The same shape rotated 90°.
    pub fn rotated(self) -> ShapePoint {
        ShapePoint {
            width: self.height,
            height: self.width,
        }
    }

    /// `true` if `self` is at least as good as `other` in both dimensions
    /// and strictly better in one.
    pub fn dominates(self, other: ShapePoint) -> bool {
        self.width <= other.width
            && self.height <= other.height
            && (self.width < other.width || self.height < other.height)
    }
}

impl fmt::Display for ShapePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}×{}", self.width, self.height)
    }
}

/// A module's shape curve: the Pareto frontier of feasible realizations,
/// stored with width strictly increasing and height strictly decreasing.
///
/// The type is `Serialize` only: a deserialized curve could skip
/// [`ShapeCurve::from_points`] and break the staircase the combines walk.
///
/// # Examples
///
/// ```
/// use maestro_geom::{Lambda, ShapeCurve, ShapePoint};
///
/// let curve = ShapeCurve::from_points([
///     ShapePoint::new(Lambda::new(4), Lambda::new(9)),
///     ShapePoint::new(Lambda::new(6), Lambda::new(6)),
///     ShapePoint::new(Lambda::new(9), Lambda::new(4)),
///     ShapePoint::new(Lambda::new(10), Lambda::new(6)), // dominated, pruned
/// ]);
/// assert_eq!(curve.len(), 3);
/// assert_eq!(curve.min_area_point().area().get(), 36);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct ShapeCurve {
    points: Vec<ShapePoint>,
}

impl ShapeCurve {
    /// Builds a curve from arbitrary candidate realizations, pruning
    /// dominated points and sorting by width.
    ///
    /// # Panics
    ///
    /// Panics if no candidate is provided or any candidate has a
    /// non-positive dimension.
    pub fn from_points<I: IntoIterator<Item = ShapePoint>>(candidates: I) -> Self {
        let mut pts: Vec<ShapePoint> = candidates.into_iter().collect();
        assert!(!pts.is_empty(), "shape curve needs at least one point");
        for p in &pts {
            assert!(
                p.width.is_positive() && p.height.is_positive(),
                "degenerate shape point {p}"
            );
        }
        pts.sort();
        pts.dedup();
        // Sweep by increasing width keeping strictly decreasing height.
        let mut frontier: Vec<ShapePoint> = Vec::with_capacity(pts.len());
        for p in pts {
            while let Some(last) = frontier.last() {
                if last.height >= p.height && last.width >= p.width {
                    frontier.pop();
                } else {
                    break;
                }
            }
            if frontier.last().is_none_or(|last| p.height < last.height) {
                frontier.push(p);
            }
        }
        ShapeCurve { points: frontier }
    }

    /// A rigid (hard) module with exactly one realization.
    pub fn hard(width: Lambda, height: Lambda) -> Self {
        ShapeCurve::from_points([ShapePoint::new(width, height)])
    }

    /// A soft module of fixed `area` sampled at `steps` aspect ratios spread
    /// geometrically over `[min_ratio, max_ratio]` (width ÷ height).
    ///
    /// This is how the floorplanner turns an estimator area + aspect-ratio
    /// range into a flexible block.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`, the area is non-positive, or the ratio range
    /// is invalid.
    pub fn soft(area: LambdaArea, min_ratio: f64, max_ratio: f64, steps: usize) -> Self {
        assert!(steps > 0, "soft curve needs at least one step");
        assert!(area.get() > 0, "soft curve of non-positive area {area}");
        assert!(
            min_ratio > 0.0 && max_ratio >= min_ratio,
            "invalid ratio range [{min_ratio}, {max_ratio}]"
        );
        let a = area.as_f64();
        let mut pts = Vec::with_capacity(steps);
        for i in 0..steps {
            let t = if steps == 1 {
                0.5
            } else {
                i as f64 / (steps - 1) as f64
            };
            let ratio = min_ratio * (max_ratio / min_ratio).powf(t);
            // width/height = ratio and width*height = a.
            let width = (a * ratio).sqrt();
            let w = Lambda::from_f64_ceil(width.max(1.0));
            let h = Lambda::from_f64_ceil((a / w.as_f64()).max(1.0));
            pts.push(ShapePoint::new(w, h));
        }
        ShapeCurve::from_points(pts)
    }

    /// The frontier points, width-ascending.
    pub fn points(&self) -> &[ShapePoint] {
        &self.points
    }

    /// Number of non-dominated realizations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the curve is empty (never true for a constructed curve).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The realization with the smallest area.
    ///
    /// # Panics
    ///
    /// Never panics for curves built through the public constructors.
    pub fn min_area_point(&self) -> ShapePoint {
        *self
            .points
            .iter()
            .min_by_key(|p| p.area())
            .expect("shape curve is never empty")
    }

    /// The curve of the same module rotated 90°.
    pub fn rotated(&self) -> ShapeCurve {
        ShapeCurve::from_points(self.points.iter().map(|p| p.rotated()))
    }

    /// The curve allowing either orientation of the module.
    pub fn with_rotations(&self) -> ShapeCurve {
        ShapeCurve::from_points(
            self.points
                .iter()
                .copied()
                .chain(self.points.iter().map(|p| p.rotated())),
        )
    }

    /// Stockmeyer combination for a **horizontal** cut: children stacked
    /// side by side (widths add, heights max).
    ///
    /// Stockmeyer's linear merge, which relies on both curves being
    /// staircases (as every constructed curve is): it starts at both
    /// narrowest (tallest) points. Only lowering the taller side can
    /// lower the combined height, so after each emitted point it
    /// advances the taller side, or both on a tie, and stops when a side
    /// it must advance has no next point. O(k + m) for curves of k and m
    /// points; the result has at most k + m − 1.
    pub fn beside(&self, other: &ShapeCurve) -> ShapeCurve {
        let points = merge(
            self.points.iter(),
            other.points.iter(),
            |p| p.height,
            |a, b| ShapePoint::new(a.width + b.width, a.height.max(b.height)),
        );
        ShapeCurve { points }
    }

    /// Stockmeyer combination for a **vertical** cut: children stacked on
    /// top of each other (heights add, widths max).
    ///
    /// The mirror image of [`ShapeCurve::beside`], with the same
    /// staircase precondition: the merge starts at both widest points
    /// and advances the wider side toward narrower points. Same
    /// O(k + m) cost and k + m − 1 bound.
    pub fn stacked(&self, other: &ShapeCurve) -> ShapeCurve {
        let mut points = merge(
            self.points.iter().rev(),
            other.points.iter().rev(),
            |p| p.width,
            |a, b| ShapePoint::new(a.width.max(b.width), a.height + b.height),
        );
        points.reverse();
        ShapeCurve { points }
    }
}

/// Stockmeyer's merge of two staircases, each walked from its point with
/// the largest `level` (the coordinate the combine takes the max of).
/// Pairs the current points, then advances whichever side sets the
/// combined level, both on a tie; a side that must advance but is spent
/// ends the walk, since no later pair can lower the level. The points
/// come out in the walk's order, each strictly lower in `level` than the
/// one before.
fn merge<'a, I: ExactSizeIterator<Item = &'a ShapePoint>>(
    mut a: I,
    mut b: I,
    level: impl Fn(&ShapePoint) -> Lambda,
    join: impl Fn(&ShapePoint, &ShapePoint) -> ShapePoint,
) -> Vec<ShapePoint> {
    let mut out = Vec::with_capacity((a.len() + b.len()).saturating_sub(1));
    let (Some(mut p), Some(mut q)) = (a.next(), b.next()) else {
        unreachable!("shape curves are never empty")
    };
    loop {
        out.push(join(p, q));
        let (lp, lq) = (level(p), level(q));
        if lp >= lq {
            match a.next() {
                Some(next) => p = next,
                None => break,
            }
        }
        if lq >= lp {
            match b.next() {
                Some(next) => q = next,
                None => break,
            }
        }
    }
    out
}

impl fmt::Display for ShapeCurve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn sp(w: i64, h: i64) -> ShapePoint {
        ShapePoint::new(Lambda::new(w), Lambda::new(h))
    }

    /// The reference combine: every corner pair, pruned to the frontier.
    fn all_pairs(
        a: &ShapeCurve,
        b: &ShapeCurve,
        join: impl Fn(ShapePoint, ShapePoint) -> ShapePoint,
    ) -> ShapeCurve {
        let mut pairs = Vec::new();
        for &p in a.points() {
            for &q in b.points() {
                pairs.push(join(p, q));
            }
        }
        ShapeCurve::from_points(pairs)
    }

    /// A staircase of 1–12 points whose widths and heights are distinct
    /// values from 1..=16, chosen by sorting 1..=16 on random keys. With
    /// so few values, two curves often share a width or a height.
    fn staircase() -> impl Strategy<Value = ShapeCurve> {
        (1usize..=12, vec(any::<u64>(), 32..33)).prop_map(|(k, keys)| {
            let pick = |keys: &[u64]| {
                let mut values: Vec<i64> = (1..=16).collect();
                values.sort_by_key(|&v| keys[v as usize - 1]);
                let mut chosen = values[..k].to_vec();
                chosen.sort_unstable();
                chosen
            };
            let widths = pick(&keys[..16]);
            let heights = pick(&keys[16..]);
            let curve = ShapeCurve::from_points(
                widths
                    .iter()
                    .zip(heights.iter().rev())
                    .map(|(&w, &h)| sp(w, h)),
            );
            assert_eq!(curve.len(), k, "a staircase keeps every point");
            curve
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn merges_match_the_all_pairs_frontier(a in staircase(), b in staircase()) {
            let bound = a.len() + b.len() - 1;
            let beside = a.beside(&b);
            prop_assert_eq!(
                &beside,
                &all_pairs(&a, &b, |p, q| ShapePoint::new(p.width + q.width, p.height.max(q.height))),
                "beside {} {}", a, b
            );
            prop_assert!(beside.len() <= bound, "beside {} {}", a, b);
            let stacked = a.stacked(&b);
            prop_assert_eq!(
                &stacked,
                &all_pairs(&a, &b, |p, q| ShapePoint::new(p.width.max(q.width), p.height + q.height)),
                "stacked {} {}", a, b
            );
            prop_assert!(stacked.len() <= bound, "stacked {} {}", a, b);
        }
    }

    #[test]
    fn domination() {
        assert!(sp(3, 3).dominates(sp(4, 3)));
        assert!(sp(3, 3).dominates(sp(4, 4)));
        assert!(!sp(3, 3).dominates(sp(3, 3)));
        assert!(!sp(3, 5).dominates(sp(5, 3)));
    }

    #[test]
    fn frontier_prunes_dominated_points() {
        let c = ShapeCurve::from_points([sp(4, 9), sp(6, 6), sp(9, 4), sp(10, 6), sp(6, 7)]);
        assert_eq!(c.points(), &[sp(4, 9), sp(6, 6), sp(9, 4)]);
        assert!(!c.is_empty());
    }

    #[test]
    fn frontier_heights_strictly_decrease() {
        let c = ShapeCurve::from_points([sp(2, 8), sp(3, 8), sp(4, 5), sp(5, 5), sp(8, 2)]);
        let pts = c.points();
        for w in pts.windows(2) {
            assert!(w[0].width < w[1].width);
            assert!(w[0].height > w[1].height);
        }
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_curve_rejected() {
        let _ = ShapeCurve::from_points(std::iter::empty());
    }

    #[test]
    fn hard_curve_single_point() {
        let c = ShapeCurve::hard(Lambda::new(10), Lambda::new(5));
        assert_eq!(c.len(), 1);
        assert_eq!(c.min_area_point(), sp(10, 5));
    }

    #[test]
    fn soft_curve_preserves_area_approximately() {
        let c = ShapeCurve::soft(LambdaArea::new(10_000), 0.5, 2.0, 5);
        assert!(c.len() >= 3, "expected several distinct shapes: {c}");
        for p in c.points() {
            let a = p.area().get();
            assert!(
                (10_000..=10_600).contains(&a),
                "ceil rounding may only grow area slightly: {p} -> {a}"
            );
        }
    }

    #[test]
    fn stockmeyer_combinations() {
        let a = ShapeCurve::hard(Lambda::new(4), Lambda::new(2));
        let b = ShapeCurve::hard(Lambda::new(3), Lambda::new(5));
        let beside = a.beside(&b);
        assert_eq!(beside.points(), &[sp(7, 5)]);
        let stacked = a.stacked(&b);
        assert_eq!(stacked.points(), &[sp(4, 7)]);
    }

    #[test]
    fn stockmeyer_flexible_children() {
        let a = ShapeCurve::from_points([sp(2, 6), sp(6, 2)]);
        let b = ShapeCurve::from_points([sp(3, 4), sp(4, 3)]);
        let c = a.beside(&b);
        // Candidates: (5,6) (6,6)✗ (9,4) (10,3); frontier keeps (5,6),(9,4),(10,3).
        assert_eq!(c.points(), &[sp(5, 6), sp(9, 4), sp(10, 3)]);
    }

    #[test]
    fn rotation_round_trip() {
        let c = ShapeCurve::from_points([sp(4, 9), sp(9, 4)]);
        assert_eq!(c.rotated().rotated(), c);
        let wr = c.with_rotations();
        assert_eq!(wr.points(), c.points(), "curve is rotation-symmetric");
        let asym = ShapeCurve::hard(Lambda::new(10), Lambda::new(2));
        assert_eq!(asym.with_rotations().len(), 2);
    }
}
