//! Property-based tests for the geometry substrate.

use maestro_geom::{Interval, Lambda, LambdaArea, Point, Rect, ShapeCurve, ShapePoint};
use proptest::prelude::*;

fn lambda() -> impl Strategy<Value = Lambda> {
    (-1_000i64..1_000).prop_map(Lambda::new)
}

fn positive_lambda() -> impl Strategy<Value = Lambda> {
    (1i64..1_000).prop_map(Lambda::new)
}

fn point() -> impl Strategy<Value = Point> {
    (lambda(), lambda()).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #[test]
    fn manhattan_triangle_inequality(a in point(), b in point(), c in point()) {
        let direct = a.manhattan_distance(c);
        let via = a.manhattan_distance(b) + b.manhattan_distance(c);
        prop_assert!(direct <= via);
    }

    #[test]
    fn interval_union_contains_both(a in lambda(), b in lambda(), c in lambda(), d in lambda()) {
        let i = Interval::new(a, b);
        let j = Interval::new(c, d);
        let u = i.union(j);
        prop_assert!(u.contains(i.lo()) && u.contains(i.hi()));
        prop_assert!(u.contains(j.lo()) && u.contains(j.hi()));
    }

    #[test]
    fn interval_intersection_within_both(a in lambda(), b in lambda(), c in lambda(), d in lambda()) {
        let i = Interval::new(a, b);
        let j = Interval::new(c, d);
        if let Some(k) = i.intersection(j) {
            prop_assert!(i.contains(k.lo()) && i.contains(k.hi()));
            prop_assert!(j.contains(k.lo()) && j.contains(k.hi()));
        } else {
            prop_assert!(!i.overlaps(j));
        }
    }

    #[test]
    fn rect_union_covers_operands(
        p in point(), w in positive_lambda(), h in positive_lambda(),
        q in point(), w2 in positive_lambda(), h2 in positive_lambda(),
    ) {
        let a = Rect::new(p, w, h);
        let b = Rect::new(q, w2, h2);
        let u = a.union(b);
        prop_assert!(u.contains(a.origin()) && u.contains(a.top_right()));
        prop_assert!(u.contains(b.origin()) && u.contains(b.top_right()));
        prop_assert!(u.area() >= a.area());
        prop_assert!(u.area() >= b.area());
    }

    #[test]
    fn isqrt_ceil_is_tight(a in 0i64..4_000_000) {
        let side = LambdaArea::new(a).isqrt_ceil().get();
        prop_assert!(side * side >= a);
        if side > 0 {
            prop_assert!((side - 1) * (side - 1) < a);
        }
    }

    #[test]
    fn shape_curve_frontier_is_antichain(
        seeds in proptest::collection::vec((1i64..200, 1i64..200), 1..20)
    ) {
        let curve = ShapeCurve::from_points(
            seeds.iter().map(|&(w, h)| ShapePoint::new(Lambda::new(w), Lambda::new(h))),
        );
        let pts = curve.points();
        for (i, a) in pts.iter().enumerate() {
            for (j, b) in pts.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.dominates(*b), "{a} dominates {b}");
                }
            }
        }
        // Every input point is dominated-or-equalled by some frontier point.
        for &(w, h) in &seeds {
            let sp = ShapePoint::new(Lambda::new(w), Lambda::new(h));
            prop_assert!(pts.iter().any(|p| *p == sp || p.dominates(sp)));
        }
    }

    #[test]
    fn stockmeyer_beside_width_is_sum_of_some_pair(
        w1 in 1i64..100, h1 in 1i64..100,
        w2 in 1i64..100, h2 in 1i64..100,
    ) {
        let a = ShapeCurve::hard(Lambda::new(w1), Lambda::new(h1));
        let b = ShapeCurve::hard(Lambda::new(w2), Lambda::new(h2));
        let c = a.beside(&b);
        prop_assert_eq!(c.len(), 1);
        let p = c.points()[0];
        prop_assert_eq!(p.width.get(), w1 + w2);
        prop_assert_eq!(p.height.get(), h1.max(h2));
    }
}
