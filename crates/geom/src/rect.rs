//! Axis-aligned rectangles in λ coordinates.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{AspectRatio, Interval, Lambda, LambdaArea, Point};

/// An axis-aligned rectangle in the layout plane.
///
/// Stored as its lower-left corner plus a non-negative size, so an empty
/// rectangle (zero width or height) is representable but an inverted one is
/// not.
///
/// # Examples
///
/// ```
/// use maestro_geom::{Lambda, Point, Rect};
///
/// let r = Rect::new(
///     Point::new(Lambda::new(2), Lambda::new(3)),
///     Lambda::new(10),
///     Lambda::new(4),
/// );
/// assert_eq!(r.area().get(), 40);
/// assert!(r.contains(Point::new(Lambda::new(5), Lambda::new(4))));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rect {
    origin: Point,
    width: Lambda,
    height: Lambda,
}

impl Rect {
    /// Creates a rectangle from its lower-left corner and size.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is negative.
    pub fn new(origin: Point, width: Lambda, height: Lambda) -> Self {
        assert!(
            width.get() >= 0 && height.get() >= 0,
            "rectangle size must be non-negative: {width} × {height}"
        );
        Rect {
            origin,
            width,
            height,
        }
    }

    /// Creates a rectangle of the given size at the origin.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is negative.
    pub fn from_size(width: Lambda, height: Lambda) -> Self {
        Rect::new(Point::ORIGIN, width, height)
    }

    /// Creates the rectangle spanning two opposite corners (any order).
    pub fn from_corners(a: Point, b: Point) -> Self {
        let lo = Point::new(a.x.min(b.x), a.y.min(b.y));
        let hi = Point::new(a.x.max(b.x), a.y.max(b.y));
        Rect {
            origin: lo,
            width: hi.x - lo.x,
            height: hi.y - lo.y,
        }
    }

    /// Lower-left corner.
    #[inline]
    pub const fn origin(self) -> Point {
        self.origin
    }

    /// Horizontal extent.
    #[inline]
    pub const fn width(self) -> Lambda {
        self.width
    }

    /// Vertical extent.
    #[inline]
    pub const fn height(self) -> Lambda {
        self.height
    }

    /// Upper-right corner.
    #[inline]
    pub fn top_right(self) -> Point {
        Point::new(self.origin.x + self.width, self.origin.y + self.height)
    }

    /// Area in λ².
    #[inline]
    pub fn area(self) -> LambdaArea {
        self.width * self.height
    }

    /// Half-perimeter `width + height` — the HPWL contribution of a net
    /// bounding box.
    #[inline]
    pub fn half_perimeter(self) -> Lambda {
        self.width + self.height
    }

    /// Width : height ratio.
    ///
    /// # Panics
    ///
    /// Panics if the height is zero.
    #[inline]
    pub fn aspect_ratio(self) -> AspectRatio {
        AspectRatio::of(self.width, self.height)
    }

    /// `true` if the rectangle has zero area.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.width == Lambda::ZERO || self.height == Lambda::ZERO
    }

    /// Horizontal span as an interval.
    #[inline]
    pub fn x_span(self) -> Interval {
        Interval::new(self.origin.x, self.origin.x + self.width)
    }

    /// Vertical span as an interval.
    #[inline]
    pub fn y_span(self) -> Interval {
        Interval::new(self.origin.y, self.origin.y + self.height)
    }

    /// `true` if `p` lies within the closed rectangle.
    #[inline]
    pub fn contains(self, p: Point) -> bool {
        self.x_span().contains(p.x) && self.y_span().contains(p.y)
    }

    /// `true` if the open interiors overlap (abutment does not count) —
    /// the design-rule-violation test for placed cells.
    #[inline]
    pub fn overlaps_strictly(self, other: Rect) -> bool {
        self.x_span().overlaps_strictly(other.x_span())
            && self.y_span().overlaps_strictly(other.y_span())
    }

    /// Smallest rectangle covering both operands (net bounding box).
    #[inline]
    pub fn union(self, other: Rect) -> Rect {
        Rect::from_corners(
            Point::new(
                self.origin.x.min(other.origin.x),
                self.origin.y.min(other.origin.y),
            ),
            Point::new(
                self.top_right().x.max(other.top_right().x),
                self.top_right().y.max(other.top_right().y),
            ),
        )
    }

    /// Smallest rectangle covering `self` and the point `p`.
    #[inline]
    pub fn expanded_to(self, p: Point) -> Rect {
        self.union(Rect::new(p, Lambda::ZERO, Lambda::ZERO))
    }

    /// The rectangle translated by `(dx, dy)`.
    #[inline]
    pub fn translated(self, dx: Lambda, dy: Lambda) -> Rect {
        Rect {
            origin: self.origin.translated(dx, dy),
            ..self
        }
    }

    /// Bounding box of a set of points; `None` for an empty set.
    pub fn bounding_box<I: IntoIterator<Item = Point>>(points: I) -> Option<Rect> {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut rect = Rect::new(first, Lambda::ZERO, Lambda::ZERO);
        for p in iter {
            rect = rect.expanded_to(p);
        }
        Some(rect)
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}×{}", self.origin, self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: i64, y: i64) -> Point {
        Point::new(Lambda::new(x), Lambda::new(y))
    }

    fn rect(x: i64, y: i64, w: i64, h: i64) -> Rect {
        Rect::new(pt(x, y), Lambda::new(w), Lambda::new(h))
    }

    #[test]
    fn basic_accessors() {
        let r = rect(2, 3, 10, 4);
        assert_eq!(r.origin(), pt(2, 3));
        assert_eq!(r.top_right(), pt(12, 7));
        assert_eq!(r.area(), LambdaArea::new(40));
        assert_eq!(r.half_perimeter(), Lambda::new(14));
        assert!(!r.is_empty());
        assert!(rect(0, 0, 0, 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_size_rejected() {
        let _ = Rect::new(Point::ORIGIN, Lambda::new(-1), Lambda::new(2));
    }

    #[test]
    fn from_corners_any_order() {
        assert_eq!(Rect::from_corners(pt(5, 7), pt(1, 2)), rect(1, 2, 4, 5));
        assert_eq!(Rect::from_corners(pt(1, 2), pt(5, 7)), rect(1, 2, 4, 5));
    }

    #[test]
    fn containment_and_intersection() {
        let r = rect(0, 0, 10, 10);
        assert!(r.contains(pt(0, 0)));
        assert!(r.contains(pt(10, 10)));
        assert!(!r.contains(pt(11, 5)));
        assert!(!r.overlaps_strictly(rect(10, 0, 5, 5))); // edge abutment
        assert!(r.overlaps_strictly(rect(9, 9, 5, 5)));
    }

    #[test]
    fn union_and_bounding_box() {
        assert_eq!(rect(0, 0, 2, 2).union(rect(5, 5, 1, 1)), rect(0, 0, 6, 6));
        let bb = Rect::bounding_box([pt(1, 1), pt(4, -2), pt(0, 3)]).expect("non-empty");
        assert_eq!(bb, rect(0, -2, 4, 5));
        assert_eq!(Rect::bounding_box(std::iter::empty()), None);
    }

    #[test]
    fn translate_and_inflate() {
        assert_eq!(
            rect(1, 1, 2, 2).translated(Lambda::new(3), Lambda::new(-1)),
            rect(4, 0, 2, 2)
        );
    }

    #[test]
    fn aspect_ratio_of_rect() {
        let r = rect(0, 0, 30, 10);
        assert!((r.aspect_ratio().as_f64() - 3.0).abs() < 1e-12);
    }
}
