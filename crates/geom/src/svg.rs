//! A minimal SVG writer for layout diagrams.
//!
//! Every layout-producing crate (place & route, full-custom synthesis,
//! floorplanning) renders its result through this writer so humans can
//! inspect what the numbers describe. Only the handful of SVG elements a
//! layout sketch needs are supported; coordinates are λ, flipped so that
//! the layout's y-up convention renders naturally.

use std::fmt::Write as _;

use crate::{Lambda, Rect};

/// An SVG document under construction, in λ coordinates.
///
/// # Examples
///
/// ```
/// use maestro_geom::{svg::SvgDocument, Lambda, Rect};
///
/// let mut doc = SvgDocument::new(Lambda::new(100), Lambda::new(50));
/// doc.rect(Rect::from_size(Lambda::new(40), Lambda::new(20)), "#88f", Some("cell"));
/// let text = doc.finish();
/// assert!(text.starts_with("<svg") && text.ends_with("</svg>\n"));
/// ```
#[derive(Debug, Clone)]
pub struct SvgDocument {
    width: i64,
    height: i64,
    scale: f64,
    body: String,
}

impl SvgDocument {
    /// Pixels per λ at the default scale.
    pub const DEFAULT_SCALE: f64 = 2.0;

    /// Starts a document covering `width × height` λ.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is non-positive.
    pub fn new(width: Lambda, height: Lambda) -> Self {
        assert!(
            width.is_positive() && height.is_positive(),
            "svg canvas must be non-degenerate: {width} × {height}"
        );
        SvgDocument {
            width: width.get(),
            height: height.get(),
            scale: Self::DEFAULT_SCALE,
            body: String::new(),
        }
    }

    /// Overrides the pixel-per-λ scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "bad svg scale {scale}");
        self.scale = scale;
        self
    }

    fn x(&self, v: Lambda) -> f64 {
        v.get() as f64 * self.scale
    }

    /// λ y-up to SVG y-down.
    fn y_top(&self, y: Lambda, h: Lambda) -> f64 {
        (self.height - y.get() - h.get()) as f64 * self.scale
    }

    /// Draws a filled rectangle with an optional centered label.
    pub fn rect(&mut self, r: Rect, fill: &str, label: Option<&str>) {
        let _ = write!(
            self.body,
            r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="{fill}" stroke="#333" stroke-width="0.5"/>"##,
            self.x(r.origin().x),
            self.y_top(r.origin().y, r.height()),
            r.width().get() as f64 * self.scale,
            r.height().get() as f64 * self.scale,
        );
        self.body.push('\n');
        if let Some(label) = label {
            let cx = self.x(r.origin().x) + r.width().get() as f64 * self.scale / 2.0;
            let cy =
                self.y_top(r.origin().y, r.height()) + r.height().get() as f64 * self.scale / 2.0;
            let size = (r.height().get() as f64 * self.scale * 0.4)
                .min(r.width().get() as f64 * self.scale / (label.len().max(1) as f64))
                .max(4.0);
            let _ = write!(
                self.body,
                r#"<text x="{cx:.1}" y="{cy:.1}" font-size="{size:.1}" text-anchor="middle" dominant-baseline="middle" font-family="monospace">{}</text>"#,
                escape(label)
            );
            self.body.push('\n');
        }
    }

    /// Draws a horizontal wire segment at λ height `y` spanning
    /// `x1..=x2`.
    pub fn hline(&mut self, x1: Lambda, x2: Lambda, y: Lambda, stroke: &str) {
        let yy = (self.height - y.get()) as f64 * self.scale;
        let _ = write!(
            self.body,
            r#"<line x1="{:.1}" y1="{yy:.1}" x2="{:.1}" y2="{yy:.1}" stroke="{stroke}" stroke-width="1"/>"#,
            self.x(x1),
            self.x(x2),
        );
        self.body.push('\n');
    }

    /// Number of elements emitted so far.
    pub fn element_count(&self) -> usize {
        self.body.lines().count()
    }

    /// Finalizes the document.
    pub fn finish(self) -> String {
        format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\" viewBox=\"0 0 {:.0} {:.0}\">\n\
             <rect width=\"100%\" height=\"100%\" fill=\"#fafafa\"/>\n{}</svg>\n",
            self.width as f64 * self.scale,
            self.height as f64 * self.scale,
            self.width as f64 * self.scale,
            self.height as f64 * self.scale,
            self.body
        )
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    #[test]
    fn document_structure() {
        let mut doc = SvgDocument::new(Lambda::new(100), Lambda::new(60));
        doc.rect(
            Rect::from_size(Lambda::new(10), Lambda::new(10)),
            "#abc",
            Some("m<1>"),
        );
        doc.hline(Lambda::new(0), Lambda::new(50), Lambda::new(30), "#f00");
        let text = doc.finish();
        assert!(text.starts_with("<svg"));
        assert!(text.ends_with("</svg>\n"));
        assert_eq!(text.matches("<rect").count(), 2); // background + 1
        assert_eq!(text.matches("<line").count(), 1);
        assert!(text.contains("m&lt;1&gt;"), "labels are escaped");
    }

    #[test]
    fn y_axis_is_flipped() {
        let mut doc = SvgDocument::new(Lambda::new(10), Lambda::new(10));
        // A rect at the λ origin (bottom-left) lands at the SVG bottom.
        doc.rect(
            Rect::new(Point::ORIGIN, Lambda::new(2), Lambda::new(2)),
            "#000",
            None,
        );
        let text = doc.finish();
        // Height 10λ at scale 2 = 20px; a 2λ rect at y=0 renders at
        // svg-y = (10-0-2)*2 = 16.
        assert!(text.contains(r#"y="16.0""#), "{text}");
    }

    #[test]
    #[should_panic(expected = "non-degenerate")]
    fn degenerate_canvas_rejected() {
        let _ = SvgDocument::new(Lambda::ZERO, Lambda::new(10));
    }

    #[test]
    fn element_count_tracks_emissions() {
        let mut doc = SvgDocument::new(Lambda::new(10), Lambda::new(10));
        assert_eq!(doc.element_count(), 0);
        doc.hline(Lambda::new(0), Lambda::new(5), Lambda::new(5), "#000");
        assert_eq!(doc.element_count(), 1);
    }
}
