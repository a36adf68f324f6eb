//! Lambda-based geometry substrate for the `maestro` VLSI area estimator.
//!
//! Chen & Bushnell's DAC 1988 module area estimator works entirely in
//! *lambda* units — the Mead–Conway scalable design-rule unit where `λ` is
//! "the maximum allowable mask misalignment" of the target process. Every
//! downstream crate (technology database, netlist statistics, the estimator
//! itself, the place-and-route baseline and the full-custom synthesizer)
//! measures lengths in [`Lambda`] and areas in [`LambdaArea`].
//!
//! This crate provides:
//!
//! * [`Lambda`] / [`LambdaArea`] — integer newtypes for λ and λ² quantities,
//!   with saturating-free checked arithmetic through standard operators;
//! * [`Point`], [`Rect`], [`Interval`] — minimal planar geometry used by the
//!   layout substrates;
//! * [`AspectRatio`] — width : height ratios as reported in the paper's
//!   Tables 1 and 2;
//! * [`ShapeCurve`] — piecewise-constant width/height trade-off curves
//!   (Stockmeyer-style) used by the slicing floorplanner;
//! * [`design_rules`] — λ design-rule sets for Mead–Conway nMOS and a
//!   generic CMOS process.
//!
//! # Examples
//!
//! ```
//! use maestro_geom::{Lambda, Rect};
//!
//! let cell = Rect::from_size(Lambda::new(40), Lambda::new(28));
//! assert_eq!(cell.area(), Lambda::new(40) * Lambda::new(28));
//! assert!((cell.aspect_ratio().as_f64() - 40.0 / 28.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aspect;
pub mod design_rules;
mod interval;
mod lambda;
mod point;
mod rect;
mod shape_curve;
pub mod svg;

pub use aspect::AspectRatio;
pub use design_rules::DesignRules;
pub use interval::Interval;
pub use lambda::{Lambda, LambdaArea, Micron};
pub use point::Point;
pub use rect::Rect;
pub use shape_curve::{ShapeCurve, ShapePoint};
