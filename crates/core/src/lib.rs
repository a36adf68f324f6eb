//! The Chen & Bushnell module area estimator — the primary contribution of
//! *"A Module Area Estimator for VLSI Layout"*, DAC 1988.
//!
//! Given a circuit schematic (via [`maestro_netlist`]) and a process
//! database (via [`maestro_tech`]), the estimator predicts module layout
//! area and aspect ratio **before any layout exists**, for two layout
//! methodologies:
//!
//! * [`standard_cell`] — rows of equal-height cells separated by routing
//!   channels. The module area is dominated by routing, so the estimator
//!   computes the *expectation value* of the total number of routing
//!   tracks (Eqs. 2–3), the expected number of feed-throughs in the most
//!   loaded (central) row (Eqs. 4–11), and combines them into the module
//!   area of Eq. 12 and the aspect ratio of Eq. 14.
//! * [`full_custom`] — arbitrary device placement. Per-net *minimum
//!   interconnection areas* are summed with device areas (Eq. 13), once
//!   with exact device dimensions and once with averages.
//!
//! Supporting modules:
//!
//! * [`prob`] — the row-occupancy distribution of Eq. 2 and its
//!   expectation (Eq. 3), with an exact rational reference implementation;
//! * [`feedthrough`] — the per-row feed-through probability profile
//!   (Eqs. 4–8), the central-row argument, and the expected feed-through
//!   count (Eqs. 9–11);
//! * [`report`] — the combined per-module estimate record and the results
//!   database handed to the floorplanner (the paper's Figure 1 output
//!   interface);
//! * [`pipeline`] — the Figure 1 dataflow: netlist + technology in,
//!   results database out;
//! * [`track_sharing`] — the paper's future-work extension correcting the
//!   upper-bound track count for routing-track sharing;
//! * [`multi_aspect`] — the future-work extension producing several
//!   (width, height) candidates per module instead of a single ratio.
//!
//! # Quick start
//!
//! ```
//! use maestro_estimator::standard_cell::{self, ScParams};
//! use maestro_netlist::{generate, LayoutStyle, NetlistStats};
//! use maestro_tech::builtin;
//!
//! let tech = builtin::nmos25();
//! let module = generate::ripple_adder(4);
//! let stats = NetlistStats::resolve(&module, &tech, LayoutStyle::StandardCell)?;
//! let est = standard_cell::estimate(&stats, &tech, &ScParams::default());
//! assert!(est.area.get() > 0);
//! assert!(est.rows >= 2);
//! # Ok::<(), maestro_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod feedthrough;
pub mod full_custom;
pub mod multi_aspect;
pub mod pipeline;
pub mod prob;
pub mod report;
pub mod request;
pub mod results_cache;
pub mod standard_cell;
pub mod track_sharing;
pub mod wirelength;

pub use full_custom::FcEstimate;
pub use pipeline::{IncrementalRun, Pipeline};
pub use prob::ProbTable;
pub use report::{EstimateRecord, ResultsDb};
pub use request::{Request, RequestCall, RequestError, Response};
pub use results_cache::ResultsCache;
pub use standard_cell::ScEstimate;
