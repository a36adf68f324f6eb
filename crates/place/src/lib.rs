//! Standard-cell row placement — the placement half of the TimberWolf 3.2
//! stand-in.
//!
//! The paper's Table 2 compares the estimator against "Standard-Cell
//! layouts for the same circuits created by the TimberWolf Standard-Cell
//! placement and routing package". This crate reproduces TimberWolf's
//! role: given a gate-level [`maestro_netlist::Module`], a
//! [`maestro_tech::ProcessDb`] and a row count, it
//!
//! 1. builds the **one-row model** and folds it into `n` rows
//!    ([`row_model`], the same folding the paper cites from CHAMP);
//! 2. improves the placement by **simulated annealing** over cell swaps
//!    and moves, minimizing half-perimeter wirelength with a row-balance
//!    penalty ([`placement`], TimberWolf's cost shape);
//! 3. inserts **feed-throughs** for every net that crosses a row without a
//!    pin there ([`feedthrough`]), widening the affected rows.
//!
//! The result, [`PlacedModule`], carries exact per-cell coordinates and
//! per-row feed-through counts; `maestro-route` turns it into routed
//! channels and a *real* module area for the Table 2 comparison.
//!
//! The generic annealing engine lives in [`anneal`] and is shared with the
//! full-custom synthesizer and the floorplanner, which also share the
//! slicing expression they anneal and its delta evaluator ([`postfix`]).
//! The row placer and the synthesizer also share one exact, journaled
//! per-net wirelength cache, [`HpwlJournal`].
//!
//! # Examples
//!
//! ```
//! use maestro_place::{place, PlaceParams};
//! use maestro_netlist::generate;
//! use maestro_tech::builtin;
//!
//! let tech = builtin::nmos25();
//! let module = generate::ripple_adder(2);
//! let placed = place(&module, &tech, &PlaceParams { rows: 2, ..Default::default() })?;
//! assert_eq!(placed.rows().len(), 2);
//! assert!(placed.width().is_positive());
//! # Ok::<(), maestro_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anneal;
pub mod feedthrough;
mod hpwl;
pub mod placement;
pub mod postfix;
pub mod row_model;

pub use anneal::{
    anneal_replicas, AnnealSchedule, AnnealState, EvalMode, Walk, DEFAULT_REPLICA_WORK_THRESHOLD,
};
pub use hpwl::HpwlJournal;
pub use placement::{place, PlaceParams, PlacedCell, PlacedModule, PlacedRow};
