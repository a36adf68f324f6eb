//! Circuit schematic substrate for the `maestro` VLSI area estimator.
//!
//! The paper's estimator consumes "the circuit schematic expressed in a
//! standard hardware description language", then "translated into a
//! mathematical representation for numerical analysis" (§3). This crate is
//! both halves:
//!
//! * [`Module`] / [`Device`] / [`Net`] / [`Port`] — the in-memory schematic
//!   graph, built through [`ModuleBuilder`];
//! * [`mnl`] — a small structural netlist language (`.mnl`) with a lazy,
//!   line-accurate parser;
//! * [`spice`] — a SPICE-subset reader (`M` transistor cards and `X`
//!   subcircuit-instance cards inside one `.subckt`);
//! * [`NetlistStats`] — the "mathematical representation": the paper's
//!   `N`, `H`, `Wi`/`Xi`, `yi` and port statistics, resolved against a
//!   [`maestro_tech::ProcessDb`];
//! * [`StatsCache`] — the resolve-once memo over [`NetlistStats`], keyed
//!   by ([`ModuleFingerprint`], technology revision, [`LayoutStyle`]);
//! * [`BoundedMemo`] and [`content_hash128`] — the bounded memo and the
//!   content hash behind every cache of the estimator stack;
//! * [`generate`] — seeded synthetic circuit generators (random logic plus
//!   structured shift registers, adders, decoders, counters, mux trees);
//! * [`library_circuits`] — the re-created Table 1 and Table 2 experiment
//!   suites;
//! * [`validate`] — structural sanity checks against a technology.
//!
//! # Examples
//!
//! ```
//! use maestro_netlist::{ModuleBuilder, PortDirection};
//!
//! let mut b = ModuleBuilder::new("buffer");
//! let a = b.port("a", PortDirection::Input);
//! let y = b.port("y", PortDirection::Output);
//! let mid = b.net("mid");
//! b.device("u1", "INV", [("A", a), ("Y", mid)]);
//! b.device("u2", "INV", [("A", mid), ("Y", y)]);
//! let module = b.finish();
//! assert_eq!(module.device_count(), 2);
//! assert_eq!(module.net_count(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod chip;
pub mod depth;
pub mod diff;
mod error;
pub mod expand;
pub mod generate;
mod ids;
pub mod library_circuits;
mod memo;
pub mod mnl;
mod module;
pub mod spice;
mod stats;
pub mod validate;

pub use cache::{ModuleFingerprint, StatsCache, DEFAULT_STATS_CAPACITY};
pub use diff::{diff, NetlistDiff, RevisionManifest};
pub use error::{NetlistError, ParseErrorKind};
pub use ids::{DeviceId, NetId, PortId};
pub use memo::{content_hash128, BoundedMemo, CacheStats, MemoCounters};
pub use module::{Device, Module, ModuleBuilder, Net, PinIter, PinName, Pins, Port, PortDirection};
pub use stats::{LayoutStyle, NetSizeHistogram, NetlistStats, WidthHistogram};
