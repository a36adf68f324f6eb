//! Full-custom transistor-level layout synthesis — the stand-in for the
//! manually drawn Newkirk & Mathews layouts of the paper's Table 1.
//!
//! The paper compares its full-custom estimates against hand layouts in
//! Mead–Conway nMOS (λ = 2.5 µm). Those artworks no longer exist in
//! machine-readable form, so this crate *synthesizes* a dense,
//! rule-respecting layout for each experiment circuit and reports its
//! area as the "real" value:
//!
//! 1. each transistor becomes a rectangular **tile** sized by the process
//!    design rules ([`maestro_tech::DeviceTemplate`]);
//! 2. tiles are packed by a **slicing floorplan** — a Polish expression
//!    (the one [`maestro_place::postfix::PolishExpr`] the floorplanner
//!    anneals too) annealed with the classic Wong–Liu moves plus per-tile
//!    rotation, and evaluated into tile placements ([`polish`],
//!    [`synthesize`]) — minimizing bounding area plus a wirelength term;
//! 3. interconnect area is then allocated from the placement's actual net
//!    bounding boxes ([`wiring`]): each net contributes its half-perimeter
//!    wirelength times the metal pitch, derated by a sharing factor, the
//!    way a careful manual designer reuses space over diffusion and
//!    between tiles.
//!
//! The result, [`FcLayout`], is the "Real Area" / "Real Aspect Ratio"
//! column of Table 1: deterministic per seed, reproducible, and — like a
//! human layout — denser than the tile bounding box alone would suggest.
//!
//! # Examples
//!
//! ```
//! use maestro_fullcustom::{synthesize, SynthesisParams};
//! use maestro_netlist::library_circuits;
//! use maestro_tech::builtin;
//!
//! let tech = builtin::nmos25();
//! let module = library_circuits::nmos_decoder2to4();
//! let layout = synthesize(&module, &tech, &SynthesisParams::quick())?;
//! assert!(layout.area().get() > 0);
//! # Ok::<(), maestro_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod polish;
pub mod synthesize;
pub mod warm;
pub mod wiring;

pub use synthesize::{
    synthesize, synthesize_full_refresh, synthesize_seeded, FcLayout, SynthSeed, SynthesisParams,
};
pub use warm::WarmStore;
