//! λ design-rule sets.
//!
//! The paper's Table 1 compares against "Full-Custom layout examples for
//! nMOS technology with λ = 2.5 µm using the Mead–Conway design rules".
//! This module captures the handful of Mead–Conway rules the layout
//! substrates need: layer minimum widths and spacings, contact sizes, and
//! the derived minimum-transistor footprint. A representative scalable CMOS
//! rule set is included for the multi-process requirement of the paper's §3.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::Lambda;

/// Mask layers distinguished by the rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Layer {
    /// Active area / diffusion.
    Diffusion,
    /// Polysilicon (transistor gates and short wires).
    Poly,
    /// First-level metal (routing tracks).
    Metal1,
    /// Second-level metal, when the process has one.
    Metal2,
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Layer::Diffusion => "diffusion",
            Layer::Poly => "poly",
            Layer::Metal1 => "metal1",
            Layer::Metal2 => "metal2",
        };
        f.write_str(s)
    }
}

/// A λ design-rule set: per-layer minimum widths and spacings plus contact
/// geometry, everything in integer λ.
///
/// # Examples
///
/// ```
/// use maestro_geom::design_rules::{DesignRules, Layer};
///
/// let rules = DesignRules::mead_conway_nmos();
/// assert_eq!(rules.min_width(Layer::Metal1).get(), 3);
/// assert_eq!(rules.wire_pitch(Layer::Metal1).get(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DesignRules {
    name: String,
    diffusion_width: Lambda,
    diffusion_spacing: Lambda,
    poly_width: Lambda,
    poly_spacing: Lambda,
    metal1_width: Lambda,
    metal1_spacing: Lambda,
    metal2: Option<(Lambda, Lambda)>,
    contact_size: Lambda,
    contact_surround: Lambda,
    gate_overhang: Lambda,
    diffusion_gate_extension: Lambda,
}

impl DesignRules {
    /// The classic Mead–Conway nMOS rules (the Table 1 process family):
    /// 2λ diffusion and poly width, 3λ diffusion and metal spacing-class
    /// rules, 2λ×2λ contacts with 1λ surround, 2λ gate overhang.
    pub fn mead_conway_nmos() -> Self {
        DesignRules {
            name: "mead-conway-nmos".to_owned(),
            diffusion_width: Lambda::new(2),
            diffusion_spacing: Lambda::new(3),
            poly_width: Lambda::new(2),
            poly_spacing: Lambda::new(2),
            metal1_width: Lambda::new(3),
            metal1_spacing: Lambda::new(3),
            metal2: None,
            contact_size: Lambda::new(2),
            contact_surround: Lambda::new(1),
            gate_overhang: Lambda::new(2),
            diffusion_gate_extension: Lambda::new(2),
        }
    }

    /// A representative scalable-CMOS (MOSIS-style) rule set with two metal
    /// layers; used to exercise the paper's multi-process requirement.
    pub fn scalable_cmos() -> Self {
        DesignRules {
            name: "scalable-cmos".to_owned(),
            diffusion_width: Lambda::new(3),
            diffusion_spacing: Lambda::new(3),
            poly_width: Lambda::new(2),
            poly_spacing: Lambda::new(2),
            metal1_width: Lambda::new(3),
            metal1_spacing: Lambda::new(3),
            metal2: Some((Lambda::new(3), Lambda::new(4))),
            contact_size: Lambda::new(2),
            contact_surround: Lambda::new(1),
            gate_overhang: Lambda::new(2),
            diffusion_gate_extension: Lambda::new(3),
        }
    }

    /// Rule-set name (stable identifier for serialization).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Minimum drawn width of a layer.
    ///
    /// # Panics
    ///
    /// Panics if the process has no such layer (e.g. `Metal2` on nMOS).
    pub fn min_width(&self, layer: Layer) -> Lambda {
        match layer {
            Layer::Diffusion => self.diffusion_width,
            Layer::Poly => self.poly_width,
            Layer::Metal1 => self.metal1_width,
            Layer::Metal2 => self.metal2.expect("process has no metal2").0,
        }
    }

    /// Minimum same-layer spacing.
    ///
    /// # Panics
    ///
    /// Panics if the process has no such layer.
    pub fn min_spacing(&self, layer: Layer) -> Lambda {
        match layer {
            Layer::Diffusion => self.diffusion_spacing,
            Layer::Poly => self.poly_spacing,
            Layer::Metal1 => self.metal1_spacing,
            Layer::Metal2 => self.metal2.expect("process has no metal2").1,
        }
    }

    /// `true` if the process has a second metal layer.
    pub fn has_metal2(&self) -> bool {
        self.metal2.is_some()
    }

    /// Center-to-center pitch of parallel wires on a layer: width + spacing.
    /// This is the routing-track pitch the estimator charges per track.
    pub fn wire_pitch(&self, layer: Layer) -> Lambda {
        self.min_width(layer) + self.min_spacing(layer)
    }

    /// Contact cut size (square).
    pub fn contact_size(&self) -> Lambda {
        self.contact_size
    }

    /// Required layer surround of a contact cut.
    pub fn contact_surround(&self) -> Lambda {
        self.contact_surround
    }

    /// Full contact footprint side: cut + surround on both sides.
    pub fn contact_footprint(&self) -> Lambda {
        self.contact_size + self.contact_surround * 2
    }

    /// Poly gate overhang past the diffusion edge.
    pub fn gate_overhang(&self) -> Lambda {
        self.gate_overhang
    }

    /// Footprint of a minimum transistor of channel width `w` and length
    /// `l` (both in λ), including gate overhang, source/drain contact
    /// landing pads and diffusion extensions.
    ///
    /// The width axis runs along the channel width; the length axis covers
    /// contact–gate–contact. This is the atom of the full-custom
    /// synthesizer's device tiles.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `l` is below the minimum drawn widths.
    pub fn transistor_footprint(&self, w: Lambda, l: Lambda) -> (Lambda, Lambda) {
        assert!(
            w >= self.diffusion_width,
            "channel width {w} below diffusion minimum {}",
            self.diffusion_width
        );
        assert!(
            l >= self.poly_width,
            "channel length {l} below poly minimum {}",
            self.poly_width
        );
        let across = w.max(self.contact_footprint()) + self.gate_overhang * 2;
        let along = self.contact_footprint() * 2 + self.diffusion_gate_extension * 2 + l;
        (along, across)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nmos_rule_values() {
        let r = DesignRules::mead_conway_nmos();
        assert_eq!(r.name(), "mead-conway-nmos");
        assert_eq!(r.min_width(Layer::Diffusion), Lambda::new(2));
        assert_eq!(r.min_width(Layer::Poly), Lambda::new(2));
        assert_eq!(r.min_spacing(Layer::Metal1), Lambda::new(3));
        assert!(!r.has_metal2());
        assert_eq!(r.wire_pitch(Layer::Metal1), Lambda::new(6));
        assert_eq!(r.contact_footprint(), Lambda::new(4));
    }

    #[test]
    #[should_panic(expected = "no metal2")]
    fn nmos_has_no_metal2() {
        let _ = DesignRules::mead_conway_nmos().min_width(Layer::Metal2);
    }

    #[test]
    fn cmos_has_metal2() {
        let r = DesignRules::scalable_cmos();
        assert!(r.has_metal2());
        assert_eq!(r.wire_pitch(Layer::Metal2), Lambda::new(7));
    }

    #[test]
    fn transistor_footprint_minimum_device() {
        let r = DesignRules::mead_conway_nmos();
        // Minimum 2λ/2λ device: along = 2*4 + 2*2 + 2 = 14λ,
        // across = max(2, 4) + 2*2 = 8λ.
        let (along, across) = r.transistor_footprint(Lambda::new(2), Lambda::new(2));
        assert_eq!(along, Lambda::new(14));
        assert_eq!(across, Lambda::new(8));
    }

    #[test]
    fn wider_device_grows_across_axis_only() {
        let r = DesignRules::mead_conway_nmos();
        let (along_min, across_min) = r.transistor_footprint(Lambda::new(2), Lambda::new(2));
        let (along_w, across_w) = r.transistor_footprint(Lambda::new(10), Lambda::new(2));
        assert_eq!(along_w, along_min);
        assert!(across_w > across_min);
        assert_eq!(across_w, Lambda::new(14));
    }

    #[test]
    #[should_panic(expected = "below diffusion minimum")]
    fn subminimum_width_rejected() {
        let _ =
            DesignRules::mead_conway_nmos().transistor_footprint(Lambda::new(1), Lambda::new(2));
    }

    #[test]
    fn layer_display() {
        assert_eq!(Layer::Poly.to_string(), "poly");
        assert_eq!(Layer::Metal1.to_string(), "metal1");
    }
}
