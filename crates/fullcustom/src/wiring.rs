//! Interconnect-area allocation from a finished placement.
//!
//! A slicing placement packs tiles edge to edge; a real (manual) layout
//! additionally spends area on wiring. Like a careful human designer,
//! we charge each net its actual placed extent: the half-perimeter of the
//! bounding box of its devices' centers, times the metal wire pitch,
//! derated by a sharing factor (wires run over diffusion, share columns,
//! and abutting devices connect for free).

use maestro_geom::{LambdaArea, Point, Rect};
use maestro_netlist::Module;

use crate::polish::Evaluated;

/// Fraction of nominal wire area actually consumed, calibrated so that
/// synthesized layouts land in the density range of hand-packed
/// Mead–Conway cells (wires largely run over and between devices).
pub const WIRE_SHARING_FACTOR: f64 = 0.35;

/// Total wiring area for a placement: Σ over nets of
/// `HPWL(net) × wire_pitch × WIRE_SHARING_FACTOR`. Nets whose devices
/// abut (HPWL within one pitch) are free, like a shared diffusion node.
pub fn wiring_area(
    module: &Module,
    placement: &Evaluated,
    wire_pitch: maestro_geom::Lambda,
) -> LambdaArea {
    let mut total = 0.0f64;
    for (_, net) in module.nets() {
        let comps = net.components();
        if comps.len() < 2 {
            continue;
        }
        let centers = comps.iter().map(|d| {
            let r: Rect = placement.placements[d.index()];
            Point::new(r.origin().x + r.width() / 2, r.origin().y + r.height() / 2)
        });
        let bbox = Rect::bounding_box(centers).expect("at least two components");
        let hpwl = bbox.half_perimeter();
        if hpwl <= wire_pitch {
            continue; // abutting devices: direct connection
        }
        total += hpwl.as_f64() * wire_pitch.as_f64() * WIRE_SHARING_FACTOR;
    }
    LambdaArea::from_f64_ceil(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polish::evaluate;
    use maestro_geom::Lambda;
    use maestro_netlist::ModuleBuilder;
    use maestro_place::postfix::PolishExpr;

    fn pitch() -> Lambda {
        Lambda::new(6)
    }

    #[test]
    fn single_component_nets_are_free() {
        let mut b = ModuleBuilder::new("m");
        let n = b.net("n");
        b.device("q0", "pd", [("d", n)]);
        let m = b.finish();
        let expr = PolishExpr::initial(1);
        let ev = evaluate(&expr, &[(Lambda::new(14), Lambda::new(8))]);
        assert_eq!(wiring_area(&m, &ev, pitch()), LambdaArea::ZERO);
    }

    #[test]
    fn abutting_devices_connect_for_free() {
        let mut b = ModuleBuilder::new("m");
        let n = b.net("n");
        b.device("q0", "pd", [("d", n)]);
        b.device("q1", "pd", [("s", n)]);
        let m = b.finish();
        // Two 4×8 tiles side by side: centers 4λ apart, within pitch 6λ.
        let expr = PolishExpr::initial(2);
        let ev = evaluate(
            &expr,
            &[
                (Lambda::new(4), Lambda::new(8)),
                (Lambda::new(4), Lambda::new(8)),
            ],
        );
        assert_eq!(wiring_area(&m, &ev, pitch()), LambdaArea::ZERO);
    }

    #[test]
    fn distant_devices_cost_their_span() {
        let mut b = ModuleBuilder::new("m");
        let n = b.net("n");
        b.device("q0", "pd", [("d", n)]);
        b.device("q1", "pd", [("s", n)]);
        let m = b.finish();
        let expr = PolishExpr::initial(2);
        let ev = evaluate(
            &expr,
            &[
                (Lambda::new(40), Lambda::new(8)),
                (Lambda::new(40), Lambda::new(8)),
            ],
        );
        // Centers 40λ apart horizontally: hpwl = 40.
        let expected = (40.0 * 6.0 * WIRE_SHARING_FACTOR).ceil() as i64;
        assert_eq!(wiring_area(&m, &ev, pitch()), LambdaArea::new(expected));
    }

    #[test]
    fn wiring_grows_with_net_spread() {
        let mut b = ModuleBuilder::new("m");
        let n = b.net("n");
        for i in 0..4 {
            b.device(format!("q{i}"), "pd", [("d", n)]);
        }
        let m = b.finish();
        let tiles = vec![(Lambda::new(14), Lambda::new(8)); 4];
        let compact = evaluate(&PolishExpr::initial(4), &tiles);
        // A pathological all-in-one-row expression spreads the net more.
        let mut row = PolishExpr::initial(4);
        // initial(4) is 2×2; complementing chains yields different shapes.
        row.complement_chain(|_| 0);
        let spread = evaluate(&row, &tiles);
        let wa_compact = wiring_area(&m, &compact, pitch());
        let wa_spread = wiring_area(&m, &spread, pitch());
        // Not a strict theorem, but for these shapes the 2×2 is tighter.
        assert!(wa_compact <= wa_spread + LambdaArea::new(200));
    }
}
