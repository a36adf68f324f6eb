//! Gate-level → transistor-level expansion.
//!
//! The paper's introduction motivates *comparing layout methodologies for
//! the same module*: "accurate module area estimators and floor planners
//! allow the generation of trial floor plans for comparing the various
//! different layout methodologies or mixtures of them." To compare, the
//! same logical module must exist in both representations. This module
//! expands a gate-level netlist (standard-cell templates) into a ratioed
//! nMOS transistor netlist (full-custom templates), so one schematic can
//! be estimated — and laid out — both ways.
//!
//! Each library cell maps to its classic ratioed-nMOS realization:
//!
//! | cell | realization | transistors |
//! |------|-------------|-------------|
//! | `INV` | load + pull-down | 2 |
//! | `BUF` | two inverters | 4 |
//! | `NAND`*k* | load + *k* series pull-downs | k+1 |
//! | `NOR`*k* | load + *k* parallel pull-downs | k+1 |
//! | `AND`*k* / `OR`*k* | NAND/NOR + inverter | k+3 |
//! | `XOR2` / `XNOR2` | two-level NAND network | 12 / 14 |
//! | `AOI22` / `OAI22` | load + series/parallel tree | 5 |
//! | `MUX2` | pass transistors + select inverter | 4 |
//! | `DLATCH` | pass + back-to-back inverters | 6 |
//! | `DFF` | two latches | 12 |

use crate::{Module, ModuleBuilder, NetId, NetlistError};

/// Expansion context: the builder plus a counter for fresh nets.
struct Expander {
    b: ModuleBuilder,
    fresh: usize,
}

impl Expander {
    fn fresh_net(&mut self, hint: &str) -> NetId {
        let id = self.fresh;
        self.fresh += 1;
        self.b.net(format!("x_{hint}_{id}"))
    }

    fn inv(&mut self, prefix: &str, a: NetId, y: NetId) {
        self.b
            .device(format!("{prefix}_pd"), "pd", [("g", a), ("d", y)]);
        self.b.device(format!("{prefix}_pu"), "pu", [("s", y)]);
    }

    fn nand(&mut self, prefix: &str, inputs: &[NetId], y: NetId) {
        self.b.device(format!("{prefix}_pu"), "pu", [("s", y)]);
        let mut node = y;
        for (i, &a) in inputs.iter().enumerate() {
            let mut pins = vec![("d", node), ("g", a)];
            if i + 1 < inputs.len() {
                let below = self.fresh_net(prefix);
                pins.push(("s", below));
                self.b.device(format!("{prefix}_q{i}"), "pd", pins);
                node = below;
            } else {
                self.b.device(format!("{prefix}_q{i}"), "pd", pins);
            }
        }
    }

    fn nor(&mut self, prefix: &str, inputs: &[NetId], y: NetId) {
        self.b.device(format!("{prefix}_pu"), "pu", [("s", y)]);
        for (i, &a) in inputs.iter().enumerate() {
            self.b
                .device(format!("{prefix}_q{i}"), "pd", [("d", y), ("g", a)]);
        }
    }

    fn pass(&mut self, name: String, d: NetId, g: NetId, s: NetId) {
        self.b.device(name, "pass", [("d", d), ("g", g), ("s", s)]);
    }
}

fn require_pin(dev: crate::Device<'_>, pin: &str) -> Result<NetId, NetlistError> {
    dev.pin_net(pin).ok_or_else(|| {
        NetlistError::invalid(format!(
            "device `{}` ({}) lacks pin `{pin}` required for expansion",
            dev.name(),
            dev.template()
        ))
    })
}

/// Expands a gate-level module into a ratioed nMOS transistor module with
/// the same name suffixed `_xt`, the same ports, and the same signal nets.
///
/// # Errors
///
/// Returns [`NetlistError::Invalid`] if a device uses a cell this
/// expander has no realization for, or a binding is missing a required
/// pin.
///
/// # Examples
///
/// ```
/// use maestro_netlist::{expand, generate};
///
/// let gates = generate::ripple_adder(1);
/// let transistors = expand::to_nmos_transistors(&gates)?;
/// assert!(transistors.device_count() > gates.device_count());
/// assert_eq!(transistors.port_count(), gates.port_count());
/// # Ok::<(), maestro_netlist::NetlistError>(())
/// ```
pub fn to_nmos_transistors(module: &Module) -> Result<Module, NetlistError> {
    let mut ex = Expander {
        b: ModuleBuilder::new(format!("{}_xt", module.name())),
        fresh: 0,
    };
    // Recreate ports (ports imply nets of the same name).
    for (_, port) in module.ports() {
        ex.b.port(port.name(), port.direction());
    }
    // Recreate all remaining nets by name so ids can be remapped.
    let mut remap: Vec<NetId> = Vec::with_capacity(module.net_count());
    for (_, net) in module.nets() {
        remap.push(ex.b.net(net.name()));
    }
    let m = |n: NetId| remap[n.index()];

    for (_, dev) in module.devices() {
        let p = dev.name();
        match dev.template() {
            "INV" => {
                let a = m(require_pin(dev, "A")?);
                let y = m(require_pin(dev, "Y")?);
                ex.inv(p, a, y);
            }
            "BUF" => {
                let a = m(require_pin(dev, "A")?);
                let y = m(require_pin(dev, "Y")?);
                let t = ex.fresh_net(p);
                ex.inv(&format!("{p}_i1"), a, t);
                ex.inv(&format!("{p}_i2"), t, y);
            }
            t @ ("NAND2" | "NAND3" | "NAND4" | "NOR2" | "NOR3") => {
                let arity = t.as_bytes()[t.len() - 1] - b'0';
                let names = ["A", "B", "C", "D"];
                let mut inputs = Vec::new();
                for name in names.iter().take(arity as usize) {
                    inputs.push(m(require_pin(dev, name)?));
                }
                let y = m(require_pin(dev, "Y")?);
                if t.starts_with("NAND") {
                    ex.nand(p, &inputs, y);
                } else {
                    ex.nor(p, &inputs, y);
                }
            }
            t @ ("AND2" | "OR2") => {
                let a = m(require_pin(dev, "A")?);
                let bb = m(require_pin(dev, "B")?);
                let y = m(require_pin(dev, "Y")?);
                let n = ex.fresh_net(p);
                if t == "AND2" {
                    ex.nand(&format!("{p}_n"), &[a, bb], n);
                } else {
                    ex.nor(&format!("{p}_n"), &[a, bb], n);
                }
                ex.inv(&format!("{p}_i"), n, y);
            }
            t @ ("XOR2" | "XNOR2") => {
                // NAND-network XOR: 4 NAND2s; XNOR adds an inverter.
                let a = m(require_pin(dev, "A")?);
                let bb = m(require_pin(dev, "B")?);
                let y = m(require_pin(dev, "Y")?);
                let nab = ex.fresh_net(p);
                ex.nand(&format!("{p}_g1"), &[a, bb], nab);
                let t1 = ex.fresh_net(p);
                ex.nand(&format!("{p}_g2"), &[a, nab], t1);
                let t2 = ex.fresh_net(p);
                ex.nand(&format!("{p}_g3"), &[bb, nab], t2);
                if t == "XOR2" {
                    ex.nand(&format!("{p}_g4"), &[t1, t2], y);
                } else {
                    let x = ex.fresh_net(p);
                    ex.nand(&format!("{p}_g4"), &[t1, t2], x);
                    ex.inv(&format!("{p}_i"), x, y);
                }
            }
            t @ ("AOI22" | "OAI22") => {
                // One complex gate: load + 4 pull-downs (series pairs in
                // parallel for AOI, parallel pairs in series for OAI).
                let a1 = m(require_pin(dev, "A1")?);
                let a2 = m(require_pin(dev, "A2")?);
                let b1 = m(require_pin(dev, "B1")?);
                let b2 = m(require_pin(dev, "B2")?);
                let y = m(require_pin(dev, "Y")?);
                ex.b.device(format!("{p}_pu"), "pu", [("s", y)]);
                if t == "AOI22" {
                    let ma = ex.fresh_net(p);
                    ex.b.device(format!("{p}_qa1"), "pd", [("d", y), ("g", a1), ("s", ma)]);
                    ex.b.device(format!("{p}_qa2"), "pd", [("d", ma), ("g", a2)]);
                    let mb = ex.fresh_net(p);
                    ex.b.device(format!("{p}_qb1"), "pd", [("d", y), ("g", b1), ("s", mb)]);
                    ex.b.device(format!("{p}_qb2"), "pd", [("d", mb), ("g", b2)]);
                } else {
                    let mid = ex.fresh_net(p);
                    ex.b.device(format!("{p}_qa1"), "pd", [("d", y), ("g", a1), ("s", mid)]);
                    ex.b.device(format!("{p}_qa2"), "pd", [("d", y), ("g", a2), ("s", mid)]);
                    ex.b.device(format!("{p}_qb1"), "pd", [("d", mid), ("g", b1)]);
                    ex.b.device(format!("{p}_qb2"), "pd", [("d", mid), ("g", b2)]);
                }
            }
            "MUX2" => {
                let a = m(require_pin(dev, "A")?);
                let bb = m(require_pin(dev, "B")?);
                let s = m(require_pin(dev, "S")?);
                let y = m(require_pin(dev, "Y")?);
                let ns = ex.fresh_net(p);
                ex.inv(&format!("{p}_si"), s, ns);
                ex.pass(format!("{p}_pa"), a, ns, y);
                ex.pass(format!("{p}_pb"), bb, s, y);
            }
            "DLATCH" => {
                let d = m(require_pin(dev, "D")?);
                let g = m(require_pin(dev, "G")?);
                let q = m(require_pin(dev, "Q")?);
                let s = ex.fresh_net(p);
                ex.pass(format!("{p}_pg"), d, g, s);
                let nq = ex.fresh_net(p);
                ex.inv(&format!("{p}_i1"), s, nq);
                ex.inv(&format!("{p}_i2"), nq, q);
            }
            "DFF" => {
                let d = m(require_pin(dev, "D")?);
                let ck = m(require_pin(dev, "CK")?);
                let q = m(require_pin(dev, "Q")?);
                let nck = ex.fresh_net(p);
                ex.inv(&format!("{p}_ci"), ck, nck);
                // Master (transparent on !ck) then slave (on ck).
                let s1 = ex.fresh_net(p);
                ex.pass(format!("{p}_p1"), d, nck, s1);
                let m1 = ex.fresh_net(p);
                ex.inv(&format!("{p}_i1"), s1, m1);
                let s2 = ex.fresh_net(p);
                ex.pass(format!("{p}_p2"), m1, ck, s2);
                let m2 = ex.fresh_net(p);
                ex.inv(&format!("{p}_i2"), s2, m2);
                ex.inv(&format!("{p}_i3"), m2, q);
                if let Some(qn) = dev.pin_net("QN") {
                    let qn = m(qn);
                    ex.inv(&format!("{p}_i4"), q, qn);
                }
            }
            other => {
                return Err(NetlistError::invalid(format!(
                    "no nMOS expansion for cell `{other}` (device `{}`)",
                    dev.name()
                )));
            }
        }
    }
    Ok(ex.b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, LayoutStyle, NetlistStats, PortDirection};
    use maestro_tech::builtin;

    #[test]
    fn inverter_expands_to_two_transistors() {
        let mut b = ModuleBuilder::new("one");
        let a = b.port("a", PortDirection::Input);
        let y = b.port("y", PortDirection::Output);
        b.device("u1", "INV", [("A", a), ("Y", y)]);
        let xt = to_nmos_transistors(&b.finish()).expect("expands");
        assert_eq!(xt.device_count(), 2);
        assert_eq!(xt.name(), "one_xt");
        assert_eq!(xt.port_count(), 2);
    }

    #[test]
    fn nand3_expands_with_series_chain() {
        let mut b = ModuleBuilder::new("g");
        let nets: Vec<_> = ["a", "b", "c", "y"].iter().map(|n| b.net(*n)).collect();
        b.device(
            "u1",
            "NAND3",
            [
                ("A", nets[0]),
                ("B", nets[1]),
                ("C", nets[2]),
                ("Y", nets[3]),
            ],
        );
        let xt = to_nmos_transistors(&b.finish()).expect("expands");
        // 1 load + 3 pull-downs.
        assert_eq!(xt.device_count(), 4);
        // Two fresh internal series nets.
        assert_eq!(xt.net_count(), 4 + 2);
    }

    #[test]
    fn expanded_modules_resolve_full_custom() {
        let tech = builtin::nmos25();
        for module in [
            generate::ripple_adder(2),
            generate::counter(3),
            generate::mux_tree(2),
            generate::shift_register(4),
            generate::decoder(2),
        ] {
            let xt =
                to_nmos_transistors(&module).unwrap_or_else(|e| panic!("{}: {e}", module.name()));
            let stats = NetlistStats::resolve(&xt, &tech, LayoutStyle::FullCustom)
                .unwrap_or_else(|e| panic!("{}: {e}", xt.name()));
            assert!(
                stats.device_count() >= 2 * module.device_count(),
                "{}: {} transistors for {} gates",
                module.name(),
                stats.device_count(),
                module.device_count()
            );
        }
    }

    #[test]
    fn expansion_preserves_ports_and_external_nets() {
        let module = generate::ripple_adder(2);
        let xt = to_nmos_transistors(&module).expect("expands");
        assert_eq!(xt.port_count(), module.port_count());
        for (_, port) in module.ports() {
            let xp = xt.find_port(port.name()).expect("port preserved");
            assert_eq!(xt.port(xp).direction(), port.direction());
        }
    }

    #[test]
    fn expansion_is_deterministic() {
        let module = generate::counter(3);
        assert_eq!(
            to_nmos_transistors(&module).unwrap(),
            to_nmos_transistors(&module).unwrap()
        );
    }

    #[test]
    fn unknown_cell_is_an_error() {
        let mut b = ModuleBuilder::new("m");
        let n = b.net("n");
        b.device("u1", "TRIBUF", [("A", n)]);
        let err = to_nmos_transistors(&b.finish()).unwrap_err();
        assert!(matches!(err, NetlistError::Invalid { .. }));
    }

    #[test]
    fn dff_uses_qn_when_bound() {
        let mut b = ModuleBuilder::new("m");
        let d = b.net("d");
        let ck = b.net("ck");
        let q = b.net("q");
        let qn = b.net("qn");
        b.device("ff", "DFF", [("D", d), ("CK", ck), ("Q", q), ("QN", qn)]);
        let xt = to_nmos_transistors(&b.finish()).expect("expands");
        let qn_net = xt.find_net("qn").expect("qn preserved");
        assert!(xt.net(qn_net).component_count() > 0, "qn is driven");
    }
}
