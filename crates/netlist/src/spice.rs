//! A SPICE-subset reader for transistor-level (full-custom) schematics.
//!
//! The paper's full-custom estimator works from transistor netlists; SPICE
//! decks are the lingua franca for those. This reader understands one
//! `.subckt` per deck:
//!
//! ```text
//! * 2-input NAND, ratioed nMOS
//! .subckt nand2 a b y
//! M1 y    a  mid gnd pd
//! M2 mid  b  gnd gnd pd
//! M3 vdd  y  y   gnd pu
//! .ends
//! ```
//!
//! * `M<name> <drain> <gate> <source> <bulk> <model>` — a transistor whose
//!   `model` must name a [`maestro_tech::DeviceTemplate`]; the bulk node is
//!   recorded but `vdd`/`gnd`/`vss` connections are dropped as supply nets
//!   (supplies are routed as rails, not signal wiring — the estimator must
//!   not count them in `H`);
//! * `X<name> <net>... <cell>` — a standard-cell instance whose nets bind
//!   positionally to the cell's pins (useful for mixed decks);
//! * `*` comment lines, blank lines, and `.end` are ignored.
//!
//! Subcircuit ports become module ports (direction [`PortDirection::InOut`]
//! — SPICE carries no direction).

use std::fmt::Write as _;

use crate::{Module, ModuleBuilder, NetId, NetlistError, ParseErrorKind, PortDirection};

/// Net names treated as power rails and excluded from signal wiring.
pub const SUPPLY_NAMES: [&str; 4] = ["vdd", "gnd", "vss", "vcc"];

fn is_supply(name: &str) -> bool {
    SUPPLY_NAMES.iter().any(|s| s.eq_ignore_ascii_case(name))
}

/// Parses a single-`.subckt` SPICE deck into a [`Module`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed cards, a missing
/// `.subckt`/`.ends` pair, or duplicate port or instance names.
///
/// # Examples
///
/// ```
/// let deck = "\
/// * inverter
/// .subckt inv a y
/// M1 y a gnd gnd pd
/// M2 vdd y y gnd pu
/// .ends
/// ";
/// let m = maestro_netlist::spice::parse(deck)?;
/// assert_eq!(m.device_count(), 2);
/// // Supply nets are dropped: only a and y remain.
/// assert_eq!(m.net_count(), 2);
/// # Ok::<(), maestro_netlist::NetlistError>(())
/// ```
pub fn parse(deck: &str) -> Result<Module, NetlistError> {
    let mut builder: Option<ModuleBuilder> = None;
    let mut finished = false;
    // Scratch for a device's distinct nets and an `X` card's pin names.
    let mut nets: Vec<NetId> = Vec::new();
    let mut positional = String::new();

    for (lineno, raw) in deck.lines().enumerate() {
        let line_no = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('*') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let head = fields[0].to_ascii_lowercase();

        if head == ".subckt" {
            if builder.is_some() {
                return Err(NetlistError::parse(
                    ParseErrorKind::Malformed,
                    line_no,
                    "nested or repeated .subckt (one per deck)",
                ));
            }
            if fields.len() < 2 {
                return Err(NetlistError::parse(
                    ParseErrorKind::Malformed,
                    line_no,
                    ".subckt needs a name",
                ));
            }
            let mut b = ModuleBuilder::new(fields[1]);
            for &port in &fields[2..] {
                if is_supply(port) {
                    continue;
                }
                b.add_port(port, PortDirection::InOut)
                    .map_err(|r| r.at(line_no, || format!("port `{port}` declared twice")))?;
            }
            builder = Some(b);
            continue;
        }
        if head == ".ends" {
            if builder.is_none() {
                return Err(NetlistError::parse(
                    ParseErrorKind::Malformed,
                    line_no,
                    ".ends without .subckt",
                ));
            }
            finished = true;
            continue;
        }
        if head == ".end" {
            continue;
        }
        if finished {
            return Err(NetlistError::parse(
                ParseErrorKind::Malformed,
                line_no,
                "content after .ends",
            ));
        }
        let b = builder.as_mut().ok_or_else(|| {
            NetlistError::parse(
                ParseErrorKind::Malformed,
                line_no,
                "device card before .subckt",
            )
        })?;

        match head.chars().next() {
            Some('m') => {
                // M<name> drain gate source bulk model
                if fields.len() != 6 {
                    return Err(NetlistError::parse(
                        ParseErrorKind::Malformed,
                        line_no,
                        format!(
                            "transistor card needs 6 fields (name d g s b model), got {}",
                            fields.len()
                        ),
                    ));
                }
                let name = fields[0];
                b.add_device(name)
                    .map_err(|r| r.at(line_no, || format!("transistor `{name}` declared twice")))?;
                b.set_template(fields[5])
                    .map_err(|r| r.at(line_no, String::new))?;
                // A device may touch the same net through two terminals
                // (e.g. diode-connected load): keep one pin per net to
                // respect the builder's pin-uniqueness (component counting
                // dedups anyway).
                nets.clear();
                for (pin, &net) in ["d", "g", "s", "b"].into_iter().zip(&fields[1..5]) {
                    if is_supply(net) {
                        continue;
                    }
                    let net = b.add_net(net).map_err(|r| r.at(line_no, String::new))?;
                    if !nets.contains(&net) {
                        nets.push(net);
                        b.bind(pin, net).map_err(|r| r.at(line_no, String::new))?;
                    }
                }
            }
            Some('x') => {
                // X<name> net... cell
                if fields.len() < 3 {
                    return Err(NetlistError::parse(
                        ParseErrorKind::Malformed,
                        line_no,
                        "instance card needs at least a net and a cell name",
                    ));
                }
                let name = fields[0];
                b.add_device(name)
                    .map_err(|r| r.at(line_no, || format!("instance `{name}` declared twice")))?;
                b.set_template(fields[fields.len() - 1])
                    .map_err(|r| r.at(line_no, String::new))?;
                for (i, &net) in fields[1..fields.len() - 1].iter().enumerate() {
                    if is_supply(net) {
                        continue;
                    }
                    let net = b.add_net(net).map_err(|r| r.at(line_no, String::new))?;
                    positional.clear();
                    let _ = write!(positional, "p{}", i + 1);
                    b.bind(&positional, net)
                        .map_err(|r| r.at(line_no, String::new))?;
                }
            }
            _ => {
                return Err(NetlistError::parse(
                    ParseErrorKind::UnexpectedToken,
                    line_no,
                    format!("unrecognized card `{}`", fields[0]),
                ));
            }
        }
    }

    match (builder, finished) {
        (Some(b), true) => Ok(b.finish()),
        (Some(_), false) => Err(NetlistError::parse(
            ParseErrorKind::UnexpectedEof,
            deck.lines().count(),
            "missing .ends",
        )),
        (None, _) => Err(NetlistError::parse(
            ParseErrorKind::Malformed,
            1,
            "deck contains no .subckt",
        )),
    }
}

/// Serializes a transistor-level module back to a SPICE deck.
///
/// Devices whose pins are named `d`/`g`/`s` emit `M` cards (unbound
/// terminals default to `gnd`, matching the supply-dropping reader);
/// everything else emits an `X` instance card with positional nets. The
/// output parses back to a module with the same device, signal-net and
/// port structure.
pub fn to_spice(module: &Module) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "* generated by maestro from `{}`", module.name());
    let ports: Vec<&str> = module.ports().map(|(_, p)| p.name()).collect();
    let _ = writeln!(s, ".subckt {} {}", module.name(), ports.join(" "));
    for (_, dev) in module.devices() {
        let is_transistor = dev
            .pins()
            .iter()
            .all(|(p, _)| matches!(p.as_str(), "d" | "g" | "s" | "b"));
        if is_transistor && !dev.pins().is_empty() {
            let net_of = |pin: &str| {
                dev.pin_net(pin)
                    .map(|n| module.net(n).name().to_owned())
                    .unwrap_or_else(|| "gnd".to_owned())
            };
            let _ = writeln!(
                s,
                "M{} {} {} {} gnd {}",
                dev.name(),
                net_of("d"),
                net_of("g"),
                net_of("s"),
                dev.template()
            );
        } else {
            let nets: Vec<String> = dev
                .pins()
                .iter()
                .map(|(_, &n)| module.net(n).name().to_owned())
                .collect();
            let _ = writeln!(s, "X{} {} {}", dev.name(), nets.join(" "), dev.template());
        }
    }
    s.push_str(".ends\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAND2: &str = "\
* 2-input NAND, ratioed nMOS
.subckt nand2 a b y
M1 y   a mid gnd pd
M2 mid b gnd gnd pd
M3 vdd y y   gnd pu
.ends
";

    #[test]
    fn parses_nand_deck() {
        let m = parse(NAND2).expect("parses");
        assert_eq!(m.name(), "nand2");
        assert_eq!(m.device_count(), 3);
        assert_eq!(m.port_count(), 3);
        // Signal nets: a, b, y, mid (vdd/gnd dropped).
        assert_eq!(m.net_count(), 4);
    }

    #[test]
    fn supply_nets_are_dropped() {
        let m = parse(NAND2).expect("parses");
        assert!(m.find_net("gnd").is_none());
        assert!(m.find_net("vdd").is_none());
        assert!(m.find_net("mid").is_some());
    }

    #[test]
    fn diode_connected_device_counts_once_per_net() {
        let m = parse(NAND2).expect("parses");
        let y = m.find_net("y").expect("y exists");
        // M1 (drain) and M3 (gate + source, deduped): 2 components.
        assert_eq!(m.net(y).component_count(), 2);
    }

    #[test]
    fn instance_cards_bind_positionally() {
        let deck = "\
.subckt top a b y
X1 a b t NAND2
X2 t t y NAND2
.ends
";
        let m = parse(deck).expect("parses");
        assert_eq!(m.device_count(), 2);
        let x2 = m.find_device("X2").unwrap();
        assert_eq!(m.device(x2).template(), "NAND2");
        // p1=t, p2=t, p3=y: distinct pin names may share a net.
        assert_eq!(m.device(x2).pins().len(), 3);
        let t = m.find_net("t").unwrap();
        assert_eq!(m.net(t).component_count(), 2);
    }

    #[test]
    fn error_on_duplicate_instance() {
        let err = parse(".subckt m a\nM1 a x y gnd pd\nM1 a x y gnd pd\n.ends").unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::DuplicateName,
                line: 3,
                ..
            }
        ));
    }

    #[test]
    fn error_on_repeated_subckt_port() {
        let err = parse("* inverter\n.subckt inv a a y\nM1 y a gnd gnd pd\n.ends").unwrap_err();
        assert_eq!(
            err,
            NetlistError::parse(ParseErrorKind::DuplicateName, 2, "port `a` declared twice")
        );
        // Supply names are dropped before the check: repeating one is fine.
        assert!(parse(".subckt inv vdd a vdd\nM1 vdd a gnd gnd pd\n.ends").is_ok());
    }

    #[test]
    fn error_on_short_transistor_card() {
        let err = parse(".subckt m a\nM1 a b c pd\n.ends").unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::Malformed,
                line: 2,
                ..
            }
        ));
    }

    #[test]
    fn error_on_missing_subckt() {
        let err = parse("M1 a b c gnd pd\n").unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::Malformed,
                ..
            }
        ));
    }

    #[test]
    fn error_on_missing_ends() {
        let err = parse(".subckt m a\nM1 a a a gnd pd\n").unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::UnexpectedEof,
                ..
            }
        ));
    }

    #[test]
    fn error_on_unknown_card() {
        let err = parse(".subckt m a\nR1 a gnd 10k\n.ends").unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::UnexpectedToken,
                ..
            }
        ));
    }

    #[test]
    fn writer_round_trips_transistor_decks() {
        let m = parse(NAND2).expect("parses");
        let text = to_spice(&m);
        let m2 = parse(&text).expect("round-trip parses");
        assert_eq!(m.device_count(), m2.device_count());
        assert_eq!(m.port_count(), m2.port_count());
        // The reader names transistor names without the M prefix; compare
        // connectivity through component counts per named net.
        for (_, net) in m.nets() {
            let n2 = m2.find_net(net.name()).expect("net preserved");
            assert_eq!(
                m2.net(n2).component_count(),
                net.component_count(),
                "net {}",
                net.name()
            );
        }
    }

    #[test]
    fn writer_round_trips_generated_fc_modules() {
        for m in [
            crate::generate::nmos_inverter_chain(4),
            crate::generate::nmos_nand(3),
            crate::library_circuits::nmos_decoder2to4(),
        ] {
            let text = to_spice(&m);
            let back = parse(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", m.name()));
            assert_eq!(back.device_count(), m.device_count(), "{}", m.name());
        }
    }

    #[test]
    fn error_on_content_after_ends() {
        let err = parse(".subckt m a\n.ends\nM1 a a a gnd pd\n").unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse {
                kind: ParseErrorKind::Malformed,
                line: 3,
                ..
            }
        ));
    }
}
