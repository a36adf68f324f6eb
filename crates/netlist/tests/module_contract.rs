//! The `Module` contract, checked against a plain record of the builder
//! calls that made the module:
//!
//! * random `ModuleBuilder` programs — ports of every direction, nets and
//!   devices binding 0–6 pins, with names from small alphabets so reuse
//!   and net redeclaration are common — and what the module answers:
//!   counts, names, templates, `find_*`, ports, each net's components and
//!   externality, `NetlistStats` for both layout styles and the
//!   `mnl::to_mnl` text, all derived from the record alone;
//! * equality, the fingerprint and the text depend on content only: the
//!   same module built through two interleavings of net, port and device
//!   creation, every id identical, is `==`, fingerprints the same and
//!   prints the same, whether or not either build (or a clone of it) has
//!   been fingerprinted already; a renamed module fingerprints as one
//!   built under the new name.
//!
//! Only the name, count, lookup, component and port accessors are used,
//! so the contract holds for any representation of the graph.

use std::collections::BTreeMap;

use maestro_geom::{Lambda, LambdaArea};
use maestro_netlist::{
    mnl, DeviceId, LayoutStyle, Module, ModuleBuilder, ModuleFingerprint, NetId, NetlistError,
    NetlistStats, PortDirection, PortId,
};
use maestro_tech::{builtin, ProcessDb};
use proptest::prelude::*;

const MODULE: &str = "contract";
/// Net and port names (a port's net carries the port's name).
const NETS: [&str; 8] = ["a", "b", "c", "x", "y", "clk", "n1", "n2"];
/// Device names; two of them are net names too, another namespace.
const DEVICES: [&str; 7] = ["u1", "u2", "u3", "q1", "q2", "a", "clk"];
const PINS: [&str; 9] = ["A", "B", "C", "D", "Y", "Q", "d", "g", "s"];
/// Standard cells of the built-in nMOS library, then its transistors.
const CELLS: [&str; 5] = ["INV", "NAND2", "NOR3", "DFF", "AOI22"];
const TRANSISTORS: [&str; 3] = ["pd", "pu", "pass"];
const DIRECTIONS: [PortDirection; 3] = [
    PortDirection::Input,
    PortDirection::Output,
    PortDirection::InOut,
];

/// One builder call of a program: `(kind, name, detail, pins)`. Kind 0
/// declares net `NETS[name]`; kind 1 declares port `NETS[name]` with
/// direction `detail`; kind 2 instantiates device `DEVICES[name]` with
/// template `detail` of the case's pool, binding `(pin, net)` pairs.
type Call = (u8, usize, usize, Vec<(usize, usize)>);

fn program() -> impl Strategy<Value = Vec<Call>> {
    proptest::collection::vec(
        (
            0u8..3,
            0usize..16,
            0usize..16,
            proptest::collection::vec((0usize..PINS.len(), 0usize..NETS.len()), 0..7),
        ),
        0..28,
    )
}

/// A template of the case's pool: 0 = cells only, 1 = transistors only,
/// 2 = both (so each style's resolution fails on some device).
fn template(pool: usize, pick: usize) -> &'static str {
    match pool {
        0 => CELLS[pick % CELLS.len()],
        1 => TRANSISTORS[pick % TRANSISTORS.len()],
        _ => {
            let both = CELLS.len() + TRANSISTORS.len();
            let i = pick % both;
            CELLS
                .get(i)
                .copied()
                .unwrap_or_else(|| TRANSISTORS[i - CELLS.len()])
        }
    }
}

/// A recorded device: name, template and `(pin, net index)` bindings.
type RecordedDevice = (&'static str, &'static str, Vec<(&'static str, usize)>);

/// What the calls declared, in id order, with nothing derived.
#[derive(Debug, Default)]
struct Record {
    nets: Vec<&'static str>,
    /// Name, direction and net index of each port.
    ports: Vec<(&'static str, PortDirection, usize)>,
    devices: Vec<RecordedDevice>,
}

impl Record {
    /// The index of net `name`, declared now if it is new.
    fn net(&mut self, name: &'static str) -> usize {
        self.nets
            .iter()
            .position(|&n| n == name)
            .unwrap_or_else(|| {
                self.nets.push(name);
                self.nets.len() - 1
            })
    }

    fn has_port(&self, net: usize) -> bool {
        self.ports.iter().any(|&(_, _, n)| n == net)
    }

    /// The devices with a pin on net `net`: sorted, each once.
    fn components(&self, net: usize) -> Vec<DeviceId> {
        self.devices
            .iter()
            .enumerate()
            .filter(|(_, (_, _, pins))| pins.iter().any(|&(_, n)| n == net))
            .map(|(i, _)| DeviceId::new(i as u32))
            .collect()
    }

    /// The `.mnl` text of the recorded module.
    fn to_mnl(&self) -> String {
        let mut s = format!("module {MODULE};\n");
        for (dir, keyword) in DIRECTIONS.iter().zip(["input", "output", "inout"]) {
            let names: Vec<&str> = self
                .ports
                .iter()
                .filter(|(_, d, _)| d == dir)
                .map(|&(name, _, _)| name)
                .collect();
            if !names.is_empty() {
                s += &format!("{keyword} {};\n", names.join(", "));
            }
        }
        let internal: Vec<&str> = (0..self.nets.len())
            .filter(|&n| !self.has_port(n))
            .map(|n| self.nets[n])
            .collect();
        if !internal.is_empty() {
            s += &format!("net {};\n", internal.join(", "));
        }
        for (name, template, pins) in &self.devices {
            let pins: Vec<String> = pins
                .iter()
                .map(|&(pin, net)| format!("{pin}={}", self.nets[net]))
                .collect();
            s += &format!("device {name} {template} ({});\n", pins.join(", "));
        }
        s + "endmodule\n"
    }
}

/// Runs a program on a builder and on a record side by side. Calls the
/// builder would reject (a second port or device of one name) are left
/// out of both, as is a repeated pin name within one device.
fn run(calls: &[Call], pool: usize) -> (Module, Record) {
    let mut b = ModuleBuilder::new(MODULE);
    let mut rec = Record::default();
    for (kind, name, detail, pins) in calls {
        match kind {
            0 => {
                let name = NETS[name % NETS.len()];
                let id = b.net(name);
                assert_eq!(id.index(), rec.net(name), "net `{name}`");
            }
            1 => {
                let name = NETS[name % NETS.len()];
                if rec.ports.iter().any(|&(p, _, _)| p == name) {
                    continue;
                }
                let dir = DIRECTIONS[detail % DIRECTIONS.len()];
                let id = b.port(name, dir);
                let net = rec.net(name);
                assert_eq!(id.index(), net, "port `{name}`");
                rec.ports.push((name, dir, net));
            }
            _ => {
                let name = DEVICES[name % DEVICES.len()];
                if rec.devices.iter().any(|&(d, _, _)| d == name) {
                    continue;
                }
                let mut bound: Vec<(&'static str, usize)> = Vec::new();
                let mut ids: Vec<(&str, NetId)> = Vec::new();
                for &(pin, net) in pins {
                    let (pin, net) = (PINS[pin], NETS[net]);
                    if bound.iter().any(|&(p, _)| p == pin) {
                        continue;
                    }
                    let id = b.net(net);
                    let index = rec.net(net);
                    assert_eq!(id.index(), index, "net `{net}`");
                    bound.push((pin, index));
                    ids.push((pin, id));
                }
                let template = template(pool, *detail);
                let id = b.device(name, template, ids);
                assert_eq!(id.index(), rec.devices.len(), "device `{name}`");
                rec.devices.push((name, template, bound));
            }
        }
    }
    (b.finish(), rec)
}

/// Builds the recorded module again in another order: nets strictly by
/// explicit declaration in id order, and each port or device as soon as
/// `choices` picks it among the calls whose nets all exist.
fn rebuild_interleaved(rec: &Record, choices: &[usize]) -> Module {
    let mut b = ModuleBuilder::new(MODULE);
    let (mut nets, mut ports, mut devices) = (0, 0, 0);
    let mut choices = choices.iter().copied().cycle();
    while nets < rec.nets.len() || ports < rec.ports.len() || devices < rec.devices.len() {
        let ready = [
            nets < rec.nets.len(),
            rec.ports.get(ports).is_some_and(|&(_, _, net)| net < nets),
            rec.devices
                .get(devices)
                .is_some_and(|(_, _, pins)| pins.iter().all(|&(_, net)| net < nets)),
        ];
        let ready: Vec<usize> = (0..3).filter(|&k| ready[k]).collect();
        match ready[choices.next().unwrap_or(0) % ready.len()] {
            0 => {
                assert_eq!(b.net(rec.nets[nets]).index(), nets);
                nets += 1;
            }
            1 => {
                let (name, dir, net) = rec.ports[ports];
                assert_eq!(b.port(name, dir).index(), net);
                ports += 1;
            }
            _ => {
                let (name, template, pins) = &rec.devices[devices];
                let pins = pins.iter().map(|&(pin, net)| (pin, NetId::new(net as u32)));
                assert_eq!(b.device(*name, *template, pins).index(), devices);
                devices += 1;
            }
        }
    }
    b.finish()
}

/// A device's width and height in `style`'s template table.
fn size(tech: &ProcessDb, style: LayoutStyle, template: &str) -> Option<(Lambda, Lambda)> {
    match style {
        LayoutStyle::StandardCell => tech
            .cell_library()
            .cell(template)
            .map(|c| (c.width(), c.height())),
        LayoutStyle::FullCustom => tech.device(template).map(|d| (d.width(), d.height())),
    }
}

/// Checks `NetlistStats::resolve` against the record: the first device
/// (in id order) without a template in the style's table is the error;
/// otherwise every histogram and per-net total follows from the record.
fn check_stats(module: &Module, rec: &Record, tech: &ProcessDb, style: LayoutStyle) {
    let got = NetlistStats::resolve(module, tech, style);
    let mut sizes = Vec::new();
    for &(device, template, _) in &rec.devices {
        match size(tech, style, template) {
            Some(s) => sizes.push(s),
            None => {
                let expected = NetlistError::UnknownTemplate {
                    device: device.to_owned(),
                    template: template.to_owned(),
                };
                assert_eq!(got.unwrap_err(), expected, "{style}");
                return;
            }
        }
    }
    let stats = got.expect("every template resolves");
    let histogram = |values: Vec<Lambda>| {
        let mut bins: BTreeMap<Lambda, usize> = BTreeMap::new();
        for v in values {
            *bins.entry(v).or_insert(0) += 1;
        }
        bins.into_iter().collect::<Vec<_>>()
    };
    let widths: Vec<Lambda> = sizes.iter().map(|&(w, _)| w).collect();
    let heights: Vec<Lambda> = sizes.iter().map(|&(_, h)| h).collect();
    assert_eq!(stats.widths().iter().collect::<Vec<_>>(), histogram(widths));
    assert_eq!(
        stats.heights().iter().collect::<Vec<_>>(),
        histogram(heights)
    );
    let mut area = LambdaArea::ZERO;
    for &(w, h) in &sizes {
        area += w * h;
    }
    assert_eq!(stats.total_device_area(), area);
    assert_eq!(stats.device_count(), rec.devices.len());
    assert_eq!(stats.port_count(), rec.ports.len());

    let mut net_sizes: BTreeMap<usize, usize> = BTreeMap::new();
    let mut wires = Vec::new();
    for net in 0..rec.nets.len() {
        let components = rec.components(net);
        if components.is_empty() {
            continue;
        }
        *net_sizes.entry(components.len()).or_insert(0) += 1;
        let width: Lambda = components.iter().map(|d| sizes[d.index()].0).sum();
        wires.push((NetId::new(net as u32), components.len(), width));
    }
    assert_eq!(stats.net_count(), wires.len());
    assert_eq!(
        stats.net_sizes().iter().collect::<Vec<_>>(),
        net_sizes.into_iter().collect::<Vec<_>>()
    );
    let got_wires: Vec<_> = stats
        .net_wires()
        .iter()
        .map(|w| (w.net, w.components, w.total_component_width))
        .collect();
    assert_eq!(got_wires, wires);
}

fn check_against_record(module: &Module, rec: &Record) {
    assert_eq!(module.name(), MODULE);
    assert_eq!(module.device_count(), rec.devices.len());
    assert_eq!(module.net_count(), rec.nets.len());
    assert_eq!(module.port_count(), rec.ports.len());

    for (i, &(name, template, _)) in rec.devices.iter().enumerate() {
        let id = DeviceId::new(i as u32);
        assert_eq!(module.device(id).name(), name);
        assert_eq!(module.device(id).template(), template);
        assert_eq!(module.find_device(name), Some(id));
    }
    for name in DEVICES {
        if !rec.devices.iter().any(|&(d, _, _)| d == name) {
            assert_eq!(module.find_device(name), None, "device `{name}`");
        }
    }

    for (i, &name) in rec.nets.iter().enumerate() {
        let id = NetId::new(i as u32);
        let net = module.net(id);
        assert_eq!(net.name(), name);
        assert_eq!(module.find_net(name), Some(id));
        let components = rec.components(i);
        assert_eq!(net.components(), components, "net `{name}`");
        assert_eq!(net.component_count(), components.len(), "net `{name}`");
        assert_eq!(net.is_external(), rec.has_port(i), "net `{name}`");
    }
    for name in NETS {
        if !rec.nets.contains(&name) {
            assert_eq!(module.find_net(name), None, "net `{name}`");
        }
    }

    for (i, &(name, dir, net)) in rec.ports.iter().enumerate() {
        let id = PortId::new(i as u32);
        let port = module.port(id);
        assert_eq!(port.name(), name);
        assert_eq!(port.direction(), dir);
        assert_eq!(port.net(), NetId::new(net as u32));
        assert_eq!(module.find_port(name), Some(id));
    }
    for name in NETS {
        if !rec.ports.iter().any(|&(p, _, _)| p == name) {
            assert_eq!(module.find_port(name), None, "port `{name}`");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn accessors_answer_what_the_calls_recorded(calls in program(), pool in 0usize..3) {
        let (module, rec) = run(&calls, pool);
        check_against_record(&module, &rec);
        let tech = builtin::nmos25();
        for style in [LayoutStyle::StandardCell, LayoutStyle::FullCustom] {
            check_stats(&module, &rec, &tech, style);
        }
        let text = mnl::to_mnl(&module);
        prop_assert_eq!(&text, &rec.to_mnl());
        let back = mnl::parse(&text).expect("to_mnl text parses");
        prop_assert_eq!(mnl::to_mnl(&back), text);
    }

    #[test]
    fn equality_and_fingerprint_ignore_the_call_interleaving(
        calls in program(),
        pool in 0usize..3,
        choices in proptest::collection::vec(0usize..6, 1..40),
    ) {
        let (module, rec) = run(&calls, pool);
        let interleaved = rebuild_interleaved(&rec, &choices);
        check_against_record(&interleaved, &rec);
        // The module keeps its fingerprint once computed; the kept value
        // takes no part in `==`. Hash one build, and a clone of it, first.
        let hashed = ModuleFingerprint::of(&interleaved);
        let clone = interleaved.clone();
        prop_assert_eq!(ModuleFingerprint::of(&clone), hashed);
        for hashed_build in [&interleaved, &clone] {
            prop_assert_eq!(hashed_build, &module);
            prop_assert_eq!(&module, hashed_build);
            prop_assert_eq!(mnl::to_mnl(hashed_build), mnl::to_mnl(&module));
        }
        prop_assert_eq!(ModuleFingerprint::of(&module), hashed);
    }
}

#[test]
fn a_renamed_module_fingerprints_as_one_built_under_the_new_name() {
    let build = |name: &str| {
        let mut b = ModuleBuilder::new(name);
        let a = b.port("a", PortDirection::Input);
        let y = b.port("y", PortDirection::Output);
        b.device("u1", "INV", [("A", a), ("Y", y)]);
        b.finish()
    };
    let module = build(MODULE);
    let old = ModuleFingerprint::of(&module);
    let renamed = module.renamed("other");
    assert_eq!(
        ModuleFingerprint::of(&renamed),
        ModuleFingerprint::of(&build("other"))
    );
    assert_ne!(ModuleFingerprint::of(&renamed), old);
}

#[test]
fn a_net_declared_before_the_device_that_binds_it_changes_nothing() {
    // `net(x); device(u1, …, A=x); net(y)` against
    // `net(x); net(y); device(u1, …, A=x)`.
    let build = |late_y: bool| {
        let mut b = ModuleBuilder::new(MODULE);
        let x = b.net("x");
        if !late_y {
            b.net("y");
        }
        b.device("u1", "INV", [("A", x)]);
        if late_y {
            b.net("y");
        }
        b.finish()
    };
    let (late, early) = (build(true), build(false));
    assert_eq!(late, early);
    assert_eq!(ModuleFingerprint::of(&late), ModuleFingerprint::of(&early));
    assert_eq!(mnl::to_mnl(&late), mnl::to_mnl(&early));
}
