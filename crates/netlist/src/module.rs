//! The in-memory schematic graph: modules, devices, nets and ports.

use std::collections::{HashMap, HashSet};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{DeviceId, NetId, PortId};

/// Direction of a module I/O port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PortDirection {
    /// Signal enters the module.
    Input,
    /// Signal leaves the module.
    Output,
    /// Bidirectional signal.
    InOut,
}

impl fmt::Display for PortDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PortDirection::Input => "input",
            PortDirection::Output => "output",
            PortDirection::InOut => "inout",
        };
        f.write_str(s)
    }
}

/// A module I/O port, attached to exactly one net.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Port {
    name: String,
    direction: PortDirection,
    net: NetId,
}

impl Port {
    /// Port name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Port direction.
    pub fn direction(&self) -> PortDirection {
        self.direction
    }

    /// The net the port drives or observes.
    pub fn net(&self) -> NetId {
        self.net
    }
}

/// One device pin attached to a net.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PinRef {
    /// The attached device.
    pub device: DeviceId,
    /// The device's pin name.
    pub pin: String,
}

/// A signal net connecting device pins and module ports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Net {
    name: String,
    pins: Vec<PinRef>,
    ports: Vec<PortId>,
}

impl Net {
    /// Net name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Device pins attached to the net, in attachment order.
    pub fn pins(&self) -> &[PinRef] {
        &self.pins
    }

    /// Module ports attached to the net.
    pub fn ports(&self) -> &[PortId] {
        &self.ports
    }

    /// The paper's `D` for this net: the number of distinct devices
    /// ("components") connected. A device attached through two pins counts
    /// once, and module ports do not count as components.
    pub fn component_count(&self) -> usize {
        // Nets are overwhelmingly 1-4 pins; count distinct devices with a
        // quadratic scan over the pin list so the common case allocates
        // nothing. Wide nets (clock spines, generated fanout) fall back to
        // the sort-and-dedup path.
        const LINEAR_SCAN_MAX: usize = 8;
        if self.pins.len() <= LINEAR_SCAN_MAX {
            let mut count = 0;
            for (i, pin) in self.pins.iter().enumerate() {
                if self.pins[..i].iter().all(|p| p.device != pin.device) {
                    count += 1;
                }
            }
            return count;
        }
        let mut devices: Vec<DeviceId> = self.pins.iter().map(|p| p.device).collect();
        devices.sort_unstable();
        devices.dedup();
        devices.len()
    }

    /// Distinct devices on the net, sorted by id.
    pub fn components(&self) -> Vec<DeviceId> {
        let mut devices = Vec::new();
        self.components_into(&mut devices);
        devices
    }

    /// Writes the distinct devices on the net, sorted by id, into
    /// `scratch` (cleared first). Batch analyses call this once per net
    /// with a reused buffer, so a million-net module performs O(1) heap
    /// allocations for component resolution instead of one per net.
    pub fn components_into(&self, scratch: &mut Vec<DeviceId>) {
        scratch.clear();
        scratch.extend(self.pins.iter().map(|p| p.device));
        scratch.sort_unstable();
        scratch.dedup();
    }

    /// `true` if the net reaches a module port (it is externally visible).
    pub fn is_external(&self) -> bool {
        !self.ports.is_empty()
    }
}

/// A device instance: a named use of a technology template (standard cell
/// or transistor) with pin-to-net bindings.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Device {
    name: String,
    template: String,
    pins: Vec<(String, NetId)>,
}

impl Device {
    /// Instance name, unique within the module.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The technology template this instance uses (e.g. `"NAND2"`, `"pd"`).
    pub fn template(&self) -> &str {
        &self.template
    }

    /// Pin bindings in declaration order.
    pub fn pins(&self) -> &[(String, NetId)] {
        &self.pins
    }

    /// The net bound to a named pin, if any.
    pub fn pin_net(&self, pin: &str) -> Option<NetId> {
        self.pins
            .iter()
            .find(|(name, _)| name == pin)
            .map(|&(_, net)| net)
    }
}

/// A flat circuit module: the unit the paper's estimator sizes.
///
/// Construct through [`ModuleBuilder`], the [`crate::mnl`] parser or the
/// [`crate::spice`] reader. The graph is append-only once built.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Module {
    name: String,
    devices: Vec<Device>,
    nets: Vec<Net>,
    ports: Vec<Port>,
}

impl Module {
    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The same module under a new name. Generated chip families
    /// instantiate one library circuit many times; renaming keeps every
    /// instance in a batch uniquely addressable (reports, floorplans).
    pub fn renamed(mut self, name: impl Into<String>) -> Module {
        self.name = name.into();
        self
    }

    /// The paper's `N`: number of device instances.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The paper's `H`: number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of module I/O ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Device by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (ids from another module).
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.index()]
    }

    /// Net by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Port by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn port(&self, id: PortId) -> &Port {
        &self.ports[id.index()]
    }

    /// Iterates over `(id, device)` pairs.
    pub fn devices(&self) -> impl Iterator<Item = (DeviceId, &Device)> {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, d)| (DeviceId::new(i as u32), d))
    }

    /// Iterates over `(id, net)` pairs.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId::new(i as u32), n))
    }

    /// Iterates over `(id, port)` pairs.
    pub fn ports(&self) -> impl Iterator<Item = (PortId, &Port)> {
        self.ports
            .iter()
            .enumerate()
            .map(|(i, p)| (PortId::new(i as u32), p))
    }

    /// Finds a device by instance name.
    pub fn find_device(&self, name: &str) -> Option<DeviceId> {
        self.devices
            .iter()
            .position(|d| d.name == name)
            .map(|i| DeviceId::new(i as u32))
    }

    /// Finds a net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.nets
            .iter()
            .position(|n| n.name == name)
            .map(|i| NetId::new(i as u32))
    }

    /// Finds a port by name.
    pub fn find_port(&self, name: &str) -> Option<PortId> {
        self.ports
            .iter()
            .position(|p| p.name == name)
            .map(|i| PortId::new(i as u32))
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "module `{}`: {} devices, {} nets, {} ports",
            self.name,
            self.devices.len(),
            self.nets.len(),
            self.ports.len()
        )
    }
}

/// Incremental constructor for [`Module`].
///
/// Names are checked for uniqueness per kind; pin bindings are recorded on
/// both the device and the net so either direction of traversal is O(1).
///
/// # Examples
///
/// ```
/// use maestro_netlist::{ModuleBuilder, PortDirection};
///
/// let mut b = ModuleBuilder::new("half_adder");
/// let a = b.port("a", PortDirection::Input);
/// let c = b.port("b", PortDirection::Input);
/// let s = b.port("s", PortDirection::Output);
/// let co = b.port("co", PortDirection::Output);
/// b.device("x1", "XOR2", [("A", a), ("B", c), ("Y", s)]);
/// b.device("a1", "AND2", [("A", a), ("B", c), ("Y", co)]);
/// let m = b.finish();
/// assert_eq!(m.net(a).component_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ModuleBuilder {
    name: String,
    devices: Vec<Device>,
    nets: Vec<Net>,
    ports: Vec<Port>,
    device_names: HashMap<String, DeviceId>,
    net_names: HashMap<String, NetId>,
    port_names: HashMap<String, PortId>,
}

impl ModuleBuilder {
    /// Starts a new module.
    ///
    /// # Panics
    ///
    /// Panics if the name is empty.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "module name must be non-empty");
        ModuleBuilder {
            name,
            devices: Vec::new(),
            nets: Vec::new(),
            ports: Vec::new(),
            device_names: HashMap::new(),
            net_names: HashMap::new(),
            port_names: HashMap::new(),
        }
    }

    /// Declares an internal net. Re-declaring an existing name returns the
    /// existing id, which lets textual formats reference nets lazily; the
    /// lookup borrows the name, so only a new net allocates.
    pub fn net(&mut self, name: impl AsRef<str> + Into<String>) -> NetId {
        if let Some(&id) = self.net_names.get(name.as_ref()) {
            return id;
        }
        let name = name.into();
        let id = NetId::new(self.nets.len() as u32);
        self.nets.push(Net {
            name: name.clone(),
            pins: Vec::new(),
            ports: Vec::new(),
        });
        self.net_names.insert(name, id);
        id
    }

    /// Declares a module port with an implicit net of the same name and
    /// returns that net's id.
    ///
    /// # Panics
    ///
    /// Panics if a port of this name already exists.
    pub fn port(&mut self, name: impl Into<String>, direction: PortDirection) -> NetId {
        let name = name.into();
        assert!(
            !self.port_names.contains_key(&name),
            "duplicate port `{name}` in module `{}`",
            self.name
        );
        let net = self.net(name.as_str());
        let id = PortId::new(self.ports.len() as u32);
        self.ports.push(Port {
            name: name.clone(),
            direction,
            net,
        });
        self.port_names.insert(name, id);
        self.nets[net.index()].ports.push(id);
        net
    }

    /// Instantiates a device with the given template and pin bindings.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate instance name, a duplicate pin name within
    /// the binding list, or a net id from another builder.
    pub fn device<'p, I>(
        &mut self,
        name: impl Into<String>,
        template: impl Into<String>,
        pins: I,
    ) -> DeviceId
    where
        I: IntoIterator<Item = (&'p str, NetId)>,
    {
        let name = name.into();
        assert!(
            !self.device_names.contains_key(&name),
            "duplicate device `{name}` in module `{}`",
            self.name
        );
        let id = DeviceId::new(self.devices.len() as u32);
        let mut bound: Vec<(String, NetId)> = Vec::new();
        let mut seen = PinNames::default();
        for (pin, net) in pins {
            assert!(
                net.index() < self.nets.len(),
                "device `{name}` pin `{pin}` bound to foreign net {net}"
            );
            assert!(seen.insert(pin), "device `{name}` binds pin `{pin}` twice");
            bound.push((pin.to_owned(), net));
            self.nets[net.index()].pins.push(PinRef {
                device: id,
                pin: pin.to_owned(),
            });
        }
        self.devices.push(Device {
            name: name.clone(),
            template: template.into(),
            pins: bound,
        });
        self.device_names.insert(name, id);
        id
    }

    /// Number of devices added so far.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Finalizes the module.
    pub fn finish(self) -> Module {
        Module {
            name: self.name,
            devices: self.devices,
            nets: self.nets,
            ports: self.ports,
        }
    }
}

/// Pins past this count on one device go into a hash set; up to it, the
/// duplicate-pin check scans an inline array and allocates nothing.
const PIN_SCAN_LIMIT: usize = 8;

/// The pin names bound so far on one device: the duplicate-pin check of
/// [`ModuleBuilder::device`] and of the `.mnl` parser. Common cells stay
/// on a linear scan of at most [`PIN_SCAN_LIMIT`] names; a wider device
/// switches to a hash set, so checking `n` pins costs O(n), not the
/// O(n²) name comparisons a scan would take.
#[derive(Debug, Default)]
pub(crate) struct PinNames<'p> {
    few: [&'p str; PIN_SCAN_LIMIT],
    len: usize,
    many: HashSet<&'p str>,
}

impl<'p> PinNames<'p> {
    /// Records `pin`; returns `false` if it was already bound.
    pub(crate) fn insert(&mut self, pin: &'p str) -> bool {
        if self.len < PIN_SCAN_LIMIT {
            if self.few[..self.len].contains(&pin) {
                return false;
            }
            self.few[self.len] = pin;
            self.len += 1;
            return true;
        }
        if self.many.is_empty() {
            self.many.extend(self.few);
        }
        self.many.insert(pin)
    }

    /// Forgets every name, keeping the set's allocation for the next
    /// wide device (an empty set is not cleared again, so one wide device
    /// costs nothing per later narrow one).
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        if !self.many.is_empty() {
            self.many.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_names_report_repeats_before_and_after_the_spill() {
        let names: Vec<String> = (0..3 * PIN_SCAN_LIMIT).map(|i| format!("P{i}")).collect();
        let mut seen = PinNames::default();
        for (i, name) in names.iter().enumerate() {
            assert!(seen.insert(name), "{name} is new");
            assert!(!seen.insert(&names[i / 2]), "{} is a repeat", names[i / 2]);
        }
        seen.clear();
        assert!(seen.insert(&names[0]), "a cleared set is empty");
    }

    fn two_inverters() -> Module {
        let mut b = ModuleBuilder::new("buf2");
        let a = b.port("a", PortDirection::Input);
        let y = b.port("y", PortDirection::Output);
        let mid = b.net("mid");
        b.device("u1", "INV", [("A", a), ("Y", mid)]);
        b.device("u2", "INV", [("A", mid), ("Y", y)]);
        b.finish()
    }

    #[test]
    fn component_apis_agree_across_linear_and_sorted_paths() {
        // A net wide enough to take the sort-and-dedup path, with every
        // device attached twice so deduplication matters on both paths.
        let mut b = ModuleBuilder::new("wide");
        let clk = b.net("clk");
        for i in 0..12 {
            let q = b.net(format!("q{i}"));
            b.device(
                format!("ff{i}"),
                "DFF2C",
                [("C1", clk), ("C2", clk), ("Q", q)],
            );
        }
        let m = b.finish();
        let clk = m.find_net("clk").expect("clk exists");
        let net = m.net(clk);
        assert_eq!(net.component_count(), 12);
        let direct = net.components();
        let mut scratch = vec![DeviceId::new(999)];
        net.components_into(&mut scratch);
        assert_eq!(direct, scratch, "components_into clears and refills");
        assert_eq!(direct.len(), net.component_count());
        // Narrow net: the allocation-free linear count agrees too.
        let q0 = m.find_net("q0").expect("q0 exists");
        assert_eq!(m.net(q0).component_count(), m.net(q0).components().len());
    }

    #[test]
    fn counts_and_lookups() {
        let m = two_inverters();
        assert_eq!(m.device_count(), 2);
        assert_eq!(m.net_count(), 3);
        assert_eq!(m.port_count(), 2);
        assert_eq!(m.to_string(), "module `buf2`: 2 devices, 3 nets, 2 ports");
        let u1 = m.find_device("u1").expect("u1 exists");
        assert_eq!(m.device(u1).template(), "INV");
        assert_eq!(m.find_device("nope"), None);
        let mid = m.find_net("mid").expect("mid exists");
        assert_eq!(m.net(mid).name(), "mid");
        let a = m.find_port("a").expect("a exists");
        assert_eq!(m.port(a).direction(), PortDirection::Input);
    }

    #[test]
    fn net_components_and_externality() {
        let m = two_inverters();
        let mid = m.find_net("mid").unwrap();
        assert_eq!(m.net(mid).component_count(), 2);
        assert!(!m.net(mid).is_external());
        let a = m.find_net("a").unwrap();
        assert_eq!(m.net(a).component_count(), 1);
        assert!(m.net(a).is_external());
    }

    #[test]
    fn device_connected_twice_counts_once() {
        let mut b = ModuleBuilder::new("fb");
        let n = b.net("n");
        b.device("u1", "NAND2", [("A", n), ("B", n)]);
        let m = b.finish();
        let n = m.find_net("n").unwrap();
        assert_eq!(m.net(n).pins().len(), 2);
        assert_eq!(m.net(n).component_count(), 1);
    }

    #[test]
    fn pin_net_lookup() {
        let m = two_inverters();
        let u2 = m.find_device("u2").unwrap();
        let mid = m.find_net("mid").unwrap();
        assert_eq!(m.device(u2).pin_net("A"), Some(mid));
        assert_eq!(m.device(u2).pin_net("Z"), None);
    }

    #[test]
    fn net_redeclaration_returns_same_id() {
        let mut b = ModuleBuilder::new("m");
        let n1 = b.net("x");
        let n2 = b.net("x");
        assert_eq!(n1, n2);
    }

    #[test]
    #[should_panic(expected = "duplicate device")]
    fn duplicate_device_rejected() {
        let mut b = ModuleBuilder::new("m");
        b.device("u1", "INV", []);
        b.device("u1", "INV", []);
    }

    #[test]
    #[should_panic(expected = "duplicate port")]
    fn duplicate_port_rejected() {
        let mut b = ModuleBuilder::new("m");
        b.port("a", PortDirection::Input);
        b.port("a", PortDirection::Output);
    }

    #[test]
    #[should_panic(expected = "binds pin")]
    fn duplicate_pin_binding_rejected() {
        let mut b = ModuleBuilder::new("m");
        let n = b.net("n");
        b.device("u1", "INV", [("A", n), ("A", n)]);
    }

    #[test]
    fn ports_iterate_in_declaration_order() {
        let m = two_inverters();
        let names: Vec<_> = m.ports().map(|(_, p)| p.name().to_owned()).collect();
        assert_eq!(names, ["a", "y"]);
    }
}
