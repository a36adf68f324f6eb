//! The in-memory schematic graph: modules, devices, nets and ports.
//!
//! A [`Module`] is stored as a handful of flat arrays, not as one object
//! per device or net:
//!
//! * each kind of name — device names, net names, and *symbols* (the
//!   templates and pin names, interned per module) — lives once in its
//!   own arena: the names back to back in one `String`, each addressed by
//!   a `u32` span;
//! * devices are a template symbol each plus a CSR (compressed sparse
//!   row) range of pin bindings, `(pin symbol, net)`;
//! * nets are the transpose: a CSR range of `(device, pin symbol)`
//!   attachments per net, in attachment order, which is also
//!   nondecreasing device order;
//! * a port is a direction and a net. Its name is its net's name, since
//!   [`ModuleBuilder::port`] creates or reuses the net of that name.
//!
//! Every array is filled in id order (symbols in the order devices first
//! use them), so two modules with the same content — ids, names,
//! bindings and their order — hold equal arrays, however the builder's
//! calls were interleaved. `==` and [`crate::ModuleFingerprint`] compare
//! and hash the arrays directly. The module keeps its fingerprint once
//! computed, so a module value is hashed at most once; `==` ignores the
//! kept value, and [`Module::renamed`] drops it.
//!
//! Accessors return `&str`, small `Copy` views ([`Device`], [`Net`],
//! [`Port`], [`Pins`]) and iterators over the arrays.

use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::ops::Deref;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::memo::{content_hash128, content_hash128_u32};
use crate::{DeviceId, ModuleFingerprint, NetId, NetlistError, ParseErrorKind, PortId};

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

/// Names of one kind, each stored once: their text back to back in one
/// arena, name `i` spanning `ends[i - 1]..ends[i]` (from 0 for the
/// first).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Names {
    text: String,
    ends: Vec<u32>,
}

impl Names {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    fn iter(&self) -> impl Iterator<Item = &str> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let name = &self.text[start..end as usize];
            start = end as usize;
            name
        })
    }

    /// The id of the first name equal to `name`, by a linear scan.
    fn position(&self, name: &str) -> Option<u32> {
        (0u32..)
            .zip(self.iter())
            .find(|&(_, n)| n == name)
            .map(|(i, _)| i)
    }

    /// Appends `name` and returns its id, or `None` if the id or the
    /// span would not fit in `u32`. Ids stay below `u32::MAX`, so an id
    /// plus one always fits too.
    fn push(&mut self, name: &str) -> Option<u32> {
        let id = u32::try_from(self.ends.len())
            .ok()
            .filter(|&id| id < u32::MAX)?;
        let end = u32::try_from(self.text.len() + name.len()).ok()?;
        self.text.push_str(name);
        self.ends.push(end);
        Some(id)
    }

    /// The content hash of the names: the text and the spans.
    fn hash_into(&self, parts: &mut Vec<u128>) {
        parts.push(content_hash128(self.text.as_bytes()));
        parts.push(content_hash128_u32(self.ends.iter().copied()));
    }
}

/// One pin binding of a device: the pin's symbol and its net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Binding {
    pin: u32,
    net: NetId,
}

/// One pin on a net: the device and the pin's symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Attachment {
    device: DeviceId,
    pin: u32,
}

/// `Module::net_ports` for a net without a port.
const NO_PORT: u32 = u32::MAX;

/// A module's [`ModuleFingerprint`], filled by [`ModuleFingerprint::of`]
/// on first use. The fingerprint is a function of the content, so the
/// cell takes no part in `==`: every cell equals every other, and a
/// hashed module equals an unhashed copy of itself.
#[derive(Debug, Clone, Default)]
pub(crate) struct FingerprintCell(pub(crate) OnceLock<ModuleFingerprint>);

impl PartialEq for FingerprintCell {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for FingerprintCell {}

/// A flat circuit module: the unit the paper's estimator sizes.
///
/// Construct through [`ModuleBuilder`], the [`crate::mnl`] parser or the
/// [`crate::spice`] reader. The graph is append-only once built. See the
/// [module documentation](self) for the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    name: String,
    device_names: Names,
    /// Each device's template symbol.
    templates: Vec<u32>,
    /// Device `d`'s pins are `pins[pin_offsets[d]..pin_offsets[d + 1]]`.
    pin_offsets: Vec<u32>,
    pins: Vec<Binding>,
    net_names: Names,
    /// Net `n`'s pins are `net_pins[net_pin_offsets[n]..net_pin_offsets[n + 1]]`.
    net_pin_offsets: Vec<u32>,
    net_pins: Vec<Attachment>,
    /// Each net's port, or [`NO_PORT`]: a net has at most one, the port
    /// of its name.
    net_ports: Vec<u32>,
    ports: Vec<(PortDirection, NetId)>,
    /// Templates and pin names, in the order devices first use them.
    symbols: Names,
    pub(crate) fingerprint: FingerprintCell,
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
        // The name is part of the fingerprint.
        self.fingerprint = FingerprintCell::default();
        self
    }

    /// The paper's `N`: number of device instances.
    pub fn device_count(&self) -> usize {
        self.templates.len()
    }

    /// The paper's `H`: number of nets.
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Number of module I/O ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Device by id.
    ///
    /// # Panics
    ///
    /// The view panics when read if the id is out of range (an id from
    /// another module).
    pub fn device(&self, id: DeviceId) -> Device<'_> {
        Device {
            module: self,
            index: id.index(),
        }
    }

    /// Net by id.
    ///
    /// # Panics
    ///
    /// The view panics when read if the id is out of range.
    pub fn net(&self, id: NetId) -> Net<'_> {
        Net {
            module: self,
            index: id.index(),
        }
    }

    /// Port by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn port(&self, id: PortId) -> Port<'_> {
        let (direction, net) = self.ports[id.index()];
        Port {
            name: self.net_names.get(net.index()),
            direction,
            net,
        }
    }

    /// Iterates over `(id, device)` pairs.
    pub fn devices(&self) -> impl Iterator<Item = (DeviceId, Device<'_>)> {
        (0u32..)
            .take(self.device_count())
            .map(|i| (DeviceId::new(i), self.device(DeviceId::new(i))))
    }

    /// Iterates over `(id, net)` pairs.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, Net<'_>)> {
        (0u32..)
            .take(self.net_count())
            .map(|i| (NetId::new(i), self.net(NetId::new(i))))
    }

    /// Iterates over `(id, port)` pairs.
    pub fn ports(&self) -> impl Iterator<Item = (PortId, Port<'_>)> {
        (0u32..)
            .take(self.port_count())
            .map(|i| (PortId::new(i), self.port(PortId::new(i))))
    }

    /// Finds a device by instance name.
    pub fn find_device(&self, name: &str) -> Option<DeviceId> {
        self.device_names.position(name).map(DeviceId::new)
    }

    /// Finds a net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names.position(name).map(NetId::new)
    }

    /// Finds a port by name.
    pub fn find_port(&self, name: &str) -> Option<PortId> {
        self.find_net(name).and_then(|net| self.net(net).port())
    }

    /// Each device's template as a symbol of this module (a dense index
    /// below [`Module::symbol_count`]): equal templates, equal symbols.
    pub(crate) fn template_symbols(&self) -> &[u32] {
        &self.templates
    }

    /// Number of distinct template and pin names.
    pub(crate) fn symbol_count(&self) -> usize {
        self.symbols.len()
    }

    /// The content hash behind [`ModuleFingerprint`]: every array
    /// the module's content determines, each hashed on its own and
    /// length-prefixed by [`content_hash128`], then the digests together.
    /// The net attachments and ports per net are not hashed: they are
    /// functions of the device pins and the ports.
    pub(crate) fn content_hash(&self) -> u128 {
        let mut parts = Vec::with_capacity(13);
        parts.push(content_hash128(self.name.as_bytes()));
        self.device_names.hash_into(&mut parts);
        parts.push(content_hash128_u32(self.templates.iter().copied()));
        parts.push(content_hash128_u32(self.pin_offsets.iter().copied()));
        parts.push(content_hash128_u32(self.pins.iter().map(|b| b.pin)));
        parts.push(content_hash128_u32(
            self.pins.iter().map(|b| u32::from(b.net)),
        ));
        self.net_names.hash_into(&mut parts);
        parts.push(content_hash128_u32(
            self.ports.iter().map(|&(d, _)| d as u32),
        ));
        parts.push(content_hash128_u32(
            self.ports.iter().map(|&(_, n)| u32::from(n)),
        ));
        self.symbols.hash_into(&mut parts);
        let bytes: Vec<u8> = parts.iter().flat_map(|p| p.to_le_bytes()).collect();
        content_hash128(&bytes)
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "module `{}`: {} devices, {} nets, {} ports",
            self.name,
            self.device_count(),
            self.net_count(),
            self.port_count()
        )
    }
}

/// A device instance: a named use of a technology template (standard cell
/// or transistor) with pin-to-net bindings. A view into its module.
#[derive(Clone, Copy)]
pub struct Device<'m> {
    module: &'m Module,
    index: usize,
}

impl<'m> Device<'m> {
    /// Instance name, unique within the module.
    pub fn name(&self) -> &'m str {
        self.module.device_names.get(self.index)
    }

    /// The technology template this instance uses (e.g. `"NAND2"`, `"pd"`).
    pub fn template(&self) -> &'m str {
        let m = self.module;
        m.symbols.get(m.templates[self.index] as usize)
    }

    /// Pin bindings in declaration order.
    pub fn pins(&self) -> Pins<'m> {
        let m = self.module;
        let start = m.pin_offsets[self.index] as usize;
        let end = m.pin_offsets[self.index + 1] as usize;
        Pins {
            bindings: &m.pins[start..end],
            symbols: &m.symbols,
        }
    }

    /// The net bound to a named pin, if any.
    pub fn pin_net(&self, pin: &str) -> Option<NetId> {
        self.pins()
            .iter()
            .find(|(name, _)| name.as_str() == pin)
            .map(|(_, &net)| net)
    }
}

impl fmt::Debug for Device<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Device")
            .field("name", &self.name())
            .field("template", &self.template())
            .field("pins", &self.pins())
            .finish()
    }
}

/// A device's pin bindings in declaration order: a view that
/// [`Pins::iter`] walks as `(pin name, &net)` pairs.
#[derive(Clone, Copy)]
pub struct Pins<'m> {
    bindings: &'m [Binding],
    symbols: &'m Names,
}

impl<'m> Pins<'m> {
    /// Number of bound pins.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// `true` for a device with no pins bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// The bindings as `(pin name, &net)` pairs.
    pub fn iter(&self) -> PinIter<'m> {
        PinIter {
            bindings: self.bindings.iter(),
            symbols: self.symbols,
        }
    }
}

impl<'m> IntoIterator for Pins<'m> {
    type Item = (PinName<'m>, &'m NetId);
    type IntoIter = PinIter<'m>;

    fn into_iter(self) -> PinIter<'m> {
        self.iter()
    }
}

impl fmt::Debug for Pins<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.iter().map(|(pin, net)| (pin.as_str(), *net)))
            .finish()
    }
}

/// The iterator [`Pins::iter`] returns.
#[derive(Debug, Clone)]
pub struct PinIter<'m> {
    bindings: std::slice::Iter<'m, Binding>,
    symbols: &'m Names,
}

impl<'m> Iterator for PinIter<'m> {
    type Item = (PinName<'m>, &'m NetId);

    fn next(&mut self) -> Option<Self::Item> {
        let binding = self.bindings.next()?;
        let name = self.symbols.get(binding.pin as usize);
        Some((PinName(name), &binding.net))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.bindings.size_hint()
    }
}

impl ExactSizeIterator for PinIter<'_> {}

/// A pin name, borrowed from its module: a `&str` that dereferences to
/// `str`, prints as itself and has [`PinName::as_str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PinName<'m>(&'m str);

impl<'m> PinName<'m> {
    /// The name.
    pub fn as_str(&self) -> &'m str {
        self.0
    }
}

impl Deref for PinName<'_> {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

impl fmt::Display for PinName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.0)
    }
}

/// A signal net connecting device pins and module ports. A view into its
/// module.
#[derive(Clone, Copy)]
pub struct Net<'m> {
    module: &'m Module,
    index: usize,
}

impl<'m> Net<'m> {
    /// Net name.
    pub fn name(&self) -> &'m str {
        self.module.net_names.get(self.index)
    }

    fn attachments(&self) -> &'m [Attachment] {
        let m = self.module;
        let start = m.net_pin_offsets[self.index] as usize;
        let end = m.net_pin_offsets[self.index + 1] as usize;
        &m.net_pins[start..end]
    }

    /// Device pins attached to the net, as `(device, pin name)` in
    /// attachment order, which is nondecreasing device order.
    pub fn pins(&self) -> impl ExactSizeIterator<Item = (DeviceId, &'m str)> + 'm {
        let symbols = &self.module.symbols;
        self.attachments()
            .iter()
            .map(move |a| (a.device, symbols.get(a.pin as usize)))
    }

    /// The paper's `D` for this net: the number of distinct devices
    /// ("components") connected. A device attached through two pins counts
    /// once, and module ports do not count as components.
    pub fn component_count(&self) -> usize {
        self.distinct_devices().count()
    }

    /// Distinct devices on the net, sorted by id.
    pub fn components(&self) -> Vec<DeviceId> {
        self.distinct_devices().collect()
    }

    /// Writes the distinct devices on the net, sorted by id, into
    /// `scratch` (cleared first). Batch analyses call this once per net
    /// with a reused buffer, so a million-net module performs O(1) heap
    /// allocations for component resolution instead of one per net.
    pub fn components_into(&self, scratch: &mut Vec<DeviceId>) {
        scratch.clear();
        scratch.extend(self.distinct_devices());
    }

    /// The attached devices, each once: the pins come in device order, so
    /// a device's repeats are adjacent.
    fn distinct_devices(&self) -> impl Iterator<Item = DeviceId> + 'm {
        let mut last = None;
        self.attachments()
            .iter()
            .filter(move |a| last.replace(a.device) != Some(a.device))
            .map(|a| a.device)
    }

    /// `true` if the net reaches a module port (it is externally visible).
    pub fn is_external(&self) -> bool {
        self.module.net_ports[self.index] != NO_PORT
    }

    /// The module port on the net, if any: the port of the net's name.
    pub fn port(&self) -> Option<PortId> {
        let port = self.module.net_ports[self.index];
        (port != NO_PORT).then(|| PortId::new(port))
    }
}

impl fmt::Debug for Net<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Net")
            .field("name", &self.name())
            .field("pins", &self.pins().collect::<Vec<_>>())
            .field("port", &self.port())
            .finish()
    }
}

/// A module I/O port, attached to exactly one net: the net of its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Port<'m> {
    name: &'m str,
    direction: PortDirection,
    net: NetId,
}

impl<'m> Port<'m> {
    /// Port name, which is also its net's name.
    pub fn name(&self) -> &'m str {
        self.name
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

/// Why the builder refused a step of the parsers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// The name is taken: a port or device name, or a pin name on one
    /// device.
    Duplicate,
    /// A count, span or offset would not fit in `u32`.
    TooLarge,
}

impl Refusal {
    /// The parse error for the refusal at `line`; `duplicate` words a
    /// [`Refusal::Duplicate`].
    pub(crate) fn at(self, line: usize, duplicate: impl FnOnce() -> String) -> NetlistError {
        match self {
            Refusal::Duplicate => {
                NetlistError::parse(ParseErrorKind::DuplicateName, line, duplicate())
            }
            Refusal::TooLarge => NetlistError::parse(
                ParseErrorKind::Malformed,
                line,
                "module too large: its sizes must fit in 32 bits",
            ),
        }
    }
}

/// A hash index over one [`Names`] arena: open addressing with linear
/// probing, each slot a name's id + 1 (0 marks an empty slot) and its
/// hash. The builder keys names with std's `RandomState` — SipHash under
/// per-process random keys — because names come from daemon clients and
/// an unkeyed hash would let a client send names that all collide. (A
/// std `HashMap` cannot look a `&str` up among arena spans.)
#[derive(Debug, Clone, Default)]
struct NameIndex {
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl NameIndex {
    /// The id of `name` in `names`, or the empty slot where it belongs.
    /// Grows first if one more name would fill half the table, so the
    /// slot stays valid for [`NameIndex::fill`].
    fn find(&mut self, names: &Names, name: &str, hash: u32) -> Result<u32, usize> {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                (0, _) => return Err(i),
                (id, h) if h == hash && names.get(id as usize - 1) == name => return Ok(id - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn fill(&mut self, slot: usize, id: u32, hash: u32) {
        self.slots[slot] = (id + 1, hash);
        self.len += 1;
    }

    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); size]);
        let mask = size - 1;
        for (id, hash) in old.into_iter().filter(|&(id, _)| id != 0) {
            let mut i = hash as usize & mask;
            while self.slots[i].0 != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = (id, hash);
        }
    }
}

/// Incremental constructor for [`Module`].
///
/// Names are checked for uniqueness per kind; pin bindings are recorded
/// once, on the device, and [`ModuleBuilder::finish`] transposes them onto
/// the nets, so either direction of traversal is O(1).
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
    /// The module so far: `pin_offsets` holds each device's start, and
    /// the net attachments are left to `finish`.
    module: Module,
    hasher: RandomState,
    device_index: NameIndex,
    net_index: NameIndex,
    symbol_index: NameIndex,
    /// Per symbol: 1 + the last device that bound it as a pin, or 0. The
    /// duplicate-pin check is one comparison, however wide the device.
    bound_by: Vec<u32>,
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
            module: Module {
                name,
                device_names: Names::default(),
                templates: Vec::new(),
                pin_offsets: Vec::new(),
                pins: Vec::new(),
                net_names: Names::default(),
                net_pin_offsets: Vec::new(),
                net_pins: Vec::new(),
                net_ports: Vec::new(),
                ports: Vec::new(),
                symbols: Names::default(),
                fingerprint: FingerprintCell::default(),
            },
            hasher: RandomState::new(),
            device_index: NameIndex::default(),
            net_index: NameIndex::default(),
            symbol_index: NameIndex::default(),
            bound_by: Vec::new(),
        }
    }

    /// Declares an internal net. Re-declaring an existing name returns the
    /// existing id, which lets textual formats reference nets lazily.
    ///
    /// # Panics
    ///
    /// Panics if the module outgrows 32-bit ids and spans.
    pub fn net(&mut self, name: impl AsRef<str>) -> NetId {
        self.add_net(name.as_ref())
            .unwrap_or_else(|_| self.too_large())
    }

    /// Declares a module port with an implicit net of the same name and
    /// returns that net's id.
    ///
    /// # Panics
    ///
    /// Panics if a port of this name already exists.
    pub fn port(&mut self, name: impl AsRef<str>, direction: PortDirection) -> NetId {
        let name = name.as_ref();
        match self.add_port(name, direction) {
            Ok(net) => net,
            Err(Refusal::Duplicate) => {
                panic!("duplicate port `{name}` in module `{}`", self.module.name)
            }
            Err(Refusal::TooLarge) => self.too_large(),
        }
    }

    /// Instantiates a device with the given template and pin bindings.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate instance name, a duplicate pin name within
    /// the binding list, or a net id from another builder.
    pub fn device<'p, I>(
        &mut self,
        name: impl AsRef<str>,
        template: impl AsRef<str>,
        pins: I,
    ) -> DeviceId
    where
        I: IntoIterator<Item = (&'p str, NetId)>,
    {
        let name = name.as_ref();
        let id = match self.add_device(name) {
            Ok(id) => id,
            Err(Refusal::Duplicate) => {
                panic!("duplicate device `{name}` in module `{}`", self.module.name)
            }
            Err(Refusal::TooLarge) => self.too_large(),
        };
        if self.set_template(template.as_ref()).is_err() {
            self.too_large();
        }
        for (pin, net) in pins {
            assert!(
                net.index() < self.module.net_count(),
                "device `{name}` pin `{pin}` bound to foreign net {net}"
            );
            match self.bind(pin, net) {
                Ok(()) => {}
                Err(Refusal::Duplicate) => panic!("device `{name}` binds pin `{pin}` twice"),
                Err(Refusal::TooLarge) => self.too_large(),
            }
        }
        id
    }

    /// Number of devices added so far.
    pub fn device_count(&self) -> usize {
        self.module.device_count()
    }

    /// Finalizes the module: closes the last device's pin range and
    /// transposes the device pins onto the nets.
    pub fn finish(self) -> Module {
        let mut m = self.module;
        m.pin_offsets.push(offset(m.pins.len()));
        // Count each net's pins, turn the counts into starts, and fill:
        // the fill leaves each start at its net's end, one slot right.
        let nets = m.net_count();
        let mut offsets = vec![0u32; nets + 1];
        for binding in &m.pins {
            offsets[binding.net.index() + 1] += 1;
        }
        for n in 0..nets {
            offsets[n + 1] += offsets[n];
        }
        let unset = Attachment {
            device: DeviceId::new(0),
            pin: 0,
        };
        let mut net_pins = vec![unset; m.pins.len()];
        for (device, range) in (0u32..).zip(m.pin_offsets.windows(2)) {
            for binding in &m.pins[range[0] as usize..range[1] as usize] {
                let next = &mut offsets[binding.net.index()];
                net_pins[*next as usize] = Attachment {
                    device: DeviceId::new(device),
                    pin: binding.pin,
                };
                *next += 1;
            }
        }
        offsets.copy_within(0..nets, 1);
        offsets[0] = 0;
        m.net_pin_offsets = offsets;
        m.net_pins = net_pins;
        m
    }

    /// Panics for a module whose sizes outgrow `u32`.
    fn too_large(&self) -> ! {
        panic!(
            "module `{}` is too large: its sizes must fit in 32 bits",
            self.module.name
        )
    }

    fn hash(&self, name: &str) -> u32 {
        // The low half of the keyed 64-bit hash.
        self.hasher.hash_one(name) as u32
    }

    /// [`ModuleBuilder::net`] for the parsers.
    pub(crate) fn add_net(&mut self, name: &str) -> Result<NetId, Refusal> {
        let hash = self.hash(name);
        let m = &mut self.module;
        match self.net_index.find(&m.net_names, name, hash) {
            Ok(id) => Ok(NetId::new(id)),
            Err(slot) => {
                let id = m.net_names.push(name).ok_or(Refusal::TooLarge)?;
                self.net_index.fill(slot, id, hash);
                m.net_ports.push(NO_PORT);
                Ok(NetId::new(id))
            }
        }
    }

    /// [`ModuleBuilder::port`] for the parsers.
    pub(crate) fn add_port(
        &mut self,
        name: &str,
        direction: PortDirection,
    ) -> Result<NetId, Refusal> {
        let net = self.add_net(name)?;
        let m = &mut self.module;
        if m.net_ports[net.index()] != NO_PORT {
            return Err(Refusal::Duplicate);
        }
        let id = u32::try_from(m.ports.len())
            .ok()
            .filter(|&id| id != NO_PORT)
            .ok_or(Refusal::TooLarge)?;
        m.net_ports[net.index()] = id;
        m.ports.push((direction, net));
        Ok(net)
    }

    /// Opens device `name`, which [`ModuleBuilder::set_template`] and
    /// then [`ModuleBuilder::bind`] complete: the parsers report a
    /// duplicate name before reading the rest of the device. A refused
    /// step leaves the builder unfit to finish.
    pub(crate) fn add_device(&mut self, name: &str) -> Result<DeviceId, Refusal> {
        let hash = self.hash(name);
        let m = &mut self.module;
        let slot = match self.device_index.find(&m.device_names, name, hash) {
            Ok(_) => return Err(Refusal::Duplicate),
            Err(slot) => slot,
        };
        let id = m.device_names.push(name).ok_or(Refusal::TooLarge)?;
        self.device_index.fill(slot, id, hash);
        m.pin_offsets.push(offset(m.pins.len()));
        m.templates.push(0);
        Ok(DeviceId::new(id))
    }

    /// Sets the open device's template.
    pub(crate) fn set_template(&mut self, template: &str) -> Result<(), Refusal> {
        let symbol = self.symbol(template)?;
        *self.module.templates.last_mut().expect("a device is open") = symbol;
        Ok(())
    }

    /// Binds one more pin of the open device.
    pub(crate) fn bind(&mut self, pin: &str, net: NetId) -> Result<(), Refusal> {
        let symbol = self.symbol(pin)?;
        let stamp = offset(self.module.device_count());
        if std::mem::replace(&mut self.bound_by[symbol as usize], stamp) == stamp {
            return Err(Refusal::Duplicate);
        }
        let m = &mut self.module;
        if u32::try_from(m.pins.len() + 1).is_err() {
            return Err(Refusal::TooLarge);
        }
        m.pins.push(Binding { pin: symbol, net });
        Ok(())
    }

    /// The symbol of a template or pin name, interned if new.
    fn symbol(&mut self, name: &str) -> Result<u32, Refusal> {
        let hash = self.hash(name);
        let m = &mut self.module;
        match self.symbol_index.find(&m.symbols, name, hash) {
            Ok(id) => Ok(id),
            Err(slot) => {
                let id = m.symbols.push(name).ok_or(Refusal::TooLarge)?;
                self.symbol_index.fill(slot, id, hash);
                self.bound_by.push(0);
                Ok(id)
            }
        }
    }
}

/// A pin offset or a device id + 1: at most the number of pins or of
/// devices, which the builder keeps within `u32`.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("the builder keeps pin and device counts within u32")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_repeats_are_caught_on_narrow_and_wide_devices() {
        let names: Vec<String> = (0..24).map(|i| format!("P{i}")).collect();
        for width in [1, 2, 8, 9, 24] {
            let mut b = ModuleBuilder::new("m");
            let n = b.net("n");
            b.add_device("u").unwrap();
            b.set_template("BIG").unwrap();
            for (i, name) in names[..width].iter().enumerate() {
                assert_eq!(b.bind(name, n), Ok(()), "{name} is new");
                assert_eq!(
                    b.bind(&names[i / 2], n),
                    Err(Refusal::Duplicate),
                    "{} is a repeat",
                    names[i / 2]
                );
            }
            b.add_device("v").unwrap();
            b.set_template("BIG").unwrap();
            assert_eq!(b.bind(&names[0], n), Ok(()), "a new device starts afresh");
        }
    }

    #[test]
    fn templates_and_pins_share_one_symbol_per_name() {
        let mut b = ModuleBuilder::new("m");
        let n = b.net("n");
        b.device("u1", "NAND2", [("A", n), ("B", n), ("Y", n)]);
        b.device("u2", "NAND2", [("B", n), ("A", n), ("Z", n)]);
        let m = b.finish();
        let pins = |d: u32| -> Vec<String> {
            m.device(DeviceId::new(d))
                .pins()
                .iter()
                .map(|(p, _)| p.to_string())
                .collect()
        };
        assert_eq!(pins(0), ["A", "B", "Y"]);
        assert_eq!(pins(1), ["B", "A", "Z"]);
        assert_eq!(m.symbol_count(), 5, "NAND2, A, B, Y, Z");
    }

    #[test]
    fn name_index_grows_and_finds_every_name() {
        let mut b = ModuleBuilder::new("m");
        let ids: Vec<NetId> = (0..1000).map(|i| b.net(format!("n{i}"))).collect();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(b.net(format!("n{i}")), id, "redeclaring n{i}");
        }
        assert_eq!(b.finish().net_count(), 1000);
    }

    #[test]
    fn nets_list_their_pins_in_device_order() {
        let mut b = ModuleBuilder::new("m");
        let (x, y) = (b.net("x"), b.net("y"));
        b.device("u0", "NAND2", [("Y", y), ("A", x), ("B", x)]);
        b.device("u1", "INV", [("A", y), ("Y", x)]);
        let m = b.finish();
        let pins = |n: NetId| m.net(n).pins().collect::<Vec<_>>();
        let (d0, d1) = (DeviceId::new(0), DeviceId::new(1));
        assert_eq!(pins(x), [(d0, "A"), (d0, "B"), (d1, "Y")]);
        assert_eq!(pins(y), [(d0, "Y"), (d1, "A")]);
        assert_eq!(m.net(x).components(), [d0, d1]);
    }

    #[test]
    fn names_keep_their_spans_apart() {
        let mut names = Names::default();
        for (id, name) in (0..).zip(["ab", "", "c", "ab"]) {
            assert_eq!(names.push(name), Some(id));
        }
        assert_eq!(names.iter().collect::<Vec<_>>(), ["ab", "", "c", "ab"]);
        assert_eq!((names.get(1), names.get(2)), ("", "c"));
        assert_eq!(names.position("ab"), Some(0), "the first of equal names");
        assert_eq!(names.position("b"), None);
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
