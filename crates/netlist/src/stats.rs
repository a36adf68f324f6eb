//! The "mathematical representation for numerical analysis" (§3): the
//! aggregate statistics the paper's equations consume.

use std::collections::BTreeMap;
use std::fmt;

use maestro_geom::{Lambda, LambdaArea};
use maestro_tech::ProcessDb;
use serde::{Deserialize, Serialize};

use crate::{DeviceId, Module, NetId, NetlistError};

/// Which layout methodology the statistics are resolved for.
///
/// Device widths come from different template tables: the standard-cell
/// library for [`LayoutStyle::StandardCell`], the transistor device
/// templates for [`LayoutStyle::FullCustom`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LayoutStyle {
    /// Rows of equal-height cells with routing channels between rows.
    StandardCell,
    /// Arbitrary device shapes and placements.
    FullCustom,
}

impl fmt::Display for LayoutStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LayoutStyle::StandardCell => "standard-cell",
            LayoutStyle::FullCustom => "full-custom",
        };
        f.write_str(s)
    }
}

/// The paper's `Wi`/`Xi` histogram: device count per distinct width.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WidthHistogram {
    bins: BTreeMap<Lambda, usize>,
}

impl WidthHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        WidthHistogram::default()
    }

    /// Records one device of the given width.
    pub fn add(&mut self, width: Lambda) {
        self.add_many(width, 1);
    }

    /// Records `count` devices of the given width at once. Generated
    /// module families repeat a handful of cell widths millions of times;
    /// bulk insertion keeps their histogram construction O(distinct
    /// widths) instead of O(devices).
    pub fn add_many(&mut self, width: Lambda, count: usize) {
        if count == 0 {
            return;
        }
        *self.bins.entry(width).or_insert(0) += count;
    }

    /// `(Wi, Xi)` pairs in increasing width order.
    pub fn iter(&self) -> impl Iterator<Item = (Lambda, usize)> + '_ {
        self.bins.iter().map(|(&w, &x)| (w, x))
    }

    /// Number of distinct widths (the paper's `k`).
    pub fn distinct_count(&self) -> usize {
        self.bins.len()
    }

    /// Total number of devices recorded.
    pub fn total_count(&self) -> usize {
        self.bins.values().sum()
    }

    /// The paper's Eq. 1: `W_av = Σ Xi·Wi / N`, in fractional λ.
    ///
    /// Returns 0.0 for an empty histogram.
    pub fn average(&self) -> f64 {
        let n = self.total_count();
        if n == 0 {
            return 0.0;
        }
        self.widened_sum() as f64 / n as f64
    }

    /// Sum of all recorded widths, saturating at [`i64::MAX`] λ when the
    /// widened accumulator exceeds what `Lambda` can carry.
    pub fn total(&self) -> Lambda {
        Lambda::new(i64::try_from(self.widened_sum()).unwrap_or(i64::MAX))
    }

    /// `Σ Xi·Wi` in an i128 accumulator: a million-device histogram of
    /// wide cells overflows i64 (2^40 λ × 2^25 devices already wraps),
    /// and a silently negative area poisons every estimate built on it.
    fn widened_sum(&self) -> i128 {
        self.bins
            .iter()
            .map(|(w, &x)| w.get() as i128 * x as i128)
            .sum()
    }
}

/// The paper's `yi` histogram: number of nets per component count `D`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetSizeHistogram {
    bins: BTreeMap<usize, usize>,
}

impl NetSizeHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        NetSizeHistogram::default()
    }

    /// Records one net with `components` attached devices.
    pub fn add(&mut self, components: usize) {
        *self.bins.entry(components).or_insert(0) += 1;
    }

    /// `(D, y_D)` pairs in increasing `D` order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.bins.iter().map(|(&d, &y)| (d, y))
    }

    /// Total number of nets recorded.
    pub fn net_count(&self) -> usize {
        self.bins.values().sum()
    }

    /// The largest component count, or 0 when empty.
    pub fn max_components(&self) -> usize {
        self.bins.keys().next_back().copied().unwrap_or(0)
    }
}

/// Per-net wiring inputs for the full-custom exact-area variant of Eq. 13.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetWireStat {
    /// The net.
    pub net: NetId,
    /// The paper's `D`: distinct devices attached.
    pub components: usize,
    /// Sum of the attached devices' widths (each device once).
    pub total_component_width: Lambda,
}

/// Aggregate netlist statistics against a concrete technology: everything
/// the paper's Eqs. 1–14 consume.
///
/// # Examples
///
/// ```
/// use maestro_netlist::{LayoutStyle, ModuleBuilder, NetlistStats, PortDirection};
/// use maestro_tech::builtin;
///
/// let mut b = ModuleBuilder::new("pair");
/// let a = b.port("a", PortDirection::Input);
/// let y = b.port("y", PortDirection::Output);
/// b.device("u1", "INV", [("A", a), ("Y", y)]);
/// b.device("u2", "NAND2", [("A", a), ("B", y), ("Y", a)]);
/// let m = b.finish();
/// let stats = NetlistStats::resolve(&m, &builtin::nmos25(), LayoutStyle::StandardCell)?;
/// assert_eq!(stats.device_count(), 2);
/// assert_eq!(stats.widths().distinct_count(), 2);
/// # Ok::<(), maestro_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetlistStats {
    module_name: String,
    style: LayoutStyle,
    device_count: usize,
    net_count: usize,
    port_count: usize,
    widths: WidthHistogram,
    heights: WidthHistogram,
    net_sizes: NetSizeHistogram,
    total_device_area: LambdaArea,
    net_wires: Vec<NetWireStat>,
}

impl NetlistStats {
    /// Scans `module` against `tech`, resolving every device template in
    /// the table appropriate to `style`.
    ///
    /// Nets with no attached device (e.g. an unused port net) are excluded
    /// from the `yi` histogram and from `H`, since they occupy no routing
    /// resources.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownTemplate`] if a device's template is
    /// absent from the technology table for the chosen style.
    pub fn resolve(
        module: &Module,
        tech: &ProcessDb,
        style: LayoutStyle,
    ) -> Result<Self, NetlistError> {
        let mut widths = WidthHistogram::new();
        let mut heights = WidthHistogram::new();
        let mut total_device_area = LambdaArea::ZERO;
        // Per-device resolved width, for per-net totals.
        let mut device_widths: Vec<Lambda> = Vec::with_capacity(module.device_count());
        // Each template is looked up once, at its first device: the
        // module interns templates as symbols.
        let mut sizes: Vec<Option<(Lambda, Lambda)>> = vec![None; module.symbol_count()];

        for ((_, dev), &symbol) in module.devices().zip(module.template_symbols()) {
            let size = &mut sizes[symbol as usize];
            let (w, h) = match *size {
                Some(known) => known,
                None => {
                    let found = match style {
                        LayoutStyle::StandardCell => tech
                            .cell_library()
                            .cell(dev.template())
                            .map(|cell| (cell.width(), cell.height())),
                        LayoutStyle::FullCustom => {
                            tech.device(dev.template()).map(|d| (d.width(), d.height()))
                        }
                    };
                    *size.insert(found.ok_or_else(|| NetlistError::UnknownTemplate {
                        device: dev.name().to_owned(),
                        template: dev.template().to_owned(),
                    })?)
                }
            };
            widths.add(w);
            heights.add(h);
            total_device_area += w * h;
            device_widths.push(w);
        }

        let mut net_sizes = NetSizeHistogram::new();
        let mut net_wires = Vec::with_capacity(module.net_count());
        // One scratch buffer reused across every net: the traced batch
        // profiles convicted the per-net `Net::components()` Vec as the
        // dominant allocation at 10^5+ devices, so component resolution
        // runs flat — O(1) allocations for the whole module.
        let mut comps: Vec<DeviceId> = Vec::new();
        for (id, net) in module.nets() {
            net.components_into(&mut comps);
            if comps.is_empty() {
                continue;
            }
            net_sizes.add(comps.len());
            let total_component_width = comps
                .iter()
                .map(|d| device_widths[d.index()])
                .sum::<Lambda>();
            net_wires.push(NetWireStat {
                net: id,
                components: comps.len(),
                total_component_width,
            });
        }

        Ok(NetlistStats {
            module_name: module.name().to_owned(),
            style,
            device_count: module.device_count(),
            net_count: net_sizes.net_count(),
            port_count: module.port_count(),
            widths,
            heights,
            net_sizes,
            total_device_area,
            net_wires,
        })
    }

    /// Name of the analyzed module.
    pub fn module_name(&self) -> &str {
        &self.module_name
    }

    /// The layout style the widths were resolved for.
    pub fn style(&self) -> LayoutStyle {
        self.style
    }

    /// The paper's `N`.
    pub fn device_count(&self) -> usize {
        self.device_count
    }

    /// The paper's `H` (nets with at least one component).
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// Number of module I/O ports.
    pub fn port_count(&self) -> usize {
        self.port_count
    }

    /// The `Wi`/`Xi` width histogram.
    pub fn widths(&self) -> &WidthHistogram {
        &self.widths
    }

    /// Device-height histogram (used for the full-custom `h_av`).
    pub fn heights(&self) -> &WidthHistogram {
        &self.heights
    }

    /// The `yi` net-size histogram.
    pub fn net_sizes(&self) -> &NetSizeHistogram {
        &self.net_sizes
    }

    /// Σ (device width × height): the active-cell area of Eq. 12/13.
    pub fn total_device_area(&self) -> LambdaArea {
        self.total_device_area
    }

    /// Eq. 1's `W_av` in fractional λ.
    pub fn average_width(&self) -> f64 {
        self.widths.average()
    }

    /// Average device height `h_av` in fractional λ.
    pub fn average_height(&self) -> f64 {
        self.heights.average()
    }

    /// Per-net wiring inputs (full-custom exact variant).
    pub fn net_wires(&self) -> &[NetWireStat] {
        &self.net_wires
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}]: N={} H={} ports={} W_av={:.2}λ",
            self.module_name,
            self.style,
            self.device_count,
            self.net_count,
            self.port_count,
            self.average_width()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModuleBuilder, PortDirection};
    use maestro_tech::builtin;

    fn sample_module() -> Module {
        // Two INVs (14λ) and one NAND2 (18λ) on nMOS standard cells.
        let mut b = ModuleBuilder::new("sample");
        let a = b.port("a", PortDirection::Input);
        let y = b.port("y", PortDirection::Output);
        let t1 = b.net("t1");
        let t2 = b.net("t2");
        b.device("u1", "INV", [("A", a), ("Y", t1)]);
        b.device("u2", "INV", [("A", t1), ("Y", t2)]);
        b.device("u3", "NAND2", [("A", t1), ("B", t2), ("Y", y)]);
        b.finish()
    }

    #[test]
    fn width_histogram_average_matches_eq1() {
        let mut h = WidthHistogram::new();
        h.add(Lambda::new(14));
        h.add(Lambda::new(14));
        h.add(Lambda::new(18));
        assert_eq!(h.distinct_count(), 2);
        assert_eq!(h.total_count(), 3);
        assert!((h.average() - (14.0 * 2.0 + 18.0) / 3.0).abs() < 1e-12);
        assert_eq!(h.total(), Lambda::new(46));
    }

    #[test]
    fn width_histogram_accumulates_beyond_i64_without_wrapping() {
        // 2^40 λ × 2^25 devices = 2^65 λ — the old i64 accumulator wrapped
        // this to a negative sum, so average() went negative and total()
        // was garbage. The widened accumulator must stay exact for the
        // average and saturate (not wrap) for the Lambda total.
        let mut h = WidthHistogram::new();
        h.add_many(Lambda::new(1 << 40), 1 << 25);
        let expected = (1u128 << 65) as f64 / (1u128 << 25) as f64;
        assert!(h.average() > 0.0, "average must not wrap negative");
        assert!((h.average() - expected).abs() < 1e-3);
        assert_eq!(h.total(), Lambda::new(i64::MAX), "total saturates");

        // A sum that fits i64 but whose per-bin products also fit —
        // add_many agrees with repeated add().
        let mut bulk = WidthHistogram::new();
        bulk.add_many(Lambda::new(14), 3);
        let mut one = WidthHistogram::new();
        for _ in 0..3 {
            one.add(Lambda::new(14));
        }
        assert_eq!(bulk, one);
        assert_eq!(bulk.total(), Lambda::new(42));
    }

    #[test]
    fn net_size_histogram() {
        let mut h = NetSizeHistogram::new();
        h.add(2);
        h.add(2);
        h.add(5);
        assert_eq!(h.net_count(), 3);
        assert_eq!(h.max_components(), 5);
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, [(2, 2), (5, 1)]);
    }

    #[test]
    fn resolve_standard_cell_stats() {
        let m = sample_module();
        let tech = builtin::nmos25();
        let s = NetlistStats::resolve(&m, &tech, LayoutStyle::StandardCell).expect("resolves");
        assert_eq!(s.device_count(), 3);
        assert_eq!(s.port_count(), 2);
        // Nets: a (1 comp), y (1 comp), t1 (3 comps), t2 (2 comps) -> H=4.
        assert_eq!(s.net_count(), 4);
        let sizes: Vec<_> = s.net_sizes().iter().collect();
        assert_eq!(sizes, [(1, 2), (2, 1), (3, 1)]);
        // W_av = (14 + 14 + 18) / 3.
        assert!((s.average_width() - 46.0 / 3.0).abs() < 1e-12);
        // Active area = (14 + 14 + 18) * 40.
        assert_eq!(s.total_device_area(), LambdaArea::new(46 * 40));
    }

    #[test]
    fn resolve_full_custom_stats() {
        let tech = builtin::nmos25();
        let mut b = ModuleBuilder::new("gate");
        let n1 = b.net("n1");
        let n2 = b.net("n2");
        b.device("q1", "pd", [("d", n1), ("g", n2)]);
        b.device("q2", "pu", [("s", n1)]);
        let m = b.finish();
        let s = NetlistStats::resolve(&m, &tech, LayoutStyle::FullCustom).expect("resolves");
        assert_eq!(s.device_count(), 2);
        assert_eq!(s.net_count(), 2);
        let pd = tech.require_device("pd").unwrap();
        let pu = tech.require_device("pu").unwrap();
        assert_eq!(s.total_device_area(), pd.area() + pu.area());
        // n1 connects both devices.
        let n1_stat = s
            .net_wires()
            .iter()
            .find(|w| w.components == 2)
            .expect("n1 has two components");
        assert_eq!(n1_stat.total_component_width, pd.width() + pu.width());
    }

    #[test]
    fn unknown_template_is_reported() {
        let mut b = ModuleBuilder::new("bad");
        let n = b.net("n");
        b.device("u1", "FROB", [("A", n)]);
        let m = b.finish();
        let err =
            NetlistStats::resolve(&m, &builtin::nmos25(), LayoutStyle::StandardCell).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownTemplate { .. }));
    }

    #[test]
    fn empty_nets_are_excluded_from_h() {
        let mut b = ModuleBuilder::new("m");
        b.net("floating");
        let n = b.net("used");
        b.device("u1", "INV", [("A", n)]);
        let m = b.finish();
        let s = NetlistStats::resolve(&m, &builtin::nmos25(), LayoutStyle::StandardCell).unwrap();
        assert_eq!(s.net_count(), 1);
    }

    #[test]
    fn display_mentions_module_and_counts() {
        let m = sample_module();
        let s = NetlistStats::resolve(&m, &builtin::nmos25(), LayoutStyle::StandardCell).unwrap();
        let txt = s.to_string();
        assert!(txt.contains("sample") && txt.contains("N=3"));
    }
}
