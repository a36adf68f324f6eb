//! Property-based tests for the netlist substrate: format round-trips,
//! generator invariants and statistics consistency.

use maestro_netlist::generate::{self, RandomLogicConfig};
use maestro_netlist::{
    diff, expand, mnl, spice, LayoutStyle, Module, ModuleBuilder, NetId, NetlistStats,
    RevisionManifest,
};
use maestro_tech::builtin;
use proptest::prelude::*;

/// Rebuilds `module` with exactly one device-level mutation applied:
/// 0 = add a device, 1 = drop a device, 2 = rewire one pin to the next
/// net, 3 = retemplate a device, 4 = rename a device.
fn mutate_one(module: &Module, kind: u8) -> Module {
    let mut b = ModuleBuilder::new(module.name());
    let mut mapped: Vec<Option<NetId>> = vec![None; module.net_count()];
    for (_, port) in module.ports() {
        mapped[port.net().index()] = Some(b.port(port.name(), port.direction()));
    }
    for (old, net) in module.nets() {
        if mapped[old.index()].is_none() {
            mapped[old.index()] = Some(b.net(net.name()));
        }
    }
    let m = |id: NetId| mapped[id.index()].expect("net mapped");
    let nets_in_order: Vec<NetId> = module.nets().map(|(old, _)| m(old)).collect();
    let target = module.device_count() / 2;
    for (id, dev) in module.devices() {
        let plain = dev.pins().iter().map(|(p, n)| (p.as_str(), m(*n)));
        if id.index() != target {
            b.device(dev.name(), dev.template(), plain);
            continue;
        }
        match kind {
            0 => {
                b.device(dev.name(), dev.template(), plain);
            }
            1 => {} // drop: re-add nothing
            2 => {
                let pins: Vec<(String, NetId)> = dev
                    .pins()
                    .iter()
                    .enumerate()
                    .map(|(pi, (p, n))| {
                        let net = if pi == 0 {
                            nets_in_order[(n.index() + 1) % nets_in_order.len()]
                        } else {
                            m(*n)
                        };
                        (p.to_string(), net)
                    })
                    .collect();
                b.device(
                    dev.name(),
                    dev.template(),
                    pins.iter().map(|(p, n)| (p.as_str(), *n)),
                );
            }
            3 => {
                b.device(dev.name(), format!("{}_ALT", dev.template()), plain);
            }
            _ => {
                b.device(format!("{}_renamed", dev.name()), dev.template(), plain);
            }
        }
    }
    if kind == 0 {
        b.device("zz_eco_added", "INV", [("A", nets_in_order[0])]);
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mnl_round_trip_reaches_a_fixed_point(seed in 0u64..500, devices in 3usize..50) {
        // Net ids may be renumbered by the writer's ports-then-internals
        // ordering, so the invariant is: one round trip is a *textual*
        // fixed point, and every estimator-relevant statistic survives.
        let cfg = RandomLogicConfig { device_count: devices, ..Default::default() };
        let module = generate::random_logic(seed, &cfg);
        let text = mnl::to_mnl(&module);
        let back = mnl::parse(&text).expect("round-trip parses");
        prop_assert_eq!(&text, &mnl::to_mnl(&back), "writer not a fixed point");

        let tech = builtin::nmos25();
        let s1 = NetlistStats::resolve(&module, &tech, LayoutStyle::StandardCell).unwrap();
        let s2 = NetlistStats::resolve(&back, &tech, LayoutStyle::StandardCell).unwrap();
        prop_assert_eq!(s1.device_count(), s2.device_count());
        prop_assert_eq!(s1.net_count(), s2.net_count());
        prop_assert_eq!(s1.port_count(), s2.port_count());
        prop_assert_eq!(s1.total_device_area(), s2.total_device_area());
        let h1: Vec<_> = s1.net_sizes().iter().collect();
        let h2: Vec<_> = s2.net_sizes().iter().collect();
        prop_assert_eq!(h1, h2);
    }

    #[test]
    fn spice_round_trip_preserves_connectivity(seed in 0u64..200, gates in 2usize..20) {
        let module = generate::random_nmos_logic(seed, gates);
        let deck = spice::to_spice(&module);
        let back = spice::parse(&deck).expect("round-trip parses");
        prop_assert_eq!(back.device_count(), module.device_count());
        prop_assert_eq!(back.port_count(), module.port_count());
        // Per-net component counts survive.
        for (_, net) in module.nets() {
            if net.component_count() == 0 {
                continue;
            }
            let n2 = back.find_net(net.name());
            prop_assert!(n2.is_some(), "net {} lost", net.name());
            prop_assert_eq!(
                back.net(n2.unwrap()).component_count(),
                net.component_count(),
                "net {}", net.name()
            );
        }
    }

    #[test]
    fn stats_are_consistent_with_module(seed in 0u64..300, devices in 3usize..60) {
        let cfg = RandomLogicConfig { device_count: devices, ..Default::default() };
        let module = generate::random_logic(seed, &cfg);
        let tech = builtin::nmos25();
        let stats = NetlistStats::resolve(&module, &tech, LayoutStyle::StandardCell).unwrap();
        prop_assert_eq!(stats.device_count(), module.device_count());
        prop_assert_eq!(stats.port_count(), module.port_count());
        // H counts exactly the nets with components.
        let connected = module.nets().filter(|(_, n)| n.component_count() > 0).count();
        prop_assert_eq!(stats.net_count(), connected);
        // Width histogram covers every device.
        prop_assert_eq!(stats.widths().total_count(), module.device_count());
        // Eq. 1 is a convex combination of observed widths.
        let widths: Vec<f64> = stats.widths().iter().map(|(w, _)| w.as_f64()).collect();
        let wav = stats.average_width();
        let lo = widths.iter().cloned().fold(f64::MAX, f64::min);
        let hi = widths.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(wav >= lo - 1e-9 && wav <= hi + 1e-9);
    }

    #[test]
    fn expansion_multiplies_devices_and_keeps_ports(seed in 0u64..200, devices in 3usize..30) {
        let cfg = RandomLogicConfig { device_count: devices, ..Default::default() };
        let module = generate::random_logic(seed, &cfg);
        let xt = expand::to_nmos_transistors(&module).expect("expands");
        prop_assert!(xt.device_count() >= module.device_count());
        prop_assert_eq!(xt.port_count(), module.port_count());
        // Expanded module resolves against the transistor table.
        let tech = builtin::nmos25();
        let stats = NetlistStats::resolve(&xt, &tech, LayoutStyle::FullCustom).unwrap();
        prop_assert!(stats.total_device_area().get() > 0);
    }

    #[test]
    fn single_module_mutations_land_exactly_in_modified(
        which in 0usize..5,
        kind in 0u8..5,
        seed in 0u64..100,
    ) {
        let cfg = RandomLogicConfig { device_count: 12, ..Default::default() };
        let suite: Vec<Module> = (0..5u64)
            .map(|i| generate::random_logic(seed * 5 + i, &cfg).renamed(format!("blk{i}")))
            .collect();
        let prev = RevisionManifest::from_modules(&suite);

        let mut next_mods = suite.clone();
        next_mods[which] = mutate_one(&suite[which], kind);
        let next = RevisionManifest::from_modules(&next_mods);

        let d = diff(&prev, &next);
        let name = suite[which].name().to_string();
        prop_assert_eq!(d.modified, vec![name.clone()], "kind {}", kind);
        prop_assert!(d.added.is_empty() && d.removed.is_empty());
        prop_assert_eq!(d.unchanged.len(), suite.len() - 1);
        prop_assert!(!d.unchanged.contains(&name));
        // Nothing in `unchanged` changed identity across the revisions.
        for n in &d.unchanged {
            prop_assert_eq!(prev.fingerprint(n), next.fingerprint(n));
        }
    }

    #[test]
    fn generated_modules_validate_cleanly(seed in 0u64..200, devices in 3usize..40) {
        let cfg = RandomLogicConfig { device_count: devices, ..Default::default() };
        let module = generate::random_logic(seed, &cfg);
        let warnings = maestro_netlist::validate::check(
            &module,
            &builtin::nmos25(),
            LayoutStyle::StandardCell,
        )
        .expect("validates");
        prop_assert!(warnings.is_empty(), "{warnings:?}");
    }
}
