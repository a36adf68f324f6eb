//! Structural netlist validation against a technology.

use maestro_tech::ProcessDb;

use crate::{LayoutStyle, Module, NetlistError};

/// A non-fatal observation from [`check`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Warning {
    /// A net has no attached device (it occupies no routing resources).
    FloatingNet {
        /// Net name.
        net: String,
    },
    /// A device has no pin bindings.
    UnconnectedDevice {
        /// Device instance name.
        device: String,
    },
    /// A port's net reaches no device.
    DanglingPort {
        /// Port name.
        port: String,
    },
}

impl std::fmt::Display for Warning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Warning::FloatingNet { net } => write!(f, "net `{net}` connects no device"),
            Warning::UnconnectedDevice { device } => {
                write!(f, "device `{device}` has no connections")
            }
            Warning::DanglingPort { port } => write!(f, "port `{port}` reaches no device"),
        }
    }
}

/// Validates `module` against `tech` for the given layout style.
///
/// Hard failures (unknown templates, pins absent from the cell template)
/// are errors; structural oddities that the estimator tolerates are
/// returned as [`Warning`]s.
///
/// # Errors
///
/// Returns [`NetlistError::UnknownTemplate`] for a template missing from
/// the style's table, or [`NetlistError::Invalid`] for a standard-cell pin
/// binding that names a pin the cell template lacks.
///
/// # Examples
///
/// ```
/// use maestro_netlist::{validate, LayoutStyle, ModuleBuilder, PortDirection};
/// use maestro_tech::builtin;
///
/// let mut b = ModuleBuilder::new("ok");
/// let a = b.port("a", PortDirection::Input);
/// let y = b.port("y", PortDirection::Output);
/// b.device("u1", "INV", [("A", a), ("Y", y)]);
/// let warnings = validate::check(&b.finish(), &builtin::nmos25(), LayoutStyle::StandardCell)?;
/// assert!(warnings.is_empty());
/// # Ok::<(), maestro_netlist::NetlistError>(())
/// ```
pub fn check(
    module: &Module,
    tech: &ProcessDb,
    style: LayoutStyle,
) -> Result<Vec<Warning>, NetlistError> {
    let mut warnings = Vec::new();

    for (_, dev) in module.devices() {
        match style {
            LayoutStyle::StandardCell => {
                let cell = tech.cell_library().cell(dev.template()).ok_or_else(|| {
                    NetlistError::UnknownTemplate {
                        device: dev.name().to_owned(),
                        template: dev.template().to_owned(),
                    }
                })?;
                for (pin, _) in dev.pins() {
                    // SPICE-derived positional pins (p1, p2, …) are allowed.
                    if !pin.starts_with('p') && cell.pin(&pin).is_none() {
                        return Err(NetlistError::invalid(format!(
                            "device `{}`: cell `{}` has no pin `{pin}`",
                            dev.name(),
                            cell.name()
                        )));
                    }
                }
            }
            LayoutStyle::FullCustom => {
                if tech.device(dev.template()).is_none() {
                    return Err(NetlistError::UnknownTemplate {
                        device: dev.name().to_owned(),
                        template: dev.template().to_owned(),
                    });
                }
            }
        }
        if dev.pins().is_empty() {
            warnings.push(Warning::UnconnectedDevice {
                device: dev.name().to_owned(),
            });
        }
    }

    for (_, net) in module.nets() {
        if net.component_count() == 0 {
            warnings.push(Warning::FloatingNet {
                net: net.name().to_owned(),
            });
        }
    }

    for (_, port) in module.ports() {
        if module.net(port.net()).component_count() == 0 {
            warnings.push(Warning::DanglingPort {
                port: port.name().to_owned(),
            });
        }
    }

    Ok(warnings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModuleBuilder, PortDirection};
    use maestro_tech::builtin;

    #[test]
    fn clean_module_has_no_warnings() {
        let mut b = ModuleBuilder::new("ok");
        let a = b.port("a", PortDirection::Input);
        let y = b.port("y", PortDirection::Output);
        b.device("u1", "INV", [("A", a), ("Y", y)]);
        let w = check(&b.finish(), &builtin::nmos25(), LayoutStyle::StandardCell).unwrap();
        assert!(w.is_empty());
    }

    #[test]
    fn unknown_cell_is_an_error() {
        let mut b = ModuleBuilder::new("bad");
        let n = b.net("n");
        b.device("u1", "WIDGET", [("A", n)]);
        let err = check(&b.finish(), &builtin::nmos25(), LayoutStyle::StandardCell).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownTemplate { .. }));
    }

    #[test]
    fn unknown_pin_is_an_error() {
        let mut b = ModuleBuilder::new("bad");
        let n = b.net("n");
        b.device("u1", "INV", [("Q", n)]);
        let err = check(&b.finish(), &builtin::nmos25(), LayoutStyle::StandardCell).unwrap_err();
        assert!(matches!(err, NetlistError::Invalid { .. }));
    }

    #[test]
    fn floating_net_and_dangling_port_warn() {
        let mut b = ModuleBuilder::new("warny");
        b.net("floating");
        b.port("unused", PortDirection::Input);
        let n = b.net("n");
        b.device("u1", "INV", [("A", n)]);
        let w = check(&b.finish(), &builtin::nmos25(), LayoutStyle::StandardCell).unwrap();
        assert!(w.iter().any(|x| matches!(x, Warning::FloatingNet { .. })));
        assert!(w.iter().any(|x| matches!(x, Warning::DanglingPort { .. })));
    }

    #[test]
    fn unconnected_device_warns() {
        let mut b = ModuleBuilder::new("warny");
        b.device("u1", "INV", []);
        let w = check(&b.finish(), &builtin::nmos25(), LayoutStyle::StandardCell).unwrap();
        assert!(w
            .iter()
            .any(|x| matches!(x, Warning::UnconnectedDevice { .. })));
    }

    #[test]
    fn full_custom_checks_device_table() {
        let mut b = ModuleBuilder::new("fc");
        let n = b.net("n");
        b.device("q1", "pd", [("g", n)]);
        assert!(check(&b.finish(), &builtin::nmos25(), LayoutStyle::FullCustom).is_ok());
        let mut b = ModuleBuilder::new("fc2");
        let n = b.net("n");
        b.device("q1", "INV", [("A", n)]); // a cell, not a transistor
        let err = check(&b.finish(), &builtin::nmos25(), LayoutStyle::FullCustom).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownTemplate { .. }));
    }

    #[test]
    fn warnings_display() {
        let w = Warning::FloatingNet {
            net: "x".to_owned(),
        };
        assert_eq!(w.to_string(), "net `x` connects no device");
    }
}
