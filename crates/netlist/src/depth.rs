//! Combinational logic-depth analysis.
//!
//! §4.2 lists "minimum length critical path" among the full-custom layout
//! standards a designer optimizes for; before layout exists, the
//! structural proxy for the critical path is the **logic depth** — the
//! longest combinational gate chain from any primary input or register
//! output to any primary output or register input. This module computes
//! it for gate-level netlists.
//!
//! Sequential cells (`DFF`, `DLATCH`) break paths: their outputs start
//! new paths at depth 0 and their data inputs terminate paths. A
//! combinational cycle (illegal in synchronous design) is reported as an
//! error rather than looping forever.

use std::collections::BTreeMap;

use crate::{DeviceId, Module, NetId, NetlistError};

/// Cell templates treated as sequential (path-breaking).
pub const SEQUENTIAL_CELLS: [&str; 2] = ["DFF", "DLATCH"];

/// Pin names treated as cell outputs.
fn is_output_pin(pin: &str) -> bool {
    matches!(pin, "Y" | "Q" | "QN")
}

fn is_sequential(template: &str) -> bool {
    SEQUENTIAL_CELLS.contains(&template)
}

/// The result of a depth analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepthReport {
    /// Longest combinational chain, in gate stages.
    pub depth: u32,
    /// The devices along one longest path, source to sink.
    pub critical_path: Vec<DeviceId>,
}

/// Computes the combinational logic depth of a gate-level module.
///
/// # Errors
///
/// Returns [`NetlistError::Invalid`] when the combinational graph is
/// cyclic (a feedback loop without a sequential element).
///
/// # Examples
///
/// ```
/// use maestro_netlist::{depth, generate};
///
/// // A 4-bit ripple adder: the carry chain dominates.
/// let report = depth::logic_depth(&generate::ripple_adder(4))?;
/// assert!(report.depth >= 7, "carry chain depth {}", report.depth);
/// # Ok::<(), maestro_netlist::NetlistError>(())
/// ```
pub fn logic_depth(module: &Module) -> Result<DepthReport, NetlistError> {
    // Combinational dependency graph: edge from driver device to reader
    // device over each net, skipping sequential devices' contribution as
    // *sources* (they start at depth 0 anyway) and as *sinks* (their
    // inputs terminate paths).
    let n = module.device_count();
    if n == 0 {
        return Ok(DepthReport {
            depth: 0,
            critical_path: Vec::new(),
        });
    }
    // For each net: driving devices (output pins) and reading devices.
    let mut drivers: BTreeMap<NetId, Vec<usize>> = BTreeMap::new();
    let mut readers: BTreeMap<NetId, Vec<usize>> = BTreeMap::new();
    for (id, dev) in module.devices() {
        for (pin, net) in dev.pins() {
            if is_output_pin(&pin) {
                drivers.entry(*net).or_default().push(id.index());
            } else {
                readers.entry(*net).or_default().push(id.index());
            }
        }
    }
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pred_count = vec![0usize; n];
    for (net, drvs) in &drivers {
        let Some(rdrs) = readers.get(net) else {
            continue;
        };
        for &d in drvs {
            if is_sequential(module.device(DeviceId::new(d as u32)).template()) {
                // Register outputs start fresh paths; no edge needed —
                // the reader's depth simply starts at 1 via depth init.
                continue;
            }
            for &r in rdrs {
                if d == r {
                    continue;
                }
                succs[d].push(r);
                pred_count[r] += 1;
            }
        }
    }

    // Longest path by topological order (Kahn). Combinational devices
    // start at depth 1 (they are one stage themselves).
    let mut depth = vec![1u32; n];
    let mut best_pred: Vec<Option<usize>> = vec![None; n];
    let mut queue: Vec<usize> = (0..n).filter(|&i| pred_count[i] == 0).collect();
    let mut visited = 0usize;
    while let Some(u) = queue.pop() {
        visited += 1;
        let u_seq = is_sequential(module.device(DeviceId::new(u as u32)).template());
        for &v in &succs[u] {
            let candidate = if u_seq { 1 } else { depth[u] + 1 };
            let v_seq = is_sequential(module.device(DeviceId::new(v as u32)).template());
            // Paths *into* sequential sinks count the stages before them.
            let candidate = if v_seq {
                candidate.saturating_sub(1).max(1)
            } else {
                candidate
            };
            if candidate > depth[v] {
                depth[v] = candidate;
                best_pred[v] = Some(u);
            }
            pred_count[v] -= 1;
            if pred_count[v] == 0 {
                queue.push(v);
            }
        }
    }
    if visited < n {
        return Err(NetlistError::invalid(
            "combinational cycle detected (no sequential element on a feedback loop)",
        ));
    }

    let (end, &d) = depth
        .iter()
        .enumerate()
        .max_by_key(|&(_, d)| *d)
        .unwrap_or((0, &0));
    let mut path = Vec::new();
    let mut cur = Some(end);
    while let Some(i) = cur {
        path.push(DeviceId::new(i as u32));
        cur = best_pred[i];
    }
    path.reverse();
    Ok(DepthReport {
        depth: if n == 0 { 0 } else { d },
        critical_path: path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, ModuleBuilder, PortDirection};

    #[test]
    fn inverter_chain_depth_equals_length() {
        let mut b = ModuleBuilder::new("chain");
        let a = b.port("a", PortDirection::Input);
        let y = b.port("y", PortDirection::Output);
        let mut prev = a;
        for i in 0..5 {
            let out = if i == 4 { y } else { b.net(format!("n{i}")) };
            b.device(format!("u{i}"), "INV", [("A", prev), ("Y", out)]);
            prev = out;
        }
        let report = logic_depth(&b.finish()).expect("acyclic");
        assert_eq!(report.depth, 5);
        assert_eq!(report.critical_path.len(), 5);
    }

    #[test]
    fn parallel_gates_have_depth_one() {
        let mut b = ModuleBuilder::new("par");
        let a = b.port("a", PortDirection::Input);
        for i in 0..4 {
            let y = b.port(format!("y{i}"), PortDirection::Output);
            b.device(format!("u{i}"), "INV", [("A", a), ("Y", y)]);
        }
        assert_eq!(logic_depth(&b.finish()).unwrap().depth, 1);
    }

    #[test]
    fn ripple_adder_depth_tracks_carry_chain() {
        let d2 = logic_depth(&generate::ripple_adder(2)).unwrap().depth;
        let d6 = logic_depth(&generate::ripple_adder(6)).unwrap().depth;
        assert!(d6 > d2, "carry chain grows: {d2} vs {d6}");
        // 2 stages per bit on the carry path, roughly.
        assert!(d6 >= 10, "6-bit adder depth {d6}");
    }

    #[test]
    fn registers_break_paths() {
        // INV -> DFF -> INV: both combinational islands have depth 1.
        let mut b = ModuleBuilder::new("pipe");
        let a = b.port("a", PortDirection::Input);
        let clk = b.port("clk", PortDirection::Input);
        let y = b.port("y", PortDirection::Output);
        let d = b.net("d");
        let q = b.net("q");
        b.device("u1", "INV", [("A", a), ("Y", d)]);
        b.device("ff", "DFF", [("D", d), ("CK", clk), ("Q", q)]);
        b.device("u2", "INV", [("A", q), ("Y", y)]);
        let report = logic_depth(&b.finish()).unwrap();
        assert!(
            report.depth <= 2,
            "registers must break the path: {}",
            report.depth
        );
    }

    #[test]
    fn sequential_feedback_is_fine() {
        // Counter: q feeds back through XOR into the same DFF — legal.
        let report = logic_depth(&generate::counter(4)).expect("registers break the loop");
        assert!(report.depth >= 1);
    }

    #[test]
    fn combinational_cycle_is_an_error() {
        let mut b = ModuleBuilder::new("osc");
        let x = b.net("x");
        let y = b.net("y");
        b.device("u1", "INV", [("A", x), ("Y", y)]);
        b.device("u2", "INV", [("A", y), ("Y", x)]);
        let err = logic_depth(&b.finish()).unwrap_err();
        assert!(matches!(err, NetlistError::Invalid { .. }));
    }

    #[test]
    fn critical_path_is_connected() {
        let m = generate::ripple_adder(4);
        let report = logic_depth(&m).unwrap();
        for pair in report.critical_path.windows(2) {
            let (a, b2) = (pair[0], pair[1]);
            // Some output net of `a` must be an input net of `b`.
            let a_outs: Vec<_> = m
                .device(a)
                .pins()
                .iter()
                .filter(|(p, _)| super::is_output_pin(p))
                .map(|(_, &n)| n)
                .collect();
            let connected = m
                .device(b2)
                .pins()
                .iter()
                .any(|(p, n)| !super::is_output_pin(&p) && a_outs.contains(n));
            assert!(connected, "{a} -> {b2} not connected");
        }
    }

    #[test]
    fn empty_module_has_zero_depth() {
        let b = ModuleBuilder::new("empty");
        let report = logic_depth(&b.finish()).unwrap();
        assert_eq!(report.depth, 0);
        assert!(report.critical_path.len() <= 1);
    }
}
