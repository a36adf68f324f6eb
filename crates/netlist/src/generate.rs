//! Seeded synthetic circuit generators.
//!
//! The paper evaluates on "small to moderate-sized modules"; these
//! generators produce deterministic families of such modules — structured
//! datapath/control circuits for the experiment suites plus seeded random
//! logic for scaling benches and property tests. Every generator is a pure
//! function of its parameters (and seed), so experiment rows are
//! reproducible bit-for-bit.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::{Module, ModuleBuilder, NetId, NetlistError, PortDirection};

/// Largest select count the gate-level `decoder`/`mux_tree` generators
/// accept (4096-way fanout). Chosen so chip-family compositions can scale
/// to 10^6-device designs without any single module exploding.
pub const MAX_SELECT_BITS: usize = 12;

/// Largest select count for the transistor-level pass mux (1024-way).
pub const MAX_PASS_SELECT_BITS: usize = 10;

/// Validates a select count and computes `2^sel_bits` with the shift
/// guarded: `1 << sel_bits` wraps to 0 (or panics in debug builds) once
/// `sel_bits` reaches the word size, which previously turned an oversized
/// parameter into a silently empty generator.
fn checked_fanout(what: &str, sel_bits: usize, max: usize) -> Result<usize, NetlistError> {
    if !(1..=max).contains(&sel_bits) {
        return Err(NetlistError::invalid(format!(
            "{what} supports 1..={max} select bits, got {sel_bits}"
        )));
    }
    // Unreachable with max <= MAX_SELECT_BITS, but keeps the shift safe by
    // construction should the bound ever widen.
    u32::try_from(sel_bits)
        .ok()
        .and_then(|s| 1usize.checked_shl(s))
        .ok_or_else(|| {
            NetlistError::invalid(format!("{what}: 2^{sel_bits} overflows the address space"))
        })
}

/// An `bits`-stage shift register on standard cells: DFF chain plus shared
/// clock.
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn shift_register(bits: usize) -> Module {
    assert!(bits > 0, "shift register needs at least one stage");
    let mut b = ModuleBuilder::new(format!("shift_register_{bits}"));
    let din = b.port("din", PortDirection::Input);
    let clk = b.port("clk", PortDirection::Input);
    let dout = b.port("dout", PortDirection::Output);
    let mut prev = din;
    for i in 0..bits {
        let q = if i + 1 == bits {
            dout
        } else {
            b.net(format!("q{i}"))
        };
        b.device(
            format!("ff{i}"),
            "DFF",
            [("D", prev), ("CK", clk), ("Q", q)],
        );
        prev = q;
    }
    b.finish()
}

/// Builds one full adder's gates into `b`, returning the sum and carry
/// nets.
fn full_adder_into(
    b: &mut ModuleBuilder,
    prefix: &str,
    a: NetId,
    x: NetId,
    cin: NetId,
    sum: NetId,
    cout: NetId,
) {
    let t1 = b.net(format!("{prefix}_t1"));
    let t2 = b.net(format!("{prefix}_t2"));
    let t3 = b.net(format!("{prefix}_t3"));
    b.device(
        format!("{prefix}_x1"),
        "XOR2",
        [("A", a), ("B", x), ("Y", t1)],
    );
    b.device(
        format!("{prefix}_x2"),
        "XOR2",
        [("A", t1), ("B", cin), ("Y", sum)],
    );
    b.device(
        format!("{prefix}_a1"),
        "AND2",
        [("A", a), ("B", x), ("Y", t2)],
    );
    b.device(
        format!("{prefix}_a2"),
        "AND2",
        [("A", t1), ("B", cin), ("Y", t3)],
    );
    b.device(
        format!("{prefix}_o1"),
        "OR2",
        [("A", t2), ("B", t3), ("Y", cout)],
    );
}

/// An `bits`-bit ripple-carry adder on standard cells (5 gates per bit).
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn ripple_adder(bits: usize) -> Module {
    assert!(bits > 0, "adder needs at least one bit");
    let mut b = ModuleBuilder::new(format!("ripple_adder_{bits}"));
    let mut carries = vec![b.port("cin", PortDirection::Input)];
    let a: Vec<NetId> = (0..bits)
        .map(|i| b.port(format!("a{i}"), PortDirection::Input))
        .collect();
    let x: Vec<NetId> = (0..bits)
        .map(|i| b.port(format!("b{i}"), PortDirection::Input))
        .collect();
    let s: Vec<NetId> = (0..bits)
        .map(|i| b.port(format!("s{i}"), PortDirection::Output))
        .collect();
    let cout = b.port("cout", PortDirection::Output);
    for i in 0..bits {
        let next_carry = if i + 1 == bits {
            cout
        } else {
            b.net(format!("c{}", i + 1))
        };
        full_adder_into(
            &mut b,
            &format!("fa{i}"),
            a[i],
            x[i],
            carries[i],
            s[i],
            next_carry,
        );
        carries.push(next_carry);
    }
    b.finish()
}

/// An `sel_bits`-to-2^`sel_bits` decoder on standard cells: one inverter
/// per select plus one wide AND (NAND tree + INV) per output.
///
/// # Panics
///
/// Panics if `sel_bits` is 0 or greater than [`MAX_SELECT_BITS`]; use
/// [`try_decoder`] to get an error instead.
pub fn decoder(sel_bits: usize) -> Module {
    try_decoder(sel_bits).expect("decoder select count")
}

/// Fallible [`decoder`]: rejects out-of-range `sel_bits` (including values
/// whose `2^sel_bits` would overflow) with [`NetlistError::Invalid`].
pub fn try_decoder(sel_bits: usize) -> Result<Module, NetlistError> {
    let outputs = checked_fanout("decoder", sel_bits, MAX_SELECT_BITS)?;
    let mut b = ModuleBuilder::new(format!("decoder_{sel_bits}"));
    let sel: Vec<NetId> = (0..sel_bits)
        .map(|i| b.port(format!("s{i}"), PortDirection::Input))
        .collect();
    let nsel: Vec<NetId> = (0..sel_bits)
        .map(|i| {
            let n = b.net(format!("ns{i}"));
            b.device(format!("inv{i}"), "INV", [("A", sel[i]), ("Y", n)]);
            n
        })
        .collect();
    for out in 0..outputs {
        let y = b.port(format!("y{out}"), PortDirection::Output);
        // AND the per-bit literals pairwise with AND2s.
        let mut terms: Vec<NetId> = (0..sel_bits)
            .map(|i| if (out >> i) & 1 == 1 { sel[i] } else { nsel[i] })
            .collect();
        let mut stage = 0;
        while terms.len() > 1 {
            let mut next = Vec::new();
            for (j, pair) in terms.chunks(2).enumerate() {
                if pair.len() == 2 {
                    let o = if terms.len() == 2 {
                        y
                    } else {
                        b.net(format!("d{out}_{stage}_{j}"))
                    };
                    b.device(
                        format!("and{out}_{stage}_{j}"),
                        "AND2",
                        [("A", pair[0]), ("B", pair[1]), ("Y", o)],
                    );
                    next.push(o);
                } else {
                    next.push(pair[0]);
                }
            }
            terms = next;
            stage += 1;
        }
        if sel_bits == 1 {
            // Single literal: buffer it to the output.
            b.device(format!("buf{out}"), "BUF", [("A", terms[0]), ("Y", y)]);
        }
    }
    Ok(b.finish())
}

/// An `bits`-bit synchronous counter on standard cells: DFF + XOR2 toggle
/// logic + AND2 carry chain.
///
/// # Panics
///
/// Panics if `bits == 0`.
#[allow(clippy::needless_range_loop)] // q[i] is paired with a running carry
pub fn counter(bits: usize) -> Module {
    assert!(bits > 0, "counter needs at least one bit");
    let mut b = ModuleBuilder::new(format!("counter_{bits}"));
    let clk = b.port("clk", PortDirection::Input);
    let en = b.port("en", PortDirection::Input);
    let q: Vec<NetId> = (0..bits)
        .map(|i| b.port(format!("q{i}"), PortDirection::Output))
        .collect();
    let mut carry = en;
    for i in 0..bits {
        let d = b.net(format!("d{i}"));
        b.device(
            format!("x{i}"),
            "XOR2",
            [("A", q[i]), ("B", carry), ("Y", d)],
        );
        b.device(
            format!("ff{i}"),
            "DFF",
            [("D", d), ("CK", clk), ("Q", q[i])],
        );
        if i + 1 < bits {
            let c = b.net(format!("c{i}"));
            b.device(
                format!("ac{i}"),
                "AND2",
                [("A", carry), ("B", q[i]), ("Y", c)],
            );
            carry = c;
        }
    }
    b.finish()
}

/// A 2^`sel_bits`-input multiplexer tree on MUX2 standard cells.
///
/// # Panics
///
/// Panics if `sel_bits` is 0 or greater than [`MAX_SELECT_BITS`]; use
/// [`try_mux_tree`] to get an error instead.
pub fn mux_tree(sel_bits: usize) -> Module {
    try_mux_tree(sel_bits).expect("mux tree select count")
}

/// Fallible [`mux_tree`]: rejects out-of-range `sel_bits` (including
/// values whose `2^sel_bits` would overflow) with [`NetlistError::Invalid`].
pub fn try_mux_tree(sel_bits: usize) -> Result<Module, NetlistError> {
    let fanin = checked_fanout("mux tree", sel_bits, MAX_SELECT_BITS)?;
    let mut b = ModuleBuilder::new(format!("mux_tree_{sel_bits}"));
    let inputs: Vec<NetId> = (0..fanin)
        .map(|i| b.port(format!("i{i}"), PortDirection::Input))
        .collect();
    let sel: Vec<NetId> = (0..sel_bits)
        .map(|i| b.port(format!("s{i}"), PortDirection::Input))
        .collect();
    let y = b.port("y", PortDirection::Output);
    let mut layer = inputs;
    for (level, s) in sel.iter().enumerate() {
        let mut next = Vec::new();
        for (j, pair) in layer.chunks(2).enumerate() {
            let o = if layer.len() == 2 {
                y
            } else {
                b.net(format!("m{level}_{j}"))
            };
            b.device(
                format!("mux{level}_{j}"),
                "MUX2",
                [("A", pair[0]), ("B", pair[1]), ("S", *s), ("Y", o)],
            );
            next.push(o);
        }
        layer = next;
    }
    Ok(b.finish())
}

/// An XOR reduction (parity) tree over `inputs` leaves.
///
/// # Panics
///
/// Panics if `inputs < 2`.
pub fn parity_tree(inputs: usize) -> Module {
    assert!(inputs >= 2, "parity needs at least two inputs");
    let mut b = ModuleBuilder::new(format!("parity_{inputs}"));
    let mut layer: Vec<NetId> = (0..inputs)
        .map(|i| b.port(format!("i{i}"), PortDirection::Input))
        .collect();
    let y = b.port("p", PortDirection::Output);
    let mut level = 0;
    while layer.len() > 1 {
        let mut next = Vec::new();
        for (j, pair) in layer.chunks(2).enumerate() {
            if pair.len() == 2 {
                let o = if layer.len() == 2 {
                    y
                } else {
                    b.net(format!("x{level}_{j}"))
                };
                b.device(
                    format!("xor{level}_{j}"),
                    "XOR2",
                    [("A", pair[0]), ("B", pair[1]), ("Y", o)],
                );
                next.push(o);
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
        level += 1;
    }
    b.finish()
}

/// A one-bit ALU slice: AND, OR, XOR and full-adder functions selected by
/// a 2-bit opcode through a mux tree (13 gates).
pub fn alu_slice() -> Module {
    let mut b = ModuleBuilder::new("alu_slice");
    let a = b.port("a", PortDirection::Input);
    let x = b.port("b", PortDirection::Input);
    let cin = b.port("cin", PortDirection::Input);
    let s0 = b.port("s0", PortDirection::Input);
    let s1 = b.port("s1", PortDirection::Input);
    let y = b.port("y", PortDirection::Output);
    let cout = b.port("cout", PortDirection::Output);

    let f_and = b.net("f_and");
    b.device("g_and", "AND2", [("A", a), ("B", x), ("Y", f_and)]);
    let f_or = b.net("f_or");
    b.device("g_or", "OR2", [("A", a), ("B", x), ("Y", f_or)]);
    let f_xor = b.net("f_xor");
    b.device("g_xor", "XOR2", [("A", a), ("B", x), ("Y", f_xor)]);
    // Full adder: sum = (a^b)^cin, cout = ab + (a^b)cin.
    let f_sum = b.net("f_sum");
    b.device("g_sum", "XOR2", [("A", f_xor), ("B", cin), ("Y", f_sum)]);
    let n_cout = b.net("n_cout");
    b.device(
        "g_c2",
        "AOI22",
        [
            ("A1", a),
            ("A2", x),
            ("B1", f_xor),
            ("B2", cin),
            ("Y", n_cout),
        ],
    );
    b.device("g_ci", "INV", [("A", n_cout), ("Y", cout)]);
    // Select among the four functions.
    let m0 = b.net("m0");
    b.device(
        "mux0",
        "MUX2",
        [("A", f_and), ("B", f_or), ("S", s0), ("Y", m0)],
    );
    let m1 = b.net("m1");
    b.device(
        "mux1",
        "MUX2",
        [("A", f_xor), ("B", f_sum), ("S", s0), ("Y", m1)],
    );
    b.device("mux2", "MUX2", [("A", m0), ("B", m1), ("S", s1), ("Y", y)]);
    b.finish()
}

/// A Fibonacci LFSR of `bits` stages with taps at the two high stages.
///
/// # Panics
///
/// Panics if `bits < 3`.
pub fn lfsr(bits: usize) -> Module {
    assert!(bits >= 3, "lfsr needs at least three stages");
    let mut b = ModuleBuilder::new(format!("lfsr_{bits}"));
    let clk = b.port("clk", PortDirection::Input);
    let q: Vec<NetId> = (0..bits)
        .map(|i| b.port(format!("q{i}"), PortDirection::Output))
        .collect();
    let fb = b.net("fb");
    b.device(
        "tap",
        "XOR2",
        [("A", q[bits - 1]), ("B", q[bits - 2]), ("Y", fb)],
    );
    let mut d = fb;
    for (i, &qi) in q.iter().enumerate() {
        b.device(format!("ff{i}"), "DFF", [("D", d), ("CK", clk), ("Q", qi)]);
        d = qi;
    }
    b.finish()
}

/// Configuration for [`random_logic`].
#[derive(Debug, Clone)]
pub struct RandomLogicConfig {
    /// Number of gate instances to emit.
    pub device_count: usize,
    /// Number of primary inputs.
    pub input_count: usize,
    /// Fraction (0..1) of gate outputs promoted to primary outputs,
    /// in addition to all sink nets.
    pub output_fraction: f64,
    /// Locality bias: probability that a gate input reuses one of the most
    /// recent `window` nets rather than any earlier net. Higher values make
    /// shallower, more local netlists (shorter wires after placement).
    pub locality: f64,
    /// Window size for the locality bias.
    pub window: usize,
}

impl Default for RandomLogicConfig {
    fn default() -> Self {
        RandomLogicConfig {
            device_count: 50,
            input_count: 8,
            output_fraction: 0.1,
            locality: 0.7,
            window: 12,
        }
    }
}

/// Seeded random gate-level logic: a DAG of library gates whose inputs are
/// drawn from earlier nets with a locality bias.
///
/// # Panics
///
/// Panics if `device_count` or `input_count` is zero, or fractions are
/// outside `[0, 1]`.
pub fn random_logic(seed: u64, cfg: &RandomLogicConfig) -> Module {
    assert!(cfg.device_count > 0, "need at least one device");
    assert!(cfg.input_count > 0, "need at least one input");
    assert!(
        (0.0..=1.0).contains(&cfg.output_fraction) && (0.0..=1.0).contains(&cfg.locality),
        "fractions must lie in [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ModuleBuilder::new(format!("random_logic_s{seed}_n{}", cfg.device_count));
    let mut nets: Vec<NetId> = (0..cfg.input_count)
        .map(|i| b.port(format!("in{i}"), PortDirection::Input))
        .collect();

    const GATES: &[(&str, &[&str])] = &[
        ("INV", &["A"]),
        ("BUF", &["A"]),
        ("NAND2", &["A", "B"]),
        ("NOR2", &["A", "B"]),
        ("AND2", &["A", "B"]),
        ("OR2", &["A", "B"]),
        ("XOR2", &["A", "B"]),
        ("NAND3", &["A", "B", "C"]),
        ("NOR3", &["A", "B", "C"]),
        ("AOI22", &["A1", "A2", "B1", "B2"]),
        ("MUX2", &["A", "B", "S"]),
    ];

    let mut fanout = vec![0usize; cfg.input_count];
    for i in 0..cfg.device_count {
        let &(template, input_pins) = GATES.choose(&mut rng).expect("gate list is non-empty");
        let out = b.net(format!("w{i}"));
        let mut pins: Vec<(&str, NetId)> = vec![("Y", out)];
        for pin in input_pins {
            let src = if rng.gen_bool(cfg.locality) && nets.len() > cfg.window {
                let lo = nets.len() - cfg.window;
                lo + rng.gen_range(0..cfg.window)
            } else {
                rng.gen_range(0..nets.len())
            };
            fanout[src] += 1;
            pins.push((*pin, nets[src]));
        }
        b.device(format!("g{i}"), template, pins);
        nets.push(out);
        fanout.push(0);
    }

    // Promote sink nets (no fanout) plus a random sample to outputs by
    // adding an output buffer per promoted net (ports attach to nets at
    // creation in this builder, so we buffer into fresh port nets).
    // Unused primary inputs are buffered out too, so no port dangles.
    let mut out_idx = 0;
    for i in 0..nets.len() {
        let is_sink = fanout[i] == 0;
        let promoted = if i < cfg.input_count {
            is_sink
        } else {
            is_sink || rng.gen_bool(cfg.output_fraction)
        };
        if promoted {
            let port = b.port(format!("out{out_idx}"), PortDirection::Output);
            b.device(format!("ob{out_idx}"), "BUF", [("A", nets[i]), ("Y", port)]);
            out_idx += 1;
        }
    }
    b.finish()
}

/// A chain of `stages` ratioed nMOS inverters at transistor level:
/// every internal net has exactly two components, which exercises the
/// paper's Table 1 footnote ("all nets … were two-component nets, and
/// therefore contributed nothing to wire area").
///
/// # Panics
///
/// Panics if `stages == 0`.
pub fn nmos_inverter_chain(stages: usize) -> Module {
    assert!(stages > 0, "chain needs at least one stage");
    let mut b = ModuleBuilder::new(format!("nmos_inv_chain_{stages}"));
    let a = b.port("a", PortDirection::Input);
    let y = b.port("y", PortDirection::Output);
    let mut prev = a;
    for i in 0..stages {
        let out = if i + 1 == stages {
            y
        } else {
            b.net(format!("n{i}"))
        };
        // Pull-down gate on input, drain on output; depletion load on output.
        b.device(format!("q{i}d"), "pd", [("g", prev), ("d", out)]);
        b.device(format!("q{i}l"), "pu", [("s", out)]);
        prev = out;
    }
    b.finish()
}

/// A `k`-input ratioed nMOS NAND gate at transistor level: `k` series
/// pull-downs plus one depletion load.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn nmos_nand(k: usize) -> Module {
    assert!(k > 0, "nand needs at least one input");
    let mut b = ModuleBuilder::new(format!("nmos_nand{k}"));
    let inputs: Vec<NetId> = (0..k)
        .map(|i| b.port(format!("a{i}"), PortDirection::Input))
        .collect();
    let y = b.port("y", PortDirection::Output);
    b.device("ql", "pu", [("s", y)]);
    let mut node = y;
    for (i, input) in inputs.iter().enumerate() {
        let below = if i + 1 == k {
            // Bottom device's source is ground (not modeled).
            None
        } else {
            Some(b.net(format!("m{i}")))
        };
        let mut pins = vec![("d", node), ("g", *input)];
        if let Some(below) = below {
            pins.push(("s", below));
            node = below;
        }
        b.device(format!("q{i}"), "pd", pins);
    }
    b.finish()
}

/// A pass-transistor 2^`sel_bits`-input mux at transistor level, with
/// inverters generating complemented selects.
///
/// # Panics
///
/// Panics if `sel_bits` is 0 or greater than [`MAX_PASS_SELECT_BITS`]; use
/// [`try_nmos_pass_mux`] to get an error instead.
pub fn nmos_pass_mux(sel_bits: usize) -> Module {
    try_nmos_pass_mux(sel_bits).expect("pass mux select count")
}

/// Fallible [`nmos_pass_mux`]: rejects out-of-range `sel_bits` (including
/// values whose `2^sel_bits` would overflow) with [`NetlistError::Invalid`].
pub fn try_nmos_pass_mux(sel_bits: usize) -> Result<Module, NetlistError> {
    let fanin = checked_fanout("pass mux", sel_bits, MAX_PASS_SELECT_BITS)?;
    let mut b = ModuleBuilder::new(format!("nmos_pass_mux_{sel_bits}"));
    let inputs: Vec<NetId> = (0..fanin)
        .map(|i| b.port(format!("i{i}"), PortDirection::Input))
        .collect();
    let sel: Vec<NetId> = (0..sel_bits)
        .map(|i| b.port(format!("s{i}"), PortDirection::Input))
        .collect();
    let y = b.port("y", PortDirection::Output);
    // Complement selects with nMOS inverters.
    let nsel: Vec<NetId> = (0..sel_bits)
        .map(|i| {
            let n = b.net(format!("ns{i}"));
            b.device(format!("qinv{i}d"), "pd", [("g", sel[i]), ("d", n)]);
            b.device(format!("qinv{i}l"), "pu", [("s", n)]);
            n
        })
        .collect();
    let mut layer = inputs;
    for (level, (s, ns)) in sel.iter().zip(&nsel).enumerate() {
        let mut next = Vec::new();
        for (j, pair) in layer.chunks(2).enumerate() {
            let o = if layer.len() == 2 {
                y
            } else {
                b.net(format!("m{level}_{j}"))
            };
            b.device(
                format!("qp{level}_{j}a"),
                "pass",
                [("d", pair[0]), ("g", *ns), ("s", o)],
            );
            b.device(
                format!("qp{level}_{j}b"),
                "pass",
                [("d", pair[1]), ("g", *s), ("s", o)],
            );
            next.push(o);
        }
        layer = next;
    }
    Ok(b.finish())
}

/// Seeded random transistor-level nMOS logic: a chain-of-gates structure
/// with random gate arities in `2..=4` and random cross-links.
///
/// # Panics
///
/// Panics if `gate_count == 0`.
pub fn random_nmos_logic(seed: u64, gate_count: usize) -> Module {
    assert!(gate_count > 0, "need at least one gate");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ModuleBuilder::new(format!("random_nmos_s{seed}_g{gate_count}"));
    let input_count = (gate_count / 3).clamp(2, 12);
    let mut nets: Vec<NetId> = (0..input_count)
        .map(|i| b.port(format!("in{i}"), PortDirection::Input))
        .collect();
    let mut fanout = vec![0usize; nets.len()];
    for g in 0..gate_count {
        let arity = rng.gen_range(1..=3usize);
        let out = b.net(format!("w{g}"));
        b.device(format!("q{g}l"), "pu", [("s", out)]);
        let mut node = out;
        for i in 0..arity {
            let src = rng.gen_range(0..nets.len());
            fanout[src] += 1;
            let below = if i + 1 == arity {
                None
            } else {
                Some(b.net(format!("w{g}_m{i}")))
            };
            let mut pins = vec![("d", node), ("g", nets[src])];
            if let Some(belw) = below {
                pins.push(("s", belw));
                node = belw;
            }
            b.device(format!("q{g}_{i}"), "pd", pins);
            if below.is_some() {
                fanout.push(0); // the internal series net
                nets.push(node);
            }
        }
        nets.push(out);
        fanout.push(0);
    }
    // Expose sink nets as outputs through pass transistors.
    let mut out_idx = 0;
    let snapshot = nets.clone();
    for (i, net) in snapshot.iter().enumerate().skip(input_count) {
        if fanout[i] == 0 && out_idx < 8 {
            let port = b.port(format!("out{out_idx}"), PortDirection::Output);
            b.device(format!("qo{out_idx}"), "pass", [("d", *net), ("s", port)]);
            out_idx += 1;
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LayoutStyle, NetlistStats};
    use maestro_tech::builtin;

    #[test]
    fn fanout_generators_reject_out_of_range_selects() {
        // Zero, just-past-max, the word-size shift boundary, and
        // usize::MAX must all come back as structured errors — the old
        // `1 << sel_bits` wrapped (or debug-panicked) at 64.
        for bad in [0, MAX_SELECT_BITS + 1, usize::BITS as usize, usize::MAX] {
            assert!(
                matches!(try_decoder(bad), Err(NetlistError::Invalid { .. })),
                "decoder({bad}) must be rejected"
            );
            assert!(
                matches!(try_mux_tree(bad), Err(NetlistError::Invalid { .. })),
                "mux_tree({bad}) must be rejected"
            );
        }
        for bad in [
            0,
            MAX_PASS_SELECT_BITS + 1,
            usize::BITS as usize,
            usize::MAX,
        ] {
            assert!(
                matches!(try_nmos_pass_mux(bad), Err(NetlistError::Invalid { .. })),
                "nmos_pass_mux({bad}) must be rejected"
            );
        }
        let err = try_decoder(usize::BITS as usize).unwrap_err();
        assert!(
            err.to_string().contains("1..=12 select bits"),
            "error names the supported range: {err}"
        );
    }

    #[test]
    fn fanout_generators_accept_their_widened_maximum() {
        let m = try_mux_tree(MAX_SELECT_BITS).expect("max mux tree builds");
        assert_eq!(m.device_count(), (1 << MAX_SELECT_BITS) - 1);
        let m = try_nmos_pass_mux(MAX_PASS_SELECT_BITS).expect("max pass mux builds");
        assert_eq!(
            m.port_count(),
            (1 << MAX_PASS_SELECT_BITS) + MAX_PASS_SELECT_BITS + 1
        );
        let m = try_decoder(8).expect("8-bit decoder builds");
        assert_eq!(m.port_count(), 8 + 256);
    }

    #[test]
    #[should_panic(expected = "decoder select count")]
    fn decoder_wrapper_still_panics_on_bad_input() {
        decoder(0);
    }

    #[test]
    fn shift_register_structure() {
        let m = shift_register(8);
        assert_eq!(m.device_count(), 8);
        assert_eq!(m.port_count(), 3);
        // clk net has 8 components.
        let clk = m.find_net("clk").unwrap();
        assert_eq!(m.net(clk).component_count(), 8);
    }

    #[test]
    fn ripple_adder_structure() {
        let m = ripple_adder(4);
        assert_eq!(m.device_count(), 20);
        assert_eq!(m.port_count(), 4 * 3 + 2);
    }

    #[test]
    fn decoder_output_counts() {
        for bits in 1..=4 {
            let m = decoder(bits);
            assert_eq!(
                m.ports()
                    .filter(|(_, p)| p.direction() == PortDirection::Output)
                    .count(),
                1 << bits,
                "decoder_{bits}"
            );
        }
    }

    #[test]
    fn counter_structure() {
        let m = counter(4);
        // 4 DFF + 4 XOR + 3 AND = 11.
        assert_eq!(m.device_count(), 11);
    }

    #[test]
    fn mux_tree_structure() {
        let m = mux_tree(3);
        // 4 + 2 + 1 = 7 MUX2s.
        assert_eq!(m.device_count(), 7);
        assert_eq!(m.port_count(), 8 + 3 + 1);
    }

    #[test]
    fn generators_resolve_against_nmos_library() {
        let tech = builtin::nmos25();
        for m in [
            shift_register(4),
            ripple_adder(2),
            decoder(3),
            counter(3),
            mux_tree(2),
        ] {
            let s = NetlistStats::resolve(&m, &tech, LayoutStyle::StandardCell)
                .unwrap_or_else(|e| panic!("{}: {e}", m.name()));
            assert!(s.device_count() > 0);
            assert!(s.total_device_area().get() > 0);
        }
    }

    #[test]
    fn parity_tree_structure() {
        // 8 inputs -> 7 XORs in a binary tree; 5 inputs -> 4 XORs.
        assert_eq!(parity_tree(8).device_count(), 7);
        assert_eq!(parity_tree(5).device_count(), 4);
        assert_eq!(parity_tree(2).device_count(), 1);
    }

    #[test]
    fn alu_slice_structure() {
        let m = alu_slice();
        assert_eq!(m.port_count(), 7);
        assert_eq!(m.device_count(), 9);
        let s = NetlistStats::resolve(&m, &builtin::nmos25(), LayoutStyle::StandardCell)
            .expect("resolves");
        assert!(s.total_device_area().get() > 0);
    }

    #[test]
    fn lfsr_structure() {
        let m = lfsr(5);
        // 5 DFFs + 1 XOR.
        assert_eq!(m.device_count(), 6);
        let fb = m.find_net("fb").expect("feedback net");
        assert_eq!(m.net(fb).component_count(), 2);
    }

    #[test]
    fn new_generators_resolve_and_expand() {
        let tech = builtin::nmos25();
        for m in [parity_tree(6), alu_slice(), lfsr(4)] {
            NetlistStats::resolve(&m, &tech, LayoutStyle::StandardCell)
                .unwrap_or_else(|e| panic!("{}: {e}", m.name()));
            let xt = crate::expand::to_nmos_transistors(&m)
                .unwrap_or_else(|e| panic!("{} expand: {e}", m.name()));
            NetlistStats::resolve(&xt, &tech, LayoutStyle::FullCustom)
                .unwrap_or_else(|e| panic!("{}: {e}", xt.name()));
        }
    }

    #[test]
    fn random_logic_is_deterministic() {
        let cfg = RandomLogicConfig::default();
        let a = random_logic(42, &cfg);
        let b = random_logic(42, &cfg);
        assert_eq!(a, b);
        let c = random_logic(43, &cfg);
        assert_ne!(a, c);
    }

    #[test]
    fn random_logic_resolves_and_scales() {
        let tech = builtin::nmos25();
        for n in [10, 50, 200] {
            let cfg = RandomLogicConfig {
                device_count: n,
                ..RandomLogicConfig::default()
            };
            let m = random_logic(7, &cfg);
            assert!(m.device_count() >= n, "buffers add devices");
            let s = NetlistStats::resolve(&m, &tech, LayoutStyle::StandardCell).unwrap();
            assert!(s.net_count() > 0);
        }
    }

    #[test]
    fn inverter_chain_nets_are_two_component() {
        let m = nmos_inverter_chain(6);
        // Internal nets (not a, not y-load-only) have exactly 2-3 components:
        // driver pd drain + load pu + next pd gate.
        let tech = builtin::nmos25();
        let s = NetlistStats::resolve(&m, &tech, LayoutStyle::FullCustom).unwrap();
        assert!(s.net_sizes().max_components() <= 3);
        assert_eq!(s.device_count(), 12);
    }

    #[test]
    fn nmos_nand_structure() {
        let m = nmos_nand(3);
        // 3 pull-downs + 1 load.
        assert_eq!(m.device_count(), 4);
        let tech = builtin::nmos25();
        let s = NetlistStats::resolve(&m, &tech, LayoutStyle::FullCustom).unwrap();
        assert_eq!(s.device_count(), 4);
    }

    #[test]
    fn pass_mux_resolves_full_custom() {
        let m = nmos_pass_mux(2);
        let tech = builtin::nmos25();
        let s = NetlistStats::resolve(&m, &tech, LayoutStyle::FullCustom).unwrap();
        assert!(s.device_count() > 6);
        assert_eq!(s.port_count(), 4 + 2 + 1);
    }

    #[test]
    fn random_nmos_is_deterministic_and_resolves() {
        let a = random_nmos_logic(5, 10);
        let b = random_nmos_logic(5, 10);
        assert_eq!(a, b);
        let tech = builtin::nmos25();
        let s = NetlistStats::resolve(&a, &tech, LayoutStyle::FullCustom).unwrap();
        assert!(s.device_count() > 10);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stage_shift_register_rejected() {
        let _ = shift_register(0);
    }
}
