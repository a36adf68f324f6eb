//! Seeded inputs. The program only ever sees what these produce: `.mnl`
//! text and request lines. The same seed gives byte-identical inputs.

use std::collections::BTreeSet;

use maestro::estimator::request::{
    EstimateRequest, FloorplanRequest, LayoutRequest, Request, RequestCall,
    DEFAULT_FLOORPLAN_BACKEND,
};
use maestro::netlist::chip::{ChipFamily, ChipSpec};
use maestro::netlist::generate::{self, RandomLogicConfig};
use maestro::netlist::{mnl, Module};

use crate::rng::Rng;

/// Technology every generated request names.
pub const TECH: &str = "nmos";

fn random_gates(seed: u64, devices: usize) -> Module {
    generate::random_logic(
        seed,
        &RandomLogicConfig {
            device_count: devices,
            input_count: (devices / 8).clamp(4, 24),
            ..RandomLogicConfig::default()
        },
    )
}

/// A tiny one-module design for timing the program's fixed start-up cost.
pub fn probe_mnl() -> String {
    "module bench_probe;\ninput a;\noutput y;\nnet t;\n\
     device u1 INV (A=a, Y=t);\ndevice u2 INV (A=t, Y=y);\nendmodule\n"
        .to_owned()
}

// ---------------------------------------------------------------- chip_stream

/// Devices the chip_stream chip takes from each unit family.
const CHIP_FAMILY_DEVICES: usize = 75_000;
/// Seeded random-logic modules in the chip_stream chip.
const CHIP_RANDOM_MODULES: usize = 750;

#[derive(Clone, Copy)]
enum ChipPart {
    Unit(usize, usize),
    Random(u64, usize),
}

/// The chip_stream design: datapath, memory and tree units (75k devices
/// each) and 750 seeded random-logic modules of 50–150 gates, in a seeded
/// order under unique names. Returns the `.mnl` text, its module count
/// and its device count. Modules are built one at a time, so the design
/// never exists in memory as modules.
pub fn chip_stream_design(seed: u64) -> (String, usize, usize) {
    let specs: Vec<ChipSpec> = [ChipFamily::Datapath, ChipFamily::Memory, ChipFamily::Tree]
        .into_iter()
        .map(|f| ChipSpec::new(f, CHIP_FAMILY_DEVICES).expect("valid chip spec"))
        .collect();
    let mut rng = Rng::new(seed, 1);
    let mut parts: Vec<ChipPart> = Vec::new();
    for (s, spec) in specs.iter().enumerate() {
        parts.extend((0..spec.module_count()).map(|i| ChipPart::Unit(s, i)));
    }
    for i in 0..CHIP_RANDOM_MODULES {
        parts.push(ChipPart::Random(rng.next_u64(), 50 + i % 101));
    }
    rng.shuffle(&mut parts);
    let mut text = String::new();
    let mut devices = 0;
    for (k, part) in parts.iter().enumerate() {
        let module = match *part {
            ChipPart::Unit(s, i) => specs[s].module(i),
            ChipPart::Random(seed, n) => random_gates(seed, n),
        };
        let name = format!("m{k}_{}", module.name());
        let module = module.renamed(name);
        devices += module.device_count();
        text.push_str(&mnl::to_mnl(&module));
    }
    (text, parts.len(), devices)
}

// ---------------------------------------------------------------- serve_mixed

/// One module a client may send: its `.mnl` text and size. Names are
/// unique across both clients.
#[derive(Debug, Clone)]
struct PoolModule {
    /// Canonical `.mnl` text.
    text: String,
    /// Device count.
    devices: usize,
}

fn pool_module(module: Module, name: String) -> PoolModule {
    let module = module.renamed(name);
    PoolModule {
        devices: module.device_count(),
        text: mnl::to_mnl(&module),
    }
}

/// One scripted request plus the devices it carries.
#[derive(Debug, Clone)]
pub struct Scripted {
    /// What latencies it is filed under: `estimate`, `layout`,
    /// `floorplan`, or `eco` for an ECO round (an incremental estimate of
    /// the whole ECO chip, about ten times the text of a plain estimate).
    pub kind: &'static str,
    /// The request.
    pub request: Request,
    /// Devices over all its modules.
    pub devices: usize,
}

/// Requests per block besides client 0's ECO rounds: 15 estimates, 4
/// layouts and one floorplan, so every prefix of a script keeps about
/// that mix.
const BLOCK: usize = 20;

/// One serve_mixed client's endless, seeded request sequence. Clients
/// draw from disjoint module pools (names carry the client number), so
/// their results do not depend on how the daemon interleaves them.
#[derive(Debug, Clone)]
pub struct ClientScript {
    client: usize,
    rng: Rng,
    estimate_pool: Vec<PoolModule>,
    layout_gates: Vec<PoolModule>,
    layout_transistors: Vec<PoolModule>,
    layout_turns: [usize; 2],
    /// Client 0's ECO chip; client 1 sends no incremental requests, so
    /// the session's revision manifest follows one chip.
    eco: Option<EcoLoop>,
    block: usize,
    issued: usize,
    queue: std::collections::VecDeque<Scripted>,
}

impl ClientScript {
    /// The script of `client` (0 or 1) under `seed`.
    pub fn new(seed: u64, client: usize) -> ClientScript {
        let mut rng = Rng::new(seed, 100 + client as u64);
        let mut estimate_pool = Vec::new();
        // Gate-level random logic, 20–400 gates, and a few structured
        // generators; transistor-level random nMOS logic of 20–400
        // devices.
        let mut gate_sizes: Vec<usize> = (0..40).map(|i| 20 + i * 380 / 39).collect();
        rng.shuffle(&mut gate_sizes);
        for (k, n) in gate_sizes.into_iter().enumerate() {
            let m = random_gates(rng.next_u64(), n);
            estimate_pool.push(pool_module(m, format!("c{client}_g{k}")));
        }
        for k in 0..8 {
            let m = match k % 4 {
                0 => generate::ripple_adder(rng.between(4, 24)),
                1 => generate::counter(rng.between(4, 24)),
                2 => generate::mux_tree(rng.between(3, 6)),
                _ => generate::parity_tree(rng.between(16, 96)),
            };
            estimate_pool.push(pool_module(m, format!("c{client}_s{k}")));
        }
        let mut fc_gates: Vec<usize> = (0..24).map(|i| 6 + i * 124 / 23).collect();
        rng.shuffle(&mut fc_gates);
        for (k, g) in fc_gates.into_iter().enumerate() {
            let m = generate::random_nmos_logic(rng.next_u64(), g);
            estimate_pool.push(pool_module(m, format!("c{client}_t{k}")));
        }
        let layout_gates = (0..6)
            .map(|k| {
                let m = random_gates(rng.next_u64(), 20 + 12 * k);
                pool_module(m, format!("c{client}_lg{k}"))
            })
            .collect();
        let layout_transistors = (0..6)
            .map(|k| {
                let m = generate::random_nmos_logic(rng.next_u64(), 6 + 3 * k);
                pool_module(m, format!("c{client}_lt{k}"))
            })
            .collect();
        ClientScript {
            client,
            rng,
            estimate_pool,
            layout_gates,
            layout_transistors,
            layout_turns: [0; 2],
            eco: (client == 0).then(|| EcoLoop::new(seed)),
            block: 0,
            issued: 0,
            queue: std::collections::VecDeque::new(),
        }
    }

    /// The next request of the sequence.
    pub fn next_request(&mut self) -> Scripted {
        if self.queue.is_empty() {
            self.plan_block();
        }
        let mut next = self
            .queue
            .pop_front()
            .expect("a planned block is never empty");
        next.request.id = format!("c{}-{}", self.client, self.issued);
        self.issued += 1;
        next
    }

    fn plan_block(&mut self) {
        // 15 estimates and 4 layouts (two per style) in seeded order, then
        // the floorplan spliced in at position 15..=19. Each block holds
        // the same mix of costs: five estimates each of 1, 2 and 3
        // modules, eight in JSON, and one layout with two replicas.
        // Client 0 adds two ECO rounds: an edit to its chip, then an
        // incremental estimate of the whole chip.
        let mut kinds: Vec<u8> = [[0u8; 15].as_slice(), &[1, 1, 2, 2]].concat();
        if self.eco.is_some() {
            kinds.extend([4, 4]);
        }
        self.rng.shuffle(&mut kinds);
        let fp_at = 15 + self.rng.below(BLOCK - 15);
        kinds.insert(fp_at, 3);
        let mut counts: Vec<usize> = (0..15).map(|i| 1 + i % 3).collect();
        self.rng.shuffle(&mut counts);
        let mut json: Vec<bool> = (0..15).map(|i| i < 8).collect();
        self.rng.shuffle(&mut json);
        let replicated = self.rng.below(4);
        let (mut estimates, mut layouts) = (0, 0);
        let mut estimated: Vec<usize> = Vec::new();
        for kind in kinds {
            // `next_request` numbers the requests.
            let id = String::new();
            let scripted = match kind {
                0 => {
                    let count = counts[estimates];
                    let mut picks: Vec<usize> = Vec::new();
                    while picks.len() < count {
                        let p = self.rng.below(self.estimate_pool.len());
                        if !picks.contains(&p) {
                            picks.push(p);
                        }
                    }
                    estimated.extend(&picks);
                    let scripted = self.estimate(id, &picks, json[estimates]);
                    estimates += 1;
                    scripted
                }
                1 | 2 => {
                    // Each style cycles through its pool; every second
                    // layout of a module warm-starts from the last one.
                    let pool = if kind == 1 {
                        &self.layout_gates
                    } else {
                        &self.layout_transistors
                    };
                    let turn = self.layout_turns[usize::from(kind - 1)];
                    self.layout_turns[usize::from(kind - 1)] += 1;
                    let module = pool[turn % pool.len()].clone();
                    let warm = (turn / pool.len()) % 2 == 1;
                    let replicas = if layouts == replicated { 2 } else { 1 };
                    layouts += 1;
                    Scripted {
                        kind: "layout",
                        devices: module.devices,
                        request: Request {
                            id,
                            call: RequestCall::Layout(LayoutRequest {
                                files: Vec::new(),
                                mnl: vec![module.text],
                                tech: TECH.to_owned(),
                                rows: None,
                                replicas,
                                warm,
                            }),
                        },
                    }
                }
                4 => {
                    let eco = self.eco.as_mut().expect("only client 0 plans ECO rounds");
                    eco.step();
                    Scripted {
                        kind: "eco",
                        devices: eco.device_count(),
                        request: Request {
                            id,
                            call: RequestCall::Estimate(EstimateRequest {
                                files: Vec::new(),
                                mnl: vec![eco.text()],
                                tech: TECH.to_owned(),
                                rows: None,
                                jobs: 1,
                                json: true,
                                incremental: true,
                            }),
                        },
                    }
                }
                _ => {
                    estimated.sort_unstable();
                    estimated.dedup();
                    self.rng.shuffle(&mut estimated);
                    let size = 3 + self.block % 4;
                    let picks: Vec<usize> = estimated.iter().copied().take(size).collect();
                    let modules: Vec<&PoolModule> =
                        picks.iter().map(|&p| &self.estimate_pool[p]).collect();
                    Scripted {
                        kind: "floorplan",
                        devices: modules.iter().map(|m| m.devices).sum(),
                        request: Request {
                            id,
                            call: RequestCall::Floorplan(FloorplanRequest {
                                files: Vec::new(),
                                mnl: modules.iter().map(|m| m.text.clone()).collect(),
                                tech: TECH.to_owned(),
                                aspect: None,
                                replicas: 1,
                                backend: DEFAULT_FLOORPLAN_BACKEND.to_owned(),
                            }),
                        },
                    }
                }
            };
            self.queue.push_back(scripted);
        }
        self.block += 1;
    }

    fn estimate(&self, id: String, picks: &[usize], json: bool) -> Scripted {
        let modules: Vec<&PoolModule> = picks.iter().map(|&p| &self.estimate_pool[p]).collect();
        Scripted {
            kind: "estimate",
            devices: modules.iter().map(|m| m.devices).sum(),
            request: Request {
                id,
                call: RequestCall::Estimate(EstimateRequest {
                    files: Vec::new(),
                    mnl: modules.iter().map(|m| m.text.clone()).collect(),
                    tech: TECH.to_owned(),
                    rows: None,
                    jobs: 1,
                    json,
                    incremental: false,
                }),
            },
        }
    }

    /// A one-module estimate that answers fast: what each connection sends
    /// first, to time set-up.
    pub fn probe(&self) -> Request {
        Request {
            id: format!("c{}-probe", self.client),
            call: RequestCall::Estimate(EstimateRequest {
                files: Vec::new(),
                mnl: vec![probe_mnl()],
                tech: TECH.to_owned(),
                rows: None,
                jobs: 1,
                json: false,
                incremental: false,
            }),
        }
    }

    /// The distinct modules this client can ever send, for the working-set
    /// report.
    pub fn pool_size(&self) -> usize {
        self.estimate_pool.len() + self.layout_gates.len() + self.layout_transistors.len()
    }
}

// ---------------------------------------------------------------- ECO rounds

/// One module of the ECO chip as editable `.mnl` lines.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EcoModule {
    /// Lines without terminators, `module …;` through `endmodule`.
    lines: Vec<String>,
    /// Transistor-level (edits add `pd` devices) or gate-level (`INV`).
    transistor: bool,
}

impl EcoModule {
    fn new(module: Module, name: String, transistor: bool) -> EcoModule {
        let text = mnl::to_mnl(&module.renamed(name));
        EcoModule {
            lines: text.lines().map(str::to_owned).collect(),
            transistor,
        }
    }

    fn device_lines(&self) -> Vec<usize> {
        (0..self.lines.len())
            .filter(|&i| self.lines[i].starts_with("device "))
            .collect()
    }

    /// Net names bound by device pins.
    fn nets(&self) -> Vec<String> {
        let mut nets = BTreeSet::new();
        for &i in &self.device_lines() {
            for (_, net) in pins(&self.lines[i]) {
                nets.insert(net);
            }
        }
        nets.into_iter().collect()
    }

    /// A copy with one seeded edit: a device added (`tag` names it) or
    /// dropped, or one pin rewired to another net of the module.
    fn edited(&self, rng: &mut Rng, tag: &str) -> EcoModule {
        let mut out = self.clone();
        let devices = self.device_lines();
        let nets = self.nets();
        match rng.below(3) {
            0 => {
                let a = &nets[rng.below(nets.len())];
                let line = if self.transistor {
                    let g = &nets[rng.below(nets.len())];
                    format!("device {tag} pd (d={a}, g={g});")
                } else {
                    format!("device {tag} INV (A={a}, Y={tag}_y);")
                };
                out.lines.insert(out.lines.len() - 1, line);
            }
            1 if devices.len() > 4 => {
                out.lines.remove(devices[rng.below(devices.len())]);
            }
            _ => {
                let at = devices[rng.below(devices.len())];
                let bound = pins(&self.lines[at]);
                let pin = &bound[rng.below(bound.len())].0;
                let net = &nets[rng.below(nets.len())];
                let rewired: Vec<String> = bound
                    .iter()
                    .map(|(p, old)| format!("{p}={}", if p == pin { net } else { old }))
                    .collect();
                let line = &self.lines[at];
                let head = &line[..line.find('(').expect("device line has pins")];
                out.lines[at] = format!("{head}({});", rewired.join(", "));
            }
        }
        out
    }

    fn text(&self) -> String {
        let mut text = self.lines.join("\n");
        text.push('\n');
        text
    }
}

/// `(pin, net)` bindings of a `device … (P=n, …);` line.
fn pins(line: &str) -> Vec<(String, String)> {
    let open = line.find('(').expect("device line has pins");
    let close = line.rfind(')').expect("device line has pins");
    line[open + 1..close]
        .split(',')
        .filter_map(|b| {
            let (pin, net) = b.trim().split_once('=')?;
            Some((pin.trim().to_owned(), net.trim().to_owned()))
        })
        .collect()
}

/// Edited versions of each chip module an ECO loop switches between.
const ECO_VARIANTS: usize = 4;
/// Modules an ECO loop adds to and removes from the chip.
const ECO_SPARES: usize = 10;

/// A seeded ECO loop over a chip of 100 modules, driven by serve_mixed's
/// client 0.
///
/// Each module has [`ECO_VARIANTS`] versions — the original and edits
/// of it that add or drop a device or rewire a pin — and each round
/// switches one module to another of its versions; now and then a round
/// adds or removes one of [`ECO_SPARES`] spare modules instead. Designers
/// trying alternative fixes revisit earlier versions, and the bounded set
/// of versions keeps the daemon's memo footprint from growing with the
/// number of rounds, so peak RSS does not depend on how fast rounds run.
#[derive(Debug, Clone)]
pub struct EcoLoop {
    variants: Vec<Vec<EcoModule>>,
    spares: Vec<EcoModule>,
    current: Vec<usize>,
    spare_in: Vec<bool>,
    rng: Rng,
}

impl EcoLoop {
    /// The loop for `seed`, at its starting revision: 55 random-logic
    /// modules of 12–60 gates, 25 small structured gate-level modules and
    /// 20 transistor-level random nMOS modules, in seeded order — about
    /// 3.7×10^3 devices. (A 10^4-device chip made the round time swing
    /// with memory contention from outside the benchmark.)
    pub fn new(seed: u64) -> EcoLoop {
        let mut rng = Rng::new(seed, 200);
        let mut base = Vec::new();
        for k in 0..55 {
            let m = random_gates(rng.next_u64(), 12 + k * 48 / 54);
            base.push(EcoModule::new(m, format!("eco_g{k}"), false));
        }
        for k in 0..25 {
            let m = match k % 5 {
                0 => generate::ripple_adder(rng.between(3, 6)),
                1 => generate::counter(rng.between(3, 6)),
                2 => generate::mux_tree(rng.between(3, 4)),
                3 => generate::decoder(rng.between(2, 3)),
                _ => generate::parity_tree(rng.between(8, 32)),
            };
            base.push(EcoModule::new(m, format!("eco_s{k}"), false));
        }
        for k in 0..20 {
            let m = generate::random_nmos_logic(rng.next_u64(), 4 + k * 12 / 19);
            base.push(EcoModule::new(m, format!("eco_t{k}"), true));
        }
        rng.shuffle(&mut base);
        let variants = base
            .into_iter()
            .enumerate()
            .map(|(i, original)| {
                let mut versions = vec![original];
                for v in 1..ECO_VARIANTS {
                    let edited = versions[0].edited(&mut rng, &format!("eco{i}_{v}"));
                    versions.push(edited);
                }
                versions
            })
            .collect::<Vec<_>>();
        let spares = (0..ECO_SPARES)
            .map(|k| {
                let m = random_gates(rng.next_u64(), rng.between(12, 60));
                EcoModule::new(m, format!("eco_spare{k}"), false)
            })
            .collect();
        EcoLoop {
            current: vec![0; variants.len()],
            spare_in: vec![false; ECO_SPARES],
            variants,
            spares,
            rng: Rng::new(seed, 300),
        }
    }

    /// Applies the next edit and says what it did.
    pub fn step(&mut self) -> &'static str {
        if self.rng.below(100) < 10 {
            let k = self.rng.below(ECO_SPARES);
            self.spare_in[k] = !self.spare_in[k];
            return if self.spare_in[k] {
                "add-module"
            } else {
                "remove-module"
            };
        }
        let i = self.rng.below(self.variants.len());
        let next = (self.current[i] + 1 + self.rng.below(ECO_VARIANTS - 1)) % ECO_VARIANTS;
        self.current[i] = next;
        "edit-module"
    }

    /// The current revision's modules in chip order; spare `k` sits
    /// after chip module `10 k`.
    fn modules(&self) -> impl Iterator<Item = &EcoModule> {
        self.variants
            .iter()
            .zip(&self.current)
            .enumerate()
            .flat_map(move |(i, (versions, &v))| {
                let spare = (i % 10 == 0 && i / 10 < ECO_SPARES && self.spare_in[i / 10])
                    .then(|| &self.spares[i / 10]);
                std::iter::once(&versions[v]).chain(spare)
            })
    }

    /// Device count of the current revision.
    pub fn device_count(&self) -> usize {
        self.modules()
            .flat_map(|m| &m.lines)
            .filter(|l| l.starts_with("device "))
            .count()
    }

    /// The current revision as one `.mnl` source.
    pub fn text(&self) -> String {
        self.modules().map(EcoModule::text).collect()
    }
}
