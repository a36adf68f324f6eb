//! Simulated-annealing standard-cell placement and the placed-module
//! output consumed by the channel router.

use maestro_geom::{Lambda, Point};
use maestro_netlist::{DeviceId, LayoutStyle, Module, NetId, NetlistError, StatsCache};
use maestro_tech::ProcessDb;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::anneal::{anneal_replicas, AnnealSchedule, AnnealState, EvalMode, Walk};
use crate::feedthrough;
use crate::hpwl::HpwlJournal;
use crate::row_model;

/// Weight of the row-width-imbalance penalty relative to wirelength.
const BALANCE_WEIGHT: f64 = 0.5;

/// Parameters of a placement run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceParams {
    /// Number of standard-cell rows.
    pub rows: u32,
    /// Annealing seed (placements are deterministic per seed).
    pub seed: u64,
    /// Cooling schedule.
    pub schedule: AnnealSchedule,
    /// Independently seeded annealing walks to run and reduce best-of
    /// (`1` = single walk, bit-identical to the pre-replica engine).
    pub replicas: usize,
}

impl Default for PlaceParams {
    fn default() -> Self {
        PlaceParams {
            rows: 2,
            seed: 1988,
            schedule: AnnealSchedule::default(),
            replicas: 1,
        }
    }
}

/// One placed cell: a device at a concrete row offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacedCell {
    /// The placed device.
    pub device: DeviceId,
    /// Left edge within the row.
    pub x: Lambda,
    /// Cell width.
    pub width: Lambda,
}

/// One placed row: cells in left-to-right order plus the feed-throughs
/// inserted after placement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacedRow {
    /// Cells in left-to-right order.
    pub cells: Vec<PlacedCell>,
    /// Feed-throughs inserted in this row.
    pub feedthroughs: u32,
}

impl PlacedRow {
    /// Total cell width of the row (excluding feed-throughs).
    pub fn cell_width(&self) -> Lambda {
        self.cells.iter().map(|c| c.width).sum()
    }
}

/// Where one net touches the placed rows: cell pins plus the feed-through
/// crossings inserted for it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetTopology {
    /// The net.
    pub net: NetId,
    /// Cell pin locations as (row index, x).
    pub pins: Vec<(u32, Lambda)>,
    /// Feed-through crossings as (row index, x).
    pub feedthroughs: Vec<(u32, Lambda)>,
    /// `true` if the net reaches a module port.
    pub external: bool,
}

impl NetTopology {
    /// The rows this net touches (pins and feed-throughs), ascending and
    /// deduplicated.
    pub fn rows_touched(&self) -> Vec<u32> {
        let mut rows = Vec::new();
        self.rows_touched_into(&mut rows);
        rows
    }

    /// [`NetTopology::rows_touched`] into a caller-provided buffer, so hot
    /// loops (feed-through insertion, per-move scans) can reuse one
    /// allocation across nets. Clears `out` first.
    pub fn rows_touched_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.pins.iter().chain(&self.feedthroughs).map(|&(r, _)| r));
        out.sort_unstable();
        out.dedup();
    }
}

/// A fully placed module: the "real layout" input for channel routing and
/// area assembly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacedModule {
    module_name: String,
    row_height: Lambda,
    feedthrough_width: Lambda,
    track_pitch: Lambda,
    rows: Vec<PlacedRow>,
    topologies: Vec<NetTopology>,
    hpwl: Lambda,
}

impl PlacedModule {
    /// Module name.
    pub fn module_name(&self) -> &str {
        &self.module_name
    }

    /// Cell/row height.
    pub fn row_height(&self) -> Lambda {
        self.row_height
    }

    /// Width of one feed-through column.
    pub fn feedthrough_width(&self) -> Lambda {
        self.feedthrough_width
    }

    /// Routing-track pitch of the process.
    pub fn track_pitch(&self) -> Lambda {
        self.track_pitch
    }

    /// Placed rows, top (index 0) to bottom.
    pub fn rows(&self) -> &[PlacedRow] {
        &self.rows
    }

    /// Per-net placement topology (indexed alongside the module's nets,
    /// but only nets with at least one component appear).
    pub fn topologies(&self) -> &[NetTopology] {
        &self.topologies
    }

    /// Total half-perimeter wirelength of the placement.
    pub fn hpwl(&self) -> Lambda {
        self.hpwl
    }

    /// Module width: the widest row including feed-through columns.
    pub fn width(&self) -> Lambda {
        self.rows
            .iter()
            .map(|r| r.cell_width() + self.feedthrough_width * r.feedthroughs as i64)
            .max()
            .unwrap_or(Lambda::ZERO)
    }

    /// Total feed-throughs across all rows.
    pub fn total_feedthroughs(&self) -> u32 {
        self.rows.iter().map(|r| r.feedthroughs).sum()
    }

    pub(crate) fn rows_mut(&mut self) -> &mut Vec<PlacedRow> {
        &mut self.rows
    }

    pub(crate) fn topologies_mut(&mut self) -> &mut Vec<NetTopology> {
        &mut self.topologies
    }
}

/// The annealing state: device-to-row assignment with order within rows.
#[derive(Clone)]
struct PlaceState {
    /// Device widths by device index.
    widths: Vec<i64>,
    /// Rows of device indices.
    rows: Vec<Vec<u32>>,
    /// Inverse map: device -> row.
    row_of: Vec<u32>,
    /// Vertical distance between adjacent row centerlines.
    y_pitch: f64,
    target_row_width: f64,
    /// Cached x center per device.
    x: Vec<f64>,
    /// Cached total cell width per row.
    row_width: Vec<i64>,
    /// Each net's devices and their cached HPWL.
    hpwl: HpwlJournal,
    // Undo journals for the caches overwritten by the current move.
    undo_x: Vec<(u32, f64)>,
    undo_roww: Vec<(u32, i64)>,
    undo: Option<UndoMove>,
}

#[derive(Clone)]
enum UndoMove {
    Swap { a: u32, b: u32 },
    Relocate { device: u32, row: u32, index: usize },
}

impl PlaceState {
    /// The one-row model of `module` folded into `rows` rows, with its
    /// caches not yet built. Every device's template must resolve in
    /// `tech`'s cell library.
    fn new(module: &Module, tech: &ProcessDb, rows: u32) -> PlaceState {
        let widths: Vec<Lambda> = (0..module.device_count())
            .map(|i| {
                let d = module.device(DeviceId::new(i as u32));
                tech.cell_library()
                    .cell(d.template())
                    .expect("resolved above")
                    .width()
            })
            .collect();
        let order = row_model::one_row_order(module);
        let folded = row_model::fold(&order, &widths, rows);
        let nets: Vec<Vec<u32>> = module
            .nets()
            .map(|(_, net)| net.components().iter().map(|d| d.index() as u32).collect())
            .collect();
        let mut row_of = vec![0u32; module.device_count()];
        let folded: Vec<Vec<u32>> = folded
            .iter()
            .enumerate()
            .map(|(r, row)| {
                row.iter()
                    .map(|d| {
                        row_of[d.index()] = r as u32;
                        d.index() as u32
                    })
                    .collect()
            })
            .collect();
        let total_width: i64 = widths.iter().map(|w| w.get()).sum();
        PlaceState {
            widths: widths.iter().map(|w| w.get()).collect(),
            hpwl: HpwlJournal::new(module.device_count(), nets),
            row_width: vec![0; folded.len()],
            rows: folded,
            row_of,
            y_pitch: (tech.row_height() + tech.track_pitch() * 3).as_f64(),
            target_row_width: total_width as f64 / rows as f64,
            x: Vec::new(),
            undo_x: Vec::new(),
            undo_roww: Vec::new(),
            undo: None,
        }
    }

    fn x_centers(&self) -> Vec<f64> {
        let mut x = vec![0.0f64; self.widths.len()];
        for row in &self.rows {
            let mut acc = 0.0;
            for &d in row {
                let w = self.widths[d as usize] as f64;
                x[d as usize] = acc + w / 2.0;
                acc += w;
            }
        }
        x
    }

    /// Cost from the journal's exact HPWL total and the cached row
    /// widths, equal to the reference accumulation bit for bit. Rows sum
    /// in row order.
    fn delta_cost(&self) -> f64 {
        let balance: f64 = self
            .row_width
            .iter()
            .map(|&w| (w as f64 - self.target_row_width).abs())
            .sum();
        self.hpwl.total() + BALANCE_WEIGHT * balance
    }

    /// Recomputes one row's x prefix from index `from` on (journaling
    /// overwrites and marking moved cells' nets) and its cached width.
    /// Cells before `from` did not move, so the prefix sum resumes at the
    /// previous cell's right edge, `x + w/2`: integer widths keep every
    /// term a multiple of 0.5, so that is exactly the sum of the widths
    /// before `from`, and the final sum is exactly the row width.
    fn recompute_row(&mut self, r: u32, from: usize) {
        let mut acc = match from.checked_sub(1) {
            Some(prev) => {
                let d = self.rows[r as usize][prev] as usize;
                self.x[d] + self.widths[d] as f64 / 2.0
            }
            None => 0.0f64,
        };
        for i in from..self.rows[r as usize].len() {
            let d = self.rows[r as usize][i] as usize;
            let w = self.widths[d] as f64;
            let nx = acc + w / 2.0;
            if nx != self.x[d] {
                self.undo_x
                    .push((d as u32, std::mem::replace(&mut self.x[d], nx)));
                self.hpwl.mark(d as u32);
            }
            acc += w;
        }
        let wsum = acc as i64;
        if wsum != self.row_width[r as usize] {
            self.undo_roww
                .push((r, std::mem::replace(&mut self.row_width[r as usize], wsum)));
        }
    }
}

/// The journal's centre lookup over cached x centres and row indices.
fn device_centre<'a>(
    x: &'a [f64],
    row_of: &'a [u32],
    y_pitch: f64,
) -> impl Fn(u32) -> (f64, f64) + 'a {
    move |d| (x[d as usize], row_of[d as usize] as f64 * y_pitch)
}

impl AnnealState for PlaceState {
    /// The rows a move rewrote from the given cell indices on, and the
    /// devices it moved (either pair may repeat an entry).
    type Touched = ([(u32, usize); 2], [u32; 2]);

    fn apply(&mut self, rng: &mut StdRng) -> Option<Self::Touched> {
        let n = self.widths.len() as u32;
        if rng.gen_bool(0.5) || self.rows.len() == 1 {
            // Swap two distinct devices.
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n);
            while b == a && n > 1 {
                b = rng.gen_range(0..n);
            }
            let (ra, rb) = (self.row_of[a as usize], self.row_of[b as usize]);
            let ia = self.rows[ra as usize]
                .iter()
                .position(|&d| d == a)
                .expect("a placed");
            let ib = self.rows[rb as usize]
                .iter()
                .position(|&d| d == b)
                .expect("b placed");
            self.rows[ra as usize][ia] = b;
            self.rows[rb as usize][ib] = a;
            self.row_of[a as usize] = rb;
            self.row_of[b as usize] = ra;
            self.undo = Some(UndoMove::Swap { a, b });
            Some(([(ra, ia), (rb, ib)], [a, b]))
        } else {
            // Relocate a device to a random position in a random row.
            let d = rng.gen_range(0..n);
            let from_row = self.row_of[d as usize];
            let from_idx = self.rows[from_row as usize]
                .iter()
                .position(|&x| x == d)
                .expect("device placed");
            self.rows[from_row as usize].remove(from_idx);
            let to_row = rng.gen_range(0..self.rows.len()) as u32;
            let to_idx = rng.gen_range(0..=self.rows[to_row as usize].len());
            self.rows[to_row as usize].insert(to_idx, d);
            self.row_of[d as usize] = to_row;
            self.undo = Some(UndoMove::Relocate {
                device: d,
                row: from_row,
                index: from_idx,
            });
            Some(([(from_row, from_idx), (to_row, to_idx)], [d, d]))
        }
    }

    fn undo(&mut self) {
        match self.undo.take().expect("revert without move") {
            UndoMove::Swap { a, b } => {
                let (ra, rb) = (self.row_of[a as usize], self.row_of[b as usize]);
                let ia = self.rows[ra as usize]
                    .iter()
                    .position(|&d| d == a)
                    .expect("a placed");
                let ib = self.rows[rb as usize]
                    .iter()
                    .position(|&d| d == b)
                    .expect("b placed");
                self.rows[ra as usize][ia] = b;
                self.rows[rb as usize][ib] = a;
                self.row_of[a as usize] = rb;
                self.row_of[b as usize] = ra;
            }
            UndoMove::Relocate { device, row, index } => {
                let cur_row = self.row_of[device as usize];
                let cur_idx = self.rows[cur_row as usize]
                    .iter()
                    .position(|&x| x == device)
                    .expect("device placed");
                self.rows[cur_row as usize].remove(cur_idx);
                self.rows[row as usize].insert(index, device);
                self.row_of[device as usize] = row;
            }
        }
    }

    /// Every cell coordinate and every net from scratch.
    fn full_cost(&self) -> f64 {
        let x = self.x_centers();
        let mut hpwl = 0.0;
        for net in self.hpwl.nets() {
            if net.len() < 2 {
                continue;
            }
            let mut min_x = f64::MAX;
            let mut max_x = f64::MIN;
            let mut min_y = f64::MAX;
            let mut max_y = f64::MIN;
            for &d in net {
                let cx = x[d as usize];
                let cy = self.row_of[d as usize] as f64 * self.y_pitch;
                min_x = min_x.min(cx);
                max_x = max_x.max(cx);
                min_y = min_y.min(cy);
                max_y = max_y.max(cy);
            }
            hpwl += (max_x - min_x) + (max_y - min_y);
        }
        let balance: f64 = self
            .rows
            .iter()
            .map(|row| {
                let w: i64 = row.iter().map(|&d| self.widths[d as usize]).sum();
                (w as f64 - self.target_row_width).abs()
            })
            .sum();
        hpwl + BALANCE_WEIGHT * balance
    }

    fn rebuild(&mut self) -> f64 {
        self.x = self.x_centers();
        for r in 0..self.rows.len() {
            self.row_width[r] = self.rows[r].iter().map(|&d| self.widths[d as usize]).sum();
        }
        self.hpwl
            .rebuild(device_centre(&self.x, &self.row_of, self.y_pitch));
        // A rebuild is not revertible.
        self.undo_x.clear();
        self.undo_roww.clear();
        self.delta_cost()
    }

    /// Recomputes only the touched rows' coordinates from the first
    /// moved cell on, and the nets incident to cells that moved.
    fn update(&mut self, (touched, moved): Self::Touched) -> f64 {
        self.hpwl.begin();
        self.undo_x.clear();
        self.undo_roww.clear();
        let [(ra, ia), (rb, ib)] = touched;
        if ra == rb {
            self.recompute_row(ra, ia.min(ib));
        } else {
            self.recompute_row(ra, ia);
            self.recompute_row(rb, ib);
        }
        // Moved devices may keep their x (equal-width swap) but still
        // change row — their nets are always dirty.
        self.hpwl.mark(moved[0]);
        if moved[1] != moved[0] {
            self.hpwl.mark(moved[1]);
        }
        self.hpwl
            .settle(device_centre(&self.x, &self.row_of, self.y_pitch));
        self.delta_cost()
    }

    fn restore(&mut self) {
        for (d, v) in self.undo_x.drain(..).rev() {
            self.x[d as usize] = v;
        }
        self.hpwl.revert();
        for (r, v) in self.undo_roww.drain(..).rev() {
            self.row_width[r as usize] = v;
        }
    }
}

/// Places `module` into `params.rows` rows: one-row model, folding, then
/// simulated annealing; finally inserts feed-throughs for every net that
/// crosses a row without a pin there.
///
/// # Errors
///
/// Returns [`NetlistError::UnknownTemplate`] if a device's template is
/// missing from the cell library, or [`NetlistError::Invalid`] for an
/// empty module or a zero row count.
pub fn place(
    module: &Module,
    tech: &ProcessDb,
    params: &PlaceParams,
) -> Result<PlacedModule, NetlistError> {
    place_with(module, tech, params, EvalMode::Delta)
}

/// [`place`] on the full-refresh reference path: every move and revert
/// recomputes every coordinate and every net. Output is bit-identical to
/// [`place`]; kept for differential testing of the delta evaluator.
///
/// # Errors
///
/// Same as [`place`].
#[doc(hidden)]
pub fn place_full_refresh(
    module: &Module,
    tech: &ProcessDb,
    params: &PlaceParams,
) -> Result<PlacedModule, NetlistError> {
    place_with(module, tech, params, EvalMode::Full)
}

fn place_with(
    module: &Module,
    tech: &ProcessDb,
    params: &PlaceParams,
    mode: EvalMode,
) -> Result<PlacedModule, NetlistError> {
    if module.device_count() == 0 {
        return Err(NetlistError::invalid("cannot place an empty module"));
    }
    if params.rows == 0 {
        return Err(NetlistError::invalid("row count must be positive"));
    }
    let _place_span = maestro_trace::span_with("place", || module.name().to_owned());
    // Resolve templates (errors early, uniform with the estimator). Served
    // from the shared resolve-once cache: a placement run after a pipeline
    // estimate of the same module re-uses the estimate's analysis.
    let stats = StatsCache::shared().resolve(module, tech, LayoutStyle::StandardCell)?;
    let state = PlaceState::new(module, tech, params.rows);
    let net_count = state.hpwl.nets().len();
    let mut walk = Walk::new(state, mode);
    // `anneal` never ends above its start, so the router never gets
    // anything worse than the folded one-row model.
    anneal_replicas(
        &mut walk,
        None,
        &params.schedule,
        params.seed,
        params.replicas,
        64,
        net_count,
    );
    let state = walk.state();

    // Materialize coordinates.
    let mut placed_rows = Vec::with_capacity(state.rows.len());
    let mut device_pos: Vec<(u32, Lambda)> = vec![(0, Lambda::ZERO); module.device_count()];
    for (r, row) in state.rows.iter().enumerate() {
        let mut cells = Vec::with_capacity(row.len());
        let mut acc = Lambda::ZERO;
        for &d in row {
            let width = Lambda::new(state.widths[d as usize]);
            cells.push(PlacedCell {
                device: DeviceId::new(d),
                x: acc,
                width,
            });
            device_pos[d as usize] = (r as u32, acc);
            acc += width;
        }
        placed_rows.push(PlacedRow {
            cells,
            feedthroughs: 0,
        });
    }

    // Net topologies from placed pin locations.
    let mut topologies = Vec::new();
    for (id, net) in module.nets() {
        if net.component_count() == 0 {
            continue;
        }
        let mut pins = Vec::new();
        for (device, pin) in net.pins() {
            let dev = module.device(device);
            let (row, base_x) = device_pos[device.index()];
            let cell = tech
                .cell_library()
                .cell(dev.template())
                .expect("resolved above");
            let offset = cell
                .pin_location(pin)
                .map(|p: Point| p.x)
                .unwrap_or(cell.width() / 2);
            pins.push((row, base_x + offset));
        }
        pins.sort_unstable();
        pins.dedup();
        topologies.push(NetTopology {
            net: id,
            pins,
            feedthroughs: Vec::new(),
            external: net.is_external(),
        });
    }

    // Final wirelength for reporting (pure HPWL, no balance term).
    let hpwl = {
        let mut total = 0i64;
        for t in &topologies {
            if t.pins.len() < 2 {
                continue;
            }
            let xs: Vec<i64> = t.pins.iter().map(|&(_, x)| x.get()).collect();
            let rs: Vec<i64> = t.pins.iter().map(|&(r, _)| r as i64).collect();
            let dx = xs.iter().max().unwrap() - xs.iter().min().unwrap();
            let dr = rs.iter().max().unwrap() - rs.iter().min().unwrap();
            total += dx + dr * (tech.row_height() + tech.track_pitch() * 3).get();
        }
        Lambda::new(total)
    };

    let mut placed = PlacedModule {
        module_name: module.name().to_owned(),
        row_height: tech.row_height(),
        feedthrough_width: tech.feedthrough_width(),
        track_pitch: tech.track_pitch(),
        rows: placed_rows,
        topologies,
        hpwl,
    };
    feedthrough::insert_feedthroughs(&mut placed);
    let _ = stats; // resolved for validation only
    Ok(placed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_netlist::generate;
    use maestro_tech::builtin;

    fn quick_params(rows: u32) -> PlaceParams {
        PlaceParams {
            rows,
            schedule: AnnealSchedule::quick(),
            ..PlaceParams::default()
        }
    }

    #[test]
    fn places_all_devices_exactly_once() {
        let m = generate::ripple_adder(3);
        let placed = place(&m, &builtin::nmos25(), &quick_params(3)).expect("places");
        let mut seen: Vec<u32> = placed
            .rows()
            .iter()
            .flat_map(|r| r.cells.iter().map(|c| c.device.index() as u32))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), m.device_count());
    }

    #[test]
    fn cells_do_not_overlap_within_rows() {
        let m = generate::counter(5);
        let placed = place(&m, &builtin::nmos25(), &quick_params(2)).expect("places");
        for row in placed.rows() {
            let mut edge = Lambda::ZERO;
            for c in &row.cells {
                assert!(
                    c.x >= edge,
                    "cell at {} overlaps previous ending {edge}",
                    c.x
                );
                edge = c.x + c.width;
            }
        }
    }

    #[test]
    fn annealing_beats_or_matches_initial_hpwl() {
        // Run with a *degenerate* schedule (no moves) vs a real one; the
        // annealed result must not be worse.
        let m = generate::ripple_adder(4);
        let tech = builtin::nmos25();
        let frozen = PlaceParams {
            rows: 3,
            schedule: AnnealSchedule {
                rounds: 0,
                ..AnnealSchedule::quick()
            },
            ..PlaceParams::default()
        };
        let initial = place(&m, &tech, &frozen).expect("places");
        let annealed = place(&m, &tech, &quick_params(3)).expect("places");
        assert!(
            annealed.hpwl() <= initial.hpwl(),
            "annealed {} vs initial {}",
            annealed.hpwl(),
            initial.hpwl()
        );
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let m = generate::counter(4);
        let tech = builtin::nmos25();
        let a = place(&m, &tech, &quick_params(2)).expect("places");
        let b = place(&m, &tech, &quick_params(2)).expect("places");
        assert_eq!(a, b);
    }

    #[test]
    fn delta_matches_full_refresh() {
        // The incremental coordinate/HPWL caches must not change a
        // single accept/reject decision: final placements are
        // bit-identical.
        let tech = builtin::nmos25();
        for (m, rows) in [
            (generate::counter(4), 1),
            (generate::ripple_adder(3), 3),
            (generate::shift_register(12), 4),
        ] {
            let delta = place(&m, &tech, &quick_params(rows)).expect("places");
            let full = place_full_refresh(&m, &tech, &quick_params(rows)).expect("places");
            assert_eq!(delta, full, "{} diverged", m.name());
        }
    }

    #[test]
    fn every_move_and_revert_prices_like_the_reference() {
        // Per move, not only per run: the delta cost after each move and
        // each revert equals a from-scratch pricing of the same rows.
        let tech = builtin::nmos25();
        for devices in [4, 9, 16, 27, 40, 64] {
            let m = generate::random_logic(
                devices as u64,
                &generate::RandomLogicConfig {
                    device_count: devices,
                    input_count: (devices / 8).clamp(2, 24),
                    ..generate::RandomLogicConfig::default()
                },
            );
            for rows in 1..=4 {
                let state = PlaceState::new(&m, &tech, rows);
                let step = crate::anneal::first_delta_divergence(state, 3_000, u64::from(rows));
                assert_eq!(step, None, "{} at {rows} rows", m.name());
            }
        }
    }

    #[test]
    fn one_replica_matches_the_pre_replica_path_and_four_are_deterministic() {
        let m = generate::counter(4);
        let tech = builtin::nmos25();
        let one = place(&m, &tech, &quick_params(2)).expect("places");
        let explicit_one = place(
            &m,
            &tech,
            &PlaceParams {
                replicas: 1,
                ..quick_params(2)
            },
        )
        .expect("places");
        assert_eq!(one, explicit_one, "replicas=1 is the default single walk");

        let four_params = PlaceParams {
            replicas: 4,
            ..quick_params(2)
        };
        let four_a = place(&m, &tech, &four_params).expect("places");
        let four_b = place(&m, &tech, &four_params).expect("places");
        assert_eq!(four_a, four_b, "replicas=4 must be reproducible");
    }

    #[test]
    fn width_includes_feedthrough_columns() {
        let m = generate::shift_register(12);
        let placed = place(&m, &builtin::nmos25(), &quick_params(4)).expect("places");
        let max_cells = placed.rows().iter().map(|r| r.cell_width()).max().unwrap();
        assert!(placed.width() >= max_cells);
        if placed.total_feedthroughs() > 0 {
            assert!(
                placed.width() > max_cells || placed.rows().iter().all(|r| r.feedthroughs == 0)
            );
        }
    }

    #[test]
    fn empty_module_is_an_error() {
        let b = maestro_netlist::ModuleBuilder::new("empty");
        let err = place(&b.finish(), &builtin::nmos25(), &quick_params(2)).unwrap_err();
        assert!(matches!(err, NetlistError::Invalid { .. }));
    }

    #[test]
    fn zero_rows_is_an_error() {
        let m = generate::counter(2);
        let err = place(&m, &builtin::nmos25(), &quick_params(0)).unwrap_err();
        assert!(matches!(err, NetlistError::Invalid { .. }));
    }

    #[test]
    fn unknown_template_propagates() {
        let mut b = maestro_netlist::ModuleBuilder::new("alien");
        let n = b.net("n");
        b.device("u1", "WARP_GATE", [("A", n)]);
        let err = place(&b.finish(), &builtin::nmos25(), &quick_params(1)).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownTemplate { .. }));
    }

    #[test]
    fn topologies_cover_all_connected_nets() {
        let m = generate::ripple_adder(2);
        let placed = place(&m, &builtin::nmos25(), &quick_params(2)).expect("places");
        let connected = m.nets().filter(|(_, n)| n.component_count() > 0).count();
        assert_eq!(placed.topologies().len(), connected);
        for t in placed.topologies() {
            assert!(!t.pins.is_empty());
        }
    }
}
