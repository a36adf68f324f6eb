//! The standard-cell area estimator: the paper's §4.1 (Eq. 12) and §5
//! aspect-ratio algorithm (Eq. 14).
//!
//! The module is modeled as `n` rows of height `r_h` with a routing
//! channel between adjacent rows. Three unknowns are replaced by
//! expectations:
//!
//! 1. **Tracks.** Each net with `D` components is charged
//!    `⌈E(i)⌉` routing tracks, where `E(i)` is the expected number of rows
//!    the net's components occupy ([`crate::prob`], Eqs. 2–3). One signal
//!    per track — a deliberate **upper bound** (assumption 3 in §4.1).
//! 2. **Feed-throughs.** Every row is assumed to carry as many
//!    feed-throughs as the most-loaded (central) row, whose expected count
//!    is `E(M) = ⌈H·p_c⌉` ([`crate::feedthrough`], Eqs. 9–11).
//! 3. **Row length.** Each row carries `W_av·N/n` of cell width (Eq. 1)
//!    plus `E(M)` feed-throughs of width `f_w`.
//!
//! Module area (Eq. 12):
//!
//! ```text
//! A = [n·r_h + Σ_D y_D·⌈E(D)⌉·pitch] × [W_av·N/n + E(M)·f_w]
//! ```
//!
//! and the aspect ratio (Eq. 14) is width ÷ height of the same two
//! factors. When no row count is supplied, §5's iterative algorithm picks
//! the initial `n` so that all I/O ports fit along a row edge.

use maestro_geom::{AspectRatio, Lambda, LambdaArea};
use maestro_netlist::NetlistStats;
use maestro_tech::ProcessDb;
use serde::{Deserialize, Serialize};

use crate::feedthrough::expected_feedthroughs;
use crate::prob::{expected_tracks, ProbTable, MAX_COMPONENTS, MAX_ROWS};

/// Tuning knobs for the standard-cell estimator.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScParams {
    /// Explicit row count; `None` runs §5's initial-row-count algorithm.
    pub rows: Option<u32>,
}

impl ScParams {
    /// Parameters forcing an explicit row count (the paper's Table 2 rows
    /// sweep).
    pub fn with_rows(rows: u32) -> Self {
        ScParams { rows: Some(rows) }
    }
}

/// The standard-cell estimate for one module: every quantity the paper's
/// Table 2 reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScEstimate {
    /// Module name the estimate belongs to.
    pub module_name: String,
    /// Row count `n` used.
    pub rows: u32,
    /// Total routing tracks `Σ y_D·⌈E(D)⌉` (the Table 2 "# Tracks
    /// Estimated" column).
    pub tracks: u32,
    /// Expected feed-throughs in a row, `E(M)`.
    pub feedthroughs: u32,
    /// Estimated module width (row length including feed-throughs).
    pub width: Lambda,
    /// Estimated module height (rows plus routing channels).
    pub height: Lambda,
    /// Estimated module area, Eq. 12.
    pub area: LambdaArea,
    /// Estimated aspect ratio, Eq. 14 (width ÷ height).
    pub aspect_ratio: AspectRatio,
}

/// Total expected track count for all nets at a given row count:
/// `Σ_D y_D · ⌈E(D)⌉`. Component counts beyond
/// [`MAX_COMPONENTS`] are clamped (the `k = min(n, D)` truncation makes
/// the result independent of `D` beyond `n` anyway).
///
/// Served from the process-wide [`ProbTable::shared`] memo; see
/// [`total_tracks_using`] for an explicit table and
/// [`total_tracks_uncached`] for the reference path.
///
/// # Panics
///
/// Panics if `rows` is outside `1..=`[`MAX_ROWS`].
pub fn total_tracks(stats: &NetlistStats, rows: u32) -> u32 {
    total_tracks_using(stats, rows, &ProbTable::shared())
}

/// [`total_tracks`] against an explicit probability table.
///
/// # Panics
///
/// Panics if `rows` is outside `1..=`[`MAX_ROWS`].
pub fn total_tracks_using(stats: &NetlistStats, rows: u32, table: &ProbTable) -> u32 {
    stats
        .net_sizes()
        .iter()
        .map(|(d, y)| {
            let d = (d as u32).clamp(1, MAX_COMPONENTS);
            y as u32 * table.expected_tracks(rows, d)
        })
        .sum()
}

/// Uncached reference implementation of [`total_tracks`]: rebuilds the
/// Eq. 2 distribution from scratch per net, as the estimator originally
/// did. Kept for differential tests and as the benchmark baseline.
///
/// # Panics
///
/// Panics if `rows` is outside `1..=`[`MAX_ROWS`].
pub fn total_tracks_uncached(stats: &NetlistStats, rows: u32) -> u32 {
    stats
        .net_sizes()
        .iter()
        .map(|(d, y)| {
            let d = (d as u32).clamp(1, MAX_COMPONENTS);
            y as u32 * expected_tracks(rows, d)
        })
        .sum()
}

/// §5's initial-row-count algorithm: divide the square root of the active
/// cell area by `i` row heights (starting at `i = 2`), and accept the
/// first `n` whose row length fits all I/O ports; otherwise increase `i`
/// (fewer, longer rows) and retry. The row count explored is bounded by
/// [`MAX_ROWS`].
///
/// # Panics
///
/// Panics if the module has no devices.
pub fn initial_rows(stats: &NetlistStats, tech: &ProcessDb) -> u32 {
    assert!(stats.device_count() > 0, "cannot size an empty module");
    let active_area = stats.total_device_area().as_f64();
    let row_height = tech.row_height().as_f64();
    let port_length = (stats.port_count() as i64 * tech.port_pitch().get()) as f64;

    let mut i = 2u32;
    loop {
        let n = ((active_area.sqrt() / (i as f64 * row_height)).ceil() as u32).clamp(1, MAX_ROWS);
        let row_length = active_area / (n as f64 * row_height);
        if row_length >= port_length || n == 1 {
            return n;
        }
        i += 1;
    }
}

/// Everything in the §4.1 estimate downstream of the track count, shared
/// by the cached and uncached paths so they differ only in where
/// `Σ y_D·⌈E(D)⌉` comes from.
fn assemble_estimate(stats: &NetlistStats, tech: &ProcessDb, rows: u32, tracks: u32) -> ScEstimate {
    let feedthroughs = expected_feedthroughs(rows, stats.net_count());

    // Row length: W_av·N/n cell width plus E(M) feed-through columns.
    let cell_width = stats.average_width() * stats.device_count() as f64 / rows as f64;
    let width = Lambda::from_f64_ceil(cell_width) + tech.feedthrough_width() * feedthroughs as i64;

    // Module height: n rows plus all routing tracks at track pitch.
    let height = tech.row_height() * rows as i64 + tech.track_pitch() * tracks as i64;

    let area = width * height;
    let aspect_ratio = if width.is_positive() && height.is_positive() {
        AspectRatio::of(width, height)
    } else {
        AspectRatio::SQUARE
    };
    ScEstimate {
        module_name: stats.module_name().to_owned(),
        rows,
        tracks,
        feedthroughs,
        width,
        height,
        area,
        aspect_ratio,
    }
}

fn validate_estimate_inputs(stats: &NetlistStats, rows: u32) {
    assert!(stats.device_count() > 0, "cannot estimate an empty module");
    assert!(
        (1..=MAX_ROWS).contains(&rows),
        "row count {rows} outside 1..={MAX_ROWS}"
    );
}

/// Runs the full §4.1 estimator at an explicit row count, with Eq. 2–3
/// served from the process-wide [`ProbTable::shared`] memo.
///
/// # Panics
///
/// Panics if the module has no devices or `rows` is outside
/// `1..=`[`MAX_ROWS`].
pub fn estimate_with_rows(stats: &NetlistStats, tech: &ProcessDb, rows: u32) -> ScEstimate {
    estimate_with_rows_using(stats, tech, rows, &ProbTable::shared())
}

/// [`estimate_with_rows`] against an explicit probability table.
///
/// # Panics
///
/// Panics if the module has no devices or `rows` is outside
/// `1..=`[`MAX_ROWS`].
pub fn estimate_with_rows_using(
    stats: &NetlistStats,
    tech: &ProcessDb,
    rows: u32,
    table: &ProbTable,
) -> ScEstimate {
    validate_estimate_inputs(stats, rows);
    let tracks = total_tracks_using(stats, rows, table);
    assemble_estimate(stats, tech, rows, tracks)
}

/// Uncached reference implementation of [`estimate_with_rows`], for
/// differential tests and as the benchmark baseline.
///
/// # Panics
///
/// Panics if the module has no devices or `rows` is outside
/// `1..=`[`MAX_ROWS`].
pub fn estimate_with_rows_uncached(
    stats: &NetlistStats,
    tech: &ProcessDb,
    rows: u32,
) -> ScEstimate {
    validate_estimate_inputs(stats, rows);
    let tracks = total_tracks_uncached(stats, rows);
    assemble_estimate(stats, tech, rows, tracks)
}

/// Runs the estimator, choosing the row count per `params` (explicit or
/// §5's algorithm).
///
/// # Panics
///
/// Panics if the module has no devices or an explicit row count is out of
/// range.
pub fn estimate(stats: &NetlistStats, tech: &ProcessDb, params: &ScParams) -> ScEstimate {
    estimate_using(stats, tech, params, &ProbTable::shared())
}

/// [`estimate`] against an explicit probability table.
///
/// # Panics
///
/// Panics if the module has no devices or an explicit row count is out of
/// range.
pub fn estimate_using(
    stats: &NetlistStats,
    tech: &ProcessDb,
    params: &ScParams,
    table: &ProbTable,
) -> ScEstimate {
    let rows = params.rows.unwrap_or_else(|| initial_rows(stats, tech));
    estimate_with_rows_using(stats, tech, rows, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_netlist::{generate, LayoutStyle, ModuleBuilder};
    use maestro_tech::builtin;

    fn stats_of(module: &maestro_netlist::Module) -> NetlistStats {
        NetlistStats::resolve(module, &builtin::nmos25(), LayoutStyle::StandardCell)
            .expect("resolves")
    }

    #[test]
    fn hand_computed_two_cell_module() {
        // Two INVs (14λ) joined by one 2-component net; nMOS: r_h=40,
        // pitch=6, f_w=7.
        let mut b = ModuleBuilder::new("m");
        let n = b.net("n");
        b.device("u1", "INV", [("A", n)]);
        b.device("u2", "INV", [("A", n)]);
        let stats = stats_of(&b.finish());
        let tech = builtin::nmos25();
        let est = estimate_with_rows(&stats, &tech, 2);
        // E(2,2) = 2 − 1/2 = 1.5 -> 2 tracks.
        assert_eq!(est.tracks, 2);
        // p_c(2) = 1/8, H = 1 -> E(M) = ceil(0.125) = 1.
        assert_eq!(est.feedthroughs, 1);
        // width = ceil(14·2/2) + 1·7 = 21; height = 2·40 + 2·6 = 92.
        assert_eq!(est.width, Lambda::new(21));
        assert_eq!(est.height, Lambda::new(92));
        assert_eq!(est.area, LambdaArea::new(21 * 92));
        assert!((est.aspect_ratio.as_f64() - 21.0 / 92.0).abs() < 1e-12);
    }

    #[test]
    fn single_row_has_no_feedthroughs() {
        let m = generate::ripple_adder(2);
        let est = estimate_with_rows(&stats_of(&m), &builtin::nmos25(), 1);
        assert_eq!(est.feedthroughs, 0);
        assert_eq!(est.rows, 1);
        // One track per net in a single row.
        assert_eq!(est.tracks as usize, stats_of(&m).net_count());
    }

    #[test]
    fn area_decreases_with_more_rows_in_paper_range() {
        // The paper: "the area estimate decreased as the number of rows
        // increased" for its small examples.
        let m = generate::ripple_adder(4);
        let stats = stats_of(&m);
        let tech = builtin::nmos25();
        let a2 = estimate_with_rows(&stats, &tech, 2).area;
        let a4 = estimate_with_rows(&stats, &tech, 4).area;
        assert!(
            a4 < a2,
            "4 rows {a4} should beat 2 rows {a2} for a 20-gate module"
        );
    }

    #[test]
    fn tracks_grow_with_row_count() {
        let m = generate::ripple_adder(4);
        let stats = stats_of(&m);
        let t2 = total_tracks(&stats, 2);
        let t8 = total_tracks(&stats, 8);
        assert!(t8 >= t2, "more rows spread nets over more tracks");
    }

    #[test]
    fn initial_rows_fits_ports() {
        let m = generate::ripple_adder(4); // 14 ports
        let stats = stats_of(&m);
        let tech = builtin::nmos25();
        let n = initial_rows(&stats, &tech);
        assert!(n >= 1);
        // The accepted row length must fit the ports (or be the 1-row
        // fallback).
        let row_length = stats.total_device_area().as_f64() / (n as f64 * 40.0);
        let ports = (stats.port_count() as i64 * tech.port_pitch().get()) as f64;
        assert!(
            n == 1 || row_length >= ports,
            "n={n} len={row_length} ports={ports}"
        );
    }

    #[test]
    fn estimate_uses_params_row_override() {
        let m = generate::counter(4);
        let stats = stats_of(&m);
        let tech = builtin::nmos25();
        let est = estimate(&stats, &tech, &ScParams::with_rows(3));
        assert_eq!(est.rows, 3);
        let auto = estimate(&stats, &tech, &ScParams::default());
        assert!(auto.rows >= 1);
    }

    #[test]
    fn width_includes_feedthrough_columns() {
        let m = generate::shift_register(8);
        let stats = stats_of(&m);
        let tech = builtin::nmos25();
        let est = estimate_with_rows(&stats, &tech, 4);
        let bare_width =
            Lambda::from_f64_ceil(stats.average_width() * stats.device_count() as f64 / 4.0);
        assert_eq!(
            est.width,
            bare_width + tech.feedthrough_width() * est.feedthroughs as i64
        );
    }

    #[test]
    fn estimates_are_deterministic() {
        let m = generate::ripple_adder(3);
        let stats = stats_of(&m);
        let tech = builtin::nmos25();
        assert_eq!(
            estimate(&stats, &tech, &ScParams::default()),
            estimate(&stats, &tech, &ScParams::default())
        );
    }

    #[test]
    #[should_panic(expected = "empty module")]
    fn empty_module_rejected() {
        let b = ModuleBuilder::new("empty");
        let stats = stats_of(&b.finish());
        let _ = estimate_with_rows(&stats, &builtin::nmos25(), 2);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn zero_rows_rejected() {
        let m = generate::counter(2);
        let _ = estimate_with_rows(&stats_of(&m), &builtin::nmos25(), 0);
    }

    #[test]
    fn cmos_process_also_works() {
        // §3: "deals with different chip fabrication technologies".
        let m = generate::ripple_adder(4);
        let tech = builtin::cmos_generic();
        let stats = NetlistStats::resolve(&m, &tech, LayoutStyle::StandardCell).unwrap();
        let est = estimate(&stats, &tech, &ScParams::default());
        assert!(est.area.get() > 0);
        assert!(est.height.is_positive());
    }
}
