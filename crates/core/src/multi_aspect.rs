//! Multiple aspect-ratio candidates — the paper's second future-work item.
//!
//! §7: "the estimator will be changed to output four or five aspect ratio
//! estimates to allow chip floor planners more flexibility in choosing
//! module shapes." Two generators implement this:
//!
//! * [`sc_candidates`] — re-runs the standard-cell estimator at a window
//!   of row counts around the §5 seed: each row count yields a genuinely
//!   different (width, height) realization, because tracks and
//!   feed-throughs change with `n`;
//! * [`fc_shape_curve`] — samples the full-custom area at several aspect
//!   ratios in the paper's typical 1:2…2:1 band and returns a
//!   [`ShapeCurve`] the slicing floorplanner consumes directly.

use maestro_geom::{ShapeCurve, ShapePoint};
use maestro_netlist::NetlistStats;
use maestro_tech::ProcessDb;

use crate::full_custom::FcEstimate;
use crate::prob::{ProbTable, MAX_ROWS};
use crate::standard_cell::{estimate_with_rows_using, initial_rows, ScEstimate, ScParams};

/// Default number of candidates, the paper's "four or five".
pub const DEFAULT_CANDIDATES: usize = 5;

/// Standard-cell shape candidates: estimates at `count` row counts centred
/// on the §5 seed (clamped to `1..=MAX_ROWS`), deduplicated and sorted by
/// row count.
///
/// The whole sweep shares the process-wide [`ProbTable::shared`] memo —
/// adjacent row counts re-query many of the same `(rows, D)` pairs.
///
/// # Panics
///
/// Panics if the module has no devices or `count == 0`.
pub fn sc_candidates(stats: &NetlistStats, tech: &ProcessDb, count: usize) -> Vec<ScEstimate> {
    sc_candidates_using(
        stats,
        tech,
        count,
        &ScParams::default(),
        &ProbTable::shared(),
    )
}

/// [`sc_candidates`] against explicit estimator parameters and an
/// explicit probability table. The window centres on `params.rows` when
/// set (instead of the §5 seed) and never exceeds [`MAX_ROWS`], so
/// a pipeline-level row override shifts the whole sweep.
///
/// # Panics
///
/// Panics if the module has no devices or `count == 0`.
pub fn sc_candidates_using(
    stats: &NetlistStats,
    tech: &ProcessDb,
    count: usize,
    params: &ScParams,
    table: &ProbTable,
) -> Vec<ScEstimate> {
    candidate_rows(stats, tech, count, params)
        .into_iter()
        .map(|n| estimate_with_rows_using(stats, tech, n, table))
        .collect()
}

/// Uncached reference implementation of [`sc_candidates`]: every row count
/// rebuilds its Eq. 2 distributions from scratch, as the sweep originally
/// did. Kept for differential tests and as the benchmark baseline.
///
/// # Panics
///
/// Panics if the module has no devices or `count == 0`.
pub fn sc_candidates_uncached(
    stats: &NetlistStats,
    tech: &ProcessDb,
    count: usize,
) -> Vec<ScEstimate> {
    candidate_rows(stats, tech, count, &ScParams::default())
        .into_iter()
        .map(|n| crate::standard_cell::estimate_with_rows_uncached(stats, tech, n))
        .collect()
}

/// The candidate row counts: a window of `count` row counts centred on
/// the resolved seed (`params.rows`, else §5), clamped to
/// `1..=MAX_ROWS`, deduplicated and ascending.
fn candidate_rows(
    stats: &NetlistStats,
    tech: &ProcessDb,
    count: usize,
    params: &ScParams,
) -> Vec<u32> {
    assert!(count > 0, "need at least one candidate");
    let seed = params
        .rows
        .map(|r| r.clamp(1, MAX_ROWS))
        .unwrap_or_else(|| initial_rows(stats, tech));
    // Exactly `count` deltas centred on the seed (an even count's odd
    // slot goes toward more rows), so no post-hoc truncation can skew
    // the window.
    let lo = seed as i64 - (count as i64 - 1) / 2;
    let mut rows: Vec<u32> = (lo..lo + count as i64)
        .map(|r| r.clamp(1, MAX_ROWS as i64) as u32)
        .collect();
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// The standard-cell candidates as a floorplanner-ready shape curve.
///
/// # Panics
///
/// Panics on the same inputs as [`sc_candidates`].
pub fn sc_shape_curve(stats: &NetlistStats, tech: &ProcessDb, count: usize) -> ShapeCurve {
    let candidates = sc_candidates(stats, tech, count);
    ShapeCurve::from_points(
        candidates
            .iter()
            .map(|e| ShapePoint::new(e.width, e.height)),
    )
}

/// Full-custom shape candidates: the estimated area re-shaped at `count`
/// aspect ratios spread over `[0.5, 2.0]` (the paper's "1:1 to 1:2"
/// manual-layout band, both orientations).
///
/// # Panics
///
/// Panics if the estimate has non-positive area or `count == 0`.
pub fn fc_shape_curve(estimate: &FcEstimate, count: usize) -> ShapeCurve {
    assert!(count > 0, "need at least one candidate");
    ShapeCurve::soft(estimate.total_exact, 0.5, 2.0, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full_custom;
    use maestro_netlist::{generate, library_circuits, LayoutStyle};
    use maestro_tech::builtin;

    fn sc_stats(module: &maestro_netlist::Module) -> NetlistStats {
        NetlistStats::resolve(module, &builtin::nmos25(), LayoutStyle::StandardCell)
            .expect("resolves")
    }

    #[test]
    fn produces_requested_candidate_count() {
        let tech = builtin::nmos25();
        let stats = sc_stats(&generate::ripple_adder(4));
        let cands = sc_candidates(&stats, &tech, DEFAULT_CANDIDATES);
        assert!((2..=DEFAULT_CANDIDATES).contains(&cands.len()));
        // Distinct row counts, ascending.
        for w in cands.windows(2) {
            assert!(w[0].rows < w[1].rows);
        }
    }

    #[test]
    fn candidates_trade_width_for_height() {
        let tech = builtin::nmos25();
        let stats = sc_stats(&generate::ripple_adder(4));
        let cands = sc_candidates(&stats, &tech, 5);
        // More rows -> narrower rows (smaller width contribution from
        // cells) even though feed-throughs may add back.
        let first = &cands[0];
        let last = &cands[cands.len() - 1];
        assert!(last.rows > first.rows);
        assert!(last.aspect_ratio.as_f64() < first.aspect_ratio.as_f64());
    }

    #[test]
    fn sc_curve_is_nonempty_frontier() {
        let tech = builtin::nmos25();
        let stats = sc_stats(&generate::counter(6));
        let curve = sc_shape_curve(&stats, &tech, 5);
        assert!(!curve.is_empty());
        // Frontier property: widths ascend, heights descend.
        for w in curve.points().windows(2) {
            assert!(w[0].width < w[1].width && w[0].height > w[1].height);
        }
    }

    #[test]
    fn fc_curve_spans_the_typical_band() {
        let tech = builtin::nmos25();
        let m = library_circuits::nmos_full_adder();
        let stats = NetlistStats::resolve(&m, &tech, LayoutStyle::FullCustom).unwrap();
        let est = full_custom::estimate(&stats, &tech);
        let curve = fc_shape_curve(&est, 5);
        assert!(curve.len() >= 3);
        for p in curve.points() {
            let ratio = p.width.as_f64() / p.height.as_f64();
            assert!((0.4..=2.6).contains(&ratio), "ratio {ratio} out of band");
            // Area preserved within ceil-rounding slack.
            let a = p.area().get();
            let target = est.total_exact.get();
            assert!(a >= target && a <= target + 2 * (a as f64).sqrt() as i64 + 4);
        }
    }

    #[test]
    fn candidate_window_is_exact_for_all_counts() {
        // Regression: even counts used to generate `count + 2` deltas
        // and truncate asymmetrically. The window must hold exactly
        // `count` row counts centred on the §5 seed whenever clamping
        // doesn't intervene, and never more than `count`.
        let tech = builtin::nmos25();
        let stats = sc_stats(&generate::ripple_adder(4));
        let seed = initial_rows(&stats, &tech) as i64;
        for count in 1..=8usize {
            let rows = candidate_rows(&stats, &tech, count, &ScParams::default());
            assert!(rows.len() <= count, "count {count} gave {rows:?}");
            for w in rows.windows(2) {
                assert!(w[0] < w[1], "count {count} not ascending: {rows:?}");
            }
            let lo = seed - (count as i64 - 1) / 2;
            let hi = lo + count as i64 - 1;
            if lo >= 1 && hi <= MAX_ROWS as i64 {
                assert_eq!(rows.len(), count, "count {count} gave {rows:?}");
                assert_eq!(rows[0] as i64, lo, "count {count} window {rows:?}");
                assert_eq!(*rows.last().unwrap() as i64, hi);
                assert!(rows.contains(&(seed as u32)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn zero_candidates_rejected() {
        let tech = builtin::nmos25();
        let stats = sc_stats(&generate::counter(2));
        let _ = sc_candidates(&stats, &tech, 0);
    }
}
