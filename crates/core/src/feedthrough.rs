//! Feed-through probability: the paper's Eqs. 4–11.
//!
//! A *feed-through* is a vertical wire crossing a standard-cell row to
//! connect net components placed above and below it. Row length — and
//! therefore module width — depends on how many feed-throughs the widest
//! row carries, so the estimator needs (a) which row is most likely to
//! carry feed-throughs and (b) how many to expect there.
//!
//! **Which row.** For a net with components placed uniformly at random in
//! `n` rows, the net causes a feed-through in row `i` exactly when at
//! least one component lies strictly above row `i` and at least one
//! strictly below (paper §4.1). By inclusion–exclusion this probability is
//!
//! ```text
//! P_ft(i) = 1 − ((n−i+1)/n)^D − (i/n)^D + (1/n)^D
//! ```
//!
//! which is the closed form of the paper's Eq. 5 double sum. Setting the
//! discrete derivative to zero (the paper's Eqs. 6–7) gives the interior
//! maximum at the **central row** `i* = (n+1)/2` — the paper's headline
//! observation, backed there by numerical simulation and by the
//! top/bottom-area product argument. [`most_likely_row`] and
//! [`row_profile`] expose this.
//!
//! **How many.** The paper then simplifies to the two-component-net model
//! (Eq. 9). For `D = 2` at the central row the closed form above reduces to
//!
//! ```text
//! p_c = 2 · ((i*−1)/n) · ((n−i*)/n) = (n−1)² / (2n²)
//! ```
//!
//! which tends to 0.5 as `n → ∞`, matching the paper's stated limit. (The
//! typeset Eq. 9 in the proceedings scan is garbled — `((n−1)/n)` with a
//! 0.5 limit is internally inconsistent — so we implement the derivable
//! form; see DESIGN.md.) The number of feed-throughs `M` in the central
//! row across `H` independent nets is then binomial (Eq. 10), and its
//! expectation (Eq. 11) `E(M) = H·p_c` is rounded **up**.

use crate::prob::{binomial, MAX_ROWS};

/// P(net with `components` components causes a feed-through in row `row`)
/// — the closed form of Eq. 5. Rows are numbered from 1 (top) to `rows`.
///
/// # Panics
///
/// Panics if `rows` is 0 or exceeds [`MAX_ROWS`], `row` is outside
/// `1..=rows`, or `components` is 0.
pub fn feedthrough_probability(rows: u32, components: u32, row: u32) -> f64 {
    assert!(
        (1..=MAX_ROWS).contains(&rows),
        "row count {rows} outside 1..={MAX_ROWS}"
    );
    assert!(
        (1..=rows).contains(&row),
        "row index {row} outside 1..={rows}"
    );
    assert!(components >= 1, "component count must be ≥ 1");
    let n = rows as f64;
    let i = row as f64;
    let d = components as i32;
    let p_not_above = ((n - i + 1.0) / n).powi(d); // no component strictly above
    let p_not_below = (i / n).powi(d); // no component strictly below
    let p_neither = (1.0 / n).powi(d); // all in row i itself
    let p = 1.0 - p_not_above - p_not_below + p_neither;
    // Snap the catastrophic-cancellation noise at the boundary rows
    // (analytically exactly zero) back to zero.
    if p < 1e-12 {
        0.0
    } else {
        p
    }
}

/// The paper's Eq. 5 evaluated literally as its double sum, term by term:
/// `l` components in row `i` (probability `(1/n)^l`, `C(D, l)` choices),
/// `j ≥ 1` of the remainder above (probability `((i−1)/n)^j`) and the
/// rest — at least one — below (`((n−i)/n)^(D−l−j)`).
///
/// Kept alongside the closed form of [`feedthrough_probability`] as an
/// executable cross-check of the derivation (the two agree to machine
/// precision for every input; see the `eq5_matches_closed_form` test and
/// the `ablations` bench, where the closed form is ~`D²`× cheaper).
///
/// # Panics
///
/// Panics on the same inputs as [`feedthrough_probability`].
pub fn eq5_probability(rows: u32, components: u32, row: u32) -> f64 {
    assert!(
        (1..=MAX_ROWS).contains(&rows),
        "row count {rows} outside 1..={MAX_ROWS}"
    );
    assert!(
        (1..=rows).contains(&row),
        "row index {row} outside 1..={rows}"
    );
    assert!(components >= 1, "component count must be ≥ 1");
    let n = rows as f64;
    let p_in = 1.0 / n;
    let p_above = (row as f64 - 1.0) / n;
    let p_below = (rows - row) as f64 / n;
    let d = components;
    let mut total = 0.0;
    for l in 0..=d.saturating_sub(2) {
        let rem = d - l;
        for j in 1..rem {
            let k = rem - j;
            total += binomial(d, l)
                * binomial(rem, j)
                * p_in.powi(l as i32)
                * p_above.powi(j as i32)
                * p_below.powi(k as i32);
        }
    }
    total
}

/// The per-row feed-through probability profile for one net:
/// `profile[i-1] = P_ft(i)`.
///
/// # Panics
///
/// Panics on the same inputs as [`feedthrough_probability`].
pub fn row_profile(rows: u32, components: u32) -> Vec<f64> {
    (1..=rows)
        .map(|i| feedthrough_probability(rows, components, i))
        .collect()
}

/// The row index (1-based) with the highest feed-through probability.
/// Ties resolve to the lower index; the paper's result is that this is the
/// central row `⌈(n+1)/2⌉` for every `D ≥ 2`.
///
/// # Panics
///
/// Panics on the same inputs as [`feedthrough_probability`].
pub fn most_likely_row(rows: u32, components: u32) -> u32 {
    let profile = row_profile(rows, components);
    let (idx, _) = profile
        .iter()
        .enumerate()
        .fold((0usize, f64::MIN), |(bi, bp), (i, &p)| {
            if p > bp + 1e-15 {
                (i, p)
            } else {
                (bi, bp)
            }
        });
    (idx + 1) as u32
}

/// Eq. 9's central-row feed-through probability under the paper's
/// two-component-net model: `p_c = (n−1)²/(2n²)`, which approaches the
/// paper's stated limit of 0.5 as `n → ∞`.
///
/// # Panics
///
/// Panics if `rows` is 0 or exceeds [`MAX_ROWS`].
pub fn central_row_probability(rows: u32) -> f64 {
    assert!(
        (1..=MAX_ROWS).contains(&rows),
        "row count {rows} outside 1..={MAX_ROWS}"
    );
    let n = rows as f64;
    (n - 1.0) * (n - 1.0) / (2.0 * n * n)
}

/// Eqs. 10–11: the expected number of feed-throughs in the central row for
/// `nets` independent nets, `E(M) = ⌈H · p_c⌉`.
///
/// # Panics
///
/// Panics if `rows` is 0 or exceeds [`MAX_ROWS`].
pub fn expected_feedthroughs(rows: u32, nets: usize) -> u32 {
    let p = central_row_probability(rows);
    let e = nets as f64 * p;
    let snapped = (e * 1e9).round() / 1e9;
    snapped.ceil() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_feedthrough_possible_in_one_or_two_net_free_cases() {
        // Single row: nothing can be above and below.
        assert_eq!(feedthrough_probability(1, 5, 1), 0.0);
        // Top and bottom rows never carry feed-throughs ("generally
        // neither the top row nor the bottom row have feed-throughs").
        for d in 2..=8 {
            assert_eq!(feedthrough_probability(9, d, 1), 0.0);
            assert_eq!(feedthrough_probability(9, d, 9), 0.0);
        }
    }

    #[test]
    fn single_component_net_never_causes_feedthroughs() {
        for n in 1..=10 {
            for i in 1..=n {
                assert!(feedthrough_probability(n, 1, i) < 1e-12);
            }
        }
    }

    #[test]
    fn two_component_closed_form() {
        // D = 2: P_ft(i) = 2·((i−1)/n)·((n−i)/n).
        for n in 2..=12u32 {
            for i in 1..=n {
                let expected = 2.0 * ((i - 1) as f64 / n as f64) * ((n - i) as f64 / n as f64);
                let got = feedthrough_probability(n, 2, i);
                assert!((got - expected).abs() < 1e-12, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn central_row_maximizes_probability_for_all_d() {
        // The paper's numerical-simulation claim, re-verified analytically:
        // sweeping n ∈ [3, 15] and D ∈ [2, 12], the argmax is the center.
        for n in 3..=15u32 {
            for d in 2..=12u32 {
                let best = most_likely_row(n, d);
                let center = n.div_ceil(2); // lower-middle for even n
                assert!(
                    best == center || best == center + (1 - n % 2),
                    "n={n} d={d}: argmax {best}, center {center}"
                );
            }
        }
    }

    #[test]
    fn profile_is_symmetric() {
        for n in 2..=10u32 {
            for d in 2..=6 {
                let p = row_profile(n, d);
                for i in 0..n as usize {
                    let j = n as usize - 1 - i;
                    assert!(
                        (p[i] - p[j]).abs() < 1e-12,
                        "n={n} d={d}: P({})≠P({})",
                        i + 1,
                        j + 1
                    );
                }
            }
        }
    }

    #[test]
    fn probability_increases_with_d() {
        let n = 9;
        let center = 5;
        let mut prev = 0.0;
        for d in 2..=20 {
            let p = feedthrough_probability(n, d, center);
            assert!(p >= prev - 1e-12, "d={d}");
            prev = p;
        }
        // And approaches 1 for huge nets.
        assert!(feedthrough_probability(9, 200, 5) > 0.99);
    }

    #[test]
    fn central_probability_approaches_half() {
        // Paper: P_max-feed-th = lim_{n→∞} P_feed-th = 0.5.
        assert!(central_row_probability(2) < 0.2);
        let p50 = central_row_probability(50);
        assert!(p50 > 0.47 && p50 < 0.5);
        // Monotone in n.
        let mut prev = 0.0;
        for n in 1..=50 {
            let p = central_row_probability(n);
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn central_probability_matches_exact_two_component_model_for_odd_n() {
        // For odd n the analytic center is integral and the formulas agree.
        for n in (3..=15u32).step_by(2) {
            let center = n.div_ceil(2);
            let exact = feedthrough_probability(n, 2, center);
            let model = central_row_probability(n);
            assert!((exact - model).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    fn expected_feedthroughs_rounds_up_and_scales() {
        // p_c(5) = 16/50 = 0.32; H=10 -> E(M)=3.2 -> 4.
        assert_eq!(expected_feedthroughs(5, 10), 4);
        // H=0 -> 0.
        assert_eq!(expected_feedthroughs(5, 0), 0);
        // n=1 -> p=0 -> 0 feed-throughs regardless of H.
        assert_eq!(expected_feedthroughs(1, 100), 0);
        // Monotone in H.
        assert!(expected_feedthroughs(7, 50) >= expected_feedthroughs(7, 10));
    }

    #[test]
    fn eq5_matches_closed_form() {
        // The literal double sum of Eq. 5 and the inclusion–exclusion
        // closed form are the same quantity.
        for n in 1..=12u32 {
            for d in 1..=15u32 {
                for i in 1..=n {
                    let literal = eq5_probability(n, d, i);
                    let closed = feedthrough_probability(n, d, i);
                    assert!(
                        (literal - closed).abs() < 1e-10,
                        "n={n} d={d} i={i}: eq5 {literal} vs closed {closed}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn row_index_out_of_range_rejected() {
        let _ = feedthrough_probability(4, 2, 5);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn zero_rows_rejected() {
        let _ = central_row_probability(0);
    }
}
