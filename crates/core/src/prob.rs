//! Row-occupancy probability: the paper's Eqs. 2 and 3.
//!
//! For a net with `D` components placed independently and uniformly into
//! `n` standard-cell rows, the estimator needs the probability that the
//! components occupy *exactly* `i` distinct rows, because a net occupying
//! `i` rows consumes (up to) `i` routing tracks.
//!
//! The paper defines (Eq. 2), with `k = min(n, D)`:
//!
//! ```text
//! b[1] = 1
//! b[i] = i^k − Σ_{j=1}^{i−1} C(i, j) · b[j]
//! P_rows(i) = (1/n)^k · C(n, i) · b[i]
//! ```
//!
//! `b[i]` is the number of ways `k` labeled components fill `i` labeled
//! rows with none empty (an inclusion–exclusion surjection count), and the
//! `k = min(n, D)` exponent is the paper's deliberate truncation: when a
//! net has more components than there are rows, only `n` of them are
//! modeled as free placements — the rest "are placed in any row". The
//! expectation (Eq. 3) is
//!
//! ```text
//! E(i) = Σ_{i=1}^{min(n,D)} i · P_rows(i)
//! ```
//!
//! rounded **up** to the next integer when converted to a track count.
//! The distribution sums to exactly 1 for any `n, D ≥ 1` (it is the exact
//! occupancy law for `k` components in `n` rows).
//!
//! Three implementations are provided: a fast `f64` path
//! ([`RowOccupancy::new`]), a memoized kernel ([`ProbTable`]) serving the
//! same bits from a `(rows, k)`-keyed cache for batch workloads, and an
//! exact `u128` rational path ([`exact`]) used by the test-suite to
//! validate both digit-for-digit on small inputs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use maestro_netlist::CacheStats;
use serde::{Deserialize, Serialize};

/// Maximum supported row count; beyond this the f64 binomials would lose
/// integer precision.
pub const MAX_ROWS: u32 = 64;

/// Maximum supported net component count (larger nets are truncated by the
/// paper's `k = min(n, D)` rule anyway).
pub const MAX_COMPONENTS: u32 = 256;

/// Binomial coefficient C(n, k) as `f64`.
///
/// Exact for `n ≤ 55`; beyond that the multiplicative loop accumulates
/// rounding error faster than `.round()` can absorb (the first miss is
/// `C(56, 23)`), so values up to [`MAX_ROWS`] can be off by a few units —
/// a relative error below 1e-13, far inside the tolerance of the Eq. 2
/// probabilities built from the ratios of these coefficients. The kernel
/// is kept as-is because [`ProbTable`] goldens pin its exact bits; see
/// `fast_binomial_exactness_bound_is_55` for the exhaustive cross-check.
pub(crate) fn binomial(n: u32, k: u32) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0f64;
    for j in 0..k {
        acc = acc * (n - j) as f64 / (j + 1) as f64;
    }
    acc.round()
}

/// Validates an `(rows, components)` input pair.
///
/// # Panics
///
/// Panics if `rows` is 0 or exceeds [`MAX_ROWS`], or `components` is 0 or
/// exceeds [`MAX_COMPONENTS`].
fn validate(rows: u32, components: u32) {
    assert!(
        (1..=MAX_ROWS).contains(&rows),
        "row count {rows} outside 1..={MAX_ROWS}"
    );
    assert!(
        (1..=MAX_COMPONENTS).contains(&components),
        "component count {components} outside 1..={MAX_COMPONENTS}"
    );
}

/// The Eq. 2 distribution for `k = min(n, D)` free placements in `rows`
/// rows, with binomials supplied by `binom`.
///
/// The cached ([`ProbTable`]) and uncached ([`RowOccupancy::new`]) paths
/// both run this exact sequence of operations, differing only in where
/// `C(n, k)` comes from — and the table is populated by the same
/// [`binomial`] function, so the two paths are bit-identical.
fn distribution(rows: u32, k: u32, binom: impl Fn(u32, u32) -> f64) -> Vec<f64> {
    // b[i] for i = 1..=k (index i-1), Eq. 2.
    let mut b = vec![0.0f64; k as usize];
    for i in 1..=k {
        let mut val = (i as f64).powi(k as i32);
        for j in 1..i {
            val -= binom(i, j) * b[(j - 1) as usize];
        }
        b[(i - 1) as usize] = val;
    }
    let n_pow_k = (rows as f64).powi(k as i32);
    (1..=k)
        .map(|i| binom(rows, i) * b[(i - 1) as usize] / n_pow_k)
        .collect()
}

/// Eq. 3 over a distribution slice: `Σ i · P(i)`.
fn expectation_of(probs: &[f64]) -> f64 {
    probs
        .iter()
        .enumerate()
        .map(|(idx, p)| (idx + 1) as f64 * p)
        .sum()
}

/// Converts an Eq. 3 expectation to a track count: `⌈E(i)⌉`.
fn tracks_for(expectation: f64) -> u32 {
    // Guard against 2.0000000000000004-style noise before ceiling.
    let snapped = (expectation * 1e9).round() / 1e9;
    snapped.ceil() as u32
}

/// The occupancy distribution of one net across rows.
///
/// # Examples
///
/// ```
/// use maestro_estimator::prob::RowOccupancy;
///
/// // A two-component net in 4 rows: both in one row with p = 1/4.
/// let occ = RowOccupancy::new(4, 2);
/// assert!((occ.probability(1) - 0.25).abs() < 1e-12);
/// assert!((occ.expected_rows() - (2.0 - 0.25)).abs() < 1e-12);
/// assert_eq!(occ.expected_tracks(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RowOccupancy {
    rows: u32,
    components: u32,
    /// `probs[i-1]` = P(exactly i rows occupied), i = 1..=min(n, D).
    probs: Vec<f64>,
}

impl RowOccupancy {
    /// Computes the distribution for a `components`-component net in
    /// `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is 0 or exceeds [`MAX_ROWS`], or `components` is 0
    /// or exceeds [`MAX_COMPONENTS`].
    pub fn new(rows: u32, components: u32) -> Self {
        validate(rows, components);
        let k = rows.min(components);
        RowOccupancy {
            rows,
            components,
            probs: distribution(rows, k, binomial),
        }
    }

    /// Number of rows `n`.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of net components `D`.
    pub fn components(&self) -> u32 {
        self.components
    }

    /// P(exactly `i` rows occupied), Eq. 2. Zero outside `1..=min(n, D)`.
    pub fn probability(&self, i: u32) -> f64 {
        if i == 0 {
            return 0.0;
        }
        self.probs.get((i - 1) as usize).copied().unwrap_or(0.0)
    }

    /// The full distribution as a slice: index `i-1` holds P(i).
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Eq. 3: `E(i) = Σ i · P_rows(i)`.
    pub fn expected_rows(&self) -> f64 {
        expectation_of(&self.probs)
    }

    /// The track count charged to this net: `⌈E(i)⌉` ("E(i) should be
    /// rounded up to the next higher integer").
    pub fn expected_tracks(&self) -> u32 {
        tracks_for(self.expected_rows())
    }
}

/// One memoized Eq. 2–3 result: the distribution and its derived
/// expectation, shared between every `(rows, D)` query with the same
/// effective `k = min(rows, D)`.
#[derive(Debug, Clone)]
struct CachedDist {
    probs: Arc<[f64]>,
    expected_rows: f64,
    expected_tracks: u32,
}

/// The memoized Eq. 2–3 probability kernel.
///
/// [`RowOccupancy::new`] rebuilds the surjection table and every binomial
/// coefficient from scratch on each call; inside a floorplanner inner loop
/// the same small set of `(rows, D)` pairs recurs thousands of times. This
/// table precomputes the full binomial triangle once (up to [`MAX_ROWS`],
/// via the same [`binomial`] routine, so lookups are bit-identical to
/// fresh computation) and memoizes each distribution behind a [`RwLock`],
/// keyed by `(rows, min(rows, D))` — the paper's `k = min(n, D)`
/// truncation makes the distribution independent of `D` beyond `rows`, so
/// all large nets share one entry per row count.
///
/// The table is `Sync`: concurrent estimator threads share it directly.
///
/// # Examples
///
/// ```
/// use maestro_estimator::prob::{self, ProbTable};
///
/// let table = ProbTable::new();
/// assert_eq!(table.expected_tracks(4, 2), prob::expected_tracks(4, 2));
/// // The second query with the same k = min(n, D) is a cache hit.
/// let _ = table.expected_tracks(4, 2);
/// let stats = table.stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// ```
#[derive(Debug)]
pub struct ProbTable {
    /// `C(n, k)` for `n, k ≤ MAX_ROWS`, row-major, filled by [`binomial`].
    binomials: Box<[f64]>,
    memo: RwLock<HashMap<(u32, u32), CachedDist>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for ProbTable {
    fn default() -> Self {
        ProbTable::new()
    }
}

impl ProbTable {
    /// Builds an empty table with the binomial triangle precomputed.
    pub fn new() -> Self {
        let side = (MAX_ROWS + 1) as usize;
        let mut binomials = vec![0.0f64; side * side];
        for n in 0..=MAX_ROWS {
            for k in 0..=n {
                binomials[n as usize * side + k as usize] = binomial(n, k);
            }
        }
        ProbTable {
            binomials: binomials.into_boxed_slice(),
            memo: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The process-wide shared table: every caller that does not carry an
    /// explicit table (the plain [`expected_tracks`]-style entry points in
    /// `standard_cell` and `multi_aspect`) memoizes here, so an entire
    /// aspect sweep — or a whole multi-threaded batch run — shares one
    /// cache.
    pub fn shared() -> Arc<ProbTable> {
        static SHARED: OnceLock<Arc<ProbTable>> = OnceLock::new();
        SHARED.get_or_init(|| Arc::new(ProbTable::new())).clone()
    }

    /// Precomputed binomial coefficient `C(n, k)`, bit-identical to the
    /// uncached path's on-the-fly computation.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_ROWS`].
    pub fn binomial(&self, n: u32, k: u32) -> f64 {
        assert!(n <= MAX_ROWS, "binomial row {n} outside 0..={MAX_ROWS}");
        if k > n {
            return 0.0;
        }
        let side = (MAX_ROWS + 1) as usize;
        self.binomials[n as usize * side + k as usize]
    }

    /// The memoized distribution for `(rows, components)`, computing and
    /// caching it on first use.
    fn entry(&self, rows: u32, components: u32) -> CachedDist {
        validate(rows, components);
        let k = rows.min(components);
        if let Some(hit) = self
            .memo
            .read()
            .expect("prob memo poisoned")
            .get(&(rows, k))
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Computed outside the lock: racing threads may duplicate the
        // work, but every computation yields identical bits.
        let probs: Arc<[f64]> = distribution(rows, k, |n, j| self.binomial(n, j)).into();
        let expected_rows = expectation_of(&probs);
        let dist = CachedDist {
            probs,
            expected_rows,
            expected_tracks: tracks_for(expected_rows),
        };
        self.memo
            .write()
            .expect("prob memo poisoned")
            .entry((rows, k))
            .or_insert_with(|| dist.clone());
        dist
    }

    /// The occupancy distribution, as [`RowOccupancy::new`] would build
    /// it (digit-for-digit), served from the memo.
    ///
    /// Allocates a fresh `Vec` for the result; hot loops that only need
    /// the expectation should call [`ProbTable::expected_tracks`] or
    /// [`ProbTable::expected_rows`], which are allocation-free after the
    /// first query.
    ///
    /// # Panics
    ///
    /// Panics on the same inputs as [`RowOccupancy::new`].
    pub fn occupancy(&self, rows: u32, components: u32) -> RowOccupancy {
        let dist = self.entry(rows, components);
        RowOccupancy {
            rows,
            components,
            probs: dist.probs.to_vec(),
        }
    }

    /// Memoized Eq. 3 expectation, bit-identical to
    /// [`RowOccupancy::expected_rows`].
    ///
    /// # Panics
    ///
    /// Panics on the same inputs as [`RowOccupancy::new`].
    pub fn expected_rows(&self, rows: u32, components: u32) -> f64 {
        self.entry(rows, components).expected_rows
    }

    /// Memoized track count, identical to
    /// [`RowOccupancy::expected_tracks`].
    ///
    /// # Panics
    ///
    /// Panics on the same inputs as [`RowOccupancy::new`].
    pub fn expected_tracks(&self, rows: u32, components: u32) -> u32 {
        self.entry(rows, components).expected_tracks
    }

    /// Hit/miss/entry counters (hits and misses are read `Relaxed`; exact
    /// only in quiescence, indicative under concurrency). The table is
    /// finite and never evicts.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: 0,
            entries: self.memo.read().expect("prob memo poisoned").len(),
        }
    }
}

/// Convenience wrapper: `⌈E(i)⌉` for a `components`-component net in
/// `rows` rows.
///
/// # Panics
///
/// Panics on the same inputs as [`RowOccupancy::new`].
pub fn expected_tracks(rows: u32, components: u32) -> u32 {
    RowOccupancy::new(rows, components).expected_tracks()
}

/// Eq. 3 as a real number, for callers that postpone rounding (the
/// track-sharing extension).
///
/// # Panics
///
/// Panics on the same inputs as [`RowOccupancy::new`].
pub fn expected_rows(rows: u32, components: u32) -> f64 {
    RowOccupancy::new(rows, components).expected_rows()
}

/// Exact rational reference implementation over `u128`, used to validate
/// the `f64` path. Only small inputs are representable (the test-suite
/// stays within `n ≤ 8`, `D ≤ 10`).
pub mod exact {
    /// An unsigned rational number with `u128` parts.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Ratio {
        /// Numerator.
        pub num: u128,
        /// Denominator (non-zero).
        pub den: u128,
    }

    impl Ratio {
        /// Creates `num / den`, reduced.
        ///
        /// # Panics
        ///
        /// Panics if `den == 0`.
        pub fn new(num: u128, den: u128) -> Self {
            assert!(den != 0, "zero denominator");
            let g = gcd(num, den);
            Ratio {
                num: num / g.max(1),
                den: den / g.max(1),
            }
        }

        /// The value as `f64`.
        pub fn as_f64(self) -> f64 {
            self.num as f64 / self.den as f64
        }
    }

    fn gcd(a: u128, b: u128) -> u128 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }

    fn binomial_u128(n: u32, k: u32) -> u128 {
        if k > n {
            return 0;
        }
        let k = k.min(n - k);
        let mut acc: u128 = 1;
        for j in 0..k {
            acc = acc * (n - j) as u128 / (j + 1) as u128;
        }
        acc
    }

    /// Exact P(exactly `i` rows occupied) for Eq. 2.
    ///
    /// # Panics
    ///
    /// Panics if inputs are zero, or intermediate values overflow `u128`
    /// (keep `n·min(n,D) ≲ 120` bits; `n ≤ 8, D ≤ 16` is safe).
    pub fn probability(rows: u32, components: u32, i: u32) -> Ratio {
        assert!(rows >= 1 && components >= 1 && i >= 1, "inputs must be ≥ 1");
        let k = rows.min(components);
        if i > k {
            return Ratio::new(0, 1);
        }
        // b[i] via inclusion–exclusion, exact.
        let mut b = vec![0u128; k as usize];
        for m in 1..=k {
            let mut val = (m as u128).pow(k);
            for j in 1..m {
                val -= binomial_u128(m, j) * b[(j - 1) as usize];
            }
            b[(m - 1) as usize] = val;
        }
        let num = binomial_u128(rows, i) * b[(i - 1) as usize];
        let den = (rows as u128).pow(k);
        Ratio::new(num, den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_small_values() {
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(5, 0), 1.0);
        assert_eq!(binomial(5, 5), 1.0);
        assert_eq!(binomial(3, 4), 0.0);
        assert_eq!(binomial(52, 5), 2_598_960.0);
    }

    #[test]
    fn fast_binomial_exactness_bound_is_55() {
        // Exhaustive cross-check of the f64 kernel against an exact u128
        // computation over the estimator's whole domain (n ≤ MAX_ROWS).
        // The multiplicative u128 loop is exact: after j steps `acc` holds
        // C(n, j+1) · (j+1)! / (j+1)! — each division is by a product of
        // consecutive integers that already divides the numerator.
        fn exact_u128(n: u32, k: u32) -> u128 {
            let k = k.min(n - k);
            let mut acc: u128 = 1;
            for j in 0..k {
                acc = acc * (n - j) as u128 / (j + 1) as u128;
            }
            acc
        }
        let mut first_miss = None;
        let mut max_abs = 0.0f64;
        for n in 0..=MAX_ROWS {
            for k in 0..=n {
                let fast = binomial(n, k);
                let exact = exact_u128(n, k) as f64;
                let diff = (fast - exact).abs();
                if n <= 55 {
                    assert_eq!(
                        fast, exact,
                        "C({n},{k}) must be exact below the documented bound"
                    );
                } else if diff > 0.0 {
                    first_miss.get_or_insert((n, k));
                    max_abs = max_abs.max(diff);
                    // Relative error stays negligible for Eq. 2 ratios.
                    assert!(
                        diff / exact < 1e-13,
                        "C({n},{k}): fast={fast} exact={exact}"
                    );
                }
            }
        }
        // The bound is tight: the kernel does diverge past 55, starting
        // exactly where the doc says it does.
        assert_eq!(first_miss, Some((56, 23)));
        assert!(max_abs > 0.0);
    }

    #[test]
    fn two_component_net_matches_closed_form() {
        // D = 2: P(1) = 1/n, P(2) = (n-1)/n, E = 2 - 1/n.
        for n in 1..=20 {
            let occ = RowOccupancy::new(n, 2);
            assert!((occ.probability(1) - 1.0 / n as f64).abs() < 1e-12, "n={n}");
            if n >= 2 {
                assert!(
                    (occ.probability(2) - (n as f64 - 1.0) / n as f64).abs() < 1e-12,
                    "n={n}"
                );
            }
            assert!(
                (occ.expected_rows() - (2.0 - 1.0 / n as f64)).abs() < 1e-12,
                "n={n}"
            );
        }
    }

    #[test]
    fn single_component_net_occupies_one_row() {
        for n in 1..=10 {
            let occ = RowOccupancy::new(n, 1);
            assert!((occ.probability(1) - 1.0).abs() < 1e-12);
            assert_eq!(occ.expected_tracks(), 1);
        }
    }

    #[test]
    fn single_row_pins_everything_to_one_track() {
        for d in 1..=30 {
            let occ = RowOccupancy::new(1, d);
            assert!((occ.probability(1) - 1.0).abs() < 1e-12);
            assert_eq!(occ.expected_tracks(), 1);
        }
    }

    #[test]
    fn distribution_sums_to_one() {
        for n in 1..=12 {
            for d in 1..=20 {
                let occ = RowOccupancy::new(n, d);
                let sum: f64 = occ.probabilities().iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "n={n} d={d}: Σ={sum}");
            }
        }
    }

    #[test]
    fn expectation_bounds() {
        for n in 1..=12 {
            for d in 1..=20 {
                let e = expected_rows(n, d);
                let k = n.min(d) as f64;
                assert!(e >= 1.0 - 1e-12, "n={n} d={d}: {e}");
                assert!(e <= k + 1e-12, "n={n} d={d}: {e}");
                let t = expected_tracks(n, d);
                assert!(t >= 1 && t as f64 <= k + 1.0);
            }
        }
    }

    #[test]
    fn expectation_grows_with_component_count() {
        let n = 8;
        let mut prev = 0.0;
        for d in 1..=16 {
            let e = expected_rows(n, d);
            assert!(e >= prev - 1e-12, "E should be monotone in D: d={d}");
            prev = e;
        }
    }

    #[test]
    fn truncation_freezes_large_nets() {
        // For D ≥ n, k = n: distribution is independent of D.
        let a = RowOccupancy::new(5, 5);
        let b = RowOccupancy::new(5, 50);
        for i in 1..=5 {
            assert!((a.probability(i) - b.probability(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn fast_path_matches_exact_rationals() {
        for n in 1..=8u32 {
            for d in 1..=10u32 {
                let occ = RowOccupancy::new(n, d);
                for i in 1..=n.min(d) {
                    let e = exact::probability(n, d, i).as_f64();
                    let f = occ.probability(i);
                    assert!(
                        (e - f).abs() < 1e-10,
                        "n={n} d={d} i={i}: exact={e} fast={f}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_ratio_reduces() {
        let r = exact::Ratio::new(6, 8);
        assert_eq!((r.num, r.den), (3, 4));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn exact_ratio_rejects_zero_denominator() {
        let _ = exact::Ratio::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn zero_rows_rejected() {
        let _ = RowOccupancy::new(0, 2);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn zero_components_rejected() {
        let _ = RowOccupancy::new(2, 0);
    }

    #[test]
    fn tracks_round_up() {
        // n=4, D=2: E = 1.75 -> 2 tracks.
        assert_eq!(expected_tracks(4, 2), 2);
        // n=1: E = 1 -> exactly 1 (no spurious round-up).
        assert_eq!(expected_tracks(1, 7), 1);
    }

    #[test]
    fn table_binomials_match_direct_computation() {
        let table = ProbTable::new();
        for n in 0..=MAX_ROWS {
            for k in 0..=n + 1 {
                assert_eq!(
                    table.binomial(n, k).to_bits(),
                    binomial(n, k).to_bits(),
                    "C({n}, {k})"
                );
            }
        }
    }

    #[test]
    fn table_occupancy_is_bit_identical_to_fresh() {
        let table = ProbTable::new();
        for n in [1, 2, 7, 33, 64] {
            for d in [1, 2, 5, 64, 256] {
                let cached = table.occupancy(n, d);
                let fresh = RowOccupancy::new(n, d);
                assert_eq!(cached.rows(), fresh.rows());
                assert_eq!(cached.components(), fresh.components());
                let c_bits: Vec<u64> = cached.probabilities().iter().map(|p| p.to_bits()).collect();
                let f_bits: Vec<u64> = fresh.probabilities().iter().map(|p| p.to_bits()).collect();
                assert_eq!(c_bits, f_bits, "n={n} d={d}");
                assert_eq!(
                    table.expected_rows(n, d).to_bits(),
                    fresh.expected_rows().to_bits(),
                    "n={n} d={d}"
                );
                assert_eq!(table.expected_tracks(n, d), fresh.expected_tracks());
            }
        }
    }

    #[test]
    fn table_memoizes_by_truncated_k() {
        let table = ProbTable::new();
        let _ = table.expected_tracks(5, 5);
        // D = 50 truncates to k = 5: same entry, so a hit, not a miss.
        let _ = table.expected_tracks(5, 50);
        let stats = table.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn shared_table_is_one_instance() {
        assert!(Arc::ptr_eq(&ProbTable::shared(), &ProbTable::shared()));
    }

    #[test]
    fn table_is_usable_across_threads() {
        let table = Arc::new(ProbTable::new());
        let expect = expected_tracks(6, 4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let table = Arc::clone(&table);
                scope.spawn(move || {
                    for _ in 0..100 {
                        assert_eq!(table.expected_tracks(6, 4), expect);
                    }
                });
            }
        });
        let stats = table.stats();
        assert_eq!(stats.hits + stats.misses, 400);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn table_rejects_zero_rows() {
        let _ = ProbTable::new().expected_tracks(0, 3);
    }
}
