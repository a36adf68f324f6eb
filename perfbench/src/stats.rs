//! Order statistics over latency samples.
//!
//! A failed operation enters the samples as `f64::INFINITY`: it misses
//! every latency limit, so failures can only push a percentile up.

/// The percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// The fewest samples that must lie beyond a percentile for it to count
/// as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Sorted copy of `samples` (infinities last).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the middle pair for even counts); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile of sorted samples: the smallest sample with
/// at least `p`% of the samples at or below it.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// A tail latency: the value, the percentile it sits at and how many
/// samples it was drawn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The ladder percentile chosen.
    pub percentile: f64,
    /// The nearest-rank sample at that percentile.
    pub value: f64,
    /// Total samples.
    pub samples: usize,
}

/// The tail of `samples`: the highest percentile of [`TAIL_LADDER`] with
/// at least [`TAIL_MIN_BEYOND`] samples beyond its nearest-rank sample.
/// `None` when even the median has fewer than that many beyond it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len();
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n > 0 && n - rank.clamp(1, n) >= TAIL_MIN_BEYOND
        })
        .map(|&p| Tail {
            percentile: p,
            value: nearest_rank(&s, p),
            samples: n,
        })
}

/// `num / den`, or 0 when the denominator is 0 (a layer that never ran).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Throughput over a measured interval, slice by slice: the interval
/// `0..seconds` is cut into `windows` equal slices, and each slice's rate
/// is the weight of the events that completed in it per second. The
/// median slice rate is robust to a burst of host noise. `events` are
/// `(completion time in seconds from the start, weight)`; events after
/// the interval are ignored.
pub fn window_rates(events: &[(f64, f64)], seconds: f64, windows: usize) -> Vec<f64> {
    let width = seconds / windows as f64;
    let mut per_window = vec![0.0; windows];
    for &(t, weight) in events {
        let slot = (t / width) as usize;
        if t >= 0.0 && slot < windows {
            per_window[slot] += weight;
        }
    }
    per_window.iter().map(|w| w / width).collect()
}
