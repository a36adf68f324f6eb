//! The exact, journaled per-net half-perimeter wirelength (HPWL) cache
//! that the row placer and the full-custom synthesizer both anneal over.
//!
//! An [`HpwlJournal`] holds each net's item list, each net's HPWL and
//! their running total. A move re-centres some items; the caller brackets
//! it with [`HpwlJournal::begin`], [`HpwlJournal::mark`]s each item that
//! moved and [`HpwlJournal::settle`]s, which recomputes only the marked
//! items' nets and journals what it overwrote, so [`HpwlJournal::revert`]
//! restores the pre-move values in time proportional to the move. The
//! journal never stores centres: every method that reads one takes a
//! `centre(item) -> (x, y)` closure over the caller's own geometry.
//!
//! The total is exact. Callers place items on integer λ, so every centre,
//! net HPWL and `fresh − old` step is a multiple of 0.5 λ; while the total
//! stays below 2^52 λ (far above any layout here) every partial sum is
//! exact in any order, so the running total equals the ordered
//! from-scratch sum bit for bit, and nets of fewer than two items add
//! +0.0.
//!
//! The synthesizer calls the journal from another crate once per moved
//! tile, so its small methods are `#[inline]`: without it each is a
//! call the optimizer cannot see through.

/// Per-net HPWL values, their exact running total and the undo journal
/// of the current move.
#[derive(Debug, Clone)]
pub struct HpwlJournal {
    /// Each net's items.
    nets: Vec<Vec<u32>>,
    /// The nets of two or more items incident to each item.
    item_nets: Vec<Vec<u32>>,
    /// Each net's HPWL, in net order.
    net_hpwl: Vec<f64>,
    /// Running sum of `net_hpwl`.
    total: f64,
    /// `total` when the current move began.
    snap_total: f64,
    /// Dirty flags, and the dirty nets in marking order.
    dirty: Vec<bool>,
    dirty_list: Vec<u32>,
    /// `(net, previous HPWL)` for every value the current move overwrote.
    undo: Vec<(u32, f64)>,
}

impl HpwlJournal {
    /// A journal over `nets` (item indices below `items`), with every
    /// value zero until the first [`HpwlJournal::rebuild`].
    pub fn new(items: usize, nets: Vec<Vec<u32>>) -> HpwlJournal {
        let mut item_nets = vec![Vec::new(); items];
        for (k, net) in nets.iter().enumerate() {
            // One-pin nets never contribute HPWL, so they never need
            // recomputation either.
            if net.len() < 2 {
                continue;
            }
            for &item in net {
                item_nets[item as usize].push(k as u32);
            }
        }
        HpwlJournal {
            net_hpwl: vec![0.0; nets.len()],
            dirty: vec![false; nets.len()],
            nets,
            item_nets,
            total: 0.0,
            snap_total: 0.0,
            dirty_list: Vec::new(),
            undo: Vec::new(),
        }
    }

    /// Each net's items, in net order.
    #[inline]
    pub fn nets(&self) -> &[Vec<u32>] {
        &self.nets
    }

    /// The exact sum of every net's HPWL.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Recomputes every net from scratch, summing in net order from +0.0.
    /// A rebuild is not revertible: it clears the undo journal.
    pub fn rebuild(&mut self, centre: impl Fn(u32) -> (f64, f64)) {
        let mut total = 0.0f64;
        for (value, net) in self.net_hpwl.iter_mut().zip(&self.nets) {
            *value = contribution(net, &centre);
            total += *value;
        }
        self.total = total;
        self.undo.clear();
    }

    /// Starts a move: snapshots the total and clears the undo journal and
    /// the dirty list. A [`HpwlJournal::revert`] right after is a no-op.
    #[inline]
    pub fn begin(&mut self) {
        self.snap_total = self.total;
        self.undo.clear();
        for k in self.dirty_list.drain(..) {
            self.dirty[k as usize] = false;
        }
    }

    /// Marks every net of two or more items incident to `item` for
    /// [`HpwlJournal::settle`].
    #[inline]
    pub fn mark(&mut self, item: u32) {
        for &k in &self.item_nets[item as usize] {
            if !self.dirty[k as usize] {
                self.dirty[k as usize] = true;
                self.dirty_list.push(k);
            }
        }
    }

    /// Recomputes the marked nets in marking order, adding each
    /// `fresh − old` to the total and journaling the old value.
    pub fn settle(&mut self, centre: impl Fn(u32) -> (f64, f64)) {
        for &k in &self.dirty_list {
            self.dirty[k as usize] = false;
            let fresh = contribution(&self.nets[k as usize], &centre);
            let old = std::mem::replace(&mut self.net_hpwl[k as usize], fresh);
            self.total += fresh - old;
            self.undo.push((k, old));
        }
        self.dirty_list.clear();
    }

    /// Restores every value the current move overwrote, and the total
    /// snapshotted by [`HpwlJournal::begin`].
    #[inline]
    pub fn revert(&mut self) {
        for (k, v) in self.undo.drain(..).rev() {
            self.net_hpwl[k as usize] = v;
        }
        self.total = self.snap_total;
    }
}

/// One net's HPWL over its items' centres: the bounding box folds from
/// `f64::MAX`/`f64::MIN` in item order, and a net of fewer than two items
/// is +0.0.
fn contribution(net: &[u32], centre: impl Fn(u32) -> (f64, f64)) -> f64 {
    if net.len() < 2 {
        return 0.0;
    }
    let mut min_x = f64::MAX;
    let mut max_x = f64::MIN;
    let mut min_y = f64::MAX;
    let mut max_y = f64::MIN;
    for &item in net {
        let (cx, cy) = centre(item);
        min_x = min_x.min(cx);
        max_x = max_x.max(cx);
        min_y = min_y.min(cy);
        max_y = max_y.max(cy);
    }
    (max_x - min_x) + (max_y - min_y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    /// The reference: every net from scratch, summed in net order.
    fn from_scratch(nets: &[Vec<u32>], centres: &[(f64, f64)]) -> (Vec<f64>, f64) {
        let values: Vec<f64> = nets
            .iter()
            .map(|net| contribution(net, |i| centres[i as usize]))
            .collect();
        let mut total = 0.0f64;
        for &v in &values {
            total += v;
        }
        (values, total)
    }

    fn assert_matches(journal: &HpwlJournal, centres: &[(f64, f64)]) {
        let (values, total) = from_scratch(journal.nets(), centres);
        assert_eq!(journal.total().to_bits(), total.to_bits());
        for (k, (v, fresh)) in journal.net_hpwl.iter().zip(&values).enumerate() {
            assert_eq!(v.to_bits(), fresh.to_bits(), "net {k}");
        }
    }

    fn grid(rng: &mut StdRng) -> (f64, f64) {
        (
            f64::from(rng.gen_range(0..4_000u32)) * 0.5,
            f64::from(rng.gen_range(0..4_000u32)) * 0.5,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random nets over at most 24 items (one-pin nets included) and
        /// centres on a 0.5 λ grid: after every move, settled or
        /// reverted, the running total and every net equal the ordered
        /// from-scratch values bit for bit.
        #[test]
        fn settle_and_revert_match_a_from_scratch_sum(
            items in 1usize..=24,
            net_count in 1usize..=16,
            seed in any::<u64>(),
            moves in 1usize..=40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let nets: Vec<Vec<u32>> = (0..net_count)
                .map(|_| {
                    let len = rng.gen_range(1..=items.min(6));
                    let mut net: Vec<u32> =
                        (0..len).map(|_| rng.gen_range(0..items as u32)).collect();
                    net.sort_unstable();
                    net.dedup();
                    net
                })
                .collect();
            let mut centres: Vec<(f64, f64)> = (0..items).map(|_| grid(&mut rng)).collect();
            let mut journal = HpwlJournal::new(items, nets);
            journal.rebuild(|i| centres[i as usize]);
            assert_matches(&journal, &centres);

            for _ in 0..moves {
                // `begin` then `revert`, with nothing settled, changes
                // nothing.
                let before = (journal.net_hpwl.clone(), journal.total().to_bits());
                journal.begin();
                journal.revert();
                prop_assert_eq!(&before, &(journal.net_hpwl.clone(), journal.total().to_bits()));

                let saved = centres.clone();
                let moved: Vec<u32> =
                    (0..rng.gen_range(1..=3)).map(|_| rng.gen_range(0..items as u32)).collect();
                for &item in &moved {
                    centres[item as usize] = grid(&mut rng);
                }
                journal.begin();
                for &item in &moved {
                    journal.mark(item);
                }
                journal.settle(|i| centres[i as usize]);
                assert_matches(&journal, &centres);
                if rng.gen_bool(0.5) {
                    centres = saved;
                    journal.revert();
                    prop_assert_eq!(&before, &(journal.net_hpwl.clone(), journal.total().to_bits()));
                    assert_matches(&journal, &centres);
                }
            }
        }
    }
}
