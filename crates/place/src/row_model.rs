//! The one-row model and row folding (paper §4.1: "a one-row model can be
//! converted into an n-row model by folding the single row into n
//! equal-length rows").

use std::collections::BTreeSet;

use maestro_geom::Lambda;
use maestro_netlist::{DeviceId, Module};

/// Orders all devices into a single row, greedily chaining by shared-net
/// connectivity: start from a device on an external net and repeatedly
/// append the unplaced device sharing the most nets with the tail. This
/// gives the annealer a locality-aware starting point, mirroring how a
/// designer sketches the one-row model.
pub fn one_row_order(module: &Module) -> Vec<DeviceId> {
    let n = module.device_count();
    if n == 0 {
        return Vec::new();
    }
    // Adjacency weight = number of shared nets between device pairs; built
    // sparsely per device on demand (modules are small-to-moderate).
    let device_nets: Vec<BTreeSet<u32>> = (0..n)
        .map(|i| {
            module
                .device(DeviceId::new(i as u32))
                .pins()
                .iter()
                .map(|(_, net)| net.index() as u32)
                .collect()
        })
        .collect();

    // Seed: a device on an external (port) net, else device 0.
    let seed = module
        .nets()
        .find(|(_, net)| net.is_external() && net.component_count() > 0)
        .and_then(|(_, net)| net.components().first().copied())
        .unwrap_or(DeviceId::new(0));

    let mut placed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut current = seed;
    placed[current.index()] = true;
    order.push(current);
    for _ in 1..n {
        let cur_nets = &device_nets[current.index()];
        let mut best: Option<(usize, usize)> = None; // (shared, index)
        for cand in 0..n {
            if placed[cand] {
                continue;
            }
            let shared = device_nets[cand].intersection(cur_nets).count();
            let better = match best {
                None => true,
                Some((bs, _)) => shared > bs,
            };
            if better {
                best = Some((shared, cand));
            }
        }
        let (_, next) = best.expect("unplaced device exists");
        current = DeviceId::new(next as u32);
        placed[next] = true;
        order.push(current);
    }
    order
}

/// Folds a one-row order into `rows` serpentine rows of (approximately)
/// equal total cell width. Alternate rows are reversed so devices adjacent
/// across a fold stay physically close.
///
/// # Panics
///
/// Panics if `rows == 0` or `widths.len()` differs from `order.len()`.
pub fn fold(order: &[DeviceId], widths: &[Lambda], rows: u32) -> Vec<Vec<DeviceId>> {
    assert!(rows > 0, "need at least one row");
    assert_eq!(
        order.len(),
        widths.len(),
        "one width per ordered device required"
    );
    let total: i64 = order.iter().map(|d| widths[d.index()].get()).sum();
    let target = (total as f64 / rows as f64).max(1.0);

    let mut folded: Vec<Vec<DeviceId>> = vec![Vec::new(); rows as usize];
    let mut row = 0usize;
    let mut acc = 0i64;
    for &dev in order {
        let w = widths[dev.index()].get();
        // Move to the next row when this row is full — but never leave
        // trailing rows empty while devices remain.
        if acc > 0
            && (acc + w) as f64 > target * (1.0 + 0.25 / rows as f64)
            && row + 1 < rows as usize
        {
            row += 1;
            acc = 0;
        }
        folded[row].push(dev);
        acc += w;
    }
    for (i, r) in folded.iter_mut().enumerate() {
        if i % 2 == 1 {
            r.reverse();
        }
    }
    folded
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_netlist::{generate, LayoutStyle, NetlistStats};
    use maestro_tech::builtin;

    fn widths_of(module: &Module) -> Vec<Lambda> {
        let tech = builtin::nmos25();
        let _ = NetlistStats::resolve(module, &tech, LayoutStyle::StandardCell).unwrap();
        (0..module.device_count())
            .map(|i| {
                let d = module.device(DeviceId::new(i as u32));
                tech.cell_library().cell(d.template()).unwrap().width()
            })
            .collect()
    }

    #[test]
    fn order_is_a_permutation() {
        let m = generate::ripple_adder(3);
        let order = one_row_order(&m);
        assert_eq!(order.len(), m.device_count());
        let mut sorted: Vec<_> = order.iter().map(|d| d.index()).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), m.device_count());
    }

    #[test]
    fn order_chains_connected_devices() {
        // In a shift register, consecutive flip-flops share a net, so the
        // greedy chain should visit them mostly in sequence: adjacent
        // order entries should usually share a net.
        let m = generate::shift_register(10);
        let order = one_row_order(&m);
        let mut adjacent_shared = 0;
        for w in order.windows(2) {
            let a: BTreeSet<u32> = m
                .device(w[0])
                .pins()
                .iter()
                .map(|(_, n)| n.index() as u32)
                .collect();
            let shares = m
                .device(w[1])
                .pins()
                .iter()
                .any(|(_, n)| a.contains(&(n.index() as u32)));
            if shares {
                adjacent_shared += 1;
            }
        }
        assert!(
            adjacent_shared * 2 >= order.len(),
            "{adjacent_shared}/{} adjacent pairs share a net",
            order.len() - 1
        );
    }

    #[test]
    fn fold_preserves_devices_and_balances_width() {
        let m = generate::ripple_adder(4);
        let order = one_row_order(&m);
        let widths = widths_of(&m);
        for rows in [1u32, 2, 3, 4] {
            let folded = fold(&order, &widths, rows);
            assert_eq!(folded.len(), rows as usize);
            let count: usize = folded.iter().map(Vec::len).sum();
            assert_eq!(count, m.device_count(), "rows={rows}");
            if rows > 1 {
                let row_widths: Vec<i64> = folded
                    .iter()
                    .map(|r| r.iter().map(|d| widths[d.index()].get()).sum())
                    .collect();
                let max = *row_widths.iter().max().unwrap();
                let min = *row_widths.iter().min().unwrap();
                let total: i64 = row_widths.iter().sum();
                let target = total / rows as i64;
                assert!(
                    max - min <= target,
                    "rows={rows}: widths {row_widths:?} too unbalanced"
                );
            }
        }
    }

    #[test]
    fn fold_single_row_is_identity_order() {
        let m = generate::counter(3);
        let order = one_row_order(&m);
        let widths = widths_of(&m);
        let folded = fold(&order, &widths, 1);
        assert_eq!(folded[0], order);
    }

    #[test]
    fn serpentine_reverses_odd_rows() {
        let m = generate::shift_register(6);
        let order = one_row_order(&m);
        let widths = widths_of(&m);
        let folded = fold(&order, &widths, 2);
        // Row 1 reversed: its *last* element was the first assigned after
        // the fold, i.e. contiguous with row 0's last element in `order`.
        let row0_last = *folded[0].last().unwrap();
        let row1_last = *folded[1].last().unwrap();
        let pos0 = order.iter().position(|&d| d == row0_last).unwrap();
        let pos1 = order.iter().position(|&d| d == row1_last).unwrap();
        assert_eq!(pos1, pos0 + 1, "fold point stays adjacent");
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_rows_rejected() {
        let m = generate::counter(2);
        let order = one_row_order(&m);
        let widths = widths_of(&m);
        let _ = fold(&order, &widths, 0);
    }
}
