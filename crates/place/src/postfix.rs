//! The slicing expression, and its incremental (delta) evaluation.
//!
//! Both slicing annealers in this workspace — the full-custom
//! synthesizer over transistor tiles and the floorplanner over blocks —
//! anneal the same postfix ("Polish") expression, [`PolishExpr`], with
//! the same Wong–Liu moves. Its per-node values combine bottom-up:
//! integer tile dimensions in the synthesizer, Stockmeyer shape curves
//! in the floorplanner. Re-evaluating the whole expression per move makes
//! the Metropolis loop quadratic; every Wong–Liu move, however, only
//! perturbs a contiguous element range, and the smallest subtree covering
//! that range is the only part of the tree whose values can change.
//!
//! [`IncrementalPostfix`] maintains the parse (children, parent and
//! span-start links) and the per-node values. On
//! [`IncrementalPostfix::update`] it re-parses the covering subtree from
//! the move's first rewritten position only: nothing before that position
//! changed, so neither did any subtree ending there, and the parse stack
//! at that position is rebuilt from the span-start links rather than by
//! re-parsing. It then propagates values up the parent chain until they
//! stop changing, and journals every overwrite so
//! [`IncrementalPostfix::revert`] restores the pre-move state in time
//! proportional to what the move touched — never a second full
//! evaluation. On the left-deep trees both annealers settle into, the
//! covering subtree almost always starts at position 0, so re-parsing it
//! whole would cost the expression's length per move.
//!
//! Values are pure functions of the leaf values below them, so a delta
//! update is *bit-identical* to a full rebuild: cached nodes hold exactly
//! the value a recomputation would produce.

use std::mem;

use serde::{Deserialize, Serialize};

/// A cut operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cut {
    /// Horizontal cut: the two children stack vertically
    /// (width = max, height = sum).
    Horizontal,
    /// Vertical cut: the two children sit side by side
    /// (width = sum, height = max).
    Vertical,
}

impl Cut {
    /// The opposite cut direction.
    #[inline]
    pub fn flipped(self) -> Cut {
        match self {
            Cut::Horizontal => Cut::Vertical,
            Cut::Vertical => Cut::Horizontal,
        }
    }
}

/// One element of a Polish expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Elem {
    /// An operand: an index into the caller's tile or block list.
    Operand(u32),
    /// A cut operator combining the two sub-floorplans below it.
    Op(Cut),
}

/// A slicing floorplan: a postfix expression over operands `0..n`, each
/// exactly once, plus a rotation flag per operand.
///
/// The moves M1–M3 take a `pick` closure that maps the number of
/// candidates to the chosen index (and is not called when there are
/// none), so each annealer keeps its own random draws.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolishExpr {
    elems: Vec<Elem>,
    rotated: Vec<bool>,
}

/// An applied move, as the record [`PolishExpr::undo`] reverses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Two elements swapped (M1, M3).
    Swap(usize, usize),
    /// The operators at positions `start..end` complemented (M2).
    Chain(usize, usize),
    /// One operand's rotation flag toggled (M4).
    Rotate(usize),
    /// The move had no candidate; nothing changed.
    Nothing,
}

impl Move {
    /// The inclusive element range `lo..=hi` the move rewrote, for
    /// [`IncrementalPostfix::update`]. `None` when no element changed:
    /// after [`Move::Nothing`], and after a rotation, which changes only
    /// its operand's leaf value.
    #[inline]
    pub fn span(self) -> Option<(usize, usize)> {
        match self {
            Move::Swap(i, j) => Some((i.min(j), i.max(j))),
            Move::Chain(start, end) => Some((start, end - 1)),
            Move::Rotate(_) | Move::Nothing => None,
        }
    }
}

impl PolishExpr {
    /// The serpentine start: operands grouped into `⌈√n⌉`-sized runs
    /// joined side by side, and the runs stacked.
    ///
    /// # Panics
    ///
    /// Panics if `operand_count == 0`.
    pub fn initial(operand_count: usize) -> Self {
        assert!(operand_count > 0, "need at least one tile");
        let per_row = (operand_count as f64).sqrt().ceil() as usize;
        let mut elems = Vec::with_capacity(operand_count * 2);
        let mut rows_emitted = 0usize;
        let mut i = 0usize;
        while i < operand_count {
            let end = (i + per_row).min(operand_count);
            elems.push(Elem::Operand(i as u32));
            for t in i + 1..end {
                elems.push(Elem::Operand(t as u32));
                elems.push(Elem::Op(Cut::Vertical));
            }
            rows_emitted += 1;
            if rows_emitted >= 2 {
                elems.push(Elem::Op(Cut::Horizontal));
            }
            i = end;
        }
        PolishExpr {
            elems,
            rotated: vec![false; operand_count],
        }
    }

    /// Validates `elems` as an unrotated expression over operands
    /// `0..n`, where `n` is the number of operands it holds. Returns
    /// `None` unless [`PolishExpr::is_valid`] accepts it.
    pub fn from_elems(elems: Vec<Elem>) -> Option<Self> {
        let operands = elems
            .iter()
            .filter(|e| matches!(e, Elem::Operand(_)))
            .count();
        let expr = PolishExpr {
            elems,
            rotated: vec![false; operands],
        };
        expr.is_valid().then_some(expr)
    }

    /// The expression elements (postfix order).
    #[inline]
    pub fn elems(&self) -> &[Elem] {
        &self.elems
    }

    /// Rotation flags per operand.
    #[inline]
    pub fn rotations(&self) -> &[bool] {
        &self.rotated
    }

    /// Number of operands.
    #[inline]
    pub fn operand_count(&self) -> usize {
        self.rotated.len()
    }

    /// `true` if the elements form a valid postfix slicing expression
    /// over all operands (each exactly once, operators one fewer than
    /// operands, and every prefix has more operands than operators).
    pub fn is_valid(&self) -> bool {
        let mut operands = 0usize;
        let mut ops = 0usize;
        let mut seen = vec![false; self.rotated.len()];
        for e in &self.elems {
            match *e {
                Elem::Operand(t) => {
                    match seen.get_mut(t as usize) {
                        Some(s) if !*s => *s = true,
                        _ => return false,
                    }
                    operands += 1;
                }
                Elem::Op(_) => {
                    ops += 1;
                    if ops >= operands {
                        return false;
                    }
                }
            }
        }
        operands == self.rotated.len() && ops + 1 == operands
    }

    /// Move M1: swaps two adjacent operands (adjacent in operand order,
    /// ignoring operators between them). The candidates are the
    /// `operands − 1` adjacent pairs; [`Move::Nothing`] with fewer than
    /// two operands.
    ///
    /// Every move locates its target by a counting scan rather than a
    /// collected candidate list, so the move loop never allocates.
    pub fn swap_adjacent_operands(&mut self, pick: impl FnOnce(usize) -> usize) -> Move {
        let operand_count = self
            .elems
            .iter()
            .filter(|e| matches!(e, Elem::Operand(_)))
            .count();
        if operand_count < 2 {
            return Move::Nothing;
        }
        let pair = checked_pick(pick, operand_count - 1);
        let (mut i, mut j) = (0usize, 0usize);
        let mut seen = 0usize;
        for (pos, e) in self.elems.iter().enumerate() {
            if matches!(e, Elem::Operand(_)) {
                if seen == pair {
                    i = pos;
                } else if seen == pair + 1 {
                    j = pos;
                    break;
                }
                seen += 1;
            }
        }
        self.elems.swap(i, j);
        Move::Swap(i, j)
    }

    /// Move M2: complements one maximal chain of operators. The
    /// candidates are the chain starts.
    pub fn complement_chain(&mut self, pick: impl FnOnce(usize) -> usize) -> Move {
        let is_start = |elems: &[Elem], i: usize| {
            matches!(elems[i], Elem::Op(_)) && (i == 0 || matches!(elems[i - 1], Elem::Operand(_)))
        };
        let chain_count = (0..self.elems.len())
            .filter(|&i| is_start(&self.elems, i))
            .count();
        if chain_count == 0 {
            return Move::Nothing;
        }
        let nth = checked_pick(pick, chain_count);
        let mut start = 0usize;
        let mut seen = 0usize;
        for i in 0..self.elems.len() {
            if is_start(&self.elems, i) {
                if seen == nth {
                    start = i;
                    break;
                }
                seen += 1;
            }
        }
        let mut end = start;
        while let Some(&Elem::Op(c)) = self.elems.get(end) {
            self.elems[end] = Elem::Op(c.flipped());
            end += 1;
        }
        Move::Chain(start, end)
    }

    /// Move M3: swaps an adjacent operand–operator pair, if the result
    /// remains a valid expression. The candidates are the
    /// operand-then-operator boundaries; from the picked one on
    /// (cyclically), the first boundary whose swap keeps the expression
    /// valid is swapped. [`Move::Nothing`] when none can.
    ///
    /// Swapping the operand at `i` with the operator after it changes a
    /// single prefix balance (operands minus operators): the one ending
    /// at `i`, which becomes the balance before `i` minus one. The swap
    /// is therefore valid exactly when that balance is at least 2, so one
    /// scan finds the boundary without trying a swap.
    pub fn swap_operand_operator(&mut self, pick: impl FnOnce(usize) -> usize) -> Move {
        let is_boundary = |elems: &[Elem], i: usize| {
            matches!(elems[i], Elem::Operand(_)) && matches!(elems[i + 1], Elem::Op(_))
        };
        let boundaries = self.elems.len().saturating_sub(1);
        let boundary_count = (0..boundaries)
            .filter(|&i| is_boundary(&self.elems, i))
            .count();
        if boundary_count == 0 {
            return Move::Nothing;
        }
        let offset = checked_pick(pick, boundary_count);
        // The first swappable boundary at or after `offset`, else the
        // first one before it.
        let mut target = None;
        let mut seen = 0usize;
        let mut balance = 0i64;
        for i in 0..boundaries {
            if is_boundary(&self.elems, i) {
                if balance >= 2 && (seen >= offset || target.is_none()) {
                    target = Some(i);
                    if seen >= offset {
                        break;
                    }
                }
                seen += 1;
            }
            balance += if matches!(self.elems[i], Elem::Operand(_)) {
                1
            } else {
                -1
            };
        }
        let Some(i) = target else {
            return Move::Nothing;
        };
        self.elems.swap(i, i + 1);
        Move::Swap(i, i + 1)
    }

    /// Move M4: toggles one operand's rotation.
    ///
    /// # Panics
    ///
    /// Panics if `operand` is out of range.
    #[inline]
    pub fn flip_rotation(&mut self, operand: usize) -> Move {
        self.rotated[operand] = !self.rotated[operand];
        Move::Rotate(operand)
    }

    /// Reverses `mv`, the most recent move applied to this expression.
    #[inline]
    pub fn undo(&mut self, mv: Move) {
        match mv {
            Move::Swap(i, j) => self.elems.swap(i, j),
            Move::Chain(start, end) => {
                for e in &mut self.elems[start..end] {
                    if let Elem::Op(c) = *e {
                        *e = Elem::Op(c.flipped());
                    }
                }
            }
            Move::Rotate(operand) => self.rotated[operand] = !self.rotated[operand],
            Move::Nothing => {}
        }
    }
}

/// Calls a move's `pick` with its candidate count.
///
/// # Panics
///
/// Panics if `pick` returns an index outside `0..count`.
fn checked_pick(pick: impl FnOnce(usize) -> usize, count: usize) -> usize {
    let k = pick(count);
    assert!(k < count, "pick chose candidate {k} of {count}");
    k
}

/// Sentinel for "no child" on operand positions.
const NONE: u32 = u32::MAX;

/// What an [`IncrementalPostfix::update`] touched, for callers that
/// maintain derived per-leaf state (e.g. placements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateResult {
    /// The re-parsed positions, as an inclusive range `(lo, op)`: from
    /// the move's first rewritten position `lo` to the root `op` of the
    /// smallest subtree covering the move. Every node before `lo` has its
    /// whole subtree before `lo`, and kept its value and children.
    pub span: (u32, u32),
    /// Position to re-derive downstream state from: the lowest ancestor
    /// of the span whose value (and therefore origin, for placement-like
    /// derivations) is unchanged. Every perturbed node lies in its
    /// subtree.
    pub anchor: u32,
}

/// One journaled parse-link overwrite (see [`IncrementalPostfix::update`]).
#[derive(Debug, Clone, Copy)]
struct UndoLink {
    pos: u32,
    kids: (u32, u32),
    parent: u32,
    start: u32,
}

/// An incrementally evaluated postfix expression over values of type `V`.
///
/// The elements themselves live with the caller (the annealing states
/// already store their expressions); every method borrows them, so no
/// elements are copied per move.
#[derive(Debug, Clone)]
pub struct IncrementalPostfix<V> {
    /// Subtree value per position.
    vals: Vec<V>,
    /// Children positions per operator position (`NONE` for operands).
    kids: Vec<(u32, u32)>,
    /// Parent position (the root points at itself).
    parent: Vec<u32>,
    /// Span start: leftmost position of the subtree rooted here.
    start: Vec<u32>,
    /// Operand id → position.
    pos_of: Vec<u32>,
    root: u32,
    // Undo journal for the most recent update (cleared on each update).
    undo_vals: Vec<(u32, V)>,
    undo_links: Vec<UndoLink>,
    undo_pos: Vec<(u32, u32)>,
    /// Parse scratch, kept to avoid per-move allocation.
    stack: Vec<u32>,
}

impl<V: Clone + PartialEq> IncrementalPostfix<V> {
    /// Fully evaluates the expression `elems`; `leaf` supplies operand
    /// values, `comb` combines two child values under a cut.
    ///
    /// # Panics
    ///
    /// Panics if `elems` is not a valid postfix expression.
    pub fn build(elems: &[Elem], leaf: impl Fn(u32) -> V, comb: impl Fn(Cut, &V, &V) -> V) -> Self {
        let len = elems.len();
        let operands = len / 2 + 1;
        let mut this = IncrementalPostfix {
            vals: Vec::with_capacity(len),
            kids: vec![(NONE, NONE); len],
            parent: vec![0; len],
            start: vec![0; len],
            pos_of: vec![NONE; operands],
            root: 0,
            undo_vals: Vec::new(),
            undo_links: Vec::new(),
            undo_pos: Vec::new(),
            stack: Vec::new(),
        };
        this.rebuild(elems, leaf, comb);
        this
    }

    /// Re-evaluates the whole expression from scratch, reusing buffers.
    /// Clears the undo journal (a rebuild is not revertible).
    ///
    /// # Panics
    ///
    /// Panics if `elems` is not a valid postfix expression.
    pub fn rebuild(
        &mut self,
        elems: &[Elem],
        leaf: impl Fn(u32) -> V,
        comb: impl Fn(Cut, &V, &V) -> V,
    ) {
        let len = elems.len();
        self.vals.clear();
        self.kids.clear();
        self.kids.resize(len, (NONE, NONE));
        self.parent.clear();
        self.parent.resize(len, 0);
        self.start.clear();
        self.start.resize(len, 0);
        self.undo_vals.clear();
        self.undo_links.clear();
        self.undo_pos.clear();
        self.stack.clear();
        for (p, &e) in elems.iter().enumerate() {
            match e {
                Elem::Operand(id) => {
                    let id = id as usize;
                    if id >= self.pos_of.len() {
                        self.pos_of.resize(id + 1, NONE);
                    }
                    self.pos_of[id] = p as u32;
                    self.start[p] = p as u32;
                    self.vals.push(leaf(id as u32));
                    self.stack.push(p as u32);
                }
                Elem::Op(cut) => {
                    let r = self.stack.pop().expect("valid postfix expression");
                    let l = self.stack.pop().expect("valid postfix expression");
                    self.kids[p] = (l, r);
                    self.start[p] = self.start[l as usize];
                    self.parent[l as usize] = p as u32;
                    self.parent[r as usize] = p as u32;
                    let v = comb(cut, &self.vals[l as usize], &self.vals[r as usize]);
                    self.vals.push(v);
                    self.stack.push(p as u32);
                }
            }
        }
        let root = self.stack.pop().expect("non-empty expression");
        assert!(self.stack.is_empty(), "valid expression leaves one root");
        self.root = root;
        self.parent[root as usize] = root;
    }

    /// Delta-evaluates after the caller changed elements (or leaf inputs)
    /// within positions `lo..=hi`: re-parses the smallest subtree
    /// covering the range from `lo` on, and propagates values upward
    /// until unchanged.
    ///
    /// Requirements, satisfied by the Wong–Liu move set: element changes
    /// preserve the operand/operator *type multiset* within `lo..=hi`
    /// (operand–operand and operator–operator rewrites anywhere in the
    /// range; a single adjacent operand↔operator transposition), so the
    /// covering subtree's interval — and every parse link above it — is
    /// identical before and after the move.
    ///
    /// Journals every overwrite; call [`IncrementalPostfix::revert`]
    /// (after undoing the move) to restore.
    pub fn update(
        &mut self,
        elems: &[Elem],
        leaf: impl Fn(u32) -> V,
        comb: impl Fn(Cut, &V, &V) -> V,
        lo: usize,
        hi: usize,
    ) -> UpdateResult {
        debug_assert!(lo <= hi && hi < self.vals.len());
        self.undo_vals.clear();
        self.undo_links.clear();
        self.undo_pos.clear();

        let (span_start, span_end) = match elems[lo] {
            // Leaf-only change (tile rotation): no structure to re-parse.
            Elem::Operand(id) if lo == hi => {
                let new = leaf(id);
                if new != self.vals[lo] {
                    self.undo_vals
                        .push((lo as u32, mem::replace(&mut self.vals[lo], new)));
                }
                (lo, lo)
            }
            _ => {
                // Smallest operator position `e ≥ hi` whose balance does
                // not exceed the minimum balance over `[lo, e)` roots the
                // smallest subtree covering `lo..=hi` (balance walks move
                // by ±1, so a lower dip before `e` would start the span
                // inside the range).
                let mut rb: i64 = 0;
                let mut min_rb = i64::MAX;
                let mut found = None;
                for (p, e) in elems.iter().enumerate().skip(lo) {
                    let is_op = matches!(e, Elem::Op(_));
                    rb += if is_op { -1 } else { 1 };
                    if p >= hi && is_op && rb <= min_rb {
                        found = Some(p);
                        break;
                    }
                    min_rb = min_rb.min(rb);
                }
                let e = found.expect("a valid expression's root covers any range");
                let s = self.start[e] as usize;
                debug_assert!(s <= lo);
                self.reparse_from(elems, &leaf, &comb, s, lo, e);
                (lo, e)
            }
        };

        // Propagate upward until a recombined value matches its cache;
        // ancestors above that point cannot change (pure functions of
        // their children).
        let mut p = span_end as u32;
        let anchor = loop {
            if p == self.root {
                break p;
            }
            let par = self.parent[p as usize];
            let (l, r) = self.kids[par as usize];
            let Elem::Op(cut) = elems[par as usize] else {
                unreachable!("parents are operators")
            };
            let new = comb(cut, &self.vals[l as usize], &self.vals[r as usize]);
            if new == self.vals[par as usize] {
                break par;
            }
            self.undo_vals
                .push((par, mem::replace(&mut self.vals[par as usize], new)));
            p = par;
        };
        UpdateResult {
            span: (span_start as u32, span_end as u32),
            anchor,
        }
    }

    /// Re-parses positions `lo..=e` of the complete subtree `s..=e`,
    /// journaling every overwritten value and link.
    ///
    /// Positions before `lo` hold the same elements as before the move,
    /// so the parse stack at `lo` is the roots of the complete subtrees
    /// that tile `s..lo`: the subtree ending at `lo − 1`, then the one
    /// ending just before its span start, and so on back to `s`. Those
    /// roots' parent links are the only links before `lo` that the
    /// re-parse can overwrite.
    fn reparse_from(
        &mut self,
        elems: &[Elem],
        leaf: &impl Fn(u32) -> V,
        comb: &impl Fn(Cut, &V, &V) -> V,
        s: usize,
        lo: usize,
        e: usize,
    ) {
        self.stack.clear();
        let mut q = lo;
        while q > s {
            let root = q - 1;
            self.undo_links.push(self.link(root));
            self.stack.push(root as u32);
            q = self.start[root] as usize;
        }
        self.stack.reverse();
        for (p, &elem) in elems.iter().enumerate().take(e + 1).skip(lo) {
            self.undo_links.push(self.link(p));
            match elem {
                Elem::Operand(id) => {
                    self.undo_pos.push((id, self.pos_of[id as usize]));
                    self.pos_of[id as usize] = p as u32;
                    self.kids[p] = (NONE, NONE);
                    self.start[p] = p as u32;
                    let new = leaf(id);
                    if new != self.vals[p] {
                        self.undo_vals
                            .push((p as u32, mem::replace(&mut self.vals[p], new)));
                    }
                    self.stack.push(p as u32);
                }
                Elem::Op(cut) => {
                    let r = self.stack.pop().expect("span is a complete subtree");
                    let l = self.stack.pop().expect("span is a complete subtree");
                    self.kids[p] = (l, r);
                    self.start[p] = self.start[l as usize];
                    self.parent[l as usize] = p as u32;
                    self.parent[r as usize] = p as u32;
                    let new = comb(cut, &self.vals[l as usize], &self.vals[r as usize]);
                    if new != self.vals[p] {
                        self.undo_vals
                            .push((p as u32, mem::replace(&mut self.vals[p], new)));
                    }
                    self.stack.push(p as u32);
                }
            }
        }
        debug_assert_eq!(
            self.stack.as_slice(),
            &[e as u32],
            "span reduces to one root"
        );
        self.stack.clear();
    }

    /// The parse links at position `p`, as the journal records them.
    fn link(&self, p: usize) -> UndoLink {
        UndoLink {
            pos: p as u32,
            kids: self.kids[p],
            parent: self.parent[p],
            start: self.start[p],
        }
    }

    /// Restores the state before the most recent
    /// [`IncrementalPostfix::update`] (the caller must have already
    /// undone the move). A no-op when nothing was journaled.
    pub fn revert(&mut self) {
        for (id, p) in self.undo_pos.drain(..).rev() {
            self.pos_of[id as usize] = p;
        }
        for u in self.undo_links.drain(..).rev() {
            self.kids[u.pos as usize] = u.kids;
            self.parent[u.pos as usize] = u.parent;
            self.start[u.pos as usize] = u.start;
        }
        for (p, v) in self.undo_vals.drain(..).rev() {
            self.vals[p as usize] = v;
        }
    }

    /// The root position.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// The root's value.
    pub fn root_val(&self) -> &V {
        &self.vals[self.root as usize]
    }

    /// The value of the subtree rooted at `p`.
    pub fn val(&self, p: u32) -> &V {
        &self.vals[p as usize]
    }

    /// Children of the operator at `p` (`(NONE, NONE)` for operands —
    /// test with [`IncrementalPostfix::is_leaf`]).
    pub fn kids(&self, p: u32) -> (u32, u32) {
        self.kids[p as usize]
    }

    /// `true` if position `p` holds an operand.
    pub fn is_leaf(&self, p: u32) -> bool {
        self.kids[p as usize].0 == NONE
    }

    /// Span start (leftmost position) of the subtree rooted at `p`.
    pub fn span_start(&self, p: u32) -> u32 {
        self.start[p as usize]
    }

    /// Position of operand `id`.
    pub fn operand_pos(&self, id: u32) -> u32 {
        self.pos_of[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // A toy value: (width, height) under the slicing combine.
    type Dim = (i64, i64);

    fn comb(cut: Cut, l: &Dim, r: &Dim) -> Dim {
        match cut {
            Cut::Vertical => (l.0 + r.0, l.1.max(r.1)),
            Cut::Horizontal => (l.0.max(r.0), l.1 + r.1),
        }
    }

    fn sizes(n: usize) -> Vec<Dim> {
        (0..n)
            .map(|i| (3 + (i as i64 * 7) % 11, 2 + (i as i64 * 5) % 9))
            .collect()
    }

    /// Operand dimensions under the expression's rotation flags.
    fn leaf<'a>(expr: &'a PolishExpr, dims: &'a [Dim]) -> impl Fn(u32) -> Dim + 'a {
        |id| {
            let (w, h) = dims[id as usize];
            if expr.rotated[id as usize] {
                (h, w)
            } else {
                (w, h)
            }
        }
    }

    fn full(expr: &PolishExpr, dims: &[Dim]) -> IncrementalPostfix<Dim> {
        IncrementalPostfix::build(&expr.elems, leaf(expr, dims), comb)
    }

    /// Applies move `kind` (M1–M4) with one of the annealers' pick
    /// policies: the synthesizer's `arg % count`, or the floorplanner's
    /// single draw in `0..count` (here from an RNG seeded with `arg`).
    fn apply(expr: &mut PolishExpr, kind: u8, arg: usize, draw: bool) -> Move {
        let pick = |count: usize| {
            if draw {
                StdRng::seed_from_u64(arg as u64).gen_range(0..count)
            } else {
                arg % count
            }
        };
        match kind % 4 {
            0 => expr.swap_adjacent_operands(pick),
            1 => expr.complement_chain(pick),
            2 => expr.swap_operand_operator(pick),
            _ => expr.flip_rotation(arg % expr.operand_count()),
        }
    }

    /// Reference validity: a stack parse that never underflows and ends
    /// with one tree, over operands that are a permutation of `0..n`.
    fn parses(elems: &[Elem]) -> bool {
        let mut ids: Vec<u32> = elems
            .iter()
            .filter_map(|e| match *e {
                Elem::Operand(t) => Some(t),
                Elem::Op(_) => None,
            })
            .collect();
        ids.sort_unstable();
        let permutation = ids.iter().enumerate().all(|(i, &t)| t as usize == i);
        let mut depth = 0usize;
        for e in elems {
            match e {
                Elem::Operand(_) => depth += 1,
                Elem::Op(_) if depth < 2 => return false,
                Elem::Op(_) => depth -= 1,
            }
        }
        permutation && depth == 1
    }

    /// The trial-and-error M3 that the one-scan criterion replaced:
    /// probe the boundaries cyclically from `offset`, swap, and keep the
    /// first swap whose result is valid.
    fn swap_by_trial(expr: &mut PolishExpr, offset: usize) -> Move {
        let boundaries: Vec<usize> = (0..expr.elems.len().saturating_sub(1))
            .filter(|&i| {
                matches!(expr.elems[i], Elem::Operand(_))
                    && matches!(expr.elems[i + 1], Elem::Op(_))
            })
            .collect();
        for probe in 0..boundaries.len() {
            let i = boundaries[(offset + probe) % boundaries.len()];
            expr.elems.swap(i, i + 1);
            if expr.is_valid() {
                return Move::Swap(i, i + 1);
            }
            expr.elems.swap(i, i + 1);
        }
        Move::Nothing
    }

    fn assert_same(inc: &IncrementalPostfix<Dim>, reference: &IncrementalPostfix<Dim>, at: &str) {
        assert_eq!(inc.vals, reference.vals, "{at}");
        assert_eq!(inc.kids, reference.kids, "{at}");
        assert_eq!(inc.parent, reference.parent, "{at}");
        assert_eq!(inc.start, reference.start, "{at}");
        assert_eq!(inc.pos_of, reference.pos_of, "{at}");
    }

    #[test]
    fn build_matches_stack_evaluation() {
        for n in 1..=17 {
            let expr = PolishExpr::initial(n);
            let dims = sizes(n);
            let inc = full(&expr, &dims);
            let mut stack: Vec<Dim> = Vec::new();
            for e in expr.elems() {
                match *e {
                    Elem::Operand(id) => stack.push(dims[id as usize]),
                    Elem::Op(cut) => {
                        let r = stack.pop().unwrap();
                        let l = stack.pop().unwrap();
                        stack.push(comb(cut, &l, &r));
                    }
                }
            }
            assert_eq!(*inc.root_val(), stack.pop().unwrap(), "n={n}");
        }
    }

    /// Random Wong–Liu moves under both pick policies; after each move a
    /// delta update must match a from-scratch rebuild, re-parse from the
    /// move's first rewritten position, and a revert must restore the
    /// previous state exactly.
    #[test]
    fn update_and_revert_match_full_rebuild() {
        for n in [1usize, 2, 3, 13, 40] {
            let dims = sizes(n);
            for draw in [false, true] {
                let mut expr = PolishExpr::initial(n);
                let mut inc = full(&expr, &dims);
                let mut rng = StdRng::seed_from_u64(7);
                for step in 0..400 {
                    let at = format!("n={n} draw={draw} step {step}");
                    let reference_before = full(&expr, &dims);
                    let mv = apply(&mut expr, rng.gen_range(0..4), rng.gen_range(0..64), draw);
                    let (lo, hi) = match (mv, mv.span()) {
                        (Move::Rotate(t), _) => {
                            let p = inc.operand_pos(t as u32) as usize;
                            (p, p)
                        }
                        (_, Some(span)) => span,
                        (_, None) => continue,
                    };
                    let result = inc.update(&expr.elems, leaf(&expr, &dims), comb, lo, hi);
                    assert_same(&inc, &full(&expr, &dims), &at);
                    assert_eq!(result.span.0, lo as u32, "{at}: re-parse starts at lo");
                    let e = result.span.1;
                    assert!(
                        inc.span_start(e) <= lo as u32 && e >= hi as u32,
                        "{at}: the re-parsed subtree covers the move"
                    );
                    if rng.gen_bool(0.5) {
                        // Reject: undo the move, revert, and require an
                        // exact restore.
                        expr.undo(mv);
                        inc.revert();
                        assert_same(&inc, &reference_before, &format!("{at} revert"));
                    }
                }
            }
        }
    }

    #[test]
    fn single_operand_updates_in_place() {
        let mut expr = PolishExpr::initial(1);
        let dims = [(4i64, 9i64)];
        let mut inc = full(&expr, &dims);
        assert_eq!(*inc.root_val(), (4, 9));
        expr.flip_rotation(0);
        let r = inc.update(&expr.elems, leaf(&expr, &dims), comb, 0, 0);
        assert_eq!(*inc.root_val(), (9, 4));
        assert_eq!(r.anchor, 0);
        inc.revert();
        assert_eq!(*inc.root_val(), (4, 9));
    }

    #[test]
    fn moves_without_candidates_change_nothing() {
        let mut one = PolishExpr::initial(1);
        let snapshot = one.clone();
        let never = |_: usize| -> usize { unreachable!("no candidates to pick from") };
        assert_eq!(one.swap_adjacent_operands(never), Move::Nothing);
        assert_eq!(one.complement_chain(never), Move::Nothing);
        assert_eq!(one.swap_operand_operator(never), Move::Nothing);
        assert_eq!(one, snapshot);
        assert_eq!(Move::Nothing.span(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_move_sequences_preserve_validity(
            n in 1usize..12,
            moves in vec((0u8..4, 0usize..64), 0..40),
        ) {
            for draw in [false, true] {
                let mut expr = PolishExpr::initial(n);
                for &(kind, arg) in &moves {
                    apply(&mut expr, kind, arg, draw);
                    prop_assert!(
                        expr.is_valid(),
                        "draw={draw}: invalid after {kind}/{arg}: {:?}",
                        expr.elems()
                    );
                }
            }
        }

        #[test]
        fn moves_are_exactly_undoable(
            n in 2usize..10,
            warmup in vec((0u8..4, 0usize..64), 0..20),
            arg in 0usize..64,
        ) {
            for draw in [false, true] {
                let mut expr = PolishExpr::initial(n);
                for &(kind, a) in &warmup {
                    apply(&mut expr, kind, a, draw);
                }
                let snapshot = expr.clone();
                for kind in 0..4 {
                    let mv = apply(&mut expr, kind, arg, draw);
                    expr.undo(mv);
                    prop_assert_eq!(&expr, &snapshot, "draw={} kind={}", draw, kind);
                }
            }
        }

        /// M3's one-scan validity criterion swaps the boundary that trial
        /// swaps would, from every starting offset.
        #[test]
        fn swap_operand_operator_matches_trial_swaps(
            n in 1usize..14,
            moves in vec((0u8..4, 0usize..64), 0..40),
        ) {
            let mut expr = PolishExpr::initial(n);
            for &(kind, arg) in &moves {
                apply(&mut expr, kind, arg, false);
            }
            for offset in 0..expr.elems.len() {
                let mut one_scan = expr.clone();
                let mut trial = expr.clone();
                let mv = one_scan.swap_operand_operator(|count| offset % count);
                let count = (0..expr.elems.len() - 1)
                    .filter(|&i| {
                        matches!(expr.elems[i], Elem::Operand(_))
                            && matches!(expr.elems[i + 1], Elem::Op(_))
                    })
                    .count();
                prop_assert_eq!(mv, swap_by_trial(&mut trial, offset % count.max(1)));
                prop_assert_eq!(&one_scan, &trial);
            }
        }

        /// `from_elems` accepts a sequence exactly when it parses as a
        /// slicing expression: valid expressions reached by random moves
        /// pass; repeated or out-of-range operands, bad prefix balance
        /// and a wrong operator count fail.
        #[test]
        fn from_elems_accepts_exactly_the_valid_sequences(
            n in 1usize..9,
            moves in vec((0u8..4, 0usize..64), 0..20),
            edits in vec((0u8..4, 0usize..64, 0u32..12), 0..3),
        ) {
            let mut expr = PolishExpr::initial(n);
            for &(kind, arg) in &moves {
                apply(&mut expr, kind, arg, false);
            }
            let mut elems = expr.elems().to_vec();
            for &(kind, at, v) in &edits {
                let at = at % elems.len();
                match kind {
                    0 => elems[at] = Elem::Operand(v),
                    1 => {
                        let cut = if v % 2 == 0 { Cut::Vertical } else { Cut::Horizontal };
                        elems[at] = Elem::Op(cut);
                    }
                    2 => {
                        elems.remove(at);
                        if elems.is_empty() {
                            break;
                        }
                    }
                    _ => {
                        let other = v as usize % elems.len();
                        elems.swap(at, other);
                    }
                }
            }
            let valid = parses(&elems);
            match PolishExpr::from_elems(elems.clone()) {
                Some(e) => {
                    prop_assert!(valid, "accepted {:?}", elems);
                    prop_assert_eq!(e.elems(), elems.as_slice());
                    prop_assert_eq!(e.operand_count(), elems.len().div_ceil(2));
                    prop_assert!(e.rotations().iter().all(|&r| !r));
                }
                None => prop_assert!(!valid, "rejected {:?}", elems),
            }
        }
    }
}
