//! A generic simulated-annealing engine.
//!
//! TimberWolf, the full-custom synthesizer and the slicing floorplanner
//! all anneal over different state spaces; this module factors out the
//! Metropolis loop and the pricing of each move. States implement
//! [`AnnealState`]: apply and undo one random move, and price the state
//! two ways, from scratch or through a cache kept current per move. A
//! [`Walk`] picks between the two by one [`EvalMode`] and counts the
//! evaluations.

use std::sync::{Mutex, PoisonError};

use maestro_trace as trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A state space that simulated annealing can explore.
///
/// States must be [`Clone`]: the engine snapshots the best state seen so
/// far and restores it at the end of a run, so a late uphill excursion can
/// never make the result worse than an earlier point of the walk.
///
/// A state without a cache implements only [`AnnealState::apply`],
/// [`AnnealState::undo`] and [`AnnealState::full_cost`]; the cache
/// methods then default to the reference.
pub trait AnnealState: Clone {
    /// What a move rewrote, as [`AnnealState::update`] needs it.
    type Touched;

    /// Applies one random move, revertible by the next
    /// [`AnnealState::undo`]. Returns `None` when the move changed
    /// nothing.
    fn apply(&mut self, rng: &mut StdRng) -> Option<Self::Touched>;

    /// Undoes the most recently applied move (the caches are
    /// [`AnnealState::restore`]'s).
    fn undo(&mut self);

    /// The cost from scratch (lower is better): the reference, which
    /// reads no cache.
    fn full_cost(&self) -> f64;

    /// Rebuilds every cache from scratch and returns the cost.
    fn rebuild(&mut self) -> f64 {
        self.full_cost()
    }

    /// Updates the caches after a move that rewrote `touched`,
    /// journaling what it overwrites, and returns the cost. Must equal
    /// [`AnnealState::full_cost`] bit for bit.
    fn update(&mut self, _touched: Self::Touched) -> f64 {
        self.full_cost()
    }

    /// Restores what the last [`AnnealState::update`] overwrote, after
    /// [`AnnealState::undo`].
    fn restore(&mut self) {}
}

/// How a [`Walk`] prices its state after each move and revert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// Every move and every revert calls [`AnnealState::full_cost`]: the
    /// reference, kept for differential testing of the delta path.
    Full,
    /// A move that changed something calls [`AnnealState::update`]; a
    /// revert restores its caches and the cost from before the move.
    Delta,
}

/// A state under annealing: the state, the cost it was priced at, and
/// the `(full, delta)` tallies of its evaluations. The engine clones a
/// walk, tallies included, wherever it clones a state: per replica, for
/// calibration and for the best state seen.
#[derive(Clone)]
pub struct Walk<S> {
    state: S,
    mode: EvalMode,
    cost: f64,
    /// The cost before the current move.
    snap: f64,
    /// Whether the current move changed anything.
    changed: bool,
    evals_full: u64,
    evals_delta: u64,
}

impl<S: AnnealState> Walk<S> {
    /// Prices `state` from scratch in `mode`, counting one full
    /// evaluation.
    pub fn new(mut state: S, mode: EvalMode) -> Walk<S> {
        let cost = match mode {
            EvalMode::Full => state.full_cost(),
            EvalMode::Delta => state.rebuild(),
        };
        Walk {
            state,
            mode,
            cost,
            snap: cost,
            changed: false,
            evals_full: 1,
            evals_delta: 0,
        }
    }

    /// The state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// The state's cost after every applied, un-reverted move.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// The `(full, delta)` evaluations counted since [`Walk::new`]. A
    /// *full* evaluation prices the whole state; a *delta* one updates
    /// the caches after a move that changed something.
    pub fn evals(&self) -> (u64, u64) {
        (self.evals_full, self.evals_delta)
    }

    /// Applies one random move and returns the new cost.
    fn propose(&mut self, rng: &mut StdRng) -> f64 {
        let touched = self.state.apply(rng);
        self.changed = touched.is_some();
        match self.mode {
            EvalMode::Full => {
                self.evals_full += 1;
                self.cost = self.state.full_cost();
            }
            EvalMode::Delta => {
                self.snap = self.cost;
                if let Some(touched) = touched {
                    self.evals_delta += 1;
                    self.cost = self.state.update(touched);
                }
            }
        }
        self.cost
    }

    /// Reverts the move of the last [`Walk::propose`].
    fn revert(&mut self) {
        self.state.undo();
        match self.mode {
            EvalMode::Full => {
                self.evals_full += 1;
                self.cost = self.state.full_cost();
            }
            EvalMode::Delta => {
                if self.changed {
                    self.state.restore();
                }
                self.cost = self.snap;
            }
        }
    }
}

/// Walks `moves` random moves of `state` in [`EvalMode::Delta`],
/// reverting about half of them, and returns the first step at which the
/// walk's cost differs in bits from [`AnnealState::full_cost`] of the
/// same state: step 0 is the rebuild, step `k` the `k`-th move, checked
/// after the move and after its revert. `None` when every step agrees.
#[doc(hidden)]
pub fn first_delta_divergence<S: AnnealState>(state: S, moves: usize, seed: u64) -> Option<usize> {
    let agrees = |walk: &Walk<S>| walk.cost.to_bits() == walk.state.full_cost().to_bits();
    let mut walk = Walk::new(state, EvalMode::Delta);
    if !agrees(&walk) {
        return Some(0);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 1..=moves {
        walk.propose(&mut rng);
        if !agrees(&walk) {
            return Some(step);
        }
        if rng.gen_bool(0.5) {
            walk.revert();
            if !agrees(&walk) {
                return Some(step);
            }
        }
    }
    None
}

/// Cooling-schedule parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealSchedule {
    /// Starting temperature. Chosen so that early uphill moves are mostly
    /// accepted; each walk of [`anneal_replicas`] derives it from the
    /// state.
    pub initial_temp: f64,
    /// Geometric cooling factor per round, in `(0, 1)`.
    pub cooling: f64,
    /// Number of cooling rounds.
    pub rounds: usize,
    /// Moves attempted per round.
    pub moves_per_round: usize,
}

impl Default for AnnealSchedule {
    fn default() -> Self {
        AnnealSchedule {
            initial_temp: 100.0,
            cooling: 0.92,
            rounds: 60,
            moves_per_round: 400,
        }
    }
}

impl AnnealSchedule {
    /// A short schedule for tests and tiny problems.
    pub fn quick() -> Self {
        AnnealSchedule {
            initial_temp: 50.0,
            cooling: 0.85,
            rounds: 25,
            moves_per_round: 120,
        }
    }

    /// Calibrates the initial temperature from the state: samples `probes`
    /// random moves (each immediately reverted) and sets `T₀` to twice the
    /// mean uphill delta, the classic rule of thumb.
    ///
    /// The walk is restored to a pre-probe snapshot afterwards, tallies
    /// included, so the seeded walk that follows starts from exactly the
    /// state it was handed — calibration can never leak probe moves into
    /// the result, even for states whose `undo` is only approximate.
    pub(crate) fn calibrated<S: AnnealState>(
        mut self,
        walk: &mut Walk<S>,
        seed: u64,
        probes: usize,
    ) -> Self {
        let snapshot = walk.clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_CA11B7A7E5);
        let mut uphill_sum = 0.0;
        let mut uphill_count = 0usize;
        let current = walk.cost;
        for _ in 0..probes {
            let new = walk.propose(&mut rng);
            let delta = new - current;
            walk.revert();
            if delta > 0.0 {
                uphill_sum += delta;
                uphill_count += 1;
            }
        }
        *walk = snapshot;
        if uphill_count > 0 {
            self.initial_temp = (2.0 * uphill_sum / uphill_count as f64).max(1e-6);
        }
        self
    }
}

/// Work-size floor for the replica fan-out: below this many work items
/// (nets, tiles, blocks — whatever the caller anneals over) the replica
/// walks run serially on the caller thread; at or above it two or more
/// walks run on at most [`std::thread::available_parallelism`] scoped
/// workers, whatever the replica count. The reduction is index-based, so
/// the serial and threaded paths produce bit-identical results; the
/// threshold only avoids paying thread spawns for toy problems.
pub const DEFAULT_REPLICA_WORK_THRESHOLD: usize = 16;

/// Derives replica `r`'s RNG seed from the base seed. Replica 0 uses the
/// base seed unchanged — a one-replica run reproduces the single-walk
/// result bit for bit — and later replicas take a SplitMix64 step so
/// nearby base seeds still give decorrelated walks.
pub(crate) fn replica_seed(base: u64, replica: usize) -> u64 {
    if replica == 0 {
        return base;
    }
    let mut z = base.wrapping_add((replica as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `replicas` independently seeded annealing walks from the same
/// starting walk, plus one optional *warm* walk from a prior solution
/// (priced from scratch in the walk's mode), and reduces to the best
/// final cost with a deterministic tie-break (lowest cost, then lowest
/// walk index). Each walk calibrates its own
/// schedule (twice the mean uphill delta of `probes` probe moves under
/// its own seed, each reverted, from a restored pre-probe snapshot) and
/// then runs the Metropolis loop under that seed.
///
/// The walks are one list of start walks: `replicas` clones of `walk`
/// at indices `0..replicas` and the warm seed, if any, at index
/// `replicas`. Walk 0's seed is `base_seed` itself. A list of one walk
/// runs on the calling thread whatever `work_size` is — one clone, no
/// spawn — and the reduction returns that walk, so `replicas = 1` is
/// bit-identical to calibrating and annealing `walk` in place. Longer
/// lists fan out over `min(available_parallelism, walks)` scoped workers
/// that take walk indices in order, so a request for a thousand replicas
/// starts no more threads than the host has cores (the walks run
/// serially on the caller thread when `work_size` is below
/// [`DEFAULT_REPLICA_WORK_THRESHOLD`]); results are reduced in walk
/// order, so the reduction is independent of thread scheduling.
///
/// A warm walk leaves every cold walk unchanged, and the reduction is
/// strict-`<` with the lowest index winning ties, which gives two
/// contracts by construction:
///
/// * **never worse than cold**: every cold walk of the unseeded run is
///   present unchanged, so the reduced cost can only match or beat it;
/// * **never worse than the seed**: a walk counts its starting state as
///   "best seen", so the warm walk's cost never exceeds the seed's.
///
/// When the warm walk does not strictly win, the cold walks' winner is
/// kept — the result is then identical to the unseeded run.
///
/// Emits `anneal.replicas` (every walk, the warm one included) and
/// `anneal.replica_best` counters, plus `anneal.warm_walks` and
/// `anneal.warm_best` (1 when the warm walk won) for a warm run. Every
/// walk runs in an `anneal.replica` span under one `anneal.replica_set`
/// span; a worker labels its thread `replica-{r}` before it runs walk
/// `r`, so each walk's spans and accept/reject counters carry
/// per-replica attribution.
pub fn anneal_replicas<S: AnnealState + Send>(
    walk: &mut Walk<S>,
    warm: Option<S>,
    schedule: &AnnealSchedule,
    base_seed: u64,
    replicas: usize,
    probes: usize,
    work_size: usize,
) -> f64 {
    let replicas = replicas.max(1);
    let warm_walk = warm.is_some();
    let set_span = trace::span_with("anneal.replica_set", || {
        let warm = if warm_walk { " warm=1" } else { "" };
        format!("replicas={replicas}{warm}")
    });
    let set_id = set_span.id();
    let run_replica = |r: usize, mut local: Walk<S>| -> (f64, Walk<S>) {
        let seed = replica_seed(base_seed, r);
        let _span = trace::span_under("anneal.replica", set_id, || {
            let warm = if r == replicas { " warm" } else { "" };
            format!("replica={r}{warm}")
        });
        let sched = schedule.clone().calibrated(&mut local, seed, probes);
        let cost = anneal(&mut local, &sched, seed);
        (cost, local)
    };
    let mut starts: Vec<Walk<S>> = (0..replicas).map(|_| walk.clone()).collect();
    starts.extend(warm.map(|state| Walk::new(state, walk.mode)));
    let total = starts.len();
    let walks = starts.into_iter().enumerate();
    let results: Vec<(f64, Walk<S>)> = if total == 1 || work_size < DEFAULT_REPLICA_WORK_THRESHOLD {
        walks.map(|(r, start)| run_replica(r, start)).collect()
    } else {
        let workers = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(total);
        let queue = Mutex::new(walks);
        let mut done: Vec<(usize, (f64, Walk<S>))> = std::thread::scope(|scope| {
            let (run, queue) = (&run_replica, &queue);
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut ran = Vec::new();
                        loop {
                            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                            let Some((r, start)) = next else { break };
                            if trace::enabled() {
                                trace::set_thread_label(format!("replica-{r}"));
                            }
                            ran.push((r, run(r, start)));
                        }
                        ran
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|worker| worker.join().expect("replica walk panicked"))
                .collect()
        });
        done.sort_unstable_by_key(|&(r, _)| r);
        done.into_iter().map(|(_, walk)| walk).collect()
    };
    // Strict `<` keeps the lowest index on cost ties, so the warm walk
    // (the highest index) only wins by strictly improving on every cold
    // walk.
    let (best_idx, (cost, best)) = results
        .into_iter()
        .enumerate()
        .reduce(|best, next| if next.1 .0 < best.1 .0 { next } else { best })
        .expect("at least one walk");
    trace::counter("anneal.replicas", total as u64);
    trace::counter("anneal.replica_best", best_idx as u64);
    if warm_walk {
        trace::counter("anneal.warm_walks", 1);
        trace::counter("anneal.warm_best", u64::from(best_idx == replicas));
    }
    *walk = best;
    cost
}

/// Runs the Metropolis loop, moving `walk` toward lower cost; returns
/// the final cost. Deterministic for a given seed.
///
/// The engine keeps a snapshot of the lowest-cost state visited anywhere
/// in the walk (including the greedy quench) and restores it before
/// returning, so the result is the best state *seen*, not merely the
/// state the walk happened to end on.
///
/// # Panics
///
/// Panics if the schedule's cooling factor is outside `(0, 1)`.
pub(crate) fn anneal<S: AnnealState>(
    walk: &mut Walk<S>,
    schedule: &AnnealSchedule,
    seed: u64,
) -> f64 {
    assert!(
        schedule.cooling > 0.0 && schedule.cooling < 1.0,
        "cooling factor {} outside (0, 1)",
        schedule.cooling
    );
    let _anneal_span = trace::span_with("anneal", || {
        format!(
            "rounds={} moves_per_round={}",
            schedule.rounds, schedule.moves_per_round
        )
    });
    trace::metric("anneal.temp_initial", schedule.initial_temp);
    // Acceptance tallies accumulate in locals and emit once at the end:
    // the Metropolis loop is the hot path and must not pay a per-move
    // trace call even when a sink is listening.
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let (evals_full_before, evals_delta_before) = walk.evals();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut temp = schedule.initial_temp.max(1e-9);
    let mut current = walk.cost;
    let mut best = walk.clone();
    let mut best_cost = current;
    for _ in 0..schedule.rounds {
        for _ in 0..schedule.moves_per_round {
            let new = walk.propose(&mut rng);
            let delta = new - current;
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp();
            if accept {
                accepted += 1;
                current = new;
                if new < best_cost {
                    best_cost = new;
                    best = walk.clone();
                }
            } else {
                rejected += 1;
                walk.revert();
            }
        }
        temp *= schedule.cooling;
    }
    // Final greedy descent: quench at zero temperature so the run never
    // ends on an uphill excursion.
    let greedy_moves = schedule.moves_per_round * 2;
    for _ in 0..greedy_moves {
        let new = walk.propose(&mut rng);
        if new < current {
            accepted += 1;
            current = new;
            if new < best_cost {
                best_cost = new;
                best = walk.clone();
            }
        } else {
            rejected += 1;
            walk.revert();
        }
    }
    if best_cost < current {
        // A late uphill excursion ended the walk above the best visited
        // state: restore the snapshot and polish it with a short greedy
        // descent (the quench above descended from the wrong basin).
        *walk = best;
        current = best_cost;
        for _ in 0..schedule.moves_per_round {
            let new = walk.propose(&mut rng);
            if new < current {
                accepted += 1;
                current = new;
            } else {
                rejected += 1;
                walk.revert();
            }
        }
    }
    trace::counter("anneal.rounds", schedule.rounds as u64);
    trace::counter("anneal.accepted", accepted);
    trace::counter("anneal.rejected", rejected);
    let (evals_full, evals_delta) = walk.evals();
    if (evals_full, evals_delta) != (evals_full_before, evals_delta_before) {
        // Best-restore can rewind the tallies below the starting point
        // (the snapshot carries its own counters); saturate rather than
        // report a wrapped delta.
        trace::counter(
            "anneal.evals_full",
            evals_full.saturating_sub(evals_full_before),
        );
        trace::counter(
            "anneal.evals_delta",
            evals_delta.saturating_sub(evals_delta_before),
        );
    }
    trace::metric("anneal.temp_final", temp);
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread::ThreadId;

    /// A toy state: a permutation whose cost is the number of inversions.
    #[derive(Clone)]
    struct SortState {
        values: Vec<u32>,
        last_swap: Option<(usize, usize)>,
    }

    impl SortState {
        fn new(n: usize, seed: u64) -> Self {
            use rand::seq::SliceRandom;
            let mut values: Vec<u32> = (0..n as u32).collect();
            values.shuffle(&mut StdRng::seed_from_u64(seed));
            SortState {
                values,
                last_swap: None,
            }
        }

        fn inversions(&self) -> usize {
            let mut inv = 0;
            for i in 0..self.values.len() {
                for j in i + 1..self.values.len() {
                    if self.values[i] > self.values[j] {
                        inv += 1;
                    }
                }
            }
            inv
        }
    }

    impl AnnealState for SortState {
        type Touched = ();

        fn apply(&mut self, rng: &mut StdRng) -> Option<()> {
            let i = rng.gen_range(0..self.values.len());
            let j = rng.gen_range(0..self.values.len());
            self.values.swap(i, j);
            self.last_swap = Some((i, j));
            Some(())
        }

        fn undo(&mut self) {
            let (i, j) = self.last_swap.take().expect("revert without move");
            self.values.swap(i, j);
        }

        fn full_cost(&self) -> f64 {
            self.inversions() as f64
        }
    }

    /// A walk over `state` in the delta mode, which a state without a
    /// cache prices once per move.
    fn walk<S: AnnealState>(state: S) -> Walk<S> {
        Walk::new(state, EvalMode::Delta)
    }

    #[test]
    fn anneal_sorts_a_permutation() {
        let mut state = walk(SortState::new(12, 7));
        let start = state.cost();
        assert!(start > 0.0);
        let end = anneal(&mut state, &AnnealSchedule::default(), 42);
        assert_eq!(end, 0.0, "12 elements should fully sort");
        assert!(state.state.values.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn anneal_is_deterministic_per_seed() {
        let run = |seed| {
            let mut s = walk(SortState::new(20, 3));
            anneal(&mut s, &AnnealSchedule::quick(), seed);
            s.state.values
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn calibration_sets_positive_temperature() {
        let mut s = walk(SortState::new(15, 9));
        let before_cost = s.state.full_cost();
        let sched = AnnealSchedule::default().calibrated(&mut s, 5, 50);
        assert!(sched.initial_temp > 0.0);
        // Calibration must leave the state untouched.
        assert_eq!(s.state.full_cost(), before_cost);
    }

    /// A state whose `undo` is deliberately lossy: every undo leaves a
    /// unit of residual "damage" behind that inflates the cost. Only the
    /// snapshot-restore in `calibrated` can undo it.
    #[derive(Clone)]
    struct LossyState {
        inner: SortState,
        damage: u64,
    }

    impl AnnealState for LossyState {
        type Touched = ();

        fn apply(&mut self, rng: &mut StdRng) -> Option<()> {
            self.inner.apply(rng)
        }

        fn undo(&mut self) {
            self.inner.undo();
            self.damage += 1;
        }

        fn full_cost(&self) -> f64 {
            self.inner.full_cost() + self.damage as f64
        }
    }

    #[test]
    fn calibration_restores_the_pre_probe_state_even_under_lossy_revert() {
        let mut s = walk(LossyState {
            inner: SortState::new(15, 9),
            damage: 0,
        });
        let before_values = s.state.inner.values.clone();
        let before_cost = s.state.full_cost();
        let sched = AnnealSchedule::default().calibrated(&mut s, 5, 50);
        assert!(sched.initial_temp > 0.0);
        assert_eq!(
            s.state.damage, 0,
            "probe reverts must not leak into the state"
        );
        assert_eq!(s.state.inner.values, before_values);
        assert_eq!(s.state.full_cost(), before_cost);
    }

    #[test]
    fn calibration_does_not_perturb_the_seeded_walk() {
        // The walk after calibration must match a walk from a fresh state
        // under the same schedule: calibration reads the state but leaves
        // no trace in it.
        let mut calibrated_state = walk(SortState::new(20, 3));
        let sched = AnnealSchedule::quick().calibrated(&mut calibrated_state, 11, 64);
        let cal_cost = anneal(&mut calibrated_state, &sched, 11);

        let mut fresh = walk(SortState::new(20, 3));
        let fresh_cost = anneal(&mut fresh, &sched, 11);
        assert_eq!(cal_cost, fresh_cost);
        assert_eq!(calibrated_state.state.values, fresh.state.values);
    }

    #[test]
    fn one_replica_matches_the_single_walk_bit_for_bit() {
        let mut single = walk(SortState::new(20, 3));
        let sched = AnnealSchedule::quick().calibrated(&mut single, 7, 32);
        let single_cost = anneal(&mut single, &sched, 7);

        let mut replica = walk(SortState::new(20, 3));
        let replica_cost = anneal_replicas(
            &mut replica,
            None,
            &AnnealSchedule::quick(),
            7,
            1,
            32,
            usize::MAX,
        );
        assert_eq!(single_cost, replica_cost);
        assert_eq!(single.state.values, replica.state.values);
    }

    #[test]
    fn replica_runs_are_deterministic_and_scheduling_independent() {
        // The threaded fan-out (work size above the threshold) and the
        // serial fallback (below it) must agree bit for bit: the reduction
        // is keyed on replica index, not completion order.
        let run = |work_size| {
            let mut s = walk(SortState::new(20, 3));
            let cost = anneal_replicas(&mut s, None, &AnnealSchedule::quick(), 7, 4, 32, work_size);
            (cost, s.state.values)
        };
        let threaded = run(usize::MAX);
        let serial = run(0);
        assert_eq!(threaded, serial);
        assert_eq!(threaded, run(usize::MAX), "repeat runs are identical");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The "never worse than the start" rule the annealers' callers
        /// rely on: short, hot walks that often end on an uphill
        /// excursion, with no warm start, a warm start below the start's
        /// cost (the sorted order) and one above it (the reversed order).
        #[test]
        fn replica_walks_never_end_above_their_start(
            n in 4usize..12,
            seed in proptest::prelude::any::<u64>(),
            walk_seed in proptest::prelude::any::<u64>(),
            replicas in 1usize..=4,
            warm in 0usize..3,
            threaded in proptest::prelude::any::<bool>(),
        ) {
            let mut state = walk(SortState::new(n, seed));
            let start = state.cost();
            let warm = match warm {
                0 => None,
                1 => {
                    let mut below = state.state.clone();
                    below.values.sort_unstable();
                    if below.full_cost() >= start {
                        return Ok(());
                    }
                    Some(below)
                }
                _ => {
                    let mut above = state.state.clone();
                    above.values.sort_unstable_by(|a, b| b.cmp(a));
                    if above.full_cost() <= start {
                        return Ok(());
                    }
                    Some(above)
                }
            };
            let schedule = AnnealSchedule {
                initial_temp: 1.0,
                cooling: 0.9,
                rounds: 3,
                moves_per_round: 6,
            };
            let work_size = if threaded { DEFAULT_REPLICA_WORK_THRESHOLD } else { 0 };
            let cost =
                anneal_replicas(&mut state, warm, &schedule, walk_seed, replicas, 4, work_size);
            proptest::prop_assert!(cost <= start, "{cost} > {start}");
            proptest::prop_assert_eq!(cost, state.state.full_cost());
        }
    }

    /// A [`SortState`] whose clones record, together, the most moves in
    /// progress at once and every thread that applied one.
    #[derive(Clone)]
    struct CountingState {
        inner: SortState,
        live: Arc<AtomicUsize>,
        peak: Arc<AtomicUsize>,
        threads: Arc<Mutex<HashSet<ThreadId>>>,
    }

    impl AnnealState for CountingState {
        type Touched = ();

        fn apply(&mut self, rng: &mut StdRng) -> Option<()> {
            let now = self.live.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            self.threads
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(std::thread::current().id());
            let touched = self.inner.apply(rng);
            self.live.fetch_sub(1, Ordering::SeqCst);
            touched
        }

        fn undo(&mut self) {
            self.inner.undo();
        }

        fn full_cost(&self) -> f64 {
            self.inner.full_cost()
        }
    }

    #[test]
    fn replica_walks_run_on_at_most_one_worker_per_core() {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let run = |work_size| {
            let mut s = walk(CountingState {
                inner: SortState::new(20, 3),
                live: Arc::default(),
                peak: Arc::default(),
                threads: Arc::default(),
            });
            let cost = anneal_replicas(&mut s, None, &AnnealSchedule::quick(), 7, 8, 32, work_size);
            let s = s.state;
            let threads = s
                .threads
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len();
            (cost, s.inner.values, s.peak.load(Ordering::SeqCst), threads)
        };
        let (cost, values, peak, threads) = run(usize::MAX);
        let (serial_cost, serial_values, serial_peak, serial_threads) = run(0);
        assert_eq!((cost, &values), (serial_cost, &serial_values));
        assert_eq!((serial_peak, serial_threads), (1, 1), "the serial path");
        assert!(peak <= cores, "{peak} walks moved at once on {cores} cores");
        assert!(
            threads <= cores.min(8),
            "8 walks ran on {threads} threads, {cores} cores"
        );
    }

    #[test]
    fn replica_reduction_never_loses_to_the_single_walk() {
        let mut single = walk(SortState::new(30, 5));
        let single_cost = anneal_replicas(
            &mut single,
            None,
            &AnnealSchedule::quick(),
            9,
            1,
            32,
            usize::MAX,
        );
        let mut multi = walk(SortState::new(30, 5));
        let multi_cost = anneal_replicas(
            &mut multi,
            None,
            &AnnealSchedule::quick(),
            9,
            6,
            32,
            usize::MAX,
        );
        assert!(
            multi_cost <= single_cost,
            "best-of-6 ({multi_cost}) must not exceed replica 0's result ({single_cost})"
        );
    }

    #[test]
    fn replica_seeds_are_distinct_and_replica_zero_keeps_the_base() {
        let base = 1988;
        assert_eq!(replica_seed(base, 0), base);
        let seeds: Vec<u64> = (0..16).map(|r| replica_seed(base, r)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "derived seeds must not collide");
    }

    #[test]
    fn warm_walk_never_loses_to_cold_or_to_its_seed() {
        let cold = |replicas| {
            let mut s = walk(SortState::new(24, 5));
            anneal_replicas(
                &mut s,
                None,
                &AnnealSchedule::quick(),
                9,
                replicas,
                32,
                usize::MAX,
            )
        };
        // A nearly-sorted warm seed: one swap away from optimal.
        let mut warm_seed = SortState {
            values: (0..24).collect(),
            last_swap: None,
        };
        warm_seed.values.swap(0, 1);
        let seed_cost = warm_seed.full_cost();
        for replicas in [1usize, 3] {
            let mut s = walk(SortState::new(24, 5));
            let warm_cost = anneal_replicas(
                &mut s,
                Some(warm_seed.clone()),
                &AnnealSchedule::quick(),
                9,
                replicas,
                32,
                usize::MAX,
            );
            assert!(
                warm_cost <= cold(replicas),
                "seeded run must never be worse than the cold run at the same seed"
            );
            assert!(
                warm_cost <= seed_cost,
                "seeded run must never be worse than its seed"
            );
        }
    }

    #[test]
    fn warm_runs_are_deterministic_and_scheduling_independent() {
        let run = |work_size| {
            let mut s = walk(SortState::new(20, 3));
            let warm = SortState::new(20, 11);
            let cost = anneal_replicas(
                &mut s,
                Some(warm),
                &AnnealSchedule::quick(),
                7,
                3,
                32,
                work_size,
            );
            (cost, s.state.values)
        };
        assert_eq!(run(usize::MAX), run(0));
        assert_eq!(run(usize::MAX), run(usize::MAX));
    }

    #[test]
    #[should_panic(expected = "cooling factor")]
    fn bad_cooling_rejected() {
        let mut s = walk(SortState::new(4, 0));
        let sched = AnnealSchedule {
            cooling: 1.5,
            ..AnnealSchedule::default()
        };
        let _ = anneal(&mut s, &sched, 0);
    }
}
