//! The Bottleneck Coloring Problem (BCP).
//!
//! Given intervals over a discrete set of *colors* (transitions between
//! consecutive test cubes), assign each interval one color inside its
//! window so that the maximum number of intervals sharing a color is
//! minimized (paper §V). Two solvers are provided:
//!
//! * the **paper solver** — Algorithm 1 (the windowed-density lower
//!   bound) plus Algorithm 2 (earliest-deadline greedy with per-color
//!   quota = lower bound), exactly as published;
//! * the **generalized solver** — additionally accounts for per-color
//!   *baseline* loads (forced toggles from adjacent opposite care bits,
//!   which the paper's formulation ignores). The lower bound becomes
//!   `max over windows ⌈(intervals inside + baseline inside) / |window|⌉`
//!   and earliest-deadline-first with per-color capacities achieves it
//!   (Hall's condition over contiguous windows is sufficient for unit
//!   jobs with interval windows).
//!
//! Both agree whenever the baseline is zero (property-tested), and the
//! generalized peak is provably optimal for the true objective
//! `max_t (baseline_t + load_t)` (tested against brute force).
//!
//! # How the bound is computed
//!
//! The published Algorithm 1 evaluates every window `[i, j]` with a
//! row-by-row dynamic program — O(C²) in the number of colors, the
//! asymptotic wall-clock bound of the whole fill on large inputs. It is
//! retained verbatim (with checked arithmetic) as
//! [`BcpInstance::lower_bound_dp`], a differential reference the solve
//! never calls. The solve certifies the *same value* without the
//! quadratic sweep:
//!
//! 1. **Incremental window ladder** ([`IncrementalBound`]): monotone
//!    maxima over power-of-two *aligned* color windows, maintainable as
//!    interval sites arrive (the streaming analyzer feeds it window by
//!    window, so the bound state grows with the ladder, not the event
//!    stream). Every ladder candidate is the density of a real window,
//!    so `current()` never exceeds the true bound — it is a warm start,
//!    not an approximation that must be trusted. Without a warm start
//!    the solve builds the same ladder in batch, in O(k + C).
//! 2. **Parametric certification**: EDF feasibility at peak `P` is
//!    monotone in `P`, and the minimum feasible `P` *equals* the
//!    windowed lower bound — infeasibility below the bound is the
//!    pigeonhole argument on the violating window, feasibility at the
//!    bound is Hall's condition. Galloping + k-ary search from the warm
//!    start finds that minimum with O(log) EDF probes of O(C + k log k)
//!    each; the k-ary rounds probe one pivot per pool thread
//!    (deterministic: the answer is the minimum feasible peak however
//!    the pivots are scheduled).
//!
//! # How the coloring is computed
//!
//! One serial earliest-deadline sweep over all colors (Algorithm 2)
//! serves every caller: the feasibility probes, the paper and
//! generalized colorings, and the weighted solve. Each interval carries
//! a load, and a color takes intervals earliest-deadline-first while
//! the next one fits its quota; unit instances are the `w = 1` case of
//! that one sweep, not a second code path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

use crate::Interval;

/// Solver activity (relaxed no-ops unless a [`minitrace`] sink is
/// live): ladder maintenance and parametric feasibility probes.
static BCP_LADDER_LOADS: minitrace::Counter = minitrace::Counter::new("bcp.ladder.loads");
static BCP_PROBES: minitrace::Counter = minitrace::Counter::new("bcp.probes");

/// Errors from BCP construction and solving.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BcpError {
    /// An interval refers to a color `>= num_colors`.
    IntervalOutOfRange {
        /// The offending interval.
        interval: Interval,
        /// Number of colors in the instance.
        num_colors: usize,
    },
    /// A baseline load refers to a color `>= num_colors`.
    BaselineOutOfRange {
        /// The offending color.
        color: usize,
        /// Number of colors in the instance.
        num_colors: usize,
    },
    /// The baseline vector length differs from `num_colors`.
    BaselineLengthMismatch {
        /// Expected length.
        expected: usize,
        /// Supplied length.
        found: usize,
    },
    /// A coloring assigned a color outside an interval's window, or has
    /// the wrong length.
    InvalidColoring(String),
    /// The greedy/EDF pass could not place every interval within the
    /// given peak. Cannot happen for peaks at or above the lower bound;
    /// reported instead of panicking to keep the solver total.
    Infeasible {
        /// The peak that was attempted (the caller's target, not the
        /// residual per-color quota).
        peak: u64,
        /// The first color whose baseline alone exceeds `peak`, when one
        /// does (the baseline-aware colorings only). Otherwise the color
        /// whose deadline was missed: an interval ending here could not
        /// be placed by its deadline.
        color: u32,
    },
    /// Arithmetic overflow: the instance's loads exceed `u64`.
    Overflow {
        /// What overflowed.
        what: &'static str,
    },
    /// A weighted interval was added with load 0. Zero-load jobs would
    /// be placeable for free and make "peak" meaningless; weight-0 pins
    /// are rejected at the objective layer and must never reach the
    /// solver.
    ZeroLoad {
        /// The offending interval.
        interval: Interval,
    },
}

impl fmt::Display for BcpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BcpError::IntervalOutOfRange {
                interval,
                num_colors,
            } => write!(f, "interval {interval} exceeds color range 0..{num_colors}"),
            BcpError::BaselineOutOfRange { color, num_colors } => {
                write!(
                    f,
                    "baseline color {color} exceeds color range 0..{num_colors}"
                )
            }
            BcpError::BaselineLengthMismatch { expected, found } => {
                write!(
                    f,
                    "baseline length {found} does not match {expected} colors"
                )
            }
            BcpError::InvalidColoring(msg) => write!(f, "invalid coloring: {msg}"),
            BcpError::Infeasible { peak, color } => {
                write!(
                    f,
                    "no coloring exists with peak {peak}: deadline missed at color {color}"
                )
            }
            BcpError::Overflow { what } => write!(f, "arithmetic overflow computing {what}"),
            BcpError::ZeroLoad { interval } => {
                write!(
                    f,
                    "interval [{}, {}] has load 0; weighted intervals must carry load >= 1",
                    interval.start(),
                    interval.end()
                )
            }
        }
    }
}

impl Error for BcpError {}

/// Configuration of [`BcpInstance::solve_with`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveOptions {
    /// A warm lower bound the caller already certified *for the
    /// generalized (baseline-aware) objective* — typically
    /// [`IncrementalBound::current`] maintained while the instance was
    /// being built. Must never exceed the true bound (every
    /// [`IncrementalBound`] value satisfies this). Skips rebuilding the
    /// ladder; ignored by the paper-mode solve.
    pub warm_lb: Option<u64>,
}

impl SolveOptions {
    /// The same as [`SolveOptions::default`]: no environment variable
    /// changes the solve. Kept for callers that predate that.
    pub fn from_env() -> SolveOptions {
        SolveOptions::default()
    }
}

/// Number of bits needed to represent `x` (`0` for `x == 0`).
#[inline]
fn bitlen(x: usize) -> usize {
    (usize::BITS - x.leading_zeros()) as usize
}

/// A lower bound on the BCP optimum maintained **incrementally** as
/// interval sites and baseline loads arrive, in any order.
///
/// The structure is a ladder of monotone window maxima: level `l` holds
/// one load counter per *aligned* color window `[q·2^l, (q+1)·2^l)`,
/// and a load `[lo, hi]` is counted at every level whose aligned window
/// contains it whole (all `l ≥ bitlen(lo XOR hi)`). Each counter is a
/// real window's load, so `⌈count / 2^l⌉` is a valid lower bound and
/// [`IncrementalBound::current`] — the maximum over all counters —
/// **never exceeds the true windowed bound**. It is exact on aligned
/// witnesses and within the probe budget of
/// [`BcpInstance::solve_with`]'s parametric certification otherwise,
/// which is why it serves as [`SolveOptions::warm_lb`].
///
/// All arithmetic saturates: a saturated counter undercounts, which
/// only weakens (never invalidates) the bound. Levels grow on demand —
/// no upfront color count is needed, so the streaming analyzer can feed
/// sites as they are discovered; a freshly grown level's first window
/// covers every position seen so far and is seeded with the running
/// total.
#[derive(Clone, Debug, Default)]
pub struct IncrementalBound {
    /// `levels[l][q]` = load fully inside aligned window
    /// `[q·2^l, (q+1)·2^l)`.
    levels: Vec<Vec<u64>>,
    /// Saturating total of all recorded loads (seeds new top levels).
    total: u64,
}

/// Levels are capped at window width `2^63`; any event that would need
/// a higher level pins the ladder at the cap (no level is ever created
/// afterwards, keeping top-level seeding sound).
const MAX_LADDER_LEVELS: usize = 64;

impl IncrementalBound {
    /// An empty ladder (bound 0).
    pub fn new() -> IncrementalBound {
        IncrementalBound::default()
    }

    /// Records one interval (unit load placeable anywhere in
    /// `[interval.start(), interval.end()]`).
    pub fn add_interval(&mut self, interval: Interval) {
        self.add_load(interval.start() as usize, interval.end() as usize, 1);
    }

    /// Records `amount` of forced load at color `color`.
    pub fn add_baseline(&mut self, color: usize, amount: u64) {
        self.add_load(color, color, amount);
    }

    /// Records `amount` of load placeable anywhere in `[lo, hi]`
    /// (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn add_load(&mut self, lo: usize, hi: usize, amount: u64) {
        assert!(lo <= hi, "load window {lo} > {hi}");
        BCP_LADDER_LOADS.add(1);
        // Grow the ladder so some level's aligned window covers `hi`.
        // Every previously recorded position fits strictly below any
        // level grown now (its own growth call saw to that), so seeding
        // a new level's first window with the running total is exact.
        let want = (bitlen(hi) + 1).min(MAX_LADDER_LEVELS);
        while self.levels.len() < want {
            self.levels.push(vec![self.total]);
        }
        let first = bitlen(lo ^ hi);
        for l in first..self.levels.len() {
            let idx = hi >> l;
            let level = &mut self.levels[l];
            if level.len() <= idx {
                level.resize(idx + 1, 0);
            }
            level[idx] = level[idx].saturating_add(amount);
        }
        self.total = self.total.saturating_add(amount);
    }

    /// The best window-density bound over everything recorded so far.
    /// Monotone in the recorded loads and never above the true windowed
    /// lower bound.
    pub fn current(&self) -> u64 {
        let mut best = 0u64;
        for (l, level) in self.levels.iter().enumerate() {
            let width = 1u64 << l;
            for &count in level {
                best = best.max(count.div_ceil(width));
            }
        }
        best
    }

    /// Bytes held by the ladder — charged against the streaming memory
    /// budget alongside the event stream.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let counters: usize = self.levels.iter().map(Vec::len).sum();
        (counters * size_of::<u64>() + self.levels.len() * size_of::<Vec<u64>>()) as u64
    }
}

/// Interval indices grouped by start color in one flat (CSR) layout:
/// the intervals starting at color `t` are
/// `order[offsets[t]..offsets[t + 1]]`, in ascending index order. Two
/// allocations whatever the color count, filled by one stable counting
/// sort, and built once per solve.
struct StartIndex {
    /// `num_colors + 1` bucket boundaries into `order`.
    offsets: Vec<u32>,
    /// Every interval index, grouped by start color.
    order: Vec<u32>,
}

impl StartIndex {
    fn new(intervals: &[Interval], num_colors: usize) -> StartIndex {
        let mut offsets = vec![0u32; num_colors + 1];
        for iv in intervals {
            offsets[iv.start() as usize + 1] += 1;
        }
        for t in 0..num_colors {
            offsets[t + 1] += offsets[t];
        }
        // Fill each bucket through its start offset, which leaves
        // `offsets[t]` at the end of bucket `t`; shifting right by one
        // restores the starts without a second cursor array.
        let mut order = vec![0u32; intervals.len()];
        for (idx, iv) in intervals.iter().enumerate() {
            let slot = &mut offsets[iv.start() as usize];
            order[*slot as usize] = idx as u32;
            *slot += 1;
        }
        offsets.copy_within(..num_colors, 1);
        offsets[0] = 0;
        StartIndex { offsets, order }
    }

    /// Number of colors indexed.
    fn num_colors(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Indices of the intervals starting at color `t`, ascending.
    #[inline]
    fn starting_at(&self, t: usize) -> &[u32] {
        &self.order[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }
}

/// The batch form of the [`IncrementalBound`] ladder over colors
/// `0..num_colors`: the best `⌈load / 2^l⌉` over every aligned window
/// of every level. Interval `i` carries `loads[i]` (missing entries are
/// unit, [`BcpInstance`]'s lazy representation) and color `t` carries
/// `baseline[t]` (an empty slice ignores the baseline).
///
/// Each load is added once, at its own aligned level, and each level is
/// then folded into the next by pair sums — O(k + C) in total, one
/// allocation. A saturating sum of non-negative terms is
/// `min(sum, u64::MAX)` in any order, so the result equals
/// [`IncrementalBound::current`] fed the same loads; saturation only
/// undercounts, keeping every level a valid lower bound.
fn ladder_best(num_colors: usize, intervals: &[Interval], loads: &[u64], baseline: &[u64]) -> u64 {
    if num_colors == 0 {
        return 0;
    }
    let top = bitlen(num_colors - 1).min(63);
    // Level `l` holds windows `0..=(num_colors - 1) >> l`, stored from
    // `start[l]` in one flat array.
    let mut start = [0usize; 65];
    for l in 0..=top {
        start[l + 1] = start[l] + ((num_colors - 1) >> l) + 1;
    }
    let mut counts = vec![0u64; start[top + 1]];
    for (t, &b) in baseline.iter().enumerate() {
        counts[t] = counts[t].saturating_add(b);
    }
    for (i, iv) in intervals.iter().enumerate() {
        let l = iv.aligned_level() as usize;
        let slot = &mut counts[start[l] + (iv.start() as usize >> l)];
        *slot = slot.saturating_add(loads.get(i).copied().unwrap_or(1));
    }
    let mut best = 0u64;
    for l in 0..=top {
        let (below, above) = counts.split_at_mut(start[l + 1]);
        let level = &below[start[l]..];
        let width = 1u64 << l;
        best = level.iter().fold(best, |m, &n| m.max(n.div_ceil(width)));
        if l < top {
            for (parent, pair) in above.iter_mut().zip(level.chunks(2)) {
                *parent = pair.iter().fold(*parent, |a, &n| a.saturating_add(n));
            }
        }
    }
    best
}

/// The minimum peak at or above `lo` that `feasible` accepts, for a
/// predicate monotone in the peak: gallop to an infeasible/feasible
/// bracket, then narrow it with a panel of pivots, one probe per pool
/// thread. The result is the same whatever the panel width, so it is
/// deterministic at any thread count. `what` names the bound in the
/// [`BcpError::Overflow`] reported when no peak in `u64` is feasible.
fn min_feasible_peak(
    lo: u64,
    what: &'static str,
    feasible: impl Fn(u64) -> bool + Sync,
) -> Result<u64, BcpError> {
    if feasible(lo) {
        // `lo` never exceeds the true bound, and the true bound is the
        // minimum feasible peak — so feasibility at `lo` pins it.
        return Ok(lo);
    }
    // Gallop to an infeasible/feasible bracket (bad, good].
    let mut bad = lo;
    let mut step = 1u64;
    let mut good;
    loop {
        let p = bad.saturating_add(step);
        if feasible(p) {
            good = p;
            break;
        }
        if p == u64::MAX {
            return Err(BcpError::Overflow { what });
        }
        bad = p;
        step = step.saturating_mul(2);
    }
    while good - bad > 1 {
        let gap = good - bad - 1;
        let m = (minipool::current_threads().max(1) as u64).min(gap).min(16);
        let pivots: Vec<u64> = (1..=m)
            .map(|i| bad + ((good - bad) as u128 * i as u128 / (m + 1) as u128) as u64)
            .collect();
        let feas = minipool::parallel_indexed(pivots.len(), |i| feasible(pivots[i]));
        match feas.iter().position(|&f| f) {
            Some(j) => {
                good = pivots[j];
                if j > 0 {
                    bad = pivots[j - 1];
                }
            }
            None => bad = pivots[m as usize - 1],
        }
    }
    Ok(good)
}

/// The EDF sweep over every color (Algorithm 2, and the 1‖ΣwⱼUⱼ EDD
/// order with weights). At each color: push the intervals starting
/// there, then take them earliest-deadline-first while the heap head
/// still fits the color's quota `peak − baseline[t]`, and `place` each
/// one. The head blocks the color even when a lighter later-deadline
/// interval would fit, so with unit loads this is exactly the paper's
/// quota-per-color greedy. Interval `i` carries `loads[i]` and color `t`
/// carries `baseline[t]`; an empty (or short) slice means unit loads or
/// a zero baseline.
///
/// Returns the first color whose baseline alone exceeds `peak`, if any
/// (before placing anything); otherwise the deadline color of the first
/// interval left unplaced. The heap key `(end, index)` is a total
/// order, so the placements are independent of heap internals.
fn edf_sweep(
    intervals: &[Interval],
    loads: &[u64],
    index: &StartIndex,
    peak: u64,
    baseline: &[u64],
    mut place: impl FnMut(u32, u32),
) -> Result<(), u32> {
    if let Some(t) = baseline.iter().position(|&b| b > peak) {
        return Err(t as u32);
    }
    let mut heap = BinaryHeap::with_capacity(intervals.len());
    for t in 0..index.num_colors() {
        for &idx in index.starting_at(t) {
            heap.push(Reverse((intervals[idx as usize].end(), idx)));
        }
        let quota = peak - baseline.get(t).copied().unwrap_or(0);
        let mut used = 0u64;
        while let Some(&Reverse((end, idx))) = heap.peek() {
            if (end as usize) < t {
                // Deadline missed: some earlier color was overfull.
                return Err(end);
            }
            let w = loads.get(idx as usize).copied().unwrap_or(1);
            if used.saturating_add(w) > quota {
                break;
            }
            heap.pop();
            place(idx, t as u32);
            used += w;
        }
    }
    match heap.peek() {
        Some(&Reverse((end, _))) => Err(end),
        None => Ok(()),
    }
}

/// A BCP instance: intervals over `num_colors` colors plus optional
/// per-color baseline loads.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct BcpInstance {
    num_colors: usize,
    intervals: Vec<Interval>,
    baseline: Vec<u64>,
    /// Per-interval loads for weighted objectives. Lazily populated:
    /// empty means every interval has unit load (the canonical
    /// representation for unweighted instances, so derived equality and
    /// memory stay exactly as before). Once any non-unit load is added
    /// the vector is back-filled with 1s and kept in sync with
    /// `intervals`.
    loads: Vec<u64>,
}

/// A color assignment: `colors[i]` is the color given to interval `i` (in
/// instance order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coloring {
    colors: Vec<u32>,
}

impl Coloring {
    /// Per-interval colors, in instance order.
    pub fn colors(&self) -> &[u32] {
        &self.colors
    }

    /// Color of interval `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn color(&self, i: usize) -> u32 {
        self.colors[i]
    }
}

/// Peaks achieved by a verified coloring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifiedPeak {
    /// `max_t (baseline_t + interval load_t)` — the true toggle peak.
    pub with_baseline: u64,
    /// `max_t interval load_t` — the paper's BCP objective.
    pub intervals_only: u64,
}

/// A solved instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BcpSolution {
    /// The color given to each interval.
    pub coloring: Coloring,
    /// The lower bound the solver certified.
    pub lower_bound: u64,
    /// The achieved peaks (optimal: `with_baseline == lower_bound` for
    /// the generalized solver; `intervals_only == lower_bound` for the
    /// paper solver).
    pub peak: VerifiedPeak,
}

impl BcpInstance {
    /// Creates an instance with `num_colors` colors, no intervals and a
    /// zero baseline.
    pub fn new(num_colors: usize) -> BcpInstance {
        BcpInstance {
            num_colors,
            intervals: Vec::new(),
            baseline: vec![0; num_colors],
            loads: Vec::new(),
        }
    }

    /// Adds an interval.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::IntervalOutOfRange`] when the interval's end is
    /// not a valid color.
    pub fn add_interval(&mut self, interval: Interval) -> Result<(), BcpError> {
        if interval.end() as usize >= self.num_colors {
            return Err(BcpError::IntervalOutOfRange {
                interval,
                num_colors: self.num_colors,
            });
        }
        self.intervals.push(interval);
        if !self.loads.is_empty() {
            self.loads.push(1);
        }
        Ok(())
    }

    /// Adds an interval carrying `load` toggle weight (a weighted
    /// objective's fixed-point cost for this pin's one transition).
    /// `add_weighted_interval(iv, 1)` is exactly `add_interval(iv)`.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::IntervalOutOfRange`] when the interval's end
    /// is not a valid color and [`BcpError::ZeroLoad`] when `load == 0`
    /// (weight-0 pins must be rejected before reaching the solver).
    pub fn add_weighted_interval(&mut self, interval: Interval, load: u64) -> Result<(), BcpError> {
        if load == 0 {
            return Err(BcpError::ZeroLoad { interval });
        }
        if interval.end() as usize >= self.num_colors {
            return Err(BcpError::IntervalOutOfRange {
                interval,
                num_colors: self.num_colors,
            });
        }
        let tracked = !self.loads.is_empty() || load != 1;
        if load != 1 && self.loads.is_empty() {
            // First non-unit load: back-fill unit loads for every
            // interval added so far.
            self.loads = vec![1; self.intervals.len()];
        }
        self.intervals.push(interval);
        if tracked {
            self.loads.push(load);
        }
        Ok(())
    }

    /// Load carried by interval `i` (1 for unweighted instances).
    ///
    /// # Panics
    ///
    /// Never panics; out-of-range indices report load 1 (callers index
    /// by instance order).
    pub fn interval_load(&self, i: usize) -> u64 {
        self.loads.get(i).copied().unwrap_or(1)
    }

    /// `true` when every interval carries unit load — the solve then
    /// certifies the exact unit bound, not the fractional weighted one.
    pub fn is_unit(&self) -> bool {
        self.loads.iter().all(|&w| w == 1)
    }

    /// Adds a forced (unavoidable) load at color `t`.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::BaselineOutOfRange`] when `t` is not a valid
    /// color and [`BcpError::Overflow`] when the accumulated load at `t`
    /// exceeds `u64` — the no-panic crate contract.
    pub fn add_baseline(&mut self, t: usize, amount: u64) -> Result<(), BcpError> {
        let num_colors = self.num_colors;
        let slot = self
            .baseline
            .get_mut(t)
            .ok_or(BcpError::BaselineOutOfRange {
                color: t,
                num_colors,
            })?;
        *slot = slot.checked_add(amount).ok_or(BcpError::Overflow {
            what: "accumulated baseline load",
        })?;
        Ok(())
    }

    /// Replaces the baseline vector.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::BaselineLengthMismatch`] on length mismatch.
    pub fn set_baseline(&mut self, baseline: Vec<u64>) -> Result<(), BcpError> {
        if baseline.len() != self.num_colors {
            return Err(BcpError::BaselineLengthMismatch {
                expected: self.num_colors,
                found: baseline.len(),
            });
        }
        self.baseline = baseline;
        Ok(())
    }

    /// Number of colors (transitions).
    pub fn num_colors(&self) -> usize {
        self.num_colors
    }

    /// The intervals, in insertion order.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// The per-color baseline loads.
    pub fn baseline(&self) -> &[u64] {
        &self.baseline
    }

    /// The paper's Algorithm 1 bound (baseline ignored), computed by
    /// the default sub-quadratic parametric engine. Equal to
    /// [`BcpInstance::lower_bound_dp`]`(false)` wherever the DP does not
    /// overflow (differential-tested).
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::Overflow`] when the bound exceeds `u64`.
    pub fn lower_bound_paper(&self) -> Result<u64, BcpError> {
        self.certified_bound(false, None, &self.start_index())
    }

    /// Generalized lower bound for the true objective
    /// `max_t (baseline_t + load_t)`:
    /// `max( max_t baseline_t, max_{i≤j} ⌈(T[i][j] + Σ baseline)/(j−i+1)⌉ )`,
    /// computed by the default sub-quadratic parametric engine.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::Overflow`] when the bound exceeds `u64`.
    ///
    /// On weighted instances (any interval load > 1) the windowed sums
    /// weigh each interval by its load and the engine switches to the
    /// weighted parametric probe — still exact for the windowed bound,
    /// though the integral weighted optimum may exceed it (the problem
    /// is NP-hard).
    pub fn lower_bound(&self) -> Result<u64, BcpError> {
        let index = self.start_index();
        if self.is_unit() {
            self.certified_bound(true, None, &index)
        } else {
            self.certified_bound_weighted(None, &index)
        }
    }

    /// Algorithm 1 verbatim: the O(C²) row dynamic program over
    /// `T[i][j]` (intervals with `start ≥ i` and `end ≤ j`), which
    /// satisfies
    /// `T[i][j] = T[i][j-1] + T[i+1][j] − T[i+1][j-1] + #(start=i ∧ end=j)`;
    /// the bound is `max ⌈(T[i][j] + baseline[i..=j])/(j−i+1)⌉`. O(C)
    /// space. Retained as the differential reference for the parametric
    /// engine; the solve never calls it.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::Overflow`] when a windowed load sum exceeds
    /// `u64` (adversarial baselines overflowed silently in release
    /// before this was checked).
    pub fn lower_bound_dp(&self, with_baseline: bool) -> Result<u64, BcpError> {
        let c = self.num_colors;
        if c == 0 {
            return Ok(0);
        }
        // exact_by_start[i] lists ends of intervals starting exactly at i.
        let mut exact_by_start: Vec<Vec<u32>> = vec![Vec::new(); c];
        for iv in &self.intervals {
            exact_by_start[iv.start() as usize].push(iv.end());
        }
        // Baseline prefix sums: pre[j] = sum of baseline[0..j].
        let mut pre = vec![0u64; if with_baseline { c + 1 } else { 0 }];
        if with_baseline {
            for t in 0..c {
                pre[t + 1] = pre[t]
                    .checked_add(self.baseline[t])
                    .ok_or(BcpError::Overflow {
                        what: "baseline prefix sum",
                    })?;
            }
        }

        let mut best: u64 = if with_baseline {
            self.baseline.iter().copied().max().unwrap_or(0)
        } else {
            0
        };
        // prev[j] = T[i+1][j]; cur[j] = T[i][j]. Row i processed from the
        // last color down to 0.
        let mut prev = vec![0u64; c];
        let mut cur = vec![0u64; c];
        let mut add = vec![0u64; c];
        for i in (0..c).rev() {
            for a in add.iter_mut() {
                *a = 0;
            }
            for &e in &exact_by_start[i] {
                add[e as usize] += 1;
            }
            for j in 0..c {
                if j < i {
                    cur[j] = 0;
                    continue;
                }
                let t_left = if j > i { cur[j - 1] } else { 0 };
                let t_down = prev[j];
                let t_diag = if j > i { prev[j - 1] } else { 0 };
                cur[j] = t_left + t_down - t_diag + add[j];
                let len = (j - i + 1) as u64;
                let numerator = if with_baseline {
                    cur[j]
                        .checked_add(pre[j + 1] - pre[i])
                        .ok_or(BcpError::Overflow {
                            what: "windowed load (intervals + baseline)",
                        })?
                } else {
                    cur[j]
                };
                let bound = numerator.div_ceil(len);
                if bound > best {
                    best = bound;
                }
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        Ok(best)
    }

    /// Reference implementation of the lower bound: direct counting per
    /// window, O(C²·k). Used to cross-check both engines in tests;
    /// exposed for downstream validation on small instances.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::Overflow`] when a windowed load sum exceeds
    /// `u64`.
    pub fn lower_bound_naive(&self, with_baseline: bool) -> Result<u64, BcpError> {
        let c = self.num_colors;
        let mut best: u64 = if with_baseline {
            self.baseline.iter().copied().max().unwrap_or(0)
        } else {
            0
        };
        for i in 0..c {
            for j in i..c {
                let inside = self
                    .intervals
                    .iter()
                    .filter(|iv| iv.within(i as u32, j as u32))
                    .count() as u64;
                let mut numerator = inside;
                if with_baseline {
                    for &b in &self.baseline[i..=j] {
                        numerator = numerator.checked_add(b).ok_or(BcpError::Overflow {
                            what: "windowed load (intervals + baseline)",
                        })?;
                    }
                }
                let len = (j - i + 1) as u64;
                best = best.max(numerator.div_ceil(len));
            }
        }
        Ok(best)
    }

    /// Weighted Algorithm 1: the O(C²) row DP with each interval
    /// contributing its load to `T[i][j]` instead of 1. Always
    /// baseline-aware (weighted solves target the true objective).
    /// Equals [`BcpInstance::lower_bound`] wherever neither engine
    /// overflows (differential-tested); a reference the solve never
    /// calls.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::Overflow`] when a windowed load sum exceeds
    /// `u64`.
    pub fn lower_bound_dp_weighted(&self) -> Result<u64, BcpError> {
        let c = self.num_colors;
        if c == 0 {
            return Ok(0);
        }
        let overflow = || BcpError::Overflow {
            what: "windowed weighted load",
        };
        // exact_by_start[i] lists (end, load) of intervals starting at i.
        let mut exact_by_start: Vec<Vec<(u32, u64)>> = vec![Vec::new(); c];
        for (i, iv) in self.intervals.iter().enumerate() {
            exact_by_start[iv.start() as usize].push((iv.end(), self.interval_load(i)));
        }
        let mut pre = vec![0u64; c + 1];
        for t in 0..c {
            pre[t + 1] = pre[t]
                .checked_add(self.baseline[t])
                .ok_or(BcpError::Overflow {
                    what: "baseline prefix sum",
                })?;
        }
        let mut best: u64 = self.baseline.iter().copied().max().unwrap_or(0);
        let mut prev = vec![0u64; c];
        let mut cur = vec![0u64; c];
        let mut add = vec![0u64; c];
        for i in (0..c).rev() {
            for a in add.iter_mut() {
                *a = 0;
            }
            for &(e, w) in &exact_by_start[i] {
                add[e as usize] = add[e as usize].checked_add(w).ok_or_else(overflow)?;
            }
            for j in 0..c {
                if j < i {
                    cur[j] = 0;
                    continue;
                }
                let t_left = if j > i { cur[j - 1] } else { 0 };
                let t_down = prev[j];
                let t_diag = if j > i { prev[j - 1] } else { 0 };
                // T[i][j-1] ⊇ T[i+1][j-1], so the subtraction cannot
                // underflow, and ordering it first avoids a spurious
                // intermediate overflow.
                cur[j] = (t_left - t_diag)
                    .checked_add(t_down)
                    .and_then(|v| v.checked_add(add[j]))
                    .ok_or_else(overflow)?;
                let len = (j - i + 1) as u64;
                let numerator = cur[j]
                    .checked_add(pre[j + 1] - pre[i])
                    .ok_or_else(overflow)?;
                best = best.max(numerator.div_ceil(len));
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        Ok(best)
    }

    /// Weighted reference bound: direct load summation per window,
    /// O(C²·k), baseline-aware. Cross-checks the weighted parametric
    /// and DP engines in tests.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::Overflow`] when a windowed load sum exceeds
    /// `u64`.
    pub fn lower_bound_naive_weighted(&self) -> Result<u64, BcpError> {
        let c = self.num_colors;
        let overflow = || BcpError::Overflow {
            what: "windowed weighted load",
        };
        let mut best: u64 = self.baseline.iter().copied().max().unwrap_or(0);
        for i in 0..c {
            for j in i..c {
                let mut numerator = 0u64;
                for (idx, iv) in self.intervals.iter().enumerate() {
                    if iv.within(i as u32, j as u32) {
                        numerator = numerator
                            .checked_add(self.interval_load(idx))
                            .ok_or_else(overflow)?;
                    }
                }
                for &b in &self.baseline[i..=j] {
                    numerator = numerator.checked_add(b).ok_or_else(overflow)?;
                }
                let len = (j - i + 1) as u64;
                best = best.max(numerator.div_ceil(len));
            }
        }
        Ok(best)
    }

    /// The flat start index of this instance's intervals.
    fn start_index(&self) -> StartIndex {
        StartIndex::new(&self.intervals, self.num_colors)
    }

    /// Can every interval be placed with peak `peak`? One EDF sweep
    /// ([`edf_sweep`]), O(C + k log k), over the given baseline (empty
    /// ignores it) and loads (empty means unit). With unit loads the
    /// answer is exact and monotone in `peak`. With weights, success
    /// certifies an achievable peak but failure does **not** certify
    /// infeasibility (weighted bottleneck coloring is NP-hard and
    /// blocking EDF is a heuristic above the fractional bound).
    fn probe_feasible(
        &self,
        index: &StartIndex,
        peak: u64,
        baseline: &[u64],
        loads: &[u64],
    ) -> bool {
        BCP_PROBES.add(1);
        edf_sweep(&self.intervals, loads, index, peak, baseline, |_, _| {}).is_ok()
    }

    /// The parametric lower-bound engine: start from the best cheap
    /// candidate (`warm` or the ladder, plus the max-baseline and
    /// global-density candidates — all true lower bounds), then find the
    /// minimum EDF-feasible peak by galloping and k-ary narrowing with
    /// one probe per pool thread. That minimum *is* the windowed bound:
    /// below it some window is overfull (pigeonhole), at it EDF
    /// succeeds (Hall). Deterministic at any thread count.
    fn certified_bound(
        &self,
        with_baseline: bool,
        warm: Option<u64>,
        index: &StartIndex,
    ) -> Result<u64, BcpError> {
        let c = self.num_colors;
        if c == 0 {
            return Ok(0);
        }
        let k = self.intervals.len() as u64;
        let baseline: &[u64] = if with_baseline { &self.baseline } else { &[] };
        let mut lo = match warm {
            Some(w) => w,
            None => ladder_best(c, &self.intervals, &[], baseline),
        };
        lo = lo.max(baseline.iter().copied().max().unwrap_or(0));
        // Saturation undercounts, keeping the candidate a valid bound.
        let total = baseline.iter().fold(k, |a, &b| a.saturating_add(b));
        lo = lo.max(total.div_ceil(c as u64));
        min_feasible_peak(lo, "BCP lower bound (exceeds u64)", |p| {
            self.probe_feasible(index, p, baseline, &[])
        })
    }

    /// Weighted fractional feasibility probe: can every interval's load
    /// be placed within per-color capacity `peak − baseline_t` when
    /// loads are divisible? Preemptive EDF is optimal for divisible
    /// jobs with release times and deadlines, so the sweep is exact for
    /// the relaxation and feasibility is monotone in `peak`. The
    /// minimum feasible integral peak equals
    /// `max(max_t baseline_t, max_{i≤j} ⌈(W[i][j] + B[i][j])/(j−i+1)⌉)`
    /// (Gale–Hoffman on contiguous windows) — a true lower bound for
    /// the integral weighted problem.
    fn probe_feasible_fractional(&self, index: &StartIndex, peak: u64) -> bool {
        BCP_PROBES.add(1);
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> =
            BinaryHeap::with_capacity(self.intervals.len());
        let mut remaining: Vec<u64> = (0..self.intervals.len())
            .map(|i| self.interval_load(i))
            .collect();
        for t in 0..self.num_colors {
            for &idx in index.starting_at(t) {
                heap.push(Reverse((self.intervals[idx as usize].end(), idx)));
            }
            let mut quota = peak.saturating_sub(self.baseline[t]);
            while quota > 0 {
                let Some(&Reverse((end, idx))) = heap.peek() else {
                    break;
                };
                if (end as usize) < t {
                    return false;
                }
                let r = remaining[idx as usize];
                if r <= quota {
                    quota -= r;
                    heap.pop();
                } else {
                    remaining[idx as usize] = r - quota;
                    quota = 0;
                }
            }
            if let Some(&Reverse((end, _))) = heap.peek() {
                if (end as usize) < t {
                    return false;
                }
            }
        }
        heap.is_empty()
    }

    /// The weighted parametric lower-bound engine: minimum peak
    /// feasible for the *fractional* relaxation, found exactly like the
    /// unit engine — warm/ladder/density floor, gallop, k-ary panel
    /// narrowing. The fractional predicate is monotone, so the result
    /// is deterministic at any thread count. Warm candidates stay
    /// valid: loads are ≥ 1, so any unit-load bound is below the
    /// weighted bound.
    fn certified_bound_weighted(
        &self,
        warm: Option<u64>,
        index: &StartIndex,
    ) -> Result<u64, BcpError> {
        let c = self.num_colors;
        if c == 0 {
            return Ok(0);
        }
        let ladder = ladder_best(c, &self.intervals, &self.loads, &self.baseline);
        let mut lo = warm.unwrap_or(0).max(ladder);
        lo = lo.max(self.baseline.iter().copied().max().unwrap_or(0));
        // Saturation undercounts, keeping the candidate a valid bound.
        let total = (0..self.intervals.len())
            .map(|i| self.interval_load(i))
            .fold(0u64, |a, w| a.saturating_add(w));
        let total = self
            .baseline
            .iter()
            .fold(total, |a, &b| a.saturating_add(b));
        lo = lo.max(total.div_ceil(c as u64));
        min_feasible_peak(lo, "weighted BCP lower bound (exceeds u64)", |p| {
            self.probe_feasible_fractional(index, p)
        })
    }

    /// Algorithm 2: earliest-deadline greedy coloring with a per-color
    /// quota of `lb` intervals (the paper's optimal coloring; baseline
    /// and interval loads ignored).
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::Infeasible`] if `lb` is below the true lower
    /// bound (cannot happen when `lb = self.lower_bound_paper()`).
    pub fn color_greedy_paper(&self, lb: u64) -> Result<Coloring, BcpError> {
        self.color_sweep(lb, &[], &[], &self.start_index())
    }

    /// Earliest-deadline-first coloring with per-color capacity
    /// `peak − baseline_t` — the generalized solver's assignment step
    /// (interval loads ignored).
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::Infeasible`] when `peak` is below the
    /// generalized lower bound, including when some color's baseline
    /// alone exceeds `peak` (then `color` is the first such color).
    pub fn color_edf(&self, peak: u64) -> Result<Coloring, BcpError> {
        self.color_sweep(peak, &self.baseline, &[], &self.start_index())
    }

    /// Weighted [`BcpInstance::color_edf`]: the same sweep with each
    /// interval consuming its load, blocking EDF. On unit loads it places
    /// exactly like [`BcpInstance::color_edf`].
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::Infeasible`] when the blocking sweep cannot
    /// meet `peak`, including when some color's baseline alone exceeds
    /// `peak` (then `color` is the first such color).
    pub fn color_edf_weighted(&self, peak: u64) -> Result<Coloring, BcpError> {
        self.color_sweep(peak, &self.baseline, &self.loads, &self.start_index())
    }

    /// The coloring driver: one [`edf_sweep`] at `peak` over the given
    /// baseline and loads (empty slices ignore the baseline and mean unit
    /// loads), recording each placement.
    fn color_sweep(
        &self,
        peak: u64,
        baseline: &[u64],
        loads: &[u64],
        index: &StartIndex,
    ) -> Result<Coloring, BcpError> {
        let mut colors = vec![u32::MAX; self.intervals.len()];
        edf_sweep(&self.intervals, loads, index, peak, baseline, |idx, t| {
            colors[idx as usize] = t;
        })
        .map_err(|color| BcpError::Infeasible { peak, color })?;
        Ok(Coloring { colors })
    }

    /// Verifies a coloring: every interval colored inside its window.
    /// Returns the achieved peaks.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::InvalidColoring`] when the coloring is
    /// malformed and [`BcpError::Overflow`] when an achieved per-color
    /// peak exceeds `u64`.
    pub fn verify(&self, coloring: &Coloring) -> Result<VerifiedPeak, BcpError> {
        if coloring.colors.len() != self.intervals.len() {
            return Err(BcpError::InvalidColoring(format!(
                "{} colors for {} intervals",
                coloring.colors.len(),
                self.intervals.len()
            )));
        }
        let mut load = vec![0u64; self.num_colors];
        for (i, (iv, &color)) in self.intervals.iter().zip(&coloring.colors).enumerate() {
            if !iv.contains(color) {
                return Err(BcpError::InvalidColoring(format!(
                    "interval {iv} colored {color}"
                )));
            }
            let slot = &mut load[color as usize];
            *slot = slot
                .checked_add(self.interval_load(i))
                .ok_or(BcpError::Overflow {
                    what: "verified peak (load + baseline)",
                })?;
        }
        let intervals_only = load.iter().copied().max().unwrap_or(0);
        let mut with_baseline = self.baseline.iter().copied().max().unwrap_or(0);
        for (l, b) in load.iter().zip(&self.baseline) {
            let peak = l.checked_add(*b).ok_or(BcpError::Overflow {
                what: "verified peak (load + baseline)",
            })?;
            with_baseline = with_baseline.max(peak);
        }
        Ok(VerifiedPeak {
            with_baseline,
            intervals_only,
        })
    }

    /// Secondary-objective tie-break: shifts each interval as far as
    /// its slack allows in the desired direction without raising any
    /// per-color peak above `peak`. `desire[i] > 0` moves interval
    /// `i`'s transition as late as possible (more cubes hold the left
    /// value of its stretch), `< 0` as early as possible, `0` leaves it
    /// in place. One deterministic pass in instance order; the result
    /// re-verifies at the same or a lower peak, so a peak-optimal
    /// coloring stays peak-optimal.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::InvalidColoring`] when the coloring is
    /// malformed, `desire` has the wrong length, or the coloring's
    /// verified peak already exceeds `peak`; [`BcpError::Overflow`]
    /// when verification overflows.
    pub fn shift_within_slack(
        &self,
        coloring: &Coloring,
        desire: &[i8],
        peak: u64,
    ) -> Result<Coloring, BcpError> {
        if desire.len() != self.intervals.len() {
            return Err(BcpError::InvalidColoring(format!(
                "{} desires for {} intervals",
                desire.len(),
                self.intervals.len()
            )));
        }
        let verified = self.verify(coloring)?;
        if verified.with_baseline > peak {
            return Err(BcpError::InvalidColoring(format!(
                "verified peak {} exceeds shift budget {peak}",
                verified.with_baseline
            )));
        }
        let mut load = vec![0u64; self.num_colors];
        for (i, &color) in coloring.colors.iter().enumerate() {
            // verify() above proved these sums fit in u64.
            load[color as usize] += self.interval_load(i);
        }
        let mut colors = coloring.colors.clone();
        for i in 0..colors.len() {
            let dir = desire[i];
            if dir == 0 {
                continue;
            }
            let iv = self.intervals[i];
            let w = self.interval_load(i);
            let cur = colors[i] as usize;
            load[cur] -= w;
            let fits = |t: usize, load: &[u64]| {
                self.baseline[t].saturating_add(load[t]).saturating_add(w) <= peak
            };
            let mut chosen = cur;
            if dir > 0 {
                // Farthest color to the right that still fits.
                let mut t = iv.end() as usize;
                while t > cur {
                    if fits(t, &load) {
                        chosen = t;
                        break;
                    }
                    t -= 1;
                }
            } else {
                // Farthest color to the left that still fits.
                for t in iv.start() as usize..cur {
                    if fits(t, &load) {
                        chosen = t;
                        break;
                    }
                }
            }
            load[chosen] += w;
            colors[i] = chosen as u32;
        }
        Ok(Coloring { colors })
    }

    /// Solves with the generalized (baseline-aware) algorithm under
    /// explicit [`SolveOptions`]; the returned peak is optimal for
    /// `max_t (baseline_t + load_t)`. A warm bound changes only where
    /// the bound search starts, never the solution — differential-tested.
    ///
    /// Weighted instances (any interval load > 1) certify the exact
    /// fractional windowed bound as `lower_bound`, and `peak` may exceed
    /// it on instances beyond the exact-search budget (weighted
    /// bottleneck coloring is NP-hard). Both kinds color with the same
    /// EDF sweep; unit instances pass it unit loads.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::Overflow`] when the bound exceeds `u64`;
    /// propagates [`BcpError::Infeasible`] — which on unit instances
    /// would indicate a solver bug, as the generalized lower bound is
    /// always achievable.
    pub fn solve_with(&self, opts: &SolveOptions) -> Result<BcpSolution, BcpError> {
        let _span = minitrace::span_with(
            "bcp.solve",
            &[
                ("intervals", self.intervals.len().into()),
                ("colors", self.num_colors.into()),
                ("unit", u64::from(self.is_unit()).into()),
            ],
        );
        if !self.is_unit() {
            return self.solve_weighted(opts.warm_lb);
        }
        let (index, lb) = {
            let _span = minitrace::span("bcp.bound");
            let index = self.start_index();
            let lb = self.certified_bound(true, opts.warm_lb, &index)?;
            (index, lb)
        };
        let coloring = {
            let _span = minitrace::span("bcp.color");
            self.color_sweep(lb, &self.baseline, &[], &index)?
        };
        let peak = {
            let _span = minitrace::span("bcp.verify");
            self.verify(&coloring)?
        };
        debug_assert_eq!(peak.with_baseline, lb, "EDF must achieve the bound");
        Ok(BcpSolution {
            coloring,
            lower_bound: lb,
            peak,
        })
    }

    /// Weighted solve: certify the fractional windowed bound, find a
    /// blocking-EDF-feasible peak, color at it, then close any
    /// remaining gap with a bounded exact branch-and-bound. Weighted
    /// bottleneck coloring is NP-hard, so `peak == lower_bound` is not
    /// guaranteed on instances beyond the search budget; inside it the
    /// peak is exactly optimal (differential-tested against brute
    /// force).
    fn solve_weighted(&self, warm_lb: Option<u64>) -> Result<BcpSolution, BcpError> {
        let (index, lb) = {
            let _span = minitrace::span("bcp.bound");
            let index = self.start_index();
            let lb = self.certified_bound_weighted(warm_lb, &index)?;
            (index, lb)
        };
        let coloring = {
            let _span = minitrace::span("bcp.color");
            let target = self.blocking_peak(lb, &index)?;
            let greedy = self.color_sweep(target, &self.baseline, &self.loads, &index)?;
            self.exact_refine(lb, greedy)?
        };
        let peak = {
            let _span = minitrace::span("bcp.verify");
            self.verify(&coloring)?
        };
        Ok(BcpSolution {
            coloring,
            lower_bound: lb,
            peak,
        })
    }

    /// The blocking-EDF-feasible peak the weighted coloring targets:
    /// `lb` itself when feasible, else found by deterministic galloping
    /// and serial bisection (blocking feasibility need not be monotone,
    /// so the search must not depend on the thread count).
    fn blocking_peak(&self, lb: u64, index: &StartIndex) -> Result<u64, BcpError> {
        if self.probe_feasible(index, lb, &self.baseline, &self.loads) {
            return Ok(lb);
        }
        let mut bad = lb;
        let mut step = 1u64;
        let mut good;
        loop {
            let p = bad.saturating_add(step);
            if self.probe_feasible(index, p, &self.baseline, &self.loads) {
                good = p;
                break;
            }
            if p == u64::MAX {
                return Err(BcpError::Overflow {
                    what: "weighted BCP peak (exceeds u64)",
                });
            }
            bad = p;
            step = step.saturating_mul(2);
        }
        // Bisect; the invariant "good is feasible" holds throughout, so
        // the result is a deterministic achievable peak even if the
        // predicate has non-monotone pockets.
        while good - bad > 1 {
            let mid = bad + (good - bad) / 2;
            if self.probe_feasible(index, mid, &self.baseline, &self.loads) {
                good = mid;
            } else {
                bad = mid;
            }
        }
        Ok(good)
    }

    /// Bounded deterministic branch-and-bound over interval placements:
    /// seeded with the `greedy` coloring's peak (strict upper bound)
    /// and cut off at `lb` (provably optimal when reached). Intervals
    /// are visited tightest-deadline first; the node budget and depth
    /// gate bound worst-case work, so large instances simply keep the
    /// greedy coloring. Returns the better of the two colorings (the
    /// greedy one on ties). Entirely serial — identical at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::Overflow`] when verifying a coloring
    /// overflows.
    fn exact_refine(&self, lb: u64, greedy: Coloring) -> Result<Coloring, BcpError> {
        const NODE_BUDGET: u64 = 2_000_000;
        const MAX_DEPTH: usize = 2_000;
        let k = self.intervals.len();
        if k == 0 || k > MAX_DEPTH {
            return Ok(greedy);
        }
        let seed_peak = self.verify(&greedy)?.with_baseline;
        if seed_peak <= lb {
            return Ok(greedy);
        }
        let mut order: Vec<u32> = (0..k as u32).collect();
        order.sort_unstable_by_key(|&i| {
            let iv = self.intervals[i as usize];
            (iv.end(), iv.start(), i)
        });
        struct Search<'a> {
            inst: &'a BcpInstance,
            order: Vec<u32>,
            load: Vec<u64>,
            colors: Vec<u32>,
            best: Option<Vec<u32>>,
            best_peak: u64,
            lb: u64,
            budget: u64,
        }
        impl Search<'_> {
            fn dfs(&mut self, depth: usize, cur_peak: u64) {
                if self.best_peak == self.lb || self.budget == 0 {
                    return;
                }
                if depth == self.order.len() {
                    if cur_peak < self.best_peak {
                        self.best_peak = cur_peak;
                        self.best = Some(self.colors.clone());
                    }
                    return;
                }
                let idx = self.order[depth] as usize;
                let iv = self.inst.intervals[idx];
                let w = self.inst.interval_load(idx);
                for t in iv.start()..=iv.end() {
                    if self.budget == 0 {
                        return;
                    }
                    self.budget -= 1;
                    let slot = t as usize;
                    let new_load = self.load[slot].saturating_add(w);
                    // Prune: this color would already match the best peak.
                    if new_load >= self.best_peak {
                        continue;
                    }
                    self.load[slot] = new_load;
                    self.colors[idx] = t;
                    self.dfs(depth + 1, cur_peak.max(new_load));
                    self.load[slot] = new_load - w;
                    if self.best_peak == self.lb {
                        return;
                    }
                }
            }
        }
        let mut search = Search {
            inst: self,
            order,
            // `load` carries the baseline, so per-color sums are the
            // true objective directly.
            load: self.baseline.clone(),
            colors: vec![u32::MAX; k],
            best: None,
            best_peak: seed_peak,
            lb,
            budget: NODE_BUDGET,
        };
        let start_peak = search.load.iter().copied().max().unwrap_or(0);
        search.dfs(0, start_peak);
        if let Some(colors) = search.best {
            let improved = Coloring { colors };
            if self.verify(&improved)?.with_baseline < seed_peak {
                return Ok(improved);
            }
        }
        Ok(greedy)
    }

    /// Solves with the generalized (baseline-aware) algorithm and no
    /// warm bound.
    ///
    /// # Errors
    ///
    /// See [`BcpInstance::solve_with`].
    pub fn solve(&self) -> Result<BcpSolution, BcpError> {
        self.solve_with(&SolveOptions::default())
    }

    /// Solves with the paper's Algorithms 1+2 (baseline ignored during
    /// optimization, but reported in the verified peak). Interval loads
    /// are also ignored — the published algorithms are defined for unit
    /// loads; weighted instances must use [`BcpInstance::solve`].
    ///
    /// # Errors
    ///
    /// Returns [`BcpError::Overflow`] when the bound exceeds `u64`;
    /// propagates [`BcpError::Infeasible`] — which would indicate a
    /// solver bug, as Algorithm 2 always meets the Algorithm 1 bound.
    pub fn solve_paper(&self) -> Result<BcpSolution, BcpError> {
        let index = self.start_index();
        let lb = self.certified_bound(false, None, &index)?;
        let coloring = self.color_sweep(lb, &[], &[], &index)?;
        let peak = self.verify(&coloring)?;
        debug_assert!(
            !self.is_unit() || peak.intervals_only == lb,
            "greedy must meet Algorithm 1's bound"
        );
        Ok(BcpSolution {
            coloring,
            lower_bound: lb,
            peak,
        })
    }

    /// Exhaustive minimum peak (with baseline) — O(∏ len(interval)).
    /// Only for tiny instances in tests and validation (saturating: not
    /// meaningful near `u64::MAX` loads).
    pub fn brute_force_min_peak(&self) -> u64 {
        fn rec(instance: &BcpInstance, idx: usize, load: &mut Vec<u64>, best: &mut u64) {
            if idx == instance.intervals.len() {
                let peak = load
                    .iter()
                    .zip(&instance.baseline)
                    .map(|(l, b)| l.saturating_add(*b))
                    .max()
                    .unwrap_or(0);
                *best = (*best).min(peak);
                return;
            }
            let iv = instance.intervals[idx];
            let w = instance.interval_load(idx);
            for t in iv.start()..=iv.end() {
                let slot = t as usize;
                let old = load[slot];
                load[slot] = old.saturating_add(w);
                // Prune: partial peak already ≥ best.
                let partial = load[slot].saturating_add(instance.baseline[slot]);
                if partial < *best || *best == 0 {
                    rec(instance, idx + 1, load, best);
                }
                load[slot] = old;
            }
        }
        if self.num_colors == 0 {
            return 0;
        }
        let mut best = u64::MAX;
        let mut load = vec![0u64; self.num_colors];
        rec(self, 0, &mut load, &mut best);
        if best == u64::MAX {
            // No intervals: the peak is the baseline's max.
            self.baseline.iter().copied().max().unwrap_or(0)
        } else {
            best
        }
    }
}

/// Construction helpers for tests and examples that need a hand-made
/// [`Coloring`]. Not part of the stable API.
#[doc(hidden)]
pub mod test_support {
    use super::Coloring;

    /// Builds a coloring from raw colors (no validation; pair with
    /// [`BcpInstance::verify`](super::BcpInstance::verify)).
    pub fn coloring(colors: Vec<u32>) -> Coloring {
        Coloring { colors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance(n_colors: usize, ivs: &[(u32, u32)]) -> BcpInstance {
        let mut inst = BcpInstance::new(n_colors);
        for &(s, e) in ivs {
            inst.add_interval(Interval::new(s, e)).unwrap();
        }
        inst
    }

    /// Cross-checks the three bound engines on a small instance and
    /// returns the agreed value.
    fn agreed_bound(inst: &BcpInstance, with_baseline: bool) -> u64 {
        let parametric = if with_baseline {
            inst.lower_bound().unwrap()
        } else {
            inst.lower_bound_paper().unwrap()
        };
        assert_eq!(parametric, inst.lower_bound_dp(with_baseline).unwrap());
        assert_eq!(parametric, inst.lower_bound_naive(with_baseline).unwrap());
        parametric
    }

    #[test]
    fn empty_instance() {
        let inst = BcpInstance::new(5);
        assert_eq!(agreed_bound(&inst, false), 0);
        assert_eq!(agreed_bound(&inst, true), 0);
        let sol = inst.solve().unwrap();
        assert_eq!(sol.peak.with_baseline, 0);
    }

    #[test]
    fn zero_colors() {
        let mut inst = BcpInstance::new(0);
        assert_eq!(inst.lower_bound().unwrap(), 0);
        assert!(inst.solve().is_ok());
        assert!(inst.add_interval(Interval::new(0, 0)).is_err());
    }

    #[test]
    fn out_of_range_interval_rejected() {
        let mut inst = BcpInstance::new(3);
        assert!(matches!(
            inst.add_interval(Interval::new(1, 3)),
            Err(BcpError::IntervalOutOfRange { .. })
        ));
    }

    #[test]
    fn out_of_range_baseline_rejected() {
        // Was a documented panic; now the typed no-panic error.
        let mut inst = BcpInstance::new(3);
        assert_eq!(
            inst.add_baseline(3, 1),
            Err(BcpError::BaselineOutOfRange {
                color: 3,
                num_colors: 3
            })
        );
        assert!(BcpInstance::new(0).add_baseline(0, 1).is_err());
        assert!(inst.add_baseline(2, 5).is_ok());
        assert_eq!(inst.baseline(), &[0, 0, 5]);
    }

    #[test]
    fn baseline_accumulation_overflow_is_typed() {
        let mut inst = BcpInstance::new(2);
        inst.add_baseline(1, u64::MAX).unwrap();
        assert_eq!(
            inst.add_baseline(1, 1),
            Err(BcpError::Overflow {
                what: "accumulated baseline load"
            })
        );
        // The failed add must not have clobbered the slot.
        assert_eq!(inst.baseline(), &[0, u64::MAX]);
    }

    #[test]
    fn pigeonhole_bound() {
        // Three identical point intervals must share one color.
        let inst = instance(4, &[(1, 1), (1, 1), (1, 1)]);
        assert_eq!(agreed_bound(&inst, false), 3);
        let sol = inst.solve_paper().unwrap();
        assert_eq!(sol.peak.intervals_only, 3);
    }

    #[test]
    fn spreading_reduces_peak() {
        // Four intervals each allowing two colors can spread to peak 2.
        let inst = instance(2, &[(0, 1), (0, 1), (0, 1), (0, 1)]);
        assert_eq!(agreed_bound(&inst, false), 2);
        let sol = inst.solve_paper().unwrap();
        assert_eq!(sol.peak.intervals_only, 2);
    }

    #[test]
    fn window_density_bound() {
        // Window [1,2] holds 5 intervals over 2 colors -> LB 3 even
        // though each single color only "sees" fewer forced intervals.
        let inst = instance(5, &[(1, 2), (1, 2), (1, 1), (2, 2), (1, 2)]);
        assert_eq!(agreed_bound(&inst, false), 3);
        let sol = inst.solve_paper().unwrap();
        assert_eq!(sol.peak.intervals_only, 3);
        assert_eq!(inst.brute_force_min_peak(), 3);
    }

    #[test]
    fn paper_fig1_style_instance_is_optimal() {
        // Disjoint choices allow peak 1.
        let inst = instance(4, &[(0, 1), (2, 3), (1, 2)]);
        let sol = inst.solve_paper().unwrap();
        assert_eq!(sol.peak.intervals_only, 1);
    }

    #[test]
    fn baseline_changes_optimum() {
        // One interval over colors {0,1}; baseline load 2 at color 0.
        let mut inst = instance(2, &[(0, 1)]);
        inst.add_baseline(0, 2).unwrap();
        // Paper solver ignores baseline and may pick color 0 -> true
        // peak 3; generalized solver must pick color 1 -> peak 2.
        assert_eq!(agreed_bound(&inst, true), 2);
        let sol = inst.solve().unwrap();
        assert_eq!(sol.peak.with_baseline, 2);
        assert_eq!(sol.coloring.color(0), 1);
        assert_eq!(inst.brute_force_min_peak(), 2);
    }

    #[test]
    fn baseline_only_instance() {
        let mut inst = BcpInstance::new(3);
        inst.set_baseline(vec![1, 4, 2]).unwrap();
        assert_eq!(agreed_bound(&inst, true), 4);
        let sol = inst.solve().unwrap();
        assert_eq!(sol.peak.with_baseline, 4);
        assert_eq!(inst.brute_force_min_peak(), 4);
    }

    #[test]
    fn baseline_window_averaging() {
        // Baseline [0,3,0] + two intervals over the whole range: the
        // window [1,1] gives ceil((0+3)/1)=3; whole window gives
        // ceil((2+3)/3)=2; max_t baseline = 3 -> LB 3 and EDF avoids
        // color 1 entirely.
        let mut inst = instance(3, &[(0, 2), (0, 2)]);
        inst.set_baseline(vec![0, 3, 0]).unwrap();
        assert_eq!(agreed_bound(&inst, true), 3);
        let sol = inst.solve().unwrap();
        assert_eq!(sol.peak.with_baseline, 3);
        assert_eq!(inst.brute_force_min_peak(), 3);
    }

    #[test]
    fn set_baseline_validates_length() {
        let mut inst = BcpInstance::new(3);
        assert!(matches!(
            inst.set_baseline(vec![0, 1]),
            Err(BcpError::BaselineLengthMismatch { .. })
        ));
    }

    #[test]
    fn greedy_respects_deadlines() {
        // Intervals with tight deadlines first: EDF must schedule the
        // early-ending ones before the late ones.
        let inst = instance(3, &[(0, 2), (0, 0), (0, 1), (0, 2)]);
        let lb = inst.lower_bound_paper().unwrap();
        assert_eq!(lb, 2);
        let coloring = inst.color_greedy_paper(lb).unwrap();
        let peak = inst.verify(&coloring).unwrap();
        assert_eq!(peak.intervals_only, 2);
        // Interval 1 (deadline 0) must get color 0.
        assert_eq!(coloring.color(1), 0);
    }

    #[test]
    fn infeasible_reports_attempted_peak_and_missed_color() {
        // Two point intervals at color 0: peak 1 places one, misses the
        // other at its deadline 0.
        let inst = instance(2, &[(0, 0), (0, 0)]);
        assert_eq!(
            inst.color_greedy_paper(1),
            Err(BcpError::Infeasible { peak: 1, color: 0 })
        );
    }

    #[test]
    fn infeasible_edf_reports_attempted_peak_not_residual_quota() {
        // Baseline-heavy: peak 5 leaves quota 5 - 4 = 1 at every color,
        // too little for three point intervals at color 1. The error
        // must name the attempted peak 5 (the old code leaked the
        // residual quota 1) and the missed color 1.
        let mut inst = instance(3, &[(1, 1), (1, 1), (1, 1)]);
        inst.set_baseline(vec![4, 4, 4]).unwrap();
        assert_eq!(
            inst.color_edf(5),
            Err(BcpError::Infeasible { peak: 5, color: 1 })
        );
        // At the true bound (4 + ceil(3/1) ... window [1,1] holds 4+3)
        // the solve succeeds.
        assert_eq!(inst.lower_bound().unwrap(), 7);
        assert!(inst.color_edf(7).is_ok());
    }

    #[test]
    fn edf_is_infeasible_when_a_baseline_alone_exceeds_the_peak() {
        // Color 0's baseline 5 already exceeds peak 3, whatever the
        // interval does: both baseline-aware colorings name color 0.
        let mut inst = instance(2, &[(0, 1)]);
        inst.set_baseline(vec![5, 0]).unwrap();
        let expected = Err(BcpError::Infeasible { peak: 3, color: 0 });
        assert_eq!(inst.color_edf(3), expected);
        assert_eq!(inst.color_edf_weighted(3), expected);
        // Only colors above the peak count, and the first one is named.
        inst.set_baseline(vec![0, 5]).unwrap();
        assert_eq!(
            inst.color_edf(3),
            Err(BcpError::Infeasible { peak: 3, color: 1 })
        );
        inst.set_baseline(vec![4, 5]).unwrap();
        assert_eq!(
            inst.color_edf_weighted(3),
            Err(BcpError::Infeasible { peak: 3, color: 0 })
        );
        // No intervals at all: the baseline still decides.
        let mut empty = BcpInstance::new(1);
        empty.set_baseline(vec![5]).unwrap();
        assert_eq!(
            empty.color_edf(3),
            Err(BcpError::Infeasible { peak: 3, color: 0 })
        );
        assert_eq!(empty.color_edf(5).unwrap().colors(), &[] as &[u32]);
        // The paper coloring ignores the baseline.
        assert!(inst.color_greedy_paper(1).is_ok());
        // At the bound the coloring verifies at exactly that peak.
        let lb = inst.lower_bound().unwrap();
        assert_eq!(lb, 5);
        let coloring = inst.color_edf(lb).unwrap();
        assert_eq!(inst.verify(&coloring).unwrap().with_baseline, lb);
    }

    #[test]
    fn verify_rejects_out_of_window_colors() {
        let inst = instance(3, &[(0, 1)]);
        let bad = Coloring { colors: vec![2] };
        assert!(matches!(
            inst.verify(&bad),
            Err(BcpError::InvalidColoring(_))
        ));
        let short = Coloring { colors: vec![] };
        assert!(matches!(
            inst.verify(&short),
            Err(BcpError::InvalidColoring(_))
        ));
    }

    #[test]
    fn dp_matches_naive_on_dense_instance() {
        let ivs: Vec<(u32, u32)> = (0..20)
            .flat_map(|s| (s..20).map(move |e| (s, e)))
            .filter(|(s, e)| (e - s) % 3 == 0)
            .collect();
        let inst = instance(20, &ivs);
        agreed_bound(&inst, false);
        let sol = inst.solve_paper().unwrap();
        assert_eq!(sol.peak.intervals_only, sol.lower_bound);
    }

    #[test]
    fn generalized_solver_matches_brute_force() {
        // A handful of hand-rolled small instances with baselines.
        type Case = (usize, Vec<(u32, u32)>, Vec<u64>);
        let cases: Vec<Case> = vec![
            (3, vec![(0, 1), (1, 2), (0, 2)], vec![1, 0, 2]),
            (4, vec![(0, 3), (1, 2), (2, 3), (0, 0)], vec![0, 2, 0, 1]),
            (2, vec![(0, 1), (0, 1), (1, 1)], vec![3, 0]),
            (5, vec![(0, 4); 7], vec![1, 1, 1, 1, 1]),
        ];
        for (c, ivs, baseline) in cases {
            let mut inst = instance(c, &ivs);
            inst.set_baseline(baseline.clone()).unwrap();
            agreed_bound(&inst, true);
            let sol = inst.solve().unwrap();
            assert_eq!(
                sol.peak.with_baseline,
                inst.brute_force_min_peak(),
                "instance {c} {ivs:?} {baseline:?}"
            );
        }
    }

    #[test]
    fn solution_peak_equals_lower_bound() {
        let inst = instance(6, &[(0, 5), (1, 3), (2, 2), (2, 4), (0, 1), (4, 5)]);
        let sol = inst.solve_paper().unwrap();
        assert_eq!(sol.peak.intervals_only, sol.lower_bound);
        let gsol = inst.solve().unwrap();
        assert_eq!(gsol.peak.with_baseline, gsol.lower_bound);
        // No baseline: both agree.
        assert_eq!(gsol.peak.with_baseline, sol.peak.intervals_only);
    }

    #[test]
    fn dp_overflow_is_typed_at_u64_max_baselines() {
        // pre[2] = u64::MAX + 1 overflows the prefix sum: the quadratic
        // DP must surface a typed error (it wrapped silently in release
        // before), while the parametric engine — which never sums
        // windows — still certifies the representable bound u64::MAX.
        let mut inst = instance(2, &[(0, 1)]);
        inst.set_baseline(vec![u64::MAX, 0]).unwrap();
        assert!(matches!(
            inst.lower_bound_dp(true),
            Err(BcpError::Overflow { .. })
        ));
        assert!(matches!(
            inst.lower_bound_naive(true),
            Err(BcpError::Overflow { .. })
        ));
        assert_eq!(inst.lower_bound().unwrap(), u64::MAX);
        // The paper-mode DP ignores the baseline and must not trip.
        assert_eq!(inst.lower_bound_dp(false).unwrap(), 1);
        // And the full solve is exact: the interval lands on color 1.
        let sol = inst.solve().unwrap();
        assert_eq!(sol.peak.with_baseline, u64::MAX);
        assert_eq!(sol.coloring.color(0), 1);
    }

    #[test]
    fn unrepresentable_bound_is_typed_overflow() {
        // Baseline u64::MAX plus a forced point interval at the same
        // color: the true bound is u64::MAX + 1. Every engine must
        // report Overflow instead of wrapping or looping.
        let mut inst = instance(1, &[(0, 0)]);
        inst.set_baseline(vec![u64::MAX]).unwrap();
        assert!(matches!(inst.lower_bound(), Err(BcpError::Overflow { .. })));
        assert!(matches!(
            inst.lower_bound_dp(true),
            Err(BcpError::Overflow { .. })
        ));
        assert!(matches!(inst.solve(), Err(BcpError::Overflow { .. })));
    }

    #[test]
    fn incremental_bound_never_exceeds_and_warms_the_solve() {
        let ivs = [(0u32, 3u32), (1, 2), (2, 2), (4, 6), (0, 6), (5, 5)];
        let mut inst = instance(7, &ivs);
        inst.set_baseline(vec![1, 0, 2, 0, 0, 3, 0]).unwrap();
        let mut ladder = IncrementalBound::new();
        for &(s, e) in &ivs {
            ladder.add_interval(Interval::new(s, e));
        }
        for (t, &b) in inst.baseline().iter().enumerate() {
            ladder.add_baseline(t, b);
        }
        let lb = agreed_bound(&inst, true);
        let warm = ladder.current();
        assert!(warm <= lb, "ladder {warm} exceeds true bound {lb}");
        assert!(ladder.approx_bytes() > 0);
        let sol = inst
            .solve_with(&SolveOptions {
                warm_lb: Some(warm),
            })
            .unwrap();
        assert_eq!(sol.lower_bound, lb);
        assert_eq!(sol.coloring, inst.solve().unwrap().coloring);
    }

    #[test]
    fn ladder_is_exact_on_aligned_witnesses() {
        // Three point intervals at color 5: the level-0 window [5,5] is
        // aligned, so the ladder alone pins the bound.
        let mut ladder = IncrementalBound::new();
        for _ in 0..3 {
            ladder.add_interval(Interval::new(5, 5));
        }
        assert_eq!(ladder.current(), 3);
        // Unaligned window [1,2]: the ladder may undershoot (level-1
        // windows are [0,1] and [2,3]) but never overshoots.
        let mut ladder = IncrementalBound::new();
        for _ in 0..4 {
            ladder.add_load(1, 2, 1);
        }
        assert!(ladder.current() <= 2);
        assert!(ladder.current() >= 1);
    }

    /// A seeded instance for the ladder and index differentials: `C` in
    /// 1..=300, a mix of short and full-width intervals, loads either
    /// unit or 1..=2^40, and a sparse baseline that is small or near
    /// `u64::MAX / 3` (so window sums saturate).
    fn ladder_case(seed: u64) -> (usize, Vec<Interval>, Vec<u64>, Vec<u64>) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let c = 1 + (next() % 300) as usize;
        let k = (next() % (2 * c as u64 + 1)) as usize;
        let weighted = seed % 3 == 1;
        let saturating = seed % 4 == 2;
        let mut intervals = Vec::with_capacity(k);
        let mut loads = Vec::new();
        for _ in 0..k {
            let s = (next() % c as u64) as u32;
            let reach = if next() % 8 == 0 { c as u64 } else { 4 };
            let e = (s as u64 + next() % reach).min(c as u64 - 1) as u32;
            intervals.push(Interval::new(s, e));
            if weighted {
                loads.push(1 + next() % (1 << 40));
            }
        }
        let baseline = (0..c)
            .map(|_| match next() % 4 {
                0 if saturating => u64::MAX / 3 - next() % 8,
                0 => next() % 5,
                _ => 0,
            })
            .collect();
        (c, intervals, loads, baseline)
    }

    #[test]
    fn linear_ladder_matches_the_incremental_ladder() {
        let mut saturated = 0;
        for seed in 0..480u64 {
            let (c, intervals, loads, baseline) = ladder_case(seed);
            if baseline
                .iter()
                .try_fold(0u64, |a, &b| a.checked_add(b))
                .is_none()
            {
                saturated += 1;
            }
            let mut ladder = IncrementalBound::new();
            for (i, iv) in intervals.iter().enumerate() {
                let w = loads.get(i).copied().unwrap_or(1);
                ladder.add_load(iv.start() as usize, iv.end() as usize, w);
            }
            for (t, &b) in baseline.iter().enumerate() {
                ladder.add_baseline(t, b);
            }
            assert_eq!(
                ladder_best(c, &intervals, &loads, &baseline),
                ladder.current(),
                "seed {seed}: {c} colors, {} intervals",
                intervals.len()
            );
            // Without the baseline, the unit ladder is the interval-only
            // incremental ladder.
            let mut unit = IncrementalBound::new();
            for iv in &intervals {
                unit.add_interval(*iv);
            }
            unit.add_baseline(c - 1, 0);
            assert_eq!(
                ladder_best(c, &intervals, &[], &[]),
                unit.current(),
                "seed {seed}"
            );
        }
        assert!(saturated >= 40, "only {saturated} instances saturate");
        assert_eq!(ladder_best(0, &[], &[], &[]), 0);
    }

    #[test]
    fn start_index_lists_each_colors_intervals_in_ascending_order() {
        for seed in 0..480u64 {
            let (c, intervals, _, _) = ladder_case(seed);
            let index = StartIndex::new(&intervals, c);
            for t in 0..c {
                let expect: Vec<u32> = (0..intervals.len() as u32)
                    .filter(|&i| intervals[i as usize].start() as usize == t)
                    .collect();
                assert_eq!(index.starting_at(t), expect, "seed {seed} color {t}");
            }
            assert_eq!(index.order.len(), intervals.len());
        }
        assert!(StartIndex::new(&[], 0).order.is_empty());
    }

    fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        minipool::with_pool(&minipool::ThreadPool::new(threads), f)
    }

    #[test]
    fn unit_solve_is_identical_at_every_thread_count() {
        let inst = {
            let mut inst = instance(
                11,
                &[
                    (0, 10),
                    (0, 0),
                    (3, 7),
                    (3, 7),
                    (4, 4),
                    (8, 10),
                    (9, 10),
                    (2, 6),
                    (0, 5),
                ],
            );
            inst.set_baseline(vec![0, 2, 0, 1, 0, 0, 3, 0, 0, 1, 0])
                .unwrap();
            inst
        };
        let lb = inst.lower_bound().unwrap();
        let serial = inst.color_edf(lb).unwrap();
        for threads in [1, 2, 8] {
            let sol = with_threads(threads, || inst.solve()).unwrap();
            assert_eq!(sol.lower_bound, lb, "{threads} threads");
            assert_eq!(sol.coloring, serial, "{threads} threads");
        }
    }

    #[test]
    fn solve_options_pick_engines_not_answers() {
        let mut inst = instance(9, &[(0, 8), (2, 3), (2, 3), (5, 5), (6, 8), (0, 1)]);
        inst.set_baseline(vec![1, 0, 0, 2, 0, 1, 0, 0, 0]).unwrap();
        let reference = inst.solve_with(&SolveOptions::default()).unwrap();
        assert_eq!(reference.lower_bound, inst.lower_bound_dp(true).unwrap());
        for warm_lb in [None, Some(0), Some(reference.lower_bound)] {
            for threads in [1, 2, 8] {
                let sol =
                    with_threads(threads, || inst.solve_with(&SolveOptions { warm_lb })).unwrap();
                assert_eq!(sol, reference, "warm {warm_lb:?}, {threads} threads");
            }
        }
        assert_eq!(SolveOptions::from_env(), SolveOptions::default());
    }

    /// Deterministic pseudo-random weight in 1..=16.
    fn pseudo_weight(seed: u64) -> u64 {
        (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) + 1
    }

    fn weighted_instance(n_colors: usize, ivs: &[(u32, u32, u64)]) -> BcpInstance {
        let mut inst = BcpInstance::new(n_colors);
        for &(s, e, w) in ivs {
            inst.add_weighted_interval(Interval::new(s, e), w).unwrap();
        }
        inst
    }

    #[test]
    fn unit_loads_stay_in_the_canonical_representation() {
        let mut inst = BcpInstance::new(4);
        inst.add_weighted_interval(Interval::new(0, 2), 1).unwrap();
        inst.add_interval(Interval::new(1, 3)).unwrap();
        assert!(inst.is_unit());
        // Unit weighted adds leave the instance equal to the plain one.
        let plain = instance(4, &[(0, 2), (1, 3)]);
        assert_eq!(inst, plain);
        // A non-unit load back-fills and stays in sync afterwards.
        inst.add_weighted_interval(Interval::new(0, 0), 5).unwrap();
        inst.add_interval(Interval::new(2, 3)).unwrap();
        assert!(!inst.is_unit());
        assert_eq!(
            (0..4).map(|i| inst.interval_load(i)).collect::<Vec<_>>(),
            vec![1, 1, 5, 1]
        );
    }

    #[test]
    fn zero_load_intervals_are_rejected() {
        let mut inst = BcpInstance::new(4);
        let err = inst
            .add_weighted_interval(Interval::new(1, 2), 0)
            .unwrap_err();
        assert!(matches!(err, BcpError::ZeroLoad { .. }));
        assert_eq!(inst.intervals().len(), 0);
    }

    #[test]
    fn weighted_bound_engines_agree() {
        let mut seed = 0u64;
        for n_colors in [1usize, 3, 7, 12] {
            for k in [0usize, 1, 4, 9] {
                let mut inst = BcpInstance::new(n_colors);
                for _ in 0..k {
                    seed += 1;
                    let s = (pseudo_weight(seed * 3) - 1) as u32 % n_colors as u32;
                    seed += 1;
                    let e = s + (pseudo_weight(seed * 5) as u32 - 1) % (n_colors as u32 - s);
                    seed += 1;
                    inst.add_weighted_interval(Interval::new(s, e), pseudo_weight(seed))
                        .unwrap();
                }
                for t in 0..n_colors {
                    seed += 1;
                    if pseudo_weight(seed) > 12 {
                        inst.add_baseline(t, pseudo_weight(seed * 7)).unwrap();
                    }
                }
                let parametric = inst.lower_bound().unwrap();
                assert_eq!(parametric, inst.lower_bound_dp_weighted().unwrap());
                assert_eq!(parametric, inst.lower_bound_naive_weighted().unwrap());
            }
        }
    }

    #[test]
    fn weighted_dp_matches_unit_dp_on_unit_instances() {
        let mut inst = instance(9, &[(0, 8), (2, 3), (2, 3), (5, 5), (6, 8), (0, 1)]);
        inst.set_baseline(vec![1, 0, 0, 2, 0, 1, 0, 0, 0]).unwrap();
        assert_eq!(
            inst.lower_bound_dp_weighted().unwrap(),
            inst.lower_bound_dp(true).unwrap()
        );
    }

    #[test]
    fn weighted_solve_matches_brute_force_on_small_instances() {
        // Random small weighted instances: the bounded exact search
        // must close the greedy gap, making the solver peak optimal.
        let mut seed = 1000u64;
        for trial in 0..40 {
            let n_colors = 2 + (trial % 7);
            let k = 1 + (trial % 6);
            let mut inst = BcpInstance::new(n_colors);
            for _ in 0..k {
                seed += 1;
                let s = (pseudo_weight(seed * 3) as u32 - 1) % n_colors as u32;
                seed += 1;
                let e = s + (pseudo_weight(seed * 5) as u32 - 1) % (n_colors as u32 - s);
                seed += 1;
                inst.add_weighted_interval(Interval::new(s, e), pseudo_weight(seed))
                    .unwrap();
            }
            seed += 1;
            if pseudo_weight(seed) > 8 {
                inst.add_baseline((seed % n_colors as u64) as usize, pseudo_weight(seed * 11))
                    .unwrap();
            }
            let expect = inst.brute_force_min_peak();
            let sol = inst.solve().unwrap();
            assert_eq!(sol.peak.with_baseline, expect, "trial {trial}: {inst:?}");
            assert!(sol.lower_bound <= expect, "trial {trial}");
            assert_eq!(inst.verify(&sol.coloring).unwrap(), sol.peak);
        }
    }

    #[test]
    fn weighted_solve_is_identical_at_every_thread_count() {
        let inst = {
            let mut inst = weighted_instance(
                11,
                &[
                    (0, 10, 3),
                    (0, 0, 7),
                    (3, 7, 2),
                    (3, 7, 5),
                    (4, 4, 1),
                    (8, 10, 9),
                    (9, 10, 4),
                    (2, 6, 6),
                    (0, 5, 2),
                ],
            );
            inst.set_baseline(vec![0, 2, 0, 1, 0, 0, 3, 0, 0, 1, 0])
                .unwrap();
            inst
        };
        let reference = inst.solve().unwrap();
        assert_eq!(
            reference.lower_bound,
            inst.lower_bound_dp_weighted().unwrap()
        );
        let peak = reference.peak.with_baseline;
        let serial_coloring = inst.color_edf_weighted(peak).unwrap();
        for threads in [1, 2, 8] {
            assert_eq!(
                with_threads(threads, || inst.color_edf_weighted(peak)).unwrap(),
                serial_coloring,
                "{threads} threads"
            );
            let sol = with_threads(threads, || inst.solve()).unwrap();
            assert_eq!(sol, reference, "{threads} threads");
        }
    }

    #[test]
    fn weighted_coloring_with_unit_loads_places_like_the_unit_sweep() {
        let mut inst = instance(9, &[(0, 8), (2, 3), (2, 3), (5, 5), (6, 8), (0, 1)]);
        inst.set_baseline(vec![1, 0, 0, 2, 0, 1, 0, 0, 0]).unwrap();
        let lb = inst.lower_bound().unwrap();
        assert_eq!(
            inst.color_edf_weighted(lb).unwrap(),
            inst.color_edf(lb).unwrap()
        );
        // And the miss reports match too.
        if lb > 0 {
            let unit_err = inst.color_edf(lb - 1).unwrap_err();
            let weighted_err = inst.color_edf_weighted(lb - 1).unwrap_err();
            assert_eq!(format!("{unit_err}"), format!("{weighted_err}"));
        }
    }

    #[test]
    fn weighted_overflow_reports_typed_errors_at_extreme_weights() {
        // Two max-weight intervals forced onto one color: the bound
        // exceeds u64 and must surface as Overflow, not wrap or panic.
        let inst = weighted_instance(1, &[(0, 0, u64::MAX), (0, 0, u64::MAX)]);
        assert!(matches!(inst.lower_bound(), Err(BcpError::Overflow { .. })));
        assert!(matches!(inst.solve(), Err(BcpError::Overflow { .. })));
        assert!(matches!(
            inst.lower_bound_naive_weighted(),
            Err(BcpError::Overflow { .. })
        ));
        assert!(matches!(
            inst.lower_bound_dp_weighted(),
            Err(BcpError::Overflow { .. })
        ));
        // A single max-weight interval is fine.
        let single = weighted_instance(1, &[(0, 0, u64::MAX)]);
        assert_eq!(single.solve().unwrap().peak.with_baseline, u64::MAX);
    }

    #[test]
    fn shift_within_slack_moves_only_where_the_peak_allows() {
        // Three unit intervals over 3 colors, peak 1: the coloring is a
        // permutation; desires can only shuffle within slack.
        let inst = instance(3, &[(0, 2), (0, 2), (0, 2)]);
        let sol = inst.solve().unwrap();
        assert_eq!(sol.peak.with_baseline, 1);
        // Pull everything rightward: the last-placed can't move (the
        // other colors are full), so the shifted coloring must still
        // verify at peak 1.
        let shifted = inst
            .shift_within_slack(&sol.coloring, &[1, 1, 1], 1)
            .unwrap();
        let peak = inst.verify(&shifted).unwrap();
        assert_eq!(peak.with_baseline, 1);
        // With peak budget 3 everything piles onto the rightmost color.
        let shifted = inst
            .shift_within_slack(&sol.coloring, &[1, 1, 1], 3)
            .unwrap();
        assert_eq!(shifted.colors(), &[2, 2, 2]);
        let leftward = inst
            .shift_within_slack(&sol.coloring, &[-1, -1, -1], 3)
            .unwrap();
        assert_eq!(leftward.colors(), &[0, 0, 0]);
        // Zero desire is the identity.
        let same = inst
            .shift_within_slack(&sol.coloring, &[0, 0, 0], 1)
            .unwrap();
        assert_eq!(&same, &sol.coloring);
        // Bad budget and bad lengths are typed errors.
        assert!(inst.shift_within_slack(&sol.coloring, &[0, 0], 1).is_err());
        assert!(inst
            .shift_within_slack(&sol.coloring, &[0, 0, 0], 0)
            .is_err());
    }
}
