//! The incremental interference engine.
//!
//! Every scheduling algorithm in the workspace is driven by the same query:
//! *"can request `i` join color class `C`?"*. Answered naively through
//! [`InterferenceSystem::is_feasible`] this costs `O(|C|²)` interference
//! terms per query, which makes first-fit coloring effectively cubic in the
//! class sizes and caps usable instance sizes. This module removes that
//! bottleneck while preserving the naive semantics **exactly**:
//!
//! * [`IncrementalSystem`] — the structural property the engine exploits:
//!   interference is a *sum of pairwise contributions per port* (one port for
//!   directed / node-loss items, the two endpoints for bidirectional pairs),
//!   and an item's interference is the maximum over its ports.
//! * [`GainBackend`] — the backend contract: how the engine obtains
//!   contributions. Exact backends represent every pair; pruned backends
//!   (the [`sparse`] module) drop far-field pairs and report conservative
//!   bounds on what they dropped.
//! * [`ColorAccumulator`] — maintains the per-port running interference sums
//!   of one color class, so a join query costs `O(|C|)` contributions instead
//!   of `O(|C|²)`, and a commit is a further `O(|C|)` update.
//! * [`GainMatrix`] — a flat row-major cache of all `ports · n · n`
//!   contributions, computed once per (instance, power assignment, variant),
//!   turning every contribution into an array lookup. It is itself a
//!   self-contained [`InterferenceSystem`] + [`IncrementalSystem`].
//! * [`sparse`] — the spatially-pruned tier:
//!   [`SparseGainMatrix`](sparse::SparseGainMatrix) stores per row only the
//!   contributions above a cutoff (located through a uniform spatial grid
//!   over request positions) and tracks the total dropped mass per row, so
//!   feasibility verdicts stay conservative at a fraction of the dense
//!   footprint.
//!
//! # Exact-equivalence guarantee
//!
//! The accumulator adds contributions in exactly the order the naive
//! [`Evaluator`] path folds them (class insertion order),
//! and the matrix stores the very values the naive path computes, so every
//! `sinr` / `is_feasible` verdict — and therefore every coloring produced by
//! the migrated algorithms — is **bit-for-bit identical** to the naive path.
//! The property tests in `tests/properties.rs` pin this down across all
//! oblivious assignments and both problem variants.
//!
//! # When is the naive path still used?
//!
//! The naive `Evaluator` remains the single source of truth for *validation*
//! ([`Schedule::validate`](crate::Schedule::validate) recomputes every sum
//! from scratch), for one-off queries where no class state exists, and as the
//! reference implementation the engine is tested against. [`GainMatrix`]
//! costs `8 · ports · n²` bytes, so callers (e.g. the `Scheduler` facade in
//! `oblisched`) only build it under a memory budget and otherwise fall back
//! to on-the-fly contributions — which still get the accumulator's
//! `O(|C|)`-per-query behaviour.
//!
//! # Example
//!
//! ```
//! use oblisched_metric::LineMetric;
//! use oblisched_sinr::engine::{ColorAccumulator, GainMatrix};
//! use oblisched_sinr::{Instance, InterferenceSystem, ObliviousPower, Request, SinrParams, Variant};
//!
//! let metric = LineMetric::new(vec![0.0, 1.0, 50.0, 51.0, 52.0, 53.0]);
//! let instance = Instance::new(
//!     metric,
//!     vec![Request::new(0, 1), Request::new(2, 3), Request::new(4, 5)],
//! )?;
//! let eval = instance.evaluator(SinrParams::new(3.0, 1.0)?, &ObliviousPower::SquareRoot);
//! let view = eval.view(Variant::Bidirectional);
//! let matrix = GainMatrix::build(&view);
//!
//! let mut class = ColorAccumulator::new(&matrix);
//! assert!(class.try_insert(0));
//! assert!(class.try_insert(1));
//! // Verdicts agree exactly with the naive evaluator.
//! assert_eq!(matrix.is_feasible(&[0, 1]), eval.is_feasible(Variant::Bidirectional, &[0, 1]));
//! # Ok::<(), oblisched_sinr::SinrError>(())
//! ```

use crate::feasibility::{Evaluator, InterferenceSystem, Variant, VariantView, REL_TOL};
use crate::nodeloss::NodeLossEvaluator;
use oblisched_metric::MetricSpace;

pub mod sparse;

/// Upper bound on [`IncrementalSystem::num_ports`]: directed and node-loss
/// systems have one interference port per item, bidirectional pairs have two
/// (their endpoints).
pub const MAX_PORTS: usize = 2;

/// Widens a stored `u32` item id to a `usize` index.
///
/// Checked rather than an `as` cast so the engine's hot paths carry no
/// silent-truncation sites (`oblint`'s lossy-cast-in-engine rule). The
/// conversion is infallible on every supported target — `usize` is at least
/// 32 bits — so the check compiles away.
#[inline]
pub(crate) fn item_index(id: u32) -> usize {
    usize::try_from(id)
        .unwrap_or_else(|_| unreachable!("usize is at least 32 bits on all supported targets"))
}

/// Narrows an item index into the engine's `u32` id space.
///
/// # Panics
///
/// Panics if `index` exceeds `u32::MAX`. In practice `n` is capped orders of
/// magnitude below that by the engine memory budgets, so the panic marks a
/// logic error, never a data-dependent failure.
#[inline]
pub(crate) fn item_id(index: usize) -> u32 {
    u32::try_from(index)
        .unwrap_or_else(|_| panic!("item index {index} exceeds the engine's u32 id space"))
}

/// Approximate `usize → f64` for diagnostics and sizing heuristics (fill
/// ratios, occupancy targets). Exact below 2⁵³ items, far beyond any
/// buildable instance.
#[inline]
pub(crate) fn approx_f64(n: usize) -> f64 {
    // oblint::allow(lossy-cast-in-engine): diagnostic/sizing conversion, exact below 2^53 items.
    n as f64
}

/// An [`InterferenceSystem`] whose interference decomposes into pairwise
/// contributions.
///
/// The contract mirrors how the naive evaluator computes interference: item
/// `i` has [`num_ports`](IncrementalSystem::num_ports) ports, the
/// interference of `i` against a set `S` is
/// `max_port Σ_{j ∈ S \ {i}} contribution(i, port, j)`, and its SINR is
/// `signal(i) / (interference + noise)` (infinite when the denominator is
/// zero). Implementations must make `contribution` agree term-for-term with
/// their [`InterferenceSystem::sinr`], so that accumulated sums reproduce the
/// naive fold exactly.
pub trait IncrementalSystem: InterferenceSystem {
    /// Number of interference ports per item (`1` or `2`, never more than
    /// [`MAX_PORTS`]). Uniform across the system.
    fn num_ports(&self) -> usize;

    /// The interference contribution of item `j` at port `port` of item `i`.
    ///
    /// Must return `0.0` when `j == i` (an item never interferes with
    /// itself), and may return `f64::INFINITY` for coinciding positions.
    fn contribution(&self, i: usize, port: usize, j: usize) -> f64;

    /// The received strength of item `i`'s own signal.
    fn signal(&self, i: usize) -> f64;

    /// The ambient noise added to every interference sum.
    fn noise(&self) -> f64;
}

/// One stored (non-pruned) contribution of a sparse backend row: the
/// interferer index and the contribution value it adds at the row's port.
///
/// Rows are sorted by interferer index, so membership queries are binary
/// searches and row/class intersections are linear merges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseEntry {
    /// The interfering item (`u32` to halve the index footprint of large
    /// sparse matrices; systems are far below `u32::MAX` items).
    pub j: u32,
    /// The stored contribution value.
    pub v: f64,
}

/// A borrowed sparse row in structure-of-arrays form: the sorted interferer
/// indices and their contribution values as two parallel slices.
///
/// Splitting the former interleaved `&[SparseEntry]` rows keeps membership
/// scans on a dense `u32` array (twice as many indices per cache line, no
/// padding) and drops the per-entry footprint from 16 to 12 bytes. Values
/// stay `f64`: an `f32` representation was evaluated and rejected — rounding
/// a stored value down would break the conservativeness contract (stored
/// values must upper-bound the true contribution), rounding it up would break
/// the bit-for-bit `stored == SAFETY · raw` identity the churn conservatism
/// tests and golden schedules pin.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    /// Sorted interferer indices (parallel to `vals`).
    pub cols: &'a [u32],
    /// Stored contribution values (parallel to `cols`).
    pub vals: &'a [f64],
}

impl<'a> RowRef<'a> {
    /// The empty row (usable at any lifetime).
    pub const EMPTY: RowRef<'static> = RowRef {
        cols: &[],
        vals: &[],
    };

    /// Borrows a row from its parallel column/value slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length.
    pub fn new(cols: &'a [u32], vals: &'a [f64]) -> Self {
        assert_eq!(
            cols.len(),
            vals.len(),
            "row columns and values must stay parallel"
        );
        Self { cols, vals }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Returns `true` when the row stores nothing.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// The stored value of interferer `j`, or `None` when the row pruned it
    /// (binary search over the sorted columns).
    pub fn get(&self, j: u32) -> Option<f64> {
        self.cols.binary_search(&j).ok().map(|pos| self.vals[pos])
    }

    /// Iterates `(column, value)` pairs in column order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + 'a {
        self.cols.iter().copied().zip(self.vals.iter().copied())
    }
}

/// The backend contract of the interference engine: an [`IncrementalSystem`]
/// that may additionally *prune* small contributions, as long as it accounts
/// for everything it dropped.
///
/// Two kinds of backends implement this trait:
///
/// * **exact backends** ([`GainMatrix`], [`VariantView`],
///   [`NodeLossEvaluator`]) represent every contribution exactly — all
///   methods keep their defaults and the engine behaves bit-for-bit like the
///   naive evaluator fold;
/// * **pruned backends** ([`sparse::SparseGainMatrix`]) store only the
///   contributions above a per-row cutoff and report, per row, an upper
///   bound on what they dropped ([`pruned_cap`](GainBackend::pruned_cap) /
///   [`pruned_mass`](GainBackend::pruned_mass)). The [`ColorAccumulator`]
///   adds that bound back into its running sums, so every feasibility
///   verdict is **conservative**: a set accepted through a pruned backend is
///   always feasible for the exact system (the reverse may not hold — a
///   pruned backend can reject borderline sets the exact system accepts,
///   costing colors, never correctness).
///
/// # Contract
///
/// * [`stored_contribution`](GainBackend::stored_contribution) returns
///   `Some(v)` exactly when the pair is represented; `v` must be an upper
///   bound on (for exact backends: equal to) the true contribution.
/// * Every unrepresented pair's true contribution must be at most
///   [`pruned_cap`](GainBackend::pruned_cap) of its row, and the sum of all
///   unrepresented contributions of a row at most
///   [`pruned_mass`](GainBackend::pruned_mass).
/// * [`exact_contribution`](GainBackend::exact_contribution) recomputes a
///   contribution without pruning and must not underestimate the true value
///   (exact backends return it verbatim).
pub trait GainBackend: IncrementalSystem {
    /// The stored contribution of pair `(i, port, j)`, or `None` when the
    /// backend pruned it. Exact backends store everything.
    fn stored_contribution(&self, i: usize, port: usize, j: usize) -> Option<f64> {
        Some(self.contribution(i, port, j))
    }

    /// The stored row of `(i, port)` in sorted structure-of-arrays form,
    /// when the backend materialises rows (pruned backends do; exact
    /// backends return `None` and the engine falls back to per-member
    /// [`contribution`](IncrementalSystem::contribution) queries).
    fn stored_row(&self, i: usize, port: usize) -> Option<RowRef<'_>> {
        let _ = (i, port);
        None
    }

    /// Folds the candidate-side probe of the per-member path: for every `j`
    /// in `members` (in order), add
    /// [`stored_contribution`](GainBackend::stored_contribution)`(i, port, j)`
    /// into `acc[port]` — or count a drop in `dropped[port]` when the pair is
    /// pruned — checking `acc[port] > limit_hi` after each addition and
    /// returning `false` on the first exceedance (an early reject; see
    /// [`ColorAccumulator::try_insert_with_gain`]). Returns `true` with the
    /// complete sums otherwise.
    ///
    /// Backends may override this with a layout-aware loop (the dense matrix
    /// folds each port's row as a contiguous slice; the churn tier holds one
    /// row borrow across the whole walk) — overrides must produce bit-for-bit
    /// identical per-port sums (same members, same addition order) and an
    /// equivalent verdict. Since contributions are non-negative, per-port
    /// sums are monotone in the member prefix, so "some prefix sum exceeds
    /// `limit_hi`" is equivalent to "some full port sum exceeds `limit_hi`"
    /// and overrides may re-batch the exceedance checks freely.
    fn fold_candidate(
        &self,
        i: usize,
        ports: usize,
        members: &[usize],
        limit_hi: f64,
        acc: &mut [f64; MAX_PORTS],
        dropped: &mut [u32; MAX_PORTS],
    ) -> bool {
        for &j in members {
            for (port, slot) in acc.iter_mut().enumerate().take(ports) {
                match self.stored_contribution(i, port, j) {
                    Some(v) => *slot += v,
                    None => dropped[port] += 1,
                }
                if *slot > limit_hi {
                    return false;
                }
            }
        }
        true
    }

    /// Upper bound on any single pruned contribution into `(i, port)`.
    /// `0.0` for exact backends.
    fn pruned_cap(&self, i: usize, port: usize) -> f64 {
        let _ = (i, port);
        0.0
    }

    /// Upper bound on the *total* pruned mass of row `(i, port)` — the sum
    /// of every contribution the backend dropped from this row. `0.0` for
    /// exact backends.
    fn pruned_mass(&self, i: usize, port: usize) -> f64 {
        let _ = (i, port);
        0.0
    }

    /// `true` when every contribution is represented exactly and the engine
    /// may skip all pruning bookkeeping (the default).
    fn is_exact(&self) -> bool {
        true
    }

    /// `true` when borderline verdicts (rejected with the pruning bound,
    /// accepted without it) should be re-checked through
    /// [`exact_contribution`](GainBackend::exact_contribution) — the
    /// `strict()` mode of pruned backends. Irrelevant for exact backends.
    fn strict_recheck(&self) -> bool {
        false
    }

    /// Recomputes the contribution of `(i, port, j)` without pruning. Must
    /// not underestimate the true contribution; pruned backends may inflate
    /// by a relative epsilon to stay conservative under floating-point
    /// divergence from the naive path.
    fn exact_contribution(&self, i: usize, port: usize, j: usize) -> f64 {
        self.contribution(i, port, j)
    }

    /// Notifies the backend that `item` is about to become live in a dynamic
    /// session. Churn-capable pruned backends patch their live set and
    /// materialised rows here; exact and batch backends (whose stored state
    /// covers the whole universe unconditionally) ignore it.
    fn note_arrival(&self, item: usize) {
        let _ = item;
    }

    /// Notifies the backend that `item` has left a dynamic session (after
    /// its interference contributions were already subtracted from every
    /// color accumulator). The default is a no-op, mirroring
    /// [`note_arrival`](GainBackend::note_arrival).
    fn note_departure(&self, item: usize) {
        let _ = item;
    }
}

/// Combines per-port interference sums into an SINR the way the naive
/// evaluator does: max over ports, plus noise, infinite on a zero
/// denominator.
#[inline]
fn sinr_from_ports(signal: f64, ports: &[f64], noise: f64) -> f64 {
    let worst = ports.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let total = worst + noise;
    if total == 0.0 {
        f64::INFINITY
    } else {
        signal / total
    }
}

/// Default number of removals after which [`ColorAccumulator`] rebuilds its
/// running sums exactly (see [`ColorAccumulator::remove`]).
pub const DEFAULT_REBUILD_INTERVAL: usize = 64;

/// Sentinel "not in any color class" value of the `color_of` maps fed to
/// [`ProbeBatch::gather`].
pub const NO_COLOR: u32 = u32::MAX;

/// Reusable workspace of a *batched* multi-class candidate probe: one walk
/// over the candidate's stored row per port, bucketing every contribution by
/// the current color of its interferer.
///
/// First-fit probes a candidate against every open class in turn; with `C`
/// open classes and a stored row of length `L`, the sequential row path costs
/// `O(C · L)` because each class's probe re-walks the whole row filtering by
/// its own membership bitset. A gathered batch walks the row **once**,
/// accumulating each entry into the bucket of `color_of[j]`, and hands every
/// class its per-port sums and hit counts in `O(1)` — `O(L + C)` total. The
/// per-class bucket sum adds the exact same row-order subsequence of values
/// the sequential walk adds (an entry is bucketed into class `c` exactly when
/// the sequential probe's bitset test for class `c` accepts it), so the sums
/// are bit-for-bit identical.
///
/// The drivers in `oblisched_core::greedy` own one `ProbeBatch` per first-fit
/// call (inside their scratch state), [`gather`](ProbeBatch::gather) it once
/// per item, and feed it to
/// [`ColorAccumulator::try_insert_with_gain_batched`], which falls back to
/// the sequential probe whenever the batch does not apply (exact backends,
/// backends without stored rows, or classes whose size heuristic prefers the
/// member path).
#[derive(Debug, Default)]
pub struct ProbeBatch {
    /// Per-bucket per-port sums: entry `class * MAX_PORTS + port`.
    sums: Vec<f64>,
    /// Per-bucket per-port count of row entries landing in the bucket.
    hits: Vec<u32>,
    /// Stored-row length per port of the gathered item (`usize::MAX` when the
    /// backend exposed no row), feeding the per-class row-vs-member path
    /// heuristic.
    row_len: [usize; MAX_PORTS],
    /// `true` when the gathered item had a stored row at every port.
    valid: bool,
}

impl ProbeBatch {
    /// Creates an empty batch (no allocation until the first gather).
    pub fn new() -> Self {
        Self::default()
    }

    /// Walks candidate `i`'s stored row once per port and buckets every
    /// contribution by `color_of[j]` into `classes` buckets. Entries whose
    /// interferer is uncolored ([`NO_COLOR`]) or equal to `i` are skipped —
    /// exactly the entries the sequential per-class row walk skips.
    ///
    /// `color_of[j]` must be the bucket index of the class currently holding
    /// item `j` (below `classes`), or [`NO_COLOR`]. When the backend exposes
    /// no stored row at some port the batch is marked invalid and every
    /// class falls back to its sequential probe.
    ///
    /// # Panics
    ///
    /// Panics if `color_of` is shorter than the system or maps an interferer
    /// to a bucket at or above `classes`.
    pub fn gather<S: GainBackend + ?Sized>(
        &mut self,
        system: &S,
        i: usize,
        classes: usize,
        color_of: &[u32],
    ) {
        self.valid = false;
        self.row_len = [usize::MAX; MAX_PORTS];
        let ports = system.num_ports();
        let slots = classes * MAX_PORTS;
        self.sums.clear();
        self.sums.resize(slots, 0.0);
        self.hits.clear();
        self.hits.resize(slots, 0);
        let mut rows = [RowRef::EMPTY; MAX_PORTS];
        for (port, (len, row)) in self
            .row_len
            .iter_mut()
            .zip(rows.iter_mut())
            .enumerate()
            .take(ports)
        {
            match system.stored_row(i, port) {
                Some(r) => {
                    *len = r.len();
                    *row = r;
                }
                None => return,
            }
        }
        for (port, row) in rows.iter().enumerate().take(ports) {
            for (col, v) in row.iter() {
                let j = item_index(col);
                let c = color_of[j];
                if c != NO_COLOR && j != i {
                    let slot = item_index(c) * MAX_PORTS + port;
                    self.sums[slot] += v;
                    self.hits[slot] += 1;
                }
            }
        }
        self.valid = true;
    }

    /// The gathered candidate sums and drop counts of one class bucket, or
    /// `None` when some port's sum already exceeds `limit_hi` (equivalent to
    /// the sequential probe's early reject: sums are monotone in the row
    /// prefix, so a prefix exceedance and a full-sum exceedance coincide).
    ///
    /// `members` is the class size at probe time (hits are subtracted from it
    /// to recover the per-port pruned-member count).
    fn class_candidate(
        &self,
        class: usize,
        ports: usize,
        members: usize,
        limit_hi: f64,
    ) -> Option<([f64; MAX_PORTS], [u32; MAX_PORTS])> {
        let mut acc = [0.0f64; MAX_PORTS];
        let mut dropped = [0u32; MAX_PORTS];
        let base = class * MAX_PORTS;
        for port in 0..ports {
            let sum = self.sums[base + port];
            if sum > limit_hi {
                return None;
            }
            acc[port] = sum;
            dropped[port] = item_id(members) - self.hits[base + port];
        }
        Some((acc, dropped))
    }
}

/// Incrementally maintained interference state of one color class.
///
/// The accumulator stores, for every member, the running interference sum at
/// each of its ports. Checking whether a candidate can join is `O(members)`;
/// committing the candidate is another `O(members)` update. Sums are
/// accumulated in insertion order — the same left-to-right fold the naive
/// evaluator performs over the class vector — so verdicts are exactly those
/// of the naive path.
///
/// # Removal and the drift guard
///
/// [`remove`](ColorAccumulator::remove) subtracts the departing member's
/// contributions from the remaining running sums in `O(members)`. Unlike
/// insert-only sequences, a removal breaks the bit-for-bit fold equivalence:
/// floating-point subtraction leaves rounding residue, so sums (and with
/// them borderline verdicts) are only guaranteed to stay *within tolerance*
/// of an accumulator rebuilt from scratch on the surviving members. A drift
/// guard bounds the residue: after
/// [`rebuild_interval`](ColorAccumulator::with_rebuild_interval) removals
/// (default [`DEFAULT_REBUILD_INTERVAL`]) — or immediately, when an infinite
/// contribution makes subtraction ill-defined — the sums are recomputed
/// exactly by [`rebuild`](ColorAccumulator::rebuild), which also reports the
/// maximum relative drift it erased. The removal property tests in
/// `tests/properties.rs` pin the within-tolerance guarantee across all
/// oblivious assignments and both variants.
#[derive(Debug)]
pub struct ColorAccumulator<'s, S: ?Sized> {
    system: &'s S,
    ports: usize,
    members: Vec<usize>,
    /// Flat row-major per-member sums: entry `pos * ports + port`.
    sums: Vec<f64>,
    /// Per-member count of class members whose contribution the backend
    /// pruned away (same layout as `sums`). Always zero for exact backends;
    /// for pruned backends the feasibility checks add
    /// `min(pruned_mass, drops · pruned_cap)` of the member's row back onto
    /// the sum, which keeps every verdict conservative.
    drops: Vec<u32>,
    /// Membership bitset over the system's items, maintained only for pruned
    /// backends (where candidate probes iterate the stored row and need an
    /// `O(1)` "is this interferer in the class" test). `None` keeps exact
    /// backends at `O(members)` memory.
    in_class: Option<Vec<u64>>,
    /// Removals since the last exact rebuild (drift guard state).
    removals: usize,
    /// Drift guard threshold: rebuild exactly after this many removals.
    rebuild_interval: usize,
}

// Manual impl: the derive would demand `S: Clone`, but the accumulator only
// holds a shared reference to the system.
impl<S: ?Sized> Clone for ColorAccumulator<'_, S> {
    fn clone(&self) -> Self {
        Self {
            system: self.system,
            ports: self.ports,
            members: self.members.clone(),
            sums: self.sums.clone(),
            drops: self.drops.clone(),
            in_class: self.in_class.clone(),
            removals: self.removals,
            rebuild_interval: self.rebuild_interval,
        }
    }
}

impl<'s, S: GainBackend + ?Sized> ColorAccumulator<'s, S> {
    /// Creates an empty accumulator for one color class.
    pub fn new(system: &'s S) -> Self {
        let ports = system.num_ports();
        assert!(
            (1..=MAX_PORTS).contains(&ports),
            "systems must expose between 1 and {MAX_PORTS} ports, got {ports}"
        );
        let in_class = (!system.is_exact()).then(|| vec![0u64; system.len().div_ceil(64)]);
        Self {
            system,
            ports,
            members: Vec::new(),
            sums: Vec::new(),
            drops: Vec::new(),
            in_class,
            removals: 0,
            rebuild_interval: DEFAULT_REBUILD_INTERVAL,
        }
    }

    /// Sets the drift-guard threshold: the number of removals after which the
    /// running sums are rebuilt exactly. `1` rebuilds after every removal
    /// (sums always bit-for-bit equal to a fresh accumulator, removal cost
    /// `O(members²)`); larger values amortise the rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_rebuild_interval(mut self, interval: usize) -> Self {
        assert!(interval >= 1, "the rebuild interval must be at least 1");
        self.rebuild_interval = interval;
        self
    }

    /// Creates an accumulator pre-filled with `members`, inserted unchecked
    /// in order (the set need not be feasible).
    pub fn with_members(system: &'s S, members: &[usize]) -> Self {
        let mut acc = Self::new(system);
        for &i in members {
            acc.insert_unchecked(i);
        }
        acc
    }

    /// The members of the class, in insertion order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the class is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.members.clear();
        self.sums.clear();
        self.drops.clear();
        if let Some(bits) = &mut self.in_class {
            bits.fill(0);
        }
        self.removals = 0;
    }

    /// Rebinds a recycled accumulator to `system` and empties it, keeping
    /// the member/sum allocations (and, when possible, the membership-bitset
    /// allocation) warm. A pooled accumulator reset this way is
    /// indistinguishable from [`new`](ColorAccumulator::new) — the first-fit
    /// drivers in `oblisched_core` recycle class accumulators across merge
    /// layers with this instead of reallocating.
    ///
    /// # Panics
    ///
    /// Panics if `system` exposes an unsupported port count (as
    /// [`new`](ColorAccumulator::new) does).
    pub fn reset_for(&mut self, system: &'s S) {
        let ports = system.num_ports();
        assert!(
            (1..=MAX_PORTS).contains(&ports),
            "systems must expose between 1 and {MAX_PORTS} ports, got {ports}"
        );
        self.system = system;
        self.ports = ports;
        self.members.clear();
        self.sums.clear();
        self.drops.clear();
        self.removals = 0;
        if system.is_exact() {
            self.in_class = None;
        } else {
            let words = system.len().div_ceil(64);
            match &mut self.in_class {
                Some(bits) => {
                    bits.clear();
                    bits.resize(words, 0);
                }
                None => self.in_class = Some(vec![0u64; words]),
            }
        }
    }

    /// Removals applied since the last exact rebuild (drift-guard state,
    /// exposed for tests and diagnostics).
    pub fn removals_since_rebuild(&self) -> usize {
        self.removals
    }

    /// Returns `true` if item `i` is already a member (`O(1)` via the
    /// membership bitset for pruned backends, `O(members)` scan otherwise).
    pub fn contains(&self, i: usize) -> bool {
        match &self.in_class {
            Some(bits) => i < self.system.len() && bits[i / 64] >> (i % 64) & 1 == 1,
            None => self.members.contains(&i),
        }
    }

    /// The pruning pad of row `(item, port)` given `drops` pruned class
    /// members: the tightest available upper bound on the interference mass
    /// the backend dropped from this row's class sum. Exactly `0.0` when
    /// nothing was dropped, so exact backends stay bit-for-bit unpadded.
    fn pad(&self, item: usize, port: usize, drops: u32) -> f64 {
        if drops == 0 {
            return 0.0;
        }
        let per_member = f64::from(drops) * self.system.pruned_cap(item, port);
        per_member.min(self.system.pruned_mass(item, port))
    }

    /// The current interference experienced by the member at position `pos`
    /// (max over its ports, before noise), including the conservative
    /// pruning pad of its row (zero for exact backends).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn interference_of(&self, pos: usize) -> f64 {
        assert!(pos < self.members.len(), "position {pos} out of range");
        let item = self.members[pos];
        (0..self.ports)
            .map(|port| {
                let slot = pos * self.ports + port;
                self.sums[slot] + self.pad(item, port, self.drops[slot])
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The current SINR of the member at position `pos` against the rest of
    /// the class (padded conservatively for pruned backends).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn sinr_of(&self, pos: usize) -> f64 {
        assert!(pos < self.members.len(), "position {pos} out of range");
        let item = self.members[pos];
        let mut ports = [0.0f64; MAX_PORTS];
        for (port, slot) in ports.iter_mut().enumerate().take(self.ports) {
            let idx = pos * self.ports + port;
            *slot = self.sums[idx] + self.pad(item, port, self.drops[idx]);
        }
        sinr_from_ports(
            self.system.signal(item),
            &ports[..self.ports],
            self.system.noise(),
        )
    }

    /// The per-port stored interference candidate `i` would experience from
    /// the current members, plus the per-port count of members whose
    /// contribution the backend pruned.
    ///
    /// Exact backends take the per-member path (`O(members)` contributions,
    /// summed in member order — the naive fold). Pruned backends with
    /// materialised rows take the row path when the class is large: iterate
    /// the stored row and filter by class membership, which costs `O(row)`
    /// instead of `O(members · log row)` lookups.
    ///
    /// Returns `None` when the stored sums alone already exceed
    /// `limit_hi` at some port — since stored sums never overestimate the
    /// padded (or exact) interference, the caller's feasibility check is
    /// guaranteed to fail, and the scan can stop early. Callers that need
    /// the full sums pass `f64::INFINITY`.
    fn candidate_probe(
        &self,
        i: usize,
        limit_hi: f64,
    ) -> Option<([f64; MAX_PORTS], [u32; MAX_PORTS])> {
        let mut acc = [0.0f64; MAX_PORTS];
        let mut dropped = [0u32; MAX_PORTS];
        self.probe_into(i, limit_hi, &mut acc, &mut dropped)
            .then_some((acc, dropped))
    }

    /// [`candidate_probe`](ColorAccumulator::candidate_probe) with an
    /// infinite limit: the scan always completes (no finite sum exceeds
    /// `+∞`), so the full sums come back unconditionally — what the
    /// unchecked insert and rebuild paths need.
    fn probe_full(&self, i: usize) -> ([f64; MAX_PORTS], [u32; MAX_PORTS]) {
        let mut acc = [0.0f64; MAX_PORTS];
        let mut dropped = [0u32; MAX_PORTS];
        let complete = self.probe_into(i, f64::INFINITY, &mut acc, &mut dropped);
        debug_assert!(complete, "an infinite limit never rejects early");
        (acc, dropped)
    }

    /// The workhorse behind the probes: accumulates into the caller's
    /// buffers, returning `false` on an early reject (some partial sum
    /// exceeded `limit_hi`, in which case the buffers are only partially
    /// filled) and `true` with the complete sums otherwise.
    fn probe_into(
        &self,
        i: usize,
        limit_hi: f64,
        acc: &mut [f64; MAX_PORTS],
        dropped: &mut [u32; MAX_PORTS],
    ) -> bool {
        if let Some(bits) = &self.in_class {
            // Row iteration beats per-member binary searches once the class
            // outgrows a fraction of the row; below that the member path is
            // cheaper. Both orders are deterministic.
            let mut rows = [RowRef::EMPTY; MAX_PORTS];
            let use_rows = (0..self.ports).all(|port| match self.system.stored_row(i, port) {
                Some(row) if row.len() < self.members.len().saturating_mul(12) => {
                    rows[port] = row;
                    true
                }
                _ => false,
            });
            if use_rows {
                for (port, slot) in acc.iter_mut().enumerate().take(self.ports) {
                    let mut hits = 0u32;
                    for (col, v) in rows[port].iter() {
                        let j = item_index(col);
                        if bits[j / 64] >> (j % 64) & 1 == 1 && j != i {
                            *slot += v;
                            hits += 1;
                            if *slot > limit_hi {
                                return false;
                            }
                        }
                    }
                    dropped[port] = item_id(self.members.len()) - hits;
                }
                return true;
            }
        }
        self.system
            .fold_candidate(i, self.ports, &self.members, limit_hi, acc, dropped)
    }

    /// Checks whether the class stays feasible at `gain` if `i` joins, and
    /// commits the insertion when it does. Returns `true` on success; on
    /// failure the accumulator is left untouched.
    ///
    /// For exact backends, verdicts match
    /// `is_feasible_with_gain(class ∪ {i}, gain)` of the naive path exactly.
    /// For pruned backends the verdict is *conservative*: the pruning pad is
    /// added to every sum before comparing, so an accept implies the exact
    /// system accepts too, while a borderline reject (rejected with the pad,
    /// accepted without it) may cost a color — unless the backend requests
    /// [`strict_recheck`](GainBackend::strict_recheck), in which case
    /// borderline verdicts are settled by recomputing the class exactly
    /// (`O(members²)` un-pruned contributions).
    pub fn try_insert_with_gain(&mut self, i: usize, gain: f64) -> bool {
        let (threshold, limit_hi) = self.gain_limits(i, gain);
        let Some((cand, cand_drops)) = self.candidate_probe(i, limit_hi) else {
            return false;
        };
        self.admit_with_candidate(i, threshold, cand, cand_drops)
    }

    /// [`try_insert_with_gain`](ColorAccumulator::try_insert_with_gain) fed
    /// from a gathered [`ProbeBatch`]: when the batch holds a usable row walk
    /// for this class (the backend materialises rows and the per-class size
    /// heuristic prefers them), the candidate sums come from the batch's
    /// single bucketed walk instead of a fresh per-class row scan; otherwise
    /// this falls back to the sequential probe. Verdicts and committed sums
    /// are bit-for-bit identical to the sequential path either way.
    ///
    /// `class` is the bucket index this accumulator's members carry in the
    /// `color_of` map the batch was gathered with.
    pub fn try_insert_with_gain_batched(
        &mut self,
        i: usize,
        gain: f64,
        batch: &ProbeBatch,
        class: usize,
    ) -> bool {
        let (threshold, limit_hi) = self.gain_limits(i, gain);
        let probe = if self.batch_applies(batch) {
            batch.class_candidate(class, self.ports, self.members.len(), limit_hi)
        } else {
            self.candidate_probe(i, limit_hi)
        };
        let Some((cand, cand_drops)) = probe else {
            return false;
        };
        self.admit_with_candidate(i, threshold, cand, cand_drops)
    }

    /// `true` when a gathered batch can stand in for this class's sequential
    /// row-path probe — the exact condition the sequential
    /// [`probe_into`](ColorAccumulator::probe_into) row path requires: a
    /// membership bitset (pruned backend), a stored row at every port, and
    /// every row shorter than the member-path crossover.
    fn batch_applies(&self, batch: &ProbeBatch) -> bool {
        self.in_class.is_some()
            && batch.valid
            && batch.row_len[..self.ports]
                .iter()
                .all(|&len| len < self.members.len().saturating_mul(12))
    }

    /// The feasibility threshold at `gain` and the one-sided early-reject
    /// limit on the candidate's stored interference sums.
    ///
    /// `sinr < threshold ⇔ sum > signal/threshold − noise` in real
    /// arithmetic; the `1e-9` headroom makes the float comparison safely
    /// one-sided, so an early reject is always a true reject (stored sums
    /// never overestimate) and the full-evaluation verdicts are unchanged.
    /// NaN limits disable the shortcut (comparisons are false).
    fn gain_limits(&self, i: usize, gain: f64) -> (f64, f64) {
        let threshold = gain * (1.0 - REL_TOL);
        let limit = self.system.signal(i) / threshold - self.system.noise();
        (threshold, limit + limit.abs() * 1e-9)
    }

    /// The member-side half of an insertion attempt: given the candidate's
    /// probed per-port sums and drop counts, checks the candidate's own SINR
    /// and every member's updated SINR against `threshold`, settles
    /// borderline verdicts via the strict recheck when the backend requests
    /// it, and commits on acceptance. Returns `true` on success; on failure
    /// the accumulator is left untouched.
    fn admit_with_candidate(
        &mut self,
        i: usize,
        threshold: f64,
        cand: [f64; MAX_PORTS],
        cand_drops: [u32; MAX_PORTS],
    ) -> bool {
        let noise = self.system.noise();
        let strict = self.system.strict_recheck() && !self.system.is_exact();
        let mut borderline = false;
        let signal_i = self.system.signal(i);
        let mut padded = [0.0f64; MAX_PORTS];
        for (port, slot) in padded.iter_mut().enumerate().take(self.ports) {
            *slot = cand[port] + self.pad(i, port, cand_drops[port]);
        }
        // `sinr >= threshold` (not a negated `<`) so that a NaN SINR counts
        // as infeasible, exactly as in the naive `is_feasible_with_gain`.
        let cand_ok = sinr_from_ports(signal_i, &padded[..self.ports], noise) >= threshold;
        if !cand_ok {
            // Borderline only if the un-padded (stored-sum) verdict accepts;
            // when even the underestimate rejects, the exact system rejects.
            let optimistic_ok = sinr_from_ports(signal_i, &cand[..self.ports], noise) >= threshold;
            if !strict || !optimistic_ok {
                return false;
            }
            borderline = true;
        }
        for (pos, &j) in self.members.iter().enumerate() {
            let mut raw = [0.0f64; MAX_PORTS];
            let mut member_padded = [0.0f64; MAX_PORTS];
            for port in 0..self.ports {
                let slot = pos * self.ports + port;
                let (add, extra) = match self.system.stored_contribution(j, port, i) {
                    Some(v) => (v, 0),
                    None => (0.0, 1),
                };
                raw[port] = self.sums[slot] + add;
                member_padded[port] = raw[port] + self.pad(j, port, self.drops[slot] + extra);
            }
            let signal_j = self.system.signal(j);
            let member_ok =
                sinr_from_ports(signal_j, &member_padded[..self.ports], noise) >= threshold;
            if !member_ok {
                let optimistic_ok =
                    sinr_from_ports(signal_j, &raw[..self.ports], noise) >= threshold;
                if !strict || !optimistic_ok {
                    return false;
                }
                borderline = true;
            }
        }
        if borderline && !self.exact_recheck(i, threshold) {
            return false;
        }
        self.commit(i, cand, cand_drops);
        true
    }

    /// Settles a borderline verdict by refolding the would-be class
    /// `members ∪ {i}` through the backend's un-pruned
    /// [`exact_contribution`](GainBackend::exact_contribution) — the
    /// `strict()` escape hatch of pruned backends. `O(members²)`
    /// contributions.
    fn exact_recheck(&self, i: usize, threshold: f64) -> bool {
        let noise = self.system.noise();
        let feasible_for = |item: usize| -> bool {
            let mut ports = [0.0f64; MAX_PORTS];
            for (port, slot) in ports.iter_mut().enumerate().take(self.ports) {
                for &j in self.members.iter().chain(std::iter::once(&i)) {
                    if j != item {
                        *slot += self.system.exact_contribution(item, port, j);
                    }
                }
            }
            sinr_from_ports(self.system.signal(item), &ports[..self.ports], noise) >= threshold
        };
        if !feasible_for(i) {
            return false;
        }
        self.members.iter().all(|&j| feasible_for(j))
    }

    /// [`try_insert_with_gain`](ColorAccumulator::try_insert_with_gain) at
    /// the system's own gain [`InterferenceSystem::beta`].
    pub fn try_insert(&mut self, i: usize) -> bool {
        self.try_insert_with_gain(i, self.system.beta())
    }

    /// Inserts `i` without any feasibility check (used to open a fresh class
    /// for an item no existing class accepts, mirroring first-fit, and to
    /// rebuild state from an existing — possibly infeasible — set).
    pub fn insert_unchecked(&mut self, i: usize) {
        let (cand, cand_drops) = self.probe_full(i);
        self.commit(i, cand, cand_drops);
    }

    /// Removes member `i` from the class, subtracting its contributions from
    /// the remaining running sums in `O(members)`. Returns `true` when `i`
    /// was a member and was removed, `false` otherwise.
    ///
    /// Triggers the drift guard: after
    /// [`with_rebuild_interval`](ColorAccumulator::with_rebuild_interval)
    /// removals the sums are recomputed exactly, and an infinite contribution
    /// (whose subtraction would poison the sums with NaN) forces an immediate
    /// exact rebuild.
    pub fn remove(&mut self, i: usize) -> bool {
        match self.members.iter().position(|&m| m == i) {
            Some(pos) => {
                self.remove_at(pos);
                true
            }
            None => false,
        }
    }

    /// Removes the member at position `pos` (insertion order), returning its
    /// item index. Same cost and drift-guard behaviour as
    /// [`remove`](ColorAccumulator::remove).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn remove_at(&mut self, pos: usize) -> usize {
        assert!(pos < self.members.len(), "position {pos} out of range");
        let i = self.members.remove(pos);
        let start = pos * self.ports;
        self.sums.drain(start..start + self.ports);
        self.drops.drain(start..start + self.ports);
        if let Some(bits) = &mut self.in_class {
            bits[i / 64] &= !(1u64 << (i % 64));
        }
        let mut needs_exact = false;
        for (p, &j) in self.members.iter().enumerate() {
            for port in 0..self.ports {
                match self.system.stored_contribution(j, port, i) {
                    Some(c) if c.is_finite() => self.sums[p * self.ports + port] -= c,
                    Some(_) => {
                        // Subtracting ±∞ (or NaN) from a running sum is
                        // ill-defined; fall back to an exact rebuild below.
                        needs_exact = true;
                    }
                    None => self.drops[p * self.ports + port] -= 1,
                }
            }
        }
        self.removals += 1;
        if needs_exact || self.removals >= self.rebuild_interval {
            self.rebuild();
        }
        i
    }

    /// Recomputes every running sum exactly — the same left-to-right fold a
    /// fresh [`with_members`](ColorAccumulator::with_members) accumulator
    /// performs — and resets the drift guard.
    ///
    /// Returns the maximum relative drift that was erased:
    /// `max |old − new| / max(|old|, |new|, 1)` over all per-port sums
    /// (`f64::INFINITY` if a sum had been poisoned to a non-finite value that
    /// the rebuild repaired, `0.0` for an untouched accumulator).
    pub fn rebuild(&mut self) -> f64 {
        let members = std::mem::take(&mut self.members);
        let old = std::mem::take(&mut self.sums);
        self.drops.clear();
        if let Some(bits) = &mut self.in_class {
            bits.fill(0);
        }
        self.removals = 0;
        for &i in &members {
            let (cand, cand_drops) = self.probe_full(i);
            self.commit(i, cand, cand_drops);
        }
        let mut drift = 0.0f64;
        for (&o, &n) in old.iter().zip(&self.sums) {
            if o.is_finite() && n.is_finite() {
                drift = drift.max((o - n).abs() / o.abs().max(n.abs()).max(1.0));
            } else if o.to_bits() != n.to_bits() {
                drift = f64::INFINITY;
            }
        }
        drift
    }

    /// Adds `i` as a member with pre-computed candidate sums and drop
    /// counts, updating every existing member's running sums (or their drop
    /// counts, when the backend pruned the new pair).
    fn commit(&mut self, i: usize, cand: [f64; MAX_PORTS], cand_drops: [u32; MAX_PORTS]) {
        for (pos, &j) in self.members.iter().enumerate() {
            for port in 0..self.ports {
                match self.system.stored_contribution(j, port, i) {
                    Some(v) => self.sums[pos * self.ports + port] += v,
                    None => self.drops[pos * self.ports + port] += 1,
                }
            }
        }
        self.members.push(i);
        self.sums.extend_from_slice(&cand[..self.ports]);
        self.drops.extend_from_slice(&cand_drops[..self.ports]);
        if let Some(bits) = &mut self.in_class {
            bits[i / 64] |= 1u64 << (i % 64);
        }
    }
}

/// A flat row-major cache of all pairwise interference contributions of an
/// [`IncrementalSystem`], plus its signals, noise and gain.
///
/// Built once per (instance, power assignment, variant), the matrix is a
/// self-contained interference system: every later contribution query is an
/// array lookup instead of a distance computation and a `powf`. Memory is
/// `8 · ports · n²` bytes (see [`GainMatrix::bytes_for`]), so large-`n`
/// callers should prefer the un-cached accumulator path.
#[derive(Debug, Clone)]
pub struct GainMatrix {
    n: usize,
    ports: usize,
    beta: f64,
    noise: f64,
    signals: Vec<f64>,
    /// Entry `(i * ports + port) * n + j` = contribution of `j` at `port` of
    /// `i`; the diagonal (`j == i`) is zero.
    data: Vec<f64>,
}

impl GainMatrix {
    /// Computes the full contribution matrix of `system`.
    ///
    /// Runs in `O(ports · n²)` time and allocates
    /// [`bytes_for`](GainMatrix::bytes_for) bytes.
    pub fn build<S: IncrementalSystem + ?Sized>(system: &S) -> Self {
        let n = system.len();
        let ports = system.num_ports();
        assert!(
            (1..=MAX_PORTS).contains(&ports),
            "systems must expose between 1 and {MAX_PORTS} ports, got {ports}"
        );
        let mut data = Vec::with_capacity(n * n * ports);
        for i in 0..n {
            for port in 0..ports {
                for j in 0..n {
                    data.push(if j == i {
                        0.0
                    } else {
                        system.contribution(i, port, j)
                    });
                }
            }
        }
        let signals = (0..n).map(|i| system.signal(i)).collect();
        Self {
            n,
            ports,
            beta: system.beta(),
            noise: system.noise(),
            signals,
            data,
        }
    }

    /// [`build`](GainMatrix::build) with the row construction fanned out over
    /// `threads` scoped worker threads, each filling a contiguous chunk of
    /// whole item rows. Every cell is computed by the same expression as the
    /// serial build and lands at the same offset, so the result is bit-for-bit
    /// identical regardless of `threads` (pinned by a unit test).
    ///
    /// `threads <= 1` falls back to the serial build.
    pub fn build_with_threads<S: IncrementalSystem + Sync + ?Sized>(
        system: &S,
        threads: usize,
    ) -> Self {
        let n = system.len();
        if threads <= 1 || n == 0 {
            return Self::build(system);
        }
        let ports = system.num_ports();
        assert!(
            (1..=MAX_PORTS).contains(&ports),
            "systems must expose between 1 and {MAX_PORTS} ports, got {ports}"
        );
        let per_item = ports * n;
        let mut data = vec![0.0f64; n * per_item];
        let chunk_items = n.div_ceil(threads);
        // A panicking worker propagates when the scope joins it, so no
        // explicit join handling is needed.
        std::thread::scope(|scope| {
            for (chunk_idx, chunk) in data.chunks_mut(chunk_items * per_item).enumerate() {
                let first = chunk_idx * chunk_items;
                scope.spawn(move || {
                    for (offset, item_rows) in chunk.chunks_mut(per_item).enumerate() {
                        let i = first + offset;
                        for (port, row) in item_rows.chunks_mut(n).enumerate() {
                            for (j, slot) in row.iter_mut().enumerate() {
                                *slot = if j == i {
                                    0.0
                                } else {
                                    system.contribution(i, port, j)
                                };
                            }
                        }
                    }
                });
            }
        });
        let signals = (0..n).map(|i| system.signal(i)).collect();
        Self {
            n,
            ports,
            beta: system.beta(),
            noise: system.noise(),
            signals,
            data,
        }
    }

    /// The memory footprint (in bytes) of the contribution table of a matrix
    /// for `n` items with `ports` ports: `n · n · ports · 8`, or `None` when
    /// the product overflows `usize`. Budget checks must treat overflow as
    /// over-budget — an overflowed (wrapped) product could wrongly enable the
    /// matrix for huge `n` — which `None` makes impossible to get wrong:
    /// `checked_bytes_for(n, ports).is_some_and(|b| b <= budget)`.
    pub fn checked_bytes_for(n: usize, ports: usize) -> Option<usize> {
        n.checked_mul(n)?
            .checked_mul(ports)?
            .checked_mul(std::mem::size_of::<f64>())
    }

    /// [`checked_bytes_for`](GainMatrix::checked_bytes_for), saturating to
    /// `usize::MAX` on overflow. Convenient for display; budget comparisons
    /// should prefer the checked variant.
    pub fn bytes_for(n: usize, ports: usize) -> usize {
        Self::checked_bytes_for(n, ports).unwrap_or(usize::MAX)
    }

    /// Number of ports per item.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// The row of contributions arriving at `port` of item `i` (indexed by
    /// interferer).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `port` is out of range.
    pub fn row(&self, i: usize, port: usize) -> &[f64] {
        assert!(port < self.ports, "port {port} out of range");
        let start = (i * self.ports + port) * self.n;
        &self.data[start..start + self.n]
    }
}

impl InterferenceSystem for GainMatrix {
    fn len(&self) -> usize {
        self.n
    }

    fn sinr(&self, i: usize, others: &[usize]) -> f64 {
        let mut ports = [0.0f64; MAX_PORTS];
        for &j in others {
            for (port, slot) in ports.iter_mut().enumerate().take(self.ports) {
                // The diagonal is zero, so `j == i` adds nothing — same fold
                // as the naive path's explicit skip.
                *slot += self.data[(i * self.ports + port) * self.n + j];
            }
        }
        sinr_from_ports(self.signals[i], &ports[..self.ports], self.noise)
    }

    fn beta(&self) -> f64 {
        self.beta
    }
}

impl IncrementalSystem for GainMatrix {
    fn num_ports(&self) -> usize {
        self.ports
    }

    fn contribution(&self, i: usize, port: usize, j: usize) -> f64 {
        self.data[(i * self.ports + port) * self.n + j]
    }

    fn signal(&self, i: usize) -> f64 {
        self.signals[i]
    }

    fn noise(&self) -> f64 {
        self.noise
    }
}

// The dense matrix stores every contribution: it is the exact reference
// backend, with all `GainBackend` pruning hooks at their no-op defaults.
// Only the candidate fold is overridden, for speed, not semantics.
impl GainBackend for GainMatrix {
    fn fold_candidate(
        &self,
        i: usize,
        ports: usize,
        members: &[usize],
        limit_hi: f64,
        acc: &mut [f64; MAX_PORTS],
        dropped: &mut [u32; MAX_PORTS],
    ) -> bool {
        // Every pair is stored, so `dropped` is never touched. Each port's
        // fold walks one contiguous row with gathered loads, adding in member
        // order (the same left-to-right fold as the default hook, hence
        // bit-for-bit identical sums); the early-exit check runs once per
        // block, which the trait contract allows because contributions are
        // non-negative.
        let _ = dropped;
        for (port, slot) in acc.iter_mut().enumerate().take(ports) {
            let row = self.row(i, port);
            let mut sum = *slot;
            for block in members.chunks(64) {
                for &j in block {
                    sum += row[j];
                }
                if sum > limit_hi {
                    return false;
                }
            }
            *slot = sum;
        }
        true
    }
}

impl<'e, 'a, M: MetricSpace> VariantView<'e, 'a, M> {
    /// Builds the cached [`GainMatrix`] of this view (`O(ports · n²)` time
    /// and memory).
    pub fn cached(&self) -> GainMatrix {
        GainMatrix::build(self)
    }

    /// The effective path loss of request `j`'s signal at port `port` of
    /// request `i` — the single source of truth for the per-variant
    /// interference convention: the interferer's *sender*-to-receiver loss
    /// in the directed variant, the *closest-endpoint* loss in the
    /// bidirectional one. [`IncrementalSystem::contribution`] is
    /// `received_strength(p_j, effective_loss)`, and the power-control
    /// fixed point caches exactly these values.
    ///
    /// # Panics
    ///
    /// Panics if an index or port is out of range.
    pub fn effective_loss(&self, i: usize, port: usize, j: usize) -> f64 {
        let eval = self.evaluator();
        let params = eval.params();
        let metric = eval.instance().metric();
        let ri = eval.instance().request(i);
        let rj = eval.instance().request(j);
        match self.variant() {
            Variant::Directed => {
                assert_eq!(port, 0, "directed requests have a single port");
                params.loss(metric.distance(rj.sender, ri.receiver))
            }
            Variant::Bidirectional => {
                assert!(port < 2, "bidirectional requests have two ports");
                let w = if port == 0 { ri.sender } else { ri.receiver };
                params
                    .loss(metric.distance(rj.sender, w))
                    .min(params.loss(metric.distance(rj.receiver, w)))
            }
        }
    }
}

impl<'e, 'a, M: MetricSpace> IncrementalSystem for VariantView<'e, 'a, M> {
    fn num_ports(&self) -> usize {
        match self.variant() {
            Variant::Directed => 1,
            Variant::Bidirectional => 2,
        }
    }

    fn contribution(&self, i: usize, port: usize, j: usize) -> f64 {
        if j == i {
            return 0.0;
        }
        let eval: &Evaluator<'a, M> = self.evaluator();
        eval.params()
            .received_strength(eval.power(j), self.effective_loss(i, port, j))
    }

    fn signal(&self, i: usize) -> f64 {
        self.evaluator().signal(i)
    }

    fn noise(&self) -> f64 {
        self.evaluator().params().noise()
    }
}

// On-the-fly contributions are computed exactly from the metric — the
// un-cached exact backend.
impl<'e, 'a, M: MetricSpace> GainBackend for VariantView<'e, 'a, M> {}

impl<'a, M: MetricSpace> IncrementalSystem for NodeLossEvaluator<'a, M> {
    fn num_ports(&self) -> usize {
        1
    }

    fn contribution(&self, i: usize, port: usize, j: usize) -> f64 {
        debug_assert_eq!(port, 0);
        if j == i {
            return 0.0;
        }
        let loss = self.params().loss(self.instance().metric().distance(i, j));
        self.params().received_strength(self.power(j), loss)
    }

    fn signal(&self, i: usize) -> f64 {
        NodeLossEvaluator::signal(self, i)
    }

    fn noise(&self) -> f64 {
        self.params().noise()
    }
}

// Node-loss contributions are computed exactly from the metric — an exact
// backend.
impl<'a, M: MetricSpace> GainBackend for NodeLossEvaluator<'a, M> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodeloss::NodeLossInstance;
    use crate::params::SinrParams;
    use crate::power::ObliviousPower;
    use crate::request::{Instance, Request};
    use oblisched_metric::LineMetric;

    /// Four unit links with mixed separations so that some subsets are
    /// feasible and some are not.
    fn mixed_instance() -> Instance<LineMetric> {
        let metric = LineMetric::new(vec![0.0, 1.0, 3.0, 4.0, 40.0, 41.0, 43.0, 44.0]);
        Instance::new(
            metric,
            vec![
                Request::new(0, 1),
                Request::new(2, 3),
                Request::new(4, 5),
                Request::new(6, 7),
            ],
        )
        .unwrap()
    }

    fn all_subsets(n: usize) -> Vec<Vec<usize>> {
        (0..1usize << n)
            .map(|mask| (0..n).filter(|&i| mask >> i & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn matrix_sinr_matches_naive_evaluator_exactly() {
        let inst = mixed_instance();
        for power in ObliviousPower::standard_assignments() {
            for params in [
                SinrParams::new(3.0, 1.0).unwrap(),
                SinrParams::with_noise(2.5, 0.5, 0.01).unwrap(),
            ] {
                let eval = inst.evaluator(params, &power);
                for variant in Variant::all() {
                    let view = eval.view(variant);
                    let matrix = view.cached();
                    for set in all_subsets(inst.len()) {
                        for &i in &set {
                            assert_eq!(
                                matrix.sinr(i, &set),
                                view.sinr(i, &set),
                                "sinr({i}, {set:?}) diverged for {variant}"
                            );
                        }
                        assert_eq!(matrix.is_feasible(&set), view.is_feasible(&set));
                        assert_eq!(matrix.max_feasible_gain(&set), view.max_feasible_gain(&set));
                    }
                }
            }
        }
    }

    #[test]
    fn accumulator_matches_naive_push_pop_sequence() {
        let inst = mixed_instance();
        let params = SinrParams::new(3.0, 1.0).unwrap();
        for power in ObliviousPower::standard_assignments() {
            let eval = inst.evaluator(params, &power);
            for variant in Variant::all() {
                let view = eval.view(variant);
                let mut acc = ColorAccumulator::new(&view);
                let mut naive: Vec<usize> = Vec::new();
                for i in 0..inst.len() {
                    naive.push(i);
                    let naive_ok = view.is_feasible(&naive);
                    if !naive_ok {
                        naive.pop();
                    }
                    assert_eq!(
                        acc.try_insert(i),
                        naive_ok,
                        "verdict for {i} under {variant}"
                    );
                    assert_eq!(acc.members(), naive.as_slice());
                }
                // The accumulated per-member SINRs equal fresh recomputation.
                for (pos, &i) in acc.members().iter().enumerate() {
                    assert_eq!(acc.sinr_of(pos), view.sinr(i, &naive));
                }
            }
        }
    }

    #[test]
    fn accumulator_respects_explicit_gain() {
        let inst = mixed_instance();
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let eval = inst.evaluator(params, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        for gain in [0.25, 1.0, 4.0] {
            let mut acc = ColorAccumulator::new(&view);
            let mut naive: Vec<usize> = Vec::new();
            for i in 0..inst.len() {
                naive.push(i);
                let naive_ok = view.is_feasible_with_gain(&naive, gain);
                if !naive_ok {
                    naive.pop();
                }
                assert_eq!(acc.try_insert_with_gain(i, gain), naive_ok);
            }
            assert_eq!(acc.members(), naive.as_slice());
        }
    }

    #[test]
    fn accumulator_state_helpers() {
        let inst = mixed_instance();
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let eval = inst.evaluator(params, &ObliviousPower::Uniform);
        let view = eval.view(Variant::Directed);
        let mut acc = ColorAccumulator::with_members(&view, &[2, 3]);
        assert_eq!(acc.len(), 2);
        assert!(!acc.is_empty());
        assert!(acc.contains(2) && !acc.contains(0));
        assert!(acc.interference_of(0) > 0.0);
        acc.clear();
        assert!(acc.is_empty());
        assert_eq!(acc.members(), &[] as &[usize]);
    }

    #[test]
    fn unchecked_insert_tracks_infeasible_sets() {
        // Nested links are mutually infeasible under uniform power; the
        // accumulator must still track their sums faithfully.
        let metric = LineMetric::new(vec![0.0, 10.0, 4.0, 5.0]);
        let inst = Instance::new(metric, vec![Request::new(0, 1), Request::new(2, 3)]).unwrap();
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let eval = inst.evaluator(params, &ObliviousPower::Uniform);
        let view = eval.view(Variant::Bidirectional);
        let acc = ColorAccumulator::with_members(&view, &[0, 1]);
        assert!(!view.is_feasible(&[0, 1]));
        for (pos, &i) in acc.members().iter().enumerate() {
            assert_eq!(acc.sinr_of(pos), view.sinr(i, &[0, 1]));
        }
    }

    #[test]
    fn nodeloss_incremental_matches_naive() {
        let metric = LineMetric::new(vec![0.0, 5.0, 11.0, 18.0, 26.0]);
        let inst = NodeLossInstance::new(metric, vec![1.0, 1.5, 2.0, 1.0, 3.0]).unwrap();
        let eval = inst.sqrt_evaluator(SinrParams::new(2.0, 0.25).unwrap());
        let matrix = GainMatrix::build(&eval);
        for set in all_subsets(inst.len()) {
            for &i in &set {
                assert_eq!(matrix.sinr(i, &set), eval.sinr(i, &set));
            }
            assert_eq!(matrix.is_feasible(&set), eval.is_feasible(&set));
        }
        let mut acc = ColorAccumulator::new(&eval);
        let mut naive: Vec<usize> = Vec::new();
        for i in 0..inst.len() {
            naive.push(i);
            let ok = eval.is_feasible(&naive);
            if !ok {
                naive.pop();
            }
            assert_eq!(acc.try_insert(i), ok);
        }
    }

    #[test]
    fn matrix_accessors_and_memory_estimate() {
        let inst = mixed_instance();
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let eval = inst.evaluator(params, &ObliviousPower::Uniform);
        let matrix = eval.view(Variant::Bidirectional).cached();
        assert_eq!(matrix.len(), 4);
        assert_eq!(matrix.ports(), 2);
        assert_eq!(matrix.row(1, 0).len(), 4);
        assert_eq!(matrix.row(1, 0)[1], 0.0, "diagonal must be zero");
        assert_eq!(GainMatrix::bytes_for(4, 2), 4 * 4 * 2 * 8);
        assert_eq!(GainMatrix::bytes_for(usize::MAX, 2), usize::MAX);
        assert_eq!(GainMatrix::checked_bytes_for(4, 2), Some(4 * 4 * 2 * 8));
        let directed = eval.view(Variant::Directed).cached();
        assert_eq!(directed.ports(), 1);
    }

    #[test]
    fn checked_bytes_for_treats_overflow_as_over_budget() {
        // At the overflow boundary the checked product must vanish instead of
        // wrapping: a wrapped product could slip under any finite budget and
        // wrongly enable the matrix for huge n.
        let boundary = (usize::MAX / 8 / 2).isqrt();
        assert!(GainMatrix::checked_bytes_for(boundary, 2).is_some());
        let overflowing = 1usize << (usize::BITS / 2);
        assert_eq!(GainMatrix::checked_bytes_for(overflowing, 2), None);
        assert_eq!(GainMatrix::bytes_for(overflowing, 2), usize::MAX);
        assert_eq!(GainMatrix::checked_bytes_for(usize::MAX, 1), None);
        // The budget predicate the Scheduler facade uses: overflow is
        // over-budget against any budget.
        let in_budget = GainMatrix::checked_bytes_for(overflowing, 2).is_some_and(|b| b <= 1 << 60);
        assert!(!in_budget);
    }

    #[test]
    fn removal_inverts_insertion() {
        let inst = mixed_instance();
        let params = SinrParams::new(3.0, 1.0).unwrap();
        for power in ObliviousPower::standard_assignments() {
            let eval = inst.evaluator(params, &power);
            for variant in Variant::all() {
                let view = eval.view(variant);
                let mut acc = ColorAccumulator::with_members(&view, &[0, 1, 2, 3]);
                assert!(acc.remove(2));
                assert!(!acc.remove(2), "double removal must report false");
                assert_eq!(acc.members(), &[0, 1, 3]);
                let fresh = ColorAccumulator::with_members(&view, &[0, 1, 3]);
                for pos in 0..acc.len() {
                    let drifted = acc.interference_of(pos);
                    let exact = fresh.interference_of(pos);
                    let scale = drifted.abs().max(exact.abs()).max(1.0);
                    assert!(
                        (drifted - exact).abs() <= 1e-12 * scale,
                        "sums drifted beyond tolerance after removal under {variant}"
                    );
                }
            }
        }
    }

    #[test]
    fn drift_guard_rebuilds_after_configured_interval() {
        let inst = mixed_instance();
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let eval = inst.evaluator(params, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let mut acc = ColorAccumulator::with_members(&view, &[0, 1, 2, 3]).with_rebuild_interval(2);
        acc.remove(0);
        assert_eq!(acc.removals_since_rebuild(), 1);
        acc.remove(3);
        // Second removal hits the interval: the guard rebuilt and reset.
        assert_eq!(acc.removals_since_rebuild(), 0);
        // After a rebuild the sums are bit-for-bit those of a fresh fold.
        let fresh = ColorAccumulator::with_members(&view, &[1, 2]);
        for pos in 0..acc.len() {
            assert_eq!(acc.interference_of(pos), fresh.interference_of(pos));
        }
        // An interval of 1 keeps the accumulator exactly fresh.
        let mut exact =
            ColorAccumulator::with_members(&view, &[0, 1, 2, 3]).with_rebuild_interval(1);
        exact.remove(1);
        let fresh = ColorAccumulator::with_members(&view, &[0, 2, 3]);
        for pos in 0..exact.len() {
            assert_eq!(exact.interference_of(pos), fresh.interference_of(pos));
            assert_eq!(exact.sinr_of(pos), fresh.sinr_of(pos));
        }
    }

    #[test]
    fn removal_of_infinite_contribution_triggers_exact_rebuild() {
        // Request 1's sender coincides with request 0's receiver, producing an
        // infinite contribution; removing that member must not leave NaN sums.
        let metric = LineMetric::new(vec![0.0, 1.0, 1.0, 5.0, 40.0, 41.0]);
        let inst = Instance::new(
            metric,
            vec![Request::new(0, 1), Request::new(2, 3), Request::new(4, 5)],
        )
        .unwrap();
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let eval = inst.evaluator(params, &ObliviousPower::Uniform);
        let view = eval.view(Variant::Directed);
        let mut acc = ColorAccumulator::with_members(&view, &[0, 1, 2]);
        assert!(acc.remove(1));
        assert_eq!(
            acc.removals_since_rebuild(),
            0,
            "infinite removal must force a rebuild"
        );
        let fresh = ColorAccumulator::with_members(&view, &[0, 2]);
        for pos in 0..acc.len() {
            assert_eq!(acc.interference_of(pos), fresh.interference_of(pos));
            assert!(!acc.interference_of(pos).is_nan());
        }
    }

    #[test]
    fn clear_resets_drift_guard_state() {
        let inst = mixed_instance();
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let eval = inst.evaluator(params, &ObliviousPower::Uniform);
        let view = eval.view(Variant::Directed);
        let mut acc = ColorAccumulator::with_members(&view, &[0, 1, 2]);
        acc.remove(0);
        assert_eq!(acc.removals_since_rebuild(), 1);
        acc.clear();
        assert_eq!(acc.removals_since_rebuild(), 0);
        assert!(acc.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_rebuild_interval_is_rejected() {
        let inst = mixed_instance();
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let eval = inst.evaluator(params, &ObliviousPower::Uniform);
        let view = eval.view(Variant::Directed);
        let _ = ColorAccumulator::new(&view).with_rebuild_interval(0);
    }

    #[test]
    fn noise_is_carried_through() {
        // With heavy noise even singletons are infeasible; the accumulator
        // must mirror the naive first-fit behaviour of rejecting them while
        // unchecked insertion still works.
        let metric = LineMetric::new(vec![0.0, 1.0, 50.0, 51.0]);
        let inst = Instance::new(metric, vec![Request::new(0, 1), Request::new(2, 3)]).unwrap();
        let params = SinrParams::with_noise(2.0, 1.0, 10.0).unwrap();
        let eval = inst.evaluator(params, &ObliviousPower::Uniform);
        let view = eval.view(Variant::Directed);
        assert!(!view.is_feasible(&[0]));
        let mut acc = ColorAccumulator::new(&view);
        assert!(!acc.try_insert(0));
        acc.insert_unchecked(0);
        assert_eq!(acc.members(), &[0]);
        assert_eq!(acc.sinr_of(0), view.sinr(0, &[0]));
    }

    #[test]
    fn empty_set_queries_are_well_defined() {
        let inst = mixed_instance();
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let eval = inst.evaluator(params, &ObliviousPower::Uniform);
        let view = eval.view(Variant::Bidirectional);
        let matrix = view.cached();
        assert!(matrix.is_feasible(&[]));
        assert_eq!(matrix.max_feasible_gain(&[]), f64::INFINITY);
        let acc = ColorAccumulator::new(&matrix);
        assert!(acc.is_empty());
    }

    #[test]
    fn threaded_matrix_build_is_bit_for_bit_identical_to_serial() {
        let inst = mixed_instance();
        let params = SinrParams::with_noise(2.5, 0.5, 0.01).unwrap();
        for power in ObliviousPower::standard_assignments() {
            let eval = inst.evaluator(params, &power);
            for variant in Variant::all() {
                let view = eval.view(variant);
                let serial = GainMatrix::build(&view);
                for threads in [1usize, 2, 3, 8] {
                    let threaded = GainMatrix::build_with_threads(&view, threads);
                    for i in 0..inst.len() {
                        for port in 0..view.num_ports() {
                            let s: Vec<u64> =
                                serial.row(i, port).iter().map(|v| v.to_bits()).collect();
                            let t: Vec<u64> =
                                threaded.row(i, port).iter().map(|v| v.to_bits()).collect();
                            assert_eq!(
                                s, t,
                                "row ({i}, {port}) diverged at {threads} threads ({variant})"
                            );
                        }
                        assert_eq!(serial.signal(i).to_bits(), threaded.signal(i).to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn reset_for_matches_a_fresh_accumulator() {
        let inst = mixed_instance();
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let eval = inst.evaluator(params, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let mut recycled = ColorAccumulator::new(&view);
        for &i in &[0usize, 1, 2] {
            recycled.insert_unchecked(i);
        }
        recycled.reset_for(&view);
        let mut fresh = ColorAccumulator::new(&view);
        for i in 0..inst.len() {
            assert_eq!(
                recycled.try_insert(i),
                fresh.try_insert(i),
                "recycled and fresh accumulators diverged on {i}"
            );
        }
        assert_eq!(recycled.members(), fresh.members());
        for pos in 0..recycled.len() {
            assert_eq!(
                recycled.sinr_of(pos).to_bits(),
                fresh.sinr_of(pos).to_bits()
            );
        }
    }

    #[test]
    fn gathered_batch_matches_sequential_probes_exactly() {
        // Drive two first-fits over the same cached matrix side by side —
        // one with per-class sequential probes, one through a gathered
        // batch — and require identical verdicts and identical committed
        // sums at every step. The dense matrix is exact (no stored rows),
        // so this also pins the batched entry point's fallback path; the
        // row-walk path is pinned at the sparse tier by
        // `tests/probe_equivalence.rs` and the sparse goldens.
        let inst = mixed_instance();
        let params = SinrParams::new(3.0, 1.0).unwrap();
        for power in ObliviousPower::standard_assignments() {
            let eval = inst.evaluator(params, &power);
            for variant in Variant::all() {
                let view = eval.view(variant);
                let matrix = view.cached();
                let n = inst.len();
                let gain = matrix.beta();
                let mut seq: Vec<ColorAccumulator<'_, GainMatrix>> = Vec::new();
                let mut bat: Vec<ColorAccumulator<'_, GainMatrix>> = Vec::new();
                let mut color_of = vec![NO_COLOR; n];
                let mut batch = ProbeBatch::new();
                for i in 0..n {
                    let seq_color = match seq
                        .iter_mut()
                        .position(|class| class.try_insert_with_gain(i, gain))
                    {
                        Some(c) => c,
                        None => {
                            let mut class = ColorAccumulator::new(&matrix);
                            class.insert_unchecked(i);
                            seq.push(class);
                            seq.len() - 1
                        }
                    };
                    batch.gather(&matrix, i, bat.len(), &color_of);
                    let bat_color = match (0..bat.len())
                        .find(|&c| bat[c].try_insert_with_gain_batched(i, gain, &batch, c))
                    {
                        Some(c) => c,
                        None => {
                            let mut class = ColorAccumulator::new(&matrix);
                            class.insert_unchecked(i);
                            bat.push(class);
                            bat.len() - 1
                        }
                    };
                    assert_eq!(seq_color, bat_color, "placement of {i} diverged");
                    color_of[i] = item_id(bat_color);
                }
                for (s, b) in seq.iter().zip(&bat) {
                    assert_eq!(s.members(), b.members());
                    for pos in 0..s.len() {
                        assert_eq!(
                            s.sinr_of(pos).to_bits(),
                            b.sinr_of(pos).to_bits(),
                            "committed sums diverged ({variant})"
                        );
                    }
                }
            }
        }
    }
}
