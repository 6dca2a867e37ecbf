//! The churn-capable sparse backend: [`SparseGainMatrix`](super::SparseGainMatrix)'s
//! pruning story under insert/remove mutations.
//!
//! The batch [`SparseGainMatrix`](super::SparseGainMatrix) is built once:
//! its CSR rows and dropped-mass pads describe the full universe and never
//! change. A dynamic session needs the opposite shape — at any moment only
//! the *live* subset interferes, rows must follow arrivals and departures,
//! and the conservativeness guarantee ("never accept a set the naive
//! evaluator rejects") must hold at **every** intermediate state, not just
//! after a batch build. [`SparseChurnMatrix`] provides that:
//!
//! * the **live set** is a membership slot per universe item plus a dense
//!   list of the live items, both updated in `O(1)` per arrival/departure;
//! * rows are **lazily materialised**: only requests that a scheduler
//!   actually probes get a CSR row, built by visiting every live member
//!   once (`O(live)`, the order of one event's patch loop); a departing
//!   request's row is dropped whole, so only live requests ever hold rows;
//! * materialised rows are **patched** on churn: an arrival inserts a stored
//!   entry (when its inflated contribution reaches the row's cutoff) or adds
//!   its fixed-point quanta to the row's dropped-mass pad; a departure
//!   removes the stored entry or subtracts exactly the same quanta.
//!
//! # Fixed-point pads
//!
//! Let `c = cutoff(i)` and let `v = SAFETY · raw(i, port, j) < c` be a
//! pruned contribution. The row holds, per port, the integer
//! `Q = Σ q(v)` over its live pruned interferers, where
//! `q(v) = floor(min(v · 2³² / c, 2³² − 1)) + 1`, an integer in `[1, 2³²]`:
//!
//! * **Upward rounding.** The ratio `v / c` is one correctly rounded
//!   division (relative error at most `2⁻⁵³`); scaling by `2³²` is exact,
//!   and `floor(t) + 1` lies strictly above `t` — a ratio that underflowed
//!   still counts one quantum. The cap only applies when the computed ratio
//!   reaches `1 − 2⁻³²`, where the resulting `2³²` quanta are the whole
//!   cutoff, above any `v < c`. So `q · c / 2³² ≥ (1 − 2⁻⁵³) · v` for every
//!   term, and summing keeps `Q · c / 2³² ≥ (1 − 2⁻⁵³) · SAFETY · Σ raw ≥
//!   Σ raw`. (`floor + 1` instead of `ceil` avoids a libm call on the
//!   baseline x86-64 target, in the loop every row build and patch runs.)
//! * **SAFETY covers the conversion.** Queries read the pad as
//!   `SAFETY · f64(Q) · c / 2³²`: the integer-to-float conversion (exact
//!   below `2⁵³`, half an ulp above) and the products each round by at most
//!   `2⁻⁵³` relative, which the `1e-12` of `SAFETY` dominates. The read pad
//!   therefore never falls below the true dropped mass.
//! * **`cap = cutoff`.** Every pruned inflated value is below the row's
//!   cutoff by definition, so the cutoff itself is the per-member bound the
//!   [`ColorAccumulator`](crate::engine::ColorAccumulator) pairs with the
//!   pad.
//! * **Headroom.** Each quantum count is at most `2³²` and a row has at
//!   most `2³² − 1` interferers (item ids are `u32`), so `Q < 2⁶⁴` fits a
//!   `u64` for any buildable universe.
//!
//! Integer addition is exact, associative and commutative, and a departure
//! subtracts the `q` recomputed from the same pair its arrival added. `Q`
//! is therefore a pure function of the live set: whatever the mutation
//! history, a patched row equals the row a fresh build over the same live
//! set produces, bit for bit. Stored entries are the pure pair predicate
//! `SAFETY · raw ≥ cutoff`. Every verdict is thus a function of the live
//! set alone, which is what durable sessions need: write-ahead-log recovery
//! re-derives placements on a fresh backend instead of replaying them, and
//! reproduces the pre-crash coloring bit for bit.

use std::cell::{Ref, RefCell};

use super::{distance_sq, FastLoss, SparseConfig, SAFETY};
use crate::engine::{item_id, item_index, GainBackend, IncrementalSystem, SparseEntry, MAX_PORTS};
use crate::feasibility::{InterferenceSystem, Variant, VariantView};
use crate::params::SinrParams;
use oblisched_metric::{MetricSpace, PlanarMetric};

/// `2³²`: the quanta of one full row cutoff in the fixed-point pad.
const PAD_SCALE: f64 = 4_294_967_296.0;

/// [`LiveSet::slot`] marker for an item that is not live.
const DEAD: u32 = u32::MAX;

/// The fixed-point quanta of one pruned, SAFETY-inflated contribution
/// `inflated < cutoff`: `floor(inflated · 2³² / cutoff) + 1`, with the
/// scaled ratio capped at `2³² − 1` (so a NaN ratio counts as the full
/// cutoff). The one sanctioned way into a pad (`oblint`'s
/// missing-safety-inflation rule); see the [module docs](self) for the
/// rounding argument.
#[inline]
fn pad_quanta(inflated: f64, cutoff: f64) -> u64 {
    let scaled = (inflated / cutoff * PAD_SCALE).min(PAD_SCALE - 1.0);
    // oblint::allow(lossy-cast-in-engine): truncation is the floor of `scaled`, which lies in [0, 2^32 - 1].
    scaled as u64 + 1
}

/// The sanctioned pad read: `quanta` back in contribution units, inflated
/// by `SAFETY` to cover the conversion's own rounding (module docs).
#[inline]
fn pad_mass(quanta: u64, cutoff: f64) -> f64 {
    // oblint::allow(lossy-cast-in-engine): exact below 2^53 quanta, half an ulp above; the SAFETY factor covers it.
    SAFETY * (quanta as f64) * cutoff / PAD_SCALE
}

/// The live set: each universe item's position in `members` (or [`DEAD`])
/// and the dense list of live items that row builds visit. Removal swaps
/// the last member into the freed position, so the list order follows the
/// mutation history; nothing observable depends on it.
#[derive(Debug, Clone)]
struct LiveSet {
    slot: Vec<u32>,
    members: Vec<u32>,
}

impl LiveSet {
    fn contains(&self, item: usize) -> bool {
        self.slot[item] != DEAD
    }

    /// Marks `item` live; `false` when it already was.
    fn insert(&mut self, item: usize) -> bool {
        if self.contains(item) {
            return false;
        }
        self.slot[item] = item_id(self.members.len());
        self.members.push(item_id(item));
        true
    }

    /// Marks `item` dead; `false` when it already was.
    fn remove(&mut self, item: usize) -> bool {
        let pos = self.slot[item];
        if pos == DEAD {
            return false;
        }
        self.slot[item] = DEAD;
        self.members.swap_remove(item_index(pos));
        if let Some(&moved) = self.members.get(item_index(pos)) {
            self.slot[item_index(moved)] = pos;
        }
        true
    }
}

/// One lazily-materialised row: the stored entries of every port (live
/// interferers at or above the row's cutoff, sorted by index, in
/// structure-of-arrays form — parallel column/value vectors per port) and
/// the fixed-point dropped-mass pad.
#[derive(Debug, Clone, Default)]
struct ChurnRow {
    cols: [Vec<u32>; MAX_PORTS],
    vals: [Vec<f64>; MAX_PORTS],
    /// Per port, the sum of [`pad_quanta`] over the live pruned interferers.
    /// At most `2³²` per interferer and fewer than `2³²` interferers (item
    /// ids are `u32`), so the `u64` cannot overflow.
    quanta: [u64; MAX_PORTS],
}

impl ChurnRow {
    /// The stored value of interferer `j` at `port`, or `None` when the live
    /// pair is pruned (binary search over the sorted columns).
    #[inline]
    fn get(&self, port: usize, j: u32) -> Option<f64> {
        self.cols[port]
            .binary_search(&j)
            .ok()
            .map(|k| self.vals[port][k])
    }

    /// Admits arriving interferer `j` with SAFETY-inflated contribution `v`:
    /// a sorted stored entry at or above `cutoff`, else its quanta join the
    /// pad.
    fn admit(&mut self, port: usize, j: u32, v: f64, cutoff: f64) {
        if v >= cutoff {
            match self.cols[port].binary_search(&j) {
                Ok(_) => debug_assert!(false, "arriving interferer {j} was already stored"),
                Err(p) => {
                    self.cols[port].insert(p, j);
                    self.vals[port].insert(p, v);
                }
            }
        } else {
            self.quanta[port] += pad_quanta(v, cutoff);
        }
    }

    /// The exact inverse of [`admit`](ChurnRow::admit) for departing
    /// interferer `j`: removes the stored entry, or subtracts the very
    /// quanta its arrival (or the row's build) added, so the pad cannot
    /// underflow.
    fn evict(&mut self, port: usize, j: u32, v: f64, cutoff: f64) {
        if v >= cutoff {
            match self.cols[port].binary_search(&j) {
                Ok(p) => {
                    self.cols[port].remove(p);
                    self.vals[port].remove(p);
                }
                Err(_) => debug_assert!(false, "departing interferer {j} was not stored"),
            }
        } else {
            self.quanta[port] -= pad_quanta(v, cutoff);
        }
    }
}

/// The live set, the materialised rows, and the list of items currently
/// holding one (so patches iterate live rows, never the whole universe).
#[derive(Debug, Clone)]
struct ChurnState {
    live: LiveSet,
    rows: Vec<Option<ChurnRow>>,
    materialized: Vec<u32>,
}

/// A churn-capable cutoff-pruned [`GainBackend`]: the sparse tier for
/// dynamic sessions.
///
/// Built once over the full universe of a [`VariantView`] (positions,
/// powers and signals are copied in), it starts with every request *dead*
/// and is driven by the [`note_arrival`](GainBackend::note_arrival) /
/// [`note_departure`](GainBackend::note_departure) hooks — the dynamic
/// schedulers in the core crate invoke them around each insert/remove. All
/// queries
/// (`stored_contribution`, `pruned_mass`, [`sinr`](InterferenceSystem::sinr))
/// are only meaningful for **live** items; rows materialise on first query
/// behind a `RefCell`, so the type is deliberately not `Sync`.
///
/// See the [module docs](self) for the incremental-maintenance and
/// conservativeness story.
#[derive(Debug)]
pub struct SparseChurnMatrix {
    n: usize,
    ports: usize,
    variant: Variant,
    folded: bool,
    params: SinrParams,
    fast: FastLoss,
    beta: f64,
    strict: bool,
    signals: Vec<f64>,
    powers: Vec<f64>,
    senders: Vec<[f64; 2]>,
    receivers: Vec<[f64; 2]>,
    /// Per-item row cutoff `cutoff_fraction · signal / β` (a stored entry is
    /// exactly an inflated contribution at or above it).
    cutoffs: Vec<f64>,
    state: RefCell<ChurnState>,
}

impl SparseChurnMatrix {
    /// Builds the churn backend over `view`'s full universe with every
    /// request initially dead. Copies the per-item geometry in `O(n)`; no
    /// rows are materialised.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`SparseConfig`];
    /// [`tile_occupancy`](SparseConfig::tile_occupancy) and
    /// [`build_threads`](SparseConfig::build_threads) are ignored — rows are
    /// built lazily, one at a time, from the live set).
    pub fn new<M: MetricSpace + PlanarMetric>(
        view: &VariantView<'_, '_, M>,
        config: &SparseConfig,
    ) -> Self {
        config.validate();
        let eval = view.evaluator();
        let instance = eval.instance();
        let metric = instance.metric();
        let n = instance.len();
        let variant = view.variant();
        let folded = config.fold_ports && variant == Variant::Bidirectional;
        let ports = match variant {
            Variant::Directed => 1,
            Variant::Bidirectional if folded => 1,
            Variant::Bidirectional => 2,
        };
        let params = eval.params();
        let beta = params.beta();
        let signals: Vec<f64> = (0..n).map(|i| eval.signal(i)).collect();
        let cutoffs: Vec<f64> = signals
            .iter()
            .map(|&s| config.cutoff_fraction * s / beta)
            .collect();
        Self {
            n,
            ports,
            variant,
            folded,
            params,
            fast: FastLoss::for_alpha(params.alpha()),
            beta,
            strict: config.strict,
            signals,
            powers: eval.powers().to_vec(),
            senders: (0..n)
                .map(|i| metric.position(instance.request(i).sender))
                .collect(),
            receivers: (0..n)
                .map(|i| metric.position(instance.request(i).receiver))
                .collect(),
            cutoffs,
            state: RefCell::new(ChurnState {
                live: LiveSet {
                    slot: vec![DEAD; n],
                    members: Vec::new(),
                },
                rows: (0..n).map(|_| None).collect(),
                materialized: Vec::new(),
            }),
        }
    }

    /// Returns a copy-by-move with [`strict`](SparseConfig::strict)
    /// borderline re-checking switched on or off.
    #[must_use]
    pub fn with_strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Whether borderline verdicts are re-checked exactly.
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    /// Number of ports per item (`1` when folded or directed).
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// The problem variant the backend was built for.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Number of currently live requests.
    pub fn live_count(&self) -> usize {
        self.state.borrow().live.members.len()
    }

    /// Whether `item` is currently live.
    pub fn is_live(&self, item: usize) -> bool {
        self.state.borrow().live.contains(item)
    }

    /// Number of live requests currently holding a materialised CSR row.
    pub fn materialized_rows(&self) -> usize {
        self.state.borrow().materialized.len()
    }

    /// Number of stored (non-pruned) contributions across all materialised
    /// rows.
    pub fn stored_entries(&self) -> usize {
        self.state
            .borrow()
            .rows
            .iter()
            .flatten()
            .map(|row| row.cols[..self.ports].iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Approximate heap footprint in bytes: the static per-item geometry,
    /// the live set and every materialised row.
    pub fn bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        let id = std::mem::size_of::<u32>();
        let st = self.state.borrow();
        let fixed = (self.signals.len() + self.powers.len() + self.cutoffs.len()) * f
            + (self.senders.len() + self.receivers.len()) * std::mem::size_of::<[f64; 2]>()
            + (st.live.slot.len() + st.live.members.capacity() + st.materialized.capacity()) * id;
        let rows = st.rows.len() * std::mem::size_of::<Option<ChurnRow>>()
            + st.rows
                .iter()
                .flatten()
                .map(|row| {
                    row.cols.iter().map(Vec::capacity).sum::<usize>() * id
                        + row.vals.iter().map(Vec::capacity).sum::<usize>() * f
                })
                .sum::<usize>();
        fixed + rows
    }

    /// Mirror of the batch builder's un-pruned contribution of `j` at `port`
    /// of `i` (Euclidean positions, loss of the closer endpoint, worse port
    /// when folded).
    fn raw_contribution(&self, i: usize, port: usize, j: usize) -> f64 {
        if j == i {
            return 0.0;
        }
        let d_sq = match self.variant {
            Variant::Directed => distance_sq(self.senders[j], self.receivers[i]),
            Variant::Bidirectional => {
                let to = |w: [f64; 2]| {
                    distance_sq(self.senders[j], w).min(distance_sq(self.receivers[j], w))
                };
                if self.folded {
                    to(self.senders[i]).min(to(self.receivers[i]))
                } else if port == 0 {
                    to(self.senders[i])
                } else {
                    to(self.receivers[i])
                }
            }
        };
        self.fast.strength_sq(self.powers[j], d_sq)
    }

    /// Builds row `i` from scratch by visiting every live member once:
    /// inflated contributions at or above the cutoff become stored entries
    /// (sorted afterwards), the rest add their quanta to the pad. The pad is
    /// an integer sum, so the visiting order cannot change it.
    fn build_row(&self, live: &LiveSet, i: usize) -> ChurnRow {
        let cutoff = self.cutoffs[i];
        let mut row = ChurnRow::default();
        // Entries are collected interleaved so one sort keeps columns and
        // values paired, then split into the row's parallel arrays below.
        let mut stored: [Vec<SparseEntry>; MAX_PORTS] = Default::default();
        for &j in &live.members {
            if item_index(j) == i {
                continue;
            }
            for (port, entries) in stored.iter_mut().enumerate().take(self.ports) {
                let v = SAFETY * self.raw_contribution(i, port, item_index(j));
                if v >= cutoff {
                    entries.push(SparseEntry { j, v });
                } else {
                    row.quanta[port] += pad_quanta(v, cutoff);
                }
            }
        }
        for (port, entries) in stored.iter_mut().enumerate().take(self.ports) {
            entries.sort_unstable_by_key(|e| e.j);
            row.cols[port] = entries.iter().map(|e| e.j).collect();
            row.vals[port] = entries.iter().map(|e| e.v).collect();
        }
        row
    }

    /// Materialises row `i` if needed and returns a shared borrow of it —
    /// the one lookup point every query path goes through.
    ///
    /// # Panics
    ///
    /// Panics if `i` is dead — only live requests ever get CSR rows, and
    /// every query path is specified for live items only.
    fn row_ref(&self, i: usize) -> Ref<'_, ChurnRow> {
        if self.state.borrow().rows[i].is_none() {
            let mut st = self.state.borrow_mut();
            let ChurnState {
                live,
                rows,
                materialized,
            } = &mut *st;
            assert!(
                live.contains(i),
                "sparse churn row requested for dead item {i}: queries are only \
                 meaningful for live requests"
            );
            rows[i] = Some(self.build_row(live, i));
            materialized.push(item_id(i));
        }
        match Ref::filter_map(self.state.borrow(), |s| s.rows[i].as_ref()) {
            Ok(row) => row,
            Err(_) => unreachable!("row {i} was materialised above"),
        }
    }

    /// The arrival patch: marks `item` live and admits it into every
    /// materialised row. Idempotent for an already-live item.
    fn arrive(&self, item: usize) {
        assert!(item < self.n, "item {item} out of range");
        let mut st = self.state.borrow_mut();
        let ChurnState {
            live,
            rows,
            materialized,
        } = &mut *st;
        if !live.insert(item) {
            return;
        }
        for &slot in materialized.iter() {
            let i = item_index(slot);
            let Some(row) = rows[i].as_mut() else {
                debug_assert!(false, "materialized list tracks every row");
                continue;
            };
            for port in 0..self.ports {
                let v = SAFETY * self.raw_contribution(i, port, item);
                row.admit(port, item_id(item), v, self.cutoffs[i]);
            }
        }
    }

    /// The departure patch: marks `item` dead, drops its own row whole, and
    /// evicts it from every surviving materialised row. Idempotent for an
    /// already-dead item.
    fn depart(&self, item: usize) {
        assert!(item < self.n, "item {item} out of range");
        let mut st = self.state.borrow_mut();
        let ChurnState {
            live,
            rows,
            materialized,
        } = &mut *st;
        if !live.remove(item) {
            return;
        }
        if rows[item].take().is_some() {
            // Dropping the departed row un-materialises it; `retain` keeps
            // the survivors in their original order.
            materialized.retain(|&x| item_index(x) != item);
        }
        for &slot in materialized.iter() {
            let i = item_index(slot);
            let Some(row) = rows[i].as_mut() else {
                debug_assert!(false, "materialized list tracks every row");
                continue;
            };
            for port in 0..self.ports {
                let v = SAFETY * self.raw_contribution(i, port, item);
                row.evict(port, item_id(item), v, self.cutoffs[i]);
            }
        }
    }
}

impl InterferenceSystem for SparseChurnMatrix {
    fn len(&self) -> usize {
        self.n
    }

    /// The conservative SINR of live item `i` against live `others`: stored
    /// contributions plus the row's dropped-mass pad. Never above the exact
    /// SINR of the live pairs.
    ///
    /// # Panics
    ///
    /// Panics if `i` is dead (see [`SparseChurnMatrix`]'s liveness
    /// contract).
    fn sinr(&self, i: usize, others: &[usize]) -> f64 {
        let row = self.row_ref(i);
        let cutoff = self.cutoffs[i];
        let mut ports = [0.0f64; MAX_PORTS];
        let mut dropped = [0u32; MAX_PORTS];
        for &j in others {
            if j == i {
                continue;
            }
            for (port, slot) in ports.iter_mut().enumerate().take(self.ports) {
                match row.get(port, item_id(j)) {
                    Some(v) => *slot += v,
                    None => dropped[port] += 1,
                }
            }
        }
        for (port, slot) in ports.iter_mut().enumerate().take(self.ports) {
            if dropped[port] > 0 {
                *slot += pad_mass(row.quanta[port], cutoff).min(f64::from(dropped[port]) * cutoff);
            }
        }
        let worst = ports[..self.ports]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let total = worst + self.params.noise();
        if total == 0.0 {
            f64::INFINITY
        } else {
            self.signals[i] / total
        }
    }

    fn beta(&self) -> f64 {
        self.beta
    }
}

impl IncrementalSystem for SparseChurnMatrix {
    fn num_ports(&self) -> usize {
        self.ports
    }

    /// The stored contribution, or `0.0` for pruned pairs — the engine adds
    /// the dropped-mass pad separately through the [`GainBackend`] hooks.
    fn contribution(&self, i: usize, port: usize, j: usize) -> f64 {
        self.stored_contribution(i, port, j).unwrap_or(0.0)
    }

    fn signal(&self, i: usize) -> f64 {
        self.signals[i]
    }

    fn noise(&self) -> f64 {
        self.params.noise()
    }
}

impl GainBackend for SparseChurnMatrix {
    /// The stored live contribution of `j` at `(i, port)` — `None` both for
    /// pruned live pairs (covered by the dropped-mass pad) and for dead
    /// interferers (which contribute nothing and are never stored).
    fn stored_contribution(&self, i: usize, port: usize, j: usize) -> Option<f64> {
        if j == i {
            return Some(0.0);
        }
        self.row_ref(i).get(port, item_id(j))
    }

    /// Candidate folds hold one row borrow for the whole member walk instead
    /// of re-entering `stored_contribution` (materialise check + `RefCell`
    /// borrow + lookup) once per member and port. Same members, same
    /// interleaved order, same stored values — the sums and verdicts are
    /// bit-for-bit those of the default hook.
    fn fold_candidate(
        &self,
        i: usize,
        ports: usize,
        members: &[usize],
        limit_hi: f64,
        acc: &mut [f64; MAX_PORTS],
        dropped: &mut [u32; MAX_PORTS],
    ) -> bool {
        let row = self.row_ref(i);
        for &j in members {
            for (port, slot) in acc.iter_mut().enumerate().take(ports) {
                let stored = if j == i {
                    Some(0.0)
                } else {
                    row.get(port, item_id(j))
                };
                match stored {
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

    /// The row cutoff: every pruned inflated contribution is below it by
    /// definition.
    fn pruned_cap(&self, i: usize, _port: usize) -> f64 {
        self.cutoffs[i]
    }

    fn pruned_mass(&self, i: usize, port: usize) -> f64 {
        pad_mass(self.row_ref(i).quanta[port], self.cutoffs[i])
    }

    fn is_exact(&self) -> bool {
        false
    }

    fn strict_recheck(&self) -> bool {
        self.strict
    }

    fn exact_contribution(&self, i: usize, port: usize, j: usize) -> f64 {
        SAFETY * self.raw_contribution(i, port, j)
    }

    fn note_arrival(&self, item: usize) {
        self.arrive(item);
    }

    fn note_departure(&self, item: usize) {
        self.depart(item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ColorAccumulator;
    use crate::power::ObliviousPower;
    use crate::request::{Instance, Request};
    use oblisched_metric::{EuclideanSpace, Point2};

    fn params() -> SinrParams {
        SinrParams::new(3.0, 1.0).unwrap()
    }

    /// The parent module's mixed near/far planar deployment.
    fn planar_instance() -> Instance<EuclideanSpace<2>> {
        let mut points = Vec::new();
        let mut requests = Vec::new();
        for k in 0..12usize {
            let x = (k % 4) as f64 * 37.0 + (k as f64 * 0.7).sin() * 5.0;
            let y = (k / 4) as f64 * 41.0 + (k as f64 * 1.3).cos() * 5.0;
            let id = points.len();
            points.push(Point2::xy(x, y));
            points.push(Point2::xy(x + 1.0 + (k % 3) as f64, y + 0.5));
            requests.push(Request::new(id, id + 1));
        }
        Instance::new(EuclideanSpace::from_points(points), requests).unwrap()
    }

    /// Brute-force true dropped mass of row `(i, port)` over the live set:
    /// the sum of every *un-inflated* live contribution below the cutoff.
    fn true_pruned_mass(m: &SparseChurnMatrix, live: &[usize], i: usize, port: usize) -> f64 {
        live.iter()
            .filter(|&&j| j != i)
            .map(|&j| m.raw_contribution(i, port, j))
            .filter(|&raw| SAFETY * raw < m.cutoffs[i])
            .sum()
    }

    #[test]
    fn fixed_point_pad_bounds_every_pruned_sum() {
        let cutoffs = [1e-300, 3.7e-9, 1.0, 0.1 + 0.2, 6.02e23];
        for &cutoff in &cutoffs {
            let mut quanta = 0u64;
            let mut truth = 0.0f64;
            for k in 0..4096u32 {
                // Values from the cutoff's own neighbourhood down to far
                // below one quantum, exact multiples of a quantum included.
                let frac = match k % 4 {
                    0 => f64::from(k) / 4096.0,
                    1 => (f64::from(k) * 0.618_033_988_749).fract(),
                    2 => f64::from(k) * 1e-15,
                    _ => 1.0 - f64::from(k) * f64::EPSILON,
                };
                let v = SAFETY * (frac * cutoff);
                if v >= cutoff {
                    continue;
                }
                let q = pad_quanta(v, cutoff);
                assert!(
                    (1..=1u64 << 32).contains(&q),
                    "quanta {q} out of range for v={v}, cutoff={cutoff}"
                );
                quanta += q;
                truth += v / SAFETY;
                assert!(
                    pad_mass(quanta, cutoff) >= truth,
                    "pad {} fell below the true sum {truth} at cutoff {cutoff}",
                    pad_mass(quanta, cutoff)
                );
            }
        }
        assert_eq!(pad_quanta(f64::NAN, 1.0), 1u64 << 32);
        assert_eq!(pad_quanta(0.0, 1.0), 1);
    }

    #[test]
    fn entries_match_the_pure_pair_predicate_under_churn() {
        let inst = planar_instance();
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        for variant in Variant::all() {
            let view = eval.view(variant);
            let config = SparseConfig {
                cutoff_fraction: 0.05,
                ..SparseConfig::default()
            };
            let m = SparseChurnMatrix::new(&view, &config);
            let n = inst.len();
            // Interleaved arrivals and departures with every row forced
            // materialised in between.
            let events: Vec<(bool, usize)> = vec![
                (true, 0),
                (true, 3),
                (true, 7),
                (true, 1),
                (false, 3),
                (true, 11),
                (true, 4),
                (false, 0),
                (true, 2),
                (true, 3),
                (false, 7),
                (true, 8),
            ];
            let mut live: Vec<usize> = Vec::new();
            for &(arrive, item) in &events {
                if arrive {
                    m.note_arrival(item);
                    live.push(item);
                } else {
                    m.note_departure(item);
                    live.retain(|&x| x != item);
                }
                // Materialise every live row, then check storedness.
                for &i in &live {
                    for port in 0..m.ports() {
                        for j in 0..n {
                            let stored = m.stored_contribution(i, port, j);
                            if j == i {
                                assert_eq!(stored, Some(0.0));
                            } else if live.contains(&j) {
                                let v = SAFETY * m.raw_contribution(i, port, j);
                                assert_eq!(
                                    stored.is_some(),
                                    v >= m.cutoffs[i],
                                    "storedness of ({i},{j}) must be the pure pair predicate"
                                );
                                if let Some(s) = stored {
                                    assert_eq!(
                                        s, v,
                                        "stored value must be the inflated pair value"
                                    );
                                }
                            } else {
                                assert_eq!(stored, None, "dead items are never stored");
                            }
                        }
                    }
                }
            }
            assert_eq!(m.live_count(), live.len());
        }
    }

    #[test]
    fn pads_stay_conservative_at_every_intermediate_state() {
        let inst = planar_instance();
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        for variant in Variant::all() {
            for fold in [false, true] {
                let view = eval.view(variant);
                let config = SparseConfig {
                    cutoff_fraction: 0.05,
                    fold_ports: fold,
                    ..SparseConfig::default()
                };
                let m = SparseChurnMatrix::new(&view, &config);
                let n = inst.len();
                let mut live: Vec<usize> = Vec::new();
                let events: Vec<(bool, usize)> = (0..40)
                    .map(|k| {
                        let item = (k * 7 + 3) % n;
                        (k % 3 != 2, item)
                    })
                    .collect();
                for (arrive, item) in events {
                    if arrive && !live.contains(&item) {
                        m.note_arrival(item);
                        live.push(item);
                    } else if !arrive && live.contains(&item) {
                        m.note_departure(item);
                        live.retain(|&x| x != item);
                    }
                    for &i in &live {
                        for port in 0..m.ports() {
                            let tracked = m.pruned_mass(i, port);
                            let truth = true_pruned_mass(&m, &live, i, port);
                            assert!(
                                tracked >= truth,
                                "pad of ({i},{port}) eroded: tracked {tracked} < true {truth} \
                                 under {variant} fold={fold}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A pruned request cycling out and in many times must never push the
    /// tracked pad below the true live dropped mass, and every full cycle
    /// must return the pad to exactly its pre-cycle bits: a departure
    /// subtracts the very quanta the arrival added.
    #[test]
    fn departure_subtraction_never_erodes_the_pad() {
        let inst = planar_instance();
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let config = SparseConfig {
            cutoff_fraction: 0.05,
            ..SparseConfig::default()
        };
        let m = SparseChurnMatrix::new(&view, &config);
        // A far pair: row 0 watches, item 11 (other corner) cycles, item 5
        // keeps a second pruned term in the pad throughout.
        m.note_arrival(0);
        m.note_arrival(5);
        m.note_arrival(11);
        let port = 0;
        assert!(
            m.stored_contribution(0, port, 11).is_none(),
            "the far pair must actually be pruned for this test to bite"
        );
        let before = m.pruned_mass(0, port);
        let alone_before = {
            m.note_departure(11);
            let alone = m.pruned_mass(0, port);
            m.note_arrival(11);
            alone
        };
        for cycle in 0..200 {
            m.note_departure(11);
            let alone = m.pruned_mass(0, port);
            assert_eq!(
                alone.to_bits(),
                alone_before.to_bits(),
                "cycle {cycle}: the pad without item 11 drifted"
            );
            assert!(alone >= true_pruned_mass(&m, &[0, 5], 0, port));
            m.note_arrival(11);
            let tracked = m.pruned_mass(0, port);
            let truth = true_pruned_mass(&m, &[0, 5, 11], 0, port);
            assert!(
                tracked >= truth,
                "cycle {cycle}: tracked pad {tracked} dipped below true mass {truth}"
            );
            assert_eq!(
                tracked.to_bits(),
                before.to_bits(),
                "cycle {cycle}: the pad did not return to its pre-cycle bits"
            );
        }
    }

    #[test]
    fn rows_exist_only_for_live_requests() {
        let inst = planar_instance();
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let m = SparseChurnMatrix::new(&view, &SparseConfig::default());
        assert_eq!(m.materialized_rows(), 0);
        m.note_arrival(0);
        m.note_arrival(1);
        m.note_arrival(2);
        // Rows are lazy: nothing materialised until queried.
        assert_eq!(m.materialized_rows(), 0);
        let _ = m.pruned_mass(0, 0);
        let _ = m.pruned_mass(1, 0);
        assert_eq!(m.materialized_rows(), 2);
        m.note_departure(0);
        assert_eq!(m.materialized_rows(), 1);
        assert!(!m.is_live(0));
        assert_eq!(m.live_count(), 2);
        // Re-arrival starts with a fresh, unmaterialised row.
        m.note_arrival(0);
        assert_eq!(m.materialized_rows(), 1);
    }

    #[test]
    fn accumulator_over_churn_backend_is_conservative() {
        let inst = planar_instance();
        for power in ObliviousPower::standard_assignments() {
            let eval = inst.evaluator(params(), &power);
            for variant in Variant::all() {
                for fold in [false, true] {
                    let view = eval.view(variant);
                    let config = SparseConfig {
                        cutoff_fraction: 0.05,
                        fold_ports: fold,
                        ..SparseConfig::default()
                    };
                    let m = SparseChurnMatrix::new(&view, &config);
                    for i in 0..inst.len() {
                        m.note_arrival(i);
                    }
                    let mut acc = ColorAccumulator::new(&m);
                    for i in 0..inst.len() {
                        if acc.try_insert(i) {
                            assert!(
                                view.is_feasible(acc.members()),
                                "churn-backend-accepted class {:?} must be naive-feasible \
                                 under {variant} fold={fold}",
                                acc.members()
                            );
                        }
                    }
                    assert!(!acc.is_empty());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "dead item")]
    fn querying_a_dead_item_panics() {
        let inst = planar_instance();
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let m = SparseChurnMatrix::new(&view, &SparseConfig::default());
        let _ = m.pruned_mass(0, 0);
    }
}
