//! The spatially-pruned sparse interference backend.
//!
//! The dense [`GainMatrix`](super::GainMatrix) costs `8 · ports · n²` bytes,
//! which blows any reasonable memory budget near `n ≈ 2000` and leaves large
//! instances on the slow uncached path. In *metric* instances the far field
//! is harmless: a polynomial path loss `d^α` makes the contribution of a
//! request at distance `d` decay like `d^{−α}`, so almost all of the `n²`
//! pairs are individually negligible. [`SparseGainMatrix`] exploits that:
//!
//! * requests are bucketed into a **uniform spatial grid** (with a coarser
//!   supertile level on top) keyed by their interfering endpoints;
//! * each row `(i, port)` stores, sorted by interferer, only the
//!   contributions at least the row's **cutoff**
//!   `cutoff_fraction · signal(i) / β`; everything below it — individual
//!   near-field runts and whole far-away (super)tiles, bounded through the
//!   grid aggregates without ever being computed — is *dropped*;
//! * what was dropped is **conservatively accounted**: the row tracks the
//!   total dropped mass and the largest single dropped contribution, and the
//!   [`ColorAccumulator`](super::ColorAccumulator) adds
//!   `min(total mass, dropped members · largest)` back onto its running sums
//!   before any feasibility comparison.
//!
//! The result is the engine's third tier (naive → dense incremental →
//! sparse pruned): `O(n)` memory at fixed density and cutoff, verdicts that
//! are **never non-conservative** — a color class accepted through the
//! sparse backend is always feasible for the exact evaluator, proven by the
//! property tests in `tests/properties.rs` — at the price of occasionally
//! rejecting a borderline join the exact system would accept (costing
//! colors, not correctness). The [`strict`](SparseConfig::strict) mode
//! buys those verdicts back by re-checking borderline rejections through
//! un-pruned contributions.
//!
//! All stored values, dropped masses and exact re-checks are inflated by a
//! relative `1e-12` so that the conservativeness guarantee survives the
//! last-ulp divergence between this module's position-based arithmetic and
//! the naive evaluator's metric-based arithmetic (identical for
//! [`EuclideanSpace<2>`](oblisched_metric::EuclideanSpace), one ulp apart
//! for [`LineMetric`](oblisched_metric::LineMetric)).
//!
//! [`SparseGainMatrix`] is batch-only: grid aggregates, rows and pads are
//! built once and never change. Dynamic sessions use the
//! [`churn`] submodule's [`SparseChurnMatrix`], which keeps the same cutoff
//! and stored entries under arrivals and departures, with no grid and an
//! exact fixed-point dropped-mass pad per row.
//!
//! # Example
//!
//! ```
//! use oblisched_metric::LineMetric;
//! use oblisched_sinr::engine::sparse::{SparseConfig, SparseGainMatrix};
//! use oblisched_sinr::{ColorAccumulator, Instance, InterferenceSystem, ObliviousPower,
//!     Request, SinrParams, Variant};
//!
//! let metric = LineMetric::new(vec![0.0, 1.0, 50.0, 51.0, 100.0, 101.0]);
//! let instance = Instance::new(
//!     metric,
//!     vec![Request::new(0, 1), Request::new(2, 3), Request::new(4, 5)],
//! )?;
//! let eval = instance.evaluator(SinrParams::new(3.0, 1.0)?, &ObliviousPower::SquareRoot);
//! let view = eval.view(Variant::Bidirectional);
//! let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
//!
//! let mut class = ColorAccumulator::new(&sparse);
//! for i in 0..3 {
//!     if class.try_insert(i) {
//!         // Conservative: whatever the sparse backend accepts, the naive
//!         // evaluator accepts too.
//!         assert!(view.is_feasible(class.members()));
//!     }
//! }
//! # Ok::<(), oblisched_sinr::SinrError>(())
//! ```

use super::{
    approx_f64, item_id, item_index, GainBackend, IncrementalSystem, RowRef, SparseEntry, MAX_PORTS,
};
use crate::feasibility::{InterferenceSystem, Variant, VariantView};
use crate::params::SinrParams;
use oblisched_metric::{MetricSpace, PlanarMetric};

pub mod churn;

pub use churn::SparseChurnMatrix;

/// Relative inflation applied to every stored contribution, dropped-mass
/// bound and exact re-check, so conservativeness survives last-ulp
/// divergence from the naive evaluator's arithmetic.
const SAFETY: f64 = 1.0 + 1e-12;

/// Side length of a supertile, in tiles. Far-field pruning first tries to
/// discard a whole supertile through its aggregate bounds and only descends
/// to individual tiles near the cutoff boundary, which keeps the per-row
/// build cost at `O(supertiles + boundary tiles + near entries)`.
const SUPER: usize = 4;

/// A specialised path-loss evaluator: `d^α` through plain multiplications
/// for the integer exponents the experiments use (`powf` costs ~10× a
/// multiply, and the build evaluates millions of losses). The ulp-level
/// divergence from [`SinrParams::loss`]'s `powf` is covered by the
/// [`SAFETY`] inflation, so conservativeness is unaffected.
#[derive(Debug, Clone, Copy)]
enum FastLoss {
    One,
    Two,
    Three,
    Four,
    General(f64),
}

impl FastLoss {
    fn for_alpha(alpha: f64) -> FastLoss {
        if alpha == 1.0 {
            FastLoss::One
        } else if alpha == 2.0 {
            FastLoss::Two
        } else if alpha == 3.0 {
            FastLoss::Three
        } else if alpha == 4.0 {
            FastLoss::Four
        } else {
            FastLoss::General(alpha)
        }
    }

    /// `d^α` from the *squared* distance, saving the square root where the
    /// exponent allows it.
    #[inline]
    fn loss_sq(&self, d_sq: f64) -> f64 {
        match *self {
            FastLoss::One => d_sq.sqrt(),
            FastLoss::Two => d_sq,
            FastLoss::Three => d_sq * d_sq.sqrt(),
            FastLoss::Four => d_sq * d_sq,
            FastLoss::General(alpha) => d_sq.powf(alpha * 0.5),
        }
    }

    /// `p / d^α` from the squared distance, infinite at distance zero
    /// (matching [`SinrParams::received_strength`]).
    #[inline]
    fn strength_sq(&self, power: f64, d_sq: f64) -> f64 {
        let loss = self.loss_sq(d_sq);
        if loss == 0.0 {
            f64::INFINITY
        } else {
            power / loss
        }
    }
}

/// Construction knobs of the [`SparseGainMatrix`].
///
/// Serializable so a `SolveRequest` (in `oblisched`) can pin a sparse
/// profile as data.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SparseConfig {
    /// Per-row cutoff as a fraction of the row's interference budget
    /// (`signal / β`): contributions below `cutoff_fraction · signal(i) / β`
    /// are dropped from row `i` and covered by the dropped-mass bound.
    /// `0.0` disables pruning (every pair is stored — the dense verdicts at
    /// sparse prices, useful for testing). Default `1e-3`.
    pub cutoff_fraction: f64,
    /// Target number of grid entries (interfering endpoints) per tile; the
    /// tile side is derived from it and the deployment's density. The churn
    /// backend has no grid and ignores it. Default `8.0`.
    pub tile_occupancy: f64,
    /// When `true`, borderline verdicts (rejected with the dropped-mass pad,
    /// accepted without it) are settled by re-checking the class through
    /// un-pruned contributions (`O(|class|²)` per borderline). Recovers
    /// most of the colors conservativeness costs. Default `false`.
    pub strict: bool,
    /// When `true` (the default), the two ports of a bidirectional request
    /// are folded into a single row storing `max(port contributions)` per
    /// pair. Since `max_port Σ_j v ≤ Σ_j max_port v`, folded sums
    /// overestimate the worst-port interference — still conservative —
    /// while halving build time, probe cost and memory. Costs some extra
    /// colors on instances where the two endpoints hear very different
    /// interferers; set to `false` for exact per-port rows. Irrelevant for
    /// the directed variant (one port either way).
    pub fold_ports: bool,
    /// Number of threads used to build the rows (`0` = one per available
    /// core). The build output is identical for every thread count. Default
    /// `1`.
    pub build_threads: usize,
}

impl Default for SparseConfig {
    fn default() -> Self {
        Self {
            cutoff_fraction: 1e-3,
            tile_occupancy: 8.0,
            strict: false,
            fold_ports: true,
            build_threads: 1,
        }
    }
}

impl SparseConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cutoff_fraction` is negative or not finite, or if
    /// `tile_occupancy` is not positive and finite.
    fn validate(&self) {
        assert!(
            self.cutoff_fraction.is_finite() && self.cutoff_fraction >= 0.0,
            "cutoff fraction must be finite and non-negative"
        );
        assert!(
            self.tile_occupancy.is_finite() && self.tile_occupancy > 0.0,
            "tile occupancy must be finite and positive"
        );
    }
}

/// One interfering endpoint in the spatial grid: its position, its request
/// and that request's transmission power.
#[derive(Debug, Clone, Copy)]
struct GridEntry {
    pos: [f64; 2],
    item: u32,
    power: f64,
}

/// Axis-aligned bounding box of the entries actually assigned to a tile (or
/// supertile). Distances are measured against this box, never against the
/// nominal tile rectangle, so clamped boundary entries can never make the
/// pruning bound overshoot.
#[derive(Debug, Clone, Copy)]
struct BBox {
    min: [f64; 2],
    max: [f64; 2],
}

impl BBox {
    const EMPTY: BBox = BBox {
        min: [f64::INFINITY; 2],
        max: [f64::NEG_INFINITY; 2],
    };

    fn grow(&mut self, p: [f64; 2]) {
        self.min = [self.min[0].min(p[0]), self.min[1].min(p[1])];
        self.max = [self.max[0].max(p[0]), self.max[1].max(p[1])];
    }

    fn merge(&mut self, other: &BBox) {
        self.min = [self.min[0].min(other.min[0]), self.min[1].min(other.min[1])];
        self.max = [self.max[0].max(other.max[0]), self.max[1].max(other.max[1])];
    }

    /// Lower bound on the *squared* distance from `p` to any point inside
    /// the box (zero when `p` is inside).
    fn distance_sq_from(&self, p: [f64; 2]) -> f64 {
        let dx = (self.min[0] - p[0]).max(p[0] - self.max[0]).max(0.0);
        let dy = (self.min[1] - p[1]).max(p[1] - self.max[1]).max(0.0);
        dx * dx + dy * dy
    }
}

/// The uniform spatial grid over interfering endpoints, with per-tile and
/// per-supertile power aggregates for far-field pruning.
#[derive(Debug)]
struct SpatialGrid {
    cols: usize,
    rows: usize,
    /// CSR layout: entries of tile `t` are `entries[offsets[t]..offsets[t+1]]`.
    offsets: Vec<usize>,
    entries: Vec<GridEntry>,
    tile_bbox: Vec<BBox>,
    tile_power_sum: Vec<f64>,
    tile_power_max: Vec<f64>,
    super_cols: usize,
    super_rows: usize,
    super_bbox: Vec<BBox>,
    super_power_sum: Vec<f64>,
    super_power_max: Vec<f64>,
}

/// Saturating `f64 → usize` for grid sizing and cell coordinates.
///
/// Positions and cell sizes are finite by construction (instances validate
/// their coordinates), and saturation is the *intended* behaviour for
/// degenerate ratios: oversized dimension guesses fail the tile cap and
/// retry with a doubled cell, and cell coordinates are clamped to the grid
/// edge by the callers.
#[inline]
fn grid_index(x: f64) -> usize {
    debug_assert!(!x.is_nan(), "grid arithmetic produced NaN");
    // oblint::allow(lossy-cast-in-engine): saturating by design — see the doc comment above.
    x as usize
}

impl SpatialGrid {
    fn build(points: &[GridEntry], occupancy: f64) -> SpatialGrid {
        let mut bbox = BBox::EMPTY;
        for e in points {
            bbox.grow(e.pos);
        }
        let (width, height) = if points.is_empty() {
            (0.0, 0.0)
        } else {
            (bbox.max[0] - bbox.min[0], bbox.max[1] - bbox.min[1])
        };
        // The tile count must scale with the number of points, never with
        // the spatial extent: collinear point sets (every `LineMetric`
        // instance has y ≡ 0, so zero bounding-box area) fall back to the
        // 1-D density, and the hard cap below bounds the tile table for any
        // geometry — a nested chain spans 2ⁿ length units with only n
        // requests, and an extent-derived grid would try to allocate a tile
        // per unit.
        let area = width * height;
        let cell = if points.is_empty() {
            1.0
        } else {
            let by_area = if area > 0.0 {
                (occupancy * area / approx_f64(points.len())).sqrt()
            } else {
                0.0
            };
            let extent = width.max(height);
            let by_line = if extent > 0.0 {
                occupancy * extent / approx_f64(points.len())
            } else {
                1.0
            };
            by_area.max(by_line).max(1e-9)
        };
        let tile_cap = points.len().saturating_mul(4).max(1024);
        let dims = |cell: f64| -> (usize, usize) {
            // The float→usize conversion saturates, so absurd ratios simply
            // fail the cap check and double the cell again.
            (
                grid_index((width / cell).ceil()).max(1),
                grid_index((height / cell).ceil()).max(1),
            )
        };
        let mut cell = cell;
        let (mut cols, mut rows) = dims(cell);
        while cols.saturating_mul(rows) > tile_cap {
            cell *= 2.0;
            (cols, rows) = dims(cell);
        }
        let tile_of = |pos: [f64; 2]| -> usize {
            let cx = grid_index((pos[0] - bbox.min[0]) / cell).min(cols - 1);
            let cy = grid_index((pos[1] - bbox.min[1]) / cell).min(rows - 1);
            cy * cols + cx
        };

        let num_tiles = cols * rows;
        let mut counts = vec![0usize; num_tiles];
        for e in points {
            counts[tile_of(e.pos)] += 1;
        }
        let mut offsets = Vec::with_capacity(num_tiles + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut entries = vec![
            GridEntry {
                pos: [0.0; 2],
                item: 0,
                power: 0.0
            };
            points.len()
        ];
        let mut tile_bbox = vec![BBox::EMPTY; num_tiles];
        let mut tile_power_sum = vec![0.0f64; num_tiles];
        let mut tile_power_max = vec![0.0f64; num_tiles];
        for e in points {
            let t = tile_of(e.pos);
            entries[cursor[t]] = *e;
            cursor[t] += 1;
            tile_bbox[t].grow(e.pos);
            tile_power_sum[t] += e.power;
            tile_power_max[t] = tile_power_max[t].max(e.power);
        }

        let super_cols = cols.div_ceil(SUPER);
        let super_rows = rows.div_ceil(SUPER);
        let num_super = super_cols * super_rows;
        let mut super_bbox = vec![BBox::EMPTY; num_super];
        let mut super_power_sum = vec![0.0f64; num_super];
        let mut super_power_max = vec![0.0f64; num_super];
        for ty in 0..rows {
            for tx in 0..cols {
                let t = ty * cols + tx;
                if tile_power_sum[t] == 0.0 {
                    continue;
                }
                let s = (ty / SUPER) * super_cols + tx / SUPER;
                super_bbox[s].merge(&tile_bbox[t]);
                super_power_sum[s] += tile_power_sum[t];
                super_power_max[s] = super_power_max[s].max(tile_power_max[t]);
            }
        }

        SpatialGrid {
            cols,
            rows,
            offsets,
            entries,
            tile_bbox,
            tile_power_sum,
            tile_power_max,
            super_cols,
            super_rows,
            super_bbox,
            super_power_sum,
            super_power_max,
        }
    }
}

/// A spatially-pruned contribution cache implementing the engine's
/// [`GainBackend`] contract with conservative pruning accounting.
///
/// Built once per (instance, power assignment, variant) from a
/// [`VariantView`] over a [`PlanarMetric`]; self-contained afterwards (the
/// positions, powers and parameters needed for strict re-checks are copied
/// in). Memory is `O(stored entries)` — at a fixed deployment density and
/// cutoff that is `O(n)`, against the dense matrix's `O(n²)`. See the
/// [module docs](self) for the pruning and conservativeness story.
#[derive(Debug, Clone)]
pub struct SparseGainMatrix {
    n: usize,
    ports: usize,
    variant: Variant,
    /// Whether the bidirectional ports were folded into one row (see
    /// [`SparseConfig::fold_ports`]).
    folded: bool,
    params: SinrParams,
    fast: FastLoss,
    beta: f64,
    strict: bool,
    signals: Vec<f64>,
    powers: Vec<f64>,
    senders: Vec<[f64; 2]>,
    receivers: Vec<[f64; 2]>,
    /// CSR rows in structure-of-arrays form: row `(i, port)` is
    /// `cols[offsets[i * ports + port]..offsets[.. + 1]]` (sorted interferer
    /// indices) with its values in the parallel range of `vals`. The split
    /// packs twice as many indices per cache line as the former interleaved
    /// `Vec<SparseEntry>` and drops the per-entry footprint from 16 to 12
    /// bytes (no padding).
    offsets: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    /// Per-row upper bound on the total dropped contribution mass.
    dropped_mass: Vec<f64>,
    /// Per-row upper bound on any single dropped contribution.
    dropped_cap: Vec<f64>,
}

/// The per-row output of the builder: stored entries plus the dropped-mass
/// accounting of each port.
struct RowData {
    entries: [Vec<SparseEntry>; MAX_PORTS],
    mass: [f64; MAX_PORTS],
    cap: [f64; MAX_PORTS],
}

impl RowData {
    /// The sanctioned per-entry pad update: folds one already
    /// SAFETY-inflated pruned contribution into the port's dropped-mass pad
    /// and cap. Every pad write outside the tile-aggregate bounds must route
    /// through here (`oblint`'s missing-safety-inflation rule), so the
    /// inflation discipline lives in one place.
    #[inline]
    fn pad_absorb(&mut self, port: usize, inflated: f64) {
        // oblint::allow(missing-safety-inflation): `inflated` is SAFETY-inflated by every caller — this helper IS the sanctioned pad entry point.
        self.mass[port] += inflated;
        // oblint::allow(missing-safety-inflation): same contract as the mass update above.
        self.cap[port] = self.cap[port].max(inflated);
    }
}

impl SparseGainMatrix {
    /// Builds the pruned contribution cache of `view` over a planar metric.
    ///
    /// Runs in `O(n · (supertiles + boundary tiles) + stored entries)` time;
    /// with [`build_threads`](SparseConfig::build_threads) > 1 the rows are
    /// computed in parallel (the result is identical for every thread
    /// count).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`SparseConfig`]).
    pub fn build<M: MetricSpace + PlanarMetric>(
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
        let powers: Vec<f64> = eval.powers().to_vec();
        let senders: Vec<[f64; 2]> = (0..n)
            .map(|i| metric.position(instance.request(i).sender))
            .collect();
        let receivers: Vec<[f64; 2]> = (0..n)
            .map(|i| metric.position(instance.request(i).receiver))
            .collect();

        // Grid over the *interfering* endpoints: the sender in the directed
        // variant (only senders create interference there), both endpoints
        // in the bidirectional one (the worst endpoint transmits).
        let mut grid_points: Vec<GridEntry> = Vec::with_capacity(n * ports);
        for i in 0..n {
            grid_points.push(GridEntry {
                pos: senders[i],
                item: item_id(i),
                power: powers[i],
            });
            if variant == Variant::Bidirectional {
                grid_points.push(GridEntry {
                    pos: receivers[i],
                    item: item_id(i),
                    power: powers[i],
                });
            }
        }
        let grid = SpatialGrid::build(&grid_points, config.tile_occupancy);

        let mut matrix = Self {
            n,
            ports,
            variant,
            folded,
            params,
            fast: FastLoss::for_alpha(params.alpha()),
            beta,
            strict: config.strict,
            signals,
            powers,
            senders,
            receivers,
            offsets: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
            dropped_mass: vec![0.0; n * ports],
            dropped_cap: vec![0.0; n * ports],
        };

        let threads = match config.build_threads {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            t => t,
        };
        let rows: Vec<RowData> = if threads <= 1 || n < 2 * threads {
            let mut seen = vec![u32::MAX; n];
            (0..n)
                .map(|i| matrix.build_row(&grid, config, i, &mut seen))
                .collect()
        } else {
            // Work-stealing chunked build: workers claim fixed-size chunks
            // off a shared counter (balancing the load when dense regions
            // make some rows much costlier than others), return
            // `(start, rows)` parts, and the parts are reassembled in index
            // order — the output is identical for every thread count.
            let chunk = n.div_ceil(threads * 8).max(16);
            let next = std::sync::atomic::AtomicUsize::new(0);
            let matrix_ref = &matrix;
            let grid_ref = &grid;
            let next_ref = &next;
            let mut parts: Vec<(usize, Vec<RowData>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(move || {
                            let mut seen = vec![u32::MAX; matrix_ref.n];
                            let mut mine: Vec<(usize, Vec<RowData>)> = Vec::new();
                            loop {
                                let start =
                                    next_ref.fetch_add(chunk, std::sync::atomic::Ordering::Relaxed);
                                if start >= n {
                                    break;
                                }
                                let end = (start + chunk).min(n);
                                let rows = (start..end)
                                    .map(|i| matrix_ref.build_row(grid_ref, config, i, &mut seen))
                                    .collect();
                                mine.push((start, rows));
                            }
                            mine
                        })
                    })
                    .collect();
                let mut parts = Vec::new();
                for h in handles {
                    match h.join() {
                        Ok(mine) => parts.extend(mine),
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
                parts
            });
            parts.sort_unstable_by_key(|&(start, _)| start);
            parts.into_iter().flat_map(|(_, rows)| rows).collect()
        };

        matrix.offsets.reserve(n * ports + 1);
        matrix.offsets.push(0);
        for (i, row) in rows.iter().enumerate() {
            for port in 0..ports {
                for e in &row.entries[port] {
                    matrix.cols.push(e.j);
                    matrix.vals.push(e.v);
                }
                matrix.offsets.push(matrix.cols.len());
                // oblint::allow(missing-safety-inflation): transfers the builder's already-inflated pads into the CSR arrays verbatim.
                matrix.dropped_mass[i * ports + port] = row.mass[port];
                // oblint::allow(missing-safety-inflation): same transfer as the mass above.
                matrix.dropped_cap[i * ports + port] = row.cap[port];
            }
        }
        matrix
    }

    /// Computes the stored entries and dropped-mass accounting of one item's
    /// rows. `seen` is an epoch-stamped scratch array deduplicating requests
    /// whose two endpoints fall into different visited tiles.
    fn build_row(
        &self,
        grid: &SpatialGrid,
        config: &SparseConfig,
        i: usize,
        seen: &mut [u32],
    ) -> RowData {
        let mut row = RowData {
            entries: [Vec::new(), Vec::new()],
            mass: [0.0; MAX_PORTS],
            cap: [0.0; MAX_PORTS],
        };
        let cutoff = config.cutoff_fraction * self.signals[i] / self.beta;
        // One traversal covers every port of the item: the pruning decision
        // uses the closest anchor (conservative for all ports), and visited
        // entries are evaluated for each port at once. Anchors are where
        // interference arrives — independent of folding, which only changes
        // how many rows the values land in.
        let (anchors, num_anchors) = self.traversal_anchors(i);
        let epoch = item_id(i);
        // Adds a (super)tile's aggregate bound to the per-port dropped
        // accounting; returns false when the tile is too close (or too
        // strong) to prune and must be descended into.
        let prune = |row: &mut RowData, bbox: &BBox, power_sum: f64, power_max: f64| -> bool {
            let mut d_sq = [0.0f64; MAX_PORTS];
            let mut d_min = f64::INFINITY;
            for (a, slot) in d_sq.iter_mut().enumerate().take(num_anchors) {
                *slot = bbox.distance_sq_from(anchors[a]);
                d_min = d_min.min(*slot);
            }
            if d_min <= 0.0 {
                return false;
            }
            let worst = SAFETY * self.fast.strength_sq(power_max, d_min);
            if worst >= cutoff {
                return false;
            }
            // Folded rows bound both true ports at once through the closest
            // anchor; per-port rows use their own anchor's distance.
            for (port, &anchor_d) in d_sq.iter().enumerate().take(self.ports) {
                let d = if self.folded { d_min } else { anchor_d };
                row.mass[port] += SAFETY * self.fast.strength_sq(power_sum, d);
                row.cap[port] = row.cap[port].max(SAFETY * self.fast.strength_sq(power_max, d));
            }
            true
        };
        for sy in 0..grid.super_rows {
            for sx in 0..grid.super_cols {
                let s = sy * grid.super_cols + sx;
                if grid.super_power_sum[s] == 0.0 {
                    continue;
                }
                if prune(
                    &mut row,
                    &grid.super_bbox[s],
                    grid.super_power_sum[s],
                    grid.super_power_max[s],
                ) {
                    continue;
                }
                for ty in (sy * SUPER)..((sy + 1) * SUPER).min(grid.rows) {
                    for tx in (sx * SUPER)..((sx + 1) * SUPER).min(grid.cols) {
                        let t = ty * grid.cols + tx;
                        if grid.tile_power_sum[t] == 0.0 {
                            continue;
                        }
                        if prune(
                            &mut row,
                            &grid.tile_bbox[t],
                            grid.tile_power_sum[t],
                            grid.tile_power_max[t],
                        ) {
                            continue;
                        }
                        for e in &grid.entries[grid.offsets[t]..grid.offsets[t + 1]] {
                            let j = item_index(e.item);
                            if j == i || seen[j] == epoch {
                                continue;
                            }
                            seen[j] = epoch;
                            for port in 0..self.ports {
                                let v = SAFETY * self.raw_contribution(i, port, j);
                                if v >= cutoff {
                                    row.entries[port].push(SparseEntry { j: e.item, v });
                                } else {
                                    row.pad_absorb(port, v);
                                }
                            }
                        }
                    }
                }
            }
        }
        for entries in row.entries.iter_mut().take(self.ports) {
            entries.sort_unstable_by_key(|e| e.j);
        }
        row
    }

    /// The positions where interference arrives at item `i` — the receiver
    /// in the directed variant, both endpoints in the bidirectional one —
    /// used by the grid traversal's pruning decisions. Independent of port
    /// folding.
    fn traversal_anchors(&self, i: usize) -> ([[f64; 2]; MAX_PORTS], usize) {
        match self.variant {
            Variant::Directed => ([self.receivers[i], self.receivers[i]], 1),
            Variant::Bidirectional => ([self.senders[i], self.receivers[i]], 2),
        }
    }

    /// The un-pruned contribution of `j` at `port` of `i`, recomputed from
    /// the copied positions with the same arithmetic as the naive evaluator
    /// (Euclidean distance, loss of the closer endpoint in the
    /// bidirectional variant; the worse port when the rows are folded).
    fn raw_contribution(&self, i: usize, port: usize, j: usize) -> f64 {
        if j == i {
            return 0.0;
        }
        // `d^α` is monotone, so the bidirectional min-of-losses equals the
        // loss of the closer endpoint, and the folded max-of-ports equals
        // the loss at the closest (endpoint, anchor) pair.
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

    /// The stored row of `(i, port)`, sorted by interferer index, as
    /// parallel column/value slices.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `port` is out of range.
    pub fn row(&self, i: usize, port: usize) -> RowRef<'_> {
        assert!(port < self.ports, "port {port} out of range");
        let r = i * self.ports + port;
        RowRef {
            cols: &self.cols[self.offsets[r]..self.offsets[r + 1]],
            vals: &self.vals[self.offsets[r]..self.offsets[r + 1]],
        }
    }

    /// Number of stored (non-pruned) contributions across all rows.
    pub fn stored_entries(&self) -> usize {
        self.cols.len()
    }

    /// Number of ports per item.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// The problem variant the matrix was built for.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Approximate heap footprint of the matrix in bytes.
    pub fn bytes(&self) -> usize {
        self.cols.len() * std::mem::size_of::<u32>()
            + self.vals.len() * std::mem::size_of::<f64>()
            + self.offsets.len() * std::mem::size_of::<usize>()
            + (self.dropped_mass.len()
                + self.dropped_cap.len()
                + self.signals.len()
                + self.powers.len())
                * std::mem::size_of::<f64>()
            + (self.senders.len() + self.receivers.len()) * std::mem::size_of::<[f64; 2]>()
    }

    /// Returns a copy with [`strict`](SparseConfig::strict) borderline
    /// re-checking switched on or off.
    pub fn with_strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Whether borderline verdicts are re-checked exactly (the `strict()`
    /// mode).
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    /// The fraction of all `ports · n · (n − 1)` pairs that is stored — the
    /// achieved sparsity, for diagnostics and experiment tables.
    pub fn fill_ratio(&self) -> f64 {
        let total = self.ports * self.n * self.n.saturating_sub(1);
        if total == 0 {
            0.0
        } else {
            approx_f64(self.cols.len()) / approx_f64(total)
        }
    }
}

/// Squared Euclidean distance with the same arithmetic as
/// [`Point::distance_squared`](oblisched_metric::Point::distance_squared).
fn distance_sq(a: [f64; 2], b: [f64; 2]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    dx * dx + dy * dy
}

impl InterferenceSystem for SparseGainMatrix {
    fn len(&self) -> usize {
        self.n
    }

    /// The *conservative* SINR: stored contributions plus the dropped-mass
    /// pad of the row. Never above the exact SINR, so
    /// [`is_feasible`](InterferenceSystem::is_feasible) never accepts a set
    /// the exact system rejects.
    fn sinr(&self, i: usize, others: &[usize]) -> f64 {
        let mut ports = [0.0f64; MAX_PORTS];
        let mut dropped = [0u32; MAX_PORTS];
        for &j in others {
            if j == i {
                continue;
            }
            for (port, slot) in ports.iter_mut().enumerate().take(self.ports) {
                match self.stored_contribution(i, port, j) {
                    Some(v) => *slot += v,
                    None => dropped[port] += 1,
                }
            }
        }
        for (port, slot) in ports.iter_mut().enumerate().take(self.ports) {
            if dropped[port] > 0 {
                let r = i * self.ports + port;
                *slot += self.dropped_mass[r].min(f64::from(dropped[port]) * self.dropped_cap[r]);
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

impl IncrementalSystem for SparseGainMatrix {
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

impl GainBackend for SparseGainMatrix {
    fn stored_contribution(&self, i: usize, port: usize, j: usize) -> Option<f64> {
        if j == i {
            return Some(0.0);
        }
        self.row(i, port).get(item_id(j))
    }

    fn stored_row(&self, i: usize, port: usize) -> Option<RowRef<'_>> {
        Some(self.row(i, port))
    }

    fn pruned_cap(&self, i: usize, port: usize) -> f64 {
        self.dropped_cap[i * self.ports + port]
    }

    fn pruned_mass(&self, i: usize, port: usize) -> f64 {
        self.dropped_mass[i * self.ports + port]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ColorAccumulator;
    use crate::power::ObliviousPower;
    use crate::request::{Instance, Request};
    use oblisched_metric::{EuclideanSpace, LineMetric, Point2};

    fn params() -> SinrParams {
        SinrParams::new(3.0, 1.0).unwrap()
    }

    /// A small planar deployment with a mix of near and far pairs.
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

    fn all_subsets(n: usize) -> Vec<Vec<usize>> {
        (0..1usize << n)
            .map(|mask| (0..n).filter(|&i| mask >> i & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn zero_cutoff_stores_every_pair() {
        let inst = planar_instance();
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        for variant in Variant::all() {
            let view = eval.view(variant);
            // Per-port rows so stored values are comparable one-to-one with
            // the naive contributions.
            let config = SparseConfig {
                cutoff_fraction: 0.0,
                fold_ports: false,
                ..SparseConfig::default()
            };
            let sparse = SparseGainMatrix::build(&view, &config);
            let n = inst.len();
            assert_eq!(sparse.stored_entries(), sparse.ports() * n * (n - 1));
            assert!((sparse.fill_ratio() - 1.0).abs() < 1e-12);
            // Stored values match the naive contributions up to the safety
            // inflation.
            for i in 0..n {
                for port in 0..sparse.ports() {
                    for j in 0..n {
                        let naive = view.contribution(i, port, j);
                        let stored = sparse.stored_contribution(i, port, j).unwrap();
                        if naive.is_finite() {
                            assert!(stored >= naive, "stored must not underestimate");
                            assert!(stored <= naive * (1.0 + 1e-9));
                        } else {
                            assert_eq!(stored, naive);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn verdicts_are_conservative_for_every_subset() {
        let inst = planar_instance();
        for power in ObliviousPower::standard_assignments() {
            let eval = inst.evaluator(params(), &power);
            for variant in Variant::all() {
                let view = eval.view(variant);
                // A crude cutoff so that real pruning happens on this
                // instance.
                let config = SparseConfig {
                    cutoff_fraction: 0.05,
                    ..SparseConfig::default()
                };
                let sparse = SparseGainMatrix::build(&view, &config);
                assert!(sparse.fill_ratio() < 1.0, "the cutoff must actually prune");
                for set in all_subsets(inst.len().min(10)) {
                    if sparse.is_feasible(&set) {
                        assert!(
                            view.is_feasible(&set),
                            "sparse accepted {set:?} under {variant} but naive rejects"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn accumulator_on_sparse_is_conservative() {
        let inst = planar_instance();
        for power in ObliviousPower::standard_assignments() {
            let eval = inst.evaluator(params(), &power);
            for variant in Variant::all() {
                let view = eval.view(variant);
                let config = SparseConfig {
                    cutoff_fraction: 0.05,
                    ..SparseConfig::default()
                };
                let sparse = SparseGainMatrix::build(&view, &config);
                let mut acc = ColorAccumulator::new(&sparse);
                for i in 0..inst.len() {
                    if acc.try_insert(i) {
                        assert!(
                            view.is_feasible(acc.members()),
                            "sparse-accepted class {:?} must be naive-feasible",
                            acc.members()
                        );
                    }
                }
                assert!(!acc.is_empty());
            }
        }
    }

    /// A hand-built borderline: request 1 contributes 0.85 to request 0
    /// (stored), request 2 only ~1.25e-4 (pruned), but a pruned bystander
    /// (request 3, contribution 0.4) sets request 0's dropped cap, so the
    /// conservative pad pushes the padded interference past the budget when
    /// request 2 joins {0, 1} — a verdict only the strict re-check can
    /// settle.
    fn borderline_setup() -> Instance<EuclideanSpace<2>> {
        let d1 = (1.0f64 / 0.85).cbrt();
        let dc = (1.0f64 / 0.4).cbrt();
        let points = vec![
            Point2::xy(0.0, 0.0),      // r0 sender
            Point2::xy(1.0, 0.0),      // r0 receiver
            Point2::xy(1.0 + d1, 0.0), // r1 sender: 0.85 at r0's receiver
            Point2::xy(2.0 + d1, 0.0), // r1 receiver
            Point2::xy(21.0, 0.0),     // r2 sender: ~1.25e-4 at r0's receiver
            Point2::xy(22.0, 0.0),     // r2 receiver
            Point2::xy(1.0, dc),       // r3 sender: 0.4 at r0's receiver
            Point2::xy(1.0, dc + 1.0), // r3 receiver
        ];
        Instance::new(
            EuclideanSpace::from_points(points),
            vec![
                Request::new(0, 1),
                Request::new(2, 3),
                Request::new(4, 5),
                Request::new(6, 7),
            ],
        )
        .unwrap()
    }

    #[test]
    fn strict_mode_recovers_borderline_rejections() {
        let inst = borderline_setup();
        let eval = inst.evaluator(params(), &ObliviousPower::Uniform);
        let view = eval.view(Variant::Directed);
        // Cutoff 0.5 stores the 0.85 contribution and prunes 0.4 and below.
        let config = SparseConfig {
            cutoff_fraction: 0.5,
            ..SparseConfig::default()
        };
        let lax = SparseGainMatrix::build(&view, &config);
        let strict = lax.clone().with_strict(true);
        assert!(strict.is_strict() && !lax.is_strict());
        // The exact system accepts {0, 1, 2}.
        assert!(view.is_feasible(&[0, 1, 2]));
        // The lax backend rejects request 2: the pad (capped by the pruned
        // bystander's 0.4) pretends the pruned member could be that large.
        let mut lax_acc = ColorAccumulator::new(&lax);
        assert!(lax_acc.try_insert(0));
        assert!(lax_acc.try_insert(1));
        assert!(
            !lax_acc.try_insert(2),
            "the conservative pad must reject the borderline"
        );
        // The strict backend settles the same verdict through un-pruned
        // contributions and accepts.
        let mut strict_acc = ColorAccumulator::new(&strict);
        assert!(strict_acc.try_insert(0));
        assert!(strict_acc.try_insert(1));
        assert!(
            strict_acc.try_insert(2),
            "strict must recover the borderline reject"
        );
        assert_eq!(strict_acc.members(), &[0, 1, 2]);
        assert!(view.is_feasible(strict_acc.members()));
    }

    #[test]
    fn line_metric_instances_are_supported() {
        let metric = LineMetric::new(vec![0.0, 1.0, 40.0, 41.5, 200.0, 202.0, 1000.0, 1001.0]);
        let inst = Instance::new(
            metric,
            vec![
                Request::new(0, 1),
                Request::new(2, 3),
                Request::new(4, 5),
                Request::new(6, 7),
            ],
        )
        .unwrap();
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
        assert_eq!(sparse.len(), 4);
        for set in all_subsets(4) {
            if sparse.is_feasible(&set) {
                assert!(view.is_feasible(&set));
            }
        }
    }

    #[test]
    fn parallel_build_is_identical_to_serial() {
        let inst = planar_instance();
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let serial = SparseGainMatrix::build(
            &view,
            &SparseConfig {
                build_threads: 1,
                ..SparseConfig::default()
            },
        );
        for threads in [2usize, 8] {
            let parallel = SparseGainMatrix::build(
                &view,
                &SparseConfig {
                    build_threads: threads,
                    ..SparseConfig::default()
                },
            );
            assert_eq!(parallel.offsets, serial.offsets);
            assert_eq!(parallel.cols, serial.cols);
            assert_eq!(parallel.vals, serial.vals);
            assert_eq!(parallel.dropped_mass, serial.dropped_mass);
            assert_eq!(parallel.dropped_cap, serial.dropped_cap);
        }
    }

    #[test]
    fn accessors_and_footprint() {
        let inst = planar_instance();
        let eval = inst.evaluator(params(), &ObliviousPower::Uniform);
        let view = eval.view(Variant::Bidirectional);
        // A low cutoff so this spread-out instance still stores entries;
        // per-port rows so both ports are visible.
        let config = SparseConfig {
            cutoff_fraction: 1e-7,
            fold_ports: false,
            ..SparseConfig::default()
        };
        let sparse = SparseGainMatrix::build(&view, &config);
        assert_eq!(sparse.ports(), 2);
        let folded = SparseGainMatrix::build(
            &view,
            &SparseConfig {
                cutoff_fraction: 1e-7,
                ..SparseConfig::default()
            },
        );
        assert_eq!(
            folded.ports(),
            1,
            "folding collapses the bidirectional ports"
        );
        assert!(folded.stored_entries() < sparse.stored_entries());
        assert_eq!(sparse.variant(), Variant::Bidirectional);
        assert!(sparse.bytes() > 0);
        assert!(sparse.stored_entries() > 0);
        let directed = SparseGainMatrix::build(&eval.view(Variant::Directed), &config);
        assert_eq!(directed.ports(), 1);
        // Rows are sorted by interferer, with columns and values parallel.
        for i in 0..sparse.len() {
            for port in 0..sparse.ports() {
                let row = sparse.row(i, port);
                assert_eq!(row.cols.len(), row.vals.len());
                assert!(row.cols.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "cutoff fraction")]
    fn negative_cutoff_is_rejected() {
        let inst = planar_instance();
        let eval = inst.evaluator(params(), &ObliviousPower::Uniform);
        let view = eval.view(Variant::Directed);
        let config = SparseConfig {
            cutoff_fraction: -0.1,
            ..SparseConfig::default()
        };
        let _ = SparseGainMatrix::build(&view, &config);
    }

    #[test]
    fn grid_stays_bounded_on_huge_extent_line_geometries() {
        // A nested-chain layout: request i spans [-2^(i+1), 2^(i+1)], so 40
        // requests cover 2^41 length units. The grid must scale with the
        // request count, not the extent — an extent-derived grid would try
        // to allocate terabytes of tiles here.
        let mut coords = Vec::new();
        for i in 0..40 {
            let r = 2f64.powi(i + 1);
            coords.push(-r);
            coords.push(r);
        }
        let metric = LineMetric::new(coords);
        let requests: Vec<Request> = (0..40).map(|i| Request::new(2 * i, 2 * i + 1)).collect();
        let inst = Instance::new(metric, requests).unwrap();
        let eval = inst.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
        assert_eq!(sparse.len(), 40);
        // The footprint stays in the kilobytes, and verdicts stay
        // conservative.
        assert!(
            sparse.bytes() < 1 << 20,
            "grid blew up: {} bytes",
            sparse.bytes()
        );
        for k in 1..=40 {
            let set: Vec<usize> = (0..k).collect();
            if sparse.is_feasible(&set) {
                assert!(view.is_feasible(&set));
            }
        }
    }

    #[test]
    fn grid_stays_bounded_on_long_sparse_lines() {
        // 2000 unit links spread over 340k length units (zero bounding-box
        // area): the 1-D density fallback keeps the tile table proportional
        // to the request count and the build instant.
        let mut coords = Vec::new();
        for i in 0..2000 {
            let base = i as f64 * 170.0;
            coords.push(base);
            coords.push(base + 1.0);
        }
        let metric = LineMetric::new(coords);
        let requests: Vec<Request> = (0..2000).map(|i| Request::new(2 * i, 2 * i + 1)).collect();
        let inst = Instance::new(metric, requests).unwrap();
        let eval = inst.evaluator(params(), &ObliviousPower::Uniform);
        let view = eval.view(Variant::Bidirectional);
        let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
        assert_eq!(sparse.len(), 2000);
        assert!(
            sparse.bytes() < 8 << 20,
            "grid blew up: {} bytes",
            sparse.bytes()
        );
    }

    #[test]
    fn empty_instance_builds_an_empty_matrix() {
        let metric = LineMetric::new(vec![0.0, 1.0]);
        let inst = Instance::new(metric, vec![]).unwrap();
        let eval = inst.evaluator(params(), &ObliviousPower::Uniform);
        let view = eval.view(Variant::Bidirectional);
        let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
        assert!(sparse.is_empty());
        assert_eq!(sparse.stored_entries(), 0);
        assert!(sparse.is_feasible(&[]));
    }
}
