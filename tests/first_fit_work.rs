//! Host-independent work guard of serial sparse first-fit.
//!
//! Wall times on a shared CI host vary by more than the regressions worth
//! catching, but the number of backend lookups a coloring performs is a pure
//! function of the engine and the instance. A forwarding [`GainBackend`]
//! counts every [`stored_contribution`](GainBackend::stored_contribution)
//! call the accumulators make — the member-side admit scans and the commit
//! updates — during serial first-fit on a seed-pinned sparse instance, and
//! the count must stay under a fixed bound.

use oblisched::greedy::first_fit_coloring;
use oblisched_instances::scaling_uniform;
use oblisched_sinr::engine::{RowRef, MAX_PORTS};
use oblisched_sinr::{
    GainBackend, IncrementalSystem, InterferenceSystem, ObliviousPower, SinrParams, SparseConfig,
    SparseGainMatrix, Variant,
};
use std::cell::Cell;

/// Forwards every backend hook to `inner`, counting `stored_contribution`
/// calls.
struct Counting<'a, S> {
    inner: &'a S,
    lookups: Cell<u64>,
}

impl<S: InterferenceSystem> InterferenceSystem for Counting<'_, S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn sinr(&self, i: usize, others: &[usize]) -> f64 {
        self.inner.sinr(i, others)
    }

    fn beta(&self) -> f64 {
        self.inner.beta()
    }
}

impl<S: IncrementalSystem> IncrementalSystem for Counting<'_, S> {
    fn num_ports(&self) -> usize {
        self.inner.num_ports()
    }

    fn contribution(&self, i: usize, port: usize, j: usize) -> f64 {
        self.inner.contribution(i, port, j)
    }

    fn signal(&self, i: usize) -> f64 {
        self.inner.signal(i)
    }

    fn noise(&self) -> f64 {
        self.inner.noise()
    }
}

impl<S: GainBackend> GainBackend for Counting<'_, S> {
    fn stored_contribution(&self, i: usize, port: usize, j: usize) -> Option<f64> {
        self.lookups.set(self.lookups.get() + 1);
        self.inner.stored_contribution(i, port, j)
    }

    fn stored_row(&self, i: usize, port: usize) -> Option<RowRef<'_>> {
        self.inner.stored_row(i, port)
    }

    fn fold_candidate(
        &self,
        i: usize,
        ports: usize,
        members: &[usize],
        limit_hi: f64,
        acc: &mut [f64; MAX_PORTS],
        dropped: &mut [u32; MAX_PORTS],
    ) -> bool {
        self.inner
            .fold_candidate(i, ports, members, limit_hi, acc, dropped)
    }

    fn pruned_cap(&self, i: usize, port: usize) -> f64 {
        self.inner.pruned_cap(i, port)
    }

    fn pruned_mass(&self, i: usize, port: usize) -> f64 {
        self.inner.pruned_mass(i, port)
    }

    fn is_exact(&self) -> bool {
        self.inner.is_exact()
    }

    fn strict_recheck(&self) -> bool {
        self.inner.strict_recheck()
    }

    fn exact_contribution(&self, i: usize, port: usize, j: usize) -> f64 {
        self.inner.exact_contribution(i, port, j)
    }
}

/// Upper bound on `stored_contribution` lookups of serial first-fit on the
/// instance below. Testing each class's last rejecting member first takes
/// 689 170 lookups (1.3× headroom); scanning every class in member order
/// took 2 963 074.
const MAX_LOOKUPS: u64 = 900_000;

#[test]
fn serial_sparse_first_fit_lookups_stay_bounded() {
    let instance = scaling_uniform(4000, 42);
    let eval = instance.evaluator(
        SinrParams::new(3.0, 1.0).unwrap(),
        &ObliviousPower::SquareRoot,
    );
    let view = eval.view(Variant::Bidirectional);
    let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
    let counting = Counting {
        inner: &sparse,
        lookups: Cell::new(0),
    };
    let schedule = first_fit_coloring(&counting);
    assert_eq!(
        schedule,
        first_fit_coloring(&sparse),
        "the wrapper changed verdicts"
    );
    let lookups = counting.lookups.get();
    // Every commit looks up the new member in each earlier member's row, so
    // a class of `k` members took `ports · k(k−1)/2` commit lookups; the
    // rest are member-side admit scans.
    let ports = sparse.num_ports() as u64;
    let commits: u64 = schedule
        .classes()
        .iter()
        .map(|class| {
            let k = class.len() as u64;
            ports * k * (k - 1) / 2
        })
        .sum();
    eprintln!(
        "serial sparse first-fit, n = 4000: {lookups} stored_contribution lookups \
         ({} admit scans, {commits} commits)",
        lookups - commits
    );
    assert!(
        lookups <= MAX_LOOKUPS,
        "{lookups} stored_contribution lookups exceed the bound {MAX_LOOKUPS}"
    );
}
