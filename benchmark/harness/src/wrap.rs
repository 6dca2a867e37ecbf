//! Forwarding wrappers that time calls into a layer from outside it.
//!
//! [`TracedBackend`] wraps any [`GainBackend`] and forwards every method of
//! the engine traits — the default methods included — to the wrapped
//! backend, so the scheduler above sees exactly the backend it would see
//! without the wrapper. [`TracedStore`] does the same for a
//! [`SessionStore`]. Both record spans into a [`Tracer`] and keep plain
//! counters; neither changes an argument or a result, which the traced run
//! proves by comparing final fingerprints against an untraced pass.

use crate::trace::Tracer;
use oblisched::durability::{DurabilityError, SessionSnapshot, SessionStore, WalRecord};
use oblisched_sinr::engine::{RowRef, MAX_PORTS};
use oblisched_sinr::{GainBackend, IncrementalSystem, InterferenceSystem};
use std::cell::Cell;

/// Call counters of a [`TracedBackend`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineCounts {
    /// `fold_candidate` calls (candidate-side probes on the member path).
    pub fold_calls: u64,
    /// Members folded across those calls.
    pub fold_members: u64,
    /// Folds that completed without an early reject.
    pub fold_accepts: u64,
    /// `stored_row` calls (row fetches of the row path).
    pub row_fetches: u64,
}

/// A [`GainBackend`] that forwards to `inner`, timing the probe folds and
/// the churn hooks as spans and counting the other calls.
pub struct TracedBackend<'b, 't, B: ?Sized> {
    inner: &'b B,
    tracer: &'t Tracer,
    counts: Cell<EngineCounts>,
}

impl<'b, 't, B: GainBackend + ?Sized> TracedBackend<'b, 't, B> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: &'b B, tracer: &'t Tracer) -> Self {
        TracedBackend {
            inner,
            tracer,
            counts: Cell::new(EngineCounts::default()),
        }
    }

    /// The counters so far.
    pub fn counts(&self) -> EngineCounts {
        self.counts.get()
    }

    fn count(&self, bump: impl FnOnce(&mut EngineCounts)) {
        let mut counts = self.counts.get();
        bump(&mut counts);
        self.counts.set(counts);
    }
}

impl<B: GainBackend + ?Sized> InterferenceSystem for TracedBackend<'_, '_, B> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn sinr(&self, i: usize, others: &[usize]) -> f64 {
        self.inner.sinr(i, others)
    }

    fn beta(&self) -> f64 {
        self.inner.beta()
    }

    fn is_feasible_with_gain(&self, set: &[usize], gain: f64) -> bool {
        self.inner.is_feasible_with_gain(set, gain)
    }

    fn is_feasible(&self, set: &[usize]) -> bool {
        self.inner.is_feasible(set)
    }

    fn max_feasible_gain(&self, set: &[usize]) -> f64 {
        self.inner.max_feasible_gain(set)
    }
}

impl<B: GainBackend + ?Sized> IncrementalSystem for TracedBackend<'_, '_, B> {
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

impl<B: GainBackend + ?Sized> GainBackend for TracedBackend<'_, '_, B> {
    fn stored_contribution(&self, i: usize, port: usize, j: usize) -> Option<f64> {
        self.inner.stored_contribution(i, port, j)
    }

    fn stored_row(&self, i: usize, port: usize) -> Option<RowRef<'_>> {
        self.count(|c| c.row_fetches += 1);
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
        let accepted = self.tracer.span("engine.fold", || {
            self.inner
                .fold_candidate(i, ports, members, limit_hi, acc, dropped)
        });
        self.count(|c| {
            c.fold_calls += 1;
            c.fold_members += members.len() as u64;
            c.fold_accepts += u64::from(accepted);
        });
        accepted
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

    fn note_arrival(&self, item: usize) {
        self.tracer
            .span("engine.note_arrival", || self.inner.note_arrival(item));
    }

    fn note_departure(&self, item: usize) {
        self.tracer
            .span("engine.note_departure", || self.inner.note_departure(item));
    }
}

/// Call counters of a [`TracedStore`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreCounts {
    /// WAL appends.
    pub appends: u64,
    /// Snapshot writes (each one syncs the WAL first in `DiskStore`).
    pub snapshots: u64,
}

/// A [`SessionStore`] that forwards to `inner` and times each call as a
/// span (`store.append`, `store.snapshot`, `store.load_snapshot`,
/// `store.read_tail`).
pub struct TracedStore<'t, S> {
    inner: S,
    tracer: &'t Tracer,
    counts: StoreCounts,
}

impl<'t, S: SessionStore> TracedStore<'t, S> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: S, tracer: &'t Tracer) -> Self {
        TracedStore {
            inner,
            tracer,
            counts: StoreCounts::default(),
        }
    }

    /// The counters so far.
    pub fn counts(&self) -> StoreCounts {
        self.counts
    }
}

impl<S: SessionStore> SessionStore for TracedStore<'_, S> {
    fn append(&mut self, record: &WalRecord) -> Result<(), DurabilityError> {
        self.counts.appends += 1;
        let inner = &mut self.inner;
        self.tracer.span("store.append", || inner.append(record))
    }

    fn write_snapshot(&mut self, snapshot: &SessionSnapshot) -> Result<(), DurabilityError> {
        self.counts.snapshots += 1;
        let inner = &mut self.inner;
        self.tracer
            .span("store.snapshot", || inner.write_snapshot(snapshot))
    }

    fn load_snapshot(&self) -> Result<Option<SessionSnapshot>, DurabilityError> {
        self.tracer
            .span("store.load_snapshot", || self.inner.load_snapshot())
    }

    fn read_tail(&self, from_seq: u64) -> Result<Vec<WalRecord>, DurabilityError> {
        self.tracer
            .span("store.read_tail", || self.inner.read_tail(from_seq))
    }
}
