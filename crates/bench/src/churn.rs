//! Shared replay loops of the churn workloads — the single definition of
//! "run a trace incrementally" and "run a trace with full reschedules" used
//! by experiment E10, the `churn` criterion bench, and the harness tests, so
//! they all measure exactly the same event loop.

use oblisched::durability::{DurabilityError, DurableScheduler, SessionStore};
use oblisched::dynamic::{DynamicConfig, DynamicScheduler};
use oblisched::first_fit_subset;
use oblisched::scheduler::{
    EngineBackend, EngineStats, Scheduler, SessionBackend, DEFAULT_MATRIX_BUDGET,
};
use oblisched::solve::BackendPolicy;
use oblisched_instances::{ChurnEvent, ChurnTrace};
use oblisched_metric::EuclideanSpace;
use oblisched_server::session::fingerprint64;
use oblisched_sinr::{GainBackend, Instance, ObliviousPower, SinrParams, Variant};

/// Replays a trace through the dynamic scheduler (one `insert`/`remove` per
/// event), returning the final scheduler so callers can validate it and read
/// off colors / live count.
///
/// # Panics
///
/// Panics if the trace is inconsistent with the system (arrivals of live
/// requests, departures of dead ones, items out of range) — impossible for
/// generator-produced traces over their own universe.
pub fn replay_incremental<'s, S: GainBackend + ?Sized>(
    system: &'s S,
    trace: &ChurnTrace,
) -> DynamicScheduler<'s, S> {
    replay_incremental_with(system, trace, |_, _| {})
}

/// [`replay_incremental`] with a hook called after every applied event
/// (receiving the scheduler state and the 0-based event index) — the loop
/// the per-event-validating acceptance test runs is thereby exactly the loop
/// E10 and the `churn` bench time.
///
/// # Panics
///
/// Same trace-consistency contract as [`replay_incremental`].
pub fn replay_incremental_with<'s, S, F>(
    system: &'s S,
    trace: &ChurnTrace,
    mut on_event: F,
) -> DynamicScheduler<'s, S>
where
    S: GainBackend + ?Sized,
    F: FnMut(&DynamicScheduler<'s, S>, usize),
{
    let mut sched = DynamicScheduler::new(system);
    let mut ids = vec![None; trace.universe];
    for (index, event) in trace.events.iter().enumerate() {
        match *event {
            ChurnEvent::Arrive(i) => {
                ids[i] = Some(sched.insert(i).expect("arrivals target dead requests"));
            }
            ChurnEvent::Depart(i) => {
                let id = ids[i].take().expect("departures target live requests");
                sched.remove(id).expect("the id is live");
            }
        }
        on_event(&sched, index);
    }
    sched
}

/// Replays a trace through a [`DurableScheduler`] over a fresh session in
/// `store` — the durable counterpart of [`replay_incremental`], so E10-style
/// traces can run with every event logged and checkpointed. The session is
/// created with `config` and the `checkpoint_every` cadence; the final
/// scheduler is returned still holding its store (use
/// [`into_store`](DurableScheduler::into_store) to recover from it).
///
/// # Errors
///
/// [`DurabilityError::SessionExists`] when `store` already holds a session,
/// plus any logging/checkpointing error.
///
/// # Panics
///
/// Same trace-consistency contract as [`replay_incremental`], and
/// `checkpoint_every` must be at least 1.
pub fn replay_durable<'s, S, St>(
    system: &'s S,
    trace: &ChurnTrace,
    config: DynamicConfig,
    checkpoint_every: usize,
    store: St,
) -> Result<DurableScheduler<'s, S, St>, DurabilityError>
where
    S: GainBackend + ?Sized,
    St: SessionStore,
{
    replay_durable_with(system, trace, config, checkpoint_every, store, |_, _| {})
}

/// [`replay_durable`] with a hook called after every applied event, mirroring
/// [`replay_incremental_with`].
///
/// # Errors
///
/// Same contract as [`replay_durable`].
///
/// # Panics
///
/// Same contract as [`replay_durable`].
pub fn replay_durable_with<'s, S, St, F>(
    system: &'s S,
    trace: &ChurnTrace,
    config: DynamicConfig,
    checkpoint_every: usize,
    store: St,
    mut on_event: F,
) -> Result<DurableScheduler<'s, S, St>, DurabilityError>
where
    S: GainBackend + ?Sized,
    St: SessionStore,
    F: FnMut(&DurableScheduler<'s, S, St>, usize),
{
    let mut session = DurableScheduler::create(system, config, checkpoint_every, store)?;
    let mut ids = vec![None; trace.universe];
    for (index, event) in trace.events.iter().enumerate() {
        match *event {
            ChurnEvent::Arrive(i) => {
                ids[i] = Some(session.insert(i)?);
            }
            ChurnEvent::Depart(i) => {
                let id = ids[i].take().expect("departures target live requests");
                session.remove(id)?;
            }
        }
        on_event(&session, index);
    }
    Ok(session)
}

/// Replays a trace with a full first-fit reschedule of the live set after
/// every event — the baseline the dynamic scheduler is measured against.
/// Returns the color count after the final event.
///
/// # Panics
///
/// Panics if the trace is inconsistent (departure of a dead request).
pub fn replay_full_reschedule<S: GainBackend + ?Sized>(system: &S, trace: &ChurnTrace) -> usize {
    let mut live: Vec<usize> = Vec::new();
    let mut colors = 0usize;
    for event in &trace.events {
        match *event {
            ChurnEvent::Arrive(i) => live.push(i),
            ChurnEvent::Depart(i) => {
                let pos = live
                    .iter()
                    .position(|&x| x == i)
                    .expect("departures target live");
                live.remove(pos);
            }
        }
        colors = first_fit_subset(system, &live).len();
    }
    colors
}

/// The outcome of one large-tier sparse churn replay: the deterministic
/// fields (`universe`, `events`, `final_live`, `colors`) feed the golden
/// snapshot, the timing and footprint fields the E10 table.
#[derive(Debug, Clone)]
pub struct SparseChurnOutcome {
    /// Universe size of the workload.
    pub universe: usize,
    /// Number of replayed events.
    pub events: usize,
    /// Live requests after the final event.
    pub final_live: usize,
    /// Colors of the final schedule.
    pub colors: usize,
    /// Backend footprint in bytes *after* the replay (static per-item
    /// geometry and live set plus every row the session materialised).
    pub backend_bytes: usize,
    /// Wall time of the replay loop in milliseconds.
    pub dyn_ms: f64,
    /// FNV-1a fingerprint of the final live coloring ((item, color) pairs in
    /// color-then-insertion order) — what the perf gate pins bit-for-bit.
    pub schedule_fingerprint: u64,
    /// The facade's backend decision at session-selection time (asserted
    /// sparse for these workloads); E10 records it in the table's structured
    /// engine list.
    pub stats: EngineStats,
}

/// Runs one large-tier churn workload end to end on the facade-selected
/// session backend (square-root assignment, bidirectional): asserts that
/// [`Scheduler::session_backend`] under [`BackendPolicy::Auto`] routes the
/// over-budget universe to the churn-capable sparse tier, replays the trace
/// incrementally, certifies the final state against the naive evaluator,
/// and enforces the engine-budget acceptance bound on the *grown* backend
/// (after every row the session materialised). Shared by experiment E10,
/// the golden snapshot and the release acceptance test so they all measure
/// the same loop.
///
/// # Panics
///
/// Panics if the facade picks a non-sparse tier (the workload is small
/// enough for the dense matrix), if the final state fails naive
/// certification or drift validation, or if the grown backend exceeds the
/// 64 MiB engine budget.
pub fn sparse_churn_outcome(
    instance: &Instance<EuclideanSpace<2>>,
    trace: &ChurnTrace,
    params: SinrParams,
) -> SparseChurnOutcome {
    let eval = instance.evaluator(params, &ObliviousPower::SquareRoot);
    let view = eval.view(Variant::Bidirectional);
    let scheduler = Scheduler::new(params);
    let (backend, stats) = scheduler.session_backend(&view, BackendPolicy::Auto);
    assert_eq!(
        stats.backend,
        EngineBackend::Sparse,
        "large-tier churn workloads must route to the sparse session backend"
    );
    let start = std::time::Instant::now();
    let sched = replay_incremental(&backend, trace);
    let dyn_ms = start.elapsed().as_secs_f64() * 1e3;
    sched
        .validate_against(&view)
        .expect("the final sparse churn state must certify against the naive evaluator");
    sched
        .validate()
        .expect("accumulated sums must stay within drift tolerance");
    let backend_bytes = match &backend {
        SessionBackend::Sparse(s) => s.bytes(),
        _ => unreachable!("the facade tier was asserted sparse above"),
    };
    assert!(
        backend_bytes <= DEFAULT_MATRIX_BUDGET,
        "sparse session backend grew past the engine budget: {backend_bytes} bytes"
    );
    let schedule_fingerprint = fingerprint64(
        sched
            .color_classes()
            .into_iter()
            .enumerate()
            .flat_map(|(color, class)| {
                class
                    .into_iter()
                    .flat_map(move |item| [item as u64, color as u64])
            }),
    );
    SparseChurnOutcome {
        universe: trace.universe,
        events: trace.len(),
        final_live: sched.len(),
        colors: sched.num_colors(),
        backend_bytes,
        dyn_ms,
        schedule_fingerprint,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblisched_instances::churn_uniform;
    use oblisched_sinr::{ObliviousPower, SinrParams, Variant};

    #[test]
    fn durable_replay_matches_the_plain_replay_and_recovers() {
        use oblisched::durability::{DurableScheduler, MemoryStore};
        use oblisched::dynamic::DynamicConfig;
        let (instance, trace) = churn_uniform(40, 24, 100, 5);
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let eval = instance.evaluator(params, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let config = DynamicConfig::default();
        let mut checked = 0usize;
        let session = replay_durable_with(
            &view,
            &trace,
            config,
            7,
            MemoryStore::new(),
            |session, index| {
                assert!(session.next_seq() > index as u64);
                checked += 1;
            },
        )
        .unwrap();
        assert_eq!(checked, trace.len());
        let expected = replay_incremental(&view, &trace).export_state();
        assert_eq!(session.scheduler().export_state(), expected);
        assert!(session.snapshots_written() > (trace.len() / 7) as u64);
        let recovered = DurableScheduler::recover(&view, session.into_store()).unwrap();
        assert_eq!(recovered.scheduler().export_state(), expected);
        recovered.validate().unwrap();
    }

    #[test]
    fn both_replays_cover_the_same_final_live_set() {
        let (instance, trace) = churn_uniform(40, 24, 100, 5);
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let eval = instance.evaluator(params, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let sched = replay_incremental(&view, &trace);
        let mut live = sched.live_items();
        live.sort_unstable();
        assert_eq!(live, trace.final_live());
        sched.validate().unwrap();
        let colors = replay_full_reschedule(&view, &trace);
        assert!(colors >= 1);
    }
}
