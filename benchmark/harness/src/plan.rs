//! The workloads' inputs, made from the seed: session scripts and solve
//! jobs, plus the in-process reference answers the outputs are checked
//! against.

use oblisched::dynamic::DynamicScheduler;
use oblisched::scheduler::Scheduler;
use oblisched::solve::{BackendPolicy, PowerAssignment, SolveRequest};
use oblisched_instances::FamilyInstance;
use oblisched_instances::{build_family, churn_trace_for, large_churn_shape, ChurnEvent, Family};
use oblisched_metric::{MetricSpace, PlanarMetric};
use oblisched_server::protocol::{OpenSpec, SolveJob};
use oblisched_server::session::state_fingerprint;
use oblisched_sinr::{Instance, SinrParams, Variant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Durable sessions over a dense-tier universe, a read after every
    /// churn event.
    SessionDense,
    /// Durable sessions over a sparse-tier universe, mostly writes.
    SessionSparse,
    /// Stateless `solve` jobs across the three engine tiers.
    BatchSolve,
}

impl Workload {
    /// Parses the workload name used on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "session_dense" => Some(Workload::SessionDense),
            "session_sparse" => Some(Workload::SessionSparse),
            "batch_solve" => Some(Workload::BatchSolve),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SessionDense => "session_dense",
            Workload::SessionSparse => "session_sparse",
            Workload::BatchSolve => "batch_solve",
        }
    }

    /// The session shape of a session workload.
    pub fn session_shape(self) -> Option<SessionShape> {
        match self {
            Workload::SessionDense => Some(SessionShape::DENSE),
            Workload::SessionSparse => Some(SessionShape::sparse()),
            Workload::BatchSolve => None,
        }
    }
}

/// The shape of one connection's durable session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionShape {
    /// Universe size (family `scaling`).
    pub universe: usize,
    /// Live-count target of the churn trace.
    pub target_live: usize,
    /// Churn events per round.
    pub events: usize,
    /// A `color` read after every this-many churn events.
    pub color_every: usize,
    /// Concurrent connections, each with its own session.
    pub connections: usize,
    /// Churn events per throughput window (the run reports the median
    /// window rate).
    pub window_events: usize,
}

impl SessionShape {
    /// `session_dense`: `n = 1500` fits the dense budget, a quarter live.
    pub const DENSE: SessionShape = SessionShape {
        universe: 1500,
        target_live: 375,
        events: 3000,
        color_every: 1,
        connections: 2,
        window_events: 1000,
    };

    /// `session_sparse`: `n = 10 000`, the `large_churn_shape` trace.
    pub fn sparse() -> SessionShape {
        let (target_live, events) = large_churn_shape(10_000);
        SessionShape {
            universe: 10_000,
            target_live,
            events,
            color_every: 16,
            connections: 2,
            window_events: 1250,
        }
    }

    /// The smaller dense session the traced run of `batch_solve` measures
    /// the session layers on (that workload sends no session requests).
    pub const COMPLEMENT: SessionShape = SessionShape {
        universe: 1000,
        target_live: 250,
        events: 1500,
        color_every: 1,
        connections: 1,
        window_events: 500,
    };
}

/// One scripted session operation, addressed by universe item (the id is
/// whatever the insert of that item returned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert the item.
    Insert(usize),
    /// Remove the item's request.
    Remove(usize),
    /// Read the color of the item's request.
    Color(usize),
}

/// One connection's session: its universe and its script.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// Family seed of the universe (also the trace seed).
    pub seed: u64,
    /// Universe size.
    pub universe: usize,
    /// The script: churn events with reads interleaved.
    pub ops: Vec<Op>,
    /// Churn events in the script.
    pub events: usize,
}

impl SessionPlan {
    /// The `open` spec of this plan under session name `name`: the
    /// daemon's defaults for config and backend, [`CHECKPOINT_EVERY`].
    pub fn open_spec(&self, name: &str) -> OpenSpec {
        OpenSpec {
            name: name.to_owned(),
            family: Family::Scaling,
            n: self.universe,
            seed: self.seed,
            assignment: PowerAssignment::SquareRoot,
            variant: Variant::Bidirectional,
            params: None,
            config: None,
            checkpoint_every: Some(CHECKPOINT_EVERY),
            backend: None,
        }
    }
}

/// Snapshot cadence of every benchmark session (events per checkpoint).
/// The daemon's default is 64, and each snapshot `fsync`s the WAL: 1.6% of
/// writes then wait for a sync, which put `session_dense`'s write p99 at
/// the disk's sync latency (about 1 ms against a p50 of 0.07 ms on ext4),
/// so the tail measured the host's disk rather than the program. At 1024
/// the syncs are a small share of the time, and recovery replays a WAL
/// tail of up to 1023 events.
pub const CHECKPOINT_EVERY: usize = 1024;

/// Seed-made inputs each connection cycles through, one per round: a run
/// then averages over several universes (or job sets) instead of one,
/// since universes differ in how much work they take.
pub const INPUT_SETS: usize = 3;

/// SplitMix64 step: derives independent seeds from the workload seed.
pub fn derive_seed(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Session plan number `index` of `shape` under workload seed `seed`.
pub fn session_plan(shape: SessionShape, seed: u64, tag: u64, index: usize) -> SessionPlan {
    let plan_seed = derive_seed(seed, tag, index as u64) % (1 << 48);
    let trace = churn_trace_for(shape.universe, shape.target_live, shape.events, plan_seed);
    let mut ops = Vec::with_capacity(trace.events.len() * 2);
    let mut live: Vec<usize> = Vec::with_capacity(shape.target_live + 1);
    let mut pick = derive_seed(plan_seed, 0xC0102, 0);
    for (position, event) in trace.events.iter().enumerate() {
        match *event {
            ChurnEvent::Arrive(item) => {
                live.push(item);
                ops.push(Op::Insert(item));
            }
            ChurnEvent::Depart(item) => {
                if let Some(at) = live.iter().position(|&x| x == item) {
                    live.swap_remove(at);
                }
                ops.push(Op::Remove(item));
            }
        }
        if shape.color_every > 0 && (position + 1) % shape.color_every == 0 && !live.is_empty() {
            pick = derive_seed(pick, 1, position as u64);
            ops.push(Op::Color(live[(pick % live.len() as u64) as usize]));
        }
    }
    SessionPlan {
        seed: plan_seed,
        universe: shape.universe,
        ops,
        events: trace.events.len(),
    }
}

/// The final state of a plan replayed in process through a plain
/// `DynamicScheduler` on the backend the daemon would pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// `state_fingerprint` of the final state.
    pub fingerprint: u64,
    /// Colors in use at the end.
    pub colors: usize,
}

/// Replays `plan` in process and returns its final fingerprint.
///
/// # Errors
///
/// Family or scheduling failures.
pub fn expected_session(plan: &SessionPlan) -> Result<Expected, String> {
    match build_family(Family::Scaling, plan.universe, plan.seed).map_err(|e| e.to_string())? {
        FamilyInstance::Planar(inst) => replay(&inst, plan),
        FamilyInstance::Line(inst) => replay(&inst, plan),
    }
}

fn replay<M: MetricSpace + PlanarMetric>(
    instance: &Instance<M>,
    plan: &SessionPlan,
) -> Result<Expected, String> {
    let params = SinrParams::default();
    let power = PowerAssignment::SquareRoot.scheme();
    let eval = instance.evaluator(params, &power);
    let view = eval.view(Variant::Bidirectional);
    let (backend, _) = Scheduler::new(params).session_backend(&view, BackendPolicy::Auto);
    let mut sched = DynamicScheduler::new(&backend);
    let mut ids = vec![None; plan.universe];
    for op in &plan.ops {
        match *op {
            Op::Insert(item) => ids[item] = Some(sched.insert(item).map_err(|e| e.to_string())?),
            Op::Remove(item) => {
                let id = ids[item].take().ok_or("script removes a dead item")?;
                sched.remove(id).map_err(|e| e.to_string())?;
            }
            Op::Color(_) => {}
        }
    }
    Ok(Expected {
        fingerprint: state_fingerprint(&sched.export_state()),
        colors: sched.num_colors(),
    })
}

/// Job set number `set` of `batch_solve`: dense-tier and sparse-tier
/// first-fit, and a parallel solve on `threads` workers.
pub fn batch_jobs(seed: u64, threads: usize, set: usize) -> Vec<SolveJob> {
    let first_fit = SolveRequest::first_fit(PowerAssignment::SquareRoot);
    let parallel = SolveRequest::parallel(PowerAssignment::SquareRoot, threads);
    [
        (1000, first_fit),
        (2000, first_fit),
        (4000, first_fit),
        (10_000, first_fit),
        (20_000, parallel),
    ]
    .iter()
    .enumerate()
    .map(|(index, &(n, request))| SolveJob {
        family: Family::Scaling,
        n,
        seed: derive_seed(seed, 0xBA7C4 + set as u64, index as u64) % (1 << 48),
        request,
        params: None,
    })
    .collect()
}

/// The solve jobs the traced run of a session workload measures the
/// batch layers on: first-fit and a parallel solve over connection 0's
/// universe.
pub fn complement_jobs(plan: &SessionPlan, threads: usize) -> Vec<SolveJob> {
    [
        SolveRequest::first_fit(PowerAssignment::SquareRoot),
        SolveRequest::parallel(PowerAssignment::SquareRoot, threads),
    ]
    .iter()
    .map(|&request| SolveJob {
        family: Family::Scaling,
        n: plan.universe,
        seed: plan.seed,
        request,
        params: None,
    })
    .collect()
}

/// Colors and energy of `job` solved in process by `Scheduler::solve`.
///
/// # Errors
///
/// Family or scheduling failures.
pub fn expected_solve(job: &SolveJob) -> Result<(usize, f64), String> {
    let scheduler = Scheduler::new(job.params.unwrap_or_default());
    let result = match build_family(job.family, job.n, job.seed).map_err(|e| e.to_string())? {
        FamilyInstance::Planar(inst) => scheduler.solve(&inst, &job.request),
        FamilyInstance::Line(inst) => scheduler.solve(&inst, &job.request),
    }
    .map_err(|e| e.to_string())?;
    Ok((result.num_colors(), result.total_energy()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seed_determined() {
        let shape = SessionShape {
            universe: 60,
            target_live: 15,
            events: 80,
            color_every: 2,
            connections: 1,
            window_events: 40,
        };
        let a = session_plan(shape, 7, 1, 0);
        let b = session_plan(shape, 7, 1, 0);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.events, 80);
        assert_eq!(a.ops.len(), 120);
        let other = session_plan(shape, 8, 1, 0);
        assert_ne!(a.ops, other.ops);
        assert_ne!(session_plan(shape, 7, 1, 1).ops, a.ops);
    }
}
