//! Shared harness of the backend-tier measurements: the parallel tier as the
//! facade runs it, used by both experiment E11 and the perf suite's
//! `parallel_sparse_*` cases, so the documented table and the gated
//! baseline time exactly what `Scheduler::solve` serves, minus its exact
//! validation.

use oblisched::{parallel_first_fit, tile_shards, ParallelConfig, DEFAULT_TARGET_SHARDS};
use oblisched_metric::{MetricSpace, PlanarMetric};
use oblisched_sinr::feasibility::VariantView;
use oblisched_sinr::{Evaluator, Schedule, SparseConfig, SparseGainMatrix, Variant};

/// The seed every tier measurement pins its instances to.
pub const TIER_SEED: u64 = 42;

/// Runs the parallel tier exactly as `Scheduler::solve` runs a
/// `SolveRequest::parallel(_, num_threads)` request above the dense budget:
/// the default sparse backend built on `num_threads` threads, then
/// tile-sharded first-fit with the default shard slack on `num_threads`
/// workers (`0` = one per core). The facade's exact validation of every
/// class is left to the caller: at `n = 10⁴` it costs about as much as the
/// parallel first-fit itself, and the tier bounds time build plus
/// scheduling. Returns the backend next to the schedule so callers can
/// report its footprint and drop it outside their timed region.
pub fn parallel_tier<M: MetricSpace + PlanarMetric>(
    view: &VariantView<'_, '_, M>,
    num_threads: usize,
) -> (SparseGainMatrix, Schedule) {
    let backend = SparseGainMatrix::build(
        view,
        &SparseConfig {
            build_threads: num_threads,
            ..SparseConfig::default()
        },
    );
    let shards = tile_shards(view.evaluator().instance(), DEFAULT_TARGET_SHARDS);
    let schedule = parallel_first_fit(
        &backend,
        &shards,
        &ParallelConfig::with_threads(num_threads),
    );
    (backend, schedule)
}

/// Counts the multi-member classes of `schedule` that the naive evaluator
/// rejects — E11's "non-conservative" column, asserted zero.
pub fn non_conservative_classes<M: MetricSpace>(
    eval: &Evaluator<'_, M>,
    variant: Variant,
    schedule: &Schedule,
) -> usize {
    schedule
        .classes()
        .iter()
        .filter(|class| class.len() >= 2 && !eval.is_feasible(variant, class))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblisched::scheduler::Scheduler;
    use oblisched::solve::{PowerAssignment, SolveRequest};
    use oblisched_instances::{nested_chain, scaling_uniform};
    use oblisched_sinr::{ObliviousPower, SinrParams};

    #[test]
    fn parallel_tier_schedules_what_the_facade_serves() {
        let params = SinrParams::new(3.0, 1.0).unwrap();
        let instance = scaling_uniform(600, TIER_SEED);
        let eval = instance.evaluator(params, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let scheduler = Scheduler::new(params);
        for threads in [1usize, 2] {
            // A zero budget sends the facade to the sparse tier, as at the
            // sizes E11 and the perf suite measure.
            let request =
                SolveRequest::parallel(PowerAssignment::SquareRoot, threads).with_matrix_budget(0);
            let served = scheduler.solve(&instance, &request).unwrap();
            let (_, schedule) = parallel_tier(&view, threads);
            assert_eq!(schedule, served.schedule, "{threads} threads");
        }
    }

    #[test]
    fn non_conservative_counts_infeasible_classes() {
        let inst = nested_chain(6, 2.0);
        let eval = inst.evaluator(SinrParams::new(3.0, 1.0).unwrap(), &ObliviousPower::Uniform);
        // Everything in one class: under uniform power the nested chain is
        // mutually infeasible, so the single multi-member class counts.
        let bad = Schedule::new(vec![0; 6]);
        assert_eq!(
            non_conservative_classes(&eval, Variant::Bidirectional, &bad),
            1
        );
        // One request per class: nothing to reject.
        let sequential = Schedule::sequential(6);
        assert_eq!(
            non_conservative_classes(&eval, Variant::Bidirectional, &sequential),
            0
        );
    }
}
