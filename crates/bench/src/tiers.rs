//! Shared harness of the backend-tier measurements: the one tuning profile
//! used by both experiment E11 and the `sparse` criterion bench, so the
//! documented table and the CI assertions can never drift onto different
//! configurations (the same convention the churn replay helpers establish
//! for E10).

use oblisched::ParallelConfig;
use oblisched_sinr::{Evaluator, Schedule, SparseConfig, Variant};

/// The seed every tier measurement pins its instances to.
pub const TIER_SEED: u64 = 42;

/// The sparse backend profile of the parallel tier: a slightly coarser
/// cutoff than the serial default — the sharded scheduler re-validates
/// through the engine anyway, and the cheaper backend is what lets it beat
/// the dense engine's wall time.
pub fn parallel_tier_sparse_config() -> SparseConfig {
    SparseConfig {
        cutoff_fraction: 2e-3,
        ..SparseConfig::default()
    }
}

/// The parallel-scheduler profile of the tier measurements: the default
/// shard target with a larger gain slack (locally looser classes merge into
/// fewer layers).
pub fn parallel_tier_config(num_threads: usize) -> ParallelConfig {
    ParallelConfig {
        num_threads,
        shard_gain_slack: 3.0,
    }
}

/// Counts the multi-member classes of `schedule` that the naive evaluator
/// rejects — the tier measurements' "non-conservative" column, asserted
/// zero by E11 and the `sparse` bench alike.
pub fn non_conservative_classes<M: oblisched_metric::MetricSpace>(
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
    use oblisched_instances::nested_chain;
    use oblisched_sinr::{ObliviousPower, SinrParams};

    #[test]
    fn profile_accessors_are_consistent() {
        assert_eq!(parallel_tier_config(8).num_threads, 8);
        assert!(parallel_tier_config(1).shard_gain_slack >= 1.0);
        assert!(parallel_tier_sparse_config().cutoff_fraction > 0.0);
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
