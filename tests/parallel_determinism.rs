//! Acceptance tests of the tiered-backend refactor: parallel scheduling is
//! reproducible regardless of thread count, the facade auto-selects the
//! backend by memory budget (and says so through `EngineStats`), and every
//! sparse-tier schedule stays conservative against the naive evaluator.

use oblisched::scheduler::{EngineBackend, Scheduler};
use oblisched::solve::{BackendPolicy, PowerAssignment, SolveRequest};
use oblisched::{first_fit_coloring, parallel_first_fit, tile_shards, ParallelConfig};
use oblisched_instances::{scaling_clustered, scaling_uniform};
use oblisched_sinr::{
    GainMatrix, InterferenceSystem, ObliviousPower, SinrParams, SparseConfig, SparseGainMatrix,
    Variant,
};

fn params() -> SinrParams {
    SinrParams::new(3.0, 1.0).unwrap()
}

/// The issue's determinism criterion: 1, 2 and 8 threads yield identical
/// schedules — on the exact backend and on the sparse one, for uniform and
/// clustered workloads.
#[test]
fn parallel_scheduling_is_identical_across_1_2_and_8_threads() {
    let p = params();
    for (label, inst) in [
        ("uniform", scaling_uniform(400, 7)),
        ("clustered", scaling_clustered(400, 7)),
    ] {
        let eval = inst.evaluator(p, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
        let shards = tile_shards(&inst, oblisched::DEFAULT_TARGET_SHARDS);
        for config in [
            ParallelConfig::default(),
            ParallelConfig {
                shard_gain_slack: 3.0,
                ..ParallelConfig::default()
            },
        ] {
            let reference = parallel_first_fit(
                &view,
                &shards,
                &ParallelConfig {
                    num_threads: 1,
                    ..config
                },
            );
            assert!(reference.validate(&eval, Variant::Bidirectional).is_ok());
            let sparse_reference = parallel_first_fit(
                &sparse,
                &shards,
                &ParallelConfig {
                    num_threads: 1,
                    ..config
                },
            );
            for threads in [2usize, 8] {
                let threaded = ParallelConfig {
                    num_threads: threads,
                    ..config
                };
                assert_eq!(
                    parallel_first_fit(&view, &shards, &threaded),
                    reference,
                    "{label}: exact-backend schedule changed at {threads} threads"
                );
                assert_eq!(
                    parallel_first_fit(&sparse, &shards, &threaded),
                    sparse_reference,
                    "{label}: sparse-backend schedule changed at {threads} threads"
                );
            }
            // Sparse-parallel classes are conservative: the naive evaluator
            // accepts every multi-member class.
            for class in sparse_reference.classes() {
                assert!(
                    class.len() < 2 || view.is_feasible(&class),
                    "{label}: sparse-parallel class {class:?} rejected by the naive evaluator"
                );
            }
        }
    }
}

/// The facade's backend decision is driven by the budget and surfaced in
/// `EngineStats` — never silent.
#[test]
fn facade_auto_selects_backend_by_budget_and_reports_it() {
    let p = params();
    let inst = scaling_uniform(300, 3);
    let dense_bytes = GainMatrix::bytes_for(300, 2);

    let auto = SolveRequest::first_fit(PowerAssignment::SquareRoot);
    let roomy = Scheduler::new(p).solve(&inst, &auto).unwrap();
    assert_eq!(roomy.engine.backend, EngineBackend::Dense);
    assert_eq!(roomy.engine.bytes, dense_bytes);
    assert_eq!(roomy.engine.n, 300);

    let tight = Scheduler::new(p)
        .solve(&inst, &auto.with_matrix_budget(dense_bytes - 1))
        .unwrap();
    assert_eq!(tight.engine.backend, EngineBackend::Sparse);
    assert!(tight.engine.bytes > 0 && tight.engine.bytes < dense_bytes);
    assert_eq!(tight.engine.dense_bytes, dense_bytes);
    assert_eq!(tight.schedule.len(), 300);
    // The stats render a human-readable summary for the experiment logs.
    let line = tight.engine.to_string();
    assert!(
        line.contains("backend=sparse") && line.contains("budget="),
        "stats line: {line}"
    );

    // The exact policy reports its on-the-fly fallback too.
    let uncached = Scheduler::new(p)
        .solve(
            &inst,
            &auto
                .with_backend(BackendPolicy::Exact)
                .with_matrix_budget(0),
        )
        .unwrap();
    assert_eq!(uncached.engine.backend, EngineBackend::OnTheFly);

    // Dense and sparse facade runs agree on instance coverage, and the
    // sparse run costs at most a few extra colors.
    assert!(tight.num_colors() >= roomy.num_colors());
    assert!(tight.num_colors() <= 3 * roomy.num_colors().max(1));
}

/// Parallel solves through the facade: deterministic across thread counts
/// on both sides of the budget boundary.
#[test]
fn facade_parallel_scheduling_is_deterministic_and_validated() {
    let p = params();
    let inst = scaling_uniform(350, 5);
    let dense_bytes = GainMatrix::bytes_for(350, 2);
    for budget in [usize::MAX, dense_bytes - 1] {
        let scheduler = Scheduler::new(p);
        let request = |threads| {
            SolveRequest::parallel(PowerAssignment::SquareRoot, threads).with_matrix_budget(budget)
        };
        let reference = scheduler.solve(&inst, &request(1)).unwrap();
        for threads in [2usize, 8] {
            let run = scheduler.solve(&inst, &request(threads)).unwrap();
            assert_eq!(run.schedule, reference.schedule);
            assert_eq!(run.engine.backend, reference.engine.backend);
        }
    }
}

/// Serial first-fit on the sparse backend and on the exact view produce
/// different-but-conservative colorings; the sparse one never needs fewer
/// colors than exact would certify infeasible (sanity of the tier story on
/// a mid-size instance).
#[test]
fn sparse_first_fit_is_conservative_on_a_mid_size_instance() {
    let p = params();
    let inst = scaling_uniform(500, 11);
    let eval = inst.evaluator(p, &ObliviousPower::SquareRoot);
    let view = eval.view(Variant::Bidirectional);
    let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
    let schedule = first_fit_coloring(&sparse);
    assert_eq!(schedule.len(), 500);
    for class in schedule.classes() {
        assert!(class.len() < 2 || view.is_feasible(&class));
    }
    let exact = first_fit_coloring(&view);
    assert!(schedule.num_colors() >= exact.num_colors());
}
