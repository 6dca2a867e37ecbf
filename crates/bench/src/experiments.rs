//! The experiments E1–E11: one per quantitative claim of the paper, plus the
//! E9 scaling measurement of the incremental interference engine, the E10
//! churn comparison of the dynamic scheduler, and the E11 backend-tier
//! comparison (dense vs sparse vs parallel-sparse).

use crate::table::Table;
use crate::tiers::TIER_SEED;
use oblisched::scheduler::{ScheduleResult, Scheduler};
use oblisched::solve::{BackendPolicy, SolveRequest};
use oblisched::{
    decay_classes, exact_chromatic_number, first_fit_coloring, sqrt_coloring, star_sqrt_subset,
    SqrtColoringConfig,
};
use oblisched_instances::{
    adversarial_for, clustered_deployment, max_supported_n, nested_chain, uniform_deployment,
    DeploymentConfig,
};
use oblisched_metric::{
    DominatingTreeFamily, EmbeddingConfig, EuclideanSpace, MetricSpace, PlanarMetric, Point2,
    StarMetric,
};
use oblisched_sinr::{
    extract_feasible_subset, rescale_coloring, Instance, NodeLossInstance, ObliviousPower,
    PowerScheme, Schedule, SinrParams, Variant,
};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Identifier of an experiment in the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Theorem 1: oblivious assignments need Ω(n) colors on adversarial
    /// directed instances; power control needs O(1).
    E1,
    /// §1.2: the nested chain separates uniform/linear from the square root.
    E2,
    /// Theorem 15: quality of the LP coloring vs greedy and the exact optimum.
    E3,
    /// Theorem 2: colors of the square-root assignment on instances with
    /// known O(1) optimum, as n grows.
    E4,
    /// Propositions 3/4: gain rescaling — kept fraction and color blow-up.
    E5,
    /// Lemma 5: fraction of star nodes kept by the square-root assignment.
    E6,
    /// Lemma 6: dominating tree families — stretch and core statistics.
    E7,
    /// §6: directed simulation of bidirectional schedules and the
    /// energy/colors trade-off of oblivious assignments.
    E8,
    /// Scaling: first-fit wall time and colors, incremental engine vs the
    /// naive evaluator, across growing n (identical colorings asserted, and
    /// a >=10x speedup at uniform n=5000).
    E9,
    /// Churn: the dynamic scheduler's incremental maintenance vs a full
    /// reschedule per event, across power assignments (colors, per-event
    /// latency, total wall time; a >=3x speedup asserted at n=1500).
    E10,
    /// Backend tiers: dense `GainMatrix` at its budget ceiling (n=2000) vs
    /// the spatially-pruned sparse backend and the facade's parallel tier
    /// at n=10000, with conservativeness validated against the naive
    /// evaluator and the tier wall-time bounds asserted.
    E11,
}

impl Experiment {
    /// Parses an experiment id such as `"e3"` or `"E3"`.
    pub fn parse(s: &str) -> Option<Experiment> {
        match s.to_ascii_lowercase().as_str() {
            "e1" => Some(Experiment::E1),
            "e2" => Some(Experiment::E2),
            "e3" => Some(Experiment::E3),
            "e4" => Some(Experiment::E4),
            "e5" => Some(Experiment::E5),
            "e6" => Some(Experiment::E6),
            "e7" => Some(Experiment::E7),
            "e8" => Some(Experiment::E8),
            "e9" => Some(Experiment::E9),
            "e10" => Some(Experiment::E10),
            "e11" => Some(Experiment::E11),
            _ => None,
        }
    }
}

/// All experiments in order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment::E1,
        Experiment::E2,
        Experiment::E3,
        Experiment::E4,
        Experiment::E5,
        Experiment::E6,
        Experiment::E7,
        Experiment::E8,
        Experiment::E9,
        Experiment::E10,
        Experiment::E11,
    ]
}

/// Runs one experiment and returns its table.
pub fn run_experiment(exp: Experiment) -> Table {
    match exp {
        Experiment::E1 => e1_adversarial_directed(),
        Experiment::E2 => e2_nested_chain(),
        Experiment::E3 => e3_lp_coloring_quality(),
        Experiment::E4 => e4_sqrt_vs_known_optimum(),
        Experiment::E5 => e5_gain_rescaling(),
        Experiment::E6 => e6_star_fraction(),
        Experiment::E7 => e7_tree_embeddings(),
        Experiment::E8 => e8_directed_simulation_and_energy(),
        Experiment::E9 => e9_scaling_engine(),
        Experiment::E10 => e10_dynamic_churn(),
        Experiment::E11 => e11_backend_tiers(),
    }
}

fn params() -> SinrParams {
    SinrParams::new(3.0, 1.0).expect("valid parameters")
}

/// Runs one typed request through the facade — the experiments treat every
/// job as well-formed, so the typed error becomes a panic with context.
fn solve<M: MetricSpace + PlanarMetric + Sync>(
    scheduler: &Scheduler,
    instance: &Instance<M>,
    request: &SolveRequest,
) -> ScheduleResult {
    scheduler
        .solve(instance, request)
        .unwrap_or_else(|e| panic!("experiment solve failed: {e}"))
}

fn random_instance(seed: u64, n: usize) -> Instance<EuclideanSpace<2>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    uniform_deployment(
        DeploymentConfig {
            num_requests: n,
            side: 40.0 * (n as f64).sqrt(),
            min_link: 1.0,
            max_link: 15.0,
        },
        &mut rng,
    )
}

/// E9's acceptance bound: at uniform `n = 5000` the incremental engine is
/// at least this many times faster than the naive evaluator.
pub const ENGINE_MIN_SPEEDUP: f64 = 10.0;

/// E10's acceptance bound: on the `n = 1500` churn trace incremental
/// maintenance is at least this many times faster than a full reschedule
/// per event.
pub const CHURN_MIN_SPEEDUP: f64 = 3.0;

/// E11's acceptance bound: each parallel-sparse run is at least this many
/// times faster than serial first-fit on the same backend.
pub const PARALLEL_MIN_SPEEDUP: f64 = 2.0;

/// `Ok` when `fast_ms` is at least `factor` times faster than `slow_ms`; a
/// NaN timing fails. E9 and E10 hold their acceptance bounds through it.
pub fn speedup_bound(what: &str, slow_ms: f64, fast_ms: f64, factor: f64) -> Result<(), String> {
    if slow_ms >= factor * fast_ms {
        Ok(())
    } else {
        Err(format!(
            "{what}: {:.2}x ({slow_ms:.1} ms vs {fast_ms:.1} ms), need >= {factor}x",
            slow_ms / fast_ms
        ))
    }
}

/// How many interleaved rounds E11 times each tier; every row reports its
/// best round.
pub const E11_ROUNDS: usize = 7;

/// E11's acceptance bounds over wall times: `dense_ms` is the dense tier at
/// its `n = 2000` ceiling, `serial_ms` serial first-fit on the parallel
/// tier's backend, and `par_ms` the 1- and 8-thread parallel runs at
/// `n = 10⁴`. The best parallel run must beat the dense run, and each
/// parallel run must be [`PARALLEL_MIN_SPEEDUP`]× faster than serial.
pub fn tier_bounds(dense_ms: f64, serial_ms: f64, par_ms: [f64; 2]) -> Result<(), String> {
    let best = par_ms[0].min(par_ms[1]);
    // Written so that a NaN timing fails the bound.
    let beats_dense = best < dense_ms;
    if !beats_dense {
        return Err(format!(
            "best parallel-sparse run ({best:.1} ms) must beat dense n=2000 ({dense_ms:.1} ms)"
        ));
    }
    for (threads, ms) in [(1, par_ms[0]), (8, par_ms[1])] {
        speedup_bound(
            &format!("parallel-sparse ({threads}t) vs serial sparse on the same backend"),
            serial_ms,
            ms,
            PARALLEL_MIN_SPEEDUP,
        )?;
    }
    Ok(())
}

/// E1 — Theorem 1: Ω(n) vs O(1) on adversarial directed instances.
pub fn e1_adversarial_directed() -> Table {
    let p = params();
    let mut table = Table::new(
        "E1",
        "Theorem 1: oblivious assignments vs power control on adversarial directed instances",
        vec![
            "target assignment",
            "n",
            "colors (target oblivious)",
            "colors (power control)",
        ],
    );
    let scheduler = Scheduler::new(p);
    for power in ObliviousPower::standard_assignments() {
        let cap = max_supported_n(&power, &p);
        for &n in &[4usize, 8, 16, 32, 64] {
            if n > cap {
                continue;
            }
            let adv = adversarial_for(&power, &p, n);
            let oblivious = solve(
                &scheduler,
                adv.instance(),
                &SolveRequest::first_fit(power.into())
                    .with_backend(BackendPolicy::Exact)
                    .with_variant(Variant::Directed),
            );
            let optimal = solve(
                &scheduler,
                adv.instance(),
                &SolveRequest::power_control().with_variant(Variant::Directed),
            );
            table.push_row(vec![
                power.name(),
                n.to_string(),
                oblivious.num_colors().to_string(),
                optimal.num_colors().to_string(),
            ]);
        }
    }
    table.push_note("alpha = 3, beta = 1; the square-root construction is doubly exponential, so only small n fit in f64");
    table.push_note("paper prediction: the oblivious column grows linearly in n, the power-control column stays O(1)");
    table
}

/// E2 — §1.2: the nested chain.
pub fn e2_nested_chain() -> Table {
    let p = params();
    let mut table = Table::new(
        "E2",
        "§1.2: colors needed on the nested chain u_i = -2^i, v_i = 2^i (bidirectional, first-fit)",
        vec!["n", "uniform", "linear", "sqrt", "one-shot capacity (sqrt)"],
    );
    for &n in &[4usize, 8, 16, 24, 32] {
        let instance = nested_chain(n, 2.0);
        let mut row = vec![n.to_string()];
        for power in ObliviousPower::standard_assignments() {
            let eval = instance.evaluator(p, &power);
            let schedule = first_fit_coloring(&eval.view(Variant::Bidirectional));
            row.push(schedule.num_colors().to_string());
        }
        let eval = instance.evaluator(p, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let all: Vec<usize> = (0..n).collect();
        row.push(oblisched::greedy_one_shot(&view, &all).len().to_string());
        table.push_row(row);
    }
    table.push_note("paper prediction: uniform and linear grow ~n, sqrt stays O(1); the sqrt one-shot capacity grows ~n/4");
    table
}

/// E3 — Theorem 15: LP coloring vs greedy vs exact optimum.
pub fn e3_lp_coloring_quality() -> Table {
    let p = params();
    let mut table = Table::new(
        "E3",
        "Theorem 15: LP-rounding coloring for the sqrt assignment vs greedy and the exact optimum",
        vec![
            "n",
            "seeds",
            "greedy (avg)",
            "lp (avg)",
            "exact (avg, n<=10)",
            "lp / exact",
        ],
    );
    for &n in &[8usize, 10, 16, 32, 64] {
        let seeds: Vec<u64> = (0..3).map(|s| 1000 + s * 97 + n as u64).collect();
        let mut greedy_sum = 0.0;
        let mut lp_sum = 0.0;
        let mut exact_sum = 0.0;
        let mut exact_count = 0usize;
        for &seed in &seeds {
            let instance = random_instance(seed, n);
            let eval = instance.evaluator(p, &ObliviousPower::SquareRoot);
            let view = eval.view(Variant::Bidirectional);
            let greedy = first_fit_coloring(&view);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdead);
            let lp = sqrt_coloring(&instance, &p, &SqrtColoringConfig::default(), &mut rng);
            greedy_sum += greedy.num_colors() as f64;
            lp_sum += lp.num_colors() as f64;
            if n <= 10 {
                let (optimum, _) = exact_chromatic_number(&view);
                exact_sum += optimum as f64;
                exact_count += 1;
            }
        }
        let k = seeds.len() as f64;
        let exact_avg = if exact_count > 0 {
            exact_sum / exact_count as f64
        } else {
            f64::NAN
        };
        let ratio = if exact_count > 0 {
            lp_sum / k / exact_avg
        } else {
            f64::NAN
        };
        table.push_row(vec![
            n.to_string(),
            seeds.len().to_string(),
            format!("{:.2}", greedy_sum / k),
            format!("{:.2}", lp_sum / k),
            if exact_count > 0 {
                format!("{exact_avg:.2}")
            } else {
                "-".to_string()
            },
            if exact_count > 0 {
                format!("{ratio:.2}")
            } else {
                "-".to_string()
            },
        ]);
    }
    table.push_note("random uniform deployments, alpha = 3, beta = 1");
    table.push_note("paper prediction: lp / exact stays O(log n) — in practice a small constant");
    table
}

/// E4 — Theorem 2: sqrt colors on instances whose optimum is O(1) by
/// construction.
pub fn e4_sqrt_vs_known_optimum() -> Table {
    let p = params();
    let mut table = Table::new(
        "E4",
        "Theorem 2: sqrt-assignment schedule length on instances with O(1)-color optima",
        vec![
            "family",
            "n",
            "sqrt colors (greedy)",
            "sqrt colors (lp)",
            "power-control colors",
        ],
    );
    let scheduler = Scheduler::new(p);
    let first_fit_sqrt = SolveRequest::first_fit(ObliviousPower::SquareRoot.into())
        .with_backend(BackendPolicy::Exact);
    for &n in &[8usize, 16, 32, 64] {
        let chain = nested_chain(n, 2.0);
        let greedy = solve(&scheduler, &chain, &first_fit_sqrt);
        let lp = solve(&scheduler, &chain, &SolveRequest::sqrt_coloring(n as u64));
        let pc = solve(&scheduler, &chain, &SolveRequest::power_control());
        table.push_row(vec![
            "nested chain".to_string(),
            n.to_string(),
            greedy.num_colors().to_string(),
            lp.num_colors().to_string(),
            pc.num_colors().to_string(),
        ]);
    }
    let cap = max_supported_n(&ObliviousPower::Uniform, &p);
    for &n in &[8usize, 16, 32] {
        if n > cap {
            continue;
        }
        let adv = adversarial_for(&ObliviousPower::Uniform, &p, n);
        let instance = adv.instance();
        let greedy = solve(&scheduler, instance, &first_fit_sqrt);
        let lp = solve(
            &scheduler,
            instance,
            &SolveRequest::sqrt_coloring(n as u64 ^ 0xff),
        );
        let pc = solve(&scheduler, instance, &SolveRequest::power_control());
        table.push_row(vec![
            "uniform-adversarial".to_string(),
            n.to_string(),
            greedy.num_colors().to_string(),
            lp.num_colors().to_string(),
            pc.num_colors().to_string(),
        ]);
    }
    table.push_note("both families have O(1)-color schedules under non-oblivious powers (last column approximates them)");
    table.push_note("paper prediction: the sqrt columns stay polylog(n) — empirically flat in n");
    table
}

/// E5 — Propositions 3/4: gain rescaling.
pub fn e5_gain_rescaling() -> Table {
    let p = params();
    let mut table = Table::new(
        "E5",
        "Propositions 3/4: extracting stricter-gain subsets and rescaled colorings",
        vec![
            "n",
            "gamma'/gamma",
            "kept fraction",
            "bound gamma/(8 gamma')",
            "rescaled colors",
            "bound O(g'/g log n)",
        ],
    );
    for &n in &[16usize, 32, 64] {
        for &factor in &[2.0f64, 4.0, 8.0] {
            let instance = random_instance(7 + n as u64, n);
            let eval = instance.evaluator(p, &ObliviousPower::SquareRoot);
            let view = eval.view(Variant::Bidirectional);
            // Start from the greedy coloring at the base gain.
            let base = first_fit_coloring(&view);
            let gamma = p.beta();
            let gamma_prime = gamma * factor;
            // Kept fraction of the largest base class.
            let largest = base
                .classes()
                .into_iter()
                .max_by_key(|c| c.len())
                .unwrap_or_default();
            let kept = extract_feasible_subset(&view, &largest, gamma_prime);
            let fraction = if largest.is_empty() {
                1.0
            } else {
                kept.len() as f64 / largest.len() as f64
            };
            let rescaled = rescale_coloring(&view, &base, gamma_prime);
            let bound_colors = (factor * (n as f64).log2()).ceil() * base.num_colors() as f64;
            table.push_row(vec![
                n.to_string(),
                format!("{factor:.0}"),
                format!("{fraction:.2}"),
                format!("{:.3}", gamma / (8.0 * gamma_prime)),
                rescaled.num_colors().to_string(),
                format!("{bound_colors:.0}"),
            ]);
        }
    }
    table.push_note(
        "kept fraction is measured on the largest color class of the greedy base coloring",
    );
    table.push_note("paper prediction: kept fraction >= gamma/(8 gamma'); rescaled colors <= O(gamma'/gamma log n) x base colors");
    table
}

/// E6 — Lemma 5: stars.
pub fn e6_star_fraction() -> Table {
    let p = params();
    let mut table = Table::new(
        "E6",
        "Lemma 5: fraction of star nodes kept by the square-root assignment",
        vec!["n", "star type", "gamma", "kept fraction", "decay classes"],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    for &n in &[32usize, 128, 512] {
        // Balanced stars (loss parameter = decay) and skewed stars (random
        // loss parameters).
        let radii: Vec<f64> = (0..n).map(|i| 1.5f64.powi((i % 40) as i32)).collect();
        let balanced_losses: Vec<f64> = radii.iter().map(|r| r.powi(3)).collect();
        let skewed_losses: Vec<f64> = (0..n)
            .map(|_| 10f64.powf(rng.gen_range(0.0..6.0)))
            .collect();
        for (kind, losses) in [("balanced", balanced_losses), ("skewed", skewed_losses)] {
            let star = StarMetric::new(radii.clone());
            let classes = decay_classes(&star, p.alpha()).len();
            let instance = NodeLossInstance::new(star, losses).expect("positive losses");
            for &gamma in &[0.25f64, 1.0] {
                let kept = star_sqrt_subset(&instance, &p, gamma);
                table.push_row(vec![
                    n.to_string(),
                    kind.to_string(),
                    format!("{gamma:.2}"),
                    format!("{:.2}", kept.len() as f64 / n as f64),
                    classes.to_string(),
                ]);
            }
        }
    }
    table.push_note("paper prediction: the kept fraction approaches 1 as gamma shrinks relative to the gain at which the star is feasible");
    table
}

/// E7 — Lemma 6: dominating tree families.
pub fn e7_tree_embeddings() -> Table {
    let mut table = Table::new(
        "E7",
        "Lemma 6: dominating tree families — stretch and core statistics (FRT embeddings)",
        vec![
            "n",
            "trees",
            "avg stretch",
            "max stretch",
            "stretch threshold",
            "min core fraction",
        ],
    );
    for &n in &[16usize, 64, 256] {
        let mut rng = ChaCha8Rng::seed_from_u64(5 + n as u64);
        let points: Vec<Point2> = (0..n)
            .map(|_| Point2::xy(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let space = EuclideanSpace::from_points(points);
        let family = DominatingTreeFamily::build(&space, EmbeddingConfig::default(), &mut rng);
        let mut stretches = Vec::new();
        for tree in family.trees() {
            for v in 0..n {
                stretches.push(tree.max_stretch_at(&space, v));
            }
        }
        let avg = stretches.iter().sum::<f64>() / stretches.len() as f64;
        let max = stretches.iter().copied().fold(0.0, f64::max);
        let min_core = (0..n)
            .map(|v| family.core_fraction_of(v))
            .fold(f64::INFINITY, f64::min);
        table.push_row(vec![
            n.to_string(),
            family.num_trees().to_string(),
            format!("{avg:.1}"),
            format!("{max:.1}"),
            format!("{:.1}", family.stretch_threshold()),
            format!("{min_core:.2}"),
        ]);
    }
    table.push_note("every tree dominates the metric by construction; the table reports the per-node worst-case stretch");
    table.push_note("paper prediction: O(log n) trees suffice for every node to be in 9/10 of the cores with O(log n) stretch");
    table
}

/// E8 — §6: directed simulation and the energy/colors trade-off.
pub fn e8_directed_simulation_and_energy() -> Table {
    let p = params();
    let mut table = Table::new(
        "E8",
        "§6: directed simulation of bidirectional schedules and energy/colors trade-off",
        vec![
            "n",
            "bidi colors (sqrt)",
            "directed simulation colors",
            "energy sqrt / energy linear",
            "colors linear / colors sqrt",
        ],
    );
    for &n in &[16usize, 32, 64] {
        let mut rng = ChaCha8Rng::seed_from_u64(n as u64 * 31);
        let instance = clustered_deployment(
            DeploymentConfig {
                num_requests: n,
                side: 50.0 * (n as f64).sqrt(),
                min_link: 1.0,
                max_link: 20.0,
            },
            4,
            30.0,
            &mut rng,
        );
        let scheduler = Scheduler::new(p);
        let exact = |power: ObliviousPower| {
            solve(
                &scheduler,
                &instance,
                &SolveRequest::first_fit(power.into()).with_backend(BackendPolicy::Exact),
            )
        };
        let sqrt = exact(ObliviousPower::SquareRoot);
        let linear = exact(ObliviousPower::Linear);
        let doubled = oblisched::convert::verify_directed_simulation(
            &instance,
            &p,
            &sqrt.powers,
            &sqrt.schedule,
        )
        .expect("simulation of a valid schedule is valid");
        table.push_row(vec![
            n.to_string(),
            sqrt.num_colors().to_string(),
            doubled.to_string(),
            format!("{:.2}", sqrt.total_energy() / linear.total_energy()),
            format!(
                "{:.2}",
                linear.num_colors() as f64 / sqrt.num_colors() as f64
            ),
        ]);
    }
    table.push_note(
        "paper prediction: the directed simulation uses exactly twice the bidirectional colors",
    );
    table.push_note("the energy column quantifies the §6 remark that sqrt trades energy (vs the energy-optimal linear assignment) for schedule length");
    table
}

/// E9 — scaling: the incremental interference engine vs the naive evaluator.
///
/// Runs first-fit on the seed-pinned scaling families across growing `n`,
/// recording colors and wall time for both paths. Where both run, the
/// colorings are asserted identical — the engine's exact-equivalence
/// guarantee, measured rather than assumed. The naive path runs up to
/// `n = 1000` and once more at the uniform `n = 5000` acceptance size, where
/// it takes minutes and the engine must be [`ENGINE_MIN_SPEEDUP`]× faster.
pub fn e9_scaling_engine() -> Table {
    use oblisched::scheduler::{EngineBackend, EngineStats, DEFAULT_MATRIX_BUDGET};
    use oblisched_sinr::GainMatrix;

    /// Naive first-fit is cubic-ish in practice; skip it above this size.
    const NAIVE_LIMIT: usize = 1000;
    /// The uniform size the speedup bound is asserted at.
    const ACCEPTANCE_N: usize = 5000;
    let p = params();
    let mut table = Table::new(
        "E9",
        "Scaling: first-fit colors and wall time, incremental engine vs naive evaluator (sqrt, bidirectional)",
        vec!["family", "n", "colors", "engine ms", "naive ms", "speedup"],
    );
    let mut run_row =
        |family: &str, instance_colors: (usize, Schedule, f64, Option<(Schedule, f64)>)| {
            let (n, engine, engine_ms, naive) = instance_colors;
            let (naive_ms, speedup) = match &naive {
                Some((schedule, ms)) => {
                    assert_eq!(
                        schedule, &engine,
                        "incremental and naive colorings diverged on {family} n={n}"
                    );
                    (
                        format!("{ms:.1}"),
                        format!("{:.1}x", ms / engine_ms.max(1e-9)),
                    )
                }
                None => ("-".to_string(), "-".to_string()),
            };
            table.push_row(vec![
                family.to_string(),
                n.to_string(),
                engine.num_colors().to_string(),
                format!("{engine_ms:.1}"),
                naive_ms,
                speedup,
            ]);
            // Both paths of this row run on the uncached on-the-fly view
            // (`EngineStats::bytes` is 0 by definition for that tier).
            table.push_engine(
                format!("{family} n={n}"),
                EngineStats {
                    backend: EngineBackend::OnTheFly,
                    n,
                    ports: 2,
                    bytes: 0,
                    dense_bytes: GainMatrix::bytes_for(n, 2),
                    budget: DEFAULT_MATRIX_BUDGET,
                },
            );
        };

    let time_first_fit = |view: &dyn Fn() -> Schedule| -> (Schedule, f64) {
        let start = std::time::Instant::now();
        let schedule = view();
        (schedule, start.elapsed().as_secs_f64() * 1e3)
    };

    for &n in &[200usize, 500, 1000, 2000, 5000] {
        let instance = oblisched_instances::scaling_uniform(n, 42);
        let eval = instance.evaluator(p, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let (engine, engine_ms) = time_first_fit(&|| first_fit_coloring(&view));
        let naive = (n <= NAIVE_LIMIT || n == ACCEPTANCE_N)
            .then(|| time_first_fit(&|| oblisched::first_fit_coloring_naive(&view)));
        let naive_ms = naive.as_ref().map(|(_, ms)| *ms);
        run_row("uniform", (n, engine, engine_ms, naive));
        if let (ACCEPTANCE_N, Some(naive_ms)) = (n, naive_ms) {
            let bound = speedup_bound("engine vs naive", naive_ms, engine_ms, ENGINE_MIN_SPEEDUP);
            if let Err(e) = bound {
                panic!("E9 acceptance at uniform n={n}: {e}");
            }
        }
    }
    for &n in &[200usize, 500, 2000] {
        let instance = oblisched_instances::scaling_line(n);
        let eval = instance.evaluator(p, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let (engine, engine_ms) = time_first_fit(&|| first_fit_coloring(&view));
        let naive =
            (n <= 500).then(|| time_first_fit(&|| oblisched::first_fit_coloring_naive(&view)));
        run_row("line", (n, engine, engine_ms, naive));
    }
    table.push_note(
        "seed-pinned instances (seed 42); '-' marks sizes where the naive baseline is skipped",
    );
    table.push_note(
        "where both paths run the colorings are asserted identical (exact-equivalence guarantee)",
    );
    table.push_note(
        "acceptance (asserted): at uniform n=5000 the engine is >=10x faster than naive with identical colorings",
    );
    table
}

/// E10 — churn: incremental maintenance vs full reschedules.
///
/// Replays the seed-pinned churn traces of `oblisched_instances::churn`
/// through the `DynamicScheduler` (per-event incremental work on the cached
/// gain matrix) and through a full first-fit reschedule of the live set
/// after every event, for each oblivious power assignment. The final dynamic
/// state is certified against the naive evaluator (`validate_against`), so
/// the speedup column compares two *valid* maintenance strategies. The
/// `uniform-1500` row is the acceptance measurement: incremental
/// maintenance must be [`CHURN_MIN_SPEEDUP`]× faster there.
///
/// The large-tier rows (`10k`/`50k` universes) are beyond the dense matrix
/// budget: they replay on the facade-selected churn-capable sparse backend
/// (square-root assignment) and double as the acceptance measurement that a
/// full churn session at `n = 5·10⁴` completes under the 64 MiB engine
/// budget.
pub fn e10_dynamic_churn() -> Table {
    use crate::churn::sparse_churn_outcome;
    use oblisched_instances::{
        churn_clustered, churn_clustered_10k, churn_uniform, churn_uniform_10k, churn_uniform_50k,
    };

    let p = params();
    let mut table = Table::new(
        "E10",
        "Churn: dynamic scheduler (incremental) vs full reschedule per event (bidirectional)",
        vec![
            "family",
            "assignment",
            "events",
            "final live",
            "colors (dyn)",
            "colors (full)",
            "dyn ms",
            "dyn µs/event",
            "full ms",
            "speedup",
        ],
    );
    let workloads = [
        ("uniform", churn_uniform(400, 260, 800, 42)),
        ("clustered", churn_clustered(400, 260, 800, 42)),
    ];
    for (family, (instance, trace)) in &workloads {
        for power in ObliviousPower::standard_assignments() {
            dense_churn_row(&mut table, family, instance, trace, &power);
        }
    }
    // Acceptance row: a larger trace (~1000 live, 2000 events) where the
    // per-event full reschedule is the slow side by a wide margin.
    let (instance, trace) = churn_uniform(1500, 1000, 2000, 42);
    let (dyn_ms, full_ms) = dense_churn_row(
        &mut table,
        "uniform-1500",
        &instance,
        &trace,
        &ObliviousPower::SquareRoot,
    );
    if let Err(e) = speedup_bound("incremental vs full", full_ms, dyn_ms, CHURN_MIN_SPEEDUP) {
        panic!("E10 acceptance on uniform-1500: {e}");
    }
    // Large-tier rows: the dense matrix would need 1.6 GB (n = 10⁴) /
    // 40 GB (n = 5·10⁴), so `Scheduler::session_backend` routes these to
    // the churn-capable sparse backend; `sparse_churn_outcome` certifies
    // the final state against the naive evaluator and asserts the grown
    // backend stays under the 64 MiB engine budget. The per-event full
    // reschedule baseline is hopeless at this scale and is skipped ('-').
    let large = [
        ("uniform-10k", churn_uniform_10k(42)),
        ("clustered-10k", churn_clustered_10k(42)),
        ("uniform-50k", churn_uniform_50k(42)),
    ];
    for (family, (instance, trace)) in &large {
        let out = sparse_churn_outcome(instance, trace, p);
        // The facade's actual session-backend decision for this universe.
        table.push_engine(format!("{family}/sqrt"), out.stats);
        table.push_row(vec![
            family.to_string(),
            "sqrt".to_string(),
            out.events.to_string(),
            out.final_live.to_string(),
            out.colors.to_string(),
            "-".to_string(),
            format!("{:.1}", out.dyn_ms),
            format!("{:.1}", out.dyn_ms * 1e3 / out.events.max(1) as f64),
            "-".to_string(),
            "-".to_string(),
        ]);
    }
    table.push_note("seed-pinned workloads (seed 42): universe 400, target 260 live, 800 events (uniform-1500: universe 1500, target 1000 live, 2000 events), cached gain matrix for both strategies");
    table.push_note("the final dynamic state is validated against the naive evaluator before timing is reported");
    table.push_note("expectation: incremental maintenance beats the full-reschedule baseline on total wall time at similar color counts");
    table.push_note("acceptance (asserted): on uniform-1500 (universe 1500, target 1000 live, 2000 events, sqrt) incremental maintenance is >=3x faster than full reschedules");
    table.push_note("large-tier rows (10k/50k universes, live target n/4 capped at 8000) replay on the facade-selected sparse churn backend; '-' marks the skipped full-reschedule baseline, and the grown backend is asserted under the 64 MiB budget");
    table
}

/// One dense-tier E10 row: replays `trace` incrementally and with a full
/// reschedule per event on the cached gain matrix under `power`, certifies
/// the final dynamic state against the naive evaluator, and returns the two
/// wall times `(dyn_ms, full_ms)`.
fn dense_churn_row(
    table: &mut Table,
    family: &str,
    instance: &Instance<EuclideanSpace<2>>,
    trace: &oblisched_instances::ChurnTrace,
    power: &ObliviousPower,
) -> (f64, f64) {
    use crate::churn::{replay_full_reschedule, replay_incremental};
    use oblisched::scheduler::{EngineBackend, EngineStats, DEFAULT_MATRIX_BUDGET};
    use oblisched_sinr::GainMatrix;

    let eval = instance.evaluator(params(), power);
    let view = eval.view(Variant::Bidirectional);
    let matrix = view.cached();

    // Incremental maintenance: one insert/remove per event.
    let start = std::time::Instant::now();
    let sched = replay_incremental(&matrix, trace);
    let dyn_ms = start.elapsed().as_secs_f64() * 1e3;
    sched
        .validate_against(&view)
        .expect("the final churn state must certify against the naive evaluator");
    sched
        .validate()
        .expect("accumulated sums must stay within drift tolerance");

    // Baseline: full first-fit reschedule of the live set per event.
    let start = std::time::Instant::now();
    let full_colors = replay_full_reschedule(&matrix, trace);
    let full_ms = start.elapsed().as_secs_f64() * 1e3;

    table.push_row(vec![
        family.to_string(),
        power.name(),
        trace.len().to_string(),
        sched.len().to_string(),
        sched.num_colors().to_string(),
        full_colors.to_string(),
        format!("{dyn_ms:.1}"),
        format!("{:.1}", dyn_ms * 1e3 / trace.len() as f64),
        format!("{full_ms:.1}"),
        format!("{:.1}x", full_ms / dyn_ms.max(1e-9)),
    ]);
    // Both strategies of this row replay on the cached dense matrix.
    let bytes = GainMatrix::bytes_for(instance.len(), 2);
    table.push_engine(
        format!("{family}/{}", power.name()),
        EngineStats {
            backend: EngineBackend::Dense,
            n: instance.len(),
            ports: 2,
            bytes,
            dense_bytes: bytes,
            budget: DEFAULT_MATRIX_BUDGET,
        },
    );
    (dyn_ms, full_ms)
}

/// E11 — backend tiers: dense vs sparse vs parallel-sparse.
///
/// The dense `GainMatrix` tops out at its 64 MiB budget around `n ≈ 2000`
/// (bidirectional: `8·2·n²` bytes); the spatially-pruned sparse backend
/// holds `n = 10⁴` in ~25 MiB. This experiment times each tier end to end
/// (backend build + scheduling) on the seed-pinned uniform scaling family:
///
/// * `dense` at `n = 2000` — the dense tier at its ceiling,
/// * `sparse` (serial first-fit) and `parallel-sparse` (the facade's
///   parallel tier, [`parallel_tier`](crate::tiers::parallel_tier), at 1 and
///   8 threads) at `n = 10⁴`. Both build the default sparse backend, so the
///   serial row is the like-for-like baseline of the parallel rows.
///
/// The four rows run in [`E11_ROUNDS`] interleaved rounds and each reports
/// its best round, so every side of [`tier_bounds`] is timed the same way.
/// Every sparse-tier schedule is then validated class-by-class against the
/// naive evaluator: the "non-conservative" column counts multi-member
/// classes the exact checker rejects, and the experiment *asserts* it is
/// zero. The two parallel runs are asserted identical (thread-count
/// determinism). Engine decisions (backend, bytes, budget) are recorded in
/// the table's structured `engines` list, one per row.
pub fn e11_backend_tiers() -> Table {
    use crate::tiers::{non_conservative_classes, parallel_tier};
    use oblisched::scheduler::{EngineBackend, EngineStats, DEFAULT_MATRIX_BUDGET};
    use oblisched_instances::{scaling_uniform, scaling_uniform_10k};
    use oblisched_sinr::{GainMatrix, SparseConfig, SparseGainMatrix};

    let p = params();
    let mut table = Table::new(
        "E11",
        "Backend tiers: dense (n=2000, budget ceiling) vs sparse and parallel-sparse (n=10000), sqrt assignment, bidirectional",
        vec!["backend", "n", "colors", "wall ms", "backend MiB", "non-conservative"],
    );
    let mib = |bytes: usize| format!("{:.1}", bytes as f64 / (1024.0 * 1024.0));

    // n = 2000 is the largest size whose bidirectional dense matrix (61 MiB)
    // still fits the facade's 64 MiB budget; the sparse tiers run at 5x that.
    let inst2k = scaling_uniform(2000, TIER_SEED);
    let eval2k = inst2k.evaluator(p, &ObliviousPower::SquareRoot);
    let view2k = eval2k.view(Variant::Bidirectional);
    let inst10k = scaling_uniform_10k(TIER_SEED);
    let eval = inst10k.evaluator(p, &ObliviousPower::SquareRoot);
    let view = eval.view(Variant::Bidirectional);

    // Each tier returns its schedule and backend footprint; the backend is
    // dropped inside the timed region, as the facade drops it.
    type Tier<'a> = (&'a str, &'a dyn Fn() -> (Schedule, usize));
    let tiers: [Tier; 4] = [
        ("dense", &|| {
            let matrix = view2k.cached();
            (first_fit_coloring(&matrix), GainMatrix::bytes_for(2000, 2))
        }),
        ("sparse", &|| {
            let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
            (first_fit_coloring(&sparse), sparse.bytes())
        }),
        ("parallel-sparse (1t)", &|| {
            let (backend, schedule) = parallel_tier(&view, 1);
            (schedule, backend.bytes())
        }),
        ("parallel-sparse (8t)", &|| {
            let (backend, schedule) = parallel_tier(&view, 8);
            (schedule, backend.bytes())
        }),
    ];
    let mut best_ms = [f64::INFINITY; 4];
    let mut runs = Vec::new();
    for _ in 0..E11_ROUNDS {
        runs.clear();
        for (best, (_, tier)) in best_ms.iter_mut().zip(&tiers) {
            let start = std::time::Instant::now();
            runs.push(tier());
            *best = best.min(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    assert_eq!(
        runs[2].0, runs[3].0,
        "parallel schedules must not depend on the thread count"
    );

    for (((label, _), (schedule, bytes)), ms) in tiers.iter().zip(&runs).zip(best_ms) {
        let (n, backend, bad) = if *label == "dense" {
            (2000, EngineBackend::Dense, "-".to_string())
        } else {
            // Conservativeness, measured: every multi-member class of every
            // sparse-tier schedule must pass the naive evaluator.
            let bad = non_conservative_classes(&eval, Variant::Bidirectional, schedule);
            assert_eq!(bad, 0, "{label}: sparse verdicts must be conservative");
            (10_000, EngineBackend::Sparse, bad.to_string())
        };
        table.push_row(vec![
            (*label).into(),
            n.to_string(),
            schedule.num_colors().to_string(),
            format!("{ms:.0}"),
            mib(*bytes),
            bad,
        ]);
        table.push_engine(
            format!("{label} n={n}"),
            EngineStats {
                backend,
                n,
                ports: 2,
                bytes: *bytes,
                dense_bytes: GainMatrix::bytes_for(n, 2),
                budget: DEFAULT_MATRIX_BUDGET,
            },
        );
    }

    let [dense_ms, serial_ms, par1_ms, par8_ms] = best_ms;
    if let Err(e) = tier_bounds(dense_ms, serial_ms, [par1_ms, par8_ms]) {
        panic!(
            "E11 acceptance: {e} (dense {dense_ms:.0} ms, serial sparse {serial_ms:.0} ms, \
             parallel-sparse 1t {par1_ms:.0} ms / 8t {par8_ms:.0} ms)"
        );
    }

    // The facade makes the same tier choice automatically; record its real
    // decision (not a synthesized one) without timing it.
    let scheduler = Scheduler::new(p);
    let auto2k = solve(
        &scheduler,
        &inst2k,
        &SolveRequest::first_fit(ObliviousPower::SquareRoot.into()),
    );
    table.push_engine("facade auto n=2000", auto2k.engine);
    table.push_note(format!(
        "facade auto n=10000 would pick sparse: dense needs {} vs budget {} bytes",
        GainMatrix::bytes_for(10_000, 2),
        DEFAULT_MATRIX_BUDGET
    ));
    table.push_note(format!("seed-pinned uniform scaling family (seed {TIER_SEED}); wall time is backend build + scheduling, best of {E11_ROUNDS} interleaved rounds (the facade's exact validation is excluded; the last column re-checks every class against the naive evaluator)"));
    table.push_note("non-conservative = multi-member classes the naive evaluator rejects (asserted zero: sparse verdicts are conservative)");
    table.push_note("parallel rows: the parallel tier `Scheduler::solve` serves (default sparse backend built on the worker threads, 64 tile shards, shard gain slack 2.0); 1t vs 8t schedules asserted identical");
    table.push_note(format!(
        "acceptance (asserted): best parallel run beats dense by {:.2}x (need > 1x); 1t / 8t beat serial sparse on the same backend by {:.2}x / {:.2}x (need >= {PARALLEL_MIN_SPEEDUP}x)",
        dense_ms / par1_ms.min(par8_ms),
        serial_ms / par1_ms,
        serial_ms / par8_ms
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_parse() {
        assert_eq!(Experiment::parse("e1"), Some(Experiment::E1));
        assert_eq!(Experiment::parse("E8"), Some(Experiment::E8));
        assert_eq!(Experiment::parse("e9"), Some(Experiment::E9));
        assert_eq!(Experiment::parse("e10"), Some(Experiment::E10));
        assert_eq!(Experiment::parse("e11"), Some(Experiment::E11));
        assert_eq!(Experiment::parse("e12"), None);
        assert_eq!(all_experiments().len(), 11);
    }

    #[test]
    fn nested_chain_experiment_has_expected_shape() {
        let table = e2_nested_chain();
        assert_eq!(table.id, "E2");
        assert_eq!(table.rows.len(), 5);
        // Uniform needs n colors, sqrt stays small: check the last row.
        let last = table.rows.last().unwrap();
        let n: usize = last[0].parse().unwrap();
        let uniform: usize = last[1].parse().unwrap();
        let sqrt: usize = last[3].parse().unwrap();
        assert_eq!(uniform, n);
        assert!(sqrt <= 8);
    }

    #[test]
    fn gain_rescaling_experiment_respects_bounds() {
        let table = e5_gain_rescaling();
        for row in &table.rows {
            let fraction: f64 = row[2].parse().unwrap();
            let bound: f64 = row[3].parse().unwrap();
            assert!(
                fraction + 1e-9 >= bound,
                "kept fraction {fraction} below bound {bound}"
            );
        }
    }

    #[test]
    fn star_experiment_reports_fractions_in_range() {
        let table = e6_star_fraction();
        for row in &table.rows {
            let fraction: f64 = row[3].parse().unwrap();
            assert!((0.0..=1.0).contains(&fraction));
        }
    }

    #[test]
    fn scaling_experiment_reports_identical_colors_and_speedups() {
        // Keep this test cheap: run the real experiment shape on a small
        // instance rather than the full E9 sizes.
        let p = params();
        let instance = oblisched_instances::scaling_uniform(120, 42);
        let eval = instance.evaluator(p, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let engine = first_fit_coloring(&view);
        let naive = oblisched::first_fit_coloring_naive(&view);
        assert_eq!(engine, naive);
    }

    #[test]
    fn churn_experiment_shape_on_a_small_workload() {
        // Keep this test cheap: run the real E10 event loop on a small
        // seed-pinned workload rather than the full experiment sizes.
        use crate::churn::{replay_full_reschedule, replay_incremental};
        use oblisched_instances::churn_uniform;
        let p = params();
        let (instance, trace) = churn_uniform(60, 36, 150, 42);
        let eval = instance.evaluator(p, &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let matrix = view.cached();
        let sched = replay_incremental(&matrix, &trace);
        sched.validate_against(&view).unwrap();
        sched.validate().unwrap();
        assert_eq!(sched.len(), trace.final_live().len());
        // Both strategies schedule the same live set; their color counts are
        // in the same ballpark (both are first-fit variants).
        let full_colors = replay_full_reschedule(&matrix, &trace);
        assert!(full_colors >= 1);
    }

    #[test]
    fn acceptance_bounds_reject_timings_that_break_them() {
        // E9 and E10: the speedup factor is inclusive.
        let e9 = |naive, engine| speedup_bound("e9", naive, engine, ENGINE_MIN_SPEEDUP);
        assert!(e9(1000.0, 100.0).is_ok());
        assert!(e9(999.0, 100.0).is_err());
        let e10 = |full, dynamic| speedup_bound("e10", full, dynamic, CHURN_MIN_SPEEDUP);
        assert!(e10(300.0, 100.0).is_ok());
        assert!(e10(290.0, 100.0).is_err());
        assert!(e10(f64::NAN, 100.0).is_err());
        // E11: dense 400 ms, serial 1000 ms, parallel 1t / 8t.
        assert!(tier_bounds(400.0, 1000.0, [350.0, 300.0]).is_ok());
        // Best parallel run no faster than dense.
        assert!(tier_bounds(300.0, 1000.0, [350.0, 300.0]).is_err());
        // 1t or 8t under 2x of serial on the same backend.
        assert!(tier_bounds(1000.0, 1000.0, [600.0, 300.0]).is_err());
        assert!(tier_bounds(1000.0, 1000.0, [300.0, 600.0]).is_err());
        assert!(tier_bounds(400.0, 1000.0, [f64::NAN, 300.0]).is_err());
    }
}
