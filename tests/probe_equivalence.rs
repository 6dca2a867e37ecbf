//! Equivalence suite of the batched/scratch first-fit hot path: the
//! [`ProbeBatch`]-fed, scratch-reusing drivers introduced by the speed pass
//! must produce **bit-for-bit** the schedules of the sequential per-class
//! probe loop — across all three standard oblivious assignments, both
//! variants, and every backend tier (on-the-fly view, dense [`GainMatrix`],
//! pruned [`SparseGainMatrix`], churn-capable [`SparseChurnMatrix`]).
//!
//! The sequential oracle below is the pre-batching driver kept verbatim
//! (one [`ColorAccumulator::try_insert_with_gain`] per open class per item),
//! so any divergence in verdicts, class contents, or member order fails
//! loudly. The committed schedule goldens and the perf gate's fingerprints
//! pin the same property end to end at scale.
//!
//! [`ProbeBatch`]: oblisched_sinr::ProbeBatch

use oblisched::greedy::{
    first_fit_coloring, first_fit_coloring_naive, first_fit_into, first_fit_subset_with_gain,
    first_fit_with_order, first_fit_with_order_scratch, FirstFitScratch,
};
use oblisched_instances::scaling_uniform;
use oblisched_sinr::feasibility::REL_TOL;
use oblisched_sinr::{
    ColorAccumulator, GainBackend, GainMatrix, InterferenceSystem, ObliviousPower, PowerScheme,
    SinrParams, SparseChurnMatrix, SparseConfig, SparseGainMatrix, Variant,
};
use proptest::prelude::*;

fn params() -> SinrParams {
    SinrParams::new(3.0, 1.0).unwrap()
}

/// The pre-batching sequential first-fit driver, kept verbatim as the
/// oracle: probe every open class with the sequential per-class probe, open
/// a new class when none accepts.
fn sequential_oracle<S: GainBackend + ?Sized>(
    system: &S,
    items: &[usize],
    gain: f64,
) -> Vec<Vec<usize>> {
    let mut classes: Vec<ColorAccumulator<'_, S>> = Vec::new();
    for &i in items {
        let placed = classes
            .iter_mut()
            .any(|class| class.try_insert_with_gain(i, gain));
        if !placed {
            let mut class = ColorAccumulator::new(system);
            class.insert_unchecked(i);
            classes.push(class);
        }
    }
    classes
        .iter()
        .map(|class| class.members().to_vec())
        .collect()
}

/// Batched public driver vs the sequential oracle on one backend: identical
/// class count, identical members, identical insertion order.
fn assert_batched_matches<S: GainBackend + ?Sized>(
    system: &S,
    items: &[usize],
    gain: f64,
    label: &str,
) {
    let batched = first_fit_subset_with_gain(system, items, gain);
    let oracle = sequential_oracle(system, items, gain);
    assert_eq!(
        batched, oracle,
        "batched first-fit diverged from the sequential probe on {label}"
    );
}

#[test]
fn batched_first_fit_matches_sequential_across_assignments_variants_backends() {
    let n = 60;
    let instance = scaling_uniform(n, 11);
    let forward: Vec<usize> = (0..n).collect();
    let reverse: Vec<usize> = (0..n).rev().collect();
    for power in ObliviousPower::standard_assignments() {
        let eval = instance.evaluator(params(), &power);
        for variant in Variant::all() {
            let view = eval.view(variant);
            let matrix = GainMatrix::build(&view);
            let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
            let churn = SparseChurnMatrix::new(&view, &SparseConfig::default());
            for &i in &forward {
                churn.note_arrival(i);
            }
            let beta = view.beta();
            for items in [&forward, &reverse] {
                for gain in [beta, 2.0 * beta] {
                    let tag = format!("{} / {variant} / gain {gain}", power.name());
                    assert_batched_matches(&view, items, gain, &format!("view ({tag})"));
                    assert_batched_matches(&matrix, items, gain, &format!("dense ({tag})"));
                    assert_batched_matches(&sparse, items, gain, &format!("sparse ({tag})"));
                    assert_batched_matches(&churn, items, gain, &format!("churn ({tag})"));
                }
            }
            // Whole-schedule driver against the naive reference too: the
            // batched path must stay inside the existing exactness pin.
            assert_eq!(
                first_fit_coloring(&matrix),
                first_fit_coloring_naive(&view),
                "batched dense coloring left the naive-equivalence envelope"
            );
        }
    }
}

#[test]
fn scratch_and_pool_reuse_are_bit_for_bit_identical() {
    // One scratch driven across systems of different sizes, variants, and
    // backends in arbitrary order must match fresh-scratch results exactly:
    // no state may leak between drives.
    let mut scratch = FirstFitScratch::new();
    for (n, seed) in [(40usize, 3u64), (15, 5), (60, 7), (15, 5)] {
        let instance = scaling_uniform(n, seed);
        let eval = instance.evaluator(params(), &ObliviousPower::SquareRoot);
        for variant in Variant::all() {
            let view = eval.view(variant);
            let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
            let order: Vec<usize> = (0..n).rev().collect();
            assert_eq!(
                first_fit_with_order_scratch(&sparse, &order, &mut scratch),
                first_fit_with_order(&sparse, &order),
                "reused scratch diverged from a fresh one (n={n}, {variant})"
            );
        }
    }

    // One accumulator pool recycled across drives of different item sets:
    // classes beyond the open count are spares and must not perturb results.
    let instance = scaling_uniform(50, 9);
    let eval = instance.evaluator(params(), &ObliviousPower::SquareRoot);
    let view = eval.view(Variant::Bidirectional);
    let sparse = SparseGainMatrix::build(&view, &SparseConfig::default());
    let beta = view.beta();
    let mut pool: Vec<ColorAccumulator<'_, SparseGainMatrix>> = Vec::new();
    let sets: Vec<Vec<usize>> = vec![
        (0..50).collect(),
        (0..20).rev().collect(),
        (10..50).step_by(2).collect(),
        (0..50).collect(),
    ];
    for items in &sets {
        let open = first_fit_into(&sparse, items, beta, &mut scratch, &mut pool);
        let fresh = sequential_oracle(&sparse, items, beta);
        let pooled: Vec<Vec<usize>> = pool[..open]
            .iter()
            .map(|class| class.members().to_vec())
            .collect();
        assert_eq!(pooled, fresh, "pooled accumulators diverged on {items:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random subsets in random orders at random gain relaxations: the
    /// batched driver and the sequential oracle agree on every backend.
    #[test]
    fn batched_matches_sequential_on_random_subsets(
        seed in any::<u64>(),
        n in 12usize..28,
        picks in prop::collection::vec(any::<u8>(), 4..24),
        gain_step in 0usize..3,
    ) {
        let instance = scaling_uniform(n, seed);
        let eval = instance.evaluator(params(), &ObliviousPower::SquareRoot);
        for variant in Variant::all() {
            let view = eval.view(variant);
            // Deduplicate picks into a subset in pick order (an item cannot
            // hold two colors).
            let mut items: Vec<usize> = Vec::new();
            for &p in &picks {
                let item = p as usize % n;
                if !items.contains(&item) {
                    items.push(item);
                }
            }
            let gain = view.beta() * [1.0, 1.5, 3.0][gain_step];
            // A coarse cutoff so pruning (pads + row walks) genuinely
            // decides verdicts at this scale.
            let config = SparseConfig { cutoff_fraction: 0.05, ..SparseConfig::default() };
            let sparse = SparseGainMatrix::build(&view, &config);
            let churn = SparseChurnMatrix::new(&view, &config);
            for &i in &items {
                churn.note_arrival(i);
            }
            assert_batched_matches(&view, &items, gain, "view (proptest)");
            assert_batched_matches(&sparse, &items, gain, "sparse (proptest)");
            assert_batched_matches(&churn, &items, gain, "churn (proptest)");
        }
    }
}

/// The admit-path-free verdict of `class ∪ {i}` at `gain`: commit `i`
/// unchecked into a clone and require every member's (padded) SINR to meet
/// the threshold.
fn unchecked_oracle<S: GainBackend + ?Sized>(
    class: &ColorAccumulator<'_, S>,
    i: usize,
    gain: f64,
) -> bool {
    let mut joined = class.clone();
    joined.insert_unchecked(i);
    let threshold = gain * (1.0 - REL_TOL);
    (0..joined.len()).all(|pos| joined.sinr_of(pos) >= threshold)
}

/// Replays a random history of checked inserts, unchecked inserts and
/// removals over three classes of one backend. Rejected inserts move the
/// class's remembered first-checked member to arbitrary positions, and
/// removals leave it stale; every checked insert must still return the
/// oracle's verdict and leave a rejecting class untouched.
fn assert_verdicts_match_oracle<S: GainBackend + ?Sized>(
    system: &S,
    ops: &[(u8, u8, u8)],
    gain: f64,
    label: &str,
) {
    let n = system.len();
    let mut classes: Vec<ColorAccumulator<'_, S>> =
        (0..3).map(|_| ColorAccumulator::new(system)).collect();
    for &(kind, c, x) in ops {
        let class = &mut classes[usize::from(c) % 3];
        let i = usize::from(x) % n;
        match kind % 5 {
            0 if !class.is_empty() => {
                class.remove_at(usize::from(x) % class.len());
            }
            1 if !class.contains(i) => class.insert_unchecked(i),
            _ if !class.contains(i) => {
                let expected = unchecked_oracle(class, i, gain);
                let before = class.members().to_vec();
                let admitted = class.try_insert_with_gain(i, gain);
                assert_eq!(
                    admitted, expected,
                    "{label}: verdict for item {i} into {before:?} diverged from the oracle"
                );
                let mut after = before;
                if admitted {
                    after.push(i);
                }
                assert_eq!(class.members(), after.as_slice(), "{label}: class changed");
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The member scan starts at whichever member last rejected: whatever
    /// that position is (fresh, moved by rejects, stale after removals), the
    /// verdict equals the unchecked-insert oracle on every backend.
    #[test]
    fn admit_verdicts_do_not_depend_on_the_remembered_member(
        seed in any::<u64>(),
        n in 16usize..40,
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 20..120),
        gain_step in 0usize..3,
    ) {
        let instance = scaling_uniform(n, seed);
        let eval = instance.evaluator(params(), &ObliviousPower::SquareRoot);
        for variant in Variant::all() {
            let view = eval.view(variant);
            let gain = view.beta() * [1.0, 1.5, 3.0][gain_step];
            let config = SparseConfig { cutoff_fraction: 0.05, ..SparseConfig::default() };
            let matrix = GainMatrix::build(&view);
            let sparse = SparseGainMatrix::build(&view, &config);
            let churn = SparseChurnMatrix::new(&view, &config);
            for i in 0..n {
                churn.note_arrival(i);
            }
            assert_verdicts_match_oracle(&matrix, &ops, gain, "dense");
            assert_verdicts_match_oracle(&sparse, &ops, gain, "sparse");
            assert_verdicts_match_oracle(&churn, &ops, gain, "churn");
        }
    }
}

/// How member `pos` of `class ∪ {i}` fares through a pruned backend, from
/// its stored sums folded in class order: `Some(true)` when it fails even
/// without the pruning pad (a hard failure), `Some(false)` when it fails only
/// with the pad (borderline), `None` when it passes.
fn member_failure<S: GainBackend + ?Sized>(
    system: &S,
    members: &[usize],
    i: usize,
    pos: usize,
    gain: f64,
) -> Option<bool> {
    let mut joined = ColorAccumulator::with_members(system, members);
    joined.insert_unchecked(i);
    let threshold = gain * (1.0 - REL_TOL);
    if joined.sinr_of(pos) >= threshold {
        return None;
    }
    let j = joined.members()[pos];
    let raw = (0..system.num_ports())
        .map(|port| {
            joined
                .members()
                .iter()
                .filter(|&&k| k != j)
                .map(|&k| system.stored_contribution(j, port, k).unwrap_or(0.0))
                .sum::<f64>()
        })
        .fold(f64::NEG_INFINITY, f64::max);
    Some(system.signal(j) / (raw + system.noise()) < threshold)
}

/// Strict mode: a borderline member only defers to the exact recheck, so
/// testing it first must not let the recheck overrule a later member's hard
/// failure. Searches a coarse-cutoff strict backend for a class, a priming
/// candidate that the member at `p > 0` is the first to hard-fail (which
/// makes `p` the first-checked member), and a candidate for which `p` is
/// only borderline while a later member hard-fails.
#[test]
fn strict_borderline_first_member_does_not_mask_a_later_hard_failure() {
    let config = SparseConfig {
        cutoff_fraction: 0.2,
        strict: true,
        fold_ports: false,
        ..SparseConfig::default()
    };
    let mut found = 0;
    for seed in 0..40u64 {
        let n = 30;
        let instance = scaling_uniform(n, seed);
        let eval = instance.evaluator(params(), &ObliviousPower::SquareRoot);
        let view = eval.view(Variant::Bidirectional);
        let strict = SparseGainMatrix::build(&view, &config);
        let gain = view.beta();
        let members: Vec<usize> = (0..6).collect();
        let status = |i: usize| -> Vec<Option<bool>> {
            (0..members.len())
                .map(|pos| member_failure(&strict, &members, i, pos, gain))
                .collect()
        };
        for i in members.len()..n {
            let cand = status(i);
            let Some(p) = (1..members.len()).find(|&p| cand[p] == Some(false)) else {
                continue;
            };
            if !cand[p + 1..].contains(&Some(true)) {
                continue;
            }
            let Some(prime) = (members.len()..n).filter(|&x| x != i).find(|&x| {
                let s = status(x);
                s[..p].iter().all(|st| *st != Some(true)) && s[p] == Some(true)
            }) else {
                continue;
            };
            let mut class = ColorAccumulator::with_members(&strict, &members);
            assert!(!class.try_insert_with_gain(prime, gain));
            assert!(
                !class.try_insert_with_gain(i, gain),
                "seed {seed}: a later hard failure must reject item {i}"
            );
            assert_eq!(class.members(), members.as_slice());
            let mut joined = members.clone();
            joined.push(i);
            assert!(
                !eval.is_feasible_with_gain(Variant::Bidirectional, &joined, gain),
                "seed {seed}: the naive evaluator accepts what the hard failure rejects"
            );
            found += 1;
        }
    }
    assert!(found > 0, "no strict borderline-first case found");
}
