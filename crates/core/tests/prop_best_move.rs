//! Differential suite for the RHE neighbourhood scan: `rhe::best_move`
//! must pick exactly the move — objective bit for bit — and count exactly
//! the evaluations of the index-order linear scan kept here as the
//! reference, in both the feasible and the infeasible phase.

use maprat_core::eval::{Move, SelectionEval};
use maprat_core::rhe::best_move;
use maprat_core::{MiningProblem, Task};
use maprat_cube::{CubeOptions, RatingCube};
use maprat_data::synth::{generate, SynthConfig};
use maprat_data::Dataset;
use proptest::prelude::*;
use std::sync::OnceLock;

fn tiny() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| generate(&SynthConfig::tiny(2031)).unwrap())
}

fn small() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| generate(&SynthConfig::small(2032)).unwrap())
}

const TITLES: [&str; 4] = [
    "Toy Story",
    "The Twilight Saga: Eclipse",
    "Forrest Gump",
    "Saving Private Ryan",
];

fn cube_for(
    dataset: &Dataset,
    title: &str,
    min_support: usize,
    max_arity: usize,
    require_geo: bool,
) -> Option<RatingCube> {
    let item = dataset.find_title(title)?;
    let idx: Vec<u32> = dataset.rating_range_for_item(item).collect();
    let cube = RatingCube::build(
        dataset,
        idx,
        CubeOptions {
            min_support,
            require_geo,
            max_arity,
        },
    );
    (!cube.is_empty()).then_some(cube)
}

/// What the reference scan saw besides its answer.
#[derive(Default)]
struct Seen {
    /// Calls that ran the infeasible phase.
    infeasible_calls: usize,
    /// Infeasible-phase candidates that tied the record's objective
    /// exactly and also passed the coverage test — the cases where only
    /// the scan-position tie-break decides the move.
    objective_ties: usize,
}

/// The index-order linear scan `rhe::best_move` replaced: every candidate
/// of every slot is visited in index order and the support bound skips
/// candidates one by one. Bookkeeping in `seen` adds coverage probes only,
/// which change no answer.
fn reference_best_move(
    problem: &MiningProblem<'_>,
    task: Task,
    eval: &mut SelectionEval<'_, '_>,
    target: f64,
    current_obj: f64,
    evaluations: &mut usize,
    seen: &mut Seen,
) -> Option<(Move, f64)> {
    let universe = problem.cube().universe().max(1) as f64;
    let m = problem.pool_size();
    let k = eval.len();
    let current_cov = eval.coverage();
    let current_feasible = current_cov + 1e-12 >= target;
    let supports: Vec<u32> = problem
        .candidates()
        .iter()
        .map(|g| g.support() as u32)
        .collect();
    let mut best: Option<(Move, f64)> = None;

    let max_count = 2 * problem.cube().universe() + 2;
    let int_threshold = |guess: f64, passes: &dyn Fn(usize) -> bool| -> usize {
        let mut t = (guess.max(0.0) as usize).min(max_count);
        while t > 0 && passes(t - 1) {
            t -= 1;
        }
        while t < max_count && !passes(t) {
            t += 1;
        }
        t
    };
    let target_min = int_threshold(target * universe, &|x| {
        x as f64 / universe + 1e-12 >= target
    });

    if current_feasible {
        let consider = |mv: Move,
                        eval: &SelectionEval<'_, '_>,
                        evaluations: &mut usize,
                        best: &mut Option<(Move, f64)>| {
            *evaluations += 1;
            let obj = eval.probe_objective(task, mv);
            if obj > current_obj + 1e-12 {
                let better = match best {
                    None => true,
                    Some((_, best_obj)) => obj > *best_obj,
                };
                if better {
                    *best = Some((mv, obj));
                }
            }
        };
        for pos in 0..k {
            let rest_count = eval.probe_covered(Move::Drop { pos });
            let slot_feasible = rest_count >= target_min;
            if k > 1 && slot_feasible {
                consider(Move::Drop { pos }, eval, evaluations, &mut best);
            }
            for (candidate, &support) in supports.iter().enumerate() {
                if eval.contains(candidate) {
                    continue;
                }
                if !slot_feasible && rest_count + (support as usize) < target_min {
                    continue;
                }
                let mv = Move::Swap { pos, candidate };
                *evaluations += 1;
                let obj = eval.probe_objective(task, mv);
                let better = obj > current_obj + 1e-12
                    && match best {
                        None => true,
                        Some((_, best_obj)) => obj > best_obj,
                    };
                if better && (slot_feasible || eval.probe_covered(mv) >= target_min) {
                    best = Some((mv, obj));
                }
            }
        }
        if k < problem.max_groups {
            for candidate in 0..m {
                if eval.contains(candidate) {
                    continue;
                }
                consider(Move::Add { candidate }, eval, evaluations, &mut best);
            }
        }
        return best;
    }

    seen.infeasible_calls += 1;
    let beats_min = int_threshold(current_cov * universe, &|x| {
        x as f64 / universe > current_cov + 1e-12
    });
    let mut consider_improving = |mv: Move,
                                  eval: &mut SelectionEval<'_, '_>,
                                  evaluations: &mut usize,
                                  best: &mut Option<(Move, f64)>| {
        *evaluations += 1;
        let obj = eval.probe_objective(task, mv);
        let better = match best {
            None => true,
            Some((_, best_obj)) => obj > *best_obj,
        };
        let tie = matches!(best, Some((_, best_obj)) if obj == *best_obj);
        if better || tie {
            let cov_count = eval.probe_covered(mv);
            let improving = cov_count >= target_min || cov_count >= beats_min;
            if better && improving {
                *best = Some((mv, obj));
            } else if tie && improving {
                seen.objective_ties += 1;
            }
        }
    };
    for pos in 0..k {
        let rest_count = eval.probe_covered(Move::Drop { pos });
        for (candidate, &support) in supports.iter().enumerate() {
            if eval.contains(candidate) {
                continue;
            }
            if rest_count + (support as usize) < beats_min {
                continue;
            }
            consider_improving(Move::Swap { pos, candidate }, eval, evaluations, &mut best);
        }
    }
    if k < problem.max_groups {
        let covered = eval.covered_count();
        for (candidate, &support) in supports.iter().enumerate() {
            if eval.contains(candidate) {
                continue;
            }
            if covered + (support as usize) < beats_min {
                continue;
            }
            consider_improving(Move::Add { candidate }, eval, evaluations, &mut best);
        }
    }
    best
}

/// The coverage target of one climb step: the problem's `α`, or — to
/// force the infeasible phase — a point above the current coverage, up to
/// full coverage.
fn step_target(
    problem: &MiningProblem<'_>,
    eval: &SelectionEval<'_, '_>,
    lift: Option<f64>,
) -> f64 {
    match lift {
        None => problem.min_coverage,
        Some(lift) => {
            let cov = eval.coverage();
            cov + (1.0 - cov) * lift.clamp(1e-6, 1.0)
        }
    }
}

/// Climbs from `selection` for up to `steps` moves, comparing the two
/// scans at every step; returns a description of the first divergence.
fn climb_and_compare(
    problem: &MiningProblem<'_>,
    task: Task,
    selection: &[usize],
    lift: Option<f64>,
    steps: usize,
    seen: &mut Seen,
) -> Result<(), String> {
    let mut eval = SelectionEval::new(problem);
    eval.reset(selection);
    for step in 0..steps {
        let target = step_target(problem, &eval, lift);
        let current_obj = eval.objective(task);
        let (mut ref_evals, mut new_evals) = (0usize, 0usize);
        let expected = reference_best_move(
            problem,
            task,
            &mut eval,
            target,
            current_obj,
            &mut ref_evals,
            seen,
        );
        let got = best_move(
            problem,
            task,
            &mut eval,
            target,
            current_obj,
            &mut new_evals,
        );
        let bits = |r: Option<(Move, f64)>| r.map(|(mv, obj)| (mv, obj.to_bits()));
        if bits(expected) != bits(got) || ref_evals != new_evals {
            return Err(format!(
                "step {step} of {task:?} from {:?} (target {target}): \
                 reference {expected:?} with {ref_evals} evaluations, \
                 got {got:?} with {new_evals}",
                eval.selection()
            ));
        }
        match got {
            Some((mv, _)) => eval.apply(mv),
            None => break,
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same move (objective bit for bit) and same evaluation count as the
    /// index-order scan, along short climbs from random selections.
    #[test]
    fn best_move_matches_index_order_scan(
        use_small in any::<bool>(),
        title_idx in 0usize..TITLES.len(),
        min_support in 2usize..8,
        max_arity in 1usize..4,
        require_geo in any::<bool>(),
        k in 1usize..6,
        alpha in 0.0f64..0.9,
        lambda in 0.0f64..2.0,
        picks in proptest::collection::vec(0usize..100_000, 1..6),
        forced_infeasible in any::<bool>(),
        lift in 0.0f64..1.0,
    ) {
        let lift = forced_infeasible.then_some(lift);
        let dataset = if use_small { small() } else { tiny() };
        let Some(cube) = cube_for(dataset, TITLES[title_idx], min_support, max_arity, require_geo)
        else {
            return Ok(());
        };
        let problem = MiningProblem::new(&cube, k, alpha, lambda);
        let m = problem.pool_size();
        let mut selection: Vec<usize> = picks.iter().map(|p| p % m).collect();
        selection.sort_unstable();
        selection.dedup();
        selection.truncate(k);
        let mut seen = Seen::default();
        for task in Task::ALL {
            if let Err(divergence) = climb_and_compare(&problem, task, &selection, lift, 6, &mut seen) {
                prop_assert!(false, "{}", divergence);
            }
        }
    }
}

/// The cases the reordered scan could get wrong do occur: climbs run the
/// infeasible phase, candidates share supports, and accepted moves tie
/// the record's objective exactly — and both scans still agree on all of
/// them.
#[test]
fn infeasible_climbs_with_support_and_objective_ties_agree() {
    let mut seen = Seen::default();
    let mut equal_support_pools = 0;
    for title in TITLES {
        for (max_arity, require_geo) in [(2, false), (3, false), (3, true)] {
            let cube = cube_for(tiny(), title, 2, max_arity, require_geo).expect("planted title");
            let mut supports: Vec<usize> = cube.groups().iter().map(|g| g.support()).collect();
            supports.sort_unstable();
            if supports.windows(2).any(|w| w[0] == w[1]) {
                equal_support_pools += 1;
            }
            for k in 1..=5 {
                let problem = MiningProblem::new(&cube, k, 0.6, 0.5);
                let m = problem.pool_size();
                for start in 0..4 {
                    let mut selection: Vec<usize> =
                        (0..k.min(m)).map(|i| (start * 7 + i * 13) % m).collect();
                    selection.sort_unstable();
                    selection.dedup();
                    for task in Task::ALL {
                        for lift in [None, Some(0.5), Some(1.0)] {
                            climb_and_compare(&problem, task, &selection, lift, 8, &mut seen)
                                .unwrap_or_else(|divergence| panic!("{divergence}"));
                        }
                    }
                }
            }
        }
    }
    assert!(equal_support_pools > 0, "no pool had equal supports");
    assert!(
        seen.infeasible_calls > 0,
        "no climb ran the infeasible phase"
    );
    assert!(
        seen.objective_ties > 0,
        "no accepted move tied the record's objective"
    );
}
