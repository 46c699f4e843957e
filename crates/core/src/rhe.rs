//! Randomized Hill Exploration — the solver of the MRI framework \[2\] that
//! MapRat employs for both mining tasks (§2.2).
//!
//! Each restart starts from a feasible (or coverage-repaired) random
//! selection of `k` groups and hill-climbs over the *swap neighbourhood*
//! (replace one selected group by one unselected candidate), taking the
//! best feasible improving move until a local optimum. The best local
//! optimum across restarts wins.
//!
//! Two performance properties distinguish this implementation:
//!
//! * the neighbour scan runs on the incremental [`SelectionEval`] — one
//!   probe costs `O(k + universe/64)` with zero heap allocation, instead
//!   of a full objective/coverage recompute per candidate;
//! * while a climb is still short of the coverage target, the scan visits
//!   only the candidates whose support can lift coverage at all: those
//!   are a prefix of the problem's support-ordered candidate list (one
//!   binary search per slot), so the candidates the bound rules out —
//!   most of the pool on a typical step — are never touched. A scan-position tie-break keeps the chosen
//!   move identical to an index-order scan (see [`best_move`]);
//! * restarts are embarrassingly parallel and fan out over the shared
//!   worker pool (up to [`parallel::num_threads`] workers; no per-solve
//!   OS-thread spawn). Every restart derives its own RNG from
//!   `(seed, restart)`, so the result is **bit-identical for any thread
//!   count** — the cache key and regression baselines never depend on the
//!   machine's core count.
//!
//! When the coverage constraint is provably unachievable (even the `k`
//! largest covers fall short), the solver *relaxes* the constraint to the
//! achievable maximum and reports `meets_coverage = false`, mirroring how
//! the demo degrades gracefully on obscure queries rather than failing.

use crate::budget::Budget;
use crate::error::MineError;
use crate::eval::{Move, SelectionEval};
use crate::parallel;
use crate::problem::{MiningProblem, Task};
use crate::solution::Solution;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Solver parameters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RheParams {
    /// Number of random restarts.
    pub restarts: usize,
    /// Hill-climbing iteration cap per restart (a safety valve; climbs
    /// normally converge in far fewer steps).
    pub max_iterations: usize,
    /// RNG seed — results are deterministic in it (and independent of the
    /// thread count).
    pub seed: u64,
}

impl Default for RheParams {
    fn default() -> Self {
        RheParams {
            restarts: 8,
            max_iterations: 64,
            seed: 0xCAFE,
        }
    }
}

/// Solver telemetry for the experiment harness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RheStats {
    /// Restarts executed.
    pub restarts: usize,
    /// Total hill-climbing iterations across restarts.
    pub iterations: usize,
    /// Objective evaluations performed.
    pub evaluations: usize,
}

/// Solves a task with RHE. Returns `None` only for an empty candidate pool.
pub fn solve(problem: &MiningProblem<'_>, task: Task, params: &RheParams) -> Option<Solution> {
    solve_with_stats(problem, task, params).map(|(s, _)| s)
}

/// Like [`solve`] under a request [`Budget`]: every climb iteration
/// checks the deadline and an expired budget aborts the whole solve with
/// [`MineError::DeadlineExceeded`] — never a partially-climbed solution,
/// so the answer (when one is produced) is bit-identical to an
/// un-deadlined run.
pub fn solve_budget(
    problem: &MiningProblem<'_>,
    task: Task,
    params: &RheParams,
    budget: &Budget,
) -> Result<Option<Solution>, MineError> {
    solve_with_stats_budget(problem, task, params, budget).map(|r| r.map(|(s, _)| s))
}

/// Like [`solve`], also returning telemetry. Restarts fan out over the
/// shared worker pool, up to [`parallel::num_threads`] workers (sized by
/// `MAPRAT_THREADS` at first use) — except on small candidate pools,
/// where a restart converges faster than the fan-out it would have to
/// amortize, so the solve stays inline. The cut-over affects scheduling
/// only; results are identical.
pub fn solve_with_stats(
    problem: &MiningProblem<'_>,
    task: Task,
    params: &RheParams,
) -> Option<(Solution, RheStats)> {
    solve_with_stats_budget(problem, task, params, &Budget::unlimited())
        .expect("an unlimited budget never expires")
}

/// Like [`solve_with_stats`] under a request [`Budget`] (see
/// [`solve_budget`] for the deadline contract).
pub fn solve_with_stats_budget(
    problem: &MiningProblem<'_>,
    task: Task,
    params: &RheParams,
    budget: &Budget,
) -> Result<Option<(Solution, RheStats)>, MineError> {
    let threads = if problem.pool_size() >= 64 {
        parallel::num_threads()
    } else {
        1
    };
    solve_with_threads_budget(problem, task, params, threads, budget)
}

/// Like [`solve_with_stats`] with an explicit worker-thread cap. The
/// returned solution and telemetry are identical for every `threads`
/// value — parallelism only changes wall-clock time.
pub fn solve_with_threads(
    problem: &MiningProblem<'_>,
    task: Task,
    params: &RheParams,
    threads: usize,
) -> Option<(Solution, RheStats)> {
    solve_with_threads_budget(problem, task, params, threads, &Budget::unlimited())
        .expect("an unlimited budget never expires")
}

/// The fully-general entry point: explicit thread cap *and* budget.
/// Restarts cut short by the deadline abort the whole solve — partial
/// climbs are discarded rather than compared, so the winning solution
/// never depends on where the clock happened to land.
pub fn solve_with_threads_budget(
    problem: &MiningProblem<'_>,
    task: Task,
    params: &RheParams,
    threads: usize,
    budget: &Budget,
) -> Result<Option<(Solution, RheStats)>, MineError> {
    let m = problem.pool_size();
    if m == 0 {
        return Ok(None);
    }
    let k = problem.selection_size();

    // Effective coverage target: relax when provably unachievable.
    let achievable = problem.max_achievable_coverage();
    let target = if achievable + 1e-12 >= problem.min_coverage {
        problem.min_coverage
    } else {
        achievable - 1e-9
    };

    let runs = parallel::parallel_map(params.restarts, threads, |restart| {
        run_restart(problem, task, k, target, restart, params, budget)
    });

    let mut stats = RheStats::default();
    let mut best: Option<Solution> = None;
    for run in runs {
        let Some((solution, iterations, evaluations)) = run else {
            return Err(MineError::DeadlineExceeded);
        };
        stats.restarts += 1;
        stats.iterations += iterations;
        stats.evaluations += evaluations;
        let better = match &best {
            None => true,
            Some(b) => {
                // Feasibility first, then objective.
                (solution.meets_coverage, solution.objective) > (b.meets_coverage, b.objective)
            }
        };
        if better {
            best = Some(solution);
        }
    }
    Ok(best.map(|s| (s, stats)))
}

/// One independent restart: derive the restart's RNG, build an initial
/// selection, climb to a local optimum. Returns `(solution, iterations,
/// evaluations)`, or `None` when `budget` expired mid-climb (the caller
/// then aborts the whole solve — see [`solve_with_threads_budget`]).
fn run_restart(
    problem: &MiningProblem<'_>,
    task: Task,
    k: usize,
    target: f64,
    restart: usize,
    params: &RheParams,
    budget: &Budget,
) -> Option<(Solution, usize, usize)> {
    if budget.expired() {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(restart_seed(params.seed, restart));
    let mut eval = SelectionEval::new(problem);
    initial_selection(problem, task, k, target, restart, &mut rng, &mut eval);
    let mut current_obj = eval.objective(task);
    let mut evaluations = 1usize;
    let mut iterations = 0usize;

    for _ in 0..params.max_iterations {
        if budget.expired() {
            return None;
        }
        iterations += 1;
        match best_move(
            problem,
            task,
            &mut eval,
            target,
            current_obj,
            &mut evaluations,
        ) {
            Some((mv, obj)) => {
                eval.apply(mv);
                current_obj = obj;
            }
            None => break, // local optimum
        }
    }

    let solution = Solution::evaluate(problem, task, eval.selection().to_vec());
    Some((solution, iterations, evaluations))
}

/// Mixes `(seed, restart)` into an independent per-restart seed
/// (SplitMix64 finalizer), so restarts are decorrelated and schedulable
/// in any order on any thread.
fn restart_seed(seed: u64, restart: usize) -> u64 {
    let mut z = seed ^ (restart as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds an initial selection into `eval`. Restarts cycle through three
/// strategies so the climbs start in genuinely different basins:
///
/// 0. *objective-greedy*: greedily extend by the candidate (from a random
///    sample) that maximizes the task objective — lands near consistency /
///    disagreement hot-spots;
/// 1. *coverage-greedy*: maximize marginal coverage — lands feasible;
/// 2. *uniform random* + coverage repair — pure exploration.
fn initial_selection(
    problem: &MiningProblem<'_>,
    task: Task,
    k: usize,
    target: f64,
    restart: usize,
    rng: &mut StdRng,
    eval: &mut SelectionEval<'_, '_>,
) {
    let m = problem.pool_size();
    match restart % 3 {
        0 => objective_greedy(problem, task, k, rng, eval),
        1 => coverage_greedy(problem, k, rng, eval),
        _ => {
            let mut all: Vec<usize> = (0..m).collect();
            all.shuffle(rng);
            all.truncate(k);
            eval.reset(&all);
            repair_coverage(problem, target, rng, eval);
        }
    }
}

/// Randomized greedy construction on the task objective itself.
fn objective_greedy(
    problem: &MiningProblem<'_>,
    task: Task,
    k: usize,
    rng: &mut StdRng,
    eval: &mut SelectionEval<'_, '_>,
) {
    let m = problem.pool_size();
    let sample = (m / 2).clamp(1, 64);
    eval.reset(&[]);
    for _ in 0..k {
        let mut best_idx = None;
        let mut best_obj = f64::NEG_INFINITY;
        for _ in 0..sample {
            let c = rng.gen_range(0..m);
            if eval.contains(c) {
                continue;
            }
            let obj = eval.probe_objective(task, Move::Add { candidate: c });
            if obj > best_obj {
                best_obj = obj;
                best_idx = Some(c);
            }
        }
        if let Some(c) = best_idx {
            eval.apply(Move::Add { candidate: c });
        }
    }
    if eval.is_empty() {
        eval.apply(Move::Add {
            candidate: rng.gen_range(0..m),
        });
    }
}

/// Randomized greedy max-coverage construction: each step picks the best of
/// a small random sample of candidates by marginal coverage.
fn coverage_greedy(
    problem: &MiningProblem<'_>,
    k: usize,
    rng: &mut StdRng,
    eval: &mut SelectionEval<'_, '_>,
) {
    let m = problem.pool_size();
    let sample = (m / 4).clamp(1, 32);
    eval.reset(&[]);
    for _ in 0..k {
        let mut best_idx = None;
        let mut best_gain = 0usize;
        for _ in 0..sample {
            let c = rng.gen_range(0..m);
            if eval.contains(c) {
                continue;
            }
            let gain = eval.probe_covered(Move::Add { candidate: c });
            if best_idx.is_none() || gain > best_gain {
                best_idx = Some(c);
                best_gain = gain;
            }
        }
        if let Some(c) = best_idx {
            eval.apply(Move::Add { candidate: c });
        }
    }
    if eval.is_empty() {
        eval.apply(Move::Add {
            candidate: rng.gen_range(0..m),
        });
    }
}

/// Swaps members for higher-coverage candidates until the target is met (or
/// no progress is possible). Coverage is read from the evaluator's running
/// union — no per-iteration bitmap allocation.
fn repair_coverage(
    problem: &MiningProblem<'_>,
    target: f64,
    rng: &mut StdRng,
    eval: &mut SelectionEval<'_, '_>,
) {
    let groups = problem.candidates();
    for _ in 0..eval.len() * 4 {
        if eval.coverage() + 1e-12 >= target {
            break;
        }
        // Replace the member with the smallest cover by a random candidate
        // with a larger cover.
        let (weakest_pos, _) = eval
            .selection()
            .iter()
            .enumerate()
            .min_by_key(|(_, &i)| groups[i].support())
            .expect("non-empty selection");
        let replacement = rng.gen_range(0..problem.pool_size());
        if !eval.contains(replacement)
            && groups[replacement].support() > groups[eval.selection()[weakest_pos]].support()
        {
            eval.apply(Move::Swap {
                pos: weakest_pos,
                candidate: replacement,
            });
        }
    }
}

/// Scans the neighbourhood — swap one member, drop one member, or add one
/// candidate (respecting `|S| ≤ k`) — and returns the best feasible
/// strictly improving move, if any, with its objective; every candidate
/// whose objective is computed adds one to `evaluations`. Every probe is
/// allocation-free. Public only so the differential test in
/// `tests/prop_best_move.rs` can compare it with an index-order scan.
///
/// The result is defined as if the scan ran in index order — slot-major
/// over swaps (`pos`, then candidate index), then adds by candidate
/// index — keeping the first move of maximal objective among the
/// accepted ones.
///
/// Once the climb is feasible, coverage is only a *constraint*: a probe
/// needs no exact union count when a monotone lower bound (the rest-union
/// of the other members for swaps, the current union for adds) already
/// proves feasibility, which collapses the scan to `O(1)`–`O(k)` scalar
/// work for the vast majority of candidates.
///
/// While still infeasible, the climb compares exact coverage to make
/// progress. A candidate can only improve a slot if `base + support`
/// beats the current coverage (`base` = the slot's rest-union count, or
/// the current union for adds), and those candidates are exactly a
/// prefix of [`MiningProblem`]'s descending-support order, so the scan
/// visits that prefix alone. Visiting it out of index order cannot
/// change the answer: a candidate becomes the record when its objective
/// is strictly greater, or equal at an earlier scan position, so the
/// final record is the accepted move of maximal objective that comes
/// first in index order — the same move the index-order scan keeps. The
/// prefix holds exactly the candidates the bound lets through, so the
/// evaluation count is unchanged too.
#[doc(hidden)]
pub fn best_move(
    problem: &MiningProblem<'_>,
    task: Task,
    eval: &mut SelectionEval<'_, '_>,
    target: f64,
    current_obj: f64,
    evaluations: &mut usize,
) -> Option<(Move, f64)> {
    let universe = problem.cube().universe().max(1) as f64;
    let m = problem.pool_size();
    let k = eval.len();
    let current_cov = eval.coverage();
    let current_feasible = current_cov + 1e-12 >= target;
    let mut best: Option<(Move, f64)> = None;

    // The scan visits every candidate `k + 1` times per climb step; a
    // float division in the bound gate would dominate the whole sweep.
    // Both gate predicates are monotone in the integer covered count, so
    // they reduce to one integer threshold each, derived once here: a
    // float guess locally adjusted against the *original* predicate, so
    // every decision stays bit-identical to the division form
    // (`(a + b) as f64` and `a as f64 + b as f64` agree exactly for
    // integer counts).
    let max_count = 2 * problem.cube().universe() + 2;
    let int_threshold = |guess: f64, passes: &dyn Fn(usize) -> bool| -> usize {
        let mut t = (guess.max(0.0) as usize).min(max_count);
        while t > 0 && passes(t - 1) {
            t -= 1;
        }
        while t < max_count && !passes(t) {
            t += 1;
        }
        // `t == max_count` means "no reachable count passes": every
        // gated sum is at most `2 · universe < max_count`.
        t
    };
    // `x ≥ target_min  ⟺  x/universe + 1e-12 ≥ target`.
    let target_min = int_threshold(target * universe, &|x| {
        x as f64 / universe + 1e-12 >= target
    });

    if current_feasible {
        // Feasible phase: only the objective is compared.
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
        // The scans read candidate supports from the problem's columnar
        // `cand_support` array (L1-resident) instead of striding the fat
        // `CandidateGroup` structs — several times less memory touched
        // per sweep.
        let supports = &problem.cand_support;
        for pos in 0..k {
            // The rest-union count decides drops exactly and bounds swaps
            // from both sides: rest alone feasible ⇒ every swap at this
            // slot is feasible; rest plus the candidate's support short of
            // the target ⇒ the swap is provably infeasible. Only the
            // narrow in-between band pays for an exact union count.
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
                // Objective first: a candidate that does not beat both
                // the current objective and the best move found so far
                // can never be selected, so only objective
                // record-breakers pay for an exact coverage probe. The
                // accepted set (feasible ∧ better) is a conjunction —
                // evaluating it in this order picks the same move.
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
        // Adds never shrink the union, so they inherit feasibility.
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

    // Infeasible phase: coverage drives the climb. A move improves iff
    // it reaches feasibility or strictly raises coverage; drops (whose
    // union can only shrink) are never improving, and a swap or add
    // whose disjoint-union *upper* bound — the other members' rest count
    // plus the candidate's support — cannot beat the current coverage can
    // never improve.
    //
    // `x ≥ beats_min  ⟺  x/universe > current_cov + 1e-12` (the strict
    // complement of the old `upper <= current_cov + 1e-12` skip).
    let beats_min = int_threshold(current_cov * universe, &|x| {
        x as f64 / universe > current_cov + 1e-12
    });
    // Most candidates fail that bound, so the scan never visits them:
    // the candidates with `base + support ≥ beats_min` are a prefix of
    // the problem's support order, found by one binary search per slot.
    // That order is not index order, so a record needs a tie-break:
    // among improving moves of maximal objective, the one earliest in
    // the index-order scan (slot-major, then candidate index, adds last)
    // wins — `key` is that scan position.
    let mut best_key = (usize::MAX, usize::MAX);
    for slot in 0..=k {
        let base = if slot < k {
            eval.probe_covered(Move::Drop { pos: slot })
        } else if k < problem.max_groups {
            eval.covered_count()
        } else {
            break;
        };
        for &candidate in problem.support_at_least(beats_min.saturating_sub(base)) {
            let candidate = candidate as usize;
            if eval.contains(candidate) {
                continue;
            }
            let mv = if slot < k {
                Move::Swap {
                    pos: slot,
                    candidate,
                }
            } else {
                Move::Add { candidate }
            };
            // Objective first, as in the feasible phase: only record
            // contenders pay for an exact coverage probe (accepting
            // requires improving ∧ better, a conjunction — same move
            // either order).
            *evaluations += 1;
            let obj = eval.probe_objective(task, mv);
            let key = (slot, candidate);
            let better = match best {
                None => true,
                Some((_, best_obj)) => obj > best_obj || (obj == best_obj && key < best_key),
            };
            if better {
                let cov_count = eval.probe_covered(mv);
                if cov_count >= target_min || cov_count >= beats_min {
                    best = Some((mv, obj));
                    best_key = key;
                }
            }
        }
    }

    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use maprat_cube::{CubeOptions, RatingCube};
    use maprat_data::synth::{generate, SynthConfig};

    fn fixture(seed: u64, geo: bool) -> (maprat_data::Dataset, RatingCube) {
        let dataset = generate(&SynthConfig::tiny(seed)).unwrap();
        let item = dataset.find_title("Toy Story").unwrap();
        let idx: Vec<u32> = dataset.rating_range_for_item(item).collect();
        let cube = RatingCube::build(
            &dataset,
            idx,
            CubeOptions {
                min_support: 3,
                require_geo: geo,
                max_arity: 3,
            },
        );
        (dataset, cube)
    }

    #[test]
    fn solutions_respect_constraints() {
        let (_, cube) = fixture(71, false);
        let p = MiningProblem::new(&cube, 3, 0.3, 0.5);
        for task in Task::ALL {
            let s = solve(&p, task, &RheParams::default()).unwrap();
            assert!(s.indices.len() <= 3);
            if s.meets_coverage {
                assert!(s.coverage + 1e-9 >= 0.3);
            }
            let unique: std::collections::HashSet<_> = s.indices.iter().collect();
            assert_eq!(unique.len(), s.indices.len(), "no duplicate groups");
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let (_, cube) = fixture(72, false);
        let p = MiningProblem::new(&cube, 3, 0.2, 0.5);
        let a = solve(&p, Task::Similarity, &RheParams::default()).unwrap();
        let b = solve(&p, Task::Similarity, &RheParams::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_restarts_match_single_thread_bit_for_bit() {
        let (_, cube) = fixture(78, false);
        let p = MiningProblem::new(&cube, 3, 0.25, 0.5);
        let params = RheParams {
            restarts: 7,
            ..Default::default()
        };
        for task in Task::ALL {
            let (single, single_stats) = solve_with_threads(&p, task, &params, 1).unwrap();
            for threads in [2, 4, 16] {
                let (multi, multi_stats) = solve_with_threads(&p, task, &params, threads).unwrap();
                assert_eq!(single, multi, "{task:?} diverged at {threads} threads");
                assert_eq!(single_stats, multi_stats, "{task:?} telemetry diverged");
            }
        }
    }

    #[test]
    fn more_restarts_never_hurt() {
        let (_, cube) = fixture(73, false);
        let p = MiningProblem::new(&cube, 3, 0.2, 0.5);
        let few = solve(
            &p,
            Task::Similarity,
            &RheParams {
                restarts: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let many = solve(
            &p,
            Task::Similarity,
            &RheParams {
                restarts: 16,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(many.objective >= few.objective - 1e-12);
    }

    #[test]
    fn unachievable_coverage_relaxes() {
        let (_, cube) = fixture(74, true);
        // α = 0.999 with k = 1 group is unachievable on geo candidates.
        let p = MiningProblem::new(&cube, 1, 0.999, 0.5);
        let s = solve(&p, Task::Similarity, &RheParams::default()).unwrap();
        assert!(!s.meets_coverage);
        assert!(!s.indices.is_empty());
    }

    #[test]
    fn empty_pool_returns_none() {
        let dataset = generate(&SynthConfig::tiny(75)).unwrap();
        let cube = RatingCube::build(&dataset, Vec::new(), CubeOptions::default());
        let p = MiningProblem::new(&cube, 3, 0.2, 0.5);
        assert!(solve(&p, Task::Similarity, &RheParams::default()).is_none());
    }

    #[test]
    fn diversity_solutions_actually_disagree() {
        let dataset = generate(&SynthConfig::small(76)).unwrap();
        let item = dataset.find_title("The Twilight Saga: Eclipse").unwrap();
        let idx: Vec<u32> = dataset.rating_range_for_item(item).collect();
        let cube = RatingCube::build(
            &dataset,
            idx,
            CubeOptions {
                min_support: 5,
                require_geo: false,
                max_arity: 2,
            },
        );
        let p = MiningProblem::new(&cube, 2, 0.1, 0.5);
        let s = solve(&p, Task::Diversity, &RheParams::default()).unwrap();
        assert_eq!(s.indices.len(), 2);
        let means: Vec<f64> = s.indices.iter().map(|&i| cube.groups()[i].mean()).collect();
        assert!(
            (means[0] - means[1]).abs() > 1.5,
            "planted controversy should yield a wide gap, got {means:?}"
        );
    }

    #[test]
    fn telemetry_counts_work() {
        let (_, cube) = fixture(77, false);
        let p = MiningProblem::new(&cube, 3, 0.2, 0.5);
        let (_, stats) = solve_with_stats(&p, Task::Similarity, &RheParams::default()).unwrap();
        assert_eq!(stats.restarts, RheParams::default().restarts);
        assert!(stats.evaluations > stats.restarts);
    }

    #[test]
    fn budget_solve_matches_unbudgeted_solve_bit_for_bit() {
        let (_, cube) = fixture(79, false);
        let p = MiningProblem::new(&cube, 3, 0.25, 0.5);
        let params = RheParams::default();
        for task in Task::ALL {
            let plain = solve_with_stats(&p, task, &params).unwrap();
            let generous = Budget::from_deadline_ms(120_000);
            let budgeted = solve_with_stats_budget(&p, task, &params, &generous)
                .expect("generous deadline must not expire")
                .unwrap();
            assert_eq!(plain, budgeted, "{task:?} diverged under a live budget");
        }
    }

    #[test]
    fn expired_budget_aborts_with_deadline_exceeded() {
        let (_, cube) = fixture(80, false);
        let p = MiningProblem::new(&cube, 3, 0.25, 0.5);
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        for task in Task::ALL {
            let r = solve_with_stats_budget(&p, task, &RheParams::default(), &expired);
            assert_eq!(r, Err(MineError::DeadlineExceeded));
        }
        // Empty pools still report "no candidates" (None), not a timeout.
        let dataset = generate(&SynthConfig::tiny(75)).unwrap();
        let empty = RatingCube::build(&dataset, Vec::new(), CubeOptions::default());
        let p = MiningProblem::new(&empty, 3, 0.2, 0.5);
        assert_eq!(
            solve_with_stats_budget(&p, Task::Similarity, &RheParams::default(), &expired),
            Ok(None)
        );
    }

    #[test]
    fn restart_seeds_are_decorrelated() {
        let s: std::collections::HashSet<u64> = (0..64).map(|r| restart_seed(0xCAFE, r)).collect();
        assert_eq!(s.len(), 64, "restart seeds must not collide");
        assert_ne!(restart_seed(1, 0), restart_seed(2, 0));
    }
}
