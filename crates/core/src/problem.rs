//! The SM/DM optimization problems over a candidate pool (§2.2).
//!
//! A solution is a subset `S` of the cube's candidate groups with
//! `|S| ≤ k`, subject to the *coverage constraint*
//! `|∪_{g∈S} cover(g)| ≥ α·|R_I|`. The objective depends on the task:
//!
//! * **Similarity**: maximize `1 − err(S)/4`, where `err(S)` is the mean
//!   absolute deviation of covered ratings from their group averages
//!   (ratings covered by several selected groups count once per group, as
//!   in the MRI description-error formulation);
//! * **Diversity**: maximize the mean pairwise gap between group averages,
//!   normalized to `[0, 1]`, minus `λ · err(S)/4` so that disagreeing
//!   groups are still internally consistent.

use maprat_cube::{Bitmap, CandidateGroup, RatingCube};
use std::sync::Mutex;

/// Which of the two mining sub-problems to solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Similarity Mining: groups that rate consistently.
    Similarity,
    /// Diversity Mining: groups that disagree with each other.
    Diversity,
}

impl Task {
    /// Both tasks.
    pub const ALL: [Task; 2] = [Task::Similarity, Task::Diversity];

    /// Display name as used in the UI tabs.
    pub fn name(self) -> &'static str {
        match self {
            Task::Similarity => "Similarity Mining",
            Task::Diversity => "Diversity Mining",
        }
    }
}

/// A mining problem instance: candidate pool + constraints.
///
/// Construction precomputes per-candidate scalars (support, mean, mean
/// absolute deviation) and the descending-support candidate order, so the
/// solver's inner loops and [`max_achievable_coverage`] never re-derive
/// them from the cube's aggregates.
///
/// [`max_achievable_coverage`]: MiningProblem::max_achievable_coverage
pub struct MiningProblem<'a> {
    cube: &'a RatingCube,
    /// Group budget `k`.
    pub max_groups: usize,
    /// Coverage constraint `α`.
    pub min_coverage: f64,
    /// DM consistency penalty `λ`.
    pub dm_lambda: f64,
    /// Per-candidate `stats.count()` as `f64`.
    pub(crate) cand_n: Vec<f64>,
    /// Per-candidate `stats.count()` as integers — the solver's bound
    /// gates compare these against precomputed integer thresholds (one
    /// add + compare per scanned candidate, no float division).
    pub(crate) cand_support: Vec<u32>,
    /// Per-candidate mean absolute deviation.
    pub(crate) cand_mad: Vec<f64>,
    /// Per-candidate mean rating.
    pub(crate) cand_mean: Vec<f64>,
    /// Candidate indexes by descending support, ties by ascending index:
    /// the candidates with support `≥ s` are a prefix of this order (see
    /// [`MiningProblem::support_at_least`]).
    support_order: Vec<u32>,
    /// `sorted_support[j]` = support of `support_order[j]` (descending).
    sorted_support: Vec<u32>,
    /// Sparse cover word entries, all candidates concatenated: candidate
    /// `i` owns `word_idx/word_bits[word_offsets[i]..word_offsets[i+1]]`
    /// — only its covers' *non-zero* blocks. Coverage probes intersect
    /// these few entries against the scratch unions instead of streaming
    /// every candidate's full dense bitmap per scan.
    word_idx: Vec<u32>,
    word_bits: Vec<u64>,
    word_offsets: Vec<u32>,
    /// Reusable union scratch for [`coverage`](MiningProblem::coverage), so
    /// the cold path stops allocating a fresh bitmap per call.
    cover_scratch: Mutex<Bitmap>,
}

impl<'a> MiningProblem<'a> {
    /// Creates a problem over a materialized cube.
    pub fn new(cube: &'a RatingCube, max_groups: usize, min_coverage: f64, dm_lambda: f64) -> Self {
        let groups = cube.groups();
        let cand_n: Vec<f64> = groups.iter().map(|g| g.stats.count() as f64).collect();
        let cand_support: Vec<u32> = groups.iter().map(|g| g.support() as u32).collect();
        let cand_mad: Vec<f64> = groups
            .iter()
            .map(|g| g.stats.mean_abs_deviation().unwrap_or(0.0))
            .collect();
        let cand_mean: Vec<f64> = groups
            .iter()
            .map(|g| g.stats.mean().unwrap_or(0.0))
            .collect();
        // One plain integer sort: the key packs the complemented support
        // (so larger supports sort first) above the candidate index (so
        // ties keep ascending index order).
        let mut keys: Vec<u64> = cand_support
            .iter()
            .enumerate()
            .map(|(i, &s)| (u64::from(!s) << 32) | i as u64)
            .collect();
        keys.sort_unstable();
        let support_order: Vec<u32> = keys.iter().map(|&key| key as u32).collect();
        let sorted_support: Vec<u32> = keys.iter().map(|&key| !((key >> 32) as u32)).collect();
        let mut word_idx: Vec<u32> = Vec::new();
        let mut word_bits: Vec<u64> = Vec::new();
        let mut word_offsets: Vec<u32> = Vec::with_capacity(groups.len() + 1);
        word_offsets.push(0);
        for g in groups {
            g.cover.for_each_set_word(|w, bits| {
                word_idx.push(w as u32);
                word_bits.push(bits);
            });
            word_offsets.push(word_idx.len() as u32);
        }
        MiningProblem {
            cube,
            max_groups,
            min_coverage,
            dm_lambda,
            cand_n,
            cand_support,
            cand_mad,
            cand_mean,
            support_order,
            sorted_support,
            word_idx,
            word_bits,
            word_offsets,
            cover_scratch: Mutex::new(Bitmap::new(cube.universe())),
        }
    }

    /// `|cover(candidate) \ base|` where `base` is a union scratch's raw
    /// blocks: the number of positions the candidate would add to it.
    /// Exactly `base.union_count(cover) - base.count()`, but it touches
    /// only the candidate's non-zero blocks — candidate covers are
    /// sparse, so a scan over the pool streams a fraction of the bytes
    /// the dense unions would.
    #[inline]
    pub(crate) fn missing_count(&self, candidate: usize, base: &[u64]) -> usize {
        let range =
            self.word_offsets[candidate] as usize..self.word_offsets[candidate + 1] as usize;
        let mut missing = 0usize;
        for (&w, &bits) in self.word_idx[range.clone()]
            .iter()
            .zip(&self.word_bits[range])
        {
            debug_assert!((w as usize) < base.len(), "cover block outside universe");
            // SAFETY: every entry's block index comes from a cover of the
            // same universe as `base` (both `ceil(universe/64)` blocks),
            // so `w < base.len()` by construction. This probe runs ~10⁵
            // times per solve; the bounds check is measurable.
            missing += (bits & !unsafe { *base.get_unchecked(w as usize) }).count_ones() as usize;
        }
        missing
    }

    /// The candidates whose support is at least `min_support`, by
    /// descending support and then ascending index — one binary search
    /// over the presorted order, so a bound-gated scan visits only the
    /// candidates that pass its gate.
    #[inline]
    pub(crate) fn support_at_least(&self, min_support: usize) -> &[u32] {
        let len = self
            .sorted_support
            .partition_point(|&s| s as usize >= min_support);
        &self.support_order[..len]
    }

    /// Precomputed `(count, mean absolute deviation, mean)` of candidate
    /// `i` — the scalars every incremental probe combines.
    #[inline]
    pub(crate) fn cand(&self, i: usize) -> (f64, f64, f64) {
        (self.cand_n[i], self.cand_mad[i], self.cand_mean[i])
    }

    /// The task score assembled from running aggregates: `err_weighted` /
    /// `err_total` are the description-error sums `Σ n·mad` / `Σ n`, and
    /// `pair_sum` is `Σ_{i<j} |mean_i − mean_j|` over the `k` members.
    /// Single source of truth shared by the naive evaluation below and the
    /// incremental [`SelectionEval`](crate::eval::SelectionEval).
    pub(crate) fn score_from_parts(
        &self,
        task: Task,
        k: usize,
        err_weighted: f64,
        err_total: f64,
        pair_sum: f64,
    ) -> f64 {
        let err = if err_total == 0.0 {
            0.0
        } else {
            err_weighted / err_total
        };
        match task {
            Task::Similarity => 1.0 - err / 4.0,
            Task::Diversity => {
                let gap = if k < 2 {
                    0.0
                } else {
                    pair_sum / (k * (k - 1) / 2) as f64 / 4.0
                };
                gap - self.dm_lambda * err / 4.0
            }
        }
    }

    /// The candidate pool.
    pub fn candidates(&self) -> &[CandidateGroup] {
        self.cube.groups()
    }

    /// The cube the problem ranges over.
    pub fn cube(&self) -> &RatingCube {
        self.cube
    }

    /// Number of candidates.
    pub fn pool_size(&self) -> usize {
        self.cube.len()
    }

    /// The effective selection size: `min(k, pool)`.
    pub fn selection_size(&self) -> usize {
        self.max_groups.min(self.pool_size())
    }

    /// Union cover of a selection, written into `scratch` (cleared first).
    pub fn union_into(&self, selection: &[usize], scratch: &mut Bitmap) {
        scratch.clear();
        for &i in selection {
            scratch.union_with(&self.cube.groups()[i].cover);
        }
    }

    /// Coverage fraction of a selection.
    ///
    /// Reuses an internal union scratch (no allocation per call); callers
    /// on the solver's hot path should use the incremental
    /// [`SelectionEval`](crate::eval::SelectionEval) instead.
    pub fn coverage(&self, selection: &[usize]) -> f64 {
        if self.cube.universe() == 0 {
            return 0.0;
        }
        let mut scratch = self
            .cover_scratch
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        self.union_into(selection, &mut scratch);
        scratch.count() as f64 / self.cube.universe() as f64
    }

    /// Whether a selection satisfies both constraints.
    pub fn is_feasible(&self, selection: &[usize]) -> bool {
        selection.len() <= self.max_groups && self.coverage(selection) + 1e-12 >= self.min_coverage
    }

    /// The description error `err(S) ∈ [0, 4]`: covered-rating-weighted
    /// mean absolute deviation from group averages.
    pub fn description_error(&self, selection: &[usize]) -> f64 {
        let mut weighted = 0.0;
        let mut total = 0.0;
        for &i in selection {
            weighted += self.cand_mad[i] * self.cand_n[i];
            total += self.cand_n[i];
        }
        if total == 0.0 {
            0.0
        } else {
            weighted / total
        }
    }

    /// The similarity score `1 − err/4 ∈ [0, 1]` (higher = more consistent).
    pub fn similarity_score(&self, selection: &[usize]) -> f64 {
        1.0 - self.description_error(selection) / 4.0
    }

    /// Mean pairwise disagreement between group averages, normalized to
    /// `[0, 1]`. Zero for selections of fewer than two groups.
    pub fn diversity_gap(&self, selection: &[usize]) -> f64 {
        if selection.len() < 2 {
            return 0.0;
        }
        let mut sum = 0.0;
        let mut pairs = 0usize;
        for i in 0..selection.len() {
            for j in i + 1..selection.len() {
                sum += (self.cand_mean[selection[i]] - self.cand_mean[selection[j]]).abs();
                pairs += 1;
            }
        }
        sum / pairs as f64 / 4.0
    }

    /// The diversity score `gap − λ·err/4` (may be negative for terrible
    /// selections; normalized components keep λ interpretable).
    pub fn diversity_score(&self, selection: &[usize]) -> f64 {
        self.diversity_gap(selection) - self.dm_lambda * self.description_error(selection) / 4.0
    }

    /// The task objective (always maximized).
    pub fn objective(&self, task: Task, selection: &[usize]) -> f64 {
        match task {
            Task::Similarity => self.similarity_score(selection),
            Task::Diversity => self.diversity_score(selection),
        }
    }

    /// Provable upper bound on achievable coverage with `k` groups: the
    /// sum of the `k` largest supports (which over-counts overlaps),
    /// capped at 1.
    ///
    /// Used to detect provably infeasible constraint combinations before
    /// searching; when the bound is met the constraint may still be
    /// unachievable, in which case the solver reports
    /// `meets_coverage = false` on its best effort.
    ///
    /// `O(k)`: the supports are sorted once at construction instead of
    /// cloning and sorting the pool per call.
    pub fn max_achievable_coverage(&self) -> f64 {
        if self.cube.universe() == 0 {
            return 0.0;
        }
        let top: usize = self.sorted_support[..self.selection_size()]
            .iter()
            .map(|&s| s as usize)
            .sum();
        (top as f64 / self.cube.universe() as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maprat_cube::CubeOptions;
    use maprat_data::synth::{generate, SynthConfig};
    use maprat_data::Dataset;

    fn setup() -> (Dataset, RatingCube) {
        let dataset = generate(&SynthConfig::tiny(51)).unwrap();
        let item = dataset.find_title("Toy Story").unwrap();
        let idx: Vec<u32> = dataset.rating_range_for_item(item).collect();
        let cube = RatingCube::build(
            &dataset,
            idx,
            CubeOptions {
                min_support: 3,
                require_geo: false,
                max_arity: 2,
            },
        );
        (dataset, cube)
    }

    #[test]
    fn coverage_matches_union_oracle() {
        let (_, cube) = setup();
        let p = MiningProblem::new(&cube, 3, 0.2, 0.5);
        let sel = vec![0, 1.min(cube.len() - 1)];
        let mut union = Bitmap::new(cube.universe());
        for &i in &sel {
            union.union_with(&cube.groups()[i].cover);
        }
        let expected = union.count() as f64 / cube.universe() as f64;
        assert!((p.coverage(&sel) - expected).abs() < 1e-12);
    }

    #[test]
    fn similarity_prefers_consistent_groups() {
        let (_, cube) = setup();
        let p = MiningProblem::new(&cube, 1, 0.0, 0.5);
        // Find the most and least consistent candidates.
        let mut best = 0;
        let mut worst = 0;
        for (i, g) in cube.groups().iter().enumerate() {
            let mad = g.stats.mean_abs_deviation().unwrap();
            if mad < cube.groups()[best].stats.mean_abs_deviation().unwrap() {
                best = i;
            }
            if mad > cube.groups()[worst].stats.mean_abs_deviation().unwrap() {
                worst = i;
            }
        }
        assert!(p.similarity_score(&[best]) >= p.similarity_score(&[worst]));
        assert!((0.0..=1.0).contains(&p.similarity_score(&[best])));
    }

    #[test]
    fn diversity_needs_two_groups() {
        let (_, cube) = setup();
        let p = MiningProblem::new(&cube, 3, 0.0, 0.0);
        assert_eq!(p.diversity_gap(&[0]), 0.0);
        if cube.len() >= 2 {
            assert!(p.diversity_gap(&[0, 1]) >= 0.0);
        }
    }

    #[test]
    fn diversity_gap_matches_pairwise_oracle() {
        let (_, cube) = setup();
        assert!(cube.len() >= 3);
        let p = MiningProblem::new(&cube, 3, 0.0, 0.0);
        let sel = [0usize, 1, 2];
        let m: Vec<f64> = sel.iter().map(|&i| cube.groups()[i].mean()).collect();
        let oracle = ((m[0] - m[1]).abs() + (m[0] - m[2]).abs() + (m[1] - m[2]).abs()) / 3.0 / 4.0;
        assert!((p.diversity_gap(&sel) - oracle).abs() < 1e-12);
    }

    #[test]
    fn lambda_penalizes_inconsistency() {
        let (_, cube) = setup();
        let strict = MiningProblem::new(&cube, 3, 0.0, 2.0);
        let lax = MiningProblem::new(&cube, 3, 0.0, 0.0);
        let sel = [0usize, 1];
        assert!(strict.diversity_score(&sel) <= lax.diversity_score(&sel));
    }

    #[test]
    fn feasibility_checks_both_constraints() {
        let (_, cube) = setup();
        let p = MiningProblem::new(&cube, 2, 0.0, 0.5);
        assert!(p.is_feasible(&[0]));
        assert!(!p.is_feasible(&[0, 1, 2]), "k violated");
        let tight = MiningProblem::new(&cube, 1, 0.99, 0.5);
        // A single 1-arity group rarely covers 99%.
        let small = (0..cube.len())
            .min_by_key(|&i| cube.groups()[i].support())
            .unwrap();
        assert!(!tight.is_feasible(&[small]));
    }

    #[test]
    fn max_achievable_coverage_bounds_everything() {
        let (_, cube) = setup();
        let p = MiningProblem::new(&cube, 3, 0.2, 0.5);
        let bound = p.max_achievable_coverage();
        for i in 0..cube.len().min(10) {
            for j in 0..cube.len().min(10) {
                for l in 0..cube.len().min(10) {
                    let c = p.coverage(&[i, j, l]);
                    assert!(c <= bound + 1e-9, "{c} > {bound}");
                }
            }
        }
    }

    #[test]
    fn description_error_weighted_by_cover_size() {
        let (_, cube) = setup();
        let p = MiningProblem::new(&cube, 3, 0.0, 0.5);
        let sel = [0usize, 1];
        let g0 = &cube.groups()[0];
        let g1 = &cube.groups()[1];
        let n0 = g0.stats.count() as f64;
        let n1 = g1.stats.count() as f64;
        let oracle = (g0.stats.mean_abs_deviation().unwrap() * n0
            + g1.stats.mean_abs_deviation().unwrap() * n1)
            / (n0 + n1);
        assert!((p.description_error(&sel) - oracle).abs() < 1e-12);
    }
}
