//! Profile summaries: the builder's scan and roll-up, and incremental
//! cube maintenance over retained summaries.
//!
//! The builder's profile scan produces an options-independent
//! intermediate — the distinct reviewer profiles of a rating universe,
//! each with its score histogram and sparse cover word pattern.
//! [`ProfileSummary`] holds it, and its roll-up turns it into a
//! fill-ready plan under any [`CubeOptions`].
//!
//! # Cost model
//!
//! Nothing here is sized by the reviewer schema's cell count (14 994
//! base cells; 26 928 over the 8 geo cuboids):
//!
//! * the **scan** is `O(|R_I|)`: a gather plus a two-pass LSD radix sort
//!   of the positions on their 15-bit packed code (two 256-bucket
//!   histograms), then one walk that cuts the profile runs. A profile's
//!   code is read off a member position;
//! * the **roll-up** is BUC-style recursive partitioning over the `P`
//!   distinct profiles. Each step counting-sorts one cell's profiles by
//!   the next attribute, and cells below the iceberg threshold are pruned
//!   with their whole subtree. Work is `O(P × cuboids)` plus the
//!   surviving cells' buckets. Each survivor records its member profiles
//!   (a run of profile indexes) instead of a cell → slot table;
//! * the **fill** walks each survivor's members, so profiles in pruned
//!   cells are never visited; the delta fill marks the appended profiles
//!   by binary search into the merged summary and walks the same lists.
//!
//! A retained summary can be maintained instead of recomputed:
//!
//! * [`ProfileSummary::append`] runs the scan over only the
//!   *appended* positions and merges the new distinct profiles in — the
//!   live-ingest delta path (cost scales with the batch, not the
//!   universe);
//! * [`ProfileSummary::merge`] concatenates partition summaries with
//!   bit-exact word realignment — the time slider mines a window by
//!   merging its month partitions instead of re-streaming ratings;
//! * [`ProfileSummary::build_reusing`] rebuilds a cube after an append
//!   while **reusing the previous cube's cover chunks**: unchanged
//!   chunks are re-shared wholesale (`Arc` bump, zero copy), changed
//!   survivors copy their old cover and OR only the delta word entries
//!   (copy-on-write at chunk granularity).
//!
//! Every path is pinned bit-identical to a from-scratch
//! [`RatingCube::build`] — and therefore to the retained naive
//! [`crate::oracle`] — by property tests over random append sequences.
//!
//! The maintained universe is *commit-major*: the initial universe keeps
//! its (item-major) order and every commit's matching ratings append at
//! the tail. All mined quantities (counts, histograms, coverage unions)
//! are invariant under universe permutation, so a commit-major cube
//! mines identically to a freshly collected one.

use crate::bitmap::{
    alloc_chunk, seal_chunk, sparse_cover_eligible, Bitmap, PooledBlocks, SparseStore,
};
use crate::builder::{CandidateGroup, CubeOptions, CubePlan, CuboidPass, RatingCube, CHUNK_WORDS};
use crate::group::GroupDesc;
use crate::lattice::{attribute_subsets, geo_cuboids, Cuboid};
use maprat_data::{Dataset, IndexRemap, PackedUserCode, RatingIdx, RatingStats, UserAttr};
use maprat_pool::{num_threads, parallel_map};
use std::sync::Arc;

/// The retained scan state of one rating universe: its distinct
/// reviewer profiles in ascending packed-code order, each with the number
/// of covered positions, a score histogram and a sparse cover word
/// pattern (CSR over `u64` cover blocks).
///
/// Everything a cube build needs downstream of the per-rating scan lives
/// here, so a summary can be built once and re-materialized under any
/// [`CubeOptions`] — or maintained incrementally via [`append`] and
/// [`merge`] without ever rescanning old ratings.
///
/// [`append`]: ProfileSummary::append
/// [`merge`]: ProfileSummary::merge
#[derive(Debug, Clone, Default)]
pub struct ProfileSummary {
    /// Universe size (`rating_idx.len()`).
    universe: usize,
    /// Dataset rating indexes, in cover-position order.
    rating_idx: Vec<u32>,
    /// Packed reviewer code of each distinct profile, strictly ascending.
    codes: Vec<u16>,
    /// Number of universe positions carrying each profile.
    counts: Vec<u32>,
    /// Score histogram of each profile.
    hists: Vec<[u32; 5]>,
    /// Sparse cover word CSR: profile `k` ORs `word_bits[j]` into cover
    /// block `word_idx[j]` for `j ∈ word_offsets[k]..word_offsets[k+1]`;
    /// entries are strictly ascending by word within a profile.
    word_idx: Vec<u32>,
    word_bits: Vec<u64>,
    word_offsets: Vec<u32>,
    /// Score histogram over the whole universe.
    total_hist: [u64; 5],
}

/// The per-commit delta of an [`ProfileSummary::append`]: the appended
/// positions' profiles with word entries already in merged-universe
/// coordinates. [`ProfileSummary::build_reusing`] ORs exactly these
/// entries on top of the previous cube's covers.
#[derive(Debug, Clone)]
pub struct AppendDelta {
    /// Counting-pass state of the appended tail, word entries addressed
    /// in the merged universe (positions `old_universe..`).
    part: ProfileSummary,
    /// Universe size before the append.
    old_universe: usize,
}

impl AppendDelta {
    /// Number of appended positions.
    pub fn len(&self) -> usize {
        self.part.universe
    }

    /// True when the commit appended nothing to this universe.
    pub fn is_empty(&self) -> bool {
        self.part.universe == 0
    }
}

/// Pushes a word entry, folding into the previous entry when it lands in
/// the same cover block (the scratch scan folds consecutive same-word
/// runs, so maintained entry lists must too for bit-identity).
#[inline]
fn push_word(word_idx: &mut Vec<u32>, word_bits: &mut Vec<u64>, floor: usize, w: u32, bits: u64) {
    if word_idx.len() > floor && *word_idx.last().expect("non-empty") == w {
        *word_bits.last_mut().expect("non-empty") |= bits;
    } else {
        word_idx.push(w);
        word_bits.push(bits);
    }
}

/// Marks a merged profile that an append did not touch.
const NO_APPENDED: u32 = u32::MAX;

/// Bits of a packed survivor sort entry below the descriptor's sort key
/// (whose own value stays below 2^35): room for every cell of every
/// cuboid.
const ORDINAL_BITS: u32 = 24;

/// The attribute order of the roll-up's partitioning: decreasing
/// cardinality (51, 21, 7, 2), so coarse cells split into many small
/// ones early and the iceberg threshold prunes them before the deeper
/// steps. State coming first also makes the geo cuboids (every cuboid
/// containing state) exactly the subtree under the first step.
const ROLLUP_DIMS: [UserAttr; 4] = [
    UserAttr::State,
    UserAttr::Occupation,
    UserAttr::Age,
    UserAttr::Gender,
];

/// A cell the roll-up found at or above the iceberg threshold.
struct Survivor {
    desc: GroupDesc,
    /// Index of the cell's cuboid pass.
    pass: usize,
    /// Word entries of its member profiles, summed.
    entries: u32,
    /// Its member profiles: `start..end` of [`Rollup::members`].
    members: (u32, u32),
}

/// The roll-up of [`ProfileSummary::into_plan`]: a BUC-style recursive
/// partitioning (Beyer & Ramakrishnan, SIGMOD 1999) of the distinct
/// profiles. Each step counting-sorts one cell's profiles by the next
/// attribute (buckets sized by that attribute's cardinality), and every
/// non-empty bucket is a cell of the finer cuboid. A cell below the
/// iceberg threshold is pruned with its whole subtree (support only
/// shrinks as cells refine), so the work follows the profiles and the
/// surviving cells, never a cuboid's full cell range.
struct Rollup<'a> {
    codes: &'a [u16],
    counts: &'a [u32],
    word_offsets: &'a [u32],
    min_support: u32,
    max_arity: usize,
    /// Pass index of each cuboid (by attribute mask).
    pass_of: [usize; 16],
    /// The surviving cells, in discovery order.
    survivors: Vec<Survivor>,
    /// The member profiles of every survivor, one run per survivor.
    members: Vec<u32>,
    /// One profile-index buffer per refinement depth: the members of a
    /// depth-`d` cell sit in `levels[d]` at the same offsets their
    /// parent cell's members had in `levels[d − 1]`.
    levels: Vec<u32>,
}

/// Per-bucket totals of one partitioning step.
#[derive(Clone, Copy, Default)]
struct Bucket {
    profiles: u32,
    support: u32,
    entries: u32,
}

impl Rollup<'_> {
    /// Refines the cell of `cuboid` (fields `values`) whose members sit
    /// at `range` of depth `depth`'s buffer by each of the first
    /// `branch` attributes of `dims`, recursing into the surviving cells
    /// with the attributes after the one just added.
    fn expand(
        &mut self,
        depth: usize,
        range: std::ops::Range<usize>,
        cuboid: Cuboid,
        values: [u8; 4],
        dims: &[UserAttr],
        branch: usize,
    ) {
        let p = self.codes.len();
        let field =
            |code: u16, attr: UserAttr| usize::from(PackedUserCode::from_raw(code).field(attr));
        for (j, &attr) in dims.iter().enumerate().take(branch) {
            let card = attr.cardinality();
            let members = &self.levels[depth * p..][range.clone()];
            let mut buckets = [Bucket::default(); 64];
            for &k in members {
                let k = k as usize;
                let b = &mut buckets[field(self.codes[k], attr)];
                b.profiles += 1;
                b.support += self.counts[k];
                b.entries += self.word_offsets[k + 1] - self.word_offsets[k];
            }
            // Scatter the members into the next depth's buffer, at the
            // same offsets, grouped by the new attribute.
            let mut cursor = [0u32; 64];
            let mut sum = range.start as u32;
            for (cur, b) in cursor.iter_mut().zip(&buckets[..card]) {
                *cur = sum;
                sum += b.profiles;
            }
            let starts = cursor;
            let (lower, upper) = self.levels.split_at_mut((depth + 1) * p);
            let next = &mut upper[..p];
            for &k in &lower[depth * p..][range.clone()] {
                let v = field(self.codes[k as usize], attr);
                next[cursor[v] as usize] = k;
                cursor[v] += 1;
            }

            let child = Cuboid(cuboid.0 | 1 << attr.index());
            let rest = &dims[j + 1..];
            let recurse = !rest.is_empty() && (child.dimensionality() as usize) < self.max_arity;
            for (v, b) in buckets[..card].iter().enumerate() {
                if b.support < self.min_support {
                    continue;
                }
                let cell = starts[v] as usize..(starts[v] + b.profiles) as usize;
                let mut cell_values = values;
                cell_values[attr.index()] = v as u8;
                let start = self.members.len() as u32;
                self.members
                    .extend_from_slice(&self.levels[(depth + 1) * p..][cell.clone()]);
                self.survivors.push(Survivor {
                    desc: GroupDesc::from_raw_values(cell_values),
                    pass: self.pass_of[usize::from(child.0)],
                    entries: b.entries,
                    members: (start, self.members.len() as u32),
                });
                if recurse {
                    self.expand(depth + 1, cell, child, cell_values, rest, rest.len());
                }
            }
        }
    }
}

/// One stable counting-sort pass of a radix sort: scatters `src`
/// positions into `dst` by the 8-bit digit `codes[p] >> shift`, given
/// that digit's histogram. Equal digits keep their `src` order.
fn radix_scatter(
    codes: &[u16],
    src: impl Iterator<Item = u32>,
    digit_counts: &[u32; 256],
    shift: u32,
    dst: &mut [u32],
) {
    let mut cursor = [0u32; 256];
    let mut sum = 0u32;
    for (cur, &c) in cursor.iter_mut().zip(digit_counts) {
        *cur = sum;
        sum += c;
    }
    for p in src {
        let digit = usize::from((codes[p as usize] >> shift) & 0xFF);
        dst[cursor[digit] as usize] = p;
        cursor[digit] += 1;
    }
}

impl ProfileSummary {
    /// Runs the profile scan over a rating universe: gathers the packed
    /// code/score columns, radix-sorts positions by distinct reviewer
    /// profile, and materializes per-profile histograms and sparse cover
    /// word patterns. This is the scratch builder's first step
    /// ([`CubePlan::prepare`] delegates here).
    pub fn scan(dataset: &Dataset, rating_idx: Vec<u32>) -> ProfileSummary {
        Self::scan_with_offset(dataset, rating_idx, 0)
    }

    /// [`scan`](Self::scan) with cover positions numbered from
    /// `offset` — the append path scans only the new tail but addresses
    /// its word entries in merged-universe coordinates.
    fn scan_with_offset(dataset: &Dataset, rating_idx: Vec<u32>, offset: usize) -> ProfileSummary {
        let all_codes = dataset.rating_user_codes();
        let all_bins = dataset.rating_score_bins();
        let mut codes: Vec<u16> = Vec::with_capacity(rating_idx.len());
        let mut bins: Vec<u8> = Vec::with_capacity(rating_idx.len());
        let mut total_hist = [0u64; 5];
        // Digit histograms of the two radix passes, taken in the gather.
        let mut low_counts = [0u32; 256];
        let mut high_counts = [0u32; 256];
        for &ridx in &rating_idx {
            let i = RatingIdx(ridx).index();
            let code = all_codes[i];
            codes.push(code);
            low_counts[usize::from(code & 0xFF)] += 1;
            high_counts[usize::from(code >> 8)] += 1;
            let bin = all_bins[i];
            bins.push(bin);
            total_hist[usize::from(bin)] += 1;
        }
        let universe = codes.len();

        // Group positions by distinct reviewer profile: a stable two-pass
        // LSD radix sort on the packed code (low byte, then the high
        // seven bits), so positions stay ascending within a profile.
        let mut by_low = vec![0u32; universe];
        radix_scatter(&codes, 0..universe as u32, &low_counts, 0, &mut by_low);
        let mut positions = vec![0u32; universe];
        radix_scatter(
            &codes,
            by_low.iter().copied(),
            &high_counts,
            8,
            &mut positions,
        );
        drop(by_low);

        // One walk over the sorted positions cuts the profile runs and
        // builds each profile's histogram and sparse cover word pattern
        // (CSR); positions sharing a cover block fold into one entry.
        let mut profiles: Vec<u16> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let mut hists: Vec<[u32; 5]> = Vec::new();
        let mut word_idx: Vec<u32> = Vec::with_capacity(universe);
        let mut word_bits: Vec<u64> = Vec::with_capacity(universe);
        let mut word_offsets: Vec<u32> = vec![0];
        let mut current_word = u32::MAX;
        for &p in &positions {
            let code = codes[p as usize];
            if profiles.last() != Some(&code) {
                if !profiles.is_empty() {
                    word_offsets.push(word_idx.len() as u32);
                }
                profiles.push(code);
                counts.push(0);
                hists.push([0u32; 5]);
                current_word = u32::MAX;
            }
            *counts.last_mut().expect("just pushed") += 1;
            hists.last_mut().expect("just pushed")[usize::from(bins[p as usize])] += 1;
            let global = offset + p as usize;
            let w = (global / 64) as u32;
            if w != current_word {
                word_idx.push(w);
                word_bits.push(0);
                current_word = w;
            }
            *word_bits.last_mut().expect("just pushed") |= 1u64 << (global % 64);
        }
        if !profiles.is_empty() {
            word_offsets.push(word_idx.len() as u32);
        }

        ProfileSummary {
            universe,
            rating_idx,
            codes: profiles,
            counts,
            hists,
            word_idx,
            word_bits,
            word_offsets,
            total_hist,
        }
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of distinct reviewer profiles.
    pub fn num_profiles(&self) -> usize {
        self.codes.len()
    }

    /// The dataset rating indexes, in cover-position order.
    pub fn rating_indexes(&self) -> &[u32] {
        &self.rating_idx
    }

    /// Rewrites the retained dataset rating indexes after a commit
    /// shifted the dense rating column (splices by other items move
    /// later indexes). Cover positions are untouched — only the labels
    /// pointing back into the dataset change.
    pub fn remap_rating_indexes(&mut self, remap: &IndexRemap) {
        remap.remap_in_place(&mut self.rating_idx);
    }

    /// Profile scan over only the appended tail, merged into a new
    /// summary. Returns the merged summary plus the [`AppendDelta`] that
    /// [`build_reusing`](Self::build_reusing) needs to OR the new bits
    /// on top of an existing cube's covers.
    ///
    /// `appended_idx` are dataset rating indexes valid in `dataset`
    /// (call [`remap_rating_indexes`](Self::remap_rating_indexes) first
    /// if the commit shifted old indexes); their cover positions are
    /// `self.universe()..` in submission order.
    pub fn append(&self, dataset: &Dataset, appended_idx: &[u32]) -> (ProfileSummary, AppendDelta) {
        let part = Self::scan_with_offset(dataset, appended_idx.to_vec(), self.universe);
        let merged = Self::merge_adjacent(self, &part);
        (
            merged,
            AppendDelta {
                part,
                old_universe: self.universe,
            },
        )
    }

    /// Merges two summaries whose word entries already live in the same
    /// (concatenated) coordinate space: `right`'s positions start at
    /// `left.universe`.
    fn merge_adjacent(left: &ProfileSummary, right: &ProfileSummary) -> ProfileSummary {
        let mut rating_idx = Vec::with_capacity(left.universe + right.universe);
        rating_idx.extend_from_slice(&left.rating_idx);
        rating_idx.extend_from_slice(&right.rating_idx);
        let mut total_hist = left.total_hist;
        for (t, r) in total_hist.iter_mut().zip(&right.total_hist) {
            *t += r;
        }

        let n = left.codes.len() + right.codes.len();
        let mut codes = Vec::with_capacity(n);
        let mut counts = Vec::with_capacity(n);
        let mut hists = Vec::with_capacity(n);
        let mut word_idx = Vec::with_capacity(left.word_idx.len() + right.word_idx.len());
        let mut word_bits = Vec::with_capacity(word_idx.capacity());
        let mut word_offsets = Vec::with_capacity(n + 1);
        word_offsets.push(0u32);

        let (mut i, mut j) = (0usize, 0usize);
        while i < left.codes.len() || j < right.codes.len() {
            let take_left =
                j == right.codes.len() || (i < left.codes.len() && left.codes[i] <= right.codes[j]);
            let take_right =
                i == left.codes.len() || (j < right.codes.len() && right.codes[j] <= left.codes[i]);
            let floor = word_idx.len();
            if take_left {
                codes.push(left.codes[i]);
                counts.push(left.counts[i]);
                hists.push(left.hists[i]);
                let range = left.word_offsets[i] as usize..left.word_offsets[i + 1] as usize;
                word_idx.extend_from_slice(&left.word_idx[range.clone()]);
                word_bits.extend_from_slice(&left.word_bits[range]);
                i += 1;
            }
            if take_right {
                if !take_left {
                    codes.push(right.codes[j]);
                    counts.push(0);
                    hists.push([0u32; 5]);
                }
                let k = codes.len() - 1;
                counts[k] += right.counts[j];
                for (h, rh) in hists[k].iter_mut().zip(&right.hists[j]) {
                    *h += rh;
                }
                // Concatenate the right part's entries; the first may
                // land in the same cover block the left part ended in
                // (the boundary word) and must fold into it, exactly as
                // a scratch scan of the concatenation would.
                for e in right.word_offsets[j] as usize..right.word_offsets[j + 1] as usize {
                    push_word(
                        &mut word_idx,
                        &mut word_bits,
                        floor,
                        right.word_idx[e],
                        right.word_bits[e],
                    );
                }
                j += 1;
            }
            word_offsets.push(word_idx.len() as u32);
        }

        ProfileSummary {
            universe: left.universe + right.universe,
            rating_idx,
            codes,
            counts,
            hists,
            word_idx,
            word_bits,
            word_offsets,
            total_hist,
        }
    }

    /// Realigns every word entry to a universe where this summary's
    /// positions start at `offset` (bit-exact shift across block
    /// boundaries).
    fn shifted(&self, offset: usize) -> ProfileSummary {
        if offset == 0 {
            return self.clone();
        }
        let s = (offset % 64) as u32;
        let base = (offset / 64) as u32;
        let mut out = self.clone();
        out.word_idx = Vec::with_capacity(self.word_idx.len());
        out.word_bits = Vec::with_capacity(self.word_bits.len());
        out.word_offsets = Vec::with_capacity(self.word_offsets.len());
        out.word_offsets.push(0);
        for k in 0..self.codes.len() {
            let floor = out.word_idx.len();
            for e in self.word_offsets[k] as usize..self.word_offsets[k + 1] as usize {
                let w = self.word_idx[e] + base;
                let bits = self.word_bits[e];
                if s == 0 {
                    push_word(&mut out.word_idx, &mut out.word_bits, floor, w, bits);
                } else {
                    let lo = bits << s;
                    if lo != 0 {
                        push_word(&mut out.word_idx, &mut out.word_bits, floor, w, lo);
                    }
                    let hi = bits >> (64 - s);
                    if hi != 0 {
                        push_word(&mut out.word_idx, &mut out.word_bits, floor, w + 1, hi);
                    }
                }
            }
            out.word_offsets.push(out.word_idx.len() as u32);
        }
        out
    }

    /// Concatenates partition summaries into the summary of the combined
    /// universe (parts in order; positions of part `k` start at the sum
    /// of the earlier parts' universes).
    ///
    /// Bit-identical to [`scan`](Self::scan) over the concatenated
    /// rating-index list — the time slider merges month partitions
    /// through this instead of re-streaming their ratings.
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a ProfileSummary>) -> ProfileSummary {
        let mut acc = ProfileSummary::default();
        for part in parts {
            if part.universe == 0 {
                continue;
            }
            let shifted = part.shifted(acc.universe);
            acc = Self::merge_adjacent(&acc, &shifted);
        }
        acc
    }

    /// Materializes the cube for these profiles under `options` with the
    /// default worker count.
    pub fn build(&self, options: CubeOptions) -> RatingCube {
        self.build_with_threads(options, num_threads())
    }

    /// [`build`](Self::build) with an explicit worker budget.
    pub fn build_with_threads(&self, options: CubeOptions, threads: usize) -> RatingCube {
        self.clone().into_plan(options).fill(threads)
    }

    /// Rollup + iceberg threshold + slot assignment: turns the retained
    /// scan state into a fill-ready [`CubePlan`].
    ///
    /// The cuboids roll up from the distinct profiles by recursive
    /// partitioning ([`Rollup`]); the work follows the profiles and the
    /// surviving cells, never a cuboid's full cell range.
    pub(crate) fn into_plan(self, options: CubeOptions) -> CubePlan {
        let cuboids: Vec<Cuboid> = if options.require_geo {
            geo_cuboids()
        } else {
            attribute_subsets()
        }
        .into_iter()
        .filter(|c| {
            let d = c.dimensionality() as usize;
            d >= 1 && d <= options.max_arity
        })
        .collect();
        let mut pass_of = [usize::MAX; 16];
        for (ci, c) in cuboids.iter().enumerate() {
            pass_of[usize::from(c.0)] = ci;
        }

        // An empty cell can never become a candidate, so the effective
        // threshold is at least 1 (matching the naive builder, which
        // only ever saw touched cells).
        let p = self.codes.len();
        let mut rollup = Rollup {
            codes: &self.codes,
            counts: &self.counts,
            word_offsets: &self.word_offsets,
            min_support: u32::try_from(options.min_support.max(1)).unwrap_or(u32::MAX),
            max_arity: options.max_arity,
            pass_of,
            survivors: Vec::new(),
            members: Vec::new(),
            levels: vec![0; p * (ROLLUP_DIMS.len() + 1)],
        };
        if !cuboids.is_empty() {
            for (k, m) in rollup.levels[..p].iter_mut().enumerate() {
                *m = k as u32;
            }
            // Geo cuboids are the subtree under the first (state) step.
            let branch = if options.require_geo {
                1
            } else {
                ROLLUP_DIMS.len()
            };
            rollup.expand(0, 0..p, Cuboid::APEX, [0xFF; 4], &ROLLUP_DIMS, branch);
        }
        let Rollup {
            survivors, members, ..
        } = rollup;

        // Survivors ordered coarse-to-fine (arity, then descriptor) —
        // the deterministic candidate order. Keys are unique (a
        // descriptor identifies its cuboid), so the order is total; one
        // integer sort of (key, discovery ordinal) packs.
        debug_assert!(survivors.len() < 1 << ORDINAL_BITS);
        let mut order: Vec<u64> = survivors
            .iter()
            .enumerate()
            .map(|(o, s)| s.desc.sort_key() << ORDINAL_BITS | o as u64)
            .collect();
        order.sort_unstable();

        let mut passes: Vec<CuboidPass> = (0..cuboids.len())
            .map(|_| CuboidPass {
                members: Vec::new(),
                globals: Vec::new(),
                entry_offsets: vec![0],
            })
            .collect();
        let mut slot_descs = Vec::with_capacity(survivors.len());
        for (slot, &packed) in order.iter().enumerate() {
            let survivor = &survivors[(packed & ((1 << ORDINAL_BITS) - 1)) as usize];
            let pass = &mut passes[survivor.pass];
            pass.members.push(survivor.members);
            pass.globals.push(slot as u32);
            let last = *pass.entry_offsets.last().expect("starts at [0]");
            pass.entry_offsets.push(last + survivor.entries);
            slot_descs.push(survivor.desc);
        }

        CubePlan {
            rating_idx: self.rating_idx.into(),
            options,
            profiles: self.codes,
            members,
            profile_hists: self.hists,
            word_idx: self.word_idx,
            word_bits: self.word_bits,
            word_offsets: self.word_offsets,
            passes,
            slot_descs,
            total: RatingStats::from_histogram(self.total_hist),
        }
    }

    /// Rebuilds the cube after an [`append`](Self::append), reusing the
    /// previous cube's cover chunks instead of re-scattering the whole
    /// universe:
    ///
    /// * a chunk none of whose survivors gained bits (and whose block
    ///   geometry is unchanged) is **re-shared wholesale** — new cover
    ///   headers over the same `Arc`'d pool, zero copies;
    /// * a changed chunk is written copy-on-write: survivors that
    ///   existed before `memcpy` their old cover and OR only the
    ///   *delta* word entries; survivors newly above the iceberg
    ///   threshold scatter their full pattern.
    ///
    /// `prev` must be the cube built from this summary's pre-append
    /// state under the same `options` (support counts only grow under
    /// appends, so `prev`'s survivors are a subset of the new ones).
    /// The result is bit-identical to [`build`](Self::build) — pinned by
    /// the oracle property tests.
    pub fn build_reusing(
        &self,
        delta: &AppendDelta,
        prev: &RatingCube,
        options: CubeOptions,
        threads: usize,
    ) -> RatingCube {
        assert_eq!(
            prev.options(),
            &options,
            "delta maintenance requires the previous cube's options"
        );
        assert_eq!(
            delta.old_universe + delta.part.universe,
            self.universe,
            "delta does not extend the previous universe to this one"
        );
        let plan = self.clone().into_plan(options);
        fill_reusing(plan, delta, prev, threads)
    }
}

/// Whether `prev`'s covers for the new-layout dense survivors in `chunk`
/// (all unchanged, geometry-stable) are exactly consecutive windows of
/// one shared pool — in which case that pool can back the new chunk
/// wholesale.
fn wholesale_pool<'a>(
    prev: &'a RatingCube,
    prev_of: &[Option<usize>],
    chunk: &[u32],
    words: usize,
) -> Option<&'a Arc<PooledBlocks>> {
    let first = prev.groups()[prev_of[chunk[0] as usize]?]
        .cover
        .shared_parts()?;
    if first.1 != 0 || first.2 != words {
        return None;
    }
    for (li, &l) in chunk.iter().enumerate().skip(1) {
        let (pool, start, w) = prev.groups()[prev_of[l as usize]?].cover.shared_parts()?;
        if !Arc::ptr_eq(pool, first.0) || start != li * words || w != words {
            return None;
        }
    }
    Some(first.0)
}

/// The fill pass of [`ProfileSummary::build_reusing`]: identical slot
/// assignment and output to [`CubePlan::fill`], but covers come from the
/// previous cube wherever possible.
fn fill_reusing(
    plan: CubePlan,
    delta: &AppendDelta,
    prev: &RatingCube,
    threads: usize,
) -> RatingCube {
    let universe = plan.rating_idx.len();
    let words = universe.div_ceil(64).max(1);
    let old_words = delta.old_universe.div_ceil(64).max(1);
    let same_geometry = words == old_words;
    let dpart = &delta.part;
    // Each merged profile's index among the appended profiles
    // (`NO_APPENDED` = the commit added no rating with that profile).
    let mut appended = vec![NO_APPENDED; plan.profiles.len()];
    for (di, code) in dpart.codes.iter().enumerate() {
        let k = plan
            .profiles
            .binary_search(code)
            .expect("the merged summary holds every appended profile");
        appended[k] = di as u32;
    }

    let filled: Vec<(Vec<Bitmap>, Vec<[u32; 5]>)> =
        parallel_map(plan.passes.len(), threads, |ci| {
            let pass = &plan.passes[ci];
            let n = pass.globals.len();
            let mut hists = vec![[0u32; 5]; n];
            if n == 0 {
                return (Vec::new(), hists);
            }
            let members_of = |l: usize| {
                let (start, end) = pass.members[l];
                &plan.members[start as usize..end as usize]
            };
            // Survivor stats: rolled up from the merged profile
            // histograms (u32 adds — order-independent, so identical to
            // the scratch fill's accumulation).
            for (l, hist) in hists.iter_mut().enumerate() {
                for &k in members_of(l) {
                    for (h, ph) in hist.iter_mut().zip(&plan.profile_hists[k as usize]) {
                        *h += ph;
                    }
                }
            }
            // Where each new survivor lived in the previous cube (`None`
            // = newly above threshold this commit).
            let prev_of: Vec<Option<usize>> = pass
                .globals
                .iter()
                .map(|&slot| prev.index_of(&plan.slot_descs[slot as usize]))
                .collect();
            // Regroup the delta word entries by survivor: survivor `l`'s
            // sit at `d_offsets[l]..d_offsets[l + 1]`.
            let mut d_offsets: Vec<u32> = Vec::with_capacity(n + 1);
            d_offsets.push(0);
            let mut d_word_idx: Vec<u32> = Vec::new();
            let mut d_word_bits: Vec<u64> = Vec::new();
            for l in 0..n {
                for &k in members_of(l) {
                    let di = appended[k as usize];
                    if di == NO_APPENDED {
                        continue;
                    }
                    let di = di as usize;
                    for j in dpart.word_offsets[di] as usize..dpart.word_offsets[di + 1] as usize {
                        d_word_idx.push(dpart.word_idx[j]);
                        d_word_bits.push(dpart.word_bits[j]);
                    }
                }
                d_offsets.push(d_word_idx.len() as u32);
            }

            // Same per-survivor representation decision as the scratch
            // fill (a pure function of the plan's raw entry counts), so
            // a delta rebuild and a from-scratch build agree on every
            // cover's container.
            let raw_entries =
                |l: usize| (pass.entry_offsets[l + 1] - pass.entry_offsets[l]) as usize;
            let mut dense_list: Vec<u32> = Vec::with_capacity(n);
            let mut sparse_list: Vec<u32> = Vec::new();
            for l in 0..n {
                if sparse_cover_eligible(words, raw_entries(l)) {
                    sparse_list.push(l as u32);
                } else {
                    dense_list.push(l as u32);
                }
            }
            let mut covers: Vec<Option<Bitmap>> = vec![None; n];

            // Full-pattern scatter of one fresh survivor (newly above
            // the iceberg threshold this commit) into a zeroed window.
            let scatter_fresh = |l: usize, window: &mut [u64]| {
                for &k in members_of(l) {
                    let k = k as usize;
                    for j in plan.word_offsets[k] as usize..plan.word_offsets[k + 1] as usize {
                        window[plan.word_idx[j] as usize] |= plan.word_bits[j];
                    }
                }
            };

            // Sparse survivors: an unchanged one whose previous cover is
            // already sparse re-shares its entry window (the sparse
            // analog of wholesale chunk re-sharing); anything else is
            // re-materialized through a dense scratch word buffer and
            // re-scanned into the cuboid's fresh entry store — the scan
            // yields the same canonical entries as the scratch fill's
            // sort-and-fold.
            if !sparse_list.is_empty() {
                let cap: usize = sparse_list.iter().map(|&l| raw_entries(l as usize)).sum();
                let mut store = SparseStore::with_capacity(cap);
                let mut windows: Vec<(u32, u32, u32)> = Vec::with_capacity(sparse_list.len());
                let mut scratch = vec![0u64; words];
                for &l in &sparse_list {
                    let l = l as usize;
                    if d_offsets[l + 1] == d_offsets[l] {
                        if let Some((s, start, entries)) =
                            prev_of[l].and_then(|pi| prev.groups()[pi].cover.sparse_parts())
                        {
                            covers[l] = Some(Bitmap::from_sparse_store(
                                universe,
                                Arc::clone(s),
                                start,
                                entries,
                            ));
                            continue;
                        }
                    }
                    scratch.fill(0);
                    if let Some(pi) = prev_of[l] {
                        prev.groups()[pi].cover.or_into(&mut scratch);
                        let range = d_offsets[l] as usize..d_offsets[l + 1] as usize;
                        for (&wi, &wb) in d_word_idx[range.clone()].iter().zip(&d_word_bits[range])
                        {
                            scratch[wi as usize] |= wb;
                        }
                    } else {
                        scatter_fresh(l, &mut scratch);
                    }
                    let start = store.len();
                    for (wi, &wb) in scratch.iter().enumerate() {
                        if wb != 0 {
                            store.push(wi as u32, wb);
                        }
                    }
                    windows.push((l as u32, start as u32, (store.len() - start) as u32));
                }
                let store = store.seal();
                for (l, start, entries) in windows {
                    covers[l as usize] = Some(Bitmap::from_sparse_store(
                        universe,
                        Arc::clone(&store),
                        start as usize,
                        entries as usize,
                    ));
                }
            }

            let per_chunk = (CHUNK_WORDS / words).max(1);
            for chunk in dense_list.chunks(per_chunk) {
                let count = chunk.len();
                // Wholesale re-share: every survivor of the chunk is
                // unchanged (no delta bits, existed before) and the
                // block geometry is stable, and the previous covers are
                // exactly this chunk layout over one pool.
                let unchanged = same_geometry
                    && chunk.iter().all(|&l| {
                        let l = l as usize;
                        d_offsets[l + 1] == d_offsets[l] && prev_of[l].is_some()
                    });
                if unchanged {
                    if let Some(pool) = wholesale_pool(prev, &prev_of, chunk, words) {
                        let pool = Arc::clone(pool);
                        for (li, &l) in chunk.iter().enumerate() {
                            covers[l as usize] = Some(Bitmap::from_shared_pool(
                                universe,
                                Arc::clone(&pool),
                                li * words,
                            ));
                        }
                        continue;
                    }
                }
                // Copy-on-write chunk: carry old covers over (whatever
                // their previous representation), OR only the delta
                // entries; full scatter for fresh survivors.
                let mut blocks = alloc_chunk(count * words);
                for (li, &l) in chunk.iter().enumerate() {
                    let l = l as usize;
                    let window = &mut blocks[li * words..][..words];
                    if let Some(pi) = prev_of[l] {
                        prev.groups()[pi]
                            .cover
                            .or_into(&mut window[..old_words.min(words)]);
                        let range = d_offsets[l] as usize..d_offsets[l + 1] as usize;
                        for (&wi, &wb) in d_word_idx[range.clone()].iter().zip(&d_word_bits[range])
                        {
                            window[wi as usize] |= wb;
                        }
                    } else {
                        scatter_fresh(l, window);
                    }
                }
                let pool = seal_chunk(blocks);
                for (li, &l) in chunk.iter().enumerate() {
                    covers[l as usize] = Some(Bitmap::from_shared_pool(
                        universe,
                        Arc::clone(&pool),
                        li * words,
                    ));
                }
            }
            let covers: Vec<Bitmap> = covers
                .into_iter()
                .map(|c| c.expect("every survivor got a cover"))
                .collect();
            (covers, hists)
        });

    // Scatter each cuboid's covers into the global slot order (same
    // assembly as the scratch fill).
    let mut slots: Vec<Option<CandidateGroup>> = Vec::with_capacity(plan.slot_descs.len());
    slots.resize_with(plan.slot_descs.len(), || None);
    for (pass, (covers, hists)) in plan.passes.iter().zip(filled) {
        for ((&slot, cover), hist) in pass.globals.iter().zip(covers).zip(hists) {
            let hist64 = hist.map(u64::from);
            slots[slot as usize] = Some(CandidateGroup {
                desc: plan.slot_descs[slot as usize],
                cover,
                stats: RatingStats::from_histogram(hist64),
            });
        }
    }
    let groups: Vec<CandidateGroup> = slots
        .into_iter()
        .map(|g| g.expect("every slot belongs to exactly one cuboid"))
        .collect();
    RatingCube::from_parts(plan.rating_idx.to_vec(), groups, plan.total, plan.options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maprat_data::synth::{generate, SynthConfig};

    fn assert_cubes_identical(a: &RatingCube, b: &RatingCube) {
        assert_eq!(a.rating_indexes(), b.rating_indexes());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.total_stats(), b.total_stats());
        for (ga, gb) in a.groups().iter().zip(b.groups()) {
            assert_eq!(ga.desc, gb.desc);
            assert_eq!(ga.stats, gb.stats, "{}", ga.desc);
            assert_eq!(ga.cover, gb.cover, "{}", ga.desc);
        }
    }

    fn toy_universe() -> (maprat_data::Dataset, Vec<u32>) {
        let dataset = generate(&SynthConfig::tiny(31)).unwrap();
        let item = dataset.find_title("Toy Story").unwrap();
        let idx: Vec<u32> = dataset.rating_range_for_item(item).collect();
        (dataset, idx)
    }

    #[test]
    fn summary_build_matches_scratch_build() {
        let (dataset, idx) = toy_universe();
        for require_geo in [false, true] {
            let options = CubeOptions {
                min_support: 3,
                require_geo,
                max_arity: 4,
            };
            let summary = ProfileSummary::scan(&dataset, idx.clone());
            let from_summary = summary.build(options.clone());
            let scratch = RatingCube::build(&dataset, idx.clone(), options);
            assert_cubes_identical(&from_summary, &scratch);
        }
    }

    #[test]
    fn append_matches_scan_of_concatenation() {
        let (dataset, idx) = toy_universe();
        for split in [1, idx.len() / 3, idx.len() / 2, idx.len() - 1] {
            let (head, tail) = idx.split_at(split);
            let (merged, delta) =
                ProfileSummary::scan(&dataset, head.to_vec()).append(&dataset, tail);
            assert_eq!(delta.len(), tail.len());
            let direct = ProfileSummary::scan(&dataset, idx.clone());
            let options = CubeOptions {
                min_support: 2,
                require_geo: false,
                max_arity: 4,
            };
            assert_cubes_identical(&merged.build(options.clone()), &direct.build(options));
        }
    }

    #[test]
    fn merge_matches_scan_of_concatenation() {
        let (dataset, idx) = toy_universe();
        // Uneven parts force non-64-aligned shifts.
        let a = idx[..7].to_vec();
        let b = idx[7..idx.len() / 2].to_vec();
        let c = idx[idx.len() / 2..].to_vec();
        let parts = [
            ProfileSummary::scan(&dataset, a),
            ProfileSummary::scan(&dataset, b),
            ProfileSummary::scan(&dataset, c),
        ];
        let merged = ProfileSummary::merge(parts.iter());
        let direct = ProfileSummary::scan(&dataset, idx);
        let options = CubeOptions {
            min_support: 2,
            require_geo: false,
            max_arity: 4,
        };
        assert_cubes_identical(&merged.build(options.clone()), &direct.build(options));
    }

    #[test]
    fn build_reusing_is_bit_identical_and_shares_unchanged_chunks() {
        let (dataset, idx) = toy_universe();
        let options = CubeOptions {
            min_support: 3,
            require_geo: false,
            max_arity: 4,
        };
        let split = idx.len() - 5;
        let (head, tail) = idx.split_at(split);
        let base = ProfileSummary::scan(&dataset, head.to_vec());
        let prev = base.build(options.clone());
        let (merged, delta) = base.append(&dataset, tail);
        let reused = merged.build_reusing(&delta, &prev, options.clone(), 1);
        let scratch = RatingCube::build(&dataset, idx, options);
        assert_cubes_identical(&reused, &scratch);
    }

    #[test]
    fn empty_append_reshares_every_cover() {
        let (dataset, idx) = toy_universe();
        let options = CubeOptions {
            min_support: 3,
            require_geo: false,
            max_arity: 4,
        };
        let base = ProfileSummary::scan(&dataset, idx);
        let prev = base.build(options.clone());
        let (merged, delta) = base.append(&dataset, &[]);
        assert!(delta.is_empty());
        let reused = merged.build_reusing(&delta, &prev, options, 1);
        // Geometry and survivors are unchanged, so every cover must be a
        // wholesale re-share of the previous storage: same pool (dense)
        // or entry-store (sparse) pointers.
        assert_eq!(reused.len(), prev.len());
        for (new, old) in reused.groups().iter().zip(prev.groups()) {
            match (new.cover.shared_parts(), old.cover.shared_parts()) {
                (Some((np, ns, _)), Some((op, os, _))) => {
                    assert!(Arc::ptr_eq(np, op), "{}", new.desc);
                    assert_eq!(ns, os);
                }
                (None, None) => {
                    let (np, ns, _) = new.cover.sparse_parts().expect("sparse");
                    let (op, os, _) = old.cover.sparse_parts().expect("sparse");
                    assert!(Arc::ptr_eq(np, op), "{}", new.desc);
                    assert_eq!(ns, os);
                }
                (n, o) => panic!(
                    "representation flipped across an empty append for {}: {:?} vs {:?}",
                    new.desc,
                    n.is_some(),
                    o.is_some()
                ),
            }
        }
    }

    #[test]
    fn threads_do_not_change_delta_builds() {
        let (dataset, idx) = toy_universe();
        let options = CubeOptions {
            min_support: 2,
            require_geo: true,
            max_arity: 3,
        };
        let split = idx.len() / 2;
        let (head, tail) = idx.split_at(split);
        let base = ProfileSummary::scan(&dataset, head.to_vec());
        let prev = base.build_with_threads(options.clone(), 1);
        let (merged, delta) = base.append(&dataset, tail);
        let one = merged.build_reusing(&delta, &prev, options.clone(), 1);
        let many = merged.build_reusing(&delta, &prev, options, 4);
        assert_cubes_identical(&one, &many);
    }
}
