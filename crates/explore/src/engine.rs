//! The owned exploration engine — MapRat's public entry point.
//!
//! [`MapRatEngine`] bundles an [`Arc<Dataset>`], a miner and a two-tier
//! cache into a cheaply-clonable handle: clones share the dataset and
//! both cache tiers, so a server can hand one clone to every worker
//! thread (or serve several datasets side by side) without leaking
//! anything to `'static`.
//!
//! The serving path stacks three mechanisms (§2.3's "aggressive data
//! pre-processing, result pre-computation and caching"):
//!
//! 1. a **result tier** keyed by the full typed [`ExplainRequest`] —
//!    a hit returns the finished explanation;
//! 2. a **snapshot tier** keyed by the cube-build inputs only (the item
//!    query plus `min_support`/`require_geo`/`max_arity`) — a hit skips
//!    the cube build and re-runs only the solve, so sweeping solver
//!    settings over one query pays the cube once;
//! 3. **single-flight coalescing** — N concurrent identical cold
//!    requests run one solve and share the `Arc`'d result.
//!
//! Above a policy threshold ([`ApproxPolicy`], `MAPRAT_APPROX*` knobs)
//! the cold path switches to **approximate serving**: `R_I` is
//! stratified-sampled by demographic base cell, the cube and solves run
//! on the sample, and the result carries an error contract
//! ([`maprat_approx::ApproxInfo`]). A background exact re-solve then
//! *hot-upgrades* the cache entry in place (`hit-approx` → `hit`); the
//! per-request [`ApproxMode`] directive (`approx=off|force`) overrides
//! the policy. See `docs/APPROX.md`.
//!
//! [`MapRatEngine::explain_traced`] reports which tier answered
//! ([`ServedFrom`]), which the HTTP layer surfaces as the
//! `X-MapRat-Cache` response header. The dataset itself sits behind a
//! lock-held `Arc` that [`MapRatEngine::swap_dataset`] replaces
//! atomically — in-flight requests keep mining the snapshot they pinned,
//! so a hot-swap never drops traffic.
//!
//! Cache entries are keyed by the typed [`ExplainRequest`] itself —
//! its `Hash` encoding, not a hand-formatted string — so every settings
//! field (including the solver seed and the DM λ) participates in the
//! key by construction, and full request equality is verified on every
//! hit. [`RequestFingerprint`] is a compact 128-bit digest of that same
//! encoding, for logging and collision-regression testing.
//!
//! # Environment knobs
//!
//! [`MapRatEngine::new`] sizes the tiers from the environment (totals,
//! spread over 4 shards): `MAPRAT_RESULT_CACHE` (default 256 entries)
//! and `MAPRAT_SNAPSHOT_CACHE` (default 64 entries).

use crate::approx::{ApproxMode, ApproxPolicy};
use maprat_approx::{ApproxInfo, RefineLedger, StratifiedSampler, StratumCensus};
use maprat_cache::{CacheStats, FlightError, FlightGroup, FlightOutcome, ShardedCache};
use maprat_core::query::ItemQuery;
use maprat_core::{parallel, Budget, Explanation, MineError, Miner, SearchSettings};
use maprat_cube::derive::{derive_cube, CombinedUniverse};
use maprat_cube::{CubeOptions, RatingCube};
use maprat_data::{Dataset, ItemId};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard};
use std::time::Duration;

/// How long a coalesced follower waits on its leader before giving up
/// with a structured error. Generous — a healthy solve finishes in
/// milliseconds; this only bounds pathological leaders (wedged worker,
/// injected stall) so followers never hang a server thread forever.
const FLIGHT_WAIT: Duration = Duration::from_secs(30);

/// One fully-specified explanation request: the query plus every search
/// setting. This is the unit the engine caches on and the unit the typed
/// HTTP API decodes into.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct ExplainRequest {
    /// The item query (terms, combination mode, time window).
    pub query: ItemQuery,
    /// The search settings (group budget, coverage, solver parameters…).
    pub settings: SearchSettings,
}

/// No field holds a NaN in practice (settings are range-validated at
/// construction boundaries), so the derived `PartialEq` is total here.
impl Eq for ExplainRequest {}

impl ExplainRequest {
    /// Bundles a query with settings.
    pub fn new(query: ItemQuery, settings: SearchSettings) -> Self {
        ExplainRequest { query, settings }
    }

    /// The 128-bit digest of this request (for logging and for the
    /// collision-regression tests; the cache keys on the request itself).
    ///
    /// Combines two structurally different 64-bit hashes (SipHash via
    /// [`DefaultHasher`] and FNV-1a) of the full `Hash` encoding, so
    /// requests differing in *any* field — including `rhe.seed` or
    /// `dm_lambda`, which the old string key silently carried in lossy
    /// `{:.4}` formatting — map to distinct digests.
    pub fn fingerprint(&self) -> RequestFingerprint {
        let mut sip = DefaultHasher::new();
        self.hash(&mut sip);
        let mut fnv = Fnv1a::default();
        self.hash(&mut fnv);
        RequestFingerprint(((sip.finish() as u128) << 64) | fnv.finish() as u128)
    }
}

/// A 128-bit digest of an [`ExplainRequest`], for logging and
/// collision-regression testing (the cache keys on the request itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestFingerprint(u128);

impl RequestFingerprint {
    /// The raw 128-bit value (e.g. for logging).
    pub fn as_u128(self) -> u128 {
        self.0
    }
}

impl std::fmt::Display for RequestFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// FNV-1a, 64-bit — the second, structurally independent leg of the
/// fingerprint (SipHash alone would make the digest as collision-prone
/// as a single 64-bit hash).
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Everything one explained query produces: the user-facing explanation
/// plus the cube it was mined from (kept for drill-down and comparison,
/// which revisit covers).
#[derive(Debug)]
pub struct ExplorationResult {
    /// The explanation (both tabs).
    pub explanation: Explanation,
    /// The candidate cube (for drill-down / related-group statistics).
    pub cube: RatingCube,
    /// The matched items.
    pub items: Vec<ItemId>,
    /// The dataset snapshot the result was mined from. Drill-down and
    /// comparison revisit the cube's covers, whose positions index
    /// *this* snapshot's rating column — after an ingest commit splices
    /// new ratings in, the live dataset's positions shift, so consumers
    /// must read through this pinned handle, never through
    /// [`MapRatEngine::dataset`].
    pub dataset: Arc<Dataset>,
    /// The approximation contract when this result was mined from a
    /// stratified sample (`None` for exact results): sampling fraction,
    /// stratum census, and per-group confidence bounds. The cube above is
    /// then the *sampled* cube — drill-down and comparison statistics
    /// read sampled aggregates until the background refinement upgrades
    /// the entry.
    pub approx: Option<ApproxInfo>,
    /// The rendered response body, written once (see
    /// [`ExplorationResult::rendered_body`]).
    body: OnceLock<Vec<u8>>,
}

impl ExplorationResult {
    /// The rendered response body for this result: `render` runs on the
    /// first call only, and every later call returns the stored bytes.
    ///
    /// The engine never reads the bytes; their format belongs to the
    /// caller (the HTTP server's explain routes). Storing them is sound
    /// because a result never changes after it is published: a refinement,
    /// a dataset swap or an eviction replaces the whole `Arc`'d result,
    /// and with it the stored body. All callers must therefore pass the
    /// same rendering of this result.
    pub fn rendered_body(&self, render: impl FnOnce() -> Vec<u8>) -> &[u8] {
        self.body.get_or_init(render)
    }
}

/// Which serving mechanism answered an explain (see
/// [`MapRatEngine::explain_traced`]). The HTTP layer reports this as the
/// `X-MapRat-Cache` response header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// The finished explanation was already in the result tier.
    ResultCache,
    /// The finished explanation was in the result tier, but was mined
    /// from a dataset snapshot an ingest commit has since superseded
    /// (the entry survived a scoped swap because its partition was
    /// untouched). The answer is correct over the pre-ingest view.
    PreIngestCache,
    /// The result tier held an *approximate* (sampled) entry for this
    /// request; the response carries its error bounds while a background
    /// refinement upgrades the entry to exact.
    ApproxCache,
    /// The cube/cover snapshot was cached; only the solve re-ran.
    SnapshotCache,
    /// Nothing was cached: cube build plus solve ran.
    Cold,
    /// A concurrent identical request was already solving; this caller
    /// waited and shares that leader's result.
    Coalesced,
    /// The request was solved inside a fused batch
    /// ([`MapRatEngine::explain_batch`]): one combined cube build served
    /// its whole batch group, and this request's cube was derived from it.
    BatchFused,
}

impl ServedFrom {
    /// Stable lowercase label (the `X-MapRat-Cache` header value).
    pub fn as_str(self) -> &'static str {
        match self {
            ServedFrom::ResultCache => "hit",
            ServedFrom::PreIngestCache => "hit-preingest",
            ServedFrom::ApproxCache => "hit-approx",
            ServedFrom::SnapshotCache => "snapshot",
            ServedFrom::Cold => "miss",
            ServedFrom::Coalesced => "coalesced",
            ServedFrom::BatchFused => "batch",
        }
    }
}

impl std::fmt::Display for ServedFrom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One engine-wide telemetry snapshot across both tiers, the flight
/// group and the solver counter (rendered by `/api/v1/stats`).
#[derive(Debug, Clone)]
pub struct ServingStats {
    /// Result-tier hits.
    pub result_hits: u64,
    /// Result-tier hits served from an entry retained across a dataset
    /// swap — the response comes from the entry's pre-ingest snapshot
    /// (`X-MapRat-Cache: hit-preingest`).
    pub result_stale_hits: u64,
    /// Result-tier misses.
    pub result_misses: u64,
    /// Result-tier resident entries.
    pub result_len: usize,
    /// Snapshot-tier hits.
    pub snapshot_hits: u64,
    /// Snapshot-tier misses.
    pub snapshot_misses: u64,
    /// Snapshot-tier resident entries.
    pub snapshot_len: usize,
    /// Targeted invalidations across both tiers (hot-swap scoped drops).
    pub invalidations: u64,
    /// Flights that ran the computation themselves.
    pub flights_led: u64,
    /// Flights that shared a concurrent leader's result.
    pub flights_joined: u64,
    /// Requests that reached the miner (cube build and/or solve).
    pub solves: u64,
    /// Foreground explains currently executing.
    pub foreground_inflight: usize,
    /// Solves aborted because the request's deadline expired mid-climb.
    pub deadline_expired: u64,
    /// Coalesced flights whose leader failed (panic, death) or exceeded
    /// the bounded wait — each propagated a structured error to its
    /// followers instead of hanging them.
    pub coalesced_failures: u64,
    /// Responses served with an approximation contract attached (cold
    /// sampled solves plus `hit-approx` cache hits).
    pub approx_served: u64,
    /// Background refinements that landed: an approximate cache entry
    /// was upgraded to the exact answer in place.
    pub approx_refined: u64,
    /// Requests where the approximate path was consulted (universe
    /// collected) but declined — universe under the policy threshold,
    /// sample degenerate, or no surviving candidates — and the exact
    /// pipeline answered instead.
    pub approx_fallback_exact: u64,
}

/// The snapshot tier's key: exactly the inputs of `Miner::build_cube`.
/// Two requests that differ only in solver settings (group budget,
/// coverage, λ, seed…) share one cube/cover snapshot.
#[derive(Clone, PartialEq, Eq, Hash)]
struct SnapshotKey {
    query: ItemQuery,
    min_support: usize,
    require_geo: bool,
    max_arity: usize,
}

impl SnapshotKey {
    fn of(request: &ExplainRequest) -> Self {
        SnapshotKey {
            query: request.query.clone(),
            min_support: request.settings.min_support,
            require_geo: request.settings.require_geo,
            max_arity: request.settings.max_arity,
        }
    }
}

/// A reusable cube/cover artifact: the matched items plus the built
/// cube. `RatingCube` Arc-shares its cover chunks, so cloning out of the
/// tier is cheap.
struct CubeSnapshot {
    items: Vec<ItemId>,
    cube: RatingCube,
    /// The dataset snapshot the cube was built from: its `rating_idx`
    /// indexes this snapshot's rating column, so re-solves must run
    /// against it (after an ingest commit the live column's positions
    /// may have shifted).
    dataset: Arc<Dataset>,
}

/// The census memo's key: the query (which determines `R_I`) plus the
/// sampling fraction's bits. The census itself is fraction-independent
/// (only the cheap per-stratum allocation step reads the fraction), but
/// keying on both keeps the memo exact under engines whose policies are
/// reconfigured mid-flight.
#[derive(Clone, PartialEq, Eq, Hash)]
struct CensusKey {
    query: ItemQuery,
    frac_bits: u64,
}

impl CensusKey {
    fn of(query: &ItemQuery, frac: f64) -> Self {
        CensusKey {
            query: query.clone(),
            frac_bits: frac.to_bits(),
        }
    }
}

/// One memoized universe for the approximate path: the matched items,
/// `R_I`, and its stratum census, pinned to the dataset snapshot they
/// were collected from. Repeated sampled explains of the same query
/// (different seeds, solver settings, or re-misses after result-tier
/// eviction) skip both the universe collection and the census pass, and
/// the background refinement reuses `(items, universe)` for its exact
/// re-solve.
struct CensusEntry {
    items: Vec<ItemId>,
    universe: Vec<u32>,
    census: StratumCensus,
    dataset: Arc<Dataset>,
}

type CachedResult = Arc<Result<ExplorationResult, MineError>>;

fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Decrements the foreground-inflight gauge even on unwind, so a
/// panicking explain can never wedge the precompute scheduler's
/// backpressure check.
struct ForegroundGuard<'a>(&'a AtomicUsize);

impl<'a> ForegroundGuard<'a> {
    fn enter(gauge: &'a AtomicUsize) -> Self {
        gauge.fetch_add(1, Ordering::SeqCst);
        ForegroundGuard(gauge)
    }
}

impl Drop for ForegroundGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Holds the swap generation ([`EngineInner::swap_gen`]) odd for the span
/// of a dataset swap and makes it even again on drop — also on unwind, so
/// a panicking swap can never turn caching off for good.
struct SwapGuard<'a>(&'a AtomicU64);

impl<'a> SwapGuard<'a> {
    fn enter(generation: &'a AtomicU64) -> Self {
        generation.fetch_add(1, Ordering::SeqCst);
        SwapGuard(generation)
    }
}

impl Drop for SwapGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// A unit-test hook run at named steps (`"swap"`, `"publish"`), so a test
/// can land a request or a swap at an exact point of another operation.
#[cfg(test)]
type Interleave = Arc<dyn Fn(&MapRatEngine, &str) + Send + Sync>;

/// The shared state behind every engine clone.
///
/// The result tier is keyed by the typed request itself: its `Hash`
/// encoding — the same bits [`ExplainRequest::fingerprint`] digests —
/// selects the shard and bucket, and full equality is verified on every
/// hit, so a fingerprint collision can never serve another request's
/// result.
struct EngineInner {
    dataset: RwLock<Arc<Dataset>>,
    results: ShardedCache<ExplainRequest, Result<ExplorationResult, MineError>>,
    snapshots: ShardedCache<SnapshotKey, CubeSnapshot>,
    censuses: ShardedCache<CensusKey, CensusEntry>,
    /// Flights are keyed by request *plus* approx-mode class: an
    /// `approx=off` caller must never join a sampled leader's flight.
    flights: FlightGroup<(ExplainRequest, u8), (CachedResult, ServedFrom)>,
    solves: AtomicU64,
    foreground: AtomicUsize,
    deadline_expired: AtomicU64,
    coalesced_failures: AtomicU64,
    approx: ApproxPolicy,
    refines: RefineLedger,
    approx_served: AtomicU64,
    approx_fallback: AtomicU64,
    /// Dataset-swap generation, used as a seqlock: odd while a swap is
    /// publishing its dataset and sweeping the tiers, even otherwise. A
    /// solve reads it before it pins a dataset or a cube snapshot, and may
    /// cache what it produced only while the generation still holds that
    /// even value ([`MapRatEngine::publish`]), so a result mined from a
    /// superseded dataset can never land behind a swap's sweep.
    swap_gen: AtomicU64,
    #[cfg(test)]
    interleave: std::sync::Mutex<Option<Interleave>>,
}

/// An owned, cheaply-clonable exploration engine: `Arc<Dataset>` + miner
/// + sharded result cache.
///
/// ```
/// use maprat_explore::MapRatEngine;
/// use maprat_core::query::ItemQuery;
/// use maprat_core::SearchSettings;
/// use maprat_data::synth::{generate, SynthConfig};
/// use std::sync::Arc;
///
/// let dataset = Arc::new(generate(&SynthConfig::tiny(42)).unwrap());
/// let engine = MapRatEngine::new(dataset);
/// let worker = engine.clone(); // shares the dataset and the cache
/// let settings = SearchSettings::builder().min_coverage(0.1).require_geo(false).build().unwrap();
/// let r = worker.explain_query(&ItemQuery::title("Toy Story"), &settings);
/// assert!(r.is_ok());
/// assert!(engine.cache_len() >= 1, "clones share one cache");
/// ```
#[derive(Clone)]
pub struct MapRatEngine {
    inner: Arc<EngineInner>,
}

/// Reads a positive cache-size knob from the environment.
fn env_size(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

const SHARDS: usize = 4;

impl MapRatEngine {
    /// Creates an engine with the environment-tuned cache geometry:
    /// `MAPRAT_RESULT_CACHE` total result entries (default 256) and
    /// `MAPRAT_SNAPSHOT_CACHE` total cube snapshots (default 64), each
    /// spread over 4 shards.
    pub fn new(dataset: Arc<Dataset>) -> Self {
        let results = env_size("MAPRAT_RESULT_CACHE", 256);
        Self::with_cache_size(dataset, SHARDS, results.div_ceil(SHARDS))
    }

    /// Creates an engine over a freshly-wrapped dataset (convenience for
    /// binaries that just generated or loaded one).
    pub fn from_dataset(dataset: Dataset) -> Self {
        Self::new(Arc::new(dataset))
    }

    /// Creates an engine with an explicit result-tier geometry (the
    /// snapshot tier stays environment-tuned).
    pub fn with_cache_size(dataset: Arc<Dataset>, shards: usize, per_shard: usize) -> Self {
        Self::build(dataset, shards, per_shard, ApproxPolicy::from_env())
    }

    /// Creates an engine with an explicit [`ApproxPolicy`] (cache
    /// geometry stays environment-tuned) — benchmarks and tests pin the
    /// sampling threshold/fraction this way instead of mutating the
    /// process environment.
    pub fn with_approx_policy(dataset: Arc<Dataset>, policy: ApproxPolicy) -> Self {
        let results = env_size("MAPRAT_RESULT_CACHE", 256);
        Self::build(dataset, SHARDS, results.div_ceil(SHARDS), policy)
    }

    fn build(dataset: Arc<Dataset>, shards: usize, per_shard: usize, approx: ApproxPolicy) -> Self {
        let snapshots = env_size("MAPRAT_SNAPSHOT_CACHE", 64);
        MapRatEngine {
            inner: Arc::new(EngineInner {
                dataset: RwLock::new(dataset),
                results: ShardedCache::new(shards, per_shard),
                snapshots: ShardedCache::new(SHARDS, snapshots.div_ceil(SHARDS)),
                censuses: ShardedCache::new(SHARDS, snapshots.div_ceil(SHARDS)),
                flights: FlightGroup::new(),
                solves: AtomicU64::new(0),
                foreground: AtomicUsize::new(0),
                deadline_expired: AtomicU64::new(0),
                coalesced_failures: AtomicU64::new(0),
                approx,
                refines: RefineLedger::new(),
                approx_served: AtomicU64::new(0),
                approx_fallback: AtomicU64::new(0),
                swap_gen: AtomicU64::new(0),
                #[cfg(test)]
                interleave: Default::default(),
            }),
        }
    }

    /// The approximation policy this engine serves under.
    pub fn approx_policy(&self) -> ApproxPolicy {
        self.inner.approx
    }

    /// The current dataset, pinned. Callers hold the returned `Arc` for
    /// the duration of their work: a concurrent
    /// [`swap_dataset`](MapRatEngine::swap_dataset) replaces what *future* calls see
    /// but never invalidates a pinned handle — that is what makes the
    /// hot-swap safe under load.
    pub fn dataset(&self) -> Arc<Dataset> {
        Arc::clone(&read_lock(&self.inner.dataset))
    }

    /// Alias of [`MapRatEngine::dataset`] (kept for callers predating the
    /// hot-swap, when `dataset()` returned a plain borrow).
    pub fn dataset_arc(&self) -> Arc<Dataset> {
        self.dataset()
    }

    /// Atomically replaces the dataset and drops **both** cache tiers.
    /// In-flight requests finish against the dataset they pinned; new
    /// requests see the new one immediately.
    pub fn swap_dataset(&self, dataset: Arc<Dataset>) {
        let _swap = SwapGuard::enter(&self.inner.swap_gen);
        *self
            .inner
            .dataset
            .write()
            .unwrap_or_else(PoisonError::into_inner) = dataset;
        self.inner.results.clear();
        self.inner.snapshots.clear();
        self.inner.censuses.clear();
    }

    /// Hot-swap with partition-scoped invalidation: drops only the cache
    /// entries (in both tiers) whose matched items intersect
    /// `changed_items`, plus every cached error (an error may become
    /// answerable under the new dataset). Returns how many entries were
    /// dropped.
    ///
    /// # Soundness contract
    /// Only valid when the new dataset preserves the identity and rating
    /// history of every item *not* listed in `changed_items` — e.g. an
    /// ingest append, or an in-place refresh of the listed ones. For
    /// arbitrary rebuilds use [`MapRatEngine::swap_dataset`], which
    /// invalidates everything.
    ///
    /// Retained entries keep serving — each carries the dataset snapshot
    /// it was mined from ([`ExplorationResult::dataset`]), so they stay
    /// internally consistent even when the append re-spliced the live
    /// rating column; result-tier hits on such entries are labeled
    /// [`ServedFrom::PreIngestCache`].
    pub fn swap_dataset_scoped(&self, dataset: Arc<Dataset>, changed_items: &[ItemId]) -> usize {
        let changed: HashSet<ItemId> = changed_items.iter().copied().collect();
        let _swap = SwapGuard::enter(&self.inner.swap_gen);
        *self
            .inner
            .dataset
            .write()
            .unwrap_or_else(PoisonError::into_inner) = dataset;
        self.interleave("swap");
        let untouched =
            |items: &[ItemId]| -> bool { !items.iter().any(|item| changed.contains(item)) };
        // Census entries are a pure perf memo (each is additionally
        // guarded by an `Arc::ptr_eq` dataset pin at use), but scoped
        // invalidation keeps the tier from serving as a graveyard.
        self.inner.censuses.retain(|_, e| untouched(&e.items));
        // Snapshots go before results: a request that lands between the
        // two sweeps and misses a dropped result must not find the stale
        // cube to re-solve from.
        let snapshots = self
            .inner
            .snapshots
            .retain(|_, snap| untouched(&snap.items));
        self.interleave("swap");
        snapshots
            + self.inner.results.retain(|_, result| match result {
                Ok(r) => untouched(&r.items),
                Err(_) => false,
            })
    }

    /// The current swap generation ([`EngineInner::swap_gen`]). A solve
    /// reads it before pinning a dataset or snapshot and hands it to
    /// [`MapRatEngine::publish`].
    fn swap_generation(&self) -> u64 {
        self.inner.swap_gen.load(Ordering::SeqCst)
    }

    /// Caches `value` in `tier` unless a dataset swap was under way when
    /// `since` was read or has begun since; returns the value's handle
    /// either way (an uncached answer still serves its own request). The
    /// generation is checked under the tier's shard lock, so a swap's
    /// sweep of that shard either runs after the insert and judges the
    /// entry, or ran after the generation moved and the insert is refused.
    fn publish<K: Hash + Eq + Clone, V>(
        &self,
        tier: &ShardedCache<K, V>,
        since: u64,
        key: K,
        value: V,
    ) -> Arc<V> {
        self.interleave("publish");
        tier.put_if(key, value, || {
            since.is_multiple_of(2) && self.inner.swap_gen.load(Ordering::SeqCst) == since
        })
    }

    /// Runs the unit-test interleaving hook at `point`; a no-op outside
    /// unit tests.
    fn interleave(&self, point: &str) {
        #[cfg(test)]
        {
            let hook = self.inner.interleave.lock().unwrap().clone();
            if let Some(hook) = hook {
                hook(self, point);
            }
        }
        #[cfg(not(test))]
        let _ = point;
    }

    /// Result-tier telemetry.
    pub fn cache_stats(&self) -> Arc<CacheStats> {
        self.inner.results.stats()
    }

    /// Snapshot-tier telemetry.
    pub fn snapshot_stats(&self) -> Arc<CacheStats> {
        self.inner.snapshots.stats()
    }

    /// Census-memo telemetry: hits are sampled explains (or exact
    /// refinements) that skipped the universe collection and `R_I`
    /// census pass by reusing a memoized [`StratumCensus`].
    pub fn census_stats(&self) -> Arc<CacheStats> {
        self.inner.censuses.stats()
    }

    /// Result-tier entries currently cached (across all shards).
    pub fn cache_len(&self) -> usize {
        self.inner.results.len()
    }

    /// Requests that reached the miner (cube build and/or solve) rather
    /// than a cache tier or a concurrent flight. The coalescing
    /// acceptance test pivots on this: N identical concurrent cold
    /// explains must leave it at 1.
    pub fn solve_count(&self) -> u64 {
        self.inner.solves.load(Ordering::Relaxed)
    }

    /// Foreground explains currently executing (the precompute
    /// scheduler's backpressure signal).
    pub fn foreground_inflight(&self) -> usize {
        self.inner.foreground.load(Ordering::SeqCst)
    }

    /// One coherent telemetry snapshot across tiers, flights and solver.
    pub fn serving_stats(&self) -> ServingStats {
        let results = self.inner.results.stats();
        let snapshots = self.inner.snapshots.stats();
        ServingStats {
            result_hits: results.hits(),
            result_stale_hits: results.stale_hits(),
            result_misses: results.misses(),
            result_len: self.inner.results.len(),
            snapshot_hits: snapshots.hits(),
            snapshot_misses: snapshots.misses(),
            snapshot_len: self.inner.snapshots.len(),
            invalidations: results.invalidations() + snapshots.invalidations(),
            flights_led: self.inner.flights.leads(),
            flights_joined: self.inner.flights.joins(),
            solves: self.solve_count(),
            foreground_inflight: self.foreground_inflight(),
            deadline_expired: self.inner.deadline_expired.load(Ordering::Relaxed),
            coalesced_failures: self.inner.coalesced_failures.load(Ordering::Relaxed)
                + self.inner.flights.failures(),
            approx_served: self.inner.approx_served.load(Ordering::Relaxed),
            approx_refined: self.inner.refines.refined(),
            approx_fallback_exact: self.inner.approx_fallback.load(Ordering::Relaxed),
        }
    }

    /// Explains a typed request, serving from the shared tiers when
    /// possible.
    pub fn explain(&self, request: &ExplainRequest) -> Arc<Result<ExplorationResult, MineError>> {
        self.explain_traced(request).0
    }

    /// Like [`MapRatEngine::explain`], but also reports which serving
    /// mechanism answered (the `X-MapRat-Cache` header value).
    pub fn explain_traced(
        &self,
        request: &ExplainRequest,
    ) -> (Arc<Result<ExplorationResult, MineError>>, ServedFrom) {
        self.explain_deadline(request, &Budget::unlimited())
    }

    /// Like [`MapRatEngine::explain_traced`] under a request [`Budget`]
    /// (the `X-MapRat-Deadline-Ms` header): cache tiers answer as usual —
    /// a deadline never changes *which* answer is produced, only whether
    /// one is — but a cold solve checks the deadline every climb
    /// iteration and aborts with [`MineError::DeadlineExceeded`] once it
    /// expires. Expired and otherwise non-deterministic outcomes are
    /// **never cached**: the budget is not part of the cache key, and a
    /// retry with more time may well succeed.
    pub fn explain_deadline(
        &self,
        request: &ExplainRequest,
        budget: &Budget,
    ) -> (Arc<Result<ExplorationResult, MineError>>, ServedFrom) {
        self.explain_opts(request, budget, ApproxMode::default())
    }

    /// The fully-general serving entry point: a request [`Budget`] plus a
    /// per-call [`ApproxMode`] directive (the HTTP `approx` parameter).
    /// Neither is part of the cache key — they steer *how* the answer is
    /// produced, not *which* logical answer it is; that is what lets the
    /// background refinement upgrade an approximate entry in place.
    ///
    /// Serving an approximate answer (cold sampled solve or `hit-approx`)
    /// bumps the `approx_served` counter and, when the policy's refine
    /// flag is set, schedules the exact re-solve on an idle pool worker.
    pub fn explain_opts(
        &self,
        request: &ExplainRequest,
        budget: &Budget,
        mode: ApproxMode,
    ) -> (Arc<Result<ExplorationResult, MineError>>, ServedFrom) {
        let _guard = ForegroundGuard::enter(&self.inner.foreground);
        let (result, served) = self.lookup_or_solve(request, budget, mode);
        if matches!(&*result, Ok(r) if r.approx.is_some()) {
            self.inner.approx_served.fetch_add(1, Ordering::Relaxed);
            if self.inner.approx.refine {
                self.schedule_refine(request);
            }
        }
        (result, served)
    }

    /// Whether the result tier already holds this request (served without
    /// touching recency or hit counters). The admission controller uses
    /// this to keep answering cached requests even while shedding load.
    pub fn cached(&self, request: &ExplainRequest) -> bool {
        self.inner.results.contains(request)
    }

    /// Background warm used by the precompute scheduler: computes and
    /// caches `request` unless the result tier already holds it. Does not
    /// count as foreground traffic (so warming never back-pressures
    /// itself), but does coalesce with any concurrent foreground flight.
    /// Returns whether any work was done.
    pub fn warm(&self, request: &ExplainRequest) -> bool {
        if self.inner.results.contains(request) {
            return false;
        }
        let _ = self.lookup_or_solve(request, &Budget::unlimited(), ApproxMode::default());
        true
    }

    /// Explains a batch of related requests, fusing their cube builds:
    /// requests that miss both cache tiers, share cube-build options and
    /// are time-unrestricted are grouped, **one** combined cube is built
    /// over the deduped union of their items, and each request's cube is
    /// derived from it ([`maprat_cube::derive`]) before its own solve —
    /// so an actor's filmography or the precompute set pays the
    /// dataset-scan and cover-materialization cost once instead of once
    /// per query.
    ///
    /// Answer-identical to issuing each request through
    /// [`MapRatEngine::explain_opts`]: derivation is pinned bit-identical
    /// to a standalone build, solves run with the request's own settings,
    /// and both cache tiers are populated exactly as a standalone miss
    /// would (so later single-request traffic hits as usual). Requests
    /// the fused path cannot serve exactly — time-restricted queries,
    /// universes the approximation policy may sample, requests whose
    /// cube snapshot is already resident (re-solving from it is cheaper
    /// than any build) — fall back to the standalone path per request.
    /// Duplicate requests within the batch are solved once and share the
    /// result ([`ServedFrom::Coalesced`]).
    ///
    /// The returned vector is index-aligned with `requests`; fused slots
    /// are labeled [`ServedFrom::BatchFused`] (`X-MapRat-Cache: batch`).
    pub fn explain_batch(
        &self,
        requests: &[ExplainRequest],
        budget: &Budget,
    ) -> Vec<(Arc<Result<ExplorationResult, MineError>>, ServedFrom)> {
        let _guard = ForegroundGuard::enter(&self.inner.foreground);
        self.batch_inner(requests, budget, ApproxMode::default())
    }

    /// Background batch warm used by the precompute scheduler: fuses the
    /// cube builds of every request not already resident in the result
    /// tier. Like [`MapRatEngine::warm`], it does not count as
    /// foreground traffic. Returns how many requests were warmed.
    pub fn warm_batch(&self, requests: &[ExplainRequest]) -> usize {
        let missing: Vec<ExplainRequest> = requests
            .iter()
            .filter(|r| !self.inner.results.contains(r))
            .cloned()
            .collect();
        if missing.is_empty() {
            return 0;
        }
        let _ = self.batch_inner(&missing, &Budget::unlimited(), ApproxMode::default());
        missing.len()
    }

    /// Batch serving body: result-tier probes, in-batch dedup, fused
    /// groups, standalone fallback.
    fn batch_inner(
        &self,
        requests: &[ExplainRequest],
        budget: &Budget,
        mode: ApproxMode,
    ) -> Vec<(CachedResult, ServedFrom)> {
        let mut slots: Vec<Option<(CachedResult, ServedFrom)>> =
            requests.iter().map(|_| None).collect();
        // In-batch coalescing: duplicates share the first occurrence's
        // solve, mirroring what the flight group does across threads.
        let mut first_of: HashMap<&ExplainRequest, usize> = HashMap::new();
        let mut dupes: Vec<(usize, usize)> = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            match first_of.entry(request) {
                std::collections::hash_map::Entry::Occupied(e) => dupes.push((i, *e.get())),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(i);
                }
            }
        }

        // Result-tier probes first: a batch of warm requests never mines.
        for (i, request) in requests.iter().enumerate() {
            if dupes.iter().any(|&(d, _)| d == i) {
                continue;
            }
            if let Some(hit) = self.inner.results.get(request) {
                if let Some(served) = self.classify_hit_mode(&hit, mode) {
                    slots[i] = Some((hit, served));
                }
            }
        }

        let since = self.swap_generation();
        let dataset = self.dataset();
        // If the policy may answer any of these universes with a sample,
        // the fused exact build would change semantics — route through
        // the standalone path, which owns the approximate pipeline.
        let approx_may_engage = mode != ApproxMode::Off
            && self
                .inner
                .approx
                .should_sample(mode, dataset.ratings().len());

        // Partition the misses: fused groups keyed by cube-build options
        // (first-seen order, so processing is deterministic), the rest
        // standalone.
        let mut fused: Vec<((usize, bool, usize), Vec<usize>)> = Vec::new();
        let mut standalone: Vec<usize> = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            if slots[i].is_some() || dupes.iter().any(|&(d, _)| d == i) {
                continue;
            }
            let fusable = !approx_may_engage
                && request.query.time.is_unrestricted()
                && request.settings.validate().is_ok()
                && self
                    .inner
                    .snapshots
                    .peek(&SnapshotKey::of(request))
                    .is_none();
            if !fusable {
                standalone.push(i);
                continue;
            }
            let options = (
                request.settings.min_support,
                request.settings.require_geo,
                request.settings.max_arity,
            );
            match fused.iter_mut().find(|(o, _)| *o == options) {
                Some((_, members)) => members.push(i),
                None => fused.push((options, vec![i])),
            }
        }

        for (_, group) in fused {
            // A group of one shares nothing; the standalone path also
            // owns coalescing with concurrent foreground flights.
            if group.len() < 2 {
                standalone.extend(group);
                continue;
            }
            let leftover =
                self.solve_fused_group(requests, &group, budget, &dataset, since, &mut slots);
            standalone.extend(leftover);
        }

        for i in standalone {
            let (result, served) = self.lookup_or_solve(&requests[i], budget, mode);
            // Approx bookkeeping parity with `explain_opts`.
            if matches!(&*result, Ok(r) if r.approx.is_some()) {
                self.inner.approx_served.fetch_add(1, Ordering::Relaxed);
                if self.inner.approx.refine {
                    self.schedule_refine(&requests[i]);
                }
            }
            slots[i] = Some((result, served));
        }

        for (i, first) in dupes {
            let (result, _) = slots[first].clone().expect("first occurrence was served");
            slots[i] = Some((result, ServedFrom::Coalesced));
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every batch slot is served"))
            .collect()
    }

    /// Solves one fused batch group: one combined cube build over the
    /// union of the group's items, then a derive + solve per member,
    /// fanned out over the worker pool ([`parallel::parallel_map`]).
    /// Returns the members it could not serve (routed standalone by the
    /// caller). Per-member snapshot/result caching matches
    /// [`MapRatEngine::solve_and_cache`]'s rules exactly.
    fn solve_fused_group(
        &self,
        requests: &[ExplainRequest],
        group: &[usize],
        budget: &Budget,
        dataset: &Arc<Dataset>,
        since: u64,
        slots: &mut [Option<(CachedResult, ServedFrom)>],
    ) -> Vec<usize> {
        let mut leftover: Vec<usize> = Vec::new();
        let mut members: Vec<(usize, Vec<ItemId>)> = Vec::new();
        for &i in group {
            let items = requests[i].query.items(dataset);
            if items.is_empty() {
                // The standalone path produces (and negative-caches) the
                // proper NoMatchingItems error for this query.
                leftover.push(i);
                continue;
            }
            members.push((i, items));
        }
        if members.len() < 2 {
            leftover.extend(members.into_iter().map(|(i, _)| i));
            return leftover;
        }
        let settings = &requests[members[0].0].settings;
        let options = CubeOptions {
            min_support: settings.min_support,
            require_geo: settings.require_geo,
            max_arity: settings.max_arity,
        };
        let combined_universe = CombinedUniverse::over(
            dataset,
            members.iter().flat_map(|(_, it)| it.iter().copied()),
        );
        // One shared build — the whole point of the fused path. A panic
        // here (chaos injection, builder bug) degrades the entire group
        // to the standalone path, which contains panics per request.
        let combined = match catch_unwind(AssertUnwindSafe(|| {
            RatingCube::build(
                dataset,
                combined_universe.rating_indexes().to_vec(),
                options,
            )
        })) {
            Ok(cube) => cube,
            Err(_) => {
                leftover.extend(members.into_iter().map(|(i, _)| i));
                return leftover;
            }
        };
        // Members derive and solve independently from the shared build, so
        // fan them out over the worker pool (the same idiom as the parallel
        // time-slider sweep): each slot's value depends only on its member,
        // never on scheduling, so the batch stays bit-identical for any
        // `MAPRAT_THREADS`. Cache writes and counters happen afterwards in
        // member order so eviction order matches the sequential story.
        let solved = parallel::parallel_map(members.len(), parallel::num_threads(), |m| {
            let (i, items) = &members[m];
            let request = &requests[*i];
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                maprat_faults::maybe_panic("solver.panic");
                let (rating_idx, segments) = combined_universe
                    .query_segments(items)
                    .expect("batch member items are in the union");
                if rating_idx.is_empty() {
                    return (None, Err(MineError::NoRatings));
                }
                let cube = derive_cube(dataset, &combined, &segments, rating_idx);
                if cube.is_empty() {
                    return (None, Err(MineError::NoCandidates));
                }
                let miner = Miner::new(dataset);
                let result = miner
                    .explain_cube_budget(
                        &request.query,
                        items.clone(),
                        &cube,
                        &request.settings,
                        budget,
                    )
                    .map(|explanation| ExplorationResult {
                        explanation,
                        cube: cube.clone(),
                        items: items.clone(),
                        dataset: Arc::clone(dataset),
                        approx: None,
                        body: OnceLock::new(),
                    });
                (Some(cube), result)
            }));
            match outcome {
                Ok(solved) => solved,
                Err(payload) => {
                    let what = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    (
                        None,
                        Err(MineError::Internal(format!("batch solve panicked: {what}"))),
                    )
                }
            }
        });
        for ((i, items), (derived, result)) in members.into_iter().zip(solved) {
            let request = &requests[i];
            if let Some(cube) = derived {
                // The derived cube is bit-identical to a standalone build,
                // so it is a valid (budget-independent) snapshot — kept
                // even when the solve itself errored (e.g. on deadline).
                self.publish(
                    &self.inner.snapshots,
                    since,
                    SnapshotKey::of(request),
                    CubeSnapshot {
                        items,
                        cube,
                        dataset: Arc::clone(dataset),
                    },
                );
            }
            self.inner.solves.fetch_add(1, Ordering::Relaxed);
            let cached = match &result {
                Err(MineError::DeadlineExceeded) => {
                    self.inner.deadline_expired.fetch_add(1, Ordering::Relaxed);
                    Arc::new(result)
                }
                Err(MineError::Internal(_)) => Arc::new(result),
                _ => self.publish(&self.inner.results, since, request.clone(), result),
            };
            slots[i] = Some((cached, ServedFrom::BatchFused));
        }
        leftover
    }

    /// Labels a result-tier hit: `hit` normally, `hit-preingest` when
    /// the entry was mined from a dataset snapshot a later ingest commit
    /// superseded (it survived the scoped swap because its partition was
    /// untouched). Also bumps the result tier's stale-hit counter.
    fn classify_hit(&self, hit: &CachedResult) -> ServedFrom {
        if let Ok(r) = &**hit {
            if !Arc::ptr_eq(&r.dataset, &read_lock(&self.inner.dataset)) {
                self.inner.results.stats().stale_hit();
                return ServedFrom::PreIngestCache;
            }
        }
        ServedFrom::ResultCache
    }

    /// Mode-aware hit classification: an approximate entry serves as
    /// `hit-approx` — unless the caller demanded `approx=off`, in which
    /// case the hit is treated as a miss (`None`) and the exact solve
    /// upgrades the entry.
    fn classify_hit_mode(&self, hit: &CachedResult, mode: ApproxMode) -> Option<ServedFrom> {
        if let Ok(r) = &**hit {
            if r.approx.is_some() {
                return match mode {
                    ApproxMode::Off => None,
                    _ => Some(ServedFrom::ApproxCache),
                };
            }
        }
        Some(self.classify_hit(hit))
    }

    fn lookup_or_solve(
        &self,
        request: &ExplainRequest,
        budget: &Budget,
        mode: ApproxMode,
    ) -> (CachedResult, ServedFrom) {
        if let Some(hit) = self.inner.results.get(request) {
            if let Some(served) = self.classify_hit_mode(&hit, mode) {
                return (hit, served);
            }
        }
        let outcome =
            self.inner
                .flights
                .run_bounded((request.clone(), mode.class()), FLIGHT_WAIT, || {
                    // Re-check after winning leadership: the previous leader may
                    // have published and retired its flight between our miss and
                    // our registration. `peek` — the miss was already recorded.
                    match self
                        .inner
                        .results
                        .peek(request)
                        .and_then(|hit| self.classify_hit_mode(&hit, mode).map(|s| (hit, s)))
                    {
                        Some((hit, served)) => (hit, served),
                        None => self.solve_and_cache(request, budget, mode),
                    }
                });
        match outcome {
            Ok(FlightOutcome::Led(v)) => (Arc::clone(&v.0), v.1),
            Ok(FlightOutcome::Joined(v)) => (Arc::clone(&v.0), ServedFrom::Coalesced),
            // The leader died (its flight was abandoned) or exceeded the
            // bounded wait: followers get a structured 500-class error —
            // never a hang, never a cache entry.
            Err(e) => {
                let msg = match e {
                    FlightError::LeaderFailed => "coalesced solve leader failed".to_string(),
                    FlightError::TimedOut => {
                        format!("coalesced solve exceeded {}s wait", FLIGHT_WAIT.as_secs())
                    }
                };
                (
                    Arc::new(Err(MineError::Internal(msg))),
                    ServedFrom::Coalesced,
                )
            }
        }
    }

    /// The miss path: consult the snapshot tier (skip the cube build on a
    /// hit), mine, and populate both tiers. Deterministic errors land in
    /// the result tier (negative caching) but never in the snapshot tier;
    /// non-deterministic outcomes — an expired deadline, a solver panic —
    /// are returned uncached.
    fn solve_and_cache(
        &self,
        request: &ExplainRequest,
        budget: &Budget,
        mode: ApproxMode,
    ) -> (CachedResult, ServedFrom) {
        let since = self.swap_generation();
        let key = SnapshotKey::of(request);
        // A panicking solve (bug, or the `solver.panic` chaos site) must
        // not unwind through the flight group and server thread: contain
        // it here and degrade it to a structured internal error.
        let (result, served) = match catch_unwind(AssertUnwindSafe(|| {
            maprat_faults::maybe_panic("solver.panic");
            self.mine_mode(request, budget, &key, since, mode)
        })) {
            Ok(pair) => pair,
            Err(payload) => {
                let what = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                (
                    Err(MineError::Internal(format!("solve panicked: {what}"))),
                    ServedFrom::Cold,
                )
            }
        };
        self.inner.solves.fetch_add(1, Ordering::Relaxed);
        match &result {
            Err(MineError::DeadlineExceeded) => {
                self.inner.deadline_expired.fetch_add(1, Ordering::Relaxed);
                (Arc::new(result), served)
            }
            Err(MineError::Internal(_)) => (Arc::new(result), served),
            _ => (
                self.publish(&self.inner.results, since, request.clone(), result),
                served,
            ),
        }
    }

    /// The mining work of a miss, mode-aware: try the approximate path
    /// first (it declines below the policy threshold), fall back to the
    /// exact pipeline.
    fn mine_mode(
        &self,
        request: &ExplainRequest,
        budget: &Budget,
        key: &SnapshotKey,
        since: u64,
        mode: ApproxMode,
    ) -> (Result<ExplorationResult, MineError>, ServedFrom) {
        if let Some(pair) = self.mine_approx(request, budget, mode) {
            return pair;
        }
        self.mine(request, budget, key, since)
    }

    /// The approximate miss path: stratified-sample `R_I`, build the cube
    /// over the sample, solve, and attach the error contract. Returns
    /// `None` when the approximate path declines (mode off, universe
    /// below the policy threshold, degenerate sample, or no surviving
    /// candidates) — the caller then runs the exact pipeline.
    ///
    /// Deliberately bypasses the snapshot tier in both directions: a
    /// sampled cube must never be stored where exact re-solves would read
    /// it, and an exact snapshot would defeat the point of sampling.
    fn mine_approx(
        &self,
        request: &ExplainRequest,
        budget: &Budget,
        mode: ApproxMode,
    ) -> Option<(Result<ExplorationResult, MineError>, ServedFrom)> {
        if mode == ApproxMode::Off {
            return None;
        }
        let policy = self.inner.approx;
        let dataset = self.dataset();
        // Cheap pre-gate on the whole rating column: `|R_I|` can't exceed
        // it, so below-threshold datasets skip universe collection (which
        // the exact path would otherwise repeat).
        if mode != ApproxMode::Force && !policy.should_sample(mode, dataset.ratings().len()) {
            return None;
        }
        let miner = Miner::new(&dataset);
        // The census memo serves `(items, R_I, census)` for repeated
        // sampled explains of one query; a hit skips the universe
        // collection *and* the sampler's full census pass. Entries are
        // pinned to the dataset they were collected from, so a hot-swap
        // race can never serve shifted positions. Settings validation
        // (which `collect_universe` would otherwise perform) stays on
        // the hit path too.
        if let Err(e) = request.settings.validate() {
            return Some((Err(e), ServedFrom::Cold));
        }
        let census_key = CensusKey::of(&request.query, policy.sample_frac);
        let entry = match self
            .inner
            .censuses
            .get(&census_key)
            .filter(|e| Arc::ptr_eq(&e.dataset, &dataset))
        {
            Some(entry) => entry,
            None => {
                let (items, universe) =
                    match miner.collect_universe(&request.query, &request.settings) {
                        Ok(pair) => pair,
                        // Validation and empty-universe errors are
                        // deterministic and identical to what the exact path
                        // would produce; surface them here rather than
                        // re-collecting.
                        Err(e) => return Some((Err(e), ServedFrom::Cold)),
                    };
                let census = StratumCensus::over(&dataset, &universe);
                self.inner.censuses.put(
                    census_key,
                    CensusEntry {
                        items,
                        universe,
                        census,
                        dataset: Arc::clone(&dataset),
                    },
                )
            }
        };
        let (items, universe) = (entry.items.clone(), &entry.universe);
        if !policy.should_sample(mode, universe.len()) {
            self.inner.approx_fallback.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let threads = maprat_pool::num_threads();
        let sampler = StratifiedSampler::new(policy.sample_frac, request.settings.rhe.seed);
        let sample = sampler.sample_with_census(&dataset, universe, &entry.census, threads);
        if sample.is_exhaustive() {
            // The sample *is* the universe (tiny strata everywhere):
            // approximation would just be the exact answer with extra
            // bookkeeping. Let the exact path cache its snapshot.
            self.inner.approx_fallback.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        // Scale min-support to the achieved fraction so a group needs the
        // same *population* support to survive candidate generation as it
        // would under the exact cube.
        let min_support = ((request.settings.min_support as f64) * sample.achieved_frac())
            .round()
            .max(1.0) as usize;
        let cube = RatingCube::build(
            &dataset,
            sample.rating_idx.clone(),
            CubeOptions {
                min_support,
                require_geo: request.settings.require_geo,
                max_arity: request.settings.max_arity,
            },
        );
        if cube.is_empty() {
            self.inner.approx_fallback.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let result = miner
            .explain_cube_budget(
                &request.query,
                items.clone(),
                &cube,
                &request.settings,
                budget,
            )
            .map(|mut explanation| {
                // Bounds come from the paired validation sample so the
                // solver's group selection cannot bias them. It shares
                // the memoized census — same fraction, different phases.
                let validation = sampler.validation().sample_with_census(
                    &dataset,
                    universe,
                    &entry.census,
                    threads,
                );
                let info =
                    ApproxInfo::for_explanation(&dataset, &explanation, &sample, &validation);
                // Report the *population* size: "N ratings explained" must
                // mean R_I, not the sample.
                explanation.num_ratings = sample.population;
                ExplorationResult {
                    explanation,
                    cube,
                    items,
                    dataset: Arc::clone(&dataset),
                    approx: Some(info),
                    body: OnceLock::new(),
                }
            });
        Some((result, ServedFrom::Cold))
    }

    /// Folds the request fingerprint to the refinement ledger's key width.
    fn refine_key(request: &ExplainRequest) -> u64 {
        let fp = request.fingerprint().as_u128();
        (fp >> 64) as u64 ^ fp as u64
    }

    /// Schedules the background exact re-solve of an approximate entry on
    /// an idle pool worker. At most one refinement per request is ever in
    /// flight (the ledger deduplicates), so a hot approximate entry served
    /// thousands of times costs one exact solve.
    fn schedule_refine(&self, request: &ExplainRequest) {
        let key = Self::refine_key(request);
        if !self.inner.refines.begin(key) {
            return;
        }
        let engine = self.clone();
        let request = request.clone();
        maprat_pool::global().spawn(move || {
            let _ = engine.run_refine(&request, key);
        });
    }

    /// Synchronously refines an approximate cache entry to exact (the
    /// same work [`MapRatEngine::explain_opts`] schedules in the
    /// background). Returns whether an upgrade landed — `false` when the
    /// entry is absent, already exact, superseded by a dataset swap, or a
    /// refinement is already in flight. Tests and drain paths use this to
    /// observe the upgrade without sleeping.
    pub fn refine_now(&self, request: &ExplainRequest) -> bool {
        let key = Self::refine_key(request);
        if !self.inner.refines.begin(key) {
            return false;
        }
        self.run_refine(request, key)
    }

    /// Body of a claimed refinement: runs the exact solve, publishes on
    /// success, and always releases the ledger claim — even on panic.
    fn run_refine(&self, request: &ExplainRequest, key: u64) -> bool {
        match catch_unwind(AssertUnwindSafe(|| self.refine_exact(request))) {
            Ok(true) => {
                self.inner.refines.finish(key);
                true
            }
            Ok(false) => {
                self.inner.refines.abandon(key);
                false
            }
            Err(_) => {
                self.inner.refines.abandon(key);
                false
            }
        }
    }

    /// Runs the exact pipeline for `request` and atomically replaces the
    /// approximate cache entry (`hit-approx` → `hit`). The swap is an
    /// `Arc` pointer publish — a concurrent reader sees either the full
    /// sampled result or the full exact one, never a torn mix. Publishes
    /// only when the entry is still approximate *and* still pinned to the
    /// current dataset: a hot-swap or scoped invalidation between solve
    /// and publish must win.
    fn refine_exact(&self, request: &ExplainRequest) -> bool {
        let since = self.swap_generation();
        let still_approx = || {
            matches!(
                self.inner.results.peek(request).as_deref(),
                Some(Ok(r)) if r.approx.is_some()
            )
        };
        if !still_approx() {
            return false;
        }
        let key = SnapshotKey::of(request);
        let (result, _) = self.mine(request, &Budget::unlimited(), &key, since);
        self.inner.solves.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(res) => {
                if !Arc::ptr_eq(&res.dataset, &read_lock(&self.inner.dataset)) {
                    return false;
                }
                if !still_approx() {
                    return false;
                }
                // A swap racing the publish refuses the upgrade.
                let exact = self.publish(&self.inner.results, since, request.clone(), Ok(res));
                self.inner
                    .results
                    .peek(request)
                    .is_some_and(|r| Arc::ptr_eq(&r, &exact))
            }
            Err(_) => false,
        }
    }

    /// [`Miner::collect_universe`] short-circuited through the census
    /// memo: the background refinement of a sampled entry (and any exact
    /// cold solve of a census-memoized query) reuses the memoized
    /// `(items, R_I)` instead of re-collecting the universe. Falls
    /// through to the miner when no entry is pinned to the current
    /// dataset. Semantically identical either way — the universe is a
    /// pure function of (dataset, query), and entries pin their dataset.
    fn collect_reusing_census(
        &self,
        miner: &Miner,
        dataset: &Arc<Dataset>,
        request: &ExplainRequest,
    ) -> Result<(Vec<ItemId>, Vec<u32>), MineError> {
        request.settings.validate()?;
        let key = CensusKey::of(&request.query, self.inner.approx.sample_frac);
        if let Some(entry) = self.inner.censuses.peek(&key) {
            if Arc::ptr_eq(&entry.dataset, dataset) {
                return Ok((entry.items.clone(), entry.universe.clone()));
            }
        }
        miner.collect_universe(&request.query, &request.settings)
    }

    /// The actual mining work of a miss: snapshot-tier lookup, cube
    /// build, budgeted solve. `since` is the swap generation read before
    /// the lookup; a freshly built cube is cached only under it.
    fn mine(
        &self,
        request: &ExplainRequest,
        budget: &Budget,
        key: &SnapshotKey,
        since: u64,
    ) -> (Result<ExplorationResult, MineError>, ServedFrom) {
        match self.inner.snapshots.get(key) {
            Some(snap) => {
                // Re-solve against the snapshot's *pinned* dataset: the
                // cube's positions index that snapshot's rating column,
                // which an ingest commit may have since re-spliced.
                let miner = Miner::new(&snap.dataset);
                let result = miner
                    .explain_cube_budget(
                        &request.query,
                        snap.items.clone(),
                        &snap.cube,
                        &request.settings,
                        budget,
                    )
                    .map(|explanation| ExplorationResult {
                        explanation,
                        cube: snap.cube.clone(),
                        items: snap.items.clone(),
                        dataset: Arc::clone(&snap.dataset),
                        approx: None,
                        body: OnceLock::new(),
                    });
                (result, ServedFrom::SnapshotCache)
            }
            None => {
                let dataset = self.dataset();
                let miner = Miner::new(&dataset);
                let result = self
                    .collect_reusing_census(&miner, &dataset, request)
                    .and_then(|(items, rating_idx)| {
                        let cube = RatingCube::build(
                            &dataset,
                            rating_idx,
                            CubeOptions {
                                min_support: request.settings.min_support,
                                require_geo: request.settings.require_geo,
                                max_arity: request.settings.max_arity,
                            },
                        );
                        if cube.is_empty() {
                            return Err(MineError::NoCandidates);
                        }
                        Ok((items, cube))
                    })
                    .and_then(|(items, cube)| {
                        self.publish(
                            &self.inner.snapshots,
                            since,
                            key.clone(),
                            CubeSnapshot {
                                items: items.clone(),
                                cube: cube.clone(),
                                dataset: Arc::clone(&dataset),
                            },
                        );
                        let explanation = miner.explain_cube_budget(
                            &request.query,
                            items.clone(),
                            &cube,
                            &request.settings,
                            budget,
                        )?;
                        Ok(ExplorationResult {
                            explanation,
                            cube,
                            items,
                            dataset: Arc::clone(&dataset),
                            approx: None,
                            body: OnceLock::new(),
                        })
                    });
                (result, ServedFrom::Cold)
            }
        }
    }

    /// Convenience: explains a query/settings pair.
    pub fn explain_query(
        &self,
        query: &ItemQuery,
        settings: &SearchSettings,
    ) -> Arc<Result<ExplorationResult, MineError>> {
        self.explain(&ExplainRequest::new(query.clone(), settings.clone()))
    }

    /// Pre-computes explanations for the `n` most-rated items (the paper's
    /// "aggressive … result pre-computation": popular movies answer at
    /// cache latency from the first request).
    ///
    /// Returns the number of items successfully pre-computed.
    pub fn precompute_popular(&self, n: usize, settings: &SearchSettings) -> usize {
        let dataset = self.dataset();
        let mut by_count: Vec<(usize, ItemId)> = dataset
            .items()
            .iter()
            .map(|it| (dataset.ratings_for_item(it.id).len(), it.id))
            .collect();
        by_count.sort_by_key(|&(n, id)| (std::cmp::Reverse(n), id));
        let mut ok = 0;
        for &(_, item) in by_count.iter().take(n) {
            let query = ItemQuery::title(&dataset.item(item).title);
            if self.explain_query(&query, settings).is_ok() {
                ok += 1;
            }
        }
        ok
    }

    /// Drops both cache tiers (settings sweep, benchmarking, …). For
    /// dataset changes prefer [`MapRatEngine::swap_dataset`], which
    /// clears and swaps atomically enough for serving.
    pub fn clear_cache(&self) {
        self.inner.results.clear();
        self.inner.snapshots.clear();
        self.inner.censuses.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maprat_data::synth::{generate, SynthConfig};

    fn engine() -> MapRatEngine {
        MapRatEngine::from_dataset(generate(&SynthConfig::tiny(111)).unwrap())
    }

    fn settings() -> SearchSettings {
        SearchSettings::default()
            .with_min_coverage(0.1)
            .with_require_geo(false)
    }

    #[test]
    fn repeated_queries_hit_cache() {
        let engine = engine();
        let q = ItemQuery::title("Toy Story");
        let s = settings();
        let first = engine.explain_query(&q, &s);
        assert!(first.is_ok());
        let misses_after_first = engine.cache_stats().misses();
        let second = engine.explain_query(&q, &s);
        assert!(second.is_ok());
        assert_eq!(
            engine.cache_stats().misses(),
            misses_after_first,
            "second query must not miss"
        );
        assert!(engine.cache_stats().hits() >= 1);
        assert!(Arc::ptr_eq(&first, &second), "same cached value");
    }

    #[test]
    fn clones_share_dataset_and_cache() {
        let engine = engine();
        let clone = engine.clone();
        assert!(Arc::ptr_eq(&engine.dataset(), &clone.dataset()));
        let q = ItemQuery::title("Toy Story");
        let s = settings();
        let via_original = engine.explain_query(&q, &s);
        let via_clone = clone.explain_query(&q, &s);
        assert!(
            Arc::ptr_eq(&via_original, &via_clone),
            "clone must serve from the shared cache"
        );
        assert!(clone.cache_stats().hits() >= 1);
    }

    #[test]
    fn settings_change_invalidates_key() {
        let engine = engine();
        let q = ItemQuery::title("Toy Story");
        let a = engine.explain_query(&q, &settings());
        let b = engine.explain_query(&q, &settings().with_max_groups(2));
        assert!(
            !Arc::ptr_eq(&a, &b),
            "different settings → different entries"
        );
    }

    #[test]
    fn errors_are_cached_too() {
        let engine = engine();
        let q = ItemQuery::title("No Such Movie");
        let r = engine.explain_query(&q, &settings());
        assert!(matches!(&*r, Err(MineError::NoMatchingItems(_))));
        let _ = engine.explain_query(&q, &settings());
        assert!(engine.cache_stats().hits() >= 1, "negative caching");
    }

    #[test]
    fn precompute_warms_cache() {
        let engine = engine();
        let s = settings();
        let warmed = engine.precompute_popular(3, &s);
        assert!(warmed >= 1);
        let misses_before = engine.cache_stats().misses();
        // The most-rated item is planted Toy Story at tiny scale; query it.
        let dataset = engine.dataset();
        let top = dataset
            .items()
            .iter()
            .max_by_key(|it| dataset.ratings_for_item(it.id).len())
            .unwrap()
            .title
            .clone();
        let _ = engine.explain_query(&ItemQuery::title(&top), &s);
        assert_eq!(engine.cache_stats().misses(), misses_before);
    }

    #[test]
    fn clear_cache_forces_recompute() {
        let engine = engine();
        let q = ItemQuery::title("Toy Story");
        let s = settings();
        let _ = engine.explain_query(&q, &s);
        engine.clear_cache();
        let misses_before = engine.cache_stats().misses();
        let _ = engine.explain_query(&q, &s);
        assert_eq!(engine.cache_stats().misses(), misses_before + 1);
    }

    #[test]
    fn explain_traced_reports_tiers() {
        let engine = engine();
        let q = ItemQuery::title("Toy Story");
        let (r, served) = engine.explain_traced(&ExplainRequest::new(q.clone(), settings()));
        assert!(r.is_ok());
        assert_eq!(served, ServedFrom::Cold, "first request builds the cube");
        let (_, served) = engine.explain_traced(&ExplainRequest::new(q.clone(), settings()));
        assert_eq!(served, ServedFrom::ResultCache, "repeat is a result hit");
        // Same query, different solver budget: the cube-build inputs are
        // unchanged, so only the solve re-runs.
        let (r, served) =
            engine.explain_traced(&ExplainRequest::new(q, settings().with_max_groups(2)));
        assert!(r.is_ok());
        assert_eq!(served, ServedFrom::SnapshotCache, "snapshot tier hit");
        assert!(engine.snapshot_stats().hits() >= 1);
    }

    #[test]
    fn snapshot_tier_survives_result_eviction() {
        // A result tier of 1 entry per shard churns constantly; the
        // snapshot tier keeps absorbing the cube build anyway.
        let engine = MapRatEngine::with_cache_size(
            Arc::new(generate(&SynthConfig::tiny(111)).unwrap()),
            1,
            1,
        );
        let q = ItemQuery::title("Toy Story");
        for k in 1..=4 {
            let _ = engine.explain_query(&q, &settings().with_max_groups(k));
        }
        let stats = engine.serving_stats();
        assert_eq!(stats.snapshot_misses, 1, "cube built exactly once");
        assert_eq!(stats.snapshot_hits, 3, "later budgets reuse the cube");
    }

    #[test]
    fn concurrent_identical_cold_explains_solve_once() {
        // The coalescing acceptance test: N identical cold explains in
        // flight at once run exactly one solve between them.
        let engine = engine();
        let request = ExplainRequest::new(ItemQuery::title("Toy Story"), settings());
        let barrier = std::sync::Barrier::new(8);
        let results: Vec<(Arc<Result<ExplorationResult, MineError>>, ServedFrom)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        let (engine, request, barrier) = (engine.clone(), &request, &barrier);
                        scope.spawn(move || {
                            barrier.wait();
                            engine.explain_traced(request)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
        assert_eq!(engine.solve_count(), 1, "exactly one solve ran");
        let first = &results[0].0;
        for (r, _) in &results {
            assert!(r.is_ok());
            assert!(Arc::ptr_eq(first, r), "all callers share one result");
        }
        let stats = engine.serving_stats();
        // Every caller either led the flight, joined it, or arrived
        // after the leader published and hit the result tier directly.
        assert!(stats.flights_led >= 1, "someone led the solve");
        assert_eq!(
            stats.flights_led + stats.flights_joined + stats.result_hits,
            8,
            "all 8 callers accounted for: {stats:?}"
        );
    }

    #[test]
    fn swap_dataset_invalidates_everything() {
        let engine = engine();
        let q = ItemQuery::title("Toy Story");
        let before = engine.explain_query(&q, &settings());
        assert!(before.is_ok());
        engine.swap_dataset(Arc::new(generate(&SynthConfig::tiny(222)).unwrap()));
        assert_eq!(engine.cache_len(), 0);
        let (after, served) = engine.explain_traced(&ExplainRequest::new(q, settings()));
        assert_eq!(served, ServedFrom::Cold, "both tiers were dropped");
        assert!(
            !Arc::ptr_eq(&before, &after),
            "new dataset recomputes from scratch"
        );
    }

    #[test]
    fn scoped_swap_drops_only_touched_partitions() {
        let engine = engine();
        let dataset = engine.dataset();
        let toy = engine.explain_query(&ItemQuery::title("Toy Story"), &settings());
        let toy_items = match &*toy {
            Ok(r) => r.items.clone(),
            Err(e) => panic!("warm-up failed: {e:?}"),
        };
        // A second cached entry over disjoint items (planted titles are
        // stable at tiny scale; find one not in Toy Story's match set).
        let other_title = dataset
            .items()
            .iter()
            .find(|it| {
                !toy_items.contains(&it.id)
                    && engine
                        .explain_query(&ItemQuery::title(&it.title), &settings())
                        .is_ok()
            })
            .map(|it| it.title.clone())
            .expect("tiny dataset has a disjoint explainable item");
        let dropped = engine.swap_dataset_scoped(Arc::clone(&dataset), &toy_items);
        assert!(dropped >= 2, "Toy Story result + snapshot dropped");
        let (_, served) = engine.explain_traced(&ExplainRequest::new(
            ItemQuery::title(&other_title),
            settings(),
        ));
        assert_eq!(
            served,
            ServedFrom::ResultCache,
            "untouched partition survives the scoped swap"
        );
        let (_, served) = engine.explain_traced(&ExplainRequest::new(
            ItemQuery::title("Toy Story"),
            settings(),
        ));
        assert_eq!(served, ServedFrom::Cold, "touched partition recomputes");
    }

    #[test]
    fn scoped_swap_labels_retained_hits_preingest() {
        // An ingest commit that leaves a cached entry's partition
        // untouched keeps the entry serving, but the hit is labeled as
        // coming from the pre-ingest snapshot.
        let engine = engine();
        let q = ItemQuery::title("Toy Story");
        let s = settings();
        assert!(engine.explain_query(&q, &s).is_ok());
        let appended = engine
            .dataset()
            .with_appended(maprat_data::AppendBatch::new())
            .unwrap();
        engine.swap_dataset_scoped(Arc::new(appended.dataset), &[]);
        let (r, served) = engine.explain_traced(&ExplainRequest::new(q, s));
        assert!(r.is_ok());
        assert_eq!(served, ServedFrom::PreIngestCache);
        assert_eq!(served.as_str(), "hit-preingest");
        assert!(engine.cache_stats().stale_hits() >= 1);
        if let Ok(result) = &*r {
            assert!(
                !Arc::ptr_eq(&result.dataset, &engine.dataset()),
                "the served result pins the pre-ingest snapshot"
            );
        }
    }

    /// A commit that changes Toy Story: a copy of each of its ratings at
    /// the lowest score. Returns the committed dataset and changed items.
    fn toy_story_commit(engine: &MapRatEngine) -> (Arc<Dataset>, Vec<ItemId>) {
        let dataset = engine.dataset();
        let toy = dataset.find_title("Toy Story").expect("planted title");
        let mut batch = maprat_data::AppendBatch::new();
        batch.ratings = dataset
            .ratings_for_item(toy)
            .iter()
            .map(|r| maprat_data::Rating {
                score: maprat_data::Score::MIN,
                ..*r
            })
            .collect();
        let appended = dataset.with_appended(batch).unwrap();
        (Arc::new(appended.dataset), appended.changed_items)
    }

    fn set_interleave(engine: &MapRatEngine, hook: Option<Interleave>) {
        *engine.inner.interleave.lock().unwrap() = hook;
    }

    /// The answer `request` gets now must be mined from `dataset`.
    fn assert_fresh(engine: &MapRatEngine, request: &ExplainRequest, dataset: &Arc<Dataset>) {
        let (result, served) = engine.explain_traced(request);
        assert_ne!(served, ServedFrom::PreIngestCache, "stale entry survived");
        let r = result.as_ref().as_ref().expect("explains");
        assert!(
            Arc::ptr_eq(&r.dataset, dataset),
            "answer ({served}) mined from a superseded dataset"
        );
    }

    #[test]
    fn scoped_swap_never_caches_a_mid_swap_resolve() {
        // Requests for the changed item land at every step of the swap:
        // `a` finds its result dropped or not yet dropped, `b` (same
        // cube, other solver settings) always misses the result tier and
        // re-solves from whatever the snapshot tier still holds. Neither
        // may leave a stale entry behind.
        let engine = engine();
        let a = ExplainRequest::new(ItemQuery::title("Toy Story"), settings());
        let b = ExplainRequest::new(ItemQuery::title("Toy Story"), settings().with_max_groups(2));
        assert!(engine.explain(&a).is_ok(), "caches a's result and the cube");
        let (fresh, changed) = toy_story_commit(&engine);
        let (ha, hb) = (a.clone(), b.clone());
        set_interleave(
            &engine,
            Some(Arc::new(move |engine: &MapRatEngine, point: &str| {
                if point == "swap" {
                    assert!(engine.explain(&ha).is_ok());
                    assert!(engine.explain(&hb).is_ok());
                }
            })),
        );
        engine.swap_dataset_scoped(Arc::clone(&fresh), &changed);
        set_interleave(&engine, None);
        assert_fresh(&engine, &a, &fresh);
        assert_fresh(&engine, &b, &fresh);
    }

    #[test]
    fn solve_racing_a_scoped_swap_is_not_cached() {
        // The commit publishes while a cold solve is in flight: after its
        // cube build, before its first cache insert. The solve still
        // answers its own request, but caches neither its cube nor its
        // result.
        let engine = engine();
        let a = ExplainRequest::new(ItemQuery::title("Toy Story"), settings());
        let (fresh, changed) = toy_story_commit(&engine);
        let commit = Arc::clone(&fresh);
        let fired = std::sync::atomic::AtomicBool::new(false);
        set_interleave(
            &engine,
            Some(Arc::new(move |engine: &MapRatEngine, point: &str| {
                if point == "publish" && !fired.swap(true, Ordering::SeqCst) {
                    engine.swap_dataset_scoped(Arc::clone(&commit), &changed);
                }
            })),
        );
        let (first, served) = engine.explain_traced(&a);
        set_interleave(&engine, None);
        assert_eq!(served, ServedFrom::Cold);
        assert!(first.is_ok(), "the racing solve still answers");
        let (_, served) = engine.explain_traced(&a);
        assert_eq!(served, ServedFrom::Cold, "no stale result or cube cached");
        assert_fresh(&engine, &a, &fresh);
    }

    #[test]
    fn hot_swap_under_load_drops_no_requests() {
        // Explains hammer the engine while the dataset is swapped
        // repeatedly; every request completes against a coherent dataset.
        let engine = engine();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (engine, stop) = (engine.clone(), &stop);
                scope.spawn(move || {
                    let mut served = 0u32;
                    while !stop.load(Ordering::SeqCst) {
                        let q = ItemQuery::title("Toy Story");
                        let s = settings().with_max_groups(1 + (served as usize + t) % 3);
                        let r = engine.explain_query(&q, &s);
                        assert!(r.is_ok(), "in-flight request dropped: {:?}", r);
                        served += 1;
                    }
                    assert!(served > 0);
                });
            }
            for seed in [311, 312, 313] {
                engine.swap_dataset(Arc::new(generate(&SynthConfig::tiny(seed)).unwrap()));
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            stop.store(true, Ordering::SeqCst);
        });
    }

    #[test]
    fn warm_is_idempotent_and_background() {
        let engine = engine();
        let request = ExplainRequest::new(ItemQuery::title("Toy Story"), settings());
        assert_eq!(engine.foreground_inflight(), 0);
        assert!(engine.warm(&request), "cold warm does work");
        assert!(!engine.warm(&request), "second warm is a no-op");
        let (_, served) = engine.explain_traced(&request);
        assert_eq!(served, ServedFrom::ResultCache, "foreground rides the warm");
        assert_eq!(engine.foreground_inflight(), 0, "warm is not foreground");
    }

    #[test]
    fn expired_deadline_is_structured_and_never_cached() {
        let engine = engine();
        let request = ExplainRequest::new(ItemQuery::title("Toy Story"), settings());
        let expired = Budget::with_deadline(Duration::ZERO);
        let (r, _) = engine.explain_deadline(&request, &expired);
        assert!(matches!(&*r, Err(MineError::DeadlineExceeded)));
        assert_eq!(engine.serving_stats().deadline_expired, 1);
        assert!(
            !engine.cached(&request),
            "an expired solve must not poison the cache"
        );
        // A retry with time succeeds. The *result* wasn't cached, but the
        // cube snapshot was (it is deterministic and budget-independent),
        // so the retry pays only the solve.
        let (r, served) = engine.explain_traced(&request);
        assert!(r.is_ok());
        assert_eq!(served, ServedFrom::SnapshotCache);
        // Once cached, even an expired budget serves the hit: a deadline
        // gates solving, never cache lookups.
        let (r, served) = engine.explain_deadline(&request, &expired);
        assert!(r.is_ok());
        assert_eq!(served, ServedFrom::ResultCache);
        assert_eq!(engine.serving_stats().deadline_expired, 1);
    }

    #[test]
    fn generous_deadline_matches_unbudgeted_solve() {
        let engine = engine();
        let q = ItemQuery::title("Toy Story");
        let request = ExplainRequest::new(q, settings());
        let (budgeted, _) = engine.explain_deadline(&request, &Budget::from_deadline_ms(120_000));
        engine.clear_cache();
        let (plain, _) = engine.explain_traced(&request);
        match (&*budgeted, &*plain) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    format!("{:?}", a.explanation.similarity.groups),
                    format!("{:?}", b.explanation.similarity.groups)
                );
                assert_eq!(
                    a.explanation.diversity.objective,
                    b.explanation.diversity.objective
                );
            }
            other => panic!("both solves should succeed: {other:?}"),
        }
    }

    /// A permissive policy with background refinement disabled, so tests
    /// control exactly when the upgrade happens via `refine_now`.
    fn approx_policy(min_ratings: usize) -> ApproxPolicy {
        ApproxPolicy {
            enabled: true,
            sample_frac: 0.1,
            min_ratings,
            refine: false,
        }
    }

    fn approx_engine(min_ratings: usize) -> MapRatEngine {
        MapRatEngine::with_approx_policy(
            Arc::new(generate(&SynthConfig::tiny(111)).unwrap()),
            approx_policy(min_ratings),
        )
    }

    #[test]
    fn forced_approx_serves_bounds_and_hit_approx() {
        let engine = approx_engine(usize::MAX); // auto would never sample
        let request = ExplainRequest::new(ItemQuery::title("Toy Story"), settings());
        let (r, served) = engine.explain_opts(&request, &Budget::unlimited(), ApproxMode::Force);
        assert_eq!(served, ServedFrom::Cold, "first forced request solves");
        let result = match &*r {
            Ok(result) => result,
            Err(e) => panic!("forced approx failed: {e:?}"),
        };
        let info = result.approx.as_ref().expect("carries the contract");
        assert!(
            info.sampled < info.population,
            "a real sample, not a census"
        );
        assert!(info.achieved_frac < 1.0 && info.achieved_frac > 0.0);
        assert!(info.strata >= 1);
        for bound in info.similarity.groups.iter().chain(&info.diversity.groups) {
            assert!(bound.mean_lo <= bound.mean && bound.mean <= bound.mean_hi);
            assert!(bound.exact_support >= bound.sampled_support);
        }
        assert_eq!(
            result.explanation.num_ratings, info.population as usize,
            "reported |R_I| is the population, not the sample"
        );
        // A repeat under any sampling-tolerant mode is an approx hit.
        let (r2, served) = engine.explain_opts(&request, &Budget::unlimited(), ApproxMode::Auto);
        assert_eq!(served, ServedFrom::ApproxCache);
        assert_eq!(served.as_str(), "hit-approx");
        assert!(Arc::ptr_eq(&r, &r2), "hit shares the cached entry");
        let stats = engine.serving_stats();
        assert_eq!(stats.approx_served, 2, "cold serve + approx hit");
        assert_eq!(stats.approx_refined, 0, "refinement was disabled");
    }

    #[test]
    fn auto_mode_below_threshold_stays_exact() {
        // Threshold above the whole rating column: the pre-gate declines
        // before even collecting the universe — no fallback counted.
        let engine = approx_engine(usize::MAX);
        let request = ExplainRequest::new(ItemQuery::title("Toy Story"), settings());
        let (r, served) = engine.explain_opts(&request, &Budget::unlimited(), ApproxMode::Auto);
        assert!(r.is_ok());
        assert_eq!(served, ServedFrom::Cold);
        assert!(matches!(&*r, Ok(result) if result.approx.is_none()));
        let stats = engine.serving_stats();
        assert_eq!(stats.approx_served, 0);
        assert_eq!(stats.approx_fallback_exact, 0, "pre-gate is not a fallback");
    }

    #[test]
    fn auto_fallback_counts_consulted_but_declined() {
        // Threshold between |R_I| and the whole rating column: the
        // pre-gate passes, the universe is collected, and the policy then
        // declines — that consultation is what the fallback counter means.
        let engine = engine();
        let dataset = engine.dataset();
        let universe = ItemQuery::title("Toy Story").rating_indexes(&dataset);
        let total = dataset.ratings().len();
        assert!(
            universe.len() + 1 < total,
            "tiny scale: one title is a strict subset of all ratings"
        );
        let engine = MapRatEngine::with_approx_policy(
            Arc::clone(&dataset),
            approx_policy(universe.len() + 1),
        );
        let request = ExplainRequest::new(ItemQuery::title("Toy Story"), settings());
        let (r, served) = engine.explain_opts(&request, &Budget::unlimited(), ApproxMode::Auto);
        assert!(r.is_ok());
        assert_eq!(served, ServedFrom::Cold);
        assert!(matches!(&*r, Ok(result) if result.approx.is_none()));
        assert_eq!(engine.serving_stats().approx_fallback_exact, 1);
    }

    #[test]
    fn approx_off_upgrades_cached_approx_entry() {
        let engine = approx_engine(usize::MAX);
        let request = ExplainRequest::new(ItemQuery::title("Toy Story"), settings());
        let (approx, _) = engine.explain_opts(&request, &Budget::unlimited(), ApproxMode::Force);
        assert!(matches!(&*approx, Ok(r) if r.approx.is_some()));
        // approx=off treats the sampled entry as a miss and re-solves.
        let (exact, served) = engine.explain_opts(&request, &Budget::unlimited(), ApproxMode::Off);
        assert_eq!(served, ServedFrom::Cold, "off-mode re-solved");
        assert!(matches!(&*exact, Ok(r) if r.approx.is_none()));
        assert!(!Arc::ptr_eq(&approx, &exact));
        // The exact answer overwrote the entry: subsequent default-mode
        // requests get a plain `hit`.
        let (r, served) = engine.explain_traced(&request);
        assert_eq!(served, ServedFrom::ResultCache);
        assert!(Arc::ptr_eq(&r, &exact));
    }

    #[test]
    fn refine_now_upgrades_entry_in_place() {
        let engine = approx_engine(usize::MAX);
        let request = ExplainRequest::new(ItemQuery::title("Toy Story"), settings());
        assert!(!engine.refine_now(&request), "nothing to refine yet");
        let (approx, _) = engine.explain_opts(&request, &Budget::unlimited(), ApproxMode::Force);
        assert!(matches!(&*approx, Ok(r) if r.approx.is_some()));
        assert!(engine.refine_now(&request), "refinement lands");
        let (r, served) = engine.explain_traced(&request);
        assert_eq!(served, ServedFrom::ResultCache, "hit-approx became hit");
        assert!(matches!(&*r, Ok(result) if result.approx.is_none()));
        let stats = engine.serving_stats();
        assert_eq!(stats.approx_refined, 1);
        assert!(!engine.refine_now(&request), "already exact: no-op");
        assert_eq!(engine.serving_stats().approx_refined, 1);
    }

    #[test]
    fn background_refinement_lands_after_forced_serve() {
        // With refine enabled, serving a sampled answer schedules the
        // exact upgrade on a pool worker; poll until it lands.
        let engine = MapRatEngine::with_approx_policy(
            Arc::new(generate(&SynthConfig::tiny(111)).unwrap()),
            ApproxPolicy {
                refine: true,
                ..approx_policy(usize::MAX)
            },
        );
        let request = ExplainRequest::new(ItemQuery::title("Toy Story"), settings());
        let (r, _) = engine.explain_opts(&request, &Budget::unlimited(), ApproxMode::Force);
        assert!(matches!(&*r, Ok(result) if result.approx.is_some()));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            if engine.serving_stats().approx_refined == 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "background refinement never landed"
            );
            std::thread::yield_now();
        }
        let (r, served) = engine.explain_traced(&request);
        assert_eq!(served, ServedFrom::ResultCache);
        assert!(matches!(&*r, Ok(result) if result.approx.is_none()));
    }

    #[test]
    fn refinement_race_never_serves_torn_or_stale_approx() {
        // Readers hammer the entry while the exact upgrade lands: every
        // response is a complete result, and once a reader observes the
        // exact answer the sampled one never reappears.
        let engine = approx_engine(usize::MAX);
        let request = ExplainRequest::new(ItemQuery::title("Toy Story"), settings());
        let (r, _) = engine.explain_opts(&request, &Budget::unlimited(), ApproxMode::Force);
        assert!(matches!(&*r, Ok(result) if result.approx.is_some()));
        let refined = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (engine, request, refined) = (engine.clone(), &request, &refined);
                scope.spawn(move || {
                    let mut seen_exact = false;
                    for _ in 0..300 {
                        let (r, served) =
                            engine.explain_opts(request, &Budget::unlimited(), ApproxMode::Auto);
                        let result = match &*r {
                            Ok(result) => result,
                            Err(e) => panic!("race produced an error: {e:?}"),
                        };
                        match &result.approx {
                            Some(info) => {
                                assert!(!seen_exact, "sampled answer resurfaced after exact");
                                assert_eq!(served, ServedFrom::ApproxCache);
                                // A complete contract, never a torn one.
                                assert!(info.sampled <= info.population);
                            }
                            None => {
                                seen_exact = true;
                                assert!(
                                    refined.load(Ordering::SeqCst),
                                    "exact served before any refinement landed"
                                );
                                assert_ne!(served, ServedFrom::ApproxCache);
                            }
                        }
                        assert!(result.explanation.num_ratings > 0);
                    }
                });
            }
            // Let readers observe the sampled entry, then upgrade it.
            std::thread::sleep(Duration::from_millis(5));
            refined.store(true, Ordering::SeqCst);
            assert!(engine.refine_now(&request));
        });
        assert_eq!(engine.serving_stats().approx_refined, 1);
    }

    #[test]
    fn batch_explain_is_answer_identical_to_standalone() {
        let engine = engine();
        let dataset = engine.dataset();
        let titles: Vec<String> = dataset
            .items()
            .iter()
            .take(6)
            .map(|it| it.title.clone())
            .collect();
        let requests: Vec<ExplainRequest> = titles
            .iter()
            .map(|t| ExplainRequest::new(ItemQuery::title(t), settings()))
            .collect();
        let batch = engine.explain_batch(&requests, &Budget::unlimited());
        assert_eq!(batch.len(), requests.len());
        // Reference answers from a fresh engine, one standalone build each.
        let reference = MapRatEngine::new(Arc::clone(&dataset));
        for (request, (result, served)) in requests.iter().zip(&batch) {
            assert_eq!(
                *served,
                ServedFrom::BatchFused,
                "{}",
                request.query.describe()
            );
            let standalone = reference.explain(request);
            match (&**result, &*standalone) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        format!("{:?}", a.explanation.similarity.groups),
                        format!("{:?}", b.explanation.similarity.groups),
                        "{}",
                        request.query.describe()
                    );
                    assert_eq!(
                        a.explanation.diversity.objective,
                        b.explanation.diversity.objective
                    );
                    assert_eq!(a.explanation.num_ratings, b.explanation.num_ratings);
                    assert_eq!(a.cube.len(), b.cube.len(), "derived cube matches");
                }
                (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
                other => panic!("batch and standalone disagree: {other:?}"),
            }
            // The batch populated the result tier like a standalone miss.
            let (shared, served) = engine.explain_traced(request);
            assert_eq!(served, ServedFrom::ResultCache);
            assert!(Arc::ptr_eq(&shared, result));
        }
        // …and the snapshot tier too: a new budget re-solves, no rebuild.
        let resolve =
            ExplainRequest::new(ItemQuery::title(&titles[0]), settings().with_max_groups(2));
        let (r, served) = engine.explain_traced(&resolve);
        assert!(r.is_ok());
        assert_eq!(served, ServedFrom::SnapshotCache);
    }

    #[test]
    fn batch_explain_probes_tiers_and_coalesces_duplicates() {
        let engine = engine();
        let warm = ExplainRequest::new(ItemQuery::title("Toy Story"), settings());
        assert!(engine.explain(&warm).is_ok());
        let dataset = engine.dataset();
        let fresh: Vec<ExplainRequest> = dataset
            .items()
            .iter()
            .filter(|it| it.title != "Toy Story")
            .take(2)
            .map(|it| ExplainRequest::new(ItemQuery::title(&it.title), settings()))
            .collect();
        let requests = vec![
            warm.clone(),
            fresh[0].clone(),
            fresh[0].clone(),
            fresh[1].clone(),
        ];
        let solves_before = engine.solve_count();
        let batch = engine.explain_batch(&requests, &Budget::unlimited());
        assert_eq!(batch[0].1, ServedFrom::ResultCache, "warm slot is a hit");
        assert_eq!(batch[1].1, ServedFrom::BatchFused);
        assert_eq!(batch[1].1.as_str(), "batch");
        assert_eq!(batch[2].1, ServedFrom::Coalesced, "in-batch duplicate");
        assert!(
            Arc::ptr_eq(&batch[1].0, &batch[2].0),
            "duplicate shares the solve"
        );
        assert_eq!(batch[3].1, ServedFrom::BatchFused);
        assert_eq!(
            engine.solve_count() - solves_before,
            2,
            "two fused solves: hit and duplicate never reached the miner"
        );
    }

    #[test]
    fn batch_routes_time_restricted_queries_standalone() {
        use maprat_data::{TimeRange, Timestamp};
        let engine = engine();
        let dataset = engine.dataset();
        let titles: Vec<String> = dataset
            .items()
            .iter()
            .take(3)
            .map(|it| it.title.clone())
            .collect();
        let restricted = ExplainRequest::new(
            ItemQuery::title(&titles[0]).within(TimeRange::until(Timestamp::from_ymd(2005, 1, 1))),
            settings(),
        );
        let requests = vec![
            restricted,
            ExplainRequest::new(ItemQuery::title(&titles[1]), settings()),
            ExplainRequest::new(ItemQuery::title(&titles[2]), settings()),
        ];
        let batch = engine.explain_batch(&requests, &Budget::unlimited());
        assert_eq!(
            batch[0].1,
            ServedFrom::Cold,
            "time-restricted universes are not fusable"
        );
        assert_eq!(batch[1].1, ServedFrom::BatchFused);
        assert_eq!(batch[2].1, ServedFrom::BatchFused);
    }

    #[test]
    fn census_memo_is_shared_across_sampled_explains_and_refinement() {
        let engine = approx_engine(usize::MAX);
        let q = ItemQuery::title("Toy Story");
        let first = ExplainRequest::new(q.clone(), settings());
        let (a, _) = engine.explain_opts(&first, &Budget::unlimited(), ApproxMode::Force);
        assert!(matches!(&*a, Ok(r) if r.approx.is_some()));
        assert_eq!(engine.census_stats().misses(), 1, "first solve censuses");
        // A second sampled solve of the same query (different seed → a
        // different request, so no result-tier hit) reuses the census.
        let mut seeded = settings();
        seeded.rhe.seed ^= 1;
        let second = ExplainRequest::new(q.clone(), seeded);
        let (b, _) = engine.explain_opts(&second, &Budget::unlimited(), ApproxMode::Force);
        assert!(matches!(&*b, Ok(r) if r.approx.is_some()));
        assert_eq!(
            engine.census_stats().misses(),
            1,
            "the census pass ran exactly once"
        );
        assert!(engine.census_stats().hits() >= 1);
        // The memoized census is answer-identical to a fresh one.
        let fresh = MapRatEngine::with_approx_policy(
            Arc::clone(&engine.dataset()),
            approx_policy(usize::MAX),
        );
        let (c, _) = fresh.explain_opts(&second, &Budget::unlimited(), ApproxMode::Force);
        match (&*b, &*c) {
            (Ok(x), Ok(y)) => {
                assert_eq!(
                    format!("{:?}", x.explanation.similarity.groups),
                    format!("{:?}", y.explanation.similarity.groups),
                    "memoized census must not change the sample"
                );
            }
            other => panic!("both sampled solves should succeed: {other:?}"),
        }
        // Background refinement reuses the memoized (items, universe) for
        // its exact re-solve and still upgrades the entry in place.
        assert!(engine.refine_now(&first));
        let (r, served) = engine.explain_traced(&first);
        assert_eq!(served, ServedFrom::ResultCache);
        assert!(matches!(&*r, Ok(res) if res.approx.is_none()));
    }

    #[test]
    fn fingerprint_distinguishes_time_windows() {
        use maprat_data::{TimeRange, Timestamp};
        let s = settings();
        let q1 = ItemQuery::title("Toy Story");
        let q2 =
            ItemQuery::title("Toy Story").within(TimeRange::until(Timestamp::from_ymd(2001, 1, 1)));
        assert_ne!(
            ExplainRequest::new(q1, s.clone()).fingerprint(),
            ExplainRequest::new(q2, s).fingerprint()
        );
    }

    #[test]
    fn fingerprint_covers_seed_and_lambda() {
        // Regression: the old string key formatted dm_lambda with `{:.4}`
        // and could be regenerated without the seed; the typed fingerprint
        // must separate requests differing only in those fields.
        let q = ItemQuery::title("Toy Story");
        let base = ExplainRequest::new(q.clone(), SearchSettings::default());

        let mut seeded = SearchSettings::default();
        seeded.rhe.seed ^= 0x1;
        assert_ne!(
            base.fingerprint(),
            ExplainRequest::new(q.clone(), seeded).fingerprint(),
            "rhe.seed must participate in the cache key"
        );

        let mut lambda = SearchSettings::default();
        lambda.dm_lambda += 1e-9; // far below the old {:.4} resolution
        assert_ne!(
            base.fingerprint(),
            ExplainRequest::new(q.clone(), lambda).fingerprint(),
            "dm_lambda must participate at full precision"
        );

        // And equal requests agree, so caching still works.
        assert_eq!(
            base.fingerprint(),
            ExplainRequest::new(q, SearchSettings::default()).fingerprint()
        );
    }
}
