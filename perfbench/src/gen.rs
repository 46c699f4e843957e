//! Seeded workload inputs: random draws, the query pool and the request
//! streams of the workloads. Everything here is a pure function of
//! the seed and the (fixed) dataset, so the same seed sends the same
//! requests.

use maprat_data::{Dataset, ItemId, Role, Timestamp};
use maprat_server::Json;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// SplitMix64: small, fast and good enough for workload draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose of one seed.
    pub fn stream(seed: u64, purpose: u64) -> Rng {
        let mut mix = Rng(seed ^ purpose.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        Rng(mix.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// The gap to the next arrival of a Poisson process of `rate` per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Zipf(s) over ranks `0..n` (rank 0 most likely), by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty range");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank at cumulative probability `u` in `[0, 1)`.
    pub fn quantile(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// `n` draws stratified over `n` equal-probability bands (one draw
    /// per band, jittered within it), in shuffled order: the same
    /// distribution as `n` independent draws with far less spread
    /// between seeds in how often each popularity band comes up.
    pub fn stratified(&self, rng: &mut Rng, n: usize) -> Vec<usize> {
        let mut draws: Vec<usize> = (0..n)
            .map(|i| self.quantile((i as f64 + rng.unit()) / n as f64))
            .collect();
        shuffle(rng, &mut draws);
        draws
    }
}

/// Fisher–Yates.
pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// `n` flags of which exactly `round(p × n)` are set, in shuffled order.
fn exact_share(rng: &mut Rng, p: f64, n: usize) -> Vec<bool> {
    let set = (p * n as f64).round() as usize;
    let mut flags: Vec<bool> = (0..n).map(|i| i < set).collect();
    shuffle(rng, &mut flags);
    flags
}

/// Arrival offsets in seconds of a Poisson process of `rate` per second
/// over `[0, seconds)`.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = rng.exp_gap(rate);
    while t < seconds {
        out.push(t);
        t += rng.exp_gap(rate);
    }
    out
}

/// The GET `type` of an explain query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryType {
    Movie,
    Actor,
    Director,
}

impl QueryType {
    fn param(self) -> &'static str {
        match self {
            QueryType::Movie => "movie",
            QueryType::Actor => "actor",
            QueryType::Director => "director",
        }
    }

    fn field(self) -> &'static str {
        match self {
            QueryType::Movie => "title",
            QueryType::Actor => "actor",
            QueryType::Director => "director",
        }
    }
}

/// One explainable query: a title, or a person in a role they hold.
#[derive(Debug, Clone)]
pub struct PoolEntry {
    pub qtype: QueryType,
    pub name: String,
    pub items: Vec<ItemId>,
    pub ratings: usize,
}

/// Ratings a candidate group needs (the default `min_support`).
const MIN_SUPPORT: u32 = 5;

/// Every title and every (person, role) the dataset holds whose explain
/// answers 200 under the workload settings, most-rated first.
///
/// A person is queried as an actor or a director only for a role
/// `items_with_person` lists, and a name or title that resolves to a
/// different entity is left out. Explains require a geo condition, so a
/// query has candidate groups exactly when some state holds at least
/// `MIN_SUPPORT` of its ratings (the single-state group); queries below
/// that answer 404 and are dropped.
pub fn query_pool(dataset: &Dataset) -> Vec<PoolEntry> {
    let mut pool = Vec::new();
    for item in dataset.items() {
        if dataset.find_title(&item.title) == Some(item.id) {
            pool.push((QueryType::Movie, item.title.clone(), vec![item.id]));
        }
    }
    for person in dataset.persons() {
        if dataset.find_person(&person.name) != Some(person.id) {
            continue;
        }
        for (role, qtype) in [
            (Role::Actor, QueryType::Actor),
            (Role::Director, QueryType::Director),
        ] {
            let items = dataset.items_with_person(person.id, role);
            if !items.is_empty() {
                pool.push((qtype, person.name.clone(), items.to_vec()));
            }
        }
    }
    let mut pool: Vec<PoolEntry> = pool
        .into_iter()
        .filter_map(|(qtype, name, items)| {
            let mut per_state = [0u32; 256];
            let mut ratings = 0;
            for &item in &items {
                for r in dataset.ratings_for_item(item) {
                    per_state[dataset.user(r.user).state as usize] += 1;
                    ratings += 1;
                }
            }
            per_state
                .iter()
                .any(|&n| n >= MIN_SUPPORT)
                .then_some(PoolEntry {
                    qtype,
                    name,
                    items,
                    ratings,
                })
        })
        .collect();
    pool.sort_by(|a, b| {
        b.ratings
            .cmp(&a.ratings)
            .then_with(|| a.name.cmp(&b.name))
            .then_with(|| a.qtype.param().cmp(b.qtype.param()))
    });
    pool
}

/// What a request exercises (its route).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Explain,
    Map,
    Drill,
    Detail,
    Personalize,
    Timeline,
    Batch,
    Ingest,
}

/// One distinct request. Requests with equal `id` are byte-identical, so
/// their answers must be too (while the dataset is unchanged).
#[derive(Debug)]
pub struct Target {
    pub id: u32,
    pub kind: Kind,
    pub method: &'static str,
    /// Path plus query string.
    pub path: String,
    pub body: String,
    /// Whether the first answer is checked against a reference engine.
    pub reference: bool,
    /// Set once the first answer's bytes have been kept.
    pub body_kept: AtomicBool,
}

impl Target {
    /// The HTTP/1.1 request bytes; `trace_id` adds the correlation header
    /// of the traced run.
    pub fn write_request(&self, out: &mut Vec<u8>, trace_id: Option<u64>) {
        use std::io::Write as _;
        out.clear();
        let _ = write!(
            out,
            "{} {} HTTP/1.1\r\nHost: bench\r\n",
            self.method, self.path
        );
        if let Some(id) = trace_id {
            let _ = write!(out, "X-Bench-Id: {id}\r\n");
        }
        if self.method == "POST" {
            let _ = write!(
                out,
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                self.body.len()
            );
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(self.body.as_bytes());
    }
}

/// Interns targets so every distinct request gets one id, and marks the
/// reference-checked ones: every `reference_every`-th distinct explain or
/// map request, at most `reference_cap` of them.
pub struct Targets {
    by_key: HashMap<(String, String), Arc<Target>>,
    next: u32,
    reference_every: u32,
    reference_cap: u32,
    readable: u32,
}

impl Default for Targets {
    fn default() -> Targets {
        Targets::with_reference(0, 0)
    }
}

impl Targets {
    pub fn with_reference(every: u32, cap: u32) -> Targets {
        Targets {
            by_key: HashMap::new(),
            next: 0,
            reference_every: every,
            reference_cap: cap,
            readable: 0,
        }
    }

    pub fn get(
        &mut self,
        kind: Kind,
        method: &'static str,
        path: String,
        body: String,
    ) -> Arc<Target> {
        let key = (path, body);
        if let Some(t) = self.by_key.get(&key) {
            return Arc::clone(t);
        }
        let mut reference = false;
        if matches!(kind, Kind::Explain | Kind::Map) && self.reference_every > 0 {
            reference = self.readable.is_multiple_of(self.reference_every)
                && self.readable / self.reference_every < self.reference_cap;
            self.readable += 1;
        }
        let target = Arc::new(Target {
            id: self.next,
            kind,
            method,
            path: key.0.clone(),
            body: key.1.clone(),
            reference,
            body_kept: AtomicBool::new(false),
        });
        self.next += 1;
        self.by_key.insert(key, Arc::clone(&target));
        target
    }
}

fn url_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// The coverage settings sessions choose from; 0.2 is the precomputed one.
/// Coverage is not part of the snapshot-tier key, so a query revisited at
/// another coverage is a snapshot re-solve.
pub const COVERAGES: [&str; 3] = ["0.1", "0.2", "0.3"];

fn query_string(entry: &PoolEntry, coverage: &str) -> String {
    format!(
        "q={}&type={}&coverage={coverage}",
        url_encode(&entry.name),
        entry.qtype.param()
    )
}

fn explain_json(field: &str, value: &str, coverage: &str) -> Json {
    Json::obj([
        (
            "query",
            Json::obj([(
                "terms",
                Json::Arr(vec![Json::obj([
                    ("field", Json::str(field)),
                    ("value", Json::str(value)),
                ])]),
            )]),
        ),
        (
            "settings",
            Json::obj([(
                "min_coverage",
                Json::Num(coverage.parse().expect("coverage literal")),
            )]),
        ),
    ])
}

pub fn explain_target(targets: &mut Targets, entry: &PoolEntry, coverage: &str) -> Arc<Target> {
    targets.get(
        Kind::Explain,
        "GET",
        format!("/api/v1/explain?{}", query_string(entry, coverage)),
        String::new(),
    )
}

/// Interactive sessions (the paper's use of the demo): a query, an
/// explain at one of a few coverages, then some of the demo's follow-ups
/// on it at fixed shares ([`Mix`]).
///
/// Sessions are planned in blocks of [`BLOCK`]: each coverage and
/// follow-up comes up an exact number of times per block, in shuffled
/// order, and the query draws are stratified by popularity. Seeds then
/// change which queries are asked and in what order, but not the traffic
/// mix, which keeps run-to-run spread down.
pub struct Sessions {
    rng: Rng,
    draw: Draw,
    coverages: &'static [&'static str],
    mix: Mix,
    pool: Arc<Vec<PoolEntry>>,
    /// Title pool indexes by item, for filmography batches.
    title_of: HashMap<ItemId, usize>,
    /// Batches of titles (pool indexes) that batch follow-ups on title
    /// queries take in turn; none when only person queries batch.
    title_batches: Vec<Vec<usize>>,
    next_batch: usize,
    plans: VecDeque<Plan>,
    pending: VecDeque<Arc<Target>>,
    pub targets: Targets,
}

/// Where a session's query comes from.
enum Draw {
    /// Zipf(1) over the whole pool by popularity, stratified per block.
    Zipf(Zipf),
    /// Uniform over these pool indexes, stratified per block.
    Uniform(Vec<usize>),
}

/// Share of sessions sending each follow-up. A batch follow-up on a
/// person query batches their filmography; on a title, the next of the
/// stream's fixed title batches (`cold_single` only).
pub struct Mix {
    map: f64,
    drill: f64,
    detail: f64,
    personalize: f64,
    timeline: f64,
    batch: f64,
}

const EXPLORE_MIX: Mix = Mix {
    map: 0.30,
    drill: 0.10,
    detail: 0.10,
    personalize: 0.05,
    timeline: 0.02,
    batch: 0.05,
};

/// `cold_single` puts the map, drill, detail, personalize and batch
/// routes on the clock beside its cold explains. It sends no timeline: a
/// sweep explains the query once per time window, each a cold solve,
/// which would make a few requests set the whole workload's tail.
const COLD_MIX: Mix = Mix {
    map: 0.30,
    drill: 0.10,
    detail: 0.10,
    personalize: 0.05,
    timeline: 0.0,
    batch: 0.02,
};

/// One session: the pool entry, its coverage, and its follow-ups.
struct Plan {
    entry: usize,
    coverage: &'static str,
    map: Option<&'static str>,
    drill: bool,
    detail: bool,
    personalize: Option<(&'static str, u32)>,
    timeline: bool,
    batch: bool,
}

/// Sessions per planning block.
const BLOCK: usize = 200;
/// Batches carry at most this many titles.
const BATCH_TITLES: usize = 8;
/// Title batches of `cold_single`.
const COLD_BATCHES: usize = 16;
const AGE_CODES: [u32; 7] = [1, 18, 25, 35, 45, 50, 56];
/// Every sixth distinct explain or map request of `explore`, up to 24,
/// is checked against a fresh reference engine.
const REFERENCE_EVERY: u32 = 6;
const REFERENCE_CAP: u32 = 24;

/// `cold_single`'s titles: from below the hot set in popularity order.
const COLD_TITLES: usize = 1_500;
/// `cold_single`'s coverages. Coverage is not part of the snapshot-tier
/// key, but ten of them over 1,500 titles make 15,000 distinct explains.
const COLD_COVERAGES: [&str; 10] = [
    "0.05", "0.1", "0.15", "0.2", "0.25", "0.3", "0.35", "0.4", "0.45", "0.5",
];

impl Sessions {
    /// The `explore` stream.
    pub fn explore(pool: Arc<Vec<PoolEntry>>, seed: u64) -> Sessions {
        let draw = Draw::Zipf(Zipf::new(pool.len(), 1.0));
        Sessions::new(
            pool,
            Rng::stream(seed, 1),
            draw,
            &COVERAGES,
            EXPLORE_MIX,
            Targets::with_reference(REFERENCE_EVERY, REFERENCE_CAP),
        )
    }

    /// The `cold_single` stream: single-title explains that miss the
    /// result tier. The 1,500 titles from below the hot set, each at one
    /// of ten coverages, are drawn uniformly; the 15,000 distinct explains
    /// dwarf the result tier, and a title recurs within the snapshot
    /// tier's 64 entries only now and then, so nearly every explain builds
    /// a cube and solves.
    ///
    /// Its batches come from a fixed set of [`COLD_BATCHES`], the same for
    /// every seed, each with one title from every eighth of the titles by
    /// popularity. A batch's fused cube build is the largest allocation of
    /// the workload, so batches of similar and seed-independent size keep
    /// the peak RSS from depending on which batches a seed happens to draw.
    pub fn cold(pool: Arc<Vec<PoolEntry>>, seed: u64) -> Sessions {
        let titles: Vec<usize> = pool
            .iter()
            .enumerate()
            .filter(|(_, e)| e.qtype == QueryType::Movie)
            .map(|(i, _)| i)
            .skip(HOT_TITLES)
            .take(COLD_TITLES)
            .collect();
        let eighth = titles.len() / BATCH_TITLES;
        let title_batches = (0..COLD_BATCHES)
            .map(|b| {
                (0..BATCH_TITLES)
                    .map(|k| titles[k * eighth + b * eighth / COLD_BATCHES])
                    .collect()
            })
            .collect();
        let mut sessions = Sessions::new(
            pool,
            Rng::stream(seed, 5),
            Draw::Uniform(titles),
            &COLD_COVERAGES,
            COLD_MIX,
            Targets::with_reference(REFERENCE_EVERY * 8, REFERENCE_CAP),
        );
        sessions.title_batches = title_batches;
        sessions
    }

    fn new(
        pool: Arc<Vec<PoolEntry>>,
        rng: Rng,
        draw: Draw,
        coverages: &'static [&'static str],
        mix: Mix,
        targets: Targets,
    ) -> Sessions {
        let title_of = pool
            .iter()
            .enumerate()
            .filter(|(_, e)| e.qtype == QueryType::Movie)
            .map(|(i, e)| (e.items[0], i))
            .collect();
        Sessions {
            rng,
            draw,
            coverages,
            mix,
            pool,
            title_of,
            title_batches: Vec::new(),
            next_batch: 0,
            plans: VecDeque::new(),
            pending: VecDeque::new(),
            targets,
        }
    }

    pub fn next_target(&mut self) -> Arc<Target> {
        if self.pending.is_empty() {
            if self.plans.is_empty() {
                self.plan_block();
            }
            let plan = self.plans.pop_front().expect("a planned block");
            let session = self.session(&plan);
            self.pending.extend(session);
        }
        self.pending
            .pop_front()
            .expect("a session yields at least its explain")
    }

    fn plan_block(&mut self) {
        let rng = &mut self.rng;
        let entries: Vec<usize> = match &self.draw {
            Draw::Zipf(zipf) => zipf.stratified(rng, BLOCK),
            Draw::Uniform(from) => {
                // One draw per equal band of `from`, like Zipf::stratified.
                let mut picks: Vec<usize> = (0..BLOCK)
                    .map(|i| {
                        let at = (i as f64 + rng.unit()) / BLOCK as f64 * from.len() as f64;
                        from[(at as usize).min(from.len() - 1)]
                    })
                    .collect();
                shuffle(rng, &mut picks);
                picks
            }
        };
        let mut coverages: Vec<&'static str> = (0..BLOCK)
            .map(|i| self.coverages[i % self.coverages.len()])
            .collect();
        shuffle(rng, &mut coverages);
        let mix = &self.mix;
        let map = exact_share(rng, mix.map, BLOCK);
        let drill = exact_share(rng, mix.drill, BLOCK);
        let detail = exact_share(rng, mix.detail, BLOCK);
        let personalize = exact_share(rng, mix.personalize, BLOCK);
        let timeline = exact_share(rng, mix.timeline, BLOCK);
        let batch = exact_share(rng, mix.batch, BLOCK);
        for i in 0..BLOCK {
            let plan = Plan {
                entry: entries[i],
                coverage: coverages[i],
                map: map[i].then(|| if rng.chance(0.5) { "sm" } else { "dm" }),
                drill: drill[i],
                detail: detail[i],
                personalize: personalize[i].then(|| {
                    (
                        if rng.chance(0.5) { "F" } else { "M" },
                        AGE_CODES[rng.below(AGE_CODES.len())],
                    )
                }),
                timeline: timeline[i],
                batch: batch[i],
            };
            self.plans.push_back(plan);
        }
    }

    /// The titles a batch follow-up on pool entry `entry` explains.
    fn batch_titles(&mut self, entry: usize) -> Vec<usize> {
        let e = &self.pool[entry];
        if e.qtype != QueryType::Movie {
            return e
                .items
                .iter()
                .filter_map(|item| self.title_of.get(item).copied())
                .take(BATCH_TITLES)
                .collect();
        }
        if self.title_batches.is_empty() {
            return Vec::new();
        }
        let batch = self.title_batches[self.next_batch].clone();
        self.next_batch = (self.next_batch + 1) % self.title_batches.len();
        batch
    }

    /// The requests of one session: its explain, then its follow-ups.
    fn session(&mut self, plan: &Plan) -> Vec<Arc<Target>> {
        let pool = Arc::clone(&self.pool);
        let entry = &pool[plan.entry];
        let qs = query_string(entry, plan.coverage);
        let mut out = vec![explain_target(&mut self.targets, entry, plan.coverage)];
        let mut follow_ups: Vec<(Kind, String)> = Vec::new();
        if let Some(task) = plan.map {
            follow_ups.push((Kind::Map, format!("/map.svg?{qs}&task={task}")));
        }
        if plan.drill {
            follow_ups.push((Kind::Drill, format!("/api/v1/drill?{qs}&idx=0")));
        }
        if plan.detail {
            follow_ups.push((Kind::Detail, format!("/api/v1/detail?{qs}&idx=0")));
        }
        if let Some((gender, age)) = plan.personalize {
            follow_ups.push((
                Kind::Personalize,
                format!("/api/v1/personalize?{qs}&gender={gender}&age={age}"),
            ));
        }
        if plan.timeline {
            follow_ups.push((Kind::Timeline, format!("/api/v1/timeline?{qs}&window=6")));
        }
        for (kind, path) in follow_ups {
            out.push(self.targets.get(kind, "GET", path, String::new()));
        }
        if plan.batch {
            let members: Vec<Json> = self
                .batch_titles(plan.entry)
                .into_iter()
                .map(|i| explain_json(QueryType::Movie.field(), &pool[i].name, plan.coverage))
                .collect();
            if !members.is_empty() {
                let body = Json::obj([("requests", Json::Arr(members))]).render();
                out.push(self.targets.get(
                    Kind::Batch,
                    "POST",
                    "/api/v1/explain/batch".into(),
                    body,
                ));
            }
        }
        out
    }

    /// Every route once, on the most-rated title and the most-rated
    /// person: the closing tour that exercises each layer in every
    /// workload's traced run.
    pub fn tour(&mut self) -> Vec<Arc<Target>> {
        let title = self.pool.iter().position(|e| e.qtype == QueryType::Movie);
        let person = self.pool.iter().position(|e| e.qtype != QueryType::Movie);
        [title, person]
            .into_iter()
            .flatten()
            .flat_map(|entry| {
                self.session(&Plan {
                    entry,
                    coverage: "0.2",
                    map: Some("sm"),
                    drill: true,
                    detail: true,
                    personalize: Some(("F", 25)),
                    timeline: true,
                    batch: true,
                })
            })
            .collect()
    }
}

/// The hot read set of `hot_cached` and `ingest_mixed`: the most-rated
/// titles, each at two coverages (32 requests).
pub const HOT_TITLES: usize = 16;
pub const HOT_COVERAGES: [&str; 2] = ["0.2", "0.3"];

pub fn hot_set(pool: &[PoolEntry], targets: &mut Targets) -> Vec<Arc<Target>> {
    pool.iter()
        .filter(|e| e.qtype == QueryType::Movie)
        .take(HOT_TITLES)
        .flat_map(|e| HOT_COVERAGES.map(|c| explain_target(targets, e, c)))
        .collect()
}

/// Uniform draws from the hot set.
pub struct HotDraws {
    rng: Rng,
    hot: Vec<Arc<Target>>,
}

impl HotDraws {
    pub fn new(hot: Vec<Arc<Target>>, seed: u64) -> HotDraws {
        HotDraws {
            rng: Rng::stream(seed, 2),
            hot,
        }
    }

    pub fn next_target(&mut self) -> Arc<Target> {
        Arc::clone(&self.hot[self.rng.below(self.hot.len())])
    }
}

/// Ratings per ingest commit.
pub const COMMIT_RATINGS: usize = 64;
/// Hot movies one commit touches.
const MOVIES_PER_COMMIT: usize = 4;

/// Ingest commits aimed at the hot movies: each commit rates
/// [`MOVIES_PER_COMMIT`] of them (rotating) by existing reviewers, dated
/// in the dataset's last month.
pub struct CommitDraws {
    rng: Rng,
    hot_items: Vec<ItemId>,
    users: usize,
    date: String,
    next_movie: usize,
    targets: Targets,
}

impl CommitDraws {
    pub fn new(dataset: &Dataset, pool: &[PoolEntry], seed: u64) -> CommitDraws {
        let last = dataset
            .time_span()
            .map(|(_, hi)| hi)
            .unwrap_or_else(|| Timestamp::from_ymd(2003, 1, 1));
        CommitDraws {
            rng: Rng::stream(seed, 3),
            hot_items: pool
                .iter()
                .filter(|e| e.qtype == QueryType::Movie)
                .take(HOT_TITLES)
                .map(|e| e.items[0])
                .collect(),
            users: dataset.users().len(),
            date: last.to_string(),
            next_movie: 0,
            targets: Targets::default(),
        }
    }

    pub fn next_target(&mut self) -> Arc<Target> {
        let movies: Vec<ItemId> = (0..MOVIES_PER_COMMIT)
            .map(|k| self.hot_items[(self.next_movie + k) % self.hot_items.len()])
            .collect();
        self.next_movie = (self.next_movie + MOVIES_PER_COMMIT) % self.hot_items.len();
        let ratings: Vec<Json> = (0..COMMIT_RATINGS)
            .map(|i| {
                Json::obj([
                    ("user", Json::Num(self.rng.below(self.users) as f64)),
                    ("item", Json::Num(movies[i % movies.len()].0 as f64)),
                    ("score", Json::Num((1 + self.rng.below(5)) as f64)),
                    ("ts", Json::str(self.date.clone())),
                ])
            })
            .collect();
        let body = Json::obj([("ratings", Json::Arr(ratings))]).render();
        self.targets
            .get(Kind::Ingest, "POST", "/api/v1/ingest".into(), body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_and_poisson_repeat_for_a_seed() {
        let zipf = Zipf::new(1000, 1.0);
        let draw = |seed| {
            let mut rng = Rng::stream(seed, 1);
            let ranks = zipf.stratified(&mut rng, 500);
            (ranks, poisson_arrivals(&mut rng, 300.0, 2.0))
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn zipf_favours_low_ranks_and_poisson_keeps_its_rate() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = Rng::stream(3, 0);
        let draws = zipf.stratified(&mut rng, 20_000);
        let rank0 = draws.iter().filter(|&&r| r == 0).count() as f64 / 20_000.0;
        // P(rank 0) = 1 / H_100 ≈ 0.193.
        assert!((rank0 - 0.193).abs() < 0.02, "rank-0 share {rank0}");
        assert!(draws.iter().all(|&r| r < 100));
        let arrivals = poisson_arrivals(&mut rng, 500.0, 20.0);
        let rate = arrivals.len() as f64 / 20.0;
        assert!((rate - 500.0).abs() < 25.0, "rate {rate}");
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    }
}
