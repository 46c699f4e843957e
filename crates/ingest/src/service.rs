//! The ingest service: single-writer commits over a serving engine.

use crate::buffer::{IngestBuffer, ItemSpec, RatingEvent, UserSpec};
use crate::wal::{Wal, WalRecord, WalStats};
use crate::IngestError;
use maprat_core::query::ItemQuery;
use maprat_cube::{CubeOptions, ProfileSummary, RatingCube};
use maprat_data::cities::city_for_zip;
use maprat_data::{
    AppendBatch, Dataset, IdAllocator, Item, ItemId, MonthKey, Rating, RatingIdx, User,
};
use maprat_explore::MapRatEngine;
use maprat_pool::num_threads;
use std::collections::HashSet;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Where ingestion has advanced to: the month of the newest rating in
/// the last commit, plus the monotonically increasing commit sequence
/// number. Served by `/api/v1/stats` so clients can tell which commits a
/// response reflects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermark {
    /// Month key of the newest rating in the last commit.
    pub month: MonthKey,
    /// Sequence number of the last commit (first commit = 1).
    pub seq: u64,
}

/// What one commit did.
#[derive(Debug, Clone)]
pub struct CommitReceipt {
    /// Sequence number of this commit.
    pub seq: u64,
    /// Ratings appended.
    pub accepted: usize,
    /// Previously unseen reviewers allocated.
    pub new_users: usize,
    /// Previously unseen items allocated.
    pub new_items: usize,
    /// Month key of the newest appended rating.
    pub month: MonthKey,
    /// Items whose rating history changed (the scoped-invalidation set).
    pub changed_items: Vec<ItemId>,
    /// Cache entries dropped by the partition-scoped hot-swap.
    pub invalidated: usize,
}

/// A cube kept incrementally up to date across commits: the retained
/// profile-scan state plus the materialized cube, both in commit-major
/// universe order.
struct WatchedCube {
    query: ItemQuery,
    options: CubeOptions,
    /// The matched item set, pinned at watch time.
    items: HashSet<ItemId>,
    summary: ProfileSummary,
    cube: RatingCube,
}

struct IngestState {
    commit_seq: u64,
    watermark: Option<Watermark>,
    watched: Vec<WatchedCube>,
    /// Attached write-ahead log, if durability is enabled. Living inside
    /// the writer lock means log order always equals commit order.
    wal: Option<Wal>,
    /// Commits re-applied from the WAL at startup.
    replayed: u64,
}

/// What [`IngestService::with_wal`] recovered at startup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Commits replayed from the log onto the base dataset.
    pub replayed: u64,
    /// Torn tail frames dropped during segment repair.
    pub truncated: u64,
    /// Highest commit sequence now applied.
    pub last_seq: u64,
    /// The durability watermark the base dataset already covered.
    pub checkpoint: u64,
}

/// Accepts [`IngestBuffer`]s and publishes them as immutable dataset
/// snapshots through an engine's scoped hot-swap (see the crate docs for
/// the commit pipeline). Commits are serialized by an internal writer
/// lock; reads (explains) never block on it.
pub struct IngestService {
    engine: MapRatEngine,
    state: Mutex<IngestState>,
}

impl IngestService {
    /// Creates a service committing into `engine`, without durability:
    /// commits live only in the engine's in-memory snapshot.
    pub fn new(engine: MapRatEngine) -> Self {
        IngestService {
            engine,
            state: Mutex::new(IngestState {
                commit_seq: 0,
                watermark: None,
                watched: Vec::new(),
                wal: None,
                replayed: 0,
            }),
        }
    }

    /// Creates a durable service: opens (repairing torn tails) the
    /// write-ahead log in `dir`, replays every commit the engine's base
    /// dataset does not already cover, and arms logging for future
    /// commits. After this returns, the served dataset is byte-identical
    /// to one that never crashed.
    ///
    /// Replay is checked, not trusted: each record carries the table
    /// sizes the original commit produced, and a replayed commit that
    /// allocates differently (divergent base dataset, duplicate or
    /// gapped history) aborts recovery with [`IngestError::Wal`] rather
    /// than serving silently diverged data.
    pub fn with_wal(
        engine: MapRatEngine,
        dir: impl AsRef<Path>,
    ) -> Result<(IngestService, RecoveryReport), IngestError> {
        let wal = Wal::open(dir).map_err(|e| IngestError::Wal(e.to_string()))?;
        let replay = wal.replay().map_err(|e| IngestError::Wal(e.to_string()))?;
        let svc = IngestService::new(engine);
        {
            let mut state = svc.lock_state();
            state.commit_seq = replay.checkpoint;
            for record in &replay.records {
                if record.seq != state.commit_seq + 1 {
                    return Err(IngestError::Wal(format!(
                        "replay gap: expected seq {}, log has {}",
                        state.commit_seq + 1,
                        record.seq
                    )));
                }
                svc.commit_under_lock(&mut state, record.events.clone(), false)?;
                let d = svc.engine.dataset();
                let got = (
                    d.users().len() as u32,
                    d.items().len() as u32,
                    d.num_ratings() as u32,
                );
                if got != record.expect {
                    return Err(IngestError::Wal(format!(
                        "replay diverged at seq {}: commit produced tables {got:?}, \
                         log recorded {:?}",
                        record.seq, record.expect
                    )));
                }
                state.replayed += 1;
            }
            state.wal = Some(wal);
        }
        let report = {
            let state = svc.lock_state();
            let stats = state.wal.as_ref().expect("just installed").stats();
            RecoveryReport {
                replayed: state.replayed,
                truncated: stats.truncated,
                last_seq: state.commit_seq,
                checkpoint: stats.checkpoint,
            }
        };
        Ok((svc, report))
    }

    /// The serving engine commits publish into.
    pub fn engine(&self) -> &MapRatEngine {
        &self.engine
    }

    /// The last commit's watermark (`None` before the first commit).
    pub fn watermark(&self) -> Option<Watermark> {
        self.lock_state().watermark
    }

    /// Sequence number of the last commit (0 before the first).
    pub fn commit_seq(&self) -> u64 {
        self.lock_state().commit_seq
    }

    fn lock_state(&self) -> MutexGuard<'_, IngestState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Starts delta-maintaining the cube of `query` under `options`:
    /// scans the query's current rating universe once, and from then on
    /// every [`commit`](IngestService::commit) extends it with only the
    /// commit's matching ratings, rebuilding the cube with cover-chunk
    /// reuse. The matched item set is pinned at watch time.
    pub fn watch(&self, query: &ItemQuery, options: CubeOptions) -> Result<(), IngestError> {
        let mut state = self.lock_state();
        let dataset = self.engine.dataset();
        let items = query.items(&dataset);
        if items.is_empty() {
            return Err(IngestError::UnknownTitle(query.describe()));
        }
        let summary = ProfileSummary::scan(&dataset, query.rating_indexes(&dataset));
        let cube = summary.build(options.clone());
        state.watched.retain(|w| w.query != *query);
        state.watched.push(WatchedCube {
            query: query.clone(),
            options,
            items: items.into_iter().collect(),
            summary,
            cube,
        });
        Ok(())
    }

    /// The current delta-maintained cube of a watched query.
    pub fn watched_cube(&self, query: &ItemQuery) -> Option<RatingCube> {
        let state = self.lock_state();
        state
            .watched
            .iter()
            .find(|w| w.query == *query)
            .map(|w| w.cube.clone())
    }

    /// The rating universe (dataset rating indexes, commit-major order)
    /// of a watched query — what the maintained cube's covers index.
    pub fn watched_universe(&self, query: &ItemQuery) -> Option<Vec<u32>> {
        let state = self.lock_state();
        state
            .watched
            .iter()
            .find(|w| w.query == *query)
            .map(|w| w.summary.rating_indexes().to_vec())
    }

    /// Validates, appends and publishes a buffered batch (see the crate
    /// docs for the four commit steps; with a WAL attached the batch is
    /// fsynced to the log before the splice). Returns what the commit did.
    pub fn commit(&self, buffer: IngestBuffer) -> Result<CommitReceipt, IngestError> {
        let events = buffer.into_events();
        if events.is_empty() {
            return Err(IngestError::EmptyCommit);
        }
        let mut state = self.lock_state();
        self.commit_under_lock(&mut state, events, true)
    }

    /// The commit pipeline proper, already holding the writer lock.
    /// `log: false` is the replay path: the events came *from* the WAL,
    /// so re-logging them would duplicate history.
    fn commit_under_lock(
        &self,
        state: &mut IngestState,
        events: Vec<RatingEvent>,
        log: bool,
    ) -> Result<CommitReceipt, IngestError> {
        maprat_faults::maybe_alloc_pressure("ingest.alloc");
        // The writer lock serializes commits, so the engine's current
        // dataset is exactly the snapshot this commit extends.
        let dataset = self.engine.dataset();
        // Resolution consumes the events; keep a copy for the log record
        // only when one will actually be written.
        let logged = if log && state.wal.is_some() {
            Some(events.clone())
        } else {
            None
        };
        let batch = resolve(&dataset, events)?;
        let month = batch
            .ratings
            .iter()
            .map(|r| r.ts.month_key())
            .max()
            .expect("non-empty commit");
        let (new_users, new_items) = (batch.users.len(), batch.items.len());
        let accepted = batch.ratings.len();

        if let Some(events) = logged {
            // Durability point: the record — raw events plus the table
            // sizes this commit will produce (the id-allocation outcome)
            // — hits disk before any in-memory state changes. A failed
            // append rejects the commit entirely; an acknowledged commit
            // survives any crash after this line.
            let record = WalRecord {
                seq: state.commit_seq + 1,
                month,
                expect: (
                    (dataset.users().len() + new_users) as u32,
                    (dataset.items().len() + new_items) as u32,
                    (dataset.num_ratings() + accepted) as u32,
                ),
                events,
            };
            maprat_faults::maybe_abort("ingest.commit.pre-log");
            state
                .wal
                .as_mut()
                .expect("logged is Some only with a WAL")
                .append(&record)
                .map_err(|e| IngestError::Wal(e.to_string()))?;
            maprat_faults::maybe_abort("ingest.commit.post-log");
        }

        let appended = dataset.with_appended(batch)?;
        let new_dataset = Arc::new(appended.dataset);

        // Delta-maintain every watched cube: remap retained indexes past
        // the splice, scan only this commit's matching ratings, rebuild
        // reusing the previous cover chunks.
        let threads = num_threads();
        for w in &mut state.watched {
            w.summary.remap_rating_indexes(&appended.remap);
            let matching: Vec<u32> = appended
                .appended_idx
                .iter()
                .copied()
                .filter(|&idx| {
                    let r = new_dataset.rating(RatingIdx(idx));
                    w.items.contains(&r.item) && w.query.time.contains(r.ts)
                })
                .collect();
            let (merged, delta) = w.summary.append(&new_dataset, &matching);
            w.cube = merged.build_reusing(&delta, &w.cube, w.options.clone(), threads);
            w.summary = merged;
        }

        let invalidated = self
            .engine
            .swap_dataset_scoped(Arc::clone(&new_dataset), &appended.changed_items);
        maprat_faults::maybe_abort("ingest.commit.post-publish");

        state.commit_seq += 1;
        let seq = state.commit_seq;
        state.watermark = Some(Watermark { month, seq });
        Ok(CommitReceipt {
            seq,
            accepted,
            new_users,
            new_items,
            month,
            changed_items: appended.changed_items,
            invalidated,
        })
    }

    /// Persists the current dataset snapshot to `dir` (MovieLens `.dat`
    /// layout, loadable by `maprat_data::loader`) and advances the WAL's
    /// durability watermark to the current commit sequence, deleting
    /// fully covered log partitions. A restart then loads the checkpoint
    /// dataset and replays only the log tail. Returns the sequence the
    /// watermark advanced to.
    pub fn checkpoint_into(&self, dir: impl AsRef<Path>) -> Result<u64, IngestError> {
        let mut state = self.lock_state();
        let dataset = self.engine.dataset();
        maprat_data::writer::write_movielens_dir(&dataset, &dir)?;
        let seq = state.commit_seq;
        if let Some(wal) = state.wal.as_mut() {
            wal.compact(seq)
                .map_err(|e| IngestError::Wal(e.to_string()))?;
        }
        Ok(seq)
    }

    /// Durability counters for `/api/v1/stats` (`None` when running
    /// without a WAL).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.lock_state().wal.as_ref().map(Wal::stats)
    }

    /// Commits replayed from the WAL at startup (0 without a WAL or
    /// after a clean shutdown).
    pub fn replayed_commits(&self) -> u64 {
        self.lock_state().replayed
    }
}

/// Resolves every event's specs to dense ids against `dataset`,
/// allocating previously unseen reviewers/items through the shared
/// [`IdAllocator`] contract. Events may reference entities introduced
/// earlier in the same batch (by id or by title).
fn resolve(dataset: &Dataset, events: Vec<crate::RatingEvent>) -> Result<AppendBatch, IngestError> {
    let mut alloc = IdAllocator::for_dataset(dataset);
    let mut batch = AppendBatch::new();
    let (num_users, num_items) = (dataset.users().len(), dataset.items().len());
    for event in events {
        let user = match event.user {
            UserSpec::Existing(id) => {
                if id.index() >= num_users + batch.users.len() {
                    return Err(IngestError::UnknownUser(id));
                }
                id
            }
            UserSpec::New(spec) => {
                let id = alloc.alloc_user();
                let state = spec.zip.state_or_fallback();
                batch.users.push(User {
                    id,
                    age: spec.age,
                    gender: spec.gender,
                    occupation: spec.occupation,
                    zip: spec.zip,
                    state,
                    city: city_for_zip(state, spec.zip),
                });
                id
            }
        };
        let item = match event.item {
            ItemSpec::Existing(id) => {
                if id.index() >= num_items + batch.items.len() {
                    return Err(IngestError::UnknownItem(id));
                }
                id
            }
            ItemSpec::ByTitle(title) => {
                let needle = title.trim();
                dataset
                    .find_title(needle)
                    .or_else(|| {
                        batch
                            .items
                            .iter()
                            .find(|it| it.title.eq_ignore_ascii_case(needle))
                            .map(|it| it.id)
                    })
                    .ok_or(IngestError::UnknownTitle(title))?
            }
            ItemSpec::New(spec) => {
                let id = alloc.alloc_item();
                batch
                    .items
                    .push(Item::new(id, spec.title, spec.year, spec.genres));
                id
            }
        };
        batch
            .ratings
            .push(Rating::new(user, item, event.score, event.ts));
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{NewItem, NewUser, RatingEvent};
    use maprat_data::synth::{generate, SynthConfig};
    use maprat_data::{AgeGroup, Gender, Genre, Occupation, Score, Timestamp, UserId, Zip};

    fn service() -> IngestService {
        IngestService::new(MapRatEngine::from_dataset(
            generate(&SynthConfig::tiny(211)).unwrap(),
        ))
    }

    fn new_user(zip: u32) -> UserSpec {
        UserSpec::New(NewUser {
            age: AgeGroup::From25To34,
            gender: Gender::Male,
            occupation: Occupation::Programmer,
            zip: Zip::new(zip),
        })
    }

    fn rating(user: UserSpec, item: ItemSpec, score: u8, ym: (i64, u32)) -> RatingEvent {
        RatingEvent {
            user,
            item,
            score: Score::new(score).unwrap(),
            ts: Timestamp::from_ymd(ym.0, ym.1, 15),
        }
    }

    #[test]
    fn commit_publishes_new_snapshot_with_watermark() {
        let svc = service();
        let before = svc.engine().dataset();
        let mut buffer = IngestBuffer::new();
        buffer
            .push(rating(
                new_user(94103),
                ItemSpec::ByTitle("Toy Story".into()),
                5,
                (2003, 7),
            ))
            .unwrap();
        buffer
            .push(rating(
                UserSpec::Existing(UserId(0)),
                ItemSpec::New(NewItem {
                    title: "Fresh Release".into(),
                    year: 2003,
                    genres: [Genre::Drama].into_iter().collect(),
                }),
                3,
                (2003, 8),
            ))
            .unwrap();
        let receipt = svc.commit(buffer).unwrap();
        assert_eq!(receipt.seq, 1);
        assert_eq!(receipt.accepted, 2);
        assert_eq!(receipt.new_users, 1);
        assert_eq!(receipt.new_items, 1);
        assert_eq!(receipt.month, MonthKey::new(2003, 8));
        let after = svc.engine().dataset();
        assert!(!Arc::ptr_eq(&before, &after), "snapshot was hot-swapped");
        assert_eq!(after.users().len(), before.users().len() + 1);
        assert_eq!(after.items().len(), before.items().len() + 1);
        assert_eq!(after.num_ratings(), before.num_ratings() + 2);
        assert!(after.find_title("Fresh Release").is_some());
        assert_eq!(
            svc.watermark(),
            Some(Watermark {
                month: MonthKey::new(2003, 8),
                seq: 1
            })
        );
    }

    #[test]
    fn commit_validates_referential_integrity() {
        let svc = service();
        let bogus_user = UserId::from_index(svc.engine().dataset().users().len() + 7);
        let mut buffer = IngestBuffer::new();
        buffer
            .push(rating(
                UserSpec::Existing(bogus_user),
                ItemSpec::ByTitle("Toy Story".into()),
                4,
                (2002, 1),
            ))
            .unwrap();
        assert_eq!(
            svc.commit(buffer).unwrap_err(),
            IngestError::UnknownUser(bogus_user)
        );

        let mut buffer = IngestBuffer::new();
        buffer
            .push(rating(
                new_user(94103),
                ItemSpec::ByTitle("No Such Movie".into()),
                4,
                (2002, 1),
            ))
            .unwrap();
        assert!(matches!(
            svc.commit(buffer),
            Err(IngestError::UnknownTitle(_))
        ));

        assert!(matches!(
            svc.commit(IngestBuffer::new()),
            Err(IngestError::EmptyCommit)
        ));
        assert_eq!(svc.commit_seq(), 0, "failed commits advance nothing");
    }

    #[test]
    fn batch_local_references_resolve() {
        // An event may rate an item introduced earlier in the same batch,
        // by title, from a reviewer also introduced in the batch.
        let svc = service();
        let next_user = UserId::from_index(svc.engine().dataset().users().len());
        let mut buffer = IngestBuffer::new();
        buffer
            .push(rating(
                new_user(94103),
                ItemSpec::New(NewItem {
                    title: "Batch Local".into(),
                    year: 2004,
                    genres: [Genre::Comedy].into_iter().collect(),
                }),
                4,
                (2004, 2),
            ))
            .unwrap();
        buffer
            .push(rating(
                UserSpec::Existing(next_user),
                ItemSpec::ByTitle("Batch Local".into()),
                2,
                (2004, 3),
            ))
            .unwrap();
        let receipt = svc.commit(buffer).unwrap();
        assert_eq!(receipt.accepted, 2);
        assert_eq!(receipt.new_users, 1);
        assert_eq!(receipt.new_items, 1);
        let dataset = svc.engine().dataset();
        let id = dataset.find_title("Batch Local").unwrap();
        assert_eq!(dataset.ratings_for_item(id).len(), 2);
    }

    #[test]
    fn watched_cube_stays_bit_identical_to_scratch_rebuild() {
        let svc = service();
        let query = ItemQuery::title("Toy Story");
        let options = CubeOptions {
            min_support: 2,
            require_geo: false,
            max_arity: 4,
        };
        svc.watch(&query, options.clone()).unwrap();
        for (seq, (score, month)) in [(4u8, 1u32), (1, 2), (5, 3)].into_iter().enumerate() {
            let mut buffer = IngestBuffer::new();
            buffer
                .push(rating(
                    new_user(94103 + month),
                    ItemSpec::ByTitle("Toy Story".into()),
                    score,
                    (2004, month),
                ))
                .unwrap();
            // Unrelated traffic in the same commit shifts the splice.
            buffer
                .push(rating(
                    UserSpec::Existing(UserId(1)),
                    ItemSpec::ByTitle("Jaws".into()),
                    3,
                    (2004, month),
                ))
                .unwrap();
            let receipt = svc.commit(buffer).unwrap();
            assert_eq!(receipt.seq as usize, seq + 1);

            let maintained = svc.watched_cube(&query).unwrap();
            let universe = svc.watched_universe(&query).unwrap();
            let dataset = svc.engine().dataset();
            let scratch = RatingCube::build(&dataset, universe, options.clone());
            assert_eq!(maintained.rating_indexes(), scratch.rating_indexes());
            assert_eq!(maintained.len(), scratch.len());
            assert_eq!(maintained.total_stats(), scratch.total_stats());
            for (a, b) in maintained.groups().iter().zip(scratch.groups()) {
                assert_eq!(a.desc, b.desc);
                assert_eq!(a.stats, b.stats, "{}", a.desc);
                assert_eq!(a.cover, b.cover, "{}", a.desc);
            }
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("maprat-svc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_commit(svc: &IngestService, month: u32) -> CommitReceipt {
        let mut buffer = IngestBuffer::new();
        buffer
            .push(rating(
                new_user(90000 + month),
                ItemSpec::ByTitle("Toy Story".into()),
                5,
                (2004, month),
            ))
            .unwrap();
        buffer
            .push(rating(
                UserSpec::Existing(UserId(0)),
                ItemSpec::New(NewItem {
                    title: format!("Premiere {month}"),
                    year: 2004,
                    genres: [Genre::Drama].into_iter().collect(),
                }),
                2,
                (2004, month),
            ))
            .unwrap();
        svc.commit(buffer).unwrap()
    }

    #[test]
    fn wal_recovers_acknowledged_commits_onto_a_fresh_engine() {
        let dir = temp_dir("wal-recover");
        let base = || generate(&SynthConfig::tiny(211)).unwrap();
        let (svc, report) =
            IngestService::with_wal(MapRatEngine::from_dataset(base()), &dir).unwrap();
        assert_eq!(report, RecoveryReport::default());
        for month in 1..=3 {
            sample_commit(&svc, month);
        }
        let want = svc.engine().dataset();
        let stats = svc.wal_stats().unwrap();
        assert_eq!(stats.last_seq, 3);
        drop(svc);

        let (recovered, report) =
            IngestService::with_wal(MapRatEngine::from_dataset(base()), &dir).unwrap();
        assert_eq!(report.replayed, 3);
        assert_eq!(recovered.commit_seq(), 3);
        assert_eq!(recovered.replayed_commits(), 3);
        let got = recovered.engine().dataset();
        assert_eq!(got.num_ratings(), want.num_ratings());
        assert_eq!(got.users().len(), want.users().len());
        assert_eq!(got.items().len(), want.items().len());
        assert!(got.find_title("Premiere 3").is_some());
        assert_eq!(
            recovered.watermark(),
            Some(Watermark {
                month: MonthKey::new(2004, 3),
                seq: 3
            })
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_onto_a_diverged_base_dataset_is_refused() {
        let dir = temp_dir("wal-diverge");
        let (svc, _) = IngestService::with_wal(
            MapRatEngine::from_dataset(generate(&SynthConfig::tiny(211)).unwrap()),
            &dir,
        )
        .unwrap();
        sample_commit(&svc, 1);
        drop(svc);
        // A different base (different seed ⇒ different table sizes): the
        // expect-triple check must refuse to serve diverged data.
        match IngestService::with_wal(
            MapRatEngine::from_dataset(generate(&SynthConfig::tiny(212)).unwrap()),
            &dir,
        ) {
            Err(err) => assert!(matches!(err, IngestError::Wal(_)), "{err}"),
            Ok(_) => panic!("replay onto a diverged base must be refused"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compacts_the_log_and_restart_replays_only_the_tail() {
        let wal_dir = temp_dir("wal-ckpt");
        let snap_dir = temp_dir("wal-ckpt-snap");
        let (svc, _) = IngestService::with_wal(
            MapRatEngine::from_dataset(generate(&SynthConfig::tiny(211)).unwrap()),
            &wal_dir,
        )
        .unwrap();
        for month in 1..=3 {
            sample_commit(&svc, month);
        }
        assert_eq!(svc.checkpoint_into(&snap_dir).unwrap(), 3);
        assert_eq!(svc.wal_stats().unwrap().checkpoint, 3);
        sample_commit(&svc, 4); // tail past the checkpoint
        let want = svc.engine().dataset();
        drop(svc);

        let base = maprat_data::loader::load_movielens_dir(&snap_dir).unwrap();
        let (recovered, report) =
            IngestService::with_wal(MapRatEngine::from_dataset(base), &wal_dir).unwrap();
        assert_eq!(report.checkpoint, 3);
        assert_eq!(report.replayed, 1, "only the tail replays");
        assert_eq!(recovered.commit_seq(), 4);
        let got = recovered.engine().dataset();
        assert_eq!(got.num_ratings(), want.num_ratings());
        assert_eq!(got.users().len(), want.users().len());
        std::fs::remove_dir_all(&wal_dir).unwrap();
        std::fs::remove_dir_all(&snap_dir).unwrap();
    }

    #[test]
    fn watch_rejects_unknown_queries() {
        let svc = service();
        assert!(matches!(
            svc.watch(&ItemQuery::title("No Such Movie"), CubeOptions::default()),
            Err(IngestError::UnknownTitle(_))
        ));
        assert!(svc
            .watched_cube(&ItemQuery::title("No Such Movie"))
            .is_none());
    }
}
