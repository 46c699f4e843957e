//! The server under test, assembled the way `maprat serve` assembles it
//! (`src/main.rs`, `run_serve`), plus the traced run's handler span.

use maprat_core::parallel::num_threads;
use maprat_core::SearchSettings;
use maprat_data::synth::{generate, SynthConfig};
use maprat_data::Dataset;
use maprat_explore::{MapRatEngine, PrecomputeScheduler};
use maprat_ingest::IngestService;
use maprat_server::http::Handler;
use maprat_server::{AppState, HttpServer, Request};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The dataset seed: every workload serves the same `full` preset
/// (MovieLens-1M scale); only the requests depend on `--seed`.
pub const DATASET_SEED: u64 = 42;

pub fn full_dataset() -> Dataset {
    generate(&SynthConfig::movielens_1m(DATASET_SEED)).expect("synthetic generation cannot fail")
}

/// A running server and the handles the benchmark reads counters from.
pub struct Served {
    pub engine: MapRatEngine,
    pub ingest: Arc<IngestService>,
    pub server: HttpServer,
    /// The write-ahead log's directory, when there is one.
    pub wal_dir: Option<PathBuf>,
    /// Kept alive for the server's lifetime (dropping it stops warming).
    _scheduler: Arc<PrecomputeScheduler>,
}

/// One handler invocation of the traced run.
#[derive(Debug, Clone)]
pub struct HandlerSpan {
    pub trace_id: u64,
    pub path: String,
    pub class: Option<String>,
    pub start: Instant,
    pub end: Instant,
}

pub type HandlerLog = Arc<Mutex<Vec<HandlerSpan>>>;

/// Generates the dataset and assembles the server: popular-item
/// precompute, the background precompute scheduler, live ingestion (with
/// a write-ahead log in `wal_dir` when given, as `MAPRAT_WAL_DIR` does),
/// and `4 × threads` requests in flight. With `log`, the handler returned
/// by `AppState::into_handler` is wrapped in a span recorder before it
/// reaches `HttpServer::start`.
pub fn assemble(wal_dir: Option<&Path>, log: Option<HandlerLog>) -> Result<Served, String> {
    let engine = MapRatEngine::from_dataset(full_dataset());
    engine.precompute_popular(
        8,
        &SearchSettings::builder()
            .min_coverage(0.2)
            .build()
            .map_err(|e| e.to_string())?,
    );
    let scheduler = Arc::new(PrecomputeScheduler::start(engine.clone()));
    let ingest = Arc::new(match wal_dir {
        Some(dir) => {
            IngestService::with_wal(engine.clone(), dir)
                .map_err(|e| format!("cannot open WAL in {}: {e}", dir.display()))?
                .0
        }
        None => IngestService::new(engine.clone()),
    });
    let state = AppState::new(engine.clone())
        .with_precompute(Arc::clone(&scheduler))
        .with_ingest(Arc::clone(&ingest));
    let handler = match log {
        Some(log) => traced(state.into_handler(), log),
        None => state.into_handler(),
    };
    let server = HttpServer::start("127.0.0.1:0", 4 * num_threads(), handler)
        .map_err(|e| format!("cannot bind: {e}"))?;
    Ok(Served {
        engine,
        ingest,
        server,
        wal_dir: wal_dir.map(Path::to_path_buf),
        _scheduler: scheduler,
    })
}

fn traced(inner: Handler, log: HandlerLog) -> Handler {
    Arc::new(move |req: &Request| {
        let start = Instant::now();
        let response = inner(req);
        let end = Instant::now();
        let trace_id = req
            .headers
            .get("x-bench-id")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let class = response
            .headers
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case("x-maprat-cache"))
            .map(|(_, v)| v.clone());
        log.lock().expect("handler log").push(HandlerSpan {
            trace_id,
            path: req.path.clone(),
            class,
            start,
            end,
        });
        response
    })
}
