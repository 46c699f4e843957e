//! Correctness of the answers a run received: repeated requests answer
//! byte-identically, sampled answers equal a fresh reference engine's, and
//! delta-maintained cubes equal scratch rebuilds.

use crate::client::{fnv1a, Sample};
use crate::gen::{Kind, PoolEntry, QueryType, Target, HOT_TITLES};
use maprat_core::{Budget, SearchSettings};
use maprat_cube::{CubeOptions, RatingCube};
use maprat_data::Dataset;
use maprat_explore::{exploration_maps, ExplainRequest, MapRatEngine};
use maprat_geo::svg::{render as render_svg, SvgOptions};
use maprat_ingest::IngestService;
use maprat_server::{api, http, ExplainResponse, Json, Request};
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Default)]
pub struct Outcome {
    pub checked: usize,
    pub mismatched: usize,
}

impl Outcome {
    fn compare(&mut self, what: &str, ok: bool) {
        self.checked += 1;
        if !ok {
            self.mismatched += 1;
            eprintln!("[perfbench] MISMATCH: {what}");
        }
    }
}

/// Parses a target's request bytes exactly as the server does.
pub fn decode(target: &Target) -> Request {
    let mut bytes = Vec::new();
    target.write_request(&mut bytes, None);
    http::parse_request(&mut std::io::Cursor::new(bytes))
        .expect("generated requests parse")
        .expect("generated requests are complete")
}

/// The typed explain request behind a generated explain target.
pub fn explain_request(target: &Target) -> ExplainRequest {
    api::explain_request(&decode(target)).expect("generated explain requests decode")
}

/// The pool entry's explain request at `coverage`, as the server decodes it.
pub fn explain_request_of(entry: &PoolEntry, coverage: &str) -> ExplainRequest {
    let mut targets = crate::gen::Targets::default();
    explain_request(&crate::gen::explain_target(&mut targets, entry, coverage))
}

pub fn cube_options(settings: &SearchSettings) -> CubeOptions {
    CubeOptions {
        min_support: settings.min_support,
        require_geo: settings.require_geo,
        max_arity: settings.max_arity,
    }
}

/// The digest two answers of one request must share. Batch answers label
/// each slot with the tier that served it, which legitimately changes
/// between repeats, so the labels are dropped first.
fn digest(sample: &Sample) -> Option<u64> {
    let reply = sample.reply.as_ref().filter(|r| r.status == 200)?;
    if sample.target.kind != Kind::Batch {
        return Some(reply.body_hash);
    }
    let body = Json::parse(&String::from_utf8_lossy(reply.body.as_ref()?)).ok()?;
    let results = match body.get("results") {
        Some(Json::Arr(slots)) => slots
            .iter()
            .map(|slot| match slot {
                Json::Obj(fields) => Json::Obj(
                    fields
                        .iter()
                        .filter(|(k, _)| k.as_str() != "cache")
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                ),
                other => other.clone(),
            })
            .collect(),
        _ => return None,
    };
    Some(fnv1a(Json::Arr(results).render().as_bytes()))
}

/// Every read must answer exactly as the previous answer to the same
/// request did, unless an ingest commit was in flight in between (a
/// commit changes the data, so the answer may change).
pub fn byte_identity(samples: &[Sample], outcome: &mut Outcome) {
    let commits: Vec<(u64, u64)> = samples
        .iter()
        .filter(|s| s.target.kind == Kind::Ingest)
        .map(|s| (s.sent, s.done))
        .collect();
    let mut by_target: HashMap<*const Target, Vec<&Sample>> = HashMap::new();
    for s in samples
        .iter()
        .filter(|s| s.target.kind != Kind::Ingest && s.ok())
    {
        by_target.entry(Arc::as_ptr(&s.target)).or_default().push(s);
    }
    for group in by_target.values_mut() {
        group.sort_by_key(|s| s.sent);
        for pair in group.windows(2) {
            let (prev, cur) = (pair[0], pair[1]);
            let quiet = !commits
                .iter()
                .any(|&(sent, done)| sent < cur.done && done > prev.sent);
            if quiet {
                outcome.compare(
                    &format!("repeat of {} {}", cur.target.method, cur.target.path),
                    digest(prev) == digest(cur),
                );
            }
        }
    }
}

/// What the server's explain route answers for `request` on `engine`.
fn explain_body(engine: &MapRatEngine, req: &Request) -> Option<Vec<u8>> {
    let (request, mode) = api::explain_request_opts(req).ok()?;
    let (result, _) = engine.explain_opts(&request, &Budget::unlimited(), mode);
    let r = result.as_ref().as_ref().ok()?;
    let mut body = ExplainResponse::from_explanation(&r.explanation);
    if let Some(info) = &r.approx {
        body = body.with_approx(info);
    }
    Some(body.to_json().render().into_bytes())
}

/// What the server's map route answers for `request` on `engine`.
fn map_body(engine: &MapRatEngine, req: &Request) -> Option<Vec<u8>> {
    let request = api::explain_request(req).ok()?;
    let result = engine.explain(&request);
    let r = result.as_ref().as_ref().ok()?;
    let (sm, dm) = exploration_maps(&r.explanation);
    let map = if req.param("task") == Some("dm") {
        dm
    } else {
        sm
    };
    Some(render_svg(&map, &SvgOptions::default()).into_bytes())
}

/// Compares the kept explain and map answers of reference-marked requests
/// with a fresh engine over `dataset`, computed off the clock.
pub fn against_reference(samples: &[Sample], dataset: &Arc<Dataset>, outcome: &mut Outcome) {
    let engine = MapRatEngine::new(Arc::clone(dataset));
    for s in samples {
        let Some(body) = s
            .reply
            .as_ref()
            .filter(|r| r.status == 200)
            .and_then(|r| r.body.as_ref())
        else {
            continue;
        };
        if !s.target.reference {
            continue;
        }
        let req = decode(&s.target);
        let expected = match s.target.kind {
            Kind::Explain => explain_body(&engine, &req),
            Kind::Map => map_body(&engine, &req),
            _ => continue,
        };
        outcome.compare(
            &format!(
                "reference answer of {} (served {:?})",
                s.target.path,
                s.class()
            ),
            expected.as_deref() == Some(body.as_slice()),
        );
    }
}

/// Every watched cube must equal a scratch build over the final dataset.
pub fn watched_cubes(service: &IngestService, pool: &[PoolEntry], outcome: &mut Outcome) {
    let dataset = service.engine().dataset();
    for entry in pool
        .iter()
        .filter(|e| e.qtype == QueryType::Movie)
        .take(HOT_TITLES)
    {
        let request = explain_request_of(entry, crate::gen::HOT_COVERAGES[0]);
        let (Some(maintained), Some(universe)) = (
            service.watched_cube(&request.query),
            service.watched_universe(&request.query),
        ) else {
            outcome.compare(&format!("{} is watched", entry.name), false);
            continue;
        };
        let scratch = RatingCube::build(&dataset, universe, cube_options(&request.settings));
        let same = maintained.len() == scratch.len()
            && maintained.rating_indexes() == scratch.rating_indexes()
            && maintained.total_stats() == scratch.total_stats()
            && maintained
                .groups()
                .iter()
                .zip(scratch.groups())
                .all(|(a, b)| a.desc == b.desc && a.stats == b.stats && a.cover == b.cover);
        outcome.compare(
            &format!("watched cube of {} equals a rebuild", entry.name),
            same,
        );
    }
}
