//! The traced run: spans at each layer boundary, recorded from the
//! benchmark's own code around calls into the layers' public functions,
//! and the per-layer metrics computed from them.
//!
//! Live spans come from the traced pass: the client's request span and,
//! as its child, the server handler span (the wrapper around the handler
//! `AppState::into_handler` returns). Layer spans come from an off-clock,
//! single-threaded replay of a deterministic sample of the logged
//! requests per `X-MapRat-Cache` class, through `http::parse_request`,
//! `MapRatEngine::explain_opts`, `Miner::collect_universe`,
//! `RatingCube::build`, `rhe::solve_with_stats`, the response render and
//! the SVG map render.

use crate::check::{self, cube_options};
use crate::client::{Phase, Sample};
use crate::gen::Kind;
use crate::server::HandlerSpan;
use crate::stats::{mean, median, percentile};
use crate::{Pass, Report};
use maprat_core::{rhe, Budget, Miner, MiningProblem, RheStats, Task};
use maprat_cube::RatingCube;
use maprat_explore::{exploration_maps, ExplainRequest, MapRatEngine, ServedFrom};
use maprat_geo::svg::{render as render_svg, SvgOptions};
use maprat_server::{api, http, ExplainResponse, Json};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One span: a named interval, its parent span and its request.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    request: u64,
}

/// Spans kept in memory and written out when the run ends.
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.ns(Instant::now());
        self.push(name, now, now, parent, request)
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end = self.ns(Instant::now());
    }

    /// Runs `f` inside a span; returns its value and the span's length.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let value = std::hint::black_box(f());
        let end = Instant::now();
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(name, s, e, parent, request);
        (value, end - start)
    }

    fn len_ns(&self, span: usize) -> u64 {
        self.spans[span].end - self.spans[span].start
    }

    /// Summed length of `span`'s children (which never overlap here).
    fn children_ns(&self, span: usize) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(span))
            .map(|s| s.end - s.start)
            .sum()
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start, s.end, s.request
            );
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

/// Classes replayed through the layers, and how many distinct requests
/// of each the replay samples (first seen first).
const REPLAY_CLASSES: [(&str, usize); 3] = [("hit", 64), ("snapshot", 24), ("miss", 48)];
const REPLAY_MAPS: usize = 16;
/// Off-clock time the replay of one class (or of the maps) may take
/// before it stops sampling.
const REPLAY_BUDGET: Duration = Duration::from_secs(2);

/// Layer measurements from the replay.
#[derive(Default)]
struct Replay {
    parse_us: Vec<f64>,
    render_us: Vec<f64>,
    /// `explain_opts` per class: µs for `hit`, ms otherwise.
    explain_time: HashMap<&'static str, Vec<f64>>,
    collect_ms: Vec<f64>,
    scanned: Vec<f64>,
    build_ms: Vec<f64>,
    groups: Vec<f64>,
    solve_ms: Vec<f64>,
    rhe: Vec<RheStats>,
    geo_us: Vec<f64>,
    svg_bytes: Vec<f64>,
    /// Per class: the summed phase spans of each replayed request, in µs.
    phase_sum_us: HashMap<&'static str, Vec<f64>>,
}

fn solve_both(cube: &RatingCube, request: &ExplainRequest) -> RheStats {
    let s = &request.settings;
    let problem = MiningProblem::new(cube, s.max_groups, s.min_coverage, s.dm_lambda);
    let mut total = RheStats::default();
    for task in Task::ALL {
        if let Some((_, stats)) = rhe::solve_with_stats(&problem, task, &s.rhe) {
            total.restarts += stats.restarts;
            total.iterations += stats.iterations;
            total.evaluations += stats.evaluations;
        }
    }
    total
}

fn replay(rec: &mut Recorder, pass: &Pass) -> Replay {
    let started = Instant::now();
    let engine = MapRatEngine::new(Arc::clone(&pass.dataset));
    let mut out = Replay::default();
    let mut ordered: Vec<&Sample> = pass.samples.iter().filter(|s| s.ok()).collect();
    ordered.sort_by_key(|s| s.sent);
    // Distinct requests of `kind` (and `class`), first seen first.
    let pick = |kind: Kind, class: Option<&str>, cap: usize| -> Vec<&Sample> {
        let mut seen = HashSet::new();
        ordered
            .iter()
            .copied()
            .filter(|s| s.target.kind == kind && (class.is_none() || s.class() == class))
            .filter(|s| seen.insert(Arc::as_ptr(&s.target)))
            .take(cap)
            .collect()
    };

    let phase_start = Instant::now();
    for sample in pick(Kind::Map, None, REPLAY_MAPS) {
        if phase_start.elapsed() > REPLAY_BUDGET {
            break;
        }
        let req = check::decode(&sample.target);
        let Ok(request) = api::explain_request(&req) else {
            continue;
        };
        let result = engine.explain(&request);
        let Ok(r) = result.as_ref() else {
            continue;
        };
        let (svg, took) = rec.time("geo.render", None, sample.trace_id, || {
            let (sm, dm) = exploration_maps(&r.explanation);
            let map = if req.param("task") == Some("dm") {
                dm
            } else {
                sm
            };
            render_svg(&map, &SvgOptions::default())
        });
        out.geo_us.push(took.as_secs_f64() * 1e6);
        out.svg_bytes.push(svg.len() as f64);
    }
    for (class, cap) in REPLAY_CLASSES {
        let phase_start = Instant::now();
        for sample in pick(Kind::Explain, Some(class), cap) {
            if phase_start.elapsed() > REPLAY_BUDGET {
                break;
            }
            replay_explain(rec, &engine, sample, class, &mut out);
        }
    }
    eprintln!(
        "[perfbench] replay took {:.2} s",
        started.elapsed().as_secs_f64()
    );
    out
}

/// Replays one logged explain of `class` on `engine`: first the engine
/// call that reproduces the class (timed as a whole), then the request's
/// phases one layer at a time under one root span.
fn replay_explain(
    rec: &mut Recorder,
    engine: &MapRatEngine,
    sample: &Sample,
    class: &'static str,
    out: &mut Replay,
) {
    let id = sample.trace_id;
    let mut bytes = Vec::new();
    sample.target.write_request(&mut bytes, None);
    let Ok(Some(req)) = http::parse_request(&mut std::io::Cursor::new(bytes.clone())) else {
        return;
    };
    let Ok((request, mode)) = api::explain_request_opts(&req) else {
        return;
    };
    // Put the replay engine in the state that makes this request `class`.
    let expected = match class {
        "hit" => {
            engine.explain(&request);
            ServedFrom::ResultCache
        }
        "snapshot" => {
            engine.clear_cache();
            let mut sibling = request.clone();
            sibling.settings.min_coverage = if request.settings.min_coverage > 0.5 {
                0.1
            } else {
                0.9
            };
            engine.explain(&sibling);
            ServedFrom::SnapshotCache
        }
        _ => {
            engine.clear_cache();
            ServedFrom::Cold
        }
    };
    let ((result, served), took) = rec.time("explore.explain_opts", None, id, || {
        engine.explain_opts(&request, &Budget::unlimited(), mode)
    });
    let Ok(result) = result.as_ref() else {
        return;
    };
    if served != expected {
        return;
    }
    let unit = if class == "hit" { 1e6 } else { 1e3 };
    out.explain_time
        .entry(class)
        .or_default()
        .push(took.as_secs_f64() * unit);

    let root = rec.open(
        match class {
            "hit" => "replay.hit",
            "snapshot" => "replay.snapshot",
            _ => "replay.miss",
        },
        None,
        id,
    );
    let (_, parse) = rec.time("server.parse", Some(root), id, || {
        http::parse_request(&mut std::io::Cursor::new(&bytes))
    });
    out.parse_us.push(parse.as_secs_f64() * 1e6);
    rec.time("server.decode", Some(root), id, || {
        api::explain_request_opts(&req).is_ok()
    });
    match class {
        "hit" => {
            rec.time("explore.lookup", Some(root), id, || {
                engine.explain_opts(&request, &Budget::unlimited(), mode)
            });
        }
        "snapshot" => {
            let (stats, solve) = rec.time("core.solve", Some(root), id, || {
                solve_both(&result.cube, &request)
            });
            out.solve_ms.push(solve.as_secs_f64() * 1e3);
            out.rhe.push(stats);
        }
        _ => {
            let dataset = &result.dataset;
            let miner = Miner::new(dataset);
            let (universe, collect) = rec.time("core.collect", Some(root), id, || {
                miner.collect_universe(&request.query, &request.settings)
            });
            let Ok((_, rating_idx)) = universe else {
                rec.close(root);
                return;
            };
            out.collect_ms.push(collect.as_secs_f64() * 1e3);
            out.scanned.push(rating_idx.len() as f64);
            let (cube, build) = rec.time("cube.build", Some(root), id, || {
                RatingCube::build(dataset, rating_idx, cube_options(&request.settings))
            });
            out.build_ms.push(build.as_secs_f64() * 1e3);
            out.groups.push(cube.len() as f64);
            let (stats, solve) =
                rec.time("core.solve", Some(root), id, || solve_both(&cube, &request));
            out.solve_ms.push(solve.as_secs_f64() * 1e3);
            out.rhe.push(stats);
        }
    }
    let (_, render) = rec.time("server.render", Some(root), id, || {
        ExplainResponse::from_explanation(&result.explanation)
            .to_json()
            .render()
    });
    out.render_us.push(render.as_secs_f64() * 1e6);
    rec.close(root);
    out.phase_sum_us
        .entry(class)
        .or_default()
        .push(rec.children_ns(root) as f64 / 1e3);
    if rec.len_ns(root) < rec.children_ns(root) {
        eprintln!("[perfbench] warning: replay span children exceed their root");
    }
}

/// The per-layer report of a `--trace 1` run from its untraced pass
/// (`plain`) and traced pass, whose handler spans are `handler`.
pub fn per_layer(
    plain: &Pass,
    traced: &Pass,
    handler: &[HandlerSpan],
    trace_file: &Path,
) -> Result<Report, String> {
    let mut rec = Recorder {
        epoch: traced.epoch,
        spans: Vec::new(),
    };
    let by_id: HashMap<u64, &HandlerSpan> = handler.iter().map(|h| (h.trace_id, h)).collect();
    let us = |d: u64| d as f64 / 1e3;

    // Live spans: request (client) → handler (server).
    let mut wait_ms = Vec::new();
    let mut handler_us = Vec::new();
    let mut class_handler_us: HashMap<String, Vec<f64>> = HashMap::new();
    let mut route_ms: HashMap<String, Vec<f64>> = HashMap::new();
    for s in &traced.samples {
        let request = rec.push("client.request", s.sent, s.done, None, s.trace_id);
        let Some(h) = by_id.get(&s.trace_id) else {
            continue;
        };
        let (start, end) = (rec.ns(h.start), rec.ns(h.end));
        rec.push("server.handler", start, end, Some(request), s.trace_id);
        route_ms
            .entry(h.path.clone())
            .or_default()
            .push((end - start) as f64 / 1e6);
        if s.timed() {
            wait_ms.push(start.saturating_sub(s.sent) as f64 / 1e6);
            handler_us.push(us(end - start));
        }
        if h.path == "/api/v1/explain" {
            if let Some(class) = &h.class {
                class_handler_us
                    .entry(class.clone())
                    .or_default()
                    .push(us(end - start));
            }
        }
    }

    let replayed = replay(&mut rec, traced);
    if let Err(e) = rec.write(trace_file) {
        eprintln!("[perfbench] cannot write {}: {e}", trace_file.display());
    } else {
        eprintln!(
            "[perfbench] {} spans written to {}",
            rec.spans.len(),
            trace_file.display()
        );
    }

    // Serving classes over the timed reads.
    let labelled: Vec<&str> = traced
        .samples
        .iter()
        .filter(|s| s.timed())
        .filter_map(Sample::class)
        .collect();
    let share = |class: &str| {
        if labelled.is_empty() {
            0.0
        } else {
            labelled.iter().filter(|&&c| c == class).count() as f64 / labelled.len() as f64
        }
    };
    let body_bytes: Vec<f64> = traced
        .samples
        .iter()
        .filter(|s| s.timed() && s.ok())
        .filter_map(|s| s.reply.as_ref().map(|r| r.body_len as f64))
        .collect();
    let shed = [plain, traced]
        .iter()
        .flat_map(|p| &p.samples)
        .filter(|s| s.reply.as_ref().is_some_and(|r| r.status == 503))
        .count();

    // Cache tiers over the traced timed phase.
    let (b, a) = (&traced.stats_before, &traced.stats_after);
    let rate = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    let result_hits = a.result_hits - b.result_hits;
    let result_misses = a.result_misses - b.result_misses;
    let snapshot_hits = a.snapshot_hits - b.snapshot_hits;
    let snapshot_misses = a.snapshot_misses - b.snapshot_misses;

    // Ingest receipts.
    let receipts: Vec<Json> = traced
        .samples
        .iter()
        .filter(|s| s.target.kind == Kind::Ingest && s.ok())
        .filter_map(|s| s.reply.as_ref()?.body.as_ref())
        .filter_map(|b| Json::parse(&String::from_utf8_lossy(b)).ok())
        .collect();
    let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let invalidated: Vec<f64> = receipts.iter().map(|r| field(r, "invalidated")).collect();
    let writer_accepted: f64 = traced
        .samples
        .iter()
        .filter(|s| s.phase == Phase::Writer && s.ok())
        .filter_map(|s| s.reply.as_ref()?.body.as_ref())
        .filter_map(|b| Json::parse(&String::from_utf8_lossy(b)).ok())
        .map(|r| field(&r, "accepted"))
        .sum();
    let wal_bytes_per_rating = if writer_accepted > 0.0 {
        traced.wal_bytes as f64 / writer_accepted
    } else {
        0.0
    };

    let lag: Vec<f64> = plain
        .samples
        .iter()
        .filter(|s| s.phase == Phase::Open)
        .map(|s| s.sent.saturating_sub(s.due) as f64 / 1e6)
        .collect();
    let p50_plain = median(&plain.open_read_latencies());
    let p50_traced = median(&traced.open_read_latencies());

    let route = |path: &str| median(route_ms.get(path).map(Vec::as_slice).unwrap_or(&[]));
    let explain = |class: &str| {
        replayed
            .explain_time
            .get(class)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    };
    let rhe_mean = |f: fn(&RheStats) -> usize| {
        mean(&replayed.rhe.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    let class_handler = |class: &str| {
        median(
            class_handler_us
                .get(class)
                .map(Vec::as_slice)
                .unwrap_or(&[]),
        )
    };
    let phase_sum = |class: &str| {
        median(
            replayed
                .phase_sum_us
                .get(class)
                .map(Vec::as_slice)
                .unwrap_or(&[]),
        )
    };

    eprintln!("[perfbench] phase sums vs handler spans (µs, p50):");
    for (class, _) in REPLAY_CLASSES {
        eprintln!(
            "[perfbench]   {class:<9} phases {:>10.1}   handler {:>10.1}   (replayed {}, live {})",
            phase_sum(class),
            class_handler(class),
            replayed.phase_sum_us.get(class).map_or(0, Vec::len),
            class_handler_us.get(class).map_or(0, Vec::len)
        );
    }

    let metrics: Vec<(String, f64, &'static str)> = vec![
        ("server.wait_ms_p50".into(), median(&wait_ms), "ms"),
        ("server.handler_us_p50".into(), median(&handler_us), "us"),
        (
            "server.parse_us_p50".into(),
            median(&replayed.parse_us),
            "us",
        ),
        (
            "server.render_us_p50".into(),
            median(&replayed.render_us),
            "us",
        ),
        ("server.body_bytes_mean".into(), mean(&body_bytes), "bytes"),
        ("server.shed_503".into(), shed as f64, "count"),
        ("explore.share_hit".into(), share("hit"), "ratio"),
        ("explore.share_snapshot".into(), share("snapshot"), "ratio"),
        ("explore.share_miss".into(), share("miss"), "ratio"),
        (
            "explore.share_coalesced".into(),
            share("coalesced"),
            "ratio",
        ),
        (
            "explore.share_preingest".into(),
            share("hit-preingest"),
            "ratio",
        ),
        ("explore.share_batch".into(), share("batch"), "ratio"),
        ("explore.hit_us_p50".into(), median(explain("hit")), "us"),
        (
            "explore.snapshot_ms_p50".into(),
            median(explain("snapshot")),
            "ms",
        ),
        ("explore.miss_ms_p50".into(), median(explain("miss")), "ms"),
        (
            "explore.miss_ms_p99".into(),
            percentile(explain("miss"), 99.0),
            "ms",
        ),
        (
            "explore.timeline_ms_p50".into(),
            route("/api/v1/timeline"),
            "ms",
        ),
        (
            "explore.batch_ms_p50".into(),
            route("/api/v1/explain/batch"),
            "ms",
        ),
        ("explore.drill_ms_p50".into(), route("/api/v1/drill"), "ms"),
        (
            "explore.personalize_ms_p50".into(),
            route("/api/v1/personalize"),
            "ms",
        ),
        (
            "cache.result_hit_rate".into(),
            rate(result_hits, result_misses),
            "ratio",
        ),
        (
            "cache.snapshot_hit_rate".into(),
            rate(snapshot_hits, snapshot_misses),
            "ratio",
        ),
        (
            "cache.result_evictions".into(),
            traced.result_evictions as f64,
            "count",
        ),
        (
            "cache.snapshot_evictions".into(),
            traced.snapshot_evictions as f64,
            "count",
        ),
        (
            "cache.invalidations".into(),
            (a.invalidations - b.invalidations) as f64,
            "count",
        ),
        (
            "cache.flights_joined".into(),
            (a.flights_joined - b.flights_joined) as f64,
            "count",
        ),
        (
            "core.collect_ms_p50".into(),
            median(&replayed.collect_ms),
            "ms",
        ),
        (
            "core.ratings_scanned_mean".into(),
            mean(&replayed.scanned),
            "count",
        ),
        ("core.solve_ms_p50".into(), median(&replayed.solve_ms), "ms"),
        (
            "core.solve_ms_p99".into(),
            percentile(&replayed.solve_ms, 99.0),
            "ms",
        ),
        (
            "core.rhe_evaluations_mean".into(),
            rhe_mean(|s| s.evaluations),
            "count",
        ),
        (
            "core.rhe_iterations_mean".into(),
            rhe_mean(|s| s.iterations),
            "count",
        ),
        (
            "core.rhe_restarts_mean".into(),
            rhe_mean(|s| s.restarts),
            "count",
        ),
        ("cube.build_ms_p50".into(), median(&replayed.build_ms), "ms"),
        (
            "cube.build_ms_p99".into(),
            percentile(&replayed.build_ms, 99.0),
            "ms",
        ),
        ("cube.groups_mean".into(), mean(&replayed.groups), "count"),
        ("geo.render_us_p50".into(), median(&replayed.geo_us), "us"),
        (
            "geo.svg_bytes_mean".into(),
            mean(&replayed.svg_bytes),
            "bytes",
        ),
        ("ingest.commit_ms_p50".into(), route("/api/v1/ingest"), "ms"),
        (
            "ingest.invalidated_mean".into(),
            mean(&invalidated),
            "count",
        ),
        (
            "ingest.wal_bytes_per_rating".into(),
            wal_bytes_per_rating,
            "bytes",
        ),
        (
            "ingest.commit_p50_ms".into(),
            median(&plain.commit_latencies()),
            "ms",
        ),
        (
            "ingest.commit_p90_ms".into(),
            percentile(&plain.commit_latencies(), 90.0),
            "ms",
        ),
        ("bench.read_p99_ms".into(), plain.read_p99_ms(), "ms"),
        (
            "pool.workers".into(),
            maprat_core::parallel::num_threads() as f64,
            "count",
        ),
        ("bench.lag_ms_p99".into(), percentile(&lag, 99.0), "ms"),
        ("bench.steal_share".into(), plain.steal, "ratio"),
        (
            "bench.trace_overhead".into(),
            p50_traced / p50_plain,
            "ratio",
        ),
        ("trace.hit.phase_sum_us".into(), phase_sum("hit"), "us"),
        ("trace.hit.handler_us".into(), class_handler("hit"), "us"),
        (
            "trace.snapshot.phase_sum_us".into(),
            phase_sum("snapshot"),
            "us",
        ),
        (
            "trace.snapshot.handler_us".into(),
            class_handler("snapshot"),
            "us",
        ),
        ("trace.miss.phase_sum_us".into(), phase_sum("miss"), "us"),
        ("trace.miss.handler_us".into(), class_handler("miss"), "us"),
    ];
    Ok(Report {
        attempted: plain.attempted() + traced.attempted(),
        failed: plain.failed() + traced.failed(),
        metrics,
    })
}
