//! The MapRat serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore|hot_cached|ingest_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Assembles the server the way `maprat serve` does over the `full`
//! synthetic dataset, drives one workload against it over HTTP from this
//! process, checks the answers, and prints one JSON line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! NOTES.md explains the workloads and every metric.

mod check;
mod client;
mod gen;
mod server;
mod stats;
mod trace;

use client::{Load, Phase, Sample, SampleLog};
use gen::{CommitDraws, HotDraws, PoolEntry, Sessions, Target, Targets};
use maprat_core::parallel::num_threads;
use maprat_explore::ServingStats;
use maprat_server::Json;
use server::{HandlerLog, Served};
use stats::{median, percentile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Explore,
    HotCached,
    ColdSingle,
    IngestMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "explore" => Some(Workload::Explore),
            "hot_cached" => Some(Workload::HotCached),
            "cold_single" => Some(Workload::ColdSingle),
            "ingest_mixed" => Some(Workload::IngestMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::HotCached => "hot_cached",
            Workload::ColdSingle => "cold_single",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    /// Open-loop arrival rate of the reads, per second.
    fn read_rate(self) -> f64 {
        match self {
            Workload::Explore => EXPLORE_RATE,
            Workload::HotCached => HOT_RATE,
            Workload::ColdSingle => COLD_RATE,
            Workload::IngestMixed => HOT_RATE_BESIDE_WRITES,
        }
    }
}

/// Open-loop rate of `explore`: a quarter to a third of its closed-loop
/// throughput on 2 cores, so few requests queue behind its 50–150 ms
/// catalogue solves.
const EXPLORE_RATE: f64 = 40.0;
/// Open-loop rate of `cold_single`, well below its closed-loop
/// throughput (~2,000/s on 2 cores).
const COLD_RATE: f64 = 250.0;
/// Open-loop rate of the hot read set, alone and beside the writer (on
/// one connection there).
const HOT_RATE: f64 = 4000.0;
const HOT_RATE_BESIDE_WRITES: f64 = 1000.0;
/// Share of the measured time spent in the open loop (the rest is the
/// closed loop).
const OPEN_SHARE: f64 = 0.5;
/// Requests of the `explore` and `cold_single` streams sent (untimed)
/// before timing starts, so the caches are near their steady state.
const STREAM_WARMUP: usize = 400;
/// Ingest commits of `ingest_mixed` per run, evenly spaced.
const WRITER_COMMITS: usize = 110;
/// Commits closing every workload but `ingest_mixed`, and their spacing.
const CLOSING_COMMITS: usize = 64;
const CLOSING_COMMIT_GAP: Duration = Duration::from_millis(80);
/// Windows of each timed phase: `p50_ms` and `throughput_rps` are the
/// median of the better half of them.
const WINDOWS: usize = 12;
/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    // The server must run with its defaults: no MAPRAT_* knob reaches it.
    // (Still single-threaded here, so mutating the environment is sound.)
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("MAPRAT_") {
            std::env::remove_var(&name);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if num_threads() < 2 {
        // A keep-alive connection occupies a pool worker for its life;
        // the workloads need two.
        eprintln!("perfbench: needs at least 2 worker threads");
        return ExitCode::from(2);
    }
    let out_dir = PathBuf::from(".perfbench_out");
    let result = run(&args, &out_dir);
    let _ = std::fs::remove_dir_all(out_dir.join(format!("wal-{}", std::process::id())));
    match result {
        Ok(report) => {
            let correct = report.failed == 0;
            println!("{}", report.render(correct));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one invocation prints.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn render(&self, correct: bool) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

fn run(args: &Args, out_dir: &Path) -> Result<Report, String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    eprintln!(
        "[perfbench] workload={} seed={} seconds={} trace={} threads={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        num_threads()
    );
    if !args.trace {
        let mut setups = Vec::with_capacity(SETUP_REPS);
        let mut served = None;
        for rep in 0..SETUP_REPS {
            drop(served.take());
            let (s, secs) = setup(args.workload, out_dir, rep, None)?;
            setups.push(secs);
            served = Some(s);
        }
        let served = served.expect("at least one set-up");
        let pass = run_pass(args, args.seconds, served, false)?;
        let mut report = pass.end_to_end();
        report
            .metrics
            .push(("setup_s".into(), median(&setups), "s"));
        eprintln!("[perfbench] set-ups (s): {setups:?}");
        Ok(report)
    } else {
        // Per-layer run: an untraced pass and a traced pass of half the
        // length each, both from a fresh set-up with the same seed; their
        // p50 ratio is the tracing overhead.
        let half = args.seconds / 2.0;
        let (served, _) = setup(args.workload, out_dir, 0, None)?;
        let plain = run_pass(args, half, served, false)?;
        let log: HandlerLog = Arc::new(Mutex::new(Vec::new()));
        let (served, _) = setup(args.workload, out_dir, 1, Some(Arc::clone(&log)))?;
        let traced = run_pass(args, half, served, true)?;
        let spans = std::mem::take(&mut *log.lock().expect("handler log"));
        let trace_file = out_dir.join(format!("trace-{}.json", args.workload.name()));
        trace::per_layer(&plain, &traced, &spans, &trace_file)
    }
}

/// Generates, assembles and (for `ingest_mixed`) prepares one server.
fn setup(
    workload: Workload,
    out_dir: &Path,
    rep: usize,
    log: Option<HandlerLog>,
) -> Result<(Served, f64), String> {
    let start = Instant::now();
    let wal_dir = (workload == Workload::IngestMixed).then(|| {
        out_dir
            .join(format!("wal-{}", std::process::id()))
            .join(rep.to_string())
    });
    if let Some(dir) = &wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let served = server::assemble(wal_dir.as_deref(), log)?;
    if workload == Workload::IngestMixed {
        // The hot read set's queries are watched: every commit
        // delta-maintains their cubes.
        let dataset = served.engine.dataset();
        let pool = gen::query_pool(&dataset);
        for entry in pool
            .iter()
            .filter(|e| e.qtype == gen::QueryType::Movie)
            .take(gen::HOT_TITLES)
        {
            let request = check::explain_request_of(entry, gen::HOT_COVERAGES[0]);
            served
                .ingest
                .watch(&request.query, check::cube_options(&request.settings))
                .map_err(|e| format!("cannot watch {}: {e}", entry.name))?;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    eprintln!("[perfbench] set-up {rep}: {secs:.3} s");
    Ok((served, secs))
}

/// Everything one pass measured.
pub struct Pass {
    pub samples: Vec<Sample>,
    /// Start and end of the closed-loop phase, ns since `epoch`.
    pub closed_span: (u64, u64),
    pub stats_before: ServingStats,
    pub stats_after: ServingStats,
    pub result_evictions: u64,
    pub snapshot_evictions: u64,
    pub peak_rss_mb: f64,
    /// Share of the machine's CPU time other guests took during the timed
    /// phase (`/proc/stat` steal).
    pub steal: f64,
    pub wal_bytes: u64,
    pub failed_checks: usize,
    /// The dataset the reads were answered from (before closing commits).
    pub dataset: Arc<maprat_data::Dataset>,
    pub epoch: Instant,
}

fn run_pass(args: &Args, seconds: f64, served: Served, traced: bool) -> Result<Pass, String> {
    let epoch = Instant::now();
    let load = Load::new(served.server.port(), epoch, traced);
    let dataset = served.engine.dataset();
    let pool: Arc<Vec<PoolEntry>> = Arc::new(gen::query_pool(&dataset));
    let workload = args.workload;
    let mut samples: Vec<Sample> = Vec::new();

    // Request streams.
    let mut hot_targets = Targets::with_reference(1, u32::MAX);
    let hot = gen::hot_set(&pool, &mut hot_targets);
    let mut commits = CommitDraws::new(&dataset, &pool, args.seed);
    let reads: Mutex<Box<dyn FnMut() -> Arc<Target> + Send>> = Mutex::new(match workload {
        Workload::Explore | Workload::ColdSingle => {
            let mut sessions = match workload {
                Workload::Explore => Sessions::explore(Arc::clone(&pool), args.seed),
                _ => Sessions::cold(Arc::clone(&pool), args.seed),
            };
            Box::new(move || sessions.next_target())
        }
        Workload::HotCached | Workload::IngestMixed => {
            let mut draws = HotDraws::new(hot.clone(), args.seed);
            Box::new(move || draws.next_target())
        }
    });
    let read_conns = match workload {
        // One of the two pool workers serves the writer's connection.
        Workload::IngestMixed => 1,
        _ => 2,
    };

    // Warm-up, untimed.
    let warmup: Vec<Arc<Target>> = match workload {
        Workload::Explore | Workload::ColdSingle => {
            let mut next = reads.lock().expect("request stream");
            (0..STREAM_WARMUP).map(|_| next()).collect()
        }
        _ => hot.iter().chain(hot.iter()).cloned().collect(),
    };
    samples.extend(load.sequential(&warmup, Phase::Warmup));

    // Timed phase: open loop, then closed loop (with the writer running
    // alongside both on ingest_mixed).
    let mut rng = gen::Rng::stream(args.seed, 4);
    let timed = timed_phase(
        &served,
        &load,
        &reads,
        &mut rng,
        &mut commits,
        workload,
        seconds,
        read_conns,
    )?;
    samples.extend(timed.samples);
    let wal_bytes = served.wal_dir.as_deref().map_or(0, dir_bytes);

    // Closing: every route once, then (all but ingest_mixed, whose writer
    // already committed) commits, so every workload exercises the ingest
    // layer. They come after the measured reads and peak RSS.
    let tour = sessions_for_tour(&pool, args.seed);
    samples.extend(load.sequential(&tour, Phase::Closing));
    if workload != Workload::IngestMixed {
        let schedule: Vec<(Duration, Arc<Target>)> = (0..CLOSING_COMMITS)
            .map(|i| (CLOSING_COMMIT_GAP * i as u32, commits.next_target()))
            .collect();
        samples.extend(load.open_loop(&schedule, 1, Instant::now(), Phase::Writer));
    }

    // Correctness.
    let mut outcome = check::Outcome::default();
    check::byte_identity(&samples, &mut outcome);
    match workload {
        Workload::IngestMixed => {
            let finals = load.sequential(&hot, Phase::Closing);
            check::against_reference(&finals, &served.engine.dataset(), &mut outcome);
            samples.extend(finals);
            check::watched_cubes(&served.ingest, &pool, &mut outcome);
        }
        _ => check::against_reference(&samples, &dataset, &mut outcome),
    }
    for s in &samples {
        if !s.ok() {
            eprintln!(
                "[perfbench] failed: {} {} -> {:?}",
                s.target.method,
                s.target.path,
                s.reply.as_ref().map(|r| r.status)
            );
        }
    }
    eprintln!(
        "[perfbench] checks: {} compared, {} mismatched",
        outcome.checked, outcome.mismatched
    );
    Ok(Pass {
        samples,
        closed_span: timed.closed_span,
        stats_before: timed.stats_before,
        stats_after: timed.stats_after,
        result_evictions: timed.result_evictions,
        snapshot_evictions: timed.snapshot_evictions,
        peak_rss_mb: timed.peak_rss_mb,
        steal: timed.steal,
        wal_bytes,
        failed_checks: outcome.mismatched,
        dataset,
        epoch,
    })
}

/// What the timed phase measured.
struct Timed {
    samples: Vec<Sample>,
    closed_span: (u64, u64),
    stats_before: ServingStats,
    stats_after: ServingStats,
    result_evictions: u64,
    snapshot_evictions: u64,
    peak_rss_mb: f64,
    steal: f64,
}

#[allow(clippy::too_many_arguments)]
fn timed_phase(
    served: &Served,
    load: &Load,
    reads: &Mutex<Box<dyn FnMut() -> Arc<Target> + Send>>,
    rng: &mut gen::Rng,
    commits: &mut CommitDraws,
    workload: Workload,
    seconds: f64,
    read_conns: usize,
) -> Result<Timed, String> {
    let stats_before = served.engine.serving_stats();
    let evictions_before = (
        served.engine.cache_stats().evictions(),
        served.engine.snapshot_stats().evictions(),
    );
    let schedule: Vec<(Duration, Arc<Target>)> = {
        let mut next = reads.lock().expect("request stream");
        gen::poisson_arrivals(rng, workload.read_rate(), seconds * OPEN_SHARE)
            .into_iter()
            .map(|t| (Duration::from_secs_f64(t), next()))
            .collect()
    };
    let writer_schedule: Vec<(Duration, Arc<Target>)> = if workload == Workload::IngestMixed {
        let gap = seconds / WRITER_COMMITS as f64;
        (0..WRITER_COMMITS)
            .map(|i| {
                (
                    Duration::from_secs_f64(gap * i as f64),
                    commits.next_target(),
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    // Peak RSS covers the open loop, whose request count is fixed by the
    // schedule: its samples go to slots allocated before the reset, so
    // the benchmark's own memory is a constant and the rest is the
    // server's. (The closed loop's sample count grows with the server's
    // speed, so it comes after the reading.)
    let open_log = SampleLog::new(schedule.len());
    let writer_log = SampleLog::new(writer_schedule.len());
    if !stats::reset_peak_rss() {
        eprintln!("[perfbench] warning: cannot reset the peak RSS; it includes set-up");
    }
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut closed_span = (0, 0);
    let mut peak_rss_mb = None;
    let ticks_before = stats::cpu_ticks();
    std::thread::scope(|s| {
        if !writer_schedule.is_empty() {
            s.spawn(|| load.open_loop_into(&writer_log, &writer_schedule, 1, start, Phase::Writer));
        }
        load.open_loop_into(&open_log, &schedule, read_conns, start, Phase::Open);
        peak_rss_mb = stats::peak_rss_mb();
        let closed_start = load.epoch.elapsed().as_nanos() as u64;
        let (closed, elapsed) = load.closed_loop(
            reads,
            read_conns,
            Duration::from_secs_f64(seconds * (1.0 - OPEN_SHARE)),
        );
        samples = closed;
        closed_span = (closed_start, closed_start + elapsed.as_nanos() as u64);
    });
    let steal = stats::steal_since(ticks_before);
    eprintln!(
        "[perfbench] machine CPU steal during the timed phase: {:.1}%",
        steal * 100.0
    );
    samples.extend(open_log.into_samples());
    samples.extend(writer_log.into_samples());
    Ok(Timed {
        samples,
        closed_span,
        stats_before,
        stats_after: served.engine.serving_stats(),
        result_evictions: served.engine.cache_stats().evictions() - evictions_before.0,
        snapshot_evictions: served.engine.snapshot_stats().evictions() - evictions_before.1,
        peak_rss_mb: peak_rss_mb.ok_or("cannot read VmHWM from /proc/self/status")?,
        steal,
    })
}

fn sessions_for_tour(pool: &Arc<Vec<PoolEntry>>, seed: u64) -> Vec<Arc<Target>> {
    Sessions::explore(Arc::clone(pool), seed).tour()
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

impl Pass {
    pub fn attempted(&self) -> usize {
        self.samples.len()
    }

    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok()).count() + self.failed_checks
    }

    /// Open-loop read latencies from due time, in ms, in due order.
    pub fn open_read_latencies(&self) -> Vec<f64> {
        let mut open: Vec<&Sample> = self
            .samples
            .iter()
            .filter(|s| s.phase == Phase::Open)
            .collect();
        open.sort_by_key(|s| s.due);
        open.into_iter().map(Sample::latency_ms).collect()
    }

    /// Closed-loop successful completions per second: the median of the
    /// better half of equal-time windows of the closed-loop phase.
    fn closed_throughput(&self) -> f64 {
        let (start, end) = self.closed_span;
        let width = (end - start) / WINDOWS as u64;
        let mut counts = [0usize; WINDOWS];
        for s in self
            .samples
            .iter()
            .filter(|s| s.phase == Phase::Closed && s.ok())
        {
            let w = ((s.done.saturating_sub(start)) / width.max(1)) as usize;
            counts[w.min(WINDOWS - 1)] += 1;
        }
        let rates: Vec<f64> = counts
            .iter()
            .map(|&c| c as f64 / (width as f64 / 1e9))
            .collect();
        stats::better_half_median(&rates, false)
    }

    /// Open-loop read p99: the median over windows of at least 1,000 reads.
    pub fn read_p99_ms(&self) -> f64 {
        stats::windowed_percentile(&self.open_read_latencies(), 99.0, WINDOWS, 1_000)
    }

    /// Ingest commit latencies from due time, in ms.
    pub fn commit_latencies(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.phase == Phase::Writer)
            .map(Sample::latency_ms)
            .collect()
    }

    fn end_to_end(&self) -> Report {
        let reads = self.open_read_latencies();
        let commits = self.commit_latencies();
        let attempted = self.attempted();
        let failed = self.failed();
        let deciles: Vec<String> = [10.0, 25.0, 40.0, 50.0, 60.0, 75.0, 90.0, 95.0, 99.0]
            .iter()
            .map(|&p| format!("p{p}={:.3}", percentile(&reads, p)))
            .collect();
        eprintln!(
            "[perfbench] open-loop reads: {} (p{:?} supported), windowed p99 {:.3} ms; \
             commits: {}, p50/p90 {:.3}/{:.3} ms",
            reads.len(),
            stats::supported_percentile(reads.len()),
            self.read_p99_ms(),
            commits.len(),
            median(&commits),
            percentile(&commits, 90.0)
        );
        eprintln!("[perfbench] read latency (ms): {}", deciles.join(" "));
        let open: Vec<&Sample> = self
            .samples
            .iter()
            .filter(|s| s.phase == Phase::Open)
            .collect();
        let lag: Vec<f64> = open
            .iter()
            .map(|s| s.sent.saturating_sub(s.due) as f64 / 1e6)
            .collect();
        let exchange: Vec<f64> = open
            .iter()
            .map(|s| s.done.saturating_sub(s.sent) as f64 / 1e6)
            .collect();
        eprintln!(
            "[perfbench] sender lag p50/p99 {:.3}/{:.3} ms; send-to-answer p50/p99 {:.3}/{:.3} ms",
            percentile(&lag, 50.0),
            percentile(&lag, 99.0),
            percentile(&exchange, 50.0),
            percentile(&exchange, 99.0)
        );
        // p99 and commit latency are reported by the traced run instead:
        // on a shared 2-core VM their run-to-run spread exceeds any bound
        // of at most 25% (see NOTES.md).
        Report {
            attempted,
            failed,
            metrics: vec![
                (
                    "p50_ms".into(),
                    stats::better_half_median(
                        &stats::window_percentiles(&reads, 50.0, WINDOWS, 100),
                        true,
                    ),
                    "ms",
                ),
                ("throughput_rps".into(), self.closed_throughput(), "1/s"),
                (
                    "success_rate".into(),
                    (attempted - failed.min(attempted)) as f64 / attempted as f64,
                    "ratio",
                ),
                ("peak_rss_mb".into(), self.peak_rss_mb, "MiB"),
            ],
        }
    }
}
