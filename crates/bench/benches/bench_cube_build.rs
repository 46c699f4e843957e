//! Criterion bench: the dense two-pass cube builder.
//!
//! `cube_build/*` (in `bench_cube`) tracks end-to-end materialization
//! throughput across universe sizes; this bench isolates the profile
//! scan plus roll-up and slot assignment (`prepare`, single-threaded)
//! from the full build — the fill share, fanned out at the default worker
//! count, is the `full − prepare` difference — at two sizes:
//! a 432-rating universe, the mean of a `cold_single` perfbench title
//! (where the build must not pay for the schema's cell count), and the
//! canonical 16 000-rating one. It also benches the retained naive
//! builder at 16 000 for an honest same-day old-vs-new ratio, and times
//! the `filtered` personalization copy (which shares the rating universe
//! and cover blocks via `Arc`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use maprat_bench::{cube_options_geo4, cube_universe, dataset};
use maprat_cube::builder::CubePlan;
use maprat_cube::RatingCube;
use std::hint::black_box;

fn bench_cube_build(c: &mut Criterion) {
    let d = dataset();
    let mut group = c.benchmark_group("cube_build_phases");
    group.sample_size(10);
    for size in [432, 16_000] {
        let universe = cube_universe(d, size);
        let n = universe.len();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("prepare_geo4", n), &universe, |b, s| {
            b.iter(|| black_box(CubePlan::prepare(d, s.clone(), cube_options_geo4(), 1)))
        });
        group.bench_with_input(BenchmarkId::new("full_geo4", n), &universe, |b, s| {
            b.iter(|| black_box(RatingCube::build(d, s.clone(), cube_options_geo4())))
        });
    }
    let universe = cube_universe(d, 16_000);
    let n = universe.len();
    // The retained pre-dense builder, for an honest same-machine,
    // same-day old-vs-new ratio (wall clocks drift across runs; the
    // committed PR 1 table was taken under different load).
    group.bench_with_input(BenchmarkId::new("naive_geo4", n), &universe, |b, s| {
        b.iter(|| {
            black_box(maprat_cube::oracle::build_naive(
                d,
                s.clone(),
                cube_options_geo4(),
            ))
        })
    });
    group.finish();

    let cube = RatingCube::build(d, universe, cube_options_geo4());
    let mut group = c.benchmark_group("cube_filtered");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("arity_le2", cube.len()), |b| {
        b.iter(|| black_box(cube.filtered(|g| g.desc.arity() <= 2)))
    });
    group.finish();
}

criterion_group!(benches, bench_cube_build);
criterion_main!(benches);
