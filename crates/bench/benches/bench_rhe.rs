//! Criterion bench: RHE solve cost per task and candidate-pool size
//! (EXT-QUALITY / EXT-SCALING companion), plus one coverage target high
//! enough that the climbs spend most steps in the infeasible phase.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maprat_bench::dataset;
use maprat_core::{rhe, MiningProblem, RheParams, Task};
use maprat_cube::{CubeOptions, RatingCube};
use std::hint::black_box;

fn bench_rhe(c: &mut Criterion) {
    let d = dataset();
    let item = d.find_title("Toy Story").expect("planted");
    let idx: Vec<u32> = d.rating_range_for_item(item).collect();

    let mut group = c.benchmark_group("rhe_solve");
    group.sample_size(10);
    for (label, min_support, max_arity, alpha) in [
        ("pool_s", 40usize, 1usize, 0.15),
        ("pool_m", 10, 2, 0.15),
        ("pool_l", 5, 3, 0.15),
        ("pool_l_alpha40", 5, 3, 0.4),
    ] {
        let cube = RatingCube::build(
            d,
            idx.clone(),
            CubeOptions {
                min_support,
                require_geo: false,
                max_arity,
            },
        );
        let problem = MiningProblem::new(&cube, 3, alpha, 0.5);
        let params = RheParams::default();
        for task in Task::ALL {
            group.bench_with_input(
                BenchmarkId::new(format!("{task:?}"), format!("{label}_{}", cube.len())),
                &problem,
                |b, p| b.iter(|| black_box(rhe::solve(p, task, &params))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_rhe);
criterion_main!(benches);
