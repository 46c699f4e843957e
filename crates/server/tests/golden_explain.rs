//! Golden pin of the solver's work and answers: a fixed set of explains
//! on one `SynthConfig::small` dataset, each with the exact `RheStats` of
//! its Similarity and Diversity solves and a digest of the explain body
//! the server answers with.
//!
//! The counters are deterministic (independent of the thread count and
//! the kernel tier), so any change to them — or to a body — is a change
//! to what the solver does. Such a change must update `EXPECTED` and say
//! so in CHANGES.md; on a mismatch the test prints the whole table in
//! this file's syntax.

use maprat_core::{rhe, Miner, MiningProblem, RheStats, Task};
use maprat_data::synth::{generate, SynthConfig};
use maprat_data::Dataset;
use maprat_explore::MapRatEngine;
use maprat_server::{api, AppState, Request};
use std::collections::HashMap;
use std::sync::Arc;

/// One explain: the title's rank by rating count (most rated first) and
/// the query parameters besides `q`.
struct Case {
    rank: usize,
    params: &'static [(&'static str, &'static str)],
}

const CASES: [Case; 9] = [
    Case {
        rank: 0,
        params: &[("coverage", "0.1")],
    },
    Case {
        rank: 1,
        params: &[("coverage", "0.2"), ("geo", "0")],
    },
    Case {
        rank: 3,
        params: &[("coverage", "0.05"), ("geo", "0")],
    },
    Case {
        rank: 5,
        params: &[("coverage", "0.45"), ("geo", "0"), ("arity", "3")],
    },
    Case {
        rank: 10,
        params: &[("coverage", "0.35")],
    },
    Case {
        rank: 30,
        params: &[("coverage", "0.5"), ("geo", "0"), ("k", "5")],
    },
    Case {
        rank: 60,
        params: &[("coverage", "0.5"), ("geo", "0"), ("k", "2")],
    },
    Case {
        rank: 120,
        params: &[("coverage", "0.3"), ("lambda", "1.0")],
    },
    Case {
        rank: 200,
        params: &[("coverage", "0.25"), ("geo", "0"), ("seed", "7")],
    },
];

/// Per case: SM `[restarts, iterations, evaluations]`, the same for DM,
/// and the FNV-1a digest of the response body.
type Pin = ([usize; 3], [usize; 3], u64);

const EXPECTED: [Pin; 9] = [
    ([8, 107, 50433], [8, 65, 42436], 0x7bac928c3a83584f),
    ([8, 90, 70237], [8, 56, 58254], 0xcf40e9915cb7a3cb),
    ([8, 42, 51186], [8, 34, 42394], 0x232a0edb07ef764c),
    ([8, 163, 67744], [8, 79, 58096], 0xaddb16d722c447fc),
    ([8, 208, 21602], [8, 170, 22304], 0x4f70817b1e5c788d),
    ([8, 162, 51294], [8, 133, 90662], 0x517af0dcb10c4ffe),
    ([8, 95, 8535], [8, 43, 2466], 0x57f302aa7ec57936),
    ([8, 70, 1473], [8, 70, 1702], 0xd181ba84615f1a00),
    ([8, 53, 6382], [8, 38, 4702], 0x0bed0f8033e81181),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn explain_get(title: &str, params: &[(&str, &str)]) -> Request {
    let mut query: HashMap<String, String> = params
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    query.insert("q".into(), title.into());
    query.insert("approx".into(), "off".into());
    Request {
        method: "GET".into(),
        path: "/api/v1/explain".into(),
        query,
        headers: HashMap::new(),
        body: Vec::new(),
        keep_alive: false,
    }
}

fn titles_by_popularity(dataset: &Dataset) -> Vec<String> {
    let mut items: Vec<_> = dataset.items().iter().collect();
    items.sort_by_key(|item| std::cmp::Reverse(dataset.ratings_for_item(item.id).len()));
    items.into_iter().map(|item| item.title.clone()).collect()
}

fn stats(s: &RheStats) -> [usize; 3] {
    [s.restarts, s.iterations, s.evaluations]
}

#[test]
fn explains_keep_their_work_counters_and_bodies() {
    let dataset = Arc::new(generate(&SynthConfig::small(2013)).unwrap());
    let titles = titles_by_popularity(&dataset);
    let handler = AppState::new(MapRatEngine::new(Arc::clone(&dataset))).into_handler();
    let miner = Miner::new(&dataset);

    let mut actual = Vec::new();
    for case in &CASES {
        let req = explain_get(&titles[case.rank], case.params);
        let response = handler(&req);
        assert_eq!(response.status, 200, "rank {}: {:?}", case.rank, response);

        let request = api::explain_request(&req).unwrap();
        let s = &request.settings;
        let (_, cube) = miner.build_cube(&request.query, s).unwrap();
        let problem = MiningProblem::new(&cube, s.max_groups, s.min_coverage, s.dm_lambda);
        let [sm, dm] = Task::ALL.map(|task| {
            let (_, st) = rhe::solve_with_stats(&problem, task, &s.rhe).unwrap();
            stats(&st)
        });
        actual.push((sm, dm, fnv1a(&response.body)));
    }

    let table: String = actual
        .iter()
        .map(|(sm, dm, digest)| format!("    ({sm:?}, {dm:?}, {digest:#018x}),\n"))
        .collect();
    assert_eq!(
        actual, EXPECTED,
        "work counters or bodies changed; if intended, set EXPECTED to\n{table}"
    );
}
