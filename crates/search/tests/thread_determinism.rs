//! The thread-determinism contract, pinned end to end: for every engine
//! thread count, a query's hits, counters, and full explain trace are
//! bit-identical to a single-threaded run. Each query draws from its own
//! seed streams, so neither batching nor worker scheduling may perturb
//! a decision.

use srs_graph::{gen, Graph, VertexId};
use srs_search::{Diagonal, QueryEngine, QueryOptions, SimRankParams, TopKIndex};

fn assert_thread_invariant(opts_base: QueryOptions, label: &str) {
    let params = SimRankParams { r_bounds: 2_000, ..Default::default() };
    let g = gen::copying_web(800, 5, 0.8, 51);
    let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 7, 2);
    assert_thread_invariant_on(&g, &idx, opts_base, label);
}

fn assert_thread_invariant_on(g: &Graph, idx: &TopKIndex, opts_base: QueryOptions, label: &str) {
    let mut queries: Vec<VertexId> = srs_graph::stats::sample_query_vertices(g, 24, 19);
    // An in-degree-0 vertex has no index candidates: its query takes the
    // early return (or, with the candidate ball, a ball-only scan).
    let orphan = (0..g.num_vertices()).find(|&v| g.in_degree(v) == 0).expect("an in-degree-0 vertex");
    queries.push(orphan);
    let opts = QueryOptions { explain: true, ..opts_base };
    let reference = QueryEngine::with_threads(g, idx, 1).query_batch(&queries, 10, &opts);
    assert!(reference.results.iter().any(|r| !r.hits.is_empty()), "{label}: degenerate fixture");
    let last = reference.results.last().unwrap();
    if opts.candidate_ball.is_none() {
        assert_eq!(last.stats.candidates, 0, "{label}: u={orphan} should have no candidates");
    }
    for threads in [1usize, 2, 8] {
        let batch = QueryEngine::with_threads(g, idx, threads).query_batch(&queries, 10, &opts);
        for (i, (a, b)) in reference.results.iter().zip(&batch.results).enumerate() {
            let ctx = format!("{label}: u={} threads={threads}", queries[i]);
            assert_eq!(a.hits, b.hits, "{ctx}: hits diverged");
            assert_eq!(a.stats, b.stats, "{ctx}: counters diverged");
            // The full trace — per-candidate fate, decision value, and the
            // threshold in force at decision time — must replay exactly.
            assert_eq!(a.explain, b.explain, "{ctx}: explain trace diverged");
            assert!(b.stats.fates_accounted(), "{ctx}: {:?}", b.stats);
        }
    }
}

#[test]
fn hits_and_fates_identical_across_threads() {
    assert_thread_invariant(QueryOptions::default(), "default");
}

#[test]
fn thread_invariant_holds_with_shared_source_walks() {
    assert_thread_invariant(
        QueryOptions { share_source_walks: true, ..Default::default() },
        "share_source_walks",
    );
}

#[test]
fn thread_invariant_holds_without_adaptive_sampling() {
    assert_thread_invariant(QueryOptions { adaptive: false, ..Default::default() }, "non-adaptive");
}

#[test]
fn thread_invariant_holds_with_candidate_ball() {
    assert_thread_invariant(QueryOptions { candidate_ball: Some(2), ..Default::default() }, "candidate_ball");
}

#[test]
fn thread_invariant_holds_without_kth_prune() {
    assert_thread_invariant(QueryOptions { kth_prune: false, ..Default::default() }, "kth_prune off");
}

#[test]
fn fast_tier_auto_fallback_keeps_thread_invariant() {
    // An Auto policy whose thresholds never fire routes every query back
    // to the MC pipeline; the routing check alone may not perturb the MC
    // streams (Auto-fallback == Off is pinned in the topk unit tests).
    let auto = QueryOptions {
        fast_tier: srs_search::FastTier::Auto,
        fast_tier_min_degree: u64::MAX,
        fast_tier_min_candidates: u64::MAX,
        ..Default::default()
    };
    assert_thread_invariant(auto, "fast-tier auto fallback");
}

#[test]
fn thread_invariant_holds_with_per_vertex_diagonal() {
    let g = gen::copying_web(300, 4, 0.8, 33);
    let params = SimRankParams { r_bounds: 1_000, ..Default::default() };
    let d = vec![1.0 - params.c; g.num_vertices() as usize];
    let diag = Diagonal::PerVertex(std::sync::Arc::new(d));
    let idx = TopKIndex::build_with(&g, &params, diag, 3, 2);
    assert_thread_invariant_on(&g, &idx, QueryOptions::default(), "per-vertex diagonal");
}
