//! `BfsBuffers::run_to_targets` against the full `BfsBuffers::run`: every
//! target, and every vertex within `min_depth`, must read back the same
//! distance as after the full traversal, and the targeted traversal may
//! only ever visit a prefix of what the full one visits.

use proptest::prelude::*;
use srs_graph::bfs::{BfsBuffers, Direction, UNREACHED};
use srs_graph::gen::{self, fixtures};
use srs_graph::{Graph, VertexId};

/// Checks the `run_to_targets` contract for one traversal, running the
/// targeted BFS through the caller's (possibly reused) buffers. Returns
/// the number of vertices the targeted run visited.
fn check(
    g: &Graph,
    part: &mut BfsBuffers,
    s: VertexId,
    dir: Direction,
    max_depth: u32,
    min_depth: u32,
    targets: &[VertexId],
) -> usize {
    let mut full = BfsBuffers::new(g.num_vertices());
    full.run(g, s, dir, max_depth);
    part.run_to_targets(g, s, dir, max_depth, min_depth, targets);
    let ctx = format!("s={s} dir={dir:?} max={max_depth} min={min_depth} targets={targets:?}");
    for &t in targets {
        assert_eq!(part.distance(t), full.distance(t), "{ctx}: target {t}");
    }
    for &v in full.visited() {
        if full.distance(v) <= min_depth {
            assert_eq!(part.distance(v), full.distance(v), "{ctx}: ball vertex {v}");
        }
    }
    let seen = part.visited();
    assert!(seen.len() <= full.visited().len(), "{ctx}: visited more than the full run");
    assert_eq!(seen, &full.visited()[..seen.len()], "{ctx}: not a prefix of the full visit order");
    for &v in seen {
        assert_eq!(part.distance(v), full.distance(v), "{ctx}: visited vertex {v}");
    }
    // No wasted work: a run that reached every target stopped at the last
    // one (or at the end of level `min_depth`); any other run is the full
    // run.
    if targets.iter().all(|&t| part.distance(t) != UNREACHED) {
        let last = *seen.last().expect("the source is always visited");
        assert!(
            targets.contains(&last) || part.distance(last) <= min_depth,
            "{ctx}: kept going past the last target (stopped at {last})"
        );
    } else {
        assert_eq!(seen.len(), full.visited().len(), "{ctx}: stopped before an unreached target");
    }
    seen.len()
}

const DIRS: [Direction; 3] = [Direction::Undirected, Direction::In, Direction::Out];

/// A random graph from one of two families: Erdős–Rényi, or the
/// copying-web model (skewed degrees, many in-degree-0 vertices). Sizes
/// reach past the 64-vertex frontier the bottom-up expansion needs.
fn random_graph() -> impl Strategy<Value = Graph> {
    (0u32..2, 2u32..2500, 1u32..5, any::<u64>()).prop_map(|(family, n, deg, seed)| match family {
        0 => gen::erdos_renyi(n, n as u64 * deg as u64 / 2, seed),
        _ => gen::copying_web(n, deg, 0.8, seed),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn targeted_bfs_agrees_with_full_bfs(
        g in random_graph(),
        picks in proptest::collection::vec((any::<u32>(), 0usize..3, 0u32..13, 0u32..5), 1..6),
        target_seeds in proptest::collection::vec(any::<u32>(), 0..12),
    ) {
        let n = g.num_vertices();
        // One buffer set for every traversal of the case: stale target
        // marks from an earlier run must not leak into a later one.
        let mut part = BfsBuffers::new(n);
        for (s, dir, max_depth, min_depth) in picks {
            let targets: Vec<VertexId> = target_seeds.iter().map(|&t| t % n).collect();
            check(&g, &mut part, s % n, DIRS[dir], max_depth, min_depth, &targets);
        }
    }
}

#[test]
fn path_stops_at_the_target() {
    let g = fixtures::path(8);
    let mut b = BfsBuffers::new(8);
    assert_eq!(check(&g, &mut b, 0, Direction::Undirected, 11, 0, &[3]), 4);
    assert_eq!(b.visited(), &[0, 1, 2, 3]);
    assert_eq!(b.distance(4), UNREACHED, "never reached past the target");
    // Duplicates and out-of-order targets count once each.
    assert_eq!(check(&g, &mut b, 7, Direction::Undirected, 11, 0, &[5, 2, 5, 6]), 6);
}

#[test]
fn target_equal_to_source_visits_only_the_source() {
    let g = fixtures::path(5);
    let mut b = BfsBuffers::new(5);
    assert_eq!(check(&g, &mut b, 2, Direction::Undirected, 11, 0, &[2]), 1);
    assert_eq!(b.distance(2), 0);
    // No targets at all behaves the same.
    assert_eq!(check(&g, &mut b, 2, Direction::Undirected, 11, 0, &[]), 1);
}

#[test]
fn unreachable_target_runs_to_exhaustion() {
    // Components {0, 1, 2} and {3, 4}; vertex 5 isolated.
    let g = Graph::from_edges(6, vec![(0, 1), (1, 2), (3, 4)]).unwrap();
    let mut b = BfsBuffers::new(6);
    assert_eq!(check(&g, &mut b, 0, Direction::Undirected, 11, 0, &[4]), 3);
    assert_eq!(b.distance(4), UNREACHED);
    // A target beyond `max_depth` is unreachable too.
    let p = fixtures::path(10);
    let mut b = BfsBuffers::new(10);
    assert_eq!(check(&p, &mut b, 0, Direction::Out, 3, 0, &[7]), 4);
    assert_eq!(b.distance(7), UNREACHED);
    // The buffers carry no target marks into the next run.
    assert_eq!(check(&p, &mut b, 0, Direction::Out, 11, 0, &[]), 1);
}

#[test]
fn min_depth_completes_the_ball() {
    let g = fixtures::path(10);
    let mut b = BfsBuffers::new(10);
    // The target sits at distance 1, but levels up to 4 must complete.
    assert_eq!(check(&g, &mut b, 0, Direction::Undirected, 11, 4, &[1]), 5);
    assert_eq!(b.distance(4), 4);
    // `min_depth` beyond `max_depth` is clamped to it.
    assert_eq!(check(&g, &mut b, 0, Direction::Undirected, 2, 9, &[]), 3);
    // A ball with no targets at all still completes.
    assert_eq!(check(&g, &mut b, 5, Direction::Undirected, 11, 2, &[]), 5);
}

#[test]
fn bottom_up_levels_stop_mid_level() {
    // Large enough that the middle levels expand bottom-up; the targeted
    // run must stop well short of the full one.
    let g = gen::copying_web(3000, 4, 0.8, 5);
    let mut full = BfsBuffers::new(3000);
    full.run(&g, 1, Direction::Undirected, 11);
    let mut b = BfsBuffers::new(3000);
    // The first vertex of the most populous level: that level is expanded
    // bottom-up, and the run must stop right after the target.
    let mut sizes = [0usize; 12];
    for &v in full.visited() {
        sizes[full.distance(v) as usize] += 1;
    }
    let widest = (0..12).max_by_key(|&d| sizes[d]).unwrap() as u32;
    let first = *full.visited().iter().find(|&&v| full.distance(v) == widest).unwrap();
    let seen = check(&g, &mut b, 1, Direction::Undirected, 11, 0, &[first]);
    assert_eq!(b.visited().last(), Some(&first));
    assert!(seen < full.visited().len(), "{seen} vs {}", full.visited().len());
    // The last vertex the full run visits is reached only at the end.
    let last = *full.visited().last().unwrap();
    assert_eq!(check(&g, &mut b, 1, Direction::Undirected, 11, 0, &[last]), full.visited().len());
}
