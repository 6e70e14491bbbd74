//! `GraphDelta::apply` (a per-row merge into the base CSR) against the
//! sort-based rebuild it replaced: `Graph::from_edges` over
//! `(base ∖ deletions) ∪ insertions`. Both adjacency sides and the
//! reverse-step descriptors must agree at every vertex.

use proptest::prelude::*;
use srs_graph::{Graph, GraphBuilder, GraphDelta, SelfLoopPolicy, VertexId};

/// The pre-merge `apply`: collect every surviving base edge, append the
/// insertions, and rebuild from scratch (self-loops dropped).
fn reference_apply(
    d: &GraphDelta,
    base: &Graph,
    ins: &[(VertexId, VertexId)],
    dels: &[(VertexId, VertexId)],
) -> Graph {
    let n = base.num_vertices().max(d.requested_vertices());
    let kept = base.edges().filter(|e| !dels.contains(e));
    Graph::from_edges(n, kept.chain(ins.iter().copied())).unwrap()
}

fn assert_same(got: &Graph, want: &Graph, ctx: &str) {
    assert_eq!(got.num_vertices(), want.num_vertices(), "{ctx}: n");
    assert_eq!(got.num_edges(), want.num_edges(), "{ctx}: m");
    for v in 0..want.num_vertices() {
        assert_eq!(got.out_neighbors(v), want.out_neighbors(v), "{ctx}: out-list of {v}");
        assert_eq!(got.in_neighbors(v), want.in_neighbors(v), "{ctx}: in-list of {v}");
        assert_eq!(got.reverse_step(v), want.reverse_step(v), "{ctx}: reverse_step of {v}");
    }
    assert_eq!(got, want, "{ctx}");
}

/// Builds the delta from raw picks and checks it against the reference.
/// `kind` selects how each pick becomes an edit: 0 insert, 1 delete an
/// existing base edge, 2 delete an arbitrary (often missing) edge, 3
/// insert and delete the same edge, 4 insert a self-loop, 5 repeat the
/// previous edit.
fn check(base: &Graph, grow: u32, picks: &[(u32, u32, u8)]) {
    let n = base.num_vertices().max(grow);
    let base_edges: Vec<(VertexId, VertexId)> = base.edges().collect();
    let mut d = GraphDelta::new();
    d.grow_to(grow);
    let (mut ins, mut dels) = (Vec::new(), Vec::new());
    let mut last: Option<(bool, VertexId, VertexId)> = None;
    for &(a, b, kind) in picks {
        let (u, v) = (a % n, b % n);
        let edit = match kind % 6 {
            0 => Some((true, u, v)),
            1 if !base_edges.is_empty() => {
                let (x, y) = base_edges[a as usize % base_edges.len()];
                Some((false, x, y))
            }
            1 | 2 => Some((false, u, v)),
            3 => {
                d.delete(u, v);
                dels.push((u, v));
                Some((true, u, v))
            }
            4 => Some((true, u, u)),
            _ => last,
        };
        if let Some((insert, x, y)) = edit {
            if insert {
                d.insert(x, y);
                ins.push((x, y));
            } else {
                d.delete(x, y);
                dels.push((x, y));
            }
        }
        last = edit;
    }
    let got = d.apply(base).unwrap();
    let want = reference_apply(&d, base, &ins, &dels);
    assert_same(&got, &want, &format!("n={} grow={grow} picks={picks:?}", base.num_vertices()));
}

/// A random base graph; `keep_loops` builds it under
/// [`SelfLoopPolicy::Keep`], so the base itself may carry self-loops.
fn random_base() -> impl Strategy<Value = Graph> {
    (1u32..40, proptest::collection::vec((any::<u32>(), any::<u32>()), 0..160), 0u32..2).prop_map(
        |(n, edges, keep_loops)| {
            let policy = if keep_loops == 1 { SelfLoopPolicy::Keep } else { SelfLoopPolicy::Drop };
            let mut b = GraphBuilder::new(n).self_loop_policy(policy);
            for (u, v) in edges {
                b.add_edge(u % n, v % n);
            }
            b.build().unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn row_merge_matches_sort_based_rebuild(
        base in random_base(),
        grow_by in 0u32..6,
        grows in 0u32..2,
        picks in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 0..40),
    ) {
        let grow = if grows == 1 { base.num_vertices() + grow_by } else { 0 };
        check(&base, grow, &picks);
    }
}

#[test]
fn keep_policy_self_loops_are_dropped_even_in_untouched_rows() {
    let mut b = GraphBuilder::new(4).self_loop_policy(SelfLoopPolicy::Keep);
    for (u, v) in [(0, 0), (0, 1), (2, 2), (3, 1)] {
        b.add_edge(u, v);
    }
    let base = b.build().unwrap();
    assert!(base.has_edge(2, 2));
    let mut d = GraphDelta::new();
    d.insert(3, 3); // inserted self-loop: dropped too
    let g = d.apply(&base).unwrap();
    assert!(!g.has_edge(0, 0) && !g.has_edge(2, 2) && !g.has_edge(3, 3));
    assert_eq!(g.num_edges(), 2);
    check(&base, 0, &[(3, 3, 4)]);
}

#[test]
fn growth_only_delta_appends_empty_rows() {
    let base = Graph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]).unwrap();
    check(&base, 7, &[]);
    // An edge into a grown vertex lands past the base's last row.
    check(&base, 7, &[(1, 6, 0), (6, 0, 0)]);
}

#[test]
fn empty_base_graph() {
    let base = Graph::from_edges(0, Vec::new()).unwrap();
    let mut d = GraphDelta::new();
    d.grow_to(3);
    d.insert(2, 0);
    let g = d.apply(&base).unwrap();
    assert_eq!(g.out_neighbors(2), &[0]);
    check(&base, 3, &[(2, 0, 0), (0, 1, 3)]);
}
