//! Incremental index maintenance for mutating graphs.
//!
//! The preprocess (Algorithms 3 + 4) is *per-vertex independent*: γ rows
//! and candidate signatures of vertex `u` depend only on walks from `u`.
//! When a graph mutates — edges inserted or deleted, vertices appended —
//! the index can therefore be repaired by re-running the preprocess for
//! the affected vertices only, instead of rebuilding from scratch.
//!
//! Caveat, stated honestly: an edge edit perturbs the walk distributions
//! of every vertex whose reverse walks can *reach* a changed vertex, not
//! just the changed vertices themselves. [`extend_delta`] therefore takes
//! a `staleness_depth`: the dirty set (vertices whose in-neighbour list
//! changed, plus all appended vertices) is dilated `staleness_depth` steps
//! along reverse-walk reachability — a frontier BFS over the dirty set's
//! out-edges (`O(edges touched)`), not a full scan per step — before
//! recomputation.
//!
//! * `staleness_depth = T − 1` recomputes everything a fresh build would
//!   compute differently — the extended index is **bit-identical** to a
//!   full rebuild (tested, including mixed insert/delete batches), at a
//!   cost that approaches a rebuild on small-world graphs.
//! * `staleness_depth = 0` recomputes only the directly-changed vertices —
//!   cheap, and the reused rows carry a bias bounded by how much the
//!   downstream walk distributions moved (the artifacts are Monte-Carlo
//!   estimates to begin with). Query quality degrades gracefully; the
//!   [`ExtendStats`] counters tell callers when a periodic full rebuild
//!   is due.
//!
//! Recomputation runs over the dirty set on the same work-stealing build
//! path as a full build, with the thread count an explicit parameter like
//! every other build entry point. Determinism is thread-count-independent:
//! per-vertex artifacts are keyed by per-`(seed, vertex)` RNG streams, so
//! `threads = 1` and `threads = 8` produce the same bytes (tested).

use crate::bounds::GammaTable;
use crate::index::CandidateIndex;
use crate::obs::BuildObs;
use crate::topk::TopKIndex;
use srs_graph::csr::splice_rows;
use srs_graph::hash::mix_seed;
use srs_graph::{dilate_dirty, Graph, VertexId};

/// Outcome counters of an incremental extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtendStats {
    /// Vertices appended since the index was built.
    pub appended: u32,
    /// Old vertices recomputed (directly changed or within the staleness
    /// dilation of a change).
    pub dirty: u32,
    /// Vertices whose preprocess artifacts were reused untouched.
    pub reused: u32,
}

/// The recomputed rows of one extension, packed in ascending vertex
/// order: exactly what a delta bundle persists, and what the index splice
/// writes over the base index's rows.
#[derive(Debug, Clone, PartialEq)]
pub struct DirtyRows {
    /// Recomputed vertices of the *new* graph — dirty old vertices plus
    /// every appended one — strictly ascending.
    pub ids: Vec<VertexId>,
    /// Their γ rows, packed: row `i` is `gamma[i·T..(i+1)·T]`.
    pub gamma: Vec<f32>,
    /// Their signature rows as a packed CSR: row `i` is
    /// `sig_entries[sig_offsets[i]..sig_offsets[i+1]]` (`ids.len() + 1`
    /// offsets).
    pub sig_offsets: Vec<u64>,
    /// Concatenated sorted signature rows (see `sig_offsets`).
    pub sig_entries: Vec<VertexId>,
}

/// Full result of [`extend_delta`]: the repaired index plus the packed
/// rows that were recomputed for it.
#[derive(Debug)]
pub struct ExtendOutcome {
    /// The extended index (covers the new graph).
    pub index: TopKIndex,
    /// Recompute/reuse counters.
    pub stats: ExtendStats,
    /// The recomputed rows, in the form a delta snapshot persists.
    pub rows: DirtyRows,
}

/// Errors from incremental extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtendError {
    /// The new graph has fewer vertices than the index covers — ids are
    /// append-only in this model.
    Shrunk {
        /// Vertices covered by the index.
        index_n: u32,
        /// Vertices in the supplied graph.
        graph_n: u32,
    },
}

impl std::fmt::Display for ExtendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtendError::Shrunk { index_n, graph_n } => write!(
                f,
                "graph shrank: index covers {index_n} vertices, graph has {graph_n} (extension is append-only)"
            ),
        }
    }
}

impl std::error::Error for ExtendError {}

/// Extends `index` (built on `old`) to cover `new`, where `new` differs
/// from `old` by any batch of edge insertions **and deletions** plus
/// append-only vertex growth (see [`srs_graph::GraphDelta`]). Recomputes
/// the preprocess for the dirty set dilated `staleness_depth` reverse-walk
/// steps (see the module docs for choosing the depth) on `threads` worker
/// threads; reuses everything else.
pub fn extend_delta(
    index: &TopKIndex,
    old: &Graph,
    new: &Graph,
    staleness_depth: u32,
    threads: usize,
) -> Result<ExtendOutcome, ExtendError> {
    let old_n = old.num_vertices();
    let new_n = new.num_vertices();
    if new_n < old_n {
        return Err(ExtendError::Shrunk { index_n: old_n, graph_n: new_n });
    }
    // Seed dirty set: appended vertices + old vertices whose in-list
    // changed (catches insertions and deletions alike — both rewrite the
    // target's in-neighbour slice).
    let mut dirty = vec![false; new_n as usize];
    for v in 0..old_n {
        if old.in_neighbors(v) != new.in_neighbors(v) {
            dirty[v as usize] = true;
        }
    }
    for v in old_n..new_n {
        dirty[v as usize] = true;
    }
    // Dilate: a vertex is stale if any of its in-neighbours is stale — one
    // dilation per reverse-walk step that can observe the change.
    dilate_dirty(new, &mut dirty, staleness_depth);
    let ids: Vec<VertexId> = (0..new_n).filter(|&v| dirty[v as usize]).collect();
    let dirty_count = ids.len() as u32 - (new_n - old_n);

    // Recompute exactly the dirty rows, packed. A fresh full build over
    // `new` draws per-vertex artifacts from the same (seed, vertex)
    // streams, so these rows are what a full rebuild would store.
    let params = index.params();
    let gamma = GammaTable::rows_for(new, params, &index.diag, mix_seed(&[index.seed, 1]), threads, &ids);
    let (sig_offsets, sig_entries) = CandidateIndex::signatures_for(
        new,
        params,
        mix_seed(&[index.seed, 2]),
        threads,
        &ids,
        &BuildObs::default(),
    );
    let rows = DirtyRows { ids, gamma, sig_offsets, sig_entries };
    let stats = ExtendStats { appended: new_n - old_n, dirty: dirty_count, reused: old_n - dirty_count };
    let index = splice_index(index, new_n, &rows.ids, &rows.gamma, &rows.sig_offsets, &rows.sig_entries);
    Ok(ExtendOutcome { index, stats, rows })
}

/// Builds the index over `new_n` vertices that keeps every row of `base`
/// except the recomputed rows of `ids` — packed γ rows `gamma_rows` and
/// packed signature CSR `sig_offsets`/`sig_entries`, in `ids` order —
/// which replace (or, past the base's vertex count, append) theirs.
/// The one splice behind both [`extend_delta`] and chain replay
/// (`splice_delta`), so a replayed chain is bit-identical to the
/// extension that wrote it.
///
/// Clean γ runs are copied with one slice copy each. Both candidate
/// sides go through [`srs_graph::csr::splice_rows`]: each dirty vertex
/// `v` deletes `(v, old signature)` and inserts `(v, new signature)` on
/// the forward side, and the flipped pairs on the inverted side, so
/// neither side is re-derived from scratch.
///
/// The caller guarantees the shape: `ids` strictly ascending below
/// `new_n` and covering every vertex at or past the base's count, one γ
/// row of the base's step count per id, and sorted signature rows below
/// `new_n`.
pub(crate) fn splice_index(
    base: &TopKIndex,
    new_n: u32,
    ids: &[VertexId],
    gamma_rows: &[f32],
    sig_offsets: &[u64],
    sig_entries: &[VertexId],
) -> TopKIndex {
    let t = base.gamma.steps() as usize;
    let old_gamma = base.gamma.raw();
    let mut gamma: Vec<f32> = Vec::with_capacity(new_n as usize * t);
    // Base rows `lo..hi`; empty past the base (appended rows are all dirty).
    let clean = |lo: usize, hi: usize| old_gamma.get(lo * t..hi * t).unwrap_or(&[]);
    let mut next = 0usize; // first row not yet written
    for (&v, row) in ids.iter().zip(gamma_rows.chunks_exact(t)) {
        gamma.extend_from_slice(clean(next, v as usize));
        gamma.extend_from_slice(row);
        next = v as usize + 1;
    }
    gamma.extend_from_slice(clean(next, new_n as usize));

    let cands = &base.candidates;
    let old_n = cands.num_vertices();
    let mut dropped: Vec<(VertexId, VertexId)> = Vec::new();
    let mut added: Vec<(VertexId, VertexId)> = Vec::new();
    for (i, &v) in ids.iter().enumerate() {
        if v < old_n {
            dropped.extend(cands.signatures(v).iter().map(|&w| (v, w)));
        }
        let sigs = &sig_entries[sig_offsets[i] as usize..sig_offsets[i + 1] as usize];
        added.extend(sigs.iter().map(|&w| (v, w)));
    }
    let flipped = |pairs: &[(VertexId, VertexId)]| {
        let mut f: Vec<(VertexId, VertexId)> = pairs.iter().map(|&(v, w)| (w, v)).collect();
        f.sort_unstable();
        f
    };
    let (_, off, ent) = cands.raw_parts();
    let (offsets, entries) = splice_rows(off, ent, new_n as usize, &dropped, &added);
    let (inv_off, inv_ent) = cands.inv_raw_parts();
    let (inv_offsets, inv_entries) =
        splice_rows(inv_off, inv_ent, new_n as usize, &flipped(&dropped), &flipped(&added));
    TopKIndex {
        params: base.params.clone(),
        diag: base.diag.clone(),
        gamma: GammaTable::from_raw(t as u32, gamma),
        candidates: CandidateIndex::from_parts_with_inverted(
            new_n,
            offsets,
            entries,
            inv_offsets,
            inv_entries,
        ),
        seed: base.seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Diagonal, SimRankParams};
    use srs_graph::{GraphBuilder, GraphDelta};

    fn build_graph(n: u32, extra: &[(u32, u32)]) -> Graph {
        let mut b = GraphBuilder::new(n);
        // Deterministic base web-ish pattern.
        for u in 1..n.min(200) {
            b.add_edge(u, u / 2);
            if u % 3 == 0 {
                b.add_edge(u, u / 3);
            }
        }
        for &(u, v) in extra {
            b.add_edge(u, v);
        }
        b.build().unwrap()
    }

    fn params() -> SimRankParams {
        SimRankParams { r_gamma: 40, r_bounds: 100, ..Default::default() }
    }

    #[test]
    fn extension_equals_full_rebuild() {
        let old = build_graph(120, &[]);
        let new = build_graph(150, &[(130, 7), (149, 7), (140, 66)]);
        let p = params();
        let idx_old = TopKIndex::build_with(&old, &p, Diagonal::paper_default(p.c), 9, 2);
        // Full-fidelity extension: dilate staleness the whole walk horizon.
        let out = extend_delta(&idx_old, &old, &new, p.t - 1, 2).unwrap();
        let rebuilt = TopKIndex::build_with(&new, &p, Diagonal::paper_default(p.c), 9, 2);
        assert_eq!(out.index.gamma, rebuilt.gamma);
        assert_eq!(out.index.candidates, rebuilt.candidates);
        assert_eq!(out.stats.appended, 30);
        // Queries agree completely.
        for u in [3u32, 66, 130, 149] {
            assert_eq!(
                out.index.query(&new, u, 5, &Default::default()).hits,
                rebuilt.query(&new, u, 5, &Default::default()).hits,
                "u={u}"
            );
        }
    }

    #[test]
    fn mixed_insert_delete_equals_full_rebuild() {
        // The acceptance pin: a delta with insertions AND deletions plus
        // growth, extended at depth T − 1, must be bit-identical to a
        // rebuild of the mutated graph.
        let old = build_graph(120, &[(70, 5), (80, 5)]);
        let mut d = GraphDelta::new();
        d.grow_to(135);
        d.insert(130, 7);
        d.insert(134, 60);
        d.delete(70, 5); // shrinks δ(5)
        d.delete(9, 3); // part of the base pattern (9 → 9/3)
        let new = d.apply(&old).unwrap();
        assert!(!new.has_edge(70, 5) && new.has_edge(130, 7));
        let p = params();
        let idx_old = TopKIndex::build_with(&old, &p, Diagonal::paper_default(p.c), 9, 2);
        let out = extend_delta(&idx_old, &old, &new, p.t - 1, 2).unwrap();
        let rebuilt = TopKIndex::build_with(&new, &p, Diagonal::paper_default(p.c), 9, 2);
        assert_eq!(out.index.gamma, rebuilt.gamma);
        assert_eq!(out.index.candidates, rebuilt.candidates);
        assert_eq!(out.stats.appended, 15);
        assert!(out.stats.dirty > 0, "deletions must dirty the targets");
        // The packed rows are exactly the recomputed ones.
        assert_eq!(out.rows.ids.len() as u32, out.stats.dirty + out.stats.appended);
        for u in [3u32, 5, 70, 130, 134] {
            assert_eq!(
                out.index.query(&new, u, 5, &Default::default()).hits,
                rebuilt.query(&new, u, 5, &Default::default()).hits,
                "u={u}"
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_bytes() {
        // The determinism contract: per-(seed, vertex) streams make the
        // recompute independent of worker count.
        let old = build_graph(140, &[]);
        let mut d = GraphDelta::new();
        d.insert(120, 11);
        d.delete(12, 6);
        let new = d.apply(&old).unwrap();
        let p = params();
        let idx_old = TopKIndex::build_with(&old, &p, Diagonal::paper_default(p.c), 5, 3);
        let a = extend_delta(&idx_old, &old, &new, 2, 1).unwrap();
        let b = extend_delta(&idx_old, &old, &new, 2, 4).unwrap();
        assert_eq!(a.index.gamma, b.index.gamma);
        assert_eq!(a.index.candidates, b.index.candidates);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn pure_append_without_new_inlinks_reuses_everything_old() {
        let old = build_graph(100, &[]);
        // New vertices only link *among themselves*: no old vertex dirty.
        let new = build_graph(110, &[(105, 101), (106, 101), (107, 102)]);
        let p = params();
        let idx_old = TopKIndex::build_with(&old, &p, Diagonal::paper_default(p.c), 4, 2);
        let stats = extend_delta(&idx_old, &old, &new, 0, 2).unwrap().stats;
        assert_eq!(stats.appended, 10);
        // build_graph wires 100..110 to u/2, u/3 ∈ old — those targets gain
        // in-links, so some old vertices are dirty; at depth 0 the clean
        // rows dominate.
        assert!(stats.reused >= 85, "{stats:?}");
    }

    #[test]
    fn shrink_is_rejected() {
        let old = build_graph(50, &[]);
        let new = build_graph(40, &[]);
        let p = params();
        let idx = TopKIndex::build_with(&old, &p, Diagonal::paper_default(p.c), 1, 1);
        assert_eq!(
            extend_delta(&idx, &old, &new, 3, 1).unwrap_err(),
            ExtendError::Shrunk { index_n: 50, graph_n: 40 }
        );
    }

    #[test]
    fn identity_extension_is_noop() {
        let g = build_graph(80, &[]);
        let p = params();
        let idx = TopKIndex::build_with(&g, &p, Diagonal::paper_default(p.c), 2, 2);
        let same = extend_delta(&idx, &g, &g, p.t, 2).unwrap();
        assert_eq!(same.stats, ExtendStats { appended: 0, dirty: 0, reused: 80 });
        assert_eq!(same.index.gamma, idx.gamma);
        assert_eq!(same.index.candidates, idx.candidates);
    }

    /// A batch shaped like the serving benchmark's: 10 insertions of
    /// random pairs and 10 deletions of distinct existing edges, plus
    /// growth by 5 vertices wired into and out of the old graph.
    fn shaped_batch(g: &Graph, seed: u64) -> GraphDelta {
        let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
        let n = g.num_vertices();
        let mut rng = srs_mc::Pcg32::from_parts(&[seed, 0xED17]);
        let mut d = GraphDelta::new();
        for _ in 0..10 {
            let u = rng.gen_range(n);
            d.insert(u, (u + 1 + rng.gen_range(n - 1)) % n);
        }
        let mut deleted = std::collections::HashSet::new();
        while deleted.len() < 10 {
            let e = edges[rng.next_u64() as usize % edges.len()];
            if deleted.insert(e) {
                d.delete(e.0, e.1);
            }
        }
        d.grow_to(n + 5);
        d.insert(n, 7);
        d.insert(n + 1, n);
        d.insert(3, n + 2);
        d
    }

    #[test]
    fn shaped_batch_at_full_depth_is_bit_identical_to_rebuild() {
        let old = srs_graph::gen::copying_web(2000, 4, 0.8, 17);
        let new = shaped_batch(&old, 3).apply(&old).unwrap();
        let p = SimRankParams::default();
        let idx_old = TopKIndex::build_with(&old, &p, Diagonal::paper_default(p.c), 21, 2);
        let rebuilt = TopKIndex::build_with(&new, &p, Diagonal::paper_default(p.c), 21, 2);
        let probes: Vec<VertexId> = (0..new.num_vertices()).step_by(97).chain(2000..2005).collect();
        let mut first: Option<DirtyRows> = None;
        for threads in [1, 2] {
            let out = extend_delta(&idx_old, &old, &new, p.t - 1, threads).unwrap();
            assert_eq!(out.index.gamma, rebuilt.gamma, "threads={threads}");
            assert_eq!(out.index.candidates, rebuilt.candidates, "threads={threads}");
            assert_eq!(out.stats.appended, 5);
            assert!(out.stats.dirty > 0 && out.stats.reused > 0, "{:?}", out.stats);
            for &u in &probes {
                assert_eq!(
                    out.index.query(&new, u, 10, &Default::default()).hits,
                    rebuilt.query(&new, u, 10, &Default::default()).hits,
                    "threads={threads} u={u}"
                );
            }
            // The spliced inverted map equals one derived from scratch.
            let (n, off, ent) = out.index.candidates.raw_parts();
            assert_eq!(out.index.candidates, CandidateIndex::from_raw_parts(n, off.to_vec(), ent.to_vec()));
            match &first {
                None => first = Some(out.rows),
                Some(rows) => assert_eq!(rows, &out.rows, "packed rows differ across thread counts"),
            }
        }
    }

    #[test]
    fn replaying_the_shaped_bundle_equals_build_delta() {
        let g = srs_graph::gen::copying_web(2000, 4, 0.8, 5);
        let p = SimRankParams::default();
        let idx = TopKIndex::build_with(&g, &p, Diagonal::paper_default(p.c), 8, 2);
        let base = crate::snapshot::Dataset::new(g, idx).unwrap();
        let batch = shaped_batch(base.graph(), 9);
        let built = crate::chain::build_delta(&base, &batch, p.t - 1, 2, 0x5EED).unwrap();
        let r = srs_graph::container::BundleReader::open(built.bytes.clone()).unwrap();
        let (spliced, header) = crate::chain::splice_delta(&base, &r).unwrap();
        assert_eq!(header.dirty, built.stats.dirty + built.stats.appended);
        assert_eq!(*spliced.graph(), *built.dataset.graph());
        assert_eq!(spliced.index().gamma, built.dataset.index().gamma);
        assert_eq!(spliced.index().candidates, built.dataset.index().candidates);
    }

    #[test]
    fn splice_index_matches_reinverting_the_forward_rows() {
        // Arbitrary replacement rows (not walk output): the splice must
        // equal the index assembled naively from the same forward rows,
        // whatever the rows say — including rows that drop every
        // signature, rows for appended vertices, and no rows at all.
        let g = srs_graph::gen::copying_web(300, 4, 0.8, 2);
        let p = params();
        let base = TopKIndex::build_with(&g, &p, Diagonal::paper_default(p.c), 6, 2);
        let t = p.t as usize;
        let mut rng = srs_mc::Pcg32::from_parts(&[0x5711CE]);
        for case in 0..40u32 {
            let new_n = 300 + case % 7;
            let ids: Vec<VertexId> =
                (0..new_n).filter(|&v| v >= 300 || rng.gen_range(10) < case % 5).collect();
            let (mut gamma, mut sig_off, mut sig_ent) = (Vec::new(), vec![0u64], Vec::new());
            for _ in &ids {
                gamma.extend((0..t).map(|_| rng.gen_f64() as f32));
                let mut row: Vec<VertexId> = (0..rng.gen_range(6)).map(|_| rng.gen_range(new_n)).collect();
                row.sort_unstable();
                row.dedup();
                sig_ent.extend_from_slice(&row);
                sig_off.push(sig_ent.len() as u64);
            }
            let spliced = splice_index(&base, new_n, &ids, &gamma, &sig_off, &sig_ent);

            let (mut want_gamma, mut off, mut ent) = (Vec::new(), vec![0u64], Vec::new());
            for v in 0..new_n {
                match ids.binary_search(&v) {
                    Ok(i) => {
                        want_gamma.extend_from_slice(&gamma[i * t..(i + 1) * t]);
                        ent.extend_from_slice(&sig_ent[sig_off[i] as usize..sig_off[i + 1] as usize]);
                    }
                    Err(_) => {
                        want_gamma.extend_from_slice(base.gamma.row(v));
                        ent.extend_from_slice(base.candidates.signatures(v));
                    }
                }
                off.push(ent.len() as u64);
            }
            assert_eq!(spliced.gamma, GammaTable::from_raw(p.t, want_gamma), "case {case}");
            assert_eq!(spliced.candidates, CandidateIndex::from_raw_parts(new_n, off, ent), "case {case}");
        }
    }
}
