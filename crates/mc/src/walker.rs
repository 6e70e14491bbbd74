//! Reverse random-walk engine — the batched, cache-conscious kernel
//! every Monte-Carlo stage of the paper bottoms out in.
//!
//! All of the paper's Monte-Carlo algorithms simulate walks that start at a
//! vertex and repeatedly jump to a **uniformly random in-neighbour**
//! (equation (12): `Pᵗ e_u = E[e_{u(t)}]`). This module provides:
//!
//! * [`WalkEngine::step_frontier`] / [`WalkEngine::step_frontier_count`] —
//!   advance a compacted **live frontier** one step (dead walks leave the
//!   loop once instead of being re-branched every later step), optionally
//!   fused with the per-step multiset counting of Algorithms 1–3;
//! * [`WalkEngine::step_all`] — advance a fixed slice of positions in
//!   place (dead entries stay [`DEAD`]; used where slot identity matters,
//!   e.g. the auxiliary walks of Algorithm 4);
//! * [`WalkEngine::walk`] / [`WalkEngine::walk_fill`] — record a full
//!   trajectory (used by the candidate index construction, Algorithm 4);
//! * [`WalkMatrix`] — `R × (T+1)` recorded trajectories from one source.
//!
//! # Fast paths and the RNG stream
//!
//! Every step resolves through the graph's one-word reverse-step
//! descriptor ([`srs_graph::ReverseStep`]): in-degree 0 kills the walk
//! with no CSR touch, in-degree 1 follows the unique in-neighbour with
//! **no RNG draw**, and only in-degree ≥ 2 draws and gathers from the
//! in-CSR. Because degree-0/1 steps consume no randomness, the RNG stream
//! differs from a naive `gen_range(len)`-per-step kernel: per-seed results
//! changed once when this kernel landed, but all determinism guarantees
//! (same seed → same result, thread-count invariance) are unaffected.
//!
//! The batched entry points additionally software-prefetch the descriptor
//! `PREFETCH_DIST` positions ahead and pipeline the in-CSR gathers of
//! branch steps through a small ring (`GATHER_LANES` pending loads), so
//! the dependent random loads that dominate on large CSRs overlap instead
//! of serializing.
//!
//! A walk that reaches a vertex with no in-links **dies**: its position
//! becomes [`DEAD`] (in-place APIs) or is compacted out (frontier APIs).
//! Dead walks are how the substochastic rows of `P` are realized — they
//! simply stop contributing to any count.

use crate::multiset::PositionCounter;
use crate::obs;
use crate::rng::Pcg32;
use srs_graph::{Graph, ReverseStep, VertexId};

/// Sentinel position of a dead walk (vertex with no in-links was reached).
pub const DEAD: VertexId = VertexId::MAX;

/// How many positions ahead the batched kernels prefetch the reverse-step
/// descriptor. Large enough to cover an L2 miss at typical step
/// throughput, small enough to stay inside any frontier worth batching.
pub const PREFETCH_DIST: usize = 16;

/// Depth of the gather ring: how many in-CSR loads (branch steps) are kept
/// in flight before the oldest is consumed.
const GATHER_LANES: usize = 8;

/// A pending branch-step gather: the frontier slot awaiting its value and
/// the in-sources index it will be read from.
#[derive(Clone, Copy)]
struct PendingGather {
    slot: usize,
    src: u64,
}

/// Batched reverse random-walk stepping over one graph.
#[derive(Debug, Clone, Copy)]
pub struct WalkEngine<'g> {
    g: &'g Graph,
}

impl<'g> WalkEngine<'g> {
    /// Creates an engine over `g`.
    pub fn new(g: &'g Graph) -> Self {
        WalkEngine { g }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Advances a single position one reverse step (or kills it).
    ///
    /// Not included in the [`crate::obs`] walk-step counters — this is the
    /// scalar primitive for caller-managed loops, and a TLS flush per step
    /// would dominate its cost. The batched kernels all count.
    #[inline]
    pub fn step_one(&self, pos: VertexId, rng: &mut Pcg32) -> VertexId {
        if pos == DEAD {
            return DEAD;
        }
        match self.g.reverse_step(pos) {
            ReverseStep::Dead => DEAD,
            ReverseStep::Unique(w) => w,
            ReverseStep::Branch { offset, len } => self.g.in_source_at(offset + rng.gen_range(len) as u64),
        }
    }

    /// [`WalkEngine::step_one`] with class accounting into a caller-held
    /// `[dead, unique, branch]` register array (flushed to the
    /// thread-local counters once per kernel call, never per step).
    #[inline]
    fn step_one_counted(&self, pos: VertexId, rng: &mut Pcg32, counts: &mut [u64; 3]) -> VertexId {
        if pos == DEAD {
            return DEAD;
        }
        match self.g.reverse_step(pos) {
            ReverseStep::Dead => {
                counts[0] += 1;
                DEAD
            }
            ReverseStep::Unique(w) => {
                counts[1] += 1;
                w
            }
            ReverseStep::Branch { offset, len } => {
                counts[2] += 1;
                self.g.in_source_at(offset + rng.gen_range(len) as u64)
            }
        }
    }

    /// Advances every position in `positions` one reverse step in place.
    /// Dead walks keep their slot (as [`DEAD`]) — use this where slot
    /// identity matters (e.g. the Algorithm 4 auxiliary walks); prefer
    /// [`WalkEngine::step_frontier`] for position-multiset workloads.
    ///
    /// No prefetch lookahead here on purpose: fixed-slot batches decay to
    /// mostly-[`DEAD`] slots, where a per-slot lookahead costs more than
    /// the hidden latency is worth. The frontier kernel, whose slots are
    /// all live, is where the prefetch pipeline pays.
    pub fn step_all(&self, positions: &mut [VertexId], rng: &mut Pcg32) {
        let mut counts = [0u64; 3];
        for p in positions {
            *p = self.step_one_counted(*p, rng, &mut counts);
        }
        obs::record(counts);
    }

    /// Advances a compacted live frontier one reverse step: every position
    /// is stepped, dying walks are removed (stably — survivors keep their
    /// relative order), and `positions` shrinks to the new live set.
    ///
    /// RNG draws happen in frontier order, for branch (in-degree ≥ 2)
    /// steps only, so the stream is deterministic and independent of how
    /// many walks have died.
    pub fn step_frontier(&self, positions: &mut Vec<VertexId>, rng: &mut Pcg32) {
        self.step_frontier_impl(positions, rng, |_| {});
    }

    /// [`WalkEngine::step_frontier`] fused with per-step counting: `counter`
    /// is cleared and filled with the multiset of the *new* positions, in
    /// the same pass over the frontier that computes them. This is the
    /// kernel behind the `α(w)β(w)` tables of Algorithms 1–3.
    pub fn step_frontier_count(
        &self,
        positions: &mut Vec<VertexId>,
        rng: &mut Pcg32,
        counter: &mut PositionCounter,
    ) {
        counter.clear();
        self.step_frontier_impl(positions, rng, |v| counter.add(v));
    }

    /// The shared frontier kernel: descriptor prefetch at
    /// [`PREFETCH_DIST`], stable in-place compaction, and branch-step
    /// gathers pipelined through a [`GATHER_LANES`]-deep ring so the
    /// random in-CSR loads overlap. `observe` sees every surviving
    /// position exactly once (in unspecified order).
    #[inline]
    fn step_frontier_impl(
        &self,
        positions: &mut Vec<VertexId>,
        rng: &mut Pcg32,
        mut observe: impl FnMut(VertexId),
    ) {
        let n = positions.len();
        let mut ring = [PendingGather { slot: 0, src: 0 }; GATHER_LANES];
        let mut ring_head = 0usize; // oldest pending entry
        let mut ring_len = 0usize;
        let mut write = 0usize;
        // Walk-step class accounting: branch steps are counted in their
        // arm; deaths fall out as `n - write` and unique as the remainder,
        // so the hot loop carries a single extra register increment.
        let mut branches = 0u64;
        for read in 0..n {
            if let Some(&ahead) = positions.get(read + PREFETCH_DIST) {
                self.g.prefetch_reverse_step(ahead);
            }
            let pos = positions[read];
            match self.g.reverse_step(pos) {
                ReverseStep::Dead => {}
                ReverseStep::Unique(w) => {
                    // Pending gathers all target slots below `write`, and
                    // `write <= read`, so this store cannot clobber them.
                    positions[write] = w;
                    observe(w);
                    write += 1;
                }
                ReverseStep::Branch { offset, len } => {
                    branches += 1;
                    let src = offset + rng.gen_range(len) as u64;
                    self.g.prefetch_in_source(src);
                    if ring_len == GATHER_LANES {
                        let done = ring[ring_head];
                        ring_head = (ring_head + 1) % GATHER_LANES;
                        ring_len -= 1;
                        let w = self.g.in_source_at(done.src);
                        positions[done.slot] = w;
                        observe(w);
                    }
                    ring[(ring_head + ring_len) % GATHER_LANES] = PendingGather { slot: write, src };
                    ring_len += 1;
                    write += 1;
                }
            }
        }
        while ring_len > 0 {
            let done = ring[ring_head];
            ring_head = (ring_head + 1) % GATHER_LANES;
            ring_len -= 1;
            let w = self.g.in_source_at(done.src);
            positions[done.slot] = w;
            observe(w);
        }
        positions.truncate(write);
        obs::record([(n - write) as u64, write as u64 - branches, branches]);
    }

    /// Records a single trajectory of `t_max` steps from `start`
    /// (`out.len() == t_max + 1`, `out[0] == start`). Dead tail positions
    /// are [`DEAD`].
    ///
    /// ```
    /// use srs_mc::{WalkEngine, Pcg32, DEAD};
    /// use srs_graph::gen::fixtures;
    ///
    /// let g = fixtures::path(3);            // 0 → 1 → 2
    /// let engine = WalkEngine::new(&g);
    /// let mut out = Vec::new();
    /// engine.walk(2, 4, &mut Pcg32::new(1, 1), &mut out);
    /// assert_eq!(out, vec![2, 1, 0, DEAD, DEAD]); // dies at the source
    /// ```
    pub fn walk(&self, start: VertexId, t_max: usize, rng: &mut Pcg32, out: &mut Vec<VertexId>) {
        out.clear();
        out.resize(t_max + 1, DEAD);
        self.walk_fill(start, rng, out);
    }

    /// [`WalkEngine::walk`] into a fixed slice: records `out.len() - 1`
    /// steps from `start` (`out[0] == start`, dead tail [`DEAD`]). The
    /// index-build hot loop uses this to reuse one probe buffer with no
    /// per-call length bookkeeping. `out` must be non-empty.
    pub fn walk_fill(&self, start: VertexId, rng: &mut Pcg32, out: &mut [VertexId]) {
        out[0] = start;
        let mut counts = [0u64; 3];
        let mut cur = start;
        let mut i = 1;
        while i < out.len() {
            cur = self.step_one_counted(cur, rng, &mut counts);
            if cur == DEAD {
                // The tail stays dead; skip the per-step re-checks.
                out[i..].fill(DEAD);
                break;
            }
            out[i] = cur;
            i += 1;
        }
        obs::record(counts);
    }

    /// Records `r` independent trajectories of `t_max` steps from `start`.
    pub fn walk_matrix(&self, start: VertexId, r: usize, t_max: usize, rng: &mut Pcg32) -> WalkMatrix {
        let mut positions = vec![start; r * (t_max + 1)];
        for walk in 0..r {
            self.walk_fill(start, rng, &mut positions[walk * (t_max + 1)..(walk + 1) * (t_max + 1)]);
        }
        WalkMatrix { r, t_max, positions }
    }
}

/// The reference scalar kernel: semantically identical to the fast paths
/// above (same death rule, same no-draw convention for degree 1, same
/// Lemire draw for degree ≥ 2) but implemented directly over the CSR
/// adjacency slices with no descriptor table, no prefetch, no compaction
/// pipeline. The property tests pin the fast kernel against it; it is
/// also compiled under the `ref-kernel` feature for benchmarking.
#[cfg(any(test, feature = "ref-kernel"))]
pub mod reference {
    use super::{Pcg32, VertexId, DEAD};
    use srs_graph::Graph;

    /// Scalar reference step: read the in-neighbour slice, apply the
    /// degree rules directly.
    #[inline]
    pub fn step_one(g: &Graph, pos: VertexId, rng: &mut Pcg32) -> VertexId {
        if pos == DEAD {
            return DEAD;
        }
        let nb = g.in_neighbors(pos);
        match nb.len() {
            0 => DEAD,
            1 => nb[0],
            len => nb[rng.gen_range(len as u32) as usize],
        }
    }

    /// Scalar reference batch step (in place, dead slots stay [`DEAD`]).
    pub fn step_all(g: &Graph, positions: &mut [VertexId], rng: &mut Pcg32) {
        for p in positions {
            *p = step_one(g, *p, rng);
        }
    }

    /// Scalar reference trajectory.
    pub fn walk(g: &Graph, start: VertexId, t_max: usize, rng: &mut Pcg32) -> Vec<VertexId> {
        let mut out = vec![start];
        let mut cur = start;
        for _ in 0..t_max {
            cur = step_one(g, cur, rng);
            out.push(cur);
        }
        out
    }
}

/// Reusable batch of walk positions maintained as a **compacted live
/// frontier**: reset to `R` copies of a start vertex, then advanced in
/// place one step at a time; walks that die leave the buffer. The
/// streaming algorithms (Algorithms 1–3) only ever need the current
/// position *multiset*, so one of these per worker makes their walk
/// simulation allocation-free in the steady state — and the per-step cost
/// tracks the live count, not `R`.
///
/// Callers that need per-walk identity construct with
/// [`WalkPositions::with_tracking`]: a parallel index map then records,
/// for every live slot, which of the original `R` walks it is.
#[derive(Debug, Clone, Default)]
pub struct WalkPositions {
    pos: Vec<VertexId>,
    /// `ids[i]` = original walk index of live slot `i` (empty unless
    /// tracking).
    ids: Vec<u32>,
    tracking: bool,
    /// Number of walks the batch was reset to (`R`), live or not.
    r: usize,
}

impl WalkPositions {
    /// Creates an empty buffer (first `reset` sizes it).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer that maintains the original-walk index map
    /// across compaction (see [`WalkPositions::walk_ids`]).
    pub fn with_tracking() -> Self {
        WalkPositions { tracking: true, ..Self::default() }
    }

    /// Restarts the batch: `r` walks, all at `start`. Reuses allocations.
    pub fn reset(&mut self, start: VertexId, r: usize) {
        self.pos.clear();
        self.pos.resize(r, start);
        self.r = r;
        if self.tracking {
            self.ids.clear();
            self.ids.extend(0..r as u32);
        }
    }

    /// Advances every live walk one reverse step, compacting out deaths.
    #[inline]
    pub fn step(&mut self, engine: &WalkEngine, rng: &mut Pcg32) {
        if self.tracking {
            self.step_tracked(engine, rng);
        } else {
            engine.step_frontier(&mut self.pos, rng);
        }
    }

    /// [`WalkPositions::step`] fused with per-step counting: `counter`
    /// ends up holding the multiset of the new live positions.
    #[inline]
    pub fn step_count(&mut self, engine: &WalkEngine, rng: &mut Pcg32, counter: &mut PositionCounter) {
        if self.tracking {
            self.step_tracked(engine, rng);
            counter.fill(&self.pos);
        } else {
            engine.step_frontier_count(&mut self.pos, rng, counter);
        }
    }

    /// Tracked stepping: scalar loop keeping `ids` aligned with `pos`
    /// under stable compaction. (The pipelined kernel reorders its slot
    /// writes, not its slot *assignment*, so identities stay stable; the
    /// scalar form here keeps the two arrays trivially in lock-step.)
    fn step_tracked(&mut self, engine: &WalkEngine, rng: &mut Pcg32) {
        let mut counts = [0u64; 3];
        let mut write = 0usize;
        for read in 0..self.pos.len() {
            let next = engine.step_one_counted(self.pos[read], rng, &mut counts);
            if next != DEAD {
                self.pos[write] = next;
                self.ids[write] = self.ids[read];
                write += 1;
            }
        }
        self.pos.truncate(write);
        self.ids.truncate(write);
        obs::record(counts);
    }

    /// The current live positions (no [`DEAD`] entries).
    #[inline]
    pub fn positions(&self) -> &[VertexId] {
        &self.pos
    }

    /// The original walk index of each live slot (aligned with
    /// [`WalkPositions::positions`]). Empty unless the buffer was created
    /// with [`WalkPositions::with_tracking`].
    #[inline]
    pub fn walk_ids(&self) -> &[u32] {
        &self.ids
    }

    /// Number of walks the batch was reset to (`R`), dead or alive — the
    /// estimator normalization constant.
    pub fn num_walks(&self) -> usize {
        self.r
    }

    /// Number of walks still alive.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Whether every walk has died (or the batch was never reset).
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }
}

/// `R` recorded reverse-walk trajectories of length `T` from one source.
/// Row-major: trajectory `i` occupies `positions[i*(T+1) .. (i+1)*(T+1)]`.
#[derive(Debug, Clone)]
pub struct WalkMatrix {
    r: usize,
    t_max: usize,
    positions: Vec<VertexId>,
}

impl WalkMatrix {
    /// Number of trajectories `R`.
    pub fn num_walks(&self) -> usize {
        self.r
    }

    /// Trajectory length `T` (number of steps; positions per row is `T+1`).
    pub fn t_max(&self) -> usize {
        self.t_max
    }

    /// Position of walk `walk` at step `t` (`t = 0` is the source).
    #[inline]
    pub fn at(&self, walk: usize, t: usize) -> VertexId {
        self.positions[walk * (self.t_max + 1) + t]
    }

    /// Full trajectory of one walk.
    pub fn row(&self, walk: usize) -> &[VertexId] {
        &self.positions[walk * (self.t_max + 1)..(walk + 1) * (self.t_max + 1)]
    }

    /// Iterates the `R` positions at step `t` (including [`DEAD`] entries).
    pub fn step_positions(&self, t: usize) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.r).map(move |w| self.at(w, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_graph::gen::{self, fixtures};

    #[test]
    fn walks_die_at_sources() {
        // Path 0→1→2→3: reverse walk from 3 deterministically reaches 0 and
        // then dies.
        let g = fixtures::path(4);
        let e = WalkEngine::new(&g);
        let mut rng = Pcg32::new(1, 1);
        let mut out = Vec::new();
        e.walk(3, 6, &mut rng, &mut out);
        assert_eq!(out, vec![3, 2, 1, 0, DEAD, DEAD, DEAD]);
    }

    #[test]
    fn step_all_advances_in_place() {
        let g = fixtures::cycle(5);
        let e = WalkEngine::new(&g);
        let mut rng = Pcg32::new(2, 2);
        let mut pos = vec![0, 1, 2, 3, 4];
        e.step_all(&mut pos, &mut rng);
        // On a cycle, the unique in-neighbour of i is i-1.
        assert_eq!(pos, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn walk_matrix_layout() {
        let g = fixtures::cycle(4);
        let e = WalkEngine::new(&g);
        let mut rng = Pcg32::new(3, 3);
        let m = e.walk_matrix(2, 3, 5, &mut rng);
        assert_eq!(m.num_walks(), 3);
        assert_eq!(m.t_max(), 5);
        for w in 0..3 {
            assert_eq!(m.at(w, 0), 2);
            assert_eq!(m.row(w).len(), 6);
            // cycle walk is deterministic: position at t is (2 - t) mod 4
            for t in 0..=5usize {
                assert_eq!(m.at(w, t), ((2 + 4 * 2 - t as u32) % 4), "w={w} t={t}");
            }
        }
        assert_eq!(m.step_positions(1).collect::<Vec<_>>(), vec![1, 1, 1]);
    }

    #[test]
    fn claw_walks_from_hub_spread_uniformly() {
        let g = fixtures::claw();
        let e = WalkEngine::new(&g);
        let mut rng = Pcg32::new(4, 4);
        let mut counts = [0u32; 4];
        for _ in 0..30_000 {
            let p = e.step_one(0, &mut rng);
            counts[p as usize] += 1;
        }
        assert_eq!(counts[0], 0);
        for leaf in 1..4 {
            let c = counts[leaf];
            assert!((9_000..11_000).contains(&c), "leaf {leaf}: {c}");
        }
    }

    #[test]
    fn dead_walk_stays_dead() {
        let g = fixtures::path(2);
        let e = WalkEngine::new(&g);
        let mut rng = Pcg32::new(5, 5);
        let mut pos = vec![0];
        e.step_all(&mut pos, &mut rng);
        assert_eq!(pos[0], DEAD);
        e.step_all(&mut pos, &mut rng);
        assert_eq!(pos[0], DEAD);
    }

    #[test]
    fn uniform_choice_over_in_neighbors() {
        // Vertex 0 with in-links from 1..=4; verify each chosen ~uniformly.
        let g = srs_graph::Graph::from_edges(5, (1..5).map(|i| (i, 0))).unwrap();
        let e = WalkEngine::new(&g);
        let mut rng = Pcg32::new(6, 6);
        let mut counts = [0u32; 5];
        for _ in 0..40_000 {
            counts[e.step_one(0, &mut rng) as usize] += 1;
        }
        for i in 1..5 {
            assert!((9_000..11_000).contains(&counts[i]), "{:?}", counts);
        }
    }

    #[test]
    fn frontier_compacts_dead_walks() {
        // Path 0→1→2: walks at 1 survive one step (to 0) then die; walks
        // already at 0 die immediately.
        let g = fixtures::path(3);
        let e = WalkEngine::new(&g);
        let mut rng = Pcg32::new(7, 7);
        let mut pos = vec![2, 0, 1, 2, 0];
        e.step_frontier(&mut pos, &mut rng);
        assert_eq!(pos, vec![1, 0, 1]); // stable order, deaths removed
        e.step_frontier(&mut pos, &mut rng);
        assert_eq!(pos, vec![0, 0]);
        e.step_frontier(&mut pos, &mut rng);
        assert!(pos.is_empty());
    }

    #[test]
    fn frontier_count_fuses_multiset() {
        let g = fixtures::claw();
        let e = WalkEngine::new(&g);
        let mut rng = Pcg32::new(8, 8);
        let mut pos = vec![1, 2, 3, 0];
        let mut counter = PositionCounter::new();
        e.step_frontier_count(&mut pos, &mut rng, &mut counter);
        // The three leaves step to the hub; the hub steps to some leaf.
        assert_eq!(pos.len(), 4);
        assert_eq!(counter.count(0), 3);
        assert_eq!(counter.distinct(), 2);
        let mut sorted = pos.clone();
        sorted.sort_unstable();
        assert_eq!(&sorted[..3], &[0, 0, 0]);
    }

    #[test]
    fn frontier_matches_reference_step_all_exactly() {
        // Same RNG stream, same multiset of live positions — the pipelined
        // kernel must agree with the scalar reference bit for bit.
        for (gi, g) in [
            gen::copying_web(400, 4, 0.8, 3),
            gen::preferential_attachment(300, 3, 5),
            gen::erdos_renyi(200, 900, 9),
        ]
        .iter()
        .enumerate()
        {
            let e = WalkEngine::new(g);
            let n = g.num_vertices();
            let mut fast: Vec<VertexId> = (0..n).collect();
            let mut slow: Vec<VertexId> = (0..n).collect();
            let mut rng_fast = Pcg32::new(100 + gi as u64, 1);
            let mut rng_slow = rng_fast.clone();
            for step in 0..8 {
                e.step_frontier(&mut fast, &mut rng_fast);
                reference::step_all(g, &mut slow, &mut rng_slow);
                let mut live: Vec<VertexId> = slow.iter().copied().filter(|&p| p != DEAD).collect();
                let mut got = fast.clone();
                live.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, live, "graph {gi} step {step}");
            }
        }
    }

    #[test]
    fn step_all_matches_reference_exactly() {
        let g = gen::copying_web(300, 4, 0.8, 11);
        let e = WalkEngine::new(&g);
        let mut fast: Vec<VertexId> = (0..300).collect();
        let mut slow = fast.clone();
        let mut rng_fast = Pcg32::new(42, 7);
        let mut rng_slow = rng_fast.clone();
        for _ in 0..10 {
            e.step_all(&mut fast, &mut rng_fast);
            reference::step_all(&g, &mut slow, &mut rng_slow);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn walk_fill_matches_walk_and_reference() {
        let g = gen::preferential_attachment(200, 3, 13);
        let e = WalkEngine::new(&g);
        for u in [0u32, 17, 99, 150] {
            let mut rng_a = Pcg32::from_parts(&[9, u as u64]);
            let mut rng_b = rng_a.clone();
            let mut rng_c = rng_a.clone();
            let mut via_walk = Vec::new();
            e.walk(u, 9, &mut rng_a, &mut via_walk);
            let mut via_fill = vec![0; 10];
            e.walk_fill(u, &mut rng_b, &mut via_fill);
            let via_ref = reference::walk(&g, u, 9, &mut rng_c);
            assert_eq!(via_walk, via_fill, "u={u}");
            assert_eq!(via_walk, via_ref, "u={u}");
        }
    }

    #[test]
    fn tracked_frontier_recovers_per_walk_positions() {
        let g = gen::copying_web(200, 4, 0.8, 17);
        let e = WalkEngine::new(&g);
        let mut tracked = WalkPositions::with_tracking();
        tracked.reset(5, 64);
        // Reference: step 64 independent slots with the identical stream.
        let mut slots = vec![5u32; 64];
        let mut rng_a = Pcg32::new(77, 3);
        let mut rng_b = rng_a.clone();
        for _ in 0..6 {
            tracked.step(&e, &mut rng_a);
            reference::step_all(&g, &mut slots, &mut rng_b);
            assert_eq!(tracked.len(), slots.iter().filter(|&&p| p != DEAD).count());
            for (i, &id) in tracked.walk_ids().iter().enumerate() {
                assert_eq!(tracked.positions()[i], slots[id as usize], "walk {id}");
            }
        }
        assert_eq!(tracked.num_walks(), 64);
    }

    #[test]
    fn frontier_occupancy_matches_reference_distribution() {
        // Different seeds, same per-step occupancy distribution: a χ²-style
        // tolerance check that the fast paths do not skew where walks go.
        let g = gen::erdos_renyi(50, 600, 23);
        let e = WalkEngine::new(&g);
        let n = g.num_vertices() as usize;
        let r = 20_000usize;
        let start = 7u32;
        let t_probe = 3usize;
        let mut fast_counts = vec![0u64; n];
        let mut ref_counts = vec![0u64; n];
        let mut pos = Vec::new();
        for trial in 0..4u64 {
            pos.clear();
            pos.resize(r / 4, start);
            let mut rng = Pcg32::new(1000 + trial, 1);
            for _ in 0..t_probe {
                e.step_frontier(&mut pos, &mut rng);
            }
            for &p in &pos {
                fast_counts[p as usize] += 1;
            }
            let mut slots = vec![start; r / 4];
            let mut rng = Pcg32::new(2000 + trial, 9);
            for _ in 0..t_probe {
                reference::step_all(&g, &mut slots, &mut rng);
            }
            for &p in &slots {
                if p != DEAD {
                    ref_counts[p as usize] += 1;
                }
            }
        }
        let total_fast: u64 = fast_counts.iter().sum();
        let total_ref: u64 = ref_counts.iter().sum();
        assert!(total_fast > 0 && total_ref > 0);
        let mut chi2 = 0.0f64;
        for v in 0..n {
            let pf = fast_counts[v] as f64 / total_fast as f64;
            let pr = ref_counts[v] as f64 / total_ref as f64;
            let denom = pf + pr;
            if denom > 0.0 {
                chi2 += (pf - pr) * (pf - pr) / denom;
            }
        }
        // Same distribution ⇒ χ² of the proportion difference stays tiny;
        // a systematically skewed kernel lands orders of magnitude higher.
        assert!(chi2 < 0.02, "occupancy distributions diverge: chi2 = {chi2}");
    }

    #[test]
    fn walk_positions_frontier_semantics() {
        let g = fixtures::path(4);
        let e = WalkEngine::new(&g);
        let mut wp = WalkPositions::new();
        wp.reset(3, 10);
        assert_eq!(wp.num_walks(), 10);
        assert_eq!(wp.len(), 10);
        let mut rng = Pcg32::new(1, 1);
        for expect_live in [10, 10, 10, 0] {
            wp.step(&e, &mut rng);
            let _ = expect_live;
        }
        assert!(wp.is_empty(), "all walks die after the path is exhausted");
        assert_eq!(wp.num_walks(), 10, "normalization constant survives death");
    }
}
