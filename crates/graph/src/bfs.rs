//! Breadth-first search, distances, and components.
//!
//! The similarity search needs three distance facilities:
//!
//! 1. **Bounded undirected BFS from the query vertex** — the L1 bound
//!    `β(u, d)` is indexed by the distance `d(u, v)` of each candidate, and
//!    no distance beyond `d_max = T` is ever read (Section 6). The query
//!    reads distances of only two vertex sets — its candidates and its own
//!    L1 walk positions — so it runs [`BfsBuffers::run_to_targets`], which
//!    stops as soon as the last of them is reached instead of sweeping the
//!    whole radius-`d_max` ball. Undirected distance is used because the
//!    triangle inequality in the proof of Proposition 4 requires a
//!    symmetric metric, and every reverse random walk of `t` steps stays
//!    inside the undirected ball of radius `t`.
//! 2. **Distance histograms of top-k result lists** — the Figure 2
//!    reproduction plots the average distance of the k-th most similar
//!    vertex.
//! 3. **Average pairwise distance estimation** — Figure 2's blue baseline,
//!    estimated by sampled BFS.
//!
//! [`BfsBuffers`] makes repeated traversals allocation-free: the visited
//! epoch array persists across calls (a standard trick for query workloads).

use crate::{Graph, VertexId};

/// Sentinel distance for unreached vertices.
pub const UNREACHED: u32 = u32::MAX;

/// Which adjacency a traversal follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges forward (`u → v`).
    Out,
    /// Follow in-links (the direction SimRank walks move).
    In,
    /// Treat edges as undirected (union of both adjacencies).
    Undirected,
}

/// Reusable state for repeated BFS traversals over the same graph.
///
/// The visited set is a bitset — 1 bit per vertex, so it stays
/// cache-resident even at millions of vertices (the per-neighbor
/// membership test is the hottest load in the traversal, and a word-wide
/// stamp array evicts itself once `n` outgrows L2). Reset costs
/// O(previous traversal) by clearing only the bits the last run set.
pub struct BfsBuffers {
    visited_bits: Vec<u64>,
    dist: Vec<u32>,
    queue: Vec<VertexId>,
    /// Target marks for [`BfsBuffers::run_to_targets`]; all clear between
    /// runs.
    target_bits: Vec<u64>,
    /// Distinct targets not yet visited by the current targeted run.
    targets_left: usize,
}

impl BfsBuffers {
    /// Allocates buffers for a graph of `n` vertices.
    pub fn new(n: u32) -> Self {
        BfsBuffers {
            visited_bits: vec![0; (n as usize).div_ceil(64)],
            dist: vec![UNREACHED; n as usize],
            queue: Vec::new(),
            target_bits: vec![0; (n as usize).div_ceil(64)],
            targets_left: 0,
        }
    }

    /// Distance of `v` from the most recent traversal's source, or
    /// [`UNREACHED`].
    #[inline]
    pub fn distance(&self, v: VertexId) -> u32 {
        if self.seen(v) {
            self.dist[v as usize]
        } else {
            UNREACHED
        }
    }

    /// Vertices visited by the most recent traversal, in BFS order.
    #[inline]
    pub fn visited(&self) -> &[VertexId] {
        &self.queue
    }

    fn begin(&mut self) {
        // Clear exactly the bits the previous traversal set.
        for i in 0..self.queue.len() {
            let v = self.queue[i] as usize;
            self.visited_bits[v >> 6] &= !(1u64 << (v & 63));
        }
        self.queue.clear();
    }

    /// Marks `v` visited at distance `d`. In a targeted traversal, returns
    /// whether `v` was the last unreached target.
    #[inline]
    fn visit<const TARGETED: bool>(&mut self, v: VertexId, d: u32) -> bool {
        self.visited_bits[v as usize >> 6] |= 1u64 << (v as usize & 63);
        self.dist[v as usize] = d;
        self.queue.push(v);
        if TARGETED && (self.target_bits[v as usize >> 6] >> (v as usize & 63)) & 1 == 1 {
            self.targets_left -= 1;
            return self.targets_left == 0;
        }
        false
    }

    #[inline]
    fn seen(&self, v: VertexId) -> bool {
        (self.visited_bits[v as usize >> 6] >> (v as usize & 63)) & 1 == 1
    }

    /// BFS from `source` following `direction`, stopping at `max_depth`
    /// (inclusive). Results are read back with [`BfsBuffers::distance`] /
    /// [`BfsBuffers::visited`].
    ///
    /// Levels are expanded top-down (scan the frontier's adjacency) until
    /// the frontier grows large, then bottom-up (scan the *unvisited*
    /// vertices and probe each for a frontier neighbor, early-exiting on
    /// the first hit) — the direction-optimizing scheme of Beamer et al.
    /// On small-world graphs the middle levels hold most of the graph, so
    /// the switch cuts the per-query traversal cost severalfold. Both
    /// expansions are level-synchronous, so distances are identical; only
    /// the within-level order of [`BfsBuffers::visited`] differs (bottom-up
    /// appends in ascending vertex id), and it stays deterministic.
    pub fn run(&mut self, g: &Graph, source: VertexId, direction: Direction, max_depth: u32) {
        self.traverse::<false>(g, source, direction, max_depth, 0);
    }

    /// [`BfsBuffers::run`] that stops once every vertex of `targets` has
    /// been visited — mid-level if need be, since a vertex's distance is
    /// final the moment it is visited — but never before the levels up to
    /// `min_depth` are complete (`min_depth` is clamped to `max_depth`).
    ///
    /// Afterwards every target, and every vertex within `min_depth`, reads
    /// back the same [`BfsBuffers::distance`] as after a full
    /// `run(.., max_depth)`: its exact distance, or [`UNREACHED`] beyond
    /// `max_depth`. Other vertices may read [`UNREACHED`] where the full
    /// run would have reached them, and [`BfsBuffers::visited`] is a prefix
    /// of the full run's visit order. Duplicate targets, and a target
    /// equal to `source`, are fine.
    pub fn run_to_targets(
        &mut self,
        g: &Graph,
        source: VertexId,
        direction: Direction,
        max_depth: u32,
        min_depth: u32,
        targets: &[VertexId],
    ) {
        for &t in targets {
            let (w, b) = (t as usize >> 6, 1u64 << (t as usize & 63));
            if self.target_bits[w] & b == 0 {
                self.target_bits[w] |= b;
                self.targets_left += 1;
            }
        }
        self.traverse::<true>(g, source, direction, max_depth, min_depth.min(max_depth));
        for &t in targets {
            self.target_bits[t as usize >> 6] &= !(1u64 << (t as usize & 63));
        }
        self.targets_left = 0;
    }

    /// The level-synchronous traversal behind [`BfsBuffers::run`] and
    /// [`BfsBuffers::run_to_targets`]. `TARGETED` compiles the target
    /// bookkeeping in or out, so the full run pays nothing for it.
    fn traverse<const TARGETED: bool>(
        &mut self,
        g: &Graph,
        source: VertexId,
        direction: Direction,
        max_depth: u32,
        min_depth: u32,
    ) {
        self.begin();
        self.visit::<TARGETED>(source, 0);
        let n = g.num_vertices() as usize;
        // Expected probes per bottom-up vertex before a frontier hit are
        // bounded by its degree; 2m/n is the mean over both lists (the
        // undirected expansion walks both).
        let avg_deg = (2 * g.num_edges() / n.max(1) as u64).max(1);
        let mut level_start = 0usize;
        let mut d = 0u32;
        while level_start < self.queue.len() && d < max_depth {
            // Levels 0..=d are complete here; a targeted run may stop once
            // they cover `min_depth`, and from then on even mid-level.
            let may_stop = TARGETED && d >= min_depth;
            if may_stop && self.targets_left == 0 {
                break;
            }
            let level_end = self.queue.len();
            let frontier = (level_end - level_start) as u64;
            let unvisited = (n - level_end) as u64;
            if unvisited == 0 {
                break;
            }
            // Top-down touches ~frontier·avg_deg adjacency slots; bottom-up
            // touches at most ~unvisited early-exited probes plus a bitset
            // sweep. The size guard keeps small graphs (and small levels)
            // on the classic queue expansion.
            let stopped = if frontier > 64 && frontier * avg_deg > unvisited {
                self.expand_bottom_up::<TARGETED>(g, direction, d, may_stop)
            } else {
                self.expand_top_down::<TARGETED>(g, direction, d, level_start, level_end, may_stop)
            };
            if stopped {
                break;
            }
            level_start = level_end;
            d += 1;
        }
    }

    /// Expands one level by scanning the frontier `queue[start..end]`.
    /// Returns `true` if it stopped early: `may_stop` was set and the last
    /// target was visited.
    fn expand_top_down<const TARGETED: bool>(
        &mut self,
        g: &Graph,
        direction: Direction,
        d: u32,
        start: usize,
        end: usize,
        may_stop: bool,
    ) -> bool {
        for i in start..end {
            let u = self.queue[i];
            let stopped = match direction {
                Direction::Out => self.visit_unseen::<TARGETED>(g.out_neighbors(u), d + 1, may_stop),
                Direction::In => self.visit_unseen::<TARGETED>(g.in_neighbors(u), d + 1, may_stop),
                Direction::Undirected => {
                    self.visit_unseen::<TARGETED>(g.out_neighbors(u), d + 1, may_stop)
                        || self.visit_unseen::<TARGETED>(g.in_neighbors(u), d + 1, may_stop)
                }
            };
            if stopped {
                return true;
            }
        }
        false
    }

    /// Visits every not-yet-seen vertex of `vs` at distance `d`; stops
    /// early (returning `true`) as [`Self::expand_top_down`] does.
    #[inline]
    fn visit_unseen<const TARGETED: bool>(&mut self, vs: &[VertexId], d: u32, may_stop: bool) -> bool {
        for &v in vs {
            if !self.seen(v) && self.visit::<TARGETED>(v, d) && may_stop {
                return true;
            }
        }
        false
    }

    /// Expands one level by scanning the unvisited vertices (zero bits of
    /// the visited bitset) and probing each for a neighbor at distance `d`.
    /// Returns `true` if it stopped early, as [`Self::expand_top_down`].
    fn expand_bottom_up<const TARGETED: bool>(
        &mut self,
        g: &Graph,
        direction: Direction,
        d: u32,
        may_stop: bool,
    ) -> bool {
        let n = g.num_vertices() as usize;
        let words = self.visited_bits.len();
        for wi in 0..words {
            let mut todo = !self.visited_bits[wi];
            if wi == words - 1 && !n.is_multiple_of(64) {
                todo &= (1u64 << (n % 64)) - 1;
            }
            while todo != 0 {
                let v = (wi * 64 + todo.trailing_zeros() as usize) as VertexId;
                todo &= todo - 1;
                // An edge w→v puts v in w's `Out` expansion, so the
                // bottom-up probe walks v's *in*-list (and vice versa).
                let hit = match direction {
                    Direction::Out => self.frontier_neighbor(g.in_neighbors(v), d),
                    Direction::In => self.frontier_neighbor(g.out_neighbors(v), d),
                    Direction::Undirected => {
                        self.frontier_neighbor(g.out_neighbors(v), d)
                            || self.frontier_neighbor(g.in_neighbors(v), d)
                    }
                };
                if hit && self.visit::<TARGETED>(v, d + 1) && may_stop {
                    return true;
                }
            }
        }
        false
    }

    /// Whether any of `ws` sits on the current frontier (distance `d`).
    #[inline]
    fn frontier_neighbor(&self, ws: &[VertexId], d: u32) -> bool {
        ws.iter().any(|&w| self.seen(w) && self.dist[w as usize] == d)
    }
}

/// Full single-source distances (unbounded depth). Convenience wrapper used
/// by tests and the exact pipelines; for query-path use prefer
/// [`BfsBuffers`].
pub fn distances(g: &Graph, source: VertexId, direction: Direction) -> Vec<u32> {
    let mut b = BfsBuffers::new(g.num_vertices());
    b.run(g, source, direction, u32::MAX - 1);
    (0..g.num_vertices()).map(|v| b.distance(v)).collect()
}

/// Estimates the average finite pairwise (undirected) distance by running
/// BFS from `samples` sources chosen deterministically from `seed`.
/// This is the blue baseline of Figure 2.
pub fn estimate_average_distance(g: &Graph, samples: u32, seed: u64) -> f64 {
    let n = g.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let mut b = BfsBuffers::new(n);
    let mut total = 0u64;
    let mut count = 0u64;
    for i in 0..samples {
        let s = (crate::hash::mix_seed(&[seed, i as u64]) % n as u64) as VertexId;
        b.run(g, s, Direction::Undirected, u32::MAX - 1);
        for &v in b.visited() {
            if v != s {
                total += b.distance(v) as u64;
                count += 1;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// Weakly connected components. Returns `(component_id_per_vertex,
/// component_count)`.
pub fn weakly_connected_components(g: &Graph) -> (Vec<u32>, u32) {
    let n = g.num_vertices();
    let mut comp = vec![u32::MAX; n as usize];
    let mut next = 0u32;
    let mut b = BfsBuffers::new(n);
    for s in 0..n {
        if comp[s as usize] != u32::MAX {
            continue;
        }
        b.run(g, s, Direction::Undirected, u32::MAX - 1);
        for &v in b.visited() {
            comp[v as usize] = next;
        }
        next += 1;
    }
    (comp, next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn path_graph() -> Graph {
        // 0 → 1 → 2 → 3
        Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn directed_out_distances() {
        let d = distances(&path_graph(), 0, Direction::Out);
        assert_eq!(d, vec![0, 1, 2, 3]);
    }

    #[test]
    fn directed_in_distances() {
        let d = distances(&path_graph(), 3, Direction::In);
        assert_eq!(d, vec![3, 2, 1, 0]);
        let d0 = distances(&path_graph(), 0, Direction::In);
        assert_eq!(d0, vec![0, UNREACHED, UNREACHED, UNREACHED]);
    }

    #[test]
    fn undirected_distances() {
        let d = distances(&path_graph(), 1, Direction::Undirected);
        assert_eq!(d, vec![1, 0, 1, 2]);
    }

    #[test]
    fn bounded_depth() {
        let mut b = BfsBuffers::new(4);
        b.run(&path_graph(), 0, Direction::Out, 1);
        assert_eq!(b.distance(1), 1);
        assert_eq!(b.distance(2), UNREACHED);
        assert_eq!(b.visited(), &[0, 1]);
    }

    #[test]
    fn buffers_reusable_across_queries() {
        let g = path_graph();
        let mut b = BfsBuffers::new(4);
        b.run(&g, 0, Direction::Out, 10);
        assert_eq!(b.distance(3), 3);
        b.run(&g, 3, Direction::Out, 10);
        assert_eq!(b.distance(3), 0);
        assert_eq!(b.distance(0), UNREACHED); // stale state must not leak
    }

    #[test]
    fn average_distance_path() {
        // Path on 4 vertices: exact average over ordered pairs is 20/12.
        let avg = estimate_average_distance(&path_graph(), 64, 7);
        assert!((avg - 20.0 / 12.0).abs() < 0.25, "avg={avg}");
    }

    #[test]
    fn components() {
        let g = Graph::from_edges(5, vec![(0, 1), (3, 4)]).unwrap();
        let (comp, k) = weakly_connected_components(&g);
        assert_eq!(k, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[0], comp[3]);
    }

    #[test]
    fn bfs_matches_floyd_warshall_on_random_graph() {
        // Deterministic small random digraph; undirected BFS vs Floyd.
        let n: u32 = 12;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if u != v && crate::hash::mix_seed(&[u as u64, v as u64, 99]).is_multiple_of(5) {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(n, edges.clone()).unwrap();
        let inf = 1_000_000i64;
        let mut fw = vec![vec![inf; n as usize]; n as usize];
        for i in 0..n as usize {
            fw[i][i] = 0;
        }
        for &(u, v) in &edges {
            fw[u as usize][v as usize] = 1;
            fw[v as usize][u as usize] = 1;
        }
        for k in 0..n as usize {
            for i in 0..n as usize {
                for j in 0..n as usize {
                    let via = fw[i][k] + fw[k][j];
                    if via < fw[i][j] {
                        fw[i][j] = via;
                    }
                }
            }
        }
        for s in 0..n {
            let d = distances(&g, s, Direction::Undirected);
            for v in 0..n as usize {
                let expect = fw[s as usize][v];
                if expect >= inf {
                    assert_eq!(d[v], UNREACHED);
                } else {
                    assert_eq!(d[v] as i64, expect, "s={s} v={v}");
                }
            }
        }
    }
}
