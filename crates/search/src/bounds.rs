//! The L1 and L2 upper bounds on SimRank (Section 6 of the paper).
//!
//! Both bound `s(u,v) = Σ_t cᵗ (Pᵗe_u)ᵀ D (Pᵗe_v)` term by term:
//!
//! * **L1 bound** (Algorithm 2, [`AlphaBeta`]): by Hölder,
//!   `xᵀ D y ≤ max_{w∈supp(y)} xᵀ D e_w` for stochastic `y`. With
//!   `α(u,d,t) = max_{d(u,w)=d} (Pᵗe_u)ᵀ D e_w` and the triangle inequality
//!   confining `supp(Pᵗe_v)` to distances `[d−t, d+t]` from `u`, any vertex
//!   `v` at distance `d` satisfies `s(u,v) ≤ β(u,d) = Σ_t cᵗ
//!   max_{d−t≤d'≤d+t} α(u,d',t)` (Proposition 4). Effective for
//!   **low-degree** query vertices, whose `Pᵗe_u` stays sparse. Computed at
//!   query time for the query vertex only.
//!
//! * **L2 bound** (Algorithm 3, [`GammaTable`]): by Cauchy–Schwarz,
//!   `s(u,v) ≤ Σ_t cᵗ γ(u,t) γ(v,t)` with `γ(u,t) = ‖√D Pᵗe_u‖`
//!   (Proposition 6). Effective for **high-degree** query vertices, whose
//!   walk distribution spreads thin. `γ` is precomputed for *every* vertex
//!   in the preprocess phase — `O(n)` storage.
//!
//! Both estimators are Monte-Carlo; the γ estimator
//! `Σ_w D_ww (count_w/R)²` has *positive* bias
//! (`E[(count/R)²] = p² + p(1−p)/R`), which keeps the L2 bound conservative.
//! The α estimator is unbiased per entry, but the max over entries is again
//! positively biased — also conservative. Callers still add an ε-slack for
//! the downward noise (see `QueryOptions::bound_slack`).

use crate::{Diagonal, SimRankParams};
use srs_graph::bfs::UNREACHED;
use srs_graph::{Graph, VertexId};
use srs_mc::multiset::PositionCounter;
use srs_mc::{Pcg32, WalkEngine, WalkPositions};

/// Precomputed `γ(u, t)` for all vertices (Algorithm 3 output). Stored as
/// `f32` — `4 n T` bytes, part of the `O(n)` preprocess artifact. The
/// storage is a [`srs_graph::storage::SharedSlice`]: owned when built,
/// a zero-copy view when loaded from a snapshot bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct GammaTable {
    t: u32,
    /// Row-major: `gamma[u * t + step]`.
    gamma: srs_graph::storage::SharedSlice<f32>,
}

impl GammaTable {
    /// Runs Algorithm 3 for every vertex with `params.r_gamma` walks,
    /// splitting vertices across `threads` workers. Deterministic in
    /// `seed`.
    pub fn build(g: &Graph, params: &SimRankParams, diag: &Diagonal, seed: u64, threads: usize) -> Self {
        let all: Vec<VertexId> = g.vertices().collect();
        GammaTable { t: params.t, gamma: Self::rows_for(g, params, diag, seed, threads, &all).into() }
    }

    /// Runs Algorithm 3 for the vertices `ids` only, returning their rows
    /// packed in `ids` order (`ids.len() × T` values). Because each vertex
    /// draws from its own `(seed, vertex)` stream, a packed row is
    /// bit-identical to the same row of a full build — the property
    /// incremental extension relies on. [`GammaTable::build`] is this
    /// over every vertex.
    pub(crate) fn rows_for(
        g: &Graph,
        params: &SimRankParams,
        diag: &Diagonal,
        seed: u64,
        threads: usize,
        ids: &[VertexId],
    ) -> Vec<f32> {
        params.validate();
        assert!(threads >= 1);
        let t = params.t as usize;
        let mut gamma = vec![0.0f32; ids.len() * t];
        let per = ids.len().div_ceil(threads).max(1);
        crossbeam::thread::scope(|scope| {
            for (chunk, ids) in gamma.chunks_mut(per * t).zip(ids.chunks(per)) {
                scope.spawn(move |_| {
                    let engine = WalkEngine::new(g);
                    let r = params.r_gamma as usize;
                    let mut pos: Vec<VertexId> = Vec::with_capacity(r);
                    let mut counter = PositionCounter::new();
                    for (row, &u) in chunk.chunks_mut(t).zip(ids) {
                        let mut rng = Pcg32::from_parts(&[seed, 0xAA, u as u64]);
                        pos.clear();
                        pos.resize(r, u);
                        for (step, slot) in row.iter_mut().enumerate() {
                            if step > 0 {
                                engine.step_frontier_count(&mut pos, &mut rng, &mut counter);
                            } else {
                                counter.fill(&pos);
                            }
                            let mu: f64 = counter
                                .iter()
                                .map(|(w, c)| diag.weight(w) * (c as f64 / r as f64).powi(2))
                                .sum();
                            *slot = mu.sqrt() as f32;
                            if pos.is_empty() {
                                // Every walk died: all later γ(u, ·) are
                                // exactly 0, which the rows already hold.
                                break;
                            }
                        }
                    }
                });
            }
        })
        .expect("worker thread panicked");
        gamma
    }

    /// The stored row of `γ(u, ·)` values (length `T`).
    pub fn row(&self, u: VertexId) -> &[f32] {
        let t = self.t as usize;
        &self.gamma[u as usize * t..(u as usize + 1) * t]
    }

    /// `γ(u, t)`.
    #[inline]
    pub fn gamma(&self, u: VertexId, step: u32) -> f64 {
        self.gamma[u as usize * self.t as usize + step as usize] as f64
    }

    /// The L2 bound `Σ_t cᵗ γ(u,t) γ(v,t)` (Proposition 6).
    pub fn l2_bound(&self, u: VertexId, v: VertexId, c: f64) -> f64 {
        let tu = u as usize * self.t as usize;
        let tv = v as usize * self.t as usize;
        let mut acc = 0.0;
        let mut ct = 1.0;
        for step in 0..self.t as usize {
            acc += ct * self.gamma[tu + step] as f64 * self.gamma[tv + step] as f64;
            ct *= c;
        }
        acc
    }

    /// Number of steps stored per vertex.
    pub fn steps(&self) -> u32 {
        self.t
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.gamma.len() / self.t as usize
    }

    /// Bytes of the table (Table 4 index-size accounting).
    pub fn memory_bytes(&self) -> u64 {
        (self.gamma.len() * 4) as u64
    }

    /// [`GammaTable::memory_bytes`] split by backing (heap-resident
    /// versus `mmap`-served bytes).
    pub fn memory_profile(&self) -> srs_graph::MemoryProfile {
        let mut p = srs_graph::MemoryProfile::default();
        p.add(&self.gamma);
        p
    }

    /// Raw storage (for persistence).
    pub(crate) fn raw(&self) -> &[f32] {
        &self.gamma
    }

    /// Rebuilds from raw parts (for persistence). The storage may be an
    /// owned vector or a zero-copy snapshot view.
    pub(crate) fn from_raw(t: u32, gamma: impl Into<srs_graph::storage::SharedSlice<f32>>) -> Self {
        let gamma = gamma.into();
        assert_eq!(gamma.len() % t as usize, 0, "raw gamma length");
        GammaTable { t, gamma }
    }
}

/// Query-time α/β tables for one query vertex (Algorithm 2 output).
///
/// Computed in two halves so a query can sample before it knows any
/// distance: [`AlphaBeta::sample_into`] runs the reverse walks and records
/// every `(step, position, count)` it sees; [`AlphaBeta::bin_into`] then
/// bins those records by distance. The recorded positions are exactly the
/// vertices whose distance the table reads, which is what lets the query
/// stop its BFS once they are reached.
#[derive(Debug, Clone)]
pub struct AlphaBeta {
    d_max: u32,
    /// `alpha[d * t_steps + t]` = `α(u, d, t)` estimates.
    alpha: Vec<f64>,
    /// `beta[d]` = `β(u, d)` (equation (18)).
    beta: Vec<f64>,
    /// `(t, w, count)`: `count` of the sampled walks sat at `w` after `t`
    /// steps (from the last [`AlphaBeta::sample_into`]).
    samples: Vec<(u32, VertexId, u32)>,
}

impl AlphaBeta {
    /// An empty table (no allocation); fill it with
    /// [`AlphaBeta::compute_into`]. Until then `beta` returns +∞
    /// everywhere, i.e. the table is uninformative, never unsound.
    pub fn new_empty() -> Self {
        AlphaBeta { d_max: 0, alpha: Vec::new(), beta: Vec::new(), samples: Vec::new() }
    }

    /// Runs Algorithm 2 for query vertex `u` with `params.r_bounds` walks.
    /// `dist(w)` must give the undirected BFS distance from `u` (or
    /// [`UNREACHED`]); positions farther than `d_max` are ignored (they can
    /// only matter for candidates beyond the search horizon).
    pub fn compute(
        g: &Graph,
        u: VertexId,
        params: &SimRankParams,
        diag: &Diagonal,
        dist: impl Fn(VertexId) -> u32,
        seed: u64,
    ) -> Self {
        let mut ab = Self::new_empty();
        ab.compute_into(
            g,
            u,
            params,
            diag,
            dist,
            seed,
            &mut WalkPositions::new(),
            &mut PositionCounter::new(),
        );
        ab
    }

    /// [`AlphaBeta::compute`] into existing storage: `self`'s tables and
    /// the caller's walk/counter buffers are reused, so a warm query
    /// worker recomputes the L1 bound without allocating. Results are
    /// bit-identical to `compute` for the same inputs. Equivalent to
    /// [`AlphaBeta::sample_into`] followed by [`AlphaBeta::bin_into`].
    #[allow(clippy::too_many_arguments)]
    pub fn compute_into(
        &mut self,
        g: &Graph,
        u: VertexId,
        params: &SimRankParams,
        diag: &Diagonal,
        dist: impl Fn(VertexId) -> u32,
        seed: u64,
        walks: &mut WalkPositions,
        counter: &mut PositionCounter,
    ) {
        self.sample_into(g, u, params, seed, walks, counter);
        self.bin_into(params, diag, dist);
    }

    /// The walk half of Algorithm 2: steps `params.r_bounds` reverse walks
    /// from `u` for up to `T` steps (stopping once all have died) and
    /// records each step's distinct positions with their counts. Needs no
    /// distances; the RNG stream is the one [`AlphaBeta::compute_into`]
    /// draws for the same `seed`.
    pub fn sample_into(
        &mut self,
        g: &Graph,
        u: VertexId,
        params: &SimRankParams,
        seed: u64,
        walks: &mut WalkPositions,
        counter: &mut PositionCounter,
    ) {
        params.validate();
        self.samples.clear();
        let engine = WalkEngine::new(g);
        let mut rng = Pcg32::from_parts(&[seed, 0xB0, u as u64]);
        walks.reset(u, params.r_bounds as usize);
        for t in 0..params.t {
            if t > 0 {
                walks.step_count(&engine, &mut rng, counter);
            } else {
                counter.fill(walks.positions());
            }
            self.samples.extend(counter.iter().map(|(w, cnt)| (t, w, cnt)));
            if walks.is_empty() {
                // All walks dead: every remaining α estimate is 0.
                break;
            }
        }
    }

    /// Every walk position recorded by the last
    /// [`AlphaBeta::sample_into`] (a vertex may repeat across steps) —
    /// the vertices whose distance [`AlphaBeta::bin_into`] reads.
    pub fn sampled_positions(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.samples.iter().map(|&(_, w, _)| w)
    }

    /// The binning half of Algorithm 2: fills α from the recorded samples
    /// by `dist(w)` (the undirected BFS distance from `u`, or
    /// [`UNREACHED`]; positions beyond `d_max` are ignored), then β.
    /// `params` must be the ones the samples were drawn with. α takes a
    /// max per cell, so the result does not depend on sample order.
    pub fn bin_into(&mut self, params: &SimRankParams, diag: &Diagonal, dist: impl Fn(VertexId) -> u32) {
        let t_steps = params.t as usize;
        let d_max = params.d_max as usize;
        let r = params.r_bounds as usize;
        self.d_max = params.d_max;
        self.alpha.clear();
        self.alpha.resize((d_max + 1) * t_steps, 0.0);
        for &(t, w, cnt) in &self.samples {
            let d = dist(w);
            if d == UNREACHED || d as usize > d_max {
                continue;
            }
            let a = diag.weight(w) * cnt as f64 / r as f64;
            let slot = &mut self.alpha[d as usize * t_steps + t as usize];
            if a > *slot {
                *slot = a;
            }
        }
        // β(u,d) = Σ_t cᵗ · max_{max(0,d−t) ≤ d' ≤ min(d_max, d+t)} α(d', t).
        self.beta.clear();
        self.beta.resize(d_max + 1, 0.0);
        for (d, slot) in self.beta.iter_mut().enumerate() {
            let mut acc = 0.0;
            let mut ct = 1.0;
            for t in 0..t_steps {
                let lo = d.saturating_sub(t);
                let hi = (d + t).min(d_max);
                let mut best = 0.0f64;
                for dp in lo..=hi {
                    best = best.max(self.alpha[dp * t_steps + t]);
                }
                acc += ct * best;
                ct *= params.c;
            }
            *slot = acc;
        }
    }

    /// `β(u, d)` — the L1 bound for any `v` at distance `d` from `u`
    /// (Proposition 4). Beyond `d_max` the table carries no information,
    /// so the bound degrades to +∞ (callers fall back to the other
    /// bounds); returning anything finite there would be unsound.
    #[inline]
    pub fn beta(&self, d: u32) -> f64 {
        if d as usize >= self.beta.len() {
            f64::INFINITY
        } else {
            self.beta[d as usize]
        }
    }

    /// `α(u, d, t)` estimate (exposed for the ablation benches and tests).
    pub fn alpha(&self, d: u32, t: u32) -> f64 {
        let t_steps = self.alpha.len() / (self.d_max as usize + 1);
        self.alpha[d as usize * t_steps + t as usize]
    }

    /// The maximum distance the table covers.
    pub fn d_max(&self) -> u32 {
        self.d_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_exact::{diagonal, linearized, ExactParams};
    use srs_graph::bfs::{BfsBuffers, Direction};
    use srs_graph::gen::{self, fixtures};

    fn exact_scores(g: &Graph, u: VertexId, params: &SimRankParams) -> Vec<f64> {
        let ep = ExactParams::new(params.c, params.t);
        let d = diagonal::uniform(g.num_vertices() as usize, params.c);
        linearized::single_source(g, u, &ep, &d)
    }

    fn undirected_dist(g: &Graph, u: VertexId, depth: u32) -> BfsBuffers {
        let mut b = BfsBuffers::new(g.num_vertices());
        b.run(g, u, Direction::Undirected, depth);
        b
    }

    #[test]
    fn gamma_t0_is_sqrt_diag() {
        let g = fixtures::claw();
        let params = SimRankParams { r_gamma: 50, ..Default::default() };
        let gt = GammaTable::build(&g, &params, &Diagonal::paper_default(params.c), 1, 2);
        for u in 0..4 {
            assert!((gt.gamma(u, 0) - (0.4f64).sqrt()).abs() < 1e-6);
        }
        assert_eq!(gt.num_vertices(), 4);
        assert_eq!(gt.steps(), 11);
    }

    #[test]
    fn gamma_deterministic_and_parallel_consistent() {
        let g = gen::erdos_renyi(60, 240, 5);
        let params = SimRankParams { r_gamma: 40, ..Default::default() };
        let d = Diagonal::paper_default(params.c);
        let a = GammaTable::build(&g, &params, &d, 9, 1);
        let b = GammaTable::build(&g, &params, &d, 9, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn l2_bound_dominates_exact_scores() {
        let g = gen::copying_web(80, 4, 0.8, 3);
        let params = SimRankParams { r_gamma: 400, ..Default::default() };
        let diag = Diagonal::paper_default(params.c);
        let gt = GammaTable::build(&g, &params, &diag, 2, 2);
        let slack = 0.05; // Monte-Carlo noise allowance
        for u in [0u32, 10, 40] {
            let exact = exact_scores(&g, u, &params);
            for v in 0..80u32 {
                if v == u {
                    continue;
                }
                let bound = gt.l2_bound(u, v, params.c);
                assert!(
                    bound + slack >= exact[v as usize],
                    "u={u} v={v}: bound {bound} < exact {}",
                    exact[v as usize]
                );
            }
        }
    }

    #[test]
    fn l1_beta_dominates_exact_scores() {
        let g = gen::preferential_attachment(70, 3, 11);
        let params = SimRankParams { r_bounds: 20_000, ..Default::default() };
        let diag = Diagonal::paper_default(params.c);
        let slack = 0.03;
        for u in [1u32, 5, 33] {
            let bfs = undirected_dist(&g, u, params.d_max);
            let ab = AlphaBeta::compute(&g, u, &params, &diag, |w| bfs.distance(w), 4);
            let exact = exact_scores(&g, u, &params);
            for v in 0..70u32 {
                if v == u {
                    continue;
                }
                let d = bfs.distance(v);
                if d == UNREACHED {
                    continue;
                }
                assert!(
                    ab.beta(d) + slack >= exact[v as usize],
                    "u={u} v={v} d={d}: beta {} < exact {}",
                    ab.beta(d),
                    exact[v as usize]
                );
            }
        }
    }

    #[test]
    fn beta_uninformative_beyond_dmax() {
        let g = fixtures::path(5);
        let params = SimRankParams { r_bounds: 100, ..Default::default() };
        let bfs = undirected_dist(&g, 0, params.d_max);
        let ab =
            AlphaBeta::compute(&g, 0, &params, &Diagonal::paper_default(params.c), |w| bfs.distance(w), 1);
        assert_eq!(ab.beta(params.d_max + 5), f64::INFINITY);
        assert_eq!(ab.d_max(), params.d_max);
    }

    #[test]
    fn alpha_at_origin() {
        // α(u, 0, 0) = D_uu (the walk starts at u with probability 1).
        let g = fixtures::claw();
        let params = SimRankParams { r_bounds: 100, ..Default::default() };
        let bfs = undirected_dist(&g, 0, params.d_max);
        let ab =
            AlphaBeta::compute(&g, 0, &params, &Diagonal::paper_default(params.c), |w| bfs.distance(w), 1);
        assert!((ab.alpha(0, 0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn split_sampling_over_targeted_bfs_is_bit_identical() {
        // `sample_into` + `bin_into` over a BFS stopped at the sampled
        // positions must reproduce `compute_into` over the full BFS to the
        // bit — the query path relies on it for byte-identical hits.
        let g = gen::copying_web(400, 4, 0.8, 17);
        let params = SimRankParams { r_bounds: 300, ..Default::default() };
        let diag = Diagonal::paper_default(params.c);
        let dead = (0..400).find(|&v| g.in_degree(v) == 0).expect("an in-degree-0 vertex");
        let hub = (0..400).max_by_key(|&v| g.in_degree(v)).unwrap();
        let (mut walks, mut counter) = (WalkPositions::new(), PositionCounter::new());
        let mut targeted = BfsBuffers::new(400);
        let mut targets = Vec::new();
        for u in [dead, hub, 3, 77, 250] {
            let full = undirected_dist(&g, u, params.d_max);
            let mut want = AlphaBeta::new_empty();
            want.compute_into(&g, u, &params, &diag, |w| full.distance(w), 9, &mut walks, &mut counter);
            let mut got = AlphaBeta::new_empty();
            got.sample_into(&g, u, &params, 9, &mut walks, &mut counter);
            targets.clear();
            targets.extend(got.sampled_positions());
            if u == dead {
                assert!(targets.iter().all(|&w| w == dead), "walks from {u} died at step 0");
            }
            targeted.run_to_targets(&g, u, Direction::Undirected, params.d_max, 0, &targets);
            got.bin_into(&params, &diag, |w| targeted.distance(w));
            for d in 0..=params.d_max {
                assert_eq!(got.beta(d).to_bits(), want.beta(d).to_bits(), "u={u} d={d}");
                for t in 0..params.t {
                    assert_eq!(got.alpha(d, t).to_bits(), want.alpha(d, t).to_bits(), "u={u} d={d} t={t}");
                }
            }
        }
    }

    #[test]
    fn l2_symmetric_in_uv() {
        let g = gen::erdos_renyi(40, 160, 8);
        let params = SimRankParams { r_gamma: 60, ..Default::default() };
        let gt = GammaTable::build(&g, &params, &Diagonal::paper_default(params.c), 3, 2);
        assert_eq!(gt.l2_bound(3, 17, params.c), gt.l2_bound(17, 3, params.c));
    }

    #[test]
    fn memory_accounting() {
        let g = gen::erdos_renyi(100, 300, 1);
        let params = SimRankParams { r_gamma: 10, ..Default::default() };
        let gt = GammaTable::build(&g, &params, &Diagonal::paper_default(params.c), 1, 2);
        assert_eq!(gt.memory_bytes(), 100 * 11 * 4);
    }
}
