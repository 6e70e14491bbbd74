//! Algorithm 1 — Monte-Carlo single-pair SimRank.
//!
//! Estimates `s⁽ᵀ⁾(u, v) = Σ_{t<T} cᵗ (Pᵗe_u)ᵀ D (Pᵗe_v)` from `R`
//! independent reverse random walks per endpoint. Each term is estimated by
//! the co-location count (equation (14)):
//!
//! ```text
//! cᵗ E[e_{u(t)}]ᵀ D E[e_{v(t)}] ≈ (cᵗ / R²) Σ_w D_ww · α(w) · β(w)
//! ```
//!
//! where `α(w)` / `β(w)` count the `u`-walks / `v`-walks at `w` at step
//! `t`. Because the two walk sets are independent, the product of the
//! empirical means is an unbiased estimator of the product of expectations.
//!
//! The cost is `O(T · R)` — independent of graph size, the property the
//! paper's scalability rests on (Section 4).
//!
//! Buffer ownership is split in two layers so the batch query engine can
//! pool state without borrowing the graph: [`EstimatorBuffers`] is the
//! lifetime-free scratch (walk positions + counters) that lives inside a
//! pooled `QueryScratch`, while [`SinglePairEstimator`] bundles it with a
//! [`WalkEngine`] and [`Diagonal`] for convenient standalone use. Either
//! way, a query evaluating hundreds of candidates allocates nothing after
//! the first call.

use crate::{Diagonal, SimRankParams};
use srs_graph::{Graph, VertexId};
use srs_mc::multiset::PositionCounter;
use srs_mc::{Pcg32, WalkEngine, WalkPositions};

/// Lifetime-free Algorithm 1 scratch: two walk-position buffers and two
/// position counters, reused across every estimate. The graph is passed
/// per call (as a [`WalkEngine`]) instead of being borrowed, so this can
/// sit in a pooled, `'static` query state.
#[derive(Default)]
pub struct EstimatorBuffers {
    pos_u: Vec<VertexId>,
    pos_v: Vec<VertexId>,
    count_u: PositionCounter,
    count_v: PositionCounter,
}

impl EstimatorBuffers {
    /// Empty buffers; they grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Estimates `s(u, v)` with `r` walks per endpoint, deterministically in
    /// `seed`. Returns exactly 1 for `u == v`.
    #[allow(clippy::too_many_arguments)] // graph state is per-call by design
    pub fn estimate(
        &mut self,
        engine: &WalkEngine<'_>,
        diag: &Diagonal,
        u: VertexId,
        v: VertexId,
        params: &SimRankParams,
        r: u32,
        seed: u64,
    ) -> f64 {
        if u == v {
            return 1.0;
        }
        let r = r as usize;
        self.pos_u.clear();
        self.pos_u.resize(r, u);
        self.pos_v.clear();
        self.pos_v.resize(r, v);
        let mut rng = Pcg32::from_parts(&[seed, u as u64, v as u64]);
        let r2 = (r * r) as f64;
        let mut sigma = 0.0;
        let mut ct = 1.0;
        // t = 0 contributes only when u == v (handled above). Each later
        // term is produced by one fused step+count pass per frontier; once
        // either frontier dies out every remaining term is zero.
        for _t in 1..params.t {
            ct *= params.c;
            engine.step_frontier_count(&mut self.pos_u, &mut rng, &mut self.count_u);
            engine.step_frontier_count(&mut self.pos_v, &mut rng, &mut self.count_v);
            sigma += ct * self.weighted_dot(diag) / r2;
            if self.pos_u.is_empty() || self.pos_v.is_empty() {
                break;
            }
        }
        sigma
    }

    /// Estimates `s(src.source, v)` reusing a prebuilt set of source
    /// walks. A top-k query evaluates dozens-to-thousands of candidates
    /// against the *same* query vertex, so its walk work can be generated
    /// once ([`SourceWalks::generate`]) and shared — the estimates stay
    /// individually unbiased (the two walk sets remain independent),
    /// they just become correlated *across* candidates, which ranking
    /// tolerates. Opt-in via `QueryOptions::share_source_walks`.
    #[allow(clippy::too_many_arguments)] // graph state is per-call by design
    pub fn estimate_from_source(
        &mut self,
        engine: &WalkEngine<'_>,
        diag: &Diagonal,
        src: &SourceWalks,
        v: VertexId,
        params: &SimRankParams,
        r: u32,
        seed: u64,
    ) -> f64 {
        if src.source == v {
            return 1.0;
        }
        assert_eq!(src.counters.len(), params.t as usize, "source walks horizon mismatch");
        let r = r as usize;
        self.pos_v.clear();
        self.pos_v.resize(r, v);
        let mut rng = Pcg32::from_parts(&[seed, 0x55AA, v as u64]);
        let norm = (src.r as usize * r) as f64;
        let mut sigma = 0.0;
        let mut ct = 1.0;
        for t in 1..params.t {
            ct *= params.c;
            engine.step_frontier_count(&mut self.pos_v, &mut rng, &mut self.count_v);
            sigma += ct * self.weighted_dot_with(diag, &src.counters[t as usize]) / norm;
            if self.pos_v.is_empty() {
                break;
            }
        }
        sigma
    }

    /// `Σ_w D_ww · counts(w) · count_v(w)` against an external counter.
    fn weighted_dot_with(&self, diag: &Diagonal, source_counts: &PositionCounter) -> f64 {
        match diag {
            Diagonal::Uniform(x) => *x * source_counts.dot(&self.count_v) as f64,
            Diagonal::PerVertex(d) => {
                let (a, b) = if source_counts.distinct() <= self.count_v.distinct() {
                    (source_counts, &self.count_v)
                } else {
                    (&self.count_v, source_counts)
                };
                a.iter().map(|(w, cu)| d[w as usize] * cu as f64 * b.count(w) as f64).sum()
            }
        }
    }

    /// `Σ_w D_ww · count_u(w) · count_v(w)` over the co-located vertices.
    fn weighted_dot(&self, diag: &Diagonal) -> f64 {
        match diag {
            Diagonal::Uniform(x) => *x * self.count_u.dot(&self.count_v) as f64,
            Diagonal::PerVertex(d) => {
                // Iterate the smaller table.
                let (a, b) = if self.count_u.distinct() <= self.count_v.distinct() {
                    (&self.count_u, &self.count_v)
                } else {
                    (&self.count_v, &self.count_u)
                };
                a.iter().map(|(w, cu)| d[w as usize] * cu as f64 * b.count(w) as f64).sum()
            }
        }
    }
}

/// Reusable Algorithm 1 estimator: [`EstimatorBuffers`] bundled with the
/// graph's walk engine and a diagonal, for standalone (non-pooled) use.
pub struct SinglePairEstimator<'g> {
    engine: WalkEngine<'g>,
    diag: Diagonal,
    buffers: EstimatorBuffers,
}

impl<'g> SinglePairEstimator<'g> {
    /// Creates an estimator over `g` with diagonal `diag` (use
    /// [`Diagonal::paper_default`] for `D = (1−c) I`).
    pub fn new(g: &'g Graph, diag: Diagonal) -> Self {
        SinglePairEstimator { engine: WalkEngine::new(g), diag, buffers: EstimatorBuffers::new() }
    }

    /// Estimates `s(u, v)` with `r` walks per endpoint, deterministically in
    /// `seed`. Returns exactly 1 for `u == v`.
    pub fn estimate(&mut self, u: VertexId, v: VertexId, params: &SimRankParams, r: u32, seed: u64) -> f64 {
        self.buffers.estimate(&self.engine, &self.diag, u, v, params, r, seed)
    }

    /// See [`EstimatorBuffers::estimate_from_source`].
    pub fn estimate_from_source(
        &mut self,
        src: &SourceWalks,
        v: VertexId,
        params: &SimRankParams,
        r: u32,
        seed: u64,
    ) -> f64 {
        self.buffers.estimate_from_source(&self.engine, &self.diag, src, v, params, r, seed)
    }
}

/// Prebuilt reverse-walk position counts from one source vertex: the
/// per-step multiset of `R` walk positions, ready for repeated inner
/// products against candidate walk sets.
pub struct SourceWalks {
    source: VertexId,
    r: u32,
    /// One aggregated counter per step `t ∈ 0..T`.
    counters: Vec<PositionCounter>,
}

impl SourceWalks {
    /// An empty placeholder (no walks, no allocation) to be filled by
    /// [`SourceWalks::generate_into`]. Its source is the `DEAD` sentinel,
    /// which never equals a real vertex id.
    pub fn new_empty() -> Self {
        SourceWalks { source: srs_mc::DEAD, r: 0, counters: Vec::new() }
    }

    /// Simulates `r` reverse walks from `u` and aggregates their positions
    /// per step. Deterministic in `seed`.
    pub fn generate(g: &Graph, u: VertexId, params: &SimRankParams, r: u32, seed: u64) -> Self {
        let mut walks = Self::new_empty();
        walks.generate_into(g, u, params, r, seed, &mut WalkPositions::new());
        walks
    }

    /// [`SourceWalks::generate`] into existing storage: the per-step
    /// counters and the caller's walk buffer are reused, so a warm query
    /// worker regenerates source walks without allocating. Results are
    /// bit-identical to `generate` for the same inputs.
    pub fn generate_into(
        &mut self,
        g: &Graph,
        u: VertexId,
        params: &SimRankParams,
        r: u32,
        seed: u64,
        walks: &mut WalkPositions,
    ) {
        let engine = WalkEngine::new(g);
        let mut rng = Pcg32::from_parts(&[seed, 0xAA55, u as u64]);
        walks.reset(u, r as usize);
        let t_steps = params.t as usize;
        self.counters.resize_with(t_steps, PositionCounter::new);
        self.counters[0].fill(walks.positions());
        let mut t = 1;
        while t < t_steps && !walks.is_empty() {
            walks.step_count(&engine, &mut rng, &mut self.counters[t]);
            t += 1;
        }
        // If every walk died early, stale counts from a previous use of
        // this storage must not leak into the (all-zero) remaining steps.
        for counter in &mut self.counters[t..] {
            counter.clear();
        }
        self.source = u;
        self.r = r;
    }

    /// The source vertex.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Number of walks aggregated.
    pub fn num_walks(&self) -> u32 {
        self.r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_graph::gen::{self, fixtures};

    fn mean_estimate(
        g: &Graph,
        u: VertexId,
        v: VertexId,
        params: &SimRankParams,
        r: u32,
        trials: u64,
    ) -> f64 {
        let mut est = SinglePairEstimator::new(g, Diagonal::paper_default(params.c));
        (0..trials).map(|s| est.estimate(u, v, params, r, 1000 + s)).sum::<f64>() / trials as f64
    }

    #[test]
    fn identical_vertices_score_one() {
        let g = fixtures::claw();
        let mut est = SinglePairEstimator::new(&g, Diagonal::paper_default(0.6));
        assert_eq!(est.estimate(2, 2, &SimRankParams::default(), 10, 1), 1.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = gen::erdos_renyi(50, 200, 3);
        let params = SimRankParams::default();
        let mut est = SinglePairEstimator::new(&g, Diagonal::paper_default(params.c));
        let a = est.estimate(1, 2, &params, 50, 7);
        let b = est.estimate(1, 2, &params, 50, 7);
        assert_eq!(a, b);
        let c = est.estimate(1, 2, &params, 50, 8);
        // Different seed virtually always gives a different estimate here.
        assert_ne!(a, c);
    }

    #[test]
    fn matches_linearized_exact_on_claw() {
        // Claw, c = 0.8, uniform D: the walks from two leaves meet at the
        // hub deterministically at t = 1 (then spread), so even modest R
        // gives tight estimates.
        let g = fixtures::claw();
        let params = SimRankParams { c: 0.8, t: 11, ..Default::default() };
        let exact = srs_exact::linearized::single_pair(
            &g,
            1,
            2,
            &srs_exact::ExactParams::new(0.8, 11),
            &srs_exact::diagonal::uniform(4, 0.8),
        );
        let est = mean_estimate(&g, 1, 2, &params, 100, 64);
        assert!((est - exact).abs() < 0.02, "est={est} exact={exact}");
    }

    #[test]
    fn matches_linearized_exact_on_random_graph() {
        let g = gen::erdos_renyi(40, 200, 17);
        let params = SimRankParams::default();
        let ep = srs_exact::ExactParams::new(params.c, params.t);
        let d = srs_exact::diagonal::uniform(40, params.c);
        for (u, v) in [(0u32, 1u32), (5, 9), (12, 30)] {
            let exact = srs_exact::linearized::single_pair(&g, u, v, &ep, &d);
            let est = mean_estimate(&g, u, v, &params, 200, 48);
            assert!((est - exact).abs() < 0.015, "({u},{v}): est={est} exact={exact}");
        }
    }

    #[test]
    fn per_vertex_diagonal_supported() {
        let g = fixtures::claw();
        let params = SimRankParams { c: 0.8, t: 20, ..Default::default() };
        let d_exact =
            srs_exact::diagonal::estimate(&g, &srs_exact::ExactParams::new(0.8, 40), 1e-8, 100).unwrap();
        let diag = Diagonal::PerVertex(std::sync::Arc::new(d_exact.clone()));
        let mut est = SinglePairEstimator::new(&g, diag);
        let mean: f64 = (0..64).map(|s| est.estimate(1, 2, &params, 100, s)).sum::<f64>() / 64.0;
        // True SimRank s(1,2) = 0.8 (Example 1).
        assert!((mean - 0.8).abs() < 0.03, "mean={mean}");
    }

    #[test]
    fn shared_source_estimates_match_independent_in_expectation() {
        let g = gen::copying_web(80, 4, 0.8, 6);
        let params = SimRankParams::default();
        let ep = srs_exact::ExactParams::new(params.c, params.t);
        let d = srs_exact::diagonal::uniform(80, params.c);
        let mut est = SinglePairEstimator::new(&g, Diagonal::paper_default(params.c));
        for v in [1u32, 17, 40] {
            let exact = srs_exact::linearized::single_pair(&g, 3, v, &ep, &d);
            let mut mean = 0.0;
            let trials = 48;
            for s in 0..trials {
                let src = SourceWalks::generate(&g, 3, &params, 150, 500 + s);
                mean += est.estimate_from_source(&src, v, &params, 150, 900 + s);
            }
            mean /= trials as f64;
            assert!((mean - exact).abs() < 0.02, "v={v}: mean {mean} vs exact {exact}");
        }
    }

    #[test]
    fn shared_source_identity_and_determinism() {
        let g = fixtures::claw();
        let params = SimRankParams { c: 0.8, ..Default::default() };
        let src = SourceWalks::generate(&g, 1, &params, 50, 7);
        assert_eq!(src.source(), 1);
        assert_eq!(src.num_walks(), 50);
        let mut est = SinglePairEstimator::new(&g, Diagonal::paper_default(0.8));
        assert_eq!(est.estimate_from_source(&src, 1, &params, 50, 1), 1.0);
        let a = est.estimate_from_source(&src, 2, &params, 50, 1);
        let b = est.estimate_from_source(&src, 2, &params, 50, 1);
        assert_eq!(a, b);
        assert!(a > 0.1, "leaves co-locate at the hub: {a}");
    }

    #[test]
    fn generate_into_matches_generate_and_reuses_storage() {
        let g = gen::copying_web(120, 4, 0.8, 9);
        let params = SimRankParams::default();
        let mut est = SinglePairEstimator::new(&g, Diagonal::paper_default(params.c));
        let mut reused = SourceWalks::new_empty();
        let mut walk_buf = WalkPositions::new();
        // Fill the reused instance from a *different* source first, then
        // regenerate — stale counters must not leak into the estimates.
        reused.generate_into(&g, 77, &params, 80, 3, &mut walk_buf);
        reused.generate_into(&g, 5, &params, 120, 11, &mut walk_buf);
        let fresh = SourceWalks::generate(&g, 5, &params, 120, 11);
        assert_eq!(reused.source(), fresh.source());
        assert_eq!(reused.num_walks(), fresh.num_walks());
        for v in [0u32, 9, 44, 100] {
            let a = est.estimate_from_source(&fresh, v, &params, 100, 42);
            let b = est.estimate_from_source(&reused, v, &params, 100, 42);
            assert_eq!(a, b, "v={v}");
        }
    }

    #[test]
    fn disconnected_pair_scores_zero() {
        let g = srs_graph::Graph::from_edges(4, vec![(0, 1), (2, 3)]).unwrap();
        let mut est = SinglePairEstimator::new(&g, Diagonal::paper_default(0.6));
        assert_eq!(est.estimate(1, 3, &SimRankParams::default(), 50, 3), 0.0);
    }

    #[test]
    fn estimates_bounded_below_by_zero() {
        let g = gen::preferential_attachment(60, 3, 4);
        let params = SimRankParams::default();
        let mut est = SinglePairEstimator::new(&g, Diagonal::paper_default(params.c));
        for s in 0..20 {
            let v = est.estimate(3, 7, &params, 20, s);
            assert!(v >= 0.0);
        }
    }
}
