//! Algorithm 5 — the top-k similarity query, plus the preprocess driver.
//!
//! [`TopKIndex::build`] runs the preprocess phase (γ table, Algorithm 3;
//! candidate index, Algorithm 4) — `O(n (R + PQ) T)` time, `O(n)` space,
//! exactly the paper's §7.1. [`TopKIndex::query`] then answers a top-k
//! query (Algorithm 5):
//!
//! 1. enumerate candidates `S = {v : Γ(u) ∩ Γ(v) ≠ ∅}` from the index
//!    (none: the query is answered, empty, with no further work);
//! 2. sort by undirected distance (the §2.2 "ascending order of distance"
//!    scan; the BFS stops at the last vertex whose distance is read) and
//!    prune with the three upper bounds
//!    (`min(c^d, β(u,d), L2(u,v))` against `max(θ, current k-th score)`);
//! 3. adaptive sampling: coarse estimate with `R = 10` walks, refine the
//!    survivors with `R = 100` (§7.2);
//! 4. return the k highest refined scores.
//!
//! Every pruning knob can be disabled through [`QueryOptions`] — that is
//! what the ablation benches sweep.

use crate::bounds::{AlphaBeta, GammaTable};
use crate::index::{CandidateIndex, SeenStamps};
use crate::obs::{BuildObs, QueryLocalObs, ServingMetrics, StageTimings};
use crate::single_pair::{EstimatorBuffers, SourceWalks};
use crate::{Diagonal, SimRankParams};
use srs_graph::bfs::{BfsBuffers, Direction, UNREACHED};
use srs_graph::hash::mix_seed;
use srs_graph::{Graph, VertexId};
use srs_mc::multiset::PositionCounter;
use srs_mc::{WalkEngine, WalkPositions};
use srs_obs::{CandidateFate, CandidateRecord, ExplainTrace};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// When to answer a query with the **deterministic fast tier** — one
/// `O(Tm)` forward–backward pass of the linearized series
/// (`srs_exact::linearized::single_source_into`) over the whole graph —
/// instead of the Monte-Carlo bounded scan (Algorithm 5).
///
/// The MC scan's cost scales with the candidate count, and its bounds
/// prune worst for exactly the vertices that have the most candidates
/// (high-degree hubs whose walks co-locate with everything). For those
/// queries one deterministic pass is both faster and noise-free; for the
/// long tail of low-degree vertices the scan examines a few hundred
/// candidates and remains far cheaper than touching every edge.
///
/// The tier is deterministic by construction (no RNG is consumed — a
/// fast-tier answer never perturbs any other query's walk streams) and
/// scores every vertex, so its hits need no recall caveat: they are the
/// exact truncated-series top-k at the query's `θ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FastTier {
    /// Never — always the MC scan (the PR 6 baseline; bit-identical
    /// results to builds that predate the tier).
    #[default]
    Off,
    /// Route through the heuristic: fast tier iff the query vertex's
    /// candidate upper bound ([`CandidateIndex::candidate_upper_bound`])
    /// reaches [`QueryOptions::fast_tier_min_candidates`] or its total
    /// degree reaches [`QueryOptions::fast_tier_min_degree`].
    Auto,
    /// Every query takes the fast tier (accuracy tests, dense graphs).
    Always,
}

impl FastTier {
    /// Parses the CLI spelling (`off` / `auto` / `always`).
    pub fn parse(s: &str) -> Option<FastTier> {
        match s {
            "off" => Some(FastTier::Off),
            "auto" => Some(FastTier::Auto),
            "always" => Some(FastTier::Always),
            _ => None,
        }
    }
}

/// One result row: a vertex and its estimated SimRank score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// The similar vertex.
    pub vertex: VertexId,
    /// Monte-Carlo estimate of `s(query, vertex)`.
    pub score: f64,
}

/// Query-time switches (all bounds on, adaptive sampling on, by default).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOptions {
    /// Prune with the trivial bound `s(u,v) ≤ c^d`.
    pub use_distance_bound: bool,
    /// Prune with the L1 bound `β(u, d)` (Algorithm 2, per query).
    pub use_l1: bool,
    /// Prune with the L2 bound `Σ cᵗ γγ` (Algorithm 3, precomputed).
    pub use_l2: bool,
    /// Two-stage adaptive sampling (§7.2). When off, every surviving
    /// candidate is refined directly.
    pub adaptive: bool,
    /// Slack subtracted from the running k-th score before pruning, to
    /// absorb Monte-Carlo noise in the bounds and estimates.
    pub bound_slack: f64,
    /// Tighten the pruning threshold with the running k-th heap score
    /// (Algorithm 5's `max(θ, kth − slack)`). On by default — it is the
    /// main source of pruning power once the heap fills. Off, pruning
    /// uses `θ` alone, which makes every per-candidate decision
    /// independent of scan order and candidate partition: the reported
    /// set becomes exactly "all candidates with refined score ≥ θ"
    /// (truncated to the top k), so sharded scatter-gather can merge
    /// per-shard top-k lists bit-identically to an unsharded scan. The
    /// sharded engine forces this off; single-node serving keeps it on.
    pub kth_prune: bool,
    /// A candidate is refined when its coarse estimate reaches this
    /// fraction of the pruning threshold.
    pub coarse_fraction: f64,
    /// Extension beyond the paper: additionally treat every vertex within
    /// this undirected distance of the query as a candidate. Raises recall
    /// on graphs where the random-walk index misses borderline pairs, at
    /// the cost of more bound evaluations. `None` (default) is the paper's
    /// pure Algorithm 5.
    pub candidate_ball: Option<u32>,
    /// Overrides the index's score threshold `θ` for this query (used by
    /// the Table 3 accuracy experiment, which sweeps thresholds).
    pub theta: Option<f64>,
    /// Extension beyond the paper: generate the query vertex's walks once
    /// and share them across all candidate estimates (each estimate stays
    /// unbiased; estimates become correlated across candidates, which
    /// ranking tolerates). Roughly halves estimation work per candidate.
    pub share_source_walks: bool,
    /// Record a per-candidate [`ExplainTrace`] into
    /// [`TopKResult::explain`]: every enumerated candidate's fate (which
    /// bound pruned it, or how its refinement scored) with the bound value
    /// vs. the running threshold. Off by default — the trace allocates and
    /// is meant for interactive debugging, not the serving path. Scores
    /// and stats are unaffected either way.
    pub explain: bool,
    /// Deterministic fast-tier routing policy (see [`FastTier`]). `Off`
    /// by default: results are then bit-identical to builds without the
    /// tier.
    pub fast_tier: FastTier,
    /// `FastTier::Auto` threshold: take the fast tier when the query
    /// vertex's candidate upper bound (pre-dedup candidate list length,
    /// known in `O(signatures)` before enumeration) is at least this.
    pub fast_tier_min_candidates: u64,
    /// `FastTier::Auto` threshold: take the fast tier when the query
    /// vertex's total (in + out) degree is at least this — the cheap
    /// hub signal that needs no index lookup at all.
    pub fast_tier_min_degree: u64,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            use_distance_bound: true,
            use_l1: true,
            use_l2: true,
            adaptive: true,
            bound_slack: 0.02,
            kth_prune: true,
            coarse_fraction: 0.5,
            candidate_ball: None,
            theta: None,
            share_source_walks: false,
            explain: false,
            fast_tier: FastTier::Off,
            fast_tier_min_candidates: 4096,
            fast_tier_min_degree: 512,
        }
    }
}

impl QueryOptions {
    /// A stable 64-bit fingerprint over every field (floats hashed by bit
    /// pattern), used as the options component of result-cache keys and as
    /// a cheap pre-filter when coalescing requests into engine batches.
    /// Equal options always fingerprint equal; callers that must never
    /// confuse two option sets (the cache, the coalescer) additionally
    /// compare with `==` on fingerprint match, so a collision can cost a
    /// missed share but never a wrong answer.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = srs_graph::hash::FxHasher::default();
        self.use_distance_bound.hash(&mut h);
        self.use_l1.hash(&mut h);
        self.use_l2.hash(&mut h);
        self.adaptive.hash(&mut h);
        self.bound_slack.to_bits().hash(&mut h);
        self.kth_prune.hash(&mut h);
        self.coarse_fraction.to_bits().hash(&mut h);
        self.candidate_ball.hash(&mut h);
        self.theta.map(f64::to_bits).hash(&mut h);
        self.share_source_walks.hash(&mut h);
        self.explain.hash(&mut h);
        self.fast_tier.hash(&mut h);
        self.fast_tier_min_candidates.hash(&mut h);
        self.fast_tier_min_degree.hash(&mut h);
        h.finish()
    }
}

/// Counters describing how a query was answered (pruning effectiveness —
/// the quantities behind the paper's §8.1 discussion).
///
/// The five fate counters partition the enumerated candidates — the
/// accounting identity `candidates == pruned_distance + pruned_bounds +
/// pruned_coarse + refined + reported` ([`QueryStats::fates_accounted`])
/// holds for every query and is `debug_assert`ed on the query path, so
/// pruning counters can never silently drift.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Candidates enumerated from the index.
    pub candidates: u64,
    /// Candidates discarded by the `c^d` bound (incl. out-of-horizon ones).
    pub pruned_distance: u64,
    /// Candidates discarded by the L1/L2 bounds.
    pub pruned_bounds: u64,
    /// Candidates discarded after the coarse pass.
    pub pruned_coarse: u64,
    /// Candidates refined with the full walk budget whose score landed
    /// below θ (refinement work that produced no hit).
    pub refined: u64,
    /// Candidates refined with the full walk budget whose score reached θ
    /// (offered to the top-k heap; lower scorers may still be evicted).
    pub reported: u64,
    /// Vertices visited by the query-time BFS, which stops at the last
    /// vertex whose distance the query reads (its candidates, its L1 walk
    /// positions, and with the candidate ball the whole ball) and is
    /// skipped, at 0, for a query with no candidates.
    pub bfs_visited: u64,
    /// Reverse walk steps performed answering the query (L1 table, coarse
    /// and refine estimates — everything the walk kernels stepped).
    pub walk_steps: u64,
    /// Queries answered by the deterministic fast tier (0 or 1 per
    /// query; a fast-tier answer enumerates no candidates, so every fate
    /// counter above stays 0 and the accounting identity holds).
    pub fast_tier_queries: u64,
    /// Queries where `FastTier::Auto` was consulted but the heuristic
    /// routed to the MC scan.
    pub fast_tier_fallbacks: u64,
}

impl QueryStats {
    /// Adds `other`'s counters into `self` (used to aggregate per-worker
    /// totals in the batch engine and the all-vertices driver).
    pub fn accumulate(&mut self, other: &QueryStats) {
        self.candidates += other.candidates;
        self.pruned_distance += other.pruned_distance;
        self.pruned_bounds += other.pruned_bounds;
        self.pruned_coarse += other.pruned_coarse;
        self.refined += other.refined;
        self.reported += other.reported;
        self.bfs_visited += other.bfs_visited;
        self.walk_steps += other.walk_steps;
        self.fast_tier_queries += other.fast_tier_queries;
        self.fast_tier_fallbacks += other.fast_tier_fallbacks;
    }

    /// The checked accounting identity: every enumerated candidate has
    /// exactly one fate.
    pub fn fates_accounted(&self) -> bool {
        self.candidates
            == self.pruned_distance + self.pruned_bounds + self.pruned_coarse + self.refined + self.reported
    }

    /// Candidates that paid the full refinement budget, regardless of
    /// whether the score reached θ (the cost-side number callers report).
    pub fn refine_calls(&self) -> u64 {
        self.refined + self.reported
    }
}

/// A finished query: hits sorted by descending score, plus counters.
#[derive(Debug, Clone, Default)]
pub struct TopKResult {
    /// Up to `k` hits, best first.
    pub hits: Vec<Hit>,
    /// Pruning counters.
    pub stats: QueryStats,
    /// Per-candidate trace, present iff [`QueryOptions::explain`] was set.
    pub explain: Option<ExplainTrace>,
    /// Wall-clock stage durations for this query (observations, not
    /// results — see [`StageTimings`]). A cache-served answer carries
    /// the timings of the query that originally computed it.
    pub timings: StageTimings,
}

/// The preprocess artifact: γ table + candidate index (+ parameters and the
/// seed that keeps query-time randomness reproducible).
#[derive(Debug, Clone)]
pub struct TopKIndex {
    pub(crate) params: SimRankParams,
    pub(crate) diag: Diagonal,
    pub(crate) gamma: GammaTable,
    pub(crate) candidates: CandidateIndex,
    pub(crate) seed: u64,
}

impl TopKIndex {
    /// Runs the preprocess phase with the paper's default diagonal
    /// `D = (1−c) I`, using all available parallelism.
    pub fn build(g: &Graph, params: &SimRankParams, seed: u64) -> Self {
        let threads = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
        Self::build_with(g, params, Diagonal::paper_default(params.c), seed, threads)
    }

    /// Full-control preprocess: explicit diagonal and thread count.
    pub fn build_with(g: &Graph, params: &SimRankParams, diag: Diagonal, seed: u64, threads: usize) -> Self {
        Self::build_observed(g, params, diag, seed, threads, &BuildObs::default())
    }

    /// [`TopKIndex::build_with`] with observation hooks: per-stage
    /// duration histograms (`srs_build_stage_ns`) and a vertices/sec
    /// progress reporter. The built index is bit-identical to the
    /// unobserved build — the hooks only read clocks and bump counters,
    /// never an RNG stream.
    pub fn build_observed(
        g: &Graph,
        params: &SimRankParams,
        diag: Diagonal,
        seed: u64,
        threads: usize,
        obs: &BuildObs<'_>,
    ) -> Self {
        params.validate();
        let t0 = Instant::now();
        let gamma = GammaTable::build(g, params, &diag, mix_seed(&[seed, 1]), threads);
        if let Some(m) = obs.metrics {
            m.build_stages[0].observe(t0.elapsed().as_nanos() as u64);
        }
        let candidates = CandidateIndex::build_observed(g, params, mix_seed(&[seed, 2]), threads, obs);
        TopKIndex { params: params.clone(), diag, gamma, candidates, seed }
    }

    /// The parameters the index was built with.
    pub fn params(&self) -> &SimRankParams {
        &self.params
    }

    /// The γ table (L2 bound; exposed for benches and tests).
    pub fn gamma(&self) -> &GammaTable {
        &self.gamma
    }

    /// The candidate index (exposed for benches and tests).
    pub fn candidate_index(&self) -> &CandidateIndex {
        &self.candidates
    }

    /// Preprocess artifact size in bytes (the "Index" column of Table 4).
    pub fn memory_bytes(&self) -> u64 {
        self.gamma.memory_bytes() + self.candidates.memory_bytes()
    }

    /// Index bytes split by backing (heap-resident versus `mmap`-served).
    /// A per-vertex diagonal counts as resident — it is always decoded
    /// onto the heap.
    pub fn memory_profile(&self) -> srs_graph::MemoryProfile {
        let mut p = self.gamma.memory_profile();
        p.merge(self.candidates.memory_profile());
        if let crate::Diagonal::PerVertex(v) = &self.diag {
            p.add_resident((v.len() * 8) as u64);
        }
        p
    }

    /// Answers a top-k query (Algorithm 5). Allocates fresh query state;
    /// for repeated queries prefer [`QueryContext`].
    pub fn query(&self, g: &Graph, u: VertexId, k: usize, opts: &QueryOptions) -> TopKResult {
        QueryContext::new(g, self).query(u, k, opts)
    }
}

/// Lifetime-free, reusable per-worker query state: every buffer Algorithm 5
/// touches, owned in one place so that a warm worker answers a query
/// without heap allocation. The graph and index are passed per call,
/// which lets the batch engine keep scratches in a `'static` pool.
///
/// [`QueryScratch::query_into`] is the staged pipeline: candidate lookup
/// → L1 walk sampling → a BFS stopped at the vertices whose distance is
/// read → L1 binning and shared source walks → bounded/adaptive scan →
/// hit collection. A query with no candidate stops after the lookup.
/// Each stage consumes its own deterministic seed stream, so neither
/// batching nor thread count can perturb scores.
pub struct QueryScratch {
    /// Query-time BFS, stopped at its targets.
    bfs: BfsBuffers,
    /// The BFS targets: every vertex whose distance the query reads.
    targets: Vec<VertexId>,
    /// Algorithm 1 walk/counter buffers.
    estimator: EstimatorBuffers,
    /// Algorithm 2 L1 table storage (recomputed per query when enabled).
    l1: AlphaBeta,
    /// Shared walk-position buffer for the L1 table and source walks.
    walks: WalkPositions,
    /// Position counter for the L1 table.
    counter: PositionCounter,
    /// Shared source walks (when `QueryOptions::share_source_walks`).
    source_walks: SourceWalks,
    /// Candidate ids straight from the index.
    cand_ids: Vec<VertexId>,
    /// Candidates keyed for the ascending-distance scan.
    cands: Vec<(u32, VertexId)>,
    /// Epoch-stamped dedup buffer for candidate enumeration and the
    /// candidate-ball extension (O(1) reset per query).
    seen: SeenStamps,
    /// Running top-k (min-heap on score).
    heap: BinaryHeap<Reverse<HeapHit>>,
    /// Fast-tier state (linearized pass scratch + score vector). Empty
    /// until the first fast-tier query through this scratch — a pool
    /// serving `FastTier::Off` traffic never pays its `O(Tn)` doubles.
    fast: FastTierScratch,
    /// Stage-duration accumulators, drained by the engine at batch end.
    obs: QueryLocalObs,
}

/// Scratch for the deterministic fast tier: the linearized pass's
/// forward/backward vectors, the full score vector it produces, and a
/// uniform-diagonal expansion buffer (`single_source_into` takes `D` as
/// a dense slice).
#[derive(Default)]
struct FastTierScratch {
    lin: srs_exact::linearized::SingleSourceScratch,
    scores: Vec<f64>,
    diag: Vec<f64>,
}

impl QueryScratch {
    /// Creates scratch state sized for `g`. Everything else grows on first
    /// use and is retained across queries.
    pub fn new(g: &Graph) -> Self {
        QueryScratch {
            bfs: BfsBuffers::new(g.num_vertices()),
            targets: Vec::new(),
            estimator: EstimatorBuffers::new(),
            l1: AlphaBeta::new_empty(),
            walks: WalkPositions::new(),
            counter: PositionCounter::new(),
            source_walks: SourceWalks::new_empty(),
            cand_ids: Vec::new(),
            cands: Vec::new(),
            seen: SeenStamps::new(),
            heap: BinaryHeap::new(),
            fast: FastTierScratch::default(),
            obs: QueryLocalObs::new(),
        }
    }

    /// Drains this scratch's stage-duration accumulators into `m` (called
    /// by the engine once per batch, per worker).
    pub(crate) fn merge_obs_into(&mut self, m: &ServingMetrics) {
        self.obs.merge_into(m);
    }

    /// Discards accumulated stage observations (metrics disabled).
    pub(crate) fn clear_obs(&mut self) {
        self.obs.clear();
    }

    /// Algorithm 5 for query vertex `u`, writing into `out` (cleared
    /// first). `g` must be the graph `index` was built over and the one
    /// this scratch was sized for.
    pub fn query_into(
        &mut self,
        g: &Graph,
        index: &TopKIndex,
        u: VertexId,
        k: usize,
        opts: &QueryOptions,
        out: &mut TopKResult,
    ) {
        let theta = opts.theta.unwrap_or(index.params.theta);
        out.hits.clear();
        out.stats = QueryStats::default();
        out.explain = if opts.explain { Some(ExplainTrace::new(u, k, theta)) } else { None };
        out.timings = StageTimings::default();
        self.heap.clear();
        // Walk-step attribution: everything the kernels step between here
        // and the end of the scan belongs to this query (scratches never
        // migrate threads mid-query). Deterministic — the same query
        // performs the same walks regardless of thread count.
        let walk_base = srs_mc::obs::thread_counts().total();
        if self.route_fast_tier(g, index, u, opts, &mut out.stats) {
            // Deterministic fast tier: one linearized forward–backward
            // pass scores every vertex; no candidates are enumerated (all
            // fate counters stay 0), no RNG stream is consumed.
            let t = Instant::now();
            self.fast_tier_scores(g, index, u, k, theta);
            let dt = t.elapsed().as_nanos() as u64;
            self.obs.fast_tier.record(dt);
            out.timings.fast_tier_ns = dt;
            out.stats.fast_tier_queries = 1;
        } else {
            // Stage attribution: candidate lookup and the BFS are
            // `enumerate`; L1 walk sampling and binning are `bounds`, even
            // though sampling runs before the BFS it supplies targets to.
            let t = Instant::now();
            index.candidates.candidates_into_stamped(u, &mut self.cand_ids, &mut self.seen);
            let mut enumerate_ns = t.elapsed().as_nanos() as u64;
            let mut bounds_ns = 0;
            self.cands.clear();
            // With no candidate the scan has nothing to decide: skip the
            // BFS, the L1 table and the shared source walks outright.
            if !self.cand_ids.is_empty() || opts.candidate_ball.is_some() {
                let t = Instant::now();
                if opts.use_l1 {
                    self.l1.sample_into(
                        g,
                        u,
                        &index.params,
                        mix_seed(&[index.seed, 3, u as u64]),
                        &mut self.walks,
                        &mut self.counter,
                    );
                }
                bounds_ns += t.elapsed().as_nanos() as u64;
                let t = Instant::now();
                self.enumerate_candidates(g, index, u, opts, &mut out.stats);
                enumerate_ns += t.elapsed().as_nanos() as u64;
                let t = Instant::now();
                self.prepare_query_tables(g, index, u, opts);
                bounds_ns += t.elapsed().as_nanos() as u64;
            }
            self.obs.stages[0].record(enumerate_ns);
            out.timings.stages[0] = enumerate_ns;
            self.obs.stages[1].record(bounds_ns);
            out.timings.stages[1] = bounds_ns;
            let t = Instant::now();
            self.scan_candidates(g, index, u, k, opts, theta, &mut out.stats, out.explain.as_mut());
            let dt = t.elapsed().as_nanos() as u64;
            self.obs.stages[2].record(dt);
            out.timings.stages[2] = dt;
        }
        let t = Instant::now();
        out.hits.extend(self.heap.drain().map(|h| Hit { vertex: h.0.vertex, score: h.0.score }));
        out.hits.sort_by(|a, b| {
            b.score.partial_cmp(&a.score).expect("scores are finite").then(a.vertex.cmp(&b.vertex))
        });
        let dt = t.elapsed().as_nanos() as u64;
        self.obs.stages[3].record(dt);
        out.timings.stages[3] = dt;
        out.stats.walk_steps = srs_mc::obs::thread_counts().total() - walk_base;
        debug_assert!(out.stats.fates_accounted(), "fate counters drifted: {:?}", out.stats);
    }

    /// Whether this query takes the deterministic fast tier. Decided
    /// *before* candidate enumeration from `O(1)`-ish signals (degree,
    /// pre-dedup candidate-list length) so a routed query pays nothing
    /// for the MC machinery and its stats stay trivially consistent.
    fn route_fast_tier(
        &self,
        g: &Graph,
        index: &TopKIndex,
        u: VertexId,
        opts: &QueryOptions,
        stats: &mut QueryStats,
    ) -> bool {
        match opts.fast_tier {
            FastTier::Off => false,
            FastTier::Always => true,
            FastTier::Auto => {
                let degree = g.in_degree(u) as u64 + g.out_degree(u) as u64;
                let take = degree >= opts.fast_tier_min_degree
                    || index.candidates.candidate_upper_bound(u) >= opts.fast_tier_min_candidates;
                if !take {
                    stats.fast_tier_fallbacks = 1;
                }
                take
            }
        }
    }

    /// The fast tier itself: score all of `s(u, ·)` with one linearized
    /// forward–backward pass (`O(Tm)`, allocation-free once warm), then
    /// offer every vertex `v ≠ u` with `score ≥ θ` to the same top-k
    /// heap the MC scan feeds — identical tie-breaking and collection.
    /// Works for both diagonal modes: a per-vertex diagonal is passed
    /// through exactly, the uniform one is expanded into scratch.
    fn fast_tier_scores(&mut self, g: &Graph, index: &TopKIndex, u: VertexId, k: usize, theta: f64) {
        let FastTierScratch { lin, scores, diag } = &mut self.fast;
        let d: &[f64] = match &index.diag {
            Diagonal::PerVertex(d) => d,
            Diagonal::Uniform(x) => {
                diag.clear();
                diag.resize(g.num_vertices() as usize, *x);
                diag
            }
        };
        let ep = srs_exact::ExactParams::new(index.params.c, index.params.t);
        srs_exact::linearized::single_source_into(g, u, &ep, d, lin, scores);
        for (v, &score) in scores.iter().enumerate() {
            if v as VertexId != u && score >= theta {
                self.heap.push(Reverse(HeapHit { score, vertex: v as VertexId }));
                if self.heap.len() > k {
                    self.heap.pop();
                }
            }
        }
    }

    /// Stage 1 — distances, then the candidate list: a BFS from `u` that
    /// stops once it has reached every vertex whose distance Algorithm 5
    /// reads (the index candidates in `self.cand_ids`, the L1 walk
    /// positions already sampled into `self.l1`, and with the
    /// candidate-ball extension the whole ball), then the ball extension,
    /// leaving `self.cands` sorted for the ascending-distance scan (§2.2).
    /// Every distance read is the one a full BFS to `d_max` would give.
    fn enumerate_candidates(
        &mut self,
        g: &Graph,
        index: &TopKIndex,
        u: VertexId,
        opts: &QueryOptions,
        stats: &mut QueryStats,
    ) {
        self.targets.clear();
        self.targets.extend_from_slice(&self.cand_ids);
        if opts.use_l1 {
            self.targets.extend(self.l1.sampled_positions());
        }
        // Undirected distances (needed by the c^d and L1 bounds — see
        // DESIGN.md on Proposition 4), exact out to `d_max`.
        let (d_max, ball) = (index.params.d_max, opts.candidate_ball.unwrap_or(0));
        self.bfs.run_to_targets(g, u, Direction::Undirected, d_max, ball, &self.targets);
        stats.bfs_visited = self.bfs.visited().len() as u64;

        // The stamp generation opened by the candidate lookup (u and all
        // index candidates marked seen) carries over to the ball extension.
        if let Some(radius) = opts.candidate_ball {
            for &v in self.bfs.visited() {
                if self.bfs.distance(v) <= radius && self.seen.insert(v) {
                    self.cand_ids.push(v);
                }
            }
        }
        self.cands.extend(self.cand_ids.iter().map(|&v| (self.bfs.distance(v), v)));
        stats.candidates = self.cands.len() as u64;
        // Ascending-distance scan order (§2.2). The (distance, vertex) key
        // is a total order, so the scan sequence is independent of the
        // enumeration order above.
        self.cands.sort_unstable();
    }

    /// Stage 2 — per-query bound tables: the L1 table (Algorithm 2, binned
    /// from the walks sampled before the BFS) and the optional shared
    /// source walks, both into reused storage.
    fn prepare_query_tables(&mut self, g: &Graph, index: &TopKIndex, u: VertexId, opts: &QueryOptions) {
        let params = &index.params;
        if opts.use_l1 {
            let bfs = &self.bfs;
            self.l1.bin_into(params, &index.diag, |w| bfs.distance(w));
        }
        if opts.share_source_walks {
            self.source_walks.generate_into(
                g,
                u,
                params,
                params.r_refine,
                mix_seed(&[index.seed, 5, u as u64]),
                &mut self.walks,
            );
        }
    }

    /// Stage 3 — the bounded, adaptive candidate scan: distance bound →
    /// L1/L2 bounds → coarse pass → refine, maintaining the running top-k
    /// heap. Candidates are decided one at a time in ascending distance
    /// against the running threshold. When `explain` is given, every
    /// candidate (including the bulk tail skipped by the early-break) gets
    /// exactly one [`CandidateRecord`] — fate counts in the trace
    /// reconcile with `stats` by construction.
    #[allow(clippy::too_many_arguments)]
    fn scan_candidates(
        &mut self,
        g: &Graph,
        index: &TopKIndex,
        u: VertexId,
        k: usize,
        opts: &QueryOptions,
        theta: f64,
        stats: &mut QueryStats,
        mut explain: Option<&mut ExplainTrace>,
    ) {
        // Move the candidate list out so the scan can borrow the other
        // scratch fields mutably; moved back below.
        let cands = std::mem::take(&mut self.cands);
        let params = &index.params;
        let engine = WalkEngine::new(g);
        for (ci, &(d, v)) in cands.iter().enumerate() {
            let prune_at =
                if opts.kth_prune { theta.max(kth_score(&self.heap, k) - opts.bound_slack) } else { theta };
            // Trivial distance bound c^⌈d/2⌉ (sound for the undirected
            // metric — see SimRankParams::distance_bound). Undirected
            // unreachability implies the walks can never meet, score 0.
            if opts.use_distance_bound {
                let cd = if d == UNREACHED { 0.0 } else { params.distance_bound(d) };
                if cd < prune_at {
                    stats.pruned_distance += 1;
                    if let Some(tr) = explain.as_deref_mut() {
                        tr.push(record(v, d, CandidateFate::PrunedDistance, cd, prune_at));
                    }
                    // Candidates are distance-sorted: every later candidate
                    // has an even smaller c^d, but their L1/L2 bounds could
                    // not save them either (bounds only prune further), so
                    // the scan can stop outright. (With `kth_prune` off the
                    // threshold is θ everywhere, so the break is always
                    // sound; either way the per-candidate fates it records
                    // match what scanning the tail one-by-one would record.)
                    if !opts.kth_prune || kth_score(&self.heap, k) <= theta {
                        // Everything after this position shares or exceeds
                        // this distance, so its c^⌈d/2⌉ bound is no better;
                        // count by position so distance ties are included.
                        stats.pruned_distance += (cands.len() - ci - 1) as u64;
                        if let Some(tr) = explain.as_deref_mut() {
                            for &(d2, v2) in &cands[ci + 1..] {
                                let cd2 = if d2 == UNREACHED { 0.0 } else { params.distance_bound(d2) };
                                tr.push(record(v2, d2, CandidateFate::PrunedDistance, cd2, prune_at));
                            }
                        }
                        break;
                    }
                    continue;
                }
            }
            let l1b = if opts.use_l1 && d != UNREACHED { self.l1.beta(d) } else { f64::INFINITY };
            let l2b = if opts.use_l2 { index.gamma.l2_bound(u, v, params.c) } else { f64::INFINITY };
            let bound = l1b.min(l2b);
            if bound < prune_at {
                stats.pruned_bounds += 1;
                if let Some(tr) = explain.as_deref_mut() {
                    let fate = if l1b <= l2b { CandidateFate::PrunedL1 } else { CandidateFate::PrunedL2 };
                    tr.push(record(v, d, fate, bound, prune_at));
                }
                continue;
            }
            // Adaptive sampling (§7.2): a coarse estimate gates the refined
            // one. Both draw from the same per-candidate seed.
            let seed = mix_seed(&[index.seed, 4, u as u64, v as u64]);
            let mut estimate = |r: u32| {
                if opts.share_source_walks {
                    self.estimator.estimate_from_source(
                        &engine,
                        &index.diag,
                        &self.source_walks,
                        v,
                        params,
                        r,
                        seed,
                    )
                } else {
                    self.estimator.estimate(&engine, &index.diag, u, v, params, r, seed)
                }
            };
            if opts.adaptive {
                let coarse = estimate(params.r_coarse);
                let coarse_at = opts.coarse_fraction * prune_at;
                if coarse < coarse_at {
                    stats.pruned_coarse += 1;
                    if let Some(tr) = explain.as_deref_mut() {
                        tr.push(record(v, d, CandidateFate::PrunedCoarse, coarse, coarse_at));
                    }
                    continue;
                }
            }
            let score = estimate(params.r_refine);
            if score >= theta {
                stats.reported += 1;
                if let Some(tr) = explain.as_deref_mut() {
                    tr.push(record(v, d, CandidateFate::Reported, score, theta));
                }
                self.heap.push(Reverse(HeapHit { score, vertex: v }));
                if self.heap.len() > k {
                    self.heap.pop();
                }
            } else {
                stats.refined += 1;
                if let Some(tr) = explain.as_deref_mut() {
                    tr.push(record(v, d, CandidateFate::RefinedBelowTheta, score, theta));
                }
            }
        }
        self.cands = cands;
    }
}

/// Shorthand for a scan-loop explain record.
fn record(v: VertexId, d: u32, fate: CandidateFate, value: f64, threshold: f64) -> CandidateRecord {
    CandidateRecord { vertex: v, distance: d, fate, value, threshold }
}

/// Current k-th best score, or 0 while the heap is underfull.
fn kth_score(heap: &BinaryHeap<Reverse<HeapHit>>, k: usize) -> f64 {
    if heap.len() >= k {
        heap.peek().map(|h| h.0.score).unwrap_or(0.0)
    } else {
        0.0
    }
}

/// Reusable per-thread query state bound to one graph + index pair.
/// Queries through one context are sequential; for parallel batches use
/// [`crate::engine::QueryEngine`], which pools [`QueryScratch`] values
/// across workers.
pub struct QueryContext<'g> {
    g: &'g Graph,
    index: &'g TopKIndex,
    scratch: QueryScratch,
}

impl<'g> QueryContext<'g> {
    /// Creates query state for `index` over `g`.
    pub fn new(g: &'g Graph, index: &'g TopKIndex) -> Self {
        QueryContext { g, index, scratch: QueryScratch::new(g) }
    }

    /// Algorithm 5 for query vertex `u`.
    pub fn query(&mut self, u: VertexId, k: usize, opts: &QueryOptions) -> TopKResult {
        let mut out = TopKResult::default();
        self.query_into(u, k, opts, &mut out);
        out
    }

    /// Algorithm 5 writing into an existing result (cleared first), for
    /// callers that also want to recycle the output allocation.
    pub fn query_into(&mut self, u: VertexId, k: usize, opts: &QueryOptions, out: &mut TopKResult) {
        self.scratch.query_into(self.g, self.index, u, k, opts, out);
    }
}

/// Heap entry ordered by score (ties on vertex id for determinism).
#[derive(Debug, PartialEq)]
struct HeapHit {
    score: f64,
    vertex: VertexId,
}

impl Eq for HeapHit {}

impl PartialOrd for HeapHit {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapHit {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score.partial_cmp(&other.score).expect("scores are finite").then(self.vertex.cmp(&other.vertex))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_exact::{diagonal, linearized, ExactParams};
    use srs_graph::gen::{self, fixtures};

    fn fast_params() -> SimRankParams {
        SimRankParams { r_bounds: 2_000, ..Default::default() }
    }

    #[test]
    fn claw_query_finds_sibling_leaves() {
        let g = fixtures::claw();
        let params = SimRankParams { c: 0.8, ..fast_params() };
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(0.8), 1, 1);
        let res = idx.query(&g, 1, 2, &QueryOptions::default());
        let found: Vec<VertexId> = res.hits.iter().map(|h| h.vertex).collect();
        assert_eq!(found.len(), 2, "{res:?}");
        assert!(found.contains(&2) && found.contains(&3));
        for h in &res.hits {
            assert!(h.score > 0.2, "{h:?}");
        }
    }

    #[test]
    fn query_matches_exact_topk_on_web_graph() {
        let g = gen::copying_web(300, 5, 0.8, 21);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 5, 2);
        let ep = ExactParams::new(params.c, params.t);
        let d = diagonal::uniform(300, params.c);
        let mut ctx = QueryContext::new(&g, &idx);
        let k = 10;
        let mut recall_sum = 0.0;
        let mut queries = 0;
        for u in srs_graph::stats::sample_query_vertices(&g, 15, 33) {
            let exact = linearized::single_source(&g, u, &ep, &d);
            // Exact "interesting" set: score ≥ 0.04 (Table 3's regime).
            let mut truth: Vec<(f64, VertexId)> = (0..300u32)
                .filter(|&v| v != u && exact[v as usize] >= 0.04)
                .map(|v| (exact[v as usize], v))
                .collect();
            truth.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            truth.truncate(k);
            if truth.is_empty() {
                continue;
            }
            let res = ctx.query(u, k, &QueryOptions::default());
            let got: std::collections::HashSet<VertexId> = res.hits.iter().map(|h| h.vertex).collect();
            let hit = truth.iter().filter(|(_, v)| got.contains(v)).count();
            recall_sum += hit as f64 / truth.len() as f64;
            queries += 1;
        }
        assert!(queries > 0);
        let recall = recall_sum / queries as f64;
        // The paper's own Table 3 accuracy at these parameters ranges
        // 0.82–0.99; the walk-based candidate index is heuristic and misses
        // some borderline (≈ θ) pairs by design.
        assert!(recall >= 0.65, "recall = {recall}");
    }

    #[test]
    fn candidate_ball_extension_raises_recall() {
        let g = gen::copying_web(300, 5, 0.8, 21);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 5, 2);
        let ep = ExactParams::new(params.c, params.t);
        let d = diagonal::uniform(300, params.c);
        let mut ctx = QueryContext::new(&g, &idx);
        let with_ball = QueryOptions { candidate_ball: Some(3), ..Default::default() };
        let mut recall_sum = 0.0;
        let mut queries = 0;
        for u in srs_graph::stats::sample_query_vertices(&g, 15, 33) {
            let exact = linearized::single_source(&g, u, &ep, &d);
            let mut truth: Vec<(f64, VertexId)> = (0..300u32)
                .filter(|&v| v != u && exact[v as usize] >= 0.04)
                .map(|v| (exact[v as usize], v))
                .collect();
            truth.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            truth.truncate(10);
            if truth.is_empty() {
                continue;
            }
            let res = ctx.query(u, 10, &with_ball);
            let got: std::collections::HashSet<VertexId> = res.hits.iter().map(|h| h.vertex).collect();
            recall_sum += truth.iter().filter(|(_, v)| got.contains(v)).count() as f64 / truth.len() as f64;
            queries += 1;
        }
        let recall = recall_sum / queries as f64;
        // Remaining misses are borderline-θ pairs whose Monte-Carlo
        // estimate lands under the output threshold, not coverage failures.
        assert!(recall >= 0.8, "ball-augmented recall = {recall}");
    }

    #[test]
    fn pruning_preserves_results() {
        // Everything-off vs everything-on must agree on the high scorers.
        let g = gen::copying_web(200, 4, 0.8, 8);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 3, 2);
        let mut ctx = QueryContext::new(&g, &idx);
        let open = QueryOptions {
            use_distance_bound: false,
            use_l1: false,
            use_l2: false,
            adaptive: false,
            ..Default::default()
        };
        let tight = QueryOptions::default();
        for u in srs_graph::stats::sample_query_vertices(&g, 10, 2) {
            let a = ctx.query(u, 5, &open);
            let b = ctx.query(u, 5, &tight);
            // Same estimator seeds → identical scores for shared vertices;
            // compare the clearly-above-threshold hits.
            let strong_a: Vec<_> = a.hits.iter().filter(|h| h.score > 0.1).collect();
            let bset: std::collections::HashSet<_> = b.hits.iter().map(|h| h.vertex).collect();
            for h in strong_a {
                assert!(bset.contains(&h.vertex), "u={u} lost strong hit {h:?} ({:?})", b.hits);
            }
        }
    }

    #[test]
    fn stats_are_consistent() {
        let g = gen::copying_web(200, 4, 0.8, 8);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 3, 2);
        let mut ctx = QueryContext::new(&g, &idx);
        let res = ctx.query(0, 10, &QueryOptions::default());
        let s = res.stats;
        assert!(s.fates_accounted(), "{s:?}");
        assert_eq!(s.refine_calls(), s.refined + s.reported);
        assert!(s.bfs_visited > 0);
        assert!(s.walk_steps > 0, "L1 table + estimates must step walks: {s:?}");
    }

    #[test]
    fn explain_trace_covers_every_candidate() {
        let g = gen::copying_web(200, 4, 0.8, 8);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 3, 2);
        let mut ctx = QueryContext::new(&g, &idx);
        let plain = QueryOptions::default();
        let explain = QueryOptions { explain: true, ..Default::default() };
        for u in srs_graph::stats::sample_query_vertices(&g, 8, 14) {
            let a = ctx.query(u, 10, &plain);
            let b = ctx.query(u, 10, &explain);
            // The trace is pure observation: hits and stats are identical.
            assert_eq!(a.hits, b.hits, "u={u}");
            assert_eq!(a.stats, b.stats, "u={u}");
            assert!(a.explain.is_none());
            let tr = b.explain.expect("explain requested");
            // Every enumerated candidate appears exactly once.
            assert_eq!(tr.records.len() as u64, b.stats.candidates, "u={u}");
            let mut vertices: Vec<_> = tr.records.iter().map(|r| r.vertex).collect();
            vertices.sort_unstable();
            let before = vertices.len();
            vertices.dedup();
            assert_eq!(vertices.len(), before, "u={u}: duplicate candidate in trace");
            // Trace fates reconcile with the stats counters.
            use srs_obs::CandidateFate as F;
            assert_eq!(tr.count(F::PrunedDistance), b.stats.pruned_distance, "u={u}");
            assert_eq!(tr.count(F::PrunedL1) + tr.count(F::PrunedL2), b.stats.pruned_bounds, "u={u}");
            assert_eq!(tr.count(F::PrunedCoarse), b.stats.pruned_coarse, "u={u}");
            assert_eq!(tr.count(F::RefinedBelowTheta), b.stats.refined, "u={u}");
            assert_eq!(tr.count(F::Reported), b.stats.reported, "u={u}");
        }
    }

    #[test]
    fn results_sorted_descending_and_k_respected() {
        let g = gen::copying_web(150, 5, 0.8, 4);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 9, 2);
        let res = idx.query(&g, 3, 4, &QueryOptions::default());
        assert!(res.hits.len() <= 4);
        for w in res.hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn query_deterministic() {
        let g = gen::copying_web(150, 5, 0.8, 4);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 9, 2);
        let a = idx.query(&g, 7, 10, &QueryOptions::default());
        let b = idx.query(&g, 7, 10, &QueryOptions::default());
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn shared_source_walks_preserve_strong_hits() {
        let g = gen::copying_web(250, 5, 0.8, 12);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 4, 2);
        let mut ctx = QueryContext::new(&g, &idx);
        let plain = QueryOptions::default();
        let shared = QueryOptions { share_source_walks: true, ..Default::default() };
        for u in srs_graph::stats::sample_query_vertices(&g, 10, 6) {
            let a = ctx.query(u, 5, &plain);
            let b = ctx.query(u, 5, &shared);
            let strong: Vec<_> = a.hits.iter().filter(|h| h.score > 0.1).collect();
            let bset: std::collections::HashSet<_> = b.hits.iter().map(|h| h.vertex).collect();
            for h in strong {
                assert!(bset.contains(&h.vertex), "u={u}: shared walks lost {h:?}");
            }
        }
    }

    #[test]
    fn isolated_vertex_returns_empty() {
        let mut b = srs_graph::GraphBuilder::new(10);
        for i in 0..8u32 {
            b.add_edge(i, (i + 1) % 8);
        }
        let g = b.build().unwrap(); // vertices 8, 9 isolated
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 2, 1);
        let res = idx.query(&g, 9, 5, &QueryOptions::default());
        assert!(res.hits.is_empty());
    }

    #[test]
    fn zero_candidate_query_skips_bfs_and_walks() {
        // An in-degree-0 vertex has no candidates: the query must answer
        // without a BFS, an L1 table or shared source walks.
        let g = gen::copying_web(300, 4, 0.8, 8);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 3, 2);
        let u =
            (0..300).find(|&v| g.in_degree(v) == 0 && g.out_degree(v) > 0).expect("an in-degree-0 vertex");
        let mut ctx = QueryContext::new(&g, &idx);
        for opts in [
            QueryOptions::default(),
            QueryOptions { share_source_walks: true, explain: true, ..Default::default() },
        ] {
            let res = ctx.query(u, 10, &opts);
            assert!(res.hits.is_empty(), "{res:?}");
            assert_eq!(res.stats.candidates, 0);
            assert_eq!(res.stats.bfs_visited, 0, "no BFS without candidates");
            assert_eq!(res.stats.walk_steps, 0, "no L1 or source walks without candidates");
            if let Some(tr) = &res.explain {
                assert!(tr.records.is_empty());
            }
        }
        // The candidate-ball extension makes the ball the candidate set, so
        // the BFS runs (and must complete the ball).
        let ball = ctx.query(u, 10, &QueryOptions { candidate_ball: Some(1), ..Default::default() });
        assert!(ball.stats.bfs_visited > 1 && ball.stats.candidates > 0, "{:?}", ball.stats);
    }

    #[test]
    fn distances_read_match_the_full_bfs() {
        // The targeted BFS may leave vertices unvisited, but every distance
        // the query reads — candidate keys and the L1 table's bins — must
        // be the one a full BFS to d_max gives.
        let g = gen::copying_web(600, 4, 0.8, 13);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 3, 2);
        let mut ctx = QueryContext::new(&g, &idx);
        let mut full = BfsBuffers::new(600);
        let mut seen = SeenStamps::new();
        for ball in [None, Some(2)] {
            let opts = QueryOptions { candidate_ball: ball, ..Default::default() };
            for u in srs_graph::stats::sample_query_vertices(&g, 12, 4) {
                if ctx.query(u, 10, &opts).stats.candidates == 0 {
                    continue; // the early return: no distance was read
                }
                full.run(&g, u, Direction::Undirected, params.d_max);
                let sc = &ctx.scratch;
                assert!(sc.bfs.visited().len() <= full.visited().len());
                for &(d, v) in &sc.cands {
                    assert_eq!(d, full.distance(v), "u={u} v={v} ball={ball:?}");
                }
                // The candidate set is the index's plus, with the ball
                // extension, every other vertex the full BFS puts in the ball.
                let mut want_cands = Vec::new();
                idx.candidates.candidates_into_stamped(u, &mut want_cands, &mut seen);
                if let Some(r) = ball {
                    want_cands.extend(full.visited().iter().filter(|&&v| v != u && full.distance(v) <= r));
                }
                want_cands.sort_unstable();
                want_cands.dedup();
                let mut got_cands: Vec<VertexId> = sc.cands.iter().map(|&(_, v)| v).collect();
                got_cands.sort_unstable();
                assert_eq!(got_cands, want_cands, "u={u} ball={ball:?}");
                let want = AlphaBeta::compute(
                    &g,
                    u,
                    &params,
                    &idx.diag,
                    |w| full.distance(w),
                    mix_seed(&[idx.seed, 3, u as u64]),
                );
                for d in 0..=params.d_max {
                    assert_eq!(sc.l1.beta(d).to_bits(), want.beta(d).to_bits(), "u={u} d={d}");
                    for t in 0..params.t {
                        assert_eq!(
                            sc.l1.alpha(d, t).to_bits(),
                            want.alpha(d, t).to_bits(),
                            "u={u} d={d} t={t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn query_bfs_stops_short_of_the_whole_graph() {
        // A deterministic work check: the query BFS stops at the last
        // vertex whose distance the query reads, so 64 queries visit
        // fewer vertices in total than 64 whole-graph sweeps would.
        let n = 2000;
        let g = gen::copying_web(n, 4, 0.8, 3);
        let params = SimRankParams { r_bounds: 100, ..Default::default() };
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 3, 2);
        let mut ctx = QueryContext::new(&g, &idx);
        let queries = srs_graph::stats::sample_query_vertices(&g, 64, 5);
        let visited: u64 =
            queries.iter().map(|&u| ctx.query(u, 10, &QueryOptions::default()).stats.bfs_visited).sum();
        assert!(visited < 64 * n as u64, "visited {visited} >= {}", 64 * n as u64);
    }

    #[test]
    fn fast_tier_always_matches_linearized_exact() {
        // `Always` must reproduce the deterministic linearized solver
        // bit-for-bit: same scores, same θ cut, same top-k tie-breaking.
        let g = gen::copying_web(300, 5, 0.8, 21);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 5, 2);
        let ep = ExactParams::new(params.c, params.t);
        let d = diagonal::uniform(300, params.c);
        let mut ctx = QueryContext::new(&g, &idx);
        let opts = QueryOptions { fast_tier: FastTier::Always, ..Default::default() };
        let k = 10;
        for u in srs_graph::stats::sample_query_vertices(&g, 12, 33) {
            let exact = linearized::single_source(&g, u, &ep, &d);
            let mut truth: Vec<Hit> = (0..300u32)
                .filter(|&v| v != u && exact[v as usize] >= idx.params.theta)
                .map(|v| Hit { vertex: v, score: exact[v as usize] })
                .collect();
            truth.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap().then(a.vertex.cmp(&b.vertex)));
            truth.truncate(k);
            let res = ctx.query(u, k, &opts);
            assert_eq!(res.hits, truth, "u={u}");
            assert_eq!(res.stats.fast_tier_queries, 1, "u={u}");
            assert_eq!(res.stats.candidates, 0, "fast tier enumerates nothing");
            assert!(res.stats.fates_accounted());
        }
    }

    #[test]
    fn fast_tier_with_exact_diagonal_matches_naive_simrank() {
        // With the exact diagonal correction, the linearized series the
        // fast tier evaluates equals true Jeh–Widom SimRank (Proposition
        // 1) up to truncation — so its reported scores must track the
        // naive fixpoint solver within the paper's error bound.
        let g = gen::erdos_renyi(40, 150, 13);
        let params = SimRankParams { c: 0.6, t: 25, ..fast_params() };
        let ep = ExactParams::new(params.c, params.t);
        let d = diagonal::estimate(&g, &ep, 1e-7, 300).unwrap();
        let truth = srs_exact::naive::all_pairs(&g, &ep);
        let idx = TopKIndex::build_with(&g, &params, Diagonal::PerVertex(std::sync::Arc::new(d)), 3, 1);
        let mut ctx = QueryContext::new(&g, &idx);
        let opts = QueryOptions { fast_tier: FastTier::Always, theta: Some(1e-4), ..Default::default() };
        let tol = 3.0 * ep.truncation_error() + 1e-9;
        let mut checked = 0;
        for u in 0..40u32 {
            let res = ctx.query(u, 40, &opts);
            for h in &res.hits {
                let want = truth.get(u as usize, h.vertex as usize);
                assert!(
                    (h.score - want).abs() < tol,
                    "u={u} v={}: fast tier {} vs naive {want}",
                    h.vertex,
                    h.score
                );
                checked += 1;
            }
        }
        assert!(checked > 40, "fixture produced too few hits ({checked})");
    }

    #[test]
    fn fast_tier_auto_routes_on_thresholds() {
        let g = gen::copying_web(300, 5, 0.8, 21);
        let params = fast_params();
        let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 5, 2);
        let mut ctx = QueryContext::new(&g, &idx);
        let u = 7;
        // Thresholds nobody meets: Auto must fall back to the MC pipeline
        // and record the fallback.
        let never = QueryOptions {
            fast_tier: FastTier::Auto,
            fast_tier_min_degree: u64::MAX,
            fast_tier_min_candidates: u64::MAX,
            ..Default::default()
        };
        let a = ctx.query(u, 10, &never);
        assert_eq!(a.stats.fast_tier_queries, 0);
        assert_eq!(a.stats.fast_tier_fallbacks, 1);
        assert!(a.stats.candidates > 0, "fell through to the MC scan");
        // A zero degree threshold admits everyone.
        let always =
            QueryOptions { fast_tier: FastTier::Auto, fast_tier_min_degree: 0, ..Default::default() };
        let b = ctx.query(u, 10, &always);
        assert_eq!(b.stats.fast_tier_queries, 1);
        assert_eq!(b.stats.fast_tier_fallbacks, 0);
        assert_eq!(b.stats.candidates, 0);
        // The MC fallback answer is bit-identical to a plain Off query —
        // routing never perturbs the estimator's RNG streams.
        let off = ctx.query(u, 10, &QueryOptions::default());
        assert_eq!(a.hits, off.hits);
    }

    #[test]
    fn fast_tier_per_vertex_diagonal_passes_through() {
        // A PerVertex diagonal holding the uniform value must score
        // identically to the Uniform mode (the tier reads either exactly).
        let g = gen::copying_web(200, 4, 0.8, 8);
        let params = fast_params();
        let x = 1.0 - params.c;
        let uni = TopKIndex::build_with(&g, &params, Diagonal::Uniform(x), 3, 2);
        let pv =
            TopKIndex::build_with(&g, &params, Diagonal::PerVertex(std::sync::Arc::new(vec![x; 200])), 3, 2);
        let opts = QueryOptions { fast_tier: FastTier::Always, ..Default::default() };
        let mut cu = QueryContext::new(&g, &uni);
        let mut cp = QueryContext::new(&g, &pv);
        for u in [0u32, 9, 55, 123] {
            assert_eq!(cu.query(u, 8, &opts).hits, cp.query(u, 8, &opts).hits, "u={u}");
        }
    }

    #[test]
    fn fast_tier_options_change_fingerprint() {
        let base = QueryOptions::default();
        assert_eq!(base.fast_tier, FastTier::Off, "default stays the PR 6 pipeline");
        let auto = QueryOptions { fast_tier: FastTier::Auto, ..Default::default() };
        let always = QueryOptions { fast_tier: FastTier::Always, ..Default::default() };
        let tuned = QueryOptions { fast_tier_min_degree: 7, ..Default::default() };
        assert_ne!(base.fingerprint(), auto.fingerprint());
        assert_ne!(auto.fingerprint(), always.fingerprint());
        assert_ne!(base.fingerprint(), tuned.fingerprint());
        assert_eq!(base.fingerprint(), QueryOptions::default().fingerprint());
    }

    #[test]
    fn fast_tier_parse_round_trips() {
        assert_eq!(FastTier::parse("off"), Some(FastTier::Off));
        assert_eq!(FastTier::parse("auto"), Some(FastTier::Auto));
        assert_eq!(FastTier::parse("always"), Some(FastTier::Always));
        assert_eq!(FastTier::parse("bogus"), None);
    }

    #[test]
    fn memory_is_linear_not_quadratic() {
        let params = SimRankParams { r_gamma: 20, r_bounds: 100, ..Default::default() };
        let g1 = gen::copying_web(200, 4, 0.8, 1);
        let g2 = gen::copying_web(400, 4, 0.8, 1);
        let i1 = TopKIndex::build_with(&g1, &params, Diagonal::paper_default(params.c), 1, 2);
        let i2 = TopKIndex::build_with(&g2, &params, Diagonal::paper_default(params.c), 1, 2);
        let ratio = i2.memory_bytes() as f64 / i1.memory_bytes() as f64;
        assert!(ratio < 3.0, "doubling n should ~double the index, ratio = {ratio}");
    }
}
