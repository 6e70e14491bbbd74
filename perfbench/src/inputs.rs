//! Workload definitions and everything the `--seed` draws: query keys,
//! edit batches and the correctness sample. The fixture (graph, index,
//! server configuration) is pinned in `fixture.rs` and never depends on
//! the seed; the program under test only ever sees these generated inputs.

use srs_graph::{Graph, GraphDelta, VertexId};
use srs_mc::Pcg32;

/// How query keys are drawn.
#[derive(Debug, Clone, Copy)]
pub enum Keys {
    Uniform,
    /// Zipf over vertex ranks with this exponent; ranks map to vertex ids
    /// through the coprime-stride scatter `srs loadgen` uses.
    Zipf(f64),
}

/// One traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub keys: Keys,
    /// Nominal open-loop read rate (requests per second over all read
    /// connections).
    pub rate: f64,
    /// Read connections, one client thread each.
    pub read_conns: usize,
    /// Untimed closed-loop warm-up requests, so the result cache reaches
    /// its steady state before anything is timed.
    pub warm_requests: usize,
}

pub const WORKLOADS: [Workload; 2] = [
    // About a third of measured saturation; nearly every key misses the
    // cache, so engine work (mostly the whole-graph BFS) dominates.
    Workload { name: "serve_uniform", keys: Keys::Uniform, rate: 200.0, read_conns: 2, warm_requests: 600 },
    // s = 1.2 keeps the median inside the cache-hit latency mode
    // (about 83% hits), so linger, HTTP and socket time dominate.
    Workload { name: "serve_zipf", keys: Keys::Zipf(1.2), rate: 300.0, read_conns: 2, warm_requests: 4000 },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Insertions and deletions per edit batch.
pub const EDITS_PER_KIND: usize = 10;
/// Edit batches per run, posted closed loop, one group per cycle.
pub const PROBE_BATCHES: usize = 100;
/// Vertices in the correctness and recall sample.
pub const SAMPLE: usize = 256;

/// Maps key draws to vertex ids.
pub struct KeySampler {
    n: u32,
    /// Zipf CDF over ranks (empty for uniform keys).
    cdf: Vec<f64>,
    stride: u64,
}

impl KeySampler {
    pub fn new(keys: Keys, n: u32) -> Self {
        let cdf = match keys {
            Keys::Uniform => Vec::new(),
            Keys::Zipf(s) => zipf_cdf(n as usize, s),
        };
        KeySampler { n, cdf, stride: coprime_stride(n as u64) }
    }

    pub fn draw(&self, rng: &mut Pcg32) -> VertexId {
        if self.cdf.is_empty() {
            return rng.gen_range(self.n);
        }
        let x = rng.gen_f64();
        let rank = self.cdf.partition_point(|&p| p <= x).min(self.n as usize - 1);
        (rank as u64 * self.stride % self.n as u64) as VertexId
    }
}

/// The key stream of one read connection in one phase. Streams are
/// independent per (phase, connection), so how many keys a closed-loop
/// phase consumes never shifts another phase's keys.
pub fn key_stream(seed: u64, phase: u64, conn: usize) -> Pcg32 {
    Pcg32::from_parts(&[seed, 0x6b65_7973, phase, conn as u64])
}

/// The nominal phase's keys, by global request index.
pub fn nominal_keys(sampler: &KeySampler, seed: u64, count: usize) -> Vec<VertexId> {
    let mut rng = key_stream(seed, 1, usize::MAX);
    (0..count).map(|_| sampler.draw(&mut rng)).collect()
}

/// `count` edit batches of `EDITS_PER_KIND` insertions of random pairs
/// and `EDITS_PER_KIND` deletions of distinct edges of `g`. Deleting an
/// edge an earlier batch already removed, or inserting one that exists,
/// is a no-op by the delta semantics, so every batch applies.
pub fn edit_batches(g: &Graph, seed: u64, count: usize) -> Vec<GraphDelta> {
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let n = g.num_vertices();
    let mut rng = Pcg32::from_parts(&[seed, 0x6564_6974]);
    let mut deleted = std::collections::HashSet::new();
    (0..count)
        .map(|_| {
            let mut batch = GraphDelta::new();
            for _ in 0..EDITS_PER_KIND {
                let u = rng.gen_range(n);
                let v = (u + 1 + rng.gen_range(n - 1)) % n;
                batch.insert(u, v);
            }
            let mut dels = 0;
            while dels < EDITS_PER_KIND {
                let e = edges[rng.next_u64() as usize % edges.len()];
                if deleted.insert(e) {
                    batch.delete(e.0, e.1);
                    dels += 1;
                }
            }
            batch
        })
        .collect()
}

/// `SAMPLE` distinct vertices for the correctness gate and recall.
pub fn sample_vertices(n: u32, seed: u64) -> Vec<VertexId> {
    let mut rng = Pcg32::from_parts(&[seed, 0x7361_6d70]);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(SAMPLE);
    while out.len() < SAMPLE {
        let v = rng.gen_range(n);
        if seen.insert(v) {
            out.push(v);
        }
    }
    out
}

fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for rank in 1..=n {
        acc += (rank as f64).powf(-s);
        cdf.push(acc);
    }
    for p in &mut cdf {
        *p /= acc;
    }
    cdf
}

/// The `srs loadgen` rank → vertex bijection: a multiplier coprime to
/// `n`, so the hot head of the distribution is scattered over the ids.
fn coprime_stride(n: u64) -> u64 {
    if n <= 2 {
        return 1;
    }
    let mut stride = (0x9e37_79b9 % n).max(1);
    while gcd(stride, n) != 1 {
        stride = stride % n + 1;
    }
    stride
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed() {
        let sampler = KeySampler::new(Keys::Zipf(1.2), 1000);
        assert_eq!(nominal_keys(&sampler, 7, 50), nominal_keys(&sampler, 7, 50));
        assert_ne!(nominal_keys(&sampler, 7, 50), nominal_keys(&sampler, 8, 50));
        assert_eq!(sample_vertices(1000, 3), sample_vertices(1000, 3));
        let g = srs_graph::gen::copying_web(500, 4, 0.8, 1);
        let a = edit_batches(&g, 5, 3);
        assert_eq!(a, edit_batches(&g, 5, 3));
        for batch in &a {
            assert_eq!(batch.num_insertions(), EDITS_PER_KIND);
            assert_eq!(batch.num_deletions(), EDITS_PER_KIND);
            batch.apply(&g).expect("every batch applies");
        }
    }

    #[test]
    fn zipf_keys_concentrate_and_stay_in_range() {
        let n = 10_000;
        let sampler = KeySampler::new(Keys::Zipf(1.2), n);
        let keys = nominal_keys(&sampler, 1, 20_000);
        assert!(keys.iter().all(|&v| v < n));
        let distinct: std::collections::HashSet<_> = keys.iter().collect();
        assert!(distinct.len() < 8_000, "zipf keys repeat: {} distinct", distinct.len());
        assert_eq!(gcd(coprime_stride(n as u64), n as u64), 1);
    }
}
