//! A host-speed probe that shares no code with the program: a
//! breadth-first search over an undirected copy of the fixture graph,
//! written here, run on `THREADS` threads at once. Its time moves with
//! the host (CPU steal, contention for caches, memory and sibling
//! hyperthreads from other tenants) and never with a change to the
//! program, so a run records it beside every timed metric.

use srs_graph::Graph;
use std::time::Instant;

/// Searches per thread in one burst.
const PER_BURST: usize = 12;
/// A burst's time on the reference host: the median burst on the 2-vCPU
/// Xeon VM the bounds were set on, in a quiet period. A run adjusts every
/// timed metric by how much faster or slower its bursts were than this.
pub const REFERENCE_BURST_S: f64 = 0.05;

pub struct Probe {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Probe {
    pub fn new(g: &Graph) -> Probe {
        let n = g.num_vertices() as usize;
        let mut degree = vec![0u32; n + 1];
        for (u, v) in g.edges() {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut fill = offsets.clone();
        let mut targets = vec![0u32; offsets[n] as usize];
        for (u, v) in g.edges() {
            targets[fill[u as usize] as usize] = v;
            fill[u as usize] += 1;
            targets[fill[v as usize] as usize] = u;
            fill[v as usize] += 1;
        }
        Probe { offsets, targets }
    }

    fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Vertices reached from `source`.
    fn search(&self, source: u32, seen: &mut Vec<u64>, queue: &mut Vec<u32>) -> usize {
        seen.clear();
        seen.resize(self.n().div_ceil(64), 0);
        queue.clear();
        queue.push(source);
        seen[source as usize / 64] |= 1 << (source % 64);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            for &v in &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize] {
                let (word, bit) = (v as usize / 64, 1u64 << (v % 64));
                if seen[word] & bit == 0 {
                    seen[word] |= bit;
                    queue.push(v);
                }
            }
        }
        queue.len()
    }

    /// Wall seconds of one burst: `threads` threads, each searching from
    /// `PER_BURST` sources, all at once.
    pub fn burst(&self, threads: usize) -> f64 {
        let t = Instant::now();
        let reached: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|i| {
                    s.spawn(move || {
                        let (mut seen, mut queue) = (Vec::new(), Vec::new());
                        (0..PER_BURST)
                            .map(|j| {
                                let source = ((i * PER_BURST + j) * 7919 % self.n()) as u32;
                                self.search(source, &mut seen, &mut queue)
                            })
                            .sum::<usize>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("probe thread panicked")).sum()
        });
        std::hint::black_box(reached);
        t.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_reaches_the_whole_undirected_component() {
        // Edges 0→1, 2→1 and 3→2: vertex 0 reaches 3 only against the
        // edge directions; vertex 4 is isolated.
        let g = Graph::from_edges(5, [(0, 1), (2, 1), (3, 2)]).expect("valid edges");
        let probe = Probe::new(&g);
        let (mut seen, mut queue) = (Vec::new(), Vec::new());
        assert_eq!(probe.search(0, &mut seen, &mut queue), 4);
        assert_eq!(probe.search(4, &mut seen, &mut queue), 1);
        assert!(probe.burst(2) > 0.0);
    }
}
