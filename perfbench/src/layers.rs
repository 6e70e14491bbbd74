//! The traced run's per-layer breakdown, measured from outside the
//! program: the benchmark times its own calls into each layer's public
//! functions on the workload's recorded request stream, keeps the spans
//! in memory, and writes them out at the end. Nothing inside the program
//! is instrumented for this.

use crate::fixture::{diagonal, params, query_options, INDEX_SEED, K, THREADS};
use crate::load::{sleep_until, Shot};
use crate::stats::{mean, median, quantile, Metric};
use srs_graph::bfs::{BfsBuffers, Direction};
use srs_graph::hash::mix_seed;
use srs_graph::{GraphDelta, VertexId};
use srs_mc::multiset::PositionCounter;
use srs_mc::WalkPositions;
use srs_search::bounds::AlphaBeta;
use srs_search::engine::WaveQuery;
use srs_search::{
    build_delta, extend_delta, load_snapshot, Dataset, EngineHandle, LoadOptions, Loaded, QueryContext,
    SeenStamps, TopKResult,
};
use srs_serve::{Coalescer, ServerConfig, ServerMetrics};
use std::collections::HashMap;
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most cache-miss vertices replayed through the single-query layers.
const MAX_MISS_REPLAY: usize = 256;
/// Most edit batches replayed through the delta layers.
const MAX_BATCH_REPLAY: usize = 16;
/// Snapshot loads timed for `snapshot.load_ms`.
const LOAD_REPS: usize = 3;
/// The layer sum must land within this share of the median client
/// latency for the breakdown to count as reconciled.
pub const RECONCILE_TOLERANCE: f64 = 0.25;

/// One span: a layer's share of one request (or batch).
pub struct Span {
    pub request: usize,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub dur_us: f64,
}

/// What the live run hands the replay.
pub struct Recorded<'a> {
    pub snapshot: &'a Path,
    pub warm_keys: &'a [VertexId],
    pub nominal_keys: &'a [VertexId],
    pub rate: f64,
    pub conns: usize,
    pub shots: &'a [Shot],
    /// Every batch the run ingested, in order.
    pub batches: &'a [GraphDelta],
    pub healthz_us: &'a [f64],
    pub live_hit_ratio: f64,
    pub work: &'a Path,
}

/// Per-request outcome of the dispatch replay.
struct Replayed {
    request: usize,
    vertex: VertexId,
    submit_ns: u64,
    recv_ns: u64,
    wave_started_ns: u64,
    wave_ended_ns: u64,
    wave_width: u32,
    generation: u64,
    stages: [u64; 4],
    miss: bool,
}

pub struct Breakdown {
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
    /// `(median client latency, median layer sum)` in µs.
    pub reconcile: (f64, f64),
    pub notes: Vec<String>,
}

fn load_dataset(path: &Path) -> Result<Dataset, String> {
    match load_snapshot(path, &LoadOptions::default()).map_err(|e| format!("load: {e}"))?.0 {
        Loaded::Single(d) => Ok(d),
        Loaded::Sharded(_) => Err("the fixture snapshot is unsharded".to_string()),
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn replay(rec: &Recorded) -> Result<Breakdown, String> {
    let mut metrics = Vec::new();
    let mut spans = Vec::new();
    let mut notes = Vec::new();
    let cfg = ServerConfig::default();
    let opts = Arc::new(query_options());
    let wave_of = |v: &VertexId| WaveQuery { vertex: *v, k: K, opts: Arc::clone(&opts) };

    // Dispatch + engine: an in-bench Coalescer over a fresh engine on the
    // same snapshot, warmed with the recorded warm-up keys, replaying the
    // recorded arrival schedule.
    let engine = EngineHandle::with_threads(Loaded::Single(load_dataset(rec.snapshot)?), THREADS);
    engine.set_cache_capacity(cfg.cache_capacity);
    // A cached answer is a copy of the computed one, stage timings
    // included, so an answer whose timings match an earlier answer for
    // the same vertex and generation came from the cache.
    let mut computed: HashMap<(u64, VertexId), [u64; 4]> = HashMap::new();
    for chunk in rec.warm_keys.chunks(cfg.max_batch) {
        let wave: Vec<WaveQuery> = chunk.iter().map(wave_of).collect();
        let out = engine.query_wave(&wave);
        for (v, r) in chunk.iter().zip(&out.results) {
            computed.entry((out.generation, *v)).or_insert(r.timings.stages);
        }
    }
    let (hits0, misses0) = (engine.metrics().cache_hits.get(), engine.metrics().cache_misses.get());
    let coalescer = Coalescer::new(cfg.queue_capacity, cfg.max_batch, cfg.batch_window);
    let server_metrics = ServerMetrics::register_on(&srs_obs::Registry::new());
    let origin = Instant::now() + Duration::from_millis(20);
    let mut replayed = std::thread::scope(|s| {
        let dispatcher = s.spawn(|| coalescer.run(&engine, &server_metrics));
        let submitters: Vec<_> = (0..rec.conns)
            .map(|c| {
                let (coalescer, opts) = (&coalescer, &opts);
                s.spawn(move || {
                    let mut out = Vec::new();
                    for (j, &v) in rec.nominal_keys.iter().enumerate().skip(c).step_by(rec.conns) {
                        sleep_until(origin + Duration::from_secs_f64(j as f64 / rec.rate));
                        let submit_ns = srs_obs::now_ns();
                        let Ok(rx) = coalescer.submit(WaveQuery { vertex: v, k: K, opts: Arc::clone(opts) })
                        else {
                            continue;
                        };
                        let Ok(a) = rx.recv() else { continue };
                        out.push(Replayed {
                            request: j,
                            vertex: v,
                            submit_ns,
                            recv_ns: srs_obs::now_ns(),
                            wave_started_ns: a.wave_started_ns,
                            wave_ended_ns: a.wave_ended_ns,
                            wave_width: a.wave_width,
                            generation: a.generation,
                            stages: a.result.timings.stages,
                            miss: false,
                        });
                    }
                    out
                })
            })
            .collect();
        let replayed: Vec<Replayed> =
            submitters.into_iter().flat_map(|h| h.join().expect("replay submitter panicked")).collect();
        coalescer.close();
        dispatcher.join().expect("replay dispatcher panicked");
        replayed
    });
    if replayed.len() != rec.nominal_keys.len() {
        return Err(format!(
            "dispatch replay answered {} of {} requests",
            replayed.len(),
            rec.nominal_keys.len()
        ));
    }
    replayed.sort_by_key(|r| (r.wave_started_ns, r.request));
    for r in &mut replayed {
        let key = (r.generation, r.vertex);
        r.miss = computed.get(&key) != Some(&r.stages);
        if r.miss {
            computed.insert(key, r.stages);
        }
    }
    let classified_misses = replayed.iter().filter(|r| r.miss).count() as u64;
    let counted_misses = engine.metrics().cache_misses.get() - misses0;
    let counted_hits = engine.metrics().cache_hits.get() - hits0;
    if classified_misses != counted_misses {
        notes.push(format!(
            "replay: {classified_misses} misses classified by timings, {counted_misses} counted by the engine"
        ));
    }

    // Waves: group answers by their wave's start.
    let mut wave_us = Vec::new();
    let mut widths = Vec::new();
    let mut overhead_us = Vec::new();
    for wave in replayed.chunk_by(|a, b| a.wave_started_ns == b.wave_started_ns) {
        let dur = (wave[0].wave_ended_ns - wave[0].wave_started_ns) as f64 / 1e3;
        wave_us.push(dur);
        widths.push(wave[0].wave_width as f64);
        let misses: Vec<&Replayed> = wave.iter().filter(|r| r.miss).collect();
        if let [m] = misses.as_slice() {
            overhead_us.push(dur - m.stages.iter().sum::<u64>() as f64 / 1e3);
        }
    }
    let wait_us: Vec<f64> =
        replayed.iter().map(|r| r.wave_started_ns.saturating_sub(r.submit_ns) as f64 / 1e3).collect();
    metrics.push(Metric::median_of("dispatch.wait_us", "us", wait_us.clone(), wait_us.len()));
    metrics.push(Metric::single("dispatch.queries_per_wave", "count", mean(&widths), widths.len()));
    metrics.push(Metric::single("engine.wave_p50_us", "us", quantile(&wave_us, 0.5), wave_us.len()));
    metrics.push(Metric::single("engine.wave_p90_us", "us", quantile(&wave_us, 0.9), wave_us.len()));
    metrics.push(Metric::median_of("engine.overhead_us", "us", overhead_us.clone(), overhead_us.len()));
    metrics.push(Metric::single("engine.cache_hit_ratio", "ratio", rec.live_hit_ratio, rec.shots.len()));
    let replay_total = (counted_hits + counted_misses).max(1) as f64;
    notes.push(format!("replay cache hit ratio {:.4}", counted_hits as f64 / replay_total));

    // HTTP: parse the recorded request bytes and write the recorded
    // answers, as the connection thread does.
    let by_request: HashMap<usize, &Replayed> = replayed.iter().map(|r| (r.request, r)).collect();
    let mut parse_us = Vec::new();
    let mut write_us = Vec::new();
    let mut client_us = Vec::new();
    let mut layer_us = Vec::new();
    let healthz = median(rec.healthz_us);
    let mut sink = Vec::with_capacity(4096);
    for shot in rec.shots.iter().filter(|s| s.ok && !s.body.is_empty()) {
        let wire = format!(
            "GET {} HTTP/1.1\r\nHost: srs\r\nContent-Length: 0\r\n\r\n",
            crate::fixture::query_path(shot.vertex)
        );
        let t = Instant::now();
        let parsed = srs_serve::http::read_request(&mut Cursor::new(wire.as_bytes()));
        let parse = us(t.elapsed());
        if !matches!(parsed, Ok(Some(_))) {
            return Err(format!("http::read_request rejected {wire:?}"));
        }
        sink.clear();
        let t = Instant::now();
        srs_serve::http::write_response(&mut sink, 200, "application/json", &shot.body, true)
            .map_err(|e| format!("http::write_response: {e}"))?;
        let write = us(t.elapsed());
        let Some(r) = by_request.get(&shot.index) else { continue };
        let dispatch = (r.recv_ns - r.submit_ns) as f64 / 1e3;
        let wave = (r.wave_ended_ns - r.wave_started_ns) as f64 / 1e3;
        let client = shot.latency() * 1e6;
        let sum = healthz + parse + dispatch + write;
        for (name, parent, dur_us) in [
            ("request", None, client),
            ("net.healthz", Some("request"), healthz),
            ("http.parse", Some("request"), parse),
            ("dispatch", Some("request"), dispatch),
            ("engine.wave", Some("dispatch"), wave),
            ("http.write", Some("request"), write),
        ] {
            spans.push(Span { request: shot.index, name, parent, dur_us });
        }
        parse_us.push(parse);
        write_us.push(write);
        client_us.push(client);
        layer_us.push(sum);
    }
    let residual: Vec<f64> = client_us.iter().zip(&layer_us).map(|(c, l)| c - l).collect();
    metrics.push(Metric::median_of("net.healthz_us", "us", rec.healthz_us.to_vec(), rec.healthz_us.len()));
    metrics.push(Metric::median_of("net.residual_us", "us", residual.clone(), residual.len()));
    metrics.push(Metric::median_of("http.parse_us", "us", parse_us.clone(), parse_us.len()));
    metrics.push(Metric::median_of("http.write_us", "us", write_us.clone(), write_us.len()));
    let reconcile = (median(&client_us), median(&layer_us));

    // Single-query layers, one thread, over the replay's cache misses.
    let mut misses: Vec<VertexId> = Vec::new();
    for r in replayed.iter().filter(|r| r.miss) {
        if misses.len() < MAX_MISS_REPLAY && !misses.contains(&r.vertex) {
            misses.push(r.vertex);
        }
    }
    let ds = engine.dataset();
    let (g, index) = (ds.graph(), ds.index());
    let p = index.params().clone();
    let diag = diagonal();
    let mut ctx = QueryContext::new(g, index);
    let mut out = TopKResult::default();
    let mut bfs = BfsBuffers::new(g.num_vertices());
    let mut seen = SeenStamps::new();
    let mut ids = Vec::new();
    let mut ab = AlphaBeta::new_empty();
    let mut walks = WalkPositions::new();
    let mut counter = PositionCounter::new();
    let (mut topk_us, mut scan_us, mut scan_stage_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut bfs_us, mut lookup_us, mut l1_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut visited, mut candidates, mut reported, mut steps) = (Vec::new(), 0u64, 0u64, Vec::new());
    for (i, &u) in misses.iter().enumerate() {
        let t = Instant::now();
        ctx.query_into(u, K, &opts, &mut out);
        let topk = us(t.elapsed());
        let t = Instant::now();
        bfs.run(g, u, Direction::Undirected, p.d_max);
        let b = us(t.elapsed());
        let t = Instant::now();
        index.candidate_index().candidates_into_stamped(u, &mut ids, &mut seen);
        let lookup = us(t.elapsed());
        let t = Instant::now();
        ab.compute_into(
            g,
            u,
            &p,
            &diag,
            |w| bfs.distance(w),
            mix_seed(&[INDEX_SEED, 3, u as u64]),
            &mut walks,
            &mut counter,
        );
        let l1 = us(t.elapsed());
        let scan = topk - b - lookup - l1;
        for (name, parent, dur_us) in [
            ("topk.query", None, topk),
            ("enumerate.bfs", Some("topk.query"), b),
            ("enumerate.lookup", Some("topk.query"), lookup),
            ("bounds.l1", Some("topk.query"), l1),
        ] {
            spans.push(Span { request: i, name, parent, dur_us });
        }
        topk_us.push(topk);
        bfs_us.push(b);
        lookup_us.push(lookup);
        l1_us.push(l1);
        scan_us.push(scan);
        scan_stage_us.push(out.timings.stages[2] as f64 / 1e3);
        visited.push(bfs.visited().len() as f64);
        candidates += out.stats.candidates;
        reported += out.stats.reported;
        steps.push(out.stats.walk_steps as f64);
    }
    let n = misses.len();
    metrics.push(Metric::single("topk.query_p50_us", "us", quantile(&topk_us, 0.5), n));
    metrics.push(Metric::single("topk.query_p90_us", "us", quantile(&topk_us, 0.9), n));
    metrics.push(Metric::median_of("scan.us", "us", scan_us, n));
    metrics.push(Metric::single("scan.candidates", "count", candidates as f64 / n.max(1) as f64, n));
    metrics.push(Metric::single("scan.useful_ratio", "ratio", reported as f64 / candidates.max(1) as f64, n));
    metrics.push(Metric::single("scan.walk_steps", "count", mean(&steps), n));
    metrics.push(Metric::median_of("enumerate.bfs_us", "us", bfs_us, n));
    metrics.push(Metric::single("enumerate.bfs_visited", "count", mean(&visited), n));
    metrics.push(Metric::median_of("enumerate.lookup_us", "us", lookup_us, n));
    metrics.push(Metric::median_of("bounds.l1_us", "us", l1_us, n));
    notes.push(format!("scan stage timing (TopKResult::timings) median {:.2} us", median(&scan_stage_us)));
    drop(ctx);
    drop(ds);
    drop(engine);

    // Snapshot load.
    let mut load_ms = Vec::new();
    for _ in 0..LOAD_REPS {
        let t = Instant::now();
        let loaded = load_dataset(rec.snapshot)?;
        load_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(loaded);
    }
    metrics.push(Metric::median_of("snapshot.load_ms", "ms", load_ms, LOAD_REPS));

    // Delta layers over the batches the run ingested, in order.
    let depth = params().t - 1;
    let mut ds = load_dataset(rec.snapshot)?;
    let (mut apply_ms, mut extend_ms, mut dirty) = (Vec::new(), Vec::new(), Vec::new());
    let (mut build_ms, mut persist_ms) = (Vec::new(), Vec::new());
    let mut parent = 0u64;
    for (j, batch) in rec.batches.iter().take(MAX_BATCH_REPLAY).enumerate() {
        let t = Instant::now();
        let new = batch.apply(ds.graph()).map_err(|e| format!("GraphDelta::apply: {e}"))?;
        let apply = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let ext = extend_delta(ds.index(), ds.graph(), &new, depth, THREADS)
            .map_err(|e| format!("extend_delta: {e}"))?;
        let extend = t.elapsed().as_secs_f64() * 1e3;
        drop(ext.index);
        let t = Instant::now();
        let built =
            build_delta(&ds, batch, depth, THREADS, parent).map_err(|e| format!("build_delta: {e}"))?;
        let build = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        std::fs::write(rec.work.join(format!("replay.d{j:04}")), &built.bytes)
            .map_err(|e| format!("write delta: {e}"))?;
        let persist = t.elapsed().as_secs_f64() * 1e3;
        for (name, parent, dur_ms) in [
            ("chain.build_delta", None, build),
            ("delta.apply", Some("chain.build_delta"), apply),
            ("extend.apply", Some("chain.build_delta"), extend),
            ("chain.persist", None, persist),
        ] {
            spans.push(Span { request: j, name, parent, dur_us: dur_ms * 1e3 });
        }
        build_ms.push(build);
        apply_ms.push(apply);
        extend_ms.push(extend);
        persist_ms.push(persist);
        dirty.push(ext.stats.dirty as f64);
        parent = built.fingerprint;
        ds = built.dataset;
    }
    let b = apply_ms.len();
    metrics.push(Metric::median_of("delta.apply_ms", "ms", apply_ms, b));
    metrics.push(Metric::median_of("extend.apply_ms", "ms", extend_ms, b));
    metrics.push(Metric::single("extend.dirty_rows", "count", mean(&dirty), b));
    metrics.push(Metric::median_of("chain.build_ms", "ms", build_ms, b));
    metrics.push(Metric::median_of("chain.persist_ms", "ms", persist_ms, b));
    Ok(Breakdown { metrics, spans, reconcile, notes })
}

/// The spans as a JSON array.
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"request\":{},\"name\":{},\"parent\":{},\"dur_us\":{}}}",
                s.request,
                crate::stats::string(s.name),
                s.parent.map_or("null".to_string(), crate::stats::string),
                crate::stats::num(s.dur_us)
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}
