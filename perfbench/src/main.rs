//! The repository benchmark: stands up the real `srs serve` server
//! in-process on loopback, drives it with an open-loop load generator,
//! checks its answers, and reports the end-to-end metrics of one workload
//! (`--trace 0`) or a per-layer breakdown of it (`--trace 1`).
//!
//! Run from the repository root:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_zipf --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A provenance-stamped result (and,
//! for traced runs, the spans) is written under `perfbench/out/`. The
//! exit code is 0 only when the correctness gate passed.

mod calib;
mod check;
mod fixture;
mod inputs;
mod layers;
mod load;
mod provenance;
mod stats;
mod steal;

use fixture::{SetupTimes, K, THREADS};
use inputs::{KeySampler, Workload};
use load::{IngestShot, Shot, Tally};
use provenance::Provenance;
use srs_search::{load_chain, EngineHandle, LoadOptions};
use srs_serve::HttpClient;
use stats::{median, num, quantile, string, Metric};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Share of `--seconds` spent in the nominal (open-loop) phase.
const NOMINAL_SHARE: f64 = 0.6;
/// Share of `--seconds` spent in the saturation (closed-loop) phase.
const SATURATION_SHARE: f64 = 0.25;
/// The timed phases are cut into this many cycles, each a nominal
/// segment, a saturation segment and a group of ingests, so that every
/// timed metric samples the host over the whole run rather than over one
/// stretch of it.
const CYCLES: usize = 10;
/// Windows per nominal and per saturation segment.
const WINDOWS_PER_SEGMENT: usize = 2;
const WINDOWS: usize = CYCLES * WINDOWS_PER_SEGMENT;
/// Windows a timed metric keeps even when more of them were stolen.
const MIN_CLEAN_WINDOWS: usize = 6;
/// Which clean window a timed metric reports, counted from the best: the
/// lower quartile of window latencies, the upper quartile of window
/// rates (the fifth best of twenty). Contention that `/proc/stat` does not
/// show as steal only ever slows a window too.
const WINDOW_QUANTILE: f64 = 0.25;
/// Ingest batches per cycle (each group is one steal interval), and the
/// groups kept.
const INGEST_GROUP: usize = inputs::PROBE_BATCHES / CYCLES;
const MIN_CLEAN_GROUPS: usize = 5;
/// Set-ups `setup_s` keeps even when more of them were stolen.
const MIN_CLEAN_SETUPS: usize = 3;
/// Pause between the nominal and saturation phases, so the nominal
/// phase's last answers are in before the closed loop starts.
const PHASE_GAP_S: f64 = 0.1;
/// `/healthz` round trips timed in the traced run.
const HEALTHZ_PROBES: usize = 200;
/// A run whose generator sent half of its idle connections' requests this
/// late fell behind its own schedule: it measured the generator, not the
/// server, and is invalid. (The p99 is reported, but bursts of CPU steal
/// on a shared host move it without the schedule slipping.)
const MAX_GEN_LATE_MEDIAN_MS: f64 = 1.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(inputs::workload(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && (1.0..=600.0).contains(&seconds)) {
        return Err("--seconds must be between 1 and 600".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = inputs::WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{report}");
            if !report.contains("\"correct\":true") {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Everything one live run measured.
struct Live {
    setups: Vec<SetupTimes>,
    warm_keys: Vec<u32>,
    nominal_keys: Vec<u32>,
    /// Schedule seconds per nominal segment.
    segment_s: f64,
    /// Start of each cycle's nominal segment.
    nominal_origins: Vec<Instant>,
    /// Every nominal read, times on the schedule's clock (see `open_loop`).
    shots: Vec<Shot>,
    /// Start of each cycle's saturation segment.
    sat_origins: Vec<Instant>,
    /// Per cycle, the completion times (s since its saturation segment
    /// started) of every connection.
    saturation: Vec<Vec<f64>>,
    /// Start of the first cycle; ingest times are seconds since it.
    ingest_origin: Instant,
    ingests: Vec<IngestShot>,
    /// The edit batches, in ingest order.
    batches: Vec<srs_graph::GraphDelta>,
    hit_ratio: f64,
    healthz_us: Vec<f64>,
    /// Seconds of the host-speed probe burst after each set-up.
    setup_probe_s: Vec<f64>,
    /// Seconds of each host-speed probe burst, two per cycle.
    probe_s: Vec<f64>,
    gate: Gate,
}

struct Gate {
    errors: Vec<String>,
    recall: f64,
    recall_queries: usize,
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let nproc = provenance::nproc();
    if w.read_conns > nproc {
        return Err(format!("{} needs {} client threads but nproc is {nproc}", w.name, w.read_conns));
    }
    // `cargo run` names the package directory; run directly, the binary
    // expects the repository root as its working directory.
    let bench_dir =
        PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").unwrap_or_else(|| "perfbench".into()));
    let bench_dir = bench_dir.as_path();
    let out_dir = bench_dir.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let work = fixture::WorkDir::create(&out_dir).map_err(|e| format!("work dir: {e}"))?;
    let started = Instant::now();

    let g = fixture::graph();
    let tally = Tally::default();
    let sampler = steal::Sampler::start();
    let live = drive(args, &g, work.path(), &tally);
    let steal = sampler.finish();
    let live = live?;
    let n_nominal = live.nominal_keys.len();
    let mut notes = tally.notes();
    let after = |origin: Instant, s: f64| origin + Duration::from_secs_f64(s.max(0.0));
    let steal_of = |origin: Instant, a: f64, b: f64| steal.frac(after(origin, a), after(origin, b));

    // Every timed metric is taken over the intervals the hypervisor did
    // not steal from (see `steal.rs`), then adjusted to the reference host
    // speed by the probe bursts run beside it (see `calib.rs`). The
    // measured values stay in the diagnostics as `raw.*`.
    let setup_slow = median(&live.setup_probe_s) / calib::REFERENCE_BURST_S;
    let slow = median(&live.probe_s) / calib::REFERENCE_BURST_S;
    let mut raw = Vec::new();
    let setup_steal: Vec<f64> = live.setups.iter().map(|s| steal_of(s.started, 0.0, s.total)).collect();
    let kept = steal::clean(&setup_steal, MIN_CLEAN_SETUPS);
    let setup: Vec<f64> = kept.iter().map(|&i| live.setups[i].total).collect();
    let kept_setups = setup.len();
    raw.push(Metric::median_of("raw.setup_s", "s", setup, kept_setups));
    // Window `i` is part `i % WINDOWS_PER_SEGMENT` of cycle
    // `i / WINDOWS_PER_SEGMENT`'s segment.
    let window_s = live.segment_s / WINDOWS_PER_SEGMENT as f64;
    let window_of = |due: f64| ((due / window_s) as usize).min(WINDOWS - 1);
    let mut by_window: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    for s in live.shots.iter().filter(|s| s.ok) {
        by_window[window_of(s.due)].push(s.latency() * 1e3);
    }
    let part = |i: usize| (i % WINDOWS_PER_SEGMENT) as f64;
    let nominal_steal: Vec<f64> = (0..WINDOWS)
        .map(|i| {
            let origin = live.nominal_origins[i / WINDOWS_PER_SEGMENT];
            steal_of(origin, part(i) * window_s, (part(i) + 1.0) * window_s)
        })
        .collect();
    let kept = steal::clean(&nominal_steal, MIN_CLEAN_WINDOWS);
    let p50s: Vec<f64> = by_window.iter().map(|l| quantile(l, 0.5)).collect();
    let clean_p50s: Vec<f64> = kept.iter().map(|&i| p50s[i]).collect();
    let clean_p90s: Vec<f64> = kept.iter().map(|&i| quantile(&by_window[i], 0.9)).collect();
    raw.push(Metric::quantile_of("raw.query_p50_ms", "ms", clean_p50s, WINDOW_QUANTILE, n_nominal));
    let sat_segment_s = args.seconds * SATURATION_SHARE / CYCLES as f64;
    let sat_window = sat_segment_s / WINDOWS_PER_SEGMENT as f64;
    let mut sat_counts = [0.0; WINDOWS];
    for (cycle, done) in live.saturation.iter().enumerate() {
        for &t in done.iter().filter(|&&t| (0.0..sat_segment_s).contains(&t)) {
            let part = ((t / sat_window) as usize).min(WINDOWS_PER_SEGMENT - 1);
            sat_counts[cycle * WINDOWS_PER_SEGMENT + part] += 1.0;
        }
    }
    let sat_steal: Vec<f64> = (0..WINDOWS)
        .map(|i| {
            let origin = live.sat_origins[i / WINDOWS_PER_SEGMENT];
            steal_of(origin, part(i) * sat_window, (part(i) + 1.0) * sat_window)
        })
        .collect();
    let kept_sat = steal::clean(&sat_steal, MIN_CLEAN_WINDOWS);
    let rates: Vec<f64> = kept_sat.iter().map(|&i| sat_counts[i] / sat_window).collect();
    let completions = live.saturation.iter().map(Vec::len).sum();
    raw.push(Metric::quantile_of("raw.max_qps", "1/s", rates, 1.0 - WINDOW_QUANTILE, completions));
    let groups: Vec<&[IngestShot]> = live.ingests.chunks(INGEST_GROUP).collect();
    let group_steal: Vec<f64> =
        groups.iter().map(|g| steal_of(live.ingest_origin, g[0].sent, g[g.len() - 1].done)).collect();
    let kept_groups = steal::clean(&group_steal, MIN_CLEAN_GROUPS);
    let ingest_ms: Vec<f64> = kept_groups
        .iter()
        .flat_map(|&i| groups[i].iter())
        .filter(|i| i.reply.is_some())
        .map(|i| i.latency() * 1e3)
        .collect();
    raw.push(Metric::single("raw.ingest_p50_ms", "ms", quantile(&ingest_ms, 0.5), ingest_ms.len()));
    raw.push(Metric::single("raw.ingest_p90_ms", "ms", quantile(&ingest_ms, 0.9), ingest_ms.len()));
    let end_to_end = vec![
        raw[0].scaled("setup_s", 1.0 / setup_slow),
        raw[1].scaled("query_p50_ms", 1.0 / slow),
        raw[2].scaled("max_qps", slow),
        Metric::single("recall_at_k", "ratio", live.gate.recall, live.gate.recall_queries),
        raw[3].scaled("ingest_p50_ms", 1.0 / slow),
        raw[4].scaled("ingest_p90_ms", 1.0 / slow),
    ];
    let pct = |xs: &[f64]| xs.iter().map(|x| format!("{:.1}", x * 100.0)).collect::<Vec<_>>().join(" ");
    notes.push(format!(
        "steal % per set-up [{}], nominal window [{}], saturation window [{}], ingest group [{}]; \
         kept {} set-ups, {} + {} windows, {} groups",
        pct(&setup_steal),
        pct(&nominal_steal),
        pct(&sat_steal),
        pct(&group_steal),
        kept_setups,
        kept.len(),
        kept_sat.len(),
        kept_groups.len()
    ));

    let fmt = |xs: &[f64]| xs.iter().map(|x| format!("{x:.1}")).collect::<Vec<_>>().join(" ");
    let ms = |xs: &[f64]| xs.iter().map(|x| x * 1e3).collect::<Vec<_>>();
    notes.push(format!(
        "probe burst ms: set-up [{}], cycles [{}]",
        fmt(&ms(&live.setup_probe_s)),
        fmt(&ms(&live.probe_s))
    ));
    let ingest_round_trips: Vec<f64> = live.ingests.iter().map(|i| i.latency() * 1e3).collect();
    notes.push(format!("ingest round trips ms [{}]", fmt(&ingest_round_trips)));
    notes.push(format!(
        "window query p50 ms [{}], saturation window qps [{}]",
        fmt(&p50s),
        fmt(&sat_counts.map(|c| c / sat_window))
    ));

    // Diagnostics every run records.
    let attempted = tally.count(&tally.attempted);
    let failed = tally.count(&tally.failed);
    let all_ms: Vec<f64> = live.shots.iter().filter(|s| s.ok).map(|s| s.latency() * 1e3).collect();
    let late_ms: Vec<f64> =
        live.shots.iter().filter(|s| s.idle).map(|s| (s.sent - s.due).max(0.0) * 1e3).collect();
    let gen_late_p99 = quantile(&late_ms, 0.99);
    let mut diagnostics = vec![
        Metric::single("failed_frac", "ratio", failed as f64 / attempted.max(1) as f64, attempted as usize),
        Metric::quantile_of("raw.query_p90_ms", "ms", clean_p90s, WINDOW_QUANTILE, n_nominal)
            .scaled("query_p90_ms", 1.0 / slow),
        Metric::single("query_p99_ms", "ms", quantile(&all_ms, 0.99), all_ms.len()),
        Metric::single("gen.late_p99_ms", "ms", gen_late_p99, late_ms.len()),
        Metric::single("engine.cache_hit_ratio", "ratio", live.hit_ratio, n_nominal),
        Metric::single("host.steal_frac", "ratio", steal.total(), 1),
        Metric::median_of("host.probe_ms", "ms", ms(&live.probe_s), live.probe_s.len()),
    ];
    diagnostics.extend(raw);

    let mut per_layer = Vec::new();
    let mut spans = String::new();
    if args.trace {
        let rec = layers::Recorded {
            snapshot: &work.path().join("base.srs"),
            warm_keys: &live.warm_keys,
            nominal_keys: &live.nominal_keys,
            rate: w.rate,
            conns: w.read_conns,
            shots: &live.shots,
            batches: &live.batches,
            healthz_us: &live.healthz_us,
            live_hit_ratio: live.hit_ratio,
            work: work.path(),
        };
        let b = layers::replay(&rec)?;
        per_layer = b.metrics;
        let (client, layered) = b.reconcile;
        let reconciled = (client - layered).abs() <= layers::RECONCILE_TOLERANCE * client;
        notes.extend(b.notes);
        notes.push(format!(
            "reconciliation: median client latency {client:.1} us, median layer sum {layered:.1} us ({})",
            if reconciled { "within tolerance" } else { "OUTSIDE tolerance" }
        ));
        let setup_build: Vec<f64> = live.setups.iter().map(|s| s.build).collect();
        let setup_pack: Vec<f64> = live.setups.iter().map(|s| s.pack).collect();
        per_layer.push(Metric::median_of("build.index_s", "s", setup_build, live.setups.len()));
        per_layer.push(Metric::median_of("snapshot.pack_s", "s", setup_pack, live.setups.len()));
        per_layer.push(Metric::single("snapshot.bytes", "bytes", live.setups[0].bytes as f64, 1));
        per_layer.push(Metric::single("gen.late_p99_ms", "ms", gen_late_p99, late_ms.len()));
        per_layer.push(Metric::median_of("host.probe_ms", "ms", ms(&live.probe_s), live.probe_s.len()));
        // Odd cycles' nominal segments kept answer bodies for the replay;
        // even ones ran exactly as an untraced run does. (All windows: the
        // metric has no bound, and each parity needs at least one window.)
        let odd_cycle = |i: &usize| (i / WINDOWS_PER_SEGMENT) % 2 == 1;
        let traced: Vec<f64> = (0..WINDOWS).filter(odd_cycle).map(|i| p50s[i]).collect();
        let untraced: Vec<f64> = (0..WINDOWS).filter(|i| !odd_cycle(i)).map(|i| p50s[i]).collect();
        per_layer.push(Metric::single(
            "trace.overhead_frac",
            "ratio",
            median(&traced) / median(&untraced) - 1.0,
            WINDOWS,
        ));
        spans = layers::spans_json(&b.spans);
    }

    let correct = live.gate.errors.is_empty() && tally.count(&tally.malformed) == 0;
    let gen_late_median = median(&late_ms);
    let valid = gen_late_median <= MAX_GEN_LATE_MEDIAN_MS;
    let prov = Provenance::collect(bench_dir.parent().unwrap_or(bench_dir));
    let reported = if args.trace { &per_layer } else { &end_to_end };
    let diagnostics: Vec<Metric> =
        diagnostics.into_iter().filter(|d| !reported.iter().any(|m| m.name == d.name)).collect();
    for m in reported.iter().chain(&diagnostics) {
        println!("{} {} = {} {} (n={})", w.name, m.name, num(m.value), m.unit, m.samples);
    }
    for note in notes.iter().chain(&live.gate.errors) {
        eprintln!("perfbench: {note}");
    }

    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    let metrics_json = |ms: &[Metric]| {
        let parts: Vec<String> = ms.iter().map(|m| format!("{}:{}", string(m.name), m.to_json())).collect();
        format!("{{{}}}", parts.join(","))
    };
    let result = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"fixture\":{},\"provenance\":{},\
         \"correct\":{correct},\"valid\":{valid},\"attempted\":{attempted},\"failed\":{failed},\
         \"wall_s\":{},\"metrics\":{},\"diagnostics\":{},\"notes\":[{}]}}\n",
        string(w.name),
        args.seed,
        num(args.seconds),
        args.trace,
        string(&fixture::spec()),
        prov.to_json(),
        num(started.elapsed().as_secs_f64()),
        metrics_json(reported),
        metrics_json(&diagnostics),
        notes.iter().chain(&live.gate.errors).map(|n| string(n)).collect::<Vec<_>>().join(",")
    );
    write_file(&out_dir.join(format!("{stem}.json")), &result)?;
    if args.trace {
        write_file(&out_dir.join(format!("{stem}-spans.json")), &spans)?;
    }
    if !valid {
        return Err(format!(
            "run invalid: the load generator fell behind its own schedule (median idle-connection send {gen_late_median:.2} ms late > {MAX_GEN_LATE_MEDIAN_MS} ms)"
        ));
    }

    let short: Vec<String> = reported
        .iter()
        .map(|m| format!("{}:{{\"value\":{},\"unit\":{}}}", string(m.name), num(m.value), string(m.unit)))
        .collect();
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        short.join(",")
    ))
}

fn write_file(path: &PathBuf, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Sets up, runs every phase against the live servers, gates their
/// answers and stops them. The last two set-ups stay up: the last serves
/// every read, the one before it every ingest, so that the edits never
/// touch the read server's result cache and the ingest groups can be
/// spread over the run.
fn drive(args: &Args, g: &srs_graph::Graph, work: &Path, tally: &Tally) -> Result<Live, String> {
    let w = args.workload;
    let n = g.num_vertices();
    let sampler = KeySampler::new(w.keys, n);
    let per_cycle = (args.seconds * NOMINAL_SHARE / CYCLES as f64 * w.rate).round() as usize;
    let nominal_keys = inputs::nominal_keys(&sampler, args.seed, per_cycle * CYCLES);
    let batches = inputs::edit_batches(g, args.seed, inputs::PROBE_BATCHES);
    let sample = inputs::sample_vertices(n, args.seed);

    let read_snapshot = work.join("base.srs");
    let ingest_dir = work.join("ingest");
    std::fs::create_dir_all(&ingest_dir).map_err(|e| format!("create {}: {e}", ingest_dir.display()))?;
    let ingest_snapshot = ingest_dir.join("base.srs");
    let probe = calib::Probe::new(g);
    let mut setups = Vec::with_capacity(fixture::SETUP_REPS);
    let mut setup_probe_s = Vec::with_capacity(fixture::SETUP_REPS);
    let mut up = Vec::with_capacity(2);
    for rep in 0..fixture::SETUP_REPS {
        let path = if rep + 2 == fixture::SETUP_REPS { &ingest_snapshot } else { &read_snapshot };
        let (running, times) = match fixture::stand_up(g, path) {
            Ok(r) => r,
            Err(e) => {
                for server in up {
                    let _ = fixture::Running::stop(server);
                }
                return Err(e);
            }
        };
        setups.push(times);
        setup_probe_s.push(probe.burst(THREADS));
        if rep + 2 >= fixture::SETUP_REPS {
            up.push(running);
        } else {
            running.stop()?;
        }
    }
    let read = up.pop().expect("the read server is up");
    let ingest = up.pop().expect("the ingest server is up");
    let outcome = exercise(args, &read, &ingest, tally, &sampler, &nominal_keys, &batches, &sample, &probe);
    let stopped = (read.stop(), ingest.stop());
    let mut live = outcome?;
    stopped.0?;
    stopped.1?;
    live.setups = setups;
    live.setup_probe_s = setup_probe_s;
    live.batches = batches;
    Ok(live)
}

#[allow(clippy::too_many_arguments)]
fn exercise(
    args: &Args,
    read: &fixture::Running,
    ingest: &fixture::Running,
    tally: &Tally,
    sampler: &KeySampler,
    nominal_keys: &[u32],
    batches: &[srs_graph::GraphDelta],
    sample: &[u32],
    probe: &calib::Probe,
) -> Result<Live, String> {
    let w = args.workload;
    let connect = |server: &fixture::Running| {
        HttpClient::connect(&server.addr).map_err(|e| format!("connect {}: {e}", server.addr))
    };
    let mut readers: Vec<HttpClient> = (0..w.read_conns).map(|_| connect(read)).collect::<Result<_, _>>()?;
    let mut writer = connect(ingest)?;
    let info = tally.get(&mut writer, "/info").ok_or("GET /info failed")?;
    let info = info.body_str();
    let generation0 = check::json_u64(&info, "generation").ok_or("no generation in /info")?;
    let depth0 = check::json_u64(&info, "chain_depth").ok_or("no chain_depth in /info")?;

    // Warm-up: untimed, closed loop, the workload's key distribution.
    let per_conn = w.warm_requests.div_ceil(w.read_conns);
    let warm_keys: Vec<u32> = std::thread::scope(|s| {
        let handles: Vec<_> = readers
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut rng = inputs::key_stream(args.seed, 0, c);
                    load::closed_loop(tally, client, sampler, &mut rng, Some(per_conn), None, Instant::now())
                        .0
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("warm-up thread panicked")).collect()
    });

    // The cycles: a nominal (open loop) segment, a saturation (closed
    // loop) segment, then a group of ingests on the ingest server while
    // the read server idles.
    let per_cycle = nominal_keys.len() / CYCLES;
    let segment_s = per_cycle as f64 / w.rate;
    let sat_segment_s = args.seconds * SATURATION_SHARE / CYCLES as f64;
    let record = |j: usize| args.trace && (j / per_cycle) % 2 == 1;
    let counters = &read.engine.metrics();
    let mut sat_rngs: Vec<_> = (0..w.read_conns).map(|c| inputs::key_stream(args.seed, 2, c)).collect();
    let (mut shots, mut nominal_origins, mut sat_origins, mut saturation) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut misses) = (0, 0);
    let mut ingests = Vec::with_capacity(batches.len());
    let mut probe_s = Vec::with_capacity(2 * CYCLES);
    let ingest_origin = Instant::now();
    for cycle in 0..CYCLES {
        let segment = cycle * per_cycle..(cycle + 1) * per_cycle;
        let origin = Instant::now() + Duration::from_millis(20);
        let sat_origin = origin + Duration::from_secs_f64(segment_s + PHASE_GAP_S);
        let deadline = sat_origin + Duration::from_secs_f64(sat_segment_s);
        let (hits0, misses0) = (counters.cache_hits.get(), counters.cache_misses.get());
        let outcomes: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = readers
                .iter_mut()
                .zip(sat_rngs.iter_mut())
                .enumerate()
                .map(|(c, (client, rng))| {
                    let (record, segment) = (&record, segment.clone());
                    s.spawn(move || {
                        let shots = load::open_loop(
                            tally,
                            client,
                            nominal_keys,
                            segment,
                            c,
                            w.read_conns,
                            w.rate,
                            origin,
                            record,
                        );
                        load::sleep_until(sat_origin);
                        let counted = (c == 0).then(|| {
                            (counters.cache_hits.get() - hits0, counters.cache_misses.get() - misses0)
                        });
                        let (_, done) =
                            load::closed_loop(tally, client, sampler, rng, None, Some(deadline), sat_origin);
                        (shots, done, counted)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
        });
        let mut done_in_cycle = Vec::new();
        for (s, done, counted) in outcomes {
            shots.extend(s);
            done_in_cycle.extend(done);
            if let Some((h, m)) = counted {
                (hits, misses) = (hits + h, misses + m);
            }
        }
        nominal_origins.push(origin);
        sat_origins.push(sat_origin);
        saturation.push(done_in_cycle);
        probe_s.push(probe.burst(THREADS));
        let group = cycle * INGEST_GROUP..(cycle + 1) * INGEST_GROUP;
        ingests.extend(load::ingest(tally, &mut writer, batches, group, ingest_origin));
        probe_s.push(probe.burst(THREADS));
    }
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;

    // Correctness: each server's answers against a direct engine on the
    // state it should now be serving — the read server on the snapshot,
    // the ingest server on the chain of deltas it wrote.
    let mut gate = Gate { errors: Vec::new(), recall: f64::NAN, recall_queries: 0 };
    let replies: Vec<&str> = ingests.iter().filter_map(|i| i.reply.as_deref()).collect();
    if replies.len() != ingests.len() {
        gate.errors.push(format!("{} of {} ingests failed", ingests.len() - replies.len(), ingests.len()));
    }
    let deltas = match check::check_ingest_replies(&replies, generation0, depth0) {
        Ok(d) => d,
        Err(e) => {
            gate.errors.push(e);
            Vec::new()
        }
    };
    // Both servers answer the seeded sample; the ingest server also the
    // pinned recall sample, so recall moves only with the served state,
    // not with which vertices a seed happened to draw.
    let recall_sample = inputs::sample_vertices(fixture::N, fixture::RECALL_SAMPLE_SEED);
    let checked: Vec<u32> = sample.iter().chain(&recall_sample).copied().collect();
    let serve = |client: &mut HttpClient, vertices: &[u32]| -> Vec<Option<Vec<u8>>> {
        vertices.iter().map(|&v| tally.get(client, &fixture::query_path(v)).map(|r| r.body)).collect()
    };
    let read_served = serve(&mut readers[0], sample);
    let chain_served = serve(&mut writer, &checked);
    let healthz_us: Vec<f64> = if args.trace {
        (0..HEALTHZ_PROBES)
            .filter_map(|_| {
                let t = Instant::now();
                tally.get(&mut readers[0], "/healthz").map(|_| t.elapsed().as_secs_f64() * 1e6)
            })
            .collect()
    } else {
        Vec::new()
    };
    drop(readers);
    drop(writer);
    if gate.errors.is_empty() {
        let (base, _) = direct_engine(&read.snapshot, &[])?;
        compare_served(&mut gate.errors, sample, &read_served, &base);
        drop(base);
        let (chained, depth) = direct_engine(&ingest.snapshot, &deltas)?;
        if depth != deltas.len() {
            gate.errors.push(format!("chain depth {depth} for {} deltas", deltas.len()));
        }
        compare_served(&mut gate.errors, &checked, &chain_served, &chained);
        let dataset = chained.dataset();
        let post_edit = dataset.graph();
        let params = fixture::params();
        let references: Vec<Vec<u32>> = std::thread::scope(|s| {
            let half = recall_sample.len().div_ceil(THREADS);
            let handles: Vec<_> = recall_sample
                .chunks(half)
                .map(|part| {
                    let params = &params;
                    s.spawn(move || {
                        part.iter()
                            .map(|&u| check::reference_topk(post_edit, u, params, K))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("reference thread panicked")).collect()
        });
        let mut recalls = Vec::new();
        for (body, reference) in chain_served[sample.len()..].iter().zip(&references) {
            let got =
                body.as_deref().and_then(check::served_hits).map(check::hit_vertices).unwrap_or_default();
            recalls.extend(check::recall(&got, reference));
        }
        gate.recall = stats::mean(&recalls);
        gate.recall_queries = recalls.len();
    }
    Ok(Live {
        setups: Vec::new(),
        warm_keys,
        nominal_keys: nominal_keys.to_vec(),
        segment_s,
        nominal_origins,
        shots,
        sat_origins,
        saturation,
        ingest_origin,
        ingests,
        batches: Vec::new(),
        hit_ratio,
        healthz_us,
        setup_probe_s: Vec::new(),
        probe_s,
        gate,
    })
}

/// A cacheless engine on `snapshot` plus `deltas`, loaded the way the
/// server loads them, and the depth of the chain it replayed.
fn direct_engine(snapshot: &Path, deltas: &[String]) -> Result<(EngineHandle, usize), String> {
    let (loaded, _, chain, _) =
        load_chain(snapshot, deltas, &LoadOptions::default()).map_err(|e| format!("load_chain: {e}"))?;
    let direct = EngineHandle::with_threads(loaded, THREADS);
    direct.set_cache_capacity(0);
    Ok((direct, chain.depth as usize))
}

/// Checks each served answer against the direct engine's hits for the
/// same vertex; after five differences the rest are named only.
fn compare_served(
    errors: &mut Vec<String>,
    vertices: &[u32],
    served: &[Option<Vec<u8>>],
    direct: &EngineHandle,
) {
    let opts = fixture::query_options();
    for (&v, body) in vertices.iter().zip(served) {
        let Some(body) = body else {
            errors.push(format!("query {v} failed"));
            continue;
        };
        if let Err(e) = check::compare_hits(v, body, &direct.query(v, K, &opts).hits) {
            if errors.len() < 5 {
                errors.push(e);
            } else {
                errors.push(format!("query {v}: served hits differ"));
            }
        }
    }
}
