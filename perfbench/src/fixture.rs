//! The pinned fixture and the server's lifecycle. Nothing here depends on
//! the workload seed.

use srs_graph::{gen, Graph};
use srs_search::snapshot::pack_to_bytes;
use srs_search::{Diagonal, EngineHandle, QueryOptions, SimRankParams, TopKIndex};
use srs_serve::{HttpClient, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

pub const N: u32 = 100_000;
pub const OUT_DEG: u32 = 4;
pub const COPY_PROB: f64 = 0.8;
pub const GRAPH_SEED: u64 = 42;
pub const INDEX_SEED: u64 = 42;
/// Index-build threads and server engine threads.
pub const THREADS: usize = 2;
/// `k` of every query (the server default).
pub const K: usize = 20;
/// Set-ups per run; `setup_s` is the median of the clean ones.
pub const SETUP_REPS: usize = 5;
/// Draws the recall sample, which unlike the gate sample is pinned.
pub const RECALL_SAMPLE_SEED: u64 = 42;
/// The query whose first 200 answer ends a set-up.
const FIRST_QUERY: u32 = 1;

/// The fixture spec, as recorded in every result.
pub fn spec() -> String {
    format!(
        "copying_web(n={N}, out_deg={OUT_DEG}, copy_prob={COPY_PROB}, seed={GRAPH_SEED}); \
         TopKIndex::build_with(SimRankParams::default(), Diagonal::paper_default(0.6), seed={INDEX_SEED}, threads={THREADS}); \
         heap snapshot; ServerConfig::default() with addr=127.0.0.1:0, threads={THREADS}; k={K}"
    )
}

pub fn graph() -> Graph {
    gen::copying_web(N, OUT_DEG, COPY_PROB, GRAPH_SEED)
}

pub fn params() -> SimRankParams {
    SimRankParams::default()
}

pub fn diagonal() -> Diagonal {
    Diagonal::paper_default(params().c)
}

/// The options the server answers a plain `/query` with, built the way
/// the server builds them from its configuration, so the direct-engine
/// reference always matches the served configuration.
pub fn query_options() -> QueryOptions {
    QueryOptions { fast_tier: ServerConfig::default().fast_tier, ..QueryOptions::default() }
}

pub fn query_path(v: u32) -> String {
    format!("/query?u={v}&k={K}")
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(root: &Path) -> std::io::Result<WorkDir> {
        let dir = root.join(format!("run-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A server running on its own thread.
pub struct Running {
    pub addr: String,
    pub engine: Arc<EngineHandle>,
    pub snapshot: PathBuf,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Running {
    /// Drains the server through `POST /admin/quit` and joins its thread.
    pub fn stop(self) -> Result<(), String> {
        let quit = HttpClient::connect(&self.addr).and_then(|mut c| c.post("/admin/quit"));
        let joined = self.thread.join();
        match (quit, joined) {
            (Err(e), _) => Err(format!("quit: {e}")),
            (Ok(r), _) if r.status != 200 => Err(format!("quit answered {}", r.status)),
            (_, Ok(Ok(()))) => Ok(()),
            (_, Ok(Err(e))) => Err(format!("server run: {e}")),
            (_, Err(_)) => Err("server thread panicked".to_string()),
        }
    }
}

/// Timings of one set-up, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub started: Instant,
    pub build: f64,
    pub pack: f64,
    /// From the start of the index build to the first 200 answer.
    pub total: f64,
    pub bytes: u64,
}

/// Builds the index, packs it to `snapshot`, binds and runs the server,
/// and waits for its first 200 answer.
pub fn stand_up(g: &Graph, snapshot: &Path) -> Result<(Running, SetupTimes), String> {
    let t0 = Instant::now();
    let index = TopKIndex::build_with(g, &params(), diagonal(), INDEX_SEED, THREADS);
    let build = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    let bytes = pack_to_bytes(g, &index);
    std::fs::write(snapshot, &bytes).map_err(|e| format!("write {}: {e}", snapshot.display()))?;
    let pack = t.elapsed().as_secs_f64();
    drop(index);
    let config = ServerConfig {
        snapshot: snapshot.to_path_buf(),
        addr: "127.0.0.1:0".to_string(),
        threads: THREADS,
        ..ServerConfig::default()
    };
    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let engine = server.engine();
    let thread = std::thread::Builder::new()
        .name("perfbench-server".to_string())
        .spawn(move || server.run())
        .map_err(|e| format!("spawn server: {e}"))?;
    let running = Running { addr, engine, snapshot: snapshot.to_path_buf(), thread };
    let first = HttpClient::connect(&running.addr).and_then(|mut c| c.get(&query_path(FIRST_QUERY)));
    let total = t0.elapsed().as_secs_f64();
    match first {
        Ok(r) if r.status == 200 => {
            Ok((running, SetupTimes { started: t0, build, pack, total, bytes: bytes.len() as u64 }))
        }
        other => {
            let why = match other {
                Ok(r) => format!("first query answered {}: {}", r.status, r.body_str()),
                Err(e) => format!("first query: {e}"),
            };
            let _ = running.stop();
            Err(why)
        }
    }
}
