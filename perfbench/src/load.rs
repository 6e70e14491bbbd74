//! The load generator: one process, one keep-alive `HttpClient` per
//! client thread. Reads are open loop in the nominal phase (request `j`
//! is due at `start + j/rate` and timed from that due time) and closed
//! loop in the warm-up and saturation phases and the ingest groups.

use crate::fixture::{query_path, K};
use crate::inputs::KeySampler;
use srs_graph::{GraphDelta, VertexId};
use srs_mc::Pcg32;
use srs_serve::HttpClient;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Requests attempted and failed (non-200 or transport error) across
/// every phase, plus answers whose shape was wrong.
#[derive(Default)]
pub struct Tally {
    pub attempted: AtomicU64,
    pub failed: AtomicU64,
    pub malformed: AtomicU64,
    notes: Mutex<Vec<String>>,
}

impl Tally {
    pub fn note(&self, msg: String) {
        let mut notes = self.notes.lock().expect("notes lock poisoned");
        if notes.len() < 8 {
            notes.push(msg);
        }
    }

    pub fn notes(&self) -> Vec<String> {
        self.notes.lock().expect("notes lock poisoned").clone()
    }

    pub fn count(&self, c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    /// Sends one GET and records its outcome; the response on 200.
    pub fn get(&self, client: &mut HttpClient, path: &str) -> Option<srs_serve::Response> {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        match client.get(path) {
            Ok(r) if r.status == 200 => Some(r),
            Ok(r) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                self.note(format!("GET {path}: http {}: {}", r.status, r.body_str()));
                None
            }
            Err(e) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                self.note(format!("GET {path}: {e}"));
                None
            }
        }
    }

    /// A query answer must name its vertex and `k` before anything else.
    fn check_shape(&self, v: VertexId, body: &[u8]) {
        let prefix = format!("{{\"vertex\":{v},\"k\":{K},\"generation\":");
        if !body.starts_with(prefix.as_bytes()) {
            self.malformed.fetch_add(1, Ordering::Relaxed);
            self.note(format!("query {v}: unexpected answer {}", String::from_utf8_lossy(body)));
        }
    }
}

/// One open-loop read, times in seconds since the phase origin.
#[derive(Debug, Clone)]
pub struct Shot {
    pub index: usize,
    pub vertex: VertexId,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub ok: bool,
    /// Whether the connection was idle at the due time, so any lateness
    /// in `sent` is the generator's own.
    pub idle: bool,
    /// The answer body, kept only for recorded requests.
    pub body: Vec<u8>,
}

impl Shot {
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }
}

pub fn sleep_until(t: Instant) {
    if let Some(wait) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// One segment of the nominal phase on connection `conn` of `conns`: the
/// requests `j ≡ conn (mod conns)` of `keys[segment]`, request `j` due at
/// `origin + (j - segment.start)/rate`. Shot times are on the schedule's
/// clock, where request `j` is due at `j/rate` whatever segment it is in.
/// `record(j)` says whether to keep request `j`'s answer body.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    tally: &Tally,
    client: &mut HttpClient,
    keys: &[VertexId],
    segment: Range<usize>,
    conn: usize,
    conns: usize,
    rate: f64,
    origin: Instant,
    record: &dyn Fn(usize) -> bool,
) -> Vec<Shot> {
    let offset = segment.start as f64 / rate;
    let now = || origin.elapsed().as_secs_f64() + offset;
    let mut shots = Vec::with_capacity(segment.len() / conns + 1);
    let mut last_done = offset;
    for j in segment.clone().skip(conn).step_by(conns) {
        let v = keys[j];
        let due = j as f64 / rate;
        sleep_until(origin + Duration::from_secs_f64(due - offset));
        let sent = now();
        let resp = tally.get(client, &query_path(v));
        let done = now();
        let ok = resp.is_some();
        let body = match resp {
            Some(r) => {
                tally.check_shape(v, &r.body);
                if record(j) {
                    r.body
                } else {
                    Vec::new()
                }
            }
            None => Vec::new(),
        };
        shots.push(Shot { index: j, vertex: v, due, sent, done, ok, idle: last_done <= due, body });
        last_done = done;
    }
    shots
}

/// A closed loop: back-to-back reads of keys from `rng` until `count`
/// requests were sent or `deadline` passed. Returns the keys sent and the
/// completion times (seconds since `origin`) of the 200 answers.
pub fn closed_loop(
    tally: &Tally,
    client: &mut HttpClient,
    sampler: &KeySampler,
    rng: &mut Pcg32,
    count: Option<usize>,
    deadline: Option<Instant>,
    origin: Instant,
) -> (Vec<VertexId>, Vec<f64>) {
    let mut sent = Vec::new();
    let mut done = Vec::new();
    loop {
        if count.is_some_and(|c| sent.len() >= c) || deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let v = sampler.draw(rng);
        sent.push(v);
        if let Some(r) = tally.get(client, &query_path(v)) {
            tally.check_shape(v, &r.body);
            done.push(origin.elapsed().as_secs_f64());
        }
    }
    (sent, done)
}

/// One `POST /admin/ingest` round trip, times in seconds since the origin.
#[derive(Debug, Clone)]
pub struct IngestShot {
    pub sent: f64,
    pub done: f64,
    /// The reply body on 200.
    pub reply: Option<String>,
}

impl IngestShot {
    pub fn latency(&self) -> f64 {
        self.done - self.sent
    }
}

/// Posts `batches[group]` in order, each right after the previous reply
/// (closed loop).
pub fn ingest(
    tally: &Tally,
    client: &mut HttpClient,
    batches: &[GraphDelta],
    group: Range<usize>,
    origin: Instant,
) -> Vec<IngestShot> {
    let mut shots = Vec::with_capacity(group.len());
    for j in group {
        let batch = &batches[j];
        let sent = origin.elapsed().as_secs_f64();
        tally.attempted.fetch_add(1, Ordering::Relaxed);
        let reply = match client.post_body("/admin/ingest", &batch.to_bytes()) {
            Ok(r) if r.status == 200 => Some(r.body_str().into_owned()),
            Ok(r) => {
                tally.failed.fetch_add(1, Ordering::Relaxed);
                tally.note(format!("ingest {j}: http {}: {}", r.status, r.body_str()));
                None
            }
            Err(e) => {
                tally.failed.fetch_add(1, Ordering::Relaxed);
                tally.note(format!("ingest {j}: {e}"));
                None
            }
        };
        shots.push(IngestShot { sent, done: origin.elapsed().as_secs_f64(), reply });
    }
    shots
}
