//! The coalescing dispatcher: a bounded submit queue drained by
//! `engine.threads()` dispatcher loops, each running its own
//! [`EngineHandle::query_wave`] waves inline.
//!
//! Request threads call [`Coalescer::submit`] and block on the returned
//! reply channel. A free loop takes whatever is queued (up to
//! `max_batch`) and serves it on its own thread, so several waves run at
//! once and no wave waits for another. Batching needs no waiting: while
//! every loop is busy, arrivals queue up, and the next loop to come free
//! takes them all as one wave. An optional `batch_window` (off by
//! default) makes a loop linger for late arrivals before it serves. Only
//! one loop lingers at a time and the others wait for it to finish
//! collecting, so arrivals within the window join that loop's wave (up
//! to `max_batch`) whatever the loop count. Answers are bit-identical to
//! serving each request alone: coalescing decides who computes together
//! and which loop serves them, never what the answer is (see
//! `srs-search`'s determinism contract).
//!
//! Shutdown is a drain: [`Coalescer::close`] rejects new submissions but
//! the loops keep serving until the queue is empty, so every request
//! that was accepted gets its answer.
//!
//! The loops are the server's only path to the engine, so each defends
//! itself twice: the engine re-validates every vertex against the
//! generation the wave actually pins (a reload can shrink the graph
//! between submit and dispatch — see [`QueryAnswer::out_of_range`]), and
//! every wave call runs under `catch_unwind`, so an engine panic fails
//! that wave's requests with errors instead of killing the loop and
//! hanging every future query.

use srs_search::engine::WaveQuery;
use srs_search::{EngineHandle, TopKResult};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::ServerMetrics;

/// What the dispatcher sends back for one submitted query.
#[derive(Debug)]
pub struct QueryAnswer {
    /// The top-k result (empty when `out_of_range`).
    pub result: TopKResult,
    /// The dataset generation the answering wave pinned — read under the
    /// same pin as the computation, so it always names the snapshot that
    /// actually produced `result`.
    pub generation: u64,
    /// The query's vertex did not exist in the pinned generation (it
    /// passed submit-time validation against an older, larger snapshot,
    /// then a hot reload shrank the graph).
    pub out_of_range: bool,
    /// When the answering wave handed off to the engine, in ns since the
    /// process trace epoch ([`srs_obs::now_ns`]) — the end of this
    /// request's queue linger. Two clock reads *per wave*, so tracing
    /// adds nothing per-request on the dispatcher side.
    pub wave_started_ns: u64,
    /// When the answering wave's engine call returned, same timebase.
    pub wave_ended_ns: u64,
    /// How many requests the answering wave coalesced (this request's
    /// wave membership).
    pub wave_width: u32,
}

/// Why a submission was rejected (the request answers 503).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity — the server is overloaded.
    Full,
    /// The dispatcher is draining for shutdown.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => write!(f, "dispatch queue full"),
            SubmitError::Closed => write!(f, "dispatcher is draining"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct Pending {
    query: WaveQuery,
    reply: mpsc::Sender<QueryAnswer>,
}

struct QueueInner {
    queue: VecDeque<Pending>,
    closed: bool,
    /// A loop is inside its `batch_window`, collecting late arrivals:
    /// submissions wake it (on `linger`), and the other loops leave
    /// the queue to it until it is done.
    lingering: bool,
}

/// The bounded submit queue plus the loops' collection parameters.
/// Shared between request threads (producers) and the dispatcher loops
/// (consumers) via `Arc`.
pub struct Coalescer {
    inner: Mutex<QueueInner>,
    /// Wakes an idle loop: work arrived, the queue was closed, or a
    /// lingering loop finished collecting and left work behind.
    work: Condvar,
    /// Wakes the lingering loop when work arrives or the queue closes.
    linger: Condvar,
    capacity: usize,
    max_batch: usize,
    window: Duration,
}

impl Coalescer {
    /// A coalescer holding at most `capacity` queued queries, serving at
    /// most `max_batch` per wave, lingering up to `window` per wave for
    /// late arrivals (`Duration::ZERO`: serve what is queued at once).
    pub fn new(capacity: usize, max_batch: usize, window: Duration) -> Self {
        Coalescer {
            inner: Mutex::new(QueueInner { queue: VecDeque::new(), closed: false, lingering: false }),
            work: Condvar::new(),
            linger: Condvar::new(),
            capacity: capacity.max(1),
            max_batch: max_batch.max(1),
            window,
        }
    }

    /// Enqueues one query; the answer arrives on the returned channel
    /// when its wave completes.
    pub fn submit(&self, query: WaveQuery) -> Result<mpsc::Receiver<QueryAnswer>, SubmitError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(SubmitError::Closed);
        }
        if inner.queue.len() >= self.capacity {
            return Err(SubmitError::Full);
        }
        let (tx, rx) = mpsc::channel();
        inner.queue.push_back(Pending { query, reply: tx });
        let lingering = inner.lingering;
        drop(inner);
        if lingering {
            self.linger.notify_one();
        } else {
            self.work.notify_one();
        }
        Ok(rx)
    }

    /// Rejects all future submissions and wakes every loop so they can
    /// drain the queue and return. Idempotent.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.work.notify_all();
        self.linger.notify_all();
    }

    /// Whether [`Coalescer::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }

    /// How long a loop lingers for late arrivals per wave.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Queries currently waiting for a wave.
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().queue.len()
    }

    /// Serves the queue on `engine.threads()` dispatcher loops — the
    /// calling thread is one of them — until closed **and** drained:
    /// every accepted query is answered before this returns. Run it on a
    /// dedicated thread.
    pub fn run(&self, engine: &EngineHandle, metrics: &ServerMetrics) {
        std::thread::scope(|s| {
            for i in 1..engine.threads() {
                let spawned = std::thread::Builder::new()
                    .name(format!("srs-dispatch-{i}"))
                    .spawn_scoped(s, || self.serve_loop(engine, metrics));
                if let Err(e) = spawned {
                    // Fewer loops only cost parallelism; the calling
                    // thread still serves every wave.
                    eprintln!("srs-serve: could not spawn dispatcher loop {i}: {e}");
                    break;
                }
            }
            self.serve_loop(engine, metrics);
        });
    }

    /// One dispatcher loop: collect a wave, serve it, fan the results
    /// back, repeat. Returns once the queue is closed and empty.
    fn serve_loop(&self, engine: &EngineHandle, metrics: &ServerMetrics) {
        let mut wave: Vec<WaveQuery> = Vec::with_capacity(self.max_batch);
        let mut replies: Vec<mpsc::Sender<QueryAnswer>> = Vec::with_capacity(self.max_batch);
        loop {
            wave.clear();
            replies.clear();
            {
                let mut inner = self.inner.lock().unwrap();
                loop {
                    if !inner.queue.is_empty() && !inner.lingering {
                        break;
                    }
                    if inner.queue.is_empty() && inner.closed {
                        metrics.queue_depth.set(0);
                        return;
                    }
                    inner = self.work.wait(inner).unwrap();
                }
                take_queued(&mut inner, self.max_batch, &mut wave, &mut replies);
                // Linger for late arrivals — the coalescing window. Skipped
                // when already full or draining (drain wants latency, not
                // batching).
                if wave.len() < self.max_batch && !inner.closed && !self.window.is_zero() {
                    inner.lingering = true;
                    let deadline = Instant::now() + self.window;
                    while wave.len() < self.max_batch && !inner.closed {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        let (guard, timeout) = self.linger.wait_timeout(inner, deadline - now).unwrap();
                        inner = guard;
                        take_queued(&mut inner, self.max_batch, &mut wave, &mut replies);
                        if timeout.timed_out() {
                            break;
                        }
                    }
                    inner.lingering = false;
                }
                metrics.queue_depth.set(inner.queue.len() as u64);
                // More than one wave's worth queued (or arrivals the
                // linger left behind): hand the rest to an idle loop.
                // Draining: wake them all, since a loop that waited out
                // a linger must see the queue empty and return.
                if inner.closed {
                    self.work.notify_all();
                } else if !inner.queue.is_empty() {
                    self.work.notify_one();
                }
            }
            metrics.waves.inc();
            // The loop must survive anything the engine does: a
            // panicking wave drops its reply senders, so each blocked
            // request observes a closed channel and answers 500, while
            // the loop moves on to the next wave.
            let wave_started_ns = srs_obs::now_ns();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.query_wave(&wave)));
            let wave_ended_ns = srs_obs::now_ns();
            let outcome = match outcome {
                Ok(outcome) => outcome,
                Err(_) => {
                    metrics.wave_panics.inc();
                    replies.clear();
                    continue;
                }
            };
            for &size in &outcome.batch_sizes {
                metrics.wave_size.observe(size as u64);
            }
            // A dropped receiver (client hung up mid-wait) is fine — the
            // answer just has nowhere to go.
            let generation = outcome.generation;
            let wave_width = wave.len() as u32;
            let answers =
                outcome.results.into_iter().zip(outcome.out_of_range).map(|(result, out_of_range)| {
                    QueryAnswer {
                        result,
                        generation,
                        out_of_range,
                        wave_started_ns,
                        wave_ended_ns,
                        wave_width,
                    }
                });
            for (reply, answer) in replies.drain(..).zip(answers) {
                let _ = reply.send(answer);
            }
        }
    }
}

fn take_queued(
    inner: &mut QueueInner,
    max_batch: usize,
    wave: &mut Vec<WaveQuery>,
    replies: &mut Vec<mpsc::Sender<QueryAnswer>>,
) {
    while wave.len() < max_batch {
        match inner.queue.pop_front() {
            Some(p) => {
                wave.push(p.query);
                replies.push(p.reply);
            }
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_search::QueryOptions;
    use std::sync::Arc;

    fn q(vertex: u32) -> WaveQuery {
        WaveQuery { vertex, k: 5, opts: Arc::new(QueryOptions::default()) }
    }

    #[test]
    fn queue_bounds_and_close_are_enforced() {
        let c = Coalescer::new(2, 8, Duration::from_micros(100));
        let _a = c.submit(q(1)).unwrap();
        let _b = c.submit(q(2)).unwrap();
        assert_eq!(c.depth(), 2);
        assert_eq!(c.submit(q(3)).unwrap_err(), SubmitError::Full);
        c.close();
        assert!(c.is_closed());
        assert_eq!(c.submit(q(4)).unwrap_err(), SubmitError::Closed);
        c.close(); // idempotent
    }

    #[test]
    fn capacity_and_batch_floors() {
        let c = Coalescer::new(0, 0, Duration::ZERO);
        assert_eq!(c.capacity, 1);
        assert_eq!(c.max_batch, 1);
    }

    /// Two dispatcher loops, four submitters, a close mid-stream: every
    /// accepted submission is answered exactly as a direct engine call
    /// would answer it, every later one is refused, and `run` returns —
    /// with no window and with a window (one loop lingering while the
    /// other waits for it, close landing in either state).
    #[test]
    fn loops_drain_on_close_and_answer_like_direct_calls() {
        use srs_search::{Dataset, ServingEngine, SimRankParams, TopKIndex};
        use std::sync::atomic::{AtomicUsize, Ordering};

        let g = srs_graph::gen::copying_web(300, 4, 0.8, 8);
        let params = SimRankParams { r_bounds: 2_000, ..Default::default() };
        let idx = TopKIndex::build(&g, &params, 7);
        let engine = EngineHandle::Single(ServingEngine::with_threads(Dataset::new(g, idx).unwrap(), 2));
        assert_eq!(engine.threads(), 2);
        let opts = QueryOptions::default();
        for window in [Duration::ZERO, Duration::from_millis(1)] {
            let metrics = ServerMetrics::register_on(&srs_obs::Registry::new());
            let c = Coalescer::new(100_000, 8, window);
            let submitted = AtomicUsize::new(0);
            std::thread::scope(|s| {
                let dispatcher = s.spawn(|| c.run(&engine, &metrics));
                let submitters: Vec<_> = (0..4u32)
                    .map(|t| {
                        let (c, submitted) = (&c, &submitted);
                        s.spawn(move || {
                            let mut accepted = Vec::new();
                            for i in 0..10_000u32 {
                                let v = (t * 97 + i * 13) % 300;
                                match c.submit(q(v)) {
                                    Ok(rx) => accepted.push((v, rx)),
                                    Err(e) => {
                                        assert_eq!(e, SubmitError::Closed);
                                        // Closed stays closed.
                                        assert_eq!(c.submit(q(v)).unwrap_err(), SubmitError::Closed);
                                        return accepted;
                                    }
                                }
                                submitted.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            panic!("the coalescer was never closed");
                        })
                    })
                    .collect();
                while submitted.load(Ordering::Relaxed) < 64 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                c.close();
                dispatcher.join().expect("dispatcher loops returned");
                assert_eq!(c.depth(), 0, "closed and drained");
                let mut answered = 0;
                for h in submitters {
                    for (v, rx) in h.join().unwrap() {
                        let answer = rx.recv().expect("accepted submission answered before run returned");
                        assert!(!answer.out_of_range);
                        assert_eq!(answer.result.hits, engine.query(v, 5, &opts).hits, "u={v}");
                        answered += 1;
                    }
                }
                assert!(answered >= 64, "{window:?}: {answered}");
            });
        }
    }
}
