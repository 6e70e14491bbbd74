#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)]
//! # srs-mc — Monte-Carlo substrate
//!
//! Shared machinery for every randomized algorithm in the reproduction:
//!
//! * [`rng`] — a self-contained PCG32 generator (deterministic across
//!   platforms and rand-crate versions) plus seed-derivation helpers.
//! * [`walker`] — the reverse random-walk engine. SimRank's "random surfer"
//!   walks follow **in-links**; a walk at a vertex with no in-links *dies*
//!   (the transition matrix `P` of the paper is substochastic there) and
//!   contributes nothing to later terms of the series.
//! * [`multiset`] — reusable position-count tables for evaluating the
//!   `Σ_w α β / R²` inner products of Algorithm 1.
//! * [`hoeffding`] — the sample-size prescriptions of Corollaries 1–3.
//! * [`stats`] — streaming mean/variance accumulators for estimator
//!   dispersion reporting.
//! * [`obs`] — thread-local walk-step counters, split by descriptor class
//!   (dead/unique/branch), flushed once per kernel call.

pub mod hoeffding;
pub mod multiset;
pub mod obs;
pub mod rng;
pub mod stats;
pub mod walker;

pub use obs::WalkStepCounts;
pub use rng::Pcg32;
pub use walker::{WalkEngine, WalkMatrix, WalkPositions, DEAD, PREFETCH_DIST};
