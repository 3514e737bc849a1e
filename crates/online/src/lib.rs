//! # qrw-online
//!
//! The closed online learning loop: session-aware rewriting with click
//! feedback and zero-downtime model hot-swap.
//!
//! The offline pipeline (qrw-core) trains the cycle-consistent
//! translators once, against a frozen click log. Production search is a
//! *loop*: users issue query sessions, clicks reveal which rewrites
//! matched intent, and the model should absorb that signal while serving
//! never stops. This crate closes that loop in three parts:
//!
//! * session-conditioned serving — the online loop serves a
//!   [`Q2QRewriter`](qrw_core::Q2QRewriter) over the f32 model, whose
//!   [`rewrite_with_context`](qrw_core::QueryRewriter::rewrite_with_context)
//!   encodes the user's previous in-session queries as an `EOS`-separated
//!   prefix in front of the current query
//!   ([`encode_session`](qrw_core::encode_session)) and seeds
//!   the sampling RNG from `(context, query)`, so decoding is
//!   deterministic on any worker. With an empty context it *is* the plain
//!   q2q decode.
//! * [`feedback`] — [`FeedbackBuffer`], the cascade click model (shared
//!   byte-for-byte with the A/B simulator) driven over served responses,
//!   harvesting weighted `(session-context + query) → rewrite` training
//!   pairs into a bounded incremental buffer.
//! * [`trainer`] — [`OnlineLoop`], which fine-tunes the joint model on
//!   the buffer each tick, commits a crash-safe checkpoint through the
//!   atomic `CheckpointStore` discipline, and only then hot-swaps the
//!   frozen model into serving via the epoch-pinned
//!   [`ModelStore`](qrw_search::ModelStore) — a failed persist degrades
//!   to the last good epoch instead of swapping.
//!
//! Serving integration lives in qrw-search ([`SessionState`]
//! threading, the `ModelStore` itself, epoch-scoped cache keys) and
//! qrw-serve (the session runtime path); the end-to-end
//! serve→click→train→swap trajectory is exercised by the `online_smoke`
//! bench.
//!
//! [`SessionState`]: qrw_search::SessionState

pub mod feedback;
pub mod trainer;

pub use feedback::{ClickOutcome, FeedbackBuffer, FeedbackConfig, FeedbackStats, rank_page};
pub use trainer::{OnlineConfig, OnlineHealth, OnlineLoop, TickReport, ONLINE_MODEL_NAME};

/// The session model under its earlier name, kept for the benchmark
/// harness.
pub type ContextQ2Q = qrw_core::Q2QRewriter<qrw_nmt::Seq2Seq>;
