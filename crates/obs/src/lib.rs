//! # qrw-obs
//!
//! In-tree observability for the serving and training stacks — hermetic
//! like everything else in the workspace (no external deps).
//!
//! Two building blocks:
//!
//! * [`Tracer`] — a structured span/event tracer. Producers open
//!   [`SpanGuard`]s (`admit → queue-wait → batch-assemble → decode →
//!   ladder-rung → rank` in the serving runtime; per-step
//!   `forward/backward/opt` in the trainer; the live-catalog epoch
//!   lifecycle adds `pin` — a child of `serve` carrying the pinned
//!   `epoch` — plus writer-side `publish` (`epoch`/`ops`/`segments`, or
//!   `epoch`/`compacted` for compactions) and `reclaim` (`freed`)
//!   spans); completed spans land in a
//!   **lock-sharded in-memory ring buffer** and export as JSONL. The
//!   tracer doubles as a *correctness tool*: because every span carries a
//!   trace id and parent link, tests can assert span-tree invariants
//!   ("every admitted request ends in exactly one terminal span") instead
//!   of only eyeballing latency numbers. [`canonical_structure`] renders
//!   timestamp-free trees so structure can be compared byte-for-byte
//!   across worker counts.
//! * [`Histogram`] — a log-bucketed (HDR-style) latency histogram with a
//!   **fixed bucket layout**, so worker-local histograms [`merge`]
//!   exactly (merge is plain per-bucket count addition: associative,
//!   commutative, lossless). Feeds p50/p95/p99 into `health_report()`
//!   and `BENCH_serve.json`.
//!
//! Timestamps come from an [`ObsClock`], mirroring the serving stack's
//! deadline `Clock`: the monotonic wall clock for real runs, or a
//! **logical clock** (an atomic tick per read) for tests —
//! logical ticks are globally unique, so the per-trace span order is a
//! total, machine-speed-independent order and trace structure becomes
//! deterministic and assertable.
//!
//! [`merge`]: Histogram::merge

pub mod clock;
pub mod hist;
pub mod span;

pub use clock::ObsClock;
pub use hist::Histogram;
pub use span::{
    canonical_structure, AttrValue, SpanGuard, SpanRecord, Tracer, MINTED_TRACE_BIT,
};

/// Span names for the serve scheduler's **minted** (scheduling-dependent)
/// traces. Per-request traces must stay structurally invariant across
/// shard and worker counts, so anything that depends on scheduling — the
/// routing decision, batch composition, steal rescues — is recorded under
/// these names in traces tagged with [`MINTED_TRACE_BIT`] and filtered
/// out of canonical-structure comparisons. Centralised here so the
/// runtime and the trace-invariant tests agree on the taxonomy.
pub mod taxonomy {
    /// Per admitted request: which shard mailbox it was routed to
    /// (attrs: `id`, `shard`, `depth`).
    pub const MAILBOX_ENQUEUE: &str = "mailbox_enqueue";
    /// Root of each micro-batch's minted trace (attrs: `shard`, `worker`,
    /// `size`, `ids`, `stolen`, `shed`). A batch decodes nothing of its
    /// own: each request's online decode is the `rung_online` span of its
    /// own trace.
    pub const BATCH_FORM: &str = "batch_form";
    /// Child of [`BATCH_FORM`] when the batch was stolen from a sibling
    /// mailbox (attrs: `thief`, `victim`, `count`, `ids`).
    pub const STEAL: &str = "steal";
}
