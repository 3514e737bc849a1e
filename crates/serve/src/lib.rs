//! # qrw-serve
//!
//! The concurrent serving runtime in front of
//! [`SearchEngine`](qrw_search::SearchEngine): the half of the paper's
//! §III-G deployment story ("heavy traffic from millions of users") that a
//! one-request-at-a-time engine cannot exercise.
//!
//! The runtime comprises
//!
//! * [`queue`] — sharded admission control with backpressure: one global
//!   budget (reject-on-full at submit, drop-expired-at-dequeue, both
//!   recorded as typed [`ServeError`](qrw_search::ServeError)s in
//!   `health_report()`) over one bounded, preallocated FIFO of requests
//!   per shard; requests move through it by value, and the steady-state
//!   submit → dequeue path allocates nothing (`tests/zero_alloc.rs`);
//! * [`runtime`] — the sharded scheduler: workers homed to shards
//!   (FNV-1a query routing, the `RewriteCache`/`ShardedIndex` family)
//!   form dynamic micro-batches locally (max-batch-size /
//!   max-wait-ticks policy per shard) and steal the oldest backlog from
//!   sibling shards when their home runs dry (`std::thread::scope`,
//!   model shared read-only via `Arc`);
//! * [`batch`] — the per-batch memo on the online rung, the q2q rung
//!   aliases, and the FNV-1a token hash the runtime routes on. Both model
//!   rungs are [`Q2QRewriter`](qrw_core::Q2QRewriter)s: the quantized
//!   distilled student answers each cache miss inline in its ladder walk,
//!   ahead of the f32 teacher; requests of one batch with the same
//!   (context, query) share one online decode;
//! * [`workload`] — deterministic seeded request mixes (KV-hit-heavy head
//!   + decode-heavy tail) for the load-generation bench.
//!
//! ## Batching is transparent
//!
//! The defining invariant: a request's response under the runtime is
//! **byte-identical** to serving the same request alone through
//! [`SearchEngine::search_resilient`](qrw_search::SearchEngine::search_resilient)
//! with the same ladder. Two properties make that hold:
//!
//! 1. every request walks the whole ladder itself, under its own budget,
//!    breaker and spans, exactly as a standalone serve would;
//! 2. the q2q rewriter derives its sampling RNG per request from the
//!    (context, query) itself (FNV-1a of the tokens XOR a base seed), so
//!    the draw sequence does not depend on which requests share a batch,
//!    which worker runs it, or in what order batches drain.
//!
//! Property 2 makes rewriting a *pure function of the (context, query)*,
//! which buys a scheduler optimisation for free: off the session path,
//! identical in-flight queries of one micro-batch share one online decode
//! (request coalescing), receiving bit-for-bit the output each would have
//! produced alone.
//!
//! `tests/runtime.rs` enforces the invariant end-to-end (1 worker /
//! batch-1 vs N workers / batch-8, compared against standalone
//! `search_resilient`, byte-for-byte via `Debug` formatting).

pub mod batch;
pub mod queue;
pub mod runtime;
pub mod workload;

pub use batch::{fnv1a_tokens, BatchedQ2Q, StudentOnline};
pub use queue::{AdmissionQueue, BatchBuf, Pending, ResponseSlot};
pub use runtime::{Outcome, Runtime, RuntimeConfig, SchedFaults, ServeStack, ServedRecord};
pub use workload::{
    mutation_batches, skewed_shard_plan, synthetic_docs, ChurnMix, MixConfig, SessionMix, SkewMix,
    Workload,
};
