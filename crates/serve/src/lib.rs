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
//! * [`batch`] — [`BatchedQ2Q`], the cross-request online rewriter: all
//!   KV-cache-miss requests of a batch decode *together* through one
//!   stacked [`next_log_probs_multi`](qrw_nmt::seq2seq::Seq2Seq::next_log_probs_multi)
//!   forward per step; and [`StudentOnline`], the quantized distilled
//!   student that answers decode-misses first (the teacher's batched
//!   decode only covers what the student leaves unserved);
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
//! 1. every row of the stacked decode forward is computed independently of
//!    its batch neighbours (row-independent matmul accumulation,
//!    per-candidate attention over its own KV cache, row-wise norms and
//!    softmax), so batch composition never changes a row's bits;
//! 2. [`BatchedQ2Q`] derives its sampling RNG per request from the query
//!    itself (FNV-1a of the tokens XOR a base seed), so the draw sequence
//!    does not depend on which requests share a batch, which worker runs
//!    it, or in what order batches drain.
//!
//! Property 2 makes rewriting a *pure function of the query*, which buys a
//! second scheduler optimisation for free: identical in-flight cache-miss
//! queries coalesce into one decode slot per micro-batch (request
//! coalescing), sharing bit-for-bit the output each would have produced
//! alone.
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
