//! # qrw-search
//!
//! Search-engine substrate for the cycle-consistent query-rewriting
//! reproduction:
//!
//! * [`index`] — inverted index with sorted postings and BM25,
//! * [`tree`] — boolean syntax trees and the §III-H merged-tree
//!   optimization (Figure 5), with retrieval-cost accounting,
//! * [`kv`] — the §III-G precomputed-rewrite KV cache,
//! * [`serving`] — the serving pipeline (cache → q2q fallback →
//!   merged-tree retrieval → ranking),
//! * [`ab`] — the Table VIII A/B user-behaviour simulator.
//!
//! Serving resilience lives in four companion modules: [`error`] (the
//! [`ServeError`] taxonomy), [`deadline`] (per-request budgets),
//! [`breaker`] (the circuit breaker around the online rewriter) and
//! [`health`] (per-rung / per-stage serving counters). Failure drills arm
//! one seeded [`Faults`] schedule (from `qrw_core::fault`, re-exported
//! here) at the rewriter call, the shard traversals, the rebalance steps
//! and the catalog writer.
//!
//! Live catalog mutation lives in two more: [`segment`] (sealed,
//! CRC-guarded mutation-batch op logs whose ordered replay *is* the
//! catalog) and [`snapshot`] (the epoch-pinned [`SnapshotStore`] that
//! lets a [`CatalogWriter`] add/update/remove documents under traffic —
//! readers pin one immutable epoch per request, commits persist through
//! the crash-safe `CheckpointStore` discipline, and a [`Faults`] schedule
//! drives its kill, panic and publish-gate drills).
//!
//! The sharded scatter-gather serving tier lives in [`shard`]: FNV-routed
//! document shards rebuilt per epoch, per-shard fault isolation
//! (breakers, deadline slices, straggler hedging) and partial-results
//! degradation, with healthy responses byte-identical to the monolith at
//! every shard count.
//!
//! Zero-downtime model hot-swap lives in [`models`]: the same [`epoch`]
//! ring that backs [`SnapshotStore`], applied to rewriter models, so the
//! online training loop can publish retrained models under traffic while
//! every request serves from exactly one pinned model epoch
//! ([`SessionState`] threads the pinned model and the user's previous
//! in-session queries through the degradation ladder).

pub mod ab;
pub mod breaker;
pub mod deadline;
pub mod epoch;
pub mod error;
pub mod eval;
pub mod health;
pub mod index;
pub mod kv;
pub mod models;
pub mod segment;
pub mod serving;
pub mod shard;
pub mod snapshot;
pub mod topk;
pub mod tree;

pub use ab::{run_ab, AbConfig, AbOutcome, ArmMetrics};
pub use breaker::{BreakerConfig, BreakerSet, BreakerState, CircuitBreaker};
pub use deadline::{Clock, DeadlineBudget};
pub use error::{ServeError, Stage};
pub use eval::{recall_at_k, reciprocal_rank, QualityAccumulator, RetrievalQuality};
pub use health::{ChurnStats, HealthReport, ShardStatReport, ShardTierReport};
pub use index::{Bm25Scorer, InvertedIndex};
pub use kv::{CacheScope, RewriteCache};
pub use models::{ModelEpoch, ModelStore, PinnedModel, SharedRewriter, SwapStats};
pub use qrw_core::fault::{Fault, Faults, Site};
pub use segment::{CatalogOp, MutationBatch, Segment};
pub use serving::{
    PinnedCatalog, RewriteLadder, RewriteSource, SearchEngine, SearchResponse, ServingConfig,
    SessionState,
};
pub use shard::{RebalanceError, RebalancePlan, RoutingPlan, ShardedCatalog, ShardedIndex};
pub use snapshot::{CatalogError, CatalogWriter, IndexSnapshot, PinnedSnapshot, SnapshotStore};
pub use topk::{bm25_topk_exhaustive, bm25_topk_maxscore, ScoredDoc};
pub use tree::{QueryTree, RetrievalCost};
