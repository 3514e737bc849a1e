//! The end-to-end serving pipeline: rewrite lookup (KV cache with q2q
//! fallback), merged-syntax-tree retrieval, BM25 ranking (§III-G/§III-H).
//!
//! # Serving resilience
//!
//! [`SearchEngine::search_resilient`] is the fault-tolerant entry point.
//! It never panics and always returns a well-formed [`SearchResponse`]:
//! rewrites are acquired down an explicit degradation ladder
//!
//! ```text
//! KV cache → quantized student → online q2q model → rule-based baseline
//!          → raw query only
//! ```
//!
//! where each rung is guarded by the per-request [`DeadlineBudget`], the
//! online rung additionally by a [`CircuitBreaker`], and every rewriter
//! call by `catch_unwind`. Degradations are recorded on the response
//! (`degradations`) and aggregated into [`SearchEngine::health_report`].
//!
//! # Sharded scatter-gather
//!
//! Engines built with [`SearchEngine::sharded`] /
//! [`SearchEngine::sharded_live`] serve retrieval and ranking through the
//! document-sharded tier in [`crate::shard`]: per-shard tree traversals
//! run in shard order on the serving thread under per-shard
//! [`DeadlineBudget`] slices, a slow shard is hedged once, a panicking /
//! stalled / breaker-open shard is excluded wholly and the request
//! degrades to **partial results** (`shards_ok < shards_total`, recorded
//! as [`ServeError::PartialResults`]) instead of failing. A healthy sharded
//! response is byte-identical to the monolithic response at every shard
//! count; a partial response is byte-identical (modulo `cost`) to a
//! monolith whose failed shards' documents were tombstoned.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use qrw_core::QueryRewriter;
use qrw_obs::{Histogram, Tracer};

use std::sync::Arc;

use crate::breaker::{BreakerConfig, BreakerSet, CircuitBreaker};
use crate::deadline::DeadlineBudget;
use crate::error::{ServeError, Stage};
use crate::fault::{Fault, FaultInjector};
use crate::health::{ChurnStats, HealthCounters, HealthReport};
use crate::index::{difference_sorted, idf, union_sorted, InvertedIndex};
use crate::kv::{CacheScope, RewriteCache};
use crate::models::PinnedModel;
use crate::shard::{
    combine_costs, RebalanceError, RebalancePlan, ShardFaultInjector, ShardOutcome,
    ShardTraversal, ShardedCatalog, ShardedIndex,
};
use crate::snapshot::{IndexSnapshot, PinnedSnapshot, SnapshotStore};
use crate::topk::select_top_k;
use crate::tree::{QueryTree, RetrievalCost};

/// Serving knobs mirroring the paper's online setup.
#[derive(Clone, Copy, Debug)]
pub struct ServingConfig {
    /// At most this many rewrites augment the query (paper: 3).
    pub max_rewrites: usize,
    /// Each rewrite may add at most this many candidates (paper: 1000).
    pub max_extra_candidates: usize,
    /// Results returned after ranking.
    pub top_k: usize,
    /// Use the §III-H merged tree (vs one tree per query).
    pub merged_tree: bool,
    /// Queries longer than this are truncated (and the truncation is
    /// recorded as a degradation) before any stage runs.
    pub max_query_tokens: usize,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            max_rewrites: 3,
            max_extra_candidates: 1000,
            top_k: 10,
            merged_tree: true,
            max_query_tokens: 64,
        }
    }
}

/// Where the rewrites used by a request came from — equivalently, the
/// degradation-ladder rung that served it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RewriteSource {
    /// Precomputed top-query entry served from the KV store.
    Cache,
    /// Computed online by the quantized distilled student (the preferred
    /// neural rung; the teacher-backed model is its fallback).
    Student,
    /// Computed online by the fallback (q2q) model.
    Fallback,
    /// Produced by the rule-based baseline after the neural rungs
    /// degraded.
    Baseline,
    /// No rewriter available / produced nothing: raw query only.
    None,
}

/// Per-request session state for session-aware serving: the user's
/// previous in-session queries plus the model epoch the request pinned
/// for its whole ladder walk.
///
/// The default (`context` empty, `model` absent) is single-shot frozen
/// serving — every path below is byte-identical to pre-session behaviour
/// under it: the cache rung uses the legacy key, rewriters are called
/// through [`QueryRewriter::rewrite_with_context`] with an empty context
/// (which delegates to `rewrite`), and the response's `model_epoch`
/// stays `0`.
#[derive(Clone, Copy, Default)]
pub struct SessionState<'a> {
    /// Previous queries of this session, oldest first. Session-aware
    /// rewriters condition on them; everything else ignores them.
    pub context: &'a [Vec<String>],
    /// The model epoch pinned for this request. When present, its
    /// rewriter replaces the ladder's online rung and the epoch is
    /// stamped into the response — exactly one pinned model serves the
    /// whole request (the torn-swap invariant).
    pub model: Option<&'a PinnedModel>,
}

impl SessionState<'_> {
    /// The model epoch this request serves from (`0` = no model store).
    pub fn model_epoch(&self) -> u64 {
        self.model.map_or(0, |m| m.epoch())
    }

    /// The cache scope entries of this request live in.
    pub fn cache_scope(&self) -> CacheScope {
        CacheScope::for_session(self.model_epoch(), self.context)
    }
}

/// The rewrite rungs available to [`SearchEngine::search_resilient`],
/// ordered best-first. Any rung may be absent.
#[derive(Clone, Copy, Default)]
pub struct RewriteLadder<'a> {
    /// Rung 1: precomputed KV cache.
    pub cache: Option<&'a RewriteCache>,
    /// Rung 2: quantized distilled student — the preferred online model.
    /// Budget-gated and panic-isolated; a failure here falls through to
    /// the teacher-backed rung below without tripping the breaker.
    pub student: Option<&'a dyn QueryRewriter>,
    /// Rung 3: online q2q model (guarded by the circuit breaker).
    pub online: Option<&'a dyn QueryRewriter>,
    /// Rung 4: cheap rule-based rewriter.
    pub baseline: Option<&'a dyn QueryRewriter>,
}

/// One search response with retrieval accounting.
#[derive(Clone)]
pub struct SearchResponse {
    /// Ranked doc ids, best first, length ≤ `top_k`.
    pub ranked: Vec<usize>,
    /// The full unranked candidate set (base ∪ extra), for callers that
    /// apply their own ranking stage (e.g. the A/B simulator's stand-in
    /// for the production deep ranker).
    pub candidates: Vec<usize>,
    /// Docs retrieved by the original query alone.
    pub base_candidates: usize,
    /// Docs added by rewrites (after the per-rewrite cap).
    pub extra_candidates: usize,
    pub rewrites_used: Vec<Vec<String>>,
    pub rewrite_source: RewriteSource,
    pub cost: RetrievalCost,
    /// Every degradation this request suffered, in the order observed.
    /// Empty for a request served at full quality.
    pub degradations: Vec<ServeError>,
    /// Shards whose documents are represented in this response. Equals
    /// `shards_total` for a fully healthy request (and `1`/`1` on the
    /// monolithic paths); smaller when the scatter-gather tier excluded
    /// failed shards and served partial results.
    pub shards_ok: usize,
    /// Shards the scatter-gather tier fanned out to (`1` on the
    /// monolithic paths).
    pub shards_total: usize,
    /// Catalog epoch the request was served against: `0` for a frozen
    /// index, the pinned epoch for a live catalog. The whole response —
    /// every candidate, rank and score — is a pure function of the query
    /// and this one epoch (the torn-read invariant).
    pub epoch: u64,
    /// Model epoch the request's rewrites came from: `0` when serving
    /// without a [`ModelStore`](crate::models::ModelStore), the pinned
    /// epoch otherwise. As with `epoch`, the response is a pure function
    /// of the query, the session context and this one model epoch (the
    /// torn-swap invariant).
    pub model_epoch: u64,
}

impl SearchResponse {
    /// A well-formed response that retrieved nothing (an empty query, or
    /// the last resort after an engine panic), served against `epoch`.
    fn empty(epoch: u64) -> Self {
        SearchResponse {
            ranked: Vec::new(),
            candidates: Vec::new(),
            base_candidates: 0,
            extra_candidates: 0,
            rewrites_used: Vec::new(),
            rewrite_source: RewriteSource::None,
            cost: RetrievalCost::default(),
            degradations: Vec::new(),
            shards_ok: 1,
            shards_total: 1,
            epoch,
            model_epoch: 0,
        }
    }
}

/// Manual `Debug`: field order matches the declaration, but the shard
/// stamp is printed **only when the response is partial** and the model
/// epoch **only when a model store served the request**. The shard and
/// hot-swap transparency bars compare `format!("{resp:?}")` across shard
/// counts / against serial per-epoch replays — a healthy sharded response
/// must render byte-identically to the monolithic one, a model-store
/// response must say which epoch it served from, and frozen-model
/// serving must render exactly as it did before model stores existed.
impl std::fmt::Debug for SearchResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("SearchResponse");
        d.field("ranked", &self.ranked)
            .field("candidates", &self.candidates)
            .field("base_candidates", &self.base_candidates)
            .field("extra_candidates", &self.extra_candidates)
            .field("rewrites_used", &self.rewrites_used)
            .field("rewrite_source", &self.rewrite_source)
            .field("cost", &self.cost)
            .field("degradations", &self.degradations);
        if self.shards_ok < self.shards_total {
            d.field("shards_ok", &self.shards_ok).field("shards_total", &self.shards_total);
        }
        d.field("epoch", &self.epoch);
        if self.model_epoch != 0 {
            d.field("model_epoch", &self.model_epoch);
        }
        d.finish()
    }
}

/// The catalog an engine serves: a frozen index built before serving
/// (the original, zero-overhead path) or an epoch-pinned live catalog
/// that a [`CatalogWriter`](crate::snapshot::CatalogWriter) mutates under
/// traffic.
enum Catalog {
    Frozen(InvertedIndex),
    Live(Arc<SnapshotStore>),
    /// Epoch-pinned catalog served through the document-sharded
    /// scatter-gather tier.
    Sharded(ShardedCatalog),
}

/// One request's view of the catalog: a borrow of the frozen index, or a
/// pinned epoch that stays immutable (and unreclaimed) until dropped.
pub enum PinnedCatalog<'a> {
    Frozen(&'a InvertedIndex),
    Live(PinnedSnapshot),
    /// A pinned epoch plus the (possibly cached) shard set built from it
    /// under the current routing plan.
    Sharded { pin: PinnedSnapshot, shards: Arc<ShardedIndex> },
}

impl PinnedCatalog<'_> {
    /// The immutable index this request reads. For a sharded pin this is
    /// the *monolithic* view of the same epoch — the baseline and
    /// panic-fallback paths use it, bypassing the shard tier.
    pub fn index(&self) -> &InvertedIndex {
        match self {
            PinnedCatalog::Frozen(index) => index,
            PinnedCatalog::Live(pin) => pin.index(),
            PinnedCatalog::Sharded { pin, .. } => pin.index(),
        }
    }

    /// The epoch this request is pinned to (`0` for a frozen index).
    pub fn epoch(&self) -> u64 {
        match self {
            PinnedCatalog::Frozen(_) => 0,
            PinnedCatalog::Live(pin) => pin.epoch(),
            PinnedCatalog::Sharded { pin, .. } => pin.epoch(),
        }
    }
}

/// The search engine: catalog + rewrite plumbing + serving health.
pub struct SearchEngine {
    catalog: Catalog,
    breaker: CircuitBreaker,
    health: HealthCounters,
    tracer: Option<Tracer>,
}

/// Trace context threaded through the resilient path: which tracer to
/// record into, which trace the request belongs to, and the enclosing
/// span (the ladder-rung / retrieval / rank spans parent under it).
#[derive(Clone, Copy)]
struct TraceCtx<'a> {
    tracer: &'a Tracer,
    trace: u64,
    parent: u64,
}

impl<'a> TraceCtx<'a> {
    fn child(&self, name: &'static str) -> qrw_obs::SpanGuard {
        self.tracer.span(self.trace, Some(self.parent), name)
    }
}

impl SearchEngine {
    pub fn new(index: InvertedIndex) -> Self {
        Self::with_breaker(index, BreakerConfig::default())
    }

    /// An engine with custom circuit-breaker tuning.
    pub fn with_breaker(index: InvertedIndex, breaker: BreakerConfig) -> Self {
        SearchEngine {
            catalog: Catalog::Frozen(index),
            breaker: CircuitBreaker::new(breaker),
            health: HealthCounters::default(),
            tracer: None,
        }
    }

    /// An engine serving an epoch-pinned live catalog: each request pins
    /// the current epoch of `store` for its whole duration, so a
    /// concurrent [`CatalogWriter`](crate::snapshot::CatalogWriter) never
    /// tears a response.
    pub fn live(store: Arc<SnapshotStore>) -> Self {
        Self::live_with_breaker(store, BreakerConfig::default())
    }

    /// [`live`](Self::live) with custom circuit-breaker tuning.
    pub fn live_with_breaker(store: Arc<SnapshotStore>, breaker: BreakerConfig) -> Self {
        SearchEngine {
            catalog: Catalog::Live(store),
            breaker: CircuitBreaker::new(breaker),
            health: HealthCounters::default(),
            tracer: None,
        }
    }

    /// An engine serving a frozen index through the `shards`-way
    /// scatter-gather tier (epoch `0`, like [`new`](Self::new)). Healthy
    /// responses are byte-identical to the monolithic engine's at every
    /// shard count; per-shard faults degrade to partial results.
    pub fn sharded(index: InvertedIndex, shards: usize) -> Self {
        Self::sharded_with_breaker(index, shards, BreakerConfig::default())
    }

    /// [`sharded`](Self::sharded) with custom breaker tuning. `breaker`
    /// configures both the online-rewriter breaker and every member of
    /// the per-shard [`BreakerSet`].
    pub fn sharded_with_breaker(index: InvertedIndex, shards: usize, breaker: BreakerConfig) -> Self {
        let store = SnapshotStore::new(IndexSnapshot::new(0, index));
        SearchEngine {
            catalog: Catalog::Sharded(ShardedCatalog::new(store, shards, breaker, false)),
            breaker: CircuitBreaker::new(breaker),
            health: HealthCounters::default(),
            tracer: None,
        }
    }

    /// An engine serving an epoch-pinned **live** catalog through the
    /// scatter-gather tier: each request pins one epoch, and the shard
    /// set for that epoch is built once and cached until the epoch or the
    /// routing plan changes.
    pub fn sharded_live(store: Arc<SnapshotStore>, shards: usize) -> Self {
        Self::sharded_live_with_breaker(store, shards, BreakerConfig::default())
    }

    /// [`sharded_live`](Self::sharded_live) with custom breaker tuning
    /// (applied to the online-rewriter breaker and the per-shard set).
    pub fn sharded_live_with_breaker(
        store: Arc<SnapshotStore>,
        shards: usize,
        breaker: BreakerConfig,
    ) -> Self {
        SearchEngine {
            catalog: Catalog::Sharded(ShardedCatalog::new(store, shards, breaker, true)),
            breaker: CircuitBreaker::new(breaker),
            health: HealthCounters::default(),
            tracer: None,
        }
    }

    /// Attaches (or clears) the deterministic shard-fault injector.
    /// No-op on unsharded engines.
    pub fn set_shard_faults(&self, injector: Option<Arc<ShardFaultInjector>>) {
        if let Catalog::Sharded(cat) = &self.catalog {
            cat.set_injector(injector);
        }
    }

    /// Number of shards in the scatter-gather tier; `None` for
    /// monolithic engines.
    pub fn shard_count(&self) -> Option<usize> {
        match &self.catalog {
            Catalog::Sharded(cat) => Some(cat.shard_count()),
            _ => None,
        }
    }

    /// The per-shard breaker set; `None` for monolithic engines.
    pub fn shard_breakers(&self) -> Option<&BreakerSet> {
        match &self.catalog {
            Catalog::Sharded(cat) => Some(cat.breakers()),
            _ => None,
        }
    }

    /// Applies a rebalance plan to the shard tier: documents are
    /// re-routed between shards, the plan version bumps, and the next
    /// pin rebuilds the shard set. Serving stays byte-identical across
    /// the boundary (responses are routing-independent); a killed or
    /// invalid plan leaves the old routing serving untouched.
    pub fn rebalance(&self, plan: &RebalancePlan) -> Result<u64, RebalanceError> {
        match &self.catalog {
            Catalog::Sharded(cat) => cat.rebalance(plan),
            _ => Err(RebalanceError::NotSharded),
        }
    }

    /// Pins the catalog for one request: a no-op borrow for a frozen
    /// index, an epoch pin for a live catalog. Public so callers that
    /// post-process a response against the index (e.g. the A/B
    /// simulator) can read the same epoch the engine served from.
    pub fn pin(&self) -> PinnedCatalog<'_> {
        match &self.catalog {
            Catalog::Frozen(index) => PinnedCatalog::Frozen(index),
            Catalog::Live(store) => PinnedCatalog::Live(store.pin()),
            Catalog::Sharded(cat) => {
                let pin = cat.store().pin();
                let shards = cat.pin_shards(&pin);
                PinnedCatalog::Sharded { pin, shards }
            }
        }
    }

    /// The epoch a request arriving now would pin (`0` when frozen).
    pub fn current_epoch(&self) -> u64 {
        match &self.catalog {
            Catalog::Frozen(_) => 0,
            Catalog::Live(store) => store.current_epoch(),
            Catalog::Sharded(cat) => cat.store().current_epoch(),
        }
    }

    /// Attaches a span tracer. Every resilient request then records a
    /// `serve` span with ladder-rung / retrieval / rank children; callers
    /// that own a request id pass it via
    /// [`search_resilient_traced`](Self::search_resilient_traced) so
    /// engine spans join the caller's trace.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The attached span tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// A copy of the end-to-end latency histogram (fixed bucket layout:
    /// merges exactly with other engines' histograms).
    pub fn latency_histogram(&self) -> Histogram {
        self.health.latency_histogram()
    }

    /// The frozen index. Panics for a live-catalog engine — live readers
    /// must hold an epoch via [`pin`](Self::pin) instead of borrowing an
    /// unpinned index that a writer may retire mid-read.
    pub fn index(&self) -> &InvertedIndex {
        match &self.catalog {
            Catalog::Frozen(index) => index,
            Catalog::Live(_) | Catalog::Sharded(_) => {
                panic!("SearchEngine::index() on a live catalog; use pin() to hold an epoch")
            }
        }
    }

    /// The breaker guarding the online rewriter rung.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Snapshot of serving health: per-rung counts, degradation causes,
    /// per-stage latency sums, breaker status and (for a live catalog)
    /// churn counters.
    pub fn health_report(&self) -> HealthReport {
        let churn = match &self.catalog {
            Catalog::Frozen(_) => ChurnStats::default(),
            Catalog::Live(store) => store.churn_stats(),
            Catalog::Sharded(cat) if cat.is_live() => cat.store().churn_stats(),
            Catalog::Sharded(_) => ChurnStats::default(),
        };
        let mut report =
            self.health.snapshot(self.breaker.state(), self.breaker.times_opened(), churn);
        if let Catalog::Sharded(cat) = &self.catalog {
            // All per-shard counters, the epoch and the plan version come
            // from one critical section inside the tier — a report read
            // mid-churn or mid-rebalance never mixes them.
            report.shard_tier = Some(cat.tier_report());
        }
        report
    }

    /// Baseline retrieval: original query only.
    pub fn search_baseline(&self, query: &[String], config: &ServingConfig) -> SearchResponse {
        let pinned = self.pin();
        self.search_baseline_pinned(query, config, &pinned)
    }

    /// [`search_baseline`](Self::search_baseline) against an
    /// already-pinned epoch (the panic-fallback path reuses the request's
    /// pin rather than re-pinning a possibly newer epoch).
    fn search_baseline_pinned(
        &self,
        query: &[String],
        config: &ServingConfig,
        pinned: &PinnedCatalog<'_>,
    ) -> SearchResponse {
        let epoch = pinned.epoch();
        if query.is_empty() {
            // An empty AND tree would match the whole index; an empty
            // query retrieves nothing instead.
            return SearchResponse::empty(epoch);
        }
        let index = pinned.index();
        let (docs, cost) = QueryTree::and_of_tokens(query).evaluate(index);
        let ranked = rank_at(index, query, &docs, config.top_k);
        SearchResponse {
            base_candidates: docs.len(),
            extra_candidates: 0,
            ranked,
            candidates: docs,
            rewrites_used: Vec::new(),
            rewrite_source: RewriteSource::None,
            cost,
            degradations: Vec::new(),
            shards_ok: 1,
            shards_total: 1,
            epoch,
            model_epoch: 0,
        }
    }

    /// Full §III-G serving path: cache → fallback rewriter → merged-tree
    /// retrieval → ranking.
    pub fn search_with_rewrites(
        &self,
        query: &[String],
        cache: Option<&RewriteCache>,
        fallback: Option<&dyn QueryRewriter>,
        config: &ServingConfig,
    ) -> SearchResponse {
        let (mut rewrites, source) = match cache.and_then(|c| c.get(query)) {
            Some(cached) => ((*cached).clone(), RewriteSource::Cache),
            None => match fallback {
                Some(rw) => (rw.rewrite(query, config.max_rewrites), RewriteSource::Fallback),
                None => (Vec::new(), RewriteSource::None),
            },
        };
        rewrites.truncate(config.max_rewrites);
        rewrites.retain(|r| !r.is_empty() && r != query);

        let budget = DeadlineBudget::unlimited();
        let mut events = Vec::new();
        let pinned = self.pin();
        self.retrieve_and_rank(query, rewrites, source, config, &budget, &mut events, None, &pinned)
    }

    /// Fault-tolerant serving entry point. Never panics; always returns a
    /// well-formed response. Rewrites come from the highest healthy rung
    /// of `ladder`; `budget` is consulted before each stage and the online
    /// model call; `faults` (tests only) deterministically injects latency
    /// spikes, model errors and panics into the online rung.
    pub fn search_resilient(
        &self,
        query: &[String],
        ladder: RewriteLadder<'_>,
        config: &ServingConfig,
        budget: &DeadlineBudget,
        faults: Option<&FaultInjector>,
    ) -> SearchResponse {
        self.search_resilient_traced(query, ladder, config, budget, faults, None)
    }

    /// [`search_resilient`](Self::search_resilient), joined to an
    /// existing trace. When a tracer is attached, the request records a
    /// `serve` span (ladder rungs, retrieval and ranking nest under it)
    /// into trace `trace` — the concurrent runtime passes the request id
    /// so engine spans land in the request's trace. With `trace = None` a
    /// fresh trace id is minted. End-to-end latency (per the deadline
    /// budget, synthetic charges included) feeds the health histogram
    /// either way.
    pub fn search_resilient_traced(
        &self,
        query: &[String],
        ladder: RewriteLadder<'_>,
        config: &ServingConfig,
        budget: &DeadlineBudget,
        faults: Option<&FaultInjector>,
        trace: Option<u64>,
    ) -> SearchResponse {
        self.search_session_traced(query, SessionState::default(), ladder, config, budget, faults, trace)
    }

    /// Session-aware serving:
    /// [`search_resilient_traced`](Self::search_resilient_traced) with a
    /// [`SessionState`] threaded through the whole ladder walk. With the
    /// default session this **is** `search_resilient_traced`, byte for
    /// byte. With a session:
    ///
    /// * the cache rung looks entries up under the session's
    ///   [`CacheScope`] (model epoch + context hash), so a hot-swap never
    ///   serves a superseded model's rewrites;
    /// * the online rung runs the session's pinned model instead of
    ///   `ladder.online` — exactly one model epoch serves the request, no
    ///   matter how many swaps land mid-flight (torn-swap invariant);
    /// * rewriters are called with the session context
    ///   ([`QueryRewriter::rewrite_with_context`]);
    /// * the `pin` span carries a `model_epoch` attribute and the
    ///   response is stamped with the pinned model epoch.
    #[allow(clippy::too_many_arguments)]
    pub fn search_session_traced(
        &self,
        query: &[String],
        session: SessionState<'_>,
        ladder: RewriteLadder<'_>,
        config: &ServingConfig,
        budget: &DeadlineBudget,
        faults: Option<&FaultInjector>,
        trace: Option<u64>,
    ) -> SearchResponse {
        self.health.record_request();
        let mut serve_span = self.tracer.as_ref().map(|t| {
            let trace = trace.unwrap_or_else(|| t.next_trace());
            t.span(trace, None, "serve")
        });
        let ctx = match (self.tracer.as_ref(), serve_span.as_ref()) {
            (Some(tracer), Some(span)) => {
                Some(TraceCtx { tracer, trace: span.trace(), parent: span.id() })
            }
            _ => None,
        };
        // Pin one catalog epoch for the whole request: every stage below
        // (ladder, retrieval, ranking, the panic fallback) reads this
        // epoch and nothing else. The session's model epoch was pinned by
        // the caller before the request entered; the pin span records
        // both so the trace shows exactly one epoch pair per request.
        let pinned = {
            let mut pin_span = ctx.map(|c| c.child("pin"));
            let pinned = self.pin();
            if let Some(s) = pin_span.as_mut() {
                s.attr("epoch", pinned.epoch());
                if session.model.is_some() {
                    s.attr("model_epoch", session.model_epoch());
                }
            }
            pinned
        };
        let guarded = catch_unwind(AssertUnwindSafe(|| {
            self.serve_inner(query, session, ladder, config, budget, faults, ctx, &pinned)
        }));
        let mut response = match guarded {
            Ok(resp) => resp,
            Err(_) => {
                // The engine itself panicked (not a rewriter — those are
                // caught per-rung). Serve the raw query as a last resort;
                // if even that panics, return an empty well-formed
                // response.
                let err = ServeError::EnginePanic;
                let mut resp = catch_unwind(AssertUnwindSafe(|| {
                    let (query, _) = sanitize_query(query, config);
                    self.search_baseline_pinned(&query, config, &pinned)
                }))
                .unwrap_or_else(|_| SearchResponse::empty(pinned.epoch()));
                resp.degradations.push(err);
                resp
            }
        };
        response.model_epoch = session.model_epoch();
        if let Some(span) = serve_span.as_mut() {
            span.attr("source", source_label(response.rewrite_source));
            span.attr("degradations", response.degradations.len());
            span.attr("ranked", response.ranked.len());
        }
        drop(serve_span);
        self.health.record_latency(budget.elapsed());
        for e in &response.degradations {
            self.health.record_error(e);
        }
        self.health.record_source(response.rewrite_source);
        response
    }

    #[allow(clippy::too_many_arguments)]
    fn serve_inner(
        &self,
        query: &[String],
        session: SessionState<'_>,
        ladder: RewriteLadder<'_>,
        config: &ServingConfig,
        budget: &DeadlineBudget,
        faults: Option<&FaultInjector>,
        ctx: Option<TraceCtx<'_>>,
        pinned: &PinnedCatalog<'_>,
    ) -> SearchResponse {
        let mut events: Vec<ServeError> = Vec::new();
        let (query, truncated) = sanitize_query(query, config);
        if let Some(e) = truncated {
            events.push(e);
        }

        let t0 = budget.elapsed();
        let (rewrites, source) =
            self.acquire_rewrites(&query, session, ladder, config, budget, faults, &mut events, ctx);
        self.health.record_stage_latency(Stage::Rewrite, budget.elapsed().saturating_sub(t0));

        self.retrieve_and_rank(&query, rewrites, source, config, budget, &mut events, ctx, pinned)
    }

    /// Walks the degradation ladder until a rung yields usable rewrites.
    /// Each rung *attempted* records a `rung_*` span (named by the rung,
    /// so the ladder walk is visible in the trace structure) with an
    /// `outcome` attribute.
    #[allow(clippy::too_many_arguments)]
    fn acquire_rewrites(
        &self,
        query: &[String],
        session: SessionState<'_>,
        ladder: RewriteLadder<'_>,
        config: &ServingConfig,
        budget: &DeadlineBudget,
        faults: Option<&FaultInjector>,
        events: &mut Vec<ServeError>,
        ctx: Option<TraceCtx<'_>>,
    ) -> (Vec<Vec<String>>, RewriteSource) {
        if query.is_empty() {
            return (Vec::new(), RewriteSource::None);
        }

        // Rung 1: KV cache. Cheap enough to try regardless of budget, but
        // entries are validated — a poisoned entry must not reach
        // retrieval. A span is recorded only when an entry exists (the
        // rung was genuinely attempted, not just probed empty). Lookups
        // run under the session's scope: the default session uses the
        // legacy key; a model-pinned session only sees entries its own
        // model epoch (and context) produced.
        if let Some(cache) = ladder.cache {
            if let Some(cached) = cache.get_scoped(session.cache_scope(), query) {
                let mut span = ctx.map(|c| c.child("rung_cache"));
                let any_invalid = cached.iter().any(|r| !valid_rewrite(r, config));
                let cleaned = clean_rewrites(&cached, query, config);
                if !cleaned.is_empty() {
                    if let Some(s) = span.as_mut() {
                        s.attr("outcome", "served");
                    }
                    return (cleaned, RewriteSource::Cache);
                }
                if let Some(s) = span.as_mut() {
                    s.attr("outcome", if any_invalid { "poisoned" } else { "empty" });
                }
                events.push(if any_invalid {
                    ServeError::PoisonedCacheEntry
                } else {
                    ServeError::EmptyOutput { rewriter: "kv-cache".to_string() }
                });
            }
        }

        // Rung 2: quantized distilled student. Budget-gated and
        // panic-isolated like the teacher rung, but NOT breaker-guarded:
        // a student failure degrades to the teacher below, and only the
        // teacher's health feeds the breaker. Decode telemetry lands in
        // the student counter block so the health report can compare
        // student vs teacher throughput.
        if let Some(student) = ladder.student {
            let mut span = ctx.map(|c| c.child("rung_student"));
            let mut outcome = "empty";
            if budget.expired() {
                events.push(ServeError::DeadlineExceeded { stage: Stage::Rewrite });
                outcome = "deadline";
            } else {
                let decode_before = student.decode_stats();
                let t_call = budget.elapsed();
                let result = self.call_rewriter(student, session.context, query, config, Fault::None);
                if let (Some(before), Some(after)) = (decode_before, student.decode_stats()) {
                    self.health.record_student_decode(
                        after.since(&before),
                        budget.elapsed().saturating_sub(t_call),
                    );
                }
                match result {
                    Ok(cleaned) if !cleaned.is_empty() => {
                        if let Some(s) = span.as_mut() {
                            s.attr("outcome", "served");
                        }
                        return (cleaned, RewriteSource::Student);
                    }
                    Ok(_) => {
                        events.push(ServeError::EmptyOutput {
                            rewriter: student.name().to_string(),
                        });
                    }
                    Err(e) => {
                        outcome = match &e {
                            ServeError::ModelPanic { .. } => "panic",
                            _ => "error",
                        };
                        events.push(e);
                    }
                }
            }
            if let Some(s) = span.as_mut() {
                s.attr("outcome", outcome);
            }
        }

        // Rung 3: online q2q model, guarded by budget, breaker and
        // catch_unwind. A model-pinned session serves this rung from its
        // pinned epoch's rewriter instead of the ladder's static model —
        // the pin was taken before the request started, so even if swaps
        // land mid-request every call below hits the same frozen model.
        let online_rung: Option<&dyn QueryRewriter> = match session.model {
            Some(pin) => Some(pin.rewriter()),
            None => ladder.online,
        };
        if let Some(online) = online_rung {
            let mut span = ctx.map(|c| c.child("rung_online"));
            let mut outcome = "empty";
            if budget.expired() {
                events.push(ServeError::DeadlineExceeded { stage: Stage::Rewrite });
                outcome = "deadline";
            } else if !self.breaker.allow() {
                events.push(ServeError::BreakerOpen);
                outcome = "breaker_open";
            } else {
                let fault = faults.map_or(Fault::None, FaultInjector::draw);
                if let Fault::Latency(spike) = fault {
                    budget.charge(spike);
                }
                if budget.expired() {
                    events.push(ServeError::DeadlineExceeded { stage: Stage::Rewrite });
                    self.breaker.record_failure();
                    outcome = "deadline";
                } else {
                    // Snapshot decode counters around the call so the
                    // health report carries throughput next to faults.
                    let decode_before = online.decode_stats();
                    let t_call = budget.elapsed();
                    let result = self.call_rewriter(online, session.context, query, config, fault);
                    if let (Some(before), Some(after)) = (decode_before, online.decode_stats()) {
                        self.health.record_decode(
                            after.since(&before),
                            budget.elapsed().saturating_sub(t_call),
                        );
                    }
                    match result {
                        Ok(cleaned) if !cleaned.is_empty() => {
                            self.breaker.record_success();
                            if let Some(s) = span.as_mut() {
                                s.attr("outcome", "served");
                            }
                            return (cleaned, RewriteSource::Fallback);
                        }
                        Ok(_) => {
                            // Healthy call, nothing usable: not a breaker
                            // failure.
                            self.breaker.record_success();
                            events.push(ServeError::EmptyOutput {
                                rewriter: online.name().to_string(),
                            });
                        }
                        Err(e) => {
                            self.breaker.record_failure();
                            outcome = match &e {
                                ServeError::ModelPanic { .. } => "panic",
                                _ => "error",
                            };
                            events.push(e);
                        }
                    }
                }
            }
            if let Some(s) = span.as_mut() {
                s.attr("outcome", outcome);
            }
        }

        // Rung 4: rule-based baseline. Deliberately NOT budget-gated: its
        // cost is bounded (dictionary substitution), and salvaging a
        // blown-deadline request with cheap rewrites is exactly what the
        // ladder is for. Panic isolation still applies.
        if let Some(baseline) = ladder.baseline {
            let mut span = ctx.map(|c| c.child("rung_baseline"));
            match self.call_rewriter(baseline, session.context, query, config, Fault::None) {
                Ok(cleaned) if !cleaned.is_empty() => {
                    if let Some(s) = span.as_mut() {
                        s.attr("outcome", "served");
                    }
                    return (cleaned, RewriteSource::Baseline);
                }
                Ok(_) => {
                    if let Some(s) = span.as_mut() {
                        s.attr("outcome", "empty");
                    }
                    events.push(ServeError::EmptyOutput {
                        rewriter: baseline.name().to_string(),
                    });
                }
                Err(e) => {
                    if let Some(s) = span.as_mut() {
                        s.attr(
                            "outcome",
                            match &e {
                                ServeError::ModelPanic { .. } => "panic",
                                _ => "error",
                            },
                        );
                    }
                    events.push(e);
                }
            }
        }

        // Rung 5: raw query only.
        if let Some(c) = ctx {
            c.child("rung_raw").finish();
        }
        (Vec::new(), RewriteSource::None)
    }

    /// Invokes one rewriter behind `catch_unwind`, applying an injected
    /// fault, and returns its cleaned output. The session context is
    /// passed through [`QueryRewriter::rewrite_with_context`]: rewriters
    /// that don't condition on context (the default impl) behave exactly
    /// as a plain `rewrite` call.
    fn call_rewriter(
        &self,
        rewriter: &dyn QueryRewriter,
        context: &[Vec<String>],
        query: &[String],
        config: &ServingConfig,
        fault: Fault,
    ) -> Result<Vec<Vec<String>>, ServeError> {
        let name = rewriter.name().to_string();
        let outcome = catch_unwind(AssertUnwindSafe(|| match fault {
            Fault::Panic => panic!("injected rewriter panic"),
            Fault::ModelError => Err(ServeError::ModelError { rewriter: name.clone() }),
            Fault::None | Fault::Latency(_) => {
                Ok(rewriter.rewrite_with_context(context, query, config.max_rewrites))
            }
        }));
        match outcome {
            Err(_) => Err(ServeError::ModelPanic { rewriter: name }),
            Ok(Err(e)) => Err(e),
            Ok(Ok(raw)) => Ok(clean_rewrites(&raw, query, config)),
        }
    }

    /// Folds one batched decode's telemetry delta into the health report.
    /// The concurrent runtime decodes cache-miss requests *together*, so
    /// the per-call accounting inside `acquire_rewrites` never sees the
    /// model run; the runtime records the batch-level delta here instead.
    pub fn record_decode(&self, delta: qrw_core::DecodeStats, elapsed: std::time::Duration) {
        self.health.record_decode(delta, elapsed);
    }

    /// Folds one student decode's telemetry delta into the health report.
    /// The concurrent runtime answers decode-misses with the quantized
    /// student *before* the teacher's batched decode, so (as with
    /// [`record_decode`](Self::record_decode)) the per-call accounting in
    /// `acquire_rewrites` never sees the student run; the runtime records
    /// the pre-pass delta here instead.
    pub fn record_student_decode(&self, delta: qrw_core::DecodeStats, elapsed: std::time::Duration) {
        self.health.record_student_decode(delta, elapsed);
    }

    /// Records an admission-control event (queue rejection or in-queue
    /// expiry shed) from the concurrent runtime.
    pub fn record_queue_event(&self, error: &ServeError) {
        self.health.record_error(error);
    }

    /// Records the admission-queue depth observed by the runtime.
    pub fn record_queue_depth(&self, depth: usize) {
        self.health.record_queue_depth(depth as u64);
    }

    /// Retrieval + ranking shared by the legacy and resilient paths. With
    /// an unlimited budget this is exactly the original §III-G flow; with
    /// a real budget, rewrite expansion and BM25 ranking each degrade when
    /// time has run out.
    #[allow(clippy::too_many_arguments)]
    fn retrieve_and_rank(
        &self,
        query: &[String],
        rewrites: Vec<Vec<String>>,
        source: RewriteSource,
        config: &ServingConfig,
        budget: &DeadlineBudget,
        events: &mut Vec<ServeError>,
        ctx: Option<TraceCtx<'_>>,
        pinned: &PinnedCatalog<'_>,
    ) -> SearchResponse {
        let epoch = pinned.epoch();
        if query.is_empty() {
            // An empty AND tree matches the whole index; an empty query
            // must instead retrieve nothing (well-formed, never a panic).
            let degradations = std::mem::take(events);
            return SearchResponse { degradations, ..SearchResponse::empty(epoch) };
        }
        if let PinnedCatalog::Sharded { shards, .. } = pinned {
            if let Catalog::Sharded(cat) = &self.catalog {
                return self.scatter_retrieve_and_rank(
                    cat, shards, query, rewrites, source, config, budget, events, ctx,
                );
            }
        }
        let index = pinned.index();
        let t0 = budget.elapsed();
        let mut retrieve_span = ctx.map(|c| c.child("retrieve"));
        // Original-query candidates always survive in full.
        let (base_docs, base_cost) = QueryTree::and_of_tokens(query).evaluate(index);
        let mut cost = base_cost;
        let mut extra: Vec<usize> = Vec::new();

        let mut use_merged = config.merged_tree;
        if !rewrites.is_empty() && !use_merged && budget.expired() {
            // Out of time for one tree per rewrite: the §III-H merged tree
            // is the cheaper evaluation, so degrade to it.
            events.push(ServeError::DeadlineExceeded { stage: Stage::Retrieval });
            use_merged = true;
        }

        if !rewrites.is_empty() {
            if use_merged {
                let mut all = vec![query.to_vec()];
                all.extend(rewrites.iter().cloned());
                let (docs, c) = QueryTree::merge_factored(&all).evaluate(index);
                cost = c; // the merged tree replaces the single-query tree
                extra = difference_sorted(&docs, &base_docs);
            } else {
                for rw in &rewrites {
                    let (docs, c) = QueryTree::and_of_tokens(rw).evaluate(index);
                    cost = cost + c;
                    for d in docs {
                        if !base_docs.contains(&d) && !extra.contains(&d) {
                            extra.push(d);
                        }
                    }
                }
            }
            extra.truncate(config.max_extra_candidates * rewrites.len());
        }
        if let Some(s) = retrieve_span.as_mut() {
            s.attr("base", base_docs.len());
            s.attr("extra", extra.len());
            s.attr("merged", use_merged);
        }
        drop(retrieve_span);
        self.health.record_stage_latency(Stage::Retrieval, budget.elapsed().saturating_sub(t0));

        // Rank the union with BM25 against the original query, extended by
        // the rewrites' vocabulary so semantically-matched docs can score.
        let t1 = budget.elapsed();
        let mut rank_span = ctx.map(|c| c.child("rank"));
        let mut rank_query: Vec<String> = query.to_vec();
        for rw in &rewrites {
            for tok in rw {
                if !rank_query.contains(tok) {
                    rank_query.push(tok.clone());
                }
            }
        }
        let mut candidates = base_docs.clone();
        candidates.extend(extra.iter().copied());
        let ranked = if budget.expired() && !candidates.is_empty() {
            // No time for BM25: return an unranked prefix rather than
            // overrun the deadline.
            events.push(ServeError::DeadlineExceeded { stage: Stage::Rank });
            candidates.iter().take(config.top_k).copied().collect()
        } else {
            rank_at(index, &rank_query, &candidates, config.top_k)
        };
        if let Some(s) = rank_span.as_mut() {
            s.attr("candidates", candidates.len());
        }
        drop(rank_span);
        self.health.record_stage_latency(Stage::Rank, budget.elapsed().saturating_sub(t1));

        SearchResponse {
            base_candidates: base_docs.len(),
            extra_candidates: extra.len(),
            ranked,
            candidates,
            rewrites_used: rewrites,
            rewrite_source: source,
            cost,
            degradations: std::mem::take(events),
            shards_ok: 1,
            shards_total: 1,
            epoch,
            model_epoch: 0,
        }
    }

    /// Scatter-gather retrieval + ranking over the sharded tier. Two
    /// phases, both run shard by shard in shard order on the serving
    /// thread and both replicating the monolithic `retrieve_and_rank` flow
    /// exactly:
    ///
    /// 1. **Scatter/traverse** — every admitted shard evaluates the base
    ///    tree plus the merged (or per-rewrite) trees against its local
    ///    index under its own [`DeadlineBudget`] slice, returning
    ///    globally-sorted doc lists, partition-additive costs and local
    ///    BM25 statistics. A panicking shard is caught per shard; a
    ///    stalled/expired shard is hedged once while the parent budget
    ///    allows.
    /// 2. **Gather + rank** — per-tree doc lists are k-way-unioned, costs
    ///    recombined, and global BM25 statistics (doc count, average
    ///    length, per-term idf) computed from the *surviving* shards
    ///    only. Each surviving shard then scores its slice of the
    ///    candidate set with those frozen statistics and its top-k stream
    ///    is merged under the monolith tie-break. A shard that fails in
    ///    phase 2 is excluded wholly and the gather re-runs over the
    ///    smaller survivor set (terminates: each round removes a shard).
    ///
    /// No per-request threads: the serving runtime already runs requests
    /// in parallel on its workers, so fanning one request out would only
    /// add OS-thread spawns (tens of µs each) and threads beyond the core
    /// count. The budget still accounts shards as if concurrent — every
    /// shard's slice gets the same allowance and the parent is charged the
    /// *maximum* per-shard synthetic charge, not the sum.
    ///
    /// Failed shards degrade the response to partial results
    /// ([`ServeError::PartialResults`], `shards_ok < shards_total`) —
    /// never an error. The response then equals, field for field (cost
    /// excepted), the monolithic response over an index with the failed
    /// shards' documents tombstoned.
    #[allow(clippy::too_many_arguments)]
    fn scatter_retrieve_and_rank(
        &self,
        cat: &ShardedCatalog,
        sharded: &ShardedIndex,
        query: &[String],
        rewrites: Vec<Vec<String>>,
        source: RewriteSource,
        config: &ServingConfig,
        budget: &DeadlineBudget,
        events: &mut Vec<ServeError>,
        ctx: Option<TraceCtx<'_>>,
    ) -> SearchResponse {
        let epoch = sharded.epoch();
        let n = sharded.shard_count();
        let t0 = budget.elapsed();
        let mut scatter_span = ctx.map(|c| c.child("scatter"));
        if let Some(s) = scatter_span.as_mut() {
            s.attr("shards", n);
        }

        // Degradation decision mirrors the monolith exactly: out of time
        // for one tree per rewrite means falling back to the merged tree.
        let mut use_merged = config.merged_tree;
        if !rewrites.is_empty() && !use_merged && budget.expired() {
            events.push(ServeError::DeadlineExceeded { stage: Stage::Retrieval });
            use_merged = true;
        }

        // Tree slot 0 is the base query; then the merged tree, or one
        // tree per rewrite.
        let mut trees = vec![QueryTree::and_of_tokens(query)];
        if !rewrites.is_empty() {
            if use_merged {
                let mut all = vec![query.to_vec()];
                all.extend(rewrites.iter().cloned());
                trees.push(QueryTree::merge_factored(&all));
            } else {
                for rw in &rewrites {
                    trees.push(QueryTree::and_of_tokens(rw));
                }
            }
        }
        // The rank vocabulary (query + rewrite tokens, deduplicated,
        // order preserved — exactly the monolith's `rank_query`) is known
        // up front so phase 1 returns per-shard dfs in the same pass.
        let mut rank_query: Vec<String> = query.to_vec();
        for rw in &rewrites {
            for tok in rw {
                if !rank_query.contains(tok) {
                    rank_query.push(tok.clone());
                }
            }
        }

        // ---- Phase 1: per-shard traversals ---------------------------
        let injector = cat.injector();
        // One breaker consult per shard per request, in shard order —
        // the cooldown schedule stays deterministic.
        let admitted: Vec<bool> = (0..n).map(|i| cat.breakers().allow(i)).collect();

        #[derive(Clone, Copy, PartialEq, Eq)]
        enum ShardPhase {
            Ok,
            Panic,
            Deadline,
            BreakerOpen,
        }

        let traverse_one =
            |shard: usize, slice: &DeadlineBudget| -> Result<ShardTraversal, ShardPhase> {
                let out = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(inj) = &injector {
                        inj.on_traverse(shard, slice);
                    }
                    if slice.expired() {
                        return Err(ShardPhase::Deadline);
                    }
                    let tr = sharded.shard(shard).traverse(&trees, &rank_query);
                    if slice.expired() {
                        return Err(ShardPhase::Deadline);
                    }
                    Ok(tr)
                }));
                match out {
                    Ok(r) => r,
                    Err(_) => Err(ShardPhase::Panic),
                }
            };

        let mut statuses: Vec<ShardPhase> = admitted
            .iter()
            .map(|&a| if a { ShardPhase::Ok } else { ShardPhase::BreakerOpen })
            .collect();
        let mut traversals: Vec<Option<ShardTraversal>> = (0..n).map(|_| None).collect();
        let mut latencies: Vec<Duration> = vec![Duration::ZERO; n];
        let mut attempts: Vec<u64> = admitted.iter().map(|&a| u64::from(a)).collect();
        let mut failure_counts: Vec<u64> = vec![0; n];
        let mut hedged: Vec<bool> = vec![false; n];

        // First attempts get *half* the remaining budget each, fixed here
        // once so a later shard's slice is not shortened by an earlier
        // shard's wall time. A shard that blows its slice is cut off at
        // the slice deadline, which leaves headroom for the hedged retry
        // below. The parent is charged the *maximum* synthetic charge
        // across shards, each capped at the slice allowance — a stalled
        // shard costs its stall once, and never more than it was given.
        let phase1_cap = budget.remaining().map(|r| r / 2);
        let mut max_spent = Duration::ZERO;
        for i in (0..n).filter(|&i| admitted[i]) {
            let slice = budget.slice_with(phase1_cap);
            let out = traverse_one(i, &slice);
            let spent = slice.synthetic_spent().min(phase1_cap.unwrap_or(Duration::MAX));
            max_spent = max_spent.max(spent);
            latencies[i] = slice.elapsed();
            match out {
                Ok(tr) => traversals[i] = Some(tr),
                Err(phase) => {
                    statuses[i] = phase;
                    failure_counts[i] += 1;
                }
            }
        }
        if max_spent > Duration::ZERO {
            budget.charge(max_spent);
        }

        // Straggler hedging: one retry for each deadline- or stall-failed
        // shard (not panics — a panicked traversal gets no second chance
        // to poison the request) while the parent budget still has time.
        // In shard order, so retry counts are deterministic.
        for i in 0..n {
            if statuses[i] == ShardPhase::Deadline && !budget.expired() {
                // The hedge also gets half the remaining budget (and is
                // charged back at most that allowance), so one stubbornly
                // stalled shard cannot drain the whole request: the
                // gather/rank phases still run on whatever survived.
                let hedge_cap = budget.remaining().map(|r| r / 2);
                let slice = budget.slice_with(hedge_cap);
                hedged[i] = true;
                attempts[i] += 1;
                let out = traverse_one(i, &slice);
                let spent = slice.synthetic_spent().min(hedge_cap.unwrap_or(Duration::MAX));
                budget.charge(spent);
                latencies[i] = slice.elapsed();
                match out {
                    Ok(tr) => {
                        traversals[i] = Some(tr);
                        statuses[i] = ShardPhase::Ok;
                    }
                    Err(phase) => {
                        statuses[i] = phase;
                        failure_counts[i] += 1;
                    }
                }
            }
        }
        self.health.record_stage_latency(Stage::Retrieval, budget.elapsed().saturating_sub(t0));
        let t1 = budget.elapsed();

        // ---- Gather + phase-2 rank ----------------------------------
        let mut alive: Vec<bool> = traversals.iter().map(Option::is_some).collect();
        let mut base_docs: Vec<usize> = Vec::new();
        let mut extra: Vec<usize> = Vec::new();
        let mut cost = RetrievalCost::default();
        let mut candidates: Vec<usize> = Vec::new();
        let mut ranked: Vec<usize> = Vec::new();
        loop {
            let survivors: Vec<usize> = (0..n).filter(|&i| alive[i]).collect();
            if survivors.is_empty() {
                // Every shard failed: a well-formed empty response (the
                // PartialResults stamp below says 0 of n answered). No
                // monolith fallback — the monolithic view exists, but
                // serving it would mask a dead tier as healthy.
                base_docs.clear();
                extra.clear();
                candidates.clear();
                ranked.clear();
                break;
            }
            let traversal =
                |i: usize| traversals[i].as_ref().expect("survivors hold traversals");

            // Reconstruct each tree's monolithic doc list (k-way union of
            // disjoint sorted global-id lists) and its cost
            // (partition-additive; see `shard::combine_costs`).
            let mut tree_docs: Vec<Vec<usize>> = Vec::with_capacity(trees.len());
            let mut tree_costs: Vec<RetrievalCost> = Vec::with_capacity(trees.len());
            for t in 0..trees.len() {
                let mut merged: Vec<usize> = Vec::new();
                for &i in &survivors {
                    merged = union_sorted(&merged, &traversal(i).evals[t].0);
                }
                let costs: Vec<RetrievalCost> =
                    survivors.iter().map(|&i| traversal(i).evals[t].1).collect();
                tree_docs.push(merged);
                tree_costs.push(combine_costs(&costs));
            }

            base_docs = std::mem::take(&mut tree_docs[0]);
            cost = tree_costs[0];
            extra.clear();
            if !rewrites.is_empty() {
                if use_merged {
                    let docs = std::mem::take(&mut tree_docs[1]);
                    cost = tree_costs[1]; // merged tree replaces the base tree
                    extra = difference_sorted(&docs, &base_docs);
                } else {
                    for r in 0..rewrites.len() {
                        let docs = std::mem::take(&mut tree_docs[1 + r]);
                        cost = cost + tree_costs[1 + r];
                        for d in docs {
                            if !base_docs.contains(&d) && !extra.contains(&d) {
                                extra.push(d);
                            }
                        }
                    }
                }
                extra.truncate(config.max_extra_candidates * rewrites.len());
            }
            candidates = base_docs.clone();
            candidates.extend(extra.iter().copied());

            if budget.expired() && !candidates.is_empty() {
                // No time for BM25: unranked prefix, like the monolith.
                events.push(ServeError::DeadlineExceeded { stage: Stage::Rank });
                ranked = candidates.iter().take(config.top_k).copied().collect();
                break;
            }
            if candidates.is_empty() {
                ranked.clear();
                break;
            }

            // Global BM25 statistics from the survivor set: same frozen
            // (token, idf) table and average length on every shard, so
            // per-shard scores are bit-identical to monolith scores.
            let n_live: u64 = survivors.iter().map(|&i| traversal(i).alive_docs).sum();
            let tok_live: u64 = survivors.iter().map(|&i| traversal(i).alive_tokens).sum();
            let avg = if n_live == 0 { 0.0 } else { tok_live as f64 / n_live as f64 };
            let avg = avg.max(1e-9);
            let terms: Vec<(String, f64)> = rank_query
                .iter()
                .enumerate()
                .map(|(k, tok)| {
                    let df: u64 = survivors.iter().map(|&i| traversal(i).dfs[k]).sum();
                    (tok.clone(), idf(n_live as f64, df as f64))
                })
                .collect();

            // Partition candidates by routing. Every candidate routes to
            // a surviving shard: failed shards contributed no documents.
            let mut parts: Vec<Vec<usize>> = vec![Vec::new(); n];
            for &d in &candidates {
                parts[sharded.route(d)].push(d);
            }

            let mut round_failures: Vec<usize> = Vec::new();
            let mut streams: Vec<Vec<(f64, usize)>> = Vec::new();
            for &i in survivors.iter().filter(|&&i| !parts[i].is_empty()) {
                match catch_unwind(AssertUnwindSafe(|| {
                    sharded.shard(i).rank_candidates(&terms, avg, &parts[i], config.top_k)
                })) {
                    Ok(stream) => streams.push(stream),
                    Err(_) => round_failures.push(i),
                }
            }
            if !round_failures.is_empty() {
                // A shard died between phases: exclude it wholly (its
                // phase-1 contribution too) and re-gather.
                for i in round_failures {
                    alive[i] = false;
                    statuses[i] = ShardPhase::Panic;
                    failure_counts[i] += 1;
                }
                continue;
            }

            // Merge per-shard top-k streams under the monolith tie-break
            // (score descending, doc id ascending — a total order, so the
            // merged prefix is exactly the monolith's).
            let mut scored: Vec<(f64, usize)> = streams.into_iter().flatten().collect();
            select_top_k(&mut scored, config.top_k);
            ranked = scored.into_iter().map(|(_, d)| d).collect();
            break;
        }

        let shards_ok = alive.iter().filter(|&&a| a).count();
        if let Some(s) = scatter_span.as_mut() {
            s.attr("base", base_docs.len());
            s.attr("extra", extra.len());
            s.attr("merged", use_merged);
            s.attr("outcome", if shards_ok < n { "partial" } else { "complete" });
        }
        // Gather children: exactly one per shard, created in shard order
        // after the traversals (which never touch the tracer), so the
        // canonical trace structure is identical at every shard count.
        if let (Some(c), Some(parent)) = (ctx, scatter_span.as_ref()) {
            for i in 0..n {
                let mut g = c.tracer.span(c.trace, Some(parent.id()), "gather");
                g.attr("shard", i);
                g.attr(
                    "outcome",
                    match statuses[i] {
                        ShardPhase::Ok => "ok",
                        ShardPhase::Panic => "panic",
                        ShardPhase::Deadline => "deadline",
                        ShardPhase::BreakerOpen => "breaker_open",
                    },
                );
                g.attr("hedged", hedged[i]);
            }
        }
        drop(scatter_span);

        let mut rank_span = ctx.map(|c| c.child("rank"));
        if let Some(s) = rank_span.as_mut() {
            s.attr("candidates", candidates.len());
        }
        drop(rank_span);
        self.health.record_stage_latency(Stage::Rank, budget.elapsed().saturating_sub(t1));

        if shards_ok < n {
            events.push(ServeError::PartialResults { shards_ok, shards_total: n });
        }

        // Breaker bookkeeping: skipped shards already paid via allow();
        // included shards report success (a hedged recovery clears the
        // failure run), excluded shards report one failure per failed
        // attempt.
        for i in 0..n {
            if !admitted[i] {
                continue;
            }
            if alive[i] {
                cat.breakers().record_success(i);
            } else {
                for _ in 0..failure_counts[i] {
                    cat.breakers().record_failure(i);
                }
            }
        }
        let outcomes: Vec<ShardOutcome> = (0..n)
            .map(|i| ShardOutcome {
                shard: i,
                attempts: attempts[i],
                failures: failure_counts[i],
                hedged: hedged[i],
                included: alive[i],
                latency: latencies[i],
            })
            .collect();
        cat.record_outcomes(&outcomes);

        SearchResponse {
            base_candidates: base_docs.len(),
            extra_candidates: extra.len(),
            ranked,
            candidates,
            rewrites_used: rewrites,
            rewrite_source: source,
            cost,
            degradations: std::mem::take(events),
            shards_ok,
            shards_total: n,
            epoch,
            model_epoch: 0,
        }
    }
}

/// BM25-ranks `candidates` against one pinned index. Query statistics
/// (live df, avg length, doc count) and term ids are frozen once via
/// [`InvertedIndex::bm25_scorer`], so each candidate costs one pass over
/// its term-id span per query term; only the top `top_k` are sorted.
fn rank_at(
    index: &InvertedIndex,
    query: &[String],
    candidates: &[usize],
    top_k: usize,
) -> Vec<usize> {
    let scorer = index.bm25_scorer(query);
    let mut scored: Vec<(f64, usize)> =
        candidates.iter().map(|&d| (scorer.score(d), d)).collect();
    select_top_k(&mut scored, top_k);
    scored.into_iter().map(|(_, d)| d).collect()
}

/// Stable label for the ladder rung that served a request, used as a span
/// attribute.
fn source_label(source: RewriteSource) -> &'static str {
    match source {
        RewriteSource::Cache => "cache",
        RewriteSource::Student => "student",
        RewriteSource::Fallback => "online",
        RewriteSource::Baseline => "baseline",
        RewriteSource::None => "raw",
    }
}

/// Drops blank tokens and truncates oversized queries. Returns the usable
/// query and, when truncation happened, the degradation to record.
fn sanitize_query(query: &[String], config: &ServingConfig) -> (Vec<String>, Option<ServeError>) {
    let mut cleaned: Vec<String> =
        query.iter().filter(|t| !t.trim().is_empty()).cloned().collect();
    if cleaned.len() > config.max_query_tokens {
        let err =
            ServeError::QueryTruncated { tokens: cleaned.len(), max: config.max_query_tokens };
        cleaned.truncate(config.max_query_tokens);
        (cleaned, Some(err))
    } else {
        (cleaned, None)
    }
}

/// A rewrite is structurally valid when it is non-empty, contains no blank
/// tokens, and is no longer than a maximal query. Anything else in the KV
/// store is treated as a poisoned entry.
fn valid_rewrite(rewrite: &[String], config: &ServingConfig) -> bool {
    !rewrite.is_empty()
        && rewrite.len() <= config.max_query_tokens
        && rewrite.iter().all(|t| !t.trim().is_empty())
}

/// Keeps only valid rewrites that differ from the query, capped at
/// `max_rewrites`.
fn clean_rewrites(
    raw: &[Vec<String>],
    query: &[String],
    config: &ServingConfig,
) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = Vec::new();
    for r in raw {
        if valid_rewrite(r, config) && r.as_slice() != query && !out.contains(r) {
            out.push(r.clone());
        }
        if out.len() == config.max_rewrites {
            break;
        }
    }
    out
}

/// Would [`SearchEngine::search_resilient`] consult the online rung for
/// this query? Returns the sanitized query the online rewriter would
/// receive when yes (the KV rung cannot serve it), `None` when the cache
/// rung answers or the query sanitizes to nothing.
///
/// The concurrent serving runtime uses this to split a dequeued batch into
/// KV-hits and decode-misses *before* running the micro-batched decode. It
/// mirrors the ladder's rung-1 logic exactly (same `sanitize_query`, same
/// entry validation) and probes through [`RewriteCache::peek`], so the
/// counted hit/miss lookup still happens exactly once per request — inside
/// the serve pass itself.
pub fn plan_online(
    query: &[String],
    cache: Option<&RewriteCache>,
    config: &ServingConfig,
) -> Option<Vec<String>> {
    let (query, _) = sanitize_query(query, config);
    if query.is_empty() {
        return None;
    }
    if let Some(cache) = cache {
        if let Some(cached) = cache.peek(&query) {
            if !clean_rewrites(&cached, &query, config).is_empty() {
                return None;
            }
        }
    }
    Some(query)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn engine() -> SearchEngine {
        SearchEngine::new(InvertedIndex::build(vec![
            toks("senior smartphone black official"),
            toks("smartphone golden new"),
            toks("sneaker red sale"),
            toks("senior handset classic"),
        ]))
    }

    struct FixedRewriter(Vec<Vec<String>>);
    impl QueryRewriter for FixedRewriter {
        fn rewrite(&self, _query: &[String], k: usize) -> Vec<Vec<String>> {
            self.0.iter().take(k).cloned().collect()
        }
        fn name(&self) -> &str {
            "fixed"
        }
    }

    #[test]
    fn baseline_misses_semantic_matches() {
        let e = engine();
        let resp = e.search_baseline(&toks("phone for grandpa"), &ServingConfig::default());
        assert!(resp.ranked.is_empty(), "term mismatch should retrieve nothing");
    }

    #[test]
    fn rewrites_recover_semantic_matches() {
        let e = engine();
        let rw = FixedRewriter(vec![toks("senior smartphone")]);
        let resp = e.search_with_rewrites(
            &toks("phone for grandpa"),
            None,
            Some(&rw),
            &ServingConfig::default(),
        );
        assert_eq!(resp.rewrite_source, RewriteSource::Fallback);
        assert!(resp.ranked.contains(&0), "{resp:?}");
        assert!(resp.extra_candidates > 0);
    }

    #[test]
    fn cache_takes_precedence_over_fallback() {
        let e = engine();
        let cache = RewriteCache::new();
        cache.insert(&toks("phone for grandpa"), vec![toks("senior handset")]);
        let rw = FixedRewriter(vec![toks("senior smartphone")]);
        let resp = e.search_with_rewrites(
            &toks("phone for grandpa"),
            Some(&cache),
            Some(&rw),
            &ServingConfig::default(),
        );
        assert_eq!(resp.rewrite_source, RewriteSource::Cache);
        assert_eq!(resp.rewrites_used, vec![toks("senior handset")]);
        assert!(resp.ranked.contains(&3));
    }

    #[test]
    fn merged_and_separate_retrieval_agree_on_results() {
        let e = engine();
        let rw = FixedRewriter(vec![toks("senior smartphone"), toks("senior handset")]);
        let q = toks("smartphone");
        let merged = e.search_with_rewrites(
            &q,
            None,
            Some(&rw),
            &ServingConfig { merged_tree: true, ..Default::default() },
        );
        let separate = e.search_with_rewrites(
            &q,
            None,
            Some(&rw),
            &ServingConfig { merged_tree: false, ..Default::default() },
        );
        let mut a = merged.ranked.clone();
        let mut b = separate.ranked.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn rewrite_equal_to_query_is_dropped() {
        let e = engine();
        let q = toks("smartphone");
        let rw = FixedRewriter(vec![toks("smartphone")]);
        let resp = e.search_with_rewrites(&q, None, Some(&rw), &ServingConfig::default());
        assert!(resp.rewrites_used.is_empty());
        assert_eq!(resp.extra_candidates, 0);
    }

    #[test]
    fn top_k_truncates() {
        let e = engine();
        let resp = e.search_baseline(
            &toks("smartphone"),
            &ServingConfig { top_k: 1, ..Default::default() },
        );
        assert_eq!(resp.ranked.len(), 1);
    }

    #[test]
    fn default_session_is_byte_identical_to_single_shot() {
        let e = engine();
        let rw = FixedRewriter(vec![toks("senior smartphone")]);
        let cache = RewriteCache::new();
        cache.insert(&toks("cached q"), vec![toks("senior handset")]);
        let ladder =
            RewriteLadder { cache: Some(&cache), online: Some(&rw), ..Default::default() };
        let config = ServingConfig::default();
        for q in [toks("phone for grandpa"), toks("cached q"), toks("smartphone")] {
            let single = e.search_resilient(&q, ladder, &config, &DeadlineBudget::unlimited(), None);
            let session = e.search_session_traced(
                &q,
                SessionState::default(),
                ladder,
                &config,
                &DeadlineBudget::unlimited(),
                None,
                None,
            );
            assert_eq!(format!("{single:?}"), format!("{session:?}"));
            assert_eq!(session.model_epoch, 0);
        }
    }

    #[test]
    fn pinned_model_serves_the_online_rung_and_stamps_the_epoch() {
        use crate::models::{ModelStore, SharedRewriter};
        let e = engine();
        let m1: SharedRewriter = Arc::new(FixedRewriter(vec![toks("senior smartphone")]));
        let store = ModelStore::new(m1);
        let pin = store.pin();
        // Publish a different model mid-request: the pin must keep rung 3
        // on epoch 1's rewriter.
        let m2: SharedRewriter = Arc::new(FixedRewriter(vec![toks("sneaker red")]));
        store.publish(m2);
        let session = SessionState { context: &[], model: Some(&pin) };
        // The ladder's static online rung would say "sneaker red" too —
        // it must be ignored in favour of the pinned model.
        let decoy = FixedRewriter(vec![toks("sneaker red")]);
        let ladder = RewriteLadder { online: Some(&decoy), ..Default::default() };
        let resp = e.search_session_traced(
            &toks("phone for grandpa"),
            session,
            ladder,
            &ServingConfig::default(),
            &DeadlineBudget::unlimited(),
            None,
            None,
        );
        assert_eq!(resp.model_epoch, 1);
        assert_eq!(resp.rewrites_used, vec![toks("senior smartphone")]);
        assert_eq!(resp.rewrite_source, RewriteSource::Fallback);
        let rendered = format!("{resp:?}");
        assert!(rendered.contains("model_epoch: 1"), "{rendered}");
    }

    struct ContextEcho;
    impl QueryRewriter for ContextEcho {
        fn rewrite(&self, _query: &[String], _k: usize) -> Vec<Vec<String>> {
            vec![toks("senior smartphone")]
        }
        fn rewrite_with_context(
            &self,
            context: &[Vec<String>],
            query: &[String],
            k: usize,
        ) -> Vec<Vec<String>> {
            if context.is_empty() {
                self.rewrite(query, k)
            } else {
                vec![toks("senior handset")]
            }
        }
        fn name(&self) -> &str {
            "context-echo"
        }
    }

    #[test]
    fn session_context_reaches_the_rewriter() {
        let e = engine();
        let rw = ContextEcho;
        let ladder = RewriteLadder { online: Some(&rw), ..Default::default() };
        let config = ServingConfig::default();
        let ctx = vec![toks("previous query")];
        let with_ctx = e.search_session_traced(
            &toks("phone for grandpa"),
            SessionState { context: &ctx, model: None },
            ladder,
            &config,
            &DeadlineBudget::unlimited(),
            None,
            None,
        );
        assert_eq!(with_ctx.rewrites_used, vec![toks("senior handset")]);
        let without = e.search_session_traced(
            &toks("phone for grandpa"),
            SessionState::default(),
            ladder,
            &config,
            &DeadlineBudget::unlimited(),
            None,
            None,
        );
        assert_eq!(without.rewrites_used, vec![toks("senior smartphone")]);
    }

    #[test]
    fn session_cache_scope_isolates_epochs() {
        use crate::models::{ModelStore, SharedRewriter};
        let e = engine();
        let cache = RewriteCache::new();
        // Legacy entry: invisible to a model-pinned session.
        cache.insert(&toks("phone for grandpa"), vec![toks("senior handset")]);
        let m: SharedRewriter = Arc::new(FixedRewriter(vec![toks("senior smartphone")]));
        let store = ModelStore::new(m);
        let pin = store.pin();
        let session = SessionState { context: &[], model: Some(&pin) };
        let ladder = RewriteLadder { cache: Some(&cache), ..Default::default() };
        let resp = e.search_session_traced(
            &toks("phone for grandpa"),
            session,
            ladder,
            &ServingConfig::default(),
            &DeadlineBudget::unlimited(),
            None,
            None,
        );
        // Cache missed (wrong scope) → pinned model served rung 3.
        assert_eq!(resp.rewrite_source, RewriteSource::Fallback);
        assert_eq!(resp.rewrites_used, vec![toks("senior smartphone")]);
    }
}
