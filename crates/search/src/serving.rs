//! The end-to-end serving pipeline: rewrite lookup (KV cache with q2q
//! fallback), merged-syntax-tree retrieval, BM25 ranking (§III-G/§III-H).
//!
//! # Serving resilience
//!
//! Every request takes one guarded path:
//! [`SearchEngine::search_resilient`], or its session-aware, traced form
//! [`SearchEngine::search_session_traced`]. (Offline evaluation and the
//! A/B simulator call it with [`DeadlineBudget::unlimited`].) It never
//! panics and always returns a well-formed [`SearchResponse`]: rewrites
//! are acquired down an explicit degradation ladder
//!
//! ```text
//! KV cache → quantized student → online q2q model → rule-based baseline
//!          → raw query only
//! ```
//!
//! The three model rungs run through one routine, each under its own
//! policy: the student and online rungs are gated by the per-request
//! [`DeadlineBudget`], the online rung alone by a [`CircuitBreaker`] and
//! injected faults, and every rewriter call by `catch_unwind`.
//! Degradations are recorded on the response (`degradations`) and
//! aggregated into [`SearchEngine::health_report`].
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

use qrw_core::{thread_decode_stats, Fault, Faults, QueryRewriter, Site};
use qrw_obs::{Histogram, Tracer};
use qrw_tensor::sync::Mutex;

use std::sync::Arc;

use crate::breaker::{BreakerConfig, BreakerSet, CircuitBreaker};
use crate::deadline::DeadlineBudget;
use crate::error::{ServeError, Stage};
use crate::health::{ChurnStats, HealthCounters, HealthReport};
use crate::index::{difference_sorted, idf, union_sorted, InvertedIndex};
use crate::kv::{CacheScope, RewriteCache};
use crate::models::PinnedModel;
use crate::shard::{
    combine_costs, RebalanceError, RebalancePlan, ShardOutcome, ShardTraversal, ShardedCatalog,
    ShardedIndex,
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
    /// Every other response is built on it.
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
    /// The armed fault schedule: its shard and rebalance rules fire here,
    /// and a serving runtime reads its worker and request rules.
    faults: Mutex<Option<Arc<Faults>>>,
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
    /// The one constructor body: default breaker tuning, no tracer.
    fn with_catalog(catalog: Catalog) -> Self {
        SearchEngine {
            catalog,
            breaker: CircuitBreaker::new(BreakerConfig::default()),
            health: HealthCounters::default(),
            tracer: None,
            faults: Mutex::new(None),
        }
    }

    /// An engine serving a frozen index built before serving.
    pub fn new(index: InvertedIndex) -> Self {
        Self::with_catalog(Catalog::Frozen(index))
    }

    /// An engine serving an epoch-pinned live catalog: each request pins
    /// the current epoch of `store` for its whole duration, so a
    /// concurrent [`CatalogWriter`](crate::snapshot::CatalogWriter) never
    /// tears a response.
    pub fn live(store: Arc<SnapshotStore>) -> Self {
        Self::with_catalog(Catalog::Live(store))
    }

    /// An engine serving a frozen index through the `shards`-way
    /// scatter-gather tier (epoch `0`, like [`new`](Self::new)). Healthy
    /// responses are byte-identical to the monolithic engine's at every
    /// shard count; per-shard faults degrade to partial results.
    pub fn sharded(index: InvertedIndex, shards: usize) -> Self {
        let store = SnapshotStore::new(IndexSnapshot::new(0, index));
        let cat = ShardedCatalog::new(store, shards, BreakerConfig::default(), false);
        Self::with_catalog(Catalog::Sharded(cat))
    }

    /// An engine serving an epoch-pinned **live** catalog through the
    /// scatter-gather tier: each request pins one epoch, and the shard
    /// set for that epoch is built once and cached until the epoch or the
    /// routing plan changes.
    pub fn sharded_live(store: Arc<SnapshotStore>, shards: usize) -> Self {
        let cat = ShardedCatalog::new(store, shards, BreakerConfig::default(), true);
        Self::with_catalog(Catalog::Sharded(cat))
    }

    /// Custom circuit-breaker tuning: `breaker` configures the online
    /// rung's breaker and, on a sharded catalog, every member of the
    /// per-shard [`BreakerSet`]. Both start closed.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = CircuitBreaker::new(breaker);
        if let Catalog::Sharded(cat) = &mut self.catalog {
            cat.reset_breakers(breaker);
        }
        self
    }

    /// Arms (or clears) a fault schedule on the engine: its
    /// [`Site::Shard`] and [`Site::RebalanceStep`] rules fire in the shard
    /// tier, and a serving runtime over this engine reads its
    /// [`Site::WorkerHome`] and [`Site::Request`] rules when a run starts.
    /// The online rewriter's faults are passed per call instead.
    pub fn set_faults(&self, faults: Option<Arc<Faults>>) {
        *self.faults.lock() = faults;
    }

    /// The armed fault schedule, if any.
    pub fn faults(&self) -> Option<Arc<Faults>> {
        self.faults.lock().clone()
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
            Catalog::Sharded(cat) => cat.rebalance(plan, self.faults().as_deref()),
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
    /// [`search_session_traced`](Self::search_session_traced) so engine
    /// spans join the caller's trace.
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

    /// Raw-query retrieval against the request's already-pinned epoch:
    /// the last resort when the engine itself panicked (it reuses the
    /// request's pin rather than re-pinning a possibly newer epoch).
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
            ranked,
            candidates: docs,
            cost,
            ..SearchResponse::empty(epoch)
        }
    }

    /// Fault-tolerant serving entry point. Never panics; always returns a
    /// well-formed response. Rewrites come from the highest healthy rung
    /// of `ladder`; `budget` is consulted before each stage and the online
    /// model call; `faults` (tests only) deterministically injects latency
    /// spikes, model errors and panics into the online rung through its
    /// [`Site::Rewriter`] rules.
    pub fn search_resilient(
        &self,
        query: &[String],
        ladder: RewriteLadder<'_>,
        config: &ServingConfig,
        budget: &DeadlineBudget,
        faults: Option<&Faults>,
    ) -> SearchResponse {
        let session = SessionState::default();
        self.search_session_traced(query, session, ladder, config, budget, faults, None)
    }

    /// Session-aware serving:
    /// [`search_resilient`](Self::search_resilient) with a
    /// [`SessionState`] threaded through the whole ladder walk, joined to
    /// an existing trace. When a tracer is attached, the request records a
    /// `serve` span (ladder rungs, retrieval and ranking nest under it)
    /// into trace `trace` — the concurrent runtime passes the request id
    /// so engine spans land in the request's trace. With `trace = None` a
    /// fresh trace id is minted. End-to-end latency (per the deadline
    /// budget, synthetic charges included) feeds the health histogram
    /// either way. With the default session this **is**
    /// `search_resilient`, byte for byte. With a session:
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
        faults: Option<&Faults>,
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
        faults: Option<&Faults>,
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

    /// Walks the degradation ladder until a rung yields usable rewrites:
    /// the KV cache, then the student, online and baseline model rungs
    /// (one [`model_rung`](Self::model_rung) routine under each rung's
    /// [`RungPolicy`]), then the raw query. Each rung *attempted* records
    /// a `rung_*` span (named by the rung, so the ladder walk is visible in
    /// the trace structure) with an `outcome` attribute.
    #[allow(clippy::too_many_arguments)]
    fn acquire_rewrites(
        &self,
        query: &[String],
        session: SessionState<'_>,
        ladder: RewriteLadder<'_>,
        config: &ServingConfig,
        budget: &DeadlineBudget,
        faults: Option<&Faults>,
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

        // A model-pinned session serves the online rung from its pinned
        // epoch's rewriter instead of the ladder's static model — the pin
        // was taken before the request started, so even if swaps land
        // mid-request every call below hits the same frozen model.
        let online: Option<&dyn QueryRewriter> = match session.model {
            Some(pin) => Some(pin.rewriter()),
            None => ladder.online,
        };
        let rungs = [(STUDENT, ladder.student), (ONLINE, online), (BASELINE, ladder.baseline)];
        for (policy, rewriter) in rungs {
            let Some(rewriter) = rewriter else { continue };
            let mut span = ctx.map(|c| c.child(policy.span));
            let result = self.model_rung(policy, rewriter, session, query, config, budget, faults);
            if let Some(s) = span.as_mut() {
                s.attr("outcome", result.as_ref().map_or_else(rung_outcome, |_| "served"));
            }
            match result {
                Ok(cleaned) => return (cleaned, policy.source),
                Err(e) => events.push(e),
            }
        }

        // Last rung: raw query only.
        if let Some(c) = ctx {
            c.child("rung_raw").finish();
        }
        (Vec::new(), RewriteSource::None)
    }

    /// Runs one model rung under `policy`: the budget gate, then (online
    /// rung) the breaker consult, the injected fault and its latency
    /// charge, then the rewriter call behind `catch_unwind` with this
    /// thread's decode counters snapshotted around it, and (online rung)
    /// the breaker's verdict. Returns the cleaned rewrites, or the
    /// degradation to record; a healthy call with no usable rewrite is an
    /// [`ServeError::EmptyOutput`], which the breaker counts as a success.
    /// The session context reaches the rewriter through
    /// [`QueryRewriter::rewrite_with_context`], whose default impl is a
    /// plain `rewrite` call.
    #[allow(clippy::too_many_arguments)]
    fn model_rung(
        &self,
        policy: RungPolicy,
        rewriter: &dyn QueryRewriter,
        session: SessionState<'_>,
        query: &[String],
        config: &ServingConfig,
        budget: &DeadlineBudget,
        faults: Option<&Faults>,
    ) -> Result<Vec<Vec<String>>, ServeError> {
        if policy.budget_gated && budget.expired() {
            return Err(ServeError::DeadlineExceeded { stage: Stage::Rewrite });
        }
        let breaker = policy.breaker.then_some(&self.breaker);
        let mut fault = None;
        if let Some(breaker) = breaker {
            if !breaker.allow() {
                return Err(ServeError::BreakerOpen);
            }
            fault = faults.and_then(|f| f.hit(Site::Rewriter));
            if let Some(Fault::Latency(spike)) = fault {
                budget.charge(spike);
            }
            if budget.expired() {
                breaker.record_failure();
                return Err(ServeError::DeadlineExceeded { stage: Stage::Rewrite });
            }
        }
        let before = (policy.decode && rewriter.decode_stats().is_some())
            .then(|| (thread_decode_stats(), budget.elapsed()));
        let called = catch_unwind(AssertUnwindSafe(|| match fault {
            Some(Fault::Panic) => panic!("injected rewriter panic"),
            Some(Fault::ModelError) => None,
            _ => Some(rewriter.rewrite_with_context(session.context, query, config.max_rewrites)),
        }));
        // The rewriter's name is only built for a degradation record.
        let name = || rewriter.name().to_string();
        let result = match called {
            Ok(Some(raw)) => match clean_rewrites(&raw, query, config) {
                cleaned if cleaned.is_empty() => Err(ServeError::EmptyOutput { rewriter: name() }),
                cleaned => Ok(cleaned),
            },
            Ok(None) => Err(ServeError::ModelError { rewriter: name() }),
            Err(_) => Err(ServeError::ModelPanic { rewriter: name() }),
        };
        if let Some((stats, t_call)) = before {
            let elapsed = budget.elapsed().saturating_sub(t_call);
            self.health.record_decode(policy.source, thread_decode_stats().since(&stats), elapsed);
        }
        if let Some(breaker) = breaker {
            match &result {
                Ok(_) | Err(ServeError::EmptyOutput { .. }) => breaker.record_success(),
                Err(_) => breaker.record_failure(),
            }
        }
        result
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

    /// Retrieval + ranking of the query and its acquired rewrites. With an
    /// unlimited budget this is exactly the §III-G flow; with a real
    /// budget, rewrite expansion and BM25 ranking each degrade when time
    /// has run out.
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
        let plan = RetrievalPlan::new(query, &rewrites, config, budget, events);
        let gathered = plan.combine(plan.trees.iter().map(|t| t.evaluate(index)).collect());
        if let Some(s) = retrieve_span.as_mut() {
            s.attr("base", gathered.base);
            s.attr("extra", gathered.extra);
            s.attr("merged", plan.merged);
        }
        drop(retrieve_span);
        self.health.record_stage_latency(Stage::Retrieval, budget.elapsed().saturating_sub(t0));

        // Rank the union with BM25 against the plan's rank vocabulary, so
        // semantically-matched docs can score.
        let t1 = budget.elapsed();
        let mut rank_span = ctx.map(|c| c.child("rank"));
        let candidates = gathered.candidates;
        let ranked = if budget.expired() && !candidates.is_empty() {
            // No time for BM25: return an unranked prefix rather than
            // overrun the deadline.
            events.push(ServeError::DeadlineExceeded { stage: Stage::Rank });
            candidates.iter().take(config.top_k).copied().collect()
        } else {
            rank_at(index, &plan.rank_query, &candidates, config.top_k)
        };
        if let Some(s) = rank_span.as_mut() {
            s.attr("candidates", candidates.len());
        }
        drop(rank_span);
        self.health.record_stage_latency(Stage::Rank, budget.elapsed().saturating_sub(t1));

        SearchResponse {
            base_candidates: gathered.base,
            extra_candidates: gathered.extra,
            ranked,
            candidates,
            rewrites_used: rewrites,
            rewrite_source: source,
            cost: gathered.cost,
            degradations: std::mem::take(events),
            ..SearchResponse::empty(epoch)
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

        // The monolith's plan: the same degradation decision, trees and
        // rank vocabulary. The rank vocabulary is known up front so phase
        // 1 returns per-shard dfs in the same pass.
        let plan = RetrievalPlan::new(query, &rewrites, config, budget, events);
        let RetrievalPlan { trees, rank_query, .. } = &plan;

        // ---- Phase 1: per-shard traversals ---------------------------
        let faults = self.faults();
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
                    match faults.as_ref().and_then(|f| f.hit(Site::Shard(shard))) {
                        Some(Fault::Panic) => panic!("injected shard panic (shard {shard})"),
                        // A simulated straggler: charged, never slept.
                        Some(Fault::Latency(stall)) => slice.charge(stall),
                        _ => {}
                    }
                    if slice.expired() {
                        return Err(ShardPhase::Deadline);
                    }
                    let tr = sharded.shard(shard).traverse(trees, rank_query);
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
        let (gathered, ranked) = loop {
            let survivors: Vec<usize> = (0..n).filter(|&i| alive[i]).collect();
            if survivors.is_empty() {
                // Every shard failed: a well-formed empty response (the
                // PartialResults stamp below says 0 of n answered). No
                // monolith fallback — the monolithic view exists, but
                // serving it would mask a dead tier as healthy.
                break (Gathered::default(), Vec::new());
            }
            let traversal =
                |i: usize| traversals[i].as_ref().expect("survivors hold traversals");

            // Reconstruct each tree's monolithic doc list (k-way union of
            // disjoint sorted global-id lists) and its cost
            // (partition-additive; see `shard::combine_costs`).
            let evals = (0..trees.len())
                .map(|t| {
                    let mut merged: Vec<usize> = Vec::new();
                    for &i in &survivors {
                        merged = union_sorted(&merged, &traversal(i).evals[t].0);
                    }
                    let costs: Vec<RetrievalCost> =
                        survivors.iter().map(|&i| traversal(i).evals[t].1).collect();
                    (merged, combine_costs(&costs))
                })
                .collect();
            let gathered = plan.combine(evals);
            let candidates = &gathered.candidates;

            if budget.expired() && !candidates.is_empty() {
                // No time for BM25: unranked prefix, like the monolith.
                events.push(ServeError::DeadlineExceeded { stage: Stage::Rank });
                let ranked = candidates.iter().take(config.top_k).copied().collect();
                break (gathered, ranked);
            }
            if candidates.is_empty() {
                break (gathered, Vec::new());
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
            for &d in candidates {
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
            break (gathered, scored.into_iter().map(|(_, d)| d).collect());
        };

        let shards_ok = alive.iter().filter(|&&a| a).count();
        if let Some(s) = scatter_span.as_mut() {
            s.attr("base", gathered.base);
            s.attr("extra", gathered.extra);
            s.attr("merged", plan.merged);
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
            s.attr("candidates", gathered.candidates.len());
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
            base_candidates: gathered.base,
            extra_candidates: gathered.extra,
            ranked,
            candidates: gathered.candidates,
            rewrites_used: rewrites,
            rewrite_source: source,
            cost: gathered.cost,
            degradations: std::mem::take(events),
            shards_ok,
            shards_total: n,
            ..SearchResponse::empty(epoch)
        }
    }
}

/// How the ladder guards one model rung; [`SearchEngine::model_rung`]
/// runs all three under their policy.
#[derive(Clone, Copy)]
struct RungPolicy {
    /// The rung's span name.
    span: &'static str,
    /// The source stamped on a response the rung serves; it also selects
    /// the health report's decode block.
    source: RewriteSource,
    /// Skipped once the request's budget is spent.
    budget_gated: bool,
    /// Consults the online breaker and draws the injected fault.
    breaker: bool,
    /// Reports the model's decode work to the health counters.
    decode: bool,
}

/// The quantized distilled student: budget-gated and panic-isolated, but
/// not breaker-guarded — a student failure degrades to the teacher-backed
/// online rung, and only the teacher's health feeds the breaker. Its
/// decode work lands in the separate `student_*` block, so the report
/// compares student and teacher throughput.
const STUDENT: RungPolicy = RungPolicy {
    span: "rung_student",
    source: RewriteSource::Student,
    budget_gated: true,
    breaker: false,
    decode: true,
};

/// The online q2q model, guarded by the budget, the breaker and
/// `catch_unwind`; the only rung that draws injected faults.
const ONLINE: RungPolicy = RungPolicy {
    span: "rung_online",
    source: RewriteSource::Fallback,
    budget_gated: true,
    breaker: true,
    decode: true,
};

/// The rule-based baseline. Deliberately not budget-gated: its cost is
/// bounded (dictionary substitution), and salvaging a blown-deadline
/// request with cheap rewrites is exactly what the ladder is for. Panic
/// isolation still applies.
const BASELINE: RungPolicy = RungPolicy {
    span: "rung_baseline",
    source: RewriteSource::Baseline,
    budget_gated: false,
    breaker: false,
    decode: false,
};

/// The `outcome` span attribute of a model rung that degraded with `e`.
fn rung_outcome(e: &ServeError) -> &'static str {
    match e {
        ServeError::DeadlineExceeded { .. } => "deadline",
        ServeError::BreakerOpen => "breaker_open",
        ServeError::EmptyOutput { .. } => "empty",
        ServeError::ModelPanic { .. } => "panic",
        _ => "error",
    }
}

/// What one request retrieves, shared by the monolithic and the
/// scatter-gather paths: the trees to evaluate (slot 0 is the original
/// query's AND tree; then the §III-H merged tree, or one tree per
/// rewrite) and the BM25 rank vocabulary.
struct RetrievalPlan {
    trees: Vec<QueryTree>,
    /// Query tokens, then the rewrites' new tokens (deduplicated, order
    /// preserved).
    rank_query: Vec<String>,
    merged: bool,
    /// Cap on extra candidates: `max_extra_candidates` per rewrite.
    max_extra: usize,
}

/// A request's combined retrieval: base-query candidates first, then the
/// rewrites' extra candidates, and the recombined cost.
#[derive(Default)]
struct Gathered {
    candidates: Vec<usize>,
    base: usize,
    extra: usize,
    cost: RetrievalCost,
}

impl RetrievalPlan {
    fn new(
        query: &[String],
        rewrites: &[Vec<String>],
        config: &ServingConfig,
        budget: &DeadlineBudget,
        events: &mut Vec<ServeError>,
    ) -> Self {
        let mut merged = config.merged_tree;
        if !rewrites.is_empty() && !merged && budget.expired() {
            // Out of time for one tree per rewrite: the §III-H merged tree
            // is the cheaper evaluation, so degrade to it.
            events.push(ServeError::DeadlineExceeded { stage: Stage::Retrieval });
            merged = true;
        }
        let mut trees = vec![QueryTree::and_of_tokens(query)];
        if merged && !rewrites.is_empty() {
            let mut all = vec![query.to_vec()];
            all.extend(rewrites.iter().cloned());
            trees.push(QueryTree::merge_factored(&all));
        } else {
            trees.extend(rewrites.iter().map(|rw| QueryTree::and_of_tokens(rw)));
        }
        let mut rank_query: Vec<String> = query.to_vec();
        for tok in rewrites.iter().flatten() {
            if !rank_query.contains(tok) {
                rank_query.push(tok.clone());
            }
        }
        let max_extra = config.max_extra_candidates * rewrites.len();
        RetrievalPlan { trees, rank_query, merged, max_extra }
    }

    /// Combines each tree's (docs, cost), in `trees` order: the base docs
    /// survive in full, the merged tree's cost replaces the base cost
    /// while per-rewrite costs add to it, and extra candidates are capped.
    fn combine(&self, evals: Vec<(Vec<usize>, RetrievalCost)>) -> Gathered {
        let mut evals = evals.into_iter();
        let (mut candidates, mut cost) = evals.next().expect("slot 0 is the base tree");
        let base = candidates.len();
        if self.merged {
            if let Some((docs, c)) = evals.next() {
                cost = c;
                candidates.extend(difference_sorted(&docs, &candidates));
            }
        } else {
            for (docs, c) in evals {
                cost = cost + c;
                for d in docs {
                    if !candidates.contains(&d) {
                        candidates.push(d);
                    }
                }
            }
        }
        candidates.truncate(base + self.max_extra);
        Gathered { extra: candidates.len() - base, candidates, base, cost }
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

    /// One request down the guarded path with no deadline.
    fn serve(
        e: &SearchEngine,
        q: &[String],
        ladder: RewriteLadder<'_>,
        config: &ServingConfig,
    ) -> SearchResponse {
        e.search_resilient(q, ladder, config, &DeadlineBudget::unlimited(), None)
    }

    fn online(rw: &dyn QueryRewriter) -> RewriteLadder<'_> {
        RewriteLadder { online: Some(rw), ..Default::default() }
    }

    #[test]
    fn baseline_misses_semantic_matches() {
        let e = engine();
        let q = toks("phone for grandpa");
        let resp = serve(&e, &q, RewriteLadder::default(), &ServingConfig::default());
        assert!(resp.ranked.is_empty(), "term mismatch should retrieve nothing");
    }

    #[test]
    fn rewrites_recover_semantic_matches() {
        let e = engine();
        let rw = FixedRewriter(vec![toks("senior smartphone")]);
        let resp = serve(&e, &toks("phone for grandpa"), online(&rw), &ServingConfig::default());
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
        let ladder = RewriteLadder { cache: Some(&cache), ..online(&rw) };
        let resp = serve(&e, &toks("phone for grandpa"), ladder, &ServingConfig::default());
        assert_eq!(resp.rewrite_source, RewriteSource::Cache);
        assert_eq!(resp.rewrites_used, vec![toks("senior handset")]);
        assert!(resp.ranked.contains(&3));
    }

    #[test]
    fn merged_and_separate_retrieval_agree_on_results() {
        let e = engine();
        let rw = FixedRewriter(vec![toks("senior smartphone"), toks("senior handset")]);
        let q = toks("smartphone");
        let merged =
            serve(&e, &q, online(&rw), &ServingConfig { merged_tree: true, ..Default::default() });
        let separate =
            serve(&e, &q, online(&rw), &ServingConfig { merged_tree: false, ..Default::default() });
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
        let resp = serve(&e, &q, online(&rw), &ServingConfig::default());
        assert!(resp.rewrites_used.is_empty());
        assert_eq!(resp.extra_candidates, 0);
    }

    #[test]
    fn top_k_truncates() {
        let e = engine();
        let config = ServingConfig { top_k: 1, ..Default::default() };
        let resp = serve(&e, &toks("smartphone"), RewriteLadder::default(), &config);
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
