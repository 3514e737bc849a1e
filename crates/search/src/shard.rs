//! Document-sharded index and the state behind the scatter-gather
//! serving tier.
//!
//! The inverted index behind `qrw-search` was a single monolith: one
//! poisoned structure or one slow traversal took down every query. This
//! module partitions the catalog **by document** using the same FNV-1a
//! routing the `RewriteCache` already uses 16-way, under one hard bar:
//!
//! > **Shard transparency.** At every shard count, a healthy
//! > scatter-gather response is byte-identical (`format!("{resp:?}")`)
//! > to the single-index response — candidates, ranks, scores, *and*
//! > retrieval-cost counters.
//!
//! Why this holds:
//!
//! * **Docs.** Boolean set operations distribute over any disjoint
//!   document partition: for every subtree, the shard-local result is
//!   exactly `monolith_result ∩ shard_docs`, and tombstones partition
//!   with their documents. Per-shard results carry *global* ids in
//!   ascending order, so a k-way sorted union reconstructs the monolith
//!   list exactly.
//! * **Costs.** `RetrievalCost` is partition-additive by construction:
//!   `postings_scanned` and `merge_ops` sum over the partition (the tree
//!   evaluator intersects in tree order and charges merge work even
//!   through an empty accumulator, precisely so local early-emptiness
//!   cannot skew the counters), while `leaf_lookups` is a pure function
//!   of the tree — identical on every shard — and is taken from one
//!   shard rather than summed ([`combine_costs`]).
//! * **Scores.** BM25 statistics are *global*: the gather step sums
//!   per-shard live-doc counts, live-token counts and document
//!   frequencies, computes each term's idf once with the monolith
//!   formula ([`idf`](crate::index::idf)), and hands every shard the
//!   same frozen `(token, idf)` table and average length
//!   (`InvertedIndex::bm25_scorer_from_stats`). Only `tf` and `dl` are
//!   read locally, and those are per-document facts — so per-shard
//!   scores are bit-identical to monolith scores.
//! * **Ties.** Ranking sorts by `(score desc, doc id asc)` — a total
//!   order over unique ids — so merging per-shard top-k streams and
//!   re-sorting reproduces the monolith's unique sorted prefix.
//!
//! Epochs carry over from the PR-6 live catalog: a [`ShardedIndex`] is
//! built from one pinned [`SnapshotStore`]
//! epoch (each shard a term-id subset of that epoch's index, equal to
//! replaying its members' tokens and tombstones onto an empty index) and
//! is immutable; churn publishes a new epoch and the next request's pin
//! rebuilds. [`RebalancePlan`] moves documents between shards through
//! routing overrides — results are routing-independent, so serving is
//! byte-identical across the rebalance boundary, and a kill mid-plan (a
//! fault at [`Site::RebalanceStep`]) simply leaves the old plan serving.
//!
//! The robustness state also lives here: a per-shard [`BreakerSet`] and
//! single-lock shard telemetry whose health snapshot can never mix
//! epochs or plan versions (the PR-6 torn-read discipline applied to
//! observability). Shard faults (panic, stall, poison) are [`Faults`]
//! rules at [`Site::Shard`], armed on the engine.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use qrw_core::fault::{Faults, Site};
use qrw_obs::Histogram;
use qrw_tensor::serialize::Fnv1a;
use qrw_tensor::sync::Mutex;

use crate::breaker::{BreakerConfig, BreakerSet};
use crate::health::{ShardStatReport, ShardTierReport};
use crate::index::InvertedIndex;
use crate::snapshot::{PinnedSnapshot, SnapshotStore};
use crate::topk::select_top_k;
use crate::tree::{QueryTree, RetrievalCost};

/// FNV-1a over the document id's 8 little-endian bytes — the same hash
/// family (and constants) the `RewriteCache` uses for its 16-way lock
/// sharding, applied to doc ids instead of query strings.
fn route_hash(doc: u64) -> u64 {
    Fnv1a::default().bytes(&doc.to_le_bytes()).finish()
}

/// Where each document lives: FNV-1a routing over a fixed shard count,
/// plus per-document overrides accumulated by rebalances. The shard
/// *count* never changes over a catalog's lifetime — rebalance moves
/// documents between existing shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutingPlan {
    shards: usize,
    overrides: HashMap<u64, usize>,
}

impl RoutingPlan {
    /// Pure FNV routing over `shards` shards (clamped to at least 1).
    pub fn fnv(shards: usize) -> Self {
        RoutingPlan { shards: shards.max(1), overrides: HashMap::new() }
    }

    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shard a (global) document id routes to.
    pub fn route(&self, doc: usize) -> usize {
        match self.overrides.get(&(doc as u64)) {
            Some(&s) => s,
            None => (route_hash(doc as u64) % self.shards as u64) as usize,
        }
    }

    /// Number of documents currently routed away from their FNV home.
    pub fn override_count(&self) -> usize {
        self.overrides.len()
    }

    fn set_override(&mut self, doc: usize, shard: usize) {
        if (route_hash(doc as u64) % self.shards as u64) as usize == shard {
            // Moving a doc back to its FNV home clears the override.
            self.overrides.remove(&(doc as u64));
        } else {
            self.overrides.insert(doc as u64, shard);
        }
    }
}

/// A rebalance request: re-route each `(doc, target_shard)` pair. Applied
/// atomically — readers observe either the old plan or the new plan,
/// never a prefix (and a kill mid-apply leaves the old plan serving).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RebalancePlan {
    pub moves: Vec<(usize, usize)>,
}

impl RebalancePlan {
    pub fn new(moves: Vec<(usize, usize)>) -> Self {
        RebalancePlan { moves }
    }
}

/// Why a rebalance did not take effect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RebalanceError {
    /// The (injected) kill fired mid-plan; the old plan keeps serving.
    Killed,
    /// A move targeted a shard id outside `0..shard_count`.
    BadTarget { doc: usize, target: usize, shards: usize },
    /// The engine has no shard tier.
    NotSharded,
}

impl std::fmt::Display for RebalanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebalanceError::Killed => write!(f, "rebalance killed mid-plan; old plan kept"),
            RebalanceError::BadTarget { doc, target, shards } => {
                write!(f, "rebalance move of doc {doc} targets shard {target} of {shards}")
            }
            RebalanceError::NotSharded => write!(f, "engine has no shard tier"),
        }
    }
}

/// One shard: a dense local [`InvertedIndex`] over its member documents
/// plus the ascending local→global id map. Built in global-id order, so
/// sorted local results map to sorted global results.
#[derive(Debug)]
pub struct Shard {
    index: InvertedIndex,
    globals: Vec<usize>,
}

impl Shard {
    /// The shard-local index (dense ids `0..globals.len()`).
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Global ids of this shard's documents, ascending.
    pub fn globals(&self) -> &[usize] {
        &self.globals
    }

    /// Maps a sorted local id list to the (still sorted) global ids.
    fn to_global(&self, locals: Vec<usize>) -> Vec<usize> {
        locals.into_iter().map(|l| self.globals[l]).collect()
    }

    /// Local id of a global doc, if this shard holds it.
    pub fn to_local(&self, global: usize) -> Option<usize> {
        self.globals.binary_search(&global).ok()
    }

    /// Phase-1 scatter work: evaluates every tree against the local
    /// index (results mapped to global ids) and snapshots the local BM25
    /// statistics the gather step sums into global statistics.
    pub fn traverse(&self, trees: &[QueryTree], rank_tokens: &[String]) -> ShardTraversal {
        let evals = trees
            .iter()
            .map(|t| {
                let (docs, cost) = t.evaluate(&self.index);
                (self.to_global(docs), cost)
            })
            .collect();
        let dfs = rank_tokens.iter().map(|t| self.index.doc_freq(t) as u64).collect();
        ShardTraversal {
            evals,
            dfs,
            alive_docs: self.index.live_len() as u64,
            alive_tokens: self.index.live_tokens() as u64,
        }
    }

    /// Phase-2 scatter work: scores this shard's slice of the candidate
    /// set with the gather-computed global statistics and returns its
    /// top-`k` stream, sorted by the monolith tie-break
    /// (score descending, global id ascending).
    pub fn rank_candidates(
        &self,
        terms: &[(String, f64)],
        avg: f64,
        candidates: &[usize],
        k: usize,
    ) -> Vec<(f64, usize)> {
        let scorer = self.index.bm25_scorer_from_stats(terms, avg);
        let mut scored: Vec<(f64, usize)> = candidates
            .iter()
            .map(|&g| {
                let local = self.to_local(g).expect("candidate routed to wrong shard");
                (scorer.score(local), g)
            })
            .collect();
        select_top_k(&mut scored, k);
        scored
    }
}

/// What one shard returns from phase 1: per-tree global doc lists with
/// local costs, plus the local statistics behind global BM25.
#[derive(Clone, Debug)]
pub struct ShardTraversal {
    /// One `(sorted global ids, local cost)` per input tree.
    pub evals: Vec<(Vec<usize>, RetrievalCost)>,
    /// Local live document frequency per rank token (query order).
    pub dfs: Vec<u64>,
    pub alive_docs: u64,
    pub alive_tokens: u64,
}

/// Combines per-shard costs of the *same* tree into the monolith cost:
/// `postings_scanned` and `merge_ops` partition-add, `leaf_lookups` is a
/// pure function of the tree (identical on every shard) and is taken
/// from the first, not summed.
pub fn combine_costs(costs: &[RetrievalCost]) -> RetrievalCost {
    RetrievalCost {
        postings_scanned: costs.iter().map(|c| c.postings_scanned).sum(),
        leaf_lookups: costs.first().map_or(0, |c| c.leaf_lookups),
        merge_ops: costs.iter().map(|c| c.merge_ops).sum(),
    }
}

/// An immutable shard set built from one catalog epoch under one routing
/// plan. Rebuilt (lazily, at pin time) whenever either changes.
#[derive(Debug)]
pub struct ShardedIndex {
    epoch: u64,
    plan_version: u64,
    plan: RoutingPlan,
    shards: Vec<Shard>,
}

impl ShardedIndex {
    /// Partitions `index` (one epoch's monolithic view) by `plan`. Each
    /// shard is the [`subset`](InvertedIndex::subset) of its member
    /// documents in global-id order: spans copied as term ids under the
    /// shared dictionary, tombstones carried over — the same index a
    /// replay of the members' tokens and then their tombstones would
    /// build, without reading a token string.
    pub fn build(epoch: u64, index: &InvertedIndex, plan: RoutingPlan, plan_version: u64) -> Self {
        let n = plan.shard_count();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
        for gid in 0..index.len() {
            members[plan.route(gid)].push(gid);
        }
        let shards = members
            .into_iter()
            .map(|globals| Shard { index: index.subset(&globals), globals })
            .collect();
        ShardedIndex { epoch, plan_version, plan, shards }
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn plan_version(&self) -> u64 {
        self.plan_version
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn shard(&self, i: usize) -> &Shard {
        &self.shards[i]
    }

    /// The shard a global doc id routes to under this index's plan.
    pub fn route(&self, doc: usize) -> usize {
        self.plan.route(doc)
    }
}

/// Per-shard telemetry counters, updated only at gather time (one writer
/// per request) under the single state lock.
#[derive(Debug)]
struct ShardCounters {
    requests: u64,
    failures: u64,
    hedges: u64,
    excluded: u64,
    latency_us: Histogram,
}

impl ShardCounters {
    fn new() -> Self {
        ShardCounters {
            requests: 0,
            failures: 0,
            hedges: 0,
            excluded: 0,
            latency_us: Histogram::new(),
        }
    }
}

/// One request's per-shard outcome, folded into the telemetry block in a
/// single locked pass at gather time.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShardOutcome {
    pub shard: usize,
    /// Traversals dispatched (0 when the breaker skipped the shard,
    /// 2 when a straggler was hedged).
    pub attempts: u64,
    /// Dispatched traversals that failed (panic, deadline, stall).
    pub failures: u64,
    pub hedged: bool,
    /// Whether the shard's documents made it into the response.
    pub included: bool,
    /// Deadline-slice elapsed time of the last attempt.
    pub latency: Duration,
}

/// Everything the state lock guards: the routing plan, the cached shard
/// set, and the telemetry counters. Holding them under **one** mutex is
/// the counter-drift fix — a health snapshot reads plan version, epoch
/// and every per-shard counter in one critical section, so a report read
/// mid-churn or mid-rebalance can never mix epochs or shard layouts.
#[derive(Debug)]
struct ShardedState {
    plan: RoutingPlan,
    plan_version: u64,
    /// Epoch of the cached shard set (0 until the first pin).
    epoch: u64,
    cached: Option<Arc<ShardedIndex>>,
    counters: Vec<ShardCounters>,
}

/// The engine-side shard tier: snapshot store + routing plan + per-shard
/// breakers + telemetry.
pub struct ShardedCatalog {
    store: Arc<SnapshotStore>,
    /// False when the store was built internally from a frozen index
    /// (no writer exists; churn stats stay zero in health reports).
    live: bool,
    breakers: BreakerSet,
    state: Mutex<ShardedState>,
}

impl ShardedCatalog {
    pub fn new(store: Arc<SnapshotStore>, shards: usize, breaker: BreakerConfig, live: bool) -> Self {
        let shards = shards.max(1);
        ShardedCatalog {
            store,
            live,
            breakers: BreakerSet::new(shards, breaker),
            state: Mutex::new(ShardedState {
                plan: RoutingPlan::fnv(shards),
                plan_version: 0,
                epoch: 0,
                cached: None,
                counters: (0..shards).map(|_| ShardCounters::new()).collect(),
            }),
        }
    }

    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }

    pub fn is_live(&self) -> bool {
        self.live
    }

    pub fn shard_count(&self) -> usize {
        self.breakers.len()
    }

    pub fn breakers(&self) -> &BreakerSet {
        &self.breakers
    }

    /// Replaces every per-shard breaker with a fresh, closed one tuned by
    /// `config`.
    pub(crate) fn reset_breakers(&mut self, config: BreakerConfig) {
        self.breakers = BreakerSet::new(self.breakers.len(), config);
    }

    pub fn plan_version(&self) -> u64 {
        self.state.lock().plan_version
    }

    /// The shard set for one pinned epoch: returns the cached set when
    /// it matches the pin's epoch and the current plan version, else
    /// rebuilds from the pinned index. The rebuild happens under the
    /// state lock, so concurrent pins of the same epoch share one build.
    pub fn pin_shards(&self, pin: &PinnedSnapshot) -> Arc<ShardedIndex> {
        let mut st = self.state.lock();
        if let Some(cached) = &st.cached {
            if cached.epoch() == pin.epoch() && cached.plan_version() == st.plan_version {
                return Arc::clone(cached);
            }
        }
        let built = Arc::new(ShardedIndex::build(
            pin.epoch(),
            pin.index(),
            st.plan.clone(),
            st.plan_version,
        ));
        st.epoch = pin.epoch();
        st.cached = Some(Arc::clone(&built));
        built
    }

    /// Applies a rebalance plan move by move (`faults` is hit at
    /// [`Site::RebalanceStep`] before each move), then atomically installs
    /// the new plan and invalidates the cached shard set. On a kill (any
    /// fault there), nothing is installed — the old plan keeps serving,
    /// byte-identically. Returns the new plan version.
    pub fn rebalance(
        &self,
        plan: &RebalancePlan,
        faults: Option<&Faults>,
    ) -> Result<u64, RebalanceError> {
        let mut st = self.state.lock();
        let mut scratch = st.plan.clone();
        for &(doc, target) in &plan.moves {
            if faults.and_then(|f| f.hit(Site::RebalanceStep)).is_some() {
                return Err(RebalanceError::Killed);
            }
            if target >= scratch.shard_count() {
                return Err(RebalanceError::BadTarget {
                    doc,
                    target,
                    shards: scratch.shard_count(),
                });
            }
            scratch.set_override(doc, target);
        }
        st.plan = scratch;
        st.plan_version += 1;
        st.cached = None;
        Ok(st.plan_version)
    }

    /// Folds one request's per-shard outcomes into the telemetry block
    /// in a single locked pass.
    pub(crate) fn record_outcomes(&self, outcomes: &[ShardOutcome]) {
        let mut st = self.state.lock();
        for o in outcomes {
            let c = &mut st.counters[o.shard];
            c.requests += o.attempts;
            c.failures += o.failures;
            if o.hedged {
                c.hedges += 1;
            }
            if !o.included {
                c.excluded += 1;
            }
            if o.attempts > 0 {
                c.latency_us.record(o.latency.as_micros() as u64);
            }
        }
    }

    /// The shard-tier health block. Counters, epoch and plan version are
    /// read in one critical section (the torn-read discipline); breaker
    /// gauges are sampled per shard right after.
    pub fn tier_report(&self) -> ShardTierReport {
        let (epoch, plan_version, mut shards) = {
            let st = self.state.lock();
            let shards: Vec<ShardStatReport> = st
                .counters
                .iter()
                .enumerate()
                .map(|(i, c)| ShardStatReport {
                    shard: i,
                    requests: c.requests,
                    failures: c.failures,
                    hedges: c.hedges,
                    excluded: c.excluded,
                    breaker_trips: 0,
                    breaker_state: crate::breaker::BreakerState::Closed,
                    latency_p50_us: c.latency_us.quantile(0.50),
                    latency_p95_us: c.latency_us.quantile(0.95),
                    latency_p99_us: c.latency_us.quantile(0.99),
                    latency_count: c.latency_us.count(),
                })
                .collect();
            (st.epoch, st.plan_version, shards)
        };
        for s in &mut shards {
            s.breaker_trips = self.breakers.times_opened(s.shard);
            s.breaker_state = self.breakers.state(s.shard);
        }
        ShardTierReport { epoch, plan_version, shards }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{replay, MutationBatch, Segment};
    use qrw_core::fault::Fault;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn corpus() -> Vec<Vec<String>> {
        vec![
            toks("red mens sneaker"),
            toks("red man sneaker"),
            toks("red men anklet"),
            toks("red man anklet"),
            toks("blue mens sneaker"),
            toks("red dress"),
            toks("blue dress sale"),
            toks("red sneaker sale"),
        ]
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        for n in [1usize, 2, 4, 8, 16] {
            let plan = RoutingPlan::fnv(n);
            for doc in 0..256 {
                let s = plan.route(doc);
                assert!(s < n);
                assert_eq!(s, plan.route(doc), "routing must be stable");
            }
        }
        // Shard count clamps to at least one.
        assert_eq!(RoutingPlan::fnv(0).shard_count(), 1);
    }

    #[test]
    fn overrides_rebalance_and_clear_at_fnv_home() {
        let mut plan = RoutingPlan::fnv(4);
        let home = plan.route(7);
        let target = (home + 1) % 4;
        plan.set_override(7, target);
        assert_eq!(plan.route(7), target);
        assert_eq!(plan.override_count(), 1);
        // Moving back home clears the override entirely.
        plan.set_override(7, home);
        assert_eq!(plan.route(7), home);
        assert_eq!(plan.override_count(), 0);
    }

    #[test]
    fn build_partitions_docs_and_tombstones() {
        let mut idx = InvertedIndex::build(corpus());
        idx.remove_doc(1);
        idx.remove_doc(6);
        for n in [1usize, 2, 4, 8] {
            let sharded = ShardedIndex::build(3, &idx, RoutingPlan::fnv(n), 0);
            assert_eq!(sharded.epoch(), 3);
            assert_eq!(sharded.shard_count(), n);
            let mut seen = vec![false; idx.len()];
            let mut alive_total = 0u64;
            let mut token_total = 0u64;
            for i in 0..n {
                let shard = sharded.shard(i);
                assert!(
                    shard.globals().windows(2).all(|w| w[0] < w[1]),
                    "globals must ascend"
                );
                for (local, &g) in shard.globals().iter().enumerate() {
                    assert!(!seen[g], "doc {g} in two shards");
                    seen[g] = true;
                    assert_eq!(sharded.route(g), i);
                    assert_eq!(shard.to_local(g), Some(local));
                    assert!(shard.index().doc_tokens(local).eq(idx.doc_tokens(g)));
                    assert_eq!(shard.index().is_alive(local), idx.is_alive(g));
                }
                // The term-id subset is the index a replay of the members'
                // tokens, then their tombstones, builds.
                let base =
                    Segment::base_of(shard.globals().iter().map(|&g| idx.doc_tokens(g)));
                let mut removes = MutationBatch::new();
                for (local, &g) in shard.globals().iter().enumerate() {
                    if !idx.is_alive(g) {
                        removes = removes.remove_doc(local);
                    }
                }
                let replayed = replay(&[base, Segment::seal(removes)]);
                assert_eq!(shard.index().fingerprint(), replayed.fingerprint());
                alive_total += shard.index().live_len() as u64;
                token_total += shard.index().live_tokens() as u64;
            }
            assert!(seen.into_iter().all(|s| s), "every doc must land in a shard");
            assert_eq!(alive_total, idx.live_len() as u64);
            assert_eq!(token_total, idx.live_tokens() as u64);
        }
    }

    #[test]
    fn traverse_partitions_results_and_costs() {
        let mut idx = InvertedIndex::build(corpus());
        idx.remove_doc(4);
        let trees = vec![
            QueryTree::and_of_tokens(&toks("red sneaker")),
            QueryTree::merge_factored(&[toks("red sneaker"), toks("blue dress")]),
            QueryTree::and_of_tokens(&toks("zzz red")),
        ];
        let rank_tokens = toks("red sneaker dress zzz");
        for n in [1usize, 2, 4, 8] {
            let sharded = ShardedIndex::build(0, &idx, RoutingPlan::fnv(n), 0);
            let traversals: Vec<ShardTraversal> = (0..n)
                .map(|i| sharded.shard(i).traverse(&trees, &rank_tokens))
                .collect();
            for (t, tree) in trees.iter().enumerate() {
                let (want_docs, want_cost) = tree.evaluate(&idx);
                let mut got: Vec<usize> =
                    traversals.iter().flat_map(|tr| tr.evals[t].0.iter().copied()).collect();
                got.sort_unstable();
                assert_eq!(got, want_docs, "tree {t} docs at {n} shards");
                let costs: Vec<RetrievalCost> =
                    traversals.iter().map(|tr| tr.evals[t].1).collect();
                assert_eq!(combine_costs(&costs), want_cost, "tree {t} cost at {n} shards");
            }
            for (k, tok) in rank_tokens.iter().enumerate() {
                let df: u64 = traversals.iter().map(|tr| tr.dfs[k]).sum();
                assert_eq!(df as usize, idx.doc_freq(tok), "df of {tok} at {n} shards");
            }
        }
    }

    #[test]
    fn rebalance_applies_atomically_and_kill_keeps_old_plan() {
        use crate::snapshot::{IndexSnapshot, SnapshotStore};
        let store = SnapshotStore::new(IndexSnapshot::new(0, InvertedIndex::build(corpus())));
        let cat = ShardedCatalog::new(store, 4, BreakerConfig::default(), false);
        assert_eq!(cat.plan_version(), 0);

        let v = cat.rebalance(&RebalancePlan::new(vec![(0, 1), (3, 2)]), None).unwrap();
        assert_eq!(v, 1);
        let pin = cat.store().pin();
        let sharded = cat.pin_shards(&pin);
        assert_eq!(sharded.route(0), 1);
        assert_eq!(sharded.route(3), 2);
        assert_eq!(sharded.plan_version(), 1);

        // A killed rebalance leaves plan and version untouched.
        let kill = Faults::default().always(Site::RebalanceStep, Fault::Kill);
        let err = cat.rebalance(&RebalancePlan::new(vec![(0, 3)]), Some(&kill)).unwrap_err();
        assert_eq!(err, RebalanceError::Killed);
        assert_eq!(cat.plan_version(), 1);
        let again = cat.pin_shards(&cat.store().pin());
        assert_eq!(again.route(0), 1, "old plan keeps serving after a kill");

        // Bad targets are rejected without installing anything.
        let err = cat.rebalance(&RebalancePlan::new(vec![(2, 9)]), None).unwrap_err();
        assert!(matches!(err, RebalanceError::BadTarget { target: 9, .. }));
        assert_eq!(cat.plan_version(), 1);
    }

    #[test]
    fn pin_shards_caches_per_epoch_and_plan() {
        use crate::snapshot::{IndexSnapshot, SnapshotStore};
        let store = SnapshotStore::new(IndexSnapshot::new(0, InvertedIndex::build(corpus())));
        let cat = ShardedCatalog::new(Arc::clone(&store), 2, BreakerConfig::default(), true);
        let pin = store.pin();
        let a = cat.pin_shards(&pin);
        let b = cat.pin_shards(&pin);
        assert!(Arc::ptr_eq(&a, &b), "same epoch + plan must share one build");
        cat.rebalance(&RebalancePlan::new(vec![(0, 1)]), None).unwrap();
        let c = cat.pin_shards(&pin);
        assert!(!Arc::ptr_eq(&a, &c), "plan bump must rebuild");
        assert_eq!(c.plan_version(), 1);
    }

    /// Pins the routing hash: it decides which shard owns each document.
    #[test]
    fn route_hash_golden_values() {
        assert_eq!(route_hash(0), 0xA8C7_F832_281A_39C5);
        assert_eq!(route_hash(1), 0x89CD_3129_1D2A_EFA4);
        assert_eq!(route_hash(12345), 0xE71E_B185_E2ED_CC4C);
        assert_eq!(route_hash(u64::MAX), 0x8CF5_1A8B_FCA3_883D);
    }
}
