//! The online key-value rewrite cache of §III-G.
//!
//! The paper precomputes rewrites for the top 8M queries offline and
//! serves them from a KV store in under 5 ms, covering >80% of traffic;
//! long-tail queries fall through to the fast q2q model. This module is
//! that store: a concurrent map with hit/miss accounting so the serving
//! pipeline can report coverage.
//!
//! Two serving-runtime concerns shape the layout:
//!
//! * the map is **sharded** N-ways by key hash so concurrent workers
//!   don't serialize on a single `RwLock`;
//! * rewrites are stored as `Arc<Vec<Vec<String>>>` and handed out by
//!   refcount bump, so a cache hit never deep-clones the rewrite set.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use qrw_tensor::serialize::Fnv1a;
use qrw_tensor::sync::RwLock;

/// Default shard count: enough to make lock collisions rare at the worker
/// counts the runtime uses, small enough that `len()` stays cheap.
const DEFAULT_SHARDS: usize = 16;

/// One cached entry: the precomputed rewrites plus, optionally, the doc
/// ids of the result set those rewrites were precomputed against. The
/// hints let [`RewriteCache::apply_remap`] keep entries honest across
/// catalog compaction: when `compact()` renumbers docs, a hinted entry is
/// rewritten to the new ids, and an entry whose result set references a
/// deleted doc is dropped (its precomputation is stale).
struct CacheEntry {
    rewrites: Arc<Vec<Vec<String>>>,
    docs: Option<Vec<usize>>,
}

type Shard = RwLock<HashMap<String, CacheEntry>>;

/// Concurrent rewrite cache: query text → precomputed rewrites.
pub struct RewriteCache {
    shards: Box<[Shard]>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for RewriteCache {
    fn default() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }
}

/// FNV-1a over the key bytes; only used to pick a shard, so it needs to be
/// fast and stable, not cryptographic.
fn shard_hash(key: &str) -> u64 {
    Fnv1a::default().bytes(key.as_bytes()).finish()
}

/// The namespace a cache entry is valid in.
///
/// Entries used to be keyed by query text alone — a stale-rewrite hazard
/// once models hot-swap: after a swap the cache would keep serving the
/// *old* model's rewrites for every previously seen query, forever. The
/// scope namespaces keys by the model epoch that produced the rewrites
/// (and, for session-aware serving, by a hash of the in-session context
/// the rewrite was conditioned on), so a swap naturally invalidates every
/// entry of the superseded epoch: lookups under the new epoch miss and
/// repopulate.
///
/// The default scope (`model_epoch == 0`, no context) reproduces the
/// legacy key byte-for-byte, so frozen single-model serving — including
/// every pre-existing cache file and test — is unaffected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheScope {
    /// Model epoch the rewrites were produced by (0 = frozen model, no
    /// model store).
    pub model_epoch: u64,
    /// FNV-1a hash of the session context the rewrites were conditioned
    /// on (0 = no context).
    pub context_hash: u64,
}

impl CacheScope {
    /// Scope for a session request: the pinned model epoch plus a hash of
    /// the previous in-session queries (oldest first). An empty context
    /// hashes to 0, so context-free requests against epoch 0 collapse to
    /// the legacy scope.
    pub fn for_session(model_epoch: u64, context: &[Vec<String>]) -> Self {
        CacheScope { model_epoch, context_hash: hash_context(context) }
    }

    fn is_legacy(&self) -> bool {
        self.model_epoch == 0 && self.context_hash == 0
    }

    /// The full cache key for `query` under this scope. Legacy scope keys
    /// are exactly `query.join(" ")`; scoped keys prepend the epoch and
    /// context hash with `\u{1f}` (unit separator) delimiters, which never
    /// occur in tokenized query text.
    fn key(&self, query: &[String]) -> String {
        let joined = query.join(" ");
        if self.is_legacy() {
            joined
        } else {
            format!("@{}\u{1f}{:016x}\u{1f}{}", self.model_epoch, self.context_hash, joined)
        }
    }
}

/// FNV-1a over the context queries, folding a 0xff separator between
/// tokens and a 0xfe separator between queries so `["a b"]` and
/// `["a","b"]` hash differently. Empty context hashes to 0.
pub fn hash_context(context: &[Vec<String>]) -> u64 {
    if context.is_empty() {
        return 0;
    }
    Fnv1a::default().queries(context).finish()
}

impl RewriteCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache with an explicit shard count (clamped to at least 1).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        RewriteCache {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of independent lock shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: &str) -> &Shard {
        let idx = (shard_hash(key) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// Precomputes (stores) the rewrites for one query in the legacy
    /// (frozen-model) scope.
    pub fn insert(&self, query: &[String], rewrites: Vec<Vec<String>>) {
        self.insert_scoped(CacheScope::default(), query, rewrites);
    }

    /// [`insert`](Self::insert) under an explicit scope: the entry is
    /// only visible to lookups with the same model epoch and session
    /// context.
    pub fn insert_scoped(&self, scope: CacheScope, query: &[String], rewrites: Vec<Vec<String>>) {
        let key = scope.key(query);
        self.shard(&key)
            .write()
            .insert(key, CacheEntry { rewrites: Arc::new(rewrites), docs: None });
    }

    /// [`insert`](Self::insert) recording the doc ids of the result set
    /// the rewrites were precomputed against, so
    /// [`apply_remap`](Self::apply_remap) can maintain the entry across
    /// catalog compaction.
    pub fn insert_with_docs(
        &self,
        query: &[String],
        rewrites: Vec<Vec<String>>,
        docs: Vec<usize>,
    ) {
        let key = query.join(" ");
        self.shard(&key)
            .write()
            .insert(key, CacheEntry { rewrites: Arc::new(rewrites), docs: Some(docs) });
    }

    /// The doc-id hints stored for a query, if the entry exists and was
    /// inserted with hints.
    pub fn doc_hints(&self, query: &[String]) -> Option<Vec<usize>> {
        let key = query.join(" ");
        self.shard(&key).read().get(&key).and_then(|e| e.docs.clone())
    }

    /// Consumes a `compact()` remap table (old id → new id, `None` for
    /// removed docs): hinted entries whose docs all survived are
    /// rewritten to the new ids; hinted entries referencing any removed
    /// (or out-of-range) doc are dropped. Entries without hints are
    /// untouched — their rewrites are query text, not doc ids. Returns
    /// `(rebuilt, dropped)`.
    pub fn apply_remap(&self, remap: &[Option<usize>]) -> (usize, usize) {
        let mut rebuilt = 0;
        let mut dropped = 0;
        for shard in self.shards.iter() {
            let mut map = shard.write();
            map.retain(|_, entry| {
                let Some(docs) = entry.docs.as_mut() else { return true };
                let mapped: Option<Vec<usize>> =
                    docs.iter().map(|&d| remap.get(d).copied().flatten()).collect();
                match mapped {
                    Some(new_docs) => {
                        *docs = new_docs;
                        rebuilt += 1;
                        true
                    }
                    None => {
                        dropped += 1;
                        false
                    }
                }
            });
        }
        (rebuilt, dropped)
    }

    /// Looks up rewrites in the legacy scope, counting the hit or miss.
    /// Hits cost a refcount bump, not a deep clone of the rewrite set.
    pub fn get(&self, query: &[String]) -> Option<Arc<Vec<Vec<String>>>> {
        self.get_scoped(CacheScope::default(), query)
    }

    /// [`get`](Self::get) under an explicit scope.
    pub fn get_scoped(&self, scope: CacheScope, query: &[String]) -> Option<Arc<Vec<Vec<String>>>> {
        let found = self.peek_scoped(scope, query);
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// [`get_scoped`](Self::get_scoped) without touching the hit/miss
    /// counters.
    pub fn peek_scoped(&self, scope: CacheScope, query: &[String]) -> Option<Arc<Vec<Vec<String>>>> {
        let key = scope.key(query);
        self.shard(&key).read().get(&key).map(|e| Arc::clone(&e.rewrites))
    }

    /// Number of precomputed queries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry. An entry counts as a hit even when
    /// it is empty or poisoned and the serving ladder then rejects it.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of lookups that found an entry, usable or not: see
    /// [`hits`](Self::hits). Rewrites actually served from the cache are
    /// the responses whose source is the cache rung.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn insert_get_roundtrip() {
        let cache = RewriteCache::new();
        cache.insert(&toks("phone for grandpa"), vec![toks("senior smartphone")]);
        let got = cache.get(&toks("phone for grandpa")).unwrap();
        assert_eq!(*got, vec![toks("senior smartphone")]);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hit_rate_accounting() {
        let cache = RewriteCache::new();
        cache.insert(&toks("a"), vec![]);
        assert!(cache.get(&toks("a")).is_some());
        assert!(cache.get(&toks("b")).is_none());
        assert!(cache.get(&toks("a")).is_some());
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn poisoned_entry_is_visibly_invalid() {
        let cache = RewriteCache::new();
        let q = vec!["phone".to_string()];
        cache.insert(&q, vec![vec![String::new()]]);
        let entry = cache.get(&q).unwrap();
        assert!(entry.iter().any(|r| r.iter().any(|t| t.is_empty())));
    }

    #[test]
    fn peek_does_not_count() {
        let cache = RewriteCache::new();
        cache.insert(&toks("a"), vec![toks("b")]);
        assert!(cache.peek_scoped(CacheScope::default(), &toks("a")).is_some());
        assert!(cache.peek_scoped(CacheScope::default(), &toks("missing")).is_none());
        assert_eq!(cache.hits() + cache.misses(), 0);
    }

    #[test]
    fn hits_share_one_allocation() {
        let cache = RewriteCache::new();
        cache.insert(&toks("a"), vec![toks("x y")]);
        let first = cache.get(&toks("a")).unwrap();
        let second = cache.get(&toks("a")).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "hits must share the stored Arc");
    }

    #[test]
    fn empty_cache_hit_rate_is_zero() {
        let cache = RewriteCache::new();
        assert_eq!(cache.hit_rate(), 0.0);
        assert!(cache.is_empty());
    }

    #[test]
    fn single_shard_still_works() {
        let cache = RewriteCache::with_shards(1);
        assert_eq!(cache.shard_count(), 1);
        for i in 0..10 {
            cache.insert(&toks(&format!("q{i}")), vec![toks("r")]);
        }
        assert_eq!(cache.len(), 10);
        assert!(cache.get(&toks("q3")).is_some());
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache = RewriteCache::with_shards(8);
        for i in 0..200 {
            cache.insert(&toks(&format!("query number {i}")), vec![]);
        }
        assert_eq!(cache.len(), 200);
        // FNV-1a spreads these keys over several shards; all we require is
        // that no single shard holds everything.
        let max_shard = cache.shards.iter().map(|s| s.read().len()).max().unwrap();
        assert!(max_shard < 200, "all keys landed in one shard");
    }

    #[test]
    fn apply_remap_rewrites_and_drops_hinted_entries() {
        let cache = RewriteCache::new();
        // Unhinted entry: untouched by any remap.
        cache.insert(&toks("plain"), vec![toks("still here")]);
        // Hinted, all docs survive (1->0, 3->1).
        cache.insert_with_docs(&toks("survivor"), vec![toks("kept")], vec![1, 3]);
        // Hinted, references a removed doc.
        cache.insert_with_docs(&toks("stale"), vec![toks("gone")], vec![0, 1]);
        // Hinted, references an id beyond the remap table (never existed
        // in the compacted epoch): also stale.
        cache.insert_with_docs(&toks("oob"), vec![toks("gone too")], vec![99]);

        // compact() removed doc 0 and 2: [None, Some(0), None, Some(1)].
        let remap = vec![None, Some(0), None, Some(1)];
        let (rebuilt, dropped) = cache.apply_remap(&remap);
        assert_eq!((rebuilt, dropped), (1, 2));
        assert!(cache.peek_scoped(CacheScope::default(), &toks("plain")).is_some());
        assert_eq!(cache.doc_hints(&toks("survivor")), Some(vec![0, 1]));
        assert!(cache.peek_scoped(CacheScope::default(), &toks("stale")).is_none());
        assert!(cache.peek_scoped(CacheScope::default(), &toks("oob")).is_none());
        assert_eq!(cache.len(), 2);

        // Identity remap is a no-op rebuild.
        let (rebuilt, dropped) = cache.apply_remap(&[Some(0), Some(1)]);
        assert_eq!((rebuilt, dropped), (1, 0));
        assert_eq!(cache.doc_hints(&toks("survivor")), Some(vec![0, 1]));
    }

    #[test]
    fn doc_hints_absent_for_plain_entries() {
        let cache = RewriteCache::new();
        cache.insert(&toks("a"), vec![toks("b")]);
        assert_eq!(cache.doc_hints(&toks("a")), None);
        assert_eq!(cache.doc_hints(&toks("missing")), None);
    }

    #[test]
    fn model_swap_invalidates_scoped_entries() {
        // Regression: keyed by query alone, a hot-swap would serve the old
        // model's rewrites forever. Scoped by epoch, the swap misses.
        let cache = RewriteCache::new();
        let epoch1 = CacheScope::for_session(1, &[]);
        cache.insert_scoped(epoch1, &toks("red shoes"), vec![toks("crimson sneakers")]);
        assert!(cache.get_scoped(epoch1, &toks("red shoes")).is_some());

        // After the swap to epoch 2, the epoch-1 entry is invisible.
        let epoch2 = CacheScope::for_session(2, &[]);
        assert!(cache.get_scoped(epoch2, &toks("red shoes")).is_none());
        // And the legacy (frozen-model) scope never saw it either.
        assert!(cache.peek_scoped(CacheScope::default(), &toks("red shoes")).is_none());

        // The new epoch repopulates independently; the old entry is
        // untouched for requests still pinning epoch 1.
        cache.insert_scoped(epoch2, &toks("red shoes"), vec![toks("scarlet sneakers")]);
        assert_eq!(*cache.get_scoped(epoch1, &toks("red shoes")).unwrap(), vec![toks(
            "crimson sneakers"
        )]);
        assert_eq!(*cache.get_scoped(epoch2, &toks("red shoes")).unwrap(), vec![toks(
            "scarlet sneakers"
        )]);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn session_context_namespaces_entries() {
        let cache = RewriteCache::new();
        let ctx_a = vec![toks("running gear")];
        let ctx_b = vec![toks("dress shoes")];
        let scope_a = CacheScope::for_session(3, &ctx_a);
        let scope_b = CacheScope::for_session(3, &ctx_b);
        assert_ne!(scope_a, scope_b);
        cache.insert_scoped(scope_a, &toks("shoes"), vec![toks("trainers")]);
        assert!(cache.peek_scoped(scope_a, &toks("shoes")).is_some());
        assert!(cache.peek_scoped(scope_b, &toks("shoes")).is_none());
        // Token-boundary sensitivity: ["a b"] and ["a","b"] are distinct
        // contexts.
        assert_ne!(
            hash_context(&[toks("a b")]),
            hash_context(&[vec!["a b".to_string()]])
        );
        assert_eq!(hash_context(&[]), 0);
    }

    #[test]
    fn legacy_scope_is_the_unscoped_key() {
        // The default scope must reproduce the historical key exactly so
        // frozen-model serving stays byte-identical: an insert through the
        // legacy API is visible to a default-scope lookup and vice versa.
        let cache = RewriteCache::new();
        cache.insert(&toks("plain query"), vec![toks("rewrite")]);
        assert!(cache.peek_scoped(CacheScope::default(), &toks("plain query")).is_some());
        cache.insert_scoped(CacheScope::default(), &toks("other"), vec![toks("r2")]);
        assert!(cache.peek_scoped(CacheScope::default(), &toks("other")).is_some());
        assert!(CacheScope::for_session(0, &[]).is_legacy());
        assert!(!CacheScope::for_session(1, &[]).is_legacy());
    }

    #[test]
    fn concurrent_reads_and_writes() {
        use std::sync::Arc;
        let cache = Arc::new(RewriteCache::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let c = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let q = vec![format!("q{}", (t * 50 + i) % 20)];
                    c.insert(&q, vec![vec![format!("r{i}")]]);
                    let _ = c.get(&q);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.len(), 20);
        assert_eq!(cache.hits() + cache.misses(), 200);
    }

    /// Pins the stripe and scope hashes: they pick cache stripes and key
    /// scoped entries, so a changed bit would reshuffle the cache.
    #[test]
    fn hash_golden_values() {
        assert_eq!(shard_hash(""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(shard_hash("red shoes"), 0xBFEF_FCA5_28CD_CB6C);
        assert_eq!(
            shard_hash("@3\u{1f}00000000000000ab\u{1f}red shoes"),
            0x6ED8_D1E1_4C4E_7846
        );
        assert_eq!(hash_context(&[]), 0);
        assert_eq!(hash_context(&[toks("a b")]), 0x9EE3_532C_183C_E01C);
        assert_eq!(hash_context(&[toks("a"), toks("b c")]), 0xD09D_2AB7_C6B2_4662);
    }
}
