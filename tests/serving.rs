//! Integration tests of the serving stack: KV cache + fallback + merged
//! syntax trees over the real synthetic catalog index.

use cycle_rewrite::prelude::*;
use cycle_rewrite::search::SearchResponse;

fn toks(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

fn engine_and_log() -> (SearchEngine, ClickLog) {
    let log = ClickLog::generate(&LogConfig::default());
    let engine = SearchEngine::new(InvertedIndex::build(
        log.catalog.items.iter().map(|i| i.title_tokens.clone()),
    ));
    (engine, log)
}

/// One request down the guarded serving path, with no deadline.
fn serve(
    engine: &SearchEngine,
    query: &[String],
    ladder: RewriteLadder<'_>,
    cfg: &ServingConfig,
) -> SearchResponse {
    engine.search_resilient(query, ladder, cfg, &DeadlineBudget::unlimited(), None)
}

fn online(rw: &dyn QueryRewriter) -> RewriteLadder<'_> {
    RewriteLadder { online: Some(rw), ..Default::default() }
}

#[test]
fn hard_audience_queries_fail_baseline_and_rewrites_recover_some() {
    let (engine, log) = engine_and_log();
    let rule = RuleBasedRewriter::new(SynonymDict::from_catalog(&log.catalog));
    let cfg = ServingConfig::default();
    let mut recovered = 0usize;
    let mut total = 0usize;
    for q in log.queries.iter().filter(|q| q.kind == QueryKind::HardAudience) {
        total += 1;
        // The audience phrase ("for grandpa") never appears in titles, so
        // the AND tree over the raw query must retrieve nothing.
        let baseline = serve(&engine, &q.tokens, RewriteLadder::default(), &cfg);
        assert!(
            baseline.ranked.is_empty(),
            "term mismatch should defeat the inverted index for {:?}: {baseline:?}",
            q.tokens
        );
        let with_rw = serve(&engine, &q.tokens, online(&rule), &cfg);
        if !with_rw.ranked.is_empty() {
            recovered += 1;
        }
    }
    assert!(total >= 10, "expected many hard audience queries, got {total}");
    // A single context-free substitution can only bridge one register gap,
    // so rule-based recovery is partial — but it must exist.
    assert!(
        recovered >= total / 10,
        "rule rewrites recovered only {recovered}/{total} hard queries"
    );
}

/// The toks helper stays exercised even when tests evolve.
#[test]
fn toks_splits_on_whitespace() {
    assert_eq!(toks("a  b"), vec!["a".to_string(), "b".to_string()]);
}

#[test]
fn cache_precomputation_covers_head_traffic() {
    let (engine, log) = engine_and_log();
    let rule = RuleBasedRewriter::new(SynonymDict::from_catalog(&log.catalog));
    let cache = RewriteCache::new();
    // Precompute the head 50% of queries.
    let mut head: Vec<&qrw_data::GeneratedQuery> = log.queries.iter().collect();
    head.sort_by_key(|q| std::cmp::Reverse(q.frequency));
    for q in &head[..head.len() / 2] {
        cache.insert(&q.tokens, rule.rewrite(&q.tokens, 3));
    }
    let cfg = ServingConfig::default();
    // Frequency-weighted traffic: head dominance makes the hit rate far
    // exceed 50%.
    let mut weighted_hits = 0u64;
    let mut weighted_total = 0u64;
    let ladder = RewriteLadder { cache: Some(&cache), ..online(&rule) };
    for q in &log.queries {
        // A hit is a lookup the cache answered. The guarded path validates
        // the entry and falls through when the rules had no rewrite for
        // the query, so the response's `rewrite_source` does not say it.
        let hits = cache.hits();
        serve(&engine, &q.tokens, ladder, &cfg);
        let hit = cache.hits() > hits;
        weighted_total += u64::from(q.frequency);
        if hit {
            weighted_hits += u64::from(q.frequency);
        }
    }
    let rate = weighted_hits as f64 / weighted_total as f64;
    assert!(rate > 0.8, "head cache should cover >80% of traffic, got {rate:.2}");
}

#[test]
fn merged_and_separate_serving_agree_on_retrieved_sets() {
    let (engine, log) = engine_and_log();
    let rule = RuleBasedRewriter::new(SynonymDict::from_catalog(&log.catalog));
    for q in log.queries.iter().take(25) {
        let merged = serve(
            &engine,
            &q.tokens,
            online(&rule),
            &ServingConfig { merged_tree: true, top_k: 50, ..Default::default() },
        );
        let separate = serve(
            &engine,
            &q.tokens,
            online(&rule),
            &ServingConfig { merged_tree: false, top_k: 50, ..Default::default() },
        );
        let mut a = merged.ranked.clone();
        let mut b = separate.ranked.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "strategies disagree on query {:?}", q.tokens);
    }
}

#[test]
fn ab_with_rule_based_variant_improves_hard_query_outcomes() {
    let (_, log) = engine_and_log();
    let rule = RuleBasedRewriter::new(SynonymDict::from_catalog(&log.catalog));
    let out = run_ab(&log, &rule, &AbConfig { sessions: 2000, ..Default::default() });
    // Rule-based rewrites recover real matches for hard queries: clicks
    // and conversions must not degrade, reformulations must not rise.
    assert!(out.variant.clicks >= out.control.clicks, "{out}");
    assert!(out.variant.reformulations <= out.control.reformulations, "{out}");
    assert!(out.variant.gmv >= out.control.gmv * 0.99, "{out}");
}
