//! Shard fault-isolation suite: the scatter-gather tier under injected
//! per-shard faults.
//!
//! The acceptance bar: under 100% single-shard fault injection every
//! query still serves *ranked* partial results with `shards_ok = N-1`,
//! and the response equals the monolith over a catalog with the failed
//! shard's documents tombstoned (the partial-results contract) — never
//! an error, never a panic. Around that: panic containment + next-request
//! recovery, straggler hedging (recovery and exhaustion), per-shard
//! breaker trip / fast-exclusion / half-open recovery on the exact
//! deterministic schedule, kill-during-rebalance atomicity, and
//! torn-free `health_report()` shard telemetry under concurrent load.

use std::sync::Arc;
use std::time::Duration;

use qrw_search::{
    BreakerConfig, BreakerState, CatalogWriter, DeadlineBudget, InvertedIndex, RebalancePlan,
    RewriteCache, RewriteLadder, RoutingPlan, SearchEngine, SearchResponse, ServeError,
    ServingConfig, ShardFaultInjector,
};

// ---------------------------------------------------------------- fixtures

const WORDS: [&str; 8] = ["red", "shoes", "men", "dress", "phone", "case", "sale", "new"];

fn word(i: usize) -> String {
    WORDS[i % WORDS.len()].to_string()
}

fn corpus(n: usize) -> Vec<Vec<String>> {
    (0..n).map(|i| vec![word(i), word(i + 1), word(i * 2 + 3)]).collect()
}

fn prefilled_cache(queries: &[Vec<String>]) -> RewriteCache {
    let cache = RewriteCache::new();
    for q in queries {
        cache.insert(q, vec![vec![word(3), word(5)]]);
    }
    cache
}

fn query_set() -> Vec<Vec<String>> {
    let mut qs: Vec<Vec<String>> = (0..WORDS.len()).map(|i| vec![word(i), word(i + 2)]).collect();
    qs.push(vec![word(1)]);
    qs.push(vec![word(4), word(5), word(6)]);
    qs
}

fn serve_resp(
    engine: &SearchEngine,
    cache: &RewriteCache,
    query: &[String],
    budget: &DeadlineBudget,
) -> SearchResponse {
    let ladder = RewriteLadder { cache: Some(cache), ..RewriteLadder::default() };
    engine.search_resilient(query, ladder, &ServingConfig::default(), budget, None)
}

fn serve(engine: &SearchEngine, cache: &RewriteCache, query: &[String]) -> String {
    format!("{:?}", serve_resp(engine, cache, query, &DeadlineBudget::unlimited()))
}

/// A breaker that never opens: 100%-fault tests must keep traversing the
/// sick shard on every request rather than fast-excluding it.
fn never_open() -> BreakerConfig {
    BreakerConfig { failure_threshold: u32::MAX, ..BreakerConfig::default() }
}

/// The partial-results oracle: the monolith over the same catalog with
/// `victim`'s documents tombstoned. Everything but the retrieval cost
/// must match (survivors spent real work discovering the sick shard, so
/// cost is exempt from the contract).
fn tombstoned(idx: &InvertedIndex, shards: usize, victim: usize) -> InvertedIndex {
    let plan = RoutingPlan::fnv(shards);
    let mut oracle = idx.clone();
    for doc in 0..idx.len() {
        if plan.route(doc) == victim {
            oracle.remove_doc(doc);
        }
    }
    oracle
}

fn assert_matches_oracle(got: &SearchResponse, want: &SearchResponse, label: &str) {
    assert_eq!(got.ranked, want.ranked, "{label}: ranked");
    assert_eq!(got.candidates, want.candidates, "{label}: candidates");
    assert_eq!(got.base_candidates, want.base_candidates, "{label}: base_candidates");
    assert_eq!(got.extra_candidates, want.extra_candidates, "{label}: extra_candidates");
    assert_eq!(got.rewrites_used, want.rewrites_used, "{label}: rewrites_used");
    assert_eq!(got.epoch, want.epoch, "{label}: epoch");
}

fn has_partial(resp: &SearchResponse, ok: usize, total: usize) -> bool {
    resp.degradations.iter().any(
        |e| matches!(e, ServeError::PartialResults { shards_ok, shards_total } if *shards_ok == ok && *shards_total == total),
    )
}

// --------------------------------------------- 100% single-shard faults

/// The headline acceptance test: with one shard poisoned (panics on
/// every traversal, forever), every query on every victim shard serves
/// ranked partial results with `shards_ok = N-1` — equal to the
/// tombstoned-monolith oracle — and never errors.
#[test]
fn poisoned_shard_serves_ranked_partial_results_for_every_query() {
    let shards = 4;
    let idx = InvertedIndex::build(corpus(24));
    let queries = query_set();
    let cache = prefilled_cache(&queries);

    for victim in 0..shards {
        let engine = SearchEngine::sharded_with_breaker(idx.clone(), shards, never_open());
        engine.set_shard_faults(Some(ShardFaultInjector::poison_shard(victim)));
        let oracle = SearchEngine::new(tombstoned(&idx, shards, victim));

        let mut any_ranked = false;
        for round in 0..3 {
            for q in &queries {
                let got = serve_resp(&engine, &cache, q, &DeadlineBudget::unlimited());
                let want = serve_resp(&oracle, &cache, q, &DeadlineBudget::unlimited());
                let label = format!("victim {victim} round {round} query {q:?}");
                assert_eq!(got.shards_ok, shards - 1, "{label}: shards_ok");
                assert_eq!(got.shards_total, shards, "{label}: shards_total");
                assert!(has_partial(&got, shards - 1, shards), "{label}: degradation stamped");
                // A query whose every candidate lived on the victim may
                // legitimately come back empty — the oracle comparison
                // below pins that; ranked coverage is asserted per victim.
                any_ranked |= !got.ranked.is_empty();
                assert_matches_oracle(&got, &want, &label);
                let rendered = format!("{got:?}");
                assert!(
                    rendered.contains(&format!("shards_ok: {}", shards - 1)),
                    "{label}: rendering carries shard accounting: {rendered}"
                );
            }
        }
        assert!(any_ranked, "victim {victim}: the surviving shards rank real results");
        let tier = engine.health_report().shard_tier.expect("sharded tier report");
        assert_eq!(tier.shards.len(), shards);
        assert_eq!(tier.shards[victim].failures, 3 * queries.len() as u64);
        assert_eq!(tier.shards[victim].excluded, 3 * queries.len() as u64);
    }
}

/// Even with *every* shard down (a 1-shard tier, poisoned), the request
/// completes: an empty response stamped `0/1`, deliberately not a
/// monolith fallback — serving one would mask a dead tier as healthy.
#[test]
fn fully_failed_tier_serves_an_empty_stamped_response() {
    let engine = SearchEngine::sharded_with_breaker(
        InvertedIndex::build(corpus(12)),
        1,
        never_open(),
    );
    engine.set_shard_faults(Some(ShardFaultInjector::poison_shard(0)));
    let cache = prefilled_cache(&[vec![word(0), word(2)]]);

    let resp = serve_resp(&engine, &cache, &[word(0), word(2)], &DeadlineBudget::unlimited());
    assert!(resp.ranked.is_empty());
    assert!(resp.candidates.is_empty());
    assert_eq!((resp.shards_ok, resp.shards_total), (0, 1));
    assert!(has_partial(&resp, 0, 1));
}

// ------------------------------------------------ transient panic faults

/// A shard that panics once degrades exactly one request; the next
/// request is full-quality and byte-identical to the monolith.
#[test]
fn shard_panic_degrades_one_request_then_recovers() {
    let idx = InvertedIndex::build(corpus(18));
    let queries = query_set();
    let cache = prefilled_cache(&queries);
    let engine = SearchEngine::sharded(idx.clone(), 4);
    let mono = SearchEngine::new(idx);

    engine.set_shard_faults(Some(ShardFaultInjector::panic_on_shard(2)));
    let first = serve_resp(&engine, &cache, &queries[0], &DeadlineBudget::unlimited());
    assert_eq!((first.shards_ok, first.shards_total), (3, 4));
    assert!(has_partial(&first, 3, 4));

    for q in &queries {
        assert_eq!(serve(&engine, &cache, q), serve(&mono, &cache, q), "recovered: {q:?}");
    }
    let tier = engine.health_report().shard_tier.expect("tier report");
    assert_eq!(tier.shards[2].failures, 1);
    assert_eq!(tier.shards[2].breaker_state, BreakerState::Closed, "one failure stays closed");
}

// ------------------------------------------------------ straggler hedging

/// A shard that stalls past its slice once is hedged: the retry lands
/// inside the reserved headroom, the response is full-quality and
/// byte-identical to the monolith, and the hedge is counted.
#[test]
fn stalled_shard_is_hedged_to_a_full_response() {
    let idx = InvertedIndex::build(corpus(18));
    let queries = query_set();
    let cache = prefilled_cache(&queries);
    let engine = SearchEngine::sharded(idx.clone(), 4);
    let mono = SearchEngine::new(idx);

    // First attempts get half of 100ms; a 60ms stall blows the 50ms
    // slice, the hedge retries with the injector already exhausted.
    engine.set_shard_faults(Some(ShardFaultInjector::stall_on_shard(
        1,
        Duration::from_millis(60),
        1,
    )));
    let budget = DeadlineBudget::synthetic(Duration::from_millis(100));
    let got = serve_resp(&engine, &cache, &queries[0], &budget);
    let want = serve_resp(&mono, &cache, &queries[0], &DeadlineBudget::unlimited());
    assert_eq!((got.shards_ok, got.shards_total), (4, 4), "hedge recovered the shard");
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "full byte identity after hedging");

    let tier = engine.health_report().shard_tier.expect("tier report");
    assert_eq!(tier.shards[1].hedges, 1);
    assert_eq!(tier.shards[1].excluded, 0);
    assert_eq!(tier.shards[1].requests, 2, "original attempt + hedge");
}

/// When the stall outlives the hedge too, the shard is excluded and the
/// request degrades to ranked partial results — the capped hedge
/// allowance guarantees the survivors still have budget to rank.
#[test]
fn hedge_exhaustion_degrades_to_ranked_partial_results() {
    let shards = 4;
    let victim = 1;
    let idx = InvertedIndex::build(corpus(24));
    let queries = query_set();
    let cache = prefilled_cache(&queries);
    let engine = SearchEngine::sharded_with_breaker(idx.clone(), shards, never_open());
    let oracle = SearchEngine::new(tombstoned(&idx, shards, victim));

    engine.set_shard_faults(Some(ShardFaultInjector::stall_on_shard(
        victim,
        Duration::from_millis(60),
        2,
    )));
    // Pick a query whose results survive the victim's loss, so "still
    // ranked" is meaningful rather than a fixture coincidence.
    let query = queries
        .iter()
        .find(|q| {
            !serve_resp(&oracle, &cache, q, &DeadlineBudget::unlimited()).ranked.is_empty()
        })
        .expect("some query has survivors off the victim shard")
        .clone();
    let budget = DeadlineBudget::synthetic(Duration::from_millis(100));
    let got = serve_resp(&engine, &cache, &query, &budget);
    let want = serve_resp(&oracle, &cache, &query, &DeadlineBudget::unlimited());
    assert_eq!((got.shards_ok, got.shards_total), (shards - 1, shards));
    assert!(has_partial(&got, shards - 1, shards));
    assert!(!got.ranked.is_empty(), "survivors still rank within the remaining budget");
    assert_matches_oracle(&got, &want, "hedge exhaustion");

    let tier = engine.health_report().shard_tier.expect("tier report");
    assert_eq!(tier.shards[victim].hedges, 1);
    assert_eq!(tier.shards[victim].excluded, 1);
}

// ----------------------------------------------------- breaker isolation

/// The per-shard breaker follows its exact deterministic schedule: trip
/// after `failure_threshold` poisoned requests, fast-exclude (no
/// traversal) through the cooldown, half-open trial, reopen while the
/// fault persists, then a clean half-open recovery once it clears.
#[test]
fn breaker_trips_fast_excludes_and_recovers_half_open() {
    // threshold 3, cooldown 5, half-open successes 2 (the defaults).
    let cfg = BreakerConfig::default();
    let idx = InvertedIndex::build(corpus(18));
    let queries = query_set();
    let cache = prefilled_cache(&queries);
    let engine = SearchEngine::sharded_with_breaker(idx.clone(), 4, cfg);
    let mono = SearchEngine::new(idx);
    let injector = ShardFaultInjector::poison_shard(3);
    engine.set_shard_faults(Some(injector.clone()));

    let one = |i: usize| {
        serve_resp(&engine, &cache, &queries[i % queries.len()], &DeadlineBudget::unlimited())
    };

    // Requests 1-3: traversals fire, failures accumulate, breaker trips.
    for r in 0..3 {
        let resp = one(r);
        assert_eq!(resp.shards_ok, 3, "request {}", r + 1);
    }
    assert_eq!(injector.fired(), 3);
    let breakers = engine.shard_breakers().expect("sharded engine");
    assert_eq!(breakers.state(3), BreakerState::Open);
    assert_eq!(breakers.times_opened(3), 1);

    // Requests 4-7: fast-excluded during cooldown — the injector never
    // fires, yet every response is still ranked partial results.
    for r in 3..7 {
        let resp = one(r);
        assert_eq!(resp.shards_ok, 3, "request {}", r + 1);
        assert!(has_partial(&resp, 3, 4));
    }
    assert_eq!(injector.fired(), 3, "open breaker spares the sick shard");

    // Request 8: half-open trial hits the still-poisoned shard, reopens.
    one(7);
    assert_eq!(injector.fired(), 4);
    assert_eq!(breakers.state(3), BreakerState::Open);
    assert_eq!(breakers.times_opened(3), 2);

    // Fault clears; cooldown (requests 9-12 excluded), then trial
    // requests 13-14 succeed and close the breaker.
    engine.set_shard_faults(None);
    for r in 8..12 {
        assert_eq!(one(r).shards_ok, 3, "request {}", r + 1);
    }
    for r in 12..14 {
        assert_eq!(one(r).shards_ok, 4, "request {}", r + 1);
    }
    assert_eq!(breakers.state(3), BreakerState::Closed);

    // Fully healed: byte-identical to the monolith again.
    for q in &queries {
        assert_eq!(serve(&engine, &cache, q), serve(&mono, &cache, q), "healed: {q:?}");
    }
    let tier = engine.health_report().shard_tier.expect("tier report");
    assert_eq!(tier.shards[3].breaker_trips, 2);
    // 3 poisoned + 4 cooldown + 1 failed trial + 4 cooldown = 12 requests
    // answered without shard 3.
    assert_eq!(tier.shards[3].excluded, 12);
}

// ------------------------------------------------ rebalance kill-points

/// A rebalance killed mid-apply changes nothing: the old plan keeps
/// serving byte-identically and the plan version does not move.
#[test]
fn killed_rebalance_is_atomic() {
    let idx = InvertedIndex::build(corpus(20));
    let queries = query_set();
    let cache = prefilled_cache(&queries);
    let engine = SearchEngine::sharded(idx.clone(), 4);
    let mono = SearchEngine::new(idx);

    let before: Vec<String> = queries.iter().map(|q| serve(&engine, &cache, q)).collect();
    let v0 = engine.health_report().shard_tier.expect("tier").plan_version;

    let injector = ShardFaultInjector::kill_rebalance();
    engine.set_shard_faults(Some(injector.clone()));
    let err = engine.rebalance(&RebalancePlan::new(vec![(0, 2), (5, 1)]));
    assert!(err.is_err(), "killed rebalance must surface as an error");
    assert_eq!(injector.rebalance_kills(), 1);
    assert_eq!(engine.health_report().shard_tier.expect("tier").plan_version, v0);

    for (q, want) in queries.iter().zip(&before) {
        assert_eq!(&serve(&engine, &cache, q), want, "old plan still serves: {q:?}");
    }

    // Clearing the fault lets the same plan apply — still byte-identical
    // to the monolith (routing independence).
    engine.set_shard_faults(None);
    engine.rebalance(&RebalancePlan::new(vec![(0, 2), (5, 1)])).expect("clean rebalance");
    for q in &queries {
        assert_eq!(serve(&engine, &cache, q), serve(&mono, &cache, q), "rebalanced: {q:?}");
    }
}

// ----------------------------------------------- telemetry consistency

/// `health_report()` hammered from reader threads during serving, churn
/// and rebalancing never shows a torn shard tier: stable shard count,
/// monotone plan versions and per-shard counters within each reader.
#[test]
fn shard_tier_report_is_never_torn_under_concurrent_load() {
    let docs = corpus(16);
    let queries = query_set();
    let cache = Arc::new(prefilled_cache(&queries));
    let (store, mut writer) = CatalogWriter::bootstrap(docs.clone());
    let engine = Arc::new(SearchEngine::sharded_live(Arc::clone(&store), 4));

    const READERS: usize = 3;
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    // Every reader is sampling before the load starts, so none can miss
    // it however the threads are scheduled.
    let started = Arc::new(std::sync::Barrier::new(READERS + 1));
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..READERS {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            readers.push(scope.spawn(move || {
                let mut reports = Vec::new();
                let mut first = true;
                while first || !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let report = engine.health_report();
                    reports.push(report.shard_tier.expect("sharded tier present"));
                    if std::mem::take(&mut first) {
                        started.wait();
                    }
                    std::thread::yield_now();
                }
                reports
            }));
        }

        started.wait();
        for step in 0..20u64 {
            for q in &queries {
                serve_resp(&engine, &cache, q, &DeadlineBudget::unlimited());
            }
            let mut batch = qrw_search::MutationBatch::new();
            batch = batch.add_doc(vec![word(step as usize), word(step as usize + 3)]);
            writer.apply(batch).expect("in-memory publish cannot fail");
            if step % 5 == 4 {
                engine
                    .rebalance(&RebalancePlan::new(vec![(step as usize % docs.len(), 1)]))
                    .expect("valid rebalance");
            }
        }
        stop.store(true, std::sync::atomic::Ordering::SeqCst);

        for handle in readers {
            let reports = handle.join().expect("reader thread");
            assert!(!reports.is_empty());
            for pair in reports.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                assert_eq!(a.shards.len(), 4);
                assert_eq!(b.shards.len(), 4);
                assert!(b.plan_version >= a.plan_version, "plan versions monotone");
                for s in 0..4 {
                    assert!(b.shards[s].requests >= a.shards[s].requests, "requests monotone");
                    assert!(b.shards[s].failures >= a.shards[s].failures, "failures monotone");
                    assert!(
                        b.shards[s].latency_count >= a.shards[s].latency_count,
                        "latency samples monotone"
                    );
                }
            }
            for report in &reports {
                for s in &report.shards {
                    assert!(s.failures <= s.requests, "counters from one snapshot");
                    assert!(s.latency_count <= s.requests, "latency from one snapshot");
                }
            }
        }
    });
}
