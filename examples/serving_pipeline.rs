//! The §III-G online serving architecture end to end:
//!
//! 1. Precompute rewrites for head queries offline (two-hop pipeline) into
//!    the KV cache — the paper's "top 8M queries, >80% of traffic" tier.
//! 2. Serve long-tail queries through the fast distilled q2q model
//!    (hybrid transformer-encoder + RNN-decoder).
//! 3. Retrieve with the §III-H merged syntax tree.
//! 4. Absorb a burst of concurrent requests through the serving runtime:
//!    bounded admission, micro-batched decode, typed overload shedding.
//!
//! ```text
//! cargo run --release --example serving_pipeline
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use cycle_rewrite::prelude::*;
use qrw_bench::experiment::{train_q2q_model, ExperimentData, Scale, System};

fn main() {
    println!("building corpus and training models (takes a minute)…");
    let sys = System::build(Scale::paper());
    let data: &ExperimentData = &sys.data;
    let vocab = &data.dataset.vocab;

    // Distill the q2q serving model (hybrid architecture).
    let (q2q_model, _) = train_q2q_model(
        data,
        &sys.scale,
        ComponentKind::Transformer,
        ComponentKind::Rnn,
        77,
    );
    let q2q = Arc::new(Q2QRewriter::new(Arc::new(q2q_model), Arc::new(vocab.clone()), 8, 78));

    // Offline tier: precompute head-query rewrites into the KV store.
    let pipeline = RewritePipeline::new(&sys.joint, vocab, 3, 8, 79);
    let cache = Arc::new(RewriteCache::new());
    let mut head: Vec<&qrw_data::GeneratedQuery> = data.log.queries.iter().collect();
    head.sort_by_key(|q| std::cmp::Reverse(q.frequency));
    let head_count = head.len() / 5; // "top queries" tier
    let t0 = Instant::now();
    for q in &head[..head_count] {
        cache.insert(&q.tokens, pipeline.rewrite(&q.tokens, 3));
    }
    println!(
        "precomputed {} head queries in {:.2}s ({:.0} ms/query offline)",
        head_count,
        t0.elapsed().as_secs_f64(),
        t0.elapsed().as_secs_f64() * 1000.0 / head_count as f64
    );

    // Online tier: serve a traffic sample; measure latency per source.
    let engine = Arc::new(SearchEngine::new(InvertedIndex::build(
        data.log.catalog.items.iter().map(|i| i.title_tokens.clone()),
    )));
    let serving = ServingConfig::default();
    let mut cache_ms = (0.0f64, 0u32);
    let mut fallback_ms = (0.0f64, 0u32);
    // Sample head and tail traffic: strided iteration reaches past the
    // precomputed tier so the q2q fallback is exercised too.
    for q in data.log.queries.iter().step_by(6).take(60) {
        let t = Instant::now();
        let resp = engine.search_with_rewrites(&q.tokens, Some(&*cache), Some(&*q2q), &serving);
        let ms = t.elapsed().as_secs_f64() * 1000.0;
        match resp.rewrite_source {
            qrw_search::RewriteSource::Cache => {
                cache_ms.0 += ms;
                cache_ms.1 += 1;
            }
            _ => {
                fallback_ms.0 += ms;
                fallback_ms.1 += 1;
            }
        }
    }
    println!("KV cache hit rate: {:.0}%", 100.0 * cache.hit_rate());
    if cache_ms.1 > 0 {
        println!(
            "cache-tier serving:    {:>8.2} ms/query over {} queries",
            cache_ms.0 / f64::from(cache_ms.1),
            cache_ms.1
        );
    }
    if fallback_ms.1 > 0 {
        println!(
            "q2q-fallback serving:  {:>8.2} ms/query over {} queries",
            fallback_ms.0 / f64::from(fallback_ms.1),
            fallback_ms.1
        );
    }

    // Resilience tier: serve through the degradation ladder while the q2q
    // model "goes down" mid-run. The seeded injector makes every online
    // call fail from request 4 on; requests degrade to the rule-based rung
    // (or the cache, when it hits) instead of erroring out.
    println!("\nresilience demo: q2q model starts faulting mid-run");
    let rules = RuleBasedRewriter::new(SynonymDict::from_catalog(&data.log.catalog));
    let ladder = RewriteLadder {
        cache: Some(&*cache),
        student: None,
        online: Some(&*q2q),
        baseline: Some(&rules),
    };
    let outage = FaultInjector::new(42, FaultConfig::always(Fault::ModelError));
    let budget = std::time::Duration::from_millis(250);
    for (i, q) in data.log.queries.iter().step_by(9).take(12).enumerate() {
        let faults = if i >= 4 { Some(&outage) } else { None };
        let resp = engine.search_resilient(
            &q.tokens,
            ladder,
            &serving,
            &DeadlineBudget::new(budget),
            faults,
        );
        let degradations: Vec<String> =
            resp.degradations.iter().map(ToString::to_string).collect();
        println!(
            "  [{i:>2}] {:<30} rung {:<10} ranked {:<3} {}",
            q.text(),
            format!("{:?}", resp.rewrite_source),
            resp.ranked.len(),
            if degradations.is_empty() { String::from("healthy") } else { degradations.join("; ") },
        );
    }
    let report = engine.health_report();
    println!(
        "health: {} requests | rungs cache/online/baseline/raw = {}/{}/{}/{}",
        report.requests,
        report.served_cache,
        report.served_online,
        report.served_baseline,
        report.served_raw
    );
    println!(
        "        {} model errors, {} degradation events, rewrite coverage {:.0}%, breaker {:?}",
        report.model_errors,
        report.degradations(),
        100.0 * report.rewrite_coverage(),
        report.breaker_state
    );

    // Show one hard query traveling the whole path.
    if let Some(q) = data.log.queries.iter().find(|q| q.kind == QueryKind::HardAudience) {
        let baseline = engine.search_baseline(&q.tokens, &serving);
        let with_rw = engine.search_with_rewrites(&q.tokens, Some(&*cache), Some(&*q2q), &serving);
        println!("\nhard query \"{}\":", q.text());
        println!("  baseline retrieved {} candidates", baseline.base_candidates);
        println!(
            "  with rewrites {:?} (source {:?}): +{} extra candidates",
            with_rw.rewrites_used.iter().map(|r| r.join(" ")).collect::<Vec<_>>(),
            with_rw.rewrite_source,
            with_rw.extra_candidates
        );
        for &doc in with_rw.ranked.iter().take(3) {
            let title: Vec<&str> = engine.index().doc_tokens(doc).collect();
            println!("    hit: {}", title.join(" "));
        }
    }

    // Burst demo: a spike of concurrent requests through the serving
    // runtime. Cache misses decode together in micro-batches; the bounded
    // queue rejects what it cannot absorb, and expired requests are shed —
    // both as typed errors, never as unbounded queueing.
    println!("\nburst demo: 64 requests hit a runtime with queue capacity 48");
    let stack = ServeStack {
        engine: Arc::clone(&engine),
        cache: Some(Arc::clone(&cache)),
        student: None,
        online: Some(Arc::clone(&q2q)),
        baseline: Some(Arc::new(RuleBasedRewriter::new(SynonymDict::from_catalog(
            &data.log.catalog,
        )))),
        models: None,
    };
    let runtime = Runtime::new(
        stack,
        RuntimeConfig { queue_capacity: 48, max_batch: 8, workers: 2, ..RuntimeConfig::default() },
    );
    let burst: Vec<(Vec<String>, DeadlineBudget)> = data
        .log
        .queries
        .iter()
        .step_by(3)
        .take(64)
        .map(|q| (q.tokens.clone(), DeadlineBudget::new(Duration::from_millis(250))))
        .collect();
    let t0 = Instant::now();
    let records = runtime.execute(burst);
    let wall = t0.elapsed();
    let served = records.iter().filter(|r| matches!(r.outcome, Outcome::Served(_))).count();
    let shed = records.iter().filter(|r| matches!(r.outcome, Outcome::Shed(_))).count();
    let rejected = records.iter().filter(|r| matches!(r.outcome, Outcome::Rejected(_))).count();
    let mut latencies: Vec<u128> =
        records.iter().filter(|r| r.response().is_some()).map(|r| r.latency.as_micros()).collect();
    latencies.sort_unstable();
    println!(
        "absorbed in {:.1} ms: served {served}, shed {shed}, rejected {rejected}",
        wall.as_secs_f64() * 1000.0
    );
    if !latencies.is_empty() {
        println!(
            "served latency: p50 {} us, p95 {} us",
            latencies[latencies.len() / 2],
            latencies[(latencies.len() * 95 / 100).min(latencies.len() - 1)]
        );
    }
    let report = engine.health_report();
    println!(
        "queue accounting: rejections {}, sheds {}, peak depth {}",
        report.queue_rejections, report.queue_sheds, report.queue_peak_depth
    );
}
