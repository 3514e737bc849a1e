//! Fault-tolerance tests for the serving path: the degradation ladder,
//! deadline budgets, circuit breaker, panic isolation and the seeded
//! fault schedule. Every test is deterministic — faults come from a fixed
//! seed and latency spikes are charged synthetically, never slept.

use std::sync::Arc;
use std::time::Duration;

use cycle_rewrite::prelude::*;
use cycle_rewrite::search::{RewriteSource, Stage};

fn toks(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

/// A tiny four-doc corpus where "phone for grandpa" needs a rewrite to
/// match anything.
fn engine() -> SearchEngine {
    SearchEngine::new(InvertedIndex::build(vec![
        toks("senior smartphone black official"),
        toks("smartphone golden new"),
        toks("sneaker red sale"),
        toks("senior handset classic"),
    ]))
}

fn dict() -> SynonymDict {
    let mut d = SynonymDict::default();
    d.insert(&["phone", "for", "grandpa"], &["senior", "smartphone"]);
    d.insert(&["phone"], &["smartphone"]);
    d
}

/// A healthy online rewriter with a fixed answer.
struct FixedRewriter(Vec<Vec<String>>);

impl QueryRewriter for FixedRewriter {
    fn rewrite(&self, _query: &[String], k: usize) -> Vec<Vec<String>> {
        self.0.iter().take(k).cloned().collect()
    }
    fn name(&self) -> &str {
        "fixed-online"
    }
}

/// A rewriter that always panics — the catch_unwind boundary must contain
/// it.
struct PanickingRewriter;

impl QueryRewriter for PanickingRewriter {
    fn rewrite(&self, _query: &[String], _k: usize) -> Vec<Vec<String>> {
        panic!("rewriter blew up");
    }
    fn name(&self) -> &str {
        "panicking"
    }
}

#[test]
fn every_online_fault_still_yields_ranked_responses() {
    // 100% fault rate on the online rung, for each fault kind: responses
    // must come from lower rungs, ranked, with the reason recorded.
    let online = FixedRewriter(vec![toks("senior smartphone")]);
    let baseline = RuleBasedRewriter::new(dict());
    let cfg = ServingConfig::default();
    let query = toks("phone for grandpa");

    for fault in [
        Fault::Panic,
        Fault::ModelError,
        Fault::Latency(Duration::from_secs(10)),
    ] {
        let e = engine();
        let injector = Faults::new(42).always(Site::Rewriter, fault);
        let ladder =
            RewriteLadder { student: None, cache: None, online: Some(&online), baseline: Some(&baseline) };
        for _ in 0..10 {
            let budget = DeadlineBudget::new(Duration::from_secs(1));
            let resp = e.search_resilient(&query, ladder, &cfg, &budget, Some(&injector));
            // The baseline rung bridges the vocabulary gap, so ranked
            // results exist even with the online model 100% down.
            assert!(!resp.ranked.is_empty(), "fault {fault:?} lost results: {resp:?}");
            assert!(
                matches!(resp.rewrite_source, RewriteSource::Baseline | RewriteSource::None),
                "online rung should never serve under 100% faults: {:?}",
                resp.rewrite_source
            );
            assert!(!resp.degradations.is_empty(), "degradation must be recorded");
        }
        let report = e.health_report();
        assert_eq!(report.requests, 10);
        assert_eq!(report.served_online, 0);
        assert!(report.served_baseline + report.served_raw > 0);
        match fault {
            Fault::Panic => assert!(report.panics_caught > 0, "{report:?}"),
            Fault::ModelError => assert!(report.model_errors > 0, "{report:?}"),
            Fault::Latency(_) => assert!(report.deadline_exceeded > 0, "{report:?}"),
            _ => unreachable!(),
        }
    }
}

#[test]
fn breaker_opens_and_recovers_deterministically() {
    let e = SearchEngine::new(InvertedIndex::build(vec![toks("senior smartphone")])).with_breaker(
        BreakerConfig { failure_threshold: 3, cooldown_requests: 4, half_open_successes: 2 },
    );
    let online = FixedRewriter(vec![toks("senior smartphone")]);
    let cfg = ServingConfig::default();
    let query = toks("phone");

    // Phase 1: every online call errors. Failures 1..3 close->open.
    let broken = Faults::new(7).always(Site::Rewriter, Fault::ModelError);
    let ladder = RewriteLadder { student: None, cache: None, online: Some(&online), baseline: None };
    for _ in 0..3 {
        let budget = DeadlineBudget::unlimited();
        let resp = e.search_resilient(&query, ladder, &cfg, &budget, Some(&broken));
        assert_eq!(resp.rewrite_source, RewriteSource::None);
    }
    assert_eq!(e.breaker().state(), BreakerState::Open);

    // Phase 2: the model is healthy again, but the breaker fails fast for
    // `cooldown_requests - 1` requests, then half-opens and recovers after
    // two successful trials. Request counts make this fully deterministic.
    let mut sources = Vec::new();
    for _ in 0..6 {
        let budget = DeadlineBudget::unlimited();
        let resp = e.search_resilient(&query, ladder, &cfg, &budget, None);
        sources.push((resp.rewrite_source, e.breaker().state()));
    }
    assert_eq!(
        sources,
        vec![
            (RewriteSource::None, BreakerState::Open),     // cooldown 1
            (RewriteSource::None, BreakerState::Open),     // cooldown 2
            (RewriteSource::None, BreakerState::Open),     // cooldown 3
            (RewriteSource::Fallback, BreakerState::HalfOpen), // trial 1
            (RewriteSource::Fallback, BreakerState::Closed),   // trial 2 closes
            (RewriteSource::Fallback, BreakerState::Closed),   // healthy
        ]
    );
    let report = e.health_report();
    assert_eq!(report.breaker_opens, 1);
    assert_eq!(report.breaker_rejections, 3);
}

#[test]
fn fault_sequences_are_reproducible_across_engines() {
    let cfg = ServingConfig::default();
    let online = FixedRewriter(vec![toks("senior smartphone")]);
    let mixed = || {
        Faults::new(99)
            .prob(Site::Rewriter, 0.2, Fault::Panic)
            .prob(Site::Rewriter, 0.2, Fault::ModelError)
            .prob(Site::Rewriter, 0.2, Fault::Latency(Duration::from_secs(10)))
    };
    let run = || {
        let e = engine();
        let injector = mixed();
        let ladder = RewriteLadder { student: None, cache: None, online: Some(&online), baseline: None };
        (0..20)
            .map(|_| {
                let budget = DeadlineBudget::new(Duration::from_secs(1));
                let resp =
                    e.search_resilient(&toks("phone"), ladder, &cfg, &budget, Some(&injector));
                (resp.rewrite_source, resp.degradations.clone())
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "same seed must replay the same degradations");
}

/// Pins the exact per-call fault stream of one seeded schedule: panic
/// 0.2, error 0.0, latency 0.5, a 10 ms spike, seed 99, 200 calls. The
/// zero-probability error rule still takes its draw, so dropping it would
/// shift every later fault. Each call is labelled by its fault's `Debug`
/// form (`None` for no fault) and the stream keeps the first letter.
#[test]
fn rewriter_fault_stream_is_pinned() {
    let draw = {
        let injector = Faults::new(99)
            .prob(Site::Rewriter, 0.2, Fault::Panic)
            .prob(Site::Rewriter, 0.0, Fault::ModelError)
            .prob(Site::Rewriter, 0.5, Fault::Latency(Duration::from_millis(10)));
        move || injector.hit(Site::Rewriter).map_or("None".to_string(), |f| format!("{f:?}"))
    };
    let labels: Vec<String> = (0..200).map(|_| draw()).collect();
    for label in &labels {
        assert!(matches!(label.as_str(), "None" | "Panic" | "Latency(10ms)"), "{label}");
    }
    let stream: String = labels.iter().map(|l| l.chars().next().unwrap()).collect();
    assert_eq!(
        stream,
        concat!(
            "NPPNNLPLNPPLPNLPNNLLNNNNLNNLNNLLLLPLNLPLNLNNLPLNNL",
            "NPPNNNLLNPLNNNNPNLPNPLNLNNNPLLNNLNNNLLNNNPLPPPNNLP",
            "LPLNNNLPNNNLLNPPNPLNNLNNLLNNLNNLLLLNPLNNNNPNPLLNPL",
            "LNLLNNLLLLPNLNLPNNNNNLLPNLNNNLLPNNPPLLPLPPLNPLNLLL",
        )
    );
}

#[test]
fn poisoned_cache_entry_degrades_to_online_rung() {
    let e = engine();
    let cache = RewriteCache::new();
    let query = toks("phone for grandpa");
    cache.insert(&query, vec![vec![String::new()]]);

    let online = FixedRewriter(vec![toks("senior smartphone")]);
    let ladder = RewriteLadder { student: None, cache: Some(&cache), online: Some(&online), baseline: None };
    let budget = DeadlineBudget::unlimited();
    let resp = e.search_resilient(&query, ladder, &ServingConfig::default(), &budget, None);
    assert_eq!(resp.rewrite_source, RewriteSource::Fallback);
    assert!(resp.degradations.contains(&ServeError::PoisonedCacheEntry), "{resp:?}");
    assert!(!resp.ranked.is_empty());
    assert_eq!(e.health_report().poisoned_entries, 1);
}

#[test]
fn healthy_cache_entry_still_wins_the_ladder() {
    let e = engine();
    let cache = RewriteCache::new();
    let query = toks("phone for grandpa");
    cache.insert(&query, vec![toks("senior handset")]);
    let online = FixedRewriter(vec![toks("senior smartphone")]);
    let ladder = RewriteLadder { student: None, cache: Some(&cache), online: Some(&online), baseline: None };
    let budget = DeadlineBudget::unlimited();
    let resp = e.search_resilient(&query, ladder, &ServingConfig::default(), &budget, None);
    assert_eq!(resp.rewrite_source, RewriteSource::Cache);
    assert!(resp.degradations.is_empty());
    assert!(resp.ranked.contains(&3));
}

#[test]
fn rewriter_panic_is_contained_without_injector() {
    let e = engine();
    let panicking = PanickingRewriter;
    let baseline = RuleBasedRewriter::new(dict());
    let ladder =
        RewriteLadder { student: None, cache: None, online: Some(&panicking), baseline: Some(&baseline) };
    let budget = DeadlineBudget::unlimited();
    let resp = e.search_resilient(
        &toks("phone for grandpa"),
        ladder,
        &ServingConfig::default(),
        &budget,
        None,
    );
    assert_eq!(resp.rewrite_source, RewriteSource::Baseline);
    assert!(!resp.ranked.is_empty());
    assert!(
        resp.degradations
            .iter()
            .any(|d| matches!(d, ServeError::ModelPanic { rewriter } if rewriter == "panicking")),
        "{resp:?}"
    );
    assert_eq!(e.health_report().panics_caught, 1);
}

#[test]
fn expired_budget_serves_raw_query_only() {
    let e = engine();
    let online = FixedRewriter(vec![toks("senior smartphone")]);
    let ladder = RewriteLadder { student: None, cache: None, online: Some(&online), baseline: None };
    let budget = DeadlineBudget::new(Duration::from_millis(10));
    budget.charge(Duration::from_millis(20)); // synthetic: already over
    let resp =
        e.search_resilient(&toks("smartphone"), ladder, &ServingConfig::default(), &budget, None);
    // The raw query still retrieves; rewrites were skipped with a recorded
    // timeout.
    assert!(!resp.ranked.is_empty());
    assert_eq!(resp.rewrite_source, RewriteSource::None);
    assert!(resp
        .degradations
        .contains(&ServeError::DeadlineExceeded { stage: Stage::Rewrite }));
}

#[test]
fn hostile_inputs_never_panic_and_stay_well_formed() {
    let e = engine();
    let baseline = RuleBasedRewriter::new(dict());
    let online = FixedRewriter(vec![toks("senior smartphone")]);
    let cfg = ServingConfig::default();
    let ladder =
        RewriteLadder { student: None, cache: None, online: Some(&online), baseline: Some(&baseline) };

    let ten_k_tokens: Vec<String> = (0..10_000).map(|i| format!("tok{i}")).collect();
    let hostile: Vec<(&str, Vec<String>)> = vec![
        ("empty", Vec::new()),
        ("whitespace-only", vec!["   ".to_string(), "\t".to_string(), String::new()]),
        ("10k tokens", ten_k_tokens),
        ("all-OOV", toks("zzzz qqqq xxxx wwww")),
        ("duplicate tokens", toks("phone phone phone phone")),
    ];
    for (label, query) in hostile {
        let budget = DeadlineBudget::new(Duration::from_secs(1));
        let resp = e.search_resilient(&query, ladder, &cfg, &budget, None);
        // Well-formed: ranked ⊆ candidates, ranked bounded by top_k, and
        // counts consistent.
        assert!(resp.ranked.len() <= cfg.top_k, "{label}: over-long ranking");
        assert!(
            resp.ranked.iter().all(|d| resp.candidates.contains(d)),
            "{label}: ranked doc not in candidates"
        );
        assert_eq!(
            resp.candidates.len(),
            resp.base_candidates + resp.extra_candidates,
            "{label}: candidate accounting broken"
        );
        for rw in &resp.rewrites_used {
            assert!(!rw.is_empty(), "{label}: empty rewrite used");
        }
    }

    // The 10k-token query must have been truncated and say so.
    let budget = DeadlineBudget::unlimited();
    let long: Vec<String> = (0..10_000).map(|i| format!("tok{i}")).collect();
    let resp = e.search_resilient(&long, ladder, &cfg, &budget, None);
    assert!(resp
        .degradations
        .iter()
        .any(|d| matches!(d, ServeError::QueryTruncated { tokens: 10_000, .. })));
}

#[test]
fn health_report_aggregates_stage_latency_and_coverage() {
    let e = engine();
    let online = FixedRewriter(vec![toks("senior smartphone")]);
    let ladder = RewriteLadder { student: None, cache: None, online: Some(&online), baseline: None };
    let cfg = ServingConfig::default();
    for _ in 0..4 {
        let budget = DeadlineBudget::unlimited();
        e.search_resilient(&toks("phone for grandpa"), ladder, &cfg, &budget, None);
    }
    let report = e.health_report();
    assert_eq!(report.requests, 4);
    assert_eq!(report.served_online, 4);
    assert!((report.rewrite_coverage() - 1.0).abs() < 1e-12);
    assert_eq!(report.degradations(), 0);
    assert_eq!(report.breaker_state, BreakerState::Closed);
}

#[test]
fn legacy_serving_path_is_unchanged_by_the_resilience_layer() {
    // A healthy online rung with no deadline: the guarded path serves its
    // rewrites and records no degradation.
    let e = engine();
    let online = FixedRewriter(vec![toks("senior smartphone")]);
    let ladder = RewriteLadder { online: Some(&online), ..Default::default() };
    let budget = DeadlineBudget::unlimited();
    let cfg = ServingConfig::default();
    let resp = e.search_resilient(&toks("phone for grandpa"), ladder, &cfg, &budget, None);
    assert_eq!(resp.rewrite_source, RewriteSource::Fallback);
    assert!(resp.ranked.contains(&0));
    assert!(resp.degradations.is_empty());
}

#[test]
fn health_report_carries_decode_throughput_from_the_online_model() {
    // A real q2q model on the online rung: its KV-cached decode counters
    // must surface through health_report as throughput telemetry.
    let e = engine();
    let model = Seq2Seq::new(ModelConfig::tiny_transformer(16), 33);
    let mut vocab = Vocab::new();
    for i in 0..12 {
        vocab.insert(&format!("t{i}"));
    }
    let online = Q2QRewriter::new(Arc::new(model), Arc::new(vocab), 6, 9);
    let ladder = RewriteLadder { student: None, cache: None, online: Some(&online), baseline: None };
    let cfg = ServingConfig::default();
    let budget = DeadlineBudget::unlimited();
    let query: Vec<String> = vec!["t2".into(), "t6".into()];
    e.search_resilient(&query, ladder, &cfg, &budget, None);

    let report = e.health_report();
    assert!(report.decode_steps > 0, "decode steps not recorded: {report:?}");
    assert!(report.decode_tokens > 0, "decoder token work not recorded");
    // KV-cached transformer decoding reuses the prefix after step one.
    assert!(report.decode_cache_hits > 0, "cache hits not recorded");
    assert!(report.decode_micros > 0, "decode wall-clock not recorded");
    assert!(report.decode_tokens_per_sec() > 0.0);
    assert!(report.decode_cache_hit_rate() > 0.0);

    // A fixed (non-neural) rewriter reports nothing and leaves the decode
    // counters untouched.
    let fixed = FixedRewriter(vec![toks("senior smartphone")]);
    let ladder2 = RewriteLadder { student: None, cache: None, online: Some(&fixed), baseline: None };
    e.search_resilient(&toks("phone for grandpa"), ladder2, &cfg, &budget, None);
    let after = e.health_report();
    assert_eq!(after.decode_steps, report.decode_steps);
    assert_eq!(after.decode_micros, report.decode_micros);
}
