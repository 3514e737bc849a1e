//! Trace-invariant tests: the tracer as a *correctness tool*. Under a
//! logical clock every timestamp is a globally unique tick, so span trees
//! are deterministic and the runtime's request lifecycle can be asserted
//! structurally:
//!
//! * every admitted request's trace ends in **exactly one** terminal span
//!   (`served` / `shed` / `rejected` / `failed`);
//! * sheds carry a `queue_wait` span and never a `serve` (or any decode);
//! * rejected requests never reach the queue: no `queue_wait`, no `serve`;
//! * a batch span's claims (`size`, `ids`) match the request traces it
//!   points at, and no batch mints a decode span: every online decode is
//!   a `rung_online` span in its request's own trace;
//! * per-request span structure is **byte-identical** across worker
//!   counts and batch sizes (batch composition is scheduling-dependent,
//!   so batch-level spans live in minted traces and are filtered out),
//!   on the teacher-first and the student-bearing stack; the student
//!   decodes inside its request's `rung_student` span, never in a
//!   minted batch span;
//! * injected q2q faults (panics, model errors, poisoned cache entries)
//!   appear as rung outcomes inside an otherwise well-formed serve tree.

use std::sync::Arc;
use std::time::Duration;

use qrw_core::{CheckpointStore, Q2QRewriter, QueryRewriter};
use qrw_data::{ClickLog, LogConfig};
use qrw_nmt::{ModelConfig, QuantStudent, Seq2Seq};
use qrw_obs::{canonical_structure, taxonomy, SpanRecord, Tracer, MINTED_TRACE_BIT};
use qrw_online::{FeedbackBuffer, FeedbackConfig, OnlineConfig, OnlineLoop, ONLINE_MODEL_NAME};
use qrw_search::{
    DeadlineBudget, Fault, FaultConfig, FaultInjector, InvertedIndex, ModelStore, RewriteCache,
    RewriteLadder, SearchEngine, ServeError, ServingConfig, SessionState, ShardFaultInjector,
    SharedRewriter,
};
use qrw_serve::{
    synthetic_docs, MixConfig, Outcome, Runtime, RuntimeConfig, SchedFaults, ServeStack,
    SessionMix, Workload,
};
use qrw_text::Vocab;

const VOCAB_WORDS: usize = 24;
const MODEL_SEED: u64 = 41;
const REWRITE_SEED: u64 = 7;

fn vocab() -> Arc<Vocab> {
    let mut v = Vocab::new();
    for i in 0..VOCAB_WORDS {
        v.insert(&format!("w{i}"));
    }
    Arc::new(v)
}

struct FixedBaseline;

impl QueryRewriter for FixedBaseline {
    fn rewrite(&self, _query: &[String], k: usize) -> Vec<Vec<String>> {
        vec![vec!["w1".to_string(), "w2".to_string()]].into_iter().take(k).collect()
    }
    fn name(&self) -> &str {
        "fixed-baseline"
    }
}

/// The full serving stack with a logical-clock tracer on the engine.
fn traced_stack(vocab: &Arc<Vocab>, head: &[Vec<String>]) -> (ServeStack, Tracer) {
    let tracer = Tracer::logical();
    let docs = synthetic_docs(vocab, 60, 11);
    let engine =
        Arc::new(SearchEngine::new(InvertedIndex::build(docs)).with_tracer(tracer.clone()));
    let model = Arc::new(Seq2Seq::new(ModelConfig::tiny_transformer(vocab.len()), MODEL_SEED));
    let online = Arc::new(Q2QRewriter::new(model, Arc::clone(vocab), 8, REWRITE_SEED));
    let cache = Arc::new(RewriteCache::new());
    for q in head {
        cache.insert(q, online.rewrite(q, 3));
    }
    let stack = ServeStack {
        engine,
        cache: Some(cache),
        student: None,
        online: Some(online),
        baseline: Some(Arc::new(FixedBaseline)),
        models: None,
    };
    (stack, tracer)
}

/// [`traced_stack`] plus the quantized-student rung ahead of the teacher.
fn traced_student_stack(vocab: &Arc<Vocab>, head: &[Vec<String>]) -> (ServeStack, Tracer) {
    let (mut stack, tracer) = traced_stack(vocab, head);
    let model = Seq2Seq::new(ModelConfig::student(vocab.len()), MODEL_SEED + 1);
    let student = QuantStudent::from_seq2seq(&model).expect("transformer student");
    stack.student =
        Some(Arc::new(Q2QRewriter::new(Arc::new(student), Arc::clone(vocab), 8, REWRITE_SEED)));
    (stack, tracer)
}

fn workload(vocab: &Vocab) -> Workload {
    Workload::generate(
        vocab,
        &MixConfig {
            requests: 24,
            head_fraction: 0.5,
            head_queries: 6,
            tail_len: (1, 3),
            tail_pool: 5,
            seed: 5,
        },
    )
}

fn solo_config() -> RuntimeConfig {
    RuntimeConfig { workers: 1, max_batch: 1, max_wait_ticks: 0, ..RuntimeConfig::default() }
}

fn pooled_config() -> RuntimeConfig {
    RuntimeConfig { workers: 4, max_batch: 8, ..RuntimeConfig::default() }
}

/// Spans of one trace, in recording order (the snapshot is sorted by
/// start tick, and logical ticks are unique).
fn trace_spans(spans: &[SpanRecord], trace: u64) -> Vec<&SpanRecord> {
    spans.iter().filter(|s| s.trace == trace).collect()
}

fn count_named(spans: &[&SpanRecord], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

fn terminal_count(spans: &[&SpanRecord]) -> usize {
    spans
        .iter()
        .filter(|s| matches!(s.name, "served" | "shed" | "rejected" | "failed"))
        .count()
}

/// A traced stack builder: [`traced_stack`] or [`traced_student_stack`].
type BuildStack = fn(&Arc<Vocab>, &[Vec<String>]) -> (ServeStack, Tracer);

/// Runs `requests` through a fresh traced runtime and returns
/// (records, all spans).
fn run_traced(
    config: RuntimeConfig,
    requests: Vec<(Vec<String>, DeadlineBudget)>,
) -> (Vec<qrw_serve::ServedRecord>, Vec<SpanRecord>) {
    run_traced_on(traced_stack, config, requests)
}

/// [`run_traced`] on the stack `build` makes.
fn run_traced_on(
    build: BuildStack,
    config: RuntimeConfig,
    requests: Vec<(Vec<String>, DeadlineBudget)>,
) -> (Vec<qrw_serve::ServedRecord>, Vec<SpanRecord>) {
    let vocab = vocab();
    let w = workload(&vocab);
    let (stack, tracer) = build(&vocab, &w.head);
    let runtime = Runtime::new(stack, config);
    let records = runtime.execute(requests);
    assert_eq!(tracer.dropped(), 0, "ring must not evict during these runs");
    (records, tracer.snapshot())
}

fn unlimited(requests: &[Vec<String>]) -> Vec<(Vec<String>, DeadlineBudget)> {
    requests.iter().map(|q| (q.clone(), DeadlineBudget::unlimited())).collect()
}

#[test]
fn every_admitted_request_ends_in_exactly_one_terminal_span() {
    let vocab = vocab();
    let w = workload(&vocab);
    for config in [solo_config(), pooled_config()] {
        let (records, spans) = run_traced(config, unlimited(&w.requests));
        assert!(records.iter().all(|r| matches!(r.outcome, Outcome::Served(_))));
        for r in &records {
            let t = trace_spans(&spans, r.id);
            assert_eq!(terminal_count(&t), 1, "request {}: one terminal span", r.id);
            assert_eq!(count_named(&t, "admit"), 1);
            assert_eq!(count_named(&t, "queue_wait"), 1);
            assert_eq!(count_named(&t, "serve"), 1);
            assert_eq!(count_named(&t, "served"), 1);
            // The lifecycle reads in order under the logical clock.
            let names: Vec<&str> = t.iter().map(|s| s.name).collect();
            let serve_pos = names.iter().position(|n| *n == "serve").unwrap();
            assert_eq!(names[0], "admit");
            assert_eq!(names[1], "queue_wait");
            assert_eq!(*names.last().unwrap(), "served");
            assert!(serve_pos > 1 && serve_pos < names.len() - 1);
        }
    }
}

#[test]
fn sheds_have_a_queue_wait_span_and_no_serve_or_decode_span() {
    let vocab = vocab();
    let w = workload(&vocab);
    for config in [solo_config(), pooled_config()] {
        // Born-expired budgets: every request is shed at dequeue.
        let requests = w
            .requests
            .iter()
            .map(|q| (q.clone(), DeadlineBudget::synthetic(Duration::ZERO)))
            .collect();
        let (records, spans) = run_traced(config, requests);
        assert!(records.iter().all(|r| matches!(r.outcome, Outcome::Shed(_))));
        for r in &records {
            let t = trace_spans(&spans, r.id);
            assert_eq!(terminal_count(&t), 1);
            assert_eq!(count_named(&t, "admit"), 1);
            assert_eq!(count_named(&t, "queue_wait"), 1, "shed without a queue span");
            assert_eq!(count_named(&t, "shed"), 1);
            assert_eq!(count_named(&t, "serve"), 0, "shed request must not be served");
        }
        // Nothing was decoded anywhere — not even in the batch traces.
        assert!(spans.iter().all(|s| s.name != "decode"));
    }
}

#[test]
fn rejected_requests_have_no_queue_wait_and_no_serve() {
    let vocab = vocab();
    let w = workload(&vocab);
    for base in [solo_config(), pooled_config()] {
        let config = RuntimeConfig { queue_capacity: 10, ..base };
        let (records, spans) = run_traced(config, unlimited(&w.requests));
        let rejected: Vec<u64> = records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Rejected(_)))
            .map(|r| r.id)
            .collect();
        assert_eq!(rejected, (10..w.requests.len() as u64).collect::<Vec<_>>());
        for id in rejected {
            let t = trace_spans(&spans, id);
            assert_eq!(terminal_count(&t), 1);
            assert_eq!(count_named(&t, "admit"), 1);
            assert_eq!(count_named(&t, "rejected"), 1);
            assert_eq!(count_named(&t, "queue_wait"), 0, "rejected never queued");
            assert_eq!(count_named(&t, "serve"), 0);
            let admit = t.iter().find(|s| s.name == "admit").unwrap();
            assert_eq!(admit.attr("outcome").and_then(|v| v.as_str()), Some("rejected"));
        }
    }
}

/// Runs both the teacher-first and the student-bearing stack.
#[test]
fn batch_spans_claim_exactly_the_requests_and_decodes_they_contain() {
    let vocab = vocab();
    let w = workload(&vocab);
    let stacks = [(traced_stack as BuildStack, true), (traced_student_stack, false)];
    for (build, teacher_first) in stacks {
        let (records, spans) = run_traced_on(build, pooled_config(), unlimited(&w.requests));

        let batches: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.trace & MINTED_TRACE_BIT != 0 && s.name == taxonomy::BATCH_FORM)
            .collect();
        assert!(!batches.is_empty());

        let mut claimed: Vec<u64> = Vec::new();
        for b in &batches {
            let ids: Vec<u64> = b
                .attr("ids")
                .and_then(|v| v.as_str())
                .unwrap()
                .split(',')
                .map(|s| s.parse().unwrap())
                .collect();
            let size = b.attr("size").and_then(|v| v.as_int()).unwrap() as usize;
            assert_eq!(ids.len(), size, "batch size attr must match its id list");
            claimed.extend(&ids);

            // Every id a batch claims is a real admitted request with its
            // own trace (admit + queue_wait recorded).
            for id in &ids {
                let t = trace_spans(&spans, *id);
                assert_eq!(count_named(&t, "admit"), 1);
                assert_eq!(count_named(&t, "queue_wait"), 1);
            }
        }
        // Batches partition the admitted requests: each id in exactly one.
        claimed.sort_unstable();
        let expected: Vec<u64> = records.iter().map(|r| r.id).collect();
        assert_eq!(claimed, expected, "every request dequeued in exactly one batch");

        // No batch decodes on its own: every online decode is a rung of
        // its request's own ladder walk, in the request's trace under
        // `serve`, memo-answered or not.
        assert!(spans.iter().all(|s| s.name != "decode"), "no minted decode span");
        let rungs: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "rung_online").collect();
        for rung in &rungs {
            assert_eq!(rung.trace & MINTED_TRACE_BIT, 0, "rung_online lives in the request trace");
            let parent = spans.iter().find(|s| Some(s.id) == rung.parent).expect("rung parent");
            assert_eq!((parent.name, parent.trace), ("serve", rung.trace));
        }
        if teacher_first {
            assert!(!rungs.is_empty(), "the teacher-first stack decoded no miss");
        }
    }
}

/// Runs both the teacher-first and the student-bearing stack.
#[test]
fn span_structure_is_byte_identical_across_worker_counts() {
    let vocab = vocab();
    let w = workload(&vocab);
    let render = |build: BuildStack, config: RuntimeConfig| {
        let (records, spans) = run_traced_on(build, config, unlimited(&w.requests));
        assert!(records.iter().all(|r| matches!(r.outcome, Outcome::Served(_))));
        // Batch composition depends on scheduling; per-request traces must
        // not. Filter the minted batch traces, keep the request traces.
        let request_spans: Vec<SpanRecord> =
            spans.into_iter().filter(|s| s.trace & MINTED_TRACE_BIT == 0).collect();
        canonical_structure(&request_spans)
    };
    for build in [traced_stack as BuildStack, traced_student_stack] {
        let solo = render(build, solo_config());
        let pooled = render(build, pooled_config());
        assert!(!solo.is_empty());
        assert_eq!(solo, pooled, "per-request span trees must not depend on worker count");

        // And the structure is reproducible run-to-run, byte for byte.
        assert_eq!(pooled, render(build, pooled_config()));
    }

    // A student-bearing stack decodes each miss inside the request's own
    // ladder walk: the student's time sits in `rung_student` under the
    // request's `serve` span, and no batch mints a decode of its own.
    let (_, spans) = run_traced_on(traced_student_stack, pooled_config(), unlimited(&w.requests));
    let rungs: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "rung_student").collect();
    assert!(
        rungs.iter().any(|s| s.attr("outcome").and_then(|v| v.as_str()) == Some("served")),
        "the student served no request"
    );
    for rung in &rungs {
        assert_eq!(rung.trace & MINTED_TRACE_BIT, 0, "rung_student lives in the request trace");
        let parent = spans.iter().find(|s| Some(s.id) == rung.parent).expect("rung parent");
        assert_eq!((parent.name, parent.trace), ("serve", rung.trace));
    }
    assert!(spans.iter().all(|s| s.name != "student_decode" && s.name != "decode"));
    for b in spans.iter().filter(|s| s.name == taxonomy::BATCH_FORM) {
        assert!(b.attr("decode_slots").is_none() && b.attr("decode_requests").is_none());
    }
}

// ------------------------------------------------ scatter-gather traces

const SHARDS: usize = 4;

/// Like [`traced_stack`], but the engine serves through the sharded
/// scatter-gather tier.
fn traced_sharded_stack(vocab: &Arc<Vocab>, head: &[Vec<String>]) -> (ServeStack, Tracer) {
    let tracer = Tracer::logical();
    let docs = synthetic_docs(vocab, 60, 11);
    let engine = Arc::new(
        SearchEngine::sharded(InvertedIndex::build(docs), SHARDS).with_tracer(tracer.clone()),
    );
    let model = Arc::new(Seq2Seq::new(ModelConfig::tiny_transformer(vocab.len()), MODEL_SEED));
    let online = Arc::new(Q2QRewriter::new(model, Arc::clone(vocab), 8, REWRITE_SEED));
    let cache = Arc::new(RewriteCache::new());
    for q in head {
        cache.insert(q, online.rewrite(q, 3));
    }
    let stack = ServeStack {
        engine,
        cache: Some(cache),
        student: None,
        online: Some(online),
        baseline: Some(Arc::new(FixedBaseline)),
        models: None,
    };
    (stack, tracer)
}

fn run_traced_sharded(
    config: RuntimeConfig,
    requests: Vec<(Vec<String>, DeadlineBudget)>,
) -> (Vec<qrw_serve::ServedRecord>, Vec<SpanRecord>) {
    let vocab = vocab();
    let w = workload(&vocab);
    let (stack, tracer) = traced_sharded_stack(&vocab, &w.head);
    let runtime = Runtime::new(stack, config);
    let records = runtime.execute(requests);
    assert_eq!(tracer.dropped(), 0, "ring must not evict during these runs");
    (records, tracer.snapshot())
}

/// The scatter span's claim is structural: exactly one `scatter` per
/// served request, exactly `SHARDS` `gather` children under it (one per
/// shard, in shard order), exactly one terminal `outcome` attribute
/// (`partial` | `complete`), and no monolithic `retrieve` span.
#[test]
fn scatter_spans_claim_exactly_one_gather_child_per_shard() {
    let vocab = vocab();
    let w = workload(&vocab);
    for config in [solo_config(), pooled_config()] {
        let (records, spans) = run_traced_sharded(config, unlimited(&w.requests));
        assert!(records.iter().all(|r| matches!(r.outcome, Outcome::Served(_))));
        for r in &records {
            let t = trace_spans(&spans, r.id);
            assert_eq!(count_named(&t, "scatter"), 1, "request {}", r.id);
            assert_eq!(count_named(&t, "retrieve"), 0, "scatter replaces retrieve");
            assert_eq!(count_named(&t, "rank"), 1);
            let scatter = t.iter().find(|s| s.name == "scatter").unwrap();
            assert_eq!(
                scatter.attr("shards").and_then(|v| v.as_int()),
                Some(SHARDS as i64)
            );
            // Exactly one terminal outcome, and on this healthy run it is
            // always "complete".
            let outcome = scatter.attr("outcome").and_then(|v| v.as_str());
            assert!(
                matches!(outcome, Some("partial") | Some("complete")),
                "request {}: scatter outcome must be terminal, got {outcome:?}",
                r.id
            );
            assert_eq!(outcome, Some("complete"));

            let gathers: Vec<&&SpanRecord> = t
                .iter()
                .filter(|s| s.name == "gather")
                .collect();
            assert_eq!(gathers.len(), SHARDS, "one gather child per shard");
            for (i, g) in gathers.iter().enumerate() {
                assert_eq!(g.parent, Some(scatter.id), "gather under its scatter");
                assert_eq!(g.attr("shard").and_then(|v| v.as_int()), Some(i as i64));
                assert_eq!(g.attr("outcome").and_then(|v| v.as_str()), Some("ok"));
                assert_eq!(g.attr("hedged").and_then(|v| v.as_int()), Some(0));
            }
        }
    }
}

/// Hedged retries and failed shards are visible per gather span: a
/// one-shot stall tags its shard `hedged` with outcome `ok` (and the
/// scatter stays `complete`); a poisoned shard reports `panic` and flips
/// the scatter to `partial`.
#[test]
fn hedged_retries_and_failures_are_tagged_per_gather_span() {
    let vocab = vocab();
    let docs = synthetic_docs(&vocab, 60, 11);
    let tracer = Tracer::logical();
    let engine =
        SearchEngine::sharded(InvertedIndex::build(docs), SHARDS).with_tracer(tracer.clone());
    let cfg = ServingConfig::default();
    let query = vec!["w3".to_string(), "w7".to_string()];
    let victim = 2usize;

    // One-shot stall past the phase-1 slice: the hedge recovers it.
    engine.set_shard_faults(Some(ShardFaultInjector::stall_on_shard(
        victim,
        Duration::from_millis(60),
        1,
    )));
    engine.search_session_traced(
        &query,
        SessionState::default(),
        RewriteLadder::default(),
        &cfg,
        &DeadlineBudget::synthetic(Duration::from_millis(100)),
        None,
        Some(0),
    );
    let spans = tracer.snapshot();
    let t = trace_spans(&spans, 0);
    let scatter = t.iter().find(|s| s.name == "scatter").expect("scatter span");
    assert_eq!(scatter.attr("outcome").and_then(|v| v.as_str()), Some("complete"));
    for g in t.iter().filter(|s| s.name == "gather") {
        let shard = g.attr("shard").and_then(|v| v.as_int()).unwrap() as usize;
        let expect_hedged = i64::from(shard == victim);
        assert_eq!(g.attr("hedged").and_then(|v| v.as_int()), Some(expect_hedged));
        assert_eq!(g.attr("outcome").and_then(|v| v.as_str()), Some("ok"));
    }

    // A poisoned shard: outcome panic, scatter partial, not hedged
    // (panics get no retry).
    tracer.clear();
    engine.set_shard_faults(Some(ShardFaultInjector::poison_shard(victim)));
    engine.search_session_traced(
        &query,
        SessionState::default(),
        RewriteLadder::default(),
        &cfg,
        &DeadlineBudget::unlimited(),
        None,
        Some(1),
    );
    let spans = tracer.snapshot();
    let t = trace_spans(&spans, 1);
    let scatter = t.iter().find(|s| s.name == "scatter").expect("scatter span");
    assert_eq!(scatter.attr("outcome").and_then(|v| v.as_str()), Some("partial"));
    for g in t.iter().filter(|s| s.name == "gather") {
        let shard = g.attr("shard").and_then(|v| v.as_int()).unwrap() as usize;
        let expect = if shard == victim { "panic" } else { "ok" };
        assert_eq!(g.attr("outcome").and_then(|v| v.as_str()), Some(expect));
        assert_eq!(g.attr("hedged").and_then(|v| v.as_int()), Some(0));
    }
}

/// The scatter-gather tier preserves the runtime's structural guarantee:
/// per-request span trees (now including the per-shard gather fan) are
/// byte-identical across worker counts and run-to-run.
#[test]
fn sharded_span_structure_is_byte_identical_across_worker_counts() {
    let vocab = vocab();
    let w = workload(&vocab);
    let render = |config: RuntimeConfig| {
        let (records, spans) = run_traced_sharded(config, unlimited(&w.requests));
        assert!(records.iter().all(|r| matches!(r.outcome, Outcome::Served(_))));
        let request_spans: Vec<SpanRecord> =
            spans.into_iter().filter(|s| s.trace & MINTED_TRACE_BIT == 0).collect();
        canonical_structure(&request_spans)
    };
    let solo = render(solo_config());
    let pooled = render(pooled_config());
    assert!(!solo.is_empty());
    assert!(solo.contains("scatter") && solo.contains("gather"));
    assert_eq!(solo, pooled, "per-request span trees must not depend on worker count");
    assert_eq!(pooled, render(pooled_config()));
}

/// Injected q2q faults through the standalone resilient path: the rung
/// that failed records its outcome, the ladder recovers, and the serve
/// tree stays well-formed.
#[test]
fn injected_q2q_faults_appear_as_rung_outcomes_in_well_formed_traces() {
    let vocab = vocab();
    let docs = synthetic_docs(&vocab, 60, 11);
    let tracer = Tracer::logical();
    let engine = SearchEngine::new(InvertedIndex::build(docs)).with_tracer(tracer.clone());
    let model = Arc::new(Seq2Seq::new(ModelConfig::tiny_transformer(vocab.len()), MODEL_SEED));
    let online = Q2QRewriter::new(model, Arc::clone(&vocab), 8, REWRITE_SEED);
    let baseline = FixedBaseline;
    let cfg = ServingConfig::default();
    let query = vec!["w3".to_string(), "w7".to_string()];

    for (trace, fault, rung, outcome) in [
        (0u64, Fault::Panic, "rung_online", "panic"),
        (1, Fault::ModelError, "rung_online", "error"),
    ] {
        let faults = FaultInjector::new(3, FaultConfig::always(fault));
        let ladder = RewriteLadder {
            cache: None,
            student: None,
            online: Some(&online),
            baseline: Some(&baseline),
        };
        let resp = engine.search_session_traced(
            &query,
            SessionState::default(),
            ladder,
            &cfg,
            &DeadlineBudget::unlimited(),
            Some(&faults),
            Some(trace),
        );
        assert!(!resp.degradations.is_empty());
        let spans = tracer.snapshot();
        let t = trace_spans(&spans, trace);
        let serve = t.iter().find(|s| s.name == "serve").expect("serve span");
        let failed = t
            .iter()
            .find(|s| s.name == rung)
            .unwrap_or_else(|| panic!("missing {rung} span"));
        assert_eq!(failed.parent, Some(serve.id));
        assert_eq!(failed.attr("outcome").and_then(|v| v.as_str()), Some(outcome));
        // The ladder recovered: the baseline rung served, and retrieval
        // and ranking still ran under the same serve span.
        let b = t.iter().find(|s| s.name == "rung_baseline").expect("baseline rung");
        assert_eq!(b.attr("outcome").and_then(|v| v.as_str()), Some("served"));
        for stage in ["retrieve", "rank"] {
            let s = t.iter().find(|s| s.name == stage).unwrap();
            assert_eq!(s.parent, Some(serve.id));
        }
        assert_eq!(serve.attr("source").and_then(|v| v.as_str()), Some("baseline"));
    }

    // A poisoned KV entry (the q2q cache-side fault) surfaces the same
    // way: rung_cache reports "poisoned" and the ladder falls through.
    tracer.clear();
    let cache = RewriteCache::new();
    let faults = FaultInjector::new(3, FaultConfig::default());
    faults.poison_cache(&cache, &query);
    let ladder = RewriteLadder {
        cache: Some(&cache),
        student: None,
        online: Some(&online),
        baseline: Some(&baseline),
    };
    let resp = engine.search_session_traced(
        &query,
        SessionState::default(),
        ladder,
        &cfg,
        &DeadlineBudget::unlimited(),
        None,
        Some(7),
    );
    assert!(!resp.degradations.is_empty());
    let spans = tracer.snapshot();
    let t = trace_spans(&spans, 7);
    let rung = t.iter().find(|s| s.name == "rung_cache").expect("cache rung");
    assert_eq!(rung.attr("outcome").and_then(|v| v.as_str()), Some("poisoned"));
    assert_eq!(terminal_count(&t), 0, "standalone serves have no runtime terminal");
    assert_eq!(count_named(&t, "serve"), 1);
}

// ------------------------------------------------ session / online-loop traces

/// Like [`traced_stack`], but serving through the session path: a
/// [`ModelStore`] seeded with a day-0 session model instead of the
/// static online rewriter.
fn traced_session_stack(vocab: &Arc<Vocab>) -> (ServeStack, Tracer, Arc<ModelStore>) {
    let tracer = Tracer::logical();
    let docs = synthetic_docs(vocab, 60, 11);
    let engine =
        Arc::new(SearchEngine::new(InvertedIndex::build(docs)).with_tracer(tracer.clone()));
    let model = Arc::new(Seq2Seq::new(ModelConfig::tiny_transformer(vocab.len()), MODEL_SEED));
    let day0: SharedRewriter = Arc::new(
        Q2QRewriter::new(model, Arc::clone(vocab), 8, REWRITE_SEED).with_name(ONLINE_MODEL_NAME),
    );
    let store = ModelStore::new(day0);
    let stack = ServeStack {
        engine,
        cache: None,
        student: None,
        online: None,
        baseline: Some(Arc::new(FixedBaseline)),
        models: Some(Arc::clone(&store)),
    };
    (stack, tracer, store)
}

/// Session requests for the runtime driver: each session's queries with
/// the running context (previous queries, oldest first) attached.
fn session_requests(vocab: &Vocab) -> Vec<(Vec<String>, Vec<Vec<String>>)> {
    let sessions = SessionMix::head_heavy(6, 5).generate(vocab);
    let mut requests = Vec::new();
    for session in &sessions {
        let mut context: Vec<Vec<String>> = Vec::new();
        for q in session {
            requests.push((q.clone(), context.clone()));
            context.push(q.clone());
        }
    }
    requests
}

/// The hot-swap serving invariant, structurally: a session request pins
/// **exactly one** model epoch for its whole ladder walk — one `pin` span
/// per trace, carrying a `model_epoch` attribute that matches the epoch
/// stamped on the response — and a swap between runs moves every stamp
/// (and every pin span) to the new epoch at once.
#[test]
fn session_requests_pin_exactly_one_model_epoch() {
    let vocab = vocab();
    let (stack, tracer, store) = traced_session_stack(&vocab);
    let runtime = Runtime::new(stack, pooled_config());
    let requests = session_requests(&vocab);

    for expected_epoch in [1u64, 2] {
        let records = runtime.run(|rt| {
            for (query, context) in &requests {
                let rec = rt.call_session(
                    query.clone(),
                    context.clone(),
                    DeadlineBudget::unlimited(),
                );
                assert!(matches!(rec.outcome, Outcome::Served(_)));
            }
        });
        assert_eq!(records.len(), requests.len());
        let spans = tracer.snapshot();
        for r in &records {
            let resp = r.response().expect("served");
            assert_eq!(resp.model_epoch, expected_epoch, "request {}", r.id);
            let t = trace_spans(&spans, r.id);
            assert_eq!(terminal_count(&t), 1);
            assert_eq!(count_named(&t, "admit"), 1);
            assert_eq!(count_named(&t, "queue_wait"), 1);
            assert_eq!(count_named(&t, "serve"), 1);
            assert_eq!(count_named(&t, "served"), 1);
            // Exactly one pinned model epoch for the whole ladder walk.
            assert_eq!(count_named(&t, "pin"), 1, "request {}: one pin span", r.id);
            let pin = t.iter().find(|s| s.name == "pin").unwrap();
            let serve = t.iter().find(|s| s.name == "serve").unwrap();
            assert_eq!(pin.parent, Some(serve.id), "pin nests under serve");
            assert!(pin.attr("epoch").is_some(), "pin records the catalog epoch");
            assert_eq!(
                pin.attr("model_epoch").and_then(|v| v.as_int()),
                Some(expected_epoch as i64),
                "request {}: pin span epoch must match the response stamp",
                r.id
            );
            // The pinned model served as the online rung of the ladder.
            let rung = t.iter().find(|s| s.name == "rung_online").expect("online rung");
            assert_eq!(rung.attr("outcome").and_then(|v| v.as_str()), Some("served"));
        }
        // The session path serves per request: no batched decode anywhere.
        assert!(spans.iter().all(|s| s.name != "decode"));
        tracer.clear();

        // Hot-swap for the next round: a fresh (differently seeded) model.
        let next = Arc::new(Seq2Seq::new(
            ModelConfig::tiny_transformer(vocab.len()),
            MODEL_SEED ^ 0xdead,
        ));
        let swapped: SharedRewriter = Arc::new(
            Q2QRewriter::new(next, Arc::clone(&vocab), 8, REWRITE_SEED)
                .with_name(ONLINE_MODEL_NAME),
        );
        assert_eq!(store.publish(swapped), expected_epoch + 1);
    }
}

/// Session-path traces keep the runtime's structural guarantee: the
/// per-request span trees (admit → queue_wait → serve{pin, rungs,
/// retrieve, rank} → served) are byte-identical across worker counts and
/// run-to-run.
#[test]
fn session_span_structure_is_byte_identical_across_worker_counts() {
    let vocab = vocab();
    let requests = session_requests(&vocab);
    let render = |config: RuntimeConfig| {
        let (stack, tracer, _store) = traced_session_stack(&vocab);
        let runtime = Runtime::new(stack, config);
        for (query, context) in &requests {
            runtime
                .submit_session(query.clone(), context.clone(), DeadlineBudget::unlimited())
                .unwrap();
        }
        let records = runtime.run(|_| {});
        assert!(records.iter().all(|r| matches!(r.outcome, Outcome::Served(_))));
        let spans = tracer.snapshot();
        let request_spans: Vec<SpanRecord> =
            spans.into_iter().filter(|s| s.trace & MINTED_TRACE_BIT == 0).collect();
        canonical_structure(&request_spans)
    };
    let solo = render(solo_config());
    let pooled = render(pooled_config());
    assert!(!solo.is_empty());
    assert!(solo.contains("pin"), "session traces must carry the pin span");
    assert_eq!(solo, pooled, "session span trees must not depend on worker count");
    assert_eq!(pooled, render(pooled_config()));
}

/// The A/B tests' oracle rewriter: query → the title-register phrasing of
/// its ground-truth intent (guaranteed-relevant extra candidates, so the
/// cascade click model clicks often enough to harvest).
struct Oracle<'l> {
    log: &'l ClickLog,
}

impl QueryRewriter for Oracle<'_> {
    fn rewrite(&self, query: &[String], _k: usize) -> Vec<Vec<String>> {
        let Some(q) = self.log.queries.iter().find(|q| q.tokens == query) else {
            return Vec::new();
        };
        let cat = self.log.catalog.category(q.category);
        let mut rw = Vec::new();
        if let Some(aud) = q.audience {
            rw.push(self.log.catalog.audience(aud).title_terms[0].clone());
        }
        if let Some(b) = q.brand {
            rw.push(self.log.catalog.brand(b).formal.clone());
        }
        rw.push(cat.title_terms[0].clone());
        vec![rw]
    }
    fn name(&self) -> &str {
        "oracle"
    }
}

/// The closed loop's own spans: every click observation records a
/// `feedback` span (minted trace, `session` / `clicks` / `harvested`
/// attributes), and a training tick records a `train_tick` span
/// (`tick` / `buffer` / `steps`) with exactly one `model_swap` child
/// carrying the published epoch.
#[test]
fn feedback_train_tick_and_model_swap_spans_carry_their_attrs() {
    let tracer = Tracer::logical();
    let log = ClickLog::generate(&LogConfig::default());
    let engine = SearchEngine::new(InvertedIndex::build(
        log.catalog.items.iter().map(|i| i.title_tokens.clone()),
    ));
    let mut v = Vocab::new();
    for q in &log.queries {
        for t in &q.tokens {
            v.insert(t);
        }
    }
    for item in &log.catalog.items {
        for t in &item.title_tokens {
            v.insert(t);
        }
    }
    let vocab = Arc::new(v);
    let oracle = Oracle { log: &log };
    let serving = ServingConfig::default();
    let fb = FeedbackConfig::default();

    // Harvest clicked pairs from served responses, tracing every session.
    let mut buffer = FeedbackBuffer::new(256);
    let sessions = 40u64;
    for s in 0..sessions {
        let qi = s as usize % log.queries.len();
        let resp = engine.search_with_rewrites(
            &log.queries[qi].tokens,
            None,
            Some(&oracle),
            &serving,
        );
        buffer.observe(&log, &vocab, s, &[], qi, &resp, &fb, Some(&tracer));
    }
    assert!(!buffer.is_empty(), "the oracle must harvest some clicked pairs");

    // One training tick over the harvest, published through the store.
    let day0: SharedRewriter = Arc::new(
        Q2QRewriter::new(
            Arc::new(Seq2Seq::new(ModelConfig::tiny_transformer(vocab.len()), MODEL_SEED)),
            Arc::clone(&vocab),
            8,
            REWRITE_SEED,
        )
        .with_name(ONLINE_MODEL_NAME),
    );
    let store = ModelStore::new(day0);
    let dir = std::env::temp_dir()
        .join(format!("qrw_serve_trace_online_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pairs = buffer.pairs().to_vec();
    let mut online = OnlineLoop::new(
        OnlineConfig::smoke(vocab.len()),
        Arc::clone(&vocab),
        Arc::clone(&store),
        CheckpointStore::new(&dir),
    )
    .with_tracer(tracer.clone());
    let report = online.train_tick(&pairs, &pairs);
    assert!(report.trained && !report.swap_failed);
    assert_eq!(report.published_epoch, Some(2));
    std::fs::remove_dir_all(&dir).ok();

    let spans = tracer.snapshot();

    // One feedback span per observed session, each in its own minted
    // trace, carrying the cascade's accounting.
    let feedback: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "feedback").collect();
    assert_eq!(feedback.len(), sessions as usize);
    let mut traces = std::collections::BTreeSet::new();
    let mut harvested = 0i64;
    for f in &feedback {
        assert!(f.trace & MINTED_TRACE_BIT != 0, "feedback lives in a minted trace");
        assert!(traces.insert(f.trace), "one minted trace per observation");
        assert!(f.attr("session").and_then(|a| a.as_int()).is_some());
        assert!(f.attr("clicks").and_then(|a| a.as_int()).is_some());
        harvested += f.attr("harvested").and_then(|a| a.as_int()).expect("harvested attr");
    }
    assert_eq!(harvested as usize, buffer.stats().harvested as usize);

    // Exactly one train_tick, claiming the buffer it consumed and the
    // steps it ran; exactly one model_swap child claiming the epoch it
    // published.
    let ticks: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "train_tick").collect();
    assert_eq!(ticks.len(), 1);
    let tick = ticks[0];
    assert!(tick.trace & MINTED_TRACE_BIT != 0);
    assert_eq!(tick.attr("tick").and_then(|a| a.as_int()), Some(1));
    assert_eq!(tick.attr("buffer").and_then(|a| a.as_int()), Some(pairs.len() as i64));
    assert!(tick.attr("steps").and_then(|a| a.as_int()).unwrap() > 0);

    let swaps: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "model_swap").collect();
    assert_eq!(swaps.len(), 1);
    let swap = swaps[0];
    assert_eq!(swap.trace, tick.trace, "swap joins its tick's trace");
    assert_eq!(swap.parent, Some(tick.id), "swap nests under its tick");
    assert_eq!(swap.attr("epoch").and_then(|a| a.as_int()), Some(2));
    assert_eq!(swap.attr("ok").and_then(|a| a.as_int()), Some(1));
}

// ------------------------------------------------ scheduler taxonomy (minted traces)

/// Like [`run_traced`], but arms [`SchedFaults`] before the run.
fn run_traced_with_faults(
    config: RuntimeConfig,
    faults: SchedFaults,
    requests: Vec<(Vec<String>, DeadlineBudget)>,
) -> (Vec<qrw_serve::ServedRecord>, Vec<SpanRecord>) {
    let vocab = vocab();
    let w = workload(&vocab);
    let (stack, tracer) = traced_stack(&vocab, &w.head);
    let runtime = Runtime::new(stack, config);
    runtime.set_sched_faults(faults);
    let records = runtime.execute(requests);
    assert_eq!(tracer.dropped(), 0, "ring must not evict during these runs");
    (records, tracer.snapshot())
}

/// The comma-joined `ids` attribute of a batch/steal span, parsed.
fn ids_attr(s: &SpanRecord) -> Vec<u64> {
    s.attr("ids")
        .and_then(|v| v.as_str())
        .unwrap()
        .split(',')
        .map(|x| x.parse().unwrap())
        .collect()
}

/// Every admitted request records exactly one minted `mailbox_enqueue`
/// span (the routing decision), with a shard in range; rejected requests
/// never reach a shard FIFO, so they record none.
#[test]
fn every_admitted_request_records_exactly_one_mailbox_enqueue() {
    let vocab = vocab();
    let w = workload(&vocab);
    let shards = 2usize;
    let config = RuntimeConfig { queue_capacity: 10, shards, ..pooled_config() };
    let (records, spans) = run_traced(config, unlimited(&w.requests));

    let enqueues: Vec<&SpanRecord> =
        spans.iter().filter(|s| s.name == taxonomy::MAILBOX_ENQUEUE).collect();
    let mut routed: Vec<u64> = Vec::new();
    for e in &enqueues {
        assert!(e.trace & MINTED_TRACE_BIT != 0, "routing lives in a minted trace");
        routed.push(e.attr("id").and_then(|v| v.as_int()).unwrap() as u64);
        let shard = e.attr("shard").and_then(|v| v.as_int()).unwrap() as usize;
        assert!(shard < shards, "shard attr in range");
        assert!(e.attr("depth").and_then(|v| v.as_int()).is_some());
    }
    routed.sort_unstable();

    let mut admitted: Vec<u64> = records
        .iter()
        .filter(|r| !matches!(r.outcome, Outcome::Rejected(_)))
        .map(|r| r.id)
        .collect();
    admitted.sort_unstable();
    assert!(!admitted.is_empty() && admitted.len() < records.len(), "mixed outcomes");
    assert_eq!(routed, admitted, "one mailbox_enqueue per admitted request, none rejected");
}

/// Per-request span trees are byte-identical across shard counts {1,2,4}
/// × worker counts {1,4} — the scheduler's structural transparency claim.
/// Everything shard-dependent (routing, batch composition, steals) lives
/// in minted traces and is filtered out before comparing.
#[test]
fn span_structure_is_byte_identical_across_shard_counts() {
    let vocab = vocab();
    let w = workload(&vocab);
    let render = |shards: usize, workers: usize| {
        let config = RuntimeConfig { shards, workers, ..RuntimeConfig::default() };
        let (records, spans) = run_traced(config, unlimited(&w.requests));
        assert!(records.iter().all(|r| matches!(r.outcome, Outcome::Served(_))));
        let request_spans: Vec<SpanRecord> =
            spans.into_iter().filter(|s| s.trace & MINTED_TRACE_BIT == 0).collect();
        canonical_structure(&request_spans)
    };
    let baseline = render(1, 1);
    assert!(!baseline.is_empty());
    for shards in [2usize, 4] {
        for workers in [1usize, 4] {
            assert_eq!(
                baseline,
                render(shards, workers),
                "per-request trees must not depend on shards={shards} workers={workers}"
            );
        }
    }
}

/// A stalled shard's backlog is rescued by stealers: every request routed
/// to the wedged shard is claimed by a `steal` span (child of a stolen
/// `batch_form`), all requests are still served, and batch spans still
/// partition the admitted requests exactly.
#[test]
fn stalled_shard_backlog_is_rescued_by_steal_spans() {
    let vocab = vocab();
    let w = workload(&vocab);
    let config = RuntimeConfig { shards: 2, workers: 2, ..RuntimeConfig::default() };
    let faults = SchedFaults { stall_shards: vec![0], ..SchedFaults::default() };
    let (records, spans) = run_traced_with_faults(config, faults, unlimited(&w.requests));
    assert!(records.iter().all(|r| matches!(r.outcome, Outcome::Served(_))));

    // What was routed to the stalled shard, per the enqueue spans.
    let mut stalled_ids: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == taxonomy::MAILBOX_ENQUEUE)
        .filter(|s| s.attr("shard").and_then(|v| v.as_int()) == Some(0))
        .map(|s| s.attr("id").and_then(|v| v.as_int()).unwrap() as u64)
        .collect();
    stalled_ids.sort_unstable();
    assert!(!stalled_ids.is_empty(), "the workload must route something to shard 0");

    // Steal spans: victim is the stalled shard, the thief is not, and the
    // union of their id claims is exactly the stalled shard's backlog.
    let mut stolen_ids: Vec<u64> = Vec::new();
    for s in spans.iter().filter(|s| s.name == taxonomy::STEAL) {
        assert!(s.trace & MINTED_TRACE_BIT != 0);
        assert_eq!(s.attr("victim").and_then(|v| v.as_int()), Some(0), "only shard 0 stalls");
        assert_ne!(s.attr("thief").and_then(|v| v.as_int()), Some(0));
        let ids = ids_attr(s);
        assert_eq!(ids.len(), s.attr("count").and_then(|v| v.as_int()).unwrap() as usize);
        // The steal span nests under a batch_form marked stolen, claiming
        // the same requests.
        let parent = spans
            .iter()
            .find(|b| b.trace == s.trace && Some(b.id) == s.parent)
            .expect("steal nests under its batch");
        assert_eq!(parent.name, taxonomy::BATCH_FORM);
        assert_eq!(parent.attr("stolen").and_then(|v| v.as_int()), Some(1));
        assert_eq!(ids_attr(parent), ids);
        stolen_ids.extend(ids);
    }
    stolen_ids.sort_unstable();
    assert_eq!(stolen_ids, stalled_ids, "the whole stalled backlog is rescued, exactly once");

    // Batches marked stolen are exactly the batches with a steal child,
    // and batch spans still partition the admitted requests.
    let mut claimed: Vec<u64> = Vec::new();
    for b in spans.iter().filter(|s| s.name == taxonomy::BATCH_FORM) {
        let has_steal_child = spans
            .iter()
            .any(|s| s.trace == b.trace && s.parent == Some(b.id) && s.name == taxonomy::STEAL);
        let marked = b.attr("stolen").and_then(|v| v.as_int()) == Some(1);
        assert_eq!(marked, has_steal_child, "stolen flag iff steal child");
        claimed.extend(ids_attr(b));
    }
    claimed.sort_unstable();
    let expected: Vec<u64> = records.iter().map(|r| r.id).collect();
    assert_eq!(claimed, expected, "every request dequeued in exactly one batch");
}

/// An injected worker panic (past the engine's own guards) is contained
/// to the request: it fails with `ServeError::EnginePanic` and a `failed`
/// terminal span, while every other request in the run — including the
/// rest of its own batch — is served normally by the surviving worker.
#[test]
fn injected_worker_panic_is_contained_to_the_request() {
    let vocab = vocab();
    let w = workload(&vocab);
    let doomed = [3u64, 11];
    let config = RuntimeConfig { shards: 2, workers: 2, ..RuntimeConfig::default() };
    let faults = SchedFaults { panic_on_ids: doomed.to_vec(), ..SchedFaults::default() };
    let (records, spans) = run_traced_with_faults(config, faults, unlimited(&w.requests));

    assert_eq!(records.len(), w.requests.len(), "no request lost to the panic");
    for r in &records {
        let t = trace_spans(&spans, r.id);
        assert_eq!(terminal_count(&t), 1, "request {}: one terminal span", r.id);
        if doomed.contains(&r.id) {
            assert!(
                matches!(r.outcome, Outcome::Failed(ServeError::EnginePanic)),
                "request {}: expected Failed(EnginePanic), got {:?}",
                r.id,
                r.outcome
            );
            assert_eq!(count_named(&t, "failed"), 1);
            assert_eq!(count_named(&t, "served"), 0);
            assert_eq!(count_named(&t, "queue_wait"), 1, "it was dequeued before failing");
        } else {
            assert!(matches!(r.outcome, Outcome::Served(_)), "request {}", r.id);
            assert_eq!(count_named(&t, "served"), 1);
        }
    }
}
