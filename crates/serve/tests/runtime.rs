//! End-to-end runtime tests: batching transparency (byte-identical to
//! standalone serving), concurrency invariance, deterministic admission
//! control, and overload accounting in `health_report()`.

use std::sync::Arc;
use std::time::Duration;

use qrw_core::{Q2QRewriter, QueryRewriter};
use qrw_nmt::{ModelConfig, Seq2Seq};
use qrw_search::{
    DeadlineBudget, InvertedIndex, RewriteCache, RewriteLadder, SearchEngine, ServeError,
    ServingConfig,
};
use qrw_serve::{
    synthetic_docs, MixConfig, Outcome, Runtime, RuntimeConfig, ServeStack, Workload,
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

/// A fixed-answer rung-3 fallback.
struct FixedBaseline;

impl QueryRewriter for FixedBaseline {
    fn rewrite(&self, _query: &[String], k: usize) -> Vec<Vec<String>> {
        vec![vec!["w1".to_string(), "w2".to_string()]].into_iter().take(k).collect()
    }
    fn name(&self) -> &str {
        "fixed-baseline"
    }
}

/// Builds the full serving stack: engine over a synthetic index, a cache
/// prefilled for the workload's head queries, and the batched online model.
fn stack(vocab: &Arc<Vocab>, head: &[Vec<String>]) -> ServeStack {
    let docs = synthetic_docs(vocab, 60, 11);
    let engine = Arc::new(SearchEngine::new(InvertedIndex::build(docs)));
    let model = Arc::new(Seq2Seq::new(ModelConfig::tiny_transformer(vocab.len()), MODEL_SEED));
    let online = Arc::new(Q2QRewriter::new(model, Arc::clone(vocab), 8, REWRITE_SEED));
    let cache = Arc::new(RewriteCache::new());
    for q in head {
        // Precompute the head's rewrites with the same model, as the
        // offline pipeline would.
        cache.insert(q, online.rewrite(q, 3));
    }
    ServeStack {
        engine,
        cache: Some(cache),
        student: None,
        online: Some(online),
        baseline: Some(Arc::new(FixedBaseline)),
        models: None,
    }
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

/// Serves one request standalone — no queue, no batching, no pool — the
/// reference the runtime must match byte-for-byte.
fn serve_alone(stack: &ServeStack, query: &[String], config: &ServingConfig) -> String {
    let online = stack.online.as_deref().map(|o| o as &dyn QueryRewriter);
    let ladder = RewriteLadder {
        cache: stack.cache.as_deref(),
        student: stack.student.as_deref().map(|s| s as &dyn QueryRewriter),
        online,
        baseline: stack.baseline.as_deref().map(|b| b as &dyn QueryRewriter),
    };
    let resp = stack.engine.search_resilient(
        query,
        ladder,
        config,
        &DeadlineBudget::unlimited(),
        None,
    );
    format!("{resp:?}")
}

fn run_and_render(stack: &ServeStack, config: RuntimeConfig, requests: &[Vec<String>]) -> Vec<String> {
    let runtime = Runtime::new(stack.clone(), config);
    let records = runtime.execute(
        requests.iter().map(|q| (q.clone(), DeadlineBudget::unlimited())).collect(),
    );
    assert_eq!(records.len(), requests.len());
    records
        .iter()
        .map(|r| match &r.outcome {
            Outcome::Served(resp) => format!("{resp:?}"),
            other => panic!("request {} not served: {other:?}", r.id),
        })
        .collect()
}

#[test]
fn batched_responses_are_byte_identical_to_standalone_serving() {
    let vocab = vocab();
    let w = workload(&vocab);
    let stack = stack(&vocab, &w.head);

    // Reference: each request served alone through search_resilient, on a
    // FRESH identical stack so cache/breaker state matches the runtime's.
    let reference_stack = stack_clone_fresh(&vocab, &w.head);
    let expected: Vec<String> = w
        .requests
        .iter()
        .map(|q| serve_alone(&reference_stack, q, &ServingConfig::default()))
        .collect();

    let config = RuntimeConfig { workers: 4, max_batch: 8, ..RuntimeConfig::default() };
    let got = run_and_render(&stack, config, &w.requests);
    assert_eq!(expected, got);
}

/// A second stack built identically (same seeds) — fresh counters, same
/// weights and cache contents.
fn stack_clone_fresh(vocab: &Arc<Vocab>, head: &[Vec<String>]) -> ServeStack {
    stack(vocab, head)
}

#[test]
fn worker_count_and_batch_size_do_not_change_responses() {
    let vocab = vocab();
    let w = workload(&vocab);

    let solo_stack = stack(&vocab, &w.head);
    let solo = run_and_render(
        &solo_stack,
        RuntimeConfig { workers: 1, max_batch: 1, max_wait_ticks: 0, ..RuntimeConfig::default() },
        &w.requests,
    );

    let pooled_stack = stack(&vocab, &w.head);
    let pooled = run_and_render(
        &pooled_stack,
        RuntimeConfig { workers: 4, max_batch: 8, ..RuntimeConfig::default() },
        &w.requests,
    );

    assert_eq!(solo, pooled);
}

#[test]
fn capacity_overflow_rejections_are_deterministic() {
    let vocab = vocab();
    let w = workload(&vocab);
    for workers in [1, 4] {
        let stack = stack(&vocab, &w.head);
        let config = RuntimeConfig {
            queue_capacity: 10,
            workers,
            ..RuntimeConfig::default()
        };
        let runtime = Runtime::new(stack.clone(), config);
        let records = runtime.execute(
            w.requests.iter().map(|q| (q.clone(), DeadlineBudget::unlimited())).collect(),
        );
        // execute() submits everything before the pool starts: exactly the
        // overflow beyond capacity is rejected, regardless of worker count.
        let rejected: Vec<u64> = records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Rejected(_)))
            .map(|r| r.id)
            .collect();
        assert_eq!(rejected, (10..w.requests.len() as u64).collect::<Vec<_>>());
        for r in &records {
            if let Outcome::Rejected(err) = &r.outcome {
                assert_eq!(err, &ServeError::QueueFull { capacity: 10 });
            }
        }
        let report = stack.engine.health_report();
        assert_eq!(report.queue_rejections, (w.requests.len() - 10) as u64);
        assert!(report.queue_peak_depth >= 10);
    }
}

#[test]
fn expired_budgets_are_shed_at_dequeue_with_typed_errors() {
    let vocab = vocab();
    let w = workload(&vocab);
    let stack = stack(&vocab, &w.head);
    let runtime = Runtime::new(stack.clone(), RuntimeConfig::default());

    // Synthetic zero budgets are born expired: every request must be shed
    // at dequeue, deterministically, without sleeping.
    let records = runtime.execute(
        w.requests
            .iter()
            .map(|q| (q.clone(), DeadlineBudget::synthetic(Duration::ZERO)))
            .collect(),
    );
    assert_eq!(records.len(), w.requests.len());
    for r in &records {
        match &r.outcome {
            Outcome::Shed(err) => assert_eq!(err, &ServeError::ExpiredInQueue),
            other => panic!("expected shed, got {other:?}"),
        }
    }
    let report = stack.engine.health_report();
    assert_eq!(report.queue_sheds, w.requests.len() as u64);
    assert_eq!(report.queue_rejections, 0);
}

#[test]
fn mixed_live_and_expired_requests_shed_only_the_expired() {
    let vocab = vocab();
    let w = workload(&vocab);
    let stack = stack(&vocab, &w.head);
    let runtime = Runtime::new(stack.clone(), RuntimeConfig::default());

    // Alternate live (synthetic, generous) and born-expired budgets.
    let requests: Vec<_> = w
        .requests
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let budget = if i % 2 == 0 {
                DeadlineBudget::synthetic(Duration::from_secs(60))
            } else {
                DeadlineBudget::synthetic(Duration::ZERO)
            };
            (q.clone(), budget)
        })
        .collect();
    let records = runtime.execute(requests);
    for (i, r) in records.iter().enumerate() {
        match (&r.outcome, i % 2) {
            (Outcome::Served(_), 0) | (Outcome::Shed(_), 1) => {}
            (outcome, _) => panic!("request {i}: unexpected outcome {outcome:?}"),
        }
    }
    let report = stack.engine.health_report();
    assert_eq!(report.queue_sheds, (w.requests.len() / 2) as u64);
}

#[test]
fn closed_loop_call_returns_the_request_record() {
    let vocab = vocab();
    let w = workload(&vocab);
    let stack = stack(&vocab, &w.head);
    let runtime = Runtime::new(stack.clone(), RuntimeConfig::default());

    let query = w.requests[0].clone();
    let records = runtime.run(|rt| {
        let record = rt.call(query.clone(), DeadlineBudget::unlimited());
        assert_eq!(record.query, query);
        assert!(record.response().is_some(), "closed-loop call must be served");
    });
    assert_eq!(records.len(), 1);
    assert!(matches!(records[0].outcome, Outcome::Served(_)));
}

/// A panicking driver must not hang `run`: the queue closes on unwind,
/// the workers exit, and the panic reaches the caller within a bounded
/// time. The runtime stays usable afterwards.
#[test]
fn driver_panic_unwinds_run_and_stops_the_workers() {
    let vocab = vocab();
    let w = workload(&vocab);
    let runtime = Arc::new(Runtime::new(
        stack(&vocab, &w.head),
        RuntimeConfig { workers: 2, ..RuntimeConfig::default() },
    ));
    let query = w.requests[0].clone();

    let (done, finished) = std::sync::mpsc::channel();
    let rt = Arc::clone(&runtime);
    std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(|rt| {
                rt.submit(query, DeadlineBudget::unlimited()).expect("under capacity");
                panic!("injected driver fault");
            })
        }));
        let _ = done.send(outcome.is_err());
    });
    let panicked = finished
        .recv_timeout(Duration::from_secs(60))
        .expect("run hung after its driver panicked");
    assert!(panicked, "the driver's panic must propagate out of run");

    // The workers are gone and the queue reopens for the next run.
    let records = runtime.run(|rt| {
        let record = rt.call(w.requests[1].clone(), DeadlineBudget::unlimited());
        assert!(record.response().is_some());
    });
    assert!(records.iter().any(|r| matches!(r.outcome, Outcome::Served(_))));
}

#[test]
fn duplicate_in_flight_queries_coalesce_without_changing_responses() {
    let vocab = vocab();
    // Six copies of one query plus two distinct ones, all cache misses.
    let mut requests = vec![vec!["w3".to_string(), "w7".to_string()]; 6];
    requests.push(vec!["w1".to_string()]);
    requests.push(vec!["w9".to_string(), "w2".to_string()]);

    let mut batched_stack = stack(&vocab, &[]);
    batched_stack.cache = None;
    let reference_stack = {
        let mut s = stack(&vocab, &[]);
        s.cache = None;
        s
    };
    let expected: Vec<String> = requests
        .iter()
        .map(|q| serve_alone(&reference_stack, q, &ServingConfig::default()))
        .collect();

    let config = RuntimeConfig { workers: 1, max_batch: 8, ..RuntimeConfig::default() };
    let got = run_and_render(&batched_stack, config, &requests);
    assert_eq!(expected, got);

    // Coalescing is visible in decode telemetry: the runtime decoded 3
    // distinct queries where the standalone loop decoded all 8.
    let runtime_steps = batched_stack.engine.health_report().decode_steps;
    let standalone_steps = reference_stack.engine.health_report().decode_steps;
    assert!(runtime_steps > 0);
    assert!(
        runtime_steps < standalone_steps,
        "coalesced decode ({runtime_steps} steps) should do less work than \
         one-at-a-time ({standalone_steps} steps)"
    );
}

/// One batch of 8 cache misses holding 2 distinct queries, 4 copies
/// each: every copy gets its standalone bytes, and the engine's decode
/// counters equal standalone serving of the 2 distinct queries alone.
/// At batch size 1 every request decodes.
#[test]
fn a_batch_decodes_each_distinct_cache_miss_once() {
    let vocab = vocab();
    let (a, b) = (vec!["w3".to_string(), "w7".to_string()], vec!["w9".to_string()]);
    let requests: Vec<Vec<String>> =
        (0..8).map(|i| if i % 2 == 0 { a.clone() } else { b.clone() }).collect();
    let config = ServingConfig::default();
    let decodes = |s: &ServeStack| {
        let r = s.engine.health_report();
        (r.decode_steps, r.decode_tokens)
    };

    let reference = stack(&vocab, &[]);
    let expected: Vec<String> =
        requests.iter().map(|q| serve_alone(&reference, q, &config)).collect();
    let distinct = stack(&vocab, &[]);
    for q in [&a, &b] {
        serve_alone(&distinct, q, &config);
    }
    assert!(decodes(&distinct).0 > 0);

    // One worker on one shard takes all 8 pre-submitted requests as one
    // batch.
    let one_batch =
        RuntimeConfig { workers: 1, shards: 1, max_batch: 8, ..RuntimeConfig::default() };
    let batched = stack(&vocab, &[]);
    assert_eq!(run_and_render(&batched, one_batch.clone(), &requests), expected);
    assert_eq!(decodes(&batched), decodes(&distinct));

    let solo = stack(&vocab, &[]);
    let config = RuntimeConfig { max_batch: 1, ..one_batch };
    assert_eq!(run_and_render(&solo, config, &requests), expected);
    assert_eq!(decodes(&solo), decodes(&reference));
}

#[test]
fn live_catalog_runtime_serves_every_request_under_writer_churn() {
    use qrw_search::CatalogWriter;
    use qrw_serve::{mutation_batches, ChurnMix};

    let vocab = vocab();
    let w = workload(&vocab);
    let docs = synthetic_docs(&vocab, 60, 11);
    let (store, mut writer) = CatalogWriter::bootstrap(docs);
    let mut stack = stack(&vocab, &w.head);
    stack.engine = Arc::new(SearchEngine::live(Arc::clone(&store)));

    let batches = mutation_batches(&vocab, 60, &ChurnMix::feed(12, 17));
    let n_batches = batches.len() as u64;
    let writer_thread = std::thread::spawn(move || {
        for batch in batches {
            writer.apply(batch).expect("in-memory publish cannot fail");
        }
        writer
    });

    let config = RuntimeConfig { workers: 4, max_batch: 8, ..RuntimeConfig::default() };
    let runtime = Runtime::new(stack.clone(), config);
    let records = runtime.execute(
        w.requests.iter().map(|q| (q.clone(), DeadlineBudget::unlimited())).collect(),
    );
    let writer = writer_thread.join().expect("writer must not panic");
    drop(writer);

    // Every request was served from *some* whole epoch: the stamped epoch
    // never exceeds what the writer had published.
    let last = store.current_epoch();
    assert_eq!(last, n_batches, "one epoch per applied batch");
    for r in &records {
        match &r.outcome {
            Outcome::Served(resp) => {
                assert!(resp.epoch <= last, "response from unpublished epoch {}", resp.epoch);
            }
            other => panic!("request {} not served: {other:?}", r.id),
        }
    }

    let report = stack.engine.health_report();
    assert!(report.churn.live_catalog);
    assert_eq!(report.churn.epochs_published, n_batches);
    assert_eq!(report.churn.writer_panics, 0);
    assert_eq!(report.churn.publish_failures, 0);
    assert_eq!(report.churn.pinned_now, 0, "all request pins released");
}

/// Same stack as [`stack`] plus the quantized-student rung between the
/// cache and the teacher.
fn stack_with_student(vocab: &Arc<Vocab>, head: &[Vec<String>]) -> ServeStack {
    let mut s = stack(vocab, head);
    let model = Seq2Seq::new(ModelConfig::student(vocab.len()), MODEL_SEED + 1);
    let student = qrw_nmt::QuantStudent::from_seq2seq(&model).expect("transformer student");
    s.student =
        Some(Arc::new(Q2QRewriter::new(Arc::new(student), Arc::clone(vocab), 8, REWRITE_SEED)));
    s
}

#[test]
fn student_rung_keeps_batched_responses_identical_to_standalone_serving() {
    let vocab = vocab();
    let w = workload(&vocab);

    // Reference: the same student-bearing stack, each request served alone.
    let reference_stack = stack_with_student(&vocab, &w.head);
    let expected: Vec<String> = w
        .requests
        .iter()
        .map(|q| serve_alone(&reference_stack, q, &ServingConfig::default()))
        .collect();

    let batched_stack = stack_with_student(&vocab, &w.head);
    let config = RuntimeConfig { workers: 4, max_batch: 8, ..RuntimeConfig::default() };
    let got = run_and_render(&batched_stack, config, &w.requests);
    assert_eq!(expected, got);

    // The student answered the decode misses: its rung and telemetry moved,
    // and the teacher only saw slots the student left empty.
    let report = batched_stack.engine.health_report();
    assert!(report.served_student > 0, "student rung never served: {report:?}");
    assert!(report.student_steps > 0, "student decode telemetry never recorded");
    assert!(report.student_micros > 0, "student decode wall time never recorded");
    assert_eq!(
        report.served_cache + report.served_student + report.served_online
            + report.served_baseline
            + report.served_raw,
        w.requests.len() as u64,
    );

    // The runtime's health report counts exactly what standalone serving
    // counts: every request decodes through its own student rung, once.
    let alone = reference_stack.engine.health_report();
    let counters = |r: &qrw_search::HealthReport| {
        [
            ("student_steps", r.student_steps),
            ("student_tokens", r.student_tokens),
            ("served_cache", r.served_cache),
            ("served_student", r.served_student),
            ("served_online", r.served_online),
            ("served_baseline", r.served_baseline),
            ("served_raw", r.served_raw),
        ]
    };
    assert_eq!(counters(&report), counters(&alone));
}

#[test]
fn run_reports_requests_and_cache_traffic_in_health_report() {
    let vocab = vocab();
    let w = workload(&vocab);
    let stack = stack(&vocab, &w.head);
    let runtime = Runtime::new(stack.clone(), RuntimeConfig::default());
    let records = runtime.execute(
        w.requests.iter().map(|q| (q.clone(), DeadlineBudget::unlimited())).collect(),
    );
    assert!(records.iter().all(|r| matches!(r.outcome, Outcome::Served(_))));

    let report = stack.engine.health_report();
    assert_eq!(report.requests, w.requests.len() as u64);
    let cache = stack.cache.as_ref().unwrap();
    // Every request consulted the cache exactly once (head hits + tail
    // misses add up to the request count).
    assert_eq!(cache.hits() + cache.misses(), w.requests.len() as u64);
    assert!(cache.hits() > 0, "head-mix requests should hit the prefilled cache");
    assert!(cache.misses() > 0, "tail requests should miss the cache");
}
