//! Scheduler-invariant tests: the sharded FIFO scheduler proven
//! byte-transparent. Seeded property-style runs assert, across the
//! {1, 2, 4} shards × {1, 4} workers matrix:
//!
//! * **exactly-once termination** — every submitted request produces
//!   exactly one record (served / shed / rejected / failed), never zero,
//!   never two, under mixed live + born-expired + overflow load;
//! * **outcome determinism** — per-request outcomes (and served response
//!   *bytes*) are identical whatever the shard count, worker count, or
//!   steal schedule;
//! * **steal transparency** — responses produced via the steal path
//!   (every shard but one stalled, so siblings' backlogs are rescued by
//!   work-stealing) are byte-identical to all-home execution;
//! * **submit-time backpressure** — a full admission budget rejects with
//!   `ServeError::QueueFull` at submit, before any shard FIFO is touched,
//!   and the overflow set is deterministic;
//! * **closed-loop rendezvous** — a blocking `call` returns the same
//!   record the runtime publishes, exactly once.
//!
//! The synthetic clock (`DeadlineBudget::synthetic`) keeps shed behaviour
//! deterministic and the suite sleep-free.

use std::sync::Arc;
use std::time::Duration;

use qrw_core::{Q2QRewriter, QueryRewriter};
use qrw_nmt::{ModelConfig, Seq2Seq};
use qrw_search::{
    DeadlineBudget, Fault, Faults, InvertedIndex, RewriteCache, SearchEngine, ServeError, Site,
};
use qrw_serve::{synthetic_docs, MixConfig, Outcome, Runtime, RuntimeConfig, ServeStack, Workload};
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

/// Fresh serving stack (fresh breaker/telemetry state) per run, so no
/// state bleeds between the configs being compared.
fn fresh_stack(vocab: &Arc<Vocab>, head: &[Vec<String>]) -> ServeStack {
    let docs = synthetic_docs(vocab, 60, 11);
    let engine = Arc::new(SearchEngine::new(InvertedIndex::build(docs)));
    let model = Arc::new(Seq2Seq::new(ModelConfig::tiny_transformer(vocab.len()), MODEL_SEED));
    let online = Arc::new(Q2QRewriter::new(model, Arc::clone(vocab), 8, REWRITE_SEED));
    let cache = Arc::new(RewriteCache::new());
    for q in head {
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

fn workload(vocab: &Vocab, seed: u64) -> Workload {
    Workload::generate(
        vocab,
        &MixConfig {
            requests: 24,
            head_fraction: 0.5,
            head_queries: 6,
            tail_len: (1, 3),
            tail_pool: 5,
            seed,
        },
    )
}

/// The shards × workers matrix the scheduler must be transparent over.
const MATRIX: [(usize, usize); 6] = [(1, 1), (1, 4), (2, 1), (2, 4), (4, 1), (4, 4)];

fn sched_config(shards: usize, workers: usize) -> RuntimeConfig {
    RuntimeConfig { shards, workers, ..RuntimeConfig::default() }
}

/// Mixed load: every third request is born expired (shed at dequeue),
/// the rest unlimited (served).
fn mixed_requests(w: &Workload) -> Vec<(Vec<String>, DeadlineBudget)> {
    w.requests
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let budget = if i % 3 == 2 {
                DeadlineBudget::synthetic(Duration::ZERO)
            } else {
                DeadlineBudget::unlimited()
            };
            (q.clone(), budget)
        })
        .collect()
}

/// A fault schedule that wedges the workers homed to `homes`.
fn wedged(homes: &[usize]) -> Faults {
    homes.iter().fold(Faults::default(), |f, &h| f.always(Site::WorkerHome(h), Fault::Wedge))
}

/// One run's canonical rendering: per request id, its outcome's `Debug`
/// bytes (the byte-transparency oracle — served responses include every
/// document id, score, degradation event and rung attribution).
fn render(
    vocab: &Arc<Vocab>,
    w: &Workload,
    config: RuntimeConfig,
    faults: Faults,
    requests: Vec<(Vec<String>, DeadlineBudget)>,
) -> Vec<(u64, String)> {
    let submitted = requests.len();
    let runtime = Runtime::new(fresh_stack(vocab, &w.head), config);
    runtime.stack().engine.set_faults(Some(Arc::new(faults)));
    let records = runtime.execute(requests);
    // Exactly-once termination: one record per submission, ids 0..n,
    // no duplicates, no losses.
    assert_eq!(records.len(), submitted, "every request terminates exactly once");
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.id, i as u64, "ids are dense: no duplicate or lost record");
    }
    records.iter().map(|r| (r.id, format!("{:?}", r.outcome))).collect()
}

/// Exactly-once termination and outcome determinism over the full
/// shards × workers matrix, under mixed live/expired load plus admission
/// overflow, for two workload seeds.
#[test]
fn outcomes_are_deterministic_across_the_shard_worker_matrix() {
    let vocab = vocab();
    for seed in [5u64, 17] {
        let w = workload(&vocab, seed);
        // capacity 16 < 24 requests: ids 16.. are deterministically
        // rejected because `execute` submits everything up front.
        let capacity = 16usize;
        let mut baseline: Option<Vec<(u64, String)>> = None;
        for (shards, workers) in MATRIX {
            let config =
                RuntimeConfig { queue_capacity: capacity, ..sched_config(shards, workers) };
            let rendered = render(&vocab, &w, config, Faults::default(), mixed_requests(&w));
            // The outcome mix is as constructed: overflow rejected, every
            // third admitted request shed, the rest served.
            for (id, bytes) in &rendered {
                if *id >= capacity as u64 {
                    assert!(bytes.starts_with("Rejected"), "id {id}: {bytes}");
                } else if *id % 3 == 2 {
                    assert!(bytes.starts_with("Shed"), "id {id}: {bytes}");
                } else {
                    assert!(bytes.starts_with("Served"), "id {id}: {bytes}");
                }
            }
            match &baseline {
                None => baseline = Some(rendered),
                Some(base) => assert_eq!(
                    base, &rendered,
                    "seed {seed}: outcomes must be byte-identical at \
                     shards={shards} workers={workers}"
                ),
            }
        }
    }
}

/// Steal-path transparency: with every shard but one stalled, the only
/// live worker serves the whole workload by stealing its siblings'
/// backlogs — and every response is byte-identical to the all-home
/// single-shard run.
#[test]
fn stolen_responses_are_byte_identical_to_home_shard_execution() {
    let vocab = vocab();
    let w = workload(&vocab, 5);
    let all_home = render(&vocab, &w, sched_config(1, 1), Faults::default(), mixed_requests(&w));
    let stalled = render(&vocab, &w, sched_config(4, 4), wedged(&[1, 2, 3]), mixed_requests(&w));
    assert_eq!(all_home, stalled, "steal-path responses must match home-shard bytes");
}

/// A full admission budget rejects at submit with the typed error — the
/// request never reaches a shard FIFO — and the runtime still publishes a
/// `Rejected` record for it.
#[test]
fn full_mailboxes_reject_at_submit_with_queue_full() {
    let vocab = vocab();
    let w = workload(&vocab, 5);
    let capacity = 4usize;
    let config = RuntimeConfig { queue_capacity: capacity, ..sched_config(2, 2) };
    let runtime = Runtime::new(fresh_stack(&vocab, &w.head), config);

    let submitted = 10usize;
    for (i, q) in w.requests.iter().take(submitted).enumerate() {
        let result = runtime.submit(q.clone(), DeadlineBudget::unlimited());
        if i < capacity {
            assert_eq!(result, Ok(i as u64), "under budget: admitted");
        } else {
            assert_eq!(
                result,
                Err(ServeError::QueueFull { capacity }),
                "over budget: typed rejection at submit"
            );
        }
    }
    let records = runtime.run(|_| {});
    assert_eq!(records.len(), submitted);
    for r in &records {
        if r.id < capacity as u64 {
            assert!(matches!(r.outcome, Outcome::Served(_)), "id {}", r.id);
        } else {
            assert!(
                matches!(r.outcome, Outcome::Rejected(ServeError::QueueFull { .. })),
                "id {}",
                r.id
            );
        }
    }
}

/// Closed-loop rendezvous: `call` blocks until the worker publishes the
/// record, returns that exact record, and the runtime's result log holds
/// it exactly once (no duplicate fulfilment on the steal path either).
#[test]
fn closed_loop_call_returns_each_record_exactly_once() {
    let vocab = vocab();
    let w = workload(&vocab, 5);
    let runtime = Runtime::new(fresh_stack(&vocab, &w.head), sched_config(4, 4));
    // Stall all but shard 0 so closed-loop calls routed elsewhere can only
    // complete via steals.
    runtime.stack().engine.set_faults(Some(Arc::new(wedged(&[1, 2, 3]))));

    let mut returned: Vec<(u64, String)> = Vec::new();
    let records = runtime.run(|rt| {
        for q in w.requests.iter().take(8) {
            let rec = rt.call(q.clone(), DeadlineBudget::unlimited());
            assert!(matches!(rec.outcome, Outcome::Served(_)));
            returned.push((rec.id, format!("{:?}", rec.outcome)));
        }
    });
    assert_eq!(records.len(), 8, "one published record per call");
    let published: Vec<(u64, String)> =
        records.iter().map(|r| (r.id, format!("{:?}", r.outcome))).collect();
    assert_eq!(returned, published, "the rendezvous record is the published record");
}

/// Worker-panic containment composes with work-stealing: with panics
/// injected on stolen requests, the failing request is the only casualty —
/// its batch-mates and the rest of the workload still serve, and the
/// outcome set stays deterministic.
#[test]
fn injected_panics_on_stolen_requests_fail_only_those_requests() {
    let vocab = vocab();
    let w = workload(&vocab, 5);
    let doomed = [2u64, 9];
    let runtime = Runtime::new(fresh_stack(&vocab, &w.head), sched_config(4, 4));
    let faults =
        doomed.iter().fold(wedged(&[1, 2, 3]), |f, &id| f.always(Site::Request(id), Fault::Panic));
    runtime.stack().engine.set_faults(Some(Arc::new(faults)));
    let records = runtime
        .execute(w.requests.iter().map(|q| (q.clone(), DeadlineBudget::unlimited())).collect());
    assert_eq!(records.len(), w.requests.len());
    for r in &records {
        if doomed.contains(&r.id) {
            assert!(
                matches!(r.outcome, Outcome::Failed(ServeError::EnginePanic)),
                "id {}: {:?}",
                r.id,
                r.outcome
            );
        } else {
            assert!(matches!(r.outcome, Outcome::Served(_)), "id {}: {:?}", r.id, r.outcome);
        }
    }
}
