//! Small-scale load-generation run for the concurrent serving runtime,
//! persisting throughput and latency percentiles as `BENCH_serve.json`.
//!
//! Wired into `scripts/verify.sh --load-smoke`. Replays a seeded request
//! mix (KV-hit-heavy head + decode-heavy tail) three ways:
//!
//! * **sequential** — one request at a time through `search_resilient`,
//!   the pre-runtime serving mode (the baseline);
//! * **open-loop** — all requests submitted up front, drained by the
//!   runtime's worker pool in dynamic micro-batches;
//! * **closed-loop** — a fixed number of driver threads, each blocking on
//!   its request before issuing the next.
//!
//! Fails unless (a) the runtime's responses on the tail mix are
//! byte-identical to the sequential baseline's, (b) `BENCH_serve.json`
//! re-validates against the harness schema, and (c) open-loop micro-batched
//! throughput on the decode-heavy tail mix is at least
//! [`MIN_BATCHED_SPEEDUP`]x the sequential baseline. It also drives the
//! runtime into overload (queue capacity below the offered load) and
//! requires the typed reject/shed accounting to surface in
//! `health_report()`.
//!
//! The `sched_scaling/*` section sweeps the mailbox scheduler at shard
//! counts {1, 2, 4} (wired as `scripts/verify.sh --sched-smoke`):
//! responses must stay byte-identical to the sequential baseline at every
//! count, and the virtual-cost p99 (computed from the scheduler's own
//! minted `batch_form` spans — see [`virtual_p99`]) at 4 shards must not
//! exceed the 1-shard value on the burst mix. The virtual p99 is one
//! sample per shard count and moves run to run: batch composition
//! depends on worker start timing.

use std::collections::HashSet;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qrw_bench::harness::{
    group, validate_bench_json, validate_sched_json, validate_shard_json, BenchRecord, Sample,
};
use qrw_core::{Q2QRewriter, QueryRewriter};
use qrw_nmt::{ModelConfig, Seq2Seq};
use qrw_obs::{taxonomy, SpanRecord, Tracer, MINTED_TRACE_BIT};
use qrw_search::{
    DeadlineBudget, Fault, Faults, InvertedIndex, RewriteCache, RewriteLadder, SearchEngine,
    ServeError, ServingConfig, Site,
};
use qrw_serve::{
    synthetic_docs, MixConfig, Outcome, Runtime, RuntimeConfig, ServeStack, Workload,
};
use qrw_text::Vocab;

/// Minimum open-loop batched-vs-sequential throughput ratio accepted on
/// the decode-heavy tail mix. The margin comes from coalescing: the
/// requests of one micro-batch that repeat a tail query share its online
/// decode through the runtime's per-batch memo.
const MIN_BATCHED_SPEEDUP: f64 = 2.0;

const VOCAB_WORDS: usize = 24;
const REQUESTS: usize = 48;
const DOCS: usize = 120;
const MODEL_SEED: u64 = 41;
const REWRITE_SEED: u64 = 7;
const MIX_SEED: u64 = 13;
const REPS: usize = 5;
const CLOSED_LOOP_DRIVERS: usize = 4;

fn main() -> ExitCode {
    let (out_dir, full_sweep) = parse_args();
    let vocab = build_vocab();
    let tail = Workload::generate(&vocab, &MixConfig::tail_heavy(REQUESTS, MIX_SEED));
    let head = Workload::generate(&vocab, &MixConfig::head_heavy(REQUESTS, MIX_SEED));
    let mut record = BenchRecord::new("serve");

    // --- Decode-heavy tail mix: sequential baseline vs open-loop runtime.
    group("tail mix (decode-heavy, open-loop)");
    let mut seq_ns = Vec::new();
    let mut bat_ns = Vec::new();
    let mut bat_latencies: Vec<u128> = Vec::new();
    let mut engine_report = None;
    for rep in 0..=REPS {
        let warmup = rep == 0;

        let stack = build_stack(&vocab, &tail.head);
        let (seq_total, seq_responses) = run_sequential(&stack, &tail.requests);

        let stack = build_stack(&vocab, &tail.head);
        let engine = Arc::clone(&stack.engine);
        let runtime = Runtime::new(stack, open_loop_config());
        let t0 = Instant::now();
        let records = runtime.execute(
            tail.requests.iter().map(|q| (q.clone(), DeadlineBudget::unlimited())).collect(),
        );
        let bat_total = t0.elapsed();

        let bat_responses: Vec<String> = records
            .iter()
            .map(|r| match &r.outcome {
                Outcome::Served(resp) => format!("{resp:?}"),
                other => panic!("tail request {} not served: {other:?}", r.id),
            })
            .collect();
        if seq_responses != bat_responses {
            eprintln!("load_smoke: batched responses diverge from the sequential baseline");
            return ExitCode::FAILURE;
        }
        if warmup {
            continue;
        }
        seq_ns.push(seq_total.as_nanos() / REQUESTS as u128);
        bat_ns.push(bat_total.as_nanos() / REQUESTS as u128);
        bat_latencies = records.iter().map(|r| r.latency.as_nanos()).collect();
        engine_report = Some(engine.health_report());
    }
    let seq_sample = to_sample(&mut seq_ns);
    let bat_sample = to_sample(&mut bat_ns);
    print_sample("tail/sequential_ns_per_req", seq_sample);
    print_sample("tail/batched_open_loop_ns_per_req", bat_sample);
    record.push("tail/sequential_ns_per_req", seq_sample);
    record.push("tail/batched_open_loop_ns_per_req", bat_sample);

    bat_latencies.sort_unstable();
    for (label, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
        let name = format!("tail/open_loop_latency_{label}");
        let s = point_sample(percentile(&bat_latencies, q));
        print_sample(&name, s);
        record.push(name, s);
    }

    // The same percentiles as the engine's mergeable log-bucketed
    // histogram reports them (µs buckets, so ns for the record): what
    // `health_report()` would surface in production, persisted alongside
    // the exact per-record numbers for cross-checking.
    let report = engine_report.expect("at least one measured rep");
    assert_eq!(report.latency_count, REQUESTS as u64, "one histogram sample per served request");
    for (label, us) in [
        ("p50", report.latency_p50_us),
        ("p95", report.latency_p95_us),
        ("p99", report.latency_p99_us),
    ] {
        let name = format!("tail/hist_latency_{label}_us");
        let s = point_sample(us as u128);
        print_sample(&name, s);
        record.push(name, s);
    }

    // --- Closed-loop latency on the same mix: each driver waits for its
    // response before sending the next request.
    group("tail mix (closed-loop)");
    let stack = build_stack(&vocab, &tail.head);
    let runtime = Runtime::new(stack, open_loop_config());
    let records = runtime.run(|rt| {
        std::thread::scope(|scope| {
            for d in 0..CLOSED_LOOP_DRIVERS {
                let requests = &tail.requests;
                scope.spawn(move || {
                    for q in requests.iter().skip(d).step_by(CLOSED_LOOP_DRIVERS) {
                        let rec = rt.call(q.clone(), DeadlineBudget::unlimited());
                        assert!(
                            matches!(rec.outcome, Outcome::Served(_)),
                            "closed-loop request must be served"
                        );
                    }
                });
            }
        });
    });
    let mut closed_latencies: Vec<u128> =
        records.iter().map(|r| r.latency.as_nanos()).collect();
    closed_latencies.sort_unstable();
    for (label, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
        let name = format!("tail/closed_loop_latency_{label}");
        let s = point_sample(percentile(&closed_latencies, q));
        print_sample(&name, s);
        record.push(name, s);
    }

    // --- KV-hit-heavy head mix through the runtime, for trajectory
    // context: most requests are answered from the sharded rewrite cache.
    group("head mix (KV-hit-heavy, open-loop)");
    let mut head_ns = Vec::new();
    for _ in 0..REPS {
        let stack = build_stack(&vocab, &head.head);
        let runtime = Runtime::new(stack, open_loop_config());
        let t0 = Instant::now();
        let records = runtime.execute(
            head.requests.iter().map(|q| (q.clone(), DeadlineBudget::unlimited())).collect(),
        );
        head_ns.push(t0.elapsed().as_nanos() / REQUESTS as u128);
        assert!(records.iter().all(|r| matches!(r.outcome, Outcome::Served(_))));
    }
    let head_sample = to_sample(&mut head_ns);
    print_sample("head/batched_open_loop_ns_per_req", head_sample);
    record.push("head/batched_open_loop_ns_per_req", head_sample);

    // --- Shard-scaling sweep: the scatter-gather tier at increasing
    // shard counts (byte-identical to the monolith at every count) plus
    // the partial-results rate under a permanently poisoned shard.
    if let Err(e) = shard_scaling(&vocab, &tail, full_sweep, &mut record) {
        eprintln!("load_smoke: {e}");
        return ExitCode::FAILURE;
    }

    // --- Scheduler-scaling sweep: the mailbox scheduler at shard counts
    // {1, 2, 4} (byte-identical to the sequential baseline at every
    // count) plus the virtual-cost p99 scaling bar.
    if let Err(e) = sched_scaling(&vocab, &tail, &mut record) {
        eprintln!("load_smoke: {e}");
        return ExitCode::FAILURE;
    }

    // --- Persist + re-validate against the harness schema (general +
    // the shard-scaling entry contract).
    let path = out_dir.join("BENCH_serve.json");
    match record.write_validated(&path) {
        Ok(_) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("load_smoke: {e}");
            return ExitCode::FAILURE;
        }
    }
    let text = std::fs::read_to_string(&path).expect("re-read bench file");
    if let Err(e) = validate_bench_json(&text) {
        eprintln!("load_smoke: {} is malformed: {e}", path.display());
        return ExitCode::FAILURE;
    }
    if let Err(e) = validate_shard_json(&text) {
        eprintln!("load_smoke: {} misses the shard-scaling contract: {e}", path.display());
        return ExitCode::FAILURE;
    }
    if let Err(e) = validate_sched_json(&text) {
        eprintln!("load_smoke: {} misses the sched-scaling contract: {e}", path.display());
        return ExitCode::FAILURE;
    }

    // --- The acceptance bar. Best-of-reps on both sides: the mins are the
    // runs least disturbed by the host, so their ratio is the stable
    // estimate of the structural speedup (coalescing of repeated tail
    // queries; multi-core adds worker parallelism on top).
    let speedup = seq_sample.min_ns as f64 / bat_sample.min_ns.max(1) as f64;
    println!("micro-batched open-loop speedup over sequential (tail mix): {speedup:.2}x");
    if speedup < MIN_BATCHED_SPEEDUP {
        eprintln!(
            "load_smoke: batched throughput {speedup:.2}x below the {MIN_BATCHED_SPEEDUP}x bar \
             (sequential best {} ns/req, batched best {} ns/req)",
            seq_sample.min_ns, bat_sample.min_ns
        );
        return ExitCode::FAILURE;
    }

    // --- Overload: offered load beyond queue capacity must shed with
    // typed errors and show up in the health counters, not queue
    // unboundedly.
    if let Err(e) = overload_demo(&vocab, &tail) {
        eprintln!("load_smoke: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn parse_args() -> (PathBuf, bool) {
    let mut args = std::env::args().skip(1);
    let mut out = PathBuf::from(".");
    let mut full_sweep = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = PathBuf::from(args.next().expect("--out needs a directory")),
            "--shard-sweep-full" => full_sweep = true,
            other => panic!(
                "unknown argument {other:?} (usage: load_smoke [--out DIR] [--shard-sweep-full])"
            ),
        }
    }
    (out, full_sweep)
}

fn build_vocab() -> Arc<Vocab> {
    let mut v = Vocab::new();
    for i in 0..VOCAB_WORDS {
        v.insert(&format!("w{i}"));
    }
    Arc::new(v)
}

/// Engine + prefilled cache + batched online model, rebuilt identically
/// (same seeds) for every measurement so no run inherits warm state.
fn build_stack(vocab: &Arc<Vocab>, head: &[Vec<String>]) -> ServeStack {
    let docs = synthetic_docs(vocab, DOCS, 11);
    let engine = Arc::new(SearchEngine::new(InvertedIndex::build(docs)));
    let model = Arc::new(Seq2Seq::new(ModelConfig::tiny_transformer(vocab.len()), MODEL_SEED));
    let online = Arc::new(Q2QRewriter::new(model, Arc::clone(vocab), 40, REWRITE_SEED));
    let cache = Arc::new(RewriteCache::new());
    for q in head {
        cache.insert(q, online.rewrite(q, ServingConfig::default().max_rewrites));
    }
    ServeStack { engine, cache: Some(cache), student: None, online: Some(online), baseline: None, models: None }
}

fn open_loop_config() -> RuntimeConfig {
    RuntimeConfig {
        queue_capacity: REQUESTS,
        max_batch: 16,
        workers: 2,
        ..RuntimeConfig::default()
    }
}

/// The pre-runtime serving mode: one request at a time on one thread.
fn run_sequential(stack: &ServeStack, requests: &[Vec<String>]) -> (Duration, Vec<String>) {
    let cfg = ServingConfig::default();
    let online = stack.online.as_deref().map(|o| o as &dyn QueryRewriter);
    let t0 = Instant::now();
    let responses = requests
        .iter()
        .map(|q| {
            let ladder = RewriteLadder {
                cache: stack.cache.as_deref(),
                student: stack.student.as_deref().map(|s| s as &dyn QueryRewriter),
                online,
                baseline: None,
            };
            let resp =
                stack.engine.search_resilient(q, ladder, &cfg, &DeadlineBudget::unlimited(), None);
            format!("{resp:?}")
        })
        .collect();
    (t0.elapsed(), responses)
}

/// Like [`build_stack`], but the engine serves through the scatter-gather
/// tier at `shards` shards.
fn build_sharded_stack(vocab: &Arc<Vocab>, head: &[Vec<String>], shards: usize) -> ServeStack {
    let docs = synthetic_docs(vocab, DOCS, 11);
    let engine = Arc::new(SearchEngine::sharded(InvertedIndex::build(docs), shards));
    let model = Arc::new(Seq2Seq::new(ModelConfig::tiny_transformer(vocab.len()), MODEL_SEED));
    let online = Arc::new(Q2QRewriter::new(model, Arc::clone(vocab), 40, REWRITE_SEED));
    let cache = Arc::new(RewriteCache::new());
    for q in head {
        cache.insert(q, online.rewrite(q, ServingConfig::default().max_rewrites));
    }
    ServeStack { engine, cache: Some(cache), student: None, online: Some(online), baseline: None, models: None }
}

/// Sweeps shard counts, requiring byte-identical responses at every
/// count, then measures serving with one shard permanently poisoned: the
/// partial-results rate must be exactly 1000‰ (every response ranked,
/// stamped `shards_ok = N-1`, never an error).
fn shard_scaling(
    vocab: &Arc<Vocab>,
    tail: &Workload,
    full_sweep: bool,
    record: &mut BenchRecord,
) -> Result<(), String> {
    let counts: &[usize] = if full_sweep { &[1, 2, 4, 8] } else { &[1, 4] };
    group(if full_sweep {
        "shard scaling (counts 1/2/4/8, byte-transparency enforced)"
    } else {
        "shard scaling (counts 1/4, byte-transparency enforced; full sweep under QRW_VERIFY_BUDGET=full)"
    });

    let mono = build_stack(vocab, &tail.head);
    let (_, mono_responses) = run_sequential(&mono, &tail.requests);

    for &shards in counts {
        let mut ns = Vec::new();
        for rep in 0..=REPS {
            let stack = build_sharded_stack(vocab, &tail.head, shards);
            let (total, responses) = run_sequential(&stack, &tail.requests);
            if responses != mono_responses {
                return Err(format!(
                    "sharded responses at {shards} shards diverge from the monolith"
                ));
            }
            if rep > 0 {
                ns.push(total.as_nanos() / REQUESTS as u128);
            }
        }
        let s = to_sample(&mut ns);
        let name = format!("shard_scaling/s{shards}_ns_per_req");
        print_sample(&name, s);
        record.push(name, s);
    }

    // Fault-injected run: poison one shard of the largest swept tier and
    // serve the whole mix. Every response must degrade to partial
    // results — never an error, never an empty shard accounting.
    let shards = *counts.last().expect("non-empty sweep");
    let stack = build_sharded_stack(vocab, &tail.head, shards);
    let poison = Faults::default().always(Site::Shard(0), Fault::Panic);
    stack.engine.set_faults(Some(Arc::new(poison)));
    let cfg = ServingConfig::default();
    let t0 = Instant::now();
    let mut partial = 0usize;
    for q in &tail.requests {
        let ladder = RewriteLadder {
            cache: stack.cache.as_deref(),
            student: None,
            online: stack.online.as_deref().map(|o| o as &dyn QueryRewriter),
            baseline: None,
        };
        let resp =
            stack.engine.search_resilient(q, ladder, &cfg, &DeadlineBudget::unlimited(), None);
        if resp.shards_ok != shards - 1 || resp.shards_total != shards {
            return Err(format!(
                "poisoned tier served {}/{} shards, expected {}/{}",
                resp.shards_ok,
                resp.shards_total,
                shards - 1,
                shards
            ));
        }
        if !resp
            .degradations
            .iter()
            .any(|e| matches!(e, ServeError::PartialResults { .. }))
        {
            return Err("partial response without a PartialResults degradation".into());
        }
        partial += 1;
    }
    let total = t0.elapsed();
    let rate_permille = (partial * 1000 / tail.requests.len()) as u128;
    let partial_sample = point_sample(total.as_nanos() / REQUESTS as u128);
    print_sample("shard_scaling/partial_ns_per_req", partial_sample);
    record.push("shard_scaling/partial_ns_per_req", partial_sample);
    let rate_sample = point_sample(rate_permille);
    print_sample("shard_scaling/partial_rate_permille", rate_sample);
    record.push("shard_scaling/partial_rate_permille", rate_sample);
    if rate_permille != 1000 {
        return Err(format!(
            "expected every request partial under a permanently poisoned shard, got {rate_permille}‰"
        ));
    }
    let report = stack.engine.health_report();
    if report.partial_results != tail.requests.len() as u64 {
        return Err("health_report() partial_results disagrees with the served count".into());
    }
    Ok(())
}

/// Relative cost of a request that needs a neural decode vs a cache hit
/// in the virtual service-cost model (decode dominates a batch's latency;
/// the exact weight only has to keep decode-heavy work visibly heavy).
const DECODE_VCOST_WEIGHT: u128 = 8;

/// Like [`build_stack`], but with a logical-clock tracer on the engine so
/// the scheduler mints `batch_form` spans to compute virtual costs from.
fn build_traced_stack(vocab: &Arc<Vocab>, head: &[Vec<String>], tracer: &Tracer) -> ServeStack {
    let docs = synthetic_docs(vocab, DOCS, 11);
    let engine =
        Arc::new(SearchEngine::new(InvertedIndex::build(docs)).with_tracer(tracer.clone()));
    let model = Arc::new(Seq2Seq::new(ModelConfig::tiny_transformer(vocab.len()), MODEL_SEED));
    let online = Arc::new(Q2QRewriter::new(model, Arc::clone(vocab), 40, REWRITE_SEED));
    let cache = Arc::new(RewriteCache::new());
    for q in head {
        cache.insert(q, online.rewrite(q, ServingConfig::default().max_rewrites));
    }
    ServeStack { engine, cache: Some(cache), student: None, online: Some(online), baseline: None, models: None }
}

/// Virtual p99 from the scheduler's minted `batch_form` spans: per
/// worker, the cumulative service cost (`size + DECODE_VCOST_WEIGHT ×
/// decodes` per batch, where a batch's decodes are the requests among its
/// `ids` whose own trace holds a `rung_online` span) in batch-formation
/// order; every request in a batch completes at its worker's cumulative
/// cost after that batch; p99 over requests. Per-request costs are
/// scheduling-invariant (each request contributes `1 + weight` or `1`
/// wherever it runs), so the per-worker sums are a partition of a fixed
/// workload — the metric measures how evenly the scheduler spreads work,
/// independent of host core count. The partition itself is not
/// deterministic: which requests share a batch and which worker takes it
/// depend on worker start timing (the `max_wait_ticks` fill window,
/// steals), so identical code gives 144–384 at 4 shards run to run.
fn virtual_p99(spans: &[SpanRecord]) -> u128 {
    let decoded: HashSet<u64> = spans
        .iter()
        .filter(|s| s.trace & MINTED_TRACE_BIT == 0 && s.name == "rung_online")
        .map(|s| s.trace)
        .collect();
    let mut cum: std::collections::BTreeMap<i64, u128> = std::collections::BTreeMap::new();
    let mut completions: Vec<u128> = Vec::new();
    // The snapshot is sorted by start tick, so each worker's batches
    // appear in formation order.
    for s in spans.iter().filter(|s| s.name == taxonomy::BATCH_FORM) {
        let worker = s.attr("worker").and_then(|v| v.as_int()).expect("batch_form worker attr");
        let size = s.attr("size").and_then(|v| v.as_int()).expect("batch_form size attr") as u128;
        let ids = s.attr("ids").and_then(|v| v.as_str()).expect("batch_form ids attr");
        let decodes = ids
            .split(',')
            .filter(|id| decoded.contains(&id.parse::<u64>().expect("batch_form request id")))
            .count() as u128;
        let c = cum.entry(worker).or_insert(0);
        *c += size + DECODE_VCOST_WEIGHT * decodes;
        for _ in 0..size {
            completions.push(*c);
        }
    }
    completions.sort_unstable();
    percentile(&completions, 0.99)
}

/// Sweeps the mailbox scheduler over shard counts {1, 2, 4} (workers ==
/// shards) on the decode-heavy burst mix, requiring byte-identical
/// responses to the sequential baseline at every count, and records both
/// wall-clock ns/req (informational) and the virtual-cost p99 (one
/// timing-dependent sample per count). Fails unless virtual p99 at 4
/// shards ≤ virtual p99 at 1 shard — the scheduler-scaling bar,
/// re-enforced at read time by `validate_sched_json`.
fn sched_scaling(
    vocab: &Arc<Vocab>,
    tail: &Workload,
    record: &mut BenchRecord,
) -> Result<(), String> {
    group("scheduler scaling (mailbox shards 1/2/4, byte-transparency + virtual-p99 bar)");
    let mono = build_stack(vocab, &tail.head);
    let (_, baseline) = run_sequential(&mono, &tail.requests);

    let mut vcosts: Vec<(usize, u128)> = Vec::new();
    for &shards in &[1usize, 2, 4] {
        let tracer = Tracer::logical();
        let stack = build_traced_stack(vocab, &tail.head, &tracer);
        let runtime = Runtime::new(
            stack,
            RuntimeConfig {
                queue_capacity: REQUESTS,
                max_batch: 16,
                workers: shards,
                shards,
                ..RuntimeConfig::default()
            },
        );
        let t0 = Instant::now();
        let records = runtime.execute(
            tail.requests.iter().map(|q| (q.clone(), DeadlineBudget::unlimited())).collect(),
        );
        let total = t0.elapsed();
        let responses: Vec<String> = records
            .iter()
            .map(|r| match &r.outcome {
                Outcome::Served(resp) => format!("{resp:?}"),
                other => panic!("sched request {} not served: {other:?}", r.id),
            })
            .collect();
        if responses != baseline {
            return Err(format!(
                "scheduler responses at {shards} shards diverge from the sequential baseline"
            ));
        }
        let p99v = virtual_p99(&tracer.snapshot());
        let ns = point_sample(total.as_nanos() / REQUESTS as u128);
        let name = format!("sched_scaling/s{shards}_ns_per_req");
        print_sample(&name, ns);
        record.push(name, ns);
        let vs = point_sample(p99v);
        let name = format!("sched_scaling/s{shards}_p99_vcost");
        print_sample(&name, vs);
        record.push(name, vs);
        vcosts.push((shards, p99v));
    }

    let v1 = vcosts.iter().find(|(s, _)| *s == 1).expect("swept").1;
    let v4 = vcosts.iter().find(|(s, _)| *s == 4).expect("swept").1;
    println!("virtual p99 (service units): 1 shard {v1}, 4 shards {v4}");
    if v4 > v1 {
        return Err(format!(
            "virtual p99 at 4 shards ({v4}) exceeds 1 shard ({v1}) on the burst mix"
        ));
    }
    Ok(())
}

fn overload_demo(vocab: &Arc<Vocab>, tail: &Workload) -> Result<(), String> {
    group("overload (offered load 6x queue capacity)");
    let capacity = REQUESTS / 6;
    let stack = build_stack(vocab, &tail.head);
    let runtime = Runtime::new(
        stack.clone(),
        RuntimeConfig { queue_capacity: capacity, ..open_loop_config() },
    );
    // Half the admitted requests carry an already-expired synthetic budget:
    // they must be shed at dequeue, deterministically.
    let records = runtime.execute(
        tail.requests
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
            .collect(),
    );
    let served = records.iter().filter(|r| matches!(r.outcome, Outcome::Served(_))).count();
    let shed = records.iter().filter(|r| matches!(r.outcome, Outcome::Shed(_))).count();
    let rejected = records.iter().filter(|r| matches!(r.outcome, Outcome::Rejected(_))).count();
    let report = stack.engine.health_report();
    println!(
        "capacity {capacity}: served {served}, shed {shed}, rejected {rejected} \
         (health: rejections {}, sheds {}, peak depth {})",
        report.queue_rejections, report.queue_sheds, report.queue_peak_depth
    );
    if rejected != tail.requests.len() - capacity {
        return Err(format!(
            "expected exactly the overflow beyond capacity rejected, got {rejected}"
        ));
    }
    if shed == 0 || served == 0 {
        return Err(format!("expected a mix of served and shed, got {served}/{shed}"));
    }
    if report.queue_rejections != rejected as u64 || report.queue_sheds != shed as u64 {
        return Err("health_report() counters disagree with the observed outcomes".to_string());
    }
    if report.queue_peak_depth != capacity as u64 {
        return Err(format!(
            "peak queue depth {} should equal capacity {capacity}",
            report.queue_peak_depth
        ));
    }
    Ok(())
}

fn to_sample(values: &mut [u128]) -> Sample {
    values.sort_unstable();
    Sample {
        median_ns: values[values.len() / 2],
        min_ns: values[0],
        max_ns: values[values.len() - 1],
    }
}

fn point_sample(v: u128) -> Sample {
    Sample { median_ns: v, min_ns: v, max_ns: v }
}

fn percentile(sorted: &[u128], q: f64) -> u128 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn print_sample(name: &str, s: Sample) {
    println!(
        "{name:<40} median {:>12}   min {:>12}   max {:>12}",
        s.median_ns, s.min_ns, s.max_ns
    );
}
