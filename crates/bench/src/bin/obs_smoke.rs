//! Observability smoke run, wired into `scripts/verify.sh --obs-smoke`.
//!
//! Replays the `load_smoke` request mixes (decode-heavy tail +
//! KV-hit-heavy head) through the serving runtime with a logical-clock
//! [`Tracer`] attached, then checks the observability layer end to end:
//!
//! * the exported trace JSONL re-validates against the harness schema
//!   ([`validate_trace_jsonl`]);
//! * span-tree invariants hold — every admitted request's trace ends in
//!   exactly one terminal span, and no span was dropped by the ring
//!   buffer during the run;
//! * the engine's latency histogram totals equal the served request
//!   counts (every served request is measured exactly once);
//! * tracing overhead on the tail mix stays under [`MAX_OVERHEAD`]
//!   (min-of-reps traced vs untraced, the same estimator `load_smoke`
//!   uses for its speedup bar).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use qrw_bench::harness::{group, validate_trace_jsonl};
use qrw_core::{Q2QRewriter, QueryRewriter};
use qrw_obs::{Tracer, MINTED_TRACE_BIT};
use qrw_search::{
    DeadlineBudget, InvertedIndex, RewriteCache, SearchEngine, ServingConfig,
};
use qrw_serve::{
    synthetic_docs, MixConfig, Outcome, Runtime, RuntimeConfig, ServeStack, Workload,
};
use qrw_text::Vocab;

/// Maximum accepted traced-vs-untraced slowdown on the tail mix
/// (the PR's tracing-overhead acceptance bar: < 5%).
const MAX_OVERHEAD: f64 = 0.05;

const VOCAB_WORDS: usize = 24;
const REQUESTS: usize = 48;
const DOCS: usize = 120;
const MODEL_SEED: u64 = 41;
const REWRITE_SEED: u64 = 7;
const MIX_SEED: u64 = 13;
const REPS: usize = 7;

fn main() -> ExitCode {
    let vocab = build_vocab();
    let tail = Workload::generate(&vocab, &MixConfig::tail_heavy(REQUESTS, MIX_SEED));
    let head = Workload::generate(&vocab, &MixConfig::head_heavy(REQUESTS, MIX_SEED));

    for (label, workload) in [("tail", &tail), ("head", &head)] {
        if let Err(e) = traced_mix(label, &vocab, workload) {
            eprintln!("obs_smoke: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = overhead_bar(&vocab, &tail) {
        eprintln!("obs_smoke: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn build_vocab() -> Arc<Vocab> {
    let mut v = Vocab::new();
    for i in 0..VOCAB_WORDS {
        v.insert(&format!("w{i}"));
    }
    Arc::new(v)
}

/// Engine + prefilled cache + batched online model, identical seeds to
/// `load_smoke` so the two smoke runs exercise the same traffic.
fn build_stack(vocab: &Arc<Vocab>, head: &[Vec<String>], tracer: Option<Tracer>) -> ServeStack {
    let docs = synthetic_docs(vocab, DOCS, 11);
    let mut engine = SearchEngine::new(InvertedIndex::build(docs));
    if let Some(t) = tracer {
        engine = engine.with_tracer(t);
    }
    let engine = Arc::new(engine);
    let model = Arc::new(qrw_nmt::Seq2Seq::new(
        qrw_nmt::ModelConfig::tiny_transformer(vocab.len()),
        MODEL_SEED,
    ));
    let online = Arc::new(Q2QRewriter::new(model, Arc::clone(vocab), 40, REWRITE_SEED));
    let cache = Arc::new(RewriteCache::new());
    for q in head {
        cache.insert(q, online.rewrite(q, ServingConfig::default().max_rewrites));
    }
    ServeStack { engine, cache: Some(cache), student: None, online: Some(online), baseline: None, models: None }
}

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        queue_capacity: REQUESTS,
        max_batch: 16,
        workers: 2,
        ..RuntimeConfig::default()
    }
}

/// Runs one traced mix through the runtime and checks the exported
/// trace plus the histogram/served-count accounting.
fn traced_mix(label: &str, vocab: &Arc<Vocab>, workload: &Workload) -> Result<(), String> {
    group(&format!("{label} mix (traced, open-loop)"));
    let tracer = Tracer::logical();
    let stack = build_stack(vocab, &workload.head, Some(tracer.clone()));
    let engine = Arc::clone(&stack.engine);
    let runtime = Runtime::new(stack, runtime_config());
    let records = runtime.execute(
        workload.requests.iter().map(|q| (q.clone(), DeadlineBudget::unlimited())).collect(),
    );
    let served = records.iter().filter(|r| matches!(r.outcome, Outcome::Served(_))).count();
    if served != workload.requests.len() {
        return Err(format!("{label}: expected every request served, got {served}"));
    }

    // The exported JSONL must re-validate against the harness schema.
    let jsonl = tracer.export_jsonl();
    let lines = validate_trace_jsonl(&jsonl)
        .map_err(|e| format!("{label}: exported trace JSONL is malformed: {e}"))?;
    if tracer.dropped() != 0 {
        return Err(format!(
            "{label}: ring buffer dropped {} spans during a {REQUESTS}-request run",
            tracer.dropped()
        ));
    }

    // Every admitted request's trace (trace id = request id; minted traces
    // hold batch-level spans) must end in exactly one terminal span.
    let mut request_traces = std::collections::BTreeMap::new();
    for l in &lines {
        if l.trace & MINTED_TRACE_BIT == 0 {
            let terminal = matches!(l.name.as_str(), "served" | "shed" | "rejected");
            *request_traces.entry(l.trace).or_insert(0usize) += usize::from(terminal);
        }
    }
    if request_traces.len() != workload.requests.len() {
        return Err(format!(
            "{label}: {} request traces for {} requests",
            request_traces.len(),
            workload.requests.len()
        ));
    }
    if let Some((trace, n)) = request_traces.iter().find(|(_, n)| **n != 1) {
        return Err(format!("{label}: trace {trace} has {n} terminal spans, want exactly 1"));
    }

    // Histogram totals equal the served request counts: the engine
    // measures each served request exactly once.
    let hist = engine.latency_histogram();
    if hist.count() != served as u64 {
        return Err(format!(
            "{label}: latency histogram holds {} samples for {served} served requests",
            hist.count()
        ));
    }
    let report = engine.health_report();
    if report.latency_count != served as u64 {
        return Err(format!(
            "{label}: health_report latency_count {} != served {served}",
            report.latency_count
        ));
    }
    println!(
        "{label}: {served} served, {} spans across {} request traces, \
         latency p50/p95/p99 = {}/{}/{} us",
        lines.len(),
        request_traces.len(),
        report.latency_p50_us,
        report.latency_p95_us,
        report.latency_p99_us
    );
    Ok(())
}

/// Min-of-reps traced vs untraced throughput on the tail mix. The mins
/// are the runs least disturbed by the host, so their ratio isolates the
/// structural cost of tracing.
fn overhead_bar(vocab: &Arc<Vocab>, tail: &Workload) -> Result<(), String> {
    group("tracing overhead (tail mix)");
    let mut plain_ns = Vec::new();
    let mut traced_ns = Vec::new();
    for rep in 0..=REPS {
        for (traced, out) in [(false, &mut plain_ns), (true, &mut traced_ns)] {
            let tracer = traced.then(Tracer::logical);
            let stack = build_stack(vocab, &tail.head, tracer.clone());
            let runtime = Runtime::new(stack, runtime_config());
            let t0 = Instant::now();
            let records = runtime.execute(
                tail.requests.iter().map(|q| (q.clone(), DeadlineBudget::unlimited())).collect(),
            );
            let elapsed = t0.elapsed();
            assert!(records.iter().all(|r| matches!(r.outcome, Outcome::Served(_))));
            if let Some(t) = &tracer {
                assert!(!t.snapshot().is_empty(), "traced run must record spans");
            }
            if rep > 0 {
                out.push(elapsed.as_nanos() / REQUESTS as u128);
            }
        }
    }
    let plain = *plain_ns.iter().min().expect("reps") as f64;
    let traced = *traced_ns.iter().min().expect("reps") as f64;
    let overhead = traced / plain.max(1.0) - 1.0;
    println!(
        "untraced best {plain:.0} ns/req, traced best {traced:.0} ns/req, \
         overhead {:.2}%",
        overhead * 100.0
    );
    if overhead >= MAX_OVERHEAD {
        return Err(format!(
            "tracing overhead {:.2}% is over the {:.0}% bar",
            overhead * 100.0,
            MAX_OVERHEAD * 100.0
        ));
    }
    Ok(())
}
