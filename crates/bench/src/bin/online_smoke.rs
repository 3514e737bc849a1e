//! Closed-loop online-learning smoke run, persisting `BENCH_online.json`.
//!
//! Wired into `scripts/verify.sh --online-smoke`. Simulates ≥3 days of
//! the paper's deployment loop — serve → click → train → swap — with the
//! trainer running **concurrently with serving** each day:
//!
//! * **day 0 (cold start)** — the `ModelStore` opens on a rewriter that
//!   emits nothing (epoch 1): serving works, pages rank on base
//!   retrieval alone, and the held-out session-oracle relevance is
//!   exactly zero. A bootstrap corpus of historical
//!   `(session-context + query → rewrite)` pairs is harvested offline
//!   from the click log (the paper's original training source).
//! * **each day** — the runtime serves that day's sessions through the
//!   epoch-pinned session path while `OnlineLoop::train_tick` trains on
//!   everything harvested so far and hot-swaps the new model mid-day.
//!   Every request must be served (no serving gap), and every response
//!   must be stamped with exactly one *published* model epoch — the
//!   day's opening epoch or the freshly swapped one, never anything
//!   torn. The day's served pages then go through the deterministic
//!   cascade click model; clicked rewrites feed the next day's tick.
//! * **eval** — after each day, held-out sessions (never served, never
//!   harvested) are rewritten by the pinned model and scored with
//!   `qrw_data::intent_relevance`. The trajectory must never regress
//!   below day 0 — the acceptance bar, re-checked by
//!   `validate_online_json` when the record is read back.
//!
//! `--full` (set by `QRW_VERIFY_BUDGET=full`) extends the run to 5 days
//! with a 2x per-tick step budget.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use qrw_bench::harness::{group, validate_online_json, BenchRecord, Sample};
use qrw_core::{encode_session, CheckpointStore, QueryRewriter, TrainConfig, TrainMode};
use qrw_data::{
    generate_sessions, intent_relevance, ClickLog, LogConfig, Pair, SessionConfig,
};
use qrw_nmt::ModelConfig;
use qrw_online::{
    FeedbackBuffer, FeedbackConfig, OnlineConfig, OnlineLoop, TickReport, ONLINE_MODEL_NAME,
};
use qrw_search::{
    DeadlineBudget, InvertedIndex, ModelStore, SearchEngine, SearchResponse, SharedRewriter,
};
use qrw_serve::{Outcome, Runtime, RuntimeConfig, ServeStack};
use qrw_text::Vocab;

const QUICK_DAYS: usize = 3;
const FULL_DAYS: usize = 5;
/// Serving sessions per day (held-out sessions come on top).
const TRAIN_SESSIONS: usize = 48;
const HELD_OUT_SESSIONS: usize = 12;
/// Rewrites requested per query, serving and eval alike.
const REWRITES_K: usize = 3;

fn main() -> ExitCode {
    let (out_dir, full) = parse_args();
    let days = if full { FULL_DAYS } else { QUICK_DAYS };
    let steps_per_tick: u64 = if full { 120 } else { 60 };

    // --- World: intent-structured log, catalog-title index, shared vocab.
    let log = ClickLog::generate(&LogConfig { n_queries: 120, ..LogConfig::default() });
    let engine = Arc::new(SearchEngine::new(InvertedIndex::build(
        log.catalog.items.iter().map(|i| i.title_tokens.clone()),
    )));
    let vocab = build_vocab(&log);
    let sessions = generate_sessions(
        &log,
        &SessionConfig {
            sessions: TRAIN_SESSIONS + HELD_OUT_SESSIONS,
            min_len: 2,
            max_len: 4,
            drift: 0.3,
            seed: 47,
        },
    );
    let (train_sessions, held_out) = sessions.split_at(TRAIN_SESSIONS);

    // --- The store opens cold: epoch 1 serves no rewrites at all.
    let store = ModelStore::new(Arc::new(ColdStart) as SharedRewriter);
    let stack = ServeStack {
        engine: Arc::clone(&engine),
        cache: None,
        student: None,
        online: None,
        baseline: None,
        models: Some(Arc::clone(&store)),
    };
    let runtime = Runtime::new(stack, RuntimeConfig { workers: 4, max_batch: 8, ..RuntimeConfig::default() });

    // --- The online loop around the crash-safe trainer.
    let ckpt_dir = TempDir::new("online_smoke");
    let config = OnlineConfig {
        model: ModelConfig::tiny_transformer(vocab.len()),
        train: TrainConfig {
            steps: steps_per_tick,
            warmup_steps: steps_per_tick / 2,
            batch_size: 8,
            ..TrainConfig::smoke()
        },
        mode: TrainMode::Joint,
        top_n: 8,
        rewriter_seed: 41,
    };
    let mut online = OnlineLoop::new(
        config,
        Arc::clone(&vocab),
        Arc::clone(&store),
        CheckpointStore::new(&ckpt_dir.0),
    );

    // --- Day 0: bootstrap harvest from the historical log + cold eval.
    group("day 0: cold start");
    let bootstrap = bootstrap_pairs(&log, &vocab, train_sessions);
    if bootstrap.is_empty() {
        eprintln!("online_smoke: historical bootstrap harvested nothing");
        return ExitCode::FAILURE;
    }
    println!("bootstrap pairs from the historical log: {}", bootstrap.len());
    let mut record = BenchRecord::new("online");
    let day0 = eval_relevance(&store, &log, held_out);
    if day0 != 0 {
        eprintln!("online_smoke: cold model scored {day0} permille, expected 0");
        return ExitCode::FAILURE;
    }
    print_sample("day0/oracle_permille", point_sample(day0));
    record.push("day0/oracle_permille", point_sample(day0));

    // --- The loop: serve the day while the tick trains and swaps.
    let fb_config = FeedbackConfig::default();
    let mut buffer = FeedbackBuffer::new(4096);
    let mut requests_total = 0u64;
    let mut trajectory = vec![day0];
    for day in 1..=days {
        group(&format!("day {day}: serve || train -> swap -> click -> eval"));
        let epoch_before = store.swap_stats().current_epoch;
        let mut train_data = bootstrap.clone();
        train_data.extend_from_slice(buffer.pairs());

        let mut served: Vec<(usize, usize, Vec<Vec<String>>, SearchResponse)> = Vec::new();
        let mut tick = TickReport::default();
        {
            let online = &mut online;
            let served = &mut served;
            let tick = &mut tick;
            let runtime = &runtime;
            let store = &store;
            std::thread::scope(|scope| {
                let trainer = scope.spawn(move || online.train_tick(&train_data, &train_data));
                *served = serve_day(runtime, store, epoch_before + 1, &log, train_sessions);
                *tick = trainer.join().expect("trainer must not panic");
            });
        }
        if !tick.trained || tick.swap_failed || tick.published_epoch != Some(epoch_before + 1) {
            eprintln!("online_smoke: day {day} tick did not publish (report {tick:?})");
            return ExitCode::FAILURE;
        }

        // Exactly one *published* epoch per response: the day's opening
        // epoch or the mid-day swap — a torn or unpublished stamp fails.
        requests_total += served.len() as u64;
        let mut on_old = 0usize;
        let mut on_new = 0usize;
        for (_, _, _, resp) in &served {
            if resp.model_epoch != epoch_before && resp.model_epoch != epoch_before + 1 {
                eprintln!(
                    "online_smoke: day {day} response stamped unpublished model epoch {} \
                     (published: {} and {})",
                    resp.model_epoch,
                    epoch_before,
                    epoch_before + 1
                );
                return ExitCode::FAILURE;
            }
            if resp.model_epoch == epoch_before + 1 {
                on_new += 1;
            } else {
                on_old += 1;
            }
        }
        if on_old == 0 || on_new == 0 {
            eprintln!(
                "online_smoke: day {day} did not straddle the swap \
                 ({on_old} on epoch {epoch_before}, {on_new} on {})",
                epoch_before + 1
            );
            return ExitCode::FAILURE;
        }
        println!(
            "served {} requests across the swap: {on_old} on epoch {epoch_before}, \
             {on_new} on the freshly swapped epoch {}",
            served.len(),
            epoch_before + 1
        );

        // The day's pages through the cascade click model; a unique user
        // id per (day, session) keeps the common-random-numbers stream
        // fresh across days.
        for (s, qi, context, resp) in &served {
            let user = (day * 10_000 + s) as u64;
            buffer.observe(&log, &vocab, user, context, *qi, resp, &fb_config, None);
        }
        let stats = buffer.stats();
        println!(
            "cascade: {} sessions, {} clicks, {} harvested (cumulative)",
            stats.sessions, stats.clicks, stats.harvested
        );

        let rel = eval_relevance(&store, &log, held_out);
        let name = format!("day{day}/oracle_permille");
        print_sample(&name, point_sample(rel));
        record.push(name, point_sample(rel));
        trajectory.push(rel);
    }

    // --- The acceptance bar, in-run: never below day 0.
    if let Some(bad) = trajectory.iter().position(|&r| r < day0) {
        eprintln!(
            "online_smoke: day {bad} relevance {} regressed below day 0 ({day0})",
            trajectory[bad]
        );
        return ExitCode::FAILURE;
    }
    println!("\noracle trajectory (permille): {trajectory:?}");

    // --- Loop accounting: one swap per day, none failed, nothing pinned.
    let swaps = store.swap_stats();
    if swaps.epochs_published != days as u64 || swaps.swap_failures != 0 || swaps.pinned_now != 0
    {
        eprintln!("online_smoke: swap accounting off: {swaps:?}");
        return ExitCode::FAILURE;
    }
    let health = online.health_report();
    if health.train.checkpoints_written != days as u64 {
        eprintln!(
            "online_smoke: expected {days} checkpoints, wrote {}",
            health.train.checkpoints_written
        );
        return ExitCode::FAILURE;
    }
    for (name, v) in [
        ("serve/requests_total", u128::from(requests_total)),
        ("serve/harvested_total", u128::from(buffer.stats().harvested)),
        ("swap/epochs_published", u128::from(swaps.epochs_published)),
        ("swap/swap_failures", u128::from(swaps.swap_failures)),
    ] {
        print_sample(name, point_sample(v));
        record.push(name, point_sample(v));
    }

    // --- Persist + re-validate against the online schema.
    let path = out_dir.join("BENCH_online.json");
    if let Err(e) = record.write_validated(&path) {
        eprintln!("online_smoke: {e}");
        return ExitCode::FAILURE;
    }
    let text = std::fs::read_to_string(&path).expect("re-read bench file");
    match validate_online_json(&text) {
        Ok(_) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("online_smoke: {} is malformed: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Epoch 1 of every deployment: a model that has learned nothing yet and
/// rewrites nothing. Serving works (base retrieval only) and the held-out
/// oracle scores exactly zero, anchoring the trajectory bar.
struct ColdStart;

impl QueryRewriter for ColdStart {
    fn rewrite(&self, _query: &[String], _k: usize) -> Vec<Vec<String>> {
        Vec::new()
    }
    fn name(&self) -> &str {
        ONLINE_MODEL_NAME
    }
}

fn parse_args() -> (PathBuf, bool) {
    let mut args = std::env::args().skip(1);
    let mut out = PathBuf::from(".");
    let mut full = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = PathBuf::from(args.next().expect("--out needs a directory")),
            "--full" => full = true,
            other => panic!("unknown argument {other:?} (usage: online_smoke [--out DIR] [--full])"),
        }
    }
    (out, full)
}

fn build_vocab(log: &ClickLog) -> Arc<Vocab> {
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
    Arc::new(v)
}

/// The title-register phrasing of a query's ground-truth intent — the
/// rewrite a historical click implicitly endorsed.
fn oracle_rewrite(log: &ClickLog, qi: usize) -> Vec<String> {
    let q = &log.queries[qi];
    let mut rw = Vec::new();
    if let Some(aud) = q.audience {
        rw.push(log.catalog.audience(aud).title_terms[0].clone());
    }
    if let Some(b) = q.brand {
        rw.push(log.catalog.brand(b).formal.clone());
    }
    rw.push(log.catalog.category(q.category).title_terms[0].clone());
    rw
}

/// Historical bootstrap: session-encoded `(context + query → rewrite)`
/// pairs over the serving sessions, the offline corpus the paper trains
/// its initial model from before any online feedback exists.
fn bootstrap_pairs(log: &ClickLog, vocab: &Vocab, sessions: &[Vec<usize>]) -> Vec<Pair> {
    let mut pairs = Vec::new();
    for session in sessions {
        let mut context: Vec<Vec<String>> = Vec::new();
        for &qi in session {
            let q = &log.queries[qi];
            let src = encode_session(vocab, &context, &q.tokens);
            let tgt = vocab.encode(&oracle_rewrite(log, qi));
            if !src.is_empty() && !tgt.is_empty() {
                pairs.push(Pair { src, tgt, weight: 1 });
            }
            context.push(q.tokens.clone());
        }
    }
    pairs
}

/// Serves one day of sessions through the runtime's epoch-pinned session
/// path. Every request must come back `Served` — any shed, rejection, or
/// panic is a serving gap and aborts the bench. Halfway through, the
/// driver waits for the concurrent tick's hot-swap to land
/// (`swap_epoch`), so every day's traffic provably straddles the swap:
/// requests keep serving before, during, and after the model changes.
fn serve_day(
    runtime: &Runtime,
    store: &Arc<ModelStore>,
    swap_epoch: u64,
    log: &ClickLog,
    sessions: &[Vec<usize>],
) -> Vec<(usize, usize, Vec<Vec<String>>, SearchResponse)> {
    let mut served = Vec::new();
    let out = &mut served;
    runtime.run(|rt| {
        for (s, session) in sessions.iter().enumerate() {
            if s == sessions.len() / 2 {
                wait_for_epoch(store, swap_epoch);
            }
            let mut context: Vec<Vec<String>> = Vec::new();
            for &qi in session {
                let tokens = log.queries[qi].tokens.clone();
                let rec =
                    rt.call_session(tokens.clone(), context.clone(), DeadlineBudget::unlimited());
                match rec.outcome {
                    Outcome::Served(resp) => out.push((s, qi, context.clone(), resp)),
                    other => panic!("serving gap: request {} not served: {other:?}", rec.id),
                }
                context.push(tokens);
            }
        }
    });
    served
}

/// Spins (bounded) until the store has published `epoch`.
fn wait_for_epoch(store: &Arc<ModelStore>, epoch: u64) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while store.swap_stats().current_epoch < epoch {
        assert!(
            std::time::Instant::now() < deadline,
            "trainer never published epoch {epoch} (swap lost?)"
        );
        std::thread::yield_now();
    }
}

/// Held-out session-oracle relevance of the store's current model, in
/// permille: each held-out query (with its running session context) is
/// rewritten by the pinned model and scored with the best
/// `intent_relevance` over its rewrites, averaged over all queries.
fn eval_relevance(store: &Arc<ModelStore>, log: &ClickLog, held_out: &[Vec<usize>]) -> u128 {
    let pin = store.pin();
    let mut total = 0.0f64;
    let mut n = 0usize;
    for session in held_out {
        let mut context: Vec<Vec<String>> = Vec::new();
        for &qi in session {
            let q = &log.queries[qi];
            let best = pin
                .rewriter()
                .rewrite_with_context(&context, &q.tokens, REWRITES_K)
                .iter()
                .map(|rw| f64::from(intent_relevance(&log.catalog, &q.tokens, rw)))
                .fold(0.0f64, f64::max);
            total += best;
            n += 1;
            context.push(q.tokens.clone());
        }
    }
    assert!(n > 0, "held-out set must be non-empty");
    ((total / n as f64) * 1000.0).round() as u128
}

fn point_sample(v: u128) -> Sample {
    Sample { median_ns: v, min_ns: v, max_ns: v }
}

fn print_sample(name: &str, s: Sample) {
    println!(
        "{name:<40} median {:>12}   min {:>12}   max {:>12}",
        s.median_ns, s.min_ns, s.max_ns
    );
}

/// Self-cleaning unique temp directory (std-only).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("qrw_{tag}_{}_{seq}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}
