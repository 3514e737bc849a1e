//! Mutate-while-serving smoke run, persisting `BENCH_mutate.json`.
//!
//! Wired into `scripts/verify.sh --mutate-smoke`. Four stages:
//!
//! * **frozen vs pinned** — the same request sequence served sequentially
//!   against a frozen `InvertedIndex` engine and an epoch-pinned live
//!   catalog with no churn. Responses must be byte-identical (both serve
//!   epoch 0) and the pin protocol's overhead must stay inside a generous
//!   in-run bar ([`MAX_PIN_OVERHEAD`]).
//! * **churn** — a paced writer publishes a deterministic mutation-batch
//!   stream while the reader serves; per-request latency percentiles and
//!   the epoch lifecycle counters (published / reclaimed) are recorded.
//!   Every response is then re-derived against a serial rebuild of the
//!   epoch it pinned and must match **byte for byte** — the torn-read
//!   invariant, enforced on real bench traffic.
//! * **recovery** — the commit stream is killed mid-epoch; the time for
//!   `CatalogWriter::recover` to restore the last sealed epoch (verified
//!   bit-for-bit by fingerprint) is recorded.
//! * **kill-point sweep** (`--sweep`, gated under the verify time
//!   budget) — kills a small catalog's commit stream at *every* byte
//!   offset and requires recovery to restore the last durable epoch each
//!   time.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use qrw_bench::harness::{group, validate_mutate_json, BenchRecord, Sample};
use qrw_search::segment::replay;
use qrw_search::{
    CatalogError, CatalogWriter, DeadlineBudget, Fault, Faults, IndexSnapshot, InvertedIndex,
    MutationBatch, RewriteCache, RewriteLadder, SearchEngine, Segment, ServingConfig,
    SnapshotStore,
};
use qrw_serve::{mutation_batches, synthetic_docs, ChurnMix, MixConfig, Workload};
use qrw_text::Vocab;

/// Ceiling on pinned-vs-frozen sequential serve time (best-of-reps
/// ratio). The pin protocol is two atomic RMWs + an `Arc` clone per
/// request — microseconds of serving amortise it to noise, so 2x is a
/// generous structural bar (the ISSUE's <5% p99 criterion is checked on
/// far longer runs; an in-run ratio keeps the smoke immune to cross-run
/// host noise).
const MAX_PIN_OVERHEAD: f64 = 2.0;

const VOCAB_WORDS: usize = 24;
const DOCS: usize = 120;
const REQUESTS: usize = 48;
const MIX_SEED: u64 = 13;
const CHURN_SEED: u64 = 17;
const REPS: usize = 5;
const CHURN_BATCHES: usize = 24;
/// Serve passes over the request mix during the churn stage.
const CHURN_PASSES: usize = 3;

fn main() -> ExitCode {
    let (out_dir, sweep) = parse_args();
    let vocab = build_vocab();
    let docs = synthetic_docs(&vocab, DOCS, 11);
    let mix = Workload::generate(&vocab, &MixConfig::head_heavy(REQUESTS, MIX_SEED));
    let cache = Arc::new(prefilled_cache(&mix.head));
    let mut record = BenchRecord::new("mutate");

    // --- Frozen vs epoch-pinned, no churn: identical bytes, bounded cost.
    group("frozen vs pinned (no churn)");
    let frozen = SearchEngine::new(InvertedIndex::build(docs.clone()));
    let (live_store, _live_writer) = CatalogWriter::bootstrap(docs.clone());
    let pinned_engine = SearchEngine::live(live_store);
    let mut frozen_ns = Vec::new();
    let mut pinned_ns = Vec::new();
    for rep in 0..=REPS {
        let (f_total, f_resp) = run_sequential(&frozen, &cache, &mix.requests);
        let (p_total, p_resp) = run_sequential(&pinned_engine, &cache, &mix.requests);
        if f_resp != p_resp {
            eprintln!("mutate_smoke: pinned responses diverge from the frozen engine's");
            return ExitCode::FAILURE;
        }
        if rep == 0 {
            continue; // warmup
        }
        frozen_ns.push(f_total / mix.requests.len() as u128);
        pinned_ns.push(p_total / mix.requests.len() as u128);
    }
    let frozen_sample = to_sample(&mut frozen_ns);
    let pinned_sample = to_sample(&mut pinned_ns);
    print_sample("frozen/serve_ns_per_req", frozen_sample);
    print_sample("pinned/serve_ns_per_req", pinned_sample);
    record.push("frozen/serve_ns_per_req", frozen_sample);
    record.push("pinned/serve_ns_per_req", pinned_sample);
    let overhead = pinned_sample.min_ns as f64 / frozen_sample.min_ns.max(1) as f64;
    println!("pin-protocol overhead (best-of-reps): {overhead:.3}x");
    if overhead > MAX_PIN_OVERHEAD {
        eprintln!(
            "mutate_smoke: pinned serving {overhead:.2}x over frozen exceeds the \
             {MAX_PIN_OVERHEAD}x bar (frozen best {} ns/req, pinned best {} ns/req)",
            frozen_sample.min_ns, pinned_sample.min_ns
        );
        return ExitCode::FAILURE;
    }

    // --- Serve under writer churn; verify the torn-read invariant on
    // every response afterwards.
    group("serving under writer churn");
    let batches = mutation_batches(&vocab, DOCS, &ChurnMix::feed(CHURN_BATCHES, CHURN_SEED));
    let (store, mut writer) = CatalogWriter::bootstrap(docs.clone());
    let engine = SearchEngine::live(Arc::clone(&store));
    let served = Arc::new(AtomicU64::new(0));
    let total_serves = (mix.requests.len() * CHURN_PASSES) as u64;
    // Pace the writer off reader progress so epochs interleave with
    // serving instead of finishing before the first request.
    let per_batch = (total_serves / (CHURN_BATCHES as u64 + 1)).max(1);
    let writer_progress = Arc::clone(&served);
    let writer_batches = batches.clone();
    let writer_thread = std::thread::spawn(move || {
        for (i, batch) in writer_batches.into_iter().enumerate() {
            while writer_progress.load(Ordering::SeqCst) < (i as u64 + 1) * per_batch {
                std::thread::yield_now();
            }
            writer.apply(batch).expect("in-memory publish cannot fail");
            writer.reclaim();
        }
        writer
    });
    let mut latencies: Vec<u128> = Vec::with_capacity(total_serves as usize);
    let mut observed: Vec<(Vec<String>, u64, String)> = Vec::with_capacity(total_serves as usize);
    let mut j = 0u64;
    for _pass in 0..CHURN_PASSES {
        for q in &mix.requests {
            // Bidirectional pacing: the writer waits for reader progress
            // (above) and the reader waits for writer progress here, so
            // the interleaving is schedule-independent — without this, a
            // fast reader drains the whole mix before the writer thread
            // is even scheduled and every response pins epoch 0.
            let target = (j / per_batch).min(CHURN_BATCHES as u64);
            while store.current_epoch() < target {
                std::thread::yield_now();
            }
            let t0 = Instant::now();
            let (epoch, rendered) = serve(&engine, &cache, q);
            latencies.push(t0.elapsed().as_nanos());
            observed.push((q.clone(), epoch, rendered));
            served.fetch_add(1, Ordering::SeqCst);
            j += 1;
        }
    }
    let writer = writer_thread.join().expect("writer must not panic");
    drop(writer);
    latencies.sort_unstable();
    for (label, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
        let name = format!("churn/latency_{label}");
        let s = point_sample(percentile(&latencies, q));
        print_sample(&name, s);
        record.push(name, s);
    }
    let stats = store.churn_stats();
    assert_eq!(stats.epochs_published, CHURN_BATCHES as u64);
    for (name, v) in [
        ("churn/epochs_published", stats.epochs_published),
        ("churn/epochs_reclaimed", stats.epochs_reclaimed),
    ] {
        let s = point_sample(v as u128);
        print_sample(name, s);
        record.push(name, s);
    }
    if let Err(e) = check_torn_read_invariant(&docs, &batches, &cache, &observed) {
        eprintln!("mutate_smoke: {e}");
        return ExitCode::FAILURE;
    }
    let distinct: std::collections::BTreeSet<u64> =
        observed.iter().map(|(_, e, _)| *e).collect();
    println!(
        "torn-read invariant held on {} responses across {} distinct epochs",
        observed.len(),
        distinct.len()
    );
    if distinct.len() < 2 {
        eprintln!("mutate_smoke: churn never overlapped serving (epochs {distinct:?})");
        return ExitCode::FAILURE;
    }

    // --- Recovery after a mid-commit kill.
    group("recovery after mid-commit kill");
    match recovery_after_kill(&docs, &batches) {
        Ok(sample) => {
            print_sample("recovery/after_kill_ns", sample);
            record.push("recovery/after_kill_ns", sample);
        }
        Err(e) => {
            eprintln!("mutate_smoke: {e}");
            return ExitCode::FAILURE;
        }
    }

    // --- Optional exhaustive kill-point sweep (gated under the verify
    // time budget by the caller).
    if sweep {
        group("kill-point sweep (every commit byte)");
        match kill_point_sweep(&vocab) {
            Ok(offsets) => println!("swept {offsets} kill points, all recovered"),
            Err(e) => {
                eprintln!("mutate_smoke: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // --- Persist + re-validate against the mutate schema.
    let path = out_dir.join("BENCH_mutate.json");
    if let Err(e) = record.write_validated(&path) {
        eprintln!("mutate_smoke: {e}");
        return ExitCode::FAILURE;
    }
    let text = std::fs::read_to_string(&path).expect("re-read bench file");
    match validate_mutate_json(&text) {
        Ok(_) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("mutate_smoke: {} is malformed: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn parse_args() -> (PathBuf, bool) {
    let mut args = std::env::args().skip(1);
    let mut out = PathBuf::from(".");
    let mut sweep = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = PathBuf::from(args.next().expect("--out needs a directory")),
            "--sweep" => sweep = true,
            other => panic!("unknown argument {other:?} (usage: mutate_smoke [--out DIR] [--sweep])"),
        }
    }
    (out, sweep)
}

fn build_vocab() -> Arc<Vocab> {
    let mut v = Vocab::new();
    for i in 0..VOCAB_WORDS {
        v.insert(&format!("w{i}"));
    }
    Arc::new(v)
}

/// Fixed rewrites for the head queries: a read-only cache rung keeps the
/// ladder fully deterministic, so responses depend on the pinned epoch
/// alone.
fn prefilled_cache(head: &[Vec<String>]) -> RewriteCache {
    let cache = RewriteCache::new();
    for q in head {
        cache.insert(q, vec![vec!["w3".to_string(), "w5".to_string()]]);
    }
    cache
}

fn serve(engine: &SearchEngine, cache: &RewriteCache, query: &[String]) -> (u64, String) {
    let ladder = RewriteLadder { cache: Some(cache), ..RewriteLadder::default() };
    let resp = engine.search_resilient(
        query,
        ladder,
        &ServingConfig::default(),
        &DeadlineBudget::unlimited(),
        None,
    );
    (resp.epoch, format!("{resp:?}"))
}

fn run_sequential(
    engine: &SearchEngine,
    cache: &RewriteCache,
    requests: &[Vec<String>],
) -> (u128, Vec<String>) {
    let t0 = Instant::now();
    let responses = requests.iter().map(|q| serve(engine, cache, q).1).collect();
    (t0.elapsed().as_nanos(), responses)
}

/// The index of epoch `e`: base corpus + the first `e` batches, replayed
/// serially.
fn epoch_index(docs: &[Vec<String>], batches: &[MutationBatch], e: usize) -> InvertedIndex {
    let mut segments = vec![Segment::base_of(docs.iter().map(Vec::as_slice))];
    segments.extend(batches[..e].iter().cloned().map(Segment::seal));
    replay(&segments)
}

/// Re-derives every observed response on a serial engine pinned to the
/// epoch the response claims; any byte of divergence is an error.
fn check_torn_read_invariant(
    docs: &[Vec<String>],
    batches: &[MutationBatch],
    cache: &RewriteCache,
    observed: &[(Vec<String>, u64, String)],
) -> Result<(), String> {
    let mut serial: Vec<Option<SearchEngine>> = (0..=batches.len()).map(|_| None).collect();
    for (query, epoch, rendered) in observed {
        let e = *epoch as usize;
        if e >= serial.len() {
            return Err(format!("response claims unpublished epoch {e}"));
        }
        let engine = serial[e].get_or_insert_with(|| {
            let index = epoch_index(docs, batches, e);
            SearchEngine::live(SnapshotStore::new(IndexSnapshot::new(e as u64, index)))
        });
        let (_, expected) = serve(engine, cache, query);
        if &expected != rendered {
            return Err(format!(
                "torn read at epoch {e}: concurrent response diverges from serial replay\n\
                 expected: {expected}\n\
                 observed: {rendered}"
            ));
        }
    }
    Ok(())
}

/// Kills the commit stream ~60% into the batch sequence, then times
/// `CatalogWriter::recover` and verifies the recovered epoch bit-for-bit
/// against its serial replay.
fn recovery_after_kill(
    docs: &[Vec<String>],
    batches: &[MutationBatch],
) -> Result<Sample, String> {
    let tmp = TempDir::new("qrw-mutate-smoke-kill");
    // Probe: bytes of a full run, to aim the kill mid-stream.
    let probe = Arc::new(Faults::default());
    {
        let probe_tmp = TempDir::new("qrw-mutate-smoke-probe");
        let (_s, mut w) =
            CatalogWriter::with_injector(docs.to_vec(), probe_tmp.path(), Arc::clone(&probe))
                .map_err(|e| format!("probe bootstrap: {e}"))?;
        for b in batches {
            w.apply(b.clone()).map_err(|e| format!("probe apply: {e}"))?;
        }
    }
    let kill_at = probe.total_bytes() * 3 / 5;

    let injector = Arc::new(Faults::default().at_byte(kill_at, Fault::Kill));
    let (_store, mut writer) =
        CatalogWriter::with_injector(docs.to_vec(), tmp.path(), Arc::clone(&injector))
            .map_err(|e| format!("bootstrap before kill point: {e}"))?;
    let mut last_ok = 0u64;
    for b in batches {
        match writer.apply(b.clone()) {
            Ok(epoch) => last_ok = epoch,
            Err(CatalogError::Io(_)) => break,
            Err(e) => return Err(format!("unexpected apply error: {e}")),
        }
    }
    if !injector.killed() {
        return Err("kill never fired; probe sizing is wrong".into());
    }
    drop(writer);

    let t0 = Instant::now();
    let (store, _writer) =
        CatalogWriter::recover(tmp.path()).map_err(|e| format!("recovery failed: {e}"))?;
    let elapsed = t0.elapsed().as_nanos();
    let got = store.current_epoch();
    // A kill during the LATEST write can land after the manifest rename:
    // the in-flight epoch is then legitimately durable.
    if got != last_ok && got != last_ok + 1 {
        return Err(format!("recovered epoch {got}, expected {last_ok} or {}", last_ok + 1));
    }
    let expect = epoch_index(docs, batches, got as usize).fingerprint();
    if store.pin().index().fingerprint() != expect {
        return Err(format!("epoch {got} not recovered bit-for-bit"));
    }
    println!(
        "killed at byte {kill_at}, recovered epoch {got} of {} in {:.3}ms",
        batches.len(),
        elapsed as f64 / 1e6
    );
    Ok(point_sample(elapsed))
}

/// Exhaustive crash sweep on a small catalog: every byte offset of the
/// commit stream is a kill point; each run must recover the last durable
/// epoch bit-for-bit (or nothing, if the kill predates the first commit).
fn kill_point_sweep(vocab: &Arc<Vocab>) -> Result<u64, String> {
    let docs = synthetic_docs(vocab, 6, 3);
    let batches = mutation_batches(vocab, docs.len(), &ChurnMix::feed(3, 29));
    let fp: Vec<u64> =
        (0..=batches.len()).map(|e| epoch_index(&docs, &batches, e).fingerprint()).collect();

    let probe = Arc::new(Faults::default());
    let bootstrap_bytes;
    {
        let tmp = TempDir::new("qrw-mutate-sweep-probe");
        let (_s, mut w) = CatalogWriter::with_injector(docs.clone(), tmp.path(), Arc::clone(&probe))
            .map_err(|e| format!("sweep probe bootstrap: {e}"))?;
        bootstrap_bytes = probe.total_bytes();
        for b in &batches {
            w.apply(b.clone()).map_err(|e| format!("sweep probe apply: {e}"))?;
        }
    }
    let total = probe.total_bytes();

    for offset in 0..total {
        let tmp = TempDir::new("qrw-mutate-sweep");
        let injector = Arc::new(Faults::default().at_byte(offset, Fault::Kill));
        let boot = CatalogWriter::with_injector(docs.clone(), tmp.path(), Arc::clone(&injector));
        let mut last_ok: Option<u64> = None;
        let mut in_flight = 0u64;
        match boot {
            Err(CatalogError::Io(_)) if offset < bootstrap_bytes => {}
            Err(e) => return Err(format!("offset {offset}: unexpected bootstrap error {e}")),
            Ok((_s, mut writer)) => {
                last_ok = Some(0);
                for b in &batches {
                    in_flight = last_ok.unwrap() + 1;
                    match writer.apply(b.clone()) {
                        Ok(epoch) => last_ok = Some(epoch),
                        Err(CatalogError::Io(_)) => break,
                        Err(e) => return Err(format!("offset {offset}: apply error {e}")),
                    }
                }
            }
        }
        match (last_ok, CatalogWriter::recover(tmp.path())) {
            (acked, Ok((store, _w))) => {
                let got = store.current_epoch();
                let floor = acked.unwrap_or(0);
                if got != floor && got != in_flight {
                    return Err(format!(
                        "offset {offset}: recovered epoch {got}, expected {floor} or {in_flight}"
                    ));
                }
                if store.pin().index().fingerprint() != fp[got as usize] {
                    return Err(format!("offset {offset}: epoch {got} not bit-for-bit"));
                }
            }
            (Some(epoch), Err(e)) => {
                return Err(format!("offset {offset}: durable epoch {epoch} failed recovery: {e}"));
            }
            (None, Err(_)) => {}
        }
    }
    Ok(total)
}

// ------------------------------------------------------------- helpers

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

/// Self-cleaning unique temp directory (std-only).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
