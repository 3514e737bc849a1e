//! Mutation-under-serving integration suite: the torn-read invariant,
//! crash recovery at every commit kill-point, writer-panic containment,
//! and publish/reclaim race schedules.
//!
//! The load-bearing test is [`served_responses_are_byte_identical_to_a_
//! serial_run_against_their_pinned_epoch`]: every response produced under
//! concurrent churn carries the epoch it pinned, and re-serving the same
//! query against a serial rebuild of exactly that epoch must reproduce
//! the response **byte for byte** (`Debug` formatting) — the end-to-end
//! form of the snapshot layer's torn-read invariant.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qrw_search::segment::replay;
use qrw_search::{
    CatalogError, CatalogWriter, DeadlineBudget, Fault, Faults, IndexSnapshot, InvertedIndex,
    MutationBatch, RewriteCache, RewriteLadder, SearchEngine, Segment, ServingConfig, Site,
    SnapshotStore,
};
use qrw_tensor::rng::StdRng;

// ---------------------------------------------------------------- fixtures

const WORDS: [&str; 8] = ["red", "shoes", "men", "dress", "phone", "case", "sale", "new"];

fn word(i: usize) -> String {
    WORDS[i % WORDS.len()].to_string()
}

fn corpus(n: usize) -> Vec<Vec<String>> {
    (0..n).map(|i| vec![word(i), word(i + 1), word(i * 2 + 3)]).collect()
}

/// A deterministic batch stream whose remove/update ops always target a
/// doc live at that point of the replay.
fn batches(initial_docs: usize, n: usize, seed: u64) -> Vec<MutationBatch> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut alive: Vec<usize> = (0..initial_docs).collect();
    let mut next_id = initial_docs;
    (0..n)
        .map(|_| {
            let ops = rng.gen_range(1usize..4);
            let mut batch = MutationBatch::new();
            for _ in 0..ops {
                match rng.gen_range(0u32..10) {
                    0..=5 => {
                        let doc = vec![word(rng.gen_range(0..WORDS.len())), word(rng.gen_range(0..WORDS.len()))];
                        batch = batch.add_doc(doc);
                        alive.push(next_id);
                        next_id += 1;
                    }
                    6..=7 if !alive.is_empty() => {
                        let slot = rng.gen_range(0..alive.len());
                        batch = batch.remove_doc(alive.swap_remove(slot));
                    }
                    _ if !alive.is_empty() => {
                        let slot = rng.gen_range(0..alive.len());
                        let old = alive[slot];
                        batch = batch.update_doc(old, vec![word(rng.gen_range(0..WORDS.len()))]);
                        alive[slot] = next_id;
                        next_id += 1;
                    }
                    _ => {
                        batch = batch.add_doc(vec![word(0)]);
                        alive.push(next_id);
                        next_id += 1;
                    }
                }
            }
            batch
        })
        .collect()
}

/// The index of epoch `e`: base corpus plus the first `e` batches,
/// replayed serially. This is the ground truth the writer's
/// copy-on-write applies must match.
fn epoch_index(docs: &[Vec<String>], stream: &[MutationBatch], e: usize) -> InvertedIndex {
    let mut segments = vec![Segment::base_of(docs.iter().map(Vec::as_slice))];
    segments.extend(stream[..e].iter().cloned().map(Segment::seal));
    replay(&segments)
}

/// A cache prefilled with fixed rewrites for every query in `queries`,
/// so the ladder's cache rung is deterministic and read-only.
fn prefilled_cache(queries: &[Vec<String>]) -> RewriteCache {
    let cache = RewriteCache::new();
    for q in queries {
        cache.insert(q, vec![vec![word(3), word(5)]]);
    }
    cache
}

fn serve(engine: &SearchEngine, cache: &RewriteCache, query: &[String]) -> String {
    let ladder = RewriteLadder { cache: Some(cache), ..RewriteLadder::default() };
    let resp = engine.search_resilient(
        query,
        ladder,
        &ServingConfig::default(),
        &DeadlineBudget::unlimited(),
        None,
    );
    format!("{resp:?}")
}

fn response_epoch(rendered: &str) -> u64 {
    // `SearchResponse` is a plain struct Debug: `epoch: <n> }` is its
    // last field.
    let tail = rendered.rsplit("epoch: ").next().expect("epoch field present");
    tail.trim_end_matches(&[' ', '}'][..]).trim().parse().expect("epoch parses")
}

// ------------------------------------------------- torn-read invariant

/// Readers hammer a live engine while a writer publishes 40 epochs; every
/// response is then re-derived on a serial engine pinned to the epoch the
/// response claims, and must match byte for byte.
#[test]
fn served_responses_are_byte_identical_to_a_serial_run_against_their_pinned_epoch() {
    let docs = corpus(12);
    let stream = batches(docs.len(), 40, 0xA11CE);
    let queries: Vec<Vec<String>> = (0..6).map(|i| vec![word(i), word(i + 2)]).collect();
    let cache = Arc::new(prefilled_cache(&queries));

    let (store, mut writer) = CatalogWriter::bootstrap(docs.clone());
    let engine = Arc::new(SearchEngine::live(Arc::clone(&store)));

    let n_batches = stream.len();
    // Pace the writer off the readers' progress so the epochs genuinely
    // interleave with serving (without the pacing, 40 in-memory publishes
    // complete before the first reader thread even starts).
    let served = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let writer_stream = stream.clone();
    let writer_progress = Arc::clone(&served);
    let writer_thread = std::thread::spawn(move || {
        for (i, batch) in writer_stream.into_iter().enumerate() {
            while writer_progress.load(std::sync::atomic::Ordering::SeqCst) < (i as u64 + 1) * 8 {
                std::thread::yield_now();
            }
            writer.apply(batch).expect("in-memory publish cannot fail");
            writer.reclaim();
        }
    });

    let mut readers = Vec::new();
    for t in 0..4 {
        let engine = Arc::clone(&engine);
        let cache = Arc::clone(&cache);
        let queries = queries.clone();
        let served = Arc::clone(&served);
        let store = Arc::clone(&store);
        readers.push(std::thread::spawn(move || {
            let mut out = Vec::new();
            for i in 0..120 {
                // Bidirectional pacing (the writer waits on `served`
                // above): without this, fast readers can drain their
                // whole quota before the writer thread is scheduled and
                // every response pins epoch 0.
                let s = served.load(std::sync::atomic::Ordering::SeqCst);
                let target = (s / 8).min(n_batches as u64);
                while store.current_epoch() < target {
                    std::thread::yield_now();
                }
                let q = &queries[(t + i) % queries.len()];
                out.push((q.clone(), serve(&engine, &cache, q)));
                served.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
            out
        }));
    }
    let observed: Vec<(Vec<String>, String)> =
        readers.into_iter().flat_map(|r| r.join().expect("reader must not panic")).collect();
    writer_thread.join().expect("writer must not panic");

    assert_eq!(store.current_epoch(), n_batches as u64);

    // Serial ground truth per epoch, built lazily (churn means most
    // epochs were observed by someone).
    let mut serial: Vec<Option<SearchEngine>> = (0..=n_batches).map(|_| None).collect();
    let mut epochs_seen = std::collections::BTreeSet::new();
    for (query, rendered) in &observed {
        let epoch = response_epoch(rendered) as usize;
        assert!(epoch <= n_batches, "response claims unpublished epoch {epoch}");
        epochs_seen.insert(epoch);
        let engine = serial[epoch].get_or_insert_with(|| {
            let index = epoch_index(&corpus(12), &stream, epoch);
            SearchEngine::live(SnapshotStore::new(IndexSnapshot::new(epoch as u64, index)))
        });
        let expected = serve(engine, &cache, query);
        assert_eq!(
            &expected, rendered,
            "epoch {epoch}: concurrent response diverges from serial replay"
        );
    }
    // Sanity: the run actually spanned multiple epochs (otherwise the
    // test silently degenerates to a frozen-catalog check).
    assert!(epochs_seen.len() > 1, "churn never overlapped serving: {epochs_seen:?}");
    assert_eq!(store.pinned_now(), 0, "all request pins released");
}

// ---------------------------------------------------- crash recovery

/// Kills the commit stream at **every byte offset** of a catalog's life
/// (bootstrap commit + three batch commits) and recovers: the recovered
/// catalog must be bit-for-bit the last epoch whose `apply` returned Ok —
/// or fail to recover if the kill predates the first durable epoch.
#[test]
fn kill_at_every_commit_byte_recovers_the_last_sealed_epoch() {
    let docs = corpus(3);
    let stream = batches(docs.len(), 3, 0xD1E);

    // Serial fingerprints of every epoch.
    let fp: Vec<u64> =
        (0..=stream.len()).map(|e| epoch_index(&docs, &stream, e).fingerprint()).collect();

    // Probe run: total bytes of the whole commit stream, plus the byte
    // offset where the bootstrap commit ends.
    let probe = Arc::new(Faults::default());
    let (bootstrap_bytes, total_bytes) = {
        let tmp = TempDir::new("qrw-mutation-probe");
        let (_store, mut w) = CatalogWriter::with_injector(docs.clone(), tmp.path(), Arc::clone(&probe))
            .expect("probe bootstrap");
        let bootstrap = probe.total_bytes();
        for b in &stream {
            w.apply(b.clone()).expect("probe apply");
        }
        (bootstrap, probe.total_bytes())
    };
    assert!(bootstrap_bytes > 0 && total_bytes > bootstrap_bytes);

    for offset in 0..total_bytes {
        let tmp = TempDir::new("qrw-mutation-kill");
        let injector = Arc::new(Faults::default().at_byte(offset, Fault::Kill));
        let boot = CatalogWriter::with_injector(docs.clone(), tmp.path(), Arc::clone(&injector));
        // The epoch the kill interrupted: its commit *may* still be
        // durable — a kill during the `LATEST` pointer write lands after
        // the manifest rename (the commit point), and the verified
        // fallback scan finds the epoch anyway. The acknowledged epoch is
        // the floor; the in-flight one is the only other legal outcome.
        let mut last_ok: Option<u64> = None;
        let mut in_flight: u64 = 0;
        match boot {
            Err(CatalogError::Io(_)) => {
                assert!(
                    offset < bootstrap_bytes,
                    "bootstrap died past its own commit (offset {offset})"
                );
            }
            Err(e) => panic!("offset {offset}: unexpected bootstrap error {e}"),
            Ok((_store, mut writer)) => {
                last_ok = Some(0);
                for batch in &stream {
                    in_flight = last_ok.unwrap() + 1;
                    match writer.apply(batch.clone()) {
                        Ok(epoch) => last_ok = Some(epoch),
                        Err(CatalogError::Io(_)) => break,
                        Err(e) => panic!("offset {offset}: unexpected apply error {e}"),
                    }
                }
            }
        }
        match (last_ok, CatalogWriter::recover(tmp.path())) {
            (acked, Ok((store, _writer))) => {
                let got = store.current_epoch();
                let floor = acked.unwrap_or(0);
                assert!(
                    got == floor || got == in_flight,
                    "offset {offset}: recovered epoch {got}, expected {floor} (acked) or \
                     {in_flight} (in-flight commit that proved durable)"
                );
                assert!(
                    got >= floor,
                    "offset {offset}: recovery regressed below an acknowledged epoch"
                );
                assert_eq!(
                    store.pin().index().fingerprint(),
                    fp[got as usize],
                    "offset {offset}: epoch {got} not recovered bit-for-bit"
                );
            }
            (Some(epoch), Err(e)) => {
                panic!("offset {offset}: epoch {epoch} was durable but recovery failed: {e}")
            }
            (None, Err(_)) => {} // killed before any durable epoch: nothing to recover
        }
    }
}

/// A recovered writer keeps writing: the resumed catalog extends the
/// chain exactly as an uninterrupted run would have.
#[test]
fn recovery_resumes_the_segment_chain_bit_for_bit() {
    let docs = corpus(5);
    let stream = batches(docs.len(), 4, 0xBEEF);
    let tmp = TempDir::new("qrw-mutation-resume");

    let (_store, mut writer) =
        CatalogWriter::bootstrap_persistent(docs.clone(), tmp.path()).expect("bootstrap");
    for b in &stream[..2] {
        writer.apply(b.clone()).expect("apply");
    }
    drop(writer);

    let (store, mut writer) = CatalogWriter::recover(tmp.path()).expect("recover");
    assert_eq!(store.current_epoch(), 2);
    for b in &stream[2..] {
        writer.apply(b.clone()).expect("apply after recovery");
    }
    assert_eq!(
        store.pin().index().fingerprint(),
        epoch_index(&docs, &stream, stream.len()).fingerprint(),
        "resumed chain diverges from the uninterrupted serial run"
    );

    // And the extended chain is itself durable.
    drop(writer);
    let (store2, _writer2) = CatalogWriter::recover(tmp.path()).expect("second recover");
    assert_eq!(store2.current_epoch(), stream.len() as u64);
    assert_eq!(store2.pin().index().fingerprint(), store.pin().index().fingerprint());
}

// ------------------------------------------------- graceful degradation

/// A writer that panics mid-stream is contained: serving stays on the
/// last good epoch, the panic is counted, and the writer keeps working
/// for subsequent batches.
#[test]
fn writer_panic_leaves_serving_on_the_last_good_epoch() {
    let docs = corpus(6);
    let stream = batches(docs.len(), 3, 0x5EED);
    let tmp = TempDir::new("qrw-mutation-panic");
    let injector = Arc::new(Faults::default().nth(Site::WriterBatch, 1, Fault::Panic));
    let (store, mut writer) =
        CatalogWriter::with_injector(docs.clone(), tmp.path(), injector).expect("bootstrap");
    let engine = SearchEngine::live(Arc::clone(&store));

    writer.apply_resilient(stream[0].clone()).expect("batch 0 publishes");
    let before = serve(&engine, &prefilled_cache(&[vec![word(0)]]), &[word(0)]);

    match writer.apply_resilient(stream[1].clone()) {
        Err(CatalogError::WriterPanic) => {}
        other => panic!("expected contained panic, got {other:?}"),
    }
    // Byte-identical serving on the last good epoch; health sees the panic.
    let after = serve(&engine, &prefilled_cache(&[vec![word(0)]]), &[word(0)]);
    assert_eq!(before, after);
    assert_eq!(store.current_epoch(), 1);
    let report = engine.health_report();
    assert_eq!(report.churn.writer_panics, 1);
    assert_eq!(report.churn.epochs_published, 1);

    // The writer survives and the panicked batch is simply skipped.
    let epoch = writer.apply_resilient(stream[2].clone()).expect("batch 2 publishes");
    assert_eq!(epoch, 2);
    let serial = {
        let mut segs = vec![Segment::base_of(docs.iter().map(Vec::as_slice))];
        segs.push(Segment::seal(stream[0].clone()));
        segs.push(Segment::seal(stream[2].clone()));
        replay(&segs)
    };
    assert_eq!(store.pin().index().fingerprint(), serial.fingerprint());
}

/// Publish/reclaim race schedule: a pin taken while the writer is held at
/// the publish gate stays on the old epoch after the publish completes,
/// and reclaim never frees it while pinned.
#[test]
fn pin_held_across_a_gated_publish_keeps_its_epoch() {
    let docs = corpus(4);
    let stream = batches(docs.len(), 1, 0xFACE);
    let tmp = TempDir::new("qrw-mutation-stall");
    let injector = Arc::new(Faults::default().nth(Site::PublishGate, 0, Fault::Hold));
    let (store, writer) =
        CatalogWriter::with_injector(docs.clone(), tmp.path(), Arc::clone(&injector))
            .expect("bootstrap");

    let batch = stream[0].clone();
    let mut writer = writer;
    let gate = Arc::clone(&injector);
    let writer_thread = std::thread::spawn(move || {
        writer.apply(batch).expect("gated apply publishes after release");
        writer
    });
    let watchdog = Instant::now();
    while !injector.held() {
        assert!(
            watchdog.elapsed() < Duration::from_secs(60),
            "the writer never reached the held publish gate within 60 s"
        );
        std::thread::yield_now();
    }
    // The batch is already durable but NOT published: readers still pin
    // epoch 0.
    let old_pin = store.pin();
    assert_eq!(old_pin.epoch(), 0);
    let fp0 = old_pin.index().fingerprint();

    gate.release();
    let writer = writer_thread.join().expect("writer");
    assert_eq!(store.current_epoch(), 1);
    assert_eq!(store.pin().epoch(), 1);

    // The old pin's view is untouched by publish + eager reclaim.
    writer.reclaim();
    assert_eq!(old_pin.epoch(), 0);
    assert_eq!(old_pin.index().fingerprint(), fp0);
    assert!(store.pinned_now() >= 1);
    drop(old_pin);
    assert_eq!(store.pinned_now(), 0);
}

// ------------------------------------------------------------- helpers

/// Self-cleaning unique temp directory (std-only).
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
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
