//! Hot-swap atomicity: serving under concurrent model swaps is
//! byte-identical to a serial replay against each response's stamped
//! model epoch.
//!
//! Four serving threads hammer session requests (pin → full ladder walk
//! → unpin) while a writer thread publishes a stream of alternating
//! models through the [`ModelStore`]. Every response is then replayed
//! serially against a fresh store advanced to exactly the epoch the
//! response was stamped with. If a request could ever observe a torn
//! swap — half old model, half new — some response's rewrites (and hence
//! its whole Debug rendering) would diverge from the replay.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use qrw_nmt::{ModelConfig, Seq2Seq};
use qrw_online::{ContextQ2Q, ONLINE_MODEL_NAME};
use qrw_search::{
    DeadlineBudget, InvertedIndex, ModelStore, RewriteLadder, SearchEngine, ServingConfig,
    SessionState, SharedRewriter,
};
use qrw_text::Vocab;

fn toks(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

fn world() -> (SearchEngine, Arc<Vocab>) {
    let mut vocab = Vocab::new();
    for i in 0..16 {
        vocab.insert(&format!("w{i}"));
    }
    let docs: Vec<Vec<String>> = (0..40)
        .map(|d| {
            vec![
                format!("w{}", d % 16),
                format!("w{}", (d * 7 + 3) % 16),
                format!("w{}", (d * 11 + 5) % 16),
            ]
        })
        .collect();
    (SearchEngine::new(InvertedIndex::build(docs)), Arc::new(vocab))
}

/// Two observably different session models over the same vocab.
fn model_pool(vocab: &Arc<Vocab>) -> Vec<SharedRewriter> {
    [41u64, 43]
        .iter()
        .map(|&seed| {
            Arc::new(
                ContextQ2Q::new(
                    Arc::new(Seq2Seq::new(ModelConfig::tiny_transformer(20), seed)),
                    Arc::clone(vocab),
                    8,
                    7,
                )
                .with_name(ONLINE_MODEL_NAME),
            ) as SharedRewriter
        })
        .collect()
}

/// Yields until `ready` holds. Panics after a minute instead of hanging
/// when the other side of the handshake died.
fn wait_until(ready: impl Fn() -> bool) {
    let start = std::time::Instant::now();
    while !ready() {
        assert!(start.elapsed() < std::time::Duration::from_secs(60), "handshake stalled");
        std::thread::yield_now();
    }
}

#[test]
fn concurrent_swaps_serve_byte_identical_to_serial_replay() {
    const THREADS: usize = 4;
    const REQUESTS: usize = 24;
    const SWAPS: usize = 20;
    // Swap `i` (1-based) waits for `i * PACE` served requests, and each
    // server's last `TAIL` requests wait for the final swap: the first
    // PACE requests are served from epoch 1 and the last THREADS * TAIL
    // from the final epoch, so every run straddles swaps by construction.
    // No deadlock: the final swap needs SWAPS * PACE completions, fewer
    // than the THREADS * (REQUESTS - TAIL) requests that never wait.
    const PACE: usize = 4;
    const TAIL: usize = 2;
    const _: () = assert!(SWAPS * PACE <= THREADS * (REQUESTS - TAIL));

    let (engine, vocab) = world();
    let pool = model_pool(&vocab);
    let store = ModelStore::new(Arc::clone(&pool[0]));
    let config = ServingConfig::default();

    let queries = [toks("w2 w5"), toks("w9"), toks("w1 w3 w4"), toks("w7 w12")];
    let contexts: [Vec<Vec<String>>; 3] =
        [vec![], vec![toks("w1 w9")], vec![toks("w3"), toks("w5 w6")]];

    let completed = AtomicUsize::new(0);
    let swaps_done = AtomicUsize::new(0);
    // (epoch, model index) in publish order — epoch 1 is pool[0].
    let mut published: Vec<(u64, usize)> = Vec::new();
    // Per-thread: (stamped epoch, context idx, query idx, Debug bytes).
    let mut served: Vec<Vec<(u64, usize, usize, String)>> = Vec::new();

    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut log = Vec::new();
            for i in 0..SWAPS {
                wait_until(|| completed.load(Ordering::SeqCst) >= (i + 1) * PACE);
                let which = (i + 1) % 2;
                let epoch = store.publish(Arc::clone(&pool[which]));
                log.push((epoch, which));
                swaps_done.fetch_add(1, Ordering::SeqCst);
            }
            log
        });

        let servers: Vec<_> = (0..THREADS)
            .map(|t| {
                let engine = &engine;
                let store = &store;
                let config = &config;
                let queries = &queries;
                let contexts = &contexts;
                let (completed, swaps_done) = (&completed, &swaps_done);
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(REQUESTS);
                    for r in 0..REQUESTS {
                        if r >= REQUESTS - TAIL {
                            wait_until(|| swaps_done.load(Ordering::SeqCst) == SWAPS);
                        }
                        let qi = (t + r) % queries.len();
                        let ci = (t * 5 + r) % contexts.len();
                        let pin = store.pin();
                        let session =
                            SessionState { context: &contexts[ci], model: Some(&pin) };
                        let resp = engine.search_session_traced(
                            &queries[qi],
                            session,
                            RewriteLadder::default(),
                            config,
                            &DeadlineBudget::unlimited(),
                            None,
                            None,
                        );
                        assert_eq!(resp.model_epoch, pin.epoch(), "stamp == pinned epoch");
                        out.push((resp.model_epoch, ci, qi, format!("{resp:?}")));
                        completed.fetch_add(1, Ordering::SeqCst);
                    }
                    out
                })
            })
            .collect();

        for s in servers {
            served.push(s.join().unwrap());
        }
        published = writer.join().unwrap();
    });

    assert_eq!(published.len(), SWAPS);
    // Epochs are assigned contiguously from 2.
    for (i, &(epoch, _)) in published.iter().enumerate() {
        assert_eq!(epoch, i as u64 + 2);
    }

    // Serial replay: advance a fresh store through the same publish
    // sequence, pinning every epoch as it appears (enough slots to hold
    // them all), then re-serve each request against its stamped epoch.
    let replay = ModelStore::with_slots(Arc::clone(&pool[0]), SWAPS + 4);
    let mut pins = vec![replay.pin()]; // pins[e-1] holds epoch e
    for &(_, which) in &published {
        replay.publish(Arc::clone(&pool[which]));
        pins.push(replay.pin());
    }
    for (e, pin) in pins.iter().enumerate() {
        assert_eq!(pin.epoch(), e as u64 + 1);
    }

    let mut checked = 0usize;
    let mut epochs_seen: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for thread in &served {
        for (epoch, ci, qi, bytes) in thread {
            let pin = &pins[(*epoch - 1) as usize];
            let session = SessionState { context: &contexts[*ci], model: Some(pin) };
            let resp = engine.search_session_traced(
                &queries[*qi],
                session,
                RewriteLadder::default(),
                &config,
                &DeadlineBudget::unlimited(),
                None,
                None,
            );
            assert_eq!(
                *bytes,
                format!("{resp:?}"),
                "response under concurrent swaps must equal its serial replay \
                 (epoch {epoch}, ctx {ci}, query {qi})"
            );
            checked += 1;
            epochs_seen.insert(*epoch);
        }
    }
    assert_eq!(checked, THREADS * REQUESTS);
    assert!(
        epochs_seen.len() > 1,
        "the run should actually straddle several epochs, saw {epochs_seen:?}"
    );

    // No pins leaked; the concurrent store reclaimed superseded epochs.
    let stats = store.swap_stats();
    assert_eq!(stats.pinned_now, 0);
    assert_eq!(stats.epochs_published, SWAPS as u64);
    assert!(stats.epochs_reclaimed > 0);
}
