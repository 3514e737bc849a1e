//! KV-cache equivalence suite: for every encoder/decoder combination the
//! paper evaluates, decoding with the incremental KV cache must produce
//! exactly the tokens of the prefix-recompute reference, with log-probs
//! within 1e-4. The reference path stays reachable through
//! [`TransformerDecodeMode::PrefixRecompute`].

use qrw_nmt::{
    beam_search_normalized, greedy, thread_decode_stats, top_n_sampling, ComponentKind,
    ModelConfig, Seq2Seq, TopNDecoder, TopNSampling, TransformerDecodeMode,
};
use qrw_tensor::StdRng;
use qrw_text::BOS;

fn model(enc: ComponentKind, dec: ComponentKind, mode: TransformerDecodeMode) -> Seq2Seq {
    let mut cfg = ModelConfig::tiny_transformer(40);
    cfg.enc_kind = enc;
    cfg.dec_kind = dec;
    let mut m = Seq2Seq::new(cfg, 11);
    m.set_decode_mode(mode);
    m
}

fn all_kinds() -> Vec<(ComponentKind, ComponentKind)> {
    use ComponentKind::*;
    vec![(Transformer, Transformer), (Rnn, Rnn), (Gru, Gru), (Transformer, Rnn)]
}

const SRC: [usize; 4] = [5, 9, 14, 22];

#[test]
fn greedy_matches_reference_for_all_architectures() {
    for (e, d) in all_kinds() {
        let cached = model(e, d, TransformerDecodeMode::KvCache);
        let reference = model(e, d, TransformerDecodeMode::PrefixRecompute);
        let hc = greedy(&cached, &SRC);
        let hr = greedy(&reference, &SRC);
        assert_eq!(hc.tokens, hr.tokens, "{e}/{d}: greedy tokens diverge");
        assert!(
            (hc.log_prob - hr.log_prob).abs() < 1e-4,
            "{e}/{d}: greedy log-prob {} vs {}",
            hc.log_prob,
            hr.log_prob
        );
    }
}

#[test]
fn beam_search_matches_reference_for_all_architectures() {
    for (e, d) in all_kinds() {
        let cached = model(e, d, TransformerDecodeMode::KvCache);
        let reference = model(e, d, TransformerDecodeMode::PrefixRecompute);
        let hc = beam_search_normalized(&cached, &SRC, 4, 0.6);
        let hr = beam_search_normalized(&reference, &SRC, 4, 0.6);
        assert_eq!(hc.len(), hr.len(), "{e}/{d}: beam count diverges");
        for (c, r) in hc.iter().zip(&hr) {
            assert_eq!(c.tokens, r.tokens, "{e}/{d}: beam tokens diverge");
            assert!(
                (c.log_prob - r.log_prob).abs() < 1e-4,
                "{e}/{d}: beam log-prob {} vs {}",
                c.log_prob,
                r.log_prob
            );
        }
    }
}

#[test]
fn top_n_sampling_matches_reference_for_all_architectures() {
    let cfg = TopNSampling { k: 3, n: 8 };
    for (e, d) in all_kinds() {
        let cached = model(e, d, TransformerDecodeMode::KvCache);
        let reference = model(e, d, TransformerDecodeMode::PrefixRecompute);
        // Identical seeds: identical log-prob inputs must yield identical
        // sampling trajectories.
        let hc = top_n_sampling(&cached, &SRC, cfg, &mut StdRng::seed_from_u64(7));
        let hr = top_n_sampling(&reference, &SRC, cfg, &mut StdRng::seed_from_u64(7));
        assert_eq!(hc.len(), hr.len(), "{e}/{d}: top-n count diverges");
        for (c, r) in hc.iter().zip(&hr) {
            assert_eq!(c.tokens, r.tokens, "{e}/{d}: top-n tokens diverge");
            assert!(
                (c.log_prob - r.log_prob).abs() < 1e-4,
                "{e}/{d}: top-n log-prob {} vs {}",
                c.log_prob,
                r.log_prob
            );
        }
    }
}

/// Stepwise next-token distributions agree elementwise, not just at the
/// sampled tokens.
#[test]
fn stepwise_log_prob_vectors_agree() {
    let cached = model(
        ComponentKind::Transformer,
        ComponentKind::Transformer,
        TransformerDecodeMode::KvCache,
    );
    let reference = model(
        ComponentKind::Transformer,
        ComponentKind::Transformer,
        TransformerDecodeMode::PrefixRecompute,
    );
    let mem_c = cached.encode(&SRC);
    let mem_r = reference.encode(&SRC);
    let mut st_c = cached.start_state(&mem_c);
    let mut st_r = reference.start_state(&mem_r);
    let mut prefix = vec![BOS];
    for step in 0..6 {
        let lp_c = cached.next_log_probs(&mem_c, &mut st_c, &prefix);
        let lp_r = reference.next_log_probs(&mem_r, &mut st_r, &prefix);
        let mut best = 0usize;
        for (t, (&a, &b)) in lp_c.iter().zip(&lp_r).enumerate() {
            assert!(
                (a == b) || (a - b).abs() < 1e-4,
                "step {step} token {t}: {a} vs {b}"
            );
            if lp_c[t].is_finite() && lp_c[t] > lp_c[best] {
                best = t;
            }
        }
        prefix.push(best);
    }
}

/// A KV-cached state that falls behind its prefix (e.g. a candidate forked
/// from a shorter parent) catches up by consuming all unseen tokens, and
/// still matches the recompute reference.
#[test]
fn cache_catch_up_consumes_multiple_tokens() {
    let cached = model(
        ComponentKind::Transformer,
        ComponentKind::Transformer,
        TransformerDecodeMode::KvCache,
    );
    let reference = model(
        ComponentKind::Transformer,
        ComponentKind::Transformer,
        TransformerDecodeMode::PrefixRecompute,
    );
    let mem = cached.encode(&SRC);
    // Fresh cache, multi-token prefix: the cache has seen nothing and must
    // consume BOS plus three more tokens in one call.
    let mut st = cached.start_state(&mem);
    let prefix = [BOS, 7, 12, 9];
    let lp_c = cached.next_log_probs(&mem, &mut st, &prefix);
    let mem_r = reference.encode(&SRC);
    let mut st_r = reference.start_state(&mem_r);
    let lp_r = reference.next_log_probs(&mem_r, &mut st_r, &prefix);
    for (t, (&a, &b)) in lp_c.iter().zip(&lp_r).enumerate() {
        assert!((a == b) || (a - b).abs() < 1e-4, "token {t}: {a} vs {b}");
    }
}

/// Forked candidates (cloned states) decode independently: extending one
/// clone must not disturb the other — the beam-search invariant.
#[test]
fn cloned_cache_states_are_independent() {
    let m = model(
        ComponentKind::Transformer,
        ComponentKind::Transformer,
        TransformerDecodeMode::KvCache,
    );
    let mem = m.encode(&SRC);
    let mut base = m.start_state(&mem);
    m.next_log_probs(&mem, &mut base, &[BOS]);
    let mut fork_a = base.clone();
    let mut fork_b = base.clone();
    let lp_a = m.next_log_probs(&mem, &mut fork_a, &[BOS, 7]);
    let lp_b = m.next_log_probs(&mem, &mut fork_b, &[BOS, 19]);
    // Replaying fork B's path on a fresh state gives the same result even
    // though fork A advanced "in between" on the shared parent.
    let mut fresh = m.start_state(&mem);
    let lp_fresh = m.next_log_probs(&mem, &mut fresh, &[BOS, 19]);
    // (one catch-up call: BOS and 19 together)
    for (t, (&a, &b)) in lp_b.iter().zip(&lp_fresh).enumerate() {
        assert!((a == b) || (a - b).abs() < 1e-4, "token {t}: {a} vs {b}");
    }
    assert_ne!(lp_a, lp_b, "different continuations must differ");
}

/// Telemetry: the cached path reports cache hits and linear token work;
/// the recompute path reports quadratic token work and no hits. The
/// calling thread's counters add up both models' work, and a decode on
/// another thread leaves them alone.
#[test]
fn decode_stats_reflect_cache_usage() {
    let before = thread_decode_stats();
    let cached = model(
        ComponentKind::Transformer,
        ComponentKind::Transformer,
        TransformerDecodeMode::KvCache,
    );
    let reference = model(
        ComponentKind::Transformer,
        ComponentKind::Transformer,
        TransformerDecodeMode::PrefixRecompute,
    );
    for m in [&cached, &reference] {
        let mem = m.encode(&SRC);
        let mut st = m.start_state(&mem);
        let mut prefix = vec![BOS];
        for tok in [7usize, 12, 9, 15] {
            m.next_log_probs(&mem, &mut st, &prefix);
            prefix.push(tok);
        }
    }
    let sc = cached.decode_stats();
    let sr = reference.decode_stats();
    assert_eq!(sc.steps, 4);
    assert_eq!(sr.steps, 4);
    // Cached: one new token per step. Recompute: the whole prefix each step.
    assert_eq!(sc.tokens, 4);
    assert_eq!(sr.tokens, 1 + 2 + 3 + 4);
    // Step s sees s already-cached positions: 0 + 1 + 2 + 3.
    assert_eq!(sc.cache_hits, 6);
    assert_eq!(sr.cache_hits, 0);

    let mine = thread_decode_stats().since(&before);
    assert_eq!((mine.steps, mine.tokens, mine.cache_hits), (8, 4 + 10, 6));
    std::thread::scope(|s| {
        s.spawn(|| {
            let mem = cached.encode(&SRC);
            cached.next_log_probs(&mem, &mut cached.start_state(&mem), &[BOS]);
        });
    });
    assert_eq!(cached.decode_stats().steps, 5);
    assert_eq!(thread_decode_stats().since(&before), mine);
}
