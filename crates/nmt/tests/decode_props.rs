//! Property-style tests for the sequence decoders over randomly
//! initialized (untrained) models — the invariants must hold regardless
//! of weights. Cases are drawn from a seeded generator, so every run is
//! reproducible.

use qrw_tensor::rng::StdRng;

use qrw_nmt::decode::{top_pool, top_pool_scalar};
use qrw_nmt::{
    beam_search, diverse_beam_search, greedy, thread_decode_stats, top_n_sampling, ComponentKind,
    ModelConfig, QuantStudent, Seq2Seq, TopNDecoder, TopNSampling,
};
use qrw_text::NUM_SPECIALS;

fn model(seed: u64, enc: ComponentKind, dec: ComponentKind) -> Seq2Seq {
    let mut cfg = ModelConfig::tiny_transformer(20);
    cfg.max_tgt_len = 8;
    cfg.enc_kind = enc;
    cfg.dec_kind = dec;
    Seq2Seq::new(cfg, seed)
}

fn rand_src(rng: &mut StdRng) -> Vec<usize> {
    let len = rng.gen_range(1usize..6);
    (0..len).map(|_| rng.gen_range(4usize..20)).collect()
}

fn rand_kinds(rng: &mut StdRng) -> (ComponentKind, ComponentKind) {
    match rng.gen_range(0usize..3) {
        0 => (ComponentKind::Transformer, ComponentKind::Transformer),
        1 => (ComponentKind::Gru, ComponentKind::Gru),
        _ => (ComponentKind::Transformer, ComponentKind::Rnn),
    }
}

const CASES: usize = 12;

/// Hypotheses never contain special tokens and respect the length cap.
#[test]
fn no_specials_and_bounded_length() {
    let mut cases = StdRng::seed_from_u64(0x0DEC_0001);
    for _ in 0..CASES {
        let seed = cases.gen_range(0u64..50);
        let src = rand_src(&mut cases);
        let kinds = rand_kinds(&mut cases);
        let m = model(seed, kinds.0, kinds.1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut all = beam_search(&m, &src, 3);
        all.push(greedy(&m, &src));
        all.extend(top_n_sampling(&m, &src, TopNSampling { k: 3, n: 5 }, &mut rng));
        all.extend(diverse_beam_search(&m, &src, 2, 2, 0.5));
        for h in all {
            assert!(h.tokens.len() <= m.max_tgt_len() + 1);
            assert!(h.tokens.iter().all(|&t| (NUM_SPECIALS..20).contains(&t)));
            assert!(h.log_prob <= 0.0);
        }
    }
}

/// Beam results are sorted and the best beam matches the true model
/// score of its own tokens.
#[test]
fn beam_scores_are_consistent() {
    let mut cases = StdRng::seed_from_u64(0x0DEC_0002);
    for _ in 0..CASES {
        let seed = cases.gen_range(0u64..50);
        let src = rand_src(&mut cases);
        let m = model(seed, ComponentKind::Transformer, ComponentKind::Transformer);
        let hyps = beam_search(&m, &src, 3);
        assert!(!hyps.is_empty());
        for w in hyps.windows(2) {
            assert!(w[0].log_prob >= w[1].log_prob);
        }
        let best = &hyps[0];
        if best.tokens.len() < m.max_tgt_len() {
            // Finished hypothesis: the reported score is log P(tokens,EOS|src).
            let lp = m.log_prob(&src, &best.tokens);
            assert!((lp - best.log_prob).abs() < 1e-2, "{lp} vs {}", best.log_prob);
        }
    }
}

/// A wider beam returns at least as many hypotheses, all distinct.
/// (Note: beam search is NOT monotonic in width — a wider beam can
/// prune the narrow beam's path mid-sequence — so we deliberately do
/// not assert score dominance.)
#[test]
fn wider_beam_more_distinct_hypotheses() {
    let mut cases = StdRng::seed_from_u64(0x0DEC_0003);
    for _ in 0..CASES {
        let seed = cases.gen_range(0u64..30);
        let src = rand_src(&mut cases);
        let m = model(seed, ComponentKind::Transformer, ComponentKind::Transformer);
        let narrow = beam_search(&m, &src, 1);
        let wide = beam_search(&m, &src, 4);
        assert!(wide.len() >= narrow.len());
        let mut tokens: Vec<&Vec<usize>> = wide.iter().map(|h| &h.tokens).collect();
        let before = tokens.len();
        tokens.sort();
        tokens.dedup();
        assert_eq!(before, tokens.len(), "duplicate hypotheses in beam output");
    }
}

/// Greedy equals width-1 beam search.
#[test]
fn greedy_is_beam_one() {
    let mut cases = StdRng::seed_from_u64(0x0DEC_0004);
    for _ in 0..CASES {
        let seed = cases.gen_range(0u64..30);
        let src = rand_src(&mut cases);
        let m = model(seed, ComponentKind::Gru, ComponentKind::Gru);
        let g = greedy(&m, &src);
        let b = beam_search(&m, &src, 1);
        assert_eq!(&g.tokens, &b[0].tokens);
    }
}

/// Top-n sampling first tokens are pairwise distinct (the §III-F
/// diversity-by-construction step).
#[test]
fn top_n_first_tokens_distinct() {
    let mut cases = StdRng::seed_from_u64(0x0DEC_0005);
    for _ in 0..CASES {
        let seed = cases.gen_range(0u64..50);
        let src = rand_src(&mut cases);
        let m = model(seed, ComponentKind::Transformer, ComponentKind::Transformer);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
        let hyps = top_n_sampling(&m, &src, TopNSampling { k: 3, n: 6 }, &mut rng);
        let firsts: Vec<usize> = hyps.iter().filter_map(|h| h.tokens.first().copied()).collect();
        let mut unique = firsts.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), firsts.len());
    }
}

/// Pinned regression (formerly `decode_props.proptest-regressions`:
/// `seed = 28, src = [4]`): a single-token source once tripped the
/// decoder invariants. Kept as an explicit case so it runs on every
/// architecture combination, every time, without a shrinker artifact
/// file.
#[test]
fn regression_seed_28_single_token_source() {
    let src = vec![4usize];
    for (enc, dec) in [
        (ComponentKind::Transformer, ComponentKind::Transformer),
        (ComponentKind::Gru, ComponentKind::Gru),
        (ComponentKind::Transformer, ComponentKind::Rnn),
    ] {
        let m = model(28, enc, dec);
        let mut rng = StdRng::seed_from_u64(28);
        let mut all = beam_search(&m, &src, 3);
        all.push(greedy(&m, &src));
        all.extend(top_n_sampling(&m, &src, TopNSampling { k: 3, n: 5 }, &mut rng));
        all.extend(diverse_beam_search(&m, &src, 2, 2, 0.5));
        for h in &all {
            assert!(h.tokens.len() <= m.max_tgt_len() + 1);
            assert!(h.tokens.iter().all(|&t| (NUM_SPECIALS..20).contains(&t)));
            assert!(h.log_prob <= 0.0);
        }
        // Greedy must still equal width-1 beam search on this input.
        let g = greedy(&m, &src);
        let b = beam_search(&m, &src, 1);
        assert_eq!(g.tokens, b[0].tokens, "{enc:?}/{dec:?}");
    }
}

/// The decode counters of one top-n request, for any model behind the one
/// top-n loop: the model's counters move by exactly the calling thread's,
/// one step and one token per generated token plus the first (BOS) step,
/// and a KV-cache hit per already-decoded position; the request returns
/// `min(k, ordinary tokens)` hypotheses of ordinary tokens within the
/// length cap, whatever `n` and however long the source.
fn check_counter_contract<M: TopNDecoder>(model: &M, config: &ModelConfig, seed: u64) {
    let ordinary = config.vocab - NUM_SPECIALS;
    let token = |i: usize| NUM_SPECIALS + (i * 7 + seed as usize) % ordinary;
    let short: Vec<usize> = (0..3).map(token).collect();
    let long: Vec<usize> = (0..config.max_src_len + 4).map(token).collect();
    for k in [0, 1, 3, 200] {
        for n in [0, 1, 5] {
            for src in [&short, &long] {
                let ctx = format!("{} seed {seed} k {k} n {n} source of {}", M::NAME, src.len());
                let (model_before, thread_before) = (model.decode_stats(), thread_decode_stats());
                let mut rng = StdRng::seed_from_u64(seed);
                let hyps = model.top_n_sampling(src, TopNSampling { k, n }, &mut rng);
                let counts = model.decode_stats().since(&model_before);
                assert_eq!(counts, thread_decode_stats().since(&thread_before), "{ctx}");
                let lengths = hyps.iter().map(|h| h.tokens.len() as u64);
                assert_eq!(counts.steps, 1 + lengths.clone().sum::<u64>(), "{ctx}");
                assert_eq!(counts.tokens, counts.steps, "{ctx}");
                let hits: u64 = lengths.map(|l| l * (l + 1) / 2).sum();
                assert_eq!(counts.cache_hits, hits, "{ctx}");
                assert_eq!(hyps.len(), k.min(ordinary), "{ctx}");
                for h in &hyps {
                    let ordinary_tokens = NUM_SPECIALS..config.vocab;
                    assert!(h.tokens.iter().all(|t| ordinary_tokens.contains(t)), "{ctx}");
                    assert!(h.tokens.len() <= config.max_tgt_len, "{ctx}");
                }
            }
        }
    }
}

#[test]
fn top_n_decode_counters_follow_the_hypotheses() {
    for seed in 0..6 {
        let teacher = Seq2Seq::new(ModelConfig::tiny_transformer(30), seed);
        check_counter_contract(&teacher, teacher.config(), seed);
        let student = QuantStudent::from_seq2seq(&Seq2Seq::new(ModelConfig::student(30), seed))
            .expect("pure transformer student");
        check_counter_contract(&student, student.config(), seed);
    }
}

/// log P(tgt|src) via the model equals the sum of stepwise
/// next-token log-probabilities (chain rule) for arbitrary targets.
#[test]
fn chain_rule_holds() {
    let mut cases = StdRng::seed_from_u64(0x0DEC_0006);
    for _ in 0..CASES {
        let seed = cases.gen_range(0u64..30);
        let src = rand_src(&mut cases);
        let tgt: Vec<usize> = {
            let len = cases.gen_range(1usize..5);
            (0..len).map(|_| cases.gen_range(4usize..20)).collect()
        };
        let kinds = rand_kinds(&mut cases);
        let m = model(seed, kinds.0, kinds.1);
        let lp = m.log_prob(&src, &tgt);
        let memory = m.encode(&src);
        let mut state = m.start_state(&memory);
        let mut prefix = vec![qrw_text::BOS];
        let mut total = 0.0;
        for &tok in tgt.iter().chain(std::iter::once(&qrw_text::EOS)) {
            let lps = m.next_log_probs(&memory, &mut state, &prefix);
            total += lps[tok];
            prefix.push(tok);
        }
        assert!((lp - total).abs() < 2e-3, "{lp} vs {total}");
    }
}

/// The dispatching `top_pool` (AVX2 where available) against its scalar
/// twin: the same pool in the same order, and the same maximum bit for
/// bit, over rows salted with NaN, ±inf, ±0.0 and ties, with and without
/// skip lists, at caps 0, 1, a few, and beyond the row length, and at
/// lengths around the eight-lane chunks.
#[test]
fn simd_top_pool_is_bitwise_its_scalar_twin() {
    const SPECIALS: [f32; 6] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1.5];
    let bits = |p: &[(f32, usize)]| p.iter().map(|&(v, t)| (v.to_bits(), t)).collect::<Vec<_>>();
    let check = |row: &[f32], cap: usize, skip: &[usize]| {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let got_max = top_pool(row, cap, skip, &mut got);
        let want_max = top_pool_scalar(row, cap, skip, &mut want);
        assert_eq!(got_max.to_bits(), want_max.to_bits(), "max of {row:?} cap {cap}");
        assert_eq!(bits(&got), bits(&want), "pool of {row:?} cap {cap} skip {skip:?}");
    };
    let mut rng = StdRng::seed_from_u64(0x0DEC_0007);
    for len in 0..=67usize {
        // Integer-valued entries make ties common.
        let mut rows = vec![
            (0..len).map(|_| rng.gen_range(0usize..5) as f32 - 2.0).collect::<Vec<_>>(),
            (0..len).map(|_| rng.gen::<f32>() * 20.0 - 10.0).collect(),
            // Every entry non-finite, or every entry a signed zero.
            (0..len).map(|_| SPECIALS[rng.gen_range(0usize..3)]).collect(),
            (0..len).map(|_| SPECIALS[rng.gen_range(3usize..5)]).collect(),
            // A signed-zero maximum among negatives: the first zero's
            // sign is the maximum's.
            (0..len).map(|_| [-1.0, -0.0, 0.0, f32::NAN][rng.gen_range(0usize..4)]).collect(),
            // Ascending, so the pool floor rises on every entry.
            (0..len).map(|i| i as f32 * 0.5 - 3.0).collect(),
        ];
        let mut salted: Vec<f32> = (0..len).map(|_| rng.gen::<f32>() - 0.5).collect();
        for v in salted.iter_mut() {
            if rng.gen::<f32>() < 0.3 {
                *v = SPECIALS[rng.gen_range(0usize..SPECIALS.len())];
            }
        }
        rows.push(salted);
        for row in &rows {
            for cap in [0, 1, 3, 8, len, len + 5] {
                check(row, cap, &[]);
                check(row, cap, &[0, 1, 2]);
                let picks: Vec<usize> = (0..3).map(|_| rng.gen_range(0..len.max(1))).collect();
                check(row, cap, &picks);
            }
        }
    }
}
