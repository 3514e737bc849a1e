//! The student's decode as it stood before the per-thread arena and the
//! vectorised epilogue — allocating `step_logits`, `Arc`-shared cross K/V
//! per candidate cache, and the streaming log-sum-exp with one `expf` per
//! vocabulary entry — frozen as the oracle the arena path is pinned
//! against: logits bitwise, sampled tokens and hypothesis order exactly,
//! and each hypothesis's log-prob within the epilogue's per-step 1e-5.

use std::sync::Arc;

use qrw_tensor::quant::quantize_row;
use qrw_text::{PAD, UNK};

use super::*;

fn matvec(lin: &QuantLinear, xq: &[i8], x_scale: f32) -> Vec<f32> {
    let mut out = vec![0.0; lin.w.rows()];
    lin.matvec_into(xq, x_scale, &mut out);
    out
}

fn matmul(lin: &QuantLinear, x: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    lin.w.matmul_into(x, Some(&lin.b), &mut out, &mut Vec::new());
    out
}

fn attend_full(a: &QuantAttention, x: &Tensor) -> Tensor {
    let q = matmul(&a.wq, x);
    let k = matmul(&a.wk, x);
    let v = matmul(&a.wv, x);
    let scale = 1.0 / (a.d_head as f32).sqrt();
    let mut merged = Tensor::zeros(x.rows(), a.heads * a.d_head);
    let mut scores: Vec<f32> = Vec::new();
    for r in 0..x.rows() {
        let q_row = q.row_slice(r).to_vec();
        let out_row = merged.row_slice_mut(r);
        for h in 0..a.heads {
            let off = h * a.d_head;
            let qh = &q_row[off..off + a.d_head];
            scores.clear();
            for j in 0..k.rows() {
                let kh = &k.row_slice(j)[off..off + a.d_head];
                let mut s = 0.0f32;
                for (x, y) in qh.iter().zip(kh) {
                    s += x * y;
                }
                scores.push(s * scale);
            }
            softmax_in_place(&mut scores);
            let ctx = &mut out_row[off..off + a.d_head];
            for (j, &w) in scores.iter().enumerate() {
                let vh = &v.row_slice(j)[off..off + a.d_head];
                for (o, &vv) in ctx.iter_mut().zip(vh) {
                    *o += w * vv;
                }
            }
        }
    }
    matmul(&a.wo, &merged)
}

fn attend_cached(
    a: &QuantAttention,
    xq: &[i8],
    x_scale: f32,
    keys: &[QuantizedRows],
    values: &Tensor,
) -> Vec<f32> {
    let q = matvec(&a.wq, xq, x_scale);
    let scale = 1.0 / (a.d_head as f32).sqrt();
    let mut merged = vec![0.0f32; a.heads * a.d_head];
    let mut scores: Vec<f32> = Vec::new();
    for (h, kh) in keys.iter().enumerate() {
        let off = h * a.d_head;
        let (qh, qs) = quantize_row(&q[off..off + a.d_head]);
        kh.scores_into(&qh, qs, scale, &mut scores);
        softmax_in_place(&mut scores);
        let ctx = &mut merged[off..off + a.d_head];
        for (j, &w) in scores.iter().enumerate() {
            let vh = &values.row_slice(j)[off..off + a.d_head];
            for (o, &vv) in ctx.iter_mut().zip(vh) {
                *o += w * vv;
            }
        }
    }
    let (mq, ms) = quantize_row(&merged);
    matvec(&a.wo, &mq, ms)
}

fn encoder_forward(l: &QuantEncoderLayer, x: &Tensor) -> Tensor {
    let sa = attend_full(&l.self_attn, x);
    let mut out = Tensor::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        let row = out.row_slice_mut(r);
        for ((o, &a), &b) in row.iter_mut().zip(x.row_slice(r)).zip(sa.row_slice(r)) {
            *o = a + b;
        }
        l.norm1.apply(row);
    }
    let mut h1 = matmul(&l.ff1, &out);
    for v in h1.data_mut() {
        *v = v.max(0.0);
    }
    let ff = matmul(&l.ff2, &h1);
    for r in 0..out.rows() {
        let row = out.row_slice_mut(r);
        for (o, &f) in row.iter_mut().zip(ff.row_slice(r)) {
            *o += f;
        }
        l.norm2.apply(row);
    }
    out
}

pub(super) fn encode(s: &QuantStudent, src: &[usize]) -> Tensor {
    let cut = src.len().min(s.config.max_src_len);
    let mut src = src[..cut].to_vec();
    src.push(EOS);
    let scale = (s.config.d_model as f32).sqrt();
    let mut x = Tensor::zeros(src.len(), s.config.d_model);
    for (r, &id) in src.iter().enumerate() {
        let pe = s.enc_pe.row_slice(r);
        for ((o, &e), &p) in x
            .row_slice_mut(r)
            .iter_mut()
            .zip(s.src_emb.row_slice(id))
            .zip(pe)
        {
            *o = e * scale + p;
        }
    }
    for layer in &s.enc {
        x = encoder_forward(layer, &x);
    }
    x
}

#[derive(Clone)]
struct OracleLayerKv {
    self_k: Vec<QuantizedRows>,
    self_v: Tensor,
    cross_k: Arc<Vec<QuantizedRows>>,
    cross_v: Arc<Tensor>,
}

#[derive(Clone)]
pub(super) struct OracleCache {
    layers: Vec<OracleLayerKv>,
    pos: usize,
}

pub(super) fn start_cache(s: &QuantStudent, memory: &Tensor) -> OracleCache {
    let d_head = s.config.d_head();
    let layers = s
        .dec
        .iter()
        .map(|layer| {
            let ck = matmul(&layer.cross_attn.wk, memory);
            let cv = matmul(&layer.cross_attn.wv, memory);
            let mut per_head: Vec<QuantizedRows> = (0..s.config.heads)
                .map(|_| QuantizedRows::new(d_head))
                .collect();
            for r in 0..ck.rows() {
                let row = ck.row_slice(r);
                for (h, rows) in per_head.iter_mut().enumerate() {
                    rows.push_row(&row[h * d_head..(h + 1) * d_head]);
                }
            }
            OracleLayerKv {
                self_k: (0..s.config.heads)
                    .map(|_| QuantizedRows::new(d_head))
                    .collect(),
                self_v: Tensor::with_row_capacity(s.config.max_tgt_len + 2, s.config.d_model),
                cross_k: Arc::new(per_head),
                cross_v: Arc::new(cv),
            }
        })
        .collect();
    OracleCache { layers, pos: 0 }
}

pub(super) fn step_logits(s: &QuantStudent, cache: &mut OracleCache, token: usize) -> Vec<f32> {
    let d_head = s.config.d_head();
    let scale = (s.config.d_model as f32).sqrt();
    let mut x: Vec<f32> = s
        .tgt_emb
        .row_slice(token)
        .iter()
        .zip(s.dec_pe.row_slice(cache.pos))
        .map(|(&e, &p)| e * scale + p)
        .collect();
    for (layer, kv) in s.dec.iter().zip(cache.layers.iter_mut()) {
        let (xq, xs) = quantize_row(&x);
        let k_new = matvec(&layer.self_attn.wk, &xq, xs);
        let v_new = matvec(&layer.self_attn.wv, &xq, xs);
        for (h, rows) in kv.self_k.iter_mut().enumerate() {
            rows.push_row(&k_new[h * d_head..(h + 1) * d_head]);
        }
        kv.self_v.push_row(&v_new);
        let sa = attend_cached(&layer.self_attn, &xq, xs, &kv.self_k, &kv.self_v);
        for (o, &s) in x.iter_mut().zip(&sa) {
            *o += s;
        }
        layer.norm1.apply(&mut x);

        let (xq, xs) = quantize_row(&x);
        let ca = attend_cached(&layer.cross_attn, &xq, xs, &kv.cross_k, &kv.cross_v);
        for (o, &c) in x.iter_mut().zip(&ca) {
            *o += c;
        }
        layer.norm2.apply(&mut x);

        let (xq, xs) = quantize_row(&x);
        let mut h1 = matvec(&layer.ff1, &xq, xs);
        for v in &mut h1 {
            *v = v.max(0.0);
        }
        let (hq, hs) = quantize_row(&h1);
        let ff = matvec(&layer.ff2, &hq, hs);
        for (o, &f) in x.iter_mut().zip(&ff) {
            *o += f;
        }
        layer.norm3.apply(&mut x);
    }
    cache.pos += 1;
    let (xq, xs) = quantize_row(&x);
    matvec(&s.out, &xq, xs)
}

/// The pool by full stable sort (the selection `top_pool` is pinned to)
/// and the streaming log-sum-exp: one rescaling `expf` per finite logit.
fn pool_with_streaming_lse(logits: &[f32], cap: usize, skip: &[usize]) -> (Vec<(f32, usize)>, f32) {
    let mut order: Vec<usize> = (0..logits.len())
        .filter(|&t| !skip.contains(&t) && logits[t].is_finite())
        .collect();
    order.sort_by(|&a, &b| logits[b].total_cmp(&logits[a]));
    order.truncate(cap);
    let mut max = f32::NEG_INFINITY;
    let mut sum = 0.0f32;
    for &l in logits.iter().filter(|l| l.is_finite()) {
        if l > max {
            sum = sum * (max - l).exp() + 1.0;
            max = l;
        } else {
            sum += (l - max).exp();
        }
    }
    (
        order.into_iter().map(|t| (logits[t], t)).collect(),
        max + sum.ln(),
    )
}

fn sample_pool(pool: &[(f32, usize)], rng: &mut StdRng) -> Option<(f32, usize)> {
    let &(max, _) = pool.first()?;
    let total: f32 = pool.iter().map(|&(v, _)| (v - max).exp()).sum();
    let mut draw = rng.gen::<f32>() * total;
    for &(v, t) in pool {
        draw -= (v - max).exp();
        if draw <= 0.0 {
            return Some((v, t));
        }
    }
    pool.last().copied()
}

pub(super) fn top_n_sampling(
    s: &QuantStudent,
    src: &[usize],
    cfg: TopNSampling,
    rng: &mut StdRng,
) -> Vec<Hypothesis> {
    struct Cand {
        prefix: Vec<usize>,
        cache: OracleCache,
        log_prob: f32,
        finished: bool,
    }
    let memory = encode(s, src);
    let mut first_cache = start_cache(s, &memory);
    let logits = step_logits(s, &mut first_cache, BOS);
    let (pool, lse) = pool_with_streaming_lse(&logits, cfg.k, &[PAD, BOS, UNK, EOS]);
    let mut cands: Vec<Cand> = pool
        .into_iter()
        .map(|(l, tok)| Cand {
            prefix: vec![BOS, tok],
            cache: first_cache.clone(),
            log_prob: l - lse,
            finished: false,
        })
        .collect();
    while cands.iter().any(|c| !c.finished) {
        for cand in cands.iter_mut().filter(|c| !c.finished) {
            let last = *cand.prefix.last().expect("non-empty prefix");
            let logits = step_logits(s, &mut cand.cache, last);
            let (pool, lse) = pool_with_streaming_lse(&logits, cfg.n.max(1), &[PAD, BOS, UNK]);
            let (token, log_prob) = match sample_pool(&pool, rng) {
                Some((l, token)) => (token, l - lse),
                None => (PAD, f32::NEG_INFINITY),
            };
            cand.log_prob += log_prob;
            if token == EOS || cand.prefix.len() > s.config.max_tgt_len {
                cand.finished = true;
            } else {
                cand.prefix.push(token);
            }
        }
    }
    let mut hyps: Vec<Hypothesis> = cands
        .into_iter()
        .map(|c| Hypothesis {
            tokens: c.prefix[1..].to_vec(),
            log_prob: c.log_prob,
        })
        .collect();
    hyps.sort_by(|a, b| b.log_prob.total_cmp(&a.log_prob));
    hyps
}

fn student(vocab: usize, seed: u64) -> QuantStudent {
    QuantStudent::from_seq2seq(&Seq2Seq::new(ModelConfig::student(vocab), seed)).unwrap()
}

/// The arena decode against the frozen one over 2000+ seeded sources and
/// every (k, n) in {1, 3, 5} x {1, 8, 40}: identical tokens in identical
/// order, each hypothesis's log-prob within 1e-5 per step it summed
/// (its tokens plus the EOS step).
#[test]
fn arena_decode_matches_frozen_oracle() {
    let students = [student(97, 1), student(211, 2)];
    let mut gen = StdRng::seed_from_u64(0xdec0de);
    let mut worst = 0.0f32;
    for case in 0..2016u64 {
        let s = &students[case as usize % students.len()];
        let len = gen.gen_range(1..30usize);
        let src: Vec<usize> = (0..len)
            .map(|_| gen.gen_range(qrw_text::NUM_SPECIALS..s.config.vocab))
            .collect();
        let combo = case as usize / students.len() % 9;
        let cfg = TopNSampling {
            k: [1, 3, 5][combo / 3],
            n: [1, 8, 40][combo % 3],
        };
        let want = top_n_sampling(s, &src, cfg, &mut StdRng::seed_from_u64(case));
        let got = s.top_n_sampling(&src, cfg, &mut StdRng::seed_from_u64(case));
        assert_eq!(got.len(), want.len(), "case {case}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.tokens, w.tokens, "case {case} {cfg:?}");
            let bound = 1e-5 * (w.tokens.len() + 1) as f32;
            let delta = (g.log_prob - w.log_prob).abs();
            assert!(
                delta <= bound,
                "case {case}: log_prob {} vs {}",
                g.log_prob,
                w.log_prob
            );
            worst = worst.max(delta / (w.tokens.len() + 1) as f32);
        }
    }
    assert!(worst <= 1e-5, "worst per-step log-prob drift {worst:e}");
}

/// `step_into` reproduces the frozen `step_logits` bit for bit, step
/// after step, encoder memory included.
#[test]
fn step_into_logits_are_bitwise_the_frozen_step_logits() {
    let mut arena = DecodeArena::default();
    for (vocab, seed) in [(97, 3), (211, 4), (40, 5)] {
        let s = student(vocab, seed);
        for src in [vec![5usize], vec![7, 9, 11, 13], (4..40).collect()] {
            let src: Vec<usize> = src.into_iter().map(|t| t % vocab).collect();
            let memory = encode(&s, &src);
            assert_eq!(s.encode(&src, &mut arena), &memory);
            let mut want_cache = start_cache(&s, &memory);
            let mut got_cache = s.start_cache(&mut arena);
            let mut token = BOS;
            for step in 0..=s.config.max_tgt_len {
                let want = step_logits(&s, &mut want_cache, token);
                let got = s.step_into(&mut got_cache, token, &mut arena);
                let bits = |v: &[f32]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(got),
                    bits(&want),
                    "vocab {vocab} src {src:?} step {step}"
                );
                token =
                    qrw_text::NUM_SPECIALS + (step * 7 + token) % (vocab - qrw_text::NUM_SPECIALS);
            }
        }
    }
}
