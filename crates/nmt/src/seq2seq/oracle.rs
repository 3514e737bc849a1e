//! The teacher's decode as it stood before the per-thread arena — a tape
//! encoder, fresh tensors and `Vec`s at every step, `Arc`-shared cross K/V
//! per candidate cache, and a fresh sampling pool per draw — frozen as the
//! oracle the arena path is pinned against, bit for bit: encoder memory,
//! next-token log-probs, sampled tokens, hypothesis log-probs and the RNG
//! state after every decode.

use std::sync::Arc;

use qrw_tensor::rng::StdRng;
use qrw_tensor::tensor::softmax_in_place;
use qrw_tensor::Activation;
use qrw_text::NUM_SPECIALS;

use super::*;
use crate::decode::{sample_top_n, top_n_sampling, top_pool, Hypothesis, TopNSampling};
use crate::layers::{LayerNorm, MultiHeadAttention};
use crate::transformer::DecoderLayer;

fn tape_encode(model: &Seq2Seq, src: &[usize]) -> Tensor {
    let tape = Tape::new();
    model.encode_on_tape(&tape, src, &mut None).value()
}

#[derive(Clone)]
struct LayerKv {
    self_k: Tensor,
    self_v: Tensor,
    cross_k: Arc<Tensor>,
    cross_v: Arc<Tensor>,
}

#[derive(Clone)]
struct Cache {
    layers: Vec<LayerKv>,
    pos: usize,
}

#[derive(Clone)]
enum State {
    Recurrent(Tensor),
    Transformer(Cache),
    Stateless,
}

fn linear(lin: &Linear, x: &Tensor, act: Activation) -> Tensor {
    lin.w.with_value(|w| lin.b.with_value(|b| x.matmul_bias_act(w, b, act)))
}

fn layer_norm(norm: &LayerNorm, x: &Tensor) -> Tensor {
    const EPS: f32 = 1e-5;
    let (gain, bias) = (norm.gain.value(), norm.bias.value());
    let n = x.cols() as f32;
    let mut out = Tensor::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        let row = x.row_slice(r);
        let mean = row.iter().sum::<f32>() / n;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let istd = 1.0 / (var + EPS).sqrt();
        for (c, &v) in row.iter().enumerate() {
            let xh = (v - mean) * istd;
            out.set(r, c, xh * gain.get(0, c) + bias.get(0, c));
        }
    }
    out
}

fn attend_rows(a: &MultiHeadAttention, q_in: &Tensor, kvs: &[(&Tensor, &Tensor)]) -> Tensor {
    let q = linear(&a.wq, q_in, Activation::Identity);
    let scale = 1.0 / (a.d_head as f32).sqrt();
    let mut merged = Tensor::zeros(q.rows(), a.heads * a.d_head);
    let mut scores: Vec<f32> = Vec::new();
    for (r, &(keys, values)) in kvs.iter().enumerate() {
        let q_row = q.row_slice(r);
        let out_row = merged.row_slice_mut(r);
        for h in 0..a.heads {
            let off = h * a.d_head;
            let qh = &q_row[off..off + a.d_head];
            scores.clear();
            for j in 0..keys.rows() {
                let kh = &keys.row_slice(j)[off..off + a.d_head];
                let mut s = 0.0f32;
                for (x, y) in qh.iter().zip(kh) {
                    s += x * y;
                }
                scores.push(s * scale);
            }
            softmax_in_place(&mut scores);
            let ctx = &mut out_row[off..off + a.d_head];
            for (j, &w) in scores.iter().enumerate() {
                let vh = &values.row_slice(j)[off..off + a.d_head];
                for (o, &v) in ctx.iter_mut().zip(vh) {
                    *o += w * v;
                }
            }
        }
    }
    linear(&a.wo, &merged, Activation::Identity)
}

fn start_state(model: &Seq2Seq, memory: &Tensor) -> State {
    match (&model.dec, model.decode_mode) {
        (Decoder::Transformer(d), TransformerDecodeMode::KvCache) => {
            let (max_len, d_model) = d.pe.shape();
            let layers = d
                .layers
                .iter()
                .map(|layer| LayerKv {
                    self_k: Tensor::with_row_capacity(max_len, d_model),
                    self_v: Tensor::with_row_capacity(max_len, d_model),
                    cross_k: Arc::new(linear(&layer.cross_attn.wk, memory, Activation::Identity)),
                    cross_v: Arc::new(linear(&layer.cross_attn.wv, memory, Activation::Identity)),
                })
                .collect();
            State::Transformer(Cache { layers, pos: 0 })
        }
        (Decoder::Transformer(_), TransformerDecodeMode::PrefixRecompute) => State::Stateless,
        (Decoder::Recurrent(d), _) => State::Recurrent(d.initial_state_inference(memory)),
    }
}

fn layer_step(layer: &DecoderLayer, caches: &mut [&mut Cache], li: usize, x: &Tensor) -> Tensor {
    let k_new = linear(&layer.self_attn.wk, x, Activation::Identity);
    let v_new = linear(&layer.self_attn.wv, x, Activation::Identity);
    for (r, cache) in caches.iter_mut().enumerate() {
        cache.layers[li].self_k.push_row(k_new.row_slice(r));
        cache.layers[li].self_v.push_row(v_new.row_slice(r));
    }
    let self_kvs: Vec<(&Tensor, &Tensor)> =
        caches.iter().map(|c| (&c.layers[li].self_k, &c.layers[li].self_v)).collect();
    let sa = attend_rows(&layer.self_attn, x, &self_kvs);
    let x = layer_norm(&layer.norm1, &x.add(&sa));
    let cross_kvs: Vec<(&Tensor, &Tensor)> =
        caches.iter().map(|c| (&*c.layers[li].cross_k, &*c.layers[li].cross_v)).collect();
    let ca = attend_rows(&layer.cross_attn, &x, &cross_kvs);
    let x = layer_norm(&layer.norm2, &x.add(&ca));
    let h = linear(&layer.ffn.lin1, &x, Activation::Relu);
    let ff = linear(&layer.ffn.lin2, &h, Activation::Identity);
    layer_norm(&layer.norm3, &x.add(&ff))
}

fn step_cached(d: &TransformerDecoder, caches: &mut [&mut Cache], tokens: &[usize]) -> Tensor {
    let scale = d.embed.scale();
    let table = d.embed.table.value();
    let mut x = Tensor::zeros(tokens.len(), d.pe.cols());
    for (r, &tok) in tokens.iter().enumerate() {
        for (o, &v) in x.row_slice_mut(r).iter_mut().zip(table.row_slice(tok)) {
            *o = v * scale;
        }
    }
    for (r, cache) in caches.iter().enumerate() {
        for (o, &p) in x.row_slice_mut(r).iter_mut().zip(d.pe.row_slice(cache.pos)) {
            *o += p;
        }
    }
    for (li, layer) in d.layers.iter().enumerate() {
        x = layer_step(layer, caches, li, &x);
    }
    for cache in caches.iter_mut() {
        cache.pos += 1;
    }
    x
}

fn advance_hidden_row(model: &Seq2Seq, memory: &Tensor, state: &mut State, prefix: &[usize]) -> Tensor {
    match (&model.dec, state) {
        (Decoder::Transformer(d), State::Transformer(cache)) => {
            let mut hidden = Tensor::zeros(0, 0);
            for &tok in &prefix[cache.pos..] {
                hidden = step_cached(d, &mut [&mut *cache], &[tok]);
            }
            hidden
        }
        (Decoder::Transformer(d), State::Stateless) => {
            let tape = Tape::new();
            let mem = tape.constant(memory.clone());
            let h = d.forward(&tape, prefix, mem, &mut None, None);
            let (rows, _) = h.shape();
            h.slice_rows(rows - 1, 1).value()
        }
        (Decoder::Recurrent(d), State::Recurrent(h)) => {
            let new_h = d.step_inference(memory, h, *prefix.last().unwrap());
            *h = new_h.clone();
            new_h
        }
        _ => unreachable!(),
    }
}

fn rows_to_log_probs(model: &Seq2Seq, hidden: &Tensor) -> Vec<Vec<f32>> {
    let logits = model.out.forward_inference(hidden).row_log_softmax();
    (0..logits.rows())
        .map(|r| {
            let mut lp = logits.row_slice(r).to_vec();
            lp[PAD] = f32::NEG_INFINITY;
            lp[BOS] = f32::NEG_INFINITY;
            lp[UNK] = f32::NEG_INFINITY;
            lp
        })
        .collect()
}

fn next_log_probs_multi(
    model: &Seq2Seq,
    memories: &[&Tensor],
    states: &mut [&mut State],
    prefixes: &[&[usize]],
) -> Vec<Vec<f32>> {
    let batchable = states.iter().zip(prefixes).all(|(s, p)| match s {
        State::Transformer(cache) => cache.pos + 1 == p.len(),
        _ => false,
    });
    let hidden = if batchable {
        let Decoder::Transformer(d) = &model.dec else { unreachable!() };
        let mut caches: Vec<&mut Cache> = states
            .iter_mut()
            .map(|s| match s {
                State::Transformer(cache) => cache,
                _ => unreachable!(),
            })
            .collect();
        let tokens: Vec<usize> = prefixes.iter().map(|p| *p.last().unwrap()).collect();
        step_cached(d, &mut caches, &tokens)
    } else {
        let rows: Vec<Tensor> = states
            .iter_mut()
            .zip(prefixes)
            .zip(memories)
            .map(|((s, p), m)| advance_hidden_row(model, m, s, p))
            .collect();
        let refs: Vec<&Tensor> = rows.iter().collect();
        Tensor::stack_rows(&refs)
    };
    rows_to_log_probs(model, &hidden)
}

struct Cand {
    prefix: Vec<usize>,
    state: State,
    log_prob: f32,
    finished: bool,
}

fn oracle_top_n_sampling_batch(
    model: &Seq2Seq,
    srcs: &[&[usize]],
    cfg: TopNSampling,
    rngs: &mut [StdRng],
) -> Vec<Vec<Hypothesis>> {
    if srcs.is_empty() {
        return Vec::new();
    }
    let memories: Vec<Tensor> = srcs.iter().map(|s| tape_encode(model, s)).collect();
    let mut start_states: Vec<State> = memories.iter().map(|m| start_state(model, m)).collect();
    let bos = [BOS];
    let first_lps = {
        let mut states: Vec<&mut State> = start_states.iter_mut().collect();
        let mems: Vec<&Tensor> = memories.iter().collect();
        let prefixes: Vec<&[usize]> = vec![&bos; srcs.len()];
        next_log_probs_multi(model, &mems, &mut states, &prefixes)
    };
    let mut requests: Vec<Vec<Cand>> = first_lps
        .iter()
        .zip(&start_states)
        .map(|(first_lp, start_state)| {
            let mut pool = Vec::new();
            top_pool(first_lp, cfg.k, &[EOS], &mut pool);
            pool.into_iter()
                .map(|(log_prob, tok)| Cand {
                    prefix: vec![BOS, tok],
                    state: start_state.clone(),
                    log_prob,
                    finished: false,
                })
                .collect()
        })
        .collect();
    for _ in 0..model.max_tgt_len() {
        let mut idxs: Vec<(usize, usize)> = Vec::new();
        let mut states: Vec<&mut State> = Vec::new();
        let mut prefixes: Vec<&[usize]> = Vec::new();
        let mut mems: Vec<&Tensor> = Vec::new();
        for (r, cands) in requests.iter_mut().enumerate() {
            for (i, cand) in cands.iter_mut().enumerate() {
                if cand.finished {
                    continue;
                }
                let Cand { prefix, state, .. } = cand;
                idxs.push((r, i));
                states.push(state);
                prefixes.push(prefix);
                mems.push(&memories[r]);
            }
        }
        if states.is_empty() {
            break;
        }
        let lps = next_log_probs_multi(model, &mems, &mut states, &prefixes);
        for (&(r, i), lp) in idxs.iter().zip(&lps) {
            let cand = &mut requests[r][i];
            let tok = sample_top_n(lp, cfg.n, &mut rngs[r], &mut Vec::new());
            cand.log_prob += lp[tok];
            if tok == EOS || cand.prefix.len() > model.max_tgt_len() {
                cand.finished = true;
            } else {
                cand.prefix.push(tok);
            }
        }
    }
    requests
        .iter()
        .map(|cands| {
            let mut hyps: Vec<Hypothesis> = cands
                .iter()
                .map(|c| Hypothesis { tokens: c.prefix[1..].to_vec(), log_prob: c.log_prob })
                .collect();
            hyps.sort_by(|a, b| b.log_prob.total_cmp(&a.log_prob));
            hyps
        })
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn model(enc: ComponentKind, dec: ComponentKind, mode: TransformerDecodeMode, seed: u64) -> Seq2Seq {
    let mut cfg = ModelConfig::tiny_transformer(40);
    cfg.enc_kind = enc;
    cfg.dec_kind = dec;
    let mut m = Seq2Seq::new(cfg, seed);
    m.set_decode_mode(mode);
    m
}

/// A source as the serving paths build them: single tokens, session
/// prefixes (queries joined by EOS separators) up to and past
/// `max_src_len`, and everything between.
fn source(gen: &mut StdRng, max_src_len: usize, vocab: usize) -> Vec<usize> {
    let len = match gen.gen_range(0usize..5) {
        0 => 1,
        1 => max_src_len,
        2 => max_src_len + gen.gen_range(1usize..6),
        _ => gen.gen_range(1..=max_src_len),
    };
    (0..len)
        .map(|_| if gen.gen_range(0usize..6) == 0 { EOS } else { gen.gen_range(NUM_SPECIALS..vocab) })
        .collect()
}

/// Decodes `sources` sources in mixed-length batches of 1, 3 and 8,
/// crossed with k ∈ {1, 3, 5} and n ∈ {1, 8, 40}, through the oracle's
/// batch and the arena one source at a time, and requires bitwise-equal
/// encoder memories, tokens, log-probs and RNG states. Returns the
/// longest decoded hypothesis.
fn check_top_n(m: &Seq2Seq, sources: usize, seed: u64) -> usize {
    let (max_src, vocab) = (m.config().max_src_len, m.config().vocab);
    let mut gen = StdRng::seed_from_u64(seed);
    let (mut done, mut batch, mut longest) = (0, 0, 0);
    while done < sources {
        let size = [1, 3, 8][batch % 3];
        let cfg = TopNSampling { k: [1, 3, 5][batch / 3 % 3], n: [1, 8, 40][batch / 9 % 3] };
        batch += 1;
        let srcs: Vec<Vec<usize>> = (0..size).map(|_| source(&mut gen, max_src, vocab)).collect();
        let refs: Vec<&[usize]> = srcs.iter().map(Vec::as_slice).collect();
        let mut want_rngs: Vec<StdRng> = (0..size).map(|_| StdRng::seed_from_u64(gen.next_u64())).collect();
        let mut got_rngs = want_rngs.clone();
        let want = oracle_top_n_sampling_batch(m, &refs, cfg, &mut want_rngs);
        let got: Vec<Vec<Hypothesis>> = (refs.iter().zip(&mut got_rngs))
            .map(|(src, rng)| top_n_sampling(m, src, cfg, rng))
            .collect();
        assert_eq!(got.len(), want.len());
        for (q, (g, w)) in got.iter().zip(&want).enumerate() {
            let ctx = format!("batch {batch} request {q} ({cfg:?}, source {:?})", srcs[q]);
            assert_eq!(g.len(), w.len(), "{ctx}: hypothesis count");
            for (gh, wh) in g.iter().zip(w) {
                assert_eq!(gh.tokens, wh.tokens, "{ctx}: tokens");
                assert_eq!(gh.log_prob.to_bits(), wh.log_prob.to_bits(), "{ctx}: log-prob");
                longest = longest.max(gh.tokens.len());
            }
            assert_eq!(got_rngs[q].state(), want_rngs[q].state(), "{ctx}: rng state");
            let memory = m.encode(&srcs[q]);
            let tape_memory = tape_encode(m, &srcs[q]);
            assert_eq!(memory.shape(), tape_memory.shape(), "{ctx}: memory shape");
            assert_eq!(bits(memory.data()), bits(tape_memory.data()), "{ctx}: encoder memory");
        }
        done += size;
    }
    longest
}

#[test]
fn arena_top_n_is_bitwise_the_frozen_teacher_path() {
    use ComponentKind::{Rnn, Transformer as T};
    let m = model(T, T, TransformerDecodeMode::KvCache, 11);
    let longest = check_top_n(&m, 2000, 0x7ea_c4e5);
    assert_eq!(longest, m.max_tgt_len(), "no decode reached the length cap");
    // Every other decoder kind and mode the equivalence suite covers.
    let others = [
        model(T, T, TransformerDecodeMode::PrefixRecompute, 12),
        model(T, Rnn, TransformerDecodeMode::KvCache, 13),
        model(Rnn, Rnn, TransformerDecodeMode::KvCache, 14),
        model(ComponentKind::Gru, ComponentKind::Gru, TransformerDecodeMode::KvCache, 15),
    ];
    for (i, m) in others.iter().enumerate() {
        check_top_n(m, 120, 0x0dd + i as u64);
    }
}

/// `next_log_probs_multi` rows at mixed lags (a fresh cache catching up
/// over several tokens beside caches one token behind), for every decoder
/// kind, equal the frozen path's bitwise, step after step.
#[test]
fn next_log_probs_multi_is_bitwise_the_frozen_path() {
    use ComponentKind::{Gru, Rnn, Transformer as T};
    let kinds = [
        (T, T, TransformerDecodeMode::KvCache),
        (T, T, TransformerDecodeMode::PrefixRecompute),
        (T, Rnn, TransformerDecodeMode::KvCache),
        (Rnn, Rnn, TransformerDecodeMode::KvCache),
        (Gru, Gru, TransformerDecodeMode::KvCache),
    ];
    for (e, d, mode) in kinds {
        let m = model(e, d, mode, 21);
        let srcs: [&[usize]; 3] = [&[5, 9, 14, 22], &[7], &[30, EOS, 31, 32, 33]];
        let mems: Vec<Tensor> = srcs.iter().map(|s| m.encode(s)).collect();
        let mut got: Vec<DecodeState> = mems.iter().map(|mem| m.start_state(mem)).collect();
        let mut want: Vec<State> = mems.iter().map(|mem| start_state(&m, mem)).collect();
        let mut prefixes = [vec![BOS], vec![BOS, 7, 12], vec![BOS]];
        for step in 0..5 {
            let mem_refs: Vec<&Tensor> = mems.iter().collect();
            let prefix_refs: Vec<&[usize]> = prefixes.iter().map(Vec::as_slice).collect();
            let mut got_refs: Vec<&mut DecodeState> = got.iter_mut().collect();
            let mut want_refs: Vec<&mut State> = want.iter_mut().collect();
            let g = m.next_log_probs_multi(&mem_refs, &mut got_refs, &prefix_refs);
            let w = next_log_probs_multi(&m, &mem_refs, &mut want_refs, &prefix_refs);
            for (r, (g, w)) in g.iter().zip(&w).enumerate() {
                assert_eq!(bits(g), bits(w), "{e}/{d}/{mode:?} step {step} row {r}");
            }
            for (r, prefix) in prefixes.iter_mut().enumerate() {
                prefix.push(NUM_SPECIALS + (step * 7 + r * 3) % 30);
            }
        }
    }
}
