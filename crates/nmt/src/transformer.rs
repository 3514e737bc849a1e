//! Transformer encoder and decoder stacks (post-norm, as in
//! "Attention Is All You Need", which the paper uses as its skeleton).

use std::sync::Arc;

use qrw_tensor::rng::StdRng;

use qrw_tensor::{ParamSet, Tape, Tensor, Var};

use crate::layers::{
    causal_mask, maybe_dropout, positional_encoding, Embedding, FeedForward, LayerNorm,
    MultiHeadAttention, Scratch, TrainCtx,
};

struct EncoderLayer {
    self_attn: MultiHeadAttention,
    ffn: FeedForward,
    norm1: LayerNorm,
    norm2: LayerNorm,
}

impl EncoderLayer {
    fn new(params: &mut ParamSet, rng: &mut StdRng, name: &str, d_model: usize, d_ff: usize, heads: usize) -> Self {
        EncoderLayer {
            self_attn: MultiHeadAttention::new(params, rng, &format!("{name}.self"), d_model, heads),
            ffn: FeedForward::new(params, rng, &format!("{name}.ffn"), d_model, d_ff),
            norm1: LayerNorm::new(params, &format!("{name}.norm1"), d_model),
            norm2: LayerNorm::new(params, &format!("{name}.norm2"), d_model),
        }
    }

    fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>, ctx: &mut Option<TrainCtx<'_>>) -> Var<'t> {
        let attn = self.self_attn.forward(tape, x, x, None, None);
        let attn = maybe_dropout(ctx, attn);
        let x = self.norm1.forward(tape, x.add(attn));
        let ff = maybe_dropout(ctx, self.ffn.forward(tape, x));
        self.norm2.forward(tape, x.add(ff))
    }

    /// The tape-free twin of [`Self::forward`] (no dropout), in place.
    fn forward_inference(&self, x: &mut Tensor, s: &mut Scratch) {
        self.self_attn.self_attend_into(x, s);
        x.add_assign(&s.delta);
        self.norm1.apply(x);
        self.ffn.forward_into(x, &mut s.h1, &mut s.delta);
        x.add_assign(&s.delta);
        self.norm2.apply(x);
    }
}

/// A stack of transformer encoder layers with token + positional embedding.
pub struct TransformerEncoder {
    embed: Embedding,
    layers: Vec<EncoderLayer>,
    pe: Tensor,
}

impl TransformerEncoder {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        params: &mut ParamSet,
        rng: &mut StdRng,
        name: &str,
        vocab: usize,
        d_model: usize,
        d_ff: usize,
        heads: usize,
        n_layers: usize,
        max_len: usize,
    ) -> Self {
        TransformerEncoder {
            embed: Embedding::new(params, rng, &format!("{name}.src"), vocab, d_model),
            layers: (0..n_layers)
                .map(|i| EncoderLayer::new(params, rng, &format!("{name}.enc{i}"), d_model, d_ff, heads))
                .collect(),
            pe: positional_encoding(max_len, d_model),
        }
    }

    /// Encodes `src` ids into a `len x d_model` memory.
    pub fn forward<'t>(
        &self,
        tape: &'t Tape,
        src: &[usize],
        ctx: &mut Option<TrainCtx<'_>>,
    ) -> Var<'t> {
        assert!(!src.is_empty(), "encoder input must be non-empty");
        assert!(src.len() <= self.pe.rows(), "source longer than positional table");
        let x = self
            .embed
            .forward(tape, src)
            .add_const(&self.pe.slice_rows(0, src.len()));
        self.layers_forward(tape, maybe_dropout(ctx, x), ctx)
    }

    /// [`Self::forward`] of several sources in inference mode, as one
    /// stacked pass with a segment per source: each segment's memory rows
    /// are bitwise the ones its own pass would give.
    pub fn forward_segmented<'t>(&self, tape: &'t Tape, srcs: &[&[usize]]) -> Var<'t> {
        for src in srcs {
            assert!(!src.is_empty(), "encoder input must be non-empty");
            assert!(src.len() <= self.pe.rows(), "source longer than positional table");
        }
        let x = self.embed.forward_segmented(tape, srcs, &self.pe);
        self.layers_forward(tape, x, &mut None)
    }

    fn layers_forward<'t>(
        &self,
        tape: &'t Tape,
        mut x: Var<'t>,
        ctx: &mut Option<TrainCtx<'_>>,
    ) -> Var<'t> {
        for layer in &self.layers {
            x = layer.forward(tape, x, ctx);
        }
        x
    }

    /// The tape-free twin of [`Self::forward`] in inference mode: encodes
    /// `src` into `memory` through the same kernels the tape ops run, with
    /// no tape and no parameter copies, so the memory is bitwise the
    /// tape's. Allocation-free once `memory` and `s` have held a source
    /// this long.
    pub(crate) fn forward_inference(&self, src: &[usize], memory: &mut Tensor, s: &mut Scratch) {
        assert!(!src.is_empty(), "encoder input must be non-empty");
        assert!(src.len() <= self.pe.rows(), "source longer than positional table");
        self.embed.forward_into(src, &self.pe, memory);
        for layer in &self.layers {
            layer.forward_inference(memory, s);
        }
    }
}

/// One decoder layer's cross-attention keys and values, projected from
/// the encoder memory once per source.
#[derive(Debug, Default)]
pub(crate) struct CrossKv {
    k: Tensor,
    v: Tensor,
}

/// Incremental decoding state for [`TransformerDecoder`]: per layer, the
/// self-attention keys/values (one row per consumed token) and the
/// source's cross-attention keys/values, plus the number of tokens
/// consumed so far.
///
/// With the cache, each decode step does `O(T + S)` attention work for the
/// newest token instead of re-running the whole `O(T^2 + T*S)` prefix,
/// turning a full decode from cubic-flavored to quadratic in target
/// length. The cross K/V are shared via [`Arc`], so forking a cache
/// (beam search and top-n sampling fork candidates constantly) copies only
/// the per-token rows, and `clone_from` copies them into the receiver's
/// buffers.
#[derive(Debug)]
pub struct KvCache {
    self_k: Vec<Tensor>,
    self_v: Vec<Tensor>,
    /// `None` only while a decode arena has released it (see
    /// [`KvCache::release_cross`]).
    cross: Option<Arc<Vec<CrossKv>>>,
    pos: usize,
}

impl Clone for KvCache {
    fn clone(&self) -> Self {
        KvCache {
            self_k: self.self_k.clone(),
            self_v: self.self_v.clone(),
            cross: self.cross.clone(),
            pos: self.pos,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.self_k.clone_from(&source.self_k);
        self.self_v.clone_from(&source.self_v);
        self.cross.clone_from(&source.cross);
        self.pos = source.pos;
    }
}

impl KvCache {
    /// Number of tokens this cache has consumed.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Drops this cache's share of its source's cross K/V, so the cache it
    /// was forked from can re-project a new source into the same buffers.
    /// A released cache must be re-forked before it steps again.
    pub(crate) fn release_cross(&mut self) {
        self.cross = None;
    }

    fn cross(&self) -> &[CrossKv] {
        self.cross.as_deref().expect("a released cache was stepped")
    }
}

/// The rows of one stacked decoder step: row `r` consumes a token into its
/// own cache.
pub(crate) trait CacheRows {
    fn rows(&self) -> usize;
    /// Row `r`'s cache and the token it consumes.
    fn row(&mut self, r: usize) -> (&mut KvCache, usize);
}

pub(crate) struct DecoderLayer {
    pub(crate) self_attn: MultiHeadAttention,
    pub(crate) cross_attn: MultiHeadAttention,
    pub(crate) ffn: FeedForward,
    pub(crate) norm1: LayerNorm,
    pub(crate) norm2: LayerNorm,
    pub(crate) norm3: LayerNorm,
}

impl DecoderLayer {
    fn new(params: &mut ParamSet, rng: &mut StdRng, name: &str, d_model: usize, d_ff: usize, heads: usize) -> Self {
        DecoderLayer {
            self_attn: MultiHeadAttention::new(params, rng, &format!("{name}.self"), d_model, heads),
            cross_attn: MultiHeadAttention::new(params, rng, &format!("{name}.cross"), d_model, heads),
            ffn: FeedForward::new(params, rng, &format!("{name}.ffn"), d_model, d_ff),
            norm1: LayerNorm::new(params, &format!("{name}.norm1"), d_model),
            norm2: LayerNorm::new(params, &format!("{name}.norm2"), d_model),
            norm3: LayerNorm::new(params, &format!("{name}.norm3"), d_model),
        }
    }

    fn forward<'t>(
        &self,
        tape: &'t Tape,
        x: Var<'t>,
        memory: Var<'t>,
        mask: &Tensor,
        ctx: &mut Option<TrainCtx<'_>>,
        attn_sink: Option<&mut Vec<Tensor>>,
    ) -> Var<'t> {
        let sa = self.self_attn.forward(tape, x, x, Some(mask), None);
        let sa = maybe_dropout(ctx, sa);
        let x = self.norm1.forward(tape, x.add(sa));
        let ca = self.cross_attn.forward(tape, x, memory, None, attn_sink);
        let ca = maybe_dropout(ctx, ca);
        let x = self.norm2.forward(tape, x.add(ca));
        let ff = maybe_dropout(ctx, self.ffn.forward(tape, x));
        self.norm3.forward(tape, x.add(ff))
    }

    /// Layer `li` of one stacked step, in place on `x`: row `r` is the
    /// newest position of row `r` of `rows`. Appends each row's new
    /// self-attention K/V to its own cache; all row-independent work
    /// (projections, norms, FFN) runs as one batched matmul, and only
    /// attention walks each row's own cache.
    fn step_into(&self, li: usize, rows: &mut impl CacheRows, x: &mut Tensor, s: &mut Scratch) {
        let Scratch { q, k, v, merged, delta, h1, scores } = s;
        let n = x.rows();
        self.self_attn.wk.forward_into(x, k);
        self.self_attn.wv.forward_into(x, v);
        self.self_attn.wq.forward_into(x, q);
        merged.resize_zeroed(n, x.cols());
        for r in 0..n {
            let (cache, _) = rows.row(r);
            cache.self_k[li].push_row(k.row_slice(r));
            cache.self_v[li].push_row(v.row_slice(r));
            let (keys, values) = (&cache.self_k[li], &cache.self_v[li]);
            let out = merged.row_slice_mut(r);
            self.self_attn.attend_row(q.row_slice(r), keys, values, scores, out);
        }
        self.self_attn.wo.forward_into(merged, delta);
        x.add_assign(delta);
        self.norm1.apply(x);

        self.cross_attn.wq.forward_into(x, q);
        for r in 0..n {
            let cross = &rows.row(r).0.cross()[li];
            let out = merged.row_slice_mut(r);
            self.cross_attn.attend_row(q.row_slice(r), &cross.k, &cross.v, scores, out);
        }
        self.cross_attn.wo.forward_into(merged, delta);
        x.add_assign(delta);
        self.norm2.apply(x);

        self.ffn.forward_into(x, h1, delta);
        x.add_assign(delta);
        self.norm3.apply(x);
    }
}

/// A stack of transformer decoder layers producing hidden states (the
/// output projection to vocabulary logits lives in [`crate::seq2seq`]).
pub struct TransformerDecoder {
    pub(crate) embed: Embedding,
    pub(crate) layers: Vec<DecoderLayer>,
    pub(crate) pe: Tensor,
}

impl TransformerDecoder {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        params: &mut ParamSet,
        rng: &mut StdRng,
        name: &str,
        vocab: usize,
        d_model: usize,
        d_ff: usize,
        heads: usize,
        n_layers: usize,
        max_len: usize,
    ) -> Self {
        TransformerDecoder {
            embed: Embedding::new(params, rng, &format!("{name}.tgt"), vocab, d_model),
            layers: (0..n_layers)
                .map(|i| DecoderLayer::new(params, rng, &format!("{name}.dec{i}"), d_model, d_ff, heads))
                .collect(),
            pe: positional_encoding(max_len, d_model),
        }
    }

    /// Teacher-forced decode of `tgt_in` (BOS-prefixed) against `memory`.
    /// Returns hidden states, one row per target position.
    ///
    /// When `attn_sink` is provided, each layer pushes its head-averaged
    /// cross-attention matrix (`tgt_len x src_len`).
    pub fn forward<'t>(
        &self,
        tape: &'t Tape,
        tgt_in: &[usize],
        memory: Var<'t>,
        ctx: &mut Option<TrainCtx<'_>>,
        mut attn_sink: Option<&mut Vec<Tensor>>,
    ) -> Var<'t> {
        assert!(!tgt_in.is_empty(), "decoder input must be non-empty");
        assert!(tgt_in.len() <= self.pe.rows(), "target longer than positional table");
        let mask = causal_mask(tgt_in.len());
        let mut x = self
            .embed
            .forward(tape, tgt_in)
            .add_const(&self.pe.slice_rows(0, tgt_in.len()));
        x = maybe_dropout(ctx, x);
        for layer in &self.layers {
            x = layer.forward(tape, x, memory, &mask, ctx, attn_sink.as_deref_mut());
        }
        x
    }

    /// [`Self::forward`] of several target inputs in inference mode, as
    /// one stacked pass against a stacked `memory` with a segment per
    /// input: segment `s` attends causally within itself and across to
    /// segment `s` of `memory`, so its rows are bitwise the ones its own
    /// pass would give.
    pub fn forward_segmented<'t>(&self, tape: &'t Tape, tgt_ins: &[&[usize]], memory: Var<'t>) -> Var<'t> {
        for tgt_in in tgt_ins {
            assert!(!tgt_in.is_empty(), "decoder input must be non-empty");
            assert!(tgt_in.len() <= self.pe.rows(), "target longer than positional table");
        }
        // Each segment's causal mask is the leading block of the longest.
        let mask = causal_mask(tgt_ins.iter().map(|t| t.len()).max().unwrap_or(0));
        let mut x = self.embed.forward_segmented(tape, tgt_ins, &self.pe);
        for layer in &self.layers {
            x = layer.forward(tape, x, memory, &mask, &mut None, None);
        }
        x
    }

    /// Fresh incremental decoding cache against `memory`: cross-attention
    /// K/V are projected here, once; self-attention K/V start empty with
    /// capacity for a full-length decode.
    pub fn start_cache(&self, memory: &Tensor) -> KvCache {
        let mut cache = KvCache { self_k: Vec::new(), self_v: Vec::new(), cross: None, pos: 0 };
        self.reset_cache(memory, &mut cache);
        cache
    }

    /// [`Self::start_cache`] into an existing cache, reusing its buffers:
    /// allocation-free once it has held a cache of this shape, unless a
    /// fork still shares its cross K/V (then they move to a fresh buffer).
    pub(crate) fn reset_cache(&self, memory: &Tensor, cache: &mut KvCache) {
        let (max_len, d_model, n) = (self.pe.rows(), self.pe.cols(), self.layers.len());
        for kv in [&mut cache.self_k, &mut cache.self_v] {
            kv.resize_with(n, Tensor::default);
            for t in kv.iter_mut() {
                t.clear_rows(max_len, d_model);
            }
        }
        let shared = cache.cross.get_or_insert_with(Arc::default);
        if Arc::get_mut(shared).is_none() {
            *shared = Arc::default();
        }
        let cross = Arc::get_mut(shared).expect("unshared cross K/V");
        cross.resize_with(n, CrossKv::default);
        for (layer, c) in self.layers.iter().zip(cross.iter_mut()) {
            layer.cross_attn.wk.forward_into(memory, &mut c.k);
            layer.cross_attn.wv.forward_into(memory, &mut c.v);
        }
        cache.pos = 0;
    }

    /// Consumes one token per row into its cache and leaves the rows'
    /// final hidden states in `x` (`rows x d_model`), exactly the last rows
    /// a full [`Self::forward`] over each grown prefix would produce. Rows
    /// may sit at different positions, and each row's values are
    /// independent of the others. Allocation-free once `x`, `s` and the
    /// caches have held a step this size.
    pub(crate) fn step_into(&self, rows: &mut impl CacheRows, x: &mut Tensor, s: &mut Scratch) {
        let n = rows.rows();
        assert!(n > 0, "decoder step must consume tokens");
        x.resize_zeroed(n, self.pe.cols());
        let scale = self.embed.scale();
        self.embed.table.with_value(|table| {
            for r in 0..n {
                let (cache, token) = rows.row(r);
                let layers = cache.self_k.len();
                assert_eq!(layers, self.layers.len(), "cache belongs to a different decoder");
                assert!(cache.pos < self.pe.rows(), "decode past the positional table");
                let vocab = table.rows();
                assert!(token < vocab, "token id {token} out of vocabulary {vocab}");
                let emb = table.row_slice(token).iter().zip(self.pe.row_slice(cache.pos));
                for (o, (&e, &p)) in x.row_slice_mut(r).iter_mut().zip(emb) {
                    *o = e * scale;
                    *o += p;
                }
            }
        });
        for (li, layer) in self.layers.iter().enumerate() {
            layer.step_into(li, rows, x, s);
        }
        for r in 0..n {
            rows.row(r).0.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// Row `r` feeds `tokens[r]` into `caches[r]`.
    struct Caches<'a, 'b> {
        caches: &'a mut [&'b mut KvCache],
        tokens: &'a [usize],
    }

    impl CacheRows for Caches<'_, '_> {
        fn rows(&self) -> usize {
            self.tokens.len()
        }

        fn row(&mut self, r: usize) -> (&mut KvCache, usize) {
            (&mut *self.caches[r], self.tokens[r])
        }
    }

    fn step(dec: &TransformerDecoder, caches: &mut [&mut KvCache], tokens: &[usize]) -> Tensor {
        let mut x = Tensor::default();
        dec.step_into(&mut Caches { caches, tokens }, &mut x, &mut Scratch::default());
        x
    }

    fn build() -> (ParamSet, TransformerEncoder, TransformerDecoder) {
        let mut params = ParamSet::new();
        let mut r = rng();
        let enc = TransformerEncoder::new(&mut params, &mut r, "m", 20, 8, 16, 2, 2, 12);
        let dec = TransformerDecoder::new(&mut params, &mut r, "m", 20, 8, 16, 2, 2, 12);
        (params, enc, dec)
    }

    #[test]
    fn encoder_output_shape() {
        let (_p, enc, _d) = build();
        let tape = Tape::new();
        let m = enc.forward(&tape, &[5, 6, 7], &mut None);
        assert_eq!(m.shape(), (3, 8));
    }

    #[test]
    fn decoder_output_shape_and_attention_sink() {
        let (_p, enc, dec) = build();
        let tape = Tape::new();
        let m = enc.forward(&tape, &[5, 6, 7, 8], &mut None);
        let mut sink = Vec::new();
        let h = dec.forward(&tape, &[1, 5, 6], m, &mut None, Some(&mut sink));
        assert_eq!(h.shape(), (3, 8));
        assert_eq!(sink.len(), 2); // one cross-attention map per layer
        assert_eq!(sink[0].shape(), (3, 4));
    }

    /// The causal mask makes prefix hidden states independent of suffix
    /// tokens: decoding `[a, b]` then `[a, b, c]` must agree on rows 0-1.
    #[test]
    fn decoder_is_causal() {
        let (_p, enc, dec) = build();
        let tape = Tape::new();
        let m = enc.forward(&tape, &[5, 6], &mut None);
        let h2 = dec.forward(&tape, &[1, 7], m, &mut None, None).value();
        let h3 = dec.forward(&tape, &[1, 7, 9], m, &mut None, None).value();
        for r in 0..2 {
            for c in 0..8 {
                assert!(
                    (h2.get(r, c) - h3.get(r, c)).abs() < 1e-4,
                    "row {r} col {c}: {} vs {}",
                    h2.get(r, c),
                    h3.get(r, c)
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (_p1, enc1, _d1) = build();
        let (_p2, enc2, _d2) = build();
        let t1 = Tape::new();
        let t2 = Tape::new();
        let a = enc1.forward(&t1, &[4, 5], &mut None).value();
        let b = enc2.forward(&t2, &[4, 5], &mut None).value();
        assert_eq!(a, b);
    }

    /// The KV-cached incremental step must reproduce the last hidden row
    /// of a full prefix recompute exactly — the fast path may not drift.
    #[test]
    fn cached_step_matches_full_forward_exactly() {
        let (_p, enc, dec) = build();
        let tape = Tape::new();
        let mem_var = enc.forward(&tape, &[5, 6, 7, 8], &mut None);
        let mem = mem_var.value();
        let prefix = [1usize, 5, 6, 9, 4];
        let mut cache = dec.start_cache(&mem);
        for (i, &tok) in prefix.iter().enumerate() {
            let h = step(&dec, &mut [&mut cache], &[tok]);
            assert_eq!(cache.pos(), i + 1);
            let full = dec.forward(&tape, &prefix[..=i], mem_var, &mut None, None).value();
            for c in 0..8 {
                assert_eq!(
                    h.get(0, c),
                    full.get(i, c),
                    "step {i} col {c}: cached vs recompute"
                );
            }
        }
    }

    /// Batched stepping (several candidates, possibly at different
    /// positions) equals stepping each candidate alone.
    #[test]
    fn batched_step_matches_individual_steps() {
        let (_p, enc, dec) = build();
        let tape = Tape::new();
        let mem = enc.forward(&tape, &[5, 6, 7], &mut None).value();
        // Candidate A consumes [1, 5]; candidate B consumes [1] — then both
        // step together on different tokens from different positions.
        let mut a = dec.start_cache(&mem);
        let mut b = dec.start_cache(&mem);
        step(&dec, &mut [&mut a], &[1]);
        step(&dec, &mut [&mut a], &[5]);
        step(&dec, &mut [&mut b], &[1]);
        let mut a_solo = a.clone();
        let mut b_solo = b.clone();
        let batched = step(&dec, &mut [&mut a, &mut b], &[9, 6]);
        let ha = step(&dec, &mut [&mut a_solo], &[9]);
        let hb = step(&dec, &mut [&mut b_solo], &[6]);
        assert_eq!(batched.row_slice(0), ha.row_slice(0));
        assert_eq!(batched.row_slice(1), hb.row_slice(0));
    }

    /// The tape-free encoder is the tape encoder, bit for bit, and reuses
    /// its buffers across sources of different lengths.
    #[test]
    fn encoder_twin_matches_tape_bitwise() {
        let (_p, enc, _d) = build();
        let (mut memory, mut s) = (Tensor::default(), Scratch::default());
        for src in [&[5usize, 6, 7, 8][..], &[9], &[4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] {
            let tape = Tape::new();
            let want = enc.forward(&tape, src, &mut None).value();
            enc.forward_inference(src, &mut memory, &mut s);
            assert_eq!(memory.shape(), want.shape());
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&memory), bits(&want), "source {src:?}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn encoder_rejects_empty_input() {
        let (_p, enc, _d) = build();
        let tape = Tape::new();
        enc.forward(&tape, &[], &mut None);
    }
}
