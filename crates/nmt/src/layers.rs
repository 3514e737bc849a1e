//! Reusable neural layers built on the `qrw-tensor` tape.

use qrw_tensor::rng::StdRng;

use qrw_tensor::tensor::softmax_in_place;
use qrw_tensor::{init, Activation, Param, ParamSet, Tape, Tensor, Var};

/// Training-time context: the dropout RNG and rate. `None` means inference.
pub struct TrainCtx<'r> {
    pub rng: &'r mut StdRng,
    pub dropout: f32,
}

impl TrainCtx<'_> {
    /// Applies inverted dropout to `x` if the rate is positive.
    pub fn dropout<'t>(&mut self, x: Var<'t>) -> Var<'t> {
        if self.dropout <= 0.0 {
            return x;
        }
        let (rows, cols) = x.shape();
        let keep = 1.0 - self.dropout;
        let scale = 1.0 / keep;
        let data = (0..rows * cols)
            .map(|_| if self.rng.gen::<f32>() < keep { scale } else { 0.0 })
            .collect();
        x.dropout_mask(Tensor::from_vec(rows, cols, data))
    }
}

/// Applies dropout through an optional context, passing through on `None`.
pub fn maybe_dropout<'t>(ctx: &mut Option<TrainCtx<'_>>, x: Var<'t>) -> Var<'t> {
    match ctx {
        Some(c) => c.dropout(x),
        None => x,
    }
}

/// A dense layer `y = x W + b`.
pub struct Linear {
    pub w: Param,
    pub b: Param,
}

impl Linear {
    pub fn new(params: &mut ParamSet, rng: &mut StdRng, name: &str, d_in: usize, d_out: usize) -> Self {
        Linear {
            w: params.add(format!("{name}.w"), init::xavier(rng, d_in, d_out)),
            b: params.add(format!("{name}.b"), init::zeros(1, d_out)),
        }
    }

    pub fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        x.matmul(tape.param(&self.w)).add_broadcast_row(tape.param(&self.b))
    }

    /// Inference-only forward on plain tensors: reads the weights in place
    /// instead of copying them onto a tape. Decoding projects hidden
    /// states to vocabulary logits every step, so this path keeps online
    /// serving free of per-step weight copies.
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.forward_into(x, &mut out);
        out
    }

    /// [`Self::forward_inference`] into `out` (reshaped, allocation reused).
    pub fn forward_into(&self, x: &Tensor, out: &mut Tensor) {
        self.forward_into_act(x, Activation::Identity, out);
    }

    /// Inference forward with a fused bias + activation epilogue, into
    /// `out`. The fused kernel adds the bias after the full matmul
    /// accumulation, exactly as the tape path does, so results stay
    /// bitwise equal to `forward`.
    pub fn forward_into_act(&self, x: &Tensor, act: Activation, out: &mut Tensor) {
        self.w.with_value(|w| self.b.with_value(|b| x.matmul_bias_act_into(w, b, act, out)));
    }
}

/// Learned layer normalization.
pub struct LayerNorm {
    pub gain: Param,
    pub bias: Param,
}

impl LayerNorm {
    pub fn new(params: &mut ParamSet, name: &str, dim: usize) -> Self {
        LayerNorm {
            gain: params.add(format!("{name}.gain"), init::ones(1, dim)),
            bias: params.add(format!("{name}.bias"), init::zeros(1, dim)),
        }
    }

    pub fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        x.layer_norm(tape.param(&self.gain), tape.param(&self.bias))
    }

    /// Inference-only forward in place, through the tape op's own kernel
    /// ([`Tensor::layer_norm_in_place`]), so the tape-free paths agree
    /// bitwise with the tape reference.
    pub fn apply(&self, x: &mut Tensor) {
        self.gain.with_value(|gain| {
            self.bias.with_value(|bias| x.layer_norm_in_place(gain, bias, None));
        });
    }
}

/// Token embedding table, with the transformer's `sqrt(d)` scaling.
pub struct Embedding {
    pub table: Param,
    d_model: usize,
}

impl Embedding {
    pub fn new(params: &mut ParamSet, rng: &mut StdRng, name: &str, vocab: usize, d_model: usize) -> Self {
        Embedding {
            table: params.add(format!("{name}.emb"), init::embedding(rng, vocab, d_model)),
            d_model,
        }
    }

    pub fn forward<'t>(&self, tape: &'t Tape, ids: &[usize]) -> Var<'t> {
        tape.gather_rows(&self.table, ids).scale(self.scale())
    }

    /// [`Self::forward`] of several sequences followed by each one's
    /// positional rows `pe[0..len]`, as one stacked node with a segment
    /// per sequence: row for row what `forward(seq).add_const(..)` gives.
    pub fn forward_segmented<'t>(&self, tape: &'t Tape, seqs: &[&[usize]], pe: &Tensor) -> Var<'t> {
        let pes: Vec<Tensor> = seqs.iter().map(|s| pe.slice_rows(0, s.len())).collect();
        let pe_rows = Tensor::stack_rows(&pes.iter().collect::<Vec<_>>());
        tape.gather_rows_segmented(&self.table, seqs).scale(self.scale()).add_const(&pe_rows)
    }

    /// `sqrt(d_model)`, the scale every lookup applies.
    pub fn scale(&self) -> f32 {
        (self.d_model as f32).sqrt()
    }

    /// The tape-free twin of [`Self::forward`] followed by the positional
    /// add: row `r` of `out` is `table[ids[r]] * sqrt(d) + 0.0 + pe[r]`,
    /// the tape's gather, its `scale` (an affine with `beta = 0`) and its
    /// `add_const`, one rounding each, in that order.
    pub fn forward_into(&self, ids: &[usize], pe: &Tensor, out: &mut Tensor) {
        out.resize_zeroed(ids.len(), self.d_model);
        self.table.with_value(|table| {
            let vocab = table.rows();
            for (r, &id) in ids.iter().enumerate() {
                assert!(id < vocab, "token id {id} out of vocabulary {vocab}");
                out.row_slice_mut(r).copy_from_slice(table.row_slice(id));
            }
        });
        out.affine_in_place(self.scale(), 0.0);
        for r in 0..ids.len() {
            for (o, &p) in out.row_slice_mut(r).iter_mut().zip(pe.row_slice(r)) {
                *o += p;
            }
        }
    }
}

/// The temporaries of one tape-free transformer layer pass (encoder layer
/// or stacked decoder step), reused call after call: projections, the
/// merged attention context, a residual block's output, the FFN hidden
/// rows and one attention row's scores.
#[derive(Default)]
pub(crate) struct Scratch {
    pub(crate) q: Tensor,
    pub(crate) k: Tensor,
    pub(crate) v: Tensor,
    pub(crate) merged: Tensor,
    /// A residual block's output, added back into the layer input.
    pub(crate) delta: Tensor,
    pub(crate) h1: Tensor,
    pub(crate) scores: Vec<f32>,
}

/// Multi-head scaled dot-product attention.
///
/// `forward` optionally records the head-averaged attention matrix into
/// `attn_sink`, which the Figure 6 heat-map harness reads.
pub struct MultiHeadAttention {
    pub(crate) wq: Linear,
    pub(crate) wk: Linear,
    pub(crate) wv: Linear,
    pub(crate) wo: Linear,
    pub(crate) heads: usize,
    pub(crate) d_head: usize,
}

impl MultiHeadAttention {
    pub fn new(
        params: &mut ParamSet,
        rng: &mut StdRng,
        name: &str,
        d_model: usize,
        heads: usize,
    ) -> Self {
        assert_eq!(d_model % heads, 0, "d_model must divide by heads");
        MultiHeadAttention {
            wq: Linear::new(params, rng, &format!("{name}.wq"), d_model, d_model),
            wk: Linear::new(params, rng, &format!("{name}.wk"), d_model, d_model),
            wv: Linear::new(params, rng, &format!("{name}.wv"), d_model, d_model),
            wo: Linear::new(params, rng, &format!("{name}.wo"), d_model, d_model),
            heads,
            d_head: d_model / heads,
        }
    }

    /// Attention of `q_in` over `kv_in`. `mask` (if given) is added to the
    /// raw scores (`0` = visible, `-1e9` = hidden).
    ///
    /// Stacked inputs (see [`qrw_tensor::Tape`]) attend segment by
    /// segment: segment `s` of `q_in` over segment `s` of `kv_in`, masked by
    /// the leading `q_len x kv_len` block of `mask`. The projections run
    /// once over all segments.
    pub fn forward<'t>(
        &self,
        tape: &'t Tape,
        q_in: Var<'t>,
        kv_in: Var<'t>,
        mask: Option<&Tensor>,
        attn_sink: Option<&mut Vec<Tensor>>,
    ) -> Var<'t> {
        let q = self.wq.forward(tape, q_in);
        let k = self.wk.forward(tape, kv_in);
        let v = self.wv.forward(tape, kv_in);
        let merged = match (q.segment_count(), k.segment_count()) {
            (None, None) => self.attend(q, k, v, mask, attn_sink),
            (Some(n), Some(kv_n)) => {
                assert_eq!(n, kv_n, "attention across stacks of different sizes");
                assert!(attn_sink.is_none(), "attention sinks record unstacked passes only");
                let parts: Vec<Var<'t>> = (0..n)
                    .map(|s| {
                        let (qs, ks) = (q.segment(s), k.segment(s));
                        let block = mask.map(|m| leading_block(m, qs.shape().0, ks.shape().0));
                        self.attend(qs, ks, v.segment(s), block.as_ref(), None)
                    })
                    .collect();
                Var::stack_segments(&parts)
            }
            _ => panic!("attention between a stacked and an unstacked input"),
        };
        self.wo.forward(tape, merged)
    }

    /// The heads of one attention over projected `q`, `k`, `v`, merged.
    fn attend<'t>(
        &self,
        q: Var<'t>,
        k: Var<'t>,
        v: Var<'t>,
        mask: Option<&Tensor>,
        attn_sink: Option<&mut Vec<Tensor>>,
    ) -> Var<'t> {
        let merged = q.attention(k, v, self.heads, mask);
        if let Some(sink) = attn_sink {
            let mut heads = merged.attention_weights().into_iter();
            let mut avg = heads.next().expect("at least one head");
            heads.for_each(|a| avg.add_assign(&a));
            sink.push(avg.scale(1.0 / self.heads as f32));
        }
        merged
    }

    /// One query row's attention over `keys` / `values` (each
    /// `len x d_model`, already projected) into `out` (`d_model` wide):
    /// per head, scaled dot products, softmax, then the value rows
    /// weighted in ascending key order.
    ///
    /// The arithmetic mirrors `forward` term for term (dot products
    /// seeded at `+0.0` and accumulated in ascending order, softmax over
    /// the full visible row, context accumulated from `+0.0` in ascending
    /// key order), so a row equals the tape's bitwise: the causal mask
    /// only ever adds `0.0` to the newest position's row, and the tape's
    /// `+ 0.0` after scaling cannot change a softmax. The one attention
    /// kernel of every tape-free path (encoder, stacked decode step).
    pub(crate) fn attend_row(
        &self,
        q_row: &[f32],
        keys: &Tensor,
        values: &Tensor,
        scores: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        assert!(keys.rows() > 0, "attention over an empty cache");
        assert_eq!(keys.shape(), values.shape(), "K/V cache shape mismatch");
        let scale = 1.0 / (self.d_head as f32).sqrt();
        for h in 0..self.heads {
            let off = h * self.d_head;
            let qh = &q_row[off..off + self.d_head];
            scores.clear();
            for j in 0..keys.rows() {
                let kh = &keys.row_slice(j)[off..off + self.d_head];
                let mut s = 0.0f32;
                for (a, b) in qh.iter().zip(kh) {
                    s += a * b;
                }
                scores.push(s * scale);
            }
            softmax_in_place(scores);
            let ctx = &mut out[off..off + self.d_head];
            ctx.fill(0.0);
            for (j, &w) in scores.iter().enumerate() {
                let vh = &values.row_slice(j)[off..off + self.d_head];
                for (o, &v) in ctx.iter_mut().zip(vh) {
                    *o += w * v;
                }
            }
        }
    }

    /// The tape-free twin of `forward(x, x, None, None)` (unmasked
    /// self-attention, the encoder's), leaving the output in `s.delta`.
    pub(crate) fn self_attend_into(&self, x: &Tensor, s: &mut Scratch) {
        let Scratch { q, k, v, merged, delta, scores, .. } = s;
        self.wq.forward_into(x, q);
        self.wk.forward_into(x, k);
        self.wv.forward_into(x, v);
        merged.resize_zeroed(x.rows(), self.heads * self.d_head);
        for r in 0..x.rows() {
            self.attend_row(q.row_slice(r), k, v, scores, merged.row_slice_mut(r));
        }
        self.wo.forward_into(merged, delta);
    }
}

/// Position-wise feed-forward network `relu(x W1 + b1) W2 + b2`.
pub struct FeedForward {
    pub(crate) lin1: Linear,
    pub(crate) lin2: Linear,
}

impl FeedForward {
    pub fn new(params: &mut ParamSet, rng: &mut StdRng, name: &str, d_model: usize, d_ff: usize) -> Self {
        FeedForward {
            lin1: Linear::new(params, rng, &format!("{name}.ff1"), d_model, d_ff),
            lin2: Linear::new(params, rng, &format!("{name}.ff2"), d_ff, d_model),
        }
    }

    pub fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        self.lin2.forward(tape, self.lin1.forward(tape, x).relu())
    }

    /// Inference-only forward into `out`, the first linear's bias + relu
    /// fused into the matmul epilogue and its rows left in `hidden`.
    pub(crate) fn forward_into(&self, x: &Tensor, hidden: &mut Tensor, out: &mut Tensor) {
        self.lin1.forward_into_act(x, Activation::Relu, hidden);
        self.lin2.forward_into(hidden, out);
    }
}

/// The leading `rows x cols` block of `m`.
fn leading_block(m: &Tensor, rows: usize, cols: usize) -> Tensor {
    let data = (0..rows).flat_map(|r| m.row_slice(r)[..cols].iter().copied()).collect();
    Tensor::from_vec(rows, cols, data)
}

/// Sinusoidal positional-encoding table (`max_len x d_model`), a constant.
pub fn positional_encoding(max_len: usize, d_model: usize) -> Tensor {
    let mut pe = Tensor::zeros(max_len, d_model);
    for pos in 0..max_len {
        for i in 0..d_model / 2 {
            let angle = pos as f32 / 10_000f32.powf(2.0 * i as f32 / d_model as f32);
            pe.set(pos, 2 * i, angle.sin());
            if 2 * i + 1 < d_model {
                pe.set(pos, 2 * i + 1, angle.cos());
            }
        }
    }
    pe
}

/// Causal (lower-triangular) additive mask: position `i` may attend to
/// positions `j <= i`.
pub fn causal_mask(len: usize) -> Tensor {
    let mut m = Tensor::zeros(len, len);
    for i in 0..len {
        for j in i + 1..len {
            m.set(i, j, -1e9);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn linear_shapes_and_bias() {
        let mut params = ParamSet::new();
        let lin = Linear::new(&mut params, &mut rng(), "l", 3, 5);
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros(2, 3));
        let y = lin.forward(&tape, x);
        assert_eq!(y.shape(), (2, 5));
        // Zero input -> bias (zero-initialized) output.
        assert!(y.value().data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let mut params = ParamSet::new();
        let ln = LayerNorm::new(&mut params, "ln", 4);
        let tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(1, 4, vec![1., 2., 3., 4.]));
        let y = ln.forward(&tape, x).value();
        let mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        let var: f32 = y.data().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn embedding_scales_by_sqrt_d() {
        let mut params = ParamSet::new();
        let emb = Embedding::new(&mut params, &mut rng(), "e", 10, 16);
        let tape = Tape::new();
        let x = emb.forward(&tape, &[3]);
        let raw = emb.table.value();
        for c in 0..16 {
            assert!((x.value().get(0, c) - raw.get(3, c) * 4.0).abs() < 1e-6);
        }
    }

    #[test]
    fn mha_output_shape_and_mask_effect() {
        let mut params = ParamSet::new();
        let mha = MultiHeadAttention::new(&mut params, &mut rng(), "a", 8, 2);
        let tape = Tape::new();
        let x = tape.constant(init::uniform(&mut rng(), 4, 8, 1.0));
        let open = mha.forward(&tape, x, x, None, None).value();
        assert_eq!(open.shape(), (4, 8));
        let masked = mha.forward(&tape, x, x, Some(&causal_mask(4)), None).value();
        // First row sees only itself under the causal mask, so it differs
        // from the unmasked version; last row sees everything, so it matches.
        assert!(open.row_slice(0) != masked.row_slice(0));
        for (a, b) in open.row_slice(3).iter().zip(masked.row_slice(3)) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn mha_records_attention_when_asked() {
        let mut params = ParamSet::new();
        let mha = MultiHeadAttention::new(&mut params, &mut rng(), "a", 8, 2);
        let tape = Tape::new();
        let q = tape.constant(init::uniform(&mut rng(), 3, 8, 1.0));
        let kv = tape.constant(init::uniform(&mut rng(), 5, 8, 1.0));
        let mut sink = Vec::new();
        mha.forward(&tape, q, kv, None, Some(&mut sink));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink[0].shape(), (3, 5));
        // Head-averaged attention rows still sum to 1.
        for r in 0..3 {
            let s: f32 = sink[0].row_slice(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn positional_encoding_matches_reference_values() {
        let pe = positional_encoding(4, 6);
        assert_eq!(pe.get(0, 0), 0.0);
        assert_eq!(pe.get(0, 1), 1.0);
        assert!((pe.get(1, 0) - 1f32.sin()).abs() < 1e-6);
        // Distinct positions get distinct encodings.
        assert!(pe.row_slice(1) != pe.row_slice(2));
    }

    #[test]
    fn causal_mask_is_lower_triangular() {
        let m = causal_mask(3);
        for i in 0..3 {
            for j in 0..3 {
                if j > i {
                    assert_eq!(m.get(i, j), -1e9);
                } else {
                    assert_eq!(m.get(i, j), 0.0);
                }
            }
        }
    }

    #[test]
    fn dropout_zero_rate_is_identity() {
        let mut r = rng();
        let mut ctx = TrainCtx { rng: &mut r, dropout: 0.0 };
        let tape = Tape::new();
        let x = tape.constant(Tensor::full(2, 2, 3.0));
        let y = ctx.dropout(x);
        assert_eq!(y.value().data(), &[3.0; 4]);
    }

    #[test]
    fn dropout_scales_kept_entries() {
        let mut r = rng();
        let mut ctx = TrainCtx { rng: &mut r, dropout: 0.5 };
        let tape = Tape::new();
        let x = tape.constant(Tensor::full(10, 10, 1.0));
        let y = ctx.dropout(x).value();
        for &v in y.data() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6);
        }
        // Some kept, some dropped at rate 0.5 over 100 entries.
        assert!(y.data().contains(&0.0));
        assert!(y.data().iter().any(|&v| v != 0.0));
    }
}
