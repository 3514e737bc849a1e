//! The distilled q2q student's quantized inference path (§IV online
//! serving).
//!
//! [`QuantStudent`] is an inference-only transformer seq2seq built from a
//! trained [`Seq2Seq`]'s parameters. Every weight matrix on the per-step
//! critical path (attention projections, FFN, output projection) is i8
//! per-row quantized ([`QuantizedMatrix`]), so the inner loops are
//! dequant-free integer dots with one f32 epilogue per output element.
//! Decoder attention keys are quantized once when cached
//! ([`QuantizedRows`]) and every attention score against them is an
//! integer dot; attention values, embeddings, biases, layer norms and the
//! positional table stay f32 — they are either read once per step or need
//! the dynamic range.
//!
//! The integer inner loops make the whole decode bitwise deterministic
//! across runs and thread counts (integer accumulation is associative;
//! every f32 epilogue runs in a fixed per-element order), which
//! `tests/quant_props.rs` in `qrw-tensor` pins at the kernel level and the
//! tests here pin end to end.
//!
//! Artifacts: the quantized matrices serialize as a version-gated `QRWT`
//! v3 blob ([`qrw_tensor::serialize::save_quantized`]); the f32 remainder
//! rides in an ordinary v2 blob. [`QuantStudent::from_artifacts`] rebuilds
//! the student from the pair, bit-identically.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use qrw_tensor::quant::{quantize_row_into, QuantizedMatrix, QuantizedRows};
use qrw_tensor::rng::StdRng;
use qrw_tensor::serialize;
use qrw_tensor::tensor::softmax_in_place;
use qrw_tensor::{ParamSet, Tensor};
use qrw_text::{BOS, EOS};

use crate::config::{ComponentKind, ModelConfig};
use crate::decode::{
    fused_top_n_from_logits, top_k_first_tokens_from_logits, Hypothesis, TopNSampling,
};
use crate::layers::positional_encoding;
use crate::seq2seq::{count_thread_decode, DecodeStats, Seq2Seq};

#[cfg(test)]
mod oracle;

/// A dense layer with an i8-quantized weight and an f32 bias.
struct QuantLinear {
    /// Stored transposed (`d_out x d_in`): inner products are contiguous.
    w: QuantizedMatrix,
    b: Vec<f32>,
}

impl QuantLinear {
    fn matvec_into(&self, xq: &[i8], x_scale: f32, out: &mut [f32]) {
        self.w.matvec_quantized(xq, x_scale, Some(&self.b), out);
    }

    fn matmul_into(&self, x: &Tensor, out: &mut Tensor, xq: &mut Vec<i8>) {
        self.w.matmul_into(x, Some(&self.b), out, xq);
    }
}

/// Learned layer norm replicating `LayerNorm::forward_inference`'s
/// arithmetic (same epsilon, biased variance, evaluation order).
struct Norm {
    gain: Vec<f32>,
    bias: Vec<f32>,
}

impl Norm {
    fn apply(&self, x: &mut [f32]) {
        const EPS: f32 = 1e-5;
        let n = x.len() as f32;
        let mean = x.iter().sum::<f32>() / n;
        let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let istd = 1.0 / (var + EPS).sqrt();
        for (c, v) in x.iter_mut().enumerate() {
            let xh = (*v - mean) * istd;
            *v = xh * self.gain[c] + self.bias[c];
        }
    }
}

/// `x += delta`, then the layer norm — every residual block's epilogue.
fn residual_norm(x: &mut [f32], delta: &[f32], norm: &Norm) {
    for (o, &d) in x.iter_mut().zip(delta) {
        *o += d;
    }
    norm.apply(x);
}

struct QuantAttention {
    wq: QuantLinear,
    wk: QuantLinear,
    wv: QuantLinear,
    wo: QuantLinear,
    heads: usize,
    d_head: usize,
}

impl QuantAttention {
    /// Full (unmasked) self-attention over `x` into `s.sa`, quantized
    /// projections, f32 score/softmax/context — the encoder runs once per
    /// query, so only its matmuls need the fast path.
    fn attend_full(&self, x: &Tensor, s: &mut EncoderScratch, xq: &mut Vec<i8>) {
        self.wq.matmul_into(x, &mut s.q, xq);
        self.wk.matmul_into(x, &mut s.k, xq);
        self.wv.matmul_into(x, &mut s.v, xq);
        let scale = 1.0 / (self.d_head as f32).sqrt();
        s.merged.resize_zeroed(x.rows(), self.heads * self.d_head);
        for r in 0..x.rows() {
            let q_row = s.q.row_slice(r);
            let out_row = s.merged.row_slice_mut(r);
            for h in 0..self.heads {
                let off = h * self.d_head;
                let qh = &q_row[off..off + self.d_head];
                s.scores.clear();
                for j in 0..s.k.rows() {
                    let kh = &s.k.row_slice(j)[off..off + self.d_head];
                    let mut dot = 0.0f32;
                    for (a, b) in qh.iter().zip(kh) {
                        dot += a * b;
                    }
                    s.scores.push(dot * scale);
                }
                softmax_in_place(&mut s.scores);
                let ctx = &mut out_row[off..off + self.d_head];
                for (j, &w) in s.scores.iter().enumerate() {
                    let vh = &s.v.row_slice(j)[off..off + self.d_head];
                    for (o, &vv) in ctx.iter_mut().zip(vh) {
                        *o += w * vv;
                    }
                }
            }
        }
        self.wo.matmul_into(&s.merged, &mut s.sa, xq);
    }

    /// Incremental attention for the newest row into `out`: query
    /// projected from the already-quantized `(xq, x_scale)`, scores as
    /// integer dots against the per-head quantized key cache, context in
    /// f32 over the cached values (row-major, `heads * d_head` wide), all
    /// in ascending key order (fixed-order epilogue → deterministic bits).
    fn attend_cached(
        &self,
        xq: &[i8],
        x_scale: f32,
        keys: &[QuantizedRows],
        values: &[f32],
        s: &mut AttnScratch,
        out: &mut [f32],
    ) {
        let d_model = self.heads * self.d_head;
        self.wq.matvec_into(xq, x_scale, &mut s.q);
        let scale = 1.0 / (self.d_head as f32).sqrt();
        s.merged.fill(0.0);
        for (h, kh) in keys.iter().enumerate() {
            let off = h * self.d_head;
            let qs = quantize_row_into(&s.q[off..off + self.d_head], &mut s.qh);
            kh.scores_into(&s.qh, qs, scale, &mut s.scores);
            softmax_in_place(&mut s.scores);
            let ctx = &mut s.merged[off..off + self.d_head];
            for (j, &w) in s.scores.iter().enumerate() {
                let vh = &values[j * d_model + off..j * d_model + off + self.d_head];
                for (o, &vv) in ctx.iter_mut().zip(vh) {
                    *o += w * vv;
                }
            }
        }
        let ms = quantize_row_into(&s.merged, &mut s.mq);
        self.wo.matvec_into(&s.mq, ms, out);
    }
}

struct QuantEncoderLayer {
    self_attn: QuantAttention,
    ff1: QuantLinear,
    ff2: QuantLinear,
    norm1: Norm,
    norm2: Norm,
}

impl QuantEncoderLayer {
    /// One encoder layer over `x`, in place.
    fn forward(&self, x: &mut Tensor, s: &mut EncoderScratch, xq: &mut Vec<i8>) {
        self.self_attn.attend_full(x, s, xq);
        for r in 0..x.rows() {
            residual_norm(x.row_slice_mut(r), s.sa.row_slice(r), &self.norm1);
        }
        self.ff1.matmul_into(x, &mut s.h1, xq);
        for v in s.h1.data_mut() {
            *v = v.max(0.0);
        }
        self.ff2.matmul_into(&s.h1, &mut s.ff, xq);
        for r in 0..x.rows() {
            residual_norm(x.row_slice_mut(r), s.ff.row_slice(r), &self.norm2);
        }
    }
}

struct QuantDecoderLayer {
    self_attn: QuantAttention,
    cross_attn: QuantAttention,
    ff1: QuantLinear,
    ff2: QuantLinear,
    norm1: Norm,
    norm2: Norm,
    norm3: Norm,
}

/// Per-layer self-attention cache: growable per-head quantized keys plus
/// f32 values (row-major, `d_model` wide). The cross-attention K/V are
/// per request, not per candidate, and live in the [`DecodeArena`].
#[derive(Default)]
struct StudentLayerKv {
    self_k: Vec<QuantizedRows>,
    self_v: Vec<f32>,
}

/// `clone_from` reuses every buffer: forking the first-step cache into a
/// warm candidate allocates nothing.
impl Clone for StudentLayerKv {
    fn clone(&self) -> Self {
        StudentLayerKv { self_k: self.self_k.clone(), self_v: self.self_v.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.self_k.clone_from(&source.self_k);
        self.self_v.clone_from(&source.self_v);
    }
}

/// Incremental decode state for [`QuantStudent`]: one candidate's
/// self-attention rows. It pairs with the [`DecodeArena`] whose cross K/V
/// [`QuantStudent::start_cache`] projected.
#[derive(Default)]
pub struct StudentKvCache {
    layers: Vec<StudentLayerKv>,
    pos: usize,
}

impl Clone for StudentKvCache {
    fn clone(&self) -> Self {
        StudentKvCache { layers: self.layers.clone(), pos: self.pos }
    }

    fn clone_from(&mut self, source: &Self) {
        self.layers.clone_from(&source.layers);
        self.pos = source.pos;
    }
}

impl StudentKvCache {
    /// Number of tokens this cache has consumed.
    pub fn pos(&self) -> usize {
        self.pos
    }
}

/// Empties `rows` into `heads` key lists of width `d_head`, keeping every
/// allocation that already has that shape.
fn reset_heads(rows: &mut Vec<QuantizedRows>, heads: usize, d_head: usize, capacity: usize) {
    rows.truncate(heads);
    rows.resize_with(heads, || QuantizedRows::with_capacity(d_head, capacity));
    for r in rows.iter_mut() {
        if r.cols() == d_head {
            r.clear();
        } else {
            *r = QuantizedRows::with_capacity(d_head, capacity);
        }
    }
}

/// The encoder's per-layer temporaries.
#[derive(Default)]
struct EncoderScratch {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    merged: Tensor,
    sa: Tensor,
    h1: Tensor,
    ff: Tensor,
    scores: Vec<f32>,
}

/// The incremental attention's temporaries: query, its per-head
/// quantization, the merged context and its quantization, and scores.
#[derive(Default)]
struct AttnScratch {
    q: Vec<f32>,
    qh: Vec<i8>,
    merged: Vec<f32>,
    mq: Vec<i8>,
    scores: Vec<f32>,
}

/// One decoder layer's cross-attention keys (quantized per head) and
/// values, projected once per request and read by every candidate.
#[derive(Default)]
struct CrossKv {
    k: Vec<QuantizedRows>,
    v: Tensor,
}

/// Every buffer a student decode step and its encoder touch, reused
/// request after request: the source memory and encoder temporaries,
/// this request's cross-attention K/V, and the step's activations, their
/// quantizations, attention scratch, FFN rows and logits. Once warm (a
/// request of the same shape has run through it), [`QuantStudent::encode`],
/// [`QuantStudent::start_cache`] and [`QuantStudent::step_into`] allocate
/// nothing. [`QuantStudent::top_n_sampling`] keeps one per thread.
#[derive(Default)]
pub struct DecodeArena {
    memory: Tensor,
    enc: EncoderScratch,
    /// Projected cross keys before their per-head quantization.
    ck: Tensor,
    cross: Vec<CrossKv>,
    /// One quantized activation row (`d_model` wide).
    xq: Vec<i8>,
    /// The quantized FFN hidden row (`d_ff` wide).
    hq: Vec<i8>,
    attn: AttnScratch,
    x: Vec<f32>,
    k_new: Vec<f32>,
    v_new: Vec<f32>,
    /// A residual block's output, added back into `x`.
    delta: Vec<f32>,
    h1: Vec<f32>,
    logits: Vec<f32>,
}

impl DecodeArena {
    /// Sizes every step buffer for `c` (a no-op once it already fits).
    fn fit(&mut self, c: &ModelConfig) {
        let d_head = c.d_model / c.heads;
        for v in [
            &mut self.x,
            &mut self.k_new,
            &mut self.v_new,
            &mut self.delta,
            &mut self.attn.q,
            &mut self.attn.merged,
        ] {
            v.resize(c.d_model, 0.0);
        }
        self.h1.resize(c.d_ff, 0.0);
        self.logits.resize(c.vocab, 0.0);
        self.xq.resize(c.d_model, 0);
        self.attn.mq.resize(c.d_model, 0);
        self.attn.qh.resize(d_head, 0);
        self.hq.resize(c.d_ff, 0);
        // Room for the longest key list either attention scores against.
        let keys = (c.max_src_len + 1).max(c.max_tgt_len + 2);
        self.attn.scores.reserve(keys.saturating_sub(self.attn.scores.len()));
    }
}

/// One top-n candidate: its prefix (BOS first), cache and running score.
struct Cand {
    prefix: Vec<usize>,
    cache: StudentKvCache,
    log_prob: f32,
    finished: bool,
}

/// The per-thread state behind [`QuantStudent::top_n_sampling`]: the
/// step arena, the first-step cache, the candidates (their prefixes and
/// caches re-forked through `clone_from`) and the sampling pool.
#[derive(Default)]
struct RequestArena {
    step: DecodeArena,
    first: StudentKvCache,
    cands: Vec<Cand>,
    pool: Vec<(f32, usize)>,
}

thread_local! {
    static ARENA: RefCell<RequestArena> = RefCell::new(RequestArena::default());
}

/// The weight names [`QuantStudent`] quantizes; everything else stays f32.
fn is_quantized_name(name: &str) -> bool {
    [".wq.w", ".wk.w", ".wv.w", ".wo.w", ".ff1.w", ".ff2.w"]
        .iter()
        .any(|s| name.ends_with(s))
        || name == "s2s.out.w"
}

/// The distilled q2q student: a transformer seq2seq decoding through
/// quantized microkernels and the fused softmax+top-n epilogue.
pub struct QuantStudent {
    config: ModelConfig,
    src_emb: Tensor,
    tgt_emb: Tensor,
    enc_pe: Tensor,
    dec_pe: Tensor,
    enc: Vec<QuantEncoderLayer>,
    dec: Vec<QuantDecoderLayer>,
    out: QuantLinear,
    steps: AtomicU64,
    tokens: AtomicU64,
    cache_hits: AtomicU64,
}

impl QuantStudent {
    /// Quantizes a trained f32 model into a student. The model must be a
    /// pure transformer (the student architecture).
    pub fn from_seq2seq(model: &Seq2Seq) -> Result<Self, String> {
        let config = model.config().clone();
        let mut f32s: BTreeMap<String, Tensor> = BTreeMap::new();
        let mut quants: BTreeMap<String, QuantizedMatrix> = BTreeMap::new();
        for p in model.params().iter() {
            let name = p.name();
            if is_quantized_name(&name) {
                quants.insert(name, p.with_value(QuantizedMatrix::from_weight));
            } else {
                f32s.insert(name, p.value());
            }
        }
        Self::build(config, &f32s, &quants)
    }

    /// Rebuilds a student from its serialized artifact pair: the `QRWT` v3
    /// quantized-weight blob and the v2 f32 remainder.
    pub fn from_artifacts(
        config: ModelConfig,
        quant_bytes: &[u8],
        f32_bytes: &[u8],
    ) -> Result<Self, String> {
        let quants: BTreeMap<String, QuantizedMatrix> = serialize::parse_quantized(quant_bytes)
            .map_err(|e| format!("quantized artifact: {e}"))?
            .into_iter()
            .collect();
        let f32s: BTreeMap<String, Tensor> = serialize::parse(f32_bytes)
            .map_err(|e| format!("f32 artifact: {e}"))?
            .into_iter()
            .collect();
        Self::build(config, &f32s, &quants)
    }

    fn build(
        config: ModelConfig,
        f32s: &BTreeMap<String, Tensor>,
        quants: &BTreeMap<String, QuantizedMatrix>,
    ) -> Result<Self, String> {
        if config.enc_kind != ComponentKind::Transformer
            || config.dec_kind != ComponentKind::Transformer
        {
            return Err("student must be a pure transformer".into());
        }
        if config.heads == 0 || !config.d_model.is_multiple_of(config.heads) {
            return Err("d_model must divide by heads".into());
        }
        let tensor = |name: &str| -> Result<Tensor, String> {
            f32s.get(name).cloned().ok_or_else(|| format!("missing f32 record {name}"))
        };
        let rowvec = |name: &str, want: usize| -> Result<Vec<f32>, String> {
            let t = tensor(name)?;
            if t.rows() * t.cols() != want {
                return Err(format!("record {name}: {} values, expected {want}", t.rows() * t.cols()));
            }
            Ok(t.data().to_vec())
        };
        let qmat = |name: &str, d_in: usize, d_out: usize| -> Result<QuantizedMatrix, String> {
            let m = quants.get(name).ok_or_else(|| format!("missing quantized record {name}"))?;
            // Stored transposed: rows index outputs.
            if m.rows() != d_out || m.cols() != d_in {
                return Err(format!(
                    "record {name}: {}x{}, expected {d_out}x{d_in}",
                    m.rows(),
                    m.cols()
                ));
            }
            Ok(m.clone())
        };
        let qlin = |name: &str, d_in: usize, d_out: usize| -> Result<QuantLinear, String> {
            Ok(QuantLinear {
                w: qmat(&format!("{name}.w"), d_in, d_out)?,
                b: rowvec(&format!("{name}.b"), d_out)?,
            })
        };
        let norm = |name: &str| -> Result<Norm, String> {
            Ok(Norm {
                gain: rowvec(&format!("{name}.gain"), config.d_model)?,
                bias: rowvec(&format!("{name}.bias"), config.d_model)?,
            })
        };
        let attn = |name: &str| -> Result<QuantAttention, String> {
            Ok(QuantAttention {
                wq: qlin(&format!("{name}.wq"), config.d_model, config.d_model)?,
                wk: qlin(&format!("{name}.wk"), config.d_model, config.d_model)?,
                wv: qlin(&format!("{name}.wv"), config.d_model, config.d_model)?,
                wo: qlin(&format!("{name}.wo"), config.d_model, config.d_model)?,
                heads: config.heads,
                d_head: config.d_model / config.heads,
            })
        };

        let src_emb = tensor("s2s.src.emb")?;
        let tgt_emb = tensor("s2s.tgt.emb")?;
        for (label, t) in [("s2s.src.emb", &src_emb), ("s2s.tgt.emb", &tgt_emb)] {
            if t.shape() != (config.vocab, config.d_model) {
                return Err(format!("record {label}: shape mismatch with config"));
            }
        }
        let enc = (0..config.enc_layers)
            .map(|i| -> Result<QuantEncoderLayer, String> {
                let base = format!("s2s.enc{i}");
                Ok(QuantEncoderLayer {
                    self_attn: attn(&format!("{base}.self"))?,
                    ff1: qlin(&format!("{base}.ffn.ff1"), config.d_model, config.d_ff)?,
                    ff2: qlin(&format!("{base}.ffn.ff2"), config.d_ff, config.d_model)?,
                    norm1: norm(&format!("{base}.norm1"))?,
                    norm2: norm(&format!("{base}.norm2"))?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let dec = (0..config.dec_layers)
            .map(|i| -> Result<QuantDecoderLayer, String> {
                let base = format!("s2s.dec{i}");
                Ok(QuantDecoderLayer {
                    self_attn: attn(&format!("{base}.self"))?,
                    cross_attn: attn(&format!("{base}.cross"))?,
                    ff1: qlin(&format!("{base}.ffn.ff1"), config.d_model, config.d_ff)?,
                    ff2: qlin(&format!("{base}.ffn.ff2"), config.d_ff, config.d_model)?,
                    norm1: norm(&format!("{base}.norm1"))?,
                    norm2: norm(&format!("{base}.norm2"))?,
                    norm3: norm(&format!("{base}.norm3"))?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let out = qlin("s2s.out", config.d_model, config.vocab)?;
        let enc_pe = positional_encoding(config.max_src_len + 2, config.d_model);
        let dec_pe = positional_encoding(config.max_tgt_len + 2, config.d_model);
        Ok(QuantStudent {
            config,
            src_emb,
            tgt_emb,
            enc_pe,
            dec_pe,
            enc,
            dec,
            out,
            steps: AtomicU64::new(0),
            tokens: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
        })
    }

    /// The quantized weights as a version-gated `QRWT` v3 blob.
    pub fn export_quantized(&self) -> Vec<u8> {
        let records = self.quant_records();
        let refs: Vec<(&str, &QuantizedMatrix)> =
            records.iter().map(|(n, m)| (n.as_str(), *m)).collect();
        serialize::save_quantized(&refs)
    }

    /// The f32 remainder (embeddings, biases, norms) as a `QRWT` v2 blob.
    pub fn export_f32(&self) -> Vec<u8> {
        let mut ps = ParamSet::new();
        for (name, t) in self.f32_records() {
            ps.add(name, t);
        }
        serialize::save(&ps)
    }

    fn quant_records(&self) -> Vec<(String, &QuantizedMatrix)> {
        let mut out: Vec<(String, &QuantizedMatrix)> = Vec::new();
        for (i, layer) in self.enc.iter().enumerate() {
            let base = format!("s2s.enc{i}");
            for (tag, lin) in [
                ("self.wq", &layer.self_attn.wq),
                ("self.wk", &layer.self_attn.wk),
                ("self.wv", &layer.self_attn.wv),
                ("self.wo", &layer.self_attn.wo),
                ("ffn.ff1", &layer.ff1),
                ("ffn.ff2", &layer.ff2),
            ] {
                out.push((format!("{base}.{tag}.w"), &lin.w));
            }
        }
        for (i, layer) in self.dec.iter().enumerate() {
            let base = format!("s2s.dec{i}");
            for (tag, lin) in [
                ("self.wq", &layer.self_attn.wq),
                ("self.wk", &layer.self_attn.wk),
                ("self.wv", &layer.self_attn.wv),
                ("self.wo", &layer.self_attn.wo),
                ("cross.wq", &layer.cross_attn.wq),
                ("cross.wk", &layer.cross_attn.wk),
                ("cross.wv", &layer.cross_attn.wv),
                ("cross.wo", &layer.cross_attn.wo),
                ("ffn.ff1", &layer.ff1),
                ("ffn.ff2", &layer.ff2),
            ] {
                out.push((format!("{base}.{tag}.w"), &lin.w));
            }
        }
        out.push(("s2s.out.w".into(), &self.out.w));
        out
    }

    fn f32_records(&self) -> Vec<(String, Tensor)> {
        let row = |v: &[f32]| Tensor::from_vec(1, v.len(), v.to_vec());
        let mut out: Vec<(String, Tensor)> = vec![
            ("s2s.src.emb".into(), self.src_emb.clone()),
            ("s2s.tgt.emb".into(), self.tgt_emb.clone()),
        ];
        for (i, layer) in self.enc.iter().enumerate() {
            let base = format!("s2s.enc{i}");
            for (tag, lin) in [
                ("self.wq", &layer.self_attn.wq),
                ("self.wk", &layer.self_attn.wk),
                ("self.wv", &layer.self_attn.wv),
                ("self.wo", &layer.self_attn.wo),
                ("ffn.ff1", &layer.ff1),
                ("ffn.ff2", &layer.ff2),
            ] {
                out.push((format!("{base}.{tag}.b"), row(&lin.b)));
            }
            for (tag, n) in [("norm1", &layer.norm1), ("norm2", &layer.norm2)] {
                out.push((format!("{base}.{tag}.gain"), row(&n.gain)));
                out.push((format!("{base}.{tag}.bias"), row(&n.bias)));
            }
        }
        for (i, layer) in self.dec.iter().enumerate() {
            let base = format!("s2s.dec{i}");
            for (tag, lin) in [
                ("self.wq", &layer.self_attn.wq),
                ("self.wk", &layer.self_attn.wk),
                ("self.wv", &layer.self_attn.wv),
                ("self.wo", &layer.self_attn.wo),
                ("cross.wq", &layer.cross_attn.wq),
                ("cross.wk", &layer.cross_attn.wk),
                ("cross.wv", &layer.cross_attn.wv),
                ("cross.wo", &layer.cross_attn.wo),
                ("ffn.ff1", &layer.ff1),
                ("ffn.ff2", &layer.ff2),
            ] {
                out.push((format!("{base}.{tag}.b"), row(&lin.b)));
            }
            for (tag, n) in
                [("norm1", &layer.norm1), ("norm2", &layer.norm2), ("norm3", &layer.norm3)]
            {
                out.push((format!("{base}.{tag}.gain"), row(&n.gain)));
                out.push((format!("{base}.{tag}.bias"), row(&n.bias)));
            }
        }
        out.push(("s2s.out.b".into(), row(&self.out.b)));
        out
    }

    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Maximum target length this model decodes.
    pub fn max_tgt_len(&self) -> usize {
        self.config.max_tgt_len
    }

    /// Snapshot of the cumulative decode counters (relaxed atomics: the
    /// student may serve from multiple threads). Each
    /// [`QuantStudent::top_n_sampling`] request publishes its counts once,
    /// when it finishes.
    pub fn decode_stats(&self) -> DecodeStats {
        DecodeStats {
            steps: self.steps.load(Ordering::Relaxed),
            tokens: self.tokens.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
        }
    }

    /// Encodes raw source ids (truncated to `max_src_len`, EOS appended —
    /// the teacher's `prep_src` discipline) into the arena's
    /// `len x d_model` memory and returns it.
    pub fn encode<'a>(&self, src: &[usize], arena: &'a mut DecodeArena) -> &'a Tensor {
        let src = &src[..src.len().min(self.config.max_src_len)];
        let scale = (self.config.d_model as f32).sqrt();
        let DecodeArena { memory: x, enc, xq, .. } = arena;
        x.resize_zeroed(src.len() + 1, self.config.d_model);
        for (r, id) in src.iter().copied().chain([EOS]).enumerate() {
            assert!(id < self.config.vocab, "token id {id} out of vocabulary");
            let pe = self.enc_pe.row_slice(r);
            for ((o, &e), &p) in
                x.row_slice_mut(r).iter_mut().zip(self.src_emb.row_slice(id)).zip(pe)
            {
                *o = e * scale + p;
            }
        }
        for layer in &self.enc {
            layer.forward(x, enc, xq);
        }
        x
    }

    /// Projects the arena's memory into this request's cross-attention
    /// K/V (keys quantized per head, values f32), held in the arena for
    /// every candidate to read, and returns a fresh cache.
    pub fn start_cache(&self, arena: &mut DecodeArena) -> StudentKvCache {
        self.project_cross(arena);
        let mut cache = StudentKvCache::default();
        self.reset_cache(&mut cache);
        cache
    }

    fn project_cross(&self, arena: &mut DecodeArena) {
        let (heads, d_head) = (self.config.heads, self.config.d_head());
        let DecodeArena { memory, ck, cross, xq, .. } = arena;
        cross.resize_with(self.dec.len(), CrossKv::default);
        for (layer, c) in self.dec.iter().zip(cross.iter_mut()) {
            layer.cross_attn.wk.matmul_into(memory, ck, xq);
            layer.cross_attn.wv.matmul_into(memory, &mut c.v, xq);
            reset_heads(&mut c.k, heads, d_head, self.config.max_src_len + 1);
            for r in 0..ck.rows() {
                let row = ck.row_slice(r);
                for (h, rows) in c.k.iter_mut().enumerate() {
                    rows.push_row(&row[h * d_head..(h + 1) * d_head]);
                }
            }
        }
    }

    /// Empties `cache` to position 0 for this student, with room for a
    /// full-length decode, keeping every allocation of the right shape.
    fn reset_cache(&self, cache: &mut StudentKvCache) {
        let rows = self.config.max_tgt_len + 2;
        cache.layers.resize_with(self.dec.len(), StudentLayerKv::default);
        for kv in &mut cache.layers {
            reset_heads(&mut kv.self_k, self.config.heads, self.config.d_head(), rows);
            kv.self_v.clear();
            kv.self_v.reserve(rows * self.config.d_model);
        }
        cache.pos = 0;
    }

    /// Consumes one token and returns the raw next-token *logits*, held in
    /// the arena — the caller finishes the step with
    /// [`fused_top_n_from_logits`], so the per-step epilogue is one fused
    /// pass instead of log-softmax + mask + sort + sample. `cache` must
    /// come from [`QuantStudent::start_cache`] on this `arena` (or be a
    /// fork of one). Allocation-free once the arena and cache are warm.
    pub fn step_into<'a>(
        &self,
        cache: &mut StudentKvCache,
        token: usize,
        arena: &'a mut DecodeArena,
    ) -> &'a [f32] {
        assert_eq!(cache.layers.len(), self.dec.len(), "cache belongs to a different student");
        assert_eq!(arena.cross.len(), self.dec.len(), "arena holds no cross K/V for this student");
        assert!(cache.pos < self.dec_pe.rows(), "decode past the positional table");
        assert!(token < self.config.vocab, "token id {token} out of vocabulary");
        let d_head = self.config.d_head();
        let scale = (self.config.d_model as f32).sqrt();
        arena.fit(&self.config);
        let DecodeArena { cross, xq, hq, attn, x, k_new, v_new, delta, h1, logits, .. } = arena;
        let emb = self.tgt_emb.row_slice(token).iter().zip(self.dec_pe.row_slice(cache.pos));
        for (o, (&e, &p)) in x.iter_mut().zip(emb) {
            *o = e * scale + p;
        }
        for ((layer, kv), cross) in self.dec.iter().zip(&mut cache.layers).zip(cross.iter()) {
            // Project and append the newest self-attention K/V rows, then
            // attend — K quantized per head, V kept f32.
            let xs = quantize_row_into(x, xq);
            layer.self_attn.wk.matvec_into(xq, xs, k_new);
            layer.self_attn.wv.matvec_into(xq, xs, v_new);
            for (h, rows) in kv.self_k.iter_mut().enumerate() {
                rows.push_row(&k_new[h * d_head..(h + 1) * d_head]);
            }
            kv.self_v.extend_from_slice(v_new);
            layer.self_attn.attend_cached(xq, xs, &kv.self_k, &kv.self_v, attn, delta);
            residual_norm(x, delta, &layer.norm1);

            let xs = quantize_row_into(x, xq);
            layer.cross_attn.attend_cached(xq, xs, &cross.k, cross.v.data(), attn, delta);
            residual_norm(x, delta, &layer.norm2);

            let xs = quantize_row_into(x, xq);
            layer.ff1.matvec_into(xq, xs, h1);
            for v in h1.iter_mut() {
                *v = v.max(0.0);
            }
            let hs = quantize_row_into(h1, hq);
            layer.ff2.matvec_into(hq, hs, delta);
            residual_norm(x, delta, &layer.norm3);
        }
        cache.pos += 1;
        let xs = quantize_row_into(x, xq);
        self.out.matvec_into(xq, xs, logits);
        logits
    }

    /// The paper's top-n sampling decoder on the quantized fast path:
    /// `k` distinct most-likely first tokens, then one fused
    /// softmax+top-n pass per step per candidate. RNG draws happen in
    /// candidate order per step, mirroring the teacher decoder. Decodes
    /// through this thread's arena, so a warm request allocates only the
    /// returned hypotheses.
    pub fn top_n_sampling(
        &self,
        src: &[usize],
        cfg: TopNSampling,
        rng: &mut StdRng,
    ) -> Vec<Hypothesis> {
        ARENA.with_borrow_mut(|arena| self.decode_request(src, cfg, rng, arena))
    }

    fn decode_request(
        &self,
        src: &[usize],
        cfg: TopNSampling,
        rng: &mut StdRng,
        arena: &mut RequestArena,
    ) -> Vec<Hypothesis> {
        let RequestArena { step, first, cands, pool } = arena;
        // Re-initialise everything this request reads before reading it:
        // a request that panicked mid-decode leaves nothing behind.
        self.encode(src, step);
        self.project_cross(step);
        self.reset_cache(first);
        // Counted here, published once: (steps, cache hits).
        let (mut steps, mut cache_hits) = (1u64, 0u64);
        let logits = self.step_into(first, BOS, step);
        top_k_first_tokens_from_logits(logits, cfg.k, pool);
        cands.truncate(pool.len());
        while cands.len() < pool.len() {
            let mut cache = StudentKvCache::default();
            self.reset_cache(&mut cache);
            let prefix = Vec::with_capacity(self.config.max_tgt_len + 2);
            cands.push(Cand { prefix, cache, log_prob: 0.0, finished: false });
        }
        for (cand, &(log_prob, tok)) in cands.iter_mut().zip(pool.iter()) {
            cand.prefix.clear();
            cand.prefix.extend([BOS, tok]);
            cand.cache.clone_from(first);
            cand.log_prob = log_prob;
            cand.finished = false;
        }
        while cands.iter().any(|c| !c.finished) {
            for cand in cands.iter_mut().filter(|c| !c.finished) {
                let last = *cand.prefix.last().expect("non-empty prefix");
                steps += 1;
                cache_hits += cand.cache.pos as u64;
                let logits = self.step_into(&mut cand.cache, last, step);
                let next = fused_top_n_from_logits(logits, cfg.n, rng, pool);
                cand.log_prob += next.log_prob;
                if next.token == EOS || cand.prefix.len() > self.config.max_tgt_len {
                    cand.finished = true;
                } else {
                    cand.prefix.push(next.token);
                }
            }
        }
        self.steps.fetch_add(steps, Ordering::Relaxed);
        self.tokens.fetch_add(steps, Ordering::Relaxed);
        self.cache_hits.fetch_add(cache_hits, Ordering::Relaxed);
        count_thread_decode(steps, steps, cache_hits);
        let mut hyps: Vec<Hypothesis> = cands
            .iter()
            .map(|c| Hypothesis { tokens: c.prefix[1..].to_vec(), log_prob: c.log_prob })
            .collect();
        hyps.sort_by(|a, b| b.log_prob.total_cmp(&a.log_prob));
        hyps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrw_text::{PAD, UNK};

    fn teacher(vocab: usize, seed: u64) -> Seq2Seq {
        Seq2Seq::new(ModelConfig::student(vocab), seed)
    }

    fn masked_log_probs(logits: &[f32]) -> Vec<f32> {
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lse = max + logits.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
        logits
            .iter()
            .enumerate()
            .map(|(t, &l)| {
                if t == PAD || t == BOS || t == UNK {
                    f32::NEG_INFINITY
                } else {
                    l - lse
                }
            })
            .collect()
    }

    /// Quantization error through the full stack stays small: the
    /// student's first-step distribution tracks the f32 teacher it was
    /// built from, and both agree on the most likely token.
    #[test]
    fn student_tracks_f32_model_distribution() {
        let m = teacher(40, 11);
        let s = QuantStudent::from_seq2seq(&m).unwrap();
        let src = [5usize, 6, 7];
        let mem = m.encode(&src);
        let mut st = m.start_state(&mem);
        let want = m.next_log_probs(&mem, &mut st, &[BOS]);
        let mut arena = DecodeArena::default();
        s.encode(&src, &mut arena);
        let mut cache = s.start_cache(&mut arena);
        let got = masked_log_probs(s.step_into(&mut cache, BOS, &mut arena));
        let argmax = |v: &[f32]| {
            v.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap()
        };
        assert_eq!(argmax(&want), argmax(&got));
        for (t, (&a, &b)) in want.iter().zip(&got).enumerate() {
            if a.is_finite() {
                assert!((a - b).abs() < 0.25, "token {t}: {a} vs {b}");
            } else {
                assert_eq!(b, f32::NEG_INFINITY, "token {t} should stay masked");
            }
        }
    }

    /// Two independent quantizations of the same weights produce bitwise
    /// identical logits, step after step — the serving determinism
    /// guarantee at the model level.
    #[test]
    fn student_decode_is_bitwise_deterministic() {
        let m = teacher(30, 3);
        let a = QuantStudent::from_seq2seq(&m).unwrap();
        let b = QuantStudent::from_seq2seq(&m).unwrap();
        let (mut arena_a, mut arena_b) = (DecodeArena::default(), DecodeArena::default());
        assert_eq!(a.encode(&[4, 9, 12], &mut arena_a), b.encode(&[4, 9, 12], &mut arena_b));
        let mut ca = a.start_cache(&mut arena_a);
        let mut cb = b.start_cache(&mut arena_b);
        let mut tok = BOS;
        for _ in 0..8 {
            let la = a.step_into(&mut ca, tok, &mut arena_a);
            let lb = b.step_into(&mut cb, tok, &mut arena_b);
            assert_eq!(la, lb);
            tok = la
                .iter()
                .enumerate()
                .skip(qrw_text::NUM_SPECIALS)
                .max_by(|x, y| x.1.total_cmp(y.1))
                .map(|(i, _)| i)
                .unwrap();
        }
    }

    #[test]
    fn top_n_sampling_is_seeded_and_well_formed() {
        let m = teacher(30, 5);
        let s = QuantStudent::from_seq2seq(&m).unwrap();
        let cfg = TopNSampling { k: 3, n: 5 };
        let a = s.top_n_sampling(&[6, 7], cfg, &mut StdRng::seed_from_u64(9));
        let b = s.top_n_sampling(&[6, 7], cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let mut firsts: Vec<usize> =
            a.iter().filter_map(|h| h.tokens.first().copied()).collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), a.iter().filter(|h| !h.tokens.is_empty()).count());
        for h in &a {
            assert!(h.tokens.len() <= s.max_tgt_len());
            assert!(h.tokens.iter().all(|&t| t >= qrw_text::NUM_SPECIALS));
            assert!(h.log_prob <= 0.0);
        }
        // Telemetry moved.
        let stats = s.decode_stats();
        assert!(stats.steps > 0 && stats.tokens > 0);
    }

    /// The per-thread arena is re-initialised by every request: after a
    /// request panics half-way through the arena (an out-of-vocabulary
    /// source token) and after a student of another shape used it, a
    /// request decodes exactly as on a fresh thread.
    #[test]
    fn arena_reinitialises_after_a_panic_and_across_students() {
        let a = QuantStudent::from_seq2seq(&teacher(30, 5)).unwrap();
        let mut wide = ModelConfig::student(50);
        (wide.d_model, wide.heads, wide.d_ff) = (48, 3, 96);
        (wide.max_tgt_len, wide.dec_layers) = (9, 2);
        let b = QuantStudent::from_seq2seq(&Seq2Seq::new(wide, 6)).unwrap();
        let cfg = TopNSampling { k: 3, n: 5 };
        let run = |s: &QuantStudent, src: &[usize]| {
            s.top_n_sampling(src, cfg, &mut StdRng::seed_from_u64(4))
        };
        let fresh = |s: &QuantStudent, src: &[usize]| {
            std::thread::scope(|sc| sc.spawn(|| run(s, src)).join().unwrap())
        };
        let (want_a, want_b) = (fresh(&a, &[6, 7, 8]), fresh(&b, &[9, 10, 11, 12]));
        std::thread::scope(|sc| {
            sc.spawn(|| {
                assert_eq!(run(&b, &[9, 10, 11, 12]), want_b);
                let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run(&a, &[6, 7, 8, 9, 99])
                }));
                assert!(poisoned.is_err(), "out-of-vocabulary source must panic");
                assert_eq!(run(&a, &[6, 7, 8]), want_a);
                assert_eq!(run(&b, &[9, 10, 11, 12]), want_b);
                assert_eq!(run(&a, &[6, 7, 8]), want_a);
            })
            .join()
            .unwrap()
        });
    }

    /// Export → import round-trips bitwise: the rebuilt student produces
    /// identical logits and identical sampled hypotheses.
    #[test]
    fn artifact_roundtrip_is_bit_identical() {
        let m = teacher(30, 7);
        let s = QuantStudent::from_seq2seq(&m).unwrap();
        let q = s.export_quantized();
        let f = s.export_f32();
        let r = QuantStudent::from_artifacts(s.config().clone(), &q, &f).unwrap();
        let (mut arena_s, mut arena_r) = (DecodeArena::default(), DecodeArena::default());
        assert_eq!(s.encode(&[5, 8], &mut arena_s), r.encode(&[5, 8], &mut arena_r));
        let mut cs = s.start_cache(&mut arena_s);
        let mut cr = r.start_cache(&mut arena_r);
        let logits_s = s.step_into(&mut cs, BOS, &mut arena_s);
        assert_eq!(logits_s, r.step_into(&mut cr, BOS, &mut arena_r));
        let cfg = TopNSampling::default();
        assert_eq!(
            s.top_n_sampling(&[5, 8], cfg, &mut StdRng::seed_from_u64(2)),
            r.top_n_sampling(&[5, 8], cfg, &mut StdRng::seed_from_u64(2)),
        );
    }

    #[test]
    fn corrupt_or_mismatched_artifacts_are_rejected() {
        let m = teacher(30, 7);
        let s = QuantStudent::from_seq2seq(&m).unwrap();
        let q = s.export_quantized();
        let f = s.export_f32();
        // Truncated quantized blob.
        assert!(QuantStudent::from_artifacts(s.config().clone(), &q[..q.len() - 3], &f).is_err());
        // Swapped blobs (version gate fires both ways).
        assert!(QuantStudent::from_artifacts(s.config().clone(), &f, &q).is_err());
        // Config that disagrees with the stored shapes.
        let other = ModelConfig::student(31);
        assert!(QuantStudent::from_artifacts(other, &q, &f).is_err());
        // Non-transformer config is rejected outright.
        let mut rnn_cfg = ModelConfig::student(30);
        rnn_cfg.dec_kind = ComponentKind::Gru;
        assert!(QuantStudent::from_artifacts(rnn_cfg, &q, &f).is_err());
    }
}
