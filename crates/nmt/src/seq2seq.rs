//! The encoder-decoder sequence-to-sequence model.
//!
//! [`Seq2Seq`] composes any encoder kind with any decoder kind from
//! [`ModelConfig`], which yields every architecture the paper evaluates:
//! pure transformer (the main models), attention-RNN (Figure 8 baseline),
//! GRU (Table V), and the §III-G hybrid (transformer encoder + RNN decoder).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use qrw_tensor::rng::StdRng;

use qrw_tensor::{ParamSet, Tape, Tensor, Var};
use qrw_text::{BOS, EOS, PAD, UNK};

use crate::config::{ComponentKind, ModelConfig};
use crate::layers::{Linear, TrainCtx};
use crate::rnn::{AttnRnnDecoder, RnnEncoder};
use crate::transformer::{KvCache, TransformerDecoder, TransformerEncoder};

enum Encoder {
    Transformer(TransformerEncoder),
    Recurrent(RnnEncoder),
}

enum Decoder {
    Transformer(TransformerDecoder),
    Recurrent(AttnRnnDecoder),
}

/// Decoder inference state carried across [`Seq2Seq::next_log_probs`] calls.
///
/// Recurrent decoders carry their hidden state (constant work per step).
/// The transformer decoder defaults to a per-layer KV cache so each step
/// consumes only the newest token; the stateless prefix-recompute variant
/// is kept as the reference the cached path is checked against (it is the
/// behaviour the paper laments in §III-G: "multi-head self attention needs
/// to be performed for all target tokens at each decoding step").
#[derive(Clone, Debug)]
pub enum DecodeState {
    /// Hidden state of a recurrent decoder.
    Recurrent(Tensor),
    /// Incremental transformer decoding state (per-layer KV cache).
    Transformer(KvCache),
    /// Stateless transformer decoding (full prefix recompute per step).
    Stateless,
}

/// How the transformer decoder advances during iterative decoding.
///
/// [`TransformerDecodeMode::PrefixRecompute`] exists as the slow reference
/// path: the equivalence test suite pins the cached path to it, and the
/// bench harness measures both to record the speedup.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransformerDecodeMode {
    /// Incremental decoding with a per-layer KV cache (the default).
    #[default]
    KvCache,
    /// Re-run the full prefix at every step (reference / baseline).
    PrefixRecompute,
}

/// Cumulative decode telemetry counters (relaxed atomics: decoding may be
/// driven from multiple serving threads over a shared model).
#[derive(Debug, Default)]
struct DecodeTelemetry {
    steps: AtomicU64,
    tokens: AtomicU64,
    cache_hits: AtomicU64,
}

/// Snapshot of a model's decode counters.
///
/// * `steps` — next-token distributions computed (one per generated token).
/// * `tokens` — token positions actually pushed through the decoder stack;
///   with prefix recompute this grows quadratically with output length,
///   with the KV cache it equals the tokens generated.
/// * `cache_hits` — prefix positions served from the KV cache instead of
///   being recomputed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodeStats {
    pub steps: u64,
    pub tokens: u64,
    pub cache_hits: u64,
}

impl DecodeStats {
    /// Counter-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &DecodeStats) -> DecodeStats {
        DecodeStats {
            steps: self.steps.saturating_sub(earlier.steps),
            tokens: self.tokens.saturating_sub(earlier.tokens),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
        }
    }
}

thread_local! {
    /// Every decode run on this thread, across all models.
    static THREAD_DECODES: Cell<DecodeStats> =
        const { Cell::new(DecodeStats { steps: 0, tokens: 0, cache_hits: 0 }) };
}

/// Cumulative decode counters of every model decode (teacher or
/// quantized student) run on the calling thread. A model's own counters
/// are shared by every thread that decodes it, so diffing them around
/// one call also counts other threads' concurrent decodes; diffing these
/// counts exactly the calling thread's decodes in between.
pub fn thread_decode_stats() -> DecodeStats {
    THREAD_DECODES.get()
}

/// Adds one decode's counts to the calling thread's counters.
pub(crate) fn count_thread_decode(steps: u64, tokens: u64, cache_hits: u64) {
    let t = THREAD_DECODES.get();
    THREAD_DECODES.set(DecodeStats {
        steps: t.steps + steps,
        tokens: t.tokens + tokens,
        cache_hits: t.cache_hits + cache_hits,
    });
}

/// An encoder-decoder translation model with an output vocabulary
/// projection.
pub struct Seq2Seq {
    config: ModelConfig,
    params: ParamSet,
    enc: Encoder,
    dec: Decoder,
    out: Linear,
    decode_mode: TransformerDecodeMode,
    telemetry: DecodeTelemetry,
}

impl Seq2Seq {
    /// Builds a model with deterministic initialization from `seed`.
    pub fn new(config: ModelConfig, seed: u64) -> Self {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let enc = match config.enc_kind {
            ComponentKind::Transformer => Encoder::Transformer(TransformerEncoder::new(
                &mut params,
                &mut rng,
                "s2s",
                config.vocab,
                config.d_model,
                config.d_ff,
                config.heads,
                config.enc_layers,
                config.max_src_len + 2,
            )),
            kind => Encoder::Recurrent(RnnEncoder::new(
                &mut params,
                &mut rng,
                "s2s",
                kind,
                config.vocab,
                config.d_model,
            )),
        };
        let dec = match config.dec_kind {
            ComponentKind::Transformer => Decoder::Transformer(TransformerDecoder::new(
                &mut params,
                &mut rng,
                "s2s",
                config.vocab,
                config.d_model,
                config.d_ff,
                config.heads,
                config.dec_layers,
                config.max_tgt_len + 2,
            )),
            kind => Decoder::Recurrent(AttnRnnDecoder::new(
                &mut params,
                &mut rng,
                "s2s",
                kind,
                config.vocab,
                config.d_model,
            )),
        };
        let out = Linear::new(&mut params, &mut rng, "s2s.out", config.d_model, config.vocab);
        Seq2Seq {
            config,
            params,
            enc,
            dec,
            out,
            decode_mode: TransformerDecodeMode::default(),
            telemetry: DecodeTelemetry::default(),
        }
    }

    /// How transformer decoding advances (KV cache vs prefix recompute).
    pub fn decode_mode(&self) -> TransformerDecodeMode {
        self.decode_mode
    }

    /// Selects the transformer decoding mode for subsequently created
    /// [`DecodeState`]s. `PrefixRecompute` is the reference/baseline path;
    /// equivalence tests and the bench harness flip this.
    pub fn set_decode_mode(&mut self, mode: TransformerDecodeMode) {
        self.decode_mode = mode;
    }

    /// Snapshot of the cumulative decode counters.
    pub fn decode_stats(&self) -> DecodeStats {
        DecodeStats {
            steps: self.telemetry.steps.load(Ordering::Relaxed),
            tokens: self.telemetry.tokens.load(Ordering::Relaxed),
            cache_hits: self.telemetry.cache_hits.load(Ordering::Relaxed),
        }
    }

    fn record_decode(&self, steps: u64, tokens: u64, cache_hits: u64) {
        count_thread_decode(steps, tokens, cache_hits);
        self.telemetry.steps.fetch_add(steps, Ordering::Relaxed);
        self.telemetry.tokens.fetch_add(tokens, Ordering::Relaxed);
        self.telemetry.cache_hits.fetch_add(cache_hits, Ordering::Relaxed);
    }

    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The model's trainable parameters.
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Truncates and appends EOS to raw source token ids.
    pub fn prep_src(&self, src: &[usize]) -> Vec<usize> {
        let cut = src.len().min(self.config.max_src_len);
        let mut out = Vec::with_capacity(cut + 1);
        out.extend_from_slice(&src[..cut]);
        out.push(EOS);
        out
    }

    fn prep_tgt(&self, tgt: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let cut = tgt.len().min(self.config.max_tgt_len);
        let mut dec_in = Vec::with_capacity(cut + 1);
        dec_in.push(BOS);
        dec_in.extend_from_slice(&tgt[..cut]);
        let mut targets = Vec::with_capacity(cut + 1);
        targets.extend_from_slice(&tgt[..cut]);
        targets.push(EOS);
        (dec_in, targets)
    }

    fn encode_on_tape<'t>(
        &self,
        tape: &'t Tape,
        src: &[usize],
        ctx: &mut Option<TrainCtx<'_>>,
    ) -> Var<'t> {
        let src = self.prep_src(src);
        match &self.enc {
            Encoder::Transformer(e) => e.forward(tape, &src, ctx),
            Encoder::Recurrent(e) => e.forward(tape, &src, ctx),
        }
    }

    fn decode_on_tape<'t>(
        &self,
        tape: &'t Tape,
        dec_in: &[usize],
        memory: Var<'t>,
        ctx: &mut Option<TrainCtx<'_>>,
        attn_sink: Option<&mut Vec<Tensor>>,
    ) -> Var<'t> {
        let hidden = match &self.dec {
            Decoder::Transformer(d) => d.forward(tape, dec_in, memory, ctx, attn_sink),
            Decoder::Recurrent(d) => d.forward(tape, dec_in, memory, ctx, attn_sink),
        };
        self.out.forward(tape, hidden)
    }

    /// Teacher-forced negative log-likelihood of `tgt` given `src`, as a
    /// tape node (so it can be combined with other losses before one
    /// backward pass). Returns `(nll_sum, token_count)`.
    pub fn nll_on_tape<'t>(
        &self,
        tape: &'t Tape,
        src: &[usize],
        tgt: &[usize],
        ctx: &mut Option<TrainCtx<'_>>,
    ) -> (Var<'t>, usize) {
        assert!(!src.is_empty(), "source must be non-empty");
        let memory = self.encode_on_tape(tape, src, ctx);
        let (dec_in, targets) = self.prep_tgt(tgt);
        let logits = self.decode_on_tape(tape, &dec_in, memory, ctx, None);
        let weights = vec![1.0; targets.len()];
        // Label smoothing is a training-time regularizer; scoring and
        // evaluation (ctx == None) use the true likelihood.
        let smoothing = if ctx.is_some() { self.config.label_smoothing } else { 0.0 };
        (
            logits.cross_entropy_sum_smoothed(&targets, &weights, smoothing),
            targets.len(),
        )
    }

    /// `log P(tgt | src)` under the model (inference mode, no dropout).
    pub fn log_prob(&self, src: &[usize], tgt: &[usize]) -> f32 {
        let tape = Tape::new();
        let (nll, _) = self.nll_on_tape(&tape, src, tgt, &mut None);
        -nll.item()
    }

    /// Per-token perplexity of `tgt | src`.
    pub fn perplexity(&self, src: &[usize], tgt: &[usize]) -> f32 {
        let tape = Tape::new();
        let (nll, count) = self.nll_on_tape(&tape, src, tgt, &mut None);
        (nll.item() / count as f32).exp()
    }

    /// Encodes `src` into a plain memory tensor for iterative decoding.
    pub fn encode(&self, src: &[usize]) -> Tensor {
        let tape = Tape::new();
        self.encode_on_tape(&tape, src, &mut None).value()
    }

    /// Fresh decoder state for a given memory.
    pub fn start_state(&self, memory: &Tensor) -> DecodeState {
        match &self.dec {
            Decoder::Transformer(d) => match self.decode_mode {
                TransformerDecodeMode::KvCache => DecodeState::Transformer(d.start_cache(memory)),
                TransformerDecodeMode::PrefixRecompute => DecodeState::Stateless,
            },
            Decoder::Recurrent(d) => {
                DecodeState::Recurrent(d.initial_state_inference(memory))
            }
        }
    }

    /// The newest hidden row for one candidate, advancing its state.
    ///
    /// The KV-cached path consumes exactly the prefix tokens the cache has
    /// not seen yet (`prefix[cache.pos()..]` — usually just the last one),
    /// so a full decode does linear token work instead of quadratic.
    fn advance_hidden_row(
        &self,
        memory: &Tensor,
        state: &mut DecodeState,
        prefix: &[usize],
    ) -> Tensor {
        match (&self.dec, state) {
            (Decoder::Transformer(d), DecodeState::Transformer(cache)) => {
                let seen = cache.pos();
                assert!(
                    seen < prefix.len(),
                    "decode state is ahead of the prefix ({seen} >= {})",
                    prefix.len()
                );
                let new = &prefix[seen..];
                self.record_decode(1, new.len() as u64, seen as u64);
                let mut hidden = Tensor::zeros(0, 0);
                for &tok in new {
                    hidden = d.step_cached(&mut [&mut *cache], &[tok]);
                }
                hidden
            }
            (Decoder::Transformer(d), DecodeState::Stateless) => {
                self.record_decode(1, prefix.len() as u64, 0);
                let tape = Tape::new();
                let mem = tape.constant(memory.clone());
                let h = d.forward(&tape, prefix, mem, &mut None, None);
                let (rows, _) = h.shape();
                h.slice_rows(rows - 1, 1).value()
            }
            (Decoder::Recurrent(d), DecodeState::Recurrent(h)) => {
                self.record_decode(1, 1, 0);
                let last = *prefix.last().expect("non-empty prefix");
                let new_h = d.step_inference(memory, h, last);
                *h = new_h.clone();
                new_h
            }
            _ => unreachable!("decoder kind and state kind always match"),
        }
    }

    /// Projects hidden rows to masked next-token log-probs, one `Vec` per
    /// row. PAD / BOS / UNK are masked to `-inf` so decoders never emit
    /// them.
    fn rows_to_log_probs(&self, hidden: &Tensor) -> Vec<Vec<f32>> {
        let logits = self.out.forward_inference(hidden).row_log_softmax();
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

    /// Log-probabilities of the next token given the decoded `prefix`
    /// (which starts with BOS). Advances decoder states in place.
    ///
    /// PAD / BOS / UNK are masked to `-inf` so decoders never emit them.
    pub fn next_log_probs(
        &self,
        memory: &Tensor,
        state: &mut DecodeState,
        prefix: &[usize],
    ) -> Vec<f32> {
        assert_eq!(prefix.first(), Some(&BOS), "prefix must start with BOS");
        let hidden_row = self.advance_hidden_row(memory, state, prefix);
        self.rows_to_log_probs(&hidden_row).pop().expect("one row in, one row out")
    }

    /// Batched [`Self::next_log_probs`]: advances every candidate by one
    /// step through a single stacked forward.
    ///
    /// For KV-cached transformer decoding all row-independent work
    /// (projections, layer norms, FFN, the vocabulary projection) runs as
    /// one `k`-row matmul per layer instead of `k` separate model calls;
    /// only attention walks each candidate's own cache. Recurrent decoders
    /// step per candidate but still share one batched vocabulary
    /// projection. Candidates whose cache is behind the prefix (e.g. just
    /// cloned from a shorter parent) fall back to the catch-up path.
    pub fn next_log_probs_batch(
        &self,
        memory: &Tensor,
        states: &mut [&mut DecodeState],
        prefixes: &[&[usize]],
    ) -> Vec<Vec<f32>> {
        let memories: Vec<&Tensor> = vec![memory; states.len()];
        self.next_log_probs_multi(&memories, states, prefixes)
    }

    /// [`Self::next_log_probs_batch`] across *independent* sources: each
    /// candidate carries its own encoder memory, so rows can come from
    /// different requests (the serving runtime stacks concurrent decodes
    /// this way), not just from one beam.
    ///
    /// KV caches already hold their source's cross-attention K/V, so the
    /// fully batched fast path is unchanged; the fallback advances each
    /// row against its own memory. Every per-row computation (matmul
    /// k-accumulation, per-candidate attention over its own cache,
    /// row-wise norms and softmax) is independent of the other rows, so
    /// batch composition never changes any row's values — see
    /// DESIGN.md § Serving runtime.
    pub fn next_log_probs_multi(
        &self,
        memories: &[&Tensor],
        states: &mut [&mut DecodeState],
        prefixes: &[&[usize]],
    ) -> Vec<Vec<f32>> {
        assert_eq!(states.len(), prefixes.len(), "one prefix per state");
        assert_eq!(memories.len(), prefixes.len(), "one memory per state");
        if states.is_empty() {
            return Vec::new();
        }
        for prefix in prefixes {
            assert_eq!(prefix.first(), Some(&BOS), "prefix must start with BOS");
        }
        // The fully batched fast path applies when every candidate is a
        // KV cache exactly one token behind its prefix.
        let batchable = states.iter().zip(prefixes).all(|(s, p)| match s {
            DecodeState::Transformer(cache) => cache.pos() + 1 == p.len(),
            _ => false,
        });
        let hidden = if batchable {
            if let Decoder::Transformer(d) = &self.dec {
                let mut caches: Vec<&mut KvCache> = states
                    .iter_mut()
                    .map(|s| match s {
                        DecodeState::Transformer(cache) => {
                            self.record_decode(1, 1, cache.pos() as u64);
                            cache
                        }
                        _ => unreachable!("batchable implies cached states"),
                    })
                    .collect();
                let tokens: Vec<usize> = prefixes
                    .iter()
                    .map(|p| *p.last().expect("non-empty prefix"))
                    .collect();
                d.step_cached(&mut caches, &tokens)
            } else {
                unreachable!("cached states imply a transformer decoder")
            }
        } else {
            let rows: Vec<Tensor> = states
                .iter_mut()
                .zip(prefixes)
                .zip(memories)
                .map(|((s, p), m)| self.advance_hidden_row(m, s, p))
                .collect();
            let refs: Vec<&Tensor> = rows.iter().collect();
            Tensor::stack_rows(&refs)
        };
        self.rows_to_log_probs(&hidden)
    }

    /// Head-averaged cross-attention maps of a teacher-forced pass
    /// (one per decoder layer for transformers; one for RNN decoders).
    /// Rows index target positions, columns source positions
    /// (source includes the trailing EOS). Used for Figure 6.
    pub fn cross_attention(&self, src: &[usize], tgt: &[usize]) -> Vec<Tensor> {
        let tape = Tape::new();
        let memory = self.encode_on_tape(&tape, src, &mut None);
        let (dec_in, _) = self.prep_tgt(tgt);
        let mut sink = Vec::new();
        match &self.dec {
            Decoder::Transformer(d) => {
                d.forward(&tape, &dec_in, memory, &mut None, Some(&mut sink));
            }
            Decoder::Recurrent(d) => {
                d.forward(&tape, &dec_in, memory, &mut None, Some(&mut sink));
            }
        }
        sink
    }

    /// Maximum target length this model decodes.
    pub fn max_tgt_len(&self) -> usize {
        self.config.max_tgt_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(enc: ComponentKind, dec: ComponentKind) -> Seq2Seq {
        let mut cfg = ModelConfig::tiny_transformer(30);
        cfg.enc_kind = enc;
        cfg.dec_kind = dec;
        Seq2Seq::new(cfg, 3)
    }

    fn all_kinds() -> Vec<(ComponentKind, ComponentKind)> {
        use ComponentKind::*;
        vec![(Transformer, Transformer), (Rnn, Rnn), (Gru, Gru), (Transformer, Rnn)]
    }

    #[test]
    fn log_prob_is_finite_and_negative_for_all_architectures() {
        for (e, d) in all_kinds() {
            let m = model(e, d);
            let lp = m.log_prob(&[5, 6, 7], &[8, 9]);
            assert!(lp.is_finite() && lp < 0.0, "{e}/{d}: {lp}");
        }
    }

    #[test]
    fn next_log_probs_is_a_distribution_minus_specials() {
        for (e, d) in all_kinds() {
            let m = model(e, d);
            let mem = m.encode(&[5, 6]);
            let mut st = m.start_state(&mem);
            let lp = m.next_log_probs(&mem, &mut st, &[BOS]);
            assert_eq!(lp.len(), 30);
            assert_eq!(lp[PAD], f32::NEG_INFINITY);
            assert_eq!(lp[BOS], f32::NEG_INFINITY);
            assert_eq!(lp[UNK], f32::NEG_INFINITY);
            let sum: f32 = lp.iter().filter(|v| v.is_finite()).map(|v| v.exp()).sum();
            // Masked entries carried probability mass, so the rest sums < 1.
            assert!(sum > 0.5 && sum <= 1.0 + 1e-4, "{e}/{d}: {sum}");
        }
    }

    /// Chain rule: log P(tgt|src) must equal the sum of stepwise
    /// next-token log-probs along the target (before special masking).
    #[test]
    fn log_prob_matches_stepwise_decoding() {
        for (e, d) in all_kinds() {
            let m = model(e, d);
            let src = [5usize, 6, 7];
            let tgt = [9usize, 10];
            let lp = m.log_prob(&src, &tgt);

            let mem = m.encode(&src);
            let mut st = m.start_state(&mem);
            let mut prefix = vec![BOS];
            let mut total = 0.0;
            for &tok in tgt.iter().chain(std::iter::once(&EOS)) {
                // Recompute without the special-token mask by scoring via a
                // separate full softmax: the mask only hits PAD/BOS/UNK and
                // our targets avoid those, but the renormalization matters,
                // so read the unmasked value through log_prob consistency.
                let lps = m.next_log_probs(&mem, &mut st, &prefix);
                total += lps[tok];
                prefix.push(tok);
            }
            // The masking removes PAD/BOS/UNK mass *after* log_softmax
            // (values untouched), so the sums agree exactly.
            assert!((lp - total).abs() < 1e-3, "{e}/{d}: {lp} vs {total}");
        }
    }

    #[test]
    fn truncation_respects_limits() {
        let m = model(ComponentKind::Transformer, ComponentKind::Transformer);
        let long: Vec<usize> = (4..30).cycle().take(100).collect();
        // Must not panic (inputs are truncated to the configured maxima).
        let lp = m.log_prob(&long, &long);
        assert!(lp.is_finite());
    }

    #[test]
    fn perplexity_positive() {
        let m = model(ComponentKind::Gru, ComponentKind::Gru);
        let ppl = m.perplexity(&[4, 5], &[6]);
        assert!(ppl > 1.0 && ppl.is_finite());
    }

    #[test]
    fn label_smoothing_affects_training_loss_only() {
        let mut cfg = ModelConfig::tiny_transformer(30);
        cfg.label_smoothing = 0.2;
        cfg.dropout = 0.0;
        let m = Seq2Seq::new(cfg, 3);
        // Scoring path (ctx = None): unsmoothed.
        let plain = Seq2Seq::new(ModelConfig::tiny_transformer(30), 3);
        assert_eq!(m.log_prob(&[5, 6], &[7]), plain.log_prob(&[5, 6], &[7]));
        // Training path (ctx = Some): smoothed loss differs.
        let mut rng = qrw_tensor::rng::StdRng::seed_from_u64(1);
        let tape = Tape::new();
        let mut ctx = Some(TrainCtx { rng: &mut rng, dropout: 0.0 });
        let (smoothed, _) = m.nll_on_tape(&tape, &[5, 6], &[7], &mut ctx);
        let (unsmoothed, _) = m.nll_on_tape(&tape, &[5, 6], &[7], &mut None);
        assert!((smoothed.item() - unsmoothed.item()).abs() > 1e-4);
    }

    #[test]
    fn cross_attention_shapes() {
        let m = model(ComponentKind::Transformer, ComponentKind::Transformer);
        let maps = m.cross_attention(&[5, 6, 7], &[8, 9]);
        assert_eq!(maps.len(), 1); // one decoder layer in the tiny config
        // +1 col for source EOS; +1 row for BOS shift (dec_in = BOS + tgt).
        assert_eq!(maps[0].shape(), (3, 4));
    }

    #[test]
    fn training_reduces_nll_on_one_pair() {
        use qrw_tensor::optim::{Adam, AdamConfig};
        let m = model(ComponentKind::Transformer, ComponentKind::Transformer);
        let src = [5usize, 6];
        let tgt = [7usize, 8];
        let before = -m.log_prob(&src, &tgt);
        let mut adam = Adam::new(AdamConfig { lr: 0.01, ..Default::default() });
        for _ in 0..30 {
            m.params().zero_grads();
            let tape = Tape::new();
            let (nll, _) = m.nll_on_tape(&tape, &src, &tgt, &mut None);
            tape.backward(nll);
            adam.step(m.params());
        }
        let after = -m.log_prob(&src, &tgt);
        assert!(after < before * 0.5, "nll did not drop: {before} -> {after}");
    }
}
