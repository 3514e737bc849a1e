//! Decoder-only causal transformer language model.
//!
//! The paper's §V explores a GPT-2-style alternative to the two-model
//! pipeline: treat `query <sep1> title <sep2> query2` as one sequence of a
//! "special language" and fine-tune a language model on it, so one model
//! both imagines a synthetic title and emits a rewrite. This module is
//! that architecture (trained from scratch at reproduction scale — the
//! pre-trained-weights advantage is out of scope, which is also why the
//! paper found it did not yet beat the jointly trained NMT pair).

use qrw_tensor::rng::StdRng;

use qrw_tensor::{ParamSet, Tape, Tensor, Var};
use qrw_text::BOS;

use crate::decode::sample_top_n;
use crate::layers::{
    causal_mask, maybe_dropout, positional_encoding, Embedding, FeedForward, LayerNorm, Linear,
    MultiHeadAttention, TrainCtx,
};

/// Configuration of a [`CausalLm`].
#[derive(Clone, Debug)]
pub struct CausalLmConfig {
    pub vocab: usize,
    pub d_model: usize,
    pub d_ff: usize,
    pub heads: usize,
    pub layers: usize,
    pub dropout: f32,
    /// Maximum total sequence length (query + title + rewrite + separators).
    pub max_len: usize,
}

impl CausalLmConfig {
    /// A small LM roughly matching the joint model's capacity.
    pub fn small(vocab: usize) -> Self {
        CausalLmConfig {
            vocab,
            d_model: 48,
            d_ff: 96,
            heads: 4,
            layers: 2,
            dropout: 0.1,
            max_len: 64,
        }
    }

    /// A tiny LM for unit tests.
    pub fn tiny(vocab: usize) -> Self {
        CausalLmConfig { d_model: 32, d_ff: 64, heads: 2, layers: 1, dropout: 0.0, ..Self::small(vocab) }
    }
}

struct LmLayer {
    self_attn: MultiHeadAttention,
    ffn: FeedForward,
    norm1: LayerNorm,
    norm2: LayerNorm,
}

impl LmLayer {
    fn new(params: &mut ParamSet, rng: &mut StdRng, name: &str, d_model: usize, d_ff: usize, heads: usize) -> Self {
        LmLayer {
            self_attn: MultiHeadAttention::new(params, rng, &format!("{name}.self"), d_model, heads),
            ffn: FeedForward::new(params, rng, &format!("{name}.ffn"), d_model, d_ff),
            norm1: LayerNorm::new(params, &format!("{name}.norm1"), d_model),
            norm2: LayerNorm::new(params, &format!("{name}.norm2"), d_model),
        }
    }

    fn forward<'t>(
        &self,
        tape: &'t Tape,
        x: Var<'t>,
        mask: &Tensor,
        ctx: &mut Option<TrainCtx<'_>>,
    ) -> Var<'t> {
        let sa = self.self_attn.forward(tape, x, x, Some(mask), None);
        let sa = maybe_dropout(ctx, sa);
        let x = self.norm1.forward(tape, x.add(sa));
        let ff = maybe_dropout(ctx, self.ffn.forward(tape, x));
        self.norm2.forward(tape, x.add(ff))
    }
}

/// A causal (GPT-style) transformer language model over token ids.
pub struct CausalLm {
    config: CausalLmConfig,
    params: ParamSet,
    embed: Embedding,
    layers: Vec<LmLayer>,
    out: Linear,
    pe: Tensor,
}

impl CausalLm {
    pub fn new(config: CausalLmConfig, seed: u64) -> Self {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let embed = Embedding::new(&mut params, &mut rng, "lm", config.vocab, config.d_model);
        let layers = (0..config.layers)
            .map(|i| LmLayer::new(&mut params, &mut rng, &format!("lm.l{i}"), config.d_model, config.d_ff, config.heads))
            .collect();
        let out = Linear::new(&mut params, &mut rng, "lm.out", config.d_model, config.vocab);
        let pe = positional_encoding(config.max_len + 2, config.d_model);
        CausalLm { config, params, embed, layers, out, pe }
    }

    pub fn config(&self) -> &CausalLmConfig {
        &self.config
    }

    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    fn hidden<'t>(
        &self,
        tape: &'t Tape,
        input: &[usize],
        ctx: &mut Option<TrainCtx<'_>>,
    ) -> Var<'t> {
        assert!(!input.is_empty(), "LM input must be non-empty");
        assert!(input.len() <= self.pe.rows(), "sequence longer than positional table");
        let mask = causal_mask(input.len());
        let mut x = self
            .embed
            .forward(tape, input)
            .add_const(&self.pe.slice_rows(0, input.len()));
        x = maybe_dropout(ctx, x);
        for layer in &self.layers {
            x = layer.forward(tape, x, &mask, ctx);
        }
        x
    }

    /// Teacher-forced negative log-likelihood of `tokens` (BOS is
    /// prepended internally). `predict_from` masks the loss so only
    /// positions `>= predict_from` of `tokens` contribute — training can
    /// focus on the title+rewrite continuation rather than the prompt.
    /// Returns `(nll_sum, counted_tokens)`.
    pub fn nll_on_tape<'t>(
        &self,
        tape: &'t Tape,
        tokens: &[usize],
        predict_from: usize,
        ctx: &mut Option<TrainCtx<'_>>,
    ) -> (Var<'t>, usize) {
        assert!(!tokens.is_empty(), "cannot score an empty sequence");
        let cut = tokens.len().min(self.config.max_len);
        let tokens = &tokens[..cut];
        let mut input = Vec::with_capacity(tokens.len());
        input.push(BOS);
        input.extend_from_slice(&tokens[..tokens.len() - 1]);
        let hidden = self.hidden(tape, &input, ctx);
        let logits = self.out.forward(tape, hidden);
        let weights: Vec<f32> = (0..tokens.len())
            .map(|i| if i >= predict_from { 1.0 } else { 0.0 })
            .collect();
        let counted = weights.iter().filter(|w| **w > 0.0).count();
        (logits.cross_entropy_sum(tokens, &weights), counted)
    }

    /// `log P(tokens[predict_from..] | tokens[..predict_from])`.
    pub fn log_prob(&self, tokens: &[usize], predict_from: usize) -> f32 {
        let tape = Tape::new();
        let (nll, _) = self.nll_on_tape(&tape, tokens, predict_from, &mut None);
        -nll.item()
    }

    /// Next-token log-probabilities given a prefix (BOS-prepended
    /// internally); full prefix recompute per call.
    pub fn next_log_probs(&self, prefix: &[usize]) -> Vec<f32> {
        let tape = Tape::new();
        let mut input = Vec::with_capacity(prefix.len() + 1);
        input.push(BOS);
        input.extend_from_slice(prefix);
        let hidden = self.hidden(&tape, &input, &mut None);
        let (rows, _) = hidden.shape();
        let last = hidden.slice_rows(rows - 1, 1).value();
        let mut lp = self.out.forward_inference(&last).row_log_softmax().into_vec();
        lp[qrw_text::PAD] = f32::NEG_INFINITY;
        lp[BOS] = f32::NEG_INFINITY;
        lp[qrw_text::UNK] = f32::NEG_INFINITY;
        lp
    }

    /// Samples a continuation of `prefix` with top-n sampling until any of
    /// `stop_tokens` is produced or `max_new` tokens were emitted.
    /// Returns `(continuation_without_stop, Some(stop_token))`.
    pub fn sample_until(
        &self,
        prefix: &[usize],
        stop_tokens: &[usize],
        max_new: usize,
        top_n: usize,
        rng: &mut StdRng,
    ) -> (Vec<usize>, Option<usize>) {
        let mut seq = prefix.to_vec();
        let mut out = Vec::new();
        for _ in 0..max_new {
            if seq.len() >= self.config.max_len {
                break;
            }
            let lp = self.next_log_probs(&seq);
            let tok = sample_top_n(&lp, top_n, rng, &mut Vec::new());
            if stop_tokens.contains(&tok) {
                return (out, Some(tok));
            }
            seq.push(tok);
            out.push(tok);
        }
        (out, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrw_tensor::optim::{Adam, AdamConfig};

    fn lm() -> CausalLm {
        CausalLm::new(CausalLmConfig::tiny(24), 3)
    }

    #[test]
    fn nll_counts_masked_positions() {
        let m = lm();
        let tape = Tape::new();
        let (nll, counted) = m.nll_on_tape(&tape, &[5, 6, 7, 8], 2, &mut None);
        assert_eq!(counted, 2);
        assert!(nll.item() > 0.0);
        let (full, all) = m.nll_on_tape(&tape, &[5, 6, 7, 8], 0, &mut None);
        assert_eq!(all, 4);
        assert!(full.item() > nll.item());
    }

    #[test]
    fn log_prob_is_causally_consistent() {
        // P(seq) = P(prefix) * P(suffix | prefix) in log space.
        let m = lm();
        let seq = [5usize, 6, 7, 8];
        let full = m.log_prob(&seq, 0);
        let prefix = m.log_prob(&seq, 2); // suffix given prefix
        let head = m.log_prob(&seq[..2], 0);
        assert!((full - (head + prefix)).abs() < 1e-3, "{full} vs {head}+{prefix}");
    }

    #[test]
    fn next_log_probs_is_masked_distribution() {
        let m = lm();
        let lp = m.next_log_probs(&[5, 6]);
        assert_eq!(lp.len(), 24);
        assert_eq!(lp[qrw_text::PAD], f32::NEG_INFINITY);
        let sum: f32 = lp.iter().filter(|v| v.is_finite()).map(|v| v.exp()).sum();
        assert!(sum > 0.5 && sum <= 1.0 + 1e-4);
    }

    #[test]
    fn sampling_stops_on_stop_token() {
        let m = lm();
        let mut rng = StdRng::seed_from_u64(1);
        let (cont, stop) = m.sample_until(&[5], &[], 5, 4, &mut rng);
        assert!(cont.len() <= 5);
        assert_eq!(stop, None);
        // With every token a stop token, stops immediately.
        let all: Vec<usize> = (0..24).collect();
        let (cont, stop) = m.sample_until(&[5], &all, 5, 4, &mut rng);
        assert!(cont.is_empty());
        assert!(stop.is_some());
    }

    #[test]
    fn sampling_degenerate_log_probs_returns_pad() {
        // Every weight NaN: every next-token log-prob is non-finite. The
        // sampler degrades to PAD at each step instead of panicking.
        let m = lm();
        for p in m.params().iter() {
            p.update(|v, _| v.fill(f32::NAN));
        }
        assert!(m.next_log_probs(&[5]).iter().all(|v| !v.is_finite()));
        let mut rng = StdRng::seed_from_u64(2);
        let (cont, stop) = m.sample_until(&[5], &[], 3, 4, &mut rng);
        assert_eq!(cont, vec![qrw_text::PAD; 3]);
        assert_eq!(stop, None);
        for lp in [vec![f32::NAN; 24], vec![f32::NEG_INFINITY; 24]] {
            assert_eq!(sample_top_n(&lp, 4, &mut rng, &mut Vec::new()), qrw_text::PAD);
        }
    }

    #[test]
    fn training_memorizes_a_pattern() {
        let m = lm();
        let seq = [5usize, 9, 5, 9, 5, 9];
        let before = m.log_prob(&seq, 0);
        let mut adam = Adam::new(AdamConfig { lr: 0.01, ..Default::default() });
        for _ in 0..40 {
            m.params().zero_grads();
            let tape = Tape::new();
            let (nll, _) = m.nll_on_tape(&tape, &seq, 0, &mut None);
            tape.backward(nll);
            adam.step(m.params());
        }
        let after = m.log_prob(&seq, 0);
        assert!(after > before + 1.0, "{before} -> {after}");
    }

    #[test]
    fn deterministic_by_seed() {
        let a = CausalLm::new(CausalLmConfig::tiny(24), 3);
        let b = CausalLm::new(CausalLmConfig::tiny(24), 3);
        assert_eq!(a.log_prob(&[5, 6], 0), b.log_prob(&[5, 6], 0));
    }
}
