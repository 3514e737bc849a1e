//! The direct query→query serving model of §III-G.
//!
//! For online latency the paper distills the two-hop pipeline into a single
//! translation model trained on synonymous query pairs (queries sharing
//! clicks on the same items), and further swaps the transformer decoder for
//! an RNN decoder while keeping the transformer encoder (the "hybrid"
//! model of Figure 9; Table V motivates the swap).

use std::cell::RefCell;

use qrw_tensor::rng::StdRng;

use qrw_data::Pair;
use qrw_nmt::{top_n_sampling, Seq2Seq, TopNSampling};
use qrw_tensor::optim::{Adam, AdamConfig, NoamSchedule};
use qrw_tensor::Tape;
use qrw_text::Vocab;

use crate::pipeline::{hypotheses_to_rewrites, QueryRewriter};

/// A point on a q2q training curve (Figure 9 metrics).
#[derive(Clone, Copy, Debug)]
pub struct Q2QPoint {
    pub step: u64,
    /// Per-token perplexity on eval pairs.
    pub ppl: f32,
    /// Teacher-forced next-token accuracy on eval pairs.
    pub accuracy: f32,
    /// Mean `log P(tgt|src)` on eval pairs.
    pub log_prob: f32,
}

/// Q2Q training parameters.
#[derive(Clone, Copy, Debug)]
pub struct Q2QTrainConfig {
    pub steps: u64,
    pub batch_size: usize,
    pub lr_factor: f32,
    pub noam_warmup: u64,
    pub grad_clip: f32,
    pub eval_every: u64,
    pub seed: u64,
}

impl Default for Q2QTrainConfig {
    fn default() -> Self {
        Q2QTrainConfig {
            steps: 200,
            batch_size: 8,
            lr_factor: 0.6,
            noam_warmup: 40,
            grad_clip: 5.0,
            eval_every: 20,
            seed: 131,
        }
    }
}

/// Trains a single translation model on synonymous query pairs; returns
/// the metric curve.
pub fn train_q2q(
    model: &Seq2Seq,
    data: &[Pair],
    eval: &[Pair],
    config: &Q2QTrainConfig,
) -> Vec<Q2QPoint> {
    assert!(!data.is_empty(), "q2q training data must be non-empty");
    let mut adam = Adam::new(AdamConfig::default());
    let schedule = NoamSchedule::new(config.lr_factor, model.config().d_model, config.noam_warmup);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut curve = Vec::new();

    for step in 1..=config.steps {
        model.params().zero_grads();
        for _ in 0..config.batch_size {
            let pair = &data[rng.gen_range(0..data.len())];
            if pair.src.is_empty() || pair.tgt.is_empty() {
                continue;
            }
            let tape = Tape::new();
            let dropout = model.config().dropout;
            let mut ctx = if dropout > 0.0 {
                Some(qrw_nmt::layers::TrainCtx { rng: &mut rng, dropout })
            } else {
                None
            };
            let (nll, _) = model.nll_on_tape(&tape, &pair.src, &pair.tgt, &mut ctx);
            tape.backward(nll);
        }
        let scale = 1.0 / config.batch_size as f32;
        for p in model.params() {
            p.scale_grad(scale);
        }
        model.params().clip_grad_norm(config.grad_clip);
        adam.step_with_lr(model.params(), schedule.lr(step));

        let at_eval = config.eval_every > 0 && step % config.eval_every == 0;
        if at_eval || step == config.steps {
            curve.push(evaluate_q2q(model, eval, step));
        }
    }
    curve
}

/// Computes the Figure 9 metrics for a q2q model on eval pairs.
pub fn evaluate_q2q(model: &Seq2Seq, eval: &[Pair], step: u64) -> Q2QPoint {
    let mut nll_total = 0.0f64;
    let mut tokens = 0usize;
    let mut correct = 0usize;
    let mut lp_total = 0.0f64;
    let mut n = 0usize;
    for pair in eval {
        if pair.src.is_empty() || pair.tgt.is_empty() {
            continue;
        }
        let tape = Tape::new();
        let (nll, count) = model.nll_on_tape(&tape, &pair.src, &pair.tgt, &mut None);
        nll_total += nll.item() as f64;
        tokens += count;
        lp_total += -nll.item() as f64;
        n += 1;
        // Teacher-forced argmax accuracy.
        let memory = model.encode(&pair.src);
        let mut state = model.start_state(&memory);
        let mut prefix = vec![qrw_text::BOS];
        for &tok in pair.tgt.iter().chain(std::iter::once(&qrw_text::EOS)) {
            let lps = model.next_log_probs(&memory, &mut state, &prefix);
            let argmax = lps
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            if argmax == tok {
                correct += 1;
            }
            prefix.push(tok);
        }
    }
    Q2QPoint {
        step,
        ppl: ((nll_total / tokens.max(1) as f64).exp()) as f32,
        accuracy: correct as f32 / tokens.max(1) as f32,
        log_prob: (lp_total / n.max(1) as f64) as f32,
    }
}

/// A [`QueryRewriter`] over a trained q2q model (the online serving path
/// for long-tail queries).
pub struct Q2QRewriter<'m> {
    model: &'m Seq2Seq,
    vocab: &'m Vocab,
    pub top_n: usize,
    rng: RefCell<StdRng>,
    name: String,
}

impl<'m> Q2QRewriter<'m> {
    pub fn new(model: &'m Seq2Seq, vocab: &'m Vocab, top_n: usize, seed: u64) -> Self {
        Q2QRewriter {
            model,
            vocab,
            top_n,
            rng: RefCell::new(StdRng::seed_from_u64(seed)),
            name: "q2q-direct".to_string(),
        }
    }

    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

impl QueryRewriter for Q2QRewriter<'_> {
    fn rewrite(&self, query: &[String], k: usize) -> Vec<Vec<String>> {
        if query.is_empty() || k == 0 {
            return Vec::new();
        }
        let ids = self.vocab.encode(query);
        let rng = &mut *self.rng.borrow_mut();
        let hyps = top_n_sampling(self.model, &ids, TopNSampling { k, n: self.top_n }, rng);
        hypotheses_to_rewrites(self.vocab, &hyps, query, k)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn decode_stats(&self) -> Option<qrw_nmt::DecodeStats> {
        Some(self.model.decode_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrw_nmt::{ComponentKind, ModelConfig};

    fn toy_pairs() -> Vec<Pair> {
        let mut pairs = Vec::new();
        for a in 4..9usize {
            pairs.push(Pair { src: vec![a, 10], tgt: vec![a, 11], weight: 2 });
            pairs.push(Pair { src: vec![a, 11], tgt: vec![a, 10], weight: 2 });
        }
        pairs
    }

    #[test]
    fn q2q_training_reduces_perplexity() {
        let model = Seq2Seq::new(ModelConfig::tiny_transformer(16), 21);
        let data = toy_pairs();
        let cfg = Q2QTrainConfig { steps: 50, batch_size: 4, eval_every: 0, ..Default::default() };
        let before = evaluate_q2q(&model, &data, 0);
        let curve = train_q2q(&model, &data, &data, &cfg);
        let after = curve.last().unwrap();
        assert!(after.ppl < before.ppl, "{} -> {}", before.ppl, after.ppl);
        assert!(after.accuracy >= before.accuracy);
    }

    #[test]
    fn hybrid_config_trains_too() {
        let mut cfg = ModelConfig::tiny_transformer(16);
        cfg.dec_kind = ComponentKind::Rnn;
        let model = Seq2Seq::new(cfg, 22);
        let data = toy_pairs();
        let tc = Q2QTrainConfig { steps: 30, batch_size: 4, eval_every: 0, ..Default::default() };
        let curve = train_q2q(&model, &data, &data[..4], &tc);
        assert!(!curve.is_empty());
        assert!(curve.last().unwrap().ppl.is_finite());
    }

    #[test]
    fn rewriter_excludes_original_and_dedups() {
        let model = Seq2Seq::new(ModelConfig::tiny_transformer(16), 23);
        let mut vocab = Vocab::new();
        for i in 0..12 {
            vocab.insert(&format!("t{i}"));
        }
        let rw = Q2QRewriter::new(&model, &vocab, 6, 7);
        let query: Vec<String> = vec!["t2".into(), "t6".into()];
        let rewrites = rw.rewrite(&query, 3);
        assert!(rewrites.len() <= 3);
        let mut sorted = rewrites.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), rewrites.len());
        assert!(rewrites.iter().all(|r| *r != query));
    }

    #[test]
    fn evaluate_handles_empty_eval() {
        let model = Seq2Seq::new(ModelConfig::tiny_transformer(16), 24);
        let p = evaluate_q2q(&model, &[], 0);
        assert_eq!(p.accuracy, 0.0);
    }
}
