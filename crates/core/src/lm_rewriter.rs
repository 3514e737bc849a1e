//! The §V future-work approach: a single causal language model over the
//! "special language" `query <sep1> title <sep2> query2`.
//!
//! The paper: *"we can add a special token between the query and title,
//! i.e. '`query <sep1> title <sep2> query2`', and treat the whole sequence
//! as a 'special' language ... which hopefully could generate a synthetic
//! title for a given query, then generate a synthetic query from the
//! title"*. They found it did not yet beat the jointly trained NMT pair —
//! an ablation this reproduction repeats (`repro ablation-lm`).

use std::cell::RefCell;
use std::collections::HashMap;

use qrw_tensor::rng::StdRng;

use qrw_data::{ClickLog, Dataset};
use qrw_nmt::{CausalLm, CausalLmConfig};
use qrw_tensor::optim::{Adam, AdamConfig, NoamSchedule};
use qrw_tensor::Tape;
use qrw_text::{Vocab, EOS, NUM_SPECIALS};

use crate::pipeline::QueryRewriter;

/// The LM training corpus in the paper's concatenated format.
pub struct LmCorpus {
    /// The dataset vocabulary extended with the two separator tokens
    /// (existing ids are unchanged: separators are appended).
    pub vocab: Vocab,
    pub sep1: usize,
    pub sep2: usize,
    /// `(sequence, predict_from)`: loss is computed from `predict_from`
    /// on, so the model learns to continue the query prompt rather than
    /// to model the query prior.
    pub sequences: Vec<(Vec<usize>, usize)>,
}

impl LmCorpus {
    /// Builds `query <sep1> title <sep2> query2` sequences from click
    /// pairs. `query2` is a mined synonymous query when one exists
    /// (§III-G co-click mining), else the query itself (pure
    /// translate-back supervision).
    pub fn build(log: &ClickLog, dataset: &Dataset) -> Self {
        let mut vocab = dataset.vocab.clone();
        let sep1 = vocab.insert("<sep1>");
        let sep2 = vocab.insert("<sep2>");

        // Synonym lookup from the mined q2q pairs.
        let mut synonyms: HashMap<&[usize], Vec<&[usize]>> = HashMap::new();
        for pair in &dataset.q2q {
            synonyms.entry(&pair.src).or_default().push(&pair.tgt);
        }

        let mut sequences = Vec::with_capacity(dataset.q2t.len());
        for pair in &dataset.q2t {
            if pair.src.is_empty() || pair.tgt.is_empty() {
                continue;
            }
            let query2: &[usize] = synonyms
                .get(pair.src.as_slice())
                .and_then(|v| v.first().copied())
                .unwrap_or(&pair.src);
            let mut seq =
                Vec::with_capacity(pair.src.len() + pair.tgt.len() + query2.len() + 2);
            seq.extend_from_slice(&pair.src);
            seq.push(sep1);
            seq.extend_from_slice(&pair.tgt);
            seq.push(sep2);
            seq.extend_from_slice(query2);
            sequences.push((seq, pair.src.len()));
        }
        let _ = log;
        LmCorpus { vocab, sep1, sep2, sequences }
    }
}

/// LM training parameters.
#[derive(Clone, Copy, Debug)]
pub struct LmTrainConfig {
    pub steps: u64,
    pub batch_size: usize,
    pub lr_factor: f32,
    pub noam_warmup: u64,
    pub grad_clip: f32,
    pub eval_every: u64,
    pub seed: u64,
}

impl Default for LmTrainConfig {
    fn default() -> Self {
        LmTrainConfig {
            steps: 240,
            batch_size: 8,
            lr_factor: 0.6,
            noam_warmup: 48,
            grad_clip: 5.0,
            eval_every: 24,
            seed: 151,
        }
    }
}

/// A point on the LM training curve.
#[derive(Clone, Copy, Debug)]
pub struct LmPoint {
    pub step: u64,
    /// Per-token perplexity of the continuation (title + rewrite).
    pub ppl: f32,
}

/// Trains the LM on the corpus; returns the perplexity curve over
/// `eval_n` held-in sequences.
pub fn train_lm(
    lm: &CausalLm,
    corpus: &LmCorpus,
    eval_n: usize,
    config: &LmTrainConfig,
) -> Vec<LmPoint> {
    assert!(!corpus.sequences.is_empty(), "LM corpus is empty");
    let mut adam = Adam::new(AdamConfig::default());
    let schedule = NoamSchedule::new(config.lr_factor, lm.config().d_model, config.noam_warmup);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let eval: Vec<&(Vec<usize>, usize)> = corpus.sequences.iter().take(eval_n.max(1)).collect();
    let mut curve = Vec::new();

    for step in 1..=config.steps {
        lm.params().zero_grads();
        for _ in 0..config.batch_size {
            let (seq, predict_from) = &corpus.sequences[rng.gen_range(0..corpus.sequences.len())];
            let tape = Tape::new();
            let dropout = lm.config().dropout;
            let mut ctx = if dropout > 0.0 {
                Some(qrw_nmt::layers::TrainCtx { rng: &mut rng, dropout })
            } else {
                None
            };
            let (nll, _) = lm.nll_on_tape(&tape, seq, *predict_from, &mut ctx);
            tape.backward(nll);
        }
        let scale = 1.0 / config.batch_size as f32;
        for p in lm.params() {
            p.scale_grad(scale);
        }
        lm.params().clip_grad_norm(config.grad_clip);
        adam.step_with_lr(lm.params(), schedule.lr(step));

        let at_eval = config.eval_every > 0 && step.is_multiple_of(config.eval_every);
        if at_eval || step == config.steps {
            let mut nll_total = 0.0f64;
            let mut tokens = 0usize;
            for (seq, predict_from) in &eval {
                let tape = Tape::new();
                let (nll, count) = lm.nll_on_tape(&tape, seq, *predict_from, &mut None);
                nll_total += nll.item() as f64;
                tokens += count;
            }
            curve.push(LmPoint {
                step,
                ppl: ((nll_total / tokens.max(1) as f64).exp()) as f32,
            });
        }
    }
    curve
}

/// A [`QueryRewriter`] that drives the trained LM through the paper's
/// two-segment generation: sample a title until `<sep2>`, then a rewrite
/// until `<eos>`.
pub struct LmRewriter<'m> {
    lm: &'m CausalLm,
    vocab: &'m Vocab,
    sep1: usize,
    sep2: usize,
    pub top_n: usize,
    pub max_title_len: usize,
    pub max_query_len: usize,
    rng: RefCell<StdRng>,
    name: String,
}

impl<'m> LmRewriter<'m> {
    pub fn new(lm: &'m CausalLm, corpus: &'m LmCorpus, top_n: usize, seed: u64) -> Self {
        LmRewriter {
            lm,
            vocab: &corpus.vocab,
            sep1: corpus.sep1,
            sep2: corpus.sep2,
            top_n,
            max_title_len: 16,
            max_query_len: 8,
            rng: RefCell::new(StdRng::seed_from_u64(seed)),
            name: "gpt-style-lm".to_string(),
        }
    }

    /// One full generation attempt: `(title_ids, rewrite_ids)`.
    pub fn generate_once(&self, query_ids: &[usize], rng: &mut StdRng) -> Option<(Vec<usize>, Vec<usize>)> {
        let mut prefix = query_ids.to_vec();
        prefix.push(self.sep1);
        let (title, stop) =
            self.lm
                .sample_until(&prefix, &[self.sep2, EOS], self.max_title_len, self.top_n, rng);
        if stop != Some(self.sep2) || title.is_empty() {
            return None;
        }
        prefix.extend_from_slice(&title);
        prefix.push(self.sep2);
        let (rewrite, _stop) =
            self.lm
                .sample_until(&prefix, &[EOS, self.sep1], self.max_query_len, self.top_n, rng);
        if rewrite.is_empty() {
            return None;
        }
        Some((title, rewrite))
    }
}

impl QueryRewriter for LmRewriter<'_> {
    fn rewrite(&self, query: &[String], k: usize) -> Vec<Vec<String>> {
        if query.is_empty() || k == 0 {
            return Vec::new();
        }
        let query_ids = self.vocab.encode(query);
        let rng = &mut *self.rng.borrow_mut();
        let mut out: Vec<Vec<String>> = Vec::new();
        // A few extra attempts compensate for failed generations.
        for _ in 0..k * 3 {
            if out.len() == k {
                break;
            }
            let Some((_title, rewrite)) = self.generate_once(&query_ids, rng) else {
                continue;
            };
            let tokens: Vec<String> = rewrite
                .iter()
                .filter(|&&id| id >= NUM_SPECIALS && id != self.sep1 && id != self.sep2)
                .map(|&id| self.vocab.token(id).to_string())
                .collect();
            if tokens.is_empty() || tokens == query || out.contains(&tokens) {
                continue;
            }
            out.push(tokens);
        }
        out
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Builds the LM at the reproduction scale for a corpus.
pub fn make_lm(corpus: &LmCorpus, seed: u64) -> CausalLm {
    CausalLm::new(CausalLmConfig::small(corpus.vocab.len()), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrw_data::{DatasetConfig, LogConfig};

    fn corpus() -> (ClickLog, Dataset, LmCorpus) {
        let log = ClickLog::generate(&LogConfig::tiny());
        let dataset = Dataset::build(&log, &DatasetConfig::default());
        let corpus = LmCorpus::build(&log, &dataset);
        (log, dataset, corpus)
    }

    #[test]
    fn corpus_sequences_have_both_separators_in_order() {
        let (_log, _ds, corpus) = corpus();
        assert!(!corpus.sequences.is_empty());
        for (seq, predict_from) in &corpus.sequences {
            let p1 = seq.iter().position(|&t| t == corpus.sep1).expect("sep1 present");
            let p2 = seq.iter().position(|&t| t == corpus.sep2).expect("sep2 present");
            assert!(p1 < p2, "sep1 must precede sep2");
            assert_eq!(p1, *predict_from, "loss starts at sep1");
            assert!(p2 + 1 < seq.len(), "a rewrite segment follows sep2");
        }
    }

    #[test]
    fn separator_ids_extend_the_vocab_without_shifting() {
        let (_log, ds, corpus) = corpus();
        assert_eq!(corpus.vocab.len(), ds.vocab.len() + 2);
        // Existing ids are stable.
        for (id, token) in ds.vocab.iter() {
            assert_eq!(corpus.vocab.token(id), token);
        }
    }

    #[test]
    fn lm_training_reduces_continuation_perplexity() {
        let (_log, _ds, corpus) = corpus();
        let lm = CausalLm::new(CausalLmConfig::tiny(corpus.vocab.len()), 5);
        let cfg = LmTrainConfig { steps: 40, batch_size: 4, eval_every: 20, ..Default::default() };
        let curve = train_lm(&lm, &corpus, 4, &cfg);
        assert!(curve.len() >= 2);
        let first = curve.first().unwrap().ppl;
        let last = curve.last().unwrap().ppl;
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    fn rewriter_contract_holds_even_untrained() {
        let (log, _ds, corpus) = corpus();
        let lm = CausalLm::new(CausalLmConfig::tiny(corpus.vocab.len()), 6);
        let rw = LmRewriter::new(&lm, &corpus, 6, 7);
        let query = log.queries[0].tokens.clone();
        let rewrites = rw.rewrite(&query, 2);
        assert!(rewrites.len() <= 2);
        for r in &rewrites {
            assert_ne!(*r, query);
            assert!(!r.is_empty());
            // No separator text leaks into rewrites.
            assert!(r.iter().all(|t| t != "<sep1>" && t != "<sep2>"));
        }
        assert_eq!(rw.name(), "gpt-style-lm");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let (log, _ds, corpus) = corpus();
        let lm = CausalLm::new(CausalLmConfig::tiny(corpus.vocab.len()), 6);
        let a = LmRewriter::new(&lm, &corpus, 6, 9).rewrite(&log.queries[0].tokens, 2);
        let b = LmRewriter::new(&lm, &corpus, 6, 9).rewrite(&log.queries[0].tokens, 2);
        assert_eq!(a, b);
    }
}
