//! The two-stage inference pipeline of §III-E (Figure 3).
//!
//! Given a query `x`: sample `k` synthetic titles `ŷ_t ~ P(·|x; θ_f)` with
//! the top-n sampling decoder, sample `k` synthetic queries from each title
//! with the backward model (a candidate pool of up to `k²`), then rank
//! every candidate `x'` by the marginalized translate-back probability
//!
//! ```text
//! P(x' | x) = Σ_t P(ŷ_t | x; θ_f) · P(x' | ŷ_t; θ_b)
//! ```
//!
//! computed in log space with log-sum-exp. The original query itself is
//! excluded (`x' ≠ x`).

use std::cell::RefCell;

use qrw_tensor::rng::StdRng;

use qrw_nmt::{top_n_sampling, DecodeStats, Hypothesis, TopNSampling};
use qrw_text::Vocab;

use crate::cyclic::JointModel;

/// Any system that rewrites a tokenized query into up to `k` alternatives.
///
/// Implemented by the neural pipeline, the direct q2q serving model and
/// the rule-based baseline, so evaluation harnesses treat them uniformly.
pub trait QueryRewriter {
    /// Up to `k` rewrites (token sequences), best first. Never includes
    /// the original query itself.
    fn rewrite(&self, query: &[String], k: usize) -> Vec<Vec<String>>;

    /// Up to `k` rewrites conditioned on the user's previous in-session
    /// queries (oldest first). The default ignores the context and
    /// delegates to [`rewrite`](Self::rewrite), so every existing rewriter
    /// is trivially context-capable and the context-off serving path is
    /// byte-identical to single-shot serving. Session-aware models (the
    /// online crate's context-prefix q2q) override this.
    fn rewrite_with_context(
        &self,
        context: &[Vec<String>],
        query: &[String],
        k: usize,
    ) -> Vec<Vec<String>> {
        let _ = context;
        self.rewrite(query, k)
    }

    /// Human-readable name for report tables.
    fn name(&self) -> &str;

    /// Cumulative decode telemetry of the underlying model(s), if this
    /// rewriter decodes neurally. `Some` marks a neural rewriter: the
    /// serving ladder then diffs the calling thread's counters
    /// ([`thread_decode_stats`](crate::thread_decode_stats)) around the
    /// call, which stays exact while other threads decode the same model.
    fn decode_stats(&self) -> Option<DecodeStats> {
        None
    }
}

/// A ranked rewrite with its provenance.
#[derive(Clone, Debug)]
pub struct ScoredRewrite {
    pub ids: Vec<usize>,
    pub tokens: Vec<String>,
    /// `log P(x'|x)` marginalized over the sampled titles.
    pub log_prob: f32,
    /// The synthetic title contributing the largest share of the score
    /// (the middle column of Tables III/IV).
    pub via_title: Vec<String>,
}

/// The neural rewrite pipeline over a trained [`JointModel`].
pub struct RewritePipeline<'m> {
    model: &'m JointModel,
    vocab: &'m Vocab,
    /// Candidates per stage (`k`; paper: 3).
    pub k: usize,
    /// Sampling pool (`n`; paper: 40).
    pub top_n: usize,
    rng: RefCell<StdRng>,
    name: String,
}

impl<'m> RewritePipeline<'m> {
    pub fn new(model: &'m JointModel, vocab: &'m Vocab, k: usize, top_n: usize, seed: u64) -> Self {
        assert!(k > 0, "k must be positive");
        RewritePipeline {
            model,
            vocab,
            k,
            top_n,
            rng: RefCell::new(StdRng::seed_from_u64(seed)),
            name: "neural-pipeline".to_string(),
        }
    }

    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Full pipeline on raw token ids. Returns up to `k` rewrites sorted
    /// by descending marginal probability.
    pub fn rewrite_ids(&self, query: &[usize]) -> Vec<ScoredRewrite> {
        if query.is_empty() {
            return Vec::new();
        }
        let rng = &mut *self.rng.borrow_mut();
        let sampling = TopNSampling { k: self.k, n: self.top_n };

        // Stage 1: k synthetic titles with forward-model scores.
        let titles: Vec<(Vec<usize>, f32)> = top_n_sampling(&self.model.forward, query, sampling, rng)
            .into_iter()
            .filter(|h| !h.tokens.is_empty())
            .map(|h| (h.tokens, h.log_prob))
            .collect();
        if titles.is_empty() {
            return Vec::new();
        }

        // Stage 2: k synthetic queries per title -> up to k^2 candidates.
        let mut candidates: Vec<Vec<usize>> = Vec::new();
        for (title, _) in &titles {
            for hyp in top_n_sampling(&self.model.backward, title, sampling, rng) {
                if hyp.tokens.is_empty() || hyp.tokens == query {
                    continue;
                }
                if !candidates.contains(&hyp.tokens) {
                    candidates.push(hyp.tokens);
                }
            }
        }

        // Stage 3: marginalized rescoring over all sampled titles.
        let mut scored: Vec<ScoredRewrite> = candidates
            .into_iter()
            .map(|cand| {
                let paths: Vec<f32> = titles
                    .iter()
                    .map(|(title, lf)| lf + self.model.backward.log_prob(title, &cand))
                    .collect();
                let log_prob = qrw_tensor::log_sum_exp(&paths);
                let best_title = paths
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| titles[i].0.clone())
                    .unwrap_or_default();
                ScoredRewrite {
                    tokens: ids_to_tokens(self.vocab, &cand),
                    via_title: ids_to_tokens(self.vocab, &best_title),
                    ids: cand,
                    log_prob,
                }
            })
            .collect();
        scored.sort_by(|a, b| b.log_prob.total_cmp(&a.log_prob));
        scored.truncate(self.k);
        scored
    }
}

fn ids_to_tokens(vocab: &Vocab, ids: &[usize]) -> Vec<String> {
    ids.iter()
        .filter(|&&id| id >= qrw_text::NUM_SPECIALS)
        .map(|&id| vocab.token(id).to_string())
        .collect()
}

/// Decoded hypotheses → token rewrites, the post-processing every
/// sampling rewriter shares: strip specials, drop empty, identity and
/// duplicate rewrites, keep the first `k` in hypothesis order.
pub fn hypotheses_to_rewrites(
    vocab: &Vocab,
    hyps: &[Hypothesis],
    query: &[String],
    k: usize,
) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = Vec::new();
    for h in hyps {
        let tokens = ids_to_tokens(vocab, &h.tokens);
        if tokens.is_empty() || tokens == query || out.contains(&tokens) {
            continue;
        }
        out.push(tokens);
        if out.len() == k {
            break;
        }
    }
    out
}

impl QueryRewriter for RewritePipeline<'_> {
    fn rewrite(&self, query: &[String], k: usize) -> Vec<Vec<String>> {
        let ids = self.vocab.encode(query);
        self.rewrite_ids(&ids)
            .into_iter()
            .take(k)
            .map(|r| r.tokens)
            .filter(|t| t != query)
            .collect()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn decode_stats(&self) -> Option<DecodeStats> {
        let f = self.model.forward.decode_stats();
        let b = self.model.backward.decode_stats();
        Some(DecodeStats {
            steps: f.steps + b.steps,
            tokens: f.tokens + b.tokens,
            cache_hits: f.cache_hits + b.cache_hits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrw_nmt::{ModelConfig, Seq2Seq};
    use qrw_text::Vocab;

    fn vocab() -> Vocab {
        let mut v = Vocab::new();
        for i in 0..20 {
            v.insert(&format!("w{i}"));
        }
        v
    }

    fn joint() -> JointModel {
        let cfg = ModelConfig::tiny_transformer(24);
        JointModel::new(Seq2Seq::new(cfg.clone(), 11), Seq2Seq::new(cfg, 12))
    }

    #[test]
    fn rewrites_exclude_original_and_are_sorted() {
        let v = vocab();
        let m = joint();
        let p = RewritePipeline::new(&m, &v, 3, 6, 1);
        let query = vec![5usize, 6];
        let rewrites = p.rewrite_ids(&query);
        assert!(rewrites.len() <= 3);
        for r in &rewrites {
            assert_ne!(r.ids, query);
            assert!(r.log_prob.is_finite());
        }
        for w in rewrites.windows(2) {
            assert!(w[0].log_prob >= w[1].log_prob);
        }
    }

    #[test]
    fn rewrites_are_deduplicated() {
        let v = vocab();
        let m = joint();
        let p = RewritePipeline::new(&m, &v, 3, 6, 2);
        let rewrites = p.rewrite_ids(&[5, 6, 7]);
        let mut ids: Vec<&Vec<usize>> = rewrites.iter().map(|r| &r.ids).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(before, ids.len());
    }

    #[test]
    fn via_title_is_one_of_the_sampled_titles() {
        let v = vocab();
        let m = joint();
        let p = RewritePipeline::new(&m, &v, 2, 6, 3);
        for r in p.rewrite_ids(&[5, 6]) {
            assert!(!r.via_title.is_empty());
        }
    }

    #[test]
    fn trait_interface_roundtrips_tokens() {
        let v = vocab();
        let m = joint();
        let p = RewritePipeline::new(&m, &v, 2, 6, 4);
        let query: Vec<String> = vec!["w3".into(), "w4".into()];
        for rw in p.rewrite(&query, 2) {
            assert!(!rw.is_empty());
            assert_ne!(rw, query);
            // Every token decodes through the same vocab.
            for t in &rw {
                assert!(v.id(t).is_some());
            }
        }
        assert_eq!(p.name(), "neural-pipeline");
    }

    #[test]
    fn hypotheses_become_filtered_capped_rewrites() {
        let v = vocab();
        let id = |t: &str| v.id(t).unwrap();
        let hyp = |tokens: Vec<usize>| Hypothesis { tokens, log_prob: 0.0 };
        let query: Vec<String> = vec!["w1".into(), "w2".into()];
        let hyps = [
            hyp(vec![qrw_text::EOS]), // only specials: empty
            hyp(vec![id("w1"), id("w2"), qrw_text::EOS]), // identity once stripped
            hyp(vec![id("w3"), qrw_text::EOS]), // kept
            hyp(vec![id("w3")]), // duplicate
            hyp(vec![id("w4"), id("w5")]), // kept, reaches k
            hyp(vec![id("w6")]), // past the cap
        ];
        let want: Vec<Vec<String>> = vec![vec!["w3".into()], vec!["w4".into(), "w5".into()]];
        assert_eq!(hypotheses_to_rewrites(&v, &hyps, &query, 2), want);
        assert_eq!(hypotheses_to_rewrites(&v, &hyps, &query, 8).len(), 3);
    }

    #[test]
    fn empty_query_yields_nothing() {
        let v = vocab();
        let m = joint();
        let p = RewritePipeline::new(&m, &v, 2, 6, 5);
        assert!(p.rewrite_ids(&[]).is_empty());
    }
}
