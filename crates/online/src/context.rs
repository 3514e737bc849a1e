//! Session-context-conditioned q2q rewriting.
//!
//! [`ContextQ2Q`] is the online loop's serving model: the §III-G direct
//! query→query rewriter, but conditioned on the user's *previous
//! in-session queries*. The session prefix is encoded in front of the
//! current query — each prior query's tokens followed by an `EOS`
//! separator — so a reformulation like `"running shoes" → "trail shoes"`
//! decodes with the earlier intent still in the encoder window.
//!
//! Two properties the serving tier depends on:
//!
//! * **Context-off is the plain model.** With an empty context the
//!   encoded source is exactly `vocab.encode(query)` and the sampling RNG
//!   is the same pure function of the query tokens the batched rewriter
//!   uses — so single-shot serving through a `ContextQ2Q` is the ordinary
//!   q2q decode, nothing layered on top.
//! * **Determinism per (context, query).** The RNG is derived from a hash
//!   of the whole session prefix plus the query, never from shared
//!   state, so the same session always draws the same samples no matter
//!   which worker thread decodes it or what ran before. That is what
//!   makes the hot-swap byte-identity replay test possible.

use std::sync::Arc;

use qrw_core::{hypotheses_to_rewrites, QueryRewriter};
use qrw_nmt::{top_n_sampling, Seq2Seq, TopNSampling};
use qrw_tensor::rng::StdRng;
use qrw_tensor::serialize::Fnv1a;
use qrw_text::{Vocab, EOS};

/// FNV-1a over a session prefix and query. Token boundaries fold `0xff`
/// and query boundaries fold `0xfe`, so `["ab","c"]` / `["a","bc"]` and
/// context-vs-query splits all hash apart.
fn session_hash(context: &[Vec<String>], query: &[String]) -> u64 {
    Fnv1a::default().queries(context).tokens(query).finish()
}

/// Encodes a session as one source sequence: each context query's token
/// ids followed by an `EOS` separator, then the current query. An empty
/// context yields exactly `vocab.encode(query)`.
pub fn encode_session(vocab: &Vocab, context: &[Vec<String>], query: &[String]) -> Vec<usize> {
    let mut ids = Vec::new();
    for q in context {
        ids.extend(vocab.encode(q));
        ids.push(EOS);
    }
    ids.extend(vocab.encode(query));
    ids
}

/// A thread-safe, session-aware q2q rewriter sharing its model and vocab
/// read-only via `Arc` — the unit the [`ModelStore`](qrw_search::ModelStore)
/// publishes on every hot-swap.
pub struct ContextQ2Q {
    model: Arc<Seq2Seq>,
    vocab: Arc<Vocab>,
    /// Sampling pool size per step (the paper's `n`, default 40).
    top_n: usize,
    /// Base seed XORed with each session's prefix+query hash.
    seed: u64,
    name: String,
}

impl ContextQ2Q {
    pub fn new(model: Arc<Seq2Seq>, vocab: Arc<Vocab>, top_n: usize, seed: u64) -> Self {
        ContextQ2Q { model, vocab, top_n, seed, name: "q2q-session".to_string() }
    }

    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

impl QueryRewriter for ContextQ2Q {
    /// Single-shot serving: a session with no prefix.
    fn rewrite(&self, query: &[String], k: usize) -> Vec<Vec<String>> {
        self.rewrite_with_context(&[], query, k)
    }

    fn rewrite_with_context(
        &self,
        context: &[Vec<String>],
        query: &[String],
        k: usize,
    ) -> Vec<Vec<String>> {
        if query.is_empty() || k == 0 {
            return Vec::new();
        }
        let ids = encode_session(&self.vocab, context, query);
        let mut rng = StdRng::seed_from_u64(self.seed ^ session_hash(context, query));
        let hyps = top_n_sampling(&self.model, &ids, TopNSampling { k, n: self.top_n }, &mut rng);
        hypotheses_to_rewrites(&self.vocab, &hyps, query, k)
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
    use qrw_nmt::ModelConfig;

    fn setup() -> (Arc<Seq2Seq>, Arc<Vocab>) {
        let model = Arc::new(Seq2Seq::new(ModelConfig::tiny_transformer(20), 41));
        let mut vocab = Vocab::new();
        for i in 0..16 {
            vocab.insert(&format!("w{i}"));
        }
        (model, Arc::new(vocab))
    }

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn empty_context_encodes_to_the_plain_query() {
        let (_, vocab) = setup();
        let q = toks("w2 w5");
        assert_eq!(encode_session(&vocab, &[], &q), vocab.encode(&q));
    }

    #[test]
    fn context_queries_are_prefixed_with_eos_separators() {
        let (_, vocab) = setup();
        let ctx = vec![toks("w1"), toks("w3 w4")];
        let q = toks("w2");
        let mut want = vocab.encode(&toks("w1"));
        want.push(EOS);
        want.extend(vocab.encode(&toks("w3 w4")));
        want.push(EOS);
        want.extend(vocab.encode(&toks("w2")));
        assert_eq!(encode_session(&vocab, &ctx, &q), want);
    }

    #[test]
    fn rewrite_is_the_empty_context_path() {
        let (model, vocab) = setup();
        let rw = ContextQ2Q::new(model, vocab, 8, 7);
        let q = toks("w2 w5");
        assert_eq!(rw.rewrite(&q, 3), rw.rewrite_with_context(&[], &q, 3));
    }

    #[test]
    fn session_rewrites_are_deterministic_per_context() {
        let (model, vocab) = setup();
        let rw = ContextQ2Q::new(model, vocab, 8, 7);
        let ctx = vec![toks("w1 w9")];
        let q = toks("w2 w5");
        let a = rw.rewrite_with_context(&ctx, &q, 3);
        // Interleave an unrelated decode: no shared RNG state may leak.
        let _ = rw.rewrite(&toks("w7"), 3);
        assert_eq!(rw.rewrite_with_context(&ctx, &q, 3), a);
        // Rewrites never echo specials or the query itself.
        for r in &a {
            assert!(!r.is_empty());
            assert_ne!(*r, q);
        }
    }

    #[test]
    fn context_conditions_the_decode() {
        let q = toks("w2 w5");
        // The hash (hence the draw sequence) must differ with context;
        // with a longer encoder window the sampled rewrites almost
        // always differ too, but the pinned guarantee is the seed split.
        assert_ne!(session_hash(&[], &q), session_hash(&[toks("w1")], &q));
        assert_ne!(
            session_hash(&[toks("w1"), toks("w3")], &q),
            session_hash(&[toks("w1 w3")], &q),
            "query boundaries in the context must hash apart"
        );
    }

    #[test]
    fn empty_query_and_zero_k_yield_empty_sets() {
        let (model, vocab) = setup();
        let rw = ContextQ2Q::new(model, vocab, 8, 7);
        assert!(rw.rewrite_with_context(&[], &[], 3).is_empty());
        assert!(rw.rewrite_with_context(&[], &toks("w2"), 0).is_empty());
        assert_eq!(rw.name(), "q2q-session");
        assert!(rw.decode_stats().is_some());
    }

    /// Pins the session hash: it seeds the per-request sampling RNG, so a
    /// changed bit changes every session rewrite. With an empty context it
    /// equals the plain token hash.
    #[test]
    fn session_hash_golden_values() {
        assert_eq!(session_hash(&[], &toks("red shoes")), 0xDC46_F8C6_7E12_AB80);
        assert_eq!(session_hash(&[toks("w1")], &toks("q")), 0x3952_08B7_CA8C_1A44);
        assert_eq!(
            session_hash(&[toks("w1 w3"), toks("x")], &toks("q r")),
            0x670D_4DB0_FD93_67D1
        );
    }
}
