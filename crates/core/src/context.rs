//! The q2q serving rewriter of §III-G, optionally session-conditioned.
//!
//! [`Q2QRewriter`] serves one direct query→query model — the f32
//! [`Seq2Seq`](qrw_nmt::Seq2Seq) teacher or the distilled i8
//! [`QuantStudent`](qrw_nmt::QuantStudent) — through the paper's top-n
//! sampling decoder. It is the only neural q2q rewriter: the serving
//! runtime's student and teacher rungs, the online loop's hot-swapped
//! session model and the offline examples and benches all use it.
//!
//! A session's previous queries are encoded in front of the current
//! query — each prior query's tokens followed by an `EOS` separator — so
//! a reformulation like `"running shoes" → "trail shoes"` decodes with
//! the earlier intent still in the encoder window.
//!
//! Two properties the serving tier depends on:
//!
//! * **Context-off is the plain model.** With an empty context the
//!   encoded source is exactly `vocab.encode(query)` and the seed hash is
//!   the plain FNV-1a of the query tokens, so single-shot serving is the
//!   ordinary q2q decode, nothing layered on top.
//! * **Determinism per (context, query).** Every request samples from an
//!   RNG seeded with `seed ^ session_hash(context, query)`, never from
//!   shared state, so a request draws the same samples whatever ran
//!   before it and whichever worker thread decodes it. Batching
//!   transparency, the serving runtime's per-batch decode memo and the
//!   hot-swap byte-identity replay all rest on this.

use std::sync::Arc;

use qrw_nmt::{DecodeStats, TopNDecoder, TopNSampling};
use qrw_tensor::rng::StdRng;
use qrw_tensor::serialize::Fnv1a;
use qrw_text::{Vocab, EOS};

use crate::pipeline::{hypotheses_to_rewrites, QueryRewriter};

/// FNV-1a over a session prefix and query: the per-request seed hash.
/// Token boundaries fold `0xff` and query boundaries fold `0xfe`, so
/// `["ab","c"]` / `["a","bc"]` and context-vs-query splits all hash
/// apart. With an empty context it is the plain token hash the serving
/// tier routes and caches on.
pub fn session_hash(context: &[Vec<String>], query: &[String]) -> u64 {
    Fnv1a::default().queries(context).tokens(query).finish()
}

/// Encodes a session as one source sequence: each context query's token
/// ids followed by an `EOS` separator, then the current query. An empty
/// context yields exactly `vocab.encode(query)`.
pub fn encode_session(vocab: &Vocab, context: &[Vec<String>], query: &[String]) -> Vec<usize> {
    let len = context.iter().map(|q| q.len() + 1).sum::<usize>() + query.len();
    let mut ids = Vec::with_capacity(len);
    for q in context {
        ids.extend(q.iter().map(|t| vocab.id_or_unk(t)));
        ids.push(EOS);
    }
    ids.extend(query.iter().map(|t| vocab.id_or_unk(t)));
    ids
}

/// A thread-safe q2q rewriter sharing its model and vocab read-only via
/// `Arc` (weights are never cloned per worker).
pub struct Q2QRewriter<M> {
    model: Arc<M>,
    vocab: Arc<Vocab>,
    /// Sampling pool size per step (the paper's `n`, default 40).
    top_n: usize,
    /// Base seed XORed with each request's [`session_hash`].
    seed: u64,
    name: String,
}

impl<M: TopNDecoder> Q2QRewriter<M> {
    /// A rewriter reporting its model kind's default name
    /// ([`TopNDecoder::NAME`]).
    pub fn new(model: Arc<M>, vocab: Arc<Vocab>, top_n: usize, seed: u64) -> Self {
        Q2QRewriter { model, vocab, top_n, seed, name: M::NAME.to_string() }
    }

    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    fn request_rng(&self, context: &[Vec<String>], query: &[String]) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ session_hash(context, query))
    }
}

impl<M: TopNDecoder> QueryRewriter for Q2QRewriter<M> {
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
        let mut rng = self.request_rng(context, query);
        let hyps = self.model.top_n_sampling(&ids, TopNSampling { k, n: self.top_n }, &mut rng);
        hypotheses_to_rewrites(&self.vocab, &hyps, query, k)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn decode_stats(&self) -> Option<DecodeStats> {
        Some(self.model.decode_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrw_nmt::{ModelConfig, QuantStudent, Seq2Seq};

    fn vocab() -> Arc<Vocab> {
        let mut vocab = Vocab::new();
        for i in 0..16 {
            vocab.insert(&format!("w{i}"));
        }
        Arc::new(vocab)
    }

    fn teacher() -> Arc<Seq2Seq> {
        Arc::new(Seq2Seq::new(ModelConfig::tiny_transformer(20), 41))
    }

    /// The i8 student frozen from a `tiny_transformer` teacher, as served.
    fn student() -> Arc<QuantStudent> {
        let model = Seq2Seq::new(ModelConfig::tiny_transformer(20), 43);
        Arc::new(QuantStudent::from_seq2seq(&model).unwrap())
    }

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// Runs `check` against a teacher-backed and a student-backed rewriter.
    fn for_both(check: impl Fn(&dyn QueryRewriter)) {
        check(&Q2QRewriter::new(teacher(), vocab(), 8, 7));
        check(&Q2QRewriter::new(student(), vocab(), 8, 7));
    }

    #[test]
    fn empty_context_encodes_to_the_plain_query() {
        let vocab = vocab();
        let q = toks("w2 w5 unknown");
        assert_eq!(encode_session(&vocab, &[], &q), vocab.encode(&q));
    }

    #[test]
    fn context_queries_are_prefixed_with_eos_separators() {
        let vocab = vocab();
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
        for_both(|rw| {
            let q = toks("w2 w5");
            assert_eq!(rw.rewrite(&q, 3), rw.rewrite_with_context(&[], &q, 3));
        });
    }

    /// The decode is exactly the reference composition — session
    /// encoding, the per-request seed, the model's top-n sampler and the
    /// hypothesis filter — for contexts of 0, 1 and 2 queries.
    #[test]
    fn rewrite_with_context_equals_the_reference_decode() {
        let (teacher, student, vocab) = (teacher(), student(), vocab());
        let seed = 7u64;
        let t_rw = Q2QRewriter::new(Arc::clone(&teacher), Arc::clone(&vocab), 8, seed);
        let s_rw = Q2QRewriter::new(Arc::clone(&student), Arc::clone(&vocab), 8, seed);
        let q = toks("w2 w5");
        let cfg = TopNSampling { k: 3, n: 8 };
        for ctx in [vec![], vec![toks("w1 w9")], vec![toks("w1"), toks("w3 w4")]] {
            let src = encode_session(&vocab, &ctx, &q);
            let rng = || StdRng::seed_from_u64(seed ^ session_hash(&ctx, &q));
            let t_hyps = teacher.top_n_sampling(&src, cfg, &mut rng());
            let s_hyps = student.top_n_sampling(&src, cfg, &mut rng());
            assert_eq!(
                t_rw.rewrite_with_context(&ctx, &q, 3),
                hypotheses_to_rewrites(&vocab, &t_hyps, &q, 3),
                "teacher, context of {}",
                ctx.len()
            );
            assert_eq!(
                s_rw.rewrite_with_context(&ctx, &q, 3),
                hypotheses_to_rewrites(&vocab, &s_hyps, &q, 3),
                "student, context of {}",
                ctx.len()
            );
        }
    }

    #[test]
    fn session_rewrites_are_deterministic_per_context() {
        for_both(|rw| {
            let ctx = vec![toks("w1 w9")];
            let q = toks("w2 w5");
            let a = rw.rewrite_with_context(&ctx, &q, 3);
            let plain = rw.rewrite(&q, 3);
            // Interleave unrelated decodes: no shared RNG state may leak.
            let _ = rw.rewrite(&toks("w7"), 3);
            let _ = rw.rewrite_with_context(&[toks("w3")], &toks("w7 w8"), 3);
            assert_eq!(rw.rewrite_with_context(&ctx, &q, 3), a, "{}", rw.name());
            assert_eq!(rw.rewrite(&q, 3), plain, "{}", rw.name());
        });
    }

    #[test]
    fn rewriter_excludes_original_and_dedups() {
        for_both(|rw| {
            for (ctx, q) in [(vec![], toks("w2 w6")), (vec![toks("w1")], toks("w3 w4"))] {
                let rewrites = rw.rewrite_with_context(&ctx, &q, 3);
                assert!(rewrites.len() <= 3);
                let mut sorted = rewrites.clone();
                sorted.sort();
                sorted.dedup();
                assert_eq!(sorted.len(), rewrites.len(), "{}: duplicate rewrites", rw.name());
                for r in &rewrites {
                    assert!(!r.is_empty());
                    assert_ne!(*r, q, "{}: echoed the query", rw.name());
                }
            }
            // Decode telemetry flows through the trait for serving health.
            assert!(rw.decode_stats().unwrap().tokens > 0, "{}", rw.name());
        });
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
        assert_ne!(session_hash(&[], &toks("ab c")), session_hash(&[], &toks("a bc")));
    }

    #[test]
    fn empty_query_and_zero_k_yield_empty_sets() {
        let t_rw = Q2QRewriter::new(teacher(), vocab(), 8, 7);
        let s_rw = Q2QRewriter::new(student(), vocab(), 8, 7);
        // One default name per model kind.
        assert_eq!(t_rw.name(), "q2q-direct");
        assert_eq!(s_rw.name(), "student-quantized");
        assert_eq!(t_rw.with_name("q2q-session").name(), "q2q-session");
        for_both(|rw| {
            assert!(rw.rewrite_with_context(&[], &[], 3).is_empty());
            assert!(rw.rewrite_with_context(&[toks("w1")], &[], 3).is_empty());
            assert!(rw.rewrite_with_context(&[], &toks("w2"), 0).is_empty());
        });
    }

    /// Pins the session hash: it seeds the per-request sampling RNG, so a
    /// changed bit changes every rewrite. With an empty context it equals
    /// the plain token hash.
    #[test]
    fn session_hash_golden_values() {
        assert_eq!(session_hash(&[], &toks("red shoes")), 0xDC46_F8C6_7E12_AB80);
        assert_eq!(session_hash(&[toks("w1")], &toks("q")), 0x3952_08B7_CA8C_1A44);
        assert_eq!(session_hash(&[toks("w1 w3"), toks("x")], &toks("q r")), 0x670D_4DB0_FD93_67D1);
    }
}
