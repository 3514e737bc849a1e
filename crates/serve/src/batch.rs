//! Cross-request micro-batched q2q rewriting.
//!
//! [`BatchedQ2Q`] is the runtime's online rung: the direct query→query
//! model of §III-G, decoded with the paper's top-n sampling decoder — but
//! over *many independent requests at once*. All live candidates of all
//! requests advance through one stacked
//! [`next_log_probs_multi`](Seq2Seq::next_log_probs_multi) forward per
//! step, so a batch of N cache-miss requests costs one model call per
//! decode step instead of N.
//!
//! Unlike [`Q2QRewriter`](qrw_core::Q2QRewriter), which draws from one
//! shared `RefCell` RNG (fine on a single thread, but it makes results
//! depend on request *order*), this rewriter derives an RNG per request
//! from the query tokens themselves. That is what makes batching
//! transparent: the same query always consumes the same draw sequence, no
//! matter which requests share its batch or which worker decodes it.

use std::sync::Arc;

use qrw_core::QueryRewriter;
use qrw_nmt::{top_n_sampling_batch, Hypothesis, QuantStudent, Seq2Seq, TopNSampling};
use qrw_tensor::rng::StdRng;
use qrw_tensor::serialize::Fnv1a;
use qrw_text::{Vocab, NUM_SPECIALS};

/// FNV-1a over the query tokens, with a separator fold per token so
/// `["ab","c"]` and `["a","bc"]` hash apart.
///
/// This is the hash family the whole stack keys on — `RewriteCache`
/// shard selection, `ShardedIndex` document routing, the per-query
/// sampling RNG below, and (since the mailbox refactor) scheduler shard
/// routing in [`AdmissionQueue`](crate::AdmissionQueue), so identical
/// in-flight queries always meet on one shard and coalesce locally.
pub fn fnv1a_tokens(tokens: &[String]) -> u64 {
    Fnv1a::default().tokens(tokens).finish()
}

/// A thread-safe, batch-capable q2q rewriter sharing its model and vocab
/// read-only via `Arc` (weights are never cloned per worker).
pub struct BatchedQ2Q {
    model: Arc<Seq2Seq>,
    vocab: Arc<Vocab>,
    /// Sampling pool size per step (the paper's `n`, default 40).
    top_n: usize,
    /// Base seed XORed with each query's token hash.
    seed: u64,
    name: String,
}

impl BatchedQ2Q {
    pub fn new(model: Arc<Seq2Seq>, vocab: Arc<Vocab>, top_n: usize, seed: u64) -> Self {
        BatchedQ2Q { model, vocab, top_n, seed, name: "q2q-batched".to_string() }
    }

    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The shared model (for decode-telemetry snapshots).
    pub fn model(&self) -> &Seq2Seq {
        &self.model
    }

    /// The per-request sampling RNG: a pure function of the query, so a
    /// request's draws are identical whether it is decoded alone or in any
    /// batch.
    fn request_rng(&self, query: &[String]) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ fnv1a_tokens(query))
    }

    /// Rewrites every query in one micro-batched decode: one stacked
    /// forward per step across all queries' live candidates. Returns one
    /// rewrite set per query, in order; empty queries (or `k == 0`) yield
    /// empty sets without touching the model.
    pub fn rewrite_batch(&self, queries: &[&[String]], k: usize) -> Vec<Vec<Vec<String>>> {
        let mut out: Vec<Vec<Vec<String>>> = vec![Vec::new(); queries.len()];
        if k == 0 {
            return out;
        }
        let mut idxs: Vec<usize> = Vec::new();
        let mut ids: Vec<Vec<usize>> = Vec::new();
        let mut rngs: Vec<StdRng> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            if q.is_empty() {
                continue;
            }
            idxs.push(i);
            ids.push(self.vocab.encode(q));
            rngs.push(self.request_rng(q));
        }
        if idxs.is_empty() {
            return out;
        }
        let srcs: Vec<&[usize]> = ids.iter().map(Vec::as_slice).collect();
        let cfg = TopNSampling { k, n: self.top_n };
        let hyp_sets = top_n_sampling_batch(&self.model, &srcs, cfg, &mut rngs);
        for (&i, hyps) in idxs.iter().zip(&hyp_sets) {
            out[i] = self.postprocess(hyps, queries[i], k);
        }
        out
    }

    /// Hypotheses → token rewrites, mirroring `Q2QRewriter::rewrite`
    /// exactly: strip specials, drop empty / identity / duplicate
    /// rewrites, cap at `k`.
    fn postprocess(&self, hyps: &[Hypothesis], query: &[String], k: usize) -> Vec<Vec<String>> {
        let mut out: Vec<Vec<String>> = Vec::new();
        for h in hyps {
            let tokens: Vec<String> = h
                .tokens
                .iter()
                .filter(|&&id| id >= NUM_SPECIALS)
                .map(|&id| self.vocab.token(id).to_string())
                .collect();
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
}

impl QueryRewriter for BatchedQ2Q {
    /// A single request is just a batch of one — same code path, same
    /// per-query RNG, hence the same result the batched path produces.
    fn rewrite(&self, query: &[String], k: usize) -> Vec<Vec<String>> {
        self.rewrite_batch(&[query], k).pop().expect("one query in, one set out")
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn decode_stats(&self) -> Option<qrw_nmt::DecodeStats> {
        Some(self.model.decode_stats())
    }
}

/// The quantized-student serving rung: thread-safe like [`BatchedQ2Q`]
/// (per-query RNG derived from the query tokens, shared weights behind
/// `Arc`s), but decoding one request at a time — the student's integer
/// microkernels are fast enough that cross-request batching buys nothing
/// at serving batch sizes.
pub struct StudentOnline {
    student: Arc<QuantStudent>,
    vocab: Arc<Vocab>,
    /// Sampling pool size per step (the paper's `n`).
    top_n: usize,
    /// Base seed XORed with each query's token hash.
    seed: u64,
    name: String,
}

impl StudentOnline {
    pub fn new(student: Arc<QuantStudent>, vocab: Arc<Vocab>, top_n: usize, seed: u64) -> Self {
        StudentOnline { student, vocab, top_n, seed, name: "student-quantized".to_string() }
    }

    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The shared quantized model (for decode-telemetry snapshots).
    pub fn student(&self) -> &QuantStudent {
        &self.student
    }
}

impl QueryRewriter for StudentOnline {
    fn rewrite(&self, query: &[String], k: usize) -> Vec<Vec<String>> {
        if query.is_empty() || k == 0 {
            return Vec::new();
        }
        let ids = self.vocab.encode(query);
        let mut rng = StdRng::seed_from_u64(self.seed ^ fnv1a_tokens(query));
        let hyps =
            self.student.top_n_sampling(&ids, TopNSampling { k, n: self.top_n }, &mut rng);
        let mut out: Vec<Vec<String>> = Vec::new();
        for h in &hyps {
            let tokens: Vec<String> = h
                .tokens
                .iter()
                .filter(|&&id| id >= NUM_SPECIALS)
                .map(|&id| self.vocab.token(id).to_string())
                .collect();
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

    fn name(&self) -> &str {
        &self.name
    }

    fn decode_stats(&self) -> Option<qrw_nmt::DecodeStats> {
        Some(self.student.decode_stats())
    }
}

/// The online rung handed to `search_resilient` for a request whose
/// rewrites were already produced by the batch decode: replays the
/// precomputed output under the batched rewriter's name, so the response
/// (including rung attribution and degradation events) is identical to a
/// standalone serve that ran the model inline.
pub(crate) struct PrecomputedOnline {
    name: String,
    rewrites: Vec<Vec<String>>,
}

impl PrecomputedOnline {
    pub(crate) fn new(name: String, rewrites: Vec<Vec<String>>) -> Self {
        PrecomputedOnline { name, rewrites }
    }
}

impl QueryRewriter for PrecomputedOnline {
    fn rewrite(&self, _query: &[String], k: usize) -> Vec<Vec<String>> {
        self.rewrites.iter().take(k).cloned().collect()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Substituted when the batch decode panicked: panics inside the ladder's
/// `catch_unwind`, producing the same `ModelPanic { rewriter }` event and
/// breaker failure a standalone serve would have recorded.
pub(crate) struct PanicOnline {
    name: String,
}

impl PanicOnline {
    pub(crate) fn new(name: String) -> Self {
        PanicOnline { name }
    }
}

impl QueryRewriter for PanicOnline {
    fn rewrite(&self, _query: &[String], _k: usize) -> Vec<Vec<String>> {
        panic!("batched decode panicked");
    }

    fn name(&self) -> &str {
        &self.name
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
    fn batch_of_one_equals_single_rewrite() {
        let (model, vocab) = setup();
        let rw = BatchedQ2Q::new(model, vocab, 8, 7);
        let q = toks("w2 w5");
        let single = rw.rewrite(&q, 3);
        let batched = rw.rewrite_batch(&[&q], 3).pop().unwrap();
        assert_eq!(single, batched);
    }

    #[test]
    fn batch_composition_does_not_change_results() {
        let (model, vocab) = setup();
        let rw = BatchedQ2Q::new(model, vocab, 8, 7);
        let a = toks("w2 w5");
        let b = toks("w9");
        let c = toks("w1 w3 w4");
        let alone: Vec<_> = [&a, &b, &c].iter().map(|q| rw.rewrite(q, 3)).collect();
        let together = rw.rewrite_batch(&[&a, &b, &c], 3);
        assert_eq!(alone, together);
        // A different batch mix still yields the same per-query output.
        let pair = rw.rewrite_batch(&[&c, &a], 3);
        assert_eq!(pair[0], alone[2]);
        assert_eq!(pair[1], alone[0]);
    }

    #[test]
    fn empty_queries_and_zero_k_yield_empty_sets() {
        let (model, vocab) = setup();
        let rw = BatchedQ2Q::new(model, vocab, 8, 7);
        let q = toks("w2");
        let empty: Vec<String> = Vec::new();
        let out = rw.rewrite_batch(&[&empty, &q], 3);
        assert!(out[0].is_empty());
        assert!(!out[1].is_empty() || out[1].is_empty()); // well-formed either way
        assert!(rw.rewrite_batch(&[&q], 0).pop().unwrap().is_empty());
    }

    #[test]
    fn student_rung_is_order_independent_and_filtered() {
        let (_, vocab) = setup();
        let model = Seq2Seq::new(ModelConfig::student(20), 43);
        let student = Arc::new(QuantStudent::from_seq2seq(&model).unwrap());
        let rw = StudentOnline::new(student, Arc::clone(&vocab), 8, 7);
        assert_eq!(rw.name(), "student-quantized");
        let a = toks("w2 w5");
        let b = toks("w9");
        // The per-query derived RNG makes results independent of call
        // order — the property batching transparency rests on.
        let a_first = rw.rewrite(&a, 3);
        let _ = rw.rewrite(&b, 3);
        assert_eq!(rw.rewrite(&a, 3), a_first);
        for r in &a_first {
            assert!(!r.is_empty());
            assert_ne!(*r, a);
        }
        // Telemetry moved through the trait.
        assert!(rw.decode_stats().unwrap().tokens > 0);
        assert!(rw.rewrite(&a, 0).is_empty());
    }

    #[test]
    fn token_hash_separates_token_boundaries() {
        assert_ne!(fnv1a_tokens(&toks("ab c")), fnv1a_tokens(&toks("a bc")));
        assert_eq!(fnv1a_tokens(&toks("a b")), fnv1a_tokens(&toks("a b")));
    }

    /// Pins the hash's output: it seeds the per-query sampling RNG and
    /// routes mailboxes, so any changed bit changes responses.
    #[test]
    fn token_hash_golden_values() {
        assert_eq!(fnv1a_tokens(&toks("")), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a_tokens(&toks("red")), 0x4CF0_E81F_BFE7_27B9);
        assert_eq!(fnv1a_tokens(&toks("red shoes")), 0xDC46_F8C6_7E12_AB80);
        assert_eq!(fnv1a_tokens(&toks("ab c")), 0x20BA_9B30_25A8_B421);
        assert_eq!(fnv1a_tokens(&toks("chaussures été")), 0xB2E1_66BD_1C01_6E33);
    }
}
