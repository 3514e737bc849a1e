//! The serving runtime's per-batch decode memo, its q2q rung aliases and
//! the hash it routes on.
//!
//! Requests of one micro-batch that carry the same (context, query) share
//! one online decode through `BatchMemo`. Every request still walks the
//! whole ladder itself, under its own budget, breaker and spans; only the
//! model call is answered from the memo. Every request samples from an
//! RNG seeded by its own (context, query), so a shared answer is bit for
//! bit what the duplicate would have decoded alone, and each request's
//! response is identical to a standalone serve.

use std::cell::{Cell, RefCell};

use qrw_core::{DecodeStats, Q2QRewriter, QueryRewriter};
use qrw_nmt::{QuantStudent, Seq2Seq};
use qrw_tensor::serialize::Fnv1a;

/// FNV-1a over the query tokens, with a separator fold per token so
/// `["ab","c"]` and `["a","bc"]` hash apart.
///
/// This is the hash family the whole stack keys on — `RewriteCache`
/// shard selection, `ShardedIndex` document routing, the per-query
/// sampling seed ([`qrw_core::session_hash`] with an empty context), and
/// scheduler shard routing in [`AdmissionQueue`](crate::AdmissionQueue),
/// so identical in-flight queries always meet on one shard and coalesce
/// locally.
pub fn fnv1a_tokens(tokens: &[String]) -> u64 {
    Fnv1a::default().tokens(tokens).finish()
}

/// The f32 teacher rung under its earlier name, kept for the benchmark
/// harness.
pub type BatchedQ2Q = Q2QRewriter<Seq2Seq>;

/// The quantized student rung under its earlier name, kept for the
/// benchmark harness.
pub type StudentOnline = Q2QRewriter<QuantStudent>;

/// A per-batch memo around the online rung: the requests of one batch
/// with the same (context, query) decode once.
///
/// The runtime serves a batch's requests one after another and, before
/// each, tells the memo whether a later request of the batch shares its
/// key ([`expect_repeat`](Self::expect_repeat)). Only then does the memo
/// keep that request's rewrites, so a batch without duplicates stores
/// nothing. A call whose arguments (context, query, k) match a kept
/// entry is answered from it. A decode that panics leaves no entry: the
/// duplicate re-runs it and panics the same way, as standalone serving
/// would. `name` and `decode_stats` are the wrapped rung's, so rung
/// attribution and decode telemetry read as if each call reached the
/// model; an answered call simply decodes nothing.
pub(crate) struct BatchMemo<'a> {
    online: &'a dyn QueryRewriter,
    /// Whether the next call's rewrites are kept for a later duplicate.
    keep_next: Cell<bool>,
    entries: RefCell<Vec<Entry>>,
}

/// One kept online answer and the call arguments it answers.
struct Entry {
    context: Vec<Vec<String>>,
    query: Vec<String>,
    k: usize,
    rewrites: Vec<Vec<String>>,
}

impl<'a> BatchMemo<'a> {
    pub(crate) fn new(online: &'a dyn QueryRewriter) -> Self {
        BatchMemo { online, keep_next: Cell::new(false), entries: RefCell::new(Vec::new()) }
    }

    /// Sets whether the next call's rewrites are kept: true when a later
    /// request of the batch has the same (context, query).
    pub(crate) fn expect_repeat(&self, repeat: bool) {
        self.keep_next.set(repeat);
    }
}

impl QueryRewriter for BatchMemo<'_> {
    fn rewrite(&self, query: &[String], k: usize) -> Vec<Vec<String>> {
        self.rewrite_with_context(&[], query, k)
    }

    fn rewrite_with_context(
        &self,
        context: &[Vec<String>],
        query: &[String],
        k: usize,
    ) -> Vec<Vec<String>> {
        let keep = self.keep_next.replace(false);
        let entries = self.entries.borrow();
        if let Some(e) =
            entries.iter().find(|e| e.k == k && e.query == query && e.context == context)
        {
            return e.rewrites.clone();
        }
        drop(entries);
        let rewrites = self.online.rewrite_with_context(context, query, k);
        if keep {
            self.entries.borrow_mut().push(Entry {
                context: context.to_vec(),
                query: query.to_vec(),
                k,
                rewrites: rewrites.clone(),
            });
        }
        rewrites
    }

    fn name(&self) -> &str {
        self.online.name()
    }

    fn decode_stats(&self) -> Option<DecodeStats> {
        self.online.decode_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrw_nmt::ModelConfig;
    use qrw_text::Vocab;
    use std::sync::Arc;

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

    /// Serves `queries` through `memo` as the runtime serves a batch: in
    /// order, each after telling the memo whether a later one repeats it.
    fn serve_batch(memo: &BatchMemo<'_>, queries: &[Vec<String>]) -> Vec<Vec<Vec<String>>> {
        (0..queries.len())
            .map(|i| {
                memo.expect_repeat(queries[i + 1..].contains(&queries[i]));
                memo.rewrite(&queries[i], 3)
            })
            .collect()
    }

    fn decode_steps(rw: &dyn QueryRewriter) -> u64 {
        rw.decode_stats().unwrap().steps
    }

    #[test]
    fn batch_of_one_equals_single_rewrite() {
        let (model, vocab) = setup();
        let rw = BatchedQ2Q::new(model, vocab, 8, 7);
        let q = toks("w2 w5");
        let single = rw.rewrite(&q, 3);
        let memo = BatchMemo::new(&rw);
        assert_eq!(serve_batch(&memo, std::slice::from_ref(&q)), [single]);
        assert!(memo.entries.borrow().is_empty(), "a batch without duplicates keeps nothing");
        assert_eq!(memo.name(), rw.name());
    }

    /// Every request of a batch gets its standalone rewrites, whatever
    /// shares the batch, and each distinct query decodes once.
    #[test]
    fn batch_composition_does_not_change_results() {
        let (model, vocab) = setup();
        let rw = BatchedQ2Q::new(model, vocab, 8, 7);
        let (a, b, c) = (toks("w2 w5"), toks("w9"), toks("w1 w3 w4"));
        let (ra, rb, rc) = (rw.rewrite(&a, 3), rw.rewrite(&b, 3), rw.rewrite(&c, 3));
        let once = decode_steps(&rw);
        let batch = [a.clone(), b.clone(), a.clone(), c.clone(), a.clone()];
        let before = decode_steps(&rw);
        let memo = BatchMemo::new(&rw);
        let got = serve_batch(&memo, &batch);
        assert_eq!(got, [&ra, &rb, &ra, &rc, &ra].map(Clone::clone));
        assert_eq!(decode_steps(&rw) - before, once, "each distinct query decodes once");
        assert_eq!(memo.entries.borrow().len(), 1, "only the repeated query is kept");
        // A different batch mix still yields the same per-query output.
        let memo = BatchMemo::new(&rw);
        assert_eq!(serve_batch(&memo, &[c.clone(), c, a]), [rc.clone(), rc, ra]);
    }

    /// A kept answer is reused only for the same (context, query, k).
    #[test]
    fn kept_answers_match_context_query_and_k() {
        let (model, vocab) = setup();
        let rw = BatchedQ2Q::new(model, vocab, 8, 7);
        let (ctx, q) = (vec![toks("w1")], toks("w2 w5"));
        let memo = BatchMemo::new(&rw);
        memo.expect_repeat(true);
        assert_eq!(memo.rewrite(&q, 3), rw.rewrite(&q, 3));
        assert_eq!(memo.rewrite(&q, 2), rw.rewrite(&q, 2));
        assert_eq!(memo.rewrite_with_context(&ctx, &q, 3), rw.rewrite_with_context(&ctx, &q, 3));
        assert_eq!(memo.entries.borrow().len(), 1);
    }

    /// A panicking decode is not kept: its duplicate decodes again and
    /// panics the same way.
    #[test]
    fn a_panicking_decode_is_not_kept() {
        struct Panics(Cell<u32>);
        impl QueryRewriter for Panics {
            fn rewrite(&self, _query: &[String], _k: usize) -> Vec<Vec<String>> {
                self.0.set(self.0.get() + 1);
                panic!("decode panicked");
            }
            fn name(&self) -> &str {
                "panics"
            }
        }
        let rw = Panics(Cell::new(0));
        let memo = BatchMemo::new(&rw);
        let q = toks("w2");
        for call in 1..=2 {
            memo.expect_repeat(true);
            let served =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| memo.rewrite(&q, 3)));
            assert!(served.is_err());
            assert_eq!(rw.0.get(), call);
        }
        assert!(memo.entries.borrow().is_empty());
    }

    #[test]
    fn empty_queries_and_zero_k_yield_empty_sets() {
        let (model, vocab) = setup();
        let rw = BatchedQ2Q::new(model, vocab, 8, 7);
        let q = toks("w2");
        assert!(rw.rewrite(&[], 3).is_empty());
        assert!(rw.rewrite(&q, 0).is_empty());
        let memo = BatchMemo::new(&rw);
        let batch = [Vec::new(), q.clone(), Vec::new()];
        assert_eq!(serve_batch(&memo, &batch), [vec![], rw.rewrite(&q, 3), vec![]]);
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
        // The per-request sampling seed of a context-free request.
        assert_eq!(
            fnv1a_tokens(&toks("red shoes")),
            qrw_core::session_hash(&[], &toks("red shoes"))
        );
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
