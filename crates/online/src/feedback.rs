//! Click feedback: the deterministic user model driven over *served*
//! responses, harvesting training pairs for the online loop.
//!
//! The A/B simulator (Table VIII) replays a cascade user over result
//! pages to score arms. The online loop needs the same user — but
//! attached to the serving path, with its clicks *kept*: a click on a
//! page that rewrites helped retrieve is weak supervision that the
//! rewrite matched the user's intent, and a purchase is stronger still.
//! This module mirrors the simulator's cascade byte for byte (position
//! bias `1/(1+0.35·pos)`, click with ground-truth relevance, purchase
//! with `rel × purchase_scale`, per-session RNG
//! `seed ^ session·0x51ed`), then converts each satisfied session into a
//! weighted `(session-context + query) → rewrite` training [`Pair`]:
//! weight 1 on click, 2 on purchase.
//!
//! Pairs land in a bounded [`FeedbackBuffer`] (oldest dropped first) the
//! trainer drains each tick. Everything is a pure function of
//! `(seed, session, response)`, so the whole loop replays exactly.

use std::collections::VecDeque;

use qrw_core::encode_session;
use qrw_data::{ClickLog, Pair};
use qrw_obs::Tracer;
use qrw_search::SearchResponse;
use qrw_tensor::rng::StdRng;
use qrw_text::Vocab;


/// Cascade + harvest parameters.
#[derive(Clone, Copy, Debug)]
pub struct FeedbackConfig {
    /// RNG seed; each session derives `seed ^ session·0x51ed` exactly
    /// like the A/B simulator, so the same user behaves identically in
    /// both harnesses.
    pub seed: u64,
    /// Base purchase probability scale after a click.
    pub purchase_scale: f64,
    /// Result-page depth the cascade examines.
    pub top_k: usize,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig { seed: 71, purchase_scale: 0.35, top_k: 10 }
    }
}

/// What one session's cascade did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClickOutcome {
    pub clicked: bool,
    pub purchased: bool,
    /// Whether a training pair was harvested (clicked *and* the response
    /// actually used rewrites to build its page).
    pub harvested: bool,
}

/// Lifetime counters across all observed sessions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FeedbackStats {
    pub sessions: u64,
    pub clicks: u64,
    pub purchases: u64,
    pub harvested: u64,
    /// Pairs evicted because the buffer was full.
    pub dropped: u64,
}

/// Ranks a served candidate set the way the production ranker would:
/// ground-truth relevance desc, popularity desc, id asc — identical to
/// the A/B simulator's stand-in ranker, so the feedback user sees the
/// same pages the experiment scores.
pub fn rank_page(
    log: &ClickLog,
    query_idx: usize,
    candidates: &[usize],
    top_k: usize,
) -> Vec<usize> {
    let q = &log.queries[query_idx];
    let mut scored: Vec<(f32, f32, usize)> = candidates
        .iter()
        .map(|&item_id| {
            let item = log.catalog.item(item_id);
            let rel = log.catalog.relevance(
                item,
                q.category,
                q.brand,
                q.audience,
                q.attr.as_deref(),
            );
            (rel, item.popularity, item_id)
        })
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.total_cmp(&a.1)).then(a.2.cmp(&b.2)));
    scored.into_iter().take(top_k).map(|(_, _, id)| id).collect()
}

/// The bounded incremental training buffer the online trainer drains.
pub struct FeedbackBuffer {
    pairs: VecDeque<Pair>,
    capacity: usize,
    stats: FeedbackStats,
}

impl FeedbackBuffer {
    pub fn new(capacity: usize) -> Self {
        FeedbackBuffer { pairs: VecDeque::new(), capacity: capacity.max(1), stats: FeedbackStats::default() }
    }

    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    pub fn stats(&self) -> FeedbackStats {
        self.stats
    }

    /// The buffered pairs as one slice (what a train tick consumes).
    pub fn pairs(&mut self) -> &[Pair] {
        self.pairs.make_contiguous()
    }

    /// Appends a pair, evicting the oldest when full.
    pub fn push(&mut self, pair: Pair) {
        if self.pairs.len() == self.capacity {
            self.pairs.pop_front();
            self.stats.dropped += 1;
        }
        self.pairs.push_back(pair);
    }

    /// Drives the cascade user over one served response and harvests a
    /// training pair if the session clicked on a rewrite-assisted page.
    ///
    /// `session` seeds the user (common random numbers with the A/B
    /// simulator); `context` is the user's previous in-session queries —
    /// the harvested source is [`encode_session`]`(vocab, context,
    /// query)`, so the pair trains exactly the input the session model
    /// serves. When a tracer is attached, the observation records a
    /// `feedback` span (minted trace) with `session`, `clicks` and
    /// `harvested` attributes.
    #[allow(clippy::too_many_arguments)]
    pub fn observe(
        &mut self,
        log: &ClickLog,
        vocab: &Vocab,
        session: u64,
        context: &[Vec<String>],
        query_idx: usize,
        response: &SearchResponse,
        config: &FeedbackConfig,
        tracer: Option<&Tracer>,
    ) -> ClickOutcome {
        let mut span = tracer.map(|t| {
            let mut s = t.span(t.next_trace(), None, "feedback");
            s.attr("session", session);
            s
        });
        let q = &log.queries[query_idx];
        let ranked = rank_page(log, query_idx, &response.candidates, config.top_k);
        let mut rng = StdRng::seed_from_u64(config.seed ^ session.wrapping_mul(0x51ed));

        self.stats.sessions += 1;
        let mut outcome = ClickOutcome::default();
        let mut clicks_here = 0u64;
        for (pos, &item_id) in ranked.iter().enumerate() {
            // Position-biased examination (cascade model).
            let examine = 1.0 / (1.0 + pos as f64 * 0.35);
            if rng.gen::<f64>() > examine {
                continue;
            }
            let item = log.catalog.item(item_id);
            let rel = f64::from(log.catalog.relevance(
                item,
                q.category,
                q.brand,
                q.audience,
                q.attr.as_deref(),
            ));
            if rng.gen::<f64>() < rel {
                outcome.clicked = true;
                clicks_here += 1;
                self.stats.clicks += 1;
                if rng.gen::<f64>() < rel * config.purchase_scale {
                    outcome.purchased = true;
                    self.stats.purchases += 1;
                    break; // purchase ends the session
                }
            }
        }

        // A click only credits the rewriter when rewrites actually shaped
        // the page; a baseline-only response teaches nothing about q2q.
        if outcome.clicked && !response.rewrites_used.is_empty() {
            let pair = Pair {
                src: encode_session(vocab, context, &q.tokens),
                tgt: vocab.encode(&response.rewrites_used[0]),
                weight: if outcome.purchased { 2 } else { 1 },
            };
            if !pair.src.is_empty() && !pair.tgt.is_empty() {
                self.push(pair);
                outcome.harvested = true;
                self.stats.harvested += 1;
            }
        }
        if let Some(s) = span.as_mut() {
            s.attr("clicks", clicks_here);
            s.attr("harvested", outcome.harvested);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrw_core::QueryRewriter;
    use qrw_data::LogConfig;
    use qrw_search::{DeadlineBudget, InvertedIndex, RewriteLadder, SearchEngine, ServingConfig};

    /// Serves `query` with `rewriter` as the online rung, down the guarded
    /// path with no deadline.
    fn serve(
        engine: &SearchEngine,
        query: &[String],
        rewriter: &dyn QueryRewriter,
    ) -> SearchResponse {
        let ladder = RewriteLadder { online: Some(rewriter), ..Default::default() };
        let budget = DeadlineBudget::unlimited();
        engine.search_resilient(query, ladder, &ServingConfig::default(), &budget, None)
    }

    /// The A/B tests' oracle: query → the title-register phrasing of its
    /// ground-truth intent, guaranteeing relevant extra candidates.
    struct Oracle<'l> {
        log: &'l ClickLog,
    }

    impl QueryRewriter for Oracle<'_> {
        fn rewrite(&self, query: &[String], _k: usize) -> Vec<Vec<String>> {
            let Some(q) = self.log.queries.iter().find(|q| q.tokens == query) else {
                return Vec::new();
            };
            let cat = self.log.catalog.category(q.category);
            let mut rw = Vec::new();
            if let Some(aud) = q.audience {
                rw.push(self.log.catalog.audience(aud).title_terms[0].clone());
            }
            if let Some(b) = q.brand {
                rw.push(self.log.catalog.brand(b).formal.clone());
            }
            rw.push(cat.title_terms[0].clone());
            vec![rw]
        }
        fn name(&self) -> &str {
            "oracle"
        }
    }

    fn served_world() -> (ClickLog, SearchEngine, Vocab) {
        let log = ClickLog::generate(&LogConfig::default());
        let engine = SearchEngine::new(InvertedIndex::build(
            log.catalog.items.iter().map(|i| i.title_tokens.clone()),
        ));
        let mut vocab = Vocab::new();
        for q in &log.queries {
            for t in &q.tokens {
                vocab.insert(t);
            }
        }
        for item in &log.catalog.items {
            for t in &item.title_tokens {
                vocab.insert(t);
            }
        }
        (log, engine, vocab)
    }

    fn drive(
        buffer: &mut FeedbackBuffer,
        log: &ClickLog,
        engine: &SearchEngine,
        vocab: &Vocab,
        sessions: u64,
        config: &FeedbackConfig,
    ) {
        let oracle = Oracle { log };
        for session in 0..sessions {
            let qi = (session as usize * 13 + 1) % log.queries.len();
            let resp = serve(engine, &log.queries[qi].tokens, &oracle);
            buffer.observe(log, vocab, session, &[], qi, &resp, config, None);
        }
    }

    #[test]
    fn clicked_rewrite_pages_harvest_weighted_pairs() {
        let (log, engine, vocab) = served_world();
        let mut buffer = FeedbackBuffer::new(4096);
        let config = FeedbackConfig::default();
        drive(&mut buffer, &log, &engine, &vocab, 200, &config);
        let stats = buffer.stats();
        assert_eq!(stats.sessions, 200);
        assert!(stats.clicks > 0, "the cascade over relevant pages must click: {stats:?}");
        assert!(stats.harvested > 0, "clicked rewrite pages must harvest: {stats:?}");
        assert!(stats.purchases > 0, "some clicks should convert: {stats:?}");
        assert_eq!(stats.harvested as usize, buffer.len());
        // Purchases upgrade the pair weight.
        let weights: Vec<u32> = buffer.pairs().iter().map(|p| p.weight).collect();
        assert!(weights.iter().all(|&w| w == 1 || w == 2));
        assert!(weights.contains(&2), "purchased sessions harvest weight 2");
        // Harvested sources/targets are real token ids.
        for p in buffer.pairs() {
            assert!(!p.src.is_empty() && !p.tgt.is_empty());
        }
    }

    #[test]
    fn harvest_is_deterministic() {
        let (log, engine, vocab) = served_world();
        let config = FeedbackConfig::default();
        let run = || {
            let mut b = FeedbackBuffer::new(4096);
            drive(&mut b, &log, &engine, &vocab, 64, &config);
            let pairs: Vec<(Vec<usize>, Vec<usize>, u32)> =
                b.pairs().iter().map(|p| (p.src.clone(), p.tgt.clone(), p.weight)).collect();
            (b.stats(), pairs)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn session_context_is_encoded_into_the_source() {
        let (log, engine, vocab) = served_world();
        let config = FeedbackConfig::default();
        let oracle = Oracle { log: &log };
        // Find a session seed that clicks, then replay it with context.
        for session in 0..500u64 {
            let qi = 1;
            let resp = serve(&engine, &log.queries[qi].tokens, &oracle);
            let mut plain = FeedbackBuffer::new(16);
            let out =
                plain.observe(&log, &vocab, session, &[], qi, &resp, &config, None);
            if !out.harvested {
                continue;
            }
            let context = vec![log.queries[0].tokens.clone()];
            let mut with_ctx = FeedbackBuffer::new(16);
            let out2 =
                with_ctx.observe(&log, &vocab, session, &context, qi, &resp, &config, None);
            assert!(out2.harvested, "same user randomness, same click");
            let src_plain = plain.pairs()[0].src.clone();
            let src_ctx = with_ctx.pairs()[0].src.clone();
            assert_eq!(
                src_ctx,
                encode_session(&vocab, &context, &log.queries[qi].tokens)
            );
            assert!(src_ctx.len() > src_plain.len());
            assert_eq!(with_ctx.pairs()[0].tgt, plain.pairs()[0].tgt);
            return;
        }
        panic!("no clicking session found in 500 tries");
    }

    #[test]
    fn buffer_is_bounded_and_counts_evictions() {
        let mut b = FeedbackBuffer::new(3);
        for i in 0..5usize {
            b.push(Pair { src: vec![i + 4], tgt: vec![i + 5], weight: 1 });
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.stats().dropped, 2);
        // Oldest evicted first.
        assert_eq!(b.pairs()[0].src, vec![6]);
        assert!(!b.is_empty());
    }

    #[test]
    fn feedback_spans_record_the_harvest() {
        let (log, engine, vocab) = served_world();
        let tracer = Tracer::logical();
        let mut buffer = FeedbackBuffer::new(64);
        let oracle = Oracle { log: &log };
        let resp = serve(&engine, &log.queries[1].tokens, &oracle);
        let config = FeedbackConfig::default();
        for session in 0..8u64 {
            buffer.observe(&log, &vocab, session, &[], 1, &resp, &config, Some(&tracer));
        }
        let spans = tracer.snapshot();
        let feedback: Vec<_> = spans.iter().filter(|s| s.name == "feedback").collect();
        assert_eq!(feedback.len(), 8);
        for s in &feedback {
            assert!(s.attr("session").is_some());
            assert!(s.attr("clicks").is_some());
            assert!(s.attr("harvested").is_some());
        }
    }
}
