//! Top-k disjunctive BM25 retrieval with MaxScore dynamic pruning.
//!
//! The inverted-index AND trees of [`crate::tree`] implement the paper's
//! *candidate generation*; ranking the candidates (or serving weak-AND
//! style recall queries) needs top-k scored retrieval. This module
//! provides document-at-a-time BM25 top-k with the classic MaxScore
//! optimization: terms are sorted by their score upper bound, and once a
//! document cannot beat the current k-th score from the "optional" terms
//! alone, its scoring is skipped entirely.
//!
//! The exhaustive scorer is kept as the reference; a property test pins
//! the two to identical results.

use crate::index::{union_sorted, InvertedIndex};

/// A scored document.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredDoc {
    pub doc: usize,
    pub score: f64,
}

/// The ranking order every top-k in the crate uses: score descending,
/// then doc id ascending. Total over unique ids, so any selection
/// strategy yields the same prefix.
pub(crate) fn rank_order(a: &(f64, usize), b: &(f64, usize)) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// Keeps the best `k` of `scored` under [`rank_order`], sorted. Selects
/// the `k`-th first and sorts only the prefix, so ranking `n` candidates
/// costs O(n + k log k) rather than a full sort — with the identical
/// output, because the order is total.
pub(crate) fn select_top_k(scored: &mut Vec<(f64, usize)>, k: usize) {
    if k == 0 {
        scored.clear();
        return;
    }
    if k < scored.len() {
        scored.select_nth_unstable_by(k - 1, rank_order);
        scored.truncate(k);
    }
    scored.sort_unstable_by(rank_order);
}

/// Exhaustive reference: scores every document containing at least one
/// query term. Duplicate query terms are deduplicated (set-of-terms
/// semantics, matching the MaxScore path).
pub fn bm25_topk_exhaustive(index: &InvertedIndex, query: &[String], k: usize) -> Vec<ScoredDoc> {
    let terms = dedup(query);
    let mut candidates: Vec<usize> = Vec::new();
    for t in &terms {
        candidates = union_sorted(&candidates, index.postings(t));
    }
    index.filter_alive(&mut candidates);
    let scorer = index.bm25_scorer(&terms);
    let mut scored: Vec<ScoredDoc> = candidates
        .into_iter()
        .map(|doc| ScoredDoc { doc, score: scorer.score(doc) })
        .collect();
    sort_topk(&mut scored, k);
    scored
}

/// MaxScore top-k: equivalent results to [`bm25_topk_exhaustive`], with
/// documents skipped when their optional-term upper bound cannot reach
/// the current threshold.
pub fn bm25_topk_maxscore(index: &InvertedIndex, query: &[String], k: usize) -> Vec<ScoredDoc> {
    if k == 0 || index.is_empty() {
        return Vec::new();
    }
    // Per-term upper bound on its BM25 contribution:
    // idf * (k1 + 1) bounds tf*(k1+1)/(tf+K) since the fraction < k1+1;
    // we use the tight per-term bound computed from the term's best tf.
    // Tombstoned documents are excluded: they can never be returned, so
    // letting a dead doc's tf inflate a bound would only loosen pruning
    // (the live-statistics discipline of `InvertedIndex::bm25` applies to
    // the bounds too).
    let mut infos: Vec<(String, &[usize], f64)> = dedup(query)
        .into_iter()
        .filter(|t| index.doc_freq(t) > 0)
        .map(|t| {
            let postings = index.postings(&t);
            let alone = index.bm25_scorer(std::slice::from_ref(&t));
            let ub = postings
                .iter()
                .filter(|&&d| index.is_alive(d))
                .map(|&d| alone.score(d))
                .fold(0.0f64, f64::max);
            (t, postings, ub)
        })
        .collect();
    if infos.is_empty() {
        return Vec::new();
    }
    // Ascending upper bound: the prefix is the "optional" set.
    infos.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
    // Suffix sums of upper bounds: bound_from[i] = sum of ub over terms i..
    let mut bound_from = vec![0.0f64; infos.len() + 1];
    for i in (0..infos.len()).rev() {
        bound_from[i] = bound_from[i + 1] + infos[i].2;
    }
    // Documents score over the terms in bound order.
    let ordered: Vec<String> = infos.iter().map(|(t, _, _)| t.clone()).collect();
    let scorer = index.bm25_scorer(&ordered);
    let lists: Vec<&[usize]> = infos.iter().map(|(_, p, _)| *p).collect();

    let mut heap: Vec<ScoredDoc> = Vec::with_capacity(k + 1); // small k: sorted vec as heap
    let mut threshold = f64::NEG_INFINITY;

    // The number of leading (lowest-bound) terms that alone cannot beat
    // the threshold; documents appearing only in those postings are
    // skipped without scoring.
    let mut first_required = 0usize;

    // Document-at-a-time over the union of required-term postings, plus
    // (until a threshold forms) all postings.
    let mut cursors: Vec<usize> = vec![0; lists.len()];
    loop {
        // Next candidate doc: the minimum current posting among terms that
        // can still introduce new competitive documents (the non-skipped
        // set: required terms; while threshold is -inf, all terms).
        let mut next_doc = usize::MAX;
        for (i, list) in lists.iter().enumerate().skip(first_required) {
            if cursors[i] < list.len() {
                next_doc = next_doc.min(list[cursors[i]]);
            }
        }
        if next_doc == usize::MAX {
            break;
        }
        // Upper bound for this doc: full term-set bound. Skip scoring when
        // it cannot beat the threshold (cheap reject).
        if heap.len() == k && bound_from[0] <= threshold {
            break;
        }
        if !index.is_alive(next_doc) {
            advance_past(&lists, &mut cursors, next_doc);
            continue;
        }
        let score = scorer.score(next_doc);
        if heap.len() < k {
            heap.push(ScoredDoc { doc: next_doc, score });
            if heap.len() == k {
                sort_topk(&mut heap, k);
                threshold = heap.last().map(|s| s.score).unwrap_or(f64::NEG_INFINITY);
            }
        } else if score > threshold {
            heap.pop();
            heap.push(ScoredDoc { doc: next_doc, score });
            sort_topk(&mut heap, k);
            threshold = heap.last().map(|s| s.score).unwrap_or(threshold);
        }
        advance_past(&lists, &mut cursors, next_doc);
        // Grow the optional set: terms whose collective bound can no
        // longer reach the threshold on their own are no longer allowed
        // to introduce candidates.
        if heap.len() == k {
            while first_required < infos.len() && bound_from[first_required + 1] > 0.0 && {
                // Documents found only via optional terms score at most
                // bound_from[0] - bound_from[first_required+1] ... use the
                // standard MaxScore rule: optional prefix bound <= threshold.
                bound_from[0] - bound_from[first_required + 1] <= threshold
                    && first_required + 1 < infos.len()
            } {
                first_required += 1;
            }
        }
    }
    // Fewer than k matches never triggered the threshold path: sort now.
    sort_topk(&mut heap, k);
    heap
}

fn advance_past(lists: &[&[usize]], cursors: &mut [usize], doc: usize) {
    for (list, cursor) in lists.iter().zip(cursors.iter_mut()) {
        while *cursor < list.len() && list[*cursor] <= doc {
            *cursor += 1;
        }
    }
}

fn sort_topk(scored: &mut Vec<ScoredDoc>, k: usize) {
    scored.sort_by(|a, b| rank_order(&(a.score, a.doc), &(b.score, b.doc)));
    scored.truncate(k);
}

fn dedup(query: &[String]) -> Vec<String> {
    let mut out: Vec<String> = Vec::with_capacity(query.len());
    for t in query {
        if !out.contains(t) {
            out.push(t.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrw_tensor::rng::StdRng;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn sample_index() -> InvertedIndex {
        InvertedIndex::build(vec![
            toks("red shoes men new"),
            toks("black shoes women"),
            toks("red phone case red"),
            toks("red red shoes sale"),
            toks("green dress"),
        ])
    }

    #[test]
    fn exhaustive_matches_manual_expectation() {
        let idx = sample_index();
        let top = bm25_topk_exhaustive(&idx, &toks("red shoes"), 2);
        assert_eq!(top.len(), 2);
        // Doc 3 ("red red shoes sale") has the highest combined tf.
        assert_eq!(top[0].doc, 3);
        assert!(top[0].score >= top[1].score);
    }

    #[test]
    fn maxscore_matches_exhaustive_on_sample() {
        let idx = sample_index();
        for k in [1, 2, 3, 10] {
            let a = bm25_topk_exhaustive(&idx, &toks("red shoes"), k);
            let b = bm25_topk_maxscore(&idx, &toks("red shoes"), k);
            assert_eq!(a.len(), b.len(), "k={k}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.doc, y.doc, "k={k}");
                assert!((x.score - y.score).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        let idx = sample_index();
        assert!(bm25_topk_maxscore(&idx, &toks("red"), 0).is_empty());
        assert!(bm25_topk_maxscore(&idx, &toks("zzz"), 3).is_empty());
        assert!(bm25_topk_maxscore(&InvertedIndex::new(), &toks("red"), 3).is_empty());
        // Duplicate query terms behave like the deduplicated query.
        let a = bm25_topk_maxscore(&idx, &toks("red red shoes"), 3);
        let b = bm25_topk_maxscore(&idx, &toks("red shoes"), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn ties_break_by_ascending_doc_id() {
        // Four identical docs: every BM25 score ties exactly, so the
        // ordering is decided purely by the doc-id tie-break.
        let idx = InvertedIndex::build(vec![
            toks("red shoes"),
            toks("red shoes"),
            toks("red shoes"),
            toks("red shoes"),
        ]);
        for k in [1, 2, 4] {
            let a = bm25_topk_exhaustive(&idx, &toks("red shoes"), k);
            let b = bm25_topk_maxscore(&idx, &toks("red shoes"), k);
            let docs: Vec<usize> = a.iter().map(|s| s.doc).collect();
            assert_eq!(docs, (0..k).collect::<Vec<_>>(), "k={k}: ties break by doc id");
            assert_eq!(a, b, "k={k}");
            assert!(a.windows(2).all(|w| w[0].score == w[1].score));
        }
    }

    #[test]
    fn k_beyond_the_candidate_count_returns_every_match() {
        let idx = sample_index();
        // "red" matches docs 0, 2, 3 — far fewer than k.
        let a = bm25_topk_exhaustive(&idx, &toks("red"), 100);
        let b = bm25_topk_maxscore(&idx, &toks("red"), 100);
        assert_eq!(a.len(), 3);
        assert_eq!(a, b);
        let mut docs: Vec<usize> = a.iter().map(|s| s.doc).collect();
        docs.sort_unstable();
        assert_eq!(docs, vec![0, 2, 3]);
    }

    #[test]
    fn empty_query_and_deleted_docs() {
        let mut idx = sample_index();
        assert!(bm25_topk_exhaustive(&idx, &[], 3).is_empty());
        assert!(bm25_topk_maxscore(&idx, &[], 3).is_empty());
        // Tombstoned docs vanish from both paths, which still agree.
        idx.remove_doc(3);
        let a = bm25_topk_exhaustive(&idx, &toks("red shoes"), 10);
        let b = bm25_topk_maxscore(&idx, &toks("red shoes"), 10);
        assert_eq!(a, b);
        assert!(a.iter().all(|s| s.doc != 3), "deleted doc must not be returned");
        assert!(!a.is_empty());
    }

    /// MaxScore stays equal to exhaustive while the catalog churns:
    /// interleaved add/remove/compact between queries, with the dead-doc-
    /// excluded upper bounds still valid at every step.
    #[test]
    fn prop_maxscore_equals_exhaustive_under_churn() {
        let alphabet = ["a", "b", "c", "d", "e"];
        let mut rng = StdRng::seed_from_u64(0x0C0B);
        let mut idx = InvertedIndex::build(vec![
            toks("a b c"),
            toks("b c d"),
            toks("c d e"),
        ]);
        for _ in 0..128 {
            match rng.gen_range(0u32..10) {
                0..=5 => {
                    let len = rng.gen_range(1usize..5);
                    let doc: Vec<String> = (0..len)
                        .map(|_| alphabet[rng.gen_range(0usize..alphabet.len())].to_string())
                        .collect();
                    idx.add_doc(doc);
                }
                6..=8 if !idx.is_empty() => {
                    idx.remove_doc(rng.gen_range(0usize..idx.len()));
                }
                _ => {
                    idx.compact();
                }
            }
            let qlen = rng.gen_range(1usize..4);
            let query: Vec<String> = (0..qlen)
                .map(|_| alphabet[rng.gen_range(0usize..alphabet.len())].to_string())
                .collect();
            let k = rng.gen_range(1usize..5);
            let a = bm25_topk_exhaustive(&idx, &query, k);
            let b = bm25_topk_maxscore(&idx, &query, k);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.doc, y.doc);
                assert!((x.score - y.score).abs() < 1e-9);
                assert!(idx.is_alive(x.doc), "dead doc served from top-k");
            }
        }
    }

    /// MaxScore always returns exactly the exhaustive top-k over random
    /// corpora and queries (96 seeded cases, reproducible).
    #[test]
    fn prop_maxscore_equals_exhaustive() {
        let alphabet = ["a", "b", "c", "d", "e"];
        let mut rng = StdRng::seed_from_u64(0x7095);
        let tokens = |rng: &mut StdRng, len: usize| -> Vec<String> {
            (0..len)
                .map(|_| alphabet[rng.gen_range(0usize..alphabet.len())].to_string())
                .collect()
        };
        for _ in 0..96 {
            let n_docs = rng.gen_range(1usize..20);
            let docs: Vec<Vec<String>> = (0..n_docs)
                .map(|_| {
                    let len = rng.gen_range(1usize..6);
                    tokens(&mut rng, len)
                })
                .collect();
            let qlen = rng.gen_range(1usize..4);
            let query = tokens(&mut rng, qlen);
            let k = rng.gen_range(1usize..6);
            let idx = InvertedIndex::build(docs);
            let a = bm25_topk_exhaustive(&idx, &query, k);
            let b = bm25_topk_maxscore(&idx, &query, k);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert!((x.score - y.score).abs() < 1e-9);
                assert_eq!(x.doc, y.doc);
            }
        }
    }
}
