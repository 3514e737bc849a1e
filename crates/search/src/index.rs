//! Inverted index with sorted posting lists and BM25 scoring.
//!
//! The candidate-retrieval stage of the paper's search engine: documents
//! (item titles) are indexed by token; boolean syntax trees evaluate to
//! candidate sets by posting-list intersection/union; BM25 ranks the
//! survivors.
//!
//! One term representation serves every reader. A term dictionary maps
//! each distinct token string to a dense `u32` id (first-seen order) with
//! the id → string table beside it; postings are indexed by term id; and
//! each document is a span of term ids in one flat arena. Retrieval
//! borrows posting lists straight from the index, and ranking counts term
//! frequency with `u32` compares over a document's span. Strings are
//! touched only at the edges: resolving a query token to its id (once per
//! request) and reading a document back as text.

use std::collections::HashMap;
use std::sync::Arc;

/// Dense term ids in first-seen order, with the id → string table.
#[derive(Clone, Debug, Default)]
struct TermDict {
    ids: HashMap<String, u32>,
    terms: Vec<String>,
}

/// Inverted index over tokenized documents. Document ids are the
/// insertion order (`0..len`).
#[derive(Clone, Debug, Default)]
pub struct InvertedIndex {
    /// Shared copy-on-write: clones of the index (the catalog writer's
    /// copy-on-write apply, shard builds) share one dictionary until one
    /// of them interns a new term.
    dict: Arc<TermDict>,
    /// Sorted, deduplicated doc ids per term id. Shorter than the
    /// dictionary when trailing terms have no documents here.
    postings: Vec<Vec<usize>>,
    /// Every document's term ids, concatenated in doc-id order.
    arena: Vec<u32>,
    /// `ends[id]` is the arena offset one past document `id`'s span.
    ends: Vec<usize>,
    /// Tombstones: catalogs churn, so documents can be removed without
    /// rebuilding posting lists. Raw postings keep deleted ids; boolean
    /// evaluation and BM25 account for liveness, and [`compact`]
    /// (InvertedIndex::compact) rebuilds when tombstones accumulate.
    deleted: Vec<bool>,
    alive_docs: usize,
    alive_tokens: usize,
}

impl InvertedIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an index from tokenized documents.
    pub fn build<I>(docs: I) -> Self
    where
        I: IntoIterator<Item = Vec<String>>,
    {
        let mut index = InvertedIndex::new();
        for d in docs {
            index.add_doc(&d);
        }
        index
    }

    /// Adds a document, returning its id.
    pub fn add_doc<I>(&mut self, tokens: I) -> usize
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let start = self.arena.len();
        for tok in tokens {
            let term = self.intern(tok.as_ref());
            self.arena.push(term);
        }
        self.seal_doc(start)
    }

    /// The id of `token`, interning it if new.
    fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.dict.ids.get(token) {
            return id;
        }
        let dict = Arc::make_mut(&mut self.dict);
        let id = u32::try_from(dict.terms.len()).expect("term dictionary exceeds u32 ids");
        dict.terms.push(token.to_owned());
        dict.ids.insert(token.to_owned(), id);
        id
    }

    /// Closes the document whose term ids were pushed onto the arena from
    /// `start`: records its span and posts its id under each term.
    fn seal_doc(&mut self, start: usize) -> usize {
        let id = self.ends.len();
        for &term in &self.arena[start..] {
            let term = term as usize;
            if self.postings.len() <= term {
                self.postings.resize_with(term + 1, Vec::new);
            }
            let list = &mut self.postings[term];
            // Postings stay sorted and deduplicated because ids ascend.
            if list.last() != Some(&id) {
                list.push(id);
            }
        }
        let len = self.arena.len() - start;
        self.ends.push(self.arena.len());
        self.deleted.push(false);
        self.alive_docs += 1;
        self.alive_tokens += len;
        id
    }

    /// Tombstones a document: it stops matching queries and contributing
    /// to BM25 statistics, but its id stays allocated until [`compact`]
    /// (InvertedIndex::compact). Returns false if already deleted or out
    /// of range.
    pub fn remove_doc(&mut self, id: usize) -> bool {
        if id >= self.len() || self.deleted[id] {
            return false;
        }
        self.deleted[id] = true;
        self.alive_docs -= 1;
        self.alive_tokens -= self.doc_terms(id).len();
        true
    }

    /// True if `id` exists and is not tombstoned.
    pub fn is_alive(&self, id: usize) -> bool {
        id < self.len() && !self.deleted[id]
    }

    /// Number of live (non-deleted) documents.
    pub fn live_len(&self) -> usize {
        self.alive_docs
    }

    /// Total token count across live documents (the numerator of
    /// [`avg_doc_len`](Self::avg_doc_len)). The sharded tier sums this
    /// per shard to reconstruct the global average document length
    /// exactly.
    pub fn live_tokens(&self) -> usize {
        self.alive_tokens
    }

    /// Rebuilds the index without tombstoned documents. Returns the
    /// old-id → new-id mapping (`None` for removed docs). Spans are copied
    /// as term ids; the dictionary is re-interned over the surviving
    /// terms (one string per distinct term, in first-seen order), so the
    /// result is exactly a fresh build of the live documents.
    pub fn compact(&mut self) -> Vec<Option<usize>> {
        let mut mapping = Vec::with_capacity(self.len());
        let mut fresh = InvertedIndex::new();
        let mut renumber = vec![u32::MAX; self.dict.terms.len()];
        for id in 0..self.len() {
            if self.deleted[id] {
                mapping.push(None);
                continue;
            }
            let start = fresh.arena.len();
            for &term in self.doc_terms(id) {
                let slot = &mut renumber[term as usize];
                if *slot == u32::MAX {
                    *slot = fresh.intern(self.term(term));
                }
                fresh.arena.push(*slot);
            }
            mapping.push(Some(fresh.seal_doc(start)));
        }
        *self = fresh;
        mapping
    }

    /// The sub-index of the documents `ids` (ascending), renumbered
    /// densely in that order with their tombstones carried over. Spans are
    /// copied as term ids and the dictionary is shared, so no token string
    /// is read or allocated. Equal, document for document, to replaying
    /// the members' tokens onto an empty index and then tombstoning the
    /// dead ones.
    pub fn subset(&self, ids: &[usize]) -> InvertedIndex {
        let mut out = InvertedIndex { dict: Arc::clone(&self.dict), ..InvertedIndex::default() };
        for &id in ids {
            let start = out.arena.len();
            out.arena.extend_from_slice(self.doc_terms(id));
            out.seal_doc(start);
        }
        for (local, &id) in ids.iter().enumerate() {
            if self.deleted[id] {
                out.remove_doc(local);
            }
        }
        out
    }

    /// Retains only the live documents of a sorted id list.
    pub fn filter_alive(&self, ids: &mut Vec<usize>) {
        if self.alive_docs != self.len() {
            ids.retain(|&d| !self.deleted[d]);
        }
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Term ids of document `id`, in token order.
    pub fn doc_terms(&self, id: usize) -> &[u32] {
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.arena[start..self.ends[id]]
    }

    /// Tokens of document `id`, in order, read back through the
    /// dictionary.
    pub fn doc_tokens(&self, id: usize) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.doc_terms(id).iter().map(|&t| self.term(t))
    }

    /// The id of `token`, if any document ever used it.
    pub fn term_id(&self, token: &str) -> Option<u32> {
        self.dict.ids.get(token).copied()
    }

    /// The token string of term id `term`.
    pub fn term(&self, term: u32) -> &str {
        &self.dict.terms[term as usize]
    }

    /// Sorted posting list of a term id (raw: tombstoned ids included).
    pub(crate) fn term_postings(&self, term: u32) -> &[usize] {
        self.postings.get(term as usize).map_or(&[], Vec::as_slice)
    }

    /// Sorted posting list of a token (empty for unseen tokens).
    pub fn postings(&self, token: &str) -> &[usize] {
        self.term_id(token).map_or(&[], |t| self.term_postings(t))
    }

    /// Document frequency of a token among live documents.
    pub fn doc_freq(&self, token: &str) -> usize {
        self.term_id(token).map_or(0, |t| self.term_doc_freq(t))
    }

    fn term_doc_freq(&self, term: u32) -> usize {
        let list = self.term_postings(term);
        if self.alive_docs == self.len() {
            list.len()
        } else {
            list.iter().filter(|&&d| !self.deleted[d]).count()
        }
    }

    /// Average live-document length.
    pub fn avg_doc_len(&self) -> f64 {
        if self.alive_docs == 0 {
            0.0
        } else {
            self.alive_tokens as f64 / self.alive_docs as f64
        }
    }

    /// BM25 score of `doc_id` for a bag-of-tokens query
    /// (k1 = 1.2, b = 0.75): a one-document [`Bm25Scorer`].
    pub fn bm25(&self, query: &[String], doc_id: usize) -> f64 {
        self.bm25_scorer(query).score(doc_id)
    }

    /// Brute-force AND retrieval over live documents, for correctness
    /// tests.
    pub fn brute_force_and(&self, query: &[String]) -> Vec<usize> {
        let terms: Option<Vec<u32>> = query.iter().map(|t| self.term_id(t)).collect();
        let Some(terms) = terms else { return Vec::new() };
        (0..self.len())
            .filter(|&id| !self.deleted[id])
            .filter(|&id| terms.iter().all(|t| self.doc_terms(id).contains(t)))
            .collect()
    }

    /// Canonical FNV-1a-64 fingerprint of the index *contents*: documents
    /// in id order, tombstone flags, and nothing else. Two indexes with
    /// the same fingerprint retrieve and score identically (postings and
    /// statistics are pure functions of the doc sequence). Used by the
    /// snapshot layer's bit-for-bit recovery checks. Term ids are not
    /// hashed — only the token strings they stand for — so the value does
    /// not depend on interning order.
    pub fn fingerprint(&self) -> u64 {
        let mut buf = Vec::with_capacity(self.arena.len() * 8);
        for id in 0..self.len() {
            buf.extend_from_slice(&(self.doc_terms(id).len() as u32).to_le_bytes());
            for t in self.doc_tokens(id) {
                buf.extend_from_slice(&(t.len() as u32).to_le_bytes());
                buf.extend_from_slice(t.as_bytes());
            }
            buf.push(u8::from(self.deleted[id]));
        }
        qrw_tensor::serialize::fnv1a64(b"IDX1", &buf)
    }

    /// A BM25 scorer with per-query statistics frozen up front: document
    /// frequencies over **live** docs, the live average length, and the
    /// live doc count are computed once, and each query token is resolved
    /// to its term id once. Duplicate query tokens are kept (they
    /// accumulate twice); tokens no document uses are dropped, since
    /// their term frequency is zero everywhere.
    pub fn bm25_scorer(&self, query: &[String]) -> Bm25Scorer<'_> {
        let n = self.alive_docs as f64;
        let avg = self.avg_doc_len().max(1e-9);
        let terms = query
            .iter()
            .filter_map(|tok| self.term_id(tok))
            .map(|t| (t, idf(n, self.term_doc_freq(t) as f64)))
            .collect();
        Bm25Scorer { index: self, terms, avg }
    }

    /// A BM25 scorer over *externally supplied* statistics: precomputed
    /// `(token, idf)` terms (duplicates kept, in query order) and an
    /// already-clamped average document length. The sharded tier computes
    /// global statistics once at gather time (summing per-shard live-doc
    /// counts and document frequencies) and hands each shard this scorer,
    /// so per-shard scores are bit-identical to what the monolithic index
    /// would produce: same idf, same avg, same accumulation order — only
    /// `tf` and `dl` are read locally, and those are per-document facts.
    pub fn bm25_scorer_from_stats(&self, terms: &[(String, f64)], avg: f64) -> Bm25Scorer<'_> {
        let terms = terms
            .iter()
            .filter_map(|(tok, idf)| Some((self.term_id(tok)?, *idf)))
            .collect();
        Bm25Scorer { index: self, terms, avg }
    }
}

/// BM25 inverse document frequency over `n` live documents of which `df`
/// contain the term — the one idf formula, shared by the monolith and
/// the sharded tier's global statistics.
pub fn idf(n: f64, df: f64) -> f64 {
    ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
}

/// Frozen-statistics BM25 scorer returned by
/// [`InvertedIndex::bm25_scorer`]: the only copy of the BM25 formula.
pub struct Bm25Scorer<'a> {
    index: &'a InvertedIndex,
    /// Resolved query terms in order (duplicates kept) with their idf.
    terms: Vec<(u32, f64)>,
    avg: f64,
}

impl Bm25Scorer<'_> {
    const K1: f64 = 1.2;
    const B: f64 = 0.75;

    /// BM25 score of `doc_id`. The length norm `k1·(1 − b + b·dl/avg)`
    /// depends only on the document, so it is computed once per call.
    pub fn score(&self, doc_id: usize) -> f64 {
        let span = self.index.doc_terms(doc_id);
        let dl = span.len() as f64;
        let norm = Self::K1 * (1.0 - Self::B + Self::B * dl / self.avg);
        let mut score = 0.0;
        for &(term, idf) in &self.terms {
            let tf = span.iter().filter(|&&t| t == term).count() as f64;
            if tf == 0.0 {
                continue;
            }
            score += idf * (tf * (Self::K1 + 1.0)) / (tf + norm);
        }
        score
    }
}

/// Elements of sorted `a` absent from sorted `b`, in order: one linear
/// merge pass.
pub fn difference_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len());
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j == b.len() || b[j] != x {
            out.push(x);
        }
    }
    out
}

/// Intersection of two sorted id lists.
pub fn intersect_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Union of two sorted id lists.
pub fn union_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
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
            toks("red shoes men"),
            toks("black shoes women"),
            toks("red phone case"),
            toks("red red shoes"),
        ])
    }

    #[test]
    fn postings_are_sorted_and_deduped() {
        let idx = sample_index();
        assert_eq!(idx.postings("red"), &[0, 2, 3]);
        assert_eq!(idx.postings("shoes"), &[0, 1, 3]);
        assert_eq!(idx.postings("unknown"), &[] as &[usize]);
        assert_eq!(idx.doc_freq("red"), 3);
    }

    #[test]
    fn bm25_prefers_matching_docs() {
        let idx = sample_index();
        let q = toks("red shoes");
        let s0 = idx.bm25(&q, 0);
        let s1 = idx.bm25(&q, 1);
        let s2 = idx.bm25(&q, 2);
        assert!(s0 > s1, "full match beats partial: {s0} vs {s1}");
        assert!(s0 > s2);
        assert!(idx.bm25(&toks("nothing"), 0) == 0.0);
    }

    #[test]
    fn bm25_rewards_term_frequency() {
        let idx = sample_index();
        let q = toks("red");
        assert!(idx.bm25(&q, 3) > idx.bm25(&q, 2));
    }

    #[test]
    fn intersect_and_union_reference() {
        assert_eq!(intersect_sorted(&[1, 3, 5], &[2, 3, 5, 7]), vec![3, 5]);
        assert_eq!(union_sorted(&[1, 3], &[2, 3, 4]), vec![1, 2, 3, 4]);
        assert_eq!(intersect_sorted(&[], &[1]), Vec::<usize>::new());
        assert_eq!(union_sorted(&[], &[1]), vec![1]);
    }

    #[test]
    fn remove_doc_hides_it_from_retrieval_and_stats() {
        let mut idx = sample_index();
        let n = idx.len();
        assert!(idx.remove_doc(0));
        assert!(!idx.remove_doc(0), "double delete reports false");
        assert!(!idx.remove_doc(99), "out of range reports false");
        assert!(!idx.is_alive(0));
        assert_eq!(idx.live_len(), n - 1);
        // Raw postings keep the id; brute force and doc_freq do not.
        assert!(idx.postings("red").contains(&0));
        assert!(!idx.brute_force_and(&toks("red shoes men")).contains(&0));
        assert_eq!(idx.doc_freq("men"), 0);
        // Live stats re-average over the remaining docs only.
        let expected = (idx.len() - 1) as f64 * 3.0 / (idx.len() - 1) as f64;
        assert!((idx.avg_doc_len() - expected).abs() < 1e-12);
    }

    #[test]
    fn tree_evaluation_skips_tombstoned_docs() {
        use crate::tree::QueryTree;
        let mut idx = sample_index();
        let (before, _) = QueryTree::and_of_tokens(&toks("red shoes")).evaluate(&idx);
        assert!(before.contains(&0));
        idx.remove_doc(0);
        let (after, _) = QueryTree::and_of_tokens(&toks("red shoes")).evaluate(&idx);
        assert!(!after.contains(&0));
        assert_eq!(after.len(), before.len() - 1);
    }

    #[test]
    fn compact_remaps_ids_densely() {
        let mut idx = sample_index();
        idx.remove_doc(1);
        idx.remove_doc(3);
        let mapping = idx.compact();
        assert_eq!(mapping.len(), 4);
        assert_eq!(mapping[1], None);
        assert_eq!(mapping[3], None);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.live_len(), 2);
        // Doc 2 ("red phone case") survived under its new id.
        let new2 = mapping[2].unwrap();
        assert!(idx.doc_tokens(new2).eq(["red", "phone", "case"]));
        assert_eq!(idx.brute_force_and(&toks("phone")), vec![new2]);
    }

    #[test]
    fn topk_skips_tombstoned_docs() {
        use crate::topk::{bm25_topk_exhaustive, bm25_topk_maxscore};
        let mut idx = sample_index();
        idx.remove_doc(3); // the best "red shoes" doc
        let a = bm25_topk_exhaustive(&idx, &toks("red shoes"), 3);
        let b = bm25_topk_maxscore(&idx, &toks("red shoes"), 3);
        assert!(a.iter().all(|s| s.doc != 3));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.doc, y.doc);
        }
    }

    /// Randomised check (seeded, so reproducible): sorted-list set ops
    /// agree with `BTreeSet` semantics.
    #[test]
    fn prop_intersect_union_match_sets() {
        use std::collections::BTreeSet;
        let mut rng = StdRng::seed_from_u64(0xA11CE);
        for _ in 0..256 {
            let draw = |rng: &mut StdRng| -> BTreeSet<usize> {
                let n = rng.gen_range(0usize..15);
                (0..n).map(|_| rng.gen_range(0usize..40)).collect()
            };
            let a = draw(&mut rng);
            let b = draw(&mut rng);
            let av: Vec<usize> = a.iter().copied().collect();
            let bv: Vec<usize> = b.iter().copied().collect();
            let inter: Vec<usize> = a.intersection(&b).copied().collect();
            let uni: Vec<usize> = a.union(&b).copied().collect();
            assert_eq!(intersect_sorted(&av, &bv), inter);
            assert_eq!(union_sorted(&av, &bv), uni);
        }
    }

    #[test]
    fn set_ops_edge_cases() {
        // Both empty.
        assert_eq!(intersect_sorted(&[], &[]), Vec::<usize>::new());
        assert_eq!(union_sorted(&[], &[]), Vec::<usize>::new());
        // One empty.
        assert_eq!(intersect_sorted(&[1, 2], &[]), Vec::<usize>::new());
        assert_eq!(union_sorted(&[1, 2], &[]), vec![1, 2]);
        // Identical lists.
        assert_eq!(intersect_sorted(&[1, 2, 3], &[1, 2, 3]), vec![1, 2, 3]);
        assert_eq!(union_sorted(&[1, 2, 3], &[1, 2, 3]), vec![1, 2, 3]);
        // Disjoint, interleaved.
        assert_eq!(intersect_sorted(&[1, 3, 5], &[2, 4, 6]), Vec::<usize>::new());
        assert_eq!(union_sorted(&[1, 3, 5], &[2, 4, 6]), vec![1, 2, 3, 4, 5, 6]);
        // Duplicate ids *within* an input (not produced by the index, but
        // the merge must stay ordered rather than corrupt downstream
        // intersections): equal heads collapse pairwise.
        assert_eq!(union_sorted(&[1, 1, 2], &[1, 2, 2]), vec![1, 1, 2, 2]);
        assert_eq!(intersect_sorted(&[1, 1, 2], &[1, 2, 2]), vec![1, 2]);
    }

    #[test]
    fn filter_alive_edge_cases() {
        let mut idx = sample_index();
        // No tombstones: the fast path leaves ids untouched.
        let mut ids = vec![0, 2, 3];
        idx.filter_alive(&mut ids);
        assert_eq!(ids, vec![0, 2, 3]);
        // Empty input stays empty, tombstones or not.
        let mut empty: Vec<usize> = Vec::new();
        idx.filter_alive(&mut empty);
        assert!(empty.is_empty());
        idx.remove_doc(2);
        idx.filter_alive(&mut empty);
        assert!(empty.is_empty());
        // Mixed liveness drops exactly the dead ids.
        let mut ids = vec![0, 2, 3];
        idx.filter_alive(&mut ids);
        assert_eq!(ids, vec![0, 3]);
        // All-dead postings filter to nothing.
        for id in 0..idx.len() {
            idx.remove_doc(id);
        }
        let mut all: Vec<usize> = idx.postings("red").to_vec();
        assert!(!all.is_empty(), "raw postings keep tombstoned ids");
        idx.filter_alive(&mut all);
        assert!(all.is_empty());
    }

    /// Postings stay sorted and deduplicated across arbitrary
    /// add/remove/compact cycles (seeded random schedule).
    #[test]
    fn prop_postings_sorted_deduped_across_churn() {
        let alphabet = ["a", "b", "c", "d", "e"];
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for _ in 0..64 {
            let mut idx = InvertedIndex::new();
            for _ in 0..rng.gen_range(5usize..40) {
                match rng.gen_range(0u32..10) {
                    // Mostly adds (duplicate tokens within a doc on
                    // purpose — dedup must hold per posting list).
                    0..=5 => {
                        let len = rng.gen_range(1usize..6);
                        let doc: Vec<String> = (0..len)
                            .map(|_| alphabet[rng.gen_range(0usize..3)].to_string())
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
                for tok in alphabet {
                    let p = idx.postings(tok);
                    assert!(p.windows(2).all(|w| w[0] < w[1]), "postings for {tok} not strictly sorted: {p:?}");
                    assert!(p.iter().all(|&d| d < idx.len()), "posting out of range after compact");
                }
            }
        }
    }

    /// Satellite regression: BM25 must use live-doc statistics, so
    /// scoring after remove (tombstoned) and after remove+compact must
    /// both match a fresh build of the surviving docs bit-for-bit.
    #[test]
    fn bm25_live_stats_survive_remove_and_compact() {
        let queries = [toks("red shoes"), toks("red"), toks("case red shoes women")];
        let mut idx = sample_index();
        idx.remove_doc(1);

        let fresh = InvertedIndex::build(vec![
            toks("red shoes men"),
            toks("red phone case"),
            toks("red red shoes"),
        ]);

        // Tombstoned index: surviving ids are 0, 2, 3 ↔ fresh 0, 1, 2.
        for q in &queries {
            for (old, new) in [(0usize, 0usize), (2, 1), (3, 2)] {
                assert_eq!(
                    idx.bm25(q, old).to_bits(),
                    fresh.bm25(q, new).to_bits(),
                    "tombstoned score drifted for query {q:?} doc {old}"
                );
            }
        }

        // Compacted index: remap says where each doc went.
        let mut compacted = idx.clone();
        let remap = compacted.compact();
        for q in &queries {
            for old in [0usize, 2, 3] {
                let new = remap[old].unwrap();
                assert_eq!(
                    compacted.bm25(q, new).to_bits(),
                    fresh.bm25(q, new).to_bits(),
                    "compacted score drifted for query {q:?} doc {old}->{new}"
                );
            }
        }
    }

    /// The frozen-stats scorer is bit-identical to `bm25`, tombstones or
    /// not.
    #[test]
    fn bm25_scorer_matches_bm25_exactly() {
        let mut idx = sample_index();
        let queries = [toks("red shoes"), toks("red red"), toks("women"), toks("zzz")];
        for round in 0..2 {
            for q in &queries {
                let scorer = idx.bm25_scorer(q);
                for d in 0..idx.len() {
                    assert_eq!(
                        scorer.score(d).to_bits(),
                        idx.bm25(q, d).to_bits(),
                        "scorer drift round {round} query {q:?} doc {d}"
                    );
                }
            }
            idx.remove_doc(1); // second round runs tombstoned
        }
    }

    /// Feeding a scorer its own index's statistics through
    /// `bm25_scorer_from_stats` reproduces `bm25_scorer` bit-for-bit —
    /// the contract the sharded tier's global-statistics hand-off rests
    /// on.
    #[test]
    fn bm25_scorer_from_stats_matches_local_scorer() {
        let mut idx = sample_index();
        idx.remove_doc(1);
        let q = toks("red red shoes women");
        let n = idx.live_len() as f64;
        let terms: Vec<(String, f64)> = q
            .iter()
            .map(|tok| {
                let df = idx.doc_freq(tok) as f64;
                (tok.clone(), ((n - df + 0.5) / (df + 0.5) + 1.0).ln())
            })
            .collect();
        let avg = idx.avg_doc_len().max(1e-9);
        let external = idx.bm25_scorer_from_stats(&terms, avg);
        let local = idx.bm25_scorer(&q);
        for d in 0..idx.len() {
            assert_eq!(external.score(d).to_bits(), local.score(d).to_bits());
        }
    }

    #[test]
    fn fingerprint_tracks_content_not_representation() {
        let a = sample_index();
        let b = sample_index();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = sample_index();
        c.remove_doc(0);
        assert_ne!(a.fingerprint(), c.fingerprint(), "tombstones are content");
        let mut d = sample_index();
        d.add_doc(toks("extra doc"));
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    /// The pre-interning string-level index, kept as the oracle: documents
    /// as token strings, every query answered by scanning them.
    #[derive(Default)]
    struct StringScan {
        docs: Vec<Vec<String>>,
        deleted: Vec<bool>,
    }

    impl StringScan {
        fn add(&mut self, doc: Vec<String>) {
            self.docs.push(doc);
            self.deleted.push(false);
        }

        fn remove(&mut self, id: usize) {
            if id < self.docs.len() {
                self.deleted[id] = true;
            }
        }

        fn compact(&mut self) {
            let live = (0..self.docs.len()).filter(|&i| !self.deleted[i]);
            let docs: Vec<Vec<String>> = live.map(|i| self.docs[i].clone()).collect();
            *self = StringScan::default();
            for d in docs {
                self.add(d);
            }
        }

        fn live(&self) -> impl Iterator<Item = usize> + '_ {
            (0..self.docs.len()).filter(|&i| !self.deleted[i])
        }

        fn postings(&self, tok: &str) -> Vec<usize> {
            (0..self.docs.len()).filter(|&i| self.docs[i].iter().any(|t| t == tok)).collect()
        }

        fn doc_freq(&self, tok: &str) -> usize {
            self.live().filter(|&i| self.docs[i].iter().any(|t| t == tok)).count()
        }

        fn brute_force_and(&self, query: &[String]) -> Vec<usize> {
            self.live().filter(|&i| query.iter().all(|q| self.docs[i].contains(q))).collect()
        }

        /// The string-scan BM25 loop: `tf` by string compares, the length
        /// norm recomputed inside the term loop, duplicates accumulated.
        fn bm25(&self, query: &[String], id: usize) -> f64 {
            const K1: f64 = 1.2;
            const B: f64 = 0.75;
            let n = self.live().count() as f64;
            let tokens: usize = self.live().map(|i| self.docs[i].len()).sum();
            let avg = if n == 0.0 { 0.0 } else { tokens as f64 / n }.max(1e-9);
            let doc = &self.docs[id];
            let dl = doc.len() as f64;
            let mut score = 0.0;
            for tok in query {
                let tf = doc.iter().filter(|t| *t == tok).count() as f64;
                if tf == 0.0 {
                    continue;
                }
                let df = self.doc_freq(tok) as f64;
                let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
                score += idf * (tf * (K1 + 1.0)) / (tf + K1 * (1.0 - B + B * dl / avg));
            }
            score
        }

        /// The fingerprint bytes as the string-level index laid them out.
        fn fingerprint(&self) -> u64 {
            let mut buf = Vec::new();
            for (id, doc) in self.docs.iter().enumerate() {
                buf.extend_from_slice(&(doc.len() as u32).to_le_bytes());
                for t in doc {
                    buf.extend_from_slice(&(t.len() as u32).to_le_bytes());
                    buf.extend_from_slice(t.as_bytes());
                }
                buf.push(u8::from(self.deleted[id]));
            }
            qrw_tensor::serialize::fnv1a64(b"IDX1", &buf)
        }
    }

    /// The interned index agrees with the string-scan oracle under seeded
    /// add / remove / update / compact churn: postings, document
    /// frequencies, AND retrieval, doc tokens, fingerprints, and BM25
    /// scores to the bit (queries carry unknown and duplicate terms). The
    /// linear merged-tree split and the top-k selection agree with the
    /// quadratic filter and the full sort they replaced.
    #[test]
    fn prop_interned_index_matches_string_scan_oracle() {
        use crate::topk::{rank_order, select_top_k};
        use crate::tree::QueryTree;
        // "zz" is never indexed: an unknown query term.
        let alphabet = ["red", "shoes", "men", "case", "blue", "dress", "zz"];
        let word = |rng: &mut StdRng, n: usize| alphabet[rng.gen_range(0usize..n)].to_string();
        let mut rng = StdRng::seed_from_u64(0x1D5);
        for _ in 0..48 {
            let mut idx = InvertedIndex::new();
            let mut oracle = StringScan::default();
            for _ in 0..rng.gen_range(8usize..40) {
                match rng.gen_range(0u32..12) {
                    0..=5 => {
                        let len = rng.gen_range(0usize..6);
                        let doc: Vec<String> = (0..len).map(|_| word(&mut rng, 6)).collect();
                        idx.add_doc(&doc);
                        oracle.add(doc);
                    }
                    6..=7 if !idx.is_empty() => {
                        let id = rng.gen_range(0usize..idx.len() + 1);
                        idx.remove_doc(id);
                        oracle.remove(id);
                    }
                    8..=9 if !idx.is_empty() => {
                        let id = rng.gen_range(0usize..idx.len());
                        let doc: Vec<String> = (0..3).map(|_| word(&mut rng, 6)).collect();
                        idx.remove_doc(id);
                        idx.add_doc(&doc);
                        oracle.remove(id);
                        oracle.add(doc);
                    }
                    _ => {
                        idx.compact();
                        oracle.compact();
                    }
                }

                assert_eq!(idx.len(), oracle.docs.len());
                assert_eq!(idx.live_len(), oracle.live().count());
                assert_eq!(idx.fingerprint(), oracle.fingerprint());
                for (id, doc) in oracle.docs.iter().enumerate() {
                    assert!(idx.doc_tokens(id).eq(doc.iter().map(String::as_str)));
                    assert_eq!(idx.is_alive(id), !oracle.deleted[id]);
                }
                for tok in alphabet {
                    assert_eq!(idx.postings(tok), oracle.postings(tok).as_slice(), "{tok}");
                    assert_eq!(idx.doc_freq(tok), oracle.doc_freq(tok), "{tok}");
                }

                let qlen = rng.gen_range(0usize..5);
                let mut query: Vec<String> = (0..qlen).map(|_| word(&mut rng, 7)).collect();
                if let Some(first) = query.first().cloned() {
                    query.push(first); // a duplicate term accumulates twice
                }
                assert_eq!(idx.brute_force_and(&query), oracle.brute_force_and(&query));
                let scorer = idx.bm25_scorer(&query);
                for id in 0..idx.len() {
                    let want = oracle.bm25(&query, id).to_bits();
                    assert_eq!(scorer.score(id).to_bits(), want, "{query:?} doc {id}");
                    assert_eq!(idx.bm25(&query, id).to_bits(), want, "{query:?} doc {id}");
                }

                let rewrite: Vec<String> = (0..2).map(|_| word(&mut rng, 7)).collect();
                let (base, _) = QueryTree::and_of_tokens(&query).evaluate(&idx);
                let (merged, _) =
                    QueryTree::merge_factored(&[query.clone(), rewrite]).evaluate(&idx);
                let filtered: Vec<usize> =
                    merged.iter().copied().filter(|d| !base.contains(d)).collect();
                assert_eq!(difference_sorted(&merged, &base), filtered);

                let scored: Vec<(f64, usize)> =
                    merged.iter().map(|&d| (scorer.score(d), d)).collect();
                let mut full = scored.clone();
                full.sort_by(rank_order);
                let n = scored.len();
                for k in [0, 1, n.saturating_sub(1), n, n + 5] {
                    let mut top = scored.clone();
                    select_top_k(&mut top, k);
                    assert_eq!(top, full[..k.min(n)], "k={k} of {n}");
                }
            }
        }
    }

    /// `fingerprint()` bytes predate term interning: these values were
    /// computed by the string-level index and must never drift, or every
    /// persisted recovery check would break.
    #[test]
    fn fingerprint_golden_values() {
        let mut idx = sample_index();
        idx.remove_doc(1);
        idx.add_doc(toks("blue suede shoes"));
        idx.add_doc(Vec::<String>::new());
        assert_eq!(idx.fingerprint(), 0x7fee7d125068b91f);
        idx.compact();
        assert_eq!(idx.fingerprint(), 0x957a3dd4fe3b28f3);
    }

    /// Postings lists always match a brute-force scan over random corpora.
    #[test]
    fn prop_postings_match_brute_force() {
        let alphabet = ["a", "b", "c", "d"];
        let mut rng = StdRng::seed_from_u64(0xD0C5);
        for _ in 0..128 {
            let n_docs = rng.gen_range(1usize..10);
            let docs: Vec<Vec<String>> = (0..n_docs)
                .map(|_| {
                    let len = rng.gen_range(1usize..6);
                    (0..len)
                        .map(|_| alphabet[rng.gen_range(0usize..alphabet.len())].to_string())
                        .collect()
                })
                .collect();
            let idx = InvertedIndex::build(docs.clone());
            for tok in alphabet {
                let expected: Vec<usize> = docs
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| d.iter().any(|t| t == tok))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(idx.postings(tok), expected.as_slice());
            }
        }
    }
}
