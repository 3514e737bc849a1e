//! Boolean syntax trees over the inverted index, and the paper's §III-H
//! **merged syntax tree** optimization (Figure 5).
//!
//! Feeding each rewritten query through its own syntax tree multiplies
//! retrieval cost; the paper instead merges the original and rewritten
//! queries into *one* tree whose shared tokens are evaluated once. Two
//! merge strategies are provided:
//!
//! * [`QueryTree::merge_positional`] — the paper's Figure 5 construction:
//!   align queries position by position and OR the diverging tokens
//!   (`red & (mens|man|men) & (sneaker|anklet)`). Cheapest tree; retrieves
//!   a *superset* of the per-query union (the cross products).
//! * [`QueryTree::merge_factored`] — factors tokens common to all queries
//!   into the top-level AND and ORs the per-query remainders. Exactly
//!   recall-preserving (retrieves precisely the union).
//!
//! Under a live catalog (`crate::snapshot`), a tree evaluation must run
//! against a single pinned epoch's index: leaves borrow posting lists
//! from it, so every posting lookup for one evaluation observes the same
//! immutable catalog (the torn-read invariant). `SearchEngine` guarantees
//! this by pinning once per request and threading that epoch's
//! `&InvertedIndex` here.

use std::borrow::Cow;

use crate::index::{intersect_sorted, union_sorted, InvertedIndex};

/// A boolean retrieval tree. `&` nodes intersect children, `|` nodes
/// union them, leaves read posting lists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryTree {
    Token(String),
    And(Vec<QueryTree>),
    Or(Vec<QueryTree>),
}

/// Work counters of one tree evaluation, the quantities §III-H optimizes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetrievalCost {
    /// Posting-list entries scanned (unique leaf evaluations; a repeated
    /// token's postings are charged once).
    pub postings_scanned: usize,
    /// Leaf lookups issued (repeats included).
    pub leaf_lookups: usize,
    /// Set-merge element operations performed.
    pub merge_ops: usize,
}

impl std::ops::Add for RetrievalCost {
    type Output = RetrievalCost;
    fn add(self, rhs: RetrievalCost) -> RetrievalCost {
        RetrievalCost {
            postings_scanned: self.postings_scanned + rhs.postings_scanned,
            leaf_lookups: self.leaf_lookups + rhs.leaf_lookups,
            merge_ops: self.merge_ops + rhs.merge_ops,
        }
    }
}

impl QueryTree {
    /// The standard single-query tree: AND over its tokens.
    pub fn and_of_tokens(query: &[String]) -> Self {
        QueryTree::And(query.iter().cloned().map(QueryTree::Token).collect())
    }

    /// Figure 5 positional merge. All queries should have equal length for
    /// exact-superset semantics (the production case: rewrites are
    /// near-token-for-token); shorter queries simply contribute no token
    /// at trailing positions.
    ///
    /// ```
    /// use qrw_search::QueryTree;
    /// let toks = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
    /// let merged = QueryTree::merge_positional(&[
    ///     toks("red mens sneaker"),
    ///     toks("red man sneaker"),
    ///     toks("red men anklet"),
    /// ]);
    /// assert_eq!(
    ///     merged.to_string(),
    ///     "(red & (mens | man | men) & (sneaker | anklet))"
    /// );
    /// ```
    pub fn merge_positional(queries: &[Vec<String>]) -> Self {
        if queries.is_empty() {
            // Merging nothing matches nothing (empty OR). The serve path
            // must stay total, so this is not an assertion.
            return QueryTree::Or(Vec::new());
        }
        let max_len = queries.iter().map(Vec::len).max().unwrap_or(0);
        let mut groups = Vec::with_capacity(max_len);
        for pos in 0..max_len {
            let mut options: Vec<String> = Vec::new();
            for q in queries {
                if let Some(tok) = q.get(pos) {
                    if !options.contains(tok) {
                        options.push(tok.clone());
                    }
                }
            }
            groups.push(match options.len() {
                1 => QueryTree::Token(options.pop().expect("non-empty")),
                _ => QueryTree::Or(options.into_iter().map(QueryTree::Token).collect()),
            });
        }
        QueryTree::And(groups)
    }

    /// Recall-exact merge: `AND(common tokens) & OR(per-query remainders)`.
    /// Retrieves exactly the union of the individual queries' results.
    pub fn merge_factored(queries: &[Vec<String>]) -> Self {
        if queries.is_empty() {
            // Same totality rule as `merge_positional`.
            return QueryTree::Or(Vec::new());
        }
        // Tokens present in every query (multiset-min occurrences kept
        // simple: set semantics, which AND evaluation matches).
        let mut common: Vec<String> = queries[0].clone();
        common.dedup();
        common.retain(|tok| queries[1..].iter().all(|q| q.contains(tok)));
        common.sort();
        common.dedup();

        let mut remainders = Vec::with_capacity(queries.len());
        for q in queries {
            let rest: Vec<QueryTree> = q
                .iter()
                .filter(|tok| !common.contains(tok))
                .cloned()
                .map(QueryTree::Token)
                .collect();
            remainders.push(match rest.len() {
                0 => QueryTree::And(Vec::new()), // matches everything
                1 => rest.into_iter().next().expect("one element"),
                _ => QueryTree::And(rest),
            });
        }
        let mut children: Vec<QueryTree> =
            common.into_iter().map(QueryTree::Token).collect();
        // An empty remainder means one query is fully covered by the
        // common tokens: the OR would match everything, so drop it.
        if remainders.iter().any(|r| matches!(r, QueryTree::And(v) if v.is_empty())) {
            // The union degenerates to the common-token AND.
        } else if remainders.len() == 1 {
            children.push(remainders.pop().expect("one remainder"));
        } else {
            children.push(QueryTree::Or(remainders));
        }
        QueryTree::And(children)
    }

    /// Total node count (Figure 5's size comparison).
    pub fn node_count(&self) -> usize {
        match self {
            QueryTree::Token(_) => 1,
            QueryTree::And(children) | QueryTree::Or(children) => {
                1 + children.iter().map(QueryTree::node_count).sum::<usize>()
            }
        }
    }

    /// Distinct tokens referenced by the tree.
    pub fn distinct_tokens(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_tokens(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_tokens(&self, out: &mut Vec<String>) {
        match self {
            QueryTree::Token(t) => out.push(t.clone()),
            QueryTree::And(children) | QueryTree::Or(children) => {
                for c in children {
                    c.collect_tokens(out);
                }
            }
        }
    }

    /// Evaluates against the index, returning sorted matching doc ids and
    /// the work counters. Leaves borrow their posting lists from the
    /// index; only `&`/`|` nodes allocate. A repeated token is looked up
    /// again (a borrow is free) but its postings are charged once (the
    /// paper's shared-token saving).
    pub fn evaluate(&self, index: &InvertedIndex) -> (Vec<usize>, RetrievalCost) {
        let mut seen: Vec<u32> = Vec::new();
        let mut cost = RetrievalCost::default();
        let mut docs = self.eval_inner(index, &mut seen, &mut cost).into_owned();
        index.filter_alive(&mut docs);
        (docs, cost)
    }

    fn eval_inner<'i>(
        &self,
        index: &'i InvertedIndex,
        seen: &mut Vec<u32>,
        cost: &mut RetrievalCost,
    ) -> Cow<'i, [usize]> {
        match self {
            QueryTree::Token(tok) => {
                cost.leaf_lookups += 1;
                // A token no document uses has no postings to charge.
                let Some(term) = index.term_id(tok) else { return Cow::Borrowed(&[]) };
                let list = index.term_postings(term);
                if !seen.contains(&term) {
                    seen.push(term);
                    cost.postings_scanned += list.len();
                }
                Cow::Borrowed(list)
            }
            QueryTree::And(children) => {
                let Some((first, rest)) = children.split_first() else {
                    // Empty AND = everything (used by merge_factored).
                    return Cow::Owned((0..index.len()).collect());
                };
                // Intersect in tree order and charge merge_ops for every
                // child even once the accumulator is empty (the actual
                // intersect is skipped — it would be a no-op). Every child
                // is still evaluated, so its leaves are charged too.
                // Tree-order evaluation plus charge-through-empty makes the
                // counters *partition-additive*: evaluated over any
                // disjoint split of the documents, the per-partition costs
                // sum exactly to the monolithic cost. The sharded
                // scatter-gather tier (`crate::shard`) relies on this for
                // byte-identical response costs at every shard count.
                let mut acc = first.eval_inner(index, seen, cost);
                for c in rest {
                    let l = c.eval_inner(index, seen, cost);
                    cost.merge_ops += acc.len() + l.len();
                    if !acc.is_empty() {
                        acc = Cow::Owned(intersect_sorted(&acc, &l));
                    }
                }
                acc
            }
            QueryTree::Or(children) => {
                let mut acc: Cow<'i, [usize]> = Cow::Borrowed(&[]);
                for c in children {
                    let l = c.eval_inner(index, seen, cost);
                    cost.merge_ops += acc.len() + l.len();
                    // The union with an empty accumulator is the child
                    // itself: keep its borrow.
                    acc = if acc.is_empty() { l } else { Cow::Owned(union_sorted(&acc, &l)) };
                }
                acc
            }
        }
    }
}

impl std::fmt::Display for QueryTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryTree::Token(t) => write!(f, "{t}"),
            QueryTree::And(children) => {
                write!(f, "(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            QueryTree::Or(children) => {
                write!(f, "(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrw_tensor::rng::StdRng;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn index() -> InvertedIndex {
        InvertedIndex::build(vec![
            toks("red mens sneaker"),
            toks("red man sneaker"),
            toks("red men anklet"),
            toks("red man anklet"),
            toks("blue mens sneaker"),
            toks("red dress"),
        ])
    }

    #[test]
    fn single_query_tree_matches_brute_force() {
        let idx = index();
        let q = toks("red sneaker");
        let (docs, _) = QueryTree::and_of_tokens(&q).evaluate(&idx);
        assert_eq!(docs, idx.brute_force_and(&q));
    }

    #[test]
    fn figure5_positional_merge_shape() {
        // The exact Figure 5 example.
        let queries =
            vec![toks("red mens sneaker"), toks("red man sneaker"), toks("red men anklet")];
        let merged = QueryTree::merge_positional(&queries);
        assert_eq!(
            merged.to_string(),
            "(red & (mens | man | men) & (sneaker | anklet))"
        );
        // Merged tree is much smaller than three separate trees.
        let separate: usize = queries
            .iter()
            .map(|q| QueryTree::and_of_tokens(q).node_count())
            .sum();
        assert!(merged.node_count() < separate);
    }

    #[test]
    fn positional_merge_is_superset_of_union() {
        let idx = index();
        let queries =
            vec![toks("red mens sneaker"), toks("red man sneaker"), toks("red men anklet")];
        let (merged_docs, _) = QueryTree::merge_positional(&queries).evaluate(&idx);
        for q in &queries {
            let (docs, _) = QueryTree::and_of_tokens(q).evaluate(&idx);
            for d in docs {
                assert!(merged_docs.contains(&d), "doc {d} lost by merged tree");
            }
        }
        // And it picks up the cross product ("red man anklet").
        assert!(merged_docs.contains(&3));
    }

    #[test]
    fn factored_merge_is_exactly_the_union() {
        let idx = index();
        let queries =
            vec![toks("red mens sneaker"), toks("red man sneaker"), toks("red men anklet")];
        let (merged_docs, _) = QueryTree::merge_factored(&queries).evaluate(&idx);
        let mut union: Vec<usize> = Vec::new();
        for q in &queries {
            let (docs, _) = QueryTree::and_of_tokens(q).evaluate(&idx);
            union = union_sorted(&union, &docs);
        }
        assert_eq!(merged_docs, union);
    }

    #[test]
    fn merged_tree_scans_fewer_postings_than_separate_trees() {
        let idx = index();
        let queries =
            vec![toks("red mens sneaker"), toks("red man sneaker"), toks("red men anklet")];
        let mut separate = RetrievalCost::default();
        for q in &queries {
            let (_, c) = QueryTree::and_of_tokens(q).evaluate(&idx);
            separate = separate + c;
        }
        let (_, merged) = QueryTree::merge_positional(&queries).evaluate(&idx);
        assert!(
            merged.postings_scanned < separate.postings_scanned,
            "merged {merged:?} vs separate {separate:?}"
        );
    }

    #[test]
    fn leaf_cache_dedupes_repeated_tokens() {
        let idx = index();
        let tree = QueryTree::And(vec![
            QueryTree::Token("red".into()),
            QueryTree::Or(vec![QueryTree::Token("red".into()), QueryTree::Token("blue".into())]),
        ]);
        let (_, cost) = tree.evaluate(&idx);
        assert_eq!(cost.leaf_lookups, 3);
        // "red" postings (len 5) counted once + "blue" (len 1).
        assert_eq!(cost.postings_scanned, idx.doc_freq("red") + idx.doc_freq("blue"));
    }

    #[test]
    fn empty_and_matches_everything() {
        let idx = index();
        let (docs, _) = QueryTree::And(Vec::new()).evaluate(&idx);
        assert_eq!(docs.len(), idx.len());
    }

    #[test]
    fn merge_single_query_is_plain_and() {
        let q = vec![toks("red shoe")];
        assert_eq!(
            QueryTree::merge_positional(&q),
            QueryTree::and_of_tokens(&q[0])
        );
    }

    #[test]
    fn factored_merge_with_fully_common_query_degenerates() {
        let idx = index();
        // One query is a subset of the other.
        let queries = vec![toks("red"), toks("red sneaker")];
        let (docs, _) = QueryTree::merge_factored(&queries).evaluate(&idx);
        let (red, _) = QueryTree::and_of_tokens(&toks("red")).evaluate(&idx);
        assert_eq!(docs, red); // union = the broader query
    }

    fn rand_tokens(rng: &mut StdRng, len: usize) -> Vec<String> {
        let alphabet = ["a", "b", "c", "d", "e"];
        (0..len)
            .map(|_| alphabet[rng.gen_range(0usize..alphabet.len())].to_string())
            .collect()
    }

    fn rand_corpus(rng: &mut StdRng) -> Vec<Vec<String>> {
        let n = rng.gen_range(1usize..12);
        (0..n)
            .map(|_| {
                let len = rng.gen_range(1usize..5);
                rand_tokens(rng, len)
            })
            .collect()
    }

    /// Factored merge always retrieves exactly the union (64 seeded cases).
    #[test]
    fn prop_factored_merge_equals_union() {
        let mut rng = StdRng::seed_from_u64(0xFAC7);
        for _ in 0..64 {
            let docs = rand_corpus(&mut rng);
            let n_queries = rng.gen_range(1usize..4);
            let queries: Vec<Vec<String>> = (0..n_queries)
                .map(|_| {
                    let len = rng.gen_range(1usize..4);
                    rand_tokens(&mut rng, len)
                })
                .collect();
            let idx = InvertedIndex::build(docs);
            let (merged, _) = QueryTree::merge_factored(&queries).evaluate(&idx);
            let mut union: Vec<usize> = Vec::new();
            for q in &queries {
                let (d, _) = QueryTree::and_of_tokens(q).evaluate(&idx);
                union = union_sorted(&union, &d);
            }
            assert_eq!(merged, union);
        }
    }

    /// One merged-tree evaluation equals N independent per-query
    /// traversals — also under document deletions, and deterministically
    /// (same tree, same index → identical postings *and* identical work
    /// counters). 48 seeded cases.
    #[test]
    fn prop_merged_tree_equals_independent_traversals_under_deletions() {
        let mut rng = StdRng::seed_from_u64(0x7EE5);
        for _ in 0..48 {
            let docs = rand_corpus(&mut rng);
            let n_docs = docs.len();
            let n_queries = rng.gen_range(1usize..4);
            let queries: Vec<Vec<String>> = (0..n_queries)
                .map(|_| {
                    let len = rng.gen_range(1usize..4);
                    rand_tokens(&mut rng, len)
                })
                .collect();
            let mut idx = InvertedIndex::build(docs);
            // Tombstone a random subset; merged and independent paths
            // must agree on the surviving postings.
            for d in 0..n_docs {
                if rng.gen_bool(0.3) {
                    idx.remove_doc(d);
                }
            }
            let mut union: Vec<usize> = Vec::new();
            for q in &queries {
                let (d, _) = QueryTree::and_of_tokens(q).evaluate(&idx);
                union = union_sorted(&union, &d);
            }
            let factored = QueryTree::merge_factored(&queries);
            let (merged, cost_a) = factored.evaluate(&idx);
            assert_eq!(merged, union, "factored merge must equal the union");
            let (again, cost_b) = factored.evaluate(&idx);
            assert_eq!(merged, again, "evaluation must be deterministic");
            assert_eq!(cost_a, cost_b, "work counters must be deterministic");

            // Positional merge is superset-preserving only for
            // equal-length queries (the production case) — draw a
            // separate equal-length set for that half.
            let eq_queries: Vec<Vec<String>> =
                (0..n_queries).map(|_| rand_tokens(&mut rng, 2)).collect();
            let mut eq_union: Vec<usize> = Vec::new();
            for q in &eq_queries {
                let (d, _) = QueryTree::and_of_tokens(q).evaluate(&idx);
                eq_union = union_sorted(&eq_union, &d);
            }
            let (positional, _) = QueryTree::merge_positional(&eq_queries).evaluate(&idx);
            for d in &eq_union {
                assert!(positional.contains(d), "positional merge lost doc {d}");
            }
        }
    }

    /// Positional merge of equal-length queries loses no per-query doc.
    #[test]
    fn prop_positional_merge_superset() {
        let mut rng = StdRng::seed_from_u64(0x9051);
        for _ in 0..64 {
            let docs = rand_corpus(&mut rng);
            let n_queries = rng.gen_range(1usize..4);
            let queries: Vec<Vec<String>> =
                (0..n_queries).map(|_| rand_tokens(&mut rng, 3)).collect();
            let idx = InvertedIndex::build(docs);
            let (merged, _) = QueryTree::merge_positional(&queries).evaluate(&idx);
            for q in &queries {
                let (d, _) = QueryTree::and_of_tokens(q).evaluate(&idx);
                for doc in d {
                    assert!(merged.contains(&doc));
                }
            }
        }
    }
}
