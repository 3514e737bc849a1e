//! Contract tests for every `QueryRewriter` implementation: the rule-based
//! baseline, the SimRank click-graph rewriter, the direct q2q model and
//! the two-hop neural pipeline all honor the trait's invariants.

use std::sync::Arc;

use cycle_rewrite::prelude::*;
use qrw_nmt::Seq2Seq;

fn corpus() -> (ClickLog, Dataset) {
    let log = ClickLog::generate(&LogConfig::default());
    let dataset = Dataset::build(&log, &DatasetConfig::default());
    (log, dataset)
}

fn check_contract(rw: &dyn QueryRewriter, queries: &[Vec<String>], k: usize) {
    for q in queries {
        let rewrites = rw.rewrite(q, k);
        assert!(rewrites.len() <= k, "{}: more than k rewrites", rw.name());
        let mut seen = rewrites.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), rewrites.len(), "{}: duplicate rewrites", rw.name());
        for r in &rewrites {
            assert_ne!(r, q, "{}: returned the original query", rw.name());
            assert!(!r.is_empty(), "{}: empty rewrite", rw.name());
        }
    }
    assert!(!rw.name().is_empty());
}

#[test]
fn rule_based_contract() {
    let (log, _) = corpus();
    let rw = RuleBasedRewriter::new(SynonymDict::from_catalog(&log.catalog));
    let queries: Vec<Vec<String>> = log.queries.iter().take(30).map(|q| q.tokens.clone()).collect();
    check_contract(&rw, &queries, 3);
    // Rule-based must cover most catalog-vocabulary queries.
    let covered = queries.iter().filter(|q| !rw.rewrite(q, 3).is_empty()).count();
    assert!(covered * 2 > queries.len(), "only {covered}/{} covered", queries.len());
}

#[test]
fn simrank_contract() {
    let (log, _) = corpus();
    let rw = SimRankRewriter::new(&log);
    let queries: Vec<Vec<String>> = log.queries.iter().take(20).map(|q| q.tokens.clone()).collect();
    check_contract(&rw, &queries, 3);
}

#[test]
fn q2q_untrained_contract() {
    // Even an untrained model must honor the interface invariants.
    let (log, dataset) = corpus();
    let model = Seq2Seq::new(ModelConfig::hybrid(dataset.vocab.len()), 9);
    let rw = Q2QRewriter::new(Arc::new(model), Arc::new(dataset.vocab), 6, 10);
    let queries: Vec<Vec<String>> = log.queries.iter().take(10).map(|q| q.tokens.clone()).collect();
    check_contract(&rw, &queries, 3);
}

#[test]
fn pipeline_untrained_contract() {
    let (log, dataset) = corpus();
    let joint = JointModel::new(
        Seq2Seq::new(ModelConfig::tiny_transformer(dataset.vocab.len()), 11),
        Seq2Seq::new(ModelConfig::tiny_transformer(dataset.vocab.len()), 12),
    );
    let rw = RewritePipeline::new(&joint, &dataset.vocab, 3, 6, 13);
    let queries: Vec<Vec<String>> = log.queries.iter().take(5).map(|q| q.tokens.clone()).collect();
    check_contract(&rw, &queries, 3);
}

#[test]
fn rule_based_beats_nothing_on_polysemy_under_oracle() {
    // The oracle notices the rule-based "cherry" trap: fruit-context
    // cherry queries rewritten to the brand score lower than audience
    // rewrites score on audience queries.
    let (log, _) = corpus();
    let catalog = &log.catalog;
    let rw = RuleBasedRewriter::new(SynonymDict::from_catalog(catalog));
    let audience_q: Vec<String> = "phone for grandpa".split_whitespace().map(String::from).collect();
    let audience_rewrites = rw.rewrite(&audience_q, 3);
    assert!(!audience_rewrites.is_empty());
    let rel = qrw_metrics::rewrite_set_relevance(catalog, &audience_q, &audience_rewrites);
    assert!(rel > 0.5, "audience substitution should be judged relevant: {rel}");
}
