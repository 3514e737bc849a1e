//! Offline retrieval-quality metrics: recall@k and MRR against a
//! ground-truth relevant set.
//!
//! The paper evaluates retrieval end-to-end through business metrics
//! (Table VIII); these offline metrics make the same comparison
//! inspectable per query — the serving example and integration tests use
//! them to show *why* rewrites move UCVR (they recover relevant items the
//! AND tree missed).

use std::collections::HashSet;

/// Fraction of the relevant set retrieved within the top `k` results.
/// 0 when the relevant set is empty.
pub fn recall_at_k(ranked: &[usize], relevant: &HashSet<usize>, k: usize) -> f64 {
    if relevant.is_empty() {
        return 0.0;
    }
    let hits = ranked.iter().take(k).filter(|d| relevant.contains(d)).count();
    hits as f64 / relevant.len() as f64
}

/// Reciprocal rank of the first relevant result (0 when none appears).
pub fn reciprocal_rank(ranked: &[usize], relevant: &HashSet<usize>) -> f64 {
    ranked
        .iter()
        .position(|d| relevant.contains(d))
        .map(|pos| 1.0 / (pos + 1) as f64)
        .unwrap_or(0.0)
}

/// Aggregated retrieval quality over a query workload.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RetrievalQuality {
    pub recall_at_10: f64,
    pub mrr: f64,
    pub queries: usize,
}

/// Accumulates per-query measurements into workload averages.
#[derive(Clone, Debug, Default)]
pub struct QualityAccumulator {
    recall_sum: f64,
    rr_sum: f64,
    queries: usize,
}

impl QualityAccumulator {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, ranked: &[usize], relevant: &HashSet<usize>) {
        self.recall_sum += recall_at_k(ranked, relevant, 10);
        self.rr_sum += reciprocal_rank(ranked, relevant);
        self.queries += 1;
    }

    pub fn finish(&self) -> RetrievalQuality {
        let n = self.queries.max(1) as f64;
        RetrievalQuality {
            recall_at_10: self.recall_sum / n,
            mrr: self.rr_sum / n,
            queries: self.queries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[usize]) -> HashSet<usize> {
        ids.iter().copied().collect()
    }

    #[test]
    fn recall_reference_values() {
        let relevant = set(&[1, 2, 3, 4]);
        assert_eq!(recall_at_k(&[1, 9, 2], &relevant, 10), 0.5);
        assert_eq!(recall_at_k(&[1, 9, 2], &relevant, 1), 0.25);
        assert_eq!(recall_at_k(&[9, 8], &relevant, 10), 0.0);
        assert_eq!(recall_at_k(&[1], &set(&[]), 10), 0.0);
    }

    #[test]
    fn mrr_reference_values() {
        let relevant = set(&[5]);
        assert_eq!(reciprocal_rank(&[5, 1, 2], &relevant), 1.0);
        assert_eq!(reciprocal_rank(&[1, 5], &relevant), 0.5);
        assert_eq!(reciprocal_rank(&[1, 2, 3, 5], &relevant), 0.25);
        assert_eq!(reciprocal_rank(&[1, 2], &relevant), 0.0);
    }

    #[test]
    fn accumulator_averages() {
        let mut acc = QualityAccumulator::new();
        acc.add(&[1], &set(&[1]));
        acc.add(&[9], &set(&[1]));
        let q = acc.finish();
        assert_eq!(q.queries, 2);
        assert!((q.recall_at_10 - 0.5).abs() < 1e-12);
        assert!((q.mrr - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_accumulator_is_zero() {
        let q = QualityAccumulator::new().finish();
        assert_eq!(q, RetrievalQuality { recall_at_10: 0.0, mrr: 0.0, queries: 0 });
    }

    /// The headline mechanism: on the synthetic catalog, rewrites lift
    /// recall for hard queries relative to the bare AND tree.
    #[test]
    fn rewrites_lift_recall_on_hard_queries() {
        use crate::deadline::DeadlineBudget;
        use crate::index::InvertedIndex;
        use crate::serving::{RewriteLadder, SearchEngine, ServingConfig};
        use qrw_baseline_free::FixedRewriter;

        // Inline micro-fixture (no qrw-baseline dependency from here).
        mod qrw_baseline_free {
            use qrw_core::QueryRewriter;
            pub struct FixedRewriter(pub Vec<Vec<String>>);
            impl QueryRewriter for FixedRewriter {
                fn rewrite(&self, _q: &[String], k: usize) -> Vec<Vec<String>> {
                    self.0.iter().take(k).cloned().collect()
                }
                fn name(&self) -> &str {
                    "fixed"
                }
            }
        }

        let toks = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let engine = SearchEngine::new(InvertedIndex::build(vec![
            toks("senior smartphone black"),
            toks("senior handset golden"),
            toks("smartphone new"),
        ]));
        let relevant = set(&[0, 1]);
        let cfg = ServingConfig::default();
        let q = toks("phone for grandpa");

        let budget = DeadlineBudget::unlimited();
        let serve = |ladder| engine.search_resilient(&q, ladder, &cfg, &budget, None);
        let base = serve(RewriteLadder::default());
        let rw = FixedRewriter(vec![toks("senior smartphone"), toks("senior handset")]);
        let with = serve(RewriteLadder { online: Some(&rw), ..Default::default() });
        assert_eq!(recall_at_k(&base.ranked, &relevant, 10), 0.0);
        assert_eq!(recall_at_k(&with.ranked, &relevant, 10), 1.0);
        assert!(reciprocal_rank(&with.ranked, &relevant) > 0.0);
    }
}
