//! Cross-crate integration: data generation → cyclic training → rewriting
//! → retrieval, at smoke scale.

use cycle_rewrite::prelude::*;
use qrw_bench::experiment::{Scale, System};
use std::sync::OnceLock;

/// One shared smoke system for the whole test binary (training is the
/// expensive part).
fn system() -> &'static System {
    static SYS: OnceLock<System> = OnceLock::new();
    SYS.get_or_init(|| System::build(Scale::smoke()))
}

#[test]
fn training_produces_finite_convergence_curves() {
    let sys = system();
    for curve in [&sys.joint_curve, &sys.separate_curve] {
        assert!(!curve.points.is_empty());
        for p in &curve.points {
            assert!(p.ppl_q2t.is_finite() && p.ppl_q2t > 1.0);
            assert!(p.ppl_t2q.is_finite() && p.ppl_t2q > 1.0);
            assert!((0.0..=1.0).contains(&p.accuracy));
        }
    }
}

#[test]
fn training_improves_over_initialization() {
    let sys = system();
    let first = sys.joint_curve.points.first().unwrap();
    let last = sys.joint_curve.last().unwrap();
    // Perplexity at the end of training must be no worse than the first
    // logged point (which is already some steps in).
    assert!(
        last.ppl_q2t <= first.ppl_q2t * 1.5,
        "q2t diverged: {} -> {}",
        first.ppl_q2t,
        last.ppl_q2t
    );
    assert!(last.ppl_t2q.is_finite());
}

#[test]
fn pipeline_rewrites_eval_queries() {
    let sys = system();
    let pipeline = RewritePipeline::new(&sys.joint, &sys.data.dataset.vocab, 3, 6, 42);
    let queries = sys.data.eval_query_tokens();
    let mut produced = 0;
    for q in queries.iter().take(5) {
        let rewrites = pipeline.rewrite(q, 3);
        for rw in &rewrites {
            assert_ne!(rw, q, "rewrite equals original");
            assert!(!rw.is_empty());
        }
        produced += rewrites.len();
    }
    assert!(produced > 0, "pipeline produced no rewrites at all");
}

#[test]
fn rewrites_feed_retrieval_with_extra_candidates() {
    let sys = system();
    let engine = SearchEngine::new(InvertedIndex::build(
        sys.data.log.catalog.items.iter().map(|i| i.title_tokens.clone()),
    ));
    let pipeline = RewritePipeline::new(&sys.joint, &sys.data.dataset.vocab, 3, 6, 43);
    let cfg = ServingConfig::default();
    let mut any_extra = false;
    for q in sys.data.log.queries.iter().take(20) {
        let ladder = RewriteLadder { online: Some(&pipeline), ..Default::default() };
        let resp =
            engine.search_resilient(&q.tokens, ladder, &cfg, &DeadlineBudget::unlimited(), None);
        // Invariants regardless of model quality:
        assert!(resp.ranked.len() <= cfg.top_k);
        assert!(resp.rewrites_used.len() <= cfg.max_rewrites);
        any_extra |= resp.extra_candidates > 0;
    }
    assert!(any_extra, "no query ever gained extra candidates from rewrites");
}

#[test]
fn ab_simulation_runs_on_trained_pipeline() {
    let sys = system();
    let pipeline = RewritePipeline::new(&sys.joint, &sys.data.dataset.vocab, 3, 6, 44);
    let out = run_ab(&sys.data.log, &pipeline, &AbConfig { sessions: 150, ..Default::default() });
    assert_eq!(out.control.sessions, 150);
    assert_eq!(out.variant.sessions, 150);
    // Variant retrieval is a superset; clicks cannot systematically drop
    // below control by more than noise allows with common random numbers.
    assert!(out.variant.clicks + 10 >= out.control.clicks);
}

#[test]
fn full_metric_report_has_three_systems() {
    let sys = system();
    let reports = qrw_bench::tables::table7(sys);
    assert_eq!(reports.len(), 3);
    let names: Vec<&str> = reports.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, vec!["rule-based", "separate", "joint"]);
    for r in &reports {
        assert!(r.f1 >= 0.0 && r.f1 <= 1.0);
        assert!(r.edit_distance >= 0.0);
        assert!(r.cosine >= -1.0 && r.cosine <= 1.0);
    }
}
