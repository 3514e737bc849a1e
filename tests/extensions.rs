//! Integration tests for the extension features: the §V GPT-style LM
//! rewriter, model persistence, and parallel training.

use cycle_rewrite::prelude::*;
use cycle_rewrite::core::{
    load_joint, make_lm, save_joint, train_lm, LmCorpus, LmRewriter, LmTrainConfig,
};
use qrw_nmt::{CausalLm, CausalLmConfig, Seq2Seq};

fn corpus() -> (ClickLog, Dataset, LmCorpus) {
    let log = ClickLog::generate(&LogConfig::tiny());
    let dataset = Dataset::build(&log, &DatasetConfig::default());
    let corpus = LmCorpus::build(&log, &dataset);
    (log, dataset, corpus)
}

#[test]
fn lm_end_to_end_train_and_rewrite() {
    let (log, _ds, corpus) = corpus();
    let lm = CausalLm::new(CausalLmConfig::tiny(corpus.vocab.len()), 4);
    let cfg = LmTrainConfig { steps: 60, batch_size: 4, eval_every: 0, ..Default::default() };
    let curve = train_lm(&lm, &corpus, 4, &cfg);
    assert!(curve.last().unwrap().ppl.is_finite());

    let rw = LmRewriter::new(&lm, &corpus, 6, 5);
    let mut produced = 0;
    for q in log.queries.iter().take(8) {
        let rewrites = rw.rewrite(&q.tokens, 3);
        for r in &rewrites {
            assert_ne!(*r, q.tokens);
            assert!(r.iter().all(|t| t != "<sep1>" && t != "<sep2>"));
        }
        produced += rewrites.len();
    }
    assert!(produced > 0, "trained LM produced no rewrites");
}

#[test]
fn lm_rewriter_feeds_search_engine() {
    let (log, _ds, corpus) = corpus();
    let lm = make_lm(&corpus, 5);
    let rw = LmRewriter::new(&lm, &corpus, 6, 6);
    let engine = SearchEngine::new(InvertedIndex::build(
        log.catalog.items.iter().map(|i| i.title_tokens.clone()),
    ));
    // Even untrained, the serving stack must accept LM output gracefully.
    for q in log.queries.iter().take(5) {
        let ladder = RewriteLadder { online: Some(&rw), ..Default::default() };
        let cfg = ServingConfig::default();
        let resp =
            engine.search_resilient(&q.tokens, ladder, &cfg, &DeadlineBudget::unlimited(), None);
        assert!(resp.ranked.len() <= 10);
    }
}

#[test]
fn persistence_roundtrips_through_disk() {
    let dir = std::env::temp_dir().join(format!("qrw-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stem = dir.join("joint-it");

    let cfg = ModelConfig::tiny_transformer(30);
    let trained = JointModel::new(Seq2Seq::new(cfg.clone(), 1), Seq2Seq::new(cfg.clone(), 2));
    save_joint(&trained, &stem).unwrap();

    let restored = JointModel::new(Seq2Seq::new(cfg.clone(), 8), Seq2Seq::new(cfg, 9));
    load_joint(&restored, &stem).unwrap();

    // The restored pipeline rewrites identically to the original.
    let mut vocab = Vocab::new();
    for i in 0..26 {
        vocab.insert(&format!("w{i}"));
    }
    let a = RewritePipeline::new(&trained, &vocab, 2, 6, 42).rewrite_ids(&[5, 6]);
    let b = RewritePipeline::new(&restored, &vocab, 2, 6, 42).rewrite_ids(&[5, 6]);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.ids, y.ids);
        assert!((x.log_prob - y.log_prob).abs() < 1e-5);
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn parallel_and_serial_training_both_converge() {
    let log = ClickLog::generate(&LogConfig::tiny());
    let dataset = Dataset::build(&log, &DatasetConfig::default());
    let run = |parallel: bool| {
        let cfg = ModelConfig::tiny_transformer(dataset.vocab.len());
        let joint =
            JointModel::new(Seq2Seq::new(cfg.clone(), 1), Seq2Seq::new(cfg, 2));
        let tc = TrainConfig {
            steps: 30,
            warmup_steps: 20,
            batch_size: 4,
            eval_every: 0,
            top_n: 5,
            parallel,
            ..Default::default()
        };
        let mut trainer = CyclicTrainer::new(tc, 32);
        let eval: Vec<_> = dataset.q2t.iter().take(4).cloned().collect();
        let before = trainer.evaluate(&joint, &eval);
        let curve = trainer.train(&joint, &dataset.q2t, &eval, TrainMode::Joint);
        (before.ppl_q2t, curve.last().unwrap().ppl_q2t)
    };
    let (serial_before, serial_after) = run(false);
    let (par_before, par_after) = run(true);
    assert_eq!(serial_before, par_before, "same init and eval");
    assert!(serial_after < serial_before);
    assert!(par_after < par_before);
}
