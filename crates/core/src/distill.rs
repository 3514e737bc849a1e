//! Distill-and-quantize fast path for online serving.
//!
//! The cyclic forward/backward pair (the teacher) is accurate but pays two
//! translation hops per rewrite. For the online rung we distill it into a
//! compact direct q2q student: harvest the teacher pipeline's top rewrites
//! as synthetic `(query → rewrite)` pairs, train a half-width
//! [`ModelConfig::student`] pair on them through the existing
//! [`CyclicTrainer`] (so curves, divergence sentinels and the atomic
//! checkpoint-commit discipline all carry over), then freeze the forward
//! student into the i8 [`QuantStudent`] whose integer microkernels serve
//! the degradation ladder's preferred rung through
//! [`Q2QRewriter`](crate::Q2QRewriter).

use std::path::Path;

use qrw_data::Pair;
use qrw_nmt::{ModelConfig, QuantStudent, Seq2Seq};
use qrw_text::Vocab;

use crate::checkpoint::CheckpointStore;
use crate::config::TrainConfig;
use crate::cyclic::{CyclicTrainer, JointModel, TrainMode, TrainingCurve};
use crate::pipeline::RewritePipeline;

/// Knobs for one distillation run.
#[derive(Clone, Debug)]
pub struct DistillConfig {
    /// Rewrites harvested per query from the teacher pipeline (`k`).
    pub k: usize,
    /// Teacher sampling pool (`n`; paper: 40).
    pub top_n: usize,
    /// Seed for teacher sampling and student initialization.
    pub seed: u64,
    /// Student optimisation schedule, run in [`TrainMode::Separate`]
    /// (supervised distillation; the cyclic joint phase stays with the
    /// teacher). `checkpoint_every` here drives periodic atomic commits
    /// when a checkpoint directory is supplied.
    pub train: TrainConfig,
}

impl Default for DistillConfig {
    fn default() -> Self {
        DistillConfig {
            k: 3,
            top_n: 8,
            seed: 41,
            train: TrainConfig { steps: 120, warmup_steps: 0, eval_every: 30, ..TrainConfig::default() },
        }
    }
}

/// Everything a distillation run produces.
pub struct Distilled {
    /// The trained full-precision student pair (`forward` is the q2q
    /// serving direction; `backward` rewrites back for consistency checks).
    pub joint: JointModel,
    /// The forward student frozen into i8 integer-kernel form.
    pub student: QuantStudent,
    /// Metric curve of the student's training run.
    pub curve: TrainingCurve,
    /// Number of harvested `(query → rewrite)` pairs.
    pub pairs: usize,
}

/// Harvests distillation data: for each query, the teacher pipeline's
/// ranked rewrites become `(query → rewrite)` pairs, weighted by rank so
/// the sampler favours the teacher's best output. Queries the teacher
/// cannot rewrite contribute nothing.
pub fn distill_pairs(teacher: &RewritePipeline<'_>, queries: &[Vec<usize>]) -> Vec<Pair> {
    let mut pairs = Vec::new();
    for q in queries {
        if q.is_empty() {
            continue;
        }
        let rewrites = teacher.rewrite_ids(q);
        let n = rewrites.len();
        for (rank, r) in rewrites.into_iter().enumerate() {
            if r.ids.is_empty() {
                continue;
            }
            pairs.push(Pair { src: q.clone(), tgt: r.ids, weight: (n - rank) as u32 });
        }
    }
    pairs
}

/// Distills `teacher` into a quantized q2q student.
///
/// Harvest → train → quantize. With `checkpoints = Some(dir)` the student
/// run checkpoints through the same atomic-commit [`CheckpointStore`]
/// discipline as teacher training (resumable via [`CyclicTrainer::resume`]),
/// including a final commit after the last step.
pub fn distill_student(
    teacher: &JointModel,
    vocab: &Vocab,
    queries: &[Vec<usize>],
    config: &DistillConfig,
    checkpoints: Option<&Path>,
) -> Result<Distilled, String> {
    let pipeline = RewritePipeline::new(teacher, vocab, config.k, config.top_n, config.seed)
        .with_name("distill-teacher");
    let pairs = distill_pairs(&pipeline, queries);
    if pairs.is_empty() {
        return Err("teacher produced no rewrites to distill from".to_string());
    }
    // Hold out every 5th pair for the curve when there is enough data;
    // with a tiny harvest, evaluate on the training set itself.
    let held: Vec<Pair> =
        pairs.iter().enumerate().filter(|(i, _)| i % 5 == 4).map(|(_, p)| p.clone()).collect();
    let eval: &[Pair] = if held.is_empty() { &pairs } else { &held };

    let student_cfg = ModelConfig::student(teacher.forward.config().vocab);
    let joint = JointModel::new(
        Seq2Seq::new(student_cfg.clone(), config.seed),
        Seq2Seq::new(student_cfg.clone(), config.seed + 1),
    );
    let mut trainer = CyclicTrainer::new(config.train.clone(), student_cfg.d_model);
    if let Some(dir) = checkpoints {
        trainer = trainer.with_checkpoints(CheckpointStore::new(dir));
    }
    let curve = trainer.train(&joint, &pairs, eval, TrainMode::Separate);
    if checkpoints.is_some() {
        trainer
            .save_checkpoint(&joint, TrainMode::Separate)
            .map_err(|e| format!("final distill checkpoint failed: {e}"))?;
    }
    let student = QuantStudent::from_seq2seq(&joint.forward)?;
    Ok(Distilled { joint, student, curve, pairs: pairs.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::testutil::TestDir;
    use qrw_nmt::{ComponentKind, DecodeArena};

    fn tiny_world() -> (JointModel, Vocab, Vec<Vec<usize>>) {
        let mut vocab = Vocab::new();
        for i in 0..12 {
            vocab.insert(&format!("t{i}"));
        }
        let cfg = ModelConfig::tiny_transformer(vocab.len());
        let teacher = JointModel::new(Seq2Seq::new(cfg.clone(), 31), Seq2Seq::new(cfg, 32));
        let queries: Vec<Vec<usize>> =
            (0..6).map(|i| vec![4 + i, 4 + (i + 3) % 12]).collect();
        (teacher, vocab, queries)
    }

    #[test]
    fn harvested_pairs_come_from_the_queries_and_rank_by_weight() {
        let (teacher, vocab, queries) = tiny_world();
        let pipeline = RewritePipeline::new(&teacher, &vocab, 3, 8, 5);
        let pairs = distill_pairs(&pipeline, &queries);
        assert!(!pairs.is_empty(), "an untrained teacher still samples rewrites");
        for p in &pairs {
            assert!(queries.contains(&p.src), "src {:?} is not a harvest query", p.src);
            assert!(!p.tgt.is_empty());
            assert!(p.weight >= 1);
        }
        // Within one query the teacher's best rewrite carries the largest
        // weight (weights descend with rank).
        for q in &queries {
            let ws: Vec<u32> = pairs.iter().filter(|p| &p.src == q).map(|p| p.weight).collect();
            assert!(ws.windows(2).all(|w| w[0] >= w[1]), "weights {ws:?} not descending");
        }
    }

    #[test]
    fn distillation_trains_checkpoints_and_quantizes() {
        let (teacher, vocab, queries) = tiny_world();
        let dir = TestDir::new("distill");
        let config = DistillConfig {
            train: TrainConfig {
                steps: 6,
                warmup_steps: 0,
                batch_size: 4,
                eval_every: 3,
                checkpoint_every: 3,
                ..TrainConfig::default()
            },
            ..DistillConfig::default()
        };
        let out = distill_student(&teacher, &vocab, &queries, &config, Some(dir.path())).unwrap();
        assert!(out.pairs > 0);
        assert!(!out.curve.points.is_empty());
        assert_eq!(out.student.config().vocab, vocab.len());
        assert_eq!(out.student.config().d_model, ModelConfig::student(vocab.len()).d_model);

        // The run committed through the atomic checkpoint store and is
        // resumable into a fresh student of the same shape.
        let store = CheckpointStore::new(dir.path());
        let (step, _) = store.latest_valid().expect("final checkpoint committed");
        assert_eq!(step, 6);
        let fresh_cfg = ModelConfig::student(vocab.len());
        let fresh = JointModel::new(
            Seq2Seq::new(fresh_cfg.clone(), 1),
            Seq2Seq::new(fresh_cfg, 2),
        );
        let (resumed, mode) = CyclicTrainer::resume(dir.path(), &fresh).unwrap();
        assert_eq!(mode, TrainMode::Separate);
        drop(resumed);

        // The quantized student tracks the resumed f32 weights: both come
        // from the same committed bytes.
        let requantized = QuantStudent::from_seq2seq(&fresh.forward).unwrap();
        let src = vec![5usize, 7];
        let (mut arena_a, mut arena_b) = (DecodeArena::default(), DecodeArena::default());
        let mem_a = out.student.encode(&src, &mut arena_a);
        let mem_b = requantized.encode(&src, &mut arena_b);
        assert_eq!(mem_a, mem_b, "checkpointed weights must requantize bit-identically");
    }

    #[test]
    fn student_rewriter_excludes_original_and_dedups() {
        use crate::{Q2QRewriter, QueryRewriter};
        use std::sync::Arc;
        let (_, vocab, _) = tiny_world();
        let model = Seq2Seq::new(ModelConfig::student(vocab.len()), 23);
        let student = Arc::new(QuantStudent::from_seq2seq(&model).unwrap());
        let rw = Q2QRewriter::new(student, Arc::new(vocab), 6, 7);
        assert_eq!(rw.name(), "student-quantized");
        let query: Vec<String> = vec!["t2".into(), "t6".into()];
        let rewrites = rw.rewrite(&query, 3);
        assert!(rewrites.len() <= 3);
        let mut sorted = rewrites.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), rewrites.len());
        assert!(rewrites.iter().all(|r| *r != query));
        // Decode telemetry flows through the trait for serving health.
        let stats = rw.decode_stats().unwrap();
        assert!(stats.tokens > 0, "rewrite() must move the decode counters");
    }

    #[test]
    fn distillation_rejects_non_transformer_students_upstream() {
        // `distill_student` always builds a transformer student; the
        // quantizer's own guard still protects direct misuse.
        let mut cfg = ModelConfig::student(16);
        cfg.dec_kind = ComponentKind::Gru;
        let model = Seq2Seq::new(cfg, 3);
        assert!(QuantStudent::from_seq2seq(&model).is_err());
    }

    #[test]
    fn empty_harvest_is_a_typed_error() {
        let (teacher, vocab, _) = tiny_world();
        let err = distill_student(&teacher, &vocab, &[], &DistillConfig::default(), None)
            .err()
            .expect("no queries -> no pairs");
        assert!(err.contains("no rewrites"), "{err}");
    }
}
