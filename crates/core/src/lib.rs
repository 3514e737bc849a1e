//! # qrw-core
//!
//! The paper's primary contribution: **query rewriting as cycle-consistent
//! translation**.
//!
//! * [`cyclic`] — the joint model, the cycle-consistency likelihood
//!   (Eq. 3) with its sampled-subset gradient approximation (Eq. 5), and
//!   the Algorithm 1 trainer with warm-up; produces the Figure 7/8
//!   convergence curves.
//! * [`pipeline`] — the two-stage inference pipeline of §III-E/Figure 3
//!   and the [`pipeline::QueryRewriter`] trait all rewriters implement.
//! * [`q2q`] — training the §III-G direct query→query serving model
//!   (Figure 9).
//! * [`distill`] — the distill-and-quantize fast path: the teacher
//!   pipeline's top rewrites train a compact q2q student that serves
//!   through the i8 integer kernels of `qrw_nmt::student`.
//! * [`context`] — [`Q2QRewriter`], the one q2q serving rewriter over
//!   either model (teacher or student), optionally conditioned on the
//!   session's previous queries, with every request's sampling RNG
//!   seeded from a hash of its context and query.
//! * [`embed`] — SGNS embeddings standing in for the production embedding
//!   model behind Table VII's cosine metric.
//! * [`lm_rewriter`] — the §V GPT-style single-LM alternative
//!   (`query <sep1> title <sep2> query2`), for the ablation bench.
//! * [`config`] — Algorithm 1 / §IV-A hyper-parameters and the Table II
//!   record.
//! * [`checkpoint`] — crash-safe full-state training checkpoints
//!   (versioned directories, manifest commit records, bitwise resume) and
//!   [`fault`] — the deterministic write-fault injector exercising them.

pub mod checkpoint;
pub mod config;
pub mod context;
pub mod cyclic;
pub mod distill;
pub mod embed;
pub mod fault;
pub mod lm_rewriter;
pub mod persist;
pub mod pipeline;
pub mod q2q;

pub use checkpoint::{CheckpointStore, ResumeError, TrainerState};
pub use config::{HyperparamTable, TrainConfig};
pub use context::{encode_session, session_hash, Q2QRewriter};
pub use cyclic::{
    CurvePoint, CyclicTrainer, JointModel, SpikeDetector, SpikeVerdict, TrainHealthReport,
    TrainMode, TrainingCurve,
};
pub use distill::{distill_pairs, distill_student, DistillConfig, Distilled};
pub use embed::{cosine, EmbeddingModel, SgnsConfig};
pub use fault::TrainFaultInjector;
pub use lm_rewriter::{make_lm, train_lm, LmCorpus, LmPoint, LmRewriter, LmTrainConfig};
pub use persist::{load_joint, load_model, save_joint, save_model, DiskSink, WriteSink};
pub use pipeline::{hypotheses_to_rewrites, QueryRewriter, RewritePipeline, ScoredRewrite};
pub use qrw_nmt::{thread_decode_stats, DecodeStats};
pub use q2q::{evaluate_q2q, train_q2q, Q2QPoint, Q2QTrainConfig};
