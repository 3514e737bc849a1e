//! # cycle-rewrite
//!
//! A from-scratch Rust reproduction of *"Query Rewriting via
//! Cycle-Consistent Translation for E-Commerce Search"* (ICDE 2021,
//! JD.com).
//!
//! The paper formulates e-commerce query rewriting as a cyclic machine
//! translation problem: a forward model translates queries to item titles,
//! a backward model translates titles back to queries, and a
//! **cycle-consistency likelihood** trains the two jointly so the
//! composition "translates back" to the original query. Decoding with a
//! diversity-forcing **top-n sampling decoder** and rescoring the `k²`
//! candidate queries by the marginalized translate-back probability yields
//! rewrites that are lexically diverse yet semantically faithful — and the
//! serving stack (precomputed KV cache, a distilled direct query→query
//! model with a hybrid transformer-encoder/RNN-decoder, merged syntax
//! trees for the inverted index) makes it deployable.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`tensor`] | CPU tensors + reverse-mode autodiff, Adam, Noam |
//! | [`text`] | vocabulary, tokenizer, n-grams |
//! | [`nmt`] | transformer / attention-RNN / GRU seq2seq + decoders |
//! | [`core`] | cyclic training (Algorithm 1), inference pipeline, q2q, SGNS |
//! | [`data`] | synthetic catalog + click-log generator (the data substitute) |
//! | [`baseline`] | rule-based and SimRank++-style rewriters |
//! | [`search`] | inverted index, merged syntax trees, KV cache, A/B simulator |
//! | [`serve`] | concurrent runtime: admission queue, micro-batched decode, worker pool |
//! | [`obs`] | structured span tracer + mergeable log-bucketed histograms |
//! | [`metrics`] | F1 / edit distance / cosine, oracle human evaluation |
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; in short:
//!
//! ```no_run
//! use cycle_rewrite::prelude::*;
//!
//! // 1. Generate a synthetic click log and derive training data.
//! let log = ClickLog::generate(&LogConfig::default());
//! let dataset = Dataset::build(&log, &DatasetConfig::default());
//!
//! // 2. Build forward (q2t) and backward (t2q) transformers and train
//! //    them jointly with the cycle-consistency objective.
//! let vocab_size = dataset.vocab.len();
//! let joint = JointModel::new(
//!     Seq2Seq::new(ModelConfig::forward_q2t(vocab_size), 1),
//!     Seq2Seq::new(ModelConfig::backward_t2q(vocab_size), 2),
//! );
//! let mut trainer = CyclicTrainer::new(TrainConfig::default(), 48);
//! trainer.train(&joint, &dataset.q2t, &dataset.q2t[..8], TrainMode::Joint);
//!
//! // 3. Rewrite a query through the two-stage pipeline.
//! let pipeline = RewritePipeline::new(&joint, &dataset.vocab, 3, 40, 7);
//! let query = dataset.encode_text("phone for grandpa");
//! for rw in pipeline.rewrite_ids(&query) {
//!     println!("{} (log P = {:.2})", rw.tokens.join(" "), rw.log_prob);
//! }
//! ```

pub use qrw_baseline as baseline;
pub use qrw_core as core;
pub use qrw_data as data;
pub use qrw_metrics as metrics;
pub use qrw_nmt as nmt;
pub use qrw_obs as obs;
pub use qrw_online as online;
pub use qrw_search as search;
pub use qrw_serve as serve;
pub use qrw_tensor as tensor;
pub use qrw_text as text;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use qrw_baseline::{RuleBasedRewriter, SimRankRewriter};
    pub use qrw_core::{
        CheckpointStore, CurvePoint, CyclicTrainer, EmbeddingModel, Fault, Faults, JointModel,
        Q2QRewriter, QueryRewriter, ResumeError, RewritePipeline, SgnsConfig, Site, SpikeDetector,
        SpikeVerdict, TrainConfig, TrainHealthReport, TrainMode, TrainingCurve,
    };
    pub use qrw_data::{
        Catalog, CatalogConfig, ClickLog, DataStats, Dataset, DatasetConfig, LogConfig,
        QueryKind, SynonymDict,
    };
    pub use qrw_metrics::{evaluate_rewriter, human_eval, WinTieLose};
    pub use qrw_nmt::{
        beam_search, diverse_beam_search, greedy, top_n_sampling, ComponentKind, ModelConfig,
        Seq2Seq, TopNSampling,
    };
    pub use qrw_obs::{canonical_structure, Histogram, ObsClock, SpanRecord, Tracer};
    pub use qrw_online::{FeedbackBuffer, FeedbackConfig, OnlineConfig, OnlineLoop, TickReport};
    pub use qrw_search::{
        run_ab, AbConfig, BreakerConfig, BreakerState, Clock, DeadlineBudget, HealthReport,
        InvertedIndex, ModelStore, QueryTree, RewriteCache, RewriteLadder, SearchEngine,
        ServeError, ServingConfig,
    };
    pub use qrw_serve::{
        MixConfig, Outcome, Runtime, RuntimeConfig, ServeStack, ServedRecord, SessionMix, Workload,
    };
    pub use qrw_text::{tokenize, Vocab};
}
