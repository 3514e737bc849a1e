//! # qrw-nmt
//!
//! Neural machine translation substrate for the cycle-consistent
//! query-rewriting reproduction: transformer / attention-RNN / GRU
//! encoder-decoder models composable per component (which yields the
//! paper's Table V grid and the §III-G hybrid), plus the sequence decoding
//! algorithms of §III-F — greedy, beam, the paper's top-n sampling decoder,
//! and diverse beam search.

pub mod config;
pub mod decode;
pub mod layers;
pub mod lm;
pub mod rnn;
pub mod seq2seq;
pub mod student;
pub mod transformer;

pub use config::{ComponentKind, ModelConfig};
pub use decode::{
    beam_search, beam_search_normalized, diverse_beam_search, greedy, length_penalty,
    top_n_sampling, Hypothesis, TopNDecoder, TopNSampling,
};
pub use lm::{CausalLm, CausalLmConfig};
pub use seq2seq::{thread_decode_stats, DecodeState, DecodeStats, Seq2Seq, TransformerDecodeMode};
pub use student::{DecodeArena, QuantStudent, StudentKvCache};
pub use transformer::KvCache;
