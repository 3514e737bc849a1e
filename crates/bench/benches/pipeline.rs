//! §III-G serving bench: the two-hop neural pipeline vs the distilled
//! direct q2q model vs the precomputed KV cache — the latency ladder that
//! motivates the paper's online architecture.

use std::sync::Arc;

use qrw_bench::experiment::{make_joint, ExperimentData, Scale};
use qrw_bench::harness::{bench, group};
use qrw_core::{Q2QRewriter, QueryRewriter, RewritePipeline};
use qrw_nmt::{ModelConfig, Seq2Seq};
use qrw_search::RewriteCache;

fn main() {
    let scale = Scale::smoke();
    let data = ExperimentData::build(&scale);
    let vocab = &data.dataset.vocab;
    let joint = make_joint(data.vocab_size(), 5);
    let q2q = Seq2Seq::new(ModelConfig::hybrid(data.vocab_size()), 6);

    let query = data.log.queries[0].tokens.clone();

    group("serving_ladder");

    let pipeline = RewritePipeline::new(&joint, vocab, 3, 8, 1);
    bench("two_hop_pipeline", 1, 10, || {
        std::hint::black_box(pipeline.rewrite(&query, 3));
    });

    let rw = Q2QRewriter::new(Arc::new(q2q), Arc::new(vocab.clone()), 8, 2);
    bench("q2q_direct_hybrid", 1, 10, || {
        std::hint::black_box(rw.rewrite(&query, 3));
    });

    let cache = RewriteCache::new();
    cache.insert(&query, vec![vec!["senior".to_string(), "smartphone".to_string()]]);
    bench("kv_cache_hit", 10, 100, || {
        std::hint::black_box(cache.get(&query));
    });
}
