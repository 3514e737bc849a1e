//! Traffic made from the paper's own substrate. The world — the click log,
//! its catalog and the catalog replicated to serving size — is the
//! generator's default one, so every seed serves the same system; the
//! `--seed` argument drives what varies between runs: query draws in
//! proportion to issuance frequency, multi-query sessions and the catalog
//! churn stream.
//!
//! Sizes stay under the generator's ceiling: `ClickLog::generate` does not
//! return for `procedural_categories = 48` or `n_queries = 2000` (its dedup
//! and word-maker retry loops have no exit), so the log keeps the default
//! 12 procedural categories and 400 query intents and serving size comes
//! from replicating item titles instead.

use std::collections::HashMap;
use std::sync::Arc;

use qrw_data::{generate_sessions, ClickLog, Dataset, DatasetConfig, LogConfig, SessionConfig};
use qrw_search::MutationBatch;
use qrw_serve::{mutation_batches, ChurnMix};
use qrw_tensor::rng::StdRng;
use qrw_text::Vocab;

/// Derives an independent sub-seed for one consumer of the run seed
/// (splitmix64 finalizer over seed and stream tag).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generated world every run serves.
pub struct World {
    pub log: ClickLog,
    pub dataset: Dataset,
    pub vocab: Arc<Vocab>,
    /// Distinct query token sequences, most issued first.
    pub queries: Vec<Vec<String>>,
    /// Issuance count of each entry of `queries`.
    pub freqs: Vec<u32>,
}

impl World {
    pub fn generate() -> World {
        let log = ClickLog::generate(&LogConfig::default());
        let mut dataset = Dataset::build(&log, &DatasetConfig::default());
        // `Dataset::build` emits the mined q2q pairs in `HashMap` iteration
        // order, which differs between processes; training on it would give
        // every run a different model, different rewrites and a different
        // retrieval cost. Sorting makes the world the same in every run.
        dataset
            .q2q
            .sort_by(|a, b| (&a.src, &a.tgt, a.weight).cmp(&(&b.src, &b.tgt, b.weight)));
        let vocab = Arc::new(dataset.vocab.clone());
        // Distinct token sequences; intents that phrase identically pool
        // their issuances.
        let mut slot: HashMap<&[String], usize> = HashMap::new();
        let mut queries: Vec<Vec<String>> = Vec::new();
        let mut freqs: Vec<u32> = Vec::new();
        for q in &log.queries {
            match slot.get(q.tokens.as_slice()) {
                Some(&i) => freqs[i] += q.frequency,
                None => {
                    slot.insert(&q.tokens, queries.len());
                    queries.push(q.tokens.clone());
                    freqs.push(q.frequency);
                }
            }
        }
        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.sort_by(|&a, &b| freqs[b].cmp(&freqs[a]).then(a.cmp(&b)));
        let queries = order.iter().map(|&i| queries[i].clone()).collect();
        let freqs = order.iter().map(|&i| freqs[i]).collect();
        World {
            log,
            dataset,
            vocab,
            queries,
            freqs,
        }
    }

    /// Indices of the most-issued half of the distinct queries.
    pub fn head(&self) -> std::ops::Range<usize> {
        0..self.queries.len() / 2
    }

    /// Indices of the least-issued half.
    pub fn tail(&self) -> std::ops::Range<usize> {
        self.queries.len() / 2..self.queries.len()
    }

    /// Share of all issuances carried by `pool`.
    pub fn issuance_share(&self, pool: std::ops::Range<usize>) -> f64 {
        let total: u64 = self.freqs.iter().map(|&f| u64::from(f)).sum();
        let part: u64 = self.freqs[pool].iter().map(|&f| u64::from(f)).sum();
        part as f64 / total.max(1) as f64
    }

    /// `n` queries drawn from `pool` in proportion to issuance frequency.
    pub fn draw(&self, pool: std::ops::Range<usize>, n: usize, seed: u64) -> Vec<Vec<String>> {
        let mut cum = Vec::with_capacity(pool.len());
        let mut total = 0.0f64;
        for &f in &self.freqs[pool.clone()] {
            total += f64::from(f.max(1));
            cum.push(total);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = rng.gen::<f64>() * total;
                let i = cum.partition_point(|&c| c <= x).min(cum.len() - 1);
                self.queries[pool.start + i].clone()
            })
            .collect()
    }

    /// The item titles of the generated catalog, in item order.
    pub fn titles(&self) -> Vec<Vec<String>> {
        self.log
            .catalog
            .items
            .iter()
            .map(|i| i.title_tokens.clone())
            .collect()
    }

    /// `n` catalog documents: the item titles replicated in order, each copy
    /// carrying a unique SKU token so no two documents are identical.
    pub fn replicated_catalog(&self, n: usize) -> Vec<Vec<String>> {
        let titles = self.titles();
        (0..n)
            .map(|i| {
                let mut doc = titles[i % titles.len()].clone();
                doc.push(format!("sku{i:06}"));
                doc
            })
            .collect()
    }

    /// Flattened multi-query sessions, at least `n` requests: each request is
    /// a query plus the session's earlier queries (oldest first).
    pub fn session_requests(&self, n: usize, seed: u64) -> Vec<(Vec<String>, Vec<Vec<String>>)> {
        // Mean session length is 3, so n/2 sessions overshoot n requests.
        let config = SessionConfig {
            sessions: n / 2 + 8,
            min_len: 2,
            max_len: 4,
            drift: 0.3,
            seed,
        };
        let mut out = Vec::with_capacity(n + 8);
        for session in generate_sessions(&self.log, &config) {
            let mut context: Vec<Vec<String>> = Vec::new();
            for qi in session {
                let q = self.log.queries[qi].tokens.clone();
                out.push((q.clone(), context.clone()));
                context.push(q);
            }
        }
        assert!(
            out.len() >= n,
            "session generator produced {} < {n} requests",
            out.len()
        );
        out.truncate(n);
        out
    }

    /// A merchant-feed churn stream against a catalog of `initial_docs`.
    pub fn churn(&self, initial_docs: usize, batches: usize, seed: u64) -> Vec<MutationBatch> {
        mutation_batches(&self.vocab, initial_docs, &ChurnMix::feed(batches, seed))
    }
}
