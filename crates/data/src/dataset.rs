//! Training datasets derived from the click log.
//!
//! Produces the three corpora the paper trains on:
//! * query→title pairs for the forward model (and reversed for the
//!   backward model) — §III-B,
//! * synonymous query pairs for the direct query→query serving model,
//!   mined as queries sharing at least `q2q_shared_clicks` clicks on the
//!   same item — §III-G,
//! * a held-out evaluation split of queries.

use qrw_tensor::rng::StdRng;

use qrw_text::{tokenize, Vocab};

use crate::generator::ClickLog;

/// One weighted translation training pair (token ids, no specials).
#[derive(Clone, Debug)]
pub struct Pair {
    pub src: Vec<usize>,
    pub tgt: Vec<usize>,
    /// Click count; used for frequency-proportional sampling.
    pub weight: u32,
}

/// The assembled dataset.
pub struct Dataset {
    /// Shared vocabulary over queries and titles.
    pub vocab: Vocab,
    /// Query→title pairs (the forward direction; swap for backward).
    pub q2t: Vec<Pair>,
    /// Synonymous query pairs for the §III-G direct model.
    pub q2q: Vec<Pair>,
    /// Indices (into `log.queries`) held out for evaluation.
    pub eval_queries: Vec<usize>,
    /// Indices used for training.
    pub train_queries: Vec<usize>,
}

/// Dataset assembly parameters.
#[derive(Clone, Copy, Debug)]
pub struct DatasetConfig {
    /// Fraction of distinct queries held out for evaluation.
    pub eval_fraction: f64,
    /// Minimum shared clicks on one item for two queries to count as
    /// synonymous (§III-G mining rule).
    pub q2q_shared_clicks: u32,
    /// Vocabulary minimum token count.
    pub min_token_count: usize,
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig { eval_fraction: 0.15, q2q_shared_clicks: 2, min_token_count: 1, seed: 31 }
    }
}

impl Dataset {
    /// Builds the dataset from a click log.
    pub fn build(log: &ClickLog, config: &DatasetConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Split queries into train/eval.
        let mut order: Vec<usize> = (0..log.queries.len()).collect();
        rng.shuffle(&mut order);
        let n_eval = ((log.queries.len() as f64) * config.eval_fraction).round() as usize;
        let eval_queries: Vec<usize> = order[..n_eval].to_vec();
        let train_queries: Vec<usize> = order[n_eval..].to_vec();
        let is_train = {
            let mut mask = vec![false; log.queries.len()];
            for &q in &train_queries {
                mask[q] = true;
            }
            mask
        };

        // Vocabulary over every query and title (train + eval: the paper's
        // models see all production vocabulary; eval queries are unseen
        // *pairs*, not unseen tokens).
        let query_texts: Vec<Vec<String>> =
            log.queries.iter().map(|q| q.tokens.clone()).collect();
        let title_texts: Vec<Vec<String>> = log
            .catalog
            .items
            .iter()
            .map(|i| i.title_tokens.clone())
            .collect();
        let all: Vec<&[String]> = query_texts
            .iter()
            .map(Vec::as_slice)
            .chain(title_texts.iter().map(Vec::as_slice))
            .collect();
        let vocab = Vocab::build(all.iter().copied(), config.min_token_count);

        // Query→title pairs from train-split click edges.
        let mut q2t = Vec::new();
        for pair in &log.pairs {
            if !is_train[pair.query] {
                continue;
            }
            let q = &log.queries[pair.query];
            let title = &log.catalog.item(pair.item).title_tokens;
            q2t.push(Pair {
                src: vocab.encode(&q.tokens),
                tgt: vocab.encode(title),
                weight: pair.clicks,
            });
        }

        // §III-G q2q mining: queries sharing enough clicks on one item.
        let mut q2q = Vec::new();
        // Items in id order: which item a pair is first mined from fixes
        // its weight, so hash-map order would vary the data per process.
        let mut by_item: std::collections::BTreeMap<usize, Vec<(usize, u32)>> =
            std::collections::BTreeMap::new();
        for pair in &log.pairs {
            if is_train[pair.query] {
                by_item.entry(pair.item).or_default().push((pair.query, pair.clicks));
            }
        }
        let mut seen = std::collections::HashSet::new();
        for clickers in by_item.values() {
            for (i, &(qa, ca)) in clickers.iter().enumerate() {
                for &(qb, cb) in &clickers[i + 1..] {
                    if qa == qb || ca.min(cb) < config.q2q_shared_clicks {
                        continue;
                    }
                    if !seen.insert((qa.min(qb), qa.max(qb))) {
                        continue;
                    }
                    let a = vocab.encode(&log.queries[qa].tokens);
                    let b = vocab.encode(&log.queries[qb].tokens);
                    let w = ca.min(cb);
                    // Both directions: the q2q model is symmetric data-wise.
                    q2q.push(Pair { src: a.clone(), tgt: b.clone(), weight: w });
                    q2q.push(Pair { src: b, tgt: a, weight: w });
                }
            }
        }

        Dataset { vocab, q2t, q2q, eval_queries, train_queries }
    }

    /// Encodes arbitrary text with this dataset's vocabulary.
    pub fn encode_text(&self, text: &str) -> Vec<usize> {
        self.vocab.encode(&tokenize(text))
    }

    /// Decodes ids back to text.
    pub fn decode(&self, ids: &[usize]) -> String {
        self.vocab.decode(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::LogConfig;

    fn dataset() -> (ClickLog, Dataset) {
        let log = ClickLog::generate(&LogConfig::default());
        let ds = Dataset::build(&log, &DatasetConfig::default());
        (log, ds)
    }

    #[test]
    fn splits_are_disjoint_and_cover() {
        let (log, ds) = dataset();
        let mut all: Vec<usize> =
            ds.eval_queries.iter().chain(&ds.train_queries).copied().collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..log.queries.len()).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn q2t_pairs_only_from_train_split(){
        let (_log, ds) = dataset();
        assert!(!ds.q2t.is_empty());
        // Evaluation queries must not leak into training sources.
        // (Checked indirectly: every q2t pair decodes to a train query.)
        let train_texts: std::collections::HashSet<String> = {
            let (log, _) = dataset();
            ds.train_queries.iter().map(|&q| log.queries[q].text()).collect()
        };
        let (log2, _) = dataset();
        let _ = log2;
        for p in &ds.q2t {
            let text = ds.decode(&p.src);
            assert!(train_texts.contains(&text), "{text} is not a train query");
        }
    }

    #[test]
    fn q2q_pairs_are_symmetric_and_same_category_mostly() {
        let (log, ds) = dataset();
        assert!(!ds.q2q.is_empty(), "no q2q pairs mined");
        assert_eq!(ds.q2q.len() % 2, 0);
        // Queries that co-click the same items are nearly always the same
        // category (noise can create rare exceptions).
        let text_to_cat: std::collections::HashMap<String, usize> =
            log.queries.iter().map(|q| (q.text(), q.category)).collect();
        let mut same = 0;
        let mut total = 0;
        for p in &ds.q2q {
            let a = text_to_cat[&ds.decode(&p.src)];
            let b = text_to_cat[&ds.decode(&p.tgt)];
            total += 1;
            if a == b {
                same += 1;
            }
        }
        assert!(same as f64 / total as f64 > 0.9, "{same}/{total}");
    }

    #[test]
    fn vocab_roundtrips_queries() {
        let (log, ds) = dataset();
        for q in &log.queries {
            let ids = ds.vocab.encode(&q.tokens);
            assert_eq!(ds.vocab.decode(&ids), q.text());
        }
    }

    #[test]
    fn deterministic() {
        let (_l1, a) = dataset();
        let (_l2, b) = dataset();
        let triples = |pairs: &[Pair]| -> Vec<_> {
            pairs.iter().map(|p| (p.src.clone(), p.tgt.clone(), p.weight)).collect()
        };
        assert_eq!(a.eval_queries, b.eval_queries);
        assert_eq!(triples(&a.q2t), triples(&b.q2t));
        assert_eq!(triples(&a.q2q), triples(&b.q2q));
    }

    #[test]
    fn weights_are_click_counts() {
        let (_log, ds) = dataset();
        assert!(ds.q2t.iter().all(|p| p.weight >= 2));
    }
}
