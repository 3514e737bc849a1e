//! Reproductions of the paper's tables (I, II, III, IV, V, VI, VII, VIII).
//!
//! Each function returns structured results with a `Display` that prints
//! the table next to the paper's reported values. Absolute numbers differ
//! (our substrate is a synthetic corpus and a from-scratch CPU NN library);
//! the *shape* — who wins, directions of deltas — is what reproduces.

use std::time::Instant;

use qrw_baseline::RuleBasedRewriter;
use qrw_core::{HyperparamTable, JointModel, QueryRewriter, RewritePipeline};
use qrw_data::{DataStats, QueryKind, SynonymDict};
use qrw_metrics::{human_eval, evaluate_rewriter, RewriterReport, WinTieLose};
use qrw_nmt::{ComponentKind, ModelConfig, Seq2Seq};
use qrw_search::{run_ab, AbConfig, AbOutcome};
use qrw_text::BOS;

use crate::experiment::System;

/// Table I: dataset statistics.
pub fn table1(sys: &System) -> DataStats {
    DataStats::compute(&sys.data.log)
}

/// Table II: model hyper-parameters (scaled analog of the paper's).
pub fn table2(sys: &System) -> HyperparamTable {
    HyperparamTable::new(sys.joint.forward.config().clone(), sys.joint.backward.config().clone())
}

/// One example row of Tables III/IV.
#[derive(Clone, Debug)]
pub struct ExampleRow {
    pub original: String,
    pub synthetic_title: String,
    pub rewritten: String,
}

/// Example-case table (Table III for the separate model, Table IV for the
/// joint model, depending on which model is passed).
pub fn example_cases(sys: &System, model: &JointModel, n: usize) -> Vec<ExampleRow> {
    let pipeline = RewritePipeline::new(
        model,
        &sys.data.dataset.vocab,
        sys.scale.train.beam_width,
        sys.scale.train.top_n,
        sys.scale.seed ^ 0xcafe,
    );
    let mut rows = Vec::new();
    // Hard queries first — the paper's showcase.
    let mut queries: Vec<&qrw_data::GeneratedQuery> = sys
        .data
        .log
        .queries
        .iter()
        .filter(|q| {
            matches!(
                q.kind,
                QueryKind::HardAudience | QueryKind::BrandAlias | QueryKind::Polysemous
            )
        })
        .collect();
    queries.sort_by_key(|q| std::cmp::Reverse(q.frequency));
    for q in queries {
        if rows.len() >= n {
            break;
        }
        let ids = sys.data.dataset.vocab.encode(&q.tokens);
        let rewrites = pipeline.rewrite_ids(&ids);
        let Some(best) = rewrites.first() else { continue };
        rows.push(ExampleRow {
            original: q.text(),
            synthetic_title: best.via_title.join(" "),
            rewritten: best.tokens.join(" "),
        });
    }
    rows
}

pub fn format_examples(rows: &[ExampleRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} | {:<44} | {:<26}\n",
        "Original Query", "Synthetic Item Title", "Rewritten Query"
    ));
    out.push_str(&format!("{:-<26}-+-{:-<44}-+-{:-<26}\n", "", "", ""));
    for r in rows {
        out.push_str(&format!(
            "{:<26} | {:<44} | {:<26}\n",
            r.original,
            truncate(&r.synthetic_title, 44),
            r.rewritten
        ));
    }
    out
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n - 1])
    }
}

/// One Table V cell: encoder and decoder latency of an architecture.
#[derive(Clone, Copy, Debug)]
pub struct LatencyRow {
    pub kind: ComponentKind,
    pub encoder_ms: f64,
    pub decoder_ms: f64,
}

/// Table V: latency of RNN / GRU / Transformer encoders and decoders at
/// the paper's measurement config (1 layer, vocab 3000, beam 3, 15 decode
/// steps).
pub fn table5(reps: usize) -> Vec<LatencyRow> {
    assert!(reps > 0);
    let src: Vec<usize> = (10..22).collect(); // 12-token source
    [ComponentKind::Rnn, ComponentKind::Gru, ComponentKind::Transformer]
        .into_iter()
        .map(|kind| {
            let mut model = Seq2Seq::new(ModelConfig::latency_bench(kind, kind), 99);
            // Table V reproduces the *paper's* measurement, which recomputed
            // the full prefix at every transformer decode step. Pin that
            // mode so the published RNN-vs-transformer shape survives; the
            // serving default (KV cache) is tracked in BENCH_decode.json.
            model.set_decode_mode(qrw_nmt::TransformerDecodeMode::PrefixRecompute);
            // Warm the allocator and caches before timing.
            let _ = model.encode(&src);
            // Encoder latency.
            let t0 = Instant::now();
            for _ in 0..reps {
                let _ = model.encode(&src);
            }
            let encoder_ms = t0.elapsed().as_secs_f64() * 1000.0 / reps as f64;
            // Decoder latency: beam 3 x 15 steps over a fixed memory.
            // (One untimed warm-up reuse of the same loop body, then reps.)
            let memory = model.encode(&src);
            let mut t0 = Instant::now();
            for rep in 0..reps + 1 {
                if rep == 1 {
                    t0 = Instant::now();
                }
                for beam in 0..3usize {
                    let mut state = model.start_state(&memory);
                    let mut prefix = vec![BOS];
                    for step in 0..15usize {
                        let lp = model.next_log_probs(&memory, &mut state, &prefix);
                        // Deterministic pseudo-choice to extend the prefix.
                        let tok = 10 + ((step + beam) % 12);
                        let _ = lp;
                        prefix.push(tok);
                    }
                }
            }
            let decoder_ms = t0.elapsed().as_secs_f64() * 1000.0 / reps as f64;
            LatencyRow { kind, encoder_ms, decoder_ms }
        })
        .collect()
}

pub fn format_table5(rows: &[LatencyRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<10} {:>14} {:>14}\n", "", "Encoder (ms)", "Decoder (ms)"));
    for r in rows {
        out.push_str(&format!("{:<10} {:>14.3} {:>14.3}\n", r.kind.to_string(), r.encoder_ms, r.decoder_ms));
    }
    out.push_str("paper:     RNN 6/30, GRU 9/35, Transformer 3.5/67.5\n");
    out
}

/// Table VI inputs/outputs: the two pairwise human evaluations, plus the
/// mean oracle relevance per system for transparency.
#[derive(Clone, Copy, Debug)]
pub struct Table6 {
    pub joint_vs_separate: WinTieLose,
    pub joint_vs_rule: WinTieLose,
    pub queries: usize,
    pub mean_rel_joint: f64,
    pub mean_rel_separate: f64,
    pub mean_rel_rule: f64,
}

/// Table VI: oracle ("human") relevance comparison on the queries that
/// also have rule-based synonyms (the paper samples 1000 such queries).
/// Both pipelines decode with the same sampling seed (common random
/// numbers), so the comparison isolates the models, not the dice.
pub fn table6(sys: &System) -> Table6 {
    let dict = SynonymDict::from_catalog(&sys.data.log.catalog);
    let rule = RuleBasedRewriter::new(dict);
    let queries: Vec<Vec<String>> = sys
        .data
        .log
        .queries
        .iter()
        .map(|q| q.tokens.clone())
        .filter(|q| !rule.all_rewrites(q).is_empty())
        .collect();
    let k = sys.scale.train.beam_width;
    let joint_pipeline = RewritePipeline::new(
        &sys.joint,
        &sys.data.dataset.vocab,
        k,
        sys.scale.train.top_n,
        101,
    );
    let separate_pipeline = RewritePipeline::new(
        &sys.separate,
        &sys.data.dataset.vocab,
        k,
        sys.scale.train.top_n,
        101,
    );
    let catalog = &sys.data.log.catalog;
    let joint_vs_separate = human_eval(
        catalog,
        queries.iter(),
        |q| joint_pipeline.rewrite(q, k),
        |q| separate_pipeline.rewrite(q, k),
        0.05,
    );
    let joint_vs_rule = human_eval(
        catalog,
        queries.iter(),
        |q| joint_pipeline.rewrite(q, k),
        |q| rule.rewrite(q, k),
        0.05,
    );
    let mean_rel = |f: &dyn Fn(&[String]) -> Vec<Vec<String>>| {
        let total: f64 = queries
            .iter()
            .map(|q| qrw_metrics::rewrite_set_relevance(catalog, q, &f(q)))
            .sum();
        total / queries.len().max(1) as f64
    };
    Table6 {
        joint_vs_separate,
        joint_vs_rule,
        queries: queries.len(),
        mean_rel_joint: mean_rel(&|q| joint_pipeline.rewrite(q, k)),
        mean_rel_separate: mean_rel(&|q| separate_pipeline.rewrite(q, k)),
        mean_rel_rule: mean_rel(&|q| rule.rewrite(q, k)),
    }
}

impl std::fmt::Display for Table6 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} eval queries with rule-based synonyms", self.queries)?;
        writeln!(f, "Joint vs Separate : {}", self.joint_vs_separate)?;
        writeln!(f, "Joint vs Rule     : {}", self.joint_vs_rule)?;
        writeln!(
            f,
            "mean oracle relevance: joint {:.3}, separate {:.3}, rule {:.3}",
            self.mean_rel_joint, self.mean_rel_separate, self.mean_rel_rule
        )?;
        write!(f, "paper: joint-vs-separate 22/49/29 (L/T/W), joint-vs-rule 29/60/11")
    }
}

/// Table VII: F1 / edit distance / cosine for the three systems.
pub fn table7(sys: &System) -> Vec<RewriterReport> {
    let queries = sys.data.eval_query_tokens();
    let k = sys.scale.train.beam_width;
    let vocab = &sys.data.dataset.vocab;
    let dict = SynonymDict::from_catalog(&sys.data.log.catalog);
    let rule = RuleBasedRewriter::new(dict);
    let joint = RewritePipeline::new(&sys.joint, vocab, k, sys.scale.train.top_n, 103)
        .with_name("joint");
    let separate = RewritePipeline::new(&sys.separate, vocab, k, sys.scale.train.top_n, 103)
        .with_name("separate");
    vec![
        evaluate_rewriter(&rule, &queries, k, vocab, &sys.embeddings),
        evaluate_rewriter(&separate, &queries, k, vocab, &sys.embeddings),
        evaluate_rewriter(&joint, &queries, k, vocab, &sys.embeddings),
    ]
}

pub fn format_table7(reports: &[RewriterReport]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&format!("{r}\n"));
    }
    out.push_str(
        "paper: rule .676/1.767/.711, separate .193/5.340/.660, joint .254/4.821/.668\n",
    );
    out
}

/// Table VIII: the A/B simulation with the joint pipeline as the variant.
pub fn table8(sys: &System, sessions: usize) -> AbOutcome {
    let pipeline = RewritePipeline::new(
        &sys.joint,
        &sys.data.dataset.vocab,
        sys.scale.train.beam_width,
        sys.scale.train.top_n,
        105,
    );
    let cfg = AbConfig { sessions, ..Default::default() };
    run_ab(&sys.data.log, &pipeline, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Scale;

    // One shared smoke system per test binary would be nicer, but tests
    // stay independent; each builds its own tiny system.
    fn smoke() -> System {
        System::build(Scale::smoke())
    }

    #[test]
    fn smoke_tables_run() {
        let sys = smoke();
        let t1 = table1(&sys);
        assert!(t1.query_item_pairs > 0);
        let t2 = table2(&sys);
        assert!(t2.to_string().contains("Dropout"));
        let rows = example_cases(&sys, &sys.joint, 3);
        let formatted = format_examples(&rows);
        assert!(formatted.contains("Original Query"));
        let t6 = table6(&sys);
        assert_eq!(
            t6.joint_vs_separate.total(),
            t6.queries,
            "every query judged exactly once"
        );
        let t7 = table7(&sys);
        assert_eq!(t7.len(), 3);
        let t8 = table8(&sys, 100);
        assert_eq!(t8.control.sessions, 100);
    }
}
