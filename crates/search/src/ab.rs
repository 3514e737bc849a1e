//! The online A/B experiment simulator (Table VIII).
//!
//! The paper runs a 10-day live experiment: the variant adds at most 3
//! rewritten queries per request, each retrieving at most 1000 extra
//! candidates, with both arms sharing the ranking stage. We replace live
//! users with a stochastic behaviour model over the synthetic catalog's
//! ground truth:
//!
//! * sessions sample a query from the log's head/tail frequency mix;
//! * users cascade down the result page, click with probability equal to
//!   the item's ground-truth relevance to their intent, and purchase a
//!   clicked item with a relevance-scaled probability;
//! * a session with no satisfying click reformulates the query (our
//!   reading of the paper's "query rewrite rate": user-issued
//!   reformulations, which *drop* when retrieval improves).
//!
//! Both arms replay identical sessions (common random numbers), so metric
//! deltas come from the retrieval difference alone — the same reason the
//! paper's A/B framework splits traffic randomly.
//!
//! Reported: UCVR (user conversion rate), GMV (gross merchandise value)
//! and QRR (query reformulation rate), as relative deltas.

use qrw_tensor::rng::StdRng;

use qrw_core::QueryRewriter;
use qrw_data::ClickLog;

use crate::deadline::DeadlineBudget;
use crate::index::InvertedIndex;
use crate::serving::{RewriteLadder, SearchEngine, ServingConfig};

/// Simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct AbConfig {
    pub sessions: usize,
    pub seed: u64,
    pub serving: ServingConfig,
    /// Probability a dissatisfied user reformulates instead of leaving.
    pub reformulate_prob: f64,
    /// Base purchase probability scale after a click.
    pub purchase_scale: f64,
}

impl Default for AbConfig {
    fn default() -> Self {
        AbConfig {
            sessions: 4000,
            seed: 71,
            serving: ServingConfig::default(),
            reformulate_prob: 0.6,
            purchase_scale: 0.35,
        }
    }
}

/// Raw counters for one experiment arm.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ArmMetrics {
    pub sessions: usize,
    pub conversions: usize,
    pub gmv: f64,
    pub reformulations: usize,
    pub clicks: usize,
}

impl ArmMetrics {
    /// User conversion rate.
    pub fn ucvr(&self) -> f64 {
        self.conversions as f64 / self.sessions.max(1) as f64
    }

    /// Query reformulation rate.
    pub fn qrr(&self) -> f64 {
        self.reformulations as f64 / self.sessions.max(1) as f64
    }
}

/// Control vs variant outcome with relative deltas.
#[derive(Clone, Copy, Debug)]
pub struct AbOutcome {
    pub control: ArmMetrics,
    pub variant: ArmMetrics,
}

impl AbOutcome {
    pub fn ucvr_delta_pct(&self) -> f64 {
        relative_delta(self.control.ucvr(), self.variant.ucvr())
    }

    pub fn gmv_delta_pct(&self) -> f64 {
        relative_delta(self.control.gmv, self.variant.gmv)
    }

    pub fn qrr_delta_pct(&self) -> f64 {
        relative_delta(self.control.qrr(), self.variant.qrr())
    }
}

fn relative_delta(control: f64, variant: f64) -> f64 {
    if control == 0.0 {
        return 0.0;
    }
    100.0 * (variant - control) / control
}

impl std::fmt::Display for AbOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "UCVR {:+.4}%   GMV {:+.4}%   QRR {:+.4}%",
            self.ucvr_delta_pct(),
            self.gmv_delta_pct(),
            self.qrr_delta_pct()
        )
    }
}

/// Runs the A/B simulation of `rewriter` (variant) against the
/// no-extra-rewrites control.
pub fn run_ab(log: &ClickLog, rewriter: &dyn QueryRewriter, config: &AbConfig) -> AbOutcome {
    let engine = SearchEngine::new(InvertedIndex::build(
        log.catalog.items.iter().map(|i| i.title_tokens.clone()),
    ));

    // Query sampling distribution by log frequency.
    let mut cum = Vec::with_capacity(log.queries.len());
    let mut total = 0.0f64;
    for q in &log.queries {
        total += f64::from(q.frequency);
        cum.push(total);
    }

    let mut control = ArmMetrics::default();
    let mut variant = ArmMetrics::default();
    for session in 0..config.sessions {
        let mut pick_rng = StdRng::seed_from_u64(config.seed ^ (session as u64).wrapping_mul(0x9e37));
        let draw = pick_rng.gen::<f64>() * total;
        let qi = match cum.binary_search_by(|x| x.total_cmp(&draw)) {
            Ok(i) | Err(i) => i.min(log.queries.len() - 1),
        };
        let query = &log.queries[qi];
        // Both arms take the guarded serving path production runs, with
        // no deadline.
        let serve = |ladder| {
            let budget = DeadlineBudget::unlimited();
            engine.search_resilient(&query.tokens, ladder, &config.serving, &budget, None)
        };

        // Control arm: original query only.
        let base = serve(RewriteLadder::default());
        let control_page = rank_like_production(log, qi, &base.candidates, config.serving.top_k);
        simulate_user(
            log,
            qi,
            &control_page,
            config,
            StdRng::seed_from_u64(config.seed ^ (session as u64).wrapping_mul(0x51ed)),
            &mut control,
        );

        // Variant arm: with rewrites (same user randomness, same ranker).
        let resp = serve(RewriteLadder { online: Some(rewriter), ..Default::default() });
        let variant_page = rank_like_production(log, qi, &resp.candidates, config.serving.top_k);
        simulate_user(
            log,
            qi,
            &variant_page,
            config,
            StdRng::seed_from_u64(config.seed ^ (session as u64).wrapping_mul(0x51ed)),
            &mut variant,
        );
    }
    AbOutcome { control, variant }
}

/// The paper's A/B setup sends both arms' candidates through "the same
/// ranking component", a state-of-the-art deep relevance model. We stand
/// that ranker in with the catalog's ground-truth relevance (what a good
/// learned ranker approximates), identically for both arms — so metric
/// deltas isolate the *retrieval* difference, never ranking artifacts.
fn rank_like_production(
    log: &ClickLog,
    query_idx: usize,
    candidates: &[usize],
    top_k: usize,
) -> Vec<usize> {
    let q = &log.queries[query_idx];
    let mut scored: Vec<(f32, f32, usize)> = candidates
        .iter()
        .map(|&item_id| {
            let item = log.catalog.item(item_id);
            let rel = log.catalog.relevance(
                item,
                q.category,
                q.brand,
                q.audience,
                q.attr.as_deref(),
            );
            (rel, item.popularity, item_id)
        })
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.total_cmp(&a.1)).then(a.2.cmp(&b.2)));
    scored.into_iter().take(top_k).map(|(_, _, id)| id).collect()
}

/// Cascade user model over one ranked result page.
fn simulate_user(
    log: &ClickLog,
    query_idx: usize,
    ranked: &[usize],
    config: &AbConfig,
    mut rng: StdRng,
    out: &mut ArmMetrics,
) {
    let q = &log.queries[query_idx];
    out.sessions += 1;
    let mut clicked = false;
    let mut purchased = false;
    for (pos, &item_id) in ranked.iter().enumerate() {
        // Position-biased examination (cascade model).
        let examine = 1.0 / (1.0 + pos as f64 * 0.35);
        if rng.gen::<f64>() > examine {
            continue;
        }
        let item = log.catalog.item(item_id);
        let rel = f64::from(log.catalog.relevance(
            item,
            q.category,
            q.brand,
            q.audience,
            q.attr.as_deref(),
        ));
        if rng.gen::<f64>() < rel {
            clicked = true;
            out.clicks += 1;
            if rng.gen::<f64>() < rel * config.purchase_scale {
                purchased = true;
                out.gmv += f64::from(item.price);
                break; // purchase ends the session
            }
        }
    }
    if purchased {
        out.conversions += 1;
    }
    if !clicked && rng.gen::<f64>() < config.reformulate_prob {
        out.reformulations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrw_data::LogConfig;

    /// An oracle rewriter: maps a query to the title-register phrasing of
    /// its ground-truth intent (an upper bound for any learned model).
    struct OracleRewriter<'l> {
        log: &'l ClickLog,
    }

    impl QueryRewriter for OracleRewriter<'_> {
        fn rewrite(&self, query: &[String], _k: usize) -> Vec<Vec<String>> {
            let Some(q) = self.log.queries.iter().find(|q| q.tokens == query) else {
                return Vec::new();
            };
            let cat = self.log.catalog.category(q.category);
            let mut rw = Vec::new();
            if let Some(aud) = q.audience {
                rw.push(self.log.catalog.audience(aud).title_terms[0].clone());
            }
            if let Some(b) = q.brand {
                rw.push(self.log.catalog.brand(b).formal.clone());
            }
            rw.push(cat.title_terms[0].clone());
            vec![rw]
        }
        fn name(&self) -> &str {
            "oracle"
        }
    }

    struct NoopRewriter;
    impl QueryRewriter for NoopRewriter {
        fn rewrite(&self, _query: &[String], _k: usize) -> Vec<Vec<String>> {
            Vec::new()
        }
        fn name(&self) -> &str {
            "noop"
        }
    }

    #[test]
    fn noop_variant_equals_control() {
        let log = ClickLog::generate(&LogConfig::default());
        let cfg = AbConfig { sessions: 300, ..Default::default() };
        let out = run_ab(&log, &NoopRewriter, &cfg);
        assert_eq!(out.control, out.variant);
        assert_eq!(out.ucvr_delta_pct(), 0.0);
    }

    #[test]
    fn oracle_rewrites_improve_conversion_and_reduce_reformulation() {
        let log = ClickLog::generate(&LogConfig::default());
        let rewriter = OracleRewriter { log: &log };
        let cfg = AbConfig { sessions: 1500, ..Default::default() };
        let out = run_ab(&log, &rewriter, &cfg);
        assert!(
            out.variant.ucvr() >= out.control.ucvr(),
            "UCVR should not degrade: {out}"
        );
        assert!(out.variant.clicks >= out.control.clicks, "{out}");
        assert!(
            out.variant.reformulations <= out.control.reformulations,
            "QRR should drop: {out}"
        );
        // Something actually improved (not all zero deltas).
        assert!(out.variant.clicks > out.control.clicks);
    }

    /// Pins the whole outcome of one oracle run, every `f64` by its bits,
    /// so no change to the serving path both arms take can move Table VIII
    /// unnoticed.
    #[test]
    fn oracle_outcome_is_pinned() {
        let log = ClickLog::generate(&LogConfig::default());
        let cfg = AbConfig { sessions: 600, ..Default::default() };
        let out = run_ab(&log, &OracleRewriter { log: &log }, &cfg);
        let arm = |m: &ArmMetrics| {
            (m.sessions, m.conversions, m.gmv.to_bits(), m.reformulations, m.clicks)
        };
        let deltas = [out.ucvr_delta_pct(), out.gmv_delta_pct(), out.qrr_delta_pct()];
        let got = (arm(&out.control), arm(&out.variant), deltas.map(f64::to_bits));
        let want = (
            (600, 96, 4677969096942026752, 245, 296),
            (600, 285, 4684608790042099712, 36, 973),
            [4641130939819229182, 4640452390939247252, 13859075338499046421],
        );
        assert_eq!(got, want, "{out}");
    }

    #[test]
    fn simulation_is_deterministic() {
        let log = ClickLog::generate(&LogConfig::default());
        let cfg = AbConfig { sessions: 200, ..Default::default() };
        let a = run_ab(&log, &NoopRewriter, &cfg);
        let b = run_ab(&log, &NoopRewriter, &cfg);
        assert_eq!(a.control, b.control);
    }

    #[test]
    fn metrics_rates_bounded() {
        let m = ArmMetrics { sessions: 10, conversions: 3, gmv: 50.0, reformulations: 2, clicks: 5 };
        assert!((m.ucvr() - 0.3).abs() < 1e-12);
        assert!((m.qrr() - 0.2).abs() < 1e-12);
        let empty = ArmMetrics::default();
        assert_eq!(empty.ucvr(), 0.0);
    }

    #[test]
    fn relative_deltas_are_zero_when_the_control_arm_is_zero() {
        // A control arm with no conversions / GMV / reformulations: the
        // relative deltas are defined as 0 rather than dividing by zero.
        let out = AbOutcome {
            control: ArmMetrics { sessions: 100, ..Default::default() },
            variant: ArmMetrics {
                sessions: 100,
                conversions: 5,
                gmv: 50.0,
                reformulations: 3,
                clicks: 9,
            },
        };
        assert_eq!(out.ucvr_delta_pct(), 0.0);
        assert_eq!(out.gmv_delta_pct(), 0.0);
        assert_eq!(out.qrr_delta_pct(), 0.0);
    }

    #[test]
    fn metric_deltas_match_known_values() {
        let out = AbOutcome {
            control: ArmMetrics {
                sessions: 100,
                conversions: 20,
                gmv: 200.0,
                reformulations: 40,
                clicks: 50,
            },
            variant: ArmMetrics {
                sessions: 100,
                conversions: 25,
                gmv: 100.0,
                reformulations: 20,
                clicks: 60,
            },
        };
        assert!((out.ucvr_delta_pct() - 25.0).abs() < 1e-9);
        assert!((out.gmv_delta_pct() + 50.0).abs() < 1e-9);
        assert!((out.qrr_delta_pct() + 50.0).abs() < 1e-9);
    }

    /// Session→query assignment is a pure function of (seed, session):
    /// the variant rewriter observes the identical query sequence across
    /// runs, a different sequence under a different seed, and the mix
    /// covers more than one distinct query.
    #[test]
    fn session_query_assignment_is_deterministic_per_seed() {
        use qrw_tensor::sync::Mutex;

        struct RecordingRewriter {
            seen: Mutex<Vec<Vec<String>>>,
        }
        impl QueryRewriter for RecordingRewriter {
            fn rewrite(&self, query: &[String], _k: usize) -> Vec<Vec<String>> {
                self.seen.lock().push(query.to_vec());
                Vec::new()
            }
            fn name(&self) -> &str {
                "recording"
            }
        }

        let log = ClickLog::generate(&LogConfig::default());
        let sample = |seed: u64| -> Vec<Vec<String>> {
            let rec = RecordingRewriter { seen: Mutex::new(Vec::new()) };
            let cfg = AbConfig { sessions: 64, seed, ..Default::default() };
            run_ab(&log, &rec, &cfg);
            rec.seen.into_inner()
        };
        let a = sample(71);
        let b = sample(71);
        assert_eq!(a.len(), 64, "one variant-arm query per session");
        assert_eq!(a, b, "same seed must assign the same query to every session");

        let c = sample(72);
        assert_ne!(a, c, "a different seed must shuffle the assignment");

        let mut distinct = a.clone();
        distinct.sort();
        distinct.dedup();
        assert!(distinct.len() > 1, "the frequency mix should sample several queries");
    }

    #[test]
    fn display_shows_signed_percentages() {
        let out = AbOutcome {
            control: ArmMetrics { sessions: 100, conversions: 10, gmv: 100.0, reformulations: 20, clicks: 30 },
            variant: ArmMetrics { sessions: 100, conversions: 11, gmv: 102.0, reformulations: 19, clicks: 33 },
        };
        let s = out.to_string();
        assert!(s.contains("UCVR +10."));
        assert!(s.contains("GMV +2."));
        assert!(s.contains("QRR -5."));
    }
}
