//! Query-intent and click-log generation.
//!
//! Mirrors the paper's data regime: a log of (query, clicked item title)
//! pairs with click counts, dominated by head queries but with a long tail
//! of hard natural-language queries; pairs with fewer than `min_clicks`
//! clicks are dropped (the paper drops single-click pairs as accidental).

use qrw_tensor::rng::StdRng;

use crate::catalog::{Catalog, CatalogConfig};

/// How a query is phrased, which controls its difficulty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Brand/category/attr in shared vocabulary; inverted index succeeds.
    Standard,
    /// Natural-language audience query ("phone for grandpa"); the title
    /// register says "senior smartphone" — term mismatch.
    HardAudience,
    /// Colloquial brand alias that never appears in titles ("ahdi shoe").
    BrandAlias,
    /// A bare polysemous brand word ("apple", "cherry").
    Polysemous,
}

/// A generated query with its ground-truth intent slots.
#[derive(Clone, Debug)]
pub struct GeneratedQuery {
    pub tokens: Vec<String>,
    pub category: usize,
    pub brand: Option<usize>,
    pub audience: Option<usize>,
    pub attr: Option<String>,
    pub kind: QueryKind,
    /// Number of times this query is issued in the log (head/tail skew).
    pub frequency: u32,
}

impl GeneratedQuery {
    pub fn text(&self) -> String {
        self.tokens.join(" ")
    }
}

/// One aggregated (query, item) click edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClickPair {
    /// Index into [`ClickLog::queries`].
    pub query: usize,
    /// Item id in the catalog.
    pub item: usize,
    pub clicks: u32,
}

/// Click-log generation parameters.
#[derive(Clone, Debug)]
pub struct LogConfig {
    pub catalog: CatalogConfig,
    /// Distinct query intents to generate.
    pub n_queries: usize,
    /// Mean clicks per query issuance.
    pub clicks_per_session: f32,
    /// Pairs with fewer clicks are dropped (paper: 2).
    pub min_clicks: u32,
    /// Probability a click lands on a random (irrelevant) item.
    pub noise: f64,
    pub seed: u64,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            catalog: CatalogConfig::default(),
            n_queries: 400,
            clicks_per_session: 1.6,
            min_clicks: 2,
            noise: 0.04,
            seed: 23,
        }
    }
}

impl LogConfig {
    pub fn tiny() -> Self {
        LogConfig {
            catalog: CatalogConfig::tiny(),
            n_queries: 40,
            ..LogConfig::default()
        }
    }
}

/// The generated click log: catalog, distinct queries, and aggregated
/// click edges.
#[derive(Clone, Debug)]
pub struct ClickLog {
    pub catalog: Catalog,
    pub queries: Vec<GeneratedQuery>,
    pub pairs: Vec<ClickPair>,
    /// Total search sessions simulated (query issuances).
    pub sessions: u64,
}

impl ClickLog {
    /// Generates queries and clicks deterministically from `config.seed`.
    pub fn generate(config: &LogConfig) -> Self {
        let catalog = Catalog::generate(&config.catalog);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let queries = generate_queries(&catalog, config.n_queries, &mut rng);
        let (pairs, sessions) = simulate_clicks(&catalog, &queries, config, &mut rng);
        ClickLog { catalog, queries, pairs, sessions }
    }

    /// Clicked item ids for a query index.
    pub fn clicked_items(&self, query: usize) -> impl Iterator<Item = &ClickPair> {
        self.pairs.iter().filter(move |p| p.query == query)
    }
}

/// Consecutive draws without a new distinct query after which
/// [`generate_queries`] gives up: the catalog's query space holds fewer
/// distinct queries than were asked for. A space with a query left whose
/// draw probability is `p` survives the budget with odds `(1 - p)^budget`,
/// negligible for every query the generator can draw at a useful rate:
/// drawing all 529 distinct queries of the default catalog never took
/// more than 6 557 consecutive misses.
const QUERY_DRAW_BUDGET: usize = 1 << 16;

/// # Panics
/// Panics when [`QUERY_DRAW_BUDGET`] consecutive draws repeat queries
/// already generated, i.e. the catalog cannot supply `n` distinct queries.
fn generate_queries(catalog: &Catalog, n: usize, rng: &mut StdRng) -> Vec<GeneratedQuery> {
    let mut queries = Vec::with_capacity(n);
    let mut misses = 0;
    let n_cats = catalog.categories.len();
    while queries.len() < n {
        assert!(
            misses < QUERY_DRAW_BUDGET,
            "query space exhausted: {} distinct queries over {n_cats} categories, \
             {n} asked for (no new query in {QUERY_DRAW_BUDGET} draws)",
            queries.len()
        );
        misses += 1;
        // Zipf-ish category pick: flagships (low ids) get more traffic.
        let cat_id = zipf(rng, n_cats);
        let cat = catalog.category(cat_id);
        if cat.brand_ids.is_empty() {
            continue;
        }
        let roll: f64 = rng.gen();
        let q = if roll < 0.28 {
            // Hard audience query: "<query_term> for <who>".
            let aud_id = rng.gen_range(0..catalog.audiences.len());
            let aud = catalog.audience(aud_id);
            let mut tokens = vec![pick(rng, &cat.query_terms)];
            tokens.extend(aud.query_phrase.iter().cloned());
            GeneratedQuery {
                tokens,
                category: cat_id,
                brand: None,
                audience: Some(aud_id),
                attr: None,
                kind: QueryKind::HardAudience,
                frequency: 0,
            }
        } else if roll < 0.48 {
            // Brand query, preferring the colloquial alias when one exists.
            let brand_id = cat.brand_ids[rng.gen_range(0..cat.brand_ids.len())];
            let brand = catalog.brand(brand_id);
            let (word, kind) = if !brand.aliases.is_empty() && rng.gen_bool(0.7) {
                (pick(rng, &brand.aliases), QueryKind::BrandAlias)
            } else {
                (brand.formal.clone(), QueryKind::Standard)
            };
            GeneratedQuery {
                tokens: vec![word, pick(rng, &cat.query_terms)],
                category: cat_id,
                brand: Some(brand_id),
                audience: None,
                attr: None,
                kind,
                frequency: 0,
            }
        } else if roll < 0.56 {
            // Bare polysemous/brand token.
            let brand_id = cat.brand_ids[rng.gen_range(0..cat.brand_ids.len())];
            let brand = catalog.brand(brand_id);
            let word = if brand.aliases.is_empty() {
                brand.formal.clone()
            } else {
                pick(rng, &brand.aliases)
            };
            GeneratedQuery {
                tokens: vec![word],
                category: cat_id,
                brand: Some(brand_id),
                audience: None,
                attr: None,
                kind: QueryKind::Polysemous,
                frequency: 0,
            }
        } else {
            // Standard query: [category term] with optional attr / brand.
            let mut tokens = Vec::new();
            let mut brand = None;
            if rng.gen_bool(0.35) {
                let brand_id = cat.brand_ids[rng.gen_range(0..cat.brand_ids.len())];
                tokens.push(catalog.brand(brand_id).formal.clone());
                brand = Some(brand_id);
            }
            let mut attr = None;
            if rng.gen_bool(0.4) && !cat.attrs.is_empty() {
                let a = pick(rng, &cat.attrs);
                tokens.push(a.clone());
                attr = Some(a);
            }
            tokens.push(pick(rng, &cat.query_terms));
            GeneratedQuery {
                tokens,
                category: cat_id,
                brand,
                audience: None,
                attr,
                kind: QueryKind::Standard,
                frequency: 0,
            }
        };
        // Dedup identical token sequences (they'd be the same log query).
        if !queries.iter().any(|e: &GeneratedQuery| e.tokens == q.tokens) {
            queries.push(q);
            misses = 0;
        }
    }
    // Zipf head/tail frequency skew: earlier queries are heads. The head
    // half of distinct queries carries >80% of sessions, mirroring the
    // paper's "top queries cover more than 80% of traffic" regime.
    for (rank, q) in queries.iter_mut().enumerate() {
        let head = (500.0 / (1.0 + rank as f64)).floor() as u32;
        q.frequency = head.max(1) + rng.gen_range(0..2);
    }
    queries
}

fn simulate_clicks(
    catalog: &Catalog,
    queries: &[GeneratedQuery],
    config: &LogConfig,
    rng: &mut StdRng,
) -> (Vec<ClickPair>, u64) {
    let mut sessions = 0u64;
    let mut pairs: Vec<Vec<(usize, u32)>> = vec![Vec::new(); queries.len()];
    for (qi, q) in queries.iter().enumerate() {
        // Candidate items with ground-truth relevance weights.
        let mut cands: Vec<(usize, f32)> = catalog
            .items
            .iter()
            .map(|item| {
                let rel = catalog.relevance(
                    item,
                    q.category,
                    q.brand,
                    q.audience,
                    q.attr.as_deref(),
                );
                (item.id, rel * rel * item.popularity)
            })
            .filter(|&(_, w)| w > 0.0)
            .collect();
        let total: f32 = cands.iter().map(|&(_, w)| w).sum();
        if cands.is_empty() || total <= 0.0 {
            continue;
        }
        for c in cands.iter_mut() {
            c.1 /= total;
        }
        for _ in 0..q.frequency {
            sessions += 1;
            let n_clicks = 1 + rng.gen_range(0.0..config.clicks_per_session * 2.0 - 1.0) as u32;
            for _ in 0..n_clicks {
                let item = if rng.gen_bool(config.noise) {
                    rng.gen_range(0..catalog.items.len())
                } else {
                    sample_weighted(rng, &cands)
                };
                match pairs[qi].iter_mut().find(|(i, _)| *i == item) {
                    Some(slot) => slot.1 += 1,
                    None => pairs[qi].push((item, 1)),
                }
            }
        }
    }
    let mut out = Vec::new();
    for (qi, items) in pairs.into_iter().enumerate() {
        for (item, clicks) in items {
            if clicks >= config.min_clicks {
                out.push(ClickPair { query: qi, item, clicks });
            }
        }
    }
    (out, sessions)
}

/// Multi-query session generation parameters.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Number of sessions to generate.
    pub sessions: usize,
    /// Minimum queries per session.
    pub min_len: usize,
    /// Maximum queries per session (inclusive).
    pub max_len: usize,
    /// Probability each follow-up query *drifts* to a different category
    /// instead of refining the current intent.
    pub drift: f64,
    pub seed: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { sessions: 200, min_len: 2, max_len: 5, drift: 0.3, seed: 47 }
    }
}

/// Multi-query sessions with drifting intent over a click log's query
/// pool: each session is a sequence of indices into [`ClickLog::queries`].
///
/// The opening query is drawn frequency-weighted — head queries open
/// sessions far more often, matching the log's traffic skew. Each
/// follow-up then either **refines** the current intent (a different
/// query of the same category: the user rephrasing, narrowing, switching
/// register) or, with probability `drift`, **drifts** to a different
/// category (the user moving on to a new shopping goal mid-session).
/// Session-aware rewriters condition on the preceding queries; the drift
/// split is what makes that conditioning non-trivial — context helps on
/// refinements and must not hurt after a drift.
pub fn generate_sessions(log: &ClickLog, config: &SessionConfig) -> Vec<Vec<usize>> {
    assert!(config.min_len >= 1 && config.min_len <= config.max_len, "bad session length range");
    let n_cats = log.catalog.categories.len();
    let mut by_category: Vec<Vec<usize>> = vec![Vec::new(); n_cats];
    for (qi, q) in log.queries.iter().enumerate() {
        by_category[q.category].push(qi);
    }
    // Frequency-weighted opener distribution.
    let weights: Vec<(usize, f32)> =
        log.queries.iter().enumerate().map(|(qi, q)| (qi, q.frequency as f32)).collect();
    let total: f32 = weights.iter().map(|&(_, w)| w).sum();
    let openers: Vec<(usize, f32)> =
        weights.into_iter().map(|(qi, w)| (qi, w / total)).collect();

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut sessions = Vec::with_capacity(config.sessions);
    for _ in 0..config.sessions {
        let len = config.min_len + rng.gen_range(0..config.max_len - config.min_len + 1);
        let mut session = vec![sample_weighted(&mut rng, &openers)];
        while session.len() < len {
            let cur = *session.last().expect("session is non-empty");
            let cur_cat = log.queries[cur].category;
            let drifted = rng.gen_bool(config.drift);
            let pool: &[usize] = if drifted {
                // Drift: a random *other* non-empty category.
                let others: Vec<usize> = (0..n_cats)
                    .filter(|&c| c != cur_cat && !by_category[c].is_empty())
                    .collect();
                if others.is_empty() {
                    &by_category[cur_cat]
                } else {
                    &by_category[others[rng.gen_range(0..others.len())]]
                }
            } else {
                &by_category[cur_cat]
            };
            let next = pool[rng.gen_range(0..pool.len())];
            if next == cur && pool.len() > 1 {
                continue; // re-draw: an exact repeat is not a reformulation
            }
            session.push(next);
        }
        sessions.push(session);
    }
    sessions
}

fn pick(rng: &mut StdRng, xs: &[String]) -> String {
    xs[rng.gen_range(0..xs.len())].clone()
}

fn zipf(rng: &mut StdRng, n: usize) -> usize {
    // Weight 1/(k+1); cheap inverse sampling over a small n.
    let weights: Vec<f64> = (0..n).map(|k| 1.0 / (k as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mut draw = rng.gen::<f64>() * total;
    for (k, w) in weights.iter().enumerate() {
        draw -= w;
        if draw <= 0.0 {
            return k;
        }
    }
    n - 1
}

fn sample_weighted(rng: &mut StdRng, cands: &[(usize, f32)]) -> usize {
    let mut draw = rng.gen::<f32>();
    for &(id, w) in cands {
        draw -= w;
        if draw <= 0.0 {
            return id;
        }
    }
    cands.last().expect("non-empty candidates").0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> ClickLog {
        ClickLog::generate(&LogConfig::default())
    }

    /// The default catalog holds 529 distinct queries: asking for more
    /// must fail fast with a message, not spin forever.
    #[test]
    #[should_panic(expected = "query space exhausted")]
    fn exhausted_query_space_panics_instead_of_hanging() {
        ClickLog::generate(&LogConfig { n_queries: 2000, ..LogConfig::default() });
    }

    #[test]
    fn generation_is_deterministic() {
        let a = log();
        let b = log();
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.sessions, b.sessions);
    }

    #[test]
    fn min_clicks_filter_holds() {
        let l = log();
        assert!(l.pairs.iter().all(|p| p.clicks >= 2));
        assert!(!l.pairs.is_empty());
    }

    #[test]
    fn query_kinds_are_all_represented() {
        let l = log();
        for kind in [
            QueryKind::Standard,
            QueryKind::HardAudience,
            QueryKind::BrandAlias,
            QueryKind::Polysemous,
        ] {
            assert!(
                l.queries.iter().any(|q| q.kind == kind),
                "kind {kind:?} missing"
            );
        }
    }

    #[test]
    fn hard_audience_queries_use_query_register() {
        let l = log();
        for q in l.queries.iter().filter(|q| q.kind == QueryKind::HardAudience) {
            assert!(q.tokens.contains(&"for".to_string()));
            assert!(q.audience.is_some());
        }
    }

    #[test]
    fn clicks_are_mostly_relevant() {
        let l = log();
        let mut relevant = 0u32;
        let mut total = 0u32;
        for p in &l.pairs {
            let q = &l.queries[p.query];
            let item = l.catalog.item(p.item);
            let rel =
                l.catalog
                    .relevance(item, q.category, q.brand, q.audience, q.attr.as_deref());
            if rel > 0.3 {
                relevant += p.clicks;
            }
            total += p.clicks;
        }
        assert!(
            relevant as f32 / total as f32 > 0.85,
            "only {relevant}/{total} clicks relevant"
        );
    }

    #[test]
    fn head_queries_dominate_sessions() {
        let l = log();
        assert!(l.queries[0].frequency > l.queries[l.queries.len() - 1].frequency);
    }

    #[test]
    fn queries_are_unique() {
        let l = log();
        let mut texts: Vec<String> = l.queries.iter().map(|q| q.text()).collect();
        let before = texts.len();
        texts.sort();
        texts.dedup();
        assert_eq!(before, texts.len());
    }

    #[test]
    fn sessions_are_deterministic_and_length_bounded() {
        let l = log();
        let cfg = SessionConfig::default();
        let a = generate_sessions(&l, &cfg);
        let b = generate_sessions(&l, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.sessions);
        for s in &a {
            assert!(s.len() >= cfg.min_len && s.len() <= cfg.max_len);
            for &qi in s {
                assert!(qi < l.queries.len());
            }
        }
    }

    #[test]
    fn zero_drift_sessions_stay_in_category() {
        let l = log();
        let cfg = SessionConfig { drift: 0.0, ..SessionConfig::default() };
        for s in generate_sessions(&l, &cfg) {
            let cat = l.queries[s[0]].category;
            assert!(s.iter().all(|&qi| l.queries[qi].category == cat));
        }
    }

    #[test]
    fn drift_produces_category_changes() {
        let l = log();
        let cfg = SessionConfig { drift: 0.8, sessions: 100, ..SessionConfig::default() };
        let sessions = generate_sessions(&l, &cfg);
        let drifted = sessions
            .iter()
            .filter(|s| {
                s.windows(2).any(|w| l.queries[w[0]].category != l.queries[w[1]].category)
            })
            .count();
        assert!(drifted > 50, "only {drifted}/100 sessions drifted at drift=0.8");
    }

    #[test]
    fn follow_ups_are_reformulations_not_repeats() {
        let l = log();
        let cfg = SessionConfig { drift: 0.0, sessions: 100, ..SessionConfig::default() };
        for s in generate_sessions(&l, &cfg) {
            for w in s.windows(2) {
                // A category can hold a single query; only multi-query
                // pools must avoid immediate repeats.
                let pool = l.queries.iter().filter(|q| q.category == l.queries[w[0]].category);
                if pool.count() > 1 {
                    assert_ne!(w[0], w[1], "immediate repeat in session {s:?}");
                }
            }
        }
    }
}
