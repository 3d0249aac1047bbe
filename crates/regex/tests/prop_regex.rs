//! Property tests: regex occurrence counting vs exhaustive tuple
//! enumeration, and the sanitizer contract.

use proptest::prelude::*;
use seqhide_core::{sanitize_victim, LocalStrategy};
use seqhide_match::Gap;
use seqhide_num::Sat64;
use seqhide_re::{count_occurrences, delta_by_marking_re, parse, RegexDomain, RegexPattern};
use seqhide_types::{Alphabet, Sequence, Symbol};

const PATTERNS: &[&str] = &[
    "a b",
    "a b c",
    "a (b | c)",
    "a (b | c)+ d",
    "a . b",
    "[a b] c",
    "a b* c",
    "a+",
    "(a b)+",
    "a? b c",
    ". .",
    "a (b c | c b) d?",
];

/// Exhaustive oracle: every strictly increasing index tuple over `t`,
/// filtered by constraints and AST acceptance.
fn brute_count(p: &RegexPattern, t: &Sequence) -> u64 {
    let n = t.len();
    assert!(n <= 12);
    let mut count = 0u64;
    for mask in 1u32..(1 << n) {
        let tuple: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        // gap constraint between consecutive chosen positions
        let gap = p.gap();
        if !tuple.windows(2).all(|w| gap.allows(w[1] - w[0] - 1)) {
            continue;
        }
        if let (Some(ws), Some(&first), Some(&last)) = (p.max_window(), tuple.first(), tuple.last())
        {
            if last - first + 1 > ws {
                continue;
            }
        }
        let word: Vec<Symbol> = tuple.iter().map(|&i| t[i]).collect();
        if word.iter().any(|s| s.is_mark()) {
            continue;
        }
        if p.ast().accepts(&word) {
            count += 1;
        }
    }
    count
}

fn compile(pattern: &str) -> (RegexPattern, Alphabet) {
    // pre-intern a..e so test sequences' ids 0..5 line up with the names
    let mut sigma = Alphabet::new();
    for n in ["a", "b", "c", "d", "e"] {
        sigma.intern(n);
    }
    let p = RegexPattern::compile(pattern, &mut sigma).unwrap();
    (p, sigma)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn count_matches_brute_force(
        pattern in prop::sample::select(PATTERNS.to_vec()),
        t in prop::collection::vec(0u32..5, 0..=10),
    ) {
        let (p, _) = compile(pattern);
        let t = Sequence::from_ids(t);
        prop_assert_eq!(count_occurrences::<u64>(&p, &t), brute_count(&p, &t));
    }

    #[test]
    fn count_matches_brute_force_with_constraints(
        pattern in prop::sample::select(PATTERNS.to_vec()),
        t in prop::collection::vec(0u32..5, 0..=10),
        min_gap in 0usize..2,
        extra in 0usize..3,
        window in prop::option::of(2usize..8),
    ) {
        let (p, _) = compile(pattern);
        let mut p = p.with_gap(Gap { min: min_gap, max: Some(min_gap + extra) });
        if let Some(w) = window {
            p = p.with_max_window(w);
        }
        let t = Sequence::from_ids(t);
        prop_assert_eq!(count_occurrences::<u64>(&p, &t), brute_count(&p, &t));
    }

    #[test]
    fn delta_matches_brute_force(
        pattern in prop::sample::select(PATTERNS.to_vec()),
        t in prop::collection::vec(0u32..5, 0..=8),
    ) {
        let (p, _) = compile(pattern);
        let t = Sequence::from_ids(t);
        let delta = delta_by_marking_re::<u64>(std::slice::from_ref(&p), &t);
        let total = brute_count(&p, &t);
        for (i, &d) in delta.iter().enumerate() {
            let mut t2 = t.clone();
            t2.mark(i);
            let without = brute_count(&p, &t2);
            prop_assert_eq!(d, total - without, "position {}", i);
        }
    }

    #[test]
    fn sanitizer_always_clears(
        pattern in prop::sample::select(PATTERNS.to_vec()),
        t in prop::collection::vec(0u32..5, 0..=10),
        seed in 0u64..3,
    ) {
        use rand::SeedableRng as _;
        let (p, _) = compile(pattern);
        let mut t = Sequence::from_ids(t);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let strategy = if seed % 2 == 0 {
            LocalStrategy::Heuristic
        } else {
            LocalStrategy::Random
        };
        let mut domain = RegexDomain::<Sat64>::new(std::slice::from_ref(&p));
        let marks = sanitize_victim(&mut domain, &mut t, strategy, &mut rng);
        prop_assert_eq!(count_occurrences::<u64>(&p, &t), 0);
        prop_assert!(marks <= t.len());
    }

    #[test]
    fn literal_regex_equals_sequence_pattern(
        ids in prop::collection::vec(0u32..5, 1..=4),
        t in prop::collection::vec(0u32..5, 0..=10),
    ) {
        let names = ["a", "b", "c", "d", "e"];
        let pattern: String = ids.iter().map(|&i| names[i as usize]).collect::<Vec<_>>().join(" ");
        let mut sigma = Alphabet::new();
        for n in names {
            sigma.intern(n);
        }
        let re = RegexPattern::compile(&pattern, &mut sigma).unwrap();
        let s = Sequence::from_ids(ids);
        let t = Sequence::from_ids(t);
        prop_assert_eq!(
            count_occurrences::<u64>(&re, &t),
            seqhide_match::count_embeddings::<u64>(&s, &t)
        );
    }
}

#[test]
fn nullable_patterns_rejected() {
    let mut sigma = Alphabet::new();
    for bad in ["a*", "a?", "a* b?", "(a | b?)"] {
        let ast = parse(bad, &mut sigma).unwrap();
        assert!(
            RegexPattern::from_ast(ast).is_err(),
            "{bad} should be rejected"
        );
    }
    for good in ["a", "a*b", "a+", "(a | b) c*"] {
        let ast = parse(good, &mut sigma).unwrap();
        assert!(RegexPattern::from_ast(ast).is_ok(), "{good} should compile");
    }
}

// ───────────────────────── parser robustness ─────────────────────────

/// Random ASTs over a small alphabet, for render→parse round-trips.
fn ast_strategy() -> impl Strategy<Value = seqhide_re::Ast> {
    use seqhide_re::Ast;
    let leaf = prop_oneof![
        (0u32..4).prop_map(|i| Ast::Sym(Symbol::new(i))),
        Just(Ast::Any),
        prop::collection::vec(0u32..4, 1..=3)
            .prop_map(|ids| Ast::Class(ids.into_iter().map(Symbol::new).collect())),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..=3).prop_map(Ast::Concat),
            prop::collection::vec(inner.clone(), 1..=3).prop_map(Ast::Alt),
            inner.clone().prop_map(|a| Ast::Star(Box::new(a))),
            inner.clone().prop_map(|a| Ast::Plus(Box::new(a))),
            inner.prop_map(|a| Ast::Opt(Box::new(a))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The parser never panics on arbitrary input — it returns Ok or Err.
    #[test]
    fn parser_total_on_arbitrary_input(input in ".{0,40}") {
        let mut sigma = Alphabet::new();
        let _ = parse(&input, &mut sigma);
    }

    /// render → parse preserves the language: the re-parsed AST accepts
    /// exactly the same words (checked on all words up to length 4 over
    /// the 5-symbol alphabet).
    #[test]
    fn render_parse_preserves_language(ast in ast_strategy()) {
        let mut sigma = Alphabet::new();
        for n in ["a", "b", "c", "d", "e"] {
            sigma.intern(n);
        }
        let rendered = ast.render(&sigma);
        let reparsed = parse(&rendered, &mut sigma).expect("rendered syntax must parse");
        // enumerate words up to length 3 over 4 symbols: 1+4+16+64 = 85
        let mut words: Vec<Vec<Symbol>> = vec![vec![]];
        for _ in 0..3 {
            let mut next = Vec::new();
            for w in &words {
                for id in 0..4u32 {
                    let mut v = w.clone();
                    v.push(Symbol::new(id));
                    next.push(v);
                }
            }
            words.extend(next.clone());
            words = {
                let mut all = words.clone();
                all.dedup();
                all
            };
        }
        for w in &words {
            prop_assert_eq!(ast.accepts(w), reparsed.accepts(w), "word {:?} of {}", w, rendered);
        }
    }
}
