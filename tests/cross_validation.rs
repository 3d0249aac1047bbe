//! Cross-validation on the full calibrated datasets: independent
//! implementations must agree with each other at realistic scale, not just
//! on proptest-sized inputs.

use seqhide::data::{synthetic_like, trucks_like};
use seqhide::matching::{count_embeddings, SensitiveSet};
use seqhide::mine::{Gsp, MinerConfig, PrefixSpan};
use seqhide::num::Sat64;
use seqhide::prelude::*;
use seqhide::re::{count_occurrences, RegexDomain, RegexPattern};

#[test]
fn miners_agree_on_both_datasets() {
    for dataset in [trucks_like(42), synthetic_like(42)] {
        let sigma = dataset.db.len() / 4; // deep enough to exercise level ≥ 3
        let cfg = MinerConfig::new(sigma);
        let ps = PrefixSpan::mine(&dataset.db, &cfg);
        let gsp = Gsp::mine(&dataset.db, &cfg);
        assert!(!ps.truncated && !gsp.truncated);
        assert_eq!(ps.sorted(), gsp.sorted(), "{} σ={sigma}", dataset.name);
        assert!(!ps.is_empty());
    }
}

#[test]
fn regex_equals_plain_patterns_on_trucks() {
    // the disjunction regex must cost exactly what the two expanded plain
    // patterns cost under the same strategies and seed
    let dataset = trucks_like(42);
    let mut db_re = dataset.db.clone();
    let re = RegexPattern::compile("X6Y3 X7Y2 | X4Y3 X5Y3", db_re.alphabet_mut()).unwrap();
    let re_report = Sanitizer::hh(0).with_seed(0).run_domain(
        db_re.sequences_mut(),
        &mut RegexDomain::<Sat64>::new(std::slice::from_ref(&re)),
    );

    let mut db_plain = dataset.db.clone();
    let plain = Sanitizer::hh(0).run(&mut db_plain, &dataset.sensitive);

    assert!(re_report.hidden && plain.hidden);
    assert_eq!(re_report.marks_introduced, plain.marks_introduced);
    assert_eq!(re_report.sequences_sanitized, plain.sequences_sanitized);
    // the marked databases are literally identical
    assert_eq!(db_re.to_text(), db_plain.to_text());
}

#[test]
fn regex_counts_equal_plain_counts_on_every_trucks_sequence() {
    let dataset = trucks_like(42);
    let mut sigma = dataset.db.alphabet().clone();
    let re = RegexPattern::compile("X6Y3 X7Y2", &mut sigma).unwrap();
    let s = Sequence::parse("X6Y3 X7Y2", &mut sigma);
    for t in dataset.db.sequences() {
        assert_eq!(
            count_occurrences::<u64>(&re, t),
            count_embeddings::<u64>(&s, t)
        );
    }
}

#[test]
fn exact_and_saturating_sanitization_identical_on_datasets() {
    for dataset in [trucks_like(42), synthetic_like(42)] {
        let mut fast = dataset.db.clone();
        let mut exact = dataset.db.clone();
        let r1 = Sanitizer::hh(0).run(&mut fast, &dataset.sensitive);
        let r2 = Sanitizer::hh(0)
            .with_exact_counts(true)
            .run(&mut exact, &dataset.sensitive);
        assert_eq!(r1, r2, "{}", dataset.name);
        assert_eq!(fast.to_text(), exact.to_text(), "{}", dataset.name);
    }
}

#[test]
fn mining_released_trucks_contains_no_sensitive_pattern() {
    let dataset = trucks_like(42);
    let mut db = dataset.db.clone();
    Sanitizer::hh(0).run(&mut db, &dataset.sensitive);
    let mined = PrefixSpan::mine(&db, &MinerConfig::new(5));
    assert!(!mined.truncated);
    let sensitive: Vec<&Sequence> = dataset.sensitive.iter().map(|p| p.seq()).collect();
    for fp in &mined.patterns {
        assert!(!sensitive.contains(&&fp.seq), "leaked {:?}", fp.seq);
        // stronger: no mined pattern *contains* a sensitive pattern either
        for s in &sensitive {
            assert!(
                !seqhide::matching::is_subsequence(s, &fp.seq),
                "mined superpattern {:?} would reveal {:?}",
                fp.seq,
                s
            );
        }
    }
}

#[test]
fn constrained_supporters_are_subsets_of_unconstrained() {
    use seqhide::matching::{supporters, ConstraintSet, Gap};
    let dataset = trucks_like(42);
    let base = supporters(&dataset.db, &dataset.sensitive);
    for cs in [
        ConstraintSet::uniform_gap(Gap::bounded(0, 3)),
        ConstraintSet::with_max_window(4),
        ConstraintSet::uniform_gap(Gap { min: 1, max: None }),
    ] {
        let constrained = dataset.sensitive.with_constraints(&cs).unwrap();
        let sub = supporters(&dataset.db, &constrained);
        assert!(sub.iter().all(|i| base.contains(i)), "{cs:?}");
        assert!(sub.len() <= base.len());
    }
}

#[test]
fn sensitive_set_disjunction_identity_holds() {
    // |supp(S1)| + |supp(S2)| − |both| = |disjunction| on both datasets
    for dataset in [trucks_like(42), synthetic_like(42)] {
        let s1 = SensitiveSet::from_patterns(vec![dataset.sensitive.patterns()[0].clone()]);
        let s2 = SensitiveSet::from_patterns(vec![dataset.sensitive.patterns()[1].clone()]);
        let a = seqhide::matching::supporters(&dataset.db, &s1);
        let b = seqhide::matching::supporters(&dataset.db, &s2);
        let both = a.iter().filter(|i| b.contains(i)).count();
        let (_, disj) = dataset.support_table();
        assert_eq!(a.len() + b.len() - both, disj, "{}", dataset.name);
    }
}
