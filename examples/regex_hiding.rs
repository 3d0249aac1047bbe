//! Regular-expression sensitive patterns — the §8 future-work extension.
//!
//! The paper's patterns are one fixed symbol per step; real policies often
//! need disjunction ("either exit of the depot") or repetition ("one or
//! more detours"). This example hides a regex corridor policy from the
//! TRUCKS-like trajectory data and compares it with hiding the equivalent
//! plain patterns one by one.
//!
//! ```sh
//! cargo run --release --example regex_hiding
//! ```

use seqhide::core::Sanitizer;
use seqhide::data::trucks_like;
use seqhide::matching::SensitiveSet;
use seqhide::num::Sat64;
use seqhide::prelude::*;
use seqhide::re::{supports_re, RegexDomain, RegexPattern};

fn main() {
    let dataset = trucks_like(42);
    let mut db = dataset.db.clone();

    // Policy: trips through cell X6Y3 that exit through EITHER X7Y2 or
    // X7Y3 are sensitive — one regex instead of two plain patterns.
    let policy = "X6Y3 (X7Y2 | X7Y3)";
    let re = RegexPattern::compile(policy, db.alphabet_mut()).unwrap();
    let supporters = db
        .sequences()
        .iter()
        .filter(|t| supports_re(t, &re))
        .count();
    println!(
        "policy: {policy}\nsupporting trajectories: {supporters} of {}",
        db.len()
    );

    // The paper's HH over the regex domain: the same two-level driver as
    // for plain patterns.
    let regexes = std::slice::from_ref(&re);
    let report = Sanitizer::hh(0)
        .with_seed(0)
        .run_domain(db.sequences_mut(), &mut RegexDomain::<Sat64>::new(regexes));
    println!(
        "regex HH: {} marks in {} trajectories; hidden = {}",
        report.marks_introduced, report.sequences_sanitized, report.hidden
    );
    assert!(report.hidden);
    assert_eq!(
        db.sequences()
            .iter()
            .filter(|t| supports_re(t, &re))
            .count(),
        0
    );

    // Equivalent plain-pattern formulation: hide both expansions with the
    // paper's base algorithm — same semantics, so the costs should agree.
    let mut db2 = dataset.db.clone();
    let s1 = Sequence::parse("X6Y3 X7Y2", db2.alphabet_mut());
    let s2 = Sequence::parse("X6Y3 X7Y3", db2.alphabet_mut());
    let sh = SensitiveSet::new(vec![s1, s2]);
    let plain = Sanitizer::hh(0).run(&mut db2, &sh);
    println!(
        "plain HH (two expanded patterns): {} marks in {} trajectories",
        plain.marks_introduced, plain.sequences_sanitized
    );

    // A policy a plain pattern cannot express: two or more consecutive
    // stops inside the depot row (any of X4Y3, X5Y3, X6Y3).
    let mut db3 = dataset.db.clone();
    let loiter =
        RegexPattern::compile("[X4Y3 X5Y3 X6Y3] [X4Y3 X5Y3 X6Y3]+", db3.alphabet_mut()).unwrap();
    let supporters = db3
        .sequences()
        .iter()
        .filter(|t| supports_re(t, &loiter))
        .count();
    let loiter_set = std::slice::from_ref(&loiter);
    let report = Sanitizer::hh(5).with_seed(0).run_domain(
        db3.sequences_mut(),
        &mut RegexDomain::<Sat64>::new(loiter_set),
    );
    println!(
        "\nloitering policy ([row]+): {supporters} supporters → ψ=5 leaves {}; {} marks",
        report.residual_supports[0], report.marks_introduced
    );
    assert!(report.hidden);
}
