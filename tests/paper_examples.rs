//! Every worked example and formal construction in the paper, verified
//! through the public API end to end.

use seqhide::core::{sanitize_victim, LocalStrategy, Sanitizer};
use seqhide::matching::enumerate::{enumerate_embeddings, EnumerateConfig};
use seqhide::matching::{
    count_embeddings, count_matches, delta_all, matching_size, ConstraintSet, Gap, MatchEngine,
    SensitivePattern,
};
use seqhide::num::{Count as _, Sat64};
use seqhide::prelude::*;
use seqhide::types::Alphabet;

/// S = ⟨a b c⟩, T = ⟨a a b c c b a e⟩ — the running example of §3–§4.
fn paper_running_example() -> (Alphabet, Sequence, Sequence) {
    let mut sigma = Alphabet::new();
    let s = Sequence::parse("a b c", &mut sigma);
    let t = Sequence::parse("a a b c c b a e", &mut sigma);
    (sigma, s, t)
}

#[test]
fn definition_1_matching_set() {
    // Paper: M = {(1,3,4), (1,3,5), (2,3,4), (2,3,5)} (1-based).
    let (_, s, t) = paper_running_example();
    let p = SensitivePattern::unconstrained(s.clone()).unwrap();
    let m = enumerate_embeddings(&p, &t, EnumerateConfig::default());
    let one_based: Vec<Vec<usize>> = m
        .embeddings
        .iter()
        .map(|e| e.iter().map(|i| i + 1).collect())
        .collect();
    assert_eq!(
        one_based,
        vec![vec![1, 3, 4], vec![1, 3, 5], vec![2, 3, 4], vec![2, 3, 5]]
    );
    assert_eq!(count_embeddings::<u64>(&s, &t), 4);
}

#[test]
fn example_1_marking_effects() {
    // Marking T[8] = e leaves the matching set unchanged; marking T[3] = b
    // empties it; marking T[1] alone reduces without sanitizing; marking
    // T[1] and T[2] together sanitizes.
    let (_, s, t) = paper_running_example();
    let sh = SensitiveSet::new(vec![s.clone()]);

    let mut t8 = t.clone();
    t8.mark(7);
    assert_eq!(count_embeddings::<u64>(&s, &t8), 4);

    let mut t3 = t.clone();
    t3.mark(2);
    assert_eq!(count_embeddings::<u64>(&s, &t3), 0);

    let mut t1 = t.clone();
    t1.mark(0);
    let after_t1 = count_embeddings::<u64>(&s, &t1);
    assert!(after_t1 > 0 && after_t1 < 4);

    t1.mark(1);
    assert_eq!(count_embeddings::<u64>(&s, &t1), 0);
    assert!(matching_size::<u64>(&sh, &t1).is_zero());
}

#[test]
fn example_2_delta_values_and_choice() {
    // δ(T[1]) = 2, δ(T[2]) = 2, δ(T[3]) = 4; the heuristic marks T[3] and
    // one iteration suffices.
    let (_, s, t) = paper_running_example();
    let sh = SensitiveSet::new(vec![s]);
    let d = delta_all::<u64>(&sh, &t);
    assert_eq!(d[0], 2);
    assert_eq!(d[1], 2);
    assert_eq!(d[2], 4);
    let mut t2 = t.clone();
    use rand::SeedableRng as _;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
    let marks = sanitize_victim(
        &mut MatchEngine::<Sat64>::new(&sh),
        &mut t2,
        LocalStrategy::Heuristic,
        &mut rng,
    );
    assert_eq!(marks, 1);
    assert!(t2[2].is_mark());
}

#[test]
fn example_3_prefix_counts() {
    // P₂³ = 2: the length-2 prefix ⟨a b⟩ has 2 matches ending exactly at
    // T[3] (1-based).
    let (_, s, t) = paper_running_example();
    let table = seqhide::matching::counting::ending_at_table::<u64>(
        &s,
        t.symbols(),
        &ConstraintSet::none(),
    );
    assert_eq!(table[1][2], 2);
}

#[test]
fn section5_gap_constrained_pattern_not_supported() {
    // a →⁰ b →₂⁶ c is NOT supported by T, although ⟨a b c⟩ is (with
    // matching set of cardinality 4).
    let (_, s, t) = paper_running_example();
    assert_eq!(count_embeddings::<u64>(&s, &t), 4);
    let constrained = SensitivePattern::new(
        s,
        ConstraintSet::with_gaps(vec![Gap::adjacent(), Gap::bounded(2, 6)]),
    )
    .unwrap();
    assert_eq!(count_matches::<u64>(&constrained, &t), 0);
}

#[test]
fn lemma_1_worst_case_is_binomial() {
    // S and T over one symbol: |M| = C(|T|, |S|); the middle binomial is
    // the largest.
    let s = Sequence::from_ids(vec![0; 5]);
    let t = Sequence::from_ids(vec![0; 10]);
    assert_eq!(count_embeddings::<u64>(&s, &t), 252); // C(10,5)
    for k in 0..=10usize {
        let sk = Sequence::from_ids(vec![0; k]);
        let c = count_embeddings::<u64>(&sk, &t);
        assert!(c <= 252);
    }
}

/// The Theorem 1 reduction: HITTING SET ≤ Sequence Sanitization.
/// E = {1..n}, C = pairs; T = ⟨p₁…p_n⟩, S_h = {⟨p_j p_k⟩ : (j,k) ∈ C}.
/// Positions marked by any sound sanitizer must hit every pair, and the
/// heuristic should find a *minimum* hitting set on easy instances.
#[test]
fn theorem_1_reduction_yields_hitting_sets() {
    let n = 6;
    let pairs: Vec<(usize, usize)> = vec![(1, 2), (2, 3), (2, 5), (4, 5), (5, 6)];
    let t = Sequence::from_ids(0..n as u32);
    let patterns: Vec<Sequence> = pairs
        .iter()
        .map(|&(j, k)| Sequence::from_ids([j as u32 - 1, k as u32 - 1]))
        .collect();
    let sh = SensitiveSet::new(patterns);
    let mut work = t.clone();
    use rand::SeedableRng as _;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
    let marks = sanitize_victim(
        &mut MatchEngine::<Sat64>::new(&sh),
        &mut work,
        LocalStrategy::Heuristic,
        &mut rng,
    );
    // the marked positions form a hitting set of C
    let marked: Vec<usize> = (0..n)
        .filter(|&i| work[i].is_mark())
        .map(|i| i + 1)
        .collect();
    for &(j, k) in &pairs {
        assert!(
            marked.contains(&j) || marked.contains(&k),
            "pair ({j},{k}) not hit by {marked:?}"
        );
    }
    // {2, 5} hits every pair, so the optimum is 2 — and δ(2) = 3, δ(5) = 3
    // make the greedy heuristic find exactly it.
    assert_eq!(marks, 2);
    assert_eq!(marked, vec![2, 5]);
}

#[test]
fn global_heuristic_sorting_matches_paper_rule() {
    // "sort the sequences in ascending order of matching set size, and
    // remove all matchings in top |D| − ψ input sequences"
    let mut db = SequenceDb::parse("a b\na a b b\na b b\nc c\n");
    let s = Sequence::parse("a b", db.alphabet_mut());
    let sh = SensitiveSet::new(vec![s.clone()]);
    // matching sizes: row0 = 1, row1 = 4, row2 = 2, row3 = 0
    let report = Sanitizer::hh(1).run(&mut db, &sh);
    assert!(report.hidden);
    // ψ = 1 leaves exactly the largest-matching-set supporter (row 1) intact
    assert_eq!(db.sequences()[1].mark_count(), 0);
    assert!(db.sequences()[0].mark_count() > 0);
    assert!(db.sequences()[2].mark_count() > 0);
    assert_eq!(db.sequences()[3].mark_count(), 0); // non-supporter untouched
    assert_eq!(support(&db, &s), 1);
}
