//! How close does the paper's greedy local heuristic get to the NP-hard
//! optimum? Theorem 1 reduces HITTING SET to single-sequence sanitization,
//! so exact optima are exponential — but computable for small instances,
//! giving a quality oracle for the heuristic.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use seqhide::core::{sanitize_victim, LocalStrategy};
use seqhide::matching::{matching_size, MatchEngine, SensitiveSet};
use seqhide::num::Count as _;
use seqhide::num::Sat64;
use seqhide::prelude::*;

/// Exact minimum number of marks that sanitize `t` against `sh`:
/// exhaustive search over position subsets in increasing size order.
fn optimal_marks(t: &Sequence, sh: &SensitiveSet) -> usize {
    let n = t.len();
    assert!(n <= 12, "exhaustive oracle only for small instances");
    if matching_size::<u64>(sh, t).is_zero() {
        return 0;
    }
    for size in 1..=n {
        // iterate subsets of exactly `size` positions
        let mut found = false;
        let mut subset: Vec<usize> = (0..size).collect();
        loop {
            let mut work = t.clone();
            for &i in &subset {
                work.mark(i);
            }
            if matching_size::<u64>(sh, &work).is_zero() {
                found = true;
                break;
            }
            // next k-combination
            let mut i = size;
            loop {
                if i == 0 {
                    break;
                }
                i -= 1;
                if subset[i] != i + n - size {
                    subset[i] += 1;
                    for j in i + 1..size {
                        subset[j] = subset[j - 1] + 1;
                    }
                    break;
                }
                if i == 0 {
                    subset.clear();
                    break;
                }
            }
            if subset.is_empty() {
                break;
            }
        }
        if found {
            return size;
        }
    }
    unreachable!("marking every position always sanitizes");
}

fn hh_marks(t: &Sequence, sh: &SensitiveSet) -> usize {
    let mut work = t.clone();
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    sanitize_victim(
        &mut MatchEngine::<Sat64>::new(sh),
        &mut work,
        LocalStrategy::Heuristic,
        &mut rng,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn heuristic_never_beats_optimum_and_always_sanitizes(
        t in prop::collection::vec(0u32..4, 0..=9),
        pats in prop::collection::vec(prop::collection::vec(0u32..4, 1..=3), 1..=3),
    ) {
        let t = Sequence::from_ids(t);
        let sh = SensitiveSet::new(pats.into_iter().map(Sequence::from_ids).collect());
        let opt = optimal_marks(&t, &sh);
        let hh = hh_marks(&t, &sh);
        prop_assert!(hh >= opt, "heuristic {} below optimum {}?!", hh, opt);
        // greedy hitting-set style bound: ln-factor, generous for n ≤ 9
        prop_assert!(hh <= opt.max(1) * 4, "heuristic {} vs optimum {}", hh, opt);
    }
}

#[test]
fn heuristic_is_optimal_on_the_paper_example() {
    let mut sigma = seqhide::types::Alphabet::new();
    let s = Sequence::parse("a b c", &mut sigma);
    let t = Sequence::parse("a a b c c b a e", &mut sigma);
    let sh = SensitiveSet::new(vec![s]);
    assert_eq!(optimal_marks(&t, &sh), 1);
    assert_eq!(hh_marks(&t, &sh), 1);
}

#[test]
fn heuristic_is_optimal_on_hitting_set_reduction() {
    // the Theorem 1 instance from tests/paper_examples.rs: optimum 2
    let t = Sequence::from_ids(0..6);
    let pairs = [(1usize, 2usize), (2, 3), (2, 5), (4, 5), (5, 6)];
    let sh = SensitiveSet::new(
        pairs
            .iter()
            .map(|&(j, k)| Sequence::from_ids([j as u32 - 1, k as u32 - 1]))
            .collect(),
    );
    assert_eq!(optimal_marks(&t, &sh), 2);
    assert_eq!(hh_marks(&t, &sh), 2);
}

/// Greedy δ can be strictly suboptimal — expected for an NP-hard problem.
/// This pins a concrete witness so the gap is documented, not accidental:
/// the classic greedy-set-cover trap, expressed as patterns.
#[test]
fn heuristic_suboptimality_witness_exists() {
    // Search tiny instances for a case where hh > opt. The search space is
    // deterministic, so the witness (and the gap) is stable.
    let mut witness = None;
    'outer: for seed in 0..400u64 {
        use rand::Rng as _;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let t: Sequence = Sequence::from_ids(
            (0..8)
                .map(|_| rng.random_range(0..3u32))
                .collect::<Vec<_>>(),
        );
        for plen in 2..=2usize {
            let pats: Vec<Sequence> = (0..3)
                .map(|_| {
                    Sequence::from_ids(
                        (0..plen)
                            .map(|_| rng.random_range(0..3u32))
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            let sh = SensitiveSet::new(pats);
            let opt = optimal_marks(&t, &sh);
            let hh = hh_marks(&t, &sh);
            if hh > opt {
                witness = Some((t.clone(), seed, opt, hh));
                break 'outer;
            }
        }
    }
    let (t, seed, opt, hh) = witness.expect("greedy should be beatable somewhere in 400 instances");
    assert!(
        hh > opt,
        "witness at seed {seed} on {t:?}: hh {hh} vs opt {opt}"
    );
}
