//! Property tests for the required-symbol reject: the plain supporter
//! tests that reject a sequence lacking a pattern symbol before the
//! counting DP must give the answer the unfiltered count gives, under
//! every constraint class and in both counter types.

use proptest::prelude::*;
use seqhide_match::{
    count_matches, matching_size, ConstraintSet, Gap, MatchEngine, PatternDomain, SensitivePattern,
    SensitiveSet,
};
use seqhide_num::{BigCount, Count, Sat64};
use seqhide_types::{Sequence, Symbol};

/// Data symbols `0..6` with `Δ` mixed in; `6` and `7` occur in patterns
/// only, so some pattern symbols are absent from every sequence.
fn seq_strategy(max_len: usize) -> impl Strategy<Value = Sequence> {
    prop::collection::vec(0u32..7, 0..=max_len).prop_map(|ids| {
        ids.into_iter()
            .map(|id| {
                if id == 6 {
                    Symbol::MARK
                } else {
                    Symbol::new(id)
                }
            })
            .collect()
    })
}

/// Patterns over `0..8`; short patterns over a small alphabet repeat
/// symbols often, and `repeat` forces a repeat outright.
fn pattern_strategy() -> impl Strategy<Value = Sequence> {
    (prop::collection::vec(0u32..8, 1..=4), 0u8..2).prop_map(|(mut ids, repeat)| {
        if repeat == 1 {
            ids.push(ids[0]);
        }
        Sequence::from_ids(ids)
    })
}

/// No constraint, gaps (with `min > 0` too), a window, or both.
fn constraint_strategy() -> impl Strategy<Value = ConstraintSet> {
    let gap = (0usize..3, prop::option::of(0usize..4)).prop_map(|(min, extra)| Gap {
        min,
        max: extra.map(|e| min + e),
    });
    (prop::option::of(gap), prop::option::of(5usize..12)).prop_map(|(g, w)| {
        let mut cs = g.map_or_else(ConstraintSet::none, ConstraintSet::uniform_gap);
        cs.max_window = w;
        cs
    })
}

fn sensitive_set(pats: Vec<(Sequence, ConstraintSet)>) -> SensitiveSet {
    SensitiveSet::from_patterns(
        pats.into_iter()
            .filter_map(|(s, cs)| SensitivePattern::new(s, cs).ok())
            .collect(),
    )
}

/// Sequences each drawn from their own id range `base..base + 8`, with
/// `Δ`s: ids past every pattern's appear in some, and consecutive
/// sequences share few symbols.
fn shifting_stream() -> impl Strategy<Value = Vec<Sequence>> {
    prop::collection::vec((0u32..12, prop::collection::vec(0u32..9, 0..=12)), 1..=8).prop_map(
        |seqs| {
            seqs.into_iter()
                .map(|(base, ids)| {
                    ids.into_iter()
                        .map(|id| {
                            if id == 8 {
                                Symbol::MARK
                            } else {
                                Symbol::new(base + id)
                            }
                        })
                        .collect()
                })
                .collect()
        },
    )
}

/// One engine probed over the whole stream: its supporter answer,
/// matching size and per-pattern answers must equal the unfiltered counts
/// for every sequence.
fn engine_matches_counts<C: Count + std::fmt::Debug>(
    sh: &SensitiveSet,
    stream: &[Sequence],
) -> Result<(), TestCaseError> {
    let mut engine = MatchEngine::<C>::new(sh);
    for t in stream {
        let nonzero: Vec<bool> = sh
            .iter()
            .map(|p| !count_matches::<C>(p, t).is_zero())
            .collect();
        prop_assert_eq!(
            engine.is_supporter(t),
            nonzero.contains(&true),
            "is_supporter on {:?}",
            t
        );
        for (k, &nz) in nonzero.iter().enumerate() {
            prop_assert_eq!(
                engine.supports_pattern(t, k),
                nz,
                "pattern {} on {:?}",
                k,
                t
            );
        }
        prop_assert_eq!(
            PatternDomain::matching_size(&mut engine, t),
            matching_size::<C>(sh, t),
            "matching_size on {:?}",
            t
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn supports_equals_nonzero_count(
        s in pattern_strategy(),
        t in seq_strategy(14),
        cs in constraint_strategy(),
    ) {
        prop_assume!(cs.validate(s.len()).is_ok());
        let p = SensitivePattern::new(s, cs).unwrap();
        let sat = !count_matches::<Sat64>(&p, &t).is_zero();
        prop_assert_eq!(seqhide_match::supports(&t, &p), sat);
        prop_assert_eq!(!count_matches::<BigCount>(&p, &t).is_zero(), sat);
    }

    #[test]
    fn one_engine_over_shifting_alphabets_matches_counts(
        pats in prop::collection::vec((pattern_strategy(), constraint_strategy()), 1..=3),
        stream in shifting_stream(),
    ) {
        let sh = sensitive_set(pats);
        prop_assume!(!sh.is_empty());
        engine_matches_counts::<Sat64>(&sh, &stream)?;
        engine_matches_counts::<BigCount>(&sh, &stream)?;
    }
}
