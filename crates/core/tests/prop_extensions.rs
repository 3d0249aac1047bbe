//! Property tests for the §7 extensions: timed-event counting against a
//! brute-force tuple oracle, itemset counting against subset-inclusion
//! enumeration, and the multi-threshold scheduler contract.

use proptest::prelude::*;
use seqhide_core::timed::{
    count_matches_timed, delta_timed, supports_timed, TimeConstraints, TimeGap, TimedPattern,
};
use seqhide_core::{DisclosureThresholds, Sanitizer, TimedDomain};
use seqhide_match::itemset::{count_matches_itemset, supports_itemset, ItemsetPattern};
use seqhide_match::{supporters, ItemsetMatchEngine, SensitiveSet};
use seqhide_num::Sat64;
use seqhide_types::{ItemsetSequence, Sequence, SequenceDb, TimedSequence};

// ───────────────────────── timed events ─────────────────────────

/// Brute force: every strictly increasing tuple whose symbols equal the
/// pattern and whose elapsed times satisfy gap/window constraints.
fn brute_timed(p: &TimedPattern, t: &TimedSequence) -> u64 {
    let n = t.len();
    assert!(n <= 12);
    let m = p.seq().len();
    let mut count = 0u64;
    for mask in 1u32..(1 << n) {
        let tuple: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        if tuple.len() != m {
            continue;
        }
        if !tuple
            .iter()
            .zip(p.seq().iter())
            .all(|(&i, &s)| s.matches(t.events()[i].symbol))
        {
            continue;
        }
        let ok_gaps = tuple.windows(2).enumerate().all(|(k, w)| {
            let elapsed = t.time_at(w[1]) - t.time_at(w[0]);
            let gap = gap_at(p, k, m - 1);
            elapsed >= gap.min && gap.max.is_none_or(|mx| elapsed <= mx)
        });
        if !ok_gaps {
            continue;
        }
        if let Some(ws) = p.constraints().max_window {
            let span = t.time_at(*tuple.last().unwrap()) - t.time_at(tuple[0]);
            if span > ws {
                continue;
            }
        }
        count += 1;
    }
    count
}

fn gap_at(p: &TimedPattern, k: usize, arrows: usize) -> TimeGap {
    let gaps = &p.constraints().gaps;
    match gaps.len() {
        0 => TimeGap::any(),
        1 if arrows != 1 => gaps[0],
        _ => gaps.get(k).copied().unwrap_or_else(TimeGap::any),
    }
}

fn timed_seq_strategy() -> impl Strategy<Value = TimedSequence> {
    prop::collection::vec((0u32..4, 0u64..8), 0..=9).prop_map(|mut evs| {
        // sort by the time component to satisfy the non-decreasing invariant
        evs.sort_by_key(|&(_, t)| t);
        TimedSequence::from_pairs(evs)
    })
}

fn time_constraints_strategy() -> impl Strategy<Value = TimeConstraints> {
    (
        prop::option::of((0u64..4, prop::option::of(0u64..6))),
        prop::option::of(1u64..12),
    )
        .prop_map(|(gap, window)| {
            let mut tc = match gap {
                Some((min, extra)) => TimeConstraints::uniform_gap(TimeGap {
                    min,
                    max: extra.map(|e| min + e),
                }),
                None => TimeConstraints::none(),
            };
            tc.max_window = window;
            tc
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn timed_count_matches_brute_force(
        pat in prop::collection::vec(0u32..4, 1..=3),
        t in timed_seq_strategy(),
        tc in time_constraints_strategy(),
    ) {
        let p = TimedPattern::new(Sequence::from_ids(pat), tc).unwrap();
        prop_assert_eq!(count_matches_timed::<u64>(&p, &t), brute_timed(&p, &t));
    }

    #[test]
    fn timed_delta_matches_brute_force(
        pat in prop::collection::vec(0u32..4, 1..=3),
        t in timed_seq_strategy(),
        tc in time_constraints_strategy(),
    ) {
        let p = TimedPattern::new(Sequence::from_ids(pat), tc).unwrap();
        let delta = delta_timed::<u64>(std::slice::from_ref(&p), &t);
        let total = brute_timed(&p, &t);
        for (i, &d) in delta.iter().enumerate() {
            let mut t2 = t.clone();
            t2.mark(i);
            prop_assert_eq!(d, total - brute_timed(&p, &t2), "position {}", i);
        }
    }

    #[test]
    fn timed_sanitizer_hides(
        pat in prop::collection::vec(0u32..4, 1..=3),
        rows in prop::collection::vec(
            prop::collection::vec((0u32..4, 0u64..8), 0..=8), 1..=6),
        psi in 0usize..3,
        tc in time_constraints_strategy(),
    ) {
        let p = TimedPattern::new(Sequence::from_ids(pat), tc).unwrap();
        let mut db: Vec<TimedSequence> = rows
            .into_iter()
            .map(|mut evs| {
                evs.sort_by_key(|&(_, t)| t);
                TimedSequence::from_pairs(evs)
            })
            .collect();
        let report = Sanitizer::hh(psi).with_seed(0).run_domain(
            &mut db,
            &mut TimedDomain::<Sat64>::new(std::slice::from_ref(&p)),
        );
        prop_assert!(report.hidden);
        let survivors = db.iter().filter(|t| supports_timed(t, &p)).count();
        prop_assert!(survivors <= psi);
        // time tags are never altered by sanitization
        for t in &db {
            prop_assert!(t.events().windows(2).all(|w| w[0].time <= w[1].time));
        }
    }
}

// ───────────────────────── itemset sequences ─────────────────────────

/// Brute force for itemset patterns: inclusion at each chosen element.
fn brute_itemset(p: &ItemsetPattern, t: &ItemsetSequence) -> u64 {
    let n = t.len();
    assert!(n <= 10);
    let m = p.len();
    let mut count = 0u64;
    for mask in 1u32..(1 << n) {
        let tuple: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        if tuple.len() != m {
            continue;
        }
        if tuple
            .iter()
            .zip(p.elements().elements())
            .all(|(&i, pe)| pe.included_in(&t.elements()[i]))
        {
            count += 1;
        }
    }
    count
}

fn itemset_seq_strategy(max_len: usize) -> impl Strategy<Value = ItemsetSequence> {
    prop::collection::vec(prop::collection::vec(0u32..4, 1..=3), 0..=max_len)
        .prop_map(ItemsetSequence::from_ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn itemset_count_matches_brute_force(
        pat in prop::collection::vec(prop::collection::vec(0u32..4, 1..=2), 1..=3),
        t in itemset_seq_strategy(8),
    ) {
        let p = ItemsetPattern::unconstrained(ItemsetSequence::from_ids(pat)).unwrap();
        prop_assert_eq!(count_matches_itemset::<u64>(&p, &t), brute_itemset(&p, &t));
    }

    #[test]
    fn itemset_sanitizer_hides_and_marks_only_items(
        pat in prop::collection::vec(prop::collection::vec(0u32..4, 1..=2), 1..=2),
        rows in prop::collection::vec(itemset_seq_strategy(6), 1..=6),
        psi in 0usize..3,
    ) {
        let p = ItemsetPattern::unconstrained(ItemsetSequence::from_ids(pat)).unwrap();
        let mut db = rows.clone();
        let report = Sanitizer::hh(psi).with_seed(0).run_domain(
            &mut db,
            &mut ItemsetMatchEngine::<Sat64>::new(std::slice::from_ref(&p)),
        );
        prop_assert!(report.hidden);
        prop_assert!(db.iter().filter(|t| supports_itemset(t, &p)).count() <= psi);
        // shape preserved: same number of elements, same or fewer live items
        for (orig, got) in rows.iter().zip(&db) {
            prop_assert_eq!(orig.len(), got.len());
            for (oe, ge) in orig.elements().iter().zip(got.elements()) {
                prop_assert_eq!(oe.len(), ge.len());
                prop_assert!(ge.live_len() <= oe.live_len());
                // every live item of the release existed originally
                for item in ge.live_items() {
                    prop_assert!(oe.contains(item));
                }
            }
        }
    }
}

// ───────────────────────── multi-threshold scheduler ─────────────────────────

fn db_strategy() -> impl Strategy<Value = SequenceDb> {
    prop::collection::vec(prop::collection::vec(0u32..4, 0..=8), 1..=10).prop_map(|rows| {
        SequenceDb::from_parts(
            seqhide_types::Alphabet::anonymous(4),
            rows.into_iter().map(Sequence::from_ids).collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn scheduler_meets_every_threshold(
        db in db_strategy(),
        spec in prop::collection::vec(
            (prop::collection::vec(0u32..4, 1..=2), 0usize..4),
            1..=3,
        ),
    ) {
        let (pats, thresholds): (Vec<_>, Vec<_>) = spec.into_iter().unzip();
        let sh = SensitiveSet::new(pats.into_iter().map(Sequence::from_ids).collect());
        let th = DisclosureThresholds::new(thresholds);
        let mut db_sched = db.clone();
        let sched = Sanitizer::hh(0).run_multi(&mut db_sched, &sh, &th);
        prop_assert!(sched.hidden);
        for (i, p) in sh.iter().enumerate() {
            let single = SensitiveSet::from_patterns(vec![p.clone()]);
            prop_assert!(supporters(&db_sched, &single).len() <= th.get(i));
        }
        // Min-reduction is also always sound. NOTE: the scheduler is NOT
        // universally cheaper — its per-pattern passes cannot share marks
        // across patterns (a mark chosen for pattern A may be exactly what
        // pattern B needed), so no cost dominance holds in either
        // direction; it wins when thresholds genuinely differ (see the
        // deterministic cases in sanitizer.rs and end_to_end.rs).
        let mut db_min = db.clone();
        let min = Sanitizer::hh(0).run_multi_min(&mut db_min, &sh, &th);
        prop_assert!(min.hidden);
    }

    #[test]
    fn uniform_thresholds_match_single_run_outcome(
        db in db_strategy(),
        pats in prop::collection::vec(prop::collection::vec(0u32..4, 1..=2), 1..=2),
        psi in 0usize..4,
    ) {
        let sh = SensitiveSet::new(pats.into_iter().map(Sequence::from_ids).collect());
        let th = DisclosureThresholds::uniform(psi, sh.len());
        let mut a = db.clone();
        let ra = Sanitizer::hh(psi).run(&mut a, &sh);
        let mut b = db.clone();
        let rb = Sanitizer::hh(0).run_multi_min(&mut b, &sh, &th);
        prop_assert!(ra.hidden && rb.hidden);
        prop_assert_eq!(a.to_text(), b.to_text());
    }
}
