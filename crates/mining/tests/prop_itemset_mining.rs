//! Property tests: the itemset-sequence miner is sound and complete
//! against exhaustive pattern enumeration.

use proptest::prelude::*;
use seqhide_match::itemset::{supports_itemset, ItemsetPattern};
use seqhide_mine::{ItemsetMiner, MinerConfig};
use seqhide_types::ItemsetSequence;

/// All canonical itemset-sequence patterns over alphabet {0,1,2} with at
/// most `max_items` total items (each element a non-empty subset).
fn all_patterns(max_items: usize) -> Vec<ItemsetSequence> {
    let subsets: Vec<Vec<u32>> = (1u32..8)
        .map(|mask| (0..3).filter(|i| mask & (1 << i) != 0).collect())
        .collect();
    let mut out: Vec<Vec<Vec<u32>>> = vec![vec![]];
    let mut result = Vec::new();
    loop {
        let mut next = Vec::new();
        for p in &out {
            let used: usize = p.iter().map(Vec::len).sum();
            for s in &subsets {
                if used + s.len() > max_items {
                    continue;
                }
                let mut q = p.clone();
                q.push(s.clone());
                result.push(ItemsetSequence::from_ids(q.iter().cloned()));
                next.push(q);
            }
        }
        if next.is_empty() {
            break;
        }
        out = next;
    }
    result
}

fn db_strategy() -> impl Strategy<Value = Vec<ItemsetSequence>> {
    prop::collection::vec(
        prop::collection::vec(prop::collection::vec(0u32..3, 1..=3), 0..=5),
        1..=6,
    )
    .prop_map(|rows| rows.into_iter().map(ItemsetSequence::from_ids).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn itemset_miner_sound_and_complete(db in db_strategy(), sigma in 1usize..4) {
        let r = ItemsetMiner::mine(&db, &MinerConfig::new(sigma).with_max_len(3));
        prop_assert!(!r.truncated);
        // soundness: reported supports are correct and ≥ σ
        for fp in &r.patterns {
            let p = ItemsetPattern::unconstrained(fp.seq.clone()).unwrap();
            let sup = db.iter().filter(|t| supports_itemset(t, &p)).count();
            prop_assert_eq!(fp.support, sup);
            prop_assert!(sup >= sigma);
        }
        // completeness: every frequent canonical pattern is found
        let found: Vec<&ItemsetSequence> = r.patterns.iter().map(|p| &p.seq).collect();
        for cand in all_patterns(3) {
            let p = ItemsetPattern::unconstrained(cand.clone()).unwrap();
            let sup = db.iter().filter(|t| supports_itemset(t, &p)).count();
            if sup >= sigma {
                prop_assert!(found.contains(&&cand), "missing {:?} (sup {})", cand, sup);
            } else {
                prop_assert!(!found.contains(&&cand), "spurious {:?}", cand);
            }
        }
    }

    #[test]
    fn frequent_set_shrinks_with_sigma(db in db_strategy()) {
        let sizes: Vec<usize> = (1..=4)
            .map(|sigma| {
                ItemsetMiner::mine(&db, &MinerConfig::new(sigma).with_max_len(3)).len()
            })
            .collect();
        for w in sizes.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn sanitization_only_shrinks_itemset_frequent_sets(
        db in db_strategy(),
        pat in prop::collection::vec(prop::collection::vec(0u32..3, 1..=2), 1..=2),
        sigma in 1usize..3,
    ) {
        use seqhide_core::Sanitizer;
        use seqhide_match::ItemsetMatchEngine;
        use seqhide_num::Sat64;
        let pattern = ItemsetPattern::unconstrained(ItemsetSequence::from_ids(pat)).unwrap();
        let before = ItemsetMiner::mine(&db, &MinerConfig::new(sigma).with_max_len(3));
        let mut work = db.clone();
        Sanitizer::hh(0).with_seed(0).run_domain(
            &mut work,
            &mut ItemsetMatchEngine::<Sat64>::new(std::slice::from_ref(&pattern)),
        );
        let after = ItemsetMiner::mine(&work, &MinerConfig::new(sigma).with_max_len(3));
        let before_keys: Vec<String> =
            before.patterns.iter().map(|p| format!("{:?}", p.seq)).collect();
        for fp in &after.patterns {
            // item marking never creates frequent itemset patterns
            prop_assert!(before_keys.contains(&format!("{:?}", fp.seq)),
                "fake itemset pattern {:?}", fp.seq);
        }
    }
}

#[test]
fn all_patterns_enumeration_is_canonical() {
    let pats = all_patterns(2);
    // 1-element patterns: 7 subsets with ≤2 items → sizes 1 and 2: C(3,1)+C(3,2)=6
    // plus size-3 excluded; 2-element patterns: each element 1 item: 3×3 = 9.
    let one: Vec<_> = pats.iter().filter(|p| p.len() == 1).collect();
    let two: Vec<_> = pats.iter().filter(|p| p.len() == 2).collect();
    assert_eq!(one.len(), 6);
    assert_eq!(two.len(), 9);
    // no duplicates (Itemset::from_ids sorts/dedups and generation is canonical)
    let mut keys: Vec<String> = pats.iter().map(|p| format!("{p:?}")).collect();
    let before = keys.len();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), before);
}
