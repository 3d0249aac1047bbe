//! Sanitization of itemset sequences (§7.1) with the paper's two-level
//! hierarchical heuristic.
//!
//! For itemset sequences "the marking operation … is more challenging …
//! One possible solution is first choosing the position in `T` to sanitize
//! using the same heuristic proposed for simple sequences, and then,
//! choosing a subset of items for marking in this itemset which reduces the
//! matching set most." That is exactly what the itemset domain,
//! [`ItemsetMatchEngine`], does under the generic [`sanitize_victim`]
//! loop:
//!
//! 1. **level 1** — pick the element position with the largest element-`δ`
//!    (occurrences through that element);
//! 2. **level 2** — inside that element, greedily mark the item with the
//!    largest item-`δ` until the element participates in no occurrence
//!    (the engine's `distort`, which reads
//!    [`ItemsetMatchEngine::item_delta`]: an `O(m)` table lookup per item
//!    for gap-free patterns, instead of a full recount);
//! 3. repeat until the matching set is empty.
//!
//! The global rule is the same as for plain sequences (ascending
//! matching-set size, spare the `ψ` most expensive supporters), so a
//! database is sanitized by [`Sanitizer::run_domain`] or
//! [`Sanitizer::run_domain_threaded`] with the engine as the domain:
//!
//! ```
//! use seqhide_types::ItemsetSequence;
//! use seqhide_match::itemset::{support_itemset, ItemsetPattern};
//! use seqhide_match::ItemsetMatchEngine;
//! use seqhide_num::Sat64;
//! use seqhide_core::Sanitizer;
//! let patterns = [ItemsetPattern::unconstrained(
//!     ItemsetSequence::from_ids([vec![1], vec![2]]),
//! ).unwrap()];
//! let mut db = vec![
//!     ItemsetSequence::from_ids([vec![1, 9], vec![2]]),
//!     ItemsetSequence::from_ids([vec![3], vec![4]]),
//! ];
//! let report = Sanitizer::hh(0)
//!     .run_domain(&mut db, &mut ItemsetMatchEngine::<Sat64>::new(&patterns));
//! assert!(report.hidden);
//! assert_eq!(support_itemset(&db, &patterns[0]), 0);
//! ```
//!
//! [`ItemsetMatchEngine`]: seqhide_match::ItemsetMatchEngine
//! [`ItemsetMatchEngine::item_delta`]: seqhide_match::ItemsetMatchEngine::item_delta
//! [`sanitize_victim`]: crate::sanitize_victim
//! [`Sanitizer::run_domain`]: crate::Sanitizer::run_domain
//! [`Sanitizer::run_domain_threaded`]: crate::Sanitizer::run_domain_threaded

#[cfg(test)]
mod tests {
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use seqhide_match::itemset::{supports_itemset, ItemsetPattern};
    use seqhide_match::ItemsetMatchEngine;
    use seqhide_num::Sat64;
    use seqhide_types::{ItemsetSequence, Symbol};

    use crate::{sanitize_victim, LocalStrategy, SanitizeReport, Sanitizer};

    fn iseq(groups: &[&[u32]]) -> ItemsetSequence {
        ItemsetSequence::from_ids(groups.iter().map(|g| g.to_vec()))
    }

    fn ipat(groups: &[&[u32]]) -> ItemsetPattern {
        ItemsetPattern::unconstrained(iseq(groups)).unwrap()
    }

    /// One victim through the itemset domain's marking loop.
    fn sanitize_one(
        t: &mut ItemsetSequence,
        patterns: &[ItemsetPattern],
        strategy: LocalStrategy,
        seed: u64,
    ) -> usize {
        let mut engine = ItemsetMatchEngine::<Sat64>::new(patterns);
        sanitize_victim(
            &mut engine,
            t,
            strategy,
            &mut ChaCha8Rng::seed_from_u64(seed),
        )
    }

    /// HH over the itemset domain.
    fn sanitize_db(
        db: &mut [ItemsetSequence],
        patterns: &[ItemsetPattern],
        psi: usize,
    ) -> SanitizeReport {
        Sanitizer::hh(psi)
            .with_seed(0)
            .run_domain(db, &mut ItemsetMatchEngine::<Sat64>::new(patterns))
    }

    #[test]
    fn single_sequence_sanitization_marks_minimally() {
        // pattern ⟨{1} {2}⟩ in ⟨{1,9} {1} {2,8}⟩: both occurrences share the
        // {2} at element 2 — one item mark (item 2) suffices.
        let p = ipat(&[&[1], &[2]]);
        let mut t = iseq(&[&[1, 9], &[1], &[2, 8]]);
        let marks = sanitize_one(
            &mut t,
            std::slice::from_ref(&p),
            LocalStrategy::Heuristic,
            0,
        );
        assert_eq!(marks, 1);
        assert!(!supports_itemset(&t, &p));
        // the untouched items survive
        assert!(t.elements()[2].contains(Symbol::new(8)));
    }

    #[test]
    fn level2_marks_only_needed_items() {
        // pattern ⟨{1,2}⟩ in ⟨{1,2,3}⟩: marking either 1 or 2 breaks the
        // inclusion; 3 must survive.
        let p = ipat(&[&[1, 2]]);
        let mut t = iseq(&[&[1, 2, 3]]);
        let marks = sanitize_one(
            &mut t,
            std::slice::from_ref(&p),
            LocalStrategy::Heuristic,
            0,
        );
        assert_eq!(marks, 1);
        assert!(!supports_itemset(&t, &p));
        assert!(t.elements()[0].contains(Symbol::new(3)));
    }

    #[test]
    fn random_strategy_terminates_clean() {
        for seed in 0..10 {
            let p = ipat(&[&[1], &[2]]);
            let mut t = iseq(&[&[1, 5], &[2, 1], &[2], &[1, 2]]);
            let marks = sanitize_one(
                &mut t,
                std::slice::from_ref(&p),
                LocalStrategy::Random,
                seed,
            );
            assert!(marks >= 1, "seed {seed}");
            assert!(!supports_itemset(&t, &p), "seed {seed}");
        }
    }

    #[test]
    fn db_sanitization_respects_psi() {
        let p = ipat(&[&[1], &[2]]);
        let mut db = vec![
            iseq(&[&[1], &[2]]),
            iseq(&[&[1], &[2], &[2]]),
            iseq(&[&[1, 2], &[2]]),
            iseq(&[&[3]]),
        ];
        let report = sanitize_db(&mut db, std::slice::from_ref(&p), 1);
        assert!(report.hidden);
        assert_eq!(report.residual_supports, vec![1]);
        assert_eq!(report.sequences_sanitized, 2);
        // untouched non-supporter
        assert_eq!(db[3].mark_count(), 0);
    }

    #[test]
    fn db_sanitization_psi_zero_clears_all() {
        let p = ipat(&[&[7]]);
        let mut db = vec![iseq(&[&[7]]), iseq(&[&[7, 8]]), iseq(&[&[9]])];
        let report = sanitize_db(&mut db, std::slice::from_ref(&p), 0);
        assert!(report.hidden);
        assert_eq!(report.residual_supports, vec![0]);
        assert_eq!(report.marks_introduced, 2);
        // non-required item survives in db[1]
        assert!(db[1].elements()[0].contains(Symbol::new(8)));
    }

    #[test]
    fn multiple_patterns() {
        let p1 = ipat(&[&[1], &[2]]);
        let p2 = ipat(&[&[3]]);
        let mut db = vec![iseq(&[&[1, 3], &[2]]), iseq(&[&[3], &[1]])];
        let report = sanitize_db(&mut db, &[p1, p2], 0);
        assert!(report.hidden);
        assert_eq!(report.residual_supports, vec![0, 0]);
    }
}
