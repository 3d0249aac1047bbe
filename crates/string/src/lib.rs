//! # seqhide-string
//!
//! Contiguous-substring sanitization — the domain that proves the
//! [`DistortOp`](seqhide_types::DistortOp) generalization end to end.
//!
//! The paper hides *subsequence* patterns by Δ-marking; the
//! string-sanitization line of work (Bernardini et al., arXiv:1906.11030
//! "String Sanitization: A Combinatorial Approach"; Mieno et al.,
//! arXiv:2007.08179) hides *contiguous substrings* with edit operations
//! under the invariant that sanitization must never create a fresh
//! sensitive occurrence. This crate supplies:
//!
//! * [`StringPattern`] — a validated sensitive substring;
//! * [`StringDomain`] — a [`PatternDomain`](seqhide_match::PatternDomain)
//!   counting occurrences with a hand-rolled Aho–Corasick automaton and
//!   distorting with any of mark / delete / substitute
//!   ([`OpKind`](seqhide_types::OpKind)), with per-edit safety guards and
//!   Δ fallback;
//! * [`substring_distortion`] — M1/M2/M3 adapted to frequent n-grams
//!   (where, unlike marking, edits can create *ghost* patterns).
//!
//! Everything else — victim selection, the local δ loop, threading,
//! two-pass streaming, serving — is the generic machinery of
//! `seqhide-core`, driven through the trait: a database is sanitized by
//! `Sanitizer::run_domain` (or `run_domain_threaded`) with a
//! [`StringDomain`], whose [`journal`](StringDomain::journal) afterwards
//! records which edit each position received.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ac;
mod domain;
mod metrics;

pub use domain::{StringDomain, StringPattern, StringPatternError};
pub use metrics::{substring_distortion, SubstringDistortionReport};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use seqhide_core::Sanitizer;
    use seqhide_match::{LocalStrategy, PatternDomain};
    use seqhide_num::Sat64;
    use seqhide_types::{Alphabet, OpKind, Sequence};

    fn pats(texts: &[&str], sigma: &mut Alphabet) -> Vec<StringPattern> {
        texts
            .iter()
            .map(|t| StringPattern::new(Sequence::parse(t, sigma)).unwrap())
            .collect()
    }

    #[test]
    fn pattern_validation() {
        let mut sigma = Alphabet::new();
        assert_eq!(
            StringPattern::new(Sequence::empty()),
            Err(StringPatternError::Empty)
        );
        let mut s = Sequence::parse("a b", &mut sigma);
        s.mark(0);
        assert_eq!(StringPattern::new(s), Err(StringPatternError::ContainsMark));
        assert!(StringPattern::new(Sequence::parse("a b", &mut sigma)).is_ok());
    }

    #[test]
    fn contiguity_is_enforced() {
        let mut sigma = Alphabet::new();
        let patterns = pats(&["a b"], &mut sigma);
        let mut d = StringDomain::<Sat64>::new(&patterns, sigma.len());
        // "a x b" contains a-b as a subsequence but not as a substring
        let gap = Sequence::parse("a x b", &mut sigma);
        let tight = Sequence::parse("x a b x", &mut sigma);
        assert!(!d.is_supporter(&gap));
        assert!(d.is_supporter(&tight));
        assert!(d.supports_pattern(&tight, 0));
    }

    #[test]
    fn argmax_picks_most_covered_position() {
        let mut sigma = Alphabet::new();
        let patterns = pats(&["a a"], &mut sigma);
        let mut d = StringDomain::<Sat64>::new(&patterns, sigma.len());
        // "a a a": occurrences [0,1] and [1,2]; δ = [1, 2, 1]
        let mut t = Sequence::parse("a a a", &mut sigma);
        assert_eq!(d.argmax(&mut t), Some(1));
        assert_eq!(d.candidates(&mut t), &[0, 1, 2]);
    }

    fn occurrences(patterns: &[StringPattern], t: &Sequence, sigma_len: usize) -> u64 {
        let mut d = StringDomain::<u64>::new(patterns, sigma_len);
        d.matching_size(t)
    }

    /// Each operator family strictly decreases the occurrence count and
    /// creates no new occurrence, even on splice-prone inputs.
    #[test]
    fn every_op_family_reduces_without_creating() {
        let mut sigma = Alphabet::new();
        // "a b a" is the splice trap: deleting the middle b of
        // "a b a b a"-style texts can create fresh "a b a" occurrences.
        let patterns = pats(&["a b a"], &mut sigma);
        let texts = ["a b a", "a b a b a", "a b b a b a", "b a b a b"];
        for op in OpKind::ALL {
            for text in texts {
                let mut t = Sequence::parse(text, &mut sigma);
                let mut d = StringDomain::<Sat64>::new(&patterns, sigma.len()).with_op(op);
                let mut rng = SmallRng::seed_from_u64(1);
                let mut last = occurrences(&patterns, &t, sigma.len());
                let mut guard = 0;
                while let Some(pos) = d.argmax(&mut t) {
                    d.distort(&mut t, pos, LocalStrategy::Heuristic, &mut rng);
                    let now = occurrences(&patterns, &t, sigma.len());
                    assert!(
                        now < last,
                        "{op}: occurrence count did not strictly decrease on {text:?}"
                    );
                    last = now;
                    guard += 1;
                    assert!(guard <= 64, "{op}: loop did not terminate on {text:?}");
                }
                assert_eq!(last, 0, "{op}: residual occurrences on {text:?}");
            }
        }
    }

    #[test]
    fn unsafe_deletes_fall_back_to_mark() {
        let mut sigma = Alphabet::new();
        let patterns = pats(&["a a"], &mut sigma);
        // δ of "a a a" peaks at the middle a — but deleting it would
        // splice the outer two into a fresh "a a" across the junction,
        // so the domain must mark instead.
        let mut t = Sequence::parse("a a a", &mut sigma);
        let mut d = StringDomain::<Sat64>::new(&patterns, sigma.len()).with_op(OpKind::Delete);
        let mut rng = SmallRng::seed_from_u64(1);
        while let Some(pos) = d.argmax(&mut t) {
            d.distort(&mut t, pos, LocalStrategy::Heuristic, &mut rng);
        }
        assert_eq!(occurrences(&patterns, &t, sigma.len()), 0);
        assert_eq!(d.journal.count_of(OpKind::Mark), 1);
        assert_eq!(d.journal.count_of(OpKind::Delete), 0);
        assert_eq!(t.len(), 3, "unsafe delete must not shorten the sequence");
    }

    #[test]
    fn substitution_avoids_creating_occurrences() {
        let mut sigma = Alphabet::new();
        // Substituting the a of "a b x" must skip b (would write the
        // sensitive "b b") and c (would write "c b"), landing on x.
        let patterns = pats(&["a b", "c b", "b b"], &mut sigma);
        let mut t = Sequence::parse("a b x", &mut sigma);
        let mut d = StringDomain::<Sat64>::new(&patterns, sigma.len()).with_op(OpKind::Substitute);
        let mut rng = SmallRng::seed_from_u64(1);
        while let Some(pos) = d.argmax(&mut t) {
            d.distort(&mut t, pos, LocalStrategy::Heuristic, &mut rng);
        }
        assert_eq!(occurrences(&patterns, &t, sigma.len()), 0);
        assert!(
            !t.has_marks(),
            "a safe substitution existed; Δ fallback not expected: {t:?}"
        );
        assert_eq!(d.journal.count_of(OpKind::Substitute), d.journal.len());
    }

    #[test]
    fn substitution_falls_back_to_mark_when_cornered() {
        let mut sigma = Alphabet::new();
        // Alphabet is exactly {a, b}; hiding "a" and "b" leaves no safe
        // replacement symbol at all — every edit must fall back to Δ.
        let patterns = pats(&["a", "b"], &mut sigma);
        let mut t = Sequence::parse("a b", &mut sigma);
        let mut d = StringDomain::<Sat64>::new(&patterns, sigma.len()).with_op(OpKind::Substitute);
        let mut rng = SmallRng::seed_from_u64(1);
        while let Some(pos) = d.argmax(&mut t) {
            d.distort(&mut t, pos, LocalStrategy::Heuristic, &mut rng);
        }
        assert_eq!(occurrences(&patterns, &t, sigma.len()), 0);
        assert_eq!(d.journal.count_of(OpKind::Mark), 2);
    }

    #[test]
    fn db_driver_hides_to_psi_with_each_op() {
        let mut sigma = Alphabet::new();
        let patterns = pats(&["x y"], &mut sigma);
        for op in OpKind::ALL {
            let mut db: Vec<Sequence> = ["x y a", "b x y", "x y x y", "a b c"]
                .iter()
                .map(|l| Sequence::parse(l, &mut sigma))
                .collect();
            let mut domain = StringDomain::<Sat64>::new(&patterns, sigma.len()).with_op(op);
            let r = Sanitizer::hh(1)
                .with_seed(7)
                .run_domain(&mut db, &mut domain);
            assert!(r.hidden, "{op}: not hidden to ψ=1");
            assert_eq!(r.residual_supports, vec![1]);
            let applied: usize = OpKind::ALL
                .iter()
                .map(|&kind| domain.journal.count_of(kind))
                .sum();
            assert_eq!(applied, r.marks_introduced);
        }
    }

    #[test]
    fn delete_actually_shortens_sequences() {
        let mut sigma = Alphabet::new();
        let patterns = pats(&["p q"], &mut sigma);
        let mut db = vec![Sequence::parse("a p q b", &mut sigma)];
        let before_len = db[0].len();
        let mut domain = StringDomain::<Sat64>::new(&patterns, sigma.len()).with_op(OpKind::Delete);
        let r = Sanitizer::hh(0)
            .with_seed(7)
            .run_domain(&mut db, &mut domain);
        assert!(r.hidden);
        assert!(db[0].len() < before_len, "delete should remove elements");
        assert_eq!(db[0].mark_count(), 0);
    }
}
