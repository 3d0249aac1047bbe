//! Support counting: `sup_D(S) = |{T ∈ D | S ⊑ T}|` (§3.1).

use seqhide_types::{Sequence, SequenceDb, Symbol};

use crate::counting::count_matches;
use crate::pattern::{SensitivePattern, SensitiveSet};
use crate::subsequence::is_subsequence;

/// Unconstrained support of `s` in `db` — the number of database sequences
/// that contain `s` as a subsequence.
///
/// ```
/// use seqhide_types::{Sequence, SequenceDb};
/// use seqhide_match::support;
/// let mut db = SequenceDb::parse("a b c\nb c\nc a\n");
/// let s = Sequence::parse("b c", db.alphabet_mut());
/// assert_eq!(support(&db, &s), 2);
/// ```
pub fn support(db: &SequenceDb, s: &Sequence) -> usize {
    db.sequences()
        .iter()
        .filter(|t| is_subsequence(s, t))
        .count()
}

/// Constraint-aware support of a sensitive pattern: a sequence supports the
/// pattern iff it contains at least one occurrence satisfying the pattern's
/// gap/window constraints.
pub fn support_of_pattern(db: &SequenceDb, p: &SensitivePattern) -> usize {
    db.sequences().iter().filter(|t| supports(t, p)).count()
}

/// Support of the *disjunction* of a sensitive set — the number of
/// sequences supporting at least one sensitive pattern (the quantity the
/// paper's dataset table reports as `sup(S₁ ∨ S₂)`).
pub fn support_of_set(db: &SequenceDb, sh: &SensitiveSet) -> usize {
    db.sequences()
        .iter()
        .filter(|t| sh.iter().any(|p| supports(t, p)))
        .count()
}

/// Indices of the sequences in `db` that support at least one pattern of
/// `sh` — the candidate set the global selection strategies draw from.
pub fn supporters(db: &SequenceDb, sh: &SensitiveSet) -> Vec<usize> {
    db.sequences()
        .iter()
        .enumerate()
        .filter_map(|(i, t)| sh.iter().any(|p| supports(t, p)).then_some(i))
        .collect()
}

/// Whether `t` supports `p` (≥ 1 constrained occurrence).
///
/// Unconstrained patterns use the greedy `O(n)` scan. A constrained
/// pattern is first rejected, without allocating, when one of its symbols
/// is absent from `t`; only a pattern that passes runs the counting DP
/// with saturating arithmetic (saturation cannot flip a non-zero count to
/// zero, so the boolean answer is exact).
pub fn supports(t: &Sequence, p: &SensitivePattern) -> bool {
    use seqhide_num::Count as _;
    if p.constraints().is_none() {
        is_subsequence(p.seq(), t)
    } else {
        all_present(p.seq().symbols(), t.symbols())
            && !count_matches::<seqhide_num::Sat64>(p, t).is_zero()
    }
}

/// Whether every symbol of `required` occurs unmarked in `t`; stops at the
/// first absent one, allocates nothing and costs `O(m·n)`.
///
/// When a pattern symbol fails this, `t` holds no occurrence of the
/// pattern: an occurrence matches each pattern element with a symbol of
/// `t`, and the mark `Δ` matches nothing. Its count is then 0 under every
/// constraint class and in every counter type, so skipping the DP is
/// exact.
pub(crate) fn all_present(required: &[Symbol], t: &[Symbol]) -> bool {
    required.iter().all(|&s| !s.is_mark() && t.contains(&s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{ConstraintSet, Gap};
    use seqhide_types::Alphabet;

    fn db() -> SequenceDb {
        SequenceDb::parse("a b c d\nb a c\nc a b c\nd d\n")
    }

    #[test]
    fn plain_support() {
        let mut db = db();
        let s = Sequence::parse("a c", db.alphabet_mut());
        assert_eq!(support(&db, &s), 3);
        let s2 = Sequence::parse("d d", db.alphabet_mut());
        assert_eq!(support(&db, &s2), 1);
        let absent = Sequence::parse("c c c", db.alphabet_mut());
        assert_eq!(support(&db, &absent), 0);
    }

    #[test]
    fn constrained_support_is_stricter() {
        let mut db = db();
        let s = Sequence::parse("a c", db.alphabet_mut());
        let adjacent =
            SensitivePattern::new(s.clone(), ConstraintSet::uniform_gap(Gap::adjacent())).unwrap();
        // "a c" adjacent: row2 "b a c" and row3 "c a b c"? in row3 a is at 1,
        // c at 3 (gap 1) → no; row1 "a b c d" gap 1 → no; row2 a at 1, c at 2 → yes.
        assert_eq!(support_of_pattern(&db, &adjacent), 1);
        let loose = SensitivePattern::unconstrained(s).unwrap();
        assert_eq!(support_of_pattern(&db, &loose), 3);
    }

    #[test]
    fn disjunction_support_and_supporters() {
        let mut db = db();
        let s1 = Sequence::parse("a b", db.alphabet_mut());
        let s2 = Sequence::parse("d", db.alphabet_mut());
        let sh = SensitiveSet::new(vec![s1, s2]);
        // s1 in rows 0,2; s2 in rows 0,3 ⇒ disjunction rows 0,2,3
        assert_eq!(support_of_set(&db, &sh), 3);
        assert_eq!(supporters(&db, &sh), vec![0, 2, 3]);
    }

    #[test]
    fn marked_sequences_lose_support() {
        let mut db = db();
        let s = Sequence::parse("a c", db.alphabet_mut());
        db.sequences_mut()[0].mark(0);
        db.sequences_mut()[1].mark(2);
        db.sequences_mut()[2].mark(1);
        assert_eq!(support(&db, &s), 0);
    }

    #[test]
    fn empty_db() {
        let db = SequenceDb::parse("");
        let mut sigma = Alphabet::new();
        let s = Sequence::parse("a", &mut sigma);
        assert_eq!(support(&db, &s), 0);
        assert_eq!(
            supporters(&db, &SensitiveSet::new(vec![s])),
            Vec::<usize>::new()
        );
    }
}
