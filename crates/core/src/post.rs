//! The second sanitization stage (§4): removing or replacing the `Δ`
//! symbols before release.
//!
//! The paper's stage 1 leaves `Δ` marks in `D'` and notes they can simply
//! be published as missing values. When a consumer cannot accept missing
//! values, the marks must be **deleted** or **replaced** — and the paper
//! warns that this "must take care of the possibility of re-generating fake
//! patterns and also re-generating sensitive patterns". This module
//! implements both options with exactly those guards:
//!
//! * deletion shifts positions, so under gap/window constraints it can
//!   *re-create* constrained occurrences that marking had destroyed
//!   ([`delete_markers`] documents this; [`delete_markers_safe`] loops
//!   delete → re-sanitize until the release is genuinely clean);
//! * replacement writes real alphabet symbols into marked slots, which can
//!   create brand-new subsequences (fake patterns) and possibly sensitive
//!   occurrences; [`replace_markers`] only accepts a replacement symbol if
//!   the sequence still supports **no** sensitive pattern afterwards, and
//!   leaves the mark in place when no symbol qualifies.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use seqhide_match::{supports, PatternDomain, SensitiveSet};
use seqhide_obs::{self as obs, Phase};
use seqhide_types::{SequenceDb, Symbol};

use crate::problem::DisclosureThresholds;
use crate::sanitizer::Sanitizer;
use crate::verify::verify_hidden_domain;

/// Deletes every `Δ` from every sequence, returning the shortened database.
///
/// Under **unconstrained** patterns this is always safe: deletion creates
/// no new subsequence (§4). Under gap/window constraints positions shift
/// and constrained occurrences can reappear — use [`delete_markers_safe`]
/// when constraints are in play.
pub fn delete_markers(db: &SequenceDb) -> SequenceDb {
    SequenceDb::from_parts(
        db.alphabet().clone(),
        db.sequences().iter().map(|t| t.without_marks()).collect(),
    )
}

/// Outcome of [`delete_markers_safe`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeleteReport {
    /// How many delete → re-sanitize rounds were needed (1 = deletion was
    /// already clean).
    pub rounds: usize,
    /// Extra marks spent by the re-sanitization rounds.
    pub extra_marks: usize,
}

/// Deletes marks, then re-verifies the hiding requirement and — if deletion
/// resurrected constrained occurrences — re-sanitizes and deletes again,
/// until the mark-free release satisfies `sup(Sᵢ) ≤ ψ`.
///
/// Terminates because every round strictly shortens some sequence (each
/// re-sanitization adds ≥ 1 mark, each deletion removes all marks).
pub fn delete_markers_safe(
    db: &SequenceDb,
    sh: &SensitiveSet,
    psi: usize,
    sanitizer: &Sanitizer,
) -> (SequenceDb, DeleteReport) {
    delete_markers_safe_with(db, sh, psi, sanitizer, |_| 0)
}

/// [`delete_markers_safe`] with an extra re-sanitization hook for pattern
/// families the plain [`Sanitizer`] does not cover (regex patterns in the
/// CLI's case — Δ-deletion shrinks gaps for *every* constrained matcher,
/// not just plain `S_h`).
///
/// Each round first re-runs the plain sanitizer if plain verification
/// fails, then calls `extra`, which must re-verify its own patterns
/// against the current database, sanitize if needed, and return the marks
/// it added (0 when its patterns are still hidden). The round's deletion
/// only happens — and the loop only continues — if the round added marks,
/// so the returned release satisfies **both** the plain and the hook's
/// hiding requirements simultaneously. Termination argument is unchanged:
/// every continuing round adds ≥ 1 mark and then strictly shortens some
/// sequence.
pub fn delete_markers_safe_with(
    db: &SequenceDb,
    sh: &SensitiveSet,
    psi: usize,
    sanitizer: &Sanitizer,
    mut extra: impl FnMut(&mut SequenceDb) -> usize,
) -> (SequenceDb, DeleteReport) {
    let _span = obs::span(Phase::Post);
    let mut current = delete_markers(db);
    let mut rounds = 1;
    let mut extra_marks = 0;
    loop {
        let mut added = 0;
        if !crate::verify::verify_hidden(&current, sh, psi).hidden {
            added += sanitizer.run(&mut current, sh).marks_introduced;
        }
        added += extra(&mut current);
        if added == 0 {
            return (
                current,
                DeleteReport {
                    rounds,
                    extra_marks,
                },
            );
        }
        extra_marks += added;
        current = delete_markers(&current);
        rounds += 1;
    }
}

/// [`delete_markers_safe`] for **any** [`PatternDomain`] — the post-delete
/// loop expressed through the same op semantics that drive sanitization,
/// instead of a per-family special case bolted onto the plain path.
///
/// `delete` removes the marked slots of one sequence in place (plain:
/// drop `Δ` symbols; itemset: drop `Δ` item slots and empty elements;
/// timed: drop `Δ` events, tags untouched). After each deletion sweep the
/// domain re-verifies every pattern against the shortened database; any
/// family the deletion resurrected (index shifts shrink positional gaps)
/// is re-sanitized through [`Sanitizer::run_domain`] and the loop repeats.
/// Terminates for the usual reason: every continuing round adds ≥ 1 mark
/// and the next sweep strictly shortens some sequence.
pub fn delete_markers_safe_domain<D: PatternDomain>(
    db: &mut [D::Seq],
    domain: &mut D,
    psi: usize,
    sanitizer: &Sanitizer,
    mut delete: impl FnMut(&mut D::Seq) -> usize,
) -> DeleteReport {
    let _span = obs::span(Phase::Post);
    let mut rounds = 0;
    let mut extra_marks = 0;
    loop {
        for t in db.iter_mut() {
            delete(t);
        }
        rounds += 1;
        let thresholds = DisclosureThresholds::uniform(psi, domain.pattern_count());
        if verify_hidden_domain(domain, db, &thresholds).hidden {
            return DeleteReport {
                rounds,
                extra_marks,
            };
        }
        extra_marks += sanitizer.run_domain(db, domain).marks_introduced;
    }
}

/// Outcome of [`replace_markers`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplaceReport {
    /// Marks successfully replaced by alphabet symbols.
    pub replaced: usize,
    /// Marks left in place because every candidate symbol would have
    /// re-created a sensitive occurrence.
    pub kept: usize,
}

/// Replaces `Δ` marks with alphabet symbols wherever that does not
/// re-create a sensitive occurrence in the host sequence.
///
/// Candidate symbols are tried in descending global frequency (then id)
/// with a seeded random tie-shuffle — frequent symbols blend in best, which
/// empirically minimises the number of *fake* frequent patterns introduced;
/// the `ablation_postprocessing` bench audits that fake count via
/// [`crate::verify::side_effects`].
pub fn replace_markers(db: &mut SequenceDb, sh: &SensitiveSet, seed: u64) -> ReplaceReport {
    use rand::seq::SliceRandom;
    let _span = obs::span(Phase::Post);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Global symbol frequencies over unmarked positions.
    let sigma_len = db.alphabet().len();
    let mut freq = vec![0usize; sigma_len];
    for t in db.sequences() {
        for &s in t {
            if !s.is_mark() {
                freq[s.id() as usize] += 1;
            }
        }
    }
    let mut candidates: Vec<Symbol> = (0..sigma_len as u32).map(Symbol::new).collect();
    candidates.shuffle(&mut rng); // random tie order
    candidates.sort_by(|a, b| freq[b.id() as usize].cmp(&freq[a.id() as usize]));

    let mut replaced = 0;
    let mut kept = 0;
    for idx in 0..db.len() {
        let t = &mut db.sequences_mut()[idx];
        for pos in 0..t.len() {
            if !t[pos].is_mark() {
                continue;
            }
            let mut done = false;
            for &cand in &candidates {
                t.set(pos, cand);
                if sh.iter().all(|p| !supports(t, p)) {
                    replaced += 1;
                    done = true;
                    break;
                }
            }
            if !done {
                t.set(pos, Symbol::MARK);
                kept += 1;
            }
        }
    }
    ReplaceReport { replaced, kept }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqhide_match::{support, ConstraintSet, Gap, SensitivePattern};
    use seqhide_types::Sequence;

    #[test]
    fn delete_shortens_and_is_safe_unconstrained() {
        let mut db = SequenceDb::parse("a b c\na b c\n");
        let s = Sequence::parse("a c", db.alphabet_mut());
        let sh = SensitiveSet::new(vec![s.clone()]);
        Sanitizer::hh(0).run(&mut db, &sh);
        let released = delete_markers(&db);
        assert_eq!(released.total_marks(), 0);
        assert!(released.stats().total_symbols < 6);
        assert_eq!(support(&released, &s), 0);
    }

    #[test]
    fn delete_can_resurrect_constrained_occurrences() {
        // ⟨a x b⟩ with sensitive a→⁰b: originally NOT supported (gap 1).
        // Suppose x got marked while hiding some other pattern; deleting
        // the mark glues a and b together and creates a fresh occurrence.
        let mut db = SequenceDb::parse("a x b\n");
        let ab = Sequence::parse("a b", db.alphabet_mut());
        let adj = SensitivePattern::new(ab, ConstraintSet::uniform_gap(Gap::adjacent())).unwrap();
        let sh = SensitiveSet::from_patterns(vec![adj.clone()]);
        assert!(crate::verify::verify_hidden(&db, &sh, 0).hidden);
        db.sequences_mut()[0].mark(1); // collateral mark on x
        let naive = delete_markers(&db);
        assert!(!crate::verify::verify_hidden(&naive, &sh, 0).hidden); // resurrected!
        let (safe, report) = delete_markers_safe(&db, &sh, 0, &Sanitizer::hh(0));
        assert!(crate::verify::verify_hidden(&safe, &sh, 0).hidden);
        assert_eq!(safe.total_marks(), 0);
        assert!(report.rounds >= 2);
        assert!(report.extra_marks >= 1);
    }

    #[test]
    fn delete_safe_with_hook_satisfies_both_families() {
        // Plain S_h is the adjacent a→⁰b; the hook plays the role of a
        // second matcher family (the CLI's regex patterns) forbidding any
        // unmarked c. Deletion must not resurrect either.
        let mut db = SequenceDb::parse("a x b c\n");
        let ab = Sequence::parse("a b", db.alphabet_mut());
        let c = Sequence::parse("c", db.alphabet_mut());
        let c_sym = c[0];
        let adj = SensitivePattern::new(ab, ConstraintSet::uniform_gap(Gap::adjacent())).unwrap();
        let sh = SensitiveSet::from_patterns(vec![adj]);
        db.sequences_mut()[0].mark(1); // collateral mark on x
        let hook = |db: &mut SequenceDb| {
            let mut added = 0;
            for t in db.sequences_mut() {
                for pos in 0..t.len() {
                    if t[pos] == c_sym {
                        t.mark(pos);
                        added += 1;
                    }
                }
            }
            added
        };
        // Naive deletion resurrects both: ⟨a b c⟩.
        let naive = delete_markers(&db);
        assert!(!crate::verify::verify_hidden(&naive, &sh, 0).hidden);
        assert_eq!(support(&naive, &c), 1);
        let (safe, report) = delete_markers_safe_with(&db, &sh, 0, &Sanitizer::hh(0), hook);
        assert!(crate::verify::verify_hidden(&safe, &sh, 0).hidden);
        assert_eq!(support(&safe, &c), 0);
        assert_eq!(safe.total_marks(), 0);
        assert!(report.rounds >= 2);
        assert!(report.extra_marks >= 1);
    }

    #[test]
    fn domain_delete_reverifies_gap_constrained_families() {
        use seqhide_match::MatchEngine;
        use seqhide_num::Sat64;
        // The generic domain loop must catch the same resurrection the
        // plain-path loop does: ⟨a Δ b⟩ under adjacent-gap a→⁰b glues
        // into a fresh occurrence when the Δ is deleted.
        let mut db = SequenceDb::parse("a x b\n");
        let ab = Sequence::parse("a b", db.alphabet_mut());
        let adj = SensitivePattern::new(ab, ConstraintSet::uniform_gap(Gap::adjacent())).unwrap();
        let sh = SensitiveSet::from_patterns(vec![adj]);
        db.sequences_mut()[0].mark(1); // collateral mark on x
        let mut seqs: Vec<Sequence> = db.sequences().to_vec();
        let mut domain = MatchEngine::<Sat64>::new(&sh);
        let report = delete_markers_safe_domain(
            &mut seqs,
            &mut domain,
            0,
            &Sanitizer::hh(0),
            |t: &mut Sequence| {
                let before = t.len();
                *t = t.without_marks();
                before - t.len()
            },
        );
        assert!(report.rounds >= 2, "deletion must have resurrected once");
        assert!(report.extra_marks >= 1);
        assert!(seqs.iter().all(|t| !t.has_marks()));
        let mut check = MatchEngine::<Sat64>::new(&sh);
        assert!(!check.supports_pattern(&seqs[0], 0));
    }

    #[test]
    fn timed_domain_delete_converges_without_resurrection() {
        use crate::timed::{supports_timed, TimeConstraints, TimeGap, TimedDomain, TimedPattern};
        use seqhide_num::Sat64;
        use seqhide_types::TimedSequence;
        // Deleting a marked event leaves every surviving tag unchanged, so
        // time-expressed gaps — unlike positional gaps — can never
        // resurrect an occurrence: the loop must settle in one round.
        let p = TimedPattern::new(
            Sequence::from_ids([0, 1]),
            TimeConstraints::uniform_gap(TimeGap {
                min: 0,
                max: Some(4),
            }),
        )
        .unwrap();
        let mut db = vec![
            TimedSequence::from_pairs([(0, 0), (1, 2)]),
            TimedSequence::from_pairs([(0, 0), (1, 9)]),
        ];
        let mut domain = TimedDomain::<Sat64>::new(std::slice::from_ref(&p));
        let r = Sanitizer::hh(0)
            .with_seed(0)
            .run_domain(&mut db, &mut domain);
        assert!(r.hidden && r.marks_introduced >= 1);
        let report = delete_markers_safe_domain(
            &mut db,
            &mut domain,
            0,
            &Sanitizer::hh(0),
            TimedSequence::delete_marked,
        );
        assert_eq!(
            report,
            DeleteReport {
                rounds: 1,
                extra_marks: 0
            }
        );
        assert!(db.iter().all(|t| t.mark_count() == 0));
        assert!(db.iter().all(|t| !supports_timed(t, &p)));
    }

    #[test]
    fn delete_safe_release_passes_multi_threshold_verify() {
        use crate::problem::DisclosureThresholds;
        // Two adjacent-gap patterns with different effective thresholds.
        // Collateral marks made both hidden; naive deletion resurrects
        // occurrences of each. The safe release must pass
        // verify_hidden_multi at [0, 1] — each pattern held to its OWN
        // threshold, not just the collapsed min.
        let mut db = SequenceDb::parse("a x b\nc y d\nc z d\n");
        let ab = Sequence::parse("a b", db.alphabet_mut());
        let cd = Sequence::parse("c d", db.alphabet_mut());
        let adjacent = ConstraintSet::uniform_gap(Gap::adjacent());
        let sh = SensitiveSet::from_patterns(vec![
            SensitivePattern::new(ab, adjacent.clone()).unwrap(),
            SensitivePattern::new(cd, adjacent).unwrap(),
        ]);
        for i in 0..3 {
            db.sequences_mut()[i].mark(1); // collateral middle marks
        }
        let thresholds = DisclosureThresholds::new(vec![0, 1]);
        assert!(crate::verify::verify_hidden_multi(&db, &sh, &thresholds).hidden);
        // Naive deletion resurrects ⟨a b⟩ (support 1 > 0) and ⟨c d⟩
        // (support 2 > 1) — each above its own threshold.
        let naive = delete_markers(&db);
        assert!(!crate::verify::verify_hidden_multi(&naive, &sh, &thresholds).hidden);
        // Safe delete at ψ = min(thresholds) = 0 over-approximates but
        // guarantees every per-pattern threshold on the release.
        let (safe, _) = delete_markers_safe(&db, &sh, thresholds.min(), &Sanitizer::hh(0));
        let verdict = crate::verify::verify_hidden_multi(&safe, &sh, &thresholds);
        assert!(verdict.hidden, "supports {:?}", verdict.supports);
        assert_eq!(safe.total_marks(), 0);
    }

    #[test]
    fn replace_fills_marks_without_regeneration() {
        let mut db = SequenceDb::parse("a b c\nb c a\nc c b\n");
        let s = Sequence::parse("a c", db.alphabet_mut());
        let sh = SensitiveSet::new(vec![s.clone()]);
        Sanitizer::hh(0).run(&mut db, &sh);
        let marks_before = db.total_marks();
        assert!(marks_before > 0);
        let report = replace_markers(&mut db, &sh, 7);
        assert_eq!(report.replaced + report.kept, marks_before);
        assert_eq!(db.total_marks(), report.kept);
        // the hiding requirement still holds after replacement
        assert_eq!(support(&db, &s), 0);
    }

    #[test]
    fn replace_keeps_mark_when_every_symbol_regenerates() {
        // Σ = {a}; sensitive ⟨a a⟩; T = ⟨a Δ⟩. Any replacement (only 'a')
        // re-creates the pattern, so the mark must stay.
        let mut db = SequenceDb::parse("a a\n");
        let s = Sequence::parse("a a", db.alphabet_mut());
        let sh = SensitiveSet::new(vec![s]);
        db.sequences_mut()[0].mark(1);
        let report = replace_markers(&mut db, &sh, 0);
        assert_eq!(
            report,
            ReplaceReport {
                replaced: 0,
                kept: 1
            }
        );
        assert!(db.sequences()[0][1].is_mark());
    }

    #[test]
    fn replace_is_deterministic_per_seed() {
        let build = || {
            let mut db = SequenceDb::parse("a b c d\nd c b a\nb d a c\n");
            let s = Sequence::parse("a c", db.alphabet_mut());
            let sh = SensitiveSet::new(vec![s]);
            Sanitizer::hh(0).run(&mut db, &sh);
            (db, sh)
        };
        let (mut db1, sh1) = build();
        let (mut db2, sh2) = build();
        replace_markers(&mut db1, &sh1, 99);
        replace_markers(&mut db2, &sh2, 99);
        assert_eq!(db1.to_text(), db2.to_text());
    }
}
