//! Verification of the hiding requirement and side-effect audits.

use seqhide_match::{MatchEngine, PatternDomain, SensitivePattern, SensitiveSet};
use seqhide_mine::MineResult;
use seqhide_num::Sat64;
use seqhide_obs::{self as obs, Counter, Phase};
use seqhide_types::{Sequence, SequenceDb};

use crate::problem::DisclosureThresholds;

/// Result of checking requirement 1 of Problem 1: `sup_{D'}(Sᵢ) ≤ ψ`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Whether every sensitive pattern meets its threshold.
    pub hidden: bool,
    /// Constraint-aware support of each pattern, in `S_h` order.
    pub supports: Vec<usize>,
    /// The thresholds checked against, in `S_h` order.
    pub thresholds: Vec<usize>,
}

/// Verifies `sup_{D}(Sᵢ) ≤ ψ` for every sensitive pattern.
///
/// ```
/// use seqhide_types::{Sequence, SequenceDb};
/// use seqhide_match::SensitiveSet;
/// use seqhide_core::verify_hidden;
/// let mut db = SequenceDb::parse("a b\na b\n");
/// let s = Sequence::parse("a b", db.alphabet_mut());
/// let sh = SensitiveSet::new(vec![s]);
/// assert!(!verify_hidden(&db, &sh, 1).hidden);
/// assert!(verify_hidden(&db, &sh, 2).hidden);
/// ```
pub fn verify_hidden(db: &SequenceDb, sh: &SensitiveSet, psi: usize) -> VerifyReport {
    verify_hidden_multi(db, sh, &DisclosureThresholds::uniform(psi, sh.len()))
}

/// Per-pattern-threshold variant of [`verify_hidden`]: the plain
/// patterns' [`verify_hidden_domain`], through a [`MatchEngine`].
///
/// # Panics
/// Panics if `thresholds.len() != sh.len()`.
pub fn verify_hidden_multi(
    db: &SequenceDb,
    sh: &SensitiveSet,
    thresholds: &DisclosureThresholds,
) -> VerifyReport {
    verify_hidden_domain(
        &mut MatchEngine::<Sat64>::new(sh),
        db.sequences(),
        thresholds,
    )
}

/// Re-checks `sup_{D}(Sᵢ) ≤ ψᵢ` per pattern with a [`PatternDomain`]'s
/// own support predicate, probing every sequence of `db`. This is the
/// independent full recount (`seqhide verify`, post-delete
/// re-verification, the per-pattern scheduler
/// [`crate::Sanitizer::run_multi`], the tests); the sanitizer drivers
/// count residual supports over the supporters only, under the residual
/// rule of [`crate::index`].
///
/// # Panics
/// Panics if `thresholds.len() != domain.pattern_count()`.
pub fn verify_hidden_domain<D: PatternDomain>(
    domain: &mut D,
    db: &[D::Seq],
    thresholds: &DisclosureThresholds,
) -> VerifyReport {
    assert_eq!(
        thresholds.len(),
        domain.pattern_count(),
        "one threshold per pattern"
    );
    let _span = obs::span(Phase::Verify);
    obs::counter_add(Counter::PatternsChecked, domain.pattern_count() as u64);
    let supports: Vec<usize> = (0..domain.pattern_count())
        .map(|k| db.iter().filter(|t| domain.supports_pattern(t, k)).count())
        .collect();
    let hidden = supports
        .iter()
        .zip(thresholds.as_slice())
        .all(|(&s, &t)| s <= t);
    VerifyReport {
        hidden,
        supports,
        thresholds: thresholds.as_slice().to_vec(),
    }
}

/// Side effects of sanitization on the frequent-pattern space, computed
/// from before/after mining results at the same `σ`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SideEffects {
    /// Non-sensitive patterns frequent before but not after (lost — the
    /// numerator of M2).
    pub lost: Vec<Sequence>,
    /// Patterns frequent after but not before. Marking alone can never
    /// produce these (it creates no new subsequence, §4); the Δ-replacement
    /// post-processing can, which is why this is audited.
    pub fake: Vec<Sequence>,
    /// Patterns frequent in both whose support dropped, with
    /// `(pattern, before, after)`.
    pub weakened: Vec<(Sequence, usize, usize)>,
}

/// Computes the audit. `sensitive` patterns are excluded from `lost` (they
/// are *supposed* to disappear).
pub fn side_effects(
    before: &MineResult,
    after: &MineResult,
    sensitive: &SensitiveSet,
) -> SideEffects {
    let sensitive_seqs: Vec<&Sequence> = sensitive.iter().map(SensitivePattern::seq).collect();
    let before_map = before.to_map();
    let after_map = after.to_map();
    let mut out = SideEffects::default();
    for fp in &before.patterns {
        if sensitive_seqs.contains(&&fp.seq) {
            continue;
        }
        match after_map.get(&fp.seq) {
            None => out.lost.push(fp.seq.clone()),
            Some(&sup_after) if sup_after < fp.support => {
                out.weakened.push((fp.seq.clone(), fp.support, sup_after));
            }
            Some(_) => {}
        }
    }
    for fp in &after.patterns {
        if !before_map.contains_key(&fp.seq) {
            out.fake.push(fp.seq.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqhide_mine::{MinerConfig, PrefixSpan};

    #[test]
    fn verify_reports_supports() {
        let mut db = SequenceDb::parse("a b\na b\nb a\n");
        let s1 = Sequence::parse("a b", db.alphabet_mut());
        let s2 = Sequence::parse("b a", db.alphabet_mut());
        let sh = SensitiveSet::new(vec![s1, s2]);
        let r = verify_hidden(&db, &sh, 1);
        assert_eq!(r.supports, vec![2, 1]);
        assert!(!r.hidden);
        assert!(verify_hidden(&db, &sh, 2).hidden);
        let multi = verify_hidden_multi(&db, &sh, &DisclosureThresholds::new(vec![2, 1]));
        assert!(multi.hidden);
        assert_eq!(multi.thresholds, vec![2, 1]);
    }

    #[test]
    fn side_effects_classify_lost_weakened_fake() {
        let mut before_db = SequenceDb::parse("a b\na b\na c\na c\n");
        let sh = SensitiveSet::new(vec![Sequence::parse("a b", before_db.alphabet_mut())]);
        let mut after_db = before_db.clone();
        // sanitize by hand: kill both "a b" rows' b, and one "a c" row's c
        after_db.sequences_mut()[0].mark(1);
        after_db.sequences_mut()[1].mark(1);
        after_db.sequences_mut()[2].mark(1);
        let cfg = MinerConfig::new(2);
        let before = PrefixSpan::mine(&before_db, &cfg);
        let after = PrefixSpan::mine(&after_db, &cfg);
        let fx = side_effects(&before, &after, &sh);
        // "a b" is sensitive → not counted lost; "b" lost (support 2→0);
        // "a c"/"c" weakened 2→1 → below σ=2 → lost as well.
        assert!(fx.fake.is_empty());
        let mut sigma = before_db.alphabet().clone();
        let b = Sequence::parse("b", &mut sigma);
        let c = Sequence::parse("c", &mut sigma);
        let ac = Sequence::parse("a c", &mut sigma);
        assert!(fx.lost.contains(&b));
        assert!(fx.lost.contains(&c));
        assert!(fx.lost.contains(&ac));
        assert!(!fx.lost.contains(&Sequence::parse("a b", &mut sigma)));
        // "a" survived with lower support
        let a = Sequence::parse("a", &mut sigma);
        assert!(!fx
            .weakened
            .iter()
            .any(|(s, b4, aft)| *s == a && *b4 == 4 && *aft == 4));
        assert!(fx.weakened.iter().all(|(_, b4, aft)| aft < b4));
    }

    #[test]
    #[should_panic(expected = "one threshold per pattern")]
    fn multi_verify_rejects_arity() {
        let mut db = SequenceDb::parse("a\n");
        let s = Sequence::parse("a", db.alphabet_mut());
        let sh = SensitiveSet::new(vec![s]);
        let _ = verify_hidden_multi(&db, &sh, &DisclosureThresholds::new(vec![1, 2]));
    }
}
