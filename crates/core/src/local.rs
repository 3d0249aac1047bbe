//! Local (within-sequence) sanitization: which positions to mark (§4).
//!
//! [`sanitize_victim`] is **the** local marking loop — the only one in the
//! workspace. It is generic over [`PatternDomain`], so the same loop
//! drives plain sequences (incremental [`MatchEngine`] or the
//! from-scratch oracle), itemset sequences, timed sequences, regex
//! patterns, and spatiotemporal trajectories; what differs per domain is
//! how `δ` is obtained and what "distort this position" means.
//!
//! [`MatchEngine`]: seqhide_match::MatchEngine

use rand::seq::IndexedRandom;
use rand::Rng;
use seqhide_match::PatternDomain;
use seqhide_obs::{self as obs, Counter, Hist, Phase};

pub use seqhide_match::LocalStrategy;

/// Which counting core drives the plain-pattern marking loop. Only the
/// default is used in production; [`EngineMode::Scratch`] is the oracle
/// the tests and benches compare it against
/// ([`Sanitizer::with_engine`](crate::Sanitizer::with_engine)).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EngineMode {
    /// The incrementally-updated [`MatchEngine`](seqhide_match::MatchEngine):
    /// tables built once per sequence, repaired per mark, zero per-mark
    /// allocations on the unconstrained and gap-constrained paths.
    #[default]
    Incremental,
    /// The from-scratch [`ScratchDomain`](seqhide_match::ScratchDomain):
    /// `δ` recomputed with fresh tables on every iteration. Same choices,
    /// same output — only slower.
    Scratch,
}

/// The local marking loop (paper §4, local level): repeatedly pick a
/// position — `argmax δ` under [`LocalStrategy::Heuristic`], uniform over
/// the positive-`δ` candidates under [`LocalStrategy::Random`] — and
/// distort it, until no occurrence remains. Returns the number of
/// distortions introduced.
///
/// Termination: every chosen position has `δ > 0`, and the domain's
/// distort contract guarantees each distortion strictly decreases the
/// total occurrence count and creates none (marks match nothing), so the
/// loop ends.
///
/// The random strategy draws from the domain's candidate buffer — the
/// same ascending candidate order and the same single `choose` call in
/// every domain, so the RNG stream (and therefore every downstream
/// choice) is identical between counting cores.
pub fn sanitize_victim<D: PatternDomain, R: Rng + ?Sized>(
    domain: &mut D,
    t: &mut D::Seq,
    strategy: LocalStrategy,
    rng: &mut R,
) -> usize {
    let span = obs::span(Phase::LocalSanitize);
    domain.load(t);
    let mut marks = 0;
    loop {
        let pos = match strategy {
            LocalStrategy::Heuristic => domain.argmax(t),
            LocalStrategy::Random => domain.candidates(t).choose(rng).copied(),
        };
        let Some(pos) = pos else {
            break; // δ ≡ 0 ⇔ no occurrence left
        };
        marks += domain.distort(t, pos, strategy, rng);
    }
    record_victim(&span, marks);
    marks
}

/// Feeds the per-victim sinks: one sanitized victim, its distortion
/// count, and its wall time (shared by every domain and counting core).
fn record_victim(span: &obs::Span, marks: usize) {
    obs::counter_add(Counter::VictimsProcessed, 1);
    obs::counter_add(Counter::MarksIntroduced, marks as u64);
    obs::hist_record(Hist::VictimMarks, marks as u64);
    obs::hist_record(Hist::VictimNanos, span.elapsed_ns());
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use seqhide_match::{
        matching_size, ConstraintSet, Gap, MatchEngine, ScratchDomain, SensitivePattern,
        SensitiveSet,
    };
    use seqhide_num::{Count, Sat64};
    use seqhide_types::{Alphabet, Sequence};

    fn paper_case() -> (SensitiveSet, Sequence) {
        let mut sigma = Alphabet::new();
        let s = Sequence::parse("a b c", &mut sigma);
        let t = Sequence::parse("a a b c c b a e", &mut sigma);
        (SensitiveSet::new(vec![s]), t)
    }

    #[test]
    fn heuristic_reproduces_paper_example2() {
        // The paper marks T[3] (1-based) — the b at 0-based index 2 — and
        // one mark suffices.
        let (sh, mut t) = paper_case();
        let mut rng = SmallRng::seed_from_u64(1);
        let marks = sanitize_victim(
            &mut MatchEngine::<Sat64>::new(&sh),
            &mut t,
            LocalStrategy::Heuristic,
            &mut rng,
        );
        assert_eq!(marks, 1);
        assert!(t[2].is_mark());
        assert!(matching_size::<u64>(&sh, &t).is_zero());
    }

    #[test]
    fn random_also_terminates_clean() {
        for seed in 0..20 {
            let (sh, mut t) = paper_case();
            let mut rng = SmallRng::seed_from_u64(seed);
            let marks = sanitize_victim(
                &mut MatchEngine::<Sat64>::new(&sh),
                &mut t,
                LocalStrategy::Random,
                &mut rng,
            );
            assert!(marks >= 1);
            assert!(marks <= t.len());
            assert!(matching_size::<u64>(&sh, &t).is_zero(), "seed {seed}");
        }
    }

    #[test]
    fn heuristic_never_beats_random_on_average_marks() {
        // On the paper's example the heuristic needs exactly 1 mark; the
        // random strategy sometimes needs 2 (e.g. marking both a's).
        let mut worst_random = 0;
        for seed in 0..50 {
            let (sh, mut t) = paper_case();
            let mut rng = SmallRng::seed_from_u64(seed);
            let m = sanitize_victim(
                &mut MatchEngine::<Sat64>::new(&sh),
                &mut t,
                LocalStrategy::Random,
                &mut rng,
            );
            worst_random = worst_random.max(m);
        }
        assert!(worst_random >= 1);
    }

    #[test]
    fn clean_sequence_untouched() {
        let mut sigma = Alphabet::new();
        let s = Sequence::parse("x y", &mut sigma);
        let mut t = Sequence::parse("y x", &mut sigma);
        let sh = SensitiveSet::new(vec![s]);
        let before = t.clone();
        let mut rng = SmallRng::seed_from_u64(0);
        let marks = sanitize_victim(
            &mut MatchEngine::<Sat64>::new(&sh),
            &mut t,
            LocalStrategy::Heuristic,
            &mut rng,
        );
        assert_eq!(marks, 0);
        assert_eq!(t, before);
    }

    #[test]
    fn constrained_sanitization_only_kills_constrained_occurrences() {
        // T = ⟨a x b a b⟩; sensitive: ⟨a b⟩ within window 2 (only (3,4)).
        // The heuristic should spend 1 mark and leave the loose occurrences
        // (0,2), (0,4) intact as far as the constrained pattern cares.
        let mut sigma = Alphabet::new();
        let s = Sequence::parse("a b", &mut sigma);
        let mut t = Sequence::parse("a x b a b", &mut sigma);
        let p = SensitivePattern::new(s.clone(), ConstraintSet::with_max_window(2)).unwrap();
        let sh = SensitiveSet::from_patterns(vec![p]);
        let mut rng = SmallRng::seed_from_u64(0);
        let marks = sanitize_victim(
            &mut MatchEngine::<Sat64>::new(&sh),
            &mut t,
            LocalStrategy::Heuristic,
            &mut rng,
        );
        assert_eq!(marks, 1);
        assert!(matching_size::<u64>(&sh, &t).is_zero());
        // the unconstrained pattern still occurs — less distortion
        let loose = SensitiveSet::new(vec![s]);
        assert!(!matching_size::<u64>(&loose, &t).is_zero());
    }

    #[test]
    fn multi_pattern_sanitization() {
        let mut sigma = Alphabet::new();
        let s1 = Sequence::parse("a b", &mut sigma);
        let s2 = Sequence::parse("c d", &mut sigma);
        let mut t = Sequence::parse("a c b d", &mut sigma);
        let sh = SensitiveSet::new(vec![s1, s2]);
        let mut rng = SmallRng::seed_from_u64(0);
        let marks = sanitize_victim(
            &mut MatchEngine::<Sat64>::new(&sh),
            &mut t,
            LocalStrategy::Heuristic,
            &mut rng,
        );
        assert!(matching_size::<u64>(&sh, &t).is_zero());
        assert!(marks <= 2);
    }

    #[test]
    fn gap_constrained_paper_pattern_needs_no_marks() {
        // a →⁰ b →₂⁶ c has no occurrence in the paper's T, so nothing to do.
        let mut sigma = Alphabet::new();
        let s = Sequence::parse("a b c", &mut sigma);
        let mut t = Sequence::parse("a a b c c b a e", &mut sigma);
        let cs = ConstraintSet::with_gaps(vec![Gap::adjacent(), Gap::bounded(2, 6)]);
        let p = SensitivePattern::new(s, cs).unwrap();
        let sh = SensitiveSet::from_patterns(vec![p]);
        let mut rng = SmallRng::seed_from_u64(0);
        let marks = sanitize_victim(
            &mut MatchEngine::<Sat64>::new(&sh),
            &mut t,
            LocalStrategy::Heuristic,
            &mut rng,
        );
        assert_eq!(marks, 0);
    }

    /// Engine and scratch paths must make byte-identical decisions: same
    /// marked positions, same mark count, same RNG consumption — across
    /// strategies, constraint classes, and seeds.
    #[test]
    fn engine_path_is_bit_identical_to_scratch_path() {
        let mut sigma = Alphabet::new();
        let cases: Vec<(SensitiveSet, Sequence)> = vec![
            {
                let s = Sequence::parse("a b c", &mut sigma);
                let t = Sequence::parse("a a b c c b a e", &mut sigma);
                (SensitiveSet::new(vec![s]), t)
            },
            {
                let s = Sequence::parse("a b", &mut sigma);
                let t = Sequence::parse("a a b a b b a b", &mut sigma);
                let p = SensitivePattern::new(s, ConstraintSet::uniform_gap(Gap::bounded(0, 2)))
                    .unwrap();
                (SensitiveSet::from_patterns(vec![p]), t)
            },
            {
                let s = Sequence::parse("a b", &mut sigma);
                let t = Sequence::parse("a x b a b a a b", &mut sigma);
                let p = SensitivePattern::new(s, ConstraintSet::with_max_window(3)).unwrap();
                (SensitiveSet::from_patterns(vec![p]), t)
            },
        ];
        for (case, (sh, t)) in cases.iter().enumerate() {
            for strategy in [LocalStrategy::Heuristic, LocalStrategy::Random] {
                for seed in 0..10u64 {
                    let mut t_eng = t.clone();
                    let mut t_scr = t.clone();
                    let mut rng_eng = SmallRng::seed_from_u64(seed);
                    let mut rng_scr = SmallRng::seed_from_u64(seed);
                    let m_eng = sanitize_victim(
                        &mut MatchEngine::<Sat64>::new(sh),
                        &mut t_eng,
                        strategy,
                        &mut rng_eng,
                    );
                    let m_scr = sanitize_victim(
                        &mut ScratchDomain::<Sat64>::new(sh),
                        &mut t_scr,
                        strategy,
                        &mut rng_scr,
                    );
                    assert_eq!(m_eng, m_scr, "case {case} {strategy:?} seed {seed}");
                    assert_eq!(t_eng, t_scr, "case {case} {strategy:?} seed {seed}");
                    // identical residual RNG state ⇒ identical consumption
                    assert_eq!(
                        rng_eng.random::<u64>(),
                        rng_scr.random::<u64>(),
                        "case {case} {strategy:?} seed {seed}"
                    );
                }
            }
        }
    }

    /// A caller-owned engine reused across sequences gives the same result
    /// as a fresh engine per sequence.
    #[test]
    fn engine_reuse_across_victims_is_transparent() {
        let mut sigma = Alphabet::new();
        let s = Sequence::parse("a b", &mut sigma);
        let sh = SensitiveSet::new(vec![s]);
        let victims = ["a b a b a b", "b a", "a a b b", "a b"];
        let mut engine = MatchEngine::<Sat64>::new(&sh);
        for (i, v) in victims.iter().enumerate() {
            let mut t_shared = Sequence::parse(v, &mut sigma);
            let mut t_fresh = t_shared.clone();
            let mut rng1 = SmallRng::seed_from_u64(7);
            let mut rng2 = SmallRng::seed_from_u64(7);
            let m1 = sanitize_victim(&mut engine, &mut t_shared, LocalStrategy::Random, &mut rng1);
            let m2 = sanitize_victim(
                &mut MatchEngine::<Sat64>::new(&sh),
                &mut t_fresh,
                LocalStrategy::Random,
                &mut rng2,
            );
            assert_eq!(m1, m2, "victim {i}");
            assert_eq!(t_shared, t_fresh, "victim {i}");
        }
    }
}
