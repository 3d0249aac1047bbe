//! Sanitization for regex patterns: the paper's two-level algorithm with
//! the marking-device `δ`, expressed as a [`PatternDomain`] so the
//! generic drivers of `seqhide-core` (in-memory, threaded, streaming) all
//! work on regex databases unchanged: a database is sanitized by
//! [`Sanitizer::run_domain`](seqhide_core::Sanitizer::run_domain) or
//! [`Sanitizer::run_domain_threaded`](seqhide_core::Sanitizer::run_domain_threaded)
//! with a [`RegexDomain`], one victim by
//! [`sanitize_victim`](seqhide_core::sanitize_victim).

use rand::Rng;
use seqhide_core::{LocalStrategy, PatternDomain};
use seqhide_match::delta::argmax_delta;
use seqhide_num::{Count, Sat64};
use seqhide_obs::Phase;
use seqhide_types::{Sequence, Symbol};

use crate::count::{delta_by_marking_re_into, matching_size_re, supports_re};
use crate::RegexPattern;

/// The [`PatternDomain`] of regex patterns: support and `δ` through the
/// DFA counting DP of `crate::count`, with the constraint-safe marking
/// device for `δ`. The `δ` and candidate buffers live in the domain and
/// are refilled in place, so the marking loop allocates no fresh vectors
/// per mark.
pub struct RegexDomain<'a, C: Count = Sat64> {
    patterns: &'a [RegexPattern],
    delta: Vec<C>,
    candidates: Vec<usize>,
}

impl<'a, C: Count> RegexDomain<'a, C> {
    /// A domain over `patterns`.
    pub fn new(patterns: &'a [RegexPattern]) -> Self {
        RegexDomain {
            patterns,
            delta: Vec::new(),
            candidates: Vec::new(),
        }
    }
}

impl<C: Count> PatternDomain for RegexDomain<'_, C> {
    type Seq = Sequence;
    type Count = C;

    fn name(&self) -> &'static str {
        "regex"
    }

    fn phase(&self) -> Phase {
        Phase::RegexSanitize
    }

    fn progress_label(&self) -> &'static str {
        "sanitize (regex)"
    }

    fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    fn matching_size(&mut self, t: &Sequence) -> C {
        matching_size_re::<C>(self.patterns, t)
    }

    fn seq_len(&self, t: &Sequence) -> usize {
        t.len()
    }

    fn distinct_ratio(&self, t: &Sequence) -> f64 {
        if t.is_empty() {
            return 1.0;
        }
        let mut syms: Vec<Symbol> = t.iter().filter(|s| !s.is_mark()).copied().collect();
        syms.sort_unstable();
        syms.dedup();
        syms.len() as f64 / t.len() as f64
    }

    fn argmax(&mut self, t: &mut Sequence) -> Option<usize> {
        delta_by_marking_re_into::<C>(self.patterns, t, &mut self.delta);
        argmax_delta(&self.delta)
    }

    fn candidates(&mut self, t: &mut Sequence) -> &[usize] {
        delta_by_marking_re_into::<C>(self.patterns, t, &mut self.delta);
        self.candidates.clear();
        self.candidates.extend(
            self.delta
                .iter()
                .enumerate()
                .filter_map(|(i, d)| (!d.is_zero()).then_some(i)),
        );
        &self.candidates
    }

    fn distort<R: Rng + ?Sized>(
        &mut self,
        t: &mut Sequence,
        pos: usize,
        _strategy: LocalStrategy,
        _rng: &mut R,
    ) -> usize {
        t.mark(pos);
        1
    }

    fn supports_pattern(&mut self, t: &Sequence, k: usize) -> bool {
        supports_re(t, &self.patterns[k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use seqhide_core::{sanitize_victim, SanitizeReport, Sanitizer};
    use seqhide_types::{Alphabet, SequenceDb};

    /// `sanitizer` over the regex domain, seeded with `seed`.
    fn sanitize_db(
        sanitizer: Sanitizer,
        db: &mut SequenceDb,
        patterns: &[RegexPattern],
        seed: u64,
    ) -> SanitizeReport {
        sanitizer
            .with_seed(seed)
            .run_domain(db.sequences_mut(), &mut RegexDomain::<Sat64>::new(patterns))
    }

    #[test]
    fn sanitize_sequence_minimal_marks() {
        let mut sigma = Alphabet::new();
        let re = RegexPattern::compile("a (b | c)", &mut sigma).unwrap();
        let mut t = Sequence::parse("a b c", &mut sigma);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        // both tuples go through position 0 (the a): one mark suffices
        let patterns = std::slice::from_ref(&re);
        let marks = sanitize_victim(
            &mut RegexDomain::<Sat64>::new(patterns),
            &mut t,
            LocalStrategy::Heuristic,
            &mut rng,
        );
        assert_eq!(marks, 1);
        assert!(t[0].is_mark());
        assert!(!supports_re(&t, &re));
    }

    #[test]
    fn sanitize_db_respects_psi() {
        let mut db = SequenceDb::parse("a b\na c\na b c\nx y\n");
        let re = RegexPattern::compile("a (b | c)", db.alphabet_mut()).unwrap();
        let report = sanitize_db(Sanitizer::hh(1), &mut db, std::slice::from_ref(&re), 0);
        assert!(report.hidden);
        assert_eq!(report.residual_supports, vec![1]);
        assert_eq!(report.sequences_sanitized, 2);
        assert_eq!(db.sequences()[3].mark_count(), 0);
    }

    #[test]
    fn random_strategy_terminates() {
        for seed in 0..10 {
            let mut db = SequenceDb::parse("a b a b\nb a b a\na a b b\n");
            let re = RegexPattern::compile("a b+", db.alphabet_mut()).unwrap();
            let report = sanitize_db(Sanitizer::rh(0), &mut db, &[re], seed);
            assert!(report.hidden, "seed {seed}");
            assert_eq!(report.residual_supports, vec![0]);
        }
    }

    #[test]
    fn plus_patterns_hide() {
        let mut db = SequenceDb::parse("a a a\na a\nb b\n");
        let re = RegexPattern::compile("a a+", db.alphabet_mut()).unwrap();
        let report = sanitize_db(Sanitizer::hh(0), &mut db, std::slice::from_ref(&re), 0);
        assert!(report.hidden);
        for t in db.sequences() {
            assert!(!supports_re(t, &re));
        }
        // single a's may survive (the pattern needs at least two)
        assert!(db.sequences()[0].mark_count() <= 2);
    }

    /// The streaming-parity invariant's building block: driving the
    /// generic loop on one thread gives the same marks as fanning the
    /// victims out over worker domains.
    #[test]
    fn threaded_domain_drives_identically() {
        let mut db1 = SequenceDb::parse("a b\na c\na b c\n");
        let mut db2 = db1.clone();
        let re = RegexPattern::compile("a (b | c)", db1.alphabet_mut()).unwrap();
        let patterns = vec![re];
        let r1 = sanitize_db(Sanitizer::hh(0), &mut db1, &patterns, 7);
        let r2 = Sanitizer::hh(0)
            .with_seed(7)
            .with_threads(2)
            .run_domain_threaded(db2.sequences_mut(), &|| {
                RegexDomain::<Sat64>::new(&patterns)
            });
        assert_eq!(r1, r2);
        assert_eq!(db1.to_text(), db2.to_text());
    }
}
