//! Hiding in event sequences with real-time tags (§7.2).
//!
//! The min-gap / max-gap / max-window constraints are re-expressed in
//! **time units** instead of index distances. The paper notes the basic
//! method only needs the indices of admissible predecessor matches, which
//! "can be easily located using the associated real time tags": because
//! tags are non-decreasing, a time interval maps to a *contiguous index
//! range*, so the same prefix-sum DP applies via
//! [`seqhide_match::ending_at_table_bounded_by`].
//!
//! [`TimedDomain`] is the pattern class's [`PatternDomain`]: a database
//! is sanitized by [`Sanitizer::run_domain`](crate::Sanitizer::run_domain)
//! or [`Sanitizer::run_domain_threaded`](crate::Sanitizer::run_domain_threaded)
//! with it, one victim by [`sanitize_victim`](crate::sanitize_victim).
//! Marked events keep their time tags (a marked event still occupies its
//! instant).

use rand::Rng;
use seqhide_match::counting::ending_at_table_bounded_into;
use seqhide_match::delta::argmax_delta;
use seqhide_match::{PatternDomain, PatternError};
use seqhide_num::{Count, Sat64};
use seqhide_obs::Phase;
use seqhide_types::{Sequence, Symbol, TimeTag, TimedSequence};

use crate::local::LocalStrategy;

/// A time-gap constraint on one pattern arrow: the elapsed time between
/// consecutive matched events must lie in `[min, max]` ticks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimeGap {
    /// Minimum elapsed ticks.
    pub min: TimeTag,
    /// Maximum elapsed ticks, if bounded.
    pub max: Option<TimeTag>,
}

impl TimeGap {
    /// Unconstrained arrow.
    pub const fn any() -> Self {
        TimeGap { min: 0, max: None }
    }
}

/// Time-expressed occurrence constraints: per-arrow gaps (one entry
/// broadcasts, like [`seqhide_match::ConstraintSet`]) and a max window in
/// ticks (first-to-last elapsed time).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TimeConstraints {
    /// Per-arrow time gaps (empty ⇒ unconstrained; single entry broadcasts).
    pub gaps: Vec<TimeGap>,
    /// Maximum elapsed time from first to last matched event.
    pub max_window: Option<TimeTag>,
}

impl TimeConstraints {
    /// No constraints.
    pub fn none() -> Self {
        Self::default()
    }

    /// The same time gap on every arrow.
    pub fn uniform_gap(gap: TimeGap) -> Self {
        TimeConstraints {
            gaps: vec![gap],
            max_window: None,
        }
    }

    /// Only a max time window.
    pub fn with_max_window(ws: TimeTag) -> Self {
        TimeConstraints {
            gaps: Vec::new(),
            max_window: Some(ws),
        }
    }

    fn gap(&self, k: usize, arrows: usize) -> TimeGap {
        match self.gaps.len() {
            0 => TimeGap::any(),
            1 if arrows != 1 => self.gaps[0],
            _ => self.gaps.get(k).copied().unwrap_or_else(TimeGap::any),
        }
    }
}

/// A sensitive pattern over timed events.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TimedPattern {
    seq: Sequence,
    constraints: TimeConstraints,
}

impl TimedPattern {
    /// Creates a timed pattern (non-empty, mark-free).
    pub fn new(seq: Sequence, constraints: TimeConstraints) -> Result<Self, PatternError> {
        if seq.is_empty() {
            return Err(PatternError::Empty);
        }
        if seq.iter().any(|s| s.is_mark()) {
            return Err(PatternError::ContainsMark);
        }
        let arrows = seq.len() - 1;
        if !(constraints.gaps.len() <= 1 || constraints.gaps.len() == arrows) {
            return Err(PatternError::BadConstraints(format!(
                "pattern with {arrows} arrows given {} time gaps",
                constraints.gaps.len()
            )));
        }
        Ok(TimedPattern { seq, constraints })
    }

    /// The pattern symbols.
    pub fn seq(&self) -> &Sequence {
        &self.seq
    }

    /// The time constraints.
    pub fn constraints(&self) -> &TimeConstraints {
        &self.constraints
    }
}

/// Index range of events whose time lies in `[lo_t, hi_t]` (times are
/// non-decreasing, so the range is contiguous).
fn time_range(times: &[TimeTag], lo_t: TimeTag, hi_t: TimeTag) -> Option<(usize, usize)> {
    let lo = times.partition_point(|&t| t < lo_t);
    let hi = times.partition_point(|&t| t <= hi_t);
    (lo < hi).then(|| (lo, hi - 1))
}

/// Counts occurrences of `p` in `t` under its time constraints.
pub fn count_matches_timed<C: Count>(p: &TimedPattern, t: &TimedSequence) -> C {
    let m = p.seq.len();
    let n = t.len();
    let times: Vec<TimeTag> = t.events().iter().map(|e| e.time).collect();
    let symbols = t.to_sequence();
    let matches = |k: usize, j: usize| p.seq[k].matches(symbols[j]);
    let arrows = m - 1;
    let gap_range = |k: usize, j: usize| -> Option<(usize, usize)> {
        let gap = p.constraints.gap(k, arrows);
        let end_t = times[j];
        let hi_t = end_t.checked_sub(gap.min)?;
        let lo_t = match gap.max {
            Some(max) => end_t.saturating_sub(max),
            None => 0,
        };
        time_range(&times, lo_t, hi_t)
    };
    // DP table and prefix-sum row reused across every per-end-position
    // slice (the window branch runs one DP per matching end event).
    let mut table: Vec<C> = Vec::new();
    let mut prefix: Vec<C> = Vec::new();
    match p.constraints.max_window {
        None => {
            ending_at_table_bounded_into::<C>(m, n, matches, gap_range, &mut table, &mut prefix);
            let mut total = C::zero();
            for cell in &table[(m - 1) * n..] {
                total.add_assign(cell);
            }
            total
        }
        Some(ws) => {
            // Anchor on the end event j: the first event must have
            // time ≥ time[j] − ws, i.e. sit in a contiguous slice [lo, j].
            let mut total = C::zero();
            for j in 0..n {
                if !matches(m - 1, j) {
                    continue;
                }
                let lo = times.partition_point(|&x| x < times[j].saturating_sub(ws));
                let len = j - lo + 1;
                if len < m {
                    continue;
                }
                ending_at_table_bounded_into::<C>(
                    m,
                    len,
                    |k, jj| matches(k, lo + jj),
                    |k, jj| {
                        let (a, b) = gap_range(k, lo + jj)?;
                        let a = a.max(lo);
                        if a > b {
                            return None;
                        }
                        Some((a - lo, b - lo))
                    },
                    &mut table,
                    &mut prefix,
                );
                total.add_assign(&table[(m - 1) * len + (len - 1)]);
            }
            total
        }
    }
}

/// Combined occurrence count for several timed patterns.
pub fn matching_size_timed<C: Count>(patterns: &[TimedPattern], t: &TimedSequence) -> C {
    let mut total = C::zero();
    for p in patterns {
        total.add_assign(&count_matches_timed::<C>(p, t));
    }
    total
}

/// Whether `t` supports `p`.
pub fn supports_timed(t: &TimedSequence, p: &TimedPattern) -> bool {
    !count_matches_timed::<Sat64>(p, t).is_zero()
}

/// `δ` per event by temporary marking (marking keeps the time tag, so all
/// time constraints stay correctly evaluated).
pub fn delta_timed<C: Count>(patterns: &[TimedPattern], t: &TimedSequence) -> Vec<C> {
    let mut delta = Vec::new();
    let mut work = t.clone();
    delta_timed_into(patterns, &mut work, &mut delta);
    delta
}

/// [`delta_timed`] writing into a caller-owned buffer and marking events in
/// place (each is restored before the next is probed, so `t` is net
/// unchanged). Lets the sanitization loop reuse one `δ` vector instead of
/// allocating a fresh `Vec` and a sequence clone per mark.
pub fn delta_timed_into<C: Count>(
    patterns: &[TimedPattern],
    t: &mut TimedSequence,
    delta: &mut Vec<C>,
) {
    let total = matching_size_timed::<C>(patterns, t);
    delta.clear();
    for i in 0..t.len() {
        if t.events()[i].symbol.is_mark() {
            delta.push(C::zero());
            continue;
        }
        let saved = t.mark(i);
        let reduced = matching_size_timed::<C>(patterns, t);
        t.set_symbol(i, saved);
        delta.push(total.saturating_sub(&reduced));
    }
}

/// The [`PatternDomain`] of timed patterns: `δ` by temporary marking
/// (marking preserves time tags, so every time constraint stays correctly
/// evaluated), support by the time-translated DP of
/// [`count_matches_timed`]. The `δ` and candidate buffers live in the
/// domain and are refilled in place, so the marking loop allocates no
/// fresh vectors per mark.
pub struct TimedDomain<'a, C: Count = Sat64> {
    patterns: &'a [TimedPattern],
    delta: Vec<C>,
    candidates: Vec<usize>,
}

impl<'a, C: Count> TimedDomain<'a, C> {
    /// A domain over `patterns`.
    pub fn new(patterns: &'a [TimedPattern]) -> Self {
        TimedDomain {
            patterns,
            delta: Vec::new(),
            candidates: Vec::new(),
        }
    }
}

impl<C: Count> PatternDomain for TimedDomain<'_, C> {
    type Seq = TimedSequence;
    type Count = C;

    fn name(&self) -> &'static str {
        "timed"
    }

    fn phase(&self) -> Phase {
        Phase::TimedSanitize
    }

    fn progress_label(&self) -> &'static str {
        "sanitize (timed)"
    }

    fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    fn matching_size(&mut self, t: &TimedSequence) -> C {
        matching_size_timed::<C>(self.patterns, t)
    }

    fn seq_len(&self, t: &TimedSequence) -> usize {
        t.len()
    }

    fn distinct_ratio(&self, t: &TimedSequence) -> f64 {
        if t.is_empty() {
            return 1.0;
        }
        let mut syms: Vec<Symbol> = t
            .events()
            .iter()
            .map(|e| e.symbol)
            .filter(|s| !s.is_mark())
            .collect();
        syms.sort_unstable();
        syms.dedup();
        syms.len() as f64 / t.len() as f64
    }

    fn argmax(&mut self, t: &mut TimedSequence) -> Option<usize> {
        delta_timed_into::<C>(self.patterns, t, &mut self.delta);
        argmax_delta(&self.delta)
    }

    fn candidates(&mut self, t: &mut TimedSequence) -> &[usize] {
        delta_timed_into::<C>(self.patterns, t, &mut self.delta);
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
        t: &mut TimedSequence,
        pos: usize,
        _strategy: LocalStrategy,
        _rng: &mut R,
    ) -> usize {
        t.mark(pos);
        1
    }

    fn supports_pattern(&mut self, t: &TimedSequence, k: usize) -> bool {
        supports_timed(t, &self.patterns[k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sanitize_victim, Sanitizer};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use seqhide_types::Alphabet;

    fn pat(names: &str, sigma: &mut Alphabet, cs: TimeConstraints) -> TimedPattern {
        TimedPattern::new(Sequence::parse(names, sigma), cs).unwrap()
    }

    #[test]
    fn unconstrained_timed_count_matches_plain() {
        let mut sigma = Alphabet::new();
        let p = pat("a b", &mut sigma, TimeConstraints::none());
        // a@0 a@5 b@9 b@10 → 4 embeddings
        let t = TimedSequence::from_pairs([(0, 0), (0, 5), (1, 9), (1, 10)]);
        assert_eq!(count_matches_timed::<u64>(&p, &t), 4);
    }

    #[test]
    fn time_gap_filters_by_elapsed_time() {
        let mut sigma = Alphabet::new();
        // require b within 1..=4 ticks after a
        let p = pat(
            "a b",
            &mut sigma,
            TimeConstraints::uniform_gap(TimeGap {
                min: 1,
                max: Some(4),
            }),
        );
        let t = TimedSequence::from_pairs([(0, 0), (0, 5), (1, 9), (1, 10)]);
        // pairs (a@0,b@9):9, (a@0,b@10):10, (a@5,b@9):4 ✓, (a@5,b@10):5 ✗
        assert_eq!(count_matches_timed::<u64>(&p, &t), 1);
    }

    #[test]
    fn zero_elapsed_time_counts_for_min_zero() {
        let mut sigma = Alphabet::new();
        let p = pat(
            "a b",
            &mut sigma,
            TimeConstraints::uniform_gap(TimeGap {
                min: 0,
                max: Some(0),
            }),
        );
        // simultaneous events a@3 b@3 — elapsed 0 — order still by index
        let t = TimedSequence::from_pairs([(0, 3), (1, 3), (1, 7)]);
        assert_eq!(count_matches_timed::<u64>(&p, &t), 1);
    }

    #[test]
    fn time_window_bounds_span() {
        let mut sigma = Alphabet::new();
        let p = pat("a b c", &mut sigma, TimeConstraints::with_max_window(5));
        // a@0 b@2 c@4 (span 4 ✓); a@0 b@2 c@9 (span 9 ✗); a@7 b@8 c@9 ✓
        let t = TimedSequence::from_pairs([(0, 0), (1, 2), (2, 4), (0, 7), (1, 8), (2, 9)]);
        // embeddings within window 5: (0,1,2), (3,4,5), and (0,1,5)? span 9 ✗,
        // (0,4,5) span 9 ✗, (3,4,2)? invalid order. So 2.
        assert_eq!(count_matches_timed::<u64>(&p, &t), 2);
    }

    #[test]
    fn delta_identifies_shared_event() {
        let mut sigma = Alphabet::new();
        let p = pat("a b", &mut sigma, TimeConstraints::none());
        let t = TimedSequence::from_pairs([(0, 0), (0, 1), (1, 2)]);
        let d = delta_timed::<u64>(&[p], &t);
        assert_eq!(d, vec![1, 1, 2]);
    }

    #[test]
    fn timed_victim_clears_and_preserves_tags() {
        let mut sigma = Alphabet::new();
        let p = pat("a b", &mut sigma, TimeConstraints::none());
        let mut t = TimedSequence::from_pairs([(0, 0), (0, 1), (1, 2)]);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let patterns = std::slice::from_ref(&p);
        let marks = sanitize_victim(
            &mut TimedDomain::<Sat64>::new(patterns),
            &mut t,
            LocalStrategy::Heuristic,
            &mut rng,
        );
        assert_eq!(marks, 1);
        assert!(t.events()[2].symbol.is_mark());
        assert_eq!(t.time_at(2), 2);
        assert!(!supports_timed(&t, &p));
    }

    #[test]
    fn constrained_sanitization_spares_out_of_window_events() {
        let mut sigma = Alphabet::new();
        let p = pat("a b", &mut sigma, TimeConstraints::with_max_window(2));
        // only (a@10, b@11) is within the 2-tick window
        let mut t = TimedSequence::from_pairs([(0, 0), (1, 5), (0, 10), (1, 11)]);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let patterns = std::slice::from_ref(&p);
        let marks = sanitize_victim(
            &mut TimedDomain::<Sat64>::new(patterns),
            &mut t,
            LocalStrategy::Heuristic,
            &mut rng,
        );
        assert_eq!(marks, 1);
        assert!(!supports_timed(&t, &p));
        // early events untouched
        assert!(!t.events()[0].symbol.is_mark());
        assert!(!t.events()[1].symbol.is_mark());
    }

    #[test]
    fn db_sanitization_respects_psi() {
        let mut sigma = Alphabet::new();
        let p = pat("a b", &mut sigma, TimeConstraints::none());
        let mut db = vec![
            TimedSequence::from_pairs([(0, 0), (1, 1)]),
            TimedSequence::from_pairs([(0, 0), (0, 1), (1, 2)]),
            TimedSequence::from_pairs([(2, 0)]),
        ];
        let report = Sanitizer::hh(1)
            .with_seed(0)
            .run_domain(&mut db, &mut TimedDomain::<Sat64>::new(&[p]));
        assert!(report.hidden);
        assert_eq!(report.residual_supports, vec![1]);
        assert_eq!(report.sequences_sanitized, 1);
        // the cheaper sequence (db[0], 1 occurrence) was sanitized
        assert_eq!(db[0].mark_count(), 1);
        assert_eq!(db[1].mark_count(), 0);
    }
}
