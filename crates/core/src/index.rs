//! The persistent supporter index: the per-supporter statistics table
//! that victim selection runs on, promoted from a throwaway pass-1
//! intermediate to a first-class, mutable structure a sanitized dataset
//! can own.
//!
//! All three drivers build on it the same way: one scan
//! ([`SupporterIndex::scan`] over a slice, [`SupporterIndex::record`] one
//! sequence at a time), selection on the index, and the residual rule
//! over the supporters it lists.
//!
//! - **In memory** ([`crate::Sanitizer::run_domain_threaded`]) scans the
//!   slice, selects, marks, and counts residuals over the index.
//! - **Streaming** pass 1 ([`crate::Sanitizer::run_streaming_domain_from`])
//!   records supporters one at a time while the sequences themselves are
//!   dropped; pass 2 tallies residuals for the supporters only.
//! - **Delta** ([`crate::DeltaState`]) keeps the index alive across
//!   mutations: removals [`SupporterIndex::retain_remap`] it, additions
//!   [`SupporterIndex::record`] onto the end, and re-selection runs on
//!   the updated table without touching unaffected sequences.
//!
//! **The residual rule.** After a run, `residual[k]` counts the
//! *supporters* whose released content supports pattern `k`. Victims are
//! always supporters and nothing else is ever touched, so every other
//! sequence keeps its original content, which by the supporter contract
//! of [`PatternDomain::is_supporter`] supports no pattern. No route
//! therefore re-probes the whole database; [`crate::verify_hidden_domain`]
//! stays the independent full recount.
//!
//! The invariant throughout is *database order*: stats are held in
//! ascending ordinal order, so [`select_victims_from_stats`] produces the
//! same victims (and consumes the RNG identically) on every route.

use rand::Rng;
use seqhide_match::PatternDomain;
use seqhide_num::Count;
use seqhide_obs::{self as obs, Counter, Phase};

use crate::global::{select_victims_from_stats, GlobalStrategy, SupporterStat};

/// An ordered table of [`SupporterStat`]s — one per sequence that
/// supports at least one sensitive pattern, in ascending database-ordinal
/// order.
#[derive(Clone, Debug, Default)]
pub struct SupporterIndex<C> {
    stats: Vec<SupporterStat<C>>,
}

impl<C: Count> SupporterIndex<C> {
    /// An empty index.
    pub fn new() -> Self {
        SupporterIndex { stats: Vec::new() }
    }

    /// Wraps an existing stat table. `stats` must already be in ascending
    /// ordinal order (checked in debug builds).
    pub fn from_stats(stats: Vec<SupporterStat<C>>) -> Self {
        debug_assert!(
            stats.windows(2).all(|w| w[0].ordinal < w[1].ordinal),
            "supporter stats must be in ascending database order"
        );
        SupporterIndex { stats }
    }

    /// Builds the index for a whole database slice: every sequence is
    /// probed with [`PatternDomain::is_supporter`] and supporters are
    /// measured for `strategy`'s sort key.
    pub fn scan<D: PatternDomain<Count = C>>(
        domain: &mut D,
        db: &[D::Seq],
        strategy: GlobalStrategy,
    ) -> Self {
        let mut index = SupporterIndex::new();
        for (ordinal, t) in db.iter().enumerate() {
            index.record(domain, ordinal, strategy, t);
        }
        index
    }

    /// Probes one sequence and appends its stat if it supports a pattern
    /// (streaming pass 1's shape). `ordinal` must exceed every ordinal
    /// already present (checked in debug builds).
    pub fn record<D: PatternDomain<Count = C>>(
        &mut self,
        domain: &mut D,
        ordinal: usize,
        strategy: GlobalStrategy,
        t: &D::Seq,
    ) {
        debug_assert!(
            self.stats.last().is_none_or(|s| s.ordinal < ordinal),
            "supporter stats must be appended in ascending database order"
        );
        if domain.is_supporter(t) {
            let stat = SupporterStat::measure_domain(domain, ordinal, strategy, t);
            self.stats.push(stat);
        }
    }

    /// Number of supporters in the index.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// Whether no sequence supports any pattern.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// The underlying stats, in ascending ordinal order.
    pub fn stats(&self) -> &[SupporterStat<C>] {
        &self.stats
    }

    /// Whether `ordinal` is a supporter (binary search on the sorted
    /// ordinal column).
    pub fn contains(&self, ordinal: usize) -> bool {
        self.stats
            .binary_search_by_key(&ordinal, |s| s.ordinal)
            .is_ok()
    }

    /// Runs victim selection on the index through the shared
    /// [`select_victims_from_stats`]. Returns victim database ordinals in
    /// selection order.
    pub fn select<R: Rng + ?Sized>(
        &self,
        psi: usize,
        strategy: GlobalStrategy,
        rng: &mut R,
    ) -> Vec<usize> {
        select_victims_from_stats(&self.stats, psi, strategy, rng)
    }

    /// The residual rule: the support each pattern keeps in `released`,
    /// counted over this index's supporters only (see the module docs for
    /// why that is exact).
    pub(crate) fn residual<D: PatternDomain<Count = C>>(
        &self,
        domain: &mut D,
        released: &[D::Seq],
    ) -> Vec<usize> {
        let _span = obs::span(Phase::Verify);
        obs::counter_add(Counter::PatternsChecked, domain.pattern_count() as u64);
        let mut residual = vec![0; domain.pattern_count()];
        for s in &self.stats {
            tally(domain, &released[s.ordinal], &mut residual, true);
        }
        residual
    }

    /// Applies a removal-compaction to the index: `remap[old_ordinal]` is
    /// the sequence's new ordinal, or `None` if it was removed. Stats of
    /// removed sequences are dropped; survivors are renumbered in place
    /// (relative order is preserved, so the table stays in ascending
    /// order).
    pub fn retain_remap(&mut self, remap: &[Option<usize>]) {
        self.stats.retain_mut(|s| match remap.get(s.ordinal) {
            Some(&Some(new_ordinal)) => {
                s.ordinal = new_ordinal;
                true
            }
            Some(&None) => false,
            None => unreachable!("supporter ordinal {} outside remap table", s.ordinal),
        });
    }
}

/// The residual rule's one counting step: adds (`add`) or subtracts
/// `t`'s contribution — one for each pattern its content supports — to
/// `residual`.
pub(crate) fn tally<D: PatternDomain>(
    domain: &mut D,
    t: &D::Seq,
    residual: &mut [usize],
    add: bool,
) {
    for (k, slot) in residual.iter_mut().enumerate() {
        if domain.supports_pattern(t, k) {
            *slot = if add {
                *slot + 1
            } else {
                slot.checked_sub(1).expect("residual tally underflow")
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use seqhide_match::{MatchEngine, SensitiveSet};
    use seqhide_num::Sat64;
    use seqhide_types::{Sequence, SequenceDb};

    fn setup() -> (SequenceDb, SensitiveSet) {
        let mut db = SequenceDb::parse("a b\na a b b\na b b\nc c\n");
        let s = Sequence::parse("a b", db.alphabet_mut());
        let sh = SensitiveSet::new(vec![s]);
        (db, sh)
    }

    #[test]
    fn scan_finds_supporters_in_order() {
        let (db, sh) = setup();
        let mut domain = MatchEngine::<Sat64>::new(&sh);
        let index = SupporterIndex::scan(&mut domain, db.sequences(), GlobalStrategy::Heuristic);
        let ordinals: Vec<usize> = index.stats().iter().map(|s| s.ordinal).collect();
        assert_eq!(ordinals, vec![0, 1, 2]);
        assert!(index.contains(2));
        assert!(!index.contains(3));
    }

    #[test]
    fn select_spares_the_largest_matching_sets() {
        // matching-set sizes 1, 4, 2: ψ = 1 spares row 1, cheapest first
        let (db, sh) = setup();
        let mut domain = MatchEngine::<Sat64>::new(&sh);
        let index = SupporterIndex::scan(&mut domain, db.sequences(), GlobalStrategy::Heuristic);
        let mut rng = SmallRng::seed_from_u64(7);
        assert_eq!(
            index.select(1, GlobalStrategy::Heuristic, &mut rng),
            vec![0, 2]
        );
    }

    #[test]
    fn retain_remap_renumbers_survivors() {
        let (db, sh) = setup();
        let mut domain = MatchEngine::<Sat64>::new(&sh);
        let mut index =
            SupporterIndex::scan(&mut domain, db.sequences(), GlobalStrategy::Heuristic);
        // remove ordinal 1: survivors 0, 2, 3 become 0, 1, 2
        let remap = vec![Some(0), None, Some(1), Some(2)];
        index.retain_remap(&remap);
        let ordinals: Vec<usize> = index.stats().iter().map(|s| s.ordinal).collect();
        assert_eq!(ordinals, vec![0, 1]);
    }
}
