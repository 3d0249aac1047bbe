//! Incremental re-sanitization under mutation: `apply_delta` instead of
//! full recompute.
//!
//! A [`DeltaState`] owns everything a full run would have to rebuild —
//! the original sequences, the released (sanitized) sequences, the
//! persistent [`SupporterIndex`], the victim set with per-victim mark
//! counts, and the residual-support tally. Applying a delta
//! (`added` sequences appended, `removed` ordinals retired) then costs
//! work proportional to the *touched* part of the database:
//!
//! 1. Stats are re-counted only for added sequences (removed ones are
//!    dropped from the index, survivors are renumbered in place).
//! 2. Victim selection re-runs on the updated index through the same
//!    [`select_victims_from_stats`](crate::global::select_victims_from_stats)
//!    comparators with a fresh seed-keyed RNG — exactly what a full run
//!    would do, so the victim set is *identical* to full
//!    re-sanitization of the mutated database.
//! 3. Only sequences whose victim status flipped are re-marked, through
//!    the same victim fan-out as a full run.
//!
//! The residual tally follows the residual rule of [`crate::index`]: it
//! counts the supporters whose released content supports each pattern.
//! The cold build counts it over the index's supporters; an apply moves
//! only the touched supporters' contributions in or out.
//!
//! **Why re-marking only flipped victims is safe.** Each victim's marks
//! are produced by `Sanitizer::sanitize_one_domain` with an RNG keyed
//! by `(seed, selection ordinal)` and are otherwise a pure function of
//! the sequence's original content and the domain configuration. So a
//! surviving victim whose selection ordinal is unchanged would receive
//! byte-identical marks from a full run — nothing to redo. Under
//! [`LocalStrategy::Heuristic`] the marking loop never consumes the RNG
//! at all (argmax position choice; every flat domain's `distort` ignores
//! it, and the itemset engine only draws under the random *local*
//! strategy), so even an ordinal shift cannot change the outcome and
//! only genuinely new victims are re-marked. Under
//! [`LocalStrategy::Random`] an ordinal shift re-keys the RNG, so such
//! victims are re-marked from their preserved originals. Ex-victims are
//! restored from their originals. The property tests in `tests/delta.rs`
//! pin all of this byte-for-byte against full re-sanitization across
//! every strategy pair, domain, engine mode, and thread count.

use seqhide_match::{EngineStats, PatternDomain};
use seqhide_num::Count;
use seqhide_obs::{self as obs, Counter, Phase};

use crate::index::{tally, SupporterIndex};
use crate::local::LocalStrategy;
use crate::sanitizer::{by_ordinal, SanitizeReport, Sanitizer};

/// One mutation batch: sequences to append and database ordinals (into
/// the *current* database, 0-based) to retire.
#[derive(Clone, Debug, Default)]
pub struct SeqDelta<S> {
    /// Sequences appended after the survivors, in order.
    pub added: Vec<S>,
    /// Ordinals of sequences to remove (duplicates tolerated).
    pub removed: Vec<usize>,
}

/// Outcome of one [`DeltaState::apply_delta`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaReport {
    /// The post-delta report — algorithmic fields identical to what a
    /// full [`Sanitizer::run`] on the mutated database would produce
    /// (`engine_repairs`/`fallback_recounts` are work counters of the
    /// incremental path and are reported as 0).
    pub report: SanitizeReport,
    /// Victims actually (re-)marked by this apply — the incremental
    /// work, versus `report.sequences_sanitized` victims total.
    pub remarked: usize,
    /// Ex-victims restored to their original content.
    pub restored: usize,
    /// Sequences removed by this delta (after de-duplication).
    pub removed: usize,
    /// Sequences appended by this delta.
    pub added: usize,
}

/// A sanitized database that can absorb mutations incrementally. See the
/// module docs for the algorithm and its safety argument.
#[derive(Clone, Debug)]
pub struct DeltaState<S, C> {
    config: Sanitizer,
    /// Original (unsanitized) content, database order. Never distorted;
    /// the source of truth re-marking and restoration draw from.
    originals: Vec<S>,
    /// Released (sanitized) content, database order.
    released: Vec<S>,
    /// Persistent supporter index over `originals`.
    index: SupporterIndex<C>,
    /// Victim database ordinals in selection order.
    victims: Vec<usize>,
    /// Marks introduced per victim, aligned with `victims`.
    victim_marks: Vec<usize>,
    /// Residual support per sensitive pattern over `released`.
    residual: Vec<usize>,
}

impl<S: Clone, C: Count> DeltaState<S, C> {
    /// Builds the state with a full scan + sanitize — the cold path,
    /// equivalent to [`Sanitizer::run`] on `originals` (the sanitized
    /// database is [`DeltaState::released`]).
    pub fn build<D>(config: &Sanitizer, domain: &mut D, originals: Vec<S>) -> Self
    where
        D: PatternDomain<Seq = S, Count = C>,
    {
        let index = SupporterIndex::scan(domain, &originals, config.global());
        Self::from_index(config, domain, originals, index, None)
    }

    /// Builds the state from a previously persisted supporter index,
    /// skipping the full supporter scan. `residual` may carry the
    /// persisted residual-support tally; when absent it is recounted over
    /// the index's supporters. The caller is responsible for
    /// `index` actually describing `originals` under `config` (the serve
    /// layer guards this with a config fingerprint + dataset version).
    pub fn from_index<D>(
        config: &Sanitizer,
        domain: &mut D,
        originals: Vec<S>,
        index: SupporterIndex<C>,
        residual: Option<Vec<usize>>,
    ) -> Self
    where
        D: PatternDomain<Seq = S, Count = C>,
    {
        let victims = config.select(&index);
        let mut released: Vec<S> = originals.to_vec();
        let pairs = by_ordinal(&victims);
        let (marks, _) = config.mark_slice(&mut released, &pairs, domain, None);
        let mut victim_marks = vec![0; victims.len()];
        for (&(_, sel), m) in pairs.iter().zip(marks) {
            victim_marks[sel] = m;
        }
        let residual = match residual {
            Some(r) => {
                assert_eq!(r.len(), domain.pattern_count(), "one residual per pattern");
                r
            }
            None => index.residual(domain, &released),
        };
        DeltaState {
            config: config.clone(),
            originals,
            released,
            index,
            victims,
            victim_marks,
            residual,
        }
    }

    /// The sanitizer configuration this state was built with.
    pub fn config(&self) -> &Sanitizer {
        &self.config
    }

    /// Current database size.
    pub fn len(&self) -> usize {
        self.originals.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.originals.is_empty()
    }

    /// Original (unsanitized) sequences, database order.
    pub fn originals(&self) -> &[S] {
        &self.originals
    }

    /// Released (sanitized) sequences, database order.
    pub fn released(&self) -> &[S] {
        &self.released
    }

    /// The live supporter index.
    pub fn index(&self) -> &SupporterIndex<C> {
        &self.index
    }

    /// Victim database ordinals in selection order.
    pub fn victims(&self) -> &[usize] {
        &self.victims
    }

    /// The report describing the current state — algorithmic fields
    /// identical to a full [`Sanitizer::run`] over the current originals.
    pub fn report(&self) -> SanitizeReport {
        self.config.report(
            self.victim_marks.iter().sum(),
            self.victims.len(),
            self.index.len(),
            self.residual.clone(),
            EngineStats::default(),
        )
    }

    /// Applies one mutation batch incrementally. Errors (leaving the
    /// state untouched) when a removal ordinal is out of range.
    pub fn apply_delta<D>(
        &mut self,
        domain: &mut D,
        delta: SeqDelta<S>,
    ) -> Result<DeltaReport, String>
    where
        D: PatternDomain<Seq = S, Count = C>,
    {
        let _span = obs::span(Phase::DeltaApply);
        let n_old = self.originals.len();
        let mut removed = delta.removed;
        removed.sort_unstable();
        removed.dedup();
        if let Some(&bad) = removed.last() {
            if bad >= n_old {
                return Err(format!(
                    "delta removes ordinal {bad} but the database has {n_old} sequence(s)"
                ));
            }
        }

        // Retire removed sequences: residual contributions out first
        // (tallies run over released content), then compact.
        for &ord in &removed {
            self.bump_residual(domain, ord, false);
        }
        let remap = compaction_remap(n_old, &removed);
        // Old victims that survive, keyed by their *new* ordinal, with
        // their old selection ordinal and mark count.
        let mut carried: std::collections::HashMap<usize, (usize, usize)> =
            std::collections::HashMap::new();
        for (sel, &ord) in self.victims.iter().enumerate() {
            if let Some(new_ord) = remap[ord] {
                carried.insert(new_ord, (sel, self.victim_marks[sel]));
            }
        }
        compact(&mut self.originals, &remap);
        compact(&mut self.released, &remap);
        self.index.retain_remap(&remap);

        // Append additions: measure their stats (released copy starts as
        // the original; residual contribution is added at the end, after
        // any marking).
        let first_new = self.originals.len();
        let added_count = delta.added.len();
        for t in delta.added {
            let ordinal = self.originals.len();
            self.index.record(domain, ordinal, self.config.global(), &t);
            self.released.push(t.clone());
            self.originals.push(t);
        }

        // Re-select on the updated index — same comparators, fresh
        // seed-keyed RNG, exactly as a full run would.
        let victims = self.config.select(&self.index);

        // Re-mark only flipped victims (see module docs for why carrying
        // the rest over is byte-safe): newly selected ones, and carried
        // ones whose shifted selection ordinal re-keys a random local
        // strategy's RNG.
        let rng_matters = self.config.local() == LocalStrategy::Random;
        let mut victim_marks = vec![0usize; victims.len()];
        let mut remark: Vec<(usize, usize)> = Vec::new();
        for (sel, &ord) in victims.iter().enumerate() {
            match carried.get(&ord) {
                Some(&(old_sel, old_marks)) if !(rng_matters && old_sel != sel) => {
                    victim_marks[sel] = old_marks;
                }
                _ => remark.push((ord, sel)),
            }
        }
        remark.sort_unstable();
        // Marks are re-derived from the pristine original. Appended
        // sequences enter the residual tally below, after any marking.
        for &(ord, _) in remark.iter().filter(|&&(ord, _)| ord < first_new) {
            self.bump_residual(domain, ord, false);
            self.released[ord] = self.originals[ord].clone();
        }
        let (marks, _) = self
            .config
            .mark_slice(&mut self.released, &remark, domain, None);
        for (&(ord, sel), m) in remark.iter().zip(marks) {
            victim_marks[sel] = m;
            if ord < first_new {
                self.bump_residual(domain, ord, true);
            }
        }
        let remarked = remark.len();

        // Restore ex-victims (selected before, not selected now).
        let victim_set: std::collections::HashSet<usize> = victims.iter().copied().collect();
        let mut restored = 0usize;
        for (&ord, _) in carried.iter() {
            if !victim_set.contains(&ord) {
                self.bump_residual(domain, ord, false);
                self.released[ord] = self.originals[ord].clone();
                self.bump_residual(domain, ord, true);
                restored += 1;
            }
        }

        // Appended sequences enter the residual tally with their final
        // (possibly marked) content.
        for ord in first_new..self.released.len() {
            self.bump_residual(domain, ord, true);
        }

        self.victims = victims;
        self.victim_marks = victim_marks;

        obs::counter_add(Counter::DeltaApplies, 1);
        obs::counter_add(Counter::DeltaRemarked, remarked as u64);
        obs::counter_add(Counter::DeltaVictims, self.victims.len() as u64);
        Ok(DeltaReport {
            report: self.report(),
            remarked,
            restored,
            removed: removed.len(),
            added: added_count,
        })
    }

    /// Adds (`add = true`) or removes the released sequence `ord`'s
    /// contribution to the residual-support tally. Only supporters count
    /// (the residual rule of [`crate::index`]), so `ord` must use the
    /// index's current numbering.
    fn bump_residual<D>(&mut self, domain: &mut D, ord: usize, add: bool)
    where
        D: PatternDomain<Seq = S, Count = C>,
    {
        if self.index.contains(ord) {
            tally(domain, &self.released[ord], &mut self.residual, add);
        }
    }
}

/// `remap[old_ordinal] = Some(new_ordinal)` for survivors, `None` for
/// removed ordinals. `removed` must be sorted and deduplicated.
fn compaction_remap(len: usize, removed: &[usize]) -> Vec<Option<usize>> {
    let mut remap = Vec::with_capacity(len);
    let mut next = 0usize;
    let mut rm = removed.iter().peekable();
    for ord in 0..len {
        if rm.peek() == Some(&&ord) {
            rm.next();
            remap.push(None);
        } else {
            remap.push(Some(next));
            next += 1;
        }
    }
    remap
}

/// Drops removed elements in place, preserving survivor order.
fn compact<S>(v: &mut Vec<S>, remap: &[Option<usize>]) {
    let mut ord = 0;
    v.retain(|_| {
        let keep = remap[ord].is_some();
        ord += 1;
        keep
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqhide_match::{MatchEngine, SensitiveSet};
    use seqhide_num::Sat64;
    use seqhide_types::{Sequence, SequenceDb};

    fn setup(text: &str, pattern: &str) -> (SequenceDb, SensitiveSet) {
        let mut db = SequenceDb::parse(text);
        let s = Sequence::parse(pattern, db.alphabet_mut());
        let sh = SensitiveSet::new(vec![s]);
        (db, sh)
    }

    /// Full re-sanitization of `originals` for comparison.
    fn full(config: &Sanitizer, db: &SequenceDb, sh: &SensitiveSet) -> (SanitizeReport, String) {
        let mut fresh = db.clone();
        let report = config.run(&mut fresh, sh);
        (report, fresh.to_text())
    }

    fn render(db: &SequenceDb, seqs: &[Sequence]) -> String {
        let mut out = String::new();
        for t in seqs {
            let line: Vec<String> = t.iter().map(|&s| db.alphabet().render(s)).collect();
            out.push_str(&line.join(" "));
            out.push('\n');
        }
        out
    }

    #[test]
    fn build_matches_full_run() {
        let (db, sh) = setup("a b c\nb a c\nc a b c\na c\nb b\nc a\na b a c\n", "a c");
        let config = Sanitizer::hh(1);
        let mut domain = MatchEngine::<Sat64>::new(&sh);
        let state = DeltaState::build(&config, &mut domain, db.sequences().to_vec());
        let (report, text) = full(&config, &db, &sh);
        let got = state.report();
        assert_eq!(got.marks_introduced, report.marks_introduced);
        assert_eq!(got.sequences_sanitized, report.sequences_sanitized);
        assert_eq!(got.supporters_before, report.supporters_before);
        assert_eq!(got.residual_supports, report.residual_supports);
        assert_eq!(got.hidden, report.hidden);
        assert_eq!(render(&db, state.released()), text);
    }

    #[test]
    fn empty_delta_changes_nothing() {
        let (db, sh) = setup("a b c\nb a c\na c\n", "a c");
        let config = Sanitizer::hh(1);
        let mut domain = MatchEngine::<Sat64>::new(&sh);
        let mut state = DeltaState::build(&config, &mut domain, db.sequences().to_vec());
        let before = render(&db, state.released());
        let r = state.apply_delta(&mut domain, SeqDelta::default()).unwrap();
        assert_eq!(r.remarked, 0);
        assert_eq!(r.restored, 0);
        assert_eq!(render(&db, state.released()), before);
    }

    #[test]
    fn out_of_range_removal_errors_and_leaves_state_intact() {
        let (db, sh) = setup("a b\na b\n", "a b");
        let config = Sanitizer::hh(1);
        let mut domain = MatchEngine::<Sat64>::new(&sh);
        let mut state = DeltaState::build(&config, &mut domain, db.sequences().to_vec());
        let before = render(&db, state.released());
        let err = state
            .apply_delta(
                &mut domain,
                SeqDelta {
                    added: vec![],
                    removed: vec![5],
                },
            )
            .unwrap_err();
        assert!(err.contains("ordinal 5"));
        assert_eq!(render(&db, state.released()), before);
    }

    #[test]
    fn delta_emptying_the_database() {
        let (db, sh) = setup("a b\nb a\n", "a b");
        let config = Sanitizer::hh(0);
        let mut domain = MatchEngine::<Sat64>::new(&sh);
        let mut state = DeltaState::build(&config, &mut domain, db.sequences().to_vec());
        let r = state
            .apply_delta(
                &mut domain,
                SeqDelta {
                    added: vec![],
                    removed: vec![0, 1],
                },
            )
            .unwrap();
        assert!(state.is_empty());
        assert_eq!(r.report.supporters_before, 0);
        assert_eq!(r.report.residual_supports, vec![0]);
        assert!(r.report.hidden);
    }

    #[test]
    fn duplicate_removals_are_deduplicated() {
        let (db, sh) = setup("a b\nb a\nc c\n", "a b");
        let config = Sanitizer::hh(0);
        let mut domain = MatchEngine::<Sat64>::new(&sh);
        let mut state = DeltaState::build(&config, &mut domain, db.sequences().to_vec());
        let r = state
            .apply_delta(
                &mut domain,
                SeqDelta {
                    added: vec![],
                    removed: vec![1, 1, 1],
                },
            )
            .unwrap();
        assert_eq!(r.removed, 1);
        assert_eq!(state.len(), 2);
    }

    #[test]
    fn compaction_remap_basic() {
        assert_eq!(
            compaction_remap(4, &[1, 3]),
            vec![Some(0), None, Some(1), None]
        );
        assert_eq!(compaction_remap(2, &[]), vec![Some(0), Some(1)]);
    }
}
