//! Global (across-sequence) sanitization: which sequences to sanitize (§4).

use rand::seq::SliceRandom;
use rand::Rng;
use seqhide_match::PatternDomain;
use seqhide_num::Count;
use seqhide_obs::{self as obs, Phase};

/// How victim sequences are selected from the supporters of `S_h`.
///
/// With disclosure threshold `ψ`, all but `ψ` supporting sequences must be
/// sanitized (the paper's global rule guarantees `sup_{D'}(Sᵢ) ≤ ψ` for
/// every sensitive pattern simultaneously, since each pattern's supporters
/// are a subset of the survivors). The strategy decides *which* `ψ`
/// supporters survive untouched.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GlobalStrategy {
    /// The paper's global heuristic: sort supporters in **ascending order
    /// of matching-set size** and sanitize from the cheap end, leaving the
    /// `ψ` sequences with the largest matching sets (the most expensive to
    /// sanitize) undisturbed. Ties break to database order.
    Heuristic,
    /// The random baseline (the second letter of HR/RR): a uniformly random
    /// subset of supporters survives.
    Random,
    /// §8 alternative: prefer sanitizing highly **auto-correlated**
    /// sequences — few distinct symbols relative to length means few
    /// distinct subsequences, hence less collateral damage per mark.
    /// Supporters are sorted by ascending distinct-symbol ratio.
    AutoCorrelation,
    /// §8 alternative: prefer sanitizing **short** sequences — long
    /// sequences potentially support many non-sensitive subsequences, so
    /// the `ψ` longest survive. Supporters are sorted by ascending length.
    Length,
}

/// The per-supporter statistics victim selection consults — everything
/// pass 1 of the streaming driver ([`crate::stream`]) has to retain about
/// a supporting sequence after the sequence itself is dropped. Only the
/// field the given strategy sorts by is actually measured; the rest stay
/// at their defaults.
#[derive(Clone, Debug, Default)]
pub struct SupporterStat<C> {
    /// The sequence's ordinal (index) in database order.
    pub ordinal: usize,
    /// Matching-set size ([`GlobalStrategy::Heuristic`] key).
    pub matching: C,
    /// Unmarked-distinct-symbol ratio ([`GlobalStrategy::AutoCorrelation`]
    /// key; 1.0 for the empty sequence).
    pub distinct_ratio: f64,
    /// Sequence length ([`GlobalStrategy::Length`] key).
    pub len: usize,
}

impl<C: Count> SupporterStat<C> {
    /// Measures the statistic `strategy` will sort by for the supporter at
    /// `ordinal` with content `t`, through the domain every driver scans
    /// with. Only that field is measured; the rest keep their defaults.
    pub fn measure_domain<D: PatternDomain<Count = C>>(
        domain: &mut D,
        ordinal: usize,
        strategy: GlobalStrategy,
        t: &D::Seq,
    ) -> Self {
        let mut stat = SupporterStat {
            ordinal,
            matching: C::zero(),
            distinct_ratio: 0.0,
            len: 0,
        };
        match strategy {
            GlobalStrategy::Heuristic => stat.matching = domain.matching_size(t),
            GlobalStrategy::Random => {}
            GlobalStrategy::AutoCorrelation => stat.distinct_ratio = domain.distinct_ratio(t),
            GlobalStrategy::Length => stat.len = domain.seq_len(t),
        }
        stat
    }
}

/// Selects the supporters to sanitize — `max(0, supporters − ψ)` of them,
/// per `strategy` — from the per-supporter statistics of a
/// [`SupporterIndex`](crate::SupporterIndex), the one form every driver
/// selects from (the streaming pass 1 keeps nothing else). `stats` must
/// be in database order. Returns victim ordinals in selection order; the
/// RNG is consumed only under [`GlobalStrategy::Random`] with at least one
/// victim.
pub fn select_victims_from_stats<C: Count, R: Rng + ?Sized>(
    stats: &[SupporterStat<C>],
    psi: usize,
    strategy: GlobalStrategy,
    rng: &mut R,
) -> Vec<usize> {
    let _span = obs::span(Phase::SelectVictims);
    let n_victims = stats.len().saturating_sub(psi);
    if n_victims == 0 {
        return Vec::new();
    }
    let mut order: Vec<usize> = stats.iter().map(|s| s.ordinal).collect();
    match strategy {
        GlobalStrategy::Heuristic => {
            let mut keyed: Vec<(usize, usize)> = (0..order.len()).map(|k| (k, order[k])).collect();
            keyed.sort_by(|a, b| {
                stats[a.0]
                    .matching
                    .cmp(&stats[b.0].matching)
                    .then(a.1.cmp(&b.1))
            });
            order = keyed.into_iter().map(|(_, i)| i).collect();
        }
        GlobalStrategy::Random => {
            order.shuffle(rng);
        }
        GlobalStrategy::AutoCorrelation => {
            // ascending distinct-symbol ratio = descending auto-correlation
            let mut keyed: Vec<(f64, usize)> = stats
                .iter()
                .map(|s| (s.distinct_ratio, s.ordinal))
                .collect();
            keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            order = keyed.into_iter().map(|(_, i)| i).collect();
        }
        GlobalStrategy::Length => {
            let mut keyed: Vec<(usize, usize)> = stats.iter().map(|s| (s.len, s.ordinal)).collect();
            keyed.sort_unstable();
            order = keyed.into_iter().map(|(_, i)| i).collect();
        }
    }
    order.truncate(n_victims);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SupporterIndex;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use seqhide_match::{supporters, MatchEngine, SensitiveSet};
    use seqhide_num::Sat64;
    use seqhide_types::{Sequence, SequenceDb};

    /// Selection as every driver runs it: scan into the index, select.
    fn select_victims(
        db: &SequenceDb,
        sh: &SensitiveSet,
        psi: usize,
        strategy: GlobalStrategy,
        rng: &mut SmallRng,
    ) -> Vec<usize> {
        let mut domain = MatchEngine::<Sat64>::new(sh);
        SupporterIndex::scan(&mut domain, db.sequences(), strategy).select(psi, strategy, rng)
    }

    /// db rows: 0 has 1 match, 1 has 4 matches, 2 has 2 matches, 3 none.
    fn setup() -> (SequenceDb, SensitiveSet) {
        let mut db = SequenceDb::parse("a b\na a b b\na b b\nc c\n");
        let s = Sequence::parse("a b", db.alphabet_mut());
        let sh = SensitiveSet::new(vec![s]);
        (db, sh)
    }

    #[test]
    fn heuristic_sanitizes_cheapest_first() {
        let (db, sh) = setup();
        let sup = supporters(&db, &sh);
        assert_eq!(sup, vec![0, 1, 2]);
        let mut rng = SmallRng::seed_from_u64(0);
        // ψ = 1: sanitize 2 of 3; survivors must be the largest matching set (row 1).
        let v = select_victims(&db, &sh, 1, GlobalStrategy::Heuristic, &mut rng);
        assert_eq!(v, vec![0, 2]);
        // ψ = 0: everyone, cheapest first.
        let v0 = select_victims(&db, &sh, 0, GlobalStrategy::Heuristic, &mut rng);
        assert_eq!(v0, vec![0, 2, 1]);
    }

    #[test]
    fn psi_at_least_supporters_selects_none() {
        let (db, sh) = setup();
        let mut rng = SmallRng::seed_from_u64(0);
        for strategy in [
            GlobalStrategy::Heuristic,
            GlobalStrategy::Random,
            GlobalStrategy::AutoCorrelation,
            GlobalStrategy::Length,
        ] {
            let v = select_victims(&db, &sh, 3, strategy, &mut rng);
            assert!(v.is_empty(), "{strategy:?}");
            let v = select_victims(&db, &sh, 10, strategy, &mut rng);
            assert!(v.is_empty(), "{strategy:?}");
        }
    }

    #[test]
    fn random_selects_correct_count_from_supporters() {
        let (db, sh) = setup();
        let sup = supporters(&db, &sh);
        for seed in 0..10 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let v = select_victims(&db, &sh, 1, GlobalStrategy::Random, &mut rng);
            assert_eq!(v.len(), 2);
            assert!(v.iter().all(|i| sup.contains(i)));
            let mut uniq = v.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 2);
        }
    }

    #[test]
    fn length_strategy_spares_longest() {
        let (db, sh) = setup();
        let mut rng = SmallRng::seed_from_u64(0);
        let v = select_victims(&db, &sh, 1, GlobalStrategy::Length, &mut rng);
        // lengths: row0=2, row1=4, row2=3 ⇒ sanitize rows 0 and 2
        assert_eq!(v, vec![0, 2]);
    }

    #[test]
    fn autocorrelation_prefers_repetitive() {
        let mut db = SequenceDb::parse("a b c d\na a a b\n");
        let s = Sequence::parse("a b", db.alphabet_mut());
        let sh = SensitiveSet::new(vec![s]);
        let mut rng = SmallRng::seed_from_u64(0);
        let v = select_victims(&db, &sh, 1, GlobalStrategy::AutoCorrelation, &mut rng);
        // row 1 (ratio 2/4) is more auto-correlated than row 0 (4/4)
        assert_eq!(v, vec![1]);
    }
}
