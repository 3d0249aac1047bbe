//! The residual rule's ground: every driver counts residual supports over
//! the supporters only, which is exact because victims are supporters,
//! nothing else is ever touched, and — the domain contract pinned here —
//! a sequence supports some pattern exactly when the domain calls it a
//! supporter: `is_supporter(t) ⇔ ∃k supports_pattern(t, k)`.
//!
//! * the contract holds for every domain the CLI and `seqhide serve` run,
//!   on random sequences with Δ marks and repeated pattern symbols, before
//!   and after sanitization;
//! * a run's `residual_supports` equals [`verify_hidden_domain`], the
//!   independent full recount, on the release;
//! * the in-memory run, the streamed run and a delta cold build probe
//!   `supports_pattern` at most |supporters| × |patterns| times.

use std::fmt::Debug;
use std::io::{self, BufRead, Cursor};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use proptest::prelude::*;
use rand::Rng;
use seqhide::core::delta::DeltaState;
use seqhide::core::timed::{TimeConstraints, TimeGap, TimedPattern};
use seqhide::core::{
    verify_hidden_domain, DisclosureThresholds, GlobalStrategy, LocalStrategy, Sanitizer,
    TimedDomain,
};
use seqhide::data::PlainCodec;
use seqhide::matching::itemset::ItemsetPattern;
use seqhide::matching::{
    ConstraintSet, EngineStats, Gap, ItemsetMatchEngine, MatchEngine, PatternDomain, ScratchDomain,
    SensitivePattern, SensitiveSet,
};
use seqhide::num::Sat64;
use seqhide::re::{RegexDomain, RegexPattern};
use seqhide::string::{StringDomain, StringPattern};
use seqhide::types::{
    Alphabet, Itemset, ItemsetSequence, OpKind, Sequence, Symbol, TimedEvent, TimedSequence,
};
use seqhide_obs::Phase;

/// Symbol names of ids `0..5`; id [`DELTA`] stands for a Δ mark.
const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
const DELTA: u32 = 5;

fn symbol(id: u32) -> Symbol {
    if id == DELTA {
        Symbol::MARK
    } else {
        Symbol::new(id)
    }
}

fn plain(ids: &[u32]) -> Sequence {
    Sequence::new(ids.iter().map(|&i| symbol(i)).collect())
}

/// An alphabet whose ids `0..5` are [`NAMES`], for the domains that
/// compile patterns from text.
fn alphabet() -> Alphabet {
    let mut sigma = Alphabet::new();
    for name in NAMES {
        sigma.intern(name);
    }
    sigma
}

fn rows() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..=DELTA, 0..=10), 0..=12)
}

fn pattern_ids() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..3, 1..=3), 1..=3)
}

fn knobs() -> impl Strategy<Value = (LocalStrategy, GlobalStrategy, usize, usize, u64)> {
    (
        prop::sample::select(vec![LocalStrategy::Heuristic, LocalStrategy::Random]),
        prop::sample::select(vec![GlobalStrategy::Heuristic, GlobalStrategy::Random]),
        0usize..4,
        prop::sample::select(vec![1usize, 3]),
        0u64..3,
    )
}

/// Checks the supporter contract on every sequence of `db`, sanitizes a
/// copy with `run_domain_threaded`, re-checks the contract on the release
/// and compares the report's residual supports with the full recount.
fn check<D: PatternDomain>(
    db: &[D::Seq],
    make: &(dyn Fn() -> D + Sync),
    (local, global, psi, threads, seed): (LocalStrategy, GlobalStrategy, usize, usize, u64),
) -> Result<(), TestCaseError>
where
    D::Seq: Clone + Debug,
{
    let mut domain = make();
    let patterns = domain.pattern_count();
    let contract = |domain: &mut D, t: &D::Seq| -> Result<(), TestCaseError> {
        let any = (0..patterns).any(|k| domain.supports_pattern(t, k));
        prop_assert_eq!(domain.is_supporter(t), any, "{}: {:?}", domain.name(), t);
        Ok(())
    };
    for t in db {
        contract(&mut domain, t)?;
    }
    let mut released = db.to_vec();
    let report = Sanitizer::new(local, global, psi)
        .with_seed(seed)
        .with_threads(threads)
        .run_domain_threaded(&mut released, make);
    for t in &released {
        contract(&mut domain, t)?;
    }
    let thresholds = DisclosureThresholds::uniform(psi, patterns);
    let recount = verify_hidden_domain(&mut domain, &released, &thresholds);
    prop_assert_eq!(
        &report.residual_supports,
        &recount.supports,
        "{}",
        domain.name()
    );
    prop_assert!(report.hidden && recount.hidden);
    Ok(())
}

fn plain_set(pats: &[Vec<u32>], cs: &ConstraintSet) -> SensitiveSet {
    SensitiveSet::from_patterns(
        pats.iter()
            .map(|p| SensitivePattern::new(plain(p), cs.clone()).unwrap())
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plain_domains_keep_the_supporter_contract(
        rows in rows(),
        pats in pattern_ids(),
        cs in prop::sample::select(vec![
            ConstraintSet::none(),
            ConstraintSet::uniform_gap(Gap::bounded(0, 1)),
            ConstraintSet::uniform_gap(Gap::bounded(1, 3)),
            ConstraintSet::with_max_window(3),
        ]),
        knobs in knobs(),
    ) {
        let db: Vec<Sequence> = rows.iter().map(|r| plain(r)).collect();
        let sh = plain_set(&pats, &cs);
        check(&db, &|| MatchEngine::<Sat64>::new(&sh), knobs)?;
        check(&db, &|| ScratchDomain::<Sat64>::new(&sh), knobs)?;
    }

    #[test]
    fn itemset_domain_keeps_the_supporter_contract(
        rows in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0u32..=DELTA, 1..=3), 0..=6),
            0..=10,
        ),
        pats in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0u32..3, 1..=2), 1..=2),
            1..=2,
        ),
        knobs in knobs(),
    ) {
        let element = |items: &Vec<u32>| Itemset::new(items.iter().map(|&i| symbol(i)).collect());
        let db: Vec<ItemsetSequence> = rows
            .iter()
            .map(|r| ItemsetSequence::new(r.iter().map(element).collect()))
            .collect();
        let patterns: Vec<ItemsetPattern> = pats
            .iter()
            .map(|p| {
                let seq = ItemsetSequence::new(p.iter().map(element).collect());
                ItemsetPattern::new(seq, ConstraintSet::none()).unwrap()
            })
            .collect();
        check(&db, &|| ItemsetMatchEngine::<Sat64>::new(&patterns), knobs)?;
    }

    #[test]
    fn timed_domain_keeps_the_supporter_contract(
        rows in prop::collection::vec(
            prop::collection::vec((0u32..=DELTA, 0u64..6), 0..=10),
            0..=12,
        ),
        pats in pattern_ids(),
        tc in prop::sample::select(vec![
            TimeConstraints::none(),
            TimeConstraints::uniform_gap(TimeGap { min: 0, max: Some(4) }),
            TimeConstraints::with_max_window(6),
        ]),
        knobs in knobs(),
    ) {
        let db: Vec<TimedSequence> = rows
            .iter()
            .map(|r| {
                let mut time = 0;
                TimedSequence::new(
                    r.iter()
                        .map(|&(id, gap)| {
                            time += gap;
                            TimedEvent { symbol: symbol(id), time }
                        })
                        .collect(),
                )
            })
            .collect();
        let patterns: Vec<TimedPattern> = pats
            .iter()
            .map(|p| TimedPattern::new(plain(p), tc.clone()).unwrap())
            .collect();
        check(&db, &|| TimedDomain::<Sat64>::new(&patterns), knobs)?;
    }

    #[test]
    fn regex_domain_keeps_the_supporter_contract(
        rows in rows(),
        regexes in prop::collection::vec(
            prop::sample::select(vec!["a (b | c)", "a b+", "(a | b) c", "a [b c]+ a", "b b"]),
            1..=2,
        ),
        knobs in knobs(),
    ) {
        let db: Vec<Sequence> = rows.iter().map(|r| plain(r)).collect();
        let mut sigma = alphabet();
        let regexes: Vec<RegexPattern> = regexes
            .iter()
            .map(|r| RegexPattern::compile(r, &mut sigma).unwrap())
            .collect();
        check(&db, &|| RegexDomain::<Sat64>::new(&regexes), knobs)?;
    }

    #[test]
    fn string_domain_keeps_the_supporter_contract(
        rows in rows(),
        pats in pattern_ids(),
        op in prop::sample::select(vec![OpKind::Mark, OpKind::Delete, OpKind::Substitute]),
        knobs in knobs(),
    ) {
        let db: Vec<Sequence> = rows.iter().map(|r| plain(r)).collect();
        let patterns: Vec<StringPattern> =
            pats.iter().map(|p| StringPattern::new(plain(p)).unwrap()).collect();
        check(&db, &|| StringDomain::<Sat64>::new(&patterns, NAMES.len()).with_op(op), knobs)?;
    }
}

/// A [`PatternDomain`] that counts its `supports_pattern` calls into a
/// shared tally and delegates everything else.
struct Counting<'a, D> {
    inner: D,
    probes: &'a AtomicUsize,
}

impl<D: PatternDomain> PatternDomain for Counting<'_, D> {
    type Seq = D::Seq;
    type Count = D::Count;

    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn phase(&self) -> Phase {
        self.inner.phase()
    }
    fn progress_label(&self) -> &'static str {
        self.inner.progress_label()
    }
    fn pattern_count(&self) -> usize {
        self.inner.pattern_count()
    }
    fn supported_ops(&self) -> &'static [OpKind] {
        self.inner.supported_ops()
    }
    fn set_op(&mut self, op: OpKind) -> bool {
        self.inner.set_op(op)
    }
    fn is_supporter(&mut self, t: &D::Seq) -> bool {
        self.inner.is_supporter(t)
    }
    fn matching_size(&mut self, t: &D::Seq) -> D::Count {
        self.inner.matching_size(t)
    }
    fn seq_len(&self, t: &D::Seq) -> usize {
        self.inner.seq_len(t)
    }
    fn distinct_ratio(&self, t: &D::Seq) -> f64 {
        self.inner.distinct_ratio(t)
    }
    fn load(&mut self, t: &D::Seq) {
        self.inner.load(t)
    }
    fn argmax(&mut self, t: &mut D::Seq) -> Option<usize> {
        self.inner.argmax(t)
    }
    fn candidates(&mut self, t: &mut D::Seq) -> &[usize] {
        self.inner.candidates(t)
    }
    fn distort<R: Rng + ?Sized>(
        &mut self,
        t: &mut D::Seq,
        pos: usize,
        strategy: LocalStrategy,
        rng: &mut R,
    ) -> usize {
        self.inner.distort(t, pos, strategy, rng)
    }
    fn supports_pattern(&mut self, t: &D::Seq, k: usize) -> bool {
        self.probes.fetch_add(1, Relaxed);
        self.inner.supports_pattern(t, k)
    }
    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }
}

/// Three supporters of ⟨a c⟩ / ⟨b d⟩ among twelve sequences.
const DB: &str = "a b c\nd e\ne e\nb d\nd d\ne\nc a\nd c b\na e c\ne d\nc c\nb\n";

#[test]
fn residual_probes_only_supporters() {
    let mut sigma = alphabet();
    let db: Vec<Sequence> = DB.lines().map(|l| Sequence::parse(l, &mut sigma)).collect();
    let sh = SensitiveSet::new(vec![
        Sequence::parse("a c", &mut sigma),
        Sequence::parse("b d", &mut sigma),
    ]);
    let probes = AtomicUsize::new(0);
    let make = || Counting {
        inner: MatchEngine::<Sat64>::new(&sh),
        probes: &probes,
    };
    let bound = |supporters: usize| supporters * sh.len();

    for threads in [1, 3] {
        probes.store(0, Relaxed);
        let mut released = db.clone();
        let report = Sanitizer::hh(1)
            .with_threads(threads)
            .run_domain_threaded(&mut released, &make);
        assert_eq!(report.supporters_before, 3);
        assert!(
            probes.load(Relaxed) <= bound(3),
            "in memory, {threads} thread(s)"
        );
    }

    probes.store(0, Relaxed);
    let open = || -> io::Result<Box<dyn BufRead>> { Ok(Box::new(Cursor::new(DB))) };
    let mut stream_sigma = sigma.clone();
    let mut out = Vec::new();
    let streamed = Sanitizer::hh(1)
        .run_streaming_domain_from(&open, &mut stream_sigma, &PlainCodec, &make, 4, &mut out)
        .unwrap();
    assert_eq!(streamed.report.supporters_before, 3);
    assert!(probes.load(Relaxed) <= bound(3), "streamed");

    probes.store(0, Relaxed);
    let state = DeltaState::build(&Sanitizer::hh(1), &mut make(), db.clone());
    assert_eq!(state.report().supporters_before, 3);
    assert!(probes.load(Relaxed) <= bound(3), "delta build");
}
