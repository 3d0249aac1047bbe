//! The [`PatternDomain`] trait: one sanitization core, many pattern classes.
//!
//! The paper's two-level heuristic (§4) is a single algorithm — locally,
//! mark the position with the largest `δ` until the matching set is empty;
//! globally, sort supporters ascending by matching-set size and sanitize
//! all but `ψ` — but the repo grew five copies of it, one per pattern
//! class (plain, itemset, timed, regex, spatiotemporal). What actually
//! varies between those copies is the *occurrence model*: how embeddings
//! are counted, how `δ` is obtained, what "distort this position" means,
//! and how support is re-checked afterwards. [`PatternDomain`] abstracts
//! exactly that surface, so `seqhide-core` keeps one local marking loop,
//! one victim-selection implementation, and one streaming driver, all
//! generic over the domain.
//!
//! The trait is deliberately **not object-safe** ([`PatternDomain::distort`]
//! is generic over the RNG): every caller is monomorphized, so the hot
//! marking loop pays no dynamic dispatch and the zero-per-mark-allocation
//! property of [`MatchEngine`] survives the abstraction.
//!
//! Two plain-pattern domains live here because their state is this crate's
//! own: [`MatchEngine`] itself (the incremental engine) and
//! [`ScratchDomain`] (the from-scratch oracle), plus
//! [`ItemsetMatchEngine`] for itemset sequences. The timed, regex, and
//! spatiotemporal domains live with their counting code in `seqhide-core`,
//! `seqhide-re`, and `seqhide-st`.

use rand::seq::IndexedRandom;
use rand::Rng;
use seqhide_num::Count;
use seqhide_obs::Phase;
use seqhide_types::{ItemsetSequence, OpKind, Sequence, Symbol};

use crate::counting::{count_matches, matching_size};
use crate::delta::{argmax_delta, delta_all};
use crate::engine::{EngineStats, ItemsetMatchEngine, MatchEngine};
use crate::itemset::{matching_size_itemset, supports_itemset};
use crate::pattern::SensitiveSet;
use crate::support::{all_present, supports};

/// How positions are chosen inside one sequence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LocalStrategy {
    /// The paper's local heuristic: *choose the marking position that is
    /// involved in most matches*, i.e. `argmax_i δ(T[i])`, iterated until
    /// the matching set is empty. Ties break to the smallest index.
    Heuristic,
    /// The random baseline (the first letter of RH/RR): a uniformly random
    /// *reasonable* position — one involved in at least one matching, as
    /// §6 specifies ("the random choice is actually performed only among
    /// reasonable choices").
    Random,
}

/// An occurrence model the generic sanitization core can drive.
///
/// One value of a `PatternDomain` carries the sensitive patterns plus any
/// scratch state (DP tables, δ buffers) and answers every question the
/// core layers ask:
///
/// * **global selection** — [`is_supporter`](PatternDomain::is_supporter),
///   [`matching_size`](PatternDomain::matching_size),
///   [`seq_len`](PatternDomain::seq_len),
///   [`distinct_ratio`](PatternDomain::distinct_ratio) feed the
///   supporter-statistics pass that victim selection sorts by;
/// * **local marking** — [`load`](PatternDomain::load),
///   [`argmax`](PatternDomain::argmax),
///   [`candidates`](PatternDomain::candidates),
///   [`distort`](PatternDomain::distort) drive the inner loop (Lemma 2/3
///   machinery for plain counts, Lemma 4/5 for gap/window constraints —
///   whichever the implementation needs);
/// * **verification** —
///   [`supports_pattern`](PatternDomain::supports_pattern) re-checks
///   residual support per pattern after sanitization; it must agree with
///   [`is_supporter`](PatternDomain::is_supporter) (the supporter
///   contract stated there).
///
/// # Statefulness contract
///
/// Stateful domains (the engines) key `argmax`/`candidates`/`distort` off
/// state built by [`load`](PatternDomain::load); stateless domains
/// recompute from `t` each call and ignore `load`. The driver therefore
/// always calls `load(t)` once before the marking loop, and passes the
/// *same* sequence to every subsequent call until the loop ends.
///
/// # Termination contract
///
/// Whenever `argmax`/`candidates` offer a position, `distort` at that
/// position must strictly decrease the total occurrence count and
/// introduce no new occurrences (marks match nothing — Theorem 1's
/// argument), so the marking loop terminates.
///
/// # Edit-operation contract
///
/// `distort` applies the operator family the domain was configured with
/// ([`set_op`](PatternDomain::set_op); `Mark` by default). The termination
/// contract binds **every** family: a `Delete` must never splice two
/// fragments into a fresh sensitive occurrence across the deletion
/// junction, and a `Substitute` must never choose a replacement symbol
/// that participates in one — when no safe edit exists at the chosen
/// position the domain falls back to `Mark`, which is always safe.
/// Deletion additionally shifts every later index, so any positional state
/// (δ buffers, prefix tables, gap distances) must be re-derived, not
/// repaired, after a delete; domains whose incremental repair assumes
/// stable positions advertise `Mark` only via
/// [`supported_ops`](PatternDomain::supported_ops).
pub trait PatternDomain {
    /// The sequence type this domain sanitizes.
    type Seq: Default + Send;
    /// The embedding-count arithmetic (saturating or exact).
    type Count: Count;

    /// Short stable domain name (`"plain"`, `"itemset"`, …) — keys
    /// human-readable output.
    fn name(&self) -> &'static str;

    /// The obs phase the domain's sanitization run is attributed to.
    fn phase(&self) -> Phase;

    /// The progress-bar label for this domain's victim loop.
    fn progress_label(&self) -> &'static str {
        "sanitize"
    }

    /// Number of sensitive patterns (arity of the residual-support
    /// vector).
    fn pattern_count(&self) -> usize;

    /// The operator families this domain can apply. The default is the
    /// paper's: Δ-marking only. Domains that re-derive their counts per
    /// edit and enforce the no-new-occurrence guard may advertise
    /// `Delete`/`Substitute` too.
    fn supported_ops(&self) -> &'static [OpKind] {
        &[OpKind::Mark]
    }

    /// Configures the operator family `distort` applies. Returns `false`
    /// (leaving the domain unchanged) when `op` is not in
    /// [`supported_ops`](PatternDomain::supported_ops) — callers surface
    /// that as a capability error, they do not fall back silently.
    fn set_op(&mut self, op: OpKind) -> bool {
        op == OpKind::Mark
    }

    /// Whether `t` supports at least one sensitive pattern. The default
    /// asks for the full count; implementations with a cheaper boolean
    /// check should override.
    ///
    /// **Supporter contract:** `is_supporter(t)` must equal
    /// `(0..pattern_count()).any(|k| supports_pattern(t, k))` for every
    /// `t`, marked or not. The core drivers count residual supports over
    /// the supporters only and count every other sequence as 0, so a
    /// domain that breaks this contract gets wrong residual supports.
    fn is_supporter(&mut self, t: &Self::Seq) -> bool {
        !self.matching_size(t).is_zero()
    }

    /// Total matching-set size of all patterns in `t` (the global
    /// `Heuristic` sort key).
    fn matching_size(&mut self, t: &Self::Seq) -> Self::Count;

    /// Sequence length (global `Length` sort key).
    fn seq_len(&self, t: &Self::Seq) -> usize;

    /// Unmarked-distinct-symbol ratio in `[0, 1]` (global
    /// `AutoCorrelation` sort key; 1.0 where the notion is degenerate —
    /// empty sequences, or domains without a symbol alphabet).
    fn distinct_ratio(&self, t: &Self::Seq) -> f64;

    /// Prepares per-sequence state for the marking loop. Stateless
    /// domains ignore this.
    fn load(&mut self, t: &Self::Seq) {
        let _ = t;
    }

    /// The position with the largest `δ` (ties to the smallest index), or
    /// `None` when no occurrence remains.
    fn argmax(&mut self, t: &mut Self::Seq) -> Option<usize>;

    /// The positions with `δ > 0`, ascending — the "reasonable choices"
    /// the random local strategy draws from.
    fn candidates(&mut self, t: &mut Self::Seq) -> &[usize];

    /// Distorts `t` at `pos` and repairs any incremental state, returning
    /// the number of distortions introduced (≥ 1). Domains with interior
    /// structure (itemset level-2 item marking, spatiotemporal
    /// displace-vs-suppress) use `strategy`/`rng` for their inner choice;
    /// flat domains ignore both.
    fn distort<R: Rng + ?Sized>(
        &mut self,
        t: &mut Self::Seq,
        pos: usize,
        strategy: LocalStrategy,
        rng: &mut R,
    ) -> usize;

    /// Whether `t` still supports sensitive pattern `k` (residual-support
    /// verification).
    fn supports_pattern(&mut self, t: &Self::Seq, k: usize) -> bool;

    /// Counting-engine health counters accumulated so far (zero for
    /// domains without an incremental engine).
    fn stats(&self) -> EngineStats {
        EngineStats::default()
    }
}

/// Unmarked-distinct-symbol ratio of a plain sequence (1.0 when empty).
fn plain_distinct_ratio(t: &Sequence) -> f64 {
    if t.is_empty() {
        return 1.0;
    }
    let mut syms: Vec<Symbol> = t.iter().filter(|s| !s.is_mark()).copied().collect();
    syms.sort_unstable();
    syms.dedup();
    syms.len() as f64 / t.len() as f64
}

/// Plain sequences driven by the incremental [`MatchEngine`]: tables
/// built once per victim, repaired per mark, zero per-mark allocations on
/// the unconstrained and gap-constrained paths.
impl<C: Count> PatternDomain for MatchEngine<C> {
    type Seq = Sequence;
    type Count = C;

    fn name(&self) -> &'static str {
        "plain"
    }

    fn phase(&self) -> Phase {
        Phase::Sanitize
    }

    fn pattern_count(&self) -> usize {
        self.sensitive_set().len()
    }

    fn is_supporter(&mut self, t: &Sequence) -> bool {
        self.sensitive_set().iter().any(|p| supports(t, p))
    }

    fn matching_size(&mut self, t: &Sequence) -> C {
        let mut total = C::zero();
        for p in self.sensitive_set().iter() {
            if all_present(p.seq().symbols(), t.symbols()) {
                total.add_assign(&count_matches::<C>(p, t));
            }
        }
        total
    }

    fn seq_len(&self, t: &Sequence) -> usize {
        t.len()
    }

    fn distinct_ratio(&self, t: &Sequence) -> f64 {
        plain_distinct_ratio(t)
    }

    fn load(&mut self, t: &Sequence) {
        MatchEngine::load(self, t);
    }

    fn argmax(&mut self, _t: &mut Sequence) -> Option<usize> {
        MatchEngine::argmax(self)
    }

    fn candidates(&mut self, _t: &mut Sequence) -> &[usize] {
        MatchEngine::candidates(self)
    }

    fn distort<R: Rng + ?Sized>(
        &mut self,
        t: &mut Sequence,
        pos: usize,
        _strategy: LocalStrategy,
        _rng: &mut R,
    ) -> usize {
        t.mark(pos);
        self.apply_mark(pos);
        1
    }

    fn supports_pattern(&mut self, t: &Sequence, k: usize) -> bool {
        supports(t, &self.sensitive_set().patterns()[k])
    }

    fn stats(&self) -> EngineStats {
        MatchEngine::stats(self)
    }
}

/// Plain sequences recounted from scratch every iteration — the original
/// pre-engine path, kept as the `--engine=scratch` escape hatch and the
/// oracle the incremental path is parity-tested against. Same choices,
/// same RNG consumption, only slower.
pub struct ScratchDomain<'a, C: Count> {
    sh: &'a SensitiveSet,
    delta: Vec<C>,
    candidates: Vec<usize>,
}

impl<'a, C: Count> ScratchDomain<'a, C> {
    /// A scratch domain over `sh`.
    pub fn new(sh: &'a SensitiveSet) -> Self {
        ScratchDomain {
            sh,
            delta: Vec::new(),
            candidates: Vec::new(),
        }
    }
}

impl<C: Count> PatternDomain for ScratchDomain<'_, C> {
    type Seq = Sequence;
    type Count = C;

    fn name(&self) -> &'static str {
        "plain"
    }

    fn phase(&self) -> Phase {
        Phase::Sanitize
    }

    fn pattern_count(&self) -> usize {
        self.sh.len()
    }

    fn is_supporter(&mut self, t: &Sequence) -> bool {
        self.sh.iter().any(|p| supports(t, p))
    }

    fn matching_size(&mut self, t: &Sequence) -> C {
        matching_size::<C>(self.sh, t)
    }

    fn seq_len(&self, t: &Sequence) -> usize {
        t.len()
    }

    fn distinct_ratio(&self, t: &Sequence) -> f64 {
        plain_distinct_ratio(t)
    }

    fn argmax(&mut self, t: &mut Sequence) -> Option<usize> {
        self.delta = delta_all::<C>(self.sh, t);
        argmax_delta(&self.delta)
    }

    fn candidates(&mut self, t: &mut Sequence) -> &[usize] {
        self.delta = delta_all::<C>(self.sh, t);
        self.candidates.clear();
        self.candidates
            .extend(self.delta.iter().enumerate().filter_map(|(i, d)| {
                if d.is_zero() {
                    None
                } else {
                    Some(i)
                }
            }));
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
        supports(t, &self.sh.patterns()[k])
    }
}

/// Itemset sequences driven by [`ItemsetMatchEngine`]. A "position" is a
/// level-1 element index; [`distort`](PatternDomain::distort) runs the
/// level-2 inner loop, marking individual items inside the chosen element
/// until that element's `δ` drops to zero, so collateral damage stays
/// item-granular (§7's two-level refinement).
impl<C: Count> PatternDomain for ItemsetMatchEngine<C> {
    type Seq = ItemsetSequence;
    type Count = C;

    fn name(&self) -> &'static str {
        "itemset"
    }

    fn phase(&self) -> Phase {
        Phase::ItemsetSanitize
    }

    fn progress_label(&self) -> &'static str {
        "sanitize (itemset)"
    }

    fn pattern_count(&self) -> usize {
        self.patterns().len()
    }

    fn is_supporter(&mut self, t: &ItemsetSequence) -> bool {
        self.patterns().iter().any(|p| supports_itemset(t, p))
    }

    fn matching_size(&mut self, t: &ItemsetSequence) -> C {
        matching_size_itemset::<C>(self.patterns(), t)
    }

    fn seq_len(&self, t: &ItemsetSequence) -> usize {
        t.len()
    }

    fn distinct_ratio(&self, t: &ItemsetSequence) -> f64 {
        let total: usize = t.elements().iter().map(|e| e.items().len()).sum();
        if total == 0 {
            return 1.0;
        }
        let mut items: Vec<Symbol> = t.elements().iter().flat_map(|e| e.live_items()).collect();
        items.sort_unstable();
        items.dedup();
        items.len() as f64 / total as f64
    }

    fn load(&mut self, t: &ItemsetSequence) {
        ItemsetMatchEngine::load(self, t);
    }

    fn argmax(&mut self, _t: &mut ItemsetSequence) -> Option<usize> {
        ItemsetMatchEngine::argmax(self)
    }

    fn candidates(&mut self, _t: &mut ItemsetSequence) -> &[usize] {
        ItemsetMatchEngine::candidates(self)
    }

    fn distort<R: Rng + ?Sized>(
        &mut self,
        t: &mut ItemsetSequence,
        elem: usize,
        strategy: LocalStrategy,
        rng: &mut R,
    ) -> usize {
        let mut marks = 0;
        loop {
            // Level 2: which item inside the chosen element to mark.
            let live: Vec<Symbol> = t.elements()[elem].live_items().collect();
            let item = match strategy {
                LocalStrategy::Heuristic => {
                    let mut best: Option<(Symbol, C)> = None;
                    for &item in &live {
                        let d = self.item_delta(t, elem, item);
                        if d.is_zero() {
                            continue;
                        }
                        match best {
                            Some((_, ref bd)) if d <= *bd => {}
                            _ => best = Some((item, d)),
                        }
                    }
                    best.map(|(item, _)| item)
                }
                LocalStrategy::Random => {
                    let candidates: Vec<Symbol> = live
                        .iter()
                        .copied()
                        .filter(|&item| !self.item_delta(t, elem, item).is_zero())
                        .collect();
                    candidates.choose(rng).copied()
                }
            };
            let Some(item) = item else {
                break;
            };
            t.elements_mut()[elem].mark_item(item);
            marks += 1;
            self.refresh_element(t, elem);
            if self.delta()[elem].is_zero() {
                break;
            }
        }
        marks
    }

    fn supports_pattern(&mut self, t: &ItemsetSequence, k: usize) -> bool {
        supports_itemset(t, &self.patterns()[k])
    }

    fn stats(&self) -> EngineStats {
        ItemsetMatchEngine::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use seqhide_num::Sat64;
    use seqhide_types::Alphabet;

    fn setup() -> (SensitiveSet, Sequence, Alphabet) {
        let mut sigma = Alphabet::new();
        let s = Sequence::parse("a b c", &mut sigma);
        let t = Sequence::parse("a a b c c b a e", &mut sigma);
        (SensitiveSet::new(vec![s]), t, sigma)
    }

    /// The engine domain and the scratch domain must agree on every
    /// question the driver asks.
    #[test]
    fn engine_and_scratch_domains_agree() {
        let (sh, mut t, _) = setup();
        let mut eng = MatchEngine::<Sat64>::new(&sh);
        let mut scr = ScratchDomain::<Sat64>::new(&sh);
        assert_eq!(eng.name(), scr.name());
        assert_eq!(
            PatternDomain::pattern_count(&eng),
            PatternDomain::pattern_count(&scr)
        );
        assert_eq!(
            PatternDomain::is_supporter(&mut eng, &t),
            PatternDomain::is_supporter(&mut scr, &t)
        );
        assert_eq!(
            PatternDomain::matching_size(&mut eng, &t),
            PatternDomain::matching_size(&mut scr, &t)
        );
        PatternDomain::load(&mut eng, &t);
        let mut t2 = t.clone();
        assert_eq!(
            PatternDomain::argmax(&mut eng, &mut t),
            PatternDomain::argmax(&mut scr, &mut t2)
        );
        assert_eq!(
            PatternDomain::candidates(&mut eng, &mut t).to_vec(),
            PatternDomain::candidates(&mut scr, &mut t2).to_vec()
        );
    }

    #[test]
    fn plain_distort_marks_and_repairs() {
        let (sh, mut t, _) = setup();
        let mut eng = MatchEngine::<Sat64>::new(&sh);
        PatternDomain::load(&mut eng, &t);
        let mut rng = SmallRng::seed_from_u64(0);
        let pos = PatternDomain::argmax(&mut eng, &mut t).unwrap();
        let n = eng.distort(&mut t, pos, LocalStrategy::Heuristic, &mut rng);
        assert_eq!(n, 1);
        assert!(t[pos].is_mark());
        // marking the paper's b kills every occurrence at once
        assert_eq!(PatternDomain::argmax(&mut eng, &mut t), None);
        assert!(!PatternDomain::supports_pattern(&mut eng, &t, 0));
    }

    /// All domains in this crate keep the paper's operator model: Δ-mark
    /// only, and `set_op` refuses anything else without mutating state.
    #[test]
    fn mark_only_domains_reject_edit_ops() {
        let (sh, _, _) = setup();
        let mut eng = MatchEngine::<Sat64>::new(&sh);
        assert_eq!(PatternDomain::supported_ops(&eng), &[OpKind::Mark]);
        assert!(eng.set_op(OpKind::Mark));
        assert!(!eng.set_op(OpKind::Delete));
        assert!(!eng.set_op(OpKind::Substitute));
        let mut scr = ScratchDomain::<Sat64>::new(&sh);
        assert!(!scr.set_op(OpKind::Delete));
    }

    #[test]
    fn distinct_ratio_matches_global_strategy_semantics() {
        let mut sigma = Alphabet::new();
        let varied = Sequence::parse("a b c d", &mut sigma);
        let repetitive = Sequence::parse("a a a b", &mut sigma);
        let sh = SensitiveSet::new(vec![Sequence::parse("a b", &mut sigma)]);
        let eng = MatchEngine::<Sat64>::new(&sh);
        assert_eq!(eng.distinct_ratio(&varied), 1.0);
        assert_eq!(eng.distinct_ratio(&repetitive), 0.5);
        assert_eq!(eng.distinct_ratio(&Sequence::default()), 1.0);
    }
}
