//! [`StringDomain`]: hiding contiguous substrings by edit operations.
//!
//! An occurrence of a sensitive substring `P` in `T` is a position `i`
//! with `T[i .. i+|P|] = P` — contiguous, unlike the paper's subsequence
//! embeddings. The domain counts occurrences with one Aho–Corasick pass
//! over the sensitive set, defines `δ(T[i])` as the number of occurrences
//! *covering* position `i`, and sanitizes with whichever operator family
//! the run is configured with ([`OpKind`]):
//!
//! * **Mark** — the paper's Δ; always safe (Δ matches nothing).
//! * **Delete** — remove the element. Deletion makes its two neighbours
//!   adjacent, which can splice a *new* sensitive occurrence across the
//!   junction (the resurrection hazard of Bernardini et al.,
//!   arXiv:1906.11030, and Mieno et al., arXiv:2007.08179). A delete that
//!   would do so is refused and the position is marked instead.
//! * **Substitute** — replace with another alphabet symbol, tried in
//!   ascending interned-id order; the first symbol under which no
//!   occurrence covers the position is taken (TFS/MCSR-style: the edit
//!   must not *create* sensitive occurrences), falling back to Δ when
//!   every symbol would.
//!
//! Under all three families each edit removes every occurrence covering
//! the chosen position and creates none, so the occurrence count strictly
//! decreases — the [`PatternDomain`] termination contract holds and the
//! generic two-level sanitizer (local argmax-δ loop, global ascending
//! selection, streaming two-pass) drives this domain unchanged.

use rand::Rng;
use seqhide_match::{EngineStats, LocalStrategy, PatternDomain};
use seqhide_num::{Count, Sat64};
use seqhide_obs::Phase;
use seqhide_types::{DistortOp, EditJournal, OpKind, Sequence, Symbol};

use crate::ac::AhoCorasick;

/// Why a substring pattern is invalid.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StringPatternError {
    /// The empty substring occurs everywhere and cannot be hidden.
    Empty,
    /// Patterns must be mark-free: `Δ` matches nothing, so a pattern
    /// containing it has no occurrences to hide.
    ContainsMark,
}

impl std::fmt::Display for StringPatternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StringPatternError::Empty => write!(f, "empty substring pattern"),
            StringPatternError::ContainsMark => {
                write!(f, "substring patterns cannot contain the mark Δ")
            }
        }
    }
}

/// A validated sensitive substring: non-empty, mark-free.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StringPattern {
    seq: Sequence,
}

impl StringPattern {
    /// Validates `seq` as a sensitive substring.
    pub fn new(seq: Sequence) -> Result<Self, StringPatternError> {
        if seq.is_empty() {
            return Err(StringPatternError::Empty);
        }
        if seq.has_marks() {
            return Err(StringPatternError::ContainsMark);
        }
        Ok(StringPattern { seq })
    }

    /// The underlying symbol sequence.
    pub fn seq(&self) -> &Sequence {
        &self.seq
    }
}

/// The contiguous-substring [`PatternDomain`].
///
/// Construction needs the alphabet *size* (`sigma_len`) because the
/// substitution family enumerates replacement candidates in ascending
/// interned-id order — which makes intern order part of the byte-parity
/// contract, exactly like the itemset domain's id tie-breaks: the
/// streaming CLI replays the database's intern order with a bounded
/// pre-pass before parsing patterns.
pub struct StringDomain<'a, C: Count = Sat64> {
    patterns: &'a [StringPattern],
    ac: AhoCorasick,
    sigma_len: usize,
    op: OpKind,
    delta: Vec<u64>,
    candidates: Vec<usize>,
    window: Vec<Symbol>,
    /// Every edit applied through this domain value, in application order.
    pub journal: EditJournal,
    _count: std::marker::PhantomData<C>,
}

impl<'a, C: Count> StringDomain<'a, C> {
    /// A domain over `patterns`, substituting from an alphabet of
    /// `sigma_len` symbols, applying Δ-marks until
    /// [`set_op`](PatternDomain::set_op) configures another family.
    pub fn new(patterns: &'a [StringPattern], sigma_len: usize) -> Self {
        let ac = AhoCorasick::new(patterns.iter().map(|p| p.seq.symbols()));
        StringDomain {
            patterns,
            ac,
            sigma_len,
            op: OpKind::Mark,
            delta: Vec::new(),
            candidates: Vec::new(),
            window: Vec::new(),
            journal: EditJournal::new(),
            _count: std::marker::PhantomData,
        }
    }

    /// Builder form of [`set_op`](PatternDomain::set_op) — all three
    /// families are supported, so this cannot fail.
    pub fn with_op(mut self, op: OpKind) -> Self {
        self.op = op;
        self
    }

    /// The configured operator family.
    pub fn op(&self) -> OpKind {
        self.op
    }

    /// Recomputes `delta[i]` = number of occurrences covering position `i`.
    fn recompute_delta(&mut self, t: &Sequence) {
        self.delta.clear();
        self.delta.resize(t.len(), 0);
        let delta = &mut self.delta;
        self.ac.for_each_occurrence(t.symbols(), |_, s, e| {
            for d in &mut delta[s..=e] {
                *d += 1;
            }
        });
    }

    /// The window of `t` (with `pos` edited per `replace`, or removed when
    /// `replace` is `None`) that any occurrence through the edit site must
    /// lie in: `max_len − 1` context symbols each side.
    fn fill_window(&mut self, t: &Sequence, pos: usize, replace: Option<Symbol>) -> usize {
        let ctx = self.ac.max_len().saturating_sub(1);
        let ws = pos.saturating_sub(ctx);
        let we = (pos + ctx + 1).min(t.len());
        self.window.clear();
        for (i, &sym) in t.symbols()[ws..we].iter().enumerate() {
            if ws + i == pos {
                // `replace == None` is a deletion: the element is dropped.
                if let Some(s) = replace {
                    self.window.push(s);
                }
            } else {
                self.window.push(sym);
            }
        }
        ws
    }

    /// Whether deleting `t[pos]` splices a sensitive occurrence across the
    /// junction between its two neighbours. Occurrences wholly on one side
    /// of the junction existed before the delete, so only spanning ones
    /// are new — any one of them makes the delete unsafe.
    fn delete_is_safe(&mut self, t: &Sequence, pos: usize) -> bool {
        let ws = self.fill_window(t, pos, None);
        // In post-delete indices the junction sits between pos−1 and pos;
        // relative to the window it is between jr−1 and jr.
        let jr = pos - ws;
        let mut safe = true;
        self.ac.for_each_occurrence(&self.window, |_, s, e| {
            if s < jr && e >= jr {
                safe = false;
            }
        });
        safe
    }

    /// The first alphabet symbol (ascending id, skipping the original)
    /// under which no occurrence covers `pos`, or `None` if every symbol
    /// would create or keep one.
    fn safe_substitution(&mut self, t: &Sequence, pos: usize) -> Option<Symbol> {
        let original = t[pos];
        for id in 0..self.sigma_len as u32 {
            let cand = Symbol::new(id);
            if cand == original {
                continue;
            }
            let ws = self.fill_window(t, pos, Some(cand));
            let jr = pos - ws;
            let mut covered = false;
            self.ac.for_each_occurrence(&self.window, |_, s, e| {
                if s <= jr && e >= jr {
                    covered = true;
                }
            });
            if !covered {
                return Some(cand);
            }
        }
        None
    }
}

impl<C: Count> PatternDomain for StringDomain<'_, C> {
    type Seq = Sequence;
    type Count = C;

    fn name(&self) -> &'static str {
        "string"
    }

    fn phase(&self) -> Phase {
        Phase::StringSanitize
    }

    fn progress_label(&self) -> &'static str {
        "sanitize (string)"
    }

    fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    fn matching_size(&mut self, t: &Sequence) -> C {
        C::from_u64(self.ac.count_occurrences(t.symbols()))
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

    fn supported_ops(&self) -> &'static [OpKind] {
        &[OpKind::Mark, OpKind::Delete, OpKind::Substitute]
    }

    fn set_op(&mut self, op: OpKind) -> bool {
        self.op = op;
        true
    }

    fn argmax(&mut self, t: &mut Sequence) -> Option<usize> {
        self.recompute_delta(t);
        let mut best: Option<(usize, u64)> = None;
        for (i, &d) in self.delta.iter().enumerate() {
            if d > 0 && best.is_none_or(|(_, bd)| d > bd) {
                best = Some((i, d));
            }
        }
        best.map(|(i, _)| i)
    }

    fn candidates(&mut self, t: &mut Sequence) -> &[usize] {
        self.recompute_delta(t);
        self.candidates.clear();
        self.candidates.extend(
            self.delta
                .iter()
                .enumerate()
                .filter_map(|(i, &d)| (d > 0).then_some(i)),
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
        let applied = match self.op {
            OpKind::Mark => {
                t.mark(pos);
                DistortOp::Mark
            }
            OpKind::Delete => {
                if self.delete_is_safe(t, pos) {
                    t.delete(pos);
                    DistortOp::Delete
                } else {
                    t.mark(pos);
                    DistortOp::Mark
                }
            }
            OpKind::Substitute => match self.safe_substitution(t, pos) {
                Some(sym) => {
                    t.set(pos, sym);
                    DistortOp::Substitute(sym)
                }
                None => {
                    t.mark(pos);
                    DistortOp::Mark
                }
            },
        };
        self.journal.record(pos, applied);
        1
    }

    fn supports_pattern(&mut self, t: &Sequence, k: usize) -> bool {
        let mut found = false;
        self.ac.for_each_occurrence(t.symbols(), |p, _, _| {
            if p == k {
                found = true;
            }
        });
        found
    }

    fn stats(&self) -> EngineStats {
        EngineStats::default()
    }
}
