//! # seqhide-re
//!
//! Regular-expression sensitive patterns — the extension §8 of *Hiding
//! Sequences* (ICDE 2007) singles out as open work:
//!
//! > *"Patterns as arbitrary regular expressions (REs): the work presented
//! > in this paper is for a subclass of REs. It is a particular interest
//! > to search for how arbitrary REs can be used in this framework."*
//!
//! ## Semantics
//!
//! An **occurrence** of a regex `R` in a sequence `T` is a strictly
//! increasing tuple of positions `i₁ < … < i_k` whose symbols spell a word
//! of `L(R)`: `t_{i₁} … t_{i_k} ∈ L(R)`. This generalises the paper's
//! subsequence occurrences — a plain pattern `⟨s₁ … s_m⟩` is the regex
//! `s₁ s₂ … s_m` — and supports alternation, classes, wildcards and
//! repetition:
//!
//! ```text
//! X6Y3 (X7Y2 | X7Y3)        either exit cell
//! login . * checkout        any symbols between (subsequence gaps are
//!                           implicit anyway; `.` consumes a position)
//! a [b c]+ d                one or more b/c events between a and d
//! ```
//!
//! Patterns whose language contains the empty word are rejected — the
//! empty pattern occurs in every sequence and can never be hidden
//! (the same rule as [`seqhide_match::SensitivePattern`]).
//!
//! ## Counting
//!
//! The regex compiles through a Thompson NFA and subset construction into
//! a **DFA** over the pattern's *effective alphabet* (the symbols it
//! mentions plus an OTHER bucket). Determinism makes occurrence counting
//! unambiguous — each index tuple drives exactly one state path — so the
//! ending-exactly-at dynamic program of the base framework lifts directly:
//! `C[q][j]` counts tuples ending at `j` leaving the DFA in state `q`,
//! `O(n·|Q|)` with per-state prefix sums. Uniform min/max-gap and
//! max-window occurrence constraints (§5) apply unchanged, and `δ(T[i])`
//! uses the constraint-safe *marking* device, so the paper's HH machinery
//! works verbatim on regex patterns: [`RegexDomain`] is the pattern
//! class's `PatternDomain`, driven by `seqhide-core`'s `Sanitizer` like
//! every other class.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod count;
mod dfa;
mod hide;
mod parser;

pub use ast::{Ast, RegexError};
pub use count::{
    count_occurrences, delta_by_marking_re, delta_by_marking_re_into, matching_size_re, supports_re,
};
pub use dfa::Dfa;
pub use hide::RegexDomain;
pub use parser::parse;

use seqhide_match::{ConstraintSet, Gap};
use seqhide_types::Alphabet;

/// A compiled sensitive regex pattern with optional uniform occurrence
/// constraints.
#[derive(Clone, Debug)]
pub struct RegexPattern {
    ast: Ast,
    dfa: Dfa,
    gap: Gap,
    max_window: Option<usize>,
}

impl RegexPattern {
    /// Parses and compiles `pattern` against `alphabet` (symbols the
    /// pattern mentions are interned on demand).
    ///
    /// Errors on syntax errors and on nullable patterns (ε ∈ L(R)).
    ///
    /// ```
    /// use seqhide_types::{Alphabet, Sequence};
    /// use seqhide_re::{count_occurrences, RegexPattern};
    /// let mut sigma = Alphabet::new();
    /// let re = RegexPattern::compile("a (b | c)", &mut sigma).unwrap();
    /// let t = Sequence::parse("a b c", &mut sigma);
    /// assert_eq!(count_occurrences::<u64>(&re, &t), 2); // (a,b) and (a,c)
    /// assert!(RegexPattern::compile("a*", &mut sigma).is_err()); // nullable
    /// ```
    pub fn compile(pattern: &str, alphabet: &mut Alphabet) -> Result<Self, RegexError> {
        let ast = parse(pattern, alphabet)?;
        Self::from_ast(ast)
    }

    /// Compiles an already-built AST.
    pub fn from_ast(ast: Ast) -> Result<Self, RegexError> {
        if ast.nullable() {
            return Err(RegexError::Nullable);
        }
        let dfa = Dfa::compile(&ast);
        Ok(RegexPattern {
            ast,
            dfa,
            gap: Gap::any(),
            max_window: None,
        })
    }

    /// Adds a uniform gap constraint between consecutive matched positions.
    pub fn with_gap(mut self, gap: Gap) -> Self {
        self.gap = gap;
        self
    }

    /// Adds a max-window constraint on occurrences.
    pub fn with_max_window(mut self, ws: usize) -> Self {
        self.max_window = Some(ws);
        self
    }

    /// Applies the gap/window parts of a [`ConstraintSet`] (per-arrow gap
    /// vectors collapse to their single uniform entry; regex occurrences
    /// have no fixed arrow count).
    pub fn with_constraints(mut self, cs: &ConstraintSet) -> Self {
        self.gap = cs.gaps.first().copied().unwrap_or_else(Gap::any);
        self.max_window = cs.max_window;
        self
    }

    /// The compiled DFA.
    pub fn dfa(&self) -> &Dfa {
        &self.dfa
    }

    /// The parsed AST.
    pub fn ast(&self) -> &Ast {
        &self.ast
    }

    /// The uniform gap constraint.
    pub fn gap(&self) -> Gap {
        self.gap
    }

    /// The max-window constraint.
    pub fn max_window(&self) -> Option<usize> {
        self.max_window
    }
}
