//! Interning alphabet `Σ`.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use crate::Symbol;

/// The alphabet `Σ`: an interner mapping human-readable symbol names to
/// compact [`Symbol`] ids and back.
///
/// The paper's experiments discretize trajectories over a 10×10 grid, giving
/// an alphabet of 100 symbols named `X1Y1 … X10Y10`; web-log or clinical
/// applications would intern event names instead. Interning keeps the hot
/// dynamic programs working on dense `u32`s while the public API stays
/// string-friendly.
///
/// ```
/// use seqhide_types::Alphabet;
/// let mut sigma = Alphabet::new();
/// let a = sigma.intern("X6Y3");
/// let b = sigma.intern("X7Y2");
/// assert_ne!(a, b);
/// assert_eq!(sigma.intern("X6Y3"), a); // idempotent
/// assert_eq!(sigma.name(a), Some("X6Y3"));
/// assert_eq!(sigma.len(), 2);
/// ```
#[derive(Clone, Default)]
pub struct Alphabet {
    names: Vec<String>,
    ids: HashMap<String, Symbol>,
}

impl Alphabet {
    /// Creates an empty alphabet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an alphabet of `n` anonymous symbols named `s0 … s{n-1}`.
    ///
    /// Handy for synthetic workloads where names carry no meaning.
    pub fn anonymous(n: usize) -> Self {
        let mut a = Self::new();
        for i in 0..n {
            a.intern(&format!("s{i}"));
        }
        a
    }

    /// Interns `name`, returning its symbol (existing or freshly assigned).
    ///
    /// # Panics
    /// Panics if the alphabet would exceed [`Symbol::MAX_ID`] symbols, or if
    /// `name` is the reserved mark rendering `"Δ"`.
    pub fn intern(&mut self, name: &str) -> Symbol {
        assert!(
            name != "Δ",
            "the mark Δ is not part of Σ and cannot be interned"
        );
        if let Some(&s) = self.ids.get(name) {
            return s;
        }
        let id = u32::try_from(self.names.len()).expect("alphabet too large");
        let s = Symbol::new(id);
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), s);
        s
    }

    /// Looks up an already-interned name without inserting.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.ids.get(name).copied()
    }

    /// The name of `s`, or `None` for the mark and for foreign symbols.
    pub fn name(&self, s: Symbol) -> Option<&str> {
        if s.is_mark() {
            return None;
        }
        self.names.get(s.id() as usize).map(String::as_str)
    }

    /// Renders a symbol for display: its name, `"Δ"` for the mark, or the
    /// raw id if the symbol was interned elsewhere.
    pub fn render(&self, s: Symbol) -> String {
        self.label(s).into_owned()
    }

    /// [`Alphabet::render`] without the copy: the interned name or `"Δ"`
    /// borrowed, and only a foreign id formatted (as `s{id}`). Writers
    /// emit every symbol through this, so a release costs no allocation
    /// per symbol.
    pub fn label(&self, s: Symbol) -> Cow<'_, str> {
        if s.is_mark() {
            Cow::Borrowed("Δ")
        } else {
            self.name(s)
                .map_or_else(|| Cow::Owned(format!("s{}", s.id())), Cow::Borrowed)
        }
    }

    /// Number of interned symbols, `|Σ|`.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the alphabet is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all symbols in interning order.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        (0..self.names.len() as u32).map(Symbol::new)
    }
}

impl fmt::Debug for Alphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Alphabet({} symbols)", self.names.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_roundtrip() {
        let mut a = Alphabet::new();
        let x = a.intern("alpha");
        let y = a.intern("beta");
        assert_eq!(a.name(x), Some("alpha"));
        assert_eq!(a.name(y), Some("beta"));
        assert_eq!(a.get("alpha"), Some(x));
        assert_eq!(a.get("gamma"), None);
    }

    #[test]
    fn intern_is_idempotent() {
        let mut a = Alphabet::new();
        let x1 = a.intern("x");
        let x2 = a.intern("x");
        assert_eq!(x1, x2);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn anonymous_alphabet() {
        let a = Alphabet::anonymous(5);
        assert_eq!(a.len(), 5);
        assert_eq!(a.get("s3"), Some(Symbol::new(3)));
        let all: Vec<_> = a.symbols().collect();
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn render_mark_and_foreign() {
        let a = Alphabet::anonymous(1);
        assert_eq!(a.render(Symbol::MARK), "Δ");
        assert_eq!(a.render(Symbol::new(0)), "s0");
        assert_eq!(a.render(Symbol::new(99)), "s99"); // foreign id
        assert_eq!(a.name(Symbol::MARK), None);
    }

    #[test]
    fn label_borrows_all_but_foreign_ids() {
        let mut a = Alphabet::new();
        let x = a.intern("日本");
        assert!(matches!(a.label(x), Cow::Borrowed("日本")));
        assert!(matches!(a.label(Symbol::MARK), Cow::Borrowed("Δ")));
        assert!(matches!(a.label(Symbol::new(7)), Cow::Owned(ref s) if s == "s7"));
    }

    #[test]
    #[should_panic(expected = "cannot be interned")]
    fn mark_name_rejected() {
        Alphabet::new().intern("Δ");
    }

    #[test]
    fn empty_checks() {
        let a = Alphabet::new();
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
    }
}
