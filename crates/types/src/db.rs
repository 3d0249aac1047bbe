//! The sequence database `D`.

use std::fmt;

use crate::{Alphabet, Sequence};

/// A database `D` of sequences together with its alphabet `Σ`.
///
/// `D` is the object the sanitization problem transforms: the sanitizer
/// consumes a `SequenceDb` and produces the released database `D'` (same
/// type; marked positions carry [`Symbol::MARK`](crate::Symbol::MARK)).
#[derive(Clone, Default)]
pub struct SequenceDb {
    alphabet: Alphabet,
    sequences: Vec<Sequence>,
}

/// Summary statistics of a database, mirroring how the paper characterises
/// its datasets (size, average length, alphabet size).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DbStats {
    /// Number of sequences `|D|`.
    pub len: usize,
    /// Total number of symbol occurrences across all sequences.
    pub total_symbols: usize,
    /// Average sequence length (0.0 for an empty database).
    pub avg_len: f64,
    /// Maximum sequence length.
    pub max_len: usize,
    /// Alphabet size `|Σ|`.
    pub alphabet_len: usize,
    /// Total number of marked (`Δ`) positions — the distortion measure M1.
    pub marks: usize,
}

impl SequenceDb {
    /// Creates an empty database over `alphabet`.
    pub fn new(alphabet: Alphabet) -> Self {
        SequenceDb {
            alphabet,
            sequences: Vec::new(),
        }
    }

    /// Creates a database from parts.
    pub fn from_parts(alphabet: Alphabet, sequences: Vec<Sequence>) -> Self {
        SequenceDb {
            alphabet,
            sequences,
        }
    }

    /// Parses a database from one whitespace-separated sequence per line.
    /// Blank lines and lines starting with `#` are skipped.
    ///
    /// ```
    /// use seqhide_types::SequenceDb;
    /// let db = SequenceDb::parse("a b c\n# comment\nb c\n");
    /// assert_eq!(db.len(), 2);
    /// ```
    pub fn parse(text: &str) -> Self {
        let mut alphabet = Alphabet::new();
        let sequences = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| Sequence::parse(l, &mut alphabet))
            .collect();
        SequenceDb {
            alphabet,
            sequences,
        }
    }

    /// Splits the database into its alphabet and sequences, without
    /// copying either.
    pub fn into_parts(self) -> (Alphabet, Vec<Sequence>) {
        (self.alphabet, self.sequences)
    }

    /// Appends a sequence.
    pub fn push(&mut self, t: Sequence) {
        self.sequences.push(t);
    }

    /// Number of sequences `|D|`.
    pub fn len(&self) -> usize {
        self.sequences.len()
    }

    /// Whether `D` is empty.
    pub fn is_empty(&self) -> bool {
        self.sequences.is_empty()
    }

    /// The sequences of `D`.
    pub fn sequences(&self) -> &[Sequence] {
        &self.sequences
    }

    /// Mutable access to the sequences (used by sanitizers).
    pub fn sequences_mut(&mut self) -> &mut [Sequence] {
        &mut self.sequences
    }

    /// The alphabet `Σ`.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Mutable access to the alphabet (for incremental loading).
    pub fn alphabet_mut(&mut self) -> &mut Alphabet {
        &mut self.alphabet
    }

    /// Total number of marked positions across all sequences (measure M1).
    pub fn total_marks(&self) -> usize {
        self.sequences.iter().map(Sequence::mark_count).sum()
    }

    /// Computes summary statistics.
    pub fn stats(&self) -> DbStats {
        let total: usize = self.sequences.iter().map(Sequence::len).sum();
        let max = self.sequences.iter().map(Sequence::len).max().unwrap_or(0);
        DbStats {
            len: self.sequences.len(),
            total_symbols: total,
            avg_len: if self.sequences.is_empty() {
                0.0
            } else {
                total as f64 / self.sequences.len() as f64
            },
            max_len: max,
            alphabet_len: self.alphabet.len(),
            marks: self.total_marks(),
        }
    }

    /// Serialises to the same plain-text format accepted by
    /// [`SequenceDb::parse`] (marks render as `Δ` and parse back to the
    /// mark, so sanitized databases round-trip; consumers treat `Δ` as a
    /// missing value, as §4 of the paper suggests).
    pub fn to_text(&self) -> String {
        // Sized exactly up front: a buffer grown by doubling can hold
        // almost twice the release at its peak.
        let len = self
            .sequences
            .iter()
            .map(|t| {
                let names: usize = t.iter().map(|&s| self.alphabet.label(s).len()).sum();
                names + t.len().max(1)
            })
            .sum();
        let mut out = String::with_capacity(len);
        for t in &self.sequences {
            for (i, &s) in t.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(&self.alphabet.label(s));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Debug for SequenceDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SequenceDb(|D|={}, |Σ|={})",
            self.sequences.len(),
            self.alphabet.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_skips_comments_and_blanks() {
        let db = SequenceDb::parse("# header\n\na b\nb c d\n  \n");
        assert_eq!(db.len(), 2);
        assert_eq!(db.sequences()[1].len(), 3);
        assert_eq!(db.alphabet().len(), 4);
    }

    #[test]
    fn stats_on_empty_db() {
        let db = SequenceDb::new(Alphabet::new());
        let s = db.stats();
        assert_eq!(s.len, 0);
        assert_eq!(s.avg_len, 0.0);
        assert_eq!(s.max_len, 0);
    }

    #[test]
    fn stats_counts() {
        let mut db = SequenceDb::parse("a b c\na a\n");
        db.sequences_mut()[0].mark(1);
        let s = db.stats();
        assert_eq!(s.len, 2);
        assert_eq!(s.total_symbols, 5);
        assert!((s.avg_len - 2.5).abs() < 1e-12);
        assert_eq!(s.max_len, 3);
        assert_eq!(s.marks, 1);
        assert_eq!(db.total_marks(), 1);
    }

    #[test]
    fn text_roundtrip_without_marks() {
        let db = SequenceDb::parse("a b\nc\n");
        let text = db.to_text();
        let db2 = SequenceDb::parse(&text);
        assert_eq!(db2.len(), db.len());
        assert_eq!(db2.to_text(), text);
    }

    #[test]
    fn marks_render_in_text() {
        let mut db = SequenceDb::parse("a b\n");
        db.sequences_mut()[0].mark(0);
        assert_eq!(db.to_text(), "Δ b\n");
    }

    #[test]
    fn marked_db_roundtrips_through_text() {
        let mut db = SequenceDb::parse("a b c\nb c\n");
        db.sequences_mut()[0].mark(1);
        let back = SequenceDb::parse(&db.to_text());
        assert_eq!(back.total_marks(), 1);
        assert!(back.sequences()[0][1].is_mark());
        assert_eq!(back.to_text(), db.to_text());
    }
}
