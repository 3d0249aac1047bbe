//! Plain-text dataset IO.
//!
//! Format: one sequence per line, whitespace-separated symbol names; blank
//! lines and `#` comments ignored (the same format
//! [`SequenceDb::parse`] accepts). A deliberately boring format — diffable,
//! versionable, and loadable from any language — in place of a
//! serialization framework (see DESIGN.md §6).
//!
//! Representational limit shared by all three line formats: an **empty
//! sequence** renders as a blank line, which parsing skips — empty
//! sequences do not survive a text round-trip. Sanitization never creates
//! them (marking preserves length), so this only matters for hand-built
//! inputs.

use std::fs;
use std::io;
use std::path::Path;

use seqhide_types::{
    Alphabet, Itemset, ItemsetSequence, SequenceDb, Symbol, TimeTag, TimedEvent, TimedSequence,
};

/// Reads a database from a text file.
pub fn read_db(path: impl AsRef<Path>) -> io::Result<SequenceDb> {
    Ok(SequenceDb::parse(&fs::read_to_string(path)?))
}

/// Writes a database to a text file (marks render as `Δ`).
pub fn write_db(path: impl AsRef<Path>, db: &SequenceDb) -> io::Result<()> {
    fs::write(path, db.to_text())
}

/// Parses one (already trimmed, non-blank, non-comment) itemset-sequence
/// line: elements separated by whitespace, items within an element
/// separated by commas: `bread,milk beer` is `⟨{bread milk} {beer}⟩`.
/// `Δ` parses to a marked item slot.
pub fn parse_itemset_line(line: &str, alphabet: &mut Alphabet) -> ItemsetSequence {
    let elements = line
        .split_whitespace()
        .map(|elem| {
            Itemset::new(
                elem.split(',')
                    .filter(|w| !w.is_empty())
                    .map(|w| {
                        if w == "Δ" {
                            Symbol::MARK
                        } else {
                            alphabet.intern(w)
                        }
                    })
                    .collect(),
            )
        })
        .collect();
    ItemsetSequence::new(elements)
}

/// Writes one itemset sequence as a [`parse_itemset_line`]-format line
/// (including the trailing newline).
pub fn write_itemset_line(
    alphabet: &Alphabet,
    t: &ItemsetSequence,
    out: &mut dyn io::Write,
) -> io::Result<()> {
    for (i, e) in t.elements().iter().enumerate() {
        if i > 0 {
            out.write_all(b" ")?;
        }
        for (j, &s) in e.items().iter().enumerate() {
            if j > 0 {
                out.write_all(b",")?;
            }
            out.write_all(alphabet.label(s).as_bytes())?;
        }
    }
    out.write_all(b"\n")
}

/// Parses an itemset-sequence database ([`parse_itemset_line`] per line;
/// blank lines and `#` comments ignored).
pub fn parse_itemset_db(text: &str) -> (Alphabet, Vec<ItemsetSequence>) {
    let mut alphabet = Alphabet::new();
    let db = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| parse_itemset_line(line, &mut alphabet))
        .collect();
    (alphabet, db)
}

/// Renders an itemset-sequence database in the format accepted by
/// [`parse_itemset_db`].
pub fn itemset_db_to_text(alphabet: &Alphabet, db: &[ItemsetSequence]) -> String {
    let mut out = Vec::new();
    for t in db {
        write_itemset_line(alphabet, t, &mut out).expect("write to Vec cannot fail");
    }
    String::from_utf8(out).expect("symbol names are valid UTF-8")
}

/// Parses one (already trimmed, non-blank, non-comment) timed-sequence
/// line: events as `symbol@tick` tokens, `login@0 search@15`. `Δ@t`
/// parses to a marked event at tick `t`. `lineno` is the 1-based file
/// line number used in error messages.
pub fn parse_timed_line(
    lineno: usize,
    line: &str,
    alphabet: &mut Alphabet,
) -> io::Result<TimedSequence> {
    let mut events = Vec::new();
    for token in line.split_whitespace() {
        let (name, tick) = token.rsplit_once('@').ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {lineno}: token '{token}' is not symbol@tick"),
            )
        })?;
        if name.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {lineno}: empty symbol name in '{token}'"),
            ));
        }
        let time: TimeTag = tick.parse().map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {lineno}: bad tick in '{token}'"),
            )
        })?;
        let symbol = if name == "Δ" {
            Symbol::MARK
        } else {
            alphabet.intern(name)
        };
        events.push(TimedEvent { symbol, time });
    }
    if !events.windows(2).all(|w| w[0].time <= w[1].time) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line {lineno}: time tags must be non-decreasing"),
        ));
    }
    Ok(TimedSequence::new(events))
}

/// Writes one timed sequence as a [`parse_timed_line`]-format line
/// (including the trailing newline).
pub fn write_timed_line(
    alphabet: &Alphabet,
    t: &TimedSequence,
    out: &mut dyn io::Write,
) -> io::Result<()> {
    for (i, e) in t.events().iter().enumerate() {
        if i > 0 {
            out.write_all(b" ")?;
        }
        out.write_all(alphabet.label(e.symbol).as_bytes())?;
        write!(out, "@{}", e.time)?;
    }
    out.write_all(b"\n")
}

/// Parses a timed-sequence database ([`parse_timed_line`] per line; blank
/// lines and `#` comments ignored).
pub fn parse_timed_db(text: &str) -> io::Result<(Alphabet, Vec<TimedSequence>)> {
    let mut alphabet = Alphabet::new();
    let mut db = Vec::new();
    for (lineno, line) in text
        .lines()
        .map(str::trim)
        .enumerate()
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
    {
        db.push(parse_timed_line(lineno + 1, line, &mut alphabet)?);
    }
    Ok((alphabet, db))
}

/// Renders a timed-sequence database in the format accepted by
/// [`parse_timed_db`].
pub fn timed_db_to_text(alphabet: &Alphabet, db: &[TimedSequence]) -> String {
    let mut out = Vec::new();
    for t in db {
        write_timed_line(alphabet, t, &mut out).expect("write to Vec cannot fail");
    }
    String::from_utf8(out).expect("symbol names are valid UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_file() {
        let dir = std::env::temp_dir().join("seqhide-io-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.seq");
        let db = crate::random_db(11, 20, (1, 8), 9);
        write_db(&path, &db).unwrap();
        let back = read_db(&path).unwrap();
        assert_eq!(back.to_text(), db.to_text());
        assert_eq!(back.len(), db.len());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(read_db("/nonexistent/seqhide/file.seq").is_err());
    }

    #[test]
    fn itemset_db_roundtrip() {
        let (alphabet, db) = parse_itemset_db("bread,milk beer\n# note\ntea\n");
        assert_eq!(db.len(), 2);
        assert_eq!(db[0].len(), 2);
        assert_eq!(db[0].elements()[0].live_len(), 2);
        let text = itemset_db_to_text(&alphabet, &db);
        let (a2, db2) = parse_itemset_db(&text);
        assert_eq!(itemset_db_to_text(&a2, &db2), text);
    }

    #[test]
    fn itemset_marks_roundtrip() {
        let (alphabet, mut db) = parse_itemset_db("a,b c\n");
        let a = alphabet.get("a").unwrap();
        db[0].elements_mut()[0].mark_item(a);
        let text = itemset_db_to_text(&alphabet, &db);
        assert!(text.contains("Δ"));
        let (a2, db2) = parse_itemset_db(&text);
        assert_eq!(db2[0].mark_count(), 1);
        let _ = a2;
    }

    #[test]
    fn timed_db_roundtrip() {
        let (alphabet, db) = parse_timed_db("login@0 search@15 buy@99\nidle@3\n").unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(db[0].len(), 3);
        assert_eq!(db[0].time_at(1), 15);
        let text = timed_db_to_text(&alphabet, &db);
        let (a2, db2) = parse_timed_db(&text).unwrap();
        assert_eq!(timed_db_to_text(&a2, &db2), text);
    }

    #[test]
    fn timed_db_rejects_bad_input() {
        assert!(parse_timed_db("login search@5\n").is_err()); // missing @tick
        assert!(parse_timed_db("a@x\n").is_err()); // non-numeric tick
        assert!(parse_timed_db("a@9 b@3\n").is_err()); // decreasing time
        let empty = parse_timed_db("a@1 @5\n").unwrap_err(); // empty symbol name
        assert_eq!(empty.kind(), io::ErrorKind::InvalidData);
        assert!(empty.to_string().contains("line 1"), "{empty}");
        assert!(empty.to_string().contains("empty symbol name"), "{empty}");
    }

    #[test]
    fn timed_marks_roundtrip() {
        let (alphabet, mut db) = parse_timed_db("a@1 b@2\n").unwrap();
        db[0].mark(0);
        let text = timed_db_to_text(&alphabet, &db);
        assert!(text.starts_with("Δ@1"));
        let (_, db2) = parse_timed_db(&text).unwrap();
        assert_eq!(db2[0].mark_count(), 1);
        assert_eq!(db2[0].time_at(0), 1);
    }
}
