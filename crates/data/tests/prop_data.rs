//! Property tests for the data substrate: grid discretization geometry,
//! generator invariants, IO round-trips.

use proptest::prelude::*;
use seqhide_data::{io, markov_db, random_db, zipf_db, Grid};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Every point maps into a valid cell, and the cell's own centre maps
    /// back to it (the discretization is a partition).
    #[test]
    fn grid_partitions_the_square(
        nx in 1usize..12,
        ny in 1usize..12,
        x in 0.0f64..1.0,
        y in 0.0f64..1.0,
    ) {
        let g = Grid::new(nx, ny);
        let (i, j) = g.cell_of((x, y));
        prop_assert!((1..=nx).contains(&i) && (1..=ny).contains(&j));
        prop_assert_eq!(g.cell_of(g.cell_center(i, j)), (i, j));
    }

    /// Discretization collapses consecutive stays: no two adjacent symbols
    /// are equal, and every symbol names the cell of some sample.
    #[test]
    fn discretize_collapses_and_covers(
        points in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..=30),
    ) {
        let g = Grid::paper();
        let alphabet = g.alphabet();
        let seq = g.discretize(&points, &alphabet);
        prop_assert!(seq.len() <= points.len());
        for w in seq.symbols().windows(2) {
            prop_assert_ne!(w[0], w[1]);
        }
        let visited: Vec<String> = points
            .iter()
            .map(|&p| {
                let (i, j) = g.cell_of(p);
                Grid::cell_name(i, j)
            })
            .collect();
        for &s in seq.symbols() {
            prop_assert!(visited.contains(&alphabet.render(s)));
        }
    }

    /// Generators are seed-deterministic and shape-correct.
    #[test]
    fn generators_respect_shape(
        seed in 0u64..50,
        n in 1usize..40,
        lo in 0usize..6,
        extra in 0usize..6,
        alpha in 1usize..20,
    ) {
        let range = (lo, lo + extra);
        for db in [
            random_db(seed, n, range, alpha),
            zipf_db(seed, n, range, alpha, 1.1),
            markov_db(seed, n, range, alpha, 0.8),
        ] {
            prop_assert_eq!(db.len(), n);
            prop_assert_eq!(db.alphabet().len(), alpha);
            for t in db.sequences() {
                prop_assert!((range.0..=range.1).contains(&t.len()));
                prop_assert!(t.iter().all(|s| (s.id() as usize) < alpha));
            }
        }
        prop_assert_eq!(
            markov_db(seed, n, range, alpha, 0.8).to_text(),
            markov_db(seed, n, range, alpha, 0.8).to_text()
        );
    }

    /// Plain-text IO round-trips arbitrary generated databases.
    #[test]
    fn io_roundtrip(seed in 0u64..50, n in 1usize..20) {
        let db = markov_db(seed, n, (1, 8), 9, 0.6);
        let dir = std::env::temp_dir().join("seqhide-prop-io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("db-{seed}-{n}.seq"));
        io::write_db(&path, &db).unwrap();
        let back = io::read_db(&path).unwrap();
        prop_assert_eq!(back.to_text(), db.to_text());
        std::fs::remove_file(path).unwrap();
    }

    /// Timed-format IO round-trips arbitrary event sequences.
    #[test]
    fn timed_io_roundtrip(
        rows in prop::collection::vec(
            prop::collection::vec((0u32..6, 0u64..50), 0..=8), 0..=6),
    ) {
        use seqhide_types::TimedSequence;
        let mut db: Vec<TimedSequence> = Vec::new();
        let mut alphabet = seqhide_types::Alphabet::anonymous(6);
        for mut evs in rows {
            if evs.is_empty() {
                continue; // empty sequences are not representable in text
            }
            evs.sort_by_key(|&(_, t)| t);
            db.push(TimedSequence::from_pairs(evs));
        }
        let text = io::timed_db_to_text(&alphabet, &db);
        let (a2, db2) = io::parse_timed_db(&text).unwrap();
        prop_assert_eq!(io::timed_db_to_text(&a2, &db2), text);
        let _ = &mut alphabet;
    }
}

// ───────────────────────── writer bytes ─────────────────────────

/// An alphabet with multi-byte names; ids `0..4` are interned, `4` and
/// `5` are foreign, and `6` is drawn as `Δ`.
fn names_alphabet() -> seqhide_types::Alphabet {
    let mut sigma = seqhide_types::Alphabet::new();
    for name in ["a", "日本", "Δx", "ünïcødé"] {
        sigma.intern(name);
    }
    sigma
}

fn symbol(id: u32) -> seqhide_types::Symbol {
    if id == 6 {
        seqhide_types::Symbol::MARK
    } else {
        seqhide_types::Symbol::new(id)
    }
}

/// The writers' former formulation, kept as the oracle: each symbol
/// rendered to a fresh `String`, the pieces joined.
fn joined(sigma: &seqhide_types::Alphabet, syms: &[seqhide_types::Symbol], sep: &str) -> String {
    syms.iter()
        .map(|&s| sigma.render(s))
        .collect::<Vec<_>>()
        .join(sep)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Every writer emits exactly the join-of-render bytes, for empty
    /// sequences, marks, multi-byte names and foreign ids alike.
    #[test]
    fn writers_emit_the_joined_render_bytes(
        rows in prop::collection::vec(prop::collection::vec(0u32..7, 0..=6), 0..=5),
        groups in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0u32..7, 1..=3), 0..=4), 0..=4),
        ticks in prop::collection::vec(0u64..1000, 0..=6),
    ) {
        use seqhide_data::stream::{PlainCodec, SeqWriter, StreamCodec};
        use seqhide_types::{ItemsetSequence, Itemset, Sequence, SequenceDb, TimedEvent, TimedSequence};
        let sigma = names_alphabet();
        let seqs: Vec<Sequence> =
            rows.iter().map(|r| r.iter().map(|&id| symbol(id)).collect()).collect();
        let expected: String = seqs
            .iter()
            .map(|t| joined(&sigma, t.symbols(), " ") + "\n")
            .collect();
        let db = SequenceDb::from_parts(sigma.clone(), seqs.clone());
        prop_assert_eq!(db.to_text(), expected.clone());
        let mut codec_out = Vec::new();
        let mut writer = SeqWriter::new(Vec::new());
        for t in &seqs {
            PlainCodec.write_line(&sigma, t, &mut codec_out).unwrap();
            writer.write_seq(&sigma, t).unwrap();
        }
        prop_assert_eq!(String::from_utf8(codec_out).unwrap(), expected.clone());
        prop_assert_eq!(String::from_utf8(writer.into_inner()).unwrap(), expected);

        for g in &groups {
            let t = ItemsetSequence::new(
                g.iter().map(|e| Itemset::new(e.iter().map(|&id| symbol(id)).collect())).collect(),
            );
            let want = t
                .elements()
                .iter()
                .map(|e| joined(&sigma, e.items(), ","))
                .collect::<Vec<_>>()
                .join(" ")
                + "\n";
            let mut out = Vec::new();
            io::write_itemset_line(&sigma, &t, &mut out).unwrap();
            prop_assert_eq!(String::from_utf8(out).unwrap(), want);
        }

        for r in &rows {
            let mut sorted = ticks.clone();
            sorted.sort_unstable();
            let t = TimedSequence::new(
                r.iter()
                    .zip(sorted.iter().chain(std::iter::repeat(&1000)))
                    .map(|(&id, &time)| TimedEvent { symbol: symbol(id), time })
                    .collect(),
            );
            let want = t
                .events()
                .iter()
                .map(|e| format!("{}@{}", sigma.render(e.symbol), e.time))
                .collect::<Vec<_>>()
                .join(" ")
                + "\n";
            let mut out = Vec::new();
            io::write_timed_line(&sigma, &t, &mut out).unwrap();
            prop_assert_eq!(String::from_utf8(out).unwrap(), want);
        }
    }
}
