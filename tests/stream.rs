//! Equivalence suite for the two-pass streaming pipeline: `hide --stream`
//! must release the **same bytes** as the in-memory path on the same seed,
//! across every strategy, engine, thread count and batch size — the
//! determinism contract `docs/ALGORITHMS.md` §"Two-pass streaming" pins.
//!
//! The plain-pattern matrix exercises [`Sanitizer::run_streaming_from`];
//! the itemset/timed/regex matrices drive the same generic
//! [`Sanitizer::run_streaming_domain_from`] the CLI uses, against
//! [`Sanitizer::run_domain_threaded`] as the in-memory oracle. Each case
//! is written to a file that every pass reopens, as `hide --stream` does.

use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use seqhide::core::timed::{TimeConstraints, TimeGap, TimedPattern};
use seqhide::core::{EngineMode, GlobalStrategy, LocalStrategy, Sanitizer, TimedDomain};
use seqhide::data::io::{itemset_db_to_text, parse_itemset_db, parse_timed_db, timed_db_to_text};
use seqhide::data::{ItemsetCodec, PlainCodec, TimedCodec};
use seqhide::matching::itemset::ItemsetPattern;
use seqhide::matching::{ItemsetMatchEngine, SensitiveSet};
use seqhide::num::Sat64;
use seqhide::prelude::*;
use seqhide::re::{RegexDomain, RegexPattern};
use seqhide::string::{StringDomain, StringPattern};
use seqhide::types::OpKind;

static CASE: AtomicU64 = AtomicU64::new(0);

fn write_case(text: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("seqhide-stream-equiv");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!(
        "case-{}-{}.seq",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, text).unwrap();
    path
}

/// The streaming drivers' reader factory over a file: each pass reopens
/// it from the top.
fn reopen(path: &Path) -> impl Fn() -> io::Result<Box<dyn BufRead>> + '_ {
    move || Ok(Box::new(BufReader::new(File::open(path)?)) as Box<dyn BufRead>)
}

/// Runs both paths on the same input text; returns (memory bytes, memory
/// report, stream bytes, stream report).
fn both_paths(
    text: &str,
    patterns: &[String],
    sanitizer: &Sanitizer,
    batch: usize,
) -> (
    String,
    seqhide::core::SanitizeReport,
    String,
    seqhide::core::StreamReport,
) {
    let path = write_case(text);
    let mut db = SequenceDb::parse(text);
    let sh = SensitiveSet::new(
        patterns
            .iter()
            .map(|p| Sequence::parse(p, db.alphabet_mut()))
            .collect(),
    );
    let mem_report = sanitizer.run(&mut db, &sh);
    // The streaming path interns the patterns into a *fresh* alphabet
    // (symbol ids differ from the in-memory run); rendering is by name, so
    // the released bytes must still agree.
    let mut alphabet = Alphabet::new();
    let sh_s = SensitiveSet::new(
        patterns
            .iter()
            .map(|p| Sequence::parse(p, &mut alphabet))
            .collect(),
    );
    let mut out = Vec::new();
    let stream_report = sanitizer
        .run_streaming_from(&reopen(&path), &mut alphabet, &sh_s, batch, &mut out)
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    (
        db.to_text(),
        mem_report,
        String::from_utf8(out).unwrap(),
        stream_report,
    )
}

const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];

fn text_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::collection::vec(0usize..NAMES.len(), 1..=8), 1..=14).prop_map(
        |rows| {
            rows.iter()
                .map(|row| row.iter().map(|&i| NAMES[i]).collect::<Vec<_>>().join(" ") + "\n")
                .collect()
        },
    )
}

fn pattern_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(prop::collection::vec(0usize..NAMES.len(), 1..=3), 1..=2).prop_map(
        |pats| {
            pats.iter()
                .map(|p| p.iter().map(|&i| NAMES[i]).collect::<Vec<_>>().join(" "))
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streaming_is_byte_identical_to_in_memory(
        text in text_strategy(),
        patterns in pattern_strategy(),
        psi in 0usize..4,
        (local, global) in (
            prop::sample::select(vec![LocalStrategy::Heuristic, LocalStrategy::Random]),
            prop::sample::select(vec![
                GlobalStrategy::Heuristic,
                GlobalStrategy::Random,
                GlobalStrategy::AutoCorrelation,
                GlobalStrategy::Length,
            ]),
        ),
        engine in prop::sample::select(vec![EngineMode::Incremental, EngineMode::Scratch]),
        threads in prop::sample::select(vec![1usize, 3]),
        batch in prop::sample::select(vec![1usize, 2, 7, 64]),
        seed in 0u64..3,
    ) {
        let sanitizer = Sanitizer::new(local, global, psi)
            .with_seed(seed)
            .with_engine(engine)
            .with_threads(threads);
        let (mem, mem_report, streamed, stream_report) =
            both_paths(&text, &patterns, &sanitizer, batch);
        prop_assert_eq!(&streamed, &mem, "released bytes diverged");
        prop_assert_eq!(&stream_report.report, &mem_report, "reports diverged");
        prop_assert!(stream_report.report.hidden);
        prop_assert_eq!(stream_report.sequences_total, text.lines().count());
    }
}

#[test]
fn no_supporters_edge_is_identical() {
    // Pattern symbols never occur in the database: pass 1 finds zero
    // supporters and pass 2 must degrade to a byte-exact copy.
    let text = "a b c\nd e\n";
    let sanitizer = Sanitizer::hh(0);
    let (mem, mem_report, streamed, stream_report) =
        both_paths(text, &["e a c".to_string()], &sanitizer, 2);
    assert_eq!(streamed, mem);
    assert_eq!(streamed, text);
    assert_eq!(stream_report.report, mem_report);
    assert_eq!(stream_report.report.supporters_before, 0);
    assert_eq!(stream_report.report.marks_introduced, 0);
}

#[test]
fn psi_zero_and_psi_spares_all_edges() {
    let text = "a c\na b c\nc a\na c b\n";
    for psi in [0usize, 10] {
        for batch in [1usize, 3, 100] {
            let sanitizer = Sanitizer::hh(psi).with_seed(5);
            let (mem, mem_report, streamed, stream_report) =
                both_paths(text, &["a c".to_string()], &sanitizer, batch);
            assert_eq!(streamed, mem, "psi={psi} batch={batch}");
            assert_eq!(stream_report.report, mem_report, "psi={psi} batch={batch}");
            if psi == 10 {
                // ψ ≥ supporters: nothing sanitized, clean copy
                assert_eq!(streamed, text);
            }
        }
    }
}

#[test]
fn exact_counts_streaming_agrees() {
    let text = "a b a b a\nb a b a b\na a b b a\n";
    let sanitizer = Sanitizer::hh(1).with_exact_counts(true);
    let (mem, mem_report, streamed, stream_report) =
        both_paths(text, &["a b a".to_string()], &sanitizer, 2);
    assert_eq!(streamed, mem);
    assert_eq!(stream_report.report, mem_report);
}

// ---------------------------------------------------------------------------
// Domain matrices: itemset / timed / regex through `run_streaming_domain_from`.
//
// The itemset distortion loop breaks δ-ties by ascending symbol id, so its
// determinism contract requires both paths to intern symbols in the same
// order (database first, patterns after — the CLI reproduces this with a
// bounded pre-pass over the input). Timed and regex decisions are
// positional, but the harness keeps the same shared-alphabet shape for all
// three so one helper covers them.
// ---------------------------------------------------------------------------

/// Space-joined plain rendering, matching [`SequenceDb::to_text`] and the
/// bytes `PlainCodec` writes.
fn plain_db_to_text(alphabet: &Alphabet, db: &[Sequence]) -> String {
    db.iter()
        .map(|t| {
            t.iter()
                .map(|&s| alphabet.render(s))
                .collect::<Vec<_>>()
                .join(" ")
                + "\n"
        })
        .collect()
}

fn strategy_matrix() -> impl Strategy<Value = (LocalStrategy, GlobalStrategy, usize, usize, u64)> {
    (
        prop::sample::select(vec![LocalStrategy::Heuristic, LocalStrategy::Random]),
        prop::sample::select(vec![
            GlobalStrategy::Heuristic,
            GlobalStrategy::Random,
            GlobalStrategy::AutoCorrelation,
            GlobalStrategy::Length,
        ]),
        prop::sample::select(vec![1usize, 3]),
        prop::sample::select(vec![1usize, 2, 64]),
        0u64..3,
    )
}

fn domain_sanitizer(
    (local, global, threads, _batch, seed): (LocalStrategy, GlobalStrategy, usize, usize, u64),
    psi: usize,
) -> Sanitizer {
    Sanitizer::new(local, global, psi)
        .with_seed(seed)
        .with_threads(threads)
}

/// In-memory vs streamed release for one domain: `parse` reads the text
/// into `(alphabet, db)`, `mem` runs the in-memory oracle and renders its
/// bytes, `stream` drives `run_streaming_domain_from` over the same alphabet.
fn assert_domain_parity<Seq2>(
    text: &str,
    batch: usize,
    parse: impl Fn(&str) -> (Alphabet, Vec<Seq2>),
    mem: impl FnOnce(&Alphabet, &mut Vec<Seq2>) -> seqhide::core::SanitizeReport,
    stream: impl FnOnce(
        &std::path::Path,
        &mut Alphabet,
        &mut Vec<u8>,
    ) -> std::io::Result<seqhide::core::StreamReport>,
    render: impl Fn(&Alphabet, &[Seq2]) -> String,
    label: &str,
) {
    let path = write_case(text);
    let (alphabet, mut db) = parse(text);
    let mem_report = mem(&alphabet, &mut db);
    let mem_bytes = render(&alphabet, &db);
    let mut stream_alphabet = alphabet.clone();
    let mut out = Vec::new();
    let stream_report = stream(&path, &mut stream_alphabet, &mut out).unwrap();
    std::fs::remove_file(&path).unwrap();
    let streamed = String::from_utf8(out).unwrap();
    assert_eq!(
        streamed, mem_bytes,
        "{label}: released bytes diverged (batch={batch})"
    );
    assert_eq!(
        stream_report.report, mem_report,
        "{label}: reports diverged (batch={batch})"
    );
    assert!(stream_report.report.hidden, "{label}: not hidden");
}

fn itemset_text_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::collection::vec(prop::collection::vec(0usize..NAMES.len(), 1..=3), 1..=6),
        1..=10,
    )
    .prop_map(|rows| {
        rows.iter()
            .map(|row| {
                row.iter()
                    .map(|elem| elem.iter().map(|&i| NAMES[i]).collect::<Vec<_>>().join(","))
                    .collect::<Vec<_>>()
                    .join(" ")
                    + "\n"
            })
            .collect()
    })
}

fn itemset_pattern_strategy() -> impl Strategy<Value = Vec<Vec<Vec<usize>>>> {
    prop::collection::vec(
        prop::collection::vec(prop::collection::vec(0usize..NAMES.len(), 1..=2), 1..=2),
        1..=2,
    )
}

fn build_itemset_patterns(
    specs: &[Vec<Vec<usize>>],
    alphabet: &mut Alphabet,
) -> Vec<ItemsetPattern> {
    specs
        .iter()
        .map(|elems| {
            let elements: Vec<seqhide::types::Itemset> = elems
                .iter()
                .map(|items| {
                    seqhide::types::Itemset::new(
                        items.iter().map(|&i| alphabet.intern(NAMES[i])).collect(),
                    )
                })
                .collect();
            ItemsetPattern::new(
                seqhide::types::ItemsetSequence::new(elements),
                seqhide::matching::ConstraintSet::none(),
            )
            .unwrap()
        })
        .collect()
}

fn timed_text_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::collection::vec((0usize..NAMES.len(), 0u64..40), 1..=8),
        1..=10,
    )
    .prop_map(|rows| {
        rows.iter()
            .map(|row| {
                let mut tick = 0u64;
                row.iter()
                    .map(|&(i, gap)| {
                        tick += gap;
                        format!("{}@{tick}", NAMES[i])
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
                    + "\n"
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn itemset_streaming_is_byte_identical(
        text in itemset_text_strategy(),
        specs in itemset_pattern_strategy(),
        psi in 0usize..3,
        knobs in strategy_matrix(),
    ) {
        let batch = knobs.3;
        let sanitizer = domain_sanitizer(knobs, psi);
        assert_domain_parity(
            &text,
            batch,
            parse_itemset_db,
            |alphabet, db| {
                // Same intern order as the streaming side: database
                // symbols first (already in `alphabet`), patterns after.
                let patterns = build_itemset_patterns(&specs, &mut alphabet.clone());
                sanitizer.run_domain_threaded(db, &|| ItemsetMatchEngine::<Sat64>::new(&patterns))
            },
            |path, alphabet, out| {
                let patterns = build_itemset_patterns(&specs, alphabet);
                sanitizer.run_streaming_domain_from(
                    &reopen(path),
                    alphabet,
                    &ItemsetCodec,
                    &|| ItemsetMatchEngine::<Sat64>::new(&patterns),
                    batch,
                    out,
                )
            },
            itemset_db_to_text,
            "itemset",
        );
    }

    #[test]
    fn timed_streaming_is_byte_identical(
        text in timed_text_strategy(),
        pat in prop::collection::vec(0usize..NAMES.len(), 1..=3),
        max_gap in prop::option::of(1u64..60),
        psi in 0usize..3,
        knobs in strategy_matrix(),
    ) {
        let batch = knobs.3;
        let sanitizer = domain_sanitizer(knobs, psi);
        let tc = match max_gap {
            Some(max) => TimeConstraints::uniform_gap(TimeGap { min: 0, max: Some(max) }),
            None => TimeConstraints::none(),
        };
        let pattern_text: String = pat
            .iter()
            .map(|&i| NAMES[i])
            .collect::<Vec<_>>()
            .join(" ");
        let build = |alphabet: &mut Alphabet| {
            vec![TimedPattern::new(Sequence::parse(&pattern_text, alphabet), tc.clone()).unwrap()]
        };
        assert_domain_parity(
            &text,
            batch,
            |t| parse_timed_db(t).unwrap(),
            |alphabet, db| {
                let patterns = build(&mut alphabet.clone());
                sanitizer.run_domain_threaded(db, &|| TimedDomain::<Sat64>::new(&patterns))
            },
            |path, alphabet, out| {
                let patterns = build(alphabet);
                sanitizer.run_streaming_domain_from(
                    &reopen(path),
                    alphabet,
                    &TimedCodec,
                    &|| TimedDomain::<Sat64>::new(&patterns),
                    batch,
                    out,
                )
            },
            timed_db_to_text,
            "timed",
        );
    }

    #[test]
    fn regex_streaming_is_byte_identical(
        text in text_strategy(),
        regex in prop::sample::select(vec![
            "a (b | c)",
            "a b+",
            "(a | b) c",
            "a [b c]+ d",
        ]),
        psi in 0usize..3,
        knobs in strategy_matrix(),
    ) {
        let batch = knobs.3;
        let sanitizer = domain_sanitizer(knobs, psi);
        assert_domain_parity(
            &text,
            batch,
            |t| {
                let db = SequenceDb::parse(t);
                (db.alphabet().clone(), db.sequences().to_vec())
            },
            |alphabet, db| {
                let regexes =
                    vec![RegexPattern::compile(regex, &mut alphabet.clone()).unwrap()];
                sanitizer.run_domain_threaded(db, &|| RegexDomain::<Sat64>::new(&regexes))
            },
            |path, alphabet, out| {
                let regexes = vec![RegexPattern::compile(regex, alphabet).unwrap()];
                sanitizer.run_streaming_domain_from(
                    &reopen(path),
                    alphabet,
                    &PlainCodec,
                    &|| RegexDomain::<Sat64>::new(&regexes),
                    batch,
                    out,
                )
            },
            plain_db_to_text,
            "regex",
        );
    }
}

// ---------------------------------------------------------------------------
// String domain: HH/HR/RH/RR × threads × batch × the three DistortOp
// families. The substitution operator breaks ties by ascending interned
// symbol id, so — like itemset — both paths must intern the database
// before the patterns; `SequenceDb::parse` on the input text reproduces
// the streaming pre-pass's file-order interning exactly.
// ---------------------------------------------------------------------------

fn build_string_patterns(texts: &[String], alphabet: &mut Alphabet) -> Vec<StringPattern> {
    texts
        .iter()
        .map(|p| StringPattern::new(Sequence::parse(p, alphabet)).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn string_streaming_is_byte_identical_and_creates_no_occurrences(
        text in text_strategy(),
        patterns in pattern_strategy(),
        op in prop::sample::select(vec![OpKind::Mark, OpKind::Delete, OpKind::Substitute]),
        psi in 0usize..3,
        knobs in strategy_matrix(),
    ) {
        let batch = knobs.3;
        let sanitizer = domain_sanitizer(knobs, psi);
        // in-memory oracle: database interned first, patterns after (the
        // CLI order on both of its paths)
        let mut db = SequenceDb::parse(&text);
        let pats = build_string_patterns(&patterns, db.alphabet_mut());
        let sigma_len = db.alphabet().len();
        let mem_report = sanitizer.run_domain_threaded(db.sequences_mut(), &|| {
            StringDomain::<Sat64>::new(&pats, sigma_len).with_op(op)
        });
        let mem = db.to_text();
        prop_assert!(mem_report.hidden, "op={op}: not hidden");
        // streamed release over a fresh file-order alphabet
        let path = write_case(&text);
        let mut alphabet = SequenceDb::parse(&text).alphabet().clone();
        let spats = build_string_patterns(&patterns, &mut alphabet);
        let s_sigma = alphabet.len();
        let mut out = Vec::new();
        let stream_report = sanitizer
            .run_streaming_domain_from(
                &reopen(&path),
                &mut alphabet,
                &PlainCodec,
                &|| StringDomain::<Sat64>::new(&spats, s_sigma).with_op(op),
                batch,
                &mut out,
            )
            .unwrap();
        std::fs::remove_file(&path).unwrap();
        let streamed = String::from_utf8(out).unwrap();
        prop_assert_eq!(&streamed, &mem, "op={} released bytes diverged", op);
        prop_assert_eq!(&stream_report.report, &mem_report, "op={} reports diverged", op);
        // The no-new-occurrence invariant, re-counted from the released
        // bytes with a fresh engine: an edit may destroy occurrences and
        // may not create any, so every pattern's support is ≤ ψ no matter
        // which operator family ran.
        let mut released = SequenceDb::parse(&mem);
        let rpats = build_string_patterns(&patterns, released.alphabet_mut());
        let rsigma = released.alphabet().len();
        let mut verifier = StringDomain::<Sat64>::new(&rpats, rsigma);
        for k in 0..rpats.len() {
            let mut supporters = 0;
            for t in released.sequences() {
                if seqhide::matching::PatternDomain::supports_pattern(&mut verifier, t, k) {
                    supporters += 1;
                }
            }
            prop_assert!(
                supporters <= psi,
                "op={op}: pattern {k} support {supporters} > ψ {psi} in:\n{mem}"
            );
        }
    }
}

#[test]
fn domain_no_supporter_and_psi_edges() {
    // Pattern absent from the database → pass 1 finds nothing and pass 2
    // must degrade to a byte-exact copy; ψ ≥ supporters behaves the same.
    let itemset_text = "a,b c\nb d\n";
    let timed_text = "a@0 b@5\nc@0 d@9\n";
    let plain_text = "a b c\nc b a\n";
    for psi in [0usize, 10] {
        let sanitizer = Sanitizer::hh(psi).with_seed(3);
        assert_domain_parity(
            itemset_text,
            1,
            parse_itemset_db,
            |alphabet, db| {
                let patterns =
                    build_itemset_patterns(&[vec![vec![4], vec![4]]], &mut alphabet.clone());
                sanitizer.run_domain_threaded(db, &|| ItemsetMatchEngine::<Sat64>::new(&patterns))
            },
            |path, alphabet, out| {
                let patterns = build_itemset_patterns(&[vec![vec![4], vec![4]]], alphabet);
                sanitizer.run_streaming_domain_from(
                    &reopen(path),
                    alphabet,
                    &ItemsetCodec,
                    &|| ItemsetMatchEngine::<Sat64>::new(&patterns),
                    1,
                    out,
                )
            },
            itemset_db_to_text,
            "itemset-edge",
        );
        assert_domain_parity(
            timed_text,
            1,
            |t| parse_timed_db(t).unwrap(),
            |alphabet, db| {
                let mut a = alphabet.clone();
                let patterns = vec![TimedPattern::new(
                    Sequence::parse("e e", &mut a),
                    TimeConstraints::none(),
                )
                .unwrap()];
                sanitizer.run_domain_threaded(db, &|| TimedDomain::<Sat64>::new(&patterns))
            },
            |path, alphabet, out| {
                let patterns = vec![TimedPattern::new(
                    Sequence::parse("e e", alphabet),
                    TimeConstraints::none(),
                )
                .unwrap()];
                sanitizer.run_streaming_domain_from(
                    &reopen(path),
                    alphabet,
                    &TimedCodec,
                    &|| TimedDomain::<Sat64>::new(&patterns),
                    1,
                    out,
                )
            },
            timed_db_to_text,
            "timed-edge",
        );
        assert_domain_parity(
            plain_text,
            1,
            |t| {
                let db = SequenceDb::parse(t);
                (db.alphabet().clone(), db.sequences().to_vec())
            },
            |alphabet, db| {
                let regexes = vec![RegexPattern::compile("e e+", &mut alphabet.clone()).unwrap()];
                sanitizer.run_domain_threaded(db, &|| RegexDomain::<Sat64>::new(&regexes))
            },
            |path, alphabet, out| {
                let regexes = vec![RegexPattern::compile("e e+", alphabet).unwrap()];
                sanitizer.run_streaming_domain_from(
                    &reopen(path),
                    alphabet,
                    &PlainCodec,
                    &|| RegexDomain::<Sat64>::new(&regexes),
                    1,
                    out,
                )
            },
            plain_db_to_text,
            "regex-edge",
        );
    }
}
