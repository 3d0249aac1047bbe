//! The hide pipeline: one path from a [`HideSpec`] to a release, shared by
//! `seqhide hide` (in memory, `--stream` and `--delta`) and by every
//! `sanitize` and `delta` request `seqhide serve` executes.
//!
//! Both surfaces reduce their input to a [`HideSpec`] — the CLI from its
//! flags, the server in [`crate::protocol::decode`] — and
//! [`HideSpec::validate`] refuses bad combinations for both, with one
//! message. The pipeline owns everything between the spec and the
//! released sequences: parsing the database in the spec's line format,
//! compiling the patterns against its alphabet, building the
//! [`PatternDomain`] and rendering the release. Three routes share that
//! parse:
//!
//! * **in memory** — [`Loaded`]: parse, sanitize each pattern family
//!   through [`Sanitizer`], render ([`sanitize`] serves requests with it);
//! * **streamed** — [`hide_streamed`]: the two-pass bounded-memory driver
//!   over any reader factory, a file for the CLI or a disk-backed
//!   dataset's shard store for the server;
//! * **delta** — [`DeltaSession`]: a persistent supporter index that
//!   absorbs append/remove batches incrementally.
//!
//! A served release is byte-identical to `seqhide hide`'s for the same
//! input and settings because both run this code. `tests/serve.rs` still
//! pins that equality end to end, which covers the flag parsing, the wire
//! decoding and the response framing around it.
//!
//! [`PatternDomain`]: seqhide_core::PatternDomain

use std::fmt;
use std::io::{self, BufRead, Write};
use std::sync::Arc;

use seqhide_core::post::{
    delete_markers_safe_domain, delete_markers_safe_with, replace_markers, ReplaceReport,
};
use seqhide_core::timed::{TimeConstraints, TimeGap, TimedPattern};
use seqhide_core::{
    DeltaReport, DeltaState, GlobalStrategy, LocalStrategy, SanitizeReport, Sanitizer, SeqDelta,
    StreamReport, SupporterIndex, TimedDomain,
};
use seqhide_data::io::{parse_itemset_db, parse_itemset_line, parse_timed_db};
use seqhide_data::stream::{
    ItemsetCodec, PlainCodec, SeqReader, ShardWriter, StreamCodec, TimedCodec,
};
use seqhide_match::itemset::ItemsetPattern;
use seqhide_match::{
    ConstraintSet, Gap, ItemsetMatchEngine, MatchEngine, SensitivePattern, SensitiveSet,
};
use seqhide_num::{BigCount, Count, Sat64};
use seqhide_re::{RegexDomain, RegexPattern};
use seqhide_string::{StringDomain, StringPattern};
use seqhide_types::{Alphabet, ItemsetSequence, OpKind, Sequence, SequenceDb, TimedSequence};

use crate::registry::DatasetSnapshot;

/// Pass-2 batch size for disk-streamed dataset sanitizes: bounds
/// resident sequences, not correctness (streaming output is
/// byte-identical at any batch size).
const STREAM_BATCH_SEQS: usize = 1024;

/// Resident-buffer bound for the disk-streamed output writer; past it,
/// finished batches spill to temp shards until response render.
const STREAM_SPILL_BYTES: usize = 8 * 1024 * 1024;

/// Where a request's database text comes from.
#[derive(Clone)]
pub enum DbSource {
    /// Shipped inline in the request (`"db"`).
    Inline(Arc<str>),
    /// Referenced by name (`"dataset"`), not yet resolved against the
    /// registry — the server resolves this to [`DbSource::Dataset`]
    /// before the job is queued; reaching exec unresolved is a bug.
    Named(String),
    /// A resolved registry snapshot; the held `Arc` keeps the dataset
    /// alive through execution even if it is unloaded meanwhile.
    Dataset(Arc<DatasetSnapshot>),
}

impl DbSource {
    /// The full database text. Errors for disk-streamed datasets over
    /// the resident cap (callers with a streaming path check
    /// [`DatasetSnapshot::streams_from_disk`] first).
    pub fn text(&self) -> Result<Arc<str>, String> {
        match self {
            DbSource::Inline(text) => Ok(Arc::clone(text)),
            DbSource::Dataset(snapshot) => snapshot.text(),
            DbSource::Named(name) => Err(format!(
                "internal: dataset '{name}' reached execution unresolved"
            )),
        }
    }
}

impl From<&str> for DbSource {
    fn from(text: &str) -> Self {
        DbSource::Inline(Arc::from(text))
    }
}

impl From<String> for DbSource {
    fn from(text: String) -> Self {
        DbSource::Inline(Arc::from(text))
    }
}

impl fmt::Debug for DbSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbSource::Inline(text) => write!(f, "Inline({} bytes)", text.len()),
            DbSource::Named(name) => write!(f, "Named({name:?})"),
            DbSource::Dataset(snapshot) => write!(f, "Dataset({:?})", snapshot.name()),
        }
    }
}

/// Which line format (and pattern class) a database uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Whitespace-separated symbols (`a b c`); plain and regex patterns.
    Plain,
    /// Comma-joined items per element (`bread,milk beer`).
    Itemset,
    /// `symbol@tick` events; gaps measured in elapsed ticks.
    Timed,
    /// Plain line format, but patterns are *contiguous substrings* and
    /// `op` selects the edit family.
    String,
}

impl Mode {
    /// Parses the wire `mode` field and the CLI's `--mode` flag (`None`
    /// defaults to plain).
    pub fn parse(name: Option<&str>) -> Result<Mode, String> {
        match name.unwrap_or("plain") {
            "plain" => Ok(Mode::Plain),
            "itemset" => Ok(Mode::Itemset),
            "timed" => Ok(Mode::Timed),
            "string" => Ok(Mode::String),
            other => Err(format!(
                "unknown mode '{other}' (plain|itemset|timed|string)"
            )),
        }
    }
}

/// One family of sensitive patterns. A plain-mode run hides up to two,
/// its `patterns` and then its `regexes`; every other mode hides one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Plain subsequence patterns.
    Plain,
    /// Regex patterns over plain sequences.
    Regex,
    /// Itemset-sequence patterns.
    Itemset,
    /// Time-tagged patterns.
    Timed,
    /// Contiguous substrings.
    String,
}

impl Family {
    /// The report-line noun ("plain patterns: …").
    pub fn noun(self) -> &'static str {
        match self {
            Family::Plain => "plain patterns",
            Family::Regex => "regex patterns",
            Family::Itemset => "itemset patterns",
            Family::Timed => "timed patterns",
            Family::String => "string patterns",
        }
    }

    /// What one distortion is called in the report line.
    pub fn unit(self) -> &'static str {
        match self {
            Family::Plain | Family::Regex => "marks",
            Family::Itemset => "item marks",
            Family::Timed => "event marks",
            Family::String => "edits",
        }
    }
}

/// Everything that shapes one hide run except the database: what
/// `seqhide hide`'s flags and a `sanitize`/`delta` request's fields both
/// decode to.
#[derive(Clone, Debug)]
pub struct HideSpec {
    /// The line format and pattern class.
    pub mode: Mode,
    /// Sensitive patterns, in `mode`'s pattern syntax.
    pub patterns: Vec<String>,
    /// Regex patterns (plain mode only).
    pub regexes: Vec<String>,
    /// Disclosure threshold ψ.
    pub psi: usize,
    /// Local (position-choice) strategy.
    pub local: LocalStrategy,
    /// Global (sequence-choice) strategy.
    pub global: GlobalStrategy,
    /// RNG seed for the random strategies.
    pub seed: u64,
    /// Exact big-integer counting for the plain `patterns` family.
    pub exact: bool,
    /// Minimum gap between consecutive pattern elements (ticks in timed
    /// mode, index distance otherwise).
    pub min_gap: u64,
    /// Maximum gap, if constrained.
    pub max_gap: Option<u64>,
    /// Maximum whole-match window, if constrained.
    pub max_window: Option<u64>,
    /// Distortion operator family; every mode except `string` is
    /// Δ-mark-only.
    pub op: OpKind,
    /// Threads marking victims (0 = one per CPU); never changes the
    /// release.
    pub threads: usize,
}

impl HideSpec {
    /// A spec with the CLI's defaults: no patterns, HH, seed 0, Δ-marks,
    /// no gap or window bounds, one thread.
    pub fn new(mode: Mode, psi: usize) -> HideSpec {
        HideSpec {
            mode,
            patterns: Vec::new(),
            regexes: Vec::new(),
            psi,
            local: LocalStrategy::Heuristic,
            global: GlobalStrategy::Heuristic,
            seed: 0,
            exact: false,
            min_gap: 0,
            max_gap: None,
            max_window: None,
            op: OpKind::Mark,
            threads: 1,
        }
    }

    /// The family the run leads with: a plain-mode run with only
    /// `regexes` is a regex run.
    pub fn family(&self) -> Family {
        match self.mode {
            Mode::Plain if self.patterns.is_empty() && !self.regexes.is_empty() => Family::Regex,
            Mode::Plain => Family::Plain,
            Mode::Itemset => Family::Itemset,
            Mode::Timed => Family::Timed,
            Mode::String => Family::String,
        }
    }

    /// Refuses the settings no route can honour. Every route calls it
    /// first, so the CLI and the wire refuse the same things with the
    /// same message; where the two spell a knob differently, the message
    /// names both.
    pub fn validate(&self) -> Result<(), String> {
        if self.op != OpKind::Mark && self.mode != Mode::String {
            return Err(format!(
                "--op {}: {} are hidden by Δ-marks only; edit operations \
                 (delete|substitute) need the substring domain — did you mean \
                 --mode string? (wire: \"mode\":\"string\")",
                self.op.name(),
                self.family().noun()
            ));
        }
        check_gap_order(self.min_gap, self.max_gap)?;
        if !self.regexes.is_empty() && self.mode != Mode::Plain {
            return Err(
                "--regex applies to plain mode only (wire: \"regexes\" need \"mode\":\"plain\")"
                    .to_string(),
            );
        }
        if self.exact && self.family() != Family::Plain {
            return Err(
                "--exact counts plain --pattern families only; itemset, timed, string and \
                 regex patterns always count in saturating 64-bit arithmetic \
                 (wire: \"exact\" needs \"mode\":\"plain\" and \"patterns\")"
                    .to_string(),
            );
        }
        if self.patterns.is_empty() && self.regexes.is_empty() {
            let syntax = match self.mode {
                Mode::Plain => {
                    return Err("nothing to hide: give --pattern and/or --regex \
                                (wire: \"patterns\" and/or \"regexes\")"
                        .to_string())
                }
                Mode::Itemset => "itemset syntax: a,b c",
                Mode::Timed => "plain symbols; gaps in ticks",
                Mode::String => "a contiguous substring",
            };
            return Err(format!(
                "nothing to hide: give --pattern ({syntax}; wire: \"patterns\")"
            ));
        }
        Ok(())
    }

    /// The run's sanitizer: strategies, ψ, seed, counting and threads.
    /// Every round of every route is built from it.
    fn sanitizer(&self) -> Sanitizer {
        Sanitizer::new(self.local, self.global, self.psi)
            .with_seed(self.seed)
            .with_exact_counts(self.exact)
            .with_threads(self.threads)
    }

    /// The index-distance gap/window bounds of plain, itemset and regex
    /// patterns.
    fn constraints(&self) -> Result<ConstraintSet, String> {
        gap_constraints(self.min_gap, self.max_gap, self.max_window)
    }

    fn sensitive_set(&self, alphabet: &mut Alphabet) -> Result<SensitiveSet, String> {
        let cs = self.constraints()?;
        let patterns = compile_each(&self.patterns, "pattern", |text| {
            SensitivePattern::new(Sequence::parse(text, alphabet), cs.clone())
        })?;
        Ok(SensitiveSet::from_patterns(patterns))
    }

    fn regex_patterns(&self, alphabet: &mut Alphabet) -> Result<Vec<RegexPattern>, String> {
        let cs = self.constraints()?;
        compile_each(&self.regexes, "regex", |text| {
            RegexPattern::compile(text, alphabet).map(|p| p.with_constraints(&cs))
        })
    }

    /// Itemset patterns in the database's own line syntax (`a,b c`).
    fn itemset_patterns(&self, alphabet: &mut Alphabet) -> Result<Vec<ItemsetPattern>, String> {
        let cs = self.constraints()?;
        compile_each(&self.patterns, "pattern", |text| {
            ItemsetPattern::new(parse_itemset_line(text, alphabet), cs.clone())
        })
    }

    /// Timed patterns: plain symbols, with the gap/window bounds read as
    /// elapsed ticks.
    fn timed_patterns(&self, alphabet: &mut Alphabet) -> Result<Vec<TimedPattern>, String> {
        let mut tc = if self.min_gap == 0 && self.max_gap.is_none() {
            TimeConstraints::none()
        } else {
            TimeConstraints::uniform_gap(TimeGap {
                min: self.min_gap,
                max: self.max_gap,
            })
        };
        tc.max_window = self.max_window;
        compile_each(&self.patterns, "pattern", |text| {
            TimedPattern::new(Sequence::parse(text, alphabet), tc.clone())
        })
    }

    fn string_patterns(&self, alphabet: &mut Alphabet) -> Result<Vec<StringPattern>, String> {
        compile_each(&self.patterns, "pattern", |text| {
            StringPattern::new(Sequence::parse(text, alphabet))
        })
    }
}

/// Compiles each pattern text, naming the first that fails.
fn compile_each<P, E: fmt::Display>(
    texts: &[String],
    what: &str,
    mut compile: impl FnMut(&str) -> Result<P, E>,
) -> Result<Vec<P>, String> {
    texts
        .iter()
        .map(|text| compile(text).map_err(|e| format!("{what} '{text}': {e}")))
        .collect()
}

/// The one check on gap order, for hide runs, `verify` and the miner.
fn check_gap_order(min_gap: u64, max_gap: Option<u64>) -> Result<(), String> {
    match max_gap {
        Some(max) if max < min_gap => {
            Err("--max-gap must be ≥ --min-gap (wire: max_gap must be ≥ min_gap)".to_string())
        }
        _ => Ok(()),
    }
}

/// The uniform index-distance constraints every pattern of a run shares,
/// refusing a maximum gap below the minimum.
pub fn gap_constraints(
    min_gap: u64,
    max_gap: Option<u64>,
    max_window: Option<u64>,
) -> Result<ConstraintSet, String> {
    check_gap_order(min_gap, max_gap)?;
    let mut cs = if min_gap == 0 && max_gap.is_none() {
        ConstraintSet::none()
    } else {
        ConstraintSet::uniform_gap(Gap {
            min: min_gap as usize,
            max: max_gap.map(|g| g as usize),
        })
    };
    cs.max_window = max_window.map(|w| w as usize);
    Ok(cs)
}

/// Renders sequences in `codec`'s line format.
fn render<K: StreamCodec>(codec: &K, alphabet: &Alphabet, seqs: &[K::Seq]) -> String {
    let mut out = Vec::new();
    for t in seqs {
        codec
            .write_line(alphabet, t, &mut out)
            .expect("write to Vec cannot fail");
    }
    String::from_utf8(out).expect("symbol names are valid UTF-8")
}

fn check_hidden(family: Family, report: &SanitizeReport) -> Result<(), String> {
    report
        .hidden
        .then_some(())
        .ok_or_else(|| format!("internal: sanitizer failed to hide {}", family.noun()))
}

/// A database parsed for one [`HideSpec`], with the spec's patterns
/// compiled against its alphabet: the in-memory route between parse and
/// render. The database's symbols are interned before the patterns', the
/// order the substitution family and the itemset level-2 choice depend
/// on.
pub struct Loaded(Parsed);

/// One mode's parsed database and compiled patterns: plain and string
/// modes keep a [`SequenceDb`] (plain: the `patterns` family, then the
/// `regexes`); itemset and timed keep alphabet, sequences, patterns.
enum Parsed {
    Plain(SequenceDb, SensitiveSet, Vec<RegexPattern>),
    String(SequenceDb, Vec<StringPattern>),
    Itemset(Alphabet, Vec<ItemsetSequence>, Vec<ItemsetPattern>),
    Timed(Alphabet, Vec<TimedSequence>, Vec<TimedPattern>),
}

impl Loaded {
    /// Validates `spec`, parses `text` in its line format and compiles
    /// its patterns. Nothing borrows `text` afterwards, so a caller that
    /// owns it can free it before sanitizing.
    pub fn parse(spec: &HideSpec, text: &str) -> Result<Loaded, String> {
        spec.validate()?;
        let parsed = match spec.mode {
            Mode::Plain => {
                let mut db = SequenceDb::parse(text);
                let sh = spec.sensitive_set(db.alphabet_mut())?;
                let regexes = spec.regex_patterns(db.alphabet_mut())?;
                Parsed::Plain(db, sh, regexes)
            }
            Mode::String => {
                let mut db = SequenceDb::parse(text);
                let patterns = spec.string_patterns(db.alphabet_mut())?;
                Parsed::String(db, patterns)
            }
            Mode::Itemset => {
                let (mut alphabet, db) = parse_itemset_db(text);
                let patterns = spec.itemset_patterns(&mut alphabet)?;
                Parsed::Itemset(alphabet, db, patterns)
            }
            Mode::Timed => {
                let (mut alphabet, db) = parse_timed_db(text).map_err(|e| e.to_string())?;
                let patterns = spec.timed_patterns(&mut alphabet)?;
                Parsed::Timed(alphabet, db, patterns)
            }
        };
        Ok(Loaded(parsed))
    }

    /// Sanitizes the database in place against each pattern family, in
    /// order (plain `patterns` before `regexes`), one report per family.
    pub fn sanitize(&mut self, spec: &HideSpec) -> Result<Vec<(Family, SanitizeReport)>, String> {
        let sanitizer = spec.sanitizer();
        let reports = match &mut self.0 {
            Parsed::Plain(db, sh, regexes) => {
                let mut reports = Vec::new();
                if !sh.is_empty() {
                    reports.push((Family::Plain, sanitizer.run(db, sh)));
                }
                if !regexes.is_empty() {
                    let regexes: &[RegexPattern] = regexes;
                    let report = sanitizer.run_domain_threaded(db.sequences_mut(), &|| {
                        RegexDomain::<Sat64>::new(regexes)
                    });
                    reports.push((Family::Regex, report));
                }
                reports
            }
            Parsed::String(db, patterns) => {
                let (patterns, sigma_len) = (&*patterns, db.alphabet().len());
                let report = sanitizer.run_domain_threaded(db.sequences_mut(), &|| {
                    StringDomain::<Sat64>::new(patterns, sigma_len).with_op(spec.op)
                });
                vec![(Family::String, report)]
            }
            Parsed::Itemset(_, db, patterns) => {
                let patterns: &[ItemsetPattern] = patterns;
                let report = sanitizer
                    .run_domain_threaded(db, &|| ItemsetMatchEngine::<Sat64>::new(patterns));
                vec![(Family::Itemset, report)]
            }
            Parsed::Timed(_, db, patterns) => {
                let patterns: &[TimedPattern] = patterns;
                let report =
                    sanitizer.run_domain_threaded(db, &|| TimedDomain::<Sat64>::new(patterns));
                vec![(Family::Timed, report)]
            }
        };
        for (family, report) in &reports {
            check_hidden(*family, report)?;
        }
        Ok(reports)
    }

    /// Deletes the released Δ marks (`seqhide hide --post delete`),
    /// re-verifying every family after each deletion sweep and
    /// re-sanitizing what index shifts resurrected; returns the rounds.
    /// Every round runs the spec's own sanitizer, so the release equals
    /// repeating the hide with the same settings and stripping Δ until a
    /// round adds no marks.
    pub fn delete_marks(&mut self, spec: &HideSpec) -> Result<usize, String> {
        let psi = spec.psi;
        let resanitize = spec.sanitizer();
        let rounds = match &mut self.0 {
            Parsed::Plain(db, sh, regexes) => {
                // Deletion shrinks gaps for every constrained matcher, so
                // the hook re-sanitizes the regexes too (a hidden family
                // selects no victims and adds no marks).
                let regexes: &[RegexPattern] = regexes;
                let (released, report) =
                    delete_markers_safe_with(db, sh, psi, &resanitize, |cur| {
                        if regexes.is_empty() {
                            return 0;
                        }
                        resanitize
                            .run_domain_threaded(cur.sequences_mut(), &|| {
                                RegexDomain::<Sat64>::new(regexes)
                            })
                            .marks_introduced
                    });
                *db = released;
                report.rounds
            }
            Parsed::Itemset(_, db, patterns) => {
                // Dropping emptied elements shifts positions, so
                // gap-constrained itemset occurrences can resurrect.
                delete_markers_safe_domain(
                    db,
                    &mut ItemsetMatchEngine::<Sat64>::new(patterns),
                    psi,
                    &resanitize,
                    ItemsetSequence::delete_marked,
                )
                .rounds
            }
            Parsed::Timed(_, db, patterns) => {
                delete_markers_safe_domain(
                    db,
                    &mut TimedDomain::<Sat64>::new(patterns),
                    psi,
                    &resanitize,
                    TimedSequence::delete_marked,
                )
                .rounds
            }
            Parsed::String(..) => return Err(STRING_POST.to_string()),
        };
        Ok(rounds)
    }

    /// Replaces the released Δ marks with alphabet symbols that create no
    /// sensitive occurrence (`seqhide hide --post replace`; plain
    /// `--pattern` runs only: the replacement guard checks plain patterns,
    /// so a `--regex` run could get back the very occurrence it hid).
    pub fn replace_marks(&mut self, spec: &HideSpec) -> Result<ReplaceReport, String> {
        match &mut self.0 {
            Parsed::Plain(_, _, regexes) if !regexes.is_empty() => Err(
                "--post replace checks plain --pattern families only; a run with --regex \
                 patterns could release the occurrence it hid — use --post keep or delete"
                    .to_string(),
            ),
            Parsed::Plain(db, sh, _) => Ok(replace_markers(db, sh, spec.seed)),
            Parsed::String(..) => Err(STRING_POST.to_string()),
            Parsed::Itemset(..) | Parsed::Timed(..) => Err(
                "--post replace writes plain alphabet symbols; it applies to plain-mode runs only"
                    .to_string(),
            ),
        }
    }

    /// The database rendered in its input line format.
    pub fn render(&self) -> String {
        match &self.0 {
            Parsed::Plain(db, ..) | Parsed::String(db, _) => db.to_text(),
            Parsed::Itemset(alphabet, db, _) => render(&ItemsetCodec, alphabet, db),
            Parsed::Timed(alphabet, db, _) => render(&TimedCodec, alphabet, db),
        }
    }

    /// The database's current shape (after [`Loaded::sanitize`]: the
    /// release's).
    pub fn stats(&self) -> StatsOutcome {
        match &self.0 {
            Parsed::Plain(db, ..) | Parsed::String(db, _) => plain_stats(db),
            Parsed::Itemset(alphabet, db, _) => itemset_stats(alphabet, db),
            Parsed::Timed(alphabet, db, _) => timed_stats(alphabet, db),
        }
    }
}

const STRING_POST: &str = "--mode string edits during sanitization (--op delete|substitute); \
                           --post delete/replace apply to Δ-marked plain-mode releases";

/// Pre-interns every symbol of the source in file order, so a streamed
/// run's symbol ids match the in-memory run's (database before patterns).
/// One extra sequential pass, O(1) resident memory.
fn intern_all<K: StreamCodec>(
    open: &dyn Fn() -> io::Result<Box<dyn BufRead>>,
    codec: &K,
    alphabet: &mut Alphabet,
) -> io::Result<()> {
    let mut reader = SeqReader::new(open()?);
    while reader.next_record(codec, alphabet)?.is_some() {}
    Ok(())
}

/// The streamed route: hides the spec's one pattern family in a database
/// read twice through `open` (each call must reopen the same bytes),
/// writing the release to `sink` batch by batch. At most `batch_size`
/// sequences are resident, and the release is byte-identical to the
/// in-memory route's. `source` names the input in I/O errors.
pub fn hide_streamed(
    spec: &HideSpec,
    open: &dyn Fn() -> io::Result<Box<dyn BufRead>>,
    batch_size: usize,
    sink: &mut dyn Write,
    source: &str,
) -> Result<StreamReport, String> {
    spec.validate()?;
    if !spec.patterns.is_empty() && !spec.regexes.is_empty() {
        return Err(
            "--stream hides one pattern class per run: give --pattern or --regex, not both \
             (wire: a disk-streamed dataset takes \"patterns\" or \"regexes\", not both)"
                .to_string(),
        );
    }
    let io_error = |e: io::Error| format!("{source}: {e}");
    let sanitizer = spec.sanitizer();
    let mut alphabet = Alphabet::new();
    let report = match spec.family() {
        Family::Plain => {
            let sh = spec.sensitive_set(&mut alphabet)?;
            sanitizer.run_streaming_from(open, &mut alphabet, &sh, batch_size, sink)
        }
        Family::Regex => {
            let regexes = spec.regex_patterns(&mut alphabet)?;
            sanitizer.run_streaming_domain_from(
                open,
                &mut alphabet,
                &PlainCodec,
                &|| RegexDomain::<Sat64>::new(&regexes),
                batch_size,
                sink,
            )
        }
        Family::Itemset => {
            intern_all(open, &ItemsetCodec, &mut alphabet).map_err(io_error)?;
            let patterns = spec.itemset_patterns(&mut alphabet)?;
            sanitizer.run_streaming_domain_from(
                open,
                &mut alphabet,
                &ItemsetCodec,
                &|| ItemsetMatchEngine::<Sat64>::new(&patterns),
                batch_size,
                sink,
            )
        }
        Family::Timed => {
            let patterns = spec.timed_patterns(&mut alphabet)?;
            sanitizer.run_streaming_domain_from(
                open,
                &mut alphabet,
                &TimedCodec,
                &|| TimedDomain::<Sat64>::new(&patterns),
                batch_size,
                sink,
            )
        }
        Family::String => {
            intern_all(open, &PlainCodec, &mut alphabet).map_err(io_error)?;
            let patterns = spec.string_patterns(&mut alphabet)?;
            let sigma_len = alphabet.len();
            sanitizer.run_streaming_domain_from(
                open,
                &mut alphabet,
                &PlainCodec,
                &|| StringDomain::<Sat64>::new(&patterns, sigma_len).with_op(spec.op),
                batch_size,
                sink,
            )
        }
    }
    .map_err(io_error)?;
    check_hidden(spec.family(), &report.report)?;
    Ok(report)
}

/// A persisted supporter index and residual tally a plain session can
/// warm-start from instead of re-scanning (see [`DeltaSession::build`]).
pub type WarmIndex = (SupporterIndex<Sat64>, Vec<usize>);

/// The delta route: one database's incremental sanitization state. It
/// owns the session's alphabet and compiled patterns, so added lines are
/// interned after the patterns, and the release after every batch equals
/// a fresh in-memory run over the mutated database (pinned by
/// `tests/delta.rs`).
pub struct DeltaSession {
    alphabet: Alphabet,
    state: SessionState,
}

enum SessionState {
    Plain(SensitiveSet, DeltaState<Sequence, Sat64>),
    PlainExact(SensitiveSet, DeltaState<Sequence, BigCount>),
    Itemset(Vec<ItemsetPattern>, DeltaState<ItemsetSequence, Sat64>),
    Timed(Vec<TimedPattern>, DeltaState<TimedSequence, Sat64>),
    String {
        patterns: Vec<StringPattern>,
        sigma_len: usize,
        op: OpKind,
        state: DeltaState<Sequence, Sat64>,
    },
}

fn build_plain<C: Count>(
    config: &Sanitizer,
    sh: &SensitiveSet,
    originals: Vec<Sequence>,
    warm: Option<(SupporterIndex<C>, Vec<usize>)>,
) -> DeltaState<Sequence, C> {
    let mut engine = MatchEngine::<C>::new(sh);
    match warm {
        Some((index, residual)) => {
            DeltaState::from_index(config, &mut engine, originals, index, Some(residual))
        }
        None => DeltaState::build(config, &mut engine, originals),
    }
}

fn apply_plain<C: Count>(
    state: &mut DeltaState<Sequence, C>,
    sh: &SensitiveSet,
    added: Vec<Sequence>,
    removed: Vec<usize>,
) -> Result<DeltaReport, String> {
    state.apply_delta(&mut MatchEngine::<C>::new(sh), SeqDelta { added, removed })
}

/// Parses added lines in `codec`'s line format.
fn parse_added<K: StreamCodec>(
    codec: &K,
    added: &[(usize, &str)],
    alphabet: &mut Alphabet,
) -> Result<Vec<K::Seq>, String> {
    added
        .iter()
        .map(|&(lineno, line)| {
            codec
                .parse_line(lineno, line, alphabet)
                .map_err(|e| format!("added {e}"))
        })
        .collect()
}

/// The originals or the release of a session state.
fn side<S: Clone, C: Count>(state: &DeltaState<S, C>, released: bool) -> &[S] {
    if released {
        state.released()
    } else {
        state.originals()
    }
}

impl DeltaSession {
    /// Refuses what an incremental session cannot replay, on top of
    /// [`HideSpec::validate`].
    pub(crate) fn check(spec: &HideSpec) -> Result<(), String> {
        spec.validate()?;
        if spec.op == OpKind::Substitute {
            return Err(
                "--delta cannot replay --op substitute: replacement symbols depend on \
                 alphabet interning order, which differs once added lines are interned \
                 after the patterns — use --op mark or --op delete \
                 (wire: \"op\":\"mark\" or \"op\":\"delete\")"
                    .to_string(),
            );
        }
        if !spec.regexes.is_empty() {
            return Err(
                "--delta maintains a per-pattern supporter index; --regex patterns \
                        are not supported — give --pattern"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// Parses `text` as the in-memory route does and sanitizes it once:
    /// the cold path. A plain session without exact counting first asks
    /// `warm` (given the database's length) for a persisted index to
    /// start from instead of scanning.
    pub fn build(
        spec: &HideSpec,
        text: &str,
        warm: impl FnOnce(usize) -> Option<WarmIndex>,
    ) -> Result<DeltaSession, String> {
        Self::check(spec)?;
        let config = spec.sanitizer();
        let (alphabet, state) = match Loaded::parse(spec, text)?.0 {
            Parsed::Plain(db, sh, _) => {
                let (alphabet, originals) = db.into_parts();
                let state = if spec.exact {
                    let state = build_plain(&config, &sh, originals, None);
                    SessionState::PlainExact(sh, state)
                } else {
                    let warm = warm(originals.len());
                    let state = build_plain(&config, &sh, originals, warm);
                    SessionState::Plain(sh, state)
                };
                (alphabet, state)
            }
            Parsed::String(db, patterns) => {
                let (alphabet, originals) = db.into_parts();
                let (sigma_len, op) = (alphabet.len(), spec.op);
                let domain = &mut StringDomain::<Sat64>::new(&patterns, sigma_len).with_op(op);
                let state = DeltaState::build(&config, domain, originals);
                let state = SessionState::String {
                    patterns,
                    sigma_len,
                    op,
                    state,
                };
                (alphabet, state)
            }
            Parsed::Itemset(alphabet, db, patterns) => {
                let domain = &mut ItemsetMatchEngine::<Sat64>::new(&patterns);
                let state = DeltaState::build(&config, domain, db);
                (alphabet, SessionState::Itemset(patterns, state))
            }
            Parsed::Timed(alphabet, db, patterns) => {
                let state =
                    DeltaState::build(&config, &mut TimedDomain::<Sat64>::new(&patterns), db);
                (alphabet, SessionState::Timed(patterns, state))
            }
        };
        Ok(DeltaSession { alphabet, state })
    }

    /// Applies one batch: `added` lines in the session's line format
    /// (each with the line number its parse errors cite) are appended,
    /// `removed` 0-based ordinals retired. A refused batch leaves the
    /// session untouched.
    pub fn apply(
        &mut self,
        added: &[(usize, &str)],
        removed: Vec<usize>,
    ) -> Result<DeltaReport, String> {
        let alphabet = &mut self.alphabet;
        match &mut self.state {
            SessionState::Plain(sh, state) => apply_plain(
                state,
                sh,
                parse_added(&PlainCodec, added, alphabet)?,
                removed,
            ),
            SessionState::PlainExact(sh, state) => apply_plain(
                state,
                sh,
                parse_added(&PlainCodec, added, alphabet)?,
                removed,
            ),
            SessionState::String {
                patterns,
                sigma_len,
                op,
                state,
            } => {
                let added = parse_added(&PlainCodec, added, alphabet)?;
                let domain = &mut StringDomain::<Sat64>::new(patterns, *sigma_len).with_op(*op);
                state.apply_delta(domain, SeqDelta { added, removed })
            }
            SessionState::Itemset(patterns, state) => {
                let added = parse_added(&ItemsetCodec, added, alphabet)?;
                let domain = &mut ItemsetMatchEngine::<Sat64>::new(patterns);
                state.apply_delta(domain, SeqDelta { added, removed })
            }
            SessionState::Timed(patterns, state) => {
                let added = parse_added(&TimedCodec, added, alphabet)?;
                let domain = &mut TimedDomain::<Sat64>::new(patterns);
                state.apply_delta(domain, SeqDelta { added, removed })
            }
        }
    }

    /// The mutated database (the originals), in its input line format.
    pub(crate) fn render_originals(&self) -> String {
        self.render(false)
    }

    /// The current release, in the input line format.
    pub fn render_release(&self) -> String {
        self.render(true)
    }

    fn render(&self, released: bool) -> String {
        let alphabet = &self.alphabet;
        match &self.state {
            SessionState::Plain(_, state) | SessionState::String { state, .. } => {
                render(&PlainCodec, alphabet, side(state, released))
            }
            SessionState::PlainExact(_, state) => {
                render(&PlainCodec, alphabet, side(state, released))
            }
            SessionState::Itemset(_, state) => {
                render(&ItemsetCodec, alphabet, side(state, released))
            }
            SessionState::Timed(_, state) => render(&TimedCodec, alphabet, side(state, released)),
        }
    }

    /// The state of a plain session without exact counting, whose
    /// supporter index can be persisted and warm-started from
    /// ([`WarmIndex`]); `None` for every other session.
    pub(crate) fn plain_state(&self) -> Option<&DeltaState<Sequence, Sat64>> {
        match &self.state {
            SessionState::Plain(_, state) => Some(state),
            _ => None,
        }
    }
}

/// The executed `sanitize` outcome. When a plain-mode request carries
/// both `patterns` and `regexes`, the counters aggregate the two
/// families (as the CLI's two head lines do) and `residual_supports`
/// lists plain-pattern supports first.
#[derive(Clone, Debug)]
pub struct SanitizeOutcome {
    /// The released database, byte-identical to what `seqhide hide`
    /// would write for the same request.
    pub release: String,
    /// Total marks introduced (M1).
    pub marks: usize,
    /// Sequences selected and sanitized.
    pub sequences_sanitized: usize,
    /// Sequences supporting at least one sensitive pattern beforehand.
    pub supporters_before: usize,
    /// Post-sanitization support per pattern.
    pub residual_supports: Vec<usize>,
    /// Whether every pattern ended at or below ψ.
    pub hidden: bool,
}

impl SanitizeOutcome {
    fn new<'a>(release: String, reports: impl IntoIterator<Item = &'a SanitizeReport>) -> Self {
        let mut outcome = SanitizeOutcome {
            release,
            marks: 0,
            sequences_sanitized: 0,
            supporters_before: 0,
            residual_supports: Vec::new(),
            hidden: true,
        };
        for report in reports {
            outcome.marks += report.marks_introduced;
            outcome.sequences_sanitized += report.sequences_sanitized;
            outcome.supporters_before += report.supporters_before;
            outcome
                .residual_supports
                .extend_from_slice(&report.residual_supports);
            outcome.hidden &= report.hidden;
        }
        outcome
    }
}

/// One fully-decoded `sanitize` request: a database and the spec to hide
/// in it.
#[derive(Clone, Debug)]
pub struct SanitizeSpec {
    /// Database text (inline or a resolved dataset) in the spec's line
    /// format.
    pub db: DbSource,
    /// The hide settings.
    pub hide: HideSpec,
}

impl std::ops::Deref for SanitizeSpec {
    type Target = HideSpec;

    fn deref(&self) -> &HideSpec {
        &self.hide
    }
}

/// Executes one `sanitize` request: the streamed route for datasets
/// served from disk, the in-memory route otherwise.
pub fn sanitize(spec: &SanitizeSpec) -> Result<SanitizeOutcome, String> {
    if let DbSource::Dataset(snapshot) = &spec.db {
        if snapshot.streams_from_disk() {
            return sanitize_streamed(spec, snapshot);
        }
    }
    let text = spec.db.text()?;
    let mut loaded = Loaded::parse(spec, &text)?;
    let reports = loaded.sanitize(spec)?;
    Ok(SanitizeOutcome::new(
        loaded.render(),
        reports.iter().map(|(_, report)| report),
    ))
}

/// A dataset over the resident cap, sanitized through the streamed route:
/// the shard store is read twice (one decompressed shard resident at a
/// time) and the output spills through a [`ShardWriter`], so peak memory
/// is bounded by the batch size and spill limit, not `|D|`.
fn sanitize_streamed(
    spec: &SanitizeSpec,
    snapshot: &DatasetSnapshot,
) -> Result<SanitizeOutcome, String> {
    let source = format!("dataset '{}'", snapshot.name());
    let open = || {
        snapshot
            .open_reader()
            .map(|reader| reader as Box<dyn BufRead>)
    };
    let mut out = ShardWriter::new(std::env::temp_dir(), STREAM_SPILL_BYTES);
    let report = hide_streamed(spec, &open, STREAM_BATCH_SEQS, &mut out, &source)?;
    let release = out
        .finish_to_string()
        .map_err(|e| format!("{source}: {e}"))?;
    Ok(SanitizeOutcome::new(release, [&report.report]))
}

/// One fully-decoded `verify` request: a plain-format database and the
/// spec whose `patterns`, ψ and gap/window bounds it is checked against
/// (like the CLI's `seqhide verify`).
pub type VerifySpec = SanitizeSpec;

/// The executed `verify` outcome. Unlike the CLI (whose `verify` exits
/// non-zero on a failed check), the service reports `hidden: false` as a
/// successful *query* — an auditing client is asking, not asserting.
#[derive(Clone, Debug)]
pub struct VerifyOutcome {
    /// Whether every pattern's support is ≤ ψ.
    pub hidden: bool,
    /// Support per pattern, in request order.
    pub supports: Vec<usize>,
    /// Each pattern as parsed, with its constraints (`⟨a c⟩`), in request
    /// order.
    pub rendered: Vec<String>,
}

/// Executes one `verify` request.
pub fn verify(spec: &VerifySpec) -> Result<VerifyOutcome, String> {
    if spec.patterns.is_empty() {
        return Err("give at least one --pattern (wire: \"patterns\")".to_string());
    }
    let text = spec.db.text()?;
    let mut db = SequenceDb::parse(&text);
    let sh = spec.sensitive_set(db.alphabet_mut())?;
    let report = seqhide_core::verify_hidden(&db, &sh, spec.psi);
    Ok(VerifyOutcome {
        hidden: report.hidden,
        supports: report.supports,
        rendered: sh.iter().map(|p| p.render(db.alphabet())).collect(),
    })
}

/// The executed `stats` outcome, per line format.
#[derive(Clone, Debug)]
pub enum StatsOutcome {
    /// Plain-mode shape summary.
    Plain {
        /// Number of sequences.
        sequences: usize,
        /// Total symbols across all sequences.
        symbols_total: usize,
        /// Mean sequence length.
        avg_len: f64,
        /// Longest sequence length.
        max_len: usize,
        /// Distinct symbols.
        alphabet: usize,
        /// Δ marks present.
        marks: usize,
    },
    /// Itemset-mode shape summary.
    Itemset {
        /// Number of sequences.
        sequences: usize,
        /// Total elements across all sequences.
        elements_total: usize,
        /// Total live items across all elements.
        items_total: usize,
        /// Distinct items.
        alphabet: usize,
        /// Δ marks present.
        marks: usize,
    },
    /// Timed-mode shape summary.
    Timed {
        /// Number of sequences.
        sequences: usize,
        /// Total events across all sequences.
        events_total: usize,
        /// Distinct symbols.
        alphabet: usize,
        /// Δ marks present.
        marks: usize,
    },
}

fn plain_stats(db: &SequenceDb) -> StatsOutcome {
    let s = db.stats();
    StatsOutcome::Plain {
        sequences: s.len,
        symbols_total: s.total_symbols,
        avg_len: s.avg_len,
        max_len: s.max_len,
        alphabet: s.alphabet_len,
        marks: s.marks,
    }
}

fn itemset_stats(alphabet: &Alphabet, db: &[ItemsetSequence]) -> StatsOutcome {
    StatsOutcome::Itemset {
        sequences: db.len(),
        elements_total: db.iter().map(ItemsetSequence::len).sum(),
        items_total: db
            .iter()
            .flat_map(|t| t.elements().iter())
            .map(seqhide_types::Itemset::live_len)
            .sum(),
        alphabet: alphabet.len(),
        marks: db.iter().map(ItemsetSequence::mark_count).sum(),
    }
}

fn timed_stats(alphabet: &Alphabet, db: &[TimedSequence]) -> StatsOutcome {
    StatsOutcome::Timed {
        sequences: db.len(),
        events_total: db.iter().map(TimedSequence::len).sum(),
        alphabet: alphabet.len(),
        marks: db.iter().map(TimedSequence::mark_count).sum(),
    }
}

/// Executes one `stats` request over `db` text in `mode`'s line format.
pub fn stats(db: &DbSource, mode: Mode) -> Result<StatsOutcome, String> {
    if let DbSource::Dataset(snapshot) = db {
        if snapshot.streams_from_disk() {
            return match mode {
                Mode::Plain | Mode::String => stats_plain_streamed(snapshot),
                _ => Err(format!(
                    "dataset '{}' is over the resident cap and served from disk; \
                     only plain-format stats can stream it",
                    snapshot.name()
                )),
            };
        }
    }
    let text = db.text()?;
    match mode {
        // String mode shares the plain line format, so its shape
        // summary is the plain one.
        Mode::Plain | Mode::String => Ok(plain_stats(&SequenceDb::parse(&text))),
        Mode::Itemset => {
            let (alphabet, parsed) = parse_itemset_db(&text);
            Ok(itemset_stats(&alphabet, &parsed))
        }
        Mode::Timed => {
            let (alphabet, parsed) = parse_timed_db(&text).map_err(|e| e.to_string())?;
            Ok(timed_stats(&alphabet, &parsed))
        }
    }
}

/// Plain-format stats streamed over a disk-backed dataset: one pass,
/// one decompressed shard resident, same formulas as
/// [`SequenceDb::stats`].
fn stats_plain_streamed(snapshot: &DatasetSnapshot) -> Result<StatsOutcome, String> {
    let mut alphabet = Alphabet::new();
    let mut reader = SeqReader::new(snapshot.open_reader().map_err(|e| e.to_string())?);
    let (mut sequences, mut symbols_total, mut max_len, mut marks) = (0usize, 0usize, 0usize, 0);
    while let Some(t) = reader.next_seq(&mut alphabet).map_err(|e| e.to_string())? {
        sequences += 1;
        symbols_total += t.len();
        max_len = max_len.max(t.len());
        marks += t.mark_count();
    }
    Ok(StatsOutcome::Plain {
        sequences,
        symbols_total,
        avg_len: if sequences == 0 {
            0.0
        } else {
            symbols_total as f64 / sequences as f64
        },
        max_len,
        alphabet: alphabet.len(),
        marks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain_spec(db: &str, patterns: &[&str]) -> SanitizeSpec {
        let mut hide = HideSpec::new(Mode::Plain, 0);
        hide.patterns = patterns.iter().map(|s| s.to_string()).collect();
        SanitizeSpec {
            db: DbSource::from(db),
            hide,
        }
    }

    #[test]
    fn sanitize_hides_and_reports() {
        let out = sanitize(&plain_spec("a b c\nb a c\na c\n", &["a c"])).unwrap();
        assert!(out.hidden);
        assert!(out.marks > 0);
        assert_eq!(out.residual_supports, vec![0]);
        // the release itself verifies clean
        let v = verify(&VerifySpec {
            db: DbSource::from(out.release.clone()),
            hide: plain_spec("", &["a c"]).hide,
        })
        .unwrap();
        assert!(v.hidden);
        assert_eq!(v.supports, vec![0]);
    }

    #[test]
    fn sanitize_rejects_empty_pattern_sets_and_bad_gaps() {
        let e = sanitize(&plain_spec("a b\n", &[])).unwrap_err();
        assert!(e.contains("nothing to hide"), "{e}");
        let mut spec = plain_spec("a b\n", &["a b"]);
        spec.hide.min_gap = 3;
        spec.hide.max_gap = Some(1);
        let e = sanitize(&spec).unwrap_err();
        assert!(e.contains("max_gap must be ≥ min_gap"), "{e}");
        let mut spec = plain_spec("a b\n", &["a b"]);
        spec.hide.mode = Mode::Itemset;
        spec.hide.regexes = vec!["a (b|c)".to_string()];
        let e = sanitize(&spec).unwrap_err();
        assert!(e.contains("plain mode only"), "{e}");
    }

    #[test]
    fn string_mode_edits_and_rejects_ops_elsewhere() {
        // Substitution rewrites one position per sensitive occurrence;
        // the release carries no Δ and no surviving occurrence.
        let mut spec = plain_spec("a b c\na b d\n", &["a b"]);
        spec.hide.mode = Mode::String;
        spec.hide.op = OpKind::Substitute;
        let out = sanitize(&spec).unwrap();
        assert!(out.hidden);
        assert!(out.marks > 0, "edits are counted in the marks field");
        assert!(!out.release.contains('Δ'), "{}", out.release);
        assert!(!out.release.contains("a b"), "{}", out.release);

        // Deletion shortens the sequences instead.
        spec.hide.op = OpKind::Delete;
        let out = sanitize(&spec).unwrap();
        assert!(out.hidden);
        assert!(!out.release.contains("a b"), "{}", out.release);

        // Every other mode is Δ-mark-only.
        let mut spec = plain_spec("a b\n", &["a b"]);
        spec.hide.op = OpKind::Delete;
        let e = sanitize(&spec).unwrap_err();
        assert!(e.contains("mode\":\"string"), "{e}");
    }

    #[test]
    fn stats_covers_all_three_modes() {
        match stats(&DbSource::from("a b c\nb c\n"), Mode::Plain).unwrap() {
            StatsOutcome::Plain {
                sequences,
                alphabet,
                ..
            } => {
                assert_eq!(sequences, 2);
                assert_eq!(alphabet, 3);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        match stats(&DbSource::from("bread,milk beer\n"), Mode::Itemset).unwrap() {
            StatsOutcome::Itemset {
                sequences,
                items_total,
                ..
            } => {
                assert_eq!(sequences, 1);
                assert_eq!(items_total, 3);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        match stats(&DbSource::from("login@0 search@15\n"), Mode::Timed).unwrap() {
            StatsOutcome::Timed {
                sequences,
                events_total,
                ..
            } => {
                assert_eq!(sequences, 1);
                assert_eq!(events_total, 2);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(stats(&DbSource::from("x@\n"), Mode::Timed).is_err());
    }

    #[test]
    fn mode_parse_matches_cli_surface() {
        assert_eq!(Mode::parse(None).unwrap(), Mode::Plain);
        assert_eq!(Mode::parse(Some("itemset")).unwrap(), Mode::Itemset);
        assert!(Mode::parse(Some("turbo")).is_err());
    }
}
