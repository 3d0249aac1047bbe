//! The traced `hide` run: the same library calls the CLI makes, with
//! timers around each call into a layer, all from outside the program.
//!
//! * [`Timed`] wraps any [`PatternDomain`] and times the matching calls
//!   the core drivers make: `is_supporter`/`matching_size` (supporter
//!   scan), `load`/`argmax`/`candidates`/`distort` (local marking) and
//!   `supports_pattern` (verify).
//! * [`TimedCodec`], [`TimedReader`] and the `open` counter time the
//!   streaming reader, parser and writer and mark the pass boundary.
//!
//! Layer times are summed per call; the caller reports the traced wall
//! time minus their sum as the unaccounted remainder.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::Rng;
use seqhide::core::{parse_algorithm, EngineMode, Sanitizer};
use seqhide::data::stream::{PlainCodec, StreamCodec};
use seqhide::matching::{
    ConstraintSet, EngineStats, Gap, LocalStrategy, MatchEngine, PatternDomain, SensitivePattern,
    SensitiveSet,
};
use seqhide::num::Sat64;
use seqhide::types::{Alphabet, OpKind, Sequence};
use seqhide_obs::Phase;

/// Per-layer totals shared by every domain instance of one run.
/// Relaxed atomics: they are statistics and publish no other data.
pub struct Tally {
    base: Instant,
    scan_ns: AtomicU64,
    probed: AtomicU64,
    supporters: AtomicU64,
    last_scan_end_ns: AtomicU64,
    first_load_ns: AtomicU64,
    local_ns: AtomicU64,
    verify_ns: AtomicU64,
    victim_ns: Mutex<Vec<u64>>,
    read_ns: AtomicU64,
    parse_ns: AtomicU64,
    write_ns: AtomicU64,
    opens: Mutex<Vec<u64>>,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            base: Instant::now(),
            scan_ns: AtomicU64::new(0),
            probed: AtomicU64::new(0),
            supporters: AtomicU64::new(0),
            last_scan_end_ns: AtomicU64::new(0),
            first_load_ns: AtomicU64::new(u64::MAX),
            local_ns: AtomicU64::new(0),
            verify_ns: AtomicU64::new(0),
            victim_ns: Mutex::new(Vec::new()),
            read_ns: AtomicU64::new(0),
            parse_ns: AtomicU64::new(0),
            write_ns: AtomicU64::new(0),
            opens: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A timing wrapper over a [`PatternDomain`]. It delegates every method,
/// including the ones with default bodies, so the wrapped run makes
/// exactly the calls the untraced run makes.
pub struct Timed<'a, D> {
    inner: D,
    tally: &'a Tally,
    victim_ns: Option<u64>,
}

impl<'a, D> Timed<'a, D> {
    fn new(inner: D, tally: &'a Tally) -> Self {
        Timed {
            inner,
            tally,
            victim_ns: None,
        }
    }

    fn local(&mut self, t: Instant) {
        let ns = ns_since(t);
        self.tally.local_ns.fetch_add(ns, Relaxed);
        if let Some(v) = self.victim_ns.as_mut() {
            *v += ns;
        }
    }

    fn end_victim(&mut self) {
        if let Some(ns) = self.victim_ns.take() {
            self.tally
                .victim_ns
                .lock()
                .expect("victim timer lock poisoned")
                .push(ns);
        }
    }

    fn scanned(&self, t: Instant) {
        self.tally.scan_ns.fetch_add(ns_since(t), Relaxed);
        self.tally
            .last_scan_end_ns
            .store(self.tally.now_ns(), Relaxed);
    }
}

impl<D> Drop for Timed<'_, D> {
    fn drop(&mut self) {
        if let Some(ns) = self.victim_ns.take() {
            if let Ok(mut v) = self.tally.victim_ns.lock() {
                v.push(ns);
            }
        }
    }
}

impl<D: PatternDomain> PatternDomain for Timed<'_, D> {
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
        let start = Instant::now();
        let yes = self.inner.is_supporter(t);
        self.scanned(start);
        self.tally.probed.fetch_add(1, Relaxed);
        self.tally.supporters.fetch_add(u64::from(yes), Relaxed);
        yes
    }
    fn matching_size(&mut self, t: &D::Seq) -> D::Count {
        let start = Instant::now();
        let size = self.inner.matching_size(t);
        self.scanned(start);
        size
    }
    fn seq_len(&self, t: &D::Seq) -> usize {
        self.inner.seq_len(t)
    }
    fn distinct_ratio(&self, t: &D::Seq) -> f64 {
        self.inner.distinct_ratio(t)
    }
    fn load(&mut self, t: &D::Seq) {
        self.end_victim();
        let start = Instant::now();
        let _ = self
            .tally
            .first_load_ns
            .fetch_min(self.tally.now_ns(), Relaxed);
        self.victim_ns = Some(0);
        self.inner.load(t);
        self.local(start);
    }
    fn argmax(&mut self, t: &mut D::Seq) -> Option<usize> {
        let start = Instant::now();
        let pos = self.inner.argmax(t);
        self.local(start);
        pos
    }
    fn candidates(&mut self, t: &mut D::Seq) -> &[usize] {
        let start = Instant::now();
        let (tally, victim) = (self.tally, &mut self.victim_ns);
        let positions = self.inner.candidates(t);
        let ns = ns_since(start);
        tally.local_ns.fetch_add(ns, Relaxed);
        if let Some(v) = victim.as_mut() {
            *v += ns;
        }
        positions
    }
    fn distort<R: Rng + ?Sized>(
        &mut self,
        t: &mut D::Seq,
        pos: usize,
        strategy: LocalStrategy,
        rng: &mut R,
    ) -> usize {
        let start = Instant::now();
        let marks = self.inner.distort(t, pos, strategy, rng);
        self.local(start);
        marks
    }
    fn supports_pattern(&mut self, t: &D::Seq, k: usize) -> bool {
        self.end_victim();
        let start = Instant::now();
        let yes = self.inner.supports_pattern(t, k);
        self.tally.verify_ns.fetch_add(ns_since(start), Relaxed);
        yes
    }
    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }
}

/// Times `read_line` on the streaming source (file IO and line splitting).
/// It owns a handle on the tally: the driver's readers are `'static`.
struct TimedReader {
    inner: BufReader<File>,
    tally: Arc<Tally>,
}

impl Read for TimedReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let start = Instant::now();
        let n = self.inner.read(buf);
        self.tally.read_ns.fetch_add(ns_since(start), Relaxed);
        n
    }
}

impl BufRead for TimedReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.inner.fill_buf()
    }
    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt)
    }
    fn read_line(&mut self, buf: &mut String) -> io::Result<usize> {
        let start = Instant::now();
        let n = self.inner.read_line(buf);
        self.tally.read_ns.fetch_add(ns_since(start), Relaxed);
        n
    }
}

/// Times line parsing and line writing in the streaming driver.
struct TimedCodec<'a> {
    tally: &'a Tally,
}

impl StreamCodec for TimedCodec<'_> {
    type Seq = Sequence;

    fn parse_line(
        &self,
        lineno: usize,
        line: &str,
        alphabet: &mut Alphabet,
    ) -> io::Result<Sequence> {
        let start = Instant::now();
        let t = PlainCodec.parse_line(lineno, line, alphabet);
        self.tally.parse_ns.fetch_add(ns_since(start), Relaxed);
        t
    }
    fn write_line(&self, alphabet: &Alphabet, t: &Sequence, out: &mut dyn Write) -> io::Result<()> {
        let start = Instant::now();
        let r = PlainCodec.write_line(alphabet, t, out);
        self.tally.write_ns.fetch_add(ns_since(start), Relaxed);
        r
    }
    fn resident_bytes(&self, t: &Sequence) -> u64 {
        PlainCodec.resident_bytes(t)
    }
}

/// The `hide` settings the benchmark uses: HH, one thread, incremental
/// engine, saturating counts — the CLI defaults plus `--threads 1`.
pub struct HideArgs {
    pub db: String,
    pub out: String,
    pub patterns: Vec<String>,
    pub psi: usize,
    pub max_gap: Option<usize>,
    pub seed: u64,
    pub stream: bool,
}

fn sensitive_set(args: &HideArgs, alphabet: &mut Alphabet) -> Result<SensitiveSet, String> {
    let cs = match args.max_gap {
        None => ConstraintSet::none(),
        Some(max) => ConstraintSet::uniform_gap(Gap {
            min: 0,
            max: Some(max),
        }),
    };
    let mut patterns = Vec::new();
    for p in &args.patterns {
        let seq = Sequence::parse(p, alphabet);
        patterns.push(SensitivePattern::new(seq, cs.clone()).map_err(|e| format!("{p}: {e}"))?);
    }
    Ok(SensitiveSet::from_patterns(patterns))
}

fn quantile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[i] as f64 / 1e3
}

/// Runs one traced `hide` and prints `key value` lines.
pub fn run(args: &HideArgs) -> Result<(), String> {
    let tally = Arc::new(Tally::new());
    let (local, global) = parse_algorithm("hh").expect("hh is a known algorithm");
    let sanitizer = Sanitizer::new(local, global, args.psi)
        .with_seed(args.seed)
        .with_exact_counts(false)
        .with_engine(EngineMode::Incremental)
        .with_threads(1);
    let io_err = |e: io::Error| e.to_string();
    let start = Instant::now();
    let mut out: Vec<(&str, f64)> = Vec::new();
    let (report, select_end_ns) = if args.stream {
        let mut alphabet = Alphabet::new();
        let sh = sensitive_set(args, &mut alphabet)?;
        let open = || -> io::Result<Box<dyn BufRead>> {
            tally
                .opens
                .lock()
                .expect("pass timer lock poisoned")
                .push(tally.now_ns());
            Ok(Box::new(TimedReader {
                inner: BufReader::new(File::open(&args.db)?),
                tally: Arc::clone(&tally),
            }))
        };
        let mut sink = BufWriter::new(File::create(&args.out).map_err(io_err)?);
        let sr = sanitizer
            .run_streaming_domain_from(
                &open,
                &mut alphabet,
                &TimedCodec { tally: &tally },
                &|| Timed::new(MatchEngine::<Sat64>::new(&sh), &tally),
                1024,
                &mut sink,
            )
            .map_err(io_err)?;
        let flush = Instant::now();
        sink.flush().map_err(io_err)?;
        tally.write_ns.fetch_add(ns_since(flush), Relaxed);
        let opens = tally
            .opens
            .lock()
            .expect("pass timer lock poisoned")
            .clone();
        if opens.len() != 2 {
            return Err(format!("expected two passes, saw {}", opens.len()));
        }
        let end_ns = tally.now_ns();
        out.push(("stream.pass1_s", (opens[1] - opens[0]) as f64 / 1e9));
        out.push(("stream.pass2_s", (end_ns - opens[1]) as f64 / 1e9));
        out.push(("stream.batches", sr.batches as f64));
        out.push(("stream.peak_batch_kb", sr.peak_batch_bytes as f64 / 1024.0));
        (sr.report, opens[1])
    } else {
        let parse = Instant::now();
        let mut db = seqhide::data::io::read_db(&args.db).map_err(io_err)?;
        tally.parse_ns.fetch_add(ns_since(parse), Relaxed);
        let sh = sensitive_set(args, db.alphabet_mut())?;
        let report = sanitizer.run_domain_threaded(db.sequences_mut(), &|| {
            Timed::new(MatchEngine::<Sat64>::new(&sh), &tally)
        });
        let write = Instant::now();
        seqhide::data::io::write_db(&args.out, &db).map_err(io_err)?;
        tally.write_ns.fetch_add(ns_since(write), Relaxed);
        for k in [
            "stream.pass1_s",
            "stream.pass2_s",
            "stream.batches",
            "stream.peak_batch_kb",
        ] {
            out.push((k, 0.0));
        }
        (report, tally.first_load_ns.load(Relaxed))
    };
    let wall = start.elapsed().as_secs_f64();
    let last_scan = tally.last_scan_end_ns.load(Relaxed);
    let select_ns = if select_end_ns != u64::MAX && select_end_ns > last_scan {
        select_end_ns - last_scan
    } else {
        0
    };
    let mut victims = tally
        .victim_ns
        .lock()
        .expect("victim timer lock poisoned")
        .clone();
    victims.sort_unstable();
    // The highest percentile with at least ten victims beyond it.
    let tail_q = if victims.len() > 10 {
        (victims.len() - 11) as f64 / (victims.len() - 1) as f64
    } else {
        1.0
    };
    let secs = |a: &AtomicU64| a.load(Relaxed) as f64 / 1e9;
    out.extend([
        ("wall_s", wall),
        ("data.read_s", secs(&tally.read_ns)),
        ("data.parse_s", secs(&tally.parse_ns)),
        ("data.write_s", secs(&tally.write_ns)),
        ("matching.scan_s", secs(&tally.scan_ns)),
        ("matching.probed", tally.probed.load(Relaxed) as f64),
        ("matching.supporters", tally.supporters.load(Relaxed) as f64),
        ("core.select_s", select_ns as f64 / 1e9),
        ("core.local_s", secs(&tally.local_ns)),
        ("core.verify_s", secs(&tally.verify_ns)),
        ("core.victims", victims.len() as f64),
        ("core.victim_p50_us", quantile_us(&victims, 0.5)),
        ("core.victim_tail_us", quantile_us(&victims, tail_q)),
        ("core.victim_tail_pct", tail_q * 100.0),
        ("matching.cell_repairs", report.engine_repairs as f64),
        (
            "matching.fallback_recounts",
            report.fallback_recounts as f64,
        ),
        ("marks", report.marks_introduced as f64),
    ]);
    for (k, v) in out {
        println!("{k} {v}");
    }
    Ok(())
}
