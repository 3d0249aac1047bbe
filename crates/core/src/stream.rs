//! Bounded-memory streaming sanitization: the two-level algorithm as a
//! two-pass pipeline over a file, never holding more than one batch of
//! sequences resident.
//!
//! The paper's algorithm (§4) is naturally two-pass:
//!
//! 1. **Pass 1** streams the database once, keeping only a
//!    [`SupporterStat`](crate::global::SupporterStat) per *supporting* sequence — the ordinal plus the
//!    one statistic the global strategy sorts by (matching-set size for
//!    the paper's heuristic, per Lemma 2) in a
//!    [`SupporterIndex`]. Victim selection then runs on that small index
//!    via [`crate::global::select_victims_from_stats`], which is the
//!    exact code path [`select_victims`](crate::global::select_victims)
//!    delegates to in memory.
//! 2. **Pass 2** re-streams the file in batches of `batch_size`
//!    sequences, routes the victims among them through the same
//!    per-worker [`PatternDomain`] marking loop as [`Sanitizer::run`],
//!    and writes every sequence (sanitized or untouched) to the sink as
//!    soon as its batch completes. Residual supports are tallied on the
//!    way out, so the run ends with a full [`SanitizeReport`] without a
//!    third pass.
//!
//! Both passes are generic over the pattern class: a [`PatternDomain`]
//! supplies counting, marking, and verification; a [`StreamCodec`]
//! supplies the line format. [`Sanitizer::run_streaming`] instantiates
//! them for plain patterns; the hide pipeline in `seqhide-serve`'s `exec`
//! module instantiates the same driver for every other pattern class.
//!
//! **Why the output is byte-identical to the in-memory path.** Every
//! victim draws from an RNG derived from `(seed, selection ordinal)`
//! (the invariant [`Sanitizer::with_threads`] documents), the selection
//! ordinals come from the shared `select_victims_from_stats`, and victim
//! sequences are mutually independent — so neither batching, nor
//! scheduling, nor engine reuse can change a single mark. The only state
//! that scales with the database is the supporter index (ordinals of
//! supporters, not their content), which the hiding problem itself makes
//! small relative to `|D|` in the regimes worth streaming.
//!
//! Peak memory is governed by `batch_size`: the
//! [`Gauge::PeakResidentBatch`] telemetry gauge records the high-water
//! mark of resident batch bytes, and the CI memory-ceiling smoke asserts
//! it stays sublinear in `|D|`.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

use seqhide_data::stream::{PlainCodec, SeqReader, StreamCodec};
use seqhide_match::{EngineStats, PatternDomain, SensitiveSet};
use seqhide_obs::{self as obs, Gauge, Phase};
use seqhide_types::{Alphabet, Sequence};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::index::SupporterIndex;
use crate::sanitizer::{PlainRun, SanitizeReport, Sanitizer};
use crate::verify::VerifyReport;

/// Outcome of one streaming run: the same [`SanitizeReport`] the
/// in-memory path produces, plus streaming-specific accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamReport {
    /// The sanitization report — field-for-field identical to what
    /// [`Sanitizer::run`] returns on the same input and configuration.
    pub report: SanitizeReport,
    /// Total sequences streamed (`|D|`).
    pub sequences_total: usize,
    /// Pass-2 batches processed.
    pub batches: usize,
    /// High-water mark of resident batch payload bytes (also exported as
    /// the `peak_resident_batch` telemetry gauge).
    pub peak_batch_bytes: u64,
}

impl StreamReport {
    /// The hiding verification implied by the report (pass 2 tallied the
    /// residual supports, so no extra pass is needed).
    pub fn verify(&self, psi: usize) -> VerifyReport {
        VerifyReport {
            hidden: self.report.hidden,
            supports: self.report.residual_supports.clone(),
            thresholds: vec![psi; self.report.residual_supports.len()],
        }
    }
}

/// Adapts a file path to the reader-factory contract of the `_from`
/// entry points: each call reopens the file from the top.
fn open_factory(input: &Path) -> impl Fn() -> io::Result<Box<dyn BufRead>> + '_ {
    move || Ok(Box::new(BufReader::new(File::open(input)?)) as Box<dyn BufRead>)
}

impl Sanitizer {
    /// Streams `input` through the two-pass pipeline, writing the
    /// sanitized database to `sink` and keeping at most `batch_size`
    /// sequences resident. `alphabet` must already contain the sensitive
    /// patterns' symbols (it grows with the file's symbols as passes
    /// proceed). Output and report are byte-identical to parsing the
    /// whole file and calling [`Sanitizer::run`].
    ///
    /// This is the plain-pattern entry point: it dispatches the
    /// configured arithmetic and counting core to a [`PatternDomain`]
    /// and hands off to [`Sanitizer::run_streaming_domain`].
    ///
    /// `batch_size = 0` is clamped to 1.
    pub fn run_streaming(
        &self,
        input: &Path,
        alphabet: &mut Alphabet,
        sh: &SensitiveSet,
        batch_size: usize,
        sink: &mut dyn Write,
    ) -> io::Result<StreamReport> {
        self.run_streaming_from(&open_factory(input), alphabet, sh, batch_size, sink)
    }

    /// [`Sanitizer::run_streaming`] over any rewindable source: `open`
    /// is called once per pass and must return a fresh reader over the
    /// same bytes each time (a file reopen, a shard-store cursor, an
    /// in-memory slice). This is what lets the serve registry stream
    /// disk-backed datasets without materializing them to a temp file.
    pub fn run_streaming_from(
        &self,
        open: &dyn Fn() -> io::Result<Box<dyn BufRead>>,
        alphabet: &mut Alphabet,
        sh: &SensitiveSet,
        batch_size: usize,
        sink: &mut dyn Write,
    ) -> io::Result<StreamReport> {
        type Open<'a> = &'a dyn Fn() -> io::Result<Box<dyn BufRead>>;
        struct Stream<'a>(
            &'a Sanitizer,
            Open<'a>,
            &'a mut Alphabet,
            usize,
            &'a mut dyn Write,
        );
        impl PlainRun for Stream<'_> {
            type Output = io::Result<StreamReport>;
            fn run<D: PatternDomain<Seq = Sequence>>(
                self,
                make: &(dyn Fn() -> D + Sync),
            ) -> io::Result<StreamReport> {
                let Stream(sanitizer, open, alphabet, batch_size, sink) = self;
                sanitizer.run_streaming_domain_from(
                    open,
                    alphabet,
                    &PlainCodec,
                    make,
                    batch_size,
                    sink,
                )
            }
        }
        let stream = Stream(self, open, alphabet, batch_size, sink);
        self.with_plain_domain(sh, stream)
    }

    /// The generic two-pass streaming driver: any [`PatternDomain`]
    /// (built per worker by `make`) paired with the [`StreamCodec`] for
    /// its line format. Output and report are byte-identical to loading
    /// the whole file and calling [`Sanitizer::run_domain_threaded`]
    /// with the same `make` — both paths select victims through
    /// [`crate::global::select_victims_from_stats`] and key each victim's RNG by its
    /// *selection* ordinal, so batching and scheduling cannot change a
    /// single mark.
    ///
    /// `batch_size = 0` is clamped to 1.
    pub fn run_streaming_domain<D, K>(
        &self,
        input: &Path,
        alphabet: &mut Alphabet,
        codec: &K,
        make: &(dyn Fn() -> D + Sync),
        batch_size: usize,
        sink: &mut dyn Write,
    ) -> io::Result<StreamReport>
    where
        D: PatternDomain,
        K: StreamCodec<Seq = D::Seq>,
    {
        self.run_streaming_domain_from(
            &open_factory(input),
            alphabet,
            codec,
            make,
            batch_size,
            sink,
        )
    }

    /// [`Sanitizer::run_streaming_domain`] over any rewindable source
    /// (see [`Sanitizer::run_streaming_from`] for the `open` contract).
    pub fn run_streaming_domain_from<D, K>(
        &self,
        open: &dyn Fn() -> io::Result<Box<dyn BufRead>>,
        alphabet: &mut Alphabet,
        codec: &K,
        make: &(dyn Fn() -> D + Sync),
        batch_size: usize,
        sink: &mut dyn Write,
    ) -> io::Result<StreamReport>
    where
        D: PatternDomain,
        K: StreamCodec<Seq = D::Seq>,
    {
        let batch_size = batch_size.max(1);
        let strategy = self.global();
        let mut main = make();

        // Pass 1: supporter scan — retain (ordinal, sort key) per
        // supporter into a SupporterIndex, nothing else.
        let (index, sequences_total) = {
            let _span = obs::span(Phase::StreamPass1);
            let mut reader = SeqReader::new(open()?);
            let mut index: SupporterIndex<D::Count> = SupporterIndex::new();
            let mut ordinal = 0usize;
            while let Some(t) = reader.next_record(codec, alphabet)? {
                index.record(&mut main, ordinal, strategy, &t);
                ordinal += 1;
            }
            (index, ordinal)
        };
        let supporters_before = index.len();

        // Victim selection on the small index — the same code path (and
        // the same RNG stream) as the in-memory Sanitizer::run.
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed());
        let victims = index.select(self.psi(), strategy, &mut rng);
        drop(index);
        // database ordinal → selection ordinal (the per-victim RNG key)
        let selection_ordinal: HashMap<usize, usize> =
            victims.iter().enumerate().map(|(o, &i)| (i, o)).collect();

        // Pass 2: batched sanitize + incremental write + residual tally.
        let _span = obs::span(Phase::StreamPass2);
        obs::progress::begin("sanitize (stream)", victims.len() as u64);
        let mut reader = SeqReader::new(open()?);
        let mut stats_total = EngineStats::default();
        let mut residual = vec![0usize; main.pattern_count()];
        let mut marks = 0usize;
        let mut batches = 0usize;
        let mut peak_batch_bytes = 0u64;
        let mut next_ordinal = 0usize;
        let mut batch: Vec<(usize, D::Seq)> = Vec::with_capacity(batch_size);
        loop {
            batch.clear();
            while batch.len() < batch_size {
                match reader.next_record(codec, alphabet)? {
                    Some(t) => {
                        batch.push((next_ordinal, t));
                        next_ordinal += 1;
                    }
                    None => break,
                }
            }
            if batch.is_empty() {
                break;
            }
            batches += 1;
            let bytes: u64 = batch.iter().map(|(_, t)| codec.resident_bytes(t)).sum();
            peak_batch_bytes = peak_batch_bytes.max(bytes);
            obs::gauge_max(Gauge::PeakResidentBatch, bytes);

            let threads = self.resolved_threads();
            if threads <= 1 {
                for (ordinal, t) in batch.iter_mut() {
                    if let Some(&sel) = selection_ordinal.get(ordinal) {
                        marks += self.sanitize_one_domain(&mut main, t, sel);
                        obs::progress::bump("sanitize (stream)", 1);
                    }
                }
            } else {
                stats_total += self.sanitize_batch_parallel(
                    &mut batch,
                    make,
                    &selection_ordinal,
                    threads,
                    &mut marks,
                );
            }

            for (_, t) in &batch {
                for (pi, r) in residual.iter_mut().enumerate() {
                    if main.supports_pattern(t, pi) {
                        *r += 1;
                    }
                }
                codec.write_line(alphabet, t, &mut *sink)?;
            }
        }
        obs::progress::finish("sanitize (stream)");
        stats_total += main.stats();
        debug_assert_eq!(
            next_ordinal, sequences_total,
            "pass 2 re-read a different file"
        );

        let hidden = residual.iter().all(|&s| s <= self.psi());
        Ok(StreamReport {
            report: SanitizeReport {
                marks_introduced: marks,
                sequences_sanitized: victims.len(),
                supporters_before,
                residual_supports: residual,
                hidden,
                engine_repairs: stats_total.cell_repairs as usize,
                fallback_recounts: stats_total.fallback_recounts as usize,
            },
            sequences_total,
            batches,
            peak_batch_bytes,
        })
    }

    /// Fans one batch's victims out over scoped threads, striped by
    /// selection ordinal (the same balancing device as the in-memory
    /// path). Per-victim RNGs keyed by selection ordinal make the result
    /// independent of the striping.
    fn sanitize_batch_parallel<D: PatternDomain>(
        &self,
        batch: &mut [(usize, D::Seq)],
        make: &(dyn Fn() -> D + Sync),
        selection_ordinal: &HashMap<usize, usize>,
        threads: usize,
        marks: &mut usize,
    ) -> EngineStats {
        let mut stripes: Vec<Vec<(usize, usize, D::Seq)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (slot, (ordinal, t)) in batch.iter_mut().enumerate() {
            if let Some(&sel) = selection_ordinal.get(ordinal) {
                stripes[sel % threads].push((sel, slot, std::mem::take(t)));
            }
        }
        let (batch_marks, stats) = std::thread::scope(|scope| {
            let handles: Vec<_> = stripes
                .iter_mut()
                .map(|stripe| {
                    scope.spawn(move || {
                        let mut marks = 0;
                        let mut domain = make();
                        for (sel, _, t) in stripe.iter_mut() {
                            marks += self.sanitize_one_domain(&mut domain, t, *sel);
                            obs::progress::bump("sanitize (stream)", 1);
                        }
                        (marks, domain.stats())
                    })
                })
                .collect();
            let mut marks = 0;
            let mut stats = EngineStats::default();
            for h in handles {
                let (m, s) = h.join().expect("stream sanitizer thread panicked");
                marks += m;
                stats += s;
            }
            (marks, stats)
        });
        for stripe in stripes {
            for (_, slot, t) in stripe {
                batch[slot].1 = t;
            }
        }
        *marks += batch_marks;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqhide_types::{Sequence, SequenceDb};

    fn write_tmp(name: &str, text: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("seqhide-core-stream");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    /// Runs both paths on the same input and asserts byte + report parity.
    fn assert_parity(
        name: &str,
        text: &str,
        sanitizer: &Sanitizer,
        patterns: &[&str],
        batch: usize,
    ) {
        let path = write_tmp(name, text);
        // in-memory
        let mut db = SequenceDb::parse(text);
        let sh = SensitiveSet::new(
            patterns
                .iter()
                .map(|p| Sequence::parse(p, db.alphabet_mut()))
                .collect(),
        );
        let mem_report = sanitizer.run(&mut db, &sh);
        // streaming (fresh alphabet: patterns interned first)
        let mut alphabet = Alphabet::new();
        let sh_s = SensitiveSet::new(
            patterns
                .iter()
                .map(|p| Sequence::parse(p, &mut alphabet))
                .collect(),
        );
        let mut out = Vec::new();
        let stream = sanitizer
            .run_streaming(&path, &mut alphabet, &sh_s, batch, &mut out)
            .unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            db.to_text(),
            "{name}: bytes diverged"
        );
        assert_eq!(stream.report, mem_report, "{name}: reports diverged");
        assert_eq!(stream.sequences_total, db.len());
    }

    #[test]
    fn streaming_matches_in_memory_small_batches() {
        let text = "a b c\nb a c\nc a b c\na c\nb b\nc a\na b a c\n";
        for batch in [1, 2, 3, 100] {
            assert_parity(
                &format!("hh-{batch}.seq"),
                text,
                &Sanitizer::hh(1),
                &["a c"],
                batch,
            );
        }
    }

    #[test]
    fn streaming_matches_in_memory_random_strategies() {
        let text = "a b c\nb a c\nc a b c\na c\nb b\nc a\na b a c\n";
        for make in [Sanitizer::hr, Sanitizer::rh, Sanitizer::rr] {
            assert_parity("rand.seq", text, &make(1).with_seed(42), &["a c"], 2);
        }
    }

    #[test]
    fn streaming_matches_in_memory_threaded() {
        let text = "a b c\nb a c\nc a b c\na c\nb b\nc a\na b a c\n";
        assert_parity(
            "threads.seq",
            text,
            &Sanitizer::rr(0).with_seed(9).with_threads(3),
            &["a c"],
            2,
        );
    }

    #[test]
    fn no_supporters_is_a_clean_copy() {
        let text = "a b\nb c\n";
        let path = write_tmp("nosup.seq", text);
        let mut alphabet = Alphabet::new();
        let sh = SensitiveSet::new(vec![Sequence::parse("z z", &mut alphabet)]);
        let mut out = Vec::new();
        let r = Sanitizer::hh(0)
            .run_streaming(&path, &mut alphabet, &sh, 4, &mut out)
            .unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), text);
        assert!(r.report.hidden);
        assert_eq!(r.report.marks_introduced, 0);
        assert_eq!(r.report.supporters_before, 0);
    }

    #[test]
    fn peak_batch_bytes_is_bounded_by_batch_size() {
        let text = "a b\n".repeat(64);
        let path = write_tmp("peak.seq", &text);
        let mut alphabet = Alphabet::new();
        let sh = SensitiveSet::new(vec![Sequence::parse("a b", &mut alphabet)]);
        let mut out = Vec::new();
        let r = Sanitizer::hh(0)
            .run_streaming(&path, &mut alphabet, &sh, 4, &mut out)
            .unwrap();
        assert_eq!(r.batches, 16);
        // 4 sequences × 2 symbols × 4 bytes
        assert_eq!(r.peak_batch_bytes, 32);
        let whole: u64 = SequenceDb::parse(&text)
            .sequences()
            .iter()
            .map(|t| PlainCodec.resident_bytes(t))
            .sum();
        assert!(r.peak_batch_bytes < whole);
    }

    #[test]
    fn batch_size_zero_is_clamped() {
        let path = write_tmp("clamp.seq", "a b\n");
        let mut alphabet = Alphabet::new();
        let sh = SensitiveSet::new(vec![Sequence::parse("a b", &mut alphabet)]);
        let mut out = Vec::new();
        let r = Sanitizer::hh(0)
            .run_streaming(&path, &mut alphabet, &sh, 0, &mut out)
            .unwrap();
        assert_eq!(r.batches, 1);
        assert!(r.report.hidden);
    }
}
