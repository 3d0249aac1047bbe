//! Bounded-memory streaming sanitization: the two-level algorithm as a
//! two-pass pipeline over a file, never holding more than one batch of
//! sequences resident.
//!
//! The paper's algorithm (§4) is naturally two-pass:
//!
//! 1. **Pass 1** streams the database once, keeping only a
//!    [`SupporterStat`](crate::global::SupporterStat) per *supporting*
//!    sequence — the ordinal plus the one statistic the global strategy
//!    sorts by (matching-set size for the paper's heuristic, per Lemma 2)
//!    in a [`SupporterIndex`]. Victim selection then runs on that small
//!    index exactly as it does in memory, via [`SupporterIndex::select`].
//! 2. **Pass 2** re-streams the file in batches of `batch_size`
//!    sequences, routes the victims among them through the same victim
//!    fan-out as [`Sanitizer::run`], and writes every sequence (sanitized
//!    or untouched) to the sink as soon as its batch completes. Residual
//!    supports are tallied on the way out under the residual rule of
//!    [`crate::index`]: only the supporters pass 1 recorded are probed,
//!    every other sequence counts 0. The run ends with a full
//!    [`SanitizeReport`] without a third pass. Pass 2 marks victims by
//!    pass-1 ordinals, so a source that yields a different number of
//!    sequences the second time fails the run with
//!    [`io::ErrorKind::InvalidData`].
//!
//! Both passes are generic over the pattern class: a [`PatternDomain`]
//! supplies counting, marking, and verification; a [`StreamCodec`]
//! supplies the line format. [`Sanitizer::run_streaming_from`]
//! instantiates them for plain patterns; the hide pipeline in
//! `seqhide-serve`'s `exec` module instantiates the same driver,
//! [`Sanitizer::run_streaming_domain_from`], for every other pattern
//! class. Both read through a reader factory the caller owns — a file
//! reopened per pass, a shard-store cursor, an in-memory slice.
//!
//! **Why the output is byte-identical to the in-memory path.** Every
//! victim draws from an RNG derived from `(seed, selection ordinal)`
//! (the invariant [`Sanitizer::with_threads`] documents), the selection
//! ordinals come from the shared [`SupporterIndex::select`], and victim
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

use std::io::{self, BufRead, Write};

use seqhide_data::stream::{PlainCodec, SeqReader, StreamCodec};
use seqhide_match::{EngineStats, PatternDomain, SensitiveSet};
use seqhide_obs::{self as obs, Gauge, Phase};
use seqhide_types::{Alphabet, Sequence};

use crate::index::{tally, SupporterIndex};
use crate::sanitizer::{by_ordinal, victim_jobs, PlainRun, SanitizeReport, Sanitizer};

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

impl Sanitizer {
    /// Streams the database `open` yields through the two-pass
    /// pipeline, writing the sanitized database to `sink` and keeping at
    /// most `batch_size` sequences resident. `open` is called once per
    /// pass and must return a fresh reader over the same bytes each time
    /// (a file reopen, a shard-store cursor, an in-memory slice).
    /// `alphabet` must already contain the sensitive patterns' symbols (it
    /// grows with the source's symbols as passes proceed). Output and
    /// report are byte-identical to parsing the whole source and calling
    /// [`Sanitizer::run`].
    ///
    /// This is the plain-pattern entry point: it dispatches the
    /// configured arithmetic and counting core to a [`PatternDomain`]
    /// and hands off to [`Sanitizer::run_streaming_domain_from`].
    ///
    /// `batch_size = 0` is clamped to 1.
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
    /// its line format, over any rewindable source (see
    /// [`Sanitizer::run_streaming_from`] for the `open` contract). Output
    /// and report are byte-identical to loading the whole source and
    /// calling [`Sanitizer::run_domain_threaded`] with the same `make` —
    /// both paths select victims through [`SupporterIndex::select`] and
    /// key each victim's RNG by its *selection* ordinal, so batching and
    /// scheduling cannot change a single mark.
    ///
    /// `batch_size = 0` is clamped to 1.
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
        let mut main = make();

        // Pass 1: supporter scan — retain (ordinal, sort key) per
        // supporter into a SupporterIndex, nothing else.
        let (index, sequences_total) = {
            let _span = obs::span(Phase::StreamPass1);
            let mut reader = SeqReader::new(open()?);
            let mut index: SupporterIndex<D::Count> = SupporterIndex::new();
            let mut ordinal = 0usize;
            while let Some(t) = reader.next_record(codec, alphabet)? {
                index.record(&mut main, ordinal, self.global(), &t);
                ordinal += 1;
            }
            (index, ordinal)
        };

        // Victim selection on the small index — the same code path (and
        // the same RNG stream) as the in-memory run.
        let victims = self.select(&index);
        let victim_pairs = by_ordinal(&victims);
        let mut pending = &victim_pairs[..];
        let mut supporters = index.stats().iter().map(|s| s.ordinal).peekable();

        // Pass 2: batched sanitize + incremental write + residual tally
        // over the supporters.
        let _span = obs::span(Phase::StreamPass2);
        let label = main.progress_label();
        obs::progress::begin(label, victims.len() as u64);
        let mut reader = SeqReader::new(open()?);
        let mut stats = EngineStats::default();
        let mut residual = vec![0usize; main.pattern_count()];
        let mut marks = 0usize;
        let mut batches = 0usize;
        let mut peak_batch_bytes = 0u64;
        let mut base = 0usize;
        let mut batch: Vec<D::Seq> = Vec::with_capacity(batch_size);
        loop {
            batch.clear();
            while batch.len() < batch_size {
                match reader.next_record(codec, alphabet)? {
                    Some(t) => batch.push(t),
                    None => break,
                }
            }
            if batch.is_empty() {
                break;
            }
            batches += 1;
            let bytes: u64 = batch.iter().map(|t| codec.resident_bytes(t)).sum();
            peak_batch_bytes = peak_batch_bytes.max(bytes);
            obs::gauge_max(Gauge::PeakResidentBatch, bytes);

            let end = base + batch.len();
            let (here, rest) = pending.split_at(pending.partition_point(|&(i, _)| i < end));
            pending = rest;
            let (batch_marks, batch_stats) =
                self.mark_victims(victim_jobs(&mut batch, base, here), &mut main, Some(make));
            marks += batch_marks.iter().sum::<usize>();
            stats += batch_stats;

            for (ordinal, t) in (base..).zip(&batch) {
                if supporters.next_if_eq(&ordinal).is_some() {
                    tally(&mut main, t, &mut residual, true);
                }
                codec.write_line(alphabet, t, &mut *sink)?;
            }
            base = end;
        }
        obs::progress::finish(label);
        if base != sequences_total {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "the source changed between passes: pass 1 read {sequences_total} \
                     sequence(s), pass 2 read {base}"
                ),
            ));
        }
        stats += main.stats();
        Ok(StreamReport {
            report: self.report(marks, victims.len(), index.len(), residual, stats),
            sequences_total,
            batches,
            peak_batch_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqhide_types::{Sequence, SequenceDb};

    /// A reader factory over an in-memory database text.
    fn source(text: &str) -> impl Fn() -> io::Result<Box<dyn BufRead>> + '_ {
        move || Ok(Box::new(io::Cursor::new(text.as_bytes().to_vec())) as Box<dyn BufRead>)
    }

    /// Runs both paths on the same input and asserts byte + report parity.
    fn assert_parity(
        name: &str,
        text: &str,
        sanitizer: &Sanitizer,
        patterns: &[&str],
        batch: usize,
    ) {
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
            .run_streaming_from(&source(text), &mut alphabet, &sh_s, batch, &mut out)
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
                &format!("hh-{batch}"),
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
            assert_parity("rand", text, &make(1).with_seed(42), &["a c"], 2);
        }
    }

    #[test]
    fn streaming_matches_in_memory_threaded() {
        let text = "a b c\nb a c\nc a b c\na c\nb b\nc a\na b a c\n";
        assert_parity(
            "threads",
            text,
            &Sanitizer::rr(0).with_seed(9).with_threads(3),
            &["a c"],
            2,
        );
    }

    #[test]
    fn no_supporters_is_a_clean_copy() {
        let text = "a b\nb c\n";
        let mut alphabet = Alphabet::new();
        let sh = SensitiveSet::new(vec![Sequence::parse("z z", &mut alphabet)]);
        let mut out = Vec::new();
        let r = Sanitizer::hh(0)
            .run_streaming_from(&source(text), &mut alphabet, &sh, 4, &mut out)
            .unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), text);
        assert!(r.report.hidden);
        assert_eq!(r.report.marks_introduced, 0);
        assert_eq!(r.report.supporters_before, 0);
    }

    #[test]
    fn peak_batch_bytes_is_bounded_by_batch_size() {
        let text = "a b\n".repeat(64);
        let mut alphabet = Alphabet::new();
        let sh = SensitiveSet::new(vec![Sequence::parse("a b", &mut alphabet)]);
        let mut out = Vec::new();
        let r = Sanitizer::hh(0)
            .run_streaming_from(&source(&text), &mut alphabet, &sh, 4, &mut out)
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
    fn a_source_that_changes_between_passes_is_an_error() {
        // Pass 2 marks victims by pass-1 ordinals; a second open that
        // yields one more line must fail the run, not release it.
        let opens = std::cell::Cell::new(0);
        let open = || -> io::Result<Box<dyn BufRead>> {
            opens.set(opens.get() + 1);
            let text = if opens.get() == 1 {
                "a b\nb a\n"
            } else {
                "a b\nb a\na b\n"
            };
            Ok(Box::new(text.as_bytes()))
        };
        let mut alphabet = Alphabet::new();
        let sh = SensitiveSet::new(vec![Sequence::parse("a b", &mut alphabet)]);
        let err = Sanitizer::hh(0)
            .run_streaming_from(&open, &mut alphabet, &sh, 1, &mut Vec::new())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(opens.get(), 2);
    }

    #[test]
    fn batch_size_zero_is_clamped() {
        let mut alphabet = Alphabet::new();
        let sh = SensitiveSet::new(vec![Sequence::parse("a b", &mut alphabet)]);
        let mut out = Vec::new();
        let r = Sanitizer::hh(0)
            .run_streaming_from(&source("a b\n"), &mut alphabet, &sh, 0, &mut out)
            .unwrap();
        assert_eq!(r.batches, 1);
        assert!(r.report.hidden);
    }
}
