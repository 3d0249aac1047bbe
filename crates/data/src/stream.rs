//! Streaming dataset IO: bounded-memory readers and writers for the
//! two-pass sanitization pipeline.
//!
//! [`crate::io::read_db`] slurps the whole file into a [`SequenceDb`] —
//! fine for paper-scale datasets, a hard wall for databases larger than
//! RAM. The types here keep only O(1) sequences resident:
//!
//! * [`SeqReader`] — parses sequences one line at a time over buffered IO,
//!   interning symbols into a caller-owned [`Alphabet`]. It accepts exactly
//!   the lines [`SequenceDb::parse`] accepts (trimmed, blank and `#` lines
//!   skipped), in the same order, so a full drain reproduces the in-memory
//!   parse verbatim.
//! * [`SeqWriter`] — renders sequences one line at a time in exactly the
//!   [`SequenceDb::to_text`] byte format (`Δ` for marks, single spaces,
//!   trailing newline per line).
//! * [`ShardWriter`] — a spill-capable byte sink: output accumulates in
//!   memory up to a configurable budget, then spills to numbered shard
//!   files; `finish_*` replays the shards in order. The final artifact
//!   only appears once the whole run succeeded, so a crashed pass never
//!   leaves a half-written release behind.

use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use seqhide_types::{
    Alphabet, ItemsetSequence, Sequence, SequenceDb, Symbol, TimedEvent, TimedSequence,
};

use crate::io::{parse_itemset_line, parse_timed_line, write_itemset_line, write_timed_line};

/// One-line-per-sequence text codec: how a sequence type parses from and
/// renders to a single line of the streaming formats. Implementations
/// must round-trip bytes exactly with their whole-file counterparts in
/// [`crate::io`] (the streamed release must equal the in-memory one), and
/// line skipping (blank / `#`) is the reader's concern, not the codec's.
pub trait StreamCodec {
    /// The sequence type this codec reads and writes.
    type Seq;

    /// Parses one trimmed, non-blank, non-comment line. `lineno` is the
    /// 1-based file line number, for error messages.
    fn parse_line(
        &self,
        lineno: usize,
        line: &str,
        alphabet: &mut Alphabet,
    ) -> io::Result<Self::Seq>;

    /// Writes `t` as one line, including the trailing newline.
    fn write_line(&self, alphabet: &Alphabet, t: &Self::Seq, out: &mut dyn Write)
        -> io::Result<()>;

    /// Heap payload of one resident sequence (the quantity the streaming
    /// driver's `peak_resident_batch` gauge sums).
    fn resident_bytes(&self, t: &Self::Seq) -> u64;
}

/// Codec for plain sequences (`a b c`; marks render as `Δ`) — the
/// [`SequenceDb::parse`] / [`SequenceDb::to_text`] line format.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlainCodec;

impl StreamCodec for PlainCodec {
    type Seq = Sequence;

    fn parse_line(
        &self,
        _lineno: usize,
        line: &str,
        alphabet: &mut Alphabet,
    ) -> io::Result<Sequence> {
        Ok(Sequence::parse(line, alphabet))
    }

    fn write_line(&self, alphabet: &Alphabet, t: &Sequence, out: &mut dyn Write) -> io::Result<()> {
        for (i, &s) in t.iter().enumerate() {
            if i > 0 {
                out.write_all(b" ")?;
            }
            out.write_all(alphabet.label(s).as_bytes())?;
        }
        out.write_all(b"\n")
    }

    fn resident_bytes(&self, t: &Sequence) -> u64 {
        (t.len() * std::mem::size_of::<Symbol>()) as u64
    }
}

/// Codec for itemset sequences (`bread,milk beer`) — the
/// [`crate::io::parse_itemset_db`] line format.
#[derive(Clone, Copy, Debug, Default)]
pub struct ItemsetCodec;

impl StreamCodec for ItemsetCodec {
    type Seq = ItemsetSequence;

    fn parse_line(
        &self,
        _lineno: usize,
        line: &str,
        alphabet: &mut Alphabet,
    ) -> io::Result<ItemsetSequence> {
        Ok(parse_itemset_line(line, alphabet))
    }

    fn write_line(
        &self,
        alphabet: &Alphabet,
        t: &ItemsetSequence,
        out: &mut dyn Write,
    ) -> io::Result<()> {
        write_itemset_line(alphabet, t, out)
    }

    fn resident_bytes(&self, t: &ItemsetSequence) -> u64 {
        t.elements()
            .iter()
            .map(|e| std::mem::size_of_val(e.items()) as u64)
            .sum()
    }
}

/// Codec for timed sequences (`login@0 search@15`) — the
/// [`crate::io::parse_timed_db`] line format.
#[derive(Clone, Copy, Debug, Default)]
pub struct TimedCodec;

impl StreamCodec for TimedCodec {
    type Seq = TimedSequence;

    fn parse_line(
        &self,
        lineno: usize,
        line: &str,
        alphabet: &mut Alphabet,
    ) -> io::Result<TimedSequence> {
        parse_timed_line(lineno, line, alphabet)
    }

    fn write_line(
        &self,
        alphabet: &Alphabet,
        t: &TimedSequence,
        out: &mut dyn Write,
    ) -> io::Result<()> {
        write_timed_line(alphabet, t, out)
    }

    fn resident_bytes(&self, t: &TimedSequence) -> u64 {
        (t.len() * std::mem::size_of::<TimedEvent>()) as u64
    }
}

/// Streaming reader over one-sequence-per-line text, yielding parsed
/// [`Sequence`]s in file order.
///
/// ```
/// use seqhide_data::stream::SeqReader;
/// use seqhide_types::Alphabet;
/// let mut sigma = Alphabet::new();
/// let mut r = SeqReader::new("a b\n# comment\n\nb c\n".as_bytes());
/// let mut n = 0;
/// while let Some(t) = r.next_seq(&mut sigma).unwrap() {
///     assert_eq!(t.len(), 2);
///     n += 1;
/// }
/// assert_eq!(n, 2);
/// ```
pub struct SeqReader<R> {
    inner: R,
    line: String,
    lineno: usize,
}

impl SeqReader<BufReader<File>> {
    /// Opens `path` for streaming reads.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(SeqReader::new(BufReader::new(File::open(path)?)))
    }
}

impl<R: BufRead> SeqReader<R> {
    /// Wraps an already-buffered reader.
    pub fn new(inner: R) -> Self {
        SeqReader {
            inner,
            line: String::new(),
            lineno: 0,
        }
    }

    /// Parses the next sequence, interning its symbols into `alphabet`.
    /// Returns `Ok(None)` at end of input. Blank lines and `#` comments
    /// are skipped exactly as [`SequenceDb::parse`] skips them.
    pub fn next_seq(&mut self, alphabet: &mut Alphabet) -> io::Result<Option<Sequence>> {
        self.next_record(&PlainCodec, alphabet)
    }

    /// Parses the next record through `codec`, interning its symbols into
    /// `alphabet`. Returns `Ok(None)` at end of input; blank lines and
    /// `#` comments are skipped. Parse errors carry the 1-based file line
    /// number, matching the whole-file parsers in [`crate::io`].
    pub fn next_record<K: StreamCodec>(
        &mut self,
        codec: &K,
        alphabet: &mut Alphabet,
    ) -> io::Result<Option<K::Seq>> {
        loop {
            self.line.clear();
            if self.inner.read_line(&mut self.line)? == 0 {
                return Ok(None);
            }
            self.lineno += 1;
            let line = self.line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            return codec.parse_line(self.lineno, line, alphabet).map(Some);
        }
    }
}

/// Streaming writer emitting the exact byte format of
/// [`SequenceDb::to_text`], one sequence per call.
pub struct SeqWriter<W> {
    inner: W,
}

impl<W: Write> SeqWriter<W> {
    /// Wraps a byte sink.
    pub fn new(inner: W) -> Self {
        SeqWriter { inner }
    }

    /// Writes `t` as one line (`Δ` for marks, symbols space-joined).
    pub fn write_seq(&mut self, alphabet: &Alphabet, t: &Sequence) -> io::Result<()> {
        PlainCodec.write_line(alphabet, t, &mut self.inner)
    }

    /// Unwraps the sink (flushing is the caller's concern for raw sinks;
    /// [`ShardWriter`] finalizes through its own `finish_*` methods).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// Process-unique suffix for shard temp files.
static SHARD_SEQ: AtomicU64 = AtomicU64::new(0);

/// A spill-capable byte sink: bytes accumulate in memory until
/// `spill_limit`, then flush to numbered shard files next to the final
/// destination (or the system temp dir). Finishing replays every shard in
/// write order and removes them.
pub struct ShardWriter {
    buf: Vec<u8>,
    spill_limit: usize,
    peak_resident: usize,
    shard_dir: PathBuf,
    shard_tag: u64,
    shards: Vec<PathBuf>,
}

impl ShardWriter {
    /// A writer spilling shards into `shard_dir` once the resident buffer
    /// exceeds `spill_limit` bytes (0 spills on every flush boundary).
    pub fn new(shard_dir: impl Into<PathBuf>, spill_limit: usize) -> Self {
        ShardWriter {
            buf: Vec::new(),
            spill_limit,
            peak_resident: 0,
            shard_dir: shard_dir.into(),
            shard_tag: SHARD_SEQ.fetch_add(1, Ordering::Relaxed),
            shards: Vec::new(),
        }
    }

    /// Bytes currently resident in memory (excludes spilled shards).
    pub fn resident_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Most bytes ever resident at once — the writer's true memory
    /// footprint, bounded by `max(spill_limit, largest single write)`.
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident
    }

    /// Number of shards spilled so far.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn spill(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let path = self.shard_dir.join(format!(
            ".seqhide-shard-{}-{}-{}",
            std::process::id(),
            self.shard_tag,
            self.shards.len()
        ));
        fs::write(&path, &self.buf)?;
        self.shards.push(path);
        self.buf.clear();
        Ok(())
    }

    /// Replays every shard (in order) plus the resident tail into `out`,
    /// removing shards as they drain.
    fn drain_into(&mut self, out: &mut impl Write) -> io::Result<()> {
        for shard in std::mem::take(&mut self.shards) {
            let mut f = File::open(&shard)?;
            io::copy(&mut f, out)?;
            fs::remove_file(&shard)?;
        }
        out.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// Concatenates all output into `path`. The file is written in one
    /// pass at the end, so a failed run never leaves a partial release.
    pub fn finish_to_path(mut self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        self.drain_into(&mut out)?;
        out.flush()
    }

    /// Concatenates all output into a `String` (lossless for our text
    /// formats, which are valid UTF-8 by construction). This necessarily
    /// materializes the whole output; callers wanting bounded memory end
    /// to end should use [`ShardWriter::finish_to_path`].
    pub fn finish_to_string(mut self) -> io::Result<String> {
        let mut bytes = Vec::new();
        self.drain_into(&mut bytes)?;
        String::from_utf8(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

impl Write for ShardWriter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        // Spill *before* extending when the incoming slice would push the
        // buffer past the limit: a single large write (one long itemset
        // line, say) must not stack on top of an already-full buffer.
        // Peak residency is max(spill_limit, len of the largest write),
        // never their sum.
        if !self.buf.is_empty() && self.buf.len() + bytes.len() > self.spill_limit {
            self.spill()?;
        }
        self.buf.extend_from_slice(bytes);
        self.peak_resident = self.peak_resident.max(self.buf.len());
        if self.buf.len() > self.spill_limit {
            self.spill()?;
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for ShardWriter {
    fn drop(&mut self) {
        // Abandoned mid-run (error path): remove stray shards.
        for shard in &self.shards {
            let _ = fs::remove_file(shard);
        }
    }
}

/// Drains `reader` into a [`SequenceDb`] (test/debug convenience; defeats
/// the purpose of streaming for large inputs).
pub fn collect_db<R: BufRead>(reader: &mut SeqReader<R>) -> io::Result<SequenceDb> {
    let mut alphabet = Alphabet::new();
    let mut sequences = Vec::new();
    while let Some(t) = reader.next_seq(&mut alphabet)? {
        sequences.push(t);
    }
    Ok(SequenceDb::from_parts(alphabet, sequences))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "# trucks\na b c\n\n  b Δ c  \nc\n";

    #[test]
    fn reader_matches_in_memory_parse() {
        let db = SequenceDb::parse(TEXT);
        let mut reader = SeqReader::new(TEXT.as_bytes());
        let streamed = collect_db(&mut reader).unwrap();
        assert_eq!(streamed.len(), db.len());
        assert_eq!(streamed.to_text(), db.to_text());
        assert_eq!(streamed.alphabet().len(), db.alphabet().len());
    }

    #[test]
    fn writer_matches_to_text() {
        let db = SequenceDb::parse(TEXT);
        let mut out = Vec::new();
        {
            let mut w = SeqWriter::new(&mut out);
            for t in db.sequences() {
                w.write_seq(db.alphabet(), t).unwrap();
            }
        }
        assert_eq!(String::from_utf8(out).unwrap(), db.to_text());
    }

    #[test]
    fn reader_roundtrips_through_file() {
        let dir = std::env::temp_dir().join("seqhide-stream-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.seq");
        fs::write(&path, TEXT).unwrap();
        let mut reader = SeqReader::open(&path).unwrap();
        let db = collect_db(&mut reader).unwrap();
        assert_eq!(db.to_text(), SequenceDb::parse(TEXT).to_text());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn shard_writer_spills_and_reassembles() {
        let dir = std::env::temp_dir().join("seqhide-shard-test");
        fs::create_dir_all(&dir).unwrap();
        let mut w = ShardWriter::new(&dir, 8);
        let payload = "0123456789abcdef0123456789abcdef";
        for chunk in payload.as_bytes().chunks(5) {
            w.write_all(chunk).unwrap();
        }
        assert!(w.shard_count() >= 2, "spill limit not honored");
        assert!(w.resident_bytes() <= 8 + 5);
        assert_eq!(w.finish_to_string().unwrap(), payload);
    }

    #[test]
    fn shard_writer_peak_residency_is_bounded_by_limit_plus_chunk() {
        let dir = std::env::temp_dir().join("seqhide-shard-test-peak");
        fs::create_dir_all(&dir).unwrap();
        let spill_limit = 8;
        let mut w = ShardWriter::new(&dir, spill_limit);
        // A mixed workload whose largest single write (one long "line")
        // far exceeds the spill limit.
        let big = vec![b'x'; 100];
        let chunks: Vec<&[u8]> = vec![b"abcde", b"fg", &big, b"hij", &big, b"k"];
        let max_chunk = chunks.iter().map(|c| c.len()).max().unwrap();
        let mut expected = Vec::new();
        for chunk in &chunks {
            w.write_all(chunk).unwrap();
            assert!(
                w.resident_bytes() <= spill_limit + max_chunk,
                "resident {} blew past limit {} + max chunk {}",
                w.resident_bytes(),
                spill_limit,
                max_chunk
            );
            expected.extend_from_slice(chunk);
        }
        // The stronger bound the spill-before-extend order guarantees:
        // a large write never stacks on top of an already-full buffer.
        assert!(
            w.peak_resident_bytes() <= spill_limit.max(max_chunk),
            "peak resident {} exceeds max(spill_limit {}, max chunk {})",
            w.peak_resident_bytes(),
            spill_limit,
            max_chunk
        );
        assert_eq!(w.finish_to_string().unwrap().as_bytes(), &expected[..]);
    }

    #[test]
    fn shard_writer_small_output_never_touches_disk() {
        let dir = std::env::temp_dir().join("seqhide-shard-test");
        fs::create_dir_all(&dir).unwrap();
        let mut w = ShardWriter::new(&dir, 1 << 20);
        w.write_all(b"tiny").unwrap();
        assert_eq!(w.shard_count(), 0);
        assert_eq!(w.finish_to_string().unwrap(), "tiny");
    }

    #[test]
    fn shard_writer_finishes_to_path() {
        let dir = std::env::temp_dir().join("seqhide-shard-test-path");
        fs::create_dir_all(&dir).unwrap();
        let out = dir.join("release.seq");
        let mut w = ShardWriter::new(&dir, 4);
        w.write_all(b"alpha beta\ngamma\n").unwrap();
        w.finish_to_path(&out).unwrap();
        assert_eq!(fs::read_to_string(&out).unwrap(), "alpha beta\ngamma\n");
        // shards were cleaned up
        let strays = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with(".seqhide-shard-")
            })
            .count();
        assert_eq!(strays, 0);
        fs::remove_file(out).unwrap();
    }
}
