//! `seqhide hide` — sanitize a database against sensitive patterns.
//!
//! The flags become one [`HideSpec`], the value a served `sanitize` or
//! `delta` request decodes to as well, and the run goes through the hide
//! pipeline in [`seqhide_serve::exec`]: in memory by default, the
//! two-pass bounded-memory route under `--stream`, an incremental edits
//! batch under `--delta`. This module keeps only what is the CLI's own:
//! the flags, the `--post` stage, the report head lines, and where the
//! release goes (`--out` or stdout).

use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

use seqhide_core::SanitizeReport;
use seqhide_serve::exec::{self, DeltaSession, Family, HideSpec, Loaded, Mode, StatsOutcome};
use seqhide_types::OpKind;

use super::flags::Flags;
use super::{err, gaps, read_text, CliError};

pub(crate) fn cmd_hide(flags: &Flags) -> Result<String, CliError> {
    let spec = hide_spec(flags)?;
    if let Some(edits) = flags.one("delta") {
        return hide_delta(flags, &spec, edits);
    }
    if flags.has("stream") {
        return hide_stream(flags, &spec);
    }
    hide_in_memory(flags, &spec)
}

fn hide_spec(flags: &Flags) -> Result<HideSpec, CliError> {
    let psi = flags
        .required("psi")?
        .parse::<usize>()
        .map_err(|_| err("--psi: not a number"))?;
    let algorithm = flags.one("algorithm").unwrap_or("hh");
    let (local, global) = seqhide_core::parse_algorithm(algorithm)
        .ok_or_else(|| err(format!("unknown algorithm '{algorithm}' (hh|hr|rh|rr)")))?;
    let op = match flags.one("op") {
        None => OpKind::Mark,
        Some(v) => OpKind::parse(v)
            .ok_or_else(|| err(format!("unknown op '{v}' (mark|delete|substitute)")))?,
    };
    let (min_gap, max_gap, max_window) = gaps(flags)?;
    Ok(HideSpec {
        mode: Mode::parse(flags.one("mode")).map_err(err)?,
        patterns: flags.all("pattern").to_vec(),
        regexes: flags.all("regex").to_vec(),
        psi,
        local,
        global,
        seed: flags.u64_or("seed", 0)?,
        exact: flags.has("exact"),
        min_gap,
        max_gap,
        max_window,
        op,
        threads: flags.usize_or("threads", 1)?,
    })
}

/// The report line of one pattern family.
fn family_line(family: Family, r: &SanitizeReport) -> String {
    format!(
        "{}: {} {} in {} sequences; residual supports {:?}\n",
        family.noun(),
        r.marks_introduced,
        family.unit(),
        r.sequences_sanitized,
        r.residual_supports
    )
}

fn engine_line(r: &SanitizeReport) -> String {
    format!(
        "engine: {} cell repairs, {} fallback recounts\n",
        r.engine_repairs, r.fallback_recounts
    )
}

/// Writes `release` to `--out` (noting the path in the head lines), or
/// appends it to the output after them.
fn emit(flags: &Flags, out: &mut String, release: &str) -> Result<(), CliError> {
    match flags.one("out") {
        Some(path) => {
            std::fs::write(path, release).map_err(|e| err(format!("cannot write {path}: {e}")))?;
            out.push_str(&format!("wrote {path}\n"));
        }
        None => out.push_str(release),
    }
    Ok(())
}

/// The in-memory run, with the optional `--post` second stage.
fn hide_in_memory(flags: &Flags, spec: &HideSpec) -> Result<String, CliError> {
    let text = read_text(flags)?;
    let mut loaded = Loaded::parse(spec, &text).map_err(err)?;
    // Only the parsed database is needed from here on; keeping the input
    // text until the release is rendered would hold both at once.
    drop(text);
    let reports = loaded.sanitize(spec).map_err(err)?;
    let mut out = String::new();
    for (family, report) in &reports {
        out.push_str(&family_line(*family, report));
        if flags.has("report") {
            out.push_str(&engine_line(report));
        }
    }
    match flags.one("post").unwrap_or("keep") {
        "keep" => {}
        "delete" => {
            let rounds = loaded.delete_marks(spec).map_err(err)?;
            out.push_str(&format!("post: deleted Δ ({rounds} round(s))\n"));
        }
        "replace" => {
            let rep = loaded.replace_marks(spec).map_err(err)?;
            out.push_str(&format!(
                "post: replaced {} Δ, kept {}\n",
                rep.replaced, rep.kept
            ));
        }
        other => {
            return Err(err(format!(
                "unknown post strategy '{other}' (keep|delete|replace)"
            )))
        }
    }
    let marks: usize = reports.iter().map(|(_, r)| r.marks_introduced).sum();
    out.push_str(&format!("total marks (M1): {marks}\n"));
    emit(flags, &mut out, &loaded.render())?;
    if flags.has("report") {
        let (StatsOutcome::Plain {
            sequences, marks, ..
        }
        | StatsOutcome::Itemset {
            sequences, marks, ..
        }
        | StatsOutcome::Timed {
            sequences, marks, ..
        }) = loaded.stats();
        out.push_str(&format!(
            "released: {sequences} sequences, {marks} residual Δ\n"
        ));
    }
    Ok(out)
}

/// `hide --stream`: the pipeline's two-pass route over the `--db` file.
/// The release goes to a sharded spill with an atomic rename under
/// `--out`, to an in-memory buffer otherwise.
fn hide_stream(flags: &Flags, spec: &HideSpec) -> Result<String, CliError> {
    if flags.one("post").unwrap_or("keep") != "keep" {
        return Err(err(
            "--stream writes incrementally; --post delete/replace need the full database in memory",
        ));
    }
    let db_path = flags.required("db")?;
    let batch_size = flags.usize_or("batch-size", 1024)?;
    if batch_size == 0 {
        return Err(err(
            "--batch-size must be ≥ 1: pass 2 re-streams the database in batches and \
             needs at least one resident sequence per batch",
        ));
    }
    let open =
        || -> io::Result<Box<dyn BufRead>> { Ok(Box::new(BufReader::new(File::open(db_path)?))) };
    let source = format!("cannot stream {db_path}");
    let run = |sink: &mut dyn Write| {
        exec::hide_streamed(spec, &open, batch_size, sink, &source).map_err(err)
    };
    let (report, body) = match flags.one("out") {
        Some(out_path) => {
            let shard_dir = Path::new(out_path)
                .parent()
                .filter(|p| !p.as_os_str().is_empty())
                .unwrap_or_else(|| Path::new("."));
            let mut sink = seqhide_data::ShardWriter::new(shard_dir, 8 << 20);
            let report = run(&mut sink)?;
            sink.finish_to_path(out_path)
                .map_err(|e| err(format!("cannot write {out_path}: {e}")))?;
            (report, String::new())
        }
        None => {
            let mut buf = Vec::new();
            let report = run(&mut buf)?;
            (
                report,
                String::from_utf8(buf).expect("release text is UTF-8"),
            )
        }
    };
    let mut out = family_line(spec.family(), &report.report);
    out.push_str(&format!(
        "stream: {} sequences in {} batch(es) of ≤ {batch_size}; peak batch {} B\n",
        report.sequences_total, report.batches, report.peak_batch_bytes
    ));
    if flags.has("report") {
        out.push_str(&engine_line(&report.report));
    }
    out.push_str(&format!(
        "total marks (M1): {}\n",
        report.report.marks_introduced
    ));
    if let Some(out_path) = flags.one("out") {
        out.push_str(&format!("wrote {out_path}\n"));
    }
    Ok(out + &body)
}

/// Appended lines (tagged with their 1-based edits-file line number)
/// plus removed 0-based database ordinals.
type Edits = (Vec<(usize, String)>, Vec<usize>);

/// Parses the `--delta` edits file: `+ <sequence line>` appends a
/// sequence (in the run's database line format), `- <n>` removes the
/// 0-based data-line ordinal `n` from the current database; blank lines
/// and `#` comments are skipped. The whole file is one batch.
fn parse_edits(path: &str) -> Result<Edits, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    let mut added = Vec::new();
    let mut removed = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('+') {
            added.push((i + 1, rest.trim().to_string()));
        } else if let Some(rest) = line.strip_prefix('-') {
            let ord = rest.trim().parse().map_err(|_| {
                err(format!(
                    "--delta line {}: '-' needs a 0-based sequence ordinal, got '{}'",
                    i + 1,
                    rest.trim()
                ))
            })?;
            removed.push(ord);
        } else {
            return Err(err(format!(
                "--delta line {}: expected '+ <sequence>' or '- <ordinal>'",
                i + 1
            )));
        }
    }
    Ok((added, removed))
}

/// `hide --delta <edits-file>`: sanitize the database, then absorb one
/// edits batch through the pipeline's delta session instead of
/// re-sanitizing from scratch. The printed report and release describe
/// the post-delta database and are byte-identical to a fresh `hide` of it
/// on the same seed.
fn hide_delta(flags: &Flags, spec: &HideSpec, edits: &str) -> Result<String, CliError> {
    if flags.has("stream") {
        return Err(err(
            "--delta applies one in-memory edits batch; it cannot be combined with --stream",
        ));
    }
    if flags.one("post").unwrap_or("keep") != "keep" {
        return Err(err("--delta maintains a Δ-marked release incrementally; \
             --post delete/replace need a full-database pass"));
    }
    let (added, removed) = parse_edits(edits)?;
    let text = read_text(flags)?;
    let mut session = DeltaSession::build(spec, &text, |_| None).map_err(err)?;
    drop(text);
    let added: Vec<(usize, &str)> = added.iter().map(|(n, l)| (*n, l.as_str())).collect();
    let report = session
        .apply(&added, removed)
        .map_err(|e| err(format!("--delta: {e}")))?;
    let r = &report.report;
    let mut out = family_line(spec.family(), r);
    out.push_str(&format!(
        "delta: +{} -{} sequences; {} re-marked, {} restored\n",
        report.added, report.removed, report.remarked, report.restored
    ));
    if !r.hidden {
        return Err(err(format!(
            "internal: sanitizer failed to hide {}",
            spec.family().noun()
        )));
    }
    emit(flags, &mut out, &session.render_release())?;
    Ok(out)
}
