//! `seqhide mine` — list frequent patterns (`F(D, σ)`) with PrefixSpan,
//! GSP, or the itemset miner. `--mode string` lists the contiguous
//! substrings that string mode hides: GSP with every gap 0.

use seqhide_match::{ConstraintSet, Gap};
use seqhide_mine::{Gsp, MinerConfig, PrefixSpan};
use seqhide_serve::exec::Mode;
use seqhide_types::SequenceDb;

use super::flags::Flags;
use super::{err, gaps, read_text, CliError};

pub(crate) fn cmd_mine(flags: &Flags) -> Result<String, CliError> {
    let sigma = flags
        .required("sigma")?
        .parse::<usize>()
        .map_err(|_| err("--sigma: not a number"))?;
    if sigma == 0 {
        return Err(err("--sigma must be at least 1"));
    }
    let mut cfg = MinerConfig::new(sigma);
    if let Some(l) = flags.one("max-len") {
        cfg = cfg.with_max_len(l.parse().map_err(|_| err("--max-len: not a number"))?);
    }
    let mode = Mode::parse(flags.one("mode")).map_err(err)?;
    if mode == Mode::Itemset {
        let (alphabet, db) = seqhide_data::io::parse_itemset_db(&read_text(flags)?);
        let result = seqhide_mine::ItemsetMiner::mine(&db, &cfg);
        let mut rows = result.patterns.clone();
        rows.sort_by_key(|r| std::cmp::Reverse(r.support));
        let top = flags.usize_or("top", rows.len())?;
        let mut out = format!(
            "frequent itemset patterns (σ = {sigma}): {}{}\n",
            rows.len(),
            if result.truncated { " [TRUNCATED]" } else { "" }
        );
        for fp in rows.iter().take(top) {
            out.push_str(&format!(
                "{:>6}  {}\n",
                fp.support,
                fp.seq.render(&alphabet)
            ));
        }
        return Ok(out);
    }
    if mode == Mode::Timed {
        return Err(err(
            "mining timed databases is not supported; project the symbols",
        ));
    }
    let db = SequenceDb::parse(&read_text(flags)?);
    let string = mode == Mode::String;
    let result = match flags
        .one("miner")
        .unwrap_or(if string { "gsp" } else { "prefixspan" })
    {
        "prefixspan" if string => {
            return Err(err(
                "--miner prefixspan mines subsequences; --mode string mines contiguous \
                 substrings with gsp",
            ))
        }
        "prefixspan" => PrefixSpan::mine(&db, &cfg),
        "gsp" if string => {
            if let Some(flag) = ["min-gap", "max-gap", "max-window"]
                .into_iter()
                .find(|&f| flags.has(f))
            {
                return Err(err(format!(
                    "--{flag} does not apply to --mode string: its patterns are contiguous \
                     substrings, mined with no gap"
                )));
            }
            // A contiguous occurrence is exactly one with every gap 0.
            let cs = ConstraintSet::uniform_gap(Gap::adjacent());
            Gsp::mine(&db, &cfg.with_constraints(cs))
        }
        "gsp" => {
            let (min_gap, max_gap, max_window) = gaps(flags)?;
            let cs =
                seqhide_serve::exec::gap_constraints(min_gap, max_gap, max_window).map_err(err)?;
            Gsp::mine(&db, &cfg.with_constraints(cs))
        }
        other => return Err(err(format!("unknown miner '{other}'"))),
    };
    let mut rows = result.patterns.clone();
    rows.sort_by(|a, b| b.support.cmp(&a.support).then(a.seq.cmp(&b.seq)));
    let top = flags.usize_or("top", rows.len())?;
    let mut out = format!(
        "frequent patterns (σ = {sigma}): {}{}\n",
        rows.len(),
        if result.truncated { " [TRUNCATED]" } else { "" }
    );
    for fp in rows.iter().take(top) {
        out.push_str(&format!(
            "{:>6}  {}\n",
            fp.support,
            fp.seq.render(db.alphabet())
        ));
    }
    Ok(out)
}
