//! `seqhide stats` — summarise a sequence database in its `--mode`'s line
//! format (the shape the serve `stats` request reports).

use seqhide_serve::exec::{self, DbSource, Mode, StatsOutcome};

use super::flags::Flags;
use super::{err, read_text, CliError};

pub(crate) fn cmd_stats(flags: &Flags) -> Result<String, CliError> {
    let mode = Mode::parse(flags.one("mode")).map_err(err)?;
    let stats = exec::stats(&DbSource::from(read_text(flags)?), mode).map_err(err)?;
    Ok(match stats {
        StatsOutcome::Plain {
            sequences,
            symbols_total,
            avg_len,
            max_len,
            alphabet,
            marks,
        } => format!(
            "sequences:      {sequences}\nsymbols total:  {symbols_total}\navg length:     {avg_len:.2}\nmax length:     {max_len}\nalphabet |Σ|:   {alphabet}\nmarks (Δ):      {marks}\n"
        ),
        StatsOutcome::Itemset {
            sequences,
            elements_total,
            items_total,
            alphabet,
            marks,
        } => format!(
            "sequences:      {sequences}\nelements total: {elements_total}\nitems total:    {items_total}\nalphabet |Σ|:   {alphabet}\nmarks (Δ):      {marks}\n"
        ),
        StatsOutcome::Timed {
            sequences,
            events_total,
            alphabet,
            marks,
        } => format!(
            "sequences:      {sequences}\nevents total:   {events_total}\nalphabet |Σ|:   {alphabet}\nmarks (Δ):      {marks}\n"
        ),
    })
}
