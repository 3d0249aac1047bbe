//! `seqhide verify` — check the hiding requirement `sup_{D'}(S) ≤ ψ` on a
//! released database (the check the serve `verify` request answers).

use seqhide_serve::exec::{self, DbSource, HideSpec, Mode, VerifySpec};

use super::flags::Flags;
use super::{err, gaps, read_text, CliError};

pub(crate) fn cmd_verify(flags: &Flags) -> Result<String, CliError> {
    let psi = flags
        .required("psi")?
        .parse::<usize>()
        .map_err(|_| err("--psi: not a number"))?;
    let mut hide = HideSpec::new(Mode::Plain, psi);
    hide.patterns = flags.all("pattern").to_vec();
    (hide.min_gap, hide.max_gap, hide.max_window) = gaps(flags)?;
    let db = DbSource::from(read_text(flags)?);
    let report = exec::verify(&VerifySpec { db, hide }).map_err(err)?;
    let mut out = String::new();
    for (pattern, sup) in report.rendered.iter().zip(&report.supports) {
        out.push_str(&format!(
            "{pattern}: support {sup} {} ψ = {psi}\n",
            if *sup <= psi { "≤" } else { ">" }
        ));
    }
    out.push_str(if report.hidden {
        "HIDDEN\n"
    } else {
        "NOT HIDDEN\n"
    });
    if report.hidden {
        Ok(out)
    } else {
        Err(err(out.trim_end().to_string()))
    }
}
