//! In-process replay of the `serve_mixed` request list through the serve
//! and core layers' public functions (`protocol::decode`,
//! `SequenceDb::parse`, `DeltaState::apply_delta`), for the per-layer
//! numbers the wire `timings` do not carry: dataset text parse and the
//! incremental delta step.

use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

use seqhide::core::{DeltaState, SeqDelta};
use seqhide::matching::{MatchEngine, SensitivePattern, SensitiveSet};
use seqhide::num::Sat64;
use seqhide::serve::protocol::{decode, Request};
use seqhide::types::{Sequence, SequenceDb};

fn median_ms(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2] * 1e3
}

/// Replays `lines` (request JSON, in list order) against the dataset
/// files in `dir`, printing `key value` lines and one `delta_marks i m`
/// line per delta for the caller to compare with the served replies.
pub fn run(dir: &Path, lines: &[(usize, String)]) -> Result<(), String> {
    let mut texts: HashMap<String, String> = HashMap::new();
    let mut text_of = |name: &str| -> Result<String, String> {
        if let Some(t) = texts.get(name) {
            return Ok(t.clone());
        }
        let t = fs::read_to_string(dir.join(format!("{name}.txt"))).map_err(|e| e.to_string())?;
        texts.insert(name.to_string(), t.clone());
        Ok(t)
    };
    let mut parse_s = Vec::new();
    let mut apply_s = Vec::new();
    let (mut remarked, mut restored) = (0usize, 0usize);
    let mut session: Option<(SequenceDb, SensitiveSet, DeltaState<Sequence, Sat64>)> = None;
    for (i, line) in lines {
        let (_, _, req) = decode(line);
        match req? {
            Request::Sanitize { spec, .. } => {
                let seqhide::serve::exec::DbSource::Named(name) = &spec.db else {
                    return Err("replay expects dataset references".to_string());
                };
                let text = text_of(name)?;
                let start = Instant::now();
                let db = SequenceDb::parse(&text);
                parse_s.push(start.elapsed().as_secs_f64());
                std::hint::black_box(db);
            }
            Request::Delta(spec) => {
                if session.is_none() {
                    let mut db = SequenceDb::parse(&text_of(&spec.dataset)?);
                    let patterns = spec
                        .patterns
                        .iter()
                        .map(|p| {
                            SensitivePattern::unconstrained(Sequence::parse(p, db.alphabet_mut()))
                                .map_err(|e| e.to_string())
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    let sh = SensitiveSet::from_patterns(patterns);
                    let config = seqhide::core::Sanitizer::new(spec.local, spec.global, spec.psi)
                        .with_seed(spec.seed)
                        .with_threads(1);
                    let state = DeltaState::build(
                        &config,
                        &mut MatchEngine::<Sat64>::new(&sh),
                        db.sequences().to_vec(),
                    );
                    session = Some((db, sh, state));
                }
                let (db, sh, state) = session.as_mut().expect("session built above");
                let added = spec
                    .add
                    .iter()
                    .map(|l| Sequence::parse(l, db.alphabet_mut()))
                    .collect();
                let delta = SeqDelta {
                    added,
                    removed: spec.remove.clone(),
                };
                let start = Instant::now();
                let report = state
                    .apply_delta(&mut MatchEngine::<Sat64>::new(sh), delta)
                    .map_err(|e| e.to_string())?;
                apply_s.push(start.elapsed().as_secs_f64());
                remarked += report.remarked;
                restored += report.restored;
                println!("delta_marks {i} {}", report.report.marks_introduced);
            }
            _ => {}
        }
    }
    println!("exec.db_parse_ms {}", median_ms(parse_s));
    println!("delta.apply_ms {}", median_ms(apply_s));
    println!("delta.remarked {remarked}");
    println!("delta.restored {restored}");
    Ok(())
}
