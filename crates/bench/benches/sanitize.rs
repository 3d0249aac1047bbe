//! Engine-vs-scratch sanitization benchmark.
//!
//! Measures the per-victim cost of the local marking loop with the
//! incremental [`MatchEngine`] (tables repaired in place, buffers reused
//! across victims) against the from-scratch path (full `delta_all`
//! recount plus fresh allocations per mark), on paper-scale workloads.
//! Writes the results to `BENCH_sanitize.json` at the workspace root:
//!
//! ```json
//! {"workloads": [...], "speedup": <scratch_ns / engine_ns, geometric mean>,
//!  "obs_overhead": <recording-on ns / recording-off ns, geometric mean>}
//! ```
//!
//! The `obs_overhead` field is the instrumentation guard: the same engine
//! sweep timed with the obs runtime gate open vs closed
//! ([`seqhide_obs::set_recording`]). The budget is < 3% — a larger ratio
//! means a hot-path instrumentation regression (see
//! `docs/OBSERVABILITY.md`).
//!
//! Hand-rolled timing (`Instant` around whole victim sweeps) instead of
//! the criterion harness: both paths mutate their input, so each
//! iteration must re-clone the victims, and we want that clone *outside*
//! the timed region for the numbers to mean "cost of sanitizing".

use std::fmt::Write as _;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use seqhide_core::{sanitize_victim, DeltaState, LocalStrategy, Sanitizer, SeqDelta};
use seqhide_data::markov_db;
use seqhide_match::{
    ConstraintSet, Gap, MatchEngine, ScratchDomain, SensitivePattern, SensitiveSet,
};
use seqhide_num::Sat64;
use seqhide_string::{StringDomain, StringPattern};
use seqhide_types::{Alphabet, OpKind, Sequence, SequenceDb};

struct Workload {
    name: &'static str,
    victims: Vec<Sequence>,
    sh: SensitiveSet,
}

/// Sensitive patterns sampled from the database itself so every victim
/// carries real occurrences (same device as the micro benches).
fn workload(
    name: &'static str,
    seed: u64,
    n_victims: usize,
    len: usize,
    alphabet: usize,
    cs: ConstraintSet,
) -> Workload {
    let db = markov_db(seed, n_victims, (len, len), alphabet, 0.8);
    let t0 = &db.sequences()[0];
    let patterns = vec![
        SensitivePattern::new(Sequence::new(t0.symbols()[..3].to_vec()), cs.clone()).unwrap(),
        SensitivePattern::new(Sequence::new(t0.symbols()[4..7].to_vec()), cs).unwrap(),
    ];
    Workload {
        name,
        victims: db.sequences().to_vec(),
        sh: SensitiveSet::from_patterns(patterns),
    }
}

/// Mean ns per victim for one full sanitization sweep, best-of-`reps`
/// (minimum is the standard noise-robust statistic for micro timings).
fn measure(w: &Workload, reps: usize, mut sweep: impl FnMut(&mut [Sequence])) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut victims = w.victims.clone();
        let start = Instant::now();
        sweep(&mut victims);
        let elapsed = start.elapsed().as_nanos() as f64 / w.victims.len() as f64;
        best = best.min(elapsed);
    }
    best
}

fn main() {
    // Paper-scale: TRUCKS-like lengths (hundreds of positions) and a
    // SYNTHETIC-like shorter workload, unconstrained and gap-constrained.
    let workloads = [
        workload("unconstrained-n256", 17, 24, 256, 20, ConstraintSet::none()),
        workload("unconstrained-n512", 18, 12, 512, 20, ConstraintSet::none()),
        workload(
            "gap-n256",
            19,
            24,
            256,
            12,
            ConstraintSet::uniform_gap(Gap {
                min: 0,
                max: Some(16),
            }),
        ),
    ];
    let reps = 9;
    let mut rows = String::new();
    let mut log_speedup_sum = 0.0;
    let mut log_obs_overhead_sum = 0.0;
    for w in &workloads {
        // warm-up + sanity: both paths must produce identical mark counts
        let marks_engine: usize = {
            let mut victims = w.victims.clone();
            let mut engine = MatchEngine::<Sat64>::new(&w.sh);
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            victims
                .iter_mut()
                .map(|t| sanitize_victim(&mut engine, t, LocalStrategy::Heuristic, &mut rng))
                .sum()
        };
        let marks_scratch: usize = {
            let mut victims = w.victims.clone();
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            victims
                .iter_mut()
                .map(|t| {
                    sanitize_victim(
                        &mut ScratchDomain::<Sat64>::new(&w.sh),
                        t,
                        LocalStrategy::Heuristic,
                        &mut rng,
                    )
                })
                .sum()
        };
        assert_eq!(marks_engine, marks_scratch, "{}: paths diverged", w.name);

        let engine_sweep = |victims: &mut [Sequence]| {
            let mut engine = MatchEngine::<Sat64>::new(&w.sh);
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            for t in victims.iter_mut() {
                sanitize_victim(&mut engine, t, LocalStrategy::Heuristic, &mut rng);
            }
        };
        // A/B the obs runtime gate with interleaved reps (alternating
        // on/off within each rep cancels thermal and cache drift that a
        // sequential A-then-B measurement folds into the ratio)
        let mut engine_ns = f64::INFINITY;
        let mut engine_off_ns = f64::INFINITY;
        for _ in 0..reps {
            engine_ns = engine_ns.min(measure(w, 1, engine_sweep));
            seqhide_obs::set_recording(false);
            engine_off_ns = engine_off_ns.min(measure(w, 1, engine_sweep));
            seqhide_obs::set_recording(true);
        }
        let scratch_ns = measure(w, reps, |victims| {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            for t in victims.iter_mut() {
                sanitize_victim(
                    &mut ScratchDomain::<Sat64>::new(&w.sh),
                    t,
                    LocalStrategy::Heuristic,
                    &mut rng,
                );
            }
        });
        let speedup = scratch_ns / engine_ns;
        log_speedup_sum += speedup.ln();
        let obs_overhead = engine_ns / engine_off_ns;
        log_obs_overhead_sum += obs_overhead.ln();
        println!(
            "{:<20} engine {:>12.0} ns/victim   scratch {:>12.0} ns/victim   speedup {:.2}x   obs {:+.1}%   ({} marks)",
            w.name, engine_ns, scratch_ns, speedup, (obs_overhead - 1.0) * 100.0, marks_engine
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        write!(
            rows,
            "    {{\"name\": \"{}\", \"victims\": {}, \"marks\": {}, \"engine_ns_per_victim\": {:.0}, \"scratch_ns_per_victim\": {:.0}, \"speedup\": {:.3}, \"obs_off_ns_per_victim\": {:.0}, \"obs_overhead\": {:.4}}}",
            w.name,
            w.victims.len(),
            marks_engine,
            engine_ns,
            scratch_ns,
            speedup,
            engine_off_ns,
            obs_overhead
        )
        .unwrap();
    }
    // End-to-end cost of `hide --stream` relative to the in-memory path on
    // the same file: (pass1 + pass2 + incremental render) vs (read + parse
    // + run + render). Both sides include IO/parse/render so the ratio is
    // what a --stream user actually pays for bounded memory.
    let (stream_mem_ns, stream_stream_ns) = {
        let db = markov_db(23, 400, (64, 64), 16, 0.8);
        let path = std::env::temp_dir().join("seqhide-bench-stream.seq");
        std::fs::write(&path, db.to_text()).expect("write stream workload");
        let t0 = &db.sequences()[0];
        let pattern_text = |range: std::ops::Range<usize>| {
            t0.symbols()[range]
                .iter()
                .map(|&s| db.alphabet().render(s).to_string())
                .collect::<Vec<_>>()
                .join(" ")
        };
        let pat_texts = [pattern_text(0..3), pattern_text(4..7)];
        let sanitizer = Sanitizer::hh(2).with_seed(7);
        let mut best_mem = f64::INFINITY;
        let mut best_stream = f64::INFINITY;
        let mut released_mem = String::new();
        let mut released_stream = Vec::new();
        for _ in 0..reps {
            let start = Instant::now();
            let text = std::fs::read_to_string(&path).unwrap();
            let mut work = SequenceDb::parse(&text);
            let sh = SensitiveSet::new(
                pat_texts
                    .iter()
                    .map(|p| Sequence::parse(p, work.alphabet_mut()))
                    .collect(),
            );
            sanitizer.run(&mut work, &sh);
            released_mem = work.to_text();
            best_mem = best_mem.min(start.elapsed().as_nanos() as f64);

            let start = Instant::now();
            let mut alphabet = Alphabet::new();
            let sh = SensitiveSet::new(
                pat_texts
                    .iter()
                    .map(|p| Sequence::parse(p, &mut alphabet))
                    .collect(),
            );
            released_stream = Vec::new();
            let reopen = || -> std::io::Result<Box<dyn std::io::BufRead>> {
                Ok(Box::new(std::io::BufReader::new(std::fs::File::open(
                    &path,
                )?)))
            };
            sanitizer
                .run_streaming_from(&reopen, &mut alphabet, &sh, 64, &mut released_stream)
                .expect("streaming run");
            best_stream = best_stream.min(start.elapsed().as_nanos() as f64);
        }
        assert_eq!(
            released_mem.as_bytes(),
            released_stream.as_slice(),
            "stream bench: released bytes diverged"
        );
        let _ = std::fs::remove_file(&path);
        (best_mem, best_stream)
    };
    let stream_overhead = stream_stream_ns / stream_mem_ns;
    println!(
        "stream-vs-memory     memory {:>12.0} ns/run      stream  {:>12.0} ns/run      overhead {:.2}x",
        stream_mem_ns, stream_stream_ns, stream_overhead
    );
    // Substring sanitization: per-victim cost of the three DistortOp
    // families through the same two-level sanitizer. Mark pays the plain
    // Δ write; delete/substitute add the junction-splice safety window
    // and (for delete) the index-shifting recount — this row is the
    // regression baseline for the edit operators, separate from the
    // engine-vs-scratch geo-mean above.
    let string_rows = {
        let db = markov_db(29, 200, (64, 64), 16, 0.8);
        let t0 = db.sequences()[0].clone();
        let pats = vec![
            StringPattern::new(Sequence::new(t0.symbols()[..3].to_vec())).unwrap(),
            StringPattern::new(Sequence::new(t0.symbols()[4..7].to_vec())).unwrap(),
        ];
        let sigma_len = db.alphabet().len();
        let sanitizer = Sanitizer::hh(2).with_seed(7);
        let mut rows = String::new();
        for op in [OpKind::Mark, OpKind::Delete, OpKind::Substitute] {
            let mut best = f64::INFINITY;
            let mut edits = 0;
            for _ in 0..reps {
                let mut victims = db.sequences().to_vec();
                let mut domain = StringDomain::<Sat64>::new(&pats, sigma_len).with_op(op);
                let start = Instant::now();
                let report = sanitizer.run_domain(&mut victims, &mut domain);
                best = best.min(start.elapsed().as_nanos() as f64 / victims.len() as f64);
                edits = report.marks_introduced;
            }
            println!(
                "string-{:<13} {:>12.0} ns/victim   ({} edits)",
                op.name(),
                best,
                edits
            );
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            write!(
                rows,
                "    {{\"op\": \"{}\", \"victims\": 200, \"edits\": {}, \"ns_per_victim\": {:.0}}}",
                op.name(),
                edits,
                best
            )
            .unwrap();
        }
        rows
    };
    // Incremental maintenance: applying a 1% mutation batch through a
    // live DeltaState (touched-sequence recount + re-marking only the
    // flipped victims) vs recomputing the mutated database from scratch.
    // The headline number for the delta path — target ≥ 5×.
    let (delta_sequences, delta_mutations, delta_full_ns, delta_delta_ns) = {
        let db = markov_db(31, 2000, (64, 64), 16, 0.8);
        let t0 = db.sequences()[0].clone();
        let sh = SensitiveSet::from_patterns(vec![
            SensitivePattern::new(
                Sequence::new(t0.symbols()[..3].to_vec()),
                ConstraintSet::none(),
            )
            .unwrap(),
            SensitivePattern::new(
                Sequence::new(t0.symbols()[4..7].to_vec()),
                ConstraintSet::none(),
            )
            .unwrap(),
        ]);
        let config = Sanitizer::hh(2).with_seed(7);
        let originals = db.sequences().to_vec();
        // 1% churn: 10 appends (copies of early sequences) + 10 removals
        let added: Vec<Sequence> = originals.iter().take(10).cloned().collect();
        let removed: Vec<usize> = (0..10).map(|i| i * 97).collect();
        let delta = SeqDelta {
            added: added.clone(),
            removed: removed.clone(),
        };
        let mutated: Vec<Sequence> = originals
            .iter()
            .enumerate()
            .filter(|(i, _)| !removed.contains(i))
            .map(|(_, t)| t.clone())
            .chain(added.iter().cloned())
            .collect();
        let mut delta_release = Vec::new();
        let delta_ns = {
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let mut domain = MatchEngine::<Sat64>::new(&sh);
                let mut state = DeltaState::build(&config, &mut domain, originals.clone());
                let start = Instant::now();
                state
                    .apply_delta(&mut domain, delta.clone())
                    .expect("bench delta applies");
                best = best.min(start.elapsed().as_nanos() as f64);
                delta_release = state.released().to_vec();
            }
            best
        };
        let full_ns = {
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let mut domain = MatchEngine::<Sat64>::new(&sh);
                let start = Instant::now();
                let state = DeltaState::build(&config, &mut domain, mutated.clone());
                best = best.min(start.elapsed().as_nanos() as f64);
                assert_eq!(
                    state.released(),
                    &delta_release[..],
                    "delta bench: incremental and full releases diverged"
                );
            }
            best
        };
        (
            originals.len(),
            added.len() + removed.len(),
            full_ns,
            delta_ns,
        )
    };
    let delta_speedup = delta_full_ns / delta_delta_ns;
    println!(
        "delta-vs-full        full   {:>12.0} ns/batch    delta   {:>12.0} ns/batch    speedup {:.1}x",
        delta_full_ns, delta_delta_ns, delta_speedup
    );
    if delta_speedup < 5.0 {
        eprintln!("WARNING: delta apply is under the 5x target over full recompute");
    }
    let geo_mean = (log_speedup_sum / workloads.len() as f64).exp();
    let obs_geo_mean = (log_obs_overhead_sum / workloads.len() as f64).exp();
    println!("geometric-mean speedup: {geo_mean:.2}x");
    println!(
        "geometric-mean obs overhead: {:+.2}% (budget < 3%)",
        (obs_geo_mean - 1.0) * 100.0
    );
    if obs_geo_mean > 1.03 {
        eprintln!("WARNING: obs recording overhead exceeds the 3% budget");
    }
    let json = format!(
        "{{\n  \"bench\": \"sanitize\",\n  \"unit\": \"ns per victim, best of {reps}\",\n  \"obs_enabled\": {},\n  \"workloads\": [\n{rows}\n  ],\n  \"speedup\": {geo_mean:.3},\n  \"obs_overhead\": {obs_geo_mean:.4},\n  \"obs_overhead_budget\": 1.03,\n  \"stream_overhead\": {{\"batch_size\": 64, \"memory_ns_per_run\": {stream_mem_ns:.0}, \"stream_ns_per_run\": {stream_stream_ns:.0}, \"overhead\": {stream_overhead:.4}}},\n  \"delta_vs_full\": {{\"sequences\": {delta_sequences}, \"mutations\": {delta_mutations}, \"full_ns_per_batch\": {delta_full_ns:.0}, \"delta_ns_per_batch\": {delta_delta_ns:.0}, \"speedup\": {delta_speedup:.1}, \"target\": 5.0}},\n  \"string_ops\": [\n{string_rows}\n  ]\n}}\n",
        seqhide_obs::is_enabled()
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sanitize.json");
    std::fs::write(out, json).expect("write BENCH_sanitize.json");
    println!("wrote {out}");
}
