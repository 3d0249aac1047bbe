//! Seeded inputs. The program under test only ever receives the files
//! written here; every choice below is a function of the seed.
//!
//! Each generator writes `db.txt` (or one file per dataset) and a
//! `spec.txt` of `key value` lines that `run.py` turns into CLI flags.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use seqhide::data::{synthetic_like, trucks_like, Dataset};

use crate::rng::Rng;

/// A first-order Markov chain over `alphabet` symbols: with probability
/// `locality` the next symbol is a ±1 neighbour (wrapping), otherwise
/// uniform — the spatial locality of discretized trajectories.
fn markov_seq(rng: &mut Rng, len: usize, alphabet: usize, locality: f64) -> Vec<usize> {
    let mut cur = rng.below(alphabet);
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(cur);
        cur = if rng.unit() < locality {
            if rng.below(2) == 0 {
                (cur + 1) % alphabet
            } else {
                (cur + alphabet - 1) % alphabet
            }
        } else {
            rng.below(alphabet)
        };
    }
    out
}

fn render(seq: &[usize], out: &mut String) {
    for (i, s) in seq.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "s{s}");
    }
}

fn markov_text(rng: &mut Rng, n: usize, lens: (usize, usize), alphabet: usize) -> String {
    let mut text = String::with_capacity(n * 100);
    for _ in 0..n {
        let len = rng.range(lens.0, lens.1);
        render(&markov_seq(rng, len, alphabet, 0.8), &mut text);
        text.push('\n');
    }
    text
}

/// Walk patterns shaped like the chain's own moves (`s(k) s(k±1) …`):
/// one per entry of `lens`, pairwise distinct. Fixing the lengths keeps the
/// supporter share nearly the same for every seed.
fn walk_patterns(rng: &mut Rng, lens: &[usize], alphabet: usize) -> Vec<String> {
    let mut patterns: Vec<String> = Vec::new();
    for &len in lens {
        loop {
            let mut cur = rng.below(alphabet);
            let mut walk = vec![cur];
            while walk.len() < len {
                cur = if rng.below(2) == 0 {
                    (cur + 1) % alphabet
                } else {
                    (cur + alphabet - 1) % alphabet
                };
                walk.push(cur);
            }
            let mut text = String::new();
            render(&walk, &mut text);
            if !patterns.contains(&text) {
                patterns.push(text);
                break;
            }
        }
    }
    patterns
}

fn write_spec(dir: &Path, lines: &[(String, String)]) -> io::Result<()> {
    let mut text = String::new();
    for (k, v) in lines {
        let _ = writeln!(text, "{k} {v}");
    }
    fs::write(dir.join("spec.txt"), text)
}

/// `hide_wide` / `hide_stream`: `n` short Markov sequences (10–40
/// symbols over 400) and 8 gap-constrained walk patterns of 3–5 symbols.
pub fn wide(seed: u64, n: usize, dir: &Path) -> io::Result<()> {
    let mut rng = Rng::new(seed);
    fs::write(dir.join("db.txt"), markov_text(&mut rng, n, (10, 40), 400))?;
    let mut spec = vec![
        ("sequences".to_string(), n.to_string()),
        ("psi".to_string(), "20".to_string()),
        ("max_gap".to_string(), "8".to_string()),
    ];
    for p in walk_patterns(&mut rng, &[3, 3, 3, 3, 4, 4, 5, 5], 400) {
        spec.push(("pattern".to_string(), p));
    }
    write_spec(dir, &spec)
}

/// `hide_long`: `n` long sequences (384–640 symbols, iid over 24) and two
/// unconstrained 3-symbol patterns drawn from the data. The six pattern
/// symbols are distinct, so by symmetry every seed poses the same problem.
pub fn long(seed: u64, n: usize, dir: &Path) -> io::Result<()> {
    let mut rng = Rng::new(seed);
    let seqs: Vec<Vec<usize>> = (0..n)
        .map(|_| {
            let len = rng.range(384, 640);
            (0..len).map(|_| rng.below(24)).collect()
        })
        .collect();
    let mut text = String::with_capacity(n * 2000);
    for s in &seqs {
        render(s, &mut text);
        text.push('\n');
    }
    fs::write(dir.join("db.txt"), text)?;
    let mut used: Vec<usize> = Vec::new();
    let mut spec = vec![
        ("sequences".to_string(), n.to_string()),
        ("psi".to_string(), "20".to_string()),
    ];
    while spec.len() < 4 {
        let s = &seqs[rng.below(n)];
        let mut pos = [rng.below(s.len()), rng.below(s.len()), rng.below(s.len())];
        pos.sort_unstable();
        let syms: Vec<usize> = pos.iter().map(|&p| s[p]).collect();
        let fresh = pos[0] < pos[1]
            && pos[1] < pos[2]
            && syms.iter().all(|x| !used.contains(x))
            && syms[0] != syms[1]
            && syms[1] != syms[2]
            && syms[0] != syms[2];
        if fresh {
            used.extend_from_slice(&syms);
            let mut p = String::new();
            render(&syms, &mut p);
            spec.push(("pattern".to_string(), p));
        }
    }
    write_spec(dir, &spec)
}

fn dataset_patterns(d: &Dataset) -> Vec<String> {
    d.sensitive
        .iter()
        .map(|p| {
            p.seq()
                .iter()
                .map(|&s| d.db.alphabet().render(s))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

/// One serve dataset: its name, text, patterns and the ψ values requests
/// draw from.
struct ServeDataset {
    name: &'static str,
    text: String,
    patterns: Vec<String>,
    psis: [usize; 2],
}

fn json_str_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(","))
}

/// `serve_mixed`: four datasets and a request list with a Poisson
/// schedule. Reads go to `trucks`, `synth` and `big` on connection 0;
/// deltas go to `wtrucks` (which no read touches) on connection 1.
///
/// `requests.txt` lines are `conn due_us kind key request-json`, where
/// `key` names the distinct sanitize spec (`-` for other kinds).
pub fn serve(seed: u64, requests: usize, rate: f64, dir: &Path) -> io::Result<()> {
    let mut rng = Rng::new(seed);
    let trucks = trucks_like(seed);
    let synth = synthetic_like(seed);
    let wtrucks = trucks_like(seed ^ 0x5a5a);
    let mut big_rng = Rng::new(seed ^ 0xb16);
    let reads = [
        ServeDataset {
            name: "trucks",
            text: trucks.db.to_text(),
            patterns: dataset_patterns(&trucks),
            psis: [5, 20],
        },
        ServeDataset {
            name: "synth",
            text: synth.db.to_text(),
            patterns: dataset_patterns(&synth),
            psis: [10, 50],
        },
        ServeDataset {
            name: "big",
            text: markov_text(&mut big_rng, 1000, (20, 40), 400),
            patterns: walk_patterns(&mut big_rng, &[3, 3, 3, 3], 400),
            psis: [2, 5],
        },
    ];
    let write_ds = ServeDataset {
        name: "wtrucks",
        text: wtrucks.db.to_text(),
        patterns: dataset_patterns(&wtrucks),
        psis: [5, 5],
    };
    let mut spec = String::new();
    for d in reads.iter().chain(std::iter::once(&write_ds)) {
        fs::write(dir.join(format!("{}.txt", d.name)), &d.text)?;
        let _ = writeln!(
            spec,
            "dataset {} {} {}",
            d.name,
            d.psis[0],
            json_str_array(&d.patterns)
        );
    }
    fs::write(dir.join("spec.txt"), spec)?;

    // Delta `add` lines: fresh trajectories shaped like the write dataset.
    let extra = trucks_like(seed ^ 0xadd);
    let extra_lines: Vec<String> = extra.db.to_text().lines().map(str::to_string).collect();
    let write_len = wtrucks.db.len();

    // A fixed multiset of requests, so every seed asks for the same work:
    // each block of 20 holds 6 deltas and 14 reads (8 sanitize — 3 on
    // `trucks`, 3 on `synth`, 2 on `big`, whose responses are >= 100 KB —
    // then one verify and one stats per read dataset). Block `b` cycles
    // the sanitize settings through ψ × algorithm. The seed only picks the
    // order, the arrival times and the delta edits.
    let algorithms = ["hh", "rr"];
    let mut list: Vec<(usize, &'static str, String, String)> = Vec::new();
    for b in 0..requests.div_ceil(20) {
        let psi_ix = b % 2;
        let algorithm = algorithms[(b / 2) % 2];
        for _ in 0..6 {
            let add = &extra_lines[rng.below(extra_lines.len())];
            let remove = rng.below(write_len);
            let line = format!(
                "{{\"type\":\"delta\",\"dataset\":\"{}\",\"add\":[\"{add}\"],\"remove\":[{remove}],\"patterns\":{},\"psi\":{}}}",
                write_ds.name,
                json_str_array(&write_ds.patterns),
                write_ds.psis[0]
            );
            list.push((1, "delta", "-".to_string(), line));
        }
        for (d, copies) in reads.iter().zip([3, 3, 2]) {
            for c in 0..copies {
                let psi = d.psis[psi_ix];
                let algorithm = if c == 0 {
                    algorithm
                } else {
                    algorithms[(c + b) % 2]
                };
                let key = format!("{}:{psi}:{algorithm}", d.name);
                let line = format!(
                    "{{\"type\":\"sanitize\",\"dataset\":\"{}\",\"patterns\":{},\"psi\":{psi},\"algorithm\":\"{algorithm}\",\"seed\":7}}",
                    d.name,
                    json_str_array(&d.patterns)
                );
                list.push((0, "sanitize", key, line));
            }
            let line = format!(
                "{{\"type\":\"verify\",\"dataset\":\"{}\",\"patterns\":{},\"psi\":{}}}",
                d.name,
                json_str_array(&d.patterns),
                d.psis[0]
            );
            list.push((0, "verify", d.name.to_string(), line));
            let line = format!("{{\"type\":\"stats\",\"dataset\":\"{}\"}}", d.name);
            list.push((0, "stats", d.name.to_string(), line));
        }
    }
    list.truncate(requests);
    for i in (1..list.len()).rev() {
        list.swap(i, rng.below(i + 1));
    }
    let mut out = String::new();
    let mut due_us = 0f64;
    for (conn, kind, key, line) in list {
        // Exponential inter-arrival times: an open-loop Poisson schedule.
        due_us += -(1.0 - rng.unit()).ln() / rate * 1e6;
        let _ = writeln!(out, "{conn} {} {kind} {key} {line}", due_us.round() as u64);
    }
    fs::write(dir.join("requests.txt"), out)
}
