//! `perfbench`: the compiled half of the seqhide benchmark. `run.py`
//! drives it; see `perfbench/README.md`.
//!
//! ```text
//! perfbench gen wide|long --seed S --dir D --sequences N
//! perfbench gen serve --seed S --dir D --requests N --rate R
//! perfbench check --orig F --release F --psi P [--max-gap G] --pattern P...
//! perfbench trace --db F --out F --psi P --seed S [--max-gap G] [--stream] --pattern P...
//! perfbench client --addr A --requests F --mode open|closed --out F
//! perfbench replay --dir D --requests F
//! ```

mod check;
mod client;
mod gen;
mod replay;
mod rng;
mod trace;

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

struct Args(Vec<(String, Option<String>)>);

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut out = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let key = raw[i].trim_start_matches("--").to_string();
            let value = raw.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
            i += if value.is_some() { 2 } else { 1 };
            out.push((key, value));
        }
        Args(out)
    }
    fn all(&self, key: &str) -> Vec<String> {
        self.0
            .iter()
            .filter(|(k, _)| k == key)
            .filter_map(|(_, v)| v.clone())
            .collect()
    }
    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }
    fn get(&self, key: &str) -> Result<String, String> {
        self.all(key)
            .pop()
            .ok_or_else(|| format!("missing --{key}"))
    }
    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?
            .parse()
            .map_err(|_| format!("--{key}: not a number"))
    }
    fn opt_num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        if self.has(key) {
            self.num(key).map(Some)
        } else {
            Ok(None)
        }
    }
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// `requests.txt` lines: `conn due_us kind key request-json`.
fn read_requests(path: &str) -> Result<Vec<client::Request>, String> {
    read(path)?
        .lines()
        .map(|l| {
            let bad = || format!("bad request line: {l}");
            let parts: Vec<&str> = l.splitn(5, ' ').collect();
            let [conn, due_us, _kind, _key, line] = parts[..] else {
                return Err(bad());
            };
            Ok(client::Request {
                conn: conn.parse().map_err(|_| bad())?,
                due: Duration::from_micros(due_us.parse().map_err(|_| bad())?),
                line: line.to_string(),
            })
        })
        .collect()
}

fn run(raw: &[String]) -> Result<(), String> {
    let (cmd, rest) = raw.split_first().ok_or("missing subcommand")?;
    let args = Args::parse(rest);
    let io = |e: std::io::Error| e.to_string();
    match cmd.as_str() {
        "gen" => {
            let what = rest.first().ok_or("gen: wide|long|serve")?;
            let args = Args::parse(&rest[1..]);
            let seed = args.num("seed")?;
            let dir = args.get("dir")?;
            fs::create_dir_all(&dir).map_err(io)?;
            let dir = Path::new(&dir);
            match what.as_str() {
                "wide" => gen::wide(seed, args.num("sequences")?, dir),
                "long" => gen::long(seed, args.num("sequences")?, dir),
                "serve" => gen::serve(seed, args.num("requests")?, args.num("rate")?, dir),
                other => return Err(format!("gen: unknown input '{other}'")),
            }
            .map_err(io)
        }
        "check" => {
            let v = check::check(
                &read(&args.get("orig")?)?,
                &read(&args.get("release")?)?,
                &args.all("pattern"),
                args.opt_num("max-gap")?,
            )?;
            let psi: usize = args.num("psi")?;
            let supports: Vec<String> = v.supports.iter().map(usize::to_string).collect();
            println!("sequences {}", v.sequences);
            println!("marks {}", v.marks);
            println!("supports {}", supports.join(","));
            println!("hidden {}", u8::from(v.supports.iter().all(|&s| s <= psi)));
            Ok(())
        }
        "trace" => trace::run(&trace::HideArgs {
            db: args.get("db")?,
            out: args.get("out")?,
            patterns: args.all("pattern"),
            psi: args.num("psi")?,
            max_gap: args.opt_num("max-gap")?,
            seed: args.num("seed")?,
            stream: args.has("stream"),
        }),
        "client" => {
            let reqs = read_requests(&args.get("requests")?)?;
            let open_loop = match args.get("mode")?.as_str() {
                "open" => true,
                "closed" => false,
                other => return Err(format!("--mode: unknown '{other}'")),
            };
            let recs = client::run(&args.get("addr")?, &reqs, open_loop).map_err(io)?;
            let mut out = String::new();
            for r in recs {
                let _ = writeln!(
                    out,
                    "{} {} {} {}",
                    r.due_ns, r.sent_ns, r.recv_ns, r.response
                );
            }
            fs::write(args.get("out")?, out).map_err(io)
        }
        "replay" => {
            let lines: Vec<(usize, String)> = read_requests(&args.get("requests")?)?
                .into_iter()
                .map(|r| r.line)
                .enumerate()
                .collect();
            replay::run(Path::new(&args.get("dir")?), &lines)
        }
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
