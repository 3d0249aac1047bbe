//! `seqhide loadgen` — drive a running serve instance with concurrent
//! load and record `BENCH_serve.json`.
//!
//! A thin wrapper over [`seqhide_serve::loadgen`]: N client threads
//! issue a zipfian pattern/domain mix against `--addr` for
//! `--duration-secs`, latencies are histogrammed client-side, and the
//! merged report (throughput, p50/p95/p99, shed rate, drain time) is
//! written to `--out` (default `BENCH_serve.json`). `--shutdown` sends
//! a `shutdown` request after the run so scripted pipelines (CI's
//! serve-load-smoke job) can drain the server without a second tool.

use std::time::Duration;

use seqhide_serve::loadgen::{run, shutdown, LoadgenOptions};

use super::flags::Flags;
use super::{err, CliError};

pub(crate) fn cmd_loadgen(flags: &Flags) -> Result<String, CliError> {
    let addr = flags.required("addr")?.to_string();
    let clients = flags.usize_or("clients", 8)?;
    if clients == 0 {
        return Err(err("--clients must be ≥ 1"));
    }
    let duration_secs = flags.u64_or("duration-secs", 5)?;
    if duration_secs == 0 {
        return Err(err("--duration-secs must be ≥ 1"));
    }
    let db = match flags.one("db") {
        None => None,
        Some(path) => Some(
            std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?,
        ),
    };
    let options = LoadgenOptions {
        addr,
        clients,
        duration: Duration::from_secs(duration_secs),
        psi: flags.usize_or("psi", 50)?,
        seed: flags.u64_or("seed", 0)?,
        db,
        sequences: flags.usize_or("sequences", 64)?,
        dataset: flags.one("dataset").map(str::to_string),
        delta_fraction: match flags.one("delta-fraction") {
            None => 0.0,
            Some(raw) => {
                let f: f64 = raw
                    .parse()
                    .map_err(|_| err(format!("--delta-fraction: '{raw}' is not a number")))?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(err("--delta-fraction must be within [0, 1]"));
                }
                f
            }
        },
        tenants: flags.usize_or("tenants", 0)?,
        hog_fraction: match flags.one("hog-fraction") {
            None => 0.0,
            Some(raw) => {
                let f: f64 = raw
                    .parse()
                    .map_err(|_| err(format!("--hog-fraction: '{raw}' is not a number")))?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(err("--hog-fraction must be within [0, 1]"));
                }
                f
            }
        },
    };
    if options.delta_fraction > 0.0 && options.dataset.is_none() {
        return Err(err(
            "--delta-fraction needs --dataset (deltas mutate a named dataset)",
        ));
    }
    if options.hog_fraction > 0.0 && options.tenants < 2 {
        return Err(err(
            "--hog-fraction needs --tenants ≥ 2 (one hog plus at least one light \
             tenant to be unfair to)",
        ));
    }
    if options.tenants > 0 {
        eprintln!(
            "[seqhide loadgen] multi-tenant mix: {} tenant(s), hog fraction {:.2} \
             (tokens t0..t{})",
            options.tenants,
            options.hog_fraction,
            options.tenants - 1
        );
    }
    eprintln!(
        "[seqhide loadgen] {} client(s) against {} for {}s",
        options.clients, options.addr, duration_secs
    );
    let report = run(&options).map_err(err)?;
    let out_path = flags.one("out").unwrap_or("BENCH_serve.json");
    std::fs::write(out_path, report.to_bench_json(&options))
        .map_err(|e| err(format!("cannot write {out_path}: {e}")))?;
    if flags.has("shutdown") {
        // A multi-tenant server with no default tenant refuses untagged
        // requests, so the shutdown rides on tenant 0's token.
        let token = (options.tenants > 0).then_some("t0");
        shutdown(&options.addr, token).map_err(err)?;
    }
    let delta_note = if report.delta_latency.count > 0 {
        format!(
            " ({} delta(s), p50 {}µs p99 {}µs)",
            report.delta_latency.count,
            report.delta_latency.quantile(0.50) / 1_000,
            report.delta_latency.quantile(0.99) / 1_000,
        )
    } else {
        String::new()
    };
    let fairness_note = if report.tenants.is_empty() {
        String::new()
    } else {
        format!(" (Jain fairness {:.4})", report.jain_fairness)
    };
    Ok(format!(
        "loadgen: {} request(s) in {:.1}s — {:.1} req/s, p50 {}µs p95 {}µs p99 {}µs, \
         shed rate {:.4}, drain {}ms{delta_note}{fairness_note}; wrote {out_path}\n",
        report.requests,
        report.elapsed.as_secs_f64(),
        report.throughput_rps(),
        report.latency.quantile(0.50) / 1_000,
        report.latency.quantile(0.95) / 1_000,
        report.latency.quantile(0.99) / 1_000,
        report.shed_rate(),
        report.drain.as_millis(),
    ))
}
