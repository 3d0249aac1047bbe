//! Serving benchmark: an in-process server driven by the loadgen
//! library, so serve performance regresses as loudly as the engine's.
//!
//! Boots a `seqhide-serve` server on an ephemeral port, runs the same
//! zipfian pattern/domain mix `seqhide loadgen` uses for a short fixed
//! duration, and writes the merged client-side measurements to
//! `BENCH_serve.json` at the workspace root — throughput, p50/p95/p99
//! latency (log2-bucket histograms with log-linear quantile
//! interpolation, see `docs/OBSERVABILITY.md`), shed rate, drain time,
//! and per template the server's `timings` stages plus the client
//! latency they leave unaccounted. The committed file is the
//! trajectory; CI's serve-load-smoke job re-derives one over the CLI
//! and asserts its sanity.
//!
//! Hand-rolled like `sanitize.rs` rather than criterion: one load run
//! IS the measurement (thousands of requests each timed client-side);
//! re-running it under a sampling harness would just multiply wall
//! time without adding information.

use std::thread;
use std::time::Duration;

use seqhide_serve::loadgen::{run, shutdown, LoadgenOptions};
use seqhide_serve::{ServeOptions, Server};

fn main() {
    let workers = thread::available_parallelism()
        .map_or(4, usize::from)
        .min(8);
    let server = Server::bind(&ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_depth: 64,
        metrics_addr: None,
        data_dir: None,
        tenants: None,
    })
    .expect("bind bench server");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("serve run"));

    let options = LoadgenOptions {
        addr: addr.to_string(),
        clients: workers * 2,
        duration: Duration::from_secs(3),
        psi: 50,
        seed: 42,
        db: None,
        sequences: 64,
        dataset: None,
        delta_fraction: 0.0,
        tenants: 0,
        hog_fraction: 0.0,
    };
    eprintln!(
        "serve bench: {} client(s) against {} worker(s) for {:?}",
        options.clients, workers, options.duration
    );
    let report = run(&options).expect("loadgen run");

    // drain via the wire so the summary's accounting is exercised too
    shutdown(&options.addr, None).expect("shutdown acknowledged");
    let summary = handle.join().expect("server thread");

    eprintln!(
        "  {} request(s), {:.1} req/s, p50 {}µs p95 {}µs p99 {}µs, shed rate {:.4}, drain {}ms \
         (server saw {} requests, shed {})",
        report.requests,
        report.throughput_rps(),
        report.latency.quantile(0.50) / 1_000,
        report.latency.quantile(0.95) / 1_000,
        report.latency.quantile(0.99) / 1_000,
        report.shed_rate(),
        report.drain.as_millis(),
        summary.requests,
        summary.overloads,
    );

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(out, report.to_bench_json(&options)).expect("write BENCH_serve.json");
    eprintln!("wrote {out}");
}
