//! Concurrent load generator for a running serve instance — the core
//! of `seqhide loadgen`.
//!
//! N client threads each hold one connection and issue requests
//! back-to-back (one outstanding request per connection, matching the
//! per-connection FIFO the server implements; aggregate concurrency is
//! the client count). Each iteration draws a request template from a
//! **zipfian** mix over pattern/domain classes — a head-heavy plain
//! sanitize plus a tail of string/itemset/timed/verify/stats/health
//! requests — so the server sees the skewed, mixed traffic a real
//! deployment would, not one uniform request repeated.
//!
//! Latency is recorded client-side into [`HistStat`] values (the same
//! log2 buckets and quantile estimator as the server's telemetry), so
//! the p50/p95/p99 in `BENCH_serve.json` are directly comparable to
//! the server's `serve_request_nanos` histogram. Each template's row
//! also reconciles its client latency with the server's own `timings`:
//! every stage a sanitize reply reports, plus the remainder no stage
//! covers (`unaccounted_ns`), so time lost on the wire shows up as a
//! number instead of hiding inside the total.
//!
//! Every connection sets `TCP_NODELAY` and sends each request as one
//! write ([`protocol::write_line`]), the framing contract the server
//! keeps for its replies.
//!
//! Everything here is std-only and deterministic given `seed`: the
//! per-client RNG is an inline splitmix64 (the serve crate carries no
//! rand dependency), and the synthetic workload database comes from
//! `seqhide_data::markov_db`.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use seqhide_obs::HistStat;

use crate::json::Json;
use crate::protocol;
use crate::trace::Timings;

/// Load-generation parameters.
#[derive(Clone, Debug)]
pub struct LoadgenOptions {
    /// Server address, e.g. `127.0.0.1:7070`.
    pub addr: String,
    /// Concurrent client connections (≥ 1).
    pub clients: usize,
    /// How long each client keeps issuing requests.
    pub duration: Duration,
    /// Hiding threshold ψ sent in sanitize/verify requests.
    pub psi: usize,
    /// RNG seed: workload database + per-client request draws.
    pub seed: u64,
    /// Workload database text; `None` synthesizes one from the seed.
    pub db: Option<String>,
    /// Synthetic database size (sequences) when `db` is `None`.
    pub sequences: usize,
    /// When set, the workload database is `load`ed onto the server once
    /// under this name before the run and every db-carrying template
    /// references it with `dataset` — so the load measures the
    /// interned-dataset request path instead of re-shipping the database
    /// in every request body.
    pub dataset: Option<String>,
    /// Fraction of requests issued as `delta` mutations against the
    /// pre-loaded dataset (each appends one sequence and retires
    /// ordinal 0, so the dataset keeps its size while its content
    /// churns). Requires `dataset`; 0 disables the mutation template.
    pub delta_fraction: f64,
    /// Multi-tenant mode: stamp every request with a tenant token
    /// (`t0`..`t{N-1}`, matching a server `--tenants` config that names
    /// those tokens) and report per-tenant latency and shed counts.
    /// 0 disables tenant stamping entirely (single-tenant traffic).
    pub tenants: usize,
    /// Fraction of the clients assigned to the **hog** tenant `t0`,
    /// which issues `delay_ms`-laden sanitizes that pin workers; the
    /// remaining clients spread round-robin over the light tenants
    /// `t1..`. The adversarial mix behind the fairness bench: light
    /// tenants should keep their latency while the hog absorbs the
    /// shedding. 0 sends no hog traffic.
    pub hog_fraction: f64,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            addr: String::new(),
            clients: 8,
            duration: Duration::from_secs(5),
            psi: 50,
            seed: 0,
            db: None,
            sequences: 64,
            dataset: None,
            delta_fraction: 0.0,
            tenants: 0,
            hog_fraction: 0.0,
        }
    }
}

/// The `timings` stages a sanitize reply reports, followed by the
/// client-side remainder: client latency minus the stages' sum. The
/// names are the `BENCH_serve.json` keys of [`TemplateLoad::stages`].
pub const STAGES: [&str; 5] = [
    "queue_wait_ns",
    "parse_ns",
    "sanitize_ns",
    "serialize_ns",
    "unaccounted_ns",
];

/// One template's share of the traffic in the final report.
#[derive(Clone, Debug)]
pub struct TemplateLoad {
    /// Template name (e.g. `plain-hh`).
    pub name: &'static str,
    /// Requests sent from this template.
    pub sent: u64,
    /// Client-side latency of this template's requests.
    pub latency: HistStat,
    /// One histogram per [`STAGES`] entry, over the replies that
    /// carried `timings` (successful sanitizes); empty for the other
    /// request types.
    pub stages: [HistStat; 5],
}

impl TemplateLoad {
    fn new(name: &'static str) -> TemplateLoad {
        TemplateLoad {
            name,
            sent: 0,
            latency: HistStat::default(),
            stages: Default::default(),
        }
    }

    /// Records one reply: its client latency and, when the server
    /// reported `timings`, each stage and the unaccounted remainder.
    fn record(&mut self, latency_ns: u64, timings: Option<Timings>) {
        self.sent += 1;
        self.latency.record(latency_ns);
        if let Some(t) = timings {
            let legs = [
                t.queue_wait_ns,
                t.parse_ns,
                t.sanitize_ns,
                t.serialize_ns,
                latency_ns.saturating_sub(t.sum_ns()),
            ];
            for (hist, ns) in self.stages.iter_mut().zip(legs) {
                hist.record(ns);
            }
        }
    }

    fn merge(&mut self, other: &TemplateLoad) {
        self.sent += other.sent;
        self.latency.merge(&other.latency);
        for (hist, theirs) in self.stages.iter_mut().zip(&other.stages) {
            hist.merge(theirs);
        }
    }

    /// The `mix` row: counts and client p50/p99, then — when any reply
    /// was timed — how many were, and p50/p99 per stage.
    fn to_json_row(&self) -> String {
        use std::fmt::Write as _;
        let quantiles = |h: &HistStat| {
            format!(
                "{{\"p50\": {}, \"p99\": {}}}",
                h.quantile(0.50),
                h.quantile(0.99)
            )
        };
        let mut row = format!(
            "{{\"template\": \"{}\", \"sent\": {}, \"client_ns\": {}",
            self.name,
            self.sent,
            quantiles(&self.latency)
        );
        let timed = self.stages[0].count;
        if timed > 0 {
            let _ = write!(row, ", \"timed\": {timed}");
            for (name, hist) in STAGES.iter().zip(&self.stages) {
                let _ = write!(row, ", \"{name}\": {}", quantiles(hist));
            }
        }
        row.push('}');
        row
    }
}

/// One tenant's share of a multi-tenant load run.
#[derive(Clone, Debug)]
pub struct TenantLoad {
    /// The tenant token the clients stamped (`t0`, `t1`, ...).
    pub token: String,
    /// Clients assigned to this tenant.
    pub clients: usize,
    /// Requests sent by this tenant's clients.
    pub requests: u64,
    /// Responses with status `ok`.
    pub ok: u64,
    /// Responses with status `overloaded` (global or rate shedding).
    pub overloaded: u64,
    /// Responses with status `quota_exceeded` (the tenant's own quota).
    pub quota_exceeded: u64,
    /// This tenant's client-side latency histogram.
    pub latency: HistStat,
}

/// Jain's fairness index over a set of per-tenant shares: 1.0 when all
/// shares are equal, approaching 1/n when one tenant takes everything.
/// An empty or all-zero set reads as perfectly fair.
pub fn jain_index(shares: &[f64]) -> f64 {
    let sum: f64 = shares.iter().sum();
    let sumsq: f64 = shares.iter().map(|v| v * v).sum();
    if sumsq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (shares.len() as f64 * sumsq)
}

/// What a load run measured.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Requests sent (and answered — the client loop is synchronous).
    pub requests: u64,
    /// Responses with status `ok`.
    pub ok: u64,
    /// Responses with status `overloaded` (shed by backpressure).
    pub overloaded: u64,
    /// Any other status (errors, `shutting_down`).
    pub errors: u64,
    /// Wall time from first request to the last response.
    pub elapsed: Duration,
    /// How long past the configured deadline the last straggling
    /// response took to arrive — the observed drain time of requests
    /// in flight when the load stopped.
    pub drain: Duration,
    /// Client-side latency histogram (nanoseconds per request).
    pub latency: HistStat,
    /// Latency of `delta` requests alone (empty when the mutation
    /// template is disabled) — deltas serialize on the server's session
    /// lock, so their tail is worth watching separately.
    pub delta_latency: HistStat,
    /// Per-template requests, latency and server stages, mix order
    /// (heaviest first).
    pub mix: Vec<TemplateLoad>,
    /// Per-tenant breakdown (empty in single-tenant runs).
    pub tenants: Vec<TenantLoad>,
    /// Jain's fairness index over the **light** tenants' `ok`
    /// throughput (the hog is throttled by design, so it is excluded
    /// when light tenants carried traffic). 1.0 in single-tenant runs.
    pub jain_fairness: f64,
}

impl LoadReport {
    /// Fraction of requests shed with `overloaded` (0 when none sent).
    pub fn shed_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.overloaded as f64 / self.requests as f64
        }
    }

    /// Requests per second over the measured window.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.requests as f64 / secs
        }
    }

    /// Renders the `BENCH_serve.json` document.
    pub fn to_bench_json(&self, options: &LoadgenOptions) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n  \"bench\": \"serve\",\n");
        let _ = writeln!(out, "  \"clients\": {},", options.clients);
        let _ = writeln!(
            out,
            "  \"duration_secs\": {:.3},",
            options.duration.as_secs_f64()
        );
        let _ = writeln!(out, "  \"psi\": {},", options.psi);
        let _ = writeln!(out, "  \"seed\": {},", options.seed);
        match &options.dataset {
            Some(name) => {
                let _ = writeln!(out, "  \"dataset\": {},", Json::Str(name.clone()).render());
            }
            None => out.push_str("  \"dataset\": null,\n"),
        }
        let _ = writeln!(out, "  \"delta_fraction\": {:.4},", options.delta_fraction);
        let _ = writeln!(out, "  \"requests\": {},", self.requests);
        let _ = writeln!(out, "  \"ok\": {},", self.ok);
        let _ = writeln!(out, "  \"overloaded\": {},", self.overloaded);
        let _ = writeln!(out, "  \"errors\": {},", self.errors);
        let _ = writeln!(
            out,
            "  \"elapsed_secs\": {:.3},",
            self.elapsed.as_secs_f64()
        );
        let _ = writeln!(out, "  \"throughput_rps\": {:.1},", self.throughput_rps());
        let _ = writeln!(out, "  \"shed_rate\": {:.4},", self.shed_rate());
        let _ = writeln!(out, "  \"drain_ms\": {},", self.drain.as_millis());
        let _ = writeln!(out, "  \"latency_ns\": {{");
        let _ = writeln!(out, "    \"count\": {},", self.latency.count);
        let _ = writeln!(out, "    \"mean\": {:.0},", self.latency.mean());
        let _ = writeln!(out, "    \"p50\": {},", self.latency.quantile(0.50));
        let _ = writeln!(out, "    \"p95\": {},", self.latency.quantile(0.95));
        let _ = writeln!(out, "    \"p99\": {},", self.latency.quantile(0.99));
        let _ = writeln!(out, "    \"max\": {}", self.latency.max);
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"delta_latency_ns\": {{");
        let _ = writeln!(out, "    \"count\": {},", self.delta_latency.count);
        let _ = writeln!(out, "    \"p50\": {},", self.delta_latency.quantile(0.50));
        let _ = writeln!(out, "    \"p99\": {},", self.delta_latency.quantile(0.99));
        let _ = writeln!(out, "    \"max\": {}", self.delta_latency.max);
        let _ = writeln!(out, "  }},");
        // The per-tenant section appears only in multi-tenant runs, so
        // single-tenant BENCH_serve.json documents are unchanged.
        if !self.tenants.is_empty() {
            out.push_str("  \"tenants\": [\n");
            for (i, t) in self.tenants.iter().enumerate() {
                let comma = if i + 1 < self.tenants.len() { "," } else { "" };
                let _ = writeln!(
                    out,
                    "    {{\"tenant\": {}, \"clients\": {}, \"requests\": {}, \"ok\": {}, \
                     \"overloaded\": {}, \"quota_exceeded\": {}, \"p50_ns\": {}, \
                     \"p99_ns\": {}}}{comma}",
                    Json::Str(t.token.clone()).render(),
                    t.clients,
                    t.requests,
                    t.ok,
                    t.overloaded,
                    t.quota_exceeded,
                    t.latency.quantile(0.50),
                    t.latency.quantile(0.99),
                );
            }
            out.push_str("  ],\n");
            let _ = writeln!(out, "  \"jain_fairness\": {:.4},", self.jain_fairness);
        }
        out.push_str("  \"mix\": [\n");
        for (i, t) in self.mix.iter().enumerate() {
            let comma = if i + 1 < self.mix.len() { "," } else { "" };
            let _ = writeln!(out, "    {}{comma}", t.to_json_row());
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// splitmix64: tiny, well-mixed, std-only.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One pre-rendered request line plus its display name.
struct Template {
    name: &'static str,
    line: String,
}

const ITEMSET_DB: &str = "bread,milk beer bread,diapers\nbeer bread,milk diapers\nbread,milk beer\nmilk beer,diapers bread\n";
const TIMED_DB: &str = "a@1 b@3 c@6 a@9\nb@2 a@4 c@7\na@1 c@2 b@5 a@8\nc@3 a@5 b@9\n";

/// Builds the zipfian template mix for a plain-format workload
/// database: a head of plain sanitizes, then string/verify/itemset/
/// timed/stats/health tails. Patterns are drawn from the database's
/// own first sequence so every sanitize has real work to do.
///
/// `tenant` bakes a token into every rendered line (multi-tenant runs);
/// `hog_delay_ms` > 0 adds a `delay_ms` knob to the sanitize templates,
/// turning the set into the worker-pinning hog workload.
fn build_templates(
    db: &str,
    psi: usize,
    seed: u64,
    dataset: Option<&str>,
    tenant: Option<&str>,
    hog_delay_ms: u64,
) -> Result<Vec<Template>, String> {
    let (head, tail, _) = workload_patterns(db)?;

    let req = |name: &'static str, fields: Vec<(String, Json)>| {
        let mut fields = fields;
        if let Some(token) = tenant {
            fields.push(("tenant".to_string(), Json::Str(token.to_string())));
        }
        if hog_delay_ms > 0
            && fields
                .iter()
                .any(|(k, v)| k == "type" && v.as_str() == Some("sanitize"))
        {
            fields.push(("delay_ms".to_string(), Json::num(hog_delay_ms)));
        }
        Template {
            name,
            line: Json::Obj(fields).render(),
        }
    };
    let s = |v: &str| Json::Str(v.to_string());
    let pats = |ps: &[&str]| Json::Arr(ps.iter().map(|p| Json::Str(p.to_string())).collect());
    // The workload database field: the full text inline, or a reference
    // to the pre-loaded dataset (the itemset/timed templates keep their
    // tiny inline databases either way).
    let workload_db = || match dataset {
        Some(name) => ("dataset".to_string(), s(name)),
        None => ("db".to_string(), s(db)),
    };

    Ok(vec![
        req(
            "plain-hh",
            vec![
                ("type".to_string(), s("sanitize")),
                workload_db(),
                ("patterns".to_string(), pats(&[&head, &tail])),
                ("psi".to_string(), Json::num(psi as u64)),
            ],
        ),
        req(
            "plain-rr",
            vec![
                ("type".to_string(), s("sanitize")),
                workload_db(),
                ("patterns".to_string(), pats(&[&head])),
                ("psi".to_string(), Json::num(psi as u64)),
                ("algorithm".to_string(), s("rr")),
                ("seed".to_string(), Json::num(seed)),
            ],
        ),
        req(
            "string-substitute",
            vec![
                ("type".to_string(), s("sanitize")),
                workload_db(),
                ("mode".to_string(), s("string")),
                ("patterns".to_string(), pats(&[&head])),
                ("psi".to_string(), Json::num(psi as u64)),
                ("op".to_string(), s("substitute")),
            ],
        ),
        req(
            "verify",
            vec![
                ("type".to_string(), s("verify")),
                workload_db(),
                ("patterns".to_string(), pats(&[&head, &tail])),
                ("psi".to_string(), Json::num(psi as u64)),
            ],
        ),
        req(
            "itemset",
            vec![
                ("type".to_string(), s("sanitize")),
                ("db".to_string(), s(ITEMSET_DB)),
                ("mode".to_string(), s("itemset")),
                ("patterns".to_string(), pats(&["bread,milk beer"])),
                ("psi".to_string(), Json::num(1)),
            ],
        ),
        req(
            "timed",
            vec![
                ("type".to_string(), s("sanitize")),
                ("db".to_string(), s(TIMED_DB)),
                ("mode".to_string(), s("timed")),
                ("patterns".to_string(), pats(&["a c"])),
                ("psi".to_string(), Json::num(1)),
            ],
        ),
        req(
            "stats",
            vec![
                ("type".to_string(), s("stats")),
                workload_db(),
                ("mode".to_string(), s("plain")),
            ],
        ),
        req("health", vec![("type".to_string(), s("health"))]),
    ])
}

/// Pattern material drawn from the workload database's first sequence:
/// a head prefix, a tail suffix, and the full (Δ-stripped) line itself.
fn workload_patterns(db: &str) -> Result<(String, String, String), String> {
    let first_line = db
        .lines()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| "workload database is empty".to_string())?;
    let tokens: Vec<&str> = first_line
        .split_whitespace()
        .filter(|t| *t != "Δ")
        .collect();
    if tokens.len() < 2 {
        return Err("workload database's first sequence has fewer than 2 symbols".to_string());
    }
    let head = tokens[..tokens.len().min(3)].join(" ");
    let tail = if tokens.len() >= 4 {
        tokens[tokens.len() - 2..].join(" ")
    } else {
        tokens[..2].join(" ")
    };
    Ok((head, tail, tokens.join(" ")))
}

/// The mutation template behind `--delta-fraction`: one `delta` that
/// appends the database's own first sequence and retires ordinal 0 —
/// the dataset keeps its size while its content churns, and the
/// pattern/ψ choice mirrors `plain-hh` so the incremental path does
/// comparable selection work.
fn delta_template(db: &str, psi: usize, dataset: &str) -> Result<Template, String> {
    let (head, tail, add_line) = workload_patterns(db)?;
    let s = |v: &str| Json::Str(v.to_string());
    Ok(Template {
        name: "delta",
        line: Json::Obj(vec![
            ("type".to_string(), s("delta")),
            ("dataset".to_string(), s(dataset)),
            ("add".to_string(), Json::Arr(vec![s(&add_line)])),
            ("remove".to_string(), Json::Arr(vec![Json::num(0)])),
            ("patterns".to_string(), Json::Arr(vec![s(&head), s(&tail)])),
            ("psi".to_string(), Json::num(psi as u64)),
        ])
        .render(),
    })
}

/// The tenant token clients stamp for tenant index `i` — the contract
/// a fairness-bench `--tenants` server config has to name.
fn tenant_token(i: usize) -> String {
    format!("t{i}")
}

/// Cumulative zipfian weights over `n` ranks (weight of rank r is
/// 1/(r+1)), normalized to [0, 1].
fn zipf_cumulative(n: usize) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / (r as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mut cum = 0.0;
    weights
        .iter()
        .map(|w| {
            cum += w / total;
            cum
        })
        .collect()
}

struct ClientStats {
    hist: HistStat,
    ok: u64,
    overloaded: u64,
    quota: u64,
    errors: u64,
    mix: Vec<TemplateLoad>,
    last_response: Option<Instant>,
}

/// Opens a client connection with `TCP_NODELAY` set, so each request
/// line leaves as soon as it is written.
fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("set TCP_NODELAY on {addr}: {e}"))?;
    Ok(stream)
}

/// Sends one request line on a fresh connection and returns the reply
/// line.
fn round_trip(addr: &str, mut request: String) -> Result<String, String> {
    let mut stream = connect(addr)?;
    protocol::write_line(&mut stream, &mut request).map_err(|e| format!("send: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("recv: {e}"))?;
    Ok(line)
}

fn client_loop(
    addr: &str,
    templates: &[Template],
    cum: &[f64],
    delta: Option<(usize, f64)>,
    deadline: Instant,
    seed: u64,
) -> Result<ClientStats, String> {
    let mut reader = BufReader::new(connect(addr)?);
    // `write_line` frames a line by appending the terminator in place,
    // so each request is copied into this client's own buffer (outside
    // the timed window) rather than every client cloning every template.
    let mut request = String::new();
    let mut rng = seed;
    let mut stats = ClientStats {
        hist: HistStat::default(),
        ok: 0,
        overloaded: 0,
        quota: 0,
        errors: 0,
        mix: templates
            .iter()
            .map(|t| TemplateLoad::new(t.name))
            .collect(),
        last_response: None,
    };
    let mut line = String::new();
    while Instant::now() < deadline {
        // The mutation gate draws first (when enabled); misses fall
        // through to the zipfian mix over the read templates.
        let pick = match delta {
            Some((at, fraction)) if splitmix64(&mut rng) as f64 / u64::MAX as f64 <= fraction => at,
            _ => {
                let u = splitmix64(&mut rng) as f64 / u64::MAX as f64;
                cum.iter().position(|&c| u <= c).unwrap_or(cum.len() - 1)
            }
        };
        request.clear();
        request.push_str(&templates[pick].line);
        let started = Instant::now();
        protocol::write_line(reader.get_mut(), &mut request).map_err(|e| format!("send: {e}"))?;
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection mid-run".to_string());
        }
        let now = Instant::now();
        let elapsed_ns = now.duration_since(started).as_nanos() as u64;
        stats.hist.record(elapsed_ns);
        stats.last_response = Some(now);
        stats.mix[pick].record(elapsed_ns, protocol::spliced_timings(&line));
        // Responses render `status` as one of a closed set; substring
        // classification avoids parsing multi-megabyte release payloads
        // on the measurement path.
        if line.contains("\"status\":\"ok\"") {
            stats.ok += 1;
        } else if line.contains("\"status\":\"overloaded\"") {
            stats.overloaded += 1;
        } else if line.contains("\"status\":\"quota_exceeded\"") {
            stats.quota += 1;
        } else {
            stats.errors += 1;
        }
    }
    Ok(stats)
}

/// Interns the workload database on the server once, before any client
/// starts. An "already loaded" refusal is accepted as success so
/// repeated runs against one server reuse the interned copy (whatever
/// text it holds — replacing it is an explicit `unload` away).
fn preload_dataset(addr: &str, name: &str, db: &str, tenant: Option<&str>) -> Result<(), String> {
    let mut fields = vec![
        ("type".to_string(), Json::Str("load".to_string())),
        ("name".to_string(), Json::Str(name.to_string())),
        ("db".to_string(), Json::Str(db.to_string())),
    ];
    if let Some(token) = tenant {
        fields.push(("tenant".to_string(), Json::Str(token.to_string())));
    }
    let line =
        round_trip(addr, Json::Obj(fields).render()).map_err(|e| format!("load '{name}': {e}"))?;
    if line.contains("\"status\":\"ok\"") || line.contains("already loaded") {
        Ok(())
    } else {
        Err(format!("load '{name}' failed: {}", line.trim()))
    }
}

/// Sends a `shutdown` request (stamped with `tenant`'s token, if any)
/// and waits for the acknowledgement, so the caller can rely on the
/// server having begun its drain. Any other reply (e.g. an unresolved
/// tenant token) is an error: the server would otherwise keep running
/// after a "successful" shutdown.
pub fn shutdown(addr: &str, tenant: Option<&str>) -> Result<(), String> {
    let mut fields = vec![("type".to_string(), Json::Str("shutdown".to_string()))];
    if let Some(token) = tenant {
        fields.push(("tenant".to_string(), Json::Str(token.to_string())));
    }
    let line =
        round_trip(addr, Json::Obj(fields).render()).map_err(|e| format!("shutdown: {e}"))?;
    if line.contains("\"draining\":true") {
        Ok(())
    } else {
        Err(format!(
            "shutdown was not acknowledged as draining: {}",
            line.trim()
        ))
    }
}

/// Runs the load: builds the workload and templates, drives
/// `options.clients` connections for `options.duration`, and merges
/// the per-client measurements.
pub fn run(options: &LoadgenOptions) -> Result<LoadReport, String> {
    if options.clients == 0 {
        return Err("client count must be ≥ 1".to_string());
    }
    let db = match &options.db {
        Some(text) => text.clone(),
        None => seqhide_data::markov_db(options.seed, options.sequences.max(1), (32, 32), 12, 0.8)
            .to_text(),
    };
    if !(0.0..=1.0).contains(&options.delta_fraction) {
        return Err("delta fraction must be within [0, 1]".to_string());
    }
    if !(0.0..=1.0).contains(&options.hog_fraction) {
        return Err("hog fraction must be within [0, 1]".to_string());
    }
    if options.tenants == 0 && options.hog_fraction > 0.0 {
        return Err(
            "hog traffic needs tenant lanes to be unfair across (set --tenants)".to_string(),
        );
    }
    let multi = options.tenants > 0;
    if multi && options.delta_fraction > 0.0 {
        return Err(
            "delta traffic and --tenants are mutually exclusive (the mutated dataset \
             would be owned by one tenant; every other tenant's deltas would be refused)"
                .to_string(),
        );
    }
    if let Some(name) = &options.dataset {
        // In multi-tenant mode tenant 0 loads (and therefore owns) the
        // workload dataset; the read templates reference it freely.
        let token = multi.then(|| tenant_token(0));
        preload_dataset(&options.addr, name, &db, token.as_deref())?;
    }
    // One template set per tenant (same names, same order — the mix
    // report merges by index), tokens baked into the rendered lines.
    // Tenant 0 is the hog when hog traffic is enabled: its sanitizes
    // carry a worker-pinning `delay_ms`.
    const HOG_DELAY_MS: u64 = 20;
    let mut sets: Vec<Vec<Template>> = if multi {
        (0..options.tenants)
            .map(|i| {
                let delay = if i == 0 && options.hog_fraction > 0.0 {
                    HOG_DELAY_MS
                } else {
                    0
                };
                build_templates(
                    &db,
                    options.psi,
                    options.seed,
                    options.dataset.as_deref(),
                    Some(&tenant_token(i)),
                    delay,
                )
            })
            .collect::<Result<_, _>>()?
    } else {
        vec![build_templates(
            &db,
            options.psi,
            options.seed,
            options.dataset.as_deref(),
            None,
            0,
        )?]
    };
    // The zipfian mix covers the read templates only; the mutation
    // template (appended last) is drawn by its own fraction gate.
    let cum = zipf_cumulative(sets[0].len());
    let delta = if options.delta_fraction > 0.0 {
        let Some(name) = &options.dataset else {
            return Err(
                "delta traffic needs a named dataset to mutate (set --dataset)".to_string(),
            );
        };
        sets[0].push(delta_template(&db, options.psi, name)?);
        Some((sets[0].len() - 1, options.delta_fraction))
    } else {
        None
    };
    // Client → tenant assignment: the first `hog_fraction` share of the
    // clients goes to the hog `t0`, the rest round-robin over the light
    // tenants (everything lands on `t0` when it is the only tenant).
    let hog_clients = if multi {
        (((options.clients as f64) * options.hog_fraction).round() as usize).min(options.clients)
    } else {
        0
    };
    let assignment: Vec<usize> = (0..options.clients)
        .map(|i| {
            if !multi || options.tenants == 1 || i < hog_clients {
                0
            } else {
                1 + (i - hog_clients) % (options.tenants - 1)
            }
        })
        .collect();

    let started = Instant::now();
    let deadline = started + options.duration;
    let results: Vec<Result<ClientStats, String>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..options.clients)
            .map(|i| {
                let addr = options.addr.as_str();
                let templates = &sets[assignment[i]];
                let cum = &cum;
                let seed = options.seed.wrapping_add(0x5EED).wrapping_add(i as u64);
                scope.spawn(move || client_loop(addr, templates, cum, delta, deadline, seed))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });

    let mut report = LoadReport {
        requests: 0,
        ok: 0,
        overloaded: 0,
        errors: 0,
        elapsed: Duration::ZERO,
        drain: Duration::ZERO,
        latency: HistStat::default(),
        delta_latency: HistStat::default(),
        mix: sets[0].iter().map(|t| TemplateLoad::new(t.name)).collect(),
        tenants: if multi {
            (0..options.tenants)
                .map(|i| TenantLoad {
                    token: tenant_token(i),
                    clients: 0,
                    requests: 0,
                    ok: 0,
                    overloaded: 0,
                    quota_exceeded: 0,
                    latency: HistStat::default(),
                })
                .collect()
        } else {
            Vec::new()
        },
        jain_fairness: 1.0,
    };
    let mut last_response: Option<Instant> = None;
    let mut quota_total = 0u64;
    let mut first_error = None;
    for (result, tenant) in results.into_iter().zip(assignment) {
        match result {
            Ok(stats) => {
                report.ok += stats.ok;
                report.overloaded += stats.overloaded;
                report.errors += stats.errors;
                quota_total += stats.quota;
                report.latency.merge(&stats.hist);
                for (slot, theirs) in report.mix.iter_mut().zip(&stats.mix) {
                    slot.merge(theirs);
                }
                if multi {
                    let row = &mut report.tenants[tenant];
                    row.clients += 1;
                    row.requests += stats.ok + stats.overloaded + stats.quota + stats.errors;
                    row.ok += stats.ok;
                    row.overloaded += stats.overloaded;
                    row.quota_exceeded += stats.quota;
                    row.latency.merge(&stats.hist);
                }
                last_response = match (last_response, stats.last_response) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                };
            }
            Err(e) => first_error = first_error.or(Some(e)),
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    report.requests = report.ok + report.overloaded + quota_total + report.errors;
    if let Some((at, _)) = delta {
        report.delta_latency = report.mix[at].latency.clone();
    }
    if let Some(last) = last_response {
        report.elapsed = last.duration_since(started);
        report.drain = last.saturating_duration_since(deadline);
    }
    if multi {
        // Fairness is judged among the light tenants that carried
        // traffic — the hog's share is *supposed* to collapse under
        // contention. A run with no light traffic falls back to every
        // tenant that had clients.
        let lights: Vec<f64> = report
            .tenants
            .iter()
            .enumerate()
            .filter(|(i, row)| *i != 0 && row.clients > 0)
            .map(|(_, row)| row.ok as f64)
            .collect();
        report.jain_fairness = if lights.is_empty() {
            let all: Vec<f64> = report
                .tenants
                .iter()
                .filter(|row| row.clients > 0)
                .map(|row| row.ok as f64)
                .collect();
            jain_index(&all)
        } else {
            jain_index(&lights)
        };
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cumulative_is_monotone_and_normalized() {
        let cum = zipf_cumulative(8);
        assert_eq!(cum.len(), 8);
        assert!(cum.windows(2).all(|w| w[0] < w[1]));
        assert!((cum[7] - 1.0).abs() < 1e-12);
        // rank 0 carries the zipfian head: more than a quarter of mass
        assert!(cum[0] > 0.25);
    }

    #[test]
    fn templates_cover_the_domain_mix() {
        let db = "a b c d e f g h\nb c a d\n";
        let templates = build_templates(db, 2, 7, None, None, 0).unwrap();
        let names: Vec<&str> = templates.iter().map(|t| t.name).collect();
        for expected in [
            "plain-hh",
            "plain-rr",
            "string-substitute",
            "verify",
            "itemset",
            "timed",
            "stats",
            "health",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        // every line is valid single-line JSON
        for t in &templates {
            assert!(!t.line.contains('\n'));
            crate::json::parse(&t.line).expect("template line parses");
        }
        // degenerate databases are refused with pointed errors
        assert!(build_templates("", 0, 0, None, None, 0).is_err());
        assert!(build_templates("a\n", 0, 0, None, None, 0).is_err());
    }

    #[test]
    fn dataset_mode_references_instead_of_shipping() {
        let db = "alpha beta gamma delta\nbeta alpha gamma\n";
        let templates = build_templates(db, 2, 7, Some("corp"), None, 0).unwrap();
        for t in &templates {
            let doc = crate::json::parse(&t.line).unwrap();
            match t.name {
                // the workload-db templates reference the dataset...
                "plain-hh" | "plain-rr" | "string-substitute" | "verify" | "stats" => {
                    assert_eq!(
                        doc.get("dataset").unwrap().as_str(),
                        Some("corp"),
                        "{}",
                        t.name
                    );
                    assert!(doc.get("db").is_none(), "{} still ships the db", t.name);
                }
                // ...while the tiny fixed-domain ones stay inline
                "itemset" | "timed" => assert!(doc.get("db").is_some(), "{}", t.name),
                _ => {}
            }
        }
    }

    #[test]
    fn delta_template_mutates_in_place() {
        let db = "alpha beta gamma delta\nbeta alpha gamma\n";
        let t = delta_template(db, 3, "corp").unwrap();
        let doc = crate::json::parse(&t.line).unwrap();
        assert_eq!(doc.get("type").unwrap().as_str(), Some("delta"));
        assert_eq!(doc.get("dataset").unwrap().as_str(), Some("corp"));
        // one append (the db's own first line), one retirement: the
        // dataset's size holds steady while its content churns
        let add = doc.get("add").unwrap();
        let Json::Arr(add) = add else {
            panic!("add is an array")
        };
        assert_eq!(add.len(), 1);
        assert_eq!(add[0].as_str(), Some("alpha beta gamma delta"));
        let remove = doc.get("remove").unwrap();
        let Json::Arr(remove) = remove else {
            panic!("remove is an array")
        };
        assert_eq!(remove.len(), 1);
        assert_eq!(remove[0].as_u64(), Some(0));
        assert!(doc.get("patterns").is_some());
    }

    #[test]
    fn bench_json_has_the_named_fields() {
        let mut latency = HistStat::default();
        for v in [1000u64, 2000, 4000, 100_000] {
            latency.record(v);
        }
        let report = LoadReport {
            requests: 4,
            ok: 3,
            overloaded: 1,
            errors: 0,
            elapsed: Duration::from_millis(2000),
            drain: Duration::from_millis(12),
            latency,
            delta_latency: HistStat::default(),
            mix: vec![TemplateLoad {
                sent: 4,
                ..TemplateLoad::new("plain-hh")
            }],
            tenants: Vec::new(),
            jain_fairness: 1.0,
        };
        let json = report.to_bench_json(&LoadgenOptions::default());
        for key in [
            "\"bench\": \"serve\"",
            "\"throughput_rps\"",
            "\"shed_rate\": 0.2500",
            "\"drain_ms\": 12",
            "\"p50\"",
            "\"p95\"",
            "\"p99\"",
            "\"delta_fraction\": 0.0000",
            "\"delta_latency_ns\"",
            "\"mix\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!((report.shed_rate() - 0.25).abs() < 1e-12);
        assert!((report.throughput_rps() - 2.0).abs() < 1e-9);
        assert!(report.latency.quantile(0.99) >= report.latency.quantile(0.50));
        // single-tenant reports carry no tenant section at all
        assert!(!json.contains("\"tenants\""));
        assert!(!json.contains("\"jain_fairness\""));
    }

    #[test]
    fn mix_rows_reconcile_client_latency_with_server_stages() {
        let mut sanitize = TemplateLoad::new("plain-hh");
        let timings = Timings {
            queue_wait_ns: 1_000,
            parse_ns: 2_000,
            sanitize_ns: 30_000,
            serialize_ns: 7_000,
        };
        sanitize.record(50_000, Some(timings));
        let mut health = TemplateLoad::new("health");
        health.record(9_000, None);
        // merging folds counts and every histogram
        let mut merged = TemplateLoad::new("plain-hh");
        merged.merge(&sanitize);
        merged.merge(&sanitize);
        assert_eq!(merged.sent, 2);
        assert_eq!(merged.latency.count, 2);
        assert!(merged.stages.iter().all(|h| h.count == 2));
        // client 50µs − Σ stages 40µs leaves 10µs unaccounted
        assert_eq!(sanitize.stages[4].max, 10_000);

        let row = crate::json::parse(&sanitize.to_json_row()).expect("row is JSON");
        assert_eq!(row.get("sent").and_then(Json::as_u64), Some(1));
        assert_eq!(row.get("timed").and_then(Json::as_u64), Some(1));
        for name in STAGES.iter().chain(&["client_ns"]) {
            let q = row.get(name).unwrap_or_else(|| panic!("missing {name}"));
            let (p50, p99) = (q.get("p50").unwrap(), q.get("p99").unwrap());
            assert!(p50.as_u64() <= p99.as_u64(), "{name}");
        }
        // untimed request types report client latency only
        let row = crate::json::parse(&health.to_json_row()).expect("row is JSON");
        assert!(row.get("client_ns").is_some());
        assert!(row.get("timed").is_none() && row.get("unaccounted_ns").is_none());
    }

    #[test]
    fn tenant_templates_stamp_tokens_and_hog_delay() {
        let db = "a b c d e f g h\nb c a d\n";
        let light = build_templates(db, 2, 7, None, Some("t1"), 0).unwrap();
        for t in &light {
            let doc = crate::json::parse(&t.line).unwrap();
            assert_eq!(
                doc.get("tenant").unwrap().as_str(),
                Some("t1"),
                "{}",
                t.name
            );
            assert!(doc.get("delay_ms").is_none(), "{} has a delay", t.name);
        }
        let hog = build_templates(db, 2, 7, None, Some("t0"), 20).unwrap();
        for t in &hog {
            let doc = crate::json::parse(&t.line).unwrap();
            assert_eq!(
                doc.get("tenant").unwrap().as_str(),
                Some("t0"),
                "{}",
                t.name
            );
            // only the sanitize templates pin workers; the rest of the
            // mix is untouched
            let is_sanitize = doc.get("type").unwrap().as_str() == Some("sanitize");
            assert_eq!(
                doc.get("delay_ms").and_then(|d| d.as_u64()),
                is_sanitize.then_some(20),
                "{}",
                t.name
            );
        }
        // identical names in identical order: the mix report merges by
        // index across tenant sets
        let names: Vec<&str> = light.iter().map(|t| t.name).collect();
        assert_eq!(names, hog.iter().map(|t| t.name).collect::<Vec<_>>());
    }

    #[test]
    fn jain_index_reads_equality_and_collapse() {
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[0.0, 0.0]) - 1.0).abs() < 1e-12);
        // one tenant taking everything bottoms out at 1/n
        assert!((jain_index(&[9.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        // mild skew stays high
        assert!(jain_index(&[10.0, 9.0, 11.0]) > 0.99);
    }

    #[test]
    fn multi_tenant_bench_json_carries_the_fairness_section() {
        let mut light = HistStat::default();
        light.record(1_000);
        let report = LoadReport {
            requests: 30,
            ok: 24,
            overloaded: 4,
            errors: 0,
            elapsed: Duration::from_millis(1000),
            drain: Duration::ZERO,
            latency: light.clone(),
            delta_latency: HistStat::default(),
            mix: vec![TemplateLoad {
                sent: 30,
                ..TemplateLoad::new("plain-hh")
            }],
            tenants: vec![
                TenantLoad {
                    token: "t0".to_string(),
                    clients: 2,
                    requests: 10,
                    ok: 4,
                    overloaded: 4,
                    quota_exceeded: 2,
                    latency: light.clone(),
                },
                TenantLoad {
                    token: "t1".to_string(),
                    clients: 1,
                    requests: 10,
                    ok: 10,
                    overloaded: 0,
                    quota_exceeded: 0,
                    latency: light,
                },
            ],
            jain_fairness: 0.97,
        };
        let options = LoadgenOptions {
            tenants: 2,
            hog_fraction: 0.5,
            ..LoadgenOptions::default()
        };
        let json = report.to_bench_json(&options);
        for key in [
            "\"tenants\": [",
            "\"tenant\": \"t0\"",
            "\"tenant\": \"t1\"",
            "\"quota_exceeded\": 2",
            "\"p99_ns\"",
            "\"jain_fairness\": 0.9700",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
