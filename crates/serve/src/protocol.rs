//! The newline-delimited JSON wire protocol: request decoding and
//! response building.
//!
//! One JSON object per line in each direction, each line written as a
//! single `write_all` on a `TCP_NODELAY` socket ([`write_line`]).
//! Requests carry a `type` (`sanitize` | `verify` | `stats` | `delta` |
//! `load` | `load_chunk` | `unload` | `datasets` | `health` | `metrics`
//! | `debug` | `shutdown`) and an optional `id`, which responses echo
//! verbatim so clients can pipeline. Responses carry a `status`:
//!
//! * `ok` — the request executed; payload fields depend on the type.
//! * `error` — the request was malformed or failed; `error` explains.
//! * `overloaded` — the job queue was full (or, multi-tenant, the
//!   tenant is over its request rate — then `retry_after_ms` hints how
//!   long to back off); the request was **not** executed and the client
//!   should retry later (the backpressure contract: the server sheds
//!   load instead of buffering unboundedly).
//! * `quota_exceeded` — multi-tenant only: the requesting tenant is
//!   over one of its own quotas (`max_queued`, `max_pinned_bytes`);
//!   other tenants are unaffected and retrying without freeing
//!   resources will fail again.
//! * `shutting_down` — the server is draining; no new work is admitted.
//!
//! Every request may carry a `tenant` field (the tenant's token). With
//! no `--tenants` config the field is accepted and ignored; with one,
//! it selects the tenant whose weight/quotas govern the request.
//!
//! `sanitize`, `delta` and `verify` decode their shared fields into the
//! [`HideSpec`] the CLI builds from its flags, with the CLI's defaults
//! (`seed` 0, `algorithm` `hh`, `mode` plain), so a request with only
//! `db`/`psi`/`patterns` set behaves exactly like the corresponding bare
//! `seqhide hide` run. Unknown fields are rejected, as unknown flags are.
//!
//! `sanitize`/`verify`/`stats` take the database either inline (`db`)
//! or by reference to a previously `load`ed dataset (`dataset`), so a
//! database interned once can back any number of requests without
//! being re-shipped on each one.
//!
//! The full specification with examples lives in `docs/SERVER.md`.

use std::io::{self, Write};

use seqhide_core::parse_algorithm;
use seqhide_types::OpKind;

use crate::delta::{DeltaOutcome, DeltaSpec};
use crate::exec::{
    DbSource, HideSpec, Mode, SanitizeOutcome, SanitizeSpec, StatsOutcome, VerifyOutcome,
    VerifySpec,
};
use crate::json::{self, Json};
use crate::registry::DatasetInfo;
use crate::trace::{Timings, Trace};

/// The largest `delay_ms` a `sanitize` request may carry. The field is
/// a load-testing knob exposed on the wire, so it must not double as a
/// denial-of-service lever: without a cap, a handful of requests with
/// huge delays would put every worker to sleep and make the graceful
/// drain (which joins workers) hang for as long.
pub const MAX_DELAY_MS: u64 = 5_000;

/// One decoded request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Sanitize a database; executed on the worker pool.
    Sanitize {
        /// The decoded sanitize parameters.
        spec: SanitizeSpec,
        /// Artificial per-job delay (milliseconds, capped at
        /// [`MAX_DELAY_MS`]) applied by the worker before executing — a
        /// load-testing knob for driving the queue into backpressure
        /// deterministically; 0 in normal operation.
        delay_ms: u64,
    },
    /// Check the hiding requirement on a released database.
    Verify(VerifySpec),
    /// Summarise a database's shape.
    Stats {
        /// Database text (inline or a dataset reference).
        db: DbSource,
        /// Its line format.
        mode: Mode,
    },
    /// Mutate a loaded dataset in place and re-sanitize it
    /// incrementally; executed on the worker pool.
    Delta(DeltaSpec),
    /// Intern a database into the dataset registry; answered inline.
    Load {
        /// The name to register under.
        name: String,
        /// Where the text comes from.
        source: LoadSource,
    },
    /// One chunk of a `{"chunks": true}` load in progress on this
    /// connection; answered inline.
    LoadChunk {
        /// The chunk's text.
        data: String,
        /// Whether this is the final chunk (commits the dataset).
        last: bool,
    },
    /// Remove a dataset from the registry; answered inline.
    Unload {
        /// The dataset to remove.
        name: String,
    },
    /// List the registry's datasets; answered inline.
    Datasets,
    /// Liveness + load snapshot; answered inline, never queued.
    Health,
    /// Live telemetry snapshot; answered inline, never queued.
    Metrics {
        /// How the snapshot is rendered in the response.
        format: MetricsFormat,
    },
    /// Dump the slow-request trace journal; answered inline.
    Debug,
    /// Begin graceful drain; answered inline.
    Shutdown,
}

impl Request {
    /// The request's wire type name (the trace journal's `kind`).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Sanitize { .. } => "sanitize",
            Request::Verify(_) => "verify",
            Request::Stats { .. } => "stats",
            Request::Delta(_) => "delta",
            Request::Load { .. } => "load",
            Request::LoadChunk { .. } => "load_chunk",
            Request::Unload { .. } => "unload",
            Request::Datasets => "datasets",
            Request::Health => "health",
            Request::Metrics { .. } => "metrics",
            Request::Debug => "debug",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Where a `load` request's database text comes from. Exactly one of
/// the three — `db` (inline text), `path` (a server-side file), or
/// `chunks: true` (streamed over this connection in `load_chunk`
/// requests) — may be given.
#[derive(Clone, Debug)]
pub enum LoadSource {
    /// The full text rides in the request's `db` field.
    Inline(String),
    /// The server reads the file at this path itself — the client never
    /// ships the bytes at all.
    Path(String),
    /// The text follows in `load_chunk` requests on this connection.
    Chunked,
}

/// How a `metrics` response renders the snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricsFormat {
    /// The JSON schema from `docs/OBSERVABILITY.md` (the default).
    Json,
    /// The Prometheus text exposition format, as a string field.
    Prometheus,
}

/// Decodes one request line. The `id` (echoed in every response) and
/// the `tenant` token are returned even when decoding fails, so error
/// responses stay correlatable and attributable.
pub fn decode(line: &str) -> (Option<Json>, Option<String>, Result<Request, String>) {
    let doc = match json::parse(line) {
        Ok(doc) => doc,
        Err(e) => return (None, None, Err(format!("bad JSON: {e}"))),
    };
    if !matches!(doc, Json::Obj(_)) {
        return (None, None, Err("request must be a JSON object".to_string()));
    }
    let id = doc.get("id").cloned();
    let tenant = match opt_str(&doc, "tenant") {
        Ok(token) => token,
        Err(e) => return (id, None, Err(e)),
    };
    let request = decode_doc(&doc);
    (id, tenant, request)
}

fn decode_doc(doc: &Json) -> Result<Request, String> {
    let typ = match doc.get("type") {
        Some(t) => t
            .as_str()
            .ok_or_else(|| "\"type\" must be a string".to_string())?,
        None => return Err("missing \"type\"".to_string()),
    };
    match typ {
        "sanitize" => {
            let extra = ["db", "dataset", "regexes", "exact", "delay_ms"];
            known_fields(doc, &[HIDE_FIELDS, &extra].concat())?;
            let spec = SanitizeSpec {
                db: db_source(doc)?,
                hide: hide_spec(doc)?,
            };
            let delay_ms = u64_or(doc, "delay_ms", 0)?;
            if delay_ms > MAX_DELAY_MS {
                return Err(format!(
                    "\"delay_ms\" must be ≤ {MAX_DELAY_MS} (it is a load-testing knob, not a scheduler)"
                ));
            }
            Ok(Request::Sanitize { spec, delay_ms })
        }
        "verify" => {
            known_fields(
                doc,
                &[
                    "type",
                    "id",
                    "db",
                    "dataset",
                    "patterns",
                    "psi",
                    "min_gap",
                    "max_gap",
                    "max_window",
                ],
            )?;
            Ok(Request::Verify(VerifySpec {
                db: db_source(doc)?,
                hide: hide_spec(doc)?,
            }))
        }
        "stats" => {
            known_fields(doc, &["type", "id", "db", "dataset", "mode"])?;
            Ok(Request::Stats {
                db: db_source(doc)?,
                mode: Mode::parse(opt_str(doc, "mode")?.as_deref())?,
            })
        }
        "delta" => {
            known_fields(doc, &[HIDE_FIELDS, &["dataset", "add", "remove", "release"]].concat())?;
            Ok(Request::Delta(DeltaSpec {
                dataset: required_str(doc, "dataset")?,
                add: str_list(doc, "add")?,
                remove: usize_list_field(doc, "remove")?,
                hide: hide_spec(doc)?,
                want_release: bool_or(doc, "release", false)?,
            }))
        }
        "load" => {
            known_fields(doc, &["type", "id", "name", "db", "path", "chunks"])?;
            let name = required_str(doc, "name")?;
            let db = opt_str(doc, "db")?;
            let path = opt_str(doc, "path")?;
            let chunks = bool_or(doc, "chunks", false)?;
            let source = match (db, path, chunks) {
                (Some(text), None, false) => LoadSource::Inline(text),
                (None, Some(path), false) => LoadSource::Path(path),
                (None, None, true) => LoadSource::Chunked,
                (None, None, false) => {
                    return Err(
                        "load needs a source: \"db\" (inline text), \"path\" (server-side file), or \"chunks\": true (streamed)".to_string(),
                    )
                }
                _ => {
                    return Err(
                        "give exactly one of \"db\", \"path\", or \"chunks\": true".to_string(),
                    )
                }
            };
            Ok(Request::Load { name, source })
        }
        "load_chunk" => {
            known_fields(doc, &["type", "id", "data", "last"])?;
            Ok(Request::LoadChunk {
                data: required_str(doc, "data")?,
                last: bool_or(doc, "last", false)?,
            })
        }
        "unload" => {
            known_fields(doc, &["type", "id", "name"])?;
            Ok(Request::Unload {
                name: required_str(doc, "name")?,
            })
        }
        "datasets" => {
            known_fields(doc, &["type", "id"])?;
            Ok(Request::Datasets)
        }
        "health" => {
            known_fields(doc, &["type", "id"])?;
            Ok(Request::Health)
        }
        "metrics" => {
            known_fields(doc, &["type", "id", "format"])?;
            let format = match opt_str(doc, "format")?.as_deref() {
                None | Some("json") => MetricsFormat::Json,
                Some("prometheus") => MetricsFormat::Prometheus,
                Some(other) => {
                    return Err(format!(
                        "unknown metrics format '{other}' (json|prometheus)"
                    ))
                }
            };
            Ok(Request::Metrics { format })
        }
        "debug" => {
            known_fields(doc, &["type", "id"])?;
            Ok(Request::Debug)
        }
        "shutdown" => {
            known_fields(doc, &["type", "id"])?;
            Ok(Request::Shutdown)
        }
        other => Err(format!(
            "unknown request type '{other}' (sanitize|verify|stats|delta|load|load_chunk|unload|datasets|health|metrics|debug|shutdown)"
        )),
    }
}

/// The fields [`hide_spec`] decodes, which `sanitize` and `delta` share.
const HIDE_FIELDS: &[&str] = &[
    "type",
    "id",
    "mode",
    "patterns",
    "psi",
    "algorithm",
    "seed",
    "min_gap",
    "max_gap",
    "max_window",
    "op",
];

/// The fields `sanitize` and `delta` share, decoded into the spec the
/// CLI builds from its flags. Absent fields take the CLI's defaults; a
/// request runs on one thread (the server's parallelism is its worker
/// pool). `known_fields` keeps `delta` from setting `regexes` or `exact`.
fn hide_spec(doc: &Json) -> Result<HideSpec, String> {
    let algorithm = str_or(doc, "algorithm", "hh")?;
    let (local, global) = parse_algorithm(&algorithm)
        .ok_or_else(|| format!("unknown algorithm '{algorithm}' (hh|hr|rh|rr)"))?;
    let op = match opt_str(doc, "op")? {
        None => OpKind::Mark,
        Some(v) => {
            OpKind::parse(&v).ok_or_else(|| format!("unknown op '{v}' (mark|delete|substitute)"))?
        }
    };
    Ok(HideSpec {
        mode: Mode::parse(opt_str(doc, "mode")?.as_deref())?,
        patterns: str_list(doc, "patterns")?,
        regexes: str_list(doc, "regexes")?,
        psi: required_usize(doc, "psi")?,
        local,
        global,
        seed: u64_or(doc, "seed", 0)?,
        exact: bool_or(doc, "exact", false)?,
        min_gap: u64_or(doc, "min_gap", 0)?,
        max_gap: opt_u64(doc, "max_gap")?,
        max_window: opt_u64(doc, "max_window")?,
        op,
        threads: 1,
    })
}

fn known_fields(doc: &Json, allowed: &[&str]) -> Result<(), String> {
    let Json::Obj(members) = doc else {
        return Ok(());
    };
    for (key, _) in members {
        // `tenant` rides on every request type (admission control)
        if key != "tenant" && !allowed.contains(&key.as_str()) {
            return Err(format!("unknown field \"{key}\""));
        }
    }
    Ok(())
}

/// Decodes the database reference shared by `sanitize`/`verify`/
/// `stats`: inline text in `db`, or a registered dataset's name in
/// `dataset` — exactly one of the two.
fn db_source(doc: &Json) -> Result<DbSource, String> {
    let db = opt_str(doc, "db")?;
    let dataset = opt_str(doc, "dataset")?;
    match (db, dataset) {
        (Some(_), Some(_)) => Err("give either \"db\" or \"dataset\", not both".to_string()),
        (Some(text), None) => Ok(DbSource::from(text)),
        (None, Some(name)) => Ok(DbSource::Named(name)),
        (None, None) => Err("missing \"db\" (or \"dataset\")".to_string()),
    }
}

fn required_str(doc: &Json, key: &str) -> Result<String, String> {
    opt_str(doc, key)?.ok_or_else(|| format!("missing \"{key}\""))
}

fn opt_str(doc: &Json, key: &str) -> Result<Option<String>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("\"{key}\" must be a string")),
    }
}

fn str_or(doc: &Json, key: &str, default: &str) -> Result<String, String> {
    Ok(opt_str(doc, key)?.unwrap_or_else(|| default.to_string()))
}

fn str_list(doc: &Json, key: &str) -> Result<Vec<String>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(v) => {
            let items = v
                .as_array()
                .ok_or_else(|| format!("\"{key}\" must be an array of strings"))?;
            items
                .iter()
                .map(|item| {
                    item.as_str()
                        .map(|s| s.to_string())
                        .ok_or_else(|| format!("\"{key}\" must be an array of strings"))
                })
                .collect()
        }
    }
}

fn usize_list_field(doc: &Json, key: &str) -> Result<Vec<usize>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(v) => {
            let items = v
                .as_array()
                .ok_or_else(|| format!("\"{key}\" must be an array of non-negative integers"))?;
            items
                .iter()
                .map(|item| {
                    item.as_usize().ok_or_else(|| {
                        format!("\"{key}\" must be an array of non-negative integers")
                    })
                })
                .collect()
        }
    }
}

fn required_usize(doc: &Json, key: &str) -> Result<usize, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Err(format!("missing \"{key}\"")),
        Some(v) => v
            .as_usize()
            .ok_or_else(|| format!("\"{key}\" must be a non-negative integer")),
    }
}

fn opt_u64(doc: &Json, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("\"{key}\" must be a non-negative integer")),
    }
}

fn u64_or(doc: &Json, key: &str, default: u64) -> Result<u64, String> {
    Ok(opt_u64(doc, key)?.unwrap_or(default))
}

fn bool_or(doc: &Json, key: &str, default: bool) -> Result<bool, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("\"{key}\" must be a boolean")),
    }
}

/// The server-side load figures a `health` response reports.
#[derive(Clone, Debug)]
pub struct HealthInfo {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Job queue capacity.
    pub queue_capacity: usize,
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// Jobs currently executing on workers.
    pub inflight: usize,
    /// Requests received since startup (all types, including shed ones).
    pub requests: u64,
    /// Requests shed with `overloaded` since startup.
    pub overloads: u64,
    /// Jobs executed to completion since startup.
    pub executed: u64,
    /// Whether the server is draining toward shutdown.
    pub draining: bool,
    /// Milliseconds since the server was bound — distinguishes a fresh
    /// restart from a long-running instance.
    pub uptime_ms: u64,
    /// The serving crate's version.
    pub version: &'static str,
    /// Most jobs ever waiting in the queue at once.
    pub queue_depth_high_water: u64,
    /// Most jobs ever executing concurrently.
    pub inflight_high_water: u64,
    /// Per-tenant `(name, sub-queue high-water)` rows — `Some` only in
    /// multi-tenant mode, so the single-tenant default stays
    /// byte-identical to the tenant-blind payload.
    pub tenants: Option<Vec<(String, u64)>>,
}

fn response(id: &Option<Json>, status: &str, rest: Vec<(String, Json)>) -> String {
    let mut members = Vec::with_capacity(rest.len() + 2);
    if let Some(id) = id {
        members.push(("id".to_string(), id.clone()));
    }
    members.push(("status".to_string(), Json::Str(status.to_string())));
    members.extend(rest);
    Json::Obj(members).render()
}

fn field(key: &str, value: Json) -> (String, Json) {
    (key.to_string(), value)
}

fn typ(name: &str) -> (String, Json) {
    field("type", Json::Str(name.to_string()))
}

fn usize_list(values: &[usize]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::num(v as u64)).collect())
}

/// `ok` response for an executed `sanitize`.
pub fn ok_sanitize(id: &Option<Json>, outcome: &SanitizeOutcome) -> String {
    response(
        id,
        "ok",
        vec![
            typ("sanitize"),
            field("hidden", Json::Bool(outcome.hidden)),
            field("marks", Json::num(outcome.marks as u64)),
            field(
                "sequences_sanitized",
                Json::num(outcome.sequences_sanitized as u64),
            ),
            field(
                "supporters_before",
                Json::num(outcome.supporters_before as u64),
            ),
            field("residual_supports", usize_list(&outcome.residual_supports)),
            field("release", Json::Str(outcome.release.clone())),
        ],
    )
}

/// `ok` response for an executed `verify`.
pub fn ok_verify(id: &Option<Json>, outcome: &VerifyOutcome) -> String {
    response(
        id,
        "ok",
        vec![
            typ("verify"),
            field("hidden", Json::Bool(outcome.hidden)),
            field("supports", usize_list(&outcome.supports)),
        ],
    )
}

/// `ok` response for an executed `stats`.
pub fn ok_stats(id: &Option<Json>, outcome: &StatsOutcome) -> String {
    let fields = match *outcome {
        StatsOutcome::Plain {
            sequences,
            symbols_total,
            avg_len,
            max_len,
            alphabet,
            marks,
        } => vec![
            typ("stats"),
            field("mode", Json::Str("plain".to_string())),
            field("sequences", Json::num(sequences as u64)),
            field("symbols_total", Json::num(symbols_total as u64)),
            field(
                "avg_len",
                Json::Num(if avg_len.is_finite() {
                    format!("{avg_len}")
                } else {
                    "0".to_string()
                }),
            ),
            field("max_len", Json::num(max_len as u64)),
            field("alphabet", Json::num(alphabet as u64)),
            field("marks", Json::num(marks as u64)),
        ],
        StatsOutcome::Itemset {
            sequences,
            elements_total,
            items_total,
            alphabet,
            marks,
        } => vec![
            typ("stats"),
            field("mode", Json::Str("itemset".to_string())),
            field("sequences", Json::num(sequences as u64)),
            field("elements_total", Json::num(elements_total as u64)),
            field("items_total", Json::num(items_total as u64)),
            field("alphabet", Json::num(alphabet as u64)),
            field("marks", Json::num(marks as u64)),
        ],
        StatsOutcome::Timed {
            sequences,
            events_total,
            alphabet,
            marks,
        } => vec![
            typ("stats"),
            field("mode", Json::Str("timed".to_string())),
            field("sequences", Json::num(sequences as u64)),
            field("events_total", Json::num(events_total as u64)),
            field("alphabet", Json::num(alphabet as u64)),
            field("marks", Json::num(marks as u64)),
        ],
    };
    response(id, "ok", fields)
}

fn health_fields(info: &HealthInfo) -> Vec<(String, Json)> {
    let mut fields = vec![
        field("workers", Json::num(info.workers as u64)),
        field("queue_capacity", Json::num(info.queue_capacity as u64)),
        field("queue_depth", Json::num(info.queue_depth as u64)),
        field("inflight", Json::num(info.inflight as u64)),
        field("requests", Json::num(info.requests)),
        field("overloads", Json::num(info.overloads)),
        field("executed", Json::num(info.executed)),
        field("draining", Json::Bool(info.draining)),
        field("uptime_ms", Json::num(info.uptime_ms)),
        field("version", Json::Str(info.version.to_string())),
        field(
            "queue_depth_high_water",
            Json::num(info.queue_depth_high_water),
        ),
        field("inflight_high_water", Json::num(info.inflight_high_water)),
    ];
    if let Some(tenants) = &info.tenants {
        fields.push(field("tenants", Json::num(tenants.len() as u64)));
        fields.push(field(
            "tenant_queue_high_water",
            Json::Obj(
                tenants
                    .iter()
                    .map(|(name, hw)| (name.clone(), Json::num(*hw)))
                    .collect(),
            ),
        ));
    }
    fields
}

/// `ok` response for `health`.
pub fn ok_health(id: &Option<Json>, info: &HealthInfo) -> String {
    let mut fields = vec![typ("health")];
    fields.extend(health_fields(info));
    response(id, "ok", fields)
}

/// The `health` payload as a standalone JSON object — what the HTTP
/// listener's `GET /healthz` returns.
pub fn health_body(info: &HealthInfo) -> String {
    Json::Obj(health_fields(info)).render()
}

/// `ok` response for `metrics`: embeds the rendered snapshot (the
/// schema documented in `docs/OBSERVABILITY.md`) as a nested object.
pub fn ok_metrics(id: &Option<Json>, snapshot_json: &str) -> String {
    let embedded =
        json::parse(snapshot_json).unwrap_or_else(|_| Json::Str(snapshot_json.to_string()));
    response(id, "ok", vec![typ("metrics"), field("metrics", embedded)])
}

/// `ok` response for `metrics {"format":"prometheus"}`: the exposition
/// text rides as one string field (NDJSON framing keeps it one line;
/// the string carries `\n` escapes).
pub fn ok_metrics_prometheus(id: &Option<Json>, exposition: &str) -> String {
    response(
        id,
        "ok",
        vec![
            typ("metrics"),
            field("format", Json::Str("prometheus".to_string())),
            field("metrics", Json::Str(exposition.to_string())),
        ],
    )
}

/// `ok` response for `debug`: how many requests the journal has seen
/// and the retained slowest traces (slowest first). Empty in obs-off
/// builds, where the journal compiles out.
pub fn ok_debug(id: &Option<Json>, recorded: u64, slowest: &[Trace]) -> String {
    response(
        id,
        "ok",
        vec![
            typ("debug"),
            field("tracked", Json::num(recorded)),
            field(
                "slowest",
                Json::Arr(slowest.iter().map(Trace::to_json).collect()),
            ),
        ],
    )
}

/// Writes one NDJSON line to `out` as a single `write_all`. The `\n`
/// terminator is appended to `line` in place (no copy of a payload that
/// may be a multi-megabyte release) and popped again afterwards, leaving
/// the caller's buffer as it was.
///
/// Every line the project writes to a TCP socket goes through here, on
/// a socket with `TCP_NODELAY` set: writing the body and the `\n` as two
/// writes lets Nagle's algorithm hold the second back until the peer's
/// delayed ACK, about 40 ms per line on Linux.
pub fn write_line<W: Write + ?Sized>(out: &mut W, line: &mut String) -> io::Result<()> {
    line.push('\n');
    let written = out.write_all(line.as_bytes());
    line.pop();
    written
}

/// The member [`with_timings`] splices in as a response's last.
const TIMINGS_MEMBER: &str = ",\"timings\":";

/// Splices a `timings` object into an already-rendered single-line
/// JSON object response. Responses are rendered before the timings
/// exist (serialization is itself one of the timed legs), so the
/// breakdown is injected right before the closing brace instead of
/// paying for a second full render of the payload.
pub fn with_timings(line: String, timings: &Json) -> String {
    debug_assert!(line.ends_with('}'), "response must be a JSON object");
    let mut line = line;
    line.pop();
    line.push_str(TIMINGS_MEMBER);
    line.push_str(&timings.render());
    line.push('}');
    line
}

/// Reads back the `timings` that [`with_timings`] spliced into a
/// response line, parsing only the tail after the last `"timings":`
/// key rather than the (possibly multi-megabyte) payload before it.
/// `None` when the line carries no timings. A string value cannot
/// contain the unescaped key, so the last occurrence is the splice.
pub(crate) fn spliced_timings(line: &str) -> Option<Timings> {
    let at = line.rfind(TIMINGS_MEMBER)?;
    let object = line[at + TIMINGS_MEMBER.len()..]
        .trim_end()
        .strip_suffix('}')?;
    let doc = json::parse(object).ok()?;
    let leg = |key: &str| doc.get(key).and_then(Json::as_u64);
    Some(Timings {
        queue_wait_ns: leg("queue_wait_ns")?,
        parse_ns: leg("parse_ns")?,
        sanitize_ns: leg("sanitize_ns")?,
        serialize_ns: leg("serialize_ns")?,
    })
}

fn dataset_fields(info: &DatasetInfo) -> Vec<(String, Json)> {
    let mut fields = vec![
        field("name", Json::Str(info.name.clone())),
        field("bytes", Json::num(info.bytes)),
        field("sequences", Json::num(info.sequences)),
        field("shards", Json::num(info.shards as u64)),
        field("origin", Json::Str(info.origin.to_string())),
        field("resident", Json::Bool(info.resident)),
        field("version", Json::num(info.version)),
        field("last_modified", Json::num(info.last_modified_ms)),
    ];
    // only set in multi-tenant mode, so the tenant-blind listing is
    // byte-identical to the pre-tenancy one
    if let Some(owner) = &info.owner {
        fields.push(field("owner", Json::Str(owner.clone())));
    }
    fields
}

/// `ok` response for an executed `delta`: the mutated dataset's new
/// shape plus the incremental-work breakdown. The post-delta release
/// rides along only when the request asked for it (`release: true`) —
/// it is the whole database, not just the touched part.
pub fn ok_delta(id: &Option<Json>, outcome: &DeltaOutcome) -> String {
    let mut fields = vec![
        typ("delta"),
        field("dataset", Json::Str(outcome.dataset.clone())),
        field("version", Json::num(outcome.version)),
        field("sequences", Json::num(outcome.sequences)),
        field("added", Json::num(outcome.added as u64)),
        field("removed", Json::num(outcome.removed as u64)),
        field("remarked", Json::num(outcome.remarked as u64)),
        field("restored", Json::num(outcome.restored as u64)),
        field("hidden", Json::Bool(outcome.hidden)),
        field("marks", Json::num(outcome.marks as u64)),
        field(
            "sequences_sanitized",
            Json::num(outcome.sequences_sanitized as u64),
        ),
        field(
            "supporters_before",
            Json::num(outcome.supporters_before as u64),
        ),
        field("residual_supports", usize_list(&outcome.residual_supports)),
    ];
    if let Some(release) = &outcome.release {
        fields.push(field("release", Json::Str(release.clone())));
    }
    response(id, "ok", fields)
}

/// `ok` response for a committed `load` (inline, path, or the final
/// chunk of a streamed load): the interned dataset's shape.
pub fn ok_load(id: &Option<Json>, info: &DatasetInfo) -> String {
    let mut fields = vec![typ("load")];
    fields.extend(dataset_fields(info));
    response(id, "ok", fields)
}

/// `ok` response for a `load` with `chunks: true`: staging is open on
/// this connection and `load_chunk` requests may follow.
pub fn ok_load_staged(id: &Option<Json>, name: &str) -> String {
    response(
        id,
        "ok",
        vec![
            typ("load"),
            field("name", Json::Str(name.to_string())),
            field("staged", Json::Bool(true)),
        ],
    )
}

/// `ok` response for a non-final `load_chunk`: bytes staged so far.
pub fn ok_load_chunk(id: &Option<Json>, received_bytes: u64) -> String {
    response(
        id,
        "ok",
        vec![
            typ("load_chunk"),
            field("received_bytes", Json::num(received_bytes)),
        ],
    )
}

/// `ok` response for `unload`.
pub fn ok_unload(id: &Option<Json>, name: &str) -> String {
    response(
        id,
        "ok",
        vec![
            typ("unload"),
            field("name", Json::Str(name.to_string())),
            field("unloaded", Json::Bool(true)),
        ],
    )
}

/// `ok` response for `datasets`: every registered dataset's shape,
/// sorted by name.
pub fn ok_datasets(id: &Option<Json>, rows: &[DatasetInfo]) -> String {
    response(
        id,
        "ok",
        vec![
            typ("datasets"),
            field(
                "datasets",
                Json::Arr(
                    rows.iter()
                        .map(|info| Json::Obj(dataset_fields(info)))
                        .collect(),
                ),
            ),
        ],
    )
}

/// `ok` response for `shutdown`: the server acknowledges and begins
/// draining.
pub fn ok_shutdown(id: &Option<Json>) -> String {
    response(
        id,
        "ok",
        vec![typ("shutdown"), field("draining", Json::Bool(true))],
    )
}

/// `error` response.
pub fn error(id: &Option<Json>, message: &str) -> String {
    response(
        id,
        "error",
        vec![field("error", Json::Str(message.to_string()))],
    )
}

/// `overloaded` response: the queue was full and the job was shed.
pub fn overloaded(id: &Option<Json>, queue_capacity: usize) -> String {
    response(
        id,
        "overloaded",
        vec![field(
            "error",
            Json::Str(format!(
                "job queue full ({queue_capacity} waiting); retry later"
            )),
        )],
    )
}

/// `quota_exceeded` response: the requesting tenant is over one of its
/// own quotas (`max_queued`, `max_pinned_bytes`). Unlike `overloaded`,
/// this says nothing about overall server load — only this tenant is
/// affected, and retrying without freeing resources will fail again.
pub fn quota_exceeded(id: &Option<Json>, message: &str) -> String {
    response(
        id,
        "quota_exceeded",
        vec![field("error", Json::Str(message.to_string()))],
    )
}

/// `overloaded` response for a rate-limited tenant: the token bucket is
/// empty, and `retry_after_ms` hints how long until a token accrues.
pub fn overloaded_rate_limited(id: &Option<Json>, tenant: &str, retry_after_ms: u64) -> String {
    response(
        id,
        "overloaded",
        vec![
            field(
                "error",
                Json::Str(format!(
                    "tenant '{tenant}' over its request rate; retry in {retry_after_ms}ms"
                )),
            ),
            field("retry_after_ms", Json::num(retry_after_ms)),
        ],
    )
}

/// `shutting_down` response: the server is draining; no new work.
pub fn shutting_down(id: &Option<Json>) -> String {
    response(
        id,
        "shutting_down",
        vec![field(
            "error",
            Json::Str("server draining; no new work accepted".to_string()),
        )],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqhide_core::{GlobalStrategy, LocalStrategy};

    #[test]
    fn sanitize_defaults_mirror_the_cli() {
        let (id, _, req) = decode(r#"{"type":"sanitize","db":"a b\n","patterns":["a b"],"psi":0}"#);
        assert!(id.is_none());
        let Request::Sanitize { spec, delay_ms } = req.unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(spec.mode, Mode::Plain);
        assert_eq!(spec.seed, 0);
        assert_eq!(spec.local, LocalStrategy::Heuristic);
        assert_eq!(spec.global, GlobalStrategy::Heuristic);
        assert!(!spec.exact);
        assert_eq!(spec.min_gap, 0);
        assert_eq!(spec.max_gap, None);
        assert_eq!(spec.op, OpKind::Mark);
        assert_eq!(delay_ms, 0);
    }

    #[test]
    fn sanitize_decodes_the_op_field() {
        let (_, _, req) = decode(
            r#"{"type":"sanitize","db":"a b\n","mode":"string","patterns":["a b"],
                "psi":0,"op":"substitute"}"#,
        );
        let Request::Sanitize { spec, .. } = req.unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(spec.mode, Mode::String);
        assert_eq!(spec.op, OpKind::Substitute);

        let (_, _, req) = decode(r#"{"type":"sanitize","db":"a\n","psi":0,"op":"shred"}"#);
        assert!(req
            .unwrap_err()
            .contains("unknown op 'shred' (mark|delete|substitute)"));
    }

    #[test]
    fn sanitize_accepts_full_option_surface() {
        let (_, _, req) = decode(
            r#"{"id":7,"type":"sanitize","db":"a b\n","mode":"plain","patterns":["a b"],
                "regexes":["a (b|c)"],"psi":1,"algorithm":"rr","seed":18446744073709551615,
                "exact":true,"min_gap":1,"max_gap":4,"max_window":9,
                "delay_ms":25}"#,
        );
        let Request::Sanitize { spec, delay_ms } = req.unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(spec.seed, u64::MAX, "u64 seeds must not lose precision");
        assert_eq!(spec.local, LocalStrategy::Random);
        assert_eq!(spec.global, GlobalStrategy::Random);
        assert!(spec.exact);
        assert_eq!(spec.max_gap, Some(4));
        assert_eq!(spec.max_window, Some(9));
        assert_eq!(delay_ms, 25);
    }

    #[test]
    fn decode_errors_are_pointed_and_keep_the_id() {
        let (id, _, req) = decode(r#"{"id":"x1","type":"sanitize","db":"a\n"}"#);
        assert_eq!(id, Some(Json::Str("x1".to_string())));
        assert!(req.unwrap_err().contains("missing \"psi\""));

        let (_, _, req) = decode(r#"{"type":"sanitize","db":"a\n","psi":0,"turbo":true}"#);
        assert!(req.unwrap_err().contains("unknown field \"turbo\""));

        let (_, _, req) = decode(r#"{"type":"warp"}"#);
        assert!(req.unwrap_err().contains("unknown request type 'warp'"));

        let (_, _, req) = decode("[1,2]");
        assert!(req.unwrap_err().contains("must be a JSON object"));

        let (_, _, req) = decode("{nope");
        assert!(req.unwrap_err().contains("bad JSON"));

        let (_, _, req) = decode(r#"{"type":"sanitize","db":"a\n","psi":0,"algorithm":"xx"}"#);
        assert!(req.unwrap_err().contains("unknown algorithm 'xx'"));
    }

    #[test]
    fn delay_ms_beyond_the_cap_is_rejected() {
        let line = format!(
            r#"{{"type":"sanitize","db":"a\n","patterns":["a"],"psi":0,"delay_ms":{}}}"#,
            MAX_DELAY_MS + 1
        );
        let (_, _, req) = decode(&line);
        assert!(req.unwrap_err().contains("delay_ms"));

        let line = format!(
            r#"{{"type":"sanitize","db":"a\n","patterns":["a"],"psi":0,"delay_ms":{MAX_DELAY_MS}}}"#
        );
        let (_, _, req) = decode(&line);
        let Request::Sanitize { delay_ms, .. } = req.unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(delay_ms, MAX_DELAY_MS);
    }

    #[test]
    fn control_requests_decode() {
        assert!(matches!(
            decode(r#"{"type":"health"}"#).2.unwrap(),
            Request::Health
        ));
        assert!(matches!(
            decode(r#"{"type":"metrics","id":1}"#).2.unwrap(),
            Request::Metrics {
                format: MetricsFormat::Json
            }
        ));
        assert!(matches!(
            decode(r#"{"type":"metrics","format":"prometheus"}"#)
                .2
                .unwrap(),
            Request::Metrics {
                format: MetricsFormat::Prometheus
            }
        ));
        assert!(matches!(
            decode(r#"{"type":"debug"}"#).2.unwrap(),
            Request::Debug
        ));
        assert!(matches!(
            decode(r#"{"type":"shutdown"}"#).2.unwrap(),
            Request::Shutdown
        ));
        let (_, _, req) = decode(r#"{"type":"health","db":"a\n"}"#);
        assert!(req.unwrap_err().contains("unknown field \"db\""));
        let (_, _, req) = decode(r#"{"type":"metrics","format":"xml"}"#);
        assert!(req
            .unwrap_err()
            .contains("unknown metrics format 'xml' (json|prometheus)"));
    }

    #[test]
    fn db_and_dataset_are_mutually_exclusive_alternatives() {
        let (_, _, req) =
            decode(r#"{"type":"sanitize","dataset":"corp","patterns":["a"],"psi":1}"#);
        let Request::Sanitize { spec, .. } = req.unwrap() else {
            panic!("wrong variant");
        };
        assert!(matches!(&spec.db, DbSource::Named(n) if n == "corp"));

        let (_, _, req) = decode(r#"{"type":"verify","dataset":"corp","patterns":["a"],"psi":1}"#);
        let Request::Verify(spec) = req.unwrap() else {
            panic!("wrong variant");
        };
        assert!(matches!(&spec.db, DbSource::Named(n) if n == "corp"));

        let (_, _, req) = decode(r#"{"type":"stats","dataset":"corp"}"#);
        assert!(matches!(
            req.unwrap(),
            Request::Stats {
                db: DbSource::Named(_),
                ..
            }
        ));

        let (_, _, req) =
            decode(r#"{"type":"sanitize","db":"a\n","dataset":"corp","patterns":["a"],"psi":1}"#);
        assert!(req
            .unwrap_err()
            .contains("either \"db\" or \"dataset\", not both"));

        let (_, _, req) = decode(r#"{"type":"stats"}"#);
        assert!(req.unwrap_err().contains("missing \"db\" (or \"dataset\")"));
    }

    #[test]
    fn delta_decodes_and_validates() {
        let (_, _, req) = decode(
            r#"{"type":"delta","dataset":"corp","add":["a b","c"],"remove":[0,3],
                "patterns":["a b"],"psi":1,"algorithm":"hr","seed":9,"release":true}"#,
        );
        let Request::Delta(spec) = req.unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(spec.dataset, "corp");
        assert_eq!(spec.add, vec!["a b".to_string(), "c".to_string()]);
        assert_eq!(spec.remove, vec![0, 3]);
        assert_eq!(spec.psi, 1);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.local, LocalStrategy::Heuristic);
        assert_eq!(spec.global, GlobalStrategy::Random);
        assert!(spec.want_release);

        let (_, _, req) = decode(r#"{"type":"delta","patterns":["a"],"psi":1}"#);
        assert!(req.unwrap_err().contains("missing \"dataset\""));
        let (_, _, req) = decode(r#"{"type":"delta","dataset":"d","psi":1,"remove":["zero"]}"#);
        assert!(req
            .unwrap_err()
            .contains("\"remove\" must be an array of non-negative integers"));
        // inline db text makes no sense for an in-place mutation
        let (_, _, req) = decode(r#"{"type":"delta","db":"a\n","psi":1}"#);
        assert!(req.unwrap_err().contains("unknown field \"db\""));
        // exact sessions are not supported; the field is rejected
        let (_, _, req) = decode(r#"{"type":"delta","dataset":"d","psi":1,"exact":true}"#);
        assert!(req.unwrap_err().contains("unknown field \"exact\""));
    }

    #[test]
    fn delta_response_carries_outcome_and_optional_release() {
        let mut outcome = DeltaOutcome {
            dataset: "corp".to_string(),
            version: 4,
            sequences: 12,
            added: 2,
            removed: 1,
            remarked: 3,
            restored: 1,
            hidden: true,
            marks: 7,
            sequences_sanitized: 5,
            supporters_before: 6,
            residual_supports: vec![1, 0],
            release: None,
        };
        let doc = json::parse(&ok_delta(&Some(Json::num(2)), &outcome)).unwrap();
        assert_eq!(doc.get("version").unwrap().as_u64(), Some(4));
        assert_eq!(doc.get("remarked").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("restored").unwrap().as_u64(), Some(1));
        assert!(doc.get("release").is_none());
        outcome.release = Some("a Δ\n".to_string());
        let doc = json::parse(&ok_delta(&None, &outcome)).unwrap();
        assert_eq!(doc.get("release").unwrap().as_str(), Some("a Δ\n"));
    }

    #[test]
    fn load_decodes_exactly_one_source() {
        let (_, _, req) = decode(r#"{"type":"load","name":"corp","db":"a b\n"}"#);
        let Request::Load { name, source } = req.unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(name, "corp");
        assert!(matches!(source, LoadSource::Inline(t) if t == "a b\n"));

        let (_, _, req) = decode(r#"{"type":"load","name":"corp","path":"/tmp/db.txt"}"#);
        assert!(matches!(
            req.unwrap(),
            Request::Load {
                source: LoadSource::Path(_),
                ..
            }
        ));

        let (_, _, req) = decode(r#"{"type":"load","name":"corp","chunks":true}"#);
        assert!(matches!(
            req.unwrap(),
            Request::Load {
                source: LoadSource::Chunked,
                ..
            }
        ));

        let (_, _, req) = decode(r#"{"type":"load","name":"corp"}"#);
        assert!(req.unwrap_err().contains("load needs a source"));
        let (_, _, req) = decode(r#"{"type":"load","name":"corp","db":"a\n","chunks":true}"#);
        assert!(req.unwrap_err().contains("exactly one of"));
        let (_, _, req) = decode(r#"{"type":"load","db":"a\n"}"#);
        assert!(req.unwrap_err().contains("missing \"name\""));
    }

    #[test]
    fn registry_control_requests_decode() {
        let (_, _, req) = decode(r#"{"type":"load_chunk","data":"a b\n"}"#);
        let Request::LoadChunk { data, last } = req.unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(data, "a b\n");
        assert!(!last);

        let (_, _, req) = decode(r#"{"type":"load_chunk","data":"","last":true}"#);
        assert!(matches!(
            req.unwrap(),
            Request::LoadChunk { last: true, .. }
        ));

        let (_, _, req) = decode(r#"{"type":"unload","name":"corp"}"#);
        assert!(matches!(req.unwrap(), Request::Unload { name } if name == "corp"));

        assert!(matches!(
            decode(r#"{"type":"datasets"}"#).2.unwrap(),
            Request::Datasets
        ));
        let (_, _, req) = decode(r#"{"type":"datasets","name":"corp"}"#);
        assert!(req.unwrap_err().contains("unknown field \"name\""));
    }

    #[test]
    fn dataset_responses_carry_the_snapshot_shape() {
        let info = DatasetInfo {
            name: "corp".to_string(),
            bytes: 120,
            sequences: 10,
            shards: 0,
            origin: "inline",
            resident: true,
            version: 3,
            last_modified_ms: 1_700_000_000_000,
            owner: None,
        };
        let doc = json::parse(&ok_load(&Some(Json::num(3)), &info)).unwrap();
        assert_eq!(doc.get("id").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("type").unwrap().as_str(), Some("load"));
        assert_eq!(doc.get("bytes").unwrap().as_u64(), Some(120));
        assert_eq!(doc.get("sequences").unwrap().as_u64(), Some(10));
        assert_eq!(doc.get("resident").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("version").unwrap().as_u64(), Some(3));
        assert_eq!(
            doc.get("last_modified").unwrap().as_u64(),
            Some(1_700_000_000_000)
        );

        let doc = json::parse(&ok_load_staged(&None, "corp")).unwrap();
        assert_eq!(doc.get("staged").unwrap().as_bool(), Some(true));

        let doc = json::parse(&ok_load_chunk(&None, 512)).unwrap();
        assert_eq!(doc.get("received_bytes").unwrap().as_u64(), Some(512));

        let doc = json::parse(&ok_unload(&None, "corp")).unwrap();
        assert_eq!(doc.get("unloaded").unwrap().as_bool(), Some(true));

        let doc = json::parse(&ok_datasets(&None, &[info])).unwrap();
        let rows = doc.get("datasets").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("name").unwrap().as_str(), Some("corp"));
    }

    #[test]
    fn with_timings_splices_into_the_response_object() {
        let line = ok_shutdown(&Some(Json::num(9)));
        let timings = crate::trace::Timings {
            queue_wait_ns: 10,
            parse_ns: 20,
            sanitize_ns: 30,
            serialize_ns: 40,
        };
        let spliced = with_timings(line, &timings.to_json(77));
        let doc = json::parse(&spliced).expect("spliced line stays valid JSON");
        let t = doc.get("timings").unwrap();
        assert_eq!(t.get("req_id").unwrap().as_u64(), Some(77));
        assert_eq!(t.get("queue_wait_ns").unwrap().as_u64(), Some(10));
        assert_eq!(t.get("parse_ns").unwrap().as_u64(), Some(20));
        assert_eq!(t.get("sanitize_ns").unwrap().as_u64(), Some(30));
        assert_eq!(t.get("serialize_ns").unwrap().as_u64(), Some(40));
        // the original payload is intact
        assert_eq!(doc.get("id").unwrap().as_u64(), Some(9));
        assert_eq!(doc.get("draining").unwrap().as_bool(), Some(true));
        // and the client-side reader recovers the legs from the tail
        let read = spliced_timings(&spliced).expect("timings read back");
        assert_eq!(
            (
                read.queue_wait_ns,
                read.parse_ns,
                read.sanitize_ns,
                read.serialize_ns
            ),
            (10, 20, 30, 40)
        );
        assert_eq!(read.sum_ns(), 100);
    }

    #[test]
    fn spliced_timings_ignores_lookalikes_in_the_payload() {
        // a payload string quoting the key is escaped, so it never
        // matches; a line without the splice reads as untimed
        let line = error(&None, r#"bad ,"timings":{"parse_ns":1}"#);
        assert!(spliced_timings(&line).is_none(), "{line}");
        assert!(spliced_timings(&ok_shutdown(&None)).is_none());
        let timings = Timings {
            queue_wait_ns: 1,
            parse_ns: 2,
            sanitize_ns: 3,
            serialize_ns: 4,
        };
        let spliced = with_timings(line, &timings.to_json(5));
        assert_eq!(spliced_timings(&spliced).map(|t| t.sum_ns()), Some(10));
    }

    /// A recording writer: how many `write` calls reached it, and what.
    #[derive(Default)]
    struct Writes {
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_frames_a_reply_in_one_write_and_keeps_the_buffer() {
        let mut out = Writes::default();
        let mut line = ok_shutdown(&Some(Json::num(3)));
        let before = line.clone();
        write_line(&mut out, &mut line).unwrap();
        write_line(&mut out, &mut line).unwrap();
        assert_eq!(out.calls, 2, "one write per line");
        assert_eq!(line, before, "the terminator is not left behind");
        assert_eq!(out.bytes, format!("{before}\n{before}\n").into_bytes());
    }

    #[test]
    fn health_payload_carries_operability_fields() {
        let info = HealthInfo {
            workers: 2,
            queue_capacity: 8,
            queue_depth: 1,
            inflight: 2,
            requests: 10,
            overloads: 1,
            executed: 7,
            draining: false,
            uptime_ms: 1234,
            version: "9.9.9",
            queue_depth_high_water: 5,
            inflight_high_water: 2,
            tenants: None,
        };
        let doc = json::parse(&ok_health(&None, &info)).unwrap();
        assert_eq!(doc.get("uptime_ms").unwrap().as_u64(), Some(1234));
        assert_eq!(doc.get("version").unwrap().as_str(), Some("9.9.9"));
        assert_eq!(doc.get("queue_depth_high_water").unwrap().as_u64(), Some(5));
        assert_eq!(doc.get("inflight_high_water").unwrap().as_u64(), Some(2));
        // the standalone /healthz body has the same fields, no envelope
        let body = json::parse(&health_body(&info)).unwrap();
        assert!(body.get("status").is_none());
        assert_eq!(body.get("version").unwrap().as_str(), Some("9.9.9"));
    }

    #[test]
    fn responses_are_single_line_json_with_echoed_ids() {
        let id = Some(Json::num(42));
        for line in [
            error(&id, "boom\nboom"),
            overloaded(&id, 8),
            shutting_down(&id),
            ok_shutdown(&id),
        ] {
            assert!(!line.contains('\n'), "NDJSON framing broken: {line}");
            let doc = json::parse(&line).unwrap();
            assert_eq!(doc.get("id").unwrap().as_u64(), Some(42));
        }
        let doc = json::parse(&overloaded(&id, 8)).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("overloaded"));
        assert!(doc
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("queue full"));
    }

    #[test]
    fn metrics_response_embeds_snapshot_as_object() {
        let line = ok_metrics(&None, r#"{"schema_version": 3, "counters": {}}"#);
        let doc = json::parse(&line).unwrap();
        assert_eq!(
            doc.get("metrics")
                .unwrap()
                .get("schema_version")
                .unwrap()
                .as_u64(),
            Some(3)
        );
    }

    #[test]
    fn tenant_token_rides_on_every_request_type() {
        for line in [
            r#"{"type":"sanitize","tenant":"tok","db":"a\n","patterns":["a"],"psi":0}"#,
            r#"{"type":"verify","tenant":"tok","db":"a\n","patterns":["a"],"psi":0}"#,
            r#"{"type":"stats","tenant":"tok","db":"a\n"}"#,
            r#"{"type":"delta","tenant":"tok","dataset":"d","psi":0}"#,
            r#"{"type":"load","tenant":"tok","name":"d","db":"a\n"}"#,
            r#"{"type":"load_chunk","tenant":"tok","data":"a\n"}"#,
            r#"{"type":"unload","tenant":"tok","name":"d"}"#,
            r#"{"type":"datasets","tenant":"tok"}"#,
            r#"{"type":"health","tenant":"tok"}"#,
            r#"{"type":"metrics","tenant":"tok"}"#,
            r#"{"type":"debug","tenant":"tok"}"#,
            r#"{"type":"shutdown","tenant":"tok"}"#,
        ] {
            let (_, tenant, req) = decode(line);
            assert_eq!(tenant.as_deref(), Some("tok"), "{line}");
            req.unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        // absent → None; non-string → pointed error that keeps the id
        let (_, tenant, req) = decode(r#"{"type":"health"}"#);
        assert_eq!(tenant, None);
        req.unwrap();
        let (id, tenant, req) = decode(r#"{"id":3,"type":"health","tenant":7}"#);
        assert_eq!(id, Some(Json::num(3)));
        assert_eq!(tenant, None);
        assert!(req.unwrap_err().contains("\"tenant\" must be a string"));
    }

    #[test]
    fn quota_and_rate_limit_responses_are_distinct() {
        let id = Some(Json::num(5));
        let doc = json::parse(&quota_exceeded(&id, "tenant 'a' over max_queued (2)")).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("quota_exceeded"));
        assert!(doc
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("max_queued"));
        assert!(doc.get("retry_after_ms").is_none());

        let doc = json::parse(&overloaded_rate_limited(&id, "a", 40)).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("overloaded"));
        assert_eq!(doc.get("retry_after_ms").unwrap().as_u64(), Some(40));
        assert!(doc.get("error").unwrap().as_str().unwrap().contains("40ms"));
        // the classic global-overload body has no retry hint
        assert!(json::parse(&overloaded(&id, 8))
            .unwrap()
            .get("retry_after_ms")
            .is_none());
    }

    #[test]
    fn multi_tenant_health_and_datasets_carry_tenant_rows() {
        let mut info = HealthInfo {
            workers: 2,
            queue_capacity: 8,
            queue_depth: 0,
            inflight: 0,
            requests: 0,
            overloads: 0,
            executed: 0,
            draining: false,
            uptime_ms: 1,
            version: "0",
            queue_depth_high_water: 0,
            inflight_high_water: 0,
            tenants: Some(vec![("alpha".to_string(), 3), ("beta".to_string(), 0)]),
        };
        let doc = json::parse(&ok_health(&None, &info)).unwrap();
        assert_eq!(doc.get("tenants").unwrap().as_u64(), Some(2));
        let hw = doc.get("tenant_queue_high_water").unwrap();
        assert_eq!(hw.get("alpha").unwrap().as_u64(), Some(3));
        assert_eq!(hw.get("beta").unwrap().as_u64(), Some(0));
        // single-tenant default: the fields don't exist at all
        info.tenants = None;
        let doc = json::parse(&ok_health(&None, &info)).unwrap();
        assert!(doc.get("tenants").is_none());
        assert!(doc.get("tenant_queue_high_water").is_none());

        let mut ds = DatasetInfo {
            name: "corp".to_string(),
            bytes: 9,
            sequences: 1,
            shards: 0,
            origin: "inline",
            resident: true,
            version: 1,
            last_modified_ms: 0,
            owner: Some("alpha".to_string()),
        };
        let doc = json::parse(&ok_datasets(&None, std::slice::from_ref(&ds))).unwrap();
        let rows = doc.get("datasets").unwrap().as_array().unwrap();
        assert_eq!(rows[0].get("owner").unwrap().as_str(), Some("alpha"));
        ds.owner = None;
        let doc = json::parse(&ok_datasets(&None, &[ds])).unwrap();
        assert!(doc.get("datasets").unwrap().as_array().unwrap()[0]
            .get("owner")
            .is_none());
    }
}
