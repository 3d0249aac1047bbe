//! The server: threaded acceptor, bounded job queue, worker pool,
//! graceful drain.
//!
//! ## Threading model (std-only; no async runtime)
//!
//! * **One acceptor** — the thread that calls [`Server::run`] loops on
//!   `accept` and spawns a connection thread per client.
//! * **One thread per connection** — reads NDJSON request lines,
//!   answers `health`/`metrics`/`shutdown` inline, and submits
//!   `sanitize`/`verify`/`stats`/`delta` jobs to the queue, waiting for each
//!   job's reply before reading the next line (per-connection FIFO;
//!   concurrency comes from having many connections).
//! * **A fixed worker pool** — `workers` threads popping jobs from one
//!   [`BoundedQueue`]. Each worker owns its per-job domain state and
//!   RNG seeding comes from the request, so results are deterministic
//!   regardless of which worker runs the job.
//!
//! ## Backpressure and multi-tenant admission
//!
//! Admission to the queue is non-blocking: when `queue_depth` jobs are
//! already waiting, the connection thread answers `overloaded`
//! immediately and drops the job. The queue capacity is the server's
//! entire buffer for admitted-but-unstarted work — there is no hidden
//! unbounded channel anywhere on the request path. With a `--tenants`
//! config the single FIFO becomes per-tenant lanes drained by
//! deficit-weighted round robin (see [`crate::queue`]): each request's
//! `tenant` token picks its lane, per-tenant quotas shed with
//! `quota_exceeded` *before* the global bound sheds with `overloaded`,
//! and a tenant over its request rate is answered `overloaded` with a
//! `retry_after_ms` hint. Without the config a permissive default
//! tenant keeps every response byte-identical to the single-tenant
//! server. The read path is
//! bounded too: a request line may hold at most [`MAX_LINE_BYTES`],
//! the JSON parser refuses pathological nesting, and the wire-exposed
//! `delay_ms` test knob is capped, so no single client input can grow
//! server memory, blow a thread stack, or wedge the worker pool.
//!
//! ## Graceful drain
//!
//! A `shutdown` request flips the draining flag and closes the queue:
//! new jobs are refused with `shutting_down`, already-admitted jobs
//! run to completion and their responses are delivered, the acceptor
//! is woken by a loopback self-connect, idle connection reads are
//! unblocked via `TcpStream::shutdown(Read)` on registered clones, and
//! [`Server::run`] joins every thread before returning its summary.

use std::io::{self, BufRead, BufReader, Read as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use seqhide_obs::{self as obs, Counter, Gauge, Hist, Phase};

use crate::delta::{DeltaSessions, DeltaSpec};
use crate::exec::{self, DbSource};
use crate::http;
use crate::json::Json;
use crate::protocol::{self, HealthInfo, LoadSource, MetricsFormat, Request};
use crate::queue::{BoundedQueue, PushError};
use crate::registry::{DatasetRegistry, LoadStaging, RegistryLimits};
use crate::tenant::{TenantConfig, TenantId, TenantRegistry};
use crate::trace::{SlowRing, Timings, Trace, TraceEvent, SLOW_RING_K};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:7070` (port 0 picks a free port).
    pub addr: String,
    /// Worker pool size (≥ 1).
    pub workers: usize,
    /// Bounded job-queue capacity (≥ 1): the most jobs that may wait
    /// for a worker before the server sheds load with `overloaded`.
    pub queue_depth: usize,
    /// Optional bind address for the plain-HTTP metrics listener
    /// (`GET /metrics` Prometheus scrapes; see [`crate::http`]). `None`
    /// disables the listener.
    pub metrics_addr: Option<String>,
    /// Optional dataset persistence directory: loaded datasets are
    /// written there as compressed shard stores and re-attached at
    /// startup (see [`crate::registry`]). `None` keeps the registry
    /// memory-only.
    pub data_dir: Option<String>,
    /// Optional multi-tenant admission config (`--tenants FILE`, parsed
    /// by [`crate::tenant::load_tenants_file`]). `None` runs the server
    /// with one permissive default tenant: no quotas, no rate limits,
    /// responses byte-identical to the pre-tenant wire format.
    pub tenants: Option<Vec<TenantConfig>>,
}

/// What a completed [`Server::run`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests received (all types, including malformed and shed).
    pub requests: u64,
    /// Requests shed with `overloaded`.
    pub overloads: u64,
    /// Jobs executed to completion on the worker pool.
    pub executed: u64,
}

/// Work that goes through the queue (everything except the inline
/// control requests).
enum Work {
    Sanitize(exec::SanitizeSpec),
    Verify(exec::VerifySpec),
    Stats { db: DbSource, mode: exec::Mode },
    Delta(DeltaSpec),
}

/// The most bytes one request line may hold (the database rides inline
/// in `sanitize` requests, so the bound is generous — but it exists: a
/// client streaming newline-free bytes cannot grow server memory past
/// this). An oversized line gets an `error` response and the connection
/// is closed, because the line framing is lost mid-line.
pub const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;

/// One admitted job: the work, its correlation id, its trace, and the
/// channel the owning connection thread blocks on for the rendered
/// response line (the trace rides back with it so the connection
/// thread can stamp the final event and journal the request).
struct Job {
    work: Work,
    id: Option<Json>,
    /// Which queue lane admitted the job (the resolved tenant); the
    /// worker's `complete` call re-opens this lane's in-flight slot.
    tenant: TenantId,
    delay_ms: u64,
    trace: Trace,
    reply: mpsc::Sender<(String, Trace)>,
}

/// Read-half clones of **live** client sockets, for unblocking idle
/// reads at drain time. Entries are keyed by a connection id and
/// removed when the connection thread returns, so a disconnected
/// client's file descriptor is released immediately rather than held
/// until shutdown. Once `closed`, registration shuts the socket down
/// on the spot — a connection accepted just before drain can never
/// slip in after the unblock pass and sit on an unbounded `read`.
struct ConnRegistry {
    closed: bool,
    next_id: u64,
    entries: Vec<(u64, TcpStream)>,
}

pub(crate) struct Shared {
    queue: BoundedQueue<Job>,
    draining: AtomicBool,
    inflight: AtomicUsize,
    requests: AtomicU64,
    overloads: AtomicU64,
    executed: AtomicU64,
    /// Jobs ever admitted to the queue (still waiting, running, or
    /// done). Lets tests synchronize on "the job is in" without racing
    /// the pop/execute transitions that make `queue.len() + inflight`
    /// sampling ambiguous.
    admitted: AtomicU64,
    conns: Mutex<ConnRegistry>,
    workers: usize,
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    /// When the server was bound (for `uptime_ms` in `health`).
    started: Instant,
    /// Server-unique request id source (first request gets 1).
    next_req_id: AtomicU64,
    /// Plain high-water marks mirrored outside the obs gauges so
    /// `health` reports them in obs-off builds too.
    queue_depth_hw: AtomicU64,
    inflight_hw: AtomicU64,
    /// Journal of the slowest requests (no-op when obs is compiled out).
    slow: SlowRing,
    /// Named dataset snapshots (`load`/`unload`/`datasets`).
    registry: Arc<DatasetRegistry>,
    /// Per-dataset incremental-sanitization sessions behind the `delta`
    /// wire op.
    deltas: DeltaSessions,
    /// Token → tenant resolution, per-tenant accounting, quotas. A
    /// permissive single-tenant registry when `--tenants` is absent.
    tenants: Arc<TenantRegistry>,
    /// Telemetry zero point: `metrics` responses report the diff since
    /// the server started, not process-lifetime totals.
    baseline: obs::Snapshot,
}

impl Shared {
    /// Registers a live connection for drain-time unblocking; the
    /// returned id deregisters it. `None` means draining already began
    /// — the clone's read half has been shut down, so the caller's next
    /// read sees EOF and the connection winds down immediately.
    fn register_conn(&self, clone: TcpStream) -> Option<u64> {
        let mut registry = self.conns.lock().expect("conns poisoned");
        if registry.closed {
            let _ = clone.shutdown(Shutdown::Read);
            return None;
        }
        let id = registry.next_id;
        registry.next_id += 1;
        registry.entries.push((id, clone));
        Some(id)
    }

    /// Drops a finished connection's registry entry (and with it the
    /// cloned socket, releasing the file descriptor).
    fn deregister_conn(&self, id: u64) {
        let mut registry = self.conns.lock().expect("conns poisoned");
        if let Some(at) = registry.entries.iter().position(|(e, _)| *e == id) {
            registry.entries.swap_remove(at);
        }
    }

    /// Drain-time unblock pass: marks the registry closed and shuts
    /// down the read half of every live connection. Connections that
    /// try to register afterwards are shut down by `register_conn`.
    fn close_conns(&self) {
        let mut registry = self.conns.lock().expect("conns poisoned");
        registry.closed = true;
        for (_, conn) in registry.entries.drain(..) {
            let _ = conn.shutdown(Shutdown::Read);
        }
    }

    pub(crate) fn health(&self) -> HealthInfo {
        HealthInfo {
            workers: self.workers,
            queue_capacity: self.queue.capacity(),
            queue_depth: self.queue.len(),
            inflight: self.inflight.load(Ordering::SeqCst),
            requests: self.requests.load(Ordering::SeqCst),
            overloads: self.overloads.load(Ordering::SeqCst),
            executed: self.executed.load(Ordering::SeqCst),
            draining: self.draining.load(Ordering::SeqCst),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            version: env!("CARGO_PKG_VERSION"),
            queue_depth_high_water: self.queue_depth_hw.load(Ordering::SeqCst),
            inflight_high_water: self.inflight_hw.load(Ordering::SeqCst),
            tenants: if self.tenants.is_multi() {
                Some(self.tenants.queue_high_waters())
            } else {
                None
            },
        }
    }

    /// Per-tenant Prometheus exposition appended to `/metrics` scrapes
    /// and `metrics` wire responses; empty in single-tenant mode so the
    /// default server's scrape output is byte-identical.
    pub(crate) fn tenant_metrics(&self) -> String {
        if self.tenants.is_multi() {
            self.tenants.prometheus_text()
        } else {
            String::new()
        }
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    pub(crate) fn baseline(&self) -> &obs::Snapshot {
        &self.baseline
    }

    /// Flips the server into draining mode (idempotent): refuses new
    /// jobs, and wakes the acceptor — and the metrics listener, if any
    /// — with loopback self-connects so the accept loops observe the
    /// flag.
    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            self.queue.close();
            let _ = TcpStream::connect(self.local_addr);
            if let Some(metrics_addr) = self.metrics_addr {
                let _ = TcpStream::connect(metrics_addr);
            }
        }
    }
}

/// A bound, not-yet-running sanitization server.
pub struct Server {
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    shared: Arc<Shared>,
    reattached: usize,
}

impl Server {
    /// Binds the listener and builds the shared state. Does not accept
    /// connections until [`Server::run`].
    pub fn bind(options: &ServeOptions) -> io::Result<Server> {
        if options.workers == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "worker pool size must be ≥ 1",
            ));
        }
        if options.queue_depth == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "queue depth must be ≥ 1 (a zero-capacity queue would shed every request)",
            ));
        }
        let listener = TcpListener::bind(&options.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics_listener = match &options.metrics_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(listener) => Some(listener.local_addr()?),
            None => None,
        };
        let (registry, reattached) = DatasetRegistry::new(
            options.data_dir.as_ref().map(PathBuf::from),
            RegistryLimits::default(),
        )?;
        let tenants = Arc::new(match &options.tenants {
            Some(configs) => TenantRegistry::from_configs(configs.clone()),
            None => TenantRegistry::single_default(),
        });
        Ok(Server {
            listener,
            metrics_listener,
            reattached,
            shared: Arc::new(Shared {
                queue: BoundedQueue::with_lanes(options.queue_depth, tenants.lanes()),
                draining: AtomicBool::new(false),
                inflight: AtomicUsize::new(0),
                requests: AtomicU64::new(0),
                overloads: AtomicU64::new(0),
                executed: AtomicU64::new(0),
                admitted: AtomicU64::new(0),
                conns: Mutex::new(ConnRegistry {
                    closed: false,
                    next_id: 0,
                    entries: Vec::new(),
                }),
                workers: options.workers,
                local_addr,
                metrics_addr,
                started: Instant::now(),
                next_req_id: AtomicU64::new(1),
                queue_depth_hw: AtomicU64::new(0),
                inflight_hw: AtomicU64::new(0),
                slow: SlowRing::new(SLOW_RING_K),
                registry: Arc::new(registry),
                deltas: DeltaSessions::new(),
                tenants,
                baseline: obs::snapshot(),
            }),
        })
    }

    /// How many datasets the registry re-attached from `--data-dir` at
    /// bind time (0 without a data dir).
    pub fn reattached_datasets(&self) -> usize {
        self.reattached
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The bound metrics-listener address, when `--metrics-addr` was
    /// configured (useful with port 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.shared.metrics_addr
    }

    /// Serves until a `shutdown` request, then drains and returns the
    /// summary. Joins every worker and connection thread before
    /// returning — when this comes back, all admitted work is done and
    /// every response has been written.
    pub fn run(self) -> io::Result<ServeSummary> {
        let _serve_span = obs::span(Phase::Serve);
        let shared = Arc::clone(&self.shared);

        let metrics_thread = self.metrics_listener.map(|listener| {
            let shared = Arc::clone(&shared);
            thread::spawn(move || http::run_metrics_listener(listener, &shared))
        });

        let workers: Vec<_> = (0..shared.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if shared.draining.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(_) => {
                    // Transient accept failure (e.g. EMFILE under a low
                    // ulimit): back off briefly instead of spinning.
                    thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            let shared_conn = Arc::clone(&shared);
            conns.push(thread::spawn(move || {
                handle_connection(&shared_conn, stream);
            }));
            conns.retain(|handle| !handle.is_finished());
        }

        // Draining: unblock idle connection reads, let workers finish
        // the admitted backlog, then join everything.
        shared.close_conns();
        for worker in workers {
            let _ = worker.join();
        }
        for conn in conns {
            let _ = conn.join();
        }
        if let Some(handle) = metrics_thread {
            let _ = handle.join();
        }
        Ok(ServeSummary {
            requests: shared.requests.load(Ordering::SeqCst),
            overloads: shared.overloads.load(Ordering::SeqCst),
            executed: shared.executed.load(Ordering::SeqCst),
        })
    }
}

/// Worker thread body: pop, execute, reply; exit when the closed queue
/// runs dry.
fn worker_loop(shared: &Shared) {
    while let Some(mut job) = shared.queue.pop() {
        let dequeued = job.trace.stamp(TraceEvent::Dequeued);
        let wait_ns = dequeued.saturating_sub(job.trace.at(TraceEvent::Admitted).unwrap_or(0));
        obs::hist_record(Hist::ServeQueueWaitNanos, wait_ns);
        let inflight = shared.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        shared
            .inflight_hw
            .fetch_max(inflight as u64, Ordering::SeqCst);
        obs::gauge_max(Gauge::Inflight, inflight as u64);
        let occupied = Instant::now();
        if job.delay_ms > 0 {
            thread::sleep(Duration::from_millis(job.delay_ms));
        }
        job.trace.stamp(TraceEvent::ExecStart);
        let response = match &job.work {
            Work::Sanitize(spec) => {
                let result = exec::sanitize(spec);
                job.trace.stamp(TraceEvent::ExecEnd);
                match result {
                    Ok(outcome) => {
                        let render_started = Instant::now();
                        let line = protocol::ok_sanitize(&job.id, &outcome);
                        let serialize_ns = render_started.elapsed().as_nanos() as u64;
                        let timings = Timings::from_trace(&job.trace, serialize_ns);
                        protocol::with_timings(line, &timings.to_json(job.trace.req_id))
                    }
                    Err(e) => protocol::error(&job.id, &e),
                }
            }
            Work::Verify(spec) => {
                let result = exec::verify(spec);
                job.trace.stamp(TraceEvent::ExecEnd);
                match result {
                    Ok(outcome) => protocol::ok_verify(&job.id, &outcome),
                    Err(e) => protocol::error(&job.id, &e),
                }
            }
            Work::Stats { db, mode } => {
                let result = exec::stats(db, *mode);
                job.trace.stamp(TraceEvent::ExecEnd);
                match result {
                    Ok(outcome) => protocol::ok_stats(&job.id, &outcome),
                    Err(e) => protocol::error(&job.id, &e),
                }
            }
            Work::Delta(spec) => {
                // A delta grows or shrinks the dataset in place; in
                // multi-tenant mode the owner's pinned-bytes ledger is
                // adjusted by the size change after the fact (the delta
                // already applied, so the adjustment is unconditional —
                // the hard gate is at `load` time).
                let before = if shared.tenants.is_multi() {
                    shared.registry.get(&spec.dataset).map(|s| s.bytes())
                } else {
                    None
                };
                let result = shared.deltas.execute(&shared.registry, spec);
                job.trace.stamp(TraceEvent::ExecEnd);
                match result {
                    Ok(outcome) => {
                        if let (Some(before), Some(after)) =
                            (before, shared.registry.get(&spec.dataset))
                        {
                            let owner = after
                                .owner()
                                .and_then(|owner| shared.tenants.by_name(owner));
                            if let Some(owner) = owner {
                                let now = after.bytes();
                                if now >= before {
                                    owner.charge_pinned_unchecked(now - before);
                                } else {
                                    owner.credit_pinned(before - now);
                                }
                            }
                        }
                        job.trace.dataset_version = Some(outcome.version);
                        protocol::ok_delta(&job.id, &outcome)
                    }
                    Err(e) => protocol::error(&job.id, &e),
                }
            }
        };
        shared.executed.fetch_add(1, Ordering::SeqCst);
        shared
            .tenants
            .get(job.tenant)
            .add_occupancy_ns(occupied.elapsed().as_nanos() as u64);
        // A send failure means the connection thread is gone (client
        // hung up mid-job); the work is done either way.
        let _ = job.reply.send((response, job.trace));
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        // Re-open the lane's in-flight slot last, so a capped tenant's
        // next job is only popped once this one has fully retired.
        shared.queue.complete(job.tenant);
    }
}

/// Connection thread body: registers the socket for drain-time
/// unblocking, serves it, and deregisters on the way out so the
/// registry only ever holds live connections.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    // Each reply leaves in one write; with Nagle's algorithm on, the
    // tail segment of a large reply would still wait for the client's
    // delayed ACK. A socket that refuses the option is served anyway.
    let _ = stream.set_nodelay(true);
    let registered = stream
        .try_clone()
        .ok()
        .and_then(|clone| shared.register_conn(clone));
    serve_connection(shared, stream);
    if let Some(id) = registered {
        shared.deregister_conn(id);
    }
}

/// One request line read with a hard size cap, or the reason to stop.
enum LineRead {
    Line(Vec<u8>),
    /// The line hit [`MAX_LINE_BYTES`] without a newline — framing is
    /// lost, so after answering the connection must close.
    Oversized,
    Eof,
}

/// Reads one `\n`-terminated line, refusing to buffer more than
/// [`MAX_LINE_BYTES`] (a final unterminated line at EOF still counts as
/// a line). The per-call [`Read::take`] makes the cap a per-line bound,
/// not a per-connection budget.
fn read_bounded_line(reader: &mut BufReader<TcpStream>) -> io::Result<LineRead> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_LINE_BYTES {
        return Ok(LineRead::Oversized);
    }
    Ok(LineRead::Line(buf))
}

/// Serves one NDJSON request per line, one response line each, until
/// EOF, drain, or an unrecoverable framing problem.
fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    // At most one chunked load may be in flight per connection; it is
    // dropped (and its temp store file removed) if the client
    // disconnects before the final chunk. The tenant that opened it is
    // remembered so the commit charges the opener's ledger even if a
    // different token sends the final chunk.
    let mut staging: Option<(LoadStaging, TenantId)> = None;
    loop {
        let line = match read_bounded_line(&mut reader) {
            Ok(LineRead::Line(line)) => line,
            Ok(LineRead::Oversized) => {
                shared.requests.fetch_add(1, Ordering::SeqCst);
                obs::counter_add(Counter::ServeRequests, 1);
                let mut response = protocol::error(
                    &None,
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
                let _ = protocol::write_line(&mut stream, &mut response);
                return;
            }
            Ok(LineRead::Eof) | Err(_) => return,
        };
        let Ok(line) = std::str::from_utf8(&line) else {
            shared.requests.fetch_add(1, Ordering::SeqCst);
            obs::counter_add(Counter::ServeRequests, 1);
            let mut response = protocol::error(&None, "request line is not valid UTF-8");
            if protocol::write_line(&mut stream, &mut response).is_err() {
                return;
            }
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        let _request_span = obs::span(Phase::ServeRequest);
        shared.requests.fetch_add(1, Ordering::SeqCst);
        obs::counter_add(Counter::ServeRequests, 1);
        let mut trace = Trace::start(shared.next_req_id.fetch_add(1, Ordering::SeqCst));
        let (id, token, decoded) = protocol::decode(line);
        if let Ok(request) = &decoded {
            trace.kind = request.kind();
            trace.stamp(TraceEvent::Parsed);
        }
        let (mut response, mut trace) = match decoded {
            Err(e) => (protocol::error(&id, &e), trace),
            Ok(request) => match shared.tenants.resolve(token.as_deref()) {
                Err(e) => (protocol::error(&id, &e), trace),
                Ok(tenant) => {
                    shared.tenants.get(tenant).record_request();
                    if shared.tenants.is_multi() {
                        trace.tenant = Some(shared.tenants.get(tenant).name().to_string());
                    }
                    dispatch(shared, request, tenant, id, trace, &mut staging)
                }
            },
        };
        let written = protocol::write_line(&mut stream, &mut response);
        let total_ns = trace.stamp(TraceEvent::ResponseWritten);
        obs::hist_record(Hist::ServeRequestNanos, total_ns);
        shared.slow.record(trace);
        if written.is_err() {
            return;
        }
    }
}

/// Answers one decoded request on behalf of a resolved tenant: control
/// requests inline, heavy requests via [`submit`]. In multi-tenant mode
/// the registry ops run the ownership and pinned-bytes checks; in
/// single-tenant mode every path is byte-identical to the pre-tenant
/// server.
fn dispatch(
    shared: &Shared,
    request: Request,
    tenant: TenantId,
    id: Option<Json>,
    trace: Trace,
    staging: &mut Option<(LoadStaging, TenantId)>,
) -> (String, Trace) {
    let multi = shared.tenants.is_multi();
    // The committed snapshot records its owning tenant only in multi
    // mode, so single-tenant `datasets` output stays unchanged.
    let owner = || multi.then(|| shared.tenants.get(tenant).name().to_string());
    match request {
        Request::Health => (protocol::ok_health(&id, &shared.health()), trace),
        Request::Metrics { format } => {
            let diff = obs::snapshot().diff(&shared.baseline);
            let response = match format {
                MetricsFormat::Json => protocol::ok_metrics(&id, &diff.to_json()),
                MetricsFormat::Prometheus => {
                    let mut text = diff.to_prometheus();
                    text.push_str(&shared.tenant_metrics());
                    protocol::ok_metrics_prometheus(&id, &text)
                }
            };
            (response, trace)
        }
        Request::Debug => {
            let (recorded, slowest) = shared.slow.dump();
            (protocol::ok_debug(&id, recorded, &slowest), trace)
        }
        Request::Shutdown => {
            shared.begin_drain();
            (protocol::ok_shutdown(&id), trace)
        }
        Request::Load { name, source } => {
            let response = if staging.is_some() {
                protocol::error(
                    &id,
                    "a chunked load is already in progress on this connection \
                     (finish it with \"last\": true first)",
                )
            } else {
                match source {
                    LoadSource::Chunked => {
                        match shared.registry.begin_load_as(&name, "chunks", owner()) {
                            Ok(opened) => {
                                *staging = Some((opened, tenant));
                                protocol::ok_load_staged(&id, &name)
                            }
                            Err(e) => protocol::error(&id, &e),
                        }
                    }
                    LoadSource::Inline(text) => {
                        load_charged(shared, tenant, &id, &name, "inline", &text)
                    }
                    LoadSource::Path(path) => match std::fs::read_to_string(&path) {
                        Ok(text) => load_charged(shared, tenant, &id, &name, "path", &text),
                        Err(e) => protocol::error(&id, &format!("cannot read '{path}': {e}")),
                    },
                }
            };
            (response, trace)
        }
        Request::LoadChunk { data, last } => {
            let response = match staging.as_mut() {
                None => protocol::error(
                    &id,
                    "no chunked load in progress (send {\"type\":\"load\",\"chunks\":true} first)",
                ),
                Some((open, _)) => match open.push(&data) {
                    Err(e) => {
                        // The staging is unusable; drop it so the
                        // temp file goes away.
                        *staging = None;
                        protocol::error(&id, &e)
                    }
                    Ok(()) => {
                        if last {
                            let (open, charge_to) = staging.take().expect("staging is Some here");
                            commit_charged(shared, charge_to, &id, open)
                        } else {
                            protocol::ok_load_chunk(&id, open.bytes_staged())
                        }
                    }
                },
            };
            (response, trace)
        }
        Request::Unload { name } => {
            // Snapshot first: a successful unload credits the owner's
            // pinned-bytes ledger with what the dataset occupied.
            let prior = multi.then(|| shared.registry.get(&name)).flatten();
            let requester = owner();
            let response = match shared.registry.unload_as(&name, requester.as_deref()) {
                Ok(()) => {
                    if let Some(snapshot) = prior {
                        let owner = snapshot
                            .owner()
                            .and_then(|owner| shared.tenants.by_name(owner));
                        if let Some(owner) = owner {
                            owner.credit_pinned(snapshot.bytes());
                        }
                    }
                    // The dataset is gone; its delta session (if any)
                    // describes text that no longer exists.
                    shared.deltas.forget(&name);
                    protocol::ok_unload(&id, &name)
                }
                Err(e) => protocol::error(&id, &e),
            };
            (response, trace)
        }
        Request::Datasets => (protocol::ok_datasets(&id, &shared.registry.list()), trace),
        heavy => submit(shared, heavy, tenant, id, trace),
    }
}

/// One-shot load with the tenant's pinned-bytes quota enforced up
/// front: the charge happens before the load (refused loads answer
/// `quota_exceeded`), and a load that then fails refunds it. In
/// single-tenant mode the ledger is bypassed entirely.
fn load_charged(
    shared: &Shared,
    tenant: TenantId,
    id: &Option<Json>,
    name: &str,
    origin: &'static str,
    text: &str,
) -> String {
    let multi = shared.tenants.is_multi();
    let bytes = text.len() as u64;
    if multi {
        if let Err(e) = shared.tenants.get(tenant).try_charge_pinned(bytes) {
            return protocol::quota_exceeded(id, &e);
        }
    }
    let owner = multi.then(|| shared.tenants.get(tenant).name().to_string());
    match shared.registry.load_as(name, origin, text, owner) {
        Ok(info) => protocol::ok_load(id, &info),
        Err(e) => {
            if multi {
                shared.tenants.get(tenant).credit_pinned(bytes);
            }
            protocol::error(id, &e)
        }
    }
}

/// Commits a finished chunked load, charging the opener's pinned-bytes
/// ledger for the staged size first; a refused charge drops the staging
/// (removing its temp store file) and answers `quota_exceeded`.
fn commit_charged(
    shared: &Shared,
    tenant: TenantId,
    id: &Option<Json>,
    open: LoadStaging,
) -> String {
    let multi = shared.tenants.is_multi();
    let bytes = open.bytes_staged();
    if multi {
        if let Err(e) = shared.tenants.get(tenant).try_charge_pinned(bytes) {
            return protocol::quota_exceeded(id, &e);
        }
    }
    match open.commit() {
        Ok(info) => protocol::ok_load(id, &info),
        Err(e) => {
            if multi {
                shared.tenants.get(tenant).credit_pinned(bytes);
            }
            protocol::error(id, &e)
        }
    }
}

/// Queues one heavy request and blocks for its reply; turns a full
/// queue into `overloaded` and a closed one into `shutting_down`, a
/// full tenant lane into `quota_exceeded`, and an over-rate tenant into
/// `overloaded` with a `retry_after_ms` hint. The trace rides into the
/// queue with the job and comes back with the response (a shed or
/// refused job hands its trace straight back).
fn submit(
    shared: &Shared,
    request: Request,
    tenant: TenantId,
    id: Option<Json>,
    mut trace: Trace,
) -> (String, Trace) {
    // The request-rate gate comes first: an over-rate tenant is shed
    // before any per-request resolution work is done on its behalf.
    if let Err(retry_after_ms) = shared.tenants.get(tenant).check_rate() {
        let t = shared.tenants.get(tenant);
        t.record_shed();
        shared.overloads.fetch_add(1, Ordering::SeqCst);
        obs::counter_add(Counter::ServeOverloads, 1);
        return (
            protocol::overloaded_rate_limited(&id, t.name(), retry_after_ms),
            trace,
        );
    }
    let (mut work, delay_ms) = match request {
        Request::Sanitize { spec, delay_ms } => (Work::Sanitize(spec), delay_ms),
        Request::Verify(spec) => (Work::Verify(spec), 0),
        Request::Stats { db, mode } => (Work::Stats { db, mode }, 0),
        Request::Delta(spec) => (Work::Delta(spec), 0),
        _ => unreachable!("control requests are answered inline"),
    };
    // Resolve a `dataset` reference to its snapshot now, on the
    // connection thread: the job carries the `Arc` through the queue, so
    // an unload racing ahead of the worker cannot pull the data out from
    // under it. A `delta` is the exception — it mutates the registry
    // entry by name, so resolution happens inside the serialized session
    // (only the trace's dataset tag is stamped here).
    {
        let db = match &mut work {
            Work::Sanitize(spec) => Some(&mut spec.db),
            Work::Verify(spec) => Some(&mut spec.db),
            Work::Stats { db, .. } => Some(db),
            Work::Delta(spec) => {
                trace.dataset = Some(spec.dataset.clone());
                // A delta mutates the dataset in place, so ownership is
                // enforced like `unload`: only the owning tenant (or
                // anyone, for ownerless re-attached datasets) may apply
                // one. An unknown dataset falls through — the delta
                // session produces the canonical error for that.
                if shared.tenants.is_multi() {
                    if let Some(snapshot) = shared.registry.get(&spec.dataset) {
                        let requester = shared.tenants.get(tenant).name();
                        if let Some(owner) = snapshot.owner() {
                            if owner != requester {
                                return (
                                    protocol::error(
                                        &id,
                                        &format!(
                                            "dataset '{}' is owned by tenant '{owner}'; \
                                             tenant '{requester}' may not apply deltas to it",
                                            spec.dataset
                                        ),
                                    ),
                                    trace,
                                );
                            }
                        }
                    }
                }
                None
            }
        };
        if let Some(db) = db {
            if let DbSource::Named(name) = db {
                match shared.registry.get(name) {
                    Some(snapshot) => {
                        trace.dataset = Some(name.clone());
                        trace.dataset_version = Some(snapshot.version());
                        *db = DbSource::Dataset(snapshot);
                    }
                    None => {
                        return (
                            protocol::error(
                                &id,
                                &format!("unknown dataset '{name}' (load it first)"),
                            ),
                            trace,
                        )
                    }
                }
            }
        }
    }
    trace.stamp(TraceEvent::Admitted);
    let (reply, receive) = mpsc::channel();
    let job = Job {
        work,
        id: id.clone(),
        tenant,
        delay_ms,
        trace,
        reply,
    };
    match shared.queue.try_push_lane(tenant, job) {
        Ok((depth, lane_depth)) => {
            shared.admitted.fetch_add(1, Ordering::SeqCst);
            shared
                .queue_depth_hw
                .fetch_max(depth as u64, Ordering::SeqCst);
            obs::gauge_max(Gauge::QueueDepth, depth as u64);
            shared
                .tenants
                .get(tenant)
                .note_queue_depth(lane_depth as u64);
            receive.recv().unwrap_or_else(|_| {
                (
                    protocol::error(&id, "internal: worker dropped the job"),
                    Trace::start(0),
                )
            })
        }
        Err(PushError::LaneFull(job)) => {
            // The tenant's own queue quota, not the shared bound: shed
            // with the distinct status so clients (and dashboards) can
            // tell "you are over budget" from "the server is busy".
            let t = shared.tenants.get(tenant);
            t.record_quota_shed();
            let mut trace = job.trace;
            trace.retract(TraceEvent::Admitted);
            let max_queued = t.config().max_queued.unwrap_or(0);
            (
                protocol::quota_exceeded(
                    &id,
                    &format!(
                        "tenant '{}' job queue is full ({max_queued} waiting); retry later",
                        t.name()
                    ),
                ),
                trace,
            )
        }
        Err(PushError::Full(job)) => {
            shared.overloads.fetch_add(1, Ordering::SeqCst);
            obs::counter_add(Counter::ServeOverloads, 1);
            shared.tenants.get(tenant).record_shed();
            let mut trace = job.trace;
            trace.retract(TraceEvent::Admitted);
            (protocol::overloaded(&id, shared.queue.capacity()), trace)
        }
        Err(PushError::Closed(job)) => {
            let mut trace = job.trace;
            trace.retract(TraceEvent::Admitted);
            (protocol::shutting_down(&id), trace)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::io::{BufRead, Write};

    fn start(workers: usize, queue_depth: usize) -> (SocketAddr, thread::JoinHandle<ServeSummary>) {
        let server = Server::bind(&ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_depth,
            metrics_addr: None,
            data_dir: None,
            tenants: None,
        })
        .expect("bind");
        let addr = server.local_addr();
        let handle = thread::spawn(move || server.run().expect("run"));
        (addr, handle)
    }

    fn roundtrip(stream: &mut TcpStream, request: &str) -> Json {
        writeln!(stream, "{request}").unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        json::parse(line.trim_end()).expect("response is JSON")
    }

    #[test]
    fn serves_sanitize_health_and_drains_on_shutdown() {
        let (addr, handle) = start(2, 4);
        let mut client = TcpStream::connect(addr).unwrap();

        let resp = roundtrip(
            &mut client,
            r#"{"id":1,"type":"sanitize","db":"a b c\nb a c\na c\n","patterns":["a c"],"psi":0}"#,
        );
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(resp.get("hidden").unwrap().as_bool(), Some(true));
        assert!(resp.get("release").unwrap().as_str().unwrap().contains('Δ'));

        let resp = roundtrip(&mut client, r#"{"id":2,"type":"health"}"#);
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(resp.get("workers").unwrap().as_u64(), Some(2));
        assert_eq!(resp.get("queue_capacity").unwrap().as_u64(), Some(4));
        assert_eq!(resp.get("draining").unwrap().as_bool(), Some(false));

        let resp = roundtrip(&mut client, r#"{"id":3,"type":"shutdown"}"#);
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(resp.get("draining").unwrap().as_bool(), Some(true));

        let summary = handle.join().unwrap();
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.executed, 1);
        assert_eq!(summary.overloads, 0);
    }

    #[test]
    fn malformed_and_failing_requests_get_error_responses() {
        let (addr, handle) = start(1, 2);
        let mut client = TcpStream::connect(addr).unwrap();

        let resp = roundtrip(&mut client, "not json");
        assert_eq!(resp.get("status").unwrap().as_str(), Some("error"));

        let resp = roundtrip(
            &mut client,
            r#"{"id":"v","type":"verify","db":"a b\n","patterns":[],"psi":0}"#,
        );
        assert_eq!(resp.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(resp.get("id").unwrap().as_str(), Some("v"));

        roundtrip(&mut client, r#"{"type":"shutdown"}"#);
        handle.join().unwrap();
    }

    /// Blocks until `n` jobs have ever been admitted to the queue —
    /// the synchronization point tests need before issuing `shutdown`,
    /// since admitted work is exactly what the drain guarantees.
    fn wait_for_admitted(shared: &Shared, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while shared.admitted.load(Ordering::SeqCst) < n {
            assert!(Instant::now() < deadline, "job {n} was never admitted");
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn requests_after_shutdown_are_refused_but_admitted_work_finishes() {
        let server = Server::bind(&ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 4,
            metrics_addr: None,
            data_dir: None,
            tenants: None,
        })
        .expect("bind");
        let shared = Arc::clone(&server.shared);
        let addr = server.local_addr();
        let handle = thread::spawn(move || server.run().expect("run"));
        let mut a = TcpStream::connect(addr).unwrap();
        let mut b = TcpStream::connect(addr).unwrap();

        // occupy the single worker so the next job waits in the queue
        writeln!(
            a,
            r#"{{"id":"slow","type":"sanitize","db":"a b\n","patterns":["a b"],"psi":0,"delay_ms":300}}"#
        )
        .unwrap();
        a.flush().unwrap();
        wait_for_admitted(&shared, 1);

        // a second job is admitted behind it, then shutdown begins
        let queued = thread::spawn({
            let addr2 = addr;
            move || {
                let mut c = TcpStream::connect(addr2).unwrap();
                roundtrip(
                    &mut c,
                    r#"{"id":"queued","type":"stats","db":"a b\nc\n","mode":"plain"}"#,
                )
            }
        });
        wait_for_admitted(&shared, 2);
        let resp = roundtrip(&mut b, r#"{"type":"shutdown"}"#);
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));

        // Post-drain submissions are refused. The refusal takes one of
        // two forms, racing the drain's unblock pass: a `shutting_down`
        // response if the conn thread reads the line first, or a closed
        // connection if `close_conns` got there first. Either way the
        // job must not execute — `summary.executed` below pins that.
        let refused = (|| -> io::Result<String> {
            writeln!(
                b,
                r#"{{"id":"late","type":"stats","db":"a\n","mode":"plain"}}"#
            )?;
            b.flush()?;
            let mut reader = BufReader::new(b.try_clone()?);
            let mut line = String::new();
            reader.read_line(&mut line)?;
            Ok(line)
        })()
        .unwrap_or_default();
        if !refused.trim().is_empty() {
            let resp = json::parse(refused.trim_end()).unwrap();
            assert_eq!(resp.get("status").unwrap().as_str(), Some("shutting_down"));
        }

        // ...but both admitted jobs complete with ok responses
        let resp = queued.join().unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(resp.get("sequences").unwrap().as_u64(), Some(2));
        let mut reader = BufReader::new(a.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = json::parse(line.trim_end()).unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(resp.get("id").unwrap().as_str(), Some("slow"));

        let summary = handle.join().unwrap();
        assert_eq!(summary.executed, 2);
    }

    #[test]
    fn submissions_after_queue_close_get_shutting_down() {
        let server = Server::bind(&ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 2,
            metrics_addr: None,
            data_dir: None,
            tenants: None,
        })
        .expect("bind");
        server.shared.queue.close();
        let (_, _, req) = protocol::decode(r#"{"type":"stats","db":"a\n","mode":"plain"}"#);
        let (response, _trace) = submit(&server.shared, req.unwrap(), 0, None, Trace::start(1));
        let resp = json::parse(&response).unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("shutting_down"));
    }

    #[test]
    fn disconnected_clients_release_their_registry_entries() {
        let server = Server::bind(&ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 2,
            metrics_addr: None,
            data_dir: None,
            tenants: None,
        })
        .expect("bind");
        let shared = Arc::clone(&server.shared);
        let addr = server.local_addr();
        let handle = thread::spawn(move || server.run().expect("run"));

        {
            let mut client = TcpStream::connect(addr).unwrap();
            roundtrip(&mut client, r#"{"type":"health"}"#);
            assert_eq!(shared.conns.lock().unwrap().entries.len(), 1);
        } // client hangs up here
        let deadline = Instant::now() + Duration::from_secs(5);
        while !shared.conns.lock().unwrap().entries.is_empty() {
            assert!(Instant::now() < deadline, "registry entry never released");
            thread::sleep(Duration::from_millis(10));
        }

        let mut client = TcpStream::connect(addr).unwrap();
        roundtrip(&mut client, r#"{"type":"shutdown"}"#);
        handle.join().unwrap();
    }

    #[test]
    fn registrations_after_drain_are_shut_down_immediately() {
        let server = Server::bind(&ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 2,
            metrics_addr: None,
            data_dir: None,
            tenants: None,
        })
        .expect("bind");
        server.shared.close_conns();

        // A connection that raced the drain and registers late: its read
        // half must already be shut, not left to block forever.
        let _client = TcpStream::connect(server.local_addr()).unwrap();
        let (mut sock, _) = server.listener.accept().unwrap();
        assert!(server
            .shared
            .register_conn(sock.try_clone().unwrap())
            .is_none());
        let mut buf = [0u8; 1];
        use std::io::Read;
        assert_eq!(
            sock.read(&mut buf).unwrap(),
            0,
            "read should see EOF although the client never sent or closed anything"
        );
    }

    #[test]
    fn oversized_request_lines_get_an_error_and_the_connection_closes() {
        let (addr, handle) = start(1, 2);
        let mut client = TcpStream::connect(addr).unwrap();

        let blob = vec![b'x'; MAX_LINE_BYTES + 1];
        client.write_all(&blob).unwrap();
        client.flush().unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = json::parse(line.trim_end()).unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("error"));
        assert!(resp
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("exceeds"));
        // the server closed the connection: next read is EOF
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0);

        let mut client = TcpStream::connect(addr).unwrap();
        roundtrip(&mut client, r#"{"type":"shutdown"}"#);
        handle.join().unwrap();
    }

    #[test]
    fn invalid_utf8_lines_get_an_error_without_closing_the_connection() {
        let (addr, handle) = start(1, 2);
        let mut client = TcpStream::connect(addr).unwrap();

        client.write_all(b"\xff\xfe\n").unwrap();
        client.flush().unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = json::parse(line.trim_end()).unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("error"));
        assert!(resp
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("UTF-8"));

        // the connection stays usable (framing was intact)
        let resp = roundtrip(&mut client, r#"{"type":"shutdown"}"#);
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
        handle.join().unwrap();
    }

    fn start_with_metrics() -> (SocketAddr, SocketAddr, thread::JoinHandle<ServeSummary>) {
        let server = Server::bind(&ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 2,
            metrics_addr: Some("127.0.0.1:0".to_string()),
            data_dir: None,
            tenants: None,
        })
        .expect("bind");
        let addr = server.local_addr();
        let metrics_addr = server.metrics_addr().unwrap();
        let handle = thread::spawn(move || server.run().expect("run"));
        (addr, metrics_addr, handle)
    }

    /// Sends raw bytes as one HTTP request and reads the full response.
    fn http_request(addr: SocketAddr, raw: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw).unwrap();
        stream.flush().unwrap();
        let _ = stream.shutdown(Shutdown::Write);
        let mut response = String::new();
        let mut reader = BufReader::new(stream);
        reader.read_to_string(&mut response).unwrap();
        response
    }

    fn shutdown_server(addr: SocketAddr, handle: thread::JoinHandle<ServeSummary>) {
        let mut client = TcpStream::connect(addr).unwrap();
        roundtrip(&mut client, r#"{"type":"shutdown"}"#);
        handle.join().unwrap();
    }

    #[test]
    fn stalled_http_client_does_not_delay_concurrent_scrapes() {
        let (addr, metrics_addr, handle) = start_with_metrics();
        // A client that connects and then goes silent pins only its own
        // short-lived connection thread (for up to the 5s read timeout),
        // never the scrape arriving behind it.
        let stalled = TcpStream::connect(metrics_addr).unwrap();
        thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        let response = http_request(metrics_addr, b"GET /healthz HTTP/1.1\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "health scrape waited on the stalled client"
        );
        drop(stalled);
        shutdown_server(addr, handle);
    }

    #[test]
    fn cap_filling_request_line_without_newline_gets_400() {
        let (addr, metrics_addr, handle) = start_with_metrics();
        let blob = vec![b'G'; http::MAX_HEAD_BYTES];
        let response = http_request(metrics_addr, &blob);
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("head too large"), "{response}");
        shutdown_server(addr, handle);
    }

    #[test]
    fn head_exactly_exhausting_the_budget_gets_400() {
        let (addr, metrics_addr, handle) = start_with_metrics();
        // A request line that consumes the whole head budget, newline
        // included: the next header read's `take(0)` must not be
        // mistaken for end-of-head (which would serve this as a normal
        // /healthz scrape).
        let mut line = String::from("GET /healthz HTTP/1.1");
        line.push_str(&" ".repeat(http::MAX_HEAD_BYTES - line.len() - 1));
        line.push('\n');
        assert_eq!(line.len(), http::MAX_HEAD_BYTES);
        let response = http_request(metrics_addr, line.as_bytes());
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("head too large"), "{response}");
        shutdown_server(addr, handle);
    }

    #[test]
    fn bind_rejects_degenerate_configurations() {
        for (workers, queue_depth) in [(0, 8), (4, 0)] {
            let err = Server::bind(&ServeOptions {
                addr: "127.0.0.1:0".to_string(),
                workers,
                queue_depth,
                metrics_addr: None,
                data_dir: None,
                tenants: None,
            })
            .map(|server| server.local_addr())
            .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
    }
}
