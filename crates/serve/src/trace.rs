//! Per-request trace journal: request ids, a fixed-schema event
//! timeline, the `timings` breakdown returned in sanitize responses,
//! and the bounded ring of slowest requests behind the `debug` wire op.
//!
//! Every request gets a [`Trace`] the moment its line is framed: a
//! server-unique id plus monotonic nanosecond timestamps (relative to
//! the line being received) stamped at each lifecycle event — admitted
//! to the queue, dequeued by a worker, parsed, execution start/end,
//! response written. The trace travels with the job through the queue
//! and comes back with the response, so the connection thread can stamp
//! the final event and feed the completed trace to the [`SlowRing`].
//!
//! Timing itself is unconditional (plain `Instant` arithmetic — it is
//! how the `timings` field in sanitize responses is produced, obs-on or
//! obs-off). Only the *retention* is feature-gated: without the `obs`
//! feature the ring is a no-op type, completed traces are dropped on
//! the spot, and `debug` reports an empty journal.

use std::time::Instant;

use crate::json::Json;

/// How many of the slowest requests the journal retains.
pub const SLOW_RING_K: usize = 16;

/// One lifecycle event in a request's fixed-schema timeline.
///
/// Not every event appears in every trace: inline control requests
/// never touch the queue (`admitted`/`dequeued`/`exec_*` absent), and a
/// line that fails to decode never reaches `parsed`. The *vocabulary*
/// is fixed; presence tells you how far the request got.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// The request line was framed off the socket.
    Received,
    /// The line decoded into a request.
    Parsed,
    /// The job was admitted to the bounded queue.
    Admitted,
    /// A worker dequeued the job.
    Dequeued,
    /// Execution (sanitize/verify/stats) began on the worker.
    ExecStart,
    /// Execution finished.
    ExecEnd,
    /// The response line was written back to the client.
    ResponseWritten,
}

impl TraceEvent {
    /// Stable snake_case name (the JSON `event` field).
    pub const fn name(self) -> &'static str {
        match self {
            TraceEvent::Received => "received",
            TraceEvent::Parsed => "parsed",
            TraceEvent::Admitted => "admitted",
            TraceEvent::Dequeued => "dequeued",
            TraceEvent::ExecStart => "exec_start",
            TraceEvent::ExecEnd => "exec_end",
            TraceEvent::ResponseWritten => "response_written",
        }
    }
}

/// One request's journal: id, kind, and the event timeline in
/// nanoseconds since the line was received.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Server-unique request id (monotonic across all connections).
    pub req_id: u64,
    /// Request type name once known (`"unparsed"` until decode).
    pub kind: &'static str,
    /// The resolved tenant's name — stamped only in multi-tenant mode,
    /// so single-default `debug` output stays byte-identical.
    pub tenant: Option<String>,
    /// Registered dataset name, when the request referenced one by
    /// `dataset` instead of shipping the text inline.
    pub dataset: Option<String>,
    /// The dataset's registry version as seen by this request: the
    /// snapshot version it resolved against, or for a `delta`, the
    /// version it produced.
    pub dataset_version: Option<u64>,
    started: Instant,
    events: Vec<(TraceEvent, u64)>,
}

impl Trace {
    /// Starts a trace, stamping [`TraceEvent::Received`] at 0.
    pub fn start(req_id: u64) -> Trace {
        Trace {
            req_id,
            kind: "unparsed",
            tenant: None,
            dataset: None,
            dataset_version: None,
            started: Instant::now(),
            events: vec![(TraceEvent::Received, 0)],
        }
    }

    /// Stamps `event` now; returns its timestamp (ns since received).
    pub fn stamp(&mut self, event: TraceEvent) -> u64 {
        let at = self.started.elapsed().as_nanos() as u64;
        self.events.push((event, at));
        at
    }

    /// Removes the most recent event if it is `event` — for rolling
    /// back an optimistically stamped step (a queue admission the push
    /// then refused).
    pub fn retract(&mut self, event: TraceEvent) {
        if self.events.last().map(|&(e, _)| e) == Some(event) {
            self.events.pop();
        }
    }

    /// Timestamp of `event`, if it was stamped.
    pub fn at(&self, event: TraceEvent) -> Option<u64> {
        self.events
            .iter()
            .find(|(e, _)| *e == event)
            .map(|&(_, at)| at)
    }

    /// Nanoseconds between two stamped events (0 if either is absent).
    pub fn span(&self, from: TraceEvent, to: TraceEvent) -> u64 {
        match (self.at(from), self.at(to)) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        }
    }

    /// Timestamp of the last stamped event — the request's total wall
    /// time once [`TraceEvent::ResponseWritten`] is in.
    pub fn total_ns(&self) -> u64 {
        self.events.last().map_or(0, |&(_, at)| at)
    }

    /// The stamped timeline, in stamping order.
    pub fn events(&self) -> &[(TraceEvent, u64)] {
        &self.events
    }

    /// Renders the trace as the `debug` response's journal entry shape:
    /// `{"req_id": .., "kind": .., "total_ns": .., "events": [...]}`.
    pub fn to_json(&self) -> Json {
        let events = self
            .events
            .iter()
            .map(|&(e, at)| {
                Json::Obj(vec![
                    ("event".to_string(), Json::Str(e.name().to_string())),
                    ("at_ns".to_string(), Json::num(at)),
                ])
            })
            .collect();
        let mut members = vec![
            ("req_id".to_string(), Json::num(self.req_id)),
            ("kind".to_string(), Json::Str(self.kind.to_string())),
        ];
        if let Some(tenant) = &self.tenant {
            members.push(("tenant".to_string(), Json::Str(tenant.clone())));
        }
        if let Some(dataset) = &self.dataset {
            members.push(("dataset".to_string(), Json::Str(dataset.clone())));
        }
        if let Some(version) = self.dataset_version {
            members.push(("dataset_version".to_string(), Json::num(version)));
        }
        members.push(("total_ns".to_string(), Json::num(self.total_ns())));
        members.push(("events".to_string(), Json::Arr(events)));
        Json::Obj(members)
    }
}

/// The `timings` breakdown carried by every successful `sanitize`
/// response (all fields in nanoseconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct Timings {
    /// Admitted → dequeued: time spent waiting in the bounded queue.
    pub queue_wait_ns: u64,
    /// Received → parsed: line decode.
    pub parse_ns: u64,
    /// Exec start → exec end: the sanitization itself.
    pub sanitize_ns: u64,
    /// Rendering the response payload (measured by the worker around
    /// response building; the spliced `timings` object itself is
    /// excluded — it cannot time its own rendering).
    pub serialize_ns: u64,
}

impl Timings {
    /// Derives the queue/parse/sanitize legs from a trace; `serialize`
    /// is measured separately by the worker.
    pub fn from_trace(trace: &Trace, serialize_ns: u64) -> Timings {
        Timings {
            queue_wait_ns: trace.span(TraceEvent::Admitted, TraceEvent::Dequeued),
            parse_ns: trace.span(TraceEvent::Received, TraceEvent::Parsed),
            sanitize_ns: trace.span(TraceEvent::ExecStart, TraceEvent::ExecEnd),
            serialize_ns,
        }
    }

    /// The four legs added up: the server time a client can account
    /// for. Client latency minus this is time spent in no leg (socket
    /// I/O, connection-thread work, any delay the request asked for).
    pub(crate) fn sum_ns(&self) -> u64 {
        self.queue_wait_ns
            .saturating_add(self.parse_ns)
            .saturating_add(self.sanitize_ns)
            .saturating_add(self.serialize_ns)
    }

    /// The wire shape: `{"req_id": .., "queue_wait_ns": .., ...}`.
    pub fn to_json(&self, req_id: u64) -> Json {
        Json::Obj(vec![
            ("req_id".to_string(), Json::num(req_id)),
            ("queue_wait_ns".to_string(), Json::num(self.queue_wait_ns)),
            ("parse_ns".to_string(), Json::num(self.parse_ns)),
            ("sanitize_ns".to_string(), Json::num(self.sanitize_ns)),
            ("serialize_ns".to_string(), Json::num(self.serialize_ns)),
        ])
    }
}

#[cfg(feature = "obs")]
mod ring {
    use std::sync::Mutex;

    use super::Trace;

    /// Bounded journal of the K slowest completed requests.
    ///
    /// `record` keeps a trace only if it is slower than the fastest
    /// retained one (or the ring is not full yet), so memory is fixed
    /// at `k` traces no matter how many requests pass through.
    pub struct SlowRing {
        k: usize,
        inner: Mutex<Inner>,
    }

    struct Inner {
        recorded: u64,
        entries: Vec<Trace>,
    }

    impl SlowRing {
        /// A ring retaining the `k` slowest traces.
        pub fn new(k: usize) -> SlowRing {
            SlowRing {
                k,
                inner: Mutex::new(Inner {
                    recorded: 0,
                    entries: Vec::with_capacity(k),
                }),
            }
        }

        /// Offers a completed trace to the ring.
        pub fn record(&self, trace: Trace) {
            let mut inner = self.inner.lock().expect("slow ring poisoned");
            inner.recorded += 1;
            if inner.entries.len() < self.k {
                inner.entries.push(trace);
                return;
            }
            let (fastest, _) = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.total_ns())
                .expect("ring is non-empty when full");
            if trace.total_ns() > inner.entries[fastest].total_ns() {
                inner.entries[fastest] = trace;
            }
        }

        /// Total traces ever offered, plus the retained ones sorted
        /// slowest-first.
        pub fn dump(&self) -> (u64, Vec<Trace>) {
            let inner = self.inner.lock().expect("slow ring poisoned");
            let mut entries = inner.entries.clone();
            entries.sort_by_key(|t| std::cmp::Reverse(t.total_ns()));
            (inner.recorded, entries)
        }
    }
}

#[cfg(not(feature = "obs"))]
mod ring {
    use super::Trace;

    /// No-op journal (the `obs` feature is compiled out): traces are
    /// dropped on arrival and `debug` reports an empty journal.
    pub struct SlowRing;

    impl SlowRing {
        /// A no-op ring.
        pub fn new(_k: usize) -> SlowRing {
            SlowRing
        }

        /// Drops the trace.
        pub fn record(&self, _trace: Trace) {}

        /// Always empty.
        pub fn dump(&self) -> (u64, Vec<Trace>) {
            (0, Vec::new())
        }
    }
}

pub use ring::SlowRing;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_stamp_monotonic_timelines() {
        let mut t = Trace::start(7);
        t.kind = "sanitize";
        t.stamp(TraceEvent::Parsed);
        t.stamp(TraceEvent::Admitted);
        t.stamp(TraceEvent::Dequeued);
        t.stamp(TraceEvent::ExecStart);
        t.stamp(TraceEvent::ExecEnd);
        t.stamp(TraceEvent::ResponseWritten);
        let times: Vec<u64> = t.events().iter().map(|&(_, at)| at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        assert_eq!(t.at(TraceEvent::Received), Some(0));
        assert_eq!(t.total_ns(), *times.last().unwrap());
        assert_eq!(
            t.span(TraceEvent::Admitted, TraceEvent::Dequeued),
            t.at(TraceEvent::Dequeued).unwrap() - t.at(TraceEvent::Admitted).unwrap()
        );
        // absent events contribute zero spans, never panics
        assert_eq!(t.span(TraceEvent::ExecEnd, TraceEvent::Received), 0);
        let json = t.to_json().render();
        assert!(json.contains("\"req_id\":7"));
        assert!(json.contains("\"kind\":\"sanitize\""));
        assert!(json.contains("\"event\":\"response_written\""));
        // tenant appears only when stamped (multi-tenant mode)
        assert!(!json.contains("\"tenant\""));
        t.tenant = Some("alpha".to_string());
        assert!(t.to_json().render().contains("\"tenant\":\"alpha\""));
    }

    #[test]
    fn timings_derive_from_the_trace() {
        let mut t = Trace::start(1);
        t.stamp(TraceEvent::Parsed);
        let timings = Timings::from_trace(&t, 123);
        assert_eq!(timings.serialize_ns, 123);
        assert_eq!(timings.queue_wait_ns, 0, "never queued → zero wait");
        let json = timings.to_json(1).render();
        for key in [
            "\"req_id\"",
            "\"queue_wait_ns\"",
            "\"parse_ns\"",
            "\"sanitize_ns\"",
            "\"serialize_ns\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[cfg(feature = "obs")]
    #[test]
    fn slow_ring_keeps_the_slowest_k() {
        let ring = SlowRing::new(3);
        // fabricate traces with controlled total_ns via stamped order:
        // stamp ResponseWritten after sleeping is flaky, so build traces
        // whose ordering we control through recording order instead.
        for req_id in 0..10u64 {
            let mut t = Trace::start(req_id);
            // busy-stamp so later traces are strictly slower
            for _ in 0..=req_id * 50 {
                std::hint::black_box(req_id);
            }
            t.stamp(TraceEvent::ResponseWritten);
            ring.record(t);
        }
        let (recorded, entries) = ring.dump();
        assert_eq!(recorded, 10);
        assert_eq!(entries.len(), 3);
        // slowest-first ordering
        let totals: Vec<u64> = entries.iter().map(Trace::total_ns).collect();
        assert!(totals.windows(2).all(|w| w[0] >= w[1]), "{totals:?}");
        // the retained set is the 3 slowest of the 10 offered
        let min_kept = totals.last().copied().unwrap();
        assert!(entries.len() == 3 && min_kept <= totals[0]);
    }
}
