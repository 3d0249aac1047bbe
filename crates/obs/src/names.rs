//! The static metric namespace: phases (span timers), counters and
//! histograms. Adding a variant here is the *only* registration step —
//! slots, snapshot capture and JSON output all index off these enums.

/// Span-timer identity — one node of the static phase tree.
///
/// The tree (see `docs/OBSERVABILITY.md`):
///
/// ```text
/// mine
/// sanitize
/// ├── supporter_scan
/// ├── select_victims
/// ├── local_sanitize
/// │   ├── engine_load
/// │   ├── engine_repair
/// │   └── fallback_recount
/// └── verify
/// regex_sanitize
/// itemset_sanitize
/// timed_sanitize
/// string_sanitize
/// st_sanitize
/// post
/// stream_pass1
/// stream_pass2
/// delta_apply
/// serve
/// └── serve_request
/// ```
///
/// `engine_*` spans are also entered from the itemset sanitizer (the two
/// engines share one core), and `supporter_scan`, `select_victims` and
/// `verify` from every in-memory domain run; attribute them to whichever
/// sanitize phase is active in your run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Phase {
    /// Frequent-pattern mining (`seqhide mine`, distortion audits).
    Mine,
    /// One whole `Sanitizer::run` (victim selection through verification).
    Sanitize,
    /// The in-memory supporter scan: every sequence probed with
    /// `is_supporter`, supporters measured for the victim sort key
    /// (`SupporterIndex::scan`). A streamed run scans inside
    /// `stream_pass1` instead.
    SupporterScan,
    /// Global victim selection (`select_victims`).
    SelectVictims,
    /// Local sanitization of one victim sequence (per-victim span).
    LocalSanitize,
    /// `MatchEngine::load` — building the DP tables for one sequence.
    EngineLoad,
    /// One incremental repair pass (`apply_mark` / column refresh).
    EngineRepair,
    /// Buffered max-window recounts inside one repair pass.
    FallbackRecount,
    /// Residual-support count of a run: in memory and on a delta cold
    /// build, one probe of each supporter's released content per pattern
    /// (non-supporters are never touched and count 0); also the
    /// independent full recount of `verify_hidden` and post-delete
    /// re-verification. A streamed run tallies its residuals inside
    /// `stream_pass2` instead.
    Verify,
    /// Regex-pattern sanitization sweep.
    RegexSanitize,
    /// Itemset-sequence sanitization sweep (§7.1).
    ItemsetSanitize,
    /// Timed-sequence sanitization sweep (§7.2).
    TimedSanitize,
    /// Contiguous-substring sanitization sweep (string domain).
    StringSanitize,
    /// Spatio-temporal sanitization sweep (§7.3).
    StSanitize,
    /// Δ-deletion / Δ-replacement post-processing.
    Post,
    /// Streaming pass 1: supporter scan + victim selection over the index.
    StreamPass1,
    /// Streaming pass 2: batched sanitize + incremental write.
    StreamPass2,
    /// One `DeltaState::apply_delta` — incremental re-sanitization of a
    /// mutated database from the persistent supporter index.
    DeltaApply,
    /// One whole `seqhide serve` lifetime (bind through drained shutdown).
    Serve,
    /// One served request: decode, queue wait, execution, response write.
    ServeRequest,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 20;

    /// Every phase, in declaration order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Mine,
        Phase::Sanitize,
        Phase::SupporterScan,
        Phase::SelectVictims,
        Phase::LocalSanitize,
        Phase::EngineLoad,
        Phase::EngineRepair,
        Phase::FallbackRecount,
        Phase::Verify,
        Phase::RegexSanitize,
        Phase::ItemsetSanitize,
        Phase::TimedSanitize,
        Phase::StringSanitize,
        Phase::StSanitize,
        Phase::Post,
        Phase::StreamPass1,
        Phase::StreamPass2,
        Phase::DeltaApply,
        Phase::Serve,
        Phase::ServeRequest,
    ];

    /// Stable snake_case name (the JSON `name` field).
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Mine => "mine",
            Phase::Sanitize => "sanitize",
            Phase::SupporterScan => "supporter_scan",
            Phase::SelectVictims => "select_victims",
            Phase::LocalSanitize => "local_sanitize",
            Phase::EngineLoad => "engine_load",
            Phase::EngineRepair => "engine_repair",
            Phase::FallbackRecount => "fallback_recount",
            Phase::Verify => "verify",
            Phase::RegexSanitize => "regex_sanitize",
            Phase::ItemsetSanitize => "itemset_sanitize",
            Phase::TimedSanitize => "timed_sanitize",
            Phase::StringSanitize => "string_sanitize",
            Phase::StSanitize => "st_sanitize",
            Phase::Post => "post",
            Phase::StreamPass1 => "stream_pass1",
            Phase::StreamPass2 => "stream_pass2",
            Phase::DeltaApply => "delta_apply",
            Phase::Serve => "serve",
            Phase::ServeRequest => "serve_request",
        }
    }

    /// The phase's parent in the static tree (`None` for roots).
    pub const fn parent(self) -> Option<Phase> {
        match self {
            Phase::Mine
            | Phase::Sanitize
            | Phase::RegexSanitize
            | Phase::ItemsetSanitize
            | Phase::TimedSanitize
            | Phase::StringSanitize
            | Phase::StSanitize
            | Phase::Post
            | Phase::StreamPass1
            | Phase::StreamPass2
            | Phase::DeltaApply
            | Phase::Serve => None,
            Phase::ServeRequest => Some(Phase::Serve),
            Phase::SupporterScan | Phase::SelectVictims | Phase::LocalSanitize | Phase::Verify => {
                Some(Phase::Sanitize)
            }
            Phase::EngineLoad | Phase::EngineRepair | Phase::FallbackRecount => {
                Some(Phase::LocalSanitize)
            }
        }
    }
}

/// Atomic-counter identity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Counter {
    /// Marks (Δ) introduced — the paper's distortion measure M1. All
    /// sanitize paths (plain, regex, itemset, timed) feed this.
    MarksIntroduced,
    /// Incremental table repairs applied by the engine (one per non-window
    /// pattern per repaired column).
    EngineCellRepairs,
    /// Buffered max-window recounts the engine could not avoid (one per
    /// Lemma-5 `windowed_total` execution, whether during load, column
    /// repair or a δ probe).
    FallbackRecounts,
    /// Victim sequences fully sanitized.
    VictimsProcessed,
    /// Patterns whose support was counted (mining candidates + verify).
    PatternsChecked,
    /// Heap allocations observed on instrumented paths. The library cannot
    /// hook the allocator itself; harnesses that install a counting
    /// allocator (see `crates/matching/tests/engine_alloc.rs`) feed this.
    TrackedAllocs,
    /// Samples suppressed by the spatio-temporal sanitizer.
    StSuppressed,
    /// Samples displaced by the spatio-temporal sanitizer.
    StDisplaced,
    /// Requests handled by `seqhide serve` (every type, every status).
    ServeRequests,
    /// Requests shed by `seqhide serve` because the job queue was full.
    ServeOverloads,
    /// Datasets interned into the serve registry (`load` requests that
    /// committed, plus `--data-dir` re-attaches at startup).
    DatasetLoads,
    /// Datasets removed from the serve registry by `unload`.
    DatasetUnloads,
    /// Completed `apply_delta` calls (batch, CLI `--delta`, serve `delta`).
    DeltaApplies,
    /// Victim sequences re-marked by delta applies (victim status or
    /// selection ordinal flipped, or the sequence is newly added).
    DeltaRemarked,
    /// Total victim sequences selected across delta applies (re-marked
    /// plus carried over unchanged) — compare with `delta_remarked`.
    DeltaVictims,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 15;

    /// Every counter, in declaration order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::MarksIntroduced,
        Counter::EngineCellRepairs,
        Counter::FallbackRecounts,
        Counter::VictimsProcessed,
        Counter::PatternsChecked,
        Counter::TrackedAllocs,
        Counter::StSuppressed,
        Counter::StDisplaced,
        Counter::ServeRequests,
        Counter::ServeOverloads,
        Counter::DatasetLoads,
        Counter::DatasetUnloads,
        Counter::DeltaApplies,
        Counter::DeltaRemarked,
        Counter::DeltaVictims,
    ];

    /// Stable snake_case name (the JSON key).
    pub const fn name(self) -> &'static str {
        match self {
            Counter::MarksIntroduced => "marks_introduced",
            Counter::EngineCellRepairs => "engine_cell_repairs",
            Counter::FallbackRecounts => "fallback_recounts",
            Counter::VictimsProcessed => "victims_processed",
            Counter::PatternsChecked => "patterns_checked",
            Counter::TrackedAllocs => "tracked_allocs",
            Counter::StSuppressed => "st_suppressed",
            Counter::StDisplaced => "st_displaced",
            Counter::ServeRequests => "serve_requests",
            Counter::ServeOverloads => "serve_overloads",
            Counter::DatasetLoads => "dataset_loads",
            Counter::DatasetUnloads => "dataset_unloads",
            Counter::DeltaApplies => "delta_applies",
            Counter::DeltaRemarked => "delta_remarked",
            Counter::DeltaVictims => "delta_victims",
        }
    }

    /// One-line description (the Prometheus `# HELP` text).
    pub const fn help(self) -> &'static str {
        match self {
            Counter::MarksIntroduced => "Delta marks introduced (paper distortion measure M1)",
            Counter::EngineCellRepairs => "Incremental DP-table cell repairs applied by the engine",
            Counter::FallbackRecounts => "Buffered max-window recounts the engine could not avoid",
            Counter::VictimsProcessed => "Victim sequences fully sanitized",
            Counter::PatternsChecked => "Patterns whose support was counted",
            Counter::TrackedAllocs => "Heap allocations observed on instrumented paths",
            Counter::StSuppressed => "Samples suppressed by the spatio-temporal sanitizer",
            Counter::StDisplaced => "Samples displaced by the spatio-temporal sanitizer",
            Counter::ServeRequests => "Requests handled by seqhide serve (every type and status)",
            Counter::ServeOverloads => "Requests shed because the serve job queue was full",
            Counter::DatasetLoads => {
                "Datasets interned into the serve registry (loads + re-attaches)"
            }
            Counter::DatasetUnloads => "Datasets removed from the serve registry by unload",
            Counter::DeltaApplies => "Completed apply_delta calls (incremental re-sanitization)",
            Counter::DeltaRemarked => "Victim sequences re-marked by delta applies",
            Counter::DeltaVictims => "Total victim sequences selected across delta applies",
        }
    }
}

/// Fixed-bucket histogram identity. Buckets are log2: bucket 0 holds the
/// value 0, bucket `b > 0` holds `[2^(b-1), 2^b)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Hist {
    /// Marks introduced per victim sequence.
    VictimMarks,
    /// Wall nanoseconds spent sanitizing one victim sequence.
    VictimNanos,
    /// Wall nanoseconds per served request, decode through response write
    /// (includes queue wait for queued work).
    ServeRequestNanos,
    /// Wall nanoseconds one queued job waited before a worker picked it up.
    ServeQueueWaitNanos,
}

impl Hist {
    /// Number of histograms.
    pub const COUNT: usize = 4;

    /// Every histogram, in declaration order.
    pub const ALL: [Hist; Hist::COUNT] = [
        Hist::VictimMarks,
        Hist::VictimNanos,
        Hist::ServeRequestNanos,
        Hist::ServeQueueWaitNanos,
    ];

    /// Stable snake_case name (the JSON key).
    pub const fn name(self) -> &'static str {
        match self {
            Hist::VictimMarks => "victim_marks",
            Hist::VictimNanos => "victim_nanos",
            Hist::ServeRequestNanos => "serve_request_nanos",
            Hist::ServeQueueWaitNanos => "serve_queue_wait_nanos",
        }
    }

    /// One-line description (the Prometheus `# HELP` text).
    pub const fn help(self) -> &'static str {
        match self {
            Hist::VictimMarks => "Marks introduced per victim sequence",
            Hist::VictimNanos => "Wall nanoseconds spent sanitizing one victim sequence",
            Hist::ServeRequestNanos => {
                "Wall nanoseconds per served request, decode through response write"
            }
            Hist::ServeQueueWaitNanos => {
                "Wall nanoseconds one queued job waited before a worker picked it up"
            }
        }
    }
}

/// High-water-mark gauge identity. Gauges keep the *maximum* value ever
/// reported ([`crate::gauge_max`]) — suited to peaks like resident batch
/// bytes, where a running total would be meaningless.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Gauge {
    /// Peak bytes resident in one streaming batch (sequences held in
    /// memory during pass 2 of `hide --stream`).
    PeakResidentBatch,
    /// High-water mark of jobs waiting in the `seqhide serve` bounded
    /// queue (capacity is the backpressure limit; see docs/SERVER.md).
    QueueDepth,
    /// High-water mark of jobs being executed concurrently by the
    /// `seqhide serve` worker pool.
    Inflight,
    /// High-water mark of datasets resident in the serve registry.
    DatasetsResident,
    /// High-water mark of dataset bytes pinned in memory by the serve
    /// registry (materialized snapshots; disk-backed datasets count 0).
    DatasetBytesPinned,
}

impl Gauge {
    /// Number of gauges.
    pub const COUNT: usize = 5;

    /// Every gauge, in declaration order.
    pub const ALL: [Gauge; Gauge::COUNT] = [
        Gauge::PeakResidentBatch,
        Gauge::QueueDepth,
        Gauge::Inflight,
        Gauge::DatasetsResident,
        Gauge::DatasetBytesPinned,
    ];

    /// Stable snake_case name (the JSON key).
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::PeakResidentBatch => "peak_resident_batch",
            Gauge::QueueDepth => "queue_depth",
            Gauge::Inflight => "inflight",
            Gauge::DatasetsResident => "datasets_resident",
            Gauge::DatasetBytesPinned => "dataset_bytes_pinned",
        }
    }

    /// One-line description (the Prometheus `# HELP` text).
    pub const fn help(self) -> &'static str {
        match self {
            Gauge::PeakResidentBatch => "Peak bytes resident in one streaming batch",
            Gauge::QueueDepth => "High-water mark of jobs waiting in the serve bounded queue",
            Gauge::Inflight => "High-water mark of jobs executing concurrently in the worker pool",
            Gauge::DatasetsResident => "High-water mark of datasets resident in the serve registry",
            Gauge::DatasetBytesPinned => {
                "High-water mark of dataset bytes pinned in memory by the registry"
            }
        }
    }
}
