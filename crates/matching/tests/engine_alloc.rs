//! Allocation audit for the incremental engine: on the unconstrained and
//! gap-constrained paths, a warmed [`MatchEngine`] must perform **zero**
//! heap allocations per mark — `apply_mark`, `delta`, `argmax`, `total`
//! and `candidates` all work in the buffers owned by the engine. Probes
//! of a sequence that lacks a pattern symbol allocate nothing either.
//!
//! The audit swaps in a counting global allocator; this is an integration
//! test binary, so the library's `#![forbid(unsafe_code)]` does not apply.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use seqhide_match::{
    ConstraintSet, Gap, MatchEngine, PatternDomain, SensitivePattern, SensitiveSet,
};
use seqhide_num::{Count, Sat64};
use seqhide_types::Sequence;

struct CountingAlloc;

// Per-thread audit state: the libtest harness allocates from its own
// threads while a test runs (and tests run concurrently), so
// process-global state over-counts. `const` init keeps first access
// allocation-free; `try_with` tolerates allocator calls during TLS
// teardown.
thread_local! {
    static AUDITING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_if_auditing() {
    let _ = AUDITING.try_with(|auditing| {
        if auditing.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_auditing();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_auditing();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_auditing();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting on for the current thread and
/// returns how many heap allocations it performed.
fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    AUDITING.with(|c| c.set(true));
    f();
    AUDITING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

fn repeated(block: &[u32], times: usize) -> Sequence {
    let mut ids = Vec::new();
    for _ in 0..times {
        ids.extend_from_slice(block);
    }
    Sequence::from_ids(ids)
}

/// The instrumentation primitives themselves — span open/close, counter
/// bumps, histogram records — must stay off the heap, or every engine
/// operation they wrap would fail the audit above.
#[test]
fn obs_primitives_are_allocation_free() {
    use seqhide_obs as obs;
    let n = allocations_during(|| {
        // the span closes (and records) at the end of this block
        let s = obs::span(obs::Phase::EngineRepair);
        obs::counter_add(obs::Counter::EngineCellRepairs, 1);
        obs::hist_record(obs::Hist::VictimMarks, 3);
        let _ = s.elapsed_ns();
    });
    assert_eq!(n, 0, "obs ops allocated {n} times");
}

#[test]
fn marking_loop_is_allocation_free_after_warmup() {
    let scenarios: Vec<(&str, SensitiveSet)> = vec![
        (
            "unconstrained",
            SensitiveSet::from_patterns(vec![
                SensitivePattern::unconstrained(Sequence::from_ids([0, 1, 2])).unwrap(),
                SensitivePattern::unconstrained(Sequence::from_ids([1, 3])).unwrap(),
            ]),
        ),
        (
            "gap-constrained",
            SensitiveSet::from_patterns(vec![SensitivePattern::new(
                Sequence::from_ids([0, 1, 2]),
                ConstraintSet::uniform_gap(Gap {
                    min: 0,
                    max: Some(4),
                }),
            )
            .unwrap()]),
        ),
    ];
    for (name, sh) in scenarios {
        let t = repeated(&[0, 1, 2, 3, 1, 0, 2], 12);
        let mut engine = MatchEngine::<Sat64>::new(&sh);
        engine.load(&t);
        // Warm-up: the candidates buffer grows to its high-water mark on
        // first use; afterwards the live-candidate set only shrinks.
        assert!(
            !engine.candidates().is_empty(),
            "{name}: fixture must match"
        );
        let before = seqhide_obs::snapshot();
        let count = allocations_during(|| {
            while let Some(pos) = engine.argmax() {
                engine.apply_mark(pos);
                let _ = engine.delta();
                let _ = engine.total();
                let _ = engine.candidates();
            }
        });
        // surface the audit through the obs layer: the tracked-allocation
        // counter mirrors what the counting allocator measured
        seqhide_obs::counter_add(seqhide_obs::Counter::TrackedAllocs, count);
        if seqhide_obs::is_enabled() {
            let run = seqhide_obs::snapshot().diff(&before);
            assert_eq!(
                run.counter(seqhide_obs::Counter::TrackedAllocs),
                count,
                "{name}: obs counter must mirror the audit"
            );
        }
        assert!(
            engine.total().is_zero(),
            "{name}: loop must drain all matches"
        );
        assert_eq!(count, 0, "{name}: marking loop allocated {count} times");
    }
}

/// The supporter scan's common case is a sequence that lacks a pattern
/// symbol. On it, a warmed engine's supporter test, matching size and
/// per-pattern check must reject before any counting DP and allocate
/// nothing, whatever the constraint class.
#[test]
fn rejected_probes_are_allocation_free() {
    let pattern = Sequence::from_ids([0, 1, 2]);
    let scenarios: Vec<(&str, ConstraintSet)> = vec![
        ("unconstrained", ConstraintSet::none()),
        (
            "gap-constrained",
            ConstraintSet::uniform_gap(Gap::bounded(1, 4)),
        ),
        ("max-window", ConstraintSet::with_max_window(5)),
    ];
    // holds 0 and 1 but never 2; a mark and a symbol beyond every
    // pattern's ride along
    let mut lacking = repeated(&[0, 1, 3, 1, 0, 9], 12);
    lacking.mark(4);
    for (name, cs) in scenarios {
        let sh = SensitiveSet::from_patterns(vec![
            SensitivePattern::new(pattern.clone(), cs.clone()).unwrap(),
            SensitivePattern::new(Sequence::from_ids([2, 0]), cs).unwrap(),
        ]);
        let mut engine = MatchEngine::<Sat64>::new(&sh);
        // warm-up: one probe each on a sequence that does support
        let supporter = repeated(&[0, 1, 2], 4);
        assert!(
            engine.is_supporter(&supporter),
            "{name}: fixture must match"
        );
        let _ = engine.matching_size(&supporter);
        let mut answers = (true, Sat64::from_u64(1), true);
        let count = allocations_during(|| {
            answers = (
                engine.is_supporter(&lacking),
                engine.matching_size(&lacking),
                (0..2).any(|k| engine.supports_pattern(&lacking, k)),
            );
        });
        assert_eq!(
            answers,
            (false, Sat64::zero(), false),
            "{name}: probes must reject"
        );
        assert_eq!(count, 0, "{name}: rejected probes allocated {count} times");
    }
}
