//! Events with real-time tags (§7.2): hiding a clinically sensitive event
//! pattern where sensitivity depends on *elapsed time*, not index distance.
//!
//! Patient event streams carry timestamps (hours). The sensitive pattern —
//! an HIV test followed by an antiretroviral prescription **within 72
//! hours** — is expressed with a time-gap constraint; the same events
//! months apart are not considered disclosing.
//!
//! ```sh
//! cargo run --example timed_events
//! ```

use seqhide::core::timed::{supports_timed, TimeConstraints, TimeGap, TimedPattern};
use seqhide::core::{Sanitizer, TimedDomain};
use seqhide::num::Sat64;
use seqhide::types::{Alphabet, Sequence, TimedSequence};

fn main() {
    let mut sigma = Alphabet::new();
    let visit = sigma.intern("visit").id();
    let hiv_test = sigma.intern("hiv-test").id();
    let arv = sigma.intern("arv-prescription").id();
    let xray = sigma.intern("x-ray").id();

    // Patient event streams: (event, hour).
    let mut db: Vec<TimedSequence> = vec![
        // test → prescription after 24h: sensitive
        TimedSequence::from_pairs([(visit, 0), (hiv_test, 2), (arv, 26), (visit, 100)]),
        // test → prescription after 60h: sensitive
        TimedSequence::from_pairs([(hiv_test, 10), (xray, 40), (arv, 70)]),
        // test → prescription after ~6 months: NOT sensitive under the
        // 72-hour rule (routine care, no inference possible)
        TimedSequence::from_pairs([(hiv_test, 0), (visit, 2000), (arv, 4400)]),
        // no test at all
        TimedSequence::from_pairs([(visit, 0), (xray, 5), (visit, 50)]),
    ];

    let pattern = TimedPattern::new(
        Sequence::from_ids([hiv_test, arv]),
        TimeConstraints::uniform_gap(TimeGap {
            min: 0,
            max: Some(72),
        }),
    )
    .unwrap();

    let supporters = db.iter().filter(|t| supports_timed(t, &pattern)).count();
    println!(
        "sensitive ⟨hiv-test →≤72h arv⟩ — support {supporters} of {}",
        db.len()
    );
    assert_eq!(supporters, 2);

    let patterns = std::slice::from_ref(&pattern);
    let report = Sanitizer::hh(0)
        .with_seed(3)
        .run_domain(&mut db, &mut TimedDomain::<Sat64>::new(patterns));
    println!(
        "sanitized: {} event marks in {} streams; hidden = {}",
        report.marks_introduced, report.sequences_sanitized, report.hidden
    );
    assert!(report.hidden);

    println!("\nreleased streams (Δ@t = suppressed event, instant preserved):");
    for t in &db {
        println!("  {t:?}");
    }
    // The 6-month patient's record is untouched: the time constraint spared it.
    assert_eq!(db[2].mark_count(), 0);
    println!("\npatient 3 (6-month interval) untouched — time constraints localise damage");
}
