//! Classical sequential patterns (§7.1): hiding an itemset-sequence
//! pattern from market-basket histories with the two-level hierarchical
//! heuristic.
//!
//! Each customer history is a sequence of *baskets* (itemsets); a pattern
//! element matches a basket by set inclusion, and sanitization marks
//! individual items — first picking the basket position with the paper's
//! δ heuristic, then the items inside it that break the most matchings.
//!
//! ```sh
//! cargo run --example itemset_baskets
//! ```

use seqhide::core::Sanitizer;
use seqhide::matching::itemset::{support_itemset, ItemsetPattern};
use seqhide::matching::ItemsetMatchEngine;
use seqhide::num::Sat64;
use seqhide::types::{Alphabet, ItemsetSequence};

fn main() {
    let mut sigma = Alphabet::new();
    let mut item = |name: &str| sigma.intern(name).id();
    let (test_kit, vitamins, baby_food, diapers) = (
        item("pregnancy-test"),
        item("prenatal-vitamins"),
        item("baby-food"),
        item("diapers"),
    );
    let (bread, milk, beer) = (item("bread"), item("milk"), item("beer"));

    // Customer purchase histories, one basket per shopping trip.
    let mut db: Vec<ItemsetSequence> = vec![
        ItemsetSequence::from_ids([vec![test_kit, bread], vec![vitamins, milk], vec![baby_food]]),
        ItemsetSequence::from_ids([vec![bread, milk], vec![test_kit], vec![vitamins, diapers]]),
        ItemsetSequence::from_ids([vec![test_kit], vec![milk], vec![vitamins]]),
        ItemsetSequence::from_ids([vec![beer, bread], vec![milk, bread]]),
        ItemsetSequence::from_ids([vec![vitamins], vec![test_kit]]), // wrong order: not a supporter
        ItemsetSequence::from_ids([vec![bread], vec![beer, milk], vec![bread]]),
    ];

    let original = db.clone();

    // Sensitive: a purchase of a pregnancy test followed by prenatal
    // vitamins — inference of a medical condition (the paper's §1 privacy
    // threat, in basket form).
    let pattern =
        ItemsetPattern::unconstrained(ItemsetSequence::from_ids([vec![test_kit], vec![vitamins]]))
            .unwrap();
    println!(
        "sensitive ⟨{{pregnancy-test}} {{prenatal-vitamins}}⟩ — support {} of {}",
        support_itemset(&db, &pattern),
        db.len()
    );

    let patterns = std::slice::from_ref(&pattern);
    let report = Sanitizer::hh(0)
        .with_seed(7)
        .run_domain(&mut db, &mut ItemsetMatchEngine::<Sat64>::new(patterns));
    println!(
        "sanitized: {} item marks in {} histories; hidden = {}",
        report.marks_introduced, report.sequences_sanitized, report.hidden
    );
    assert!(report.hidden);
    assert_eq!(support_itemset(&db, &pattern), 0);

    println!("\nreleased histories (Δ = removed item):");
    for t in &db {
        println!("  {}", t.render(&sigma));
    }
    // Collateral check: everyday items survive untouched.
    let groceries =
        ItemsetPattern::unconstrained(ItemsetSequence::from_ids([vec![bread], vec![milk]]))
            .unwrap();
    println!(
        "\nnon-sensitive ⟨{{bread}} {{milk}}⟩ support preserved: {}",
        support_itemset(&db, &groceries)
    );

    // The itemset analogue of M2: how much of F(D, σ) survived?
    use seqhide::mine::{ItemsetMiner, MinerConfig};
    let before = ItemsetMiner::mine(&original, &MinerConfig::new(2).with_max_len(3));
    let after = ItemsetMiner::mine(&db, &MinerConfig::new(2).with_max_len(3));
    println!(
        "frequent itemset-sequence patterns (σ = 2, ≤ 3 items): {} → {} \
         (M2 = {:.3})",
        before.len(),
        after.len(),
        (before.len() - after.len()) as f64 / before.len() as f64
    );
}
