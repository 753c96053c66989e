//! Reproduce Finding 3 (§2.2): off-the-shelf frequent-item-set mining does
//! not scale on environment-enriched configuration data, while EnCore's
//! type-guided template search stays fast.
//!
//! ```text
//! cargo run --release --example mining_blowup
//! ```

use encore::prelude::*;
use encore_corpus::genimage::{Population, PopulationOptions};
use encore_mining::{discretize, FpGrowth, MiningLimits};
use encore_model::AppKind;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fleet = Population::training(AppKind::Mysql, &PopulationOptions::new(60, 11));
    let training = TrainingSet::assemble(AppKind::Mysql, fleet.images())?;
    let columns = training.stats_cache().columns();
    let tx = discretize(columns);
    println!(
        "assembled {} systems, {} attributes, {} binomial items",
        training.len(),
        columns.num_columns(),
        tx.num_items()
    );

    // Off-the-shelf: FP-Growth with a resource guard standing in for the
    // paper's 16 GB testbed.
    for min_support_pct in [20, 10, 5] {
        let min_support = (training.len() * min_support_pct / 100).max(2);
        let started = Instant::now();
        match FpGrowth::new(min_support).mine(&tx, &MiningLimits::capped(2_000_000)) {
            Ok(result) => println!(
                "FP-Growth @ {min_support_pct:>2}% support: {:>9} item sets in {:?}",
                result.len(),
                started.elapsed()
            ),
            Err(oom) => println!(
                "FP-Growth @ {min_support_pct:>2}% support: OOM after {} item sets ({:?})",
                oom.itemsets_produced,
                started.elapsed()
            ),
        }
    }

    // EnCore: type-guided template instantiation over the same data.
    let started = Instant::now();
    let engine = EnCore::learn(&training, &LearnOptions::default());
    println!(
        "EnCore templates:          {:>9} rules     in {:?}",
        engine.rules().len(),
        started.elapsed()
    );
    Ok(())
}
