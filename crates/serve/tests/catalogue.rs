//! The metric catalogue: every family the service exposes on `/metrics`,
//! with its name, kind, HELP line, histogram `le` bounds and order, pinned
//! against a golden file at zero values.  A metric added, renamed, moved
//! between phases or rebucketed shows up here as a diff.
//!
//! A single test in its own binary: the sink stays off for the whole
//! process, so every sample renders as zero.  Regenerate the golden after
//! an intentional catalogue change with
//! `UPDATE_GOLDEN=1 cargo test -p encore-serve --test catalogue`.

const GOLDEN: &str = include_str!("golden/catalogue.txt");

#[test]
fn zero_valued_scrape_matches_the_golden_catalogue() {
    encore::obs::reset();
    encore_serve::obs::reset();
    let rendered = encore_serve::obs::render_prometheus();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/catalogue.txt");
        std::fs::write(path, &rendered).expect("write golden");
        return;
    }
    assert_eq!(
        rendered, GOLDEN,
        "metric catalogue drifted; run with UPDATE_GOLDEN=1 if intentional"
    );
}
