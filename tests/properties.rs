//! Property-based tests over the core invariants (proptest).

use encore_mining::{entropy, Apriori, FpGrowth, MiningLimits, Transactions};
use encore_model::{AttrName, ColumnStore, ConfigValue, Row, SemType};
use encore_parser::{IniLens, KeyValue, Lens, SshdLens};
use proptest::prelude::*;

/// Strategy: plausible configuration keys.
fn key_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{2,14}".prop_map(|s| s)
}

/// Strategy: values without newlines/comment markers.
fn value_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_/.]{1,20}"
}

/// Strategy: INI values that may also hold spaces, `#`, `;` and one kind
/// of quote, so that some parse back only when `render` quotes them.
fn ini_value_strategy() -> impl Strategy<Value = String> {
    (
        "[a-zA-Z0-9_/. #;*]{1,20}",
        prop::sample::select(vec!["\"", "'"]),
    )
        .prop_map(|(value, quote)| value.replace('*', quote))
}

proptest! {
    /// INI lens round-trip: parse(render(pairs)) == pairs.
    #[test]
    fn ini_round_trip(pairs in proptest::collection::vec(
        (key_strategy(), ini_value_strategy()), 0..20
    )) {
        let lens = IniLens::mysql();
        let kvs: Vec<KeyValue> = pairs
            .into_iter()
            .map(|(k, v)| KeyValue::new(k, v))
            .collect();
        let rendered = lens.render(&kvs);
        let back = lens.parse(&rendered).expect("rendered config parses");
        prop_assert_eq!(back, kvs);
    }

    /// sshd lens round-trip.
    #[test]
    fn sshd_round_trip(pairs in proptest::collection::vec(
        (key_strategy(), value_strategy()), 0..20
    )) {
        let lens = SshdLens::new();
        let kvs: Vec<KeyValue> = pairs
            .into_iter()
            .map(|(k, v)| KeyValue::new(k, v))
            .collect();
        let rendered = lens.render(&kvs);
        let back = lens.parse(&rendered).expect("rendered config parses");
        prop_assert_eq!(back, kvs);
    }

    /// Apriori and FP-Growth agree on every input.
    #[test]
    fn apriori_equals_fpgrowth(
        rows in proptest::collection::vec(
            proptest::collection::vec(0u8..10, 0..6),
            0..12
        ),
        min_support in 1usize..4
    ) {
        let mut tx = Transactions::new();
        for row in &rows {
            let items: Vec<String> = row.iter().map(|i| format!("i{i}")).collect();
            tx.push(items.iter().map(String::as_str));
        }
        let mut a = Apriori::new(min_support)
            .mine(&tx, &MiningLimits::unbounded())
            .expect("apriori");
        let mut f = FpGrowth::new(min_support)
            .mine(&tx, &MiningLimits::unbounded())
            .expect("fpgrowth");
        a.canonicalize();
        f.canonicalize();
        prop_assert_eq!(a, f);
    }

    /// Shannon entropy is bounded: 0 <= H <= ln(n).
    #[test]
    fn entropy_bounds(counts in proptest::collection::vec(1usize..100, 1..20)) {
        let n = counts.len() as f64;
        let h = entropy(counts);
        prop_assert!(h >= -1e-12, "H = {h}");
        prop_assert!(h <= n.ln() + 1e-9, "H = {h} > ln({n})");
    }

    /// Entropy is maximal for uniform distributions.
    #[test]
    fn entropy_uniform_is_max(n in 2usize..20, c in 1usize..50) {
        let uniform = entropy(std::iter::repeat_n(c, n));
        prop_assert!((uniform - (n as f64).ln()).abs() < 1e-9);
    }

    /// Size parsing respects unit multipliers.
    #[test]
    fn size_parse_multiplier(mag in 1u64..1000, unit in prop::sample::select(vec!["K", "M", "G"])) {
        let v = ConfigValue::parse_size(&format!("{mag}{unit}")).expect("parses");
        let mult = match unit {
            "K" => 1u64 << 10,
            "M" => 1 << 20,
            _ => 1 << 30,
        };
        prop_assert_eq!(v.as_bytes(), Some(mag * mult));
    }

    /// AttrName's tagged form round-trips every kind of attribute,
    /// dotted original entries (php's `session.use_cookies`) included,
    /// which the display form cannot tell from augmented properties.
    #[test]
    fn attr_name_round_trip(
        head in "[a-z][a-z_]{0,8}",
        tail in proptest::option::of("[a-z_.]{1,8}"),
        suffix in "[a-z]{2,8}",
        kind in 0u8..3,
    ) {
        let base = match tail {
            Some(tail) => format!("{head}.{tail}"),
            None => head,
        };
        let attr = match kind {
            0 => AttrName::entry(&base),
            1 => AttrName::entry(&base).augmented(suffix),
            _ => AttrName::system(&base),
        };
        let parsed = AttrName::parse_tagged(&attr.render_tagged()).expect("parses");
        prop_assert_eq!(parsed, attr);
    }

    /// A column's support never exceeds the row count, equals the number
    /// of `Some` cells, and its histogram sums to the support.
    #[test]
    fn column_support_invariants(values in proptest::collection::vec(
        proptest::option::of("[a-z]{1,4}"), 1..30
    )) {
        let attr = AttrName::entry("x");
        let rows: Vec<Row> = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let mut row = Row::new(format!("s{i}"));
                if let Some(s) = v {
                    row.set(attr.clone(), ConfigValue::str(s.clone()));
                }
                row
            })
            .collect();
        let store = ColumnStore::from_rows(&rows.iter().collect::<Vec<_>>());
        prop_assert_eq!(store.num_rows(), values.len());
        let present = values.iter().filter(|v| v.is_some()).count();
        let support = store.column_of(&attr).map_or(0, |c| c.support());
        prop_assert!(support <= store.num_rows());
        prop_assert_eq!(support, present);
        let hist_total: usize = store
            .interner()
            .attr_id(&attr)
            .map_or(0, |id| store.value_histogram(id.index()).values().sum());
        prop_assert_eq!(hist_total, support);
    }

    /// Type inference always lands on a priority type, and trivial
    /// fall-back never panics.
    #[test]
    fn type_inference_total(value in "[ -~]{0,30}") {
        let img = encore_sysimage::SystemImage::builder("p").build();
        let inference = encore_assemble::TypeInference::new();
        let ty = inference.infer(&value, &img);
        prop_assert!(SemType::PRIORITY.contains(&ty));
    }

    /// Injection always changes the config and keeps it parseable.
    #[test]
    fn injection_changes_and_parses(seed in 0u64..500) {
        let config = "[mysqld]\nuser = mysql\ndatadir = /var/lib/mysql\nmax_allowed_packet = 16M\nport = 3306\n";
        let lens = IniLens::mysql();
        let (broken, injections) = encore_injector::Injector::with_seed(seed)
            .inject(&lens, config, 2)
            .expect("injects");
        prop_assert_eq!(injections.len(), 2);
        prop_assert_ne!(broken.as_str(), config);
        lens.parse(&broken).expect("still parses");
    }

    /// Raising filter thresholds never admits more rules (monotonicity).
    #[test]
    fn filter_monotonicity(support in 1usize..20, confidence in 0.0f64..1.0) {
        use encore::filter::{judge, FilterThresholds, Verdict};
        use encore::stats::StatsCache;
        use encore::types::TypeMap;
        let rows: Vec<Row> = (0..20)
            .map(|i| {
                let mut r = Row::new(format!("s{i}"));
                r.set(AttrName::entry("a"), ConfigValue::str(format!("v{i}")));
                r.set(AttrName::entry("b"), ConfigValue::str(format!("w{}", i % 5)));
                r
            })
            .collect();
        let stats = StatsCache::from_rows(&rows.iter().collect::<Vec<_>>(), &TypeMap::new());
        let lax = FilterThresholds {
            min_support_fraction: 0.05,
            min_confidence: 0.5,
            entropy_threshold: 0.1,
            use_entropy: true,
        };
        let strict = FilterThresholds {
            min_support_fraction: 0.5,
            min_confidence: 0.95,
            entropy_threshold: 0.9,
            use_entropy: true,
        };
        let a = AttrName::entry("a");
        let b = AttrName::entry("b");
        let lax_verdict = judge(&lax, &stats, &a, &b, support, confidence, None);
        let strict_verdict = judge(&strict, &stats, &a, &b, support, confidence, None);
        // If strict accepts, lax must accept too.
        if strict_verdict == Verdict::Accept {
            prop_assert_eq!(lax_verdict, Verdict::Accept);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Population generation is deterministic in its seed and always yields
    /// parseable configurations.
    #[test]
    fn population_determinism(seed in 0u64..50) {
        use encore_corpus::genimage::{Population, PopulationOptions};
        use encore_model::AppKind;
        let a = Population::training(AppKind::Php, &PopulationOptions::new(3, seed));
        let b = Population::training(AppKind::Php, &PopulationOptions::new(3, seed));
        for (x, y) in a.images().iter().zip(b.images()) {
            prop_assert_eq!(x.read_file("/etc/php.ini"), y.read_file("/etc/php.ini"));
        }
        let registry = encore_parser::LensRegistry::with_defaults();
        for img in a.images() {
            registry
                .parse("php", img.read_file("/etc/php.ini").expect("config"))
                .expect("parses");
        }
    }
}
