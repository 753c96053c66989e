//! One function per paper table.

use encore::baseline::{Baseline, BaselineEnv};
use encore::infer::{InferOptions, RuleInference};
use encore::prelude::*;
use encore_assemble::Assembler;
use encore_corpus::genimage::{MisconfigCategory, Population, PopulationOptions};
use encore_corpus::realworld;
use encore_corpus::schema::AppSchema;
use encore_corpus::study;
use encore_injector::Injector;
use encore_mining::{discretize, FpGrowth, MiningLimits, Transactions};
use encore_model::{AppKind, SemType};
use encore_parser::LensRegistry;
use encore_sysimage::SystemImage;
use std::fmt::Write as _;
use std::time::Instant;

/// Sizing knobs for the experiments.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Apache training images (paper: 127).
    pub apache_training: usize,
    /// MySQL training images (paper: 187).
    pub mysql_training: usize,
    /// PHP training images (paper: 123).
    pub php_training: usize,
    /// Fresh EC2 evaluation images (paper: 120).
    pub ec2_fresh: usize,
    /// Private-cloud evaluation images (paper: 300).
    pub private_cloud: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            apache_training: 127,
            mysql_training: 187,
            php_training: 123,
            ec2_fresh: 120,
            private_cloud: 300,
            seed: 20140301, // ASPLOS'14 opening day
        }
    }
}

impl ExperimentConfig {
    /// Proportionally shrink every population (minimum 10 images each).
    pub fn scaled(scale: f64) -> ExperimentConfig {
        let d = ExperimentConfig::default();
        let s = |n: usize| ((n as f64 * scale).round() as usize).max(10);
        ExperimentConfig {
            apache_training: s(d.apache_training),
            mysql_training: s(d.mysql_training),
            php_training: s(d.php_training),
            ec2_fresh: s(d.ec2_fresh),
            private_cloud: s(d.private_cloud),
            seed: d.seed,
        }
    }

    fn training_size(&self, app: AppKind) -> usize {
        match app {
            AppKind::Apache => self.apache_training,
            AppKind::Mysql => self.mysql_training,
            AppKind::Php => self.php_training,
            AppKind::Sshd => self.apache_training,
        }
    }
}

/// A regenerated table: human-readable text plus raw numbers keyed by row.
#[derive(Debug, Clone, Default)]
pub struct TableOutput {
    /// Table caption.
    pub title: String,
    /// Formatted rows.
    pub text: String,
    /// Raw numbers for shape assertions: (row key, values).
    pub raw: Vec<(String, Vec<f64>)>,
}

impl TableOutput {
    fn new(title: &str) -> TableOutput {
        TableOutput {
            title: title.to_string(),
            ..TableOutput::default()
        }
    }

    fn row(&mut self, key: &str, line: String, values: Vec<f64>) {
        let _ = writeln!(self.text, "{line}");
        self.raw.push((key.to_string(), values));
    }

    /// Look up raw values for a row key.
    pub fn values(&self, key: &str) -> Option<&[f64]> {
        self.raw
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_slice())
    }
}

fn training_population(app: AppKind, config: &ExperimentConfig) -> Population {
    Population::training(
        app,
        &PopulationOptions::new(config.training_size(app), config.seed ^ app as u64),
    )
}

/// Table 1 — configuration-parameter study.
pub fn table_1(_config: &ExperimentConfig) -> TableOutput {
    let mut out = TableOutput::new("Table 1: entries associated with environment and correlations");
    out.row(
        "header",
        format!(
            "{:<8} {:>6} {:>16} {:>16}",
            "Apps", "Total", "Env-Related", "Correlated"
        ),
        vec![],
    );
    for row in study::table_1() {
        out.row(
            row.app.name(),
            format!(
                "{:<8} {:>6} {:>10} ({:>2.0}%) {:>10} ({:>2.0}%)",
                row.app.name(),
                row.total,
                row.env_related,
                row.env_percent(),
                row.correlated,
                row.corr_percent()
            ),
            vec![
                row.total as f64,
                row.env_related as f64,
                row.correlated as f64,
            ],
        );
    }
    out
}

/// Table 2 — attribute counts: original, augmented, binomial.
pub fn table_2(config: &ExperimentConfig) -> TableOutput {
    let mut out = TableOutput::new("Table 2: number of attributes used by mining methods");
    let mut originals = Vec::new();
    let mut augmenteds = Vec::new();
    let mut binomials = Vec::new();
    for app in AppKind::EVALUATED {
        let pop = training_population(app, config);
        let plain =
            TrainingSet::assemble_with(&Assembler::new().without_augmentation(), app, pop.images())
                .expect("training");
        let augmented = TrainingSet::assemble(app, pop.images()).expect("training");
        originals.push(plain.stats_cache().columns().num_columns());
        let columns = augmented.stats_cache().columns();
        augmenteds.push(columns.num_columns());
        binomials.push(discretize(columns).num_items());
    }
    out.row(
        "header",
        format!("{:<12} {:>8} {:>8} {:>8}", "", "Apache", "MySQL", "PHP"),
        vec![],
    );
    for (name, vals) in [
        ("Original", &originals),
        ("Augmented", &augmenteds),
        ("Binominal", &binomials),
    ] {
        out.row(
            name,
            format!("{:<12} {:>8} {:>8} {:>8}", name, vals[0], vals[1], vals[2]),
            vals.iter().map(|&v| v as f64).collect(),
        );
    }
    out
}

/// Restrict a transaction database to items derived from the first `k`
/// attributes (alphabetically), mirroring the paper's "number of entries"
/// sweep.
fn truncate_attributes(tx: &Transactions, k: usize) -> Transactions {
    // Items are "attr=value" strings; keep those whose attr is among the
    // first k distinct attribute names.
    let mut attrs: Vec<String> = Vec::new();
    for row in tx.rows() {
        for &item in row {
            let name = tx.name(item);
            let attr = name.split('=').next().unwrap_or(name).to_string();
            if !attrs.contains(&attr) {
                attrs.push(attr);
            }
        }
    }
    attrs.sort();
    attrs.truncate(k);
    let keep: std::collections::HashSet<&String> = attrs.iter().collect();
    let mut out = Transactions::new();
    for row in tx.rows() {
        let items: Vec<&str> = row
            .iter()
            .map(|&i| tx.name(i))
            .filter(|n| {
                let attr = n.split('=').next().unwrap_or(n).to_string();
                keep.contains(&attr)
            })
            .collect();
        out.push(items);
    }
    out
}

/// Table 3 — FP-Growth cost versus attribute count.
pub fn table_3(config: &ExperimentConfig) -> TableOutput {
    let mut out =
        TableOutput::new("Table 3: FP-Growth time (s) and frequent-item-set size vs #attributes");
    out.row(
        "header",
        format!(
            "{:<10} {}",
            "entries",
            AppKind::EVALUATED
                .map(|a| format!(
                    "{:>10} {:>12} {:>10}",
                    format!("{a}-attrs"),
                    "time(s)",
                    "freq"
                ))
                .join(" ")
        ),
        vec![],
    );
    // Assemble + discretize each app once.
    let prepared: Vec<(Transactions, usize)> = AppKind::EVALUATED
        .iter()
        .map(|&app| {
            let pop = training_population(app, config);
            let training = TrainingSet::assemble(app, pop.images()).expect("training");
            (discretize(training.stats_cache().columns()), training.len())
        })
        .collect();
    // The guard standing in for the paper's 16 GB testbed.  Every frequent
    // item set costs tens of bytes of bookkeeping plus the conditional
    // pattern bases live during recursion; a few million materialized sets
    // is where a 16 GB machine starts thrashing.
    let limits = MiningLimits::capped(4_000_000);
    for &k in &[30usize, 60, 100, 150] {
        let mut line = format!(
            "{:<10}",
            if k == 150 {
                "150+".to_string()
            } else {
                k.to_string()
            }
        );
        let mut vals = Vec::new();
        for (tx, n_rows) in &prepared {
            let truncated = truncate_attributes(tx, k);
            let min_support = (*n_rows / 10).max(2);
            let started = Instant::now();
            let result = FpGrowth::new(min_support).mine(&truncated, &limits);
            let elapsed = started.elapsed().as_secs_f64();
            match result {
                Ok(r) => {
                    let _ = write!(
                        line,
                        " {:>10} {:>12.2} {:>10}",
                        truncated.num_items(),
                        elapsed,
                        r.len()
                    );
                    vals.extend([truncated.num_items() as f64, elapsed, r.len() as f64]);
                }
                Err(oom) => {
                    let _ = write!(
                        line,
                        " {:>10} {:>12} {:>10}",
                        truncated.num_items(),
                        "OOM",
                        format!(">{}", oom.itemsets_produced)
                    );
                    vals.extend([
                        truncated.num_items() as f64,
                        f64::INFINITY,
                        oom.itemsets_produced as f64,
                    ]);
                }
            }
        }
        out.row(&format!("k{k}"), line, vals);
    }
    out
}

/// Replace an image's config file with injected text.
fn reinject_config(image: &SystemImage, app: AppKind, text: &str) -> SystemImage {
    let mut vfs = image.vfs().clone();
    vfs.add_file(app.config_path(), "root", "root", 0o644, text);
    image.clone().with_vfs(vfs)
}

/// How many of the 15 injections a report detects.
///
/// A warning counts as a detection when its ranking score clears a
/// significance floor: suspicious values over entries with more than four
/// distinct training values score below it, encoding the PeerPressure
/// ranking semantics where a deviation among widely-varying values "cannot
/// meaningfully be considered an anomaly" [41].  Name/type/correlation
/// violations always clear the floor.
fn count_detected(report: &Report, injections: &[encore_injector::Injection]) -> usize {
    const SCORE_FLOOR: f64 = 10.0;
    injections
        .iter()
        .filter(|inj| {
            report.warnings().iter().any(|w| {
                w.score() >= SCORE_FLOOR
                    && (w.implicates(&inj.entry) || w.implicates(&inj.entry_after))
            })
        })
        .count()
}

/// Table 8 — injected-misconfiguration detection across the three
/// detectors.
pub fn table_8(config: &ExperimentConfig) -> TableOutput {
    let mut out = TableOutput::new("Table 8: injected misconfigurations detected (of 15)");
    out.row(
        "header",
        format!(
            "{:<8} {:>6} {:>9} {:>13} {:>8}",
            "App", "Total", "Baseline", "Baseline+Env", "EnCore"
        ),
        vec![],
    );
    let registry = LensRegistry::with_defaults();
    for app in AppKind::EVALUATED {
        let pop = training_population(app, config);
        // Held-out target image: generated from a disjoint seed.
        let target = Population::training(
            app,
            &PopulationOptions::new(1, config.seed ^ 0xfeed ^ app as u64),
        )
        .images()[0]
            .clone();
        let clean_config = target
            .read_file(app.config_path())
            .expect("config")
            .to_string();
        let lens = registry.lens(app.name()).expect("lens");
        let mut injector = Injector::with_seed(config.seed ^ 0x1417 ^ app as u64);
        let (broken_text, injections) = injector
            .inject(lens.as_ref(), &clean_config, 15)
            .expect("injection");
        let broken = reinject_config(&target, app, &broken_text);

        let baseline = Baseline::train(app, pop.images()).expect("baseline training");
        let baseline_env = BaselineEnv::train(app, pop.images()).expect("baseline+env training");
        let training = TrainingSet::assemble(app, pop.images()).expect("training");
        let engine = EnCore::learn(&training, &LearnOptions::default());

        let d_base = count_detected(
            &baseline.check_image(app, &broken).expect("baseline check"),
            &injections,
        );
        let d_env = count_detected(
            &baseline_env.check_image(app, &broken).expect("env check"),
            &injections,
        );
        let d_encore = count_detected(
            &engine.check_image(app, &broken).expect("encore check"),
            &injections,
        );
        out.row(
            app.name(),
            format!(
                "{:<8} {:>6} {:>9} {:>13} {:>8}",
                app.name(),
                injections.len(),
                d_base,
                d_env,
                d_encore
            ),
            vec![
                injections.len() as f64,
                d_base as f64,
                d_env as f64,
                d_encore as f64,
            ],
        );
    }
    out
}

/// Table 9 — real-world misconfiguration detection.
pub fn table_9(config: &ExperimentConfig) -> TableOutput {
    let mut out = TableOutput::new("Table 9: detection of real-world misconfigurations");
    out.row(
        "header",
        format!(
            "{:<4} {:<8} {:<12} {:>12} {:<40}",
            "ID", "App", "Info", "Rank", "Description"
        ),
        vec![],
    );
    // Train one engine per app, reused across cases.
    let mut engines: Vec<(AppKind, EnCore)> = Vec::new();
    for app in AppKind::EVALUATED {
        let pop = training_population(app, config);
        let training = TrainingSet::assemble(app, pop.images()).expect("training");
        engines.push((app, EnCore::learn(&training, &LearnOptions::default())));
    }
    for case in realworld::all_cases(config.seed) {
        let engine = &engines
            .iter()
            .find(|(a, _)| *a == case.app)
            .expect("engine for app")
            .1;
        let report = engine
            .check_image(case.app, &case.image)
            .expect("case check");
        let rank = report.rank_of(case.culprit);
        let rank_str = match rank {
            Some(r) => format!("{r}({})", report.len()),
            None => "-".to_string(),
        };
        out.row(
            &format!("case{}", case.id),
            format!(
                "{:<4} {:<8} {:<12} {:>12} {:<40}",
                case.id,
                case.app.name(),
                case.info.to_string(),
                rank_str,
                &case.description[..case.description.len().min(60)]
            ),
            vec![
                rank.map(|r| r as f64).unwrap_or(-1.0),
                report.len() as f64,
                if case.paper_detects { 1.0 } else { 0.0 },
            ],
        );
    }
    out
}

/// Table 10 — new misconfigurations found in fresh EC2 and private-cloud
/// populations, by category.
pub fn table_10(config: &ExperimentConfig) -> TableOutput {
    let mut out = TableOutput::new("Table 10: categories of newly detected misconfigurations");
    out.row(
        "header",
        format!(
            "{:<14} {:>9} {:>11} {:>13} {:>6}",
            "Source", "FilePath", "Permission", "ValueCompare", "Total"
        ),
        vec![],
    );
    for (label, per_app) in [
        ("EC2", config.ec2_fresh / 3),
        ("PrivateCloud", config.private_cloud / 3),
    ] {
        let mut by_cat = [0usize; 3];
        for app in AppKind::EVALUATED {
            let train_pop = training_population(app, config);
            let training = TrainingSet::assemble(app, train_pop.images()).expect("training");
            let engine = EnCore::learn(&training, &LearnOptions::default());
            let eval_pop = match label {
                "EC2" => Population::ec2_fresh(app, per_app, config.seed ^ 0xe52 ^ app as u64),
                _ => Population::private_cloud(app, per_app, config.seed ^ 0x9c1 ^ app as u64),
            };
            for seeded in eval_pop.seeded() {
                let image = eval_pop
                    .images()
                    .iter()
                    .find(|i| i.id() == seeded.image_id)
                    .expect("seeded image");
                let report = match engine.check_image(app, image) {
                    Ok(r) => r,
                    Err(_) => continue,
                };
                if report
                    .rank_of(&seeded.entry)
                    .map(|r| r <= 15)
                    .unwrap_or(false)
                {
                    let idx = match seeded.category {
                        MisconfigCategory::FilePath => 0,
                        MisconfigCategory::Permission => 1,
                        MisconfigCategory::ValueCompare => 2,
                    };
                    by_cat[idx] += 1;
                }
            }
        }
        let total: usize = by_cat.iter().sum();
        out.row(
            label,
            format!(
                "{:<14} {:>9} {:>11} {:>13} {:>6}",
                label, by_cat[0], by_cat[1], by_cat[2], total
            ),
            vec![
                by_cat[0] as f64,
                by_cat[1] as f64,
                by_cat[2] as f64,
                total as f64,
            ],
        );
    }
    out
}

/// Map occurrence-flattened attribute names to ground-truth types for
/// entries outside the schema (LoadModule arguments, section args).
fn flattened_ground_truth(name: &str) -> Option<SemType> {
    if name.ends_with("/section") {
        Some(SemType::FilePath)
    } else if name.contains("LoadModule") && name.ends_with("/arg2") {
        Some(SemType::PartialFilePath)
    } else if name.contains("LoadModule") && name.ends_with("/arg1") {
        Some(SemType::Str)
    } else {
        None
    }
}

/// Table 11 — type-inference accuracy against the schema ground truth.
pub fn table_11(config: &ExperimentConfig) -> TableOutput {
    let mut out = TableOutput::new("Table 11: data type detection results");
    out.row(
        "header",
        format!(
            "{:<8} {:>8} {:>11} {:>11} {:>11}",
            "App", "Entries", "NonTrivial", "FalseTypes", "Undetected"
        ),
        vec![],
    );
    for app in AppKind::EVALUATED {
        let schema = AppSchema::for_app(app);
        let pop = training_population(app, config);
        let training = TrainingSet::assemble(app, pop.images()).expect("training");
        let mut entries = 0usize;
        let mut nontrivial = 0usize;
        let mut false_types = 0usize;
        let mut undetected = 0usize;
        for (attr, &inferred) in training.types().iter() {
            let name = attr.base();
            let stripped = name.split('#').next().unwrap_or(name);
            let expected = schema
                .entry(stripped)
                .map(|e| e.ty)
                .or_else(|| flattened_ground_truth(name));
            let expected = match expected {
                Some(t) => t,
                None => continue, // generated pseudo-entries with no oracle
            };
            entries += 1;
            if !inferred.is_trivial() {
                nontrivial += 1;
            }
            if expected != inferred {
                if inferred.is_trivial() && !expected.is_trivial() {
                    undetected += 1;
                } else if !inferred.is_trivial() {
                    false_types += 1;
                }
            }
        }
        out.row(
            app.name(),
            format!(
                "{:<8} {:>8} {:>11} {:>11} {:>11}",
                app.name(),
                entries,
                nontrivial,
                false_types,
                undetected
            ),
            vec![
                entries as f64,
                nontrivial as f64,
                false_types as f64,
                undetected as f64,
            ],
        );
    }
    out
}

/// Whether a learned rule corresponds to a schema coupling (the "true
/// rule" oracle for Tables 12/13).
fn rule_is_true(app: AppKind, rule: &Rule) -> bool {
    use encore_corpus::schema::Coupling;
    let schema = AppSchema::for_app(app);
    let a_base = rule.a.base().split('#').next().unwrap_or(rule.a.base());
    let b_base = rule.b.base().split('#').next().unwrap_or(rule.b.base());

    // The ownership cluster: the user entry, its group mirror, the coupled
    // group entry, and the owner/group attributes of every path owned by
    // that user are pairwise equal/member by construction — rules within
    // the cluster are genuine fleet invariants, not noise.
    let mut clusters: Vec<Vec<String>> = Vec::new();
    for spec in schema.entries() {
        if let Some(Coupling::OwnedBy { user_entry }) = spec.coupling {
            let cluster = match clusters.iter_mut().find(|c| c[0] == user_entry) {
                Some(c) => c,
                None => {
                    clusters.push(vec![
                        user_entry.to_string(),
                        format!("{user_entry}.isGroup"),
                    ]);
                    // A group entry mirroring the user entry joins the
                    // cluster (Apache's `Group` equals `User`).
                    for other in schema.entries() {
                        if matches!(other.coupling, Some(Coupling::EqualsEntry { other: o }) if o == user_entry)
                        {
                            let last = clusters.len() - 1;
                            clusters[last].push(other.name.to_string());
                        }
                    }
                    clusters.last_mut().expect("just pushed")
                }
            };
            cluster.push(format!("{}.owner", spec.name));
            cluster.push(format!("{}.group", spec.name));
        }
    }
    let in_same_cluster = |x: &str, y: &str| {
        clusters
            .iter()
            .any(|c| c.iter().any(|m| m == x) && c.iter().any(|m| m == y))
    };
    let a_full = rule.a.to_string();
    let b_full = rule.b.to_string();
    if matches!(
        rule.relation,
        Relation::Equal | Relation::MemberEq | Relation::InGroup | Relation::Owns
    ) && in_same_cluster(&a_full, &b_full)
    {
        return true;
    }
    // Ownership of a coupled path by a cluster member.
    if rule.relation == Relation::Owns {
        if let Some(spec) = schema.entry(a_base) {
            if let Some(Coupling::OwnedBy { user_entry }) = spec.coupling {
                if in_same_cluster(user_entry, &b_full) || b_base == user_entry {
                    return true;
                }
            }
        }
    }
    // "Root-owned path is not accessible by the service user" is a genuine
    // fleet invariant for every generated, non-owned path object — exactly
    // the class of rule behind the paper's MySQL log-security case.
    if rule.relation == Relation::NotAccessible {
        if let Some(spec) = schema.entry(a_base) {
            use encore_corpus::schema::ValueDist;
            let is_generated_path = matches!(
                spec.dist,
                ValueDist::PathPool { .. } | ValueDist::FilePool { .. }
            );
            if is_generated_path && !matches!(spec.coupling, Some(Coupling::OwnedBy { .. })) {
                return true;
            }
        }
    }
    // DocumentRoot ↔ <Directory> correlation (not a schema coupling — the
    // generator emits the companion section directly).
    if app == AppKind::Apache && a_base == "DocumentRoot" && rule.b.base().ends_with("/section") {
        return true;
    }
    // ServerRoot + LoadModule/arg2 concatenation.
    if app == AppKind::Apache
        && rule.relation == Relation::ConcatPath
        && a_base == "ServerRoot"
        && rule.b.base().contains("LoadModule")
    {
        return true;
    }
    for spec in schema.entries() {
        let matches_pair = |x: &str, y: &str| {
            spec.name == x && {
                match spec.coupling {
                    Some(Coupling::OwnedBy { user_entry }) => {
                        rule.relation == Relation::Owns && y == user_entry
                    }
                    Some(Coupling::LessThan { other, .. }) => {
                        matches!(rule.relation, Relation::LessNum | Relation::LessSize)
                            && y == other
                    }
                    Some(Coupling::ConcatOnto { base_entry }) => {
                        rule.relation == Relation::ConcatPath && y == base_entry
                    }
                    Some(Coupling::EqualsEntry { other }) => {
                        matches!(rule.relation, Relation::Equal | Relation::MemberEq) && y == other
                    }
                    Some(Coupling::GuardsSymlinks { path_entry }) => {
                        rule.relation == Relation::ExtBoolImplies
                            && (y.starts_with(path_entry) || x.starts_with(path_entry))
                    }
                    None => false,
                }
            }
        };
        // Slot order varies by relation; accept either binding, and accept
        // rules anchored on the entry's augmented attributes (e.g.
        // `datadir.owner == user` mirrors the ownership coupling).
        if matches_pair(a_base, b_base) || matches_pair(b_base, a_base) {
            return true;
        }
        if let Some(Coupling::OwnedBy { user_entry }) = spec.coupling {
            let owner_attr = format!("{}.owner", spec.name);
            let a_full = rule.a.to_string();
            let b_full = rule.b.to_string();
            if (a_full == owner_attr && b_base == user_entry)
                || (b_full == owner_attr && a_base == user_entry)
            {
                return true;
            }
        }
    }
    false
}

/// Table 12 — correlation rules inferred, with false-positive counts.
pub fn table_12(config: &ExperimentConfig) -> TableOutput {
    let mut out = TableOutput::new("Table 12: detected correlation rules with the filters");
    out.row(
        "header",
        format!(
            "{:<8} {:>14} {:>15}",
            "App", "DetectedRules", "FalsePositives"
        ),
        vec![],
    );
    for app in AppKind::EVALUATED {
        let pop = training_population(app, config);
        let training = TrainingSet::assemble(app, pop.images()).expect("training");
        let engine = EnCore::learn(&training, &LearnOptions::default());
        let rules = engine.rules();
        let fp = rules
            .rules()
            .iter()
            .filter(|r| !rule_is_true(app, r))
            .count();
        out.row(
            app.name(),
            format!("{:<8} {:>14} {:>15}", app.name(), rules.len(), fp),
            vec![rules.len() as f64, fp as f64],
        );
    }
    out
}

/// Table 13 — staged effect of the entropy filter.
pub fn table_13(config: &ExperimentConfig) -> TableOutput {
    let mut out = TableOutput::new("Table 13: effectiveness of the entropy filter");
    out.row(
        "header",
        format!(
            "{:<8} {:>9} {:>11} {:>14}",
            "App", "Original", "FP Reduced", "FN Introduced"
        ),
        vec![],
    );
    for app in AppKind::EVALUATED {
        let pop = training_population(app, config);
        let training = TrainingSet::assemble(app, pop.images()).expect("training");
        // Candidates don't depend on the filter thresholds, so one
        // instantiation pass judged under both filter settings replaces the
        // two full `EnCore::learn` runs this table used to cost.
        let dual = RuleInference::predefined()
            .try_infer_dual(
                &training,
                &FilterThresholds::default(),
                &InferOptions::default(),
            )
            .expect("inference");
        let (with, _) = &dual.entropy_on;
        let (without, _) = &dual.entropy_off;
        let kept: std::collections::HashSet<String> =
            with.rules().iter().map(Rule::render).collect();
        let mut fp_reduced = 0usize;
        let mut fn_introduced = 0usize;
        for rule in without.rules() {
            if kept.contains(&rule.render()) {
                continue;
            }
            if rule_is_true(app, rule) {
                fn_introduced += 1;
            } else {
                fp_reduced += 1;
            }
        }
        out.row(
            app.name(),
            format!(
                "{:<8} {:>9} {:>11} {:>14}",
                app.name(),
                without.len(),
                fp_reduced,
                fn_introduced
            ),
            vec![
                without.len() as f64,
                fp_reduced as f64,
                fn_introduced as f64,
            ],
        );
    }
    out
}

/// Run a table by number.
pub fn run_table(n: u32, config: &ExperimentConfig) -> Option<TableOutput> {
    Some(match n {
        1 => table_1(config),
        2 => table_2(config),
        3 => table_3(config),
        8 => table_8(config),
        9 => table_9(config),
        10 => table_10(config),
        11 => table_11(config),
        12 => table_12(config),
        13 => table_13(config),
        _ => return None,
    })
}

/// All table numbers with experiments.
pub const ALL_TABLES: [u32; 9] = [1, 2, 3, 8, 9, 10, 11, 12, 13];

#[cfg(test)]
mod tests {
    use super::*;
    use encore_model::Row;

    /// The row loop `discretize` replaced: one transaction per assembled
    /// row, its present cells in row order, spelled `attr=render`.
    fn discretize_rows(rows: &[Row]) -> Transactions {
        let mut tx = Transactions::new();
        for row in rows {
            let items: Vec<String> = row
                .iter()
                .filter(|(_, v)| !v.is_absent())
                .map(|(a, v)| format!("{a}={}", v.render()))
                .collect();
            tx.push(items.iter().map(String::as_str));
        }
        tx
    }

    #[test]
    fn discretizing_the_table_equals_the_row_loop_on_table_2() {
        let config = ExperimentConfig::default();
        let assembler = Assembler::new();
        for app in AppKind::EVALUATED {
            let pop = training_population(app, &config);
            let training = TrainingSet::assemble(app, pop.images()).expect("training");
            let rows: Vec<Row> = pop
                .images()
                .iter()
                .filter_map(|img| assembler.assemble_image(app, img).ok())
                .collect();
            assert_eq!(
                discretize(training.stats_cache().columns()),
                discretize_rows(&rows),
                "{app}"
            );
        }
    }
}
