//! The comparison detectors of Table 8.
//!
//! * [`Baseline`] — the state-of-the-art value-comparison approach
//!   (PeerPressure-style, citation 41): each configuration entry is an isolated
//!   string; a value deviating from everything seen in training is flagged.
//!   No environment data, no types, no correlations.
//! * [`BaselineEnv`] — the baseline enhanced with EnCore's type-based
//!   environment integration: value comparison runs over the augmented
//!   attribute set, and type violations are checked — but no correlation
//!   rules are learned ("Baseline+Env" in the paper).

use crate::detect::{Report, TrainingStats, Warning, WarningKind};
use crate::train::TrainingSet;
use crate::types::TypeMap;
use encore_assemble::{AssembleError, Assembler};
use encore_model::{AppKind, AttrName, Row};
use encore_sysimage::SystemImage;

/// Shared value comparison: flag each present value of `row` whose render
/// the training histogram of the same attribute never saw.
fn compare(stats: &TrainingStats, row: &Row, report: &mut Vec<Warning>) {
    for (attr, value) in row.iter() {
        if value.is_absent() {
            continue;
        }
        // PeerPressure-style comparison scores a value against the peers'
        // distribution *of the same entry*.  An entry name never seen in
        // training has no peer distribution, so it is silently skipped —
        // misspelled names are invisible to value comparison (entry-name
        // checking is an EnCore check, §6).
        match stats.histogram(attr) {
            Some(seen) if !seen.contains(&value.rendered()) => {
                report.push(Warning::new_suspicious(
                    attr.clone(),
                    value.render(),
                    seen.len(),
                ));
            }
            _ => {}
        }
    }
}

impl Warning {
    fn new_suspicious(attr: AttrName, value: String, cardinality: usize) -> Warning {
        Warning::internal(
            WarningKind::SuspiciousValue,
            attr,
            format!("value `{value}` never seen in training"),
            40.0 / cardinality.max(1) as f64,
        )
    }
}

/// PeerPressure-style pure value comparison (no environment, no types, no
/// correlations).
#[derive(Debug)]
pub struct Baseline {
    stats: TrainingStats,
    assembler: Assembler,
}

impl Baseline {
    /// Train on raw (non-augmented) configuration values only.
    pub fn train(app: AppKind, images: &[SystemImage]) -> Result<Baseline, AssembleError> {
        let assembler = Assembler::new().without_augmentation();
        let training = TrainingSet::assemble_with(&assembler, app, images)?;
        Ok(Baseline {
            stats: TrainingStats::from_training(&training),
            assembler,
        })
    }

    /// Check a target image by value comparison alone.
    ///
    /// # Errors
    ///
    /// Propagates assembly failures.
    pub fn check_image(&self, app: AppKind, image: &SystemImage) -> Result<Report, AssembleError> {
        let row = self.assembler.assemble_image(app, image)?;
        let mut warnings = Vec::new();
        compare(&self.stats, &row, &mut warnings);
        Ok(Report::from_warnings(warnings))
    }
}

/// Baseline plus type-based environment integration (but no correlation
/// rules) — "Baseline+Env" in Table 8.
#[derive(Debug)]
pub struct BaselineEnv {
    stats: TrainingStats,
    types: TypeMap,
    assembler: Assembler,
}

impl BaselineEnv {
    /// Train on environment-augmented values with type inference.
    pub fn train(app: AppKind, images: &[SystemImage]) -> Result<BaselineEnv, AssembleError> {
        let assembler = Assembler::new();
        let training = TrainingSet::assemble_with(&assembler, app, images)?;
        Ok(BaselineEnv {
            stats: TrainingStats::from_training(&training),
            types: training.types().clone(),
            assembler,
        })
    }

    /// Check a target image: value comparison over augmented attributes plus
    /// type violations.
    ///
    /// # Errors
    ///
    /// Propagates assembly failures.
    pub fn check_image(&self, app: AppKind, image: &SystemImage) -> Result<Report, AssembleError> {
        let system = self.assembler.assemble_system(app, image)?;
        let mut warnings = Vec::new();
        compare(&self.stats, &system.row, &mut warnings);
        // Type violations, typed as in the full detector.
        let inference = self.assembler.inference();
        for (attr, value) in system.row.iter() {
            if !attr.is_original() || value.is_absent() {
                continue;
            }
            let expected = self.types.type_of(attr);
            if expected.is_trivial() {
                continue;
            }
            let rendered = value.rendered();
            // A text cell renders as the trimmed text assembly typed, so it
            // keeps assembly's type; any other cell is re-typed from its
            // render, which can differ (`3306.0` renders `3306`), as the
            // detector's bare-row check does.  The re-typing counts nothing
            // in `assemble.types.*`.
            let inferred = match system.type_of(attr) {
                Some(ty) if value.as_str().is_some() => ty,
                _ => inference.infer_uncounted(&rendered, image),
            };
            if inferred != expected {
                warnings.push(Warning::internal(
                    WarningKind::TypeViolation,
                    attr.clone(),
                    format!("value `{rendered}` is {inferred}, trained type is {expected}"),
                    95.0,
                ));
            }
        }
        Ok(Report::from_warnings(warnings))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> Vec<SystemImage> {
        (0..n)
            .map(|i| {
                let datadir = format!("/var/lib/mysql{i}");
                SystemImage::builder(format!("img-{i}"))
                    .user("mysql", 27, &["mysql"])
                    .dir(&datadir, "mysql", "mysql", 0o700)
                    .file(
                        "/etc/mysql/my.cnf",
                        "root",
                        "root",
                        0o644,
                        &format!("[mysqld]\nuser = mysql\ndatadir = {datadir}\n"),
                    )
                    .build()
            })
            .collect()
    }

    /// The Figure 1(a)-style failure: a path entry pointing at a regular
    /// file.  Value comparison alone cannot see it (paths vary in training);
    /// the type-aware baseline can.
    #[test]
    fn env_baseline_sees_type_errors_plain_baseline_does_not() {
        let images = fleet(10);
        let target = SystemImage::builder("t")
            .user("mysql", 27, &["mysql"])
            .file("/var/lib/data", "mysql", "mysql", 0o644, "not a dir")
            .file(
                "/etc/mysql/my.cnf",
                "root",
                "root",
                0o644,
                "[mysqld]\nuser = mysql\ndatadir = /var/lib/data\n",
            )
            .build();

        let plain = Baseline::train(AppKind::Mysql, &images).unwrap();
        let report = plain.check_image(AppKind::Mysql, &target).unwrap();
        // Plain baseline flags datadir only as a suspicious value (it is a
        // new string) — it cannot know the value is a *file*; with many
        // distinct training paths its ICF rank is low.
        assert!(report
            .warnings()
            .iter()
            .all(|w| w.kind() != WarningKind::TypeViolation));

        let env = BaselineEnv::train(AppKind::Mysql, &images).unwrap();
        let report = env.check_image(AppKind::Mysql, &target).unwrap();
        // §6: "the detection of the error in Figure 1(a) is directly
        // attributed to the extended attribute extension_dir.type — all the
        // values in the training set have type directory, but the value in
        // the target system has type regular file."  The augmented
        // `datadir.type = file` shows up as a never-seen value.
        let sv = report
            .warnings()
            .iter()
            .find(|w| {
                w.kind() == WarningKind::SuspiciousValue && w.attr().to_string() == "datadir.type"
            })
            .expect("suspicious datadir.type");
        assert!(sv.detail().contains("file"));
    }

    #[test]
    fn neither_baseline_checks_correlations() {
        let images = fleet(10);
        // Wrong owner: correlation-only failure (values all in distribution,
        // except augmented owner attr which BaselineEnv can flag as value).
        let target = SystemImage::builder("t")
            .user("mysql", 27, &["mysql"])
            .user("backup", 34, &["backup"])
            .dir("/var/lib/mysql0", "backup", "backup", 0o700)
            .file(
                "/etc/mysql/my.cnf",
                "root",
                "root",
                0o644,
                "[mysqld]\nuser = mysql\ndatadir = /var/lib/mysql0\n",
            )
            .build();
        let plain = Baseline::train(AppKind::Mysql, &images).unwrap();
        let report = plain.check_image(AppKind::Mysql, &target).unwrap();
        assert!(report.is_empty(), "{report:?}");
        // BaselineEnv sees `datadir.owner = backup` as an unseen value.
        let env = BaselineEnv::train(AppKind::Mysql, &images).unwrap();
        let report = env.check_image(AppKind::Mysql, &target).unwrap();
        assert!(report
            .warnings()
            .iter()
            .any(|w| w.kind() == WarningKind::SuspiciousValue));
    }

    #[test]
    fn misspelled_entries_invisible_to_value_comparison() {
        let images = fleet(6);
        let target = SystemImage::builder("t")
            .user("mysql", 27, &["mysql"])
            .dir("/var/lib/mysql0", "mysql", "mysql", 0o700)
            .file(
                "/etc/mysql/my.cnf",
                "root",
                "root",
                0o644,
                "[mysqld]\nuser = mysql\ndatadir = /var/lib/mysql0\ndattadir = /x\n",
            )
            .build();
        // `dattadir` has no peer distribution, so value comparison skips it
        // — misspelling detection is an EnCore-only check (§6).
        for report in [
            Baseline::train(AppKind::Mysql, &images)
                .unwrap()
                .check_image(AppKind::Mysql, &target)
                .unwrap(),
            BaselineEnv::train(AppKind::Mysql, &images)
                .unwrap()
                .check_image(AppKind::Mysql, &target)
                .unwrap(),
        ] {
            assert!(
                report
                    .warnings()
                    .iter()
                    .all(|w| w.kind() != WarningKind::UnknownEntry),
                "{report:?}"
            );
            assert!(!report.detects("dattadir"));
        }
    }
}
