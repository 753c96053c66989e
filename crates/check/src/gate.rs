//! The findings gate `encore-lint` and `encore-detect` share.
//!
//! [`FindingsConfig`] parses the six findings flags, [`start`]s before
//! any work — checking the flags together and reading the baseline, so a
//! bad baseline fails the run before it writes anything — and
//! [`finish`]es with the SARIF log, the baseline write or diff, and the
//! exit code from the one rule, [`finding::exit_code`].  Each binary keeps
//! its own printing and its own gate default.
//!
//! [`start`]: FindingsConfig::start
//! [`finish`]: FindingsConfig::finish

use crate::baseline::FindingBaseline;
use crate::diag::Severity;
use crate::finding::{self, Finding, FindingFilter};
use crate::sarif;
use encore::write_atomically;
use std::path::PathBuf;

/// The findings flags of one run, and the baseline read from them.
#[derive(Debug, Default)]
pub struct FindingsConfig {
    /// `--severity` and `--min-report-confidence`: what counts as a
    /// finding, before any output or exit-code computation.
    pub filter: FindingFilter,
    /// `--quiet`: no findings on stdout; the exit code is the signal.
    pub quiet: bool,
    /// `--sarif FILE`: every admitted finding as a SARIF v2.1.0 log.
    pub sarif: Option<PathBuf>,
    /// `--baseline FILE`: only findings it does not accept count.
    pub baseline: Option<PathBuf>,
    /// `--write-baseline FILE`: accept the run's findings and exit 0.
    pub write_baseline: Option<PathBuf>,
    /// The baseline [`FindingsConfig::start`] read from `baseline`.
    accepted: Option<FindingBaseline>,
}

impl FindingsConfig {
    /// Take `flag` if it is a findings flag, pulling its value from `args`.
    ///
    /// Returns `Ok(false)`, consuming nothing, for any other flag: the
    /// caller handles it.
    ///
    /// # Errors
    ///
    /// A missing value, an unknown severity, or a report confidence that
    /// is not a number in `[0, 1]`.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--severity" => {
                let name = value()?;
                self.filter.min_severity = Severity::parse_name(&name)
                    .ok_or_else(|| format!("bad --severity `{name}` (error|warning|info)"))?;
            }
            "--min-report-confidence" => {
                let confidence: f64 = value()?
                    .parse()
                    .map_err(|e| format!("bad --min-report-confidence: {e}"))?;
                if !(0.0..=1.0).contains(&confidence) {
                    return Err("--min-report-confidence must be in [0, 1]".to_string());
                }
                self.filter.min_confidence = confidence;
            }
            "--quiet" | "-q" => self.quiet = true,
            "--sarif" => self.sarif = Some(value()?.into()),
            "--baseline" => self.baseline = Some(value()?.into()),
            "--write-baseline" => self.write_baseline = Some(value()?.into()),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Check the flags together and read the baseline.  Runs before any
    /// work, so a run that cannot gate fails before it writes anything.
    ///
    /// # Errors
    ///
    /// `--baseline` together with `--write-baseline`, or a baseline that
    /// cannot be read or parsed.
    pub fn start(&mut self) -> Result<(), String> {
        if self.baseline.is_some() && self.write_baseline.is_some() {
            return Err("--baseline and --write-baseline are mutually exclusive".to_string());
        }
        if let Some(path) = &self.baseline {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline `{}`: {e}", path.display()))?;
            let baseline = FindingBaseline::parse(&text)
                .map_err(|e| format!("baseline `{}`: {e}", path.display()))?;
            self.accepted = Some(baseline);
        }
        Ok(())
    }

    /// Write the SARIF log of `findings`, then write or diff the baseline,
    /// and return the exit code: `0` after `--write-baseline`, otherwise
    /// [`finding::exit_code`] over the findings the baseline does not
    /// accept (all of them without `--baseline`).  `tool` names the
    /// binary in the SARIF log and on stderr.
    ///
    /// # Errors
    ///
    /// An output file cannot be written.
    ///
    /// # Panics
    ///
    /// With `--baseline` set, when [`FindingsConfig::start`] did not run.
    pub fn finish(
        &self,
        tool: &str,
        findings: &[Finding],
        deny_warnings: bool,
    ) -> Result<i32, String> {
        // SARIF holds every admitted finding: the baseline decides only the
        // exit code, and code-scanning consumers track results themselves
        // through partialFingerprints.
        if let Some(path) = &self.sarif {
            write_atomically(path, sarif::render(tool, findings))
                .map_err(|e| format!("cannot write SARIF to `{}`: {e}", path.display()))?;
        }
        if let Some(path) = &self.write_baseline {
            let baseline = FindingBaseline::from_findings(findings);
            write_atomically(path, baseline.render())
                .map_err(|e| format!("cannot write baseline to `{}`: {e}", path.display()))?;
            eprintln!(
                "{tool}: wrote baseline `{}` accepting {} finding(s)",
                path.display(),
                baseline.len()
            );
            return Ok(0);
        }
        let Some(path) = &self.baseline else {
            return Ok(finding::exit_code(findings, deny_warnings));
        };
        let accepted = self.accepted.as_ref();
        let diff = accepted.expect("start reads the baseline").diff(findings);
        eprintln!(
            "{tool}: baseline `{}`: {} fresh, {} suppressed, {} stale",
            path.display(),
            diff.fresh.len(),
            diff.suppressed,
            diff.stale.len()
        );
        for (fingerprint, annotation) in &diff.stale {
            eprintln!("{tool}: stale baseline entry {fingerprint}\t{annotation}");
        }
        Ok(finding::exit_code(&diff.fresh, deny_warnings))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse `args` as findings flags only.
    fn parse(args: &[&str]) -> Result<FindingsConfig, String> {
        let mut config = FindingsConfig::default();
        let mut args = args.iter().map(|a| a.to_string());
        while let Some(flag) = args.next() {
            if !config.parse_flag(&flag, &mut args)? {
                return Err(format!("`{flag}` is not a findings flag"));
            }
        }
        Ok(config)
    }

    /// A per-test path under the temp dir.
    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("encore-check-gate-{}-{name}", std::process::id()))
    }

    fn findings() -> Vec<Finding> {
        vec![
            Finding::new("EW002", Severity::Warning, 0.97, "system/a:O:x", "violated"),
            Finding::new("EW004", Severity::Info, 0.45, "system/a:O:y", "odd"),
            Finding::new("EW001", Severity::Warning, 0.7, "system/b:O:z", "unknown"),
        ]
    }

    #[test]
    fn each_flag_is_taken() {
        let config = parse(&[
            "--severity",
            "warning",
            "--min-report-confidence",
            "0.5",
            "-q",
            "--sarif",
            "out.sarif",
            "--write-baseline",
            "new.txt",
        ])
        .expect("parses");
        assert_eq!(config.filter.min_severity, Severity::Warning);
        assert_eq!(config.filter.min_confidence, 0.5);
        assert!(config.quiet);
        assert_eq!(config.sarif, Some(PathBuf::from("out.sarif")));
        assert_eq!(config.write_baseline, Some(PathBuf::from("new.txt")));
        let config = parse(&["--quiet", "--baseline", "old.txt"]).expect("parses");
        assert!(config.quiet);
        assert_eq!(config.baseline, Some(PathBuf::from("old.txt")));
        assert!(parse(&[]).expect("parses").filter.is_pass_all());
    }

    #[test]
    fn bad_values_are_errors() {
        for flag in [
            "--severity",
            "--min-report-confidence",
            "--sarif",
            "--baseline",
            "--write-baseline",
        ] {
            assert_eq!(parse(&[flag]).unwrap_err(), format!("{flag} needs a value"));
        }
        assert!(parse(&["--severity", "fatal"])
            .unwrap_err()
            .contains("bad --severity `fatal`"));
        assert!(parse(&["--min-report-confidence", "high"])
            .unwrap_err()
            .starts_with("bad --min-report-confidence"));
        for out_of_range in ["1.5", "-0.1", "NaN"] {
            assert_eq!(
                parse(&["--min-report-confidence", out_of_range]).unwrap_err(),
                "--min-report-confidence must be in [0, 1]"
            );
        }
        assert!(parse(&["--min-report-confidence", "1"]).is_ok());
    }

    #[test]
    fn an_unknown_flag_is_left_to_the_caller() {
        let mut config = FindingsConfig::default();
        let mut args = vec!["value".to_string()].into_iter();
        assert_eq!(config.parse_flag("--deny-warnings", &mut args), Ok(false));
        assert_eq!(args.next().as_deref(), Some("value"), "nothing consumed");
    }

    #[test]
    fn start_rejects_both_baseline_flags() {
        let mut config =
            parse(&["--baseline", "a.txt", "--write-baseline", "b.txt"]).expect("each flag parses");
        assert_eq!(
            config.start().unwrap_err(),
            "--baseline and --write-baseline are mutually exclusive"
        );
    }

    #[test]
    fn a_missing_or_malformed_baseline_fails_at_start() {
        let missing = tmp("missing-baseline.txt");
        let _ = std::fs::remove_file(&missing);
        let mut config = parse(&["--baseline", missing.to_str().unwrap()]).unwrap();
        assert!(config
            .start()
            .unwrap_err()
            .starts_with("cannot read baseline"));

        let malformed = tmp("malformed-baseline.txt");
        std::fs::write(&malformed, "not a baseline\n").unwrap();
        let mut config = parse(&["--baseline", malformed.to_str().unwrap()]).unwrap();
        let err = config.start().unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let _ = std::fs::remove_file(&malformed);
    }

    #[test]
    fn write_baseline_returns_zero_and_accepts_every_finding() {
        let path = tmp("written-baseline.txt");
        let mut config = parse(&["--write-baseline", path.to_str().unwrap()]).unwrap();
        config.start().unwrap();
        assert_eq!(config.finish("encore-detect", &findings(), true), Ok(0));
        let written = FindingBaseline::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(written, FindingBaseline::from_findings(&findings()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sarif_holds_every_admitted_finding_when_the_baseline_suppresses_some() {
        let all = findings();
        let baseline = tmp("suppressing-baseline.txt");
        std::fs::write(
            &baseline,
            FindingBaseline::from_findings(&all[..2]).render(),
        )
        .unwrap();
        let sarif = tmp("suppressed.sarif");
        let mut config = parse(&[
            "--sarif",
            sarif.to_str().unwrap(),
            "--baseline",
            baseline.to_str().unwrap(),
        ])
        .unwrap();
        config.start().unwrap();
        config.finish("encore-detect", &all, true).unwrap();
        let log = std::fs::read_to_string(&sarif).unwrap();
        assert_eq!(log, sarif::render("encore-detect", &all));
        for f in &all {
            assert!(log.contains(f.fingerprint()), "{log}");
        }
        let _ = std::fs::remove_file(&baseline);
        let _ = std::fs::remove_file(&sarif);
    }

    #[test]
    fn only_fresh_findings_gate() {
        let all = findings();
        // The baseline accepts the first warning and the info finding, plus
        // one entry the run no longer produces (stale).
        let stale = Finding::new("EW003", Severity::Warning, 0.9, "system/c:O:w", "gone");
        let accepted = [all[0].clone(), all[1].clone(), stale];
        let path = tmp("gating-baseline.txt");
        std::fs::write(&path, FindingBaseline::from_findings(&accepted).render()).unwrap();
        let mut config = parse(&["--baseline", path.to_str().unwrap()]).unwrap();
        config.start().unwrap();
        // One fresh warning: it fails the run only when warnings are denied.
        assert_eq!(config.finish("encore-lint", &all, false), Ok(0));
        assert_eq!(config.finish("encore-lint", &all, true), Ok(1));
        // Everything suppressed: nothing fresh fails the run.
        assert_eq!(config.finish("encore-lint", &all[..2], true), Ok(0));
        // A fresh error fails the run either way.
        let error = Finding::new("EC040", Severity::Error, 1.0, "a == b", "orphan");
        assert_eq!(
            config.finish("encore-lint", std::slice::from_ref(&error), false),
            Ok(1)
        );
        // Without a baseline every finding counts.
        let config = FindingsConfig::default();
        assert_eq!(config.finish("encore-lint", &all[..2], false), Ok(0));
        assert_eq!(config.finish("encore-lint", &all[..2], true), Ok(1));
        assert_eq!(config.finish("encore-lint", &[error], false), Ok(1));
        let _ = std::fs::remove_file(&path);
    }
}
