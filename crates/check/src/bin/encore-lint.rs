//! encore-lint — static checks for EnCore templates, rule sets, and corpora.
//!
//! ```text
//! encore-lint [--app mysql|apache|php|sshd] [--images N] [--seed N]
//!             [--templates FILE] [--rules FILE] [--detector FILE]
//!             [--min-confidence X] [--min-support-fraction X]
//!             [--entropy-threshold X]
//!             [--json] [--deny-warnings]
//! ```
//!
//! Builds (or loads) a template list, generates a training corpus for the
//! chosen application, runs the template type-checker, the corpus
//! eligibility analyzer, and the rule-set linter (over `--rules FILE`, or
//! over rules learned from the corpus when no file is given), then prints
//! the diagnostics and exits `1` if any error-severity diagnostic is
//! present (`--deny-warnings` promotes warnings).
//!
//! # CI/CD surface
//!
//! Diagnostics also flow through the unified [`Finding`] model:
//! `--severity`/`--min-report-confidence` filter findings before any
//! output or exit-code computation, `--sarif FILE` writes a SARIF v2.1.0
//! log for code-scanning upload, and `--write-baseline`/`--baseline FILE`
//! record/diff accepted-finding fingerprints so only *new* findings fail
//! the build (stale suppressions are reported on stderr).  `--quiet`
//! suppresses stdout entirely — the exit code is the only signal.
//!
//! `--report FILE`, `--trace-out FILE` and `ENCORE_TRACE` go through the
//! same [`encore::obs::ObsConfig`] as the other binaries, and every file
//! written (SARIF, baseline, report, trace) replaces its target
//! atomically.

use encore::obs::ObsConfig;
use encore::{
    write_atomically, EnCore, FilterThresholds, LearnOptions, RuleSet, Template, TrainingSet,
};
use encore_check::{
    baseline::FindingBaseline,
    check_all,
    finding::{self, FindingFilter},
    lint_snapshot, sarif, Code, Diagnostic, Finding, LintReport, Severity,
};
use encore_corpus::{Population, PopulationOptions};
use encore_model::AppKind;
use std::process::ExitCode;

const USAGE: &str = "\
usage: encore-lint [options]
  --app NAME                application corpus: mysql|apache|php|sshd (default mysql)
  --images N                training corpus size (default 20)
  --seed N                  corpus generation seed (default 7)
  --templates FILE          template file, one template per line (default: the
                            11 predefined templates)
  --rules FILE              rule file to lint (default: lint rules learned
                            from the corpus)
  --detector FILE           detector snapshot whose rule set to lint
                            (mutually exclusive with --rules)
  --min-confidence X        confidence threshold (default 0.90)
  --min-support-fraction X  support threshold as a fraction (default 0.10)
  --entropy-threshold X     entropy threshold (default 0.325)
  --no-entropy              disable the entropy filter when learning
  --json                    emit JSON instead of text
  --deny-warnings           exit nonzero on warnings too
  --severity LEVEL          report only findings at or above error|warning|info
  --min-report-confidence X report only findings with confidence >= X
  --quiet                   exit-code-only: suppress stdout findings
  --sarif FILE              write the findings as a SARIF v2.1.0 log
  --baseline FILE           suppress baselined fingerprints; only new
                            findings affect the exit code
  --write-baseline FILE     accept the current findings as the baseline
                            (mutually exclusive with --baseline) and exit 0
  --report FILE             write a pipeline observability report (JSON)
  --trace-out FILE          write recorded timer spans as a Chrome
                            trace-viewer / Perfetto JSON trace
  --help                    show this help

environment:
  ENCORE_TRACE=1            print the pipeline report to stderr";

struct Options {
    app: AppKind,
    images: usize,
    seed: u64,
    templates_file: Option<String>,
    rules_file: Option<String>,
    detector_file: Option<String>,
    thresholds: FilterThresholds,
    json: bool,
    deny_warnings: bool,
    filter: FindingFilter,
    quiet: bool,
    sarif_file: Option<String>,
    baseline_file: Option<String>,
    write_baseline_file: Option<String>,
    obs: ObsConfig,
}

fn parse_app(name: &str) -> Result<AppKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "mysql" => Ok(AppKind::Mysql),
        "apache" => Ok(AppKind::Apache),
        "php" => Ok(AppKind::Php),
        "sshd" => Ok(AppKind::Sshd),
        other => Err(format!("unknown app `{other}` (mysql|apache|php|sshd)")),
    }
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut options = Options {
        app: AppKind::Mysql,
        images: 20,
        seed: 7,
        templates_file: None,
        rules_file: None,
        detector_file: None,
        thresholds: FilterThresholds::default(),
        json: false,
        deny_warnings: false,
        filter: FindingFilter::default(),
        quiet: false,
        sarif_file: None,
        baseline_file: None,
        write_baseline_file: None,
        obs: ObsConfig::from_env(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--app" => options.app = parse_app(value("--app")?)?,
            "--images" => {
                options.images = value("--images")?
                    .parse()
                    .map_err(|e| format!("bad --images: {e}"))?;
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--templates" => options.templates_file = Some(value("--templates")?.clone()),
            "--rules" => options.rules_file = Some(value("--rules")?.clone()),
            "--detector" => options.detector_file = Some(value("--detector")?.clone()),
            "--min-confidence" => {
                options.thresholds.min_confidence = value("--min-confidence")?
                    .parse()
                    .map_err(|e| format!("bad --min-confidence: {e}"))?;
            }
            "--min-support-fraction" => {
                options.thresholds.min_support_fraction = value("--min-support-fraction")?
                    .parse()
                    .map_err(|e| format!("bad --min-support-fraction: {e}"))?;
            }
            "--entropy-threshold" => {
                options.thresholds.entropy_threshold = value("--entropy-threshold")?
                    .parse()
                    .map_err(|e| format!("bad --entropy-threshold: {e}"))?;
            }
            "--no-entropy" => options.thresholds.use_entropy = false,
            "--json" => options.json = true,
            "--deny-warnings" => options.deny_warnings = true,
            "--severity" => {
                let name = value("--severity")?;
                options.filter.min_severity = Severity::parse_name(name)
                    .ok_or_else(|| format!("bad --severity `{name}` (error|warning|info)"))?;
            }
            "--min-report-confidence" => {
                options.filter.min_confidence = value("--min-report-confidence")?
                    .parse()
                    .map_err(|e| format!("bad --min-report-confidence: {e}"))?;
            }
            "--quiet" | "-q" => options.quiet = true,
            "--sarif" => options.sarif_file = Some(value("--sarif")?.clone()),
            "--baseline" => options.baseline_file = Some(value("--baseline")?.clone()),
            "--write-baseline" => {
                options.write_baseline_file = Some(value("--write-baseline")?.clone());
            }
            "--report" => options.obs.report = Some(value("--report")?.into()),
            "--trace-out" => options.obs.trace_out = Some(value("--trace-out")?.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if options.rules_file.is_some() && options.detector_file.is_some() {
        return Err("--rules and --detector are mutually exclusive".to_string());
    }
    if options.baseline_file.is_some() && options.write_baseline_file.is_some() {
        return Err("--baseline and --write-baseline are mutually exclusive".to_string());
    }
    if !(0.0..=1.0).contains(&options.filter.min_confidence) {
        return Err("--min-report-confidence must be in [0, 1]".to_string());
    }
    Ok(Some(options))
}

/// Parse a template file: one template per line, `#` comments and blanks
/// skipped.  Syntax failures become `EC001` diagnostics rather than hard
/// errors, so one bad line does not hide findings about the others.
fn load_templates(text: &str) -> (Vec<Template>, Vec<Diagnostic>) {
    let mut templates = Vec::new();
    let mut diags = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match Template::parse_syntax(line) {
            Ok(t) => templates.push(t),
            Err(e) => diags.push(
                Diagnostic::new(Code::TemplateSyntax, format!("line {}: {e}", i + 1))
                    .with_context(line.to_string()),
            ),
        }
    }
    (templates, diags)
}

fn run(options: &Options) -> Result<(LintReport, bool), String> {
    let mut report = LintReport::new();

    let templates = match &options.templates_file {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read templates file `{path}`: {e}"))?;
            let (templates, diags) = load_templates(&text);
            report.extend(diags);
            templates
        }
        None => Template::predefined(),
    };

    let population = Population::training(
        options.app,
        &PopulationOptions::new(options.images, options.seed),
    );
    let training = TrainingSet::assemble(options.app, population.images())
        .map_err(|e| format!("corpus assembly failed: {e}"))?;
    let cache = training.stats_cache();

    let rules: Option<RuleSet> = match (&options.rules_file, &options.detector_file) {
        (Some(path), _) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read rules file `{path}`: {e}"))?;
            Some(RuleSet::parse(&text).map_err(|e| format!("rules file `{path}`: {e}"))?)
        }
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read detector file `{path}`: {e}"))?;
            // Peek the version first: a snapshot from a *newer* encore is a
            // diagnosable finding (EC070), not an opaque parse error.
            let version = encore::DetectorSnapshot::peek_version(&text)
                .map_err(|e| format!("detector file `{path}`: {e}"))?;
            if version > encore::snapshot::FORMAT_VERSION {
                report.extend(vec![Diagnostic::new(
                    Code::UnsupportedSnapshotVersion,
                    format!(
                        "detector snapshot `{path}` has format version v{version}, but this \
                         build supports up to v{} — retrain, or lint with a newer encore-lint",
                        encore::snapshot::FORMAT_VERSION
                    ),
                )
                .with_context(path.clone())]);
                None
            } else {
                let snapshot = encore::DetectorSnapshot::parse(&text)
                    .map_err(|e| format!("detector file `{path}`: {e}"))?;
                report.extend(lint_snapshot(&snapshot));
                Some(snapshot.rules().clone())
            }
        }
        (None, None) if options.thresholds.validate().is_ok() => {
            // Lint the rules this corpus actually teaches.  Learning only
            // accepts well-typed templates; the type errors are reported by
            // check_all below either way.
            let well_typed: Vec<Template> = templates
                .iter()
                .filter(|t| t.validate().is_ok())
                .cloned()
                .collect();
            let engine = EnCore::learn(
                &training,
                &LearnOptions {
                    templates: well_typed,
                    thresholds: options.thresholds,
                    workers: None,
                },
            );
            Some(engine.rules().clone())
        }
        // Thresholds are invalid: check_all reports EC050; don't learn
        // with them.
        (None, None) => None,
    };

    let all = check_all(&templates, &options.thresholds, &cache, rules.as_ref());
    report.extend(all.diagnostics().to_vec());
    Ok((report, options.deny_warnings))
}

/// Everything after the analyzers: filter, render, SARIF, baseline, exit
/// code.  Split from `main` so the policy is readable top to bottom.
fn finish(options: &Options, report: &LintReport) -> Result<i32, String> {
    let filtered = report.filtered(&options.filter);
    let findings: Vec<Finding> = filtered.findings();

    if !options.quiet {
        if options.json {
            println!("{}", filtered.render_json());
        } else {
            print!("{}", filtered.render_text());
        }
    }

    // SARIF sees the full filtered findings: the baseline only decides the
    // exit code, while code-scanning consumers do their own tracking via
    // partialFingerprints.
    if let Some(path) = &options.sarif_file {
        let tool = sarif::SarifTool {
            name: "encore-lint",
            version: env!("CARGO_PKG_VERSION"),
        };
        write_atomically(path, sarif::render(&tool, &findings))
            .map_err(|e| format!("cannot write SARIF to `{path}`: {e}"))?;
    }

    if let Some(path) = &options.write_baseline_file {
        let baseline = FindingBaseline::from_findings(&findings);
        write_atomically(path, baseline.render())
            .map_err(|e| format!("cannot write baseline to `{path}`: {e}"))?;
        eprintln!(
            "encore-lint: wrote baseline `{path}` accepting {} finding(s)",
            baseline.len()
        );
        return Ok(0);
    }

    if let Some(path) = &options.baseline_file {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline `{path}`: {e}"))?;
        let baseline =
            FindingBaseline::parse(&text).map_err(|e| format!("baseline `{path}`: {e}"))?;
        let diff = baseline.diff(&findings);
        eprintln!(
            "encore-lint: baseline `{path}`: {} fresh, {} suppressed, {} stale",
            diff.fresh.len(),
            diff.suppressed,
            diff.stale.len()
        );
        for (fingerprint, annotation) in &diff.stale {
            eprintln!("encore-lint: stale baseline entry {fingerprint}\t{annotation}");
        }
        return Ok(finding::exit_code(&diff.fresh, options.deny_warnings));
    }

    Ok(filtered.exit_code(options.deny_warnings))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("encore-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = options.obs.start().and_then(|()| run(&options));
    if let Err(e) = options.obs.finish() {
        eprintln!("encore-lint: {e}");
        return ExitCode::from(2);
    }
    match outcome.and_then(|(report, _)| finish(&options, &report)) {
        Ok(code) => ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("encore-lint: {e}");
            ExitCode::from(2)
        }
    }
}
