//! EnCore — environment- and correlation-aware misconfiguration detection.
//!
//! This crate is the paper's primary contribution (§3, Figure 2): given a
//! training set of configured systems whose data has been assembled and
//! environment-enriched by `encore-assemble`, it
//!
//! 1. learns *concrete correlation rules* from *rule templates* — typed
//!    relation patterns such as "a UserName entry owns a FilePath entry"
//!    ([`template`], [`infer`]),
//! 2. filters candidate rules by support, confidence, and value entropy
//!    ([`filter`]),
//! 3. checks target systems for anomalies along four axes: unknown entry
//!    names, correlation-rule violations, data-type violations, and
//!    suspicious values ([`detect`]),
//! 4. provides the comparison detectors of Table 8: a PeerPressure-style
//!    value-comparison [`baseline::Baseline`] and the environment-enhanced
//!    [`baseline::BaselineEnv`] ([`baseline`]).
//!
//! Customization (§5.3) covers user templates over the predefined
//! relations, custom types with programmatic matchers, and customization
//! files ([`customize`]).
//!
//! # Examples
//!
//! Training on a small hand-built fleet and checking a broken system:
//!
//! ```
//! use encore::prelude::*;
//! use encore_model::AppKind;
//! use encore_sysimage::SystemImage;
//!
//! fn image(id: &str, owner: &str) -> SystemImage {
//!     SystemImage::builder(id)
//!         .user("mysql", 27, &["mysql"])
//!         .user("backup", 34, &["backup"])
//!         .dir("/var/lib/mysql", owner, owner, 0o700)
//!         .file("/etc/mysql/my.cnf", "root", "root", 0o644,
//!               "[mysqld]\nuser = mysql\ndatadir = /var/lib/mysql\n")
//!         .build()
//! }
//!
//! let fleet: Vec<SystemImage> =
//!     (0..12).map(|i| image(&format!("img-{i}"), "mysql")).collect();
//! let training = TrainingSet::assemble(AppKind::Mysql, &fleet)?;
//! // This tiny fleet is all-defaults, so every value distribution is
//! // below the entropy threshold (the paper notes the same about pristine
//! // template images, §7.3) — learn without the entropy filter.
//! let options = LearnOptions {
//!     thresholds: FilterThresholds::default().without_entropy(),
//!     ..LearnOptions::default()
//! };
//! let engine = EnCore::learn(&training, &options);
//! let target = image("broken", "backup"); // datadir owned by wrong user
//! let report = engine.check_image(AppKind::Mysql, &target)?;
//! assert!(report
//!     .warnings()
//!     .iter()
//!     .any(|w| w.kind() == WarningKind::CorrelationViolation));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
pub mod baseline;
pub mod cross;
pub mod customize;
pub mod detect;
pub mod eligibility;
pub mod filter;
pub mod infer;
pub mod obs;
pub mod pool;
pub mod relation;
pub mod rules;
pub mod snapshot;
pub mod stats;
pub mod template;
pub mod train;
pub mod types;

pub use artifact::{fnv1a, write_atomically};
pub use detect::{AnomalyDetector, FleetOptions, Report, TrainingStats, Warning, WarningKind};
pub use eligibility::{analyze_templates, EligibilityReport};
pub use filter::FilterThresholds;
pub use infer::{InferError, InferOptions, InferenceStats, RuleInference};
pub use rules::{Rule, RuleSet};
pub use snapshot::DetectorSnapshot;
pub use stats::StatsCache;
pub use template::{Relation, RelationSignature, Slot, Template, TemplateTypeError};
pub use train::TrainingSet;
pub use types::TypeMap;

/// Convenience re-exports for downstream users.
pub mod prelude {
    pub use crate::baseline::{Baseline, BaselineEnv};
    pub use crate::detect::{AnomalyDetector, FleetOptions, Report, Warning, WarningKind};
    pub use crate::filter::FilterThresholds;
    pub use crate::rules::{Rule, RuleSet};
    pub use crate::snapshot::DetectorSnapshot;
    pub use crate::template::{Relation, Template};
    pub use crate::train::TrainingSet;
    pub use crate::{EnCore, LearnOptions};
}

use encore_model::AppKind;
use encore_sysimage::SystemImage;

/// Options controlling rule learning.
#[derive(Debug, Clone)]
pub struct LearnOptions {
    /// Templates to instantiate; defaults to the 11 predefined templates of
    /// Table 6.
    pub templates: Vec<Template>,
    /// Rule filters; defaults to the paper's §7.3 thresholds (confidence
    /// 90%, support 10% of the training images, entropy 0.325).
    pub thresholds: FilterThresholds,
    /// Inference worker threads; `None` uses all available parallelism.
    /// The learned rules are identical for every worker count.
    pub workers: Option<usize>,
}

impl Default for LearnOptions {
    fn default() -> Self {
        LearnOptions {
            templates: Template::predefined(),
            thresholds: FilterThresholds::default(),
            workers: None,
        }
    }
}

/// The assembled EnCore engine: learned rules + training statistics.
///
/// Produced by [`EnCore::learn`]; "since the checking and the learning are
/// cleanly separated, the learned rules can be reused to check different
/// systems" (§3).
#[derive(Debug)]
pub struct EnCore {
    detector: AnomalyDetector,
    stats: InferenceStats,
}

impl EnCore {
    /// Learn configuration rules from a training set.
    ///
    /// # Panics
    ///
    /// Panics if an inference worker panics; [`EnCore::try_learn`] surfaces
    /// that recoverably instead.
    pub fn learn(training: &TrainingSet, options: &LearnOptions) -> EnCore {
        EnCore::try_learn(training, options).expect("inference worker panicked")
    }

    /// Learn configuration rules, surfacing inference-worker panics as a
    /// recoverable [`InferError`].
    ///
    /// # Errors
    ///
    /// Returns [`InferError::WorkerPanicked`] if a template-instantiation
    /// work unit panics.
    pub fn try_learn(training: &TrainingSet, options: &LearnOptions) -> Result<EnCore, InferError> {
        let infer_options = InferOptions {
            workers: options.workers,
            ..InferOptions::default()
        };
        let (rules, stats) = RuleInference::new(options.templates.clone()).try_infer_with(
            training,
            &options.thresholds,
            &infer_options,
        )?;
        Ok(EnCore {
            detector: AnomalyDetector::new(training, rules),
            stats,
        })
    }

    /// The learned rule set.
    pub fn rules(&self) -> &RuleSet {
        self.detector.rules()
    }

    /// Statistics from the inference run (candidates seen, rules kept,
    /// filter attributions — the data behind Tables 12 and 13).
    pub fn stats(&self) -> &InferenceStats {
        &self.stats
    }

    /// The underlying detector.
    pub fn detector(&self) -> &AnomalyDetector {
        &self.detector
    }

    /// Consume the engine, keeping only the detector (serving hosts don't
    /// need the inference statistics).
    pub fn into_detector(self) -> AnomalyDetector {
        self.detector
    }

    /// Capture the learned state as a persistable [`DetectorSnapshot`]
    /// ("train once, detect many": the snapshot reconstructs an
    /// [`AnomalyDetector`] without the training corpus).
    pub fn snapshot(&self) -> DetectorSnapshot {
        self.detector.snapshot()
    }

    /// Check a target image: assemble it, then run all four anomaly checks.
    ///
    /// # Errors
    ///
    /// Propagates assembly failures (missing or unparseable configuration).
    pub fn check_image(
        &self,
        app: AppKind,
        image: &SystemImage,
    ) -> Result<Report, encore_assemble::AssembleError> {
        self.detector.check_image(app, image)
    }

    /// Check a whole target fleet in one batch (see
    /// [`AnomalyDetector::check_fleet`]).
    ///
    /// # Panics
    ///
    /// Panics if a detection worker panics;
    /// [`AnomalyDetector::try_check_fleet`] surfaces that recoverably.
    pub fn check_fleet(
        &self,
        app: AppKind,
        images: &[SystemImage],
        options: &FleetOptions,
    ) -> Vec<Result<Report, encore_assemble::AssembleError>> {
        self.detector.check_fleet(app, images, options)
    }
}
