//! Cross-component misconfiguration detection — the paper's first future
//! work item (§9): "the idea of integrating environment information can be
//! naturally extended to deal with cross-component misconfigurations: the
//! configuration of other components can be seen as one kind of
//! environment factors."
//!
//! A [`CrossAssembler`] assembles *several* applications living on one
//! image into a single attribute row, prefixing each entry with its
//! component (`php:user`, `apache:User`).  The existing template machinery
//! then learns cross-component rules — e.g. that the PHP runtime user
//! equals the Apache `User`, or that PHP's `doc_root` matches Apache's
//! `DocumentRoot` — and the ordinary detector checks them.
//!
//! # Examples
//!
//! ```no_run
//! use encore::cross::CrossAssembler;
//! use encore::prelude::*;
//! use encore_model::AppKind;
//! # let images: Vec<encore_sysimage::SystemImage> = vec![];
//!
//! let cross = CrossAssembler::new(vec![AppKind::Apache, AppKind::Php]);
//! let training = cross.assemble_training_set(&images)?;
//! let engine = EnCore::learn(&training, &LearnOptions::default());
//! # Ok::<(), encore_assemble::AssembleError>(())
//! ```

use crate::train::TrainingSet;
use encore_assemble::{AssembleError, Assembler, CellSink, Pairs, SystemCells};
use encore_model::{AppKind, AttrName, Row, SemType};
use encore_sysimage::SystemImage;
use std::collections::BTreeMap;

/// Assembles multiple components of one image into a single row.
#[derive(Debug)]
pub struct CrossAssembler {
    apps: Vec<AppKind>,
    assembler: Assembler,
}

impl CrossAssembler {
    /// Cross-assembler over the given components.
    pub fn new(apps: Vec<AppKind>) -> CrossAssembler {
        CrossAssembler {
            apps,
            assembler: Assembler::new(),
        }
    }

    /// The components being assembled.
    pub fn apps(&self) -> &[AppKind] {
        &self.apps
    }

    /// Assemble every component of one image into a merged, prefixed row,
    /// also returning the per-entry types under their prefixed names.
    ///
    /// # Errors
    ///
    /// Fails if any component's configuration is missing or unparseable —
    /// a cross-component check needs all its components.
    pub fn assemble_image(
        &self,
        image: &SystemImage,
    ) -> Result<(Row, BTreeMap<AttrName, SemType>), AssembleError> {
        let mut cells = SystemCells::default();
        self.assemble_into(image, &mut Pairs::new(), &mut cells)?;
        let system = cells.finish(image.id());
        Ok((system.row, system.types.into_iter().collect()))
    }

    /// Emit every component's cells into `sink`, in component order.
    /// Every component is parsed into `pairs` first, each key prefixed
    /// with its component (`php:user`), so nothing reaches `sink` when one
    /// fails, entry names and their Table 5a names carry the prefix, and
    /// a training worker's memo keeps the components' entries apart.
    /// System-wide attributes (`Sys.*`, `OS.*`, hardware) describe the
    /// shared host and keep their names.
    pub(crate) fn assemble_into(
        &self,
        image: &SystemImage,
        pairs: &mut Pairs,
        sink: &mut impl CellSink,
    ) -> Result<(), AssembleError> {
        pairs.clear();
        let mut parsed = Pairs::new();
        let mut key = String::new();
        let mut ends = Vec::with_capacity(self.apps.len());
        for &app in &self.apps {
            parsed.clear();
            self.assembler.parse_into(app, image, &mut parsed)?;
            // An empty key is no entry name, and prefixed it would be one.
            for (name, value) in parsed.iter().filter(|(name, _)| !name.is_empty()) {
                key.clear();
                key.push_str(app.name());
                key.push(':');
                key.push_str(name);
                pairs.push(&key, value);
            }
            ends.push(pairs.len());
        }
        let mut start = 0;
        for end in ends {
            self.assembler
                .assemble_pairs(pairs.range(start..end), image, sink);
            start = end;
        }
        Ok(())
    }

    /// Assemble a cross-component training set on the worker pool.
    /// Images missing any component are skipped.
    ///
    /// # Errors
    ///
    /// Returns the first per-image error only when *no* image assembles.
    pub fn assemble_training_set(
        &self,
        images: &[SystemImage],
    ) -> Result<TrainingSet, AssembleError> {
        let primary = self.apps.first().copied().unwrap_or(AppKind::Apache);
        crate::train::collect(
            primary,
            images,
            crate::pool::available_workers(),
            |worker, image| self.assemble_into(image, &mut worker.pairs, &mut worker.cells),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::template::Relation;

    /// A LAMP-ish image: Apache and PHP configured coherently (the PHP
    /// runtime user is Apache's `User`).
    fn lamp_image(id: &str, web_user: &str) -> SystemImage {
        SystemImage::builder(id)
            .user(web_user, 48, &[web_user])
            .dir("/var/www/html", web_user, web_user, 0o755)
            .dir("/usr/lib/php/modules", "root", "root", 0o755)
            .file(
                "/etc/httpd/conf/httpd.conf",
                "root",
                "root",
                0o644,
                &format!("User {web_user}\nDocumentRoot \"/var/www/html\"\nListen 80\n"),
            )
            .file(
                "/etc/php.ini",
                "root",
                "root",
                0o644,
                &format!("[PHP]\nuser = {web_user}\nextension_dir = /usr/lib/php/modules\n"),
            )
            .service("http", 80)
            .build()
    }

    /// A cross-assembled image holds each component's own cells, with the
    /// names of entries and their Table 5a attributes prefixed by the
    /// component, and the system-wide attributes once, unprefixed.
    #[test]
    fn prefixing_keeps_system_attrs_shared() {
        use encore_model::Augmentation;
        let image = lamp_image("lamp", "apache");
        let cross = CrossAssembler::new(vec![AppKind::Apache, AppKind::Php]);
        let (row, types) = cross.assemble_image(&image).unwrap();
        let mut expected = Row::new("lamp");
        let mut expected_types = BTreeMap::new();
        for app in cross.apps() {
            let own = Assembler::new().assemble_system(*app, &image).unwrap();
            let prefixed = |attr: &AttrName| match attr.augmentation() {
                Augmentation::SystemWide => attr.clone(),
                _ => attr.with_base(format!("{}:{}", app.name(), attr.base())),
            };
            for (attr, value) in own.row.iter() {
                expected.set(prefixed(attr), value.clone());
            }
            for (attr, ty) in &own.types {
                expected_types.insert(prefixed(attr), *ty);
            }
        }
        assert_eq!(row, expected);
        assert_eq!(types, expected_types);
        let name = |attr: &AttrName| attr.to_string();
        let names: Vec<String> = row.iter().map(|(attr, _)| name(attr)).collect();
        for wanted in [
            "apache:User",
            "php:user",
            "apache:User.isAdmin",
            "Sys.HostName",
        ] {
            assert!(names.iter().any(|n| n == wanted), "{wanted}: {names:?}");
        }
    }

    #[test]
    fn learns_cross_component_user_equality() {
        let users = ["apache", "www-data", "httpd", "web"];
        let fleet: Vec<SystemImage> = (0..16)
            .map(|i| lamp_image(&format!("lamp-{i}"), users[i % users.len()]))
            .collect();
        let cross = CrossAssembler::new(vec![AppKind::Apache, AppKind::Php]);
        let training = cross.assemble_training_set(&fleet).unwrap();
        assert_eq!(training.len(), 16);
        let engine = EnCore::learn(&training, &LearnOptions::default());
        let has_user_rule = engine.rules().by_relation(Relation::Equal).any(|r| {
            let pair = format!("{} {}", r.a, r.b);
            pair.contains("apache:User") && pair.contains("php:user")
        });
        assert!(
            has_user_rule,
            "expected apache:User == php:user, got:\n{}",
            engine.rules().render()
        );
    }

    #[test]
    fn detects_cross_component_mismatch() {
        let users = ["apache", "www-data", "httpd", "web"];
        let fleet: Vec<SystemImage> = (0..16)
            .map(|i| lamp_image(&format!("lamp-{i}"), users[i % users.len()]))
            .collect();
        let cross = CrossAssembler::new(vec![AppKind::Apache, AppKind::Php]);
        let training = cross.assemble_training_set(&fleet).unwrap();
        let engine = EnCore::learn(&training, &LearnOptions::default());

        // Target: Apache runs as `apache` but PHP thinks it is `www-data`.
        let mut broken = lamp_image("broken", "apache");
        let mut vfs = broken.vfs().clone();
        vfs.add_file(
            "/etc/php.ini",
            "root",
            "root",
            0o644,
            "[PHP]\nuser = www-data\nextension_dir = /usr/lib/php/modules\n",
        );
        broken = broken.with_vfs(vfs);
        let (row, _) = cross.assemble_image(&broken).unwrap();
        let report = engine.detector().check(&row, Some(&broken));
        assert!(
            report
                .warnings()
                .iter()
                .any(|w| w.kind() == WarningKind::CorrelationViolation
                    && w.detail().contains("php:user")),
            "{report:?}"
        );
    }

    #[test]
    fn missing_component_skips_image() {
        let good = lamp_image("good", "apache");
        let apache_only = SystemImage::builder("apache-only")
            .file(
                "/etc/httpd/conf/httpd.conf",
                "root",
                "root",
                0o644,
                "User apache\nListen 80\n",
            )
            .build();
        let cross = CrossAssembler::new(vec![AppKind::Apache, AppKind::Php]);
        let training = cross.assemble_training_set(&[good, apache_only]).unwrap();
        assert_eq!(training.len(), 1);
    }
}
