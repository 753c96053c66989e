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
use encore_assemble::{AssembleError, Assembler, CellSink, SystemCells, TypeMemo};
use encore_model::{AppKind, AttrName, Augmentation, ConfigValue, Row, SemType};
use encore_sysimage::SystemImage;
use std::collections::BTreeMap;

/// Prefix an attribute with its component name (`php:user`).
/// System-wide attributes (`Sys.*`, `OS.*`, hardware) describe the shared
/// host and keep their names.
pub fn prefixed(app: AppKind, attr: &AttrName) -> AttrName {
    match attr.augmentation() {
        Augmentation::SystemWide => attr.clone(),
        Augmentation::Original | Augmentation::EnvProperty => {
            attr.with_base(format!("{}:{}", app.name(), attr.base()))
        }
    }
}

/// The [`CellSink`] of one component's cells: each name [`prefixed`] with
/// the component, into the sink of the whole image.
struct Prefixed<'s, S> {
    app: AppKind,
    sink: &'s mut S,
}

impl<S: CellSink> CellSink for Prefixed<'_, S> {
    fn entry(&mut self, attr: AttrName, value: ConfigValue, ty: SemType) {
        self.sink.entry(prefixed(self.app, &attr), value, ty);
    }

    fn env(&mut self, attr: AttrName, value: ConfigValue) {
        self.sink.env(prefixed(self.app, &attr), value);
    }

    fn type_memo(&mut self) -> Option<&mut TypeMemo> {
        self.sink.type_memo()
    }
}

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
        self.assemble_into(image, &mut cells)?;
        let system = cells.finish(image.id());
        Ok((system.row, system.types.into_iter().collect()))
    }

    /// Emit every component's cells into `sink`, prefixed, in component
    /// order.  Every component is parsed first, so nothing reaches `sink`
    /// when one fails.
    fn assemble_into(
        &self,
        image: &SystemImage,
        sink: &mut impl CellSink,
    ) -> Result<(), AssembleError> {
        let parsed = self
            .apps
            .iter()
            .map(|&app| Ok((app, self.assembler.parse(app, image)?)))
            .collect::<Result<Vec<_>, AssembleError>>()?;
        for (app, pairs) in parsed {
            self.assembler
                .assemble_pairs(&pairs, image, &mut Prefixed { app, sink });
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
            |worker, image| self.assemble_into(image, worker),
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

    #[test]
    fn prefixing_keeps_system_attrs_shared() {
        let apache_user = AttrName::entry("User");
        let p = prefixed(AppKind::Apache, &apache_user);
        assert_eq!(p.to_string(), "apache:User");
        let sys = AttrName::system("Sys.HostName");
        assert_eq!(prefixed(AppKind::Php, &sys), sys);
        let aug = AttrName::entry("datadir").augmented("owner");
        assert_eq!(
            prefixed(AppKind::Mysql, &aug).to_string(),
            "mysql:datadir.owner"
        );
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
