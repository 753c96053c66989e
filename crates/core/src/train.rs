//! Training sets: assembled rows paired with their system images.
//!
//! Rule inference needs both the environment-enriched rows (for value-level
//! relations) and the raw images (for environment-level validation such as
//! path concatenation or accessibility checks).

use crate::types::TypeMap;
use encore_assemble::{AssembleError, Assembler};
use encore_model::{AppKind, AttrName, Dataset, Row, SemType};
use encore_sysimage::SystemImage;
use std::collections::BTreeMap;

/// A fully assembled training set.
#[derive(Debug, Clone)]
pub struct TrainingSet {
    systems: Vec<(Row, SystemImage)>,
    types: TypeMap,
    app: AppKind,
}

impl TrainingSet {
    /// Build a training set from pre-assembled parts (used by the
    /// cross-component extension, [`crate::cross`]).
    pub fn from_parts(
        app: AppKind,
        systems: Vec<(Row, SystemImage)>,
        types: TypeMap,
    ) -> TrainingSet {
        TrainingSet {
            systems,
            types,
            app,
        }
    }

    /// Assemble a training set from images with the default [`Assembler`].
    ///
    /// Images whose configuration is missing or unparseable are skipped, as
    /// a crawler must tolerate; the per-image types are merged by majority
    /// vote into the stored [`TypeMap`].
    ///
    /// # Errors
    ///
    /// Returns the first assembly error only if *no* image assembles.
    pub fn assemble(app: AppKind, images: &[SystemImage]) -> Result<TrainingSet, AssembleError> {
        TrainingSet::assemble_with(&Assembler::new(), app, images)
    }

    /// Assemble with a caller-supplied (possibly customized) assembler.
    ///
    /// # Errors
    ///
    /// Returns the first assembly error only if *no* image assembles.
    pub fn assemble_with(
        assembler: &Assembler,
        app: AppKind,
        images: &[SystemImage],
    ) -> Result<TrainingSet, AssembleError> {
        let mut systems = Vec::new();
        let mut votes: BTreeMap<AttrName, Vec<SemType>> = BTreeMap::new();
        let mut first_err = None;
        for img in images {
            match assembler.assemble_system(app, img) {
                Ok(assembled) => {
                    for (attr, ty) in &assembled.types {
                        votes.entry(attr.clone()).or_default().push(*ty);
                    }
                    systems.push((assembled.row, img.clone()));
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if systems.is_empty() {
            if let Some(e) = first_err {
                return Err(e);
            }
        }
        Ok(TrainingSet {
            systems,
            types: TypeMap::merge_votes(&votes),
            app,
        })
    }

    /// The application this training set describes.
    pub fn app(&self) -> AppKind {
        self.app
    }

    /// The assembled systems (row + image).
    pub fn systems(&self) -> &[(Row, SystemImage)] {
        &self.systems
    }

    /// Number of training systems.
    pub fn len(&self) -> usize {
        self.systems.len()
    }

    /// Whether the training set is empty.
    pub fn is_empty(&self) -> bool {
        self.systems.is_empty()
    }

    /// The merged type map.
    pub fn types(&self) -> &TypeMap {
        &self.types
    }

    /// A dataset view of the rows (cloned), for statistics and mining.
    pub fn dataset(&self) -> Dataset {
        self.systems.iter().map(|(r, _)| r.clone()).collect()
    }

    /// The assembled rows, borrowed, in training order.
    pub fn rows(&self) -> Vec<&Row> {
        self.systems.iter().map(|(r, _)| r).collect()
    }

    /// A fresh per-run statistics cache (resolved attribute types + memoized
    /// value entropies) over this training set's rows.
    pub fn stats_cache(&self) -> crate::stats::StatsCache {
        crate::stats::StatsCache::from_rows(&self.rows(), &self.types)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img(id: &str) -> SystemImage {
        SystemImage::builder(id)
            .user("mysql", 27, &["mysql"])
            .dir("/var/lib/mysql", "mysql", "mysql", 0o700)
            .file(
                "/etc/mysql/my.cnf",
                "root",
                "root",
                0o644,
                "[mysqld]\nuser = mysql\ndatadir = /var/lib/mysql\n",
            )
            .build()
    }

    #[test]
    fn assembles_and_merges_types() {
        let images: Vec<_> = (0..3).map(|i| img(&format!("i{i}"))).collect();
        let ts = TrainingSet::assemble(AppKind::Mysql, &images).unwrap();
        assert_eq!(ts.len(), 3);
        assert_eq!(
            ts.types().type_of(&AttrName::entry("datadir")),
            SemType::FilePath
        );
        assert_eq!(ts.app(), AppKind::Mysql);
    }

    #[test]
    fn skips_broken_images() {
        let images = vec![img("good"), SystemImage::builder("broken").build()];
        let ts = TrainingSet::assemble(AppKind::Mysql, &images).unwrap();
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn all_broken_is_error() {
        let images = vec![SystemImage::builder("b1").build()];
        assert!(TrainingSet::assemble(AppKind::Mysql, &images).is_err());
    }

    #[test]
    fn dataset_view_matches() {
        let images: Vec<_> = (0..2).map(|i| img(&format!("i{i}"))).collect();
        let ts = TrainingSet::assemble(AppKind::Mysql, &images).unwrap();
        assert_eq!(ts.dataset().num_rows(), 2);
    }
}
