//! Training sets: the systems of one application, pivoted once into the
//! column table every learner reads.
//!
//! `collect` assembles the images on the worker pool.  Each worker parses
//! into its own pair buffer and assembles into its own [`EncodedCells`]:
//! every cell is encoded straight into the worker's dictionaries and each
//! entry's type vote tallied, so no row exists for a training image, and
//! the worker's memo keeps what it has learned of each distinct entry.
//! The main thread then merges the workers' votes into a [`TypeMap`] by
//! majority and their encoded rows into a [`StatsCache`] — the one
//! `encore_assemble::column_store` call per training set.  A [`TrainingSet`] keeps that table, for the
//! value-level work (rule inference, the filters, the detector's
//! statistics), and the images in row order, for environment-level
//! validation such as path ownership or accessibility checks.

use crate::stats::StatsCache;
use crate::types::TypeMap;
use encore_assemble::{AssembleError, Assembler, EncodedCells, Pairs};
use encore_model::{AppKind, AttrName, RowEncoder, SemType};
use encore_sysimage::SystemImage;
use std::collections::BTreeMap;

/// A fully assembled training set.
#[derive(Debug)]
pub struct TrainingSet {
    /// The images that assembled, in row order.
    images: Vec<SystemImage>,
    cache: StatsCache,
    app: AppKind,
}

impl TrainingSet {
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
    /// The images are assembled on the worker pool, one thread per
    /// available core, and merged in image order: the result is the same
    /// for every worker count.
    ///
    /// # Errors
    ///
    /// Returns the first assembly error only if *no* image assembles.
    pub fn assemble_with(
        assembler: &Assembler,
        app: AppKind,
        images: &[SystemImage],
    ) -> Result<TrainingSet, AssembleError> {
        collect(
            app,
            images,
            crate::pool::available_workers(),
            |worker, image| {
                assembler.assemble_into(app, image, &mut worker.pairs, &mut worker.cells)
            },
        )
    }

    /// The application this training set describes.
    pub fn app(&self) -> AppKind {
        self.app
    }

    /// The images that assembled, in row order: image `i` is row `i` of
    /// [`TrainingSet::stats_cache`].
    pub fn images(&self) -> &[SystemImage] {
        &self.images
    }

    /// Number of training systems.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the training set is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// The merged type map.
    pub fn types(&self) -> &TypeMap {
        self.cache.types()
    }

    /// The training set's column table: resolved attribute types, the
    /// interned value columns and memoized value entropies.
    pub fn stats_cache(&self) -> &StatsCache {
        &self.cache
    }
}

/// One assembly worker: the buffer its images' configurations are parsed
/// into, and the [`EncodedCells`] they are assembled into.
pub(crate) struct Worker {
    index: usize,
    pub(crate) pairs: Pairs,
    pub(crate) cells: EncodedCells,
}

/// Assemble `images` with `assemble` on `workers` pool threads, keep the
/// images that assemble, in image order, merge their entry types by
/// majority vote, and merge their encoded rows into the training set's
/// table — the one training-set path, shared with
/// [`crate::cross::CrossAssembler::assemble_training_set`].
///
/// `assemble` puts an image's cells into the worker it runs on, whose
/// [`EncodedCells`] encodes them and tallies the votes as they come, so
/// the main thread only merges the workers' dictionaries, votes and
/// integer cells.  The name-keyed vote map is built once per attribute per
/// worker, and the merged table is the same for every worker count.
///
/// # Errors
///
/// The lowest-index image's error, only when no image assembles.
///
/// # Panics
///
/// Panics when assembling an image panics, as a sequential loop would.
pub(crate) fn collect<F>(
    app: AppKind,
    images: &[SystemImage],
    workers: usize,
    assemble: F,
) -> Result<TrainingSet, AssembleError>
where
    F: Fn(&mut Worker, &SystemImage) -> Result<(), AssembleError> + Sync,
{
    let (assembled, states) = crate::pool::run_units_with(
        images,
        workers,
        &crate::obs::ASSEMBLE_POOL_METRICS,
        |index| Worker {
            index,
            pairs: Pairs::new(),
            cells: EncodedCells::new(),
        },
        |worker, image| match assemble(worker, image) {
            Ok(()) => Ok((worker.index, worker.cells.finish(image.id()))),
            Err(e) => {
                // Assembly parses before it emits a cell, so this drops
                // nothing; it keeps a failed image out of the next row.
                worker.cells.discard();
                Err(e)
            }
        },
    )
    .unwrap_or_else(|e| panic!("{e}"));
    let mut rows = Vec::new();
    let mut kept = Vec::new();
    let mut first_err = None;
    for (image, result) in images.iter().zip(assembled) {
        match result {
            Ok(row) => {
                rows.push(row);
                kept.push(image.clone());
            }
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    if rows.is_empty() {
        if let Some(e) = first_err {
            return Err(e);
        }
    }
    let mut votes: BTreeMap<AttrName, Vec<SemType>> = BTreeMap::new();
    for worker in &states {
        let cells = &worker.cells;
        for (attr, tys) in cells.encoder().attrs().iter().zip(cells.votes()) {
            if !tys.is_empty() {
                votes.entry(attr.clone()).or_default().extend(tys);
            }
        }
    }
    let types = TypeMap::merge_votes(&votes);
    let encoders: Vec<RowEncoder> = states.into_iter().map(|w| w.cells.into_encoder()).collect();
    Ok(TrainingSet {
        images: kept,
        cache: StatsCache::from_encoded(&encoders, &rows, &types),
        app,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_model::{Row, ValueId};
    use std::collections::BTreeSet;

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

    /// `image` with its `app` configuration replaced by `text`.
    fn with_config(image: &SystemImage, app: AppKind, id: &str, text: &str) -> SystemImage {
        let mut vfs = image.vfs().clone();
        vfs.add_file(app.config_path(), "root", "root", 0o644, text);
        SystemImage::builder(id).build().with_vfs(vfs)
    }

    /// A generated set with a missing-config image and an unparseable
    /// image inserted among the good ones.
    fn broken_set(app: AppKind, n: usize, unparseable: &str) -> Vec<SystemImage> {
        use encore_corpus::genimage::{Population, PopulationOptions};
        let mut images = Population::training(app, &PopulationOptions::new(n, 5))
            .images()
            .to_vec();
        let donor = images[0].clone();
        let mut missing = donor.vfs().clone();
        missing.remove(app.config_path());
        images.insert(
            n / 3,
            SystemImage::builder("missing").build().with_vfs(missing),
        );
        let bad = with_config(&donor, app, "unparseable", unparseable);
        assert!(matches!(
            Assembler::new().assemble_system(app, &bad),
            Err(AssembleError::Parse(_))
        ));
        images.insert(2 * n / 3, bad);
        images
    }

    /// The table a pivot decides: the attributes, and each column's value
    /// ids and presence bits.
    type Table = (Vec<AttrName>, Vec<(Vec<Option<ValueId>>, Vec<u64>)>);

    fn table(cache: &StatsCache) -> Table {
        let store = cache.columns();
        let columns = (0..store.num_columns())
            .map(|i| {
                let column = store.column(i);
                let ids = (0..store.num_rows()).map(|r| column.value_id(r)).collect();
                (ids, column.presence().to_vec())
            })
            .collect();
        (cache.attributes().to_vec(), columns)
    }

    fn ids(images: &[SystemImage]) -> Vec<&str> {
        images.iter().map(SystemImage::id).collect()
    }

    /// One image's target assembly: its row and its entry types.
    type Target = (Row, Vec<(AttrName, SemType)>);

    /// `collect` with `assemble` on 1, 2, 3 and 8 workers keeps the images
    /// that `target` assembles, in image order, and gives the table of
    /// their target rows (`StatsCache::from_rows`, the sequential loop
    /// `collect` replaced) and the majority of their entry types.
    fn assert_collect_is_target_assembly<F>(
        case: &str,
        app: AppKind,
        images: &[SystemImage],
        target: impl Fn(&SystemImage) -> Option<Target>,
        assemble: F,
    ) where
        F: Fn(&mut Worker, &SystemImage) -> Result<(), AssembleError> + Sync,
    {
        let (kept, targets): (Vec<&str>, Vec<Target>) = images
            .iter()
            .filter_map(|img| Some((img.id(), target(img)?)))
            .unzip();
        let rows: Vec<&Row> = targets.iter().map(|(row, _)| row).collect();
        let reference = StatsCache::from_rows(&rows, &TypeMap::new());
        let mut votes: BTreeMap<AttrName, Vec<SemType>> = BTreeMap::new();
        for (_, types) in &targets {
            for (attr, ty) in types {
                votes.entry(attr.clone()).or_default().push(*ty);
            }
        }
        let types = TypeMap::merge_votes(&votes);
        for workers in [1, 2, 3, 8] {
            let set = collect(app, images, workers, &assemble).unwrap();
            let ctx = format!("{case}, {workers} workers");
            assert_eq!(table(set.stats_cache()), table(&reference), "{ctx}");
            assert_eq!(set.types(), &types, "{ctx}");
            assert_eq!(ids(set.images()), kept, "{ctx}");
        }
    }

    /// `assembler`'s target assembly of `app` in `img`.
    fn target_of(assembler: &Assembler, app: AppKind, img: &SystemImage) -> Option<Target> {
        let system = assembler.assemble_system(app, img).ok()?;
        Some((system.row, system.types))
    }

    /// MySQL images that all hold the same lines, whose verdicts differ
    /// between images: `/srv/data` exists, the user `alice` exists and
    /// port 3307 is in `/etc/services` on every other image only.  An
    /// entry also repeats within each image, once with the same value and
    /// once with a change of type.
    fn verdicts_differ(n: usize) -> Vec<SystemImage> {
        (0..n)
            .map(|i| {
                let mut builder = SystemImage::builder(format!("v{i}")).file(
                    "/etc/mysql/my.cnf",
                    "root",
                    "root",
                    0o644,
                    "[mysqld]\ndatadir = /srv/data\nuser = alice\nport = 3307\n\
                     user = alice\ntmpdir = /srv/data\ntmpdir = /no/such/dir\n",
                );
                if i % 2 == 0 {
                    builder = builder
                        .dir("/srv/data", "alice", "alice", 0o700)
                        .user("alice", 1000 + i as u32, &["alice"])
                        .service("mysql-alt", 3307);
                }
                builder.build()
            })
            .collect()
    }

    #[test]
    fn collect_is_identical_for_every_worker_count() {
        let assembler = Assembler::new();
        for (app, n, unparseable) in [
            (AppKind::Mysql, 60, "[mysqld\nport = 3306\n"),
            (AppKind::Apache, 40, "</Directory>\n"),
            (AppKind::Php, 40, "[PHP]\nbare_flag\n"),
        ] {
            let images = broken_set(app, n, unparseable);
            assert_eq!(
                images
                    .iter()
                    .filter(|img| assembler.assemble_system(app, img).is_ok())
                    .count(),
                n,
                "{app}: two broken images skipped"
            );
            assert_collect_is_target_assembly(
                app.name(),
                app,
                &images,
                |img| target_of(&assembler, app, img),
                |worker: &mut Worker, img: &SystemImage| {
                    assembler.assemble_into(app, img, &mut worker.pairs, &mut worker.cells)
                },
            );
        }

        let images = verdicts_differ(12);
        let types: Vec<SemType> = images[..2]
            .iter()
            .flat_map(|img| {
                assembler
                    .assemble_system(AppKind::Mysql, img)
                    .unwrap()
                    .types
            })
            .map(|(_, ty)| ty)
            .collect();
        assert!(
            types.contains(&SemType::FilePath)
                && types.contains(&SemType::UserName)
                && types.contains(&SemType::PortNumber)
                && types.contains(&SemType::Number),
            "{types:?}"
        );
        assert_collect_is_target_assembly(
            "verdicts that differ between images",
            AppKind::Mysql,
            &images,
            |img| target_of(&assembler, AppKind::Mysql, img),
            |worker: &mut Worker, img: &SystemImage| {
                assembler.assemble_into(AppKind::Mysql, img, &mut worker.pairs, &mut worker.cells)
            },
        );

        // A custom type that claims values predefined types also match,
        // and assembly without augmentation.
        let four_digits = Assembler::new().with_custom_type(encore_assemble::CustomType::new(
            "FourDigits",
            SemType::PortNumber,
            |v| v.len() == 4 && v.bytes().all(|b| b.is_ascii_digit()),
        ));
        let original = Assembler::new().without_augmentation();
        for (case, assembler, app) in [
            ("custom type", &four_digits, AppKind::Mysql),
            ("without augmentation", &original, AppKind::Apache),
        ] {
            let images = broken_set(app, 30, "[mysqld\n</Directory>\n");
            assert_collect_is_target_assembly(
                case,
                app,
                &images,
                |img| target_of(assembler, app, img),
                |worker: &mut Worker, img: &SystemImage| {
                    assembler.assemble_into(app, img, &mut worker.pairs, &mut worker.cells)
                },
            );
        }
    }

    /// A cross-component set whose MySQL and PHP configurations share a
    /// `key = value` line: the two entries keep apart in the memo.
    #[test]
    fn cross_component_entries_keep_apart() {
        use crate::cross::CrossAssembler;
        let images: Vec<SystemImage> = (0..10)
            .map(|i| {
                let user = if i % 3 == 0 { "mysql" } else { "www" };
                SystemImage::builder(format!("x{i}"))
                    .user("mysql", 27, &["mysql"])
                    .dir("/var/lib/mysql", "mysql", "mysql", 0o700)
                    .file(
                        "/etc/mysql/my.cnf",
                        "root",
                        "root",
                        0o644,
                        &format!("[mysqld]\nuser = mysql\ndatadir = /var/lib/mysql\nport = {i}\n"),
                    )
                    .file(
                        "/etc/php.ini",
                        "root",
                        "root",
                        0o644,
                        &format!("[PHP]\nuser = {user}\ndatadir = /var/lib/mysql\n"),
                    )
                    .build()
            })
            .collect();
        let cross = CrossAssembler::new(vec![AppKind::Mysql, AppKind::Php]);
        let (row, _) = cross.assemble_image(&images[0]).unwrap();
        for name in ["mysql:user", "php:user", "php:datadir.owner"] {
            assert!(
                row.iter().any(|(attr, _)| attr.to_string() == name),
                "{name}"
            );
        }
        assert_collect_is_target_assembly(
            "cross",
            AppKind::Mysql,
            &images,
            |img| {
                let (row, types) = cross.assemble_image(img).ok()?;
                Some((row, types.into_iter().collect()))
            },
            |worker: &mut Worker, img: &SystemImage| {
                cross.assemble_into(img, &mut worker.pairs, &mut worker.cells)
            },
        );
    }

    #[test]
    fn all_broken_returns_the_lowest_index_error() {
        let donor = img("donor");
        let images = [
            SystemImage::builder("no-config").build(),
            with_config(&donor, AppKind::Mysql, "bad-1", "[mysqld\n"),
            with_config(&donor, AppKind::Mysql, "bad-3", "[mysqld]\nport = 1\n[x\n"),
        ];
        let assembler = Assembler::new();
        let errors: BTreeSet<String> = images
            .iter()
            .map(|img| {
                let err = assembler.assemble_system(AppKind::Mysql, img).unwrap_err();
                err.to_string()
            })
            .collect();
        assert_eq!(
            errors.len(),
            3,
            "the three errors are told apart: {errors:?}"
        );
        for start in 0..images.len() {
            let rotated: Vec<SystemImage> = images[start..]
                .iter()
                .chain(&images[..start])
                .cloned()
                .collect();
            let first = assembler
                .assemble_system(AppKind::Mysql, &rotated[0])
                .unwrap_err()
                .to_string();
            for workers in [1, 2, 3, 8] {
                let err = collect(AppKind::Mysql, &rotated, workers, |worker, img| {
                    assembler.assemble_into(
                        AppKind::Mysql,
                        img,
                        &mut worker.pairs,
                        &mut worker.cells,
                    )
                })
                .unwrap_err();
                assert_eq!(err.to_string(), first, "start {start}, {workers} workers");
            }
        }
    }

    #[test]
    #[should_panic(expected = "assembly blew up")]
    fn a_panicking_image_panics_the_caller() {
        let images: Vec<_> = (0..4).map(|i| img(&format!("i{i}"))).collect();
        let _ = collect(AppKind::Mysql, &images, 2, |worker, image| {
            if image.id() == "i2" {
                panic!("assembly blew up");
            }
            Assembler::new().assemble_into(
                AppKind::Mysql,
                image,
                &mut worker.pairs,
                &mut worker.cells,
            )
        });
    }
}
