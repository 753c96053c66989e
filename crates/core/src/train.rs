//! Training sets: the systems of one application, pivoted once into the
//! column table every learner reads.
//!
//! `collect` assembles the images on the worker pool.  Each worker is the
//! [`CellSink`] its images are assembled into: it encodes every cell
//! straight into its own dictionaries and tallies each entry's type vote,
//! so no row exists for a training image, and it types values through its
//! own memo of syntactic candidates.  The main thread then merges the
//! workers' votes into a [`TypeMap`] by majority and their encoded rows
//! into a [`StatsCache`] — the one `encore_assemble::column_store` call
//! per training set.  A [`TrainingSet`] keeps that table, for the
//! value-level work (rule inference, the filters, the detector's
//! statistics), and the images in row order, for environment-level
//! validation such as path ownership or accessibility checks.

use crate::stats::StatsCache;
use crate::types::TypeMap;
use encore_assemble::{AssembleError, Assembler, CellSink, TypeMemo};
use encore_model::{AppKind, AttrName, ConfigValue, EncodedRow, RowEncoder, SemType};
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
            |worker, image| assembler.assemble_into(app, image, worker),
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

/// One assembly worker: the [`CellSink`] of the images it assembles.  It
/// holds its encoder, the type votes of the original entries it has
/// encoded, by encoder-local attribute id, and its memo of syntactic
/// candidates.
pub(crate) struct Worker {
    index: usize,
    encoder: RowEncoder,
    votes: Vec<Vec<SemType>>,
    memo: TypeMemo,
    /// Distinct environment attributes of the image being encoded.
    env_attrs: u64,
}

impl CellSink for Worker {
    /// Encode the cell and tally its type: the image's first cell for the
    /// entry adds a vote, and a later one replaces it, so an image votes
    /// once per entry, with the type of the entry's last value.
    fn entry(&mut self, attr: AttrName, value: ConfigValue, ty: SemType) {
        let (local, first) = self.encoder.put(&attr, &value);
        if local >= self.votes.len() {
            self.votes.resize(local + 1, Vec::new());
        }
        let votes = &mut self.votes[local];
        if first {
            votes.push(ty);
        } else {
            *votes.last_mut().expect("the image voted for this entry") = ty;
        }
    }

    fn env(&mut self, attr: AttrName, value: ConfigValue) {
        let (_, first) = self.encoder.put(&attr, &value);
        self.env_attrs += u64::from(first);
    }

    fn type_memo(&mut self) -> Option<&mut TypeMemo> {
        Some(&mut self.memo)
    }
}

impl Worker {
    /// Close the image the worker has been encoding.
    fn finish(&mut self, id: &str) -> (usize, EncodedRow) {
        encore_assemble::obs::AUGMENTED_ATTRS.add(std::mem::take(&mut self.env_attrs));
        (self.index, self.encoder.finish(id))
    }
}

/// Assemble `images` with `assemble` on `workers` pool threads, keep the
/// images that assemble, in image order, merge their entry types by
/// majority vote, and merge their encoded rows into the training set's
/// table — the one training-set path, shared with
/// [`crate::cross::CrossAssembler::assemble_training_set`].
///
/// `assemble` puts an image's cells into the worker it runs on, which
/// encodes them and tallies the votes as they come, so the main thread
/// only merges the workers' dictionaries, votes and integer cells.  The
/// name-keyed vote map is built once per attribute per worker, and the
/// merged table is the same for every worker count.
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
            encoder: RowEncoder::new(),
            votes: Vec::new(),
            memo: TypeMemo::default(),
            env_attrs: 0,
        },
        |worker, image| match assemble(worker, image) {
            Ok(()) => Ok(worker.finish(image.id())),
            Err(e) => {
                // Assembly parses before it emits a cell, so this drops
                // nothing; it keeps a failed image out of the next row.
                worker.encoder.discard();
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
        for (attr, tys) in worker.encoder.attrs().iter().zip(&worker.votes) {
            if !tys.is_empty() {
                votes.entry(attr.clone()).or_default().extend(tys);
            }
        }
    }
    let types = TypeMap::merge_votes(&votes);
    let encoders: Vec<RowEncoder> = states.into_iter().map(|w| w.encoder).collect();
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

    #[test]
    fn collect_is_identical_for_every_worker_count() {
        let assembler = Assembler::new();
        for (app, n, unparseable) in [
            (AppKind::Mysql, 60, "[mysqld\nport = 3306\n"),
            (AppKind::Apache, 40, "</Directory>\n"),
        ] {
            let images = broken_set(app, n, unparseable);
            // The sequential loop `collect` replaced: every image that
            // assembles, in image order, pivoted.
            let (kept, rows): (Vec<&SystemImage>, Vec<Row>) = images
                .iter()
                .filter_map(|img| Some((img, assembler.assemble_image(app, img).ok()?)))
                .unzip();
            assert_eq!(rows.len(), n, "{app}: two broken images skipped");
            let reference =
                StatsCache::from_rows(&rows.iter().collect::<Vec<_>>(), &TypeMap::new());
            // And the type vote over each image's assembled types.
            let mut votes: BTreeMap<AttrName, Vec<SemType>> = BTreeMap::new();
            for img in &kept {
                for (attr, ty) in assembler.assemble_system(app, img).unwrap().types {
                    votes.entry(attr).or_default().push(ty);
                }
            }
            let assemble =
                |worker: &mut Worker, img: &SystemImage| assembler.assemble_into(app, img, worker);
            let one = collect(app, &images, 1, assemble).unwrap();
            assert_eq!(table(one.stats_cache()), table(&reference), "{app}");
            assert_eq!(one.types(), &TypeMap::merge_votes(&votes), "{app}");
            assert_eq!(
                ids(one.images()),
                kept.iter().map(|img| img.id()).collect::<Vec<_>>(),
                "{app}"
            );
            for workers in [2, 3, 8] {
                let many = collect(app, &images, workers, assemble).unwrap();
                let ctx = format!("{app}, {workers} workers");
                assert_eq!(table(many.stats_cache()), table(one.stats_cache()), "{ctx}");
                assert_eq!(many.types(), one.types(), "{ctx}");
                assert_eq!(ids(many.images()), ids(one.images()), "{ctx}");
            }
        }
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
                    assembler.assemble_into(AppKind::Mysql, img, worker)
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
            Assembler::new().assemble_into(AppKind::Mysql, image, worker)
        });
    }
}
