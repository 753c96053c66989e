//! Data assembler (§4): parsing, type inference, environment augmentation.
//!
//! The assembler takes raw system files (the target configuration files plus
//! the system environment captured in a [`SystemImage`]) and emits one
//! uniform, environment-enriched set of cells per system, the table the
//! rule learner consumes:
//!
//! 1. **Parsing** (§4.1) — delegated to `encore-parser` lenses,
//! 2. **Type inference** (§4.2) — a two-step process: cheap *syntactic
//!    matching* against the regex table of paper Table 4, followed by a
//!    heavy-weight *semantic verification* against the environment
//!    ([`infer::TypeInference`]),
//! 3. **Environment integration** (§4.3) — augmenting each typed entry with
//!    the environment attributes of paper Table 5a, plus the system-wide
//!    attributes of Table 5b ([`augment`]).
//!
//! The cells go, in the order the assembler sets them, into a [`CellSink`]
//! the caller owns.  A training worker's [`EncodedCells`] encodes them
//! straight into its column dictionaries (`encore::TrainingSet`), so no
//! [`Row`] exists for a training image, and keeps one memo slot per
//! distinct parsed entry, so an entry it has met before costs only what
//! depends on the image; [`SystemCells`] sorts a target's cells once into
//! its [`Row`] and entry types (a detector checking a target keeps a sink
//! of its own, keyed by its attribute table).
//!
//! The assembler is customizable (§5.3): user-defined types take priority
//! over the predefined ones, exactly as the customization-file semantics
//! prescribe.
//!
//! # Examples
//!
//! ```
//! use encore_assemble::Assembler;
//! use encore_model::AppKind;
//! use encore_sysimage::SystemImage;
//!
//! let img = SystemImage::builder("img-0")
//!     .user("mysql", 27, &["mysql"])
//!     .dir("/var/lib/mysql", "mysql", "mysql", 0o700)
//!     .file(
//!         "/etc/mysql/my.cnf",
//!         "root", "root", 0o644,
//!         "[mysqld]\nuser = mysql\ndatadir = /var/lib/mysql\n",
//!     )
//!     .build();
//! let assembler = Assembler::new();
//! let row = assembler.assemble_image(AppKind::Mysql, &img)?;
//! assert!(row.iter().any(|(a, _)| a.to_string() == "datadir.owner"));
//! # Ok::<(), encore_assemble::AssembleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod augment;
pub mod infer;
mod memo;
pub mod obs;
pub mod syntactic;

pub use augment::EnvValue;
pub use encore_parser::Pairs;
pub use infer::{CustomType, TypeInference};
pub use memo::EncodedCells;

use encore_model::{AppKind, AttrName, ConfigValue, Row, SemType};
use encore_parser::{LensRegistry, ParseError};
use encore_sysimage::SystemImage;
use std::fmt;

/// Errors produced during data assembly.
#[derive(Debug)]
#[non_exhaustive]
pub enum AssembleError {
    /// The image does not contain the application's configuration file.
    MissingConfig {
        /// Application whose config was expected.
        app: AppKind,
        /// Path looked up.
        path: String,
    },
    /// The configuration file failed to parse.
    Parse(ParseError),
}

impl fmt::Display for AssembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssembleError::MissingConfig { app, path } => {
                write!(f, "image has no {app} configuration at {path}")
            }
            AssembleError::Parse(e) => write!(f, "parse failure: {e}"),
        }
    }
}

impl std::error::Error for AssembleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AssembleError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for AssembleError {
    fn from(e: ParseError) -> Self {
        AssembleError::Parse(e)
    }
}

/// Where assembly puts one system's cells, in the order it sets them.
///
/// Assembly opens each parsed entry in file order, types its value, hands
/// the sink the entry's Table 5a cells and then the entry's own cell, and
/// after the last entry the system-wide cells of Table 5b.  A later cell
/// for an attribute replaces the earlier one, as [`Row::set`] does: a
/// repeated entry's last value and type win, and the cells an earlier
/// occurrence's augmentation set stay unless a later one sets them again.
/// Assembly parses before it emits a cell, so a system that fails to
/// assemble emits none.  Each sink counts the distinct environment
/// attributes of a finished system into `assemble.augment.attrs`.
///
/// A sink takes an entry by reference and answers with its own handle of
/// it: [`SystemCells`] builds the entry's name and owned cells, and a
/// training worker's [`EncodedCells`] answers with its memo slot, so a
/// cell it already knows costs no allocation and no name or value hash.
pub trait CellSink {
    /// The sink's handle of an open entry.
    type Entry;

    /// Open the entry `key = raw`, or `None` when `key` is not an entry
    /// name ([`AttrName::try_entry`]): assembly skips it.
    fn open(&mut self, key: &str, raw: &str) -> Option<Self::Entry>;

    /// The syntactic candidates of the entry's value, if the sink keeps
    /// them ([`TypeInference::infer_among`]).
    fn candidates(&self, _entry: &Self::Entry) -> Option<&[SemType]> {
        None
    }

    /// Cell `i` of the Table 5a cells the entry's type `ty` adds: the
    /// attribute with the `i`-th of [`augment::suffixes`] of `ty`.
    fn env(&mut self, entry: &Self::Entry, ty: SemType, i: usize, value: EnvValue<'_>);

    /// The entry's own cell: `raw` coerced to `ty` ([`infer::coerce`]).
    fn close(&mut self, entry: Self::Entry, raw: &str, ty: SemType);

    /// Cell `j` of Table 5b: the attribute [`augment::SYSTEM_NAMES`]`[j]`.
    fn system(&mut self, j: usize, value: EnvValue<'_>);
}

/// The assembled view of one system: the dataset row plus per-entry types.
#[derive(Debug, Clone)]
pub struct AssembledSystem {
    /// The environment-enriched attribute row.
    pub row: Row,
    /// Inferred semantic type of each *original* entry, sorted by
    /// attribute: the attributes are exactly the row's original entries,
    /// in the row's order.
    pub types: Vec<(AttrName, SemType)>,
}

impl AssembledSystem {
    /// The type inferred for original entry `attr`.
    pub fn type_of(&self, attr: &AttrName) -> Option<SemType> {
        let i = self.types.binary_search_by(|(a, _)| a.cmp(attr)).ok()?;
        Some(self.types[i].1)
    }
}

/// The [`CellSink`] behind a target's [`AssembledSystem`], for callers
/// that want a target's [`Row`] without a detector: it keeps the cells and
/// entry types as they come, and [`SystemCells::finish`] sorts each list
/// once.
#[derive(Debug, Default)]
pub struct SystemCells {
    cells: Vec<(AttrName, ConfigValue)>,
    types: Vec<(AttrName, SemType)>,
}

impl CellSink for SystemCells {
    type Entry = AttrName;

    fn open(&mut self, key: &str, _raw: &str) -> Option<AttrName> {
        AttrName::try_entry(key).ok()
    }

    fn env(&mut self, entry: &AttrName, ty: SemType, i: usize, value: EnvValue<'_>) {
        let attr = entry.augmented(augment::suffixes(ty)[i]);
        self.cells.push((attr, value.into_value()));
    }

    fn close(&mut self, entry: AttrName, raw: &str, ty: SemType) {
        self.types.push((entry.clone(), ty));
        self.cells.push((entry, infer::coerce(raw, ty)));
    }

    fn system(&mut self, j: usize, value: EnvValue<'_>) {
        let attr = AttrName::system(augment::SYSTEM_NAMES[j]);
        self.cells.push((attr, value.into_value()));
    }
}

impl SystemCells {
    /// The system `id`: its row ([`Row::from_cells`]) and its entry types,
    /// each sorted with one stable sort and a dedup that keeps an
    /// attribute's last cell.
    pub fn finish(self, id: &str) -> AssembledSystem {
        let row = Row::from_cells(id, self.cells);
        let mut types = self.types;
        encore_model::row::sort_keep_last(&mut types);
        let env = row.iter().filter(|(attr, _)| !attr.is_original()).count();
        obs::AUGMENTED_ATTRS.add(env as u64);
        AssembledSystem { row, types }
    }
}

/// The data assembler: lens registry + type inference pipeline.
pub struct Assembler {
    lenses: LensRegistry,
    inference: TypeInference,
    augment_env: bool,
}

impl fmt::Debug for Assembler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Assembler")
            .field("lenses", &self.lenses)
            .field("augment_env", &self.augment_env)
            .finish()
    }
}

impl Default for Assembler {
    fn default() -> Self {
        Self::new()
    }
}

impl Assembler {
    /// An assembler with the default lenses, predefined types, and
    /// environment augmentation enabled.
    pub fn new() -> Assembler {
        Assembler {
            lenses: LensRegistry::with_defaults(),
            inference: TypeInference::new(),
            augment_env: true,
        }
    }

    /// Disable environment augmentation — produces the "Original"-only
    /// attribute set (used by the value-comparison baseline and Table 2's
    /// first row).
    pub fn without_augmentation(mut self) -> Assembler {
        self.augment_env = false;
        self
    }

    /// Register a custom semantic type (§5.3); custom types take priority
    /// over predefined ones.
    pub fn with_custom_type(mut self, custom: CustomType) -> Assembler {
        self.inference.register(custom);
        self
    }

    /// Access the lens registry (e.g. to register a user lens).
    pub fn lenses_mut(&mut self) -> &mut LensRegistry {
        &mut self.lenses
    }

    /// The type-inference engine.
    pub fn inference(&self) -> &TypeInference {
        &self.inference
    }

    /// Parse and type one application's configuration inside an image, then
    /// augment with environment data.
    ///
    /// # Errors
    ///
    /// [`AssembleError::MissingConfig`] if the image lacks the config file;
    /// [`AssembleError::Parse`] on lens failure.
    pub fn assemble_image(&self, app: AppKind, image: &SystemImage) -> Result<Row, AssembleError> {
        Ok(self.assemble_system(app, image)?.row)
    }

    /// Like [`Assembler::assemble_image`] but also returns per-entry types.
    ///
    /// # Errors
    ///
    /// Same as [`Assembler::assemble_image`].
    pub fn assemble_system(
        &self,
        app: AppKind,
        image: &SystemImage,
    ) -> Result<AssembledSystem, AssembleError> {
        let mut cells = SystemCells::default();
        self.assemble_into(app, image, &mut Pairs::new(), &mut cells)?;
        Ok(cells.finish(image.id()))
    }

    /// Like [`Assembler::assemble_image`], with the configuration parsed
    /// into `pairs`, which is cleared first, and the cells emitted into
    /// `sink` ([`Assembler::assemble_pairs`]).  Nothing reaches `sink` on
    /// error.
    ///
    /// # Errors
    ///
    /// Same as [`Assembler::assemble_image`].
    pub fn assemble_into(
        &self,
        app: AppKind,
        image: &SystemImage,
        pairs: &mut Pairs,
        sink: &mut impl CellSink,
    ) -> Result<(), AssembleError> {
        pairs.clear();
        self.parse_into(app, image, pairs)?;
        self.assemble_pairs(pairs.iter(), image, sink);
        Ok(())
    }

    /// Parse one application's configuration inside an image, appending
    /// its pairs to `pairs`.
    ///
    /// # Errors
    ///
    /// Same as [`Assembler::assemble_image`]; `pairs` is then left as it
    /// was.
    pub fn parse_into(
        &self,
        app: AppKind,
        image: &SystemImage,
        pairs: &mut Pairs,
    ) -> Result<(), AssembleError> {
        let path = app.config_path();
        let text = image
            .read_file(path)
            .ok_or_else(|| AssembleError::MissingConfig {
                app,
                path: path.to_string(),
            })?;
        Ok(self.lenses.parse_into(app.name(), text, pairs)?)
    }

    /// Type and augment already-parsed `(key, raw value)` pairs into
    /// `sink`: each entry's augmented cells, then the entry's own cell, in
    /// file order, then the system-wide attributes.  Callers with
    /// non-standard config locations parse the pairs themselves.
    pub fn assemble_pairs<'p>(
        &self,
        pairs: impl IntoIterator<Item = (&'p str, &'p str)>,
        image: &SystemImage,
        sink: &mut impl CellSink,
    ) {
        let _span = obs::ASSEMBLE_TIME.span();
        for (key, raw) in pairs {
            let Some(entry) = sink.open(key, raw) else {
                continue;
            };
            let ty = match sink.candidates(&entry) {
                Some(candidates) => self.inference.infer_among(candidates, raw, image),
                None => self.inference.infer(raw, image),
            };
            if self.augment_env {
                let mut put = |i, value: EnvValue<'_>| sink.env(&entry, ty, i, value);
                augment::augment_entry(&mut put, raw, ty, image);
            }
            obs::ENTRIES_TYPED.incr();
            sink.close(entry, raw, ty);
        }
        if self.augment_env {
            augment::augment_system_wide(&mut |j, value| sink.system(j, value), image);
        }
        obs::ROWS_ASSEMBLED.incr();
    }
}

/// Merge the assembly workers' encoded rows into their columnar, interned
/// view — the layout rule inference, the rule filters and the detector's
/// statistics read (`encore_model::columnar`).  This is the assembly
/// phase's last step: each worker encodes the rows it assembles, and a
/// training set calls this once, when it is assembled, and keeps the
/// table in place of its rows.  `rows` are in row order, each with the
/// index in `encoders` of the encoder that encoded it.
pub fn column_store(
    encoders: &[encore_model::RowEncoder],
    rows: &[(usize, encore_model::EncodedRow)],
) -> encore_model::ColumnStore {
    let _span = obs::COLUMNS_TIME.span();
    let store = encore_model::ColumnStore::merge(encoders, rows);
    obs::COLUMNS_BUILT.add(store.num_columns() as u64);
    obs::VALUES_INTERNED.add(store.interner().num_values() as u64);
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_model::ConfigValue;

    fn mysql_image() -> SystemImage {
        SystemImage::builder("img-0")
            .user("mysql", 27, &["mysql"])
            .dir("/var/lib/mysql", "mysql", "mysql", 0o700)
            .file(
                "/etc/mysql/my.cnf",
                "root",
                "root",
                0o644,
                "[mysqld]\nuser = mysql\ndatadir = /var/lib/mysql\nmax_allowed_packet = 16M\n",
            )
            .build()
    }

    #[test]
    fn assemble_produces_typed_row() {
        let sys = Assembler::new()
            .assemble_system(AppKind::Mysql, &mysql_image())
            .unwrap();
        assert_eq!(
            sys.type_of(&AttrName::entry("datadir")),
            Some(SemType::FilePath)
        );
        assert_eq!(
            sys.type_of(&AttrName::entry("user")),
            Some(SemType::UserName)
        );
        assert_eq!(
            sys.type_of(&AttrName::entry("max_allowed_packet")),
            Some(SemType::Size)
        );
    }

    #[test]
    fn augmented_attributes_present() {
        let row = Assembler::new()
            .assemble_image(AppKind::Mysql, &mysql_image())
            .unwrap();
        let owner = row
            .get(&AttrName::entry("datadir").augmented("owner"))
            .expect("datadir.owner");
        assert_eq!(owner, &ConfigValue::str("mysql"));
        let kind = row
            .get(&AttrName::entry("datadir").augmented("type"))
            .expect("datadir.type");
        assert_eq!(kind, &ConfigValue::str("dir"));
    }

    #[test]
    fn without_augmentation_has_only_original_attrs() {
        let row = Assembler::new()
            .without_augmentation()
            .assemble_image(AppKind::Mysql, &mysql_image())
            .unwrap();
        assert!(row.iter().all(|(a, _)| a.is_original()));
        assert_eq!(row.len(), 3);
    }

    /// An entry that repeats with a change of type, an existing directory
    /// and then a path that does not exist: the last value and its type
    /// win, and the cells the first occurrence's augmentation set stay.
    #[test]
    fn a_repeated_entry_keeps_its_last_value_and_first_augmentation() {
        let img = SystemImage::builder("img-0")
            .dir("/var/lib/mysql", "mysql", "mysql", 0o700)
            .file(
                "/etc/mysql/my.cnf",
                "root",
                "root",
                0o644,
                "[mysqld]\ndatadir = /var/lib/mysql\ndatadir = /no/such/dir\n",
            )
            .build();
        let sys = Assembler::new()
            .assemble_system(AppKind::Mysql, &img)
            .unwrap();
        let datadir = AttrName::entry("datadir");
        assert_eq!(
            sys.row.get(&datadir),
            Some(&ConfigValue::str("/no/such/dir"))
        );
        assert_eq!(sys.types, [(datadir.clone(), SemType::Str)]);
        assert_eq!(
            sys.row.get(&datadir.augmented("owner")),
            Some(&ConfigValue::str("mysql"))
        );
        // The entry, its eight FilePath cells and seven system-wide ones.
        assert_eq!(sys.row.len(), 16);
    }

    #[test]
    fn missing_config_is_error() {
        let img = SystemImage::builder("empty").build();
        match Assembler::new().assemble_image(AppKind::Php, &img) {
            Err(AssembleError::MissingConfig { app, .. }) => assert_eq!(app, AppKind::Php),
            other => panic!("unexpected {other:?}"),
        }
    }
}
