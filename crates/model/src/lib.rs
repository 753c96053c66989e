//! Core data model shared by every EnCore crate.
//!
//! The paper's pipeline converts heterogeneous inputs (configuration files,
//! file-system metadata, account databases, hardware descriptions) into a
//! uniform table of *attributes*: each column is a named attribute, each row
//! is one configured system.  This crate defines:
//!
//! * [`ConfigValue`] — a parsed configuration value,
//! * [`SemType`] — the semantic type lattice of §4.2 / Table 4,
//! * [`AttrName`] — an attribute name (a config entry or an augmented
//!   attribute such as `datadir.owner`),
//! * [`Row`] — one system's attribute values, a row of the systems ×
//!   attributes table the rule learner consumes,
//! * [`ColumnStore`] — that table pivoted into interned columns,
//! * [`AppKind`] — the applications studied by the paper.
//!
//! # Examples
//!
//! ```
//! use encore_model::{AttrName, ColumnStore, ConfigValue, Row};
//!
//! let mut row = Row::new("image-0");
//! row.set(AttrName::entry("datadir"), ConfigValue::path("/var/lib/mysql"));
//! let store = ColumnStore::from_rows(&[&row]);
//! assert_eq!(store.num_rows(), 1);
//! assert_eq!(store.num_columns(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod columnar;
pub mod error;
pub mod intern;
pub mod row;
pub mod semtype;
pub mod value;

pub use attr::{AttrName, Augmentation};
pub use columnar::{Column, ColumnStore, EncodedRow, Postings, RowEncoder};
pub use error::ModelError;
pub use intern::{AttrId, Interner, ValueId};
pub use row::Row;
pub use semtype::SemType;
pub use value::{ConfigValue, SizeUnit};

use std::fmt;

/// The server applications studied in the paper's evaluation (§2.1, §7).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum AppKind {
    /// Apache httpd (core + mpm modules).
    Apache,
    /// MySQL server (`my.cnf`).
    Mysql,
    /// PHP runtime (`php.ini`).
    Php,
    /// OpenSSH daemon (`sshd_config`) — studied in Table 1 only.
    Sshd,
}

impl AppKind {
    /// The three applications used in the detection experiments (§7).
    pub const EVALUATED: [AppKind; 3] = [AppKind::Apache, AppKind::Mysql, AppKind::Php];

    /// All four applications from the manual study (Table 1).
    pub const STUDIED: [AppKind; 4] =
        [AppKind::Apache, AppKind::Mysql, AppKind::Php, AppKind::Sshd];

    /// Canonical configuration-file path for this application.
    pub fn config_path(self) -> &'static str {
        match self {
            AppKind::Apache => "/etc/httpd/conf/httpd.conf",
            AppKind::Mysql => "/etc/mysql/my.cnf",
            AppKind::Php => "/etc/php.ini",
            AppKind::Sshd => "/etc/ssh/sshd_config",
        }
    }

    /// Short lowercase name (`"apache"`, `"mysql"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Apache => "apache",
            AppKind::Mysql => "mysql",
            AppKind::Php => "php",
            AppKind::Sshd => "sshd",
        }
    }
}

impl fmt::Display for AppKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for AppKind {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "apache" | "httpd" => Ok(AppKind::Apache),
            "mysql" => Ok(AppKind::Mysql),
            "php" => Ok(AppKind::Php),
            "sshd" | "ssh" => Ok(AppKind::Sshd),
            other => Err(ModelError::UnknownApp(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_kind_round_trips_through_name() {
        for app in AppKind::STUDIED {
            let parsed: AppKind = app.name().parse().expect("parse back");
            assert_eq!(parsed, app);
        }
    }

    #[test]
    fn app_kind_rejects_unknown() {
        assert!("nginx".parse::<AppKind>().is_err());
    }

    #[test]
    fn config_paths_are_absolute() {
        for app in AppKind::STUDIED {
            assert!(app.config_path().starts_with('/'));
        }
    }
}
