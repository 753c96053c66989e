//! Environment-information integration (§4.3, Tables 5a/5b).
//!
//! For each typed entry the assembler attaches *augmented attributes* that
//! carry the entry's environment context: a `FilePath` gains owner, group,
//! kind, permission, contents digest, sub-directory and symlink flags; an
//! `IPAddress` gains locality/IPv6/wildcard flags; a `UserName` gains
//! root-group/admin/group-mirror flags.  System-wide attributes (host name,
//! OS, hardware, SELinux status) are appended once per system.
//!
//! Augmentation reads the values from the image and hands each cell to a
//! `put` callback by its index in the names it may set: an entry's cell
//! `i` is the `i`-th of [`suffixes`] of the entry's type, and a
//! system-wide cell `j` is the `j`-th of [`SYSTEM_NAMES`].  The assembler
//! turns those into a [`crate::CellSink`]'s environment cells, so a sink
//! that keeps the names' ids builds no name.

use encore_model::{ConfigValue, SemType};
use encore_sysimage::{Accounts, SystemImage};
use std::fmt;

/// Suffixes attached to a `FilePath` entry: Table 5a's seven attributes
/// plus `secDenied` — whether an enforcing security module (SELinux /
/// AppArmor) denies writes to the path.  Table 5b notes EnCore "can be
/// easily customized to consider more data"; this extension is what lets
/// the detector see the paper's real-world case #4 (AppArmor blocking a
/// relocated MySQL datadir).
pub const FILEPATH_SUFFIXES: [&str; 8] = [
    "owner",
    "group",
    "type",
    "permission",
    "contents",
    "hasDir",
    "hasSymLink",
    "secDenied",
];

/// Suffixes attached to an `IPAddress` entry.
pub const IP_SUFFIXES: [&str; 3] = ["Local", "IPv6", "AnyAddr"];

/// Suffixes attached to a `UserName` entry.
pub const USER_SUFFIXES: [&str; 3] = ["isRootGroup", "isAdmin", "isGroup"];

/// The Table 5a suffixes an entry of type `ty` gains, in the order
/// augmentation sets them: cell `i` of [`augment_entry`] is `ty`'s suffix
/// `i`.
pub fn suffixes(ty: SemType) -> &'static [&'static str] {
    match ty {
        SemType::FilePath => &FILEPATH_SUFFIXES,
        SemType::IpAddress => &IP_SUFFIXES,
        SemType::UserName => &USER_SUFFIXES,
        _ => &[],
    }
}

/// The system-wide attributes of Table 5b, in the order augmentation sets
/// them: cell `j` of [`augment_system_wide`] is name `j`.  The last four
/// exist only for running instances.
pub const SYSTEM_NAMES: [&str; 11] = [
    "Sys.IPAddress",
    "Sys.HostName",
    "Sys.FSType",
    "Sys.Users",
    "OS.DistName",
    "OS.Version",
    "OS.SEStatus",
    "CPU.Threads",
    "CPU.Freq",
    "MemSize",
    "HDD.AvailSpace",
];

/// An environment cell's value, with the text borrowed from the image
/// where augmentation reads it there, and given as format arguments where
/// augmentation derives it: a sink that already knows the value need not
/// build it.
#[derive(Debug, Clone)]
pub enum EnvValue<'a> {
    /// A flag.
    Bool(bool),
    /// Text, a [`ConfigValue::Str`].
    Str(&'a str),
    /// Text yet to be formatted, a [`ConfigValue::Str`].
    Fmt(fmt::Arguments<'a>),
    /// Any other value: a missing object's [`ConfigValue::Absent`], the
    /// system's IP address, a hardware figure.
    Value(ConfigValue),
}

impl EnvValue<'_> {
    /// The value as a [`ConfigValue`].
    pub fn into_value(self) -> ConfigValue {
        match self {
            EnvValue::Bool(b) => ConfigValue::Bool(b),
            EnvValue::Str(text) => ConfigValue::str(text),
            EnvValue::Fmt(text) => ConfigValue::Str(text.to_string()),
            EnvValue::Value(value) => value,
        }
    }
}

/// The `'static` literal of a Table 5a suffix, or `None` for any other
/// text: a name read back from text can hold the literal, as assembled
/// names do, instead of a copy.
pub fn static_suffix(suffix: &str) -> Option<&'static str> {
    FILEPATH_SUFFIXES
        .into_iter()
        .chain(IP_SUFFIXES)
        .chain(USER_SUFFIXES)
        .find(|s| *s == suffix)
}

/// Whether an IPv4 address is in the RFC 1918 private ranges or loopback,
/// or an IPv6 address is an RFC 4193 unique-local one (fc00::/7: a first
/// group of four hex digits starting `fc` or `fd`, in either case) — the
/// `*.Local` augmented attribute.
fn is_local_address(text: &str, v6: bool) -> bool {
    if v6 {
        let first = text.split(':').next().unwrap_or_default();
        return first.len() == 4
            && first.bytes().all(|b| b.is_ascii_hexdigit())
            && (first[..2].eq_ignore_ascii_case("fc") || first[..2].eq_ignore_ascii_case("fd"));
    }
    let mut octets = text.split('.').filter_map(|o| o.parse::<u32>().ok());
    match (octets.next(), octets.next()) {
        (Some(10 | 127), _) => true,
        (Some(172), Some(b)) => (16..=31).contains(&b),
        (Some(192), Some(168)) => true,
        _ => false,
    }
}

/// Augment one configuration entry according to its inferred type: each
/// cell goes to `put` with its index in [`suffixes`] of `ty`.
///
/// Missing environment objects produce `Absent` cells rather than nothing:
/// the detector distinguishes "entry not set" from "entry set but pointing
/// at nothing".
pub fn augment_entry(
    put: &mut impl FnMut(usize, EnvValue<'_>),
    raw_value: &str,
    ty: SemType,
    image: &SystemImage,
) {
    match ty {
        SemType::FilePath => augment_file_path(put, raw_value, image),
        SemType::IpAddress => augment_ip(put, raw_value),
        SemType::UserName => augment_user(put, raw_value, image),
        _ => {}
    }
}

fn augment_file_path(put: &mut impl FnMut(usize, EnvValue<'_>), path: &str, image: &SystemImage) {
    let vfs = image.vfs();
    let Some(meta) = vfs.metadata(path) else {
        for i in 0..FILEPATH_SUFFIXES.len() {
            put(i, EnvValue::Value(ConfigValue::Absent));
        }
        return;
    };
    let facts = vfs.dir_facts(path);
    put(0, EnvValue::Str(&meta.owner));
    put(1, EnvValue::Str(&meta.group));
    put(2, EnvValue::Str(meta.kind.name()));
    put(3, EnvValue::Fmt(format_args!("{:o}", meta.mode)));
    put(4, EnvValue::Fmt(format_args!("{} entries", facts.children)));
    put(5, EnvValue::Bool(facts.has_subdir));
    put(6, EnvValue::Bool(facts.has_symlink));
    put(7, EnvValue::Bool(image.security().denies_write(path)));
}

fn augment_ip(put: &mut impl FnMut(usize, EnvValue<'_>), raw: &str) {
    let text = raw.trim();
    let Some(v6) = ConfigValue::classify_ip(text) else {
        return;
    };
    put(0, EnvValue::Bool(is_local_address(text, v6)));
    put(1, EnvValue::Bool(v6));
    put(2, EnvValue::Bool(text == "0.0.0.0" || text == "::"));
}

fn augment_user(put: &mut impl FnMut(usize, EnvValue<'_>), user: &str, image: &SystemImage) {
    let accounts = image.accounts();
    put(0, EnvValue::Bool(accounts.in_root_group(user)));
    put(
        1,
        EnvValue::Bool(accounts.user(user).map(|u| u.is_admin()).unwrap_or(false)),
    );
    // `user.isGroup` mirrors the user's same-named group if one exists
    // (Table 5a shows `user.isGroup = mysql` of type GroupName).
    put(
        2,
        match accounts.group(user) {
            Some(g) => EnvValue::Str(&g.name),
            None => EnvValue::Value(ConfigValue::Absent),
        },
    );
}

/// The image's user names, comma-separated: the text of `Sys.Users`.
struct UserList<'a>(&'a Accounts);

impl fmt::Display for UserList<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, user) in self.0.user_list().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            f.write_str(user)?;
        }
        Ok(())
    }
}

/// Append the entry-independent environment attributes (Table 5b): each
/// cell goes to `put` with its index in [`SYSTEM_NAMES`].
pub fn augment_system_wide(put: &mut impl FnMut(usize, EnvValue<'_>), image: &SystemImage) {
    put(
        0,
        match ConfigValue::parse_ip(image.ip_address()) {
            Ok(ip) => EnvValue::Value(ip),
            Err(_) => EnvValue::Str(image.ip_address()),
        },
    );
    put(1, EnvValue::Str(image.hostname()));
    put(2, EnvValue::Str(image.fs_type()));
    put(
        3,
        EnvValue::Fmt(format_args!("{}", UserList(image.accounts()))),
    );
    put(4, EnvValue::Str(image.os_dist()));
    put(5, EnvValue::Str(image.os_version()));
    put(6, EnvValue::Str(image.security().status_str()));
    // Hardware attributes exist only for running instances (Table 7
    // footnote) — dormant EC2 images carry none, which is what makes
    // real-world case #8 undetectable from EC2 training data.
    if let Some(hw) = image.hardware() {
        for (j, figure) in [
            hw.cpu_threads as f64,
            hw.cpu_freq_mhz as f64,
            hw.mem_bytes as f64,
            hw.disk_avail_bytes as f64,
        ]
        .into_iter()
        .enumerate()
        {
            put(7 + j, EnvValue::Value(ConfigValue::number(figure)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_model::{AttrName, Row};
    use encore_sysimage::HardwareSpec;

    /// The cells augmentation sets for `attr = raw` typed `ty`, in a row.
    fn entry_cells(attr: &AttrName, raw: &str, ty: SemType, image: &SystemImage) -> Row {
        let mut row = Row::new("t");
        augment_entry(
            &mut |i, value| {
                row.set(attr.augmented(suffixes(ty)[i]), value.into_value());
            },
            raw,
            ty,
            image,
        );
        row
    }

    /// The system-wide cells augmentation sets for `image`, in a row.
    fn system_cells(image: &SystemImage) -> Row {
        let mut row = Row::new("t");
        augment_system_wide(
            &mut |j, value| {
                row.set(AttrName::system(SYSTEM_NAMES[j]), value.into_value());
            },
            image,
        );
        row
    }

    fn image() -> SystemImage {
        SystemImage::builder("t")
            .user("mysql", 27, &["mysql"])
            .dir("/var/lib/mysql", "mysql", "mysql", 0o700)
            .dir("/var/lib/mysql/db", "mysql", "mysql", 0o700)
            .symlink("/var/www/link", "/etc")
            .build()
    }

    #[test]
    fn filepath_augmentation_full_set() {
        let img = image();
        let attr = AttrName::entry("datadir");
        let row = entry_cells(&attr, "/var/lib/mysql", SemType::FilePath, &img);
        assert_eq!(
            row.get(&attr.augmented("owner")),
            Some(&ConfigValue::str("mysql"))
        );
        assert_eq!(
            row.get(&attr.augmented("type")),
            Some(&ConfigValue::str("dir"))
        );
        assert_eq!(
            row.get(&attr.augmented("permission")),
            Some(&ConfigValue::str("700"))
        );
        assert_eq!(
            row.get(&attr.augmented("hasDir")),
            Some(&ConfigValue::boolean(true))
        );
        assert_eq!(
            row.get(&attr.augmented("hasSymLink")),
            Some(&ConfigValue::boolean(false))
        );
    }

    #[test]
    fn missing_path_yields_absent_cells() {
        let img = image();
        let attr = AttrName::entry("datadir");
        let row = entry_cells(&attr, "/nope", SemType::FilePath, &img);
        assert_eq!(
            row.get(&attr.augmented("owner")),
            Some(&ConfigValue::Absent)
        );
        assert!(!row.has(&attr.augmented("owner")));
    }

    #[test]
    fn symlink_flag_set_for_parent() {
        let img = image();
        let attr = AttrName::entry("DocumentRoot");
        let row = entry_cells(&attr, "/var/www", SemType::FilePath, &img);
        assert_eq!(
            row.get(&attr.augmented("hasSymLink")),
            Some(&ConfigValue::boolean(true))
        );
    }

    #[test]
    fn ip_augmentation_flags() {
        let img = image();
        let attr = AttrName::entry("AllowFrom");
        let row = entry_cells(&attr, "10.0.1.1", SemType::IpAddress, &img);
        assert_eq!(
            row.get(&attr.augmented("Local")),
            Some(&ConfigValue::boolean(true))
        );
        assert_eq!(
            row.get(&attr.augmented("IPv6")),
            Some(&ConfigValue::boolean(false))
        );
        let row = entry_cells(&attr, "0.0.0.0", SemType::IpAddress, &img);
        assert_eq!(
            row.get(&attr.augmented("AnyAddr")),
            Some(&ConfigValue::boolean(true))
        );
        assert_eq!(
            row.get(&attr.augmented("Local")),
            Some(&ConfigValue::boolean(false))
        );
    }

    #[test]
    fn user_augmentation_flags() {
        let img = image();
        let attr = AttrName::entry("user");
        let row = entry_cells(&attr, "mysql", SemType::UserName, &img);
        assert_eq!(
            row.get(&attr.augmented("isAdmin")),
            Some(&ConfigValue::boolean(false))
        );
        assert_eq!(
            row.get(&attr.augmented("isGroup")),
            Some(&ConfigValue::str("mysql"))
        );
        let row = entry_cells(&attr, "root", SemType::UserName, &img);
        assert_eq!(
            row.get(&attr.augmented("isAdmin")),
            Some(&ConfigValue::boolean(true))
        );
        assert_eq!(
            row.get(&attr.augmented("isRootGroup")),
            Some(&ConfigValue::boolean(true))
        );
    }

    #[test]
    fn system_wide_attrs_without_hardware() {
        let img = image();
        let row = system_cells(&img);
        assert!(row.has(&AttrName::system("Sys.HostName")));
        assert!(row.has(&AttrName::system("OS.SEStatus")));
        assert!(!row.has(&AttrName::system("MemSize")));
        let users: Vec<&str> = img.accounts().user_list().collect();
        assert!(users.len() > 1, "{users:?}");
        assert_eq!(
            row.get(&AttrName::system("Sys.Users")),
            Some(&ConfigValue::str(users.join(",")))
        );
    }

    #[test]
    fn system_wide_attrs_with_hardware() {
        let img = SystemImage::builder("t")
            .hardware(HardwareSpec::large())
            .build();
        let row = system_cells(&img);
        assert_eq!(
            row.get(&AttrName::system("CPU.Threads")),
            Some(&ConfigValue::number(8.0))
        );
        assert!(row.has(&AttrName::system("MemSize")));
    }

    #[test]
    fn ipv6_local_flag_reads_the_whole_first_group() {
        // Unique-local is fc00::/7: the first group must be four hex
        // digits starting `fc`/`fd`, in either case.  `fc::1` and `fd::`
        // have first groups 00fc/00fd, outside the range.
        let attr = AttrName::entry("bind-address");
        let img = image();
        for (address, local) in [
            ("FD00::1", true),
            ("fd00::1", true),
            ("fcff:1::2", true),
            ("fc::1", false),
            ("fd::", false),
            ("2001:db8::1", false),
        ] {
            let row = entry_cells(&attr, address, SemType::IpAddress, &img);
            assert_eq!(
                row.get(&attr.augmented("Local")),
                Some(&ConfigValue::boolean(local)),
                "{address}"
            );
            assert_eq!(
                row.get(&attr.augmented("IPv6")),
                Some(&ConfigValue::boolean(true)),
                "{address}"
            );
        }
    }

    #[test]
    fn local_address_ranges() {
        assert!(is_local_address("192.168.0.5", false));
        assert!(is_local_address("172.16.1.1", false));
        assert!(!is_local_address("172.32.1.1", false));
        assert!(!is_local_address("8.8.8.8", false));
        assert!(is_local_address("fd00::1", true));
        assert!(!is_local_address("2001::1", true));
    }
}
