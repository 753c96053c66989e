//! Environment-information integration (§4.3, Tables 5a/5b).
//!
//! For each typed entry the assembler attaches *augmented attributes* that
//! carry the entry's environment context: a `FilePath` gains owner, group,
//! kind, permission, contents digest, sub-directory and symlink flags; an
//! `IPAddress` gains locality/IPv6/wildcard flags; a `UserName` gains
//! root-group/admin/group-mirror flags.  System-wide attributes (host name,
//! OS, hardware, SELinux status) are appended once per system.  Every
//! attribute goes to a [`CellSink`] as an environment cell.

use crate::CellSink;
use encore_model::{AttrName, ConfigValue, SemType};
use encore_sysimage::SystemImage;

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

/// Augment one configuration entry according to its inferred type.
///
/// Missing environment objects produce `Absent` cells rather than nothing:
/// the detector distinguishes "entry not set" from "entry set but pointing
/// at nothing".
pub fn augment_entry(
    sink: &mut impl CellSink,
    attr: &AttrName,
    raw_value: &str,
    ty: SemType,
    image: &SystemImage,
) {
    match ty {
        SemType::FilePath => augment_file_path(sink, attr, raw_value, image),
        SemType::IpAddress => augment_ip(sink, attr, raw_value),
        SemType::UserName => augment_user(sink, attr, raw_value, image),
        _ => {}
    }
}

fn augment_file_path(sink: &mut impl CellSink, attr: &AttrName, path: &str, image: &SystemImage) {
    let vfs = image.vfs();
    match vfs.metadata(path) {
        Some(meta) => {
            sink.env(attr.augmented("owner"), ConfigValue::str(&meta.owner));
            sink.env(attr.augmented("group"), ConfigValue::str(&meta.group));
            sink.env(attr.augmented("type"), ConfigValue::str(meta.kind.name()));
            sink.env(
                attr.augmented("permission"),
                ConfigValue::str(format!("{:o}", meta.mode)),
            );
            sink.env(
                attr.augmented("contents"),
                ConfigValue::str(format!("{} entries", vfs.children(path).len())),
            );
            sink.env(
                attr.augmented("hasDir"),
                ConfigValue::boolean(vfs.has_subdir(path)),
            );
            sink.env(
                attr.augmented("hasSymLink"),
                ConfigValue::boolean(vfs.has_symlink(path)),
            );
            sink.env(
                attr.augmented("secDenied"),
                ConfigValue::boolean(image.security().denies_write(path)),
            );
        }
        None => {
            for suffix in FILEPATH_SUFFIXES {
                sink.env(attr.augmented(suffix), ConfigValue::Absent);
            }
        }
    }
}

fn augment_ip(sink: &mut impl CellSink, attr: &AttrName, raw: &str) {
    let text = raw.trim();
    let Some(v6) = ConfigValue::classify_ip(text) else {
        return;
    };
    sink.env(
        attr.augmented("Local"),
        ConfigValue::boolean(is_local_address(text, v6)),
    );
    sink.env(attr.augmented("IPv6"), ConfigValue::boolean(v6));
    sink.env(
        attr.augmented("AnyAddr"),
        ConfigValue::boolean(text == "0.0.0.0" || text == "::"),
    );
}

fn augment_user(sink: &mut impl CellSink, attr: &AttrName, user: &str, image: &SystemImage) {
    let accounts = image.accounts();
    sink.env(
        attr.augmented("isRootGroup"),
        ConfigValue::boolean(accounts.in_root_group(user)),
    );
    sink.env(
        attr.augmented("isAdmin"),
        ConfigValue::boolean(accounts.user(user).map(|u| u.is_admin()).unwrap_or(false)),
    );
    // `user.isGroup` mirrors the user's same-named group if one exists
    // (Table 5a shows `user.isGroup = mysql` of type GroupName).
    let group = accounts
        .group(user)
        .map(|g| ConfigValue::str(&g.name))
        .unwrap_or(ConfigValue::Absent);
    sink.env(attr.augmented("isGroup"), group);
}

/// Append the entry-independent environment attributes (Table 5b).
pub fn augment_system_wide(sink: &mut impl CellSink, image: &SystemImage) {
    sink.env(
        AttrName::system("Sys.IPAddress"),
        ConfigValue::parse_ip(image.ip_address())
            .unwrap_or_else(|_| ConfigValue::str(image.ip_address())),
    );
    sink.env(
        AttrName::system("Sys.HostName"),
        ConfigValue::str(image.hostname()),
    );
    sink.env(
        AttrName::system("Sys.FSType"),
        ConfigValue::str(image.fs_type()),
    );
    sink.env(
        AttrName::system("Sys.Users"),
        ConfigValue::str(image.accounts().user_list().collect::<Vec<_>>().join(",")),
    );
    sink.env(
        AttrName::system("OS.DistName"),
        ConfigValue::str(image.os_dist()),
    );
    sink.env(
        AttrName::system("OS.Version"),
        ConfigValue::str(image.os_version()),
    );
    sink.env(
        AttrName::system("OS.SEStatus"),
        ConfigValue::str(image.security().status_str()),
    );
    // Hardware attributes exist only for running instances (Table 7
    // footnote) — dormant EC2 images carry none, which is what makes
    // real-world case #8 undetectable from EC2 training data.
    if let Some(hw) = image.hardware() {
        sink.env(
            AttrName::system("CPU.Threads"),
            ConfigValue::number(hw.cpu_threads as f64),
        );
        sink.env(
            AttrName::system("CPU.Freq"),
            ConfigValue::number(hw.cpu_freq_mhz as f64),
        );
        sink.env(
            AttrName::system("MemSize"),
            ConfigValue::number(hw.mem_bytes as f64),
        );
        sink.env(
            AttrName::system("HDD.AvailSpace"),
            ConfigValue::number(hw.disk_avail_bytes as f64),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_model::Row;
    use encore_sysimage::HardwareSpec;

    /// The tests read the cells back from a row.
    impl CellSink for Row {
        fn entry(&mut self, attr: AttrName, value: ConfigValue, _: SemType) {
            self.set(attr, value);
        }

        fn env(&mut self, attr: AttrName, value: ConfigValue) {
            self.set(attr, value);
        }
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
        let mut row = Row::new("t");
        let attr = AttrName::entry("datadir");
        augment_entry(&mut row, &attr, "/var/lib/mysql", SemType::FilePath, &img);
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
        let mut row = Row::new("t");
        let attr = AttrName::entry("datadir");
        augment_entry(&mut row, &attr, "/nope", SemType::FilePath, &img);
        assert_eq!(
            row.get(&attr.augmented("owner")),
            Some(&ConfigValue::Absent)
        );
        assert!(!row.has(&attr.augmented("owner")));
    }

    #[test]
    fn symlink_flag_set_for_parent() {
        let img = image();
        let mut row = Row::new("t");
        let attr = AttrName::entry("DocumentRoot");
        augment_entry(&mut row, &attr, "/var/www", SemType::FilePath, &img);
        assert_eq!(
            row.get(&attr.augmented("hasSymLink")),
            Some(&ConfigValue::boolean(true))
        );
    }

    #[test]
    fn ip_augmentation_flags() {
        let mut row = Row::new("t");
        let attr = AttrName::entry("AllowFrom");
        augment_ip(&mut row, &attr, "10.0.1.1");
        assert_eq!(
            row.get(&attr.augmented("Local")),
            Some(&ConfigValue::boolean(true))
        );
        assert_eq!(
            row.get(&attr.augmented("IPv6")),
            Some(&ConfigValue::boolean(false))
        );
        let mut row = Row::new("t");
        augment_ip(&mut row, &attr, "0.0.0.0");
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
        let mut row = Row::new("t");
        let attr = AttrName::entry("user");
        augment_user(&mut row, &attr, "mysql", &img);
        assert_eq!(
            row.get(&attr.augmented("isAdmin")),
            Some(&ConfigValue::boolean(false))
        );
        assert_eq!(
            row.get(&attr.augmented("isGroup")),
            Some(&ConfigValue::str("mysql"))
        );
        let mut row = Row::new("t");
        augment_user(&mut row, &attr, "root", &img);
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
        let mut row = Row::new("t");
        augment_system_wide(&mut row, &img);
        assert!(row.has(&AttrName::system("Sys.HostName")));
        assert!(row.has(&AttrName::system("OS.SEStatus")));
        assert!(!row.has(&AttrName::system("MemSize")));
    }

    #[test]
    fn system_wide_attrs_with_hardware() {
        let img = SystemImage::builder("t")
            .hardware(HardwareSpec::large())
            .build();
        let mut row = Row::new("t");
        augment_system_wide(&mut row, &img);
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
            let mut row = Row::new("t");
            augment_entry(&mut row, &attr, address, SemType::IpAddress, &img);
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
