//! Simulated system images — the environment substrate.
//!
//! The paper's data collector reads live system state: file-system metadata,
//! `/etc/passwd`, `/etc/group`, `/etc/services`, environment variables,
//! hardware specifications and security-module status (Tables 5b and 7).
//! We do not have Amazon EC2 images, so this crate implements the closest
//! synthetic equivalent: an in-memory [`SystemImage`] holding exactly the
//! structured metadata EnCore consumes, exercising the same verification and
//! augmentation code paths (see DESIGN.md §2).
//!
//! # Examples
//!
//! ```
//! use encore_sysimage::{FileKind, SystemImage};
//!
//! let img = SystemImage::builder("demo")
//!     .user("mysql", 27, &["mysql"])
//!     .dir("/var/lib/mysql", "mysql", "mysql", 0o700)
//!     .file("/etc/mysql/my.cnf", "root", "root", 0o644, "[mysqld]\n")
//!     .build();
//! let meta = img.vfs().metadata("/var/lib/mysql").unwrap();
//! assert_eq!(meta.kind, FileKind::Directory);
//! assert_eq!(meta.owner, "mysql");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounts;
pub mod hardware;
pub mod obs;
pub mod security;
pub mod services;
pub mod vfs;

pub use accounts::{Accounts, Group, User};
pub use hardware::HardwareSpec;
pub use security::{SecurityModule, SecurityState};
pub use services::Services;
pub use vfs::{DirFacts, FileKind, FileMeta, Vfs};

use std::collections::BTreeMap;
use std::sync::Arc;

/// A complete simulated system image: everything the data collector gathers.
///
/// The contents sit behind one [`Arc`], so `clone()` is a reference-count
/// bump: a training set keeps every crawled image without copying it.  The
/// `with_*` methods copy the contents only when they are shared.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SystemImage {
    data: Arc<ImageData>,
}

#[derive(Debug, Clone, PartialEq, Default)]
struct ImageData {
    id: String,
    vfs: Vfs,
    accounts: Accounts,
    services: Services,
    env_vars: BTreeMap<String, String>,
    hardware: Option<HardwareSpec>,
    security: SecurityState,
    hostname: String,
    ip_address: String,
    os_dist: String,
    os_version: String,
    fs_type: String,
}

impl SystemImage {
    /// Start building an image with the given id.
    pub fn builder(id: impl Into<String>) -> SystemImageBuilder {
        SystemImageBuilder::new(id)
    }

    /// The image identifier.
    pub fn id(&self) -> &str {
        &self.data.id
    }

    /// The virtual file system.
    pub fn vfs(&self) -> &Vfs {
        &self.data.vfs
    }

    /// Account database (`/etc/passwd`, `/etc/group`).
    pub fn accounts(&self) -> &Accounts {
        &self.data.accounts
    }

    /// Service/port table (`/etc/services`).
    pub fn services(&self) -> &Services {
        &self.data.services
    }

    /// Environment variables (only populated for running instances; empty
    /// for dormant images, per Table 7's footnote).
    pub fn env_vars(&self) -> &BTreeMap<String, String> {
        &self.data.env_vars
    }

    /// Hardware specification; `None` for dormant images (EC2 images are
    /// instantiated with varying hardware — Table 7 footnote, and the root
    /// cause of the paper's missed real-world case #8).
    pub fn hardware(&self) -> Option<&HardwareSpec> {
        self.data.hardware.as_ref()
    }

    /// Security-module state (SELinux / AppArmor).
    pub fn security(&self) -> &SecurityState {
        &self.data.security
    }

    /// System host name (`Sys.HostName`).
    pub fn hostname(&self) -> &str {
        &self.data.hostname
    }

    /// Primary IP address (`Sys.IPAddress`).
    pub fn ip_address(&self) -> &str {
        &self.data.ip_address
    }

    /// OS distribution name (`OS.DistName`).
    pub fn os_dist(&self) -> &str {
        &self.data.os_dist
    }

    /// OS version string (`OS.Version`).
    pub fn os_version(&self) -> &str {
        &self.data.os_version
    }

    /// Root file-system type (`Sys.FSType`).
    pub fn fs_type(&self) -> &str {
        &self.data.fs_type
    }

    /// Read a config file's contents from the VFS, if present and regular.
    pub fn read_file(&self, path: &str) -> Option<&str> {
        self.data.vfs.contents(path)
    }

    /// Replace the VFS wholesale — scenario builders use this to derive a
    /// broken image from a generated one.
    pub fn with_vfs(mut self, vfs: Vfs) -> SystemImage {
        Arc::make_mut(&mut self.data).vfs = vfs;
        self
    }

    /// Replace the security-module state.
    pub fn with_security(mut self, state: SecurityState) -> SystemImage {
        Arc::make_mut(&mut self.data).security = state;
        self
    }
}

/// Builder for [`SystemImage`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct SystemImageBuilder {
    image: ImageData,
}

impl SystemImageBuilder {
    fn new(id: impl Into<String>) -> SystemImageBuilder {
        let mut image = ImageData {
            id: id.into(),
            hostname: "localhost".to_string(),
            ip_address: "10.0.0.1".to_string(),
            os_dist: "AmazonLinux".to_string(),
            os_version: "2013.03".to_string(),
            fs_type: "ext4".to_string(),
            ..ImageData::default()
        };
        // Every Unix image has root and a root group.
        image.accounts.add_user(User::new("root", 0, 0));
        image.accounts.add_group(Group::new("root", 0, &["root"]));
        image.vfs.add_dir("/", "root", "root", 0o755);
        SystemImageBuilder { image }
    }

    /// Set the host name.
    pub fn hostname(mut self, name: impl Into<String>) -> Self {
        self.image.hostname = name.into();
        self
    }

    /// Set the primary IP address.
    pub fn ip_address(mut self, ip: impl Into<String>) -> Self {
        self.image.ip_address = ip.into();
        self
    }

    /// Set OS distribution and version.
    pub fn os(mut self, dist: impl Into<String>, version: impl Into<String>) -> Self {
        self.image.os_dist = dist.into();
        self.image.os_version = version.into();
        self
    }

    /// Add a user together with a same-named primary group and memberships.
    pub fn user(mut self, name: &str, uid: u32, groups: &[&str]) -> Self {
        self.image.accounts.add_user(User::new(name, uid, uid));
        for g in groups {
            self.image.accounts.ensure_group(g);
            self.image.accounts.add_membership(name, g);
        }
        self
    }

    /// Add a group with members.
    pub fn group(mut self, name: &str, gid: u32, members: &[&str]) -> Self {
        self.image
            .accounts
            .add_group(Group::new(name, gid, members));
        self
    }

    /// Add a directory (creating parents owned by root as needed).
    pub fn dir(mut self, path: &str, owner: &str, group: &str, mode: u32) -> Self {
        self.image.vfs.add_dir(path, owner, group, mode);
        self
    }

    /// Add a regular file with contents (creating parents as needed).
    pub fn file(mut self, path: &str, owner: &str, group: &str, mode: u32, contents: &str) -> Self {
        self.image.vfs.add_file(path, owner, group, mode, contents);
        self
    }

    /// Add a symbolic link.
    pub fn symlink(mut self, path: &str, target: &str) -> Self {
        self.image.vfs.add_symlink(path, target);
        self
    }

    /// Register a network service name for a port.
    pub fn service(mut self, name: &str, port: u16) -> Self {
        self.image.services.add(name, port);
        self
    }

    /// Set an environment variable (running instances only).
    pub fn env_var(mut self, key: &str, value: &str) -> Self {
        self.image
            .env_vars
            .insert(key.to_string(), value.to_string());
        self
    }

    /// Attach a hardware specification (running instances only).
    pub fn hardware(mut self, hw: HardwareSpec) -> Self {
        self.image.hardware = Some(hw);
        self
    }

    /// Set the security-module state.
    pub fn security(mut self, state: SecurityState) -> Self {
        self.image.security = state;
        self
    }

    /// Finish building.
    pub fn build(self) -> SystemImage {
        // Gate on the sink so the disabled path skips even the O(users)
        // account walk.
        if encore_obs::enabled() {
            let _span = obs::BUILD_TIME.span();
            obs::IMAGES_BUILT.incr();
            obs::VFS_NODES.add(self.image.vfs.len() as u64);
            obs::USERS.add(self.image.accounts.user_list().count() as u64);
            obs::GROUPS.add(self.image.accounts.group_list().count() as u64);
            obs::SERVICES.add(self.image.services.len() as u64);
            obs::ENV_VARS.add(self.image.env_vars.len() as u64);
        }
        SystemImage {
            data: Arc::new(self.image),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_seeds_root() {
        let img = SystemImage::builder("i").build();
        assert!(img.accounts().user("root").is_some());
        assert!(img.vfs().metadata("/").is_some());
    }

    #[test]
    fn dormant_images_lack_hardware_and_env() {
        let img = SystemImage::builder("i").build();
        assert!(img.hardware().is_none());
        assert!(img.env_vars().is_empty());
    }

    #[test]
    fn file_contents_readable() {
        let img = SystemImage::builder("i")
            .file(
                "/etc/php.ini",
                "root",
                "root",
                0o644,
                "memory_limit = 64M\n",
            )
            .build();
        assert_eq!(img.read_file("/etc/php.ini"), Some("memory_limit = 64M\n"));
        assert_eq!(img.read_file("/missing"), None);
    }

    #[test]
    fn with_methods_copy_on_write() {
        let original = SystemImage::builder("i")
            .file("/etc/my.cnf", "root", "root", 0o644, "[mysqld]\n")
            .build();
        let shared = original.clone();
        assert_eq!(shared, original);

        let mut vfs = shared.vfs().clone();
        vfs.add_file("/etc/my.cnf", "root", "root", 0o644, "broken");
        let edited = shared.clone().with_vfs(vfs);
        assert_eq!(edited.read_file("/etc/my.cnf"), Some("broken"));
        assert_eq!(original.read_file("/etc/my.cnf"), Some("[mysqld]\n"));
        assert_eq!(shared, original);

        let state = SecurityState::enforcing(SecurityModule::AppArmor, &["/var/lib/mysql"]);
        let secured = shared.clone().with_security(state.clone());
        assert_eq!(secured.security(), &state);
        assert_eq!(original.security(), &SecurityState::default());
        assert_eq!(shared, original);
        assert_ne!(secured, original);
    }

    #[test]
    fn user_helper_creates_groups() {
        let img = SystemImage::builder("i")
            .user("mysql", 27, &["mysql"])
            .build();
        assert!(img.accounts().group("mysql").is_some());
        assert!(img.accounts().is_member("mysql", "mysql"));
    }
}
