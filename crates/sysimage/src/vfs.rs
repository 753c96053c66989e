//! Virtual file system with per-node Unix metadata.
//!
//! This is the stand-in for the file-system metadata the paper's collector
//! crawls from images.  It supports everything the semantic type verifier
//! and the Table 5a augmenter need: existence checks, owner/group/mode,
//! directory-vs-file kind, directory listings, symlink detection, and a
//! Unix-style accessibility check (used by the `!=` / NotAccessible
//! template).

use std::collections::BTreeMap;
use std::ops::Bound;

/// Kind of a VFS node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileKind {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
    /// Symbolic link.
    Symlink,
}

impl FileKind {
    /// Short name as rendered into augmented attributes (`dir` / `file` /
    /// `symlink`), matching Table 5a's `datadir.type = dir` example.
    pub fn name(self) -> &'static str {
        match self {
            FileKind::Regular => "file",
            FileKind::Directory => "dir",
            FileKind::Symlink => "symlink",
        }
    }
}

/// Metadata of one VFS node.
#[derive(Debug, Clone, PartialEq)]
pub struct FileMeta {
    /// Owning user name.
    pub owner: String,
    /// Owning group name.
    pub group: String,
    /// Unix permission bits (e.g. `0o644`).
    pub mode: u32,
    /// Node kind.
    pub kind: FileKind,
    /// Symlink target, when `kind == Symlink`.
    pub symlink_target: Option<String>,
}

impl FileMeta {
    /// Unix-style read check for `user`: the owner's read bit if `user`
    /// owns the node, else the group's if `in_group(&self.group)` says
    /// `user` belongs to the node's group, else the others'.  Root always
    /// can, and `in_group` is asked only about a user who is neither root
    /// nor the owner.
    pub fn readable_by(&self, user: &str, in_group: impl FnOnce(&str) -> bool) -> bool {
        if user == "root" {
            return true;
        }
        let bit = if self.owner == user {
            0o400
        } else if in_group(&self.group) {
            0o040
        } else {
            0o004
        };
        self.mode & bit != 0
    }
}

/// What one directory directly holds ([`Vfs::dir_facts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirFacts {
    /// Number of nodes directly under the directory.
    pub children: usize,
    /// Whether one of them is a directory.
    pub has_subdir: bool,
    /// Whether one of them is a symlink — drives the `FollowSymLinks`
    /// correlation (real-world case #6).
    pub has_symlink: bool,
}

#[derive(Debug, Clone, PartialEq)]
struct Node {
    meta: FileMeta,
    contents: Option<String>,
}

/// An in-memory file tree with Unix metadata.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vfs {
    nodes: BTreeMap<String, Node>,
}

/// The map key of `path`: trailing slashes dropped, `/` for the root.
/// Borrows from `path`, so a lookup allocates nothing.
fn normalize(path: &str) -> &str {
    let trimmed = path.trim_end_matches('/');
    if trimmed.is_empty() {
        "/"
    } else {
        trimmed
    }
}

fn parent_of(path: &str) -> Option<&str> {
    if path == "/" {
        return None;
    }
    match path.rfind('/') {
        Some(0) => Some("/"),
        Some(i) => Some(&path[..i]),
        None => None,
    }
}

impl Vfs {
    /// Create an empty VFS.
    pub fn new() -> Vfs {
        Vfs::default()
    }

    fn ensure_parents(&mut self, path: &str) {
        let mut missing = Vec::new();
        let mut cur = parent_of(path);
        while let Some(p) = cur {
            if self.nodes.contains_key(p) {
                break;
            }
            missing.push(p);
            cur = parent_of(p);
        }
        for p in missing.into_iter().rev() {
            self.nodes.insert(
                p.to_string(),
                Node {
                    meta: FileMeta {
                        owner: "root".to_string(),
                        group: "root".to_string(),
                        mode: 0o755,
                        kind: FileKind::Directory,
                        symlink_target: None,
                    },
                    contents: None,
                },
            );
        }
    }

    /// Add (or replace) a directory, creating root-owned parents as needed.
    pub fn add_dir(&mut self, path: &str, owner: &str, group: &str, mode: u32) {
        let path = normalize(path);
        self.ensure_parents(path);
        self.nodes.insert(
            path.to_string(),
            Node {
                meta: FileMeta {
                    owner: owner.to_string(),
                    group: group.to_string(),
                    mode,
                    kind: FileKind::Directory,
                    symlink_target: None,
                },
                contents: None,
            },
        );
    }

    /// Add (or replace) a regular file, creating parents as needed.
    pub fn add_file(&mut self, path: &str, owner: &str, group: &str, mode: u32, contents: &str) {
        let path = normalize(path);
        self.ensure_parents(path);
        self.nodes.insert(
            path.to_string(),
            Node {
                meta: FileMeta {
                    owner: owner.to_string(),
                    group: group.to_string(),
                    mode,
                    kind: FileKind::Regular,
                    symlink_target: None,
                },
                contents: Some(contents.to_string()),
            },
        );
    }

    /// Add (or replace) a symlink, creating parents as needed.
    pub fn add_symlink(&mut self, path: &str, target: &str) {
        let path = normalize(path);
        self.ensure_parents(path);
        self.nodes.insert(
            path.to_string(),
            Node {
                meta: FileMeta {
                    owner: "root".to_string(),
                    group: "root".to_string(),
                    mode: 0o777,
                    kind: FileKind::Symlink,
                    symlink_target: Some(target.to_string()),
                },
                contents: None,
            },
        );
    }

    /// Change owner/group of an existing node; returns `false` if absent.
    pub fn chown(&mut self, path: &str, owner: &str, group: &str) -> bool {
        match self.nodes.get_mut(normalize(path)) {
            Some(n) => {
                n.meta.owner = owner.to_string();
                n.meta.group = group.to_string();
                true
            }
            None => false,
        }
    }

    /// Change mode of an existing node; returns `false` if absent.
    pub fn chmod(&mut self, path: &str, mode: u32) -> bool {
        match self.nodes.get_mut(normalize(path)) {
            Some(n) => {
                n.meta.mode = mode;
                true
            }
            None => false,
        }
    }

    /// Remove a node (and any children, if a directory).
    pub fn remove(&mut self, path: &str) {
        let path = normalize(path);
        let prefix = format!("{path}/");
        self.nodes
            .retain(|p, _| p != path && !p.starts_with(&prefix));
    }

    /// Metadata of a node.
    pub fn metadata(&self, path: &str) -> Option<&FileMeta> {
        self.nodes.get(normalize(path)).map(|n| &n.meta)
    }

    /// Whether a path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.nodes.contains_key(normalize(path))
    }

    /// Whether a path exists and is a directory.
    pub fn is_dir(&self, path: &str) -> bool {
        self.metadata(path)
            .map(|m| m.kind == FileKind::Directory)
            .unwrap_or(false)
    }

    /// Whether a path exists and is a regular file.
    pub fn is_file(&self, path: &str) -> bool {
        self.metadata(path)
            .map(|m| m.kind == FileKind::Regular)
            .unwrap_or(false)
    }

    /// Contents of a regular file.
    pub fn contents(&self, path: &str) -> Option<&str> {
        self.nodes
            .get(normalize(path))
            .and_then(|n| n.contents.as_deref())
    }

    /// The nodes directly under `path`, in key order.
    ///
    /// A child's key is `dir/name` with no further `/`, so every child lies
    /// in the key range that starts after `dir` and shares its prefix; only
    /// that range is read.  Siblings such as `dir-x` or `dir.d` also share
    /// the prefix and are skipped by the separator check.
    fn child_nodes<'s, 'p>(
        &'s self,
        path: &'p str,
    ) -> impl Iterator<Item = (&'s str, &'s Node)> + use<'s, 'p> {
        let dir = normalize(path);
        // The root's children start right after its own `/`.
        let names_at = if dir == "/" { 1 } else { dir.len() + 1 };
        self.nodes
            .range::<str, _>((Bound::Excluded(dir), Bound::Unbounded))
            .take_while(move |(p, _)| p.starts_with(dir))
            .filter(move |(p, _)| {
                p.len() > names_at
                    && p.as_bytes()[names_at - 1] == b'/'
                    && !p[names_at..].contains('/')
            })
            .map(|(p, node)| (p.as_str(), node))
    }

    /// What a directory directly holds, read in one scan of its key range:
    /// the facts behind Table 5a's `contents`, `hasDir` and `hasSymLink`.
    pub fn dir_facts(&self, path: &str) -> DirFacts {
        let mut facts = DirFacts::default();
        for (_, node) in self.child_nodes(path) {
            facts.children += 1;
            facts.has_subdir |= node.meta.kind == FileKind::Directory;
            facts.has_symlink |= node.meta.kind == FileKind::Symlink;
        }
        facts
    }

    /// All paths in the tree (the `FS.FileList` view of Table 7).
    pub fn file_list(&self) -> impl Iterator<Item = &str> {
        self.nodes.keys().map(String::as_str)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Unix-style accessibility check: can `user` (member of `groups`) read
    /// the node?  Checks the owner/group/other read bits; root always can.
    pub fn readable_by(&self, path: &str, user: &str, groups: &[&str]) -> bool {
        user == "root"
            || self
                .metadata(path)
                .is_some_and(|m| m.readable_by(user, |group| groups.contains(&group)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vfs() -> Vfs {
        let mut v = Vfs::new();
        v.add_dir("/", "root", "root", 0o755);
        v.add_dir("/var/lib/mysql", "mysql", "mysql", 0o700);
        v.add_file("/var/lib/mysql/ibdata1", "mysql", "mysql", 0o660, "");
        v.add_file("/etc/php.ini", "root", "root", 0o644, "x=1");
        v.add_symlink("/var/www/html/link", "/etc");
        v
    }

    #[test]
    fn parents_are_created() {
        let v = vfs();
        assert!(v.is_dir("/var"));
        assert!(v.is_dir("/var/lib"));
        assert_eq!(v.metadata("/var").unwrap().owner, "root");
    }

    #[test]
    fn kind_checks() {
        let v = vfs();
        assert!(v.is_dir("/var/lib/mysql"));
        assert!(v.is_file("/etc/php.ini"));
        assert!(!v.is_dir("/etc/php.ini"));
        assert_eq!(
            v.metadata("/var/www/html/link").unwrap().kind,
            FileKind::Symlink
        );
    }

    #[test]
    fn children_and_symlink_detection() {
        let v = vfs();
        let facts = |path| v.dir_facts(path);
        assert_eq!(facts("/var/lib/mysql").children, 1);
        assert!(facts("/var/www/html").has_symlink);
        assert!(!facts("/var/lib/mysql").has_symlink);
        assert!(facts("/var").has_subdir);
    }

    /// The full-scan listing `children` used before it read key ranges.
    fn scan_children<'v>(v: &'v Vfs, path: &str) -> Vec<&'v str> {
        let dir = normalize(path);
        let prefix = if dir == "/" {
            "/".to_string()
        } else {
            format!("{dir}/")
        };
        v.file_list()
            .filter(|p| {
                p.starts_with(&prefix) && p.len() > prefix.len() && !p[prefix.len()..].contains('/')
            })
            .collect()
    }

    #[test]
    fn range_reads_equal_a_full_scan() {
        let mut v = vfs();
        // Siblings that share the directory's name as a prefix sort
        // between it and its own children (`-` and `.` sort before `/`).
        v.add_dir("/a/b", "root", "root", 0o755);
        v.add_file("/a/b-c", "root", "root", 0o644, "");
        v.add_dir("/a/b.d", "root", "root", 0o755);
        v.add_symlink("/a/b.d/link", "/etc");
        v.add_dir("/a/bc", "root", "root", 0o755);
        v.add_dir("/a/bc/sub", "root", "root", 0o755);
        v.add_file("/a/b/c/d", "root", "root", 0o644, "");
        v.add_symlink("/a/b/e", "/a/bc");
        let mut paths: Vec<String> = v.file_list().map(str::to_string).collect();
        paths.extend(
            [
                "/", "", "//", "/a/", "/a/b/", "/a/b//", "/missing", "/a/b/zz", "/a/b-",
            ]
            .map(String::from),
        );
        for path in &paths {
            let reference = scan_children(&v, path);
            let children: Vec<&str> = v.child_nodes(path).map(|(p, _)| p).collect();
            assert_eq!(children, reference, "child_nodes({path:?})");
            let kind_among = |kind| {
                reference
                    .iter()
                    .any(|c| v.metadata(c).map(|m| m.kind) == Some(kind))
            };
            assert_eq!(
                v.dir_facts(path),
                DirFacts {
                    children: reference.len(),
                    has_subdir: kind_among(FileKind::Directory),
                    has_symlink: kind_among(FileKind::Symlink),
                },
                "dir_facts({path:?})"
            );
        }
        let facts = |path| v.dir_facts(path);
        assert_eq!(
            (facts("/a/b"), facts("/a/b/")),
            (
                DirFacts {
                    children: 2,
                    has_subdir: true,
                    has_symlink: true
                },
                facts("/a/b")
            )
        );
        assert!(!facts("/a/bc").has_symlink && facts("/a/bc").has_subdir);
        assert_eq!(facts("/").children, 3);
        assert_eq!(facts("/missing"), DirFacts::default());
    }

    #[test]
    fn trailing_slash_normalized() {
        let v = vfs();
        assert!(v.exists("/var/lib/mysql/"));
        assert!(v.is_dir("/var/lib/mysql/"));
    }

    #[test]
    fn accessibility_owner_group_other() {
        let v = vfs();
        // owner read of 0o700 dir
        assert!(v.readable_by("/var/lib/mysql", "mysql", &["mysql"]));
        // other users cannot read 0o700
        assert!(!v.readable_by("/var/lib/mysql", "apache", &["apache"]));
        // group member can read 0o660 file
        assert!(v.readable_by("/var/lib/mysql/ibdata1", "backup", &["mysql"]));
        // world-readable file
        assert!(v.readable_by("/etc/php.ini", "nobody", &[]));
    }

    #[test]
    fn remove_is_recursive() {
        let mut v = vfs();
        v.remove("/var/lib/mysql");
        assert!(!v.exists("/var/lib/mysql"));
        assert!(!v.exists("/var/lib/mysql/ibdata1"));
        assert!(v.exists("/var/lib"));
    }

    #[test]
    fn chown_chmod() {
        let mut v = vfs();
        assert!(v.chown("/etc/php.ini", "apache", "apache"));
        assert_eq!(v.metadata("/etc/php.ini").unwrap().owner, "apache");
        assert!(v.chmod("/etc/php.ini", 0o600));
        assert_eq!(v.metadata("/etc/php.ini").unwrap().mode, 0o600);
        assert!(!v.chown("/missing", "a", "b"));
    }
}
