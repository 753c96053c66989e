//! The poll tick and the service's second source of targets: watched
//! directories.
//!
//! ConfEx frames configuration analysis as a service over a *changing*
//! image population.  Client `check` requests are one way targets arrive;
//! a watched directory is the other.  Every poll interval the service runs
//! one [`Poller::tick`]: it hot-reloads every snapshot whose file changed
//! ([`SnapshotRegistry::poll`]), then scans each watched directory.
//!
//! A watched directory feeds one registered app, which supplies the
//! detector and its kind.  Each regular, non-dot file in it is one target,
//! whose contents become the app's config file in a minimal
//! [`SystemImage`] ([`target_image`]).  Such targets carry no accounts,
//! services or filesystem beyond the config itself, so environment-backed
//! rules evaluate to not-applicable; a drop box of config files supports
//! the config-content checks (unknown entries, type violations, suspicious
//! values and config-only correlations).
//!
//! A scan keys "did this file change" on the file's signature (mtime, size
//! and a content hash) and re-checks only added or changed files, or every tracked file after a successful hot
//! reload of the app, since its rules changed.  Dotfiles and the registry's
//! own snapshot files are never targets.  Re-checks go through a
//! caller-supplied `check` function; the service passes one that runs them
//! on the poll thread through the same check slot as client `check`
//! requests.  When it answers `busy`, the affected signatures stay
//! unrecorded, so the next tick retries them.  A watched app reads
//! not-ready until its first scan is recorded.
//!
//! Work is counted by the cumulative `serve.watch.*` instruments
//! ([`crate::obs`]); [`Poller::heartbeat`] is the per-tick delta of the
//! whole scrape view that `--heartbeat` appends.

use crate::protocol::Response;
use crate::registry::SnapshotRegistry;
use encore_model::AppKind;
use encore_obs::PipelineReport;
use encore_sysimage::SystemImage;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// A file's last observed state: metadata plus a content fingerprint.
///
/// Metadata alone is not a change key: an in-place rewrite with identical
/// length inside the filesystem's mtime resolution produces the same
/// `(mtime, size)` pair, and such a file would never be re-checked.
/// Folding an FNV-1a hash of the contents into the signature closes that
/// hole; the files are small configs and snapshots, so hashing them each
/// poll is cheap and dependency-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FileSig {
    mtime: SystemTime,
    size: u64,
    /// FNV-1a of the bytes read.
    pub(crate) fingerprint: u64,
}

impl FileSig {
    /// Read a regular file's signature; `None` for directories, dangling
    /// entries, or races where the file vanished mid-poll.
    pub(crate) fn of(path: &Path) -> Option<FileSig> {
        FileSig::read(path).ok().map(|(sig, _)| sig)
    }

    /// Read a regular file once: its signature and the very bytes the
    /// fingerprint was taken from, so a caller that parses them records a
    /// signature of what it parsed.
    pub(crate) fn read(path: &Path) -> io::Result<(FileSig, Vec<u8>)> {
        let meta = std::fs::metadata(path)?;
        if !meta.is_file() {
            return Err(io::Error::other("not a regular file"));
        }
        let contents = std::fs::read(path)?;
        let sig = FileSig {
            mtime: meta.modified()?,
            size: meta.len(),
            fingerprint: encore::fnv1a(&contents),
        };
        Ok((sig, contents))
    }
}

/// Wrap one configuration file's contents into a minimal [`SystemImage`]
/// whose only file is the app's canonical config path, owned by root.
pub fn target_image(app: AppKind, id: &str, config: &str) -> SystemImage {
    SystemImage::builder(id)
        .file(app.config_path(), "root", "root", 0o644, config)
        .build()
}

/// What one scan of a watched directory found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scan {
    /// Targets that appeared.
    pub added: usize,
    /// Targets whose signature changed.
    pub changed: usize,
    /// Targets that disappeared.
    pub removed: usize,
    /// Report bodies of every re-checked target, in file-name order.
    pub reports: Vec<(String, String)>,
    /// The check was answered `busy`: only removals were recorded, so
    /// the next tick finds the same additions and changes again.
    pub busy: bool,
    /// Targets tracked after the scan.
    pub tracked: usize,
}

/// One watched directory and the signatures its recorded verdicts cover.
#[derive(Debug)]
struct WatchedDir {
    app: String,
    dir: PathBuf,
    targets: BTreeMap<String, FileSig>,
    /// The app's reload count when the verdicts were recorded; `None`
    /// before the first recorded scan.
    generation: Option<u64>,
}

impl WatchedDir {
    fn scan(
        &mut self,
        registry: &SnapshotRegistry,
        snapshots: &[PathBuf],
        check: &mut impl FnMut(&str, Vec<(String, String)>) -> Response,
    ) -> io::Result<Scan> {
        let in_dir =
            |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", self.dir.display()));
        let generation = registry.reloads(&self.app);
        // New rules invalidate every recorded verdict.
        let reloaded = generation != self.generation;

        let mut seen: BTreeMap<String, (PathBuf, FileSig)> = BTreeMap::new();
        for entry in std::fs::read_dir(&self.dir).map_err(in_dir)? {
            let path = entry.map_err(in_dir)?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.starts_with('.')
                || std::fs::canonicalize(&path).is_ok_and(|p| snapshots.contains(&p))
            {
                continue;
            }
            if let Some(sig) = FileSig::of(&path) {
                seen.insert(name.to_string(), (path, sig));
            }
        }

        let (mut added, mut changed) = (0, 0);
        let mut targets: Vec<(String, String)> = Vec::new();
        for (name, (path, sig)) in &seen {
            match self.targets.get(name) {
                None => added += 1,
                Some(old) if old != sig => changed += 1,
                Some(_) if reloaded => {}
                Some(_) => continue,
            }
            // Vanished or unreadable since the signature: next tick's problem.
            if let Ok(payload) = std::fs::read_to_string(path) {
                targets.push((name.clone(), payload));
            }
        }
        let removed = self
            .targets
            .keys()
            .filter(|n| !seen.contains_key(*n))
            .count();

        let reports = if targets.is_empty() {
            Some(Vec::new())
        } else {
            match check(&self.app, targets) {
                Response::Reports(reports) => Some(reports),
                Response::Busy => None,
                other => {
                    return Err(io::Error::other(format!(
                        "checking {}: unexpected answer {other:?}",
                        self.dir.display()
                    )))
                }
            }
        };
        crate::obs::WATCH_SCANS.incr();
        crate::obs::WATCH_TARGETS_REMOVED.add(removed as u64);
        match &reports {
            // Only removals are recorded; the next tick sees the rest again.
            None => self.targets.retain(|name, _| seen.contains_key(name)),
            Some(reports) => {
                self.targets = seen
                    .into_iter()
                    .map(|(name, (_, sig))| (name, sig))
                    .collect();
                self.generation = generation;
                registry.scan_recorded(&self.app);
                crate::obs::WATCH_TARGETS_ADDED.add(added as u64);
                crate::obs::WATCH_TARGETS_CHANGED.add(changed as u64);
                crate::obs::WATCH_TARGETS_RECHECKED.add(reports.len() as u64);
            }
        }
        Ok(Scan {
            added,
            changed,
            removed,
            busy: reports.is_none(),
            reports: reports.unwrap_or_default(),
            tracked: self.targets.len(),
        })
    }
}

/// The service's poll tick: snapshot hot reloads, watched-directory
/// scans, and the heartbeat delta.
#[derive(Debug)]
pub struct Poller {
    dirs: Vec<WatchedDir>,
    /// The scrape view at the previous [`Poller::heartbeat`].
    baseline: PipelineReport,
}

impl Poller {
    /// A poller scanning `watch`, a list of (registered app, directory)
    /// pairs.  Every watched app reads not-ready until its first scan is
    /// recorded.
    ///
    /// # Errors
    ///
    /// Names a watched app that is not registered.
    pub fn new(registry: &SnapshotRegistry, watch: &[(String, PathBuf)]) -> Result<Poller, String> {
        for (app, _) in watch {
            registry.await_scan(app)?;
        }
        Ok(Poller {
            dirs: watch
                .iter()
                .map(|(app, dir)| WatchedDir {
                    app: app.clone(),
                    dir: dir.clone(),
                    targets: BTreeMap::new(),
                    generation: None,
                })
                .collect(),
            baseline: crate::obs::scrape_report(),
        })
    }

    /// Whether any directory is watched.
    pub(crate) fn is_watching(&self) -> bool {
        !self.dirs.is_empty()
    }

    /// One tick: hot-reload every changed snapshot, then scan each watched
    /// directory, submitting its re-checks through `check(app, targets)`.
    /// Returns one result per watched directory, in `watch` order; with
    /// nothing watched, the tick touches no directory.
    pub fn tick(
        &mut self,
        registry: &SnapshotRegistry,
        mut check: impl FnMut(&str, Vec<(String, String)>) -> Response,
    ) -> Vec<io::Result<Scan>> {
        registry.poll();
        let mut scans = Vec::with_capacity(self.dirs.len());
        if self.is_watching() {
            let snapshots: Vec<PathBuf> = registry
                .snapshot_paths()
                .iter()
                .filter_map(|p| std::fs::canonicalize(p).ok())
                .collect();
            for dir in &mut self.dirs {
                scans.push(dir.scan(registry, &snapshots, &mut check));
            }
            let tracked = self.dirs.iter().map(|d| d.targets.len() as u64).sum();
            crate::obs::WATCH_TARGETS_TRACKED.set(tracked);
        }
        crate::obs::sync_app_gauges(registry);
        scans
    }

    /// The scrape view's change since the previous call (since
    /// construction, the first time): the `--heartbeat` line.
    pub fn heartbeat(&mut self) -> PipelineReport {
        let current = crate::obs::scrape_report();
        let delta = current.delta_since(&self.baseline);
        self.baseline = current;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("encore-sig-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn signature_distinguishes_same_size_rewrite_with_preserved_mtime() {
        let dir = scratch("same-size");
        let path = dir.join("target.cnf");
        std::fs::write(&path, "[mysqld]\nport = 3306\n").unwrap();
        let before = FileSig::of(&path).expect("signature");

        // Rewrite with different contents of the *same length*, then put
        // the original mtime back: metadata is now indistinguishable.
        std::fs::write(&path, "[mysqld]\nport = 3307\n").unwrap();
        std::fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(before.mtime)
            .unwrap();
        let after = FileSig::of(&path).expect("signature");

        assert_eq!(after.mtime, before.mtime, "mtime restored");
        assert_eq!(after.size, before.size, "same length");
        assert_ne!(after, before, "fingerprint catches the rewrite");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn signature_is_stable_for_unchanged_contents() {
        let dir = scratch("stable");
        let path = dir.join("target.cnf");
        std::fs::write(&path, "[mysqld]\nport = 3306\n").unwrap();
        assert_eq!(FileSig::of(&path), FileSig::of(&path));
        assert!(FileSig::of(&dir).is_none(), "directories have no signature");
        assert!(FileSig::of(&dir.join("missing")).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn busy_scans_leave_targets_unrecorded_until_a_later_tick() {
        let dir = scratch("busy");
        let snapshot = dir.join("mysql.snap");
        let empty = encore::AnomalyDetector::from_parts(
            encore::RuleSet::default(),
            encore::TypeMap::default(),
            encore::TrainingStats::default(),
        );
        std::fs::write(&snapshot, empty.snapshot().render()).unwrap();
        std::fs::write(dir.join("a.cnf"), "[mysqld]\nport = 3306\n").unwrap();
        let registry = SnapshotRegistry::new();
        registry.load("mysql", AppKind::Mysql, &snapshot).unwrap();
        assert!(Poller::new(&registry, &[("web".to_string(), dir.clone())]).is_err());
        let mut poller = Poller::new(&registry, &[("mysql".to_string(), dir.clone())]).unwrap();
        let mut tick = |busy: bool| {
            let mut scans = poller.tick(&registry, |app, targets| {
                if busy {
                    Response::Busy
                } else {
                    registry.check(app, &targets, Some(1))
                }
            });
            scans.remove(0).expect("scan")
        };

        let refused = tick(true);
        assert!(refused.busy && refused.reports.is_empty());
        assert_eq!((refused.added, refused.tracked), (1, 0), "nothing recorded");
        assert!(!registry.ready().0, "not ready before a recorded scan");
        let retried = tick(false);
        assert_eq!((retried.added, retried.reports.len()), (1, 1));
        assert!(registry.ready().0);

        // A change refused as busy keeps the old signature, so the next
        // tick still sees it as changed.
        std::fs::write(dir.join("a.cnf"), "[mysqld]\nport = 3307\n").unwrap();
        let refused = tick(true);
        assert_eq!((refused.changed, refused.tracked), (1, 1));
        let retried = tick(false);
        assert_eq!((retried.changed, retried.reports.len()), (1, 1));
        assert!(tick(false).reports.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
