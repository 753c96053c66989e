//! The snapshot registry: named detectors loaded side by side, each
//! hot-reloaded independently.
//!
//! Every registered app owns a snapshot path, the detector built from it,
//! the file signature it was built from, and a per-app readiness bit.  A
//! failed reload is *contained*: the old detector keeps serving, the
//! signature of the bytes it read is remembered (no retry storm against
//! the same bad file), and only that app's readiness flips — the
//! aggregate feeds `/readyz` with one body line per app so an operator
//! can see which tenant is sick.  An app fed by a watched directory also
//! reads not-ready until its first scan is recorded ([`crate::watch`]).

use crate::protocol::Response;
use crate::watch::{target_image, FileSig};
use encore::{AnomalyDetector, DetectorSnapshot, FleetOptions};
use encore_model::AppKind;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One registered app.
#[derive(Debug)]
struct AppState {
    kind: AppKind,
    path: PathBuf,
    detector: Arc<AnomalyDetector>,
    /// Signature of the bytes the last load read, whether or not they
    /// parsed.
    sig: Option<FileSig>,
    ready: bool,
    /// Watched, and no scan of its directory recorded yet.
    scan_pending: bool,
    /// Successful reloads after the initial load.
    reloads: u64,
    last_error: Option<String>,
}

/// Point-in-time status of one app, for the `apps` verb and `/readyz`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppStatus {
    /// Registry name (what clients pass to `check`).
    pub name: String,
    /// Application flavor of the detector.
    pub kind: AppKind,
    /// Serving with a current snapshot (false while the last reload is
    /// failing, or while a watched directory awaits its first scan).
    pub ready: bool,
    /// Successful hot-reloads since registration.
    pub reloads: u64,
    /// Why the app is not ready, when it is not.
    pub last_error: Option<String>,
}

/// Named detectors with independent hot-reload.
#[derive(Debug, Default)]
pub struct SnapshotRegistry {
    apps: Mutex<BTreeMap<String, AppState>>,
}

/// Read the snapshot at `path` once and parse it.  The signature is taken
/// from the bytes parsed, whether or not they parse; `None` when the file
/// could not be read.
fn load_snapshot(path: &Path) -> (Option<FileSig>, Result<AnomalyDetector, String>) {
    let in_file = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    match FileSig::read(path) {
        Err(e) => (None, Err(in_file(&e))),
        Ok((sig, bytes)) => {
            let detector = String::from_utf8(bytes)
                .map_err(|e| in_file(&e))
                .and_then(|text| DetectorSnapshot::parse(&text).map_err(|e| in_file(&e)))
                .map(AnomalyDetector::from_snapshot);
            (Some(sig), detector)
        }
    }
}

impl SnapshotRegistry {
    /// An empty registry.
    pub fn new() -> SnapshotRegistry {
        SnapshotRegistry::default()
    }

    /// Register `name` by loading the snapshot at `path` strictly — a
    /// service must not start claiming apps it cannot serve.
    ///
    /// # Errors
    ///
    /// Returns the read/parse failure; the registry is unchanged.
    pub fn load(&self, name: &str, kind: AppKind, path: &Path) -> Result<(), String> {
        let (sig, detector) = load_snapshot(path);
        let detector = detector?;
        let mut apps = self.apps.lock().expect("registry poisoned");
        apps.insert(
            name.to_string(),
            AppState {
                kind,
                path: path.to_path_buf(),
                detector: Arc::new(detector),
                sig,
                ready: true,
                scan_pending: false,
                reloads: 0,
                last_error: None,
            },
        );
        Ok(())
    }

    /// The detector currently serving `name`, if registered.  Failed
    /// reloads keep the previous detector here — check-traffic keeps
    /// flowing while readiness reports the problem.
    pub fn detector(&self, name: &str) -> Option<(AppKind, Arc<AnomalyDetector>)> {
        let apps = self.apps.lock().expect("registry poisoned");
        apps.get(name)
            .map(|app| (app.kind, Arc::clone(&app.detector)))
    }

    /// Check `targets` (name, config payload) against `app`'s current
    /// detector in one fleet batch.  The report bodies are exactly
    /// [`Report::render`](encore::Report::render), byte-identical to what
    /// a direct [`check_fleet`](AnomalyDetector::check_fleet) caller sees.
    pub fn check(
        &self,
        app: &str,
        targets: &[(String, String)],
        workers: Option<usize>,
    ) -> Response {
        let Some((kind, detector)) = self.detector(app) else {
            return Response::Error(format!("unknown app `{app}`"));
        };
        let images: Vec<_> = targets
            .iter()
            .map(|(name, payload)| target_image(kind, name, payload))
            .collect();
        let results = detector.check_fleet(kind, &images, &FleetOptions { workers });
        crate::obs::TARGETS_CHECKED.add(targets.len() as u64);
        let reports = targets
            .iter()
            .zip(results)
            .map(|((name, _), result)| {
                let body = match result {
                    Ok(report) => report.render(),
                    Err(e) => format!("assemble error: {e}\n"),
                };
                (name.clone(), body)
            })
            .collect();
        Response::Reports(reports)
    }

    /// Successful reloads of `name` so far; a change means new rules.
    pub(crate) fn reloads(&self, name: &str) -> Option<u64> {
        let apps = self.apps.lock().expect("registry poisoned");
        apps.get(name).map(|app| app.reloads)
    }

    /// Every registered snapshot path (a watched directory skips them).
    pub(crate) fn snapshot_paths(&self) -> Vec<PathBuf> {
        let apps = self.apps.lock().expect("registry poisoned");
        apps.values().map(|app| app.path.clone()).collect()
    }

    /// Mark `name` as fed by a watched directory: not ready until
    /// [`SnapshotRegistry::scan_recorded`].
    pub(crate) fn await_scan(&self, name: &str) -> Result<(), String> {
        let mut apps = self.apps.lock().expect("registry poisoned");
        let app = apps
            .get_mut(name)
            .ok_or_else(|| format!("watched app `{name}` is not registered"))?;
        app.scan_pending = true;
        Ok(())
    }

    /// A scan of `name`'s watched directory was recorded.
    pub(crate) fn scan_recorded(&self, name: &str) {
        let mut apps = self.apps.lock().expect("registry poisoned");
        if let Some(app) = apps.get_mut(name) {
            app.scan_pending = false;
        }
    }

    /// Registered app names, sorted.
    pub fn names(&self) -> Vec<String> {
        let apps = self.apps.lock().expect("registry poisoned");
        apps.keys().cloned().collect()
    }

    /// Force a reload of `name` regardless of file signature (the
    /// `reload` admin verb).
    ///
    /// # Errors
    ///
    /// `Err` for an unknown app or a failed load; a failed load keeps the
    /// old detector serving and flips only this app's readiness.
    pub fn reload(&self, name: &str) -> Result<(), String> {
        // Load outside the lock: a slow disk must not stall `detector()`
        // lookups for every other app.
        let path = {
            let apps = self.apps.lock().expect("registry poisoned");
            let Some(app) = apps.get(name) else {
                return Err(format!("unknown app `{name}`"));
            };
            app.path.clone()
        };
        let (sig, loaded) = load_snapshot(&path);
        let mut apps = self.apps.lock().expect("registry poisoned");
        let Some(app) = apps.get_mut(name) else {
            return Err(format!("unknown app `{name}`"));
        };
        // The signature of the bytes just parsed: a failed load is not
        // retried until the file changes from what it read.
        app.sig = sig;
        match loaded {
            Ok(detector) => {
                app.detector = Arc::new(detector);
                app.ready = true;
                app.reloads += 1;
                app.last_error = None;
                crate::obs::SNAPSHOT_RELOADS.incr();
                Ok(())
            }
            Err(error) => {
                // The old detector keeps serving.
                app.ready = false;
                app.last_error = Some(error.clone());
                crate::obs::RELOAD_FAILURES.incr();
                Err(error)
            }
        }
    }

    /// Reload every app whose snapshot file signature changed (the poll
    /// loop).  Returns the names that attempted a reload, successful or
    /// not.
    pub fn poll(&self) -> Vec<String> {
        let names = self.names();
        let mut touched = Vec::new();
        for name in names {
            let changed = {
                let apps = self.apps.lock().expect("registry poisoned");
                match apps.get(&name) {
                    Some(app) => FileSig::of(&app.path) != app.sig,
                    None => false,
                }
            };
            if changed {
                let _ = self.reload(&name);
                touched.push(name);
            }
        }
        touched
    }

    /// Status of every app, sorted by name.
    pub fn statuses(&self) -> Vec<AppStatus> {
        let apps = self.apps.lock().expect("registry poisoned");
        apps.iter()
            .map(|(name, app)| AppStatus {
                name: name.clone(),
                kind: app.kind,
                ready: app.ready && !app.scan_pending,
                reloads: app.reloads,
                last_error: app.last_error.clone(),
            })
            .collect()
    }

    /// Aggregate readiness plus a per-app body for `/readyz`: ready only
    /// when every registered app is ready (an empty registry is not a
    /// serving registry).
    pub fn ready(&self) -> (bool, String) {
        let statuses = self.statuses();
        let all_ready = !statuses.is_empty() && statuses.iter().all(|s| s.ready);
        let mut body = String::new();
        for status in &statuses {
            body.push_str(&format!(
                "{} {}\n",
                status.name,
                if status.ready { "ready" } else { "not-ready" }
            ));
        }
        if statuses.is_empty() {
            body.push_str("no apps registered\n");
        }
        (all_ready, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore::{RuleSet, TrainingStats, TypeMap};

    fn empty_snapshot_text() -> String {
        AnomalyDetector::from_parts(
            RuleSet::default(),
            TypeMap::default(),
            TrainingStats::default(),
        )
        .snapshot()
        .render()
    }

    fn write_snapshot(dir: &Path, name: &str) -> PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, empty_snapshot_text()).expect("write snapshot");
        path
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("encore-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn load_is_strict_but_reload_failures_are_contained() {
        let dir = temp_dir("contained");
        let registry = SnapshotRegistry::new();
        assert!(
            registry
                .load("mysql", AppKind::Mysql, &dir.join("missing.snap"))
                .is_err(),
            "initial load of a missing snapshot must fail"
        );
        assert!(registry.detector("mysql").is_none());

        let path = write_snapshot(&dir, "mysql.snap");
        registry
            .load("mysql", AppKind::Mysql, &path)
            .expect("valid snapshot loads");
        let (kind, detector) = registry.detector("mysql").expect("registered");
        assert_eq!(kind, AppKind::Mysql);
        let before = Arc::as_ptr(&detector);

        // Corrupt the file: the reload fails, readiness flips, but the
        // old detector keeps serving.
        std::fs::write(&path, "not a snapshot").expect("corrupt");
        assert!(registry.reload("mysql").is_err());
        let (ready, body) = registry.ready();
        assert!(!ready);
        assert_eq!(body, "mysql not-ready\n");
        let (_, detector) = registry.detector("mysql").expect("still serving");
        assert_eq!(Arc::as_ptr(&detector), before, "old detector retained");
        let status = &registry.statuses()[0];
        assert!(!status.ready);
        assert!(status.last_error.is_some());

        // Repairing the file and reloading recovers readiness.
        std::fs::write(&path, empty_snapshot_text()).expect("repair");
        registry.reload("mysql").expect("repaired snapshot loads");
        assert!(registry.ready().0);
        // Only successful reloads count: the failed one did not.
        assert_eq!(registry.statuses()[0].reloads, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poll_reloads_only_signature_changes_and_failures_do_not_retry() {
        let dir = temp_dir("poll");
        let registry = SnapshotRegistry::new();
        let mysql = write_snapshot(&dir, "mysql.snap");
        let web = write_snapshot(&dir, "web.snap");
        registry
            .load("mysql", AppKind::Mysql, &mysql)
            .expect("load mysql");
        registry
            .load("web", AppKind::Apache, &web)
            .expect("load web");

        assert!(registry.poll().is_empty(), "unchanged files: no reloads");

        // Corrupt one app; the first poll attempts (and fails) it, the
        // second leaves the remembered bad signature alone.
        std::fs::write(&mysql, "garbage").expect("corrupt");
        assert_eq!(registry.poll(), vec!["mysql".to_string()]);
        assert!(registry.poll().is_empty(), "bad signature remembered");
        let (ready, body) = registry.ready();
        assert!(!ready);
        assert_eq!(body, "mysql not-ready\nweb ready\n");
        // The healthy app is untouched.
        assert!(registry.detector("web").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_recorded_signature_fingerprints_the_bytes_parsed() {
        let dir = temp_dir("fingerprint");
        let path = write_snapshot(&dir, "mysql.snap");
        let registry = SnapshotRegistry::new();
        let recorded = |registry: &SnapshotRegistry| {
            let apps = registry.apps.lock().expect("registry");
            apps["mysql"].sig.map(|sig| sig.fingerprint)
        };
        registry
            .load("mysql", AppKind::Mysql, &path)
            .expect("valid snapshot loads");
        let parsed = empty_snapshot_text();
        assert_eq!(recorded(&registry), Some(encore::fnv1a(parsed.as_bytes())));

        std::fs::write(&path, "not a snapshot").expect("corrupt");
        assert!(registry.reload("mysql").is_err());
        assert_eq!(recorded(&registry), Some(encore::fnv1a(b"not a snapshot")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_registry_is_not_ready() {
        let registry = SnapshotRegistry::new();
        let (ready, body) = registry.ready();
        assert!(!ready);
        assert_eq!(body, "no apps registered\n");
    }
}
