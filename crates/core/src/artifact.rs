//! Crash-safe writes of whole-file artifacts: detector snapshots, pipeline
//! reports, traces, profiles, SARIF logs and finding baselines.

use std::ffi::OsString;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// Write `contents` to `path` atomically: a temp file in the same
/// directory, fsynced, then renamed over the target, and the directory
/// fsynced so the rename survives a crash.  A reader of `path` (an
/// `encore-serve` poller hot-reloading a snapshot, a CI step picking up a
/// report) sees the old file or the new one, never a truncated one.
///
/// # Errors
///
/// `path` names no file, or creating, writing, syncing or renaming the
/// temp file fails; the temp file is removed and the target is untouched.
pub fn write_atomically(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let target = path.as_ref();
    let name = target
        .file_name()
        .ok_or_else(|| io::Error::other("not a file path"))?;
    let mut temp_name = OsString::from(".");
    temp_name.push(name);
    temp_name.push(format!(".tmp-{}", std::process::id()));
    let temp = target.with_file_name(temp_name);
    let written = File::create(&temp).and_then(|mut file| {
        file.write_all(contents.as_ref())?;
        file.sync_all()
    });
    if let Err(e) = written.and_then(|()| std::fs::rename(&temp, target)) {
        let _ = std::fs::remove_file(&temp);
        return Err(e);
    }
    let dir = target
        .parent()
        .filter(|dir| !dir.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::fs::MetadataExt;
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("encore-artifact-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn replacing_a_file_renames_a_new_inode_into_place() {
        let dir = scratch_dir("replace");
        let path = dir.join("artifact.json");
        std::fs::write(&path, "an older, longer artifact\n").unwrap();
        let before = std::fs::metadata(&path).unwrap().ino();

        write_atomically(&path, b"{\"new\":1}\n").expect("write");

        assert_ne!(std::fs::metadata(&path).unwrap().ino(), before);
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"new\":1}\n");
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(entries, vec!["artifact.json"], "no temp file left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writing_into_a_missing_directory_fails_and_creates_nothing() {
        let dir = scratch_dir("missing");
        let missing = dir.join("no-such-dir");
        assert!(write_atomically(missing.join("artifact.json"), "x").is_err());
        assert!(!missing.exists());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
