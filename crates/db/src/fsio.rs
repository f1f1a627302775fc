//! Crash-safe filesystem primitives.
//!
//! Two write disciplines cover every durable artifact of the database:
//!
//! * **Snapshots** (checkpoints, compacted journals, `History` files) use
//!   write-to-temp → fsync → atomic rename → fsync(dir). A crash at any
//!   point leaves either the complete old file or the complete new file,
//!   never a torn mixture.
//! * **Journals** use append + fsync of whole lines; a crash can only tear
//!   the final line, which recovery drops (see [`crate::journal`]).

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the destination, then fsync the directory so the
/// rename itself is durable.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = parent_dir(path);
    fs::create_dir_all(dir)?;
    let tmp = temp_sibling(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    match fs::rename(&tmp, path) {
        Ok(()) => {}
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
    }
    sync_dir(dir);
    Ok(())
}

/// The directory holding `path`: its parent, or `.` for a bare file name
/// (whose parent is the empty path), so the directory entry of `x.json`
/// is synced like that of `a/x.json`.
pub fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    }
}

/// A unique temp-file path in the same directory as `path` (same
/// filesystem, so the rename is atomic).
fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "file".to_string());
    name.push_str(&format!(".tmp.{}", std::process::id()));
    // Disambiguate concurrent writers within one process.
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    name.push_str(&format!(".{}", COUNTER.fetch_add(1, Ordering::Relaxed)));
    path.with_file_name(name)
}

/// Best-effort directory fsync (makes renames/creates durable on POSIX;
/// a no-op failure on platforms that refuse to open directories).
pub fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Opens a file for durable appending, creating it (and its directory)
/// when missing.
pub fn open_append(path: &Path) -> io::Result<File> {
    fs::create_dir_all(parent_dir(path))?;
    OpenOptions::new().create(true).append(true).open(path)
}

/// Appends `bytes` as one durable write: single `write_all` + `sync_data`.
pub fn append_durable(file: &mut File, bytes: &[u8]) -> io::Result<()> {
    file.write_all(bytes)?;
    file.sync_data()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gptune_db_fsio_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn atomic_write_creates_and_replaces() {
        let d = tmpdir("basic");
        let p = d.join("x.json");
        atomic_write(&p, b"first").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"first");
        atomic_write(&p, b"second").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"second");
        // No temp litter left behind.
        let leftovers: Vec<_> = fs::read_dir(&d)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn atomic_write_creates_missing_directory() {
        let d = tmpdir("mkdir").join("a").join("b");
        let p = d.join("y.json");
        atomic_write(&p, b"data").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"data");
        let _ = fs::remove_dir_all(d.parent().unwrap().parent().unwrap());
    }

    #[test]
    fn parent_dir_of_a_bare_name_is_the_working_directory() {
        assert_eq!(parent_dir(Path::new("x.json")), Path::new("."));
        assert_eq!(parent_dir(Path::new("a/x.json")), Path::new("a"));
    }

    #[test]
    fn append_accumulates() {
        let d = tmpdir("append");
        let p = d.join("j.jsonl");
        let mut f = open_append(&p).unwrap();
        append_durable(&mut f, b"one\n").unwrap();
        append_durable(&mut f, b"two\n").unwrap();
        drop(f);
        let mut f = open_append(&p).unwrap();
        append_durable(&mut f, b"three\n").unwrap();
        drop(f);
        assert_eq!(fs::read_to_string(&p).unwrap(), "one\ntwo\nthree\n");
        let _ = fs::remove_dir_all(&d);
    }
}
