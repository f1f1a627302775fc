//! Advisory file locking for shared archives.
//!
//! Multiple tuner processes may append to one journal. The lock is a
//! kernel advisory lock (std's [`File::try_lock`]: `flock` on Unix,
//! `LockFileEx` on Windows) on the sibling file `<path>.lock`. The sibling
//! is created by the first acquisition and then persists; it holds no data.
//! It is a sibling rather than the journal itself because `shard::split`
//! and `shard::compact` replace the journal by rename, and a lock on the
//! replaced inode would not exclude a writer that opens the new one.
//!
//! Acquisition writes, syncs and removes nothing, so a durable append pays
//! for one device flush: its own. Dropping the guard releases the lock, and
//! the kernel releases a dead holder's lock the moment the process exits,
//! so a killed writer never wedges the archive and there is no stale-lock
//! detection. Where `flock` is emulated by POSIX record locks (NFS), the
//! lock excludes other processes but not other threads of one process.

use crate::fsio;
use std::fs::{self, File, OpenOptions, TryLockError};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How lock acquisition behaves under contention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LockOptions {
    /// Give up after this long waiting for the lock.
    pub timeout: Duration,
    /// Delay between acquisition attempts.
    pub retry_every: Duration,
}

impl Default for LockOptions {
    fn default() -> Self {
        LockOptions {
            timeout: Duration::from_secs(10),
            retry_every: Duration::from_millis(2),
        }
    }
}

/// An acquired advisory lock. Dropping it closes the lock file, which
/// releases the lock.
#[derive(Debug)]
pub struct FileLock {
    _file: File,
    lock_path: PathBuf,
}

impl FileLock {
    /// Acquires the advisory lock guarding `resource` (held on
    /// `<resource>.lock`), waiting up to `opts.timeout`. The lock's
    /// directory is created only when it does not exist yet.
    pub fn acquire(resource: &Path, opts: &LockOptions) -> io::Result<FileLock> {
        let lock_path = lock_path_for(resource);
        let open = || {
            OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(&lock_path)
        };
        let file = match open() {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                fs::create_dir_all(fsio::parent_dir(&lock_path))?;
                open()?
            }
            opened => opened?,
        };
        let start = Instant::now();
        loop {
            match file.try_lock() {
                Ok(()) => break,
                Err(TryLockError::WouldBlock) if start.elapsed() < opts.timeout => {
                    std::thread::sleep(opts.retry_every);
                }
                Err(TryLockError::WouldBlock) => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("lock {} held too long", lock_path.display()),
                    ));
                }
                Err(TryLockError::Error(e)) => return Err(e),
            }
        }
        Ok(FileLock {
            _file: file,
            lock_path,
        })
    }

    /// The lockfile path (for diagnostics).
    pub fn path(&self) -> &Path {
        &self.lock_path
    }
}

/// Lockfile path guarding `resource`.
pub fn lock_path_for(resource: &Path) -> PathBuf {
    let mut name = resource
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "resource".to_string());
    name.push_str(".lock");
    resource.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gptune_db_lock_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn acquire_release_reacquire() {
        let d = tmpdir("basic");
        let r = d.join("journal.jsonl");
        let l = FileLock::acquire(&r, &LockOptions::default()).unwrap();
        assert!(l.path().exists());
        drop(l);
        let l2 = FileLock::acquire(&r, &LockOptions::default()).unwrap();
        drop(l2);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn acquire_creates_a_missing_directory() {
        let d = tmpdir("mkdir");
        let r = d.join("a").join("b").join("j.jsonl");
        let l = FileLock::acquire(&r, &LockOptions::default()).unwrap();
        assert!(l.path().exists());
        drop(l);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn contention_times_out() {
        let d = tmpdir("timeout");
        let r = d.join("j.jsonl");
        let _held = FileLock::acquire(&r, &LockOptions::default()).unwrap();
        let fast = LockOptions {
            timeout: Duration::from_millis(40),
            retry_every: Duration::from_millis(5),
        };
        let e = FileLock::acquire(&r, &fast).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn stale_lock_is_broken() {
        let d = tmpdir("stale");
        let r = d.join("j.jsonl");
        // A lockfile left behind by a holder that no longer runs, in the
        // pid-stamped form older versions wrote: it holds no lock.
        fs::write(lock_path_for(&r), "pid=0 t=0").unwrap();
        let opts = LockOptions {
            timeout: Duration::from_millis(500),
            retry_every: Duration::from_millis(2),
        };
        let l = FileLock::acquire(&r, &opts).unwrap();
        drop(l);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn mutual_exclusion_across_threads() {
        let d = tmpdir("mutex");
        let r = Arc::new(d.join("j.jsonl"));
        let inside = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = Arc::clone(&r);
            let inside = Arc::clone(&inside);
            let max_seen = Arc::clone(&max_seen);
            handles.push(std::thread::spawn(move || {
                for _ in 0..20 {
                    let _l = FileLock::acquire(&r, &LockOptions::default()).unwrap();
                    let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                    max_seen.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_micros(200));
                    inside.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(max_seen.load(Ordering::SeqCst), 1, "lock not exclusive");
        let _ = fs::remove_dir_all(&d);
    }
}
