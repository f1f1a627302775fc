//! A writer killed while it holds a journal's lock must not block the next
//! writer: the kernel releases the lock the moment its holder dies.
//!
//! The test re-runs this test binary on the ignored helper below, so the
//! lock is held by another process, which the test then kills.

use gptune_db::lock::{FileLock, LockOptions};
use std::io::{self, BufRead, BufReader, IsTerminal};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

/// Child half of `a_killed_holder_releases_the_lock_at_once`: takes the
/// lock on a fresh journal, prints its path, and holds the lock until its
/// stdin (a pipe from the parent) closes. From a terminal it returns at
/// once.
#[test]
#[ignore = "run as a child process by a_killed_holder_releases_the_lock_at_once"]
fn holds_the_lock_until_killed() {
    let d = std::env::temp_dir().join(format!("gptune_db_killed_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    let r = d.join("j.jsonl");
    let _held = FileLock::acquire(&r, &LockOptions::default()).unwrap();
    println!("lock-held {}", r.display());
    if !io::stdin().is_terminal() {
        let _ = io::stdin().lines().count();
    }
}

#[test]
fn a_killed_holder_releases_the_lock_at_once() {
    let mut child = Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "holds_the_lock_until_killed",
            "--ignored",
            "--nocapture",
            "--quiet",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    // Wait on the pipe, not a sleep: the line comes once the lock is held.
    let r = BufReader::new(child.stdout.take().unwrap())
        .lines()
        .map_while(Result::ok)
        .find_map(|line| Some(PathBuf::from(line.split_once("lock-held ")?.1)))
        .expect("the child printed no lock-held line");
    let opts = LockOptions {
        timeout: Duration::from_millis(200),
        ..LockOptions::default()
    };
    let while_alive = FileLock::acquire(&r, &opts).map(drop);
    child.kill().unwrap();
    child.wait().unwrap();
    let after_kill = FileLock::acquire(&r, &opts).map(drop);
    let _ = std::fs::remove_dir_all(r.parent().unwrap());
    assert_eq!(
        while_alive.unwrap_err().kind(),
        io::ErrorKind::TimedOut,
        "the live child must hold the lock"
    );
    after_kill.expect("a killed holder's lock must not outlive it");
}
