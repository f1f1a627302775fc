//! Fixture-driven tests for the GX7xx concurrency tier and the
//! summary-based GX303 — each rule gets one triggering and one clean
//! fixture, linted under synthetic *production* paths (the fixtures
//! directory itself is test code by the lint's own path rules), plus a
//! golden-file test for the `lint --lock-graph` text rendering. GX702
//! also carries every case of the lexical lock rules it replaced: guards
//! across channel ops and joins, and blocking I/O under the serve
//! session-table lock.

use gptune_xtask::concurrency;
use gptune_xtask::config::Config;
use gptune_xtask::context::FileCtx;
use gptune_xtask::lexer::lex;
use gptune_xtask::parse::{parse_file, ParsedFile};
use gptune_xtask::rules::Diagnostic;

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

fn parsed_source(path_rel: &str, src: &str) -> ParsedFile {
    parse_file(&FileCtx::new(path_rel, &lex(src)))
}

fn parsed(name: &str, path_rel: &str) -> ParsedFile {
    parsed_source(path_rel, &fixture(name))
}

/// Runs the concurrency tier over fixtures mounted at synthetic paths.
fn check(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let parsed: Vec<ParsedFile> = files.iter().map(|(n, p)| parsed(n, p)).collect();
    concurrency::check(&parsed, &Config::default())
}

/// GX702 lines for one source file mounted at `path_rel`.
fn gx702_lines(path_rel: &str, src: &str) -> Vec<u32> {
    concurrency::check(&[parsed_source(path_rel, src)], &Config::default())
        .iter()
        .filter(|d| d.rule == "GX702")
        .map(|d| d.line)
        .collect()
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule).collect()
}

#[test]
fn gx701_flags_the_seeded_inversion_with_both_witness_paths() {
    let diags = check(&[("gx701_inversion.rs", "crates/serve/src/fixture.rs")]);
    let gx701: Vec<_> = diags.iter().filter(|d| d.rule == "GX701").collect();
    assert_eq!(gx701.len(), 1, "exactly one cycle: {diags:?}");
    let msg = &gx701[0].msg;
    // Both directions of the inversion must be printed as witness paths.
    assert!(msg.contains("path 1:") && msg.contains("path 2:"), "{msg}");
    assert!(
        msg.contains("session_then_inflight") && msg.contains("inflight_then_session"),
        "{msg}"
    );
    // Each witness descends through the helper that hides the acquisition.
    assert!(
        msg.contains("bump_inflight") && msg.contains("touch_sessions"),
        "{msg}"
    );
}

#[test]
fn gx701_accepts_the_committed_order() {
    let diags = check(&[("gx701_ordered.rs", "crates/serve/src/fixture.rs")]);
    assert!(!rules_of(&diags).contains(&"GX701"), "{diags:?}");
}

#[test]
fn gx702_flags_blocking_two_frames_down() {
    let diags = check(&[("gx702_deep_block.rs", "crates/serve/src/fixture.rs")]);
    let gx702: Vec<_> = diags.iter().filter(|d| d.rule == "GX702").collect();
    assert_eq!(gx702.len(), 1, "{diags:?}");
    let msg = &gx702[0].msg;
    // The witness chain spells out the two intermediate frames down to
    // the primitive.
    assert!(msg.contains("notify_all"), "{msg}");
    assert!(
        msg.contains("send_frame") && msg.contains("write_all"),
        "{msg}"
    );
}

#[test]
fn gx702_accepts_snapshot_then_drop() {
    let diags = check(&[("gx702_clean.rs", "crates/serve/src/fixture.rs")]);
    assert!(!rules_of(&diags).contains(&"GX702"), "{diags:?}");
}

#[test]
fn gx702_releases_the_guard_a_condvar_waits_on() {
    let diags = check(&[("gx702_condvar_queue.rs", "crates/runtime/src/fixture.rs")]);
    let gx702: Vec<_> = diags.iter().filter(|d| d.rule == "GX702").collect();
    // Only the recv under the poison-taken-over guard; the condvar wait
    // on line 12 releases `jobs`.
    assert_eq!(gx702.len(), 1, "{diags:?}");
    assert_eq!(gx702[0].line, 18, "{diags:?}");
    assert!(gx702[0].msg.contains("`jobs`"), "{}", gx702[0].msg);
}

#[test]
fn gx702_flags_guards_across_channel_ops_and_joins() {
    let rt = "crates/runtime/src/x.rs";
    // A guard on a plain local mutex held across a channel send.
    let send = "fn f(m: &Mutex<Option<Sender<u32>>>, tx: &Sender<u32>) {\n  let guard = m.lock();\n  tx.send(1);\n}";
    assert_eq!(gx702_lines(rt, send), vec![3]);
    // Across an argless `.join()` (a thread join).
    let join =
        "fn f(m: &Mutex<u32>, h: JoinHandle<()>) {\n  let g = m.lock();\n  let _ = h.join();\n}";
    assert_eq!(gx702_lines(rt, join), vec![3]);
    // A std guard behind `.unwrap()` is the guard all the same.
    let std_guard = "fn f(m: &std::sync::Mutex<u32>, tx: &Sender<u32>) {\n  let g = m.lock().unwrap();\n  tx.send(1);\n}";
    assert_eq!(gx702_lines(rt, std_guard), vec![3]);
    // A module mixing one violation with the two releasing shapes: only
    // the send under the live guard is flagged.
    let module = "use std::sync::mpsc::Sender;\nuse std::sync::Mutex;\n\n\
                  pub fn violation(m: &Mutex<u32>, tx: &Sender<u32>) {\n\
                  let guard = m.lock().unwrap();\n\
                  tx.send(*guard).ok();\n\
                  }\n\
                  pub fn clean_drop_first(m: &Mutex<u32>, tx: &Sender<u32>) {\n\
                  let guard = m.lock().unwrap();\n\
                  let v = *guard;\n\
                  drop(guard);\n\
                  tx.send(v).ok();\n\
                  }\n\
                  pub fn clean_scoped(m: &Mutex<u32>, tx: &Sender<u32>) {\n\
                  let v = {\n\
                  let guard = m.lock().unwrap();\n\
                  *guard\n\
                  };\n\
                  tx.send(v).ok();\n\
                  }\n";
    assert_eq!(gx702_lines("crates/gp/src/fixture.rs", module), vec![6]);
}

#[test]
fn gx702_flags_io_under_the_session_table_lock() {
    let serve = "crates/serve/src/server.rs";
    let flush = "fn f(state: &ServerState, s: &mut TcpStream) {\n  let table = state.sessions.lock().unwrap();\n  let _ = s.flush();\n}";
    assert_eq!(gx702_lines(serve, flush), vec![3]);
    // A frame helper blocks through its body, which is in the linted set.
    let frame = "fn f(state: &ServerState, s: &mut TcpStream, j: &Json) {\n  let table = state.sessions.lock().unwrap();\n  write_json(s, j);\n}\n\
                 fn write_json(s: &mut TcpStream, j: &Json) {\n  s.write_all(j.as_bytes()).ok();\n}";
    assert_eq!(gx702_lines(serve, frame), vec![3]);
}

#[test]
fn gx702_accepts_guards_released_before_blocking() {
    let rt = "crates/runtime/src/x.rs";
    let dropped = "fn f(m: &Mutex<u32>, tx: &Sender<u32>) {\n  let guard = m.lock();\n  drop(guard);\n  tx.send(1);\n}";
    assert!(gx702_lines(rt, dropped).is_empty());
    let inner_block =
        "fn f(m: &Mutex<u32>, tx: &Sender<u32>) {\n  { let guard = m.lock(); }\n  tx.send(1);\n}";
    assert!(gx702_lines(rt, inner_block).is_empty());
    // A temporary guard dies at the end of its statement.
    let temporary = "fn f(m: &Mutex<HashSet<u32>>, tx: &Sender<u32>) {\n  m.lock().insert(3);\n  tx.send(1);\n}";
    assert!(gx702_lines(rt, temporary).is_empty());
    // `Path::join(arg)` is not a thread join.
    let path_join =
        "fn f(m: &Mutex<u32>, p: &Path) -> PathBuf {\n  let g = m.lock();\n  p.join(\"x\")\n}";
    assert!(gx702_lines(rt, path_join).is_empty());
    // The serve idiom: clone out of the table, drop the guard, then I/O.
    let clone_drop = "fn f(state: &ServerState, s: &mut TcpStream) {\n  let table = state.sessions.lock().unwrap();\n  let e = table.get(\"k\").cloned();\n  drop(table);\n  let _ = s.flush();\n}";
    assert!(gx702_lines("crates/serve/src/server.rs", clone_drop).is_empty());
}

#[test]
fn gx703_flags_reacquire_through_a_helper() {
    let diags = check(&[("gx703_double_acquire.rs", "crates/serve/src/fixture.rs")]);
    let gx703: Vec<_> = diags.iter().filter(|d| d.rule == "GX703").collect();
    assert_eq!(gx703.len(), 1, "{diags:?}");
    assert!(gx703[0].msg.contains("pick_victim"), "{}", gx703[0].msg);
}

#[test]
fn gx703_accepts_passing_the_guard_down() {
    let diags = check(&[("gx703_clean.rs", "crates/serve/src/fixture.rs")]);
    assert!(!rules_of(&diags).contains(&"GX703"), "{diags:?}");
}

#[test]
fn gx704_flags_relaxed_poll_of_a_released_flag() {
    let diags = check(&[(
        "gx704_relaxed_handshake.rs",
        "crates/runtime/src/fixture.rs",
    )]);
    let gx704: Vec<_> = diags.iter().filter(|d| d.rule == "GX704").collect();
    assert_eq!(gx704.len(), 1, "{diags:?}");
    let msg = &gx704[0].msg;
    assert!(msg.contains("`ready`") && msg.contains("Release"), "{msg}");
}

#[test]
fn gx704_accepts_pure_counters_and_paired_orderings() {
    let diags = check(&[("gx704_clean.rs", "crates/runtime/src/fixture.rs")]);
    assert!(!rules_of(&diags).contains(&"GX704"), "{diags:?}");
}

#[test]
fn gx303_flags_blocking_before_arming() {
    let diags = check(&[("gx303_unarmed.rs", "crates/serve/src/fixture.rs")]);
    let gx303: Vec<_> = diags.iter().filter(|d| d.rule == "GX303").collect();
    assert_eq!(gx303.len(), 1, "{diags:?}");
    assert!(gx303[0].msg.contains("read_exact"), "{}", gx303[0].msg);
}

#[test]
fn gx303_accepts_arming_via_the_shared_helper() {
    let diags = check(&[("gx303_armed_helper.rs", "crates/serve/src/fixture.rs")]);
    assert!(!rules_of(&diags).contains(&"GX303"), "{diags:?}");
}

#[test]
fn gx303_is_scoped_to_serve() {
    let diags = check(&[("gx303_unarmed.rs", "crates/runtime/src/fixture.rs")]);
    assert!(!rules_of(&diags).contains(&"GX303"), "{diags:?}");
}

#[test]
fn fn_scoped_allow_suppresses_exactly_one_function() {
    let cfg = Config::parse(
        "[[allow]]\nrule = \"GX702\"\npath = \"crates/serve/src/fixture.rs\"\nfn = \"broadcast\"\nreason = \"fixture\"\n",
    )
    .expect("config parses");
    let files = vec![parsed("gx702_deep_block.rs", "crates/serve/src/fixture.rs")];
    let diags = concurrency::check(&files, &cfg);
    assert!(!rules_of(&diags).contains(&"GX702"), "{diags:?}");
}

#[test]
fn full_pipeline_reports_the_inversion() {
    // End to end through lint_files: per-file rules plus the concurrency
    // tier, exactly one GX701 for the seeded inversion.
    let src = fixture("gx701_inversion.rs");
    let diags = gptune_xtask::lint_files(
        &[("crates/serve/src/fixture.rs".to_string(), src)],
        &Config::default(),
    );
    assert_eq!(
        diags.iter().filter(|d| d.rule == "GX701").count(),
        1,
        "{diags:?}"
    );
}

#[test]
fn lock_graph_text_matches_golden() {
    let files = vec![parsed("gx701_inversion.rs", "crates/serve/src/fixture.rs")];
    let text = concurrency::lock_graph_text(&files);
    let golden = fixture("lock_graph_golden.txt");
    assert_eq!(text, golden, "lock-graph text drifted from the golden file");
}
