//! GX7xx — whole-workspace concurrency analysis, plus the summary-based
//! GX303 socket-deadline check.
//!
//! Built on [`crate::parse`] (per-fn event recovery) and
//! [`crate::summary`] (interprocedural blocking/acquisition summaries):
//!
//! * **GX701** — lock-order inversion: a cycle in the held-while-acquiring
//!   graph over the named-lock registry, reported with every edge's
//!   witness acquisition path.
//! * **GX702** — guard held across a may-blocking call, *interprocedurally*:
//!   the callee blocking three frames down is caught. Any lock's guard
//!   counts, registered or not.
//! * **GX703** — double-acquire of a non-reentrant lock on any call path
//!   (a self-loop in the lock graph).
//! * **GX704** — a relaxed atomic op on a field that participates in a
//!   release/acquire (or SeqCst) handshake elsewhere.
//!
//! GX701 and GX703 only see locks in the [`LOCKS`] registry: lock
//! identity across functions is matched by receiver name, so graph edges
//! between unregistered locals would be junk. Fn-scoped
//! allowlist entries (`fn = "dispatch"` in lint.toml) suppress individual
//! findings with written rationale.

use crate::config::Config;
use crate::graph::{render_dot, render_text, LockGraph};
use crate::parse::{EventKind, ParsedFile, DB_ADVISORY};
use crate::rules::Diagnostic;
use crate::summary::{render_chain, Frame, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// One monitored named lock.
pub struct LockSpec {
    pub name: &'static str,
    pub desc: &'static str,
    /// True when holding this lock across blocking I/O is the lock's
    /// *purpose* (the db advisory lock serializes file writes) — GX702
    /// does not fire for it; GX701/GX703 still do.
    pub io_allowed: bool,
}

/// The workspace lock registry. Receiver identifiers outside this table
/// (`m.lock()` on a local) stay out of the lock-order graph (GX701,
/// GX703); GX702 counts their guards all the same.
pub const LOCKS: &[LockSpec] = &[
    LockSpec {
        name: "sessions",
        desc: "serve session table (ServerState::sessions)",
        io_allowed: false,
    },
    LockSpec {
        name: "conns",
        desc: "serve connection registry (ServerState::conns)",
        io_allowed: false,
    },
    LockSpec {
        name: "inflight",
        desc: "serve per-tenant in-flight counters",
        io_allowed: false,
    },
    LockSpec {
        name: "entry",
        desc: "per-session slot lock (SessionSlot::entry)",
        io_allowed: false,
    },
    LockSpec {
        name: "jobs",
        desc: "runtime executor job queue (JobQueue::jobs)",
        io_allowed: false,
    },
    LockSpec {
        name: "handles",
        desc: "runtime executor worker handles",
        io_allowed: false,
    },
    LockSpec {
        name: "abandoned",
        desc: "runtime executor abandoned-worker set",
        io_allowed: false,
    },
    LockSpec {
        name: "inner",
        desc: "runtime phase-stats cell",
        io_allowed: false,
    },
    LockSpec {
        name: "shard",
        desc: "trace event ring shard",
        io_allowed: false,
    },
    LockSpec {
        name: "tracks",
        desc: "trace track table",
        io_allowed: false,
    },
    LockSpec {
        name: "counters",
        desc: "trace counter registry",
        io_allowed: false,
    },
    LockSpec {
        name: "gauges",
        desc: "trace gauge registry",
        io_allowed: false,
    },
    LockSpec {
        name: "histograms",
        desc: "trace histogram registry",
        io_allowed: false,
    },
    LockSpec {
        name: DB_ADVISORY,
        desc: "db advisory file lock (FileLock::acquire)",
        io_allowed: true,
    },
];

fn lock_spec(name: &str) -> Option<&'static LockSpec> {
    LOCKS.iter().find(|l| l.name == name)
}

/// Deadline-arming calls recognised by GX303.
const DEADLINE_ARMERS: &[&str] = &["set_read_timeout", "set_write_timeout", "arm_deadlines"];

/// Call names that start or end socket lifecycles — not counted as "the
/// blocking op after accept/connect" by GX303 (each is its own check
/// site; severing before arming is fine).
const GX303_NEUTRAL: &[&str] = &["accept", "connect", "shutdown"];

/// Synchronising orderings for GX704.
const SYNC_ORDERINGS: &[&str] = &["Acquire", "Release", "AcqRel", "SeqCst"];

/// Runs the whole GX7xx tier plus GX303 over the parsed workspace.
pub fn check(files: &[ParsedFile], cfg: &Config) -> Vec<Diagnostic> {
    let ws = Workspace::build(files);
    let graph = build_lock_graph(&ws);
    let mut out = Vec::new();
    check_gx701(&graph, cfg, &mut out);
    check_gx702(&ws, cfg, &mut out);
    check_gx703(&graph, cfg, &mut out);
    check_gx704(&ws, cfg, &mut out);
    check_gx303(&ws, cfg, &mut out);
    out
}

/// The held-while-acquiring graph over registry locks, from direct
/// acquisitions and from calls whose callees (transitively) acquire.
pub fn build_lock_graph(ws: &Workspace) -> LockGraph {
    let mut graph = LockGraph::default();
    for f in &ws.fns {
        for ev in &f.events {
            let held: Vec<&str> = ev
                .held
                .iter()
                .map(String::as_str)
                .filter(|h| lock_spec(h).is_some())
                .collect();
            if held.is_empty() {
                continue;
            }
            match &ev.kind {
                EventKind::Acquire { lock } => {
                    if lock_spec(lock).is_none() {
                        continue;
                    }
                    for h in &held {
                        graph.add(
                            h,
                            lock,
                            vec![Frame {
                                path: f.path.clone(),
                                line: ev.line,
                                func: f.name.clone(),
                                what: format!("holding `{h}`, acquires `{lock}`"),
                            }],
                        );
                    }
                }
                EventKind::Call { name, .. } => {
                    for &callee in ws.resolve(name) {
                        for (lock, chain) in &ws.summaries[callee].acquires {
                            if lock_spec(lock).is_none() {
                                continue;
                            }
                            for h in &held {
                                let mut witness = vec![Frame {
                                    path: f.path.clone(),
                                    line: ev.line,
                                    func: f.name.clone(),
                                    what: format!("holding `{h}`, calls `{name}`"),
                                }];
                                witness.extend(chain.iter().cloned());
                                graph.add(h, lock, witness);
                            }
                        }
                    }
                }
                EventKind::Atomic { .. } => {}
            }
        }
    }
    graph
}

fn check_gx701(graph: &LockGraph, cfg: &Config, out: &mut Vec<Diagnostic>) {
    for cycle in graph.cycles() {
        let mut paths = Vec::new();
        for (k, a) in cycle.iter().enumerate() {
            let b = &cycle[(k + 1) % cycle.len()];
            if let Some(w) = graph.witness(a, b) {
                paths.push(format!("path {}: {}", k + 1, render_chain(w)));
            }
        }
        let head = cycle
            .first()
            .and_then(|a| graph.witness(a, &cycle[1 % cycle.len()]))
            .and_then(|w| w.first().cloned());
        let Some(head) = head else { continue };
        if cfg.allowed_fn("GX701", &head.path, &head.func) {
            continue;
        }
        let ring = cycle
            .iter()
            .chain(cycle.first())
            .map(|l| format!("`{l}`"))
            .collect::<Vec<_>>()
            .join(" -> ");
        out.push(Diagnostic {
            path: head.path.clone(),
            line: head.line,
            rule: "GX701",
            msg: format!("lock-order inversion {ring}; {}", paths.join("; ")),
        });
    }
}

fn check_gx702(ws: &Workspace, cfg: &Config, out: &mut Vec<Diagnostic>) {
    let mut seen: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for f in &ws.fns {
        for ev in &f.events {
            let EventKind::Call { name, argless } = &ev.kind else {
                continue;
            };
            let monitored: Vec<&str> = ev
                .held
                .iter()
                .map(String::as_str)
                .filter(|h| !lock_spec(h).is_some_and(|s| s.io_allowed))
                .collect();
            if monitored.is_empty() {
                continue;
            }
            let blocking: Option<String> =
                if let Some(desc) = Workspace::blocking_primitive(name, *argless) {
                    Some(format!("`{name}` ({desc})"))
                } else {
                    ws.resolve(name)
                        .iter()
                        .find_map(|&c| ws.summaries[c].blocks.as_ref())
                        .map(|chain| format!("`{name}`: {}", render_chain(chain)))
                };
            let Some(blocking) = blocking else { continue };
            if cfg.allowed_fn("GX702", &f.path, &f.name) {
                continue;
            }
            for lock in monitored {
                if !seen.insert((f.path.clone(), ev.line, lock.to_string())) {
                    continue;
                }
                out.push(Diagnostic {
                    path: f.path.clone(),
                    line: ev.line,
                    rule: "GX702",
                    msg: format!(
                        "guard on `{lock}` held across may-blocking call {blocking} — \
                         release the guard (clone/take what you need) before blocking"
                    ),
                });
            }
        }
    }
}

fn check_gx703(graph: &LockGraph, cfg: &Config, out: &mut Vec<Diagnostic>) {
    for (lock, witness) in graph.self_loops() {
        let Some(head) = witness.first() else {
            continue;
        };
        if cfg.allowed_fn("GX703", &head.path, &head.func) {
            continue;
        }
        out.push(Diagnostic {
            path: head.path.clone(),
            line: head.line,
            rule: "GX703",
            msg: format!(
                "double-acquire of non-reentrant `{lock}` on a call path: {}",
                render_chain(&witness)
            ),
        });
    }
}

struct AtomicSite {
    path: String,
    line: u32,
    func: String,
    op: String,
    /// Effective (success) ordering.
    ordering: String,
}

fn check_gx704(ws: &Workspace, cfg: &Config, out: &mut Vec<Diagnostic>) {
    let mut by_field: BTreeMap<String, Vec<AtomicSite>> = BTreeMap::new();
    for f in &ws.fns {
        for ev in &f.events {
            let EventKind::Atomic {
                field,
                op,
                orderings,
            } = &ev.kind
            else {
                continue;
            };
            let Some(ordering) = orderings.first() else {
                continue;
            };
            by_field.entry(field.clone()).or_default().push(AtomicSite {
                path: f.path.clone(),
                line: ev.line,
                func: f.name.clone(),
                op: op.clone(),
                ordering: ordering.clone(),
            });
        }
    }
    for (field, sites) in &by_field {
        let sync = sites
            .iter()
            .find(|s| SYNC_ORDERINGS.contains(&s.ordering.as_str()));
        let Some(sync) = sync else { continue };
        for s in sites.iter().filter(|s| s.ordering == "Relaxed") {
            if cfg.allowed_fn("GX704", &s.path, &s.func) {
                continue;
            }
            out.push(Diagnostic {
                path: s.path.clone(),
                line: s.line,
                rule: "GX704",
                msg: format!(
                    "relaxed `{}` on atomic `{field}` mixes with {} `{}` at {}:{} — \
                     a release/acquire handshake needs matching orderings on both sides",
                    s.op, sync.ordering, sync.op, sync.path, sync.line
                ),
            });
        }
    }
}

/// GX303, summary-based: in `crates/serve`, every socket obtained from
/// `accept()` / `connect(..)` must reach a deadline-arming call before
/// the function performs any other may-blocking operation. Replaces the
/// old "armed within 12 lines" lexical heuristic.
fn check_gx303(ws: &Workspace, cfg: &Config, out: &mut Vec<Diagnostic>) {
    for f in ws
        .fns
        .iter()
        .filter(|f| f.path.starts_with("crates/serve/"))
    {
        for (i, ev) in f.events.iter().enumerate() {
            let EventKind::Call { name, argless } = &ev.kind else {
                continue;
            };
            let is_socket_source =
                (name == "accept" && *argless) || (name == "connect" && !*argless);
            if !is_socket_source {
                continue;
            }
            let mut armer: Option<usize> = None;
            let mut blocker: Option<(usize, String)> = None;
            for (j, later) in f.events.iter().enumerate().skip(i + 1) {
                let EventKind::Call {
                    name: n,
                    argless: al,
                } = &later.kind
                else {
                    continue;
                };
                if DEADLINE_ARMERS.contains(&n.as_str()) {
                    armer = Some(j);
                    break;
                }
                if GX303_NEUTRAL.contains(&n.as_str()) {
                    continue;
                }
                let blocks = Workspace::blocking_primitive(n, *al).is_some()
                    || ws
                        .resolve(n)
                        .iter()
                        .any(|&c| ws.summaries[c].blocks.is_some());
                if blocks && blocker.is_none() {
                    blocker = Some((j, n.clone()));
                }
            }
            let flagged = match (armer, &blocker) {
                (Some(a), Some((b, _))) => b < &a,
                (None, Some(_)) => true,
                _ => false,
            };
            if !flagged {
                continue;
            }
            if cfg.allowed_fn("GX303", &f.path, &f.name) {
                continue;
            }
            let (_, bname) = blocker.expect("flagged implies blocker");
            out.push(Diagnostic {
                path: f.path.clone(),
                line: ev.line,
                rule: "GX303",
                msg: format!(
                    "socket from `{name}` reaches may-blocking `{bname}` before any \
                     deadline-arming call ({}) — a slow peer wedges this thread forever",
                    DEADLINE_ARMERS.join("/")
                ),
            });
        }
    }
}

/// Text + DOT dump of the acquisition graph (`lint --lock-graph`).
pub fn lock_graph_report(files: &[ParsedFile]) -> String {
    let ws = Workspace::build(files);
    let graph = build_lock_graph(&ws);
    let mut out = render_text(&graph);
    out.push('\n');
    out.push_str(&render_dot(&graph));
    out
}

/// Text-only dump (golden-file tested).
pub fn lock_graph_text(files: &[ParsedFile]) -> String {
    let ws = Workspace::build(files);
    render_text(&build_lock_graph(&ws))
}

/// Long-form `--explain` texts for the rules with non-obvious models.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "GX303" => {
            "GX303 — serve sockets must be deadline-armed before blocking.\n\
             Every socket obtained from accept()/connect(..) in crates/serve must\n\
             reach set_read_timeout/set_write_timeout/arm_deadlines before the\n\
             function performs any other may-blocking operation (summary-based:\n\
             a callee that blocks three frames down counts). An unarmed socket\n\
             plus a slow peer wedges an acceptor thread forever — the exact\n\
             failure the serve chaos suite injects."
        }
        "GX701" => {
            "GX701 — lock-order inversion.\n\
             The analyzer builds a held-while-acquiring graph over the named-lock\n\
             registry (session table, conns, inflight, per-session entry, runtime\n\
             executor locks, trace shards, the db advisory file lock): an edge\n\
             a -> b means some call path acquires b while holding a, including\n\
             acquisitions buried in callees (summaries propagated to fixpoint).\n\
             Any cycle is a potential deadlock; the diagnostic prints one witness\n\
             acquisition path per edge. Fix by committing to one acquisition\n\
             order (DESIGN.md §6 documents the canonical order) or by narrowing\n\
             a guard so the second lock is taken after release."
        }
        "GX702" => {
            "GX702 — guard held across a may-blocking call (interprocedural).\n\
             Per-function summaries record whether each fn may block (socket/file\n\
             I/O, channel send/recv, join, sleep) and which named locks it\n\
             acquires; propagation over the workspace call graph means a callee\n\
             that blocks three frames down is caught at the guard-holding frame.\n\
             A guard on any lock counts, registered or not; only the db advisory\n\
             lock, whose purpose is to serialize file writes, is exempt. Fix by\n\
             cloning/taking what you need and dropping the guard before blocking;\n\
             deliberate exceptions (journal-before-ack under the per-session\n\
             entry lock) carry fn-scoped lint.toml allows with written rationale."
        }
        "GX703" => {
            "GX703 — double-acquire of a non-reentrant lock.\n\
             A self-loop in the held-while-acquiring graph: some call path\n\
             re-acquires a std::sync::Mutex (or parking_lot lock) it already\n\
             holds — a guaranteed self-deadlock, often hidden behind a helper\n\
             that locks internally. The witness chain shows the re-entry path."
        }
        "GX704" => {
            "GX704 — relaxed atomic in a release/acquire handshake.\n\
             Atomic ops are grouped by field name across the workspace; if a\n\
             field is written/read with Acquire/Release/SeqCst anywhere, every\n\
             Relaxed op on the same field is flagged: mixing orderings silently\n\
             removes the happens-before edge the synchronized side was built to\n\
             provide. Pure counters/stamps (all-Relaxed) are fine."
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileCtx;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    fn run(srcs: &[(&str, &str)]) -> Vec<Diagnostic> {
        let lexed: Vec<_> = srcs.iter().map(|(_, s)| lex(s)).collect();
        let parsed: Vec<_> = srcs
            .iter()
            .zip(&lexed)
            .map(|((p, _), l)| parse_file(&FileCtx::new(p, l)))
            .collect();
        check(&parsed, &Config::default())
    }

    fn rule_lines(diags: &[Diagnostic], rule: &str) -> Vec<u32> {
        diags
            .iter()
            .filter(|d| d.rule == rule)
            .map(|d| d.line)
            .collect()
    }

    #[test]
    fn gx701_inversion_across_helpers() {
        let diags = run(&[(
            "crates/serve/src/a.rs",
            "fn ab(s: &S) { let g = s.sessions.lock().unwrap(); take_inflight(s); }\n\
             fn take_inflight(s: &S) { let h = s.inflight.lock().unwrap(); h.bump(); }\n\
             fn ba(s: &S) { let g = s.inflight.lock().unwrap(); take_sessions(s); }\n\
             fn take_sessions(s: &S) { let h = s.sessions.lock().unwrap(); h.bump(); }\n",
        )]);
        let gx701: Vec<_> = diags.iter().filter(|d| d.rule == "GX701").collect();
        assert_eq!(gx701.len(), 1, "{diags:?}");
        let msg = &gx701[0].msg;
        assert!(msg.contains("path 1:") && msg.contains("path 2:"), "{msg}");
        assert!(msg.contains("ab") && msg.contains("ba"), "{msg}");
    }

    #[test]
    fn gx702_two_frames_deep() {
        let diags = run(&[(
            "crates/serve/src/a.rs",
            "fn top(s: &S) { let g = s.conns.lock().unwrap(); mid(s); }\n\
             fn mid(s: &S) { bot(s); }\n\
             fn bot(s: &mut TcpStream) { s.read_exact(&mut [0u8; 4]).unwrap(); }\n",
        )]);
        assert_eq!(rule_lines(&diags, "GX702"), vec![1], "{diags:?}");
        let msg = &diags.iter().find(|d| d.rule == "GX702").unwrap().msg;
        assert!(msg.contains("mid") && msg.contains("read_exact"), "{msg}");
    }

    #[test]
    fn gx702_clean_when_guard_dropped_first() {
        let diags = run(&[(
            "crates/serve/src/a.rs",
            "fn top(s: &S) { let g = s.conns.lock().unwrap(); drop(g); mid(s); }\n\
             fn mid(s: &mut TcpStream) { s.read_exact(&mut [0u8; 4]).unwrap(); }\n",
        )]);
        assert!(rule_lines(&diags, "GX702").is_empty(), "{diags:?}");
    }

    #[test]
    fn gx703_reacquire_via_helper() {
        let diags = run(&[(
            "crates/serve/src/a.rs",
            "fn f(s: &S) { let g = s.sessions.lock().unwrap(); helper(s); }\n\
             fn helper(s: &S) { let h = s.sessions.lock().unwrap(); h.bump(); }\n",
        )]);
        assert_eq!(rule_lines(&diags, "GX703"), vec![1], "{diags:?}");
    }

    #[test]
    fn gx704_mixed_orderings() {
        let diags = run(&[(
            "crates/runtime/src/a.rs",
            "fn publish(s: &S) { s.ready.store(true, Ordering::Release); }\n\
             fn poll(s: &S) -> bool { s.ready.load(Ordering::Relaxed) }\n",
        )]);
        assert_eq!(rule_lines(&diags, "GX704"), vec![2], "{diags:?}");
    }

    #[test]
    fn gx704_all_relaxed_counter_is_clean() {
        let diags = run(&[(
            "crates/runtime/src/a.rs",
            "fn bump(s: &S) { s.hits.fetch_add(1, Ordering::Relaxed); }\n\
             fn read(s: &S) -> u64 { s.hits.load(Ordering::Relaxed) }\n",
        )]);
        assert!(rule_lines(&diags, "GX704").is_empty(), "{diags:?}");
    }

    #[test]
    fn gx303_blocker_before_armer() {
        let diags = run(&[(
            "crates/serve/src/a.rs",
            "fn f(l: &TcpListener) {\n\
             let (mut s, _) = l.accept().unwrap();\n\
             s.read_exact(&mut [0u8; 4]).unwrap();\n\
             s.set_read_timeout(None).unwrap();\n\
             }\n",
        )]);
        assert_eq!(rule_lines(&diags, "GX303"), vec![2], "{diags:?}");
    }

    #[test]
    fn gx303_armed_via_helper_summary_is_clean() {
        let diags = run(&[(
            "crates/serve/src/a.rs",
            "fn f(l: &TcpListener) {\n\
             let (mut s, _) = l.accept().unwrap();\n\
             arm_deadlines(&s);\n\
             s.read_exact(&mut [0u8; 4]).unwrap();\n\
             }\n\
             fn arm_deadlines(s: &TcpStream) { s.set_read_timeout(None).unwrap(); }\n",
        )]);
        assert!(rule_lines(&diags, "GX303").is_empty(), "{diags:?}");
    }

    #[test]
    fn gx303_does_not_apply_outside_serve() {
        let diags = run(&[(
            "crates/runtime/src/a.rs",
            "fn f(l: &TcpListener) {\n\
             let (mut s, _) = l.accept().unwrap();\n\
             s.read_exact(&mut [0u8; 4]).unwrap();\n\
             }\n",
        )]);
        assert!(rule_lines(&diags, "GX303").is_empty(), "{diags:?}");
    }

    #[test]
    fn unregistered_local_locks_count_for_gx702() {
        let diags = run(&[(
            "crates/runtime/src/a.rs",
            "fn f(m: &Mutex<u8>, s: &mut TcpStream) { let g = m.lock().unwrap(); s.read_exact(&mut [0u8; 1]).unwrap(); }\n",
        )]);
        assert_eq!(rule_lines(&diags, "GX702"), vec![1], "{diags:?}");
        assert!(rule_lines(&diags, "GX701").is_empty(), "{diags:?}");
    }

    #[test]
    fn db_advisory_io_is_allowed_but_graphed() {
        let srcs = &[(
            "crates/db/src/a.rs",
            "fn append(p: &Path, o: &LockOptions, buf: &[u8], w: &mut File) -> io::Result<()> {\n\
             let _guard = FileLock::acquire(p, o)?;\n\
             w.write_all(buf)\n\
             }\n",
        )];
        let diags = run(srcs);
        assert!(rule_lines(&diags, "GX702").is_empty(), "{diags:?}");
    }
}
