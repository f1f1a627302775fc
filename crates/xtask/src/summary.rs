//! Per-function blocking/acquisition summaries and their propagation to
//! fixpoint over the workspace call graph.
//!
//! Calls are resolved **by name** (the workspace has no type information
//! at this layer): a call named `flush_slot` unions the summaries of
//! every workspace `fn flush_slot`. That over-approximates — which is the
//! right direction for a deadlock gate — with two deliberate carve-outs
//! to keep the noise floor at zero:
//!
//! * atomic ops carrying an `Ordering` argument were already separated by
//!   the parser (`touch.load(Ordering::Relaxed)` never resolves to
//!   `SessionStore::load`);
//! * ubiquitous std/trait method names ([`UNRESOLVED`]) are never
//!   resolved to workspace fns — `table.get(key)` must not union every
//!   workspace `fn get`.

use crate::parse::{Event, EventKind, ParsedFile};
use std::collections::BTreeMap;

/// Operations that may block the calling thread outright. `argless`
/// restricts matching to empty-argument calls where the name is too
/// generic otherwise (`h.join()` blocks; `path.join("x")` does not).
pub const BLOCKING_PRIMITIVES: &[(&str, bool, &str)] = &[
    ("read_exact", false, "socket/file read"),
    ("read_to_end", false, "socket/file read"),
    ("read_to_string", false, "file read"),
    ("write_all", false, "socket/file write"),
    ("flush", true, "socket/file flush"),
    ("sync_all", true, "fsync"),
    ("sync_data", true, "fsync"),
    ("accept", true, "blocking accept"),
    ("connect", false, "blocking connect"),
    ("shutdown", false, "socket/pool shutdown"),
    ("send", false, "channel send"),
    ("recv", true, "channel recv"),
    ("recv_timeout", false, "channel recv"),
    ("recv_deadline", false, "channel recv"),
    ("join", true, "thread join"),
    ("sleep", false, "sleep"),
    ("wait", false, "condvar/process wait"),
    ("wait_timeout", false, "condvar wait"),
    ("wait_while", false, "condvar wait"),
    ("wait_timeout_while", false, "condvar wait"),
    ("park", true, "thread park"),
];

/// Call names never resolved to workspace fns: std/prelude/trait methods
/// so common that name-level resolution would wire unrelated code
/// together (every `fmt` call would become every `impl Display`).
pub const UNRESOLVED: &[&str] = &[
    "new",
    "default",
    "clone",
    "cloned",
    "fmt",
    "from",
    "into",
    "drop",
    "name",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "min",
    "max",
    "parse",
    "as_str",
    "as_ref",
    "to_string",
    "eq",
    "cmp",
    "hash",
    "write",
    "read",
    "map",
    "filter",
    "collect",
    "contains",
    "entry",
    "take",
    "spec",
    "problem",
    "app",
    "cfg",
    "dim",
    "split",
    "spawn",
    "snapshot",
];

/// One step in a witness chain: where, and what happens there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub path: String,
    pub line: u32,
    pub func: String,
    pub what: String,
}

impl std::fmt::Display for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}:{}) {}",
            self.func, self.path, self.line, self.what
        )
    }
}

/// A witness: the chain of frames from the root function down to the
/// primitive operation that justifies the summary bit.
pub type Chain = Vec<Frame>;

/// Renders a chain as `a (f.rs:1) … -> b (g.rs:2) …`.
pub fn render_chain(chain: &Chain) -> String {
    chain
        .iter()
        .map(Frame::to_string)
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Summary of one function, valid at the current fixpoint iteration.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// `Some(chain)` when any path through the function may block.
    pub blocks: Option<Chain>,
    /// Named locks any path through the function may acquire, with one
    /// witness chain each.
    pub acquires: BTreeMap<String, Chain>,
}

/// One function in the flattened workspace.
#[derive(Debug)]
pub struct FnNode {
    pub path: String,
    pub name: String,
    pub line: u32,
    pub events: Vec<Event>,
}

/// The whole-workspace function table plus computed summaries.
pub struct Workspace {
    pub fns: Vec<FnNode>,
    by_name: BTreeMap<String, Vec<usize>>,
    pub summaries: Vec<Summary>,
}

/// Longest witness chain retained; deeper chains are truncated with the
/// head frames kept (the head is what the user must read first).
const MAX_CHAIN: usize = 8;

impl Workspace {
    /// Flattens parsed files into the function table and computes
    /// summaries to fixpoint.
    pub fn build(files: &[ParsedFile]) -> Workspace {
        let mut fns = Vec::new();
        for file in files {
            for f in &file.fns {
                fns.push(FnNode {
                    path: file.path.clone(),
                    name: f.name.clone(),
                    line: f.line,
                    events: f.events.clone(),
                });
            }
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        let mut ws = Workspace {
            summaries: vec![Summary::default(); fns.len()],
            fns,
            by_name,
        };
        ws.fixpoint();
        ws
    }

    /// Workspace fns a call name resolves to (empty for primitives,
    /// [`UNRESOLVED`] names, and externals).
    pub fn resolve(&self, name: &str) -> &[usize] {
        if UNRESOLVED.contains(&name) {
            return &[];
        }
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// The blocking primitive a call matches, if any.
    pub fn blocking_primitive(name: &str, argless: bool) -> Option<&'static str> {
        BLOCKING_PRIMITIVES
            .iter()
            .find(|(n, need_argless, _)| *n == name && (!need_argless || argless))
            .map(|(_, _, desc)| *desc)
    }

    /// Monotone propagation: `blocks` and `acquires` bits are only ever
    /// set (first witness wins, keeping output deterministic), so the
    /// loop terminates.
    fn fixpoint(&mut self) {
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                let mut sum = self.summaries[i].clone();
                let (path, func) = (self.fns[i].path.clone(), self.fns[i].name.clone());
                for ev in &self.fns[i].events {
                    match &ev.kind {
                        EventKind::Acquire { lock } => {
                            sum.acquires.entry(lock.clone()).or_insert_with(|| {
                                vec![Frame {
                                    path: path.clone(),
                                    line: ev.line,
                                    func: func.clone(),
                                    what: format!("acquires `{lock}`"),
                                }]
                            });
                        }
                        EventKind::Call { name, argless } => {
                            if let Some(desc) = Self::blocking_primitive(name, *argless) {
                                sum.blocks.get_or_insert_with(|| {
                                    vec![Frame {
                                        path: path.clone(),
                                        line: ev.line,
                                        func: func.clone(),
                                        what: format!("calls `{name}` ({desc})"),
                                    }]
                                });
                                continue;
                            }
                            for &callee in self.resolve(name) {
                                let call_frame = |what: String| Frame {
                                    path: path.clone(),
                                    line: ev.line,
                                    func: func.clone(),
                                    what,
                                };
                                if sum.blocks.is_none() {
                                    if let Some(chain) = &self.summaries[callee].blocks {
                                        let mut c = vec![call_frame(format!("calls `{name}`"))];
                                        c.extend(chain.iter().cloned());
                                        c.truncate(MAX_CHAIN);
                                        sum.blocks = Some(c);
                                    }
                                }
                                for (lock, chain) in &self.summaries[callee].acquires {
                                    sum.acquires.entry(lock.clone()).or_insert_with(|| {
                                        let mut c = vec![call_frame(format!("calls `{name}`"))];
                                        c.extend(chain.iter().cloned());
                                        c.truncate(MAX_CHAIN);
                                        c
                                    });
                                }
                            }
                        }
                        EventKind::Atomic { .. } => {}
                    }
                }
                if sum.blocks.is_some() != self.summaries[i].blocks.is_some()
                    || sum.acquires.len() != self.summaries[i].acquires.len()
                {
                    changed = true;
                }
                self.summaries[i] = sum;
            }
            if !changed {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileCtx;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    fn build(srcs: &[(&str, &str)]) -> Workspace {
        let lexed: Vec<_> = srcs.iter().map(|(_, s)| lex(s)).collect();
        let parsed: Vec<_> = srcs
            .iter()
            .zip(&lexed)
            .map(|((p, _), l)| parse_file(&FileCtx::new(p, l)))
            .collect();
        Workspace::build(&parsed)
    }

    fn summary_of<'w>(ws: &'w Workspace, name: &str) -> &'w Summary {
        let i = ws
            .fns
            .iter()
            .position(|f| f.name == name)
            .expect("fn present");
        &ws.summaries[i]
    }

    #[test]
    fn blocking_propagates_across_files_to_fixpoint() {
        let ws = build(&[
            (
                "crates/a/src/lib.rs",
                "fn top(s: &S) { mid(s); }\nfn mid(s: &S) { bot(s); }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "fn bot(s: &mut TcpStream) { s.write_all(b\"x\").unwrap(); }\n",
            ),
        ]);
        let top = summary_of(&ws, "top");
        let chain = top.blocks.as_ref().expect("top blocks transitively");
        assert_eq!(chain.len(), 3, "top -> mid -> bot frames: {chain:?}");
        assert!(chain[2].what.contains("write_all"));
    }

    #[test]
    fn acquires_propagate_with_witness() {
        let ws = build(&[(
            "crates/a/src/lib.rs",
            "fn outer(s: &S) { helper(s); }\nfn helper(s: &S) { let g = s.sessions.lock().unwrap(); g.touch(); }\n",
        )]);
        let outer = summary_of(&ws, "outer");
        let chain = outer.acquires.get("sessions").expect("transitive acquire");
        assert_eq!(chain.len(), 2);
        assert!(chain[1].what.contains("acquires `sessions`"));
    }

    #[test]
    fn unresolved_names_do_not_wire_workspace_fns() {
        let ws = build(&[(
            "crates/a/src/lib.rs",
            "fn caller(m: &M) { m.get(1); }\nfn get(s: &mut TcpStream) { s.write_all(b\"x\").unwrap(); }\n",
        )]);
        let caller = summary_of(&ws, "caller");
        assert!(caller.blocks.is_none(), "`get` must stay unresolved");
    }

    #[test]
    fn join_requires_empty_args() {
        let ws = build(&[(
            "crates/a/src/lib.rs",
            "fn a(p: &Path) { p.join(\"x\"); }\nfn b(h: H) { h.join(); }\n",
        )]);
        assert!(summary_of(&ws, "a").blocks.is_none());
        assert!(summary_of(&ws, "b").blocks.is_some());
    }
}
