//! The GPTune lint rules.
//!
//! Rule IDs are tiered by the invariant they protect:
//!
//! | tier | IDs   | invariant |
//! |------|-------|-----------|
//! | 1    | GX101–GX103 | NaN-safety: no IEEE `==`/`!=`, no `partial_cmp` escapes into ordering |
//! | 3    | GX303 | socket discipline: every serve-side socket deadline-armed — implemented in [`crate::concurrency`] |
//! | 4    | GX402–GX403 | determinism: every random draw and iteration order is seed-threaded |
//! | 6    | GX601–GX602 | observability: no raw `Instant::now()` in the traced crates; every span/metric name a literal in the `gptune.<crate>.<name>` taxonomy |
//! | 7    | GX701–GX704 | workspace concurrency: lock-order inversions, guards across blocking calls (interprocedural), double-acquires, relaxed-atomic handshakes — implemented in [`crate::concurrency`] |
//! | 8    | GX801 | dependencies: every registry crate named in lint.toml — implemented in [`crate::deps`] |
//!
//! Panic-freedom (runtime, db, core) and the ban on `unsafe` are not
//! here: clippy's `unwrap_used`/`panic`/… lints and rustc's `unsafe_code`
//! check them with types (see the crate roots and the workspace
//! `[lints]` table).
//!
//! Every rule here is a pattern walk over the token stream of
//! [`crate::lexer`] — deliberately type-blind, so each check documents the
//! (small) set of shapes it matches. False positives are handled by the
//! `lint.toml` allowlist.

use crate::config::Config;
use crate::context::{match_delim, FileCtx};
use crate::lexer::{Tok, Token};

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub path: String,
    pub line: u32,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// Static description of one rule, for `gptune-xtask rules`.
pub struct RuleInfo {
    pub id: &'static str,
    pub name: &'static str,
    pub desc: &'static str,
}

/// The full rule table.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "GX101",
        name: "float-eq",
        desc: "no `==`/`!=` against float literals or float constants; use gptune_la::ord::feq",
    },
    RuleInfo {
        id: "GX102",
        name: "partial-cmp-unwrap",
        desc: "no `partial_cmp(..).unwrap()/expect()`; use f64::total_cmp or gptune_la::ord",
    },
    RuleInfo {
        id: "GX103",
        name: "sort-by-partial-cmp",
        desc: "no raw `partial_cmp` comparators in sort_by/min_by/max_by (NaN mis-sorts); use total_cmp",
    },
    RuleInfo {
        id: "GX303",
        name: "serve-socket-deadline",
        desc: "crates/serve: every socket from accept()/connect() must reach a deadline-arming call (set_read_timeout/set_write_timeout/arm_deadlines, possibly via a helper) before any other may-blocking operation",
    },
    RuleInfo {
        id: "GX402",
        name: "time-derived-seed",
        desc: "no SystemTime/Instant-derived seeds; seeds must be explicit and recorded",
    },
    RuleInfo {
        id: "GX403",
        name: "hashmap-iteration",
        desc: "no iteration over HashMap/HashSet locals (nondeterministic order); use BTreeMap or sort",
    },
    RuleInfo {
        id: "GX601",
        name: "raw-instant-now",
        desc: "no raw Instant::now() in crates/core or crates/runtime; time through PhaseTimer or gptune-trace spans",
    },
    RuleInfo {
        id: "GX602",
        name: "metric-name-taxonomy",
        desc: "span/metric names passed to .span/.instant/.counter/.gauge/.histogram must be string literals of the form gptune.<segment>.<segment>[.<segment>…] (lowercase/digits/underscores); dynamic names hide cardinality and break scrape grammars — quarantine them behind a lint.toml allowlist with a reason",
    },
    RuleInfo {
        id: "GX701",
        name: "lock-order-inversion",
        desc: "no cycle in the workspace held-while-acquiring graph over the named-lock registry (witness paths printed; see `lint --explain GX701`)",
    },
    RuleInfo {
        id: "GX702",
        name: "guard-across-blocking-call",
        desc: "no lock guard held across a may-blocking call, interprocedurally — a callee blocking frames down the call graph counts",
    },
    RuleInfo {
        id: "GX703",
        name: "double-acquire",
        desc: "no call path re-acquires a non-reentrant named lock it already holds (self-deadlock)",
    },
    RuleInfo {
        id: "GX704",
        name: "relaxed-atomic-handshake",
        desc: "no Relaxed op on an atomic field that is synchronized with Acquire/Release/SeqCst elsewhere in the workspace",
    },
    RuleInfo {
        id: "GX801",
        name: "dependency-allowlist",
        desc: "every non-path dependency in the root and crates/* Cargo.toml files must be named in lint.toml's [[dependency]] allowlist (with a reason)",
    },
];

/// Runs every rule over one file.
pub fn check_file(ctx: &FileCtx<'_>, cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let push = |line: u32, rule: &'static str, msg: String, out: &mut Vec<Diagnostic>| {
        if cfg.allowed(rule, ctx.path).is_none() {
            out.push(Diagnostic {
                path: ctx.path.to_string(),
                line,
                rule,
                msg,
            });
        }
    };

    float_eq(ctx, &mut |l, r, m, o: &mut _| push(l, r, m, o), &mut out);
    partial_cmp(ctx, &mut |l, r, m, o: &mut _| push(l, r, m, o), &mut out);
    determinism(ctx, &mut |l, r, m, o: &mut _| push(l, r, m, o), &mut out);
    raw_timing(ctx, &mut |l, r, m, o: &mut _| push(l, r, m, o), &mut out);
    metric_name_taxonomy(ctx, &mut |l, r, m, o: &mut _| push(l, r, m, o), &mut out);
    out
}

type Emit<'e> = dyn FnMut(u32, &'static str, String, &mut Vec<Diagnostic>) + 'e;

// ---------------------------------------------------------------- tier 1

/// GX101: `==` / `!=` where either adjacent operand token is a float
/// literal or an `f64::NAN`-style constant. Type-blind, so comparisons of
/// float *variables* are only caught when one side is a literal — which
/// covers every violation shape seen in this codebase (`x == 0.0`,
/// `beta != 1.0`).
fn float_eq(ctx: &FileCtx<'_>, emit: &mut Emit<'_>, out: &mut Vec<Diagnostic>) {
    let t = ctx.tokens;
    let mut i = 0usize;
    while i + 1 < t.len() {
        let (is_eq, op): (bool, &str) = if t[i].is_punct('=') && t[i + 1].is_punct('=') {
            // Exclude `<=`, `>=`, `+=`… (the `=` then belongs to a
            // compound operator) and `===`-like runs (not Rust anyway).
            let prev_compound =
                i > 0 && matches!(t[i - 1].kind, Tok::Punct(c) if "+-*/%^&|<>!=".contains(c));
            (!prev_compound, "==")
        } else if t[i].is_punct('!') && t[i + 1].is_punct('=') {
            (true, "!=")
        } else {
            (false, "")
        };
        if !is_eq {
            i += 1;
            continue;
        }
        let line = t[i].line;
        if ctx.in_test(line) {
            i += 2;
            continue;
        }
        let left_float = i > 0 && is_float_operand_end(t, i - 1);
        let right_float = is_float_operand_start(t, i + 2);
        if left_float || right_float {
            emit(
                line,
                "GX101",
                format!("IEEE `{op}` on a float (NaN-unsafe); use gptune_la::ord::feq"),
                out,
            );
        }
        i += 2;
    }
}

/// Token at `k` ends a float operand: a float literal, or the last segment
/// of `f64::NAN` / `f64::INFINITY` / `f64::NEG_INFINITY`.
fn is_float_operand_end(t: &[Token], k: usize) -> bool {
    match &t[k].kind {
        Tok::Float => true,
        Tok::Ident(s) if matches!(s.as_str(), "NAN" | "INFINITY" | "NEG_INFINITY") => true,
        _ => false,
    }
}

/// Token at `k` starts a float operand: a float literal, `-` float, or a
/// `f64::NAN`-style constant path.
fn is_float_operand_start(t: &[Token], k: usize) -> bool {
    match t.get(k).map(|x| &x.kind) {
        Some(Tok::Float) => true,
        Some(Tok::Punct('-')) => matches!(t.get(k + 1).map(|x| &x.kind), Some(Tok::Float)),
        Some(Tok::Ident(s)) if matches!(s.as_str(), "f64" | "f32") => {
            // f64::NAN / f64::INFINITY / f64::NEG_INFINITY / f64::EPSILON
            matches!(
                t.get(k + 3).and_then(|x| x.ident()),
                Some("NAN" | "INFINITY" | "NEG_INFINITY" | "EPSILON")
            )
        }
        _ => false,
    }
}

/// GX102 + GX103: `partial_cmp` escapes.
fn partial_cmp(ctx: &FileCtx<'_>, emit: &mut Emit<'_>, out: &mut Vec<Diagnostic>) {
    let t = ctx.tokens;
    // Spans of sort/min/max comparator arguments, for GX103.
    let sort_fns = ["sort_by", "sort_unstable_by", "min_by", "max_by"];
    let mut sort_arg_spans: Vec<(usize, usize)> = Vec::new();
    for (i, tok) in t.iter().enumerate() {
        if let Some(name) = tok.ident() {
            if sort_fns.contains(&name) && t.get(i + 1).is_some_and(|x| x.is_punct('(')) {
                if let Some(end) = match_delim(t, i + 1, '(', ')') {
                    sort_arg_spans.push((i + 1, end));
                }
            }
        }
    }
    for (i, tok) in t.iter().enumerate() {
        if !tok.is_ident("partial_cmp") {
            continue;
        }
        let line = tok.line;
        if ctx.in_test(line) {
            continue;
        }
        if !(i > 0 && t[i - 1].is_punct('.') && t.get(i + 1).is_some_and(|x| x.is_punct('('))) {
            continue;
        }
        let Some(args_end) = match_delim(t, i + 1, '(', ')') else {
            continue;
        };
        // `.partial_cmp(x).unwrap()` / `.expect(..)` → GX102.
        let unwrapped = t.get(args_end + 1).is_some_and(|x| x.is_punct('.'))
            && matches!(
                t.get(args_end + 2).and_then(|x| x.ident()),
                Some("unwrap" | "expect")
            );
        if unwrapped {
            emit(
                line,
                "GX102",
                "partial_cmp().unwrap() panics on NaN; use f64::total_cmp".to_string(),
                out,
            );
        } else if sort_arg_spans.iter().any(|&(a, b)| a < i && i < b) {
            // Un-unwrapped partial_cmp inside a comparator closure
            // (`.unwrap_or(Equal)` shapes): NaN silently breaks the total
            // order the sort requires → GX103.
            emit(
                line,
                "GX103",
                "raw partial_cmp comparator mis-sorts NaN; use f64::total_cmp".to_string(),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------- tier 4

/// GX402/GX403: nondeterminism sources. (Ambient entropy needs no rule:
/// the workspace is std-only — GX801 — and `gptune-rng` has no entropy
/// constructor.)
fn determinism(ctx: &FileCtx<'_>, emit: &mut Emit<'_>, out: &mut Vec<Diagnostic>) {
    let t = ctx.tokens;

    // GX402: time-derived seeds — `seed_from_u64(..now()..)` shapes and
    // `let seed = ..Instant/SystemTime..` bindings.
    let timey = ["SystemTime", "Instant", "UNIX_EPOCH", "now", "elapsed"];
    for (i, tok) in t.iter().enumerate() {
        if let Some(s) = tok.ident() {
            if matches!(s, "seed_from_u64" | "from_seed")
                && t.get(i + 1).is_some_and(|x| x.is_punct('('))
            {
                if let Some(end) = match_delim(t, i + 1, '(', ')') {
                    if t[i + 2..end]
                        .iter()
                        .any(|x| x.ident().is_some_and(|id| timey.contains(&id)))
                    {
                        emit(
                            tok.line,
                            "GX402",
                            "seed derived from wall-clock/monotonic time; seeds must be explicit and recorded".to_string(),
                            out,
                        );
                    }
                }
            }
            if s == "let" {
                let mut ni = i + 1;
                if t.get(ni).is_some_and(|x| x.is_ident("mut")) {
                    ni += 1;
                }
                if let Some(name) = t.get(ni).and_then(|x| x.ident()) {
                    if name.to_ascii_lowercase().contains("seed") {
                        // Scan the statement for time sources.
                        let mut j = ni + 1;
                        while j < t.len() && !t[j].is_punct(';') {
                            if t[j].ident().is_some_and(|id| timey.contains(&id)) {
                                emit(
                                    t[j].line,
                                    "GX402",
                                    format!("`{name}` is seeded from a time source; thread the run seed instead"),
                                    out,
                                );
                                break;
                            }
                            j += 1;
                        }
                    }
                }
            }
        }
    }

    // GX403: iteration over HashMap/HashSet locals in non-test code.
    let mut hash_locals: Vec<String> = Vec::new();
    for (i, tok) in t.iter().enumerate() {
        if tok.is_ident("let") {
            let mut k = i + 1;
            if t.get(k).is_some_and(|x| x.is_ident("mut")) {
                k += 1;
            }
            if let Some(name) = t.get(k).and_then(|x| x.ident()) {
                // Scan the statement for a HashMap/HashSet constructor or
                // type ascription.
                let mut j = k + 1;
                let mut depth = 0i32;
                while j < t.len() {
                    match t[j].kind {
                        Tok::Punct('{') => depth += 1,
                        Tok::Punct('}') => {
                            depth -= 1;
                            if depth < 0 {
                                break;
                            }
                        }
                        Tok::Punct(';') if depth == 0 => break,
                        _ => {}
                    }
                    if t[j]
                        .ident()
                        .is_some_and(|id| id == "HashMap" || id == "HashSet")
                    {
                        hash_locals.push(name.to_string());
                        break;
                    }
                    j += 1;
                }
            }
        }
    }
    if !hash_locals.is_empty() {
        let iter_fns = [
            "iter",
            "iter_mut",
            "into_iter",
            "keys",
            "values",
            "values_mut",
            "drain",
        ];
        for (i, tok) in t.iter().enumerate() {
            let line = tok.line;
            if ctx.in_test(line) {
                continue;
            }
            if let Some(name) = tok.ident() {
                if !hash_locals.iter().any(|h| h == name) {
                    continue;
                }
                // `name.iter()` etc.
                let method_iter = t.get(i + 1).is_some_and(|x| x.is_punct('.'))
                    && t.get(i + 2)
                        .and_then(|x| x.ident())
                        .is_some_and(|id| iter_fns.contains(&id));
                // `for x in [&[mut]] name {`
                let for_iter = (i >= 1 && t[i - 1].is_ident("in"))
                    || (i >= 2 && t[i - 1].is_punct('&') && t[i - 2].is_ident("in"))
                    || (i >= 3
                        && t[i - 1].is_ident("mut")
                        && t[i - 2].is_punct('&')
                        && t[i - 3].is_ident("in"));
                if method_iter || for_iter {
                    emit(
                        line,
                        "GX403",
                        format!("iteration over hash-ordered `{name}` is nondeterministic; use BTreeMap/BTreeSet or collect+sort"),
                        out,
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------- tier 6

/// Files inside the timed crates that *are* the instrumentation layer:
/// raw clock reads there are the implementation of span timing itself.
const TIMING_EXEMPT_FILES: &[&str] = &["crates/runtime/src/stats.rs"];

/// GX601: raw `Instant::now()` in `crates/core` / `crates/runtime`
/// production code. Phase timing must flow through `PhaseTimer` /
/// `gptune-trace` spans so every measurement lands in both the stats
/// accumulator and the trace; an untraced clock read is a measurement the
/// trace cannot explain. Legitimate non-phase uses (the executor's
/// watchdog deadlines) are allowlisted in `lint.toml` with a reason.
fn raw_timing(ctx: &FileCtx<'_>, emit: &mut Emit<'_>, out: &mut Vec<Diagnostic>) {
    let timed = (ctx.path.starts_with("crates/core/src/")
        || ctx.path.starts_with("crates/runtime/src/"))
        && !TIMING_EXEMPT_FILES.contains(&ctx.path)
        && !ctx.path.contains("trace");
    if !timed {
        return;
    }
    let t = ctx.tokens;
    for (i, tok) in t.iter().enumerate() {
        if tok.is_ident("Instant")
            && t.get(i + 1).is_some_and(|x| x.is_punct(':'))
            && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
            && t.get(i + 3).is_some_and(|x| x.is_ident("now"))
            && !ctx.in_test(tok.line)
        {
            emit(
                tok.line,
                "GX601",
                "raw `Instant::now()` in a traced crate; time through PhaseTimer / gptune-trace spans (or allowlist in lint.toml with a reason)"
                    .to_string(),
                out,
            );
        }
    }
}

/// Crates exempt from the name-taxonomy rule: the instrumentation layer
/// itself (registries and exposition codecs pass names through variables
/// by design) and this lint suite (rule sources quote violating shapes).
const TAXONOMY_EXEMPT_CRATES: &[&str] = &["trace", "xtask"];

/// Recording/lookup methods whose first argument is a span/metric name.
const METRIC_NAME_METHODS: &[&str] = &["span", "instant", "counter", "gauge", "histogram"];

/// True when `name` fits the workspace metric taxonomy:
/// `gptune.<segment>.<segment>[.<segment>…]` with every segment non-empty
/// lowercase ASCII, digits, or underscores.
fn taxonomy_ok(name: &str) -> bool {
    let mut segments = name.split('.');
    if segments.next() != Some("gptune") {
        return false;
    }
    let mut rest = 0usize;
    for seg in segments {
        rest += 1;
        if seg.is_empty()
            || !seg
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        {
            return false;
        }
    }
    rest >= 2
}

/// GX602: every name handed to `.span(` / `.instant(` / `.counter(` /
/// `.gauge(` / `.histogram(` must be a string literal matching the
/// `gptune.<crate>.<name>` taxonomy. A computed name (variable, `format!`,
/// helper call) creates metric families the dashboards and the exposition
/// grammar cannot enumerate, and a literal outside the taxonomy breaks
/// the scrape's `name="…"` round-trip convention. Deliberate dynamic
/// names (the per-tenant SLO ledger) are quarantined via `lint.toml`.
/// Type-blind like every rule here: it matches the method-name token, so
/// snapshot lookups (`m.histogram(name)`) count too — by design, lookups
/// share the taxonomy.
fn metric_name_taxonomy(ctx: &FileCtx<'_>, emit: &mut Emit<'_>, out: &mut Vec<Diagnostic>) {
    if TAXONOMY_EXEMPT_CRATES.contains(&ctx.crate_name()) {
        return;
    }
    let t = ctx.tokens;
    for i in 1..t.len() {
        let is_name_method = METRIC_NAME_METHODS.iter().any(|m| t[i].is_ident(m));
        if !is_name_method
            || !t[i - 1].is_punct('.')
            || !t.get(i + 1).is_some_and(|x| x.is_punct('('))
            || ctx.in_test(t[i].line)
        {
            continue;
        }
        let Some(arg) = t.get(i + 2) else { continue };
        match arg.str_body() {
            Some(body) if taxonomy_ok(body) => {}
            Some(body) => emit(
                t[i].line,
                "GX602",
                format!(
                    "metric/span name \"{body}\" is outside the `gptune.<crate>.<name>` taxonomy \
                     (lowercase dot-separated segments, at least three)"
                ),
                out,
            ),
            None => emit(
                t[i].line,
                "GX602",
                "metric/span name must be a string literal in the `gptune.<crate>.<name>` \
                 taxonomy; computed names hide metric cardinality — quarantine deliberate \
                 dynamic families in lint.toml with a reason"
                    .to_string(),
                out,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let ctx = FileCtx::new(path, &lexed);
        check_file(&ctx, &Config::default())
    }

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        let mut r: Vec<_> = run(path, src).into_iter().map(|d| d.rule).collect();
        r.dedup();
        r
    }

    #[test]
    fn gx101_float_eq() {
        assert_eq!(
            rules_hit("crates/la/src/x.rs", "fn f(x: f64) -> bool { x == 0.0 }"),
            vec!["GX101"]
        );
        assert_eq!(
            rules_hit("crates/la/src/x.rs", "fn f(x: f64) -> bool { x != 1.0 }"),
            vec!["GX101"]
        );
        assert_eq!(
            rules_hit(
                "crates/la/src/x.rs",
                "fn f(x: f64) -> bool { x == f64::NAN }"
            ),
            vec!["GX101"]
        );
        // Integer comparisons and `<=` are fine.
        assert!(rules_hit(
            "crates/la/src/x.rs",
            "fn f(x: i64) -> bool { x == 0 && x <= 4 }"
        )
        .is_empty());
        // Test code is exempt.
        assert!(rules_hit(
            "crates/la/src/x.rs",
            "#[cfg(test)]\nmod t { fn f(x: f64) -> bool { x == 0.0 } }"
        )
        .is_empty());
    }

    #[test]
    fn gx102_gx103_partial_cmp() {
        assert_eq!(
            rules_hit(
                "crates/opt/src/x.rs",
                "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }"
            ),
            vec!["GX102"]
        );
        assert_eq!(
            rules_hit(
                "crates/opt/src/x.rs",
                "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)); }"
            ),
            vec!["GX103"]
        );
        assert!(rules_hit(
            "crates/opt/src/x.rs",
            "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }"
        )
        .is_empty());
        // partial_cmp that is matched (not unwrapped, not in a sort) is fine.
        assert!(rules_hit(
            "crates/opt/src/x.rs",
            "fn f(a: f64, b: f64) -> bool { matches!(a.partial_cmp(&b), Some(core::cmp::Ordering::Less)) }"
        )
        .is_empty());
    }

    #[test]
    fn gx402_time_seeds() {
        assert_eq!(
            rules_hit(
                "crates/opt/src/x.rs",
                "fn f() { let r = StdRng::seed_from_u64(Instant::now().elapsed().as_nanos() as u64); }"
            ),
            vec!["GX402"]
        );
        assert_eq!(
            rules_hit(
                "crates/core/src/options.rs",
                "fn f() { let seed = SystemTime::now(); }"
            ),
            vec!["GX402"]
        );
        assert!(rules_hit(
            "crates/opt/src/x.rs",
            "fn f(seed: u64) { let r = StdRng::seed_from_u64(seed); }"
        )
        .is_empty());
        // Timing (not seeding) with Instant is fine.
        assert!(rules_hit(
            "crates/runtime/src/stats.rs",
            "fn f() { let t0 = Instant::now(); }"
        )
        .is_empty());
    }

    #[test]
    fn gx403_hashmap_iteration() {
        let bad = "fn f() {\n  let mut m: HashMap<u32, u32> = HashMap::new();\n  for (k, v) in &m { record(k, v); }\n}";
        assert_eq!(rules_hit("crates/core/src/x.rs", bad), vec!["GX403"]);
        let bad2 = "fn f() {\n  let m = HashMap::new();\n  let ks: Vec<_> = m.keys().collect();\n}";
        assert_eq!(rules_hit("crates/core/src/x.rs", bad2), vec!["GX403"]);
        // Lookup-only use and BTreeMap iteration are fine.
        let ok = "fn f() {\n  let m: HashMap<u32, u32> = HashMap::new();\n  let v = m.get(&3);\n  let b: BTreeMap<u32, u32> = BTreeMap::new();\n  for kv in &b {}\n}";
        assert!(rules_hit("crates/core/src/x.rs", ok).is_empty());
    }

    #[test]
    fn gx601_raw_instant_now_in_traced_crates() {
        let src = "fn f() { let t0 = Instant::now(); }";
        assert_eq!(rules_hit("crates/runtime/src/x.rs", src), vec!["GX601"]);
        assert_eq!(rules_hit("crates/core/src/mla.rs", src), vec!["GX601"]);
        // Fully-qualified paths hit the same token shape.
        assert_eq!(
            rules_hit(
                "crates/core/src/search.rs",
                "fn f() { let t0 = std::time::Instant::now(); }"
            ),
            vec!["GX601"]
        );
        // The instrumentation layer itself, untimed crates, and tests are
        // exempt.
        assert!(rules_hit("crates/runtime/src/stats.rs", src).is_empty());
        assert!(rules_hit("crates/trace/src/tracer.rs", src).is_empty());
        assert!(rules_hit("crates/db/src/lock.rs", src).is_empty());
        assert!(rules_hit(
            "crates/runtime/src/x.rs",
            "#[cfg(test)]\nmod t { fn f() { let t0 = Instant::now(); } }"
        )
        .is_empty());
        // Non-clock `now` idents don't trip it.
        assert!(rules_hit("crates/runtime/src/x.rs", "fn f(now: u64) -> u64 { now }").is_empty());
    }

    #[test]
    fn gx602_metric_names_must_be_taxonomy_literals() {
        // Computed names: a variable, a format!, a helper call.
        assert_eq!(
            rules_hit(
                "crates/serve/src/x.rs",
                "fn f(t: &Tracer, name: &str) { t.counter(name).add(1); }"
            ),
            vec!["GX602"]
        );
        assert_eq!(
            rules_hit(
                "crates/serve/src/x.rs",
                "fn f(t: &Tracer, op: &str) { t.histogram(&format!(\"gptune.serve.latency_us.{op}\")).record(1); }"
            ),
            vec!["GX602"]
        );
        // Literals outside the taxonomy: wrong root, too few segments,
        // uppercase.
        assert_eq!(
            rules_hit(
                "crates/serve/src/x.rs",
                "fn f(t: &Tracer) { t.counter(\"requests\").add(1); }"
            ),
            vec!["GX602"]
        );
        assert_eq!(
            rules_hit(
                "crates/serve/src/x.rs",
                "fn f(t: &Tracer) { t.gauge(\"gptune.sessions\").set(1.0); }"
            ),
            vec!["GX602"]
        );
        assert_eq!(
            rules_hit(
                "crates/serve/src/x.rs",
                "fn f(t: &Tracer) { t.span(\"gptune.Serve.request\"); }"
            ),
            vec!["GX602"]
        );
        // The blessed shape is silent, for recording and snapshot lookups
        // alike, with any segment depth ≥ 3.
        assert!(rules_hit(
            "crates/serve/src/x.rs",
            "fn f(t: &Tracer, m: &MetricsSnapshot) {\n  t.counter(\"gptune.serve.requests\").add(1);\n  t.histogram(\"gptune.serve.latency_us.suggest\").record(9);\n  let _ = m.counter(\"gptune.serve.requests\");\n}"
        )
        .is_empty());
        // Tests, the instrumentation crate, and unrelated method names are
        // exempt.
        assert!(rules_hit(
            "crates/serve/src/x.rs",
            "#[cfg(test)]\nmod t { fn f(t: &Tracer, n: &str) { t.counter(n).add(1); } }"
        )
        .is_empty());
        assert!(rules_hit(
            "crates/trace/src/metrics.rs",
            "fn f(t: &Tracer, n: &str) { t.counter(n).add(1); }"
        )
        .is_empty());
        assert!(rules_hit(
            "crates/serve/src/x.rs",
            "fn f(t: &Tracer) { t.record_span(\"whatever\", 0, d, vec![]); }"
        )
        .is_empty());
    }

    #[test]
    fn lint_toml_allowlist_suppresses() {
        let cfg = Config::parse(
            "[[allow]]\nrule = \"GX101\"\npath = \"crates/la/src/ord.rs\"\nreason = \"comparator home\"\n",
        )
        .expect("cfg");
        let lexed = lex("fn feq(a: f64, b: f64) -> bool { a == 0.0 }");
        let ctx = FileCtx::new("crates/la/src/ord.rs", &lexed);
        assert!(check_file(&ctx, &cfg).is_empty());
    }
}
