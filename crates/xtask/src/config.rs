//! `lint.toml` — the file-level allowlist for the lint suite.
//!
//! The format is a deliberately tiny TOML subset (parsed on std alone):
//!
//! ```toml
//! [[allow]]
//! rule = "GX403"
//! path = "crates/sparse/src/pattern.rs"
//! reason = "bucket map is sorted before any output is derived"
//! ```
//!
//! `rule` is a rule ID (`GX101`, …) or a tier glob (`GX4*`); `path` is a
//! repo-relative path prefix; `reason` is mandatory — an allowlist entry
//! without a reason fails the gate as a config error. The GX7xx/GX303
//! concurrency rules additionally accept an optional `fn = "dispatch"`
//! key scoping the entry to one function — path-wide suppression would
//! hide future real bugs in the same file.
//!
//! A second table kind is GX801's dependency allowlist: every non-path
//! dependency of the workspace manifests must be named by one entry.
//!
//! ```toml
//! [[dependency]]
//! name = "rand"
//! reason = "seeded StdRng streams; an in-repo PRNG is on the roadmap"
//! ```

/// One allowlist entry.
#[derive(Debug, Clone, Default)]
pub struct AllowEntry {
    pub rule: String,
    pub path: String,
    pub reason: String,
    /// Optional function scope (empty = whole path prefix). Only the
    /// fn-aware concurrency rules consult this; entries carrying it never
    /// match the per-file rules.
    pub func: String,
    /// Line in lint.toml where the entry starts (for diagnostics).
    pub line: u32,
}

/// One GX801 dependency-allowlist entry.
#[derive(Debug, Clone, Default)]
pub struct DependencyEntry {
    pub name: String,
    pub reason: String,
    /// Line in lint.toml where the entry starts (for diagnostics).
    pub line: u32,
}

/// Parsed allowlist.
#[derive(Debug, Default)]
pub struct Config {
    pub allows: Vec<AllowEntry>,
    pub dependencies: Vec<DependencyEntry>,
}

/// The table an entry being parsed belongs to.
enum Table {
    Allow(AllowEntry),
    Dependency(DependencyEntry),
}

/// A malformed `lint.toml` (unknown key, bad syntax). The lint gate treats
/// this as a hard error: a typo must not silently widen the allowlist.
#[derive(Debug)]
pub struct ConfigError {
    pub line: u32,
    pub msg: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.msg)
    }
}

impl Config {
    /// True when `rule` at `path` is allowlisted. `rule` matches exactly
    /// or via a trailing-`*` glob; `path` matches by prefix. Fn-scoped
    /// entries never match here — they only apply through
    /// [`Config::allowed_fn`].
    pub fn allowed(&self, rule: &str, path: &str) -> Option<&AllowEntry> {
        self.allows
            .iter()
            .find(|e| e.func.is_empty() && entry_matches(e, rule, path))
    }

    /// Fn-aware variant used by the concurrency tier: entries without an
    /// `fn` key match any function, entries with one match only it.
    pub fn allowed_fn(&self, rule: &str, path: &str, func: &str) -> bool {
        self.allows
            .iter()
            .any(|e| (e.func.is_empty() || e.func == func) && entry_matches(e, rule, path))
    }

    /// True when GX801 lets the non-path dependency `name` in.
    pub fn dependency_allowed(&self, name: &str) -> bool {
        self.dependencies.iter().any(|d| d.name == name)
    }

    /// Parses the subset format. Empty/missing content parses to an empty
    /// allowlist.
    pub fn parse(src: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut current: Option<Table> = None;
        for (idx, raw) in src.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" || line == "[[dependency]]" {
                if let Some(e) = current.take() {
                    finish(e, &mut cfg)?;
                }
                current = Some(if line == "[[allow]]" {
                    Table::Allow(AllowEntry {
                        line: lineno,
                        ..AllowEntry::default()
                    })
                } else {
                    Table::Dependency(DependencyEntry {
                        line: lineno,
                        ..DependencyEntry::default()
                    })
                });
                continue;
            }
            if line.starts_with('[') {
                return Err(ConfigError {
                    line: lineno,
                    msg: format!(
                        "unknown table {line:?} (only [[allow]] and [[dependency]] are supported)"
                    ),
                });
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError {
                    line: lineno,
                    msg: format!("expected `key = \"value\"`, got {line:?}"),
                });
            };
            let key = key.trim();
            let value = value.trim();
            let value = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or(ConfigError {
                    line: lineno,
                    msg: format!("value for {key:?} must be a double-quoted string"),
                })?;
            match (current.as_mut(), key) {
                (None, _) => {
                    return Err(ConfigError {
                        line: lineno,
                        msg: "key outside of an [[allow]] or [[dependency]] table".to_string(),
                    })
                }
                (Some(Table::Allow(entry)), "rule") => entry.rule = value.to_string(),
                (Some(Table::Allow(entry)), "path") => entry.path = value.to_string(),
                (Some(Table::Allow(entry)), "reason") => entry.reason = value.to_string(),
                (Some(Table::Allow(entry)), "fn") => entry.func = value.to_string(),
                (Some(Table::Dependency(entry)), "name") => entry.name = value.to_string(),
                (Some(Table::Dependency(entry)), "reason") => entry.reason = value.to_string(),
                (Some(table), other) => {
                    let expected = match table {
                        Table::Allow(_) => "rule/path/fn/reason",
                        Table::Dependency(_) => "name/reason",
                    };
                    return Err(ConfigError {
                        line: lineno,
                        msg: format!("unknown key {other:?} (expected {expected})"),
                    });
                }
            }
        }
        if let Some(e) = current.take() {
            finish(e, &mut cfg)?;
        }
        Ok(cfg)
    }
}

fn entry_matches(e: &AllowEntry, rule: &str, path: &str) -> bool {
    let rule_ok = match e.rule.strip_suffix('*') {
        Some(prefix) => rule.starts_with(prefix),
        None => e.rule == rule,
    };
    rule_ok && path.starts_with(e.path.as_str())
}

/// Validates one completed entry: every key but `fn` is mandatory, so
/// an entry without a reason is a parse error.
fn finish(table: Table, cfg: &mut Config) -> Result<(), ConfigError> {
    let (kind, line, required) = match &table {
        Table::Allow(e) => (
            "[[allow]]",
            e.line,
            vec![("rule", &e.rule), ("path", &e.path), ("reason", &e.reason)],
        ),
        Table::Dependency(e) => (
            "[[dependency]]",
            e.line,
            vec![("name", &e.name), ("reason", &e.reason)],
        ),
    };
    if let Some((field, _)) = required.iter().find(|(_, val)| val.is_empty()) {
        return Err(ConfigError {
            line,
            msg: format!("{kind} entry is missing required key {field:?}"),
        });
    }
    match table {
        Table::Allow(e) => cfg.allows.push(e),
        Table::Dependency(e) => cfg.dependencies.push(e),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_matches() {
        let cfg = Config::parse(
            "# comment\n\n[[allow]]\nrule = \"GX403\"\npath = \"crates/sparse/src/\"\nreason = \"sorted later\"\n\n[[allow]]\nrule = \"GX1*\"\npath = \"crates/la/src/ord.rs\"\nreason = \"comparator home\"\n",
        )
        .expect("parses");
        assert_eq!(cfg.allows.len(), 2);
        assert!(cfg
            .allowed("GX403", "crates/sparse/src/pattern.rs")
            .is_some());
        assert!(cfg.allowed("GX403", "crates/gp/src/lcm.rs").is_none());
        assert!(cfg.allowed("GX101", "crates/la/src/ord.rs").is_some());
        assert!(cfg.allowed("GX102", "crates/la/src/ord.rs").is_some());
        assert!(cfg.allowed("GX601", "crates/la/src/ord.rs").is_none());
    }

    #[test]
    fn fn_scoped_entries_match_only_that_fn() {
        let cfg = Config::parse(
            "[[allow]]\nrule = \"GX702\"\npath = \"crates/serve/src/server.rs\"\nfn = \"dispatch\"\nreason = \"journal-before-ack\"\n",
        )
        .expect("parses");
        assert!(cfg.allowed_fn("GX702", "crates/serve/src/server.rs", "dispatch"));
        assert!(!cfg.allowed_fn("GX702", "crates/serve/src/server.rs", "flush_slot"));
        // Fn-scoped entries are invisible to the per-file matcher.
        assert!(cfg.allowed("GX702", "crates/serve/src/server.rs").is_none());
    }

    #[test]
    fn missing_reason_is_an_error() {
        let err = Config::parse("[[allow]]\nrule = \"GX101\"\npath = \"x\"\n").unwrap_err();
        assert!(err.msg.contains("reason"), "{err}");
    }

    #[test]
    fn unknown_key_is_an_error() {
        let err = Config::parse("[[allow]]\nrule = \"GX101\"\npath = \"x\"\nreson = \"typo\"\n")
            .unwrap_err();
        assert!(err.msg.contains("reson"), "{err}");
    }

    #[test]
    fn dependency_entries_parse_and_need_a_reason() {
        let cfg = Config::parse(
            "[[dependency]]\nname = \"rand\"\nreason = \"seeded streams\"\n\n[[allow]]\nrule = \"GX101\"\npath = \"x\"\nreason = \"y\"\n",
        )
        .expect("parses");
        assert!(cfg.dependency_allowed("rand"));
        assert!(!cfg.dependency_allowed("rayon"));
        assert_eq!(cfg.allows.len(), 1);
        let err = Config::parse("[[dependency]]\nname = \"rand\"\n").unwrap_err();
        assert!(err.msg.contains("reason"), "{err}");
        let err = Config::parse("[[dependency]]\nname = \"rand\"\npath = \"x\"\n").unwrap_err();
        assert!(err.msg.contains("path"), "{err}");
    }

    #[test]
    fn empty_is_fine() {
        assert!(Config::parse("").expect("empty ok").allows.is_empty());
    }
}
