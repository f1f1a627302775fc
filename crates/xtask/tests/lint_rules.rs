//! Fixture-driven tests for the lint suite: each fixture under
//! `tests/fixtures/` is linted under a synthetic *production* path (the
//! fixtures directory itself is test code by the lint's own path rules,
//! so the real path must not be used), and the emitted rule IDs are
//! asserted exactly.

use gptune_xtask::config::Config;
use gptune_xtask::lint_source;

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

/// Lints a fixture as if it lived at `path_rel` and returns the rule IDs
/// in emission order.
fn rules_at(name: &str, path_rel: &str) -> Vec<String> {
    let cfg = Config::default();
    lint_source(path_rel, &fixture(name), &cfg)
        .into_iter()
        .map(|d| d.rule.to_string())
        .collect()
}

#[test]
fn gx101_flags_float_equality_only_outside_tests() {
    let rules = rules_at("gx101_float_eq.rs", "crates/gp/src/fixture.rs");
    assert_eq!(rules, vec!["GX101", "GX101", "GX101"]);
}

#[test]
fn gx102_gx103_flag_partial_cmp_shapes() {
    let rules = rules_at("gx102_gx103_partial_cmp.rs", "crates/opt/src/fixture.rs");
    assert_eq!(rules, vec!["GX102", "GX103"]);
}

#[test]
fn gx1xx_covers_rank1_cholesky_kernel_shapes() {
    // The naive rank-1 downdate shapes — IEEE pivot equality and an
    // unwrap'd partial_cmp eviction comparator — must all fire under the
    // la production path...
    let rules = rules_at("gx1xx_rank1_cholesky.rs", "crates/la/src/cholesky.rs");
    assert_eq!(rules, vec!["GX101", "GX101", "GX103"]);
    // ...while the shipped kernel idiom — the NaN-robust `!(r2 > 0.0)`
    // guard returning a typed NotPositiveDefinite error (never an
    // unwrap), total_cmp victim selection — lints completely clean. The
    // guard is the shape `Cholesky::extend_row` uses.
    let rules = rules_at("gx1xx_rank1_cholesky_clean.rs", "crates/la/src/cholesky.rs");
    assert!(rules.is_empty(), "clean kernel idiom fired: {rules:?}");
}

#[test]
fn gx4xx_flags_time_seeds_and_hash_iteration() {
    let rules = rules_at("gx4xx_determinism.rs", "crates/core/src/sampler.rs");
    assert_eq!(rules, vec!["GX402", "GX403"]);
}

#[test]
fn gx601_flags_raw_instant_now_in_traced_crates_only() {
    let rules = rules_at("gx601_raw_timing.rs", "crates/runtime/src/fixture.rs");
    assert_eq!(rules, vec!["GX601"]);
    let rules = rules_at("gx601_raw_timing.rs", "crates/core/src/fixture.rs");
    assert_eq!(rules, vec!["GX601"]);
    // Untimed crates and the instrumentation layer itself are exempt.
    assert!(rules_at("gx601_raw_timing.rs", "crates/gp/src/fixture.rs").is_empty());
    assert!(rules_at("gx601_raw_timing.rs", "crates/runtime/src/stats.rs").is_empty());
    // The allowlist covers the executor's watchdog clocks.
    let cfg = Config::parse(
        "[[allow]]\nrule = \"GX601\"\npath = \"crates/runtime/src/executor.rs\"\nreason = \"watchdog\"\n",
    )
    .expect("valid config");
    let diags = lint_source(
        "crates/runtime/src/executor.rs",
        &fixture("gx601_raw_timing.rs"),
        &cfg,
    );
    assert!(
        diags.is_empty(),
        "allowlisted GX601 must not fire: {diags:?}"
    );
}

#[test]
fn gx602_flags_computed_and_off_taxonomy_metric_names() {
    let rules = rules_at("gx602_metric_names.rs", "crates/serve/src/fixture.rs");
    assert_eq!(rules, vec!["GX602"; 5]);
    // The closed-match idiom and snapshot lookups by literal lint clean.
    let rules = rules_at("gx602_metric_names_clean.rs", "crates/serve/src/fixture.rs");
    assert!(rules.is_empty(), "clean metric idiom fired: {rules:?}");
    // The instrumentation layer is exempt wholesale.
    let rules = rules_at("gx602_metric_names.rs", "crates/trace/src/fixture.rs");
    assert!(rules.is_empty(), "trace crate must be exempt: {rules:?}");
    // The quarantine path: a lint.toml entry silences a deliberate
    // dynamic family.
    let cfg = Config::parse(
        "[[allow]]\nrule = \"GX602\"\npath = \"crates/serve/src/tenant_metrics.rs\"\nreason = \"bounded per-tenant ledger\"\n",
    )
    .expect("valid config");
    let diags = lint_source(
        "crates/serve/src/tenant_metrics.rs",
        &fixture("gx602_metric_names.rs"),
        &cfg,
    );
    assert!(
        diags.is_empty(),
        "allowlisted GX602 must not fire: {diags:?}"
    );
}

/// GX801 findings as `(path, line, message names the dependency)` over
/// the root fixture plus one member fixture, with `rand` allowlisted.
fn gx801_findings(member: &str) -> Vec<(String, u32, String)> {
    let cfg = Config::parse("[[dependency]]\nname = \"rand\"\nreason = \"fixture\"\n")
        .expect("valid config");
    let manifests = vec![
        ("Cargo.toml".to_string(), fixture("gx801_root.toml")),
        ("crates/member/Cargo.toml".to_string(), fixture(member)),
    ];
    gptune_xtask::deps::check_manifests(&manifests, &cfg)
        .into_iter()
        .map(|d| {
            assert_eq!(d.rule, "GX801");
            let name = d.msg.split('`').nth(1).unwrap_or_default().to_string();
            (d.path, d.line, name)
        })
        .collect()
}

#[test]
fn gx801_flags_registry_dependencies_outside_the_allowlist() {
    let found = gx801_findings("gx801_member.toml");
    let root = "Cargo.toml".to_string();
    let member = "crates/member/Cargo.toml".to_string();
    assert_eq!(
        found,
        vec![
            (root, 8, "rayon".to_string()),
            (member.clone(), 8, "rayon".to_string()),
            (member.clone(), 11, "proptest".to_string()),
            (member, 13, "cc".to_string()),
        ]
    );
}

#[test]
fn gx801_passes_path_and_allowlisted_dependencies() {
    let found = gx801_findings("gx801_member_clean.toml");
    // Only the root fixture's own registry `rayon` remains.
    assert_eq!(
        found,
        vec![("Cargo.toml".to_string(), 8, "rayon".to_string())]
    );
}

#[test]
fn allowlist_suppresses_by_rule_and_path_prefix() {
    let cfg = Config::parse(
        "[[allow]]\nrule = \"GX1*\"\npath = \"crates/gp/src/\"\nreason = \"fixture\"\n",
    )
    .expect("valid config");
    let diags = lint_source(
        "crates/gp/src/fixture.rs",
        &fixture("gx101_float_eq.rs"),
        &cfg,
    );
    assert!(
        diags.is_empty(),
        "allowlisted rules must not fire: {diags:?}"
    );
    // Same config must not suppress a different path.
    let diags = lint_source(
        "crates/la/src/fixture.rs",
        &fixture("gx101_float_eq.rs"),
        &cfg,
    );
    assert_eq!(diags.len(), 3);
}

#[test]
fn diagnostics_carry_path_line_and_rule() {
    let cfg = Config::default();
    let diags = lint_source(
        "crates/runtime/src/fixture.rs",
        &fixture("gx601_raw_timing.rs"),
        &cfg,
    );
    assert_eq!(diags.len(), 1);
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("crates/runtime/src/fixture.rs:5: [GX601]"),
        "unexpected rendering: {rendered}"
    );
}

#[test]
fn fixtures_dir_itself_is_test_code() {
    // Linted under its real path, a violation-laden fixture is silent for
    // every path-scoped tier (the fixtures dir is test code)...
    let rules = rules_at(
        "gx101_float_eq.rs",
        "crates/xtask/tests/fixtures/gx101_float_eq.rs",
    );
    assert!(
        rules.is_empty(),
        "fixtures must lint clean in place: {rules:?}"
    );
    // ...but GX402 (time-derived seeds) fires even in test code: a test
    // seeded from the clock is flaky.
    let rules = rules_at(
        "gx4xx_determinism.rs",
        "crates/xtask/tests/fixtures/gx4xx_determinism.rs",
    );
    assert_eq!(rules, vec!["GX402"]);
}

#[test]
fn workspace_lints_clean_end_to_end() {
    // The repo itself must satisfy its own lints: run the full workspace
    // walk exactly as the CLI does.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root");
    let cfg = gptune_xtask::load_config(root).expect("lint.toml parses");
    let report = gptune_xtask::lint_workspace(root, &cfg).expect("workspace walk");
    assert!(report.files_scanned > 50, "workspace walk looks truncated");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        report.diagnostics.is_empty(),
        "workspace must lint clean:\n{}",
        rendered.join("\n")
    );
}
