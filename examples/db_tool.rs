//! `db_tool` — command-line maintenance for `gptune-db` archives.
//!
//! ```text
//! cargo run --example db_tool -- inspect    <archive>
//! cargo run --example db_tool -- merge      <dst-archive> <src-archive>
//! cargo run --example db_tool -- compact    <archive>
//! cargo run --example db_tool -- shard      <archive> <journal.jsonl> by-task|window:<n>
//! cargo run --example db_tool -- export     <archive> <journal.jsonl>
//! ```
//!
//! * `inspect` — per-journal entry counts and recovery health, archived
//!   run summaries with their `stats:` breakdown, in-flight checkpoints,
//!   and — for sharded problems — the manifest with per-shard label and
//!   entry counts plus the deduplicated combined total;
//! * `merge` — folds every problem of a second archive into the first.
//!   Shard-aware on both sides: the source's shards and live journal are
//!   read together, and entries already present anywhere in the
//!   destination (shards or live journal) are skipped;
//! * `compact` — deduplicates and heals every live journal in place,
//!   dropping entries the problem's archive shards already hold;
//! * `shard` — splits one problem's accumulated history into compressed
//!   binary (format v2) archive shards (task-range `by-task` or
//!   append-order `window:<n>`), writes the manifest, and empties the
//!   live journal;
//! * `export` — prints a journal's evaluation records as CSV on stdout.

use gptune::db::{journal, Db, DbEntry, DbValue, ShardPolicy};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match strs.as_slice() {
        ["inspect", archive] => inspect(Path::new(archive)),
        ["merge", dst, src] => merge(Path::new(dst), Path::new(src)),
        ["compact", archive] => compact(Path::new(archive)),
        ["shard", archive, journal, policy] => shard(Path::new(archive), journal, policy),
        ["export", archive, journal] => export(Path::new(archive), journal),
        _ => {
            eprintln!(
                "usage: db_tool inspect <archive>\n\
                 \u{20}      db_tool merge <dst-archive> <src-archive>\n\
                 \u{20}      db_tool compact <archive>\n\
                 \u{20}      db_tool shard <archive> <journal.jsonl> by-task|window:<n>\n\
                 \u{20}      db_tool export <archive> <journal.jsonl>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("db_tool: {e}");
        std::process::exit(1);
    }
}

/// Parses `(problem, sig)` back out of a `<problem>-<sig:016x>.jsonl`
/// journal file name.
fn parse_journal_name(name: &str) -> Option<(String, u64)> {
    let stem = name.strip_suffix(".jsonl")?;
    let (problem, sig_hex) = stem.rsplit_once('-')?;
    if sig_hex.len() != 16 {
        return None;
    }
    let sig = u64::from_str_radix(sig_hex, 16).ok()?;
    Some((problem.to_string(), sig))
}

fn inspect(root: &Path) -> std::io::Result<()> {
    let db = Db::open(root)?;
    let journals = db.journals()?;
    println!("archive: {}  journals: {}", root.display(), journals.len());
    for (name, _) in &journals {
        let (entries, report) = journal::load(&root.join(name))?;
        let evals = entries
            .iter()
            .filter(|e| matches!(e, DbEntry::Eval(_)))
            .count();
        let fails = entries
            .iter()
            .filter(|e| matches!(e, DbEntry::Fail(_)))
            .count();
        let mut health = String::new();
        if report.dropped_torn_tail {
            health.push_str("  [torn tail dropped]");
        }
        if report.n_corrupt_interior > 0 {
            health.push_str(&format!(
                "  [{} corrupt lines skipped]",
                report.n_corrupt_interior
            ));
        }
        if report.n_unknown_kind > 0 {
            health.push_str(&format!(
                "  [{} unknown-kind lines skipped]",
                report.n_unknown_kind
            ));
        }
        println!(
            "  {name}: {} entries ({evals} evals, {fails} failures, {} runs){health}",
            entries.len(),
            entries.len() - evals - fails
        );
        for e in &entries {
            if let DbEntry::Run(r) = e {
                println!(
                    "    run: {}  seed: {}  machine: {}",
                    r.prov.run,
                    r.prov.seed,
                    r.prov.machine.as_deref().unwrap_or("-")
                );
                println!("        {}", r.stats.report());
            }
        }
        // Sharded problems: show the manifest and the combined view.
        if let Some((problem, sig)) = parse_journal_name(name) {
            if let Some(manifest) = db.shard_manifest(&problem, sig)? {
                println!(
                    "    sharded ({} policy, {} shards):",
                    manifest.policy,
                    manifest.shards.len()
                );
                for info in &manifest.shards {
                    println!(
                        "      {}: {} entries  [{}]",
                        info.file, info.n_entries, info.label
                    );
                }
                let (all, _) = db.load(&problem, sig)?;
                println!("    combined (deduplicated): {} entries", all.len());
            }
        }
    }
    // Manifests whose live journal has been emptied and removed would be
    // invisible above; list any manifest without a sibling journal.
    let mut orphan_manifests: Vec<String> = std::fs::read_dir(root)?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".manifest.json"))
        .filter(|n| {
            let journal = n.replace(".manifest.json", ".jsonl");
            !journals.iter().any(|(j, _)| *j == journal)
        })
        .collect();
    orphan_manifests.sort();
    for m in &orphan_manifests {
        println!("  shard manifest without live journal: {m}");
    }
    let mut checkpoints: Vec<String> = std::fs::read_dir(root)?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("ckpt-") && n.ends_with(".json"))
        .collect();
    checkpoints.sort();
    for c in &checkpoints {
        println!("  in-flight checkpoint: {c}");
    }
    Ok(())
}

fn merge(dst_root: &Path, src_root: &Path) -> std::io::Result<()> {
    let dst = Db::open(dst_root)?;
    let src = Db::open(src_root)?;
    let mut total = 0usize;
    // Journal file names embed problem + signature, so matching by name is
    // exactly matching by (problem, sig). Loading through the source Db
    // folds in its archive shards; merge_entries dedups against the whole
    // destination (shards + live journal).
    for (name, _) in src.journals()? {
        let Some((problem, sig)) = parse_journal_name(&name) else {
            eprintln!("  {name}: skipped (unrecognized name)");
            continue;
        };
        let (entries, _) = src.load(&problem, sig)?;
        let added = dst.merge_entries(&problem, sig, &entries)?;
        println!("  {name}: +{added}");
        total += added;
    }
    println!("merged {total} new entries into {}", dst_root.display());
    Ok(())
}

fn compact(root: &Path) -> std::io::Result<()> {
    let db = Db::open(root)?;
    for (name, _) in db.journals()? {
        let Some((problem, sig)) = parse_journal_name(&name) else {
            eprintln!("  {name}: skipped (not a live journal)");
            continue;
        };
        let (kept, dropped) = db.compact(&problem, sig)?;
        println!("  {name}: kept {kept}, dropped {dropped}");
    }
    Ok(())
}

fn shard(root: &Path, journal_name: &str, policy_arg: &str) -> std::io::Result<()> {
    let policy = if policy_arg == "by-task" {
        ShardPolicy::ByTask
    } else if let Some(n) = policy_arg.strip_prefix("window:") {
        let n: usize = n.parse().map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("bad window size {n:?}"),
            )
        })?;
        ShardPolicy::Window(n.max(1))
    } else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("unknown policy {policy_arg:?} (want by-task or window:<n>)"),
        ));
    };
    let Some((problem, sig)) = parse_journal_name(journal_name) else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("unrecognized journal name {journal_name:?}"),
        ));
    };
    let db = Db::open(root)?;
    let manifest = db.split_shards(&problem, sig, policy)?;
    println!(
        "sharded {journal_name} into {} shards ({} policy):",
        manifest.shards.len(),
        manifest.policy
    );
    for info in &manifest.shards {
        println!(
            "  {}: {} entries  [{}]",
            info.file, info.n_entries, info.label
        );
    }
    Ok(())
}

fn export(root: &Path, journal_name: &str) -> std::io::Result<()> {
    let (entries, _) = journal::load(&root.join(journal_name))?;
    println!("task,config,outputs,run,seed");
    for e in &entries {
        if let DbEntry::Eval(r) = e {
            println!(
                "{},{},{},{},{}",
                csv_values(&r.task),
                csv_values(&r.config),
                r.outputs
                    .iter()
                    .map(|y| y.to_string())
                    .collect::<Vec<_>>()
                    .join(";"),
                r.prov.run,
                r.prov.seed
            );
        }
    }
    Ok(())
}

fn csv_values(vs: &[DbValue]) -> String {
    vs.iter()
        .map(|v| match v {
            DbValue::Real(x) => x.to_string(),
            DbValue::Int(i) => i.to_string(),
            DbValue::Cat(c) => format!("#{c}"),
        })
        .collect::<Vec<_>>()
        .join(";")
}
