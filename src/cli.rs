//! Command-line interface: tune any built-in application from the shell.
//!
//! The reference GPTune is driven by Python scripts per application; this
//! CLI plays that role for the simulated suite:
//!
//! ```text
//! gptune-cli apps
//! gptune-cli tune --app pdgeqrf --nodes 4 --budget 10 \
//!                 --tasks 8000x8000,12000x6000 --seed 1 --model
//! gptune-cli tune --app superlu_dist --tasks Si2,SiH4 --multi-objective
//! gptune-cli tune --app hypre --tasks 50x50x50 --db hypre-archive
//! ```
//!
//! With `--db` the run archives its evaluations into a `gptune-db`
//! directory, the store warm starts and transfer learning read, and the
//! runlog ends with the archive's per-run summaries.
//!
//! Argument parsing is hand-rolled (no extra dependency) and lives here so
//! it is unit-testable; the `gptune-cli` binary is a thin wrapper.

use crate::apps::{
    AnalyticalApp, HpcApp, HypreApp, M3dc1App, MachineModel, NimrodApp, PdgeqrfApp, PdsyevxApp,
    SuperluApp, PARSEC_MATRICES,
};
use crate::core::{mla, mla_mo, runlog, MlaOptions};
use crate::space::Value;
use crate::{problem_from_app, problem_from_app_objective};
use std::sync::Arc;

/// Names of the built-in applications.
pub const APP_NAMES: [&str; 7] = [
    "analytical",
    "pdgeqrf",
    "pdsyevx",
    "superlu_dist",
    "hypre",
    "m3d_c1",
    "nimrod",
];

/// Parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneArgs {
    /// Application name (one of [`APP_NAMES`]).
    pub app: String,
    /// Cori-like node count for the machine model.
    pub nodes: usize,
    /// Per-task evaluation budget `ε_tot`.
    pub budget: usize,
    /// Raw task strings (app-specific syntax, comma separated).
    pub tasks: Vec<String>,
    /// RNG seed.
    pub seed: u64,
    /// Enable performance-model features (Sec. 3.3) when available.
    pub model: bool,
    /// Run the multi-objective tuner (Algorithm 2) for γ > 1 apps.
    pub multi_objective: bool,
    /// Optional `gptune-db` archive directory the run archives into.
    pub db: Option<String>,
}

impl Default for TuneArgs {
    fn default() -> Self {
        TuneArgs {
            app: String::new(),
            nodes: 1,
            budget: 10,
            tasks: Vec::new(),
            seed: 0,
            model: false,
            multi_objective: false,
            db: None,
        }
    }
}

/// Parses `tune` subcommand arguments. Returns an error message on any
/// malformed input (never panics on user input).
pub fn parse_tune_args(args: &[String]) -> Result<TuneArgs, String> {
    let mut out = TuneArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--app" => out.app = value("--app")?,
            "--nodes" => {
                out.nodes = value("--nodes")?
                    .parse()
                    .map_err(|_| "--nodes expects a positive integer".to_string())?
            }
            "--budget" => {
                out.budget = value("--budget")?
                    .parse()
                    .map_err(|_| "--budget expects a positive integer".to_string())?
            }
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?
            }
            "--tasks" => {
                out.tasks = value("--tasks")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--model" => out.model = true,
            "--multi-objective" => out.multi_objective = true,
            "--db" => out.db = Some(value("--db")?),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if out.app.is_empty() {
        return Err("--app is required".into());
    }
    if !APP_NAMES.contains(&out.app.as_str()) {
        return Err(format!(
            "unknown app '{}'; available: {}",
            out.app,
            APP_NAMES.join(", ")
        ));
    }
    if out.tasks.is_empty() {
        return Err("--tasks is required (comma separated, app-specific syntax)".into());
    }
    if out.budget < 2 {
        return Err("--budget must be at least 2".into());
    }
    Ok(out)
}

/// Builds the application named by `args.app` on the requested machine.
pub fn build_app(name: &str, nodes: usize) -> Arc<dyn HpcApp> {
    let machine = MachineModel::cori(nodes);
    match name {
        "analytical" => Arc::new(AnalyticalApp::new(0.0)),
        "pdgeqrf" => Arc::new(PdgeqrfApp::new(machine, 40_000)),
        "pdsyevx" => Arc::new(PdsyevxApp::new(machine, 10_000)),
        "superlu_dist" => Arc::new(SuperluApp::new(machine)),
        "hypre" => Arc::new(HypreApp::new(machine)),
        "m3d_c1" => Arc::new(M3dc1App::new(machine)),
        "nimrod" => Arc::new(NimrodApp::new(machine)),
        other => unreachable!("validated app name: {other}"),
    }
}

/// Parses one task string for the given app.
///
/// Syntax: `analytical` — a real `t`; `pdgeqrf` — `MxN`; `pdsyevx` — `M`;
/// `superlu_dist` — a PARSEC matrix name; `hypre` — `N1xN2xN3`;
/// `m3d_c1`/`nimrod` — a step count.
pub fn parse_task(app: &str, s: &str) -> Result<Vec<Value>, String> {
    let int = |v: &str| -> Result<i64, String> {
        v.parse()
            .map_err(|_| format!("'{v}' is not an integer (task '{s}')"))
    };
    match app {
        "analytical" => {
            let t: f64 = s
                .parse()
                .map_err(|_| format!("'{s}' is not a real task parameter"))?;
            Ok(vec![Value::Real(t)])
        }
        "pdgeqrf" => {
            let (m, n) = s
                .split_once(['x', 'X'])
                .ok_or_else(|| format!("pdgeqrf task must be MxN, got '{s}'"))?;
            Ok(vec![Value::Int(int(m)?), Value::Int(int(n)?)])
        }
        "pdsyevx" | "m3d_c1" | "nimrod" => Ok(vec![Value::Int(int(s)?)]),
        "superlu_dist" => {
            let idx = PARSEC_MATRICES
                .iter()
                .position(|m| m.name.eq_ignore_ascii_case(s))
                .ok_or_else(|| {
                    format!(
                        "unknown matrix '{s}'; available: {}",
                        PARSEC_MATRICES
                            .iter()
                            .map(|m| m.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })?;
            Ok(vec![Value::Cat(idx)])
        }
        "hypre" => {
            let parts: Vec<&str> = s.split(['x', 'X']).collect();
            if parts.len() != 3 {
                return Err(format!("hypre task must be N1xN2xN3, got '{s}'"));
            }
            Ok(vec![
                Value::Int(int(parts[0])?),
                Value::Int(int(parts[1])?),
                Value::Int(int(parts[2])?),
            ])
        }
        other => Err(format!("unknown app '{other}'")),
    }
}

/// Runs a parsed `tune` invocation, returning the rendered runlog.
pub fn run_tune(args: &TuneArgs) -> Result<String, String> {
    let app = build_app(&args.app, args.nodes);
    let tasks: Result<Vec<Vec<Value>>, String> = args
        .tasks
        .iter()
        .map(|s| parse_task(&args.app, s))
        .collect();
    let tasks = tasks?;
    for t in &tasks {
        if !app.task_space().is_valid(t) {
            return Err(format!("task {t:?} is outside the app's task space"));
        }
    }

    let mut opts = MlaOptions::default()
        .with_budget(args.budget)
        .with_seed(args.seed);
    opts.use_model_features = args.model;
    opts.fit_model_coefficients = args.model;
    if args.app == "analytical" {
        opts.log_objective = false;
    }

    if let Some(db) = &args.db {
        crate::db::Db::open(db).map_err(|e| format!("cannot open archive {db}: {e}"))?;
        opts = opts.with_db(db);
    }

    let multi_objective = args.multi_objective && app.n_objectives() > 1;
    let problem = if app.n_objectives() > 1 && !multi_objective {
        problem_from_app_objective(Arc::clone(&app), tasks, 0)
    } else {
        problem_from_app(Arc::clone(&app), tasks)
    };
    let mut log = if multi_objective {
        runlog::format_mla_mo(&problem, &mla_mo::tune_multiobjective(&problem, &opts))
    } else {
        runlog::format_mla(&problem, &mla::tune(&problem, &opts))
    };
    if let Some(db) = &args.db {
        let archived = runlog::format_archived_runs(&problem, std::path::Path::new(db))
            .map_err(|e| format!("cannot read archive {db}: {e}"))?;
        log.push_str(&archived);
    }
    Ok(log)
}

/// Usage text for the binary.
pub fn usage() -> String {
    format!(
        "GPTune-rs CLI — multitask autotuning of the simulated HPC suite\n\
         \n\
         USAGE:\n\
         \u{20}   gptune-cli apps\n\
         \u{20}   gptune-cli tune --app <name> --tasks <t1,t2,…> [options]\n\
         \n\
         OPTIONS:\n\
         \u{20}   --app <name>        one of: {}\n\
         \u{20}   --tasks <list>      app-specific: pdgeqrf MxN | pdsyevx M | hypre N1xN2xN3 |\n\
         \u{20}                       superlu_dist <matrix> | m3d_c1/nimrod <steps> | analytical <t>\n\
         \u{20}   --nodes <k>         Cori-like nodes for the machine model (default 1)\n\
         \u{20}   --budget <ε>        evaluations per task (default 10)\n\
         \u{20}   --seed <s>          RNG seed (default 0)\n\
         \u{20}   --model             use the app's coarse performance model (Sec. 3.3)\n\
         \u{20}   --multi-objective   Pareto tuning for multi-output apps (Algorithm 2)\n\
         \u{20}   --db <dir>          archive the run in a gptune-db directory (read by warm\n\
         \u{20}                       starts and TLA) and print the archive's run summaries\n",
        APP_NAMES.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_full_invocation() {
        let a = parse_tune_args(&strs(&[
            "--app",
            "pdgeqrf",
            "--nodes",
            "4",
            "--budget",
            "12",
            "--tasks",
            "8000x8000, 12000x6000",
            "--seed",
            "7",
            "--model",
            "--db",
            "archive",
        ]))
        .unwrap();
        assert_eq!(a.app, "pdgeqrf");
        assert_eq!(a.nodes, 4);
        assert_eq!(a.budget, 12);
        assert_eq!(a.tasks, vec!["8000x8000", "12000x6000"]);
        assert_eq!(a.seed, 7);
        assert!(a.model);
        assert!(!a.multi_objective);
        assert_eq!(a.db.as_deref(), Some("archive"));
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_tune_args(&strs(&["--tasks", "1"])).is_err()); // no app
        assert!(parse_tune_args(&strs(&["--app", "nope", "--tasks", "1"])).is_err());
        assert!(parse_tune_args(&strs(&["--app", "pdsyevx"])).is_err()); // no tasks
        assert!(parse_tune_args(&strs(&[
            "--app", "pdsyevx", "--tasks", "1", "--budget", "x"
        ]))
        .is_err());
        assert!(parse_tune_args(&strs(&["--app", "pdsyevx", "--tasks", "1", "--wat"])).is_err());
        assert!(parse_tune_args(&strs(&["--app", "pdsyevx", "--tasks", "1", "--budget"])).is_err());
    }

    #[test]
    fn parse_tasks_per_app() {
        assert_eq!(
            parse_task("pdgeqrf", "100x200").unwrap(),
            vec![Value::Int(100), Value::Int(200)]
        );
        assert_eq!(
            parse_task("pdsyevx", "4096").unwrap(),
            vec![Value::Int(4096)]
        );
        assert_eq!(
            parse_task("superlu_dist", "si2").unwrap(),
            vec![Value::Cat(0)]
        );
        assert_eq!(
            parse_task("hypre", "10x20x30").unwrap(),
            vec![Value::Int(10), Value::Int(20), Value::Int(30)]
        );
        assert_eq!(
            parse_task("analytical", "2.5").unwrap(),
            vec![Value::Real(2.5)]
        );
        assert!(parse_task("pdgeqrf", "100").is_err());
        assert!(parse_task("superlu_dist", "NoSuchMatrix").is_err());
        assert!(parse_task("hypre", "10x20").is_err());
    }

    #[test]
    fn run_tune_end_to_end_small() {
        let args = TuneArgs {
            app: "pdsyevx".into(),
            nodes: 1,
            budget: 6,
            tasks: vec!["3000".into(), "5000".into()],
            seed: 3,
            ..Default::default()
        };
        let log = run_tune(&args).unwrap();
        assert!(log.contains("Popt:"), "{log}");
        assert!(log.contains("tid: 1"), "{log}");
        assert!(log.contains("stats:"), "{log}");
    }

    #[test]
    fn run_tune_multiobjective_and_history() {
        let dir = std::env::temp_dir().join(format!("gptune_cli_db_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = TuneArgs {
            app: "superlu_dist".into(),
            nodes: 2,
            budget: 8,
            tasks: vec!["Si2".into()],
            seed: 1,
            multi_objective: true,
            db: Some(dir.to_string_lossy().into_owned()),
            ..Default::default()
        };
        let log = run_tune(&args).unwrap();
        assert!(log.contains("Pareto"), "{log}");
        // The run archived every evaluation with both objectives, and the
        // runlog ends with the archive's summary of it.
        let problem = crate::problem_from_app(
            build_app("superlu_dist", 2),
            vec![parse_task("superlu_dist", "Si2").unwrap()],
        );
        let h = crate::core::history_from_db(&dir, &problem).unwrap();
        assert!(h.len() >= 8, "{} archived", h.len());
        assert!(h.records.iter().all(|r| r.outputs.len() == 2));
        assert!(
            log.contains(&format!("archived evals: {}", h.len())),
            "{log}"
        );
        assert_eq!(log.matches("stats:").count(), 2, "{log}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_tune_rejects_out_of_range_task() {
        let args = TuneArgs {
            app: "pdsyevx".into(),
            tasks: vec!["999999999".into()],
            budget: 4,
            ..Default::default()
        };
        assert!(run_tune(&args).is_err());
    }

    #[test]
    fn usage_mentions_all_apps() {
        let u = usage();
        for name in APP_NAMES {
            assert!(u.contains(name), "usage missing {name}");
        }
    }
}
