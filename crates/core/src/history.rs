//! In-memory tuning history: the `(task, config, outputs)` triples of one
//! problem that transfer learning reads (paper goal 3: reuse tuning data
//! across executions).
//!
//! The durable archive is `gptune-db`: a run with [`MlaOptions::with_db`]
//! archives its evaluations when it finishes, and
//! [`crate::db_bridge::history_from_db`] loads them back into a
//! [`History`] for [`crate::tla::transfer_tune`].
//!
//! [`MlaOptions::with_db`]: crate::MlaOptions::with_db

use gptune_space::{Config, Value};

/// One archived evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Task parameters.
    pub task: Config,
    /// Tuning configuration.
    pub config: Config,
    /// Objective outputs (`γ` values).
    pub outputs: Vec<f64>,
}

/// The tuning history of one problem.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    /// Problem name the records belong to.
    pub problem: String,
    /// Archived evaluations.
    pub records: Vec<Record>,
}

impl History {
    /// Empty history for a problem.
    pub fn new(problem: impl Into<String>) -> History {
        History {
            problem: problem.into(),
            records: Vec::new(),
        }
    }

    /// Appends one evaluation.
    pub fn push(&mut self, task: Config, config: Config, outputs: Vec<f64>) {
        self.records.push(Record {
            task,
            config,
            outputs,
        });
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records whose task equals `task` exactly.
    pub fn for_task(&self, task: &[Value]) -> Vec<&Record> {
        self.records
            .iter()
            .filter(|r| r.task.as_slice() == task)
            .collect()
    }

    /// Best (minimum) first-output record for a task, if any is finite.
    pub fn best_for_task(&self, task: &[Value]) -> Option<&Record> {
        self.for_task(task)
            .into_iter()
            .filter(|r| r.outputs.first().is_some_and(|v| v.is_finite()))
            .min_by(|a, b| a.outputs[0].total_cmp(&b.outputs[0]))
    }

    /// Builds a history from an MLA result.
    pub fn from_mla(problem_name: &str, result: &crate::mla::MlaResult) -> History {
        let mut h = History::new(problem_name);
        for tr in &result.per_task {
            for (cfg, y) in &tr.samples {
                h.push(tr.task.clone(), cfg.clone(), vec![*y]);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_history() -> History {
        let mut h = History::new("pdgeqrf");
        h.push(
            vec![Value::Int(1000), Value::Int(1000)],
            vec![Value::Int(32), Value::Int(32)],
            vec![1.5],
        );
        h.push(
            vec![Value::Int(1000), Value::Int(1000)],
            vec![Value::Int(64), Value::Int(64)],
            vec![1.2],
        );
        h.push(
            vec![Value::Int(2000), Value::Int(2000)],
            vec![Value::Int(64), Value::Int(64)],
            vec![4.0],
        );
        h
    }

    #[test]
    fn push_and_query() {
        let h = sample_history();
        assert_eq!(h.len(), 3);
        let t1 = vec![Value::Int(1000), Value::Int(1000)];
        assert_eq!(h.for_task(&t1).len(), 2);
        let best = h.best_for_task(&t1).unwrap();
        assert_eq!(best.outputs[0], 1.2);
    }

    #[test]
    fn best_skips_non_finite() {
        let mut h = History::new("x");
        h.push(
            vec![Value::Int(1)],
            vec![Value::Int(1)],
            vec![f64::INFINITY],
        );
        h.push(vec![Value::Int(1)], vec![Value::Int(2)], vec![3.0]);
        assert_eq!(h.best_for_task(&[Value::Int(1)]).unwrap().outputs[0], 3.0);
        let mut h2 = History::new("y");
        h2.push(vec![Value::Int(1)], vec![Value::Int(1)], vec![f64::NAN]);
        assert!(h2.best_for_task(&[Value::Int(1)]).is_none());
    }
}
