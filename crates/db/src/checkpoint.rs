//! Checkpoint files: the full in-flight state of an MLA run.
//!
//! A checkpoint captures everything the tuner loop needs to continue
//! mid-budget: the evaluation archive so far (points + outputs), the
//! iteration counters, and the accumulated phase statistics. All later
//! randomness in the MLA loop is derived deterministically from
//! `(seed, iteration, task)` — no raw RNG state needs to be serialized —
//! so a resumed run replays the remaining iterations exactly as the
//! uninterrupted run would have executed them.
//!
//! Checkpoints are snapshots: written atomically (temp + rename), loaded
//! strictly (a checkpoint that fails to parse is reported, not silently
//! truncated — unlike journals, half a checkpoint is useless).

use crate::fsio;
use crate::json::{self, Json};
use crate::record::{values_from_json, values_to_json, DbValue, FailKind, RunStats};
use std::io;
use std::path::Path;

/// Which tuner loop wrote the checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// Single-objective MLA (Algorithm 1).
    Mla,
    /// Multi-objective MLA (Algorithm 2).
    MlaMo,
    /// Transfer tuning (TLA-2, `transfer_tune`).
    Tla,
}

impl CheckpointKind {
    /// Stable name of the kind, as stored in the checkpoint file.
    pub fn as_str(&self) -> &'static str {
        match self {
            CheckpointKind::Mla => "mla",
            CheckpointKind::MlaMo => "mla_mo",
            CheckpointKind::Tla => "tla",
        }
    }

    fn parse(s: &str) -> Option<CheckpointKind> {
        match s {
            "mla" => Some(CheckpointKind::Mla),
            "mla_mo" => Some(CheckpointKind::MlaMo),
            "tla" => Some(CheckpointKind::Tla),
            _ => None,
        }
    }
}

/// Serialized in-flight MLA state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Which loop wrote this.
    pub kind: CheckpointKind,
    /// Problem signature the state belongs to.
    pub sig: u64,
    /// Fingerprint of the run that wrote the state (its loop kind, seed,
    /// budget, task list and transfer target). It keys the file, so only
    /// that run adopts, overwrites or clears it.
    pub run: u64,
    /// Base RNG seed of the run.
    pub seed: u64,
    /// Total evaluation budget `ε_tot` of the run.
    pub eps_total: usize,
    /// Completed MLA iterations.
    pub iteration: usize,
    /// Per-task evaluations consumed so far (`ε`).
    pub eps: usize,
    /// Archived records preloaded before the run's own sampling (warm
    /// start / TLA); excluded from results on resume exactly as they were
    /// in the original run.
    pub n_preloaded: usize,
    /// `(task_idx, config)` of every evaluation, in order.
    pub points: Vec<(usize, Vec<DbValue>)>,
    /// Objective vectors aligned with `points`.
    pub outputs: Vec<Vec<f64>>,
    /// Classified failures among `points` (indices into `points`), so a
    /// resumed run carries its failure set forward and archives it on
    /// completion without re-evaluating known-failing configurations.
    pub fails: Vec<CkptFail>,
    /// Accumulated phase statistics at checkpoint time.
    pub stats: RunStats,
}

/// One classified failure recorded in a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CkptFail {
    /// Index into [`Checkpoint::points`].
    pub index: usize,
    /// Failure classification.
    pub kind: FailKind,
    /// Number of execution attempts.
    pub attempts: u64,
    /// Wall-clock seconds from first dispatch to final failure.
    pub elapsed_secs: f64,
}

impl Checkpoint {
    /// Serializes to pretty-stable single-line JSON.
    pub fn to_json_string(&self) -> String {
        let points = Json::Arr(
            self.points
                .iter()
                .map(|(t, cfg)| Json::Arr(vec![Json::Int(*t as i64), values_to_json(cfg)]))
                .collect(),
        );
        let outputs = Json::Arr(
            self.outputs
                .iter()
                .map(|o| Json::Arr(o.iter().map(|x| Json::from_f64(*x)).collect()))
                .collect(),
        );
        Json::Obj(vec![
            ("v".into(), Json::Int(crate::record::FORMAT_VERSION)),
            ("kind".into(), Json::Str(self.kind.as_str().into())),
            ("sig".into(), Json::Str(format!("{:016x}", self.sig))),
            ("run".into(), Json::Str(format!("{:016x}", self.run))),
            ("seed".into(), Json::from_u64(self.seed)),
            ("eps_total".into(), Json::Int(self.eps_total as i64)),
            ("iteration".into(), Json::Int(self.iteration as i64)),
            ("eps".into(), Json::Int(self.eps as i64)),
            ("n_preloaded".into(), Json::Int(self.n_preloaded as i64)),
            ("points".into(), points),
            ("outputs".into(), outputs),
            (
                "fails".into(),
                Json::Arr(
                    self.fails
                        .iter()
                        .map(|f| {
                            Json::Arr(vec![
                                Json::Int(f.index as i64),
                                Json::Str(f.kind.as_str().into()),
                                Json::from_u64(f.attempts),
                                Json::from_f64(f.elapsed_secs),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("stats".into(), stats_to_json(&self.stats)),
        ])
        .to_string()
    }

    /// Parses a checkpoint document.
    pub fn from_json_str(s: &str) -> Result<Checkpoint, String> {
        let j = json::parse(s).map_err(|e| e.to_string())?;
        let kind = j
            .get("kind")
            .and_then(Json::as_str)
            .and_then(CheckpointKind::parse)
            .ok_or("bad 'kind'")?;
        let hex_field = |k: &str| -> Result<u64, String> {
            j.get(k)
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| format!("bad '{k}'"))
        };
        let sig = hex_field("sig")?;
        let run = hex_field("run")?;
        let seed = j.get("seed").and_then(Json::as_u64).ok_or("bad 'seed'")?;
        let usize_field = |k: &str| -> Result<usize, String> {
            j.get(k)
                .and_then(Json::as_i64)
                .and_then(|x| usize::try_from(x).ok())
                .ok_or_else(|| format!("bad '{k}'"))
        };
        let eps_total = usize_field("eps_total")?;
        let iteration = usize_field("iteration")?;
        let eps = usize_field("eps")?;
        let n_preloaded = usize_field("n_preloaded")?;
        let points = j
            .get("points")
            .and_then(Json::as_arr)
            .ok_or("bad 'points'")?
            .iter()
            .map(|p| {
                let pair = p.as_arr()?;
                if pair.len() != 2 {
                    return None;
                }
                let t = usize::try_from(pair.first()?.as_i64()?).ok()?;
                Some((t, values_from_json(pair.get(1)?)?))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("bad 'points'")?;
        let outputs = j
            .get("outputs")
            .and_then(Json::as_arr)
            .ok_or("bad 'outputs'")?
            .iter()
            .map(|o| o.as_arr()?.iter().map(Json::as_f64).collect())
            .collect::<Option<Vec<Vec<f64>>>>()
            .ok_or("bad 'outputs'")?;
        if points.len() != outputs.len() {
            return Err("points/outputs length mismatch".into());
        }
        // Absent in checkpoints written before the fault-tolerant
        // runtime: default to no recorded failures.
        let fails = match j.get("fails") {
            None => Vec::new(),
            Some(arr) => arr
                .as_arr()
                .ok_or("bad 'fails'")?
                .iter()
                .map(|f| {
                    let parts = f.as_arr()?;
                    if parts.len() != 4 {
                        return None;
                    }
                    Some(CkptFail {
                        index: usize::try_from(parts.first()?.as_i64()?).ok()?,
                        kind: FailKind::parse(parts.get(1)?.as_str()?)?,
                        attempts: parts.get(2)?.as_u64()?,
                        elapsed_secs: parts.get(3)?.as_f64()?,
                    })
                })
                .collect::<Option<Vec<_>>>()
                .ok_or("bad 'fails'")?,
        };
        if fails.iter().any(|f| f.index >= points.len()) {
            return Err("fail index out of range".into());
        }
        let stats = j.get("stats").map(stats_from_json).unwrap_or_default();
        Ok(Checkpoint {
            kind,
            sig,
            run,
            seed,
            eps_total,
            iteration,
            eps,
            n_preloaded,
            points,
            outputs,
            fails,
            stats,
        })
    }

    /// Atomically writes the checkpoint to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut doc = self.to_json_string();
        doc.push('\n');
        fsio::atomic_write(path, doc.as_bytes())
    }

    /// Loads a checkpoint. `Ok(None)` when the file does not exist;
    /// `Err` when it exists but cannot be parsed (corrupt snapshot —
    /// surfaced to the caller, who decides whether to start fresh).
    pub fn load(path: &Path) -> io::Result<Option<Checkpoint>> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Checkpoint::from_json_str(&text)
            .map(Some)
            .map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))
    }

    /// Removes the checkpoint file (run completed). Missing is fine.
    pub fn remove(path: &Path) -> io::Result<()> {
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

fn stats_to_json(s: &RunStats) -> Json {
    s.to_json()
}

fn stats_from_json(j: &Json) -> RunStats {
    RunStats::from_json(j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gptune_db_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            kind: CheckpointKind::Mla,
            sig: 0x1234_5678_9abc_def0,
            run: 0x0fed_cba9_8765_4321,
            seed: 3,
            eps_total: 20,
            iteration: 4,
            eps: 14,
            n_preloaded: 2,
            points: vec![
                (0, vec![DbValue::Real(0.25), DbValue::Int(32)]),
                (1, vec![DbValue::Real(0.75), DbValue::Int(64)]),
                (0, vec![DbValue::Cat(1), DbValue::Int(16)]),
            ],
            outputs: vec![vec![1.5], vec![f64::INFINITY], vec![2.25]],
            fails: vec![CkptFail {
                index: 1,
                kind: FailKind::Crashed,
                attempts: 2,
                elapsed_secs: 0.5,
            }],
            stats: RunStats {
                objective_virtual_secs: 55.5,
                objective_wall_secs: 0.25,
                modeling_wall_secs: 1.5,
                search_wall_secs: 0.75,
                n_evals: 14,
                n_crashed: 1,
                ..RunStats::default()
            },
        }
    }

    #[test]
    fn roundtrip_in_memory() {
        let c = sample();
        let back = Checkpoint::from_json_str(&c.to_json_string()).unwrap();
        assert_eq!(back.kind, c.kind);
        assert_eq!(back.sig, c.sig);
        assert_eq!(back.run, c.run);
        assert_eq!(back.points, c.points);
        assert_eq!(back.outputs[0], c.outputs[0]);
        assert_eq!(back.outputs[1], c.outputs[1]);
        assert_eq!(back.stats, c.stats);
        assert_eq!(back, c);
    }

    #[test]
    fn roundtrip_on_disk_and_remove() {
        let d = tmpdir("disk");
        let p = d.join("ckpt.json");
        assert_eq!(Checkpoint::load(&p).unwrap(), None);
        let c = sample();
        c.save(&p).unwrap();
        assert_eq!(Checkpoint::load(&p).unwrap(), Some(c.clone()));
        // Overwrite is atomic and replaces fully.
        let mut c2 = c.clone();
        c2.iteration = 5;
        c2.save(&p).unwrap();
        assert_eq!(Checkpoint::load(&p).unwrap().unwrap().iteration, 5);
        Checkpoint::remove(&p).unwrap();
        assert_eq!(Checkpoint::load(&p).unwrap(), None);
        Checkpoint::remove(&p).unwrap(); // idempotent
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn corrupt_checkpoint_is_loud() {
        let d = tmpdir("corrupt");
        let p = d.join("ckpt.json");
        std::fs::write(&p, "{\"kind\":\"mla\",\"sig\":").unwrap();
        let e = Checkpoint::load(&p).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let mut c = sample();
        c.outputs.pop();
        assert!(Checkpoint::from_json_str(&c.to_json_string()).is_err());
    }

    #[test]
    fn fails_roundtrip_and_validate() {
        let c = sample();
        let back = Checkpoint::from_json_str(&c.to_json_string()).unwrap();
        assert_eq!(back.fails, c.fails);
        // A failure index past the archive is a corrupt snapshot.
        let mut bad = sample();
        bad.fails[0].index = bad.points.len();
        assert!(Checkpoint::from_json_str(&bad.to_json_string()).is_err());
    }

    #[test]
    fn checkpoint_without_fails_field_parses_empty() {
        // Snapshots written before the fault-tolerant runtime have no
        // "fails" key; they must load with an empty failure set.
        let mut c = sample();
        c.fails.clear();
        let doc = c.to_json_string().replace(",\"fails\":[]", "");
        assert!(!doc.contains("fails"));
        let back = Checkpoint::from_json_str(&doc).unwrap();
        assert_eq!(back.fails, Vec::new());
        assert_eq!(back.points, c.points);
    }

    #[test]
    fn mo_kind_roundtrips() {
        let mut c = sample();
        c.kind = CheckpointKind::MlaMo;
        let back = Checkpoint::from_json_str(&c.to_json_string()).unwrap();
        assert_eq!(back.kind, CheckpointKind::MlaMo);
    }
}
