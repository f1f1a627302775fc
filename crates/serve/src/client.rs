//! The serve client, with a write-ahead report cache.
//!
//! [`ServeClient`] wraps the frame protocol in typed calls and layers
//! durability on top: every report is appended to a local `gptune-db`
//! journal *before* it is sent, and on (re)connect the client replays the
//! whole journal at the server. The server absorbs duplicates silently
//! (see [`crate::server`]), so at-least-once replay composes into
//! exactly-once history — reports survive a server kill mid-burst without
//! the client tracking acknowledgements at all.
//!
//! Transport faults and the server's typed `draining` / `overloaded`
//! errors are retried under a [`BackoffPolicy`]: bounded exponential
//! delays with deterministic, seed-derived jitter (no clock or OS entropy
//! feeds the schedule), floored by any `retry_after_ms` hint the server
//! attached. Plain server errors (`ok:false` with no retryable code) are
//! never retried — they surface as `ErrorKind::Other` immediately.
//!
//! # Request ids
//!
//! Every call mints a request id — deterministically, from a seed and a
//! call counter, never a clock — and stamps it on the frame header (see
//! [`crate::protocol::with_rid`]). One logical call keeps one id across
//! every retry and resend, WAL entries journal the id of the report they
//! cache, and replay reuses the journaled id on the wire. Client-side
//! spans (`gptune.serve.client.rpc` / `retry` / `wal_append` /
//! `wal_replay`) carry the same id the server's spans record, which is
//! what lets `trace_tool correlate` stitch the two timelines into one
//! causal chain per request.

use crate::protocol::{
    error_code, error_of, is_ok, is_retryable_error, read_json, retry_after_of, write_json,
    Request, SessionOptions, CODE_DRAINING,
};
use crate::spec::ProblemSpec;
use gptune_core::db_bridge::{config_from_json, config_to_db, db_to_config};
use gptune_db::json::Json;
use gptune_db::{fnv1a, journal, DbEntry, DbRecord, LockOptions, Provenance};
use gptune_rng::splitmix64;
use gptune_space::{Config, Value};
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::time::Duration;

/// Client-side socket deadlines (GX303: every socket is bounded).
const CLIENT_IO_TIMEOUT: Option<Duration> = Some(Duration::from_secs(30));

/// Retry schedule for transport faults and retryable server errors:
/// exponential delays `base_ms << attempt`, capped at `cap_ms`, each
/// jittered *deterministically* into `[delay/2, delay]` by hashing
/// `(jitter_seed, attempt)` — never a clock — so two clients with
/// different seeds desynchronize their retry storms while any single
/// run replays exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Retries after the first attempt (`0` disables retrying).
    pub max_retries: u32,
    /// First delay, milliseconds.
    pub base_ms: u64,
    /// Delay ceiling, milliseconds.
    pub cap_ms: u64,
    /// Seed for the jitter hash.
    pub jitter_seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            max_retries: 6,
            base_ms: 10,
            cap_ms: 2000,
            jitter_seed: 0x62_6163_6b6f_6666,
        }
    }
}

impl BackoffPolicy {
    /// The jittered delay before retry number `attempt` (0-based).
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let raw = self
            .base_ms
            .max(1)
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.cap_ms.max(1));
        let h =
            splitmix64(self.jitter_seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let lo = raw / 2;
        lo + h % (raw - lo + 1)
    }
}

/// Default request-id seed; override with [`ServeClient::with_rid_seed`]
/// when several clients must keep their id streams disjoint.
const RID_SEED: u64 = 0x7269_6432_5f31_3670;

/// A connected client, optionally backed by a write-ahead journal.
pub struct ServeClient {
    addr: SocketAddr,
    stream: TcpStream,
    wal: Option<PathBuf>,
    backoff: BackoffPolicy,
    /// Set once `open_session` succeeds; reused by auto-reconnect.
    opened: Option<(String, ProblemSpec, SessionOptions, String)>,
    /// Tracer for client-side spans; `None` reads the process global.
    tracer: Option<gptune_trace::Tracer>,
    /// Request ids are `splitmix64(rid_seed, counter)` — deterministic: no
    /// clock, no entropy.
    rid_seed: u64,
    rid_counter: u64,
}

impl ServeClient {
    /// Connects without a write-ahead cache.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let stream = connect_first(addr)?;
        let addr = stream.peer_addr()?;
        Ok(ServeClient {
            addr,
            stream,
            wal: None,
            backoff: BackoffPolicy::default(),
            opened: None,
            tracer: None,
            rid_seed: RID_SEED,
            rid_counter: 0,
        })
    }

    /// Attaches a write-ahead journal. Reports append here before they go
    /// on the wire; `open_session` and reconnects replay the whole file.
    pub fn with_wal(mut self, path: impl Into<PathBuf>) -> ServeClient {
        self.wal = Some(path.into());
        self
    }

    /// Overrides the retry schedule (see [`BackoffPolicy`]).
    pub fn with_backoff(mut self, policy: BackoffPolicy) -> ServeClient {
        self.backoff = policy;
        self
    }

    /// Overrides the tracer used for client-side spans (default: the
    /// process-global tracer). In-process tests point the client at its
    /// own ring so the client and server timelines drain separately —
    /// exactly the two files `trace_tool correlate` merges.
    pub fn with_tracer(mut self, tracer: gptune_trace::Tracer) -> ServeClient {
        self.tracer = Some(tracer);
        self
    }

    /// Overrides the request-id seed. Ids are minted deterministically
    /// from `(seed, call counter)` — no clock or OS entropy — so a
    /// replayed run mints the identical id stream. Clients sharing a
    /// server should pick distinct seeds to keep their streams disjoint.
    pub fn with_rid_seed(mut self, seed: u64) -> ServeClient {
        self.rid_seed = seed;
        self
    }

    fn tracer(&self) -> gptune_trace::Tracer {
        self.tracer.clone().unwrap_or_else(gptune_trace::global)
    }

    /// Mints the next request id: one per logical call, reused across
    /// every retry of that call.
    fn next_rid(&mut self) -> String {
        self.rid_counter += 1;
        format!(
            "{:016x}",
            splitmix64(
                self.rid_seed
                    .wrapping_add(self.rid_counter.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            )
        )
    }

    /// The server address this client talks to.
    pub fn server_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Opens (or re-attaches to) a session, then replays any write-ahead
    /// journal so the server's history catches up with local truth.
    /// Returns the session key.
    pub fn open_session(
        &mut self,
        tenant: &str,
        spec: &ProblemSpec,
        opts: &SessionOptions,
    ) -> io::Result<String> {
        let req = Request::OpenSession {
            tenant: tenant.into(),
            spec: spec.clone(),
            opts: opts.clone(),
        };
        let resp = self.rpc(&req)?;
        let key = resp
            .get("session")
            .and_then(|v| v.as_str())
            .ok_or_else(|| bad_server("open_session response lacks session key"))?
            .to_string();
        self.opened = Some((tenant.into(), spec.clone(), opts.clone(), key.clone()));
        self.replay_wal()?;
        Ok(key)
    }

    /// Asks the server for the next configuration to evaluate.
    pub fn suggest(&mut self, task: usize) -> io::Result<Config> {
        let key = self.session_key()?;
        let resp = self.rpc(&Request::Suggest { session: key, task })?;
        config_from_json(
            resp.get("config")
                .ok_or_else(|| bad_server("suggest response lacks config"))?,
        )
        .map_err(bad_server)
    }

    /// Reports an outcome. With a WAL attached the report is journaled
    /// first — under the same request id the wire send will carry, so a
    /// replay after a crash reuses the original id and the server-side
    /// trace still links back to this call.
    pub fn report(&mut self, task: usize, config: &[Value], outputs: &[f64]) -> io::Result<()> {
        let (_, spec, _, key) = self
            .opened
            .clone()
            .ok_or_else(|| bad_server("no open session"))?;
        let rid = self.next_rid();
        if let Some(wal) = self.wal.clone() {
            let entry = wal_entry(&spec, task, config, outputs, &rid)
                .ok_or_else(|| bad_server(format!("task {task} out of range")))?;
            let span = self
                .tracer()
                .span("gptune.serve.client.wal_append")
                .with("rid", rid.as_str());
            journal::append(&wal, &[entry], &LockOptions::default())?;
            drop(span);
        }
        self.rpc_with_rid(
            &Request::Report {
                session: key,
                task,
                config: config.to_vec(),
                outputs: outputs.to_vec(),
            },
            &rid,
        )?;
        Ok(())
    }

    /// Fetches the session's full history as `(task, config, outputs)`.
    pub fn history(&mut self) -> io::Result<Vec<(usize, Config, Vec<f64>)>> {
        let key = self.session_key()?;
        let resp = self.rpc(&Request::History { session: key })?;
        let rows = resp
            .get("history")
            .and_then(|v| v.as_arr())
            .ok_or_else(|| bad_server("history response lacks rows"))?;
        rows.iter()
            .map(|row| {
                let task = row
                    .get("task")
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| bad_server("history row lacks task"))?
                    as usize;
                let config = config_from_json(
                    row.get("config")
                        .ok_or_else(|| bad_server("history row lacks config"))?,
                )
                .map_err(bad_server)?;
                let outputs = row
                    .get("outputs")
                    .and_then(|v| v.as_arr())
                    .ok_or_else(|| bad_server("history row lacks outputs"))?
                    .iter()
                    .map(|y| y.as_f64().ok_or_else(|| bad_server("bad output")))
                    .collect::<io::Result<Vec<f64>>>()?;
                Ok((task, config, outputs))
            })
            .collect()
    }

    /// Closes the session server-side. The WAL file is left in place as
    /// the local archive of everything this client measured.
    pub fn close(&mut self) -> io::Result<()> {
        let key = self.session_key()?;
        self.rpc_once(&Request::Close { session: key })?;
        self.opened = None;
        Ok(())
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        self.rpc_once(&Request::Ping).map(|_| ())
    }

    /// Readiness/health report (raw server JSON: `ready`, `sessions`,
    /// `uptime_secs`, windowed request rate and per-op p99, …).
    pub fn health(&mut self) -> io::Result<Json> {
        self.rpc_once(&Request::Health)
    }

    /// Scrapes the server's metrics registry: one `metrics` exchange,
    /// decoded from the text exposition back into a structured snapshot
    /// (lifetime counters/gauges/histograms plus the windowed view).
    pub fn metrics(&mut self) -> io::Result<gptune_trace::MetricsSnapshot> {
        let resp = self.rpc_once(&Request::Metrics)?;
        let text = resp
            .get("exposition")
            .and_then(|v| v.as_str())
            .ok_or_else(|| bad_server("metrics response lacks exposition"))?;
        gptune_trace::expo::parse(text).map_err(bad_server)
    }

    /// Tears down the socket and rebuilds the session: reconnect, re-open
    /// (the server re-attaches), replay the WAL. Called automatically when
    /// a request hits a transport error.
    pub fn reconnect(&mut self) -> io::Result<()> {
        self.stream = TcpStream::connect(self.addr)?;
        self.stream.set_nodelay(true).ok();
        let _ = self.stream.set_read_timeout(CLIENT_IO_TIMEOUT);
        let _ = self.stream.set_write_timeout(CLIENT_IO_TIMEOUT);
        if let Some((tenant, spec, opts, _)) = self.opened.clone() {
            let req = Request::OpenSession { tenant, spec, opts };
            self.rpc_once(&req)?;
            self.replay_wal()?;
        }
        Ok(())
    }

    fn session_key(&self) -> io::Result<String> {
        self.opened
            .as_ref()
            .map(|(_, _, _, k)| k.clone())
            .ok_or_else(|| bad_server("no open session"))
    }

    /// One request/response exchange under the retry policy. Transport
    /// errors and typed `draining` / `overloaded` responses trigger
    /// backoff (floored by any server `retry_after_ms` hint), reconnect —
    /// with session re-open and WAL replay — and a resend, up to
    /// [`BackoffPolicy::max_retries`] times. Plain server failures
    /// (`ok:false` with no retryable code) are never retried.
    fn rpc(&mut self, req: &Request) -> io::Result<Json> {
        let rid = self.next_rid();
        self.rpc_with_rid(req, &rid)
    }

    fn rpc_with_rid(&mut self, req: &Request, rid: &str) -> io::Result<Json> {
        let tracer = self.tracer();
        let mut span = tracer
            .span("gptune.serve.client.rpc")
            .with("op", req.op())
            .with("rid", rid);
        let mut attempt: u32 = 0;
        let mut last_reason: Option<String> = None;
        let result = loop {
            // Reconnect only when the connection is actually gone: after
            // a transport fault or a `draining` reply (the server hangs
            // up behind those). An `overloaded` reply leaves the
            // connection healthy — retrying on it avoids tearing the
            // session down just to rebuild it.
            let (err, retry_hint_ms, conn_dead) = match self.exchange(req, rid) {
                Ok(resp) if is_ok(&resp) => break Ok(resp),
                Ok(resp) if is_retryable_error(&resp) => {
                    let drained = error_code(&resp).as_deref() == Some(CODE_DRAINING);
                    last_reason = Some(error_of(&resp));
                    (bad_server(error_of(&resp)), retry_after_of(&resp), drained)
                }
                Ok(resp) => break Err(bad_server(error_of(&resp))),
                Err(e) => (e, None, true),
            };
            if attempt >= self.backoff.max_retries {
                // When retries die on a transport fault mid-storm, the
                // typed reason we saw earlier is the informative one.
                break Err(match last_reason {
                    Some(reason) => bad_server(reason),
                    None => err,
                });
            }
            let delay = self
                .backoff
                .delay_ms(attempt)
                .max(retry_hint_ms.unwrap_or(0));
            std::thread::sleep(Duration::from_millis(delay));
            attempt += 1;
            // The retry resends under the *same* rid: at the server it is
            // the same logical request, and the correlated timeline shows
            // one intent with several wire attempts.
            tracer
                .instant("gptune.serve.client.retry")
                .with("rid", rid)
                .with("attempt", attempt)
                .emit();
            if conn_dead {
                // A failed reconnect is not fatal mid-loop: the next
                // exchange fails fast on the dead stream and we back off
                // again.
                let _ = self.reconnect();
            }
        };
        span.add("attempts", attempt + 1);
        span.add("ok", result.is_ok());
        drop(span);
        result
    }

    fn rpc_once(&mut self, req: &Request) -> io::Result<Json> {
        let rid = self.next_rid();
        self.rpc_once_with_rid(req, &rid)
    }

    fn rpc_once_with_rid(&mut self, req: &Request, rid: &str) -> io::Result<Json> {
        let mut span = self
            .tracer()
            .span("gptune.serve.client.rpc")
            .with("op", req.op())
            .with("rid", rid)
            .with("attempts", 1u64);
        let resp = self.exchange(req, rid)?;
        let ok = is_ok(&resp);
        span.add("ok", ok);
        drop(span);
        if ok {
            Ok(resp)
        } else {
            Err(bad_server(error_of(&resp)))
        }
    }

    /// The raw wire exchange: errors here are transport faults only; the
    /// response JSON may still carry `ok:false`.
    fn exchange(&mut self, req: &Request, rid: &str) -> io::Result<Json> {
        let frame = crate::protocol::with_rid(req.to_json(), rid);
        write_json(&mut self.stream, &frame)?;
        read_json(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the stream"))
    }

    /// Pushes every journaled report at the server. Duplicates of reports
    /// that already landed come back flagged `duplicate` and are counted
    /// but otherwise ignored. Returns `(replayed, duplicates)`.
    pub fn replay_wal(&mut self) -> io::Result<(usize, usize)> {
        let Some(wal) = self.wal.clone() else {
            return Ok((0, 0));
        };
        if !wal.exists() {
            return Ok((0, 0));
        }
        let (_, spec, _, key) = self
            .opened
            .clone()
            .ok_or_else(|| bad_server("no open session"))?;
        let (entries, _report) = journal::load(&wal)?;
        let mut span = self.tracer().span("gptune.serve.client.wal_replay");
        let mut replayed = 0;
        let mut duplicates = 0;
        for entry in entries {
            let DbEntry::Eval(rec) = entry else { continue };
            if rec.problem != spec.name {
                continue;
            }
            let task_cfg: Config = db_to_config(&rec.task);
            let Some(task) = spec.tasks.iter().position(|t| *t == task_cfg) else {
                continue;
            };
            let config: Config = db_to_config(&rec.config);
            let req = Request::Report {
                session: key.clone(),
                task,
                config,
                outputs: rec.outputs.clone(),
            };
            // Replay under the journaled rid when the entry carries one:
            // on the wire (and in the server's spans) the replay *is* the
            // original report, so correlation survives crashes.
            let resp = match rec.prov.run.strip_prefix("serve-wal:") {
                Some(rid) if !rid.is_empty() => {
                    let rid = rid.to_string();
                    self.rpc_once_with_rid(&req, &rid)?
                }
                _ => self.rpc_once(&req)?,
            };
            replayed += 1;
            if resp.get("duplicate").and_then(|v| v.as_bool()) == Some(true) {
                duplicates += 1;
            }
        }
        span.add("replayed", replayed as u64);
        span.add("duplicates", duplicates as u64);
        drop(span);
        Ok((replayed, duplicates))
    }
}

/// Builds the WAL journal entry for one report. The request id rides in
/// the provenance `run` field (`serve-wal:<rid>`) so replay can reuse it.
fn wal_entry(
    spec: &ProblemSpec,
    task: usize,
    config: &[Value],
    outputs: &[f64],
    rid: &str,
) -> Option<DbEntry> {
    let task_cfg = spec.tasks.get(task)?;
    Some(DbEntry::Eval(DbRecord {
        problem: spec.name.clone(),
        sig: fnv1a(spec.to_json().to_string().as_bytes()),
        task: config_to_db(task_cfg),
        config: config_to_db(config),
        outputs: outputs.to_vec(),
        prov: Provenance {
            seed: 0,
            run: format!("serve-wal:{rid}"),
            machine: None,
        },
    }))
}

/// Server-reported failures surface as `ErrorKind::Other` so the retry
/// layer can tell them apart from transport faults.
fn bad_server(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

/// Connects with a few quick retries, smoothing over the race between a
/// freshly spawned server and its first client.
fn connect_first(addr: impl ToSocketAddrs) -> io::Result<TcpStream> {
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    let mut last = io::Error::new(io::ErrorKind::AddrNotAvailable, "no address");
    for attempt in 0..20 {
        for a in &addrs {
            match TcpStream::connect(a) {
                Ok(s) => {
                    s.set_nodelay(true).ok();
                    let _ = s.set_read_timeout(CLIENT_IO_TIMEOUT);
                    let _ = s.set_write_timeout(CLIENT_IO_TIMEOUT);
                    return Ok(s);
                }
                Err(e) => last = e,
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(5 * (attempt + 1)));
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServeOptions};
    use gptune_space::Param;
    use std::path::Path;

    fn spec() -> ProblemSpec {
        ProblemSpec {
            name: "toy".into(),
            task_params: vec![Param::real("t", 0.0, 1.0)],
            tuning_params: vec![Param::real("x", 0.0, 1.0)],
            tasks: vec![vec![Value::Real(0.25)], vec![Value::Real(0.75)]],
            n_objectives: 1,
        }
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("gptune-serve-client-{tag}-{pid}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn wal_path(root: &Path) -> PathBuf {
        root.join("wal.jsonl")
    }

    #[test]
    fn suggest_report_history_through_the_client() {
        let server = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        let key = client
            .open_session(
                "acme",
                &spec(),
                &SessionOptions {
                    seed: 3,
                    n_initial: Some(2),
                },
            )
            .unwrap();
        assert_eq!(key, "acme/toy");
        for i in 0..4usize {
            let task = i % 2;
            let cfg = client.suggest(task).unwrap();
            client.report(task, &cfg, &[1.0 + i as f64]).unwrap();
        }
        let h = client.history().unwrap();
        assert_eq!(h.len(), 4);
        client.close().unwrap();
        assert!(client.suggest(0).is_err(), "closed session rejects calls");
        server.shutdown();
    }

    #[test]
    fn wal_replays_after_server_restart() {
        let root = tmp_root("restart");
        let wal = wal_path(&root);
        let server = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
        let addr = server.local_addr();
        let mut client = ServeClient::connect(addr).unwrap().with_wal(&wal);
        client
            .open_session("t", &spec(), &SessionOptions::default())
            .unwrap();
        let cfg = client.suggest(0).unwrap();
        client.report(0, &cfg, &[2.5]).unwrap();
        client.report(1, &[Value::Real(0.5)], &[7.0]).unwrap();
        assert_eq!(client.history().unwrap().len(), 2);

        // Kill the server: its in-memory sessions evaporate. The
        // replacement binds a fresh port (the old one may sit in
        // TIME_WAIT) — the WAL doesn't care where the server lives.
        server.shutdown();
        let server = serve("127.0.0.1:0", ServeOptions::default()).unwrap();

        // A fresh client with the same WAL restores the history.
        let mut client2 = ServeClient::connect(server.local_addr())
            .unwrap()
            .with_wal(&wal);
        client2
            .open_session("t", &spec(), &SessionOptions::default())
            .unwrap();
        let h = client2.history().unwrap();
        assert_eq!(h.len(), 2, "WAL replay must restore both reports");
        let mut outs: Vec<f64> = h.iter().map(|(_, _, o)| o[0]).collect();
        outs.sort_by(f64::total_cmp);
        assert_eq!(outs, vec![2.5, 7.0]);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn replay_is_idempotent_against_surviving_sessions() {
        let root = tmp_root("idem");
        let wal = wal_path(&root);
        let server = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
        let mut client = ServeClient::connect(server.local_addr())
            .unwrap()
            .with_wal(&wal);
        client
            .open_session("t", &spec(), &SessionOptions::default())
            .unwrap();
        client.report(0, &[Value::Real(0.1)], &[1.0]).unwrap();
        client.report(0, &[Value::Real(0.2)], &[2.0]).unwrap();
        // Replay against the *live* session: both reports already landed.
        let (replayed, duplicates) = client.replay_wal().unwrap();
        assert_eq!(replayed, 2);
        assert_eq!(duplicates, 2);
        assert_eq!(client.history().unwrap().len(), 2, "no double-count");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn reconnect_rebuilds_a_usable_session() {
        let root = tmp_root("reconnect");
        let wal = wal_path(&root);
        let server = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
        let mut client = ServeClient::connect(server.local_addr())
            .unwrap()
            .with_wal(&wal);
        client
            .open_session("t", &spec(), &SessionOptions::default())
            .unwrap();
        client.report(0, &[Value::Real(0.3)], &[4.0]).unwrap();
        client.reconnect().unwrap();
        assert_eq!(client.history().unwrap().len(), 1);
        // Still fully operational after the rebuild.
        let cfg = client.suggest(1).unwrap();
        client.report(1, &cfg, &[5.0]).unwrap();
        assert_eq!(client.history().unwrap().len(), 2);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn request_ids_are_deterministic_and_journal_with_reports() {
        use gptune_trace::{Field, Tracer};
        let root = tmp_root("rids");
        let server = serve("127.0.0.1:0", ServeOptions::default()).unwrap();

        // Two clients with the same rid seed and the same call sequence
        // mint identical id streams (no clock, no entropy).
        let rid_stream = |tag: u64| -> Vec<String> {
            let tracer = Tracer::ring(256);
            let mut c = ServeClient::connect(server.local_addr())
                .unwrap()
                .with_tracer(tracer.clone())
                .with_rid_seed(0xfeed); // same seed both runs
            c.open_session("t", &spec(), &SessionOptions::default())
                .unwrap();
            c.report(0, &[Value::Real(0.1 + tag as f64 * 0.2)], &[1.0])
                .unwrap();
            let mut rids: Vec<(u64, String)> = tracer
                .drain()
                .events
                .iter()
                .filter(|e| e.name.as_ref() == "gptune.serve.client.rpc")
                .filter_map(|e| match e.field("rid") {
                    Some(Field::Str(r)) => Some((e.ts_ns, r.clone())),
                    _ => None,
                })
                .collect();
            rids.sort();
            rids.into_iter().map(|(_, r)| r).collect()
        };
        let a = rid_stream(0);
        let b = rid_stream(1);
        assert_eq!(a.len(), 2, "open + report: {a:?}");
        assert_eq!(a, b, "rid stream must be deterministic in (seed, counter)");
        assert_ne!(a[0], a[1], "each call gets a fresh rid");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn wal_replay_reuses_the_journaled_request_ids() {
        use gptune_trace::{Field, Tracer};
        let root = tmp_root("walrid");
        let wal = wal_path(&root);
        let server = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
        let mut c = ServeClient::connect(server.local_addr())
            .unwrap()
            .with_wal(&wal);
        c.open_session("t", &spec(), &SessionOptions::default())
            .unwrap();
        c.report(0, &[Value::Real(0.3)], &[1.0]).unwrap();
        c.report(1, &[Value::Real(0.6)], &[2.0]).unwrap();
        // The journal carries one distinct rid per report.
        let (entries, _) = journal::load(&wal).unwrap();
        let rids: Vec<String> = entries
            .iter()
            .filter_map(|e| match e {
                DbEntry::Eval(r) => r.prov.run.strip_prefix("serve-wal:").map(str::to_string),
                _ => None,
            })
            .collect();
        assert_eq!(rids.len(), 2, "every WAL entry journals its rid");
        assert_ne!(rids[0], rids[1]);

        // A fresh client (fresh rid stream) replaying the WAL puts the
        // *journaled* ids back on the wire, visible in its rpc spans.
        let tracer = Tracer::ring(512);
        let mut c2 = ServeClient::connect(server.local_addr())
            .unwrap()
            .with_wal(&wal)
            .with_tracer(tracer.clone())
            .with_rid_seed(999);
        c2.open_session("t", &spec(), &SessionOptions::default())
            .unwrap();
        let data = tracer.drain();
        for rid in &rids {
            let reused = data.events.iter().any(|e| {
                e.name.as_ref() == "gptune.serve.client.rpc"
                    && e.field("rid") == Some(&Field::Str(rid.clone()))
            });
            assert!(reused, "replay must reuse journaled rid {rid}");
        }
        assert!(data
            .events
            .iter()
            .any(|e| e.name.as_ref() == "gptune.serve.client.wal_replay"
                && e.field("replayed") == Some(&Field::U64(2))));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn server_errors_are_not_retried_as_transport_faults() {
        let server = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        client
            .open_session("t", &spec(), &SessionOptions::default())
            .unwrap();
        let err = client.report(99, &[Value::Real(0.5)], &[1.0]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        server.shutdown();
    }

    #[test]
    fn backoff_delays_are_deterministic_jittered_and_capped() {
        let policy = BackoffPolicy {
            max_retries: 8,
            base_ms: 10,
            cap_ms: 100,
            jitter_seed: 7,
        };
        for attempt in 0..8u32 {
            let raw = 10u64.saturating_mul(1 << attempt).min(100);
            let d = policy.delay_ms(attempt);
            assert!(d >= raw / 2 && d <= raw, "attempt {attempt}: {d} vs {raw}");
            assert_eq!(d, policy.delay_ms(attempt), "schedule must replay");
        }
        // A different seed moves at least one delay.
        let other = BackoffPolicy {
            jitter_seed: 8,
            ..policy
        };
        assert!((0..8).any(|a| policy.delay_ms(a) != other.delay_ms(a)));
        // Cap holds however deep the retry count runs.
        assert!(policy.delay_ms(63) <= 100);
    }

    #[test]
    fn draining_responses_are_retried_then_surfaced() {
        let server = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
        let mut client = ServeClient::connect(server.local_addr())
            .unwrap()
            .with_backoff(BackoffPolicy {
                max_retries: 2,
                base_ms: 1,
                cap_ms: 2,
                jitter_seed: 1,
            });
        client
            .open_session("t", &spec(), &SessionOptions::default())
            .unwrap();
        // Put the server into draining without stopping it: suggest now
        // returns the typed error every time.
        write_json(&mut client.stream, &Request::Drain.to_json()).unwrap();
        assert!(is_ok(&read_json(&mut client.stream).unwrap().unwrap()));
        let err = client.suggest(0).unwrap_err();
        assert!(
            err.to_string().contains("draining"),
            "after retries the typed error surfaces: {err}"
        );
        // Ping stays usable through the drain (reconnect path works).
        client.reconnect().ok();
        server.shutdown();
    }
}
