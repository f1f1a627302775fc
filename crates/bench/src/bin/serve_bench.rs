//! Load generator for the gptune-serve suggest/report service.
//!
//! Drives ≥ 1000 concurrent tuning sessions against one in-process server
//! and records the result in `BENCH_serve.json`:
//!
//! * request latencies (p50/p99 per op) read from the `gptune-trace`
//!   histograms the server populates (`gptune.serve.latency_us.<op>`),
//!   not from client-side stopwatches;
//! * sustained throughput over the whole burst;
//! * a kill-the-server-mid-burst section: a write-ahead-journaled client
//!   keeps reporting while the server dies, a replacement comes up, and
//!   the replayed history must contain every journaled report
//!   (`lost_reports` must print 0);
//! * an archive drill: the server journals every acknowledged report into
//!   a session archive, dies mid-burst, and the replacement recovers the
//!   session from the archive alone — no client WAL, no replay — with a
//!   bit-identical sorted history versus an uninterrupted run. The drill
//!   runs under its own tracer, so its server-side `report` latency
//!   (p50/p99) times journal-before-ack reports only;
//! * an eviction drill: ≥ 1024 logical sessions share a resident table
//!   capped far below the fleet size; the cap must hold throughout and
//!   every evicted session must come back from the archive intact;
//! * a restore drill: a server holding 64 archived sessions, each driven
//!   past its first model-guided refit, drains; a replacement re-opens
//!   every session, and each `open_session` (history replay plus the
//!   surrogate rebuilt from its saved image) is timed (p50/p99). The
//!   `gptune.gp.fit` spans opened meanwhile count hyperparameter
//!   optimizations a restore re-ran (`fits_during_open`), which must be 0.
//!
//! The robustness counters sum both tracers; they include the surrogate
//! refits by kind (`refit_full`, `refit_incremental`) and the NLL-drift
//! trips that forced a full refit (`nll_drift_events`).
//!
//! Usage: `serve_bench [output.json] [--smoke]` — `--smoke` shrinks the
//! fleet for the tier-1 gate while exercising every phase.

use gptune::db::lock::lock_path_for;
use gptune::serve::{
    serve, BackoffPolicy, ProblemSpec, ServeClient, ServeOptions, SessionOptions, SessionStore,
};
use gptune::space::{Param, Value};
use gptune::trace::{self, MetricsSnapshot, Tracer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

fn spec_for(problem_idx: usize) -> ProblemSpec {
    ProblemSpec {
        name: format!("svc-{problem_idx}"),
        task_params: vec![Param::real("t", 0.0, 1.0)],
        tuning_params: vec![Param::real("x", 0.0, 1.0), Param::real("y", 0.0, 1.0)],
        tasks: vec![vec![Value::Real(0.25)], vec![Value::Real(0.75)]],
        n_objectives: 1,
    }
}

struct BurstStats {
    sessions: usize,
    peak_sessions: usize,
    requests: u64,
    errors: u64,
    wall_s: f64,
}

/// Opens `sessions` sessions across `threads` client connections, holds a
/// barrier while *all* of them are live, then runs a suggest/report loop
/// on each. Returns the burst statistics; latency lives in the tracer.
fn run_burst(
    sessions: usize,
    threads: usize,
    reports_per_session: usize,
    server_addr: std::net::SocketAddr,
    peak_probe: impl Fn() -> usize + Send + Sync,
) -> BurstStats {
    let all_open = Arc::new(Barrier::new(threads + 1));
    let failures = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let peak = std::thread::scope(|scope| {
        for worker in 0..threads {
            let all_open = Arc::clone(&all_open);
            let failures = Arc::clone(&failures);
            scope.spawn(move || {
                let mut client = match ServeClient::connect(server_addr) {
                    Ok(c) => c,
                    Err(_) => {
                        failures.fetch_add(1, Ordering::Relaxed);
                        all_open.wait();
                        return;
                    }
                };
                // Each thread owns a disjoint slice of the session ids;
                // one tenant per session keeps the server's table honest
                // about multi-tenancy.
                let mine: Vec<usize> = (0..sessions).filter(|s| s % threads == worker).collect();
                let mut keys = Vec::with_capacity(mine.len());
                for &s in &mine {
                    let tenant = format!("tenant-{s}");
                    let opts = SessionOptions {
                        seed: s as u64,
                        n_initial: Some(2),
                    };
                    match client.open_session(&tenant, &spec_for(s), &opts) {
                        Ok(key) => keys.push(key),
                        Err(_) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                // Every session in the fleet is open here.
                all_open.wait();
                for (i, _key) in keys.iter().enumerate() {
                    let s = mine[i];
                    let tenant = format!("tenant-{s}");
                    let opts = SessionOptions {
                        seed: s as u64,
                        n_initial: Some(2),
                    };
                    // Re-open is a cheap re-attach; it scopes the client
                    // to this session for the suggest/report loop.
                    if client.open_session(&tenant, &spec_for(s), &opts).is_err() {
                        failures.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    for r in 0..reports_per_session {
                        let task = r % 2;
                        match client.suggest(task) {
                            Ok(cfg) => {
                                let y = 1.0 + (s * 31 + r) as f64 / 97.0;
                                if client.report(task, &cfg, &[y]).is_err() {
                                    failures.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Err(_) => {
                                failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
        // Main thread samples the session table while everything is open.
        all_open.wait();
        peak_probe()
    });
    let wall_s = start.elapsed().as_secs_f64();

    let m = trace::global().metrics();
    BurstStats {
        sessions,
        peak_sessions: peak,
        requests: m.counter("gptune.serve.requests").unwrap_or(0),
        errors: m.counter("gptune.serve.errors").unwrap_or(0)
            + failures.load(Ordering::Relaxed) as u64,
        wall_s,
    }
}

struct KillStats {
    journaled: usize,
    accepted_before_kill: usize,
    replayed: usize,
    recovered: usize,
    lost: i64,
}

/// The durability drill: journal-backed client reports in a tight burst,
/// the server is killed partway through, a replacement comes up, and the
/// WAL replay must restore every journaled report.
fn run_kill_drill(reports: usize, tmp: &std::path::Path) -> KillStats {
    let wal = tmp.join("serve_bench_wal.jsonl");
    let _ = std::fs::remove_file(&wal);
    let spec = spec_for(0);
    let opts = SessionOptions::default();

    let server = serve("127.0.0.1:0", ServeOptions::default()).expect("bind");
    // Half the burst lands on a dead server by design: a tight backoff
    // keeps the expected failures from dominating the drill's wall time.
    let impatient = BackoffPolicy {
        max_retries: 1,
        base_ms: 1,
        cap_ms: 2,
        ..BackoffPolicy::default()
    };
    let mut client = ServeClient::connect(server.local_addr())
        .expect("connect")
        .with_wal(&wal)
        .with_backoff(impatient);
    client.open_session("dur", &spec, &opts).expect("open");

    // Burst of journaled reports; the server dies halfway.
    let mut accepted = 0usize;
    let mut journaled = 0usize;
    let mut server = Some(server);
    for r in 0..reports {
        if r == reports / 2 {
            server.take().unwrap().shutdown();
        }
        let cfg = vec![
            Value::Real((r as f64 + 0.5) / reports as f64),
            Value::Real(0.5),
        ];
        // The WAL append inside report() lands even when the send fails.
        journaled += 1;
        if client.report(r % 2, &cfg, &[r as f64]).is_ok() {
            accepted += 1;
        }
    }

    // Replacement server, fresh client, same journal.
    let server = serve("127.0.0.1:0", ServeOptions::default()).expect("rebind");
    let mut client2 = ServeClient::connect(server.local_addr())
        .expect("reconnect")
        .with_wal(&wal);
    client2.open_session("dur", &spec, &opts).expect("reopen");
    let (replayed, _dups) = client2.replay_wal().expect("replay");
    let recovered = client2.history().expect("history").len();
    server.shutdown();
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(lock_path_for(&wal));

    KillStats {
        journaled,
        accepted_before_kill: accepted,
        replayed,
        recovered,
        lost: journaled as i64 - recovered as i64,
    }
}

/// Client-chosen deterministic config for report `i`: faulted and clean
/// runs report the exact same rows, so histories compare bit for bit.
fn config_at(i: usize) -> Vec<Value> {
    vec![
        Value::Real(((i * 37 + 11) % 101) as f64 / 101.0),
        Value::Real(((i * 53 + 29) % 97) as f64 / 97.0),
    ]
}

fn sort_key(row: &(usize, Vec<Value>, Vec<f64>)) -> String {
    format!("{}|{:?}|{:?}", row.0, row.1, row.2)
}

struct ArchiveStats {
    accepted_before_kill: usize,
    recovered_at_restart: usize,
    final_rows: usize,
    lost: i64,
    bit_identical: bool,
    /// The drill's own tracer: its `report` latency histogram holds only
    /// journal-before-ack reports.
    metrics: MetricsSnapshot,
}

/// The server-side durability drill: every acknowledged report is
/// journaled into the session archive before the ack, so a kill-restart
/// recovers the session from disk alone — the replacement client carries
/// no WAL and replays nothing. The drill's servers record into a tracer of
/// their own, installed for the drill's duration.
fn run_archive_drill(reports: usize, kill_at: usize, tmp: &std::path::Path) -> ArchiveStats {
    let tracer = Tracer::ring(1 << 12);
    let outer = trace::install(tracer.clone());
    let root = tmp.join(format!("serve_bench_archive_{}", std::process::id()));
    let clean_root = tmp.join(format!("serve_bench_archive_clean_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&clean_root);
    let spec = spec_for(0);
    let sess = SessionOptions::default();
    let opts = |archive: &std::path::Path| ServeOptions {
        workers: 2,
        archive: Some(archive.to_path_buf()),
        ..ServeOptions::default()
    };

    let server = serve("127.0.0.1:0", opts(&root)).expect("bind archive drill");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client.open_session("archive", &spec, &sess).expect("open");
    let mut accepted = 0usize;
    for r in 0..kill_at {
        if client.report(r % 2, &config_at(r), &[r as f64]).is_ok() {
            accepted += 1;
        }
    }
    // Kill — not drain. Only the per-report journal and the open-time
    // meta stamp exist on disk.
    server.shutdown();

    // Replacement on a fresh port, same archive, brand-new client.
    let server = serve("127.0.0.1:0", opts(&root)).expect("rebind archive drill");
    let mut client = ServeClient::connect(server.local_addr()).expect("reconnect");
    client
        .open_session("archive", &spec, &sess)
        .expect("reopen");
    let recovered = client.history().expect("history").len();
    for r in kill_at..reports {
        let _ = client.report(r % 2, &config_at(r), &[r as f64]);
    }
    let mut got: Vec<String> = client
        .history()
        .expect("final history")
        .iter()
        .map(sort_key)
        .collect();
    got.sort();
    server.shutdown();

    // Ground truth: the same burst against an uninterrupted server.
    let clean = serve("127.0.0.1:0", opts(&clean_root)).expect("bind clean");
    let mut c2 = ServeClient::connect(clean.local_addr()).expect("connect clean");
    c2.open_session("archive", &spec, &sess)
        .expect("open clean");
    for r in 0..reports {
        let _ = c2.report(r % 2, &config_at(r), &[r as f64]);
    }
    let mut expected: Vec<String> = c2
        .history()
        .expect("clean history")
        .iter()
        .map(sort_key)
        .collect();
    expected.sort();
    clean.shutdown();
    trace::install(outer);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&clean_root);

    ArchiveStats {
        accepted_before_kill: accepted,
        recovered_at_restart: recovered,
        final_rows: got.len(),
        lost: accepted as i64 - recovered as i64,
        bit_identical: got == expected,
        metrics: tracer.metrics(),
    }
}

struct EvictStats {
    logical: usize,
    cap: usize,
    peak_resident: usize,
    missing_rows: usize,
}

/// The memory-pressure drill: far more logical sessions than the resident
/// cap allows. The table must stay under the cap while sessions are
/// opened and reported into, and every evicted session must restore from
/// the archive with its history intact when revisited.
fn run_eviction_drill(logical: usize, cap: usize, tmp: &std::path::Path) -> EvictStats {
    let root = tmp.join(format!("serve_bench_evict_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = serve(
        "127.0.0.1:0",
        ServeOptions {
            workers: 4,
            archive: Some(root.clone()),
            max_resident_sessions: cap,
            ..ServeOptions::default()
        },
    )
    .expect("bind eviction drill");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let sess = SessionOptions::default();
    let mut peak = 0usize;
    let mut missing = 0usize;
    for i in 0..logical {
        if client.open_session("fleet", &spec_for(i), &sess).is_err() {
            missing += 1;
            continue;
        }
        if client.report(0, &config_at(i), &[i as f64]).is_err() {
            missing += 1;
        }
        peak = peak.max(server.n_sessions());
    }
    // Revisit every session: the evicted ones must restore transparently.
    for i in 0..logical {
        let ok = client
            .open_session("fleet", &spec_for(i), &sess)
            .and_then(|_| client.history())
            .map(|h| {
                h.len() == 1 && sort_key(&h[0]) == sort_key(&(0, config_at(i), vec![i as f64]))
            })
            .unwrap_or(false);
        if !ok {
            missing += 1;
        }
        peak = peak.max(server.n_sessions());
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    EvictStats {
        logical,
        cap,
        peak_resident: peak,
        missing_rows: missing,
    }
}

struct RestoreStats {
    sessions: usize,
    model_images: usize,
    open_p50_us: u64,
    open_p99_us: u64,
    fits_during_open: usize,
    events_dropped: u64,
}

/// Suggest/report rounds each restore-drill session runs before the drain:
/// the two tasks' initial designs (2 configurations each), then three
/// model-guided rounds, each of which refits the surrogate.
const RESTORE_ROUNDS: usize = 7;

/// The restart-latency drill. `sessions` archived sessions are driven past
/// their first model-guided refit and drained; a replacement server on the
/// same archive re-opens each one. Every `open_session` restores its
/// session (journal replay plus the surrogate rebuilt from the meta
/// file's image) and is timed at the client. The trace of the open phase
/// counts `gptune.gp.fit` spans: a restore that re-runs a hyperparameter
/// optimization shows up there.
fn run_restore_drill(sessions: usize, tmp: &std::path::Path) -> RestoreStats {
    let root = tmp.join(format!("serve_bench_restore_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let opts = || ServeOptions {
        workers: 2,
        archive: Some(root.clone()),
        ..ServeOptions::default()
    };
    let sess = |s: usize| SessionOptions {
        seed: s as u64,
        n_initial: Some(2),
    };
    let server = serve("127.0.0.1:0", opts()).expect("bind restore drill");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    for s in 0..sessions {
        client
            .open_session("restore", &spec_for(s), &sess(s))
            .expect("open restore-drill session");
        for r in 0..RESTORE_ROUNDS {
            let task = r % 2;
            let cfg = client.suggest(task).expect("suggest");
            let y: f64 = 1.0
                + 0.1 * task as f64
                + [0.3, 0.6]
                    .iter()
                    .zip(&cfg)
                    .map(|(c, v)| (v.as_real() - c).powi(2))
                    .sum::<f64>();
            client.report(task, &cfg, &[y]).expect("report");
        }
    }
    server.drain();
    let store = SessionStore::new(&root).expect("open drill archive");
    let model_images = (0..sessions)
        .filter(|&s| {
            store
                .load("restore", &spec_for(s).name)
                .ok()
                .flatten()
                .is_some_and(|st| st.model_state.is_some())
        })
        .count();

    let server = serve("127.0.0.1:0", opts()).expect("rebind restore drill");
    let mut client = ServeClient::connect(server.local_addr()).expect("reconnect");
    let tracer = trace::global();
    let dropped_before = tracer.drain().dropped;
    let mut open_us: Vec<u64> = (0..sessions)
        .map(|s| {
            let t = Instant::now();
            client
                .open_session("restore", &spec_for(s), &sess(s))
                .expect("re-open restore-drill session");
            t.elapsed().as_micros() as u64
        })
        .collect();
    let open_phase = tracer.drain();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    open_us.sort_unstable();
    // Nearest-rank percentile of the sorted open times.
    let pct = |q: f64| open_us[((q * sessions as f64).ceil() as usize).clamp(1, sessions) - 1];
    RestoreStats {
        sessions,
        model_images,
        open_p50_us: pct(0.5),
        open_p99_us: pct(0.99),
        fits_during_open: open_phase
            .events
            .iter()
            .filter(|e| e.name.as_ref() == "gptune.gp.fit")
            .count(),
        events_dropped: open_phase.dropped - dropped_before,
    }
}

fn quantiles(m: &MetricsSnapshot, op: &str) -> (u64, u64, u64) {
    match m.histogram(&format!("gptune.serve.latency_us.{op}")) {
        Some(h) => (h.count, h.p50(), h.p99()),
        None => (0, 0, 0),
    }
}

fn main() {
    let mut out_path = "BENCH_serve.json".to_string();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    // The acceptance bar is ≥ 1000 *concurrent* sessions (and ≥ 1024
    // *logical* sessions through the eviction drill); smoke mode keeps
    // the same shape at gate-friendly scale.
    let (sessions, threads, reports_per_session, kill_reports) = if smoke {
        (32, 8, 2, 10)
    } else {
        (1024, 32, 3, 200)
    };
    let (archive_reports, archive_kill_at, evict_logical, evict_cap) = if smoke {
        (12, 7, 64, 8)
    } else {
        (200, 101, 1024, 64)
    };
    let restore_sessions = if smoke { 8 } else { 64 };

    trace::install(Tracer::ring(1 << 12));

    let server = serve(
        "127.0.0.1:0",
        ServeOptions {
            workers: threads,
            max_sessions: sessions + 8,
            ..ServeOptions::default()
        },
    )
    .expect("bind serve_bench server");
    let addr = server.local_addr();

    eprintln!("serve_bench: {sessions} sessions over {threads} client threads at {addr}");
    let burst = run_burst(sessions, threads, reports_per_session, addr, || {
        server.n_sessions()
    });
    let burst_metrics = trace::global().metrics();
    let (sug_n, sug_p50, sug_p99) = quantiles(&burst_metrics, "suggest");
    let (rep_n, rep_p50, rep_p99) = quantiles(&burst_metrics, "report");
    let (open_n, open_p50, open_p99) = quantiles(&burst_metrics, "open_session");
    // Drain rather than kill: exercises the graceful path (flush + typed
    // `draining` errors) and the `gptune.serve.drains` counter.
    server.drain();

    let kill = run_kill_drill(kill_reports, &std::env::temp_dir());
    let archive = run_archive_drill(archive_reports, archive_kill_at, &std::env::temp_dir());
    let evict = run_eviction_drill(evict_logical, evict_cap, &std::env::temp_dir());
    let restore = run_restore_drill(restore_sessions, &std::env::temp_dir());

    let (arch_rep_n, arch_rep_p50, arch_rep_p99) = quantiles(&archive.metrics, "report");
    let snapshots = [trace::global().metrics(), archive.metrics];
    let counter =
        |name: &str| -> u64 { snapshots.iter().map(|m| m.counter(name).unwrap_or(0)).sum() };
    let rps = burst.requests as f64 / burst.wall_s.max(1e-9);
    let json = format!(
        "{{\n  \"config\": {{\"sessions\": {}, \"client_threads\": {}, \
         \"reports_per_session\": {}, \"smoke\": {}}},\n  \
         \"burst\": {{\"peak_concurrent_sessions\": {}, \"requests\": {}, \
         \"errors\": {}, \"wall_s\": {:.3}, \"requests_per_s\": {:.0}}},\n  \
         \"latency_us\": {{\n    \
         \"open_session\": {{\"count\": {}, \"p50\": {}, \"p99\": {}}},\n    \
         \"suggest\": {{\"count\": {}, \"p50\": {}, \"p99\": {}}},\n    \
         \"report\": {{\"count\": {}, \"p50\": {}, \"p99\": {}}}\n  }},\n  \
         \"kill_drill\": {{\"journaled\": {}, \"accepted_before_kill\": {}, \
         \"replayed\": {}, \"recovered\": {}, \"lost_reports\": {}}},\n  \
         \"archive_drill\": {{\"reports\": {}, \"accepted_before_kill\": {}, \
         \"recovered_at_restart\": {}, \"final_rows\": {}, \
         \"lost_reports\": {}, \"bit_identical\": {}, \
         \"report_us\": {{\"count\": {}, \"p50\": {}, \"p99\": {}}}}},\n  \
         \"eviction_drill\": {{\"logical_sessions\": {}, \"resident_cap\": {}, \
         \"peak_resident\": {}, \"missing_rows\": {}}},\n  \
         \"restore_drill\": {{\"sessions\": {}, \"model_images\": {}, \
         \"open_us\": {{\"p50\": {}, \"p99\": {}}}, \"fits_during_open\": {}}},\n  \
         \"robustness_counters\": {{\"evictions\": {}, \"restores\": {}, \
         \"sheds\": {}, \"timeouts\": {}, \"drains\": {}, \
         \"archive_errors\": {}, \"refit_full\": {}, \"refit_incremental\": {}, \
         \"nll_drift_events\": {}}}\n}}\n",
        burst.sessions,
        threads,
        reports_per_session,
        smoke,
        burst.peak_sessions,
        burst.requests,
        burst.errors,
        burst.wall_s,
        rps,
        open_n,
        open_p50,
        open_p99,
        sug_n,
        sug_p50,
        sug_p99,
        rep_n,
        rep_p50,
        rep_p99,
        kill.journaled,
        kill.accepted_before_kill,
        kill.replayed,
        kill.recovered,
        kill.lost,
        archive_reports,
        archive.accepted_before_kill,
        archive.recovered_at_restart,
        archive.final_rows,
        archive.lost,
        archive.bit_identical,
        arch_rep_n,
        arch_rep_p50,
        arch_rep_p99,
        evict.logical,
        evict.cap,
        evict.peak_resident,
        evict.missing_rows,
        restore.sessions,
        restore.model_images,
        restore.open_p50_us,
        restore.open_p99_us,
        restore.fits_during_open,
        counter("gptune.serve.evictions"),
        counter("gptune.serve.restores"),
        counter("gptune.serve.sheds"),
        counter("gptune.serve.timeouts"),
        counter("gptune.serve.drains"),
        counter("gptune.serve.archive_errors"),
        counter("gptune.gp.refit.full"),
        counter("gptune.gp.refit.incremental"),
        counter("gptune.gp.nll_drift_events"),
    );
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    print!("{json}");

    let mut failed = Vec::new();
    if burst.peak_sessions < sessions {
        failed.push(format!(
            "peak concurrent sessions {} < fleet size {sessions}",
            burst.peak_sessions
        ));
    }
    if burst.errors > 0 {
        failed.push(format!("{} request errors during the burst", burst.errors));
    }
    if sug_n == 0 || rep_n == 0 || open_n == 0 {
        failed.push("latency histograms missing samples".to_string());
    }
    if kill.lost != 0 {
        failed.push(format!("{} reports lost across the kill", kill.lost));
    }
    if archive.lost != 0 {
        failed.push(format!(
            "{} acknowledged reports lost across the archive kill-restart",
            archive.lost
        ));
    }
    if !archive.bit_identical {
        failed.push("post-recovery history differs from the uninterrupted run".to_string());
    }
    if archive.final_rows != archive_reports {
        failed.push(format!(
            "archive drill ended with {} rows, expected {archive_reports}",
            archive.final_rows
        ));
    }
    if evict.peak_resident > evict.cap {
        failed.push(format!(
            "resident session table peaked at {} over the cap of {}",
            evict.peak_resident, evict.cap
        ));
    }
    if evict.missing_rows > 0 {
        failed.push(format!(
            "{} of {} logical sessions lost data under eviction pressure",
            evict.missing_rows, evict.logical
        ));
    }
    if restore.model_images != restore.sessions {
        failed.push(format!(
            "restore drill: {} of {} drained sessions saved a surrogate image",
            restore.model_images, restore.sessions
        ));
    }
    if restore.events_dropped > 0 {
        failed.push(format!(
            "restore drill: the trace ring dropped {} events, so fits_during_open is not a count",
            restore.events_dropped
        ));
    }
    if restore.fits_during_open > 0 {
        failed.push(format!(
            "restore drill: {} hyperparameter fits ran while re-opening {} sessions",
            restore.fits_during_open, restore.sessions
        ));
    }
    if failed.is_empty() {
        eprintln!(
            "serve_bench: OK ({} concurrent sessions, {} logical under a cap of {}, 0 lost reports, \
             {} restores without a fit)",
            burst.peak_sessions, evict.logical, evict.cap, restore.sessions
        );
    } else {
        for f in &failed {
            eprintln!("serve_bench: FAIL: {f}");
        }
        std::process::exit(1);
    }
}
