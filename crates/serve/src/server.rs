//! The multi-tenant suggest/report server.
//!
//! A bounded pool of acceptor threads (mirroring `gptune-runtime`'s fixed
//! worker groups) shares one `TcpListener`; each thread accepts a
//! connection and serves it inline, so at most `workers` connections are
//! live at once and the rest queue in the kernel backlog. Every
//! tenant/problem pair maps to one [`TunerSession`] in a shared session
//! table; connections are stateless beyond the frames they carry, so a
//! client can disconnect and re-attach to its session at will.
//!
//! # Durability
//!
//! With [`ServeOptions::archive`] set, sessions are durable server-side:
//! every report is appended to the session's sharded `gptune-db` journal
//! *before* it is acknowledged, and the session meta (spec, options,
//! suggest/refit counters) is written at lifecycle points (open, evict,
//! drain). Idle sessions are evicted once the table exceeds
//! [`ServeOptions::max_resident_sessions`] and restored transparently on
//! the next request that names them — so the table stops being
//! memory-bound and a restarted server recovers every session without
//! client WAL replay.
//!
//! # Overload control
//!
//! Each connection gets read/write deadlines ([`ServeOptions::io_timeout`])
//! so a stalled peer cannot pin an acceptor forever. Each tenant gets an
//! in-flight request cap; beyond it the server sheds load with a typed
//! `overloaded` error carrying a `retry_after_ms` hint instead of queueing
//! unboundedly. A `health` request reports readiness and session-table
//! pressure; a `drain` request (or [`ServerHandle::drain`]) flushes every
//! session to the archive and answers further work with a typed
//! `draining` error that clients treat as reconnect-with-backoff.
//!
//! # Lock discipline (GX702)
//!
//! The session table mutex guards *only* table lookups: handlers lock the
//! table, clone the session's `Arc`, and drop the guard before doing any
//! work — never blocking I/O or a surrogate refit while the table is
//! locked. LRU bookkeeping reads per-slot atomics under the table lock;
//! eviction flushes the victim *after* it has left the table. Per-session
//! mutexes serialize work within one session while leaving other tenants
//! untouched.

use crate::protocol::{
    err_response, err_with_code, error_code, ok_response, read_json, write_json, Request,
    SessionOptions, CODE_DRAINING, CODE_OVERLOADED,
};
use crate::spec::ProblemSpec;
use crate::store::SessionStore;
use gptune_core::db_bridge::config_to_json;
use gptune_core::{MlaOptions, RefitSchedule, ReportError, SessionSnapshot, TunerSession};
use gptune_db::json::Json;
use std::collections::BTreeMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Acceptor-pool size — the concurrent-connection bound.
    pub workers: usize,
    /// Maximum live sessions across all tenants. Without an archive this
    /// is a hard cap (opens beyond it are shed); with one it only bounds
    /// the table between eviction sweeps.
    pub max_sessions: usize,
    /// Initial-design size per task when the client doesn't pick one.
    pub default_n_initial: usize,
    /// Archive directory for durable sessions. `None` (the default) keeps
    /// sessions memory-only, as before.
    pub archive: Option<PathBuf>,
    /// Resident-session target when an archive is configured: beyond this
    /// many in-memory sessions, the least-recently-used are flushed to the
    /// archive and dropped from the table.
    pub max_resident_sessions: usize,
    /// Per-connection read/write deadline. A peer that stays silent (or
    /// unwritable) this long has its connection closed. `None` disables
    /// deadlines (tests only — production sockets must be bounded).
    pub io_timeout: Option<Duration>,
    /// In-flight request cap per tenant; requests beyond it are shed with
    /// a typed `overloaded` error.
    pub max_inflight_per_tenant: usize,
    /// Retry hint attached to `overloaded` / `draining` errors.
    pub retry_after_ms: u64,
    /// Per-request latency budget for SLO accounting: requests handled
    /// slower than this increment the tenant's `over_budget` counter
    /// (surfaced by the `metrics` scrape). Purely observational — nothing
    /// is rejected for running over.
    pub latency_budget: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 8,
            max_sessions: 4096,
            default_n_initial: 4,
            archive: None,
            max_resident_sessions: 256,
            io_timeout: Some(Duration::from_secs(30)),
            max_inflight_per_tenant: 32,
            retry_after_ms: 100,
            latency_budget: Duration::from_millis(250),
        }
    }
}

/// Maps the client-visible [`SessionOptions`] onto serving-appropriate
/// tuner options: single-start LCM fits, a small acquisition search, and
/// an incremental refit schedule (hyperparameters re-optimized every 8th
/// refit or on NLL drift; rank-1 factor extension in between), so a
/// suggest call stays interactive even as histories grow.
pub fn serving_mla_options(opts: &SessionOptions, defaults: &ServeOptions) -> MlaOptions {
    let mut mla = MlaOptions::default().with_seed(opts.seed);
    mla.n_initial = Some(opts.n_initial.unwrap_or(defaults.default_n_initial).max(1));
    mla.lcm.n_starts = 1;
    mla.refit = RefitSchedule {
        full_every: 8,
        nll_drift: 0.25,
    };
    mla.pso.particles = 12;
    mla.pso.iters = 15;
    mla.eval_workers = 1;
    mla.model_workers = 1;
    mla.search_workers = 1;
    mla
}

/// Arms the per-connection read/write deadlines (GX303: every serve-side
/// socket is bounded).
fn arm_deadlines(stream: &TcpStream, opts: &ServeOptions) {
    let _ = stream.set_read_timeout(opts.io_timeout);
    let _ = stream.set_write_timeout(opts.io_timeout);
}

struct SessionEntry {
    tenant: String,
    spec: ProblemSpec,
    opts: SessionOptions,
    session: TunerSession,
    /// History rows already appended to the archive journal.
    persisted: usize,
}

/// One table slot. The LRU stamp lives outside the entry mutex so the
/// eviction scan can read it under the table lock alone (no per-session
/// lock is ever taken while the table is locked; DESIGN.md §6 lock order).
struct SessionSlot {
    touch: AtomicU64,
    entry: Mutex<SessionEntry>,
}

struct ServerState {
    sessions: Mutex<BTreeMap<String, Arc<SessionSlot>>>,
    conns: Mutex<Vec<TcpStream>>,
    inflight: Mutex<BTreeMap<String, usize>>,
    stop: AtomicBool,
    draining: AtomicBool,
    /// Monotonic LRU clock; each session access stamps its slot.
    clock: AtomicU64,
    store: Option<SessionStore>,
    opts: ServeOptions,
    /// Server start time, for uptime reporting in `health` / `metrics`.
    started: Instant,
}

impl ServerState {
    fn session_gauge(&self) {
        let n = self.sessions.lock().unwrap().len();
        gptune_trace::global()
            .gauge("gptune.serve.sessions")
            .set(n as f64);
    }

    fn resident_cap(&self) -> usize {
        if self.store.is_some() {
            self.opts
                .max_resident_sessions
                .max(1)
                .min(self.opts.max_sessions)
        } else {
            self.opts.max_sessions
        }
    }

    fn now(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// Decrements the tenant's in-flight count on drop.
struct InflightGuard<'a> {
    state: &'a ServerState,
    tenant: Option<String>,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        if let Some(tenant) = &self.tenant {
            let mut map = self.state.inflight.lock().unwrap();
            if let Some(n) = map.get_mut(tenant) {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    map.remove(tenant);
                }
            }
        }
    }
}

/// Admits (or sheds) one request for `tenant`.
fn admit<'a>(state: &'a ServerState, tenant: Option<&str>) -> Result<InflightGuard<'a>, Json> {
    let Some(tenant) = tenant else {
        return Ok(InflightGuard {
            state,
            tenant: None,
        });
    };
    let mut map = state.inflight.lock().unwrap();
    let n = map.entry(tenant.to_string()).or_insert(0);
    if *n >= state.opts.max_inflight_per_tenant.max(1) {
        drop(map);
        gptune_trace::global().counter("gptune.serve.sheds").add(1);
        return Err(err_with_code(
            CODE_OVERLOADED,
            format!("tenant {tenant:?} over its in-flight cap"),
            state.opts.retry_after_ms,
        ));
    }
    *n += 1;
    drop(map);
    Ok(InflightGuard {
        state,
        tenant: Some(tenant.to_string()),
    })
}

/// The tenant a request is accounted to (session keys are `tenant/name`).
fn tenant_of(req: &Request) -> Option<&str> {
    match req {
        Request::OpenSession { tenant, .. } => Some(tenant),
        Request::Suggest { session, .. }
        | Request::Report { session, .. }
        | Request::History { session }
        | Request::Close { session } => session.split('/').next(),
        Request::Ping | Request::Health | Request::Metrics | Request::Drain => None,
    }
}

/// Per-op latency histogram, resolved through a closed table of literal
/// names — GX602: metric names are static strings, never formatted, so
/// the scrape's name set is knowable from the source.
fn latency_histogram(tracer: &gptune_trace::Tracer, op: &str) -> gptune_trace::HistogramHandle {
    match op {
        "ping" => tracer.histogram("gptune.serve.latency_us.ping"),
        "open_session" => tracer.histogram("gptune.serve.latency_us.open_session"),
        "suggest" => tracer.histogram("gptune.serve.latency_us.suggest"),
        "report" => tracer.histogram("gptune.serve.latency_us.report"),
        "history" => tracer.histogram("gptune.serve.latency_us.history"),
        "close" => tracer.histogram("gptune.serve.latency_us.close"),
        "health" => tracer.histogram("gptune.serve.latency_us.health"),
        "metrics" => tracer.histogram("gptune.serve.latency_us.metrics"),
        "drain" => tracer.histogram("gptune.serve.latency_us.drain"),
        _ => tracer.histogram("gptune.serve.latency_us.parse_error"),
    }
}

/// A running server: its bound address plus the handles needed to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of resident (in-memory) sessions.
    pub fn n_sessions(&self) -> usize {
        self.state.sessions.lock().unwrap().len()
    }

    /// Stops accepting, severs live connections, and joins the pool
    /// *without* flushing — the kill path. With no archive, sessions die
    /// with the server and durability is the client's WAL; with one,
    /// per-report journaling means only unsaved suggest counters are at
    /// stake. Prefer [`ServerHandle::drain`] for orderly restarts.
    pub fn shutdown(self) {
        self.stop_and_join();
    }

    /// Graceful drain: flush every session to the archive, then stop
    /// accepting, sever connections, and join the pool. In-flight
    /// requests racing the drain get typed `draining` errors.
    pub fn drain(self) {
        begin_drain(&self.state);
        self.stop_and_join();
    }

    fn stop_and_join(self) {
        self.state.stop.store(true, Ordering::SeqCst);
        // Sever in-flight connections mid-frame. Take the registry out of
        // the lock first: shutdown() can block on a wedged peer, and no
        // guard may be held across it (GX702) — workers racing us just
        // see an already-emptied registry.
        let conns = std::mem::take(&mut *self.state.conns.lock().unwrap());
        for c in &conns {
            let _ = c.shutdown(Shutdown::Both);
        }
        // …and poke every acceptor blocked in accept(). The poke sockets
        // are deadline-armed like any other serve-side socket (GX303).
        for _ in 0..self.threads.len() {
            if let Ok(poke) = TcpStream::connect(self.addr) {
                let _ = poke.set_read_timeout(Some(Duration::from_secs(1)));
                let _ = poke.set_write_timeout(Some(Duration::from_secs(1)));
            }
        }
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Flushes one session's unsent rows and meta to the archive. Called with
/// the slot *out of* (or never in) the table lock.
fn flush_slot(store: &SessionStore, slot: &SessionSlot) -> io::Result<()> {
    let mut entry = slot.entry.lock().unwrap();
    flush_entry(store, &mut entry)
}

fn flush_entry(store: &SessionStore, entry: &mut SessionEntry) -> io::Result<()> {
    let rows: Vec<(usize, Vec<gptune_space::Value>, Vec<f64>)> = entry
        .session
        .history()
        .skip(entry.persisted)
        .map(|(t, c, o)| (t, c.clone(), o.to_vec()))
        .collect();
    store.append_reports(&entry.tenant, &entry.spec, &entry.opts, &rows)?;
    entry.persisted += rows.len();
    let snap = entry.session.snapshot();
    store.save_meta(
        &entry.tenant,
        &entry.spec,
        &entry.opts,
        snap.n_suggested,
        snap.n_refits,
        snap.model_state.as_ref(),
    )
}

/// Marks the server draining and flushes every resident session.
fn begin_drain(state: &ServerState) {
    if state.draining.swap(true, Ordering::SeqCst) {
        return; // already draining
    }
    gptune_trace::global().counter("gptune.serve.drains").add(1);
    let Some(store) = &state.store else { return };
    let slots: Vec<Arc<SessionSlot>> = state.sessions.lock().unwrap().values().cloned().collect();
    for slot in slots {
        if flush_slot(store, &slot).is_err() {
            gptune_trace::global()
                .counter("gptune.serve.archive_errors")
                .add(1);
        }
    }
}

/// Evicts least-recently-used sessions until the table fits the resident
/// cap. `protect` (the key just inserted or touched) is never evicted.
fn evict_to_cap(state: &ServerState, protect: &str) {
    let Some(store) = &state.store else { return };
    let cap = state.resident_cap();
    loop {
        // Pick a victim under the table lock, reading only atomics.
        let victim = {
            let mut table = state.sessions.lock().unwrap();
            if table.len() <= cap {
                return;
            }
            let key = table
                .iter()
                .filter(|(k, _)| k.as_str() != protect)
                .min_by_key(|(_, slot)| slot.touch.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            key.and_then(|k| table.remove(&k).map(|slot| (k, slot)))
        };
        let Some((_key, slot)) = victim else { return };
        // Flush outside the table lock (GX702).
        if flush_slot(store, &slot).is_err() {
            gptune_trace::global()
                .counter("gptune.serve.archive_errors")
                .add(1);
        }
        gptune_trace::global()
            .counter("gptune.serve.evictions")
            .add(1);
        state.session_gauge();
    }
}

/// Binds `addr` and starts the acceptor pool. `addr` may use port 0 to
/// let the OS choose; read the result back via
/// [`ServerHandle::local_addr`].
pub fn serve(addr: impl ToSocketAddrs, opts: ServeOptions) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let store = match &opts.archive {
        Some(root) => Some(SessionStore::new(root)?),
        None => None,
    };
    let state = Arc::new(ServerState {
        sessions: Mutex::new(BTreeMap::new()),
        conns: Mutex::new(Vec::new()),
        inflight: Mutex::new(BTreeMap::new()),
        stop: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        clock: AtomicU64::new(0),
        store,
        opts: opts.clone(),
        started: Instant::now(),
    });
    let mut threads = Vec::with_capacity(opts.workers.max(1));
    for worker in 0..opts.workers.max(1) {
        let listener = listener.try_clone()?;
        let state = Arc::clone(&state);
        threads.push(
            std::thread::Builder::new()
                .name(format!("gptune-serve-{worker}"))
                .spawn(move || acceptor_loop(&listener, &state))
                .expect("spawn acceptor"),
        );
    }
    Ok(ServerHandle {
        addr,
        state,
        threads,
    })
}

fn acceptor_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    loop {
        let mut stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if state.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        arm_deadlines(&stream, &state.opts);
        if state.stop.load(Ordering::SeqCst) {
            return;
        }
        if let Ok(clone) = stream.try_clone() {
            state.conns.lock().unwrap().push(clone);
        }
        let _ = handle_conn(&mut stream, state);
        // A clone of this stream sits in `conns` for shutdown-severing;
        // dropping our half would leave the socket open through it, so
        // close explicitly — shutdown(2) applies to the socket, not the fd.
        let _ = stream.shutdown(Shutdown::Both);
        if state.stop.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Serves one connection until clean EOF, a transport error, an expired
/// deadline, or a drain.
fn handle_conn(stream: &mut TcpStream, state: &Arc<ServerState>) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    loop {
        let frame = match read_json(stream) {
            Ok(Some(f)) => f,
            Ok(None) => return Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Deadline expired: the peer is too slow. Close.
                gptune_trace::global()
                    .counter("gptune.serve.timeouts")
                    .add(1);
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if state.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let response = handle_frame(&frame, state);
        write_json(stream, &response)?;
        // A draining response is the connection's last word: close so the
        // client falls into its reconnect-with-backoff path.
        if error_code(&response).as_deref() == Some(CODE_DRAINING) {
            return Ok(());
        }
    }
}

fn handle_frame(frame: &Json, state: &Arc<ServerState>) -> Json {
    let tracer = gptune_trace::global();
    // The request id rides the frame header, not the request body: the
    // client mints it, retries and WAL replays reuse it, and every span
    // the request touches (here and inside the session) carries it, so
    // `trace_tool correlate` can stitch client and server timelines.
    let rid = crate::protocol::rid_of(frame).map(str::to_string);
    let start = Instant::now();
    let (op, tenant, response) = match Request::from_json(frame) {
        Ok(req) => {
            let op = req.op();
            let tenant = tenant_of(&req).map(str::to_string);
            (op, tenant, gate(req, rid.as_deref(), state))
        }
        Err(e) => ("parse_error", None, err_response(e)),
    };
    let micros = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    latency_histogram(&tracer, op).record(micros);
    tracer.counter("gptune.serve.requests").add(1);
    if !crate::protocol::is_ok(&response) {
        tracer.counter("gptune.serve.errors").add(1);
    }
    if let Some(tenant) = &tenant {
        crate::tenant_metrics::record(
            &tracer,
            tenant,
            micros,
            state.opts.latency_budget,
            &response,
        );
    }
    let mut span = tracer.span("gptune.serve.request");
    span.add("op", op);
    span.add("us", micros as i64);
    if let Some(rid) = rid {
        span.add("rid", rid);
    }
    drop(span);
    response
}

/// Admission control in front of [`dispatch`]: drain rejection first,
/// then the per-tenant in-flight cap. Observability ops (`health`,
/// `metrics`) are never gated — a draining or overloaded server must
/// still be scrapeable.
fn gate(req: Request, rid: Option<&str>, state: &Arc<ServerState>) -> Json {
    if state.draining.load(Ordering::SeqCst)
        && !matches!(
            req,
            Request::Ping | Request::Health | Request::Metrics | Request::Drain
        )
    {
        return err_with_code(
            CODE_DRAINING,
            "server is draining; reconnect later",
            state.opts.retry_after_ms,
        );
    }
    let _guard = match admit(state, tenant_of(&req)) {
        Ok(g) => g,
        Err(shed) => return shed,
    };
    dispatch(req, rid, state)
}

/// Looks up a session by key: lock the table, clone the `Arc`, stamp the
/// LRU clock, drop the guard. All real work happens outside the table
/// lock. A key absent from the table is restored from the archive when
/// one is configured — this is how a restarted or post-eviction server
/// serves `suggest`/`report` without the client re-opening.
fn lookup(state: &ServerState, key: &str) -> Result<Arc<SessionSlot>, Json> {
    {
        let table = state.sessions.lock().unwrap();
        if let Some(slot) = table.get(key) {
            let slot = Arc::clone(slot);
            drop(table);
            slot.touch.store(state.now(), Ordering::Relaxed);
            return Ok(slot);
        }
    }
    let miss = || err_response(format!("no such session {key:?}"));
    let Some(store) = &state.store else {
        return Err(miss());
    };
    let Some((tenant, name)) = key.split_once('/') else {
        return Err(miss());
    };
    let stored = match store.load(tenant, name) {
        Ok(Some(s)) => s,
        Ok(None) => return Err(miss()),
        Err(e) => {
            gptune_trace::global()
                .counter("gptune.serve.archive_errors")
                .add(1);
            return Err(err_response(format!("archive load failed: {e}")));
        }
    };
    let entry = restore_entry(state, tenant.to_string(), stored)?;
    Ok(adopt(state, key, entry))
}

/// Rebuilds a [`SessionEntry`] from its archived form (compute-heavy; no
/// locks held).
fn restore_entry(
    state: &ServerState,
    tenant: String,
    stored: crate::store::StoredSession,
) -> Result<SessionEntry, Json> {
    let problem = stored.spec.to_problem().map_err(err_response)?;
    let snapshot = SessionSnapshot {
        n_suggested: stored.n_suggested,
        n_refits: stored.n_refits,
        history: stored.history,
        model_state: stored.model_state,
    };
    let session = TunerSession::restore(
        problem,
        serving_mla_options(&stored.opts, &state.opts),
        &snapshot,
    )
    .map_err(|e| err_response(format!("archive replay rejected: {e}")))?;
    gptune_trace::global()
        .counter("gptune.serve.restores")
        .add(1);
    Ok(SessionEntry {
        tenant,
        spec: stored.spec,
        opts: stored.opts,
        persisted: snapshot.history.len(),
        session,
    })
}

/// Inserts a freshly built entry, adopting a concurrent winner if one
/// raced us in, then evicts down to the resident cap.
fn adopt(state: &ServerState, key: &str, entry: SessionEntry) -> Arc<SessionSlot> {
    let slot = Arc::new(SessionSlot {
        touch: AtomicU64::new(state.now()),
        entry: Mutex::new(entry),
    });
    let adopted = {
        let mut table = state.sessions.lock().unwrap();
        match table.get(key) {
            Some(winner) => Arc::clone(winner),
            None => {
                table.insert(key.to_string(), Arc::clone(&slot));
                Arc::clone(&slot)
            }
        }
    };
    state.session_gauge();
    evict_to_cap(state, key);
    adopted
}

fn dispatch(req: Request, rid: Option<&str>, state: &Arc<ServerState>) -> Json {
    let tracer = gptune_trace::global();
    match req {
        Request::Ping => ok_response(vec![("pong".into(), Json::Bool(true))]),

        Request::Health => {
            let resident = state.sessions.lock().unwrap().len();
            let cap = state.resident_cap();
            let draining = state.draining.load(Ordering::SeqCst);
            let snap = tracer.metrics();
            // Windowed per-op p99s: walk the snapshot's histogram list by
            // prefix rather than formatting lookup names (GX602).
            let per_op: Vec<(String, Json)> = snap
                .windowed
                .histograms
                .iter()
                .filter_map(|(name, h)| {
                    name.strip_prefix("gptune.serve.latency_us.")
                        .map(|op| (op.to_string(), Json::from_u64(h.p99())))
                })
                .collect();
            ok_response(vec![
                ("ready".into(), Json::Bool(!draining)),
                ("draining".into(), Json::Bool(draining)),
                ("sessions".into(), Json::from_u64(resident as u64)),
                ("resident_cap".into(), Json::from_u64(cap as u64)),
                (
                    "pressure".into(),
                    Json::from_f64(resident as f64 / cap.max(1) as f64),
                ),
                ("archive".into(), Json::Bool(state.store.is_some())),
                (
                    "uptime_secs".into(),
                    Json::from_u64(state.started.elapsed().as_secs()),
                ),
                (
                    "requests_total".into(),
                    Json::from_u64(snap.counter("gptune.serve.requests").unwrap_or(0)),
                ),
                (
                    "request_rate".into(),
                    Json::from_f64(
                        snap.windowed
                            .rate_per_sec("gptune.serve.requests")
                            .unwrap_or(0.0),
                    ),
                ),
                ("windowed_p99_us".into(), Json::Obj(per_op)),
            ])
        }

        Request::Metrics => {
            // Just-in-time gauges so a scrape always carries the current
            // values even when no recent request has updated them.
            tracer
                .gauge("gptune.serve.sessions")
                .set(state.sessions.lock().unwrap().len() as f64);
            tracer
                .gauge("gptune.serve.uptime_secs")
                .set(state.started.elapsed().as_secs_f64());
            tracer
                .gauge("gptune.serve.draining")
                .set(f64::from(u8::from(state.draining.load(Ordering::SeqCst))));
            let text = gptune_trace::expo::encode(&tracer.metrics());
            ok_response(vec![("exposition".into(), Json::Str(text))])
        }

        Request::Drain => {
            begin_drain(state);
            ok_response(vec![("draining".into(), Json::Bool(true))])
        }

        Request::OpenSession { tenant, spec, opts } => {
            if tenant.is_empty() || tenant.contains('/') {
                return err_response("tenant must be non-empty and slash-free");
            }
            let key = format!("{tenant}/{}", spec.name);
            // Re-attach to an existing session first — replayed
            // open_session frames after a reconnect are idempotent.
            {
                let table = state.sessions.lock().unwrap();
                let existing = table.get(&key).cloned();
                drop(table);
                if let Some(slot) = existing {
                    slot.touch.store(state.now(), Ordering::Relaxed);
                    let guard = slot.entry.lock().unwrap();
                    if guard.tenant != tenant {
                        return err_response("session key collision across tenants");
                    }
                    if guard.spec != spec {
                        return err_response(format!(
                            "session {key:?} already open with a different spec"
                        ));
                    }
                    return open_ok(&key, guard.session.n_reports(), true);
                }
            }
            // Not resident. Restore from the archive if it knows the key —
            // a restarted server re-attaches exactly like a live one.
            if let Some(store) = &state.store {
                match store.load(&tenant, &spec.name) {
                    Ok(Some(stored)) => {
                        if stored.spec != spec {
                            return err_response(format!(
                                "session {key:?} archived with a different spec"
                            ));
                        }
                        let entry = match restore_entry(state, tenant.clone(), stored) {
                            Ok(e) => e,
                            Err(resp) => return resp,
                        };
                        let n_reports = entry.session.n_reports();
                        adopt(state, &key, entry);
                        return open_ok(&key, n_reports, true);
                    }
                    Ok(None) => {}
                    Err(e) => {
                        gptune_trace::global()
                            .counter("gptune.serve.archive_errors")
                            .add(1);
                        return err_response(format!("archive load failed: {e}"));
                    }
                }
            }
            // Genuinely new. Without an archive the table is a hard cap
            // (nothing can be evicted); shed with a typed error.
            if state.store.is_none()
                && state.sessions.lock().unwrap().len() >= state.opts.max_sessions
            {
                gptune_trace::global().counter("gptune.serve.sheds").add(1);
                return err_with_code(
                    CODE_OVERLOADED,
                    "session table full",
                    state.opts.retry_after_ms,
                );
            }
            // Build the session with no locks held (initial-design
            // sampling is compute, but still not table-lock work).
            let problem = match spec.to_problem() {
                Ok(p) => p,
                Err(e) => return err_response(e),
            };
            let session = TunerSession::new(problem, serving_mla_options(&opts, &state.opts));
            let entry = SessionEntry {
                tenant: tenant.clone(),
                spec: spec.clone(),
                opts: opts.clone(),
                session,
                persisted: 0,
            };
            let slot = adopt(state, &key, entry);
            // Stamp the meta now so a kill before the first drain/evict
            // still leaves a restorable session on disk.
            if let Some(store) = &state.store {
                if flush_slot(store, &slot).is_err() {
                    gptune_trace::global()
                        .counter("gptune.serve.archive_errors")
                        .add(1);
                }
            }
            let guard = slot.entry.lock().unwrap();
            let n_reports = guard.session.n_reports();
            let reattached = n_reports > 0; // adopted a racing winner
            open_ok(&key, n_reports, reattached)
        }

        Request::Suggest { session, task } => {
            let slot = match lookup(state, &session) {
                Ok(s) => s,
                Err(resp) => return resp,
            };
            let mut guard = slot.entry.lock().unwrap();
            guard.session.set_request_id(rid.map(str::to_string));
            match guard.session.suggest(task) {
                Some(config) => ok_response(vec![("config".into(), config_to_json(&config))]),
                None => err_response(format!("task {task} out of range")),
            }
        }

        Request::Report {
            session,
            task,
            config,
            outputs,
        } => {
            let slot = match lookup(state, &session) {
                Ok(s) => s,
                Err(resp) => return resp,
            };
            let mut guard = slot.entry.lock().unwrap();
            guard.session.set_request_id(rid.map(str::to_string));
            let duplicate = match guard.session.report(task, config, outputs) {
                Ok(()) => false,
                // Duplicates are a *success* for the protocol: replays
                // after a disconnect (client WAL or retry loop) must be
                // absorbed silently for at-least-once delivery to look
                // exactly-once.
                Err(ReportError::Duplicate) => true,
                Err(e) => return err_response(format!("report rejected: {e}")),
            };
            // Journal-before-acknowledge: the report is durable before the
            // client hears "ok", so an acknowledged report survives any
            // later crash. On append failure the client gets an error and
            // retries; the in-memory duplicate is then absorbed while the
            // journal catches up via the `persisted` cursor.
            if let Some(store) = &state.store {
                let rows: Vec<(usize, Vec<gptune_space::Value>, Vec<f64>)> = guard
                    .session
                    .history()
                    .skip(guard.persisted)
                    .map(|(t, c, o)| (t, c.clone(), o.to_vec()))
                    .collect();
                if !rows.is_empty() {
                    match store.append_reports(&guard.tenant, &guard.spec, &guard.opts, &rows) {
                        Ok(()) => guard.persisted += rows.len(),
                        Err(e) => {
                            gptune_trace::global()
                                .counter("gptune.serve.archive_errors")
                                .add(1);
                            return err_response(format!("archive append failed: {e}"));
                        }
                    }
                }
            }
            let mut fields = vec![(
                "n".to_string(),
                Json::from_u64(guard.session.n_reports() as u64),
            )];
            if duplicate {
                fields.push(("duplicate".into(), Json::Bool(true)));
            }
            ok_response(fields)
        }

        Request::History { session } => {
            let slot = match lookup(state, &session) {
                Ok(s) => s,
                Err(resp) => return resp,
            };
            let guard = slot.entry.lock().unwrap();
            let rows: Vec<Json> = guard
                .session
                .history()
                .map(|(t, c, o)| {
                    Json::Obj(vec![
                        ("task".into(), Json::from_u64(t as u64)),
                        ("config".into(), config_to_json(c)),
                        (
                            "outputs".into(),
                            Json::Arr(o.iter().map(|y| Json::from_f64(*y)).collect()),
                        ),
                    ])
                })
                .collect();
            ok_response(vec![
                ("n".into(), Json::from_u64(rows.len() as u64)),
                ("history".into(), Json::Arr(rows)),
            ])
        }

        Request::Close { session } => {
            let removed = {
                let mut table = state.sessions.lock().unwrap();
                table.remove(&session)
            };
            state.session_gauge();
            // Close drops *all* state, archive included: a later open of
            // the same key starts genuinely fresh.
            let mut purged = false;
            if let Some(store) = &state.store {
                if let Some((tenant, name)) = session.split_once('/') {
                    purged = matches!(store.load(tenant, name), Ok(Some(_)));
                    if purged && store.purge(tenant, name).is_err() {
                        gptune_trace::global()
                            .counter("gptune.serve.archive_errors")
                            .add(1);
                    }
                }
            }
            if removed.is_some() || purged {
                ok_response(vec![("closed".into(), Json::Bool(true))])
            } else {
                err_response(format!("no such session {session:?}"))
            }
        }
    }
}

fn open_ok(key: &str, n_reports: usize, reattached: bool) -> Json {
    ok_response(vec![
        ("session".into(), Json::Str(key.to_string())),
        ("n_reports".into(), Json::from_u64(n_reports as u64)),
        ("reattached".into(), Json::Bool(reattached)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{error_of, is_ok, is_retryable_error, retry_after_of};
    use gptune_space::{Param, Value};

    fn spec(name: &str) -> ProblemSpec {
        ProblemSpec {
            name: name.into(),
            task_params: vec![Param::real("t", 0.0, 1.0)],
            tuning_params: vec![Param::real("x", 0.0, 1.0)],
            tasks: vec![vec![Value::Real(0.25)], vec![Value::Real(0.75)]],
            n_objectives: 1,
        }
    }

    fn roundtrip(stream: &mut TcpStream, req: &Request) -> Json {
        write_json(stream, &req.to_json()).unwrap();
        read_json(stream).unwrap().expect("response")
    }

    fn start() -> ServerHandle {
        serve(
            "127.0.0.1:0",
            ServeOptions {
                workers: 2,
                ..ServeOptions::default()
            },
        )
        .unwrap()
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "gptune_serve_server_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn open(c: &mut TcpStream, tenant: &str, sp: ProblemSpec) -> Json {
        roundtrip(
            c,
            &Request::OpenSession {
                tenant: tenant.into(),
                spec: sp,
                opts: SessionOptions {
                    seed: 7,
                    n_initial: Some(2),
                },
            },
        )
    }

    #[test]
    fn ping_and_full_session_lifecycle() {
        let server = start();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();

        assert!(is_ok(&roundtrip(&mut c, &Request::Ping)));

        let open = open(&mut c, "acme", spec("toy"));
        assert!(is_ok(&open), "{open}");
        let key = open.get("session").unwrap().as_str().unwrap().to_string();
        assert_eq!(key, "acme/toy");
        assert_eq!(server.n_sessions(), 1);

        // Suggest → report → history for both tasks.
        for task in 0..2usize {
            let s = roundtrip(
                &mut c,
                &Request::Suggest {
                    session: key.clone(),
                    task,
                },
            );
            assert!(is_ok(&s), "{s}");
            let config =
                gptune_core::db_bridge::config_from_json(s.get("config").unwrap()).unwrap();
            let r = roundtrip(
                &mut c,
                &Request::Report {
                    session: key.clone(),
                    task,
                    config,
                    outputs: vec![1.0 + task as f64],
                },
            );
            assert!(is_ok(&r), "{r}");
        }
        let h = roundtrip(
            &mut c,
            &Request::History {
                session: key.clone(),
            },
        );
        assert!(is_ok(&h));
        assert_eq!(h.get("n").unwrap().as_u64(), Some(2));
        assert_eq!(h.get("history").unwrap().as_arr().unwrap().len(), 2);

        let cl = roundtrip(
            &mut c,
            &Request::Close {
                session: key.clone(),
            },
        );
        assert!(is_ok(&cl));
        assert_eq!(server.n_sessions(), 0);
        // Requests against a closed session fail cleanly.
        let s = roundtrip(
            &mut c,
            &Request::Suggest {
                session: key,
                task: 0,
            },
        );
        assert!(!is_ok(&s));
        assert!(error_of(&s).contains("no such session"));

        server.shutdown();
    }

    #[test]
    fn duplicate_reports_are_absorbed() {
        let server = start();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        let open = open(&mut c, "t", spec("p"));
        let key = open.get("session").unwrap().as_str().unwrap().to_string();
        let report = Request::Report {
            session: key.clone(),
            task: 0,
            config: vec![Value::Real(0.5)],
            outputs: vec![3.0],
        };
        let first = roundtrip(&mut c, &report);
        assert!(is_ok(&first));
        assert!(first.get("duplicate").is_none());
        let second = roundtrip(&mut c, &report);
        assert!(is_ok(&second), "replayed report must succeed: {second}");
        assert_eq!(second.get("duplicate").unwrap().as_bool(), Some(true));
        assert_eq!(
            second.get("n").unwrap().as_u64(),
            Some(1),
            "not double-counted"
        );
        // A genuinely bad report still fails.
        let bad = roundtrip(
            &mut c,
            &Request::Report {
                session: key,
                task: 99,
                config: vec![Value::Real(0.5)],
                outputs: vec![3.0],
            },
        );
        assert!(!is_ok(&bad));
        server.shutdown();
    }

    #[test]
    fn reopen_reattaches_and_mismatched_spec_is_rejected() {
        let server = start();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        let first = open(&mut c, "t", spec("p"));
        assert!(is_ok(&first));
        assert_eq!(first.get("reattached").unwrap().as_bool(), Some(false));
        let key = first.get("session").unwrap().as_str().unwrap().to_string();
        roundtrip(
            &mut c,
            &Request::Report {
                session: key,
                task: 0,
                config: vec![Value::Real(0.5)],
                outputs: vec![1.0],
            },
        );
        // Same spec from a new connection: re-attach, history intact.
        let mut c2 = TcpStream::connect(server.local_addr()).unwrap();
        let again = open(&mut c2, "t", spec("p"));
        assert!(is_ok(&again));
        assert_eq!(again.get("reattached").unwrap().as_bool(), Some(true));
        assert_eq!(again.get("n_reports").unwrap().as_u64(), Some(1));
        // Same name, different structure: reject.
        let mut other = spec("p");
        other.n_objectives = 2;
        let clash = open(&mut c2, "t", other);
        assert!(!is_ok(&clash));
        assert!(error_of(&clash).contains("different spec"));
        server.shutdown();
    }

    #[test]
    fn tenants_are_isolated() {
        let server = start();
        let mut a = TcpStream::connect(server.local_addr()).unwrap();
        let mut b = TcpStream::connect(server.local_addr()).unwrap();
        for (c, tenant) in [(&mut a, "alpha"), (&mut b, "beta")] {
            let o = open(c, tenant, spec("shared"));
            assert!(is_ok(&o));
        }
        assert_eq!(server.n_sessions(), 2);
        roundtrip(
            &mut a,
            &Request::Report {
                session: "alpha/shared".into(),
                task: 0,
                config: vec![Value::Real(0.1)],
                outputs: vec![1.0],
            },
        );
        let h = roundtrip(
            &mut b,
            &Request::History {
                session: "beta/shared".into(),
            },
        );
        assert_eq!(
            h.get("n").unwrap().as_u64(),
            Some(0),
            "no cross-tenant leak"
        );
        server.shutdown();
    }

    #[test]
    fn malformed_frames_get_error_responses() {
        let server = start();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        crate::protocol::write_frame(&mut c, b"{\"op\":\"warp\"}").unwrap();
        let resp = read_json(&mut c).unwrap().unwrap();
        assert!(!is_ok(&resp));
        // The connection survives a bad request.
        assert!(is_ok(&roundtrip(&mut c, &Request::Ping)));
        server.shutdown();
    }

    #[test]
    fn shutdown_severs_live_connections() {
        let server = start();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        assert!(is_ok(&roundtrip(&mut c, &Request::Ping)));
        server.shutdown();
        // The next exchange on the severed stream fails or hits EOF.
        let dead = write_json(&mut c, &Request::Ping.to_json())
            .and_then(|()| read_json(&mut c))
            .map(|r| r.is_none());
        assert!(matches!(dead, Ok(true) | Err(_)));
    }

    /// Regression test for the GX702 teardown fix: `stop_and_join` used to
    /// iterate the connection registry *inside* its lock while severing,
    /// so a `shutdown(2)` stalled on a wedged peer kept every worker from
    /// registering or deregistering forever. The fixed path takes the
    /// whole registry out of the lock first — a concurrent lock holder
    /// delays the take but can never deadlock against severing, and the
    /// registry is observably emptied.
    #[test]
    fn shutdown_takes_the_conn_registry_instead_of_severing_under_its_lock() {
        let server = start();
        let state = Arc::clone(&server.state);
        let mut c1 = TcpStream::connect(server.local_addr()).unwrap();
        let mut c2 = TcpStream::connect(server.local_addr()).unwrap();
        assert!(is_ok(&roundtrip(&mut c1, &Request::Ping)));
        assert!(is_ok(&roundtrip(&mut c2, &Request::Ping)));
        let blocker = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                let guard = state.conns.lock().unwrap();
                std::thread::sleep(Duration::from_millis(50));
                drop(guard);
            })
        };
        server.shutdown();
        blocker.join().unwrap();
        assert!(
            state.conns.lock().unwrap().is_empty(),
            "teardown must take the registry, not iterate it in place"
        );
    }

    #[test]
    fn metrics_scrape_and_extended_health_report_windowed_activity() {
        let _serial = crate::test_trace_lock();
        let prev = gptune_trace::install(gptune_trace::Tracer::ring(4096));
        let server = start();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        open(&mut c, "t", spec("p"));
        for _ in 0..5 {
            assert!(is_ok(&roundtrip(&mut c, &Request::Ping)));
        }
        let m = roundtrip(&mut c, &Request::Metrics);
        assert!(is_ok(&m), "{m}");
        let text = m.get("exposition").unwrap().as_str().unwrap().to_string();
        // The exposition is machine-parseable and carries both lifetime
        // and windowed views of the request counter, plus the JIT gauges.
        let snap = gptune_trace::expo::parse(&text).expect("exposition parses");
        assert!(snap.counter("gptune.serve.requests").unwrap() >= 6);
        assert!(snap.windowed.counter("gptune.serve.requests").unwrap() >= 6);
        assert!(snap.windowed.horizon_ns > 0);
        assert!(snap.gauge("gptune.serve.uptime_secs").is_some());
        assert_eq!(snap.gauge("gptune.serve.draining"), Some(0.0));
        assert!(snap.counter("gptune.serve.tenant.t.requests").unwrap() >= 1);
        // The extended health reply rides the same windowed data.
        let h = roundtrip(&mut c, &Request::Health);
        assert!(is_ok(&h), "{h}");
        assert!(h.get("uptime_secs").unwrap().as_u64().is_some());
        assert!(h.get("requests_total").unwrap().as_u64().unwrap() >= 7);
        assert!(h.get("request_rate").unwrap().as_f64().unwrap() > 0.0);
        let per_op = h.get("windowed_p99_us").unwrap();
        assert!(per_op.get("ping").unwrap().as_u64().is_some());
        server.shutdown();
        gptune_trace::install(prev);
    }

    #[test]
    fn metrics_and_health_answer_while_draining() {
        let _serial = crate::test_trace_lock();
        let prev = gptune_trace::install(gptune_trace::Tracer::ring(1024));
        let server = start();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        assert!(is_ok(&roundtrip(&mut c, &Request::Drain)));
        let mut c2 = TcpStream::connect(server.local_addr()).unwrap();
        let m = roundtrip(&mut c2, &Request::Metrics);
        assert!(is_ok(&m), "metrics must be scrapeable mid-drain: {m}");
        let text = m.get("exposition").unwrap().as_str().unwrap();
        let snap = gptune_trace::expo::parse(text).unwrap();
        assert_eq!(snap.gauge("gptune.serve.draining"), Some(1.0));
        server.shutdown();
        gptune_trace::install(prev);
    }

    #[test]
    fn request_ids_flow_into_server_and_session_spans() {
        use gptune_trace::Field;
        let _serial = crate::test_trace_lock();
        let prev = gptune_trace::install(gptune_trace::Tracer::ring(4096));
        let server = start();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        open(&mut c, "t", spec("p"));
        let framed = crate::protocol::with_rid(
            Request::Suggest {
                session: "t/p".into(),
                task: 0,
            }
            .to_json(),
            "rid-0042",
        );
        write_json(&mut c, &framed).unwrap();
        let resp = read_json(&mut c).unwrap().unwrap();
        assert!(is_ok(&resp), "{resp}");
        let data = gptune_trace::global().drain();
        let tagged: Vec<&str> = data
            .events
            .iter()
            .filter(|e| e.field("rid") == Some(&Field::Str("rid-0042".into())))
            .map(|e| e.name.as_ref())
            .collect();
        assert!(
            tagged.contains(&"gptune.serve.request"),
            "server request span must carry the rid: {tagged:?}"
        );
        assert!(
            tagged.contains(&"gptune.core.session.suggest"),
            "session-level span must carry the rid: {tagged:?}"
        );
        // A frame without a rid leaves spans untagged, not empty-tagged.
        assert!(is_ok(&roundtrip(&mut c, &Request::Ping)));
        let data = gptune_trace::global().drain();
        assert!(data
            .events
            .iter()
            .filter(|e| e.name.as_ref() == "gptune.serve.request")
            .all(|e| e.field("rid").is_none()));
        server.shutdown();
        gptune_trace::install(prev);
    }

    #[test]
    fn health_reports_readiness_and_pressure() {
        let server = start();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        let h = roundtrip(&mut c, &Request::Health);
        assert!(is_ok(&h), "{h}");
        assert_eq!(h.get("ready").unwrap().as_bool(), Some(true));
        assert_eq!(h.get("draining").unwrap().as_bool(), Some(false));
        assert_eq!(h.get("sessions").unwrap().as_u64(), Some(0));
        assert_eq!(h.get("archive").unwrap().as_bool(), Some(false));
        open(&mut c, "t", spec("p"));
        let h = roundtrip(&mut c, &Request::Health);
        assert_eq!(h.get("sessions").unwrap().as_u64(), Some(1));
        assert!(h.get("pressure").unwrap().as_f64().unwrap() > 0.0);
        server.shutdown();
    }

    #[test]
    fn drain_rejects_work_with_a_typed_error_and_closes_the_conn() {
        let server = start();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        open(&mut c, "t", spec("p"));
        let d = roundtrip(&mut c, &Request::Drain);
        assert!(is_ok(&d), "{d}");
        // Health still answers and reports the drain.
        let mut c2 = TcpStream::connect(server.local_addr()).unwrap();
        let h = roundtrip(&mut c2, &Request::Health);
        assert_eq!(h.get("ready").unwrap().as_bool(), Some(false));
        assert_eq!(h.get("draining").unwrap().as_bool(), Some(true));
        // Real work gets the typed draining error with a retry hint…
        let s = roundtrip(
            &mut c2,
            &Request::Suggest {
                session: "t/p".into(),
                task: 0,
            },
        );
        assert!(!is_ok(&s));
        assert!(is_retryable_error(&s), "{s}");
        assert_eq!(
            retry_after_of(&s),
            Some(ServeOptions::default().retry_after_ms)
        );
        // …and the server hangs up after sending it.
        let next = write_json(&mut c2, &Request::Ping.to_json())
            .and_then(|()| read_json(&mut c2))
            .map(|r| r.is_none());
        assert!(matches!(next, Ok(true) | Err(_)), "conn must be closed");
        server.shutdown();
    }

    #[test]
    fn table_full_without_archive_sheds_with_overloaded_code() {
        let server = serve(
            "127.0.0.1:0",
            ServeOptions {
                workers: 2,
                max_sessions: 1,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        assert!(is_ok(&open(&mut c, "t", spec("one"))));
        let second = open(&mut c, "t", spec("two"));
        assert!(!is_ok(&second));
        assert!(is_retryable_error(&second), "{second}");
        assert!(retry_after_of(&second).is_some());
        // Re-attach to the existing session still works at the cap.
        assert!(is_ok(&open(&mut c, "t", spec("one"))));
        server.shutdown();
    }

    #[test]
    fn zero_inflight_cap_sheds_every_tenant_request() {
        let server = serve(
            "127.0.0.1:0",
            ServeOptions {
                workers: 2,
                // max(1) clamps this to 1; a single inline request never
                // races itself, so force the shed by saturating the count.
                max_inflight_per_tenant: 1,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        // Saturate the tenant's count directly (the inline handler can't
        // overlap with itself on one connection).
        server
            .state
            .inflight
            .lock()
            .unwrap()
            .insert("t".to_string(), 1);
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        let shed = open(&mut c, "t", spec("p"));
        assert!(!is_ok(&shed));
        assert!(is_retryable_error(&shed), "{shed}");
        // Untracked ops (ping/health) are never shed.
        assert!(is_ok(&roundtrip(&mut c, &Request::Ping)));
        // Another tenant is unaffected.
        assert!(is_ok(&open(&mut c, "u", spec("p"))));
        server.shutdown();
    }

    #[test]
    fn slow_clients_hit_the_read_deadline_and_are_disconnected() {
        let server = serve(
            "127.0.0.1:0",
            ServeOptions {
                workers: 1,
                io_timeout: Some(Duration::from_millis(50)),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        // Send half a frame header, then stall past the deadline.
        use std::io::Write;
        c.write_all(&[0, 0]).unwrap();
        c.flush().unwrap();
        // The server must close; reading from our side ends in EOF or a
        // reset, not a hang (bound our side too).
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let gone = read_json(&mut c);
        assert!(matches!(gone, Ok(None) | Err(_)), "server kept waiting");
        // A prompt client on a fresh connection is still served.
        let mut c2 = TcpStream::connect(server.local_addr()).unwrap();
        assert!(is_ok(&roundtrip(&mut c2, &Request::Ping)));
        server.shutdown();
    }

    #[test]
    fn sessions_survive_a_drain_restart_cycle_without_wal() {
        let root = tmp_root("drainrestart");
        let opts = || ServeOptions {
            workers: 2,
            archive: Some(root.clone()),
            ..ServeOptions::default()
        };
        let server = serve("127.0.0.1:0", opts()).unwrap();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        let key = "t/p".to_string();
        open(&mut c, "t", spec("p"));
        // Two reports and a suggest so every counter is non-trivial.
        for (task, y) in [(0usize, 1.5), (1usize, 2.5)] {
            let s = roundtrip(
                &mut c,
                &Request::Suggest {
                    session: key.clone(),
                    task,
                },
            );
            let config =
                gptune_core::db_bridge::config_from_json(s.get("config").unwrap()).unwrap();
            assert!(is_ok(&roundtrip(
                &mut c,
                &Request::Report {
                    session: key.clone(),
                    task,
                    config,
                    outputs: vec![y],
                },
            )));
        }
        server.drain();

        // Replacement server, same archive: re-open re-attaches with the
        // full history and no WAL anywhere.
        let server = serve("127.0.0.1:0", opts()).unwrap();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        let again = open(&mut c, "t", spec("p"));
        assert!(is_ok(&again), "{again}");
        assert_eq!(again.get("reattached").unwrap().as_bool(), Some(true));
        assert_eq!(again.get("n_reports").unwrap().as_u64(), Some(2));
        // A *mismatched* spec is still rejected against the archive.
        let mut other = spec("p");
        other.n_objectives = 2;
        let clash = open(&mut c, "t", other);
        assert!(!is_ok(&clash));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn kill_restart_recovers_reports_via_suggest_without_reopen() {
        // Harsher than drain: shutdown() flushes nothing. Acknowledged
        // reports must still be there (journal-before-ack), and the
        // session must come back through a bare `suggest` on the key —
        // no open_session, no WAL.
        let root = tmp_root("killrestart");
        let opts = || ServeOptions {
            workers: 2,
            archive: Some(root.clone()),
            ..ServeOptions::default()
        };
        let server = serve("127.0.0.1:0", opts()).unwrap();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        open(&mut c, "t", spec("p"));
        assert!(is_ok(&roundtrip(
            &mut c,
            &Request::Report {
                session: "t/p".into(),
                task: 0,
                config: vec![Value::Real(0.5)],
                outputs: vec![9.0],
            },
        )));
        server.shutdown(); // kill: no flush

        let server = serve("127.0.0.1:0", opts()).unwrap();
        assert_eq!(server.n_sessions(), 0);
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        let h = roundtrip(
            &mut c,
            &Request::History {
                session: "t/p".into(),
            },
        );
        assert!(is_ok(&h), "{h}");
        assert_eq!(h.get("n").unwrap().as_u64(), Some(1), "report lost");
        assert_eq!(server.n_sessions(), 1, "restored into the table");
        // Close purges the archive: the key is gone for good.
        assert!(is_ok(&roundtrip(
            &mut c,
            &Request::Close {
                session: "t/p".into(),
            },
        )));
        let gone = roundtrip(
            &mut c,
            &Request::History {
                session: "t/p".into(),
            },
        );
        assert!(!is_ok(&gone));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn eviction_keeps_the_table_under_the_resident_cap() {
        let root = tmp_root("evict");
        let server = serve(
            "127.0.0.1:0",
            ServeOptions {
                workers: 2,
                archive: Some(root.clone()),
                max_resident_sessions: 2,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        const LOGICAL: usize = 6;
        for i in 0..LOGICAL {
            let name = format!("p{i}");
            assert!(is_ok(&open(&mut c, "t", spec(&name))));
            assert!(is_ok(&roundtrip(
                &mut c,
                &Request::Report {
                    session: format!("t/{name}"),
                    task: 0,
                    config: vec![Value::Real(i as f64 / LOGICAL as f64)],
                    outputs: vec![i as f64],
                },
            )));
            assert!(server.n_sessions() <= 2, "table over the resident cap");
        }
        // Every logical session is still reachable, evicted or not, and
        // carries its one report.
        for i in 0..LOGICAL {
            let h = roundtrip(
                &mut c,
                &Request::History {
                    session: format!("t/p{i}"),
                },
            );
            assert!(is_ok(&h), "{h}");
            assert_eq!(h.get("n").unwrap().as_u64(), Some(1), "session p{i}");
            assert!(server.n_sessions() <= 2);
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn restored_sessions_continue_the_same_suggestion_stream() {
        // The determinism acceptance: suggest after drain+restore must
        // produce what the uninterrupted server would have produced. The
        // two tasks' initial designs take rounds 0–3 and every later
        // suggest refits; on this data the NLL-drift trigger makes every
        // other refit a full one. The drain lands before round 8, after
        // an incremental refit, so the restored session rebuilds its
        // surrogate from the image mid incremental cycle, then runs a
        // warm-started full refit and another incremental one on it.
        const ROUNDS: usize = 12;
        const DRAIN_AT: usize = 8;
        let root_a = tmp_root("detA");
        let seq = |restart: bool, root: &PathBuf| {
            let opts = || ServeOptions {
                workers: 1,
                archive: Some(root.clone()),
                ..ServeOptions::default()
            };
            let mut server = serve("127.0.0.1:0", opts()).unwrap();
            let mut c = TcpStream::connect(server.local_addr()).unwrap();
            open(&mut c, "t", spec("det"));
            let mut out = Vec::new();
            let mut image = None;
            for round in 0..ROUNDS {
                if restart && round == DRAIN_AT {
                    drop(c);
                    server.drain();
                    image = SessionStore::new(root)
                        .unwrap()
                        .load("t", "det")
                        .unwrap()
                        .expect("drained session archived")
                        .model_state;
                    server = serve("127.0.0.1:0", opts()).unwrap();
                    c = TcpStream::connect(server.local_addr()).unwrap();
                    open(&mut c, "t", spec("det"));
                }
                let task = round % 2;
                let s = roundtrip(
                    &mut c,
                    &Request::Suggest {
                        session: "t/det".into(),
                        task,
                    },
                );
                let cfg =
                    gptune_core::db_bridge::config_from_json(s.get("config").unwrap()).unwrap();
                let x = cfg[0].as_real();
                let y = (x - 0.3) * (x - 0.3) + 0.1 * task as f64 + 0.01;
                assert!(is_ok(&roundtrip(
                    &mut c,
                    &Request::Report {
                        session: "t/det".into(),
                        task,
                        config: cfg.clone(),
                        outputs: vec![y],
                    },
                )));
                out.push(cfg);
            }
            // Purge so the two runs never see each other's archive.
            roundtrip(
                &mut c,
                &Request::Close {
                    session: "t/det".into(),
                },
            );
            server.shutdown();
            (out, image)
        };
        let (uninterrupted, _) = seq(false, &root_a);
        let (restarted, image) = seq(true, &root_a);
        let image = image.expect("the drained meta carries a model image");
        assert!(
            image.updates_since_full > 0,
            "the drain landed on a full refit, not mid incremental cycle"
        );
        assert_eq!(
            uninterrupted, restarted,
            "drain+restore changed the suggestion stream"
        );
        let _ = std::fs::remove_dir_all(&root_a);
    }
}
