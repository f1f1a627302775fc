//! obs_tool — a top-style live dashboard for a running gptune-serve server.
//!
//! Polls the server's `metrics` wire request (text exposition, decoded via
//! `gptune::trace::expo::parse`) and renders request rates, per-op
//! latency quantiles, resident-session pressure, robustness counters, and
//! model-health rows (refit mode mix, NLL drift events, censored
//! evaluations). Rates and quantiles come from the server's rolling
//! windows, so they describe the last ~2 minutes, not the whole uptime.
//!
//! ```text
//! obs_tool <addr> [--interval <secs>] [--once]
//! obs_tool --smoke <dir>
//! ```
//!
//! `--once` renders a single frame and exits: 0 when the server shows
//! traffic (non-zero request total), 2 when it answers but has seen
//! nothing — which is what the tier-1 smoke gate asserts on.
//!
//! `--smoke <dir>` is the self-contained variant the gate runs: it starts
//! an in-process server on an ephemeral port, drives a short burst
//! through a WAL-backed client carrying its own tracer, scrapes the live
//! server exactly as `--once` would, and dumps both sides' JSONL traces
//! (`client.jsonl`, `server.jsonl`) into `dir` for `trace_tool
//! correlate`.

use gptune::serve::ServeClient;
use gptune::trace::MetricsSnapshot;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = None;
    let mut interval = Duration::from_secs(2);
    let mut once = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--smoke" => {
                let dir = it
                    .next()
                    .unwrap_or_else(|| usage("--smoke needs an output directory"));
                std::process::exit(smoke(std::path::Path::new(dir)));
            }
            "--interval" => {
                let secs: f64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--interval needs a number of seconds"));
                interval = Duration::from_secs_f64(secs.max(0.1));
            }
            "--help" | "-h" => usage(""),
            other if addr.is_none() => addr = Some(other.to_string()),
            other => usage(&format!("unexpected argument: {other}")),
        }
    }
    let addr = addr.unwrap_or_else(|| usage("missing server address"));

    let mut client = match ServeClient::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("obs_tool: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    loop {
        let snap = match client.metrics() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("obs_tool: scrape failed: {e}");
                std::process::exit(1);
            }
        };
        if !once {
            // Clear screen and home the cursor, top(1)-style.
            print!("\x1b[2J\x1b[H");
        }
        let total = render(&addr, &snap);
        if once {
            if total == 0 {
                eprintln!("obs_tool: server is up but has served no requests");
                std::process::exit(2);
            }
            return;
        }
        std::thread::sleep(interval);
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("obs_tool: {err}");
    }
    eprintln!("usage: obs_tool <addr> [--interval <secs>] [--once]");
    eprintln!("       obs_tool --smoke <dir>");
    std::process::exit(if err.is_empty() { 0 } else { 1 });
}

/// Self-contained smoke run: server + client in one process, a real
/// scrape over the wire, and a pair of JSONL dumps for correlation.
/// Exit codes match `--once` (2 = server answered but showed no traffic).
fn smoke(dir: &std::path::Path) -> i32 {
    use gptune::serve::{serve, ProblemSpec, ServeClient, ServeOptions, SessionOptions};
    use gptune::space::{Param, Value};
    use gptune::trace::{jsonl, Tracer};

    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("obs_tool: cannot create {}: {e}", dir.display());
        return 1;
    }
    // The server records into the process-global tracer; the client gets
    // its own ring, standing in for a second process.
    drop(gptune::trace::install(Tracer::ring(1 << 14)));
    let server = match serve(
        "127.0.0.1:0",
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("obs_tool: cannot start smoke server: {e}");
            return 1;
        }
    };
    let addr = server.local_addr().to_string();

    let client_tracer = Tracer::ring(1 << 14);
    let burst = || -> std::io::Result<()> {
        let spec = ProblemSpec {
            name: "obs_smoke".into(),
            task_params: vec![Param::real("t", 0.0, 1.0)],
            tuning_params: vec![Param::real("x", 0.0, 1.0)],
            tasks: vec![vec![Value::Real(0.5)]],
            n_objectives: 1,
        };
        let mut client = ServeClient::connect(&addr)?
            .with_tracer(client_tracer.clone())
            .with_wal(dir.join("client.wal"));
        client.open_session("obs_smoke", &spec, &SessionOptions::default())?;
        for i in 0..10u32 {
            if i % 3 == 0 {
                let _ = client.suggest(0)?;
            }
            let x = f64::from(i % 7) / 7.0;
            client.report(0, &[Value::Real(x)], &[(x - 0.3).abs()])?;
        }
        Ok(())
    };
    if let Err(e) = burst() {
        eprintln!("obs_tool: smoke traffic failed: {e}");
        return 1;
    }

    // Scrape over the wire with a fresh probe, exactly like `--once`.
    // The probe gets a throwaway tracer and its own rid seed: its rpc
    // spans must not leak into the server dump (the default tracer is
    // the global one), and its rids must not collide with the burst
    // client's (both would otherwise count up from the default seed).
    let total = match ServeClient::connect(&addr)
        .map(|p| p.with_tracer(Tracer::ring(64)).with_rid_seed(0xb0b5))
        .and_then(|mut probe| probe.metrics())
    {
        Ok(snap) => render(&addr, &snap),
        Err(e) => {
            eprintln!("obs_tool: smoke scrape failed: {e}");
            return 1;
        }
    };
    server.shutdown();

    let dump = |name: &str, data: &gptune::trace::TraceData| -> std::io::Result<()> {
        std::fs::write(dir.join(name), jsonl::to_string(data))
    };
    if let Err(e) = dump("client.jsonl", &client_tracer.drain())
        .and_then(|()| dump("server.jsonl", &gptune::trace::global().drain()))
    {
        eprintln!("obs_tool: cannot write smoke dumps: {e}");
        return 1;
    }
    if total == 0 {
        eprintln!("obs_tool: smoke server served the burst but reported no requests");
        return 2;
    }
    0
}

/// Renders one frame; returns the lifetime request total.
fn render(addr: &str, snap: &MetricsSnapshot) -> u64 {
    let total = snap.counter("gptune.serve.requests").unwrap_or(0);
    let errors = snap.counter("gptune.serve.errors").unwrap_or(0);
    let rate = snap
        .windowed
        .rate_per_sec("gptune.serve.requests")
        .unwrap_or(0.0);
    let sessions = snap.gauge("gptune.serve.sessions").unwrap_or(0.0);
    let uptime = snap.gauge("gptune.serve.uptime_secs").unwrap_or(0.0);
    let draining = snap.gauge("gptune.serve.draining").unwrap_or(0.0) > 0.5;
    let horizon = snap.windowed.horizon_ns as f64 / 1e9;

    println!(
        "gptune-serve {addr} — up {} — {} sessions{}",
        fmt_secs(uptime),
        sessions as u64,
        if draining { " — DRAINING" } else { "" }
    );
    println!(
        "requests {total} total ({errors} errors) | {rate:.1}/s over the last {}",
        fmt_secs(horizon)
    );

    println!(
        "\n{:<14} {:>9} {:>9} {:>8} {:>9} {:>9}",
        "op", "total", "windowed", "rate/s", "p50 us", "p99 us"
    );
    for (name, h) in &snap.histograms {
        let Some(op) = name.strip_prefix("gptune.serve.latency_us.") else {
            continue;
        };
        let (wcount, p50, p99) = snap
            .windowed
            .histogram(name)
            .map_or((0, 0, 0), |w| (w.count, w.p50(), w.p99()));
        let wrate = if horizon > 0.0 {
            wcount as f64 / horizon
        } else {
            0.0
        };
        println!(
            "{op:<14} {:>9} {wcount:>9} {wrate:>8.1} {p50:>9} {p99:>9}",
            h.count
        );
    }

    println!("\nrobustness (lifetime / windowed):");
    for kind in [
        "evictions",
        "restores",
        "sheds",
        "timeouts",
        "drains",
        "archive_errors",
    ] {
        let name = format!("gptune.serve.{kind}");
        let life = snap.counter(&name).unwrap_or(0);
        let win = snap.windowed.counter(&name).unwrap_or(0);
        if life > 0 || win > 0 {
            println!("  {kind:<15} {life:>9} / {win}");
        }
    }

    let full = snap.counter("gptune.gp.refit.full").unwrap_or(0);
    let incr = snap.counter("gptune.gp.refit.incremental").unwrap_or(0);
    let drift = snap.counter("gptune.gp.nll_drift_events").unwrap_or(0);
    let censored = snap.counter("gptune.core.evals_censored").unwrap_or(0);
    let reports = snap
        .histogram("gptune.serve.latency_us.report")
        .map_or(0, |h| h.count);
    println!("\nmodel health:");
    println!("  refits          {full} full / {incr} incremental");
    println!("  nll drift       {drift} events");
    println!(
        "  censored evals  {censored} ({:.1}% of {reports} reports)",
        if reports > 0 {
            100.0 * censored as f64 / reports as f64
        } else {
            0.0
        }
    );

    let tenants = tenant_rows(snap);
    if !tenants.is_empty() {
        println!(
            "\n{:<20} {:>9} {:>12} {:>7}",
            "tenant", "requests", "over-budget", "sheds"
        );
        for (tenant, req, over, sheds) in tenants {
            println!("{tenant:<20} {req:>9} {over:>12} {sheds:>7}");
        }
    }
    total
}

/// Collects per-tenant SLO counters into (tenant, requests, over_budget,
/// sheds) rows, sorted by tenant name.
fn tenant_rows(snap: &MetricsSnapshot) -> Vec<(String, u64, u64, u64)> {
    let mut rows: std::collections::BTreeMap<String, (u64, u64, u64)> = Default::default();
    for (name, v) in &snap.counters {
        let Some(rest) = name.strip_prefix("gptune.serve.tenant.") else {
            continue;
        };
        // The tenant may itself contain dots; the kind is the last segment.
        let Some((tenant, kind)) = rest.rsplit_once('.') else {
            continue;
        };
        let row = rows.entry(tenant.to_string()).or_default();
        match kind {
            "requests" => row.0 = *v,
            "over_budget" => row.1 = *v,
            "sheds" => row.2 = *v,
            _ => {}
        }
    }
    rows.into_iter()
        .map(|(t, (a, b, c))| (t, a, b, c))
        .collect()
}

fn fmt_secs(s: f64) -> String {
    if s >= 3600.0 {
        format!("{:.1}h", s / 3600.0)
    } else if s >= 60.0 {
        format!("{:.1}m", s / 60.0)
    } else {
        format!("{s:.0}s")
    }
}
