//! trace_tool — summarize and export `gptune-trace` JSONL dumps.
//!
//! ```text
//! trace_tool demo <out.jsonl>                  # run a tiny fault-injected
//!                                              # traced MLA, dump its trace
//! trace_tool summarize <in.jsonl> [--chrome out.json]
//! ```
//!
//! `summarize` prints the top spans by *self time* (span duration minus
//! the time spent in spans nested inside it on the same track), the
//! utilization of every evaluation worker, the fault instant-events, and
//! the phase wall totals recomputed from the `gptune.core.*` spans — the
//! latter match the `stats:` line of the runlog because [`PhaseTimer`]
//! publishes one measurement to both. With `--chrome` the trace is also
//! re-exported to the Chrome trace-event format (open in Perfetto or
//! `chrome://tracing`).
//!
//! [`PhaseTimer`]: gptune::runtime::PhaseTimer

use gptune::apps::{AnalyticalApp, FaultSpec, FaultyApp};
use gptune::core::{mla, runlog, MlaOptions};
use gptune::problem_from_app;
use gptune::space::Value as SpaceValue;
use gptune::trace::tracer::{EventKind, TraceData};
use gptune::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let code = match args.get(1).map(String::as_str) {
        Some("demo") => demo(args.get(2).map(String::as_str).unwrap_or("trace.jsonl")),
        Some("summarize") if args.len() >= 3 => {
            let chrome_out = args
                .iter()
                .position(|a| a == "--chrome")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str);
            summarize(&args[2], chrome_out)
        }
        Some("correlate") if args.len() >= 4 => correlate_dumps(&args[2], &args[3]),
        _ => {
            eprintln!("usage: trace_tool demo <out.jsonl>");
            eprintln!("       trace_tool summarize <in.jsonl> [--chrome out.json]");
            eprintln!("       trace_tool correlate <client.jsonl> <server.jsonl>");
            2
        }
    };
    std::process::exit(code);
}

/// Runs a tiny fault-injected two-task MLA with tracing enabled and dumps
/// the trace as JSONL — a self-contained way to produce input for
/// `summarize`.
fn demo(out_path: &str) -> i32 {
    let tracer = gptune::trace::install(Tracer::ring(1 << 16));
    drop(tracer); // previous global (disabled) tracer

    let spec = FaultSpec {
        crash_rate: 0.10,
        hang_rate: 0.05,
        transient_rate: 0.15,
        hang: Duration::from_millis(400),
        chaos_seed: 11,
    };
    let app = Arc::new(FaultyApp::new(AnalyticalApp::new(0.0), spec));
    let tasks = vec![vec![SpaceValue::Real(1.0)], vec![SpaceValue::Real(4.0)]];
    let problem = problem_from_app(app, tasks);
    let mut opts = MlaOptions::default()
        .with_budget(10)
        .with_seed(3)
        .with_eval_deadline(Duration::from_millis(120));
    opts.lcm.n_starts = 2;
    opts.lcm.lbfgs.max_iters = 15;
    opts.pso.particles = 15;
    opts.pso.iters = 10;
    opts.log_objective = false;

    let result = mla::tune(&problem, &opts);
    print!("{}", runlog::format_mla(&problem, &result));

    let data = gptune::trace::global().drain();
    let jsonl = gptune::trace::jsonl::to_string(&data);
    if let Err(e) = std::fs::write(out_path, jsonl) {
        eprintln!("trace_tool: cannot write {out_path}: {e}");
        return 1;
    }
    println!(
        "\ntrace: {} events on {} tracks -> {out_path}",
        data.events.len(),
        data.tracks.len()
    );
    0
}

/// One span reconstructed from a JSONL line.
struct SpanRow {
    name: String,
    ts: u64,
    dur: u64,
    track: u64,
}

fn summarize(path: &str, chrome_out: Option<&str>) -> i32 {
    let data = match std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| gptune::serve::parse_jsonl(&text).map_err(|e| format!("{path}: {e}")))
    {
        Ok(d) => d,
        Err(e) => {
            eprintln!("trace_tool: {e}");
            return 1;
        }
    };
    let TraceData {
        events,
        tracks,
        dropped,
        metrics,
    } = &data;
    let counters = &metrics.counters;

    let track_name = |id: u64| -> String {
        tracks
            .iter()
            .find(|(t, _)| *t == id)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| format!("track-{id}"))
    };

    let spans: Vec<SpanRow> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Span { dur_ns } => Some(SpanRow {
                name: e.name.to_string(),
                ts: e.ts_ns,
                dur: dur_ns,
                track: e.track,
            }),
            EventKind::Instant => None,
        })
        .collect();

    // --- Top spans by self time (duration minus directly nested spans) ---
    let self_ns = self_times(&spans);
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new(); // count, total, self
    for (s, &selft) in spans.iter().zip(&self_ns) {
        let e = by_name.entry(&s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.dur;
        e.2 += selft;
    }
    let mut ranked: Vec<(&str, (u64, u64, u64))> = by_name.into_iter().collect();
    ranked.sort_by_key(|&(_, (_, _, selft))| std::cmp::Reverse(selft));
    println!("top spans by self time:");
    println!(
        "  {:<32} {:>7} {:>12} {:>12}",
        "span", "count", "total", "self"
    );
    for (name, (count, total, selft)) in ranked.iter().take(10) {
        println!(
            "  {:<32} {:>7} {:>11.3}s {:>11.3}s",
            name,
            count,
            *total as f64 / 1e9,
            *selft as f64 / 1e9
        );
    }

    // --- Phase walls recomputed from the gptune.core.* spans ---
    let wall = |n: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == n)
            .map(|s| s.dur as f64 / 1e9)
            .sum()
    };
    println!(
        "phase walls from spans: modeling {:.3}s | search {:.3}s | objective {:.3}s",
        wall("gptune.core.modeling"),
        wall("gptune.core.search"),
        wall("gptune.core.objective")
    );

    // --- Per-worker utilization ---
    let t0 = events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
    let t1 = events
        .iter()
        .map(|e| e.ts_ns + e.dur_ns().unwrap_or(0))
        .max()
        .unwrap_or(0);
    let horizon = (t1.saturating_sub(t0)).max(1) as f64;
    let mut worker_busy: BTreeMap<String, u64> = BTreeMap::new();
    for s in &spans {
        if s.name == "gptune.runtime.job" {
            *worker_busy.entry(track_name(s.track)).or_insert(0) += s.dur;
        }
    }
    if !worker_busy.is_empty() {
        println!("worker utilization (job spans / trace horizon):");
        for (worker, busy) in &worker_busy {
            println!(
                "  {:<24} {:>11.3}s  {:>5.1}%",
                worker,
                *busy as f64 / 1e9,
                100.0 * *busy as f64 / horizon
            );
        }
    }

    // --- Surrogate refit mix ---
    // The per-mode counters from `gptune.gp.refit` spans: how often the
    // tuner paid a full hyperparameter re-optimization vs. an O(n²)
    // incremental factor extension.
    let refit_total: u64 = counters
        .iter()
        .filter(|(n, _)| n.starts_with("gptune.gp.refit."))
        .map(|(_, v)| *v)
        .sum();
    if refit_total > 0 {
        println!("surrogate refits:");
        for mode in ["full", "incremental"] {
            let name = format!("gptune.gp.refit.{mode}");
            let v = counters
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0);
            println!(
                "  {mode:<12} {v:>7}  {:>5.1}%",
                100.0 * v as f64 / refit_total as f64
            );
        }
    }

    // --- Fault instant-events and runtime counters ---
    let mut faults: BTreeMap<&str, u64> = BTreeMap::new();
    for e in events {
        if matches!(e.kind, EventKind::Instant) {
            *faults.entry(&e.name).or_insert(0) += 1;
        }
    }
    println!("fault events:");
    if faults.is_empty() {
        println!("  (none)");
    }
    for (name, n) in &faults {
        println!("  {name:<32} {n:>7}");
    }
    for (name, v) in counters {
        if name.starts_with("gptune.runtime.") || name.starts_with("gptune.core.failures") {
            println!("  counter {name:<24} {v:>7}");
        }
    }
    if *dropped > 0 {
        println!("note: {dropped} events dropped by the ring buffer");
    }

    if let Some(out) = chrome_out {
        let json = gptune::trace::chrome::export(&data);
        if let Err(e) = std::fs::write(out, json) {
            eprintln!("trace_tool: cannot write {out}: {e}");
            return 1;
        }
        println!("chrome trace -> {out} (open in Perfetto or chrome://tracing)");
    }
    0
}

/// Self time per span: duration minus the duration of spans *directly*
/// nested inside it on the same track. Spans on one track nest by
/// interval containment (start within the parent's [ts, ts+dur)).
fn self_times(spans: &[SpanRow]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Parents sort before children: earlier start first, longer span first
    // on equal starts.
    order.sort_by(|&a, &b| {
        (spans[a].track, spans[a].ts, spans[b].dur).cmp(&(
            spans[b].track,
            spans[b].ts,
            spans[a].dur,
        ))
    });
    let mut child_time = vec![0u64; spans.len()];
    let mut stack: Vec<usize> = Vec::new(); // indices of open ancestor spans
    let mut cur_track = u64::MAX;
    for &i in &order {
        let s = &spans[i];
        if s.track != cur_track {
            stack.clear();
            cur_track = s.track;
        }
        while let Some(&top) = stack.last() {
            if spans[top].ts + spans[top].dur <= s.ts {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            child_time[parent] += s.dur;
        }
        stack.push(i);
    }
    spans
        .iter()
        .zip(&child_time)
        .map(|(s, &c)| s.dur.saturating_sub(c))
        .collect()
}

/// `correlate <client.jsonl> <server.jsonl>` — merge a client-side and a
/// server-side trace dump into one causal timeline per request id: when
/// the client issued the call, whether it journaled a WAL entry first,
/// how many wire attempts it took, and which server-side spans (request
/// handling, session suggest/report/refit work) carried the same id.
/// Timestamps are per-dump (each tracer has its own epoch), so ordering
/// is only meaningful within one side; the id is the causal link.
fn correlate_dumps(client_path: &str, server_path: &str) -> i32 {
    let load = |path: &str| -> Result<gptune::trace::tracer::TraceData, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        gptune::serve::parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (client, server) = match (load(client_path), load(server_path)) {
        (Ok(c), Ok(s)) => (c, s),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("trace_tool: {e}");
            return 1;
        }
    };
    let report = gptune::serve::correlate(&client, &server);
    if report.requests.is_empty() {
        println!("no client rpc spans with request ids found in {client_path}");
        return 0;
    }
    for r in &report.requests {
        let ack = if r.acked { "acked" } else { "FAILED" };
        let mut chain = Vec::new();
        if r.wal_appended {
            chain.push("wal append".to_string());
        }
        chain.push(if r.attempts > 1 {
            format!("sent x{}", r.attempts)
        } else {
            "sent".to_string()
        });
        if r.server_spans.is_empty() {
            chain.push("(no server trace)".to_string());
        } else {
            chain.extend(r.server_spans.iter().map(|s| format!("server {s}")));
        }
        chain.push(ack.to_string());
        println!("{}  {:<12} {}", r.rid, r.op, chain.join(" -> "));
    }
    println!(
        "\n{} requests, {} acked, {} linked to server spans ({:.1}% of acked)",
        report.requests.len(),
        report.acked,
        report.linked,
        100.0 * report.link_rate()
    );
    0
}
