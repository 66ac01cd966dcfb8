//! The traced run (`--trace 1`): per-layer metrics.
//!
//! The benchmark calls each layer's public functions itself, wrapping
//! each call in a `malleable_trace` span of its own (`bench.*`), in the
//! product's stage order: parse → instance validate → `policy.run` →
//! bounds → feasibility check. The program's own counters are read from
//! the same session and attributed to the `bench.*` span they were
//! recorded in. The same work runs once untraced on a fresh thread, and
//! `trace.overhead_frac` compares the two wall times. Nothing inside the
//! program is instrumented by this benchmark; the daemon's own
//! `serve.solve` spans come from `msched serve --trace`.
//!
//! Times are means per call, in ms (µs for request parsing); counters are
//! totals over the run's fixed set of work; layers a workload leaves idle
//! read 0.

use crate::check::{check_cli, feasible};
use crate::cli::{run_child, CliWorkload};
use crate::serve::{self, Daemon, Stream, Verb};
use crate::stats::{median, tail};
use crate::Report;
use malleable_core::algos::related::flow_witness;
use malleable_core::algos::waterfill_fast::wf_feasible_grouped_with_work;
use malleable_core::bounds::{arrival_aware_lower_bound, combined_lower_bound};
use malleable_core::instance::TaskId;
use malleable_core::io::parse_instance;
use malleable_core::machine::MachineModel;
use malleable_core::policy;
use malleable_core::schedule::column::ColumnSchedule;
use malleable_trace::{span, Event, Session, Trace};
use malleable_workloads::{generate, Spec};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Counters the program records, reported as totals over `policy.run`.
const POLICY_COUNTERS: &[&str] = &[
    "wdeq.events",
    "wdeq.regime_switches",
    "flow.phases",
    "flow.augmentations",
    "flow.repair_paths",
    "probe.probes",
    "probe.warm_solves",
    "probe.cold_rebuilds",
];

/// Per-`bench.*`-span totals of one traced pass.
#[derive(Default)]
struct Spans {
    /// Span name → (total ns, calls).
    time: BTreeMap<&'static str, (u64, u64)>,
    /// (span name, counter name) → total recorded inside that span.
    counters: BTreeMap<(&'static str, &'static str), u64>,
}

impl Spans {
    fn of(trace: &Trace) -> Spans {
        let mut s = Spans::default();
        for events in trace.events_per_thread().values() {
            let mut open: Vec<(&'static str, u64)> = Vec::new();
            for ev in events {
                match ev {
                    Event::Begin { name, ts, .. } => open.push((name, *ts)),
                    Event::End { name, ts, .. } => {
                        if let Some((begun, t0)) = open.pop() {
                            debug_assert_eq!(begun, *name);
                            if name.starts_with("bench.") {
                                let slot = s.time.entry(name).or_default();
                                slot.0 += ts - t0;
                                slot.1 += 1;
                            }
                        }
                    }
                    Event::Counter { name, delta, .. } => {
                        if let Some(&(stage, _)) =
                            open.iter().rev().find(|(n, _)| n.starts_with("bench."))
                        {
                            *s.counters.entry((stage, name)).or_default() += delta;
                        }
                    }
                    Event::Gauge { .. } => {}
                }
            }
        }
        s
    }

    /// Mean ms per call of `stage` (0 when never called).
    fn mean_ms(&self, stage: &str) -> f64 {
        self.time
            .get(stage)
            .map_or(0.0, |&(ns, calls)| ns as f64 / 1e6 / calls.max(1) as f64)
    }

    fn total_ms(&self, stage: &str) -> f64 {
        self.time.get(stage).map_or(0.0, |&(ns, _)| ns as f64 / 1e6)
    }

    fn calls(&self, stage: &str) -> u64 {
        self.time.get(stage).map_or(0, |&(_, calls)| calls)
    }

    fn counter(&self, stage: &str, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((s, n), _)| *s == stage && *n == name)
            .map(|(_, v)| v)
            .sum()
    }
}

/// Shape of the column schedules a pass produced.
#[derive(Default)]
struct Columns {
    schedules: u64,
    columns: u64,
    entries: u64,
    invalid: u64,
}

impl Columns {
    fn add(&mut self, s: &ColumnSchedule) {
        self.schedules += 1;
        self.columns += s.columns.len() as u64;
        self.entries += s.columns.iter().map(|c| c.rates.len() as u64).sum::<u64>();
    }
}

/// Run `work` on a fresh thread, untraced, then again on another fresh
/// thread inside a trace session (a thread keeps the tracing state it
/// was born with). Returns both wall times, the trace and the traced
/// pass's result.
fn twice<T: Send>(work: impl Fn() -> T + Sync) -> (f64, f64, Trace, T) {
    let timed = || {
        let t = Instant::now();
        let out = work();
        (t.elapsed().as_secs_f64(), out)
    };
    let (plain, _) = std::thread::scope(|s| s.spawn(timed).join().expect("untraced pass"));
    let session = Session::start();
    let (traced, out) = std::thread::scope(|s| s.spawn(timed).join().expect("traced pass"));
    (plain, traced, session.finish(), out)
}

/// Every per-layer metric but `failed_frac`, with its unit, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.parse_ms", "ms"),
    ("instance.validate_ms", "ms"),
    ("instance.build_ms", "ms"),
    ("instance.rebuild_tasks", "count"),
    ("policy.run_ms", "ms"),
    ("policy.run_share", "fraction"),
    ("wdeq.events", "count"),
    ("wdeq.regime_switches", "count"),
    ("flow.phases", "count"),
    ("flow.augmentations", "count"),
    ("flow.repair_paths", "count"),
    ("probe.probes", "count"),
    ("probe.warm_solves", "count"),
    ("probe.cold_rebuilds", "count"),
    ("schedule.columns", "count"),
    ("schedule.column_entries", "count"),
    ("schedule.column_mb", "MiB"),
    ("schedule.validate_ms", "ms"),
    ("schedule.invalid", "count"),
    ("greedy.infeasible_n10000", "count"),
    ("wdeq.certificate_panics", "count"),
    ("wf.feasible_ms", "ms"),
    ("wf.tree_visits_per_task", "count"),
    ("flow.witness_ms", "ms"),
    ("bounds_ms", "ms"),
    ("sim.simulate_ms", "ms"),
    ("serve.parse_request_us", "us"),
    ("serve.solve_ms.p50", "ms"),
    ("serve.solve_ms.p90", "ms"),
    ("serve.requests", "count"),
    ("serve.submits", "count"),
    ("serve.solves", "count"),
    ("serve.protocol_errors", "count"),
    ("serve.solve_errors", "count"),
    ("loadgen.lag_ms.max", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.answered", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// Report every [`PER_LAYER`] metric: what the workload measured, 0 for
/// the layers it left idle.
fn emit(report: &mut Report, values: &BTreeMap<&'static str, f64>) {
    for &(name, unit) in PER_LAYER {
        report.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
}

/// What one pass over the cli instances produced.
struct CliPass {
    columns: Columns,
    tree_visits: u64,
    tasks: u64,
    feasibility: Vec<Result<(), String>>,
}

/// The stages of `msched <file>`, called in-process on each file.
fn cli_pass(files: &[PathBuf], policy_name: &str) -> CliPass {
    let p = policy::by_name::<f64>(policy_name).expect("registered policy");
    let mut out = CliPass {
        columns: Columns::default(),
        tree_visits: 0,
        tasks: 0,
        feasibility: Vec::new(),
    };
    for file in files {
        let text = std::fs::read_to_string(file).expect("instance file was just written");
        let instance = {
            let _sp = span("bench.parse");
            parse_instance(&text).expect("generated instance parses")
        };
        {
            let _sp = span("bench.validate");
            black_box(instance.validate()).expect("generated instance is valid");
        }
        let run = {
            let _sp = span("bench.policy_run");
            p.run(&instance)
        };
        let Ok(run) = run else {
            out.feasibility.push(Err("policy.run failed".into()));
            continue;
        };
        {
            let _sp = span("bench.bounds");
            black_box(combined_lower_bound(&instance));
        }
        let c = &run.schedule.completions;
        let verdict = if matches!(instance.machine, MachineModel::Identical { .. }) {
            let _sp = span("bench.feasible");
            match wf_feasible_grouped_with_work(&instance, c) {
                Ok((true, work)) => {
                    out.tree_visits += work;
                    Ok(())
                }
                Ok((false, _)) => Err("Theorem 8 oracle rejects the completions".into()),
                Err(e) => Err(e.to_string()),
            }
        } else {
            let _sp = span("bench.flow_witness");
            flow_witness(&instance, None, c)
                .map(|_| ())
                .map_err(|e| e.to_string())
        };
        out.feasibility.push(verdict);
        out.tasks += instance.n() as u64;
        out.columns.add(&run.schedule);
    }
    out
}

/// Traced run of a `cli-*` workload: a fixed set of instances (the first
/// files of the run's pool).
pub fn run_cli(w: &CliWorkload, msched: &Path, seed: u64, dir: &Path) -> Result<Report, String> {
    let pool = w.setup(seed, dir)?;
    let pool = &pool[..w.traced];
    let mut report = Report::default();

    // The product path once per instance, for its wall time (and checks).
    let mut child_wall = 0.0;
    for (path, instance) in pool {
        let run = run_child(msched, path, w.policy)?;
        child_wall += run.wall.as_secs_f64();
        report.attempted += 1;
        let verdict = match &run.error {
            Some(e) => Err(e.clone()),
            None => check_cli(instance, w.policy_name(), &run.stdout),
        };
        if let Err(e) = verdict {
            report.fail(e);
        }
    }

    let files: Vec<PathBuf> = pool.iter().map(|(p, _)| p.clone()).collect();
    let (plain, traced, trace, pass) = twice(|| cli_pass(&files, w.policy_name()));
    for verdict in &pass.feasibility {
        report.attempted += 1;
        if let Err(e) = verdict {
            report.fail(e.clone());
        }
    }
    let spans = Spans::of(&trace);
    let mut v = BTreeMap::new();
    let solves = pass.columns.schedules.max(1) as f64;
    v.insert("io.parse_ms", spans.mean_ms("bench.parse"));
    v.insert("instance.validate_ms", spans.mean_ms("bench.validate"));
    v.insert("policy.run_ms", spans.mean_ms("bench.policy_run"));
    v.insert(
        "policy.run_share",
        spans.total_ms("bench.policy_run") / 1e3 / child_wall,
    );
    for &name in POLICY_COUNTERS {
        v.insert(name, spans.counter("bench.policy_run", name) as f64);
    }
    insert_columns(&mut v, &pass.columns, solves);
    // The defect probes ride on the control workload.
    if w.policy.is_none() {
        v.insert(
            "wdeq.certificate_panics",
            wdeq_certificate_panics(msched, dir)?,
        );
        let (infeasible, invalid) = greedy_n10000(seed)?;
        v.insert("greedy.infeasible_n10000", infeasible);
        *v.entry("schedule.invalid").or_default() += invalid;
    }
    v.insert("wf.feasible_ms", spans.mean_ms("bench.feasible"));
    if spans.calls("bench.feasible") > 0 {
        v.insert(
            "wf.tree_visits_per_task",
            pass.tree_visits as f64 / pass.tasks.max(1) as f64,
        );
    }
    v.insert("flow.witness_ms", spans.mean_ms("bench.flow_witness"));
    v.insert("bounds_ms", spans.mean_ms("bench.bounds"));
    v.insert("trace.overhead_frac", traced / plain - 1.0);
    emit(&mut report, &v);
    Ok(report)
}

/// Run `msched` (default `wdeq`) on a known instance whose WDEQ
/// certificate panics: 1 while the defect stands, 0 once `msched` exits
/// cleanly with output that passes the checks. Reported, not timed.
fn wdeq_certificate_panics(msched: &Path, dir: &Path) -> Result<f64, String> {
    let text = include_str!("../fixtures/wdeq_certificate_panic.txt");
    let path = dir.join("wdeq_certificate_panic.txt");
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let run = run_child(msched, &path, None)?;
    let instance = parse_instance(text).map_err(|e| format!("fixture does not parse: {e}"))?;
    let clean = run.error.is_none() && check_cli(&instance, "wdeq", &run.stdout).is_ok();
    Ok(if clean { 0.0 } else { 1.0 })
}

/// Solve one `IntegerUniform { n: 10⁴, p: 64 }` instance with
/// `greedy-smith` in-process. Returns whether the Theorem 8 oracle
/// rejects its completions and whether its columns fail
/// `ColumnSchedule::validate`: (1, 1) while the defect stands. Counts,
/// not failed operations, and not timed.
fn greedy_n10000(seed: u64) -> Result<(f64, f64), String> {
    let big = generate(&Spec::IntegerUniform { n: 10_000, p: 64 }, seed);
    let run = policy::by_name::<f64>("greedy-smith")
        .expect("registered policy")
        .run(&big)
        .map_err(|e| format!("greedy-smith at n = 10000: {e}"))?;
    let rejected = feasible(&big, &run.schedule.completions).is_err();
    // Columns over P fail validation at once, so this stays cheap.
    let invalid = run.schedule.validate(&big).is_err();
    Ok((f64::from(u8::from(rejected)), f64::from(u8::from(invalid))))
}

fn insert_columns(v: &mut BTreeMap<&'static str, f64>, c: &Columns, solves: f64) {
    v.insert("schedule.columns", c.columns as f64 / solves);
    v.insert("schedule.column_entries", c.entries as f64 / solves);
    // Computed from the entry count, not measured: one (TaskId, f64)
    // pair per entry.
    let entry_bytes = std::mem::size_of::<(TaskId, f64)>() as f64;
    v.insert(
        "schedule.column_mb",
        c.entries as f64 / solves * entry_bytes / (1u64 << 20) as f64,
    );
    *v.entry("schedule.invalid").or_default() += c.invalid as f64;
}

/// What one replay of the serve stream produced.
#[derive(Default)]
struct ServePass {
    columns: Columns,
    rebuild_tasks: u64,
    /// Tasks checked by the water-filling oracle.
    wf_tasks: u64,
    oracle_failures: Vec<String>,
}

/// The daemon's per-request work, called in-process in stream order:
/// request parsing, the tenant `Instance` rebuild on every submit and
/// schedule, the solve (registry or simulator), schedule validation,
/// bounds, and the benchmark's own feasibility oracle.
fn serve_pass(streams: &[Stream]) -> ServePass {
    let mut out = ServePass::default();
    for st in streams {
        for req in &st.reqs {
            {
                let _sp = span("bench.parse_request");
                black_box(malleable_bench::serve::protocol::parse_request(
                    req.line.trim(),
                ))
                .expect("generated request parses");
            }
            let tenant = &st.tenants[req.tenant];
            let instance = {
                let _sp = span("bench.instance_build");
                tenant.instance(req.tasks)
            };
            out.rebuild_tasks += req.tasks as u64;
            let Ok(instance) = instance else {
                out.oracle_failures
                    .push(format!("tenant {} does not build", tenant.name));
                continue;
            };
            if req.verb == Verb::Submit {
                continue;
            }
            let schedule = if instance.has_arrivals() {
                let _sp = span("bench.simulate");
                serve::solve(&instance, tenant.policy)
            } else {
                let _sp = span("bench.policy_run");
                serve::solve(&instance, tenant.policy)
            };
            let Ok(schedule) = schedule else {
                out.oracle_failures
                    .push(format!("tenant {} does not solve", tenant.name));
                continue;
            };
            out.columns.add(&schedule);
            {
                let _sp = span("bench.schedule_validate");
                if schedule.validate(&instance).is_err() {
                    out.columns.invalid += 1;
                }
            }
            {
                let _sp = span("bench.bounds");
                black_box(arrival_aware_lower_bound(&instance));
            }
            let verdict = if instance.has_arrivals() {
                let _sp = span("bench.flow_witness");
                feasible(&instance, &schedule.completions)
            } else {
                out.wf_tasks += instance.n() as u64;
                let _sp = span("bench.feasible");
                feasible(&instance, &schedule.completions)
            };
            if let Err(e) = verdict {
                out.oracle_failures
                    .push(format!("tenant {}: {e}", tenant.name));
            }
        }
    }
    out
}

/// Durations (ms) of the daemon's `serve.solve` spans in its Chrome trace
/// (one event per line; begin and end pair up per thread).
fn solve_spans_ms(chrome: &str) -> Vec<f64> {
    let mut open: BTreeMap<u64, f64> = BTreeMap::new();
    let mut out = Vec::new();
    for line in chrome.lines() {
        if !line.contains("\"name\":\"serve.solve\"") {
            continue;
        }
        let Ok(ev) = malleable_bench::jsonin::parse(line.trim().trim_end_matches(',')) else {
            continue;
        };
        let num = |k: &str| ev.get(k).and_then(|x| x.as_f64());
        let (Some(ts), Some(tid)) = (num("ts"), num("tid")) else {
            continue;
        };
        match ev.get("ph").and_then(|p| p.as_str()) {
            Some("B") => {
                open.insert(tid as u64, ts);
            }
            Some("E") => {
                if let Some(t0) = open.remove(&(tid as u64)) {
                    out.push((ts - t0) / 1e3);
                }
            }
            _ => {}
        }
    }
    out
}

/// Traced run of `serve-mixed`: the base-rate stream into a daemon
/// started with `--trace`, then an in-process replay of the same stream.
pub fn run_serve(msched: &Path, seed: u64, seconds: f64, dir: &Path) -> Result<Report, String> {
    let base_s = serve::base_seconds(seconds);
    let trace_path = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join(dir)
        .join("serve-trace.json");
    let mut report = Report::default();
    let mut v = BTreeMap::new();

    let daemon = Daemon::boot(msched, Some(&trace_path))?;
    let phase = serve::run_phase(
        &daemon.addr,
        serve::BASE_RPS,
        serve::phase_streams(seed, 0, serve::BASE_RPS, base_s),
    )?;
    let metrics = daemon.request("{\"op\":\"metrics\"}")?;
    daemon.shutdown()?;
    serve::check_phase(&phase, &mut report);
    let metrics = malleable_bench::jsonin::parse(&metrics)
        .map_err(|e| format!("metrics response is not JSON: {e}"))?;
    for name in [
        "serve.requests",
        "serve.submits",
        "serve.solves",
        "serve.protocol_errors",
        "serve.solve_errors",
    ] {
        let value = metrics
            .get(name)
            .and_then(|x| x.as_f64())
            .ok_or(format!("metrics response lacks {name}"))?;
        v.insert(name, value);
    }
    let chrome = std::fs::read_to_string(&trace_path)
        .map_err(|e| format!("daemon wrote no trace at {}: {e}", trace_path.display()))?;
    let solves = solve_spans_ms(&chrome);
    v.insert("serve.solve_ms.p50", median(&solves));
    v.insert("serve.solve_ms.p90", tail(&solves, 0.90).0);
    v.insert("loadgen.lag_ms.max", serve::max_lag_ms(&phase));
    let sent: usize = phase.results.iter().map(|r| r.sent_at.len()).sum();
    let answered: usize = phase.results.iter().map(|r| r.answered_at.len()).sum();
    v.insert("loadgen.sent", sent as f64);
    v.insert("loadgen.answered", answered as f64);
    report.note(format!(
        "{} serve.solve spans in the daemon trace",
        solves.len()
    ));

    let streams = phase.streams;
    let (plain, traced, trace, pass) = twice(|| serve_pass(&streams));
    let schedules = streams
        .iter()
        .flat_map(|s| &s.reqs)
        .filter(|r| r.verb == Verb::Schedule)
        .count();
    report.attempted += schedules as u64;
    for e in pass.oracle_failures {
        report.fail(e);
    }
    let spans = Spans::of(&trace);
    let solved = pass.columns.schedules.max(1) as f64;
    v.insert(
        "serve.parse_request_us",
        spans.mean_ms("bench.parse_request") * 1e3,
    );
    v.insert("instance.build_ms", spans.mean_ms("bench.instance_build"));
    v.insert("instance.rebuild_tasks", pass.rebuild_tasks as f64);
    v.insert("policy.run_ms", spans.mean_ms("bench.policy_run"));
    v.insert("sim.simulate_ms", spans.mean_ms("bench.simulate"));
    let solve_total: f64 = solves.iter().sum();
    v.insert(
        "policy.run_share",
        (spans.total_ms("bench.policy_run") + spans.total_ms("bench.simulate")) / solve_total,
    );
    for &name in POLICY_COUNTERS {
        v.insert(name, spans.counter("bench.policy_run", name) as f64);
    }
    insert_columns(&mut v, &pass.columns, solved);
    v.insert(
        "schedule.validate_ms",
        spans.mean_ms("bench.schedule_validate"),
    );
    v.insert("wf.feasible_ms", spans.mean_ms("bench.feasible"));
    v.insert(
        "wf.tree_visits_per_task",
        spans.counter("bench.feasible", "wf.tree_visits") as f64 / pass.wf_tasks.max(1) as f64,
    );
    v.insert("flow.witness_ms", spans.mean_ms("bench.flow_witness"));
    v.insert("bounds_ms", spans.mean_ms("bench.bounds"));
    v.insert("trace.overhead_frac", traced / plain - 1.0);
    emit(&mut report, &v);
    Ok(report)
}
