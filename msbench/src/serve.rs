//! The `serve-mixed` workload: a seeded open-loop Poisson stream of
//! `submit` and `schedule` requests into `msched serve --shards 2`.
//!
//! Tenants have bounded lifecycles: each receives 16–256 tasks
//! (log-uniform), is scheduled along the way, and is retired after 1–3
//! schedules of its full instance, replaced by a fresh name. About a
//! quarter of tenants stream arrivals and are solved online by the
//! daemon's simulator; the rest use `wf-fast` or `deq` from the
//! registry. The stream is split over two connections, each
//! driven by one thread that sends on schedule without waiting for
//! replies (the daemon answers each connection in order).

use crate::stats::{children_peak_rss_mb, median, tail};
use crate::{instance_seed, Report, SETUPS};
use malleable_bench::jsonin::{self, Json};
use malleable_core::instance::Instance;
use malleable_core::policy;
use malleable_core::schedule::column::ColumnSchedule;
use malleable_workloads::{generate, Spec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Base request rate (requests per second over both connections).
pub const BASE_RPS: f64 = 100.0;
/// Fixed rates tried for `max_rate_rps`, in ascending order.
pub const LADDER_RPS: &[f64] = &[400.0, 1200.0, 6000.0];
/// Latency limit of a rate: p99 of both verbs within this many ms.
pub const LIMIT_MS: f64 = 100.0;
/// Client connections (and driving threads).
pub const CONNECTIONS: usize = 2;
/// Share of requests that are `schedule` (reads); the rest `submit`.
const SCHEDULE_SHARE: f64 = 0.15;
/// Tenants open at once per connection.
const OPEN_TENANTS: usize = 6;
/// Online rules for streaming tenants; registry policies for the rest.
const ONLINE: &[&str] = &["wdeq", "deq"];
// Not `wdeq` (its certificate can panic and take the daemon down) nor
// `greedy-smith` (the daemon rejects its over-P columns): see README.md.
const BATCH: &[&str] = &["wf-fast", "deq"];

/// Request verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Append one task to a tenant.
    Submit,
    /// Solve a tenant's current instance.
    Schedule,
}

/// One request of a stream.
pub struct Req {
    /// Due time, in seconds from the phase start.
    pub due: f64,
    /// Verb.
    pub verb: Verb,
    /// The request line, newline-terminated.
    pub line: String,
    /// Index of the tenant in [`Stream::tenants`].
    pub tenant: usize,
    /// Tasks the tenant holds once this request is handled.
    pub tasks: usize,
}

/// A tenant's generated tasks and how it is solved.
pub struct Tenant {
    /// Tenant key.
    pub name: String,
    /// Machine capacity.
    pub p: f64,
    /// Every task the tenant will receive: `(volume, weight, delta)`.
    pub tasks: Vec<(f64, f64, f64)>,
    /// Release times, parallel to `tasks`.
    pub arrivals: Vec<f64>,
    /// Policy named in its `schedule` requests.
    pub policy: &'static str,
}

impl Tenant {
    fn new(name: String, seed: u64, rng: &mut StdRng) -> Tenant {
        let n = (rng.random_range(16f64.ln()..256f64.ln())).exp().round() as usize;
        let streaming = rng.random_range(0.0..1.0) < 0.25;
        let (spec, names) = if streaming {
            (Spec::PoissonArrivals { n, rate: 8.0 }, ONLINE)
        } else {
            (Spec::IntegerUniform { n, p: 64 }, BATCH)
        };
        let policy = names[rng.random_range(0..names.len())];
        let inst = generate(&spec, seed);
        Tenant {
            name,
            p: inst.p,
            tasks: inst
                .tasks
                .iter()
                .map(|t| (t.volume, t.weight, t.delta))
                .collect(),
            arrivals: (0..inst.n())
                .map(|i| inst.arrival(malleable_core::instance::TaskId(i)))
                .collect(),
            policy,
        }
    }

    /// The tenant's instance after its first `k` tasks, built the way
    /// the daemon builds it.
    pub fn instance(&self, k: usize) -> Result<Instance, String> {
        let mut b = Instance::builder(self.p);
        for &(v, w, d) in &self.tasks[..k] {
            b = b.task(v, w, d);
        }
        if self.arrivals[..k].iter().any(|&r| r > 0.0) {
            b = b.arrivals(self.arrivals[..k].to_vec());
        }
        b.build().map_err(|e| e.to_string())
    }

    fn submit_line(&self, k: usize) -> String {
        let (v, w, d) = self.tasks[k];
        let mut line = format!(
            "{{\"op\":\"submit\",\"tenant\":\"{}\",\"volume\":{v:?},\"weight\":{w:?},\"delta\":{d:?}",
            self.name
        );
        if k == 0 {
            line.push_str(&format!(",\"p\":{:?}", self.p));
        }
        if self.arrivals[k] > 0.0 {
            line.push_str(&format!(",\"arrival\":{:?}", self.arrivals[k]));
        }
        line.push_str("}\n");
        line
    }
}

/// The requests one connection sends in one phase.
pub struct Stream {
    /// Requests in due order.
    pub reqs: Vec<Req>,
    /// Every tenant the requests name.
    pub tenants: Vec<Tenant>,
}

/// Generate the stream of connection `conn` in phase `phase`: Poisson
/// arrivals at `rate / CONNECTIONS` for `duration` seconds.
pub fn stream(seed: u64, phase: u64, conn: usize, rate: f64, duration: f64) -> Stream {
    let stream_seed = instance_seed(seed, 1_000 * phase + conn as u64);
    let mut rng = StdRng::seed_from_u64(stream_seed);
    let mut tenants = Vec::new();
    let new_tenant = |tenants: &mut Vec<Tenant>, rng: &mut StdRng| {
        let k = tenants.len();
        let name = format!("s{seed}-p{phase}-c{conn}-t{k}");
        tenants.push(Tenant::new(name, instance_seed(stream_seed, k as u64), rng));
        k
    };
    // Open tenants: (index, tasks submitted, full-instance schedules left).
    let mut open: Vec<(usize, usize, u32)> = (0..OPEN_TENANTS)
        .map(|_| {
            (
                new_tenant(&mut tenants, &mut rng),
                0,
                rng.random_range(1..=3u32),
            )
        })
        .collect();
    let per_conn = rate / CONNECTIONS as f64;
    let mut reqs = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = rng.random_range(1e-12..1.0);
        t -= u.ln() / per_conn;
        if t >= duration {
            break;
        }
        let want_schedule = rng.random_range(0.0..1.0) < SCHEDULE_SHARE;
        let growing: Vec<usize> = (0..open.len())
            .filter(|&s| open[s].1 < tenants[open[s].0].tasks.len())
            .collect();
        let started: Vec<usize> = (0..open.len()).filter(|&s| open[s].1 > 0).collect();
        let schedule = (want_schedule && !started.is_empty()) || growing.is_empty();
        let slot = if schedule {
            started[rng.random_range(0..started.len())]
        } else {
            growing[rng.random_range(0..growing.len())]
        };
        let (ti, k, left) = open[slot];
        let tenant = &tenants[ti];
        if schedule {
            reqs.push(Req {
                due: t,
                verb: Verb::Schedule,
                line: format!(
                    "{{\"op\":\"schedule\",\"tenant\":\"{}\",\"policy\":\"{}\"}}\n",
                    tenant.name, tenant.policy
                ),
                tenant: ti,
                tasks: k,
            });
            if k == tenant.tasks.len() {
                if left <= 1 {
                    open[slot] = (
                        new_tenant(&mut tenants, &mut rng),
                        0,
                        rng.random_range(1..=3u32),
                    );
                } else {
                    open[slot].2 -= 1;
                }
            }
        } else {
            reqs.push(Req {
                due: t,
                verb: Verb::Submit,
                line: tenant.submit_line(k),
                tenant: ti,
                tasks: k + 1,
            });
            open[slot].1 += 1;
        }
    }
    Stream { reqs, tenants }
}

/// A running `msched serve` child.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon's later status lines have a reader.
    _stdout: BufReader<ChildStdout>,
    /// The loopback address it listens on.
    pub addr: String,
}

impl Daemon {
    /// Start `msched serve --shards 2` on a free loopback port.
    pub fn boot(msched: &Path, trace: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(msched);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--shards", "2"]);
        if let Some(path) = trace {
            cmd.arg("--trace").arg(path);
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start msched serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let Some(addr) = line.trim().strip_prefix("serve: listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("msched serve did not come up (printed {line:?})"));
        };
        Ok(Daemon {
            addr: addr.to_string(),
            child,
            _stdout: stdout,
        })
    }

    /// One request on a fresh connection; the raw response line.
    pub fn request(&self, line: &str) -> Result<String, String> {
        malleable_bench::serve::Client::connect(&self.addr)?.request_raw(line)
    }

    /// Ask the daemon to drain and exit, and wait for it.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.request("{\"op\":\"shutdown\"}")?;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("msched serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("msched serve did not drain within 60 s".into()),
                Err(e) => return Err(format!("cannot wait for msched serve: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached with the child still running only on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What one connection saw in one phase.
pub struct ConnResult {
    /// Send time of each sent request (seconds from the phase start).
    pub sent_at: Vec<f64>,
    /// Arrival time of each response, in request order.
    pub answered_at: Vec<f64>,
    /// Raw response lines, in request order.
    pub responses: Vec<String>,
    /// True when sending stopped early because the backlog grew past the
    /// cap (the rate is over capacity).
    pub overloaded: bool,
}

/// Drive one connection: send each request when due, never waiting for
/// replies, and read replies as they come. Stops sending once more than
/// `max_outstanding` requests are unanswered.
pub fn drive(
    addr: &str,
    reqs: &[Req],
    start: Instant,
    max_outstanding: usize,
) -> Result<ConnResult, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
    let mut reader = BufReader::with_capacity(
        1 << 16,
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone: {e}"))?,
    );
    let mut out = ConnResult {
        sent_at: Vec::with_capacity(reqs.len()),
        answered_at: Vec::with_capacity(reqs.len()),
        responses: Vec::with_capacity(reqs.len()),
        overloaded: false,
    };
    let last_due = reqs.last().map_or(0.0, |r| r.due);
    let deadline = last_due + 60.0;
    let mut buf = Vec::new();
    loop {
        let mut now = start.elapsed().as_secs_f64();
        while let Some(req) = reqs.get(out.sent_at.len()) {
            if req.due > now || out.overloaded {
                break;
            }
            if out.sent_at.len() - out.answered_at.len() >= max_outstanding {
                out.overloaded = true;
                break;
            }
            stream
                .write_all(req.line.as_bytes())
                .map_err(|e| format!("cannot send: {e}"))?;
            now = start.elapsed().as_secs_f64();
            out.sent_at.push(now);
        }
        let done_sending = out.overloaded || out.sent_at.len() == reqs.len();
        if done_sending && out.answered_at.len() == out.sent_at.len() {
            return Ok(out);
        }
        if now > deadline {
            return Err("responses still missing 60 s after the last request".into());
        }
        let wait = match reqs.get(out.sent_at.len()) {
            Some(req) if !done_sending => (req.due - now).max(50e-6),
            _ => 0.05,
        };
        stream
            .set_read_timeout(Some(Duration::from_secs_f64(wait)))
            .map_err(|e| format!("cannot set a read timeout: {e}"))?;
        // At most one read per pass, so a reply arriving in pieces never
        // holds back a send that has fallen due.
        let chunk = match reader.fill_buf() {
            Ok([]) => return Err("daemon closed the connection".into()),
            Ok(chunk) => chunk,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => return Err(format!("cannot read a response: {e}")),
        };
        let (used, complete) = match chunk.iter().position(|&b| b == b'\n') {
            Some(end) => (end + 1, true),
            None => (chunk.len(), false),
        };
        buf.extend_from_slice(&chunk[..used]);
        reader.consume(used);
        if complete {
            out.answered_at.push(start.elapsed().as_secs_f64());
            out.responses
                .push(String::from_utf8_lossy(&std::mem::take(&mut buf)).into_owned());
        }
    }
}

/// One phase at a fixed rate: its streams and what each connection saw.
pub struct Phase {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Per-connection streams.
    pub streams: Vec<Stream>,
    /// Per-connection results, parallel to `streams`.
    pub results: Vec<ConnResult>,
}

/// Generate the streams of phase `phase` at `rate` for `duration` s.
pub fn phase_streams(seed: u64, phase: u64, rate: f64, duration: f64) -> Vec<Stream> {
    (0..CONNECTIONS)
        .map(|c| stream(seed, phase, c, rate, duration))
        .collect()
}

/// Run a phase: one thread per connection (this one and one more).
pub fn run_phase(addr: &str, rate: f64, streams: Vec<Stream>) -> Result<Phase, String> {
    // Unanswered requests worth two latency limits mean the backlog grows.
    let max_outstanding = ((rate / CONNECTIONS as f64) * 2.0 * LIMIT_MS / 1e3).ceil() as usize + 8;
    let start = Instant::now();
    let (first, rest) = streams.split_first().expect("at least one connection");
    let results = std::thread::scope(|s| {
        let others: Vec<_> = rest
            .iter()
            .map(|st| s.spawn(move || drive(addr, &st.reqs, start, max_outstanding)))
            .collect();
        let mut results = vec![drive(addr, &first.reqs, start, max_outstanding)];
        for h in others {
            results.push(h.join().expect("load generator thread panicked"));
        }
        results
    });
    Ok(Phase {
        rate,
        results: results.into_iter().collect::<Result<_, _>>()?,
        streams,
    })
}

/// Latencies (ms, from due time) of one verb's answered requests.
pub fn latencies(phase: &Phase, verb: Verb) -> Vec<f64> {
    let mut v = Vec::new();
    for (st, res) in phase.streams.iter().zip(&phase.results) {
        for (req, at) in st.reqs.iter().zip(&res.answered_at) {
            if req.verb == verb {
                v.push((at - req.due) * 1e3);
            }
        }
    }
    v
}

/// Largest send lag of the generator (ms behind the due time).
pub fn max_lag_ms(phase: &Phase) -> f64 {
    phase
        .streams
        .iter()
        .zip(&phase.results)
        .flat_map(|(st, res)| st.reqs.iter().zip(&res.sent_at).map(|(r, s)| s - r.due))
        .fold(0.0, f64::max)
        * 1e3
}

/// Does the phase meet the latency limit with no growing backlog?
pub fn meets_limit(phase: &Phase) -> bool {
    phase.results.iter().all(|r| !r.overloaded)
        && [Verb::Submit, Verb::Schedule]
            .iter()
            .all(|&v| tail(&latencies(phase, v), 0.99).0 <= LIMIT_MS)
}

/// Tasks the daemon accepted per second in `phase`: submits answered,
/// over the time from the phase start to its last response.
pub fn tasks_per_s(phase: &Phase) -> f64 {
    let submits = latencies(phase, Verb::Submit).len();
    let end = phase
        .results
        .iter()
        .filter_map(|r| r.answered_at.last())
        .fold(0.0, |a: f64, &b| a.max(b));
    submits as f64 / end
}

/// Solve a tenant instance the way the daemon does.
pub fn solve(instance: &Instance, name: &str) -> Result<ColumnSchedule, String> {
    if instance.has_arrivals() {
        let mut p = malleable_sim::policies::by_name::<f64>(name)
            .ok_or_else(|| format!("no online policy {name:?}"))?;
        let run = malleable_sim::simulate(instance, p.as_mut()).map_err(|e| e.to_string())?;
        return Ok(run.schedule);
    }
    let p = policy::by_name::<f64>(name).ok_or_else(|| format!("no policy {name:?}"))?;
    p.run(instance)
        .map(|r| r.schedule)
        .map_err(|e| e.to_string())
}

/// Check every response of a phase; count each request as one attempt.
/// Sent requests without a response count as failed.
pub fn check_phase(phase: &Phase, report: &mut Report) {
    for (st, res) in phase.streams.iter().zip(&phase.results) {
        for (i, req) in st.reqs.iter().take(res.sent_at.len()).enumerate() {
            report.attempted += 1;
            let verdict = match res.responses.get(i) {
                None => Err("no response".to_string()),
                Some(raw) => check_response(req, &st.tenants[req.tenant], raw),
            };
            if let Err(e) = verdict {
                report.fail(format!("{}: {e}", req.line.trim()));
            }
        }
    }
}

fn check_response(req: &Req, tenant: &Tenant, raw: &str) -> Result<(), String> {
    let resp = jsonin::parse(raw.trim()).map_err(|e| format!("response is not JSON: {e}"))?;
    if resp.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("daemon answered {}", raw.trim()));
    }
    let count = |key: &str| resp.get(key).and_then(Json::as_f64);
    match req.verb {
        Verb::Submit => {
            if count("tasks") != Some(req.tasks as f64) {
                return Err(format!("expected {} tasks, got {}", req.tasks, raw.trim()));
            }
        }
        Verb::Schedule => {
            if count("n") != Some(req.tasks as f64) {
                return Err(format!("expected n = {}, got {}", req.tasks, raw.trim()));
            }
            let got: Vec<f64> = resp
                .get("completions")
                .and_then(Json::as_array)
                .ok_or("no completions")?
                .iter()
                .map(|c| c.as_f64().unwrap_or(f64::NAN))
                .collect();
            let want = solve(&tenant.instance(req.tasks)?, tenant.policy)?;
            let same = got.len() == want.completions.len()
                && got
                    .iter()
                    .zip(&want.completions)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                return Err(format!(
                    "completions of tenant {} differ from the in-process {} solve",
                    tenant.name, tenant.policy
                ));
            }
        }
    }
    Ok(())
}

/// Seconds of the base phase, out of `seconds` in all; the rest is the
/// rate ladder.
pub fn base_seconds(seconds: f64) -> f64 {
    seconds * 0.8
}

/// The untraced end-to-end run of `serve-mixed`.
pub fn run(msched: &Path, seed: u64, seconds: f64) -> Result<Report, String> {
    let base_s = base_seconds(seconds);
    let rung_s = (seconds - base_s) / LADDER_RPS.len() as f64;
    // Set-up: generate every phase's stream and boot the daemon. Done
    // SETUPS times (all daemons but the last are shut down again) and the
    // median reported.
    let mut setups = Vec::new();
    let mut booted = None;
    for round in 0..SETUPS {
        let t = Instant::now();
        let base = phase_streams(seed, 0, BASE_RPS, base_s);
        let ladder: Vec<_> = LADDER_RPS
            .iter()
            .enumerate()
            .map(|(i, &r)| phase_streams(seed, 1 + i as u64, r, rung_s))
            .collect();
        let daemon = Daemon::boot(msched, None)?;
        setups.push(t.elapsed().as_secs_f64());
        if round + 1 < SETUPS {
            daemon.shutdown()?;
        } else {
            booted = Some((daemon, base, ladder));
        }
    }
    let (daemon, base, ladder) = booted.expect("the last round boots the daemon");

    let base = run_phase(&daemon.addr, BASE_RPS, base)?;
    let mut max_rate = if meets_limit(&base) { BASE_RPS } else { 0.0 };
    let mut phases = Vec::new();
    for (&rate, streams) in LADDER_RPS.iter().zip(ladder) {
        if max_rate < BASE_RPS {
            break;
        }
        let phase = run_phase(&daemon.addr, rate, streams)?;
        let ok = meets_limit(&phase);
        phases.push(phase);
        if !ok {
            break;
        }
        max_rate = rate;
    }
    daemon.shutdown()?;
    let peak_rss_mb = children_peak_rss_mb();

    let mut report = Report::default();
    check_phase(&base, &mut report);
    for p in &phases {
        check_phase(p, &mut report);
    }

    let submit = latencies(&base, Verb::Submit);
    let schedule = latencies(&base, Verb::Schedule);
    let all: Vec<f64> = submit.iter().chain(&schedule).map(|ms| ms / 1e3).collect();
    let (submit_tail, submit_q) = tail(&submit, 0.99);
    let (schedule_tail, schedule_q) = tail(&schedule, 0.90);
    report.note(format!(
        "base {BASE_RPS} rps: {} submits (p99 = q{submit_q:.3}), {} schedules \
         (p90 = q{schedule_q:.3}); generator lag max {:.2} ms",
        submit.len(),
        schedule.len(),
        max_lag_ms(&base)
    ));
    for p in &phases {
        report.note(format!(
            "ladder {} rps: submit p99 {:.2} ms, schedule p99 {:.2} ms, overloaded {}",
            p.rate,
            tail(&latencies(p, Verb::Submit), 0.99).0,
            tail(&latencies(p, Verb::Schedule), 0.99).0,
            p.results.iter().any(|r| r.overloaded)
        ));
    }
    report.metric("setup_s", median(&setups), "s");
    report.metric("wall_s.p50", median(&all), "s");
    report.metric(
        "tasks_per_s",
        tasks_per_s(
            phases
                .iter()
                .rev()
                .find(|p| meets_limit(p))
                .unwrap_or(&base),
        ),
        "1/s",
    );
    report.metric("peak_rss_mb", peak_rss_mb, "MiB");
    report.metric("submit_ms.p50", median(&submit), "ms");
    report.metric("submit_ms.p99", submit_tail, "ms");
    report.metric("schedule_ms.p50", median(&schedule), "ms");
    report.metric("schedule_ms.p90", schedule_tail, "ms");
    report.metric("max_rate_rps", max_rate, "1/s");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_responses_must_match_the_in_process_solve_bit_for_bit() {
        let st = stream(3, 0, 0, 400.0, 2.0);
        let req = st
            .reqs
            .iter()
            .find(|r| r.verb == Verb::Schedule && r.tasks >= 4)
            .expect("a schedule request");
        let tenant = &st.tenants[req.tenant];
        let want = solve(&tenant.instance(req.tasks).unwrap(), tenant.policy).unwrap();
        let response = |c: &[f64]| {
            let list: Vec<String> = c.iter().map(|x| format!("{x:?}")).collect();
            format!(
                "{{\"ok\":true,\"n\":{},\"completions\":[{}]}}",
                req.tasks,
                list.join(",")
            )
        };
        assert!(check_response(req, tenant, &response(&want.completions)).is_ok());
        let mut shrunk = want.completions.clone();
        shrunk[req.tasks / 2] *= 0.99;
        assert!(check_response(req, tenant, &response(&shrunk)).is_err());
        let refused = "{\"ok\":false,\"error\":\"invalid schedule\"}";
        assert!(check_response(req, tenant, refused).is_err());
    }
}
