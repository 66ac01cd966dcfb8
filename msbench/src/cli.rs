//! The `cli-*` workloads: `msched <file>` as a child process, one
//! generated instance file per run.

use crate::check::check_cli;
use crate::stats::{children_peak_rss_mb, median, tail};
use crate::{instance_seed, Report, SETUPS};
use malleable_core::instance::Instance;
use malleable_core::io::write_instance;
use malleable_workloads::{generate, Spec};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// One `cli-*` workload: an instance family and the policy flag.
pub struct CliWorkload {
    /// Instance family, generated with `malleable_workloads::generate`.
    pub spec: Spec,
    /// `--policy` value; `None` runs `msched`'s default (`wdeq`).
    pub policy: Option<&'static str>,
    /// Distinct instances generated per run; runs cycle through them, at
    /// least one full pass.
    pub pool: usize,
    /// Files the traced run takes from the pool.
    pub traced: usize,
}

impl CliWorkload {
    /// The workload named `name`, if it is a `cli-*` one.
    pub fn by_name(name: &str) -> Option<CliWorkload> {
        Some(match name {
            "cli-wdeq" => CliWorkload {
                spec: Spec::IntegerUniform { n: 10_000, p: 64 },
                policy: None,
                pool: 16,
                traced: 2,
            },
            "cli-lmax" => CliWorkload {
                spec: Spec::PowerLawSpeeds {
                    n: 512,
                    machines: 16,
                    alpha: 1.0,
                },
                policy: Some("lmax-parametric-related"),
                // One pass is ~16 × 2 s: a run's median is over 16
                // instances, so a seed's instance mix moves it little.
                pool: 16,
                traced: 2,
            },
            _ => return None,
        })
    }

    /// The policy the run uses, by registry name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.unwrap_or("wdeq")
    }

    /// Generate the instance pool and write one file per instance.
    pub fn setup(&self, seed: u64, dir: &Path) -> Result<Vec<(PathBuf, Instance)>, String> {
        (0..self.pool)
            .map(|k| {
                let instance = generate(&self.spec, instance_seed(seed, k as u64));
                let path = dir.join(format!("instance-{k}.txt"));
                std::fs::write(&path, write_instance(&instance))
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                Ok((path, instance))
            })
            .collect()
    }
}

/// One finished `msched <file>` child.
pub struct ChildRun {
    /// Spawn to the first stdout line (`msched` prints the instance as
    /// soon as it is parsed and validated).
    pub loaded: Duration,
    /// Spawn to exit.
    pub wall: Duration,
    /// Everything the child printed on stdout.
    pub stdout: String,
    /// Exit status and stderr, when the child failed.
    pub error: Option<String>,
}

/// Run `msched <file> [--policy P]` to completion.
pub fn run_child(msched: &Path, file: &Path, policy: Option<&str>) -> Result<ChildRun, String> {
    let mut cmd = Command::new(msched);
    cmd.arg(file);
    if let Some(p) = policy {
        cmd.args(["--policy", p]);
    }
    let start = Instant::now();
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", msched.display()))?;
    let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut stdout = String::new();
    let first = out.read_line(&mut stdout);
    let loaded = start.elapsed();
    let rest = out.read_to_string(&mut stdout);
    let mut stderr = String::new();
    let _ = child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr);
    let status = child
        .wait()
        .map_err(|e| format!("cannot wait for msched: {e}"))?;
    let wall = start.elapsed();
    let error = if !status.success() {
        Some(format!("msched exited with {status}: {}", stderr.trim()))
    } else if let Err(e) = first.and(rest) {
        Some(format!("cannot read msched output: {e}"))
    } else {
        None
    };
    Ok(ChildRun {
        loaded,
        wall,
        stdout,
        error,
    })
}

/// The untraced end-to-end run of a `cli-*` workload.
pub fn run(
    w: &CliWorkload,
    msched: &Path,
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> Result<Report, String> {
    // Set up several times and report the median, so one slow file-system
    // moment does not read as a set-up regression.
    let mut setups = Vec::new();
    let mut pool = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        pool = w.setup(seed, dir)?;
        setups.push(t.elapsed().as_secs_f64());
    }

    // Outputs are kept once per distinct text: the benchmark's own memory
    // stays small, and with it the `ru_maxrss` a spawned child inherits
    // from its parent's address space before exec.
    let mut outputs: Vec<Vec<String>> = vec![Vec::new(); pool.len()];
    let mut verdict_of = Vec::new();
    let start = Instant::now();
    let mut runs = Vec::new();
    // At least one pass over the pool, so every instance is sampled.
    while runs.len() < pool.len() || start.elapsed().as_secs_f64() < seconds {
        let k = runs.len() % pool.len();
        let (path, _) = &pool[k];
        let mut run = run_child(msched, path, w.policy)?;
        let stdout = std::mem::take(&mut run.stdout);
        verdict_of.push(match run.error.take() {
            Some(e) => Err(e),
            None => Ok(match outputs[k].iter().position(|o| *o == stdout) {
                Some(i) => i,
                None => {
                    outputs[k].push(stdout);
                    outputs[k].len() - 1
                }
            }),
        });
        runs.push(run);
    }
    let peak_rss_mb = children_peak_rss_mb();

    // Checks, untimed, once per distinct output: every run counts, and a
    // failed one is never dropped.
    let checked: Vec<Vec<Result<(), String>>> = outputs
        .iter()
        .enumerate()
        .map(|(k, outs)| {
            outs.iter()
                .map(|o| check_cli(&pool[k].1, w.policy_name(), o))
                .collect()
        })
        .collect();
    let mut report = Report::default();
    for (i, v) in verdict_of.into_iter().enumerate() {
        report.attempted += 1;
        let verdict = v.and_then(|o| checked[i % pool.len()][o].clone());
        if let Err(e) = verdict {
            report.fail(e);
        }
    }

    // One sample per instance: the median over its runs, so the tails
    // are the slow instances rather than single slow process starts.
    let per_instance = |f: &dyn Fn(&ChildRun) -> f64| -> Vec<f64> {
        (0..pool.len())
            .map(|k| {
                let v: Vec<f64> = runs.iter().skip(k).step_by(pool.len()).map(f).collect();
                median(&v)
            })
            .collect()
    };
    let walls = per_instance(&|r| r.wall.as_secs_f64());
    let loads = per_instance(&|r| r.loaded.as_secs_f64() * 1e3);
    let solves = per_instance(&|r| (r.wall - r.loaded).as_secs_f64() * 1e3);
    let total_wall: f64 = runs.iter().map(|r| r.wall.as_secs_f64()).sum();
    let total_tasks: usize = (0..runs.len()).map(|k| pool[k % pool.len()].1.n()).sum();
    let (submit_tail, submit_q) = tail(&loads, 0.99);
    let (schedule_tail, schedule_q) = tail(&solves, 0.90);
    report.note(format!(
        "{} msched runs over {} instances; per-instance medians give \
         submit_ms.p99 as the q{submit_q:.3} quantile and schedule_ms.p90 as \
         the q{schedule_q:.3} quantile",
        runs.len(),
        walls.len()
    ));
    report.metric("setup_s", median(&setups), "s");
    report.metric("wall_s.p50", median(&walls), "s");
    report.metric("tasks_per_s", total_tasks as f64 / total_wall, "1/s");
    report.metric("peak_rss_mb", peak_rss_mb, "MiB");
    report.metric("submit_ms.p50", median(&loads), "ms");
    report.metric("submit_ms.p99", submit_tail, "ms");
    report.metric("schedule_ms.p50", median(&solves), "ms");
    report.metric("schedule_ms.p90", schedule_tail, "ms");
    report.metric("max_rate_rps", runs.len() as f64 / total_wall, "1/s");
    Ok(report)
}
