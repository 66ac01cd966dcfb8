//! `msbench` — the product-path benchmark.
//!
//! ```text
//! msbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --msched <path>
//! ```
//!
//! Workloads: `cli-wdeq` and `cli-lmax` run `msched <file>` as a child
//! process; `serve-mixed` drives `msched serve` over loopback with
//! an open-loop request stream. With `--trace 0` the run measures the
//! end-to-end metrics; with `--trace 1` it times each layer in-process
//! instead (see `layers`). Every run checks every output. The last line
//! of stdout is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (`{"name": {"value": v, "unit": u}}`). `run.sh` builds
//! `msched` and this binary and passes `--msched`.

mod check;
mod cli;
mod layers;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Counts and metrics of one run.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (msched runs, daemon requests, oracle checks).
    pub attempted: u64,
    /// Operations that failed or whose output failed a check.
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    /// Record a metric (printed in insertion order).
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Record a human-readable note (printed before the result line).
    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// Count one failed operation, keeping the first few reasons.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 5 {
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// End-to-end metrics, as `BENCHMARK.json` lists them: every untraced
/// run reports each of them.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "wall_s.p50",
    "tasks_per_s",
    "peak_rss_mb",
    "ok_frac",
    "submit_ms.p50",
    "submit_ms.p99",
    "schedule_ms.p50",
    "schedule_ms.p90",
    "max_rate_rps",
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// Seed of the `k`-th instance (or tenant) of a run with seed `seed`.
pub fn instance_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    msched: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut msched = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--msched" => msched = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
        msched: msched.ok_or("missing --msched")?,
    })
}

fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    if !args.msched.is_file() {
        return Err(format!("no msched binary at {}", args.msched.display()));
    }
    let mut report = if let Some(w) = cli::CliWorkload::by_name(&args.workload) {
        if args.trace {
            layers::run_cli(&w, &args.msched, args.seed, dir)?
        } else {
            cli::run(&w, &args.msched, args.seed, args.seconds, dir)?
        }
    } else if args.workload == "serve-mixed" {
        if args.trace {
            layers::run_serve(&args.msched, args.seed, args.seconds, dir)?
        } else {
            serve::run(&args.msched, args.seed, args.seconds)?
        }
    } else {
        return Err(format!(
            "unknown workload {:?} (cli-wdeq, cli-lmax, serve-mixed)",
            args.workload
        ));
    };
    let ok_frac = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    let expected: Vec<&str> = if args.trace {
        report.metric("failed_frac", 1.0 - ok_frac, "fraction");
        layers::PER_LAYER
            .iter()
            .map(|(name, _)| *name)
            .chain(["failed_frac"])
            .collect()
    } else {
        report.metric("ok_frac", ok_frac, "fraction");
        END_TO_END.to_vec()
    };
    let mut got: Vec<&str> = report.metrics.iter().map(|(name, _, _)| *name).collect();
    let mut want = expected.clone();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!("reported metrics {got:?}, expected {want:?}"));
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("msbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch files live inside the working directory (the checkout) and
    // are removed when the run ends.
    let dir = PathBuf::from(".msbench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("msbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".msbench_work");
    match result {
        Ok(report) => {
            for note in &report.notes {
                println!("# {note}");
            }
            if report.metrics.iter().any(|(_, v, _)| !v.is_finite()) {
                eprintln!("msbench: a metric is not finite; no result");
                return ExitCode::FAILURE;
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("msbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleable_bench::jsonin::{parse, Json};

    fn names(section: &Json) -> Vec<(String, String)> {
        section
            .as_array()
            .expect("a list of metrics")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let spec = parse(&text).expect("BENCHMARK.json parses");
        let e2e: Vec<String> = names(spec.get("end_to_end").unwrap())
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(e2e, END_TO_END);
        let mut per_layer: Vec<(String, String)> = layers::PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        per_layer.push(("failed_frac".into(), "fraction".into()));
        assert_eq!(names(spec.get("per_layer").unwrap()), per_layer);
    }
}
