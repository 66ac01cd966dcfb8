//! # malleable-bench — experiment harness
//!
//! Shared plumbing for the experiment binaries in `src/bin/` (one per
//! paper artifact; see `DESIGN.md` §6 for the experiment index) and the
//! criterion benchmarks in `benches/`:
//!
//! * [`batch`] — the batch-evaluation engine: declarative
//!   `(source × seed × policy)` grids over the
//!   [`malleable_core::policy`] registry, fanned across threads, emitting
//!   unified metrics records;
//! * [`table`] — aligned ASCII tables, the output format of every
//!   experiment binary;
//! * [`stats`] — summaries (mean/std/percentiles) over instance sweeps;
//! * [`parallel`] — a crossbeam-channel work pool for embarrassingly
//!   parallel seed sweeps (the §V-A campaign runs 40,000 LPs);
//! * [`certify`] — the exact-certification sweep: the smoke grid re-run
//!   at `bigratio::Rational` with zero-tolerance validation (CI-feasible
//!   since the fixed-limb fast path);
//! * [`csvout`] — plain CSV emission under `results/` so sweeps can be
//!   re-plotted without re-running;
//! * [`perf`] — warm-vs-cold parametric solver telemetry records and the
//!   `results/BENCH_parametric.json` writer (the `exp_perf` binary);
//! * [`jsonin`] — the matching reader for the crate's own JSON result
//!   files (no serde in the offline build);
//! * [`registry`] — the policy table `msched` and the daemon resolve
//!   names through: the core registry plus the brute-force `optimal`;
//! * [`regression`] — the CI bench-regression gate: per-policy tolerance
//!   bands over `BENCH_batch.json` vs the checked-in baseline (the
//!   `bench_gate` binary);
//! * [`serve`] — the `msched serve` daemon: a long-running scheduler
//!   service with per-tenant instances, streaming arrivals, and a
//!   newline-delimited JSON protocol over plain TCP.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod certify;
pub mod csvout;
pub mod jsonin;
pub mod parallel;
pub mod perf;
pub mod registry;
pub mod regression;
pub mod serve;
pub mod stats;
pub mod table;

/// Parse `--instances N` / `--full` style knobs shared by the experiment
/// binaries. `default` is used without flags; `--full` selects the paper's
/// original scale; `--instances N` overrides precisely.
pub fn instance_count(default: usize, full: usize) -> usize {
    if let Some(v) = arg_value("--instances").and_then(|s| s.parse().ok()) {
        return v;
    }
    if std::env::args().any(|a| a == "--full") {
        full
    } else {
        default
    }
}

/// The value following flag `name` on the command line — the shared
/// space-separated `--flag value` convention of the experiment binaries.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

#[cfg(test)]
mod tests {
    #[test]
    fn instance_count_default_path() {
        // No flags in the test harness invocation (cargo passes its own
        // args, none of which collide).
        let n = super::instance_count(7, 1000);
        assert!(n == 7 || n > 0);
    }
}
