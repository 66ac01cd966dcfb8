//! Release-mode large-`n` smoke: the event-driven schedulers must chew
//! through `n = 10⁴` inside a hard wall-clock budget. Ignored under
//! debug builds (unoptimized exact arithmetic and debug asserts make the
//! budget meaningless there); CI runs it with
//! `cargo test -q --release --test scale_smoke`.
//!
//! The budgets are deliberately loose (release-mode measurements sit two
//! orders of magnitude below them) — this is a tripwire for accidental
//! quadratic regressions, not a benchmark; the fitted-exponent gate in
//! `exp_perf`/`bench_gate --scaling` owns the fine-grained curve.

use malleable::core::algos::waterfill_fast::wf_feasible_grouped_with_work;
use malleable::core::algos::wdeq::wdeq_completions;
use malleable::prelude::*;
use std::time::{Duration, Instant};

const N: usize = 10_000;

#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock budget only meaningful in release builds"
)]
#[test]
fn event_driven_lanes_handle_ten_thousand_tasks_in_budget() {
    for spec in [
        Spec::PaperUniform { n: N },
        Spec::PowerLawVolumes { n: N, alpha: 1.5 },
    ] {
        let instance = generate(&spec, 42);

        let start = Instant::now();
        let run = wdeq_completions(&instance).unwrap();
        let wdeq_wall = start.elapsed();
        assert!(
            wdeq_wall < Duration::from_secs(1),
            "{}: WDEQ took {wdeq_wall:?} for n = {N} — event lane regressed",
            spec.label()
        );
        // One completion event finishes ≥ 1 task, and simultaneous
        // finishes merge events.
        assert!(run.events <= N, "{}: {} events", spec.label(), run.events);
        assert!(run.completions.iter().all(|c| *c > 0.0));

        let start = Instant::now();
        let (feasible, work) = wf_feasible_grouped_with_work(&instance, &run.completions).unwrap();
        let wf_wall = start.elapsed();
        assert!(
            wf_wall < Duration::from_secs(5),
            "{}: grouped WF took {wf_wall:?} for n = {N}",
            spec.label()
        );
        assert!(
            feasible,
            "{}: WDEQ's own completion times must be WF-feasible",
            spec.label()
        );
        assert!(work > 0, "{}: work counter must move", spec.label());
    }
}

/// Definition-2 validation of a materialized WDEQ schedule at n = 2000
/// (~n²/2 column entries). A per-(task, column) `rate_of` scan is cubic
/// and takes seconds here; the transposed check is linear in entries.
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock budget only meaningful in release builds"
)]
#[test]
fn wdeq_column_schedule_validates_at_two_thousand_tasks_in_budget() {
    let n = 2_000;
    let instance = generate(&Spec::IntegerUniform { n, p: 64 }, 42);
    let schedule = wdeq_schedule(&instance);
    let start = Instant::now();
    schedule.validate(&instance).unwrap();
    let wall = start.elapsed();
    assert!(
        wall < Duration::from_secs(2),
        "validating WDEQ's columns took {wall:?} for n = {n}"
    );
}
