//! Release-mode end-to-end scale smoke for the product path: `msched
//! <file>` on an `IntegerUniform { n: 10⁵, p: 64 }` instance must finish
//! inside a loose wall budget. The default policy (`wdeq`) reports
//! completions without building its `Θ(n²)` columns, so the run stays
//! near-linear in time and memory. The printed completions are checked
//! against the Theorem 8 oracle. Ignored under debug builds, like
//! `tests/scale_smoke.rs`; run it with
//! `cargo test -q --release -p malleable-bench --test msched_scale`.

use malleable_core::algos::waterfill_fast::wf_feasible_grouped;
use malleable_core::io::write_instance;
use malleable_workloads::{generate, Spec};
use std::process::Command;
use std::time::{Duration, Instant};

#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock budget only meaningful in release builds"
)]
#[test]
fn msched_schedules_a_hundred_thousand_tasks_in_budget() {
    let n = 100_000;
    let instance = generate(&Spec::IntegerUniform { n, p: 64 }, 7);
    let dir = std::env::temp_dir().join(format!("msched-scale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("n100000.txt");
    std::fs::write(&file, write_instance(&instance)).unwrap();

    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_msched"))
        .arg(&file)
        .output()
        .expect("msched runs");
    let wall = start.elapsed();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        out.status.success(),
        "msched failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        wall < Duration::from_secs(20),
        "msched took {wall:?} for n = {n}"
    );

    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let completions: Vec<f64> = stdout
        .lines()
        .filter_map(|l| l.split(" completes at ").nth(1))
        .map(|c| c.parse().expect("completion parses"))
        .collect();
    assert_eq!(completions.len(), n);
    assert!(
        wf_feasible_grouped(&instance, &completions).unwrap(),
        "Theorem 8 oracle rejects the printed completions"
    );
}
