//! Golden pin of the policy registry's observable behaviour.
//!
//! Every policy that `policy::capable_for` admits is run on four small
//! fixtures — one per capacity model (identical, related, submodular,
//! restricted) — at `f64` and at exact `Rational`. The `f64` completions
//! are recorded with `{:?}` (which round-trips losslessly), the exact
//! ones in full, together with the certificate's lower bound where the
//! policy carries one. Every online entry (the names the simulator's
//! `policies::by_name` resolves) is also driven through
//! `malleable_sim::simulate` on a fixture with positive arrivals.
//!
//! The rendering comes from each policy's completions-only run
//! (`Output::Completions`, what `msched` asks for); the schedule-mode run
//! must return the same completions and certificate bound, bit for bit.
//!
//! The rendered text must equal `tests/golden/registry.txt` byte for
//! byte, so any refactor of the registry must leave every completion
//! time bit-identical. On a mismatch the actual rendering is written next
//! to the test binary's scratch directory for diffing.

use malleable::core::policy::{self, Output, PolicyRun};
use malleable::core::ScheduleError;
use malleable::prelude::*;
use numkit::Scalar;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/registry.txt");

/// One fixture per capacity model, all with `n ≤ 10`.
fn fixtures() -> Vec<(&'static str, Spec, u64)> {
    vec![
        ("identical", Spec::PaperUniform { n: 7 }, 11),
        (
            "related",
            Spec::PowerLawSpeeds {
                n: 7,
                machines: 4,
                alpha: 1.0,
            },
            12,
        ),
        (
            "submodular",
            Spec::SubmodularCoverage { n: 6, machines: 4 },
            13,
        ),
        (
            "restricted",
            Spec::RestrictedAssignment {
                n: 6,
                machines: 4,
                min_eligible: 1,
            },
            14,
        ),
    ]
}

/// Run `name` in completions mode and check that schedule mode returns
/// the same completions and certificate bound.
fn solve_both_modes<S: Scalar>(
    name: &str,
    inst: &Instance<S>,
) -> Result<PolicyRun<S>, ScheduleError> {
    let p = policy::by_name::<S>(name).unwrap();
    let lean = p.solve(inst, Output::Completions);
    let full = p.run(inst);
    match (&lean, full) {
        // Compared through `{:?}`, which pins every f64 bit.
        (Ok(lean), Ok(full)) => {
            assert_eq!(
                format!("{:?}", lean.completions),
                format!("{:?}", full.schedule.completions),
                "{name}"
            );
            assert_eq!(
                format!("{:?}", lean.certificate.as_ref().map(|c| &c.lower_bound)),
                format!("{:?}", full.certificate.as_ref().map(|c| &c.lower_bound)),
                "{name}"
            );
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{name}"),
        (lean, full) => panic!(
            "{name}: modes disagree on success: {:?} vs {:?}",
            lean.is_ok(),
            full.is_ok()
        ),
    }
    lean
}

fn render_exact(values: &[Rational]) -> String {
    let parts: Vec<String> = values.iter().map(ToString::to_string).collect();
    format!("[{}]", parts.join(", "))
}

fn render() -> String {
    let mut out = String::new();
    for (label, spec, seed) in fixtures() {
        let inst = generate(&spec, seed);
        let exact = inst.to_scalar::<Rational>();
        writeln!(
            out,
            "## {label} ({} seed={seed}, n={})",
            spec.label(),
            inst.n()
        )
        .unwrap();
        for name in policy::capable_for(&inst.machine) {
            match solve_both_modes(name, &inst) {
                Ok(run) => writeln!(
                    out,
                    "{name} f64 {:?} lb={:?}",
                    run.completions,
                    run.certificate.map(|c| c.lower_bound)
                ),
                Err(e) => writeln!(out, "{name} f64 error: {e}"),
            }
            .unwrap();
            match solve_both_modes(name, &exact) {
                Ok(run) => writeln!(
                    out,
                    "{name} exact {} lb={}",
                    render_exact(&run.completions),
                    run.certificate
                        .map_or_else(|| "None".to_string(), |c| c.lower_bound.to_string())
                ),
                Err(e) => writeln!(out, "{name} exact error: {e}"),
            }
            .unwrap();
        }
    }
    let spec = Spec::PoissonArrivals { n: 8, rate: 2.0 };
    let inst = generate(&spec, 15);
    assert!(inst.has_arrivals(), "the online fixture must stream");
    writeln!(out, "## online ({} seed=15, n={})", spec.label(), inst.n()).unwrap();
    for name in policy::names() {
        let Some(mut online) = malleable::sim::policies::by_name::<f64>(name) else {
            continue;
        };
        let run = malleable::sim::simulate(&inst, online.as_mut())
            .unwrap_or_else(|e| panic!("{name} failed online: {e}"));
        writeln!(
            out,
            "{name} online {:?} events={}",
            run.schedule.completions, run.events
        )
        .unwrap();
    }
    out
}

#[test]
fn registry_reproduces_the_golden_file() {
    let actual = render();
    if actual != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("registry.actual.txt");
        std::fs::write(&path, &actual).unwrap();
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "registry output drifted from tests/golden/registry.txt at line {}; \
             actual rendering written to {}",
            first + 1,
            path.display()
        );
    }
}
