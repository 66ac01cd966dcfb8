//! The policy table behind the product surfaces: `msched` and
//! `msched serve` resolve policy names here — the core registry
//! ([`malleable_core::policy::all`]) followed by one more plain entry,
//! the brute-force `optimal` (which lives in `malleable-opt`, a crate the
//! core cannot depend on).

use malleable_core::error::ScheduleError;
use malleable_core::policy::{self, Clairvoyance, Policy, PolicyRun};
use malleable_opt::brute::optimal_schedule;
use malleable_opt::lp::OptError;

/// The exact optimum over all `n!` completion orders (small `n` only;
/// identical machines only).
const OPTIMAL: Policy = Policy {
    name: "optimal",
    description: "exact optimum over all n! completion orders (brute force, small n)",
    clairvoyance: Clairvoyance::Clairvoyant,
    heterogeneous: false,
    online: None,
    run: |instance, _| match optimal_schedule(instance) {
        Ok(opt) => Ok(PolicyRun::from(opt.schedule)),
        Err(OptError::Schedule(e)) => Err(e),
        Err(e) => Err(ScheduleError::InvalidInstance {
            reason: e.to_string(),
        }),
    },
};

/// Every policy a user can name, in display order.
pub fn all() -> Vec<Policy> {
    let mut table = policy::all();
    table.push(OPTIMAL);
    table
}

/// Look a policy up by name, `optimal` included.
pub fn by_name(name: &str) -> Option<Policy> {
    all().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_extends_the_core_table() {
        let names: Vec<_> = all().iter().map(|p| p.name).collect();
        assert_eq!(names[..names.len() - 1], policy::names()[..]);
        assert_eq!(by_name("optimal").unwrap().name, "optimal");
        assert!(by_name("no-such-policy").is_none());
    }

    #[test]
    fn optimal_reports_oversized_instances_as_schedule_errors() {
        let mut b = malleable_core::instance::Instance::builder(2.0);
        for _ in 0..=malleable_opt::brute::MAX_EXHAUSTIVE_N {
            b = b.task(1.0, 1.0, 1.0);
        }
        let err = OPTIMAL.run(&b.build().unwrap()).unwrap_err();
        assert!(err.to_string().contains("exhaustive limit"), "{err}");
    }
}
