//! Non-clairvoyant allocation policies — one generic adapter over the
//! canonical rules in [`malleable_core::policy::rules`].
//!
//! The algorithm logic (Algorithm 1's equipartition, its ablations, the
//! priority baseline) lives exactly once, in the core policy layer; here
//! [`RuleAdapter`] puts any [`AllocationRule`] behind the engine's
//! [`OnlinePolicy`] interface so it runs under the genuinely
//! non-clairvoyant event loop of [`crate::engine::simulate`] — which
//! independently re-validates every allocation the rule emits. Which
//! policies can run online is read from the core registry: [`by_name`]
//! resolves exactly the entries whose `online` rule is set (WDEQ, DEQ,
//! weighted share without redistribution, and the priority baseline).
//! Integration tests check the online runs against the core's clairvoyant
//! replays of the *same* rules.

use crate::engine::{OnlinePolicy, TaskView};
use malleable_core::policy::{self, ActiveTask, AllocationRule};
use numkit::Scalar;

/// An allocation rule run as an online policy: each event translates the
/// engine's observable views into the rule's input and delegates. Generic
/// over the scalar like the rules themselves, so it drives exact
/// simulations as readily as `f64` ones.
#[derive(Debug, Clone, Copy)]
pub struct RuleAdapter<'a, R: ?Sized>(pub &'a R);

impl<S: Scalar, R: AllocationRule<S> + ?Sized> OnlinePolicy<S> for RuleAdapter<'_, R> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn allocate(&mut self, _now: &S, active: &[TaskView<S>], p: &S) -> Vec<S> {
        let views: Vec<ActiveTask<S>> = active
            .iter()
            .map(|v| ActiveTask {
                id: v.id,
                weight: v.weight.clone(),
                cap: v.delta.clone(),
                processed: v.processed.clone(),
            })
            .collect();
        self.0.rates(&views, p)
    }
}

/// Look up the online policy of a registry entry by name. Returns `None`
/// for unknown names and for entries without an `online` rule (the
/// clairvoyant solvers, which cannot run against streaming arrivals).
pub fn by_name<S: Scalar>(name: &str) -> Option<Box<dyn OnlinePolicy<S>>> {
    let rule = policy::by_name::<S>(name)?.online?;
    Some(Box::new(RuleAdapter(rule)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use malleable_core::algos::wdeq::wdeq_schedule;
    use malleable_core::instance::Instance;
    use malleable_core::policy::rules::{
        replay, DeqRule, PriorityRule, ShareNoRedistributionRule, WdeqRule,
    };

    fn inst() -> Instance {
        Instance::builder(4.0)
            .task(8.0, 1.0, 2.0)
            .task(4.0, 2.0, 4.0)
            .task(2.0, 4.0, 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn online_wdeq_matches_clairvoyant_replay() {
        let i = inst();
        let online = simulate(&i, &mut RuleAdapter(&WdeqRule)).unwrap();
        let offline = wdeq_schedule(&i);
        for (a, b) in online.schedule.completions.iter().zip(&offline.completions) {
            assert!((a - b).abs() < 1e-9, "online {a} vs offline {b}");
        }
    }

    /// The registry's online entries, in registry order.
    fn online_entries() -> Vec<policy::Policy<f64>> {
        policy::all::<f64>()
            .into_iter()
            .filter(|p| p.online.is_some())
            .collect()
    }

    #[test]
    fn all_policies_produce_valid_schedules() {
        let i = inst();
        for entry in online_entries() {
            let mut p = by_name::<f64>(entry.name).unwrap();
            let r = simulate(&i, p.as_mut()).unwrap();
            r.schedule
                .validate(&i)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
        }
    }

    #[test]
    fn every_adapter_agrees_with_its_core_replay() {
        // The same rule, run online (engine hides volumes) and replayed
        // clairvoyantly in core, must produce identical completion times —
        // the structural proof that sim holds no algorithm logic of its
        // own.
        let i = inst();
        let entries = online_entries();
        assert_eq!(entries.len(), 4, "wdeq, deq, share, priority");
        for entry in entries {
            let rule = entry.online.unwrap();
            let mut online = by_name::<f64>(entry.name).unwrap();
            let sim = simulate(&i, online.as_mut()).unwrap();
            let core = replay(&i, rule).unwrap();
            for (a, b) in sim.schedule.completions.iter().zip(&core.completions) {
                assert!((a - b).abs() < 1e-9, "{}: {a} vs {b}", online.name());
            }
        }
    }

    #[test]
    fn exact_online_run_matches_exact_replay() {
        // The adapters are generic: the same WDEQ rule, run under the
        // exact engine, reproduces the exact clairvoyant replay — with
        // `==`, not a tolerance.
        use bigratio::Rational;
        let q = Rational::from_f64_exact;
        let i = malleable_core::instance::Instance::<Rational>::builder(q(4.0))
            .task(q(8.0), q(1.0), q(2.0))
            .task(q(4.0), q(2.0), q(4.0))
            .task(q(2.0), q(4.0), q(1.0))
            .build()
            .unwrap();
        let online = simulate(&i, &mut RuleAdapter(&WdeqRule)).unwrap();
        online.schedule.validate(&i).unwrap(); // zero tolerance
        let offline = replay(&i, &WdeqRule).unwrap();
        assert_eq!(online.schedule.completions, offline.completions);
    }

    #[test]
    fn registry_resolves_exactly_the_online_entries() {
        for entry in policy::all::<f64>() {
            match by_name::<f64>(entry.name) {
                Some(p) => assert_eq!(p.name(), entry.name),
                None => assert!(entry.online.is_none(), "{} missing", entry.name),
            }
        }
        assert!(by_name::<f64>("optimal").is_none());
        assert!(by_name::<f64>("greedy-smith").is_none());
    }

    #[test]
    fn deq_ignores_weights() {
        // Same caps/volumes, very different weights: DEQ treats them alike.
        let i = Instance::builder(2.0)
            .task(1.0, 100.0, 1.0)
            .task(1.0, 0.01, 1.0)
            .build()
            .unwrap();
        let r = simulate(&i, &mut RuleAdapter(&DeqRule)).unwrap();
        assert!((r.schedule.completions[0] - r.schedule.completions[1]).abs() < 1e-9);
    }

    #[test]
    fn redistribution_beats_naive_share() {
        // T0's cap binds hard; WDEQ hands the surplus to T1, the naive
        // share wastes it.
        let i = Instance::builder(10.0)
            .task(1.0, 9.0, 1.0) // heavy but capped at 1
            .task(9.0, 1.0, 10.0)
            .build()
            .unwrap();
        let wdeq = simulate(&i, &mut RuleAdapter(&WdeqRule)).unwrap().cost(&i);
        let naive = simulate(&i, &mut RuleAdapter(&ShareNoRedistributionRule))
            .unwrap()
            .cost(&i);
        assert!(
            wdeq < naive - 1e-9,
            "redistribution should help: wdeq {wdeq} vs naive {naive}"
        );
    }

    #[test]
    fn priority_serves_heaviest_first() {
        let i = Instance::builder(1.0)
            .task(1.0, 1.0, 1.0)
            .task(1.0, 5.0, 1.0)
            .build()
            .unwrap();
        let r = simulate(&i, &mut RuleAdapter(&PriorityRule)).unwrap();
        assert!((r.schedule.completions[1] - 1.0).abs() < 1e-9);
        assert!((r.schedule.completions[0] - 2.0).abs() < 1e-9);
    }
}
