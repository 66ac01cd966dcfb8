//! The named policy registry: policies are data, not code.
//!
//! [`all`] is the one table of [`Policy`] entries; every other function
//! here is a filter over it. Every consumer that used to hand-wire
//! algorithm calls (the `msched` CLI, the daemon, the experiment
//! binaries, the batch-evaluation engine, the online simulator) selects
//! policies from here by stable string key. Adding an algorithm to the
//! workspace means appending one entry to the table.
//!
//! Each entry's `run` receives the caller's [`Output`]. Only `wdeq` acts
//! on it (its engine skips the columns in completions mode); every other
//! algorithm builds its column schedule anyway and returns it in both
//! modes.

use super::rules::{self, DeqRule, PriorityRule, ShareNoRedistributionRule, WdeqRule};
use super::Clairvoyance::{Clairvoyant, NonClairvoyant};
use super::{Output, Policy, PolicyCertificate, PolicyRun};
use crate::algos::greedy::{best_heuristic_greedy, greedy_schedule};
use crate::algos::makespan::{makespan_schedule, min_lmax};
use crate::algos::orders;
use crate::algos::related::{flow_witness, greedy_related, min_lmax_flow};
use crate::algos::releases::makespan_with_releases;
use crate::algos::waterfill::water_filling;
use crate::algos::waterfill_fast::wf_feasible_grouped;
use crate::algos::wdeq::{self, certificate_of, wdeq_completions};
use crate::bounds::{combined_lower_bound, mixed_bound};
use crate::error::ScheduleError;
use crate::instance::{Instance, TaskId};
use crate::machine::MachineModel;
use crate::schedule::column::ColumnSchedule;
use crate::schedule::convert::step_to_column;
use numkit::{Scalar, Tolerance};

type Run<S> = Result<PolicyRun<S>, ScheduleError>;

/// Every registered policy, in stable display order (the order of
/// `--list-policies`, of batch records and of every capability filter).
pub fn all<S: Scalar>() -> Vec<Policy<S>> {
    vec![
        // **WDEQ** (Algorithm 1): the non-clairvoyant 2-approximation,
        // carrying its Lemma-2 certificate on every run.
        Policy {
            name: "wdeq",
            description: "weighted dynamic equipartition (Algorithm 1, certified 2-approximation)",
            clairvoyance: NonClairvoyant,
            heterogeneous: false,
            online: Some(&WdeqRule),
            run: |i, output| {
                let want_columns = output == Output::Schedule;
                let (lane, columns) = wdeq::drive(i, want_columns)?;
                let bound = certificate_of(i, &lane).value();
                let schedule = want_columns.then(|| ColumnSchedule {
                    p: i.p.clone(),
                    completions: lane.completions.clone(),
                    columns,
                });
                Ok(PolicyRun {
                    completions: lane.completions,
                    certificate: within_two(bound),
                    schedule,
                })
            },
        },
        // DEQ and the WDEQ ablations: rule-driven online policies replayed
        // to completion.
        Policy {
            name: "deq",
            description: "dynamic equipartition ignoring weights (Deng et al.)",
            clairvoyance: NonClairvoyant,
            heterogeneous: true,
            online: Some(&DeqRule),
            run: |i, _| rules::replay(i, &DeqRule).map(PolicyRun::from),
        },
        Policy {
            name: "share-no-redistribution",
            description: "weighted share without surplus redistribution (ablation)",
            clairvoyance: NonClairvoyant,
            heterogeneous: true,
            online: Some(&ShareNoRedistributionRule),
            run: |i, _| rules::replay(i, &ShareNoRedistributionRule).map(PolicyRun::from),
        },
        Policy {
            name: "priority",
            description: "heaviest-first list allocation (unfair baseline)",
            clairvoyance: NonClairvoyant,
            heterogeneous: true,
            online: Some(&PriorityRule),
            run: |i, _| rules::replay(i, &PriorityRule).map(PolicyRun::from),
        },
        // Water-Filling normal form (Algorithm 2) of the WDEQ completion
        // times: same completions, ≤ n allocation changes (Lemma 5). The
        // `fast` variant routes feasibility through the grouped oracle
        // first, exercising both code paths of Theorem 8.
        offline(
            "wf",
            "Water-Filling normal form of the WDEQ completion times (Algorithm 2)",
            |i, _| water_filling_of_wdeq(i, false),
        ),
        offline(
            "wf-fast",
            "Water-Filling normal form of WDEQ times (grouped feasibility oracle first)",
            |i, _| water_filling_of_wdeq(i, true),
        ),
        // **Greedy(σ)** (Algorithm 3) under the fixed ordering rules.
        offline(
            "greedy-smith",
            "greedy schedule in Smith order, V/w ascending (Algorithm 3)",
            |i, _| greedy(i, &orders::smith_order(i)),
        ),
        offline(
            "greedy-delta-desc",
            "greedy schedule, caps descending",
            |i, _| greedy(i, &orders::delta_descending(i)),
        ),
        offline(
            "greedy-delta-asc",
            "greedy schedule, caps ascending",
            |i, _| greedy(i, &orders::delta_ascending(i)),
        ),
        offline(
            "greedy-height-desc",
            "greedy schedule, heights V/δ descending",
            |i, _| greedy(i, &orders::height_descending(i)),
        ),
        offline(
            "greedy-wheight-desc",
            "greedy schedule, weighted height descending",
            |i, _| greedy(i, &orders::weighted_height_descending(i)),
        ),
        offline("greedy-input", "greedy schedule in input order", |i, _| {
            greedy(i, &(0..i.n()).map(TaskId).collect::<Vec<_>>())
        }),
        // The best greedy schedule over the heuristic orders of
        // `orders::heuristic_orders`.
        offline(
            "best-greedy",
            "minimum-cost greedy schedule over the heuristic orders",
            |i, _| greedy(i, &best_heuristic_greedy(i)?.1),
        ),
        // The Cmax optimum: every task finishes together at the two-term
        // optimum `C* = max(ΣV/P, max V/min(δ,P))`.
        offline(
            "makespan",
            "Cmax-optimal schedule (all tasks finish at C*)",
            |i, _| makespan_schedule(i).map(PolicyRun::from),
        ),
        // The release-date Cmax solver at zero releases: the same optimal
        // makespan as `makespan` through the entirely different parametric
        // flow machinery — keeping the two agreeing is a standing
        // cross-check. The flow witness may finish individual tasks
        // before `C*`, so its `Σ wᵢCᵢ` can differ.
        offline_any_machine(
            "makespan-parametric",
            "exact Cmax via the release-date parametric flow search (zero releases)",
            |i, _| {
                let r = makespan_with_releases(i, &vec![S::zero(); i.n()])?;
                Ok(PolicyRun::from(step_to_column(
                    &r.schedule,
                    Tolerance::for_instance(i.n()),
                )))
            },
        ),
        // Exact min-Lmax against per-task height due dates
        // `hᵢ = Vᵢ/min(δᵢ, P)`: short tasks finish early, the uniform slack
        // `L*` spreads the contention evenly.
        offline_any_machine(
            "lmax-height",
            "exact minimum max-lateness schedule against per-task height due dates",
            |i, _| {
                let due: Vec<S> = i
                    .iter()
                    .map(|(id, t)| t.volume.clone() / i.effective_delta(id))
                    .collect();
                Ok(min_lmax(i, &due)?.1.into())
            },
        ),
        // Exact min-Lmax against Smith-ratio due dates: heavier tasks are
        // due earlier, so the batch engine and `msched --policy` exercise
        // the parametric Lmax path on every sweep.
        offline_any_machine(
            "lmax-parametric",
            "exact min-Lmax against Smith-ratio due dates (parametric frontier search)",
            |i, _| Ok(min_lmax(i, &smith_ratio_dues(i))?.1.into()),
        ),
        // The related-machines (heterogeneous speed) family: these run on
        // any machine model.
        //
        // Fastest-machines-first WDEQ: weighted equipartition of *machine
        // counts* (the fixpoint of Algorithm 1), realized by handing the
        // fastest machines to the heaviest active tasks — WDEQ itself on
        // identical machines, feasible by construction on related ones.
        // Its certificate feeds the replay's capacity-limited volume split
        // into the Lemma-1 mixed bound `A(I[V¹]) + H(I[V²]) ≤ OPT` (sound
        // for any split); the factor 2 is the Theorem-4 guarantee.
        Policy {
            name: "wdeq-related",
            description:
                "weighted equipartition of machine counts, fastest machines to heaviest tasks",
            clairvoyance: NonClairvoyant,
            heterogeneous: true,
            online: None,
            run: |i, _| {
                let (schedule, limited) = rules::replay_with_split(i, &WdeqRule)?;
                let bound = mixed_bound(i, &limited).max_of(combined_lower_bound(i));
                Ok(PolicyRun {
                    certificate: within_two(bound),
                    ..schedule.into()
                })
            },
        },
        // Speed-scaled Water-Filling: the fastest-first WDEQ completion
        // times materialized through the transportation flow over the
        // speed levels (the witness role of Theorem 8).
        offline_any_machine(
            "wf-related",
            "speed-scaled normal form: WDEQ-related completion times via the level flow",
            |i, _| {
                let completions = rules::replay(i, &WdeqRule)?.completions;
                flow_witness(i, None, &completions).map(PolicyRun::from)
            },
        ),
        // Greedy earliest-feasible completions: each task in turn gets the
        // earliest completion that keeps the prefix transport-feasible (the
        // completion-time form of Algorithm 3's greedy principle). The
        // eligibility order commits the most-constrained tasks first.
        offline_any_machine(
            "greedy-smith-related",
            "greedy earliest-feasible completions in Smith order over the speed profile",
            |i, _| greedy_related(i, &orders::smith_order(i)).map(PolicyRun::from),
        ),
        offline_any_machine(
            "greedy-lpt-related",
            "greedy earliest-feasible completions, largest volume first, any capacity model",
            |i, _| greedy_related(i, &orders::volume_descending(i)).map(PolicyRun::from),
        ),
        offline_any_machine(
            "greedy-eligibility-related",
            "greedy earliest-feasible completions, most-constrained task first",
            |i, _| greedy_related(i, &orders::count_cap_ascending(i)).map(PolicyRun::from),
        ),
        // Exact min-Lmax against Smith-ratio due dates with the
        // transportation flow as oracle *and* witness (on identical
        // machines it cross-checks the Water-Filling path: same `L*`,
        // different witness).
        offline_any_machine(
            "lmax-parametric-related",
            "exact min-Lmax on the speed profile (parametric level-flow search)",
            |i, _| Ok(min_lmax_flow(i, &smith_ratio_dues(i))?.1.into()),
        ),
    ]
}

/// The names of the policies that run on **every** machine model,
/// related machines included, in registry order. Grid sweeps over
/// heterogeneous workloads select from this list.
pub fn related_capable() -> Vec<&'static str> {
    all::<f64>()
        .into_iter()
        .filter(|p| p.heterogeneous)
        .map(|p| p.name)
        .collect()
}

/// The registry subset that can schedule instances on `machine`: every
/// policy on uniform (identical-speed) models, the heterogeneous-capable
/// family ([`related_capable`]) on related, submodular and
/// restricted-assignment models. `msched --list-policies` and the grid
/// sweeps use this to pair policies with instances.
pub fn capable_for<S: Scalar>(machine: &MachineModel<S>) -> Vec<&'static str> {
    all::<S>()
        .into_iter()
        .filter(|p| p.runs_on(machine))
        .map(|p| p.name)
        .collect()
}

/// Look a policy up by its stable name, or `None` for unknown keys.
pub fn by_name<S: Scalar>(name: &str) -> Option<Policy<S>> {
    all::<S>().into_iter().find(|p| p.name == name)
}

/// The registered names, in the same order as [`all`].
pub fn names() -> Vec<&'static str> {
    all::<f64>().into_iter().map(|p| p.name).collect()
}

/// A clairvoyant offline entry for identical machines only — the shape
/// of most of the table. Offline algorithms build their columns anyway,
/// so `run` ignores the requested [`Output`].
fn offline<S: Scalar>(
    name: &'static str,
    description: &'static str,
    run: fn(&Instance<S>, Output) -> Run<S>,
) -> Policy<S> {
    Policy {
        name,
        description,
        clairvoyance: Clairvoyant,
        heterogeneous: false,
        online: None,
        run,
    }
}

/// A clairvoyant offline entry that runs on every machine model.
fn offline_any_machine<S: Scalar>(
    name: &'static str,
    description: &'static str,
    run: fn(&Instance<S>, Output) -> Run<S>,
) -> Policy<S> {
    Policy {
        heterogeneous: true,
        ..offline(name, description, run)
    }
}

/// A certificate of cost within factor 2 of `lower_bound ≤ OPT`.
fn within_two<S: Scalar>(lower_bound: S) -> Option<PolicyCertificate<S>> {
    Some(PolicyCertificate {
        lower_bound,
        factor: S::from_int(2),
    })
}

fn greedy<S: Scalar>(instance: &Instance<S>, order: &[TaskId]) -> Run<S> {
    let step = greedy_schedule(instance, order)?;
    Ok(PolicyRun::from(step_to_column(
        &step,
        Tolerance::for_instance(instance.n()),
    )))
}

fn water_filling_of_wdeq<S: Scalar>(instance: &Instance<S>, grouped_first: bool) -> Run<S> {
    let completions = wdeq_completions(instance)?.completions;
    if grouped_first && !wf_feasible_grouped(instance, &completions)? {
        // WDEQ times are feasible by construction; a grouped verdict to
        // the contrary would be a bug, not bad input.
        return Err(ScheduleError::InvalidInstance {
            reason: "grouped oracle rejected WDEQ completion times".into(),
        });
    }
    water_filling(instance, &completions).map(PolicyRun::from)
}

/// Smith-ratio due dates `dᵢ = Vᵢ/wᵢ` (weightless tasks fall back to
/// their height) — shared by the two parametric `Lmax` policies.
fn smith_ratio_dues<S: Scalar>(instance: &Instance<S>) -> Vec<S> {
    instance
        .iter()
        .map(|(id, t)| {
            if t.weight.is_positive() {
                t.volume.clone() / t.weight.clone()
            } else {
                t.volume.clone() / instance.effective_delta(id)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_at_least_twenty_distinct_policies() {
        let names = names();
        assert!(names.len() >= 20, "only {} policies", names.len());
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate policy names");
    }

    #[test]
    fn online_entries_expose_their_own_rule() {
        // An entry's online rule must be the rule its name promises: the
        // simulator resolves names through this field.
        let online: Vec<_> = all::<f64>()
            .into_iter()
            .filter_map(|p| p.online.map(|rule| (p.name, rule.name())))
            .collect();
        assert_eq!(
            online,
            [
                ("wdeq", "wdeq"),
                ("deq", "deq"),
                ("share-no-redistribution", "share-no-redistribution"),
                ("priority", "priority"),
            ]
        );
        for p in all::<f64>().into_iter().filter(|p| p.online.is_some()) {
            assert_eq!(p.clairvoyance, NonClairvoyant, "{}", p.name);
        }
    }

    #[test]
    fn capable_for_matches_machine_uniformity() {
        let identical = MachineModel::<f64>::identical(4.0);
        assert_eq!(capable_for(&identical), names());
        let related = MachineModel::related(vec![2.0, 1.0]).unwrap();
        assert_eq!(capable_for(&related), related_capable());
        let restricted = MachineModel::<f64>::restricted(2, vec![vec![0], vec![0, 1]]).unwrap();
        assert_eq!(capable_for(&restricted), related_capable());
        // Complete eligibility is uniform: the whole registry applies.
        let complete = MachineModel::<f64>::restricted(2, vec![vec![0, 1], vec![0, 1]]).unwrap();
        assert_eq!(capable_for(&complete), names());
    }

    #[test]
    fn by_name_round_trips_every_registered_name() {
        for name in names() {
            let p = by_name::<f64>(name).unwrap_or_else(|| panic!("{name} not found"));
            assert_eq!(p.name(), name);
            assert!(!p.description.is_empty());
        }
        assert!(by_name::<f64>("no-such-policy").is_none());
    }

    #[test]
    fn registry_is_scalar_agnostic() {
        use bigratio::Rational;
        let f: Vec<_> = all::<f64>().iter().map(|p| p.name).collect();
        let r: Vec<_> = all::<Rational>().iter().map(|p| p.name).collect();
        assert_eq!(f, r);
    }
}
