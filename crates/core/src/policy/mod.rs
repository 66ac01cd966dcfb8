//! First-class scheduling policies: one table of plain entries, every
//! algorithm in the stack behind it.
//!
//! The paper's value is the *comparison* between WDEQ, Water-Filling and
//! Greedy(σ) against the lower bounds; this module makes that comparison a
//! data-driven sweep instead of N hand-wired call sites. A [`Policy`] is a
//! plain-data registry entry: a stable name, a description, its
//! information model, its capabilities (whether it runs on every machine
//! model, and the [`AllocationRule`] it exposes to online simulation, if
//! any) and a `run` function turning an [`Instance`] into a [`PolicyRun`].
//! The registry ([`all`], [`by_name`], [`names`], [`capable_for`],
//! [`related_capable`]) is a set of filters over that one table, so
//! experiment binaries, the `msched` CLI, the daemon and the
//! batch-evaluation engine all select algorithms by name.
//!
//! **Completions are the currency.** By Theorem 8 a completion vector
//! *is* the schedule (it is feasible iff Water-Filling succeeds on it), so
//! a run always returns completion times plus the optional per-run
//! certificate, and builds the column schedule only when the caller asks
//! for it ([`Output::Schedule`]). WDEQ skips its `Θ(n·events)` columns in
//! [`Output::Completions`] mode; entries whose algorithm builds columns
//! anyway return them in either mode. [`Policy::solve`] takes the mode;
//! [`Policy::run`] is the schedule-mode shorthand for callers that
//! validate or render columns.
//!
//! Adding a new algorithm = appending one entry to the table in [`all`];
//! every consumer (CLI flags, sweeps, property tests, capability columns)
//! picks it up automatically.
//!
//! The whole module is generic over the scalar: `by_name::<f64>` gives the
//! production policy, `by_name::<bigratio::Rational>` the *same* policy in
//! exact arithmetic.

pub mod registry;
pub mod rules;

pub use registry::{all, by_name, capable_for, names, related_capable};
pub use rules::{ActiveTask, AllocationRule};

use crate::error::ScheduleError;
use crate::instance::Instance;
use crate::machine::MachineModel;
use crate::schedule::column::ColumnSchedule;
use numkit::Scalar;
use std::fmt;

/// What a policy is allowed to know about the tasks it schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Clairvoyance {
    /// Volumes `Vᵢ` are hidden; only weights, caps and observed progress
    /// are available (the online model of Algorithm 1).
    NonClairvoyant,
    /// Full instance knowledge, volumes included.
    Clairvoyant,
}

impl fmt::Display for Clairvoyance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Clairvoyance::NonClairvoyant => "non-clairvoyant",
            Clairvoyance::Clairvoyant => "clairvoyant",
        })
    }
}

/// A per-run approximation certificate: `lower_bound ≤ OPT(I)` and the
/// policy's cost is guaranteed `≤ factor · OPT(I)`.
#[derive(Debug, Clone)]
pub struct PolicyCertificate<S = f64> {
    /// A machine-checked lower bound on the optimal objective.
    pub lower_bound: S,
    /// The proven approximation factor of the policy.
    pub factor: S,
}

impl<S: Scalar> PolicyCertificate<S> {
    /// The certified ratio `cost / lower_bound` (≤ `factor` when the
    /// guarantee holds; exactly so in exact arithmetic).
    pub fn ratio(&self, cost: S) -> S {
        if self.lower_bound.is_positive() {
            cost / self.lower_bound.clone()
        } else {
            S::one()
        }
    }
}

/// What a caller needs from a policy run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// Completion times and the certificate. The column schedule is
    /// skipped where the algorithm can avoid building it.
    Completions,
    /// The column schedule as well (for validation, rendering or
    /// column-level metrics).
    Schedule,
}

/// Outcome of one policy run: completions always, columns on request.
#[derive(Debug, Clone)]
pub struct PolicyRun<S = f64> {
    /// Completion time of each task, indexed by task id.
    pub completions: Vec<S>,
    /// A per-run certificate, when the policy carries one (WDEQ's Lemma-2
    /// bound; most policies return `None`).
    pub certificate: Option<PolicyCertificate<S>>,
    /// The column schedule: always present when the run was asked for
    /// [`Output::Schedule`]; in [`Output::Completions`] mode only when the
    /// algorithm built it anyway. Its completions equal
    /// [`completions`](PolicyRun::completions).
    pub schedule: Option<ColumnSchedule<S>>,
}

/// An uncertified run of an algorithm that built its column schedule.
impl<S: Scalar> From<ColumnSchedule<S>> for PolicyRun<S> {
    fn from(schedule: ColumnSchedule<S>) -> Self {
        PolicyRun {
            completions: schedule.completions.clone(),
            certificate: None,
            schedule: Some(schedule),
        }
    }
}

/// A schedule-mode run, as [`Policy::run`] returns it.
#[derive(Debug, Clone)]
pub struct ScheduledRun<S = f64> {
    /// The produced schedule.
    pub schedule: ColumnSchedule<S>,
    /// The per-run certificate, as in [`PolicyRun::certificate`].
    pub certificate: Option<PolicyCertificate<S>>,
}

/// One registry entry: an algorithm that schedules a whole instance, as
/// plain data. Entries are `Send + Sync` (every field is a static string,
/// a flag, a static rule or a function pointer) and `Copy` at `f64`, so
/// batch engines share resolved entries across worker threads by value.
#[derive(Clone, Copy)]
pub struct Policy<S: Scalar = f64> {
    /// Stable registry key (also the experiment-table label).
    pub name: &'static str,
    /// One-line human description for `--list-policies` output.
    pub description: &'static str,
    /// The information model the policy operates under.
    pub clairvoyance: Clairvoyance,
    /// Runs on every machine model (related, submodular and restricted
    /// included). The rate-space identical-machine policies do not: they
    /// reject heterogeneous instances, loudly.
    pub heterogeneous: bool,
    /// The allocation rule behind the policy when it can run online
    /// (non-clairvoyantly, against streaming arrivals) under
    /// `malleable_sim::simulate`; `None` for offline solvers.
    pub online: Option<&'static (dyn AllocationRule<S> + Sync)>,
    /// The algorithm itself, told which [`Output`] the caller needs. Call
    /// it through [`Policy::solve`] or [`Policy::run`], which add the
    /// registry-boundary trace span.
    pub run: fn(&Instance<S>, Output) -> Result<PolicyRun<S>, ScheduleError>,
}

impl<S: Scalar> Policy<S> {
    /// The stable registry key.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Whether the policy can schedule instances on `machine`: every
    /// policy on uniform (identical-speed) models, only the
    /// [`heterogeneous`](Policy::heterogeneous) ones elsewhere.
    pub fn runs_on(&self, machine: &MachineModel<S>) -> bool {
        self.heterogeneous || machine.uniform()
    }

    /// Run the policy inside one `policy.run` trace span labelled with its
    /// name — the only span code any policy needs — building columns only
    /// when `output` asks for them.
    ///
    /// # Errors
    /// Propagates instance validation and algorithm failures
    /// ([`ScheduleError`]).
    pub fn solve(
        &self,
        instance: &Instance<S>,
        output: Output,
    ) -> Result<PolicyRun<S>, ScheduleError> {
        let _span = malleable_trace::span_labeled("policy.run", || self.name.to_string());
        (self.run)(instance, output)
    }

    /// [`solve`](Policy::solve) in [`Output::Schedule`] mode: the column
    /// schedule plus the certificate.
    ///
    /// # Errors
    /// Same contract as [`solve`](Policy::solve).
    pub fn run(&self, instance: &Instance<S>) -> Result<ScheduledRun<S>, ScheduleError> {
        let run = self.solve(instance, Output::Schedule)?;
        Ok(ScheduledRun {
            schedule: run
                .schedule
                .expect("every entry builds columns in schedule mode"),
            certificate: run.certificate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::combined_lower_bound;

    fn inst() -> Instance {
        Instance::builder(4.0)
            .task(8.0, 1.0, 2.0)
            .task(4.0, 2.0, 4.0)
            .task(2.0, 4.0, 1.0)
            .build()
            .unwrap()
    }

    fn run<S: Scalar>(name: &str, i: &Instance<S>) -> ScheduledRun<S> {
        by_name::<S>(name).unwrap().run(i).unwrap()
    }

    #[test]
    fn every_registered_policy_schedules_the_fixture() {
        let i = inst();
        let bound = combined_lower_bound(&i);
        for p in all::<f64>() {
            let run = p
                .run(&i)
                .unwrap_or_else(|e| panic!("{} failed: {e}", p.name));
            run.schedule
                .validate(&i)
                .unwrap_or_else(|e| panic!("{} invalid: {e}", p.name));
            let cost = run.schedule.weighted_completion_cost(&i);
            assert!(
                cost >= bound - 1e-9,
                "{} beat the lower bound: {cost} < {bound}",
                p.name
            );
            if let Some(cert) = run.certificate {
                assert!(cert.lower_bound <= cost + 1e-9, "{}", p.name);
                assert!(cert.ratio(cost) <= cert.factor + 1e-6, "{}", p.name);
            }
        }
    }

    #[test]
    fn wdeq_certificate_is_the_lemma2_bound() {
        let i = inst();
        let cert = run("wdeq", &i)
            .certificate
            .expect("wdeq carries a certificate");
        let direct = crate::algos::wdeq::wdeq_certificate(&i);
        assert!((cert.lower_bound - direct.value()).abs() < 1e-12);
        assert_eq!(cert.factor, 2.0);
    }

    #[test]
    fn wdeq_completions_mode_builds_no_columns() {
        let i = inst();
        let wdeq = by_name::<f64>("wdeq").unwrap();
        let lean = wdeq.solve(&i, Output::Completions).unwrap();
        assert!(lean.schedule.is_none());
        assert_eq!(lean.completions, wdeq.run(&i).unwrap().schedule.completions);
    }

    #[test]
    fn normal_form_variants_agree_and_keep_wdeq_completions() {
        let i = inst();
        let wdeq = run("wdeq", &i).schedule;
        let full = run("wf", &i).schedule;
        let fast = run("wf-fast", &i).schedule;
        assert_eq!(full.completions, wdeq.completions);
        assert_eq!(full.completions, fast.completions);
    }

    #[test]
    fn greedy_policies_cover_every_order_rule() {
        let i = inst();
        let greedy: Vec<_> = names()
            .into_iter()
            .filter(|n| n.starts_with("greedy-") && !n.ends_with("-related"))
            .collect();
        assert_eq!(greedy.len(), 6, "{greedy:?}");
        for name in greedy {
            run(name, &i).schedule.validate(&i).unwrap();
        }
    }

    #[test]
    fn lmax_height_finishes_short_tasks_before_makespan_does() {
        // Under `makespan` everything ends at C*; lmax-height lets the
        // short task out earlier.
        let i = Instance::builder(2.0)
            .task(8.0, 1.0, 2.0)
            .task(0.5, 1.0, 2.0)
            .build()
            .unwrap();
        let mk = run("makespan", &i).schedule;
        let lx = run("lmax-height", &i).schedule;
        assert!(lx.completions[1] < mk.completions[1] - 1e-9);
    }

    #[test]
    fn exact_instantiation_runs_the_same_registry() {
        use bigratio::Rational;
        let q = Rational::from_f64_exact;
        let i = Instance::<Rational>::builder(q(2.0))
            .task(q(2.0), q(1.0), q(1.0))
            .task(q(1.0), q(2.0), q(2.0))
            .build()
            .unwrap();
        for p in all::<Rational>() {
            let s = p
                .run(&i)
                .unwrap_or_else(|e| panic!("{} failed exactly: {e}", p.name))
                .schedule;
            // Every policy — the parametric Lmax/Cmax solvers included —
            // now validates under the zero tolerance: there is no
            // bisection bracket left anywhere in the registry.
            s.validate(&i)
                .unwrap_or_else(|e| panic!("{} not exact: {e}", p.name));
        }
    }

    #[test]
    fn parametric_makespan_agrees_with_the_closed_form() {
        // Two entirely different derivations of C* — the closed-form
        // two-term bound and the parametric flow search — must agree
        // exactly, in both fields.
        let i = inst();
        let closed = crate::algos::makespan::optimal_makespan(&i);
        let via_flow = run("makespan-parametric", &i).schedule;
        assert_eq!(via_flow.makespan(), closed);

        use bigratio::Rational;
        let q = Rational::from_f64_exact;
        let e = Instance::<Rational>::builder(q(4.0))
            .task(q(8.0), q(1.0), q(2.0))
            .task(q(4.0), q(2.0), q(4.0))
            .task(q(2.0), q(4.0), q(1.0))
            .build()
            .unwrap();
        let closed = crate::algos::makespan::optimal_makespan(&e);
        let via_flow = run("makespan-parametric", &e).schedule;
        assert_eq!(via_flow.makespan(), closed);
    }

    #[test]
    fn heterogeneous_capable_policies_schedule_every_capacity_model() {
        use crate::machine::MachineModel;
        let tasks = [(6.0, 1.0, 2.0), (4.0, 2.0, 3.0), (2.0, 4.0, 1.0)];
        let machines = vec![
            MachineModel::related(vec![2.0, 1.0, 1.0]).unwrap(),
            MachineModel::submodular(vec![3.0, 5.0, 6.0]).unwrap(),
            MachineModel::restricted(3, vec![vec![0, 1], vec![1, 2], vec![0]]).unwrap(),
        ];
        for machine in machines {
            let mut b = Instance::builder(1.0);
            for (v, w, d) in tasks {
                b = b.task(v, w, d);
            }
            let i = b.build().unwrap().with_machine(machine).unwrap();
            for name in capable_for(&i.machine) {
                let p = by_name::<f64>(name).unwrap();
                let run = p
                    .run(&i)
                    .unwrap_or_else(|e| panic!("{name} failed on {}: {e}", i.machine));
                run.schedule
                    .validate(&i)
                    .unwrap_or_else(|e| panic!("{name} invalid on {}: {e}", i.machine));
                if let Some(cert) = run.certificate {
                    let cost = run.schedule.weighted_completion_cost(&i);
                    assert!(
                        cert.lower_bound <= cost + 1e-9,
                        "{name}: bound {} above cost {cost}",
                        cert.lower_bound
                    );
                }
            }
        }
    }

    #[test]
    fn wdeq_related_certificate_is_sound_and_matches_wdeq_on_identical() {
        let i = inst();
        let run = run("wdeq-related", &i);
        let cert = run.certificate.expect("wdeq-related carries a certificate");
        let cost = run.schedule.weighted_completion_cost(&i);
        assert!(cert.lower_bound <= cost + 1e-9);
        assert!(cert.lower_bound >= combined_lower_bound(&i) - 1e-9);
        assert!(cert.ratio(cost) <= cert.factor + 1e-6);
        assert_eq!(cert.factor, 2.0);
    }

    #[test]
    fn lmax_parametric_handles_zero_weights() {
        // Smith-ratio due dates fall back to heights for weightless tasks
        // instead of dividing by zero.
        let i = Instance::builder(2.0)
            .task(2.0, 0.0, 1.0)
            .task(1.0, 1.0, 2.0)
            .build()
            .unwrap();
        run("lmax-parametric", &i).schedule.validate(&i).unwrap();
    }
}
