//! `ColumnSchedule::validate_with` checks volumes and last allocations
//! over a per-task transpose of the columns. This file keeps the
//! straightforward quadratic check (one `Column::rate_of` scan per task
//! and column) as the reference and requires both to return the
//! identical `Result`, variant and payload, at `f64` and at `Rational`:
//! on registry schedules, online schedules with arrivals, and mutated
//! copies that break Definition 2 in the ways the transpose could get
//! wrong.

use malleable::core::error::ScheduleError;
use malleable::core::schedule::column::Column;
use malleable::prelude::*;
use malleable::sim::policies::by_name as online_by_name;
use proptest::prelude::*;

/// The column-by-column validation the transpose replaced, kept verbatim
/// as the oracle.
fn reference_validate<S: Scalar>(
    s: &ColumnSchedule<S>,
    instance: &Instance<S>,
    tol: Tolerance<S>,
) -> Result<(), ScheduleError> {
    if s.completions.len() != instance.n() {
        return Err(ScheduleError::LengthMismatch {
            what: "completion times",
            expected: instance.n(),
            found: s.completions.len(),
        });
    }
    for c in &s.completions {
        if !c.is_finite() || c.is_negative() {
            return Err(ScheduleError::InvalidTime {
                value: c.to_f64(),
                context: "completion times",
            });
        }
    }
    let mut prev_end = S::zero();
    for col in &s.columns {
        if !tol.eq(col.start.clone(), prev_end.clone()) {
            return Err(ScheduleError::InvalidTime {
                value: col.start.to_f64(),
                context: "column start (not contiguous)",
            });
        }
        if tol.lt(col.end.clone(), col.start.clone()) {
            return Err(ScheduleError::InvalidTime {
                value: col.end.to_f64(),
                context: "column end before start",
            });
        }
        prev_end = col.end.clone();

        for (task, rate) in &col.rates {
            if task.0 >= instance.n() {
                return Err(ScheduleError::LengthMismatch {
                    what: "task id in column",
                    expected: instance.n(),
                    found: task.0,
                });
            }
            let cap = instance.effective_delta(*task);
            let delta_error = || ScheduleError::DeltaExceeded {
                task: *task,
                at: col.start.to_f64(),
                rate: rate.to_f64(),
                delta: cap.to_f64(),
            };
            if *rate < -tol.abs.clone() {
                return Err(delta_error());
            }
            if !tol.le(rate.clone(), cap.clone()) {
                return Err(delta_error());
            }
            if col.len() > tol.abs
                && *rate > tol.abs
                && col.start.clone()
                    > s.completions[task.0].clone() + tol.slack(col.start.clone(), S::zero())
            {
                return Err(ScheduleError::AllocationAfterCompletion {
                    task: *task,
                    completion: s.completions[task.0].to_f64(),
                    at: col.start.to_f64(),
                });
            }
            if col.len() > tol.abs && *rate > tol.abs {
                let release = instance.arrival(*task);
                if release.is_positive() && !tol.ge(col.start.clone(), release.clone()) {
                    return Err(ScheduleError::AllocationBeforeArrival {
                        task: *task,
                        arrival: release.to_f64(),
                        at: col.start.to_f64(),
                    });
                }
            }
        }
        let total = S::sum(col.rates.iter().map(|(_, r)| r.clone()));
        if !tol.le(total.clone(), s.p.clone()) {
            return Err(ScheduleError::CapacityExceeded {
                at: col.start.to_f64(),
                total: total.to_f64(),
                p: s.p.to_f64(),
            });
        }
        if !instance.machine.uniform() && col.len() > tol.abs && total.is_positive() {
            if instance.machine.restriction().is_some() {
                let entries: Vec<(usize, S, S)> = col
                    .rates
                    .iter()
                    .map(|(t, r)| (t.0, instance.task(*t).delta.clone(), r.clone()))
                    .collect();
                if !instance.machine.rates_feasible_assign(&entries, &tol) {
                    let demands: Vec<(usize, S)> = col
                        .rates
                        .iter()
                        .map(|(t, r)| (t.0, r.clone().max_of(S::zero())))
                        .collect();
                    let routable = instance.machine.restricted_rank(&demands);
                    return Err(ScheduleError::EligibilityExceeded {
                        at: col.start.to_f64(),
                        total: total.to_f64(),
                        routable: routable.to_f64(),
                    });
                }
            } else {
                let entries: Vec<(S, S)> = col
                    .rates
                    .iter()
                    .map(|(t, r)| (instance.task(*t).delta.clone(), r.clone()))
                    .collect();
                if !instance.machine.rates_feasible(&entries, &tol) {
                    return Err(ScheduleError::SpeedProfileExceeded {
                        at: col.start.to_f64(),
                        total: total.to_f64(),
                        capacity: s.p.to_f64(),
                    });
                }
            }
        }
    }
    for (id, t) in instance.iter() {
        let area = s.allocated_area(id);
        if !tol.eq(area.clone(), t.volume.clone()) {
            return Err(ScheduleError::VolumeMismatch {
                task: id,
                allocated: area.to_f64(),
                required: t.volume.to_f64(),
            });
        }
    }
    for (id, _) in instance.iter() {
        let last_alloc = s
            .columns
            .iter()
            .filter(|c| c.len() > tol.abs && c.rate_of(id) > tol.abs)
            .map(|c| c.end.clone())
            .fold(S::zero(), S::max_of);
        if !tol.eq(last_alloc.clone(), s.completions[id.0].clone()) {
            return Err(ScheduleError::AllocationAfterCompletion {
                task: id,
                completion: s.completions[id.0].to_f64(),
                at: last_alloc.to_f64(),
            });
        }
    }
    Ok(())
}

/// Both validators agree under the default and the zero tolerance.
/// Payloads are compared through `{:?}`, which prints every f64 field
/// round-trip exactly (and tells `-0.0` from `0.0`).
fn assert_same<S: Scalar>(what: &str, s: &ColumnSchedule<S>, instance: &Instance<S>) {
    let scale = 1.0 + s.columns.len() as f64;
    for tol in [S::default_tolerance().scaled(scale), Tolerance::exact()] {
        let new = format!("{:?}", s.validate_with(instance, tol.clone()));
        let old = format!("{:?}", reference_validate(s, instance, tol));
        assert_eq!(new, old, "{what}: validators disagree");
    }
}

/// Every mutation of `(schedule, instance)`, the unmutated pair first.
fn mutants<S: Scalar>(
    s: &ColumnSchedule<S>,
    instance: &Instance<S>,
) -> Vec<(&'static str, ColumnSchedule<S>, Instance<S>)> {
    let mut out = vec![("original", s.clone(), instance.clone())];
    let n = instance.n();
    let ones = |k: i64| S::from_ratio(1_000_000 + k, 1_000_000);

    // One volume scaled by 1 ± 1e-6.
    for (k, name) in [(1, "volume * (1 + 1e-6)"), (-1, "volume * (1 - 1e-6)")] {
        let mut i = instance.clone();
        let t = &mut i.tasks[n / 2];
        t.volume = t.volume.clone() * ones(k);
        out.push((name, s.clone(), i));
    }

    // A positive rate after the earliest completion.
    let first = s.completion_order()[0];
    let done = s.completion(first);
    let rate = instance.effective_delta(first) * S::from_ratio(1, 2);
    let mut after = s.clone();
    match after
        .columns
        .iter_mut()
        .find(|c| c.start > done && !c.is_empty())
    {
        Some(c) => c.rates.push((first, rate.clone())),
        None => {
            let end = after.makespan();
            after.columns.push(Column {
                start: end.clone(),
                end: end + S::one(),
                rates: vec![(first, rate)],
            });
        }
    }
    out.push(("rate after completion", after, instance.clone()));

    // A task listed twice in one column: a zero-rate repeat (the first
    // entry is the one that counts) and an exact repeat.
    if let Some(j) = s.columns.iter().position(|c| !c.rates.is_empty()) {
        let (t, r) = s.columns[j].rates[0].clone();
        let mut zero = s.clone();
        zero.columns[j].rates.push((t, S::zero()));
        out.push(("zero-rate repeat", zero, instance.clone()));
        let mut twice = s.clone();
        twice.columns[j].rates.push((t, r));
        out.push(("exact repeat", twice, instance.clone()));
    }

    // Zero-length columns: an empty one up front, and a copy of the
    // middle column's rates squeezed to zero length after it.
    let mut empty = s.clone();
    empty.columns.insert(
        0,
        Column {
            start: S::zero(),
            end: S::zero(),
            rates: vec![],
        },
    );
    out.push(("empty zero-length column", empty, instance.clone()));
    if !s.columns.is_empty() {
        let j = s.columns.len() / 2;
        let mut squeezed = s.clone();
        let at = squeezed.columns[j].end.clone();
        let rates = squeezed.columns[j].rates.clone();
        squeezed.columns.insert(
            j + 1,
            Column {
                start: at.clone(),
                end: at,
                rates,
            },
        );
        out.push(("zero-length copy", squeezed, instance.clone()));
    }
    // A zero-length column at the makespan that lists the earliest task:
    // no duration, so no allocation after its completion.
    let mut tail = s.clone();
    let end = tail.makespan();
    tail.columns.push(Column {
        start: end.clone(),
        end,
        rates: vec![(first, instance.effective_delta(first))],
    });
    out.push(("zero-length tail", tail, instance.clone()));

    // A rate before release: the task completing last now arrives half
    // way to its completion, after the schedule has usually run it.
    let last = *s.completion_order().last().expect("n > 0");
    let mut arrivals: Vec<S> = (0..n).map(|i| instance.arrival(TaskId(i))).collect();
    arrivals[last.0] = s.completion(last) * S::from_ratio(1, 2);
    let released = instance
        .clone()
        .with_arrivals(arrivals)
        .expect("arrivals are non-negative");
    out.push(("rate before release", s.clone(), released));
    out
}

fn check_all<S: Scalar>(label: &str, s: &ColumnSchedule<S>, instance: &Instance<S>) {
    for (name, m, i) in mutants(s, instance) {
        assert_same(&format!("{label}/{name}"), &m, &i);
    }
}

/// Registry schedules on an offline instance, at `S`.
fn registry_cases<S: Scalar>(instance: &Instance<S>) {
    for name in ["wdeq", "wf", "deq", "greedy-smith"] {
        let run = policy::by_name::<S>(name)
            .expect("registered policy")
            .run(instance)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        check_all(name, &run.schedule, instance);
    }
}

/// Online schedules on a streaming instance, at `S`.
fn online_cases<S: Scalar>(instance: &Instance<S>) {
    for name in ["wdeq", "deq"] {
        let mut p = online_by_name::<S>(name).expect("online policy");
        let run = simulate(instance, p.as_mut()).unwrap_or_else(|e| panic!("{name}: {e}"));
        check_all(&format!("online {name}"), &run.schedule, instance);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn transposed_validation_matches_the_quadratic_oracle(
        seed in 0u64..1u64 << 48,
        n in 2usize..7,
    ) {
        for spec in [Spec::PaperUniform { n }, Spec::IntegerUniform { n, p: 4 }] {
            let inst = generate(&spec, seed);
            registry_cases(&inst);
            registry_cases(&inst.to_scalar::<Rational>());
        }
        for spec in [
            Spec::PoissonArrivals { n, rate: 1.0 },
            Spec::ArrivalWaves { n, waves: 2, gap: 1.0 },
        ] {
            let inst = generate(&spec, seed);
            online_cases(&inst);
            online_cases(&inst.to_scalar::<Rational>());
        }
    }
}

#[test]
fn structural_errors_match_the_oracle() {
    let inst = generate(&Spec::PaperUniform { n: 4 }, 3);
    let run = policy::by_name::<f64>("wdeq").unwrap().run(&inst).unwrap();
    // A task id out of range, a gap between columns, a missing completion.
    let mut bad_id = run.schedule.clone();
    bad_id.columns[0].rates.push((TaskId(9), 0.5));
    let mut gap = run.schedule.clone();
    gap.columns[1].start += 0.5;
    let mut short = run.schedule.clone();
    short.completions.pop();
    for (name, s) in [("bad id", bad_id), ("gap", gap), ("short", short)] {
        assert!(s.validate(&inst).is_err(), "{name} must be rejected");
        assert_same(name, &s, &inst);
    }
}
