//! Column-based fractional schedules (`MWCT-CB-F`, Definition 2).
//!
//! A *column* is the time slice between two consecutive task completions;
//! within a column every task holds a constant fractional number of
//! processors. Columns are the normal currency of the paper: the LP of
//! Corollary 1 optimizes over them, Water-Filling produces them, and
//! Theorem 3 converts them to per-processor schedules.
//!
//! Generic over the scalar field: `ColumnSchedule<f64>` validates with the
//! float tolerance, `ColumnSchedule<Rational>` with **zero** tolerance —
//! exact schedules must satisfy Definition 2 exactly.

use crate::error::ScheduleError;
use crate::instance::{Instance, TaskId};
use numkit::{Scalar, Tolerance};
use std::fmt;

/// One column: the interval `[start, end]` and the constant rates held by
/// each task inside it. Tasks absent from `rates` hold zero processors.
#[derive(Debug, Clone, PartialEq)]
pub struct Column<S = f64> {
    /// Column start time.
    pub start: S,
    /// Column end time (`end ≥ start`; zero-length columns arise from tied
    /// completion times and are legal).
    pub end: S,
    /// `(task, processors)` pairs with strictly positive rates.
    pub rates: Vec<(TaskId, S)>,
}

impl<S: Scalar> Column<S> {
    /// Column duration `l = end − start`.
    pub fn len(&self) -> S {
        self.end.clone() - self.start.clone()
    }

    /// `true` iff the column has zero duration.
    pub fn is_empty(&self) -> bool {
        !self.len().is_positive()
    }

    /// Rate held by `task` in this column (zero when absent).
    pub fn rate_of(&self, task: TaskId) -> S {
        self.rates
            .iter()
            .find(|(t, _)| *t == task)
            .map_or(S::zero(), |(_, r)| r.clone())
    }

    /// Total processors in use.
    pub fn total_rate(&self) -> S {
        S::sum(self.rates.iter().map(|(_, r)| r.clone()))
    }
}

/// A complete column-based fractional schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSchedule<S = f64> {
    /// Machine capacity the schedule was built for.
    pub p: S,
    /// Completion time of each task, indexed by [`TaskId`].
    pub completions: Vec<S>,
    /// Columns in time order, contiguous from `t = 0`.
    pub columns: Vec<Column<S>>,
}

impl<S: Scalar> ColumnSchedule<S> {
    /// Completion times indexed by task.
    pub fn completion_times(&self) -> &[S] {
        &self.completions
    }

    /// Completion time of one task.
    ///
    /// # Panics
    /// Panics if `task` is out of range.
    pub fn completion(&self, task: TaskId) -> S {
        self.completions[task.0].clone()
    }

    /// Schedule makespan `max Cᵢ`.
    pub fn makespan(&self) -> S {
        super::makespan(&self.completions)
    }

    /// The paper's objective `Σ wᵢCᵢ`.
    ///
    /// # Panics
    /// Panics when the instance task count differs from the schedule's
    /// (callers pair schedules with the instance that produced them).
    pub fn weighted_completion_cost(&self, instance: &Instance<S>) -> S {
        super::weighted_completion_cost(instance, &self.completions)
    }

    /// Unweighted sum of completion times `Σ Cᵢ`.
    pub fn total_completion_time(&self) -> S {
        S::sum(self.completions.iter().cloned())
    }

    /// Task completion order (earliest first, ties by id).
    pub fn completion_order(&self) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = (0..self.completions.len()).map(TaskId).collect();
        ids.sort_by(|a, b| {
            self.completions[a.0]
                .total_cmp_s(&self.completions[b.0])
                .then(a.0.cmp(&b.0))
        });
        ids
    }

    /// Area allocated to `task` across all columns.
    pub fn allocated_area(&self, task: TaskId) -> S {
        S::sum(self.columns.iter().filter_map(|c| {
            let r = c.rate_of(task);
            if r.is_positive() {
                Some(r * c.len())
            } else {
                None
            }
        }))
    }

    /// Validate with the scalar's natural tolerance scaled by schedule size
    /// (a no-op scaling for exact scalars, whose tolerance is zero).
    pub fn validate(&self, instance: &Instance<S>) -> Result<(), ScheduleError> {
        let scale = 1.0 + self.columns.len() as f64;
        self.validate_with(instance, S::default_tolerance().scaled(scale))
    }

    /// Full validity check against Definition 2:
    ///
    /// 1. columns are contiguous from `t = 0` with non-negative lengths;
    /// 2. every rate is in `[0, min(δᵢ, P)]`;
    /// 3. per column, `Σᵢ dᵢ,ⱼ ≤ P`;
    /// 4. per task, `Σⱼ dᵢ,ⱼ·lⱼ = Vᵢ`;
    /// 5. no allocation after the recorded completion time, and the last
    ///    allocation reaches it;
    /// 6. when the instance carries arrival times, no allocation before
    ///    the task's release.
    ///
    /// Runs in O(n + column entries), plus one flow check per column on
    /// heterogeneous machines.
    pub fn validate_with(
        &self,
        instance: &Instance<S>,
        tol: Tolerance<S>,
    ) -> Result<(), ScheduleError> {
        let entries: usize = self.columns.iter().map(|c| c.rates.len()).sum();
        let mut sp = malleable_trace::span("schedule.validate");
        sp.arg("entries", entries as u64);
        if self.completions.len() != instance.n() {
            return Err(ScheduleError::LengthMismatch {
                what: "completion times",
                expected: instance.n(),
                found: self.completions.len(),
            });
        }
        for c in &self.completions {
            if !c.is_finite() || c.is_negative() {
                return Err(ScheduleError::InvalidTime {
                    value: c.to_f64(),
                    context: "completion times",
                });
            }
        }
        // Per task, only the first entry of each column counts (the one
        // `Column::rate_of` reads). Its volume terms are laid out task by
        // task in one flat vector (counted here, filled below), and its
        // last allocation is folded as the columns go by, so the volume
        // and last-allocation checks cost O(entries) time and one `S` per
        // positive entry, not a `rate_of` scan per (task, column).
        let n = instance.n();
        let mut listed_in = vec![usize::MAX; n];
        let mut terms_of = vec![0usize; n + 1];
        let mut last_alloc = vec![S::zero(); n];
        let mut prev_end = S::zero();
        for (j, col) in self.columns.iter().enumerate() {
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
                if listed_in[task.0] != j {
                    listed_in[task.0] = j;
                    if rate.is_positive() {
                        terms_of[task.0 + 1] += 1;
                    }
                    if col.len() > tol.abs && *rate > tol.abs {
                        last_alloc[task.0] = last_alloc[task.0].clone().max_of(col.end.clone());
                    }
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
                // Allocation strictly after the task's completion time.
                if col.len() > tol.abs
                    && *rate > tol.abs
                    && col.start.clone()
                        > self.completions[task.0].clone() + tol.slack(col.start.clone(), S::zero())
                {
                    return Err(ScheduleError::AllocationAfterCompletion {
                        task: *task,
                        completion: self.completions[task.0].to_f64(),
                        at: col.start.to_f64(),
                    });
                }
                // Allocation strictly before the task's release time
                // (only when the instance carries arrivals).
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
            // Compensated for f64 (see Scalar::sum), exact for exact fields.
            let total = S::sum(col.rates.iter().map(|(_, r)| r.clone()));
            if !tol.le(total.clone(), self.p.clone()) {
                return Err(ScheduleError::CapacityExceeded {
                    at: col.start.to_f64(),
                    total: total.to_f64(),
                    p: self.p.to_f64(),
                });
            }
            // On heterogeneous machines, per-task caps plus the total are
            // necessary but not sufficient: the rates must lie in the
            // capacity oracle's polymatroid (e.g. two δ = 1 tasks on
            // speeds (2, 1, 1) cannot both run at rate 2; two tasks
            // eligible only on machine 0 cannot share more than rate 1).
            // A single-interval flow decides it — exactly, for exact
            // scalars. Restricted assignment carries task identities into
            // the check; level-decomposable models are identity-blind.
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
                            capacity: self.p.to_f64(),
                        });
                    }
                }
            }
        }
        // Volumes: the same terms `allocated_area` sums, in the same order.
        for i in 0..n {
            terms_of[i + 1] += terms_of[i];
        }
        let mut next = terms_of[..n].to_vec();
        let mut terms = vec![S::zero(); terms_of[n]];
        listed_in.fill(usize::MAX);
        for (j, col) in self.columns.iter().enumerate() {
            for (task, rate) in &col.rates {
                if listed_in[task.0] != j {
                    listed_in[task.0] = j;
                    if rate.is_positive() {
                        terms[next[task.0]] = rate.clone() * col.len();
                        next[task.0] += 1;
                    }
                }
            }
        }
        for (id, t) in instance.iter() {
            let area = S::sum(terms[terms_of[id.0]..terms_of[id.0 + 1]].iter().cloned());
            if !tol.eq(area.clone(), t.volume.clone()) {
                return Err(ScheduleError::VolumeMismatch {
                    task: id,
                    allocated: area.to_f64(),
                    required: t.volume.to_f64(),
                });
            }
        }
        // Completion must coincide with the end of the last positive-rate,
        // positive-length column of each task.
        for (id, _) in instance.iter() {
            let last_alloc = &last_alloc[id.0];
            if !tol.eq(last_alloc.clone(), self.completions[id.0].clone()) {
                return Err(ScheduleError::AllocationAfterCompletion {
                    task: id,
                    completion: self.completions[id.0].to_f64(),
                    at: last_alloc.to_f64(),
                });
            }
        }
        Ok(())
    }
}

impl<S: Scalar> fmt::Display for ColumnSchedule<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ColumnSchedule (P = {}, {} columns, makespan = {:.4})",
            self.p.to_f64(),
            self.columns.len(),
            self.makespan().to_f64()
        )?;
        for (j, c) in self.columns.iter().enumerate() {
            write!(
                f,
                "  col {j}: [{:.4}, {:.4}]",
                c.start.to_f64(),
                c.end.to_f64()
            )?;
            for (t, r) in &c.rates {
                write!(f, "  {t}:{:.3}", r.to_f64())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;

    fn inst() -> Instance {
        // P = 2; two tasks.
        Instance::builder(2.0)
            .task(2.0, 1.0, 1.0) // T0: V=2, δ=1
            .task(2.0, 1.0, 2.0) // T1: V=2, δ=2
            .build()
            .unwrap()
    }

    /// T0 at rate 1 over [0,2]; T1 at rate 1 over [0,2]. Both complete at 2.
    fn valid_schedule() -> ColumnSchedule {
        ColumnSchedule {
            p: 2.0,
            completions: vec![2.0, 2.0],
            columns: vec![Column {
                start: 0.0,
                end: 2.0,
                rates: vec![(TaskId(0), 1.0), (TaskId(1), 1.0)],
            }],
        }
    }

    #[test]
    fn accessors() {
        let s = valid_schedule();
        assert_eq!(s.makespan(), 2.0);
        assert_eq!(s.completion(TaskId(1)), 2.0);
        assert_eq!(s.total_completion_time(), 4.0);
        assert_eq!(s.weighted_completion_cost(&inst()), 4.0);
        assert_eq!(s.allocated_area(TaskId(0)), 2.0);
        assert_eq!(s.completion_order(), vec![TaskId(0), TaskId(1)]);
        assert_eq!(s.columns[0].rate_of(TaskId(7)), 0.0);
        assert_eq!(s.columns[0].total_rate(), 2.0);
        assert!(!s.columns[0].is_empty());
    }

    #[test]
    fn valid_schedule_passes() {
        valid_schedule().validate(&inst()).unwrap();
    }

    #[test]
    fn delta_violation_detected() {
        let mut s = valid_schedule();
        s.columns[0].rates[0].1 = 1.5; // T0 has δ = 1
        match s.validate(&inst()) {
            Err(ScheduleError::DeltaExceeded { task, .. }) => assert_eq!(task, TaskId(0)),
            other => panic!("expected DeltaExceeded, got {other:?}"),
        }
    }

    #[test]
    fn capacity_violation_detected() {
        let mut s = valid_schedule();
        s.columns[0].rates[1].1 = 2.0; // total 3 > P = 2 (δ1 = 2 is fine)
        match s.validate(&inst()) {
            Err(ScheduleError::CapacityExceeded { .. }) => {}
            other => panic!("expected CapacityExceeded, got {other:?}"),
        }
    }

    #[test]
    fn volume_mismatch_detected() {
        let mut s = valid_schedule();
        s.columns[0].end = 1.5; // areas now 1.5 ≠ 2
        s.completions = vec![1.5, 1.5];
        match s.validate(&inst()) {
            Err(ScheduleError::VolumeMismatch { task, .. }) => assert_eq!(task, TaskId(0)),
            other => panic!("expected VolumeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn allocation_after_completion_detected() {
        let mut s = valid_schedule();
        s.completions[0] = 1.0; // claims T0 completes at 1 but it runs to 2
        match s.validate(&inst()) {
            Err(ScheduleError::AllocationAfterCompletion { task, .. }) => {
                assert_eq!(task, TaskId(0))
            }
            other => panic!("expected AllocationAfterCompletion, got {other:?}"),
        }
    }

    #[test]
    fn non_contiguous_columns_detected() {
        let mut s = valid_schedule();
        s.columns.push(Column {
            start: 5.0,
            end: 6.0,
            rates: vec![],
        });
        assert!(matches!(
            s.validate(&inst()),
            Err(ScheduleError::InvalidTime { .. })
        ));
    }

    #[test]
    fn zero_length_columns_are_legal() {
        let mut s = valid_schedule();
        s.columns.push(Column {
            start: 2.0,
            end: 2.0,
            rates: vec![],
        });
        s.validate(&inst()).unwrap();
    }

    #[test]
    fn eligibility_violation_detected() {
        // Tasks 0 and 1 are both eligible only on machine 0; task 2 owns
        // {1, 2}. Total rate 3 fits P = 3 and every δ cap, but tasks 0
        // and 1 together route at most 1 through machine 0.
        let inst = Instance::builder(0.0)
            .task(1.0, 1.0, 1.0)
            .task(1.0, 1.0, 1.0)
            .task(1.0, 1.0, 1.0)
            .restricted(3, vec![vec![0], vec![0], vec![1, 2]])
            .build()
            .unwrap();
        let s = ColumnSchedule {
            p: 3.0,
            completions: vec![1.0, 1.0, 1.0],
            columns: vec![Column {
                start: 0.0,
                end: 1.0,
                rates: vec![(TaskId(0), 1.0), (TaskId(1), 1.0), (TaskId(2), 1.0)],
            }],
        };
        match s.validate(&inst) {
            Err(ScheduleError::EligibilityExceeded {
                total, routable, ..
            }) => {
                assert!((total - 3.0).abs() < 1e-12);
                assert!((routable - 2.0).abs() < 1e-12);
            }
            other => panic!("expected EligibilityExceeded, got {other:?}"),
        }
        // The same rates route cleanly once task 1 moves to machine 1.
        let ok = Instance::builder(0.0)
            .task(1.0, 1.0, 1.0)
            .task(1.0, 1.0, 1.0)
            .task(1.0, 1.0, 1.0)
            .restricted(3, vec![vec![0], vec![1], vec![1, 2]])
            .build()
            .unwrap();
        s.validate(&ok).unwrap();
    }

    #[test]
    fn allocation_before_arrival_detected() {
        // Same schedule, but T1 only arrives at t = 1: the [0,2] column
        // allocates it too early.
        let timed = inst().with_arrivals(vec![0.0, 1.0]).unwrap();
        match valid_schedule().validate(&timed) {
            Err(ScheduleError::AllocationBeforeArrival { task, arrival, .. }) => {
                assert_eq!(task, TaskId(1));
                assert_eq!(arrival, 1.0);
            }
            other => panic!("expected AllocationBeforeArrival, got {other:?}"),
        }
        // A schedule that waits for the arrival passes: T0 alone on [0,1],
        // both at rate 1 on [1,2], T1 alone on [2,3].
        let waiting = ColumnSchedule {
            p: 2.0,
            completions: vec![2.0, 3.0],
            columns: vec![
                Column {
                    start: 0.0,
                    end: 1.0,
                    rates: vec![(TaskId(0), 1.0)],
                },
                Column {
                    start: 1.0,
                    end: 2.0,
                    rates: vec![(TaskId(0), 1.0), (TaskId(1), 1.0)],
                },
                Column {
                    start: 2.0,
                    end: 3.0,
                    rates: vec![(TaskId(1), 1.0)],
                },
            ],
        };
        waiting.validate(&timed).unwrap();
        // All-zero arrivals change nothing.
        let zeroed = inst().with_arrivals(vec![0.0, 0.0]).unwrap();
        valid_schedule().validate(&zeroed).unwrap();
    }

    #[test]
    fn length_mismatch_detected() {
        let s = valid_schedule();
        let bigger = Instance::builder(2.0)
            .tasks([(2.0, 1.0, 1.0), (2.0, 1.0, 2.0), (1.0, 1.0, 1.0)])
            .build()
            .unwrap();
        assert!(matches!(
            s.validate(&bigger),
            Err(ScheduleError::LengthMismatch { .. })
        ));
    }
}
