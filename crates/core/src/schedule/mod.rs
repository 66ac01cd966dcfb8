//! Schedule representations and conversions.
//!
//! The paper works with two equivalent formulations (Theorem 3):
//!
//! * [`column::ColumnSchedule`] — the *column-based fractional* form
//!   (`MWCT-CB-F`, Definition 2): between two consecutive completion times
//!   every task holds a constant, possibly fractional, number of
//!   processors. This is the canonical internal representation.
//! * [`step::StepSchedule`] — the general form (`MWCT`, Definition 1): an
//!   arbitrary piecewise-constant allocation `dᵢ(t)` per task, integer or
//!   fractional.
//! * [`gantt::Gantt`] — fully resolved per-processor timelines, the level
//!   at which *preemptions* (Theorems 9/10) are counted.
//!
//! [`convert`] implements the Theorem-3 transformations between the three.
//!
//! The objective and the makespan depend on completion times alone, so
//! they are defined here on completion vectors ([`weighted_completion_cost`],
//! [`makespan`]): a caller that holds only completions (`msched` outside
//! `--gantt`/`--svg`) reports the same bits as one holding a schedule.

pub mod column;
pub mod convert;
pub mod gantt;
pub mod step;
pub mod svg;

use crate::instance::Instance;
use numkit::Scalar;

/// The paper's objective `Σ wᵢCᵢ` of a completion vector, summed with
/// `S::sum` in task order.
///
/// # Panics
/// Panics when the instance task count differs from the vector's
/// (callers pair completions with the instance that produced them).
pub fn weighted_completion_cost<S: Scalar>(instance: &Instance<S>, completions: &[S]) -> S {
    assert_eq!(
        instance.n(),
        completions.len(),
        "instance/completions task count mismatch"
    );
    S::sum(
        instance
            .iter()
            .map(|(id, t)| t.weight.clone() * completions[id.0].clone()),
    )
}

/// The makespan `max Cᵢ` of a completion vector (zero when empty).
pub fn makespan<S: Scalar>(completions: &[S]) -> S {
    completions.iter().cloned().fold(S::zero(), S::max_of)
}
