//! # malleable-core — model and algorithms for malleable task scheduling
//!
//! Implements the machinery of *"Minimizing Weighted Mean Completion Time
//! for Malleable Tasks Scheduling"* (Beaumont, Bonichon, Eyraud-Dubois,
//! Marchal — IPDPS 2012):
//!
//! * the instance model ([`instance`]): `P` identical processors, tasks
//!   `(Vᵢ, wᵢ, δᵢ)`;
//! * two equivalent schedule representations ([`schedule`]): column-based
//!   fractional schedules (Definition 2 / `MWCT-CB-F`) and piecewise-
//!   constant step schedules (Definition 1 / `MWCT`), with the Theorem-3
//!   conversions in both directions, processor-level Gantt charts and the
//!   paper's preemption accounting;
//! * the algorithms ([`algos`]): **WDEQ** (Algorithm 1, the non-clairvoyant
//!   2-approximation), **Water-Filling** (Algorithm 2, the normal form),
//!   **Greedy(σ)** (Algorithm 3), and the `Cmax`/`Lmax` solvers built on
//!   water-filling feasibility;
//! * the lower bounds ([`bounds`]): squashed area `A(I)`, height `H(I)`,
//!   the mixed bound of Lemma 1 and the per-run WDEQ certificate of
//!   Lemma 2;
//! * the policy layer ([`policy`]): every algorithm as one plain-data
//!   [`Policy`] entry in a single string-keyed table
//!   ([`policy::all`] / [`policy::by_name`]), so CLIs, sweeps and tests
//!   select algorithms — and their capabilities — as data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algos;
pub mod bounds;
pub mod error;
pub mod instance;
pub mod io;
pub mod machine;
pub mod policy;
pub mod schedule;

pub use error::ScheduleError;
pub use instance::{Instance, InstanceBuilder, Task, TaskId};
pub use machine::MachineModel;
pub use policy::{Policy, PolicyRun};
pub use schedule::column::ColumnSchedule;
pub use schedule::gantt::Gantt;
pub use schedule::step::StepSchedule;
