//! # malleable-sim — non-clairvoyant execution engine and applications
//!
//! The paper's WDEQ result (Theorem 4) is about the **non-clairvoyant**
//! setting: the scheduler never sees task volumes, only completions as they
//! happen. `malleable-core` replays WDEQ clairvoyantly (fast, closed-form);
//! this crate provides the honest version:
//!
//! * [`engine`] — an event-driven simulator that feeds an
//!   [`engine::OnlinePolicy`] only observable state (weights, caps,
//!   processed volume — never remaining volume) and advances between
//!   completion events. Policy outputs are validated against the machine
//!   model at every step.
//! * [`policies`] — the registry's online entries (WDEQ, DEQ
//!   (unweighted), weighted-share-without-redistribution (the WRR
//!   analogue) and a weight-priority baseline) behind one rule adapter.
//! * [`bandwidth`] — the paper's Figure-1 application: a server with
//!   outgoing bandwidth `P` pushes code of size `Vᵢ` to workers with link
//!   capacity `δᵢ` and processing rate `wᵢ`; maximizing work processed by a
//!   horizon `T` is exactly minimizing `Σ wᵢCᵢ`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod engine;
pub mod metrics;
pub mod policies;

pub use bandwidth::{BandwidthReport, BandwidthScenario, Worker};
pub use engine::{simulate, OnlinePolicy, SimError, SimResult, TaskView};
pub use metrics::{metrics, ScheduleMetrics};
pub use policies::RuleAdapter;
