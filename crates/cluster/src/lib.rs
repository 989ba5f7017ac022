//! The simulated elastic cluster — the substrate the thesis obtained from
//! Kubernetes on Google Container Engine and the paper from a Storm
//! cluster.
//!
//! The experiments need three things from "the cloud", and this crate
//! provides exactly those, nothing else:
//!
//! 1. **Resource accounting** ([`meter`], [`cost`]): each processing unit
//!    (pod) owns a [`meter::ResourceMeter`] it charges with CPU-µs per
//!    operation (via the calibrated [`cost::CostModel`]) and with the bytes
//!    of its live window state. This replaces cgroup accounting.
//! 2. **A metrics pipeline** ([`meter::UtilizationTracker`]): per control
//!    period, busy-time deltas become per-pod CPU utilization percentages —
//!    the role Heapster/metrics-server plays for the real HPA.
//! 3. **The Horizontal Pod Autoscaler** ([`hpa`]): the Kubernetes control
//!    loop, reproduced rule-for-rule — ratio scaling
//!    `desired = ceil(current · metric/target)`, a ±tolerance dead-band,
//!    min/max clamping, and a scale-down stabilization window.
//!
//! The simulator (`bistream_core::sim`) drives [`Hpa`] and
//! [`UtilizationTracker`] directly, so this crate knows nothing about joins.

#![warn(missing_docs)]

pub mod cost;
pub mod hpa;
pub mod meter;

pub use cost::CostModel;
pub use hpa::{Hpa, HpaConfig, MetricTarget};
pub use meter::{ResourceMeter, UtilizationTracker};
