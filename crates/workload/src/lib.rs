//! Synthetic stream workloads.
//!
//! The paper's evaluation (and the thesis's autoscaling figures) are driven
//! by streams whose interesting properties are: the **arrival rate** (and
//! how it changes over time), the **key distribution** (uniform vs skewed),
//! the **predicate selectivity** (equi vs band vs theta), and the window
//! volume those imply. This crate parameterises exactly those axes with
//! fully deterministic, seeded generators:
//!
//! - [`keys`] — uniform, Zipf (YCSB-style constant-time sampling), and
//!   time-shifting Zipf key distributions (exact table sampler, any
//!   exponent, hot set rotating per period — the adaptive-routing
//!   adversary).
//! - [`arrival`] — constant-gap and Poisson arrival processes, plus
//!   piecewise-constant [`schedule::RateSchedule`]s (e.g. the 60-minute
//!   300→400→200→300 t/s profile of the dynamic-scaling experiments).
//! - [`source`] — per-relation tuple sources producing `(ts, Tuple)`
//!   streams, and an interleaver merging R and S by timestamp.
//! - [`io`] — line-oriented file adapters (the stream-service edge).

#![warn(missing_docs)]

pub mod arrival;
pub mod io;
pub mod keys;
pub mod schedule;
pub mod source;

pub use arrival::ArrivalProcess;
pub use keys::KeyDist;
pub use schedule::RateSchedule;
pub use source::{interleave, StreamSource};
