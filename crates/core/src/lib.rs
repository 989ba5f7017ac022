//! The join-biclique distributed stream join engine (BiStream).
//!
//! A cluster of `n + m` processing units is organised as a complete
//! bipartite graph: `n` **joiner** units store partitions of relation R,
//! `m` store partitions of S. **Router** units ingest the interleaved
//! input streams and send every tuple (a) to exactly one unit of its own
//! side for *storage* and (b) to the unit(s) of the opposite side that may
//! hold matching tuples for *join processing*. Routers and joiners only
//! ever talk through the message substrate — no joiner-to-joiner edges —
//! which is what makes the topology elastic: units can be added or retired
//! without touching stored state.
//!
//! Module map:
//!
//! - [`config`] — engine configuration (sides, routing strategy, archive
//!   period, punctuation interval).
//! - [`adaptive`] — skew-adaptive routing: a hot-key summary in the router
//!   hot path, the self-tuning hot/cold tier classifier, and the
//!   punctuation-fenced two-phase strategy-switch protocol.
//! - [`layout`] — the mutable biclique topology: unit ids per side,
//!   ContRand subgroups, scaling edits.
//! - [`router`] — the routing core: Random, Hash (content-sensitive) and
//!   ContRand strategies, sequence stamping, punctuation emission.
//! - [`ordering`] — the joiner-side reorder buffer implementing the
//!   order-consistent protocol over pairwise-FIFO channels.
//! - [`joiner`] — the joiner core: store/join branches over the chained
//!   in-memory index, Theorem-1 discarding, result emission, resource
//!   charging.
//! - [`delivery`] — simulated pairwise-FIFO channels with an in-order or
//!   an adversarial scheduler: the virtual-time engine's network.
//! - [`engine`] — the assembled biclique for deterministic in-process
//!   execution, including elastic scaling operations.
//! - [`sim`] — the virtual-time driver for long-horizon experiments
//!   (dynamic scaling, memory behaviour).
//! - [`exec`] — the live pipeline: [`exec::Pipeline`], one threaded worker
//!   driver (router loop, joiner loop, result sink, shutdown) over a small
//!   transport seam, and the broker transport; for wall-clock
//!   throughput/latency measurements.
//! - [`sharded`] — the hand-rolled lock-free rings ([`sharded::spsc`]) and
//!   the ring transport built on them.
//! - [`chaos`] — deterministic fault injection: the plan-driven network
//!   scheduler, the crash/recover trial runner and the failing-plan
//!   minimiser behind the chaos exploration harness.
//! - [`cascade`] — multi-way joins as pipelines of binary bicliques.
//! - [`query`] — a schema-aware query builder resolving named join
//!   conditions into engine configurations.
//! - [`stats`] — engine-wide observability.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod adaptive;
pub mod cascade;
pub mod chaos;
pub mod config;
pub mod delivery;
pub mod engine;
pub mod exec;
pub mod joiner;
pub mod layout;
pub mod ordering;
pub mod query;
pub mod router;
pub mod sharded;
pub mod sim;
pub mod stats;

pub use config::{EngineConfig, RoutingStrategy};
pub use engine::BicliqueEngine;
pub use joiner::JoinerCore;
pub use layout::{JoinerId, Layout};
pub use query::{JoinQuery, QueryBuilder};
pub use router::RouterCore;
pub use stats::EngineStats;
