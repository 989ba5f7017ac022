//! Core domain types shared by every BiStream-RS crate.
//!
//! This crate is dependency-light by design: it defines the vocabulary of
//! the system — streaming [`tuple::Tuple`]s over [`schema::Schema`]s,
//! the [`time`] domain (including the virtual clock both harnesses run on),
//! [`predicate::JoinPredicate`]s, [`window::WindowSpec`]s, the ordering
//! protocol's [`punct::Punctuation`]s and sequence numbers, the
//! deterministic [`hash`] used for content-sensitive routing, and the
//! [`metrics`] primitives used to observe all of it.
//!
//! Nothing in here knows about brokers, joiners or clusters; those live in
//! the downstream crates.

#![warn(missing_docs)]

/// Runtime invariant auditor: the ordering protocol's guarantees, checked
/// mechanically while a harness runs.
pub mod audit;
/// Micro-batch frames: multi-tuple messages byte-compatible at batch 1.
pub mod batch;
/// Seeded case runner for property tests: generators, size ramp, replay.
pub mod cases;
/// The shared error and result types.
pub mod error;
/// Seeded fault plans for deterministic chaos testing.
pub mod fault;
/// Deterministic content hashing for routing decisions.
pub mod hash;
/// Bounded lock-free journal of typed runtime events.
pub mod journal;
/// The one JSON codec: byte-stable writers' helpers and the parser that
/// reads their output back.
pub mod jsonlite;
/// The single source of truth for metric series names.
pub mod metric_names;
/// Counter/gauge/histogram primitives.
pub mod metrics;
/// Queueing-model analyzer over registry scrape series.
pub mod perf;
/// Join predicates and probe plans.
pub mod predicate;
/// The ordering protocol's wire vocabulary: sequence numbers,
/// punctuations, purposes and stream messages.
pub mod punct;
/// Bounded flight recorder and byte-stable breach bundles.
pub mod recorder;
/// Labeled metrics registry and the shared observability bundle.
pub mod registry;
/// The two relations of a binary stream join.
pub mod rel;
/// Tuple schemas and builders.
pub mod schema;
/// Declarative SLOs with multi-window burn-rate alerting.
pub mod slo;
/// Prometheus text-format exporter — the one exposition-format emitter.
pub mod telemetry;
/// The discrete time domain and the wall/virtual clock abstraction.
pub mod time;
/// Per-tuple causal tracing with latency attribution.
pub mod trace;
/// Streaming tuples and join results.
pub mod tuple;
/// The dynamically typed attribute values tuples carry.
pub mod value;
/// Progress watchdog: stalls and deadlocks, distinct from idleness.
pub mod watchdog;
/// Window specifications and the Theorem-1 expiry rule.
pub mod window;

pub use audit::{Auditor, Violation};
pub use batch::{BatchEntry, BatchMessage, TupleBatch};
pub use error::{Error, Result};
pub use fault::{ChaosArtifact, ChaosProfile, FaultEvent, FaultPlan, TrialSpec};
pub use journal::{Event, EventJournal, EventKind};
pub use perf::{PerfReport, UnitPerf};
pub use predicate::JoinPredicate;
pub use punct::{Punctuation, RouterId, SeqNo, StreamMessage};
pub use recorder::{BreachBundle, FlightRecorder, RunHealth};
pub use registry::{MetricsRegistry, Observability, RegistrySnapshot, Sampler};
pub use rel::Rel;
pub use schema::{Schema, TupleBuilder};
pub use slo::{BurnAlert, SloReport, SloSpec};
pub use telemetry::TextExporter;
pub use time::{Clock, Ts, VirtualClock};
pub use trace::{chrome_trace_json, HopKind, Span, Trace, TraceId, Tracer};
pub use tuple::Tuple;
pub use value::Value;
pub use watchdog::{StallVerdict, WatchdogConfig};
pub use window::WindowSpec;
