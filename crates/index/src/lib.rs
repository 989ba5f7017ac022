//! The chained in-memory index — the per-unit storage structure of the
//! join-biclique model.
//!
//! A joiner cannot afford to organise its whole window in a single index:
//! stale-tuple discarding would then touch live data on every eviction. The
//! chained index instead partitions stored tuples by *archive period* `P`:
//! tuples are inserted into the **active** sub-index until its min/max
//! timestamp span exceeds `P`, at which point it is sealed and appended to
//! a chain of **archived** sub-indexes ordered by construction time.
//!
//! - **Indexing** ([`chain::ChainedIndex::insert`]) touches only the active
//!   sub-index.
//! - **Discarding** ([`chain::ChainedIndex::expire`]) applies Theorem 1 at
//!   sub-index granularity: an archived sub-index whose *max* timestamp is
//!   more than one window older than the incoming opposite-relation tuple
//!   is dropped wholesale — O(1) per expired sub-index, never touching
//!   live ones.
//! - **Join processing** ([`chain::ChainedIndex::probe`]) probes the active
//!   and all archived sub-indexes with the predicate's
//!   [`bistream_types::predicate::ProbePlan`], applying the pairwise window
//!   check to each candidate (archived sub-indexes may retain a tail of
//!   individually-stale tuples until they expire as a whole — lazy
//!   discarding trades a cheap timestamp comparison for index-maintenance
//!   work).
//!
//! Sub-index flavours ([`sub`]): a hash sub-index for equi predicates, an
//! ordered sub-index for band/inequality predicates (a B-tree while it is
//! the active one, a sorted run once archived, merged with its neighbours
//! up to a quarter-window), and an append-only scan sub-index for cross
//! products. [`naive`] provides the
//! single-index, per-tuple-eviction baseline used by the E6 ablation.
//! [`mod@snapshot`] serialises/restores a chain's live state for unit
//! recovery.

#![warn(missing_docs)]

pub mod chain;
pub mod naive;
pub mod snapshot;
pub mod sub;

pub use chain::{ChainStats, ChainedIndex, Discarded, IndexObs, ProbeStats};
pub use naive::NaiveWindowIndex;
pub use snapshot::{restore, snapshot};
pub use sub::IndexKind;
