//! The lock-free rings and the transport built on them.
//!
//! Where the broker transport funnels every frame through mutex-guarded
//! AMQP-model queues with byte-level encode/decode at each hop, the
//! [`Backend::Sharded`](crate::exec::Backend) transport connects the same
//! router and joiner workers (`crate::exec`'s one driver) with hand-rolled
//! bounded rings: an [`spsc`](spsc::spsc) ring per router→joiner channel
//! and a Vyukov-style [`mpmc`](spsc::mpmc) ring on the ingest edge. Frames
//! move as in-memory [`BatchMessage`](bistream_types::batch::BatchMessage)
//! values — tuple payloads inside a batch are refcounted, so a hand-off is
//! a pointer move, never a serialisation pass.
//!
//! Pairwise FIFO (Definition 8) holds by construction: each `(router,
//! joiner)` pair owns exactly one SPSC ring. The shutdown order that makes
//! every final punctuation the last frame of its channel is the driver's,
//! shared with the broker transport (see `Pipeline::finish`).

pub(crate) mod ring;
pub mod spsc;
