//! An in-process message broker implementing the AMQ model — the substrate
//! the original systems obtained from RabbitMQ (thesis implementation) or
//! Storm's streams (paper implementation).
//!
//! The model's components map one-to-one onto this crate:
//!
//! - **Exchanges** ([`exchange`]) receive published messages and route them
//!   by routing key: *direct* (exact match) or *fanout* (unconditional).
//! - **Queues** ([`queue`]) buffer routed messages until consumed. Queues
//!   are bounded; publishing into a full queue blocks, which is the
//!   backpressure mechanism of the live runtime.
//! - **Bindings** connect an exchange to a queue under a routing key.
//! - **Consumer groups** are realised the Spring-Cloud-Stream way: one
//!   shared queue per group (competing consumers — the *queuing* model).
//!
//! Delivery guarantees relevant to the join engine: a single queue is FIFO
//! per producer (crossbeam channels preserve per-sender order), and a
//! consumer sees messages of one producer in publication order — the
//! *pairwise FIFO* property (Definition 8) that the ordering protocol
//! builds on. No global cross-queue order is promised; that is exactly the
//! disorder the order-consistent protocol must (and does) repair.

#![warn(missing_docs)]

pub mod broker;
pub mod exchange;
pub mod message;
pub mod queue;

pub use broker::{Broker, BrokerStats, QueueStats};
pub use exchange::ExchangeKind;
pub use message::Message;
pub use queue::{Consumer, RecvError};
