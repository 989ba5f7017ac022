//! Offline stand-in for `serde`: the two trait names and their derives.
//!
//! The derives are no-ops (see `serde_derive`), so the traits carry no
//! methods and no engine type implements them; code that only *names*
//! `Serialize` / `Deserialize` in a derive list compiles unchanged.

pub use serde_derive::{Deserialize, Serialize};

/// Marker standing in for `serde::Serialize`.
pub trait Serialize {}

/// Marker standing in for `serde::Deserialize`.
pub trait Deserialize<'de>: Sized {}
