//! The BiStream-RS repository benchmark. See `benchmark/README.md`.

pub mod calib;
pub mod gen;
pub mod layers;
pub mod manifest;
pub mod reference;
pub mod runs;
pub mod spans;
pub mod stats;
pub mod workload;
