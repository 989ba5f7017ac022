//! The **join-matrix** baseline: the symmetric fragment-and-replicate
//! organisation (Stamos & Young 1993, revisited by Elseidy et al. 2014)
//! that the join-biclique model is evaluated against.
//!
//! A cluster of `rows × cols` units forms a matrix. An incoming `r ∈ R`
//! is assigned a random row and **replicated to every cell of that row**;
//! an `s ∈ S` is assigned a random column and replicated down it. Each
//! `(r, s)` pair meets in exactly one cell — the intersection — where the
//! later arrival probes the earlier one, so results are exactly-once
//! *without* any ordering protocol (an intrinsic advantage the evaluation
//! acknowledges). The intrinsic *disadvantages* are what the biclique
//! fixes and what the benchmarks measure:
//!
//! - **Memory**: every tuple is stored `cols` (for R) or `rows` (for S)
//!   times — the replication factor is `√p` on a square matrix, versus 1
//!   for the biclique.
//! - **Rigid scaling**: resizing the matrix must install full relation
//!   fragments into the new cells — [`grid::JoinMatrix::resize`] performs
//!   that migration and reports the bytes moved, versus zero for the
//!   biclique.
//!
//! Its communication cost, however, is *lower* than random-routed
//! biclique: `√p` copies per tuple versus `1 + p/2` (E11 quantifies the
//! trade).
//!
//! [`grid`] hosts the engine: synchronous and in-process, like
//! `bistream-core`'s `BicliqueEngine`, which is what every comparison of
//! the two models drives it against.

#![warn(missing_docs)]

pub mod grid;

pub use grid::{JoinMatrix, MatrixConfig, MigrationReport};
