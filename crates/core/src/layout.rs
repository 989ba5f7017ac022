//! The mutable biclique topology.
//!
//! A `Layout` names the joiner units currently serving each side and, for
//! ContRand routing, partitions each side into subgroups. Unit ids are
//! never reused: scaling out mints fresh ids and scaling in retires the
//! most recently added units, so metric trackers and queues can tell a new
//! unit from a dead one.
//!
//! Subgroup assignment is positional — unit `i` of a side belongs to
//! subgroup `i mod d` — which keeps subgroups balanced (sizes differ by at
//! most one) as the side grows and shrinks.

use crate::config::EngineConfig;
use bistream_types::error::{Error, Result};
use bistream_types::rel::Rel;
use std::fmt;

/// Stable identifier of one joiner unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JoinerId(pub u32);

impl fmt::Display for JoinerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// The current biclique shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    r_units: Vec<JoinerId>,
    s_units: Vec<JoinerId>,
    /// Subgroups per side (`d`); 1 means "no subgrouping".
    subgroups: usize,
    next_id: u32,
    /// Monotonically increasing version, bumped on every change; routers
    /// compare versions to notice layout updates.
    version: u64,
}

impl Layout {
    /// A fresh layout with `n` R-units, `m` S-units and `d` subgroups.
    pub fn new(n: usize, m: usize, subgroups: usize) -> Result<Layout> {
        if n == 0 || m == 0 {
            return Err(Error::Config("layout needs at least one unit per side".into()));
        }
        let d = subgroups.max(1);
        if d > n || d > m {
            return Err(Error::Config(format!(
                "{d} subgroups need at least {d} units per side (have {n}×{m})"
            )));
        }
        let mut l = Layout {
            r_units: Vec::new(),
            s_units: Vec::new(),
            subgroups: d,
            next_id: 0,
            version: 0,
        };
        for _ in 0..n {
            let id = l.mint();
            l.r_units.push(id);
        }
        for _ in 0..m {
            let id = l.mint();
            l.s_units.push(id);
        }
        Ok(l)
    }

    /// The starting layout of an engine running `config`: its unit counts,
    /// subgrouped as its routing strategy asks.
    pub fn for_engine(config: &EngineConfig) -> Result<Layout> {
        Layout::new(config.r_joiners, config.s_joiners, config.routing.subgroups())
    }

    fn mint(&mut self) -> JoinerId {
        let id = JoinerId(self.next_id);
        self.next_id += 1;
        self.version += 1;
        id
    }

    /// Units currently serving `side`.
    pub fn units(&self, side: Rel) -> &[JoinerId] {
        match side {
            Rel::R => &self.r_units,
            Rel::S => &self.s_units,
        }
    }

    /// All units of both sides, R first.
    pub fn all_units(&self) -> impl Iterator<Item = (Rel, JoinerId)> + '_ {
        self.r_units.iter().map(|&u| (Rel::R, u)).chain(self.s_units.iter().map(|&u| (Rel::S, u)))
    }

    /// Total number of units (`n + m`).
    pub fn total_units(&self) -> usize {
        self.r_units.len() + self.s_units.len()
    }

    /// Subgroup count `d`.
    pub fn subgroups(&self) -> usize {
        self.subgroups
    }

    /// Change version (bumped by every mutation).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The units of `side` belonging to subgroup `g` (positional
    /// assignment `i mod d`).
    pub fn subgroup_units(&self, side: Rel, g: usize) -> impl Iterator<Item = JoinerId> + '_ {
        let d = self.subgroups;
        self.units(side).iter().enumerate().filter(move |(i, _)| i % d == g % d).map(|(_, &u)| u)
    }

    /// Which subgroup unit `id` of `side` belongs to, if present.
    pub fn subgroup_of(&self, side: Rel, id: JoinerId) -> Option<usize> {
        self.units(side).iter().position(|&u| u == id).map(|i| i % self.subgroups)
    }

    /// Change the subgroup count `d` (ContRand adaptation). Requires at
    /// least `d` units on each side.
    pub fn set_subgroups(&mut self, d: usize) -> Result<()> {
        let d = d.max(1);
        if d > self.r_units.len() || d > self.s_units.len() {
            return Err(Error::Config(format!(
                "{d} subgroups need at least {d} units per side (have {}×{})",
                self.r_units.len(),
                self.s_units.len()
            )));
        }
        self.subgroups = d;
        self.version += 1;
        Ok(())
    }

    /// Grow `side` by one unit; returns the new unit's id.
    pub fn add_unit(&mut self, side: Rel) -> JoinerId {
        let id = self.mint();
        match side {
            Rel::R => self.r_units.push(id),
            Rel::S => self.s_units.push(id),
        }
        id
    }

    /// Retire the most recently added unit of `side`; returns its id.
    ///
    /// # Errors
    /// [`Error::Scaling`] when the side would become empty.
    pub fn remove_unit(&mut self, side: Rel) -> Result<JoinerId> {
        let units = match side {
            Rel::R => &mut self.r_units,
            Rel::S => &mut self.s_units,
        };
        let Some(id) = (units.len() > 1).then(|| units.pop()).flatten() else {
            return Err(Error::Scaling(format!("side {side} cannot drop below one unit")));
        };
        self.version += 1;
        Ok(id)
    }

    /// Resize `side` to exactly `n` units. Returns `(added, removed)` ids.
    pub fn resize(&mut self, side: Rel, n: usize) -> Result<(Vec<JoinerId>, Vec<JoinerId>)> {
        if n == 0 {
            return Err(Error::Scaling("cannot scale a side to zero units".into()));
        }
        if n < self.subgroups {
            return Err(Error::Scaling(format!(
                "cannot scale below subgroup count {}",
                self.subgroups
            )));
        }
        let mut added = Vec::new();
        let mut removed = Vec::new();
        while self.units(side).len() < n {
            added.push(self.add_unit(side));
        }
        while self.units(side).len() > n {
            removed.push(self.remove_unit(side)?);
        }
        Ok((added, removed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_assigns_unique_ids() {
        let l = Layout::new(3, 2, 1).unwrap();
        assert_eq!(l.units(Rel::R).len(), 3);
        assert_eq!(l.units(Rel::S).len(), 2);
        assert_eq!(l.total_units(), 5);
        let mut ids: Vec<u32> = l.all_units().map(|(_, j)| j.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5, "ids unique");
    }

    #[test]
    fn rejects_degenerate_shapes() {
        assert!(Layout::new(0, 1, 1).is_err());
        assert!(Layout::new(2, 2, 3).is_err(), "more subgroups than units");
        assert!(Layout::new(4, 4, 2).is_ok());
    }

    #[test]
    fn subgroups_partition_evenly() {
        let l = Layout::new(5, 4, 2).unwrap();
        let g0: Vec<_> = l.subgroup_units(Rel::R, 0).collect();
        let g1: Vec<_> = l.subgroup_units(Rel::R, 1).collect();
        assert_eq!(g0.len() + g1.len(), 5);
        assert!(g0.len().abs_diff(g1.len()) <= 1, "balanced");
        // Every unit is in exactly the subgroup subgroup_of reports.
        for (i, &u) in l.units(Rel::R).iter().enumerate() {
            assert_eq!(l.subgroup_of(Rel::R, u), Some(i % 2));
        }
    }

    #[test]
    fn scaling_mints_fresh_ids_and_retires_lifo() {
        let mut l = Layout::new(2, 2, 1).unwrap();
        let v0 = l.version();
        let new = l.add_unit(Rel::R);
        assert!(l.version() > v0);
        assert_eq!(l.units(Rel::R).len(), 3);
        let gone = l.remove_unit(Rel::R).unwrap();
        assert_eq!(gone, new, "LIFO retirement");
        // Ids are never reused.
        let again = l.add_unit(Rel::R);
        assert_ne!(again, new);
    }

    #[test]
    fn cannot_empty_a_side() {
        let mut l = Layout::new(1, 1, 1).unwrap();
        assert!(l.remove_unit(Rel::R).is_err());
        assert!(l.resize(Rel::S, 0).is_err());
    }

    #[test]
    fn resize_reports_delta() {
        let mut l = Layout::new(2, 2, 1).unwrap();
        let (added, removed) = l.resize(Rel::S, 5).unwrap();
        assert_eq!((added.len(), removed.len()), (3, 0));
        let (added, removed) = l.resize(Rel::S, 2).unwrap();
        assert_eq!((added.len(), removed.len()), (0, 3));
        assert_eq!(l.units(Rel::S).len(), 2);
    }

    #[test]
    fn set_subgroups_validates_and_bumps_version() {
        let mut l = Layout::new(4, 4, 1).unwrap();
        let v = l.version();
        l.set_subgroups(4).unwrap();
        assert_eq!(l.subgroups(), 4);
        assert!(l.version() > v);
        assert!(l.set_subgroups(5).is_err(), "more subgroups than units");
        l.set_subgroups(0).unwrap();
        assert_eq!(l.subgroups(), 1, "zero clamps to one");
    }

    #[test]
    fn resize_respects_subgroup_floor() {
        let mut l = Layout::new(4, 4, 2).unwrap();
        assert!(l.resize(Rel::R, 1).is_err());
        assert!(l.resize(Rel::R, 2).is_ok());
    }
}
