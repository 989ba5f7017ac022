//! Piecewise-constant rate schedules.
//!
//! The dynamic-scaling experiments drive the system with a rate that steps
//! over time (E1/E2: 300 t/s for 10 min, 400 t/s for 30 min, 200 t/s for
//! 10 min, 300 t/s for 10 min). A `RateSchedule` is that step function.

use bistream_types::time::{Ts, MINUTE};

/// A step function from time to arrival rate (tuples/second).
#[derive(Debug, Clone, PartialEq)]
pub struct RateSchedule {
    /// `(from_ts, rate)` steps, sorted by `from_ts`, first at 0.
    steps: Vec<(Ts, f64)>,
}

impl RateSchedule {
    /// A constant rate.
    pub fn constant(rate_per_sec: f64) -> RateSchedule {
        RateSchedule { steps: vec![(0, rate_per_sec)] }
    }

    /// Build from `(from_ts, rate)` steps. Steps are sorted; a step at 0
    /// is required (the schedule must be total).
    ///
    /// # Panics
    /// If `steps` is empty or no step starts at time 0.
    pub fn new(mut steps: Vec<(Ts, f64)>) -> RateSchedule {
        assert!(!steps.is_empty(), "schedule needs at least one step");
        steps.sort_by_key(|(t, _)| *t);
        assert_eq!(steps[0].0, 0, "first step must start at t=0");
        RateSchedule { steps }
    }

    /// The 60-minute profile of the dynamic-scaling experiments
    /// (thesis Figs. 20/21): 300 → 400 (at 10') → 200 (at 40') → 300
    /// (at 50') tuples/second.
    pub fn thesis_profile() -> RateSchedule {
        RateSchedule::new(vec![
            (0, 300.0),
            (10 * MINUTE, 400.0),
            (40 * MINUTE, 200.0),
            (50 * MINUTE, 300.0),
        ])
    }

    /// Rate in effect at time `ts`.
    pub fn rate_at(&self, ts: Ts) -> f64 {
        match self.steps.binary_search_by_key(&ts, |(t, _)| *t) {
            Ok(i) => self.steps[i].1,
            Err(0) => self.steps[0].1, // unreachable given the t=0 invariant
            Err(i) => self.steps[i - 1].1,
        }
    }

    /// The steps of the schedule.
    pub fn steps(&self) -> &[(Ts, f64)] {
        &self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_everywhere() {
        let s = RateSchedule::constant(250.0);
        assert_eq!(s.rate_at(0), 250.0);
        assert_eq!(s.rate_at(u64::MAX), 250.0);
    }

    #[test]
    fn steps_switch_at_boundaries() {
        let s = RateSchedule::thesis_profile();
        assert_eq!(s.rate_at(0), 300.0);
        assert_eq!(s.rate_at(10 * MINUTE - 1), 300.0);
        assert_eq!(s.rate_at(10 * MINUTE), 400.0);
        assert_eq!(s.rate_at(40 * MINUTE), 200.0);
        assert_eq!(s.rate_at(55 * MINUTE), 300.0);
    }

    #[test]
    fn unsorted_steps_are_sorted() {
        let s = RateSchedule::new(vec![(1_000, 2.0), (0, 1.0)]);
        assert_eq!(s.rate_at(500), 1.0);
        assert_eq!(s.rate_at(1_000), 2.0);
    }

    #[test]
    #[should_panic(expected = "first step must start at t=0")]
    fn missing_origin_panics() {
        let _ = RateSchedule::new(vec![(5, 1.0)]);
    }
}
